import math

import numpy as np
import pytest

from voliso import (Estimate, McParams, VPolytope, bodies,
                    cauchy_surface_area, isoperimetric_quotient,
                    petty_functional, polytope_volume, projection_area,
                    surface_area, unit_ball_volume, vrep_from_hrep)
from voliso.shapes import (cross_polytope, cube_vertices, random_polytope,
                           random_rotation, regular_polygon, regular_simplex)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def triangle():
    return vrep_from_hrep(regular_simplex(2))


class TestExactMeasures:
    def test_cube_volume(self):
        assert polytope_volume(cube_vertices(3)) == pytest.approx(8.0, abs=1e-12)

    def test_triangle_volume(self, triangle):
        # unit-inradius regular triangle: area 3 sqrt(3) = 2^1 3^{3/2} / 2!
        assert polytope_volume(triangle) == pytest.approx(3 * SQRT3, abs=1e-8)

    def test_cross_polytope_volume(self):
        assert polytope_volume(cross_polytope(3)) == pytest.approx(4 / 3, abs=1e-12)

    def test_volume_rigid_motion_invariant(self):
        V = cross_polytope(3)
        rng = np.random.default_rng(0)
        Q = random_rotation(3, rng)
        moved = VPolytope(V.vertices @ Q.T + rng.standard_normal(3))
        assert polytope_volume(moved) == pytest.approx(polytope_volume(V), abs=1e-10)

    def test_volume_vertex_permutation_invariant(self):
        verts = cube_vertices(3).vertices
        rng = np.random.default_rng(1)
        shuffled = VPolytope(verts[rng.permutation(len(verts))])
        assert polytope_volume(shuffled) == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_moved_cube_measures(self, n):
        # rotated and shifted cube of side 2w: |K| = (2w)^n, |dK| = 2n (2w)^(n-1)
        rng = np.random.default_rng(n)
        w = 0.7
        Q = random_rotation(n, rng)
        moved = VPolytope(cube_vertices(n, w).vertices @ Q.T + rng.standard_normal(n))
        assert polytope_volume(moved) == pytest.approx((2 * w) ** n, rel=1e-12)
        assert surface_area(moved) == pytest.approx(2 * n * (2 * w) ** (n - 1), rel=1e-12)

    @pytest.mark.parametrize("n, seed", [(3, 43), (4, 44), (5, 45), (6, 46)])
    def test_random_body_matches_facet_sum(self, n, seed):
        # reference from the H-representation: |F_i| is the hull of facet i's
        # vertices in its plane, |dK| = sum |F_i| and |K| = (1/n) sum b_i |F_i|
        P = random_polytope(n, np.random.default_rng(seed))
        body = vrep_from_hrep(P)
        facets = []
        for normal, offset in zip(P.normals, P.offsets):
            on = body.vertices[np.abs(body.vertices @ normal - offset) < 1e-9]
            full = len(on) >= n and np.linalg.matrix_rank(on[1:] - on[0]) == n - 1
            facets.append(_projected_hull_volume(on, normal) if full else 0.0)
        facets = np.array(facets)
        assert surface_area(body) == pytest.approx(facets.sum(), rel=1e-9)
        assert polytope_volume(body) == pytest.approx(P.offsets @ facets / n, rel=1e-9)

    def test_cube_surface(self):
        assert surface_area(cube_vertices(3)) == pytest.approx(24.0, abs=1e-10)

    def test_square_surface(self):
        assert surface_area(cube_vertices(2)) == pytest.approx(8.0, abs=1e-12)

    def test_triangle_perimeter(self, triangle):
        # side 2 sqrt(3), three sides
        assert surface_area(triangle) == pytest.approx(6 * SQRT3, abs=1e-8)

    def test_square_quotient_is_2n(self):
        assert isoperimetric_quotient(cube_vertices(2)) == pytest.approx(4.0, abs=1e-12)

    def test_cube_quotient_is_2n(self):
        assert isoperimetric_quotient(cube_vertices(3)) == pytest.approx(6.0, abs=1e-12)

    def test_triangle_quotient(self, triangle):
        expected = 6 * SQRT3 / (3 * SQRT3) ** 0.5    # n |T|^{1/n} at n = 2
        assert isoperimetric_quotient(triangle) == pytest.approx(expected, abs=1e-8)
        assert expected == pytest.approx(4.55901, abs=1e-5)


class TestMcVolume:
    def test_mcparams_validation(self):
        with pytest.raises(ValueError):
            McParams(0)

    def test_estimate_serialization(self):
        est = Estimate(1.0, 0.1, 100)
        assert est.to_dict() == {"value": 1.0, "std_error": 0.1, "samples": 100}


class TestProjections:
    def test_cube_axis_shadow(self):
        assert projection_area(cube_vertices(3), [0, 0, 1]) == pytest.approx(4.0, abs=1e-12)

    def test_cube_general_shadow(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            theta = rng.standard_normal(3)
            theta /= np.linalg.norm(theta)
            expected = 4 * np.abs(theta).sum()   # facet shadows halved
            assert projection_area(cube_vertices(3), theta) == pytest.approx(
                expected, abs=1e-9)

    def test_disc_width(self):
        poly = regular_polygon(720)
        assert projection_area(poly, [1.0, 0.0]) == pytest.approx(2.0, abs=1e-4)

    def test_square_width(self):
        assert projection_area(cube_vertices(2), [1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
        diag = [1 / math.sqrt(2), 1 / math.sqrt(2)]
        assert projection_area(cube_vertices(2), diag) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cube_shadow_closed_form(self, n):
        # each facet pair of cube(n) casts 2^(n-1) |theta_k|
        rng = np.random.default_rng(20 + n)
        theta = rng.standard_normal(n)
        theta /= np.linalg.norm(theta)
        shadow = projection_area(cube_vertices(n), theta)
        assert isinstance(shadow, float)
        assert shadow == pytest.approx(2.0 ** (n - 1) * np.abs(theta).sum(), rel=1e-12)

    @pytest.mark.parametrize("theta", [[0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                                       [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0],
                                       [[0.0, 0.0, 1.0]]])
    def test_bad_direction_rejected(self, theta):
        with pytest.raises(ValueError, match="finite nonzero vector of length 3"):
            projection_area(cube_vertices(3), theta)

    def test_mc_argument_ignored(self):
        theta = [0, 0, 0, 1.0]
        assert projection_area(cube_vertices(4), theta, McParams(4000, seed=5)) == \
            projection_area(cube_vertices(4), theta) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("n, seed", [(3, 33), (4, 34), (5, 35), (6, 36), (6, 46)])
    def test_shadow_matches_projected_hull(self, n, seed, monkeypatch):
        # the shadows come from the facets of the H-description, with no
        # hull of the vertices; qhull's triangulation of the seed-46 body's
        # hull overlaps itself, so a hull would have needed a joggle there
        rng = np.random.default_rng(seed)
        body = vrep_from_hrep(random_polytope(n, rng))
        monkeypatch.setattr(bodies, "ConvexHull", _no_hull)
        for _ in range(3):
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            expected = _projected_hull_volume(body.vertices, theta)
            assert projection_area(body, theta) == pytest.approx(expected, rel=1e-9)

    def test_shadow_formula_matches_hull_area(self):
        # facet-sum identity used by the spherical averages
        from voliso.measures import _shadows

        rng = np.random.default_rng(6)
        body = vrep_from_hrep(random_polytope(3, rng))
        thetas = rng.standard_normal((20, 3))
        thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
        fast = _shadows(body, thetas)
        slow = [_projected_hull_volume(body.vertices, theta) for theta in thetas]
        assert np.allclose(fast, slow, atol=1e-9)


def _no_hull(*args, **kwargs):
    raise AssertionError("a ConvexHull was built")


def _projected_hull_volume(points, theta):
    """(n-1)-volume of the hull of the points projected on theta-perp."""
    from scipy.spatial import ConvexHull

    n = theta.size
    basis = np.linalg.svd(np.eye(n) - np.outer(theta, theta))[0][:, : n - 1]
    return ConvexHull(points @ basis).volume


class TestCauchyFormula:
    def test_cube(self):
        est = cauchy_surface_area(cube_vertices(3), McParams(200_000, seed=7))
        assert est.agrees_with(24.0)

    def test_square(self):
        est = cauchy_surface_area(cube_vertices(2), McParams(200_000, seed=8))
        assert est.agrees_with(8.0)

    def test_triangle(self, triangle):
        est = cauchy_surface_area(triangle, McParams(200_000, seed=9))
        assert est.agrees_with(6 * SQRT3)

    def test_mean_shadow_of_cube_is_six(self):
        # E|shadow| = 6 on S^2, so the factor n v_n / v_{n-1} = 4 gives 24
        est = cauchy_surface_area(cube_vertices(3), McParams(100_000, seed=10))
        factor = 3 * unit_ball_volume(3) / unit_ball_volume(2)
        assert factor == pytest.approx(4.0, abs=1e-12)
        assert est.value / factor == pytest.approx(6.0, abs=0.02)


def _petty_square_quadrature():
    """Dense-grid oracle for the square's shadow functional."""
    phi = np.linspace(0.0, 2 * np.pi, 400_001)
    widths = 2 * (np.abs(np.cos(phi)) + np.abs(np.sin(phi)))
    inner = np.trapezoid(widths ** -2.0, phi) / (2 * np.pi)
    return (4.0 * inner) ** -0.5


class TestPettyFunctional:
    def test_disc_value(self):
        # shadow of a near-disc is nearly constant, so Monte Carlo error is
        # negligible next to the 720-gon discretization bias; compare at the
        # discretization scale
        est = petty_functional(regular_polygon(720), McParams(200_000, seed=11))
        assert est.value == pytest.approx(2 / math.sqrt(math.pi), abs=1e-4)

    def test_square_against_quadrature(self):
        oracle = _petty_square_quadrature()
        assert oracle == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)
        est = petty_functional(cube_vertices(2), McParams(400_000, seed=12))
        assert est.agrees_with(oracle)

    def test_affine_invariance(self):
        from voliso import apply_affine
        from voliso.shapes import random_affine_map

        square = cube_vertices(2)
        base = petty_functional(square, McParams(400_000, seed=13))
        rng = np.random.default_rng(14)
        image = apply_affine(square, random_affine_map(2, rng, max_shift=0.2))
        other = petty_functional(image, McParams(400_000, seed=15))
        combined = math.hypot(base.std_error, other.std_error)
        assert abs(base.value - other.value) <= 3 * combined

    def test_disc_below_square(self):
        disc = petty_functional(regular_polygon(720), McParams(400_000, seed=16))
        square = petty_functional(cube_vertices(2), McParams(400_000, seed=17))
        assert disc.value < square.value

    @pytest.mark.parametrize("seed", [18, 19])
    def test_hoelder_lower_bound_on_quotient(self, seed):
        # quotient >= (n v_n / v_{n-1}) * petty on any body
        rng = np.random.default_rng(seed)
        body = vrep_from_hrep(random_polytope(2, rng))
        est = petty_functional(body, McParams(200_000, seed=seed))
        factor = 2 * unit_ball_volume(2) / unit_ball_volume(1)
        bound = factor * (est.value - 3 * est.std_error)
        assert isoperimetric_quotient(body) >= bound
