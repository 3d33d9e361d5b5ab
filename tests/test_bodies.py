import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from voliso import (AffineMap, DegenerateBodyError, HPolytope, UnboundedBodyError,
                    VPolytope, apply_affine, bodies, hrep_from_vrep,
                    john_position, polytope_from_dict, polytope_to_dict, polytope_volume,
                    read_polytope, unit_ball_volume, vrep_from_hrep,
                    write_polytope)
from voliso.shapes import (cube, cube_vertices, cross_polytope, random_polytope,
                           regular_simplex, simplex_contact_directions)


def _vertex_set_distance(A, B):
    """Largest distance from any point of either set to the other set."""
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return max(d.min(axis=0).max(), d.min(axis=1).max())


class TestUnitBallVolume:
    def test_disc(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)

    def test_ball(self):
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-14)

    def test_interval(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_recursion(self, n):
        # v_n = 2 pi v_{n-2} / n
        assert unit_ball_volume(n) == pytest.approx(
            2 * math.pi * unit_ball_volume(n - 2) / n, rel=1e-12)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestAffine:
    def test_identity_on_cube(self):
        Q = cube(2)
        image = apply_affine(Q, AffineMap.identity(2))
        assert np.allclose(image.normals, Q.normals)
        assert np.allclose(image.offsets, Q.offsets)

    def test_axis_scaling(self):
        image = apply_affine(cube(2), AffineMap(np.diag([2.0, 1.0])))
        # box [-2,2] x [-1,1]
        for normal, offset in zip(image.normals, image.offsets):
            expected = 2.0 if abs(normal[0]) > 0.5 else 1.0
            assert offset == pytest.approx(expected, abs=1e-12)

    def test_round_trip_triangle(self):
        tri = vrep_from_hrep(regular_simplex(2))
        T = AffineMap(np.array([[1.3, 0.4], [-0.2, 0.8]]), np.array([0.1, -0.2]))
        back = apply_affine(apply_affine(tri, T), T.inverse())
        assert _vertex_set_distance(back.vertices, tri.vertices) < 1e-12

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(0)
        T = AffineMap(rng.standard_normal((3, 3)) + 3 * np.eye(3), rng.standard_normal(3))
        S = AffineMap(rng.standard_normal((3, 3)) + 3 * np.eye(3), rng.standard_normal(3))
        x = rng.standard_normal((5, 3))
        assert np.allclose(T.compose(S)(x), T(S(x)))
        assert np.allclose(T.inverse()(T(x)), x, atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_affine_round_trip_on_vertices(self, seed):
        rng = np.random.default_rng(seed)
        from voliso.shapes import random_affine_map

        T = random_affine_map(2, rng, max_shift=0.3)
        V = cube_vertices(2)
        back = apply_affine(apply_affine(V, T), T.inverse())
        assert _vertex_set_distance(back.vertices, V.vertices) < 1e-10


class TestConversions:
    def test_cube_hrep_to_vrep(self):
        V = vrep_from_hrep(cube(3))
        assert V.num_vertices == 8
        expected = cube_vertices(3).vertices
        assert np.allclose(np.sort(V.vertices, axis=0), np.sort(expected, axis=0))

    def test_triangle_vrep_to_hrep(self):
        # regular triangle with unit inradius: all facet planes at distance 1
        tri = vrep_from_hrep(regular_simplex(2))
        H = hrep_from_vrep(tri)
        assert H.num_facets == 3
        assert np.allclose(H.offsets, 1.0, atol=1e-9)

    def test_cross_polytope_vrep_to_hrep(self):
        H = hrep_from_vrep(cross_polytope(3))
        assert H.num_facets == 8
        # facet planes x +- y +- z = 1 have unit distance 1/sqrt(3)
        assert np.allclose(H.offsets, 1 / math.sqrt(3), atol=1e-12)
        assert np.allclose(np.abs(H.normals), 1 / math.sqrt(3), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_membership(self, n):
        rng = np.random.default_rng(42 + n)
        P = random_polytope(n, rng)
        back = hrep_from_vrep(vrep_from_hrep(P))
        pts = rng.uniform(-2.5, 2.5, size=(1000, n))
        assert np.array_equal(P.contains(pts, tol=1e-9), back.contains(pts, tol=1e-9))

    @pytest.mark.parametrize("index", [3, 9])
    def test_six_dim_enumeration(self, index):
        # raw intersections hull fine; rounding them first made qhull fail
        rng = np.random.default_rng(6)
        P = [random_polytope(6, rng) for _ in range(index + 1)][index]
        V = vrep_from_hrep(P)
        assert np.all(P.contains(V.vertices, tol=1e-7))
        assert polytope_volume(V) > 0.0

    def test_failure_from_origin_retried_from_chebyshev_center(self, monkeypatch):
        # qhull's outcome turns on the last bits of the vertices, which
        # depend on the interior point; a failure from the origin is retried
        P = apply_affine(cube(3), AffineMap(np.eye(3), [0.1, 0.2, 0.0]))
        real = bodies.HalfspaceIntersection

        def fails_from_origin(halfspaces, interior):
            if not np.any(interior):
                raise QhullError("QH6271 simulated failure")
            return real(halfspaces, interior)

        monkeypatch.setattr(bodies, "HalfspaceIntersection", fails_from_origin)
        V = vrep_from_hrep(P)
        assert V.num_vertices == 8
        assert polytope_volume(V) == pytest.approx(8.0, rel=1e-12)

    def test_no_retry_when_chebyshev_center_is_origin(self, monkeypatch):
        # raw bodies with facets tangent to a sphere about the origin have
        # the origin as Chebyshev center; a retry would repeat the failure
        calls = []

        def always_fails(halfspaces, interior):
            calls.append(interior)
            raise QhullError("QH6271 simulated failure")

        monkeypatch.setattr(bodies, "HalfspaceIntersection", always_fails)
        with pytest.raises(DegenerateBodyError, match="QH6271"):
            vrep_from_hrep(cube(3))
        assert len(calls) == 1

    def test_degenerate_rejected(self):
        flat = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        with pytest.raises(DegenerateBodyError, match="not full-dimensional"):
            VPolytope(flat)

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedBodyError):
            HPolytope(np.array([[1.0, 0], [-1, 0]]), [1.0, 1.0])

    def test_origin_exterior_rejected(self):
        with pytest.raises(DegenerateBodyError):
            hrep_from_vrep(VPolytope(np.array([[1.0, 1], [2, 1], [1, 2], [2, 2]])))


def _bounded_by_lp(A):
    """The LP test that ``_check_bounded`` replaced: after the rank check,
    maximize sum(xi) over |w|_inf <= 1, 0 <= xi <= 1, Aw + xi <= 0; the
    recession cone {w : Aw <= 0} is trivial iff the optimum is zero."""
    m, n = A.shape
    if np.linalg.matrix_rank(A, tol=1e-10) < n:
        return False
    c = np.concatenate([np.zeros(n), -np.ones(m)])
    res = linprog(c, A_ub=np.hstack([A, np.eye(m)]), b_ub=np.zeros(m),
                  bounds=[(-1, 1)] * n + [(0, 1)] * m, method="highs")
    return res.status == 0 and -res.fun <= 1e-9


def _unit_rows(A):
    A = np.asarray(A, dtype=float)
    return A / np.linalg.norm(A, axis=1, keepdims=True)


_MIRRORED = np.random.default_rng(4).standard_normal((4, 4))


class TestCheckBounded:
    """``_check_bounded`` is one NNLS solve; it must give the answer of the
    LP it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_lp_on_seeded_draws(self, n):
        # m from n + 1 to 6n: few normals leave many draws unbounded
        rng = np.random.default_rng(700 + n)
        verdicts = []
        for m in range(n + 1, 6 * n + 1):
            for _ in range(8):
                A = _unit_rows(rng.standard_normal((m, n)))
                verdict = bodies._check_bounded(A)
                assert verdict == _bounded_by_lp(A), (m, A.tolist())
                verdicts.append(verdict)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10

    @pytest.mark.parametrize("name, normals, bounded", [
        ("cube", np.vstack([np.eye(3), -np.eye(3)]), True),
        ("cube missing a facet", np.vstack([np.eye(3), -np.eye(3)[:2]]), False),
        ("rank deficient", np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), False),
        ("half-plane with an antipodal pair", [[1.0, 0], [-1, 0], [0, 1]], False),
        ("simplex", simplex_contact_directions(4), True),
        ("mirrored", np.vstack([_MIRRORED, -_MIRRORED]), True),
    ])
    def test_edge_cases(self, name, normals, bounded):
        A = _unit_rows(normals)
        assert bodies._check_bounded(A) is bounded
        assert _bounded_by_lp(A) is bounded

    def test_nnls_failure_propagates(self, monkeypatch):
        # nnls raises RuntimeError at its iteration cap; that is not a
        # verdict, so it reaches the caller instead of reading as unbounded
        def capped(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(bodies, "nnls", capped)
        with pytest.raises(RuntimeError, match="Maximum number of iterations"):
            HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))


class TestNormalization:
    def test_rows_are_normalized(self):
        P = HPolytope([[3.0, 0], [0, 2], [-1, 0], [0, -5]], [6.0, 2.0, 1.0, 5.0])
        assert np.allclose(np.linalg.norm(P.normals, axis=1), 1.0, atol=1e-12)
        assert np.allclose(sorted(P.offsets), [1.0, 1.0, 1.0, 2.0])

    def test_slacks(self):
        P = cube(2)
        assert np.allclose(P.slacks([0.5, 0.0]), [0.5, 1.0, 1.5, 1.0])

    def test_vertices_canonicalized(self):
        square_plus_interior = np.array(
            [[1.0, 1], [-1, 1], [1, -1], [-1, -1], [0, 0], [0.5, 0.5]])
        V = VPolytope(square_plus_interior)
        assert V.num_vertices == 4


class TestFileFormat:
    def test_round_trip_hrep_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        P = random_polytope(3, rng)
        path = tmp_path / "body.json"
        write_polytope(path, P)
        Q = read_polytope(path)
        assert np.array_equal(Q.normals, P.normals)
        assert np.array_equal(Q.offsets, P.offsets)

    def test_round_trip_vrep_exact(self, tmp_path):
        V = vrep_from_hrep(random_polytope(2, np.random.default_rng(6)))
        path = tmp_path / "body.json"
        write_polytope(path, V)
        W = read_polytope(path)
        assert np.array_equal(W.vertices, V.vertices)

    def test_format_fields(self, tmp_path):
        path = tmp_path / "cube.json"
        write_polytope(path, cube(2))
        data = json.loads(path.read_text())
        assert data["dim"] == 2
        assert data["kind"] == "H"
        assert len(data["rows"]) == 4 and len(data["rows"][0]) == 3

    def test_dict_round_trip(self):
        V = cross_polytope(3)
        W = polytope_from_dict(polytope_to_dict(V))
        assert np.array_equal(W.vertices, V.vertices)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="polytope must be a JSON object"):
            polytope_from_dict([[1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("row, value", [(0, np.nan), (2, np.inf), (3, -np.inf)])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_row_rejected(self, row, value, column):
        rows = np.hstack([cube(2).normals, cube(2).offsets[:, None]])
        rows[row, column] = value
        with pytest.raises(ValueError, match=f"facet row {row} is not finite"):
            HPolytope(rows[:, :2], rows[:, 2], validate=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            polytope_from_dict({"dim": 2, "kind": "X", "rows": []})


class TestVPolytopeContains:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_hull_contains_its_own_vertices(self, n):
        # rows rounded to 9 decimals rejected some of these vertices
        rng = np.random.default_rng([79, n])
        for _ in range(40):
            pts = rng.standard_normal((rng.integers(n + 2, 4 * n + 1), n))
            V = VPolytope(pts - pts.mean(axis=0))
            assert V.contains(V.vertices).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_origin_outside(self, n):
        V = VPolytope(cube_vertices(n).vertices + 5.0)
        assert V.contains(np.full(n, 5.0))
        assert not V.contains(np.zeros(n))
        inside = V.contains(np.array([np.full(n, 4.5), np.full(n, 3.5)]))
        assert inside.tolist() == [True, False]


class TestHullRoundTrip:
    @pytest.mark.parametrize("n, draws", [(2, 12), (3, 12), (4, 12), (5, 8), (6, 4)])
    def test_vertices_and_volume_come_back(self, n, draws):
        # the first draws of each n, none skipped; facet rows rounded to 9
        # decimals no longer met in one point at a vertex on more than n
        # facets, and came back as a cloud of intersections
        rng = np.random.default_rng([79, n])
        for _ in range(draws):
            pts = rng.standard_normal((rng.integers(n + 2, 4 * n + 1), n))
            pts -= pts.mean(axis=0)
            V = VPolytope(pts)
            back = vrep_from_hrep(hrep_from_vrep(V))
            assert back.num_vertices == V.num_vertices
            assert np.abs(back.vertices - V.vertices).max() <= 1e-12
            assert polytope_volume(back) == pytest.approx(
                ConvexHull(pts).volume, rel=1e-12, abs=0)

    def test_symmetric_john_body_vertex_list_comes_back(self):
        # body 2 of this draw once raised QH6271 (dupridge) from the hull of
        # its 880 vertices, so it could not be written as a V-file and read
        # back; the facet and vertex counts pin the draw
        rng = np.random.default_rng([5, True, 4242])
        body = [random_polytope(5, rng, symmetric=True) for _ in range(3)][2]
        assert body.num_facets == 56
        V = vrep_from_hrep(john_position(body)[0])
        back = VPolytope(V.vertices)
        assert back.num_vertices == V.num_vertices == 880
        assert np.array_equal(back.vertices, V.vertices)
        assert polytope_volume(back) == pytest.approx(
            polytope_volume(V), rel=1e-12, abs=0)
