import functools
import math

import numpy as np
import pytest

from voliso import (AffineMap, HPolytope, InfeasibleDecompositionError,
                    NotJohnPositionError, SolverError, UnboundedBodyError,
                    apply_affine, bodies, contact_points,
                    john, john_decomposition, john_position,
                    max_inscribed_ellipsoid, polytope_volume, read_polytope,
                    volume_ratio, vrep_from_hrep, write_polytope)
from voliso.shapes import (cube, lp_ball_polygon, random_affine_map,
                           random_polytope, regular_polygon, regular_simplex,
                           simplex_contact_directions)


def box(widths):
    n = len(widths)
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.concatenate([widths, widths]), validate=False)


class TestMaxInscribedEllipsoid:
    def test_cube_unit_ball(self):
        E = max_inscribed_ellipsoid(cube(3))
        assert np.max(np.abs(E.shape - np.eye(3))) < 1e-9
        assert np.max(np.abs(E.center)) < 1e-9
        assert abs(np.linalg.det(E.shape) - 1.0) < 1e-6

    def test_box_axis_scaling(self):
        E = max_inscribed_ellipsoid(box([2.0, 1.0]))
        assert np.max(np.abs(E.shape - np.diag([2.0, 1.0]))) < 1e-8
        assert np.max(np.abs(E.center)) < 1e-9

    def test_regular_triangle_incircle(self):
        # the maximal ellipse of a regular simplex is its incircle; the
        # KKT certificate is the 120-degree contact decomposition
        E, info = max_inscribed_ellipsoid(regular_simplex(2), full_output=True)
        assert np.max(np.abs(E.shape - np.eye(2))) < 1e-9
        assert np.max(np.abs(E.center)) < 1e-9
        assert info.kkt_residual <= 1e-8

    def test_contained_in_body(self):
        rng = np.random.default_rng(2)
        P = random_polytope(3, rng)
        E = max_inscribed_ellipsoid(P)
        # each SOC constraint |B a| + <a, d> <= b with slack >= -1e-9
        slack = P.offsets - P.normals @ E.center - np.linalg.norm(
            P.normals @ E.shape, axis=1)
        assert slack.min() >= -1e-9

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            P = random_polytope(n, rng)
            _, info = max_inscribed_ellipsoid(P, full_output=True)
            assert info.kkt_residual <= 1e-8

    def test_iterates_stay_interior(self, monkeypatch):
        # every Newton system is built at a strictly feasible point with
        # positive multipliers: the steps go 0.99 of the way to the boundary
        rng = np.random.default_rng(4)
        P = random_polytope(3, rng)
        seen = []
        build = john._newton_system

        def spy(sym, tensors, point, lam, weight):
            seen.append((point[1].copy(), np.copy(lam)))
            return build(sym, tensors, point, lam, weight)

        monkeypatch.setattr(john, "_newton_system", spy)
        _, info = max_inscribed_ellipsoid(P, full_output=True)
        assert len(seen) == info.newton_iterations
        for g, lam in seen:
            assert g.min() > 0.0 and lam.min() > 0.0

    def test_hexagon_degenerate_multipliers(self):
        # regular hexagon tangent to the unit disc: 6 contacts but only a
        # one-parameter family of weights; the solve must still be clean
        ang = 2 * np.pi * np.arange(6) / 6
        P = HPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.ones(6),
                      validate=False)
        E = max_inscribed_ellipsoid(P)
        assert np.max(np.abs(E.shape - np.eye(2))) < 1e-8
        assert np.max(np.abs(E.center)) < 1e-9

    def test_unbounded_rejected_at_construction(self):
        with pytest.raises(UnboundedBodyError):
            HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])


class TestBarrierDerivatives:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gradient_and_hessian_match_differences(self, n):
        rng = np.random.default_rng(100 + n)
        P = random_polytope(n, rng)
        A, b = P.normals, P.offsets
        sym = john._sym_index(n)
        tensors = john._barrier_tensors(sym, A, b)
        t = 3.7
        for _ in range(3):
            # a random feasible point: a perturbed ball about a shifted center
            M = rng.standard_normal((n, n))
            B = 0.4 * b.min() * (np.eye(n) + 0.1 * (M + M.T))
            d = 0.1 * b.min() * rng.standard_normal(n) / math.sqrt(n)
            theta = np.concatenate([B[sym.rows, sym.cols], d])
            assert john._interior_point(sym, A, b, theta) is not None

            def barrier(x):
                # Phi_t = -t log det B - sum log g_i from the point's Cholesky
                # factor and g; with lam_i = 1 / g_i the system is its
                # gradient t rows[0] - rows[1] and Hessian K
                at = john._interior_point(sym, A, b, x)
                L, g, _ = at
                value = -2.0 * t * np.log(L.diagonal()).sum() - np.log(g).sum()
                (grad0, dual), W, K = john._newton_system(sym, tensors, at, 1.0 / g, t)
                return value, g, t * grad0 - dual, W, K

            _, _, grad, W, H = barrier(theta)
            h = 1e-6 * b.min()
            pairs = [(barrier(theta + e), barrier(theta - e))
                     for e in np.eye(theta.size) * h]
            fd_grad = np.array([(up[0] - down[0]) / (2 * h) for up, down in pairs])
            fd_hess = np.array([(up[2] - down[2]) / (2 * h) for up, down in pairs])
            # W holds the gradients of the g_i
            fd_W = np.array([(up[1] - down[1]) / (2 * h) for up, down in pairs]).T
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-6,
                                       atol=1e-6 * np.abs(grad).max())
            np.testing.assert_allclose(H, fd_hess, rtol=1e-6,
                                       atol=1e-6 * np.abs(H).max())
            np.testing.assert_allclose(W, fd_W, rtol=1e-6, atol=1e-6 * np.abs(W).max())

    @pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tensors_match_direct_assembly(self, n, symmetric):
        # the per-body tensors give the system that the direct assembly
        # below gives, at random feasible points and positive multipliers
        rng = np.random.default_rng([n, symmetric])
        P = random_polytope(n, rng, symmetric=symmetric)
        A, b = P.normals, P.offsets
        sym = john._sym_index(n)
        tensors = john._barrier_tensors(sym, A, b)
        for weight in (0.0, 3.7, 1e6):
            M = rng.standard_normal((n, n))
            B = 0.4 * b.min() * (np.eye(n) + 0.1 * (M + M.T))
            d = 0.1 * b.min() * rng.standard_normal(n) / math.sqrt(n)
            lam = rng.uniform(0.1, 10.0, P.num_facets)
            theta = np.concatenate([B[sym.rows, sym.cols], d])
            point = john._interior_point(sym, A, b, theta)
            (grad0, dual), W, K = john._newton_system(sym, tensors, point, lam, weight)
            (ref0, ref_dual), ref_W, ref_K = _direct_newton_system(A, b, B, d, lam,
                                                                   weight)
            for got, want in ((grad0, ref0), (dual, ref_dual), (W, ref_W), (K, ref_K)):
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())


def _direct_newton_system(A, b, B, d, lam, weight):
    """[grad f0, sum lam_i W_i], the gradients W_i of the g_i and the matrix
    weight hess f0 + sum (lam_i / g_i) W_i W_i^T - sum lam_i M_i in packed
    (B, d), assembled per step: packed gradients through the duplication
    matrix D, D^T (B^-1 kron B^-1) D for -log det B, and the constraints'
    curvature from a tensor built entry by entry."""
    m, n = A.shape
    pairs = [(j, k) for j in range(n) for k in range(j + 1)]
    q = len(pairs)
    D = np.zeros((n * n, q))
    for col, (j, k) in enumerate(pairs):
        D[k * n + j, col] = D[j * n + k, col] = 1.0
    # C maps outer(a, a) to the Gram matrix of the tangents
    # T_p = e_j a_k + e_k a_j, halved on the diagonal
    C = np.zeros((q, q, n, n))
    scale = [0.5 if j == k else 1.0 for j, k in pairs]
    for p, (j, k) in enumerate(pairs):
        for r, (l, mm) in enumerate(pairs):
            for (w, x, y, z) in ((j, l, k, mm), (j, mm, k, l),
                                 (k, l, j, mm), (k, mm, j, l)):
                if w == x:
                    C[p, r, y, z] += scale[p] * scale[r]
    C = C.reshape(q * q, n * n)

    def pair_products(X, Y):
        # row-wise packed gradient of x^T B y in B
        return (D.T @ np.einsum("ij,ik->jki", X, Y).reshape(n * n, -1)).T

    Binv = np.linalg.inv(B)
    s = b - A @ d
    V = A @ B
    g = s ** 2 - (V ** 2).sum(axis=1)
    size = q + n
    grad0 = np.zeros(size)
    grad0[:q] = -Binv.reshape(-1) @ D
    W = np.hstack([-2.0 * pair_products(V, A), -2.0 * s[:, None] * A])
    scaled = W * np.sqrt(lam / g)[:, None]
    K = scaled.T @ scaled
    K[:q, :q] += weight * (D.T @ np.kron(Binv, Binv) @ D)
    S2 = (A * (2.0 * lam)[:, None]).T @ A
    K[:q, :q] += (C @ S2.reshape(-1)).reshape(q, q)
    K[q:, q:] -= S2
    return (grad0, lam @ W), W, K


class TestCertifiedStop:
    def test_iteration_cap_fails_loudly(self, monkeypatch):
        # a solve cut off before its gap closes must raise, not return the
        # uncertified iterate
        monkeypatch.setattr(john, "_MAX_NEWTON", 6)
        with pytest.raises(SolverError, match="no certified optimum after 6 Newton"):
            max_inscribed_ellipsoid(random_polytope(3, 5))

    def test_uncertified_result_raises(self, monkeypatch):
        monkeypatch.setattr(john, "_kkt_certificate", lambda *args: 1e-3)
        with pytest.raises(SolverError, match="KKT residual 1.000e-03"):
            max_inscribed_ellipsoid(cube(2))

    def test_indefinite_newton_system_raises(self):
        with pytest.raises(SolverError, match="singular or indefinite"):
            john._factor(-np.eye(3))

    @pytest.mark.parametrize("make", [cube, regular_simplex], ids=["cube", "simplex"])
    def test_central_start_takes_no_centring_step(self, make, monkeypatch):
        # the start ball of a cube or a regular simplex is central at the
        # start weight: after the start weight's system (weight 0) the
        # centring builds one system and stops without a step
        events = _centring_events(make(3), monkeypatch)
        assert events == [("_newton_system", 0.0), ("_newton_system", 1.0)]

    def test_centring_takes_whole_steps(self, monkeypatch):
        # off the central path the centring alternates systems and steps,
        # each step starting whole, and ends on a system
        events = _centring_events(random_polytope(3, 5), monkeypatch)
        assert events[0] == ("_newton_system", 0.0)
        assert events[1::2] == [("_newton_system", 1.0)] * (len(events) // 2)
        assert events[2::2] == [("_step", 1.0)] * (len(events) // 2 - 1)
        assert len(events) >= 5

    def test_step_without_interior_point_raises(self, monkeypatch):
        # a step that finds no interior point must raise once its length
        # falls below 1e-13, not halve it for ever
        interior = john._interior_point
        calls = []

        def only_the_start(*args):
            calls.append(None)
            return interior(*args) if len(calls) == 1 else None

        monkeypatch.setattr(john, "_interior_point", only_the_start)
        with pytest.raises(SolverError, match="no interior point"):
            max_inscribed_ellipsoid(random_polytope(3, 5))
        assert len(calls) == 1 + 44     # the start, then lengths 2^0 .. 2^-43

    def test_non_finite_step_raises(self):
        P = cube(2)
        sym = john._sym_index(2)
        theta = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(SolverError, match="not finite"):
                john._step(sym, P.normals, P.offsets, theta, np.full(5, bad), 1.0)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("make", [cube, regular_simplex], ids=["cube", "simplex"])
    def test_equality_cases_are_certified(self, make, n):
        # the start ball of a cube or a regular simplex is on the central
        # path at the start weight, up to rounding
        E, info = max_inscribed_ellipsoid(make(n), full_output=True)
        assert info.kkt_residual <= 1e-8
        assert np.max(np.abs(E.shape - np.eye(n))) <= 1e-8
        assert np.max(np.abs(E.center)) <= 1e-8

    def test_singular_newton_system_is_regularised(self):
        F = john._factor(np.diag([2.0, 0.0]))
        step = john.lapack.dpotrs(F, np.array([1.0, 0.0]), lower=1)[0]
        assert step == pytest.approx([0.5, 0.0])

    def test_loose_centring_keeps_flat_optimum_distance(self, monkeypatch):
        # body 12 of this draw has a flat optimum: the barrier path's stop
        # at a duality gap of 6e-11 certified it to 2e-10, yet left it
        # 1.14e-8 from the solve run down to a gap of 1e-13.  Loose
        # centring at the start weight must not move it further than tight
        # centring does.
        P = _flat_optimum_bodies()[12]

        def solve(**constants):
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(john, name, value)
                return max_inscribed_ellipsoid(P)

        def distance(E, F):
            return max(np.abs(E.shape - F.shape).max(),
                       np.abs(E.center - F.center).max())

        reference = solve(_GAP_TOL=1e-13)
        loose = distance(solve(), reference)
        tight = distance(solve(_CENTRE_TOL=1e-13), reference)
        assert loose <= tight + 1e-10
        assert loose <= 1.2e-8


def _centring_events(P, monkeypatch):
    """The Newton systems, with their weight, and the steps, with their
    first length, of the solve of P before the primal-dual loop's first
    _step_lengths."""
    events = []

    def spy(name, argument):
        wrapped = getattr(john, name)

        def record(*args):
            events.append((name, args[argument]))
            return wrapped(*args)

        monkeypatch.setattr(john, name, record)

    spy("_newton_system", 4)
    spy("_step", 5)
    spy("_step_lengths", 6)
    max_inscribed_ellipsoid(P)
    first = next(i for i, event in enumerate(events) if event[0] == "_step_lengths")
    return events[:first]


@functools.cache
def _flat_optimum_bodies():
    """200 draws of 4-D general bodies; 12, 121 and 123 have flat optima."""
    rng = np.random.default_rng(20_260_004)
    return [random_polytope(4, rng) for _ in range(200)]


def _distance(E, F):
    return max(np.abs(E.shape - F.shape).max(), np.abs(E.center - F.center).max())


def _elongated_triangle_body():
    # facets tangent to one circle whose John ellipse lies far from it,
    # centred near (251, -212)
    rng = np.random.default_rng(1813316532)
    return [random_polytope(2, rng) for _ in range(3)][-1]


HARD_BODIES = {
    "elongated-2": _elongated_triangle_body,
    "near-facet-4": lambda: _near_facet(random_polytope(4, 404), 1e-9)[0],
    "flat-optimum-4": lambda: _flat_optimum_bodies()[123],
}


class TestHardBodies:
    @pytest.mark.parametrize("name", sorted(HARD_BODIES))
    def test_certified(self, name):
        # the elongated body needs the centring at the start weight; the
        # near-facet one a regularised Newton matrix; on the flat optimum
        # the stationarity residual stalls near 1e-8 while the gap closes
        P = HARD_BODIES[name]()
        E, info = max_inscribed_ellipsoid(P, full_output=True)
        assert info.kkt_residual <= 1e-8
        assert info.duality_gap <= john._GAP_TOL
        if name == "elongated-2":
            assert np.abs(E.center - [251.1, -211.7]).max() <= 0.1

    @pytest.mark.parametrize("index, bound", [(12, 1e-12), (121, 1e-8), (123, 5e-7)])
    def test_facet_order(self, index, bound):
        # the ellipsoid depends on the body, not on the order of its facets;
        # the bounds were fixed before the primal-dual solve was measured
        P = _flat_optimum_bodies()[index]
        E = max_inscribed_ellipsoid(P)
        for k in range(1, 6):
            perm = np.random.default_rng(k).permutation(P.num_facets)
            F = max_inscribed_ellipsoid(HPolytope(P.normals[perm], P.offsets[perm],
                                                  validate=False))
            assert _distance(F, E) <= bound


class TestSolveInfo:
    @pytest.mark.parametrize("seed", [5, 6])
    def test_counts(self, seed, monkeypatch):
        # newton_iterations counts the Newton matrices factored, and the
        # stop comes at a gap within tolerance with a certified residual
        P = random_polytope(3, seed)
        factored = []
        factor = john._factor

        def count(K):
            factored.append(K.shape)
            return factor(K)

        monkeypatch.setattr(john, "_factor", count)
        _, info = max_inscribed_ellipsoid(P, full_output=True)
        assert info.newton_iterations == len(factored)
        assert 0.0 < info.duality_gap <= john._GAP_TOL
        assert info.kkt_residual <= john._KKT_TARGET

    def test_no_state_between_calls(self):
        P, Q = random_polytope(3, 8), random_polytope(2, 9)
        first, info = max_inscribed_ellipsoid(P, full_output=True)
        max_inscribed_ellipsoid(Q)
        again, info_again = max_inscribed_ellipsoid(P, full_output=True)
        assert np.array_equal(first.shape, again.shape)
        assert np.array_equal(first.center, again.center)
        assert info == info_again

    def test_no_linear_program_on_the_john_path(self, monkeypatch, tmp_path):
        # drawing, validating and reading bodies tests boundedness by NNLS,
        # the solve starts from a ball about the origin and vertex
        # enumeration starts from the origin of the John image
        path = tmp_path / "body.json"
        write_polytope(path, random_polytope(4, 11))

        def no_lp(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(bodies, "linprog", no_lp)
        for P in (random_polytope(3, 10), random_polytope(3, 10, symmetric=True),
                  HPolytope(cube(3).normals, [1.0, 2.0, 3.0, 1.5, 2.5, 0.5],
                            validate=True),
                  read_polytope(path)):
            image, _ = john_position(P)
            assert vrep_from_hrep(image).num_vertices > P.dim


def _near_facet(P, depth):
    """P translated so that the origin lies ``depth`` from one facet.

    The bodies used here have the foot point b_0 a_0 of facet 0 on that
    facet, so the shift (b_0 - depth) a_0 keeps every other slack at least
    ``depth``.  Returns the translated body and the shift."""
    shift = (P.offsets[0] - depth) * P.normals[0]
    moved = apply_affine(P, AffineMap(np.eye(P.dim), -shift))
    assert moved.offsets.min() == pytest.approx(depth, rel=1e-3)
    return moved, shift


NEAR_FACET_BODIES = {"cube-3": lambda: cube(3),
                     "random-4": lambda: random_polytope(4, 11),
                     "random-6": lambda: random_polytope(6, 12)}


class TestOriginNearFacet:
    """The solve starts from a ball about the origin, and vertex enumeration
    starts from the origin when it is deep enough; both must give the moved
    body's results however close the origin is to a facet."""

    @pytest.mark.parametrize("depth", [1e-3, 1e-9, 1e-12])
    @pytest.mark.parametrize("name", sorted(NEAR_FACET_BODIES))
    def test_ellipsoid_is_translated(self, name, depth):
        P = NEAR_FACET_BODIES[name]()
        moved, shift = _near_facet(P, depth)
        E = max_inscribed_ellipsoid(P)
        F = max_inscribed_ellipsoid(moved)
        assert np.max(np.abs(F.shape - E.shape)) <= 1e-8
        assert np.max(np.abs(F.center - (E.center - shift))) <= 1e-8

    @pytest.mark.parametrize("depth", [1e-3, 1e-9, 1e-12])
    @pytest.mark.parametrize("name", sorted(NEAR_FACET_BODIES))
    def test_vertices_are_translated(self, name, depth):
        P = NEAR_FACET_BODIES[name]()
        moved, _ = _near_facet(P, depth)
        V, W = vrep_from_hrep(P), vrep_from_hrep(moved)
        assert W.num_vertices == V.num_vertices
        assert polytope_volume(W) == pytest.approx(polytope_volume(V), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.9, 1 - 1e-6, 1 - 1e-9])
    @pytest.mark.parametrize("n, seed, symmetric",
                             [(2, 21, False), (3, 22, True), (5, 23, False)])
    def test_ellipsoid_follows_map_to_near_vertex(self, n, seed, symmetric, lam):
        # a random linear map after moving the origin most of the way to a
        # vertex: the solve must return the image of the unmoved body's
        # ellipsoid, {L B u + L (d - z)}, compared through B B^T
        P = random_polytope(n, seed, symmetric=symmetric)
        L = random_affine_map(n, seed).linear
        z = lam * vrep_from_hrep(P).vertices[0]
        moved = apply_affine(P, AffineMap(L, -L @ z))
        E = max_inscribed_ellipsoid(P)
        F, info = max_inscribed_ellipsoid(moved, full_output=True)
        gram = L @ E.shape @ E.shape.T @ L.T
        size = np.abs(gram).max()
        assert np.max(np.abs(F.shape @ F.shape.T - gram)) <= 1e-8 * size
        assert np.max(np.abs(F.center - L @ (E.center - z))) <= 1e-8 * math.sqrt(size)
        assert info.kkt_residual <= 1e-8


class TestScale:
    """The solve is scale-equivariant, and so must be its stop: the same
    body in other units gives the scaled ellipsoid, certified alike."""

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    @pytest.mark.parametrize("make", [lambda: cube(3), lambda: random_polytope(4, 1),
                                      lambda: random_polytope(3, 4, symmetric=True)],
                             ids=["cube-3", "random-4", "symmetric-3"])
    def test_scaled_body(self, make, scale):
        P = make()
        E, info = max_inscribed_ellipsoid(P, full_output=True)
        scaled = apply_affine(P, AffineMap(scale * np.eye(P.dim), np.zeros(P.dim)))
        F, scaled_info = max_inscribed_ellipsoid(scaled, full_output=True)
        assert np.max(np.abs(F.shape / scale - E.shape)) <= 1e-8
        assert np.max(np.abs(F.center / scale - E.center)) <= 1e-8
        assert scaled_info.kkt_residual <= 1e-8
        assert np.linalg.det(F.shape) == pytest.approx(
            np.linalg.det(E.shape) * scale ** P.dim, rel=1e-6)

    @pytest.mark.parametrize("power", [-30, 30])
    def test_power_of_two_units_change_nothing(self, power):
        # scaling by 2^k is exact, so the certificate, and with it every
        # decision of the stop, must come out bit for bit the same
        P = random_polytope(4, 1)
        E, info = max_inscribed_ellipsoid(P, full_output=True)
        scale = 2.0 ** power
        scaled = apply_affine(P, AffineMap(scale * np.eye(P.dim), np.zeros(P.dim)))
        F, scaled_info = max_inscribed_ellipsoid(scaled, full_output=True)
        assert np.array_equal(F.shape, scale * E.shape)
        assert np.array_equal(F.center, scale * E.center)
        assert scaled_info.kkt_residual == info.kkt_residual
        assert scaled_info.newton_iterations == info.newton_iterations


class TestJohnPosition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_idempotent_on_affine_cube(self, seed):
        rng = np.random.default_rng(seed)
        body = apply_affine(cube(2), random_affine_map(2, rng, max_shift=0.2))
        image, T = john_position(body)
        E = max_inscribed_ellipsoid(image)
        assert np.max(np.abs(E.shape - np.eye(2))) < 1e-7
        assert np.max(np.abs(E.center)) < 1e-7

    @pytest.mark.parametrize("seed", [3, 4])
    def test_idempotent_on_random_triangle(self, seed):
        rng = np.random.default_rng(seed)
        body = apply_affine(regular_simplex(2), random_affine_map(2, rng, max_shift=0.2))
        image, T = john_position(body)
        E = max_inscribed_ellipsoid(image)
        assert np.max(np.abs(E.shape - np.eye(2))) < 1e-7
        assert np.max(np.abs(E.center)) < 1e-7

    def test_map_is_ellipsoid_inverse(self):
        rng = np.random.default_rng(7)
        body = random_polytope(3, rng)
        E = max_inscribed_ellipsoid(body)
        image, T = john_position(body)
        assert np.allclose(T.linear @ E.shape, np.eye(3), atol=1e-8)
        assert np.allclose(T(E.center), np.zeros(3), atol=1e-9)

    def test_identity_on_cube(self):
        image, T = john_position(cube(2))
        assert np.allclose(T.linear, np.eye(2), atol=1e-9)
        assert np.allclose(T.shift, 0.0, atol=1e-9)

    def test_box_rescaled_to_cube(self):
        image, T = john_position(box([4.0, 1.0]))
        assert np.allclose(T.linear, np.diag([0.25, 1.0]), atol=1e-8)
        assert np.allclose(sorted(image.offsets), np.ones(4), atol=1e-8)


class TestContactPoints:
    def test_square(self):
        U = contact_points(cube(2))
        expected = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
        d = np.linalg.norm(U[:, None] - expected[None], axis=2)
        assert U.shape == (4, 2) and d.min(axis=1).max() < 1e-12

    def test_cube_3d(self):
        U = contact_points(cube(3))
        assert U.shape == (6, 3)
        assert np.allclose(np.abs(U).sum(axis=1), 1.0)

    def test_triangle_mutual_angles(self):
        U = contact_points(regular_simplex(2))
        assert U.shape == (3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert U[i] @ U[j] == pytest.approx(-0.5, abs=1e-12)

    def test_non_contact_facets_excluded(self):
        A = np.vstack([np.eye(2), -np.eye(2), [[1 / math.sqrt(2), 1 / math.sqrt(2)]]])
        P = HPolytope(A, [1, 1, 1, 1, 1.9], validate=False)
        U = contact_points(P)
        assert U.shape == (4, 2)

    def test_not_john_position_raises(self):
        with pytest.raises(NotJohnPositionError):
            contact_points(cube(2, half_width=0.5))


class TestJohnDecomposition:
    def test_square_weights(self):
        dec = john_decomposition(contact_points(cube(2)), symmetric=True)
        assert np.allclose(dec.weights, 0.5, atol=1e-6)
        assert dec.weights.sum() == pytest.approx(2.0, abs=1e-8)

    def test_triangle_weights(self):
        dec = john_decomposition(contact_points(regular_simplex(2)), symmetric=False)
        assert np.allclose(dec.weights, 2.0 / 3.0, atol=1e-8)
        assert dec.barycenter_norm() < 1e-8
        assert dec.weights.sum() == pytest.approx(2.0, abs=1e-8)

    def test_cube_3d_minimal_norm(self):
        dec = john_decomposition(contact_points(cube(3)), symmetric=True)
        assert np.allclose(dec.weights, 0.5, atol=1e-6)

    def test_invariants_act_like_orthonormal_basis(self):
        dec = john_decomposition(simplex_contact_directions(3), symmetric=False)
        assert dec.frobenius_residual() <= 1e-8
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((100, 3)):
            quad = dec.weights @ (dec.vectors @ x) ** 2
            assert quad == pytest.approx(x @ x, abs=1e-7)

    def test_infeasible_contacts_raise(self):
        # two directions cannot resolve the identity in the plane
        with pytest.raises(InfeasibleDecompositionError):
            john_decomposition(np.array([[1.0, 0.0], [-1.0, 0.0]]), symmetric=True)

    def test_zero_weight_contacts_dropped(self):
        # spurious fifth direction is redundant for the square system
        U = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1],
                      [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        dec = john_decomposition(U, symmetric=True)
        assert dec.frobenius_residual() <= 1e-8
        assert np.all(dec.weights > 0)


class TestVolumeRatio:
    def test_square(self):
        assert volume_ratio(cube(2)) == pytest.approx(math.sqrt(4 / math.pi), abs=1e-6)

    def test_regular_triangle(self):
        expected = math.sqrt(3 * math.sqrt(3) / math.pi)
        assert volume_ratio(regular_simplex(2)) == pytest.approx(expected, abs=1e-6)

    def test_fine_polygon_disc_is_one(self):
        from voliso import hrep_from_vrep

        P = hrep_from_vrep(regular_polygon(512))
        assert volume_ratio(P) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        P = random_polytope(2, rng)
        T = random_affine_map(2, rng, max_shift=0.1)
        assert volume_ratio(apply_affine(P, T)) == pytest.approx(
            volume_ratio(P), abs=1e-6)

    def test_lp_ball_p4_between_disc_and_square(self):
        from voliso import hrep_from_vrep

        vr = volume_ratio(hrep_from_vrep(lp_ball_polygon(4.0)))
        assert 1.0 < vr < math.sqrt(4 / math.pi)
