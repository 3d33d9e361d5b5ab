import math
import re
import warnings

import numpy as np
import pytest

from voliso import (BLSystem, GaugeError, HPolytope, L1_VR_LIMIT, McParams,
                    SolverError, SubspaceSpec, WeightedLpGauge, gauge_integral_volume,
                    hrep_from_vrep, inscribed_radius_check, l1_vr_bound,
                    lewis_position, lp_ball_volume, lp_ball_volume_ratio,
                    max_inscribed_ellipsoid, polytope_volume, product_volume_bound,
                    subspace_volume_ratio, verify_product_volume_bound, volume_ratio,
                    vrep_from_hrep)
from voliso.shapes import cross_polytope, lp_ball_polygon

MC = McParams(sample_count=400_000, seed=3)


def lp_gauge(vectors, alphas, p):
    return WeightedLpGauge(BLSystem(vectors, alphas), p)


def hexagon_gauge():
    """Three directions at 60 degrees with the Lewis normalization, p = 1."""
    ang = np.pi * np.arange(3) / 3
    U = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return lp_gauge(U, [2 / 3] * 3, 1.0)


class TestLpBallVolume:
    def test_cross_polytope_area(self):
        assert lp_ball_volume(2, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_disc(self):
        assert lp_ball_volume(2, 2.0) == pytest.approx(math.pi, rel=1e-14)

    def test_cube(self):
        assert lp_ball_volume(3, math.inf) == pytest.approx(8.0)

    def test_matches_exact_cross_polytope_volume(self):
        for n in (2, 3, 4):
            exact = polytope_volume(cross_polytope(n))
            assert lp_ball_volume(n, 1.0) == pytest.approx(exact, rel=1e-10)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            lp_ball_volume(2, 0.5)


class TestGaugeVolume:
    def test_euclidean_ball_n3(self):
        gauge = lp_gauge(np.eye(3), np.ones(3), 2.0)
        est = gauge_integral_volume(gauge, MC)
        assert est.agrees_with(4 * math.pi / 3)

    def test_l1_ball_n2(self):
        gauge = lp_gauge(np.eye(2), np.ones(2), 1.0)
        est = gauge_integral_volume(gauge, MC)
        assert est.agrees_with(2.0)

    def test_linf_gauge_with_mismatched_p(self, monkeypatch):
        # the identity holds for any gauge and any finite p: the l_3 gauge's
        # p and bounding radius sqrt(3) with the l_inf gauge's values
        monkeypatch.setattr(WeightedLpGauge, "__call__", lambda self, pts: np.max(
            np.abs(np.atleast_2d(pts)), axis=1))
        gauge = lp_gauge(np.eye(3), np.ones(3), 3.0)
        assert gauge.bounding_radius() == pytest.approx(math.sqrt(3.0))
        est = gauge_integral_volume(gauge, MC)
        assert est.agrees_with(8.0)

    def test_requires_finite_p(self):
        with pytest.raises(ValueError):
            lp_gauge(np.eye(2), np.ones(2), math.inf)

    def test_non_coercive_gauge_detected(self, monkeypatch):
        # a gauge that vanishes along the second axis has unbounded radii
        monkeypatch.setattr(WeightedLpGauge, "__call__",
                            lambda self, pts: np.abs(np.atleast_2d(pts)[:, 0]))
        with pytest.raises(GaugeError):
            gauge_integral_volume(lp_gauge(np.eye(2), np.ones(2), 1.0), MC)

    def test_gauge_homogeneity(self):
        rng = np.random.default_rng(0)
        gauge = hexagon_gauge()
        x = rng.standard_normal((50, 2))
        t = rng.uniform(0.1, 10.0, size=50)
        assert np.allclose(gauge(x * t[:, None]), t * gauge(x), rtol=1e-12)

    def test_gauge_rejects_nonspanning_vectors(self):
        with pytest.raises(GaugeError):
            lp_gauge([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], 2.0)


class TestProductVolumeBound:
    def test_orthonormal_equality_case(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            bound = product_volume_bound(np.ones(3), np.ones(3), p, 3)
            assert bound == pytest.approx(lp_ball_volume(3, p), rel=1e-12)

    def test_lewis_normalization_simplifies(self):
        # alpha_i = c_i cancels the product term
        c = np.array([0.5, 0.5, 0.5, 0.5])
        bound = product_volume_bound(c, c, 1.5, 2)
        assert bound == pytest.approx(lp_ball_volume(2, 1.5), rel=1e-12)

    def test_meyer_pajor_weighting(self):
        # alpha_i = c_i^{p/2} gives the section-bound configuration
        c = np.array([0.5, 0.5, 0.5, 0.5])
        p = 1.5
        bound = product_volume_bound(c, c ** (p / 2), p, 2)
        expected = lp_ball_volume(2, p) * float(
            np.prod((c / c ** (p / 2)) ** (c / p)))
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_trace_violation_rejected(self):
        with pytest.raises(ValueError):
            product_volume_bound([1.0, 1.0], [1.0, 1.0], 2.0, 3)

    def test_canonical_equality_within_mc_error(self):
        gauge = lp_gauge(np.eye(2), np.ones(2), 1.0)
        report = verify_product_volume_bound(gauge, np.ones(2), MC)
        assert report.satisfied
        assert abs(report.volume.value - report.bound) <= 3 * report.volume.std_error

    def test_hexagon_strictly_below_bound(self):
        gauge = hexagon_gauge()
        # exact hexagon area from the facet description of the unit ball
        signs = np.array([[s1, s2, s3] for s1 in (-1, 1) for s2 in (-1, 1)
                          for s3 in (-1, 1)], dtype=float)
        normals = (signs * gauge.system.weights) @ gauge.system.vectors
        ball = HPolytope(normals, np.ones(len(normals)), validate=False)
        exact = polytope_volume(vrep_from_hrep(ball))
        bound = product_volume_bound([2 / 3] * 3, gauge.system.weights, 1.0, 2)
        assert exact < bound - 0.05          # strict gap, hexagon is not l_1^2
        report = verify_product_volume_bound(gauge, [2 / 3] * 3, MC)
        assert report.satisfied
        assert abs(report.volume.value - exact) <= 3 * report.volume.std_error

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_random_systems_respect_bound(self, p):
        from voliso.brascamp_lieb import random_system

        rng = np.random.default_rng(int(p * 10))
        for _ in range(3):
            system = random_system(2, int(rng.integers(3, 7)), rng)
            alphas = rng.uniform(0.3, 3.0, size=system.size)
            gauge = lp_gauge(system.vectors, alphas, p)
            report = verify_product_volume_bound(gauge, system.weights,
                                  McParams(150_000, seed=int(rng.integers(1 << 16))))
            assert report.satisfied

    def test_invalid_decomposition_rejected(self):
        gauge = lp_gauge(np.eye(2), np.ones(2), 2.0)
        with pytest.raises(ValueError):
            verify_product_volume_bound(gauge, [1.0, 2.0], MC)


class TestLewisPosition:
    def test_identity_embedding(self):
        spec = SubspaceSpec(np.eye(3), 1.5)
        lewis = lewis_position(spec)
        assert np.allclose(np.abs(lewis.gauge.system.vectors), np.eye(3), atol=1e-12)
        assert np.allclose(lewis.gauge.system.weights, 1.0, atol=1e-12)

    def test_p2_is_orthonormalization(self):
        rng = np.random.default_rng(1)
        spec = SubspaceSpec(rng.standard_normal((6, 3)), 2.0)
        lewis = lewis_position(spec)
        assert lewis.iterations == 0      # QR start is already the fixed point
        assert lewis.residual <= 1e-10

    def test_single_column(self):
        m_col = np.array([[2.0], [-1.0], [0.5]])
        spec = SubspaceSpec(m_col, 1.5)
        lewis = lewis_position(spec)
        expected = np.abs(m_col.ravel()) ** 1.5
        expected /= expected.sum()
        assert np.allclose(np.sort(lewis.gauge.system.weights), np.sort(expected),
                           atol=1e-10)
        assert np.allclose(np.abs(lewis.gauge.system.vectors), 1.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_random_subspaces_converge(self, p):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(5):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(n, 9))
            spec = SubspaceSpec(rng.standard_normal((m, n)), p)
            lewis = lewis_position(spec)
            assert lewis.residual <= 1e-8

    def test_represented_norm_matches_subspace_norm(self):
        rng = np.random.default_rng(2)
        spec = SubspaceSpec(rng.standard_normal((7, 3)), 1.5)
        lewis = lewis_position(spec)
        x = rng.standard_normal((100, 3))
        subspace_norm = spec.norm(x @ lewis.change_of_basis.T)
        represented = lewis.gauge(x)
        assert np.max(np.abs(subspace_norm - represented)) <= 1e-8

    def test_divergence_is_a_solver_error(self):
        # at p = 10 the damped step diverges on most subspaces: the weights
        # overflow, which once surfaced as numpy warnings and a raw
        # LinAlgError from eigh; now it is a SolverError, and nothing warns
        rng = np.random.default_rng(10)
        diverged = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(30):
                n = int(rng.integers(2, 7))
                m = int(rng.integers(n, 4 * n + 1))
                spec = SubspaceSpec(rng.standard_normal((m, n)), 10.0)
                try:
                    lewis = lewis_position(spec)
                except SolverError as exc:
                    diverged += "diverged at p = 10" in str(exc)
                    continue
                assert lewis.residual <= 1e-10
        assert diverged >= 20

    def test_divergence_at_large_p_names_itself(self):
        # at p = 50 most runs end when T loses positive definiteness, not
        # when it overflows; the error still says that the iteration
        # diverged, at which p and after how many sweeps
        rng = np.random.default_rng(10)
        diverged = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n, 4 * n + 1))
            spec = SubspaceSpec(rng.standard_normal((m, n)), 50.0)
            try:
                lewis = lewis_position(spec)
            except SolverError as exc:
                assert re.match(r"Lewis iteration diverged at p = 50: .* "
                                r"after \d+ sweeps$", str(exc))
                diverged += 1
                continue
            assert lewis.residual <= 1e-10
        assert diverged >= 20


class TestInscribedRadius:
    def test_p2_radius_one(self):
        assert inscribed_radius_check(lp_gauge(np.eye(3), np.ones(3), 2.0)) == 1.0

    def test_p1_n4(self):
        radius = inscribed_radius_check(lp_gauge(np.eye(4), np.ones(4), 1.0))
        assert radius == pytest.approx(0.5)

    def test_p3_radius_one(self):
        assert inscribed_radius_check(lp_gauge(np.eye(3), np.ones(3), 3.0)) == 1.0

    def test_violation_detected(self):
        # doubled weights break sum c = n, gauge exceeds the certified slope
        with pytest.raises(ValueError):
            inscribed_radius_check(lp_gauge(np.eye(2), [4.0, 4.0], 1.0))


class TestSubspaceVolumeRatio:
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_canonical_space_attains_reference(self, p):
        spec = SubspaceSpec(np.eye(2), p)
        est = subspace_volume_ratio(spec, MC)
        assert est.agrees_with(lp_ball_volume_ratio(2, p))

    def test_random_subspace_of_l1(self):
        rng = np.random.default_rng(9)
        spec = SubspaceSpec(rng.standard_normal((4, 2)), 1.0)
        est = subspace_volume_ratio(spec, MC)
        assert est.value <= lp_ball_volume_ratio(2, 1.0) + 3 * est.std_error
        assert est.value <= L1_VR_LIMIT

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_reference_validated_by_john_solver(self, p):
        # the vr(l_p^n) reference assumes the maximal ellipse of the planar
        # l_p ball is the centered disc of radius min(1, n^{1/2-1/p}); verify
        # on a fine polygonal approximation before trusting it
        polygon = hrep_from_vrep(lp_ball_polygon(p, k=400))
        ellipse = max_inscribed_ellipsoid(polygon)
        rho = min(1.0, 2.0 ** (0.5 - 1.0 / p))
        assert np.max(np.abs(ellipse.shape - rho * np.eye(2))) < 2e-3
        assert np.max(np.abs(ellipse.center)) < 1e-6

    def test_cross_polytope_vr_matches_reference(self):
        vr = volume_ratio(hrep_from_vrep(cross_polytope(2)))
        assert vr == pytest.approx(lp_ball_volume_ratio(2, 1.0), abs=1e-6)


class TestL1Bound:
    def test_dimension_one_is_unity(self):
        assert l1_vr_bound(1).exact == pytest.approx(1.0, rel=1e-14)

    def test_dimension_two_matches_geometry(self):
        bound = l1_vr_bound(2)
        assert bound.exact == pytest.approx(math.sqrt(4 / math.pi), rel=1e-13)
        geometric = volume_ratio(hrep_from_vrep(cross_polytope(2)))
        assert bound.exact == pytest.approx(geometric, abs=1e-6)

    def test_monotone_below_limit(self):
        values = [l1_vr_bound(n).exact for n in range(1, 201)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= L1_VR_LIMIT + 1e-12 for v in values)

    def test_stirling_limit(self):
        assert l1_vr_bound(50).exact == pytest.approx(L1_VR_LIMIT, rel=0.02)
        assert L1_VR_LIMIT == pytest.approx(1.31549, abs=1e-5)

    def test_is_lp_ball_volume_ratio_at_p1_bit_for_bit(self):
        for n in range(1, 301):
            # (2^n n^{n/2} Gamma(1+n/2) / (Gamma(1+n) pi^{n/2}))^{1/n} in logs
            log_closed = (n * math.log(2.0) - math.lgamma(n + 1.0)
                          - (0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n))
                          + 0.5 * n * math.log(n))
            assert l1_vr_bound(n).exact == math.exp(log_closed / n)
            assert lp_ball_volume_ratio(n, 1.0) == l1_vr_bound(n).exact

    @pytest.mark.parametrize("n, p", [(200, 1.0), (400, 1.5)])
    def test_ratio_finite_below_limit_in_high_dimension(self, n, p):
        # vr(l_p^n) increases to 2 Gamma(1+1/p) (p e)^{1/p} / sqrt(2 pi e)
        # for 1 <= p <= 2, which is sqrt(2e/pi) at p = 1
        limit = (2.0 * math.gamma(1.0 + 1.0 / p) * (p * math.e) ** (1.0 / p)
                 / math.sqrt(2.0 * math.pi * math.e))
        vr = lp_ball_volume_ratio(n, p)
        assert math.isfinite(vr)
        assert lp_ball_volume_ratio(n // 2, p) < vr < limit


class TestSubspaceSpecIO:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        spec = SubspaceSpec(rng.standard_normal((5, 2)), 1.5)
        clone = SubspaceSpec.from_dict(spec.to_dict())
        assert np.array_equal(clone.basis, spec.basis)
        assert clone.p == spec.p

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubspaceSpec.from_dict({"m": 3, "n": 2, "p": 1.0,
                                    "basis": [[1.0, 0.0], [0.0, 1.0]]})

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError):
            SubspaceSpec(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 2.0)
