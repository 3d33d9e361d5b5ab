import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from voliso import (BLSystem, Density1D, McParams, bl_ratio, cube_volume_bound,
                    lift_to_cone, polytope_volume, reverse_isoperimetric_constant,
                    simplex_volume_bound, vrep_from_hrep)
from voliso.brascamp_lieb import random_system
from voliso import sampling
from voliso.sampling import RunningMean, StudentTProposal, row_blocks
from voliso.shapes import regular_simplex, simplex_contact_directions

from test_batched_estimates import FAMILIES

MC = McParams(sample_count=400_000, seed=2)


def triangle_system():
    ang = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    return BLSystem(np.stack([np.cos(ang), np.sin(ang)], axis=1), [2 / 3] * 3)


def square_system():
    return BLSystem([[1, 0], [-1, 0], [0, 1], [0, -1]], [0.5] * 4)


def grid_quadrature_ratio(system, densities, extent=6.0, points=2001):
    """Independent tensor-grid oracle for the d = 2 product integral."""
    grid = np.linspace(-extent, extent, points)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    log_f = np.zeros(pts.shape[0])
    for u, c, f in zip(system.vectors, system.weights, densities):
        log_f = log_f + c * f.log_density(pts @ u)
    values = np.exp(log_f).reshape(points, points)
    lhs = np.trapezoid(np.trapezoid(values, grid, axis=1), grid, axis=0)
    rhs = math.exp(sum(c * math.log(f.integral)
                       for c, f in zip(system.weights, densities)))
    return lhs / rhs


class TestVerifyDecomposition:
    def test_orthonormal_all_zero(self):
        system = BLSystem(np.eye(3), np.ones(3))
        assert system.frobenius_residual() == 0.0
        assert system.trace_gap() == 0.0
        # the basis itself is not centered; the method just states the fact
        assert system.barycenter_norm() == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_square_system_zero(self):
        system = square_system()
        assert system.frobenius_residual() < 1e-15
        assert system.trace_gap() < 1e-15
        assert system.barycenter_norm() < 1e-15

    def test_perturbed_weights_report_trace_gap(self):
        system = BLSystem([[1, 0], [-1, 0], [0, 1], [0, -1]], [0.51] * 4)
        assert system.trace_gap() == pytest.approx(0.04, abs=1e-12)
        assert system.frobenius_residual() == pytest.approx(
            math.sqrt(2) * 0.02, abs=1e-12)

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            BLSystem([[1, 1]], [1.0])           # not unit length
        with pytest.raises(ValueError):
            BLSystem([[1, 0]], [-1.0])          # negative weight

    def test_random_system_is_exact(self):
        for seed in range(5):
            system = random_system(3, 7, seed)
            assert system.frobenius_residual() < 1e-12
            assert system.trace_gap() < 1e-12


class TestBlRatio:
    def test_orthonormal_factorizes(self):
        system = BLSystem(np.eye(2), [1.0, 1.0])
        densities = [Density1D.exponential(), Density1D.indicator(-1.0, 2.0)]
        est = bl_ratio(system, densities, MC)
        assert est.agrees_with(1.0)

    def test_identical_gaussians_attain_equality(self):
        system = random_system(3, 6, 11)
        est = bl_ratio(system, [Density1D.gaussian(1.0)] * 6, MC)
        assert est.agrees_with(1.0)

    def test_identical_wide_gaussians(self):
        est = bl_ratio(triangle_system(), [Density1D.gaussian(1.7)] * 3, MC)
        assert est.agrees_with(1.0)

    def test_square_indicators_vs_quadrature(self):
        # +- pairs with even densities reduce to the orthonormal case, so
        # the ratio is exactly 1 here (the grid oracle confirms)
        system = square_system()
        densities = [Density1D.indicator(-1.0, 1.0)] * 4
        # trapezoid across the indicator jump is O(h) accurate
        oracle = grid_quadrature_ratio(system, densities, extent=1.5)
        assert oracle == pytest.approx(1.0, abs=2e-3)
        est = bl_ratio(system, densities, MC)
        assert est.agrees_with(1.0)

    def test_triangle_indicators_strictly_below_one(self):
        # hexagonal support: LHS is the hexagon area 2 sqrt(3), RHS is 4
        system = triangle_system()
        densities = [Density1D.indicator(-1.0, 1.0)] * 3
        oracle = grid_quadrature_ratio(system, densities, extent=1.5)
        exact = 2 * math.sqrt(3) / 4
        assert oracle == pytest.approx(exact, abs=2e-3)
        est = bl_ratio(system, densities, MC)
        assert est.agrees_with(exact)
        assert est.value + 3 * est.std_error < 1.0

    def test_table_density_matches_indicator(self):
        grid = np.linspace(-1.0, 1.0, 2001)
        table = Density1D.table(grid, np.ones_like(grid))
        est_tab = bl_ratio(square_system(), [table] * 4, MC)
        assert est_tab.agrees_with(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        system = random_system(d, int(rng.integers(d, 8)), rng)
        densities = []
        for _ in range(system.size):
            kind = rng.integers(3)
            if kind == 0:
                densities.append(Density1D.exponential())
            elif kind == 1:
                densities.append(Density1D.gaussian(float(rng.uniform(0.5, 2.0))))
            else:
                a = float(rng.uniform(-2.0, 0.0))
                densities.append(Density1D.indicator(a, a + float(rng.uniform(0.5, 3.0))))
        est = bl_ratio(system, densities, McParams(200_000, seed=seed))
        assert est.value <= 1.0 + 3.0 * est.std_error

    def test_density_count_mismatch(self):
        with pytest.raises(ValueError):
            bl_ratio(square_system(), [Density1D.exponential()], MC)

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            Density1D.table([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            Density1D.indicator(1.0, 1.0)
        with pytest.raises(ValueError):
            Density1D.gaussian(0.0)


def _reference_log_density(f, t):
    """log f(t) of each tag written out on its own, as the per-density path
    evaluated it before the fused integrand."""
    with np.errstate(divide="ignore"):
        if f.tag == "gaussian":
            return -0.5 * (t / f.params[0]) ** 2
        if f.tag == "exponential":
            return np.where(t >= 0.0, -t, -np.inf)
        if f.tag == "indicator":
            return np.where((t >= f.params[0]) & (t <= f.params[1]), 0.0, -np.inf)
        return np.log(np.interp(t, *f.params, left=0.0, right=0.0))


TABLE = Density1D.table([-2.0, -1.0, 0.0, 0.5, 2.0], [0.0, 0.5, 1.0, 0.75, 0.0])
FUSED_CASES = {
    "all-four-tags": (random_system(3, 7, 5),
                      [Density1D.gaussian(0.8), Density1D.exponential(),
                       Density1D.indicator(-1.0, 1.5), TABLE,
                       Density1D.gaussian(1.3), Density1D.indicator(-0.5, 3.0),
                       Density1D.exponential()]),
    "gaussians": (random_system(2, 4, 6),
                  [Density1D.gaussian(0.6 + 0.2 * i) for i in range(4)]),
    "tables": (random_system(2, 3, 7), [TABLE] * 3),
    "mixed-supports": (random_system(2, 5, 8),
                       [Density1D.indicator(-0.3, 0.4), Density1D.exponential(),
                        Density1D.indicator(0.0, 2.0), TABLE,
                        Density1D.gaussian(2.0)]),
    # <u, x> >= 0 and <-u, x> >= 0 leave a line: no sample has support
    "empty-support": (square_system(), [Density1D.exponential()] * 4),
    # the Gaussians' triangular factor R short of d rows, and empty
    "fewer-gaussians-than-d": (random_system(3, 5, 11),
                               [Density1D.gaussian(0.9), Density1D.exponential(),
                                Density1D.indicator(-1.0, 1.5), TABLE,
                                Density1D.gaussian(1.4)]),
    "no-gaussian": (random_system(3, 6, 12),
                    [Density1D.exponential(), Density1D.indicator(-1.0, 1.5), TABLE,
                     Density1D.indicator(-0.5, 2.0), TABLE,
                     Density1D.indicator(-1.5, 1.0)]),
}
# the systems and densities of the bl-* lines of batched_estimates.expected
FUSED_CASES.update({
    f"d{d}-{family}": (random_system(d, 2 * d, np.random.default_rng(10 + d)),
                       [FAMILIES[family](i) for i in range(2 * d)])
    for d in (2, 3) for family in FAMILIES})


def _one_batch(system, densities, mc, monkeypatch):
    """bl_ratio's estimate, the weights of its one batch, and the rows it
    drew, rebuilt one row block at a time from default_rng(mc.seed) as
    sample_mean draws them."""
    added = []

    class Recorded(RunningMean):
        def add(self, values):
            added.append(np.array(values))
            super().add(values)

    monkeypatch.setattr(sampling, "RunningMean", Recorded)
    est = bl_ratio(system, densities, mc)
    got, = added
    proposal = StudentTProposal(dim=system.dim)
    rng = np.random.default_rng(mc.seed)
    X = np.concatenate([proposal.sample(rng, hi - lo)[0]
                        for lo, hi in row_blocks(mc.sample_count)])
    return est, got, X


class TestFusedIntegrand:
    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_matches_the_per_density_path(self, name, monkeypatch):
        # the weights from one triangular factor and the draw's own log
        # density, against sum c_i log f_i(<u_i, x>) - logpdf(x) - log RHS
        # taken one density at a time
        system, densities = FUSED_CASES[name]
        est, got, X = _one_batch(system, densities, McParams(20_000, seed=9),
                                 monkeypatch)
        # the projections are the one product both paths share; a table is
        # steep against its value near its zeros, so its rows amplify any
        # rounding of <u, x>
        dots = system.vectors @ X.T
        log_num = sum(c * _reference_log_density(f, t) for t, c, f
                      in zip(dots, system.weights, densities))
        log_rhs = sum(c * math.log(f.integral)
                      for c, f in zip(system.weights, densities))
        log_q = StudentTProposal(dim=system.dim).logpdf(X)
        expected = np.exp(log_num - log_rhs - log_q)
        assert np.array_equal(got == 0.0, expected == 0.0)
        # a weight of 1e-270 carries the rounding of its log, about 600 ulps;
        # weights that small next to the largest count as absolute
        np.testing.assert_allclose(got, expected, rtol=1e-13,
                                   atol=1e-13 * expected.max())
        assert est.value == pytest.approx(expected.mean(), rel=1e-13, abs=0.0)
        if name == "empty-support":
            assert est.value == 0.0 and not got.any()
        else:
            assert 0 < np.count_nonzero(got) and est.value > 0

    def test_overflow_outside_the_support_warns_nothing(self, monkeypatch):
        # with weights of 400, exponentials give log weights past the
        # largest double's log on rows well outside their support
        system = BLSystem(np.eye(2), [400.0, 400.0])
        densities = [Density1D.exponential()] * 2
        mc = McParams(20_000, seed=5)
        est, _, X = _one_batch(system, densities, mc, monkeypatch)
        log_q = StudentTProposal(dim=2).logpdf(X)
        log_h = -(X @ system.vectors.T) @ system.weights - log_q
        assert np.any(log_h > math.log(np.finfo(float).max))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict = bl_ratio(system, densities, mc)
        assert strict == est and est.value > 0


def gaussian_bl_ratio(system, sigmas):
    """Exact ratio for f_i(t) = exp(-t^2 / (2 sigma_i^2)) on an identity
    decomposition: det(sum c_i sigma_i^-2 u_i u_i^T)^(-1/2) / prod sigma_i^c_i,
    which is at most 1 by Ball's determinant inequality."""
    U, c = system.vectors, system.weights
    A = (U * (c / sigmas ** 2)[:, None]).T @ U
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    return math.exp(-0.5 * logdet - float(c @ np.log(sigmas)))


# 24 systems, 8 per d = 2, 3, 4, with m = d+1..d+4 vectors and scales drawn
# from [0.5, 2]; each estimate takes 2^15 samples.  The bounds were fixed
# before the first run: every |z| <= 4, and the mean z^2 within the 0.05%
# and 99.95% quantiles of chi^2_24 / 24, [0.31, 2.23].
GAUSSIAN_SYSTEMS = [(d, k) for d in (2, 3, 4) for k in range(8)]


def _gaussian_case(d, k):
    rng = np.random.default_rng([6, d, k])
    system = random_system(d, d + 1 + k % 4, rng)
    return system, rng.uniform(0.5, 2.0, system.size)


class TestGaussianClosedForm:
    def test_equal_scales_give_equality(self):
        for d, k in GAUSSIAN_SYSTEMS:
            system, _ = _gaussian_case(d, k)
            for sigma in (0.5, 1.0, 1.7):
                ratio = gaussian_bl_ratio(system, np.full(system.size, sigma))
                assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_and_estimates(self):
        zs = []
        for d, k in GAUSSIAN_SYSTEMS:
            system, sigmas = _gaussian_case(d, k)
            assert len(set(sigmas)) == system.size
            exact = gaussian_bl_ratio(system, sigmas)
            assert exact <= 1.0 + 1e-12
            est = bl_ratio(system, [Density1D.gaussian(s) for s in sigmas],
                           McParams(1 << 15, seed=100 * d + k))
            zs.append((est.value - exact) / est.std_error)
        zs = np.array(zs)
        assert np.abs(zs).max() <= 4.0, zs
        assert 0.31 <= np.mean(zs ** 2) <= 2.23, zs


class TestLiftToCone:
    def test_dimension_one_hand_case(self):
        system = BLSystem([[1.0], [-1.0]], [0.5, 0.5])
        lifted = lift_to_cone(system)
        s = 1 / math.sqrt(2)
        expected = np.array([[-s, s], [s, s]])
        assert np.allclose(lifted.vectors, expected, atol=1e-15)
        assert np.allclose(lifted.weights, 1.0, atol=1e-15)
        M = (lifted.vectors * lifted.weights[:, None]).T @ lifted.vectors
        assert np.allclose(M, np.eye(2), atol=1e-15)

    def test_triangle_system(self):
        lifted = lift_to_cone(triangle_system())
        assert np.allclose(lifted.weights, 1.0, atol=1e-12)
        assert lifted.frobenius_residual() <= 1e-12
        assert lifted.trace_gap() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_simplex_directions_lift_exactly(self, n):
        system = BLSystem(simplex_contact_directions(n),
                          np.full(n + 1, n / (n + 1)))
        lifted = lift_to_cone(system)
        assert lifted.frobenius_residual() <= 1e-10
        assert abs(lifted.weights.sum() - (n + 1)) <= 1e-10
        assert np.allclose(np.linalg.norm(lifted.vectors, axis=1), 1.0, atol=1e-12)

    def test_nonzero_barycenter_rejected(self):
        system = BLSystem(np.eye(2), [1.0, 1.0])   # barycenter e1 + e2
        with pytest.raises(ValueError):
            lift_to_cone(system)

    def test_lifted_exponentials_attain_equality(self):
        # the cone construction makes the product integral exactly 1 for the
        # extremal simplex geometry
        lifted = lift_to_cone(triangle_system())
        est = bl_ratio(lifted, [Density1D.exponential()] * 3, MC)
        assert est.agrees_with(1.0)

    def test_cone_section_reconstruction(self):
        # the slice of the lifted exponential product at height r is
        # e^{-sqrt(3) r} (r/sqrt(2))^2 |K| with |K| = 3 sqrt(3)
        lifted = lift_to_cone(triangle_system())
        area = polytope_volume(vrep_from_hrep(regular_simplex(2)))
        assert area == pytest.approx(3 * math.sqrt(3), abs=1e-8)
        rng = np.random.default_rng(21)
        proposal = StudentTProposal(dim=2, scale=2.0)
        for r in (0.5, 1.5, 3.0):
            pts, _ = proposal.sample(rng, 400_000)
            x = np.hstack([pts, np.full((len(pts), 1), r)])
            dots = x @ lifted.vectors.T
            log_f = np.where(dots >= 0, -dots, -np.inf) @ lifted.weights
            h = np.exp(log_f - proposal.logpdf(pts))
            est = h.mean()
            se = h.std(ddof=1) / math.sqrt(len(h))
            expected = math.exp(-math.sqrt(3) * r) * (r / math.sqrt(2)) ** 2 * area
            assert abs(est - expected) <= 3 * se


class TestConstants:
    def test_simplex_bound_values(self):
        assert simplex_volume_bound(1) == pytest.approx(2.0, rel=1e-14)
        assert simplex_volume_bound(2) == pytest.approx(3 * math.sqrt(3), rel=1e-13)
        assert simplex_volume_bound(3) == pytest.approx(8 * math.sqrt(3), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simplex_bound_matches_exact_volume(self, n):
        volume = polytope_volume(vrep_from_hrep(regular_simplex(n)))
        assert volume == pytest.approx(simplex_volume_bound(n), rel=1e-7)

    def test_cube_bound(self):
        assert cube_volume_bound(3) == 8.0
        assert cube_volume_bound(6) == 64.0

    def test_reverse_isoperimetric_constants(self):
        assert reverse_isoperimetric_constant(2, True) == pytest.approx(4.0)
        assert reverse_isoperimetric_constant(3, True) == pytest.approx(6.0)
        assert reverse_isoperimetric_constant(2, False) == pytest.approx(
            2 * math.sqrt(3 * math.sqrt(3)), rel=1e-12)
        assert reverse_isoperimetric_constant(2, False) == pytest.approx(
            4.55901, abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cone_integral_closed_form(self, n):
        # integral_0^inf e^{-sqrt(n+1) r} (r/sqrt(n))^n dr
        #   = n! / (n^{n/2} (n+1)^{(n+1)/2})
        value, err = quad(
            lambda r: math.exp(-math.sqrt(n + 1) * r) * (r / math.sqrt(n)) ** n,
            0.0, np.inf)
        expected = math.factorial(n) / (n ** (n / 2) * (n + 1) ** ((n + 1) / 2))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_cone_integral_inverse_of_simplex_bound(self):
        for n in (1, 2, 3, 4, 5, 6):
            expected = math.factorial(n) / (n ** (n / 2) * (n + 1) ** ((n + 1) / 2))
            assert expected * simplex_volume_bound(n) == pytest.approx(1.0, rel=1e-12)


class TestSerialization:
    def test_system_round_trip(self):
        system = triangle_system()
        clone = BLSystem.from_dict(system.to_dict())
        assert np.array_equal(clone.vectors, system.vectors)
        assert np.array_equal(clone.weights, system.weights)

    def test_density_round_trip(self):
        for density in (Density1D.exponential(), Density1D.gaussian(1.5),
                        Density1D.indicator(-1.0, 2.0),
                        Density1D.table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])):
            clone = Density1D.from_dict(density.to_dict())
            assert clone.tag == density.tag
            assert clone.integral == pytest.approx(density.integral, rel=1e-15)
