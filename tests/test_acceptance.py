"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Tolerances are fixed here; nothing is calibrated at runtime.
"""
import math
import time

import numpy as np
import pytest

from voliso import (BLSystem, Density1D, McParams, WeightedLpGauge,
                    SubspaceSpec, apply_affine, bl_ratio, cauchy_surface_area,
                    contact_points, cube_volume_bound, gauge_integral_volume,
                    hrep_from_vrep, isoperimetric_quotient, john_decomposition,
                    john_position, l1_vr_bound, lewis_position, lift_to_cone,
                    lp_ball_volume, lp_ball_volume_ratio, max_inscribed_ellipsoid,
                    petty_functional, polytope_volume, product_volume_bound,
                    reverse_isoperimetric_constant, simplex_volume_bound,
                    subspace_volume_ratio, surface_area, unit_ball_volume,
                    verify_product_volume_bound, vrep_from_hrep)
from voliso.brascamp_lieb import random_system
from voliso.shapes import (cube, cube_vertices, random_affine_map,
                           random_polytope, regular_polygon, regular_simplex,
                           simplex_contact_directions)

REL_TOL = 1e-6
BODIES_PER_DIM = 200
SYSTEM_COUNT = 50
SUBSPACE_COUNT = 50


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _john_sweep(n: int, symmetric: bool, seed: int):
    """John-position (volume, quotient) pairs for seeded random bodies."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(BODIES_PER_DIM):
        body = random_polytope(n, rng, symmetric=symmetric)
        image, _ = john_position(body)
        vertices = vrep_from_hrep(image)
        rows.append((polytope_volume(vertices), isoperimetric_quotient(vertices)))
    return rows


@pytest.fixture(scope="module")
def general_sweeps():
    return {n: _john_sweep(n, symmetric=False, seed=20_260_000 + n) for n in (2, 3)}


@pytest.fixture(scope="module")
def symmetric_sweeps():
    return {n: _john_sweep(n, symmetric=True, seed=20_261_000 + n) for n in (2, 3)}


def test_criterion_01_john_solver_exactness():
    start = time.perf_counter()
    ellipsoid = max_inscribed_ellipsoid(cube(3))
    cube_runtime = time.perf_counter() - start
    det_gap = abs(np.linalg.det(ellipsoid.shape) - 1.0)
    worst = 0.0
    for seed, base in [(11, cube(2)), (12, cube(3)),
                       (13, regular_simplex(2)), (14, regular_simplex(3))]:
        rng = np.random.default_rng(seed)
        body = apply_affine(base, random_affine_map(base.dim, rng, max_shift=0.3))
        image, _ = john_position(body)
        resolved = max_inscribed_ellipsoid(image)
        worst = max(worst,
                    float(np.max(np.abs(resolved.shape - np.eye(base.dim)))),
                    float(np.max(np.abs(resolved.center))))
    ok = det_gap <= 1e-6 and worst <= 1e-7 and cube_runtime < 1.0
    _report("criterion 1 (John solver exactness)",
            ok, f"|det B - 1| = {det_gap:.2e}, worst re-solve deviation = "
                f"{worst:.2e}, cube solve {cube_runtime * 1e3:.0f} ms")


def test_criterion_02_decomposition_identities():
    worst_frob = worst_trace = worst_bary = 0.0
    for n in (2, 3):
        sym = john_decomposition(contact_points(cube(n)), symmetric=True)
        worst_frob = max(worst_frob, sym.frobenius_residual())
        worst_trace = max(worst_trace, sym.trace_gap())
        gen = john_decomposition(contact_points(regular_simplex(n)), symmetric=False)
        worst_frob = max(worst_frob, gen.frobenius_residual())
        worst_trace = max(worst_trace, gen.trace_gap())
        worst_bary = max(worst_bary, gen.barycenter_norm())
    ok = worst_frob <= 1e-8 and worst_trace <= 1e-8 and worst_bary <= 1e-8
    _report("criterion 2 (decomposition identities)",
            ok, f"residual {worst_frob:.2e}, trace gap {worst_trace:.2e}, "
                f"barycenter {worst_bary:.2e} over cube/simplex n=2,3")


def test_criterion_03_general_reverse_isoperimetric(general_sweeps):
    start = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3):
        constant = reverse_isoperimetric_constant(n, symmetric=False)
        worst = max(q for _, q in general_sweeps[n])
        simplex_quotient = isoperimetric_quotient(
            vrep_from_hrep(regular_simplex(n)))
        attained = abs(simplex_quotient - constant) <= REL_TOL * constant
        ok = ok and worst <= constant * (1 + REL_TOL) and attained
        details.append(f"n={n}: max quotient {worst:.6f} <= {constant:.6f}, "
                       f"simplex attains ({simplex_quotient:.6f})")
    runtime = time.perf_counter() - start
    ok = ok and runtime < 120.0
    _report("criterion 3 (general bodies, simplex bound)",
            ok, "; ".join(details) + f"; {BODIES_PER_DIM}/dim")


def test_criterion_04_symmetric_reverse_isoperimetric(symmetric_sweeps):
    ok = True
    details = []
    for n in (2, 3):
        constant = 2.0 * n
        worst = max(q for _, q in symmetric_sweeps[n])
        cube_quotient = isoperimetric_quotient(cube_vertices(n))
        ok = ok and worst <= constant * (1 + REL_TOL)
        ok = ok and abs(cube_quotient - constant) <= 1e-12
        details.append(f"n={n}: max quotient {worst:.6f} <= {constant}, "
                       f"cube = {cube_quotient:.12f}")
    _report("criterion 4 (symmetric bodies, cube bound)", ok, "; ".join(details))


def test_criterion_05_volume_extremality(general_sweeps, symmetric_sweeps):
    ok = True
    details = []
    for n in (2, 3):
        sym_worst = max(v for v, _ in symmetric_sweeps[n])
        gen_worst = max(v for v, _ in general_sweeps[n])
        sym_bound = cube_volume_bound(n)
        gen_bound = simplex_volume_bound(n)
        ok = ok and sym_worst <= sym_bound * (1 + REL_TOL)
        ok = ok and gen_worst <= gen_bound * (1 + REL_TOL)
        details.append(f"n={n}: symmetric {sym_worst:.4f} <= {sym_bound}, "
                       f"general {gen_worst:.4f} <= {gen_bound:.4f}")
    _report("criterion 5 (volume extremality in John position)",
            ok, "; ".join(details))


def _random_density(rng) -> Density1D:
    kind = rng.integers(3)
    if kind == 0:
        return Density1D.exponential()
    if kind == 1:
        return Density1D.gaussian(float(rng.uniform(0.5, 2.0)))
    left = float(rng.uniform(-2.0, 0.0))
    return Density1D.indicator(left, left + float(rng.uniform(0.5, 3.0)))


def test_criterion_06_brascamp_lieb_property_suite():
    start = time.perf_counter()
    mc_samples = 1_000_000
    violations = 0
    worst_margin = -math.inf
    for index in range(SYSTEM_COUNT):
        rng = np.random.default_rng(30_000 + index)
        d = 2 + index % 2
        system = random_system(d, int(rng.integers(d, 2 * d + 3)), rng)
        densities = [_random_density(rng) for _ in range(system.size)]
        est = bl_ratio(system, densities, McParams(mc_samples, seed=31_000 + index))
        margin = est.value - (1.0 + 3.0 * est.std_error)
        worst_margin = max(worst_margin, margin)
        violations += margin > 0
    ortho = bl_ratio(BLSystem(np.eye(3), np.ones(3)),
                     [Density1D.exponential(), Density1D.gaussian(0.8),
                      Density1D.indicator(-1.0, 1.5)],
                     McParams(mc_samples, seed=32_001))
    gauss = bl_ratio(random_system(3, 7, 32_002),
                     [Density1D.gaussian(1.0)] * 7,
                     McParams(mc_samples, seed=32_003))
    runtime = time.perf_counter() - start
    equality_ok = ortho.agrees_with(1.0) and gauss.agrees_with(1.0)
    ok = violations == 0 and equality_ok and runtime < 120.0
    _report("criterion 6 (Brascamp-Lieb property suite)",
            ok, f"{SYSTEM_COUNT} systems, 0 expected violations, got "
                f"{violations} (worst margin {worst_margin:.2e}); orthonormal "
                f"{ortho.value:.4f}+-{ortho.std_error:.4f}, gaussian "
                f"{gauss.value:.4f}+-{gauss.std_error:.4f}; {runtime:.0f} s")


def test_criterion_07_cone_lifting_identity():
    worst_resid = 0.0
    for n in range(2, 6):
        system = BLSystem(simplex_contact_directions(n),
                          np.full(n + 1, n / (n + 1)))
        lifted = lift_to_cone(system)
        M = (lifted.vectors * lifted.weights[:, None]).T @ lifted.vectors
        worst_resid = max(worst_resid,
                          float(np.linalg.norm(M - np.eye(n + 1))))
    # pairing +-u centers any system, so lifting applies to random data too
    rng = np.random.default_rng(7)
    base = random_system(3, 5, rng)
    paired = BLSystem(np.vstack([base.vectors, -base.vectors]),
                      np.concatenate([base.weights, base.weights]) / 2.0)
    lifted = lift_to_cone(paired)
    M = (lifted.vectors * lifted.weights[:, None]).T @ lifted.vectors
    worst_resid = max(worst_resid, float(np.linalg.norm(M - np.eye(4))))

    from scipy.integrate import quad

    worst_quad = 0.0
    for n in range(1, 7):
        value, _ = quad(lambda r, n=n: math.exp(-math.sqrt(n + 1) * r)
                        * (r / math.sqrt(n)) ** n, 0.0, np.inf)
        expected = math.factorial(n) / (n ** (n / 2) * (n + 1) ** ((n + 1) / 2))
        worst_quad = max(worst_quad, abs(value - expected) / expected)
    ok = worst_resid <= 1e-10 and worst_quad <= 1e-10
    _report("criterion 7 (cone lifting and its integral)",
            ok, f"lift residual {worst_resid:.2e}, quadrature gap {worst_quad:.2e}")


def test_criterion_08_gauge_integral_volumes():
    mc = 1_000_000
    checks = []
    for n in (2, 3):
        l1 = gauge_integral_volume(
            WeightedLpGauge(BLSystem(np.eye(n), np.ones(n)), 1.0),
            McParams(mc, seed=40_000 + n))
        checks.append((l1, lp_ball_volume(n, 1.0), f"l1 n={n}"))
        l2 = gauge_integral_volume(
            WeightedLpGauge(BLSystem(np.eye(n), np.ones(n)), 2.0),
            McParams(mc, seed=40_100 + n))
        checks.append((l2, unit_ball_volume(n), f"l2 n={n}"))
    mc_ok = all(est.agrees_with(exact) for est, exact, _ in checks)
    gamma_gap = max(abs(math.pi ** (n / 2)
                        - math.gamma(1 + n / 2) * unit_ball_volume(n))
                    for n in range(1, 11))
    ok = mc_ok and gamma_gap <= 1e-12
    detail = ", ".join(f"{label} {est.value:.4f}~{exact:.4f}"
                       for est, exact, label in checks)
    _report("criterion 8 (gauge-integral volume identity)",
            ok, detail + f"; Gamma identity gap {gamma_gap:.1e}")


def test_criterion_09_product_volume_bound():
    equal_ok = True
    details = []
    for index, p in enumerate((1.0, 1.5, 2.0, 3.0)):
        gauge = WeightedLpGauge(BLSystem(np.eye(2), np.ones(2)), p)
        report = verify_product_volume_bound(gauge, np.ones(2),
                              McParams(1_000_000, seed=41_000 + index))
        gap = abs(report.volume.value - report.bound)
        equal_ok = equal_ok and gap <= 3.0 * report.volume.std_error
        details.append(f"p={p}: |vol-bound| = {gap:.4f} "
                       f"(3se = {3 * report.volume.std_error:.4f})")
    violations = 0
    for index in range(SYSTEM_COUNT):
        rng = np.random.default_rng(42_000 + index)
        p = (1.0, 1.5, 2.0, 3.0)[index % 4]
        d = 2 + index % 2
        system = random_system(d, int(rng.integers(d, 7)), rng)
        alphas = rng.uniform(0.3, 3.0, size=system.size)
        gauge = WeightedLpGauge(BLSystem(system.vectors, alphas), p)
        report = verify_product_volume_bound(gauge, system.weights,
                              McParams(150_000, seed=43_000 + index))
        violations += not report.satisfied
    ok = equal_ok and violations == 0
    _report("criterion 9 (product volume bound)",
            ok, "; ".join(details) + f"; {SYSTEM_COUNT} random systems, "
                f"{violations} violations")


def test_criterion_10_lp_subspace_extremality():
    worst_resid = 0.0
    violations = l1_violations = 0
    for index in range(SUBSPACE_COUNT):
        rng = np.random.default_rng(50_000 + index)
        p = (1.0, 1.5, 3.0)[index % 3]
        n = 2 + index % 2
        m = int(rng.integers(n, 9))
        spec = SubspaceSpec(rng.standard_normal((m, n)), p)
        lewis = lewis_position(spec)
        worst_resid = max(worst_resid, lewis.residual)
        est = subspace_volume_ratio(spec, McParams(200_000, seed=51_000 + index))
        reference = lp_ball_volume_ratio(n, p)
        violations += est.value > reference + 3.0 * est.std_error
        if p == 1.0:
            bound = l1_vr_bound(n)
            l1_violations += est.value > bound.exact + 3.0 * est.std_error
            l1_violations += est.value > bound.limit + 1e-9
    ok = worst_resid <= 1e-8 and violations == 0 and l1_violations == 0
    _report("criterion 10 (l_p subspace extremality)",
            ok, f"{SUBSPACE_COUNT} subspaces: worst Lewis residual "
                f"{worst_resid:.2e}, {violations} vr violations, "
                f"{l1_violations} L1-bound violations "
                f"(limit {l1_vr_bound(2).limit:.5f})")


def test_criterion_11_shadow_functionals():
    cauchy = cauchy_surface_area(cube_vertices(3), McParams(400_000, seed=60_001))
    cauchy_ok = abs(cauchy.value - 24.0) <= 3.0 * cauchy.std_error

    square = cube_vertices(2)
    base = petty_functional(square, McParams(400_000, seed=60_002))
    invariance_ok = True
    worst_sigma = 0.0
    for index in range(10):
        rng = np.random.default_rng(61_000 + index)
        image = apply_affine(square, random_affine_map(2, rng, max_shift=0.3))
        other = petty_functional(image, McParams(400_000, seed=62_000 + index))
        combined = math.hypot(base.std_error, other.std_error)
        sigma = abs(other.value - base.value) / combined
        worst_sigma = max(worst_sigma, sigma)
        invariance_ok = invariance_ok and sigma <= 3.0

    disc = petty_functional(regular_polygon(720), McParams(400_000, seed=60_003))
    order_ok = disc.value < base.value
    ok = cauchy_ok and invariance_ok and order_ok
    _report("criterion 11 (Cauchy formula and shadow functional)",
            ok, f"cauchy {cauchy.value:.4f}+-{cauchy.std_error:.4f} vs 24; "
                f"affine invariance worst {worst_sigma:.2f} sigma over 10 maps; "
                f"disc {disc.value:.5f} < square {base.value:.5f}")
