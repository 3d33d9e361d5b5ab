"""Volumes and volume ratios of l_p balls and subspaces of l_p^m.

The unit-ball volume of (R^n, ||.||) obeys the gauge-integral identity

    |K| = Gamma(1 + n/p)^{-1} * integral of e^{-||x||^p} over R^n

for any Minkowski gauge and any finite p >= 1, which turns volume
estimation into importance sampling.  A weighted gauge is a BLSystem of
unit vectors and norm weights plus p.  When its vectors carry an identity
decomposition it obeys the product volume bound (Brascamp-Lieb applied to
the gauge integral), with equality exactly for the coordinate l_p^n ball.
A fixed-point Lewis-position solver represents any n-dimensional subspace
of l_p^m by a gauge whose norm weights resolve the identity themselves,
which makes l_p^n the maximal-volume-ratio subspace of L_p.  Its sweep
L <- L T^{-s/2} takes the step s = 4 / (p + 2), which contracts T - I by
|p - 2| / (p + 2) per sweep near the fixed point for every p >= 1; the
500-sweep cap is reached from about p = 80.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import (json_fields, json_number, json_numbers, require_finite_rows,
                     unit_ball_volume)
from .brascamp_lieb import BLSystem
from .errors import GaugeError, SolverError
from .sampling import (Estimate, McParams, StudentTProposal, sample_mean,
                       sphere_points)

L1_VR_LIMIT = math.sqrt(2.0 * math.e / math.pi)

# the Lewis fixed point (see lewis_position)
_LEWIS_TOL = 1e-10
_LEWIS_MAX_ITER = 500
# the seeded unit vectors inscribed_radius_check probes, and its slack
_RADIUS_PROBE_SEED = 0
_RADIUS_PROBE_COUNT = 1000
_RADIUS_PROBE_TOL = 1e-9


def _log_lp_ball_volume(n: int, p: float) -> float:
    """log of the l_p unit ball volume, n log 2 + n lgamma(1+1/p) -
    lgamma(1+n/p); p = inf gives the cube's n log 2."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    return (n * math.log(2.0) + n * math.lgamma(1.0 + 1.0 / p)
            - math.lgamma(1.0 + n / p))


def lp_ball_volume(n: int, p: float) -> float:
    """Volume of the l_p unit ball, 2^n Gamma(1+1/p)^n / Gamma(1+n/p).

    p = inf gives the cube volume 2^n.  Evaluated in log-Gamma space.
    """
    log_volume = _log_lp_ball_volume(n, p)
    return 2.0 ** n if p == math.inf else math.exp(log_volume)


def lp_ball_inscribed_radius(n: int, p: float) -> float:
    """Radius of the largest Euclidean ball inside the l_p^n unit ball:
    n^{1/2 - 1/p} for p <= 2 and 1 for p >= 2 (also the radius of its
    maximal inscribed ellipsoid, which is a centered ball by symmetry)."""
    if p == math.inf:
        return 1.0
    return min(1.0, float(n) ** (0.5 - 1.0 / p))


def lp_ball_volume_ratio(n: int, p: float) -> float:
    """vr of l_p^n: ball volume over the inscribed-ball volume, n-th root.

    Evaluated in log space, (log|B_p^n| - log v_n - n log rho) / n with
    log rho = min(0, 1/2 - 1/p) log n, so it stays finite for any n.
    """
    log_ball = _log_lp_ball_volume(n, p)      # raises on n < 1 or p < 1
    log_vn = 0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n)
    log_rho = min(0.0, 0.5 - 1.0 / p) * math.log(n)
    return math.exp((log_ball - log_vn - n * log_rho) / n)


@dataclass(frozen=True, eq=False)
class WeightedLpGauge:
    """Norm x -> (sum alpha_i |<u_i, x>|^p)^{1/p} of a system (u_i, alpha_i).

    The system's weights are the norm weights alpha_i.  They need not
    resolve the identity; those of a Lewis position do.
    """

    system: BLSystem
    p: float

    def __post_init__(self):
        if not (1.0 <= self.p < math.inf):
            raise ValueError("p must lie in [1, inf)")
        if np.linalg.matrix_rank(self.system.vectors, tol=1e-12) < self.dim:
            raise GaugeError("vectors do not span; gauge vanishes on a subspace")
        object.__setattr__(self, "p", float(self.p))

    @property
    def dim(self) -> int:
        return self.system.dim

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dots = np.abs(pts @ self.system.vectors.T)
        return (dots ** self.p @ self.system.weights) ** (1.0 / self.p)

    def bounding_radius(self) -> float:
        """Rigorous R with {gauge <= 1} contained in R * unit ball.

        From max_i <u_i, x>^2 >= lam_min(sum u u^T) |x|^2 / m it follows
        that gauge(x) >= alpha_min^{1/p} (lam_min/m)^{1/2} |x|.
        """
        U = self.system.vectors
        lam_min = float(np.linalg.eigvalsh(U.T @ U)[0])
        lower = (self.system.weights.min() ** (1.0 / self.p)
                 * math.sqrt(lam_min / self.system.size))
        return 1.0 / lower


def gauge_integral_volume(gauge: WeightedLpGauge, mc: McParams) -> Estimate:
    """Unit-ball volume of ``gauge`` from the gauge integral.

    Estimates Gamma(1+n/p)^{-1} * integral e^{-gauge(x)^p} dx with a product
    Student-t proposal scaled to the ball's radii.  The probe directions
    are drawn from ``np.random.default_rng(mc.seed)`` before batch 0 of
    ``sampling.sample_mean`` reads it.  Raises GaugeError when sampled
    gauge values put the ball beyond ``gauge.bounding_radius()``.
    """
    n, p, bound = gauge.dim, gauge.p, gauge.bounding_radius()
    rng = np.random.default_rng(mc.seed)
    # probe directions: sampled radii 1/gauge must stay within the claimed
    # bounding radius, otherwise the gauge is non-coercive (or the claimed
    # radius is wrong); the median radius sizes the proposal
    probe = sphere_points(rng, 256, n)
    radii = 1.0 / np.asarray(gauge(probe), dtype=float)
    if not np.all(np.isfinite(radii)) or radii.max() > bound * (1.0 + 1e-6):
        raise GaugeError(
            f"sampled direction radius {radii.max():.3g} exceeds the claimed "
            f"bounding radius {bound:.3g} (non-coercive gauge?)")
    scale = float(np.median(radii)) * max(1.0, (n / p) ** (1.0 / p)) * 1.3
    proposal = StudentTProposal(dim=n, scale=scale)

    def integrand(block):
        X, log_q = block
        return np.exp(-gauge(X) ** p - log_q)

    mean = sample_mean(mc, proposal.sample, integrand, rng)
    norm = math.exp(-math.lgamma(1.0 + n / p))
    return Estimate(norm * mean.value, norm * mean.std_error, mean.samples)


def product_volume_bound(weights, alphas, p: float, n: int | None = None) -> float:
    """Product bound for the weighted-gauge unit ball volume:

        |K| <= 2^n Gamma(1+1/p)^n / Gamma(1+n/p) * prod (c_i/alpha_i)^{c_i/p}

    requires sum c_i = n (trace of an identity decomposition).
    """
    c = np.asarray(weights, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if n is None:
        n = round(c.sum())
    if abs(c.sum() - n) > 1e-8:
        raise ValueError(f"weights sum to {c.sum():.12g}, expected {n}")
    if np.any(a <= 0) or np.any(c <= 0):
        raise ValueError("weights and alphas must be positive")
    return math.exp(_log_lp_ball_volume(n, p)
                    + float(np.dot(c / p, np.log(c) - np.log(a))))


@dataclass(frozen=True)
class ProductBoundReport:
    volume: Estimate
    bound: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {"volume": self.volume.to_dict(), "bound": self.bound,
                "satisfied": self.satisfied}


def verify_product_volume_bound(gauge: WeightedLpGauge, weights, mc: McParams) -> ProductBoundReport:
    """Estimate the gauge ball volume and compare with the product bound.

    ``weights`` are the decomposition weights c_i of the gauge's vectors;
    they must resolve the identity (checked to 1e-8).
    """
    decomposition = BLSystem(gauge.system.vectors, weights)
    residual = decomposition.frobenius_residual()
    if residual > 1e-8:
        raise ValueError(f"not an identity decomposition: residual "
                         f"{residual:.3e}")
    volume = gauge_integral_volume(gauge, mc)
    bound = product_volume_bound(decomposition.weights, gauge.system.weights,
                                 gauge.p, gauge.dim)
    return ProductBoundReport(volume=volume, bound=bound,
                              satisfied=volume.at_most(bound))


# ---------------------------------------------------------------------------
# subspaces of l_p^m
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubspaceSpec:
    """n-dimensional subspace of l_p^m spanned by the columns of ``basis``."""

    basis: np.ndarray
    p: float

    def __init__(self, basis, p):
        M = np.atleast_2d(np.asarray(basis, dtype=float))
        if M.shape[0] < M.shape[1]:
            raise ValueError("basis must be m x n with m >= n")
        require_finite_rows("basis", entries=M)
        if np.linalg.matrix_rank(M) < M.shape[1]:
            raise ValueError("basis must have full column rank")
        if not (1.0 <= p < math.inf):
            raise ValueError("p must lie in [1, inf)")
        object.__setattr__(self, "basis", M)
        object.__setattr__(self, "p", float(p))

    @property
    def m(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def norm(self, coeffs) -> np.ndarray:
        """l_p norm of basis @ z for rows z of ``coeffs``."""
        z = np.atleast_2d(np.asarray(coeffs, dtype=float))
        return (np.abs(z @ self.basis.T) ** self.p).sum(axis=1) ** (1.0 / self.p)

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "p": self.p,
                "basis": self.basis.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SubspaceSpec":
        basis, m, n, p = json_fields(data, "subspace", "basis", "m", "n", "p")
        M = json_numbers(basis, "subspace basis")
        if M.shape != (m, n):
            raise ValueError("basis shape does not match m, n")
        return cls(M, json_number(p, "subspace p"))


@dataclass(frozen=True, eq=False)
class LewisPosition:
    """Representation of a subspace with matching norm and identity weights.

    ``change_of_basis`` L maps R^n into the subspace via x -> basis @ L @ x,
    whose l_p norm equals ``gauge(x)`` exactly, while the gauge's system
    resolves the identity, sum c_i u_i (x) u_i = I_n, within the solver
    tolerance (``residual``, reached after ``iterations`` sweeps).
    """

    gauge: WeightedLpGauge
    change_of_basis: np.ndarray
    residual: float
    iterations: int


def lewis_position(spec: SubspaceSpec) -> LewisPosition:
    """Fixed-point solve for the Lewis position of a subspace of l_p^m.

    Starting from the QR-whitened basis (already the fixed point for p = 2),
    each sweep forms T = sum |r_i|^{p-2} r_i r_i^T from the rows of
    R = basis @ L and whitens L <- L T^{-s/2} with s = 4 / (p + 2), until
    |T - I|_F <= ``_LEWIS_TOL``.  Near the fixed point a sweep scales T - I
    by factors between 1 - s and 1 - s p / 2 (Cohen & Peng, STOC 2015);
    this s makes the two equal in size, so each sweep contracts by
    |p - 2| / (p + 2) < 1 for every p >= 1.  The sweep count grows about
    like 6 p, and ``_LEWIS_MAX_ITER`` sweeps are reached from about p = 80.
    Zero rows carry zero weight and are dropped from the returned gauge.
    Raises SolverError, naming p, as soon as T stops being finite or loses
    positive definiteness, and when the iteration does not converge within
    ``_LEWIS_MAX_ITER`` sweeps.  A T not positive definite before the first
    sweep is named with the range of the weights |r_i|^p, in powers of ten:
    at large p it exceeds double precision.
    """
    M = spec.basis
    p = spec.p
    n = spec.n
    L = np.linalg.inv(np.linalg.qr(M)[1])
    eye = np.eye(n)
    power = -2.0 / (p + 2.0)                    # T^{-s/2}
    residual = math.inf
    # a diverging iteration overflows; it is caught by the residual below
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(_LEWIS_MAX_ITER):
            R = M @ L
            sq = np.add.reduce(R * R, 1)
            # rows |r_i|^{p/2-1} r_i; the floor keeps zero rows at weight 0
            Rw = R * (np.maximum(sq, 1e-300) ** (0.25 * p - 0.5))[:, None]
            T = Rw.T @ Rw
            residual = float(np.linalg.norm(T - eye))
            if not math.isfinite(residual):
                raise SolverError(
                    f"Lewis iteration diverged at p = {p:g}: the weights or "
                    f"T stopped being finite after {iteration} sweeps")
            if residual <= _LEWIS_TOL:
                break
            evals, evecs = np.linalg.eigh(T)
            if evals[0] <= 0:
                if not iteration:
                    # from the whitened start only the weights' range can
                    # make T singular
                    decades = 0.5 * p * np.log10(sq[sq > 0])
                    raise SolverError(
                        f"Lewis iteration cannot start at p = {p:g}: the "
                        f"weights |r_i|^p of the whitened rows span "
                        f"10^{decades.min():.0f} to 10^{decades.max():.0f}, "
                        f"beyond double precision, so T is not positive "
                        f"definite")
                raise SolverError(
                    f"Lewis iteration diverged at p = {p:g}: the whitening "
                    f"matrix T lost positive definiteness after {iteration} "
                    f"sweeps")
            L = L @ (evecs * evals ** power) @ evecs.T
        else:
            raise SolverError(f"Lewis iteration did not reach {_LEWIS_TOL:.1e} "
                              f"within {_LEWIS_MAX_ITER} sweeps "
                              f"(residual {residual:.3e})")
    norms = np.sqrt(sq)
    keep = norms > 1e-14
    system = BLSystem(R[keep] / norms[keep, None], norms[keep] ** p)
    return LewisPosition(gauge=WeightedLpGauge(system, p), change_of_basis=L,
                         residual=residual, iterations=iteration)


def inscribed_radius_check(gauge: WeightedLpGauge) -> float:
    """Guaranteed Euclidean ball radius inside a Lewis-position unit ball.

    Returns n^{1/2 - 1/p} for p <= 2 and 1 for p >= 2, after verifying
    gauge(x) <= |x| / radius on ``_RADIUS_PROBE_COUNT`` seeded random unit
    vectors (the two Hoelder cases); a violation beyond ``_RADIUS_PROBE_TOL``
    signals an invalid decomposition.
    """
    n = gauge.dim
    radius = lp_ball_inscribed_radius(n, gauge.p)
    x = sphere_points(np.random.default_rng(_RADIUS_PROBE_SEED), _RADIUS_PROBE_COUNT, n)
    worst = float((gauge(x) - 1.0 / radius).max())
    if worst > _RADIUS_PROBE_TOL:
        raise ValueError(f"gauge exceeds |x|/radius by {worst:.3e}; "
                         "the decomposition is invalid")
    return radius


def subspace_volume_ratio(spec: SubspaceSpec, mc: McParams) -> Estimate:
    """Upper bound on the volume ratio of a subspace of l_p^m, via Lewis
    position.

    Puts the subspace in Lewis position, estimates the unit-ball volume by
    the gauge integral, and divides by the guaranteed inscribed ball of
    radius min(1, n^{1/2-1/p}).  That ball is not John's ellipsoid, so the
    result is the Lewis-ball quotient, an upper bound on the volume ratio,
    not the ratio itself: on ``tests/data/subspace_p1.json`` it is 1.116
    against 1.0708 from John's ellipsoid of the exact ball.  It never
    exceeds the volume ratio of l_p^n beyond Monte Carlo noise.
    """
    return _lewis_volume_ratio(spec, mc)[1]


def _lewis_volume_ratio(spec: SubspaceSpec, mc: McParams):
    """(Lewis position, volume-ratio estimate) of ``spec`` from one solve."""
    lewis = lewis_position(spec)
    volume = gauge_integral_volume(lewis.gauge, mc)
    n = spec.n
    rho = inscribed_radius_check(lewis.gauge)
    denom = unit_ball_volume(n) * rho ** n
    vr = (volume.value / denom) ** (1.0 / n)
    se = vr * volume.std_error / (n * volume.value)
    return lewis, Estimate(vr, se, mc.sample_count)


class L1VolumeRatioBound(NamedTuple):
    """Exact n-dimensional bound and its dimension-free limit."""

    exact: float
    limit: float


def l1_vr_bound(n: int) -> L1VolumeRatioBound:
    """Upper bound for volume ratios of n-dimensional subspaces of L_1.

    The exact bound is vr(l_1^n) = (2^n n^{n/2} Gamma(1+n/2) /
    (Gamma(1+n) pi^{n/2}))^{1/n}, ``lp_ball_volume_ratio(n, 1)``; it
    increases to sqrt(2e/pi) = 1.31549...
    """
    return L1VolumeRatioBound(exact=lp_ball_volume_ratio(n, 1.0), limit=L1_VR_LIMIT)
