"""Numerical verification of the normalized Brascamp-Lieb inequality.

For unit vectors u_i and positive weights c_i with sum c_i u_i (x) u_i = I_d,
and integrable densities f_i >= 0 on the line,

    integral of prod f_i(<u_i, x>)^c_i over R^d  <=  prod (integral f_i)^c_i

with equality for identical centered Gaussians and for orthonormal u_i.
``BLSystem`` holds such a family (u_i, c_i) and is the package's one type
for an identity decomposition: John's contact points come as one, and a
weighted l_p gauge is one plus p.  The module estimates the left side by
importance sampling, exposes the cone-lifting construction that turns a
centered decomposition in R^n into a decomposition in R^{n+1}, and
evaluates the extremal constants (cube and regular-simplex volume bounds,
reverse isoperimetric constants).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import json_fields, json_number, json_numbers, require_finite_rows
from .measures import Estimate, McParams
from .sampling import StudentTProposal, sample_mean

# largest |sum c_i u_i| that lift_to_cone accepts as centered
_BARYCENTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BLSystem:
    """Identity decomposition: unit vectors u_i with positive weights c_i,
    nominally resolving sum c_i u_i (x) u_i = I_d.

    The one type for the paper's central object: John's contact points with
    their weights (``john.john_decomposition``), the data of the
    Brascamp-Lieb inequality, and the vectors and weights of a weighted
    l_p gauge (``lp_spaces.WeightedLpGauge``).  Construction checks shapes,
    finiteness, unit length and weight positivity only; the residual methods
    report how well the identity holds, so perturbed systems can be inspected.
    """

    vectors: np.ndarray
    weights: np.ndarray

    def __init__(self, vectors, weights):
        U = np.atleast_2d(np.asarray(vectors, dtype=float))
        c = np.asarray(weights, dtype=float).ravel()
        if U.shape[0] != c.shape[0]:
            raise ValueError("one weight per vector required")
        require_finite_rows("system", vector=U, weight=c)
        norms = np.linalg.norm(U, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("vectors must have unit length")
        if np.any(c <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "vectors", U)
        object.__setattr__(self, "weights", c)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def frobenius_residual(self) -> float:
        """|sum c_i u_i (x) u_i - I|_F."""
        M = (self.vectors * self.weights[:, None]).T @ self.vectors
        return float(np.linalg.norm(M - np.eye(self.dim)))

    def trace_gap(self) -> float:
        """|sum c_i - d|."""
        return float(abs(self.weights.sum() - self.dim))

    def barycenter_norm(self) -> float:
        """|sum c_i u_i|; zero for John's contacts of a general body."""
        return float(np.linalg.norm(self.weights @ self.vectors))

    def to_dict(self) -> dict:
        return {"dim": self.dim, "vectors": self.vectors.tolist(),
                "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "BLSystem":
        vectors, weights = json_fields(data, "system", "vectors", "weights")
        return cls(json_numbers(vectors, "system vectors"),
                   json_numbers(weights, "system weights"))


def random_system(dim: int, size: int, rng) -> BLSystem:
    """Seeded random valid system: random directions whitened to isotropy.

    For any spanning set w_i, taking u_i = T^{-1/2} w_i normalized and
    c_i = |T^{-1/2} w_i|^2 with T = sum w_i w_i^T yields an exact identity
    decomposition.
    """
    rng = np.random.default_rng(rng)
    if size < dim:
        raise ValueError("need at least dim vectors")
    while True:
        W = rng.standard_normal((size, dim))
        T = W.T @ W
        if np.linalg.matrix_rank(T) == dim:
            break
    evals, evecs = np.linalg.eigh(T)
    root_inv = evecs @ np.diag(evals ** -0.5) @ evecs.T
    V = W @ root_inv
    norms = np.linalg.norm(V, axis=1)
    return BLSystem(V / norms[:, None], norms ** 2)


# ---------------------------------------------------------------------------
# one-dimensional densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Density1D:
    """Nonnegative integrable density on the line with a known integral.

    Tags: "exponential" (e^-t on t >= 0, integral 1), "gaussian" with scale
    sigma (e^{-t^2 / 2 sigma^2}, integral sigma sqrt(2 pi)), "indicator" of
    an interval, and "table" (linear interpolation on a grid, trapezoid
    integral).  The first three carry exact integrals so the product bound
    prod (integral f_i)^{c_i} is exact and Monte Carlo error stays on the
    left-hand side only.
    """

    tag: str
    params: tuple
    integral: float

    def __post_init__(self):
        if not (self.integral > 0 and math.isfinite(self.integral)):
            raise ValueError(f"density integral must be positive and finite, "
                             f"got {self.integral}")

    @classmethod
    def exponential(cls) -> "Density1D":
        return cls("exponential", (), 1.0)

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "Density1D":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls("gaussian", (float(sigma),), float(sigma) * math.sqrt(2.0 * math.pi))

    @classmethod
    def indicator(cls, a: float, b: float) -> "Density1D":
        if not b > a:
            raise ValueError("indicator needs a < b")
        return cls("indicator", (float(a), float(b)), float(b - a))

    @classmethod
    def table(cls, grid, values) -> "Density1D":
        g = np.asarray(grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("density values must be nonnegative")
        integral = float(np.trapezoid(v, g))
        return cls("table", (g, v), integral)

    def log_density(self, t: np.ndarray) -> np.ndarray:
        """log f(t) elementwise, -inf where f vanishes."""
        t = np.asarray(t, dtype=float)
        form = self.log_quadratic()
        if form is None:
            return _log_table(t, *self.params)
        alpha, beta, lo, hi = form
        return np.where((t >= lo) & (t <= hi), (alpha * t + beta) * t, -np.inf)

    def log_quadratic(self):
        """(alpha, beta, lo, hi) with log f(t) = alpha t^2 + beta t on the
        support [lo, hi] and f = 0 off it; None for a table."""
        _, form = _tag(self.tag)
        return None if form is None else form(*self.params)

    def to_dict(self) -> dict:
        names, _ = _tag(self.tag)
        return {"tag": self.tag, **{name: np.asarray(value).tolist()
                                    for name, value in zip(names, self.params)}}

    @classmethod
    def from_dict(cls, data: dict) -> "Density1D":
        tag, = json_fields(data, "density", "tag")
        names, _ = _tag(tag)
        # every descriptor is required but a gaussian's sigma, which defaults to 1
        json_fields(data, f"{tag} density", *(name for name in names if name != "sigma"))
        read = json_numbers if tag == "table" else json_number
        return getattr(cls, tag)(**{name: read(data[name], f"{tag} density {name}")
                                    for name in names if name in data})


def _log_table(t, grid, values):
    with np.errstate(divide="ignore"):
        return np.log(np.interp(t, grid, values, left=0.0, right=0.0))


# tag -> (descriptor names of the params, params -> (alpha, beta, lo, hi) of
# Density1D.log_quadratic, or None for a table); the Density1D constructor
# named after the tag takes those names
_TAGS = {
    "exponential": ((), lambda: (0.0, -1.0, 0.0, math.inf)),
    "gaussian": (("sigma",),
                 lambda sigma: (-0.5 / sigma ** 2, 0.0, -math.inf, math.inf)),
    "indicator": (("a", "b"), lambda a, b: (0.0, 0.0, a, b)),
    "table": (("grid", "values"), None),
}


def _tag(tag: str):
    if not isinstance(tag, str) or tag not in _TAGS:
        raise ValueError(f"unknown density tag {tag!r}")
    return _TAGS[tag]


# ---------------------------------------------------------------------------
# the inequality
# ---------------------------------------------------------------------------

def bl_ratio(system: BLSystem, densities, mc: McParams) -> Estimate:
    """Monte Carlo estimate of LHS / RHS of the product inequality.

    The left side is importance-sampled with a product Student-t proposal
    (heavy tails keep the weight variance finite for every tagged density
    family, exponential ones included); the right side uses the densities'
    exact integrals.  The mean is ``sampling.sample_mean``'s: batch 0 on
    ``np.random.default_rng(mc.seed)``, batch k >= 1 on a stream spawned
    from ``mc.seed``.  A block of rows x is weighed from one product
    D = G x^T.  With the densities' quadratic log forms
    (``Density1D.log_quadratic``), log f_i(t) = alpha_i t^2 + beta_i t on
    the support, every alpha_i <= 0, so sum c_i alpha_i <u_i, x>^2 = -|R x|^2
    for the triangular factor R of the rows sqrt(-c_i alpha_i) u_i, and
    sum c_i beta_i <u_i, x> = <l, x> for l = sum c_i beta_i u_i.  G stacks
    R (at most d rows), l, and the u_i of every bounded support and every
    table.  The log weight is -|R x|^2 + <l, x> plus c log f(t) of every
    table, less log RHS and the log density the proposal drew with x; rows
    outside some density's support weigh 0.  For a valid system the
    estimate never exceeds 1 + 3 std_error up to Monte Carlo noise.
    """
    densities = list(densities)
    if len(densities) != system.size:
        raise ValueError("one density per vector required")
    U, c = system.vectors, system.weights
    log_rhs = float(np.dot(c, [math.log(f.integral) for f in densities]))
    proposal = StudentTProposal(dim=system.dim)
    forms = [f.log_quadratic() for f in densities]
    curved = [i for i, form in enumerate(forms) if form is not None and form[0]]
    linear = [i for i, form in enumerate(forms) if form is not None and form[1]]
    # alpha <= 0 for every tag, so the rows are real and nothing cancels
    curvature = -c[curved] * [forms[i][0] for i in curved]
    R = np.linalg.qr(np.sqrt(curvature)[:, None] * U[curved], mode="r")
    slope = c[linear] * [forms[i][1] for i in linear] @ U[linear]
    # each table and each support bounded on either side reads its own <u_i, x>
    projected = [i for i, form in enumerate(forms)
                 if form is None or form[2] > -math.inf or form[3] < math.inf]
    head = [R, slope[None, :]] if linear else [R]
    G = np.concatenate(head + [U[projected]])
    first = len(G) - len(projected)
    tables = [(first + k, c[i], densities[i]) for k, i in enumerate(projected)
              if forms[i] is None]
    supports = [(first + k, *forms[i][2:]) for k, i in enumerate(projected)
                if forms[i] is not None]

    def integrand(block):
        X, log_q = block
        D = G @ X.T                              # (len(G), rows)
        Rx = D[:len(R)]
        log_h = -np.einsum("rj,rj->j", Rx, Rx)
        if linear:
            log_h += D[len(R)]
        for r, weight, f in tables:
            # 0^c := 0 for c > 0: -inf * c stays -inf, exp gives 0
            log_h += weight * f.log_density(D[r])
        log_h -= log_rhs
        log_h -= log_q
        inside = np.ones(len(X), dtype=bool)
        for r, lo, hi in supports:
            if lo > -math.inf:
                inside &= D[r] >= lo
            if hi < math.inf:
                inside &= D[r] <= hi
        # rows outside a support may overflow; they weigh 0 all the same
        with np.errstate(over="ignore"):
            return np.where(inside, np.exp(log_h), 0.0)

    acc = sample_mean(mc.seed, proposal.sample, integrand, mc.sample_count)
    return Estimate(acc.mean, acc.std_error, mc.sample_count)


def lift_to_cone(system: BLSystem) -> BLSystem:
    """Lift a centered decomposition in R^n to one in R^{n+1}.

    Sends u_i to v_i = sqrt(n/(n+1)) (-u_i, 1/sqrt(n)) with weights
    d_i = (n+1)/n c_i; the barycenter condition sum c_i u_i = 0 makes the
    lifted family resolve I_{n+1} exactly (residual <= 1e-10 for exact
    inputs).  Products of exponential half-line densities over the lifted
    family are supported on a cone whose height-r section is (r/sqrt(n))
    times the polytope {x : <u_i, x> <= 1}.
    """
    barycenter = system.barycenter_norm()
    if barycenter > _BARYCENTER_TOL:
        raise ValueError(f"barycenter {barycenter:.3e} exceeds "
                         f"{_BARYCENTER_TOL:.1e}; lifting needs sum c_i u_i = 0")
    n = system.dim
    scale = math.sqrt(n / (n + 1.0))
    lifted = np.hstack([-system.vectors,
                        np.full((system.size, 1), 1.0 / math.sqrt(n))]) * scale
    return BLSystem(lifted, (n + 1.0) / n * system.weights)


# ---------------------------------------------------------------------------
# extremal constants
# ---------------------------------------------------------------------------

def simplex_volume_bound(n: int) -> float:
    """Volume of the regular n-simplex circumscribing the unit ball,
    n^{n/2} (n+1)^{(n+1)/2} / n!, evaluated in log space."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * n * math.log(n) + 0.5 * (n + 1) * math.log(n + 1)
                    - math.lgamma(n + 1))


def cube_volume_bound(n: int) -> float:
    """Volume 2^n of the cube circumscribing the unit ball; the maximal
    volume of any symmetric body whose inscribed ellipsoid is the unit ball."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return 2.0 ** n


def reverse_isoperimetric_constant(n: int, symmetric: bool) -> float:
    """Largest isoperimetric quotient over bodies in John position.

    2n in the symmetric case (the cube's quotient); in the general case
    n * simplex_volume_bound(n)^{1/n}, since a body whose inscribed unit
    ball touches every facet has |boundary| = n |body| by cone decomposition.
    """
    if symmetric:
        return 2.0 * n
    return n * simplex_volume_bound(n) ** (1.0 / n)
