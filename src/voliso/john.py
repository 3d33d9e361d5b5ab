"""Maximal inscribed ellipsoids, John position, and identity decompositions.

The solver maximizes log det B over ellipsoids {By + d : |y| <= 1} subject
to the second-order-cone containment constraints |B a_i| + <a_i, d> <= b_i,
one per facet, written as g_i = (b_i - <a_i, d>)^2 - |B a_i|^2 >= 0 on the
side b_i > <a_i, d>.  In theta = (beta, d), with beta the packed lower
triangle of B, each g_i is quadratic, so its Hessian M_i is constant and
its gradient is W_i = M_i theta + c_i.  The solve builds these tensors once
from the facets; a Newton system then takes the constraints' derivatives
from a few matrix products with them, and those of f0 = -log det B from
B^-1 by fixed gathers.

The solve starts from the ball of radius 0.9 min(b) about the origin, which
every HPolytope holds, so it needs no LP.  It centres that point loosely
(lambda^2 / 2 <= 1e-2) by Newton steps on the log-barrier
Phi_t = t f0 - sum_i log g_i at the weight t0 >= 1 that makes it most
central: t0 minimises |t grad f0 + grad phi| in the norm of H_phi^-1, with
phi the log-barrier, from one gradient, Hessian and solve at t = 0 (Boyd &
Vandenberghe, Convex Optimization, 11.3.1).  The multipliers start at
lam_i = 1 / (t0 g_i).  Without this centring the iteration below strays
from the central path on flat optima, and its answer then depends on the
order of the facets.

From there a primal-dual interior-point method (Zhang & Gao, "On numerical
solution of the maximum volume ellipsoid problem", SIAM J. Optim. 14, 2003)
solves grad f0 = sum_i lam_i W_i, lam_i g_i = sigma mu by Mehrotra's
predictor-corrector (SIAM J. Optim. 2, 1992).  Eliminating the multiplier
step leaves one system in theta per iteration, with the positive definite
matrix K = hess f0 - sum lam_i M_i + sum (lam_i / g_i) W_i W_i^T, factored
once by Cholesky for both directions.  Each g_i is exactly quadratic along
a step, so the corrector's target carries the second-order terms of
lam_i g_i, and every step goes 0.99 of the exact way to the boundary of
g > 0 and lam > 0.  Neither loop compares barrier values: a step, whole in
the centring, is halved only until B is positive definite and every slack
positive, and SolverError is raised once it falls below 1e-13.

The stop is certified: once the duality gap sum lam_i g_i is at most
1e-12, the KKT residual of the iterate's own multipliers must be small
too (see _kkt_certificate).  The iteration goes on while it is above 1e-8
(down to a gap of 1e-13), and a result whose residual is above 1e-6
raises SolverError instead of being returned.  The
iterates are scale-equivariant but these tolerances are absolute, so the
solve runs on the body scaled by a power of two to largest offset in
[0.5, 1): a body gets the same stop in any units.

A body is in John position when its maximal inscribed ellipsoid is the
unit ball; contact points are then the facet normals at unit distance, and
nonnegative weights solving sum c_i u_i (x) u_i = I certify optimality.
``john_decomposition`` returns them as a ``brascamp_lieb.BLSystem``, the
package's one type for an identity decomposition.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import nnls

from .bodies import Ellipsoid, HPolytope, apply_affine, vrep_from_hrep
from .brascamp_lieb import BLSystem
from .errors import InfeasibleDecompositionError, NotJohnPositionError, SolverError

_GAP_TOL = 1e-12           # duality gap sum lam_i g_i of a returned ellipsoid ...
_KKT_TARGET = 1e-8         # ... whose KKT residual the iteration aims for ...
_GAP_FLOOR = 1e-13         # ... until the gap is this small
_KKT_TOL = 1e-6            # largest KKT residual of a returned ellipsoid
_CENTRE_TOL = 1e-2         # on lambda^2 / 2 at the start weight
_STEP_FRACTION = 0.99      # share of the step to the boundary taken
_MAX_NEWTON = 200
_DECOMPOSITION_TOL = 1e-8  # largest residual of John's weights
_DROP_TOL = 1e-10          # contacts of smaller weight leave the decomposition
_CONTACT_TOL = 1e-6        # contact slack, as a share of the largest offset


# ---------------------------------------------------------------------------
# symmetric-matrix parametrization helpers, cached per dimension
# ---------------------------------------------------------------------------

class _SymIndex:
    """Index arrays for the packed lower triangle of a symmetric n x n matrix.

    ``full`` gathers packed entries into a row-major matrix.  With
    B = sum_p beta_p E_p over the packed basis matrices E_p (ones at (j, k)
    and (k, j)), ``curvature`` maps outer(a, a) to the Gram matrix
    a^T E_p E_r a of the tangents E_p a.  The derivatives of -log det B are
    read from the row-major B^-1 by gathers: its gradient -D^T vec(B^-1),
    with D the duplication matrix, is ``-fold * B^-1[lower]``, and entry
    (p, r) of its Hessian D^T (B^-1 kron B^-1) D, for p = (j, k) and
    r = (l, m), is w_pr (B^-1_jl B^-1_km + B^-1_jm B^-1_kl), with the four
    factors at ``kron_index`` and w_pr in ``kron_weight``.  ``frobenius``
    (sqrt(2) off the diagonal) weights packed entries to the Frobenius norm.
    """

    def __init__(self, n: int):
        rows, cols = np.tril_indices(n)
        self.n = n
        self.q = q = len(rows)
        self.rows, self.cols = rows, cols
        self.diag = rows == cols
        self.eye = np.eye(n)
        packed = np.empty((n, n), dtype=np.intp)
        packed[rows, cols] = packed[cols, rows] = np.arange(q)
        self.full = packed.reshape(-1)
        basis = np.zeros((q, n, n))
        basis[np.arange(q), rows, cols] = basis[np.arange(q), cols, rows] = 1.0
        self.curvature = (basis[:, None] @ basis[None, :]).reshape(q * q, n * n)
        self.lower = rows * n + cols
        self.fold = np.where(self.diag, 1.0, 2.0)
        self.frobenius = np.sqrt(self.fold)
        j, k, l, m = rows[:, None], cols[:, None], rows, cols
        self.kron_index = np.stack([j * n + l, k * n + m, j * n + m, k * n + l])
        self.kron_weight = 0.5 * np.multiply.outer(self.fold, self.fold)

    def to_matrix(self, packed: np.ndarray) -> np.ndarray:
        return packed[self.full].reshape(self.n, self.n)

    def sym_entries(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Row-wise packed entries of sym(x y^T) = (x y^T + y x^T) / 2."""
        return 0.5 * (X[:, self.rows] * Y[:, self.cols]
                      + X[:, self.cols] * Y[:, self.rows])


_sym_index = functools.cache(_SymIndex)     # one per dimension


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

@dataclass
class SolveInfo:
    """Diagnostics of one inscribed-ellipsoid solve.

    ``newton_iterations`` counts the Newton systems factored: the one that
    sets the start weight, those of the centring and one per primal-dual
    iteration after the first, which reuses the centring's last.
    ``duality_gap`` is sum lam_i g_i at the returned ellipsoid and
    ``kkt_residual`` its certificate (see _kkt_certificate), both of the
    body scaled to largest offset in [0.5, 1), as the stop judged them, so
    they do not depend on the body's units.  A failed solve raises
    SolverError.
    """

    newton_iterations: int
    duality_gap: float
    kkt_residual: float


def _barrier_tensors(sym, A, b):
    """Fixed tensors of the constraints of the body {Ax <= b}: the Hessians
    M as (m (q + n), q + n) and (m, (q + n)^2) views, and c.

    In theta = (beta, d), with beta the packed B, each g_i = s_i^2 - |B a_i|^2
    with s_i = b_i - <a_i, d> is quadratic: its gradient is M_i theta + c_i
    and its Hessian the symmetric M_i, with B-block -2 (a_i^T E_p E_r a_i),
    d-block 2 a_i a_i^T, and c_i = (0, -2 b_i a_i).  They are built once per
    solve, so a Newton step needs only a few matrix products.
    """
    m, n = A.shape
    q = sym.q
    outer = (A[:, :, None] * A[:, None, :]).reshape(m, n * n)
    M = np.zeros((m, q + n, q + n))
    M[:, :q, :q] = (outer @ sym.curvature.T).reshape(m, q, q) * -2.0
    M[:, q:, q:] = 2.0 * outer.reshape(m, n, n)
    c = np.zeros((m, q + n))
    c[:, q:] = -2.0 * b[:, None] * A
    return M.reshape(m * (q + n), q + n), M.reshape(m, (q + n) ** 2), c


def _interior_point(sym, A, b, theta):
    """The Cholesky factor of B, the g_i and theta; None when theta is not
    interior."""
    B = sym.to_matrix(theta[: sym.q])
    d = theta[sym.q:]
    L, info = lapack.dpotrf(B, lower=1)         # B = L L^T
    if info:                                     # B is not positive definite
        return None
    s = b - A @ d
    V = A @ B
    vnorm = np.sqrt(np.add.reduce(V * V, 1))     # np.linalg.norm's body, bit for bit
    slack = s - vnorm
    if not slack.min() > 0:                      # slack <= s, so s > 0 too
        return None
    return L, slack * (s + vnorm), theta


def _step(sym, A, b, theta, step, alpha):
    """The point theta + alpha step, alpha halved until it is interior, as
    _interior_point returns it; SolverError if the step is not finite or
    alpha falls below 1e-13 first."""
    if not np.isfinite(step).all():
        raise SolverError("Newton step is not finite")
    while alpha > 1e-13:
        point = _interior_point(sym, A, b, theta + alpha * step)
        if point is not None:
            return point
        alpha *= 0.5        # B lost definiteness or a slack its sign
    raise SolverError("no interior point along the Newton step")


def _newton_system(sym, tensors, point, lam, weight):
    """Gradients and Newton matrix at an interior point as _interior_point
    returns it, from the body's _barrier_tensors.

    With W_i = M_i theta + c_i the gradient of g_i, returns grad f0 with
    f0 = -log det B, the W_i, and
    K = weight hess f0 + sum (lam_i / g_i) W_i W_i^T - sum lam_i M_i.
    Each term of the sums is lam_i g_i times the Hessian of the convex
    -log g_i, so K is positive definite on a bounded body when lam > 0.  With
    lam_i = 1 / g_i they are the derivatives of the barrier
    Phi_t = t f0 - sum log g_i at weight t: its gradient is
    t grad f0 - lam @ W and its Hessian K.
    """
    stacked, flat, c = tensors
    q = sym.q
    L, g, theta = point
    m, size = c.shape
    Binv = lapack.dpotrs(L, sym.eye, lower=1)[0].reshape(-1)
    W = (stacked @ theta).reshape(m, size) + c
    grad = np.zeros(size)
    grad[:q] = -sym.fold * Binv[sym.lower]
    Ws = W * np.sqrt(lam / g)[:, None]
    K = Ws.T @ Ws
    K -= (lam @ flat).reshape(size, size)
    X = Binv[sym.kron_index]
    K[:q, :q] += (weight * sym.kron_weight) * (X[0] * X[1] + X[2] * X[3])
    return grad, W, K


def _kkt_certificate(sym, A, b, point, lam, gap):
    """The larger of the gap and the residual of stationarity of log det,
    B^-1 = sum mu_i sym(v_i a_i^T) / |v_i| and sum mu_i a_i = 0, in the
    Frobenius norm, with v_i = B a_i and the iterate's multipliers.

    With s_i = b_i - <a_i, d>, g_i = (s_i - |v_i|)(s_i + |v_i|), so lam_i W_i
    is mu_i = lam_i (s_i + |v_i|) times the gradient of the cone constraint
    s_i - |v_i| >= 0, up to a term that the gap bounds.
    """
    L, _, theta = point
    B, d = sym.to_matrix(theta[: sym.q]), theta[sym.q:]
    V = A @ B
    vnorm = np.sqrt(np.add.reduce(V * V, 1))
    mu = lam * (b - A @ d + vnorm)
    Binv = lapack.dpotrs(L, sym.eye, lower=1)[0].reshape(-1)
    shape = ((mu / vnorm) @ sym.sym_entries(V, A) - Binv[sym.lower]) * sym.frobenius
    return max(math.hypot(float(np.linalg.norm(shape)), float(np.linalg.norm(mu @ A))),
               gap)


def _factor(K):
    """Cholesky factor of a Newton matrix K for lapack.dpotrs.

    A K that Cholesky finds not positive definite (singular or numerically
    indefinite) gets one retry with K + 1e-12 tr(K) I; if that fails too
    the solve cannot go on and SolverError is raised.
    """
    F, info = lapack.dpotrf(K, lower=1, clean=0)
    if info:
        F, info = lapack.dpotrf(K + 1e-12 * np.trace(K) * np.eye(len(K)),
                                lower=1, clean=0)
    if info:
        raise SolverError("Newton system is singular or indefinite")
    return F


def _step_lengths(M, g, step, w, lam, dlam, fraction):
    """Primal and dual step lengths, ``fraction`` of the way to the
    boundary and at most 1, and the h below.

    Along theta + alpha step each g_i is the exact quadratic
    g_i + alpha w_i + alpha^2 h_i, with w = W step and
    h_i = step^T M_i step / 2 from the Hessians M, stacked as an
    (m (q + n), q + n) array.  Its first zero is 1 / x for the largest
    root x of g_i x^2 + w_i x + h_i.  The dual boundary is where
    lam + alpha dlam first reaches zero.
    """
    h = 0.5 * ((M @ step).reshape(len(g), -1) @ step)
    disc = w * w - 4.0 * h * g
    root = (np.sqrt(np.maximum(disc, 0.0)) - w) / (2.0 * g)
    primal = fraction / max(fraction, float(np.maximum.reduce(
        root, initial=0.0, where=disc >= 0.0)))
    dual = fraction / max(fraction, float(np.maximum.reduce(-dlam / lam)))
    return primal, dual, h


def max_inscribed_ellipsoid(P: HPolytope, full_output: bool = False):
    """Ellipsoid of maximal volume inside a bounded H-polytope.

    Returns the unique maximizer of det B over symmetric positive-definite
    B and center d with |B a_i| + <a_i, d> <= b_i for every facet.  With
    ``full_output=True`` also returns a SolveInfo carrying the KKT residual,
    duality gap and the count of Newton systems.

    The solve needs no LP: the origin is interior at depth min(b), so it
    starts from (B, d) = (0.9 min(b) I, 0), at the barrier weight t0 >= 1
    that makes that point most central, centres there loosely by Newton
    steps and sets the multipliers lam_i = 1 / (t0 g_i).  From there
    Mehrotra predictor-corrector steps on the primal-dual system, each 0.99
    of the exact step to the boundary, drive the duality gap sum lam_i g_i
    down (see the module docstring).

    Raises SolverError, and returns no ellipsoid, when the duality gap
    does not close within the Newton iteration cap, when a Newton system
    is singular or indefinite even after regularisation, when a step finds
    no interior point (see the module docstring), or when the KKT
    residual of the result is above 1e-6.  Tolerances apply to the body
    scaled by a power of two to largest offset in [0.5, 1), so they do not
    depend on its units.
    """
    A = P.normals
    m, n = A.shape
    sym = _sym_index(n)
    q = sym.q
    # exact scaling by a power of two to max(b) in [0.5, 1)
    scale = 2.0 ** math.frexp(float(P.offsets.max()))[1]
    b = P.offsets / scale

    theta = np.zeros(q + n)
    theta[:q][sym.diag] = 0.9 * float(b.min())
    # start weight: t minimising |t grad f0 + grad phi| in the norm of the
    # barrier's inverse Hessian H^-1 at the start point (Boyd & Vandenberghe
    # 11.3.1), and never below t = 1
    tensors = _barrier_tensors(sym, A, b)
    stacked = tensors[0]
    point = _interior_point(sym, A, b, theta)
    lam = 1.0 / point[1]
    grad, W, H = _newton_system(sym, tensors, point, lam, 0.0)
    step, tangent = lapack.dpotrs(_factor(H), np.array([lam @ W, grad]).T,
                                  lower=1)[0].T
    t = max(1.0, float(grad @ step) / float(grad @ tangent))
    systems = 1

    # centre at t with Newton steps on Phi_t, in the scaling of Phi_t / t:
    # the step is -K^-1 r and lambda^2 = t r K^-1 r
    while True:
        _, g, theta = point
        lam = 1.0 / (t * g)
        grad, W, K = _newton_system(sym, tensors, point, lam, 1.0)
        F = _factor(K)
        systems += 1
        residual = grad - lam @ W
        step = -lapack.dpotrs(F, residual, lower=1)[0]
        if -t * float(residual @ step) / 2.0 <= _CENTRE_TOL or systems >= _MAX_NEWTON:
            break
        point = _step(sym, A, b, theta, step, 1.0)

    # Mehrotra predictor-corrector on grad f0 = sum lam_i W_i and
    # lam_i g_i = sigma mu; with the multiplier step eliminated, its system
    # in theta has the matrix K, here still the centring's last
    gap = float(lam @ g)
    while True:
        # predictor: the affine-scaling direction, complementarity target 0
        dtheta = lapack.dpotrs(F, -grad, lower=1)[0]
        w = W @ dtheta
        dlam = -lam - (lam / g) * w
        primal, dual, h = _step_lengths(stacked, g, dtheta, w, lam, dlam, 1.0)
        mu = gap / m
        mu_aff = float((lam + dual * dlam) @ (g + primal * (w + primal * h))) / m
        # corrector: the centring target sigma mu, sigma = (mu_aff / mu)^3,
        # less the second-order terms of lam_i g_i along the predictor
        target = ((mu_aff / mu) ** 3 * mu - dlam * w - lam * h) / g
        dtheta = lapack.dpotrs(F, target @ W - grad, lower=1)[0]
        w = W @ dtheta
        dlam = target - lam - (lam / g) * w
        alpha, dual, _ = _step_lengths(stacked, g, dtheta, w, lam, dlam,
                                       _STEP_FRACTION)
        _, g, theta = point = _step(sym, A, b, theta, dtheta, alpha)
        lam = lam + dual * dlam
        gap = float(lam @ g)
        if gap <= _GAP_TOL or systems >= _MAX_NEWTON:
            kkt = _kkt_certificate(sym, A, b, point, lam, gap)
            # past the gap tolerance the iteration goes on while the
            # certificate is above _KKT_TARGET, down to a gap of _GAP_FLOOR
            if kkt <= _KKT_TARGET or gap <= _GAP_FLOOR or systems >= _MAX_NEWTON:
                break
        grad, W, K = _newton_system(sym, tensors, point, lam, 1.0)
        F = _factor(K)
        systems += 1

    if gap > 1e-8 or not kkt <= _KKT_TOL:
        raise SolverError(
            f"no certified optimum after {systems} Newton systems: "
            f"duality gap {gap:.3e}, KKT residual {kkt:.3e}")
    ellipsoid = Ellipsoid(scale * sym.to_matrix(theta[:q]), scale * theta[q:])
    if full_output:
        info = SolveInfo(newton_iterations=systems, duality_gap=gap,
                         kkt_residual=kkt)
        return ellipsoid, info
    return ellipsoid


def john_position(P: HPolytope):
    """Affine image of P whose maximal inscribed ellipsoid is the unit ball.

    Returns (image, T) where T is the inverse of the ellipsoid map
    x -> Bx + d, so image = T(P) and re-solving the image yields (I, 0).
    """
    ellipsoid = max_inscribed_ellipsoid(P)
    T = ellipsoid.as_map().inverse()
    return apply_affine(P, T), T


def contact_points(P: HPolytope) -> np.ndarray:
    """Facet normals touching the unit ball of a body in John position.

    In John position every facet has offset >= 1 and the touching facets
    have offset 1, up to ``_CONTACT_TOL`` times the largest; since normals
    are unit vectors, the tangency point of facet i is the normal itself.
    Raises NotJohnPositionError when some facet cuts into the unit ball.
    """
    eps_contact = _CONTACT_TOL * float(P.offsets.max())
    if np.any(P.offsets < 1.0 - eps_contact):
        raise NotJohnPositionError(
            f"unit ball not contained: min offset {P.offsets.min():.12g}")
    return P.normals[P.offsets <= 1.0 + eps_contact].copy()


def john_decomposition(contacts, symmetric: bool) -> BLSystem:
    """Nonnegative weights making the contacts resolve the identity.

    Solves sum c_i u_i (x) u_i = I_n (plus sum c_i u_i = 0 when
    ``symmetric`` is False) by nonnegative least squares; when the system is
    underdetermined the minimum-Euclidean-norm nonnegative solution is
    returned, and contacts of weight at most ``_DROP_TOL`` are dropped.  The
    result is a BLSystem of the kept contacts and their weights, with
    ``barycenter_norm`` zero in the general case; its vectors act like an
    orthonormal basis: |x|^2 = sum c_i <u_i, x>^2.  Raises
    InfeasibleDecompositionError when no weights fit within
    ``_DECOMPOSITION_TOL``, which signals an incomplete contact set.
    """
    U = np.atleast_2d(np.asarray(contacts, dtype=float))
    m, n = U.shape
    sym = _sym_index(n)
    # row per entry of sum c_i u_i u_i^T = I, off-diagonals weighted sqrt(2)
    # so the least-squares residual is exactly the Frobenius residual
    rows = [(sym.sym_entries(U, U) * sym.frobenius).T]
    rhs = [np.where(sym.diag, 1.0, 0.0) * sym.frobenius]
    if not symmetric:
        rows.append(U.T)
        rhs.append(np.zeros(n))
    A = np.vstack(rows)
    y = np.concatenate(rhs)
    # tiny Tikhonov row block selects the minimum-norm nonnegative solution
    ridge = 1e-6
    A_aug = np.vstack([A, ridge * np.eye(m)])
    y_aug = np.concatenate([y, np.zeros(m)])
    c, _ = nnls(A_aug, y_aug)
    residual = float(np.linalg.norm(A @ c - y))
    if residual > _DECOMPOSITION_TOL:
        raise InfeasibleDecompositionError(
            f"decomposition residual {residual:.3e} exceeds "
            f"{_DECOMPOSITION_TOL:.1e}; "
            "contact set looks incomplete")
    keep = c > _DROP_TOL
    return BLSystem(U[keep], c[keep])


def volume_ratio(P: HPolytope) -> float:
    """vr(P) = (|P| / |maximal inscribed ellipsoid|)^(1/n); affine-invariant."""
    from .measures import polytope_volume

    ellipsoid = max_inscribed_ellipsoid(P)
    vol = polytope_volume(vrep_from_hrep(P))
    return (vol / ellipsoid.volume) ** (1.0 / P.dim)
