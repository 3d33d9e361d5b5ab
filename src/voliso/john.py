"""Maximal inscribed ellipsoids, John position, and identity decompositions.

The solver maximizes log det B over ellipsoids {By + d : |y| <= 1} subject
to the second-order-cone containment constraints |B a_i| + <a_i, d> <= b_i,
one per facet.  It follows the central path of the log-barrier

    Phi_t(B, d) = -t log det B - sum_i log((b_i - <a_i, d>)^2 - |B a_i|^2)

(Boyd & Vandenberghe, Convex Optimization, 11.3-11.5).  The solve starts
from the ball of radius 0.9 min(b) about the origin, which every HPolytope
holds, so it needs no LP.  It starts at the weight t0 >= 1 that makes this
point most central: t0 minimises |t grad f0 + grad phi| in the norm of
H_phi^-1, with f0 = -log det B and phi the log-barrier, from one gradient,
Hessian and solve at t = 0 (11.3.1).  Each barrier stage re-centres with
damped Newton steps until lambda^2 / 2 is at most 1e-6 while the duality
gap 2m/t is above its tolerance and at most 1e-13 after, then multiplies t
by a fixed factor.  Between stages a predictor steps along the tangent of
the central path (Nesterov & Nemirovskii, Interior-Point Polynomial
Algorithms in Convex Programming, 1994), taken linear in 1/t:
d theta = -(1 - 1/mu) t H^-1 grad f0 with H the stage's last Hessian,
halved until it lowers Phi at the new t.  B and H are factored by Cholesky,
which also tests that B is positive definite.

In theta = (beta, d), with beta the packed lower triangle of B, each
g_i = (b_i - <a_i, d>)^2 - |B a_i|^2 under the logarithm is quadratic, so
its Hessian M_i is constant and its gradient is M_i theta + c_i.  The solve
builds these tensors once from the facets; a Newton step then takes the
barrier's gradient and Hessian from a few matrix products with them, and
those of log det B from B^-1 by fixed gathers.

The stop is certified: once the duality gap 2m/t is below tolerance, the
KKT residual of the iterate must be small too.  Stages go on while it is
above 1e-8 (down to a gap of 1e-13), and a result whose residual is above
1e-6 raises SolverError instead of being returned.  The iterates are
scale-equivariant but these tolerances are absolute, so the solve runs on
the body scaled by a power of two to largest offset in [0.5, 1): a body
gets the same stop in any units.

A body is in John position when its maximal inscribed ellipsoid is the
unit ball; contact points are then the facet normals at unit distance, and
nonnegative weights solving sum c_i u_i (x) u_i = I certify optimality.
``john_decomposition`` returns them as a ``brascamp_lieb.BLSystem``, the
package's one type for an identity decomposition.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import nnls

from .bodies import Ellipsoid, HPolytope, apply_affine, vrep_from_hrep
from .brascamp_lieb import BLSystem
from .errors import InfeasibleDecompositionError, NotJohnPositionError, SolverError

_GAP_TOL = 1e-10
_DECREMENT_TOL = 1e-13     # on lambda^2 / 2, the Newton suboptimality estimate,
_INNER_TOL = 1e-6          # ... relaxed to this while the gap 2m/t > _GAP_TOL
_MAX_NEWTON = 200
_T_FACTOR = 20.0
_PREDICTOR_MIN = 1e-3      # smallest fraction of the tangent step tried
_KKT_TARGET = 1e-8         # KKT residual the stages aim for ...
_GAP_FLOOR = 1e-13         # ... until the duality gap is this small
_KKT_TOL = 1e-6            # largest KKT residual of a returned ellipsoid
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
    factors at ``kron_index`` and w_pr in ``kron_weight``.
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

    ``stages`` counts barrier stages (one entry of ``det_trace`` each) and
    ``value_evaluations`` the evaluations of the barrier value, line-search
    and predictor trials included.  ``kkt_residual`` is that of the body
    scaled to largest offset in [0.5, 1), as the stop judged it, so it does
    not depend on the body's units.  ``newton_iterations`` does not count
    the one solve at t = 0 that sets the start weight.
    ``newton_decrement`` is lambda of the last Newton step, not a centring
    certificate: in the final stages the rounding of t log det B swamps
    lambda^2 / 2, so a stage can end on a stalled line search with lambda
    well above the target.  ``kkt_residual`` is the certificate of the
    returned ellipsoid; a failed solve raises SolverError.
    """

    newton_iterations: int
    duality_gap: float
    newton_decrement: float
    kkt_residual: float
    det_trace: list = field(default_factory=list)
    stages: int = 0
    value_evaluations: int = 0


def _barrier_tensors(sym, A, b):
    """Fixed tensors (M, c) of the barrier of the body {Ax <= b}.

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
    return M, c


def _barrier_value(sym, A, b, theta, t):
    """Phi_t, log det B, the Cholesky factor of B, the g_i and theta;
    None when theta is infeasible."""
    B = sym.to_matrix(theta[: sym.q])
    d = theta[sym.q:]
    L, info = lapack.dpotrf(B, lower=1)         # B = L L^T
    if info:                                     # B is not positive definite
        return None
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    s = b - A @ d
    V = A @ B
    vnorm = np.sqrt(np.add.reduce(V * V, 1))     # np.linalg.norm's body, bit for bit
    slack = s - vnorm
    if not slack.min() > 0:                      # slack <= s, so s > 0 too
        return None
    g = slack * (s + vnorm)
    return -t * logdet - float(np.log(g).sum()), logdet, L, g, theta


def _barrier_state(sym, tensors, point, t):
    """Rows [grad Phi_t, grad f0] with f0 = -log det B, and the Hessian of
    Phi_t, at a feasible point as _barrier_value returns it, from the
    body's _barrier_tensors (M, c).

    With W_i = M_i theta + c_i the gradient of g_i, the barrier
    -sum log g_i has gradient -sum W_i / g_i and Hessian
    sum W_i W_i^T / g_i^2 - sum M_i / g_i.
    """
    M, c = tensors
    q = sym.q
    _, _, L, g, theta = point
    m, size = c.shape
    Binv = lapack.dpotrs(L, sym.eye, lower=1)[0].reshape(-1)
    inv_g = 1.0 / g
    W = (M.reshape(m * size, size) @ theta).reshape(m, size) + c
    rhs = np.zeros((2, size))
    rhs[1, :q] = -sym.fold * Binv[sym.lower]
    rhs[0] = t * rhs[1] - inv_g @ W
    Wg = W * inv_g[:, None]
    H = Wg.T @ Wg
    H -= (inv_g @ M.reshape(m, size * size)).reshape(size, size)
    K = Binv[sym.kron_index]
    H[:q, :q] += (t * sym.kron_weight) * (K[0] * K[1] + K[2] * K[3])
    return rhs, H


def _kkt_certificate(A, b, B, d, eps_contact):
    """Best nonnegative multipliers for stationarity; returns the residual.

    Stationarity of log det at the optimum reads B^{-1} = sum lam_i
    sym(v_i a_i^T)/|v_i| together with sum lam_i a_i = 0; multipliers are
    fitted by nonnegative least squares on the near-active facets.
    """
    sym = _sym_index(A.shape[1])
    s = b - A @ d
    V = A @ B
    vnorm = np.linalg.norm(V, axis=1)
    slack = s - vnorm
    active = slack <= eps_contact
    violation = max(0.0, float(-slack.min()))
    if not np.any(active):
        return math.inf, violation
    Aact = A[active]
    Vact = V[active] / vnorm[active][:, None]
    # Frobenius-consistent packed rows: off-diagonal entries weighted sqrt(2)
    weights = np.where(sym.diag, 1.0, math.sqrt(2.0))
    M = sym.sym_entries(Vact, Aact) * weights
    Binv = np.linalg.inv(B)
    target = Binv[sym.rows, sym.cols] * weights
    system = np.hstack([M, Aact]).T               # (q + n, k) columns per facet
    rhs = np.concatenate([target, np.zeros(A.shape[1])])
    lam, _ = nnls(system, rhs)
    resid = float(np.linalg.norm(system @ lam - rhs))
    comp = float(np.abs(lam * slack[active]).sum())
    return max(resid, comp, violation), violation


def _newton_step(H, rhs):
    """Newton step -H^-1 grad, lambda^2 = grad . H^-1 grad, and H^-1 grad0,
    for the rows [grad, grad0] of ``rhs``.

    A zero gradient is a centred point: its step and lambda^2 are 0.  An H
    that Cholesky finds not positive definite (singular or numerically
    indefinite), or a lambda^2 that is not positive, gets one retry with
    H + 1e-12 tr(H) I; if that fails too the solve cannot go on and
    SolverError is raised.
    """
    grad = rhs[0]
    matrix = H
    for _ in range(2):
        _, sol, info = lapack.dposv(matrix, rhs.T)     # Cholesky
        dec2 = math.nan if info else float(grad @ sol[:, 0])
        if dec2 > 0.0 or (dec2 == 0.0 and not grad.any()):   # False for NaN
            return -sol[:, 0], dec2, sol[:, 1]
        matrix = H + 1e-12 * np.trace(H) * np.eye(H.shape[0])
    raise SolverError(f"Newton system is singular or indefinite "
                      f"(squared decrement {dec2:.3e})")


def max_inscribed_ellipsoid(P: HPolytope, full_output: bool = False):
    """Ellipsoid of maximal volume inside a bounded H-polytope.

    Returns the unique maximizer of det B over symmetric positive-definite
    B and center d with |B a_i| + <a_i, d> <= b_i for every facet.  With
    ``full_output=True`` also returns a SolveInfo carrying the KKT residual,
    duality gap, iteration counts and the per-stage determinant trace
    (non-decreasing).

    The solve needs no LP: the origin is interior at depth min(b), so it
    starts from (B, d) = (0.9 min(b) I, 0), at the barrier weight t0 >= 1
    that makes that point most central.  Between barrier stages it steps
    along the central-path tangent (see the module docstring) and then
    re-centres with damped Newton steps, loosely while the duality gap is
    above its tolerance and tightly after.

    Raises SolverError, and returns no ellipsoid, when the duality gap
    does not close within the Newton iteration cap, when a Newton system
    is singular or indefinite even after regularisation, or when the KKT
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
    eps_contact = _CONTACT_TOL * float(b.max())

    theta = np.zeros(q + n)
    theta[:q][sym.diag] = 0.9 * float(b.min())
    # start weight: t minimising |t grad f0 + grad phi| in the norm of the
    # barrier's inverse Hessian H^-1 at the start point (Boyd & Vandenberghe
    # 11.3.1), and never below t = 1
    tensors = _barrier_tensors(sym, A, b)
    point = _barrier_value(sym, A, b, theta, 0.0)
    rhs, H = _barrier_state(sym, tensors, point, 0.0)
    step, _, tangent = _newton_step(H, rhs)
    t = max(1.0, float(rhs[1] @ step) / float(rhs[1] @ tangent))
    point = (point[0] - t * point[1],) + point[1:]
    iterations = stages = 0
    evaluations = 1
    decrement = math.inf
    det_trace = []
    while True:
        stages += 1
        gap = 2.0 * m / t
        tolerance = _INNER_TOL if gap > _GAP_TOL else _DECREMENT_TOL
        while True:
            value = point[0]
            rhs, H = _barrier_state(sym, tensors, point, t)
            step, dec2, tangent = _newton_step(H, rhs)
            decrement = math.sqrt(dec2)
            iterations += 1
            if dec2 / 2.0 <= tolerance or iterations > _MAX_NEWTON:
                break
            slope = -dec2
            alpha = 1.0
            accepted = False
            while alpha > 1e-13:
                trial = theta + alpha * step
                cand = _barrier_value(sym, A, b, trial, t)
                evaluations += 1
                if cand is not None and cand[0] <= value + 0.25 * alpha * slope:
                    theta, point = trial, cand
                    progress = value - cand[0]
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted or progress <= 1e-13 * (1.0 + abs(value)):
                break   # numerical noise floor for this stage
        det_trace.append(math.exp(point[1]) * scale ** n)
        if gap <= _GAP_TOL or iterations >= _MAX_NEWTON:
            B, d = sym.to_matrix(theta[:q]), theta[q:]
            kkt, violation = _kkt_certificate(A, b, B, d, eps_contact)
            # facets just off the optimum keep multipliers ~ 1/(t slack), so
            # past the gap tolerance the stages go on while the certificate
            # is above _KKT_TARGET, down to a duality gap of _GAP_FLOOR
            if kkt <= _KKT_TARGET or gap <= _GAP_FLOOR or iterations >= _MAX_NEWTON:
                break
        # predictor: the centre theta(t) moves about linearly in 1/t, with
        # d theta / d(1/t) = t^2 H^-1 grad f0, f0 = -log det B
        t_next = t * _T_FACTOR
        tangent *= -(1.0 - 1.0 / _T_FACTOR) * t
        value = point[0] - (t_next - t) * point[1]     # Phi at t_next
        point = (value,) + point[1:]
        alpha = 1.0
        while alpha > _PREDICTOR_MIN:
            trial = theta + alpha * tangent
            cand = _barrier_value(sym, A, b, trial, t_next)
            evaluations += 1
            if cand is not None and cand[0] < value:
                theta, point = trial, cand
                break
            alpha *= 0.5
        t = t_next

    if gap > 1e-8 or violation > 1e-9 or not kkt <= _KKT_TOL:
        raise SolverError(
            f"no certified optimum after {iterations} Newton iterations: "
            f"duality gap {gap:.3e}, KKT residual {kkt:.3e}, "
            f"violation {violation:.3e}")
    ellipsoid = Ellipsoid(scale * B, scale * d)
    if full_output:
        info = SolveInfo(newton_iterations=iterations, duality_gap=gap,
                         newton_decrement=decrement, kkt_residual=kkt,
                         det_trace=det_trace, stages=stages,
                         value_evaluations=evaluations)
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
    weights_row = np.where(sym.diag, 1.0, math.sqrt(2.0))
    rows = [(sym.sym_entries(U, U) * weights_row).T]
    rhs = [np.where(sym.diag, 1.0, 0.0) * weights_row]
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
