"""Reference bodies and seeded random generators used by tests, demos, CLI."""
from __future__ import annotations

import numpy as np

from .bodies import AffineMap, HPolytope, VPolytope, _check_bounded
from .errors import VolisoError

_MAX_RETRIES = 10   # fresh draws random_polytope makes before it gives up


def cube(n: int, half_width: float = 1.0) -> HPolytope:
    """The cube [-w, w]^n as an H-polytope."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.full(2 * n, float(half_width)), validate=False)


def cube_vertices(n: int, half_width: float = 1.0) -> VPolytope:
    corners = np.array(np.meshgrid(*([[-half_width, half_width]] * n),
                                   indexing="ij")).reshape(n, -1).T
    return VPolytope(corners)


def cross_polytope(n: int, radius: float = 1.0) -> VPolytope:
    """conv{+-r e_i}, the unit ball of l_1 scaled by r."""
    return VPolytope(np.vstack([radius * np.eye(n), -radius * np.eye(n)]))


def simplex_contact_directions(n: int) -> np.ndarray:
    """n+1 unit vectors in R^n with pairwise inner product -1/n.

    These are the outward facet normals of the regular simplex whose
    inscribed ball is the unit ball; they sum to zero.
    """
    # project the standard basis of R^{n+1} onto the hyperplane orthogonal
    # to (1,..,1), express in an orthonormal basis of that hyperplane
    ones = np.ones(n + 1) / np.sqrt(n + 1)
    Q = np.linalg.qr(np.eye(n + 1) - np.outer(ones, ones))[0][:, :n]
    W = (np.eye(n + 1) - np.outer(ones, ones)) @ Q
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return W


def regular_simplex(n: int, inradius: float = 1.0) -> HPolytope:
    """Regular n-simplex whose inscribed ball is inradius * unit ball."""
    W = simplex_contact_directions(n)
    return HPolytope(W, np.full(n + 1, float(inradius)), validate=False)


def regular_polygon(k: int, circumradius: float = 1.0) -> VPolytope:
    ang = 2.0 * np.pi * np.arange(k) / k
    return VPolytope(circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def lp_ball_polygon(p: float, k: int = 512) -> VPolytope:
    """Inscribed polygonal approximation of the planar l_p unit ball."""
    ang = 2.0 * np.pi * (np.arange(k) + 0.5) / k
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    gauges = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
    return VPolytope(pts / gauges[:, None])


def random_polytope(n: int, rng, symmetric: bool = False) -> HPolytope:
    """Random bounded H-polytope with facets tangent to a random sphere.

    Draws between 3n and 6n half-spaces with uniformly random unit normals,
    all tangent to a sphere of random radius; the symmetric variant mirrors
    each half-space through the origin.  Unbounded draws are rejected, up to
    ``_MAX_RETRIES`` fresh draws; the test is a rank check and one NNLS solve
    (``bodies._check_bounded``), so a draw needs no LP.
    """
    rng = np.random.default_rng(rng)
    for _ in range(_MAX_RETRIES):
        m = int(rng.integers(3 * n, 6 * n + 1))
        normals = rng.standard_normal((m, n))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        radius = float(rng.uniform(0.5, 2.0))
        if symmetric:
            normals = np.vstack([normals, -normals])
        if not _check_bounded(normals):
            continue
        offsets = np.full(normals.shape[0], radius)
        return HPolytope(normals, offsets, validate=False)
    raise VolisoError(f"no bounded draw after {_MAX_RETRIES} retries")


def random_affine_map(n: int, rng, max_shift: float = 0.0) -> AffineMap:
    """Random well-conditioned invertible map, optionally with a shift.

    The shift is drawn in source coordinates (t = L s with |s| <= max_shift),
    so the image of any body whose inradius exceeds ``max_shift`` still
    contains the origin.
    """
    rng = np.random.default_rng(rng)
    L = rng.standard_normal((n, n))
    u, sv, vt = np.linalg.svd(L)
    L = (u * np.clip(sv, 0.3, 3.0)) @ vt
    if max_shift:
        s = rng.standard_normal(n)
        s *= max_shift * rng.uniform() / np.linalg.norm(s)
        return AffineMap(L, L @ s)
    return AffineMap(L, np.zeros(n))


def random_rotation(n: int, rng) -> np.ndarray:
    rng = np.random.default_rng(rng)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q
