"""Convex body representations and conversions.

Bodies live in R^n with n between 2 and 6 for the polytope types.  An
HPolytope is an intersection of half-spaces with unit outward normals and
strictly positive offsets (the origin is interior); a VPolytope is the convex
hull of an irredundant vertex list, kept with its facets; an Ellipsoid is
the image of the unit ball under ``y -> B y + d``, ``B`` symmetric positive definite.

All types are immutable values and all operations are pure functions.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import DegenerateBodyError, UnboundedBodyError

MAX_EXACT_DIM = 6

_SYM_TOL = 1e-12
_ORIGIN_DEPTH = 0.1   # least min/max offset ratio at which qhull starts from the origin


def _readonly(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def _row_norms(x):
    """Euclidean norm of each row of ``x``, its squares summed one column
    at a time: the bits of np.linalg.norm(x, axis=1), whose reduction over
    a short axis is slower."""
    total = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        total += x[:, j] * x[:, j]
    return np.sqrt(total, out=total)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n, pi^(n/2) / Gamma(1 + n/2)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(1.0 + 0.5 * n))


def chebyshev_center(normals, offsets):
    """Largest-ball center and radius for {x : <a_i, x> <= b_i}, unit a_i.

    Returns (center, radius).  Raises DegenerateBodyError when no ball of
    positive radius fits.
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(offsets, dtype=float)
    m, n = A.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([A, np.ones((m, 1))]), b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status == 3:
        raise UnboundedBodyError("unbounded body: contains arbitrarily large balls")
    if res.status != 0 or res.x[-1] <= 0:
        raise DegenerateBodyError("no interior ball of positive radius")
    return res.x[:n], float(res.x[-1])


def json_fields(data, what: str, *names):
    """The entries ``names`` of the JSON object ``data``, read from a file
    describing ``what``; ValueError when ``data`` is not a JSON object or
    lacks one of them."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"{what} has no key {name!r}")
    return [data[name] for name in names]


def json_numbers(value, what: str) -> np.ndarray:
    """``value``, read from a JSON file, as a float array; ValueError unless
    it is a number or a rectangular nest of lists of numbers.  Strings,
    objects, nulls and booleans are refused, a boolean among numbers too
    (numpy would read it as 1 or 0)."""
    try:
        array = np.asarray(value)
    except ValueError as exc:                 # a ragged nest of lists
        raise ValueError(f"{what} must be a rectangular array of numbers") from exc
    if array.dtype.kind not in "iuf" or any(
            isinstance(item, bool) for item in np.asarray(value, dtype=object).flat):
        raise ValueError(f"{what} must hold only numbers")
    return array.astype(float)


def json_number(value, what: str) -> float:
    """``value``, read from a JSON file, as a float; ValueError unless it is
    a number (a boolean is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, not {type(value).__name__}")
    return float(value)


def require_finite_rows(what: str, **columns) -> None:
    """ValueError naming the first row of the row-aligned arrays ``columns``
    that holds a NaN or an infinity: "facet row 1 is not finite: normal
    [0.0, 1.0], offset nan" for ``what="facet", normal=A, offset=b``."""
    if all(np.isfinite(a).all() for a in columns.values()):
        return
    row = int(np.argmin(np.logical_and.reduce(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in columns.values()])))
    raise ValueError(f"{what} row {row} is not finite: " + ", ".join(
        f"{name} {np.asarray(a[row]).tolist()}" for name, a in columns.items()))


def _check_bounded(normals):
    """Boundedness of {Ax <= b} with b > 0 and unit rows of A.

    Bounded iff the normals positively span R^n: rank(A) = n and some
    lambda >= 1 has sum lambda_i a_i = 0, found by one NNLS solve in
    lambda - 1 with residual at most 1e-9.  nnls raising RuntimeError at
    its iteration cap (3m) is not a verdict, so it propagates.
    """
    A = np.asarray(normals, dtype=float)
    if np.linalg.matrix_rank(A, tol=1e-10) < A.shape[1]:
        return False
    return float(nnls(A.T, -A.sum(axis=0))[1]) <= 1e-9


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Bounded intersection {x : <a_i, x> <= b_i} with unit normals a_i.

    Rows are normalized on construction, so ``offsets[i]`` is the Euclidean
    distance from the origin to facet plane i.  The origin must be interior
    (all offsets positive) and the body bounded.  Pass ``validate=False``
    only when boundedness is guaranteed by construction.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __init__(self, normals, offsets, validate: bool = True):
        A = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.asarray(offsets, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("normals and offsets shapes do not match")
        if A.shape[1] < 2:
            raise ValueError("dimension must be >= 2")
        require_finite_rows("facet", normal=A, offset=b)
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms < 1e-300):
            raise ValueError("zero normal vector")
        A = A / norms[:, None]
        b = b / norms
        if np.any(b <= 0):
            raise DegenerateBodyError("origin is not interior (offset <= 0)")
        if validate and not _check_bounded(A):
            raise UnboundedBodyError("unbounded body: normals do not positively span R^n")
        object.__setattr__(self, "normals", _readonly(A))
        object.__setattr__(self, "offsets", _readonly(b))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def num_facets(self) -> int:
        return self.normals.shape[0]

    def contains(self, points, tol: float = 1e-9):
        """Boolean membership for one point or an array of row points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.all(pts @ self.normals.T <= self.offsets + tol, axis=1)
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])

    def slacks(self, point):
        """Per-facet slack b_i - <a_i, x>; negative entries mean violation."""
        return self.offsets - self.normals @ np.asarray(point, dtype=float)


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex hull of a vertex list, canonicalized to extreme points.

    The hull must be full-dimensional.  Vertices are reduced to the extreme
    points and sorted lexicographically, so equal bodies compare equal.  Row
    i of ``_equations`` is [unit outward normal, -offset] of facet i, and
    ``_incidence[v, i]`` tells whether vertex v lies on it; both come from
    the one qhull hull of the vertices, whose simplices share their facet's
    row exactly (``vrep_from_hrep`` takes them from the dual hull).
    """

    vertices: np.ndarray

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        n = V.shape[1]
        if n < 2:
            raise ValueError("dimension must be >= 2")
        require_finite_rows("vertex", coordinates=V)
        if V.shape[0] < n + 1:
            raise DegenerateBodyError("too few vertices for a full-dimensional body")
        try:
            hull = ConvexHull(V)
        except QhullError as exc:
            if np.linalg.matrix_rank(V - V.mean(axis=0)) < n:
                raise DegenerateBodyError(
                    f"vertex set is not full-dimensional: {exc}") from exc
            raise DegenerateBodyError(f"qhull precision failure: {exc}") from exc
        order = hull.vertices[np.lexsort(V[hull.vertices].T[::-1])]
        # renumber the simplices' input indices to positions in ``order``
        position = np.empty(len(V), dtype=np.intp)
        position[order] = np.arange(len(order))
        equations, facet = np.unique(hull.equations, axis=0, return_inverse=True)
        incidence = np.zeros((len(order), len(equations)), dtype=bool)
        incidence[position[hull.simplices], facet.reshape(-1, 1)] = True
        self._keep(V[order], equations, incidence)

    def _keep(self, vertices, equations, incidence):
        object.__setattr__(self, "vertices", _readonly(vertices))
        object.__setattr__(self, "_equations", _readonly(equations))
        object.__setattr__(self, "_incidence", incidence)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @functools.cached_property
    def _facet_areas(self):
        """Facet areas |F_i|, on first use.  A simple body (every vertex on n
        facets) is measured by Lasserre's recursion about the vertex centroid
        (a far origin costs digits): least-norm points by one Gram-Schmidt
        step per face, heights as distances between them.  Any other body is
        measured on qhull's triangulation of its vertices: each simplex goes
        to the facet that all its vertices lie on, with area
        |det [edges; a_i]| / (n - 1)!.  DegenerateBodyError on
        |sum |F_i| a_i| > 1e-12 sum |F_i|, when dependent facet normals at
        some face leave NaN areas, or when qhull fails."""
        normals, n = self._equations[:, :-1], self.dim
        if (self._incidence.sum(axis=1) == n).all():
            center = self.vertices.mean(axis=0)
            faces = np.nonzero(self._incidence)[1].reshape(-1, n)
            areas = _lasserre(normals, -self._equations[:, -1] - normals @ center, faces)
        else:
            try:
                simplices = ConvexHull(self.vertices).simplices
            except QhullError as exc:
                raise DegenerateBodyError(f"qhull precision failure: {exc}") from exc
            facet = np.logical_and.reduce(self._incidence[simplices], axis=1).argmax(axis=1)
            corners = self.vertices[simplices]
            rows = np.concatenate([corners[:, 1:] - corners[:, :1], normals[facet, None]],
                                  axis=1)
            areas = np.bincount(facet, np.abs(np.linalg.det(rows)),
                                minlength=len(normals)) / math.factorial(n - 1)
        residual = np.linalg.norm(areas @ normals) / areas.sum()
        if not residual <= 1e-12:
            raise DegenerateBodyError(f"facets miss closure: residual {residual:.3g}")
        return _readonly(areas)

    def contains(self, points, tol: float = 1e-9):
        """Boolean membership for one point or an array of row points, by the
        hull's own facet rows (unrounded, and wherever the origin lies)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        E = self._equations
        inside = np.all(pts @ E[:, :-1].T + E[:, -1] <= tol, axis=1)
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])


def _lasserre(normals, offsets, faces):
    """Facet areas of the simple {<a_i, x> <= b_i} whose vertices lie on the
    facets in the rows of ``faces``, by Lasserre's recursion: face T on k
    facets measures 1/(n - k) sum_j h_{T+j} |T + j|, h_{T+j} the signed
    distance inside T from p_T to T + j, p least-norm points.

    The faces on k - 1 facets are the rows of those on k less one index,
    np.unique'd on keys.  The least-norm points are built upwards from the
    facets, p_i = b_i a_i, with no matrix factorization: a face T = T' + j,
    T' being T less its largest index j, takes one Gram-Schmidt step on an
    orthonormal basis Q of the rows of A_T', q = r / |r| with
    r = a_j - Q Q^T a_j (projected twice), and
    p_T = p_T' + (b_j - <a_j, p_T'>) / <a_j, q> q.  Since p_{T+j} - p_T lies
    in row(A_{T+j}) and in null(A_T), a line normal to T + j inside T,
    h_{T+j} = sign(b_j - <a_j, p_T>) |p_{T+j} - p_T|.  A face with |r| = 0
    (dependent facet normals) gets NaN measures, which the closure guard
    of ``VPolytope._facet_areas`` rejects.
    """
    m, n = normals.shape
    levels, parents = [faces], []
    for k in range(n, 1, -1):
        keep = np.array([[c for c in range(k) if c != d] for d in range(k)])
        links = faces[:, keep].reshape(-1, k - 1)
        _, first, parent = np.unique(links @ m ** np.arange(k - 2, -1, -1),
                                     return_index=True, return_inverse=True)
        faces = links[first]
        levels.append(faces)
        parents.append(parent)
    # levels[n - k] holds the faces on k facets; parents[n - k] maps link
    # (T, d) of such a face T, at row k * T + d, to T less its index d
    facets = faces[:, 0]
    basis = normals[facets][:, None, :]
    points = [offsets[facets, None] * normals[facets]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            prefix, j = parents[n - k][k - 1::k], levels[n - k][:, -1]
            a, Q, p = normals[j], basis[prefix], points[-1][prefix]
            r = a
            for _ in range(2):
                r = r - np.einsum("fki,fk->fi", Q, np.einsum("fki,fi->fk", Q, r))
            q = r / _row_norms(r)[:, None]
            step = offsets[j] - np.einsum("fi,fi->f", a, p)
            points.append(p + (step / np.einsum("fi,fi->f", a, q))[:, None] * q)
            basis = np.concatenate([Q, q[:, None, :]], axis=1)
    measure = np.ones(len(levels[0]))
    for k in range(n, 1, -1):
        parent, j = parents[n - k], levels[n - k].ravel()
        outer = points[k - 2][parent]
        gap = offsets[j] - np.einsum("fi,fi->f", normals[j], outer)
        inner = np.repeat(points[k - 1], k, axis=0)
        h = np.copysign(_row_norms(inner - outer), gap)
        measure = np.bincount(parent, h * np.repeat(measure, k)) / (n - k + 1)
    return np.bincount(facets, measure, minlength=m)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Image {B y + d : |y| <= 1} of the unit ball; B symmetric PD."""

    shape: np.ndarray
    center: np.ndarray

    def __init__(self, shape, center=None):
        B = np.atleast_2d(np.asarray(shape, dtype=float))
        n = B.shape[0]
        if B.shape != (n, n):
            raise ValueError("shape matrix must be square")
        if np.max(np.abs(B - B.T)) > _SYM_TOL * max(1.0, np.max(np.abs(B))):
            raise ValueError("shape matrix must be symmetric")
        B = 0.5 * (B + B.T)
        if np.linalg.eigvalsh(B)[0] <= 0:
            raise ValueError("shape matrix must be positive definite")
        d = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        if d.shape != (n,):
            raise ValueError("center has wrong dimension")
        object.__setattr__(self, "shape", _readonly(B))
        object.__setattr__(self, "center", _readonly(d))

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dim) * float(np.linalg.det(self.shape))

    def contains(self, points, tol: float = 1e-9):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.linalg.solve(self.shape, (pts - self.center).T).T
        inside = np.linalg.norm(y, axis=1) <= 1 + tol
        return inside if np.asarray(points).ndim > 1 else bool(inside[0])

    def as_map(self) -> "AffineMap":
        """The map y -> B y + d sending the unit ball onto this ellipsoid."""
        return AffineMap(self.shape, self.center)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Invertible map x -> L x + t."""

    linear: np.ndarray
    shift: np.ndarray

    def __init__(self, linear, shift=None):
        L = np.atleast_2d(np.asarray(linear, dtype=float))
        n = L.shape[0]
        if L.shape != (n, n):
            raise ValueError("linear part must be square")
        if abs(np.linalg.det(L)) < 1e-300:
            raise ValueError("linear part is singular")
        t = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
        if t.shape != (n,):
            raise ValueError("shift has wrong dimension")
        object.__setattr__(self, "linear", _readonly(L))
        object.__setattr__(self, "shift", _readonly(t))

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(np.eye(n))

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.shift

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: x -> self(other(x))."""
        return AffineMap(self.linear @ other.linear,
                         self.linear @ other.shift + self.shift)

    def inverse(self) -> "AffineMap":
        Linv = np.linalg.inv(self.linear)
        return AffineMap(Linv, -Linv @ self.shift)


def apply_affine(body, T: AffineMap):
    """Exact image of a polytope under an invertible affine map.

    For an HPolytope the normals are re-normalized to unit length with the
    offsets rescaled accordingly; the image must still contain the origin.
    """
    if isinstance(body, VPolytope):
        return VPolytope(T(body.vertices))
    if isinstance(body, HPolytope):
        # <a, x> <= b maps to <L^-T a, y> <= b + <L^-T a, t>
        Minv_t = np.linalg.inv(T.linear).T
        new_normals = body.normals @ Minv_t.T
        new_offsets = body.offsets + new_normals @ T.shift
        return HPolytope(new_normals, new_offsets, validate=False)
    raise TypeError(f"cannot apply affine map to {type(body).__name__}")


def vrep_from_hrep(P: HPolytope) -> VPolytope:
    """Enumerate the vertices of a bounded H-polytope (dimension <= 6).

    qhull needs a strictly interior point and divides by its depth below
    each facet plane.  Every HPolytope has the origin inside, so the origin
    serves, without an LP, when it is at least a tenth as deep as the
    farthest facet plane (always true in John position, where the depths
    lie between 1 and n); otherwise the Chebyshev center is solved for.
    The tenth is a margin above the shallowest depth seen to fail from the
    origin (1e-2, on two 6-D bodies), not a tuned value.  When the dual hull
    fails from the origin it is retried from the Chebyshev center, unless
    that center is the origin itself.  No primal hull is built: the
    vertices are qhull's intersections, and the facets through each come
    from the dual hull's ``dual_facets``.
    """
    if P.dim > MAX_EXACT_DIM:
        raise ValueError(f"vertex enumeration limited to dimension {MAX_EXACT_DIM}")
    origin = np.zeros(P.dim)
    if P.offsets.min() >= _ORIGIN_DEPTH * P.offsets.max():
        try:
            return _vertices_from(P, origin)
        except DegenerateBodyError:
            center = chebyshev_center(P.normals, P.offsets)[0]
            if np.array_equal(center, origin):
                raise
    else:
        center = chebyshev_center(P.normals, P.offsets)[0]
    return _vertices_from(P, center)


def _vertices_from(P: HPolytope, interior) -> VPolytope:
    halfspaces = np.hstack([P.normals, -P.offsets[:, None]])
    try:
        hs = HalfspaceIntersection(halfspaces, interior)
    except QhullError as exc:
        raise DegenerateBodyError(f"vertex enumeration failed: {exc}") from exc
    # intersection k lies on the half-spaces listed in dual_facets[k]
    incidence = np.zeros((len(hs.intersections), P.num_facets), dtype=bool)
    sizes = [len(f) for f in hs.dual_facets]
    flat = np.fromiter(itertools.chain.from_iterable(hs.dual_facets), np.intp)
    incidence[np.repeat(np.arange(len(incidence)), sizes), flat] = True
    order, used = np.lexsort(hs.intersections.T[::-1]), incidence.any(axis=0)
    body = object.__new__(VPolytope)
    body._keep(hs.intersections[order], halfspaces[used], incidence[order][:, used])
    return body


def hrep_from_vrep(V: VPolytope) -> HPolytope:
    """Facet description of the hull of a vertex list by its own qhull rows,
    unrounded, which ``vrep_from_hrep`` takes back to V (origin interior)."""
    if V.dim > MAX_EXACT_DIM:
        raise ValueError(f"facet enumeration limited to dimension {MAX_EXACT_DIM}")
    eqs = V._equations
    return HPolytope(eqs[:, :-1], -eqs[:, -1], validate=False)


def polytope_to_dict(body) -> dict:
    """File-format dictionary {"dim", "kind", "rows"} for either representation."""
    if isinstance(body, HPolytope):
        rows = np.hstack([body.normals, body.offsets[:, None]])
        return {"dim": body.dim, "kind": "H", "rows": rows.tolist()}
    if isinstance(body, VPolytope):
        return {"dim": body.dim, "kind": "V", "rows": body.vertices.tolist()}
    raise TypeError(f"not a polytope: {type(body).__name__}")


def polytope_from_dict(data: dict):
    dim, kind, rows = json_fields(data, "polytope", "dim", "kind", "rows")
    n = json_number(dim, "polytope dim")
    if not n.is_integer():
        raise ValueError(f"polytope dim must be a whole number, not {n}")
    n = int(n)
    rows = json_numbers(rows, "polytope rows")
    if kind == "H":
        if rows.ndim != 2 or rows.shape[1] != n + 1:
            raise ValueError("H rows must be [a_1..a_n, b]")
        return HPolytope(rows[:, :-1], rows[:, -1])
    if kind == "V":
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError("V rows must be vertex coordinates")
        return VPolytope(rows)
    raise ValueError(f"unknown polytope kind {kind!r}")


def write_polytope(path, body) -> None:
    """Serialize to the JSON polytope file format (round-trip exact reals)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polytope_to_dict(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_polytope(path):
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_dict(json.load(fh))
