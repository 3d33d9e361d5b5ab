"""Exact measures from the facets of a polytope.

A simple VPolytope (every vertex on n facets) measures its facets by
Lasserre's recursion on the vertex-facet incidence; any other body sums the
simplices of qhull's triangulation of its vertices, each on the facet that
all its vertices lie on.  These tests pin bodies on which a qhull hull of the
vertices fails (all simple), non-simple bodies with closed-form measures and
their affine images, the closure guard on both branches, that simple H-born
bodies build no hull, and a seeded survey of simple bodies against qhull and
against a reference recursion that takes each face's least-norm point from a
QR factorization.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from voliso import (DegenerateBodyError, HPolytope, VPolytope, apply_affine,
                    bodies, john_position, polytope_volume, projection_area,
                    surface_area, vrep_from_hrep, write_polytope)
from voliso.cli import main
from voliso.shapes import (cross_polytope, cube, random_affine_map,
                           random_polytope)


def _off_centre_body_5():
    """Body 5 of a survey that drew, per body, a symmetric 5-D polytope, an
    affine map, a facet index and a vertex index from one generator."""
    rng = np.random.default_rng([5, True, 7070])
    for _ in range(5):
        P = random_polytope(5, rng, symmetric=True)
        random_affine_map(5, rng)
        rng.integers(P.num_facets)
        rng.integers(vrep_from_hrep(P).num_vertices)
    return random_polytope(5, rng, symmetric=True)


def _john_body_29():
    """The John image of body 29 of the n = 6 symmetric sweep pattern."""
    rng = np.random.default_rng(20_261_006)
    for _ in range(29):
        random_polytope(6, rng, symmetric=True)
    return john_position(random_polytope(6, rng, symmetric=True))[0]


# bodies whose vertices lie in large groups of exactly coplanar points, on
# which qhull's ConvexHull of the vertices fails (QH6271 or QH7086), with
# their facet counts, which confirm that the same bodies are drawn
FAILED_IN_QHULL = {
    "raw-6-2015": (lambda: random_polytope(6, 2015), 33),
    "raw-6-symmetric-2007": (lambda: random_polytope(6, 2007, symmetric=True), 50),
    "raw-6-symmetric-2012": (lambda: random_polytope(6, 2012, symmetric=True), 68),
    "raw-6-symmetric-2014": (lambda: random_polytope(6, 2014, symmetric=True), 50),
    "raw-6-symmetric-2017": (lambda: random_polytope(6, 2017, symmetric=True), 52),
    "raw-5-symmetric-survey-5": (_off_centre_body_5, 50),
    "john-6-symmetric-29": (_john_body_29, 58),
    "raw-6-1329424273467315199": (lambda: random_polytope(6, 1329424273467315199), 27),
}


@pytest.mark.parametrize("name", sorted(FAILED_IN_QHULL))
def test_body_that_failed_in_qhull(name):
    make, facets = FAILED_IN_QHULL[name]
    P = make()
    assert P.num_facets == facets
    V = vrep_from_hrep(P)
    normals, offsets = V._equations[:, :-1], -V._equations[:, -1]
    areas = V._facet_areas
    assert np.linalg.norm(areas @ normals) <= 1e-12 * areas.sum()
    # the volume as cones from the vertex centroid instead of the origin
    center = V.vertices.mean(axis=0)
    from_center = (offsets - normals @ center) @ areas / P.dim
    assert from_center == pytest.approx(polytope_volume(V), rel=1e-12)
    assert np.all(V.vertices @ P.normals.T <= P.offsets + 1e-9)


def _signs(n):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def _cross_polytope(n):
    return HPolytope(_signs(n), np.ones(2 ** n))


def _twenty_four_cell():
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in _signs(2):
            row = np.zeros(4)
            row[[i, j]] = si, sj
            rows.append(row)
    return HPolytope(rows, np.ones(len(rows)))


def _twenty_four_cell_vertices():
    return VPolytope(np.vstack([np.eye(4), -np.eye(4), 0.5 * _signs(4)]))


def _octahedron_squared():
    rows = np.zeros((16, 6))
    rows[:8, :3] = _signs(3)
    rows[8:, 3:] = _signs(3)
    return HPolytope(rows, np.ones(16))


def _octahedron_squared_vertices():
    axes = np.vstack([np.eye(3), -np.eye(3)])
    return VPolytope([np.concatenate([u, w]) for u in axes for w in axes])


def _pyramid(n):
    # apex e_n over the base [-2, 2]^(n-1) at x_n = -1
    rows = [np.eye(n)[n - 1] + s * np.eye(n)[i] for i in range(n - 1) for s in (-1, 1)]
    return HPolytope(rows + [-np.eye(n)[n - 1]], np.ones(2 * n - 1))


def _pyramid_vertices(n):
    base = np.hstack([2.0 * _signs(n - 1), -np.ones((2 ** (n - 1), 1))])
    return VPolytope(np.vstack([base, np.eye(n)[n - 1]]))


def _bipyramid(n, h):
    # apexes +-h e_n over the base [-1, 1]^(n-1) at x_n = 0
    rows = [s * np.eye(n)[i] + t / h * np.eye(n)[n - 1]
            for i in range(n - 1) for s in (-1, 1) for t in (-1, 1)]
    return HPolytope(rows, np.ones(4 * (n - 1)))


def _bipyramid_vertices(n, h):
    base = np.hstack([_signs(n - 1), np.zeros((2 ** (n - 1), 1))])
    return VPolytope(np.vstack([base, h * np.eye(n)[n - 1], -h * np.eye(n)[n - 1]]))


def _cube_touched_and_repeated():
    # x + y + z <= 3 touches the cube at (1, 1, 1); row 0 appears twice
    P = cube(3)
    rows = np.vstack([P.normals, np.ones(3), P.normals[0]])
    return HPolytope(rows, np.concatenate([P.offsets, [3.0, 1.0]]))


NON_SIMPLE = {
    **{f"cross-{n}-h": (lambda n=n: _cross_polytope(n), 2.0 ** n / math.factorial(n))
       for n in range(3, 7)},
    **{f"cross-{n}-v": (lambda n=n: cross_polytope(n), 2.0 ** n / math.factorial(n))
       for n in range(3, 7)},
    # far from the origin, which the recursion must not measure from
    "cross-5-v-moved-100": (lambda: VPolytope(cross_polytope(5).vertices + 100.0),
                            2.0 ** 5 / math.factorial(5)),
    "24-cell-h": (_twenty_four_cell, 2.0),
    "24-cell-v": (_twenty_four_cell_vertices, 2.0),
    "octahedron-squared-h": (_octahedron_squared, 16.0 / 9.0),
    "octahedron-squared-v": (_octahedron_squared_vertices, 16.0 / 9.0),
    **{f"pyramid-{n}-h": (lambda n=n: _pyramid(n), 2.0 * 4.0 ** (n - 1) / n)
       for n in range(3, 7)},
    **{f"pyramid-{n}-v": (lambda n=n: _pyramid_vertices(n), 2.0 * 4.0 ** (n - 1) / n)
       for n in range(3, 7)},
    # neither simple nor simplicial for n >= 4: every vertex is on 2(n - 1)
    # facets, each facet a pyramid over an (n - 2)-cube
    **{f"bipyramid-{n}-h": (lambda n=n: _bipyramid(n, 0.75), 2.0 ** n * 0.75 / n)
       for n in range(3, 7)},
    **{f"bipyramid-{n}-v": (lambda n=n: _bipyramid_vertices(n, 0.75), 2.0 ** n * 0.75 / n)
       for n in range(3, 7)},
    "cube-touched-repeated-h": (_cube_touched_and_repeated, 8.0),
}


def _body(name):
    body = NON_SIMPLE[name][0]()
    return vrep_from_hrep(body) if isinstance(body, HPolytope) else body


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_non_simple_volume(name):
    assert polytope_volume(_body(name)) == pytest.approx(NON_SIMPLE[name][1], rel=1e-12)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("kind", ["h", "v"])
def test_cross_polytope_area(n, kind):
    # 2^n regular simplex facets, each of area sqrt(n) / (n - 1)!
    expected = 2.0 ** n * math.sqrt(n) / math.factorial(n - 1)
    area = surface_area(_body(f"cross-{n}-{kind}"))
    assert area == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(NON_SIMPLE))
def test_other_heights_give_the_same_measures(name):
    # an affine image x -> L x + t puts every facet at other heights and
    # normals, and qhull triangulates it afresh; its volume must be
    # |det L| |K| and its area |det L| sum |F_i| |L^-T a_i|
    body = _body(name)
    T = random_affine_map(body.dim, np.random.default_rng([22, body.dim]), max_shift=0.25)
    image = VPolytope(T(body.vertices))
    scale = abs(np.linalg.det(T.linear))
    stretch = np.linalg.norm(np.linalg.solve(T.linear.T, body._equations[:, :-1].T), axis=0)
    assert polytope_volume(image) == pytest.approx(scale * polytope_volume(body), rel=1e-13)
    assert surface_area(image) == pytest.approx(scale * stretch @ body._facet_areas,
                                                rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.floats(0.05, 20.0), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_affine_pyramids_and_bipyramids_keep_their_closed_forms(n, h, double, seed):
    # apex h e_n over [-1, 1]^(n-1) at x_n = 0, or apexes +-h e_n
    base = np.hstack([_signs(n - 1), np.zeros((2 ** (n - 1), 1))])
    apexes = h * np.eye(n)[n - 1] * ([[1.0], [-1.0]] if double else [[1.0]])
    T = random_affine_map(n, np.random.default_rng(seed), max_shift=1.0)
    image = VPolytope(T(np.vstack([base, apexes])))
    expected = len(apexes) * 2.0 ** (n - 1) * h / n * abs(np.linalg.det(T.linear))
    assert polytope_volume(image) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n, seed, drop",
                         [(3, 1, 0), (4, 2, 5), (5, 3, -1), (6, 4, 17)])
def test_closure_guard_catches_a_dropped_vertex(n, seed, drop, monkeypatch):
    real = bodies.HalfspaceIntersection

    class DropsOneVertex:
        def __init__(self, halfspaces, interior):
            hs = real(halfspaces, interior)
            keep = np.arange(len(hs.intersections)) != drop % len(hs.intersections)
            self.intersections = hs.intersections[keep]
            self.dual_facets = [f for f, k in zip(hs.dual_facets, keep) if k]

    monkeypatch.setattr(bodies, "HalfspaceIntersection", DropsOneVertex)
    V = vrep_from_hrep(random_polytope(n, seed))
    with pytest.raises(DegenerateBodyError, match="residual"):
        polytope_volume(V)


def _no_hull(*args, **kwargs):
    raise AssertionError("a ConvexHull was built")


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_simple_h_born_body_builds_no_hull(seed, monkeypatch):
    monkeypatch.setattr(bodies, "ConvexHull", _no_hull)
    V = vrep_from_hrep(random_polytope(5, seed))
    hull = ConvexHull(V.vertices)     # scipy's own, not the patched name
    assert polytope_volume(V) == pytest.approx(hull.volume, rel=1e-12)
    assert surface_area(V) == pytest.approx(hull.area, rel=1e-12)
    theta = np.random.default_rng(seed).standard_normal(5)
    theta /= np.linalg.norm(theta)
    basis = np.linalg.svd(np.eye(5) - np.outer(theta, theta))[0][:, :4]
    assert projection_area(V, theta) == pytest.approx(
        ConvexHull(V.vertices @ basis).volume, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, vertex", [(2, 0), (3, 1), (4, 6), (5, -1), (6, 20)])
def test_closure_guard_catches_dependent_normals(n, vertex, monkeypatch):
    # one vertex of the cube is listed on two opposite facets, so some face
    # has a_j in the span of its prefix's normals and a zero Gram-Schmidt
    # residual; that must end in the closure guard, not a LinAlgError or a
    # divide warning
    real = bodies.HalfspaceIntersection

    class OppositeFacets:
        def __init__(self, halfspaces, interior):
            hs = real(halfspaces, interior)
            self.intersections = hs.intersections
            self.dual_facets = [list(f) for f in hs.dual_facets]
            on = self.dual_facets[vertex % len(self.dual_facets)]
            on[1] = (on[0] + n) % (2 * n)     # rows i and i + n of cube(n) are opposite

    monkeypatch.setattr(bodies, "HalfspaceIntersection", OppositeFacets)
    V = vrep_from_hrep(cube(n))
    with pytest.raises(DegenerateBodyError, match="residual"):
        polytope_volume(V)


def _gaussian_hull_6(draw):
    """Draw ``draw`` (0-based) of the 6-D hulls of 8..24 centred Gaussian
    points of ``default_rng([79, 6])``, as in TestHullRoundTrip."""
    rng = np.random.default_rng([79, 6])
    for _ in range(draw + 1):
        pts = rng.standard_normal((rng.integers(8, 25), 6))
    return pts - pts.mean(axis=0)


@pytest.mark.parametrize("draw", [2, 23])
def test_hulls_with_vertices_on_many_facets_are_measured(draw, tmp_path, capsys):
    # these hulls have vertices on up to 84 and 196 facets, where splitting
    # each such vertex into simple ones used to fail in qhull (QH6297, QH7088)
    pts = _gaussian_hull_6(draw)
    V, hull = VPolytope(pts), ConvexHull(pts)
    assert polytope_volume(V) == pytest.approx(hull.volume, rel=1e-12)
    assert surface_area(V) == pytest.approx(hull.area, rel=1e-12)
    path = tmp_path / "hull.json"
    write_polytope(path, V)
    assert main(["petty", "--input", str(path), "--samples", "100"]) == 0
    assert capsys.readouterr().err == ""


class _FailingHull:
    def __init__(self, points):
        raise QhullError("QH6154 qhull precision error: initial simplex is flat")


def test_qhull_failure_in_the_facet_areas_is_a_degenerate_body(tmp_path, capsys,
                                                               monkeypatch):
    # an H-born body builds no hull before its facet areas, so the failing
    # hull is the triangulation of this non-simple body
    path = tmp_path / "cross.json"
    write_polytope(path, _cross_polytope(4))
    monkeypatch.setattr(bodies, "ConvexHull", _FailingHull)
    V = vrep_from_hrep(_cross_polytope(4))
    with pytest.raises(DegenerateBodyError, match="qhull precision failure: QH6154"):
        polytope_volume(V)
    assert main(["petty", "--input", str(path), "--samples", "100"]) == 2
    assert "qhull precision failure" in capsys.readouterr().err


@pytest.mark.parametrize("name, drop", [("cross-3-v", 0), ("pyramid-4-h", 4),
                                        ("24-cell-h", 17), ("bipyramid-5-v", -1),
                                        ("pyramid-6-v", 2)])
def test_closure_guard_catches_a_dropped_simplex(name, drop, monkeypatch):
    # simplex ``drop`` has positive area; qhull's triangulation of a
    # non-simplicial facet also holds flat simplices, which measure 0
    body = _body(name)
    real = bodies.ConvexHull

    class DropsOneSimplex:
        def __init__(self, points):
            simplices = real(points).simplices
            self.simplices = np.delete(simplices, drop % len(simplices), axis=0)

    monkeypatch.setattr(bodies, "ConvexHull", DropsOneSimplex)
    with pytest.raises(DegenerateBodyError, match="residual"):
        polytope_volume(body)


def _least_norm_by_qr(normals, offsets, faces):
    """A^+ and A^+ b for the facet rows A of each face: A^-1 at a vertex,
    else Q R^-T from A^T = QR."""
    A = normals[faces]
    if faces.shape[1] == normals.shape[1]:
        pinv = np.linalg.inv(A)
    else:
        Q, R = np.linalg.qr(A.transpose(0, 2, 1))
        pinv = Q @ np.linalg.inv(R).transpose(0, 2, 1)
    return pinv, (pinv @ offsets[faces][..., None])[..., 0]


def _lasserre_by_qr(normals, offsets, faces):
    """Reference facet areas: Lasserre's recursion with h = <p_{T+j} - p_T, u>,
    u the unit normal to T + j in T (column j of A_{T+j}^+), and every
    least-norm point and pseudo-inverse taken from its own factorization."""
    m, n = normals.shape
    measure = np.ones(len(faces))
    pinv, point = _least_norm_by_qr(normals, offsets, faces)
    for k in range(n, 1, -1):
        keep = np.array([[c for c in range(k) if c != d] for d in range(k)])
        links = faces[:, keep].reshape(-1, k - 1)
        _, first, parent = np.unique(links @ m ** np.arange(k - 2, -1, -1),
                                     return_index=True, return_inverse=True)
        u = pinv.transpose(0, 2, 1).reshape(-1, n)
        child = np.repeat(point, k, axis=0)
        faces = links[first]
        pinv, point = _least_norm_by_qr(normals, offsets, faces)
        h = ((child - point[parent]) * u).sum(axis=1) / np.linalg.norm(u, axis=1)
        measure = np.bincount(parent, h * np.repeat(measure, k)) / (n - k + 1)
    return np.bincount(faces[:, 0], measure, minlength=m)


# bodies per (n, symmetric), each measured in John position and as the raw
# image under a random affine map with a shift; qhull's hull of the vertices
# takes 0.6-2 s per 6-D body, which sets the small counts there
SURVEY_COUNTS = {2: 4, 3: 4, 4: 4, 5: 2, 6: 1}


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n", sorted(SURVEY_COUNTS))
def test_survey_against_qhull_and_the_qr_recursion(n, symmetric):
    rng = np.random.default_rng([2026, n, symmetric])
    for _ in range(SURVEY_COUNTS[n]):
        P = random_polytope(n, rng, symmetric=symmetric)
        image = apply_affine(P, random_affine_map(n, rng, max_shift=0.25))
        for body in (john_position(P)[0], image):
            V = vrep_from_hrep(body)
            hull = ConvexHull(V.vertices)
            assert polytope_volume(V) == pytest.approx(hull.volume, rel=1e-12)
            assert surface_area(V) == pytest.approx(hull.area, rel=1e-12)
            # the random bodies are simple: every vertex is on n facets
            assert np.all(V._incidence.sum(axis=1) == n)
            normals, center = V._equations[:, :-1], V.vertices.mean(axis=0)
            faces = np.nonzero(V._incidence)[1].reshape(-1, n)
            reference = _lasserre_by_qr(
                normals, -V._equations[:, -1] - normals @ center, faces)
            assert np.abs(V._facet_areas - reference).max() <= 1e-12 * reference.sum()
