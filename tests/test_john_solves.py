"""Inscribed-ellipsoid solves compared bit for bit with stored ones.

``data/john_solves.expected`` holds one line per body: its name, the
solve's ``newton_iterations``, ``value_evaluations`` and ``stages``, then
every entry of the ellipsoid's shape B and centre d as ``float.hex``.  The
bodies cover n = 2..6, general and symmetric, bodies under a random affine
map, a body moved to 1e-9 from a facet, ``cube(3)`` and
``regular_simplex(4)``.  The file is printed by ``_line(name)`` for every
case.  It was first written before the Newton step's numpy calls were
trimmed, and pinned that the trimmed step did the same arithmetic.  It was
rewritten by the commit that starts the barrier path at its most central
weight, re-centres loosely until the duality gap reaches its tolerance
and factors B and the Newton system by Cholesky: those change the
iterates, so every line moved.  That commit argued for the new bits by an accuracy survey (1,600
solves against solves run down to a duality gap of 1e-13); here every
entry of B and d moved by at most 8.8e-10 (``symmetric-3``) and every
Newton count fell.  It was rewritten again when the Newton step began to
take the barrier's derivatives from per-body tensors built once per
solve: the same iterates in exact arithmetic, rounded in another order.
Every line but ``cube-3`` moved, by at most 1.4e-13 in an entry of B or d
(``general-3``); every Newton and stage count stayed, and only two counts
of value evaluations moved (``general-3`` 47 -> 45, ``regular-simplex-4``
25 -> 26).  A change that moves these bits changes the solver's
results: it must be argued for on its own, not hidden by rewriting the
file.
"""
from pathlib import Path

import numpy as np
import pytest

from voliso import AffineMap, apply_affine, max_inscribed_ellipsoid
from voliso.shapes import cube, random_affine_map, random_polytope, regular_simplex

EXPECTED = Path(__file__).parent / "data" / "john_solves.expected"


def _moved(n, seed, symmetric=False):
    P = random_polytope(n, seed, symmetric=symmetric)
    return apply_affine(P, random_affine_map(n, seed, max_shift=0.3))


def _near_facet(n, seed, depth):
    # the facets of a random polytope touch one sphere about the origin, so
    # the foot point of facet 0 is on the body and shifting the origin
    # towards it leaves every other slack at least ``depth``
    P = random_polytope(n, seed)
    shift = (P.offsets[0] - depth) * P.normals[0]
    return apply_affine(P, AffineMap(np.eye(n), -shift))


CASES = {
    **{f"general-{n}": (lambda n=n: random_polytope(n, 100 + n)) for n in range(2, 7)},
    **{f"symmetric-{n}": (lambda n=n: random_polytope(n, 200 + n, symmetric=True))
       for n in range(2, 7)},
    "moved-3": lambda: _moved(3, 303),
    "moved-5": lambda: _moved(5, 305),
    "moved-symmetric-4": lambda: _moved(4, 304, symmetric=True),
    "near-facet-4": lambda: _near_facet(4, 404, 1e-9),
    "cube-3": lambda: cube(3),
    "regular-simplex-4": lambda: regular_simplex(4),
}


def _line(name):
    E, info = max_inscribed_ellipsoid(CASES[name](), full_output=True)
    B = ",".join(float(x).hex() for x in E.shape.ravel())
    d = ",".join(float(x).hex() for x in E.center)
    return (f"{name} {info.newton_iterations} {info.value_evaluations} "
            f"{info.stages} {B} {d}")


def _expected():
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 1)[0]: line for line in lines}


def test_every_case_is_stored():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_solve_matches_stored(name):
    assert _line(name) == _expected()[name]
