"""Inscribed-ellipsoid solves compared bit for bit with stored ones.

``data/john_solves.expected`` holds one line per body: its name, the
solve's ``newton_iterations`` and ``value_evaluations``, then every entry
of the ellipsoid's shape B and centre d as ``float.hex``.  The bodies
cover n = 2..6, general and symmetric, bodies under a random affine map, a
body moved to 1e-9 from a facet, ``cube(3)`` and ``regular_simplex(4)``.
The file is printed by ``_line(name)`` for every case.  It was first
written before the Newton step's numpy calls were trimmed, and pinned that
the trimmed step did the same arithmetic.  It was rewritten by the commit
that starts the barrier path at its most central weight (every entry of B
and d moved by at most 8.8e-10), and again when the Newton step began to
take the barrier's derivatives from per-body tensors (at most 1.4e-13).
Both were argued for by an accuracy survey of 1,600 solves against solves
run down to a duality gap of 1e-13.

It was rewritten again when the barrier stages gave way to the
primal-dual iteration, which also dropped the ``stages`` column.  Every
line moved, by at most 9.5e-10 in an entry of B or d (``symmetric-3``).
``newton_iterations`` now counts every Newton system factored, the start
weight's included, and fell on every line (for example ``general-2``
39 -> 12, ``near-facet-4`` 84 -> 46).  On the same survey the largest
distance to the gap-1e-13 reference fell from 1.1e-8 to 1.7e-9, and
``cube-3`` and ``regular-simplex-4`` came within 5e-15 of the unit ball
instead of 4.6e-12.  A change that moves these bits changes the solver's
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
    return f"{name} {info.newton_iterations} {info.value_evaluations} {B} {d}"


def _expected():
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 1)[0]: line for line in lines}


def test_every_case_is_stored():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_solve_matches_stored(name):
    assert _line(name) == _expected()[name]
