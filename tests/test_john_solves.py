"""Inscribed-ellipsoid solves compared bit for bit with stored ones.

``data/john_solves.expected`` holds one line per body: its name, the
solve's ``newton_iterations``, then every entry of the ellipsoid's shape B
and centre d as ``float.hex``.  The bodies
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

The ``value_evaluations`` column went when the centring stopped comparing
barrier values and the certificate began to read the iterate's own
multipliers instead of an NNLS fit; no other entry moved.  The tests at
the end check that certificate on these bodies and on two hard ones.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from voliso import AffineMap, apply_affine, john, max_inscribed_ellipsoid
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
    return f"{name} {info.newton_iterations} {B} {d}"


def _expected():
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 1)[0]: line for line in lines}


def test_every_case_is_stored():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_solve_matches_stored(name):
    assert _line(name) == _expected()[name]


def _draw(n, seed, index):
    """Draw ``index`` (0-based) of ``random_polytope(n, default_rng(seed))``."""
    rng = np.random.default_rng(seed)
    return [random_polytope(n, rng) for _ in range(index + 1)][-1]


# the hard bodies of test_john.py that CASES does not hold
CERTIFIED = {**CASES,
             "elongated-2": lambda: _draw(2, 1813316532, 2),
             "flat-optimum-4": lambda: _draw(4, 20_260_004, 123)}


def _nnls_certificate(P, E):
    """The KKT residual of the best nonnegative multipliers on the facets
    within 1e-6 of E, with complementarity and violation, on P scaled as the
    solve scales it: the certificate before it read the iterate's own."""
    scale = 2.0 ** math.frexp(float(P.offsets.max()))[1]
    A, b = P.normals, P.offsets / scale
    B, d = E.shape / scale, E.center / scale
    n = P.dim
    rows, cols = np.tril_indices(n)
    weights = np.where(rows == cols, 1.0, math.sqrt(2.0))
    V = A @ B
    vnorm = np.linalg.norm(V, axis=1)
    slack = b - A @ d - vnorm
    active = slack <= 1e-6 * b.max()
    U, Aa = V[active] / vnorm[active, None], A[active]
    shape = 0.5 * (U[:, rows] * Aa[:, cols] + U[:, cols] * Aa[:, rows]) * weights
    rhs = np.concatenate([np.linalg.inv(B)[rows, cols] * weights, np.zeros(n)])
    mu, residual = nnls(np.hstack([shape, Aa]).T, rhs)
    return max(residual, np.abs(mu * slack[active]).sum(), -slack.min())


def _solve_with_certificate_inputs(P, monkeypatch):
    """The solve of P with the arguments of its last _kkt_certificate call."""
    calls = []
    certificate = john._kkt_certificate

    def spy(*args):
        calls.append(args)
        return certificate(*args)

    monkeypatch.setattr(john, "_kkt_certificate", spy)
    E, info = max_inscribed_ellipsoid(P, full_output=True)
    return E, info, calls[-1]


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_certificate_agrees_with_nnls_fit(name, monkeypatch):
    # the iterate's own multipliers certify every body, and so does the
    # best nonnegative fit at the returned ellipsoid
    P = CERTIFIED[name]()
    E, info, args = _solve_with_certificate_inputs(P, monkeypatch)
    assert info.kkt_residual == john._kkt_certificate(*args) <= 1e-8
    assert _nnls_certificate(P, E) <= 1e-8


@pytest.mark.parametrize("name", ["general-3", "symmetric-4", "elongated-2",
                                  "flat-optimum-4"])
def test_certificate_sees_a_moved_shape(name, monkeypatch):
    # the same multipliers at B (1 + 1e-4) leave stationarity off by about
    # 1e-4: the certificate is not the gap alone
    P = CERTIFIED[name]()
    _, _, (sym, A, b, point, lam, gap) = _solve_with_certificate_inputs(P, monkeypatch)
    L, g, theta = point
    moved = np.concatenate([theta[:sym.q] * (1.0 + 1e-4), theta[sym.q:]])
    assert john._kkt_certificate(sym, A, b, (L * math.sqrt(1.0 + 1e-4), g, moved),
                                 lam, gap) > 1e-6
