"""Seeded estimates over several batches, compared with stored reprs.

The CLI golden reports use one batch of samples.  These cases use sample
counts of 1, one full batch, one batch plus one sample and three batches
plus a remainder, so they pin the variates and the per-batch float sums of
every estimator across batch boundaries.  ``data/batched_estimates.expected``
holds one ``name repr(estimate)`` line per case, and every estimate must
reproduce it exactly, whatever the thread count.

The file was re-pinned when batch k >= 1 came to read its own stream,
spawned from the seed, so that batches can run on a thread pool.  Every
value of one batch (counts 1, 8193 and 65536) kept its bits; 17 of their
std_errors moved by 1-2 ulps (cauchy-8193 and cauchy-65536 by about 5e-15
relative), 14 from summing squared deviations from the batch mean instead
of E[x^2] - E[x]^2 and 3 from the rounding of the fused Brascamp-Lieb
integrand and of the one-log Student-t density.  25 of the 26 lines of more
than one batch changed with their re-drawn batches (bl-d3-indicator-65537 by
one ulp of its value); bl-d3-exponential-65537 kept its bits, as its second
batch of one sample weighs 0 on either stream.

Four ``petty-*`` lines (``petty_functional(cross_polytope(3))``) were
re-pinned when the facet areas' least-norm points came to be built by one
Gram-Schmidt step per face instead of a QR per face; the facet areas of the
octahedron moved by a few ulps (each within 5 ulps of sqrt(3) / 2 on either
path), and the reprs with them:

- petty-8193 value 1.41650187521121 -> 1.4165018752112097 (-1.6e-16),
  std_error 0.0011550138581535253 -> 0.001155013858153523 (-2.1e-15)
- petty-65536 value 1.414077638196086 -> 1.4140776381960858 (-1.6e-16),
  std_error 0.0004069622153725302 -> 0.0004069622153725308 (+1.5e-15)
- petty-65537 std_error 0.00040555599755899064 -> 0.00040555599755899145
  (+2.0e-15), value unchanged
- petty-196625 value 1.4141187144557172 -> 1.414118714455717 (-1.6e-16),
  std_error 0.00023482627946499042 -> 0.00023482627946498944 (-4.2e-15)

They were re-pinned again when non-simple bodies came to be measured on
qhull's triangulation instead of by Lasserre's recursion after splitting each
vertex on more than n facets.  The octahedron's facet areas went from -2..+5
ulps of sqrt(3) / 2 to +2 ulps on all eight facets, and the reprs moved by 1-3
ulps:

- petty-8193 value 1.4165018752112097 -> 1.41650187521121,
  std_error 0.0011550138581535227 -> 0.001155013858153523
- petty-65536 value 1.4140776381960858 -> 1.414077638196086,
  std_error 0.0004069622153725306 -> 0.0004069622153725307
- petty-65537 value 1.4140654250142641 -> 1.4140654250142644,
  std_error 0.00040555000467073696 -> 0.000405550004670737
- petty-196625 value 1.413993884629423 -> 1.4139938846294233, std_error
  unchanged

Every ``bl-*`` and ``subspace-*`` line was re-pinned when
``StudentTProposal.sample`` came to draw each coordinate as
scale Z sqrt(-2 / log(U1 U2)) instead of by ``rng.standard_t(4)``: the law
is the same, the variates are new.  53 lines changed; the ``cauchy-*`` and
``petty-*`` lines draw no Student-t variate and kept their bits.  For each
line of more than one sample, z = (new - old) / sqrt(se_old^2 + se_new^2):

=========================  ======  ======  ======  ======
case                        8193   65536   65537  196625
=========================  ======  ======  ======  ======
bl-d2-exponential           -0.80   +0.43   +1.10   +0.05
bl-d2-gaussian              -1.16   +0.27   -0.32   +0.63
bl-d2-indicator             +0.01   +0.76   +0.37   +0.66
bl-d2-table                 -1.33   +0.14   -0.29   +0.78
bl-d3-exponential           -0.19   -0.37   +1.11   -0.06
bl-d3-gaussian              -0.91   +0.69   -0.07   +0.28
bl-d3-indicator             -0.42   -0.80   -1.60   +0.68
bl-d3-table                 -0.33   +0.38   -1.39   -0.56
subspace-p1                 +0.20   +1.35   -0.51   +0.51
subspace-p1.5               +0.30   +1.63   -0.65   +0.45
subspace-p3                 +0.31   +1.80   -0.89   +0.33
=========================  ======  ======  ======  ======

The largest |z| is 1.80 (subspace-p3-65536) and the mean z^2 over the 44
lines is 0.61.  The z of one column are not independent: the four ``bl``
families of one d share their variates, and so do the three subspaces.  The
old and new estimates read the same bits through different transforms, so
they are close to independent draws.  The 11 lines of one sample have no
statistical argument (std_error is inf): 9 of them moved, bl-d3-exponential-1
and bl-d3-indicator-1 stayed at 0.0, and bl-d2-exponential-1 and
bl-d3-table-1 went to 0.0, their one sample now outside the support.

Every ``bl-*`` and ``subspace-*`` line was re-pinned again when
``StudentTProposal.sample`` came to draw each coordinate as
scale (2B - 1) / sqrt(B (1 - B)), B the median of three uniforms, and
``sample_mean`` came to draw each block of ROW_BLOCK rows just before its
integrand instead of a whole batch first: the law is the same, the variates
are new.  52 lines changed.  The ``cauchy-*`` and ``petty-*`` lines kept
their bits, since directions drawn block by block are the rows of one
whole-batch draw.  For each line of more than one sample,
z = (new - old) / sqrt(se_old^2 + se_new^2):

=========================  ======  ======  ======  ======
case                        8193   65536   65537  196625
=========================  ======  ======  ======  ======
bl-d2-exponential           +0.82   +0.14   -0.01   -0.88
bl-d2-gaussian              -0.28   +0.42   -0.55   -1.84
bl-d2-indicator             -0.39   -0.14   +0.05   -2.25
bl-d2-table                 -0.01   +0.64   -0.79   -1.68
bl-d3-exponential           +1.59   -0.26   -0.17   +0.39
bl-d3-gaussian              +0.14   -0.73   +0.55   -0.48
bl-d3-indicator             +0.02   +0.63   +2.11   -0.89
bl-d3-table                 -0.83   -0.06   +1.80   -1.51
subspace-p1                 +0.44   -0.97   +0.42   +0.08
subspace-p1.5               +0.72   -1.14   +0.20   +0.50
subspace-p3                 +1.16   -1.10   +0.02   +0.85
=========================  ======  ======  ======  ======

The largest |z| is 2.25 (bl-d2-indicator-196625) and the mean z^2 over the
44 lines is 0.84.  As before, the z of one column are not independent: the
four ``bl`` families of one d share their variates (bl-d2-*-196625 read
-0.88, -1.84, -2.25 and -1.68 together), and so do the three subspaces.  Of
the 11 lines of one sample, 8 moved; bl-d2-exponential-1,
bl-d3-exponential-1 and bl-d3-indicator-1 stayed at 0.0,
bl-d2-indicator-1 went to 0.0 and bl-d3-table-1 left it.

21 ``bl-*`` and ``subspace-*`` lines were re-pinned when
``StudentTProposal.sample`` came to return each block with its own log
density, from the 4 B (1 - B) of its draw, and ``bl_ratio`` came to sum the
Gaussian terms as -|R x|^2 over one triangular factor R and the linear
terms as one <l, x>.  The variates kept every bit; only the rounding of
each weight moved, so every move is a few ulps: the largest relative move
of a value is 1.0e-15 (bl-d3-gaussian-1, 1.0999016854420618 ->
1.0999016854420607) and of a std_error 4.1e-16 (bl-d3-exponential-8193),
against the 1e-13 that ``test_brascamp_lieb.TestWeightOracle`` allows each
weight next to the plain sum of log densities less ``logpdf``.  The
``cauchy-*`` and ``petty-*`` lines draw no Student-t variate and kept
their bits.
"""
from pathlib import Path

import numpy as np
import pytest

from voliso import (Density1D, McParams, SubspaceSpec, bl_ratio,
                    cauchy_surface_area, petty_functional,
                    subspace_volume_ratio)
from voliso.brascamp_lieb import random_system
from voliso.sampling import BATCH
from voliso.shapes import cross_polytope, cube_vertices

EXPECTED = Path(__file__).parent / "data" / "batched_estimates.expected"

# 8193 is one batch whose last block of 8192 rows would hold a single row
COUNTS = (1, 8193, BATCH, BATCH + 1, 3 * BATCH + 17)

TABLE = Density1D.table([-2.0, -1.0, 0.0, 0.5, 2.0], [0.0, 0.5, 1.0, 0.75, 0.0])
# exponentials on every vector would leave no support (the vectors span
# positively), so every other one is a Gaussian
FAMILIES = {
    "exponential": lambda i: (Density1D.exponential() if i % 2 == 0
                              else Density1D.gaussian(1.0)),
    "gaussian": lambda i: Density1D.gaussian(0.6 + 0.2 * i),
    "indicator": lambda i: Density1D.indicator(-1.0 - 0.1 * i, 1.5),
    "table": lambda i: TABLE,
}


def _bl_case(d, family, count, seed):
    system = random_system(d, 2 * d, np.random.default_rng(10 + d))
    densities = [FAMILIES[family](i) for i in range(system.size)]
    return lambda: bl_ratio(system, densities, McParams(count, seed))


def _subspace_case(p, count, seed):
    spec = SubspaceSpec(np.random.default_rng(20).standard_normal((6, 3)), p)
    return lambda: subspace_volume_ratio(spec, McParams(count, seed))


def _cases():
    cases = {}
    for k, count in enumerate(COUNTS):
        for d in (2, 3):
            for family in FAMILIES:
                cases[f"bl-d{d}-{family}-{count}"] = _bl_case(d, family, count, k)
        for p in (1.0, 1.5, 3.0):
            cases[f"subspace-p{p:g}-{count}"] = _subspace_case(p, count, 40 + k)
        cases[f"cauchy-{count}"] = (
            lambda c=count, s=50 + k: cauchy_surface_area(cube_vertices(3), McParams(c, s)))
        cases[f"petty-{count}"] = (
            lambda c=count, s=60 + k: petty_functional(cross_polytope(3), McParams(c, s)))
    return cases


CASES = _cases()


def _expected():
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines)


def test_every_case_is_stored():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_estimate_matches_stored(name):
    assert repr(CASES[name]()) == _expected()[name]
