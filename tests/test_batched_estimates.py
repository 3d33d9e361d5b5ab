"""Seeded estimates over several batches, compared with stored reprs.

The CLI golden reports use one batch of samples.  These cases use sample
counts of 1, one full batch, one batch plus one sample and three batches
plus a remainder, so they pin the variates and the per-batch float sums of
every estimator across batch boundaries.  ``data/batched_estimates.expected``
holds one ``name repr(estimate)`` line per case; it was written before the
batches were drawn ahead on a worker thread, and every estimate must still
reproduce it exactly.

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
"""
from pathlib import Path

import numpy as np
import pytest

from voliso import (BodyOracle, Density1D, McParams, SubspaceSpec, bl_ratio,
                    cauchy_surface_area, mc_volume, petty_functional,
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
        cases[f"mc-volume-{count}"] = (
            lambda c=count, s=70 + k: mc_volume(BodyOracle.euclidean_ball(3), McParams(c, s)))
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
