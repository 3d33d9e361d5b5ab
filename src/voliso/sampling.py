"""Seeded Monte Carlo plumbing: proposals, batching, running estimates.

Every estimator in the package draws from a single PCG64 stream per call,
consumed sequentially in batches of a fixed size, ``BATCH``.  The variates
and the float sums over them are then fixed by the seed and the sample
count, so an estimate depends only on (seed, sample_count).

``batches`` draws the next batch on one worker thread while the caller
evaluates the current one.  The stream is still read in order, by one
thread at a time, so the contract is unchanged; each call owns its
Generator and its worker, so estimators stay safe to call concurrently.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


BATCH = 1 << 16
_STUDENT_DF = 4.0   # degrees of freedom of each StudentTProposal coordinate


def batches(rng: np.random.Generator, draw, total: int):
    """Yield ``draw(rng, size)`` for ``total`` samples in batches of BATCH,
    the last one short.

    The first batch is drawn inline.  While the caller works on batch k, one
    worker thread draws batch k+1; it is the only thread that touches ``rng``
    meanwhile, and nothing is drawn past the last batch, so the variates are
    those of drawing every batch in turn.  The worker is joined before the
    last batch is yielded, and when the caller stops early or raises; an
    error inside ``draw`` reaches the caller.
    """
    sizes = [min(BATCH, total - done) for done in range(0, total, BATCH)]
    if not sizes:
        return
    batch = draw(rng, sizes[0])
    if len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=1) as worker:
            for size in sizes[1:]:
                ahead = worker.submit(draw, rng, size)
                yield batch
                batch = ahead.result()
    yield batch


# OpenBLAS spreads a product with many rows over its own threads, which then
# take the core the worker of ``batches`` draws on.  A product of ROW_BLOCK
# rows stays on the calling thread, and each row comes out the same bits
# whichever block of two or more rows holds it.
ROW_BLOCK = 8192


def row_blocks(rows: int):
    """(lo, hi) bounds of ROW_BLOCK rows each, covering range(rows).  A last
    block of one row joins the block before it: BLAS takes a single row as a
    vector product, which may sum in another order."""
    bounds = list(range(0, rows, ROW_BLOCK)) + [rows]
    if rows > 1 and rows % ROW_BLOCK == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D ``a``, computed one row block at a time."""
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    for lo, hi in row_blocks(a.shape[0]):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def sphere_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on S^{dim-1} from normalized standard Gaussians."""
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass(frozen=True)
class StudentTProposal:
    """Product of independent Student-t coordinates, used as IS proposal.

    Polynomial tails dominate every exponentially decaying integrand that
    appears here (products of integrable densities of linear functionals,
    e^{-gauge^p} integrands), so importance weights have finite variance and
    the reported standard errors are honest.
    """

    dim: int
    scale: float = 1.5

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.scale * rng.standard_t(_STUDENT_DF, size=(count, self.dim))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        df, s = _STUDENT_DF, self.scale
        const = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                 - 0.5 * math.log(df * math.pi) - math.log(s))
        z = (x / s) ** 2 / df
        return self.dim * const - 0.5 * (df + 1) * np.log1p(z).sum(axis=1)


class RunningMean:
    """Streaming mean and standard error over batches of values."""

    def __init__(self):
        self.count = 0
        self._sum = 0.0
        self._sumsq = 0.0

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        self.count += v.size
        self._sum += float(v.sum())
        self._sumsq += float((v * v).sum())

    @property
    def mean(self) -> float:
        return self._sum / self.count

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return float("inf")
        var = max(self._sumsq / self.count - self.mean ** 2, 0.0)
        return math.sqrt(var / (self.count - 1))
