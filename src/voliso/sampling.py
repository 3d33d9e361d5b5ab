"""Seeded Monte Carlo plumbing: proposals, batching, running estimates.

Every estimator in the package is the mean of an integrand that
``sample_mean`` takes over ``sample_count`` draws in batches of ``BATCH``,
the last one short.  Batch 0 reads the estimator's own PCG64 generator,
seeded by ``seed``, so an estimate of one batch draws the same variates as
a single stream would.  Batch k >= 1 reads a PCG64 stream of its own, seeded
by the k-th child of ``np.random.SeedSequence(seed).spawn(batches - 1)``.
``map_batches`` draws and evaluates each batch on a thread pool of
min(batches, available CPUs) threads, the integrand one ROW_BLOCK of rows
at a time, and the batches are folded into a ``RunningMean`` in batch
order, so the variates and the float sums over them are fixed by the seed
and the sample count: an estimate depends only on (seed, sample_count),
whatever the thread count.  Each call owns its generators and its pool, so
estimators stay safe to call concurrently.

``StudentTProposal`` draws a batch of ``count`` rows from its stream as three
(count, dim) arrays in turn, uniforms U1, uniforms U2 and normals Z, and
makes each t4 coordinate scale Z sqrt(-2 / log(U1 U2)): one log per
coordinate and no rejection loop, so a batch reads a fixed number of
variates.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


BATCH = 1 << 16
_STUDENT_DF = 4.0   # degrees of freedom of each StudentTProposal coordinate


def available_cpus() -> int:
    """CPUs this process may run on: the size of the pool of ``map_batches``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def map_batches(seed: int, draw, evaluate, total: int, rng=None):
    """Yield ``evaluate(draw(stream, size))`` for ``total`` samples in
    batches of BATCH, the last one short, in batch order.

    Batch 0 reads ``rng`` (default ``np.random.default_rng(seed)``), batch
    k >= 1 a generator of its own seeded by the k-th child of
    ``np.random.SeedSequence(seed).spawn(batches - 1)``.  With more than one
    batch and more than one CPU the batches run on a thread pool of
    min(batches, available_cpus()) threads, with one batch queued beyond
    the threads' own, so a thread that finishes early starts the next batch
    while the caller waits on an earlier one; the next is queued when the
    caller asks for a batch, so at most threads + 1 are not yet collected.
    Otherwise they run in turn on the calling thread, which starts no
    thread.  The pool is joined before the generator returns, and when the
    caller stops early or raises, which cancels the queued batches; an error
    inside ``draw`` or ``evaluate`` reaches the caller.
    """
    sizes = [min(BATCH, total - done) for done in range(0, total, BATCH)]
    if not sizes:
        return
    children = np.random.SeedSequence(seed).spawn(len(sizes) - 1)
    if rng is None:
        rng = np.random.default_rng(seed)

    def run(k):
        stream = rng if k == 0 else np.random.default_rng(children[k - 1])
        return evaluate(draw(stream, sizes[k]))

    workers = min(len(sizes), available_cpus())
    if workers == 1:
        yield from map(run, range(len(sizes)))
        return
    ahead = workers + 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {k: pool.submit(run, k) for k in range(min(ahead, len(sizes)))}
        try:
            for k in range(len(sizes)):
                yield futures.pop(k).result()
                if k + ahead < len(sizes):
                    futures[k + ahead] = pool.submit(run, k + ahead)
        finally:
            pool.shutdown(cancel_futures=True)


# OpenBLAS spreads a product with many rows over its own threads, which then
# take the cores the pool of ``map_batches`` works on.  A product of ROW_BLOCK
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


def sample_mean(seed: int, draw, integrand, total: int, rng=None) -> RunningMean:
    """RunningMean of ``integrand`` over the batches of ``map_batches(seed,
    draw, ..., total, rng)``; ``integrand`` maps each ``row_blocks`` block of
    a batch to one value per row, written into one array per batch."""
    def evaluate(X):
        out = np.empty(len(X))
        for lo, hi in row_blocks(len(X)):
            out[lo:hi] = integrand(X[lo:hi])
        return out

    acc = RunningMean()
    for values in map_batches(seed, draw, evaluate, total, rng):
        acc.add(values)
    return acc


def sphere_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on S^{dim-1} from normalized standard Gaussians."""
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass(frozen=True)
class StudentTProposal:
    """Product of independent Student-t coordinates, used as IS proposal.

    Each coordinate is ``scale`` times a t variate of 4 degrees of freedom,
    drawn from two uniforms and one normal (see ``sample``).  Polynomial
    tails dominate every exponentially decaying integrand that appears here
    (products of integrable densities of linear functionals, e^{-gauge^p}
    integrands), so importance weights have finite variance and the reported
    standard errors are honest.
    """

    dim: int
    scale: float = 1.5

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` rows drawn as X = scale Z sqrt(-2 / log(U1 U2)).

        A t4 variate is Z / sqrt(V) with V = chi2_4 / 4 = -log(U1 U2) / 2
        for independent uniforms U1, U2 and a standard normal Z (Devroye,
        Non-Uniform Random Variate Generation, 1986, ch. IX).  ``rng``
        fills U1, then U2, then Z, each a (count, dim) array.  The uniforms
        lie in [0, 1) as drawn, so U1 U2 < 1 and V is never 0; a zero
        uniform gives V = inf and the coordinate 0, which is finite.
        """
        shape = (count, self.dim)
        x = rng.random(shape)
        v = rng.random(shape)
        v *= x
        with np.errstate(divide="ignore"):      # log(0) = -inf: V = inf
            np.log(v, out=v)
        np.divide(-2.0 * self.scale * self.scale, v, out=v)
        np.sqrt(v, out=v)
        rng.standard_normal(out=x)
        x *= v
        return x

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at the rows of ``x``, with one log per row of
        prod_j (1 + z_j^2 / df), z = x / scale."""
        df, s = _STUDENT_DF, self.scale
        const = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                 - 0.5 * math.log(df * math.pi) - math.log(s))
        q = np.asarray(x, dtype=float) / s
        q *= q
        q /= df
        q += 1.0
        prod = q[:, 0].copy()
        for j in range(1, q.shape[1]):
            prod *= q[:, j]
        return self.dim * const - 0.5 * (df + 1) * np.log(prod)


class RunningMean:
    """Streaming mean and standard error over batches of values.

    The mean is the sum of the values over their count.  Each batch adds its
    sum of squared deviations from its own mean, M2, by the pairwise update
    of Chan, Golub and LeVeque, so the variance never comes from the
    cancelling difference E[x^2] - E[x]^2.
    """

    def __init__(self):
        self.count = 0
        self._sum = 0.0
        self._m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=float)
        if not v.size:
            return
        total = float(v.sum())
        m2 = float(np.square(v - total / v.size).sum())
        if self.count:
            delta = total / v.size - self._sum / self.count
            m2 += delta * delta * self.count * v.size / (self.count + v.size)
        self.count += v.size
        self._sum += total
        self._m2 += m2

    @property
    def mean(self) -> float:
        return self._sum / self.count

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return float("inf")
        return math.sqrt(self._m2 / self.count / (self.count - 1))
