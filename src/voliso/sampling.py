"""Seeded Monte Carlo plumbing: proposals, batching, running estimates.

Every estimator in the package is the mean of an integrand that
``sample_mean`` takes over ``sample_count`` draws in batches of ``BATCH``,
the last one short.  Batch 0 reads the estimator's own PCG64 generator,
seeded by ``seed``, so an estimate of one batch draws the same variates as
a single stream would.  Batch k >= 1 reads a PCG64 stream of its own, seeded
by the k-th child of ``np.random.SeedSequence(seed).spawn(batches - 1)``.
``map_batches`` runs each batch on a thread pool of min(batches, available
CPUs) threads.  A batch draws and evaluates its ROW_BLOCK blocks of rows in
turn on its own stream, each block just before its integrand, so no
batch-sized array of variates is ever built.  The batches are folded into a
``RunningMean`` in batch order, so the variates and the float sums over
them are fixed by the seed and the sample count: an estimate depends only
on (seed, sample_count), whatever the thread count.  Each call owns its
generators and its pool, so estimators stay safe to call concurrently.

``StudentTProposal`` draws a block of ``count`` rows from its stream as one
(3, count, dim) array of uniforms and makes each t4 coordinate
scale (2B - 1) / sqrt(B (1 - B)) from the median B of its three uniforms:
no normal and no rejection loop, so a block reads a fixed number of
variates.  The block comes with the proposal's log density at its rows,
one log per row of prod_j 4 B_j (1 - B_j), so an importance weight takes
no second pass over the rows to find it.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bodies import _row_norms

BATCH = 1 << 16
_STUDENT_DF = 4.0   # degrees of freedom of each StudentTProposal coordinate
_SMALLEST_UNIFORM = 2.0 ** -53      # the least positive value of rng.random


def available_cpus() -> int:
    """CPUs this process may run on: the size of the pool of ``map_batches``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def map_batches(seed: int, batch, total: int, rng=None):
    """Yield ``batch(stream, size)`` for ``total`` samples in batches of
    BATCH, the last one short, in batch order.

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
    inside ``batch`` reaches the caller.
    """
    sizes = [min(BATCH, total - done) for done in range(0, total, BATCH)]
    if not sizes:
        return
    children = np.random.SeedSequence(seed).spawn(len(sizes) - 1)
    if rng is None:
        rng = np.random.default_rng(seed)

    def run(k):
        stream = rng if k == 0 else np.random.default_rng(children[k - 1])
        return batch(stream, sizes[k])

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
    """RunningMean of ``integrand`` over ``total`` rows of ``draw``, in the
    batches of ``map_batches(seed, ..., total, rng)``.  Each batch takes its
    ``row_blocks`` in turn: ``draw(stream, rows)`` draws a block from the
    batch's stream and ``integrand`` maps it to one value per row, written
    into one array per batch."""
    def batch(stream, size):
        out = np.empty(size)
        for lo, hi in row_blocks(size):
            out[lo:hi] = integrand(draw(stream, hi - lo))
        return out

    acc = RunningMean()
    for values in map_batches(seed, batch, total, rng):
        acc.add(values)
    return acc


def sphere_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on S^{dim-1} from normalized standard Gaussians.  The
    normals fill the rows in turn, so blocks drawn one after another give
    the rows of one draw of all of them."""
    x = rng.standard_normal((count, dim))
    x /= _row_norms(x)[:, None]
    return x


@dataclass(frozen=True)
class StudentTProposal:
    """Product of independent Student-t coordinates, used as IS proposal.

    Each coordinate is ``scale`` times a t variate of 4 degrees of freedom,
    drawn from three uniforms (see ``sample``).  Polynomial tails dominate
    every exponentially decaying integrand that appears here (products of
    integrable densities of linear functionals, e^{-gauge^p} integrands), so
    importance weights have finite variance and the reported standard errors
    are honest.
    """

    dim: int
    scale: float = 1.5

    def sample(self, rng: np.random.Generator,
               count: int) -> tuple[np.ndarray, np.ndarray]:
        """(X, log_q): ``count`` rows X = scale (2B - 1) / sqrt(B (1 - B))
        and the proposal's log density at each of them.

        The median B of three independent uniforms is Beta(2, 2), and
        (2B - 1) / sqrt(B (1 - B)) is then a t4 variate (symmetric-beta form
        of Student's t; Devroye, Non-Uniform Random Variate Generation, 1986,
        ch. IX).  Since 1 + z^2 / 4 = 1 / (4 B (1 - B)) exactly,
        log_q = dim const + (5/2) log prod_j 4 B_j (1 - B_j), with one log
        per row, equals ``logpdf(X)`` up to rounding.  ``rng`` fills one
        (3, count, dim) array of uniforms: all first uniforms, then all
        second, then all third.  They lie in [0, 1), so B < 1; a B of 0 (two
        zero uniforms) is read as the smallest positive uniform, 2^-53,
        which gives a finite coordinate of about -9.5e7 scale.
        """
        a, b, c = rng.random((3, count, self.dim))
        x = np.minimum(a, b)
        np.maximum(a, b, out=a)
        np.minimum(a, c, out=a)
        np.maximum(x, a, out=x)                 # B, the median
        np.maximum(x, _SMALLEST_UNIFORM, out=x)
        np.subtract(1.0, x, out=b)
        b *= x                                  # B (1 - B), about 2^-53 or more
        prod = b[:, 0].copy()
        for j in range(1, self.dim):
            prod *= b[:, j]
        prod *= 4.0 ** self.dim                 # exact while prod stays normal
        log_q = np.log(prod, out=prod)
        log_q *= 0.5 * (_STUDENT_DF + 1)
        log_q += self._log_norm()
        np.sqrt(b, out=b)                       # sqrt(B (1 - B))
        x -= 0.5
        x /= b
        x *= 2.0 * self.scale
        return x, log_q

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at the rows of ``x``, with one log per row of
        prod_j (1 + z_j^2 / df), z = x / scale."""
        df, s = _STUDENT_DF, self.scale
        q = np.asarray(x, dtype=float) / s
        q *= q
        q /= df
        q += 1.0
        prod = q[:, 0].copy()
        for j in range(1, q.shape[1]):
            prod *= q[:, j]
        return self._log_norm() - 0.5 * (df + 1) * np.log(prod)

    def _log_norm(self) -> float:
        """dim times the log normalising constant of one scaled t coordinate."""
        df, s = _STUDENT_DF, self.scale
        return self.dim * (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                           - 0.5 * math.log(df * math.pi) - math.log(s))


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
