"""Seeded Monte Carlo plumbing: proposals, batching, running estimates.

Every estimator in the package draws from a single PCG64 stream per call,
consumed sequentially in batches of a fixed size, ``BATCH``.  The variates
and the float sums over them are then fixed by the seed and the sample
count, so an estimate depends only on (seed, sample_count).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def rng_from_seed(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


BATCH = 1 << 16


def batch_sizes(total: int):
    done = 0
    while done < total:
        size = min(BATCH, total - done)
        yield size
        done += size


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
    df: float = 4.0
    scale: float = 1.5

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.scale * rng.standard_t(self.df, size=(count, self.dim))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        df, s = self.df, self.scale
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
