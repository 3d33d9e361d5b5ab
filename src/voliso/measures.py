"""Exact and Monte Carlo measures: volume, surface area, shadows, Petty.

Every exact quantity of a VPolytope, for n = 2..6, comes from the areas
|F_i| of its facets, with unit normals a_i and offsets b_i, which the body
computes once by Lasserre's recursion on its faces, each face's least-norm
point taken by one Gram-Schmidt step from that of the face on one facet fewer,
with no matrix factorization: |K| = (1/n) sum b_i |F_i|,
|dK| = sum |F_i|, and the shadow along a unit theta is
(1/2) sum |<a_i, theta>| |F_i| by Cauchy's projection formula.  Monte Carlo
quantities are seeded, batched, and reported with standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bodies import BodyOracle, VPolytope, unit_ball_volume
from .sampling import (RunningMean, batches, rng_from_seed, row_blocks,
                       sphere_points)


@dataclass(frozen=True)
class McParams:
    """Sample budget for one Monte Carlo run.

    The same (seed, sample_count) always reproduces the same estimate bit
    for bit.  Acceptance-grade runs use at least 1000 samples.
    """

    sample_count: int
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo value reported as value +- std_error over ``samples``."""

    value: float
    std_error: float
    samples: int

    def to_dict(self) -> dict:
        return {"value": self.value, "std_error": self.std_error,
                "samples": self.samples}

    def agrees_with(self, other: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - other) <= sigmas * self.std_error


def polytope_volume(V: VPolytope) -> float:
    """Exact volume (1/n) sum_i (b_i - <a_i, c>) |F_i|, c the vertex centroid."""
    offsets = -V._equations[:, -1] - V._equations[:, :-1] @ V.vertices.mean(axis=0)
    return float(offsets @ V._facet_areas) / V.dim


def surface_area(V: VPolytope) -> float:
    """Exact boundary measure sum_i |F_i|."""
    return float(V._facet_areas.sum())


def isoperimetric_quotient(V: VPolytope) -> float:
    """surface_area / volume^((n-1)/n)."""
    n = V.dim
    return surface_area(V) / polytope_volume(V) ** ((n - 1.0) / n)


def mc_volume(body: BodyOracle, mc: McParams) -> Estimate:
    """Hit-or-miss volume estimate over the bounding box [-R, R]^n."""
    rng = rng_from_seed(mc.seed)
    n, R = body.dim, body.radius
    box_volume = (2.0 * R) ** n
    hits = 0
    for pts in batches(rng, lambda rng, size: rng.uniform(-R, R, size=(size, n)),
                       mc.sample_count):
        hits += int(np.count_nonzero(body.member(pts)))
    p = hits / mc.sample_count
    se = box_volume * math.sqrt(max(p * (1.0 - p), 0.0) / mc.sample_count)
    return Estimate(box_volume * p, se, mc.sample_count)


def projection_area(V: VPolytope, theta, mc: McParams | None = None) -> float:
    """(n-1)-volume of the shadow of V on the hyperplane orthogonal to theta.

    Exact for n = 2..6 and always a float (for n = 2 it is the width of V
    along the line orthogonal to theta).  ``mc`` is accepted and ignored.
    """
    theta = np.asarray(theta, dtype=float)[None]
    return float(_shadows(V, theta / np.linalg.norm(theta))[0])


def _shadows(V: VPolytope, thetas: np.ndarray) -> np.ndarray:
    """Cauchy's projection formula: the shadow along a unit theta is half the
    facet areas weighted by |<facet normal, theta>|, one row block at a time."""
    areas, normals = V._facet_areas, V._equations[:, :-1]
    out = np.empty(len(thetas))
    for lo, hi in row_blocks(len(thetas)):
        out[lo:hi] = np.abs(thetas[lo:hi] @ normals.T) @ areas
    return 0.5 * out


def cauchy_surface_area(V: VPolytope, mc: McParams) -> Estimate:
    """Surface area from the spherical mean of shadow areas.

    |boundary| = (n v_n / v_{n-1}) * mean over uniform theta of |shadow|.
    """
    n = V.dim
    factor = n * unit_ball_volume(n) / unit_ball_volume(n - 1)
    rng = rng_from_seed(mc.seed)
    acc = RunningMean()
    for thetas in batches(rng, partial(sphere_points, dim=n), mc.sample_count):
        acc.add(_shadows(V, thetas))
    return Estimate(factor * acc.mean, factor * acc.std_error, mc.sample_count)


def petty_functional(V: VPolytope, mc: McParams) -> Estimate:
    """Affine-invariant shadow functional.

    Estimates (|C|^{n-1} * mean |shadow|^{-n})^{-1/n} by uniform direction
    sampling; minimized by ellipsoids.  The standard error comes from the
    delta method applied to the inner spherical mean.
    """
    n = V.dim
    vol = polytope_volume(V)
    rng = rng_from_seed(mc.seed)
    acc = RunningMean()
    for thetas in batches(rng, partial(sphere_points, dim=n), mc.sample_count):
        acc.add(_shadows(V, thetas) ** (-float(n)))
    inner = acc.mean
    value = (vol ** (n - 1) * inner) ** (-1.0 / n)
    se = value * acc.std_error / (n * inner)
    return Estimate(value, se, mc.sample_count)
