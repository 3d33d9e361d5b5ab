"""Exact and Monte Carlo measures: volume, surface area, shadows, Petty.

Every exact quantity of a VPolytope, for n = 2..6, comes from the one hull
the body keeps: its volume and surface area as qhull computes them, and the
areas a_i = n v_i / h_i of its boundary simplices (v_i the cone volume over
simplex i from an interior point c, h_i the height of c over it), which give
every shadow by Cauchy's projection formula.  Monte Carlo quantities are
seeded, batched, and reported with standard errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bodies import BodyOracle, VPolytope, unit_ball_volume
from .sampling import (RunningMean, batches, matmul_rows, rng_from_seed,
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


def _simplex_areas(verts, simplices, equations):
    """(n-1)-areas n v / h of boundary simplices, from their cone volumes v
    and heights h over the vertex centroid, and their outward unit normals."""
    n = verts.shape[1]
    center = verts.mean(axis=0)
    normals, offsets = equations[:, :-1], equations[:, -1]
    cones = np.abs(np.linalg.det(verts[simplices] - center)) / math.factorial(n)
    return n * cones / -(normals @ center + offsets), normals


def _boundary(V: VPolytope):
    """Areas and outward unit normals of a triangulation of V's boundary.

    It is the one V keeps, unless its areas do not add up to qhull's own
    surface area: then qhull's triangulation overlaps itself, and a hull of
    joggled vertices gives the simplices instead.
    """
    areas, normals = _simplex_areas(V.vertices, V._simplices, V._equations)
    if abs(areas.sum() - V._area) > 1e-9 * V._area:
        areas, normals = _simplex_areas(V.vertices, *V._joggled_boundary)
    return areas, normals


def polytope_volume(V: VPolytope) -> float:
    """Exact volume, as qhull computes it for V's hull."""
    return V._volume


def surface_area(V: VPolytope) -> float:
    """Exact boundary measure, as qhull computes it for V's hull."""
    return V._area


def isoperimetric_quotient(V: VPolytope) -> float:
    """surface_area / volume^((n-1)/n)."""
    n = V.dim
    return V._area / V._volume ** ((n - 1.0) / n)


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
    theta = np.asarray(theta, dtype=float)
    return float(_shadow_values(V, theta[None] / np.linalg.norm(theta))[0])


def _shadows(areas: np.ndarray, normals: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Cauchy's projection formula: the shadow along a unit theta is half
    the facet areas weighted by |<facet normal, theta>|."""
    return 0.5 * matmul_rows(np.abs(matmul_rows(thetas, normals.T)), areas)


def _shadow_values(V: VPolytope, thetas: np.ndarray) -> np.ndarray:
    """Exact shadow areas of V along many unit directions at once."""
    return _shadows(*_boundary(V), thetas)


def cauchy_surface_area(V: VPolytope, mc: McParams) -> Estimate:
    """Surface area from the spherical mean of shadow areas.

    |boundary| = (n v_n / v_{n-1}) * mean over uniform theta of |shadow|.
    """
    n = V.dim
    factor = n * unit_ball_volume(n) / unit_ball_volume(n - 1)
    areas, normals = _boundary(V)
    rng = rng_from_seed(mc.seed)
    acc = RunningMean()
    for thetas in batches(rng, partial(sphere_points, dim=n), mc.sample_count):
        acc.add(_shadows(areas, normals, thetas))
    return Estimate(factor * acc.mean, factor * acc.std_error, mc.sample_count)


def petty_functional(V: VPolytope, mc: McParams) -> Estimate:
    """Affine-invariant shadow functional.

    Estimates (|C|^{n-1} * mean |shadow|^{-n})^{-1/n} by uniform direction
    sampling; minimized by ellipsoids.  The standard error comes from the
    delta method applied to the inner spherical mean.
    """
    n = V.dim
    vol = V._volume
    areas, normals = _boundary(V)
    rng = rng_from_seed(mc.seed)
    acc = RunningMean()
    for thetas in batches(rng, partial(sphere_points, dim=n), mc.sample_count):
        acc.add(_shadows(areas, normals, thetas) ** (-float(n)))
    inner = acc.mean
    value = (vol ** (n - 1) * inner) ** (-1.0 / n)
    se = value * acc.std_error / (n * inner)
    return Estimate(value, se, mc.sample_count)
