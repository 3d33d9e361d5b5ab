"""Exact measures (volume, surface area, shadows) and Monte Carlo shadow means.

Every exact quantity of a VPolytope, for n = 2..6, comes from the areas
|F_i| of its facets, with unit normals a_i and offsets b_i, which the body
computes once: |K| = (1/n) sum b_i |F_i|, |dK| = sum |F_i|, and the shadow
along a unit theta is (1/2) sum |<a_i, theta>| |F_i| by Cauchy's projection
formula.  A simple body (every vertex on n facets) is measured by Lasserre's
recursion on its faces, each face's least-norm point taken by one
Gram-Schmidt step from that of the face on one facet fewer, with no matrix
factorization; any other body sums the simplices of qhull's triangulation of
its vertices, |det [edges; a_i]| / (n - 1)! each, per facet.  The Monte
Carlo quantities here are spherical means of shadows (Cauchy's surface area,
Petty's functional): each hands ``sampling.sample_mean`` a shadow integrand
over a block of directions and reports its ``Estimate``.  ``McParams`` and
``Estimate``, the Monte Carlo contract, live in ``sampling`` and are
imported here.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .bodies import VPolytope, unit_ball_volume
from .sampling import Estimate, McParams, sample_mean, sphere_points


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


def projection_area(V: VPolytope, theta, mc: McParams | None = None) -> float:
    """(n-1)-volume of the shadow of V on the hyperplane orthogonal to theta.

    Exact for n = 2..6 and always a float (for n = 2 it is the width of V
    along the line orthogonal to theta).  ``mc`` is accepted and ignored.
    Raises ValueError unless theta is a finite nonzero vector of length n.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (V.dim,) or not np.isfinite(theta).all() or not theta.any():
        raise ValueError(f"direction must be a finite nonzero vector of length "
                         f"{V.dim}, not {theta.tolist()}")
    return float(_shadows(V, theta[None] / np.linalg.norm(theta))[0])


def _shadows(V: VPolytope, thetas: np.ndarray) -> np.ndarray:
    """Cauchy's projection formula: the shadow along a unit theta is half the
    facet areas weighted by |<facet normal, theta>|."""
    return 0.5 * (np.abs(thetas @ V._equations[:, :-1].T) @ V._facet_areas)


def cauchy_surface_area(V: VPolytope, mc: McParams) -> Estimate:
    """Surface area from the spherical mean of shadow areas.

    |boundary| = (n v_n / v_{n-1}) * mean over uniform theta of |shadow|.
    The mean is ``sampling.sample_mean``'s.  By linearity its expectation
    is ``surface_area(V)`` for every body, so it measures only the direction
    sampler; it stays only for the benchmark's ``mc-estimators`` items,
    until the benchmark is refreshed.
    """
    n = V.dim
    factor = n * unit_ball_volume(n) / unit_ball_volume(n - 1)
    mean = sample_mean(mc, partial(sphere_points, dim=n), partial(_shadows, V))
    return Estimate(factor * mean.value, factor * mean.std_error, mean.samples)


def petty_functional(V: VPolytope, mc: McParams) -> Estimate:
    """Affine-invariant shadow functional.

    Estimates (|C|^{n-1} * mean |shadow|^{-n})^{-1/n} by uniform direction
    sampling; minimized by ellipsoids.  The standard error comes from the
    delta method applied to the inner spherical mean, which is
    ``sampling.sample_mean``'s.
    """
    n = V.dim
    vol = polytope_volume(V)
    inner = sample_mean(mc, partial(sphere_points, dim=n),
                        lambda thetas: _shadows(V, thetas) ** (-float(n)))
    value = (vol ** (n - 1) * inner.value) ** (-1.0 / n)
    se = value * inner.std_error / (n * inner.value)
    return Estimate(value, se, mc.sample_count)
