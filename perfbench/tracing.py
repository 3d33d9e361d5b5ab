"""Per-layer spans for the traced benchmark run, installed from outside voliso.

``Tracer.install`` replaces each target function with a wrapper that records
a span (name, start, end, parent span, item id, raised) around the original
call.  A target is rebound under every name that holds it in any loaded
``voliso`` module, so ``voliso.john.chebyshev_center`` is wrapped as well as
``voliso.bodies.chebyshev_center``.  scipy's ``linprog`` and qhull classes
are also rebound on their scipy modules, because ``voliso.measures`` imports
them inside its functions.  ``uninstall`` restores every original, and an
untraced pass runs with no wrapper at all.
"""
from __future__ import annotations

import functools
import sys
import time

import scipy.optimize
import scipy.spatial

from voliso import (bodies, brascamp_lieb, cli, john, lp_spaces, measures,
                    sampling, shapes)

NAME, START, END, PARENT, ITEM, RAISED = range(6)

CLI_COMMANDS = ("john", "reviso", "lp", "bl", "petty")


def _samples(tracer, name, result):
    tracer.count(f"{name}.samples", result.samples)


def _iterations(tracer, name, result):
    tracer.count(f"{name}.iterations", result.iterations)


def _targets():
    """(span name, owner, attribute, observer of the result) per wrapped call."""
    targets = [
        ("shapes.random_polytope", shapes, "random_polytope", None),
        ("bodies.chebyshev_center", bodies, "chebyshev_center", None),
        ("bodies.vrep_from_hrep", bodies, "vrep_from_hrep", None),
        ("bodies.hrep_from_vrep", bodies, "hrep_from_vrep", None),
        ("john.max_inscribed_ellipsoid", john, "max_inscribed_ellipsoid", None),
        ("john.john_position", john, "john_position", None),
        ("john.contact_points", john, "contact_points", None),
        ("john.john_decomposition", john, "john_decomposition", None),
        ("measures.polytope_volume", measures, "polytope_volume", None),
        ("measures.surface_area", measures, "surface_area", None),
        ("measures.isoperimetric_quotient", measures, "isoperimetric_quotient", None),
        ("measures.projection_area", measures, "projection_area", None),
        ("measures.cauchy_surface_area", measures, "cauchy_surface_area", None),
        ("measures.petty_functional", measures, "petty_functional", None),
        ("sampling.StudentTProposal.sample", sampling.StudentTProposal, "sample", None),
        ("sampling.StudentTProposal.logpdf", sampling.StudentTProposal, "logpdf", None),
        ("sampling.sphere_points", sampling, "sphere_points", None),
        ("brascamp_lieb.bl_ratio", brascamp_lieb, "bl_ratio", _samples),
        ("brascamp_lieb.Density1D.log_density", brascamp_lieb.Density1D,
         "log_density", None),
        ("lp_spaces.gauge_integral_volume", lp_spaces, "gauge_integral_volume",
         _samples),
        ("lp_spaces.lewis_position", lp_spaces, "lewis_position", _iterations),
        ("lp_spaces.subspace_volume_ratio", lp_spaces, "subspace_volume_ratio", None),
        ("cli.main", cli, "main", None),
        ("lp", scipy.optimize, "linprog", None),
        ("qhull", scipy.spatial, "ConvexHull", None),
        ("qhull", scipy.spatial, "HalfspaceIntersection", None),
    ]
    targets += [(f"cli.{c}", cli, f"cmd_{c}", None) for c in CLI_COMMANDS]
    return targets


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.item = None
        self._stack: list = []
        self._patches: list = []

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _call(self, name, fn, observe, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.item, False]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, name, result)
            return result
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, args, kwargs)
        return traced

    def _solve_with_info(self, fn):
        """The John solve, asked for its SolveInfo so Newton steps are counted."""
        @functools.wraps(fn)
        def solve(P, full_output=False):
            ellipsoid, info = fn(P, full_output=True)
            self.count("john.newton_iterations", info.newton_iterations)
            return (ellipsoid, info) if full_output else ellipsoid
        return solve

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "voliso" or key.startswith("voliso.")]
        for name, owner, attr, observe in _targets():
            original = getattr(owner, attr)
            inner = (self._solve_with_info(original)
                     if name == "john.max_inscribed_ellipsoid" else original)
            wrapper = self._wrap(name, inner, observe)
            holders = [owner] if isinstance(owner, type) else [owner] + modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def layer_times(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, raised calls.

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "errors": 0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["errors"] += span[RAISED]
    return out
