"""Workloads of the voliso benchmark: seeded item lists and output checks.

An item is one body, one estimate or one CLI call.  ``build`` turns a
workload name, a seed and a number of cycles into a list of items; the
runner works through it in order, one item at a time.  Every item has a
``run`` that calls public voliso functions and a ``check`` that verifies the
output, raises ``CheckError`` when it is wrong and returns the Monte Carlo
estimates it verified as (value, std_error) pairs.

All voliso functions are looked up on their modules at call time, so that
the traced run sees every call the workload makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from voliso import (bodies, brascamp_lieb, cli, john, lp_spaces, measures,
                    shapes)
from voliso.brascamp_lieb import BLSystem, Density1D
from voliso.lp_spaces import SubspaceSpec
from voliso.measures import Estimate, McParams

# slack on exact bounds, as in the acceptance suite and the reviso command
REL_TOL = 1e-6
SIGMAS = 3.0
BL_SAMPLES = 1_000_000
MC_SAMPLES = 500_000
SHADOW_SAMPLES = 100
CLI_SAMPLES = 20_000
CLI_SETS = 6

# voliso john exits with code 2 on some random 3-D bodies whose
# decomposition residual narrowly misses its 1e-8 tolerance (all seen are
# below 2e-7); a residual above this is not that defect
RESIDUAL_NEAR_MISS = 1e-6


class CheckError(Exception):
    """An item's output is wrong."""


class CliError(Exception):
    """A CLI call ended with its error exit code."""


@dataclass(frozen=True)
class Item:
    key: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


def known_defect(kind: str, error: str) -> bool:
    """Whether an item's exception is one of two voliso defects: a raw 6-D
    body that qhull rejects (QH6271), or a ``voliso john`` call whose
    decomposition residual misses its tolerance by less than
    RESIDUAL_NEAR_MISS.  Any other exception makes the run incorrect."""
    if kind == "vrep-6":
        return "QH6271" in error
    found = re.search(r"decomposition residual (\S+) exceeds", error)
    return (kind == "cli-john" and found is not None
            and float(found.group(1)) <= RESIDUAL_NEAR_MISS)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _estimate_pair(est: Estimate, samples: int) -> tuple:
    _require(est.samples == samples,
             f"estimate used {est.samples} samples, {samples} requested")
    _require(math.isfinite(est.value) and est.std_error >= 0.0,
             f"estimate {est.value} +- {est.std_error} is not finite")
    return est.value, est.std_error


def _van_der_corput(i: int) -> float:
    """The i-th point of the base-2 van der Corput sequence: 1/2, 1/4, 3/4, ..."""
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale *= 0.5
    return x


def _facet_draw(n: int, body_seed: int) -> int:
    """The number of half-spaces ``random_polytope(n, body_seed)`` draws:
    the first number it takes from ``default_rng(body_seed)``."""
    return int(np.random.default_rng(body_seed).integers(3 * n, 6 * n + 1))


def _stratified_bodies(seed: int, stream: int, n: int, symmetric: bool,
                       count: int) -> list:
    """(body seed, body) pairs whose facet counts sweep 3n..6n evenly.

    ``random_polytope`` draws its number of half-spaces uniformly from
    3n..6n, and solve, hull and measure times grow steeply with it.  Taking
    the counts in van der Corput order (the middle count first, then the
    quartiles, ...) keeps every prefix of the list close to that uniform
    mix, so a run's cost depends little on the seed.  Body seeds are drawn
    until one with the wanted count turns up, looking only at the count
    each would draw (``_facet_draw``), so that ``random_polytope`` runs
    once per body taken and the set-up's cost does not depend on the seed
    either.  Each body is still the generator's draw, accepted as it comes
    out.
    """
    rng = np.random.default_rng([seed, stream])
    counts = range(3 * n, 6 * n + 1)
    spare: dict = {m: [] for m in counts}
    out = []
    for i in range(count):
        target = counts[int(_van_der_corput(i + 1) * len(counts))]
        while not spare[target]:
            s = int(rng.integers(0, 2 ** 63))
            spare[_facet_draw(n, s)].append(s)
        s = spare[target].pop(0)
        out.append((s, shapes.random_polytope(n, s, symmetric=symmetric)))
    return out


# ---------------------------------------------------------------------------
# the reviso pipeline: random body -> John position -> exact measures
# ---------------------------------------------------------------------------

def _pipeline_item(kind: str, index: int, n: int, symmetric: bool,
                   body_seed: int) -> Item:
    def run():
        body = shapes.random_polytope(n, body_seed, symmetric=symmetric)
        image, _ = john.john_position(body)
        vertices = bodies.vrep_from_hrep(image)
        return (measures.isoperimetric_quotient(vertices),
                measures.polytope_volume(vertices))

    constant = brascamp_lieb.reverse_isoperimetric_constant(n, symmetric)
    bound = (brascamp_lieb.cube_volume_bound(n) if symmetric
             else brascamp_lieb.simplex_volume_bound(n))

    def check(out):
        quotient, volume = out
        _require(quotient <= constant * (1.0 + REL_TOL),
                 f"quotient {quotient!r} exceeds the constant {constant!r}")
        _require(0.0 < volume <= bound * (1.0 + REL_TOL),
                 f"volume {volume!r} outside (0, {bound!r}]")
        return []

    return Item(f"{kind}-{index:03d}", kind, run, check)


def _john_sweep(seed: int, workdir: Path, cycles: int) -> list:
    # hundreds of bodies per run average out the facet counts, so the
    # bodies are plain draws, generated inside the item
    kinds = (("general-2", 2, False), ("symmetric-2", 2, True),
             ("general-3", 3, False), ("symmetric-3", 3, True))
    seeds = np.random.default_rng([seed, 1]).integers(0, 2 ** 63, size=(cycles, 4))
    return [_pipeline_item(kind, c, n, symmetric, int(seeds[c, k]))
            for c in range(cycles)
            for k, (kind, n, symmetric) in enumerate(kinds)]


# ---------------------------------------------------------------------------
# exact geometry
# ---------------------------------------------------------------------------

# shadow directions are fixed, with fixed Monte Carlo seeds: a two-sided 3
# sigma check fails by chance in about 0.3% of fresh draws, and the verdict
# of a run must not depend on which workload seed it is given
SHADOW_DIRECTIONS = ((1.0, 2.0, 3.0, 4.0), (4.0, -1.0, 2.0, -3.0),
                     (1.0, 1.0, 1.0, 1.0), (2.0, 0.5, -1.5, 1.0),
                     (-1.0, 3.0, 0.25, 2.0), (0.5, -2.5, 1.0, 3.5))


def _shadow_item(index: int) -> Item:
    cube = shapes.cube_vertices(4)
    direction = SHADOW_DIRECTIONS[index % len(SHADOW_DIRECTIONS)]
    theta = np.asarray(direction) / np.linalg.norm(direction)
    exact = 2.0 ** 3 * float(np.abs(theta).sum())
    mc = McParams(SHADOW_SAMPLES, seed=index)

    def run():
        return measures.projection_area(cube, theta, mc)

    def check(out):
        if isinstance(out, Estimate):
            value, se = _estimate_pair(out, SHADOW_SAMPLES)
            _require(abs(value - exact) <= SIGMAS * se,
                     f"shadow {value!r} +- {se!r} misses {exact!r}")
            return [(value, se)]
        _require(abs(out - exact) <= 1e-9 * exact,
                 f"shadow {out!r} differs from {exact!r}")
        return []

    return Item(f"shadow-4-{index:03d}", "shadow-4", run, check)


def _vrep_item(index: int, body) -> Item:
    def run():
        return bodies.vrep_from_hrep(body)

    def check(vertices):
        _require(vertices.num_vertices > body.dim,
                 f"{vertices.num_vertices} vertices for a {body.dim}-D body")
        _require(bool(np.all(body.contains(vertices.vertices, tol=1e-7))),
                 "a vertex lies outside the body")
        return []

    return Item(f"vrep-6-{index:03d}", "vrep-6", run, check)


def _exact_geometry(seed: int, workdir: Path, cycles: int) -> list:
    # one heavy item per cycle, a symmetric 5-D body and a raw 6-D body in
    # turn, so that the ten slowest items of a run are the heavy ones and
    # the slowest general bodies, and the tail falls among the latter
    general = _stratified_bodies(seed, 5, 5, False, 4 * cycles)
    symmetric = _stratified_bodies(seed, 6, 5, True, (cycles + 1) // 2)
    # raw 6-D bodies: some fail in qhull (QH6271), and such failures count
    # against the run; they are not filtered out
    raw = _stratified_bodies(seed, 9, 6, False, cycles // 2)
    items = []
    for c in range(cycles):
        g = [_pipeline_item("general-5", 4 * c + j, 5, False, general[4 * c + j][0])
             for j in range(4)]
        s = [_shadow_item(3 * c + j) for j in range(3)]
        heavy = (_pipeline_item("symmetric-5", c // 2, 5, True, symmetric[c // 2][0])
                 if c % 2 == 0 else _vrep_item(c // 2, raw[c // 2][1]))
        items += [g[0], s[0], g[1], heavy, s[1], g[2], g[3], s[2]]
    return items


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _mixed_densities(rng, count: int) -> list:
    densities = []
    for _ in range(count):
        kind = rng.integers(3)
        if kind == 0:
            densities.append(Density1D.exponential())
        elif kind == 1:
            densities.append(Density1D.gaussian(float(rng.uniform(0.5, 2.0))))
        else:
            a = float(rng.uniform(-2.0, 0.0))
            densities.append(Density1D.indicator(a, a + float(rng.uniform(0.5, 3.0))))
    return densities


def _bl_item(key: str, kind: str, system: BLSystem, densities: list,
             mc_seed: int, equality: bool) -> Item:
    mc = McParams(BL_SAMPLES, seed=mc_seed)

    def run():
        return brascamp_lieb.bl_ratio(system, densities, mc)

    def check(est):
        value, se = _estimate_pair(est, BL_SAMPLES)
        if equality:
            _require(abs(value - 1.0) <= SIGMAS * se,
                     f"equality case ratio {value!r} +- {se!r} is not 1")
        else:
            _require(value <= 1.0 + SIGMAS * se,
                     f"ratio {value!r} +- {se!r} exceeds 1")
        return [(value, se)]

    return Item(key, kind, run, check)


def _subspace_item(key: str, spec: SubspaceSpec, mc_seed: int) -> Item:
    mc = McParams(MC_SAMPLES, seed=mc_seed)
    reference = lp_spaces.lp_ball_volume_ratio(spec.n, spec.p)
    l1_bound = lp_spaces.l1_vr_bound(spec.n).exact

    def run():
        return lp_spaces.subspace_volume_ratio(spec, mc)

    def check(est):
        value, se = _estimate_pair(est, MC_SAMPLES)
        _require(value <= reference + SIGMAS * se,
                 f"vr {value!r} +- {se!r} exceeds vr(l_p^n) = {reference!r}")
        if spec.p == 1.0:
            _require(value <= l1_bound + SIGMAS * se,
                     f"vr {value!r} +- {se!r} exceeds the L1 bound {l1_bound!r}")
        return [(value, se)]

    return Item(key, f"subspace-p{spec.p:g}", run, check)


def _cauchy_item(key: str, vertices, mc_seed: int) -> Item:
    mc = McParams(BL_SAMPLES, seed=mc_seed)
    exact = measures.surface_area(vertices)

    def run():
        return measures.cauchy_surface_area(vertices, mc)

    def check(est):
        value, se = _estimate_pair(est, BL_SAMPLES)
        _require(abs(value - exact) <= SIGMAS * se,
                 f"Cauchy area {value!r} +- {se!r} misses {exact!r}")
        return [(value, se)]

    return Item(key, "cauchy", run, check)


def _petty_item(key: str, vertices, mc_seed: int) -> Item:
    mc = McParams(MC_SAMPLES, seed=mc_seed)
    n = vertices.dim
    # ellipsoids minimize the functional; its ball value
    ball = (bodies.unit_ball_volume(n - 1)
            * bodies.unit_ball_volume(n) ** (-(n - 1.0) / n))

    def run():
        return measures.petty_functional(vertices, mc)

    def check(est):
        value, se = _estimate_pair(est, MC_SAMPLES)
        _require(value >= ball - SIGMAS * se,
                 f"Petty value {value!r} +- {se!r} below the ball's {ball!r}")
        return [(value, se)]

    return Item(key, "petty", run, check)


def _mc_estimators(seed: int, workdir: Path, cycles: int) -> list:
    # four Brascamp-Lieb items per cycle against two shorter ones (one
    # subspace, p in turn, and a Cauchy or a Petty estimate in turn), so
    # that the median falls among the Brascamp-Lieb items, whose cost is
    # fixed by their size
    rng = np.random.default_rng([seed, 7])
    # equality cases and Cauchy areas are two-sided 3 sigma checks, so their
    # inputs and Monte Carlo seeds are fixed (see SHADOW_DIRECTIONS)
    fixed = np.random.default_rng(0)
    orthonormal = BLSystem(np.eye(3), np.ones(3))
    gaussian = brascamp_lieb.random_system(3, 6, fixed)
    cauchy_bodies = (shapes.cube_vertices(3), shapes.cross_polytope(3))
    subspaces = ((1.0, 8, 3), (1.5, 6, 3), (3.0, 8, 2))
    # the Petty estimator's memory grows with the body's facet count
    petty_bodies = _stratified_bodies(seed, 12, 3, False, cycles // 2)
    items = []
    for c in range(cycles):
        for d, m in ((2, 4), (3, 7)):
            system = brascamp_lieb.random_system(d, m, rng)
            items.append(_bl_item(f"bl-{d}-{c:03d}", f"bl-{d}", system,
                                  _mixed_densities(rng, m),
                                  int(rng.integers(2 ** 31)), False))
        p, m, n = subspaces[c % 3]
        items.append(_subspace_item(f"subspace-p{p:g}-{c:03d}",
                                    SubspaceSpec(rng.standard_normal((m, n)), p),
                                    int(rng.integers(2 ** 31))))
        items.append(_bl_item(f"bl-orthonormal-{c:03d}", "bl-equality",
                              orthonormal, _mixed_densities(fixed, 3),
                              1000 + c, True))
        items.append(_bl_item(f"bl-gaussian-{c:03d}", "bl-equality", gaussian,
                              [Density1D.gaussian(1.0)] * gaussian.size,
                              2000 + c, True))
        if c % 2 == 0:
            items.append(_cauchy_item(f"cauchy-{c:03d}", cauchy_bodies[c // 2 % 2],
                                      3000 + c))
        else:
            body = bodies.vrep_from_hrep(petty_bodies[c // 2][1])
            items.append(_petty_item(f"petty-{c:03d}", body,
                                     int(rng.integers(2 ** 31))))
    return items


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _cli_item(key: str, argv: list, first_report: dict) -> Item:

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == cli.INPUT_ERROR:   # the CLI's own error exit: a failed call
            raise CliError(err.getvalue().strip())
        return code, out.getvalue()

    def check(result):
        code, text = result
        _require(code == 0, f"exit code {code}")
        report = json.loads(text)
        _require(report.get("passed", True) is True, "report says passed: false")
        # a repeated call must reproduce the report byte for byte
        _require(first_report.setdefault(key, text) == text,
                 "report differs from the first run of the same call")
        return [(e["value"], e["std_error"]) for e in report.values()
                if isinstance(e, dict) and "std_error" in e]

    return Item(key, f"cli-{argv[0]}", run, check)


def _cli_calls(rng, workdir: Path, index: int, john_bodies: dict) -> list:
    """One set of CLI calls, with the files they read."""
    s = int(rng.integers(2 ** 31))
    calls = []
    for tag, (hbody, vbody) in john_bodies.items():
        flag = ["--symmetric"] if tag == "sym" else []
        for rep, body in (("h", hbody), ("v", bodies.vrep_from_hrep(vbody))):
            path = workdir / f"john-{rep}-{tag}-{index}.json"
            bodies.write_polytope(path, body)
            calls.append(["john", "--input", str(path)] + flag)
    calls.append(["reviso", "--n", "2", "--count", "3", "--seed", str(s)])
    subspace = workdir / f"subspace-{index}.json"
    subspace.write_text(json.dumps(
        SubspaceSpec(rng.standard_normal((6, 2)), 1.5).to_dict()))
    calls.append(["lp", "--input", str(subspace), "--seed", str(s),
                  "--samples", str(CLI_SAMPLES)])
    system = brascamp_lieb.random_system(3, 5, rng)
    system_path = workdir / f"system-{index}.json"
    system_path.write_text(json.dumps(system.to_dict()))
    densities = json.dumps([f.to_dict() for f in _mixed_densities(rng, 5)])
    calls.append(["bl", "--input", str(system_path), "--densities", densities,
                  "--seed", str(s), "--samples", str(CLI_SAMPLES)])
    # petty's report includes a two-sided 3 sigma Cauchy check, so its body
    # and seed are fixed (see SHADOW_DIRECTIONS)
    cube_path = workdir / f"petty-{index}.json"
    bodies.write_polytope(cube_path, shapes.cube_vertices(3))
    calls.append(["petty", "--input", str(cube_path), "--seed", str(4000 + index),
                  "--samples", str(CLI_SAMPLES)])
    return calls


def _cli_reports(seed: int, workdir: Path, cycles: int) -> list:
    # a few fixture sets, called in turn, so that every call is repeated
    # and its report can be compared byte for byte
    rng = np.random.default_rng([seed, 8])
    count = min(cycles, CLI_SETS)
    # the first report of each call, shared by all its repeats
    first_report: dict = {}
    general = _stratified_bodies(seed, 10, 3, False, 2 * count)
    symmetric = _stratified_bodies(seed, 11, 3, True, 2 * count)
    sets = [_cli_calls(rng, workdir, i, {
                "gen": (general[2 * i][1], general[2 * i + 1][1]),
                "sym": (symmetric[2 * i][1], symmetric[2 * i + 1][1])})
            for i in range(count)]
    return [_cli_item(f"{argv[0]}-{c % count}-{k}", argv, first_report)
            for c in range(cycles) for k, argv in enumerate(sets[c % count])]


BUILDERS = {
    "john-sweep": _john_sweep,
    "exact-geometry": _exact_geometry,
    "mc-estimators": _mc_estimators,
    "cli-reports": _cli_reports,
}


def build(name: str, seed: int, workdir: Path, cycles: int) -> list:
    """``cycles`` cycles of the workload's items, generated from ``seed``;
    each cycle mixes the workload's item kinds in fixed proportions."""
    return BUILDERS[name](seed, workdir, cycles)


def warm_up(workdir: Path) -> None:
    """One small call into every layer, so that lazy imports and first-call
    set-up of numpy, scipy and HiGHS happen before timing."""
    simplex = shapes.regular_simplex(2)
    image, _ = john.john_position(simplex)
    vertices = bodies.vrep_from_hrep(image)
    measures.isoperimetric_quotient(vertices)
    measures.polytope_volume(vertices)
    john.john_decomposition(john.contact_points(image), symmetric=False)
    measures.projection_area(shapes.cube_vertices(4), (1.0, 2.0, 3.0, 4.0),
                             McParams(4))
    mc = McParams(1000)
    measures.cauchy_surface_area(vertices, mc)
    measures.petty_functional(vertices, mc)
    brascamp_lieb.bl_ratio(BLSystem(np.eye(2), np.ones(2)),
                           [Density1D.exponential()] * 2, mc)
    lp_spaces.subspace_volume_ratio(SubspaceSpec(np.eye(2), 1.5), mc)
    path = workdir / "warm-up.json"
    bodies.write_polytope(path, simplex)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["john", "--input", str(path)])
    path.unlink()
