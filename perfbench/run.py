"""voliso benchmark: one workload, run as a closed loop in one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload john-sweep --seed 1 --seconds 20 --trace 0

The workload's items are generated from ``--seed`` and run one at a time,
each starting when the previous one has finished.  A workload's items come
in cycles that mix its item kinds; a run does as many cycles as take about
``--seconds`` at the parent commit's pace, so every commit does the same
work for the same seed.  Every item's output is checked.  The end-to-end
metrics are printed one per line with their units, then a JSON line with the
metrics that BENCHMARK.json lists.  With ``--trace 1`` the run alternates
untraced and traced passes over the first cycles and reports the per-layer
metrics instead.  Results, the environment and (when traced) the spans are
written under perfbench/out/.  Item and set-up times are scaled to a
reference host speed (see HostReference).

The package is imported from ``src/`` of the checkout; without it the run
fails with exit code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
RSE_TARGET = 1e-3
TAIL_BEYOND = 10

# per workload: seconds one cycle of items takes at the parent commit on a
# 2-core x86-64 machine, which sets how many cycles a run of --seconds
# does, and the cycles in one traced pass
PACE = {
    "john-sweep": (0.16, 25),
    "exact-geometry": (4.1, 2),
    "mc-estimators": (1.75, 3),
    "cli-reports": (0.45, 1),
}

# Host-speed reference: the shared host's speed swings by a third within
# seconds, and whole runs can be slow.  A fixed computation of the kind
# voliso does (HostReference) is timed between items, and each
# item's time is scaled by REFERENCE_S over the median of the reference
# times around it.  Scaled run results stay within a few percent of each
# other where raw ones spread by a fifth.  REFERENCE_S is the computation's
# time on the host the benchmark was tuned on.  Raw times are printed too.
REFERENCE_S = 3e-3
REFERENCE_STEPS = 100
REFERENCE_WINDOW_S = 0.2


@dataclass
class Record:
    key: str
    kind: str
    latency: float
    error: str | None = None
    wrong: bool = False   # failed its check, or raised other than a known defect
    estimates: list = field(default_factory=list)
    start: float = 0.0
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        """Latency at the reference host speed."""
        return self.latency * self.scale


class HostReference:
    """Times a fixed computation like voliso's own: one small HiGHS LP and a
    hundred small dense matrix-vector steps.  ``linprog`` is bound here, so
    the traced run's wrappers never see these calls."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        self._linprog = linprog
        self._matrix = 6.0 * np.eye(6) + np.arange(36.0).reshape(6, 6) / 36.0
        self._norm = np.linalg.norm

    def seconds(self) -> float:
        start = time.perf_counter()
        self._linprog((1.0, 1.0, 1.0), A_ub=self._matrix[:3, :3], b_ub=(1.0, 1.0, 1.0),
                      bounds=[(-1.0, 1.0)] * 3, method="highs")
        x = self._matrix[0]
        for _ in range(REFERENCE_STEPS):
            x = self._matrix @ x
            x = x[::-1] / self._norm(x)
        return time.perf_counter() - start


def setup(workload: str, seed: int, cycles: int, workdir: Path) -> tuple:
    """Import voliso and scipy, warm every layer up and build the items;
    returns (items, seconds taken at the reference host speed)."""
    start = time.perf_counter()
    import workloads

    reference = HostReference()
    references_start = time.perf_counter()
    before = statistics.median(reference.seconds() for _ in range(3))
    references_s = time.perf_counter() - references_start
    workloads.warm_up(workdir)
    items = workloads.build(workload, seed, workdir, cycles)
    seconds = time.perf_counter() - start - references_s
    after = statistics.median(reference.seconds() for _ in range(3))
    return items, seconds * REFERENCE_S / (0.5 * (before + after))


def setup_in_child(workload: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cycles_for(workload: str, seconds: float) -> int:
    """Cycles of items that take about ``seconds`` at the nominal pace, so
    that every commit does the same work for the same seed and seconds."""
    return max(1, round(seconds / PACE[workload][0]))


def run_item(item, tracer=None) -> Record:
    import workloads

    if tracer is not None:
        tracer.item = item.key
    record = Record(item.key, item.kind, 0.0, start=time.perf_counter())
    try:
        output = item.run()
    except Exception as exc:  # an item that raises is a failed item
        record.error = f"{type(exc).__name__}: {exc}"
        record.wrong = not workloads.known_defect(item.kind, record.error)
        output = None
    record.latency = time.perf_counter() - record.start
    if output is not None:
        try:
            record.estimates = item.check(output)
        except workloads.CheckError as exc:
            record.error, record.wrong = str(exc), True
    return record


def run_pass(items, reference: HostReference, tracer=None) -> list:
    """Run the items in order, one at a time, timing the host-speed
    reference between them; each item is scaled by the median reference
    time over its own span widened by REFERENCE_WINDOW_S on each side."""
    records, times, references = [], [time.perf_counter()], [reference.seconds()]
    for item in items:
        records.append(run_item(item, tracer))
        times.append(time.perf_counter())
        references.append(reference.seconds())
    for i, record in enumerate(records):
        # references i and i + 1 are the ones just before and after item i
        lo = bisect.bisect_left(times, record.start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, record.start + record.latency
                                 + REFERENCE_WINDOW_S)
        window = references[min(lo, i):max(hi, i + 2)]
        record.scale = REFERENCE_S / statistics.median(window)
    return records


def end_to_end(records, setup_runs: list) -> dict:
    """All seven end-to-end metrics at the reference host speed, as
    {name: (value, unit, note)}."""
    latencies = sorted(r.scaled for r in records)
    raw = sorted(r.latency for r in records)
    n = len(latencies)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    failed = sum(r.error is not None for r in records)
    by_key: dict = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r)
    mc_s = 0.0
    estimates = 0
    for runs in by_key.values():
        if runs[0].estimates:
            # an estimate with no spread (all samples missed) needs no more
            rse = max(se / abs(v) if se else 0.0 for v, se in runs[0].estimates)
            mc_s += statistics.median(r.scaled for r in runs) * (rse / RSE_TARGET) ** 2
            estimates += 1
    return {
        "setup_s": (statistics.median(setup_runs), "s",
                    f"median of {len(setup_runs)} set-ups"),
        "items_per_s": (n / sum(latencies), "1/s",
                        f"{n} items; raw {n / sum(raw):.4g}"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms",
                        f"of {n} items; raw {1e3 * statistics.median(raw):.4g}"),
        "item_tail_ms": (1e3 * latencies[tail_index], "ms",
                         f"p{100.0 * (tail_index + 1) / n:.1f} of {n} items, "
                         f"{n - tail_index - 1} beyond; raw {1e3 * raw[tail_index]:.4g}"),
        "fail_share": (failed / n, "share", f"{failed} of {n} items failed"),
        "mc_s_at_rse_1e-3": (mc_s, "s", f"over {estimates} distinct estimating items"
                             if estimates else "no Monte Carlo estimates"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "whole process"),
    }


def traced_passes(items, seconds: float) -> tuple:
    """Alternate untraced and traced passes; returns records and per-layer data."""
    from tracing import Tracer

    reference = HostReference()
    tracer = Tracer()
    untraced, traced, records, item_walls, by_kind = [], [], [], [], {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        recs = run_pass(items, reference)
        untraced.append(sum(r.scaled for r in recs))
        records += recs
        tracer.install()
        try:
            recs = run_pass(items, reference, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(r.scaled for r in recs))
        records += recs
        item_walls.append(sum(r.latency for r in recs))
        for r in recs:
            by_kind[r.kind] = by_kind.get(r.kind, 0.0) + r.latency
    return records, tracer, {"untraced_s": untraced, "traced_s": traced,
                             "item_s": item_walls, "item_s_by_kind": by_kind}


def per_layer(tracer, passes: dict, items_per_pass: int) -> dict:
    """Per-layer metrics per pass, as {name: (value, unit)}."""
    from tracing import NAME, PARENT, layer_times

    count = len(passes["traced_s"])
    layers = layer_times(tracer.spans)
    metrics = {}
    for name, entry in layers.items():
        metrics[f"{name}.calls"] = (entry["calls"] / count, "count")
        metrics[f"{name}.s"] = (entry["s"] / count, "s")
        metrics[f"{name}.self_s"] = (entry["self_s"] / count, "s")
        metrics[f"{name}.errors"] = (entry["errors"] / count, "count")

    def value(name):
        return metrics.get(name, (0.0,))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    def under(span, ancestor):
        while span[PARENT] >= 0:
            span = tracer.spans[span[PARENT]]
            if span[NAME] == ancestor:
                return True
        return False

    solves = value("john.max_inscribed_ellipsoid.calls")
    cli_solves = sum(s[NAME] == "john.max_inscribed_ellipsoid" and under(s, "cli.john")
                     for s in tracer.spans) / count
    for key, amount in tracer.counters.items():
        metrics[key] = (amount / count, "count")
    metrics.update({
        "john.newton_iterations_per_solve": (
            ratio(value("john.newton_iterations"), solves), "count"),
        "john.solves_per_item": (solves / items_per_pass, "count"),
        "cli.john.solves_per_call": (ratio(cli_solves, value("cli.john.calls")), "count"),
        "lp.calls_per_item": (value("lp.calls") / items_per_pass, "count"),
        "qhull.calls_per_item": (value("qhull.calls") / items_per_pass, "count"),
        "brascamp_lieb.bl_ratio.samples_per_s": (ratio(
            value("brascamp_lieb.bl_ratio.samples"), value("brascamp_lieb.bl_ratio.s")), "1/s"),
        "lp_spaces.gauge_integral_volume.samples_per_s": (ratio(
            value("lp_spaces.gauge_integral_volume.samples"),
            value("lp_spaces.gauge_integral_volume.s")), "1/s"),
        "trace.overhead_share": (sum(passes["traced_s"]) / sum(passes["untraced_s"]) - 1.0,
                                 "share"),
        "trace.item_s": (sum(passes["item_s"]) / count, "s"),
        "trace.self_s": (sum(e["self_s"] for e in layers.values()) / count, "s"),
    })
    return metrics


def time_by_kind(tracer, kinds: dict) -> dict:
    """Inclusive seconds per span name and item kind, over all traced passes,
    counting only the outermost span of each name."""
    from tracing import ITEM, NAME, PARENT, START, END

    out: dict = {}
    for span in tracer.spans:
        parent, nested = span[PARENT], False
        while parent >= 0 and not nested:
            nested = tracer.spans[parent][NAME] == span[NAME]
            parent = tracer.spans[parent][PARENT]
        if not nested:
            per_kind = out.setdefault(kinds[span[ITEM]], {})
            per_kind[span[NAME]] = per_kind.get(span[NAME], 0.0) + span[END] - span[START]
    return out


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "loop": "closed, one client, one item at a time",
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, contract: dict,
        cycles: int | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Run one workload; returns (printed lines, result line, full result).

    The untraced run does ``cycles`` cycles of items (by default as many as
    take about ``seconds``); the traced run alternates untraced and traced
    passes over the first few cycles until ``seconds`` have passed.
    """
    if cycles is None:
        cycles = PACE[workload][1] if trace else cycles_for(workload, seconds)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        items, own_setup = setup(workload, seed, cycles, Path(workdir))
        # the traced run reports no set-up time
        setup_runs = [own_setup] + [setup_in_child(workload, seed, seconds)
                                    for _ in range(0 if trace else setup_repeats - 1)]
        if trace:
            records, tracer, passes = traced_passes(items, seconds)
        else:
            records = run_pass(items, HostReference())

    why = {w["name"]: w["why"] for w in contract["workloads"]}[workload]
    lines = [f"workload {workload} seed {seed}: {why}"]
    result = {"environment": environment(workload, seed), "why": why,
              "setup_runs_s": setup_runs, "cycles": cycles,
              "items": len(items)}
    if trace:
        metrics = per_layer(tracer, passes, len(items))
        for m in contract["per_layer"]:   # layers this workload never calls
            metrics.setdefault(m["name"], (0.0, m["unit"]))
        kinds = {item.key: item.kind for item in items}
        result.update(passes=passes, time_by_kind=time_by_kind(tracer, kinds),
                      per_layer={k: v[0] for k, v in sorted(metrics.items())})
        lines += [f"{k} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
        wanted = contract["per_layer"]
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(records, setup_runs)
        result["end_to_end"] = {k: {"value": v, "unit": u, "note": note}
                                for k, (v, u, note) in metrics.items()}
        lines += [f"{k} {v:.6g} {u} ({note})" for k, (v, u, note) in metrics.items()]
        wanted = contract["end_to_end"]
    failures = sorted({(r.key, r.error, r.wrong) for r in records if r.error})
    result["failures"] = [{"item": k, "error": e, "known_defect": not w}
                          for k, e, w in failures]
    lines += [f"failed {k} ({'wrong' if w else 'known defect'}): {e}"
              for k, e, w in failures]
    line = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    result["line"] = line
    return lines, line, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "voliso" / "__init__.py").is_file():
        print(f"error: no voliso package under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
            cycles = cycles_for(args.workload, args.seconds)
            print(setup(args.workload, args.seed, cycles, Path(workdir))[1])
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    if args.workload not in PACE:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    lines, line, result = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), contract)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
