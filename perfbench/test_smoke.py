"""Smoke test of the benchmark on one cycle of items per workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
         "item_tail_ms": "ms", "fail_share": "share", "mc_s_at_rse_1e-3": "s",
         "peak_rss_mb": "MB"}


@pytest.mark.parametrize("workload", sorted(run.PACE))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, line, _ = run.run(workload, seed=1, seconds=0.0, trace=False,
                             contract=CONTRACT, cycles=1, setup_repeats=1)
    printed = {parts[0]: parts[2] for parts in (l.split() for l in lines[1:])
               if len(parts) > 2}
    for name, unit in UNITS.items():
        assert printed.get(name) == unit, name
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == {
        name: value["unit"] for name, value in line["metrics"].items()}
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(run.PACE))
def test_traced_self_times_fit_in_the_item_time(workload):
    _, line, result = run.run(workload, seed=1, seconds=0.0, trace=True,
                              contract=CONTRACT, cycles=1)
    layers = result["per_layer"]
    assert 0.0 < layers["trace.self_s"] <= layers["trace.item_s"]
    assert {m["name"] for m in CONTRACT["per_layer"]} == set(line["metrics"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "john-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_changed_report_of_a_repeated_cli_call_fails_its_check(tmp_path):
    items = workloads.build("cli-reports", 1, tmp_path, 2 * workloads.CLI_SETS + 1)
    first = next(item for item in items if item.kind == "cli-reviso")
    same, changed = [item for item in items
                     if item.key == first.key and item is not first]
    code, text = first.run()
    first.check((code, text))
    same.check((code, text))
    with pytest.raises(workloads.CheckError):
        changed.check((code, text + " "))


def _raising(error):
    def run_item():
        raise error
    return run_item


def test_only_known_defects_may_raise_in_a_correct_run():
    known = run.run_item(workloads.Item(
        "vrep-6-000", "vrep-6", _raising(RuntimeError("QH6271 qhull error")), None))
    assert known.error and not known.wrong
    other = run.run_item(workloads.Item(
        "general-5-000", "general-5", _raising(RuntimeError("QH6271 qhull error")), None))
    assert other.error and other.wrong
    for residual, wrong in (("1.279e-07", False), ("3.000e-03", True)):
        error = workloads.CliError(f"error: decomposition residual {residual} "
                                   "exceeds 1.0e-08; contact set looks incomplete")
        record = run.run_item(workloads.Item(
            "john-0-0", "cli-john", _raising(error), None))
        assert record.error and record.wrong is wrong
