"""Draw-ahead batching: the same variates as drawing in turn, one worker
thread at most, and that thread gone when the estimator is done."""
import sys
import threading

import numpy as np
import pytest

from voliso import (BLSystem, Density1D, McParams, SubspaceSpec, WeightedLpGauge,
                    bl_ratio, cauchy_surface_area, gauge_integral_volume,
                    petty_functional, subspace_volume_ratio)
from voliso.brascamp_lieb import random_system
from voliso.sampling import BATCH, ROW_BLOCK, batches, matmul_rows
from voliso.shapes import cross_polytope, cube_vertices


def _estimators(count):
    system = random_system(2, 4, np.random.default_rng(0))
    densities = [Density1D.gaussian(1.0)] * 4
    spec = SubspaceSpec(np.random.default_rng(1).standard_normal((5, 2)), 1.5)
    mc = McParams(count, seed=3)
    return {
        "bl_ratio": lambda: bl_ratio(system, densities, mc),
        "subspace_volume_ratio": lambda: subspace_volume_ratio(spec, mc),
        "cauchy_surface_area": lambda: cauchy_surface_area(cube_vertices(3), mc),
        "petty_functional": lambda: petty_functional(cross_polytope(3), mc),
        "gauge_integral_volume": lambda: gauge_integral_volume(_ball_gauge(), mc),
    }


def _ball_gauge():
    return WeightedLpGauge(BLSystem(np.eye(3), np.ones(3)), 2.0)


def _uniform(rng, size):
    return rng.uniform(size=size)


@pytest.mark.parametrize("total", [1, BATCH, BATCH + 1, 3 * BATCH + 17])
def test_batches_draw_what_drawing_in_turn_draws(total):
    rng = np.random.default_rng(5)
    got = list(batches(rng, _uniform, total))
    reference = np.random.default_rng(5)
    sizes = [BATCH] * (total // BATCH) + ([total % BATCH] if total % BATCH else [])
    assert [len(b) for b in got] == sizes
    for batch, size in zip(got, sizes):
        assert np.array_equal(batch, reference.uniform(size=size))
    # nothing was drawn past the last batch
    assert rng.bit_generator.state == reference.bit_generator.state


def test_no_batches_for_no_samples():
    assert list(batches(np.random.default_rng(0), _uniform, 0)) == []


@pytest.mark.parametrize("name", sorted(_estimators(1)))
def test_one_batch_starts_no_thread(name, monkeypatch):
    starts = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or original(self))
    _estimators(BATCH)[name]()
    assert starts == []


@pytest.mark.parametrize("name", sorted(_estimators(1)))
def test_worker_is_joined_when_estimator_returns(name, monkeypatch):
    starts = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or original(self))
    baseline = threading.active_count()
    _estimators(2 * BATCH + 1)[name]()
    assert len(starts) == 1          # one worker for the whole estimate
    assert threading.active_count() == baseline


def test_worker_is_joined_when_evaluation_raises(monkeypatch):
    calls = []
    original = WeightedLpGauge.__call__

    def gauge(self, points):
        calls.append(len(points))
        if len(calls) == 3:          # the probe, one batch, then the second
            raise RuntimeError("gauge failed")
        return original(self, points)

    monkeypatch.setattr(WeightedLpGauge, "__call__", gauge)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="gauge failed"):
        gauge_integral_volume(_ball_gauge(), McParams(3 * BATCH))
    assert calls == [256, BATCH, BATCH]
    assert threading.active_count() == baseline


def test_error_in_draw_reaches_caller():
    def draw(rng, size):
        if draw.calls == 2:
            raise ValueError("draw failed")
        draw.calls += 1
        return rng.uniform(size=size)

    draw.calls = 0
    baseline = threading.active_count()
    seen = []
    with pytest.raises(ValueError, match="draw failed"):
        for batch in batches(np.random.default_rng(0), draw, 4 * BATCH):
            seen.append(len(batch))
    assert seen == [BATCH, BATCH]
    assert threading.active_count() == baseline


def test_concurrent_calls_give_their_sequential_estimates():
    # more callers than cores, each with its own worker, switching threads
    # often: every call must still read its own stream in order
    system = random_system(3, 5, np.random.default_rng(4))
    densities = [Density1D.gaussian(1.0)] * 5
    seeds = range(4)
    expected = [bl_ratio(system, densities, McParams(3 * BATCH + 17, s))
                for s in seeds]
    got = {}

    def call(seed):
        got[seed] = bl_ratio(system, densities, McParams(3 * BATCH + 17, seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [got[s] for s in seeds] == expected


@pytest.mark.parametrize("rows", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2,
                                  3 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
def test_matmul_rows_matches_one_product(rows):
    rng = np.random.default_rng(rows)
    a = rng.standard_normal((rows, 7))
    b = rng.standard_normal((3, 7))
    c = rng.standard_normal(7)
    assert np.array_equal(matmul_rows(a, b.T), a @ b.T)
    assert np.array_equal(matmul_rows(a, c), a @ c)
