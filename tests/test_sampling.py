"""Per-batch streams on a thread pool: batch 0 reads the estimator's own
generator, batch k >= 1 a stream spawned from the seed, results come back in
batch order whatever the pool size, and the pool is gone when the estimator
is done."""
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from voliso import (BLSystem, Density1D, Estimate, McParams, SubspaceSpec,
                    WeightedLpGauge, bl_ratio, cauchy_surface_area,
                    gauge_integral_volume, petty_functional, subspace_volume_ratio)
from voliso import sampling
from voliso.brascamp_lieb import random_system
from voliso.sampling import (BATCH, ROW_BLOCK, RunningMean, StudentTProposal,
                             map_batches, row_blocks, sample_mean, sphere_points)
from voliso.shapes import cross_polytope, cube_vertices, regular_polygon

SRC = Path(__file__).resolve().parents[1] / "src"


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


def _record_starts(monkeypatch):
    starts = []
    original = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or original(self))
    return starts


@pytest.mark.parametrize("total", [1, BATCH, BATCH + 1, 3 * BATCH + 17])
def test_batches_draw_what_drawing_in_turn_draws(total):
    # batch 0 from the seeded generator, batch k >= 1 from the k-th spawned
    # child, each the variates of drawing its own stream in turn
    got = list(map_batches(5, _uniform, total))
    sizes = [BATCH] * (total // BATCH) + ([total % BATCH] if total % BATCH else [])
    assert [len(b) for b in got] == sizes
    children = np.random.SeedSequence(5).spawn(len(sizes) - 1)
    streams = [np.random.default_rng(5)] + [np.random.default_rng(c) for c in children]
    for batch, stream, size in zip(got, streams, sizes):
        assert np.array_equal(batch, stream.uniform(size=size))


def test_batch_zero_continues_the_given_generator():
    rng = np.random.default_rng(8)
    rng.uniform(size=3)
    reference = np.random.default_rng(8)
    reference.uniform(size=3)
    first = next(iter(map_batches(8, _uniform, 2 * BATCH, rng)))
    assert np.array_equal(first, reference.uniform(size=BATCH))
    # nothing was drawn from it past batch 0
    assert rng.bit_generator.state == reference.bit_generator.state


def test_no_batches_for_no_samples():
    assert list(map_batches(0, _uniform, 0)) == []


@pytest.mark.parametrize("name", ["bl_ratio", "cauchy_surface_area",
                                  "gauge_integral_volume", "petty_functional"])
def test_one_batch_draws_the_variates_of_the_seeded_generator(name, monkeypatch):
    # a one-batch estimate reads np.random.default_rng(seed) as one stream
    # did before the pool: the gauge integral after its probe directions
    # (subspace_volume_ratio is the gauge integral of a Lewis position)
    draws, proposals = [], []
    original_sample = StudentTProposal.sample

    def sample(self, rng, count):
        proposals.append(self)
        X, log_q = original_sample(self, rng, count)
        draws.append(X)
        return X, log_q

    def points(rng, count, dim):
        draws.append(sphere_points(rng, count, dim))
        return draws[-1]

    monkeypatch.setattr(StudentTProposal, "sample", sample)
    monkeypatch.setattr("voliso.measures.sphere_points", points)
    monkeypatch.setattr("voliso.lp_spaces.sphere_points", points)
    _estimators(1000)[name]()
    rng = np.random.default_rng(3)
    if name in ("cauchy_surface_area", "petty_functional"):
        expected = [sphere_points(rng, 1000, 3)]
    else:
        expected = [] if name == "bl_ratio" else [sphere_points(rng, 256, draws[0].shape[1])]
        expected.append(original_sample(proposals[0], rng, 1000)[0])
    assert len(draws) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(draws, expected))


@pytest.mark.parametrize("name", sorted(_estimators(1)))
def test_one_batch_starts_no_thread(name, monkeypatch):
    starts = _record_starts(monkeypatch)
    _estimators(BATCH)[name]()
    assert starts == []


@pytest.mark.parametrize("name", sorted(_estimators(1)))
def test_pool_size_does_not_change_the_bits(name, monkeypatch):
    estimate = _estimators(3 * BATCH + 17)[name]
    default = estimate()
    for cpus in (1, 3):
        monkeypatch.setattr(sampling, "available_cpus", lambda cpus=cpus: cpus)
        assert estimate() == default


_BLAS_SCRIPT = """
import numpy as np
from voliso import (Density1D, McParams, SubspaceSpec, bl_ratio,
                    cauchy_surface_area, petty_functional, subspace_volume_ratio)
from voliso.brascamp_lieb import random_system
from voliso.shapes import cross_polytope, cube_vertices
mc = McParams(3 * 65536 + 17, seed=4)
for d, m in ((2, 4), (3, 7), (6, 14)):
    system = random_system(d, m, np.random.default_rng(d))
    print(repr(bl_ratio(system, [Density1D.gaussian(1.0 + 0.1 * i)
                                 for i in range(m)], mc)))
spec = SubspaceSpec(np.random.default_rng(1).standard_normal((12, 5)), 1.5)
print(repr(subspace_volume_ratio(spec, mc)))
print(repr(cauchy_surface_area(cube_vertices(4), mc)))
print(repr(petty_functional(cross_polytope(3), mc)))
"""


def test_blas_threads_do_not_change_the_bits():
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + sys.path)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6


@pytest.mark.parametrize("name", sorted(_estimators(1)))
def test_worker_is_joined_when_estimator_returns(name, monkeypatch):
    # the pool has min(batches, CPUs) threads; 3 CPUs are claimed so that a
    # pool starts on any machine
    monkeypatch.setattr(sampling, "available_cpus", lambda: 3)
    starts = _record_starts(monkeypatch)
    baseline = threading.active_count()
    _estimators(2 * BATCH + 1)[name]()
    assert 1 <= len(starts) <= 3
    assert not any(thread.is_alive() for thread in starts)
    assert threading.active_count() == baseline


def test_worker_is_joined_when_evaluation_raises(monkeypatch):
    monkeypatch.setattr(sampling, "available_cpus", lambda: 2)
    calls = []
    original = WeightedLpGauge.__call__

    def gauge(self, points):
        calls.append(len(points))
        if len(calls) == 3:          # the probe, one block, then the next
            raise RuntimeError("gauge failed")
        return original(self, points)

    monkeypatch.setattr(WeightedLpGauge, "__call__", gauge)
    starts = _record_starts(monkeypatch)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="gauge failed"):
        gauge_integral_volume(_ball_gauge(), McParams(3 * BATCH))
    assert calls[0] == 256 and len(calls) >= 3
    assert not any(thread.is_alive() for thread in starts)
    assert threading.active_count() == baseline


def test_error_in_draw_reaches_caller(monkeypatch):
    monkeypatch.setattr(sampling, "available_cpus", lambda: 2)

    def draw(rng, size):
        if size == 17:               # the last batch
            raise ValueError("draw failed")
        return rng.uniform(size=size)

    baseline = threading.active_count()
    seen = []
    with pytest.raises(ValueError, match="draw failed"):
        for batch in map_batches(0, draw, 3 * BATCH + 17):
            seen.append(len(batch))
    assert seen == [BATCH] * 3
    assert threading.active_count() == baseline


def test_worker_is_joined_when_caller_stops_early(monkeypatch):
    monkeypatch.setattr(sampling, "available_cpus", lambda: 2)
    starts = _record_starts(monkeypatch)
    evaluated = []

    def batch(stream, size):
        evaluated.append(size)
        return _uniform(stream, size)

    baseline = threading.active_count()
    batches = map_batches(0, batch, 20 * BATCH)
    assert len(next(batches)) == BATCH
    batches.close()
    assert len(starts) == 2
    assert not any(thread.is_alive() for thread in starts)
    assert threading.active_count() == baseline
    # at most one batch per thread was in flight past the one taken
    assert len(evaluated) <= 3


def test_a_free_thread_takes_the_next_batch(monkeypatch):
    # batch 0 waits for batch 2 to be drawn: on two threads, the thread that
    # finished batch 1 has to start batch 2 while batch 0 is still running
    monkeypatch.setattr(sampling, "available_cpus", lambda: 2)
    rng = np.random.default_rng(0)
    batch_two_drawn = threading.Event()
    waited = []

    def draw(stream, size):
        if stream is rng:
            waited.append(batch_two_drawn.wait(5.0))
        elif size == 1:
            batch_two_drawn.set()
        return stream.uniform(size=size)

    sizes = [len(b) for b in map_batches(0, draw, 2 * BATCH + 1, rng)]
    assert sizes == [BATCH, BATCH, 1]
    assert waited == [True]


def test_concurrent_calls_give_their_sequential_estimates():
    # more callers than cores, each with its own pool, switching threads
    # often: every call must still read its own streams
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


def _column(rng, size):
    return rng.uniform(size=(size, 1))


@pytest.mark.parametrize("total", [1, ROW_BLOCK + 1, BATCH + 1, 3 * BATCH + 17])
def test_sample_mean_hands_the_integrand_row_blocks_in_order(total, monkeypatch):
    # one CPU, so the blocks are recorded in the order they are evaluated
    monkeypatch.setattr(sampling, "available_cpus", lambda: 1)
    blocks, added, calls = [], [], []

    class Recorded(RunningMean):
        def add(self, values):
            added.append(np.array(values))
            super().add(values)

    monkeypatch.setattr(sampling, "RunningMean", Recorded)

    def draw(rng, size):
        calls.append(("draw", size))
        return _column(rng, size)

    def integrand(X):
        calls.append(("integrand", len(X)))
        blocks.append(X[:, 0].copy())
        return X[:, 0]

    est = sample_mean(McParams(total, seed=5), draw, integrand)
    batches = [X[:, 0] for X in map_batches(5, _column, total)]
    # each batch is cut into blocks of at most ROW_BLOCK rows, or ROW_BLOCK + 1
    # when it ends one row past a block, and never ends on a one-row block
    # after a longer one
    sizes = [len(b) for b in blocks]
    start = 0
    for batch in batches:
        stop, rows = start, 0
        while rows < len(batch):
            rows += sizes[stop]
            stop += 1
        assert rows == len(batch)
        inner = sizes[start:stop]
        limit = ROW_BLOCK + (len(batch) % ROW_BLOCK == 1)
        assert all(size <= limit for size in inner)
        assert all(size <= ROW_BLOCK for size in inner[:-1])
        assert inner[-1] > 1 or len(inner) == 1
        start = stop
    assert start == len(blocks)
    # each block is drawn just before its integrand runs
    assert calls == [(name, size) for size in sizes
                     for name in ("draw", "integrand")]
    # the blocks tile the batches in order, and their values come back to
    # their rows: each batch array folded is the batch itself
    assert np.array_equal(np.concatenate(blocks), np.concatenate(batches))
    assert len(added) == len(batches)
    assert all(np.array_equal(a, b) for a, b in zip(added, batches))
    expected = RunningMean()
    for batch in batches:
        expected.add(batch)
    assert (est.samples, est.value, est.std_error) == (
        expected.count, expected.mean, expected.std_error)


def test_logpdf_matches_the_sum_of_log1p():
    proposal = StudentTProposal(dim=5, scale=1.3)
    x, _ = proposal.sample(np.random.default_rng(9), 10_000)
    df = 4.0
    const = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
             - 0.5 * math.log(df * math.pi) - math.log(1.3))
    reference = 5 * const - 0.5 * (df + 1) * np.log1p((x / 1.3) ** 2 / df).sum(axis=1)
    np.testing.assert_allclose(proposal.logpdf(x), reference, rtol=1e-13, atol=1e-13)


def _medians(rng, count, dim):
    """B, the median of the three uniforms behind each coordinate, read as
    ``StudentTProposal.sample`` reads them."""
    return np.median(rng.random((3, count, dim)), axis=0)


def test_logpdf_of_a_sample_is_its_beta_form():
    # 1 + z^2 / 4 = 1 / (4 B (1 - B)) for z = (2B - 1) / sqrt(B (1 - B)), so
    # the t4 density at a sample is d const + (5/2) sum log(4 B (1 - B)); a
    # wrong scale or law in either function breaks the equality
    proposal = StudentTProposal(dim=4, scale=1.7)
    x, _ = proposal.sample(np.random.default_rng(37), 20_000)
    B = _medians(np.random.default_rng(37), 20_000, 4)
    df = 4.0
    const = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
             - 0.5 * math.log(df * math.pi) - math.log(1.7))
    expected = 4 * const + 2.5 * np.log(4.0 * B * (1.0 - B)).sum(axis=1)
    np.testing.assert_allclose(proposal.logpdf(x), expected, rtol=0.0, atol=1e-12)


def test_sample_coordinates_follow_t4():
    # seed and p-value floor fixed before the first run
    proposal = StudentTProposal(dim=4, scale=1.3)
    x = proposal.sample(np.random.default_rng(23), 1 << 16)[0] / 1.3
    for column in x.T:
        assert stats.kstest(column, stats.t(4).cdf).pvalue >= 1e-3


def test_sample_reads_three_uniforms_per_coordinate():
    proposal = StudentTProposal(dim=3, scale=1.3)
    rng = np.random.default_rng(31)
    x, _ = proposal.sample(rng, 1000)
    reference = np.random.default_rng(31)
    B = _medians(reference, 1000, 3)
    np.testing.assert_allclose(x, 1.3 * (2.0 * B - 1.0) / np.sqrt(B * (1.0 - B)),
                               rtol=1e-14, atol=0.0)
    assert rng.bit_generator.state == reference.bit_generator.state


class _ZeroUniforms:
    """A generator whose uniforms are all 0."""

    def random(self, size):
        return np.zeros(size)


def test_zero_uniforms_give_finite_coordinates():
    # a median B = 0 would give -inf: it is read as the least positive
    # uniform, 2^-53, with no warning and a finite density
    proposal = StudentTProposal(dim=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, drawn = proposal.sample(_ZeroUniforms(), 5)
        log_q = proposal.logpdf(x)
    least = 2.0 ** -53
    assert x.shape == (5, 3)
    np.testing.assert_allclose(x, 1.5 * (2.0 * least - 1.0) / math.sqrt(least * (1.0 - least)),
                               rtol=1e-14)
    assert np.all(np.isfinite(log_q))
    # the log density the draw carries holds at the clamp too
    np.testing.assert_allclose(drawn, log_q, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim, scale", [(1, 0.7), (2, 1.5), (3, 1.5), (6, 2.4)])
def test_the_draw_carries_the_log_density_of_its_rows(dim, scale):
    # log_q from 4 B (1 - B) is logpdf at the drawn rows up to rounding,
    # over a block and a block plus one row
    proposal = StudentTProposal(dim=dim, scale=scale)
    rng = np.random.default_rng(41)
    for count in (ROW_BLOCK, ROW_BLOCK + 1):
        x, log_q = proposal.sample(rng, count)
        assert log_q.shape == (count,)
        np.testing.assert_allclose(log_q, proposal.logpdf(x), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_sphere_points_drawn_per_block_are_the_rows_of_one_draw(dim):
    # why per-block draws left the Cauchy and Petty estimates' bits alone
    for rows in (ROW_BLOCK + 2, BATCH):
        whole = sphere_points(np.random.default_rng(dim), rows, dim)
        stream = np.random.default_rng(dim)
        blocks = [sphere_points(stream, hi - lo, dim) for lo, hi in row_blocks(rows)]
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate(blocks), whole)


def test_running_mean_variance_matches_two_passes():
    # the Petty integrand on the 720-gon: values near a constant, where
    # E[x^2] - E[x]^2 cancels to a relative error of about 1e-6
    V = regular_polygon(720)
    from voliso.measures import _shadows
    thetas = sphere_points(np.random.default_rng(16), 3 * BATCH + 17, 2)
    values = _shadows(V, thetas) ** -2.0
    acc = RunningMean()
    for lo in range(0, len(values), BATCH):
        acc.add(values[lo:lo + BATCH])
    assert acc.count == len(values)
    assert acc.mean == sum(float(values[lo:lo + BATCH].sum())
                           for lo in range(0, len(values), BATCH)) / len(values)
    reference = math.sqrt(np.var(values) / (len(values) - 1))
    assert abs(acc.std_error - reference) <= 1e-12 * reference


def test_running_mean_of_one_value_has_no_error():
    acc = RunningMean()
    acc.add(np.array([2.5]))
    acc.add(np.array([]))
    assert acc.mean == 2.5 and acc.std_error == math.inf


# a std_error of 1/4 makes 3 sigma exactly 3/4, so every gate below sits on a
# dyadic edge: the value 1 = bound +- 3 sigma passes, the next float past fails
_UP, _DOWN = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)


@pytest.mark.parametrize("gate, bound, past", [
    ("at_most", 0.25, _UP),
    ("at_least", 1.75, _DOWN),
    ("agrees_with", 0.25, _UP),
    ("agrees_with", 1.75, _DOWN),
])
def test_gates_pass_at_three_sigma_and_fail_one_float_past(gate, bound, past):
    assert getattr(Estimate(1.0, 0.25, 1000), gate)(bound) is True
    assert getattr(Estimate(past, 0.25, 1000), gate)(bound) is False
