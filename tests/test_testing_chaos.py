"""Fault injection against the evaluation engine and the EMTS loop.

The contract under test: worker crashes, hangs, flaky exceptions and
interrupts never change the optimization outcome — recovery is
bit-identical to a fault-free run — and permanent failures surface as
:class:`~repro.exceptions.EvaluationError` with genome context.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import emts5, grelon, SyntheticModel
from repro.core import ProcessPoolEvaluator, SerialEvaluator
from repro.exceptions import EvaluationError
from repro.testing import (
    AlwaysFailFault,
    ChaosError,
    ChaosEvaluator,
    ChaosPlan,
    FlakyChunkFault,
    ProcessorCrashFault,
    SleepFault,
    WorkerKillFault,
    kill_one_worker,
    sample_indices,
)
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

PTG = generate_fft(4, rng=7)
CLUSTER = grelon()
MODEL = SyntheticModel()


@pytest.fixture(scope="module")
def table() -> TimeTable:
    return TimeTable.build(MODEL, PTG, CLUSTER)


@pytest.fixture(scope="module")
def genomes(table) -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    return [
        rng.integers(1, table.num_processors + 1, size=PTG.num_tasks)
        for _ in range(40)
    ]


@pytest.fixture(scope="module")
def expected(table, genomes) -> list[float]:
    serial = SerialEvaluator(PTG, table)
    try:
        return serial.evaluate(genomes)
    finally:
        serial.close()


# ----------------------------------------------------------------------
# pool-level recovery


def test_killed_worker_recovers_bit_identical(table, genomes, expected):
    """SIGKILL a live worker mid-run; the batch completes exactly."""
    pool = ProcessPoolEvaluator(PTG, table, workers=2, retry_backoff=0.0)
    try:
        pool._ensure_executor()
        first = pool.evaluate(genomes[:20])
        pid = kill_one_worker(pool)
        assert pid is not None
        second = pool.evaluate(genomes[20:])
        assert first + second == expected
        assert pool.stats.pool_rebuilds >= 1
        assert pool.stats.retries >= 1
    finally:
        pool.close()


def test_worker_suicide_fault_mid_batch(table, genomes, expected, tmp_path):
    """A worker killing itself mid-batch is recovered bit-identically."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        retry_backoff=0.0,
        fault_hook=WorkerKillFault(marker_dir=str(tmp_path), failures=1),
    )
    try:
        assert pool.evaluate(genomes) == expected
        assert pool.stats.pool_rebuilds >= 1
    finally:
        pool.close()


def test_flaky_chunks_within_retry_budget(table, genomes, expected, tmp_path):
    """Transient in-worker exceptions are retried and counted."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        retry_backoff=0.0,
        fault_hook=FlakyChunkFault(marker_dir=str(tmp_path), failures=2),
    )
    try:
        assert pool.evaluate(genomes) == expected
        assert pool.stats.retries >= 1
    finally:
        pool.close()


def test_exhausted_retries_raise_with_genome_indices(table, genomes):
    """Permanent failure names the genomes of the failing chunk."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        max_retries=1,
        retry_backoff=0.0,
        fault_hook=AlwaysFailFault(),
    )
    try:
        with pytest.raises(EvaluationError) as err:
            pool.evaluate(genomes)
        assert len(err.value.genome_indices) >= 1
        assert all(
            0 <= i < len(genomes) for i in err.value.genome_indices
        )
        assert "serial fallback" in str(err.value)
    finally:
        pool.close()


def test_serial_fallback_saves_run_after_retries(
    table, genomes, expected, tmp_path
):
    """More faults than retries: the serial fallback still succeeds."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        max_retries=1,
        retry_backoff=0.0,
        # kill budget far above what 1 retry can absorb: every pool
        # attempt dies, and only the in-driver serial fallback (where
        # the kill hook is inert) can finish the batch
        fault_hook=WorkerKillFault(marker_dir=str(tmp_path), failures=100),
    )
    try:
        assert pool.evaluate(genomes) == expected
    finally:
        pool.close()


def test_hung_worker_times_out_and_recovers(table, genomes, expected, tmp_path):
    """chunk_timeout converts a hang into a retriable failure."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        chunk_timeout=0.75,
        retry_backoff=0.0,
        fault_hook=SleepFault(
            marker_dir=str(tmp_path), failures=1, seconds=30.0
        ),
    )
    try:
        assert pool.evaluate(genomes) == expected
        assert pool.stats.retries >= 1
    finally:
        pool.close()


def test_kill_one_worker_is_noop_for_serial(table):
    serial = SerialEvaluator(PTG, table)
    assert kill_one_worker(serial) is None


# ----------------------------------------------------------------------
# ChaosEvaluator (driver-side injection)


def test_chaos_plan_sampled_is_seed_reproducible():
    a = ChaosPlan.sampled(42, 100, kill_rate=0.2, nan_rate=0.1)
    b = ChaosPlan.sampled(42, 100, kill_rate=0.2, nan_rate=0.1)
    assert a == b
    assert a.kill_batches  # 20 expected hits in 100 draws


def test_chaos_evaluator_nan_and_delay(table, genomes, expected):
    inner = SerialEvaluator(PTG, table)
    chaos = ChaosEvaluator(
        inner,
        ChaosPlan(
            nan_batches=frozenset({0}),
            delay_batches=frozenset({1}),
            delay_seconds=0.001,
        ),
    )
    try:
        first = chaos.evaluate(genomes[:5])
        assert np.isnan(first[0])
        assert first[1:] == expected[1:5]
        assert chaos.evaluate(genomes[5:10]) == expected[5:10]
        assert chaos.faults_injected == 2
    finally:
        chaos.close()


def test_chaos_evaluator_corruption(table, genomes, expected):
    chaos = ChaosEvaluator(
        SerialEvaluator(PTG, table),
        ChaosPlan(corrupt_batches=frozenset({0}), corrupt_factor=1.01),
    )
    try:
        first = chaos.evaluate(genomes[:5])
        # the first finite value is silently perturbed by 1% — the kind
        # of corruption only differential verification can catch (see
        # tests/test_verify.py::TestChaosCorruptionDetection)
        assert first[0] == pytest.approx(expected[0] * 1.01)
        assert first[1:] == expected[1:5]
        assert chaos.faults_injected == 1
        assert chaos.evaluate(genomes[:5]) == expected[:5]
    finally:
        chaos.close()


def test_chaos_plan_sampled_corrupt_rate():
    plan = ChaosPlan.sampled(7, 100, corrupt_rate=0.2, corrupt_factor=1.5)
    assert plan.corrupt_batches
    assert plan.corrupt_factor == 1.5
    assert plan == ChaosPlan.sampled(
        7, 100, corrupt_rate=0.2, corrupt_factor=1.5
    )


def test_chaos_evaluator_raise(table, genomes):
    chaos = ChaosEvaluator(
        SerialEvaluator(PTG, table),
        ChaosPlan(raise_batches=frozenset({0})),
    )
    try:
        with pytest.raises(ChaosError):
            chaos.evaluate(genomes[:5])
        # subsequent batches are clean
        assert chaos.evaluate(genomes[:5])
    finally:
        chaos.close()


def test_nan_fitness_degrades_to_rejection_in_emts():
    """An injected NaN discards one offspring; the run still finishes."""
    plan = ChaosPlan(nan_batches=frozenset({2}))
    result = emts5().schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=7,
        evaluator_wrapper=lambda ev: ChaosEvaluator(ev, plan),
    )
    assert not result.interrupted
    assert np.isfinite(result.makespan)
    assert result.makespan <= min(result.seed_makespans.values()) + 1e-12


# ----------------------------------------------------------------------
# shared sampling primitive and the straggler/crash fault extensions


def test_sample_indices_zero_rate_consumes_no_randomness():
    gen = np.random.default_rng(9)
    before = gen.bit_generator.state
    assert sample_indices(gen, 1000, 0.0) == frozenset()
    assert gen.bit_generator.state == before


def test_sample_indices_rate_one_selects_everything():
    gen = np.random.default_rng(9)
    assert sample_indices(gen, 10, 1.1) == frozenset(range(10))


def test_sample_indices_is_reproducible():
    a = sample_indices(np.random.default_rng(4), 200, 0.3)
    b = sample_indices(np.random.default_rng(4), 200, 0.3)
    assert a == b
    assert a  # 60 expected hits in 200 draws
    assert all(0 <= i < 200 for i in a)


def test_straggler_batch_delays_but_preserves_values(
    table, genomes, expected
):
    """Straggled results are correct, just late."""
    import time as _time

    chaos = ChaosEvaluator(
        SerialEvaluator(PTG, table),
        ChaosPlan(
            straggler_batches=frozenset({0}),
            straggler_seconds=0.05,
        ),
    )
    try:
        t0 = _time.perf_counter()
        first = chaos.evaluate(genomes[:5])
        elapsed = _time.perf_counter() - t0
        assert first == expected[:5]
        assert elapsed >= 0.05
        assert chaos.faults_injected == 1
        # subsequent batches are on time and clean
        assert chaos.evaluate(genomes[5:10]) == expected[5:10]
    finally:
        chaos.close()


def test_chaos_plan_sampled_straggler_rate():
    plan = ChaosPlan.sampled(
        5, 100, straggler_rate=0.2, straggler_seconds=0.25
    )
    assert plan.straggler_batches
    assert plan.straggler_seconds == 0.25
    assert plan == ChaosPlan.sampled(
        5, 100, straggler_rate=0.2, straggler_seconds=0.25
    )


def test_chaos_plan_straggler_sampling_is_backward_compatible():
    """Plans sampled before the straggler fault existed reproduce."""
    old = ChaosPlan.sampled(42, 100, kill_rate=0.2, nan_rate=0.1)
    new = ChaosPlan.sampled(
        42, 100, kill_rate=0.2, nan_rate=0.1, straggler_rate=0.3
    )
    assert old.kill_batches == new.kill_batches
    assert old.nan_batches == new.nan_batches


def test_processor_crash_fault_kills_planned_chunk_ordinals(
    table, genomes, expected, tmp_path
):
    """The worker drawing a planned ordinal dies; recovery completes."""
    pool = ProcessPoolEvaluator(
        PTG,
        table,
        workers=2,
        retry_backoff=0.0,
        fault_hook=ProcessorCrashFault(
            marker_dir=str(tmp_path), at_chunks=frozenset({1})
        ),
    )
    try:
        assert pool.evaluate(genomes) == expected
        assert pool.stats.pool_rebuilds >= 1
    finally:
        pool.close()


def test_processor_crash_fault_is_inert_in_driver(tmp_path):
    hook = ProcessorCrashFault(
        marker_dir=str(tmp_path), at_chunks=frozenset({0})
    )
    hook(None)  # driver pid: must neither kill nor claim an ordinal
    import os

    assert not os.listdir(tmp_path)


def test_processor_crash_fault_ordinals_are_atomic(tmp_path):
    """Each call claims a fresh ordinal, even across instances."""
    a = ProcessorCrashFault(
        marker_dir=str(tmp_path), at_chunks=frozenset(), driver_pid=-1
    )
    b = ProcessorCrashFault(
        marker_dir=str(tmp_path), at_chunks=frozenset(), driver_pid=-1
    )
    assert a._next_ordinal() == 0
    assert b._next_ordinal() == 1
    assert a._next_ordinal() == 2


# ----------------------------------------------------------------------
# the acceptance test: chaos determinism end to end


def test_chaos_run_bit_identical_to_fault_free(tmp_path, monkeypatch):
    """Worker kills + forced kernel fallback + interrupt/resume cycle
    reach the same final makespan as a fault-free serial run."""
    # force the numpy scheduling path in this process and (via the
    # inherited environment) in every pool worker
    from repro.mapping import _cscheduler

    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.setattr(_cscheduler, "_tried", True)
    monkeypatch.setattr(_cscheduler, "_lib", None)

    baseline = emts5(workers=0).schedule(PTG, CLUSTER, MODEL, rng=7)

    # segment 1: parallel run; a worker is killed before the batch of
    # generation 2 (batch 3), and an operator interrupt fires after the
    # batch of generation 3 (batch 4)
    path = tmp_path / "run.ckpt"
    stop = threading.Event()
    segment1 = ChaosEvaluator(
        inner=None,
        plan=ChaosPlan(
            kill_batches=frozenset({3}), stop_after_batch=4
        ),
        stop_event=stop,
    )

    def wrap1(ev):
        segment1.inner = ev
        return segment1

    partial = emts5(workers=2).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=7,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap1,
    )
    assert partial.interrupted
    assert segment1.faults_injected >= 1
    assert partial.evaluation_stats.pool_rebuilds >= 1

    # segment 2: resume under more worker kills; finishes the horizon
    segment2 = ChaosEvaluator(
        inner=None, plan=ChaosPlan(kill_batches=frozenset({0}))
    )

    def wrap2(ev):
        segment2.inner = ev
        return segment2

    resumed = emts5(workers=2).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=7,
        resume_from=path,
        evaluator_wrapper=wrap2,
    )
    assert not resumed.interrupted
    assert resumed.makespan == baseline.makespan
    assert np.array_equal(resumed.allocation, baseline.allocation)
    assert list(resumed.log.best_trajectory()) == list(
        baseline.log.best_trajectory()
    )
    assert resumed.evaluations == baseline.evaluations
