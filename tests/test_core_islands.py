"""Island-model EMTS: sharding invariance, migration, checkpointing.

The island model's central contract: the logical decomposition is fixed
at ``mu`` single-parent islands, so the ``islands`` execution parameter
(and the worker count, and the kernel backend) never changes the
result — same-seed runs are bit-identical for any shard count.  Ring
migration and per-island RNG streams are deterministic, checkpoints
capture the island RNG states, and worker crashes recover without
perturbing the trajectory.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import emts5, grelon, SyntheticModel
from repro.core import EMTSConfig
from repro.core.checkpoint import (
    Checkpoint,
    load_checkpoint,
    verify_resumable,
)
from repro.core.config import emts5_config
from repro.core.islands import IslandStrategy, island_offspring_counts
from repro.exceptions import CheckpointError, ConfigurationError
from repro.testing import ChaosEvaluator, ChaosPlan
from repro.timemodels import TimeTable
from repro.workloads import generate_fft

PTG = generate_fft(4, rng=7)
CLUSTER = grelon()
MODEL = SyntheticModel()
SEED = 20110926


@pytest.fixture(scope="module")
def classic_result():
    return emts5().schedule(PTG, CLUSTER, MODEL, rng=SEED)


@pytest.fixture(scope="module")
def island_result():
    return emts5(islands=1).schedule(PTG, CLUSTER, MODEL, rng=SEED)


def _assert_identical(a, b):
    assert a.makespan == b.makespan
    assert np.array_equal(a.allocation, b.allocation)
    assert list(a.log.best_trajectory()) == list(b.log.best_trajectory())
    assert a.evaluations == b.evaluations


# ----------------------------------------------------------------------
# offspring split


def test_offspring_counts_sum_and_spread():
    counts = island_offspring_counts(25, 5)
    assert counts == [5, 5, 5, 5, 5]
    counts = island_offspring_counts(27, 5)
    assert counts == [6, 6, 5, 5, 5]
    assert sum(island_offspring_counts(100, 7)) == 100
    assert max(island_offspring_counts(100, 7)) - min(
        island_offspring_counts(100, 7)
    ) <= 1


def test_strategy_validation():
    from repro.ea import UniformIntegerMutation

    op = UniformIntegerMutation(1, CLUSTER.num_processors)
    with pytest.raises(ConfigurationError):
        IslandStrategy(0, 5, op)
    with pytest.raises(ConfigurationError):
        IslandStrategy(5, 4, op)  # lam < mu
    with pytest.raises(ConfigurationError):
        IslandStrategy(5, 25, op, migration_interval=0)
    with pytest.raises(ConfigurationError):
        IslandStrategy(5, 25, op, shards=0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=-1)
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=1, migration_interval=0)
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=2, selection="comma")
    with pytest.raises(ConfigurationError):
        EMTSConfig(islands=2, mu=10, lam=5)


# ----------------------------------------------------------------------
# shard-count / worker / backend invariance


@pytest.mark.parametrize("shards", [2, 4, 5])
def test_shard_count_is_pure_execution_knob(island_result, shards):
    other = emts5(islands=shards).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, other)


def test_worker_count_invariance(island_result):
    pooled = emts5(islands=2, workers=2).schedule(
        PTG, CLUSTER, MODEL, rng=SEED
    )
    _assert_identical(island_result, pooled)


def test_numpy_backend_invariance(island_result, monkeypatch):
    """REPRO_NO_CKERNEL=1 (numpy scheduling path) is bit-identical."""
    from repro.mapping import _cscheduler

    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.setattr(_cscheduler, "_tried", True)
    monkeypatch.setattr(_cscheduler, "_lib", None)
    fallback = emts5(islands=3).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, fallback)


def test_island_mode_is_a_different_trajectory(
    classic_result, island_result
):
    """islands=0 (panmictic) and island mode are both deterministic but
    follow different search trajectories; the island best can never be
    worse than its heuristic seeds (plus selection is elitist)."""
    assert island_result.makespan <= min(
        island_result.seed_makespans.values()
    )
    # determinism of each mode separately
    again = emts5(islands=1).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    _assert_identical(island_result, again)


def test_migration_interval_changes_trajectory():
    every = emts5(islands=1).schedule(PTG, CLUSTER, MODEL, rng=SEED)
    never = emts5(islands=1, migration_interval=100).schedule(
        PTG, CLUSTER, MODEL, rng=SEED
    )
    # both deterministic; isolation without migration may only do worse
    # or equal on this seeded, elitist setup
    assert never.makespan >= every.makespan
    again = emts5(islands=1, migration_interval=100).schedule(
        PTG, CLUSTER, MODEL, rng=SEED
    )
    _assert_identical(never, again)


# ----------------------------------------------------------------------
# chaos: worker kills must not perturb the island trajectory


def test_island_run_survives_worker_kills_bit_identical(island_result):
    chaos = ChaosEvaluator(
        inner=None, plan=ChaosPlan(kill_batches=frozenset({2, 5}))
    )

    def wrap(ev):
        chaos.inner = ev
        return chaos

    survived = emts5(islands=2, workers=2).schedule(
        PTG, CLUSTER, MODEL, rng=SEED, evaluator_wrapper=wrap
    )
    assert chaos.faults_injected >= 1
    assert survived.evaluation_stats.pool_rebuilds >= 1
    _assert_identical(island_result, survived)


# ----------------------------------------------------------------------
# checkpoint / resume


def test_island_checkpoint_resume_bit_identical(
    island_result, tmp_path
):
    path = tmp_path / "island.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    partial = emts5(islands=2).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    assert partial.interrupted
    resumed = emts5(islands=4).schedule(
        PTG, CLUSTER, MODEL, rng=SEED, resume_from=path
    )
    assert not resumed.interrupted
    _assert_identical(island_result, resumed)


def test_island_checkpoint_records_rng_streams(tmp_path):
    path = tmp_path / "island.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5(islands=1).schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    assert ckpt.island_rng_states is not None
    assert len(ckpt.island_rng_states) == 5  # EMTS5 mu
    rngs = ckpt.restore_island_rngs()
    assert len(rngs) == 5
    assert all(isinstance(g, np.random.Generator) for g in rngs)
    assert ckpt.config["island_mode"] is True


def test_classic_checkpoint_refuses_island_resume(tmp_path):
    """A panmictic checkpoint cannot seed an island-mode run (and the
    reverse direction is refused by the semantic-config gate)."""
    path = tmp_path / "classic.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5().schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    assert ckpt.island_rng_states is None
    assert ckpt.restore_island_rngs() is None
    assert ckpt.config["island_mode"] is False
    with pytest.raises(CheckpointError):
        emts5(islands=2).schedule(
            PTG, CLUSTER, MODEL, rng=SEED, resume_from=path
        )


def test_semantic_config_defaults_accept_pre_island_checkpoints(
    tmp_path
):
    """Checkpoints written before the island fields existed must stay
    resumable: missing keys compare against the documented defaults."""
    path = tmp_path / "old.ckpt"
    stop = threading.Event()
    segment = ChaosEvaluator(
        inner=None, plan=ChaosPlan(stop_after_batch=2), stop_event=stop
    )

    def wrap(ev):
        segment.inner = ev
        return segment

    emts5().schedule(
        PTG,
        CLUSTER,
        MODEL,
        rng=SEED,
        checkpoint_path=path,
        stop_event=stop,
        evaluator_wrapper=wrap,
    )
    ckpt = load_checkpoint(path)
    # simulate a pre-island checkpoint: drop the new semantic keys
    stripped = {
        k: v
        for k, v in ckpt.config.items()
        if k not in ("island_mode", "migration_interval")
    }
    old = Checkpoint(**{**ckpt.__dict__, "config": stripped})
    table = TimeTable.build(MODEL, PTG, CLUSTER)
    verify_resumable(old, emts5_config(), PTG, table)  # must not raise
    # ... but an island-mode run still refuses the stripped checkpoint
    with pytest.raises(CheckpointError):
        verify_resumable(
            old, emts5_config().with_updates(islands=2), PTG, table
        )
