"""Deterministic chaos injection for the fitness-evaluation engine.

Two attack surfaces, matching the two layers of the evaluation stack:

* :class:`ChaosEvaluator` wraps a built evaluator (serial, pool or
  memoized) in the *driver* process and injects faults on a per-batch
  schedule (:class:`ChaosPlan`): kill a live pool worker, delay the
  dispatch, raise an exception, corrupt a returned fitness to NaN, or
  trip a stop event to simulate an operator interrupt.

* Picklable fault hooks (:class:`FlakyChunkFault`,
  :class:`WorkerKillFault`, :class:`AlwaysFailFault`,
  :class:`SleepFault`) ride into pool *worker* processes via
  :class:`~repro.core.evaluator.ProcessPoolEvaluator`'s ``fault_hook``
  parameter and detonate before a chunk is evaluated.  Cross-process
  fault counting uses ``O_CREAT | O_EXCL`` marker files, the only
  atomic coordination primitive that survives worker restarts.

Everything is deterministic: faults fire at planned batch/chunk
indices, never at random moments, so a chaos test reproduces exactly.
Batch indices in an EMTS run: batch 0 evaluates the heuristic seeds,
batch 1 the initial population, batch ``k >= 2`` the offspring of
generation ``k - 1``.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._rng import sample_indices
from ..core.evaluator import FitnessEvaluator, ProcessPoolEvaluator

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosEvaluator",
    "FlakyChunkFault",
    "WorkerKillFault",
    "ProcessorCrashFault",
    "AlwaysFailFault",
    "SleepFault",
    "kill_one_worker",
    "sample_indices",
]


class ChaosError(RuntimeError):
    """The exception type raised by every injected fault.

    A distinct type so tests can assert that a propagated failure is
    the *injected* one and not collateral damage.
    """


def _find_pool(evaluator) -> ProcessPoolEvaluator | None:
    """Locate the ProcessPoolEvaluator inside a wrapped evaluator stack."""
    seen: set[int] = set()
    obj = evaluator
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        if isinstance(obj, ProcessPoolEvaluator):
            return obj
        obj = getattr(obj, "inner", None)
    return None


def kill_one_worker(evaluator, timeout: float = 10.0) -> int | None:
    """SIGKILL one live worker of the evaluator's process pool.

    Walks ``.inner`` wrappers to find the
    :class:`~repro.core.evaluator.ProcessPoolEvaluator`, starts its pool
    if necessary, and kills the first worker process.  Returns the
    killed PID, or ``None`` when the stack contains no pool (serial
    evaluators have no workers to kill — a no-op by design, so one
    chaos plan runs unchanged against every backend).

    Blocks (up to ``timeout`` seconds) until the executor has *noticed*
    the death and flagged itself broken.  Without this wait the fault
    is nondeterministic: a surviving worker can drain the next batch
    before the pool is marked broken, and no recovery happens at all.
    """
    pool = _find_pool(evaluator)
    if pool is None:
        return None
    executor = pool._ensure_executor()
    processes = list(getattr(executor, "_processes", {}).values())
    if not processes:
        return None
    victim = processes[0]
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if getattr(executor, "_broken", True):
            break
        time.sleep(0.005)
    return victim.pid


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic fault schedule, keyed by evaluation-batch index.

    Attributes
    ----------
    kill_batches:
        Before dispatching these batches, SIGKILL one pool worker
        (no-op for serial backends).
    delay_batches:
        Sleep ``delay_seconds`` before dispatching these batches.
    raise_batches:
        Raise :class:`ChaosError` instead of dispatching these batches.
    nan_batches:
        Corrupt the first fitness value of these batches to NaN after
        evaluation (models a poisoned result reaching the driver).
    corrupt_batches:
        Multiply the first *finite* fitness value of these batches by
        ``corrupt_factor`` after evaluation — a silently wrong makespan,
        the exact failure mode a miscompiled or bit-flipped scheduling
        kernel would produce.  Undetectable without differential
        verification (the value stays plausible), which is what
        :class:`repro.verify.VerifyingEvaluator` exists to catch.
    corrupt_factor:
        Multiplier applied by ``corrupt_batches`` (close to 1.0 on
        purpose: a *near*-correct value is the hardest corruption).
    delay_seconds:
        Length of each injected delay.
    straggler_batches:
        Sleep ``straggler_seconds`` *after* evaluating these batches —
        the results are correct but arrive late, a straggling worker
        rather than a slow dispatch.  Together with ``delay_batches``
        this brackets a batch's latency from both sides.
    straggler_seconds:
        Length of each injected straggler stall.
    stop_after_batch:
        After completing this batch index, set the evaluator's stop
        event — simulates an operator interrupt at a deterministic
        point of the run.
    """

    kill_batches: frozenset = frozenset()
    delay_batches: frozenset = frozenset()
    raise_batches: frozenset = frozenset()
    nan_batches: frozenset = frozenset()
    corrupt_batches: frozenset = frozenset()
    corrupt_factor: float = 1.01
    delay_seconds: float = 0.01
    straggler_batches: frozenset = frozenset()
    straggler_seconds: float = 0.01
    stop_after_batch: int | None = None

    @classmethod
    def sampled(
        cls,
        rng: np.random.Generator | int,
        num_batches: int,
        kill_rate: float = 0.0,
        delay_rate: float = 0.0,
        raise_rate: float = 0.0,
        nan_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        corrupt_factor: float = 1.01,
        delay_seconds: float = 0.01,
        straggler_rate: float = 0.0,
        straggler_seconds: float = 0.01,
    ) -> "ChaosPlan":
        """Draw a random (but seed-reproducible) plan.

        Each batch index in ``range(num_batches)`` is independently
        assigned each fault type with the given rate.  Pass an integer
        seed to make the plan a pure function of the seed.  Zero-rate
        fault types consume no randomness, so a plan sampled before the
        straggler fault existed reproduces unchanged.
        """
        gen = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        return cls(
            kill_batches=sample_indices(gen, num_batches, kill_rate),
            delay_batches=sample_indices(gen, num_batches, delay_rate),
            raise_batches=sample_indices(gen, num_batches, raise_rate),
            nan_batches=sample_indices(gen, num_batches, nan_rate),
            corrupt_batches=sample_indices(
                gen, num_batches, corrupt_rate
            ),
            corrupt_factor=corrupt_factor,
            delay_seconds=delay_seconds,
            straggler_batches=sample_indices(
                gen, num_batches, straggler_rate
            ),
            straggler_seconds=straggler_seconds,
        )


@dataclass
class ChaosEvaluator:
    """Wrap a fitness evaluator and execute a :class:`ChaosPlan`.

    Implements the same interface as the wrapped evaluator (``evaluate``,
    ``genome_key``, ``stats``, ``close``) so it drops into
    :meth:`repro.core.emts.EMTS.schedule` via ``evaluator_wrapper`` or
    anywhere a :class:`~repro.core.evaluator.FitnessEvaluator` goes.
    Counts batches in ``batches_seen`` and faults actually fired in
    ``faults_injected``.
    """

    inner: FitnessEvaluator
    plan: ChaosPlan = field(default_factory=ChaosPlan)
    stop_event: object | None = None
    batches_seen: int = 0
    faults_injected: int = 0

    @property
    def stats(self):
        """The wrapped evaluator's counters (chaos adds none of its own)."""
        return self.inner.stats

    def genome_key(self, genome: np.ndarray) -> bytes:
        """Delegate cache-key computation to the wrapped evaluator."""
        return self.inner.genome_key(genome)

    def _pre_batch(self) -> int:
        """Fire dispatch-side faults; returns this batch's plan index."""
        index = self.batches_seen
        self.batches_seen += 1
        if index in self.plan.delay_batches:
            self.faults_injected += 1
            time.sleep(self.plan.delay_seconds)
        if index in self.plan.raise_batches:
            self.faults_injected += 1
            raise ChaosError(
                f"injected driver-side failure at batch {index}"
            )
        if index in self.plan.kill_batches:
            if kill_one_worker(self.inner) is not None:
                self.faults_injected += 1
        return index

    def _post_batch(
        self, index: int, values: list[float]
    ) -> list[float]:
        """Apply result-side faults and the stop trigger."""
        if index in self.plan.straggler_batches:
            self.faults_injected += 1
            time.sleep(self.plan.straggler_seconds)
        if index in self.plan.nan_batches and values:
            self.faults_injected += 1
            values = list(values)
            values[0] = float("nan")
        if index in self.plan.corrupt_batches and values:
            values = list(values)
            for i, v in enumerate(values):
                if np.isfinite(v):
                    # a plausible-but-wrong makespan, as a corrupted
                    # compiled kernel would return it
                    values[i] = v * self.plan.corrupt_factor
                    self.faults_injected += 1
                    break
        if (
            self.plan.stop_after_batch is not None
            and index >= self.plan.stop_after_batch
            and self.stop_event is not None
        ):
            self.stop_event.set()
        return values

    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        """Evaluate one batch, detonating any faults planned for it."""
        index = self._pre_batch()
        values = self.inner.evaluate(genomes, abort_above=abort_above)
        return self._post_batch(index, values)

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        """Block-path analogue of :meth:`evaluate`, same fault plan.

        Block and list submissions draw from one shared batch-index
        sequence, so a plan written against batch indices fires at the
        same points whichever entry point the driver uses.
        """
        index = self._pre_batch()
        values = self.inner.evaluate_batch(
            genome_block, abort_above=abort_above
        )
        return self._post_batch(index, values)

    def __call__(self, genome: np.ndarray) -> float:
        """Single-genome convenience entry point."""
        return self.evaluate([genome])[0]

    def close(self) -> None:
        """Release the wrapped evaluator's resources."""
        self.inner.close()


# ----------------------------------------------------------------------
# Picklable in-worker fault hooks.  Instances travel to pool workers via
# ProcessPoolEvaluator(fault_hook=...) and run before every chunk.
# Marker files under O_CREAT|O_EXCL give an atomic cross-process fault
# budget: each created marker claims exactly one fault, even when the
# pool is rebuilt and workers race for the next slot.


@dataclass
class FlakyChunkFault:
    """Fail the first ``failures`` chunk evaluations, then behave.

    Exercises the retry path: each failing call claims one marker file
    in ``marker_dir`` and raises :class:`ChaosError`; once all budget
    markers exist the hook is a no-op and evaluation proceeds normally.
    """

    marker_dir: str
    failures: int = 1

    def _claim(self) -> int | None:
        for i in range(self.failures):
            path = os.path.join(self.marker_dir, f"chaos-fault-{i}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return i
        return None

    def __call__(self, genome_block) -> None:
        """Raise for the first ``failures`` chunks seen pool-wide."""
        slot = self._claim()
        if slot is not None:
            raise ChaosError(
                f"injected worker failure {slot + 1}/{self.failures}"
            )


@dataclass
class WorkerKillFault(FlakyChunkFault):
    """SIGKILL the worker process itself for the first ``failures`` chunks.

    Unlike an exception (which the pool reports cleanly), a killed
    worker takes the whole :class:`ProcessPoolExecutor` down with
    ``BrokenProcessPool`` — the harshest failure mode the recovery path
    must survive.  The hook is inert in the driver process (where the
    serial fallback also runs it): only pool workers ever die.
    """

    driver_pid: int = field(default_factory=os.getpid)

    def __call__(self, genome_block) -> None:
        """Kill this worker for the first ``failures`` chunks pool-wide."""
        if os.getpid() == self.driver_pid:
            return
        if self._claim() is not None:
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class ProcessorCrashFault:
    """SIGKILL the worker that claims specific *global chunk ordinals*.

    Where :class:`WorkerKillFault` kills on the first ``failures``
    chunks regardless of position, this hook numbers every chunk the
    pool dispatches (atomically, via one marker file per ordinal) and
    crashes whichever worker draws an ordinal in ``at_chunks`` — the
    pool-level analogue of :class:`repro.online.ProcessorCrash`, which
    fells a processor at a planned moment of the execution.  A killed
    chunk is re-dispatched by the recovery path and claims a *new*
    ordinal, so the crash fires exactly once per planned ordinal.
    Inert in the driver process (serial fallback survives).
    """

    marker_dir: str
    at_chunks: frozenset = frozenset()
    driver_pid: int = field(default_factory=os.getpid)

    def _next_ordinal(self) -> int:
        """Atomically claim and return the next global chunk number."""
        i = 0
        while True:
            path = os.path.join(self.marker_dir, f"chaos-chunk-{i}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                i += 1
                continue
            os.close(fd)
            return i

    def __call__(self, genome_block) -> None:
        """Die when this worker drew one of the planned chunk ordinals."""
        if os.getpid() == self.driver_pid:
            return
        if self._next_ordinal() in self.at_chunks:
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class AlwaysFailFault:
    """Raise :class:`ChaosError` on every chunk — retries must exhaust.

    Drives the evaluator to its terminal
    :class:`~repro.exceptions.EvaluationError`; serial fallback fails
    too because the hook also runs in-process.
    """

    message: str = "injected permanent failure"

    def __call__(self, genome_block) -> None:
        """Unconditionally raise."""
        raise ChaosError(self.message)


@dataclass
class SleepFault(FlakyChunkFault):
    """Hang the first ``failures`` chunks for ``seconds``.

    With a ``chunk_timeout`` configured, the driver observes a timeout
    and retries; without one the run just slows down.
    """

    seconds: float = 5.0

    def __call__(self, genome_block) -> None:
        """Sleep for the first ``failures`` chunks seen pool-wide."""
        if self._claim() is not None:
            time.sleep(self.seconds)
