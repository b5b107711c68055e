"""Pluggable fitness-evaluation engine for the EMTS hot path.

The paper's complexity analysis (Section III-E) identifies fitness
evaluation — one list-scheduler run per offspring — as the cost driver of
the whole algorithm: EMTS spends essentially all of its wall-clock time
inside :func:`repro.mapping.makespan_of`.  This module turns that hot
path into a swappable component:

* :class:`SerialEvaluator` — the historical behavior: one in-process
  mapper call per genome, in submission order (the default backend).
* :class:`ProcessPoolEvaluator` — chunked ``concurrent.futures``
  fan-out of offspring genomes across worker processes.  The immutable
  problem description (PTG + time table) is shipped **once per worker**
  via the pool initializer; per-batch traffic is just a stacked int64
  genome block per chunk.  The rejection bound (``abort_above``) is
  re-sent with *every chunk at dispatch time*, so the paper's rejection
  strategy keeps working under parallelism.
* :class:`MemoizedEvaluator` — a bounded-LRU genome cache that wraps any
  backend.  Duplicate offspring (common under the annealed Eq. 1
  mutation, which mutates ever fewer alleles in late generations) are
  never re-scheduled.

All backends are **exact**: for the same genome they return bit-identical
makespans, so swapping backends never changes the optimization outcome
for a fixed RNG seed.  Fitness is counted in two ways: *evaluations*
(genomes submitted — the paper's ``U * mu * lambda`` quantity) and
*mapper calls* (list-scheduler runs actually executed); the difference is
what the cache saved.

Rejection + memoization soundness
---------------------------------
``makespan_of(..., abort_above=b)`` returns ``inf`` for any genome whose
makespan provably reaches ``b`` — a value that depends on ``b``, not just
the genome.  The cache therefore stores rejections as ``(inf, b)``
markers: a later lookup under a bound ``b' <= b`` may reuse the rejection
(the true makespan is ``>= b >= b'``), while a lookup under a laxer (or
absent) bound re-evaluates.  Finite cached values are exact makespans and
are valid under every bound.

Fault tolerance
---------------
:class:`ProcessPoolEvaluator` treats worker-process failure as a
recoverable event, not a run-ending one.  A chunk whose future raises
(``BrokenProcessPool`` after a killed or crashed worker, an exception
propagated out of the worker function, or a per-chunk wall-clock
timeout turning a hung worker into a failure) is retried with bounded
attempts and exponential backoff, rebuilding the pool between
attempts; once retries are exhausted the chunk is evaluated serially
in-process as a last resort.  Because fitness is a deterministic
function of the genome, re-evaluation is always safe and the recovered
results are bit-identical to a fault-free run.  Only when the serial
fallback itself fails does the evaluator raise
:class:`~repro.exceptions.EvaluationError`, carrying the batch indices
of the genomes in the failing chunk.  Deterministic input errors
(:class:`~repro.exceptions.AllocationError` for invalid genomes) are
never retried — they would fail identically every time.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..exceptions import (
    AllocationError,
    ConfigurationError,
    EvaluationError,
)
from ..mapping import ScheduleKernel, makespan_of
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..util.backoff import exponential_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from concurrent.futures import ProcessPoolExecutor

    from ..graph import PTG
    from ..timemodels import TimeTable

__all__ = [
    "EvaluationStats",
    "FitnessEvaluator",
    "SerialEvaluator",
    "ProcessPoolEvaluator",
    "MemoizedEvaluator",
    "create_evaluator",
]

#: Default capacity of the genome memoization cache.  An EMTS10 run
#: submits ``10 + 10 * 100`` genomes, so the default never evicts in
#: practice while still bounding memory for very long searches.
DEFAULT_CACHE_SIZE = 65_536

#: Default bounded-retry budget for failed worker chunks.
DEFAULT_MAX_RETRIES = 3

#: Default base delay of the exponential retry backoff (seconds); the
#: n-th retry waits ``backoff * 2**(n-1)``.
DEFAULT_RETRY_BACKOFF = 0.05

_log = get_logger("core.evaluator")


@dataclass
class EvaluationStats:
    """Counters accumulated by a :class:`FitnessEvaluator`.

    Attributes
    ----------
    evaluations:
        Genomes submitted for evaluation (logical fitness evaluations;
        one per offspring, cache hits included).
    mapper_calls:
        List-scheduler runs actually executed (``evaluations`` minus the
        work the cache saved).
    cache_hits, cache_misses:
        Memoization-cache outcomes (both zero without a cache).
    evictions:
        Entries dropped from a full memoization cache (0 until the
        genome stream exceeds the cache capacity).
    batches:
        Number of ``evaluate`` calls (one per EA generation, typically).
    wall_seconds:
        Total wall-clock time spent inside ``evaluate``.
    retries:
        Chunk evaluations re-dispatched after a worker failure or
        timeout (0 on a fault-free run).
    pool_rebuilds:
        Worker pools torn down and rebuilt after a failure.
    """

    evaluations: int = 0
    mapper_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of submitted genomes served from the cache."""
        if self.evaluations == 0:
            return 0.0
        return self.cache_hits / self.evaluations

    def copy(self) -> "EvaluationStats":
        """An independent snapshot of the current counters."""
        return EvaluationStats(
            evaluations=self.evaluations,
            mapper_calls=self.mapper_calls,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            evictions=self.evictions,
            batches=self.batches,
            wall_seconds=self.wall_seconds,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
        )

    def merge(self, other: "EvaluationStats") -> None:
        """Add ``other``'s counters into this one (pool aggregation)."""
        self.evaluations += other.evaluations
        self.mapper_calls += other.mapper_calls
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.evictions += other.evictions
        self.batches += other.batches
        self.wall_seconds += other.wall_seconds
        self.retries += other.retries
        self.pool_rebuilds += other.pool_rebuilds

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"{self.evaluations} evaluations "
            f"({self.mapper_calls} mapper calls, "
            f"{self.cache_hits} cache hits, "
            f"{self.hit_rate:.1%} hit rate) "
            f"in {self.wall_seconds:.3f} s"
        )
        if self.evictions:
            text += f" [{self.evictions} cache evictions]"
        if self.retries or self.pool_rebuilds:
            text += (
                f" [{self.retries} chunk retries, "
                f"{self.pool_rebuilds} pool rebuilds]"
            )
        return text


class FitnessEvaluator(ABC):
    """Batch fitness evaluation: allocation genomes → makespans.

    Subclasses implement :meth:`_evaluate_batch`; the public
    :meth:`evaluate` wrapper adds statistics and timing.  Evaluators are
    context managers — leaving the ``with`` block releases any worker
    processes.
    """

    def __init__(self) -> None:
        self.stats = EvaluationStats()

    # -- public API ----------------------------------------------------
    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespan of every genome, in input order.

        ``abort_above`` enables the mapper's rejection strategy: genomes
        whose makespan provably reaches the bound come back as ``inf``.
        """
        genomes = list(genomes)
        if not genomes:
            return []
        t0 = time.perf_counter()
        values = self._evaluate_batch(genomes, abort_above)
        self.stats.batches += 1
        self.stats.evaluations += len(genomes)
        self.stats.wall_seconds += time.perf_counter() - t0
        return values

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespan of every row of a stacked ``(B, V)`` genome block.

        The population-at-once entry point: the whole block flows to
        the backend as one array — one vectorized validation, one
        native batch call, index slices (not pickled genomes) across
        pool workers.  Results are bit-identical to ``evaluate`` on the
        same genomes in the same order.
        """
        block = np.asarray(genome_block)
        if block.ndim != 2:
            raise AllocationError(
                f"genome block has shape {block.shape}, expected "
                f"(batch, num_tasks)"
            )
        if block.shape[0] == 0:
            return []
        t0 = time.perf_counter()
        values = self._evaluate_block(block, abort_above)
        self.stats.batches += 1
        self.stats.evaluations += block.shape[0]
        self.stats.wall_seconds += time.perf_counter() - t0
        return values

    def __call__(self, genome: np.ndarray) -> float:
        """Single-genome convenience (drop-in for a fitness closure)."""
        return self.evaluate([genome])[0]

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""

    def __enter__(self) -> "FitnessEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- subclass hooks ------------------------------------------------
    @abstractmethod
    def _evaluate_batch(
        self,
        genomes: list[np.ndarray],
        abort_above: float | None,
    ) -> list[float]:
        """Evaluate one batch; must preserve input order."""

    def _evaluate_block(
        self,
        block: np.ndarray,
        abort_above: float | None,
    ) -> list[float]:
        """Evaluate one stacked block; must preserve row order.

        Subclasses with a faster whole-block path override this; the
        default unstacks into the per-genome hook.
        """
        return self._evaluate_batch(list(block), abort_above)


def _kernel_if_matching(
    ptg: "PTG", table: "TimeTable"
) -> ScheduleKernel | None:
    """The table's compiled kernel when it was built for ``ptg``."""
    from ..mapping import kernel_for

    if ptg is table.ptg or ptg == table.ptg:
        return kernel_for(table)
    return None


def _genome_bytes(genome: np.ndarray) -> bytes:
    """Fallback cache key: the genome's canonical int64 byte content."""
    return np.ascontiguousarray(genome, dtype=np.int64).tobytes()


def _genome_block_bytes(
    genome_block: np.ndarray,
) -> tuple[np.ndarray, list[bytes]]:
    """Fallback batch keys: one contiguous serialization, sliced per row.

    Mirrors ``ScheduleKernel.genome_block_keys`` for backends without a
    compiled kernel: ``keys[i]`` equals ``_genome_bytes(block[i])``, but
    the block is canonicalized and serialized once instead of B times.
    """
    block = np.ascontiguousarray(genome_block, dtype=np.int64)
    data = block.tobytes()
    step = block.shape[1] * 8
    keys = [data[i * step : (i + 1) * step] for i in range(block.shape[0])]
    return block, keys


class SerialEvaluator(FitnessEvaluator):
    """In-process evaluation, one mapper call per genome (the default).

    The compiled :class:`~repro.mapping.ScheduleKernel` is built once in
    the constructor and every fitness call runs directly on its
    preallocated buffers, skipping the per-call engine dispatch of
    :func:`repro.mapping.makespan_of` (results are bit-identical).
    """

    def __init__(self, ptg: "PTG", table: "TimeTable") -> None:
        super().__init__()
        self.ptg = ptg
        self.table = table
        self._kernel = _kernel_if_matching(ptg, table)

    def genome_key(self, genome: np.ndarray) -> bytes:
        """Canonical cache key (the kernel's validated int64 buffer)."""
        if self._kernel is not None:
            return self._kernel.genome_key(genome)
        return _genome_bytes(genome)

    def genome_block_keys(
        self, genome_block: np.ndarray
    ) -> tuple[np.ndarray, list[bytes]]:
        """Canonical block plus one cache key per row (hashed once)."""
        if self._kernel is not None:
            return self._kernel.genome_block_keys(genome_block)
        return _genome_block_bytes(genome_block)

    def _evaluate_batch(
        self,
        genomes: list[np.ndarray],
        abort_above: float | None,
    ) -> list[float]:
        self.stats.mapper_calls += len(genomes)
        kernel = self._kernel
        if kernel is not None:
            # batch entry: validation and the time-table gather are
            # vectorized across all genomes in one shot
            return kernel.makespan_batch(genomes, abort_above)
        return [
            makespan_of(self.ptg, self.table, g, abort_above=abort_above)
            for g in genomes
        ]

    def _evaluate_block(
        self,
        block: np.ndarray,
        abort_above: float | None,
    ) -> list[float]:
        self.stats.mapper_calls += block.shape[0]
        kernel = self._kernel
        if kernel is not None:
            # population-at-once: one native call scores the whole block
            return kernel.makespan_batch(block, abort_above)
        return [
            makespan_of(self.ptg, self.table, g, abort_above=abort_above)
            for g in block
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SerialEvaluator(ptg={self.ptg.name!r})"


# -- worker-process plumbing (module level: must be picklable) ---------
# Each worker holds one batch-makespan callable: the compiled kernel's
# batch entry in the common case (the kernel pickles as bare index/time
# arrays — no PTG or TimeTable object graph crosses the process
# boundary), or a reference-engine closure as the fallback.
_WORKER_EVALUATE = None
_WORKER_FAULT_HOOK = None
# Worker-local metrics registry (None unless the parent run has metrics
# enabled).  Workers never share state: each accumulates locally and
# ships a drained snapshot back with every chunk result, which the
# dispatching process merges — no cross-process locking anywhere.
_WORKER_METRICS = None


def _pool_initializer(
    problem, fault_hook=None, collect_metrics=False
) -> None:
    """Install the shared problem in a worker process (runs once)."""
    global _WORKER_EVALUATE, _WORKER_FAULT_HOOK, _WORKER_METRICS
    _WORKER_FAULT_HOOK = fault_hook
    _WORKER_METRICS = MetricsRegistry() if collect_metrics else None
    if isinstance(problem, ScheduleKernel):
        _WORKER_EVALUATE = problem.makespan_batch
    else:
        ptg, table = problem

        def _reference_batch(
            genome_block: np.ndarray, abort_above: float | None
        ) -> list[float]:
            return [
                makespan_of(ptg, table, g, abort_above=abort_above)
                for g in genome_block
            ]

        _WORKER_EVALUATE = _reference_batch


def _pool_evaluate_chunk(
    genome_block: np.ndarray, abort_above: float | None
):
    """Evaluate one chunk of genomes inside a worker process.

    ``abort_above`` arrives with every chunk — the dispatcher's current
    rejection bound, not a value frozen at pool start-up.  The fault
    hook (chaos testing only) runs first so injected failures hit
    before any real work.

    Returns the bare makespan list when worker metrics are off (the
    historical wire format) and ``(values, metrics_snapshot)`` when
    on — the snapshot is the worker registry's drained delta since the
    previous chunk, so merging it on the parent never double-counts.
    """
    if _WORKER_FAULT_HOOK is not None:
        _WORKER_FAULT_HOOK(genome_block)
    if _WORKER_METRICS is None:
        return _WORKER_EVALUATE(genome_block, abort_above)
    t0 = time.perf_counter()
    values = _WORKER_EVALUATE(genome_block, abort_above)
    _WORKER_METRICS.counter("worker.chunks").inc()
    _WORKER_METRICS.counter("worker.genomes").inc(len(genome_block))
    _WORKER_METRICS.timer("worker.chunk_seconds").observe(
        time.perf_counter() - t0
    )
    return values, _WORKER_METRICS.drain()


# One attached shared-memory segment per worker process: the dispatcher
# publishes each genome block under a fresh name, so caching the last
# attachment and swapping it on a name change keeps every slice task of
# one batch on a single mmap while bounding the worker's footprint to
# one block.
_WORKER_SHM = None


def _worker_attach_shm(shm_name: str):
    """Attach (or reuse) the published genome block in a worker."""
    global _WORKER_SHM
    if _WORKER_SHM is not None and _WORKER_SHM.name == shm_name:
        return _WORKER_SHM
    from multiprocessing import resource_tracker, shared_memory

    if _WORKER_SHM is not None:
        try:
            _WORKER_SHM.close()
        except OSError:  # pragma: no cover - platform dependent
            pass
        _WORKER_SHM = None
    # The dispatching process owns the segment's lifetime.  Before
    # Python 3.13 (`track=False`), merely attaching registers the name
    # with the resource tracker, which then unlinks it when this worker
    # dies (spawn) or floods the shared tracker with stale unregisters
    # (fork) — so suppress shared-memory registration for the attach.
    original_register = resource_tracker.register

    def _register_except_shm(name, rtype):
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = _register_except_shm
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    _WORKER_SHM = shm
    return shm


def _pool_evaluate_slice(
    shm_name: str,
    shape: tuple[int, int],
    start: int,
    stop: int,
    abort_above: float | None,
):
    """Evaluate rows ``[start, stop)`` of a shared genome block.

    The index-slice wire format: instead of pickling genome arrays into
    every task, the dispatcher publishes the stacked ``(B, V)`` int64
    block once through :mod:`multiprocessing.shared_memory` and each
    task carries only ``(name, shape, start, stop)``.  Fault hook,
    metrics and the returned wire format are exactly those of
    :func:`_pool_evaluate_chunk` on the equivalent rows.
    """
    shm = _worker_attach_shm(shm_name)
    block = np.ndarray(shape, dtype=np.int64, buffer=shm.buf)
    return _pool_evaluate_chunk(block[start:stop], abort_above)


class ProcessPoolEvaluator(FitnessEvaluator):
    """Chunked multi-process evaluation via ``concurrent.futures``.

    Parameters
    ----------
    ptg, table:
        The scheduling problem; serialized **once per worker** through
        the pool initializer, never per batch.
    workers:
        Worker-process count (>= 1).  Values above ``os.cpu_count()``
        are allowed — useful for tests — but add no throughput.
    chunk_size:
        Genomes per submitted task.  Default: batch split into about
        four chunks per worker, so stragglers rebalance.
    mp_context:
        Optional :mod:`multiprocessing` start-method name (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
        default.
    max_retries:
        How many times a failed chunk is re-dispatched (with the pool
        rebuilt and exponential backoff between attempts) before the
        serial in-process fallback takes over.
    retry_backoff:
        Base delay of the exponential backoff; the n-th retry round
        sleeps ``retry_backoff * 2**(n-1)`` seconds.  0 disables the
        sleep (tests).
    chunk_timeout:
        Per-chunk wall-clock limit in seconds; a worker that exceeds it
        is treated as hung and its chunk becomes a retriable failure.
        ``None`` (the default) waits indefinitely.
    fault_hook:
        Chaos-testing injection point: a picklable callable invoked
        with each genome chunk before it is evaluated, both inside
        worker processes and in the serial fallback.  Production code
        leaves this ``None``; see :mod:`repro.testing.chaos`.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  When given, each
        worker process keeps a local registry and returns its drained
        delta with every chunk; the deltas are merged here, at chunk
        completion, so ``worker.*`` metrics aggregate without any
        shared state.  ``None`` (the default) keeps the historical
        wire format and adds no work in the workers.
    """

    def __init__(
        self,
        ptg: "PTG",
        table: "TimeTable",
        workers: int,
        chunk_size: int | None = None,
        mp_context: str | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        chunk_timeout: float | None = None,
        fault_hook: Callable | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__()
        if workers < 1:
            raise ConfigurationError(
                f"ProcessPoolEvaluator needs workers >= 1, got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be > 0 seconds, got {chunk_timeout}"
            )
        self.ptg = ptg
        self.table = table
        self.workers = int(workers)
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.chunk_timeout = chunk_timeout
        self.fault_hook = fault_hook
        self.metrics = metrics
        self._kernel = _kernel_if_matching(ptg, table)
        self._executor: ProcessPoolExecutor | None = None

    def genome_key(self, genome: np.ndarray) -> bytes:
        """Canonical cache key (the kernel's validated int64 buffer)."""
        if self._kernel is not None:
            return self._kernel.genome_key(genome)
        return _genome_bytes(genome)

    # -- pool lifecycle ------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # the process machinery loads only when a pool is built
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            ctx = (
                multiprocessing.get_context(self.mp_context)
                if self.mp_context is not None
                else None
            )
            problem = (
                self._kernel
                if self._kernel is not None
                else (self.ptg, self.table)
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=_pool_initializer,
                initargs=(
                    problem,
                    self.fault_hook,
                    self.metrics is not None,
                ),
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _discard_executor(self) -> None:
        """Tear down a broken/hung pool without waiting on its workers."""
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # a broken pool may refuse even shutdown
                pass
            self._executor = None
        self.stats.pool_rebuilds += 1

    # -- evaluation ----------------------------------------------------
    def _chunk_size_for(self, n: int) -> int:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n // (self.workers * 4)))
        return size

    def _slices(self, n: int) -> list[tuple[int, int]]:
        size = self._chunk_size_for(n)
        return [(i, min(i + size, n)) for i in range(0, n, size)]

    def _publish_block(self, block: np.ndarray):
        """Copy the block into a fresh shared-memory segment.

        Returns the :class:`~multiprocessing.shared_memory.SharedMemory`
        handle (the caller owns close+unlink), or ``None`` when shared
        memory is unavailable — the dispatcher then falls back to
        pickling row slices into each task.
        """
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=block.nbytes
            )
        except Exception as exc:
            _log.warning(
                "shared-memory publish unavailable (%s); "
                "falling back to pickled chunk dispatch",
                exc,
            )
            return None
        view = np.ndarray(block.shape, dtype=np.int64, buffer=shm.buf)
        view[:] = block
        return shm

    def genome_block_keys(
        self, genome_block: np.ndarray
    ) -> tuple[np.ndarray, list[bytes]]:
        """Canonical block plus one cache key per row (hashed once)."""
        if self._kernel is not None:
            return self._kernel.genome_block_keys(genome_block)
        return _genome_block_bytes(genome_block)

    def _serial_chunk(
        self, chunk: np.ndarray, abort_above: float | None
    ) -> list[float]:
        """Last-resort in-process evaluation of one chunk."""
        if self.fault_hook is not None:
            self.fault_hook(chunk)
        if self._kernel is not None:
            return self._kernel.makespan_batch(chunk, abort_above)
        return [
            makespan_of(self.ptg, self.table, g, abort_above=abort_above)
            for g in chunk
        ]

    def _evaluate_batch(
        self,
        genomes: list[np.ndarray],
        abort_above: float | None,
    ) -> list[float]:
        block = np.stack(genomes).astype(np.int64, copy=False)
        return self._dispatch_block(
            np.ascontiguousarray(block), abort_above
        )

    def _evaluate_block(
        self,
        block: np.ndarray,
        abort_above: float | None,
    ) -> list[float]:
        if self._kernel is not None:
            # validate once here so a malformed block raises the same
            # deterministic AllocationError the serial backend gives,
            # before any worker round-trip
            block = self._kernel.load_block(block)
        else:
            block = np.ascontiguousarray(block, dtype=np.int64)
        return self._dispatch_block(block, abort_above)

    def _dispatch_block(
        self,
        block: np.ndarray,
        abort_above: float | None,
    ) -> list[float]:
        """Fan a canonical int64 block across the pool as index slices.

        The block is published once through shared memory and each task
        carries only its ``[start, stop)`` row range; when shared memory
        is unavailable the same slices ship as pickled sub-blocks.  The
        retry loop, serial fallback and metrics plumbing are identical
        in both modes.
        """
        self.stats.mapper_calls += block.shape[0]
        slices = self._slices(block.shape[0])
        shm = self._publish_block(block)
        try:
            return self._run_slices(block, slices, shm, abort_above)
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def _run_slices(
        self,
        block: np.ndarray,
        slices: list[tuple[int, int]],
        shm,
        abort_above: float | None,
    ) -> list[float]:
        results: list[list[float] | None] = [None] * len(slices)
        pending = list(range(len(slices)))
        attempt = 0
        while pending:
            executor = self._ensure_executor()
            futures = {}
            failed: list[int] = []
            last_error: BaseException | None = None
            try:
                for i in pending:
                    start, stop = slices[i]
                    if shm is not None:
                        futures[i] = executor.submit(
                            _pool_evaluate_slice,
                            shm.name,
                            block.shape,
                            start,
                            stop,
                            abort_above,
                        )
                    else:
                        futures[i] = executor.submit(
                            _pool_evaluate_chunk,
                            block[start:stop],
                            abort_above,
                        )
            except (BrokenExecutor, RuntimeError) as exc:
                # a worker killed while the pool sat idle is only
                # detected asynchronously: the break can surface here,
                # at submission, before any future exists
                last_error = exc
                failed.extend(i for i in pending if i not in futures)
            for i in futures:
                try:
                    outcome = futures[i].result(
                        timeout=self.chunk_timeout
                    )
                    if isinstance(outcome, tuple):
                        # (values, worker-metrics delta) wire format
                        outcome, delta = outcome
                        if self.metrics is not None:
                            self.metrics.merge(delta)
                    results[i] = outcome
                except AllocationError:
                    # deterministic input error: retrying cannot help,
                    # and the serial backend would raise it too
                    raise
                except FutureTimeoutError as exc:
                    last_error = exc
                    failed.append(i)
                except Exception as exc:
                    # BrokenProcessPool (killed/crashed worker) or an
                    # exception escaping the worker function
                    last_error = exc
                    failed.append(i)
            if not failed:
                break
            # every retry round gets a fresh pool: a broken executor
            # never recovers, and after a timeout the old pool may
            # still be wedged behind the hung worker
            self._discard_executor()
            attempt += 1
            if attempt > self.max_retries:
                _log.warning(
                    "%d chunk(s) still failing after %d retries "
                    "(%s); shrinking to serial in-process evaluation",
                    len(failed),
                    self.max_retries,
                    last_error,
                )
                for i in failed:
                    start, stop = slices[i]
                    try:
                        results[i] = self._serial_chunk(
                            block[start:stop], abort_above
                        )
                    except Exception as exc:
                        raise EvaluationError(
                            f"evaluation of genomes "
                            f"{list(range(start, stop))} failed after "
                            f"{self.max_retries} pool retries and the "
                            f"serial fallback: {exc}",
                            genome_indices=range(start, stop),
                        ) from exc
                pending = []
            else:
                self.stats.retries += len(failed)
                _log.warning(
                    "retrying %d failed chunk(s), attempt %d/%d "
                    "(cause: %s)",
                    len(failed),
                    attempt,
                    self.max_retries,
                    last_error,
                )
                if self.retry_backoff > 0:
                    time.sleep(
                        exponential_delay(self.retry_backoff, attempt)
                    )
                pending = failed
        values: list[float] = []
        for chunk_values in results:  # slice order == input order
            values.extend(chunk_values)
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessPoolEvaluator(ptg={self.ptg.name!r}, "
            f"workers={self.workers})"
        )


class MemoizedEvaluator(FitnessEvaluator):
    """Bounded-LRU genome cache around any :class:`FitnessEvaluator`.

    The key is the raw byte content of the backend kernel's validated
    int64 allocation buffer (``ScheduleKernel.genome_key``), so equal
    genomes share one entry whatever their dtype or layout on arrival;
    backends without a kernel fall back to canonical int64 bytes — the
    identical key for every valid genome.  Exact makespans are cached
    unconditionally; rejected evaluations (``inf`` under
    ``abort_above=b``) are cached together with their bound and only
    reused while still sound (see module docstring).
    """

    def __init__(
        self,
        inner: FitnessEvaluator,
        max_entries: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        super().__init__()
        if max_entries < 1:
            raise ConfigurationError(
                f"cache needs max_entries >= 1, got {max_entries}"
            )
        self.inner = inner
        self.max_entries = int(max_entries)
        self._key_fn = getattr(inner, "genome_key", _genome_bytes)
        self._block_key_fn = getattr(
            inner, "genome_block_keys", _genome_block_bytes
        )
        # key -> (value, bound). bound is None for exact values and the
        # abort_above under which the rejection was observed otherwise.
        self._cache: OrderedDict[bytes, tuple[float, float | None]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._cache)

    def close(self) -> None:
        self.inner.close()

    def rebind(self, inner: FitnessEvaluator) -> "MemoizedEvaluator":
        """Swap the wrapped backend while keeping the cache contents.

        The scheduling service keeps one :class:`MemoizedEvaluator` per
        problem fingerprint alive across requests; each EMTS run builds
        a fresh backend stack, and ``rebind`` splices the long-lived
        cache around it (via ``EMTS.schedule(evaluator_wrapper=...)``).
        Sound because cached finite values are exact makespans of the
        *problem*, not of any particular backend — every backend is
        bit-identical — and rejection markers keep their recorded
        bounds.  Returns ``self`` so it can be used directly as an
        ``evaluator_wrapper`` callable.
        """
        self.inner = inner
        self._key_fn = getattr(inner, "genome_key", _genome_bytes)
        self._block_key_fn = getattr(
            inner, "genome_block_keys", _genome_block_bytes
        )
        return self

    def _lookup(
        self, key: bytes, abort_above: float | None
    ) -> float | None:
        entry = self._cache.get(key)
        if entry is None:
            return None
        value, bound = entry
        if bound is None:  # exact makespan: valid under any bound
            if abort_above is not None and value >= abort_above:
                # the serial-with-rejection path would have aborted
                self._cache.move_to_end(key)
                return float("inf")
            self._cache.move_to_end(key)
            return value
        # rejection marker: reusable only under an equal-or-tighter bound
        if abort_above is not None and abort_above <= bound:
            self._cache.move_to_end(key)
            return float("inf")
        return None  # laxer bound: must re-evaluate

    def _store(
        self, key: bytes, value: float, abort_above: float | None
    ) -> None:
        if np.isnan(value):
            # a NaN is not a makespan — never let a transient fault
            # (chaos injection, corrupted worker) poison the cache
            return
        bound = abort_above if np.isinf(value) else None
        self._cache[key] = (value, bound)
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _evaluate_keyed(
        self,
        keys: list[bytes],
        abort_above: float | None,
        evaluate_misses: Callable[[list[int]], list[float]],
    ) -> list[float]:
        """Shared hit/miss resolution for the list and block paths.

        ``evaluate_misses`` receives the input positions of the unique
        misses (first-seen order) and returns their fresh values.
        """
        values: list[float | None] = []
        miss_order: list[bytes] = []  # unique misses, first-seen order
        miss_rows: list[int] = []
        pending: set[bytes] = set()
        for row, key in enumerate(keys):
            hit = self._lookup(key, abort_above)
            if hit is not None:
                self.stats.cache_hits += 1
                values.append(hit)
            elif key in pending:
                # duplicate within this batch: evaluated once below
                self.stats.cache_hits += 1
                values.append(None)
            else:
                self.stats.cache_misses += 1
                pending.add(key)
                miss_order.append(key)
                miss_rows.append(row)
                values.append(None)
        fresh_by_key: dict[bytes, float] = {}
        if miss_rows:
            fresh = evaluate_misses(miss_rows)
            for key, value in zip(miss_order, fresh):
                fresh_by_key[key] = value
                self._store(key, value, abort_above)
        out: list[float] = []
        for key, value in zip(keys, values):
            if value is None:
                # prefer the cache (it normalizes rejection markers),
                # but fall back to the raw fresh value for results the
                # cache refused to store (NaN)
                hit = self._lookup(key, abort_above)
                value = hit if hit is not None else fresh_by_key[key]
            out.append(value)
        return out

    def _evaluate_batch(
        self,
        genomes: list[np.ndarray],
        abort_above: float | None,
    ) -> list[float]:
        key_fn = self._key_fn
        keys = [key_fn(g) for g in genomes]
        return self._evaluate_keyed(
            keys,
            abort_above,
            lambda rows: self.inner.evaluate(
                [genomes[r] for r in rows], abort_above
            ),
        )

    def _evaluate_block(
        self,
        block: np.ndarray,
        abort_above: float | None,
    ) -> list[float]:
        # one batch validation + one contiguous serialization for the
        # whole block — not a per-genome re-hash of every row
        block, keys = self._block_key_fn(block)
        return self._evaluate_keyed(
            keys,
            abort_above,
            lambda rows: self.inner.evaluate_batch(
                block[np.asarray(rows)], abort_above
            ),
        )

    @property
    def mapper_calls(self) -> int:
        """Mapper invocations executed by the wrapped backend."""
        return self.inner.stats.mapper_calls

    def evaluate(
        self,
        genomes: Sequence[np.ndarray],
        abort_above: float | None = None,
    ) -> list[float]:
        values = super().evaluate(genomes, abort_above)
        self._mirror_inner_stats()
        return values

    def evaluate_batch(
        self,
        genome_block: np.ndarray,
        abort_above: float | None = None,
    ) -> list[float]:
        values = super().evaluate_batch(genome_block, abort_above)
        self._mirror_inner_stats()
        return values

    def _mirror_inner_stats(self) -> None:
        # mirror the backend's mapper-call and fault-recovery counters
        # into our own stats so callers only ever need to read the
        # outermost evaluator
        self.stats.mapper_calls = self.inner.stats.mapper_calls
        self.stats.retries = self.inner.stats.retries
        self.stats.pool_rebuilds = self.inner.stats.pool_rebuilds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoizedEvaluator({self.inner!r}, "
            f"entries={len(self)}/{self.max_entries})"
        )


def create_evaluator(
    ptg: "PTG",
    table: "TimeTable",
    workers: int = 0,
    cache: bool = True,
    cache_size: int = DEFAULT_CACHE_SIZE,
    mp_context: str | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    chunk_timeout: float | None = None,
    fault_hook: Callable | None = None,
    verify: str = "off",
    verify_interval: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> FitnessEvaluator:
    """Build the evaluator stack for one EMTS run.

    ``workers <= 1`` selects the serial backend (a single-worker pool
    would only add IPC overhead); larger values fan out across that many
    worker processes.  ``cache=True`` wraps the backend in the genome
    memoization cache.  ``os.cpu_count()`` is *not* consulted: the
    caller's explicit worker count wins, even above the core count.
    ``max_retries`` / ``retry_backoff`` / ``chunk_timeout`` configure
    the pool backend's crash recovery and ``fault_hook`` its
    chaos-testing injection point; all four are ignored by the serial
    backend.

    ``verify`` stacks a :class:`repro.verify.VerifyingEvaluator` on the
    outside — ``"sample"`` replays one genome per ``verify_interval``
    submissions through every scheduling engine, ``"full"`` replays all
    of them; both scan every batch for NaN.  ``"off"`` adds nothing.

    ``metrics`` enables the pool backend's per-worker metric
    collection (ignored by the serial backend, whose work is already
    visible to the caller's own instrumentation).
    """
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0, got {workers}"
        )
    if verify not in ("off", "sample", "full"):
        raise ConfigurationError(
            f"verify must be 'off', 'sample' or 'full', got {verify!r}"
        )
    backend: FitnessEvaluator
    if workers <= 1:
        backend = SerialEvaluator(ptg, table)
    else:
        backend = ProcessPoolEvaluator(
            ptg,
            table,
            workers=workers,
            mp_context=mp_context,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            chunk_timeout=chunk_timeout,
            fault_hook=fault_hook,
            metrics=metrics,
        )
    evaluator: FitnessEvaluator = backend
    if cache:
        evaluator = MemoizedEvaluator(backend, max_entries=cache_size)
    if verify != "off":
        # imported lazily: repro.verify pulls in the mapping and
        # simulator packages, which in turn import this module
        from ..verify import DEFAULT_SAMPLE_INTERVAL, VerifyingEvaluator

        evaluator = VerifyingEvaluator(
            evaluator,
            ptg,
            table,
            mode=verify,
            sample_interval=(
                DEFAULT_SAMPLE_INTERVAL
                if verify_interval is None
                else verify_interval
            ),
        )
    return evaluator


def recommended_workers() -> int:
    """A sensible worker count for ``--workers auto``: the core count."""
    return os.cpu_count() or 1
