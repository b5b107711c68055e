"""The service's two cache tiers.

Warm tier (per worker, no locking)
    :class:`WarmCache` maps :func:`~repro.service.protocol.problem_digest`
    to a :class:`PreparedProblem`: the parsed PTG, the built
    :class:`~repro.timemodels.TimeTable`, the compiled scheduling-kernel
    binding (built once per table via ``kernel_for``) and a persistent
    :class:`~repro.core.MemoizedEvaluator` shard whose contents survive
    across requests — a repeated seed on a known problem replays fitness
    values out of the shard instead of re-running the mapper.

Result tier (shared, locked)
    :class:`ResultCache` maps :func:`~repro.service.protocol.result_key`
    to the finished deterministic ``result`` document.  An exact repeat
    request is answered without touching the queue or a worker at all.

Both tiers are bounded LRUs with hit/miss/eviction accounting.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..cli import _make_model
from ..core import MemoizedEvaluator
from ..graph import ptg_from_dict
from ..mapping.kernel import kernel_for
from ..platform import by_name
from ..timemodels import TimeTable
from .protocol import ScheduleRequest, problem_digest

__all__ = [
    "PreparedProblem",
    "prepare_problem",
    "WarmCache",
    "ResultCache",
    "CacheStats",
]

DEFAULT_WARM_PROBLEMS = 32
DEFAULT_RESULT_ENTRIES = 256
DEFAULT_EVAL_CACHE_ENTRIES = 65_536


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass
class PreparedProblem:
    """Everything reusable across requests for one problem digest."""

    digest: str
    ptg: Any
    cluster: Any
    table: TimeTable
    build_seconds: float
    eval_cache: MemoizedEvaluator | None = None
    eval_cache_entries: int = DEFAULT_EVAL_CACHE_ENTRIES
    runs: int = 0

    def evaluator_wrapper(self, inner):
        """Splice the persistent fitness-cache shard into an EMTS run.

        Passed as ``EMTS.schedule(evaluator_wrapper=...)``; the first
        run creates the shard around whatever evaluator stack the run
        built, later runs rebind the shard to the fresh stack while
        keeping its contents.
        """
        if self.eval_cache is None:
            self.eval_cache = MemoizedEvaluator(
                inner, max_entries=self.eval_cache_entries
            )
        else:
            self.eval_cache.rebind(inner)
        return self.eval_cache


def prepare_problem(
    request: ScheduleRequest,
    *,
    eval_cache_entries: int = DEFAULT_EVAL_CACHE_ENTRIES,
) -> PreparedProblem:
    """Cold path: parse, build the table and warm the kernel binding."""
    t0 = time.perf_counter()
    ptg = ptg_from_dict(request.ptg_doc)
    cluster = by_name(request.platform)
    model = _make_model(request.model)
    table = TimeTable.build(model, ptg, cluster)
    # bind (and if necessary compile) the native kernel now, so request
    # latency never pays for it again on this problem
    kernel_for(table)
    return PreparedProblem(
        digest=problem_digest(request),
        ptg=ptg,
        cluster=cluster,
        table=table,
        build_seconds=time.perf_counter() - t0,
        eval_cache_entries=eval_cache_entries,
    )


class WarmCache:
    """Per-worker LRU of :class:`PreparedProblem` (thread-confined)."""

    def __init__(
        self,
        max_problems: int = DEFAULT_WARM_PROBLEMS,
        *,
        eval_cache_entries: int = DEFAULT_EVAL_CACHE_ENTRIES,
    ) -> None:
        if max_problems < 1:
            raise ValueError(
                f"WarmCache needs max_problems >= 1, got {max_problems}"
            )
        self.max_problems = int(max_problems)
        self.eval_cache_entries = int(eval_cache_entries)
        self.stats = CacheStats()
        self._problems: OrderedDict[str, PreparedProblem] = OrderedDict()

    def __len__(self) -> int:
        return len(self._problems)

    def get_or_prepare(self, request: ScheduleRequest) -> PreparedProblem:
        digest = problem_digest(request)
        prepared = self._problems.get(digest)
        if prepared is not None:
            self.stats.hits += 1
            self._problems.move_to_end(digest)
            return prepared
        self.stats.misses += 1
        prepared = prepare_problem(
            request, eval_cache_entries=self.eval_cache_entries
        )
        self._problems[digest] = prepared
        while len(self._problems) > self.max_problems:
            _, evicted = self._problems.popitem(last=False)
            if evicted.eval_cache is not None:
                evicted.eval_cache.close()
            self.stats.evictions += 1
        return prepared


class ResultCache:
    """Shared LRU mapping result keys to deterministic result documents.

    Thread-safe: the event loop reads it on every submission and worker
    threads write finished results into it.  Stored documents are
    treated as immutable — callers must not mutate what ``get`` returns.
    """

    def __init__(self, max_entries: int = DEFAULT_RESULT_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(
                f"ResultCache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: str, result: dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            doc = self.stats.snapshot()
            doc["entries"] = len(self._entries)
            return doc
