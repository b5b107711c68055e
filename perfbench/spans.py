"""In-memory span recorder and the timing shims of the traced run.

A span is ``(name, start, end, parent)``; spans nest on one stack per
thread, so a span's self time is its duration minus the time covered by
its direct children.  The shims wrap public calls of the program from
the outside: names that ``repro.core.emts`` looks up at call time are
replaced on that module, methods are replaced on their classes, and the
fitness evaluator is wrapped through ``EMTS.schedule``'s public
``evaluator_wrapper=`` hook.  No file of the program is edited.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Keeps every span of a run in memory until :meth:`self_times`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, stack[-1] if stack else None]
        )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        traced.__wrapped__ = func
        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds and call counts per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, t0, t1, parent in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, t0, t1, _parent) in enumerate(self.spans):
            selfs[name] += (t1 - t0) - child_time[index]
            calls[name] += 1
        return dict(selfs), dict(calls)


class TimedEvaluator:
    """Fitness evaluator whose batch calls are recorded as spans.

    Handed to ``EMTS.schedule(evaluator_wrapper=...)``; everything but
    the two evaluation entry points is forwarded to the wrapped
    evaluator unchanged.
    """

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self._recorder = recorder

    def evaluate(self, *args, **kwargs):
        with self._recorder.span("core.evaluator.fitness"):
            return self.inner.evaluate(*args, **kwargs)

    def evaluate_batch(self, *args, **kwargs):
        with self._recorder.span("core.evaluator.fitness"):
            return self.inner.evaluate_batch(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Shims:
    """Installs and removes the timing shims around the program's layers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        self.engines: list[str] = []

    def _replace(self, owner, attr: str, span_name: str) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.recorder.wrap(span_name, raw.__func__)))
        else:
            setattr(owner, attr, self.recorder.wrap(span_name, raw))

    def install(self) -> "Shims":
        import repro.core.emts as emts_module
        from repro.core.mutation import AllocationMutation
        from repro.ea.strategy import EvolutionStrategy
        from repro.timemodels import TimeTable

        self._replace(TimeTable, "build", "timemodels.table_build")
        self._replace(emts_module.EMTS, "schedule", "emts.schedule")
        self._replace(emts_module, "kernel_for", "mapping.kernel_build")
        self._replace(emts_module, "seed_population", "core.seeding")
        self._replace(emts_module, "map_allocations", "mapping.final_map")
        self._replace(AllocationMutation, "mutate", "core.mutation")
        self._replace(EvolutionStrategy, "evolve", "ea.select_self")
        # every schedule() call gets the evaluator timed through the
        # public evaluator_wrapper= hook, and every kernel reports the
        # engine it bound
        schedule, kernel_for = emts_module.EMTS.schedule, emts_module.kernel_for

        def timed_schedule(emts, *args, **kwargs):
            kwargs.setdefault("evaluator_wrapper", self.evaluator_wrapper)
            return schedule(emts, *args, **kwargs)

        def engine_kernel_for(table):
            kernel = kernel_for(table)
            self.engines.append(kernel.engine)
            return kernel

        emts_module.EMTS.schedule = timed_schedule
        emts_module.kernel_for = engine_kernel_for
        return self

    def evaluator_wrapper(self, evaluator):
        return TimedEvaluator(evaluator, self.recorder)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
