"""CPA — Critical Path and Area-based allocation
(Radulescu & van Gemund, ICPP 2001; paper Section II-B).

CPA starts from one processor per task and repeatedly gives one more
processor to a critical-path task, trading critical-path length ``T_CP``
against average area ``T_A``:

.. code-block:: text

    s(v) = 1 for all v
    while T_CP > T_A:
        C  = tasks on the critical path that can still grow
        v* = argmax_{v in C} [ T(v, s(v)) - T(v, s(v)+1) ]
        if gain(v*) <= 0: stop          # non-monotone guard, see below
        s(v*) += 1

**Non-monotone guard.**  Classic CPA assumes ``T(v, p)`` non-increasing
in ``p``, so the best gain is always >= 0 and the loop runs until
``T_CP <= T_A``.  Under the paper's Model 2 a larger allocation can be
*slower*; growing an allocation at negative gain would raise both ``T_CP``
and ``T_A`` and can cycle.  We therefore stop as soon as no critical-path
task improves by growing — which reproduces the paper's observation that
under Model 2 "allocations will grow up to a size of 4-8 processors before
the allocation procedure stops" (Section V-B).

Complexity: ``O(V (V + E) P)`` — each of at most ``V P`` growth steps
recomputes bottom levels in ``O(V + E)`` — matching the bound the paper
cites for (H)CPA's allocation procedure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph import PTG, bottom_levels, precedence_levels, top_levels
from ..timemodels import TimeTable
from .base import AllocationHeuristic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..mapping import ScheduleKernel

__all__ = ["CpaAllocator", "critical_path_mask", "grow_allocations"]

_EPS = 1e-12


def _kernel_if_matching(
    ptg: PTG, table: TimeTable
) -> "ScheduleKernel | None":
    """The table's compiled kernel when it was built for ``ptg``.

    The CPA-family loops accept any (ptg, table) pair; the kernel's
    native growth loop and level sweeps only apply when the table's own
    PTG is being allocated (the overwhelmingly common case).
    """
    from ..mapping import kernel_for

    if ptg is table.ptg or ptg == table.ptg:
        return kernel_for(table)
    return None


def critical_path_mask(
    ptg: PTG, times: np.ndarray, kernel: "ScheduleKernel | None" = None
) -> tuple[np.ndarray, float]:
    """Boolean mask of tasks lying on *some* critical path, plus ``T_CP``.

    A task is on a critical path iff ``tl(v) + T(v) + (bl(v) - T(v)) ==
    T_CP`` i.e. ``tl(v) + bl(v) == T_CP`` (bottom level includes the
    task's own time).  Using the mask instead of a single concrete path
    lets the allocator consider every critical task — important when
    several parallel branches are equally critical.

    ``kernel`` (a :class:`~repro.mapping.ScheduleKernel` built for
    ``ptg``) computes both level vectors through its straight-line
    Python sweeps, generated once per graph — bit-identical values,
    several times faster than the layered numpy sweeps.
    """
    if kernel is not None:
        bl, tl = kernel.levels(times)
    else:
        bl = bottom_levels(ptg, times)
        tl = top_levels(ptg, times)
    t_cp = float(bl.max())
    on_cp = (tl + bl) >= t_cp * (1.0 - 1e-12) - _EPS
    return on_cp, t_cp


def grow_allocations(
    ptg: PTG,
    table: TimeTable,
    caps: np.ndarray,
    divisor: float,
    limit: int,
    levels: np.ndarray | None = None,
    allow_negative_gain: bool = False,
) -> np.ndarray:
    """The CPA growth loop shared by CPA, HCPA, MCPA, MCPA2 and BiCPA.

    Starting from one processor per task, grow critical-path tasks
    while ``T_CP > area / divisor``, at most ``limit`` steps.  The
    variants differ only in the data passed here: task ``v`` may grow
    while ``alloc[v] < caps[v]``, and with ``levels`` (precedence
    levels, MCPA) only while its level claims fewer than ``P``
    processors in total.

    When the table's own PTG is allocated and the native library is
    loaded, the whole loop runs in one C call
    (:meth:`~repro.mapping.ScheduleKernel.cpa_allocate`); otherwise, and
    as the oracle the parity tests compare against, the Python loop
    below runs.  Both give bit-identical allocations.
    """
    P = table.num_processors
    alloc = np.ones(ptg.num_tasks, dtype=np.int64)
    times = table.times_for(alloc)
    area = float(times.sum())  # = sum alloc * times at alloc == 1
    kernel = _kernel_if_matching(ptg, table)
    if kernel is not None and kernel.has_native:
        return kernel.cpa_allocate(
            caps, area, divisor, limit, allow_negative_gain, levels
        )

    level_sum = None if levels is None else np.bincount(levels)
    idx = np.arange(ptg.num_tasks)
    for _ in range(limit):
        on_cp, t_cp = critical_path_mask(ptg, times, kernel)
        if t_cp <= area / divisor:
            break
        cand = on_cp & (alloc < caps)
        if level_sum is not None:
            cand &= level_sum[levels] < P
        if not cand.any():
            break
        # gain of adding one processor, restricted to candidates
        grown = table.array[idx[cand], alloc[cand]]  # T(v, s+1)
        gains = times[cand] - grown
        best_pos = int(np.argmax(gains))
        best_gain = float(gains[best_pos])
        if not allow_negative_gain and best_gain <= _EPS:
            break
        v = int(idx[cand][best_pos])
        # update area incrementally: area += (s+1) T(v,s+1) - s T(v,s)
        s = int(alloc[v])
        t_old = float(times[v])
        t_new = float(table.array[v, s])  # column s == p = s+1
        area += (s + 1) * t_new - s * t_old
        alloc[v] = s + 1
        times[v] = t_new
        if level_sum is not None:
            level_sum[levels[v]] += 1
    return alloc


class CpaAllocator(AllocationHeuristic):
    """Critical Path and Area-based allocation.

    Parameters
    ----------
    allow_negative_gain:
        Disable the non-monotone guard and run the textbook loop (only
        safe with monotone models; used by tests to document why the
        guard exists).
    max_iterations:
        Hard safety bound on growth steps; ``None`` derives ``V * P``.
    """

    name = "cpa"

    #: MCPA bounds the total allocation of each precedence level by P
    level_budget = False

    def __init__(
        self,
        allow_negative_gain: bool = False,
        max_iterations: int | None = None,
    ) -> None:
        self.allow_negative_gain = bool(allow_negative_gain)
        self.max_iterations = max_iterations

    def _caps(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        """Per-task allocation ceilings (MCPA2 lowers them)."""
        return np.full(ptg.num_tasks, table.num_processors, np.int64)

    def allocate(self, ptg: PTG, table: TimeTable) -> np.ndarray:
        P = table.num_processors
        limit = (
            self.max_iterations
            if self.max_iterations is not None
            else ptg.num_tasks * P
        )
        return grow_allocations(
            ptg,
            table,
            self._caps(ptg, table),
            divisor=P,
            limit=limit,
            levels=precedence_levels(ptg) if self.level_budget else None,
            allow_negative_gain=self.allow_negative_gain,
        )
