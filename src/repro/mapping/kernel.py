"""Compiled, array-based scheduling kernel (the EA's fitness engine).

The paper's complexity analysis (Section III-E) puts essentially the
whole cost of EMTS inside the mapping function: one bottom-level list
scheduling pass per offspring.  The reference implementation in
:mod:`repro.mapping.list_scheduler` re-derives everything from Python
objects on every call — predecessor tuples, fresh numpy temporaries,
``np.partition``/``np.flatnonzero`` allocations per scheduled task.
For a fixed (PTG, platform, time model) triple all of that structure is
*invariant across calls*, so this module compiles it once:

* the DAG flattened to CSR index arrays (forward and reverse adjacency,
  topological roots, in-degree vector) via
  :func:`repro.graph.csr_adjacency` — the same analysis the layered
  bottom-level sweep and the CPA-family heuristics use;
* the execution-time model materialized as the dense ``(V, P)`` float64
  matrix of the :class:`~repro.timemodels.TimeTable`, flattened for a
  single vectorized ``take`` per evaluation;
* preallocated int/float work buffers for the whole makespan path —
  allocation canonicalization, time lookup, the reverse-topological
  bottom-level sweep, the ready heap and the in-place processor free
  vector — so a
  fitness evaluation performs **no per-task numpy allocation** (the
  only per-task temporaries are the index array of the first-fit
  candidate scan and constant-size heap tuples).

On top of the numpy fast path, the fitness-only entry points
(:meth:`ScheduleKernel.makespan` / :meth:`ScheduleKernel.makespan_batch`)
dispatch to a native scheduling loop compiled at first use from the C
source in :mod:`repro.mapping._cscheduler` (a cached shared library
loaded through :mod:`ctypes`); :meth:`ScheduleKernel.cpa_allocate`
runs the CPA-family seeding loop in the same library.  When no C
compiler is available the kernel transparently keeps the numpy path;
set ``REPRO_NO_CKERNEL=1`` to force that fallback.  The
schedule-building path (:meth:`run` with ``build_schedule=True``)
always uses the Python loop — it is the cold path and keeps the
bookkeeping readable.

The kernel is **bit-identical** to the reference mapper: the same
first-fit-by-index tie-breaking, the same epsilon, the same floating
point operations in the same order — in both the numpy and the native
loop (IEEE-754 doubles, no reassociation or fused arithmetic).
``tests/test_mapping_kernel.py`` asserts equality of makespans, start
times and processor sets against the reference engine across hundreds
of randomized instances, on whichever loop is active, and pins the
native loop against the Python one directly.

Build one kernel per (PTG, time table) and reuse it for every fitness
call — :func:`kernel_for` caches the kernel on the ``TimeTable`` so all
consumers (the serial and process-pool evaluators, ``makespan_of``,
``map_allocations``) share a single compiled representation.  Kernels
are cheap to pickle and deliberately drop their PTG/table back
references when serialized: worker processes receive only the index
arrays and the dense time matrix, not the object graph.

A kernel instance is **not re-entrant**: its buffers are reused by
every call, so share one kernel per thread/process (the process-pool
evaluator builds one per worker).
"""

from __future__ import annotations

import os
from ctypes import c_void_p
from heapq import heapify, heappop, heappush
from math import inf
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import AllocationError
from ..graph import PTG, csr_adjacency
from . import _cscheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..timemodels import TimeTable

__all__ = [
    "ScheduleKernel",
    "kernel_for",
    "check_allocation",
    "batch_threads",
]

#: Same slack the reference ``ProcessorState`` uses for the first-fit
#: candidate scan; keeping it shared is part of the bit-identity story.
_EPS = 1e-12


def batch_threads() -> int:
    """Thread count for the native batch scheduler.

    ``REPRO_CKERNEL_THREADS`` (default 1) fans batch rows across OpenMP
    threads when the library was built with ``-fopenmp``; results are
    bit-identical for any value because each row is scheduled
    independently.  Invalid or non-positive values fall back to 1.
    """
    raw = os.environ.get("REPRO_CKERNEL_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return n if n >= 1 else 1


#: Graphs with more than this many tasks + edges keep the interpreted
#: bottom-level sweep instead of the unrolled one (compile time and
#: code size grow linearly with the graph).
_BL_UNROLL_LIMIT = 20000


def _compile_bl_sweep(num_tasks: int, bl_sweep: list):
    """Generate a straight-line bottom-level sweep for one DAG.

    The reverse-topological recurrence ``bl[v] = t[v] + max over
    successors`` has a fixed structure per graph, so the kernel unrolls
    it once into plain Python with one local per non-sink task — no
    loop bookkeeping, no list writes, just loads, compares and adds.
    IEEE max is exact and the one addition per task sees the same
    operands as the interpreted sweep, so results are bit-identical.

    Returns a function mapping a task-time list to a bottom-level list,
    or ``None`` for graphs above :data:`_BL_UNROLL_LIMIT`.
    """
    n_edges = sum(
        1 if type(ws) is int else len(ws) for _, ws in bl_sweep
    )
    if num_tasks + n_edges > _BL_UNROLL_LIMIT:
        return None
    non_sink = {v for v, _ in bl_sweep}
    # sinks have bl = their own time: reference them straight from t
    ref = [
        f"b{v}" if v in non_sink else f"t[{v}]"
        for v in range(num_tasks)
    ]
    lines = ["def _bl_sweep_unrolled(t):"]
    for v, ws in bl_sweep:
        if type(ws) is int:
            # single successor: bottom levels are strictly positive,
            # so the max over {bl[w]} is bl[w] itself
            lines.append(f" b{v} = t[{v}] + {ref[ws]}")
        elif len(ws) == 2:
            a, b = ref[ws[0]], ref[ws[1]]
            lines.append(f" b{v} = t[{v}] + ({a} if {a} > {b} else {b})")
        else:
            a, b = ref[ws[0]], ref[ws[1]]
            lines.append(f" m = {a} if {a} > {b} else {b}")
            for w in ws[2:]:
                c = ref[w]
                lines.append(f" m = m if m > {c} else {c}")
            lines.append(f" b{v} = t[{v}] + m")
    lines.append(" return [" + ",".join(ref) + "]")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated code
    return namespace["_bl_sweep_unrolled"]


def _compile_tl_sweep(num_tasks: int, tl_sweep: list):
    """Generate a straight-line top-level sweep for one DAG.

    The topological recurrence ``tl[v] = max over predecessors u of
    (tl[u] + t[u])`` (0 for sources) mirrors the bottom-level sweep;
    every addition sees the same operands as the layered numpy sweep in
    :func:`repro.graph.top_levels` and IEEE max is exact, so results
    are bit-identical.  Returns ``None`` above the unroll limit.
    """
    n_edges = sum(
        1 if type(us) is int else len(us) for _, us in tl_sweep
    )
    if num_tasks + n_edges > _BL_UNROLL_LIMIT:
        return None
    non_source = {v for v, _ in tl_sweep}
    # sources contribute tl[u] + t[u] = t[u]; their own tl is 0.0
    ref = [
        f"l{v}" if v in non_source else "0.0"
        for v in range(num_tasks)
    ]

    def term(u: int) -> str:
        return f"l{u} + t[{u}]" if u in non_source else f"t[{u}]"

    lines = ["def _tl_sweep_unrolled(t):"]
    for v, us in tl_sweep:
        if type(us) is int:
            # single predecessor: the max over one positive term
            lines.append(f" l{v} = {term(us)}")
        else:
            lines.append(f" m = {term(us[0])}")
            for u in us[1:]:
                lines.append(f" x = {term(u)}")
                lines.append(" m = m if m > x else x")
            lines.append(f" l{v} = m")
    lines.append(" return [" + ",".join(ref) + "]")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - self-generated code
    return namespace["_tl_sweep_unrolled"]


def check_allocation(alloc: np.ndarray, ptg: PTG, P: int) -> np.ndarray:
    """Validate and canonicalize an allocation vector.

    Raises :class:`AllocationError` unless ``alloc`` has shape ``(V,)``
    with integral entries in ``[1, P]``.
    """
    alloc = np.asarray(alloc)
    if alloc.shape != (ptg.num_tasks,):
        raise AllocationError(
            f"allocation has shape {alloc.shape}, expected "
            f"({ptg.num_tasks},)"
        )
    if not np.issubdtype(alloc.dtype, np.integer):
        rounded = np.rint(alloc)
        if not np.allclose(alloc, rounded):
            raise AllocationError("allocations must be integers")
        alloc = rounded.astype(np.int64)
    else:
        alloc = alloc.astype(np.int64)
    if alloc.min() < 1 or alloc.max() > P:
        raise AllocationError(
            f"allocations must lie in [1, {P}]; got range "
            f"[{alloc.min()}, {alloc.max()}]"
        )
    return alloc


class ScheduleKernel:
    """One compiled (PTG, time table) pair, reused across fitness calls.

    Parameters
    ----------
    ptg:
        The task graph; flattened to CSR arrays at construction.
    table:
        The precomputed :class:`~repro.timemodels.TimeTable`; its dense
        ``(V, P)`` matrix is the kernel's only time-model interface.
    """

    def __init__(self, ptg: PTG, table: "TimeTable") -> None:
        if table.num_tasks != ptg.num_tasks:
            raise AllocationError(
                f"time table covers {table.num_tasks} tasks, PTG "
                f"{ptg.name!r} has {ptg.num_tasks}"
            )
        V = ptg.num_tasks
        P = table.num_processors
        self.ptg: PTG | None = ptg
        self.table: "TimeTable" | None = table
        self.num_tasks = V
        self.num_processors = P

        # --- graph structure, flattened once --------------------------
        csr = csr_adjacency(ptg)
        self.csr = csr
        # successor tuples as plain Python ints: the inner loop iterates
        # them directly (faster than CSR slicing for V-sized graphs)
        self._succ = [ptg.successors(v) for v in range(V)]
        self._indegree = [int(d) for d in csr.in_degree]
        self._roots = [v for v in range(V) if self._indegree[v] == 0]
        # bottom-level sweep order: reverse topological, non-sink tasks
        # only (sinks keep bl = their own time); single-successor tasks
        # store the bare index so the sweep skips the inner loop
        rev_topo = ptg.topological_order[::-1].tolist()
        self._bl_sweep = [
            (v, ws[0] if len(ws) == 1 else ws)
            for v, ws in ((v, self._succ[v]) for v in rev_topo)
            if ws
        ]
        # top-level sweep: forward topological, non-source tasks only
        # (sources keep tl = 0); same single-predecessor flattening
        preds = [ptg.predecessors(v) for v in range(V)]
        topo = ptg.topological_order.tolist()
        self._tl_sweep = [
            (v, us[0] if len(us) == 1 else us)
            for v, us in ((v, preds[v]) for v in topo)
            if us
        ]
        # specialized straight-line sweeps, generated from the DAG once
        # (None for graphs too large to unroll)
        self._bl_compiled = _compile_bl_sweep(V, self._bl_sweep)
        self._tl_compiled = _compile_tl_sweep(V, self._tl_sweep)

        # --- dense time model -----------------------------------------
        # flat row-major view: T(v, p) lives at v * P + (p - 1);
        # _load_alloc leaves (alloc - 1) in the index buffer, so the row
        # base has no -1 correction
        self._flat_times = np.ascontiguousarray(table.array).reshape(-1)
        self._row_base = np.arange(V, dtype=np.int64) * P

        # --- preallocated work buffers --------------------------------
        self._alloc = np.empty(V, dtype=np.int64)
        self._flat_idx = np.empty(V, dtype=np.int64)
        self._times = np.empty(V, dtype=np.float64)
        self._free = np.empty(P, dtype=np.float64)
        self._scratch = np.empty(P, dtype=np.float64)
        self._mask = np.empty(P, dtype=bool)
        self._arange = np.arange(P, dtype=np.int64)

        # --- native scheduler (optional) ------------------------------
        # int32 copies of the graph structure for the C entry points;
        # picklable, so __setstate__ can re-attach the library without
        # the PTG.  The successor CSR matches self._succ edge-for-edge.
        self._c_rev_topo = np.ascontiguousarray(rev_topo, dtype=np.int32)
        self._c_indptr = np.ascontiguousarray(
            csr.succ_indptr, dtype=np.int32
        )
        self._c_indices = np.ascontiguousarray(
            csr.succ_indices, dtype=np.int32
        )
        self._c_indeg = np.ascontiguousarray(
            csr.in_degree, dtype=np.int32
        )
        self._c = None
        self._attach_c()

    def _attach_c(self) -> None:
        """Bind the native scheduling loop, if it can be built.

        The addresses of all buffers that stay fixed for the kernel's
        lifetime are wrapped once here — a native makespan call then
        only passes precomputed handles.  When :func:`_cscheduler.load`
        degrades to ``None`` the kernel simply keeps its numpy fast
        path.
        """
        lib = _cscheduler.load()
        if lib is None:
            self._c = None
            return
        V = self.num_tasks

        def ptr(arr):
            return c_void_p(arr.ctypes.data)

        # extra scratch the C loop needs beyond the shared buffers
        self._c_bl = np.empty(V, dtype=np.float64)
        self._c_dr = np.empty(V, dtype=np.float64)
        self._c_nw = np.empty(V, dtype=np.int32)
        self._c_heap = np.empty(V, dtype=np.int32)
        self._c = (
            lib,
            tuple(
                ptr(arr)
                for arr in (
                    self._flat_times,
                    self._alloc,
                    self._c_rev_topo,
                    self._c_indptr,
                    self._c_indices,
                    self._c_indeg,
                )
            ),
            tuple(
                ptr(arr)
                for arr in (
                    self._times,
                    self._c_bl,
                    self._c_dr,
                    self._c_nw,
                    self._free,
                    self._scratch,
                    self._c_heap,
                )
            ),
        )

    # ------------------------------------------------------------------
    # serialization: ship arrays, not the object graph
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # worker processes only need the compiled arrays; the PTG and
        # TimeTable object graphs stay in the parent process.  The
        # generated sweep function is not picklable — regenerated on
        # arrival from the (picklable) sweep description.  The native
        # library handle and its workspace pointers are re-bound on
        # arrival (the .so build is cached, so this is just a dlopen).
        state["ptg"] = None
        state["table"] = None
        state["_bl_compiled"] = None
        state["_tl_compiled"] = None
        state["_c"] = None
        state.pop("_c_bl", None)
        state.pop("_c_dr", None)
        state.pop("_c_nw", None)
        state.pop("_c_heap", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bl_compiled = _compile_bl_sweep(
            self.num_tasks, self._bl_sweep
        )
        self._tl_compiled = _compile_tl_sweep(
            self.num_tasks, self._tl_sweep
        )
        self._attach_c()

    # ------------------------------------------------------------------
    # per-call preparation
    # ------------------------------------------------------------------
    def _load_alloc(self, alloc: np.ndarray) -> np.ndarray:
        """Canonicalize ``alloc`` into the kernel's int64 buffer.

        Mirrors :func:`check_allocation` (same checks, same messages)
        but lands in a preallocated buffer instead of a fresh array.
        On return ``self._flat_idx`` holds ``alloc - 1`` — the hot path
        turns it into flat time-table indices by adding ``_row_base``.
        """
        a = alloc if type(alloc) is np.ndarray else np.asarray(alloc)
        V = self.num_tasks
        if a.shape != (V,):
            raise AllocationError(
                f"allocation has shape {a.shape}, expected ({V},)"
            )
        if a.dtype.kind not in "iu":
            rounded = np.rint(a)
            if not np.allclose(a, rounded):
                raise AllocationError("allocations must be integers")
            a = rounded.astype(np.int64)
        # single-reduction bounds check: viewed as unsigned, alloc - 1
        # is >= P exactly when some entry is < 1 (wraps huge) or > P
        idx = self._flat_idx
        np.subtract(a, 1, out=idx, casting="unsafe")
        if idx.view(np.uint64).max() >= self.num_processors:
            raise AllocationError(
                f"allocations must lie in [1, {self.num_processors}]; "
                f"got range [{a.min()}, {a.max()}]"
            )
        out = self._alloc
        np.copyto(out, a, casting="unsafe")
        return out

    def genome_key(self, alloc: np.ndarray) -> bytes:
        """Canonical cache key: the validated int64 buffer's raw bytes.

        The memoization cache keys off this so equal genomes — whatever
        their dtype or layout on arrival — share one cache entry.
        """
        return self._load_alloc(alloc).tobytes()

    def _bl_from_times(self, times: list) -> list:
        """Bottom levels as a Python list, from a task-time list.

        A reverse-topological sweep: ``bl[v] = times[v] + max over
        successors``.  IEEE max is exact and the single float64 addition
        sees the same operands as :func:`repro.graph.bottom_levels`, so
        the results are bit-identical to the layered numpy sweep — while
        costing O(V + E) scalar operations instead of per-layer array
        dispatch.
        """
        bl = list(times)
        for v, ws in self._bl_sweep:
            if type(ws) is int:
                # bottom levels are strictly positive, so the max over a
                # single successor is that successor's level
                bl[v] += bl[ws]
            else:
                m = 0.0
                for w in ws:
                    x = bl[w]
                    if x > m:
                        m = x
                bl[v] += m
        return bl

    def _bottom_levels_list(self, times: list) -> list:
        """Dispatch to the unrolled sweep when one was generated."""
        fn = self._bl_compiled
        return fn(times) if fn is not None else self._bl_from_times(times)

    def _tl_from_times(self, times: list) -> list:
        """Top levels as a Python list (interpreted fallback sweep)."""
        tl = [0.0] * self.num_tasks
        for v, us in self._tl_sweep:
            if type(us) is int:
                tl[v] = tl[us] + times[us]
            else:
                m = 0.0
                for u in us:
                    x = tl[u] + times[u]
                    if x > m:
                        m = x
                tl[v] = m
        return tl

    def _top_levels_list(self, times: list) -> list:
        """Dispatch to the unrolled sweep when one was generated."""
        fn = self._tl_compiled
        return fn(times) if fn is not None else self._tl_from_times(times)

    def levels(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bottom and top levels under per-task execution ``times``.

        Bit-identical to :func:`repro.graph.bottom_levels` /
        :func:`repro.graph.top_levels` on the kernel's PTG, but computed
        by straight-line Python functions generated from the DAG once
        (:func:`_compile_bl_sweep`, :func:`_compile_tl_sweep`; the
        interpreted sweeps above the unroll limit).  The Python CPA
        growth loop, used when the native :meth:`cpa_allocate` is not
        available, calls this once per growth step.
        """
        t = np.ascontiguousarray(times, dtype=np.float64)
        if t.shape != (self.num_tasks,):
            raise AllocationError(
                f"times has shape {t.shape}, expected ({self.num_tasks},)"
            )
        tlist = t.tolist()
        return (
            np.array(self._bottom_levels_list(tlist)),
            np.array(self._top_levels_list(tlist)),
        )

    def _load_times(self, alloc: np.ndarray) -> list:
        """Gather ``T(v, alloc[v])`` into the time buffer, as a list.

        ``_load_alloc`` must have run (``_flat_idx`` holds alloc - 1).
        """
        idx = self._flat_idx
        np.add(idx, self._row_base, out=idx)
        self._flat_times.take(idx, out=self._times)
        return self._times.tolist()

    def bottom_levels(self, alloc: np.ndarray) -> np.ndarray:
        """Bottom levels under ``alloc`` (a fresh array, safe to keep)."""
        self._load_alloc(alloc)
        times = self._load_times(alloc)
        return np.array(self._bottom_levels_list(times))

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def run(
        self,
        alloc: np.ndarray,
        build_schedule: bool = False,
        abort_above: float | None = None,
    ):
        """List-schedule ``alloc``; same contract as the reference engine.

        Returns ``(makespan, start, finish, proc_sets)``.  ``start`` /
        ``finish`` are float64 arrays and ``proc_sets`` a list of int64
        index arrays when ``build_schedule`` is true; all three are
        ``None`` otherwise (and on rejection, where ``makespan`` is
        ``inf``).
        """
        if not build_schedule:
            return self.makespan(alloc, abort_above), None, None, None
        alloc = self._load_alloc(alloc)

        # Python-native mirrors of the per-task state: scalar reads and
        # writes in the loop below cost ~5x less than numpy indexing
        times = self._load_times(alloc)
        bl = self._bottom_levels_list(times)
        alloc_l = alloc.tolist()
        V = self.num_tasks
        P = self.num_processors
        n_waiting = self._indegree.copy()
        data_ready = [0.0] * V
        start = [0.0] * V
        finish = [0.0] * V
        proc_sets: list = [None] * V
        succ = self._succ

        free = self._free
        free.fill(0.0)
        scratch = self._scratch
        mask = self._mask
        arange = self._arange
        copyto = np.copyto
        less_equal = np.less_equal
        partition = scratch.partition
        kth_item = scratch.item
        candidates = mask.nonzero
        assign = free.put
        hpop = heappop
        hpush = heappush
        eps = _EPS

        # heap of (-bottom level, index): max first, index breaks ties —
        # the exact ordering of the reference mapper
        heap = [(-bl[v], v) for v in self._roots]
        heapify(heap)

        # start(v) + bl(v) is a lower bound on the final makespan; with
        # no incumbent the comparison against +inf is never true, which
        # matches the reference's "abort_above is None" behaviour
        bound = inf if abort_above is None else abort_above
        makespan = 0.0
        while heap:
            v = hpop(heap)[1]
            s = alloc_l[v]
            r = data_ready[v]
            if r >= makespan:
                # every free time is a past finish <= the running peak
                # <= r, so all P processors are available at r and
                # first-fit takes the index prefix: one slice write,
                # no order statistics needed
                t_start = r
                t_finish = r + times[v]
                if t_start + bl[v] >= bound:
                    return np.inf, None, None, None
                free[:s] = t_finish
                proc_sets[v] = arange[:s].copy()
            elif s == P:
                # whole-cluster task: the s-th smallest free time is the
                # maximum, and every processor is a first-fit candidate
                kth = float(free.max())
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                if t_start + bl[v] >= bound:
                    return np.inf, None, None, None
                free[:] = t_finish
                proc_sets[v] = arange.copy()
            else:
                # earliest start: s processors are simultaneously free
                # from the s-th smallest free time onwards (in-place
                # partition of the scratch copy, no allocation)
                copyto(scratch, free)
                partition(s - 1)
                kth = kth_item(s - 1)
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                if t_start + bl[v] >= bound:
                    return np.inf, None, None, None
                # first-fit by index among processors free at t_start;
                # kth <= t_start guarantees at least s candidates
                less_equal(free, t_start + eps, mask)
                chosen = candidates()[0][:s]
                assign(chosen, t_finish)
                proc_sets[v] = chosen
            start[v] = t_start
            finish[v] = t_finish
            if t_finish > makespan:
                makespan = t_finish
            for w in succ[v]:
                if t_finish > data_ready[w]:
                    data_ready[w] = t_finish
                nw = n_waiting[w] = n_waiting[w] - 1
                if not nw:
                    hpush(heap, (-bl[w], w))

        assert not any(n_waiting), "DAG invariants guarantee full coverage"
        return (
            makespan,
            np.asarray(start, dtype=np.float64),
            np.asarray(finish, dtype=np.float64),
            proc_sets,
        )

    def makespan(
        self, alloc: np.ndarray, abort_above: float | None = None
    ) -> float:
        """Makespan of the list schedule for ``alloc`` (fitness path).

        The same algorithm as :meth:`run`, specialized for the EA
        fitness loop: no start/finish/processor-set bookkeeping at all,
        only the free vector and the running peak.  Returns ``inf``
        when ``abort_above`` is given and the partial schedule provably
        cannot beat it.
        """
        if abort_above is None:
            return self._makespan_unbounded(alloc)
        return self._makespan_bounded(alloc, abort_above)

    @property
    def has_native(self) -> bool:
        """True when the native C scheduling loop is bound."""
        return self._c is not None

    @property
    def engine(self) -> str:
        """Which makespan engine fitness calls run on: ``"c"`` when the
        native library is bound, ``"numpy"`` on the fallback loop.

        Observability surfaces (run traces, ``report-trace``) record
        this so a silently missed C build is visible in every trace.
        """
        return "c" if self._c is not None else "numpy"

    def cpa_allocate(
        self,
        caps: np.ndarray,
        area: float,
        divisor: float,
        limit: int,
        allow_negative_gain: bool = False,
        levels: np.ndarray | None = None,
    ) -> np.ndarray:
        """A CPA-family allocation, grown by the native loop in one call.

        Starting from one processor per task, grow critical-path tasks
        while ``T_CP > area / divisor``, at most ``limit`` steps.  Task
        ``v`` may grow while ``alloc[v] < caps[v]``; with ``levels``
        (precedence levels) only while its level claims fewer than
        ``P`` processors (MCPA's budget).  ``area`` is the initial work
        area, the sum of the one-processor times.  Needs the native
        library (:attr:`has_native`); the Python loop in
        :mod:`repro.allocation.cpa` is the fallback and the oracle.
        """
        lib, const_ptrs, _ws_ptrs = self._c
        V = self.num_tasks
        caps = np.ascontiguousarray(caps, dtype=np.int64)
        level_of = level_sum = None
        if levels is not None:
            level_of = np.ascontiguousarray(levels, dtype=np.int32)
            # bincount rejects negative levels; its length covers the max
            level_sum = np.bincount(level_of).astype(np.int64)
        for name, arr in (("caps", caps), ("levels", level_of)):
            if arr is not None and arr.shape != (V,):
                raise AllocationError(
                    f"{name} has shape {arr.shape}, expected ({V},)"
                )
        # a cap above P would read past a task's row of the time table
        if caps.max() > self.num_processors:
            raise AllocationError(
                f"caps must not exceed {self.num_processors}"
            )
        alloc = np.empty(V, dtype=np.int64)
        t, bl, tl = np.empty((3, V), dtype=np.float64)
        lib.cpa_allocate(
            V,
            self.num_processors,
            const_ptrs[0],
            *const_ptrs[2:5],
            caps.ctypes.data,
            None if level_of is None else level_of.ctypes.data,
            None if level_sum is None else level_sum.ctypes.data,
            float(area),
            float(divisor),
            # every step adds a processor to a task below P, so V * P
            # bounds the loop; the clamp keeps limit within int64
            min(int(limit), V * self.num_processors),
            int(bool(allow_negative_gain)),
            alloc.ctypes.data,
            t.ctypes.data,
            bl.ctypes.data,
            tl.ctypes.data,
        )
        return alloc

    def makespan_numpy(
        self, alloc: np.ndarray, abort_above: float | None = None
    ) -> float:
        """Makespan via the numpy/Python loop, bypassing the C dispatch.

        Differential verification (:mod:`repro.verify`) uses this to
        replay an allocation through the kernel's fallback engine even
        when the native library is loaded, so a silently corrupted
        native result cannot agree with itself.
        """
        alloc = self._load_alloc(alloc)
        times = self._load_times(alloc)
        if abort_above is None:
            return self._makespan_core(times, alloc.tolist())
        return self._makespan_core_bounded(
            times, alloc.tolist(), abort_above
        )

    def load_block(self, genome_block) -> np.ndarray:
        """Validate a ``(B, V)`` genome block into canonical form.

        Returns a C-contiguous int64 array — the batch analogue of
        :meth:`_load_alloc`, with the same checks and messages applied
        once across the whole block instead of per genome.
        """
        block = np.asarray(genome_block)
        if block.ndim != 2 or block.shape[1] != self.num_tasks:
            raise AllocationError(
                f"genome block has shape {block.shape}, expected "
                f"(batch, {self.num_tasks})"
            )
        if block.dtype.kind not in "iu":
            rounded = np.rint(block)
            if not np.allclose(block, rounded):
                raise AllocationError("allocations must be integers")
            block = rounded.astype(np.int64)
        else:
            block = block.astype(np.int64, copy=False)
        block = np.ascontiguousarray(block)
        if block.shape[0] == 0:
            return block
        # same single-reduction bounds check as _load_alloc, batch-wide
        if (block - 1).view(np.uint64).max() >= self.num_processors:
            raise AllocationError(
                f"allocations must lie in [1, {self.num_processors}]; "
                f"got range [{block.min()}, {block.max()}]"
            )
        return block

    def genome_block_keys(
        self, genome_block
    ) -> tuple[np.ndarray, list[bytes]]:
        """Canonical cache keys for a whole genome block at once.

        Returns ``(block, keys)`` where ``block`` is the canonical
        int64 form of the input and ``keys[i]`` equals
        ``genome_key(block[i])`` — one batch validation and one
        contiguous ``tobytes`` instead of per-genome work, which is
        what lets the memoization cache hash a population without
        re-validating every row separately.
        """
        block = self.load_block(genome_block)
        if block.shape[0] == 0:
            return block, []
        data = block.tobytes()
        step = block.shape[1] * 8
        keys = [
            data[i * step:(i + 1) * step]
            for i in range(block.shape[0])
        ]
        return block, keys

    def makespan_batch(
        self,
        genome_block,
        abort_above: float | None = None,
    ) -> list[float]:
        """Makespans for a whole batch of genomes, in input order.

        Accepts anything convertible to a ``(B, V)`` array (a stacked
        block or a list of genome vectors).  On the native path the
        whole block is scored by a single C call into the slot-based
        batch scheduler (optionally fanned across threads, see
        ``REPRO_CKERNEL_THREADS``); on the numpy path the validation,
        time-table gather and array→list conversions are vectorized
        across the batch.  Each genome's result is bit-identical to
        :meth:`makespan` on either engine.
        """
        block = self.load_block(genome_block)
        if block.shape[0] == 0:
            return []
        if self._c is not None:
            lib, const_ptrs, _ws_ptrs = self._c
            out = np.empty(block.shape[0], dtype=np.float64)
            lib.schedule_makespan_batch(
                block.shape[0],
                self.num_tasks,
                self.num_processors,
                batch_threads(),
                const_ptrs[0],
                block.ctypes.data,
                *const_ptrs[2:],
                inf if abort_above is None else float(abort_above),
                out.ctypes.data,
            )
            if np.isnan(out).any():
                # NaN rows mark per-thread workspace allocation
                # failures inside the C driver; replay them on the
                # numpy path (no engine ever *computes* NaN)
                for i in np.flatnonzero(np.isnan(out)):
                    out[i] = self.makespan_numpy(
                        block[i], abort_above
                    )
            return out.tolist()
        flat = (block - 1) + self._row_base  # broadcasts over rows
        times_rows = self._flat_times.take(flat).tolist()
        alloc_rows = block.tolist()
        if abort_above is None:
            core = self._makespan_core
            return [
                core(t, a) for t, a in zip(times_rows, alloc_rows)
            ]
        core_b = self._makespan_core_bounded
        return [
            core_b(t, a, abort_above)
            for t, a in zip(times_rows, alloc_rows)
        ]

    def _makespan_unbounded(self, alloc: np.ndarray) -> float:
        alloc = self._load_alloc(alloc)
        if self._c is not None:
            lib, const_ptrs, ws_ptrs = self._c
            return lib.schedule_makespan(
                self.num_tasks,
                self.num_processors,
                *const_ptrs,
                inf,
                *ws_ptrs,
            )
        times = self._load_times(alloc)
        return self._makespan_core(times, alloc.tolist())

    def _makespan_core(self, times: list, alloc_l: list) -> float:
        # The two loops below are deliberate near-duplicates: dropping
        # the per-task abort test from the no-incumbent path (the EA
        # fitness default and every benchmark) is a measurable win, and
        # the property suite pins both against the reference engine.
        #
        # Python-native mirrors of the per-task state: scalar reads and
        # writes in the loop below cost ~5x less than numpy indexing.
        bl = self._bottom_levels_list(times)
        P = self.num_processors
        n_waiting = self._indegree.copy()
        data_ready = [0.0] * self.num_tasks
        succ = self._succ

        free = self._free
        free.fill(0.0)
        scratch = self._scratch
        mask = self._mask
        copyto = np.copyto
        less_equal = np.less_equal
        partition = scratch.partition
        kth_item = scratch.item
        candidates = mask.nonzero
        assign = free.put
        hpop = heappop
        hpush = heappush
        eps = _EPS

        # heap of (-bottom level, index): max first, index breaks ties —
        # the exact ordering of the reference mapper
        heap = [(-bl[v], v) for v in self._roots]
        heapify(heap)

        makespan = 0.0
        while heap:
            v = hpop(heap)[1]
            s = alloc_l[v]
            r = data_ready[v]
            if r >= makespan:
                # all P processors are free by r: prefix assignment,
                # and the new finish is the new peak (times > 0)
                t_finish = r + times[v]
                free[:s] = t_finish
                makespan = t_finish
            elif s == P:
                kth = float(free.max())
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                free[:] = t_finish
                if t_finish > makespan:
                    makespan = t_finish
            else:
                copyto(scratch, free)
                partition(s - 1)
                kth = kth_item(s - 1)
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                less_equal(free, t_start + eps, mask)
                assign(candidates()[0][:s], t_finish)
                if t_finish > makespan:
                    makespan = t_finish
            for w in succ[v]:
                if t_finish > data_ready[w]:
                    data_ready[w] = t_finish
                nw = n_waiting[w] = n_waiting[w] - 1
                if not nw:
                    hpush(heap, (-bl[w], w))

        assert not any(n_waiting), "DAG invariants guarantee full coverage"
        return makespan

    def _makespan_bounded(
        self, alloc: np.ndarray, abort_above: float
    ) -> float:
        alloc = self._load_alloc(alloc)
        if self._c is not None:
            lib, const_ptrs, ws_ptrs = self._c
            return lib.schedule_makespan(
                self.num_tasks,
                self.num_processors,
                *const_ptrs,
                float(abort_above),
                *ws_ptrs,
            )
        times = self._load_times(alloc)
        return self._makespan_core_bounded(
            times, alloc.tolist(), abort_above
        )

    def _makespan_core_bounded(
        self, times: list, alloc_l: list, abort_above: float
    ) -> float:
        # Same loop with the rejection strategy: start(v) + bl(v) is a
        # lower bound on the final makespan, so stop as soon as it
        # reaches the incumbent (the schedule cannot beat it).
        bl = self._bottom_levels_list(times)
        P = self.num_processors
        n_waiting = self._indegree.copy()
        data_ready = [0.0] * self.num_tasks
        succ = self._succ

        free = self._free
        free.fill(0.0)
        scratch = self._scratch
        mask = self._mask
        copyto = np.copyto
        less_equal = np.less_equal
        partition = scratch.partition
        kth_item = scratch.item
        candidates = mask.nonzero
        assign = free.put
        hpop = heappop
        hpush = heappush
        eps = _EPS
        inf_ = np.inf
        bound = abort_above

        heap = [(-bl[v], v) for v in self._roots]
        heapify(heap)

        makespan = 0.0
        while heap:
            v = hpop(heap)[1]
            s = alloc_l[v]
            r = data_ready[v]
            if r >= makespan:
                t_start = r
                t_finish = r + times[v]
                if t_start + bl[v] >= bound:
                    return inf_
                free[:s] = t_finish
                makespan = t_finish
            elif s == P:
                kth = float(free.max())
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                if t_start + bl[v] >= bound:
                    return inf_
                free[:] = t_finish
                if t_finish > makespan:
                    makespan = t_finish
            else:
                copyto(scratch, free)
                partition(s - 1)
                kth = kth_item(s - 1)
                t_start = r if r >= kth else kth
                t_finish = t_start + times[v]
                if t_start + bl[v] >= bound:
                    return inf_
                less_equal(free, t_start + eps, mask)
                assign(candidates()[0][:s], t_finish)
                if t_finish > makespan:
                    makespan = t_finish
            for w in succ[v]:
                if t_finish > data_ready[w]:
                    data_ready[w] = t_finish
                nw = n_waiting[w] = n_waiting[w] - 1
                if not nw:
                    hpush(heap, (-bl[w], w))

        assert not any(n_waiting), "DAG invariants guarantee full coverage"
        return makespan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleKernel(V={self.num_tasks}, "
            f"P={self.num_processors}, E={self.csr.num_edges})"
        )


def kernel_for(table: "TimeTable") -> ScheduleKernel:
    """The compiled kernel of ``table`` (built once, cached on it)."""
    kernel = table._kernel
    if kernel is None:
        kernel = ScheduleKernel(table.ptg, table)
        table._kernel = kernel
    return kernel
