"""Optional C implementation of the scheduling and allocation loops.

The Python/numpy fast path in :mod:`repro.mapping.kernel` spends most
of its time in per-task numpy call overhead (the arrays hold only
``P`` elements, so dispatch dominates the actual work).  This module
compiles the same loops to native code at first use — plain C built
with the system compiler and loaded through the standard library's
:mod:`ctypes`, so neither Python headers nor a third-party binding
package is required — and caches the shared library under the system
temp directory keyed by a hash of the source and the compiler flags.

Bit-identity with the reference engine is preserved by construction:

* every floating-point operation (the bottom-level ``max`` chains, the
  ``t_start``/``t_finish`` additions, the ``<= t_start + 1e-12``
  candidate test) maps to the identical IEEE-754 double operation —
  there is no reassociation, fused arithmetic, or extended precision
  (no ``-ffast-math``, and ``-ffp-contract=off`` keeps the compiler
  from fusing ``a*b - c`` into one FMA on targets that have it);
* the ready queue pops tasks in the exact (bottom level descending,
  index ascending) order — a strict total order, so any correct heap
  yields the same sequence as :mod:`heapq`;
* the quickselect only extracts the *value* of the s-th smallest free
  time, which is independent of selection order, and processors are
  committed first-fit by index with the same epsilon window.

Three entry points are exported:

* ``schedule_makespan`` scores one genome per call;
* ``schedule_makespan_batch`` scores a whole ``(B, V)`` allocation
  matrix in a single call using a slot-multiset scheduler (sorted
  linked list of distinct free times, one processor bitmask per slot)
  that replaces the per-task quickselect with prefix-count walks and
  bit arithmetic — same IEEE-754 operations, same first-fit index
  sets, bit-identical results, several times faster per genome.  The
  batch loop is annotated with OpenMP pragmas; when built with
  ``-fopenmp`` (attempted first, plain build as fallback) the caller
  can fan rows across threads via the ``nthreads`` argument;
* ``cpa_allocate`` runs the whole CPA-family growth loop (the seeding
  allocations of CPA, HCPA, MCPA, MCPA2 and BiCPA) in one call, with
  the variants' constraints passed in as data: a per-task cap vector,
  an optional per-level budget and the divisor of the area balance.

The property suite in ``tests/test_mapping_kernel.py`` pins the native
makespan paths against the pure-Python reference, and
``tests/test_allocation_cpa.py`` pins ``cpa_allocate`` against the
Python growth loop, both with exact ``==`` comparisons.

If no C compiler is available, or compilation fails for any reason,
:func:`load` returns ``None`` and the kernel
keeps its numpy fast path (a warning is logged so the degradation is
visible, never fatal).  A corrupted or truncated cached ``.so`` — e.g.
from a machine crash mid-publish or a cache shared across incompatible
toolchains — is detected at ``dlopen``/symbol-check time, deleted, and
rebuilt once before giving up.  Set ``REPRO_NO_CKERNEL=1`` to force
the fallback; set ``REPRO_CKERNEL_CACHE`` to relocate the build cache.

Every pointer argument is declared as ``void *`` and passed as the raw
address of a C-contiguous numpy buffer (``arr.ctypes.data``); ctypes
releases the GIL for the duration of each call, so the OpenMP batch
path runs unimpeded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path

from ..obs.log import get_logger

__all__ = ["load"]

_log = get_logger("mapping.ckernel")

_ptr = ctypes.c_void_p
_int = ctypes.c_int
_double = ctypes.c_double

# (restype, argtypes) of the three exported entry points, mirroring their
# C prototypes below; pointers travel as raw buffer addresses
_SIGNATURES = {
    # double schedule_makespan(V, P, flat_times, alloc, rev_topo,
    #     indptr, indices, indeg, bound, times_ws, bl_ws,
    #     data_ready_ws, n_waiting_ws, free_ws, scratch_ws, heap_ws)
    "schedule_makespan": (
        _double,
        [_int, _int, *[_ptr] * 6, _double, *[_ptr] * 7],
    ),
    # void schedule_makespan_batch(B, V, P, nthreads, flat_times,
    #     alloc_rows, rev_topo, indptr, indices, indeg, bound, out)
    "schedule_makespan_batch": (
        None,
        [_int, _int, _int, _int, *[_ptr] * 6, _double, _ptr],
    ),
    # void cpa_allocate(V, P, flat_times, rev_topo, indptr, indices,
    #     caps, level_of, level_sum, area, divisor, limit,
    #     allow_negative_gain, alloc, t_ws, bl_ws, tl_ws)
    "cpa_allocate": (
        None,
        [
            _int, _int, *[_ptr] * 7, _double, _double,
            ctypes.c_int64, _int, *[_ptr] * 4,
        ],
    ),
}

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#define EPS 1e-12

/* Ready-queue ordering: bottom level descending, task index ascending
 * on ties — the exact total order of the reference mapper's
 * (-bl[v], v) heapq tuples. */
static inline int heap_before(const double *bl, int32_t a, int32_t b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
}

static void heap_push(int32_t *heap, int *n, const double *bl,
                      int32_t v) {
    int i = (*n)++;
    heap[i] = v;
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (!heap_before(bl, heap[i], heap[parent]))
            break;
        int32_t tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static int32_t heap_pop(int32_t *heap, int *n, const double *bl) {
    int32_t top = heap[0];
    int32_t last = heap[--(*n)];
    int m = *n;
    int i = 0;
    heap[0] = last;
    for (;;) {
        int child = 2 * i + 1;
        if (child >= m)
            break;
        if (child + 1 < m && heap_before(bl, heap[child + 1], heap[child]))
            child++;
        if (!heap_before(bl, heap[child], heap[i]))
            break;
        int32_t tmp = heap[i];
        heap[i] = heap[child];
        heap[child] = tmp;
        i = child;
    }
    return top;
}

/* Value of the k-th smallest element (0-based) — Hoare quickselect.
 * Only the value is consumed, which is independent of how ties are
 * arranged, so any correct selection algorithm is bit-identical to
 * numpy's introselect partition. */
static double kth_smallest(double *a, int n, int k) {
    int lo = 0, hi = n - 1;
    while (lo < hi) {
        double pivot = a[lo + (hi - lo) / 2];
        int i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                double t = a[i];
                a[i] = a[j];
                a[j] = t;
                i++;
                j--;
            }
        }
        if (k <= j)
            hi = j;
        else if (k >= i)
            lo = i;
        else
            return a[k];
    }
    return a[lo];
}

double schedule_makespan(
    int V, int P,
    const double *flat_times,
    const int64_t *alloc,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    double bound,
    double *t, double *bl, double *data_ready,
    int32_t *n_waiting, double *free_v, double *scratch,
    int32_t *heap)
{
    /* per-task times from the dense table: T(v, s(v)) */
    for (int v = 0; v < V; v++)
        t[v] = flat_times[(size_t)v * P + (alloc[v] - 1)];

    /* bottom levels: reverse-topological sweep, exact max chains */
    for (int i = 0; i < V; i++) {
        int32_t v = rev_topo[i];
        int32_t s = indptr[v], e = indptr[v + 1];
        if (s == e) {
            bl[v] = t[v];
            continue;
        }
        double m = bl[indices[s]];
        for (int32_t j = s + 1; j < e; j++) {
            double x = bl[indices[j]];
            if (x > m)
                m = x;
        }
        bl[v] = t[v] + m;
    }

    int heap_n = 0;
    for (int v = 0; v < V; v++) {
        data_ready[v] = 0.0;
        n_waiting[v] = indeg[v];
        if (indeg[v] == 0)
            heap_push(heap, &heap_n, bl, v);
    }
    for (int p = 0; p < P; p++)
        free_v[p] = 0.0;

    double makespan = 0.0;
    while (heap_n > 0) {
        int32_t v = heap_pop(heap, &heap_n, bl);
        int64_t s = alloc[v];
        double r = data_ready[v];
        double t_start, t_finish;
        if (r >= makespan) {
            /* every processor is free by r: prefix assignment and the
             * new finish time is the new peak */
            t_start = r;
            t_finish = r + t[v];
            if (t_start + bl[v] >= bound)
                return INFINITY;
            for (int64_t p = 0; p < s; p++)
                free_v[p] = t_finish;
            makespan = t_finish;
        } else if (s == P) {
            double kth = free_v[0];
            for (int p = 1; p < P; p++)
                if (free_v[p] > kth)
                    kth = free_v[p];
            t_start = r >= kth ? r : kth;
            t_finish = t_start + t[v];
            if (t_start + bl[v] >= bound)
                return INFINITY;
            for (int p = 0; p < P; p++)
                free_v[p] = t_finish;
            if (t_finish > makespan)
                makespan = t_finish;
        } else {
            for (int p = 0; p < P; p++)
                scratch[p] = free_v[p];
            double kth = kth_smallest(scratch, P, (int)(s - 1));
            t_start = r >= kth ? r : kth;
            t_finish = t_start + t[v];
            if (t_start + bl[v] >= bound)
                return INFINITY;
            /* first-fit by index among processors free at t_start */
            double limit = t_start + EPS;
            int64_t left = s;
            for (int p = 0; p < P && left > 0; p++) {
                if (free_v[p] <= limit) {
                    free_v[p] = t_finish;
                    left--;
                }
            }
            if (t_finish > makespan)
                makespan = t_finish;
        }
        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t w = indices[j];
            if (t_finish > data_ready[w])
                data_ready[w] = t_finish;
            if (--n_waiting[w] == 0)
                heap_push(heap, &heap_n, bl, w);
        }
    }
    return makespan;
}

/* ------------------------------------------------------------------
 * Population-at-once batch path.
 *
 * The per-genome loop above pays a quickselect over all P free times
 * for almost every task.  The batch path replaces the free-time array
 * with a *multiset of slots*: a value-sorted doubly-linked list with
 * one node per distinct free time, each node owning a bitmask of the
 * processor indices that become free at that time.  The s-th smallest
 * free time is then a prefix-count walk over a handful of nodes, and
 * the first-fit-by-index commitment is "the lowest s set bits of the
 * union of the qualifying nodes' masks" — pure integer bit tricks.
 *
 * Bit-identity with the loop above (and the numpy/python engines) is
 * preserved by construction: the floating-point operations are the
 * identical IEEE-754 doubles in the identical order, slot values are
 * compared exactly (equal finish times simply coexist as distinct
 * nodes), and the chosen processor-index set is the same first-fit
 * prefix the epsilon-window scan commits.
 */

static inline int popcount64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    while (x) {
        x &= x - 1;
        c++;
    }
    return c;
#endif
}

/* count of leading zeros; x must be nonzero */
static inline int clz64(uint64_t x) {
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_clzll(x);
#else
    int c = 0;
    uint64_t top = (uint64_t)1 << 63;
    while (!(x & top)) {
        x <<= 1;
        c++;
    }
    return c;
#endif
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REPRO_HAVE_BMI2_DISPATCH 1
#include <immintrin.h>
static int have_bmi2 = 0;
__attribute__((target("bmi2")))
static uint64_t lowest_bits_bmi2(uint64_t x, int k) {
    /* deposit a k-bit run into the positions of x's set bits: exactly
     * the lowest k set bits of x, in one instruction */
    return _pdep_u64(((uint64_t)1 << k) - 1, x);
}
#endif

/* the lowest k set bits of x, given pc = popcount(x); k >= 1 */
static inline uint64_t lowest_bits(uint64_t x, int k, int pc) {
    if (k >= pc)
        return x;
#if defined(REPRO_HAVE_BMI2_DISPATCH)
    if (have_bmi2)
        return lowest_bits_bmi2(x, k);
#endif
    if (k <= pc - k) {
        uint64_t y = x;
        for (int i = 0; i < k; i++)
            y &= y - 1;
        return x ^ y;
    }
    uint64_t y = x;
    for (int i = k; i < pc; i++)
        y &= ~(((uint64_t)1 << 63) >> clz64(y));
    return y;
}

static double schedule_makespan_slots(
    int V, int P, int W,
    const double *flat_times,
    const int64_t *alloc,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    double bound,
    double *t, double *bl, double *data_ready,
    int32_t *n_waiting, int32_t *rheap,
    double *sval, int32_t *scnt, int32_t *snext, int32_t *sprev,
    int32_t *sfree, int32_t *qs,
    uint64_t *smask, uint64_t *chosen)
{
    const int32_t SHEAD_ID = P;      /* sentinel before all slots */
    const int32_t STAIL_ID = P + 1;  /* sentinel after all slots */

    for (int v = 0; v < V; v++)
        t[v] = flat_times[(size_t)v * P + (alloc[v] - 1)];

    for (int i = 0; i < V; i++) {
        int32_t v = rev_topo[i];
        int32_t s = indptr[v], e = indptr[v + 1];
        if (s == e) {
            bl[v] = t[v];
            continue;
        }
        double m = bl[indices[s]];
        for (int32_t j = s + 1; j < e; j++) {
            double x = bl[indices[j]];
            if (x > m)
                m = x;
        }
        bl[v] = t[v] + m;
    }

    int heap_n = 0;
    for (int v = 0; v < V; v++) {
        data_ready[v] = 0.0;
        n_waiting[v] = indeg[v];
        if (indeg[v] == 0)
            heap_push(rheap, &heap_n, bl, v);
    }

    /* all processors start free at 0.0: one slot holding bits 0..P-1 */
    sval[SHEAD_ID] = -HUGE_VAL;
    sval[STAIL_ID] = HUGE_VAL;
    snext[SHEAD_ID] = 0;
    sprev[STAIL_ID] = 0;
    sval[0] = 0.0;
    scnt[0] = P;
    snext[0] = STAIL_ID;
    sprev[0] = SHEAD_ID;
    for (int w = 0; w < W - 1; w++)
        smask[w] = ~(uint64_t)0;
    smask[W - 1] = (P % 64)
        ? (((uint64_t)1 << (P % 64)) - 1)
        : ~(uint64_t)0;
    int nfree = 0;
    for (int32_t id = 1; id < P; id++)
        sfree[nfree++] = id;

    double makespan = 0.0;
    while (heap_n > 0) {
        int32_t v = heap_pop(rheap, &heap_n, bl);
        int64_t s = alloc[v];
        double r = data_ready[v];
        double t_start;
        int at_peak = r >= makespan;
        int q = 0;
        if (at_peak) {
            /* every processor is free by r */
            t_start = r;
        } else {
            /* one walk finds both the s-th smallest free time and the
             * qualifying slots: every slot counted toward the s-th
             * smallest has sval <= kth <= t_start, so it qualifies */
            int32_t sl = snext[SHEAD_ID];
            int64_t cum = scnt[sl];
            qs[q++] = sl;
            while (cum < s) {
                sl = snext[sl];
                cum += scnt[sl];
                qs[q++] = sl;
            }
            double kth = sval[sl];
            t_start = r >= kth ? r : kth;
            double limit = t_start + EPS;
            for (sl = snext[sl]; sl != STAIL_ID && sval[sl] <= limit;
                 sl = snext[sl])
                qs[q++] = sl;
        }
        double t_finish = t_start + t[v];
        if (t_start + bl[v] >= bound)
            return INFINITY;

        /* first-fit by index among processors free at t_start: the
         * lowest s bits of the union of the qualifying slots' masks */
        int top_w;  /* last word (inclusive) holding a chosen bit */
        if (at_peak) {
            /* every processor qualifies, so the first-fit choice is
             * simply processors 0..s-1: a prefix bitmask, no union
             * building needed.  Every slot is qualifying for the
             * subtraction pass below. */
            for (int32_t sl = snext[SHEAD_ID]; sl != STAIL_ID;
                 sl = snext[sl])
                qs[q++] = sl;
            int64_t full = s / 64;
            for (int w = 0; w < W; w++)
                chosen[w] = w < full ? ~(uint64_t)0 : 0;
            if (s % 64)
                chosen[full] = (((uint64_t)1 << (s % 64)) - 1);
            top_w = (int)((s - 1) / 64);
        } else if (q == 1) {
            /* single qualifying slot: it holds >= s processors, so the
             * choice is its lowest s bits and the subtraction below is
             * exact.  When the slot holds exactly s the whole slot
             * moves to t_finish — reuse it in place: no mask copy, no
             * subtraction, just a value update and a list re-link. */
            int32_t sl = qs[0];
            if (scnt[sl] == (int32_t)s) {
                int32_t before = sprev[sl], after = snext[sl];
                snext[before] = after;
                sprev[after] = before;
                sval[sl] = t_finish;
                int32_t tail = sprev[STAIL_ID];
                while (sval[tail] > t_finish)
                    tail = sprev[tail];
                int32_t nxt = snext[tail];
                snext[tail] = sl;
                sprev[sl] = tail;
                snext[sl] = nxt;
                sprev[nxt] = sl;
                if (t_finish > makespan)
                    makespan = t_finish;
                for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
                    int32_t w2 = indices[j];
                    if (t_finish > data_ready[w2])
                        data_ready[w2] = t_finish;
                    if (--n_waiting[w2] == 0)
                        heap_push(rheap, &heap_n, bl, w2);
                }
                continue;
            }
            const uint64_t *m = smask + (size_t)sl * W;
            int64_t left = s;
            int w = 0;
            for (;; w++) {
                uint64_t x = m[w];
                int pc = popcount64(x);
                if (pc < left) {
                    chosen[w] = x;
                    left -= pc;
                } else {
                    chosen[w] = lowest_bits(x, (int)left, pc);
                    break;
                }
            }
            top_w = w;
            for (int z = top_w + 1; z < W; z++)
                chosen[z] = 0;
        } else {
            /* build the union word by word, lowest first, stopping as
             * soon as s set bits have been found: the chosen bits are
             * the lowest s of the union, so higher words are never
             * needed */
            int64_t left = s;
            int w = 0;
            for (;; w++) {
                uint64_t x = 0;
                for (int i = 0; i < q; i++)
                    x |= smask[(size_t)qs[i] * W + w];
                int pc = popcount64(x);
                if (pc < left) {
                    chosen[w] = x;
                    left -= pc;
                } else {
                    chosen[w] = lowest_bits(x, (int)left, pc);
                    break;
                }
            }
            top_w = w;
            for (int z = top_w + 1; z < W; z++)
                chosen[z] = 0;
        }

        /* subtract the chosen processors from their slots */
        for (int i = 0; i < q; i++) {
            int32_t sl = qs[i];
            uint64_t *m = smask + (size_t)sl * W;
            int removed = 0;
            for (int w = 0; w <= top_w; w++) {
                uint64_t rm = m[w] & chosen[w];
                if (rm) {
                    m[w] ^= rm;
                    removed += popcount64(rm);
                }
            }
            if (removed) {
                scnt[sl] -= removed;
                if (scnt[sl] == 0) {
                    int32_t before = sprev[sl], after = snext[sl];
                    snext[before] = after;
                    sprev[after] = before;
                    sfree[nfree++] = sl;
                }
            }
        }

        /* new slot: the chosen processors finish at t_finish */
        int32_t id = sfree[--nfree];
        sval[id] = t_finish;
        scnt[id] = (int32_t)s;
        memcpy(smask + (size_t)id * W, chosen, (size_t)W * 8);
        int32_t after = sprev[STAIL_ID];
        while (sval[after] > t_finish)
            after = sprev[after];
        int32_t nxt = snext[after];
        snext[after] = id;
        sprev[id] = after;
        snext[id] = nxt;
        sprev[nxt] = id;

        if (at_peak)
            makespan = t_finish;
        else if (t_finish > makespan)
            makespan = t_finish;

        for (int32_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int32_t w = indices[j];
            if (t_finish > data_ready[w])
                data_ready[w] = t_finish;
            if (--n_waiting[w] == 0)
                heap_push(rheap, &heap_n, bl, w);
        }
    }
    return makespan;
}

void schedule_makespan_batch(
    int B, int V, int P, int nthreads,
    const double *flat_times,
    const int64_t *alloc_rows,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int32_t *indeg,
    double bound,
    double *out)
{
#if !defined(_OPENMP)
    nthreads = 1;
#endif
    if (nthreads < 1)
        nthreads = 1;
#if defined(REPRO_HAVE_BMI2_DISPATCH)
    have_bmi2 = __builtin_cpu_supports("bmi2");
#endif
#pragma omp parallel num_threads(nthreads) if (nthreads > 1 && B > 1)
    {
        int W = (P + 63) / 64;
        size_t n_dbl = 3 * (size_t)V + (size_t)P + 2;
        size_t n_i32 =
            2 * (size_t)V + 3 * ((size_t)P + 2) + 2 * (size_t)P;
        size_t n_u64 = (size_t)(P + 1) * (size_t)W;
        double *darena = (double *)malloc(n_dbl * sizeof(double));
        int32_t *iarena = (int32_t *)malloc(n_i32 * sizeof(int32_t));
        uint64_t *marena = (uint64_t *)malloc(n_u64 * sizeof(uint64_t));
        int ok = darena != NULL && iarena != NULL && marena != NULL;
#pragma omp for schedule(static)
        for (int b = 0; b < B; b++) {
            if (!ok) {
                /* arena allocation failed: NaN marks the row so the
                 * caller can re-run it on a fallback path */
                out[b] = NAN;
                continue;
            }
            double *t = darena, *bl = t + V, *dr = bl + V;
            double *sval = dr + V;
            int32_t *nw = iarena, *rheap = nw + V;
            int32_t *scnt = rheap + V;
            int32_t *snext = scnt + (P + 2);
            int32_t *sprev = snext + (P + 2);
            int32_t *sfree = sprev + (P + 2);
            int32_t *qs = sfree + P;
            uint64_t *smask = marena;
            uint64_t *chosen = smask + (size_t)P * W;
            out[b] = schedule_makespan_slots(
                V, P, W, flat_times, alloc_rows + (size_t)b * V,
                rev_topo, indptr, indices, indeg, bound,
                t, bl, dr, nw, rheap,
                sval, scnt, snext, sprev, sfree, qs,
                smask, chosen);
        }
        free(darena);
        free(iarena);
        free(marena);
    }
}

/* ------------------------------------------------------------------
 * CPA-family allocation growth loop (CPA, HCPA, MCPA, MCPA2, BiCPA).
 *
 * Starting from one processor per task, each step recomputes bottom
 * and top levels, stops once T_CP <= area / divisor, and otherwise
 * gives one more processor to the critical-path task with the largest
 * gain T(v, s) - T(v, s+1).  The variants differ only in data:
 *
 * - caps[v]: task v may grow while alloc[v] < caps[v] (P for CPA,
 *   min(P, work share) for MCPA2, the virtual size k for BiCPA);
 * - level_of/level_sum (MCPA; level_of == NULL disables it): task v
 *   may grow only while its precedence level claims fewer than P
 *   processors in total;
 * - divisor: the machine size in the T_A balance (k for BiCPA).
 *
 * Bit-identity with the Python loop in repro.allocation.cpa holds by
 * construction: the bottom-level recurrence is the one above; top
 * levels are pushed forward along successor edges in topological
 * order, and IEEE max is exact, so each equals the max over its
 * predecessors' tl + t; the critical-path threshold, the stop test,
 * the first-index argmax (strict >) and the incremental area update
 * use the same operations in the same order.  The caller passes the
 * initial area (numpy's pairwise sum of the one-processor times).
 */
void cpa_allocate(
    int V, int P,
    const double *flat_times,
    const int32_t *rev_topo,
    const int32_t *indptr,
    const int32_t *indices,
    const int64_t *caps,
    const int32_t *level_of,
    int64_t *level_sum,
    double area, double divisor, int64_t limit,
    int allow_negative_gain,
    int64_t *alloc, double *t, double *bl, double *tl)
{
    for (int v = 0; v < V; v++) {
        alloc[v] = 1;
        t[v] = flat_times[(size_t)v * P];
    }
    for (int64_t it = 0; it < limit; it++) {
        for (int i = 0; i < V; i++) {
            int32_t v = rev_topo[i];
            int32_t s = indptr[v], e = indptr[v + 1];
            if (s == e) {
                bl[v] = t[v];
                continue;
            }
            double m = bl[indices[s]];
            for (int32_t j = s + 1; j < e; j++) {
                double x = bl[indices[j]];
                if (x > m)
                    m = x;
            }
            bl[v] = t[v] + m;
        }
        for (int v = 0; v < V; v++)
            tl[v] = 0.0;
        for (int i = V - 1; i >= 0; i--) {
            int32_t u = rev_topo[i];
            double x = tl[u] + t[u];
            for (int32_t j = indptr[u]; j < indptr[u + 1]; j++)
                if (x > tl[indices[j]])
                    tl[indices[j]] = x;
        }
        double t_cp = bl[0];
        for (int v = 1; v < V; v++)
            if (bl[v] > t_cp)
                t_cp = bl[v];
        if (t_cp <= area / divisor)
            break;

        double threshold = t_cp * (1.0 - 1e-12) - EPS;
        int best = -1;
        double best_gain = 0.0;
        for (int v = 0; v < V; v++) {
            if (!(tl[v] + bl[v] >= threshold) || alloc[v] >= caps[v])
                continue;
            if (level_of != NULL && level_sum[level_of[v]] >= P)
                continue;
            double gain = t[v] - flat_times[(size_t)v * P + alloc[v]];
            if (best < 0 || gain > best_gain) {
                best = v;
                best_gain = gain;
            }
        }
        if (best < 0)
            break;
        if (!allow_negative_gain && best_gain <= EPS)
            break;

        int64_t s = alloc[best];
        double t_old = t[best];
        double t_new = flat_times[(size_t)best * P + s];
        area += (double)(s + 1) * t_new - (double)s * t_old;
        alloc[best] = s + 1;
        t[best] = t_new;
        if (level_of != NULL)
            level_sum[level_of[best]]++;
    }
}
"""

_lib: ctypes.CDLL | None = None
_tried = False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CKERNEL_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{uid}"


def _flags(openmp: bool) -> list[str]:
    # no FMA contraction: a fused a*b - c rounds once, the Python
    # engines twice (GCC contracts by default where the target has FMA)
    flags = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]
    if openmp:
        flags.append("-fopenmp")
    return flags


def _lib_path(openmp: bool) -> Path:
    """Cached artifact path for one build variant (source+flag hash)."""
    digest = hashlib.sha256(
        (_C_SOURCE + "\0" + " ".join(_flags(openmp))).encode("utf-8")
    ).hexdigest()[:16]
    return _cache_dir() / f"scheduler-{digest}.so"


@contextmanager
def _compile_cache_lock(cache: Path):
    """Exclusive inter-process lock over compile-cache mutation.

    Concurrent service workers (and parallel CI jobs sharing one cache
    directory) race the corrupt-``.so`` delete+rebuild path: without
    serialization one process can unlink a *good* library another
    process published (or is mid-``dlopen`` on).  An ``flock`` on a
    sidecar lock file makes "inspect, delete, rebuild, publish" atomic
    across processes.  Where :mod:`fcntl` is unavailable, or the lock
    file cannot be opened (read-only cache), this degrades to a no-op:
    the atomic ``os.replace`` publish still keeps races *benign* (never
    corrupting), just wasteful.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-posix platforms
        yield
        return
    try:
        cache.mkdir(parents=True, exist_ok=True)
        handle = open(cache / ".build.lock", "a+b")
    except OSError:  # pragma: no cover - unwritable cache directory
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


def _build(openmp: bool) -> Path:
    """Compile the shared library (cached by source + flag hash).

    ``openmp=True`` adds ``-fopenmp`` so the batch entry point can fan
    genomes across threads (``REPRO_CKERNEL_THREADS``); the flag is
    part of the cache digest, so the two variants never collide.
    Without OpenMP the ``#pragma omp`` lines are inert and the batch
    path runs serially — same results either way.
    """
    flags = _flags(openmp)
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    lib_path = _lib_path(openmp)
    if lib_path.exists():
        return lib_path
    with _compile_cache_lock(cache):
        # double-checked under the lock: a concurrent worker may have
        # published the artifact while we waited for the flock
        if lib_path.exists():
            return lib_path
        src_path = lib_path.with_suffix(".c")
        src_path.write_text(_C_SOURCE, encoding="utf-8")
        tmp_path = cache / f"{lib_path.stem}.{os.getpid()}.tmp.so"
        compiler = os.environ.get("CC", "cc")
        try:
            subprocess.run(
                [compiler, *flags, str(src_path), "-o", str(tmp_path)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            # atomic publish: even an unlocked racer (no fcntl) only
            # replaces the file with identical content
            os.replace(tmp_path, lib_path)
        finally:
            tmp_path.unlink(missing_ok=True)
    return lib_path


def _describe_failure(exc: BaseException) -> str:
    """Human-readable cause, including the compiler's stderr if any."""
    if isinstance(exc, subprocess.CalledProcessError):
        stderr = exc.stderr or b""
        if isinstance(stderr, bytes):
            stderr = stderr.decode("utf-8", "replace")
        detail = " ".join(stderr.split())[:200]
        return f"compiler exited with status {exc.returncode}: {detail}"
    return f"{type(exc).__name__}: {exc}"


def _dlopen_checked(lib_path: Path) -> ctypes.CDLL:
    """dlopen the cached build and declare every entry point.

    A truncated or stale cached library fails here — at load time,
    where the caller can rebuild — rather than mid-optimization: a
    non-ELF file fails ``dlopen`` and a missing symbol fails the
    attribute lookup.
    """
    lib = ctypes.CDLL(str(lib_path))
    for symbol, (restype, argtypes) in _SIGNATURES.items():
        func = getattr(lib, symbol)
        func.restype = restype
        func.argtypes = argtypes
    return lib


def load() -> ctypes.CDLL | None:
    """The native scheduler library, or ``None``.

    The first call compiles (or dlopens the cached build); failures of
    any kind — no compiler, sandboxed filesystem, corrupted cache —
    degrade to ``None`` with a logged warning so callers keep their
    pure-Python path.  A cached library that fails to load or lacks the
    expected symbols is deleted and rebuilt once.
    """
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    # Prefer the OpenMP build (threaded batch path); fall back to a
    # plain build when -fopenmp does not compile or its runtime
    # library fails to load on this machine.
    lib = None
    failures: list[str] = []
    for openmp in (True, False):
        try:
            lib_path = _build(openmp)
        except Exception as exc:
            failures.append(_describe_failure(exc))
            continue
        try:
            lib = _dlopen_checked(lib_path)
            break
        except Exception as exc:
            _log.warning(
                "cached native scheduling kernel %s failed to load "
                "(%s); deleting it and rebuilding once",
                lib_path,
                _describe_failure(exc),
            )
            try:
                with _compile_cache_lock(_cache_dir()):
                    # under the lock: a concurrent worker may already
                    # have replaced the bad artifact while we waited —
                    # retry the load before deleting, so a *good*
                    # library is never unlinked from under a peer
                    try:
                        lib = _dlopen_checked(lib_path)
                    except Exception:
                        Path(lib_path).unlink(missing_ok=True)
                        lib = None
                if lib is None:
                    lib_path = _build(openmp)
                    lib = _dlopen_checked(lib_path)
                break
            except Exception as exc2:
                failures.append(_describe_failure(exc2))
                continue
    if lib is None:
        _log.warning(
            "could not build the native scheduling kernel (%s); "
            "falling back to the numpy path",
            "; ".join(failures) or "no compiler attempt succeeded",
        )
        return None
    _lib = lib
    return _lib
