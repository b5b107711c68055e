"""Bit-identity property suite for the compiled scheduling kernel.

The compiled :class:`~repro.mapping.kernel.ScheduleKernel` promises
results **bit-identical** to the reference list scheduler — not merely
approximately equal.  This suite sweeps seeded daggen graphs crossed
with both paper time models (Model 1 = Amdahl, Model 2 = synthetic) and
random allocation vectors, comparing makespans, start times, finish
times and committed processor sets against the ``compiled=False``
reference engine with exact ``==`` / ``array_equal`` checks.

The seeded sweep covers well over 200 (graph, model, allocation) cases;
``test_case_count_floor`` pins that floor so a parameter edit cannot
silently shrink the coverage.
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro._rng import spawn
from repro.exceptions import AllocationError
from repro.graph import bottom_levels, top_levels
from repro.mapping import makespan_of, map_allocations
from repro.mapping.kernel import ScheduleKernel, kernel_for
from repro.platform import Cluster
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import DaggenParams, generate_daggen

# The sweep: |GRAPH_CASES| x |MODELS| x ALLOCS_PER_CASE cases.
GRAPH_CASES = [
    # (daggen seed, num_tasks, width, density, jump, P)
    (11, 12, 0.3, 0.4, 1, 3),
    (12, 20, 0.5, 0.5, 2, 8),
    (13, 30, 0.8, 0.2, 1, 16),
    (14, 40, 0.2, 0.6, 3, 5),
    (15, 25, 0.5, 0.8, 2, 32),
    (16, 50, 0.6, 0.3, 2, 12),
    (17, 35, 0.4, 0.5, 4, 24),
    (18, 15, 0.9, 0.7, 1, 2),
    (19, 45, 0.5, 0.4, 2, 64),
    (20, 28, 0.7, 0.6, 3, 7),
]
MODELS = [AmdahlModel, SyntheticModel]
ALLOCS_PER_CASE = 12


def _problem(case, model_cls):
    seed, n, width, density, jump, P = case
    ptg = generate_daggen(
        DaggenParams(
            num_tasks=n,
            width=width,
            regularity=0.2,
            density=density,
            jump=jump,
        ),
        rng=seed,
    )
    cluster = Cluster(f"prop{P}", num_processors=P, speed_gflops=1.0)
    table = TimeTable.build(model_cls(), ptg, cluster)
    return ptg, table


def _random_allocs(case, model_cls, num):
    seed, n, *_rest, P = case
    rng = spawn(seed, "kernel-prop", model_cls.__name__)
    return rng.integers(1, P + 1, size=(num, n), dtype=np.int64)


def test_case_count_floor():
    total = len(GRAPH_CASES) * len(MODELS) * ALLOCS_PER_CASE
    assert total >= 200


@pytest.mark.parametrize("model_cls", MODELS)
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_kernel_bit_identical_to_reference(case, model_cls):
    """Makespan, start/finish times and processor choices match the
    reference engine exactly on every random allocation."""
    ptg, table = _problem(case, model_cls)
    for alloc in _random_allocs(case, model_cls, ALLOCS_PER_CASE):
        fast = makespan_of(ptg, table, alloc, compiled=True)
        ref = makespan_of(ptg, table, alloc, compiled=False)
        assert fast == ref  # bitwise, no tolerance

        sched = map_allocations(ptg, table, alloc, compiled=True)
        oracle = map_allocations(ptg, table, alloc, compiled=False)
        assert np.array_equal(sched.start, oracle.start)
        assert np.array_equal(sched.finish, oracle.finish)
        assert len(sched.proc_sets) == len(oracle.proc_sets)
        for got, want in zip(sched.proc_sets, oracle.proc_sets):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("model_cls", MODELS)
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_kernel_abort_bit_identical(case, model_cls):
    """The rejection path agrees exactly with the reference: same
    decision (inf vs finite) and the same value when finite."""
    ptg, table = _problem(case, model_cls)
    allocs = _random_allocs(case, model_cls, 4)
    honest = [
        makespan_of(ptg, table, a, compiled=False) for a in allocs
    ]
    # bounds below, at, and above each honest makespan
    for alloc, ms in zip(allocs, honest):
        for bound in (ms * 0.5, ms, ms * 1.5, min(honest)):
            fast = makespan_of(
                ptg, table, alloc, abort_above=bound, compiled=True
            )
            ref = makespan_of(
                ptg, table, alloc, abort_above=bound, compiled=False
            )
            assert fast == ref or (
                np.isinf(fast) and np.isinf(ref)
            )


@pytest.mark.parametrize("model_cls", MODELS)
def test_makespan_batch_matches_scalar(model_cls):
    case = GRAPH_CASES[1]
    ptg, table = _problem(case, model_cls)
    kernel = kernel_for(table)
    block = _random_allocs(case, model_cls, 20)
    batch = kernel.makespan_batch(block)
    for value, alloc in zip(batch, block):
        assert value == kernel.makespan(alloc)
    bound = float(np.median(batch))
    bounded = kernel.makespan_batch(block, abort_above=bound)
    for value, alloc in zip(bounded, block):
        assert value == kernel.makespan(alloc, abort_above=bound)


@pytest.mark.parametrize("model_cls", MODELS)
def test_levels_match_graph_analysis(model_cls):
    """kernel.levels() reproduces the vectorized graph sweeps bitwise
    (CPA/HCPA/MCPA rely on this for identical allocation decisions)."""
    for case in GRAPH_CASES[:5]:
        ptg, table = _problem(case, model_cls)
        kernel = kernel_for(table)
        for alloc in _random_allocs(case, model_cls, 3):
            times = table.times_for(alloc)
            bl, tl = kernel.levels(times)
            assert np.array_equal(bl, bottom_levels(ptg, times))
            assert np.array_equal(tl, top_levels(ptg, times))


def test_pickle_roundtrip_bit_identical():
    """Workers receive the kernel by pickle; the rebuilt kernel (with
    regenerated compiled sweeps) must agree bitwise."""
    case = GRAPH_CASES[2]
    ptg, table = _problem(case, SyntheticModel)
    kernel = ScheduleKernel(ptg, table)
    clone = pickle.loads(pickle.dumps(kernel))
    for alloc in _random_allocs(case, SyntheticModel, 6):
        assert clone.makespan(alloc) == kernel.makespan(alloc)
        ms_c, st_c, fi_c, ps_c = clone.run(alloc, build_schedule=True)
        ms_k, st_k, fi_k, ps_k = kernel.run(alloc, build_schedule=True)
        assert ms_c == ms_k
        assert np.array_equal(st_c, st_k)
        assert np.array_equal(fi_c, fi_k)
        for a, b in zip(ps_c, ps_k):
            assert np.array_equal(a, b)


def test_native_loop_matches_python_loop():
    """The C scheduling loop agrees bitwise with the numpy loop on the
    same kernel instance — scalar, batch and bounded entry points."""
    case = GRAPH_CASES[4]
    ptg, table = _problem(case, SyntheticModel)
    kernel = ScheduleKernel(ptg, table)
    if kernel._c is None:
        pytest.skip("native scheduler unavailable on this host")
    allocs = _random_allocs(case, SyntheticModel, 8)
    native = [kernel.makespan(a) for a in allocs]
    native_batch = kernel.makespan_batch(allocs)
    bound = sorted(native)[len(native) // 2]
    native_bounded = [
        kernel.makespan(a, abort_above=bound) for a in allocs
    ]
    kernel._c = None  # same buffers, numpy loop
    assert [kernel.makespan(a) for a in allocs] == native
    assert kernel.makespan_batch(allocs) == native_batch
    assert [
        kernel.makespan(a, abort_above=bound) for a in allocs
    ] == native_bounded
    assert any(np.isinf(v) for v in native_bounded)
    assert any(np.isfinite(v) for v in native_bounded)


def test_no_ckernel_env_forces_python_loop(monkeypatch):
    """REPRO_NO_CKERNEL=1 disables the native loop; results and the
    public behaviour are unchanged."""
    from repro.mapping import _cscheduler

    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.setattr(_cscheduler, "_tried", False)
    monkeypatch.setattr(_cscheduler, "_lib", None)
    case = GRAPH_CASES[0]
    ptg, table = _problem(case, SyntheticModel)
    kernel = ScheduleKernel(ptg, table)
    assert kernel._c is None
    for alloc in _random_allocs(case, SyntheticModel, 3):
        assert kernel.makespan(alloc) == makespan_of(
            ptg, table, alloc, compiled=False
        )


def test_interpreted_sweep_fallback_bit_identical(monkeypatch):
    """Above the unroll limit the kernel falls back to interpreted
    level sweeps; force that path (native loop off) and re-check
    bit-identity."""
    from repro.mapping import kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "_BL_UNROLL_LIMIT", 0)
    case = GRAPH_CASES[3]
    ptg, table = _problem(case, AmdahlModel)
    kernel = ScheduleKernel(ptg, table)
    kernel._c = None  # exercise the interpreted Python sweeps
    assert kernel._bl_compiled is None
    assert kernel._tl_compiled is None
    for alloc in _random_allocs(case, AmdahlModel, 4):
        assert kernel.makespan(alloc) == makespan_of(
            ptg, table, alloc, compiled=False
        )
        times = table.times_for(alloc)
        bl, tl = kernel.levels(times)
        assert np.array_equal(bl, bottom_levels(ptg, times))
        assert np.array_equal(tl, top_levels(ptg, times))


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def kernel(self):
        _, table = _problem(GRAPH_CASES[0], SyntheticModel)
        return kernel_for(table)

    def test_alloc_below_range(self, kernel):
        alloc = np.ones(kernel.num_tasks, dtype=np.int64)
        alloc[0] = 0
        with pytest.raises(AllocationError):
            kernel.makespan(alloc)

    def test_alloc_above_range(self, kernel):
        alloc = np.ones(kernel.num_tasks, dtype=np.int64)
        alloc[-1] = kernel.num_processors + 1
        with pytest.raises(AllocationError):
            kernel.makespan(alloc)

    def test_alloc_wrong_shape(self, kernel):
        with pytest.raises(AllocationError):
            kernel.makespan(
                np.ones(kernel.num_tasks + 1, dtype=np.int64)
            )

    def test_batch_out_of_range(self, kernel):
        block = np.ones((3, kernel.num_tasks), dtype=np.int64)
        block[1, 2] = -4
        with pytest.raises(AllocationError):
            kernel.makespan_batch(block)

    def test_batch_wrong_shape(self, kernel):
        with pytest.raises(AllocationError):
            kernel.makespan_batch(
                np.ones((2, kernel.num_tasks + 1), dtype=np.int64)
            )

    def test_batch_non_integral_floats(self, kernel):
        block = np.ones((2, kernel.num_tasks), dtype=np.float64)
        block[0, 0] = 1.5
        with pytest.raises(AllocationError):
            kernel.makespan_batch(block)

    def test_levels_wrong_shape(self, kernel):
        with pytest.raises(AllocationError):
            kernel.levels(np.ones(kernel.num_tasks + 2))

    def test_batch_integral_floats_accepted(self, kernel):
        block = np.full((2, kernel.num_tasks), 2.0)
        exact = np.full((2, kernel.num_tasks), 2, dtype=np.int64)
        assert kernel.makespan_batch(block) == kernel.makespan_batch(
            exact
        )


class TestNativeCacheRecovery:
    """The native build cache degrades gracefully: corrupt cached
    libraries are rebuilt once, build failures fall back to numpy."""

    def _reset_loader(self, monkeypatch, cache_dir):
        from repro.mapping import _cscheduler

        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache_dir))
        monkeypatch.setattr(_cscheduler, "_tried", False)
        monkeypatch.setattr(_cscheduler, "_lib", None)
        return _cscheduler

    def test_corrupt_cached_library_is_rebuilt(self, tmp_path, monkeypatch):
        _cscheduler = self._reset_loader(monkeypatch, tmp_path)
        # both build variants (with and without OpenMP) have their own
        # cached artifact; corrupt them all so whichever the loader
        # picks must go through the delete-and-rebuild path
        garbage = b"not an ELF shared object"
        candidates = [
            _cscheduler._lib_path(openmp) for openmp in (True, False)
        ]
        for path in candidates:
            path.write_bytes(garbage)

        lib = _cscheduler.load()
        if lib is None:
            pytest.skip("no C compiler available to rebuild the cache")
        assert lib is not None
        # the loaded variant's garbage file was deleted and replaced
        # by a real build
        assert any(
            path.exists() and path.read_bytes() != garbage
            for path in candidates
        )
        assert lib.schedule_makespan is not None

    def test_build_failure_degrades_to_numpy_path(
        self, tmp_path, monkeypatch, caplog
    ):
        import logging

        _cscheduler = self._reset_loader(monkeypatch, tmp_path)
        monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
        with caplog.at_level(logging.WARNING, "repro.mapping.ckernel"):
            assert _cscheduler.load() is None
        assert any(
            "falling back to the numpy path" in r.message
            for r in caplog.records
        )


class TestCompileCacheLock:
    """The native build cache is file-locked: concurrent workers cannot
    race the delete+rebuild path into loading a half-written library."""

    def test_lock_excludes_concurrent_holder(self, tmp_path):
        import threading
        import time as _time

        pytest.importorskip("fcntl")
        from repro.mapping._cscheduler import _compile_cache_lock

        events = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with _compile_cache_lock(tmp_path):
                events.append("holder-in")
                entered.set()
                release.wait(timeout=10)
                events.append("holder-out")

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=10)
        # flock is per-fd, so a second acquisition in this process
        # must block until the holder releases — same as a second
        # worker process would
        waiter_done = threading.Event()

        def waiter():
            with _compile_cache_lock(tmp_path):
                events.append("waiter-in")
            waiter_done.set()

        w = threading.Thread(target=waiter)
        w.start()
        _time.sleep(0.1)
        assert not waiter_done.is_set(), "lock did not exclude"
        release.set()
        assert waiter_done.wait(timeout=10)
        t.join(timeout=10)
        w.join(timeout=10)
        assert events == ["holder-in", "holder-out", "waiter-in"]

    def test_lock_file_lives_in_cache_dir(self, tmp_path):
        pytest.importorskip("fcntl")
        from repro.mapping._cscheduler import _compile_cache_lock

        with _compile_cache_lock(tmp_path):
            assert (tmp_path / ".build.lock").exists()

    def test_concurrent_fresh_builds_all_load(self, tmp_path):
        """N processes pointed at one empty cache all get a working
        kernel; the lock serializes the compile instead of letting the
        unlink/rebuild races corrupt it."""
        import subprocess
        import sys

        from repro.mapping import _cscheduler

        if _cscheduler.load() is None:
            pytest.skip("no C compiler available")
        code = (
            "from repro.mapping import _cscheduler\n"
            "lib = _cscheduler.load()\n"
            "assert lib is not None and lib.schedule_makespan is not None\n"
            "print('loaded')\n"
        )
        env = dict(os.environ)
        env["REPRO_CKERNEL_CACHE"] = str(tmp_path)
        env.pop("REPRO_NO_CKERNEL", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(3)
        ]
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            assert "loaded" in out
