"""Unit tests for CPA and the CPA-family machinery."""

import numpy as np
import pytest

from repro.allocation import (
    BicpaAllocator,
    CpaAllocator,
    HcpaAllocator,
    Mcpa2Allocator,
    McpaAllocator,
    cpa_quantities,
    critical_path_mask,
)
from repro.graph import PTG, Task, chain
from repro.mapping import ScheduleKernel, _cscheduler, kernel_for, makespan_of
from repro.platform import Cluster, chti, grelon
from repro.timemodels import AmdahlModel, SyntheticModel, TimeTable
from repro.workloads import (
    DaggenParams,
    generate_daggen,
    generate_fft,
    generate_strassen,
)


def table_for(ptg, P=8, model=None, speed=1.0):
    cluster = Cluster("c", num_processors=P, speed_gflops=speed)
    return TimeTable.build(model or AmdahlModel(), ptg, cluster)


class TestCpaQuantities:
    def test_chain_all_ones(self):
        ptg = chain([1e9, 2e9, 3e9])
        table = table_for(ptg, P=4)
        alloc = np.ones(3, dtype=np.int64)
        t_cp, t_a = cpa_quantities(ptg, table, alloc)
        assert t_cp == pytest.approx(6.0)
        assert t_a == pytest.approx(6.0 / 4)


class TestCriticalPathMask:
    def test_diamond(self, diamond_ptg):
        # times: a=1, b=2, c=4, d=1 -> CP is a-c-d
        t = np.array([1.0, 2.0, 4.0, 1.0])
        mask, t_cp = critical_path_mask(diamond_ptg, t)
        assert t_cp == pytest.approx(6.0)
        assert mask.tolist() == [True, False, True, True]

    def test_parallel_equal_branches_all_critical(self, fork_join_ptg):
        t = np.ones(8)
        mask, _ = critical_path_mask(fork_join_ptg, t)
        assert mask.all()  # every branch ties for criticality


class TestCpaMonotone:
    def test_allocations_grow_beyond_one(self):
        ptg = chain([8e9, 8e9])
        table = table_for(ptg, P=8)
        alloc = CpaAllocator().allocate(ptg, table)
        assert alloc.max() > 1

    def test_allocation_in_bounds(self, irregular_ptg):
        table = table_for(irregular_ptg, P=8)
        alloc = CpaAllocator().allocate(irregular_ptg, table)
        assert alloc.min() >= 1
        assert alloc.max() <= 8

    def test_stops_when_tcp_below_ta(self, fork_join_ptg):
        table = table_for(fork_join_ptg, P=4)
        alloc = CpaAllocator().allocate(fork_join_ptg, table)
        from repro.allocation import cpa_quantities

        t_cp, t_a = cpa_quantities(fork_join_ptg, table, alloc)
        # after termination either the balance holds or nothing on the CP
        # could still improve; for this perfectly-scalable monotone case
        # the balance is reachable
        assert t_cp <= t_a * (1 + 1e-9) or alloc.max() == 4

    def test_improves_over_serial(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            AmdahlModel(), fft8_ptg, grelon_cluster
        )
        serial_ms = makespan_of(
            fft8_ptg, table, np.ones(39, dtype=np.int64)
        )
        cpa_ms = makespan_of(
            fft8_ptg, table, CpaAllocator().allocate(fft8_ptg, table)
        )
        assert cpa_ms < serial_ms

    def test_single_task_gets_everything_or_balance(self):
        # one perfectly parallel task: CPA grows it until T_CP <= T_A;
        # with alpha=0, T_A is constant = T(1)/P, so it grows to P
        ptg = PTG([Task("t", work=8e9, alpha=0.0)], [])
        table = table_for(ptg, P=8)
        alloc = CpaAllocator().allocate(ptg, table)
        assert alloc[0] == 8


class TestCpaNonMonotoneGuard:
    def test_allocations_stall_under_model2(self, fft8_ptg):
        """The paper's observation: under Model 2 allocations stop at
        4-8 processors."""
        table = table_for(fft8_ptg, P=120, model=SyntheticModel())
        alloc = CpaAllocator().allocate(fft8_ptg, table)
        assert alloc.max() <= 8

    def test_terminates_under_model2(self, irregular_ptg):
        table = table_for(
            irregular_ptg, P=64, model=SyntheticModel()
        )
        alloc = CpaAllocator().allocate(irregular_ptg, table)
        assert alloc.shape == (irregular_ptg.num_tasks,)

    def test_never_grows_at_negative_gain(self):
        ptg = PTG([Task("t", work=6e9, alpha=0.3)], [])
        table = table_for(ptg, P=3, model=SyntheticModel())
        alloc = CpaAllocator().allocate(ptg, table)
        # T(3) > T(2) at alpha=0.3: the guard must stop at 2
        assert alloc[0] == 2

    def test_allow_negative_gain_flag(self):
        ptg = PTG([Task("t", work=6e9, alpha=0.3)], [])
        table = table_for(ptg, P=3, model=SyntheticModel())
        loose = CpaAllocator(allow_negative_gain=True)
        alloc = loose.allocate(ptg, table)
        # without the guard the loop pushes past the inversion (and is
        # stopped by T_CP <= T_A or the cap)
        assert alloc[0] >= 2

    def test_max_iterations_cap(self, fft8_ptg, grelon_cluster):
        table = TimeTable.build(
            AmdahlModel(), fft8_ptg, grelon_cluster
        )
        capped = CpaAllocator(max_iterations=3).allocate(
            fft8_ptg, table
        )
        # at most 3 growth steps from all-ones
        assert (capped - 1).sum() <= 3


# ----------------------------------------------------------------------
# native growth loop vs the Python loop: exact parity
# ----------------------------------------------------------------------
# one graph per corpus class of the paper (Section IV-C)
CORPUS_CLASSES = {
    "fft-4": lambda: generate_fft(4, rng=11),
    "fft-8": lambda: generate_fft(8, rng=12),
    "fft-16": lambda: generate_fft(16, rng=13),
    "strassen": lambda: generate_strassen(rng=14),
    "layered-20": lambda: generate_daggen(
        DaggenParams(20, width=0.5, regularity=0.2, density=0.8, jump=0),
        rng=15,
    ),
    "layered-50": lambda: generate_daggen(
        DaggenParams(50, width=0.8, regularity=0.8, density=0.2, jump=0),
        rng=16,
    ),
    "irregular-20": lambda: generate_daggen(
        DaggenParams(20, width=0.2, regularity=0.8, density=0.2, jump=1),
        rng=17,
    ),
    "irregular-50": lambda: generate_daggen(
        DaggenParams(50, width=0.5, regularity=0.2, density=0.8, jump=4),
        rng=18,
    ),
}
PLATFORMS = {"chti": chti, "grelon": grelon}
MODELS = {"model1": AmdahlModel, "model2": SyntheticModel}


def family(model):
    """Every CPA-family allocator, HCPA also on a faster reference."""
    return {
        "cpa": CpaAllocator(),
        "hcpa": HcpaAllocator(),
        "hcpa-ref": HcpaAllocator(reference_speed_gflops=9.0, model=model),
        "mcpa": McpaAllocator(),
        "mcpa2": Mcpa2Allocator(),
        "bicpa": BicpaAllocator(step=17),
    }


@pytest.fixture
def native_library(monkeypatch):
    """Load the native library even under REPRO_NO_CKERNEL, so the
    parity suite runs on both kernel legs of CI."""
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setattr(_cscheduler, "_tried", False)
    monkeypatch.setattr(_cscheduler, "_lib", None)
    if _cscheduler.load() is None:
        pytest.skip("native library unavailable")


@pytest.fixture
def python_loop(monkeypatch):
    """Force every kernel onto the Python growth loop (the oracle)."""

    def force():
        monkeypatch.setattr(
            ScheduleKernel, "has_native", property(lambda self: False)
        )

    return force


@pytest.fixture
def native_calls(monkeypatch):
    """Count calls into the native growth loop."""
    calls = []
    original = ScheduleKernel.cpa_allocate

    def spy(self, *args, **kwargs):
        calls.append(self.num_tasks)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleKernel, "cpa_allocate", spy)
    return calls


def allocations(ptg, cluster, model, allocators):
    table = TimeTable.build(model, ptg, cluster)
    return {
        name: a.allocate(ptg, table) for name, a in allocators.items()
    }


def assert_same(native, python):
    assert native.keys() == python.keys()
    for name in native:
        assert native[name].dtype == python[name].dtype == np.int64
        assert np.array_equal(native[name], python[name]), name


@pytest.mark.usefixtures("native_library")
class TestNativeParity:
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("kind", sorted(CORPUS_CLASSES))
    def test_corpus_classes(
        self, kind, platform, model_name, python_loop, native_calls
    ):
        ptg = CORPUS_CLASSES[kind]()
        cluster = PLATFORMS[platform]()
        model = MODELS[model_name]()
        native = allocations(ptg, cluster, model, family(model))
        # cpa, hcpa, hcpa-ref, mcpa, mcpa2 and >= 2 BiCPA sizes
        assert len(native_calls) >= 7
        python_loop()
        assert_same(native, allocations(ptg, cluster, model, family(model)))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_daggen(self, seed, python_loop, native_calls):
        rng = np.random.default_rng(seed)
        params = DaggenParams(
            num_tasks=int(rng.integers(2, 70)),
            width=float(rng.uniform(0.1, 0.9)),
            regularity=float(rng.uniform(0.1, 0.9)),
            density=float(rng.uniform(0.1, 0.9)),
            jump=int(rng.integers(0, 5)),
        )
        ptg = generate_daggen(params, rng=seed)
        cluster = Cluster(
            "c", num_processors=int(rng.integers(1, 70)), speed_gflops=2.0
        )
        model = (AmdahlModel if seed % 2 else SyntheticModel)()
        native = allocations(ptg, cluster, model, family(model))
        assert native_calls
        python_loop()
        assert_same(native, allocations(ptg, cluster, model, family(model)))

    @pytest.mark.parametrize("model_cls", [AmdahlModel, SyntheticModel])
    def test_truncation_and_negative_gain(
        self, model_cls, fft8_ptg, python_loop, native_calls
    ):
        variants = {
            f"{cls.__name__}-{it}-{neg}": cls(
                allow_negative_gain=neg, max_iterations=it
            )
            for cls in (CpaAllocator, McpaAllocator, Mcpa2Allocator)
            for it in (0, 1, 7, 50, None)
            for neg in (False, True)
        }
        cluster = Cluster("c", num_processors=24, speed_gflops=1.0)
        native = allocations(fft8_ptg, cluster, model_cls(), variants)
        assert len(native_calls) == len(variants)
        python_loop()
        assert_same(
            native, allocations(fft8_ptg, cluster, model_cls(), variants)
        )
        if model_cls is SyntheticModel:
            # the non-monotone guard is exercised: dropping it changes
            # the allocation
            assert not np.array_equal(
                native["CpaAllocator-None-True"],
                native["CpaAllocator-None-False"],
            )

    def test_foreign_ptg_takes_the_python_loop(self, native_calls):
        """A table built for another graph with the same tasks: the
        allocator runs the Python loop on graph sweeps, which must
        agree with the native loop on the graph's own table."""
        own = generate_daggen(
            DaggenParams(30, width=0.5, regularity=0.5, density=0.5, jump=2),
            rng=21,
        )
        other = PTG(own.tasks, [(0, v) for v in range(1, own.num_tasks)])
        model = AmdahlModel()
        foreign = TimeTable.build(model, other, chti())
        table = TimeTable.build(model, own, chti())
        assert np.array_equal(foreign.array, table.array)
        for alloc in family(model).values():
            if isinstance(alloc, HcpaAllocator) and alloc.model:
                continue  # builds its own table for the graph
            native_calls.clear()
            python = alloc.allocate(own, foreign)
            assert not native_calls
            assert np.array_equal(python, alloc.allocate(own, table))
            assert native_calls

    def test_no_ckernel_env_gives_same_allocations(self, monkeypatch):
        problems = [
            (CORPUS_CLASSES[kind](), PLATFORMS[platform](), model())
            for kind, platform, model in (
                ("fft-8", "grelon", AmdahlModel),
                ("strassen", "chti", SyntheticModel),
                ("irregular-50", "grelon", AmdahlModel),
            )
        ]
        native = [
            allocations(ptg, c, m, family(m)) for ptg, c, m in problems
        ]
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        monkeypatch.setattr(_cscheduler, "_tried", False)
        monkeypatch.setattr(_cscheduler, "_lib", None)
        for (ptg, c, m), expected in zip(problems, native):
            table = TimeTable.build(m, ptg, c)
            assert not kernel_for(table).has_native
            assert_same(
                expected,
                {n: a.allocate(ptg, table) for n, a in family(m).items()},
            )

    def test_native_loop_rejects_misshapen_inputs(self, fft8_ptg):
        from repro.exceptions import AllocationError

        table = table_for(fft8_ptg, P=8)
        kernel = kernel_for(table)
        V = fft8_ptg.num_tasks
        with pytest.raises(AllocationError, match="caps"):
            kernel.cpa_allocate(np.full(V - 1, 8), 1.0, 8, 10)
        with pytest.raises(AllocationError, match="levels"):
            kernel.cpa_allocate(
                np.full(V, 8), 1.0, 8, 10, levels=np.zeros(V + 1, int)
            )
        with pytest.raises(AllocationError, match="exceed 8"):
            kernel.cpa_allocate(np.full(V, 9), 1.0, 8, 10)

    def test_huge_iteration_cap_matches_default(self, fft8_ptg):
        table = table_for(fft8_ptg, P=8)
        assert np.array_equal(
            CpaAllocator(max_iterations=10**30).allocate(fft8_ptg, table),
            CpaAllocator().allocate(fft8_ptg, table),
        )
