#!/usr/bin/env python
"""Reaction-latency harness for the online reactive runtime.

Runs :func:`repro.execute_online` over a deterministic battery of
fault scenarios and writes ``benchmarks/BENCH_online.json`` — the
machine-readable baseline the CI online job regenerates and gates via
``check_perf.py --online``:

``zero_fault_identical``
    Every paper-corpus class (plus the synthetic fft/grelon case)
    executed with an empty fault plan must reproduce the static
    simulator's makespan *bit for bit* and pass as-executed
    verification.  The whole online runtime is gated on this: no
    faults, no divergence.
``determinism_identical``
    The heaviest fault scenario replayed with the same seeds must
    produce byte-identical canonical traces and the same makespan —
    fault injection, straggler detection and rescheduling are pure
    functions of their seeds.
``reaction_p50_ms`` / ``reaction_p99_ms``
    Wall-clock latency percentiles of individual reschedule reactions
    (warm-started EMTS rung down to the greedy patch), harvested from
    the ``reaction_seconds`` attribute of ``reschedule`` trace events
    across every faulty run; gated against the pinned ``budgets``
    (committed values that a refresh never relaxes).
``outcomes`` / ``unverified_runs`` / ``rungs``
    Cross-checks: every terminal run must verify its as-executed
    schedule, and the battery must actually exercise the recovery
    ladder (reschedules > 0).

The workload: ``--runs`` seeds, each sampling a mixed fault plan
(crashes + transient failures + stragglers) against an fft graph
scheduled by MCPA on grelon, with a deadline generous enough that
reactions — not breaches — dominate.

``python benchmarks/check_perf.py --online benchmarks/BENCH_online.json``
enforces the gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.core import make_allocator  # noqa: E402
from repro.mapping import _cscheduler, map_allocations  # noqa: E402
from repro.obs import Tracer, canonical_events  # noqa: E402
from repro.online import (  # noqa: E402
    FaultPlan,
    ReactionPolicy,
    execute_online,
)
from repro.platform import chti, grelon  # noqa: E402
from repro.simulator import simulate  # noqa: E402
from repro.timemodels import (  # noqa: E402
    AmdahlModel,
    SyntheticModel,
    TimeTable,
)
from repro.workloads import generate_fft, paper_corpus  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_online.json"
#: latency budgets are pinned: regenerating the baseline never relaxes
#: them (same idiom as BENCH_service.json's budgets section)
BUDGET_DEFAULTS: dict[str, float] = {
    "reaction_p50_ms": 100.0,
    "reaction_p99_ms": 500.0,
}

#: mixed fault pressure: enough to force every recovery rung without
#: making completion hopeless (grelon has enough processors that even
#: a 5% crash rate kills a dozen of them per run)
FAULT_RATES = {
    "crash_rate": 0.05,
    "failure_rate": 0.25,
    "straggler_rate": 0.25,
    "straggler_factor": 2.5,
    "max_retries": 6,
}


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def build_planned(size: int):
    """One fft-on-grelon planning problem, MCPA-allocated."""
    ptg = generate_fft(size, rng=777)
    cluster = grelon()
    table = TimeTable.build(SyntheticModel(), ptg, cluster)
    alloc = make_allocator("mcpa").allocate(ptg, table)
    return map_allocations(ptg, table, alloc), table


def check_zero_fault_identity() -> tuple[bool, int]:
    """Empty-plan online execution must match ``simulate()`` bitwise."""
    cases = 0
    cluster = chti()
    model = AmdahlModel()
    corpus = paper_corpus(seed=11, scale=0.02)
    for cls in corpus.classes:
        for ptg in corpus.by_class(cls)[:2]:
            table = TimeTable.build(model, ptg, cluster)
            alloc = make_allocator("hcpa").allocate(ptg, table)
            schedule = map_allocations(ptg, table, alloc)
            baseline = simulate(schedule)
            result = execute_online(schedule, table)
            if (
                result.makespan != baseline.makespan
                or result.trace.events != baseline.trace.events
                or not result.verified
            ):
                return False, cases
            cases += 1
    planned, table = build_planned(8)
    baseline = simulate(planned)
    result = execute_online(planned, table)
    if (
        result.makespan != baseline.makespan
        or result.trace.events != baseline.trace.events
        or not result.verified
    ):
        return False, cases
    return True, cases + 1


def faulty_run(planned, table, seed: int, trace_path: Path):
    plan = FaultPlan.sampled(
        seed,
        planned.ptg.num_tasks,
        planned.cluster.num_processors,
        horizon=planned.makespan,
        **FAULT_RATES,
    )
    tracer = Tracer(trace_path)
    try:
        result = execute_online(
            planned,
            table,
            plan=plan,
            policy=ReactionPolicy(),
            deadline=planned.makespan * 10.0,
            rng=seed,
            tracer=tracer,
        )
    finally:
        tracer.close()
    return result


def reaction_samples_ms(trace_path: Path) -> list[float]:
    """Raw per-reschedule wall-clock latencies from a trace file."""
    samples = []
    with trace_path.open(encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("kind") != "reschedule":
                continue
            attrs = doc.get("attrs", {})
            if "reaction_seconds" in attrs:
                samples.append(float(attrs["reaction_seconds"]) * 1e3)
    return samples


def check_determinism(planned, table, tmp_dir: Path) -> bool:
    """Same seeds twice -> identical canonical trace and makespan."""
    paths = [tmp_dir / f"determinism-{i}.jsonl" for i in (0, 1)]
    results = [faulty_run(planned, table, 17, p) for p in paths]
    if results[0].makespan != results[1].makespan:
        return False
    first, second = (canonical_events(p) for p in paths)
    return first == second


def run(
    runs: int, size: int, out_path: Path, results_txt: Path | None
) -> dict:
    engine = "numpy" if _cscheduler.load() is None else "c"
    print(f"engine: {engine}")

    identical, zero_cases = check_zero_fault_identity()
    print(
        f"zero-fault identity: {zero_cases} cases "
        f"{'ok' if identical else 'BROKEN'}"
    )

    planned, table = build_planned(size)
    tmp_dir = out_path.parent / ".bench_online_traces"
    tmp_dir.mkdir(exist_ok=True)

    deterministic = check_determinism(planned, table, tmp_dir)
    print(f"same-seed determinism: {'ok' if deterministic else 'BROKEN'}")

    latencies: list[float] = []
    outcomes: dict[str, int] = {}
    rungs: dict[str, int] = {}
    reschedules = faults = retries = budget_used = 0
    unverified = 0
    for seed in range(runs):
        trace_path = tmp_dir / f"run-{seed}.jsonl"
        result = faulty_run(planned, table, seed, trace_path)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        for rung, n in result.rungs.items():
            rungs[rung] = rungs.get(rung, 0) + n
        reschedules += result.reschedules
        faults += result.faults_injected
        retries += result.retries
        budget_used += result.budget_used
        # aborted runs have no schedule to verify; every run that
        # produced one must pass as-executed verification
        if result.outcome != "aborted" and not result.verified:
            unverified += 1
        latencies.extend(reaction_samples_ms(trace_path))
        trace_path.unlink()
    for leftover in tmp_dir.glob("*.jsonl"):
        leftover.unlink()
    tmp_dir.rmdir()

    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    print(
        f"{runs} faulty runs: {faults} faults, {reschedules} "
        f"reschedules, rungs {rungs}, outcomes {outcomes}"
    )
    print(
        f"reaction latency: p50 {p50:.2f} ms  p99 {p99:.2f} ms  "
        f"({len(latencies)} samples)"
    )

    budgets = dict(BUDGET_DEFAULTS)
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))
        budgets.update(previous.get("budgets", {}))

    result = {
        "comment": (
            "online reactive runtime baseline; regenerate with "
            "benchmarks/bench_online.py, gate with "
            "check_perf.py --online (budgets are pinned: refreshing "
            "never relaxes them)"
        ),
        "engine": engine,
        "zero_fault_identical": identical,
        "zero_fault_cases": zero_cases,
        "determinism_identical": deterministic,
        "runs": runs,
        "graph_size": size,
        "fault_rates": dict(FAULT_RATES),
        "outcomes": outcomes,
        "unverified_runs": unverified,
        "reschedules_total": reschedules,
        "faults_total": faults,
        "retries_total": retries,
        "budget_used_total": budget_used,
        "rungs": rungs,
        "reaction_samples": len(latencies),
        "reaction_p50_ms": round(p50, 3),
        "reaction_p99_ms": round(p99, 3),
        "reaction_max_ms": round(max(latencies), 3) if latencies else 0.0,
        "budgets": budgets,
        "machine_info": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    out_path.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out_path}")
    if results_txt is not None:
        lines = [
            f"online engine={engine} runs={runs}",
            f"zero_fault_identical={identical} ({zero_cases} cases)",
            f"determinism_identical={deterministic}",
            f"reaction_p50_ms={p50:.3f} reaction_p99_ms={p99:.3f}",
            f"reschedules={reschedules} faults={faults} rungs={rungs}",
            f"outcomes={outcomes}",
        ]
        results_txt.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs",
        type=int,
        default=24,
        help="number of seeded fault scenarios (default: 24)",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=8,
        help="fft generator size of the planning problem (default: 8)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: benchmarks/BENCH_online.json)",
    )
    parser.add_argument(
        "--results-txt",
        type=Path,
        default=None,
        help="also write a plain-text summary for CI job logs",
    )
    args = parser.parse_args(argv)
    run(args.runs, args.size, args.out, args.results_txt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
