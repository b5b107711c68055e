#!/usr/bin/env python
"""Compare a pytest-benchmark JSON run against the committed baseline.

Usage
-----
Check a fresh run (exit code 1 on regression)::

    python -m pytest benchmarks/test_kernels.py \
        --benchmark-json=bench.json
    python benchmarks/check_perf.py bench.json

Refresh the committed baseline from a run::

    python benchmarks/check_perf.py bench.json --update

A kernel regresses when its mean time exceeds ``baseline * max-ratio``
(default 2.0, overridable via ``--max-ratio`` or the
``REPRO_PERF_MAX_RATIO`` environment variable).  Kernels present in the
run but missing from the baseline are reported and added on
``--update``; kernels missing from the run are ignored (so the check
can run on a benchmark subset).

The baseline records *mean seconds per kernel* plus the machine info of
the host that produced it.  Absolute timings move with hardware, which
is why the gate is a generous ratio rather than an equality: it catches
algorithmic regressions (the hot path growing a new O(n) factor), not
single-digit-percent noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "perf_baseline.json"
DEFAULT_MAX_RATIO = 2.0
#: Observability promise: instrumentation that is *disabled* may cost
#: at most this much of hot-path wall time (percent).
DEFAULT_MAX_OBS_OVERHEAD = 2.0
#: Batch promise: population-at-once evaluation must beat per-genome
#: single calls by this much on the compiled engine (same-run ratio).
DEFAULT_MIN_BATCH_SPEEDUP = 5.0
#: ... and on the numpy fallback it must at least never be slower.
DEFAULT_MIN_BATCH_SPEEDUP_NUMPY = 1.0
#: Pinned floor: the committed batch mean must keep this speedup over
#: the frozen pre-batch-kernel measurement (committed file only, so it
#: cannot flake on slower CI hosts).
MIN_PINNED_BATCH_SPEEDUP = 3.0
#: Service promise: an exact repeat request (cross-request result
#: cache) must beat a cold start by this much, same run, same host.
DEFAULT_MIN_SERVICE_WARM_SPEEDUP = 10.0
#: Latency budgets (ms) used when a BENCH_service.json predates the
#: pinned ``budgets`` section; the committed file's own pinned budgets
#: take precedence and a refresh never relaxes them.
SERVICE_BUDGET_DEFAULTS: dict[str, float] = {
    "p99_ms": 5000.0,
    "warm_p99_ms": 500.0,
}
#: Online reactive-runtime budgets (ms per reschedule reaction) used
#: when a BENCH_online.json predates the pinned ``budgets`` section;
#: the committed file's own pinned budgets take precedence and a
#: refresh never relaxes them.
ONLINE_BUDGET_DEFAULTS: dict[str, float] = {
    "reaction_p50_ms": 100.0,
    "reaction_p99_ms": 500.0,
}
#: Kill-restart recovery budgets (ms restart-to-serving) used when a
#: BENCH_recovery.json predates the pinned ``budgets`` section; the
#: committed file's own pinned budgets take precedence and a refresh
#: never relaxes them.
RECOVERY_BUDGET_DEFAULTS: dict[str, float] = {
    "restart_p99_ms": 10000.0,
}

# Same-run speedup gates: (fast kernel, reference kernel, committed
# floor, fresh-run floor).  Both engines are measured in the same run
# on the same host, so the ratio is robust to hardware differences;
# the floors sit below the recorded speedup to absorb scheduler noise.
SPEEDUP_GATES: list[tuple[str, str, float, float]] = [
    (
        "test_kernel_fitness_evaluation",
        "test_kernel_fitness_reference",
        2.5,
        2.5,
    ),
    # native CPA-family seeding vs the Python growth loop
    (
        "test_kernel_cpa_allocation_model1",
        "test_kernel_mcpa_allocation_model1_python",
        10.0,
        10.0,
    ),
]

# Pinned speedup gates: (pinned key, kernel, floor).  The ``pinned``
# section of the baseline freezes a mean measured *before* an
# optimization landed, on the machine that produced the baseline; the
# gate asserts the committed baseline's kernel mean keeps the promised
# speedup against it.  Checked from the committed file alone (no
# re-measurement), so it cannot flake on slower CI hosts — and it
# stops a baseline refresh from quietly absorbing a regression.
# ``pre_pr_fitness_mean`` is test_kernel_fitness_evaluation as
# committed before the compiled ScheduleKernel existed (reference
# engine, same benchmark, same machine).
PINNED_GATES: list[tuple[str, str, float]] = [
    ("pre_pr_fitness_mean", "test_kernel_fitness_evaluation", 3.0),
]
PINNED_DEFAULTS: dict[str, float] = {
    "pre_pr_fitness_mean": 0.001220367897901581,
}


def load_means(run_path: Path) -> dict[str, float]:
    """Kernel-name -> mean-seconds from a pytest-benchmark JSON file."""
    data = json.loads(run_path.read_text(encoding="utf-8"))
    means: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    if not means:
        raise SystemExit(
            f"{run_path}: no benchmarks found — was the run executed "
            "with --benchmark-json?"
        )
    return means


def update_baseline(
    run_path: Path, baseline_path: Path
) -> None:
    data = json.loads(run_path.read_text(encoding="utf-8"))
    # pinned values survive refreshes: they anchor speedup promises to
    # pre-optimization measurements and must never track the new run
    pinned = dict(PINNED_DEFAULTS)
    if baseline_path.exists():
        previous = json.loads(baseline_path.read_text(encoding="utf-8"))
        pinned.update(previous.get("pinned", {}))
    baseline = {
        "comment": (
            "Committed perf baseline for the CI perf-smoke job; "
            "refresh with: python benchmarks/check_perf.py "
            "<run.json> --update"
        ),
        "machine_info": {
            "node": data.get("machine_info", {}).get("node", "unknown"),
            "cpu_count": os.cpu_count(),
        },
        "means": load_means(run_path),
        "pinned": pinned,
    }
    baseline_path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"wrote {len(baseline['means'])} kernel baselines -> "
        f"{baseline_path}"
    )
    means = baseline["means"]
    for fast, ref, committed_floor, _ in SPEEDUP_GATES:
        if fast in means and ref in means:
            ratio = means[ref] / means[fast]
            note = (
                ""
                if ratio >= committed_floor
                else f"  (below the {committed_floor:.1f}x gate — "
                "CI will reject this baseline)"
            )
            print(
                f"recorded speedup {ref}/{fast}: {ratio:.2f}x{note}"
            )
    for key, fast, floor in PINNED_GATES:
        if key in pinned and fast in means:
            ratio = pinned[key] / means[fast]
            note = (
                ""
                if ratio >= floor
                else f"  (below the {floor:.1f}x gate — CI will "
                "reject this baseline)"
            )
            print(
                f"recorded speedup {key}/{fast}: {ratio:.2f}x{note}"
            )


def check_speedups(
    base_means: dict[str, float], run_means: dict[str, float]
) -> list[str]:
    """Enforce the compiled-kernel speedup gates.

    Returns the list of failed gate labels (empty when all hold).  A
    gate is skipped — with a notice — when its benchmarks are absent
    from the respective source, so subset runs stay usable.
    """
    failures: list[str] = []
    for fast, ref, committed_floor, run_floor in SPEEDUP_GATES:
        label = f"{ref}/{fast}"
        for means, floor, source in (
            (base_means, committed_floor, "baseline"),
            (run_means, run_floor, "this run"),
        ):
            if fast not in means or ref not in means:
                print(
                    f"speedup gate {label}: not measured in {source}, "
                    "skipped"
                )
                continue
            ratio = means[ref] / means[fast]
            ok = ratio >= floor
            verdict = "ok" if ok else "<< TOO SLOW"
            print(
                f"speedup gate {label} ({source}): {ratio:.2f}x "
                f"(floor {floor:.1f}x) {verdict}"
            )
            if not ok:
                failures.append(f"{label}@{source}")
    return failures


def check_pinned(
    pinned: dict[str, float], base_means: dict[str, float]
) -> list[str]:
    """Enforce the pinned speedup gates on the committed baseline."""
    failures: list[str] = []
    for key, fast, floor in PINNED_GATES:
        label = f"{key}/{fast}"
        if key not in pinned or fast not in base_means:
            print(f"pinned gate {label}: not recorded, skipped")
            continue
        ratio = pinned[key] / base_means[fast]
        ok = ratio >= floor
        verdict = "ok" if ok else "<< TOO SLOW"
        print(
            f"pinned gate {label}: {ratio:.2f}x "
            f"(floor {floor:.1f}x) {verdict}"
        )
        if not ok:
            failures.append(f"{label}@pinned")
    return failures


def check_obs(obs_path: Path, max_overhead: float) -> int:
    """Enforce the observability gates on a ``BENCH_obs.json`` file.

    The hard gate is ``disabled_overhead_pct`` < ``max_overhead``
    (percent; the ISSUE's <2 % promise).  The throughput numbers are
    sanity-checked to be positive so an empty or failed benchmark run
    cannot pass silently.
    """
    data = json.loads(obs_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    overhead = float(data["disabled_overhead_pct"])
    ok = overhead < max_overhead
    verdict = "ok" if ok else "<< TOO SLOW"
    print(
        f"obs gate disabled_overhead_pct: {overhead:+.3f}% "
        f"(max {max_overhead:.1f}%) {verdict}"
    )
    if not ok:
        failures.append("disabled_overhead_pct")
    for key in ("fitness_evals_per_sec", "batch_evals_per_sec"):
        value = float(data.get(key, 0.0))
        ok = value > 0
        print(
            f"obs gate {key}: {value:,.0f}/s "
            f"{'ok' if ok else '<< NOT MEASURED'}"
        )
        if not ok:
            failures.append(key)
    if failures:
        print(
            f"\nFAIL: {len(failures)} observability gate(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("\nOK: observability overhead within budget")
    return 0


def check_batch(batch_path: Path, min_speedup: float | None) -> int:
    """Enforce the batch-evaluation gates on a ``BENCH_batch.json``.

    Three gates:

    * ``batch_speedup_x`` (same-run single-call / population-at-once
      ratio) must reach ``min_speedup`` — default >= 5x on the
      compiled engine, >= 1x on the numpy fallback (which only saves
      Python dispatch, not the FFI crossing).
    * the recorded ``batch_us_per_genome`` must keep a >=
      ``MIN_PINNED_BATCH_SPEEDUP`` speedup over the pinned
      pre-optimization mean (committed-file comparison: both numbers
      come from the baseline host, so a slow CI runner cannot flake
      it — and a baseline refresh cannot quietly absorb a regression).
    * ``island_identical`` must be true: same-seed EMTS island runs
      are bit-identical across execution shard counts.
    """
    data = json.loads(batch_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    engine = data.get("engine", "unknown")
    if min_speedup is None:
        min_speedup = (
            DEFAULT_MIN_BATCH_SPEEDUP
            if engine == "c"
            else DEFAULT_MIN_BATCH_SPEEDUP_NUMPY
        )
    speedup = float(data["batch_speedup_x"])
    ok = speedup >= min_speedup
    verdict = "ok" if ok else "<< TOO SLOW"
    print(
        f"batch gate batch_speedup_x ({engine} engine): "
        f"{speedup:.2f}x (floor {min_speedup:.1f}x) {verdict}"
    )
    if not ok:
        failures.append("batch_speedup_x")
    pinned = data.get("pinned", {})
    pre = pinned.get("pre_batch_us_per_genome")
    batch_us = float(data.get("batch_us_per_genome", 0.0))
    if pre is None or batch_us <= 0:
        print("batch gate pre_batch_us_per_genome: not recorded, skipped")
    elif engine != "c":
        print(
            "batch gate pre_batch_us_per_genome: numpy engine, skipped"
        )
    else:
        ratio = float(pre) / batch_us
        ok = ratio >= MIN_PINNED_BATCH_SPEEDUP
        verdict = "ok" if ok else "<< TOO SLOW"
        print(
            f"batch gate pre_batch/batch (pinned): {ratio:.2f}x "
            f"(floor {MIN_PINNED_BATCH_SPEEDUP:.1f}x) {verdict}"
        )
        if not ok:
            failures.append("pre_batch_us_per_genome")
    identical = bool(data.get("island_identical", False))
    makespans = data.get("island_makespans", {})
    print(
        f"batch gate island_identical: {identical} "
        f"(shards {sorted(makespans)}) "
        f"{'ok' if identical else '<< DIVERGED'}"
    )
    if not identical:
        failures.append("island_identical")
    if failures:
        print(
            f"\nFAIL: {len(failures)} batch gate(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("\nOK: batch speedup and island identity gates hold")
    return 0


def check_service(
    service_path: Path, min_warm_speedup: float | None
) -> int:
    """Enforce the scheduling-service gates on a ``BENCH_service.json``.

    Four gates:

    * ``warm_over_cold_x`` — an exact repeat request (served from the
      cross-request result cache) must beat a cold start (table +
      kernel + full EMTS run) by >= 10x.  Same-run ratio, so hardware
      differences cancel.
    * latency budgets — ``p99_ms`` (whole concurrent mixed load) and
      ``warm_p99_ms`` (quiescent repeats) must stay within the pinned
      ``budgets`` committed in the file; a baseline refresh never
      relaxes them.
    * cache integrity — the daemon's own counters must show every
      repeat request served from the result cache, and every
      submitted job completed.
    * liveness — the mixed load must have measured a positive
      throughput over a non-trivial request count.
    """
    data = json.loads(service_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    if min_warm_speedup is None:
        min_warm_speedup = DEFAULT_MIN_SERVICE_WARM_SPEEDUP
    budgets = dict(SERVICE_BUDGET_DEFAULTS)
    budgets.update(data.get("budgets", {}))

    speedup = float(data["warm_over_cold_x"])
    ok = speedup >= min_warm_speedup
    print(
        f"service gate warm_over_cold_x: {speedup:.1f}x "
        f"(floor {min_warm_speedup:.1f}x) "
        f"{'ok' if ok else '<< TOO SLOW'}"
    )
    if not ok:
        failures.append("warm_over_cold_x")

    for key in ("p99_ms", "warm_p99_ms"):
        value = float(data[key])
        budget = float(budgets[key])
        ok = value <= budget
        print(
            f"service gate {key}: {value:.1f} ms "
            f"(budget {budget:.0f} ms) "
            f"{'ok' if ok else '<< OVER BUDGET'}"
        )
        if not ok:
            failures.append(key)

    server = data.get("server", {})
    repeats = int(data.get("repeat_requests", 0))
    cache_hits = int(server.get("result_cache_hits", 0))
    ok = repeats > 0 and cache_hits >= repeats
    print(
        f"service gate result-cache integrity: {cache_hits} hits for "
        f"{repeats} repeat requests "
        f"{'ok' if ok else '<< CACHE MISSED REPEATS'}"
    )
    if not ok:
        failures.append("result_cache_integrity")
    submitted = int(server.get("jobs_submitted", 0))
    completed = int(server.get("jobs_completed", 0))
    ok = submitted > 0 and completed == submitted
    print(
        f"service gate completion: {completed}/{submitted} jobs "
        f"completed {'ok' if ok else '<< LOST JOBS'}"
    )
    if not ok:
        failures.append("completion")

    rps = float(data.get("requests_per_sec", 0.0))
    total = int(data.get("requests_total", 0))
    ok = rps > 0 and total >= 50
    print(
        f"service gate liveness: {total} requests at {rps:.0f} req/s "
        f"{'ok' if ok else '<< NO LOAD MEASURED'}"
    )
    if not ok:
        failures.append("liveness")

    if failures:
        print(
            f"\nFAIL: {len(failures)} service gate(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("\nOK: service warm-cache speedup and latency budgets hold")
    return 0


def check_online(online_path: Path) -> int:
    """Enforce the online-runtime gates on a ``BENCH_online.json``.

    Five gates:

    * zero-fault identity — executing a faultless plan online must
      reproduce the static simulator's makespan bit for bit across
      every paper-corpus class; the whole reactive runtime hangs off
      this equivalence.
    * determinism — the same fault seeds replayed twice must yield
      identical canonical traces and makespans.
    * reaction latency — per-reschedule wall-clock p50/p99 must stay
      within the pinned ``budgets`` committed in the file; a baseline
      refresh never relaxes them.
    * verification — every run that produced an as-executed schedule
      must have passed :class:`ScheduleVerifier` checks.
    * liveness — the battery must actually have exercised the
      recovery ladder (faults injected, reschedules applied, latency
      samples collected).
    """
    data = json.loads(online_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    budgets = dict(ONLINE_BUDGET_DEFAULTS)
    budgets.update(data.get("budgets", {}))

    identical = bool(data.get("zero_fault_identical", False))
    cases = int(data.get("zero_fault_cases", 0))
    ok = identical and cases >= 4
    print(
        f"online gate zero-fault identity: {cases} cases "
        f"{'ok' if ok else '<< IDENTITY BROKEN'}"
    )
    if not ok:
        failures.append("zero_fault_identity")

    deterministic = bool(data.get("determinism_identical", False))
    print(
        f"online gate same-seed determinism: "
        f"{'ok' if deterministic else '<< NONDETERMINISTIC'}"
    )
    if not deterministic:
        failures.append("determinism")

    for key in ("reaction_p50_ms", "reaction_p99_ms"):
        value = float(data[key])
        budget = float(budgets[key])
        ok = value <= budget
        print(
            f"online gate {key}: {value:.2f} ms "
            f"(budget {budget:.0f} ms) "
            f"{'ok' if ok else '<< OVER BUDGET'}"
        )
        if not ok:
            failures.append(key)

    unverified = int(data.get("unverified_runs", 0))
    ok = unverified == 0
    print(
        f"online gate verification: {unverified} unverified runs "
        f"{'ok' if ok else '<< UNVERIFIED SCHEDULES'}"
    )
    if not ok:
        failures.append("verification")

    runs = int(data.get("runs", 0))
    reschedules = int(data.get("reschedules_total", 0))
    samples = int(data.get("reaction_samples", 0))
    faults = int(data.get("faults_total", 0))
    ok = runs >= 10 and faults > 0 and reschedules > 0 and samples > 0
    print(
        f"online gate liveness: {runs} runs, {faults} faults, "
        f"{reschedules} reschedules, {samples} latency samples "
        f"{'ok' if ok else '<< NO REACTIONS MEASURED'}"
    )
    if not ok:
        failures.append("liveness")

    if failures:
        print(
            f"\nFAIL: {len(failures)} online gate(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(
        "\nOK: online zero-fault identity, determinism and "
        "reaction-latency budgets hold"
    )
    return 0


def check_recovery(recovery_path: Path) -> int:
    """Enforce the exactly-once gates on a ``BENCH_recovery.json``.

    Four gates:

    * no-loss — every job the client got an ack for reached ``done``
      after the kill-restart cycles (``jobs_lost == 0``).
    * no-duplicate — no idempotency key ever owned more than one spool
      record (``jobs_duplicated == 0``): retries after lost acks were
      answered by the original job, never by a twin.
    * bit-identity — the per-cycle reference request produced the same
      result document in every cycle, crashes notwithstanding.
    * restart latency — restart-to-serving p99 (process start + spool
      recovery until ``/healthz``) must stay within the pinned
      ``budgets`` committed in the file; a refresh never relaxes them.

    Plus liveness: at least 3 crash cycles with acked jobs.
    """
    data = json.loads(recovery_path.read_text(encoding="utf-8"))
    failures: list[str] = []
    budgets = dict(RECOVERY_BUDGET_DEFAULTS)
    budgets.update(data.get("budgets", {}))

    lost = int(data.get("jobs_lost", -1))
    ok = lost == 0
    print(
        f"recovery gate no-loss: {lost} acked job(s) lost "
        f"{'ok' if ok else '<< ACKED JOBS LOST'}"
    )
    if not ok:
        failures.append("no_loss")

    duplicated = int(data.get("jobs_duplicated", -1))
    ok = duplicated == 0
    print(
        f"recovery gate no-duplicate: {duplicated} duplicated key(s) "
        f"{'ok' if ok else '<< DUPLICATE EXECUTION'}"
    )
    if not ok:
        failures.append("no_duplicate")

    identical = bool(data.get("results_identical", False))
    print(
        f"recovery gate bit-identity: reference results "
        f"{'identical ok' if identical else '<< RESULTS DIVERGED'}"
    )
    if not identical:
        failures.append("bit_identity")

    value = float(data["restart_p99_ms"])
    budget = float(budgets["restart_p99_ms"])
    ok = value <= budget
    print(
        f"recovery gate restart_p99_ms: {value:.0f} ms "
        f"(budget {budget:.0f} ms) "
        f"{'ok' if ok else '<< OVER BUDGET'}"
    )
    if not ok:
        failures.append("restart_p99_ms")

    cycles = int(data.get("cycles", 0))
    acked = int(data.get("jobs_acked", 0))
    ok = cycles >= 3 and acked > 0
    print(
        f"recovery gate liveness: {cycles} crash cycles, "
        f"{acked} acked jobs "
        f"{'ok' if ok else '<< NO CRASHES MEASURED'}"
    )
    if not ok:
        failures.append("liveness")

    if failures:
        print(
            f"\nFAIL: {len(failures)} recovery gate(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(
        "\nOK: no acked job lost, no duplicate execution, "
        "bit-identical recovery within the restart budget"
    )
    return 0


def check(
    run_path: Path, baseline_path: Path, max_ratio: float
) -> int:
    if not baseline_path.exists():
        print(
            f"no baseline at {baseline_path}; create one with --update",
            file=sys.stderr,
        )
        return 1
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_means: dict[str, float] = baseline["means"]
    run_means = load_means(run_path)

    failures: list[str] = []
    new_kernels: list[str] = []
    width = max(len(n) for n in run_means)
    print(
        f"{'kernel':<{width}}  {'baseline':>12}  {'current':>12}  "
        f"{'ratio':>7}"
    )
    for name in sorted(run_means):
        current = run_means[name]
        base = base_means.get(name)
        if base is None:
            new_kernels.append(name)
            print(
                f"{name:<{width}}  {'(new)':>12}  "
                f"{current * 1e3:>10.3f}ms  {'-':>7}"
            )
            continue
        ratio = current / base
        flag = "  << REGRESSION" if ratio > max_ratio else ""
        print(
            f"{name:<{width}}  {base * 1e3:>10.3f}ms  "
            f"{current * 1e3:>10.3f}ms  {ratio:>6.2f}x{flag}"
        )
        if ratio > max_ratio:
            failures.append(name)

    if new_kernels:
        print(
            f"\n{len(new_kernels)} kernel(s) missing from the "
            "baseline; run with --update to record them."
        )
    failures += check_speedups(base_means, run_means)
    failures += check_pinned(baseline.get("pinned", {}), base_means)
    if failures:
        print(
            f"\nFAIL: {len(failures)} check(s) failed: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: all kernels within {max_ratio:.1f}x of baseline "
        "and all speedup gates hold"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "run",
        type=Path,
        nargs="?",
        default=None,
        help="pytest-benchmark JSON output",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline JSON (default: benchmarks/perf_baseline.json)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=float(
            os.environ.get("REPRO_PERF_MAX_RATIO", DEFAULT_MAX_RATIO)
        ),
        help="fail when current mean exceeds baseline * ratio",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run instead of checking",
    )
    parser.add_argument(
        "--obs",
        type=Path,
        default=None,
        help=(
            "BENCH_obs.json from benchmarks/bench_obs.py; enforces "
            "the <2%% disabled-instrumentation overhead gate"
        ),
    )
    parser.add_argument(
        "--batch",
        type=Path,
        default=None,
        help=(
            "BENCH_batch.json from benchmarks/bench_batch.py; "
            "enforces the >= 5x population-at-once speedup and the "
            "island shard-count bit-identity gates"
        ),
    )
    parser.add_argument(
        "--service",
        type=Path,
        default=None,
        help=(
            "BENCH_service.json from benchmarks/bench_service.py; "
            "enforces the >= 10x warm-over-cold speedup, the pinned "
            "latency budgets and the cache-integrity gates"
        ),
    )
    parser.add_argument(
        "--online",
        type=Path,
        default=None,
        help=(
            "BENCH_online.json from benchmarks/bench_online.py; "
            "enforces the zero-fault bit-identity, same-seed "
            "determinism and pinned reaction-latency gates"
        ),
    )
    parser.add_argument(
        "--recovery",
        type=Path,
        default=None,
        help=(
            "BENCH_recovery.json from benchmarks/bench_recovery.py; "
            "enforces the no-loss / no-duplicate / bit-identity "
            "exactly-once gates and the pinned restart-to-serving "
            "p99 budget"
        ),
    )
    parser.add_argument(
        "--min-service-warm-speedup",
        type=float,
        default=(
            float(os.environ["REPRO_MIN_SERVICE_WARM_SPEEDUP"])
            if "REPRO_MIN_SERVICE_WARM_SPEEDUP" in os.environ
            else None
        ),
        help=(
            "override the service warm-over-cold floor "
            "(default: 10.0)"
        ),
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=(
            float(os.environ["REPRO_MIN_BATCH_SPEEDUP"])
            if "REPRO_MIN_BATCH_SPEEDUP" in os.environ
            else None
        ),
        help=(
            "override the batch speedup floor (default: 5.0 on the "
            "compiled engine, 1.0 on the numpy fallback)"
        ),
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=float(
            os.environ.get(
                "REPRO_OBS_MAX_OVERHEAD", DEFAULT_MAX_OBS_OVERHEAD
            )
        ),
        help="fail when disabled_overhead_pct meets or exceeds this",
    )
    args = parser.parse_args(argv)
    if (
        args.run is None
        and args.obs is None
        and args.batch is None
        and args.service is None
        and args.online is None
        and args.recovery is None
    ):
        parser.error(
            "provide a benchmark run file, --obs, --batch, "
            "--service, --online and/or --recovery"
        )
    if args.update:
        update_baseline(args.run, args.baseline)
        return 0
    rc = 0
    if args.run is not None:
        rc |= check(args.run, args.baseline, args.max_ratio)
    if args.obs is not None:
        rc |= check_obs(args.obs, args.max_obs_overhead)
    if args.batch is not None:
        rc |= check_batch(args.batch, args.min_batch_speedup)
    if args.service is not None:
        rc |= check_service(
            args.service, args.min_service_warm_speedup
        )
    if args.online is not None:
        rc |= check_online(args.online)
    if args.recovery is not None:
        rc |= check_recovery(args.recovery)
    return rc


if __name__ == "__main__":
    sys.exit(main())
