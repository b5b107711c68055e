#!/usr/bin/env python
"""Kill-restart recovery benchmark for the scheduling daemon.

Runs ``--cycles`` crash cycles against one persistent spool.  Each
cycle submits a batch of jobs to a live ``repro-emts serve`` subprocess
(short ones that finish, one long one guaranteed to be mid-run), then
SIGKILLs the daemon and measures **restart-to-serving**: wall time from
launching the replacement process until ``/healthz`` answers — process
start, imports, spool recovery and requeue included.  After each
restart the exactly-once ledger is settled:

``jobs_acked`` / ``jobs_lost``
    Every job the client got an ack (202/200) for must reach ``done``
    after the restart.  ``jobs_lost`` counts the ones that did not —
    gated at exactly 0.
``jobs_duplicated``
    Submissions are keyed, so a key appearing on more than one spool
    record means a retry spawned a twin — gated at exactly 0.
``results_identical``
    A fixed reference request is re-submitted (fresh key) every cycle;
    all cycles must produce bit-identical result documents — crash
    count must never leak into result bits.
``restart_p50_ms`` / ``restart_p99_ms``
    Restart-to-serving percentiles over the cycles; p99 is gated
    against the pinned ``budgets.restart_p99_ms``.

``python benchmarks/check_perf.py --recovery benchmarks/BENCH_recovery.json``
enforces the gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.graph import ptg_to_dict  # noqa: E402
from repro.mapping import _cscheduler  # noqa: E402
from repro.service import (  # noqa: E402
    RetryingServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.testing import ServiceDaemon  # noqa: E402
from repro.workloads import generate_fft  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_recovery.json"
#: pinned: a regenerated baseline never relaxes the committed budget
BUDGET_DEFAULTS: dict[str, float] = {
    "restart_p99_ms": 10000.0,
}

SHORT_GENERATIONS = 3
LONG_GENERATIONS = 600  # guaranteed still running when the kill lands
REFERENCE_SEED = 1000


def make_doc(seed: int, generations: int, key: str) -> dict:
    return {
        "ptg": ptg_to_dict(generate_fft(4, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": generations,
        "idempotency_key": key,
    }


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def run(out_path: Path, *, cycles: int, results_txt: Path | None) -> dict:
    import tempfile

    engine = "numpy" if _cscheduler.load() is None else "c"
    print(f"engine: {engine}, cycles: {cycles}")

    restart_ms: list[float] = []
    acked: dict[str, str] = {}  # key -> acked job id
    lost: set[str] = set()
    reference_results: list[str] = []

    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        spool = Path(tmp) / "spool"
        daemon = ServiceDaemon(spool=spool)
        daemon.start()
        try:
            for cycle in range(cycles):
                client = RetryingServiceClient(
                    port=daemon.port,
                    policy=RetryPolicy(base=0.02, cap=0.2, seed=cycle),
                )
                # short jobs that finish before the kill...
                for i in range(2):
                    key = f"idem-c{cycle}-short{i}"
                    doc = client.schedule(
                        make_doc(
                            cycle * 10 + i, SHORT_GENERATIONS, key
                        ),
                        timeout=120,
                    )
                    acked[key] = doc["job"]["id"]
                # ...the per-cycle reference request (bit-identity probe)
                ref_key = f"idem-c{cycle}-ref"
                ref = client.schedule(
                    make_doc(REFERENCE_SEED, SHORT_GENERATIONS, ref_key),
                    timeout=120,
                )
                acked[ref_key] = ref["job"]["id"]
                reference_results.append(
                    json.dumps(ref["result"], sort_keys=True)
                )
                # ...and one long job that the kill lands on mid-run
                long_key = f"idem-c{cycle}-long"
                long_doc = client.submit(
                    make_doc(cycle * 10 + 9, LONG_GENERATIONS, long_key)
                )
                acked[long_key] = long_doc["job"]["id"]
                poll = ServiceClient(port=daemon.port, timeout=10)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    state = poll.get_job(acked[long_key])["job"]["state"]
                    if state == "running":
                        break
                    time.sleep(0.01)

                daemon.kill()  # SIGKILL: the crash

                replacement = ServiceDaemon(spool=spool)
                t0 = time.perf_counter()
                replacement.start(wait_healthy=True)
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                restart_ms.append(elapsed_ms)
                daemon = replacement
                print(
                    f"cycle {cycle}: restart-to-serving "
                    f"{elapsed_ms:.0f} ms"
                )

                # settle the ledger: every acked job must reach done
                settle = ServiceClient(port=daemon.port, timeout=30)
                for key, job_id in sorted(acked.items()):
                    try:
                        doc = settle.wait_for(job_id, timeout=300)
                    except Exception as exc:  # noqa: BLE001
                        print(f"  lost {key}: {exc}")
                        lost.add(key)
                        continue
                    if doc["job"]["state"] != "done":
                        lost.add(key)

            # duplicate scan over the whole spool: at most one record
            # per idempotency key across every cycle and crash
            seen: dict[str, list[str]] = {}
            for record_path in sorted((spool / "jobs").glob("*.json")):
                record = json.loads(record_path.read_text())
                key = record["request"].get("idempotency_key")
                if key:
                    seen.setdefault(key, []).append(record["id"])
            duplicates = {
                k: ids for k, ids in seen.items() if len(ids) > 1
            }
        finally:
            daemon.kill()

    results_identical = len(set(reference_results)) <= 1
    p50 = percentile(restart_ms, 0.50)
    p99 = percentile(restart_ms, 0.99)
    print(
        f"restarts: p50 {p50:.0f} ms, p99 {p99:.0f} ms over "
        f"{len(restart_ms)} cycles"
    )
    print(
        f"acked {len(acked)}, lost {len(lost)}, "
        f"duplicated {len(duplicates)}, "
        f"results identical: {results_identical}"
    )

    budgets = dict(BUDGET_DEFAULTS)
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))
        budgets.update(previous.get("budgets", {}))
    result = {
        "comment": (
            "Kill-restart recovery baseline; regenerate with: "
            "python benchmarks/bench_recovery.py  — gated by "
            "check_perf.py --recovery (no acked job lost, no "
            "duplicate execution, bit-identical reference results, "
            "restart-to-serving p99 within the pinned budget)"
        ),
        "engine": engine,
        "cycles": len(restart_ms),
        "restart_ms": [round(v, 1) for v in restart_ms],
        "restart_p50_ms": p50,
        "restart_p99_ms": p99,
        "jobs_acked": len(acked),
        "jobs_lost": len(lost),
        "lost_keys": sorted(lost),
        "jobs_duplicated": len(duplicates),
        "duplicate_keys": sorted(duplicates),
        "results_identical": results_identical,
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
        results_txt.parent.mkdir(parents=True, exist_ok=True)
        results_txt.write_text(
            "Kill-restart recovery "
            "(benchmarks/bench_recovery.py)\n"
            f"engine: {engine}  cycles: {len(restart_ms)}\n"
            f"restart-to-serving: p50 {p50:.0f} ms   "
            f"p99 {p99:.0f} ms\n"
            f"acked: {len(acked)}   lost: {len(lost)}   "
            f"duplicated: {len(duplicates)}\n"
            f"reference results identical: {results_identical}\n",
            encoding="utf-8",
        )
        print(f"wrote {results_txt}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--cycles",
        type=int,
        default=5,
        help="kill-restart cycles to run (gate requires >= 3)",
    )
    parser.add_argument(
        "--results-txt",
        type=Path,
        default=None,
        help="also write a human-readable summary here",
    )
    args = parser.parse_args(argv)
    run(args.out, cycles=args.cycles, results_txt=args.results_txt)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
