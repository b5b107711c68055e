#!/usr/bin/env python
"""Latency-gated load harness for the scheduling service.

Starts a real ``SchedulingService`` daemon (in-process, ephemeral port)
and drives it with N concurrent HTTP clients over a repeated/fresh
request mix, then writes ``benchmarks/BENCH_service.json`` — the
machine-readable baseline the CI service job regenerates and gates via
``check_perf.py --service``:

``cold_ms`` / ``warm_ms``
    Median client-observed latency of first-time requests (table +
    kernel build + full EMTS run) vs exact repeats (served from the
    cross-request result cache without touching the queue).  Both are
    measured sequentially against an otherwise idle daemon so the
    ratio compares like with like; the mixed-load phase separately
    captures behavior under contention.
``warm_over_cold_x``
    ``cold / warm``, measured in the *same run* on the same host, so
    the ratio survives hardware differences.  Gated at >= 10x: a
    repeat request must come back an order of magnitude faster than a
    cold start.
``p50_ms`` / ``p99_ms`` / ``warm_p99_ms`` / ``loaded_warm_p99_ms``
    Client-observed latency percentiles over the whole concurrent
    mixed load and over warm repeats (quiescent and loaded); gated
    against the pinned ``budgets`` (committed values that a refresh
    never overwrites).
``requests_per_sec``
    Completed requests over the mixed-load wall time.
``server``
    The daemon's own view (Prometheus counters): result-cache and
    warm-tier hits/misses and queue metrics — ``check_perf.py``
    cross-checks that every repeat was actually served from cache.

The workload: ``--problems`` distinct requests are submitted once
(cold phase), then ``--clients`` threads fire ``--requests`` calls
each, seven of eight repeating a known request and one in eight a
fresh seed (the mix keeps workers busy while repeats measure the cache
path).

``python benchmarks/check_perf.py --service benchmarks/BENCH_service.json``
enforces the gates.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.graph import ptg_to_dict  # noqa: E402
from repro.mapping import _cscheduler  # noqa: E402
from repro.service import SchedulingService, ServiceClient  # noqa: E402
from repro.workloads import generate_fft  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent / "BENCH_service.json"
#: latency budgets are pinned: regenerating the baseline never relaxes
#: them (same idiom as perf_baseline.json's pinned section)
BUDGET_DEFAULTS: dict[str, float] = {
    "p99_ms": 5000.0,
    "warm_p99_ms": 500.0,
}


def make_doc(seed: int) -> dict:
    # generations=40 makes the cold path a realistic multi-generation
    # run; repeats skip all of it, so the warm/cold contrast is real
    return {
        "ptg": ptg_to_dict(generate_fft(8, rng=7)),
        "platform": "chti",
        "model": "amdahl",
        "algorithm": "emts5",
        "seed": seed,
        "generations": 40,
    }


def start_service(workers: int) -> tuple[SchedulingService, threading.Thread]:
    service = SchedulingService(port=0, workers=workers)
    ready = threading.Event()

    def run():
        async def main():
            await service.start()
            ready.set()
            await service._drained.wait()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise SystemExit("service did not start")
    return service, thread


def percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def parse_prometheus(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        if len(parts) == 2 and "{" not in parts[0]:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return values


def run(
    out_path: Path,
    *,
    clients: int,
    requests: int,
    problems: int,
    workers: int,
    results_txt: Path | None = None,
) -> dict:
    engine = "numpy" if _cscheduler.load() is None else "c"
    print(f"engine: {engine}")
    service, thread = start_service(workers)
    port = service.bound_port
    print(
        f"daemon up on port {port}: {workers} workers, "
        f"{clients} clients x {requests} requests, "
        f"{problems} distinct problems"
    )
    try:
        client = ServiceClient(port=port, timeout=60.0)

        # -- cold phase: every distinct request once ------------------
        cold_ms: list[float] = []
        for seed in range(problems):
            t0 = time.perf_counter()
            doc = client.schedule(make_doc(seed), timeout=120)
            cold_ms.append((time.perf_counter() - t0) * 1e3)
            assert doc["job"]["state"] == "done", doc
        print(
            f"cold: median {statistics.median(cold_ms):.1f} ms over "
            f"{len(cold_ms)} first-time requests"
        )

        # -- mixed load: 7/8 repeats, 1/8 fresh seeds -----------------
        all_ms: list[list[float]] = [[] for _ in range(clients)]
        warm_ms: list[list[float]] = [[] for _ in range(clients)]
        errors: list[str] = []
        fresh_base = problems  # fresh seeds must stay unique
        repeat_requests = 0
        lock = threading.Lock()

        def worker(ci: int) -> None:
            nonlocal repeat_requests
            c = ServiceClient(port=port, timeout=60.0)
            my_repeats = 0
            for r in range(requests):
                fresh = (r % 8) == 7
                if fresh:
                    seed = fresh_base + ci * requests + r
                else:
                    seed = (ci + r) % problems
                    my_repeats += 1
                t0 = time.perf_counter()
                try:
                    doc = c.schedule(make_doc(seed), timeout=120)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"client {ci} seed {seed}: {exc}")
                    continue
                dt = (time.perf_counter() - t0) * 1e3
                all_ms[ci].append(dt)
                if not fresh:
                    if doc["job"]["served_from"] != "result-cache":
                        errors.append(
                            f"repeat seed {seed} was not served from "
                            f"cache ({doc['job']['served_from']})"
                        )
                    warm_ms[ci].append(dt)
            with lock:
                repeat_requests += my_repeats

        t_load = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(ci,))
            for ci in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t_load
        if errors:
            for e in errors[:10]:
                print(f"ERROR: {e}", file=sys.stderr)
            raise SystemExit(f"{len(errors)} request(s) failed")

        flat_all = [x for chunk in all_ms for x in chunk]
        flat_loaded_warm = [x for chunk in warm_ms for x in chunk]

        # -- quiescent warm phase: repeats with no competing runs -----
        # measured under the same (sequential) conditions as the cold
        # phase, so warm_over_cold_x compares like with like; the
        # loaded percentiles above capture behavior under contention
        flat_warm: list[float] = []
        for r in range(4 * problems):
            t0 = time.perf_counter()
            doc = client.schedule(make_doc(r % problems), timeout=120)
            flat_warm.append((time.perf_counter() - t0) * 1e3)
            if doc["job"]["served_from"] != "result-cache":
                raise SystemExit(
                    f"quiescent repeat (seed {r % problems}) missed "
                    f"the result cache: {doc['job']['served_from']}"
                )
            repeat_requests += 1
        metrics = parse_prometheus(client.metrics_text())
    finally:
        service.request_drain()
        thread.join(timeout=60)

    cold = statistics.median(cold_ms)
    warm = statistics.median(flat_warm)
    speedup = cold / warm if warm > 0 else float("inf")
    rps = len(flat_all) / wall
    p50 = percentile(flat_all, 0.50)
    p99 = percentile(flat_all, 0.99)
    warm_p99 = percentile(flat_warm, 0.99)
    loaded_warm_p99 = percentile(flat_loaded_warm, 0.99)
    print(
        f"mixed load: {len(flat_all)} requests in {wall:.2f} s "
        f"({rps:.0f} req/s)"
    )
    print(
        f"latency: p50 {p50:.1f} ms, p99 {p99:.1f} ms "
        f"(loaded warm p99 {loaded_warm_p99:.1f} ms)"
    )
    print(
        f"quiescent warm {warm:.2f} ms vs cold {cold:.1f} ms -> "
        f"{speedup:.0f}x warm-over-cold "
        f"(warm p99 {warm_p99:.2f} ms)"
    )

    budgets = dict(BUDGET_DEFAULTS)
    if out_path.exists():
        previous = json.loads(out_path.read_text(encoding="utf-8"))
        budgets.update(previous.get("budgets", {}))
    result = {
        "comment": (
            "Scheduling-service load baseline; regenerate with: "
            "python benchmarks/bench_service.py  — gated by "
            "check_perf.py --service (>= 10x warm-over-cold, "
            "latency percentiles within the pinned budgets, every "
            "repeat served from the result cache)"
        ),
        "engine": engine,
        "workers": workers,
        "clients": clients,
        "requests_total": (
            len(flat_all) + len(cold_ms) + len(flat_warm)
        ),
        "repeat_requests": repeat_requests,
        "cold_ms": cold,
        "warm_ms": warm,
        "warm_over_cold_x": speedup,
        "p50_ms": p50,
        "p99_ms": p99,
        "warm_p99_ms": warm_p99,
        "loaded_warm_p99_ms": loaded_warm_p99,
        "requests_per_sec": rps,
        "wall_seconds": wall,
        "budgets": budgets,
        "server": {
            "result_cache_hits": metrics.get(
                "repro_service_jobs_served_from_cache", 0.0
            ),
            "warm_tier_hits": metrics.get(
                "repro_service_cache_warm_hits", 0.0
            ),
            "warm_tier_misses": metrics.get(
                "repro_service_cache_warm_misses", 0.0
            ),
            "jobs_submitted": metrics.get(
                "repro_service_jobs_submitted", 0.0
            ),
            "jobs_completed": metrics.get(
                "repro_service_jobs_completed", 0.0
            ),
        },
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
            "Scheduling-service throughput "
            "(benchmarks/bench_service.py)\n"
            f"engine: {engine}  workers: {workers}  "
            f"clients: {clients}\n"
            f"requests: {result['requests_total']} "
            f"({repeat_requests} repeats)\n"
            f"throughput: {rps:.0f} req/s over {wall:.2f} s\n"
            f"cold median: {cold:.1f} ms   "
            f"warm median: {warm:.2f} ms   "
            f"warm-over-cold: {speedup:.0f}x\n"
            f"p50: {p50:.1f} ms   p99: {p99:.1f} ms   "
            f"warm p99: {warm_p99:.2f} ms\n",
            encoding="utf-8",
        )
        print(f"wrote {results_txt}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests",
        type=int,
        default=24,
        help="requests per client in the mixed-load phase",
    )
    parser.add_argument(
        "--problems",
        type=int,
        default=8,
        help="distinct requests submitted in the cold phase",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="daemon worker threads"
    )
    parser.add_argument(
        "--results-txt",
        type=Path,
        default=None,
        help="also write a human-readable summary here",
    )
    args = parser.parse_args(argv)
    run(
        args.out,
        clients=args.clients,
        requests=args.requests,
        problems=args.problems,
        workers=args.workers,
        results_txt=args.results_txt,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
