"""An open-loop load generator for the scheduling daemon.

Load is an open loop: one thread sends each request at its seeded
Poisson due time without waiting for the job, a second thread polls
outstanding jobs until they finish.  Latency runs from a request's due
time to the moment the collector holds its result, so a stalled sender
or a queue that grows is charged to the requests it delays.

Polling costs the daemon CPU, which its workers share, so it is kept
small and bounded.  A sweep runs every :data:`POLL_SECONDS` and asks
for outstanding jobs oldest first.  It stops at the first job still
queued: the benchmark sends every request as one tenant at one
priority, so the daemon's fair queue starts them in submission order,
and every later job is queued too.  A sweep therefore asks for at
most the running jobs, the ones that finished, and one queued job.
The traced run measures what the polls cost the daemon.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ServiceError
from repro.service import QueueFullError, ServiceClient

# how long the collector sleeps between sweeps; small next to a cold
# request (55-125 ms), so it adds at most this much to a latency
POLL_SECONDS = 0.010


@dataclass
class Request:
    """One request of the open loop and what became of it."""

    problem: object
    due: float  # seconds after the rung's start
    kind: str = ""  # "hit" | "warm" | "cold"
    due_wall: float = 0.0  # wall clock (time.time) of the due time
    sent: float = 0.0  # wall clock (time.time) at the send
    done: float = 0.0  # wall clock when the collector held the result
    status: str = "pending"  # "ok" | "rejected" | "failed"
    job: dict = field(default_factory=dict)
    result: dict | None = None


def run_open_loop(client: ServiceClient, requests: list[Request], drain_timeout: float) -> dict:
    """Send ``requests`` at their due times; collect every completion.

    Returns the generator's own figures: how late it sent (``lag``, one
    value per request), the largest number of jobs outstanding, and how
    many polls found their job unfinished (``polls``).
    """
    outstanding: dict[str, Request] = {}  # insertion order is submission order
    lock = threading.Lock()
    sending_done = threading.Event()
    backlog_max = [0]
    polls = [0]
    lag: list[float] = []
    t0_wall = time.time()
    t0 = time.perf_counter()

    def finish(req: Request, doc: dict) -> None:
        req.done = time.time()
        req.job = doc.get("job", {})
        if req.job.get("state") == "done" and "result" in doc:
            req.result = doc["result"]
            req.status = "ok"
        else:
            req.status = "failed"

    def sender() -> None:
        try:
            for req in requests:
                delay = req.due - (time.perf_counter() - t0)
                if delay > 0:
                    time.sleep(delay)
                lag.append(max(0.0, time.perf_counter() - t0 - req.due))
                req.sent = time.time()
                try:
                    doc = client.submit(req.problem.request_doc())
                except QueueFullError:
                    req.status, req.done = "rejected", time.time()
                    continue
                except ServiceError:
                    req.status, req.done = "failed", time.time()
                    continue
                if doc.get("job", {}).get("state") in ("done", "failed"):
                    finish(req, doc)
                else:
                    with lock:
                        outstanding[doc["job"]["id"]] = req
                        backlog_max[0] = max(backlog_max[0], len(outstanding))
        finally:
            sending_done.set()

    def collector() -> None:
        deadline = None
        while True:
            with lock:
                pending = list(outstanding.items())
            if not pending and sending_done.is_set():
                return
            if sending_done.is_set() and deadline is None:
                deadline = time.monotonic() + drain_timeout
            if deadline is not None and time.monotonic() > deadline:
                for _job_id, req in pending:
                    req.status, req.done = "failed", time.time()
                return
            for job_id, req in pending:
                try:
                    doc = client.get_job(job_id)
                except ServiceError:
                    continue
                state = doc.get("job", {}).get("state")
                if state in ("done", "failed"):
                    finish(req, doc)
                    with lock:
                        outstanding.pop(job_id, None)
                    continue
                polls[0] += 1
                if state == "queued":
                    break  # every later job is queued behind this one
            time.sleep(POLL_SECONDS)

    threads = [threading.Thread(target=sender), threading.Thread(target=collector)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for req in requests:
        # due times are relative to the loop's start
        req.due_wall = t0_wall + req.due
    return {"lag": lag, "backlog_max": backlog_max[0], "polls": polls[0]}


def poisson_due_times(rng, rate: float, count: int) -> list[float]:
    """The first ``count`` arrival times of a Poisson process of ``rate``/s.

    A fixed count, rather than a fixed span, keeps every run's sample
    size, and with it the reported tail percentile, the same.
    """
    return [float(t) for t in np.cumsum(rng.exponential(1.0 / rate, size=count))]


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # utime and stime are fields 14 and 15 of stat(5); fields[0] is field 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def parse_prometheus(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out
