"""Correctness checks applied to every output the benchmark measures.

* every schedule passes :class:`repro.verify.ScheduleVerifier`;
* the EMTS makespan is no worse than the best of its seed heuristics;
* a problem answered twice answers with the same result digest;
* a surface (CLI, service) agrees with the in-process run on the
  deterministic fields of a shared request.

A failed check marks its op as failed; it never stops the run, so the
report still shows how many ops failed.
"""

from __future__ import annotations

import hashlib
import math

from repro.verify import ScheduleVerifier

# relative slack of the makespan <= min(seed makespans) check, for the
# last-digit rounding of values that crossed a text format
REL_EPS = 1e-9


def result_digest(makespan: float, seed_makespans: dict, evaluations: int) -> str:
    """Digest of the fields of an EMTS result that a seed determines."""
    h = hashlib.sha256()
    h.update(float(makespan).hex().encode())
    for name in sorted(seed_makespans):
        h.update(f"{name}={float(seed_makespans[name]).hex()}".encode())
    h.update(str(int(evaluations)).encode())
    return h.hexdigest()[:16]


class Checker:
    """Collects check failures and remembers each problem's digest."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, what: str) -> bool:
        self.failures.append(what)
        return False

    def quality(self, label: str, makespan: float, seed_makespans: dict) -> bool:
        """EMTS keeps its seeds in the population, so it never loses to them."""
        if not seed_makespans:
            return self.fail(f"{label}: no seed makespans reported")
        best_seed = min(seed_makespans.values())
        if not (math.isfinite(makespan) and makespan > 0):
            return self.fail(f"{label}: makespan {makespan!r} is not a positive number")
        if makespan > best_seed * (1 + REL_EPS):
            return self.fail(
                f"{label}: makespan {makespan!r} exceeds the best seed makespan {best_seed!r}"
            )
        return True

    def repeat(self, label: str, digest: str) -> bool:
        """Same problem, same seed: same digest, every time it is run."""
        first = self.digests.setdefault(label, digest)
        if first != digest:
            return self.fail(f"{label}: result digest {digest} differs from {first}")
        return True

    def schedule(self, label: str, ptg, table, schedule, makespan: float) -> bool:
        try:
            ScheduleVerifier(ptg, table).verify(schedule, expected_makespan=makespan)
        except Exception as exc:  # VerificationError or a malformed schedule
            return self.fail(f"{label}: schedule verification failed: {exc}")
        return True

    def same(self, what: str, expected, got) -> bool:
        if expected != got:
            return self.fail(f"{what}: expected {expected!r}, got {got!r}")
        return True


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
