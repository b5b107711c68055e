"""Op times with the CPU time the hypervisor took away removed.

The benchmark runs in a VM on a shared host.  When the host is busy,
the hypervisor does not schedule the VM's vCPUs for a share of the time
they want to run ("steal" in ``/proc/stat``); on a 2-vCPU VM that share
went from 1% to over 30% between phases of seconds to minutes, and the
program's op times grew with it.  :class:`HostSpeed` reads the machine's
busy and stolen CPU ticks after every op and scales each op's time by
``1 - stolen share`` over the seconds around it: the time the op would
have taken had the vCPUs not been taken away.  Nothing of the program
is read or changed, so a change to the program moves the scaled times
by the same share as the raw ones.
"""

from __future__ import annotations

import bisect
import time

# an op is scaled by the stolen share within this many seconds of its end
WINDOW_S = 2.0


def cpu_ticks() -> tuple[int, int]:
    """Clock ticks all CPUs of this machine have so far been busy, and
    have been stolen by the hypervisor (wanted to run but were not
    scheduled), from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time wanted between two :func:`cpu_ticks` that
    the hypervisor took away."""
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal else 0.0


class HostSpeed:
    """CPU tick readings of one run, and op times scaled by them."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, tuple[int, int]]] = []  # (when, ticks)
        self.ops: list[float] = []  # when each op ended

    def mark(self) -> float:
        """Read the ticks now; returns the time of the reading."""
        when = time.perf_counter()
        self.marks.append((when, cpu_ticks()))
        return when

    def after_op(self) -> None:
        """Mark the end of an op."""
        self.ops.append(self.mark())

    def share_around(self, when: float) -> float:
        """Stolen share between the first and the last reading within
        ``WINDOW_S`` of ``when`` (at least two readings)."""
        times = [t for t, _ticks in self.marks]
        lo = bisect.bisect_left(times, when - WINDOW_S)
        hi = bisect.bisect_right(times, when + WINDOW_S) - 1
        lo, hi = max(0, min(lo, hi - 1)), min(len(times) - 1, max(hi, lo + 1))
        return stolen_share(self.marks[lo][1], self.marks[hi][1])

    def scale(self, walls: list[float], ends: list[float] | None = None) -> list[float]:
        """``walls`` without the stolen time: each times ``1 - stolen
        share`` around its end (``ends``, or the ops of :meth:`after_op`)."""
        ends = self.ops if ends is None else ends
        if len(walls) != len(ends):
            raise ValueError(f"{len(walls)} op times for {len(ends)} op ends")
        self.marks.sort(key=lambda m: m[0])
        return [wall * (1.0 - self.share_around(end)) for wall, end in zip(walls, ends)]

    @property
    def stolen(self) -> float:
        """The whole run's stolen share."""
        return stolen_share(self.marks[0][1], self.marks[-1][1]) if len(self.marks) > 1 else 0.0
