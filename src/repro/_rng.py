"""Reproducible random-number-stream management.

Every stochastic component of the library (workload generators, the
evolutionary optimizer, experiment harnesses) draws from a
:class:`numpy.random.Generator`.  To keep experiments reproducible while
still letting independent components consume randomness independently, we
derive child generators from a root seed plus a sequence of string keys via
:class:`numpy.random.SeedSequence`.

Example
-------
>>> from repro._rng import spawn
>>> g1 = spawn(42, "workloads", "fft")
>>> g2 = spawn(42, "workloads", "fft")
>>> float(g1.random()) == float(g2.random())
True
>>> g3 = spawn(42, "workloads", "strassen")
>>> float(spawn(42, "workloads", "fft").random()) == float(g3.random())
False
"""

from __future__ import annotations

import zlib
from typing import Iterable

import numpy as np

__all__ = [
    "spawn",
    "key_to_int",
    "ensure_generator",
    "sample_indices",
    "DEFAULT_SEED",
]

#: Seed used across the library whenever the caller does not supply one.
#: The paper notes "the random generator uses the same (random) seed for all
#: experiments"; we mirror that with a fixed default.
DEFAULT_SEED = 20110926  # CLUSTER 2011 conference date


def key_to_int(key: str) -> int:
    """Map a string key to a stable 32-bit integer.

    ``zlib.crc32`` is stable across Python processes and platforms (unlike
    :func:`hash`, which is salted per process), which is what makes the
    derived streams reproducible between runs.
    """
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


def spawn(seed: int | None, *keys: str) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for component ``keys``.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` selects :data:`DEFAULT_SEED`.
    keys:
        Arbitrary component path, e.g. ``("workloads", "daggen", "n=100")``.
        Different paths yield statistically independent streams; identical
        paths yield identical streams.
    """
    if seed is None:
        seed = DEFAULT_SEED
    entropy = [int(seed)] + [key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def ensure_generator(
    rng: np.random.Generator | int | None,
    *keys: str,
) -> np.random.Generator:
    """Coerce ``rng`` into a generator.

    Accepts an existing generator (returned unchanged), an integer seed
    (spawned through :func:`spawn` with ``keys``), or ``None`` (default
    seed).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return spawn(rng, *keys)


def spawn_children(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator]:
    """Split ``n`` independent child generators off an existing generator."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} child generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def iter_seeds(rng: np.random.Generator) -> Iterable[int]:
    """Yield an endless stream of fresh 63-bit seeds from ``rng``."""
    while True:
        yield int(rng.integers(0, 2**63 - 1, dtype=np.int64))


def sample_indices(
    rng: np.random.Generator, n: int, rate: float
) -> frozenset:
    """Independently select each index in ``range(n)`` with ``rate``.

    The shared sampling primitive behind
    :meth:`repro.testing.ChaosPlan.sampled` and
    :meth:`repro.online.FaultPlan.sampled`: one uniform draw per index,
    kept when it falls below ``rate``.  A rate of zero consumes *no*
    randomness, so adding a new fault type to a plan never perturbs the
    draws of the existing ones.
    """
    if rate <= 0.0:
        return frozenset()
    draws = rng.random(n)
    return frozenset(int(i) for i in np.nonzero(draws < rate)[0])
