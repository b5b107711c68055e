"""EMTS's mutation operator (paper Sections III-C and III-D, Eq. 1).

**How many alleles change** (Section III-C): in generation ``u`` of ``U``,
``m = (1 - u/U) * f_m * V`` allocations of the individual are mutated —
many early (exploration), few late (convergence).  We round and floor at
one so every offspring differs from its parent.

**By how much each changes** (Section III-D, Eq. 1): the step must prefer
small adjustments over large ones (a uniform step distribution oscillates)
and must support both stretching and shrinking, with shrinking *less*
likely.  With a Bernoulli variable ``L`` (``P[L = 0] = a``) and
half-normal magnitudes::

    C = -(|X1| + 1)   if L = 1,  X1 ~ N(0, sigma_1)
    C = +(|X2| + 1)   if L = 0,  X2 ~ N(0, sigma_2)

**Sign convention.**  Read literally, Eq. 1 removes processors with
probability ``1 - a``; but the paper's prose says "``a = 0.2`` means that
the number of processors allocated to a task *decreases* with a
probability of 20 %" and Section III-D requires "the shrinking of
allocations is less likely than the stretching".  The two statements are
inconsistent; we follow the prose (and Figure 3's asymmetry toward
positive adjustments): with probability ``a`` the allocation shrinks by
``floor(|X2|) + 1``, with probability ``1 - a`` it grows by
``floor(|X1|) + 1``.  Magnitudes are floored so that ``|C| >= 1`` always
(a mutation never leaves an allele unchanged) and results are clamped to
``[1, P]``.
"""

from __future__ import annotations

import math

import numpy as np

from ..ea.operators import MutationOperator
from ..exceptions import ConfigurationError
from .encoding import clamp_allocations

__all__ = [
    "mutation_count",
    "sample_adjustments",
    "adjustment_pmf",
    "AllocationMutation",
]


def mutation_count(V: int, u: int, U: int, fm: float) -> int:
    """Number of alleles to mutate in generation ``u`` of ``U``.

    Implements ``m = (1 - u/U) * f_m * V`` with rounding, floored at 1 and
    capped at ``V``.  Note the annealing: at ``u = U`` the formula itself
    yields 0; the floor keeps the final generation productive.
    """
    if V < 1:
        raise ConfigurationError(f"V must be >= 1, got {V}")
    if U < 1:
        raise ConfigurationError(f"U must be >= 1, got {U}")
    if not (0.0 < fm <= 1.0):
        raise ConfigurationError(f"f_m must lie in (0, 1], got {fm}")
    if not (0 <= u <= U):
        raise ConfigurationError(f"generation u={u} outside [0, {U}]")
    m = int(round((1.0 - u / U) * fm * V))
    return max(1, min(m, V))


def sample_adjustments(
    n: int,
    rng: np.random.Generator,
    sigma_stretch: float = 5.0,
    sigma_shrink: float = 5.0,
    shrink_probability: float = 0.2,
) -> np.ndarray:
    """Draw ``n`` processor adjustments ``C`` per Eq. 1 (prose signs).

    Positive entries stretch the allocation, negative entries shrink it;
    every entry has magnitude >= 1.
    """
    shrink = rng.random(n) < shrink_probability
    mag_shrink = np.floor(
        np.abs(rng.normal(0.0, sigma_shrink, size=n))
    ) + 1.0
    mag_stretch = np.floor(
        np.abs(rng.normal(0.0, sigma_stretch, size=n))
    ) + 1.0
    return np.where(shrink, -mag_shrink, mag_stretch).astype(np.int64)


def adjustment_pmf(
    k: np.ndarray,
    sigma_stretch: float = 5.0,
    sigma_shrink: float = 5.0,
    shrink_probability: float = 0.2,
) -> np.ndarray:
    """Analytic probability mass of adjustment ``C = k`` (Figure 3).

    ``|C| = floor(|X|) + 1`` with half-normal ``|X|`` puts on magnitude
    ``j >= 1`` the half-normal mass of the interval ``[j - 1, j)``:
    ``P[|C| = j] = erf(j / (sigma sqrt(2))) - erf((j-1) / (sigma sqrt(2)))``,
    scaled by the branch probability.  ``P[C = 0] = 0`` by construction.
    """
    k = np.asarray(k, dtype=np.int64)
    out = np.zeros(k.shape, dtype=np.float64)
    erf = np.frompyfunc(math.erf, 1, 1)

    def half_normal_mass(j: np.ndarray, sigma: float) -> np.ndarray:
        lo = (j - 1) / (sigma * np.sqrt(2.0))
        hi = j / (sigma * np.sqrt(2.0))
        return (erf(hi) - erf(lo)).astype(np.float64)

    pos = k > 0
    neg = k < 0
    out[pos] = (1.0 - shrink_probability) * half_normal_mass(
        k[pos].astype(np.float64), sigma_stretch
    )
    out[neg] = shrink_probability * half_normal_mass(
        np.abs(k[neg]).astype(np.float64), sigma_shrink
    )
    return out


class AllocationMutation(MutationOperator):
    """EMTS's annealed, Eq. 1-distributed allocation mutation.

    Parameters mirror :class:`repro.core.EMTSConfig`; ``P`` is the machine
    size used for clamping.
    """

    def __init__(
        self,
        P: int,
        fm: float = 0.33,
        sigma_stretch: float = 5.0,
        sigma_shrink: float = 5.0,
        shrink_probability: float = 0.2,
    ) -> None:
        if P < 1:
            raise ConfigurationError(f"P must be >= 1, got {P}")
        if not (0.0 < fm <= 1.0):
            raise ConfigurationError(f"f_m must lie in (0, 1], got {fm}")
        if sigma_stretch <= 0 or sigma_shrink <= 0:
            raise ConfigurationError("sigmas must be > 0")
        if not (0.0 <= shrink_probability <= 1.0):
            raise ConfigurationError(
                "shrink probability must lie in [0, 1]"
            )
        self.P = int(P)
        self.fm = float(fm)
        self.sigma_stretch = float(sigma_stretch)
        self.sigma_shrink = float(sigma_shrink)
        self.shrink_probability = float(shrink_probability)

    def mutate(
        self,
        genome: np.ndarray,
        rng: np.random.Generator,
        generation: int,
        total_generations: int,
    ) -> np.ndarray:
        V = genome.shape[0]
        m = mutation_count(V, generation, total_generations, self.fm)
        positions = rng.choice(V, size=m, replace=False)
        adjustments = sample_adjustments(
            m,
            rng,
            sigma_stretch=self.sigma_stretch,
            sigma_shrink=self.sigma_shrink,
            shrink_probability=self.shrink_probability,
        )
        child = np.array(genome, copy=True)
        child[positions] = child[positions] + adjustments
        return clamp_allocations(child, self.P)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AllocationMutation(P={self.P}, fm={self.fm}, "
            f"sigma=({self.sigma_stretch}, {self.sigma_shrink}), "
            f"a={self.shrink_probability})"
        )
