"""Statistics for the experimental evaluation (paper Section V).

The paper reports, per PTG class and platform, the *average relative
makespan* of each baseline against EMTS — ``T_MCPA / T_EMTS5`` etc. —
with 95 % confidence intervals.  We compute the same: sample mean and a
t-distribution confidence interval over the per-PTG ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MeanCI", "mean_confidence_interval", "relative_makespans"]


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a symmetric confidence interval."""

    mean: float
    low: float
    high: float
    n: int
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half the CI width (the error-bar length)."""
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} "
            f"[{self.low:.4f}, {self.high:.4f}] (n={self.n})"
        )


def mean_confidence_interval(
    values: np.ndarray, confidence: float = 0.95
) -> MeanCI:
    """Sample mean and t-based confidence interval of ``values``.

    Degenerate cases: an empty sample raises; a single observation (or a
    zero-variance sample) collapses the interval onto the mean.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    n = values.size
    if n == 0:
        raise ValueError("cannot summarize an empty (or all-inf) sample")
    mean = float(values.mean())
    if n == 1:
        return MeanCI(mean, mean, mean, 1, confidence)
    sem = float(values.std(ddof=1)) / np.sqrt(n)
    if sem == 0.0:
        return MeanCI(mean, mean, mean, n, confidence)
    # scipy.stats costs about a second to import; only a CI needs it
    from scipy import stats

    half = float(stats.t.ppf((1.0 + confidence) / 2.0, n - 1)) * sem
    return MeanCI(mean, mean - half, mean + half, n, confidence)


def relative_makespans(
    baseline: np.ndarray, emts: np.ndarray
) -> np.ndarray:
    """Per-instance relative makespan ``T_baseline / T_EMTS``.

    Values above 1 mean EMTS produced the shorter schedule.  Pairs where
    either makespan is non-finite or non-positive are dropped.
    """
    baseline = np.asarray(baseline, dtype=np.float64)
    emts = np.asarray(emts, dtype=np.float64)
    if baseline.shape != emts.shape:
        raise ValueError(
            f"shape mismatch: {baseline.shape} vs {emts.shape}"
        )
    ok = (
        np.isfinite(baseline)
        & np.isfinite(emts)
        & (baseline > 0)
        & (emts > 0)
    )
    return baseline[ok] / emts[ok]
