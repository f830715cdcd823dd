"""Statistics helpers for experiment reporting.

The paper reports every data point as "an average of 20 runs with a 95%
confidence interval"; :func:`mean_ci` computes exactly that (Student-t
interval), and :func:`summarize_runs` aggregates a list of per-run metric
dictionaries into per-metric intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ConfidenceInterval", "mean_ci", "summarize_runs"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    halfwidth: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.halfwidth

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.halfwidth:.2g}"


def mean_ci(samples: Sequence[float] | np.ndarray, confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``samples``.

    A single sample yields a zero half-width (there is no spread to
    estimate), matching the common convention in benchmark harnesses.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    n = int(arr.size)
    mean = float(arr.mean())
    if n == 1:
        return ConfidenceInterval(mean=mean, halfwidth=0.0, n=1, confidence=confidence)
    sem = float(arr.std(ddof=1) / np.sqrt(n))
    # scipy.stats costs ~0.8 s to import; only CI computations pay for it
    from scipy import stats as scipy_stats

    tval = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, halfwidth=tval * sem, n=n, confidence=confidence)


def summarize_runs(
    runs: Iterable[Mapping[str, float]], confidence: float = 0.95
) -> dict[str, ConfidenceInterval]:
    """Aggregate per-run metric dicts into per-metric confidence intervals.

    All runs must expose the same metric keys; this catches harness bugs
    where one algorithm silently skipped a metric.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("runs must be non-empty")
    keys = set(runs[0])
    for i, run in enumerate(runs[1:], start=1):
        if set(run) != keys:
            raise ValueError(
                f"run {i} metrics {sorted(run)} differ from run 0 metrics {sorted(keys)}"
            )
    return {
        key: mean_ci([float(run[key]) for run in runs], confidence=confidence)
        for key in sorted(keys)
    }
