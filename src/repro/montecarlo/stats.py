"""Sample statistics for Monte Carlo fault campaigns.

Core interval estimators:

* :func:`normal_mean_interval` — a z confidence interval for the mean of
  real-valued samples (per-pattern reachability fractions, latencies);
* :func:`wilson_interval` — the Wilson score interval for a binomial
  proportion (pooled delivered/injected packet counts), which behaves
  sanely near 0 and 1 where the naive normal approximation collapses.

Both return a :class:`ConfidenceInterval`, whose :meth:`~ConfidenceInterval.contains`
is what the ``fig7mc`` experiment uses to cross-validate sampled curves
against the exact reachability decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Two-sided z critical values for the supported confidence levels.
Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def z_value(confidence: float) -> float:
    """The two-sided z critical value for a supported confidence level."""
    try:
        return Z_VALUES[round(confidence, 4)]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence}; pick one of {sorted(Z_VALUES)}"
        ) from None


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval estimate around a point value."""

    center: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.center:.4f} [{self.low:.4f}, {self.high:.4f}]"


def sample_mean_std(values: Sequence[float]) -> tuple[float, float]:
    """(mean, sample standard deviation); std is 0.0 for n < 2."""
    n = len(values)
    if n == 0:
        raise ValueError("need at least one sample")
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance)


def normal_mean_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    clamp: tuple[float, float] | None = None,
) -> ConfidenceInterval:
    """Normal-approximation CI for the mean of ``values``.

    ``clamp`` bounds the interval to a known support (e.g. ``(0, 1)`` for
    reachability fractions) without moving the center.
    """
    mean, std = sample_mean_std(values)
    half = z_value(confidence) * std / math.sqrt(len(values))
    low, high = mean - half, mean + half
    if clamp is not None:
        low, high = max(low, clamp[0]), min(high, clamp[1])
    return ConfidenceInterval(center=mean, low=low, high=high, confidence=confidence)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z = z_value(confidence)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return ConfidenceInterval(
        center=p,
        low=max(0.0, center - half),
        high=min(1.0, center + half),
        confidence=confidence,
    )
