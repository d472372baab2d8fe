"""Monte Carlo fault-injection campaigns (statistical Fig. 7 at scale).

Seeded uniform k-fault sampling through the campaign runner. Fig. 7's
reachability is computed exactly by
:func:`~repro.analysis.reachability.reachability_curve`; sampling is the
way to estimate simulation metrics (latency, delivery) under fault
populations, and a cross-check of the exact path.

* :mod:`repro.montecarlo.stats` — confidence-interval estimators;
* :mod:`repro.montecarlo.campaign` — job emission, adaptive stopping
  and shard-composed rounds.
"""

from .campaign import (
    MC_METRICS,
    MonteCarloReport,
    MonteCarloResult,
    SampleSummary,
    montecarlo_jobs,
    run_montecarlo,
    summarize,
)
from .stats import (
    ConfidenceInterval,
    normal_mean_interval,
    sample_mean_std,
    wilson_interval,
    z_value,
)

__all__ = [
    "MC_METRICS",
    "ConfidenceInterval",
    "MonteCarloReport",
    "MonteCarloResult",
    "SampleSummary",
    "montecarlo_jobs",
    "normal_mean_interval",
    "run_montecarlo",
    "sample_mean_std",
    "summarize",
    "wilson_interval",
    "z_value",
]
