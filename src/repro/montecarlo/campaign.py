"""Monte Carlo fault-injection campaigns through the campaign runner.

Where :mod:`repro.analysis.reachability` computes Fig. 7 *exactly* by
per-chiplet decomposition, this module estimates the same quantities —
and simulation-only metrics the decomposition cannot provide (latency,
delivery under faults) — by sampling seeded random k-fault scenarios.
Each sample is one :class:`~repro.runner.spec.Job` with
``faults_mode="sample"``, emitted through the :class:`CampaignRunner`,
so Monte Carlo campaigns inherit the runner's parallel backends,
deterministic per-job seeding and the content-addressed result cache:
re-running a campaign with the same spec is served from disk, and
growing ``--samples`` only draws the new indices.

Samples are uniform admissible k-fault draws: each point reports the
sample mean with a normal interval, and adaptive stopping pools exact
counts into one Wilson interval per point (reachable core pairs, or
delivered packets for latency). Fig. 7's reachability itself is
computed exactly by :func:`~repro.analysis.reachability.reachability_curve`;
this sampler serves simulated metrics and cross-checks the exact path.

Sampling can be *adaptive* (``target_ci_width=``): each point keeps
extending its sample count (doubling, capped exactly at
``max_samples``) until its stopping interval is no wider than the
target. With ``shard=`` + ``rendezvous_dir=``, N independent drivers
run adaptive campaigns *cooperatively*: every driver derives the full
round deterministically, executes only its key-range slice, and pools
per-round tallies through a :class:`~repro.distributed.rounds.RoundRendezvous`
plus the shared result cache — merged statistics are bit-identical to
the unsharded serial driver, regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..config import SimulationConfig
from ..runner import Campaign, CampaignReport, CampaignRunner, Job, SystemRef, TrafficSpec
from ..runner.backends import ProgressFn
from ..runner.result import JobResult
from ..telemetry.metrics import get_registry
from .stats import (
    ConfidenceInterval,
    normal_mean_interval,
    sample_mean_std,
    wilson_interval,
)

#: Metrics a Monte Carlo campaign can estimate: ``reachability`` scores
#: each sampled pattern analytically (no simulation), ``latency`` runs
#: the cycle-accurate simulator under each sampled pattern.
MC_METRICS = ("reachability", "latency")

#: Traffic/config placeholders pinning the canonical form of analytic
#: reachability jobs, so their cache keys never depend on simulation
#: parameters they do not use.
_REACHABILITY_TRAFFIC = ("uniform", 0.0)

#: Default wait for lagging shard drivers at a round rendezvous.
DEFAULT_ROUND_TIMEOUT = 600.0


@dataclass(frozen=True)
class SampleSummary:
    """Aggregate of one (algorithm, k) group's per-sample values."""

    n: int
    mean: float
    std: float
    worst: float
    interval: ConfidenceInterval


def summarize(
    values: Sequence[float], *, worst: str = "min", confidence: float = 0.95,
    clamp: tuple[float, float] | None = None,
) -> SampleSummary:
    """Mean/std/worst/CI of a sample; ``worst`` picks min or max."""
    mean, std = sample_mean_std(values)
    return SampleSummary(
        n=len(values),
        mean=mean,
        std=std,
        worst=min(values) if worst == "min" else max(values),
        interval=normal_mean_interval(values, confidence, clamp=clamp),
    )


@dataclass
class MonteCarloResult:
    """Estimates for one (algorithm, k) point of a campaign.

    ``primary`` summarizes the campaign's metric (reachability fraction
    or average packet latency). For the latency metric, ``delivery``
    summarizes per-sample delivered ratios and ``delivered_pool`` is the
    Wilson binomial interval over the pooled delivered/measured packet
    counts of every sample.
    """

    algorithm: str
    k: int
    metric: str
    requested: int
    failed: int
    #: Samples that executed OK but whose metric is undefined (e.g. a
    #: latency sample where the fault pattern let no packet through) —
    #: excluded from the estimates but reported, since a latency mean is
    #: conditioned on delivery and silence here would bias the reading.
    dropped: int = 0
    values: list[float] = field(default_factory=list)
    primary: SampleSummary | None = None
    delivery: SampleSummary | None = None
    delivered_pool: ConfidenceInterval | None = None

    @property
    def completed(self) -> int:
        return len(self.values)

    def row(self) -> str:
        """One human-readable table line for CLI/experiment output."""
        if self.primary is None:
            return (
                f"{self.algorithm:>6s} k={self.k:<3d} no usable samples "
                f"({self.failed} failed, {self.dropped} without metric "
                f"of {self.requested})"
            )
        ci = self.primary.interval
        line = (
            f"{self.algorithm:>6s} k={self.k:<3d} n={self.completed:<5d} "
            f"mean={self.primary.mean:8.4f} "
            f"ci=[{ci.low:8.4f}, {ci.high:8.4f}] "
            f"worst={self.primary.worst:8.4f}"
        )
        if self.delivery is not None:
            line += f" delivered={self.delivery.mean:6.4f}"
        if self.failed or self.dropped:
            parts = []
            if self.failed:
                parts.append(f"{self.failed} failed")
            if self.dropped:
                parts.append(f"{self.dropped} without metric")
            line += " (" + ", ".join(parts) + ")"
        return line


@dataclass
class MonteCarloReport:
    """Outcome of :func:`run_montecarlo`: per-point estimates + provenance.

    ``samples`` is the requested per-point count — the *initial batch*
    under adaptive stopping, where each point's actually drawn count is
    its :attr:`MonteCarloResult.requested`.
    """

    metric: str
    samples: int
    seed: int
    confidence: float
    results: list[MonteCarloResult]
    campaign: CampaignReport

    def result_for(self, algorithm: str, k: int) -> MonteCarloResult:
        for result in self.results:
            if result.algorithm == algorithm and result.k == k:
                return result
        raise KeyError(f"no Monte Carlo point for ({algorithm!r}, k={k})")


def montecarlo_jobs(
    system: SystemRef,
    algorithm: str,
    fault_count: int,
    samples: int,
    *,
    seed: int = 0,
    metric: str = "reachability",
    traffic: TrafficSpec | None = None,
    config: SimulationConfig | None = None,
    start: int = 0,
    kernel: str = "auto",
) -> list[Job]:
    """The job list of one (algorithm, k) Monte Carlo group.

    Sample ``i`` is a ``faults_mode="sample"`` job with
    ``fault_sample=i`` and the campaign's master ``seed``; the executor
    derives the pattern RNG from ``(seed, k, i)``, so the job's
    canonical form — and cache key — fully determines the drawn
    scenario.

    ``start`` offsets the drawn sample indices (``start .. start +
    samples - 1``): the adaptive-stopping loop uses it to extend a group
    without re-emitting — or re-simulating, thanks to the content
    addresses — the samples it already holds.
    """
    if metric not in MC_METRICS:
        raise ValueError(f"metric must be one of {MC_METRICS}, got {metric!r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if start < 0:
        raise ValueError(f"sample start index must be >= 0, got {start}")
    if metric == "reachability":
        # Pinned placeholders: analytic jobs never build traffic or run
        # the simulator, so identical estimates must share cache keys.
        traffic = TrafficSpec.make(
            _REACHABILITY_TRAFFIC[0], rate=_REACHABILITY_TRAFFIC[1]
        )
        config = SimulationConfig()
        kind = "reachability"
    else:
        traffic = traffic or TrafficSpec.make("uniform", rate=0.005)
        config = config or SimulationConfig()
        kind = "simulate"
    return [
        Job.make(
            system=system,
            algorithm=algorithm,
            traffic=traffic,
            config=config,
            seed=seed,
            faults_mode="sample",
            fault_k=fault_count,
            fault_sample=index,
            kind=kind,
            kernel=kernel,
        )
        for index in range(start, start + samples)
    ]


def _estimate_point(
    algorithm: str,
    k: int,
    metric: str,
    outcomes: Sequence[JobResult],
    confidence: float,
) -> MonteCarloResult:
    """Aggregate one (algorithm, k) group's job outcomes into estimates."""
    point = MonteCarloResult(
        algorithm=algorithm, k=k, metric=metric,
        requested=len(outcomes), failed=sum(1 for r in outcomes if not r.ok),
    )
    ok_results = [r for r in outcomes if r.ok]
    if metric == "reachability":
        point.values = [r.reachability for r in ok_results
                        if math.isfinite(r.reachability)]
        point.dropped = len(ok_results) - len(point.values)
        if point.values:
            point.primary = summarize(
                point.values, worst="min", confidence=confidence, clamp=(0.0, 1.0)
            )
    else:
        kept = [r for r in ok_results if math.isfinite(r.average_latency)]
        point.dropped = len(ok_results) - len(kept)
        point.values = [r.average_latency for r in kept]
        if point.values:
            point.primary = summarize(
                point.values, worst="max", confidence=confidence
            )
            ratios = [r.delivered_ratio for r in kept
                      if math.isfinite(r.delivered_ratio)]
            if ratios:
                point.delivery = summarize(
                    ratios, worst="min", confidence=confidence, clamp=(0.0, 1.0)
                )
            measured = sum(r.packets_measured for r in kept)
            delivered = sum(r.packets_delivered_measured for r in kept)
            if measured:
                point.delivered_pool = wilson_interval(
                    delivered, measured, confidence
                )
    return point


def _stopping_width(
    point: MonteCarloResult, metric: str, total_pairs: int, confidence: float
) -> float | None:
    """Width of the point's Wilson stopping interval, or None if undefined.

    Reachability pools the per-sample reachable-pair counts (each sample
    fraction has denominator ``total_pairs``, so the counts are exact);
    latency pools delivered/measured packets — the Wilson interval the
    report already shows. ``None`` (no usable samples yet) never
    satisfies a target, so sampling continues until the cap.
    """
    if metric == "reachability":
        if not point.values or total_pairs <= 0:
            return None
        reachable = sum(round(value * total_pairs) for value in point.values)
        interval = wilson_interval(
            reachable, len(point.values) * total_pairs, confidence
        )
    else:
        interval = point.delivered_pool
        if interval is None:
            return None
    return interval.high - interval.low


def _campaign_id(
    system: SystemRef,
    algorithms: Sequence[str],
    fault_counts: Sequence[int],
    samples: int,
    seed: int,
    metric: str,
    confidence: float,
    target_ci_width: float | None,
    max_samples: int | None,
    probe_canonical: dict,
) -> str:
    """Content hash of the sampling spec — the rendezvous namespace.

    A pure function of everything that shapes the round structure, so
    all drivers of one campaign meet under the same directory while any
    spec change (even a different target width) gets a fresh one.
    """
    payload = {
        "system": [system.preset, list(system.grid) if system.grid else None],
        "algorithms": list(algorithms),
        "fault_counts": [int(k) for k in fault_counts],
        "samples": samples,
        "seed": seed,
        "metric": metric,
        "confidence": confidence,
        "target_ci_width": target_ci_width,
        "max_samples": max_samples,
        "probe": probe_canonical,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def run_montecarlo(
    system: SystemRef,
    algorithms: Sequence[str],
    fault_counts: Sequence[int],
    samples: int,
    *,
    seed: int = 0,
    metric: str = "reachability",
    traffic: TrafficSpec | None = None,
    config: SimulationConfig | None = None,
    runner: CampaignRunner | None = None,
    confidence: float = 0.95,
    progress: ProgressFn | None = None,
    target_ci_width: float | None = None,
    max_samples: int | None = None,
    kernel: str = "auto",
    shard: tuple[int, int] | None = None,
    rendezvous_dir: str | Path | None = None,
    round_timeout: float = DEFAULT_ROUND_TIMEOUT,
) -> MonteCarloReport:
    """Run a full (algorithm x k x sample) Monte Carlo campaign.

    The whole grid is submitted as *one* campaign so a parallel backend
    overlaps every sample and a caching runner serves repeats from disk
    (the runner's backends keep per-worker sessions warm, so every sample
    of a group reuses the same built system, algorithm and route tables).
    Failed samples (e.g. no admissible pattern at an extreme k) are
    excluded from the estimates and counted per point.

    With ``target_ci_width``, sampling is *adaptive*: each (algorithm, k)
    point starts with ``samples`` draws and keeps doubling until its
    stopping interval is no wider than the target, or ``max_samples``
    (default ``16 * samples``) is reached — the final extension is
    capped so the total never overshoots the cap. Sample indices keep
    growing monotonically, so adaptive rounds are served incrementally
    by the content-addressed cache and re-runs are deterministic.

    ``shard=(index0, count)`` + ``rendezvous_dir`` runs this driver as
    one of ``count`` cooperating drivers: each executes only its
    key-range slice of every round, publishes a round marker, waits for
    its peers, and pools the full round's outcomes (own results plus
    shared-cache reads for foreign slices) before taking the — then
    bit-identical — stopping decision. Requires a runner with a shared
    result cache; all drivers must be launched with identical
    parameters.
    """
    points = [(algorithm, k) for algorithm in algorithms for k in fault_counts]
    name = f"montecarlo-{metric}-{system.label}"
    campaign_runner = runner or CampaignRunner()

    if target_ci_width is None:
        if max_samples is not None:
            raise ValueError(
                "max_samples only applies to adaptive sampling; set "
                "target_ci_width (or drop max_samples)"
            )
        adaptive = False
        max_n = 0
    else:
        if target_ci_width <= 0:
            raise ValueError(f"target_ci_width must be > 0, got {target_ci_width}")
        max_samples = max_samples if max_samples is not None else samples * 16
        if max_samples < samples:
            raise ValueError(
                f"max_samples ({max_samples}) must be >= samples ({samples})"
            )
        adaptive = True
        max_n = max_samples

    # Total ordered core pairs, for pooling adaptive reachability
    # fractions back into exact counts. Served from this process's
    # session only when the backend opted into sessions: a --no-session
    # run must not leave a memoized System in the process-global context.
    total_pairs = 0
    if adaptive and metric == "reachability":
        if getattr(campaign_runner.backend, "use_session", False):
            from ..runner.session import get_session

            built = get_session().system(system)
        else:
            built = system.build()
        cores = len(built.cores)
        total_pairs = cores * (cores - 1)

    rendezvous = None
    if shard is not None:
        index0, count = shard
        if rendezvous_dir is None:
            raise ValueError(
                "sharded Monte Carlo needs rendezvous_dir (the spool "
                "directory shared by all drivers)"
            )
        if campaign_runner.cache is None:
            raise ValueError(
                "sharded Monte Carlo needs a runner with a shared result "
                "cache — foreign shards' samples are read through it"
            )
        from ..distributed.rounds import RoundRendezvous

        probe = montecarlo_jobs(
            system, algorithms[0], fault_counts[0], 1,
            seed=seed, metric=metric, traffic=traffic, config=config,
            kernel=kernel,
        )[0].canonical()
        campaign_id = _campaign_id(
            system, algorithms, fault_counts, samples, seed, metric,
            confidence, target_ci_width, max_samples, probe,
        )
        rendezvous = RoundRendezvous(rendezvous_dir, campaign_id, index0, count)

    registry = get_registry()
    #: Every point's outcomes so far, in emission order; their count is
    #: the number of samples drawn, and so the next sample index.
    outcomes: dict[tuple[str, int], list[JobResult]] = {
        point: [] for point in points
    }
    active = list(points)
    reports: list[CampaignReport] = []
    round_index = 0
    while active:
        batches: list[tuple[tuple[str, int], list[Job]]] = []
        for point in active:
            drawn = len(outcomes[point])
            budget = samples if drawn == 0 else min(max(drawn, samples), max_n - drawn)
            algorithm, k = point
            batches.append((point, montecarlo_jobs(
                system, algorithm, k, budget,
                seed=seed, metric=metric, traffic=traffic, config=config,
                start=drawn, kernel=kernel,
            )))
        all_jobs = [job for _, group in batches for job in group]
        registry.counter(
            "deft_mc_rounds_total", "Monte Carlo sampling rounds driven"
        ).inc()
        registry.counter(
            "deft_mc_samples_total", "Monte Carlo sample jobs emitted"
        ).inc(len(all_jobs))
        if rendezvous is None:
            report = campaign_runner.run(
                Campaign(name=name, jobs=tuple(all_jobs)), progress=progress
            )
            reports.append(report)
            outcome_of = {job.key(): report.result_for(job) for job in all_jobs}
        else:
            outcome_of = _run_sharded_round(
                campaign_runner, name, all_jobs, shard, rendezvous,
                round_index, round_timeout, reports, progress,
            )
        for point, group in batches:
            outcomes[point].extend(outcome_of[job.key()] for job in group)
        round_index += 1
        if not adaptive:
            break
        still_active = []
        for point in active:
            drawn = len(outcomes[point])
            estimate = _estimate_point(*point, metric, outcomes[point], confidence)
            width = _stopping_width(estimate, metric, total_pairs, confidence)
            if (width is None or width > target_ci_width) and drawn < max_n:
                still_active.append(point)
            else:
                registry.gauge(
                    "deft_mc_samples_to_target",
                    "Samples the most recent point needed to stop",
                ).set(drawn)
        active = still_active

    results = [
        _estimate_point(*point, metric, outcomes[point], confidence)
        for point in points
    ]
    return MonteCarloReport(
        metric=metric, samples=samples, seed=seed, confidence=confidence,
        results=results, campaign=CampaignReport.merge(name, reports),
    )


def _run_sharded_round(
    campaign_runner: CampaignRunner,
    name: str,
    all_jobs: list[Job],
    shard: tuple[int, int],
    rendezvous,
    round_index: int,
    round_timeout: float,
    reports: list[CampaignReport],
    progress: ProgressFn | None,
) -> dict[str, JobResult]:
    """Execute one shard slice of a round and pool the full round.

    Emission order, job lists and pooled outcomes are identical on every
    driver; only which slice is *executed* differs. Foreign successes
    are read from the shared cache (their workers published them before
    the owning driver's marker appeared); foreign failures arrive as key
    lists in the markers and are materialized as failed placeholders, so
    the pooled per-point outcome sets — and every downstream float — are
    bit-identical across drivers.
    """
    from ..distributed.rounds import RendezvousError
    from ..distributed.shard import shard_jobs

    index0, count = shard
    mine = shard_jobs(all_jobs, count, index0)
    report = None
    if mine:
        report = campaign_runner.run(
            Campaign(
                name=f"{name}#shard-{index0 + 1}-of-{count}",
                jobs=tuple(mine),
            ),
            progress=progress,
        )
        reports.append(report)
    failed_keys = [result.job_key for result in report.errors] if report else []
    rendezvous.publish(round_index, failed_keys)
    failed_by_shard = rendezvous.gather(round_index, timeout=round_timeout)
    foreign_failed = {
        key for keys in failed_by_shard.values() for key in keys
    }
    outcome_of: dict[str, JobResult] = {}
    for job in all_jobs:
        key = job.key()
        if key in outcome_of:
            continue
        result = report.result_for_key(key) if report else None
        if result is None and key in foreign_failed:
            result = JobResult(
                job_key=key, ok=False,
                error="failed on a peer shard (see its driver log)",
            )
        if result is None:
            result = campaign_runner.cache.get(job)
        if result is None:
            raise RendezvousError(
                f"round {round_index}: job {key[:12]} finished on a peer "
                "shard but never appeared in the shared cache — are all "
                "drivers pointed at the same --cache-dir?"
            )
        outcome_of[key] = result
    return outcome_of
