"""The campaign runner: cache-aware, backend-agnostic batch execution.

``CampaignRunner.run`` resolves every job in three steps:

1. **Dedup** — identical jobs (same content address) are resolved once.
2. **Cache lookup** — previously simulated points are served from the
   :class:`~repro.runner.cache.ResultCache` without touching a backend.
3. **Execution** — the remaining misses are dispatched to the configured
   backend (serial or multi-process) and written back to the cache
   as one segment.

The returned :class:`CampaignReport` keeps results aligned with the
submitted jobs, so callers can zip their sweep grid against it directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..telemetry.metrics import percentile
from .backends import ExecutionBackend, ProgressFn, SerialBackend
from .cache import ResultCache
from .result import JobResult
from .spec import Campaign, Job


@dataclass
class CampaignReport:
    """Outcome of one ``CampaignRunner.run`` call."""

    name: str
    jobs: tuple[Job, ...]
    results: list[JobResult]
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    duration_s: float = 0.0
    _by_key: dict[str, JobResult] = field(default_factory=dict, repr=False)

    @property
    def total(self) -> int:
        return len(self.jobs)

    @property
    def errors(self) -> list[JobResult]:
        seen: set[str] = set()
        failed = []
        for result in self.results:
            if not result.ok and result.job_key not in seen:
                seen.add(result.job_key)
                failed.append(result)
        return failed

    @property
    def hit_ratio(self) -> float:
        """Fraction of *required* work served from cache.

        Computed over unique jobs (hits + executions); duplicates are
        free regardless of the cache and would skew the ratio.
        """
        resolved = self.cache_hits + self.executed
        return self.cache_hits / resolved if resolved else 0.0

    def result_for(self, job: Job) -> JobResult:
        return self._by_key[job.key()]

    def result_for_key(self, key: str) -> JobResult | None:
        """The result for a job key, or None if this run never saw it.

        Sharded drivers assemble full-round outcome sets from their own
        report plus cache reads for foreign shards; this is the "own
        report" half of that lookup.
        """
        return self._by_key.get(key)

    @classmethod
    def merge(cls, name: str, reports: Sequence["CampaignReport"]) -> "CampaignReport":
        """Fold several runs into one provenance record (adaptive rounds)."""
        if len(reports) == 1:
            return reports[0]
        by_key: dict[str, JobResult] = {}
        for report in reports:
            by_key.update(report._by_key)
        return cls(
            name=name,
            jobs=tuple(job for report in reports for job in report.jobs),
            results=[result for report in reports for result in report.results],
            cache_hits=sum(report.cache_hits for report in reports),
            executed=sum(report.executed for report in reports),
            deduplicated=sum(report.deduplicated for report in reports),
            duration_s=sum(report.duration_s for report in reports),
            _by_key=by_key,
        )

    def raise_if_failed(self) -> "CampaignReport":
        failed = self.errors
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)} job(s) failed in campaign {self.name!r}; "
                f"first: {first.error}"
            )
        return self

    def job_durations(self) -> list[float]:
        """Per-job execution times across unique results.

        ``duration_s`` is provenance (it travels with cached results and
        records the original execution), so the distribution describes
        the campaign's true compute cost even when much of it was served
        from cache. Zero-duration placeholders (backend-synthesized
        failures that never ran) are excluded.
        """
        unique = self._by_key.values() if self._by_key else {
            result.job_key: result for result in self.results
        }.values()
        return [
            result.duration_s for result in unique if result.duration_s > 0.0
        ]

    def summary(self) -> str:
        line = (
            f"campaign {self.name!r}: {self.total} jobs "
            f"({self.deduplicated} duplicate) — {self.cache_hits} cached, "
            f"{self.executed} executed in {self.duration_s:.1f}s"
        )
        durations = self.job_durations()
        if durations:
            line += (
                f" (job p50 {percentile(durations, 0.50):.2f}s, "
                f"p95 {percentile(durations, 0.95):.2f}s, "
                f"{sum(durations):.1f}s total job time)"
            )
        failed = self.errors
        if failed:
            line += f", {len(failed)} FAILED"
        return line


class CampaignRunner:
    """Runs campaigns through a cache and an execution backend.

    Args:
        backend: execution backend; defaults to :class:`SerialBackend`.
        cache: result cache; ``None`` disables caching entirely.
    """

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        cache: ResultCache | None = None,
    ):
        self.backend = backend or SerialBackend()
        self.cache = cache

    def close(self) -> None:
        """Release the backend's long-lived resources (persistent pools,
        autospawned spool workers). Safe to call on any backend."""
        self.backend.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        campaign: Campaign | Sequence[Job],
        progress: ProgressFn | None = None,
    ) -> CampaignReport:
        if not isinstance(campaign, Campaign):
            campaign = Campaign(name="ad-hoc", jobs=tuple(campaign))
        self.backend.announce_campaign(campaign)
        start = time.perf_counter()
        resolved: dict[str, JobResult] = {}

        # Dedup while preserving first-occurrence order.
        unique: dict[str, Job] = {}
        for job in campaign.jobs:
            unique.setdefault(job.key(), job)
        deduplicated = len(campaign.jobs) - len(unique)

        hits = 0
        pending: list[Job] = []
        for key, job in unique.items():
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is not None:
                resolved[key] = cached
                hits += 1
            else:
                pending.append(job)

        done_so_far = hits
        total = len(unique)
        if progress is not None:
            emitted = 0
            for key, job in unique.items():
                if key in resolved:
                    emitted += 1
                    progress(emitted, total, job, resolved[key])

        def on_result(done: int, _pending_total: int, job: Job, result: JobResult) -> None:
            if progress is not None:
                progress(done_so_far + done, total, job, result)

        if pending:
            executed = self.backend.run(pending, on_result=on_result)
            # Backends that already persist results into this same cache
            # as part of executing (the spool's workers write each
            # success before the backend even sees it) must not pay a
            # second serialize of every result into another segment.
            write_back = self.cache is not None and not (
                getattr(self.backend, "persists_results", False)
                and getattr(self.backend, "cache", None) is not None
                and self.backend.cache.root == self.cache.root
            )
            for job, result in zip(pending, executed):
                resolved[job.key()] = result
            if write_back:
                # One segment for the whole campaign's fresh results.
                self.cache.put_many(zip(pending, executed))

        report = CampaignReport(
            name=campaign.name,
            jobs=campaign.jobs,
            results=[resolved[job.key()] for job in campaign.jobs],
            cache_hits=hits,
            executed=len(pending),
            deduplicated=deduplicated,
            duration_s=time.perf_counter() - start,
            _by_key=resolved,
        )
        return report
