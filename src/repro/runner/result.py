"""Job outcomes: the metrics every experiment consumes.

:class:`JobResult` carries exactly what the repo's figures need from one
simulation — latency aggregates (Figs. 4, 6, 8), VC utilization (Fig. 5),
per-VL loads (wear analysis), delivery counts (in-simulation
reachability) — plus error/timeout capture so a failed job never takes a
campaign down with it. Results are plain JSON for the on-disk cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

#: One shared tuple per distinct ``(vl_index, direction)`` fault. Monte
#: Carlo campaigns hold thousands of results naming the same few faults.
_FAULT_PAIRS: dict[tuple[int, str], tuple[int, str]] = {}


def fault_pair(vl_index: int, direction: str) -> tuple[int, str]:
    """The shared ``(vl_index, direction)`` tuple for one directed fault."""
    pair = (vl_index, direction)
    return _FAULT_PAIRS.setdefault(pair, pair)


@dataclass
class JobResult:
    """Outcome of executing one :class:`~repro.runner.spec.Job`.

    ``ok`` is False when the simulation raised (including deadlock
    watchdog trips) or timed out, in which case ``error`` holds the
    reason and every metric keeps its NaN/zero default.

    ``duration_s`` and ``cached`` are provenance, not results: they are
    excluded from equality so a cache hit compares equal to the run that
    produced it. Equality is NaN-tolerant — a packet-less run's NaN
    latency must still compare equal after a pickle or JSON round-trip,
    or the serial/parallel/cache equivalence contract would break on
    exactly those results.
    """

    job_key: str
    ok: bool = True
    error: str | None = None
    average_latency: float = math.nan
    p50_latency: float = math.nan
    p95_latency: float = math.nan
    p99_latency: float = math.nan
    delivered_ratio: float = math.nan
    average_hops: float = math.nan
    packets_measured: int = 0
    packets_delivered_measured: int = 0
    packets_dropped_measured: int = 0
    cycles: int = 0
    deadlocked: bool = False
    vc_utilization: dict[str, list[float]] = field(default_factory=dict)
    vl_loads: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Analytic reachable core-pair fraction (``kind="reachability"``
    #: jobs only; NaN for simulation jobs).
    reachability: float = math.nan
    #: The concrete fault pattern a sample-mode job drew — provenance for
    #: Monte Carlo campaigns, in the same ``(vl_index, direction)`` form
    #: as :attr:`repro.runner.spec.Job.faults`.
    sampled_faults: tuple[tuple[int, str], ...] = ()
    duration_s: float = field(default=0.0, compare=False)
    cached: bool = field(default=False, compare=False)

    def _comparable(self) -> dict[str, Any]:
        """Equality key: the serialized result with NaNs made comparable."""

        def canonical(value: Any) -> Any:
            if isinstance(value, float) and math.isnan(value):
                return "__nan__"
            if isinstance(value, dict):
                return {key: canonical(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [canonical(item) for item in value]
            return value

        data = self.to_dict()
        del data["duration_s"]  # provenance, not a result
        return canonical(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobResult):
            return NotImplemented
        return self._comparable() == other._comparable()

    def raise_if_failed(self) -> "JobResult":
        """Return self, or raise ``RuntimeError`` for failed jobs.

        Experiment harnesses call this when a missing data point would
        silently corrupt a figure.
        """
        if not self.ok:
            raise RuntimeError(f"job {self.job_key[:12]} failed: {self.error}")
        return self

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_key": self.job_key,
            "ok": self.ok,
            "error": self.error,
            "average_latency": self.average_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
            "delivered_ratio": self.delivered_ratio,
            "average_hops": self.average_hops,
            "packets_measured": self.packets_measured,
            "packets_delivered_measured": self.packets_delivered_measured,
            "packets_dropped_measured": self.packets_dropped_measured,
            "cycles": self.cycles,
            "deadlocked": self.deadlocked,
            "vc_utilization": self.vc_utilization,
            # JSON objects require string keys; inverted in from_dict.
            "vl_loads": {str(k): list(v) for k, v in self.vl_loads.items()},
            "reachability": self.reachability,
            "sampled_faults": [list(fault) for fault in self.sampled_faults],
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        return cls(
            job_key=data["job_key"],
            ok=bool(data.get("ok", True)),
            error=data.get("error"),
            average_latency=float(data.get("average_latency", math.nan)),
            p50_latency=float(data.get("p50_latency", math.nan)),
            p95_latency=float(data.get("p95_latency", math.nan)),
            p99_latency=float(data.get("p99_latency", math.nan)),
            delivered_ratio=float(data.get("delivered_ratio", math.nan)),
            average_hops=float(data.get("average_hops", math.nan)),
            packets_measured=int(data.get("packets_measured", 0)),
            packets_delivered_measured=int(data.get("packets_delivered_measured", 0)),
            packets_dropped_measured=int(data.get("packets_dropped_measured", 0)),
            cycles=int(data.get("cycles", 0)),
            deadlocked=bool(data.get("deadlocked", False)),
            vc_utilization={
                region: [float(v) for v in shares]
                for region, shares in data.get("vc_utilization", {}).items()
            },
            vl_loads={
                int(index): (int(loads[0]), int(loads[1]))
                for index, loads in data.get("vl_loads", {}).items()
            },
            reachability=float(data.get("reachability", math.nan)),
            sampled_faults=tuple(
                fault_pair(int(i), str(d)) for i, d in data.get("sampled_faults", ())
            ),
            duration_s=float(data.get("duration_s", 0.0)),
        )
