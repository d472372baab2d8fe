"""Per-job trace reconstruction from the spool's event streams.

The event streams under ``manifest/events/`` record *what happened*
(``job_claimed`` → ``job_phase`` → ``job_finished``, plus lease renewals
and requeues) but not *how it lines up in time* — answering "why was
this campaign slow" from raw JSONL means mental arithmetic across
interleaved sources. This module stitches the streams back into span
trees, one per job attempt:

    job <key> ................ claimed_at → finished_at     (root)
      claim ................. claim + cache probe
      setup ................. topology / system construction
      compile ............... route-table compilation
      simulate .............. cycle loop
      publish ............... result staging + settle tail

The worker emits phase *durations* after execution rather than
per-phase timestamps, so children are laid out sequentially from the
claim timestamp; ``publish`` is the measured remainder up to
``job_finished``. Every child is clamped inside its root, which keeps
spans monotonic even when clocks or rounding disagree by microseconds.

Two consumers: :func:`chrome_trace` exports Chrome/Catapult
``trace_event`` JSON (load it in ``chrome://tracing`` / Perfetto; one
thread lane per worker), and :func:`render_trace_summary` prints a
terminal timeline — p50/p95 per phase and the critical path, i.e. the
slowest end-to-end job chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .manifest import load_campaign_manifests, read_all_events
from .metrics import percentile

#: Child span names, in layout order, present for every finished job.
PHASE_ORDER = ("claim", "setup", "compile", "simulate", "publish")


@dataclass
class JobTrace:
    """One claim→finish attempt of one job."""

    key: str
    worker: str
    attempt: int
    claimed_at: float
    finished_at: float | None = None
    ok: bool | None = None
    cached: bool | None = None
    requeued_at: float | None = None
    #: Raw phase durations from the ``job_phase`` event (``setup_s`` …).
    phase_s: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def duration_s(self) -> float:
        if self.finished_at is None:
            return 0.0
        return max(0.0, self.finished_at - self.claimed_at)

    def spans(self) -> list[tuple[str, float, float]]:
        """``(name, start_epoch_s, duration_s)`` children, clamped.

        Sequential layout from ``claimed_at``: claim (incl. the cache
        probe), setup, compile, simulate, then publish as the remainder
        to ``finished_at``. Children never extend past the root, so the
        tree is monotonic by construction.
        """
        if self.finished_at is None:
            return []
        end = self.finished_at
        cursor = self.claimed_at
        durations = {
            "claim": self.phase_s.get("cache_s", 0.0),
            "setup": self.phase_s.get("setup_s", 0.0),
            "compile": self.phase_s.get("compile_s", 0.0),
            "simulate": self.phase_s.get("simulate_s", 0.0),
        }
        spans = []
        for name in PHASE_ORDER[:-1]:
            start = min(cursor, end)
            dur = max(0.0, min(durations[name], end - start))
            spans.append((name, start, dur))
            cursor = start + dur
        spans.append(("publish", min(cursor, end), max(0.0, end - min(cursor, end))))
        return spans


@dataclass
class TraceSet:
    """Everything reconstructed from one spool's event streams."""

    traces: list[JobTrace] = field(default_factory=list)
    #: Fleet-level point events: ``(ts, name, worker, detail)``.
    instants: list[tuple[float, str, str, str]] = field(default_factory=list)
    campaign: str | None = None

    @property
    def finished(self) -> list[JobTrace]:
        return [t for t in self.traces if t.finished]

    @property
    def workers(self) -> list[str]:
        return sorted({t.worker for t in self.traces if t.worker})

    @property
    def start_ts(self) -> float:
        candidates = [t.claimed_at for t in self.traces]
        candidates.extend(ts for ts, *_ in self.instants)
        return min(candidates) if candidates else 0.0

    @property
    def end_ts(self) -> float:
        candidates = [t.finished_at for t in self.traces if t.finished_at]
        candidates.extend(t.claimed_at for t in self.traces)
        candidates.extend(ts for ts, *_ in self.instants)
        return max(candidates) if candidates else 0.0

    def critical_path(self) -> JobTrace | None:
        """The slowest end-to-end job chain (max claim→finish)."""
        finished = self.finished
        if not finished:
            return None
        return max(finished, key=lambda t: t.duration_s)


def reconstruct(
    records: Iterable[dict],
    keys: set[str] | None = None,
    campaign: str | None = None,
) -> TraceSet:
    """Stitch merged event records into per-attempt span trees.

    ``records`` must be timestamp-ordered (what
    :func:`repro.telemetry.manifest.read_all_events` yields). With
    ``keys``, only attempts of those job keys are kept, and lease-level
    instants are kept only for workers that touched them.
    """
    out = TraceSet(campaign=campaign)
    open_by_key: dict[str, JobTrace] = {}
    instants: list[tuple[float, str, str, str]] = []
    touched_workers: set[str] = set()
    for record in records:
        event = record.get("event")
        ts = float(record.get("ts", 0.0))
        key = record.get("key")
        worker = str(record.get("worker") or record.get("source") or "")
        if key is not None and keys is not None and key not in keys:
            continue
        if event == "job_claimed":
            trace = JobTrace(
                key=key,
                worker=worker,
                attempt=int(record.get("attempts", 1)),
                claimed_at=ts,
            )
            open_by_key[key] = trace
            out.traces.append(trace)
            touched_workers.add(worker)
        elif event == "job_phase":
            trace = open_by_key.get(key)
            if trace is not None and not trace.finished:
                trace.phase_s = {
                    name: float(record.get(name, 0.0))
                    for name in ("cache_s", "setup_s", "compile_s", "simulate_s")
                }
        elif event == "job_finished":
            trace = open_by_key.get(key)
            if trace is None or trace.finished:
                # A finish with no observed claim (a truncated or
                # rotated-away segment): synthesise the root from
                # duration so the job still appears.
                duration = float(record.get("duration_s", 0.0))
                trace = JobTrace(
                    key=key,
                    worker=worker,
                    attempt=int(record.get("attempts", 1)),
                    claimed_at=ts - max(0.0, duration),
                )
                out.traces.append(trace)
            trace.finished_at = ts
            trace.ok = bool(record.get("ok"))
            trace.cached = bool(record.get("cached"))
            open_by_key.pop(key, None)
            touched_workers.add(worker)
        elif event == "requeue":
            trace = open_by_key.get(key)
            if trace is not None:
                trace.requeued_at = ts
            detail = "terminal" if record.get("terminal") else f"attempt {record.get('attempts')}"
            instants.append((ts, "requeue", worker, f"{key} ({detail})"))
        elif event == "lease_renewed":
            instants.append(
                (ts, "lease_renewed", worker,
                 f"batch {record.get('batch')} {record.get('done')}/{record.get('jobs')} done")
            )
        elif event == "lease_expired":
            jobs = record.get("jobs") or []
            instants.append(
                (ts, "lease_expired", worker, f"{len(jobs)} job(s) requeued")
            )
    if keys is not None:
        instants = [
            i for i in instants
            if i[1] == "requeue" or i[2] in touched_workers
        ]
    out.instants = sorted(instants)
    return out


def resolve_campaign_keys(spool_root: str | Path, campaign: str) -> set[str]:
    """Job keys of ``campaign`` (by name, id, or shard base name).

    Shards of the same base campaign are merged. Raises ``ValueError``
    naming the known campaigns when nothing matches.
    """
    manifests = load_campaign_manifests(spool_root)
    keys: set[str] = set()
    known: set[str] = set()
    for manifest in manifests:
        name = manifest.get("campaign", "")
        shard = manifest.get("shard") or {}
        base = shard.get("base") or name
        known.update({name, base})
        if campaign in (name, base, manifest.get("id")):
            keys.update(manifest.get("keys", ()))
    if not keys:
        raise ValueError(
            f"unknown campaign {campaign!r}; spool knows: "
            + (", ".join(sorted(known)) if known else "(none)")
        )
    return keys


def job_traces(spool_root: str | Path, campaign: str | None = None) -> TraceSet:
    """Reconstruct every job attempt recorded in a spool's manifest.

    With ``campaign``, restrict to that campaign's job keys (resolved
    by name, id, or shard base).
    """
    keys = resolve_campaign_keys(spool_root, campaign) if campaign else None
    return reconstruct(read_all_events(spool_root), keys=keys, campaign=campaign)


def _us(ts: float, t0: float) -> int:
    return max(0, int(round((ts - t0) * 1e6)))


def chrome_trace(traces: TraceSet) -> dict:
    """Export a :class:`TraceSet` as Chrome/Catapult trace JSON.

    One process (``deft fleet``), one thread lane per worker, complete
    ("X") events for each finished attempt with its five phase children
    nested inside, instant ("i") events for requeues and lease
    renewals/expiries. Timestamps are microseconds relative to the
    earliest event; the absolute epoch start is in ``otherData``.
    """
    t0 = traces.start_ts
    tids = {worker: index + 1 for index, worker in enumerate(traces.workers)}
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "deft fleet"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "spool"}},
    ]
    for worker, tid in tids.items():
        events.append(
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": worker}}
        )
    for trace in traces.finished:
        tid = tids.get(trace.worker, 0)
        events.append(
            {
                "name": f"job {trace.key[:12]}",
                "cat": "job",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": _us(trace.claimed_at, t0),
                "dur": max(1, _us(trace.finished_at, t0) - _us(trace.claimed_at, t0)),
                "args": {
                    "key": trace.key,
                    "worker": trace.worker,
                    "attempt": trace.attempt,
                    "ok": trace.ok,
                    "cached": trace.cached,
                },
            }
        )
        for name, start, dur in trace.spans():
            events.append(
                {
                    "name": name,
                    "cat": "phase",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": _us(start, t0),
                    "dur": _us(start + dur, t0) - _us(start, t0),
                    "args": {"key": trace.key},
                }
            )
    for ts, name, worker, detail in traces.instants:
        events.append(
            {
                "name": name,
                "cat": "spool",
                "ph": "i",
                "s": "t" if worker in tids else "g",
                "pid": 1,
                "tid": tids.get(worker, 0),
                "ts": _us(ts, t0),
                "args": {"detail": detail, "worker": worker},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_start_epoch_s": t0,
            "campaign": traces.campaign,
            "jobs_finished": len(traces.finished),
            "jobs_open": len(traces.traces) - len(traces.finished),
            "workers": traces.workers,
        },
    }


def write_chrome_trace(traces: TraceSet, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(traces), sort_keys=True))
    return path


def _fmt_s(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1e3:.1f}ms"


def render_trace_summary(traces: TraceSet) -> str:
    """Terminal span-timeline summary: per-phase p50/p95 + critical path."""
    lines: list[str] = []
    finished = traces.finished
    scope = f"campaign {traces.campaign!r}" if traces.campaign else "all campaigns"
    makespan = max(0.0, traces.end_ts - traces.start_ts)
    lines.append(
        f"trace — {scope}: {len(finished)} finished attempt(s), "
        f"{len(traces.traces) - len(finished)} open, "
        f"{len(traces.workers)} worker(s), makespan {_fmt_s(makespan)}"
    )
    if not finished:
        lines.append("  (no finished attempts — nothing to summarise)")
        return "\n".join(lines)
    per_phase: dict[str, list[float]] = {name: [] for name in PHASE_ORDER}
    for trace in finished:
        for name, _start, dur in trace.spans():
            per_phase[name].append(dur)
    lines.append(f"  {'phase':<10}{'count':>7}{'p50':>10}{'p95':>10}{'total':>10}")
    for name in PHASE_ORDER:
        values = per_phase[name]
        lines.append(
            f"  {name:<10}{len(values):>7}"
            f"{_fmt_s(percentile(values, 0.5)):>10}"
            f"{_fmt_s(percentile(values, 0.95)):>10}"
            f"{_fmt_s(sum(values)):>10}"
        )
    slowest = traces.critical_path()
    parts = " | ".join(
        f"{name} {_fmt_s(dur)}" for name, _start, dur in slowest.spans()
    )
    lines.append(
        f"  critical path: job {slowest.key[:12]} on {slowest.worker or '?'} "
        f"({_fmt_s(slowest.duration_s)} claim→finish, attempt {slowest.attempt}"
        + (", cached" if slowest.cached else "")
        + ")"
    )
    lines.append(f"    {parts}")
    counts = {"requeue": 0, "lease_renewed": 0, "lease_expired": 0}
    for _ts, name, _worker, _detail in traces.instants:
        counts[name] = counts.get(name, 0) + 1
    lines.append(
        "  requeues: {requeue}, lease renewals: {lease_renewed}, "
        "lease expiries: {lease_expired}".format(**counts)
    )
    return "\n".join(lines)
