"""Fleet status aggregation: the engine behind ``deft status``.

:func:`fleet_status` reconstructs the live state of a spool campaign
from the filesystem alone — campaign manifests, per-source event
streams, ``workers/<id>.json`` snapshots, claim leases and the shared
result cache — so an operator (or CI) can ask "how is the fleet doing?"
from any machine that mounts the spool, without access to the enqueuing
process. The result is one JSON-safe dict; :func:`render_status` turns
it into a human dashboard and :func:`render_prom` into Prometheus text
exposition for scrapers.
"""

from __future__ import annotations

import datetime
import math
import time
from pathlib import Path

from ..distributed.spool import STALE_WORKER_S, Spool
from ..runner.cache import ResultCache
from .manifest import load_campaign_manifests, read_all_events
from .metrics import percentile

#: A worker whose last stats publish is older than this is presumed dead
#: (the spool's rule, shared with auto batch sizing's fleet count).
DEFAULT_STALE_WORKER_S = STALE_WORKER_S

#: Throughput window: jobs/sec is computed over this trailing span.
DEFAULT_WINDOW_S = 60.0


def _json_float(value: float) -> float | None:
    return None if not math.isfinite(value) else value


def fleet_status(
    spool_dir: str | Path,
    cache_dir: str | Path | None = None,
    *,
    now: float | None = None,
    window_s: float = DEFAULT_WINDOW_S,
    stale_worker_s: float = DEFAULT_STALE_WORKER_S,
) -> dict:
    """One structured snapshot of a spool fleet.

    Args:
        spool_dir: the spool to inspect (read-only).
        cache_dir: the campaign's shared result cache; enables the cache
            census and per-campaign completion accounting.
        now: reference time override (tests freeze the clock).
        window_s: trailing window for the jobs/sec estimate.
        stale_worker_s: silence threshold before a worker counts dead.
    """
    now = now if now is not None else time.time()
    spool = Spool(spool_dir)
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    # -- spool queues and leases -------------------------------------------
    claims = spool.claim_snapshot(now=now)
    stale = [claim for claim in claims if claim["stale"]]
    failed_keys = spool.failed_keys()

    # -- workers -------------------------------------------------------------
    workers = []
    session_totals: dict[str, list[int]] = {}
    for worker_id, payload in sorted(spool.worker_stats().items()):
        updated_at = payload.get("updated_at")
        age = now - updated_at if isinstance(updated_at, (int, float)) else None
        alive = age is not None and age <= stale_worker_s
        session = payload.get("session") or {}
        for flat_key, count in session.items():
            category, _, kind = flat_key.rpartition(".")
            if kind not in ("hit", "miss") or not isinstance(count, int):
                continue
            bucket = session_totals.setdefault(category, [0, 0])
            bucket[0 if kind == "hit" else 1] += count
        workers.append(
            {
                "worker": worker_id,
                "alive": alive,
                "age_s": _json_float(age) if age is not None else None,
                "jobs_done": payload.get("jobs_done", 0),
                "jobs_failed": payload.get("jobs_failed", 0),
                "requeues_swept": payload.get("requeues_swept", 0),
                "pid": payload.get("pid"),
                "rss_bytes": payload.get("rss_bytes"),
                "open_fds": payload.get("open_fds"),
            }
        )
    session_ratios = {
        category: {
            "hits": hits,
            "misses": misses,
            "hit_ratio": _json_float(
                hits / (hits + misses) if hits + misses else math.nan
            ),
        }
        for category, (hits, misses) in sorted(session_totals.items())
    }

    # -- events: throughput, latency, phase splits ---------------------------
    finished: list[dict] = []
    phase_sums = {"setup_s": 0.0, "compile_s": 0.0, "simulate_s": 0.0, "cache_s": 0.0}
    phase_count = 0
    requeues = 0
    expiries = 0
    for record in read_all_events(spool.root):
        event = record.get("event")
        if event == "job_finished":
            finished.append(record)
        elif event == "job_phase":
            phase_count += 1
            for phase in phase_sums:
                value = record.get(phase)
                if isinstance(value, (int, float)):
                    phase_sums[phase] += value
        elif event == "requeue":
            requeues += 1
        elif event == "lease_expired":
            expiries += 1
    durations = [
        record["duration_s"]
        for record in finished
        if isinstance(record.get("duration_s"), (int, float))
        and not record.get("cached")
    ]
    recent = [
        record for record in finished
        if isinstance(record.get("ts"), (int, float))
        and record["ts"] >= now - window_s
    ]
    throughput = {
        "window_s": window_s,
        "finished_in_window": len(recent),
        "jobs_per_s": _json_float(len(recent) / window_s if window_s else math.nan),
        "finished_total": len(finished),
    }
    latency = {
        "count": len(durations),
        "p50_s": _json_float(percentile(durations, 0.50)),
        "p95_s": _json_float(percentile(durations, 0.95)),
        "mean_s": _json_float(
            sum(durations) / len(durations) if durations else math.nan
        ),
    }
    phases = {
        phase: _json_float(total / phase_count if phase_count else math.nan)
        for phase, total in phase_sums.items()
    }

    # -- campaigns: per-shard progress against manifest key sets -------------
    claimed_keys = {claim["key"] for claim in claims}
    if cache is not None:
        cache.refresh()  # one discovery, then index membership per key
    campaigns = []
    for manifest in load_campaign_manifests(spool.root):
        keys = manifest.get("keys", [])
        done = 0
        failed = 0
        for key in keys:
            if key in failed_keys:
                failed += 1
            elif cache is not None and cache.indexed(key):
                done += 1
        running = sum(1 for key in keys if key in claimed_keys)
        total = manifest.get("total", len(keys))
        campaigns.append(
            {
                "campaign": manifest.get("campaign"),
                "id": manifest.get("id"),
                "shard": manifest.get("shard"),
                "total": total,
                "done": done,
                "failed": failed,
                "running": running,
                "progress": _json_float(
                    (done + failed) / total if total else math.nan
                ),
                "source": manifest.get("source", ""),
                "enqueued_at": manifest.get("enqueued_at"),
            }
        )

    status = {
        "generated_at": now,
        "spool": {
            "root": str(spool.root),
            "pending": spool.pending_count(),
            "claimed": len(claims),
            "failed": len(failed_keys),
            "stop_requested": spool.stop_requested(),
        },
        "leases": {
            "active": len(claims) - len(stale),
            "stale": len(stale),
            "stale_keys": sorted(claim["key"] for claim in stale),
        },
        "workers": {
            "alive": sum(1 for worker in workers if worker["alive"]),
            "dead": sum(1 for worker in workers if not worker["alive"]),
            "details": workers,
        },
        "session": session_ratios,
        "campaigns": campaigns,
        "throughput": throughput,
        "latency": latency,
        "phases": phases,
        "requeues": {"lease_expired": expiries, "requeued": requeues},
    }
    if cache is not None:
        stats = cache.stats()
        status["cache"] = {"root": str(cache.root), **stats.to_dict()}
    return status


# -- rendering ---------------------------------------------------------------


def _fmt_seconds(value: float | None, digits: int = 2) -> str:
    return "n/a" if value is None else f"{value:.{digits}f}s"


def _fmt_ratio(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:.0f}%"


def render_status(status: dict) -> str:
    """The human dashboard for one :func:`fleet_status` snapshot."""
    stamp = datetime.datetime.fromtimestamp(
        status["generated_at"], tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S UTC")
    spool = status["spool"]
    leases = status["leases"]
    workers = status["workers"]
    lines = [
        f"fleet @ {spool['root']} — {stamp}",
        (
            f"  jobs: {spool['pending']} pending, {spool['claimed']} claimed, "
            f"{spool['failed']} failed terminally"
            + ("  [STOP requested]" if spool["stop_requested"] else "")
        ),
        f"  leases: {leases['active']} active, {leases['stale']} stale"
        + (
            " (" + ", ".join(key[:12] for key in leases["stale_keys"]) + ")"
            if leases["stale_keys"]
            else ""
        ),
        f"  workers: {workers['alive']} alive, {workers['dead']} dead",
    ]
    for worker in workers["details"]:
        state = "alive" if worker["alive"] else "dead"
        age = (
            f"{worker['age_s']:.0f}s ago"
            if worker["age_s"] is not None
            else "never"
        )
        resources = ""
        if isinstance(worker.get("rss_bytes"), (int, float)):
            resources = f", rss {worker['rss_bytes'] / (1024 * 1024):.0f} MiB"
            if isinstance(worker.get("open_fds"), int):
                resources += f", {worker['open_fds']} fds"
        lines.append(
            f"    {worker['worker']}: {state} (updated {age}), "
            f"{worker['jobs_done']} done, {worker['jobs_failed']} failed"
            + resources
        )
    if status["session"]:
        ratios = ", ".join(
            f"{category} {_fmt_ratio(entry['hit_ratio'])}"
            for category, entry in status["session"].items()
        )
        lines.append(f"  session hit ratios: {ratios}")
    if status["campaigns"]:
        lines.append("  campaigns:")
        for campaign in status["campaigns"]:
            shard = campaign["shard"]
            shard_text = (
                f" [shard {shard['index']}/{shard['count']}]" if shard else ""
            )
            progress = campaign["progress"]
            lines.append(
                f"    {campaign['campaign']}{shard_text}: "
                f"{campaign['done']}/{campaign['total']} done"
                + (f", {campaign['failed']} failed" if campaign["failed"] else "")
                + (f", {campaign['running']} running" if campaign["running"] else "")
                + (
                    f" ({progress * 100:.0f}%)"
                    if progress is not None
                    else ""
                )
            )
    throughput = status["throughput"]
    latency = status["latency"]
    lines.append(
        f"  throughput: {throughput['jobs_per_s'] or 0:.2f} jobs/s over last "
        f"{throughput['window_s']:.0f}s ({throughput['finished_total']} finished total); "
        f"job latency p50 {_fmt_seconds(latency['p50_s'])} "
        f"p95 {_fmt_seconds(latency['p95_s'])} (n={latency['count']})"
    )
    phases = status["phases"]
    if any(value is not None for value in phases.values()):
        lines.append(
            "  phase means: "
            + ", ".join(
                f"{phase[:-2]} {_fmt_seconds(value, 3)}"
                for phase, value in phases.items()
            )
        )
    requeues = status["requeues"]
    if requeues["lease_expired"] or requeues["requeued"]:
        lines.append(
            f"  requeues: {requeues['lease_expired']} lease(s) expired, "
            f"{requeues['requeued']} job(s) requeued"
        )
    cache = status.get("cache")
    if cache:
        lines.append(
            f"  cache: {cache['entries']} entries, "
            f"{cache['total_bytes'] / 1024:.1f} KiB @ {cache['root']}"
        )
    return "\n".join(lines)


def _prom_line(lines: list[str], name: str, kind: str, value, labels: str = "") -> None:
    if value is None:
        return
    if not any(line.startswith(f"# TYPE {name} ") for line in lines):
        lines.append(f"# TYPE {name} {kind}")
    rendered = int(value) if isinstance(value, bool) else value
    lines.append(f"{name}{labels} {rendered}")


def render_prom(status: dict) -> str:
    """Prometheus text exposition of one :func:`fleet_status` snapshot.

    Fleet-level facts become gauges; per-campaign progress is labelled
    by campaign id so overlapping shards stay distinguishable.
    """
    lines: list[str] = []
    spool = status["spool"]
    _prom_line(lines, "deft_spool_pending_jobs", "gauge", spool["pending"])
    _prom_line(lines, "deft_spool_claimed_jobs", "gauge", spool["claimed"])
    _prom_line(lines, "deft_spool_failed_jobs", "gauge", spool["failed"])
    _prom_line(lines, "deft_leases_active", "gauge", status["leases"]["active"])
    _prom_line(lines, "deft_leases_stale", "gauge", status["leases"]["stale"])
    _prom_line(lines, "deft_workers_alive", "gauge", status["workers"]["alive"])
    _prom_line(lines, "deft_workers_dead", "gauge", status["workers"]["dead"])
    for worker in status["workers"]["details"]:
        labels = f'{{worker="{worker["worker"]}"}}'
        _prom_line(lines, "deft_worker_jobs_done", "gauge",
                   worker["jobs_done"], labels)
        _prom_line(lines, "deft_worker_rss_bytes", "gauge",
                   worker.get("rss_bytes"), labels)
        _prom_line(lines, "deft_worker_open_fds", "gauge",
                   worker.get("open_fds"), labels)
    _prom_line(
        lines, "deft_jobs_per_second", "gauge",
        status["throughput"]["jobs_per_s"],
    )
    _prom_line(
        lines, "deft_jobs_finished_total", "gauge",
        status["throughput"]["finished_total"],
    )
    latency = status["latency"]
    for quantile, key in (("0.5", "p50_s"), ("0.95", "p95_s")):
        _prom_line(
            lines, "deft_job_duration_seconds", "gauge", latency[key],
            labels=f'{{quantile="{quantile}"}}',
        )
    for campaign in status["campaigns"]:
        labels = f'{{campaign="{campaign["id"]}"}}'
        _prom_line(lines, "deft_campaign_total_jobs", "gauge",
                   campaign["total"], labels)
        _prom_line(lines, "deft_campaign_done_jobs", "gauge",
                   campaign["done"], labels)
        _prom_line(lines, "deft_campaign_failed_jobs", "gauge",
                   campaign["failed"], labels)
    cache = status.get("cache")
    if cache:
        _prom_line(lines, "deft_cache_entries", "gauge", cache["entries"])
        _prom_line(lines, "deft_cache_bytes", "gauge", cache["total_bytes"])
    return "\n".join(lines) + ("\n" if lines else "")


def health_problems(status: dict) -> list[str]:
    """Why this snapshot is unhealthy, as probe-friendly one-liners.

    Empty means healthy. Backs ``deft status --check`` so cron/CI can
    use the exit code as a fleet probe without parsing JSON. Three
    conditions count as unhealthy: stale leases (a worker stopped
    heartbeating mid-batch), terminal job failures, and a dead fleet —
    workers have been seen but none is alive while work is still
    outstanding. A spool with no workers *and* no work is just idle,
    not unhealthy.
    """
    problems: list[str] = []
    stale = status["leases"]["stale"]
    if stale:
        keys = ", ".join(key[:12] for key in status["leases"]["stale_keys"][:4])
        problems.append(f"{stale} stale lease(s): {keys}")
    failed = status["spool"]["failed"]
    if failed:
        problems.append(f"{failed} terminal job failure(s) in failed/")
    workers = status["workers"]
    outstanding = status["spool"]["pending"] + status["spool"]["claimed"]
    if workers["details"] and workers["alive"] == 0 and outstanding:
        problems.append(
            f"fleet dead: {workers['dead']} known worker(s), none alive, "
            f"{outstanding} job(s) outstanding"
        )
    return problems
