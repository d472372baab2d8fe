"""Long-lived ``deft worker`` processes.

A worker is the remote half of the ROADMAP's execution model: its warm
state is exactly one :class:`~repro.runner.session.SessionContext`. It
attaches to a spool directory and drains the job stream *batch by
batch*: each :meth:`~repro.distributed.spool.Spool.
claim_batch` takes every job in one pending file under a single lease,
one heartbeat thread covers the whole batch, and the jobs run back to
back through the process session so repeated topologies amortize their
builds. Successful results are handed to the shared content-addressed
:class:`~repro.runner.cache.ResultCache` — buffered briefly and landed
with :meth:`~repro.runner.cache.ResultCache.put_many`, then marked
settled in the lease, in that order, so a settled job *always* has a
durable result and a crash requeues only work whose results could still
be missing. Failed executions are retried by requeueing up to the
spool's ``max_attempts``; the final failure lands in the spool's
``failed/`` directory for the backend to collect.

Telemetry: the worker publishes its stats snapshot
(``<spool>/workers/<id>.json`` — job counts, session hit rates) before
every result flush *and on every heartbeat*, so even a SIGKILLed
worker leaves a near-current record behind; and it appends structured
events (``job_claimed``, ``job_phase``, ``job_finished``,
``worker_heartbeat``, plus the spool's own ``lease_renewed``) to its
stream under the spool's ``manifest/events/`` area, from which
``deft status`` reconstructs fleet state (see
:mod:`repro.telemetry.manifest`).

Exit conditions: the spool's ``STOP`` sentinel, ``max_jobs`` executed,
or ``idle_timeout_s`` with nothing claimable. Both STOP and ``max_jobs``
are honoured *between jobs inside a batch*: the unexecuted remainder is
released back to pending with its pre-claim attempt counts. Between
claims an idle worker also acts as the reaper for other workers'
expired leases.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from pathlib import Path
from typing import Callable

from ..runner.cache import ResultCache
from ..runner.execute import execute_job
from ..runner.session import SessionContext, get_session
from ..runner.spec import Job
from .spool import BatchClaim, BatchEntry, Spool

#: How often an idle worker polls the spool for new jobs.
DEFAULT_POLL_S = 0.1

#: Heartbeat interval as a fraction of the lease, when not overridden.
HEARTBEAT_FRACTION = 4.0


def default_heartbeat_s(lease_s: float) -> float:
    """Lease-derived renewal interval: a healthy worker can never look
    dead, even if one renewal is arbitrarily delayed by a slow mount."""
    return max(0.05, lease_s / HEARTBEAT_FRACTION)


class _Heartbeat:
    """Background thread extending one batch's lease while jobs run.

    The executor runs jobs as long synchronous calls, so the lease must
    be renewed off-thread; one thread covers every job in the batch.
    ``on_beat`` (the worker's stats publisher) runs after each renewal;
    its failures are swallowed — observability must never kill the lease
    renewal that keeps the batch alive.
    """

    def __init__(
        self,
        spool: Spool,
        claim: BatchClaim,
        interval_s: float | None = None,
        on_beat: Callable[[], None] | None = None,
    ):
        self._spool = spool
        self._claim = claim
        self._on_beat = on_beat
        self._interval = (
            interval_s
            if interval_s is not None
            else default_heartbeat_s(spool.lease_s)
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._spool.heartbeat_batch(self._claim)
            if self._on_beat is not None:
                try:
                    self._on_beat()
                except Exception:
                    pass

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def _proc_resources() -> dict[str, int]:
    """Resident-set size and open-fd count of this process via /proc.

    Best-effort: on platforms without a Linux-style procfs (macOS CI,
    containers with a masked /proc) the keys are simply absent and the
    dashboards render nothing for them.
    """
    out: dict[str, int] = {}
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        out["rss_bytes"] = resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        out["open_fds"] = len(os.listdir("/proc/self/fd"))
    except OSError:
        pass
    return out


def _session_stats(session: SessionContext | None) -> dict[str, int]:
    """The session's (category, hit/miss) counters as flat JSON keys.

    Read from the heartbeat thread while the main thread executes jobs,
    so the dict can mutate mid-copy; retry a few times and settle for
    the last consistent snapshot rather than crash the publisher.
    """
    if session is None:
        return {}
    for _ in range(3):
        try:
            return {
                f"{category}.{kind}": count
                for (category, kind), count in sorted(session.stats.items())
            }
        except RuntimeError:
            continue
    return {}


def run_worker(
    spool_dir: str | Path,
    cache: ResultCache,
    *,
    worker_id: str | None = None,
    lease_s: float | None = None,
    max_attempts: int | None = None,
    poll_s: float = DEFAULT_POLL_S,
    idle_timeout_s: float | None = None,
    max_jobs: int | None = None,
    use_session: bool = True,
    heartbeat: bool = True,
    heartbeat_s: float | None = None,
    kernel: str | None = None,
) -> dict:
    """Drain a spool until stopped; returns the final stats payload.

    Args:
        spool_dir: the spool to attach to.
        cache: where successful results land (the shared merge point).
        worker_id: identity for leases and stats; defaults to host+pid.
        lease_s / max_attempts: spool protocol overrides.
        poll_s: idle polling interval.
        idle_timeout_s: exit after this long with nothing claimable
            (``None`` = wait for the ``STOP`` sentinel indefinitely).
        max_jobs: exit after executing this many jobs (tests, draining).
            Honoured mid-batch: the unexecuted remainder is released
            back to pending.
        use_session: keep this process's warm
            :class:`~repro.runner.session.SessionContext` across jobs.
        heartbeat: renew leases while executing (disabled only by tests
            that simulate a stalled worker).
        heartbeat_s: lease renewal interval; defaults to a quarter of
            the lease (:func:`default_heartbeat_s`). Each renewal emits
            a ``lease_renewed`` event.
        kernel: node-local cycle-kernel preference. Applied only to
            claimed jobs that still say ``auto`` — a job's explicit
            kernel request always wins over the worker's default.
            Results are kernel-independent, so this never affects cache
            keys or payloads.
    """
    spool = Spool(
        spool_dir,
        **{
            key: value
            for key, value in (
                ("lease_s", lease_s), ("max_attempts", max_attempts)
            )
            if value is not None
        },
    ).ensure()
    if worker_id is None:
        worker_id = f"{os.uname().nodename}-{os.getpid()}"
    events = spool.attach_events(worker_id)
    session = get_session() if use_session else None
    stats = {
        "worker": worker_id,
        "pid": os.getpid(),
        "started_at": time.time(),
        "jobs_done": 0,
        "jobs_failed": 0,
        "batches_claimed": 0,
        "jobs_released": 0,
        "requeues_swept": 0,
    }

    def publish() -> None:
        stats["updated_at"] = time.time()
        stats["session"] = _session_stats(session)
        stats.update(_proc_resources())
        spool.write_worker_stats(worker_id, stats)

    def on_beat() -> None:
        # Every heartbeat refreshes the on-disk snapshot AND leaves an
        # event behind: liveness is observable even for a worker that is
        # SIGKILLed mid-batch and never reaches its next flush.
        publish()
        events.emit(
            "worker_heartbeat",
            worker=worker_id,
            jobs_done=stats["jobs_done"],
            jobs_failed=stats["jobs_failed"],
        )

    idle_publish_s = (
        heartbeat_s if heartbeat_s is not None
        else default_heartbeat_s(spool.lease_s)
    )
    publish()
    idle_since = time.monotonic()
    try:
        while True:
            if spool.stop_requested():
                break
            if max_jobs is not None and stats["jobs_done"] >= max_jobs:
                break
            batch = spool.claim_batch(worker_id)
            if batch is None:
                swept = spool.requeue_expired()
                stats["requeues_swept"] += swept
                if swept:
                    continue
                if time.time() - stats["updated_at"] >= idle_publish_s:
                    # An idle worker stays visibly alive, so auto batch
                    # sizing counts it in the fleet of the next campaign.
                    publish()
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - idle_since >= idle_timeout_s
                ):
                    break
                time.sleep(poll_s)
                continue
            idle_since = time.monotonic()
            stats["batches_claimed"] += 1
            _drain_batch(
                spool, cache, batch, session,
                heartbeat=heartbeat, heartbeat_s=heartbeat_s,
                events=events, on_beat=on_beat, on_flush=publish,
                stats=stats, max_jobs=max_jobs, kernel=kernel,
            )
            idle_since = time.monotonic()
        publish()
    finally:
        events.close()
    return stats


def _drain_batch(
    spool: Spool,
    cache: ResultCache,
    batch: BatchClaim,
    session: SessionContext | None,
    *,
    heartbeat: bool = True,
    heartbeat_s: float | None = None,
    events=None,
    on_beat: Callable[[], None] | None = None,
    on_flush: Callable[[], None] | None = None,
    stats: dict | None = None,
    max_jobs: int | None = None,
    kernel: str | None = None,
) -> None:
    """Execute every job in one claimed batch and land the results.

    Successful results are buffered and flushed with ``cache.put_many``
    — one segment per flush, streamed to a ``.tmp`` and published by
    one rename — and only *then* marked settled in the lease, so settlement
    never outruns durability. Flushes happen when ``_FLUSH_S`` of work
    has accumulated and at batch end; a crash in between requeues those
    jobs, whose re-execution short-circuits on the cache.

    STOP and ``max_jobs`` are checked between jobs; the unexecuted
    remainder is released back to pending with pre-claim attempt counts.
    ``on_flush`` (the worker's stats publisher) runs before every flush.

    Emits ``job_claimed``, ``job_phase`` (setup/compile/simulate/cache
    wall-clock splits) and ``job_finished`` per job when ``events`` is
    given.
    """
    if events is None:
        events = spool.events
    if stats is None:
        stats = {"jobs_done": 0, "jobs_failed": 0, "jobs_released": 0}
    interval = (
        heartbeat_s
        if heartbeat_s is not None
        else default_heartbeat_s(spool.lease_s)
    )
    flush_s = min(1.0, interval)
    pending_puts: list[tuple[Job, object]] = []
    pending_done: list[str] = []
    last_flush = time.perf_counter()

    def flush(force: bool = False) -> None:
        nonlocal last_flush
        if not force and time.perf_counter() - last_flush < flush_s:
            return
        if on_flush is not None:
            # Stats go out first, so a reader who sees a result in the
            # cache also sees it counted in the published stats.
            on_flush()
        if pending_puts:
            cache.put_many(pending_puts)
            pending_puts.clear()
        if pending_done:
            spool.flush_done(batch, pending_done)
            pending_done.clear()
        # One discovery per flush: jobs of this lease that other workers
        # finished meanwhile (after a lease expiry) are then served from
        # the cache instead of run twice.
        cache.refresh()
        last_flush = time.perf_counter()

    def run_entries() -> None:
        # One discovery per claim, under the lease's heartbeat: results
        # other writers published before it (a requeued remainder, an
        # overlapping campaign) are then indexed.
        cache.refresh()
        for index, entry in enumerate(batch.entries):
            if entry.key in batch.done:
                continue
            if spool.stop_requested() or (
                max_jobs is not None and stats["jobs_done"] >= max_jobs
            ):
                flush(force=True)
                stats["jobs_released"] += spool.release_entries(
                    batch, batch.entries[index:]
                )
                return
            if kernel and kernel != "auto" and entry.job.kernel == "auto":
                entry.job = dataclasses.replace(entry.job, kernel=kernel)
            events.emit(
                "job_claimed",
                key=entry.key,
                worker=batch.worker,
                batch=batch.batch,
                attempts=entry.attempts,
            )
            result = _execute_entry(
                spool, cache, batch, entry, session, events, pending_puts
            )
            stats["jobs_done"] += 1
            if not result.ok:
                stats["jobs_failed"] += 1
                # Failure settlement (requeue / terminal record) already
                # landed inside _execute_entry; flush eagerly so the
                # lease reflects it before anything else can expire it.
                pending_done.append(entry.key)
                flush(force=True)
                continue
            pending_done.append(entry.key)
            flush()
        flush(force=True)
        spool.complete_batch(batch)

    if heartbeat:
        with _Heartbeat(spool, batch, interval_s=interval, on_beat=on_beat):
            run_entries()
    else:
        run_entries()


def _execute_entry(
    spool: Spool,
    cache: ResultCache,
    batch: BatchClaim,
    entry: BatchEntry,
    session: SessionContext | None,
    events,
    pending_puts: list,
):
    """Execute one job of a claimed batch; stage its result for flushing.

    A result already in the cache index short-circuits the run — the
    cache is the source of truth either way. The index is refreshed when
    the batch is claimed and after each flush, so a result another
    worker publishes (after a lease expiry, or by an overlapping
    campaign) is seen within one flush interval; until then the job may
    run twice, which is harmless. Failed executions are requeued for a
    fresh attempt until ``max_attempts``, then recorded terminally in
    the spool.
    """
    job: Job = entry.job
    cache_start = time.perf_counter()
    cached = cache.get(job) if cache.indexed(entry.key) else None
    cache_s = time.perf_counter() - cache_start
    if cached is not None:
        events.emit(
            "job_phase",
            key=entry.key,
            worker=batch.worker,
            setup_s=0.0, compile_s=0.0, simulate_s=0.0,
            cache_s=round(cache_s, 6),
        )
        events.emit(
            "job_finished",
            key=entry.key,
            worker=batch.worker,
            ok=cached.ok,
            cached=True,
            duration_s=cache_s,
            attempts=entry.attempts,
        )
        return cached
    phases: dict = {}
    result = execute_job(job, session=session, phases=phases)
    if result.ok:
        pending_puts.append((job, result))
    elif entry.attempts >= spool.max_attempts:
        spool.record_failure(entry.key, result, entry.attempts)
    else:
        # A failed execution gets a fresh attempt on any worker: the
        # failure may be environmental (OOM kill of a sibling, a flaky
        # mount). The carried attempt count makes deterministic failures
        # terminal after max_attempts instead of cycling forever.
        spool.requeue_entry(batch, entry)
    events.emit(
        "job_phase",
        key=entry.key,
        worker=batch.worker,
        setup_s=round(phases.get("setup_s", 0.0), 6),
        compile_s=round(phases.get("compile_s", 0.0), 6),
        simulate_s=round(phases.get("simulate_s", 0.0), 6),
        cache_s=round(cache_s, 6),
    )
    events.emit(
        "job_finished",
        key=entry.key,
        worker=batch.worker,
        ok=result.ok,
        cached=False,
        duration_s=result.duration_s,
        attempts=entry.attempts,
    )
    return result
