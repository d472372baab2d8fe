"""``SpoolBackend``: campaign execution through the filesystem spool.

The spool-queue equivalent of :class:`~repro.runner.backends.ProcessPoolBackend`:
``run`` enqueues the batch, optionally autospawns N local ``deft worker``
subprocesses (long-lived — they survive between ``run`` calls, so
adaptive Monte Carlo rounds reuse their warm sessions), then blocks
until every job's terminal result lands — successes in the shared
content-addressed :class:`~repro.runner.cache.ResultCache`, failures in
the spool's ``failed/`` directory.

Because the cache is the result channel, the same campaign can be
served by workers on any machine that mounts the spool + cache
directories: autospawning is a convenience, not part of the protocol.
While waiting, the backend doubles as the lease reaper (crashed workers'
jobs are requeued after lease expiry) and as the supervisor for its own
autospawned workers (dead ones are respawned within a bounded budget).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from ..runner.backends import ExecutionBackend, ProgressFn
from ..runner.cache import ResultCache
from ..runner.result import JobResult
from ..runner.spec import Job
from ..telemetry.manifest import read_all_events, write_campaign_manifest
from .spool import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    MAX_BATCH,
    STALE_WORKER_S,
    Spool,
)

#: Respawned worker budget, as a multiple of the configured worker count.
_RESPAWN_FACTOR = 2

#: Auto batch sizing puts at most about this much recorded work under
#: each lease: enough to amortize the per-lease filesystem round-trips
#: over short jobs, while jobs longer than this get a lease each.
TARGET_LEASE_WORK_S = 2.0

#: Auto batch sizing leaves at least this many leases per worker, so a
#: campaign spreads over the whole fleet and the last leases even out.
LEASES_PER_WORKER = 4

#: How many trailing ``job_finished`` durations inform auto sizing.
_SIZING_WINDOW = 256


def fleet_size(
    spool: Spool,
    spawned: int = 0,
    *,
    stale_s: float = STALE_WORKER_S,
    now: float | None = None,
) -> int:
    """How many workers can claim ``spool``'s jobs, as far as is known.

    The larger of ``spawned`` (workers the caller starts itself) and the
    workers whose published stats are at most ``stale_s`` old — the
    liveness rule of ``deft status``. Stats files of dead workers stay
    on the spool, so only fresh ones count. 0 when no worker is known.
    """
    now = time.time() if now is None else now
    live = 0
    for payload in spool.worker_stats().values():
        updated_at = payload.get("updated_at")
        if isinstance(updated_at, (int, float)) and now - updated_at <= stale_s:
            live += 1
    return max(spawned, live)


def auto_batch_size(spool_root: str | Path, jobs: int, workers: int) -> int:
    """Jobs per lease for a campaign of ``jobs`` unique jobs on ``workers``.

    ``workers`` is the fleet size (:func:`fleet_size`). Two bounds, the
    smaller wins, clamped to [1, ``MAX_BATCH``]:

    * *spread*: ``ceil(jobs / (LEASES_PER_WORKER * workers))``, so every
      worker gets at least :data:`LEASES_PER_WORKER` leases. With no
      known worker (``workers < 1``) there is nothing to spread over and
      no such bound: a cold spool then leases one job at a time;
    * *history*: about :data:`TARGET_LEASE_WORK_S` of work per lease,
      from the trailing window of non-cached ``job_finished`` durations
      in the spool's merged event streams (the cross-process record the
      ``deft_job_phase_*`` histograms are built from). Sub-second MC
      jobs batch aggressively, long simulate jobs stay at 1. A spool
      with no history yet has no such bound.

    A large lease costs little on a crash: workers flush results and
    settle them in the lease at most ``min(1 s, lease / 4)`` apart, and
    a crashed lease requeues only its unsettled remainder.
    """
    bounds: list[int] = []
    if workers >= 1:
        bounds.append(math.ceil(jobs / (LEASES_PER_WORKER * workers)))
    durations: list[float] = []
    for record in read_all_events(spool_root):
        if record.get("event") != "job_finished" or record.get("cached"):
            continue
        duration = record.get("duration_s")
        if isinstance(duration, (int, float)) and duration >= 0:
            durations.append(float(duration))
    durations = durations[-_SIZING_WINDOW:]
    if durations:
        mean = sum(durations) / len(durations)
        bounds.append(round(TARGET_LEASE_WORK_S / mean) if mean > 0 else MAX_BATCH)
    if not bounds:
        return 1
    return max(1, min(MAX_BATCH, *bounds))


def _worker_command(
    spool_dir: Path,
    cache: ResultCache,
    *,
    worker_id: str,
    lease_s: float,
    max_attempts: int,
    poll_s: float,
    use_session: bool,
) -> list[str]:
    """The ``deft worker`` invocation for one autospawned subprocess."""
    command = [
        sys.executable, "-m", "repro.cli", "worker", str(spool_dir),
        "--cache-dir", str(cache.root),
        "--worker-id", worker_id,
        "--lease", str(lease_s),
        "--max-attempts", str(max_attempts),
        "--poll", str(poll_s),
    ]
    if cache.compress:
        command.append("--compress-cache")
    if not use_session:
        command.append("--no-session")
    return command


class SpoolBackend(ExecutionBackend):
    """Execute campaigns through a spool directory and worker processes.

    Args:
        cache: the shared result cache — required, it is the channel
            successful results come back through.
        spool_dir: the spool directory; ``None`` creates a private
            temporary spool removed on :meth:`close`.
        workers: local ``deft worker`` subprocesses to autospawn
            (0 = rely entirely on externally started workers).
        lease_s: claim lease duration (crash-requeue latency).
        max_attempts: executions per job before a terminal failure.
        poll_s: result/requeue polling interval.
        stall_timeout_s: fail the remaining jobs if no result lands for
            this long while *nothing is in flight* — no claim held, so
            no worker anywhere is executing (``None`` waits forever).
            A held lease always counts as progress: jobs longer than the
            timeout are safe as long as their worker heartbeats.
        use_session: passed through to autospawned workers.
        batch: jobs per spool lease — an int (clamped to
            [1, ``MAX_BATCH``]) or ``"auto"`` to size from the campaign,
            the worker count and the spool's job-duration history
            (:func:`auto_batch_size`).
    """

    def __init__(
        self,
        cache: ResultCache,
        spool_dir: str | Path | None = None,
        workers: int = 2,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_s: float = 0.05,
        stall_timeout_s: float | None = 300.0,
        use_session: bool = True,
        batch: int | str = "auto",
    ):
        if cache is None:
            raise ValueError(
                "SpoolBackend needs a ResultCache: the content-addressed "
                "cache is where workers hand results back"
            )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.cache = cache
        self._tmp: tempfile.TemporaryDirectory | None = None
        if spool_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="deft-spool-")
            spool_dir = self._tmp.name
        self.spool = Spool(spool_dir, lease_s=lease_s, max_attempts=max_attempts)
        if batch != "auto":
            batch = int(batch)
            if batch < 1:
                raise ValueError(f"batch must be >= 1 or 'auto', got {batch}")
            batch = min(batch, MAX_BATCH)
        self.batch = batch
        self._workers = workers
        self.poll_s = poll_s
        self.stall_timeout_s = stall_timeout_s
        self.use_session = use_session
        self._procs: list[subprocess.Popen] = []
        #: Autospawned workers not yet seen publishing stats: id -> process.
        self._unpublished: dict[str, subprocess.Popen] = {}
        self._spawned = 0
        self._closed = False
        # The enqueuing side's telemetry stream: its lease-expiry sweeps
        # and campaign announcements land under the spool's manifest/
        # area alongside the workers' streams.
        self.events = self.spool.attach_events(
            f"enqueuer-{os.uname().nodename}-{os.getpid()}"
        )

    def announce_campaign(self, campaign) -> None:
        """Persist the campaign manifest so any process can track it.

        The manifest (name, shard coordinates, full job-key set) plus the
        ``campaign_started`` event are what let ``deft status`` compute
        per-shard progress with no access to this enqueuing process.
        """
        if self._closed:
            return
        self.spool.ensure()
        write_campaign_manifest(
            self.spool.root, campaign, source=self.events.source
        )
        self.events.emit(
            "campaign_started",
            campaign=campaign.name,
            total=len({job.key() for job in campaign.jobs}),
        )

    #: Workers hand successful results straight to :attr:`cache`; the
    #: runner must not re-serialize them into the same cache.
    persists_results = True

    @property
    def workers(self) -> int:
        return max(1, self._workers)

    # -- worker supervision ----------------------------------------------

    def _spawn_worker(self) -> None:
        worker_id = f"auto-{os.getpid()}-{self._spawned}"
        self._spawned += 1
        command = _worker_command(
            self.spool.root, self.cache,
            worker_id=worker_id,
            lease_s=self.spool.lease_s,
            max_attempts=self.spool.max_attempts,
            poll_s=self.poll_s,
            use_session=self.use_session,
        )
        # Workers must import `repro` even when the package is not
        # installed (src layout): prepend this process's package root.
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        log_path = self.spool.workers_dir / f"{worker_id}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        self._procs.append(proc)
        self._unpublished[worker_id] = proc

    def _await_worker_stats(self) -> None:
        """Wait until every autospawned worker published its stats or exited.

        Workers publish before their first claim, but a fast drain can
        finish before a slow-starting worker gets there; callers reading
        ``worker_stats()`` after ``run`` must still see every worker.
        Bounded by the stall timeout; usually free, since the wait
        overlaps the drain.
        """
        deadline = (
            None if self.stall_timeout_s is None
            else time.monotonic() + self.stall_timeout_s
        )
        while self._unpublished:
            self._unpublished = {
                worker: proc
                for worker, proc in self._unpublished.items()
                if proc.poll() is None
                and not (self.spool.workers_dir / f"{worker}.json").exists()
            }
            if not self._unpublished or (
                deadline is not None and time.monotonic() > deadline
            ):
                return
            time.sleep(self.poll_s)

    def _supervise(self, unresolved: bool) -> int:
        """Reap dead autospawned workers; respawn while work remains.

        Returns the number of live autospawned workers. The respawn
        budget (`_RESPAWN_FACTOR` x workers beyond the initial set)
        bounds crash loops: once exhausted, remaining jobs fail through
        the spool's ``max_attempts`` requeue accounting or the stall
        timeout rather than spinning forever.
        """
        live: list[subprocess.Popen] = []
        died = 0
        for proc in self._procs:
            if proc.poll() is None:
                live.append(proc)
            else:
                died += 1
        self._procs = live
        if unresolved and self._workers:
            budget = self._workers * (1 + _RESPAWN_FACTOR)
            while len(self._procs) < self._workers and self._spawned < budget:
                self._spawn_worker()
        return len(self._procs)

    # -- execution --------------------------------------------------------

    def run(
        self, jobs: Sequence[Job], on_result: ProgressFn | None = None
    ) -> list[JobResult]:
        """Enqueue ``jobs``, then wait until each has a terminal result.

        Each sweep looks at the shared state once: one cache discovery
        (:meth:`ResultCache.refresh`) and one ``failed/`` listing. Only
        keys the cache index now holds are read with ``cache.get``, and
        only keys in the listing with ``failed_result``. Between sweeps
        the backend reaps expired leases and supervises its workers.
        """
        if not jobs:
            return []
        if self._closed:
            raise RuntimeError("SpoolBackend is closed")
        self.spool.ensure()
        self.spool.clear_stop()

        # Dedup by content address; the result list is re-aligned at the
        # end, so duplicate submissions resolve to the same result.
        unique: dict[str, Job] = {}
        for job in jobs:
            unique.setdefault(job.key(), job)
        batch_size = (
            auto_batch_size(
                self.spool.root, len(unique), fleet_size(self.spool, self._workers)
            )
            if self.batch == "auto"
            else self.batch
        )
        self.spool.enqueue(unique.values(), batch_size=batch_size)
        if self._workers and not self._procs:
            for _ in range(self._workers):
                self._spawn_worker()

        resolved: dict[str, JobResult] = {}
        last_progress = time.monotonic()
        while len(resolved) < len(unique):
            progressed = False
            self.cache.refresh()
            failed = self.spool.failed_keys()
            for key, job in unique.items():
                if key in resolved:
                    continue
                result = self.cache.get(job) if self.cache.indexed(key) else None
                if result is not None:
                    # Freshly executed this campaign (the runner already
                    # served pre-existing hits) — report it as such.
                    result.cached = False
                elif key in failed:
                    result = self.spool.failed_result(key)
                if result is None:
                    continue
                resolved[key] = result
                progressed = True
                if on_result is not None:
                    on_result(len(resolved), len(unique), job, result)
            if len(resolved) == len(unique):
                break
            if progressed:
                last_progress = time.monotonic()
            self.spool.requeue_expired()
            live = self._supervise(unresolved=True)
            # A held (unexpired) claim means some worker — local or on
            # another machine — is executing right now: never give up
            # while work is in flight, however long the job runs.
            in_flight = self.spool.claimed_count() > 0
            if in_flight:
                last_progress = time.monotonic()
            stalled = (
                self.stall_timeout_s is not None
                and not in_flight
                and time.monotonic() - last_progress > self.stall_timeout_s
            )
            abandoned = self._workers > 0 and live == 0 and not in_flight
            if stalled or abandoned:
                reason = (
                    "no live spool workers left (respawn budget exhausted)"
                    if abandoned
                    else f"no spool progress for {self.stall_timeout_s}s"
                )
                for key, job in unique.items():
                    if key not in resolved:
                        resolved[key] = JobResult(
                            job_key=key, ok=False, error=reason
                        )
                        if on_result is not None:
                            on_result(len(resolved), len(unique), job,
                                      resolved[key])
                break
            time.sleep(self.poll_s)
        self._await_worker_stats()
        return [resolved[job.key()] for job in jobs]

    # -- lifecycle --------------------------------------------------------

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop autospawned workers and release a private spool."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._procs:
                self.spool.request_stop()
            deadline = time.monotonic() + timeout_s
            for proc in self._procs:
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._procs = []
        finally:
            self.events.close()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None

    def __enter__(self) -> "SpoolBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
