"""Pluggable execution backends.

A backend turns a list of jobs into a list of results, in order. Because
:func:`~repro.runner.execute.execute_job` is a pure function of the job
(each job carries its own seed), every backend produces *identical*
results for the same jobs — parallelism changes wall-clock, never
numbers.

* :class:`SerialBackend` — in-process loop; zero overhead, the default.
* :class:`ProcessPoolBackend` — ``concurrent.futures`` process pool with
  per-job timeout and crash capture. Simulation points are embarrassingly
  parallel (no shared state), so this scales with cores. The pool is
  *persistent* by default: it (and each worker's warm session) survives
  across ``run`` calls until :meth:`~ExecutionBackend.close`, so
  multi-round callers like adaptive Monte Carlo stop re-paying startup
  and offline-optimization costs per round.
* :class:`repro.distributed.SpoolBackend` (separate subsystem) — the
  same contract over a filesystem job spool and long-lived worker
  processes, for campaigns spanning machines.

Both backends run jobs through their worker's
:class:`~repro.runner.session.SessionContext` by default (serial: the
calling process's; pool: one per worker process), so repeated-topology
campaigns stop rebuilding systems, algorithms and route tables per job.
``use_session=False`` restores the rebuild-everything path — results are
identical either way; only wall-clock differs.
"""

from __future__ import annotations

import abc
import concurrent.futures
import math
import os
import signal
import time
import weakref
from typing import Callable, Sequence

from .execute import execute_job, execute_jobs
from .result import JobResult
from .session import get_session
from .spec import Job

#: Progress callback: (completed_count, total, job, result).
ProgressFn = Callable[[int, int, Job, JobResult], None]


def _abandon_executor(executor: concurrent.futures.ProcessPoolExecutor) -> None:
    """Finalizer for persistent pools whose backend was garbage-collected."""
    executor.shutdown(wait=False, cancel_futures=True)


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its wall-clock budget."""


def _execute_with_timeout(
    job: Job, timeout: float | None, use_session: bool = True
) -> JobResult:
    """Worker entry point: run a job under an optional SIGALRM deadline.

    Enforcing the timeout *inside* the worker (POSIX interval timer)
    frees the worker the moment a job overruns, so queued jobs behind a
    stuck one still run and the pool always shuts down cleanly. The
    simulator is pure Python, so the signal handler is guaranteed to
    interrupt it between bytecodes.

    ``use_session`` reuses the worker process's
    :class:`~repro.runner.session.SessionContext` across the jobs it is
    handed — the warm state that makes repeated-topology campaigns cheap.
    """
    session = get_session() if use_session else None
    if not timeout or not hasattr(signal, "SIGALRM"):
        return execute_job(job, session=session)

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job timed out after {timeout}s ({job.label})")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        # A firing alarm raises JobTimeout inside execute_job's try block,
        # which captures it as a failed JobResult like any other error.
        return execute_job(job, session=session)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class ExecutionBackend(abc.ABC):
    """Executes a batch of jobs and reports per-job completion."""

    @abc.abstractmethod
    def run(self, jobs: Sequence[Job], on_result: ProgressFn | None = None) -> list[JobResult]:
        """Execute ``jobs``; the result list is aligned with the input."""

    #: True when ``run`` already lands successful results in a result
    #: cache (exposed as a ``cache`` attribute) as part of executing —
    #: the runner then skips its own redundant write-back.
    persists_results = False

    def announce_campaign(self, campaign) -> None:
        """Telemetry hook: the runner is about to execute ``campaign``.

        Called once per ``CampaignRunner.run`` before any cache lookup
        or dispatch. Backends with a durable telemetry channel (the
        spool writes a campaign manifest + ``campaign_started`` event)
        override this; the default is a no-op so announcing is always
        safe.
        """

    #: Optional :class:`~repro.telemetry.events.EventWriter` this
    #: backend emits job lifecycle events through (``None`` = silent).
    events = None

    def _emit_finished(self, result: JobResult) -> None:
        if self.events is None:
            return
        self.events.emit(
            "job_finished",
            key=result.job_key,
            worker=type(self).__name__,
            ok=result.ok,
            cached=bool(result.cached),
            duration_s=result.duration_s,
            attempts=1,
        )

    def close(self) -> None:
        """Release long-lived resources (worker processes, executors).

        Backends that keep workers alive between ``run`` calls override
        this; running after ``close`` is backend-defined. The default is
        a no-op so callers can close any backend unconditionally.
        """

    @property
    def workers(self) -> int:
        return 1


class SerialBackend(ExecutionBackend):
    """Run jobs in the calling process through :func:`~repro.runner.execute.execute_jobs`.

    With a session, same-system simulation jobs advance in lockstep
    batches of the vector kernel; everything else runs one job at a time.
    Progress callbacks fire in completion order.

    Args:
        use_session: reuse the calling process's session between jobs
            (and between campaigns). ``False`` rebuilds every job's world
            from its spec — the original seed behaviour, kept for
            benchmarking and equivalence testing.
        events: optional :class:`~repro.telemetry.events.EventWriter`;
            when given, every job emits ``job_phase`` (setup/compile/
            simulate splits) and ``job_finished`` events.
    """

    def __init__(self, use_session: bool = True, events=None):
        self.use_session = use_session
        self.events = events

    def run(self, jobs: Sequence[Job], on_result: ProgressFn | None = None) -> list[JobResult]:
        session = get_session() if self.use_session else None
        done = 0

        def finished(index: int, result: JobResult, phases: dict) -> None:
            nonlocal done
            done += 1
            if self.events is not None:
                self.events.emit(
                    "job_phase",
                    key=result.job_key,
                    worker=type(self).__name__,
                    setup_s=round(phases.get("setup_s", 0.0), 6),
                    compile_s=round(phases.get("compile_s", 0.0), 6),
                    simulate_s=round(phases.get("simulate_s", 0.0), 6),
                    cache_s=0.0,
                )
                self._emit_finished(result)
            if on_result is not None:
                on_result(done, len(jobs), jobs[index], result)

        return execute_jobs(jobs, session=session, on_result=finished)


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a ``ProcessPoolExecutor``.

    Args:
        workers: pool size; defaults to the machine's CPU count.
        timeout: per-job wall-clock ceiling in seconds, enforced inside
            each worker via SIGALRM (see :func:`_execute_with_timeout`).
            A timed-out job yields a failed :class:`JobResult` whose
            ``error`` mentions the timeout; the worker is freed
            immediately and the campaign continues. On platforms without
            SIGALRM the ceiling is enforced while collecting results
            instead, against a *shared wall-clock deadline* for the whole
            batch (``timeout`` x the number of serial waves the pool
            needs) — one slow early job spends from the same budget as
            every later job rather than granting them fresh time. This
            fallback cannot reclaim a stuck worker.
        start_method: multiprocessing start method (``fork`` on Linux by
            default; ``spawn`` works everywhere the package is importable).
        use_session: let each worker process keep a
            :class:`~repro.runner.session.SessionContext` warm across the
            jobs it executes (systems, algorithms, compiled route
            tables). ``False`` restores per-job rebuilds.
        persistent: keep the executor — and therefore the worker
            processes and their warm sessions — alive across ``run``
            calls. Multi-round callers (adaptive Monte Carlo doubling)
            stop re-paying pool startup and DeFT's offline optimization
            per round; :meth:`close` (or garbage collection) releases the
            pool. ``False`` restores the shut-down-per-batch behaviour.
        events: optional :class:`~repro.telemetry.events.EventWriter`;
            ``job_finished`` events are emitted in the parent as results
            are collected (writers hold file handles and locks, so they
            never cross the process boundary; per-phase splits live in
            each worker's own metrics registry instead).
    """

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
        use_session: bool = True,
        persistent: bool = True,
        events=None,
    ):
        self._workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.timeout = timeout
        self.use_session = use_session
        self.persistent = persistent
        self.events = events
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._finalizer = None
        self._context = None
        if start_method is not None:
            import multiprocessing

            self._context = multiprocessing.get_context(start_method)

    @property
    def workers(self) -> int:
        return self._workers

    def _persistent_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        """The shared executor, created on first use.

        Sized to the full worker count regardless of batch size —
        ``ProcessPoolExecutor`` spawns processes on demand, and a later,
        larger round must not be capped by an earlier small one.
        """
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._workers, mp_context=self._context
            )
            # GC safety net: a dropped backend must not leak its pool.
            self._finalizer = weakref.finalize(
                self, _abandon_executor, self._executor
            )
        return self._executor

    def _discard_executor(self, stuck: bool) -> None:
        """Drop the shared executor (stuck worker, broken pool)."""
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        executor.shutdown(wait=not stuck, cancel_futures=stuck)

    def close(self) -> None:
        """Shut the persistent pool down; the next ``run`` re-creates it."""
        self._discard_executor(stuck=False)

    def run(self, jobs: Sequence[Job], on_result: ProgressFn | None = None) -> list[JobResult]:
        if not jobs:
            return []
        # Fallback ceiling for platforms without SIGALRM, where a worker
        # cannot interrupt itself: one shared wall-clock deadline sized
        # for the whole batch (per-job budget x serial waves), consumed
        # by every result collection. Measuring each job's wait from its
        # own collection time would let a slow early job silently grant
        # later jobs extra budget.
        pool_size = min(self._workers, len(jobs))
        deadline: float | None = None
        if self.timeout is not None and not hasattr(signal, "SIGALRM"):
            waves = math.ceil(len(jobs) / pool_size)
            deadline = time.monotonic() + self.timeout * waves
        timed_out = False
        broken = False
        results: list[JobResult] = []
        if self.persistent:
            executor = self._persistent_executor()
        else:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=pool_size, mp_context=self._context
            )
        try:
            futures = [
                executor.submit(
                    _execute_with_timeout, job, self.timeout, self.use_session
                )
                for job in jobs
            ]
            for index, (job, future) in enumerate(zip(jobs, futures)):
                try:
                    collect_timeout = (
                        None if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    result = future.result(timeout=collect_timeout)
                except concurrent.futures.TimeoutError:
                    timed_out = True
                    future.cancel()
                    result = JobResult(
                        job_key=job.key(),
                        ok=False,
                        error=f"job timed out after {self.timeout}s ({job.label})",
                    )
                except Exception as exc:  # e.g. BrokenProcessPool, pickling
                    # Only a broken executor poisons the pool; a per-job
                    # failure (unpicklable result, ...) must not cost a
                    # persistent backend its warm worker sessions.
                    if isinstance(exc, concurrent.futures.BrokenExecutor):
                        broken = True
                    result = JobResult(
                        job_key=job.key(),
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                results.append(result)
                self._emit_finished(result)
                if on_result is not None:
                    on_result(index + 1, len(jobs), job, result)
        finally:
            # A parent-side timeout (no-SIGALRM platforms) means a worker
            # may genuinely be stuck; abandon it instead of blocking the
            # campaign on a shutdown join it can never finish. A broken
            # pool cannot be reused either — a persistent backend drops
            # it and re-creates a fresh pool on the next run.
            if not self.persistent:
                executor.shutdown(wait=not timed_out, cancel_futures=timed_out)
            elif timed_out or broken:
                self._discard_executor(stuck=timed_out)
        return results
