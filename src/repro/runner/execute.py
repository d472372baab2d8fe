"""Job materialization and execution.

:func:`execute_job` is a *pure function* of its :class:`Job`: it builds
the system, algorithm, fault state and traffic from the declarative spec
and runs the simulator with the job's seed. Purity is what makes the
content-addressed cache sound and guarantees serial/parallel result
equivalence — backends may execute jobs in any order, on any worker.

Passing a :class:`~repro.runner.session.SessionContext` serves the
builds from the worker's warm memo instead of reconstructing them —
results are identical by contract (the session memoizes only immutable
or per-job-reset artifacts); only wall-clock changes. The fault state is
(re)installed on the algorithm every job, empty state included, so a
memoized algorithm never carries a previous job's faults.

Every exception (configuration errors, deadlock-watchdog trips, ...) is
captured into the returned :class:`JobResult` so one bad point never
aborts a campaign; the traceback is preserved in ``result.error``.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from typing import Callable, Sequence

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..fault.model import (
    FaultState,
    faults_from_spec,
    random_fault_state,
    random_stratified_fault_state,
)
from ..network.kernels import KERNEL_ENV
from ..network.simulator import Simulator
from ..routing.base import RoutingAlgorithm
from ..routing.registry import make_algorithm
from ..topology.builder import System
from ..telemetry.metrics import get_registry
from .result import JobResult
from .session import SessionContext
from .spec import Job, faults_to_spec


def sample_rng(seed: int, fault_k: int, fault_sample: int) -> random.Random:
    """The deterministic RNG of one Monte Carlo sample.

    Derived by hashing the (seed, k, sample index) triple so every sample
    of a campaign draws an independent stream, identical across backends,
    platforms and scheduling orders.
    """
    digest = hashlib.sha256(
        f"deft-mc:{seed}:{fault_k}:{fault_sample}".encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def stratum_rng(
    seed: int, fault_k: int, stratum: tuple[int, ...], fault_sample: int
) -> random.Random:
    """The deterministic RNG of one *stratified* Monte Carlo sample.

    The stratum coordinates enter the hash, so ordinal ``i`` of stratum
    ``(2, 0, 1, 1)`` is a stream independent from ordinal ``i`` of any
    other stratum — and independent from uniform sample ``i`` of the
    same campaign (different domain prefix).
    """
    coords = ",".join(str(c) for c in stratum)
    digest = hashlib.sha256(
        f"deft-mc-stratum:{seed}:{fault_k}:[{coords}]:{fault_sample}".encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _build_algorithm(job: Job, system: System) -> RoutingAlgorithm:
    params = dict(job.algorithm_params)
    if not params:
        return make_algorithm(job.algorithm, system)
    unknown = set(params) - {"rho"}
    if unknown:
        raise ConfigurationError(
            f"unsupported algorithm parameters {sorted(unknown)} for {job.algorithm!r}"
        )
    if job.algorithm != "deft":
        raise ConfigurationError(
            f"'rho' only parameterizes the 'deft' tables, not {job.algorithm!r}"
        )
    from ..routing.deft import DeftRouting

    return DeftRouting(system, rho=float(params["rho"]))


def _build_fault_state(job: Job, system: System) -> FaultState:
    if job.faults_mode == "sample":
        if job.fault_stratum:
            rng = stratum_rng(
                job.seed, job.fault_k, job.fault_stratum, job.fault_sample
            )
            return random_stratified_fault_state(system, job.fault_stratum, rng)
        rng = sample_rng(job.seed, job.fault_k, job.fault_sample)
        return random_fault_state(system, job.fault_k, rng)
    return faults_from_spec(system, job.faults)


def _observe_phases(
    phases: dict | None,
    ok: bool,
    setup_s: float,
    compile_s: float,
    simulate_s: float,
    total_s: float,
) -> None:
    """Record one execution's phase split into ``phases`` + the registry.

    Shared by every exit path of :func:`execute_job` (reachability,
    simulation, failure) so the accounting can never drift between them.
    """
    if phases is not None:
        phases.update(
            setup_s=setup_s,
            compile_s=compile_s,
            simulate_s=simulate_s,
            total_s=total_s,
        )
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "deft_jobs_executed_total", "Jobs executed in this process"
    ).inc()
    if not ok:
        registry.counter(
            "deft_jobs_failed_total", "Jobs that ended in a failed result"
        ).inc()
    registry.histogram(
        "deft_job_phase_setup_seconds", "System/algorithm/fault build time"
    ).observe(setup_s)
    registry.histogram(
        "deft_job_phase_compile_seconds", "Route-table compilation time"
    ).observe(compile_s)
    registry.histogram(
        "deft_job_phase_simulate_seconds", "Simulation/analysis time"
    ).observe(simulate_s)
    registry.histogram(
        "deft_job_duration_seconds", "End-to-end job execution time"
    ).observe(total_s)


def execute_job(
    job: Job,
    session: SessionContext | None = None,
    phases: dict | None = None,
) -> JobResult:
    """Run one job to completion, capturing any failure into the result.

    ``session`` (a worker's :class:`~repro.runner.session.SessionContext`)
    reuses previously built systems, algorithms, fault states and
    compiled route tables across same-spec jobs; ``None`` rebuilds
    everything, exactly as the runner's original per-job path did.

    ``phases``, if given, is filled with this execution's wall-clock
    split (``setup_s`` builds + fault install, ``compile_s`` route-table
    compilation, ``simulate_s`` simulation or reachability analysis,
    ``total_s``) — the payload of the ``job_phase`` telemetry event. The
    same split also lands in the process metrics registry. Results are
    unaffected: the instrumentation only reads clocks.
    """
    start = time.perf_counter()
    key = job.key()
    built_mark = compiled_mark = sim_mark = start
    try:
        if session is not None:
            system = session.system(job.system)
            algorithm = session.algorithm(
                job.system, system, job.algorithm, job.algorithm_params,
                build=lambda: _build_algorithm(job, system),
            )
            built_mark = time.perf_counter()
            routes = session.routes(
                job.system, job.algorithm, job.algorithm_params, algorithm
            )
            compiled_mark = time.perf_counter()
        else:
            # The sessionless path is the pre-session seed behaviour in
            # full: per-job rebuilds AND live per-hop dispatch (no
            # compiled tables), so `--no-session` isolates the entire
            # new machinery for debugging and honest benchmarking.
            system = job.system.build()
            algorithm = _build_algorithm(job, system)
            built_mark = compiled_mark = time.perf_counter()
            routes = None
        fault_state: FaultState | None = None
        if job.faults_mode == "sample":
            fault_state = _build_fault_state(job, system)
        elif session is not None:
            # Memoized algorithms must not carry a previous job's faults:
            # install this job's state unconditionally (empty included).
            fault_state = session.fault_state(job.system, system, job)
        elif job.faults:
            fault_state = _build_fault_state(job, system)
        if fault_state is not None:
            algorithm.set_fault_state(fault_state)
        sampled = (
            faults_to_spec(fault_state)
            if job.faults_mode == "sample" and fault_state is not None
            else ()
        )
        sim_mark = time.perf_counter()
        setup_s = (built_mark - start) + (sim_mark - compiled_mark)
        compile_s = compiled_mark - built_mark
        if job.kind == "reachability":
            from ..analysis.reachability import reachability_of_state

            value = reachability_of_state(
                system, algorithm, fault_state or FaultState(system),
                routes=routes,
            )
            end = time.perf_counter()
            _observe_phases(
                phases, True,
                setup_s, compile_s, end - sim_mark, end - start,
            )
            return JobResult(
                job_key=key,
                ok=True,
                reachability=value,
                sampled_faults=sampled,
                duration_s=end - start,
            )
        traffic = job.traffic.build(system, seed=job.seed)
        config: SimulationConfig = job.config.replace(seed=job.seed)
        report = Simulator(
            system, algorithm, traffic, config, routes=routes, kernel=job.kernel
        ).run()
    except Exception:
        end = time.perf_counter()
        # Phase marks up to the failure point still describe where the
        # time went; monotone clamping keeps every phase non-negative
        # regardless of which stage raised, and everything after the
        # last reached mark counts as simulate.
        built = max(built_mark, start)
        compiled = max(compiled_mark, built)
        sim = max(sim_mark, compiled)
        _observe_phases(
            phases, False,
            (built - start) + (sim - compiled),
            compiled - built,
            end - sim,
            end - start,
        )
        return JobResult(
            job_key=key,
            ok=False,
            error=traceback.format_exc(limit=20),
            duration_s=end - start,
        )
    end = time.perf_counter()
    _observe_phases(
        phases, True, setup_s, compile_s, end - sim_mark, end - start
    )
    return _simulation_result(key, report, sampled, end - start)


def _simulation_result(
    key: str, report, sampled: tuple, duration_s: float
) -> JobResult:
    stats = report.stats
    return JobResult(
        job_key=key,
        ok=True,
        average_latency=stats.average_latency,
        p50_latency=stats.latency.p50,
        p95_latency=stats.latency.p95,
        p99_latency=stats.latency.p99,
        delivered_ratio=stats.delivered_ratio,
        average_hops=stats.hops.average,
        packets_measured=stats.packets_measured,
        packets_delivered_measured=stats.packets_delivered_measured,
        packets_dropped_measured=stats.packets_dropped_measured,
        cycles=report.cycles,
        deadlocked=report.deadlocked,
        vc_utilization=stats.vc_utilization_report(),
        vl_loads=stats.vl_load_report(),
        sampled_faults=sampled,
        duration_s=duration_s,
    )


# ----------------------------------------------------------------------
# lockstep batches
# ----------------------------------------------------------------------

#: Router budget of one lockstep batch. On the paper's systems the vector
#: kernel's step cost is mostly fixed numpy overhead: a step over 8 x 128
#: routers cost 2.3x one over 128, while past about a thousand routers
#: the cost grows with the router count (README, "Lockstep batches").
#: Every paper-figs group fits (up to 6 x 128 or 5 x 192 routers); a
#: 2,048-router job always runs alone.
BATCH_ROUTERS = 1024

#: Called as each job of :func:`execute_jobs` finishes:
#: (index into ``jobs``, result, phase split).
FinishedFn = Callable[[int, JobResult, dict], None]


def batch_key(job: Job) -> tuple | None:
    """Jobs with equal keys share a route table and may run in lockstep.

    They agree on system, algorithm (+ parameters), explicit faults and
    config apart from the seed; traffic and seeds may differ. ``None``
    means the job always runs alone: reachability jobs, sampled faults
    (a fault state per job) and ``kernel="reference"`` requests.
    """
    if job.kind != "simulate" or job.faults_mode != "explicit":
        return None
    if job.kernel == "reference":
        return None
    return (
        SessionContext.system_key(job.system),
        job.algorithm,
        job.algorithm_params,
        job.faults,
        job.config.replace(seed=0),
    )


def execute_jobs(
    jobs: Sequence[Job],
    session: SessionContext | None = None,
    on_result: FinishedFn | None = None,
) -> list[JobResult]:
    """Run ``jobs``, advancing same-table simulations in lockstep batches.

    Results equal :func:`execute_job`'s bit for bit, in input order. With
    a ``session`` (and no ``DEFT_KERNEL`` override), simulation jobs with
    equal :func:`batch_key` run as lockstep batches of the vector kernel,
    filled in submission order while their total router count stays
    within :data:`BATCH_ROUTERS`; every other job, and every batch of
    one, runs through :func:`execute_job` exactly as before. A batch
    member's ``duration_s`` and phase split are its share of the batch's
    wall-clock, apportioned by simulated cycles, so the members' shares
    sum to the batch's wall-clock.
    """
    results: list[JobResult | None] = [None] * len(jobs)

    def finish(index: int, result: JobResult, phases: dict) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result, phases)

    batching = session is not None and not os.environ.get(KERNEL_ENV)
    groups: dict[tuple, list[int]] = {}
    order: list[list[int]] = []
    for index, job in enumerate(jobs):
        key = batch_key(job) if batching else None
        if key is None:
            order.append([index])
        elif key in groups:
            groups[key].append(index)
        else:
            groups[key] = [index]
            order.append(groups[key])
    for indices in order:
        if len(indices) == 1:
            _execute_solo(jobs, indices, session, finish)
        else:
            _execute_group(jobs, indices, session, finish)
    return results  # type: ignore[return-value]


def _execute_solo(jobs, indices, session, finish: FinishedFn) -> None:
    for index in indices:
        phases: dict = {}
        finish(index, execute_job(jobs[index], session=session, phases=phases), phases)


def _execute_group(jobs, indices, session, finish: FinishedFn) -> None:
    """Lockstep batches for one :func:`batch_key` group.

    Any exception while building or running a batch re-runs its jobs
    alone, so failures surface exactly as :func:`execute_job` reports
    them (and the others still succeed).
    """
    start = time.perf_counter()
    lead = jobs[indices[0]]
    try:
        system = session.system(lead.system)
        size = BATCH_ROUTERS // len(system.routers)
        if size > 1:
            algorithm = session.algorithm(
                lead.system, system, lead.algorithm, lead.algorithm_params,
                build=lambda: _build_algorithm(lead, system),
            )
            built = time.perf_counter()
            routes = session.routes(
                lead.system, lead.algorithm, lead.algorithm_params, algorithm
            )
            compiled = time.perf_counter()
            algorithm.set_fault_state(session.fault_state(lead.system, system, lead))
    except Exception:
        size = 1
    if size <= 1 or routes is None:
        # A system that fills a batch on its own (or one that cannot run
        # on the vector kernel) keeps the one-job path.
        _execute_solo(jobs, indices, session, finish)
        return
    # The group's shared builds are charged to its first batch.
    shared = ((built - start) + (time.perf_counter() - compiled), compiled - built)
    for first in range(0, len(indices), size):
        chunk = indices[first : first + size]
        if len(chunk) == 1:
            _execute_solo(jobs, chunk, session, finish)
        else:
            _execute_batch(
                jobs, chunk, session, system, algorithm, routes, shared, finish
            )
        shared = (0.0, 0.0)


def _execute_batch(
    jobs, chunk, session, system, algorithm, routes, shared, finish: FinishedFn
) -> None:
    start = time.perf_counter()
    try:
        sims = [
            Simulator(
                system,
                algorithm.runtime_copy(),
                jobs[index].traffic.build(system, seed=jobs[index].seed),
                jobs[index].config.replace(seed=jobs[index].seed),
                routes=routes,
                kernel=jobs[index].kernel,
            )
            for index in chunk
        ]
        Simulator.lockstep(sims)
        sim_mark = time.perf_counter()
        reports = [sim.run() for sim in sims]
    except Exception:
        _execute_solo(jobs, chunk, session, finish)
        return
    end = time.perf_counter()
    setup_s = shared[0] + (sim_mark - start)
    compile_s = shared[1]
    simulate_s = end - sim_mark
    total = sum(report.cycles for report in reports)
    for index, report in zip(chunk, reports):
        weight = report.cycles / total if total else 1 / len(chunk)
        phases: dict = {}
        _observe_phases(
            phases, True,
            weight * setup_s, weight * compile_s, weight * simulate_s,
            weight * (setup_s + compile_s + simulate_s),
        )
        result = _simulation_result(
            jobs[index].key(), report, (), phases["total_s"]
        )
        finish(index, result, phases)
