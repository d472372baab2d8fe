"""One pass of one DeFT benchmark workload, in a fresh process.

``run.py`` starts this file once per pass (and a few more times with
``--probe`` to time set-up), so every pass begins with an empty session,
result cache and spool. A pass is a closed-loop batch: it submits the
workload's whole job grid, waits for every result, then replays the same
grid from the now-warm result cache. The pass prints one JSON line with
its timings, its correctness checks and a ``result_digest`` over every
simulated or computed value (never over timings).

Usage (normally via ``run.py``)::

    PYTHONPATH=src python deftbench/workloads.py --workload grid-load \\
        --seed 0 --spawned-at "$(python -c 'import time;print(time.monotonic())')" \\
        --workdir .deftbench/work/x [--trace-out T.json] [--verify] [--smoke]

Workloads (sizes are the non-smoke ones):

* ``paper-figs`` — fig4a-d, fig5, fig7a-b, fig8a-b and table1 at
  ``scale=0.1`` through a serial runner: 96 simulation jobs on the 128-
  and 192-router systems.
* ``grid-load`` — DeFT, MTR and RC x uniform traffic at three rates on an
  8x8 grid of 4x4 chiplets (2,048 routers): 9 large simulation jobs.
* ``mc-reach`` — Monte Carlo reachability on the 3x2 chiplet grid: DeFT,
  MTR and RC x k in {2, 4, 8, 12} x 600 samples, 7,200 analytic jobs.
* ``spool-drain`` — 900 jobs of the mc-reach kind through a fresh
  ``SpoolBackend`` with 2 autospawned workers and ``batch="auto"``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

# Set-up time runs from the parent's spawn to the first submit, so it
# includes the interpreter start-up and these imports.
from repro.runner import (
    Campaign,
    CampaignRunner,
    ResultCache,
    SystemRef,
    execute_job,
    get_session,
)

import tracing

ALGORITHMS = ("deft", "mtr", "rc")
#: Fault counts of the Monte Carlo grid (fig7mc-b's extension beyond k=8).
FAULT_COUNTS = (2, 4, 8, 12)

#: Replays repeat until they add up to this long (at most MAX_REPLAYS), so
#: even a 9-job replay is timed often enough for a steady median.
REPLAY_TARGET_S = 0.5
MAX_REPLAYS = 50

#: Calibration slices timed right before and right after each pass, in
#: the pass's own process: a host's speed differs between processes.
CALIBRATION_SLICES = 8

#: Chance that a correct Monte Carlo point fails the exact-curve check.
MC_FALSE_ALARM = 1e-6


def result_record(result) -> dict:
    """A JobResult's values, without provenance (duration, cache flag)."""
    record = result.to_dict()
    record.pop("duration_s")
    return record


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples
    above it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    """Largest resident set of this process and any reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class RecordingRunner(CampaignRunner):
    """A serial ``CampaignRunner`` that keeps every report it returns."""

    def __init__(self, cache: ResultCache):
        super().__init__(cache=cache)
        self.reports = []

    def run(self, campaign, progress=None):
        report = super().run(campaign, progress)
        self.reports.append(report)
        return report


# -- workloads --------------------------------------------------------------


class Workload:
    """Inputs are built in ``__init__`` (set-up); ``cold``/``replay`` are
    the timed calls; ``verify`` runs after timing and returns named
    correctness checks; ``digest_payload`` feeds the result digest.

    ``cold`` returns the pass's campaign reports. ``replay`` returns its
    reports plus the arguments ``digest_payload`` needs for that replay.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.cache = ResultCache(workdir / "cache")

    def close(self) -> None:
        """Release what the cold pass started (spool workers); idempotent."""

    def session_stats(self) -> dict:
        return dict(get_session().stats)


class PaperFigs(Workload):
    """fig4a-d, fig5, fig7a-b, fig8a-b and table1 regenerated serially."""

    name = "paper-figs"
    SCALE = 0.1

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        import importlib

        # Simulation seeds default to the figures' own (1 for fig4/fig5,
        # 5 for fig8), so seed 0 regenerates exactly the repo's figures.
        sim = {"seeds": (1 + seed,)}
        kwargs = {
            "fig4a": sim, "fig4b": sim, "fig4c": sim, "fig4d": sim,
            "fig5": {"seed": 1 + seed},
            "fig8a": {"seed": 5 + seed}, "fig8b": {"seed": 5 + seed},
        }
        selected = ("fig5", "fig7a", "table1") if smoke else None
        self.artifacts = [
            (name, importlib.import_module(module), function, kwargs.get(name))
            for module, function, name in tracing.ARTIFACTS
            if selected is None or name in selected
        ]

    def _run(self):
        runner = RecordingRunner(self.cache)
        outputs = []
        for name, module, function, kwargs in self.artifacts:
            # Looked up at call time so a traced pass calls the wrapper.
            artifact = getattr(module, function)
            if name in ("fig7a", "fig7b"):
                outputs.append(artifact())
            elif name == "table1":
                outputs.append(artifact(self.SCALE))
            else:
                outputs.append(artifact(self.SCALE, runner=runner, **kwargs))
        return outputs, runner.reports

    def cold(self):
        self.cold_outputs, self.cold_reports = self._run()
        return self.cold_reports

    def replay(self):
        outputs, reports = self._run()
        return reports, (outputs, reports)

    def digest_payload(self, outputs=None, reports=None):
        outputs = self.cold_outputs if outputs is None else outputs
        reports = self.cold_reports if reports is None else reports
        return {
            "artifacts": [
                {"id": out.experiment_id, "data": out.data, "checks": out.checks}
                for out in outputs
            ],
            "jobs": [result_record(r) for rep in reports for r in rep.results],
        }

    def shape_checks_failed(self) -> int:
        return sum(len(out.failed_checks()) for out in self.cold_outputs)

    def verify(self) -> dict[str, bool]:
        by_id = {out.experiment_id: out for out in self.cold_outputs}
        results = [r for rep in self.cold_reports for r in rep.results]
        jobs = [job for rep in self.cold_reports for job in rep.jobs]
        checks = {
            "every job ok": all(r.ok for r in results),
            "no deadlock (DeFT, MTR, RC are deadlock-free)": not any(
                r.deadlocked for r in results
            ),
        }
        for exact in ("fig7a", "fig7b", "table1"):
            if exact in by_id:
                checks[f"{exact} claims hold (exact, seed-independent)"] = (
                    by_id[exact].all_checks_pass
                )
        if jobs:
            # The seed's job, re-run on the pre-session path (no compiled
            # tables, reference kernel), must equal the campaign's result.
            index = self.seed % len(jobs)
            job = dataclasses.replace(jobs[index], kernel="reference")
            checks["reference kernel reproduces a campaign job"] = (
                execute_job(job) == results[index]
            )
        return checks


class GridLoad(Workload):
    """Large-system simulation: 2,048 routers, three loads, three algorithms."""

    name = "grid-load"
    RATES = (0.002, 0.004, 0.006)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        from repro.config import SimulationConfig
        from repro.runner import Job, TrafficSpec

        grid = (2, 1) if smoke else (8, 8)
        config = SimulationConfig(
            warmup_cycles=100, measure_cycles=100 if smoke else 500,
            drain_cycles=3000,
        )
        self.campaign = Campaign(
            name="grid-load",
            jobs=tuple(
                Job.make(
                    SystemRef.from_grid(*grid), algorithm,
                    TrafficSpec.make("uniform", rate=rate), config, seed=1 + seed,
                )
                for algorithm in ALGORITHMS
                for rate in self.RATES
            ),
        )

    def _run(self):
        return CampaignRunner(cache=self.cache).run(self.campaign)

    def cold(self):
        self.report = self._run()
        return [self.report]

    def replay(self):
        report = self._run()
        return [report], (report,)

    def digest_payload(self, report=None):
        report = self.report if report is None else report
        return [result_record(r) for r in report.results]

    def verify(self):
        results = self.report.results
        latency = {
            (job.algorithm, dict(job.traffic.params)["rate"]): result.average_latency
            for job, result in zip(self.campaign.jobs, results)
        }
        checks = {
            "every job ok": all(r.ok for r in results),
            "no deadlock": not any(r.deadlocked for r in results),
            "every measured packet delivered (no faults)": all(
                r.delivered_ratio == 1.0 for r in results
            ),
        }
        if not self.smoke:
            # The paper's latency claim; the 2-chiplet smoke grid is too
            # small and too lightly loaded to show it.
            checks["DeFT has the lowest latency at every rate"] = all(
                latency[("deft", rate)] < min(latency[("mtr", rate)], latency[("rc", rate)])
                for rate in self.RATES
            )
        return checks


class McReach(Workload):
    """Per-job overhead: thousands of tiny analytic reachability jobs."""

    name = "mc-reach"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        from repro import montecarlo

        self.montecarlo = montecarlo
        self.system = SystemRef.from_grid(3, 2)
        self.samples = 20 if smoke else 600

    def _run(self):
        # Looked up at call time so a traced pass calls the wrapper.
        return self.montecarlo.run_montecarlo(
            self.system, ALGORITHMS, FAULT_COUNTS, self.samples,
            seed=self.seed, metric="reachability",
            runner=CampaignRunner(cache=self.cache),
        )

    def cold(self):
        self.report = self._run()
        return [self.report.campaign]

    def replay(self):
        report = self._run()
        return [report.campaign], (report,)

    def digest_payload(self, report=None):
        report = self.report if report is None else report
        return {
            "points": [
                [p.algorithm, p.k, p.primary.mean, p.primary.worst]
                for p in report.results
            ],
            "jobs": [result_record(r) for r in report.campaign.results],
        }

    def verify(self):
        from repro.analysis.reachability import reachability_curve
        from repro.routing.registry import make_algorithm

        built = self.system.build()
        exact = {
            name: reachability_curve(built, make_algorithm(name, built), FAULT_COUNTS)
            for name in ALGORITHMS
        }
        within, estimator, bounded = True, True, True
        log_term = math.log(2 / MC_FALSE_ALARM)
        for point in self.report.results:
            values = point.values
            n = len(values)
            mean = sum(values) / n
            var = sum((v - mean) ** 2 for v in values) / max(1, n - 1)
            curve = exact[point.algorithm]
            k_index = FAULT_COUNTS.index(point.k)
            # Empirical Bernstein bound (Maurer & Pontil 2009) for values
            # in [exact worst, 1]: valid at any n, even when every sample
            # happens to be equal.
            spread = 1.0 - curve.worst[k_index]
            tolerance = (
                math.sqrt(2 * var * log_term / n)
                + 7 * spread * log_term / (3 * max(1, n - 1))
                + 1e-12
            )
            within &= abs(mean - curve.average[k_index]) <= tolerance
            estimator &= abs(point.primary.mean - mean) <= 1e-12
            bounded &= min(values) >= curve.worst[k_index] - 1e-12
        deft = [p for p in self.report.results if p.algorithm == "deft"]
        return {
            "every job ok": all(r.ok for r in self.report.campaign.results),
            "DeFT reaches 100% of pairs in every sample (paper Fig. 7)": all(
                p.primary.mean == 1.0 and p.primary.worst == 1.0 for p in deft
            ),
            "sampled means agree with the exact curve": within,
            "point estimates equal the sample means": estimator,
            "no sample below the exact worst case": bounded,
        }


class SpoolDrain(Workload):
    """The mc-reach job type through the filesystem spool and 2 workers."""

    name = "spool-drain"
    WORKERS = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        from repro.distributed import SpoolBackend
        from repro.montecarlo.campaign import montecarlo_jobs

        self.spool_backend = SpoolBackend
        per_point = 5 if smoke else 75
        system = SystemRef.from_grid(3, 2)
        self.campaign = Campaign(
            name="spool-drain",
            jobs=tuple(
                job
                for algorithm in ALGORITHMS
                for k in FAULT_COUNTS
                for job in montecarlo_jobs(
                    system, algorithm, k, per_point, seed=seed, metric="reachability"
                )
            ),
        )
        self.runner = None

    def cold(self):
        backend = self.spool_backend(
            self.cache, spool_dir=self.workdir / "spool",
            workers=self.WORKERS, batch="auto",
        )
        self.runner = CampaignRunner(backend, self.cache)
        self.report = self.runner.run(self.campaign)
        return [self.report]

    def replay(self):
        # The fleet is stopped by now: a replay is served from the shared
        # cache alone, without touching the spool.
        report = CampaignRunner(cache=self.cache).run(self.campaign)
        return [report], (report,)

    def close(self):
        if self.runner is not None:
            self.runner.close()

    def digest_payload(self, report=None):
        report = self.report if report is None else report
        return [result_record(r) for r in report.results]

    def verify(self):
        serial = CampaignRunner().run(self.campaign)
        results = self.report.results
        return {
            "every job ok": all(r.ok for r in results),
            "DeFT reaches 100% of pairs in every sample": all(
                r.reachability == 1.0
                for job, r in zip(self.campaign.jobs, results)
                if job.algorithm == "deft"
            ),
            "spool results equal serial execution": serial.results == results,
        }

    def spool_metrics(self) -> dict[str, float]:
        """Worker phases and claim timing, rebuilt from the spool's events."""
        from repro.telemetry.manifest import read_all_events
        from repro.telemetry.trace import reconstruct

        records = list(read_all_events(self.workdir / "spool"))
        traces = reconstruct(records)
        totals = dict.fromkeys(("claim", "setup", "compile", "simulate", "publish"), 0.0)
        for trace in traces.finished:
            for phase, _start, duration in trace.spans():
                totals[phase] += duration
        metrics = {f"distributed.worker.{k}_s": v for k, v in totals.items()}
        claims = [r for r in records if r.get("event") == "job_claimed"]
        metrics["distributed.batches_claimed"] = len(
            {(r.get("source"), r.get("batch")) for r in claims}
        )
        metrics["first_claim_epoch"] = min((r["ts"] for r in claims), default=0.0)
        return metrics


WORKLOAD_CLASSES = {cls.name: cls for cls in (PaperFigs, GridLoad, McReach, SpoolDrain)}


# -- host speed --------------------------------------------------------------


#: A synthetic module: compiling and running it is the same kind of work
#: as importing and driving the program, with none of the program's code.
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(x):\n    y = {{'a': x, 'b': [x, x + {i}]}}\n    return len(str(y)) + {i}\n"
    for i in range(400)
)


def calibration_slice() -> float:
    """Seconds for one fixed slice of benchmark-owned work (~50 ms idle).

    Compiles and runs a synthetic module, round-trips JSON, hashes, and
    makes numpy calls on short arrays (the vector kernel's pattern). No
    ``repro`` code runs here, so a change to the program cannot move it;
    only the speed the host currently gives this process does.
    """
    import numpy as np

    start = time.perf_counter()
    namespace: dict = {}
    exec(compile(_CALIBRATION_SOURCE, "<calibration>", "exec"), namespace)
    for i in range(400):
        payload = json.dumps({"i": i, "v": namespace[f"f{i}"](i)})
        hashlib.sha256(json.loads(payload)["v"].to_bytes(8, "big")).hexdigest()
    values = np.arange(128)
    for _ in range(1000):
        values = np.roll(values, 1)
        np.flatnonzero(values % 3 == 0)
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [calibration_slice() for _ in range(CALIBRATION_SLICES)]


# -- one pass ---------------------------------------------------------------


def run_pass(workload: Workload) -> dict:
    """Cold pass, then warm replays; timings and digests of both."""
    region_start = time.perf_counter()
    replays: list[float] = []
    replayed = []
    try:
        reports = workload.cold()
        wall_s = time.perf_counter() - region_start
        workload.close()
        while not replays or (
            sum(replays) < REPLAY_TARGET_S and len(replays) < MAX_REPLAYS
        ):
            start = time.perf_counter()
            replayed.append(workload.replay())
            replays.append(time.perf_counter() - start)
    finally:
        workload.close()
    region_s = time.perf_counter() - region_start
    # Digests are computed outside the timed region.
    cold_digest = digest_of(workload.digest_payload())
    replay_ok = all(
        digest_of(workload.digest_payload(*payload_args)) == cold_digest
        and all(
            rep.executed == 0 and rep.cache_hits == rep.total - rep.deduplicated
            for rep in replay_reports
        )
        for replay_reports, payload_args in replayed
    )
    rss = peak_rss_mb()
    durations = [d for rep in reports for d in rep.job_durations()]
    attempted = sum(rep.total for rep in reports)
    failed = sum(1 for rep in reports for r in rep.results if not r.ok)
    tail, tail_pct = tail_percentile(durations) if durations else (0.0, 0.0)
    return {
        "wall_s": wall_s,
        "region_s": region_s,
        "replay_s": replays,
        "replays_from_cache": replay_ok,
        "job_p50_ms": statistics.median(durations) * 1e3 if durations else 0.0,
        "job_tail_ms": tail * 1e3,
        "job_tail_percentile": round(tail_pct, 2),
        "jobs": len(durations),
        "sim_cycles": sum(r.cycles for rep in reports for r in rep.results),
        "attempted": attempted * (1 + len(replays)),
        "failed": failed,
        "peak_rss_mb": rss,
        "result_digest": cold_digest,
    }


def traced_extras(workload: Workload, tracer) -> dict:
    """After-the-fact per-layer inputs: session, cache and spool state."""
    stats = workload.session_stats()
    hits = sum(v for (_, kind), v in stats.items() if kind == "hit")
    total = sum(stats.values())
    extra = {
        "session_hit_ratio": hits / total if total else 0.0,
        "cache_bytes": workload.cache.stats().total_bytes,
        "driver_cache_gets": tracing.driver_cache_gets(tracer),
    }
    if isinstance(workload, SpoolDrain):
        spool = workload.spool_metrics()
        first_claim = spool.pop("first_claim_epoch")
        enqueued = tracer.tally.get("enqueue_end_epoch")
        if first_claim and enqueued:
            extra["distributed.first_claim_s"] = first_claim - enqueued
        extra.update(spool)
    return extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="set up, report the set-up time, and exit")
    parser.add_argument("--trace-out", type=Path,
                        help="trace the pass and write Chrome trace JSON here")
    parser.add_argument("--verify", action="store_true",
                        help="run the correctness checks after the pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.smoke, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    out: dict = {"setup_s": setup_s}
    if args.probe:
        print(json.dumps(out))
        return 0

    calibration = calibrate()
    tracer = None
    if args.trace_out is not None:
        tracer = tracing.install()
    try:
        out.update(run_pass(workload))
    finally:
        if tracer is not None:
            tracer.restore()
    out["calibration_s"] = calibration + calibrate()
    if tracer is not None:
        tracer.write_chrome_trace(args.trace_out)
        out["layers"] = tracing.layer_metrics(
            tracer, out["region_s"], traced_extras(workload, tracer)
        )
    if args.verify:
        out["checks"] = workload.verify()
    if isinstance(workload, PaperFigs):
        out["shape_checks_failed"] = workload.shape_checks_failed()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
