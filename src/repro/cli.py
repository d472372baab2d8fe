"""``deft`` command-line interface.

Subcommands:

* ``deft info`` — describe the preset systems.
* ``deft simulate`` — one simulation run (system x algorithm x traffic).
* ``deft sweep`` — latency vs injection-rate sweep.
* ``deft campaign`` — a batched (algorithm x rate x seed) simulation grid
  through the campaign runner: multi-worker (``--workers``) and served
  incrementally from the content-addressed result cache (``--cache-dir``).
* ``deft reachability`` — exact Fig. 7-style reachability numbers.
* ``deft montecarlo`` — sampled fault-injection campaigns: reachability
  or latency/delivery statistics over seeded random k-fault scenarios,
  with confidence intervals — the statistical Fig. 7 for large k and
  large systems.
* ``deft worker`` — a long-lived spool worker: attach to a spool
  directory, drain its job stream through one warm session, hand
  results to the shared content-addressed cache (the building block of
  multi-machine campaigns; ``deft campaign --backend spool --workers N``
  autospawns local ones).
* ``deft status`` — fleet dashboard for a spool campaign: per-shard
  progress, worker liveness, stale leases, jobs/sec and job-latency
  percentiles, reconstructed from the spool's ``manifest/`` telemetry
  (``--watch`` live view, ``--json`` snapshot, ``--prom`` Prometheus
  text exposition).
* ``deft cache`` — inspect (``stats``, with ``--json``) and clean
  (``prune``) the content-addressed result cache.
* ``deft optimize`` — run the offline VL-selection optimization and print
  the per-router selection map (the Fig. 3 visualization).
* ``deft area`` — the Table I area/power model.
* ``deft experiment <id|all>`` — regenerate a paper artifact
  (``--workers N`` parallelizes the figure's simulation grid).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis.reachability import reachability_curve
from .config import SimulationConfig
from .distributed import SpoolBackend, parse_shard, run_worker, shard_campaign
from .core.tables import build_selection_tables
from .experiments import ablations, fig4, fig5, fig6, fig7, fig7mc, fig8, table1
from .experiments.common import ExperimentResult, format_report
from .fault.model import DirectedVL, FaultState, VLDirection
from .network.kernels import KERNEL_NAMES
from .network.simulator import Simulator
from .routing.registry import available_algorithms, make_algorithm
from .runner import (
    DEFAULT_CACHE_DIR,
    Campaign,
    CampaignRunner,
    ExecutionBackend,
    Job,
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
)
from .topology.builder import System
from .topology.presets import baseline_4_chiplets, baseline_6_chiplets, chiplet_grid
from .traffic.registry import RATE_PATTERNS, available_traffic, make_traffic

_EXPERIMENTS = {
    "fig4a": lambda scale, runner: [fig4.fig4a(scale, runner=runner)],
    "fig4b": lambda scale, runner: [fig4.fig4b(scale, runner=runner)],
    "fig4c": lambda scale, runner: [fig4.fig4c(scale, runner=runner)],
    "fig4d": lambda scale, runner: [fig4.fig4d(scale, runner=runner)],
    "fig4": fig4.run,
    "fig5": lambda scale, runner: [fig5.run(scale, runner=runner)],
    "fig6a": lambda scale, runner: [fig6.fig6a(scale, runner=runner)],
    "fig6b": lambda scale, runner: [fig6.fig6b(scale, runner=runner)],
    "fig6": fig6.run,
    "fig7a": lambda scale, runner: [fig7.fig7a()],
    "fig7b": lambda scale, runner: [fig7.fig7b()],
    "fig7": fig7.run,
    "fig7mc-a": lambda scale, runner: [fig7mc.fig7mc_validation(scale, runner)],
    "fig7mc-b": lambda scale, runner: [fig7mc.fig7mc_scale(scale, runner)],
    "fig7mc": fig7mc.run,
    "fig8a": lambda scale, runner: [fig8.fig8a(scale, runner=runner)],
    "fig8b": lambda scale, runner: [fig8.fig8b(scale, runner=runner)],
    "fig8": fig8.run,
    "table1": lambda scale, runner: [table1.run(scale)],
    "ablations": ablations.run,
}


def _system_from_args(args: argparse.Namespace) -> System:
    if args.system == "4":
        return baseline_4_chiplets()
    if args.system == "6":
        return baseline_6_chiplets()
    cols, rows = (int(p) for p in args.system.split("x"))
    return chiplet_grid(cols, rows)


def _add_system_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system",
        default="4",
        help="'4' (baseline), '6' (scaled), or COLSxROWS of 4x4 chiplets",
    )


def _parse_fault_spec(spec: str) -> tuple[int, str]:
    """Parse one ``VL[:down|up]`` flag into ``(vl_index, direction)``.

    The single home of the flag grammar, shared by ``simulate``,
    ``deadlock`` and ``campaign`` as an argparse ``type=`` converter.
    A bare ``VL`` defaults to ``down``; anything else must spell the
    direction exactly — ``3:upp`` used to silently inject a *down*
    fault, and a non-integer VL tracebacked instead of erroring.
    """
    vl_text, sep, direction_text = spec.partition(":")
    if not sep:
        direction = "down"
    else:
        direction = direction_text.strip().lower()
        if direction not in ("down", "up"):
            raise argparse.ArgumentTypeError(
                f"fault direction must be 'down' or 'up', got {direction_text!r} "
                f"in {spec!r}"
            )
    try:
        vl_index = int(vl_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fault VL index must be an integer, got {vl_text!r} in {spec!r}"
        ) from None
    if vl_index < 0:
        raise argparse.ArgumentTypeError(
            f"fault VL index must be >= 0, got {vl_index} in {spec!r}"
        )
    return vl_index, direction


def _nonnegative_days(text: str) -> float:
    """Argparse type for ``--older-than``: a finite, non-negative day count."""
    import math

    try:
        days = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"age must be a number of days, got {text!r}"
        ) from None
    # NaN slips through a bare `days < 0` check and would make the prune
    # cutoff comparison sweep every servable entry.
    if not math.isfinite(days) or days < 0:
        raise argparse.ArgumentTypeError(f"age must be a finite number >= 0, got {text}")
    return days


def _fault_state_from_args(system: System, args: argparse.Namespace) -> FaultState:
    faults = []
    for vl_index, direction in args.fault or []:
        vl_direction = VLDirection.UP if direction == "up" else VLDirection.DOWN
        faults.append(DirectedVL(vl_index, vl_direction))
    return FaultState(system, faults)


def _cmd_info(args: argparse.Namespace) -> int:
    for system in (baseline_4_chiplets(), baseline_6_chiplets()):
        print(system.spec.describe())
        for chiplet in range(system.spec.num_chiplets):
            links = system.vls_of_chiplet(chiplet)
            positions = ", ".join(f"({link.cx},{link.cy})" for link in links)
            print(f"  chiplet {chiplet}: VLs at {positions}")
    print(f"algorithms: {', '.join(available_algorithms())}")
    print(f"traffic patterns: {', '.join(available_traffic())}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    algorithm = make_algorithm(args.algo, system)
    algorithm.set_fault_state(_fault_state_from_args(system, args))
    traffic = make_traffic(args.traffic, system, seed=args.seed, rate=args.rate)
    config = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        drain_cycles=args.drain,
        seed=args.seed,
    )
    report = Simulator(system, algorithm, traffic, config, kernel=args.kernel).run()
    print(report.summary())
    if args.json:
        payload = {
            "algorithm": report.algorithm,
            "traffic": report.traffic,
            "rate": args.rate,
            "average_latency": report.stats.average_latency,
            "delivered_ratio": report.stats.delivered_ratio,
            "vc_utilization": report.stats.vc_utilization_report(),
        }
        print(json.dumps(payload, indent=2))
    return 0


def _without_nan(value):
    """Replace non-finite floats with None for strict-JSON artifacts."""
    import math

    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _without_nan(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_without_nan(item) for item in value]
    return value


def _args_error(args: argparse.Namespace, message: str) -> None:
    """Raise the subcommand's argparse usage error (exit code 2)."""
    parser = getattr(args, "_parser", None)
    if parser is not None:
        parser.error(message)
    raise SystemExit(2)


def _runner_from_args(args: argparse.Namespace) -> CampaignRunner:
    """Build the campaign runner the CLI flags describe.

    ``--backend`` picks the execution backend explicitly (``serial``,
    ``process``, ``spool``); the default ``auto`` keeps the historic
    behaviour — ``--workers N`` (N > 1) selects the process pool. A
    cache is attached when ``--cache-dir`` is given (or defaulted) and
    not disabled by ``--no-cache``; ``--compress-cache`` gzips new
    entries; ``--no-session`` turns off the per-worker reuse of built
    systems/algorithms/route tables (rebuild per job).

    The spool backend hands results back *through* the cache, so
    ``--backend spool`` with the cache disabled has nowhere for results
    to land and is rejected up front rather than silently recomputing.
    """
    # 0 is meaningful for the spool backend (external-worker mode: only
    # enqueue and collect); the in-process backends clamp to >= 1.
    workers = getattr(args, "workers", 1)
    workers = 1 if workers is None else workers
    timeout = getattr(args, "timeout", None)
    use_session = not getattr(args, "no_session", False)
    backend_name = getattr(args, "backend", "auto")
    cache = None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir and not getattr(args, "no_cache", False):
        cache = ResultCache(cache_dir, compress=getattr(args, "compress_cache", False))
    if backend_name == "auto":
        backend_name = "process" if workers > 1 else "serial"
    if backend_name == "spool":
        if cache is None:
            _args_error(
                args,
                "--backend spool hands results back through the "
                "content-addressed cache: drop --no-cache (and give it a "
                "--cache-dir) so they have somewhere to land",
            )
        stall = getattr(args, "stall_timeout", 300.0)
        backend: ExecutionBackend = SpoolBackend(
            cache=cache,
            spool_dir=getattr(args, "spool_dir", None),
            workers=workers,
            lease_s=getattr(args, "lease", None) or 30.0,
            stall_timeout_s=None if not stall else stall,
            use_session=use_session,
            batch=getattr(args, "batch", "auto"),
        )
    elif backend_name == "process":
        backend = ProcessPoolBackend(
            workers=workers, timeout=timeout, use_session=use_session
        )
    else:
        backend = SerialBackend(use_session=use_session)
    return CampaignRunner(backend=backend, cache=cache)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.common import run_sweep, series_rows

    rates = tuple(float(r) for r in args.rates.split(","))
    config = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        drain_cycles=args.drain,
    )
    runner = _runner_from_args(args)
    try:
        series = run_sweep(
            SystemRef.from_cli(args.system),
            tuple(args.algo),
            args.traffic,
            rates,
            config,
            seeds=tuple(range(1, args.repeats + 1)),
            runner=runner,
            kernel=args.kernel,
        )
    finally:
        runner.close()
    for row in series_rows(series):
        print(row)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.common import series_from_results, series_rows, sweep_jobs

    system = SystemRef.from_cli(args.system)
    rates = tuple(float(r) for r in args.rates.split(","))
    seeds = tuple(range(1, args.seeds + 1))
    config = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        drain_cycles=args.drain,
    )
    faults = tuple(args.fault or [])
    jobs = sweep_jobs(
        system, tuple(args.algo), args.traffic, rates, config, seeds,
        faults=faults, kernel=args.kernel,
    )
    campaign = Campaign(name=f"{args.traffic}-on-{system.label}", jobs=tuple(jobs))
    sharded = args.shard is not None
    if sharded:
        index, num_shards = args.shard
        campaign = shard_campaign(campaign, num_shards, index)
        print(
            f"shard {index + 1}/{num_shards}: {len(campaign.jobs)} of "
            f"{len(jobs)} jobs in this key range",
            file=sys.stderr,
        )
    runner = _runner_from_args(args)

    def progress(done: int, total: int, job: Job, result) -> None:
        if args.quiet:
            return
        status = "cached" if result.cached else (
            "ok" if result.ok else "FAILED"
        )
        print(
            f"  [{done}/{total}] {job.label}: {status}"
            + (f" latency={result.average_latency:.2f}" if result.ok else ""),
            file=sys.stderr,
        )

    try:
        report = runner.run(campaign, progress=progress)
    finally:
        runner.close()

    if sharded:
        # A shard holds an arbitrary slice of the grid; the aggregate
        # series table only makes sense over the full campaign (run it
        # unsharded afterwards — every shard's points come from cache).
        print(report.summary())
    else:
        # Aggregate into the familiar per-algorithm latency table.
        series = series_from_results(
            report.results, tuple(args.algo), rates, seeds, skip_failed=True
        )
        for row in series_rows(series):
            print(row)
        print(report.summary())
    if args.json:
        payload = {
            "campaign": campaign.name,
            "system": system.to_dict(),
            "jobs": [job.canonical() for job in campaign.jobs],
            "results": [result.to_dict() for result in report.results],
            "cache_hits": report.cache_hits,
            "executed": report.executed,
        }
        with open(args.json, "w") as handle:
            # NaN metrics (failed or packet-less jobs) become null so the
            # artifact stays strict JSON for non-Python consumers.
            json.dump(_without_nan(payload), handle, indent=2, allow_nan=False)
        print(f"wrote {args.json}")
    for failed in report.errors:
        print(f"FAILED {failed.job_key[:12]}: {failed.error}", file=sys.stderr)
    return 1 if report.errors else 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from .montecarlo import run_montecarlo
    from .runner import TrafficSpec

    fault_counts = tuple(int(k) for k in args.k.split(","))
    config = SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        drain_cycles=args.drain,
    )
    traffic = TrafficSpec.make(args.traffic, rate=args.rate)

    def progress(done: int, total: int, job, result) -> None:
        if args.quiet or done % 50 and done != total:
            return
        print(f"  [{done}/{total}] sampled", file=sys.stderr)

    rendezvous_dir = args.rendezvous_dir
    if args.shard is not None and rendezvous_dir is None:
        rendezvous_dir = str(Path(args.cache_dir) / "rendezvous")

    runner = _runner_from_args(args)
    try:
        report = run_montecarlo(
            SystemRef.from_cli(args.system),
            tuple(args.algo),
            fault_counts,
            args.samples,
            seed=args.seed,
            metric=args.metric,
            traffic=traffic,
            config=config,
            runner=runner,
            confidence=args.confidence,
            progress=progress,
            target_ci_width=args.target_ci,
            max_samples=args.max_samples,
            kernel=args.kernel,
            shard=args.shard,
            rendezvous_dir=rendezvous_dir,
            round_timeout=args.round_timeout,
        )
    except ValueError as error:
        # Invalid sampling parameters (--target-ci 0, a cap below
        # --samples, --max-samples without --target-ci): a clean
        # message, not a traceback.
        print(f"deft montecarlo: {error}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    unit = "reachable core-pair fraction" if args.metric == "reachability" \
        else "average packet latency (cycles)"
    sampling = (
        f"{args.samples} samples/point"
        if args.target_ci is None
        else f"adaptive sampling (start {args.samples}, Wilson CI <= {args.target_ci})"
    )
    if args.shard is not None:
        sampling += f", shard {args.shard[0] + 1}/{args.shard[1]}"
    print(
        f"Monte Carlo {args.metric} on {SystemRef.from_cli(args.system).label}: "
        f"{sampling}, seed {args.seed}, "
        f"{int(args.confidence * 100)}% CI ({unit})"
    )
    for point in report.results:
        print(point.row())
        if point.delivered_pool is not None:
            pool = point.delivered_pool
            print(
                f"       pooled delivery {pool.center:.4f} "
                f"[{pool.low:.4f}, {pool.high:.4f}] (Wilson)"
            )
    print(report.campaign.summary())
    if args.json:
        payload = {
            "metric": args.metric,
            "system": SystemRef.from_cli(args.system).to_dict(),
            "samples": args.samples,
            "seed": args.seed,
            "confidence": args.confidence,
            "points": [
                {
                    "algorithm": p.algorithm,
                    "k": p.k,
                    "requested": p.requested,
                    "completed": p.completed,
                    "failed": p.failed,
                    "dropped": p.dropped,
                    "mean": p.primary.mean if p.primary else None,
                    "std": p.primary.std if p.primary else None,
                    "worst": p.primary.worst if p.primary else None,
                    "ci": [p.primary.interval.low, p.primary.interval.high]
                    if p.primary else None,
                }
                for p in report.results
            ],
            "cache_hits": report.campaign.cache_hits,
            "executed": report.campaign.executed,
        }
        with open(args.json, "w") as handle:
            json.dump(_without_nan(payload), handle, indent=2, allow_nan=False)
        print(f"wrote {args.json}")
    for failed in report.campaign.errors:
        print(f"FAILED {failed.job_key[:12]}: {failed.error}", file=sys.stderr)
    return 1 if report.campaign.errors else 0


def _parse_shard_arg(text: str) -> tuple[int, int]:
    """Argparse type for ``--shard I/N`` (1-based position)."""
    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_batch_arg(text: str):
    """Argparse type for ``--batch``: a positive int or 'auto'."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a batch size or 'auto', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"batch size must be >= 1, got {value}")
    return value


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one long-lived spool worker until STOP/idle-timeout/max-jobs."""
    cache = ResultCache(args.cache_dir, compress=args.compress_cache)
    server = None
    if args.metrics_port is not None:
        from .telemetry.httpd import serve_metrics

        server = serve_metrics(args.metrics_port)
        print(
            f"metrics: http://127.0.0.1:{server.server_port}/metrics",
            file=sys.stderr,
        )
    try:
        stats = run_worker(
            args.spool_dir,
            cache,
            worker_id=args.worker_id,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            poll_s=args.poll,
            idle_timeout_s=args.idle_timeout,
            max_jobs=args.max_jobs,
            use_session=not args.no_session,
            heartbeat_s=args.heartbeat,
            kernel=args.kernel,
        )
    finally:
        if server is not None:
            server.shutdown()
    print(
        f"worker {stats['worker']}: {stats['jobs_done']} job(s) executed, "
        f"{stats['jobs_failed']} failed, {stats['requeues_swept']} expired "
        f"lease(s) requeued"
    )
    if args.json:
        print(json.dumps(stats, indent=2))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Fleet dashboard: aggregate a spool's manifest/worker/cache state."""
    import time as time_module
    from pathlib import Path

    from .telemetry.status import (
        fleet_status,
        health_problems,
        render_prom,
        render_status,
    )

    if not Path(args.spool_dir).is_dir():
        _args_error(args, f"spool directory not found: {args.spool_dir}")

    def emit_once() -> dict:
        status = fleet_status(
            args.spool_dir,
            cache_dir=args.cache_dir,
            window_s=args.window,
            stale_worker_s=args.stale_after,
        )
        if args.json:
            print(json.dumps(_without_nan(status), indent=2, allow_nan=False))
        elif args.prom:
            print(render_prom(status), end="")
        else:
            print(render_status(status))
        return status

    if args.check and args.watch:
        _args_error(args, "--check is a one-shot probe; drop --watch")
    if not args.watch:
        status = emit_once()
        if args.check:
            problems = health_problems(status)
            for problem in problems:
                print(f"unhealthy: {problem}", file=sys.stderr)
            return 1 if problems else 0
        return 0
    try:
        while True:
            # ANSI clear + home: a live dashboard, not a scrolling log.
            print("\x1b[2J\x1b[H", end="")
            emit_once()
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived campaign service over a spool directory."""
    from .serve import serve_campaigns

    server = serve_campaigns(
        args.spool_dir,
        args.cache_dir,
        host=args.host,
        port=args.port,
        background=False,
        lease_s=args.lease,
        batch=args.batch,
        poll_s=args.poll,
        window_s=args.window,
        stale_worker_s=args.stale_after,
        janitor=not args.no_janitor,
    )
    print(
        f"deft serve: {server.url} over spool {args.spool_dir} "
        f"(POST /campaigns, GET /campaigns, /metrics, /events)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Reconstruct per-job span timelines from a spool's event streams."""
    from pathlib import Path

    from .telemetry.trace import (
        chrome_trace,
        job_traces,
        render_trace_summary,
        write_chrome_trace,
    )

    if not Path(args.spool_dir).is_dir():
        _args_error(args, f"spool directory not found: {args.spool_dir}")
    try:
        traces = job_traces(args.spool_dir, campaign=args.campaign)
    except ValueError as exc:
        _args_error(args, str(exc))
    if args.json:
        print(json.dumps(chrome_trace(traces), sort_keys=True))
    else:
        print(render_trace_summary(traces))
    if args.output is not None:
        path = write_chrome_trace(traces, args.output)
        print(
            f"wrote Chrome trace JSON to {path} "
            "(load in chrome://tracing or https://ui.perfetto.dev)",
            file=sys.stderr,
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        if args.json:
            payload = {"root": str(cache.root), **cache.stats().to_dict()}
            print(json.dumps(payload, indent=2))
        else:
            print(f"cache {cache.root}: {cache.stats().summary()}")
        return 0
    removed = cache.prune(remove_all=args.all, older_than_days=args.older_than)
    what = "everything" if args.all else "stale/corrupt entries and tmp files"
    if args.older_than is not None and not args.all:
        what += f" + results older than {args.older_than:g} day(s)"
    print(f"cache {cache.root}: pruned {what} — removed {removed.summary()}")
    print(f"now: {cache.stats().summary()}")
    return 0


def _cmd_reachability(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    algorithm = make_algorithm(args.algo, system)
    print(f"{args.algo} on {system.spec.name}:")
    curve = reachability_curve(system, algorithm, tuple(range(1, args.max_faults + 1)))
    for k, avg, wrst in zip(curve.fault_counts, curve.average, curve.worst):
        print(f"  {k} faulty VLs: average {avg * 100:6.2f}%  worst {wrst * 100:6.2f}%")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    system = _system_from_args(args)
    tables = build_selection_tables(system, rho=args.rho)
    chiplet = args.chiplet
    table = tables[chiplet]
    spec = system.spec.chiplets[chiplet]
    scenario = frozenset(args.faulty or [])
    selection = table.lookup(scenario)
    links = system.vls_of_chiplet(chiplet)
    print(
        f"chiplet {chiplet}, faulty down VLs {sorted(scenario) or 'none'} "
        f"(cost {table.costs[scenario]:.4f}):"
    )
    # Fig. 3-style map: each tile shows the local index of its selected VL.
    for y in range(spec.height):
        row = []
        for x in range(spec.width):
            index = y * spec.width + x
            marker = "*" if any(l.cx == x and l.cy == y for l in links) else " "
            row.append(f"{selection[index]}{marker}")
        print("   " + "  ".join(row))
    print("(* marks a VL tile; digits are the selected VL's local index)")
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    result = table1.run()
    print(format_report(result))
    return 0


def _cmd_deadlock(args: argparse.Namespace) -> int:
    """Channel-dependency-graph deadlock check for an algorithm."""
    from .analysis.cdg import build_cdg
    from .routing.naive import NaiveRouting

    system = _system_from_args(args)
    if args.algo == "naive":
        algorithm = NaiveRouting(system)
    else:
        algorithm = make_algorithm(args.algo, system)
    algorithm.set_fault_state(_fault_state_from_args(system, args))
    report = build_cdg(system, algorithm)
    print(
        f"{algorithm.name} on {system.spec.name}: "
        f"{report.graph.number_of_nodes()} channels, "
        f"{report.graph.number_of_edges()} dependencies, "
        f"{report.pairs_walked} pairs walked"
        + (f", {report.unroutable_pairs} unroutable" if report.unroutable_pairs else "")
    )
    if report.is_acyclic:
        print("RESULT: acyclic — deadlock-free by Dally & Seitz")
        return 0
    cycle = report.cycle()
    print(f"RESULT: CYCLIC — {len(cycle)}-channel dependency cycle found:")
    for channel in cycle[:10]:
        print(f"  {channel}")
    if len(cycle) > 10:
        print(f"  ... and {len(cycle) - 10} more")
    return 2


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .experiments.report import load_recorded, render_summary

    artifacts = load_recorded(pathlib.Path(args.results))
    print(render_summary(artifacts))
    return 0 if all(a.ok for a in artifacts) else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = list(_EXPERIMENTS) if args.name == "all" else [args.name]
    campaign_runner = _runner_from_args(args)
    failed: list[str] = []
    try:
        for name in names:
            experiment = _EXPERIMENTS[name]
            results: list[ExperimentResult] = experiment(args.scale, campaign_runner)
            for result in results:
                print(format_report(result))
                print()
                failed.extend(result.failed_checks())
    finally:
        campaign_runner.close()
    if failed:
        print(f"{len(failed)} shape check(s) failed:", file=sys.stderr)
        for description in failed:
            print(f"  - {description}", file=sys.stderr)
        return 1
    return 0


def _add_kernel_arg(p: argparse.ArgumentParser) -> None:
    """``--kernel`` flag shared by every command that runs the simulator."""
    p.add_argument("--kernel", choices=KERNEL_NAMES, default="auto",
                   help="cycle kernel: 'reference' (object-based ground "
                        "truth), 'vector' (numpy struct-of-arrays, "
                        "bit-identical), or 'auto' (vector when numpy and "
                        "compiled routes are available; honours the "
                        "DEFT_KERNEL environment variable)")


def _add_distributed_args(p: argparse.ArgumentParser) -> None:
    """Backend-selection flags shared by ``campaign`` and ``montecarlo``."""
    p.add_argument("--backend", choices=["auto", "serial", "process", "spool"],
                   default="auto",
                   help="execution backend; 'auto' picks the process pool "
                        "when --workers > 1, 'spool' runs the campaign "
                        "through a filesystem job spool with --workers "
                        "autospawned 'deft worker' processes")
    p.add_argument("--spool-dir", default=None, metavar="DIR",
                   help="spool directory for --backend spool; share it "
                        "(plus --cache-dir) across machines for "
                        "multi-machine campaigns (default: private temp "
                        "spool)")
    p.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                   help="spool claim lease: a worker silent this long is "
                        "considered dead and its job is requeued")
    p.add_argument("--stall-timeout", type=float, default=300.0,
                   metavar="SECONDS",
                   help="fail remaining spool jobs after this long with "
                        "no result and nothing in flight; 0 waits forever "
                        "(a held lease never counts as a stall)")
    p.add_argument("--batch", type=_parse_batch_arg, default="auto",
                   metavar="N",
                   help="jobs per spool lease (1-32), or 'auto': the "
                        "campaign spread over at least 4 leases per known "
                        "worker (autospawned, or live on the spool), capped "
                        "at ~2s of work per lease once the spool has "
                        "job-duration history, 1 with neither; batching "
                        "amortizes per-job claim/lease/heartbeat "
                        "round-trips, and a crash requeues only a lease's "
                        "unsettled remainder")
    p.add_argument("--compress-cache", action="store_true",
                   help="gzip new cache entries (reads accept both forms)")
    p.set_defaults(_parser=p)


def build_parser() -> argparse.ArgumentParser:
    """Construct the `deft` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="deft",
        description="DeFT 2.5D chiplet-network reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe preset systems and registries")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("simulate", help="run one simulation")
    _add_system_arg(p)
    p.add_argument("--algo", default="deft", choices=available_algorithms())
    p.add_argument("--traffic", default="uniform", choices=RATE_PATTERNS)
    p.add_argument("--rate", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=int, default=600)
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--drain", type=int, default=20000)
    p.add_argument(
        "--fault",
        action="append",
        type=_parse_fault_spec,
        metavar="VL[:down|up]",
        help="inject a directed VL fault (repeatable), e.g. --fault 3:down",
    )
    p.add_argument("--json", action="store_true", help="also print JSON payload")
    _add_kernel_arg(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="latency vs injection-rate sweep")
    _add_system_arg(p)
    p.add_argument("--algo", nargs="+", default=["deft", "mtr", "rc"])
    p.add_argument("--traffic", default="uniform", choices=RATE_PATTERNS)
    p.add_argument("--rates", default="0.002,0.004,0.006,0.008,0.010")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--warmup", type=int, default=600)
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--drain", type=int, default=20000)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers (1 = in-process serial)")
    p.add_argument("--no-session", action="store_true",
                   help="rebuild systems/algorithms per job instead of reusing "
                        "each worker's warm session")
    _add_kernel_arg(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="batched simulation grid through the cached campaign runner",
    )
    _add_system_arg(p)
    p.add_argument("--algo", nargs="+", default=["deft", "mtr", "rc"])
    p.add_argument("--traffic", default="uniform", choices=RATE_PATTERNS)
    p.add_argument("--rates", default="0.002,0.004,0.006,0.008,0.010")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds 1..N averaged per grid point")
    p.add_argument("--fault", action="append", type=_parse_fault_spec,
                   metavar="VL[:down|up]",
                   help="inject a directed VL fault into every job (repeatable)")
    p.add_argument("--warmup", type=int, default=600)
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--drain", type=int, default=20000)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers (1 = in-process serial)")
    p.add_argument("--no-session", action="store_true",
                   help="rebuild systems/algorithms per job instead of reusing "
                        "each worker's warm session")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds (parallel backend only)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help=f"content-addressed result cache (default {DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache entirely")
    p.add_argument("--shard", type=_parse_shard_arg, default=None, metavar="I/N",
                   help="run only the I-th of N deterministic job-key-range "
                        "slices (1-based); shards on different machines "
                        "merge through the shared cache")
    _add_distributed_args(p)
    _add_kernel_arg(p)
    p.add_argument("--quiet", action="store_true", help="suppress per-job progress")
    p.add_argument("--json", metavar="PATH",
                   help="also dump jobs + results as JSON")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("reachability", help="exact reachability under faults")
    _add_system_arg(p)
    p.add_argument("--algo", default="deft", choices=available_algorithms())
    p.add_argument("--max-faults", type=int, default=8)
    p.set_defaults(func=_cmd_reachability)

    p = sub.add_parser(
        "montecarlo",
        help="sampled fault-injection campaign (statistical Fig. 7 at scale)",
    )
    _add_system_arg(p)
    p.add_argument("--algo", nargs="+", default=["deft", "mtr", "rc"])
    p.add_argument("--k", default="2",
                   help="comma-separated fault counts to sample, e.g. 2 or 4,8,12")
    p.add_argument("--samples", type=int, default=200,
                   help="random fault scenarios per (algorithm, k) point "
                        "(the initial batch when --target-ci is set)")
    p.add_argument("--target-ci", type=float, default=None, metavar="WIDTH",
                   help="adaptive stopping: keep doubling each point's samples "
                        "until its Wilson CI is no wider than WIDTH")
    p.add_argument("--max-samples", type=int, default=None,
                   help="adaptive-stopping cap per point (default 16 x --samples)")
    p.add_argument("--shard", type=_parse_shard_arg, default=None, metavar="I/N",
                   help="run as the I-th of N cooperating drivers (1-based): "
                        "each executes its deterministic key-range slice of "
                        "every sampling round, then pools the round through "
                        "the shared --cache-dir and a filesystem rendezvous "
                        "so all drivers take bit-identical stopping "
                        "decisions; launch all N with identical parameters")
    p.add_argument("--rendezvous-dir", default=None, metavar="DIR",
                   help="shared directory for --shard round markers "
                        "(default: <cache-dir>/rendezvous)")
    p.add_argument("--round-timeout", type=float, default=600.0,
                   metavar="SECONDS",
                   help="how long a sharded driver waits for its peers' "
                        "round markers before giving up")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign master seed; sample i draws from RNG(seed, k, i)")
    p.add_argument("--metric", choices=["reachability", "latency"],
                   default="reachability",
                   help="analytic reachability per pattern, or simulated "
                        "latency/delivery under each pattern")
    p.add_argument("--confidence", type=float, default=0.95,
                   choices=[0.90, 0.95, 0.99],
                   help="confidence level for the reported intervals")
    p.add_argument("--traffic", default="uniform", choices=RATE_PATTERNS,
                   help="traffic pattern (latency metric only)")
    p.add_argument("--rate", type=float, default=0.005,
                   help="injection rate (latency metric only)")
    p.add_argument("--warmup", type=int, default=600)
    p.add_argument("--cycles", type=int, default=3000)
    p.add_argument("--drain", type=int, default=20000)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers (1 = in-process serial)")
    p.add_argument("--no-session", action="store_true",
                   help="rebuild systems/algorithms per job instead of reusing "
                        "each worker's warm session")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds (parallel backend only)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help=f"content-addressed result cache (default {DEFAULT_CACHE_DIR})")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache entirely")
    _add_distributed_args(p)
    _add_kernel_arg(p)
    p.add_argument("--quiet", action="store_true", help="suppress progress")
    p.add_argument("--json", metavar="PATH", help="also dump estimates as JSON")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser(
        "worker",
        help="long-lived spool worker: drain a job spool through one "
             "warm session (multi-machine campaign building block)",
    )
    p.add_argument("spool_dir", metavar="SPOOL_DIR",
                   help="the spool directory to attach to")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="where successful results land — must be the "
                        f"campaign's shared cache (default {DEFAULT_CACHE_DIR})")
    p.add_argument("--compress-cache", action="store_true",
                   help="gzip results written to the cache")
    p.add_argument("--worker-id", default=None,
                   help="lease/stats identity (default: hostname-pid)")
    p.add_argument("--lease", type=float, default=None, metavar="SECONDS",
                   help="claim lease duration (default 30)")
    p.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                   help="lease renewal interval; each renewal emits a "
                        "lease_renewed event (default: lease / 4)")
    p.add_argument("--max-attempts", type=int, default=None,
                   help="executions per job before a terminal failure "
                        "(default 3)")
    p.add_argument("--poll", type=float, default=0.1, metavar="SECONDS",
                   help="idle polling interval")
    p.add_argument("--idle-timeout", type=float, default=None, metavar="SECONDS",
                   help="exit after this long with nothing claimable "
                        "(default: wait for the spool's STOP sentinel)")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after executing this many jobs")
    p.add_argument("--no-session", action="store_true",
                   help="rebuild systems/algorithms per job instead of "
                        "keeping this worker's session warm")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve this process's metrics registry as "
                        "Prometheus text at http://127.0.0.1:PORT/metrics "
                        "(0 = ephemeral port, printed on stderr)")
    p.add_argument("--kernel", choices=KERNEL_NAMES, default="auto",
                   help="node-local cycle-kernel default, applied to claimed "
                        "jobs that did not request one explicitly")
    p.add_argument("--json", action="store_true",
                   help="also print the final worker stats as JSON")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "status",
        help="fleet dashboard for a spool campaign: per-shard progress, "
             "worker liveness, job latency, stale leases",
    )
    p.add_argument("spool_dir", metavar="SPOOL_DIR",
                   help="the spool directory to inspect (read-only)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="the campaign's shared result cache, for completion "
                        f"accounting (default {DEFAULT_CACHE_DIR})")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="print the full status snapshot as JSON")
    output.add_argument("--prom", action="store_true",
                        help="print Prometheus text exposition instead of "
                             "the human dashboard")
    p.add_argument("--watch", action="store_true",
                   help="refresh the dashboard until interrupted")
    p.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="refresh interval for --watch (default 2)")
    p.add_argument("--window", type=float, default=60.0, metavar="SECONDS",
                   help="trailing window for the jobs/sec estimate")
    p.add_argument("--stale-after", type=float, default=60.0,
                   metavar="SECONDS",
                   help="a worker silent this long counts as dead")
    p.add_argument("--check", action="store_true",
                   help="health probe: exit non-zero (with reasons on "
                        "stderr) on stale leases, terminal failures, or a "
                        "dead fleet with work outstanding")
    p.set_defaults(func=_cmd_status, _parser=p)

    p = sub.add_parser(
        "serve",
        help="long-running campaign service over a spool: submit and "
             "watch campaigns via HTTP+JSON, SSE event streaming, "
             "Prometheus metrics, Chrome traces",
    )
    p.add_argument("spool_dir", metavar="SPOOL_DIR",
                   help="the spool directory to serve (created if missing)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="the fleet's shared result cache, for completion "
                        f"accounting (default {DEFAULT_CACHE_DIR})")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default loopback; exposing wider is "
                        "a deliberate operator decision)")
    p.add_argument("--port", type=int, default=8321,
                   help="bind port (default 8321; 0 = ephemeral, printed "
                        "on stderr)")
    p.add_argument("--lease", type=float, default=None, metavar="SECONDS",
                   help="claim lease duration for enqueued jobs (default 30)")
    p.add_argument("--batch", default="auto", metavar="N|auto",
                   help="jobs per spool lease for submitted campaigns "
                        "(default: auto-size from the campaign, the live "
                        "workers on the spool and job-duration history)")
    p.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                   help="SSE tail polling interval")
    p.add_argument("--window", type=float, default=60.0, metavar="SECONDS",
                   help="trailing window for the jobs/sec estimate")
    p.add_argument("--stale-after", type=float, default=60.0,
                   metavar="SECONDS",
                   help="a worker silent this long counts as dead")
    p.add_argument("--no-janitor", action="store_true",
                   help="don't sweep expired leases from the service "
                        "(rely on idle workers to reap them)")
    p.set_defaults(func=_cmd_serve, _parser=p)

    p = sub.add_parser(
        "trace",
        help="per-job span timelines from a spool's event streams: "
             "terminal p50/p95 phase summary + critical path, Chrome "
             "trace_event JSON export",
    )
    p.add_argument("spool_dir", metavar="SPOOL_DIR",
                   help="the spool directory to reconstruct (read-only)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="restrict to one campaign (name, id, or shard "
                        "base name; default: every job in the spool)")
    p.add_argument("-o", "--output", default=None, metavar="TRACE.JSON",
                   help="write Chrome/Catapult trace_event JSON here "
                        "(chrome://tracing, Perfetto)")
    p.add_argument("--json", action="store_true",
                   help="print the trace JSON to stdout instead of the "
                        "terminal summary")
    p.set_defaults(func=_cmd_trace, _parser=p)

    p = sub.add_parser("cache", help="inspect or clean the result cache")
    p.add_argument("action", choices=["stats", "prune"])
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help=f"cache directory (default {DEFAULT_CACHE_DIR})")
    p.add_argument("--all", action="store_true",
                   help="prune: remove every entry, not just stale/orphaned ones")
    p.add_argument("--older-than", type=_nonnegative_days, default=None,
                   metavar="DAYS",
                   help="prune: also remove servable results last written "
                        "more than DAYS days ago")
    p.add_argument("--json", action="store_true",
                   help="stats: print the machine-readable census as JSON")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("optimize", help="offline VL-selection optimization map")
    _add_system_arg(p)
    p.add_argument("--chiplet", type=int, default=0)
    p.add_argument("--faulty", type=int, nargs="*", help="faulty local VL indices")
    p.add_argument("--rho", type=float, default=0.01)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("area", help="Table I area/power model")
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("deadlock", help="CDG deadlock-freedom check")
    _add_system_arg(p)
    p.add_argument(
        "--algo",
        default="deft",
        choices=tuple(available_algorithms()) + ("naive",),
        help="'naive' is the unprotected Fig. 1 configuration",
    )
    p.add_argument("--fault", action="append", type=_parse_fault_spec,
                   metavar="VL[:down|up]")
    p.set_defaults(func=_cmd_deadlock)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("name", choices=sorted(_EXPERIMENTS) + ["all"])
    p.add_argument("--scale", type=float, default=None,
                   help="cycle-scale multiplier (default 1.0 or $REPRO_EXPERIMENT_SCALE)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers for the figure's simulation grid")
    p.add_argument("--no-session", action="store_true",
                   help="rebuild systems/algorithms per job instead of reusing "
                        "each worker's warm session")
    p.add_argument("--cache-dir", default=None,
                   help="optional content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache even if --cache-dir is set")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="summarize recorded benchmark results")
    p.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory of recorded artifact JSONs",
    )
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
