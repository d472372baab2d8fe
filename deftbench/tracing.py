"""Span tracing of ``repro`` from the outside, for the per-layer metrics.

:func:`install` wraps public callables of the ``repro`` layers with
``perf_counter`` pairs and returns a :class:`Tracer`; :meth:`Tracer.restore`
puts every original back. Class methods are patched on their class;
functions are patched in the module their caller looks them up in (for
example ``repro.runner.backends.execute_job``, which is what the serial
backend calls). Nothing under ``src/`` is modified.

Each wrapped call becomes a span (layer, start, end, parent, job) kept in
memory. Per-cycle kernel steps and per-call ``Job.key`` lookups are too
frequent for one span each: they are *counters* that add their count and
time to the enclosing span instead. Counters must be leaves (no traced
call inside them), which holds for every counter in :data:`PATCHES`.

A layer's self time is the time its spans cover minus the time their
traced children cover, so the self times of all layers add up to the time
covered by top-level spans, and ``wall - sum(self)`` is what no layer
accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

perf_counter = time.perf_counter

SPAN = "span"
COUNTER = "counter"

#: Artifacts of the paper-figs workload: (module, function, span name).
ARTIFACTS = (
    ("repro.experiments.fig4", "fig4a", "fig4a"),
    ("repro.experiments.fig4", "fig4b", "fig4b"),
    ("repro.experiments.fig4", "fig4c", "fig4c"),
    ("repro.experiments.fig4", "fig4d", "fig4d"),
    ("repro.experiments.fig5", "run", "fig5"),
    ("repro.experiments.fig7", "fig7a", "fig7a"),
    ("repro.experiments.fig7", "fig7b", "fig7b"),
    ("repro.experiments.fig8", "fig8a", "fig8a"),
    ("repro.experiments.fig8", "fig8b", "fig8b"),
    ("repro.experiments.table1", "run", "table1"),
)

#: (module, attribute, layer, kind). ``Class.method`` attributes are
#: patched on the class, plain names in the module's namespace.
PATCHES = tuple(
    (module, function, f"experiments.{name}", SPAN)
    for module, function, name in ARTIFACTS
) + (
    ("repro.runner.runner", "CampaignRunner.run", "runner.campaign", SPAN),
    ("repro.runner.backends", "execute_job", "runner.execute", SPAN),
    ("repro.runner.spec", "Job.key", "runner.job_key", COUNTER),
    ("repro.runner.cache", "ResultCache.get", "runner.cache.get", SPAN),
    ("repro.runner.cache", "ResultCache.put", "runner.cache.put", SPAN),
    ("repro.montecarlo", "run_montecarlo", "montecarlo", SPAN),
    ("repro.network.simulator", "Simulator.__init__", "network.sim_init", SPAN),
    ("repro.network.simulator", "Simulator.run", "network.sim_run", SPAN),
    ("repro.network.kernels.reference", "ReferenceKernel.step",
     "network.kernel.step", COUNTER),
    ("repro.network.kernels.vector", "VectorKernel.step",
     "network.kernel.step", COUNTER),
    ("repro.network.kernels.reference", "ReferenceKernel.fast_forward",
     "network.kernel.fast_forward", COUNTER),
    ("repro.network.kernels.vector", "VectorKernel.fast_forward",
     "network.kernel.fast_forward", COUNTER),
    ("repro.core.tables", "build_selection_tables", "core.build_tables", SPAN),
    ("repro.runner.execute", "make_algorithm", "routing.make_algorithm", SPAN),
    ("repro.experiments.fig7", "make_algorithm", "routing.make_algorithm", SPAN),
    ("repro.routing.compiled", "compile_routes", "routing.compile", SPAN),
    ("repro.network.simulator", "compile_routes", "routing.compile", SPAN),
    ("repro.routing.compiled", "CompiledRoutes.dense_table",
     "routing.dense_table", SPAN),
    ("repro.routing.base", "RoutingAlgorithm.set_fault_state",
     "routing.fault_install", SPAN),
    ("repro.topology.builder", "System.__init__", "topology.build", SPAN),
    ("repro.runner.spec", "TrafficSpec.build", "traffic.build", SPAN),
    ("repro.runner.execute", "random_fault_state", "fault.sample", SPAN),
    ("repro.analysis.reachability", "reachability_of_state",
     "analysis.reachability", SPAN),
    ("repro.experiments.fig7", "reachability_curve", "analysis.curve", SPAN),
    ("repro.distributed.backend", "SpoolBackend.run", "distributed.driver", SPAN),
    ("repro.distributed.spool", "Spool.enqueue", "distributed.enqueue", SPAN),
    ("repro.distributed.backend", "auto_batch_size",
     "distributed.batch_size", SPAN),
    ("repro.distributed.spool", "Spool.requeue_expired",
     "distributed.requeue_sweep", COUNTER),
    ("repro.distributed.backend", "SpoolBackend.close", "distributed.close", SPAN),
)


class Tracer:
    """In-memory spans plus per-layer self time, call counts and tallies."""

    #: Spans kept for the Chrome trace; later ones still count in the metrics.
    MAX_SPANS = 500_000

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Quantities read off call results (cycles, hits, hops, ...).
        self.tally: dict[str, float] = {}
        #: (layer, start, end, parent index, job, counters) per span.
        self.spans: list = []
        self.dropped = 0
        self.job = None
        # Open spans: [child seconds, counters dict or None, span index].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.tally[name] = self.tally.get(name, 0) + value

    # -- wrappers ----------------------------------------------------------

    def counter(self, layer: str, fn):
        self_s, calls, stack = self.self_s, self.calls, self._stack
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration
                calls[layer] += 1
                if stack:
                    frame = stack[-1]
                    frame[0] += duration
                    counts = frame[1]
                    if counts is None:
                        counts = frame[1] = {}
                    counts[layer] = counts.get(layer, 0) + 1

        return functools.wraps(fn)(wrapper)

    def span(self, layer: str, fn, after=None, job_of=None):
        """Wrap ``fn``; ``after(tracer, args, result)`` reads its outcome,
        ``job_of(args)`` names the job the span (and its children) serve."""
        self_s, calls, stack, spans = self.self_s, self.calls, self._stack, self.spans
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer_job = self.job
            if job_of is not None:
                self.job = job_of(args)
            index = len(spans)
            if index < self.MAX_SPANS:
                spans.append(None)
            else:
                index = -1
            frame = [0.0, None, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if parent is not None:
                    parent[0] += duration
                if index >= 0:
                    spans[index] = (
                        layer, start, end,
                        parent[2] if parent is not None else -1,
                        self.job, frame[1],
                    )
                else:
                    self.dropped += 1
                self.job = outer_job
            if after is not None:
                after(self, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ----------------------------------------------------------

    def patch(self, module_name: str, attribute: str, wrapper_for) -> None:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        # Patch only where the callable is defined: a moved or inherited
        # attribute must fail loudly instead of tracing nothing.
        original = vars(owner)[name]
        setattr(owner, name, wrapper_for(original))
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome/Perfetto ``trace_event`` JSON of the recorded spans."""
        spans = [span for span in self.spans if span is not None]
        t0 = min((span[1] for span in spans), default=0.0)
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "benchmark driver"}},
        ]
        for layer, start, end, parent, job, counters in spans:
            args = {"parent": parent}
            if job is not None:
                args["job"] = job.key()[:16]
            if counters:
                args.update(counters)
            events.append({
                "name": layer, "cat": layer.split(".", 1)[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans": len(spans), "dropped_spans": self.dropped},
        }

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))


# -- result readers --------------------------------------------------------


def _after_cache_get(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.add("cache_hits", 1)


def _after_sim_run(tracer: Tracer, args, report) -> None:
    sim = args[0]
    tracer.add(f"{sim.kernel_name}_runs", 1)
    tracer.add("cycles", report.cycles)
    tracer.add("flit_hops", sim.stats.flit_hops)
    table_hops, live_hops = sim.kernel.dispatch_counts()
    tracer.add("table_hops", table_hops)
    tracer.add("live_hops", live_hops)


def _after_montecarlo(tracer: Tracer, args, report) -> None:
    tracer.add("mc_jobs_emitted", report.campaign.total)


def _after_enqueue(tracer: Tracer, args, result) -> None:
    # Epoch time: compared with the worker event streams' timestamps.
    tracer.tally["enqueue_end_epoch"] = time.time()


def _after_batch_size(tracer: Tracer, args, size) -> None:
    tracer.tally["batch_size"] = max(tracer.tally.get("batch_size", 0), size)


def _job_arg(position: int):
    return lambda args: args[position]


def _execute_job_with_phases(tracer: Tracer):
    """``execute_job`` that always asks for its public phase split."""

    def wrap(original):
        def execute_job(job, session=None, phases=None):
            split = {} if phases is None else phases
            result = original(job, session=session, phases=split)
            for phase in ("setup_s", "compile_s", "simulate_s"):
                tracer.add(f"phase.{phase}", split.get(phase, 0.0))
            return result

        return functools.wraps(original)(execute_job)

    return wrap


def install() -> Tracer:
    """Patch every callable in :data:`PATCHES`; returns the live tracer."""
    tracer = Tracer()
    hooks = {
        "runner.cache.get": dict(after=_after_cache_get, job_of=_job_arg(1)),
        "runner.cache.put": dict(job_of=_job_arg(1)),
        "network.sim_run": dict(after=_after_sim_run),
        "montecarlo": dict(after=_after_montecarlo),
        "distributed.enqueue": dict(after=_after_enqueue),
        "distributed.batch_size": dict(after=_after_batch_size),
    }
    try:
        for module, attribute, layer, kind in PATCHES:
            if kind == COUNTER:
                tracer.patch(module, attribute, functools.partial(tracer.counter, layer))
            elif layer == "runner.execute":
                with_phases = _execute_job_with_phases(tracer)
                tracer.patch(
                    module, attribute,
                    lambda fn: tracer.span(layer, with_phases(fn), job_of=_job_arg(0)),
                )
            else:
                options = hooks.get(layer, {})
                tracer.patch(
                    module, attribute,
                    functools.partial(tracer.span, layer, **options),
                )
    except BaseException:
        tracer.restore()
        raise
    return tracer


# -- per-layer metrics -----------------------------------------------------


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, extra: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass covering ``wall_s``.

    ``extra`` carries what the pass read after the fact: session and cache
    counters, cache size on disk, and the spool's reconstructed worker
    phases (``distributed.*`` keys).
    """
    s, n, t = tracer.self_s, tracer.calls, tracer.tally
    get = lambda table, key: table.get(key, 0)  # noqa: E731
    step_s = get(s, "network.kernel.step")
    steps = get(n, "network.kernel.step")
    metrics = {
        "network.kernel.step_s": step_s,
        "network.kernel.steps": steps,
        "network.kernel.us_per_step": _ratio(step_s, steps, 1e6),
        "network.kernel.ns_per_flit_hop": _ratio(step_s, get(t, "flit_hops"), 1e9),
        "network.kernel.fast_forward_s": get(s, "network.kernel.fast_forward"),
        "network.kernel.vector_runs": get(t, "vector_runs"),
        "network.kernel.reference_runs": get(t, "reference_runs"),
        "network.kernel.table_hops": get(t, "table_hops"),
        "network.kernel.live_hops": get(t, "live_hops"),
        "network.sim_init_s": get(s, "network.sim_init"),
        "network.sim_run_self_s": get(s, "network.sim_run"),
        "network.cycles": get(t, "cycles"),
        "network.flit_hops": get(t, "flit_hops"),
        "core.build_tables_s": get(s, "core.build_tables"),
        "core.build_tables_calls": get(n, "core.build_tables"),
        "routing.make_algorithm_s": get(s, "routing.make_algorithm"),
        "routing.compile_s": get(s, "routing.compile"),
        "routing.dense_table_s": get(s, "routing.dense_table"),
        "routing.fault_install_s": get(s, "routing.fault_install"),
        "routing.fault_installs": get(n, "routing.fault_install"),
        "topology.build_s": get(s, "topology.build"),
        "topology.builds": get(n, "topology.build"),
        "traffic.build_s": get(s, "traffic.build"),
        "fault.sample_s": get(s, "fault.sample"),
        "fault.samples": get(n, "fault.sample"),
        "analysis.reachability_s": get(s, "analysis.reachability"),
        "analysis.reachability_calls": get(n, "analysis.reachability"),
        "analysis.curve_s": get(s, "analysis.curve"),
        "runner.execute_self_s": get(s, "runner.execute"),
        "runner.campaign_self_s": get(s, "runner.campaign"),
        "runner.jobs_executed": get(n, "runner.execute"),
        "runner.job_key_s": get(s, "runner.job_key"),
        "runner.job_key_calls": get(n, "runner.job_key"),
        "runner.phase.setup_s": get(t, "phase.setup_s"),
        "runner.phase.compile_s": get(t, "phase.compile_s"),
        "runner.phase.simulate_s": get(t, "phase.simulate_s"),
        "runner.cache.get_s": get(s, "runner.cache.get"),
        "runner.cache.gets": get(n, "runner.cache.get"),
        "runner.cache.hits": get(t, "cache_hits"),
        "runner.cache.put_s": get(s, "runner.cache.put"),
        "runner.cache.puts": get(n, "runner.cache.put"),
        "runner.cache.bytes": extra.get("cache_bytes", 0),
        "runner.session.hit_ratio": extra.get("session_hit_ratio", 0.0),
        "montecarlo.self_s": get(s, "montecarlo"),
        "montecarlo.jobs_emitted": get(t, "mc_jobs_emitted"),
        "distributed.enqueue_s": get(s, "distributed.enqueue"),
        "distributed.batch_size": get(t, "batch_size"),
        "distributed.driver_wait_s": get(s, "distributed.driver"),
        "distributed.driver_cache_gets": extra.get("driver_cache_gets", 0),
        "distributed.requeue_sweeps": get(n, "distributed.requeue_sweep"),
        "distributed.first_claim_s": extra.get("distributed.first_claim_s", 0.0),
        "distributed.batches_claimed": extra.get("distributed.batches_claimed", 0),
        "distributed.close_s": get(s, "distributed.close"),
    }
    for phase in ("claim", "setup", "compile", "simulate", "publish"):
        metrics[f"distributed.worker.{phase}_s"] = extra.get(
            f"distributed.worker.{phase}_s", 0.0
        )
    artifact_layers = [f"experiments.{name}" for _, _, name in ARTIFACTS]
    for layer in artifact_layers:
        # Inclusive time per artifact: what regenerating that figure costs.
        metrics[f"{layer}_s"] = sum(
            span[2] - span[1]
            for span in tracer.spans
            if span is not None and span[0] == layer
        )
    metrics["experiments.self_s"] = sum(get(s, layer) for layer in artifact_layers)
    metrics["traced_wall_s"] = wall_s
    metrics["unattributed_s"] = wall_s - sum(s.values())
    return metrics


def driver_cache_gets(tracer: Tracer) -> int:
    """Cache lookups the spool driver made while waiting for results."""
    by_index = tracer.spans
    count = 0
    for span in by_index:
        if span is None or span[0] != "runner.cache.get" or span[3] < 0:
            continue
        parent = by_index[span[3]]
        if parent is not None and parent[0] == "distributed.driver":
            count += 1
    return count
