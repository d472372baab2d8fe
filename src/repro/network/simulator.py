"""The cycle-accurate simulation engine.

See :mod:`repro.network` for the microarchitecture modelled. Since the
engine/kernel split, this module owns *policy*: configuration, route
compilation, kernel selection, the warmup/measure/drain run loop,
reporting and telemetry. The per-cycle *mechanism* — what one simulated
cycle does to the network state — lives behind the
:class:`~repro.network.kernels.base.CycleKernel` interface:

* :mod:`repro.network.state` holds all mutable simulation state as
  struct-of-arrays (``buffers[rid][port][vc]``, credit matrices, staged
  arrivals, NIC queues);
* :mod:`repro.network.kernels.reference` advances it with the
  object-based phase pipeline (semantic ground truth);
* :mod:`repro.network.kernels.vector` advances the same semantics as
  numpy array sweeps over a dense route table
  (:meth:`~repro.routing.compiled.CompiledRoutes.dense_table`), falling
  back to live per-hop dispatch for stateful hops — for one simulation
  or for a lockstep batch of several (:meth:`Simulator.lockstep`).

One run loop serves both: a solo simulation is a batch of one. Both
kernels are bit-identical by contract (enforced by the differential
fuzz suite via :func:`repro.network.state.snapshot_digest`); selection
is a pure performance choice — ``Simulator(kernel="auto")`` picks the
fastest one available. The watchdog raises
:class:`~repro.errors.DeadlockError` when flits are in flight but
nothing has moved for ``watchdog_cycles`` — this is how the test-suite
demonstrates that the unprotected baseline network *does* deadlock
(Fig. 1's motivation) while DeFT/MTR/RC never do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from ..config import SimulationConfig
from ..errors import DeadlockError
from ..topology.builder import System
from ..routing.base import RoutingAlgorithm
from ..routing.compiled import CompiledRoutes, compile_routes
from .kernels import build_kernel, select_kernel
from .state import (
    RC_PORT as _RC_PORT,  # noqa: F401  (re-exported legacy name)
    RcBuffer as _RcBuffer,
    RouterView as _RouterState,
    partition_vcs as _partition_vcs,
    snapshot_digest,
)
from .stats import StatsCollector

if TYPE_CHECKING:  # pragma: no cover
    from ..traffic.base import TrafficGenerator
    from .kernels.base import CycleKernel
    from .nic import Nic

__all__ = [
    "Simulator",
    "SimulationReport",
    "_partition_vcs",
    "_RouterState",
    "_RcBuffer",
]


@dataclass
class SimulationReport:
    """Result bundle of one simulation run."""

    algorithm: str
    traffic: str
    stats: StatsCollector
    config: SimulationConfig
    cycles: int
    deadlocked: bool = False
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def average_latency(self) -> float:
        return self.stats.average_latency

    @property
    def delivered_ratio(self) -> float:
        return self.stats.delivered_ratio

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        s = self.stats
        lines = [
            f"algorithm={self.algorithm} traffic={self.traffic} cycles={self.cycles}",
            f"  packets: created={s.packets_created} delivered={s.packets_delivered} "
            f"dropped={s.packets_dropped_unroutable}",
            f"  measured: {s.packets_delivered_measured}/{s.packets_measured} delivered, "
            f"avg latency={s.average_latency:.2f} cycles "
            f"(min={s.latency.minimum}, p50={s.latency.p50:.0f}, "
            f"p95={s.latency.p95:.0f}, p99={s.latency.p99:.0f}, "
            f"max={s.latency.maximum})",
            f"  avg hops={s.hops.average:.2f} flit-hops={s.flit_hops}",
        ]
        kernel = self.metadata.get("kernel")
        if kernel:
            line = f"  kernel={kernel}"
            rate = self.metadata.get("cycles_per_sec")
            if rate:
                line += f" cycles/sec={rate:,.0f}"
            fallback = self.metadata.get("kernel_fallback")
            if fallback:
                line += f" (fallback: {fallback})"
            lines.append(line)
        for region, shares in s.vc_utilization_report().items():
            formatted = "/".join(f"{share * 100:.1f}%" for share in shares)
            lines.append(f"  vc-util {region}: {formatted}")
        return "\n".join(lines)


class Simulator:
    """Drives one network, one routing algorithm and one traffic source.

    Args:
        system: the built 2.5D system.
        algorithm: the routing algorithm (its current fault state is used).
        traffic: the traffic generator.
        config: simulation parameters.
        routes: route-decision source. The default ``"auto"`` compiles the
            algorithm into a :class:`~repro.routing.compiled.CompiledRoutes`
            table when it declares itself compilable (bit-identical to live
            dispatch — the table is filled through ``algorithm.route``);
            pass an existing table to reuse one across runs (session
            workers) — including a table compiled for the algorithm this
            one is a :meth:`~repro.routing.base.RoutingAlgorithm.runtime_copy`
            of — or ``None`` to force per-hop live dispatch.
        kernel: ``"auto"`` (default), ``"reference"`` or ``"vector"`` —
            see :mod:`repro.network.kernels`. Selection never changes
            results, only speed; when a ``vector`` request cannot be
            honoured the reason lands in :attr:`kernel_fallback_reason`
            and in the report's ``kernel_fallback`` metadata.

    Several simulators can be bound into one lockstep batch with
    :meth:`lockstep`; each still runs through its own :meth:`run`.
    """

    def __init__(
        self,
        system: System,
        algorithm: RoutingAlgorithm,
        traffic: "TrafficGenerator",
        config: SimulationConfig | None = None,
        routes: CompiledRoutes | None | str = "auto",
        kernel: str = "auto",
    ):
        self.system = system
        self.algorithm = algorithm
        self.traffic = traffic
        self.config = config or SimulationConfig()
        if routes == "auto":
            routes = compile_routes(algorithm)
        elif routes is not None and routes.algorithm is not (
            algorithm.runtime_origin or algorithm
        ):
            raise ValueError("compiled routes were built for a different algorithm")
        self.routes = routes
        self.stats = StatsCollector(system, self.config.num_vcs)
        self.kernel_requested = kernel
        self.kernel_name, self.kernel_fallback_reason = select_kernel(self, kernel)
        self._batch: "CycleKernel | None" = None
        self._member = 0
        self._report: SimulationReport | None = None
        algorithm.reset_runtime_state()

    @staticmethod
    def lockstep(sims: "list[Simulator]") -> None:
        """Bind ``sims`` into one batch the vector kernel advances in lockstep.

        Members must share the system, the compiled route table, an equal
        fault state and the config (the seed aside), and each needs its
        own algorithm instance (a ``runtime_copy``) so runtime state stays
        per member. Every member's report equals its solo run's.
        """
        lead = sims[0]
        same_config = lead.config.replace(seed=0)
        if len({id(sim.algorithm) for sim in sims}) != len(sims):
            raise ValueError("lockstep members need distinct algorithm instances")
        for sim in sims:
            if sim._batch is not None:
                raise ValueError("simulator is already bound to a kernel")
            if sim.kernel_name != "vector":
                raise ValueError("lockstep batches run on the vector kernel")
            if (
                sim.system is not lead.system
                or sim.routes is not lead.routes
                or sim.algorithm.fault_state != lead.algorithm.fault_state
                or sim.config.replace(seed=0) != same_config
            ):
                raise ValueError(
                    "lockstep members must share system, route table, "
                    "fault state and config"
                )
        kernel = build_kernel("vector", sims)
        for member, sim in enumerate(sims):
            sim._batch, sim._member = kernel, member

    # ------------------------------------------------------------------
    # kernel-owned state, exposed in the legacy shape
    # ------------------------------------------------------------------

    @property
    def _kernel(self) -> "CycleKernel":
        if self._batch is None:
            self._batch = build_kernel(self.kernel_name, [self])
        return self._batch

    @property
    def kernel(self) -> "KernelMember":
        """This simulation's slice of its (possibly batched) kernel."""
        return KernelMember(self._kernel, self._member)

    @property
    def cycle(self) -> int:
        kernel = self._kernel
        return kernel.retired_at.get(self._member, kernel.cycle)

    @property
    def routers(self) -> list[_RouterState]:
        return self._kernel.router_states(self._member)

    @property
    def nics(self) -> list["Nic"]:
        return self._kernel.nic_states(self._member)

    @property
    def _flits_in_flight(self) -> int:
        return int(self._kernel.flits_in_flight[self._member])

    @property
    def _measured_outstanding(self) -> int:
        return self._kernel.measured_outstanding[self._member]

    def state_digest(self) -> str:
        """SHA-256 over the canonical snapshot of all observable state.

        Equal digests between two simulators mean the runs are
        indistinguishable from this point on — the cross-kernel
        equivalence oracle.
        """
        return snapshot_digest(self._kernel.snapshot(self._member))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        """Execute warmup + measurement + drain and return the report.

        The first ``run`` of any member of a lockstep batch runs the whole
        batch; every member's ``run`` then returns its own report.
        """
        if self._report is None:
            _run_batch(self._kernel)
        assert self._report is not None
        return self._report

    def run_cycles(self, cycles: int, generate: bool = True) -> None:
        """Advance the simulation by a fixed number of cycles (for tests)."""
        try:
            for _ in range(cycles):
                self._kernel.step(generate)
        finally:
            # Kernels may defer stats folding to observation points; make
            # direct ``sim.stats`` reads after a stepped run exact too.
            self._kernel.finalize()

    def _step(self, generate: bool) -> None:
        self._kernel.step(generate)


    def _report_for(
        self, cycles: int, deadlocked: bool, wall_s: float, batch: int, registry
    ) -> SimulationReport:
        rate = cycles / wall_s if wall_s > 0 else 0.0
        if registry.enabled:
            registry.counter(
                "deft_sim_runs_total", "Completed Simulator.run calls"
            ).inc()
            registry.counter(
                "deft_sim_cycles_total", "Simulated cycles across all runs"
            ).inc(cycles)
            registry.counter(
                "deft_sim_flit_hops_total", "Flit-hops across all runs"
            ).inc(self.stats.flit_hops)
            if deadlocked:
                registry.counter(
                    "deft_sim_deadlocks_total", "Runs ended by the deadlock watchdog"
                ).inc()
            registry.counter(
                f"deft_sim_kernel_{self.kernel_name}_runs_total",
                "Runs executed by this cycle kernel",
            ).inc()
            registry.histogram(
                "deft_sim_kernel_cycles_per_sec",
                "Simulated cycles per wall-clock second",
            ).observe(rate)
            table_hops, live_hops = self._kernel.dispatch_counts(self._member)
            if table_hops:
                registry.counter(
                    "deft_sim_kernel_vector_hops_total",
                    "Route decisions served from the dense table",
                ).inc(table_hops)
            if live_hops:
                registry.counter(
                    "deft_sim_kernel_fallback_hops_total",
                    "Route decisions that needed live Python dispatch",
                ).inc(live_hops)
        self.stats.cycles_run = cycles
        metadata: dict[str, Any] = {
            "kernel": self.kernel_name,
            "cycles_per_sec": round(rate, 1),
            "batch": batch,
            "wall_s": wall_s,
        }
        if self.kernel_fallback_reason:
            metadata["kernel_fallback"] = self.kernel_fallback_reason
        return SimulationReport(
            algorithm=self.algorithm.name,
            traffic=getattr(self.traffic, "name", type(self.traffic).__name__),
            stats=self.stats,
            config=self.config,
            cycles=cycles,
            deadlocked=deadlocked,
            metadata=metadata,
        )


class KernelMember:
    """One simulation's slice of a (possibly batched) cycle kernel."""

    def __init__(self, kernel: "CycleKernel", member: int):
        self.batch = kernel
        self.member = member

    @property
    def name(self) -> str:
        return self.batch.name

    def dispatch_counts(self) -> tuple[int, int]:
        return self.batch.dispatch_counts(self.member)

    def snapshot(self) -> tuple:
        return self.batch.snapshot(self.member)


def _run_batch(kernel: "CycleKernel") -> None:
    """The run loop: warmup + measurement + drain for every batch member.

    A solo simulation is a batch of one. Members retire on their own
    exit — drain complete, drain deadline, or deadlock watchdog — and
    the batch fast-forwards only when every live member is idle, to the
    earliest cycle any of them could act again (stepping through no-op
    cycles instead gives the same final state). Each report's
    ``wall_s`` is its share of the batch's wall-clock, apportioned by
    simulated cycles, so the shares sum to the batch's wall-clock.
    """
    sims = kernel.sims
    cfg = sims[0].config
    inject_until = cfg.warmup_cycles + cfg.measure_cycles
    watchdog = cfg.watchdog_cycles
    live = kernel.live
    # Telemetry is recorded once per run (span + aggregate counters),
    # never per cycle — the per-cycle loop is the hottest path in the
    # repository and must not pay even a no-op call per step.
    from ..telemetry.metrics import get_registry

    registry = get_registry()

    def step(generate: bool) -> None:
        try:
            kernel.step(generate)
        except DeadlockError:
            # Every live member's watchdog fired in this step.
            kernel.deadlocked.update(live)
            for member in list(live):
                kernel.retire(member)

    start = time.perf_counter()
    with registry.span("deft_sim_run_seconds", "Wall-clock of one Simulator.run"):
        while live and kernel.cycle < inject_until:
            step(True)
        drain_deadline = kernel.cycle + cfg.drain_cycles
        while live:
            for member in list(live):
                if (
                    kernel.measured_outstanding[member] <= 0
                    or kernel.cycle >= drain_deadline
                ):
                    kernel.retire(member)
            if not live:
                break
            if kernel.is_idle():
                # Nothing can move until a staged event lands, a watchdog
                # trips, or the deadline arrives — jump straight to the
                # earliest of these over every live member.
                target = drain_deadline
                due = kernel.next_event_cycle()
                if due is not None and due < target:
                    target = due
                if watchdog > 0:
                    for member in live:
                        if kernel.flits_in_flight[member] > 0:
                            target = min(
                                target, int(kernel.last_progress[member]) + watchdog
                            )
                if target > kernel.cycle:
                    kernel.fast_forward(target)
                    if kernel.cycle >= drain_deadline:
                        continue
            step(False)
    elapsed = time.perf_counter() - start
    kernel.finalize()
    total_cycles = sum(kernel.retired_at.values())
    for member, sim in enumerate(sims):
        cycles = kernel.retired_at[member]
        share = (
            elapsed * cycles / total_cycles if total_cycles else elapsed / len(sims)
        )
        sim._report = sim._report_for(
            cycles, member in kernel.deadlocked, share, len(sims), registry
        )
    # Every member holds its report now; dropping the kernel's references
    # to them breaks the simulator <-> kernel cycle, so a finished batch's
    # state is freed as soon as its simulators are, not at the next GC.
    kernel.sims = []
