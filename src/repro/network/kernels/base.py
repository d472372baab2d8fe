"""The cycle-kernel contract.

A :class:`CycleKernel` advances a batch of simulations by whole cycles,
in lockstep; the engine (:class:`~repro.network.simulator.Simulator`)
owns configuration, the run loop, reporting and telemetry. Members are
indexed ``0..N-1`` and share the batch clock :attr:`cycle` until they
*retire* (:meth:`retire`): drain over, or watchdog fired
(:attr:`deadlocked`). The ``reference`` kernel is always a batch of one;
the ``vector`` kernel batches members that share system, faults and
config, whatever their routing algorithms.

Equivalence contract: until it retires, every member produces after
every step the canonical :func:`snapshot <repro.network.state.snapshot_state>`
of its solo reference run — buffers, credits, allocations, round-robin
counters, staged arrivals, statistics, algorithm callbacks and their
order. Wall-clock is the only degree of freedom.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..nic import Nic
    from ..simulator import Simulator
    from ..state import RouterView


class CycleKernel(abc.ABC):
    """Behavior over a batch of simulations' state: advance it by one cycle."""

    #: Registry name (``reference`` / ``vector``).
    name: str = "base"

    def __init__(self, sims: Sequence["Simulator"]):
        self.sims = list(sims)
        #: Members still stepping, ascending.
        self.live = list(range(len(self.sims)))
        #: member -> batch cycle at which it retired.
        self.retired_at: dict[int, int] = {}
        #: Members retired by their deadlock watchdog.
        self.deadlocked: set[int] = set()

    # -- stepping -------------------------------------------------------

    @abc.abstractmethod
    def step(self, generate: bool) -> None:
        """Advance every live member one cycle. Raises
        :class:`~repro.errors.DeadlockError` (clock not advanced) when every
        live member's watchdog fires; retires a member whose watchdog
        fires while others run on."""

    def retire(self, member: int) -> None:
        """Stop stepping ``member``; its state stays readable."""
        self.live.remove(member)
        self.retired_at[member] = self.cycle

    # -- state the engine and tests observe -----------------------------

    cycle: int  # the batch clock
    # per-member run counters
    packet_counter: Sequence[int]
    flits_in_flight: Sequence[int]
    last_progress: Sequence[int]
    measured_outstanding: Sequence[int]

    @abc.abstractmethod
    def router_states(self, member: int) -> list["RouterView"]:
        """Per-router state views in the legacy ``sim.routers`` shape."""

    @abc.abstractmethod
    def nic_states(self, member: int) -> list["Nic"]:
        """The member's NICs (live objects in both kernels)."""

    @abc.abstractmethod
    def snapshot(self, member: int) -> tuple:
        """Canonical snapshot for cross-kernel equivalence checks."""

    # -- idle fast-forward (engine drain loop) ---------------------------

    @abc.abstractmethod
    def is_idle(self) -> bool:
        """No live member has occupied buffers, busy NICs or RC flits."""

    @abc.abstractmethod
    def next_event_cycle(self) -> int | None:
        """Earliest staged arrival/credit cycle of any live member."""

    @abc.abstractmethod
    def fast_forward(self, cycle: int) -> None:
        """Jump an idle batch's clock forward (the engine guarantees no
        skipped cycle would generate traffic, move a flit or trip a
        watchdog)."""

    # -- reporting ------------------------------------------------------

    def finalize(self) -> None:
        """Flush any internal accumulators into the members' stats objects."""

    def dispatch_counts(self, member: int) -> tuple[int, int]:
        """(table-served hops, live-dispatch hops) for telemetry; zeros
        where no dense table is in play."""
        return (0, 0)
