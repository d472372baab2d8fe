"""Routing-algorithm interface and shared 2.5D route mechanics.

Every algorithm implements the same contract so the simulator, the
reachability analysis and the CDG deadlock checker can treat them
uniformly:

* :meth:`RoutingAlgorithm.prepare_packet` — called once at injection;
  binds per-packet routing state (DeFT: the down-VL from the lookup table
  and the initial virtual network; MTR/RC: the statically bound VL).
* :meth:`RoutingAlgorithm.route` — called per hop for the packet's head
  flit; returns the output port and the legal virtual networks for the
  output VC, in preference order.
* :meth:`RoutingAlgorithm.is_routable` — static routability of a
  source/destination pair under the current fault state (the paper's
  reachability predicate).
* injection hooks (:meth:`may_inject`, :meth:`uses_rc_buffer`, ...) that
  default to no-ops and are overridden by RC.

All three algorithms of the paper share the same macroscopic route shape
(Section II-A): source chiplet -> selected down-VL -> interposer ->
selected up-VL -> destination chiplet, with XY-minimal routing inside each
segment. :class:`PhasedRoutingMixin` implements that skeleton; concrete
algorithms only decide *which* VLs and *which* virtual networks.
"""

from __future__ import annotations

import abc
import copy
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import RoutingError
from ..fault.model import FaultState
from ..topology.builder import Router, System
from ..topology.geometry import INTERPOSER_LAYER

if TYPE_CHECKING:  # pragma: no cover
    from ..network.flit import Packet


class Port(enum.IntEnum):
    """Physical router ports. EAST..SOUTH match :class:`Direction` values.

    An *input* port names the side the flit came in through (a flit moving
    east arrives at the next router's WEST input). ``VERTICAL`` is the
    single up/down port of vertically connected routers; ``LOCAL``
    connects the router to its PE/NIC.
    """

    EAST = 0
    WEST = 1
    NORTH = 2
    SOUTH = 3
    LOCAL = 4
    VERTICAL = 5


#: Number of physical ports modelled per router.
PORT_COUNT = 6

#: Ports that are mesh ("Horizontal" in the paper's terms) links.
HORIZONTAL_PORTS = (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH)

_OPPOSITE_PORT = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.VERTICAL: Port.VERTICAL,
}


def opposite_port(port: Port) -> Port:
    """Input port at the receiving router for a flit leaving through ``port``."""
    return _OPPOSITE_PORT[port]


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of route computation for one head flit at one router.

    Attributes:
        out_port: the requested output port.
        allowed_vns: virtual networks the output VC may belong to, in
            preference order (the simulator tries them left to right).
    """

    out_port: Port
    allowed_vns: tuple[int, ...]


class RoutingAlgorithm(abc.ABC):
    """Base class for 2.5D routing algorithms.

    Subclasses must set :attr:`name` and implement the abstract methods.
    The fault state starts empty; :meth:`set_fault_state` installs a new
    one and triggers :meth:`_on_fault_state_changed` so implementations
    can rebind their VL tables.
    """

    name: str = "base"

    #: Whether :meth:`route` decisions may be memoized into a
    #: :class:`~repro.routing.compiled.CompiledRoutes` table. A compilable
    #: algorithm's decision for a hop must be a pure function of
    #: ``(routing phase, bound intermediate target, router, input port,
    #: virtual network)`` under a fixed fault state — except for hops the
    #: algorithm flags through :meth:`route_is_stateful`, which the
    #: compiled path always delegates to the live :meth:`route`. Strictly
    #: opt-in (``False`` here): an algorithm whose ``route()`` reads
    #: online state it did not flag must never be silently compiled.
    compilable: bool = False

    def __init__(self, system: System):
        self.system = system
        self.fault_state = FaultState(system)

    # -- fault management -------------------------------------------------

    def set_fault_state(self, fault_state: FaultState) -> None:
        """Install a new fault state (run-time fault observation)."""
        if fault_state.system is not self.system:
            raise RoutingError("fault state belongs to a different system")
        self.fault_state = fault_state
        self._on_fault_state_changed()

    def _on_fault_state_changed(self) -> None:
        """Hook for subclasses to refresh fault-dependent bindings."""

    # -- abstract contract -------------------------------------------------

    @abc.abstractmethod
    def is_routable(self, src: int, dst: int) -> bool:
        """Whether a packet from ``src`` to ``dst`` can be delivered now."""

    @abc.abstractmethod
    def prepare_packet(self, packet: "Packet") -> None:
        """Bind per-packet routing state at injection time.

        Raises:
            UnroutablePacketError: when the pair is unroutable; the
                simulator counts the packet as dropped at the source.
        """

    @abc.abstractmethod
    def route(self, packet: "Packet", router_id: int, in_port: Port) -> RouteDecision:
        """Route the packet's head flit at ``router_id``."""

    def route_is_stateful(self, packet: "Packet", router_id: int, in_port: Port) -> bool:
        """Whether this hop's decision depends on online mutable state.

        Stateful hops (e.g. DeFT's boundary-router VN round-robin) are
        never served from a compiled table: the compiled path calls the
        live :meth:`route` for them, exactly when the simulator would, so
        online counters advance identically. Must be pure and cheap.
        """
        return False

    def stateful_boundary_router(self, packet: "Packet") -> int | None:
        """Vectorization hint: where along its route this packet's hops
        are stateful.

        Returns ``-1`` when *no* hop of this packet is stateful (so a
        batch kernel may serve every hop from a dense table), a router id
        when exactly that router's hops are stateful, or ``None`` when
        the answer cannot be summarized — the kernel then falls back to
        calling :meth:`route_is_stateful` per hop. The default inspects
        whether the subclass overrides :meth:`route_is_stateful` at all:
        if not, nothing is ever stateful. Only meaningful once the
        packet's bindings (``prepare_packet``) are in place, and must
        stay constant for the packet's lifetime afterwards.
        """
        if type(self).route_is_stateful is RoutingAlgorithm.route_is_stateful:
            return -1
        return None

    # -- optional hooks (overridden by RC) ---------------------------------

    def may_inject(self, packet: "Packet", cycle: int) -> bool:
        """Whether the NIC may start injecting this packet this cycle."""
        return True

    def uses_rc_buffer(self, router_id: int) -> bool:
        """Whether down-traversals at this router go through an RC buffer."""
        return False

    def packet_needs_rc(self, packet: "Packet") -> bool:
        """Whether this packet must traverse an RC buffer before descending."""
        return False

    def on_rc_buffer_drained(self, router_id: int, packet: "Packet", cycle: int) -> None:
        """Called by the simulator when an RC buffer finished draining."""

    def on_packet_delivered(self, packet: "Packet", cycle: int) -> None:
        """Called by the simulator when a packet's tail is ejected.

        Lets adaptive algorithms maintain congestion state (e.g. DeFT's
        online VL-load tracking).
        """

    def reset_runtime_state(self) -> None:
        """Reset per-simulation mutable state (round-robin counters, tokens).

        Implementations must bind *fresh* containers rather than clear
        shared ones in place, so a :meth:`runtime_copy` never shares
        runtime state with the instance it was copied from.
        """

    #: On a :meth:`runtime_copy`, the instance it was copied from.
    runtime_origin: "RoutingAlgorithm | None" = None

    def runtime_copy(self) -> "RoutingAlgorithm":
        """A twin with its own runtime state and everything else shared.

        Offline tables, bindings and the installed fault state are shared
        read-only, so route tables compiled for this instance serve the
        twin too. Batched runs give every member one of these.
        """
        twin = copy.copy(self)
        twin.runtime_origin = self.runtime_origin or self
        twin.reset_runtime_state()
        return twin


class PhasedRoutingMixin:
    """Shared three-phase route skeleton (Section II-A of the paper).

    An inter-chiplet packet is routed minimally to two intermediate
    destinations: the selected down-VL boundary router on the source
    chiplet, then the interposer router beneath the selected up-VL, then
    finally to its destination. Intra-layer segments are XY-minimal.

    Subclasses provide the VL bindings through packet attributes
    (``packet.down_vl`` / ``packet.up_vl``, set in ``prepare_packet`` and
    :meth:`_bind_up_vl`) and decide the VN sets through
    :meth:`_vns_for_hop`.
    """

    system: System

    # - segment target resolution -----------------------------------------

    def _current_target(self, packet: "Packet", router: Router) -> tuple[int, Port | None]:
        """The router the packet is currently heading to within this layer.

        Returns ``(target_router_id, terminal_port)`` where
        ``terminal_port`` is the port to take upon *reaching* the target
        (LOCAL for final delivery, VERTICAL for a layer change) — or
        ``None`` when the target is further away in the mesh.
        """
        dst = self.system.routers[packet.dst]
        if router.layer == INTERPOSER_LAYER:
            if dst.layer == INTERPOSER_LAYER:
                target = packet.dst
                terminal = Port.LOCAL
            else:
                if packet.up_vl is None:
                    self._bind_up_vl(packet)
                assert packet.up_vl is not None
                target = self.system.vls[packet.up_vl].interposer_router
                terminal = Port.VERTICAL
        elif router.layer == dst.layer:
            target = packet.dst
            terminal = Port.LOCAL
        else:
            # On the source chiplet, destination elsewhere: head down.
            if packet.down_vl is None:
                raise RoutingError(
                    f"packet {packet.id} has no bound down-VL on chiplet {router.layer}"
                )
            target = self.system.vls[packet.down_vl].chiplet_router
            terminal = Port.VERTICAL
        if router.id == target:
            return target, terminal
        return target, None

    def _mesh_step(self, router: Router, target_id: int) -> Port:
        """XY-minimal next hop towards a same-layer target."""
        target = self.system.routers[target_id]
        if router.x < target.x:
            return Port.EAST
        if router.x > target.x:
            return Port.WEST
        if router.y > target.y:
            return Port.NORTH
        if router.y < target.y:
            return Port.SOUTH
        raise RoutingError("mesh step requested for the current router")

    def _phased_out_port(self, packet: "Packet", router: Router) -> Port:
        """The output port of the three-phase minimal route at ``router``."""
        target, terminal = self._current_target(packet, router)
        if terminal is not None:
            return terminal
        return self._mesh_step(router, target)

    # - hooks ---------------------------------------------------------------

    def ensure_up_binding(self, packet: "Packet") -> None:
        """Bind the packet's up-VL if not already bound.

        The live path binds lazily inside :meth:`_current_target` at the
        packet's first interposer route computation; the compiled path
        calls this at that same moment (it needs the binding as a table
        key), so strategies with online selection state (RANDOM's RNG,
        ADAPTIVE's load counters) observe an identical call sequence.
        """
        if packet.up_vl is None:
            self._bind_up_vl(packet)

    def _bind_up_vl(self, packet: "Packet") -> None:  # pragma: no cover - abstract-ish
        raise NotImplementedError
