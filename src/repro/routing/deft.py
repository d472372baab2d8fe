"""DeFT routing (the paper's Section III).

Combines:

* the three-phase minimal route skeleton (source chiplet -> down-VL ->
  interposer -> up-VL -> destination chiplet);
* the VN-assignment policy of Algorithm 1 via :mod:`repro.core.vn`
  (round-robin where both VNs are legal, VN.0 for inter-chiplet packets
  from non-boundary sources, forced VN.1 on up-traversals);
* fault-tolerant, congestion-aware VL selection via the pre-optimized
  lookup tables of :mod:`repro.core.tables` (Algorithm 2 offline,
  table lookup online), or the ``distance`` / ``random`` strategies the
  paper evaluates as DeFT-Dis and DeFT-Ran in Fig. 8.

Reachability: DeFT never restricts VL choice, so a pair is routable iff
the source chiplet has a live down channel and the destination chiplet a
live up channel — 100% under every fault pattern that does not disconnect
a chiplet (Fig. 7).
"""

from __future__ import annotations

import enum
import random

from ..core import tables as tables_mod
from ..core.vn import (
    VN0,
    VN1,
    assign_injection_vn,
    boundary_down_vns,
)
from ..errors import RoutingError, UnroutablePacketError
from ..network.flit import Packet
from ..topology.builder import System
from ..topology.geometry import INTERPOSER_LAYER
from .base import PhasedRoutingMixin, Port, RouteDecision, RoutingAlgorithm


class VlSelectionStrategy(enum.Enum):
    """Which VL-selection policy drives the intermediate destinations.

    The first three are the paper's evaluated strategies (Fig. 8);
    ``ADAPTIVE`` is the online congestion-aware extension in the lineage
    of the authors' Adele elevator selection [16]: instead of a design-time
    table, the source picks the alive VL minimizing
    ``outstanding_packets(vl) + rho_online * distance`` using run-time
    load tracking. Evaluated by the ablation experiments.
    """

    OPTIMIZED = "optimized"   # paper's DeFT: offline-optimized lookup tables
    DISTANCE = "distance"     # DeFT-Dis: closest alive VL
    RANDOM = "random"         # DeFT-Ran: uniform among alive VLs
    ADAPTIVE = "adaptive"     # extension: online load-aware selection


class DeftRouting(PhasedRoutingMixin, RoutingAlgorithm):
    """The DeFT routing algorithm.

    Args:
        system: the built 2.5D system.
        strategy: VL-selection strategy (paper default: OPTIMIZED).
        selection_tables: pre-built tables (chiplet -> SelectionTable);
            built on demand with uniform traffic when omitted — the
            paper's pessimistic offline assumption.
        up_selection_tables: optional distinct tables for the
            interposer-side (up-VL) selection; defaults to the same
            tables, which is exact under the uniform-traffic assumption.
        rho: distance/balance weight for table construction (eq. 6).
        seed: RNG seed for the RANDOM strategy.
    """

    name = "DeFT"
    # Compilable: route() is pure given the packet's bindings, except the
    # boundary down-traversal flagged by route_is_stateful below. The
    # online selection state of RANDOM/ADAPTIVE lives in prepare_packet /
    # _bind_up_vl, which the compiled path always runs live.
    compilable = True

    def __init__(
        self,
        system: System,
        strategy: VlSelectionStrategy = VlSelectionStrategy.OPTIMIZED,
        selection_tables: dict[int, tables_mod.SelectionTable] | None = None,
        up_selection_tables: dict[int, tables_mod.SelectionTable] | None = None,
        rho: float = 0.01,
        seed: int = 1,
    ):
        super().__init__(system)
        self.strategy = strategy
        self.name = {
            VlSelectionStrategy.OPTIMIZED: "DeFT",
            VlSelectionStrategy.DISTANCE: "DeFT-Dis",
            VlSelectionStrategy.RANDOM: "DeFT-Ran",
            VlSelectionStrategy.ADAPTIVE: "DeFT-Ada",
        }[strategy]
        if selection_tables is None:
            if strategy is VlSelectionStrategy.DISTANCE:
                selection_tables = tables_mod.distance_tables(system)
            else:
                selection_tables = tables_mod.build_selection_tables(system, rho=rho)
        self.tables = selection_tables
        self.up_tables = up_selection_tables or selection_tables
        self.seed = seed
        self._rng = random.Random(seed)
        # Per-router round-robin state (Algorithm 1). The injection state
        # is a simple alternation counter; the down-traversal state is a
        # pair of per-VN assignment counts so pinned VN.1 packets are
        # accounted for in the balance (see _vns_for_hop).
        self._inject_rr: dict[int, int] = {}
        self._down_rr: dict[int, list[int]] = {}
        # chiplet -> router id -> local (row-major) index, for table lookups.
        self._local_index: dict[int, int] = {}
        for chiplet in range(system.spec.num_chiplets):
            for index, router in enumerate(system.chiplet_routers(chiplet)):
                self._local_index[router.id] = index
        self._vl_of_chiplet_local: dict[tuple[int, int], int] = {
            (link.chiplet, link.local_index): link.index for link in system.vls
        }
        # Online load tracking for the ADAPTIVE strategy: packets bound to
        # each directed VL channel (down/up separately) and not yet
        # delivered.
        self._outstanding_down: dict[int, int] = {}
        self._outstanding_up: dict[int, int] = {}
        #: Distance weight of the online score (extension parameter).
        self.rho_online = 0.5

    # ------------------------------------------------------------------
    # routability (reachability predicate)
    # ------------------------------------------------------------------

    def is_routable(self, src: int, dst: int) -> bool:
        routers = self.system.routers
        src_layer, dst_layer = routers[src].layer, routers[dst].layer
        if src_layer == dst_layer:
            return True
        if src_layer != INTERPOSER_LAYER and not self.fault_state.alive_down_vls(src_layer):
            return False
        if dst_layer != INTERPOSER_LAYER and not self.fault_state.alive_up_vls(dst_layer):
            return False
        return True

    # ------------------------------------------------------------------
    # packet preparation (source router work: VN + down-VL binding)
    # ------------------------------------------------------------------

    def prepare_packet(self, packet: Packet) -> None:
        if not self.is_routable(packet.src, packet.dst):
            raise UnroutablePacketError(
                f"no alive VL path from {packet.src} to {packet.dst}"
            )
        src = self.system.routers[packet.src]
        dst = self.system.routers[packet.dst]
        same_layer = src.layer == dst.layer
        packet.down_vl = None
        packet.up_vl = None
        if not src.is_interposer and not same_layer:
            packet.down_vl = self._select_down_vl(src.layer, packet.src)
        # Algorithm 1 lets boundary-router sources round-robin, which is
        # only legal when the packet descends through the router's own Down
        # port (Local -> Down is exempt from Rule 3). When the selection
        # table routes it to a different VL, the packet needs horizontal
        # hops before descending and must start in VN.0 like any other
        # inter-chiplet packet.
        descends_via_own_vl = (
            src.is_boundary
            and packet.down_vl is not None
            and packet.down_vl == src.vl_index
        )
        rr = self._inject_rr.get(packet.src, 0)
        packet.vn, self._inject_rr[packet.src] = assign_injection_vn(
            source_is_interposer=src.is_interposer,
            source_is_boundary=descends_via_own_vl,
            destination_on_same_chiplet=same_layer,
            round_robin_state=rr,
        )

    def _select_down_vl(self, chiplet: int, src_router: int) -> int:
        alive = self.fault_state.alive_down_vls(chiplet)
        if not alive:
            raise UnroutablePacketError(f"chiplet {chiplet} has no alive down VL")
        if self.strategy is VlSelectionStrategy.RANDOM:
            local = alive[self._rng.randrange(len(alive))]
        elif self.strategy is VlSelectionStrategy.ADAPTIVE:
            local = self._adaptive_pick(
                chiplet, src_router, alive, self._outstanding_down
            )
        else:
            pattern = self.fault_state.chiplet_down_pattern(chiplet)
            table = self.tables[chiplet]
            local = table.vl_for_router(self._local_index[src_router], pattern)
        vl = self._vl_of_chiplet_local[(chiplet, local)]
        if self.strategy is VlSelectionStrategy.ADAPTIVE:
            self._outstanding_down[vl] = self._outstanding_down.get(vl, 0) + 1
        return vl

    def _adaptive_pick(
        self, chiplet: int, anchor_router: int, alive, outstanding: dict[int, int]
    ) -> int:
        """Online score: outstanding bound packets + weighted distance."""
        anchor = self.system.routers[anchor_router]
        best_local, best_score = alive[0], float("inf")
        for local in alive:
            vl = self._vl_of_chiplet_local[(chiplet, local)]
            link = self.system.vls[vl]
            distance = abs(anchor.x - link.cx) + abs(anchor.y - link.cy)
            score = outstanding.get(vl, 0) + self.rho_online * distance
            if score < best_score:
                best_local, best_score = local, score
        return best_local

    def _bind_up_vl(self, packet: Packet) -> None:
        """Interposer-side selection towards the destination chiplet."""
        dst = self.system.routers[packet.dst]
        chiplet = dst.layer
        alive = self.fault_state.alive_up_vls(chiplet)
        if not alive:
            raise RoutingError(f"chiplet {chiplet} has no alive up VL")
        if self.strategy is VlSelectionStrategy.RANDOM:
            local = alive[self._rng.randrange(len(alive))]
        elif self.strategy is VlSelectionStrategy.ADAPTIVE:
            local = self._adaptive_pick(
                chiplet, packet.dst, alive, self._outstanding_up
            )
        else:
            pattern = self.fault_state.chiplet_up_pattern(chiplet)
            table = self.up_tables[chiplet]
            local = table.vl_for_router(self._local_index[packet.dst], pattern)
        packet.up_vl = self._vl_of_chiplet_local[(chiplet, local)]
        if self.strategy is VlSelectionStrategy.ADAPTIVE:
            self._outstanding_up[packet.up_vl] = (
                self._outstanding_up.get(packet.up_vl, 0) + 1
            )

    # ------------------------------------------------------------------
    # per-hop routing
    # ------------------------------------------------------------------

    def route(self, packet: Packet, router_id: int, in_port: Port) -> RouteDecision:
        router = self.system.routers[router_id]
        out_port = self._phased_out_port(packet, router)
        vns = self._vns_for_hop(packet, router, in_port, out_port)
        return RouteDecision(out_port, vns)

    def route_is_stateful(self, packet: Packet, router_id: int, in_port: Port) -> bool:
        """The boundary down-traversal is online state (Algorithm 1).

        At the selected VL's boundary router the VN preference order comes
        from per-router balance counters that every descending packet
        advances — the one hop a compiled table cannot capture. The
        selected VL's boundary router lives on the source chiplet, so the
        check can never fire elsewhere along the three-phase route.
        """
        down_vl = packet.down_vl
        return down_vl is not None and self.system.vls[down_vl].chiplet_router == router_id

    def stateful_boundary_router(self, packet: Packet) -> int:
        """The single stateful hop is the bound down-VL's boundary router.

        ``down_vl`` is bound once in :meth:`prepare_packet` and never
        rebound, so the answer is constant for the packet's lifetime —
        exactly what a batch kernel needs to pre-split table-served hops
        from live-dispatch hops.
        """
        down_vl = packet.down_vl
        if down_vl is None:
            return -1
        return self.system.vls[down_vl].chiplet_router

    def _vns_for_hop(
        self, packet: Packet, router, in_port: Port, out_port: Port
    ) -> tuple[int, ...]:
        vn = packet.vn
        if out_port == Port.LOCAL:
            return (vn,)
        if out_port == Port.VERTICAL:
            if router.is_interposer:
                # Up-traversal: Theorem III.4 — packets ascend "regardless
                # of their VN". A VN.0 packet stays in VN.0 on the up link
                # and switches to VN.1 at the boundary router's
                # Up -> Horizontal turn; a VN.1 packet is pinned by Rule 1.
                # Keeping the packet's VN here is what balances the
                # up-link VCs (the down-traversal round-robin already split
                # the population 50/50).
                if vn == VN1:
                    return (VN1,)
                return (VN0, VN1)
            # Down-traversal at a boundary router: Rule 3 forbids the turn
            # for packets sitting in VN.1 horizontal buffers — Algorithm 1
            # keeps inter-chiplet packets in VN.0 until here, so this can
            # only be a legal state.
            if vn == VN1 and in_port not in (Port.LOCAL, Port.VERTICAL):
                raise RoutingError(
                    "Rule 3 violation: VN.1 packet attempting Horizontal->Down"
                )
            counts = self._down_rr.setdefault(router.id, [0, 0])
            options = boundary_down_vns(vn)
            if len(options) == 1:
                # VN.1-pinned packet (boundary-sourced): it still consumes
                # the down link's VC1 turn, so the balance counter must see
                # it — this is what keeps the VN load split 50/50 (Fig. 5).
                counts[VN1] += 1
                return options
            preferred = VN0 if counts[VN0] <= counts[VN1] else VN1
            counts[preferred] += 1
            return (VN0, VN1) if preferred == VN0 else (VN1, VN0)
        # Up-arrival continuing horizontally: Rule 2 forbids staying in
        # VN.0, so the output VC must be VN.1 (Algorithm 1: "coming from
        # the interposer -> go to (remain in) VN.1").
        if in_port == Port.VERTICAL and not router.is_interposer:
            return (VN1,)
        # Plain horizontal hop: stay in the assigned VN (Algorithm 1).
        return (vn,)

    # ------------------------------------------------------------------

    def on_packet_delivered(self, packet: Packet, cycle: int) -> None:
        """Release the adaptive strategy's load claims for this packet."""
        if self.strategy is not VlSelectionStrategy.ADAPTIVE:
            return
        if packet.down_vl is not None and self._outstanding_down.get(packet.down_vl, 0) > 0:
            self._outstanding_down[packet.down_vl] -= 1
        if packet.up_vl is not None and self._outstanding_up.get(packet.up_vl, 0) > 0:
            self._outstanding_up[packet.up_vl] -= 1

    def reset_runtime_state(self) -> None:
        self._inject_rr = {}
        self._down_rr = {}
        self._outstanding_down = {}
        self._outstanding_up = {}
        self._rng = random.Random(self.seed)
