"""The object-based reference cycle kernel (semantic ground truth).

The pre-refactor ``Simulator._step`` pipeline ported onto
:class:`~repro.network.state.SimState`, always a batch of one. Every
iteration that used to follow Python *set* order (active routers, active
input VCs, busy NICs) is **canonicalized to sorted order**, and router
processing is split into two global phases — route-compute/VC-allocate
for every router, then switch-allocate/send for every router (nothing a
send phase mutates is read by another router's plan phase). That
deterministic order is what lets the numpy kernel reproduce a run bit
for bit.

Per-cycle phases (unchanged from the original engine):

1. **Traffic** — the generator creates packets into NIC source queues.
2. **Injection** — each NIC pushes at most one flit into its router's
   LOCAL input VC (respecting buffer space, routability and the routing
   algorithm's injection-permission hook).
3. **Plan** — for every active router in id order, every occupied input
   VC in (port, vc) order: route computation for fresh heads (served
   from a compiled route table when available), output-VC allocation,
   switch-allocation request collection.
4. **Serve** — per router: round-robin switch allocation (one flit per
   output port and per input port), flit departure, RC-buffer
   absorption/drain. Departing flits and credit returns are *staged*.
5. **Commit** — staged flits enter their destination buffers; staged
   credits return upstream.

The watchdog raises :class:`~repro.errors.DeadlockError` when flits are
in flight but nothing has moved for ``watchdog_cycles``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence

from ...errors import DeadlockError, UnroutablePacketError
from ...fault.model import VLDirection
from ...routing.base import Port
from ..flit import Flit, Packet
from ..nic import Nic
from ..state import NUM_PORTS, RC_PORT, SimState, partition_vcs, snapshot_state
from .base import CycleKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..simulator import Simulator
    from ..state import RouterView


class ReferenceKernel(CycleKernel):
    """Canonical object-based execution of the cycle semantics."""

    name = "reference"

    def __init__(self, sims: Sequence["Simulator"]):
        super().__init__(sims)
        (sim,) = self.sims  # always a batch of one
        self.system = sim.system
        self.algorithm = sim.algorithm
        self.traffic = sim.traffic
        self.config = sim.config
        self.stats = sim.stats
        self._route = (
            functools.partial(sim.routes.route, algorithm=sim.algorithm)
            if sim.routes is not None
            else sim.algorithm.route
        )
        self._num_vcs = sim.config.num_vcs
        self._depth = sim.config.buffer_depth
        self._vn_vcs = partition_vcs(self._num_vcs)
        self._rr_mod = NUM_PORTS * self._num_vcs
        self._vl_serialization = sim.config.vl_serialization
        self.state = SimState(sim.system, sim.algorithm, sim.config)

    # -- counters the engine observes -----------------------------------

    @property
    def cycle(self) -> int:
        return self.state.cycle

    # Per-member counters of the batch of one.
    packet_counter = property(lambda self: [self.state.packet_counter])
    flits_in_flight = property(lambda self: [self.state.flits_in_flight])
    last_progress = property(lambda self: [self.state.last_progress])
    measured_outstanding = property(lambda self: [self.state.measured_outstanding])

    def router_states(self, member: int = 0) -> list["RouterView"]:
        return self.state.router_views()

    def nic_states(self, member: int = 0) -> list[Nic]:
        return self.state.nics

    def snapshot(self, member: int = 0) -> tuple:
        return snapshot_state(self.state, self.stats)

    def is_idle(self) -> bool:
        st = self.state
        return not st.active_routers and not st.busy_nics

    def next_event_cycle(self) -> int | None:
        st = self.state
        dues = list(st.arrivals) + list(st.credit_arrivals)
        return min(dues) if dues else None

    def fast_forward(self, cycle: int) -> None:
        assert cycle > self.state.cycle
        self.state.cycle = cycle

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------

    def step(self, generate: bool) -> None:
        st = self.state
        if generate:
            self._generate_traffic()
        self._inject()
        transfers, credit_returns = self._process_routers()
        self._commit(transfers, credit_returns)
        self._check_watchdog()
        st.cycle += 1

    def _generate_traffic(self) -> None:
        st = self.state
        measured_window = st.cycle >= self.config.warmup_cycles
        for src, dst in self.traffic.packets_for_cycle(st.cycle):
            packet = Packet(
                st.packet_counter, src, dst, self.config.packet_size, st.cycle
            )
            st.packet_counter += 1
            packet.measured = measured_window
            self.stats.on_packet_created(packet.measured)
            if packet.measured:
                st.measured_outstanding += 1
            st.nics[src].enqueue(packet)
            st.busy_nics.add(src)

    def _inject(self) -> None:
        st = self.state
        done: list[int] = []
        for nid in sorted(st.busy_nics):
            nic = st.nics[nid]
            if not nic.busy:
                if not self._start_next_packet(nic):
                    if not nic.queue and not nic.busy:
                        done.append(nid)
                    continue
            flit = nic.next_flit()
            if flit is None:
                continue
            vc = nic.inject_vc
            buffer = st.buffers[nid][Port.LOCAL][vc]
            if len(buffer) < self._depth:
                buffer.append(flit)
                st.active[nid].add((int(Port.LOCAL), vc))
                st.active_routers.add(nid)
                st.flits_in_flight += 1
                st.last_progress = st.cycle
                nic.advance()
            if not nic.busy and not nic.queue:
                done.append(nid)
        for nid in done:
            st.busy_nics.discard(nid)

    def _start_next_packet(self, nic: Nic) -> bool:
        """Pop queued packets until one starts injecting; False if none can."""
        st = self.state
        algo = self.algorithm
        while nic.queue:
            packet = nic.queue[0]
            if not algo.is_routable(packet.src, packet.dst):
                nic.queue.popleft()
                self.stats.on_packet_dropped(packet.measured)
                if packet.measured:
                    st.measured_outstanding -= 1
                continue
            if not algo.may_inject(packet, st.cycle):
                return False  # head-of-line wait (RC permission network)
            try:
                algo.prepare_packet(packet)
            except UnroutablePacketError:
                nic.queue.popleft()
                self.stats.on_packet_dropped(packet.measured)
                if packet.measured:
                    st.measured_outstanding -= 1
                continue
            nic.queue.popleft()
            vc = self._injection_vc(packet)
            nic.start_packet(packet, vc, st.cycle)
            return True
        return False

    def _injection_vc(self, packet: Packet) -> int:
        """Input VC for a fresh packet: emptiest VC of its assigned VN."""
        vcs = self._vn_vcs[packet.vn]
        buffers = self.state.buffers[packet.src][Port.LOCAL]
        return min(vcs, key=lambda vc: len(buffers[vc]))

    # -- router processing ---------------------------------------------

    def _process_routers(
        self,
    ) -> tuple[list[tuple[int, int, int, Flit]], list[tuple[int, int, int]]]:
        st = self.state
        transfers: list[tuple[int, int, int, Flit]] = []  # (dst, in_port, vc, flit)
        credit_returns: list[tuple[int, int, int]] = []  # (router, out_port, vc)
        rids = sorted(st.active_routers)
        plans = []
        for rid in rids:
            plan = self._plan_router(rid)
            if plan is not None:
                plans.append((rid, plan))
        for rid, (requests, rc_requests) in plans:
            self._serve_router(rid, requests, rc_requests, transfers, credit_returns)
        for rid in rids:
            rc = st.rc_buffers[rid]
            if not st.active[rid] and not (rc is not None and rc.flits):
                st.active_routers.discard(rid)
        return transfers, credit_returns

    def _plan_router(
        self, rid: int
    ) -> tuple[dict[int, list[tuple[int, int]]], list[tuple[int, int]]] | None:
        """Route-compute, allocate and collect SA requests for one router."""
        st = self.state
        buffers = st.buffers[rid]
        assigned = st.assigned[rid]
        decisions = st.decision[rid]
        credits = st.credits[rid]
        rc_buffer = st.rc_buffers[rid]
        requests: dict[int, list[tuple[int, int]]] = {}
        rc_requests: list[tuple[int, int]] = []
        for (port, vc) in sorted(st.active[rid]):
            buffer = buffers[port][vc]
            if not buffer:
                continue
            flit = buffer[0]
            target = assigned[port][vc]
            if target is None:
                if not flit.is_head:
                    continue  # waits for its head's allocation (cannot happen mid-packet)
                decision = decisions[port][vc]
                if decision is None:
                    decision = self._route(flit.packet, rid, Port(port))
                    decisions[port][vc] = decision
                out_port = int(decision.out_port)
                if (
                    out_port == Port.VERTICAL
                    and rc_buffer is not None
                    and flit.packet.needs_rc
                ):
                    if rc_buffer.owner is None:
                        rc_buffer.owner = flit.packet
                    if rc_buffer.owner is flit.packet:
                        assigned[port][vc] = (RC_PORT, 0)
                        rc_requests.append((port, vc))
                    continue
                out_vc = self._allocate_out_vc(
                    rid, out_port, decision.allowed_vns, flit.packet
                )
                if out_vc is None:
                    continue
                assigned[port][vc] = (out_port, out_vc)
                target = (out_port, out_vc)
            out_port, out_vc = target
            if out_port == RC_PORT:
                rc_requests.append((port, vc))
            elif out_port == Port.LOCAL:
                requests.setdefault(out_port, []).append((port, vc))
            elif credits[out_port][out_vc] > 0:
                if out_port == Port.VERTICAL and not self._vl_available(rid):
                    continue  # serialized vertical link still busy
                requests.setdefault(out_port, []).append((port, vc))
        if not requests and not rc_requests and not (
            rc_buffer is not None and rc_buffer.complete
        ):
            return None
        return requests, rc_requests

    def _serve_router(
        self,
        rid: int,
        requests: dict[int, list[tuple[int, int]]],
        rc_requests: list[tuple[int, int]],
        transfers: list[tuple[int, int, int, Flit]],
        credit_returns: list[tuple[int, int, int]],
    ) -> None:
        """Switch-allocate and send for one router's collected requests."""
        st = self.state
        used_in_ports: set[int] = set()
        # Rotate output-port service order for long-term fairness.
        out_ports = sorted(requests)
        if out_ports:
            offset = st.sa_rr[rid] % len(out_ports)
            out_ports = out_ports[offset:] + out_ports[:offset]
            st.sa_rr[rid] += 1
        sa_rr = st.sa_rr[rid]
        for out_port in out_ports:
            candidates = [c for c in requests[out_port] if c[0] not in used_in_ports]
            if not candidates:
                continue
            winner = min(
                candidates,
                key=lambda c: (c[0] * self._num_vcs + c[1] - sa_rr) % self._rr_mod,
            )
            in_port, vc = winner
            used_in_ports.add(in_port)
            self._send_flit(rid, in_port, vc, out_port, transfers, credit_returns)
        if rc_requests:
            in_port, vc = rc_requests[0]
            if in_port not in used_in_ports:
                self._absorb_into_rc(rid, in_port, vc, credit_returns)
        self._drain_rc(rid, transfers)

    def _allocate_out_vc(
        self,
        rid: int,
        out_port: int,
        allowed_vns: tuple[int, ...],
        packet: Packet,
    ) -> int | None:
        """Claim a free output VC belonging to one of the allowed VNs."""
        if out_port == Port.LOCAL:
            return 0  # ejection needs no VC allocation; arbitration suffices
        owners = self.state.out_owner[rid][out_port]
        for vn in allowed_vns:
            for vc in self._vn_vcs[vn]:
                if owners[vc] is None:
                    owners[vc] = packet
                    packet.vn = vn
                    return vc
        return None

    def _send_flit(
        self,
        rid: int,
        in_port: int,
        vc: int,
        out_port: int,
        transfers: list[tuple[int, int, int, Flit]],
        credit_returns: list[tuple[int, int, int]],
    ) -> None:
        st = self.state
        buffer = st.buffers[rid][in_port][vc]
        flit = buffer.popleft()
        if not buffer:
            st.active[rid].discard((in_port, vc))
        if in_port != Port.LOCAL:
            credit_returns.append(self._upstream_credit(rid, in_port, vc))
        st.last_progress = st.cycle
        if out_port == Port.LOCAL:
            self._eject(flit)
        else:
            assigned = st.assigned[rid][in_port][vc]
            assert assigned is not None
            out_vc = assigned[1]
            st.credits[rid][out_port][out_vc] -= 1
            link = st.link_to[rid][out_port]
            assert link is not None, "route decision used a non-existent port"
            dst, dst_in_port = link
            transfers.append((dst, dst_in_port, out_vc, flit))
            if flit.is_head:
                flit.packet.hops += 1
            if out_port == Port.VERTICAL:
                router = self.system.routers[rid]
                direction = (
                    VLDirection.UP if router.is_interposer else VLDirection.DOWN
                )
                assert router.vl_index is not None
                self.stats.on_vl_traversal(router.vl_index, int(direction))
                self._mark_vl_busy(rid)
            if flit.is_tail:
                st.out_owner[rid][out_port][out_vc] = None
        if flit.is_tail:
            st.assigned[rid][in_port][vc] = None
            st.decision[rid][in_port][vc] = None

    def _upstream_credit(
        self, router_id: int, in_port: int, vc: int
    ) -> tuple[int, int, int]:
        """Locate the upstream (router, out_port, vc) to credit for a pop."""
        from ...routing.base import opposite_port

        router = self.system.routers[router_id]
        if in_port == Port.VERTICAL:
            upstream = router.vertical_neighbor
            assert upstream is not None
            return (upstream, int(Port.VERTICAL), vc)
        direction = Port(in_port)
        upstream = router.neighbors[direction]  # type: ignore[index]
        return (upstream, int(opposite_port(direction)), vc)

    def _eject(self, flit: Flit) -> None:
        st = self.state
        packet = flit.packet
        packet.flits_ejected += 1
        st.flits_in_flight -= 1
        if flit.is_tail:
            packet.delivered_cycle = st.cycle
            latency = packet.delivered_cycle - packet.created_cycle
            self.stats.on_packet_delivered(latency, packet.hops, packet.measured)
            self.algorithm.on_packet_delivered(packet, st.cycle)
            if packet.measured:
                st.measured_outstanding -= 1

    # -- RC buffer ------------------------------------------------------

    def _absorb_into_rc(
        self,
        rid: int,
        in_port: int,
        vc: int,
        credit_returns: list[tuple[int, int, int]],
    ) -> None:
        st = self.state
        unit = st.rc_buffers[rid]
        assert unit is not None
        buffer = st.buffers[rid][in_port][vc]
        if not buffer:
            return
        flit = buffer.popleft()
        if not buffer:
            st.active[rid].discard((in_port, vc))
        if in_port != Port.LOCAL:
            credit_returns.append(self._upstream_credit(rid, in_port, vc))
        unit.flits.append(flit)
        st.last_progress = st.cycle
        if flit.is_tail:
            unit.complete = True
            st.assigned[rid][in_port][vc] = None
            st.decision[rid][in_port][vc] = None
        st.active_routers.add(rid)

    def _drain_rc(
        self, rid: int, transfers: list[tuple[int, int, int, Flit]]
    ) -> None:
        st = self.state
        unit = st.rc_buffers[rid]
        if unit is None or not unit.complete or not unit.flits:
            return
        if unit.out_vc is None:
            owners = st.out_owner[rid][Port.VERTICAL]
            for vc in range(self._num_vcs):
                if owners[vc] is None:
                    owners[vc] = unit.owner
                    unit.out_vc = vc
                    break
            if unit.out_vc is None:
                return
        out_vc = unit.out_vc
        if st.credits[rid][Port.VERTICAL][out_vc] <= 0:
            return
        if not self._vl_available(rid):
            return  # serialized vertical link still busy
        flit = unit.flits.popleft()
        st.credits[rid][Port.VERTICAL][out_vc] -= 1
        link = st.link_to[rid][Port.VERTICAL]
        assert link is not None
        dst, dst_in_port = link
        transfers.append((dst, dst_in_port, out_vc, flit))
        st.last_progress = st.cycle
        if flit.is_head:
            flit.packet.hops += 1
        router = self.system.routers[rid]
        assert router.vl_index is not None
        self.stats.on_vl_traversal(router.vl_index, int(VLDirection.DOWN))
        self._mark_vl_busy(rid)
        if flit.is_tail:
            st.out_owner[rid][Port.VERTICAL][out_vc] = None
            packet = unit.owner
            assert packet is not None
            unit.reset()
            self.algorithm.on_rc_buffer_drained(rid, packet, st.cycle)

    # -- serialized vertical links --------------------------------------

    def _vl_available(self, router_id: int) -> bool:
        if self._vl_serialization <= 1:
            return True
        return self.state.cycle >= self.state.vl_next_free.get(router_id, 0)

    def _mark_vl_busy(self, router_id: int) -> None:
        if self._vl_serialization > 1:
            self.state.vl_next_free[router_id] = (
                self.state.cycle + self._vl_serialization
            )

    # -- commit ---------------------------------------------------------

    def _commit(
        self,
        transfers: list[tuple[int, int, int, Flit]],
        credit_returns: list[tuple[int, int, int]],
    ) -> None:
        st = self.state
        # Stage this cycle's departures into the future...
        if transfers:
            due = st.cycle + self.config.hop_latency - 1
            st.arrivals.setdefault(due, []).extend(transfers)
        if credit_returns:
            due = st.cycle + self.config.credit_latency - 1
            st.credit_arrivals.setdefault(due, []).extend(credit_returns)
        # ...and materialize everything due now.
        for dst, in_port, vc, flit in st.arrivals.pop(st.cycle, ()):
            buffer = st.buffers[dst][in_port][vc]
            assert len(buffer) < self._depth, "credit protocol violated"
            buffer.append(flit)
            st.active[dst].add((in_port, vc))
            st.active_routers.add(dst)
            self.stats.on_flit_transfer(self.system.routers[dst].layer, vc)
        for router_id, out_port, vc in st.credit_arrivals.pop(st.cycle, ()):
            st.credits[router_id][out_port][vc] += 1

    # -- watchdog --------------------------------------------------------

    def _check_watchdog(self) -> None:
        st = self.state
        limit = self.config.watchdog_cycles
        if limit <= 0 or st.flits_in_flight <= 0:
            return
        if st.cycle - st.last_progress >= limit:
            raise DeadlockError(st.last_progress, st.flits_in_flight)
