"""The job-batched numpy struct-of-arrays cycle kernel.

Same semantics as :mod:`repro.network.kernels.reference`, executed as
array sweeps over a batch of N simulations that share one compiled route
table (same system, algorithm, fault state and config; traffic may
differ). The batch is one disjoint-union network — member ``m``'s router
``r`` is global router ``m * R + r`` — so one numpy pass covers ``N * R``
routers and the per-cycle numpy overhead, which dominates on the paper's
128/192-router systems, is paid once per batch. A batch of one is the
solo kernel.

One flat *channel* axis indexes every input VC of every router
(``channel = (router * NUM_PORTS + port) * num_vcs + vc``), so ascending
channel order is member order, then the reference kernel's canonical
``(router, port, vc)`` order. Member ``m``'s packet ``i`` is registry
entry ``i * N + m``; its flit ``seq`` is flit id ``entry * packet_size +
seq``. Per cycle:

* **Plan** — fresh heads get their route decision from the dense view of
  the compiled table (one ``searchsorted`` batch); stateful hops, unbound
  VLs and dense misses fall back to live dispatch on the member's own
  algorithm copy, in ascending channel order — each member's reference
  call sequence, so RNGs, round-robins and load counters advance
  identically. Output-VC allocation pre-filters hopeless channels, then
  first-fits the rest in canonical order.
* **Serve** — switch allocation is a grouped segmented argmin over
  requests sorted by (router, out port); winning transfers pop, debit
  credits, stage arrivals and return credits as array ops. Ejections and
  RC-buffer traffic (rare, hook-bearing) stay in Python, by router id.
* **Commit** — staged arrivals/credits land via flat index adds.

Each member keeps its own traffic, NICs, stats, run counters, watchdog
and algorithm runtime state. A retired member's channels, NICs and
staged events leave the sweeps. Statistics accumulate in shadow arrays
folded into the members' collectors at observation points.
``router_states()``/``snapshot()`` materialize one member's object-based
:class:`~repro.network.state.SimState` on demand — a *copy*, memoized
until the next step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...errors import DeadlockError, UnroutablePacketError
from ...fault.model import VLDirection
from ...routing.base import Port, opposite_port
from ...routing.compiled import PHASE_TO_DOWN, PHASE_TO_DST, PHASE_TO_UP
from ...topology.geometry import INTERPOSER_LAYER
from ..flit import Packet
from ..nic import Nic
from ..state import NUM_PORTS, RC_PORT, RcBuffer, SimState, partition_vcs, snapshot_state
from .base import CycleKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..simulator import Simulator
    from ..state import RouterView

_LOCAL = int(Port.LOCAL)
_VERT = int(Port.VERTICAL)

#: Sentinel for "no assignment/decision" in the int mirrors.
_NONE = -2

#: "VC not allowed" rank in the first-fit walk tables (int16-safe).
_RANK_INF = 0x7FFF

#: Packet-registry arrays (indexed by registry entry) and their fill value.
_PKT_FIELDS = (
    ("pkt_dst", 0),  # member-local router id
    ("pkt_vn", 0),
    ("pkt_down", -1),
    ("pkt_up", -1),
    ("pkt_boundary", _NONE),
    ("pkt_needs_rc", False),
    ("pkt_hops", 0),
)


class VectorKernel(CycleKernel):
    """Array-sweep execution of the cycle semantics (requires numpy)."""

    name = "vector"

    def __init__(self, sims: Sequence["Simulator"]):
        super().__init__(sims)
        import numpy as np

        self._np = np
        lead = self.sims[0]
        self.system = lead.system
        self.config = lead.config
        self.algos = [sim.algorithm for sim in self.sims]
        self.traffic = [sim.traffic for sim in self.sims]
        self.stats = [sim.stats for sim in self.sims]
        assert lead.routes is not None, "vector kernel requires compiled routes"
        self._routes = lead.routes
        self._dense = lead.routes.dense_table()
        self._anchors = lead.routes._anchors
        self._vn_vcs = partition_vcs(self.config.num_vcs)
        self._vl_ser = self.config.vl_serialization

        P, V, D = NUM_PORTS, self.config.num_vcs, self.config.buffer_depth
        R, N = len(self.system.routers), len(self.sims)
        self._P, self._V, self._D, self._R, self._N = P, V, D, R, N
        self._PV = self._rr_mod = P * V
        self._CPM = R * P * V  # channels per member
        self._multi = N > 1

        # -- static topology arrays (one member, then tiled) -------------
        layer = np.array([r.layer for r in self.system.routers], dtype=np.int64)
        # (router, out_port) -> destination channel base ((dst*P+in)*V), -1 none
        link = np.full(R * P, -1, dtype=np.int64)
        # (router, in_port) -> upstream channel base to credit, -1 for LOCAL
        upstream = np.full(R * P, -1, dtype=np.int64)
        vl_of = np.full(R, -1, dtype=np.int64)
        send_dir = np.zeros(R, dtype=np.int64)
        for router in self.system.routers:
            rid = router.id
            for direction, neighbor in router.neighbors.items():
                d = int(direction)
                base = (neighbor * P + int(opposite_port(Port(d)))) * V
                link[rid * P + d] = upstream[rid * P + d] = base
            if router.vertical_neighbor is not None:
                base = (router.vertical_neighbor * P + _VERT) * V
                link[rid * P + _VERT] = upstream[rid * P + _VERT] = base
            if router.vl_index is not None:
                vl_of[rid] = router.vl_index
            send_dir[rid] = int(
                VLDirection.UP if router.is_interposer else VLDirection.DOWN
            )

        def tile(arr, stride):
            out = np.tile(arr, N)
            shift = np.repeat(np.arange(N, dtype=np.int64) * stride, arr.size)
            return np.where(out >= 0, out + shift, -1)

        self.layer_arr = np.tile(layer, N)
        self.link_base = tile(link, self._CPM)
        self.upstream_base = tile(upstream, self._CPM)
        self._nvl = max(len(self.system.vls), 1)
        self.vl_of = tile(vl_of, self._nvl)
        self.vl_send_dir = np.tile(send_dir, N)
        self._regions = int(layer.max()) + 2 if R else 1
        # router -> row of its member's (layer + 1) in the VC-flit shadow
        self.region_arr = tile(layer + 1, self._regions)

        # -- channel state ----------------------------------------------
        NC = N * self._CPM
        self.buf = np.zeros((NC, D), dtype=np.int64)  # circular fid queues
        self.bhead = np.zeros(NC, dtype=np.int64)
        self.blen = np.zeros(NC, dtype=np.int64)
        self.chan_active = np.zeros(NC, dtype=bool)  # invariant: blen > 0
        self.credits_arr = np.full(NC, D, dtype=np.int64)
        self.owner_arr = np.full(NC, -1, dtype=np.int64)  # packet id
        self.asg_port = np.full(NC, _NONE, dtype=np.int64)  # -1 = RC
        self.asg_vc = np.zeros(NC, dtype=np.int64)
        self.dec_port = np.full(NC, _NONE, dtype=np.int64)
        self.dec_code = np.zeros(NC, dtype=np.int64)
        self.sa_rr = np.zeros(N * R, dtype=np.int64)
        self.vl_next_free = np.zeros(N * R, dtype=np.int64)

        # -- packet / flit registries ------------------------------------
        self.pkt_objs: list[Packet | None] = []
        for field, fill in _PKT_FIELDS:
            setattr(self, field, np.full(0, fill))
        self.pkt_flits: list[list | None] = []  # flit objects once started
        self._S = self.config.packet_size

        # -- objects that stay objects -----------------------------------
        self.nics = [Nic(r.id) for _ in range(N) for r in self.system.routers]
        self.rc_buffers: list[RcBuffer | None] = [
            RcBuffer() if algo.uses_rc_buffer(r.id) else None
            for algo in self.algos
            for r in self.system.routers
        ]
        self._rc_units = [(r, u) for r, u in enumerate(self.rc_buffers) if u is not None]
        self.has_rc = np.array([u is not None for u in self.rc_buffers], dtype=bool)
        self.busy_nics: set[int] = set()
        #: Busy NICs blocked on a full LOCAL channel, skipped by `_inject`
        #: until `_send_winners` pops a LOCAL input of theirs (never snapshot).
        self.stalled_nics: set[int] = set()

        # Staged events, keyed by materialization cycle; values are lists
        # of (dest-channel array, fid array) / flat-channel index arrays.
        self.arrivals: dict[int, list] = {}
        self.credit_arrivals: dict[int, list] = {}

        # -- run counters (per member) ------------------------------------
        self.cycle = 0
        self.packet_counter = [0] * N
        self.measured_outstanding = [0] * N
        self.flits_in_flight = np.zeros(N, dtype=np.int64)
        self.last_progress = np.zeros(N, dtype=np.int64)

        # -- stats shadows (folded into the members' stats lazily) --------
        self.shadow_vc = np.zeros((N * self._regions, V), dtype=np.int64)
        self.shadow_vl = np.zeros((N * self._nvl, 2), dtype=np.int64)
        self._vc_dirty = False
        self._vl_dirty = False

        # -- decision-code mirrors (parallel to dense.decisions) ----------
        self._code_ports: list[int] = []
        self._code_vns: list[tuple[int, ...]] = []
        self.code_port_arr = np.zeros(0, dtype=np.int64)
        self.code_vnmask = np.zeros((0, V), dtype=bool)

        # -- scratch -------------------------------------------------------
        self._used = np.zeros(N * R * P, dtype=bool)
        self._vcr = np.arange(V, dtype=np.int64)
        self._mat: dict[int, SimState] = {}

        # -- telemetry ----------------------------------------------------
        self._table_decisions = np.zeros(N, dtype=np.int64)
        self._live_decisions = [0] * N

    # ------------------------------------------------------------------
    # engine-facing surface
    # ------------------------------------------------------------------

    def router_states(self, member: int) -> list["RouterView"]:
        return self._materialize(member).router_views()

    def nic_states(self, member: int) -> list[Nic]:
        return self.nics[member * self._R : (member + 1) * self._R]

    def snapshot(self, member: int) -> tuple:
        self._fold_stats()
        return snapshot_state(self._materialize(member), self.stats[member])

    def is_idle(self) -> bool:
        return (
            not self.busy_nics
            and not bool(self.chan_active.any())
            and not any(unit.flits for _, unit in self._rc_units)
        )

    def next_event_cycle(self) -> int | None:
        dues = list(self.arrivals) + list(self.credit_arrivals)
        return min(dues) if dues else None

    def fast_forward(self, cycle: int) -> None:
        assert cycle > self.cycle
        self.cycle = cycle
        self._mat.clear()

    def finalize(self) -> None:
        self._fold_stats()

    def dispatch_counts(self, member: int) -> tuple[int, int]:
        return (int(self._table_decisions[member]), self._live_decisions[member])

    def retire(self, member: int) -> None:
        """Drop a member's channels, NICs, RC units and staged events from
        the sweeps. A batch's last member keeps everything, so a solo run
        ends with exactly the state it stepped to."""
        super().retire(member)
        if not self.live:
            return
        lo, hi = member * self._CPM, (member + 1) * self._CPM
        rlo, rhi = member * self._R, (member + 1) * self._R
        self.chan_active[lo:hi] = False
        self.busy_nics = {n for n in self.busy_nics if not rlo <= n < rhi}
        self.stalled_nics &= self.busy_nics
        self._rc_units = [(r, u) for r, u in self._rc_units if not rlo <= r < rhi]

        def outside(chans):
            return (chans < lo) | (chans >= hi)

        arrivals = {
            due: [(dc[k], fid[k]) for dc, fid in batch if (k := outside(dc)).any()]
            for due, batch in self.arrivals.items()
        }
        credits = {
            due: [idx[k] for idx in batch if (k := outside(idx)).any()]
            for due, batch in self.credit_arrivals.items()
        }
        self.arrivals = {due: batch for due, batch in arrivals.items() if batch}
        self.credit_arrivals = {due: batch for due, batch in credits.items() if batch}

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------

    def step(self, generate: bool) -> None:
        self._mat.clear()
        if generate:
            self._generate_traffic()
        self._inject()
        req_chan, rcq = self._plan()
        transfers, credits = self._serve(req_chan, rcq)
        self._commit(transfers, credits)
        self._check_watchdog()
        self.cycle += 1

    def _progress(self, chans) -> None:
        """Stamp this cycle as progress for the members owning ``chans``."""
        if self._multi:
            self.last_progress[chans // self._CPM] = self.cycle
        else:
            self.last_progress[0] = self.cycle

    # -- traffic and injection (cold path, plain Python) -----------------

    def _generate_traffic(self) -> None:
        cycle = self.cycle
        measured = cycle >= self.config.warmup_cycles
        for m in self.live:
            base = m * self._R
            stats = self.stats[m]
            for src, dst in self.traffic[m].packets_for_cycle(cycle):
                packet = Packet(self.packet_counter[m], src, dst, self._S, cycle)
                self.packet_counter[m] += 1
                packet.measured = measured
                stats.on_packet_created(measured)
                if measured:
                    self.measured_outstanding[m] += 1
                self._register_packet(packet, m)
                self.nics[base + src].enqueue(packet)
                self.busy_nics.add(base + src)

    def _register_packet(self, packet: Packet, m: int) -> None:
        gid = packet.id * self._N + m
        if gid >= len(self.pkt_dst):
            self._grow_packets(gid + 1)
        if gid >= len(self.pkt_objs):
            pad = [None] * (gid + 1 - len(self.pkt_objs))
            self.pkt_objs.extend(pad)
            self.pkt_flits.extend(pad)
        self.pkt_objs[gid] = packet
        self.pkt_dst[gid] = packet.dst

    def _grow_packets(self, need: int) -> None:
        cap = max(need, 2 * len(self.pkt_dst), 256)
        for field, fill in _PKT_FIELDS:
            old = getattr(self, field)
            new = self._np.full(cap, fill)
            new[: old.size] = old
            setattr(self, field, new)

    def _inject(self) -> None:
        np = self._np
        stalled = self.stalled_nics
        done: list[int] = []
        cand: list[int] = []
        cand_c: list[int] = []
        cand_pid: list[int] = []
        cand_seq: list[int] = []
        P, V, R, N = self._P, self._V, self._R, self._N
        # Stalled NICs (backpressured on a full LOCAL channel) cannot
        # change until `_send_winners` pops one of their channels; drop
        # them before the sort — under saturation they are the majority.
        for nid in sorted(self.busy_nics - stalled):
            nic = self.nics[nid]
            m = nid // R
            if nic.current_flits is None:
                if not self._start_next_packet(nic, m):
                    if not nic.queue:
                        done.append(nid)
                    continue
            cand.append(nid)
            cand_c.append((nid * P + _LOCAL) * V + nic.inject_vc)
            cand_pid.append(nic.current_flits[0].packet.id * N + m)
            cand_seq.append(nic.current_index)
        if cand:
            # Channels are distinct (one NIC per router), so the batch
            # is equivalent to the sequential per-NIC insertion.
            carr = np.array(cand_c, dtype=np.int64)
            lens = self.blen[carr]
            room = lens < self._D
            for i in np.flatnonzero(~room):
                stalled.add(cand[i])
            ok = np.flatnonzero(room)
            if ok.size:
                oc = carr[ok]
                fids = (
                    np.array(cand_pid, dtype=np.int64)[ok] * self._S
                    + np.array(cand_seq, dtype=np.int64)[ok]
                )
                self.buf[oc, (self.bhead[oc] + lens[ok]) % self._D] = fids
                self.blen[oc] += 1
                self.chan_active[oc] = True
                if self._multi:
                    np.add.at(self.flits_in_flight, oc // self._CPM, 1)
                else:
                    self.flits_in_flight[0] += ok.size
                self._progress(oc)
                for i in ok:
                    nid = cand[i]
                    nic = self.nics[nid]
                    nic.advance()
                    if nic.current_flits is None and not nic.queue:
                        done.append(nid)
        for nid in done:
            self.busy_nics.discard(nid)

    def _start_next_packet(self, nic: Nic, m: int) -> bool:
        algo = self.algos[m]
        while nic.queue:
            packet = nic.queue[0]
            if not algo.is_routable(packet.src, packet.dst):
                nic.queue.popleft()
                self._drop(packet, m)
                continue
            if not algo.may_inject(packet, self.cycle):
                return False  # head-of-line wait (RC permission network)
            try:
                algo.prepare_packet(packet)
            except UnroutablePacketError:
                nic.queue.popleft()
                self._drop(packet, m)
                continue
            nic.queue.popleft()
            vc = self._injection_vc(packet, m)
            nic.start_packet(packet, vc, self.cycle)
            self._register_start(packet, nic, m)
            return True
        return False

    def _drop(self, packet: Packet, m: int) -> None:
        self.stats[m].on_packet_dropped(packet.measured)
        if packet.measured:
            self.measured_outstanding[m] -= 1

    def _injection_vc(self, packet: Packet, m: int) -> int:
        base = ((m * self._R + packet.src) * self._P + _LOCAL) * self._V
        return min(self._vn_vcs[packet.vn], key=lambda v: int(self.blen[base + v]))

    def _register_start(self, packet: Packet, nic: Nic, m: int) -> None:
        """Mirror the packet's bound routing state after ``prepare_packet``."""
        pid = packet.id * self._N + m
        self.pkt_vn[pid] = packet.vn
        self.pkt_down[pid] = -1 if packet.down_vl is None else packet.down_vl
        self.pkt_up[pid] = -1 if packet.up_vl is None else packet.up_vl
        self.pkt_needs_rc[pid] = bool(packet.needs_rc)
        boundary = self.algos[m].stateful_boundary_router(packet)
        self.pkt_boundary[pid] = _NONE if boundary is None else boundary
        self.pkt_flits[pid] = nic.current_flits

    # -- plan -------------------------------------------------------------

    def _plan(self):
        """Decisions, RC claims, VC allocations, SA-request eligibility."""
        np = self._np
        act = np.flatnonzero(self.chan_active)  # ascending == canonical order
        if not act.size:
            return act, act
        # Only channels without an assignment can need planning; under
        # load that is a small minority, so gather their fronts only.
        na = act[self.asg_port[act] == _NONE]
        front = self.buf[na, self.bhead[na]]
        sel = front % self._S == 0  # head flits
        consider = na[sel]
        cfront = front[sel]
        if consider.size:
            have = self.dec_port[consider] != _NONE
            if not have.all():
                self._compute_decisions(consider[~have], cfront[~have])
            self._claim_and_allocate(consider, cfront)
        # -- build SA requests over the (possibly updated) assignments
        ap = self.asg_port[act]
        rcq = act[ap == RC_PORT]
        am = ap >= 0
        a_chan = act[am]
        a_out = ap[am]
        ok = np.ones(a_chan.size, dtype=bool)
        nl = a_out != _LOCAL
        ar = a_chan // self._PV
        oc = (ar * self._P + a_out) * self._V + self.asg_vc[a_chan]
        ok[nl] = self.credits_arr[oc[nl]] > 0
        if self._vl_ser > 1:
            vm = nl & (a_out == _VERT)
            ok[vm] &= self.cycle >= self.vl_next_free[ar[vm]]
        return a_chan[ok], rcq

    def _compute_decisions(self, chans, fids) -> None:
        """Route fresh heads: one dense batch plus ordered live fallbacks."""
        np = self._np
        routes = self._routes
        fault_state = self.algos[0].fault_state
        if fault_state is not routes._fault_state:
            routes._rebind(fault_state)
        pids = fids // self._S
        r = chans // self._PV
        rl = r % self._R if self._multi else r  # member-local router
        in_port = (chans // self._V) % self._P
        dst = self.pkt_dst[pids]
        rlayer = self.layer_arr[r]
        n = chans.size
        phase = np.zeros(n, dtype=np.int64)
        anchor = np.zeros(n, dtype=np.int64)
        live = np.zeros(n, dtype=bool)
        same = rlayer == self.layer_arr[dst]
        phase[same] = PHASE_TO_DST
        anchor[same] = dst[same]
        interp = ~same & (rlayer == INTERPOSER_LAYER)
        up = self.pkt_up[pids]
        live |= interp & (up < 0)  # up-VL binds inside the live call
        okup = interp & (up >= 0)
        phase[okup] = PHASE_TO_UP
        anchor[okup] = up[okup]
        downp = ~same & ~interp
        down = self.pkt_down[pids]
        live |= downp & (down < 0)  # live path raises the descriptive error
        okdown = downp & (down >= 0)
        phase[okdown] = PHASE_TO_DOWN
        anchor[okdown] = down[okdown]
        boundary = self.pkt_boundary[pids]
        live |= (boundary == _NONE) | (boundary == rl)  # stateful hops
        table = ~live
        if table.any():
            key = (
                (phase[table] * self._anchors + anchor[table]) * self._R + rl[table]
            ) * (self._P * 2) + in_port[table] * 2 + self.pkt_vn[pids[table]]
            self._dense.maybe_resync()
            codes, found = self._dense.lookup(key)
            tchans = chans[table]
            hit = tchans[found]
            self.dec_code[hit] = codes[found]
            if self._multi:
                self._table_decisions += np.bincount(hit // self._CPM, minlength=self._N)
            else:
                self._table_decisions[0] += hit.size
            miss = np.flatnonzero(table)[~found]
            live[miss] = True
        for i in np.flatnonzero(live):  # ascending channels == canonical
            c = int(chans[i])
            pid = int(pids[i])
            m = c // self._CPM
            packet = self.pkt_objs[pid]
            assert packet is not None
            decision = routes.route(packet, int(rl[i]), Port(int(in_port[i])), self.algos[m])
            self.dec_code[c] = self._dense.code_for(decision)
            self._live_decisions[m] += 1
            if packet.up_vl is not None:  # the live call may have bound it
                self.pkt_up[pid] = packet.up_vl
        self._sync_codes()
        self.dec_port[chans] = self.code_port_arr[self.dec_code[chans]]

    def _sync_codes(self) -> None:
        """Track the dense table's decision interning with numpy mirrors."""
        decs = self._dense.decisions
        if len(decs) == len(self._code_ports):
            return
        np = self._np
        for i in range(len(self._code_ports), len(decs)):
            d = decs[i]
            self._code_ports.append(int(d.out_port))
            self._code_vns.append(tuple(int(v) for v in d.allowed_vns))
        self.code_port_arr = np.array(self._code_ports, dtype=np.int64)
        mask = np.zeros((len(decs), self._V), dtype=bool)
        # First-fit walk order (vn preference major, vn's vc order minor)
        # as ranks, so an uncontended allocation is argmin(rank) over the
        # free VCs — identical to the reference's nested-loop walk.
        rank = np.full((len(decs), self._V), _RANK_INF, dtype=np.int16)
        walk_vn = np.zeros((len(decs), self._V), dtype=np.int16)
        for i, vns in enumerate(self._code_vns):
            step = 0
            for vn in vns:
                for vc in self._vn_vcs[vn]:
                    mask[i, vc] = True
                    if rank[i, vc] == _RANK_INF:
                        rank[i, vc] = step
                        walk_vn[i, vc] = vn
                    step += 1
        self.code_vnmask = mask
        self.code_vc_rank = rank
        self.code_vc_vn = walk_vn

    def _claim_and_allocate(self, consider, cfront) -> None:
        np = self._np
        pidc = cfront // self._S
        outp = self.dec_port[consider]
        rc_mask = (outp == _VERT) & self.has_rc[consider // self._PV] & self.pkt_needs_rc[pidc]
        for i in np.flatnonzero(rc_mask):  # ascending == canonical
            c = int(consider[i])
            unit = self.rc_buffers[c // self._PV]
            assert unit is not None
            packet = self.pkt_objs[int(pidc[i])]
            if unit.owner is None:
                unit.owner = packet
            if unit.owner is packet:
                self.asg_port[c] = RC_PORT
                self.asg_vc[c] = 0
        al = consider[~rc_mask]
        al_front = cfront[~rc_mask]
        if not al.size:
            return
        out = self.dec_port[al]
        loc = out == _LOCAL
        self.asg_port[al[loc]] = _LOCAL
        self.asg_vc[al[loc]] = 0
        rest = al[~loc]
        if not rest.size:
            return
        rest_front = al_front[~loc]
        base = (rest // self._PV * self._P + self.dec_port[rest]) * self._V
        owners = self.owner_arr[base[:, None] + self._vcr]
        allowed = self.code_vnmask[self.dec_code[rest]]
        # Owners are only claimed (never freed) during plan, so a channel
        # with no free allowed VC now cannot gain one before its turn —
        # the filter only skips channels the first-fit would reject.
        feasible = ((owners < 0) & allowed).any(axis=1)
        feas = np.flatnonzero(feasible)
        if not feas.size:
            return
        # Rows alone on their (router, out port) cannot contend for VCs
        # with any other row this cycle, so their first-fit walks are
        # independent and vectorize as argmin over the walk-rank table.
        fbase = base[feas]
        contended = np.bincount(fbase)[fbase] > 1
        solo = feas[~contended]
        if solo.size:
            codes_s = self.dec_code[rest[solo]]
            crank = np.where(owners[solo] < 0, self.code_vc_rank[codes_s], _RANK_INF)
            vc = crank.argmin(axis=1)
            pid_s = rest_front[solo] // self._S
            self.owner_arr[base[solo] + vc] = pid_s
            vns = self.code_vc_vn[codes_s, vc]
            self.pkt_vn[pid_s] = vns
            self.asg_port[rest[solo]] = self.code_port_arr[codes_s]
            self.asg_vc[rest[solo]] = vc
            for pid, vn in zip(pid_s.tolist(), vns.tolist()):
                self.pkt_objs[pid].vn = vn
        for i in feas[contended]:  # ascending == canonical
            c = int(rest[i])
            b = int(base[i])
            code = int(self.dec_code[c])
            pid = int(rest_front[i]) // self._S
            for vn in self._code_vns[code]:  # first fit, walk order
                vc = next((v for v in self._vn_vcs[vn] if self.owner_arr[b + v] < 0), None)
                if vc is not None:
                    self.owner_arr[b + vc] = pid
                    self.pkt_objs[pid].vn = self.pkt_vn[pid] = vn
                    self.asg_port[c] = self._code_ports[code]
                    self.asg_vc[c] = vc
                    break

    # -- serve ------------------------------------------------------------

    def _serve(self, req_chan, rcq):
        np = self._np
        transfers_dc: list = []
        transfers_fid: list = []
        credit_idx: list = []
        used = self._used
        used[:] = False
        if req_chan.size:
            r = req_chan // self._PV
            inp = (req_chan // self._V) % self._P
            vcs = req_chan % self._V
            out = self.asg_port[req_chan]
            # Arbitration rank under the *post-increment* round-robin
            # pointer: every requesting router's pointer advances by
            # exactly one this cycle, so the incremented value is
            # ``sa_rr[r] + 1`` and the rank is computable before the
            # sort — letting one lexsort produce both the (router, out)
            # grouping and the within-group arbitration order.
            arb = (inp * self._V + vcs - self.sa_rr[r] - 1) % self._rr_mod
            order = np.lexsort((arb, out, r))
            ro, oo = r[order], out[order]
            newg = np.empty(ro.size, dtype=bool)
            newg[0] = True
            newg[1:] = (ro[1:] != ro[:-1]) | (oo[1:] != oo[:-1])
            gid = np.cumsum(newg) - 1
            gfirst = np.flatnonzero(newg)
            g_r = ro[gfirst]
            newr = np.empty(g_r.size, dtype=bool)
            newr[0] = True
            newr[1:] = g_r[1:] != g_r[:-1]
            rfirst = np.flatnonzero(newr)
            r_ids = g_r[rfirst]
            r_gcount = np.diff(np.append(rfirst, g_r.size))
            off = self.sa_rr[r_ids] % r_gcount
            self.sa_rr[r_ids] += 1
            g_rank = np.arange(g_r.size) - np.repeat(rfirst, r_gcount)
            g_nouts = np.repeat(r_gcount, r_gcount)
            g_round = (g_rank - np.repeat(off, r_gcount)) % g_nouts
            req_round = g_round[gid]
            inflat = ro * self._P + inp[order]
            # The ordered arrays are already sorted by (group, arb), so
            # each round only filters by round tag and input availability
            # — a boolean selection preserves the arbitration order, and
            # the first eligible entry of each group is its winner.
            win_parts = []
            for t in range(int(g_round.max()) + 1):
                elig = (req_round == t) & ~used[inflat]
                if not elig.any():
                    continue
                sk = np.flatnonzero(elig)
                gk = gid[sk]
                firsts = np.empty(sk.size, dtype=bool)
                firsts[0] = True
                firsts[1:] = gk[1:] != gk[:-1]
                w = sk[firsts]
                used[inflat[w]] = True
                win_parts.append(w)
            if win_parts:
                win = np.concatenate(win_parts)
                self._send_winners(
                    req_chan[order][win],
                    ro[win],
                    oo[win],
                    inp[order][win],
                    vcs[order][win],
                    transfers_dc,
                    transfers_fid,
                    credit_idx,
                )
        if rcq.size:
            self._absorb_rc(rcq, used, credit_idx)
        self._drain_rc(transfers_dc, transfers_fid)
        return (transfers_dc, transfers_fid), credit_idx

    def _send_winners(
        self, wc, wr, wo, wi, wv, transfers_dc, transfers_fid, credit_idx
    ) -> None:
        np = self._np
        fid = self.buf[wc, self.bhead[wc]]
        self.bhead[wc] = (self.bhead[wc] + 1) % self._D
        self.blen[wc] -= 1
        self.chan_active[wc] = self.blen[wc] > 0
        self._progress(wc)
        lm = wi == _LOCAL
        if lm.any() and self.stalled_nics:
            # A LOCAL input popped: its NIC may have space again.
            self.stalled_nics.difference_update(wr[lm].tolist())
        upm = wi != _LOCAL
        if upm.any():
            credit_idx.append(self.upstream_base[wr[upm] * self._P + wi[upm]] + wv[upm])
        seq = fid % self._S
        heads = seq == 0
        tails = seq == self._S - 1
        em = wo == _LOCAL
        if em.any():
            eidx = np.flatnonzero(em)
            eidx = eidx[np.argsort(wr[eidx], kind="stable")]  # router order
            for i in eidx:
                self._eject(int(fid[i]), int(wr[i]) // self._R)
        tm = ~em
        if tm.any():
            tc = wc[tm]
            tr = wr[tm]
            to = wo[tm]
            tvc = self.asg_vc[tc]
            oc = (tr * self._P + to) * self._V + tvc
            self.credits_arr[oc] -= 1
            dc = self.link_base[tr * self._P + to] + tvc
            transfers_dc.append(dc)
            transfers_fid.append(fid[tm])
            hp = fid[tm][heads[tm]] // self._S
            self.pkt_hops[hp] += 1  # one head per packet per cycle: no dupes
            vm = to == _VERT
            if vm.any():
                vr = tr[vm]  # one VERTICAL group per router: no dupes
                self.shadow_vl[self.vl_of[vr], self.vl_send_dir[vr]] += 1
                self._vl_dirty = True
                if self._vl_ser > 1:
                    self.vl_next_free[vr] = self.cycle + self._vl_ser
            tl = tails[tm]
            self.owner_arr[oc[tl]] = -1
        done = wc[tails]
        self.asg_port[done] = _NONE
        self.dec_port[done] = _NONE

    def _flit(self, fid: int):
        return self.pkt_flits[fid // self._S][fid % self._S]

    def _eject(self, fid: int, m: int) -> None:
        flit = self._flit(fid)
        packet = flit.packet
        packet.flits_ejected += 1
        self.flits_in_flight[m] -= 1
        if flit.is_tail:
            pid = packet.id * self._N + m
            packet.delivered_cycle = self.cycle
            packet.hops = int(self.pkt_hops[pid])
            latency = packet.delivered_cycle - packet.created_cycle
            self.stats[m].on_packet_delivered(latency, packet.hops, packet.measured)
            self.algos[m].on_packet_delivered(packet, self.cycle)
            if packet.measured:
                self.measured_outstanding[m] -= 1
            self.pkt_objs[pid] = self.pkt_flits[pid] = None

    def _absorb_rc(self, rcq, used, credit_idx) -> None:
        np = self._np
        rr = rcq // self._PV
        first = np.empty(rcq.size, dtype=bool)
        first[0] = True
        first[1:] = rr[1:] != rr[:-1]
        for c64 in rcq[first]:  # ascending routers, lowest channel each
            c = int(c64)
            rid = c // self._PV
            port = (c // self._V) % self._P
            if used[rid * self._P + port]:
                continue
            unit = self.rc_buffers[rid]
            assert unit is not None
            if not self.blen[c]:
                continue
            fid = int(self.buf[c, self.bhead[c]])
            self.bhead[c] = (self.bhead[c] + 1) % self._D
            self.blen[c] -= 1
            self.chan_active[c] = self.blen[c] > 0
            if port != _LOCAL:
                vc = c % self._V
                credit_idx.append(
                    self.upstream_base[rid * self._P + port : rid * self._P + port + 1]
                    + vc
                )
            flit = self._flit(fid)
            unit.flits.append(flit)
            self.last_progress[rid // self._R] = self.cycle
            if flit.is_tail:
                unit.complete = True
                self.asg_port[c] = _NONE
                self.dec_port[c] = _NONE

    def _drain_rc(self, transfers_dc, transfers_fid) -> None:
        np = self._np
        N = self._N
        for rid, unit in self._rc_units:  # ascending router order
            if not unit.complete or not unit.flits:
                continue
            m = rid // self._R
            vbase = (rid * self._P + _VERT) * self._V
            if unit.out_vc is None:
                owner = unit.owner
                assert owner is not None
                for vc in range(self._V):
                    if self.owner_arr[vbase + vc] < 0:
                        self.owner_arr[vbase + vc] = owner.id * N + m
                        unit.out_vc = vc
                        break
                if unit.out_vc is None:
                    continue
            out_vc = unit.out_vc
            if self.credits_arr[vbase + out_vc] <= 0:
                continue
            if self._vl_ser > 1 and self.cycle < self.vl_next_free[rid]:
                continue
            flit = unit.flits.popleft()
            pid = flit.packet.id * N + m
            self.credits_arr[vbase + out_vc] -= 1
            dc = int(self.link_base[rid * self._P + _VERT]) + out_vc
            fid = pid * self._S + flit.seq
            transfers_dc.append(np.array([dc], dtype=np.int64))
            transfers_fid.append(np.array([fid], dtype=np.int64))
            self.last_progress[m] = self.cycle
            if flit.is_head:
                self.pkt_hops[pid] += 1
            self.shadow_vl[self.vl_of[rid], int(VLDirection.DOWN)] += 1
            self._vl_dirty = True
            if self._vl_ser > 1:
                self.vl_next_free[rid] = self.cycle + self._vl_ser
            if flit.is_tail:
                self.owner_arr[vbase + out_vc] = -1
                packet = unit.owner
                assert packet is not None
                unit.reset()
                self.algos[m].on_rc_buffer_drained(
                    rid - m * self._R, packet, self.cycle
                )

    # -- commit ------------------------------------------------------------

    def _commit(self, transfers, credit_idx) -> None:
        np = self._np
        transfers_dc, transfers_fid = transfers
        if transfers_dc:
            due = self.cycle + self.config.hop_latency - 1
            self.arrivals.setdefault(due, []).append(
                (np.concatenate(transfers_dc), np.concatenate(transfers_fid))
            )
        if credit_idx:
            due = self.cycle + self.config.credit_latency - 1
            self.credit_arrivals.setdefault(due, []).append(
                np.concatenate(credit_idx)
            )
        batches = self.arrivals.pop(self.cycle, None)
        if batches:
            if len(batches) == 1:
                dc, fid = batches[0]
            else:
                dc = np.concatenate([b[0] for b in batches])
                fid = np.concatenate([b[1] for b in batches])
            # Destination channels are unique within a cycle (1:1 links,
            # one send per (router, out port)), so plain fancy writes work.
            slot = (self.bhead[dc] + self.blen[dc]) % self._D
            self.buf[dc, slot] = fid
            self.blen[dc] += 1
            self.chan_active[dc] = True
            np.add.at(self.shadow_vc, (self.region_arr[dc // self._PV], dc % self._V), 1)
            self._vc_dirty = True
        credits = self.credit_arrivals.pop(self.cycle, None)
        if credits:
            idx = credits[0] if len(credits) == 1 else np.concatenate(credits)
            np.add.at(self.credits_arr, idx, 1)

    # -- stats fold --------------------------------------------------------

    def _fold_stats(self) -> None:
        """Flush the shadow accumulators into the members' StatsCollectors.

        Folding is lazy: ``step`` only accumulates into the numpy shadows
        and the flush happens at observation points — ``snapshot()`` and
        ``finalize()`` (the engine finalizes after every run loop and at
        the end of ``run_cycles``). Addition commutes, so deferring the
        flush never changes the totals the collectors report. Every
        arrival is one flit-hop, so flit-hops fold from the VC shadow.
        """
        np = self._np
        if self._vc_dirty:
            for row, vci in zip(*np.nonzero(self.shadow_vc)):
                m, region = divmod(int(row), self._regions)
                count = int(self.shadow_vc[row, vci])
                self.stats[m].vc_flits[region - 1][int(vci)] += count
                self.stats[m].flit_hops += count
            self.shadow_vc[:] = 0
            self._vc_dirty = False
        if self._vl_dirty:
            for row, diri in zip(*np.nonzero(self.shadow_vl)):
                m, vli = divmod(int(row), self._nvl)
                self.stats[m].vl_flits[(vli, int(diri))] += int(self.shadow_vl[row, diri])
            self.shadow_vl[:] = 0
            self._vl_dirty = False

    # -- watchdog ----------------------------------------------------------

    def _check_watchdog(self) -> None:
        limit = self.config.watchdog_cycles
        if limit <= 0:
            return
        fif, lp = self.flits_in_flight, self.last_progress
        tripped = [m for m in self.live if fif[m] > 0 and self.cycle - lp[m] >= limit]
        if not tripped:
            return
        if len(tripped) == len(self.live):
            m = tripped[0]
            raise DeadlockError(int(lp[m]), int(fif[m]))
        for m in tripped:
            self.deadlocked.add(m)
            self.retire(m)

    # -- object-state materialization --------------------------------------

    def _materialize(self, m: int) -> SimState:
        """An object-based :class:`SimState` equal to member ``m``'s arrays.

        Memoized until the next ``step``; the result is a *copy* —
        mutations through it do not reach the arrays.
        """
        st = self._mat.get(m)
        if st is not None:
            return st
        np = self._np
        N, R, CPM = self._N, self._R, self._CPM
        rlo, clo = m * R, m * CPM
        st = SimState(self.system, self.algos[m], self.config)
        st.cycle = self.retired_at.get(m, self.cycle)
        st.packet_counter = self.packet_counter[m]
        st.flits_in_flight = int(self.flits_in_flight[m])
        st.last_progress = int(self.last_progress[m])
        st.measured_outstanding = self.measured_outstanding[m]
        st.sa_rr = self.sa_rr[rlo : rlo + R].tolist()
        st.rc_buffers = self.rc_buffers[rlo : rlo + R]
        st.nics = self.nics[rlo : rlo + R]
        st.busy_nics = {n - rlo for n in self.busy_nics if rlo <= n < rlo + R}
        for pid in range(m, self.packet_counter[m] * N, N):
            packet = self.pkt_objs[pid]
            if packet is not None:
                packet.hops = int(self.pkt_hops[pid])
        P, V, PV, D = self._P, self._V, self._PV, self._D
        span = slice(clo, clo + CPM)

        def where(mask):
            for c64 in np.flatnonzero(mask):
                c = int(c64)
                yield c + clo, c // PV, (c // V) % P, c % V

        for g, rid, port, vc in where(self.blen[span] > 0):
            dq = st.buffers[rid][port][vc]
            head, length = int(self.bhead[g]), int(self.blen[g])
            for i in range(length):
                dq.append(self._flit(int(self.buf[g, (head + i) % D])))
            st.active[rid].add((port, vc))
            st.active_routers.add(rid)
        for g, rid, port, vc in where(self.asg_port[span] != _NONE):
            ap = int(self.asg_port[g])
            st.assigned[rid][port][vc] = (
                (RC_PORT, 0) if ap == RC_PORT else (ap, int(self.asg_vc[g]))
            )
        for g, rid, port, vc in where(self.dec_port[span] != _NONE):
            st.decision[rid][port][vc] = self._dense.decisions[int(self.dec_code[g])]
        for g, rid, port, vc in where(self.owner_arr[span] >= 0):
            st.out_owner[rid][port][vc] = self.pkt_objs[int(self.owner_arr[g])]
        for g, rid, port, vc in where(self.credits_arr[span] != D):
            st.credits[rid][port][vc] = int(self.credits_arr[g])
        st.active_routers.update(r for r, u in enumerate(st.rc_buffers) if u and u.flits)
        for due, batch in self.arrivals.items():
            for dc_arr, fid_arr in batch:
                for dc64, fid64 in zip(dc_arr, fid_arr):
                    dc = int(dc64) - clo
                    if 0 <= dc < CPM:
                        st.arrivals.setdefault(due, []).append(
                            (dc // PV, (dc // V) % P, dc % V, self._flit(int(fid64)))
                        )
        for due, batch in self.credit_arrivals.items():
            for idx_arr in batch:
                for f64 in idx_arr:
                    f = int(f64) - clo
                    if 0 <= f < CPM:
                        st.credit_arrivals.setdefault(due, []).append(
                            (f // PV, (f // V) % P, f % V)
                        )
        busy_until = self.vl_next_free[rlo : rlo + R].tolist()
        st.vl_next_free = {rid: free for rid, free in enumerate(busy_until) if free > 0}
        self._mat[m] = st
        return st
