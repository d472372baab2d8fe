"""Compiled route tables: ahead-of-time routing for the online hot path.

The paper's own structure (Section III) is an *offline* table optimization
consumed by a cheap *online* lookup — Algorithm 2 runs at design time, the
router just indexes a LUT. The simulator, however, recomputes every
decision per head flit per hop through Python virtual dispatch, and the
analyses re-derive the same routes pair by pair. :class:`CompiledRoutes`
closes that gap for the whole algorithm contract:

* **Route table** — for a fixed (algorithm, :class:`System`,
  :class:`FaultState`), a flat mapping from the route-determining state
  ``(routing phase, bound intermediate target, router, input port,
  virtual network)`` to the :class:`RouteDecision` the live
  :meth:`~repro.routing.base.RoutingAlgorithm.route` returns. Entries are
  compiled *through the live implementation* on first use, so the table
  is bit-identical to per-hop dispatch by construction, and filled lazily
  so compilation never costs more than the traffic actually routed.
* **Fallback path** — hops whose decision depends on online mutable
  state (DeFT's boundary VN round-robin, flagged via
  :meth:`~repro.routing.base.RoutingAlgorithm.route_is_stateful`) are
  always delegated to the live ``route()``, exactly when the simulator
  would have called it, so online counters advance identically. Binding
  state that lives *outside* ``route()`` (RC's permission network and
  buffers, DeFT-ADAPTIVE's congestion term, DeFT-Ran's RNG — all in
  ``prepare_packet``/``_bind_up_vl``) stays on the algorithm untouched.
* **Reachability tables** — per-(chiplet, local fault pattern) counts of
  routable senders/receivers, the same factorization
  ``send_ok(s | down faults) AND deliver_ok(d | up faults)`` the exact
  Fig. 7 decomposition uses. :func:`~repro.analysis.reachability.reachability_of_state`
  reads these instead of probing all ordered core pairs, and the entries
  are fault-pattern-keyed, so Monte Carlo samples that repeat a local
  pattern (most of them) share table rows across jobs.

The three routing phases mirror :class:`~repro.routing.base.PhasedRoutingMixin`:
heading to the destination within its layer, heading to the bound
down-VL's boundary router, heading to the bound up-VL's interposer
router. Within a phase the decision depends only on the phase anchor
(destination or VL index), never on the rest of the packet — which is
what makes the flat key sound for every algorithm of the paper.

Tables auto-invalidate when a different fault state is installed on the
algorithm (run-time fault observation), so a session-cached instance can
serve many jobs: same-fault sweeps keep their rows, Monte Carlo samples
rebuild only the route rows while keeping the reachability rows.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable

from ..errors import RoutingError
from ..fault.model import DirectedVL, FaultState, VLDirection
from ..topology.geometry import INTERPOSER_LAYER
from .base import Port, RouteDecision, RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..network.flit import Packet

#: Routing phases of the three-phase minimal route (PhasedRoutingMixin).
PHASE_TO_DST = 0    #: same layer as the destination; anchor = destination id
PHASE_TO_DOWN = 1   #: on the source chiplet; anchor = bound down-VL index
PHASE_TO_UP = 2     #: on the interposer, ascending; anchor = bound up-VL index

_NUM_PORTS = len(Port)


class CompiledRoutes:
    """Lazily compiled route + reachability tables for one algorithm.

    Args:
        algorithm: a routing algorithm whose class declares
            :attr:`~repro.routing.base.RoutingAlgorithm.compilable`.

    Raises:
        RoutingError: when the algorithm is not compilable.
    """

    def __init__(self, algorithm: RoutingAlgorithm):
        if not algorithm.compilable:
            raise RoutingError(
                f"algorithm {algorithm.name!r} does not declare itself compilable"
            )
        self.algorithm = algorithm
        self.system = algorithm.system
        self._fault_state = algorithm.fault_state
        self._layers = tuple(r.layer for r in self.system.routers)
        # Route table: packed state key -> RouteDecision. One dict (not a
        # dense array) so memory tracks the states traffic actually
        # exercises, which stays tiny even for mega-grids.
        self._table: dict[int, RouteDecision] = {}
        # Key packing strides: ((phase * A + anchor) * R + router) * P2 + port/vn.
        self._anchors = max(len(self.system.routers), len(self.system.vls))
        # Reachability tables: (chiplet, frozen local fault pattern) -> count.
        # Keyed by the pattern itself, hence *not* invalidated on fault-state
        # changes — Monte Carlo samples share rows across jobs.
        self._senders: dict[tuple[int, frozenset[int]], int] = {}
        self._receivers: dict[tuple[int, frozenset[int]], int] = {}
        #: Introspection counters (tests, benchmarks).
        self.hits = 0
        self.misses = 0
        self.stateful_calls = 0
        self.invalidations = 0
        # Lazily built numpy view of the table (vector kernel); memoized
        # here so session-cached CompiledRoutes instances carry their
        # dense tables across jobs for free.
        self._dense: "DenseRouteTable | None" = None

    # ------------------------------------------------------------------
    # route table
    # ------------------------------------------------------------------

    def route(
        self,
        packet: "Packet",
        router_id: int,
        in_port: Port,
        algorithm: RoutingAlgorithm | None = None,
    ) -> RouteDecision:
        """Table-served drop-in for ``algorithm.route`` (bit-identical).

        ``algorithm`` is the instance whose runtime state live hops
        advance — a :meth:`~repro.routing.base.RoutingAlgorithm.runtime_copy`
        of :attr:`algorithm` in a batched run; defaults to the table's own.
        """
        if algorithm is None:
            algorithm = self.algorithm
        fault_state = algorithm.fault_state
        if fault_state is not self._fault_state:
            self._rebind(fault_state)
        layer = self._layers[router_id]
        if layer == self._layers[packet.dst]:
            phase, anchor = PHASE_TO_DST, packet.dst
        elif layer == INTERPOSER_LAYER:
            # Heading up: the up-VL is the phase anchor; bind it now —
            # the same moment the live path's _current_target would.
            algorithm.ensure_up_binding(packet)
            phase, anchor = PHASE_TO_UP, packet.up_vl
        else:
            if packet.down_vl is None:
                # The live path raises a descriptive RoutingError here.
                return algorithm.route(packet, router_id, in_port)
            phase, anchor = PHASE_TO_DOWN, packet.down_vl
        if algorithm.route_is_stateful(packet, router_id, in_port):
            self.stateful_calls += 1
            return algorithm.route(packet, router_id, in_port)
        key = (
            ((phase * self._anchors + anchor) * len(self._layers) + router_id)
            * (_NUM_PORTS * 2)
            + int(in_port) * 2
            + packet.vn
        )
        decision = self._table.get(key)
        if decision is None:
            decision = algorithm.route(packet, router_id, in_port)
            self._table[key] = decision
            self.misses += 1
        else:
            self.hits += 1
        return decision

    def _rebind(self, fault_state: FaultState) -> None:
        """Adopt a newly installed fault state, dropping rows if it differs."""
        if fault_state != self._fault_state:
            self._table.clear()
            self.invalidations += 1
        self._fault_state = fault_state

    @property
    def table_size(self) -> int:
        """Number of compiled route entries currently held."""
        return len(self._table)

    def pack_key(
        self, phase: int, anchor: int, router_id: int, in_port: int, vn: int
    ) -> int:
        """The packed integer key of one route-determining state."""
        return (
            ((phase * self._anchors + anchor) * len(self._layers) + router_id)
            * (_NUM_PORTS * 2)
            + in_port * 2
            + vn
        )

    def dense_table(self) -> "DenseRouteTable":
        """The numpy-indexable view of the route table (memoized).

        Requires numpy. The view resyncs itself lazily from the dict as
        traffic compiles new entries — see :class:`DenseRouteTable`.
        """
        if self._dense is None:
            self._dense = DenseRouteTable(self)
        return self._dense

    # ------------------------------------------------------------------
    # reachability tables (the Fig. 7 factorization)
    # ------------------------------------------------------------------

    def chiplet_senders(self, chiplet: int, down_pattern: frozenset[int]) -> int:
        """Routers of ``chiplet`` that can still send inter-chiplet.

        ``down_pattern`` holds the chiplet's *faulty* local down-channel
        indices; probed once per pattern by :func:`count_routable`.
        """
        key = (chiplet, down_pattern)
        count = self._senders.get(key)
        if count is None:
            count = count_routable(
                self.algorithm, chiplet, down_pattern, VLDirection.DOWN
            )
            self._senders[key] = count
        return count

    def chiplet_receivers(self, chiplet: int, up_pattern: frozenset[int]) -> int:
        """Routers of ``chiplet`` that can still be delivered to."""
        key = (chiplet, up_pattern)
        count = self._receivers.get(key)
        if count is None:
            count = count_routable(self.algorithm, chiplet, up_pattern, VLDirection.UP)
            self._receivers[key] = count
        return count

    def core_reachability(self, state: FaultState) -> float:
        """Reachable fraction of ordered core pairs under ``state``.

        Exactly :func:`~repro.analysis.reachability.reachability_of_state`
        via the send/receive factorization: intra-chiplet pairs are always
        routable; a cross pair is routable iff its source can send under
        the source chiplet's down faults and its destination can receive
        under the destination chiplet's up faults. Integer arithmetic
        throughout, so the resulting float is bit-identical to the
        pairwise probe.
        """
        system = self.system
        if state.system is not system:
            raise RoutingError("fault state belongs to a different system")
        num_chiplets = system.spec.num_chiplets
        sizes = [len(system.chiplet_routers(c)) for c in range(num_chiplets)]
        total_cores = sum(sizes)
        total = total_cores * (total_cores - 1)
        intra = sum(n * (n - 1) for n in sizes)
        if num_chiplets < 2:
            return 1.0 if total else 0.0
        senders = [
            self.chiplet_senders(c, state.chiplet_down_pattern(c))
            for c in range(num_chiplets)
        ]
        receivers = [
            self.chiplet_receivers(c, state.chiplet_up_pattern(c))
            for c in range(num_chiplets)
        ]
        cross = sum(senders) * sum(receivers) - sum(
            s * d for s, d in zip(senders, receivers)
        )
        return (intra + cross) / total


class DecisionCodes:
    """Value interner for route decisions: one integer code space.

    A code depends only on the decision's ``(out_port, allowed_vns)``, so
    every :class:`DenseRouteTable` — whatever its algorithm — interns into
    the one process-wide instance :data:`DECISION_CODES`. A lockstep batch
    whose members route through different tables then indexes a single
    decision list.
    """

    def __init__(self) -> None:
        #: code -> representative RouteDecision.
        self.decisions: list[RouteDecision] = []
        self._code_of: dict[tuple[int, tuple[int, ...]], int] = {}

    def code_for(self, decision: RouteDecision) -> int:
        """Intern a decision, returning its stable integer code."""
        key = (int(decision.out_port), tuple(int(v) for v in decision.allowed_vns))
        code = self._code_of.get(key)
        if code is None:
            code = len(self.decisions)
            self._code_of[key] = code
            self.decisions.append(decision)
        return code


#: The code space shared by every dense route table in the process.
DECISION_CODES = DecisionCodes()


class DenseRouteTable:
    """Batch-lookup view of a :class:`CompiledRoutes` table.

    Not a literal dense array — the key space (phases x anchors x routers
    x ports x VNs) reaches tens of millions of slots on mega-grids while
    traffic exercises a few thousand, so the view keeps the *compiled*
    keys as a sorted int64 array with a parallel array of interned
    decision codes and answers batch queries via ``searchsorted``.
    Codes come from the shared :data:`DECISION_CODES` interner, so they
    stay valid across table invalidations and mean the same decision in
    every table.

    Sync policy: the view trails the dict and resyncs with geometric
    backoff (when the dict has grown 25% + 16 entries past the last
    sync, or the fault state was rebound). Keys compiled since the last
    sync simply miss — callers route those through
    :meth:`CompiledRoutes.route`, which is where new entries come from
    in the first place, so a miss is never wrong, only slower.
    """

    def __init__(self, routes: CompiledRoutes):
        import numpy as np

        self._np = np
        self._routes = routes
        self._keys = np.empty(0, dtype=np.int64)
        self._codes = np.empty(0, dtype=np.int32)
        #: Codes of the dict's entries in insertion order, so a resync
        #: only interns entries compiled since the previous one.
        self._insertion_codes: list[int] = []
        self._synced_invalidations = routes.invalidations
        self._resync_at = 0
        #: Introspection counters (tests, benchmarks).
        self.lookups = 0
        self.misses = 0
        self.resyncs = 0

    def maybe_resync(self) -> None:
        """Adopt dict growth / invalidation if the backoff threshold passed."""
        routes = self._routes
        stale = routes.invalidations != self._synced_invalidations
        if not stale and len(routes._table) < self._resync_at:
            return
        np = self._np
        table = routes._table
        n = len(table)
        keys = np.fromiter(table.keys(), dtype=np.int64, count=n)
        if stale or n < len(self._insertion_codes):
            self._insertion_codes.clear()
        done = len(self._insertion_codes)
        if n > done:
            self._insertion_codes.extend(
                DECISION_CODES.code_for(d)
                for d in itertools.islice(table.values(), done, None)
            )
        codes = np.asarray(self._insertion_codes, dtype=np.int32)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._codes = codes[order]
        self._synced_invalidations = routes.invalidations
        self._resync_at = n + (n >> 2) + 16
        self.resyncs += 1

    def lookup(self, keys: "object") -> tuple["object", "object"]:
        """Batch lookup: (decision codes, found mask) for packed keys.

        ``codes`` is only meaningful where ``found`` is True; unfound
        keys must be routed through :meth:`CompiledRoutes.route`.
        """
        np = self._np
        self.lookups += len(keys)  # type: ignore[arg-type]
        if len(self._keys) == 0:  # type: ignore[arg-type]
            found = np.zeros(len(keys), dtype=bool)  # type: ignore[arg-type]
            self.misses += len(keys)  # type: ignore[arg-type]
            return np.zeros(len(keys), dtype=np.int32), found  # type: ignore[arg-type]
        pos = np.searchsorted(self._keys, keys)
        pos[pos == len(self._keys)] = 0  # any in-range slot; masked below
        found = self._keys[pos] == keys
        self.misses += int(len(found) - int(found.sum()))
        return self._codes[pos], found


def count_routable(
    algorithm: RoutingAlgorithm,
    chiplet: int,
    pattern: Iterable[int],
    direction: VLDirection,
) -> int:
    """Routers of ``chiplet`` still routable with ``pattern`` faulty.

    ``pattern`` holds the chiplet's faulty local VL indices in
    ``direction``. The probe installs a reduced fault state (only these
    faults, so the witness router on the next chiplet is untouched) and
    sweeps the algorithm's own ``is_routable``: DOWN counts routers that
    can send to the witness, UP counts routers the witness can deliver
    to. The algorithm's fault state is restored afterwards.
    """
    system = algorithm.system
    links = system.vls_of_chiplet(chiplet)
    faults = [DirectedVL(links[local].index, direction) for local in pattern]
    other = (chiplet + 1) % system.spec.num_chiplets
    witness = system.chiplet_routers(other)[0].id
    routers = [router.id for router in system.chiplet_routers(chiplet)]
    saved = algorithm.fault_state
    algorithm.set_fault_state(FaultState(system, faults))
    try:
        if direction is VLDirection.DOWN:
            return sum(1 for r in routers if algorithm.is_routable(r, witness))
        return sum(1 for r in routers if algorithm.is_routable(witness, r))
    finally:
        algorithm.set_fault_state(saved)


def compile_routes(algorithm: RoutingAlgorithm) -> CompiledRoutes | None:
    """A :class:`CompiledRoutes` for the algorithm, or None if uncompilable."""
    if not algorithm.compilable:
        return None
    return CompiledRoutes(algorithm)
