"""Compiled route tables: bit-identity with the live ``route()`` path.

The contract under test (ISSUE acceptance): for every algorithm, on the
Table-1 style fault scenarios, the compiled-table path must be
*bit-identical* to live per-hop dispatch — identical decisions in
identical order (including VN preference order), identical simulation
statistics, identical reachability fractions and identical CDGs.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.cdg import build_cdg
from repro.analysis.reachability import reachability_of_state
from repro.config import SimulationConfig
from repro.errors import RoutingError
from repro.fault.model import FaultState, chiplet_fault_pattern, random_fault_state
from repro.network.flit import Packet
from repro.network.simulator import Simulator
from repro.routing.base import Port, opposite_port
from repro.routing.compiled import CompiledRoutes, compile_routes
from repro.routing.naive import NaiveRouting
from repro.routing.registry import available_algorithms, make_algorithm
from repro.topology.presets import chiplet_grid
from repro.traffic.registry import make_traffic

ALGORITHMS = ("deft", "deft-dis", "deft-ran", "deft-ada", "mtr", "rc")


def _scenarios(system):
    """Fault scenarios exercised by the equivalence suite."""
    return (
        FaultState(system),
        chiplet_fault_pattern(system, 0, down_faulty=[1]),
        chiplet_fault_pattern(system, 1, up_faulty=[0]),
        chiplet_fault_pattern(system, 0, down_faulty=[0, 2], up_faulty=[3]),
    )


def _make(name, system, state):
    algorithm = make_algorithm(name, system)
    algorithm.set_fault_state(state)
    return algorithm


def _lockstep_walk(system, live, compiled_routes, src, dst, prefer_vn=None):
    """Drive the identical route-call sequence through both paths.

    Two independent algorithm instances (same constructor arguments, same
    fault state) see the same calls in the same order, so their online
    state — DeFT's round-robin counters, RNGs — evolves identically; every
    decision must match exactly, VN preference order included.
    """
    compiled_algo = compiled_routes.algorithm
    live_packet = Packet(0, src, dst, size=8, created_cycle=0)
    compiled_packet = Packet(0, src, dst, size=8, created_cycle=0)
    live.prepare_packet(live_packet)
    compiled_algo.prepare_packet(compiled_packet)
    assert compiled_packet.vn == live_packet.vn
    assert compiled_packet.down_vl == live_packet.down_vl
    current, in_port = src, Port.LOCAL
    for _ in range(200):
        expected = live.route(live_packet, current, in_port)
        actual = compiled_routes.route(compiled_packet, current, in_port)
        assert actual == expected, (src, dst, current, in_port)
        if expected.out_port == Port.LOCAL:
            assert current == dst
            return
        router = system.routers[current]
        if expected.out_port == Port.VERTICAL:
            nxt, next_in = router.vertical_neighbor, Port.VERTICAL
        else:
            nxt = router.neighbors[expected.out_port]
            next_in = opposite_port(expected.out_port)
        chosen = expected.allowed_vns[0]
        if prefer_vn is not None and prefer_vn in expected.allowed_vns:
            chosen = prefer_vn
        live_packet.vn = chosen
        compiled_packet.vn = chosen
        current, in_port = nxt, next_in
    raise AssertionError(f"walk did not terminate: {src}->{dst}")


class TestDecisionEquivalence:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_all_pairs_lockstep(self, system4, name):
        for state in _scenarios(system4):
            live = _make(name, system4, state)
            compiled_routes = CompiledRoutes(_make(name, system4, state))
            for src in system4.pes:
                for dst in system4.pes:
                    if src == dst or not live.is_routable(src, dst):
                        continue
                    for prefer_vn in (None, 1):
                        _lockstep_walk(
                            system4, live, compiled_routes, src, dst, prefer_vn
                        )
            # DeFT's boundary down-traversal must have gone through the
            # live fallback (it is online state), never the table.
            if name.startswith("deft"):
                assert compiled_routes.stateful_calls > 0
            else:
                assert compiled_routes.stateful_calls == 0
            assert compiled_routes.table_size > 0

    def test_naive_is_compilable_too(self, system4):
        live = NaiveRouting(system4)
        compiled_routes = CompiledRoutes(NaiveRouting(system4))
        for src, dst in ((system4.cores[0], system4.cores[-1]),
                         (system4.cores[3], system4.drams[0])):
            _lockstep_walk(system4, live, compiled_routes, src, dst)


class TestFaultInvalidation:
    def test_fault_change_invalidates_route_rows(self, system4):
        algorithm = make_algorithm("mtr", system4)
        routes = CompiledRoutes(algorithm)
        src, dst = system4.cores[0], system4.cores[-1]
        packet = Packet(0, src, dst, size=8, created_cycle=0)
        algorithm.prepare_packet(packet)
        routes.route(packet, src, Port.LOCAL)
        assert routes.table_size == 1
        algorithm.set_fault_state(chiplet_fault_pattern(system4, 0, down_faulty=[0]))
        fresh = Packet(1, src, dst, size=8, created_cycle=0)
        algorithm.prepare_packet(fresh)
        decision = routes.route(fresh, src, Port.LOCAL)
        assert routes.invalidations == 1
        assert decision == algorithm.route(fresh, src, Port.LOCAL)

    def test_equal_fault_state_keeps_rows(self, system4):
        """Re-installing an equal state (a new object) must not drop rows."""
        algorithm = make_algorithm("mtr", system4)
        state_a = chiplet_fault_pattern(system4, 0, down_faulty=[1])
        algorithm.set_fault_state(state_a)
        routes = CompiledRoutes(algorithm)
        src, dst = system4.cores[0], system4.cores[-1]
        packet = Packet(0, src, dst, size=8, created_cycle=0)
        algorithm.prepare_packet(packet)
        routes.route(packet, src, Port.LOCAL)
        algorithm.set_fault_state(chiplet_fault_pattern(system4, 0, down_faulty=[1]))
        routes.route(packet, src, Port.LOCAL)
        assert routes.invalidations == 0
        assert routes.hits == 1


class TestSimulationBitIdentity:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_compiled_simulation_is_bit_identical(self, system4, name):
        config = SimulationConfig(
            warmup_cycles=60, measure_cycles=240, drain_cycles=3_000,
            watchdog_cycles=2_000, seed=9,
        )
        state = chiplet_fault_pattern(system4, 0, down_faulty=[2], up_faulty=[1])
        reports = []
        for routes in (None, "auto"):
            algorithm = _make(name, system4, state)
            traffic = make_traffic("uniform", system4, seed=9, rate=0.008)
            reports.append(
                Simulator(system4, algorithm, traffic, config, routes=routes).run()
            )
        live, compiled = reports
        assert compiled.cycles == live.cycles
        for attribute in (
            "average_latency", "delivered_ratio", "packets_created",
            "packets_delivered", "packets_dropped_unroutable", "flit_hops",
        ):
            assert getattr(compiled.stats, attribute) == getattr(live.stats, attribute)
        assert compiled.stats.hops.average == live.stats.hops.average
        assert compiled.stats.vc_utilization_report() == live.stats.vc_utilization_report()
        assert compiled.stats.vl_load_report() == live.stats.vl_load_report()

    def test_simulator_rejects_foreign_routes(self, system4, fast_config):
        table_owner = make_algorithm("mtr", system4)
        routes = CompiledRoutes(table_owner)
        other = make_algorithm("mtr", system4)
        traffic = make_traffic("uniform", system4, seed=1, rate=0.004)
        with pytest.raises(ValueError):
            Simulator(system4, other, traffic, fast_config, routes=routes)

    def test_uncompilable_algorithm_falls_back_to_live(self, system4, fast_config):
        class Uncompilable(NaiveRouting):
            compilable = False

        algorithm = Uncompilable(system4)
        assert compile_routes(algorithm) is None
        with pytest.raises(RoutingError):
            CompiledRoutes(algorithm)
        traffic = make_traffic("uniform", system4, seed=1, rate=0.002)
        simulator = Simulator(system4, algorithm, traffic, fast_config)
        assert simulator.routes is None  # auto-detection declined politely


class TestReachabilityTables:
    @pytest.mark.parametrize("name", ("deft", "mtr", "rc"))
    def test_decomposed_matches_pairwise(self, system4, name):
        algorithm = make_algorithm(name, system4)
        routes = CompiledRoutes(algorithm)
        rng = random.Random(17)
        for k in (1, 3, 6):
            for _ in range(4):
                state = random_fault_state(system4, k, rng)
                assert reachability_of_state(
                    system4, algorithm, state, routes=routes
                ) == reachability_of_state(system4, algorithm, state)

    def test_pattern_rows_shared_across_states(self, system4):
        algorithm = make_algorithm("deft", system4)
        routes = CompiledRoutes(algorithm)
        state = chiplet_fault_pattern(system4, 0, down_faulty=[1])
        routes.core_reachability(state)
        rows = len(routes._senders) + len(routes._receivers)
        routes.core_reachability(state)  # identical patterns: no new rows
        assert len(routes._senders) + len(routes._receivers) == rows

    def test_rows_survive_fault_invalidation(self, system4):
        algorithm = make_algorithm("mtr", system4)
        routes = CompiledRoutes(algorithm)
        routes.core_reachability(chiplet_fault_pattern(system4, 0, down_faulty=[1]))
        rows = len(routes._senders)
        algorithm.set_fault_state(chiplet_fault_pattern(system4, 1, up_faulty=[2]))
        packet = Packet(0, system4.cores[0], system4.cores[-1], size=8, created_cycle=0)
        algorithm.prepare_packet(packet)
        routes.route(packet, packet.src, Port.LOCAL)  # triggers route-row rebind
        assert len(routes._senders) == rows  # reachability rows kept

    def test_works_on_larger_grids(self):
        system = chiplet_grid(3, 2)
        algorithm = make_algorithm("deft-dis", system)
        routes = CompiledRoutes(algorithm)
        rng = random.Random(3)
        for _ in range(3):
            state = random_fault_state(system, 5, rng)
            assert reachability_of_state(
                system, algorithm, state, routes=routes
            ) == reachability_of_state(system, algorithm, state)


class TestCdgThroughTables:
    @pytest.mark.parametrize("name", ("deft", "mtr", "rc"))
    def test_cdg_identical_with_and_without_tables(self, system4, name):
        state = chiplet_fault_pattern(system4, 0, down_faulty=[0])
        live_report = build_cdg(system4, _make(name, system4, state), routes=None)
        compiled_report = build_cdg(system4, _make(name, system4, state))
        assert set(compiled_report.graph.nodes) == set(live_report.graph.nodes)
        assert set(compiled_report.graph.edges) == set(live_report.graph.edges)
        assert compiled_report.pairs_walked == live_report.pairs_walked
        assert compiled_report.unroutable_pairs == live_report.unroutable_pairs
        assert compiled_report.is_acyclic  # the protected algorithms stay clean

    def test_naive_stays_cyclic_through_tables(self, system4):
        report = build_cdg(system4, NaiveRouting(system4))
        assert not report.is_acyclic

    def test_cdg_rejects_foreign_routes(self, system4):
        table_owner = make_algorithm("mtr", system4)
        other = make_algorithm("mtr", system4)
        with pytest.raises(ValueError):
            build_cdg(system4, other, routes=CompiledRoutes(table_owner))


def test_every_registered_algorithm_declares_compilable(system4):
    """The registry's algorithms all opt into compilation (ISSUE tentpole)."""
    for name in available_algorithms():
        assert make_algorithm(name, system4).compilable


def test_compilation_is_strictly_opt_in():
    """The abstract base must not silently compile unaudited algorithms."""
    from repro.routing.base import RoutingAlgorithm

    assert RoutingAlgorithm.compilable is False


class TestRuntimeCopies:
    """``runtime_copy`` twins of one memoized algorithm are independent.

    Batched runs hand every member a copy of the session's algorithm.
    Two copies driven with interleaved packet streams must decide exactly
    what two separately built instances decide — so no round-robin
    counter, RNG or token may be shared between copies, or with the
    memoized original.
    """

    @staticmethod
    def _packets(system, seed: int, count: int = 60) -> list[Packet]:
        rng = random.Random(seed)
        cores = list(system.cores)
        packets = []
        for index in range(count):
            src, dst = rng.sample(cores, 2)
            packets.append(Packet(index, src, dst, 8, index))
        return packets

    @staticmethod
    def _decisions(algo, packets):
        """One record per packet: injection, boundary and up-VL decisions."""
        for cycle, packet in enumerate(packets):
            if not algo.is_routable(packet.src, packet.dst):
                yield None
                continue
            record = [algo.may_inject(packet, cycle)]
            algo.prepare_packet(packet)
            record += [packet.vn, packet.down_vl, packet.needs_rc]
            boundary = algo.stateful_boundary_router(packet)
            if boundary is not None and boundary >= 0:
                decision = algo.route(packet, boundary, Port.LOCAL)
                record.append(tuple(decision.allowed_vns))
            if packet.down_vl is not None:
                algo.ensure_up_binding(packet)
                record.append(packet.up_vl)
            if packet.needs_rc and cycle % 3 == 0:
                algo.on_rc_buffer_drained(packet.rc_boundary, packet, cycle)
            algo.on_packet_delivered(packet, cycle)
            yield tuple(record)

    def _interleaved(self, first, second, system):
        streams = (
            self._decisions(first, self._packets(system, 1)),
            self._decisions(second, self._packets(system, 2)),
        )
        return [next(stream) for _ in range(60) for stream in streams]

    @staticmethod
    def _built(name, system, fault_state, count=2):
        algos = tuple(make_algorithm(name, system) for _ in range(count))
        for algo in algos:
            algo.set_fault_state(fault_state)
        return algos

    @pytest.mark.parametrize("name", ("deft", "deft-ran", "deft-ada", "rc"))
    def test_copies_decide_like_separate_instances(self, system4, name):
        memoized = make_algorithm(name, system4)
        faults = chiplet_fault_pattern(system4, 0, down_faulty=[1])
        memoized.set_fault_state(faults)
        copies = (memoized.runtime_copy(), memoized.runtime_copy())
        expected = self._interleaved(*self._built(name, system4, faults), system4)
        assert self._interleaved(*copies, system4) == expected
        # The memoized original saw none of the copies' packets: it still
        # decides like a freshly built instance.
        (fresh,) = self._built(name, system4, faults, count=1)
        assert self._interleaved(memoized, fresh, system4) == expected

    def test_copy_shares_tables_and_routes(self, system4):
        memoized = make_algorithm("deft", system4)
        copy = memoized.runtime_copy()
        assert copy.tables is memoized.tables
        assert copy.runtime_origin is memoized
        assert copy.runtime_copy().runtime_origin is memoized
        routes = compile_routes(memoized)
        traffic = make_traffic("uniform", system4, rate=0.01, seed=3)
        Simulator(system4, copy, traffic, routes=routes)  # accepted
        with pytest.raises(ValueError):
            Simulator(system4, make_algorithm("deft", system4), traffic, routes=routes)
