"""Heterogeneous 2.5D systems: mixed chiplet sizes and VL counts.

The paper's Section II-B notes that "the chiplet and interposer sizes may
also be different, which makes the topology more irregular than 3D
networks" — the library must handle such floorplans end to end, not just
the uniform presets.
"""

import pytest

from repro.analysis.cdg import build_cdg
from repro.analysis.reachability import (
    average_reachability,
    brute_force_reachability,
    worst_reachability,
)
from repro.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.routing.deft import DeftRouting
from repro.routing.mtr import MtrRouting
from repro.routing.rc import RcRouting
from repro.traffic.synthetic import UniformTraffic

from .routing_helpers import walk_packet


class TestHeterogeneousTopology:
    def test_counts(self, hetero_system):
        assert hetero_system.spec.num_cores == 24 + 9
        assert len(hetero_system.vls) == 8
        assert len(hetero_system.vls_of_chiplet(0)) == 6
        assert len(hetero_system.vls_of_chiplet(1)) == 2

    def test_selection_tables_adapt_to_vl_counts(self, hetero_system):
        algo = DeftRouting(hetero_system)
        # 6 VLs: sum C(6,k) k=0..5 = 2^6 - 1 = 63 entries; 2 VLs: 3.
        assert algo.tables[0].num_entries == 63
        assert algo.tables[1].num_entries == 3

    def test_deft_routes_all_pairs(self, hetero_system):
        algo = DeftRouting(hetero_system)
        cores = hetero_system.cores[::4]
        for src in cores:
            for dst in cores:
                if src != dst:
                    path, _ = walk_packet(
                        hetero_system, algo, src, dst, verify_vn_rules=True
                    )
                    assert path[-1] == dst

    @pytest.mark.parametrize("factory", [DeftRouting, MtrRouting, RcRouting])
    def test_cdg_acyclic(self, hetero_system, factory):
        report = build_cdg(hetero_system, factory(hetero_system))
        assert report.is_acyclic

    @pytest.mark.parametrize("factory", [DeftRouting, MtrRouting, RcRouting])
    def test_simulation_delivers(self, hetero_system, factory):
        config = SimulationConfig(
            warmup_cycles=100, measure_cycles=500, drain_cycles=6_000, seed=2
        )
        algo = factory(hetero_system)
        traffic = UniformTraffic(hetero_system, 0.004, seed=2)
        report = Simulator(hetero_system, algo, traffic, config).run()
        assert not report.deadlocked
        assert report.stats.delivered_ratio == 1.0

    def test_reachability_decomposition_still_exact(self, hetero_system):
        """The per-chiplet DP handles asymmetric chiplet profiles."""
        for factory in (DeftRouting, RcRouting):
            algo = factory(hetero_system)
            avg = average_reachability(hetero_system, algo, 2)
            wrst = worst_reachability(hetero_system, algo, 2)
            brute_avg, brute_wrst = brute_force_reachability(hetero_system, algo, 2)
            assert avg == pytest.approx(brute_avg, abs=1e-12)
            assert wrst == pytest.approx(brute_wrst, abs=1e-12)

    def test_deft_tolerates_faults_on_small_chiplet(self, hetero_system):
        from repro.fault.model import chiplet_fault_pattern

        algo = DeftRouting(hetero_system)
        # Kill one of the small chiplet's two up channels.
        algo.set_fault_state(chiplet_fault_pattern(hetero_system, 1, up_faulty=[0]))
        src = hetero_system.chiplet_routers(0)[0].id
        for dst_router in hetero_system.chiplet_routers(1):
            assert algo.is_routable(src, dst_router.id)
            path, _ = walk_packet(hetero_system, algo, src, dst_router.id)
            assert path[-1] == dst_router.id
