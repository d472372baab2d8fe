"""Exact reachability analysis vs brute force and Monte-Carlo (Fig. 7)."""

import pytest

from repro.analysis import reachability
from repro.analysis.reachability import (
    average_reachability,
    brute_force_reachability,
    monte_carlo_reachability,
    reachability_curve,
    reachability_of_state,
    worst_reachability,
)
from repro.errors import FaultModelError
from repro.fault.model import chiplet_fault_pattern, fault_free
from repro.routing.deft import DeftRouting
from repro.routing.mtr import MtrRouting
from repro.routing.rc import RcRouting
from repro.topology.presets import chiplet_grid

ALGORITHMS = (DeftRouting, MtrRouting, RcRouting)

#: System fixture -> fault counts: Fig. 7's k = 1..8 on both baselines and
#: the heterogeneous system, fig7mc's counts on the 3x2 grid.
CURVE_CASES = {
    "system4": (1, 2, 3, 4, 5, 6, 7, 8),
    "system6": (1, 2, 3, 4, 5, 6, 7, 8),
    "hetero_system": (1, 2, 3, 4, 5, 6, 7, 8),
    "grid3x2": (2, 4, 8, 12),
}


@pytest.fixture(scope="module")
def grid3x2():
    return chiplet_grid(3, 2)


@pytest.mark.slow
class TestExactMatchesBruteForce:
    @pytest.mark.parametrize("factory", [DeftRouting, MtrRouting, RcRouting])
    @pytest.mark.parametrize("k", [1, 2])
    def test_average_and_worst(self, system4, factory, k):
        algo = factory(system4)
        avg = average_reachability(system4, algo, k)
        wrst = worst_reachability(system4, algo, k)
        brute_avg, brute_wrst = brute_force_reachability(system4, algo, k)
        assert avg == pytest.approx(brute_avg, abs=1e-12)
        assert wrst == pytest.approx(brute_wrst, abs=1e-12)

    def test_monte_carlo_brackets_exact(self, system4):
        algo = RcRouting(system4)
        exact = average_reachability(system4, algo, 4)
        mc_avg, mc_min = monte_carlo_reachability(system4, algo, 4, samples=150, seed=2)
        assert abs(mc_avg - exact) < 0.03
        assert mc_min >= worst_reachability(system4, algo, 4) - 1e-12


class TestPaperShape:
    def test_deft_always_full(self, system4):
        curve = reachability_curve(system4, DeftRouting(system4))
        assert all(v == 1.0 for v in curve.average)
        assert all(v == 1.0 for v in curve.worst)

    def test_mtr_profile(self, system4):
        curve = reachability_curve(system4, MtrRouting(system4))
        assert curve.average[0] == 1.0 and curve.worst[0] == 1.0
        assert curve.worst[1] < 1.0
        assert all(a >= b for a, b in zip(curve.average, curve.average[1:]))

    def test_rc_profile(self, system4):
        curve = reachability_curve(system4, RcRouting(system4))
        assert curve.average[0] < 1.0
        # RC's average declines roughly linearly with fault count.
        drops = [
            curve.average[i] - curve.average[i + 1]
            for i in range(len(curve.average) - 1)
        ]
        assert all(d > 0 for d in drops)

    def test_rc_single_fault_value(self, system4):
        """One faulty down VL cuts 4 bound senders from 48 remote cores:
        4*48 of 64*63 ordered pairs."""
        algo = RcRouting(system4)
        state = chiplet_fault_pattern(system4, 0, down_faulty=[0])
        value = reachability_of_state(system4, algo, state)
        expected = 1 - (4 * 48) / (64 * 63)
        assert value == pytest.approx(expected)

    def test_six_chiplet_ordering(self, system6):
        mtr = reachability_curve(system6, MtrRouting(system6), (1, 2, 3))
        rc = reachability_curve(system6, RcRouting(system6), (1, 2, 3))
        assert mtr.average[0] == 1.0
        assert rc.average[0] < 1.0
        assert all(m >= r for m, r in zip(mtr.average, rc.average))


class TestReachabilityOfState:
    def test_fault_free_is_full(self, system4):
        for factory in (DeftRouting, MtrRouting, RcRouting):
            algo = factory(system4)
            assert reachability_of_state(system4, algo, fault_free(system4)) == 1.0

    def test_restores_original_fault_state(self, system4):
        algo = MtrRouting(system4)
        original = algo.fault_state
        state = chiplet_fault_pattern(system4, 1, down_faulty=[0, 2])
        reachability_of_state(system4, algo, state)
        assert algo.fault_state is original


class TestOnePassCurve:
    @pytest.mark.parametrize("factory", ALGORITHMS)
    @pytest.mark.parametrize("system_name", sorted(CURVE_CASES))
    def test_curve_equals_per_k_wrappers(self, request, system_name, factory):
        """Bit-identical, not approximately equal."""
        system = request.getfixturevalue(system_name)
        algo = factory(system)
        counts = CURVE_CASES[system_name]
        curve = reachability_curve(system, algo, counts)
        assert curve.average == [average_reachability(system, algo, k) for k in counts]
        assert curve.worst == [worst_reachability(system, algo, k) for k in counts]

    @pytest.mark.parametrize(
        "counts", [(1,), (1, 2, 3, 4, 5, 6, 7, 8), (8, 2, 5, 2)]
    )
    def test_one_profile_per_chiplet_per_call(self, system4, monkeypatch, counts):
        built = []
        original = reachability._ChipletProfile.__init__

        def counting_init(self, algorithm, chiplet):
            built.append(chiplet)
            original(self, algorithm, chiplet)

        monkeypatch.setattr(reachability._ChipletProfile, "__init__", counting_init)
        reachability_curve(system4, MtrRouting(system4), counts)
        assert sorted(built) == list(range(system4.spec.num_chiplets))

    def test_unsorted_duplicate_counts_keep_caller_order(self, system4):
        algo = RcRouting(system4)
        curve = reachability_curve(system4, algo, (8, 2, 5, 2))
        assert curve.fault_counts == (8, 2, 5, 2)
        assert curve.average == [
            average_reachability(system4, algo, k) for k in (8, 2, 5, 2)
        ]
        assert curve.worst == [
            worst_reachability(system4, algo, k) for k in (8, 2, 5, 2)
        ]

    def test_empty_counts_give_empty_curve(self, system4):
        curve = reachability_curve(system4, MtrRouting(system4), ())
        assert curve.fault_counts == ()
        assert curve.average == [] and curve.worst == []


class TestErrors:
    #: Every entry point: the per-k wrappers and a curve holding k among
    #: admissible counts.
    COMPUTES = (
        average_reachability,
        worst_reachability,
        lambda system, algo, k: reachability_curve(system, algo, (1, k, 2)),
    )

    def test_impossible_fault_count(self, system4):
        algo = DeftRouting(system4)
        for k in (99, -1):
            for compute in self.COMPUTES:
                with pytest.raises(
                    FaultModelError, match=f"^no admissible fault pattern with {k} faults$"
                ):
                    compute(system4, algo, k)

    def test_needs_two_chiplets(self, lone_chiplet):
        algo = DeftRouting(lone_chiplet)
        for compute in self.COMPUTES:
            with pytest.raises(FaultModelError, match="at least two chiplets"):
                compute(lone_chiplet, algo, 1)
