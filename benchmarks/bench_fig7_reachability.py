"""Fig. 7 — reachability in the presence of VL faults.

Exact average and worst-case reachability for 1-8 faulty directed VL
channels on the 4- and 6-chiplet systems, per algorithm (DeFT flat at
100%, MTR tolerant of exactly one fault, RC of none). Also benchmarks the
exact DP evaluator itself (it replaces a 10.5M-pattern enumeration).
"""

import pytest

from repro.analysis.reachability import reachability_curve
from repro.experiments import fig7
from repro.routing.mtr import MtrRouting
from repro.topology.presets import baseline_4_chiplets

from conftest import assert_and_print


@pytest.mark.benchmark(group="fig7", min_rounds=1, max_time=1.0)
def test_fig7a_reachability_4_chiplets(benchmark, record_result):
    result = benchmark.pedantic(fig7.fig7a, rounds=1, iterations=1)
    assert_and_print(result, record_result)


@pytest.mark.benchmark(group="fig7", min_rounds=1, max_time=1.0)
def test_fig7b_reachability_6_chiplets(benchmark, record_result):
    result = benchmark.pedantic(fig7.fig7b, rounds=1, iterations=1)
    assert_and_print(result, record_result)


@pytest.mark.benchmark(group="fig7-micro")
def test_exact_dp_evaluator_speed(benchmark):
    """The exact evaluator at the paper's heaviest point (k=8, MTR)."""
    system = baseline_4_chiplets()
    algorithm = MtrRouting(system)

    def evaluate():
        curve = reachability_curve(system, algorithm, (8,))
        return curve.average[0], curve.worst[0]

    avg, worst = benchmark(evaluate)
    assert worst <= avg <= 1.0
