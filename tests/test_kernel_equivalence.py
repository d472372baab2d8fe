"""Differential fuzz: the vector kernel must be bit-identical to reference.

Every scenario runs the same simulation twice — once under the pure-python
reference kernel, once under the numpy struct-of-arrays vector kernel —
stepping both in lockstep and comparing ``state_digest()`` after *every*
cycle. The digest hashes the full globally-phased snapshot (buffers,
credits, VC owners, assignments, RC units, NICs, stats), so the first
diverging cycle fails immediately instead of surfacing as a mismatched
aggregate hundreds of cycles later.

Scenarios are drawn pseudo-randomly (seeded, so failures reproduce) over
topology, algorithm, injection rate, traffic seed, fault count and
vertical-link serialization. A small sampled subset runs in the fast
lane; the full sweep is ``slow``-marked.

Batched lockstep mode: 2-6 scenarios that share one route table (system,
algorithm, faults, config) but differ in injection rate and traffic seed
run as one vector-kernel batch, while each member's solo reference run
steps alongside. Until a member retires, its per-cycle digest must equal
its solo run's — including when a batch-mate deadlocks and retires.
"""

import random

import pytest

from repro.config import SimulationConfig
from repro.errors import DeadlockError
from repro.experiments.fig8 import fault_pattern_12p5
from repro.fault.model import random_fault_state
from repro.network.simulator import Simulator
from repro.routing.compiled import compile_routes
from repro.routing.deft import DeftRouting, VlSelectionStrategy
from repro.routing.mtr import MtrRouting
from repro.routing.naive import NaiveRouting
from repro.routing.rc import RcRouting
from repro.topology.presets import baseline_4_chiplets, baseline_6_chiplets
from repro.traffic.synthetic import UniformTraffic

_ALGOS = {
    "deft": DeftRouting,
    "mtr": MtrRouting,
    "rc": RcRouting,
    "naive": NaiveRouting,
}

_SYSTEMS = {
    "baseline4": baseline_4_chiplets,
    "baseline6": baseline_6_chiplets,
}


def _fuzz_scenario(seed: int) -> dict:
    """One pseudo-random scenario, fully determined by its seed."""
    rng = random.Random(seed)
    algo = rng.choice(("deft", "deft", "mtr", "rc", "naive"))  # deft-weighted
    scenario = {
        "seed": seed,
        "system": rng.choice(tuple(_SYSTEMS)),
        "algo": algo,
        "rate": rng.choice((0.005, 0.01, 0.02, 0.04)),
        "cycles": rng.choice((150, 250, 350)),
        # naive is the deliberately unprotected configuration — faults on
        # top of it just make the deadlock arrive sooner; skip them.
        "k": rng.choice((0, 0, 1, 2, 4)) if algo != "naive" else 0,
        "vl_ser": rng.choice((1, 1, 1, 2, 4)),
        "num_vcs": rng.choice((2, 2, 2, 4)) if algo != "naive" else 1,
    }
    return scenario


def _run_lockstep(scenario: dict) -> None:
    system = _SYSTEMS[scenario["system"]]()
    cfg = SimulationConfig(
        warmup_cycles=50,
        measure_cycles=scenario["cycles"],
        drain_cycles=2000,
        num_vcs=scenario["num_vcs"],
        vl_serialization=scenario["vl_ser"],
        watchdog_cycles=0,  # deadlocks must freeze identically, not raise
    )
    sims = []
    for kernel in ("reference", "vector"):
        algo = _ALGOS[scenario["algo"]](system)
        if scenario["k"]:
            algo.set_fault_state(
                random_fault_state(
                    system, scenario["k"], random.Random(scenario["seed"] + 1)
                )
            )
        traffic = UniformTraffic(system, scenario["rate"], seed=scenario["seed"])
        sims.append(
            Simulator(system, algo, traffic, config=cfg, kernel=kernel)
        )
    ref, vec = sims
    assert vec.kernel_name == "vector", (
        scenario,
        vec.kernel_fallback_reason,
    )
    assert ref.kernel_name == "reference"
    for cycle in range(scenario["cycles"]):
        ref._step(generate=True)
        vec._step(generate=True)
        assert ref.state_digest() == vec.state_digest(), (
            f"kernel divergence at cycle {cycle}: {scenario}"
        )


#: The fast lane samples a handful of seeds spanning the algorithm mix;
#: the slow sweep below covers a wide seeded range.
_FAST_SEEDS = (3, 7, 21)
_SLOW_SEEDS = tuple(range(100, 124))


@pytest.mark.parametrize("seed", _FAST_SEEDS)
def test_kernels_bit_identical_sampled(seed):
    _run_lockstep(_fuzz_scenario(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", _SLOW_SEEDS)
def test_kernels_bit_identical_fuzz(seed):
    _run_lockstep(_fuzz_scenario(seed))


# ----------------------------------------------------------------------
# batched lockstep mode
# ----------------------------------------------------------------------


def _run_batch_lockstep(
    build_algo,
    system,
    members: list[tuple[float, int]],
    cfg: SimulationConfig,
    cycles: int,
) -> dict[int, int]:
    """Step a vector batch and each member's solo reference run together.

    ``members`` are (rate, traffic seed) pairs; ``build_algo(system)``
    builds a fresh algorithm with the batch's fault state installed.
    Returns member -> cycle at which its watchdog retired it.
    """
    shared = build_algo(system)
    routes = compile_routes(shared)
    batch = [
        Simulator(
            system, shared.runtime_copy(), UniformTraffic(system, rate, seed=seed),
            config=cfg, routes=routes, kernel="vector",
        )
        for rate, seed in members
    ]
    Simulator.lockstep(batch)
    solo = [
        Simulator(
            system, build_algo(system), UniformTraffic(system, rate, seed=seed),
            config=cfg, kernel="reference",
        )
        for rate, seed in members
    ]
    kernel = batch[0].kernel.batch
    retired: dict[int, int] = {}
    for cycle in range(cycles):
        for member in kernel.live:
            try:
                solo[member]._step(generate=True)
            except DeadlockError:
                retired[member] = cycle
        if len(retired) == len(members):
            with pytest.raises(DeadlockError):
                batch[0]._step(generate=True)
            break
        batch[0]._step(generate=True)
        assert sorted(kernel.deadlocked) == sorted(retired), (cycle, members)
        for member in kernel.live:
            assert batch[member].state_digest() == solo[member].state_digest(), (
                f"member {member} diverged from its solo run at cycle {cycle}: "
                f"{members}"
            )
    return retired


def _batch_config(**overrides) -> SimulationConfig:
    params = dict(warmup_cycles=50, measure_cycles=300, drain_cycles=2000)
    params.update(overrides)
    return SimulationConfig(**params)


def test_batch_naive_member_deadlocks_while_mates_continue():
    system = baseline_4_chiplets()
    members = [(0.02, 1), (0.02, 2), (0.005, 3)]
    cfg = _batch_config(num_vcs=1, watchdog_cycles=40)
    retired = _run_batch_lockstep(NaiveRouting, system, members, cfg, cycles=400)
    assert list(retired) == [1], retired  # 0.02/seed 2 deadlocks near cycle 383


def test_batch_fig8_faulted_deft_ran_members():
    system = baseline_4_chiplets()

    def build(system):
        algo = DeftRouting(system, VlSelectionStrategy.RANDOM)
        algo.set_fault_state(fault_pattern_12p5(system))
        return algo

    members = [(0.004, 5), (0.006, 6), (0.008, 7), (0.02, 8)]
    _run_batch_lockstep(build, system, members, _batch_config(), cycles=200)


def test_batch_rc_members():
    system = baseline_4_chiplets()
    members = [(0.005, 1), (0.02, 2), (0.04, 3)]
    _run_batch_lockstep(
        RcRouting, system, members, _batch_config(vl_serialization=2), cycles=200
    )


def _fuzz_batch(seed: int) -> None:
    """2-6 members sharing a pseudo-random table, differing in rate/seed."""
    rng = random.Random(seed)
    scenario = _fuzz_scenario(seed)
    system = _SYSTEMS[scenario["system"]]()
    faults = (
        random_fault_state(system, scenario["k"], random.Random(seed + 1))
        if scenario["k"] else None
    )

    def build(system):
        algo = _ALGOS[scenario["algo"]](system)
        if faults is not None:
            algo.set_fault_state(faults)
        return algo

    members = [
        (rng.choice((0.005, 0.01, 0.02, 0.04)), rng.randrange(1000))
        for _ in range(rng.randint(2, 6))
    ]
    cfg = _batch_config(
        num_vcs=scenario["num_vcs"],
        vl_serialization=scenario["vl_ser"],
        watchdog_cycles=0,
    )
    _run_batch_lockstep(build, system, members, cfg, cycles=min(scenario["cycles"], 200))


@pytest.mark.slow
@pytest.mark.parametrize("seed", tuple(range(200, 208)))
def test_batch_lockstep_fuzz(seed):
    _fuzz_batch(seed)
