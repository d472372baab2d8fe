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

Batched lockstep mode: 2-6 scenarios that share system, faults and config
but may differ in routing algorithm, injection rate and traffic seed run
as one vector-kernel batch, while each member's solo reference run steps
alongside. Until a member retires, its per-cycle digest must equal its
solo run's — including when a batch-mate deadlocks and retires, and when
DeFT, MTR and RC members route through different compiled tables.
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
from repro.runner import Job, SystemRef, TrafficSpec
from repro.runner.execute import batch_key
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
    system,
    members: list[tuple],
    cfg: SimulationConfig,
    cycles: int,
) -> dict[int, int]:
    """Step a vector batch and each member's solo reference run together.

    ``members`` are (builder, rate, traffic seed) triples, where
    ``builder(system)`` builds a fresh algorithm with the batch's fault
    state installed. Members that name the same builder share one
    algorithm and compiled table (each gets a ``runtime_copy``), as the
    runner's batches do. Returns member -> cycle at which its watchdog
    retired it.
    """
    shared = {}
    for build, _, _ in members:
        if build not in shared:
            algo = build(system)
            shared[build] = (algo, compile_routes(algo))
    batch = [
        Simulator(
            system, shared[build][0].runtime_copy(),
            UniformTraffic(system, rate, seed=seed),
            config=cfg, routes=shared[build][1], kernel="vector",
        )
        for build, rate, seed in members
    ]
    Simulator.lockstep(batch)
    solo = [
        Simulator(
            system, build(system), UniformTraffic(system, rate, seed=seed),
            config=cfg, kernel="reference",
        )
        for build, rate, seed in members
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


def _faulted(build):
    """``build`` with the fig8 12.5% fault pattern installed."""

    def faulted(system):
        algo = build(system)
        algo.set_fault_state(fault_pattern_12p5(system))
        return algo

    return faulted


def _deft(strategy):
    return lambda system: DeftRouting(system, strategy)


def test_batch_naive_member_deadlocks_while_mates_continue():
    system = baseline_4_chiplets()
    members = [(NaiveRouting, 0.02, 1), (NaiveRouting, 0.02, 2), (NaiveRouting, 0.005, 3)]
    cfg = _batch_config(num_vcs=1, watchdog_cycles=40)
    retired = _run_batch_lockstep(system, members, cfg, cycles=400)
    assert list(retired) == [1], retired  # 0.02/seed 2 deadlocks near cycle 383


def test_batch_fig8_faulted_deft_ran_members():
    system = baseline_4_chiplets()
    build = _faulted(_deft(VlSelectionStrategy.RANDOM))
    members = [(build, 0.004, 5), (build, 0.006, 6), (build, 0.008, 7), (build, 0.02, 8)]
    _run_batch_lockstep(system, members, _batch_config(), cycles=200)


def test_batch_rc_members():
    system = baseline_4_chiplets()
    members = [(RcRouting, 0.005, 1), (RcRouting, 0.02, 2), (RcRouting, 0.04, 3)]
    _run_batch_lockstep(
        system, members, _batch_config(vl_serialization=2), cycles=200
    )


def test_batch_mixed_deft_mtr_rc_members():
    """One batch of the paper's three algorithms, as a Fig. 4 sweep runs."""
    system = baseline_4_chiplets()
    members = [
        (DeftRouting, 0.005, 1),
        (MtrRouting, 0.02, 2),
        (RcRouting, 0.04, 3),
        (DeftRouting, 0.02, 4),
        (RcRouting, 0.005, 5),
        (MtrRouting, 0.04, 6),
    ]
    _run_batch_lockstep(
        system, members, _batch_config(vl_serialization=2), cycles=200
    )


def test_batch_mixed_fig8_faulted_deft_variants():
    """DeFT, DeFT-Dis and DeFT-Ran under the fig8 faults, as Fig. 8 runs."""
    system = baseline_4_chiplets()
    deft, dis, ran = (
        _faulted(_deft(strategy))
        for strategy in (
            VlSelectionStrategy.OPTIMIZED,
            VlSelectionStrategy.DISTANCE,
            VlSelectionStrategy.RANDOM,
        )
    )
    members = [(deft, 0.006, 5), (dis, 0.006, 6), (ran, 0.006, 7), (ran, 0.02, 8)]
    _run_batch_lockstep(system, members, _batch_config(), cycles=200)


def test_batch_mixed_naive_member_deadlocks_beside_deft_and_mtr():
    system = baseline_4_chiplets()
    members = [(DeftRouting, 0.02, 1), (NaiveRouting, 0.02, 2), (MtrRouting, 0.02, 3)]
    cfg = _batch_config(num_vcs=1, watchdog_cycles=40)
    retired = _run_batch_lockstep(system, members, cfg, cycles=400)
    assert list(retired) == [1], retired


def _fuzz_batch(seed: int) -> None:
    """2-6 members sharing system, faults and config; each member draws
    its own algorithm, rate and traffic seed."""
    rng = random.Random(seed)
    scenario = _fuzz_scenario(seed)
    system = _SYSTEMS[scenario["system"]]()
    faults = (
        random_fault_state(system, scenario["k"], random.Random(seed + 1))
        if scenario["k"] else None
    )

    def builder(algo_cls):
        def build(system):
            algo = algo_cls(system)
            if faults is not None:
                algo.set_fault_state(faults)
            return algo

        return build

    builders = {name: builder(algo_cls) for name, algo_cls in _ALGOS.items()}
    members = [
        (
            builders[rng.choice(tuple(_ALGOS))],
            rng.choice((0.005, 0.01, 0.02, 0.04)),
            rng.randrange(1000),
        )
        for _ in range(rng.randint(2, 6))
    ]
    cfg = _batch_config(
        num_vcs=scenario["num_vcs"],
        vl_serialization=scenario["vl_ser"],
        watchdog_cycles=0,
    )
    _run_batch_lockstep(system, members, cfg, cycles=min(scenario["cycles"], 200))


@pytest.mark.slow
@pytest.mark.parametrize("seed", tuple(range(200, 208)))
def test_batch_lockstep_fuzz(seed):
    _fuzz_batch(seed)


# ----------------------------------------------------------------------
# who may share a batch
# ----------------------------------------------------------------------


def _member(system, algo, cfg, routes="auto"):
    return Simulator(
        system, algo, UniformTraffic(system, 0.01, seed=1),
        config=cfg, routes=routes, kernel="vector",
    )


def test_batch_lockstep_accepts_different_algorithms():
    system = baseline_4_chiplets()
    cfg = _batch_config()
    sims = [_member(system, cls(system), cfg) for cls in (DeftRouting, MtrRouting, RcRouting)]
    Simulator.lockstep(sims)
    assert {sim.kernel.batch for sim in sims} == {sims[0].kernel.batch}


@pytest.mark.parametrize("mismatch", ["system", "fault state", "config"])
def test_batch_lockstep_rejects_unshared_context(mismatch):
    system = baseline_4_chiplets()
    cfg = _batch_config()
    other = MtrRouting(baseline_4_chiplets() if mismatch == "system" else system)
    if mismatch == "fault state":
        other.set_fault_state(fault_pattern_12p5(system))
    sims = [
        _member(system, DeftRouting(system), cfg),
        _member(
            other.system, other,
            _batch_config(measure_cycles=301) if mismatch == "config" else cfg,
        ),
    ]
    with pytest.raises(ValueError, match="must share system, fault state and config"):
        Simulator.lockstep(sims)


def test_batch_key_ignores_algorithm_but_splits_context():
    def job(algorithm="deft", system=SystemRef.baseline4(), config=_batch_config(),
            rate=0.004, **kwargs):
        traffic = TrafficSpec.make("uniform", rate=rate)
        return Job.make(system, algorithm, traffic, config, **kwargs)

    key = batch_key(job())
    for same in (
        job(algorithm="mtr"),
        job(algorithm="rc"),
        job(algorithm_params={"rho": 0.5}),
        job(rate=0.02, seed=9),
    ):
        assert batch_key(same) == key
    for split in (
        job(faults=((0, "down"),)),
        job(system=SystemRef.baseline6()),
        job(config=_batch_config(num_vcs=4)),
    ):
        assert batch_key(split) not in (None, key)
