"""Variance-reduced Monte Carlo: strata, weighted stats, sharded rounds."""

import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.reachability import average_reachability
from repro.errors import ConfigurationError, FaultModelError
from repro.fault.model import all_fault_patterns, random_stratified_fault_state
from repro.montecarlo import (
    admissible_chiplet_patterns,
    batch_mean_std,
    enumerate_strata,
    importance_estimate,
    importance_proposal,
    normal_mean_interval,
    normal_mean_intervals,
    run_montecarlo,
    sample_mean_std,
    stratified_estimate,
    stratum_scores,
    stratum_sequence,
    wilson_from_variance,
    wilson_interval,
    wilson_intervals,
)
from repro.montecarlo.campaign import montecarlo_jobs
from repro.routing.compiled import compile_routes
from repro.routing.registry import make_algorithm
from repro.runner import (
    CampaignRunner,
    Job,
    ResultCache,
    SystemRef,
    TrafficSpec,
    execute_job,
)
from repro.config import SimulationConfig

TINY = SimulationConfig(warmup_cycles=30, measure_cycles=120, drain_cycles=1_500)


def stratum_job(stratum, k=None, index=0, seed=0, algorithm="rc"):
    if k is None:
        k = sum(stratum) if stratum else 2
    return Job.make(
        SystemRef.baseline4(),
        algorithm,
        TrafficSpec.make("uniform", rate=0.0),
        TINY,
        seed=seed,
        faults_mode="sample",
        fault_k=k,
        fault_sample=index,
        fault_stratum=stratum,
        kind="reachability",
    )


class TestStratumSpec:
    def test_stratum_enters_canonical_only_when_set(self):
        plain = stratum_job(()).canonical()
        assert "fault_stratum" not in plain

        split = stratum_job((1, 0, 0, 1, 0, 0, 0, 0)).canonical()
        assert split["fault_stratum"] == [1, 0, 0, 1, 0, 0, 0, 0]

    def test_uniform_sample_keys_unchanged_by_stratification_feature(self):
        """Legacy cache entries must stay addressable."""
        job = stratum_job(())
        assert job.fault_stratum == ()
        twin = Job.make(
            SystemRef.baseline4(), "rc",
            TrafficSpec.make("uniform", rate=0.0), TINY,
            seed=0, faults_mode="sample", fault_k=2, fault_sample=0,
            kind="reachability",
        )
        assert job.key() == twin.key()

    def test_stratum_must_sum_to_fault_k(self):
        with pytest.raises(ConfigurationError):
            stratum_job((1, 1, 0, 0, 0, 0, 0, 0), k=3)
        with pytest.raises(ConfigurationError):
            stratum_job((-1, 3, 0, 0, 0, 0, 0, 0), k=2)

    def test_stratum_jobs_with_distinct_coordinates_have_distinct_keys(self):
        a = stratum_job((2, 0, 0, 0, 0, 0, 0, 0))
        b = stratum_job((0, 2, 0, 0, 0, 0, 0, 0))
        assert a.key() != b.key()


class TestStratifiedFaultSampler:
    def test_split_composition_draws_exact_per_direction_counts(self, system4):
        composition = (2, 1, 0, 3, 1, 0, 0, 2)
        state = random_stratified_fault_state(
            system4, composition, random.Random(7)
        )
        assert state.num_faults == sum(composition)
        for chiplet in range(4):
            assert len(state.chiplet_down_pattern(chiplet)) == composition[2 * chiplet]
            assert len(state.chiplet_up_pattern(chiplet)) == composition[2 * chiplet + 1]
        assert not state.disconnects_any_chiplet()

    def test_split_draw_is_deterministic_in_rng_state(self, system4):
        composition = (1, 2, 0, 0, 3, 0, 0, 1)
        a = random_stratified_fault_state(system4, composition, random.Random(3))
        b = random_stratified_fault_state(system4, composition, random.Random(3))
        assert a.faults == b.faults

    def test_disconnecting_direction_count_rejected(self, system4):
        # 4 down faults on a 4-VL chiplet would disconnect it.
        with pytest.raises(FaultModelError):
            random_stratified_fault_state(
                system4, (4, 0, 0, 0, 0, 0, 0, 0), random.Random(0)
            )

    def test_wrong_length_rejected(self, system4):
        with pytest.raises(FaultModelError):
            random_stratified_fault_state(system4, (1, 1, 0), random.Random(0))
        # One total per chiplet is not a stratum layout either.
        with pytest.raises(FaultModelError, match="expected 8"):
            random_stratified_fault_state(system4, (3, 0, 2, 1), random.Random(0))

    def test_split_draw_is_conditionally_uniform(self, system4):
        """Every pattern of a small stratum appears at plausible frequency."""
        composition = (1, 1, 0, 0, 0, 0, 0, 0)  # 4 * 4 = 16 patterns
        rng = random.Random(0)
        seen = Counter(
            random_stratified_fault_state(system4, composition, rng).faults
            for _ in range(1600)
        )
        assert len(seen) == 16
        assert min(seen.values()) > 50  # expectation 100 each


class TestStratumExecution:
    def test_stratified_reachability_job_runs_and_respects_stratum(self):
        job = stratum_job((1, 0, 2, 0, 0, 1, 0, 0))
        result = execute_job(job)
        assert result.ok, result.error
        assert 0.0 < result.reachability <= 1.0

    def test_same_key_same_value_across_runs(self):
        job = stratum_job((0, 1, 1, 0, 0, 0, 1, 1), seed=9, index=3)
        assert execute_job(job).reachability == execute_job(job).reachability

    def test_distinct_ordinals_draw_distinct_patterns_typically(self):
        values = {
            execute_job(stratum_job((2, 1, 1, 0, 1, 1, 1, 1), index=i)).reachability
            for i in range(6)
        }
        # rc reachability is constant within a direction-split stratum.
        assert len(values) == 1


class TestEnumerateStrata:
    def test_weights_and_pattern_counts_match_brute_force(self, system4):
        """Exact combinatorial weights vs explicit pattern enumeration."""
        k = 2
        strata = enumerate_strata(system4, k)
        brute = Counter()
        for state in all_fault_patterns(system4, k):
            coords = []
            for c in range(4):
                coords += [
                    len(state.chiplet_down_pattern(c)),
                    len(state.chiplet_up_pattern(c)),
                ]
            brute[tuple(coords)] += 1
        assert {s.composition: s.patterns for s in strata} == dict(brute)
        total = sum(brute.values())
        for s in strata:
            assert s.weight == pytest.approx(s.patterns / total)
        assert sum(s.weight for s in strata) == pytest.approx(1.0)

    def test_pattern_total_matches_admissible_convolution(self, system4):
        """Sum over strata == convolution of per-chiplet admissible counts."""
        for k in (1, 3, 5):
            strata = enumerate_strata(system4, k)
            conv = {0: 1}
            for _ in range(4):
                nxt = {}
                for j in range(0, 2 * 4 + 1):
                    a = admissible_chiplet_patterns(4, j)
                    if not a:
                        continue
                    for base, count in conv.items():
                        if base + j <= k:
                            nxt[base + j] = nxt.get(base + j, 0) + count * a
                conv = nxt
            assert sum(s.patterns for s in strata) == conv[k]

    def test_compositions_exclude_disconnecting_direction_counts(self, system4):
        for s in enumerate_strata(system4, 7):
            assert all(count <= 3 for count in s.composition)
            assert sum(s.composition) == 7

    def test_admissible_chiplet_patterns_edge_cases(self):
        assert admissible_chiplet_patterns(4, 0) == 1
        assert admissible_chiplet_patterns(4, 7) == 0  # must disconnect a side
        assert admissible_chiplet_patterns(4, 8) == 0
        assert admissible_chiplet_patterns(4, 9) == 0
        # A(v, j) == sum of C(v,d) C(v,u) over admissible splits.
        for j in range(0, 9):
            split_sum = sum(
                math.comb(4, d) * math.comb(4, j - d)
                for d in range(max(0, j - 3), min(3, j) + 1)
            )
            assert admissible_chiplet_patterns(4, j) == split_sum

    def test_stratum_cap_enforced(self, system4):
        with pytest.raises(ConfigurationError):
            enumerate_strata(system4, 6, max_strata=10)


class TestScoresAndProposal:
    def test_rc_scores_reproduce_exact_mean(self, system4):
        """rc is count-symmetric: score-implied mean == exact decomposition."""
        algorithm = make_algorithm("rc", system4)
        routes = compile_routes(algorithm)
        for k in (2, 3):
            strata = enumerate_strata(system4, k)
            scores = stratum_scores(system4, routes, strata)
            implied = sum(
                s.weight * (1.0 - score) for s, score in zip(strata, scores)
            )
            exact = average_reachability(system4, algorithm, k)
            assert implied == pytest.approx(exact, abs=1e-12)

    def test_scores_without_routes_are_neutral(self, system4):
        strata = enumerate_strata(system4, 2)
        assert stratum_scores(system4, None, strata) == [0.0] * len(strata)

    def test_proposal_is_a_distribution_with_bounded_ratios(self, system4):
        strata = enumerate_strata(system4, 3)
        scores = [float(i % 5) / 5.0 for i in range(len(strata))]
        lam = 0.25
        proposal = importance_proposal(
            [s.weight for s in strata], scores, lam=lam
        )
        assert sum(proposal) == pytest.approx(1.0)
        assert all(q > 0 for q in proposal)
        # Defensive mixture bounds every likelihood ratio by 1 / lam.
        for s, q in zip(strata, proposal):
            assert s.weight / q <= 1.0 / lam + 1e-9

    def test_proposal_validation(self):
        with pytest.raises(ConfigurationError):
            importance_proposal([0.5, 0.5], [0.0])
        with pytest.raises(ConfigurationError):
            importance_proposal([], [])
        with pytest.raises(ConfigurationError):
            importance_proposal([1.0], [0.0], lam=0.0)
        with pytest.raises(ConfigurationError):
            importance_proposal([1.0], [0.0], floor=0.0)

    def test_stratum_sequence_deterministic_and_windowed(self):
        proposal = [0.1, 0.2, 0.3, 0.4]
        full = stratum_sequence(proposal, seed=5, fault_count=3, start=0, count=40)
        again = stratum_sequence(proposal, seed=5, fault_count=3, start=0, count=40)
        assert full == again
        head = stratum_sequence(proposal, seed=5, fault_count=3, start=0, count=15)
        tail = stratum_sequence(proposal, seed=5, fault_count=3, start=15, count=25)
        assert head + tail == full

    def test_stratum_sequence_tracks_proposal_mass(self):
        proposal = [0.7, 0.2, 0.1]
        draws = stratum_sequence(proposal, seed=1, fault_count=2, start=0, count=3000)
        freq = Counter(draws)
        for index, q in enumerate(proposal):
            assert freq[index] / 3000 == pytest.approx(q, abs=0.03)


class TestWeightedStats:
    def test_wilson_from_variance_narrows_with_smaller_variance(self):
        wide = wilson_from_variance(0.5, 1e-2, 100)
        narrow = wilson_from_variance(0.5, 1e-6, 100)
        assert narrow.half_width < wide.half_width

    def test_wilson_from_variance_always_contains_the_mean(self):
        for mean, var, n in [
            (1.0, 0.0, 50), (0.0, 0.0, 50), (0.5, 0.0, 3),
            (0.9999999999999997, 1e-30, 1000), (0.5, 1e-4, 10),
        ]:
            assert wilson_from_variance(mean, var, n).contains(mean)

    def test_wilson_from_variance_zero_variance_falls_back_to_raw_n(self):
        few = wilson_from_variance(0.5, 0.0, 10)
        many = wilson_from_variance(0.5, 0.0, 1000)
        assert many.half_width < few.half_width
        with pytest.raises(ValueError):
            wilson_from_variance(0.5, 1e-4, 0)
        with pytest.raises(ValueError):
            wilson_from_variance(1.5, 1e-4, 10)

    def test_stratified_estimate_is_the_exact_weighted_mean(self):
        estimate = stratified_estimate(
            [(0.5, [0.2, 0.2]), (0.3, [0.6, 0.6]), (0.2, [1.0, 1.0])]
        )
        expected = 0.5 * 0.2 + 0.3 * 0.6 + 0.2 * 1.0
        assert estimate.mean == pytest.approx(expected, abs=1e-15)
        # Constant within every stratum -> exact, degenerate interval.
        assert estimate.variance == 0.0
        assert estimate.interval.half_width <= 1.1e-9
        assert estimate.interval.contains(expected)
        assert estimate.ess == estimate.n == 6

    def test_stratified_estimate_renormalizes_over_sampled_strata(self):
        partial = stratified_estimate([(0.6, [0.5, 0.7]), (0.4, [])])
        assert partial.mean == pytest.approx(0.6, abs=1e-12)
        assert partial.n == 2

    def test_single_sample_strata_borrow_pooled_variance(self):
        lone = stratified_estimate([(0.5, [0.4, 0.6]), (0.5, [0.5])])
        assert lone.variance > 0.0
        # With no replicated stratum at all the variance is unknown and
        # the interval must fall back to the (wide) raw-n Wilson width.
        blind = stratified_estimate([(0.5, [0.4]), (0.5, [0.6])])
        assert blind.variance == 0.0
        assert blind.interval.half_width > 0.01

    def test_stratified_estimate_validation(self):
        with pytest.raises(ValueError):
            stratified_estimate([])
        with pytest.raises(ValueError):
            stratified_estimate([(0.5, [])])
        with pytest.raises(ValueError):
            stratified_estimate([(-0.5, [0.1])])

    def test_importance_estimate_with_flat_ratios_matches_plain_mean(self):
        values = [0.2, 0.4, 0.6, 0.8]
        estimate = importance_estimate([1.0] * 4, values)
        assert estimate.mean == pytest.approx(0.5)
        assert estimate.ess == pytest.approx(4.0)

    def test_importance_reweighting_is_self_normalizing(self):
        """Scaling every ratio by a constant must not move the estimate."""
        ratios = [0.5, 2.0, 1.0, 0.25]
        values = [0.1, 0.9, 0.5, 0.3]
        a = importance_estimate(ratios, values)
        b = importance_estimate([10 * r for r in ratios], values)
        assert a.mean == pytest.approx(b.mean, abs=1e-15)
        assert a.ess == pytest.approx(b.ess, abs=1e-9)

    def test_importance_ess_collapses_under_skewed_ratios(self):
        skewed = importance_estimate([100.0, 0.01, 0.01, 0.01], [0.5] * 4)
        assert skewed.ess < 1.1

    def test_importance_estimate_validation(self):
        with pytest.raises(ValueError):
            importance_estimate([1.0], [0.5, 0.6])
        with pytest.raises(ValueError):
            importance_estimate([], [])
        with pytest.raises(ValueError):
            importance_estimate([-1.0], [0.5])
        with pytest.raises(ValueError):
            importance_estimate([0.0], [0.5])


class TestBatchStatsBitIdentity:
    """The numpy batch paths must equal the scalar paths bit for bit."""

    def groups(self, rng, count):
        return [
            [rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 9))]
            for _ in range(count)
        ]

    def test_batch_mean_std_matches_scalar_bitwise(self):
        rng = random.Random(42)
        for _ in range(25):
            groups = self.groups(rng, rng.randint(1, 8))
            batch = batch_mean_std(groups)
            scalar = [sample_mean_std(g) for g in groups]
            assert batch == scalar  # exact float equality, no approx

    def test_normal_mean_intervals_match_scalar_bitwise(self):
        rng = random.Random(7)
        for clamp in (None, (0.0, 1.0)):
            groups = self.groups(rng, 6)
            batch = normal_mean_intervals(groups, clamp=clamp)
            scalar = [normal_mean_interval(g, clamp=clamp) for g in groups]
            assert batch == scalar

    def test_wilson_intervals_match_scalar_bitwise(self):
        rng = random.Random(3)
        trials = [rng.randint(1, 10_000) for _ in range(40)]
        successes = [rng.randint(0, t) for t in trials]
        batch = wilson_intervals(successes, trials)
        scalar = [wilson_interval(s, t) for s, t in zip(successes, trials)]
        assert batch == scalar

    def test_batch_validation_mirrors_scalar(self):
        with pytest.raises(ValueError):
            batch_mean_std([[1.0], []])
        with pytest.raises(ValueError):
            wilson_intervals([1], [0])
        with pytest.raises(ValueError):
            wilson_intervals([2], [1])
        with pytest.raises(ValueError):
            wilson_intervals([1, 2], [3])


class TestWeightedCampaigns:
    def test_stratified_mean_is_exact_for_rc_at_small_k(self, system4):
        """rc is constant within direction-split strata: coverage => exact."""
        for k in (2, 3):
            report = run_montecarlo(
                SystemRef.baseline4(), ("rc",), (k,), 10, seed=0,
                sampler="stratified",
            )
            point = report.results[0]
            exact = average_reachability(system4, make_algorithm("rc", system4), k)
            assert point.primary.mean == pytest.approx(exact, abs=1e-9)
            assert point.primary.interval.contains(exact)
            assert point.strata == len(enumerate_strata(system4, k))
            # First round covers every stratum at least twice.
            assert point.completed >= 2 * point.strata

    def test_stratified_unbiased_for_mtr(self, system4):
        """mtr is NOT count-symmetric — the reweighting still centers."""
        report = run_montecarlo(
            SystemRef.baseline4(), ("mtr",), (2,), 150, seed=1,
            sampler="stratified", confidence=0.99,
        )
        point = report.results[0]
        exact = average_reachability(system4, make_algorithm("mtr", system4), 2)
        assert (
            point.primary.interval.contains(exact)
            or point.primary.mean == pytest.approx(exact, abs=1e-12)
        )

    def test_importance_unbiased_at_small_k(self, system4):
        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 250, seed=2,
            sampler="importance", confidence=0.99,
        )
        point = report.results[0]
        exact = average_reachability(system4, make_algorithm("rc", system4), 2)
        assert point.primary.interval.contains(exact)
        assert point.ess is not None and 0 < point.ess <= point.completed
        assert point.strata > 0

    def test_degenerate_point_estimate_contains_certainty(self):
        """deft is fully reachable at small k: weighted paths handle p=1."""
        for sampler in ("stratified", "importance"):
            report = run_montecarlo(
                SystemRef.baseline4(), ("deft",), (2,), 100, seed=0,
                sampler=sampler,
            )
            point = report.results[0]
            assert point.primary.interval.contains(1.0)
            assert point.primary.mean == pytest.approx(1.0, abs=1e-9)

    def test_weighted_samplers_reject_latency_metric(self):
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("deft",), (1,), 4, metric="latency",
                sampler="stratified", traffic=TrafficSpec.make("uniform", rate=0.004),
                config=TINY,
            )

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (1,), 4, sampler="antithetic"
            )

    def test_stratified_adaptive_stops_at_exactness(self, system4):
        """Zero within-stratum variance => stop right after full coverage."""
        strata = len(enumerate_strata(system4, 3))
        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (3,), 20, seed=0,
            sampler="stratified", target_ci_width=0.002,
            max_samples=50 * strata,
        )
        assert report.results[0].completed == 2 * strata

    def test_adaptive_cap_respected_exactly_by_weighted_samplers(self, system4):
        """Unreachable target: every sampler lands exactly on max_samples."""
        strata = len(enumerate_strata(system4, 2))
        cap = 2 * strata + 31
        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 10, seed=0,
            sampler="stratified", target_ci_width=1e-12, max_samples=cap,
        )
        assert report.results[0].completed == cap

        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 6, seed=0,
            sampler="importance", target_ci_width=1e-12, max_samples=20,
        )
        point = report.results[0]
        assert point.completed == 20  # 6 -> 12 -> 20, capped exactly

    def test_first_round_exceeding_cap_is_rejected_upfront(self):
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (3,), 10, seed=0,
                sampler="stratified", target_ci_width=0.01, max_samples=40,
            )

    def test_uniform_adaptive_cap_regression_unchanged(self):
        """The legacy doubling schedule must still hit the cap exactly."""
        report = run_montecarlo(
            SystemRef.baseline4(), ("mtr",), (4,), 6, seed=0,
            target_ci_width=1e-9, max_samples=20,
        )
        point = report.results[0]
        assert point.requested == 20
        indices = sorted(job.fault_sample for job in report.campaign.jobs)
        assert indices == list(range(20))

    def test_weighted_rounds_are_cache_incremental(self, tmp_path):
        args = dict(
            seed=0, sampler="importance", target_ci_width=1e-12, max_samples=30,
        )
        run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 10,
            runner=CampaignRunner(cache=ResultCache(tmp_path)), **args,
        )
        warm = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 10,
            runner=CampaignRunner(cache=ResultCache(tmp_path)), **args,
        )
        assert warm.campaign.executed == 0


class TestShardedRounds:
    ARGS = dict(seed=4, sampler="stratified", target_ci_width=0.002)

    def drive(self, cache_dir, rendezvous, shard=None):
        with CampaignRunner(cache=ResultCache(cache_dir)) as runner:
            return run_montecarlo(
                SystemRef.baseline4(), ("rc",), (2,), 12, runner=runner,
                max_samples=4000, shard=shard, rendezvous_dir=rendezvous,
                round_timeout=60, **self.ARGS,
            )

    def signature(self, report):
        point = report.results[0]
        return (
            point.completed,
            point.primary.mean,
            point.primary.std,
            point.primary.interval,
            point.strata,
            point.weighted.variance,
        )

    def test_sharded_drivers_bit_identical_to_serial(self, tmp_path):
        serial = self.drive(tmp_path / "cache-serial", None)
        shared = tmp_path / "cache-shared"
        with ThreadPoolExecutor(2) as pool:
            futures = [
                pool.submit(self.drive, shared, tmp_path / "rdv", (i, 2))
                for i in range(2)
            ]
            sharded = [f.result() for f in futures]
        assert (
            self.signature(serial)
            == self.signature(sharded[0])
            == self.signature(sharded[1])
        )
        # Each driver executed only its slice; the union covers the round.
        executed = [r.campaign.executed for r in sharded]
        assert sum(executed) == serial.campaign.executed
        assert all(count > 0 for count in executed)

    def test_shard_requires_rendezvous_and_cache(self, tmp_path):
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (2,), 12,
                runner=CampaignRunner(cache=ResultCache(tmp_path)),
                max_samples=4000, shard=(0, 2), **self.ARGS,
            )
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (2,), 12,
                runner=CampaignRunner(),
                max_samples=4000, shard=(0, 2),
                rendezvous_dir=tmp_path / "rdv", **self.ARGS,
            )

    def test_rendezvous_publish_gather_roundtrip(self, tmp_path):
        from repro.distributed import RendezvousError, RoundRendezvous

        a = RoundRendezvous(tmp_path, "campaign", 0, 2)
        b = RoundRendezvous(tmp_path, "campaign", 1, 2)
        a.publish(0, ["deadbeef"])
        b.publish(0, [])
        assert a.gather(0, timeout=5.0) == {0: ["deadbeef"], 1: []}
        assert b.gather(0, timeout=5.0) == {0: ["deadbeef"], 1: []}
        with pytest.raises(RendezvousError):
            a.gather(1, timeout=0.2, poll=0.05)

    def test_rendezvous_rejects_mismatched_split(self, tmp_path):
        from repro.distributed import RendezvousError, RoundRendezvous

        a = RoundRendezvous(tmp_path, "campaign", 0, 2)
        other = RoundRendezvous(tmp_path, "campaign", 2, 3)
        other.publish(0, [])
        a.publish(0, [])
        with pytest.raises(RendezvousError):
            a.gather(0, timeout=5.0)
