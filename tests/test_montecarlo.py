"""Monte Carlo fault campaigns: spec, sampling, statistics, cross-checks."""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.reachability import average_reachability
from repro.errors import ConfigurationError
from repro.montecarlo import (
    ConfidenceInterval,
    montecarlo_jobs,
    normal_mean_interval,
    run_montecarlo,
    sample_mean_std,
    summarize,
    wilson_interval,
    z_value,
)
from repro.montecarlo.campaign import _campaign_id, _stopping_width
from repro.routing.registry import make_algorithm
from repro.runner import (
    CampaignRunner,
    Job,
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
    execute_job,
    sample_rng,
)
from repro.config import SimulationConfig

TINY = SimulationConfig(
    warmup_cycles=30, measure_cycles=120, drain_cycles=1_500, watchdog_cycles=2_000
)


def sample_job(k=2, index=0, seed=0, algorithm="rc", kind="reachability"):
    return Job.make(
        SystemRef.baseline4(),
        algorithm,
        TrafficSpec.make("uniform", rate=0.0 if kind == "reachability" else 0.004),
        TINY,
        seed=seed,
        faults_mode="sample",
        fault_k=k,
        fault_sample=index,
        kind=kind,
    )


class TestSampleSpec:
    def test_canonical_carries_sample_fields(self):
        data = sample_job(k=3, index=7).canonical()
        assert data["faults_mode"] == "sample"
        assert data["fault_k"] == 3
        assert data["fault_sample"] == 7
        assert data["kind"] == "reachability"

    def test_explicit_jobs_keep_their_legacy_canonical_form(self):
        """Pre-existing cache keys must survive the sample-mode extension."""
        data = Job.make(
            SystemRef.baseline4(), "deft",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        ).canonical()
        assert "faults_mode" not in data
        assert "fault_k" not in data
        assert "kind" not in data

    def test_each_sample_index_is_a_distinct_key(self):
        keys = {sample_job(index=i).key() for i in range(5)}
        assert len(keys) == 5

    def test_seed_and_k_enter_the_key(self):
        assert sample_job(seed=0).key() != sample_job(seed=1).key()
        assert sample_job(k=2).key() != sample_job(k=3).key()

    def test_canonical_round_trip(self):
        job = sample_job(k=4, index=11)
        rebuilt = Job.from_canonical(json.loads(job.canonical_json()))
        assert rebuilt.key() == job.key()
        assert (rebuilt.faults_mode, rebuilt.fault_k, rebuilt.fault_sample,
                rebuilt.kind) == ("sample", 4, 11, "reachability")

    def test_uniform_sample_keys_are_pinned(self):
        """Uniform sample keys address every existing cache entry."""
        job = sample_job(k=2, index=0, seed=0)
        assert "fault_stratum" not in job.canonical()
        assert job.key() == (
            "2ed1d385dfb0b9ed0a812df4a122485c6a5ec66732b156e4f47524e5c93ccd6b"
        )
        emitted = montecarlo_jobs(SystemRef.baseline4(), "rc", 8, 1, seed=0, start=5)
        assert emitted[0].key() == (
            "c32f8a201a44f8b3622de7ec000b7ea3d13b5ed95e02528b10870c8d69b4040f"
        )

    def test_stratified_canonical_jobs_rejected(self):
        """A stratum must not alias the uniform sample with the same index."""
        data = {**sample_job(k=2).canonical(), "fault_stratum": [1, 1]}
        with pytest.raises(ConfigurationError, match="fault_stratum"):
            Job.from_canonical(data)

    @pytest.mark.parametrize("stratum", [[], None, [0, 2], "1,1"])
    def test_any_fault_stratum_value_rejected(self, stratum):
        """The field's presence, not its value, is what gets refused."""
        data = {**sample_job(k=2).canonical(), "fault_stratum": stratum}
        with pytest.raises(ConfigurationError, match="no longer supported"):
            Job.from_canonical(data)

    def test_explicit_job_with_stratum_rejected(self):
        data = Job.make(
            SystemRef.baseline4(), "deft",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        ).canonical()
        with pytest.raises(ConfigurationError, match="fault_stratum"):
            Job.from_canonical({**data, "fault_stratum": [1]})

    @pytest.mark.parametrize(
        "algorithm,kind,k,index",
        [("rc", "reachability", 1, 0), ("mtr", "reachability", 8, 3),
         ("deft", "reachability", 4, 999), ("rc", "simulate", 2, 5),
         ("mtr", "simulate", 1, 0), ("deft", "simulate", 3, 17)],
    )
    def test_canonical_round_trip_across_kinds(self, algorithm, kind, k, index):
        job = sample_job(k=k, index=index, algorithm=algorithm, kind=kind)
        rebuilt = Job.from_canonical(json.loads(job.canonical_json()))
        assert rebuilt.canonical_json() == job.canonical_json()
        assert rebuilt.key() == job.key()
        assert (rebuilt.algorithm, rebuilt.kind, rebuilt.fault_k,
                rebuilt.fault_sample) == (algorithm, kind, k, index)

    def test_sample_mode_rejects_explicit_faults(self):
        with pytest.raises(ConfigurationError):
            Job.make(
                SystemRef.baseline4(), "deft",
                TrafficSpec.make("uniform", rate=0.004), TINY,
                faults=((0, "down"),), faults_mode="sample", fault_k=2,
            )

    def test_sample_mode_needs_positive_k(self):
        with pytest.raises(ConfigurationError):
            Job.make(
                SystemRef.baseline4(), "deft",
                TrafficSpec.make("uniform", rate=0.004), TINY,
                faults_mode="sample", fault_k=0,
            )

    def test_sample_fields_rejected_in_explicit_mode(self):
        with pytest.raises(ConfigurationError):
            Job.make(
                SystemRef.baseline4(), "deft",
                TrafficSpec.make("uniform", rate=0.004), TINY, fault_k=2,
            )

    def test_unknown_mode_and_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Job.make(
                SystemRef.baseline4(), "deft",
                TrafficSpec.make("uniform", rate=0.004), TINY,
                faults_mode="exhaustive",
            )
        with pytest.raises(ConfigurationError):
            Job.make(
                SystemRef.baseline4(), "deft",
                TrafficSpec.make("uniform", rate=0.004), TINY, kind="magic",
            )


class TestSampledExecution:
    def test_sample_rng_is_deterministic(self):
        a = sample_rng(0, 2, 5)
        b = sample_rng(0, 2, 5)
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]
        assert sample_rng(0, 2, 5).random() != sample_rng(0, 2, 6).random()

    def test_reachability_kind_is_deterministic_and_analytic(self):
        job = sample_job(k=2, index=3)
        first, second = execute_job(job), execute_job(job)
        assert first.ok and second.ok
        assert 0.0 <= first.reachability <= 1.0
        assert first == second
        assert first.sampled_faults == second.sampled_faults
        assert len(first.sampled_faults) == 2
        assert first.packets_measured == 0  # no simulation ran

    def test_different_samples_draw_different_patterns(self):
        patterns = {
            execute_job(sample_job(index=i)).sampled_faults for i in range(6)
        }
        assert len(patterns) > 1

    def test_simulate_kind_records_sampled_pattern(self):
        result = execute_job(sample_job(k=1, kind="simulate", algorithm="deft"))
        assert result.ok
        assert len(result.sampled_faults) == 1
        assert result.average_latency > 0
        assert math.isnan(result.reachability)

    def test_infeasible_k_is_captured_not_raised(self):
        # 32 faults on 32 directed channels always disconnects a chiplet.
        result = execute_job(sample_job(k=32))
        assert not result.ok and "FaultModelError" in result.error


class TestStatistics:
    def test_sample_mean_std(self):
        mean, std = sample_mean_std([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(1.2909944, rel=1e-6)
        assert sample_mean_std([5.0]) == (5.0, 0.0)
        with pytest.raises(ValueError):
            sample_mean_std([])

    def test_normal_interval_shrinks_with_n(self):
        narrow = normal_mean_interval([0.4, 0.6] * 50)
        wide = normal_mean_interval([0.4, 0.6] * 2)
        assert narrow.half_width < wide.half_width
        assert narrow.contains(0.5) and narrow.center == pytest.approx(0.5)

    def test_normal_interval_clamps_to_support(self):
        ci = normal_mean_interval([1.0, 1.0, 0.0], clamp=(0.0, 1.0))
        assert 0.0 <= ci.low <= ci.high <= 1.0

    def test_wilson_interval_known_value(self):
        ci = wilson_interval(8, 10)
        assert ci.center == pytest.approx(0.8)
        assert ci.low == pytest.approx(0.4901, abs=1e-3)
        assert ci.high == pytest.approx(0.9433, abs=1e-3)

    def test_wilson_edge_cases_stay_in_unit_interval(self):
        assert wilson_interval(0, 20).low == 0.0
        assert wilson_interval(20, 20).high == 1.0
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_unsupported_confidence_rejected(self):
        with pytest.raises(ValueError):
            z_value(0.80)

    @pytest.mark.parametrize(
        "confidence,z", [(0.90, 1.6449), (0.95, 1.9600), (0.99, 2.5758)]
    )
    def test_z_values(self, confidence, z):
        assert z_value(confidence) == z

    def test_z_value_tolerates_float_noise(self):
        assert z_value(0.1 * 9.5) == z_value(0.95)

    @pytest.mark.parametrize(
        "successes,trials",
        [(0, 1), (1, 1), (0, 7), (3, 7), (7, 7), (1, 1000), (500, 1000),
         (999, 1000)],
    )
    def test_wilson_interval_brackets_the_proportion(self, successes, trials):
        ci = wilson_interval(successes, trials)
        assert ci.center == successes / trials
        assert 0.0 <= ci.low <= ci.center <= ci.high <= 1.0
        assert ci.high > ci.low

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_wilson_interval_is_mirror_symmetric(self, confidence):
        for successes in range(0, 13):
            ci = wilson_interval(successes, 12, confidence)
            mirror = wilson_interval(12 - successes, 12, confidence)
            assert ci.low == pytest.approx(1.0 - mirror.high, abs=1e-12)
            assert ci.high == pytest.approx(1.0 - mirror.low, abs=1e-12)

    def test_wilson_interval_widens_with_confidence(self):
        widths = [
            wilson_interval(30, 100, confidence).half_width
            for confidence in (0.90, 0.95, 0.99)
        ]
        assert widths[0] < widths[1] < widths[2]

    def test_wilson_interval_narrows_with_trials(self):
        widths = [wilson_interval(n // 4, n).half_width for n in (8, 80, 800, 8000)]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] < widths[0] / 10

    @pytest.mark.parametrize(
        "successes,trials,confidence,low,high",
        [
            (1100, 1200, 0.95, 0.8996675148419543, 0.9310065539059605),
            (0, 240, 0.95, 0.0, 0.015754489799935698),
            (240, 240, 0.99, 0.9730989012809882, 0.9999999999999999),
            (7, 12, 0.90, 0.35597540627185875, 0.7800263170494983),
            (63331, 95640, 0.95, 0.659177083298351, 0.6651720800250931),
        ],
    )
    def test_wilson_interval_floats_are_pinned(
        self, successes, trials, confidence, low, high
    ):
        """Adaptive stopping compares these exact floats with the target
        width, so any drift would move where a campaign stops."""
        ci = wilson_interval(successes, trials, confidence)
        assert (ci.low, ci.high) == (low, high)

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_normal_interval_centered_on_mean(self, confidence):
        values = [0.2, 0.9, 0.4, 0.7, 0.55]
        mean, std = sample_mean_std(values)
        ci = normal_mean_interval(values, confidence)
        assert ci.center == mean and ci.confidence == confidence
        assert ci.half_width == pytest.approx(
            z_value(confidence) * std / math.sqrt(len(values))
        )
        assert ci.low + ci.high == pytest.approx(2 * mean)

    def test_normal_interval_degenerate_for_constant_samples(self):
        ci = normal_mean_interval([0.75] * 9, clamp=(0.0, 1.0))
        assert (ci.low, ci.center, ci.high) == (0.75, 0.75, 0.75)
        single = normal_mean_interval([0.3])
        assert single.low == single.high == 0.3

    @pytest.mark.parametrize(
        "values",
        [[0.5, 0.25], [1.0, 1.0, 1.0], [3.0, -1.0, 4.0, 1.5, 9.0],
         [0.1 * i for i in range(50)]],
    )
    def test_sample_mean_std_matches_statistics_module(self, values):
        import statistics

        mean, std = sample_mean_std(values)
        assert mean == pytest.approx(statistics.fmean(values), rel=1e-12)
        assert std == pytest.approx(statistics.stdev(values), rel=1e-12, abs=1e-15)

    def test_confidence_interval_bounds_are_inclusive(self):
        ci = ConfidenceInterval(center=0.5, low=0.25, high=0.75, confidence=0.95)
        assert ci.contains(0.25) and ci.contains(0.75) and ci.contains(0.5)
        assert not ci.contains(0.2499) and not ci.contains(0.7501)
        assert ci.half_width == 0.25


class TestSummarize:
    @pytest.mark.parametrize("worst,expected", [("min", 0.1), ("max", 0.8)])
    def test_worst_picks_min_or_max(self, worst, expected):
        summary = summarize([0.4, 0.1, 0.8, 0.5], worst=worst)
        assert summary.worst == expected
        assert summary.n == 4 and summary.mean == pytest.approx(0.45)

    def test_clamp_bounds_interval_not_center(self):
        summary = summarize([1.0, 1.0, 1.0, 0.2], clamp=(0.0, 1.0))
        assert summary.interval.high == 1.0
        assert summary.mean == summary.interval.center == pytest.approx(0.8)


class TestMonteCarloCampaign:
    def test_jobs_validate_inputs(self):
        with pytest.raises(ValueError):
            montecarlo_jobs(SystemRef.baseline4(), "deft", 2, 0)
        with pytest.raises(ValueError):
            montecarlo_jobs(SystemRef.baseline4(), "deft", 2, 5, metric="power")

    def test_reachability_jobs_share_pinned_simulation_params(self):
        """Analytic jobs must not key on simulation knobs they ignore."""
        a = montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 1, seed=0)[0]
        b = montecarlo_jobs(
            SystemRef.baseline4(), "rc", 2, 1, seed=0,
            traffic=TrafficSpec.make("hotspot", rate=0.9), config=TINY,
        )[0]
        assert a.key() == b.key()

    @pytest.mark.parametrize(
        "metric,kind", [("reachability", "reachability"), ("latency", "simulate")]
    )
    def test_job_kind_follows_metric(self, metric, kind):
        jobs = montecarlo_jobs(
            SystemRef.baseline4(), "deft", 3, 4, seed=9, metric=metric, start=2
        )
        assert [job.fault_sample for job in jobs] == [2, 3, 4, 5]
        assert {(job.kind, job.faults_mode, job.fault_k, job.seed)
                for job in jobs} == {(kind, "sample", 3, 9)}

    def test_jobs_carry_kernel(self):
        jobs = montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 2, kernel="reference")
        assert {job.kernel for job in jobs} == {"reference"}
        # Kernels are bit-identical by contract, so both share cache keys.
        default = montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 2)
        assert [job.key() for job in jobs] == [job.key() for job in default]

    def test_sampled_mean_matches_exact_at_small_k(self, system4):
        """Fig. 7 cross-check: exact average inside the sampled 99% CI."""
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft", "mtr", "rc"), (1, 2, 3), 60,
            seed=0, metric="reachability", confidence=0.99,
        )
        for point in report.results:
            exact = average_reachability(
                system4, make_algorithm(point.algorithm, system4), point.k
            )
            assert point.failed == 0 and point.completed == 60
            assert (
                point.primary.interval.contains(exact)
                or point.primary.mean == pytest.approx(exact, abs=1e-12)
            ), f"{point.algorithm} k={point.k}: {point.primary} vs exact {exact}"

    def test_deterministic_across_serial_and_process_backends(self):
        serial = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 10, seed=3,
            runner=CampaignRunner(backend=SerialBackend()),
        )
        parallel = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 10, seed=3,
            runner=CampaignRunner(backend=ProcessPoolBackend(workers=2)),
        )
        assert serial.results[0].values == parallel.results[0].values
        assert serial.results[0].primary == parallel.results[0].primary

    def test_rerun_served_from_cache(self, tmp_path):
        args = (SystemRef.baseline4(), ("rc", "mtr"), (2,), 25)
        cold = run_montecarlo(
            *args, seed=0, runner=CampaignRunner(cache=ResultCache(tmp_path))
        )
        warm = run_montecarlo(
            *args, seed=0, runner=CampaignRunner(cache=ResultCache(tmp_path))
        )
        assert cold.campaign.executed == 50 and cold.campaign.cache_hits == 0
        assert warm.campaign.executed == 0
        assert warm.campaign.hit_ratio >= 0.95
        assert [p.values for p in warm.results] == [p.values for p in cold.results]

    def test_latency_metric_reports_delivery_statistics(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft",), (1,), 4,
            seed=1, metric="latency",
            traffic=TrafficSpec.make("uniform", rate=0.004), config=TINY,
        )
        point = report.results[0]
        assert point.completed == 4 and point.failed == 0
        assert point.primary.mean > 0
        assert point.primary.worst >= point.primary.mean  # worst = max latency
        assert point.delivery is not None
        assert 0.0 < point.delivery.mean <= 1.0
        assert point.delivered_pool is not None
        assert point.delivered_pool.low <= point.delivery.mean <= 1.0

    def test_undelivered_latency_samples_counted_as_dropped(self):
        """ok-but-NaN samples must be reported, not silently excluded."""
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft",), (1,), 2, seed=0, metric="latency",
            traffic=TrafficSpec.make("uniform", rate=0.0), config=TINY,
        )
        point = report.results[0]
        assert point.failed == 0
        assert point.dropped == 2 and point.completed == 0
        assert point.primary is None
        assert "without metric" in point.row()

    def test_all_samples_failed_yields_empty_point(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (32,), 3, seed=0
        )
        point = report.results[0]
        assert point.failed == 3 and point.completed == 0
        assert point.primary is None
        assert "failed" in point.row()

    def test_result_for_lookup(self):
        report = run_montecarlo(SystemRef.baseline4(), ("rc",), (1,), 2, seed=0)
        assert report.result_for("rc", 1).algorithm == "rc"
        with pytest.raises(KeyError):
            report.result_for("deft", 1)


class TestAdaptiveStopping:
    def test_start_offset_extends_without_rekeying(self):
        """Sample i's cache key is the same whether drawn eagerly or lazily."""
        eager = montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 10, seed=0)
        lazy = montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 4, seed=0, start=6)
        assert [job.key() for job in lazy] == [job.key() for job in eager[6:]]
        with pytest.raises(ValueError):
            montecarlo_jobs(SystemRef.baseline4(), "rc", 2, 4, start=-1)

    def test_loose_target_stops_after_initial_batch(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 8, seed=0,
            target_ci_width=0.9,
        )
        point = report.results[0]
        assert point.requested == 8 and point.completed == 8
        assert report.campaign.total == 8

    def test_tight_target_doubles_to_the_cap(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("mtr",), (4,), 6, seed=0,
            target_ci_width=1e-9, max_samples=20,
        )
        point = report.results[0]
        assert point.requested == 20  # 6 -> 12 -> 20 (capped)
        # Sample indices cover 0..19 exactly once across the rounds.
        indices = sorted(job.fault_sample for job in report.campaign.jobs)
        assert indices == list(range(20))

    def test_adaptive_estimates_match_fixed_run_at_same_n(self):
        adaptive = run_montecarlo(
            SystemRef.baseline4(), ("mtr",), (2,), 5, seed=1,
            target_ci_width=1e-9, max_samples=15,
        )
        fixed = run_montecarlo(SystemRef.baseline4(), ("mtr",), (2,), 15, seed=1)
        assert adaptive.results[0].values == fixed.results[0].values
        assert adaptive.results[0].primary == fixed.results[0].primary

    @pytest.mark.parametrize("algorithm", ["deft", "rc"])
    def test_adaptive_matches_fixed_for_each_algorithm(self, algorithm):
        adaptive = run_montecarlo(
            SystemRef.baseline4(), (algorithm,), (3,), 4, seed=2,
            target_ci_width=1e-9, max_samples=12,
        )
        fixed = run_montecarlo(SystemRef.baseline4(), (algorithm,), (3,), 12, seed=2)
        assert adaptive.results[0].requested == 12
        assert adaptive.results[0].values == fixed.results[0].values
        assert adaptive.results[0].primary == fixed.results[0].primary

    def test_points_stop_independently(self):
        """Each point stops on its own interval; counts and floats pinned."""
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft", "rc"), (1, 6), 8, seed=0,
            target_ci_width=0.004, max_samples=64,
        )
        assert [(p.algorithm, p.k, p.requested) for p in report.results] == [
            ("deft", 1, 8), ("deft", 6, 8), ("rc", 1, 16), ("rc", 6, 64),
        ]
        rc6 = report.result_for("rc", 6).primary
        assert (rc6.mean, rc6.std) == (0.7385292658730161, 0.005962542242275688)
        assert report.result_for("deft", 6).primary.mean == 1.0

    def test_rounds_emit_points_in_order_with_ascending_indices(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft", "rc"), (1, 6), 8, seed=0,
            target_ci_width=0.004, max_samples=64,
        )
        emitted = [
            (job.algorithm, job.fault_k, job.fault_sample)
            for job in report.campaign.jobs
        ]
        # Round 1: every point's 0..7; then only the points still open,
        # in declaration order, each extending from where it stopped.
        first = [(a, k, i) for a, k in (("deft", 1), ("deft", 6), ("rc", 1),
                                        ("rc", 6)) for i in range(8)]
        second = [("rc", 1, i) for i in range(8, 16)] + [
            ("rc", 6, i) for i in range(8, 16)
        ]
        rest = [("rc", 6, i) for i in range(16, 64)]
        assert emitted == first + second + rest

    def test_stopping_width_undefined_without_usable_samples(self):
        report = run_montecarlo(SystemRef.baseline4(), ("rc",), (32,), 2, seed=0)
        empty = report.results[0]
        assert _stopping_width(empty, "reachability", 240, 0.95) is None
        assert _stopping_width(empty, "latency", 240, 0.95) is None

    def test_stopping_width_pools_reachable_pair_counts(self):
        report = run_montecarlo(SystemRef.baseline4(), ("rc",), (2,), 6, seed=0)
        point = report.results[0]
        cores = len(SystemRef.baseline4().build().cores)
        pairs = cores * (cores - 1)
        reachable = sum(round(value * pairs) for value in point.values)
        pooled = wilson_interval(reachable, 6 * pairs)
        assert _stopping_width(point, "reachability", pairs, 0.95) == (
            pooled.high - pooled.low
        )
        assert _stopping_width(point, "reachability", 0, 0.95) is None

    def test_adaptive_rounds_are_cache_incremental(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 5, seed=0,
            target_ci_width=1e-9, max_samples=15,
            runner=CampaignRunner(cache=cache),
        )
        warm = run_montecarlo(
            SystemRef.baseline4(), ("rc",), (2,), 15, seed=0,
            runner=CampaignRunner(cache=ResultCache(tmp_path)),
        )
        assert warm.campaign.executed == 0
        assert warm.campaign.cache_hits == 15

    def test_latency_metric_stops_on_delivery_pool(self):
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft",), (1,), 3, seed=1, metric="latency",
            traffic=TrafficSpec.make("uniform", rate=0.004), config=TINY,
            target_ci_width=0.9,
        )
        point = report.results[0]
        assert point.requested == 3  # wide target: first batch suffices

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (1,), 4, target_ci_width=0.0
            )
        with pytest.raises(ValueError):
            run_montecarlo(
                SystemRef.baseline4(), ("rc",), (1,), 8,
                target_ci_width=0.1, max_samples=4,
            )
        with pytest.raises(ValueError):
            # max_samples is meaningless without a stopping target.
            run_montecarlo(SystemRef.baseline4(), ("rc",), (1,), 8, max_samples=16)


class TestShardedRounds:
    ARGS = dict(seed=4, target_ci_width=0.002)

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
        )

    def test_sharded_drivers_bit_identical_to_serial(self, tmp_path):
        serial = self.drive(tmp_path / "cache-serial", None)
        # The pooled stopping decision ran at least one extension round.
        assert serial.results[0].completed == 96  # 12 -> 24 -> 48 -> 96
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


class TestCampaignId:
    """The rendezvous namespace: shared by identical specs, fresh otherwise."""

    BASE = dict(
        system=SystemRef.baseline4(), algorithms=("rc", "deft"),
        fault_counts=(2, 4), samples=12, seed=4, metric="reachability",
        confidence=0.95, target_ci_width=0.002, max_samples=4000,
        probe_canonical={"probe": 1},
    )

    def test_identical_specs_share_a_namespace(self):
        first = _campaign_id(**self.BASE)
        assert first == _campaign_id(**dict(self.BASE))
        assert len(first) == 16 and int(first, 16) >= 0

    @pytest.mark.parametrize(
        "field,value",
        [("system", SystemRef.baseline6()),
         ("algorithms", ("deft", "rc")), ("fault_counts", (2, 8)),
         ("samples", 24), ("seed", 5), ("metric", "latency"),
         ("confidence", 0.99), ("target_ci_width", 0.004),
         ("max_samples", 2000), ("probe_canonical", {"probe": 2})],
    )
    def test_any_spec_change_moves_the_namespace(self, field, value):
        assert _campaign_id(**{**self.BASE, field: value}) != _campaign_id(
            **self.BASE
        )


@pytest.mark.slow
class TestAcceptance:
    """The ISSUE acceptance spec: 200 samples at k=2 track the exact curve."""

    def test_k2_200_samples_within_ci_for_all_algorithms(self, system4):
        report = run_montecarlo(
            SystemRef.baseline4(), ("deft", "mtr", "rc"), (2,), 200,
            seed=0, metric="reachability",
        )
        for point in report.results:
            exact = average_reachability(
                system4, make_algorithm(point.algorithm, system4), 2
            )
            assert (
                point.primary.interval.contains(exact)
                or point.primary.mean == pytest.approx(exact, abs=1e-12)
            )


@pytest.mark.slow
class TestFig7mcExperiment:
    def test_validation_checks_pass(self):
        from repro.experiments import fig7mc

        result = fig7mc.fig7mc_validation(scale=0.2)
        assert result.all_checks_pass, result.failed_checks()
        assert result.data["samples"] == 100  # floor keeps the check meaningful

    def test_scale_extension_checks_pass(self):
        from repro.experiments import fig7mc

        result = fig7mc.fig7mc_scale(scale=0.35)
        assert result.all_checks_pass, result.failed_checks()
        ks = result.data["fault_counts"]
        assert max(ks) > 8  # genuinely beyond Fig. 7's exact range
