"""Campaign runner: job hashing, cache semantics, campaign plumbing."""

import dataclasses
import json

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigurationError
from repro.runner import (
    Campaign,
    CampaignRunner,
    Job,
    JobResult,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
    execute_job,
    execute_jobs,
    faults_to_spec,
)
from repro.runner import execute as execute_module
from repro.runner.session import SessionContext

from .cache_helpers import (
    find_record,
    replace_record,
    rewrite_payload,
    segment_files,
)


@pytest.fixture()
def tiny_config():
    return SimulationConfig(
        warmup_cycles=30, measure_cycles=120, drain_cycles=1_500, watchdog_cycles=2_000
    )


def tiny_job(tiny_config, *, algorithm="deft", rate=0.004, seed=1, **kwargs):
    return Job.make(
        SystemRef.baseline4(),
        algorithm,
        TrafficSpec.make("uniform", rate=rate),
        tiny_config,
        seed=seed,
        **kwargs,
    )


class TestSystemRef:
    def test_presets_build(self):
        assert SystemRef.baseline4().build().spec.num_chiplets == 4
        assert SystemRef.baseline6().build().spec.num_chiplets == 6

    def test_grid_builds(self):
        system = SystemRef.from_grid(2, 1).build()
        assert system.spec.num_chiplets == 2

    def test_cli_syntax(self):
        assert SystemRef.from_cli("4").preset == "baseline-4-chiplets"
        assert SystemRef.from_cli("6").preset == "baseline-6-chiplets"
        assert SystemRef.from_cli("3x2").grid == (3, 2, 4, 4)

    def test_needs_exactly_one_form(self):
        with pytest.raises(ConfigurationError):
            SystemRef()
        with pytest.raises(ConfigurationError):
            SystemRef(preset="baseline-4-chiplets", grid=(2, 2, 4, 4))

    def test_round_trips(self):
        for ref in (SystemRef.baseline4(), SystemRef.from_grid(3, 2)):
            assert SystemRef.from_dict(ref.to_dict()) == ref


class TestJobHashing:
    def test_key_stable_across_param_ordering(self, tiny_config):
        a = Job.make(
            SystemRef.baseline4(),
            "deft",
            TrafficSpec.make("hotspot", rate=0.004, hotspot_rate=0.1),
            tiny_config,
            faults=((3, "down"), (1, "up")),
        )
        b = Job.make(
            SystemRef.baseline4(),
            "deft",
            TrafficSpec.make("hotspot", hotspot_rate=0.1, rate=0.004),
            tiny_config,
            faults=((1, "up"), (3, "down")),
        )
        assert a.key() == b.key()

    def test_key_depends_on_every_field(self, tiny_config):
        base = tiny_job(tiny_config)
        variants = [
            tiny_job(tiny_config, algorithm="mtr"),
            tiny_job(tiny_config, rate=0.005),
            tiny_job(tiny_config, seed=2),
            tiny_job(tiny_config, faults=((0, "down"),)),
            Job.make(
                SystemRef.baseline6(),
                "deft",
                TrafficSpec.make("uniform", rate=0.004),
                tiny_config,
            ),
            Job.make(
                SystemRef.baseline4(),
                "deft",
                TrafficSpec.make("uniform", rate=0.004),
                tiny_config.replace(measure_cycles=121),
            ),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_config_seed_is_normalized_into_job_seed(self, tiny_config):
        """Two configs differing only in their (overridden) seed hash equal."""
        a = Job.make(
            SystemRef.baseline4(), "deft",
            TrafficSpec.make("uniform", rate=0.004),
            tiny_config.replace(seed=999), seed=5,
        )
        b = Job.make(
            SystemRef.baseline4(), "deft",
            TrafficSpec.make("uniform", rate=0.004),
            tiny_config.replace(seed=111), seed=5,
        )
        assert a.key() == b.key()

    def test_canonical_round_trip(self, tiny_config):
        job = tiny_job(tiny_config, faults=((2, "up"),), algorithm_params={"rho": 0.5})
        rebuilt = Job.from_canonical(json.loads(job.canonical_json()))
        assert rebuilt.key() == job.key()

    def test_rejects_bad_fault_direction(self, tiny_config):
        with pytest.raises(ConfigurationError):
            tiny_job(tiny_config, faults=((2, "sideways"),))

    def test_rejects_non_scalar_params(self, tiny_config):
        with pytest.raises(ConfigurationError):
            TrafficSpec.make("uniform", rate=[0.1])

    def test_faults_to_spec_is_sorted_canonical(self, system4):
        from repro.experiments.fig8 import fault_pattern_25

        spec = faults_to_spec(fault_pattern_25(system4))
        assert spec == tuple(sorted(spec))
        assert all(direction in ("down", "up") for _, direction in spec)


class TestExecuteJob:
    def test_success_metrics(self, tiny_config):
        result = execute_job(tiny_job(tiny_config))
        assert result.ok and result.error is None
        assert result.average_latency > 0
        assert result.delivered_ratio == pytest.approx(1.0)
        assert result.cycles > 0
        assert "interposer" in result.vc_utilization
        assert any(down + up > 0 for down, up in result.vl_loads.values())

    def test_error_capture(self, tiny_config):
        result = execute_job(tiny_job(tiny_config, algorithm="bogus"))
        assert not result.ok
        assert "ConfigurationError" in result.error

    def test_rho_param_changes_tables_not_crash(self, tiny_config):
        result = execute_job(
            tiny_job(tiny_config, algorithm_params={"rho": 10.0},
                     faults=((0, "down"),))
        )
        assert result.ok

    def test_rho_rejected_for_non_deft(self, tiny_config):
        result = execute_job(
            tiny_job(tiny_config, algorithm="mtr", algorithm_params={"rho": 1.0})
        )
        assert not result.ok and "rho" in result.error

    def test_result_round_trip(self, tiny_config):
        result = execute_job(tiny_job(tiny_config))
        rebuilt = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.vl_loads == result.vl_loads

    def test_nan_metrics_survive_round_trip_equality(self, tiny_config):
        """A packet-less run (rate 0) has NaN latency; a serialized copy
        must still compare equal or cache hits would look nondeterministic."""
        result = execute_job(tiny_job(tiny_config, rate=0.0))
        assert result.ok and result.average_latency != result.average_latency
        rebuilt = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        assert cache.get(job) is None
        result = execute_job(job)
        cache.put(job, result)
        hit = cache.get(job)
        assert hit == result and hit.cached
        assert cache.hits == 1 and cache.misses == 1

    def test_failed_results_never_cached(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config, algorithm="bogus")
        cache.put(job, execute_job(job))
        assert cache.get(job) is None

    @staticmethod
    def _garble(cache, job):
        """Overwrite the tail of a record's payload, framing intact."""
        _, raw = find_record(cache, job)
        replace_record(cache, job, raw[:-10] + b"{not json\n")

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        self._garble(cache, job)
        assert cache.get(job) is None
        assert cache.corrupt == 1
        assert ResultCache(tmp_path).get(job) is None

    def test_parseable_but_altered_payload_is_corrupt(self, tmp_path, tiny_config):
        """A changed digit that still parses fails the digest: a miss,
        counted corrupt by the census and swept by prune."""
        from repro.cli import main

        cache = ResultCache(tmp_path)
        job, kept = tiny_job(tiny_config), tiny_job(tiny_config, seed=2)
        cache.put_many([(job, execute_job(job)), (kept, execute_job(kept))])

        def tweak(payload):
            latency = payload["result"]["average_latency"]
            payload["result"]["average_latency"] = latency + 1.0

        rewrite_payload(cache, job, tweak, keep_digest=True)
        assert ResultCache(tmp_path).get(job) is None
        assert main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)]) == 0
        stats = ResultCache(tmp_path).stats()
        assert (stats.entries, stats.corrupt) == (1, 1)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        stats = ResultCache(tmp_path).stats()
        assert (stats.entries, stats.corrupt) == (1, 0)
        assert ResultCache(tmp_path).get(kept) is not None

    def test_len_counts_entries(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        assert len(cache) == 1

    def _spoil_version(self, cache, job, version=999):
        rewrite_payload(
            cache, job, lambda payload: payload.update(version=version),
            keep_digest=False,
        )

    def test_len_ignores_stale_version_entries(self, tmp_path, tiny_config):
        """Regression: entries `get` will never serve must not be counted."""
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        self._spoil_version(cache, job)
        assert cache.get(job) is None  # unservable...
        assert len(cache) == 0         # ...and now uncounted too

    def test_stats_census(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        fresh, stale = tiny_job(tiny_config), tiny_job(tiny_config, seed=2)
        cache.put(fresh, execute_job(fresh))
        cache.put(stale, execute_job(stale))
        self._spoil_version(cache, stale)
        segment_files(cache)[0].with_name("000009.tmp").write_text("x")
        corrupt = tiny_job(tiny_config, seed=3)
        cache.put(corrupt, execute_job(corrupt))
        self._garble(cache, corrupt)
        stats = cache.stats()
        assert (stats.entries, stats.stale, stats.corrupt, stats.tmp_files) \
            == (1, 1, 1, 1)
        assert stats.total_bytes > 0
        assert "1 cached result(s)" in stats.summary()

    def test_prune_sweeps_stale_corrupt_and_tmp(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        fresh, stale = tiny_job(tiny_config), tiny_job(tiny_config, seed=2)
        cache.put(fresh, execute_job(fresh))
        cache.put(stale, execute_job(stale))
        self._spoil_version(cache, stale)
        segment_files(cache)[0].with_name("000009.tmp").write_text("x")
        removed = cache.prune()
        assert (removed.stale, removed.tmp_files) == (1, 1)
        assert removed.entries == 0
        stats = cache.stats()
        assert (stats.entries, stats.stale, stats.tmp_files) == (1, 0, 0)
        assert cache.get(fresh) is not None  # servable entry survived

    def test_prune_all(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        removed = cache.prune(remove_all=True)
        assert removed.entries == 1
        assert len(cache) == 0
        # Empty shard directories are swept with their contents.
        assert not any(p.is_dir() for p in cache.root.iterdir())

    def test_stats_on_missing_root(self, tmp_path):
        stats = ResultCache(tmp_path / "missing").stats()
        assert stats == ResultCache(tmp_path / "missing").prune()
        assert stats.entries == 0

    @staticmethod
    def _backdate(cache, job, days):
        import os
        import time

        stamp = time.time() - days * 86_400
        os.utime(find_record(cache, job)[0], (stamp, stamp))

    def test_prune_older_than_sweeps_only_old_entries(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        old, recent = tiny_job(tiny_config), tiny_job(tiny_config, seed=2)
        cache.put(old, execute_job(old))
        cache.put(recent, execute_job(recent))
        self._backdate(cache, old, days=45)
        self._backdate(cache, recent, days=2)
        removed = cache.prune(older_than_days=30)
        assert removed.entries == 1
        assert cache.get(old) is None
        assert cache.get(recent) is not None

    def test_prune_older_than_also_sweeps_dead_weight(self, tmp_path, tiny_config):
        """Age pruning composes with the default stale/corrupt sweep."""
        cache = ResultCache(tmp_path)
        old, stale = tiny_job(tiny_config), tiny_job(tiny_config, seed=2)
        cache.put(old, execute_job(old))
        cache.put(stale, execute_job(stale))
        self._spoil_version(cache, stale)
        self._backdate(cache, old, days=10)
        removed = cache.prune(older_than_days=7)
        assert (removed.entries, removed.stale) == (1, 1)
        assert len(cache) == 0

    def test_prune_older_than_zero_sweeps_everything_servable(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        self._backdate(cache, job, days=0.001)
        assert cache.prune(older_than_days=0).entries == 1

    def test_prune_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(older_than_days=-1)

    def test_prune_rejects_nan_age(self, tmp_path, tiny_config):
        """NaN must not silently sweep the whole cache (cutoff compares False)."""
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        with pytest.raises(ValueError):
            cache.prune(older_than_days=float("nan"))
        assert cache.get(job) is not None

    def test_prune_now_override_is_deterministic(self, tmp_path, tiny_config):
        import time

        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        cache.put(job, execute_job(job))
        # Pretend "now" is 31 days in the future: the entry is old.
        future = time.time() + 31 * 86_400
        assert cache.prune(older_than_days=30, now=future).entries == 1


class TestCampaignRunner:
    def test_dedup_and_alignment(self, tiny_config):
        job = tiny_job(tiny_config)
        twin = tiny_job(tiny_config)
        other = tiny_job(tiny_config, seed=2)
        report = CampaignRunner().run([job, other, twin])
        assert report.deduplicated == 1
        assert report.executed == 2
        assert report.results[0] == report.results[2]
        assert report.results[0] != report.results[1]
        assert report.result_for(other) is report.results[1]

    def test_second_run_served_from_cache(self, tmp_path, tiny_config):
        jobs = [tiny_job(tiny_config, rate=rate) for rate in (0.003, 0.004)]
        first = CampaignRunner(cache=ResultCache(tmp_path)).run(
            Campaign(name="warmup", jobs=tuple(jobs))
        )
        second = CampaignRunner(cache=ResultCache(tmp_path)).run(
            Campaign(name="rerun", jobs=tuple(jobs))
        )
        assert first.cache_hits == 0 and first.executed == 2
        assert second.cache_hits == 2 and second.executed == 0
        assert second.hit_ratio == 1.0
        assert second.results == first.results

    def test_overlapping_campaign_is_incremental(self, tmp_path, tiny_config):
        cache_a = ResultCache(tmp_path)
        CampaignRunner(cache=cache_a).run([tiny_job(tiny_config, rate=0.003)])
        report = CampaignRunner(cache=ResultCache(tmp_path)).run(
            [tiny_job(tiny_config, rate=0.003), tiny_job(tiny_config, rate=0.004)]
        )
        assert report.cache_hits == 1 and report.executed == 1

    def test_progress_covers_hits_and_executions(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        CampaignRunner(cache=cache).run([job])
        seen: list[tuple[int, int, bool]] = []
        CampaignRunner(cache=cache).run(
            [job, tiny_job(tiny_config, seed=3)],
            progress=lambda done, total, _job, result: seen.append(
                (done, total, result.cached)
            ),
        )
        assert seen == [(1, 2, True), (2, 2, False)]

    def test_hit_ratio_ignores_duplicates(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        job = tiny_job(tiny_config)
        CampaignRunner(cache=cache).run([job])
        report = CampaignRunner(cache=cache).run([job, tiny_job(tiny_config)])
        assert report.deduplicated == 1
        assert report.hit_ratio == 1.0

    def test_raise_if_failed(self, tiny_config):
        report = CampaignRunner().run([tiny_job(tiny_config, algorithm="bogus")])
        assert len(report.errors) == 1
        with pytest.raises(RuntimeError):
            report.raise_if_failed()

    def test_serial_backend_reports_progress_in_order(self, tiny_config):
        jobs = [tiny_job(tiny_config, seed=s) for s in (1, 2)]
        order: list[int] = []
        SerialBackend().run(jobs, on_result=lambda done, total, j, r: order.append(done))
        assert order == [1, 2]


class TestKernelCacheIdentity:
    """The kernel preference must never split the content-addressed cache.

    The cycle kernels are bit-identical by contract (enforced by
    tests/test_kernel_equivalence.py), so ``Job.kernel`` is deliberately
    excluded from the canonical form: one scenario simulated under either
    kernel is ONE cache entry, and entries written by different kernels
    are byte-identical modulo wall-clock provenance.
    """

    def test_kernel_excluded_from_key_and_canonical(self, tiny_config):
        jobs = [
            tiny_job(tiny_config, kernel=k)
            for k in ("auto", "reference", "vector")
        ]
        assert len({job.key() for job in jobs}) == 1
        assert all("kernel" not in job.canonical() for job in jobs)

    def test_kernel_survives_make_and_validates(self, tiny_config):
        assert tiny_job(tiny_config, kernel="vector").kernel == "vector"
        with pytest.raises(ConfigurationError):
            tiny_job(tiny_config, kernel="turbo")

    def test_both_kernels_write_one_identical_entry(self, tmp_path, tiny_config):
        import dataclasses

        entries = {}
        for kernel in ("reference", "vector"):
            cache = ResultCache(tmp_path / kernel)
            job = tiny_job(tiny_config, kernel=kernel)
            result = execute_job(job).raise_if_failed()
            # duration_s is wall-clock provenance (excluded from result
            # equality); pin it so the stored bytes are comparable.
            cache.put(job, dataclasses.replace(result, duration_s=0.0))
            entries[kernel] = find_record(cache, job)[1]
        # Same key in the header, same bytes: one entry.
        assert entries["reference"] == entries["vector"]

    def test_vector_entry_serves_reference_job(self, tmp_path, tiny_config):
        cache = ResultCache(tmp_path)
        vec_job = tiny_job(tiny_config, kernel="vector")
        cache.put(vec_job, execute_job(vec_job))
        hit = cache.get(tiny_job(tiny_config, kernel="reference"))
        assert hit is not None and hit.cached


class TestBatchedExecution:
    """``execute_jobs``: mixed-algorithm lockstep batches in the runner."""

    @staticmethod
    def _record_batch_sizes(monkeypatch) -> dict:
        sizes: dict = {}
        original = execute_module._simulation_result

        def spy(key, report, sampled, duration_s):
            sizes[key] = report.metadata["batch"]
            return original(key, report, sampled, duration_s)

        monkeypatch.setattr(execute_module, "_simulation_result", spy)
        return sizes

    def test_batch_isolates_a_failing_algorithm_spec(self, monkeypatch, tiny_config):
        bad = tiny_job(tiny_config, algorithm="mtr", algorithm_params={"rho": 0.5})
        mates = [
            tiny_job(tiny_config, algorithm="deft"),
            tiny_job(tiny_config, algorithm="rc"),
            tiny_job(tiny_config, algorithm="mtr", rate=0.008),
        ]
        sizes = self._record_batch_sizes(monkeypatch)
        results = execute_jobs([mates[0], bad, *mates[1:]], session=SessionContext())
        failed = results[1]
        expected = execute_job(bad, session=SessionContext())
        assert not failed.ok and failed.error == expected.error
        assert "ConfigurationError" in failed.error
        for job, result in zip(mates, results[:1] + results[2:]):
            assert result.ok, result.error
            assert sizes[job.key()] == len(mates)
            assert result == execute_job(dataclasses.replace(job, kernel="reference"))

    def test_batch_phase_shares_sum_to_batch_wall_clock(self, monkeypatch, tiny_config):
        class Clock:
            """Deterministic perf_counter: one tick per reading."""

            readings: list = []

            @classmethod
            def perf_counter(cls):
                cls.readings.append(float(len(cls.readings)))
                return cls.readings[-1]

        jobs = [
            tiny_job(tiny_config, algorithm=algorithm, rate=rate)
            for algorithm in ("deft", "mtr", "rc")
            for rate in (0.004, 0.008)
        ]
        sizes = self._record_batch_sizes(monkeypatch)
        monkeypatch.setattr(execute_module, "time", Clock)
        phases: list[dict] = []
        results = execute_jobs(
            jobs, session=SessionContext(),
            on_result=lambda index, result, split: phases.append(split),
        )
        assert all(result.ok for result in results)
        assert set(sizes.values()) == {len(jobs)}
        wall = Clock.readings[-1] - Clock.readings[0]
        assert sum(split["total_s"] for split in phases) == pytest.approx(wall)
        for split in phases:
            assert split["setup_s"] + split["compile_s"] + split["simulate_s"] == (
                pytest.approx(split["total_s"])
            )
        # One compile per distinct algorithm, each one tick long, charged
        # apart from the builds.
        assert sum(split["compile_s"] for split in phases) == pytest.approx(3.0)
        assert sum(split["setup_s"] for split in phases) > 0
