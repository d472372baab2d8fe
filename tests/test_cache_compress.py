"""Optional gzip compression for result-cache entries.

Contract: ``compress=True`` changes bytes on disk, never results — a
compressed cache round-trips bit-identical results, mixed caches stay
fully servable in both directions, and stats/prune account for both
record kinds.
"""

import gzip
import json

from repro.config import SimulationConfig
from repro.montecarlo import montecarlo_jobs
from repro.runner import (
    CampaignRunner,
    Job,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
    execute_job,
)

from .cache_helpers import find_record, frame, split_record

TINY = SimulationConfig(
    warmup_cycles=30, measure_cycles=100, drain_cycles=1_200, watchdog_cycles=2_000
)


def one_job(seed: int = 1) -> Job:
    return Job.make(
        SystemRef.baseline4(), "rc",
        TrafficSpec.make("uniform", rate=0.003), TINY, seed=seed,
    )


def analytic_jobs(samples: int = 4) -> list[Job]:
    return montecarlo_jobs(
        SystemRef.baseline4(), "rc", 2, samples, seed=0, metric="reachability"
    )


class TestCompressedRoundTrip:
    def test_put_writes_gzip_and_get_round_trips(self, tmp_path):
        job = one_job()
        result = execute_job(job)
        cache = ResultCache(tmp_path, compress=True)
        cache.put(job, result)
        _, raw = find_record(cache, job)
        fields, packed = split_record(raw)
        assert fields[1] == b"gzip"
        # Genuinely one gzip member on disk, smaller than the JSON it holds.
        payload = json.loads(gzip.decompress(packed))
        assert payload["result"]["job_key"] == job.key()
        assert len(packed) < len(json.dumps(payload))
        assert cache.get(job) == result

    def test_compressed_cache_through_runner_is_identical(self, tmp_path):
        jobs = analytic_jobs()
        plain = CampaignRunner(backend=SerialBackend()).run(jobs)
        cold = CampaignRunner(
            backend=SerialBackend(), cache=ResultCache(tmp_path, compress=True)
        ).run(jobs)
        warm = CampaignRunner(
            backend=SerialBackend(), cache=ResultCache(tmp_path, compress=True)
        ).run(jobs)
        assert cold.results == plain.results
        assert warm.results == plain.results
        assert warm.executed == 0 and warm.cache_hits == len(jobs)


class TestMixedForms:
    def test_uncompressed_reader_serves_compressed_entry(self, tmp_path):
        job = one_job()
        result = execute_job(job)
        ResultCache(tmp_path, compress=True).put(job, result)
        assert ResultCache(tmp_path).get(job) == result

    def test_compressed_reader_serves_uncompressed_entry(self, tmp_path):
        job = one_job()
        result = execute_job(job)
        ResultCache(tmp_path).put(job, result)
        assert ResultCache(tmp_path, compress=True).get(job) == result

    def test_corrupt_gzip_entry_is_a_miss(self, tmp_path):
        """A gzip record whose digest checks out but whose bytes do not
        decompress is still a miss."""
        job = one_job()
        writer = tmp_path / "segments" / "forged"
        writer.mkdir(parents=True)
        (writer / "000000.seg").write_bytes(
            b"deft-segment 1\n" + frame(job.key(), b"definitely not gzip", b"gzip")
        )
        cache = ResultCache(tmp_path, compress=True)
        assert cache.get(job) is None
        assert cache.misses == 1 and cache.corrupt == 1
        assert cache.stats().corrupt == 1


class TestStatsAndPrune:
    def test_stats_report_compressed_and_uncompressed_counts(self, tmp_path):
        packed_job, plain_job = analytic_jobs(2)
        ResultCache(tmp_path, compress=True).put(packed_job, execute_job(packed_job))
        ResultCache(tmp_path).put(plain_job, execute_job(plain_job))
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 2
        assert stats.compressed == 1
        assert "1 compressed, 1 uncompressed" in stats.summary()

    def test_prune_all_sweeps_both_forms(self, tmp_path):
        packed_job, plain_job = analytic_jobs(2)
        ResultCache(tmp_path, compress=True).put(packed_job, execute_job(packed_job))
        ResultCache(tmp_path).put(plain_job, execute_job(plain_job))
        removed = ResultCache(tmp_path).prune(remove_all=True)
        assert removed.entries == 2 and removed.compressed == 1
        assert ResultCache(tmp_path).stats().entries == 0

    def test_len_counts_both_forms(self, tmp_path):
        packed_job, plain_job = analytic_jobs(2)
        ResultCache(tmp_path, compress=True).put(packed_job, execute_job(packed_job))
        ResultCache(tmp_path).put(plain_job, execute_job(plain_job))
        assert len(ResultCache(tmp_path)) == 2


class TestCLI:
    def test_cache_stats_reports_compression(self, tmp_path, capsys):
        from repro.cli import main

        job = analytic_jobs(1)[0]
        ResultCache(tmp_path, compress=True).put(job, execute_job(job))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 cached result(s)" in out
        assert "1 compressed, 0 uncompressed" in out

    def test_campaign_compress_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cc"
        code = main([
            "campaign", "--system", "4", "--algo", "rc",
            "--rates", "0.003", "--seeds", "1",
            "--warmup", "30", "--cycles", "100", "--drain", "1200",
            "--cache-dir", str(cache_dir), "--compress-cache", "--quiet",
        ])
        assert code == 0
        stats = ResultCache(cache_dir).stats()
        assert stats.entries == 1 and stats.compressed == 1
