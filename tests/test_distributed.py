"""Distributed campaign execution: spool protocol, workers, sharding.

The equality bar everywhere is *bit-identical to SerialBackend*:
``execute_job`` is a pure function of the job, so no amount of queueing,
crashing, requeueing or duplicate execution may change a number.

Subprocess-spawning tests keep job windows tiny (analytic reachability
jobs or short simulation windows) so the module stays in CI budget on
one core.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import SimulationConfig
from repro.distributed import (
    Spool,
    SpoolBackend,
    coverage_check,
    parse_shard,
    run_worker,
    shard_bounds,
    shard_campaign,
    shard_jobs,
    shard_of_key,
)
from repro.distributed.backend import _worker_command
from repro.montecarlo import montecarlo_jobs
from repro.runner import (
    Campaign,
    CampaignRunner,
    Job,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
)

TINY = SimulationConfig(
    warmup_cycles=30, measure_cycles=100, drain_cycles=1_200, watchdog_cycles=2_000
)


def reachability_jobs(samples: int = 6, algorithm: str = "rc") -> list[Job]:
    """Fast analytic Monte Carlo jobs (no simulator) on one topology."""
    return montecarlo_jobs(
        SystemRef.baseline4(), algorithm, 2, samples, seed=0, metric="reachability"
    )


def simulate_jobs(count: int = 2) -> list[Job]:
    return [
        Job.make(
            SystemRef.baseline4(), "rc",
            TrafficSpec.make("uniform", rate=0.003), TINY, seed=seed,
        )
        for seed in range(1, count + 1)
    ]


def serial_results(jobs):
    return SerialBackend().run(jobs)


class TestSpoolProtocol:
    def test_enqueue_claim_complete(self, tmp_path):
        jobs = reachability_jobs(3)
        spool = Spool(tmp_path)
        assert spool.enqueue(jobs) == 3
        assert spool.pending_count() == 3
        # Idempotent by content address.
        assert spool.enqueue(jobs) == 0

        claim = spool.claim_batch("w1")
        assert claim is not None and len(claim) == 1
        (entry,) = claim.entries
        assert entry.attempts == 1
        # The round-tripped job is canonically one of ours (same content
        # address; object equality differs in the applied config seed).
        assert entry.job.key() in {job.key() for job in jobs}
        assert spool.pending_count() == 2
        assert spool.claimed_count() == 1

        spool.flush_done(claim, [entry.key])
        assert spool.claimed_count() == 0

    def test_claim_is_exclusive(self, tmp_path):
        jobs = reachability_jobs(2)
        spool = Spool(tmp_path)
        spool.enqueue(jobs)
        first = spool.claim_batch("w1")
        second = spool.claim_batch("w2")
        third = spool.claim_batch("w3")
        assert first is not None and second is not None
        assert first.entries[0].key != second.entries[0].key
        assert third is None  # queue drained

    def test_claimed_key_not_reenqueued(self, tmp_path):
        jobs = reachability_jobs(1)
        spool = Spool(tmp_path)
        spool.enqueue(jobs)
        claim = spool.claim_batch("w1")
        assert claim is not None
        assert spool.enqueue(jobs) == 0
        assert spool.pending_count() == 0

    def test_requeue_after_lease_expiry(self, tmp_path):
        """The crash-recovery core: an expired claim goes back to pending
        with its attempt count carried over."""
        jobs = reachability_jobs(1)
        spool = Spool(tmp_path, lease_s=5.0)
        spool.enqueue(jobs)
        claim = spool.claim_batch("doomed")
        assert claim is not None and spool.pending_count() == 0

        # Not expired yet: nothing happens.
        assert spool.requeue_expired(now=claim.deadline - 1.0) == 0
        assert spool.claimed_count() == 1

        assert spool.requeue_expired(now=claim.deadline + 1.0) == 1
        assert spool.claimed_count() == 0
        assert spool.pending_count() == 1

        again = spool.claim_batch("w2")
        assert again is not None
        assert again.entries[0].attempts == 2
        assert again.entries[0].job.key() == claim.entries[0].job.key()

    def test_heartbeat_extends_lease(self, tmp_path):
        jobs = reachability_jobs(1)
        spool = Spool(tmp_path, lease_s=5.0)
        spool.enqueue(jobs)
        claim = spool.claim_batch("w1")
        original_deadline = claim.deadline
        spool.heartbeat_batch(claim, now=original_deadline - 1.0)
        assert claim.deadline > original_deadline
        assert spool.requeue_expired(now=original_deadline + 1.0) == 0

    def test_expiry_past_max_attempts_is_terminal(self, tmp_path):
        jobs = reachability_jobs(1)
        key = jobs[0].key()
        spool = Spool(tmp_path, lease_s=5.0, max_attempts=2)
        spool.enqueue(jobs)
        for _ in range(2):
            claim = spool.claim_batch("flaky")
            assert claim is not None
            spool.requeue_expired(now=claim.deadline + 1.0)
        assert spool.pending_count() == 0
        failed = spool.failed_result(key)
        assert failed is not None and not failed.ok
        assert "gave up after 2 attempt(s)" in failed.error

    def test_reenqueue_clears_stale_failure(self, tmp_path):
        jobs = reachability_jobs(1)
        key = jobs[0].key()
        spool = Spool(tmp_path, lease_s=5.0, max_attempts=1)
        spool.enqueue(jobs)
        claim = spool.claim_batch("w1")
        spool.requeue_expired(now=claim.deadline + 1.0)
        assert spool.failed_result(key) is not None
        # A new campaign retries the key: the stale failure must go.
        assert spool.enqueue(jobs) == 1
        assert spool.failed_result(key) is None

    def test_stop_sentinel(self, tmp_path):
        spool = Spool(tmp_path)
        assert not spool.stop_requested()
        spool.request_stop()
        assert spool.stop_requested()
        spool.clear_stop()
        assert not spool.stop_requested()


class TestWorker:
    def test_inline_worker_drains_spool_bit_identical(self, tmp_path):
        jobs = reachability_jobs(5)
        reference = serial_results(jobs)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs)
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(
            spool.root, cache, worker_id="w0", idle_timeout_s=0.2
        )
        assert stats["jobs_done"] == len(jobs)
        assert [cache.get(job) for job in jobs] == reference
        assert spool.pending_count() == 0 and spool.claimed_count() == 0

    def test_worker_publishes_session_stats(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs)
        cache = ResultCache(tmp_path / "cache")
        run_worker(spool.root, cache, worker_id="observable", idle_timeout_s=0.2)
        stats = spool.worker_stats()["observable"]
        assert stats["jobs_done"] == 4
        # Repeated topology: at most one miss per category, rest hits.
        session = stats["session"]
        assert session.get("system.hit", 0) >= 1
        assert session.get("algorithm.hit", 0) >= 1

    def test_worker_respects_max_jobs(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs)
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(spool.root, cache, max_jobs=2, idle_timeout_s=0.2)
        assert stats["jobs_done"] == 2
        assert spool.pending_count() == 2

    def test_worker_stops_on_sentinel(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        spool.request_stop()
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(spool.root, cache, idle_timeout_s=30.0)
        assert stats["jobs_done"] == 0  # returned immediately, no timeout

    def test_failed_job_retries_then_lands_terminally(self, tmp_path):
        bad = Job.make(
            SystemRef.baseline4(), "bogus",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        )
        spool = Spool(tmp_path / "spool", max_attempts=2).ensure()
        spool.enqueue([bad])
        cache = ResultCache(tmp_path / "cache")
        # The worker must share the spool's retry policy (autospawned
        # workers get it via --max-attempts; here we pass it directly).
        stats = run_worker(spool.root, cache, max_attempts=2, idle_timeout_s=0.3)
        # Executed twice (deterministic failure burns its attempts)...
        assert stats["jobs_done"] == 2 and stats["jobs_failed"] == 2
        # ...then became a terminal failure, never a cache entry.
        failed = spool.failed_result(bad.key())
        assert failed is not None and "ConfigurationError" in failed.error
        assert cache.get(bad) is None


class TestSpoolBackend:
    def test_spool_backend_smoke_matches_serial(self, tmp_path):
        """The CI smoke bar: 2 autospawned workers == SerialBackend."""
        jobs = reachability_jobs(8)
        reference = serial_results(jobs)
        cache = ResultCache(tmp_path / "cache")
        with SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=2, lease_s=10.0
        ) as backend:
            results = backend.run(jobs)
            stats = backend.spool.worker_stats()
        assert results == reference
        assert all(result.ok for result in results)
        # Both autospawned workers published observability stats.
        assert len(stats) == 2
        assert sum(s["jobs_done"] for s in stats.values()) >= len(jobs)

    def test_simulation_jobs_through_campaign_runner(self, tmp_path):
        jobs = simulate_jobs(2)
        reference = CampaignRunner(backend=SerialBackend()).run(jobs)
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(
            backend=SpoolBackend(
                cache=cache, spool_dir=tmp_path / "spool", workers=2,
                lease_s=10.0,
            ),
            cache=cache,
        )
        try:
            report = runner.run(jobs)
        finally:
            runner.close()
        assert report.results == reference.results
        assert report.executed == 2

    def test_workers_persist_across_runs(self, tmp_path):
        """Adaptive-round shape: the second run reuses the live workers."""
        first, second = reachability_jobs(3), reachability_jobs(6)[3:]
        cache = ResultCache(tmp_path / "cache")
        with SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=1, lease_s=10.0
        ) as backend:
            backend.run(first)
            pids_after_first = [proc.pid for proc in backend._procs]
            backend.run(second)
            pids_after_second = [proc.pid for proc in backend._procs]
        assert pids_after_first == pids_after_second != []
        assert [cache.get(job) for job in first + second] == serial_results(
            first + second
        )

    def test_terminal_failure_is_collected(self, tmp_path):
        bad = Job.make(
            SystemRef.baseline4(), "bogus",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        )
        good = reachability_jobs(1)[0]
        cache = ResultCache(tmp_path / "cache")
        with SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=1,
            lease_s=10.0, max_attempts=2,
        ) as backend:
            results = backend.run([bad, good])
        assert not results[0].ok and "ConfigurationError" in results[0].error
        assert results[1].ok

    def test_requires_cache(self):
        with pytest.raises(ValueError, match="needs a ResultCache"):
            SpoolBackend(cache=None)

    def test_empty_job_list(self, tmp_path):
        with SpoolBackend(
            cache=ResultCache(tmp_path / "cache"), spool_dir=tmp_path / "spool"
        ) as backend:
            assert backend.run([]) == []

    def test_stall_timeout_fails_only_with_nothing_in_flight(self, tmp_path):
        """No fleet ever claims -> remaining jobs fail after the stall
        window; but a held lease suppresses the stall entirely."""
        jobs = reachability_jobs(2)
        cache = ResultCache(tmp_path / "cache")
        backend = SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=0,
            lease_s=60.0, stall_timeout_s=0.3, poll_s=0.02,
        )
        try:
            # An in-flight claim (as a remote worker would hold) keeps the
            # backend waiting well past the stall window...
            backend.spool.ensure()
            backend.spool.enqueue(jobs[:1])
            claim = backend.spool.claim_batch("remote-worker")
            assert claim is not None
            (entry,) = claim.entries
            import threading

            def finish_later():
                time.sleep(0.8)  # > stall_timeout_s
                result = serial_results([entry.job])[0]
                cache.put(entry.job, result)
                backend.spool.flush_done(claim, [entry.key])

            finisher = threading.Thread(target=finish_later, daemon=True)
            finisher.start()
            results = backend.run(jobs[:1])
            finisher.join()
            assert results[0].ok  # waited through the held lease

            # ...whereas unclaimed jobs with no fleet stall out.
            stalled = backend.run(jobs[1:2])
            assert not stalled[0].ok
            assert "no spool progress" in stalled[0].error
        finally:
            backend.close()

    def test_external_worker_mode(self, tmp_path):
        """workers=0: the backend only enqueues and collects — a worker
        started by someone else (here: inline) does the executing."""
        import threading

        jobs = reachability_jobs(3)
        cache = ResultCache(tmp_path / "cache")
        backend = SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=0,
            lease_s=10.0, stall_timeout_s=60.0,
        )
        worker = threading.Thread(
            target=run_worker,
            args=(tmp_path / "spool", ResultCache(tmp_path / "cache")),
            kwargs={"idle_timeout_s": 5.0},
            daemon=True,
        )
        worker.start()
        try:
            results = backend.run(jobs)
        finally:
            backend.close()
            worker.join(timeout=30.0)
        assert results == serial_results(jobs)


class TestWorkerCrashRecovery:
    """Satellite: kill a worker mid-lease; the job must be requeued after
    lease expiry and the merged campaign stays bit-identical to serial."""

    def _spawn_worker(self, spool: Spool, cache: ResultCache) -> subprocess.Popen:
        command = _worker_command(
            spool.root, cache, worker_id="victim",
            lease_s=spool.lease_s, max_attempts=spool.max_attempts,
            poll_s=0.05, use_session=True,
        )
        env = dict(os.environ)
        package_root = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(package_root) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def test_killed_worker_job_requeued_and_results_identical(self, tmp_path):
        # A repeated-topology Monte Carlo campaign (the acceptance
        # scenario), with simulation windows long enough (~1s/job) that
        # the kill lands mid-job.
        jobs = montecarlo_jobs(
            SystemRef.baseline4(), "rc", 2, 2, seed=0, metric="latency",
            traffic=TrafficSpec.make("uniform", rate=0.003),
            config=SimulationConfig(warmup_cycles=300, measure_cycles=2_000,
                                    drain_cycles=20_000),
        )
        reference = serial_results(jobs)
        spool = Spool(tmp_path / "spool", lease_s=2.0).ensure()
        spool.enqueue(jobs)
        cache = ResultCache(tmp_path / "cache")

        victim = self._spawn_worker(spool, cache)
        try:
            # Wait until the worker holds a lease (claims/ is non-empty).
            deadline = time.monotonic() + 60.0
            while spool.claimed_count() == 0:
                assert time.monotonic() < deadline, "worker never claimed"
                assert victim.poll() is None, "worker exited prematurely"
                time.sleep(0.02)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30.0)
        finally:
            if victim.poll() is None:
                victim.kill()

        # The orphaned claim survives its holder's death...
        orphaned = spool.claimed_count()
        assert orphaned >= 1
        # ...and lease expiry requeues it (forced clock, no sleeping).
        assert spool.requeue_expired(now=time.time() + spool.lease_s + 1) >= 1
        assert spool.claimed_count() == 0

        # A healthy worker finishes the campaign; merged result == serial.
        run_worker(spool.root, cache, worker_id="rescuer", idle_timeout_s=0.3)
        merged = [cache.get(job) for job in jobs]
        assert None not in merged
        assert merged == reference


class TestSharding:
    def grid(self) -> list[Job]:
        return montecarlo_jobs(
            SystemRef.baseline4(), "deft", 2, 40, seed=0, metric="reachability"
        )

    def test_shards_partition_exactly(self):
        jobs = self.grid()
        for num_shards in (1, 2, 3, 7):
            slices = [shard_jobs(jobs, num_shards, i) for i in range(num_shards)]
            assert sum(len(piece) for piece in slices) == len(jobs)
            seen = {job.key() for piece in slices for job in piece}
            assert len(seen) == len(jobs)
            assert coverage_check(jobs, num_shards)

    def test_assignment_is_stable_and_range_based(self):
        jobs = self.grid()
        for job in jobs:
            index = shard_of_key(job.key(), 4)
            low, high = shard_bounds(index, 4)
            assert low <= job.key()[:8] <= high

    def test_shard_campaign_names_slice(self):
        campaign = Campaign(name="mc", jobs=tuple(self.grid()))
        piece = shard_campaign(campaign, 4, 1)
        assert piece.name == "mc#shard-2-of-4"
        assert set(piece.jobs) <= set(campaign.jobs)

    def test_parse_shard(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)
        for bad in ("0/4", "5/4", "x/4", "2", "2/0", "-1/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_sharded_execution_merges_through_cache(self, tmp_path):
        """Each shard runs separately against the shared cache; the final
        unsharded pass is served entirely from cache."""
        jobs = self.grid()[:12]
        cache_dir = tmp_path / "cache"
        for index in range(3):
            runner = CampaignRunner(
                backend=SerialBackend(), cache=ResultCache(cache_dir)
            )
            runner.run(shard_jobs(jobs, 3, index))
        merged = CampaignRunner(
            backend=SerialBackend(), cache=ResultCache(cache_dir)
        ).run(jobs)
        assert merged.cache_hits == len(jobs)
        assert merged.executed == 0
        assert merged.results == serial_results(jobs)


class TestCLI:
    def test_no_cache_with_spool_backend_fails_fast(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "campaign", "--backend", "spool", "--no-cache",
                "--rates", "0.003", "--quiet",
            ])
        # A clean argparse usage error (exit 2) on stderr, no traceback,
        # and crucially no simulation ran.
        assert excinfo.value.code == 2
        assert "content-addressed cache" in capsys.readouterr().err

    def test_no_cache_with_spool_montecarlo_fails_fast(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "montecarlo", "--backend", "spool", "--no-cache",
                "--k", "2", "--samples", "2", "--quiet",
            ])
        assert excinfo.value.code == 2

    def test_worker_subcommand_drains_spool(self, tmp_path, capsys):
        from repro.cli import main

        jobs = reachability_jobs(2)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs)
        cache_dir = tmp_path / "cache"
        code = main([
            "worker", str(tmp_path / "spool"),
            "--cache-dir", str(cache_dir),
            "--idle-timeout", "0.2", "--worker-id", "cli-worker",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 job(s) executed" in out
        assert [ResultCache(cache_dir).get(job) for job in jobs] == serial_results(jobs)

    def test_campaign_shard_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "campaign", "--system", "4", "--algo", "rc",
            "--rates", "0.003", "--seeds", "2",
            "--warmup", "30", "--cycles", "100", "--drain", "1200",
            "--shard", "1/2", "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
        ])
        assert code == 0
        assert "#shard-1-of-2" in capsys.readouterr().out

    def test_campaign_spool_backend_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "campaign", "--system", "4", "--algo", "rc",
            "--rates", "0.003", "--seeds", "1",
            "--warmup", "30", "--cycles", "100", "--drain", "1200",
            "--backend", "spool", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ])
        assert code == 0
        assert "1 executed" in capsys.readouterr().out
