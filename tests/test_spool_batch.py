"""Spool protocol v3: batched leases, remainder requeue, version refusal.

The equality bar is *bit-identical to SerialBackend* no matter how jobs
are grouped under leases, crashed mid-batch, or requeued — plus the
invariants batching introduces: a settled job's result is always
durable before the lease says so, a crash requeues exactly the
unsettled remainder (once, with carried attempt counts), and a spool
directory of any other protocol version is refused, never misread.
"""

import json
import os
import signal
import subprocess
import time

import pytest

from repro.config import SimulationConfig
from repro.distributed import Spool, SpoolBackend, auto_batch_size, run_worker
from repro.distributed.backend import _worker_command, fleet_size
from repro.distributed.spool import MAX_BATCH, PROTOCOL_VERSION
from repro.montecarlo import montecarlo_jobs
from repro.runner import (
    Job,
    ResultCache,
    SerialBackend,
    SystemRef,
    TrafficSpec,
)
from repro.runner.result import JobResult
from repro.telemetry.metrics import get_registry
from repro.telemetry.status import fleet_status

from .cache_helpers import find_record, segment_files, split_record

TINY = SimulationConfig(
    warmup_cycles=30, measure_cycles=100, drain_cycles=1_200, watchdog_cycles=2_000
)


def reachability_jobs(samples: int = 6, algorithm: str = "rc") -> list[Job]:
    """Fast analytic Monte Carlo jobs (no simulator) on one topology."""
    return montecarlo_jobs(
        SystemRef.baseline4(), algorithm, 2, samples, seed=0, metric="reachability"
    )


def serial_results(jobs):
    return SerialBackend().run(jobs)


def batch_files(spool: Spool) -> list[str]:
    return sorted(
        path.name
        for path in spool.jobs_dir.glob("batch-*.json")
    )


class TestBatchedEnqueue:
    def test_batched_enqueue_groups_and_counts_jobs(self, tmp_path):
        jobs = reachability_jobs(10)
        spool = Spool(tmp_path)
        assert spool.enqueue(jobs, batch_size=4) == 10
        # 4 + 4 + 2: counts stay job-accurate from file names alone.
        assert spool.pending_count() == 10
        assert len(batch_files(spool)) == 3
        # Idempotent by content address, batch files included.
        assert spool.enqueue(jobs, batch_size=4) == 0
        assert spool.enqueue(jobs) == 0
        assert spool.pending_count() == 10

    def test_partial_overlap_enqueues_only_fresh_jobs(self, tmp_path):
        jobs = reachability_jobs(8)
        spool = Spool(tmp_path)
        spool.enqueue(jobs[:5], batch_size=4)
        # 3 of the 8 are new; they form one batch of 3.
        assert spool.enqueue(jobs, batch_size=4) == 3
        assert spool.pending_count() == 8

    def test_remainder_of_one_is_an_n1_batch_file(self, tmp_path):
        jobs = reachability_jobs(5)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=4)
        names = batch_files(spool)
        assert names == sorted(path.name for path in spool.jobs_dir.glob("*.json"))
        singles = [name for name in names if name.endswith("-n1.json")]
        assert len(singles) == 1  # the 5th job
        (single,) = json.loads((spool.jobs_dir / singles[0]).read_text())["jobs"]
        assert single["key"] == jobs[4].key() and single["attempts"] == 0
        assert spool.pending_count() == 5

    def test_batch_size_clamped(self, tmp_path):
        jobs = reachability_jobs(40)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=1_000)
        for name in batch_files(spool):
            payload = json.loads((spool.jobs_dir / name).read_text())
            assert len(payload["jobs"]) <= MAX_BATCH

    def test_spool_manifest_records_protocol_version(self, tmp_path):
        assert Spool(tmp_path).protocol_version() is None
        spool = Spool(tmp_path).ensure()
        assert spool.protocol_version() == PROTOCOL_VERSION
        manifest = json.loads((tmp_path / "spool.json").read_text())
        assert manifest["protocol"] == PROTOCOL_VERSION
        # An empty directory without a manifest is fresh, not pre-v3.
        (tmp_path / "empty" / "jobs").mkdir(parents=True)
        empty = Spool(tmp_path / "empty").ensure()
        assert empty.protocol_version() == PROTOCOL_VERSION

    def test_future_protocol_version_refused(self, tmp_path):
        Spool(tmp_path).ensure()
        (tmp_path / "spool.json").write_text(
            json.dumps({"protocol": PROTOCOL_VERSION + 1})
        )
        with pytest.raises(ValueError, match="upgrade the worker"):
            Spool(tmp_path).ensure()

    def test_pre_v3_spool_refused(self, tmp_path):
        """Spools of an older protocol are refused, with the version
        found named in the error — never drained in a format this code
        no longer writes."""
        (job,) = reachability_jobs(1)
        # Pre-manifest layout: a per-key pending file and no spool.json.
        v1 = tmp_path / "v1"
        (v1 / "jobs").mkdir(parents=True)
        (v1 / "jobs" / f"{job.key()}.json").write_text(
            json.dumps({"job": job.canonical(), "attempts": 0})
        )
        assert Spool(v1).protocol_version() is None
        with pytest.raises(ValueError, match="protocol 1 "):
            Spool(v1).ensure()
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="protocol 1 "):
            run_worker(v1, cache, idle_timeout_s=0.2)
        assert (v1 / "jobs" / f"{job.key()}.json").exists()  # untouched

        # A manifest naming protocol 2.
        v2 = tmp_path / "v2"
        Spool(v2).enqueue([job])
        (v2 / "spool.json").write_text(json.dumps({"protocol": 2}))
        assert Spool(v2).protocol_version() == 2
        with pytest.raises(ValueError, match="protocol 2 "):
            Spool(v2).ensure()
        with pytest.raises(ValueError, match="protocol 2 "):
            Spool(v2).enqueue([job])


class TestBatchClaim:
    def test_claim_batch_takes_all_jobs_under_one_lease(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=4)
        claim = spool.claim_batch("w1")
        assert claim is not None and len(claim) == 4
        assert {entry.attempts for entry in claim.entries} == {1}
        assert {entry.job.key() for entry in claim.entries} == {
            job.key() for job in jobs
        }
        # One lease file; job-accurate claimed depth; nothing pending.
        assert len(list(spool.claims_dir.glob("*.json"))) == 1
        assert spool.claimed_count() == 4
        assert spool.pending_count() == 0

    def test_stratified_wire_entry_is_not_claimed(self, tmp_path):
        """A removed-feature job must not run as the uniform sample it aliases."""
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=4)
        (path,) = spool.jobs_dir.glob("batch-*.json")
        payload = json.loads(path.read_text())
        payload["jobs"][1]["job"]["fault_stratum"] = [1, 1]
        path.write_text(json.dumps(payload))
        claim = spool.claim_batch("w1")
        assert claim is not None and len(claim) == 3
        assert {entry.job.key() for entry in claim.entries} == {
            job.key() for i, job in enumerate(jobs) if i != 1
        }

    @pytest.mark.parametrize("batch_size", [4, 1])
    def test_batch_claim_is_single_winner(self, tmp_path, batch_size):
        jobs = reachability_jobs(batch_size)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=batch_size)
        first = spool.claim_batch("w1")
        second = spool.claim_batch("w2")
        assert first is not None and len(first) == batch_size
        assert second is None

    def test_requeue_under_held_lease_never_replaces_it(self, tmp_path):
        """A failed batch-of-one job is republished while its lease is
        still held: the reclaim must land beside that lease, so the
        holder's release cannot delete the new lease."""
        jobs = reachability_jobs(1)
        spool = Spool(tmp_path)
        spool.enqueue(jobs)
        first = spool.claim_batch("w1")
        (entry,) = first.entries
        spool.requeue_entry(first, entry)
        second = spool.claim_batch("w2")
        assert second is not None and second.name != first.name
        assert second.entries[0].attempts == 2
        spool.flush_done(first, [entry.key])  # w1 settles and releases
        assert [p.name for p in spool.claims_dir.glob("*.json")] == [second.name]
        assert spool.heartbeat_batch(second)

    def test_claimed_batch_keys_not_reenqueued(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=4)
        assert spool.claim_batch("w1") is not None
        assert spool.enqueue(jobs, batch_size=4) == 0
        assert spool.enqueue(jobs) == 0
        assert spool.pending_count() == 0

    def test_heartbeat_covers_whole_batch(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path, lease_s=5.0)
        spool.enqueue(jobs, batch_size=4)
        claim = spool.claim_batch("w1")
        original = claim.deadline
        assert spool.heartbeat_batch(claim, now=original - 1.0)
        assert claim.deadline > original
        # The single renewal kept all four jobs alive.
        assert spool.requeue_expired(now=original + 1.0) == 0
        assert spool.claimed_count() == 4

    def test_settling_every_job_completes_the_batch(self, tmp_path):
        jobs = reachability_jobs(3)
        spool = Spool(tmp_path)
        spool.enqueue(jobs, batch_size=3)
        claim = spool.claim_batch("w1")
        keys = [entry.key for entry in claim.entries]
        spool.flush_done(claim, keys[:2])
        assert spool.claimed_count() == 3  # lease file still present
        assert len(claim.remaining) == 1
        spool.flush_done(claim, keys[2:])
        assert spool.claimed_count() == 0
        assert spool.pending_count() == 0

    def test_claim_records_batch_size_histogram(self, tmp_path):
        registry = get_registry()
        if not registry.enabled:
            pytest.skip("telemetry disabled in this environment")
        hist = registry.histogram("deft_spool_batch_size")
        before = hist.count
        spool = Spool(tmp_path)
        spool.enqueue(reachability_jobs(4), batch_size=4)
        spool.claim_batch("w1")
        assert hist.count == before + 1

    def test_spool_counts_its_fs_ops(self, tmp_path):
        registry = get_registry()
        if not registry.enabled:
            pytest.skip("telemetry disabled in this environment")
        counter = registry.counter("deft_spool_fs_ops")
        before = counter.value
        spool = Spool(tmp_path)
        spool.enqueue(reachability_jobs(4), batch_size=4)
        spool.claim_batch("w1")
        assert counter.value > before


class TestBatchCrashSemantics:
    """Satellite: crash mid-batch — done results survive, the remainder
    requeues exactly once with carried attempts, merge stays serial-
    identical."""

    def test_expired_batch_requeues_only_unsettled_remainder(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path, lease_s=5.0)
        spool.enqueue(jobs, batch_size=4)
        claim = spool.claim_batch("doomed")
        keys = [entry.key for entry in claim.entries]
        spool.flush_done(claim, keys[:2])  # two jobs settled pre-crash

        # The worker dies here; lease expiry requeues the remainder as
        # exactly one pending file holding exactly the two open jobs.
        assert spool.requeue_expired(now=claim.deadline + 1.0) == 1
        assert spool.claimed_count() == 0
        assert spool.pending_count() == 2

        rescue = spool.claim_batch("rescuer")
        assert {entry.key for entry in rescue.entries} == set(keys[2:])
        # Attempt counts carried: these are second executions.
        assert {entry.attempts for entry in rescue.entries} == {2}
        # ...and the settled jobs were requeued zero times.
        assert spool.pending_count() == 0

    def test_expiry_past_max_attempts_fails_remainder_per_job(self, tmp_path):
        jobs = reachability_jobs(2)
        spool = Spool(tmp_path, lease_s=5.0, max_attempts=1)
        spool.enqueue(jobs, batch_size=2)
        claim = spool.claim_batch("flaky")
        assert spool.requeue_expired(now=claim.deadline + 1.0) == 1
        assert spool.pending_count() == 0
        for job in jobs:
            failed = spool.failed_result(job.key())
            assert failed is not None and not failed.ok

    def test_sigkill_mid_batch_merge_stays_serial_identical(self, tmp_path):
        """The acceptance scenario end to end: a worker holding a batch
        of four ~1s jobs is SIGKILLed after some (not all) results have
        been flushed; settled results survive in the cache, the
        remainder requeues once with carried attempts, and a rescuer
        completes a bit-identical campaign."""
        jobs = montecarlo_jobs(
            SystemRef.baseline4(), "rc", 2, 4, seed=0, metric="latency",
            traffic=TrafficSpec.make("uniform", rate=0.003),
            config=SimulationConfig(warmup_cycles=300, measure_cycles=2_000,
                                    drain_cycles=20_000),
        )
        reference = serial_results(jobs)
        spool = Spool(tmp_path / "spool", lease_s=2.0).ensure()
        spool.enqueue(jobs, batch_size=4)
        assert len(batch_files(spool)) == 1
        cache = ResultCache(tmp_path / "cache")

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
        victim = subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Kill once at least one result of the batch has been
            # flushed to the cache but the batch is still leased.
            deadline = time.monotonic() + 120.0
            while True:
                assert time.monotonic() < deadline, "no result ever flushed"
                assert victim.poll() is None, "worker exited prematurely"
                landed = sum(1 for job in jobs if cache.get(job) is not None)
                if landed >= 1 and spool.claimed_count() > 0:
                    break
                time.sleep(0.02)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30.0)
        finally:
            if victim.poll() is None:
                victim.kill()

        # Settled results survived the crash...
        landed = {
            job.key() for job in jobs if cache.get(job) is not None
        }
        assert landed
        open_keys = {job.key() for job in jobs} - landed
        # ...the orphaned lease still covers at least the open jobs...
        assert spool.claimed_count() >= len(open_keys)
        # ...and expiry requeues the remainder in exactly one sweep.
        assert spool.requeue_expired(now=time.time() + spool.lease_s + 1) == 1
        assert spool.claimed_count() == 0
        assert spool.requeue_expired(now=time.time() + spool.lease_s + 1) == 0

        # Any unsettled job goes back with its attempt count carried.
        snapshot_attempts = {}
        rescue = spool.claim_batch("inspector")
        if rescue is not None:
            snapshot_attempts = {
                entry.key: entry.attempts for entry in rescue.entries
            }
            for key, attempts in snapshot_attempts.items():
                assert attempts == 2, (key, attempts)
            spool.release_entries(rescue, rescue.entries)

        # A healthy worker finishes the campaign; merged == serial.
        run_worker(spool.root, cache, worker_id="rescuer", idle_timeout_s=0.3)
        merged = [cache.get(job) for job in jobs]
        assert None not in merged
        assert merged == reference


class TestBatchWorker:
    def test_worker_drains_batches_bit_identical(self, tmp_path):
        jobs = reachability_jobs(9)
        reference = serial_results(jobs)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs, batch_size=4)
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(
            spool.root, cache, worker_id="w0", idle_timeout_s=0.2
        )
        assert stats["jobs_done"] == len(jobs)
        assert stats["batches_claimed"] == 3  # 4 + 4 + 1
        assert [cache.get(job) for job in jobs] == reference
        assert spool.pending_count() == 0 and spool.claimed_count() == 0

    def test_max_jobs_mid_batch_releases_remainder(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs, batch_size=4)
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(spool.root, cache, max_jobs=2, idle_timeout_s=0.2)
        assert stats["jobs_done"] == 2
        assert stats["jobs_released"] == 2
        # Released jobs are pending again, unexecuted: attempts reset to
        # their pre-claim value, so the next claim is attempt 1 again.
        assert spool.pending_count() == 2
        assert spool.claimed_count() == 0
        rest = spool.claim_batch("w2")
        assert {entry.attempts for entry in rest.entries} == {1}

    def test_stop_mid_batch_releases_remainder(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs, batch_size=4)
        claim = spool.claim_batch("w1")
        spool.request_stop()
        released = spool.release_entries(claim, claim.entries)
        assert released == 4
        assert spool.claimed_count() == 0
        assert spool.pending_count() == 4

    def test_failed_job_inside_batch_retries_then_lands_terminally(
        self, tmp_path
    ):
        bad = Job.make(
            SystemRef.baseline4(), "bogus",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        )
        good = reachability_jobs(3)
        spool = Spool(tmp_path / "spool", max_attempts=2).ensure()
        spool.enqueue([bad] + good, batch_size=4)
        cache = ResultCache(tmp_path / "cache")
        stats = run_worker(
            spool.root, cache, max_attempts=2, idle_timeout_s=0.3
        )
        # 3 good + 2 attempts of the bad one.
        assert stats["jobs_done"] == 5 and stats["jobs_failed"] == 2
        failed = spool.failed_result(bad.key())
        assert failed is not None and "ConfigurationError" in failed.error
        assert cache.get(bad) is None
        assert [cache.get(job) for job in good] == serial_results(good)


    def test_job_already_cached_is_served_not_reexecuted(
        self, tmp_path, monkeypatch
    ):
        import repro.distributed.worker as worker_module

        jobs = reachability_jobs(4)
        reference = serial_results(jobs)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs, batch_size=4)
        cache = ResultCache(tmp_path / "cache")
        cache.refresh()  # the worker's cache has looked before the publish
        # Another writer publishes one job's result before the claim.
        ResultCache(tmp_path / "cache").put(jobs[1], reference[1])
        executed = []
        real_execute = worker_module.execute_job

        def counting_execute(job, **kwargs):
            executed.append(job.key())
            return real_execute(job, **kwargs)

        monkeypatch.setattr(worker_module, "execute_job", counting_execute)
        stats = run_worker(spool.root, cache, worker_id="w0", idle_timeout_s=0.2)
        assert stats["jobs_done"] == 4
        assert executed == [job.key() for job in jobs if job is not jobs[1]]
        assert [cache.get(job) for job in jobs] == reference


class TestDriverLookups:
    def test_one_cache_get_per_resolved_job(self, tmp_path):
        """The driver reads each result once, and finds a terminal
        failure through the failed/ listing, while a worker with its
        own cache object (another writer) drains the spool."""
        import threading

        bad = Job.make(
            SystemRef.baseline4(), "bogus",
            TrafficSpec.make("uniform", rate=0.004), TINY,
        )
        jobs = reachability_jobs(6) + [bad]
        cache = ResultCache(tmp_path / "cache")
        gets = []
        real_get = cache.get

        def counting_get(job):
            gets.append(job.key())
            return real_get(job)

        cache.get = counting_get
        backend = SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=0,
            lease_s=10.0, max_attempts=1, stall_timeout_s=60.0, poll_s=0.02,
        )
        worker = threading.Thread(
            target=run_worker,
            args=(tmp_path / "spool", ResultCache(tmp_path / "cache")),
            kwargs={"idle_timeout_s": 2.0, "max_attempts": 1},
            daemon=True,
        )
        worker.start()
        try:
            results = backend.run(jobs)
        finally:
            backend.close()
            worker.join(timeout=30.0)
        assert results[:-1] == serial_results(jobs[:-1])
        assert not any(result.cached for result in results)
        assert not results[-1].ok and "ConfigurationError" in results[-1].error
        assert sorted(gets) == sorted(job.key() for job in jobs[:-1])


class TestPutMany:
    def job_results(self, count: int):
        jobs = reachability_jobs(count)
        return list(zip(jobs, serial_results(jobs)))

    def test_put_many_round_trips(self, tmp_path):
        pairs = self.job_results(4)
        cache = ResultCache(tmp_path)
        assert cache.put_many(pairs) == 4
        for job, result in pairs:
            served = cache.get(job)
            assert served is not None
            served.cached = result.cached  # get() marks entries cached
            assert served == result

    def test_put_many_skips_failed_results(self, tmp_path):
        pairs = self.job_results(2)
        failed = JobResult(job_key=pairs[0][0].key(), ok=False, error="boom")
        cache = ResultCache(tmp_path)
        assert cache.put_many([(pairs[0][0], failed), pairs[1]]) == 1
        assert cache.get(pairs[0][0]) is None
        assert cache.get(pairs[1][0]) is not None

    def test_put_many_matches_put_byte_for_byte(self, tmp_path):
        pairs = self.job_results(3)
        one = ResultCache(tmp_path / "one")
        many = ResultCache(tmp_path / "many")
        for job, result in pairs:
            one.put(job, result)
        many.put_many(pairs)
        assert len(segment_files(one)) == 3 and len(segment_files(many)) == 1
        for job, _ in pairs:
            assert find_record(many, job)[1] == find_record(one, job)[1]

    def test_put_many_compressed(self, tmp_path):
        pairs = self.job_results(2)
        cache = ResultCache(tmp_path, compress=True)
        assert cache.put_many(pairs) == 2
        for job, _ in pairs:
            assert split_record(find_record(cache, job)[1])[0][1] == b"gzip"
            assert cache.get(job) is not None


class TestAutoBatchSizing:
    def seed_history(self, spool_root, durations):
        events = spool_root / "manifest" / "events"
        events.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(
                {
                    "ts": 1_000.0 + i,
                    "event": "job_finished",
                    "source": "w0",
                    "ok": True,
                    "cached": False,
                    "duration_s": duration,
                }
            )
            for i, duration in enumerate(durations)
        ]
        (events / "w0.jsonl").write_text("\n".join(lines) + "\n")

    def test_no_history_spreads_campaign_over_workers(self, tmp_path):
        # ceil(jobs / (4 x workers)), clamped to [1, MAX_BATCH].
        assert auto_batch_size(tmp_path, 900, 2) == MAX_BATCH == 32
        assert auto_batch_size(tmp_path, 12, 2) == 2
        assert auto_batch_size(tmp_path, 3, 2) == 1
        assert auto_batch_size(tmp_path, 0, 2) == 1

    def test_unknown_fleet_has_no_spread_bound(self, tmp_path):
        # No known worker: a cold spool leases one job at a time, a warm
        # one sizes from history alone.
        assert auto_batch_size(tmp_path, 900, 0) == 1
        self.seed_history(tmp_path, [0.1] * 20)
        assert auto_batch_size(tmp_path, 900, 0) == 20

    def test_short_jobs_batch_aggressively(self, tmp_path):
        self.seed_history(tmp_path, [0.1] * 20)  # 2s target / 0.1s = 20
        assert auto_batch_size(tmp_path, 900, 2) == 20
        # The campaign spread still bounds a small campaign.
        assert auto_batch_size(tmp_path, 40, 2) == 5

    def test_long_jobs_stay_at_one(self, tmp_path):
        self.seed_history(tmp_path, [3.0] * 5)
        assert auto_batch_size(tmp_path, 900, 2) == 1

    def test_clamped_to_max_batch(self, tmp_path):
        self.seed_history(tmp_path, [0.001] * 10)
        assert auto_batch_size(tmp_path, 10_000, 1) == MAX_BATCH

    def test_cached_results_do_not_skew_sizing(self, tmp_path):
        events = tmp_path / "manifest" / "events"
        events.mkdir(parents=True, exist_ok=True)
        # Near-instant cache hits must not convince the sizing that
        # execution is near-instant.
        lines = [
            json.dumps(
                {
                    "ts": 1_000.0 + i,
                    "event": "job_finished",
                    "source": "w0",
                    "cached": True,
                    "duration_s": 0.0001,
                }
            )
            for i in range(50)
        ] + [
            json.dumps(
                {
                    "ts": 2_000.0,
                    "event": "job_finished",
                    "source": "w0",
                    "cached": False,
                    "duration_s": 4.0,
                }
            )
        ]
        (events / "w0.jsonl").write_text("\n".join(lines) + "\n")
        assert auto_batch_size(tmp_path, 900, 2) == 1

    def test_backend_batches_from_history(self, tmp_path):
        """End to end: a spool whose history says ~instant jobs makes the
        auto backend enqueue multi-job batches on the next campaign."""
        self.seed_history(tmp_path / "spool", [0.01] * 10)
        jobs = reachability_jobs(8)
        cache = ResultCache(tmp_path / "cache")
        with SpoolBackend(
            cache=cache, spool_dir=tmp_path / "spool", workers=0,
            lease_s=10.0, stall_timeout_s=60.0, batch="auto",
        ) as backend:
            backend.spool.ensure()
            backend.spool.enqueue(
                jobs,
                batch_size=auto_batch_size(
                    tmp_path / "spool", len(jobs), fleet_size(backend.spool)
                ),
            )
            spool = Spool(tmp_path / "spool")
            assert spool.pending_count() == 8
            assert len(batch_files(spool)) >= 1  # history said: batch


class TestFleetSize:
    def publish_stats(self, spool, ages):
        now = time.time()
        for index, age in enumerate(ages):
            spool.write_worker_stats(
                f"ext-{index}", {"worker": f"ext-{index}", "updated_at": now - age}
            )

    def test_counts_only_fresh_worker_stats(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        assert fleet_size(spool) == 0
        self.publish_stats(spool, [0.0, 5.0, 30.0, 120.0, 3600.0])
        spool.write_worker_stats("no-stamp", {"worker": "no-stamp"})
        assert fleet_size(spool) == 3  # dead workers' files stay behind
        assert fleet_size(spool, 5) == 5  # the caller's own workers
        assert fleet_size(spool, stale_s=10.0) == 2

    def test_idle_worker_republishes_stats(self, tmp_path, monkeypatch):
        spool = Spool(tmp_path / "spool").ensure()
        stamps = []
        real_write = Spool.write_worker_stats

        def recording_write(self, worker, payload):
            stamps.append(payload["updated_at"])
            real_write(self, worker, payload)

        monkeypatch.setattr(Spool, "write_worker_stats", recording_write)
        run_worker(
            spool.root, ResultCache(tmp_path / "cache"),
            heartbeat_s=0.05, poll_s=0.01, idle_timeout_s=0.4,
        )
        # Start and exit publish once each; idle polling adds the rest.
        assert len(stamps) >= 4

    def test_backend_without_workers_spreads_over_live_fleet(self, tmp_path):
        """A ``workers=0`` backend sizes leases from the workers seen on
        the spool: eight live external workers get at least eight leases."""
        import threading

        jobs = reachability_jobs(40)
        spool = Spool(tmp_path / "spool").ensure()
        self.publish_stats(spool, [0.0] * 8)  # ext-0 .. ext-7, all fresh
        drained = []
        worker = threading.Thread(
            target=lambda: drained.append(
                run_worker(
                    tmp_path / "spool", ResultCache(tmp_path / "cache"),
                    worker_id="ext-0", idle_timeout_s=2.0,
                )
            ),
            daemon=True,
        )
        backend = SpoolBackend(
            cache=ResultCache(tmp_path / "cache"), spool_dir=tmp_path / "spool",
            workers=0, lease_s=10.0, stall_timeout_s=60.0, poll_s=0.02,
        )
        worker.start()
        try:
            results = backend.run(jobs)
        finally:
            backend.close()
            worker.join(timeout=30.0)
        assert results == serial_results(jobs)
        assert drained and drained[0]["batches_claimed"] >= 8


class TestStatusUnderBatching:
    """Satellite: ``deft status`` depths count jobs, not lease files, and
    the jobs/s trailing-window math is unchanged by batching."""

    def test_claimed_depth_counts_jobs_not_leases(self, tmp_path):
        jobs = reachability_jobs(6)
        spool = Spool(tmp_path / "spool").ensure()
        spool.enqueue(jobs, batch_size=3)
        claim = spool.claim_batch("w1")
        status = fleet_status(tmp_path / "spool", now=time.time())
        assert status["spool"]["claimed"] == 3  # one lease, three jobs
        assert status["spool"]["pending"] == 3
        assert status["leases"]["active"] == 3
        assert status["leases"]["stale"] == 0

        # Settling a job inside the batch drops it from the depth.
        spool.flush_done(claim, [claim.entries[0].key])
        status = fleet_status(tmp_path / "spool", now=time.time())
        assert status["spool"]["claimed"] == 2

    def test_stale_batch_lease_reports_per_job(self, tmp_path):
        jobs = reachability_jobs(4)
        spool = Spool(tmp_path / "spool", lease_s=5.0).ensure()
        spool.enqueue(jobs, batch_size=4)
        claim = spool.claim_batch("w1")
        status = fleet_status(
            tmp_path / "spool", now=claim.deadline + 1.0
        )
        assert status["leases"]["stale"] == 4
        assert len(status["leases"]["stale_keys"]) == 4

    def test_jobs_per_s_window_math_unchanged(self, tmp_path):
        spool = Spool(tmp_path / "spool").ensure()
        events = spool.root / "manifest" / "events"
        events.mkdir(parents=True, exist_ok=True)
        now = 10_000.0
        # 5 finishes inside the 60s window, 2 before it.
        stamps = [now - 200.0, now - 90.0] + [now - 50.0 + i for i in range(5)]
        lines = [
            json.dumps(
                {
                    "ts": ts,
                    "event": "job_finished",
                    "source": "w0",
                    "ok": True,
                    "cached": False,
                    "duration_s": 0.5,
                }
            )
            for ts in stamps
        ]
        (events / "w0.jsonl").write_text("\n".join(lines) + "\n")
        status = fleet_status(tmp_path / "spool", now=now, window_s=60.0)
        assert status["throughput"]["finished_total"] == 7
        assert status["throughput"]["finished_in_window"] == 5
        assert status["throughput"]["jobs_per_s"] == pytest.approx(5 / 60.0)
