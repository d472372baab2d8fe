"""Telemetry layer: metrics core, JSONL events, manifest, fleet status.

The metrics/events layers are pure plumbing, so the tests pin exact
semantics (counter monotonicity, histogram percentile math, disabled-
mode no-ops, event schema round-trips). ``deft status`` is tested two
ways: against a *synthetic* spool layout (hand-built claims, an expired
lease, a dead worker) where every number is known, and end-to-end over
a real 2-worker spool campaign to prove the snapshot is reconstructable
without the enqueuing process.
"""

import json
import math
import time
import urllib.request

import pytest

from repro.config import SimulationConfig
from repro.distributed import Spool, SpoolBackend, run_worker
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
from repro.runner.runner import CampaignReport
from repro.telemetry.events import (
    EVENT_TYPES,
    NULL_EVENTS,
    EventWriter,
    read_events,
)
from repro.telemetry.manifest import (
    event_writer,
    load_campaign_manifests,
    parse_shard,
    read_all_events,
    write_campaign_manifest,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
)
from repro.telemetry.status import fleet_status, render_prom, render_status

TINY = SimulationConfig(
    warmup_cycles=30, measure_cycles=100, drain_cycles=1_200, watchdog_cycles=2_000
)


def reachability_jobs(samples: int = 4, algorithm: str = "rc") -> list[Job]:
    return montecarlo_jobs(
        SystemRef.baseline4(), algorithm, 2, samples, seed=0, metric="reachability"
    )


# ---------------------------------------------------------------------------
# metrics core
# ---------------------------------------------------------------------------


class TestMetricsCore:
    def test_counter_semantics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_semantics(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5.0

    def test_histogram_buckets_and_percentiles(self):
        hist = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.05, 0.5, 0.5, 0.5, 0.5, 5.0, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 10
        assert hist.sum == pytest.approx(67.1)
        assert hist.bucket_counts == [2, 4, 3, 1]
        # p50: rank 5 of 10 lands in the (0.1, 1.0] bucket.
        assert 0.1 <= hist.quantile(0.5) <= 1.0
        # p95: rank 9.5 lands in the (1.0, 10.0] bucket.
        assert 1.0 <= hist.p95 <= 10.0
        # Overflow values are reported as the largest finite bound.
        assert hist.quantile(1.0) == 10.0
        assert math.isnan(Histogram("empty").p50)

    def test_span_times_into_histogram(self):
        registry = MetricsRegistry()
        with registry.span("span_seconds") as span:
            time.sleep(0.01)
        hist = registry.histogram("span_seconds")
        assert hist.count == 1
        assert span.elapsed_s >= 0.01
        assert hist.sum == pytest.approx(span.elapsed_s)

    def test_percentile_exact(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert math.isnan(percentile([], 0.5))

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(100)
        assert counter.value == 0.0
        registry.histogram("h").observe(1.0)
        with registry.span("s"):
            pass
        # Nothing was registered; rendering is empty.
        assert len(registry) == 0
        assert registry.render_prom() == ""
        assert registry.snapshot() == {}

    def test_name_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_prom_rendering(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", help="jobs").inc(3)
        registry.gauge("depth").set(1.5)
        hist = registry.histogram("lat_seconds", buckets=(0.5, 1.0))
        hist.observe(0.2)
        hist.observe(2.0)
        text = registry.render_prom()
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert "depth 1.5" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h")  # empty: percentiles would be NaN
        json.dumps(registry.snapshot())  # must not raise


# ---------------------------------------------------------------------------
# events + manifest
# ---------------------------------------------------------------------------


class TestEvents:
    def test_roundtrip_schema(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with EventWriter(path, "worker-1") as events:
            events.emit("job_claimed", key="abc", worker="worker-1", attempts=1)
            events.emit(
                "job_phase",
                key="abc", worker="worker-1",
                setup_s=0.1, compile_s=0.2, simulate_s=0.3, cache_s=0.0,
            )
            events.emit(
                "job_finished",
                key="abc", worker="worker-1", ok=True, cached=False,
                duration_s=0.6, attempts=1,
            )
        records = list(read_events(path))
        assert [r["event"] for r in records] == [
            "job_claimed", "job_phase", "job_finished",
        ]
        for record in records:
            assert record["source"] == "worker-1"
            assert isinstance(record["ts"], float)
            assert record["event"] in EVENT_TYPES
        assert records[1]["simulate_s"] == 0.3
        assert records[2]["ok"] is True

    def test_unknown_event_and_reserved_fields_rejected(self, tmp_path):
        events = EventWriter(tmp_path / "w.jsonl", "w")
        with pytest.raises(ValueError):
            events.emit("job_exploded")
        with pytest.raises(ValueError):
            events.emit("requeue", source="spoofed")
        # Nothing reached disk, and the file was never even created.
        assert not (tmp_path / "w.jsonl").exists()

    def test_reader_skips_torn_lines(self, tmp_path):
        path = tmp_path / "w.jsonl"
        with EventWriter(path, "w") as events:
            events.emit("requeue", key="k1", attempts=1, terminal=False)
        with open(path, "a") as handle:
            handle.write('{"event": "job_finished", "key": "k2"')  # torn tail
        with open(path, "a") as handle:
            handle.write("\n")
        records = list(read_events(path))
        assert len(records) == 1 and records[0]["key"] == "k1"

    def test_missing_file_and_null_writer(self, tmp_path):
        assert list(read_events(tmp_path / "absent.jsonl")) == []
        NULL_EVENTS.emit("requeue", key="k")  # must be a silent no-op

    def test_writer_disabled_with_telemetry(self, tmp_path, monkeypatch):
        from repro.telemetry import metrics

        monkeypatch.setattr(metrics, "_PROCESS_REGISTRY", None)
        monkeypatch.setenv(metrics.TELEMETRY_ENV, "0")
        writer = event_writer(tmp_path, "w")
        writer.emit("requeue", key="k", attempts=1, terminal=False)
        assert list(read_all_events(tmp_path)) == []


class TestManifest:
    def test_write_and_load(self, tmp_path):
        jobs = reachability_jobs(3)
        campaign = Campaign(name="mc#shard-2-of-4", jobs=tuple(jobs))
        path = write_campaign_manifest(tmp_path, campaign, source="enq-1")
        assert path.is_file()
        manifests = load_campaign_manifests(tmp_path)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest["campaign"] == "mc#shard-2-of-4"
        assert manifest["total"] == 3
        assert manifest["shard"] == {"base": "mc", "index": 2, "count": 4}
        assert sorted(manifest["keys"]) == sorted(j.key() for j in jobs)
        # Re-announcing the identical campaign overwrites, not duplicates.
        write_campaign_manifest(tmp_path, campaign, source="enq-1")
        assert len(load_campaign_manifests(tmp_path)) == 1

    def test_parse_shard(self):
        assert parse_shard("plain-name") is None
        assert parse_shard("x#shard-1-of-8") == {
            "base": "x", "index": 1, "count": 8,
        }


# ---------------------------------------------------------------------------
# fleet status
# ---------------------------------------------------------------------------


class TestFleetStatus:
    def test_synthetic_spool_with_expired_lease(self, tmp_path):
        """Every number of the dashboard pinned against a hand-built
        layout: 4-job campaign, 1 done, 1 failed, 1 claimed with an
        expired lease, 1 pending; one live and one dead worker."""
        spool_dir = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        jobs = reachability_jobs(4)
        cache = ResultCache(cache_dir)
        spool = Spool(spool_dir, lease_s=30.0).ensure()
        campaign = Campaign(name="synthetic", jobs=tuple(jobs))
        write_campaign_manifest(spool_dir, campaign, source="test")
        spool.enqueue(jobs)

        # Job 0: done (executed straight into the cache, claim released).
        done_claim = spool.claim_batch("alive-worker")
        (done,) = done_claim.entries
        result = SerialBackend().run([done.job])[0]
        cache.put(done.job, result)
        spool.flush_done(done_claim, [done.key])
        # Job 1: terminal failure.
        failed_claim = spool.claim_batch("alive-worker")
        (failed,) = failed_claim.entries
        from repro.runner.result import JobResult

        spool.record_failure(
            failed.key,
            JobResult(job_key=failed.key, ok=False, error="boom"),
            attempts=3,
        )
        spool.flush_done(failed_claim, [failed.key])
        # Job 2: claimed by a worker that died — lease already expired.
        now = time.time()
        stale_claim = spool.claim_batch("dead-worker", now=now - 100.0)
        assert stale_claim.deadline < now
        # Job 3 stays pending.

        spool.write_worker_stats("alive-worker", {
            "worker": "alive-worker", "updated_at": now - 1.0,
            "jobs_done": 1, "jobs_failed": 1,
            "session": {"system.hit": 3, "system.miss": 1},
        })
        spool.write_worker_stats("dead-worker", {
            "worker": "dead-worker", "updated_at": now - 500.0,
            "jobs_done": 0, "jobs_failed": 0, "session": {},
        })
        with event_writer(spool_dir, "alive-worker") as events:
            events.emit("job_finished", key=done.key, worker="alive-worker",
                        ok=True, cached=False, duration_s=0.25, attempts=1)
            events.emit("job_phase", key=done.key, worker="alive-worker",
                        setup_s=0.05, compile_s=0.1, simulate_s=0.1, cache_s=0.0)

        status = fleet_status(spool_dir, cache_dir=cache_dir, now=now)
        assert status["spool"]["pending"] == 1
        assert status["spool"]["claimed"] == 1
        assert status["spool"]["failed"] == 1
        assert status["leases"]["stale"] == 1
        assert status["leases"]["stale_keys"] == [stale_claim.entries[0].key]
        assert status["leases"]["active"] == 0
        assert status["workers"]["alive"] == 1
        assert status["workers"]["dead"] == 1
        assert status["session"]["system"]["hit_ratio"] == pytest.approx(0.75)
        (campaign_status,) = status["campaigns"]
        assert campaign_status["total"] == 4
        assert campaign_status["done"] == 1
        assert campaign_status["failed"] == 1
        assert campaign_status["running"] == 1
        assert campaign_status["progress"] == pytest.approx(0.5)
        assert status["latency"]["count"] == 1
        assert status["latency"]["p50_s"] == pytest.approx(0.25)
        assert status["phases"]["compile_s"] == pytest.approx(0.1)
        assert status["cache"]["entries"] == 1

        # Both renderers accept the snapshot; JSON stays strict.
        text = render_status(status)
        assert "1 stale" in text and "1/4 done" in text
        prom = render_prom(status)
        assert "deft_leases_stale 1" in prom
        json.dumps(status)

    def test_status_cli_on_live_campaign(self, tmp_path, capsys):
        """The acceptance path: a real 2-worker spool campaign, then
        ``deft status --json`` reconstructs progress, liveness and
        latency percentiles with the enqueuer long gone."""
        from repro.cli import main

        spool_dir = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        jobs = reachability_jobs(6)
        cache = ResultCache(cache_dir)
        with SpoolBackend(
            cache, spool_dir=spool_dir, workers=2, stall_timeout_s=120.0
        ) as backend:
            report = CampaignRunner(backend=backend, cache=cache).run(
                Campaign(name="live", jobs=tuple(jobs))
            )
        assert not report.errors

        code = main([
            "status", str(spool_dir), "--cache-dir", str(cache_dir), "--json",
        ])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["leases"]["stale"] == 0
        assert status["spool"]["pending"] == 0
        (campaign_status,) = status["campaigns"]
        assert campaign_status["done"] == campaign_status["total"] == 6
        assert status["latency"]["count"] >= 6
        assert status["latency"]["p50_s"] > 0
        assert status["latency"]["p95_s"] >= status["latency"]["p50_s"]
        assert status["throughput"]["finished_total"] >= 6
        # Worker snapshots were published (heartbeat/per-job publishing).
        assert status["workers"]["alive"] + status["workers"]["dead"] == 2

        code = main([
            "status", str(spool_dir), "--cache-dir", str(cache_dir), "--prom",
        ])
        assert code == 0
        prom = capsys.readouterr().out
        assert "deft_spool_pending_jobs 0" in prom
        assert "deft_campaign_done_jobs" in prom

    def test_status_cli_missing_spool(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["status", str(tmp_path / "nope")])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# threading through the stack
# ---------------------------------------------------------------------------


class TestThreading:
    def test_serial_backend_emits_events(self, tmp_path):
        jobs = reachability_jobs(2)
        writer = EventWriter(tmp_path / "serial.jsonl", "serial")
        backend = SerialBackend(events=writer)
        results = backend.run(jobs)
        writer.close()
        assert all(result.ok for result in results)
        records = list(read_events(tmp_path / "serial.jsonl"))
        finished = [r for r in records if r["event"] == "job_finished"]
        phased = [r for r in records if r["event"] == "job_phase"]
        assert len(finished) == len(phased) == 2
        assert {r["key"] for r in finished} == {job.key() for job in jobs}
        assert all(r["duration_s"] > 0 for r in finished)
        assert all(r["simulate_s"] >= 0 for r in phased)

    def test_worker_emits_lifecycle_events_and_heartbeats(self, tmp_path):
        """A real worker run leaves claim/phase/finish events and, with a
        short lease, heartbeat events + mid-run stats publishes behind."""
        spool_dir = tmp_path / "spool"
        cache = ResultCache(tmp_path / "cache")
        spool = Spool(spool_dir, lease_s=0.2).ensure()
        # Long enough (~0.5s of cycles) that the 0.05s heartbeat interval
        # deterministically fires several times mid-job.
        config = SimulationConfig(
            warmup_cycles=100, measure_cycles=5_000,
            drain_cycles=2_000, watchdog_cycles=20_000,
        )
        job = Job.make(
            SystemRef.baseline4(), "rc",
            TrafficSpec.make("uniform", rate=0.003), config, seed=1,
        )
        spool.enqueue([job])
        stats = run_worker(
            spool_dir, cache, worker_id="w-events", lease_s=0.2, max_jobs=1,
        )
        assert stats["jobs_done"] == 1
        records = list(read_all_events(spool_dir))
        kinds = [record["event"] for record in records]
        assert "job_claimed" in kinds
        assert "job_phase" in kinds
        assert "job_finished" in kinds
        finished = [r for r in records if r["event"] == "job_finished"][0]
        assert finished["key"] == job.key()
        assert finished["worker"] == "w-events"
        assert finished["ok"] is True and finished["cached"] is False
        phase = [r for r in records if r["event"] == "job_phase"][0]
        assert phase["simulate_s"] > 0
        # The lease_s=0.2 heartbeat interval is 0.05s; the job above runs
        # an order of magnitude longer, so at least one beat fires — each
        # of which both emits an event and republishes workers/<id>.json.
        beats = [r for r in records if r["event"] == "worker_heartbeat"]
        assert beats, "expected mid-job heartbeat events"
        assert spool.worker_stats()["w-events"]["jobs_done"] == 1

    def test_spool_emits_expiry_and_requeue_events(self, tmp_path):
        jobs = reachability_jobs(1)
        spool = Spool(tmp_path, lease_s=5.0, max_attempts=2).ensure()
        spool.attach_events("reaper-test")
        spool.enqueue(jobs)
        claim = spool.claim_batch("doomed")
        assert spool.requeue_expired(now=claim.deadline + 1.0) == 1
        spool.events.close()
        records = list(read_all_events(tmp_path))
        expired = [r for r in records if r["event"] == "lease_expired"]
        requeued = [r for r in records if r["event"] == "requeue"]
        assert len(expired) == 1 and expired[0]["worker"] == "doomed"
        assert len(requeued) == 1 and requeued[0]["terminal"] is False

    def test_spool_backend_writes_manifest_via_runner(self, tmp_path):
        spool_dir = tmp_path / "spool"
        cache = ResultCache(tmp_path / "cache")
        jobs = reachability_jobs(2)
        with SpoolBackend(
            cache, spool_dir=spool_dir, workers=1, stall_timeout_s=120.0
        ) as backend:
            runner = CampaignRunner(backend=backend, cache=cache)
            runner.run(Campaign(name="manifested", jobs=tuple(jobs)))
        (manifest,) = load_campaign_manifests(spool_dir)
        assert manifest["campaign"] == "manifested"
        assert manifest["total"] == 2
        started = [
            r for r in read_all_events(spool_dir)
            if r["event"] == "campaign_started"
        ]
        assert len(started) == 1 and started[0]["total"] == 2

    def test_execute_metrics_recorded(self):
        registry = get_registry()
        if not registry.enabled:
            pytest.skip("telemetry disabled in this environment")
        before = registry.counter("deft_jobs_executed_total").value
        SerialBackend().run(reachability_jobs(2))
        after = registry.counter("deft_jobs_executed_total").value
        assert after == before + 2


# ---------------------------------------------------------------------------
# satellites: report percentiles, cache stats json, metrics endpoint
# ---------------------------------------------------------------------------


class TestSatellites:
    def test_campaign_summary_includes_percentiles(self):
        jobs = reachability_jobs(3)
        report = CampaignRunner(backend=SerialBackend()).run(jobs)
        summary = report.summary()
        assert "job p50" in summary
        assert "p95" in summary
        assert "total job time" in summary
        durations = report.job_durations()
        assert len(durations) == 3 and all(d > 0 for d in durations)

    def test_empty_report_summary_has_no_percentiles(self):
        report = CampaignReport(name="empty", jobs=(), results=[])
        assert "job p50" not in report.summary()

    def test_cache_stats_json_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        job = reachability_jobs(1)[0]
        cache.put(job, SerialBackend().run([job])[0])
        code = main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["root"] == str(tmp_path)
        assert payload["total_bytes"] > 0

    def test_cache_indexes_own_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = reachability_jobs(1)[0]
        cache.refresh()
        assert not cache.indexed(job.key())
        cache.put(job, SerialBackend().run([job])[0])
        assert cache.indexed(job.key())

    def test_metrics_http_endpoint(self):
        from repro.telemetry.httpd import serve_metrics

        registry = MetricsRegistry()
        registry.counter("deft_test_total", help="test").inc(5)
        server = serve_metrics(0, registry=registry)
        try:
            url = f"http://127.0.0.1:{server.server_port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                body = response.read().decode()
            assert "deft_test_total 5" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.server_port}/else", timeout=5
                )
        finally:
            server.shutdown()


# ---------------------------------------------------------------------------
# segment rotation, incremental tailing, health probe, resource gauges
# ---------------------------------------------------------------------------


class TestSegmentRotation:
    def _fill(self, path, count, max_segment_bytes=400):
        with EventWriter(path, "w", max_segment_bytes=max_segment_bytes) as events:
            for index in range(count):
                events.emit("requeue", key=f"k{index:04d}", attempts=1,
                            terminal=False)

    def test_writer_rotates_and_reader_merges(self, tmp_path):
        from repro.telemetry.events import rotated_path, segment_paths

        path = tmp_path / "w.jsonl"
        self._fill(path, 40)
        segments = segment_paths(path)
        assert len(segments) > 1
        # rotated segments come oldest-first; the head (if the last emit
        # didn't itself trigger a rotation) is always last
        assert segments[0] == rotated_path(path, 1)
        for sealed in segments:
            if sealed != path:
                assert sealed.stat().st_size <= 400 + 200  # one record slack
        records = list(read_events(path))
        assert [r["key"] for r in records] == [f"k{i:04d}" for i in range(40)]

    def test_zero_disables_rotation(self, tmp_path):
        from repro.telemetry.events import segment_paths

        path = tmp_path / "w.jsonl"
        with EventWriter(path, "w", max_segment_bytes=0) as events:
            for index in range(50):
                events.emit("requeue", key=f"k{index}", attempts=1,
                            terminal=False)
        assert segment_paths(path) == [path]

    def test_env_override(self, tmp_path, monkeypatch):
        from repro.telemetry.events import SEGMENT_BYTES_ENV, default_segment_bytes

        monkeypatch.setenv(SEGMENT_BYTES_ENV, "1234")
        assert default_segment_bytes() == 1234
        monkeypatch.setenv(SEGMENT_BYTES_ENV, "junk")
        assert default_segment_bytes() == 8 * 1024 * 1024

    def test_tailer_survives_live_rotation(self, tmp_path):
        from repro.telemetry.events import EventTailer

        path = tmp_path / "w.jsonl"
        tailer = EventTailer(path)
        assert tailer.poll() == []
        seen = []
        with EventWriter(path, "w", max_segment_bytes=300) as events:
            for index in range(30):
                events.emit("requeue", key=f"k{index:04d}", attempts=1,
                            terminal=False)
                if index % 7 == 0:
                    seen.extend(tailer.poll())
        seen.extend(tailer.poll())
        assert [r["key"] for r in seen] == [f"k{i:04d}" for i in range(30)]
        # no duplicates on a quiet re-poll
        assert tailer.poll() == []

    def test_tailer_tolerates_torn_tail(self, tmp_path):
        from repro.telemetry.events import EventTailer

        path = tmp_path / "w.jsonl"
        with EventWriter(path, "w") as events:
            events.emit("requeue", key="whole", attempts=1, terminal=False)
        with open(path, "a") as handle:
            handle.write('{"event": "requeue", "key": "to')  # torn, no newline
        tailer = EventTailer(path)
        assert [r["key"] for r in tailer.poll()] == ["whole"]
        with open(path, "a") as handle:
            handle.write('rn"}\n')
        assert [r["key"] for r in tailer.poll()] == ["torn"]

    def test_tailer_replay_false_skips_history(self, tmp_path):
        from repro.telemetry.events import EventTailer

        path = tmp_path / "w.jsonl"
        with EventWriter(path, "w", max_segment_bytes=300) as events:
            for index in range(10):
                events.emit("requeue", key=f"old{index}", attempts=1,
                            terminal=False)
            tailer = EventTailer(path, replay=False)
            assert tailer.poll() == []
            events.emit("requeue", key="new", attempts=1, terminal=False)
            assert [r["key"] for r in tailer.poll()] == ["new"]

    def test_read_all_events_spans_sources_and_segments(self, tmp_path):
        from repro.telemetry.manifest import ensure_manifest, event_streams

        ensure_manifest(tmp_path)
        for source in ("w1", "w2"):
            with event_writer(tmp_path, source) as events:
                events.max_segment_bytes = 300
                for index in range(12):
                    events.emit("requeue", key=f"{source}-{index:02d}",
                                attempts=1, terminal=False)
        streams = event_streams(tmp_path)
        assert len(streams) == 2  # one logical stream per source
        records = list(read_all_events(tmp_path))
        assert len(records) == 24
        keys = {r["key"] for r in records}
        assert keys == {f"w{n}-{i:02d}" for n in (1, 2) for i in range(12)}


class TestHealthProbe:
    def _status(self, *, stale=0, stale_keys=(), failed=0, pending=0,
                claimed=0, details=(), alive=0, dead=0):
        return {
            "leases": {"stale": stale, "stale_keys": list(stale_keys)},
            "spool": {"failed": failed, "pending": pending, "claimed": claimed},
            "workers": {"details": list(details), "alive": alive, "dead": dead},
        }

    def test_healthy_and_idle_spools_pass(self):
        from repro.telemetry.status import health_problems

        assert health_problems(self._status()) == []
        # workers seen, none alive, but no outstanding work: idle, not dead
        assert health_problems(
            self._status(details=[{"worker": "w"}], dead=1)
        ) == []

    def test_each_condition_reports(self):
        from repro.telemetry.status import health_problems

        stale = health_problems(
            self._status(stale=2, stale_keys=["a" * 40, "b" * 40])
        )
        assert len(stale) == 1 and "2 stale lease(s)" in stale[0]
        assert "a" * 12 in stale[0]

        failed = health_problems(self._status(failed=3))
        assert failed == ["3 terminal job failure(s) in failed/"]

        dead = health_problems(
            self._status(details=[{"worker": "w"}], dead=1, pending=5)
        )
        assert len(dead) == 1 and "fleet dead" in dead[0]

    def test_conditions_stack(self):
        from repro.telemetry.status import health_problems

        problems = health_problems(
            self._status(stale=1, stale_keys=["k"], failed=1,
                         details=[{"worker": "w"}], dead=1, claimed=1)
        )
        assert len(problems) == 3

    def test_status_check_cli(self, tmp_path, capsys):
        from repro.cli import main

        spool_dir = tmp_path / "spool"
        spool = Spool(spool_dir, lease_s=30.0).ensure()
        jobs = reachability_jobs(2)
        spool.enqueue(jobs)
        assert main(["status", str(spool_dir), "--check"]) == 0
        capsys.readouterr()

        # expire a lease -> unhealthy exit 1 with a reason on stderr
        spool.claim_batch("dead-worker", now=time.time() - 100.0)
        assert main(["status", str(spool_dir), "--check"]) == 1
        captured = capsys.readouterr()
        assert "unhealthy: " in captured.err and "stale lease" in captured.err

        with pytest.raises(SystemExit):
            main(["status", str(spool_dir), "--check", "--watch"])


class TestWorkerResourceGauges:
    def test_proc_resources_on_linux(self):
        from repro.distributed.worker import _proc_resources

        resources = _proc_resources()
        assert resources.get("rss_bytes", 0) > 0
        assert resources.get("open_fds", 0) > 0

    def test_gauges_flow_through_status_and_prom(self, tmp_path):
        spool = Spool(tmp_path / "spool", lease_s=30.0).ensure()
        now = time.time()
        spool.write_worker_stats("w1", {
            "worker": "w1", "updated_at": now - 1.0,
            "jobs_done": 4, "jobs_failed": 0, "session": {},
            "rss_bytes": 48 * 1024 * 1024, "open_fds": 17,
        })
        status = fleet_status(tmp_path / "spool", now=now)
        (detail,) = status["workers"]["details"]
        assert detail["rss_bytes"] == 48 * 1024 * 1024
        assert detail["open_fds"] == 17
        text = render_status(status)
        assert "rss 48 MiB" in text and "17 fds" in text
        prom = render_prom(status)
        assert 'deft_worker_rss_bytes{worker="w1"} 50331648' in prom
        assert 'deft_worker_open_fds{worker="w1"} 17' in prom
        assert 'deft_worker_jobs_done{worker="w1"} 4' in prom

    def test_worker_publishes_gauges(self, tmp_path):
        """End-to-end: a real drain leaves rss/fd gauges in the stats file."""
        jobs = reachability_jobs(2)
        spool = Spool(tmp_path / "spool", lease_s=10.0).ensure()
        spool.enqueue(jobs)
        run_worker(tmp_path / "spool", ResultCache(tmp_path / "cache"),
                   worker_id="gauge-w", idle_timeout_s=1.0, lease_s=10.0)
        stats = json.loads(
            (tmp_path / "spool" / "workers" / "gauge-w.json").read_text()
        )
        assert stats["rss_bytes"] > 0
        assert stats["open_fds"] > 0
