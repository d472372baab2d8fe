"""The campaign service: HTTP submit/watch/scrape/tail over a spool.

Everything runs against a real server on an ephemeral loopback port
(threads, not mocks — the SSE and concurrency behaviour being tested
lives in the socket handling). Campaigns are tiny reachability grids so
the suite stays fast; the serial-equality test is the local twin of the
CI serve-smoke job.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.distributed import run_worker
from repro.runner import Campaign, CampaignRunner, ResultCache, SerialBackend
from repro.montecarlo import montecarlo_jobs
from repro.runner.spec import SystemRef
from repro.serve import CampaignService, campaign_from_spec, serve_campaigns
from repro.telemetry.events import EventWriter
from repro.telemetry.manifest import events_dir

SWEEP_SPEC = {
    "name": "serve-sweep",
    "system": "4",
    "algorithms": ["rc"],
    "traffic": "uniform",
    "rates": [0.004, 0.008],
    "seeds": 1,
    "warmup": 50,
    "cycles": 200,
    "drain": 1500,
    "batch": 2,
}


def _finished_frames(frames):
    """Count complete job_finished *data* frames (not the event: line
    that precedes each one — stopping on those can truncate the tail)."""
    return sum(
        1
        for f in frames
        if f.startswith("data: ") and '"event": "job_finished"' in f
    )


def reachability_jobs(samples: int = 3):
    return montecarlo_jobs(
        SystemRef.baseline4(), "rc", 2, samples, seed=0, metric="reachability"
    )


@pytest.fixture()
def server(tmp_path):
    srv = serve_campaigns(
        tmp_path / "spool",
        tmp_path / "cache",
        port=0,
        lease_s=5.0,
        poll_s=0.02,
        stale_worker_s=5.0,
    )
    yield srv
    srv.close()


def get(server, path, timeout=20):
    with urllib.request.urlopen(server.url + path, timeout=timeout) as resp:
        return resp.status, resp.read()


def post(server, payload, timeout=20):
    request = urllib.request.Request(
        server.url + "/campaigns",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def drain(server, **kwargs):
    cache = ResultCache(server.service.cache_dir)
    kwargs.setdefault("idle_timeout_s", 1.0)
    kwargs.setdefault("lease_s", 5.0)
    return run_worker(server.service.spool.root, cache, **kwargs)


class TestRoutes:
    def test_index_lists_endpoints(self, server):
        code, body = get(server, "/")
        assert code == 200
        payload = json.loads(body)
        assert "POST /campaigns" in payload["endpoints"]

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert err.value.code == 404

    def test_unknown_campaign_404s(self, server):
        for path in ("/campaigns/ghost", "/campaigns/ghost/trace"):
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server, path)
            assert err.value.code == 404, path

    def test_empty_spool_lists_no_campaigns(self, server):
        code, body = get(server, "/campaigns")
        assert code == 200
        assert json.loads(body)["campaigns"] == []


class TestSubmission:
    def test_sweep_spec_enqueues_batched(self, server):
        code, receipt = post(server, SWEEP_SPEC)
        assert code == 201
        assert receipt["campaign"] == "serve-sweep"
        assert receipt["total"] == 2 == receipt["enqueued"]
        assert receipt["batch_size"] == 2
        # one pending file: both jobs under one lease-to-be
        assert server.service.spool.pending_count() == 2
        code, body = get(server, "/campaigns/serve-sweep")
        snapshot = json.loads(body)
        assert snapshot["total"] == 2 and not snapshot["complete"]

    def test_explicit_jobs_spec(self, server):
        jobs = reachability_jobs(2)
        code, receipt = post(
            server,
            {"name": "explicit", "jobs": [job.canonical() for job in jobs]},
        )
        assert code == 201
        assert receipt["total"] == len({job.key() for job in jobs})

    def test_resubmission_is_idempotent(self, server):
        post(server, SWEEP_SPEC)
        code, receipt = post(server, SWEEP_SPEC)
        assert code == 201
        assert receipt["enqueued"] == 0  # keys already pending

    @pytest.mark.parametrize(
        "spec",
        [
            {"rates": "not-a-list"},
            {"algorithms": [1, 2]},
            {"rates": []},
            {"seeds": 0},
            {"jobs": []},
            {"jobs": [{"garbage": True}]},
            {"system": "not-a-grid"},
            {"warmup": "soon"},
        ],
    )
    def test_bad_specs_400(self, server, spec):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, spec)
        assert err.value.code == 400
        assert "error" in json.loads(err.value.read())

    def test_stratified_job_400(self, server):
        stratified = {**reachability_jobs(1)[0].canonical(), "fault_stratum": [2]}
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, {"name": "stratified", "jobs": [stratified]})
        assert err.value.code == 400
        assert "fault_stratum" in json.loads(err.value.read())["error"]
        assert server.service.spool.pending_count() == 0

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/campaigns", data=b"\xff not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_campaign_from_spec_rejects_non_dict(self):
        with pytest.raises(ValueError):
            campaign_from_spec(["not", "a", "dict"])


class TestEndToEnd:
    def test_submitted_campaign_matches_serial(self, server, tmp_path):
        """POST → external drain → bit-identical to the serial backend."""
        code, receipt = post(server, SWEEP_SPEC)
        assert code == 201
        stats = drain(server, worker_id="e2e-w1")
        assert stats["jobs_done"] == receipt["total"]

        code, body = get(server, "/campaigns/serve-sweep")
        snapshot = json.loads(body)
        assert snapshot["complete"] and snapshot["done"] == receipt["total"]
        assert snapshot["failed"] == 0

        # Re-execute the identical grid serially into a separate cache
        # and compare the simulated payloads (duration provenance and
        # cache flags legitimately differ).
        campaign = campaign_from_spec(SWEEP_SPEC)
        serial_cache = ResultCache(tmp_path / "serial-cache")
        runner = CampaignRunner(SerialBackend(), cache=serial_cache)
        report = runner.run(Campaign(name="serial-twin", jobs=campaign.jobs))
        spool_cache = ResultCache(server.service.cache_dir)

        def payload(result):
            # _comparable maps NaN to a sentinel and drops duration
            # provenance; cached-ness differs by construction here.
            data = result._comparable()
            data.pop("cached", None)
            return data

        assert report.results
        for job, serial_result in zip(campaign.jobs, report.results):
            spool_result = spool_cache.get(job)
            assert spool_result is not None, job.key()
            assert payload(spool_result) == payload(serial_result)

    def test_metrics_aggregates_fleet_and_process(self, server):
        post(server, SWEEP_SPEC)
        drain(server, worker_id="metrics-w1")
        code, body = get(server, "/metrics")
        text = body.decode()
        # fleet side: spool depths + per-worker stats-file gauges
        assert "deft_spool_pending_jobs" in text
        assert 'deft_worker_jobs_done{worker="metrics-w1"} 2' in text
        assert 'deft_worker_rss_bytes{worker="metrics-w1"}' in text
        assert 'deft_worker_open_fds{worker="metrics-w1"}' in text
        # server-process side: the service's own registry (shared and
        # cumulative across the test process — presence, not counts)
        assert "deft_serve_scrapes_total" in text
        assert "deft_serve_submissions_total" in text

    def test_trace_endpoint_exports_all_jobs(self, server):
        post(server, SWEEP_SPEC)
        drain(server, worker_id="trace-w1")
        code, body = get(server, "/campaigns/serve-sweep/trace")
        doc = json.loads(body)
        roots = [
            event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["cat"] == "job"
        ]
        assert len(roots) == 2
        phases = [
            event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["cat"] == "phase"
        ]
        assert len(phases) == 2 * 5
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in roots + phases)


class TestServerSentEvents:
    def _tail(self, server, path, stop_when, frames, timeout=30):
        request = urllib.request.Request(server.url + path)
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n")
                frames.append(line)
                if stop_when(frames):
                    return

    def test_tail_sees_every_terminal_event(self, server):
        code, receipt = post(server, SWEEP_SPEC)
        frames: list[str] = []

        def done(frames):
            return _finished_frames(frames) >= receipt["total"]

        tail = threading.Thread(
            target=self._tail,
            args=(server, "/events?campaign=serve-sweep", done, frames),
            daemon=True,
        )
        tail.start()
        drain(server, worker_id="sse-w1")
        tail.join(timeout=30)
        assert not tail.is_alive(), "SSE tail never saw the terminal events"
        records = [
            json.loads(f[len("data: "):])
            for f in frames
            if f.startswith("data: ")
        ]
        finished = [r for r in records if r["event"] == "job_finished"]
        assert len(finished) == receipt["total"]
        assert all(record["ok"] for record in finished)

    def test_campaign_filter_drops_foreign_job_events(self, server):
        post(server, SWEEP_SPEC)
        other = {**SWEEP_SPEC, "name": "other", "rates": [0.006]}
        code, other_receipt = post(server, other)
        frames: list[str] = []

        def done(frames):
            return _finished_frames(frames) >= 1

        tail = threading.Thread(
            target=self._tail,
            args=(server, "/events?campaign=other", done, frames),
            daemon=True,
        )
        tail.start()
        drain(server, worker_id="sse-w2", idle_timeout_s=1.5)
        tail.join(timeout=30)
        keys = server.service.campaign_keys("other")
        for frame in frames:
            if not frame.startswith("data: "):
                continue
            record = json.loads(frame[len("data: "):])
            if "key" in record:
                assert record["key"] in keys, record

    def test_client_disconnect_leaves_server_serviceable(self, server):
        post(server, SWEEP_SPEC)
        request = urllib.request.Request(server.url + "/events")
        resp = urllib.request.urlopen(request, timeout=10)
        resp.fp.read(1)  # stream established
        resp.close()  # hang up mid-stream
        # the server must keep answering normal requests afterwards
        for _ in range(3):
            code, _body = get(server, "/campaigns")
            assert code == 200

    def test_sse_unknown_campaign_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/events?campaign=ghost")
        assert err.value.code == 404


class TestConcurrentScrapesAndTails:
    """Satellite: many readers against one live, rotating writer."""

    def test_hammer_metrics_and_sse_against_live_writer(self, server):
        spool_root = server.service.spool.root
        writer = EventWriter(
            events_dir(spool_root) / "hammer.jsonl",
            "hammer",
            max_segment_bytes=600,  # force rotations mid-flight
        )
        total = 60
        terminal = 8

        def write():
            for seq in range(total):
                writer.emit("worker_heartbeat", worker="hammer", seq=seq)
                time.sleep(0.002)
            for seq in range(terminal):
                writer.emit(
                    "job_finished", key=f"hammer-{seq}", worker="hammer",
                    ok=True, cached=False, duration_s=0.01, attempts=1, seq=seq,
                )
            writer.close()

        scrape_errors: list[Exception] = []

        def scrape():
            for _ in range(15):
                try:
                    code, body = get(server, "/metrics")
                    assert code == 200
                    assert b"deft_spool_pending_jobs" in body
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    scrape_errors.append(exc)

        tails: list[list[str]] = [[] for _ in range(3)]

        def done(frames):
            return _finished_frames(frames) >= terminal

        sse = TestServerSentEvents()
        threads = [threading.Thread(target=write, daemon=True)]
        threads += [threading.Thread(target=scrape, daemon=True) for _ in range(4)]
        threads += [
            threading.Thread(
                target=sse._tail, args=(server, "/events", done, frames),
                daemon=True,
            )
            for frames in tails
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not scrape_errors, scrape_errors[:3]
        for frames in tails:
            # no torn reads: every data frame must parse
            records = [
                json.loads(f[len("data: "):])
                for f in frames
                if f.startswith("data: ")
            ]
            finished = {
                r["seq"] for r in records if r["event"] == "job_finished"
            }
            assert finished == set(range(terminal)), "dropped terminal events"
            beats = [r["seq"] for r in records if r["event"] == "worker_heartbeat"]
            # rotation-crossing tail: in-order, gap-free heartbeats
            assert beats == sorted(beats)
            assert len(set(beats)) == len(beats)


class TestServiceLifecycle:
    def test_restarted_server_sees_existing_campaigns(self, tmp_path):
        first = serve_campaigns(
            tmp_path / "spool", tmp_path / "cache", port=0, poll_s=0.02
        )
        try:
            post(first, SWEEP_SPEC)
        finally:
            first.close()
        second = serve_campaigns(
            tmp_path / "spool", tmp_path / "cache", port=0, poll_s=0.02
        )
        try:
            code, body = get(second, "/campaigns/serve-sweep")
            assert code == 200
            assert json.loads(body)["total"] == 2
        finally:
            second.close()

    def test_service_usable_without_http(self, tmp_path):
        service = CampaignService(
            tmp_path / "spool", tmp_path / "cache", janitor=False
        )
        try:
            receipt = service.submit(dict(SWEEP_SPEC))
            assert receipt["total"] == 2
            assert service.campaign("serve-sweep")["total"] == 2
            assert service.campaign("missing") is None
            assert "deft_spool_pending_jobs" in service.metrics_text()
        finally:
            service.close()
