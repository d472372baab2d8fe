"""Trace reconstruction: event streams -> span trees -> Chrome JSON.

Synthetic streams pin the stitching semantics exactly (phase layout,
clamping, requeue/renewal instants, campaign filtering, truncated-stream
finish-without-claim synthesis); one real drained spool proves the
acceptance property — claim/setup/compile/simulate/publish spans for
every job, monotonic, loadable as Catapult ``trace_event`` JSON.
"""

import json

import pytest

from repro.distributed import Spool, run_worker
from repro.montecarlo import montecarlo_jobs
from repro.runner import Campaign, ResultCache, SystemRef
from repro.telemetry.manifest import write_campaign_manifest
from repro.telemetry.trace import (
    PHASE_ORDER,
    chrome_trace,
    job_traces,
    reconstruct,
    render_trace_summary,
    resolve_campaign_keys,
    write_chrome_trace,
)


def record(ts, event, **fields):
    return {"ts": ts, "event": event, "source": fields.pop("source", "t"), **fields}


def finished_job(key, worker, t0, *, setup=0.2, compile_s=0.3, simulate=0.4,
                 cache=0.01, tail=0.05, attempts=1, cached=False):
    """A full claim→phase→finish triple for one job."""
    total = cache + setup + compile_s + simulate + tail
    return [
        record(t0, "job_claimed", key=key, worker=worker, attempts=attempts),
        record(t0 + total - 0.001, "job_phase", key=key, worker=worker,
               cache_s=cache, setup_s=setup, compile_s=compile_s,
               simulate_s=simulate),
        record(t0 + total, "job_finished", key=key, worker=worker, ok=True,
               cached=cached, duration_s=total, attempts=attempts),
    ]


class TestReconstruction:
    def test_phase_spans_partition_the_root(self):
        traces = reconstruct(finished_job("k1", "w1", 100.0))
        (trace,) = traces.finished
        spans = trace.spans()
        assert [name for name, _, _ in spans] == list(PHASE_ORDER)
        # spans tile the root exactly: contiguous, inside, exhaustive
        cursor = trace.claimed_at
        for _name, start, dur in spans:
            assert start == pytest.approx(cursor)
            cursor = start + dur
        assert cursor == pytest.approx(trace.finished_at)

    def test_publish_is_the_unattributed_tail(self):
        traces = reconstruct(finished_job("k1", "w1", 100.0, tail=0.5))
        (trace,) = traces.finished
        publish = dict((n, d) for n, _s, d in trace.spans())["publish"]
        assert publish == pytest.approx(0.5)

    def test_overlong_phases_clamp_inside_root(self):
        # durations that sum past finish (clock skew) must not escape
        records = [
            record(10.0, "job_claimed", key="k", worker="w", attempts=1),
            record(10.4, "job_phase", key="k", worker="w", cache_s=0.0,
                   setup_s=1.0, compile_s=1.0, simulate_s=1.0),
            record(10.5, "job_finished", key="k", worker="w", ok=True,
                   cached=False, duration_s=0.5, attempts=1),
        ]
        (trace,) = reconstruct(records).finished
        for _name, start, dur in trace.spans():
            assert start >= trace.claimed_at
            assert start + dur <= trace.finished_at + 1e-9
        assert all(dur >= 0 for _n, _s, dur in trace.spans())

    def test_cached_hit_is_all_claim(self):
        traces = reconstruct(
            finished_job("k1", "w1", 5.0, setup=0.0, compile_s=0.0,
                         simulate=0.0, cache=0.2, tail=0.0, cached=True)
        )
        (trace,) = traces.finished
        spans = dict((n, d) for n, _s, d in trace.spans())
        assert trace.cached
        assert spans["claim"] == pytest.approx(0.2)
        assert spans["setup"] == spans["compile"] == spans["simulate"] == 0.0

    def test_requeued_attempt_stays_open_and_second_finishes(self):
        records = [
            record(1.0, "job_claimed", key="k", worker="w1", attempts=1),
            record(2.0, "requeue", key="k", attempts=2, terminal=False),
            *finished_job("k", "w2", 3.0, attempts=2),
        ]
        traces = reconstruct(records)
        assert len(traces.traces) == 2
        open_attempt = [t for t in traces.traces if not t.finished]
        assert len(open_attempt) == 1
        assert open_attempt[0].worker == "w1"
        assert open_attempt[0].requeued_at == 2.0
        (done,) = traces.finished
        assert done.worker == "w2" and done.attempt == 2
        assert [name for _ts, name, _w, _d in traces.instants] == ["requeue"]

    def test_finish_without_claim_synthesises_root(self):
        records = [
            record(50.0, "job_finished", key="v1", worker="w", ok=True,
                   cached=False, duration_s=2.0, attempts=1),
        ]
        (trace,) = reconstruct(records).finished
        assert trace.claimed_at == pytest.approx(48.0)
        assert trace.duration_s == pytest.approx(2.0)

    def test_key_filter_scopes_jobs_but_keeps_fleet_instants(self):
        records = [
            *finished_job("mine", "w1", 1.0),
            *finished_job("theirs", "w2", 1.0),
            record(2.0, "lease_renewed", worker="w1", batch="b", jobs=2, done=1),
            record(2.5, "lease_renewed", worker="w2", batch="b2", jobs=1, done=0),
        ]
        traces = reconstruct(records, keys={"mine"})
        assert [t.key for t in traces.traces] == ["mine"]
        # lease instants only for workers that touched the kept keys
        assert [(name, worker) for _ts, name, worker, _d in traces.instants] == [
            ("lease_renewed", "w1")
        ]

    def test_critical_path_is_slowest_chain(self):
        records = [
            *finished_job("fast", "w1", 1.0, simulate=0.1),
            *finished_job("slow", "w1", 5.0, simulate=3.0),
        ]
        traces = reconstruct(records)
        assert traces.critical_path().key == "slow"


class TestChromeExport:
    def test_structure_and_monotonicity(self):
        records = [
            *finished_job("k1", "w1", 100.0),
            *finished_job("k2", "w2", 100.5),
            record(101.0, "lease_renewed", worker="w1", batch="b", jobs=1, done=0),
        ]
        doc = chrome_trace(reconstruct(records))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        kinds = {event["ph"] for event in events}
        assert kinds == {"M", "X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
        roots = [e for e in events if e["ph"] == "X" and e["cat"] == "job"]
        phases = [e for e in events if e["ph"] == "X" and e["cat"] == "phase"]
        assert len(roots) == 2 and len(phases) == 10
        # children nest inside their root, per key
        for root in roots:
            key = root["args"]["key"]
            for child in phases:
                if child["args"]["key"] != key:
                    continue
                assert child["ts"] >= root["ts"]
                assert child["ts"] + child["dur"] <= root["ts"] + root["dur"]
        # worker thread lanes are named
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"w1", "w2", "spool"} <= names

    def test_epoch_start_recorded(self):
        doc = chrome_trace(reconstruct(finished_job("k", "w", 1234.5)))
        assert doc["otherData"]["trace_start_epoch_s"] == pytest.approx(1234.5)
        assert doc["otherData"]["jobs_finished"] == 1

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = write_chrome_trace(
            reconstruct(finished_job("k", "w", 1.0)), tmp_path / "t.json"
        )
        assert json.loads(path.read_text())["traceEvents"]


class TestSummary:
    def test_summary_lists_phases_and_critical_path(self):
        records = [
            *finished_job("abcdef123456", "w1", 1.0),
            record(1.2, "requeue", key="other", attempts=2, terminal=False),
        ]
        text = render_trace_summary(reconstruct(records))
        for name in PHASE_ORDER:
            assert name in text
        assert "critical path: job abcdef123456" in text
        assert "requeues: 1" in text

    def test_empty_stream_renders_gracefully(self):
        text = render_trace_summary(reconstruct([]))
        assert "nothing to summarise" in text


class TestRealSpool:
    @pytest.fixture()
    def drained_spool(self, tmp_path):
        jobs = montecarlo_jobs(
            SystemRef.baseline4(), "rc", 2, 3, seed=0, metric="reachability"
        )
        spool = Spool(tmp_path / "spool", lease_s=5.0).ensure()
        spool.attach_events("test-enqueuer")
        campaign = Campaign(name="real", jobs=tuple(jobs))
        write_campaign_manifest(spool.root, campaign, source="test-enqueuer")
        spool.enqueue(jobs, batch_size=2)
        cache = ResultCache(tmp_path / "cache")
        run_worker(spool.root, cache, worker_id="trace-w",
                   idle_timeout_s=1.0, lease_s=5.0)
        return spool, {job.key() for job in jobs}

    def test_every_job_has_all_five_spans(self, drained_spool):
        spool, keys = drained_spool
        traces = job_traces(spool.root, campaign="real")
        assert {t.key for t in traces.finished} == keys
        for trace in traces.finished:
            assert [n for n, _s, _d in trace.spans()] == list(PHASE_ORDER)
            assert trace.ok
        doc = chrome_trace(traces)
        roots = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "job"
        ]
        assert {root["args"]["key"] for root in roots} == keys

    def test_campaign_resolution(self, drained_spool):
        spool, keys = drained_spool
        assert resolve_campaign_keys(spool.root, "real") == keys
        with pytest.raises(ValueError, match="unknown campaign"):
            resolve_campaign_keys(spool.root, "ghost")

    def test_cli_trace(self, drained_spool, tmp_path, capsys):
        from repro.cli import main

        spool, keys = drained_spool
        out = tmp_path / "trace.json"
        assert main(["trace", str(spool.root), "--campaign", "real",
                     "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "critical path" in captured.out
        doc = json.loads(out.read_text())
        assert doc["otherData"]["campaign"] == "real"
        with pytest.raises(SystemExit):
            main(["trace", str(spool.root), "--campaign", "ghost"])
