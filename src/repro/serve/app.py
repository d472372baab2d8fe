"""The campaign service: HTTP routes over one spool directory.

Design constraints, in order:

* **The spool stays the source of truth.** ``POST /campaigns`` writes
  exactly what :class:`~repro.distributed.backend.SpoolBackend` would
  (manifest + ``campaign_started`` event + batched pending files) and
  then gets out of the way — external ``deft worker`` processes drain
  the queue and settle results into the shared cache. Every ``GET`` is
  recomputed from the filesystem, so a restarted server picks up
  mid-campaign with no state handoff.
* **Stdlib only.** ``ThreadingHTTPServer`` with one thread per
  request; SSE is a plain chunked-less ``text/event-stream`` response
  that polls the append-only event segments (:class:`SpoolEventTailer`
  survives rotation) and pushes frames until the client hangs up.
* **Readers never block writers.** Event streams are append-only JSONL
  with per-record flushes; status snapshots open files read-only. Many
  concurrent scrapes/tails against a live fleet are safe by
  construction — the tests hammer exactly that.

Routes::

    GET  /                      service + endpoint index
    POST /campaigns             submit a campaign spec (JSON)
    GET  /campaigns             every campaign's progress snapshot
    GET  /campaigns/<name>      one campaign (name, id, or shard base)
    GET  /campaigns/<name>/trace  Chrome/Catapult trace_event JSON
    GET  /metrics               Prometheus: fleet + server process
    GET  /events[?campaign=X&replay=0]   Server-Sent-Events tail
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..distributed.spool import MAX_BATCH, STALE_WORKER_S, Spool
from ..runner.cache import ResultCache
from ..runner.spec import Campaign, Job, SystemRef
from ..telemetry.manifest import SpoolEventTailer, write_campaign_manifest
from ..telemetry.metrics import get_registry
from ..telemetry.status import fleet_status, render_prom
from ..telemetry.trace import chrome_trace, job_traces, resolve_campaign_keys

DEFAULT_PORT = 8321

#: Submission bodies larger than this are rejected outright.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How often an SSE stream with nothing to say proves it is alive.
KEEPALIVE_S = 10.0


def campaign_from_spec(payload: dict) -> Campaign:
    """A JSON campaign spec -> :class:`Campaign`, validation included.

    Two shapes are accepted. The sweep shape mirrors ``deft campaign``'s
    flags::

        {"name": "fig4-remote", "system": "4", "algorithms": ["deft"],
         "traffic": "uniform", "rates": [0.004, 0.008], "seeds": 2,
         "warmup": 600, "cycles": 2000, "drain": 10000,
         "faults": [[3, "down"]], "kernel": "auto"}

    And the explicit shape carries full canonical job dicts (what
    ``Job.canonical()`` emits), for clients that build their own grids::

        {"name": "custom", "jobs": [{...}, {...}]}

    Raises ``ValueError``/``ConfigurationError`` on anything malformed —
    the HTTP layer maps those to 400s.
    """
    if not isinstance(payload, dict):
        raise ValueError("campaign spec must be a JSON object")
    if "jobs" in payload:
        raw_jobs = payload["jobs"]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ValueError("'jobs' must be a non-empty list of canonical job dicts")
        jobs = [Job.from_canonical(raw) for raw in raw_jobs]
        name = str(payload.get("name") or f"submitted-{jobs[0].key()[:8]}")
        return Campaign(name=name, jobs=tuple(jobs))

    from ..experiments.common import sweep_jobs

    system = SystemRef.from_cli(str(payload.get("system", "4")))
    algorithms = payload.get("algorithms") or ["deft"]
    if isinstance(algorithms, str):
        algorithms = [algorithms]
    if not isinstance(algorithms, list) or not all(
        isinstance(a, str) for a in algorithms
    ):
        raise ValueError("'algorithms' must be a list of algorithm names")
    traffic = str(payload.get("traffic", "uniform"))
    rates = payload.get("rates", [0.004])
    if not isinstance(rates, list) or not rates:
        raise ValueError("'rates' must be a non-empty list of numbers")
    rates = [float(rate) for rate in rates]
    seeds = tuple(range(1, int(payload.get("seeds", 1)) + 1))
    if not seeds:
        raise ValueError("'seeds' must be >= 1")
    config = SimulationConfig(
        warmup_cycles=int(payload.get("warmup", 600)),
        measure_cycles=int(payload.get("cycles", 2_000)),
        drain_cycles=int(payload.get("drain", 10_000)),
    )
    faults = tuple(
        (int(index), str(direction)) for index, direction in payload.get("faults", [])
    )
    traffic_params = payload.get("traffic_params") or {}
    if not isinstance(traffic_params, dict):
        raise ValueError("'traffic_params' must be an object")
    jobs = sweep_jobs(
        system,
        tuple(algorithms),
        traffic,
        rates,
        config,
        seeds,
        traffic_params=traffic_params,
        faults=faults,
        kernel=str(payload.get("kernel", "auto")),
    )
    name = str(payload.get("name") or f"{traffic}-{system.label}-{'+'.join(algorithms)}")
    return Campaign(name=name, jobs=tuple(jobs))


class CampaignService:
    """Everything the HTTP layer does, minus HTTP.

    Also usable directly (the benchmark drives it in-process). One
    instance per spool; submissions are serialised under a lock so two
    concurrent POSTs cannot interleave their manifest/enqueue writes.
    """

    def __init__(
        self,
        spool_dir: str | Path,
        cache_dir: str | Path | None = None,
        *,
        lease_s: float | None = None,
        batch: int | str = "auto",
        poll_s: float = 0.2,
        keepalive_s: float = KEEPALIVE_S,
        janitor: bool = True,
        window_s: float | None = None,
        stale_worker_s: float | None = None,
    ):
        spool_args = {} if lease_s is None else {"lease_s": lease_s}
        self.spool = Spool(spool_dir, **spool_args).ensure()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            # Instantiating eagerly validates the path once, at startup.
            ResultCache(self.cache_dir)
        if batch != "auto":
            batch = max(1, min(int(batch), MAX_BATCH))
        self.batch = batch
        self.poll_s = poll_s
        self.keepalive_s = keepalive_s
        self.stale_worker_s = (
            STALE_WORKER_S if stale_worker_s is None else stale_worker_s
        )
        self._status_args = {"stale_worker_s": self.stale_worker_s}
        if window_s is not None:
            self._status_args["window_s"] = window_s
        self.closing = threading.Event()
        self._submit_lock = threading.Lock()
        self.events = self.spool.attach_events(
            f"serve-{os.uname().nodename}-{os.getpid()}"
        )
        self._janitor: threading.Thread | None = None
        if janitor:
            self._janitor = threading.Thread(
                target=self._sweep_loop, name="deft-serve-janitor", daemon=True
            )
            self._janitor.start()

    def _sweep_loop(self) -> None:
        # Idle workers already reap expired leases between claims; the
        # service sweeps too so a fleet that died entirely still gets
        # its leases requeued while operators watch the dashboards.
        interval = max(1.0, self.spool.lease_s / 2.0)
        while not self.closing.wait(interval):
            try:
                self.spool.requeue_expired()
            except OSError:
                continue

    # -- submission --------------------------------------------------------

    def submit(self, payload: dict) -> dict:
        """Validate, announce, and enqueue one campaign spec."""
        campaign = campaign_from_spec(payload)
        batch = payload.get("batch", self.batch)
        if batch != "auto":
            batch = max(1, min(int(batch), MAX_BATCH))
        with self._submit_lock:
            write_campaign_manifest(
                self.spool.root, campaign, source=self.events.source
            )
            total = len({job.key() for job in campaign.jobs})
            self.events.emit(
                "campaign_started", campaign=campaign.name, total=total
            )
            if batch == "auto":
                from ..distributed.backend import auto_batch_size, fleet_size

                batch = auto_batch_size(
                    self.spool.root, total,
                    fleet_size(self.spool, stale_s=self.stale_worker_s),
                )
            enqueued = self.spool.enqueue(campaign.jobs, batch_size=batch)
        get_registry().counter(
            "deft_serve_submissions_total",
            "Campaigns accepted via POST /campaigns",
        ).inc()
        return {
            "campaign": campaign.name,
            "id": _campaign_id(campaign),
            "total": total,
            "enqueued": enqueued,
            "batch_size": batch,
        }

    # -- snapshots ---------------------------------------------------------

    def status(self) -> dict:
        return fleet_status(self.spool.root, self.cache_dir, **self._status_args)

    def campaigns(self) -> dict:
        status = self.status()
        return {
            "generated_at": status["generated_at"],
            "campaigns": status["campaigns"],
            "workers": status["workers"],
            "spool": status["spool"],
        }

    def campaign(self, name: str) -> dict | None:
        """Aggregate snapshot of one campaign (name, id, or shard base)."""
        status = self.status()
        entries = [
            entry
            for entry in status["campaigns"]
            if name in (
                entry["campaign"],
                entry["id"],
                (entry["shard"] or {}).get("base"),
            )
        ]
        if not entries:
            return None
        total = sum(entry["total"] for entry in entries)
        done = sum(entry["done"] for entry in entries)
        failed = sum(entry["failed"] for entry in entries)
        return {
            "campaign": name,
            "generated_at": status["generated_at"],
            "entries": entries,
            "total": total,
            "done": done,
            "failed": failed,
            "running": sum(entry["running"] for entry in entries),
            "complete": total > 0 and done + failed >= total,
        }

    def campaign_keys(self, name: str) -> set[str]:
        return resolve_campaign_keys(self.spool.root, name)

    def trace(self, name: str | None = None) -> dict:
        return chrome_trace(job_traces(self.spool.root, campaign=name))

    def metrics_text(self) -> str:
        """Fleet metrics (spool + worker stats files) + this process's."""
        get_registry().counter(
            "deft_serve_scrapes_total", "GET /metrics requests served"
        ).inc()
        return render_prom(self.status()) + get_registry().render_prom()

    def index(self) -> dict:
        return {
            "service": "deft serve",
            "spool": str(self.spool.root),
            "cache": str(self.cache_dir) if self.cache_dir else None,
            "endpoints": [
                "POST /campaigns",
                "GET /campaigns",
                "GET /campaigns/<name>",
                "GET /campaigns/<name>/trace",
                "GET /metrics",
                "GET /events?campaign=<name>&replay=0|1",
            ],
        }

    def close(self) -> None:
        self.closing.set()
        if self._janitor is not None:
            self._janitor.join(timeout=2.0)
        self.events.close()


def _campaign_id(campaign: Campaign) -> str:
    from ..telemetry.manifest import campaign_id

    return campaign_id(campaign.name, sorted({job.key() for job in campaign.jobs}))


class _CampaignHandler(BaseHTTPRequestHandler):
    service: CampaignService  # injected via subclassing in CampaignServer

    server_version = "deft-serve"

    def log_message(self, format: str, *args) -> None:
        pass  # scrapes and SSE polls would otherwise flood the log

    # -- helpers -----------------------------------------------------------

    def _send_json(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlsplit(self.path)
        parts = [
            urllib.parse.unquote(part)
            for part in parsed.path.split("/")
            if part
        ]
        query = urllib.parse.parse_qs(parsed.query)
        try:
            if not parts:
                self._send_json(self.service.index())
            elif parts == ["metrics"]:
                self._send_text(
                    self.service.metrics_text(), "text/plain; version=0.0.4"
                )
            elif parts == ["events"]:
                campaign = query.get("campaign", [None])[0]
                replay = query.get("replay", ["1"])[0].lower() not in (
                    "0", "false", "no",
                )
                self._stream_events(campaign, replay)
            elif parts == ["campaigns"]:
                self._send_json(self.service.campaigns())
            elif parts[0] == "campaigns" and len(parts) == 2:
                snapshot = self.service.campaign(parts[1])
                if snapshot is None:
                    self._send_json(
                        {"error": f"unknown campaign {parts[1]!r}"}, 404
                    )
                else:
                    self._send_json(snapshot)
            elif parts[0] == "campaigns" and len(parts) == 3 and parts[2] == "trace":
                try:
                    self._send_json(self.service.trace(parts[1]))
                except ValueError as exc:
                    self._send_json({"error": str(exc)}, 404)
            else:
                self._send_json({"error": f"no route for {parsed.path}"}, 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path.rstrip("/") != "/campaigns":
            self._send_json({"error": f"no route for {parsed.path}"}, 404)
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 < length <= MAX_BODY_BYTES:
            self._send_json(
                {"error": f"body must be 1..{MAX_BODY_BYTES} bytes"}, 400
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_json({"error": f"invalid JSON body: {exc}"}, 400)
            return
        try:
            receipt = self.service.submit(payload)
        except (ConfigurationError, ValueError, KeyError, TypeError) as exc:
            self._send_json({"error": f"invalid campaign spec: {exc}"}, 400)
            return
        self._send_json(receipt, 201)

    # -- SSE ---------------------------------------------------------------

    def _stream_events(self, campaign: str | None, replay: bool) -> None:
        """Tail the spool's merged event streams as Server-Sent Events.

        Job-scoped records (those carrying a ``key``) are filtered to
        the campaign when one is requested; fleet-level records
        (heartbeats, lease renewals/expiries, campaign announcements)
        always flow — they are what liveness looks like. The stream
        runs until the client disconnects or the server shuts down,
        with comment keep-alives while idle so dead peers surface.
        """
        keys = None
        if campaign is not None:
            try:
                keys = self.service.campaign_keys(campaign)
            except ValueError as exc:
                self._send_json({"error": str(exc)}, 404)
                return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        tailer = SpoolEventTailer(self.service.spool.root, replay=replay)
        try:
            self.wfile.write(b"retry: 2000\n\n")
            self.wfile.flush()
            last_write = time.monotonic()
            while not self.service.closing.is_set():
                wrote = False
                for record in tailer.poll():
                    key = record.get("key")
                    if keys is not None and key is not None and key not in keys:
                        continue
                    frame = (
                        f"event: {record.get('event', 'message')}\n"
                        f"data: {json.dumps(record, sort_keys=True)}\n\n"
                    )
                    self.wfile.write(frame.encode("utf-8"))
                    wrote = True
                if wrote:
                    self.wfile.flush()
                    last_write = time.monotonic()
                elif time.monotonic() - last_write >= self.service.keepalive_s:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    last_write = time.monotonic()
                time.sleep(self.service.poll_s)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return


class CampaignServer:
    """The HTTP server bound to one :class:`CampaignService`.

    ``serve_forever`` runs in the calling thread (the CLI's mode);
    :meth:`start_background` spawns a daemon thread instead (tests and
    the benchmark). ``port=0`` binds an ephemeral port — read
    :attr:`port` back.
    """

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ):
        handler = type("Handler", (_CampaignHandler,), {"service": service})
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> "CampaignServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="deft-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def close(self) -> None:
        # Order matters: wake SSE loops first so their request threads
        # finish, then stop accepting, then release the socket.
        self.service.closing.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "CampaignServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_campaigns(
    spool_dir: str | Path,
    cache_dir: str | Path | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    background: bool = True,
    **service_options,
) -> CampaignServer:
    """Construct and start a campaign server over ``spool_dir``.

    With ``background=True`` (default) the server runs on a daemon
    thread and the call returns immediately; call ``close()`` to stop.
    """
    service = CampaignService(spool_dir, cache_dir, **service_options)
    server = CampaignServer(service, host=host, port=port)
    if background:
        server.start_background()
    return server
