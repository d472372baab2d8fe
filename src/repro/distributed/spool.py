"""Broker-less filesystem job spool (protocol v3: every file is a batch).

A :class:`Spool` is a directory any number of worker processes can pull
jobs from — local subprocesses today, machines sharing the directory
over NFS/SSHFS tomorrow. There is no broker and no daemon: every queue
transition is an atomic filesystem operation, so the only thing workers
need in common is the directory.

Layout::

    <root>/
      spool.json           protocol version manifest (v3)
      jobs/batch-*.json    pending batches
      claims/batch-*.json  leased batches: jobs + worker id + lease deadline
      requeue/batch-*.json transient reaper staging (recovered if orphaned)
      failed/<key>.json    terminal failures handed back to the backend
      workers/<id>.json    per-worker observability stats (session hit rates)
      manifest/            campaign descriptors + JSONL event streams
                           (see :mod:`repro.telemetry.manifest`)
      STOP                 shutdown sentinel for long-lived workers

There is one wire format: every pending, leased and staged file is a
``batch-<digest>-n<K>.json`` file of K >= 1 jobs carrying
``jobs: [{key, job, attempts}, ...]``. The job count lives in the name,
so queue depths never require file reads.

Protocol:

* **enqueue** — group fresh jobs into batch files of ``batch_size`` and
  publish each atomically (tmp + rename). Idempotent by content
  address: keys already pending or claimed are skipped, so
  re-enqueueing is harmless and overlapping campaigns merge. Bigger
  batches amortize the per-job filesystem round trips of
  enqueue/claim/lease.
* **claim** — :meth:`claim_batch` takes one pending file under one
  lease by a single atomic rename into ``claims/`` (exactly one winner
  per batch, even on NFS). The lease file carries every job payload,
  the worker id, the lease deadline and the set of jobs already
  settled.
* **heartbeat** — atomically rewrite the one lease file with a fresh
  deadline while the batch executes: one heartbeat stream covers every
  job in the batch.
* **settle** — as jobs inside a batch finish, the worker marks them
  settled in the lease (:meth:`flush_done`), *after* their results are
  durable in the cache. A crash therefore requeues only jobs that are
  not yet settled; anything re-executed because its settle flush had
  not landed yet is served straight from the cache on reclaim.
* **requeue** — any participant may sweep expired leases: the winner
  atomically renames the lease into ``requeue/`` (single winner again)
  and republishes the *unsettled remainder* with carried attempt
  counts — or, past ``max_attempts``, writes terminal failures. A
  reaper that dies mid-requeue leaves an orphan in ``requeue/`` that
  the next sweep recovers.
* **results** — *successful* results are handed off to the existing
  content-addressed :class:`~repro.runner.cache.ResultCache` (the merge
  point shards and machines already share); the spool itself only
  carries inputs, leases and terminal failures.

Compatibility: :meth:`Spool.ensure` refuses a directory whose
``spool.json`` names another protocol version, or that holds pending or
claimed files with no ``spool.json`` at all (the pre-manifest layout).
Drain such a spool with the release that wrote it.

A worker that finishes a job after losing its lease simply writes the
same content-addressed result a second time — execution is a pure
function of the job, so duplicate execution is benign (wasted cycles,
never wrong numbers).

Telemetry: the spool counts its own filesystem operations into the
``deft_spool_fs_ops`` counter (scans, reads, writes, renames, unlinks)
and observes every claim's job count into the ``deft_spool_batch_size``
histogram, so the per-job round-trip reduction from batching is
directly measurable (``benchmarks/bench_distributed.py`` records it).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..runner.result import JobResult
from ..runner.spec import Job
from ..telemetry.events import NULL_EVENTS
from ..telemetry.manifest import ensure_manifest, event_writer
from ..telemetry.metrics import get_registry

#: Shutdown sentinel file name (``Spool.request_stop``).
STOP_SENTINEL = "STOP"

#: Default lease duration: a worker must heartbeat within this window or
#: its claim is considered dead and the job is requeued.
DEFAULT_LEASE_S = 30.0

#: Give up and record a terminal failure after this many executions of
#: the same job (first attempt included).
DEFAULT_MAX_ATTEMPTS = 3

#: The spool wire-protocol version this code reads and writes
#: (``spool.json``). A spool of any other version is refused.
PROTOCOL_VERSION = 3

#: Hard clamp on jobs per batch file / lease (also the auto-sizing cap).
MAX_BATCH = 32

#: A worker whose ``workers/<id>.json`` snapshot is older than this is
#: presumed dead: live workers republish it every lease/4 seconds, busy
#: or idle.
STALE_WORKER_S = 60.0

#: Pending/lease files: ``batch-<digest>-n<jobs>.json``. The job count
#: lives in the name so queue depths never require file reads.
_BATCH_NAME_RE = re.compile(r"^batch-[0-9a-f]+-n(\d+)\.json$")

#: ``deft_spool_batch_size`` buckets: powers of two up to the clamp.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, float(MAX_BATCH))


def _fs_ops(n: int = 1) -> None:
    """Count spool filesystem round-trips (no-op when telemetry is off)."""
    get_registry().counter(
        "deft_spool_fs_ops",
        "Filesystem operations performed by the spool protocol",
    ).inc(n)


@dataclass
class BatchEntry:
    """One job inside a claimed batch."""

    key: str
    job: Job
    attempts: int        #: 1-based: the attempt this claim is executing
    payload: dict        #: wire-format job dict (carries kernel preference)


@dataclass
class BatchClaim:
    """One worker's lease over a batch of jobs (possibly just one).

    ``done`` holds the keys already settled — result durable in the
    cache, or requeued/terminally failed. The lease file mirrors it on
    every :meth:`Spool.flush_done` / heartbeat rewrite, so a reaper
    requeues only the unsettled remainder. ``lock`` serialises lease
    rewrites between the executing thread and the heartbeat thread.
    """

    batch: str           #: batch id (lease file stem)
    name: str            #: lease file name inside ``claims/``
    worker: str
    deadline: float
    entries: list[BatchEntry]
    done: set[str] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def remaining(self) -> list[BatchEntry]:
        return [e for e in self.entries if e.key not in self.done]


def _write_json(path: Path, payload: dict) -> None:
    """Atomic publish: readers never observe partial files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))  # one write, not one per token
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fs_ops(2)  # write + publish rename


def _read_json(path: Path) -> dict | None:
    """Read a payload, or None if it vanished or is mid-write garbage."""
    _fs_ops()
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _job_count_of(name: str) -> int:
    """Jobs carried by one pending/lease file, from the name alone."""
    match = _BATCH_NAME_RE.match(name)
    return int(match.group(1)) if match else 0


class Spool:
    """A filesystem job queue with batched leases, crash requeue and
    terminal failures.

    Args:
        root: the spool directory (created on :meth:`ensure`).
        lease_s: how long a claim stays valid between heartbeats.
        max_attempts: executions per job before a terminal failure.
    """

    def __init__(
        self,
        root: str | Path,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.jobs_dir = self.root / "jobs"
        self.claims_dir = self.root / "claims"
        self.requeue_dir = self.root / "requeue"
        self.failed_dir = self.root / "failed"
        self.workers_dir = self.root / "workers"
        # Telemetry sink for this spool's own protocol transitions (lease
        # expiries, renewals, requeues). Defaults to the shared no-op; the
        # owning process (worker, backend) wires a real writer via
        # :meth:`attach_events` so the emitting source is identified.
        self.events = NULL_EVENTS

    def ensure(self) -> "Spool":
        """Create the layout, or refuse a spool of another protocol.

        A fresh directory gets its ``spool.json`` before any job file
        can be written to it.
        """
        self._check_protocol()
        for directory in (
            self.jobs_dir, self.claims_dir, self.requeue_dir,
            self.failed_dir, self.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        version_path = self.root / "spool.json"
        if not version_path.exists():
            _write_json(version_path, {"protocol": PROTOCOL_VERSION})
        ensure_manifest(self.root)
        return self

    def _check_protocol(self) -> None:
        """Raise unless the directory is fresh or speaks this protocol.

        Job files are probed *before* the manifest is read. ``spool.json``
        is always written before the first job file, so job files with
        no manifest come from the pre-manifest layout, never from a
        concurrent first :meth:`ensure`.
        """
        _fs_ops(2)  # pending + claimed presence probes
        holds_jobs = any(
            next(directory.glob("*.json"), None) is not None
            for directory in (self.jobs_dir, self.claims_dir)
        )
        version = self.protocol_version()
        if version == PROTOCOL_VERSION or (version is None and not holds_jobs):
            return
        if version is None:
            version, source = 1, "job files with no spool.json"
        else:
            source = "spool.json"
        hint = (
            "upgrade the worker"
            if version > PROTOCOL_VERSION
            else "drain it with the release that wrote it"
        )
        raise ValueError(
            f"spool {self.root} uses protocol {version} ({source}); this "
            f"code speaks only protocol {PROTOCOL_VERSION} — {hint}"
        )

    def protocol_version(self) -> int | None:
        """The version ``spool.json`` names; None when there is none."""
        payload = _read_json(self.root / "spool.json")
        if payload is None:
            return None
        return int(payload.get("protocol", 0))

    def attach_events(self, source: str):
        """Route this spool's protocol events to ``manifest/events/``.

        Returns the writer so the caller can emit its own events (job
        lifecycle, heartbeats) through the same stream. No-op writer
        when telemetry is disabled.
        """
        self.events = event_writer(self.root, source)
        return self.events

    # -- enqueue ----------------------------------------------------------

    def enqueue(self, jobs, batch_size: int = 1) -> int:
        """Publish jobs as pending; returns how many were newly enqueued.

        Idempotent by content address: a key already pending or claimed
        is left alone (another shard or an earlier round published it).
        A stale terminal failure for a re-enqueued key is cleared first —
        failures are environment artefacts and must be retried, exactly
        as the result cache never serves them.

        ``batch_size`` jobs share one pending file and, once claimed, one
        lease: short jobs batch aggressively to amortize the per-job
        claim/lease/heartbeat round-trips, long jobs stay at 1 so crash
        requeue keeps per-job granularity. Clamped to [1, ``MAX_BATCH``];
        the last file carries the remainder.
        """
        self.ensure()
        batch_size = max(1, min(int(batch_size), MAX_BATCH))
        in_flight = self._in_flight_keys()
        failed_keys = self.failed_keys()  # replaces per-job unlink attempts
        fresh: list[Job] = []
        seen: set[str] = set(in_flight)
        for job in jobs:
            key = job.key()
            if key in seen:
                continue
            seen.add(key)
            if key in failed_keys:
                self._clear_failure(key)
            fresh.append(job)
        for start in range(0, len(fresh), batch_size):
            self._write_batch(
                [
                    {"key": job.key(), "job": self._wire_job(job), "attempts": 0}
                    for job in fresh[start:start + batch_size]
                ]
            )
        return len(fresh)

    @staticmethod
    def _wire_job(job: Job) -> dict:
        # canonical() excludes the kernel preference (it is not part of
        # the cache identity); carry it on the wire separately so
        # workers honour it.
        payload = job.canonical()
        if job.kernel != "auto":
            payload["kernel"] = job.kernel
        return payload

    def _in_flight_keys(self) -> set[str]:
        """Every key currently pending or claimed.

        One directory scan each plus one read per *file*, amortized
        over the jobs each file carries.
        """
        keys: set[str] = set()
        for directory in (self.jobs_dir, self.claims_dir):
            _fs_ops()  # directory scan
            try:
                paths = list(directory.glob("batch-*.json"))
            except OSError:
                continue
            for path in paths:
                payload = _read_json(path)
                if payload is None:
                    continue
                for entry in payload.get("jobs", ()):
                    if entry.get("key"):
                        keys.add(entry["key"])
        return keys

    def _write_batch(self, entries: list[dict], salt: bytes = b"") -> str:
        """Publish one pending batch file; returns its id.

        The id digests the job keys, so enqueuers racing on the same
        fresh jobs overwrite one file instead of publishing two. A
        ``salt`` makes the id unique (see :meth:`_republish_entries`).
        """
        digest = hashlib.sha256(salt)
        for entry in entries:
            digest.update(str(entry["key"]).encode("utf-8"))
        batch_id = f"batch-{digest.hexdigest()[:12]}-n{len(entries)}"
        _write_json(
            self.jobs_dir / f"{batch_id}.json",
            {
                "batch": batch_id,
                "jobs": entries,
                "enqueued_at": time.time(),
            },
        )
        return batch_id

    def _clear_failure(self, key: str) -> None:
        _fs_ops()
        try:
            (self.failed_dir / f"{key}.json").unlink()
        except OSError:
            pass

    # -- claim / heartbeat / settle / complete ----------------------------

    def claim_batch(
        self, worker: str, now: float | None = None
    ) -> BatchClaim | None:
        """Atomically claim one pending file — all its jobs, one lease.

        The claim is a single atomic rename into ``claims/`` (exactly
        one winner). Returns ``None`` when nothing is claimable. Every
        claimed job's attempt count is bumped in the lease.
        """
        now = now if now is not None else time.time()
        _fs_ops()  # pending directory scan
        try:
            # Names only: this scan runs once per claim over every
            # pending file, so it skips building a Path per entry.
            pending = sorted(
                name for name in os.listdir(self.jobs_dir)
                if _BATCH_NAME_RE.match(name)
            )
        except OSError:
            return None
        for name in pending:
            claimed = self._claim_batch_file(worker, name, now)
            if claimed is not None:
                get_registry().histogram(
                    "deft_spool_batch_size",
                    "Jobs claimed per spool lease",
                    buckets=BATCH_SIZE_BUCKETS,
                ).observe(len(claimed))
                return claimed
        return None

    def _claim_batch_file(
        self, worker: str, name: str, now: float
    ) -> BatchClaim | None:
        """Claim one batch file: the rename is the mutual exclusion."""
        staged = self.claims_dir / name
        _fs_ops()
        try:
            os.rename(self.jobs_dir / name, staged)  # single winner
        except OSError:
            return None  # lost the race (or the file vanished)
        payload = _read_json(staged)
        if payload is None:
            # Unreadable mid-claim (torn write at enqueue): drop the
            # file rather than leaking a dead lease.
            _fs_ops()
            try:
                staged.unlink()
            except OSError:
                pass
            return None
        deadline = now + self.lease_s
        entries: list[BatchEntry] = []
        wire_entries: list[dict] = []
        for raw in payload.get("jobs", ()):
            attempts = int(raw.get("attempts", 0)) + 1
            try:
                job = Job.from_canonical(raw["job"])
            except Exception:
                continue  # skip a single corrupt entry, claim the rest
            key = raw.get("key") or job.key()
            entries.append(BatchEntry(key, job, attempts, dict(raw)))
            wire_entries.append(
                {"key": key, "job": raw["job"], "attempts": attempts}
            )
        if not entries:
            _fs_ops()
            try:
                staged.unlink()
            except OSError:
                pass
            return None
        claim = BatchClaim(
            batch=name[: -len(".json")],
            name=name,
            worker=worker,
            deadline=deadline,
            entries=entries,
        )
        _write_json(
            staged,
            {
                "batch": claim.batch,
                "jobs": wire_entries,
                "worker": worker,
                "claimed_at": now,
                "deadline": deadline,
                "done": [],
            },
        )
        return claim

    def _rewrite_lease(
        self, claim: BatchClaim, now: float, renew: bool = True
    ) -> bool:
        """Atomically republish a batch's lease file (deadline + done).

        Returns False when the lease is already lost (a reaper renamed
        it away) — the caller no longer owns these jobs. Serialised per
        batch so the heartbeat thread and the executor never interleave.
        """
        with claim.lock:
            path = self.claims_dir / claim.name
            payload = _read_json(path)
            if payload is None or payload.get("worker") != claim.worker:
                return False  # lease already lost; the reaper owns it now
            if renew:
                claim.deadline = now + self.lease_s
            payload["deadline"] = claim.deadline
            payload["done"] = sorted(claim.done)
            # Mirror per-job settlement into the wire entries so a
            # reaper carries exactly the surviving attempt counts.
            payload["jobs"] = [
                {"key": e.key, "job": e.payload["job"], "attempts": e.attempts}
                for e in claim.entries
            ]
            _write_json(path, payload)
            return True

    def heartbeat_batch(
        self, claim: BatchClaim, now: float | None = None
    ) -> bool:
        """Extend a batch lease; one rewrite covers every job in it.

        Emits a ``lease_renewed`` event so expired-lease postmortems can
        see exactly when a worker last proved liveness for which keys.
        """
        now = now if now is not None else time.time()
        if not self._rewrite_lease(claim, now):
            return False
        self.events.emit(
            "lease_renewed",
            batch=claim.batch,
            worker=claim.worker,
            deadline=claim.deadline,
            jobs=len(claim.entries),
            done=len(claim.done),
        )
        return True

    def flush_done(self, claim: BatchClaim, keys) -> None:
        """Mark jobs settled in the lease (results already durable).

        Call only *after* the results have landed in the cache: settled
        jobs are excluded from crash requeue, so settlement must never
        outrun durability. Settling the final job completes the batch.
        """
        with claim.lock:  # the heartbeat thread iterates `done`
            claim.done.update(keys)
            settled = len(claim.done) >= len(claim.entries)
        if settled:
            self.complete_batch(claim)
            return
        self._rewrite_lease(claim, time.time(), renew=True)

    def complete_batch(self, claim: BatchClaim) -> None:
        """Release a finished batch (results already landed elsewhere)."""
        _fs_ops()
        try:
            (self.claims_dir / claim.name).unlink()
        except OSError:
            pass  # lease expired and was reaped mid-run: benign duplicate

    def release_entries(self, claim: BatchClaim, entries) -> int:
        """Hand unexecuted jobs back to pending (STOP / max-jobs exit).

        The jobs were never run, so their *pre-claim* attempt counts are
        restored — releasing is not a failed attempt. Returns how many
        were republished. The caller still holds the lease, so no other
        worker can double-claim the keys before the republish lands.
        """
        released = [
            {
                "key": e.key,
                "job": e.payload["job"],
                "attempts": e.attempts - 1,
            }
            for e in entries
            if e.key not in claim.done
        ]
        if not released:
            return 0
        self._republish_entries(released)
        with claim.lock:
            claim.done.update(e["key"] for e in released)
            settled = len(claim.done) >= len(claim.entries)
        if settled:
            self.complete_batch(claim)
        else:
            self._rewrite_lease(claim, time.time(), renew=True)
        return len(released)

    def requeue_entry(self, claim: BatchClaim, entry: BatchEntry) -> None:
        """Republish one failed batch job for a fresh attempt elsewhere.

        The attempt count carries over, so deterministic failures burn
        through ``max_attempts`` instead of cycling forever. Does *not*
        settle the entry in the lease — the worker flushes that
        immediately after, keeping the publish-then-settle ordering in
        one place.
        """
        self.events.emit(
            "requeue", key=entry.key, attempts=entry.attempts, terminal=False
        )
        self._republish_entries(
            [
                {
                    "key": entry.key,
                    "job": entry.payload["job"],
                    "attempts": entry.attempts,
                }
            ]
        )

    # -- crash requeue ----------------------------------------------------

    def requeue_expired(self, now: float | None = None) -> int:
        """Requeue every lease whose deadline has passed.

        Any participant (worker between batches, the backend while
        polling) may run this; the rename into ``requeue/`` makes each
        expiry single-winner. Only the *unsettled remainder* of a batch
        is republished — settled jobs' results are already durable.
        Returns the number of leases acted on. Also recovers
        ``requeue/`` orphans left by a reaper that died between its
        rename and its republish.
        """
        now = now if now is not None else time.time()
        acted = 0
        _fs_ops()
        for path in self.claims_dir.glob("*.json"):
            payload = _read_json(path)
            if payload is None:
                continue
            deadline = payload.get("deadline")
            if not isinstance(deadline, (int, float)) or deadline >= now:
                continue
            staged = self.requeue_dir / path.name
            _fs_ops()
            try:
                os.replace(path, staged)  # single winner per expiry
            except OSError:
                continue
            remainder = self._remainder_of(payload)
            self.events.emit(
                "lease_expired",
                key=path.name[: -len(".json")],
                worker=payload.get("worker"),
                jobs=[entry["key"] for entry in remainder],
                attempts=max(
                    (int(e.get("attempts", 1)) for e in remainder), default=1
                ),
                deadline=deadline,
            )
            self._republish_staged(staged, remainder)
            acted += 1
        # Orphan recovery: a reaper died after the rename above. The
        # staged file is untouched by anyone else, so age (mtime) older
        # than a lease means its owner is gone.
        _fs_ops()
        for staged in self.requeue_dir.glob("*.json"):
            try:
                if now - staged.stat().st_mtime < self.lease_s:
                    continue
            except OSError:
                continue
            payload = _read_json(staged)
            if payload is None:
                continue
            self._republish_staged(staged, self._remainder_of(payload))
            acted += 1
        return acted

    @staticmethod
    def _remainder_of(payload: dict) -> list[dict]:
        """The unsettled wire entries of one lease payload."""
        done = set(payload.get("done", ()))
        return [e for e in payload.get("jobs", ()) if e["key"] not in done]

    def _republish_staged(self, staged: Path, remainder: list[dict]) -> None:
        """Second half of a requeue: back to pending, or terminally failed."""
        survivors: list[dict] = []
        for entry in remainder:
            attempts = int(entry.get("attempts", 1))
            key = entry["key"]
            self.events.emit(
                "requeue",
                key=key,
                attempts=attempts,
                terminal=attempts >= self.max_attempts,
            )
            if attempts >= self.max_attempts:
                result = JobResult(
                    job_key=key,
                    ok=False,
                    error=(
                        f"gave up after {attempts} attempt(s): lease expired "
                        f"(last worker died or stalled)"
                    ),
                )
                self.record_failure(key, result, attempts)
            else:
                survivors.append(entry)
        if survivors:
            self._republish_entries(survivors)
        _fs_ops()
        try:
            staged.unlink()
        except OSError:
            pass

    def _republish_entries(self, entries: list[dict]) -> None:
        """Write wire entries back to pending as one batch file.

        The entries carry their attempt counts, and a requeued remainder
        keeps its amortized claim cost. The file name is salted so it
        never equals a lease its publisher still holds: a later claim's
        rename would replace that lease file, and the holder's release
        would then delete the new lease.
        """
        self._write_batch(
            [
                {
                    "key": e["key"],
                    "job": e["job"],
                    "attempts": int(e.get("attempts", 0)),
                }
                for e in entries
            ],
            salt=os.urandom(8),
        )

    # -- terminal failures ------------------------------------------------

    def record_failure(self, key: str, result: JobResult, attempts: int) -> None:
        """Persist a terminal failed result for the backend to collect."""
        _write_json(
            self.failed_dir / f"{key}.json",
            {"result": result.to_dict(), "attempts": attempts},
        )

    def failed_keys(self) -> set[str]:
        """Keys with a terminal failure on record, from one ``failed/`` listing."""
        _fs_ops()
        try:
            names = os.listdir(self.failed_dir)
        except OSError:
            return set()
        return {name[:-5] for name in names if name.endswith(".json")}

    def failed_result(self, key: str) -> JobResult | None:
        payload = _read_json(self.failed_dir / f"{key}.json")
        if payload is None:
            return None
        try:
            return JobResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- shutdown sentinel ------------------------------------------------

    @property
    def _stop_path(self) -> Path:
        return self.root / STOP_SENTINEL

    def request_stop(self) -> None:
        self.ensure()
        self._stop_path.touch()

    def clear_stop(self) -> None:
        try:
            self._stop_path.unlink()
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return self._stop_path.exists()

    # -- observability ----------------------------------------------------

    def write_worker_stats(self, worker: str, payload: dict) -> None:
        """Publish one worker's stats snapshot (``workers/<id>.json``)."""
        _write_json(self.workers_dir / f"{worker}.json", payload)

    def worker_stats(self) -> dict[str, dict]:
        """All published worker stats, by worker id."""
        stats: dict[str, dict] = {}
        for path in self.workers_dir.glob("*.json"):
            payload = _read_json(path)
            if payload is not None:
                stats[path.name[: -len(".json")]] = payload
        return stats

    def pending_count(self) -> int:
        """Pending *jobs* (not files): batch names carry their size."""
        return sum(
            _job_count_of(path.name) for path in self.jobs_dir.glob("*.json")
        )

    def claimed_count(self) -> int:
        """Claimed *jobs* (not lease files), from file names alone.

        An upper bound under batching: settled jobs inside a live batch
        still count until the batch completes. Exact per-job accounting
        (used by ``deft status``) is :meth:`claim_snapshot`, which reads
        the lease payloads and excludes settled keys.
        """
        return sum(
            _job_count_of(path.name) for path in self.claims_dir.glob("*.json")
        )

    def claim_snapshot(self, now: float | None = None) -> list[dict]:
        """Read-only per-*job* view of every live lease (``deft status``).

        Batch leases expand into one entry per unsettled job, so the
        claimed/running depths always count jobs, never lease files.
        Each entry carries the key, the batch id, the claiming worker,
        the lease deadline and whether the lease is already stale
        relative to ``now`` (a stale lease means its worker died or
        stalled and the jobs await the next reaper sweep).
        """
        now = now if now is not None else time.time()
        snapshot: list[dict] = []
        if not self.claims_dir.is_dir():
            return snapshot
        for path in sorted(self.claims_dir.glob("*.json")):
            payload = _read_json(path)
            if payload is None:
                continue
            deadline = payload.get("deadline")
            valid = isinstance(deadline, (int, float))
            batch = payload.get("batch")
            for entry in self._remainder_of(payload):
                snapshot.append(
                    {
                        "key": entry["key"],
                        "batch": batch,
                        "worker": payload.get("worker"),
                        "attempts": int(entry.get("attempts", 1)),
                        "deadline": deadline if valid else None,
                        "stale": (deadline < now) if valid else True,
                    }
                )
        return snapshot
