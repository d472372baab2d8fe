"""Content-addressed, log-structured on-disk result cache.

A job's cache key is ``job.key()`` — a SHA-256 over the canonical job
spec (including the spec version) — so repeated or overlapping campaigns
are incremental: any point already simulated under the same spec is
served from disk.

Layout. Results live in immutable *segment* files,
``<root>/segments/<writer>/<seq>.seg``. Every
:meth:`ResultCache.put_many` call writes one segment: the records stream
into ``<seq>.tmp``, which is renamed into place, so a segment appears
whole or not at all and a killed run leaves at most an orphaned ``.tmp``
behind. ``<writer>`` is a random token drawn by each cache object in each
process at its first write, and ``<seq>`` counts that writer's segments
from ``000000`` without gaps, so concurrent workers and sharded drivers
never collide. After each rename the writer touches ``segments/``. A
segment is a ``deft-segment 1`` line followed by records, each a text
header ``<key> <json|gzip> <length> <sha256>``, a newline, ``length``
payload bytes and a newline. The payload is the JSON ``{"version",
"job", "result"}``; with ``compress=True`` it is a gzip member of that
JSON (mtime 0, so equal content is byte-identical). The SHA-256 covers
the payload bytes as stored. Readers serve both kinds from one cache.

Only successful results are persisted: errors and timeouts are
environment artefacts, not properties of the spec, and must be retried
on the next campaign.

Index. ``get`` and ``indexed`` find records through an in-process index,
key -> (segment name, offset, size). Building it reads record headers
only and seeks past payloads. On CPython 3.11 it costs about 150 bytes
per record the process wrote itself (the key string is the job's own)
and about 260 bytes per record indexed from another process's segment.
The index holds locations only: every ``get`` reads the record's bytes
from its segment and checks the key, the length and the digest before
parsing, so a garbled record is a miss even when it is still valid JSON.
A record that fails the check, or whose segment is gone, is dropped from
the index and counted in :attr:`ResultCache.corrupt`; ``stats`` reports
a garbled record still on disk as ``corrupt``.

Discovery. A miss picks up segments published since the last look. While
``segments/`` is quiet that costs one ``stat``. The reader looks again
only when the directory's mtime moved, or when that mtime is within 2 s
of its last look: mtimes come from a coarse clock (ext4 ticks, NFS up to
a second), so a publish just after a look can leave the mtime where it
was. Looking again lists ``segments/`` (one entry per writer), reads
every segment of a writer it has not seen before, and probes each known
writer's next ``<seq>.seg`` with one ``open``, so it never lists the
segments themselves.

Caches written in the old one-file-per-job layout (``<root>/ab/<key>.json``
or ``.json.gz``) are not read: their results are recomputed from their
specs. ``deft cache stats`` counts those files as stale and ``deft cache
prune`` deletes them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import secrets
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..telemetry.metrics import get_registry
from .result import JobResult
from .spec import SPEC_VERSION, Job

#: Default cache directory (relative to the working directory) used by
#: the ``deft campaign`` CLI when ``--cache-dir`` is not given.
DEFAULT_CACHE_DIR = ".deft-cache"

SEGMENTS = "segments"
MAGIC = b"deft-segment 1\n"
#: How long after a listing a directory mtime is still ambiguous.
LISTING_WINDOW_NS = 2_000_000_000
#: Longest valid record header: key, kind, length and digest.
_HEADER_MAX = 64 + 1 + 4 + 1 + 20 + 1 + 64 + 1
_KINDS = {b"json": False, b"gzip": True}
#: What reading or verifying a garbled record can raise.
_GARBLED = (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError)


def _parse_header(line: bytes) -> tuple[str, bool, int, str] | None:
    """(key, gzip?, payload length, digest) of one header line, or None."""
    parts = line.split(b" ")
    if len(parts) != 4 or not line.endswith(b"\n"):
        return None
    key, kind, length, digest = parts
    if len(key) != 64 or kind not in _KINDS or not length.isdigit() \
            or not (key + digest).isascii():
        return None
    return key.decode("ascii"), _KINDS[kind], int(length), digest[:-1].decode("ascii")


def _open_record(raw: bytes) -> tuple[str, bool, dict]:
    """(key, gzip?, payload) of one record's bytes, verified.

    Raises one of ``_GARBLED`` when the framing, length or digest does not
    check out, or the payload does not decode.
    """
    cut = raw.find(b"\n") + 1
    header = _parse_header(raw[:cut]) if cut else None
    if header is None or not raw.endswith(b"\n"):
        raise ValueError("garbled record header")
    key, packed, length, digest = header
    payload = raw[cut:-1]
    if len(payload) != length or hashlib.sha256(payload).hexdigest() != digest:
        raise ValueError("record digest mismatch")
    if packed:
        payload = gzip.decompress(payload)
    data = json.loads(payload)
    if data["result"]["job_key"] != key:
        raise ValueError("record result names another job")
    return key, packed, data


def _records(data: bytes):
    """Split a whole segment into its records' raw bytes.

    A record whose header cannot be parsed ends the walk with the rest of
    the segment as one record: the bytes after it have no trustworthy
    framing, so they count as one corrupt record.
    """
    if not data.startswith(MAGIC):
        yield data
        return
    offset = len(MAGIC)
    while offset < len(data):
        cut = data.find(b"\n", offset, offset + _HEADER_MAX) + 1
        header = _parse_header(data[offset:cut]) if cut else None
        end = cut + header[2] + 1 if header else len(data)
        yield data[offset:end]
        offset = end


@dataclass(frozen=True)
class CacheStats:
    """On-disk census of a cache directory (``deft cache stats``)."""

    entries: int      #: servable results (distinct keys) under the current SPEC_VERSION
    stale: int        #: records of other spec versions and old-layout files — never served
    corrupt: int      #: records that fail their digest or do not parse — treated as misses
    tmp_files: int    #: orphaned ``.tmp`` files left behind by killed runs
    total_bytes: int  #: bytes across everything counted above
    compressed: int = 0  #: how many of ``entries`` are gzip-compressed

    def summary(self) -> str:
        line = (
            f"{self.entries} cached result(s), {self.total_bytes / 1024:.1f} KiB"
        )
        if self.entries:
            line += (
                f" ({self.compressed} compressed, "
                f"{self.entries - self.compressed} uncompressed)"
            )
        extras = []
        if self.stale:
            extras.append(f"{self.stale} stale")
        if self.corrupt:
            extras.append(f"{self.corrupt} corrupt")
        if self.tmp_files:
            extras.append(f"{self.tmp_files} orphaned tmp")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line

    def to_dict(self) -> dict:
        """Machine-readable census (``deft cache stats --json``)."""
        return {
            "entries": self.entries,
            "stale": self.stale,
            "corrupt": self.corrupt,
            "tmp_files": self.tmp_files,
            "total_bytes": self.total_bytes,
            "compressed": self.compressed,
        }


class ResultCache:
    """Maps canonical job specs to :class:`JobResult` records in segments.

    Args:
        root: cache directory.
        compress: gzip the payload of each new record. Reads always
            accept both kinds regardless of this flag, so mixed caches
            stay fully servable.
    """

    def __init__(self, root: str | Path, compress: bool = False):
        self.root = Path(root)
        self.compress = compress
        self.hits = 0
        self.misses = 0
        #: Reads that found a record garbled or its segment gone.
        self.corrupt = 0
        self._dir = str(self.root / SEGMENTS)
        self._index: dict[str, tuple[str, int, int]] = {}
        #: Known writers -> the sequence number of their next segment.
        self._next: dict[str, int] = {}
        self._listed: tuple[int, int] | None = None  # (dir mtime, listed at), ns
        self._writer: tuple[int, str] | None = None  # (pid, token)
        self._seq = 0

    # -- discovery --------------------------------------------------------

    def refresh(self) -> bool:
        """Index segments published since the last look; True if any were.

        One discovery (see *Discovery* above). A caller that tests many
        keys refreshes once and then asks :meth:`indexed` per key, instead
        of letting every miss look again.
        """
        listed_at = time.time_ns()
        try:
            mtime = os.stat(self._dir).st_mtime_ns
            if self._listed is not None and mtime == self._listed[0] \
                    and mtime < self._listed[1] - LISTING_WINDOW_NS:
                return False
            writers = os.listdir(self._dir)
        except FileNotFoundError:
            return False
        self._listed = (mtime, listed_at)
        found = False
        for writer in writers:
            seq = self._next.get(writer)
            if seq is None:
                found |= self._adopt(writer)
                continue
            while self._index_segment(f"{writer}/{seq:06d}.seg"):
                seq += 1
                found = True
            self._next[writer] = seq
        return found

    def _adopt(self, writer: str) -> bool:
        """Index every segment of a writer seen for the first time."""
        try:
            names = os.listdir(os.path.join(self._dir, writer))
        except OSError:
            names = []
        seqs = sorted(
            int(name[:-4]) for name in names
            if name.endswith(".seg") and name[:-4].isdigit()
        )
        for seq in seqs:
            self._index_segment(f"{writer}/{seq:06d}.seg")
        self._next[writer] = seqs[-1] + 1 if seqs else 0
        return bool(seqs)

    def _index_segment(self, name: str) -> bool:
        """Add one segment's records to the index, reading headers only.

        Returns whether the segment exists.
        """
        try:
            with open(os.path.join(self._dir, name), "rb") as handle:
                if handle.readline() != MAGIC:
                    return True
                offset = len(MAGIC)
                while True:
                    line = handle.readline(_HEADER_MAX)
                    header = _parse_header(line)
                    if header is None:
                        break
                    size = len(line) + header[2] + 1
                    self._index[header[0]] = (name, offset, size)
                    offset += size
                    handle.seek(offset)
        except OSError:
            return False
        return True

    # -- lookups ----------------------------------------------------------

    def _load(self, key: str, where: tuple[str, int, int]) -> JobResult | None:
        """Read and verify one indexed record; a bad one leaves the index."""
        name, offset, size = where
        try:
            fd = os.open(os.path.join(self._dir, name), os.O_RDONLY)
            try:
                raw = os.pread(fd, size, offset)
            finally:
                os.close(fd)
            found, _, payload = _open_record(raw)
            if found != key:
                raise ValueError("record holds another key")
            result = JobResult.from_dict(payload["result"])
            result.job_key = key  # one string per job, not one per read
        except _GARBLED:
            # A digest mismatch, a short read or a vanished segment: the
            # fresh result will be written to a new segment.
            self._index.pop(key, None)
            self.corrupt += 1
            return None
        if payload.get("version") != SPEC_VERSION or not result.ok:
            return None
        return result

    def get(self, job: Job) -> JobResult | None:
        """The cached result for a job, or None (corrupt records = miss)."""
        key = job.key()
        where = self._index.get(key)
        if where is None and self.refresh():
            where = self._index.get(key)
        result = self._load(key, where) if where is not None else None
        if result is None:
            self.misses += 1
            get_registry().counter(
                "deft_cache_misses_total", "Result-cache lookups that missed"
            ).inc()
            return None
        self.hits += 1
        get_registry().counter(
            "deft_cache_hits_total", "Result-cache lookups served from disk"
        ).inc()
        result.cached = True
        return result

    def indexed(self, key: str) -> bool:
        """Whether a record is indexed for a raw job key; no I/O at all.

        Sees only what this process wrote or its last discovery found.
        """
        return key in self._index

    # -- writes -----------------------------------------------------------

    def _record(self, job: Job, result: JobResult) -> bytes:
        """One record: header line, payload, newline."""
        payload = '{"version": %d, "job": %s, "result": %s}' % (
            SPEC_VERSION, job.canonical_json(), json.dumps(result.to_dict()),
        )
        data = payload.encode("utf-8")
        kind = b"json"
        if self.compress:
            data = gzip.compress(data, mtime=0)
            kind = b"gzip"
        digest = hashlib.sha256(data).hexdigest().encode("ascii")
        header = b"%s %s %d %s\n" % (job.key().encode("ascii"), kind, len(data), digest)
        return header + data + b"\n"

    def _writer_token(self) -> str:
        """This process's writer token, drawn at its first write."""
        pid = os.getpid()
        if self._writer is None or self._writer[0] != pid:
            self._writer = (pid, secrets.token_hex(8))
            self._seq = 0
        return self._writer[1]

    def _publish(self, records) -> tuple[str, list[tuple[int, int]]] | None:
        """Stream raw records into one new segment; None if there were none.

        Returns the segment's name and each record's (offset, size).
        """
        handle = None
        placed: list[tuple[int, int]] = []
        offset = len(MAGIC)
        try:
            for record in records:
                if handle is None:
                    writer = self._writer_token()
                    folder = os.path.join(self._dir, writer)
                    os.makedirs(folder, exist_ok=True)
                    stem = os.path.join(folder, f"{self._seq:06d}")
                    handle = open(stem + ".tmp", "wb")
                    handle.write(MAGIC)
                handle.write(record)
                placed.append((offset, len(record)))
                offset += len(record)
            if handle is None:
                return None
            handle.close()
            os.replace(stem + ".tmp", stem + ".seg")
        except BaseException:
            if handle is not None:
                handle.close()
                try:
                    os.unlink(stem + ".tmp")
                except OSError:
                    pass
            raise
        name = f"{writer}/{self._seq:06d}.seg"
        self._seq += 1
        self._next[writer] = self._seq
        # The rename changed only the writer's folder: bump segments/ so
        # readers with a quiet listing look again.
        os.utime(self._dir)
        return name, placed

    def put(self, job: Job, result: JobResult) -> None:
        """Persist a successful result; failed results are never cached."""
        self.put_many(((job, result),))

    def put_many(self, items) -> int:
        """Persist successful results as one segment; returns how many landed.

        Records stream to the segment's ``.tmp`` as they are encoded, and
        one rename publishes them all, so readers see the whole batch or
        none of it. Failed results are skipped; a batch without a
        successful result writes nothing.
        """
        keys: list[str] = []

        def records():
            for job, result in items:
                if result.ok:
                    keys.append(job.key())
                    yield self._record(job, result)

        published = self._publish(records())
        if published is None:
            return 0
        name, placed = published
        for key, (offset, size) in zip(keys, placed):
            self._index[key] = (name, offset, size)
        get_registry().counter(
            "deft_cache_writes_total", "Results persisted into the cache"
        ).inc(len(keys))
        return len(keys)

    # -- census & maintenance --------------------------------------------

    def _census(self):
        """Classify everything on disk.

        Yields ``(path, bucket, size, records)``: ``bucket`` is
        ``segment``, ``stale`` (an old-layout file) or ``tmp``; for a
        segment, ``records`` lists ``(raw, bucket, gzip?)`` with bucket
        ``entries``, ``stale``, ``corrupt`` or ``duplicate`` (a second
        copy of a servable key). Files that vanish mid-walk are skipped.
        """
        seen: set[str] = set()
        segments = self.root / SEGMENTS
        folders = [p for p in sorted(self.root.iterdir()) if p != segments]
        if segments.is_dir():
            folders += sorted(segments.iterdir())
        for folder in folders:
            if not folder.is_dir():
                continue
            for path in sorted(folder.iterdir()):
                try:
                    if path.name.endswith(".tmp"):
                        yield path, "tmp", path.stat().st_size, ()
                    elif folder.parent == segments:
                        if path.name.endswith(".seg"):
                            data = path.read_bytes()
                            records = [
                                self._classify(raw, seen) for raw in _records(data)
                            ]
                            yield path, "segment", len(data), records
                    elif path.name.endswith((".json", ".json.gz")):
                        yield path, "stale", path.stat().st_size, ()
                except FileNotFoundError:
                    continue

    @staticmethod
    def _classify(raw: bytes, seen: set[str]) -> tuple[bytes, str, bool]:
        try:
            key, packed, payload = _open_record(raw)
            version = payload["version"]
            JobResult.from_dict(payload["result"])
        except _GARBLED:
            return raw, "corrupt", False
        if version != SPEC_VERSION:
            return raw, "stale", packed
        if key in seen:
            return raw, "duplicate", packed
        seen.add(key)
        return raw, "entries", packed

    def stats(self) -> CacheStats:
        """Walk the cache directory and classify everything in it.

        Every record is read and its digest checked, so ``corrupt``
        counts records :meth:`get` would refuse. Records written under a
        different ``SPEC_VERSION`` and files of the old one-file-per-job
        layout — which :meth:`get` never serves — are ``stale``, and
        orphaned ``.tmp`` files from killed runs are surfaced instead of
        silently accumulating.
        """
        counts = {"entries": 0, "stale": 0, "corrupt": 0, "tmp": 0, "duplicate": 0}
        compressed = 0
        total_bytes = 0
        if not self.root.is_dir():
            return CacheStats(0, 0, 0, 0, 0)
        for _, bucket, size, records in self._census():
            total_bytes += size
            if bucket != "segment":
                counts[bucket] += 1
            for _, kind, packed in records:
                counts[kind] += 1
                compressed += kind == "entries" and packed
        return CacheStats(
            entries=counts["entries"],
            stale=counts["stale"],
            corrupt=counts["corrupt"],
            tmp_files=counts["tmp"],
            total_bytes=total_bytes,
            compressed=compressed,
        )

    def prune(
        self,
        remove_all: bool = False,
        older_than_days: float | None = None,
        now: float | None = None,
    ) -> CacheStats:
        """Delete dead weight; returns a census of what was removed.

        By default removes stale-version records, old-layout files,
        corrupt records, duplicate copies and orphaned ``.tmp`` files
        while keeping every servable result; ``older_than_days``
        additionally sweeps servable records whose segment's mtime is
        older than that many days (age-based retirement for long-lived
        caches — results are reproducible from their specs, so old
        entries only cost disk); ``remove_all`` empties the cache
        entirely. ``now`` overrides the reference time (tests).

        A segment is rewritten only when it loses some records but not
        all: the survivors go to a segment under a new name that keeps
        the old one's mtime, so ``older_than_days`` still ages them by
        their write time. Assumes no campaign is concurrently writing to
        this cache directory.
        """
        cutoff: float | None = None
        if older_than_days is not None:
            import math

            # NaN would make every mtime comparison False and silently
            # sweep the whole cache — the loss --all is meant to gate.
            if not math.isfinite(older_than_days) or older_than_days < 0:
                raise ValueError(
                    f"older_than_days must be a finite value >= 0, got {older_than_days}"
                )
            cutoff = (now if now is not None else time.time()) - older_than_days * 86_400
        removed = {"entries": 0, "stale": 0, "corrupt": 0, "tmp": 0, "duplicate": 0}
        compressed_removed = 0
        bytes_removed = 0
        if not self.root.is_dir():
            return CacheStats(0, 0, 0, 0, 0)
        # Rewrites go to a fresh writer folder, which the walk never visits.
        self._writer = None
        for path, bucket, size, records in self._census():
            if bucket != "segment":
                try:
                    path.unlink()
                except OSError:
                    continue
                removed[bucket] += 1
                bytes_removed += size
                continue
            try:
                stamp = path.stat().st_mtime_ns
            except OSError:
                continue
            sweep_servable = remove_all or (
                cutoff is not None and stamp < cutoff * 1e9
            )
            kept = [
                raw for raw, kind, _ in records
                if kind == "entries" and not sweep_servable
            ]
            if len(kept) == len(records):
                continue
            if kept:
                published = self._publish(kept)
                new_path = os.path.join(self._dir, published[0])
                os.utime(new_path, ns=(stamp, stamp))
                bytes_removed += size - os.path.getsize(new_path)
            else:
                bytes_removed += size
            path.unlink()
            for raw, kind, packed in records:
                if kind != "entries" or sweep_servable:
                    removed[kind] += 1
                    compressed_removed += kind == "entries" and packed
        # Writer folders first, so an emptied segments/ goes too.
        segments = self.root / SEGMENTS
        folders = list(segments.iterdir()) if segments.is_dir() else []
        for folder in folders + list(self.root.iterdir()):
            try:
                if folder.is_dir() and not any(folder.iterdir()):
                    folder.rmdir()
            except OSError:
                pass
        # Locations into rewritten or deleted segments are stale now.
        self._index.clear()
        self._next.clear()
        self._listed = None
        return CacheStats(
            entries=removed["entries"],
            stale=removed["stale"],
            corrupt=removed["corrupt"],
            tmp_files=removed["tmp"],
            total_bytes=bytes_removed,
            compressed=compressed_removed,
        )

    def __len__(self) -> int:
        """Number of *servable* entries (current spec version only)."""
        return self.stats().entries
