"""Shared helpers for result-cache tests: reach into the segment layout.

Tests that garble, age or delete stored results go through these instead
of hard-coding file names, so each keeps its property when the on-disk
layout changes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.runner import Job, ResultCache
from repro.runner.cache import SEGMENTS, _records


def segment_files(cache: ResultCache) -> list[Path]:
    """Every published segment of a cache, sorted by name."""
    return sorted((cache.root / SEGMENTS).glob("*/*.seg"))


def split_record(raw: bytes) -> tuple[list[bytes], bytes]:
    """A record's header fields and its payload bytes."""
    header, _, rest = raw.partition(b"\n")
    return header.split(b" "), rest[:-1]


def frame(key: str, payload: bytes, kind: bytes = b"json") -> bytes:
    """A correctly framed record (valid digest) around any payload."""
    digest = hashlib.sha256(payload).hexdigest().encode()
    return b"%s %s %d %s\n" % (key.encode(), kind, len(payload), digest) + payload + b"\n"


def find_record(cache: ResultCache, job: Job) -> tuple[Path, bytes]:
    """The segment holding a job's record, and the record's bytes."""
    key = job.key().encode()
    for path in segment_files(cache):
        for raw in _records(path.read_bytes()):
            if raw.startswith(key + b" "):
                return path, raw
    raise LookupError(f"no record for {job.key()[:12]}")


def replace_record(cache: ResultCache, job: Job, new: bytes) -> Path:
    """Overwrite a job's record in place, leaving its neighbours alone."""
    path, old = find_record(cache, job)
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    return path


def rewrite_payload(cache: ResultCache, job: Job, edit, *, keep_digest: bool) -> None:
    """Apply ``edit`` to a job's (uncompressed JSON) payload dict.

    ``keep_digest=True`` leaves the old digest in the header — a garbled
    but parseable record; ``False`` re-frames it with a valid digest — a
    genuine record whose content happens to differ.
    """
    _, raw = find_record(cache, job)
    fields, payload = split_record(raw)
    data = json.loads(payload)
    edit(data)
    text = json.dumps(data).encode()
    if keep_digest:
        fields[2] = str(len(text)).encode()
        record = b" ".join(fields) + b"\n" + text + b"\n"
    else:
        record = frame(job.key(), text)
    replace_record(cache, job, record)
