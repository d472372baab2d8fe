"""Distributed campaign execution.

The subsystem that takes the campaign runner beyond one machine:

* :mod:`repro.distributed.spool` — :class:`Spool`, a broker-less
  filesystem job queue (atomic claims, leases with heartbeats, crash
  requeue, terminal failure hand-off);
* :mod:`repro.distributed.worker` — :func:`run_worker`, the long-lived
  ``deft worker`` process wrapping one warm
  :class:`~repro.runner.session.SessionContext`;
* :mod:`repro.distributed.shard` — deterministic campaign partitioning
  by job-key range, merged through the content-addressed result cache;
* :mod:`repro.distributed.backend` — :class:`SpoolBackend`, the
  :class:`~repro.runner.backends.ExecutionBackend` that enqueues a
  campaign, autospawns local workers and blocks until results land;
* :mod:`repro.distributed.rounds` — :class:`RoundRendezvous`, the
  filesystem barrier that lets N shard drivers pool per-round Monte
  Carlo tallies and take bit-identical adaptive-stopping decisions.
"""

from .backend import SpoolBackend, auto_batch_size
from .rounds import RendezvousError, RoundRendezvous
from .shard import (
    coverage_check,
    parse_shard,
    shard_bounds,
    shard_campaign,
    shard_jobs,
    shard_of_key,
)
from .spool import BatchClaim, BatchEntry, Spool
from .worker import run_worker

__all__ = [
    "BatchClaim",
    "BatchEntry",
    "RendezvousError",
    "RoundRendezvous",
    "Spool",
    "SpoolBackend",
    "auto_batch_size",
    "coverage_check",
    "parse_shard",
    "run_worker",
    "shard_bounds",
    "shard_campaign",
    "shard_jobs",
    "shard_of_key",
]
