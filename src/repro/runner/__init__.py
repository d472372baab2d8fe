"""Parallel campaign runner with content-addressed result caching.

The subsystem that turns the repo's embarrassingly-parallel evaluation
grids (topology x algorithm x traffic x fault scenario x seed) into
batched, cached, multi-worker pipelines:

* :mod:`repro.runner.spec` — declarative :class:`Job`/:class:`Campaign`
  descriptions with a canonical hashable form;
* :mod:`repro.runner.execute` — the pure job executor;
* :mod:`repro.runner.backends` — :class:`SerialBackend` and the
  multiprocessing :class:`ProcessPoolBackend`;
* :mod:`repro.runner.cache` — the on-disk content-addressed result cache;
* :mod:`repro.runner.session` — :class:`SessionContext`, the per-worker
  memo of built systems, algorithms, fault states and compiled route
  tables that repeated-topology campaigns reuse between jobs;
* :mod:`repro.runner.runner` — :class:`CampaignRunner`, tying the three
  together (dedup -> cache lookup -> backend execution -> write-back).
"""

from .backends import ExecutionBackend, ProcessPoolBackend, SerialBackend
from .cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from .execute import execute_job, execute_jobs, sample_rng
from .result import JobResult
from .runner import CampaignReport, CampaignRunner
from .session import SessionContext, get_session, reset_session
from .spec import (
    FAULTS_MODES,
    JOB_KINDS,
    SPEC_VERSION,
    Campaign,
    Job,
    SystemRef,
    TrafficSpec,
    faults_to_spec,
)

__all__ = [
    "CacheStats",
    "Campaign",
    "CampaignReport",
    "CampaignRunner",
    "DEFAULT_CACHE_DIR",
    "ExecutionBackend",
    "FAULTS_MODES",
    "JOB_KINDS",
    "Job",
    "JobResult",
    "ProcessPoolBackend",
    "ResultCache",
    "SPEC_VERSION",
    "SerialBackend",
    "SessionContext",
    "SystemRef",
    "TrafficSpec",
    "execute_job",
    "execute_jobs",
    "faults_to_spec",
    "get_session",
    "reset_session",
    "sample_rng",
]
