"""Golden semantics fingerprint, pinned per :data:`SPEC_VERSION`.

A tiny canonical job set — one simulation each for DeFT, MTR and RC, one
faulted Fig. 8 point and one reachability job — has one result digest
per spec version. Any change to simulator or executor semantics moves
the digest; such a change must bump ``SPEC_VERSION`` (which invalidates
every cached result) and pin the new digest here. The digest must come
out of both execution paths: the serial backend (lockstep batches of the
vector kernel) and per-job ``execute_job`` on the reference kernel with
live routing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.config import SimulationConfig
from repro.experiments.fig8 import fault_pattern_12p5
from repro.runner import (
    Job,
    SerialBackend,
    SystemRef,
    TrafficSpec,
    execute_job,
    execute_jobs,
    faults_to_spec,
)
from repro.runner.session import SessionContext
from repro.runner.spec import SPEC_VERSION
from repro.topology.presets import baseline_4_chiplets

#: SPEC_VERSION -> result digest of :func:`canonical_jobs`.
GOLDEN = {
    1: "66a2418ac49d234edd46d53cd51f7f1a8d622d95ba246fd96c20cef65731ee72",
}


def canonical_jobs() -> list[Job]:
    system = SystemRef.baseline4()
    config = SimulationConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=1_500)

    def sim(algorithm, rate, **kwargs):
        return Job.make(
            system, algorithm, TrafficSpec.make("uniform", rate=rate), config,
            seed=3, **kwargs,
        )

    return [
        sim("deft", 0.006),
        sim("mtr", 0.006),
        sim("rc", 0.006),
        sim("deft-ran", 0.006, faults=faults_to_spec(fault_pattern_12p5(baseline_4_chiplets()))),
        Job.make(
            system, "deft", TrafficSpec.make("uniform", rate=0.0), config,
            faults=((0, "down"), (5, "up")), kind="reachability",
        ),
    ]


def digest(results) -> str:
    records = []
    for result in results:
        assert result.ok, result.error
        record = result.to_dict()
        record.pop("duration_s")
        records.append(record)
    text = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_serial_backend_reproduces_the_pinned_digest():
    assert digest(SerialBackend().run(canonical_jobs())) == GOLDEN[SPEC_VERSION]


def test_reference_kernel_reproduces_the_pinned_digest():
    jobs = [dataclasses.replace(job, kernel="reference") for job in canonical_jobs()]
    assert digest(execute_job(job) for job in jobs) == GOLDEN[SPEC_VERSION]


def test_batch_mates_do_not_move_the_digest():
    """The same set run with reseeded twins, so every simulation shares a
    lockstep batch: the canonical members' results stay pinned."""
    jobs = canonical_jobs()
    twins = [
        dataclasses.replace(job, seed=job.seed + 1)
        for job in jobs
        if job.kind == "simulate"
    ]
    results = execute_jobs(jobs + twins, session=SessionContext())
    assert digest(results[: len(jobs)]) == GOLDEN[SPEC_VERSION]
