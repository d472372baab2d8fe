"""Benchmark-suite configuration.

Each ``bench_*`` module regenerates one artifact of the paper (figure or
table), printing the same rows/series the paper reports and asserting the
qualitative shape checks its experiment module records
(``ExperimentResult.checks`` in ``repro.experiments``). Numeric results are
also dumped to ``benchmarks/results/*.json``, which keeps the last
measured values of every artifact.

Every run additionally writes one machine-readable *trajectory* file per
bench module — ``benchmarks/BENCH_<module>.json`` (``bench_campaign.py``
-> ``BENCH_campaign.json``) — holding per-case wall-clock timings plus
any structured metrics a test records through the ``bench_metrics``
fixture (speedups, cache hit counts, ...). Committing or archiving these
files tracks the performance trajectory across PRs.

``REPRO_EXPERIMENT_SCALE`` (float, default 1.0) scales every simulated
window for quicker runs.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Per-module performance trajectory: module short name ->
#: {"cases": {test -> outcome/duration}, "metrics": {test -> recorded dict}}.
_TRAJECTORY: dict[str, dict[str, dict]] = {}


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


def _module_bucket(nodeid: str) -> dict[str, dict]:
    """The trajectory bucket for a test's bench module."""
    stem = pathlib.Path(nodeid.split("::", 1)[0]).stem
    name = stem[len("bench_"):] if stem.startswith("bench_") else stem
    return _TRAJECTORY.setdefault(name, {"cases": {}, "metrics": {}})


def _case_name(nodeid: str) -> str:
    return nodeid.split("::", 1)[-1]


@pytest.fixture()
def record_result():
    """Persist an experiment's data dict as JSON for EXPERIMENTS.md."""

    def _record(result):
        path = RESULTS_DIR / f"{result.experiment_id}.json"
        payload = {
            "experiment": result.experiment_id,
            "title": result.title,
            "data": result.data,
            "checks": [
                {"description": description, "passed": passed}
                for description, passed in result.checks
            ],
        }
        path.write_text(json.dumps(payload, indent=2, default=str))
        return path

    return _record


@pytest.fixture()
def bench_metrics(request):
    """Record structured per-test metrics into the module's BENCH_*.json.

    Call with keyword arguments (``bench_metrics(serial_s=1.2,
    speedup=3.4)``); repeated calls merge. Values must be JSON scalars
    or plain containers of them.
    """
    bucket = _module_bucket(request.node.nodeid)
    case = _case_name(request.node.nodeid)

    def _record(**values):
        bucket["metrics"].setdefault(case, {}).update(values)

    return _record


def _current_scale() -> float:
    """The scale the experiments actually ran at (clamping included)."""
    from repro.experiments.common import effective_scale

    return effective_scale(None)


def pytest_runtest_logreport(report):
    """Capture every bench case's wall-clock into the trajectory.

    The scale is stamped per case (not just per file): merged files can
    mix runs recorded at different ``REPRO_EXPERIMENT_SCALE`` values, and
    a timing is only comparable across PRs at the same scale.
    """
    if report.when != "call":
        return
    bucket = _module_bucket(report.nodeid)
    bucket["cases"][_case_name(report.nodeid)] = {
        "outcome": report.outcome,
        "duration_s": round(report.duration, 3),
        "experiment_scale": _current_scale(),
    }


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<module>.json trajectory file per bench module run.

    Merged into any existing file rather than overwritten: a partial run
    (``-k`` selection, ``-x`` abort) updates only the cases it executed,
    so the committed trajectory never silently loses data points.
    """
    for name, bucket in _TRAJECTORY.items():
        path = pathlib.Path(__file__).parent / f"BENCH_{name}.json"
        cases: dict = {}
        metrics: dict = {}
        try:
            previous = json.loads(path.read_text())
            cases.update(previous.get("cases", {}))
            metrics.update(previous.get("metrics", {}))
        except (OSError, json.JSONDecodeError):
            pass
        cases.update(bucket["cases"])
        for case, values in bucket["metrics"].items():
            metrics.setdefault(case, {}).update(values)
        payload = {
            "module": f"bench_{name}",
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
            "cases": cases,
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))


#: Reports collected during the session, replayed uncaptured at the end.
_SESSION_REPORTS: list[str] = []


def assert_and_print(result, record_result):
    """Shared epilogue: print the paper-style report, persist, assert."""
    from repro.experiments.common import format_report

    text = format_report(result)
    print()
    print(text)
    _SESSION_REPORTS.append(text)
    record_result(result)
    assert result.all_checks_pass, f"shape checks failed: {result.failed_checks()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the paper-style reports after the benchmark table.

    Ordinary ``print`` output is captured by pytest; the terminal summary
    is not, so the regenerated rows/series land in the console (and in
    ``bench_output.txt`` when tee'd) even without ``-s``.
    """
    if not _SESSION_REPORTS:
        return
    terminalreporter.section("regenerated paper artifacts")
    for text in _SESSION_REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
