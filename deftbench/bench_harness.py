"""Smoke test of the benchmark harness itself (seconds, not minutes).

Run explicitly, from the repo root::

    python -m pytest deftbench/bench_harness.py -q

Every workload runs with ``--smoke`` (tiny inputs) once untraced and once
traced, exactly as the benchmark driver invokes ``run.py``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(BENCH_DIR))
import compare  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "deftbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke_runs(request):
    workload = request.param
    return workload, parse(run_bench(ROOT, workload, 0)), parse(run_bench(ROOT, workload, 1))


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert math.isfinite(printed["value"])


def test_every_declared_metric_is_printed(smoke_runs):
    _, (_, untraced), (_, traced) = smoke_runs
    check_metrics(untraced, BENCHMARK["end_to_end"])
    check_metrics(traced, BENCHMARK["per_layer"])


def test_tracing_does_not_change_results(smoke_runs):
    _, (untraced_info, _), (traced_info, _) = smoke_runs
    assert traced_info["result_digest"] == untraced_info["result_digest"]


def test_layers_account_for_the_traced_wall_time(smoke_runs):
    _, _, (_, traced) = smoke_runs
    metrics = traced["metrics"]
    wall = metrics["traced_wall_s"]["value"]
    assert 0 <= metrics["unattributed_s"]["value"] <= 0.05 * wall


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "deftbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "grid-load", 0)
    assert proc.returncode not in (0, 1)
    assert "metrics" not in proc.stdout


def test_compare_verdicts():
    def verdict(parent, change, lower=True):
        return compare.verdict(parent, change, list(zip(parent, change)), 0.1, lower)

    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    slower = [v * 1.2 for v in parent]
    faster = [v * 0.8 for v in parent]
    same = [10.02, 9.98, 10.0, 10.07, 9.93]
    noisy = [7.0, 13.0, 9.0, 11.0, 10.0]
    assert verdict(parent, slower)[0] == "regressed"
    assert verdict(parent, faster) == ("improved", 1.0)
    assert verdict(parent, same)[0] == "unchanged"
    assert verdict(noisy, same)[0] == "unresolved"
    # Higher-is-better metrics flip the direction.
    assert verdict(parent, faster, lower=False)[0] == "regressed"
