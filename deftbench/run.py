"""DeFT benchmark: one workload at one seed, end to end or layer by layer.

Run from the root of a checkout::

    python3 deftbench/run.py --workload paper-figs --seed 0 --seconds 20 --trace 0

Each pass of the workload runs in a fresh child process
(``deftbench/workloads.py``), so it starts with an empty session, result
cache and spool. Passes repeat, with identical inputs, until another pass
would overrun ``--seconds``; at least one always runs. Set-up time is
sampled from every child plus extra set-up-only probes, five samples in
all, and reported as their median. Every pass also times a fixed
calibration slice of benchmark-owned work right before and right after
its timed region; the ``*_norm`` metrics scale each pass's timings by how
fast its process ran that slice, which takes most of a shared host's
speed drift out of them, and report the median pass. The raw timings are
in the info line.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` passes alternate between untraced
and traced, the metrics are the ``per_layer`` list, and a Chrome trace of
the last traced pass lands in ``.deftbench/traces/``.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it describes the run (workload, seed,
passes, ``result_digest``, every correctness check, the tail percentile).
Exit status: 0 when every check passed, 1 when a check failed (the result
is still printed), 2 when the benchmark could not run (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".deftbench"
WORKLOADS = ("paper-figs", "grid-load", "mc-reach", "spool-drain")

#: Set-up samples per run: every pass child, topped up with probes.
SETUP_SAMPLES = 5
#: Every run must end well within the 180 s a run is allowed.
RUN_LIMIT_S = 160.0
#: Median time of one calibration slice (``workloads.calibration_slice``)
#: on an otherwise idle 2-vCPU Xeon host: the speed ``*_norm`` metrics are
#: scaled to.
REFERENCE_CALIBRATION_S = 0.027


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def spawn(workload: str, seed: int, workdir: Path, flags: list[str], deadline: float) -> dict:
    """Run one child to completion and return its JSON line.

    The child leads its own process group, so spool workers it starts are
    stopped with it even if it has to be killed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "tmp").mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir / "tmp")
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
        *flags, "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} child overran the {RUN_LIMIT_S:.0f}s run limit"
        ) from None
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} child failed ({proc.returncode}):\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def timing(output: dict, name: str) -> float:
    """A pass's timing; a list of them (the replays) gives its median."""
    value = output[name]
    return statistics.median(value) if isinstance(value, list) else value


def normalized(output: dict, name: str) -> float:
    """A pass's timing at reference host speed, scaled by the calibration
    slices timed in the same process around that pass."""
    return timing(output, name) * REFERENCE_CALIBRATION_S / statistics.median(
        output["calibration_s"]
    )


def pinned_digest(workload: str, seed: int) -> str | None:
    pinned = json.loads((BENCH_DIR / "digests.json").read_text())
    return pinned.get(workload, {}).get(str(seed))


def measure(args) -> tuple[dict, dict, bool, int, int]:
    """Run the passes; returns (info, metric values, correct, attempted, failed)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    base_flags = ["--smoke"] if args.smoke else []
    trace_file = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    untraced: list[dict] = []
    traced: list[dict] = []
    # Cache and spool passes create and delete thousands of files; flushing
    # that out between passes keeps one pass's writeback out of the next.
    os.sync()
    started = time.monotonic()
    try:
        while True:
            index = len(untraced) + len(traced)
            flags = list(base_flags)
            if index == 0:
                flags.append("--verify")
            tracing = bool(args.trace) and index % 2 == 1
            if tracing:
                flags += ["--trace-out", str(trace_file)]
            began = time.monotonic()
            out = spawn(args.workload, args.seed, work / f"pass{index}", flags, deadline)
            (traced if tracing else untraced).append(out)
            shutil.rmtree(work / f"pass{index}", ignore_errors=True)
            os.sync()
            took = time.monotonic() - began
            now = time.monotonic()
            done = not args.trace or traced
            if done and (now - started + took > args.seconds or now + took > deadline):
                break
        passes = untraced + traced
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            probe = spawn(args.workload, args.seed, work / f"probe{len(setups)}",
                          base_flags + ["--probe"], deadline)
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    median = statistics.median
    checks = dict(passes[0].get("checks", {}))
    digests = {p["result_digest"] for p in passes}
    checks["every pass gives the same result_digest"] = len(digests) == 1
    checks["every pass replays from cache, equal to its cold pass"] = all(
        p["replays_from_cache"] for p in passes
    )
    pinned = None if args.smoke else pinned_digest(args.workload, args.seed)
    if pinned is not None:
        checks["result_digest equals the pinned digest"] = digests == {pinned}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(checks.values())

    raw: dict = {}
    if args.trace:
        layer_names = traced[0]["layers"]
        values = {
            name: median([p["layers"][name] for p in traced]) for name in layer_names
        }
        # Raw host time: the calibration slices after a traced pass run
        # with its spans still in memory, which slows them (garbage
        # collection) and would bias a scaled comparison.
        values["trace_overhead_pct"] = 100.0 * (
            median([p["wall_s"] for p in traced])
            / median([p["wall_s"] for p in untraced]) - 1.0
        )
    else:
        raw = {
            name: median([timing(p, name) for p in passes])
            for name in ("wall_s", "replay_s", "job_p50_ms")
        }
        values = {
            "setup_s": median(setups),
            "wall_norm_s": median([normalized(p, "wall_s") for p in passes]),
            "replay_norm_s": median([normalized(p, "replay_s") for p in passes]),
            "job_p50_norm_ms": median([normalized(p, "job_p50_ms") for p in passes]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(passes),
        "result_digest": passes[0]["result_digest"],
        "jobs_per_pass": passes[0]["jobs"],
        "sim_cycles_per_pass": passes[0]["sim_cycles"],
        # Too hiccup-driven on a shared host to carry a bound; reported
        # with its percentile and sample count instead.
        "job_tail_ms": median([p["job_tail_ms"] for p in passes]),
        "job_tail_percentile": passes[0]["job_tail_percentile"],
        "setup_samples": setups,
        "calibration_s": [median(p["calibration_s"]) for p in passes],
        **raw,
        "wall_samples": [p["wall_s"] for p in untraced],
        "checks": checks,
    }
    if "shape_checks_failed" in passes[0]:
        info["shape_checks_failed"] = passes[0]["shape_checks_failed"]
    if args.trace:
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    return info, values, correct, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(
                f"no repro package under {ROOT / 'src'}; run from a full checkout"
            )
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        info, values, correct, attempted, failed = measure(args)
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        }
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"deftbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
