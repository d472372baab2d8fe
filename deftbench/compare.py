"""Compare two sets of benchmark runs: a parent commit and a change.

Each input file holds the stdout of one or more ``run.py`` runs (an info
line followed by a result line per run; other lines are ignored)::

    python3 deftbench/compare.py --parent p1.out p2.out --change c1.out c2.out

For every workload and end-to-end metric it prints each side's median and
quartiles, the pair win rate and a verdict, applying the bounds in
``BENCHMARK.json``:

* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's own spread (quartile distance over median)
  exceeds the bound, so "unchanged" cannot be told from noise, unless every
  change run is better than every parent run;
* ``improved`` — the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``unchanged`` — otherwise.

Runs pair up by seed. It also reports any seed whose ``result_digest``
differs between the sides: a speed-only change must not move it. The
exit status is 1 when any metric regressed or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def read_runs(paths: list[Path]) -> dict[str, dict[int, dict]]:
    """workload -> seed -> {"digest", "metrics"} of untraced runs."""
    runs: dict[str, dict[int, dict]] = {}
    for path in paths:
        info = None
        for line in path.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if "workload" in record:
                info = record
            elif "metrics" in record and info is not None and not info["trace"]:
                runs.setdefault(info["workload"], {})[info["seed"]] = {
                    "digest": info["result_digest"],
                    "metrics": {k: v["value"] for k, v in record["metrics"].items()},
                }
                info = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent: list[float], change: list[float], pairs, bound: float, lower: bool):
    """(verdict, win rate) for one metric; ``pairs`` are (parent, change)."""
    # Multiplying by ``sign`` makes higher worse, so one rule serves both
    # directions.
    sign = 1.0 if lower else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    worse_by = sign * (cm - pm)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    if worse_by > bound * abs(pm):
        return "regressed", win_rate
    every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound * abs(pm) and not every_run_better:
        return "unresolved", win_rate
    if win_rate >= WIN_SHARE and -worse_by > spread:
        return "improved", win_rate
    return "unchanged", win_rate


def compare(parent_runs, change_runs, benchmark) -> tuple[list[str], bool]:
    lines, bad = [], False
    for workload in sorted(set(parent_runs) & set(change_runs)):
        ps, cs = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(ps) & set(cs))
        lines.append(f"== {workload}: {len(ps)} parent runs, {len(cs)} change runs, "
                     f"{len(seeds)} pairs")
        moved = [s for s in seeds if ps[s]["digest"] != cs[s]["digest"]]
        if moved:
            bad = True
            lines.append(f"  result_digest differs on seeds {moved}")
        lines.append(f"  {'metric':<14}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
                     f"{'wins':>7}  verdict (bound)")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [ps[s]["metrics"][name] for s in sorted(ps)]
            change = [cs[s]["metrics"][name] for s in sorted(cs)]
            pairs = [(ps[s]["metrics"][name], cs[s]["metrics"][name]) for s in seeds]
            result, win_rate = verdict(
                parent, change, pairs, metric["bound"], metric["better"] == "lower"
            )
            bad |= result == "regressed"
            fmt = lambda qs: "/".join(f"{q:.4g}" for q in qs)  # noqa: E731
            lines.append(
                f"  {name:<14}{fmt(quartiles(parent)):>34}{fmt(quartiles(change)):>34}"
                f"{win_rate:>7.0%}  {result} ({metric['bound']:.0%})"
            )
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    lines, bad = compare(read_runs(args.parent), read_runs(args.change), benchmark)
    print("\n".join(lines) if lines else "no workload present on both sides")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
