"""Fig. 7 — network reachability under VL faults.

Average and worst-case reachability for 1-8 faulty directed VL channels,
over all fault combinations excluding complete chiplet disconnection,
for (a) the 4-chiplet system (32 VLs) and (b) the 6-chiplet system
(48 VLs). Computed exactly by the decomposition of
:mod:`repro.analysis.reachability` — no pattern enumeration. Each
algorithm's curve is one :func:`reachability_curve` call: chiplet
profiles are built once and one convolution/DP pass serves all eight
fault counts.

Paper claims checked: DeFT is flat at 100% (worst = average); MTR is
fully tolerant only of a single fault; RC tolerates none; worst cases
degrade much faster than averages; MTR dominates RC on average.
"""

from __future__ import annotations

from ..analysis.reachability import reachability_curve
from ..routing.registry import make_algorithm
from ..topology.presets import baseline_4_chiplets, baseline_6_chiplets
from .common import ExperimentResult
from .charts import ascii_chart

FAULT_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)


def _reachability_experiment(experiment_id: str, title: str, system) -> ExperimentResult:
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    curves = {}
    for name in ("deft", "mtr", "rc"):
        algorithm = make_algorithm(name, system)
        curves[name] = reachability_curve(system, algorithm, FAULT_COUNTS)
    header = "faulty VLs " + " ".join(f"{k:>6d}" for k in FAULT_COUNTS)
    result.rows.append(header)
    chart_series = {}
    for name, curve in curves.items():
        avg = " ".join(f"{v * 100:6.1f}" for v in curve.average)
        wrst = " ".join(f"{v * 100:6.1f}" for v in curve.worst)
        result.rows.append(f"{name + '-Avg.':>10s} {avg}")
        result.rows.append(f"{name + '-Wrst.':>10s} {wrst}")
        chart_series[f"{name}-avg"] = list(
            zip(FAULT_COUNTS, [v * 100 for v in curve.average])
        )
    result.rows.append("(reachability, %)")
    result.rows.append("")
    result.rows.append(
        ascii_chart(chart_series, title=title, x_label="number of faulty VLs")
    )
    result.data = {
        name: {"average": curve.average, "worst": curve.worst}
        for name, curve in curves.items()
    }
    deft, mtr, rc = curves["deft"], curves["mtr"], curves["rc"]
    result.check(
        "DeFT achieves 100% reachability for every fault count (avg and worst)",
        all(v == 1.0 for v in deft.average) and all(v == 1.0 for v in deft.worst),
    )
    result.check(
        "MTR fully tolerates exactly one fault (100% at k=1, less at k=2 worst)",
        mtr.average[0] == 1.0 and mtr.worst[0] == 1.0 and mtr.worst[1] < 1.0,
    )
    result.check("RC tolerates no faults (below 100% at k=1)", rc.average[0] < 1.0)
    result.check(
        "MTR dominates RC on average",
        all(m >= r for m, r in zip(mtr.average, rc.average)),
    )
    result.check(
        "worst cases never exceed averages",
        all(
            w <= a + 1e-12
            for curve in curves.values()
            for w, a in zip(curve.worst, curve.average)
        ),
    )
    return result


def fig7a() -> ExperimentResult:
    """4-chiplet system (32 directed VLs)."""
    return _reachability_experiment(
        "fig7a", "Fig. 7(a) reachability - 4 chiplets (32 VLs)", baseline_4_chiplets()
    )


def fig7b() -> ExperimentResult:
    """6-chiplet system (48 directed VLs)."""
    return _reachability_experiment(
        "fig7b", "Fig. 7(b) reachability - 6 chiplets (48 VLs)", baseline_6_chiplets()
    )


def run(scale: float | None = None, runner=None) -> list[ExperimentResult]:
    """Both reachability sub-figures (analytical; scale/runner unused)."""
    del scale, runner  # analytical: no simulated cycles to scale or batch
    return [fig7a(), fig7b()]
