"""Fig. 7 (Monte Carlo) — sampled reachability, validated and extended.

Two sub-experiments built on :mod:`repro.montecarlo`:

* :func:`fig7mc_validation` — cross-validation on the 4-chiplet baseline
  at small k, where the exact decomposition of
  :mod:`repro.analysis.reachability` is cheap: for every algorithm and
  every k the exact Fig. 7 average must fall inside the sampled mean's
  confidence interval. This is the statistical contract that licenses
  the Monte Carlo numbers wherever exact enumeration is infeasible.
* :func:`fig7mc_scale` — the sampler at a larger scale: fault counts
  beyond Fig. 7's k = 8 on a COLSxROWS chiplet grid (3x2 of 4x4
  chiplets, 56 directed VL channels). The exact path covers this grid
  too: :func:`~repro.analysis.reachability.reachability_curve` gives
  k = 2..12 in well under a second per algorithm, so these sampled
  numbers have exact values to be checked against.

Both emit their samples as one campaign through the runner, so
``deft experiment fig7mc --workers N --cache-dir DIR`` parallelizes and
caches them like any simulation grid.
"""

from __future__ import annotations

from ..analysis.reachability import reachability_curve
from ..montecarlo import run_montecarlo
from ..routing.registry import make_algorithm
from ..runner import SystemRef
from ..topology.presets import baseline_4_chiplets
from .charts import ascii_chart
from .common import ExperimentResult, effective_scale

ALGORITHMS = ("deft", "mtr", "rc")

#: Cross-validation grid: small k on the 4-chiplet baseline, where the
#: exact decomposition is the ground truth.
VALIDATION_FAULT_COUNTS = (1, 2, 3)

#: Extension grid: beyond Fig. 7's k = 8, on a 3x2 grid of 4x4 chiplets.
SCALE_FAULT_COUNTS = (2, 4, 8, 12)
SCALE_GRID = (3, 2)

#: The validation cross-check uses a wide (99%) interval: with a fixed
#: seed the experiment is deterministic, but the margin documents that
#: the contract is statistical, not exact.
VALIDATION_CONFIDENCE = 0.99

MC_SEED = 0


def _sample_count(scale: float | None, base: int, floor: int = 20) -> int:
    """Scale the sample budget like other experiments scale cycles.

    ``floor`` keeps statistically meaningful minimums: the validation
    cross-check needs enough draws that rare degraded patterns (e.g. MTR
    at k=2, where ~99.7% of patterns are fully reachable) actually appear
    — with too few samples the estimator degenerates to a zero-width
    interval at 1.0 and the comparison against the exact mean is vacuous.
    """
    return max(floor, int(base * effective_scale(scale)))


def fig7mc_validation(scale: float | None = None, runner=None) -> ExperimentResult:
    """Sampled vs exact reachability on the 4-chiplet baseline."""
    result = ExperimentResult(
        experiment_id="fig7mc-a",
        title="Fig. 7 MC (a) sampled vs exact - 4 chiplets (32 VLs)",
    )
    samples = _sample_count(scale, 150, floor=100)
    report = run_montecarlo(
        SystemRef.baseline4(), ALGORITHMS, VALIDATION_FAULT_COUNTS, samples,
        seed=MC_SEED, metric="reachability", runner=runner,
        confidence=VALIDATION_CONFIDENCE,
    )
    system = baseline_4_chiplets()
    exact = {
        name: reachability_curve(
            system, make_algorithm(name, system), VALIDATION_FAULT_COUNTS
        )
        for name in ALGORITHMS
    }
    result.rows.append(
        f"{samples} samples per point, seed {MC_SEED}, "
        f"{int(VALIDATION_CONFIDENCE * 100)}% confidence intervals"
    )
    for point in report.results:
        exact_avg = exact[point.algorithm].average[
            VALIDATION_FAULT_COUNTS.index(point.k)
        ]
        result.rows.append(point.row() + f"  exact={exact_avg:8.4f}")
    result.data = {
        "samples": samples,
        "sampled": {
            f"{p.algorithm}:k={p.k}": {
                "mean": p.primary.mean if p.primary else None,
                "ci": [p.primary.interval.low, p.primary.interval.high]
                if p.primary else None,
                "worst": p.primary.worst if p.primary else None,
            }
            for p in report.results
        },
        "exact": {
            name: {"average": curve.average, "worst": curve.worst}
            for name, curve in exact.items()
        },
    }
    for point in report.results:
        exact_avg = exact[point.algorithm].average[
            VALIDATION_FAULT_COUNTS.index(point.k)
        ]
        agrees = point.primary is not None and (
            point.primary.interval.contains(exact_avg)
            # A zero-variance estimator (every sample identical) has a
            # degenerate CI; agreement then means exact equality.
            or abs(point.primary.mean - exact_avg) < 1e-12
        )
        result.check(
            f"{point.algorithm} k={point.k}: exact average inside the sampled CI",
            agrees,
        )
    result.check(
        "every sample completed (admissible patterns exist at small k)",
        all(p.failed == 0 for p in report.results),
    )
    return result


def fig7mc_scale(scale: float | None = None, runner=None) -> ExperimentResult:
    """Sampled reachability beyond k = 8 on a 3x2 chiplet grid."""
    cols, rows = SCALE_GRID
    result = ExperimentResult(
        experiment_id="fig7mc-b",
        title=f"Fig. 7 MC (b) large-k reachability - {cols}x{rows} grid",
    )
    samples = _sample_count(scale, 60)
    report = run_montecarlo(
        SystemRef.from_grid(cols, rows), ALGORITHMS, SCALE_FAULT_COUNTS, samples,
        seed=MC_SEED, metric="reachability", runner=runner,
    )
    result.rows.append(f"{samples} samples per point, seed {MC_SEED}")
    for point in report.results:
        result.rows.append(point.row())
    chart_series = {
        name: [
            (p.k, p.primary.mean * 100)
            for p in report.results
            if p.algorithm == name and p.primary is not None
        ]
        for name in ALGORITHMS
    }
    result.rows.append("")
    result.rows.append(
        ascii_chart(
            chart_series,
            title=f"sampled average reachability (%), {cols}x{rows} grid",
            x_label="number of faulty VLs",
        )
    )
    result.data = {
        "samples": samples,
        "fault_counts": list(SCALE_FAULT_COUNTS),
        "sampled": {
            f"{p.algorithm}:k={p.k}": {
                "mean": p.primary.mean if p.primary else None,
                "worst": p.primary.worst if p.primary else None,
                "failed": p.failed,
            }
            for p in report.results
        },
    }
    by_algo = {
        name: [p for p in report.results if p.algorithm == name]
        for name in ALGORITHMS
    }
    result.check(
        "DeFT keeps 100% sampled reachability through k=12",
        all(
            p.primary is not None and p.primary.mean == 1.0 and p.primary.worst == 1.0
            for p in by_algo["deft"]
        ),
    )
    result.check(
        "sampled averages ordered deft >= mtr >= rc at every k",
        all(
            d.primary is not None and m.primary is not None
            and r.primary is not None
            and d.primary.mean >= m.primary.mean >= r.primary.mean
            for d, m, r in zip(by_algo["deft"], by_algo["mtr"], by_algo["rc"])
        ),
    )
    result.check(
        "worst observed never exceeds the sampled mean",
        all(
            p.primary.worst <= p.primary.mean + 1e-12
            for p in report.results
            if p.primary is not None
        ),
    )
    return result


def run(scale: float | None = None, runner=None) -> list[ExperimentResult]:
    """Both Monte Carlo reachability sub-figures."""
    return [fig7mc_validation(scale, runner), fig7mc_scale(scale, runner)]
