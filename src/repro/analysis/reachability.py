"""Exact reachability analysis under VL faults (Fig. 7).

The paper defines reachability as "the ratio of packets that can be
successfully routed, to the total number of injected packets" and reports
the average and worst case over *all combinations* of k faulty directed
VL channels, excluding patterns that disconnect a chiplet. Enumerating
C(32, 8) = 10.5M patterns per point is wasteful; this module computes the
same quantities *exactly* by decomposition:

1. For each of the three algorithms, routability of a core pair (s, d)
   with s on chiplet A and d on chiplet B factorizes as
   ``send_ok(s | down-faults of A) AND deliver_ok(d | up-faults of B)``
   (verified by the test-suite against the algorithms' own
   ``is_routable``). Intra-chiplet pairs are always routable.
2. Per chiplet, enumerate every local fault pattern (2^V - 1 admissible
   down patterns x 2^V - 1 up patterns) and record ``S(p)`` = number of
   senders alive and ``D(q)`` = number of deliverable destinations.
   These profiles do not depend on k, so a curve builds them once.
3. The number of reachable cross pairs for a global pattern is
   ``(sum_A S_A)(sum_B D_B) - sum_A S_A * D_A``. One convolution/DP pass
   serves every k: a chiplet-by-chiplet convolution up to the largest k
   tracks the moment sums (count, sum S, sum D, sum S*sum D, sum S*D)
   per fault count, which give the averages; a DP over (faults, sum S,
   sum D) keeping the minimal sum of per-chiplet S*D products gives the
   worst cases.

Both are exact; :func:`brute_force_reachability` and
:func:`monte_carlo_reachability` exist to validate them on small k.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from ..errors import FaultModelError
from ..fault.model import FaultState, VLDirection, all_fault_patterns
from ..routing.base import RoutingAlgorithm
from ..routing.compiled import CompiledRoutes, count_routable
from ..topology.builder import System


@dataclass(frozen=True)
class _ChipletState:
    """One admissible per-chiplet local fault assignment."""

    faults: int      # |down pattern| + |up pattern|
    senders: int     # S(p): routers that can still send inter-chiplet
    receivers: int   # D(q): routers that can still be delivered to
    count: int = 1   # how many (p, q) pattern pairs share this signature


class _ChipletProfile:
    """Per-chiplet enumeration of fault patterns -> (S, D) signatures."""

    def __init__(self, algorithm: RoutingAlgorithm, chiplet: int):
        num_vls = len(algorithm.system.vls_of_chiplet(chiplet))
        # Every admissible local pattern: any subset but the full set.
        patterns = [
            frozenset(combo)
            for size in range(num_vls)
            for combo in itertools.combinations(range(num_vls), size)
        ]
        # S(p) for every down pattern p, D(q) for every up pattern q.
        self.senders = {
            p: count_routable(algorithm, chiplet, p, VLDirection.DOWN) for p in patterns
        }
        self.receivers = {
            q: count_routable(algorithm, chiplet, q, VLDirection.UP) for q in patterns
        }

    def states(self) -> list[_ChipletState]:
        """All (down, up) pattern combinations, collapsed by signature.

        Sorted by fault count first, which the convolution and DP use to
        stop early.
        """
        collapsed: dict[tuple[int, int, int], int] = {}
        for p, s in self.senders.items():
            for q, d in self.receivers.items():
                key = (len(p) + len(q), s, d)
                collapsed[key] = collapsed.get(key, 0) + 1
        return [
            _ChipletState(faults=f, senders=s, receivers=d, count=c)
            for (f, s, d), c in sorted(collapsed.items())
        ]


def _pair_totals(system: System) -> tuple[int, int]:
    """(intra-chiplet ordered pairs, total ordered core pairs)."""
    sizes = [len(system.chiplet_routers(c)) for c in range(system.spec.num_chiplets)]
    total_cores = sum(sizes)
    intra = sum(n * (n - 1) for n in sizes)
    total = total_cores * (total_cores - 1)
    return intra, total


def _moments(states: list[list[_ChipletState]], max_f: int) -> list[list[float]]:
    """Moment sums per running fault count, for every count up to ``max_f``.

    Convolves per-chiplet states while tracking, for every fault count:
    the pattern count W, the sums of ``sum S`` (P), ``sum D`` (Q),
    ``(sum S)(sum D)`` (X) and ``sum S*D`` (Y). The expected number of
    reachable cross pairs at k faults is ``(X - Y) / W`` of row k. Row k
    receives the same additions in the same order whatever ``max_f``.
    """
    # moments[f] = [W, P, Q, X, Y]
    moments: list[list[float]] = [[0.0] * 5 for _ in range(max_f + 1)]
    moments[0][0] = 1.0
    for chiplet_states in states:
        nxt: list[list[float]] = [[0.0] * 5 for _ in range(max_f + 1)]
        for f in range(max_f + 1):
            W, P, Q, X, Y = moments[f]
            if W == 0 and P == 0 and Q == 0 and X == 0 and Y == 0:
                continue
            for state in chiplet_states:
                nf = f + state.faults
                if nf > max_f:
                    break
                c, s, d = state.count, state.senders, state.receivers
                row = nxt[nf]
                row[0] += c * W
                row[1] += c * (P + s * W)
                row[2] += c * (Q + d * W)
                row[3] += c * (X + s * Q + d * P + s * d * W)
                row[4] += c * (Y + s * d * W)
        moments = nxt
    return moments


def _worst_cross(states: list[list[_ChipletState]], max_f: int) -> dict[int, int]:
    """Minimal reachable cross pairs per admissible fault count <= ``max_f``.

    DP over chiplets with state (faults used, sum S, sum D) keeping the
    minimal achievable ``sum_A S_A * D_A``; the objective
    ``(sum S)(sum D) - min sum S*D`` is then minimized per fault count.
    Fault counts with no admissible pattern are absent.
    """
    # dp: {(f, sumS, sumD): min sum of S*D}
    dp: dict[tuple[int, int, int], int] = {(0, 0, 0): 0}
    for chiplet_states in states:
        nxt: dict[tuple[int, int, int], int] = {}
        for (f, ss, sd), y in dp.items():
            for state in chiplet_states:
                nf = f + state.faults
                if nf > max_f:
                    break
                key = (nf, ss + state.senders, sd + state.receivers)
                value = y + state.senders * state.receivers
                if key not in nxt or value < nxt[key]:
                    nxt[key] = value
        dp = nxt
    worst: dict[int, int] = {}
    for (f, ss, sd), y in dp.items():
        cross = ss * sd - y
        if f not in worst or cross < worst[f]:
            worst[f] = cross
    return worst


# ---------------------------------------------------------------------------
# exact curves
# ---------------------------------------------------------------------------

@dataclass
class ReachabilityCurve:
    """Average and worst-case reachability per fault count (one Fig. 7 line pair)."""

    algorithm: str
    fault_counts: tuple[int, ...]
    average: list[float] = field(default_factory=list)
    worst: list[float] = field(default_factory=list)


def reachability_curve(
    system: System,
    algorithm: RoutingAlgorithm,
    fault_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
) -> ReachabilityCurve:
    """Compute the Fig. 7 curve (average + worst) for one algorithm.

    Builds each chiplet's profile once, runs one moment convolution and
    one worst-case DP up to ``max(fault_counts)``, and reads every
    requested count off them in the caller's order (duplicates and any
    order allowed; ``()`` gives an empty curve). Each value is
    bit-identical to a single-count computation.

    Raises:
        FaultModelError: the system has fewer than two chiplets, or a
            requested count has no admissible fault pattern.
    """
    num_chiplets = system.spec.num_chiplets
    if num_chiplets < 2:
        raise FaultModelError("reachability analysis needs at least two chiplets")
    curve = ReachabilityCurve(algorithm=algorithm.name, fault_counts=tuple(fault_counts))
    if not curve.fault_counts:
        return curve
    states = [_ChipletProfile(algorithm, c).states() for c in range(num_chiplets)]
    max_f = max(0, *curve.fault_counts)
    moments = _moments(states, max_f)
    worst_cross = _worst_cross(states, max_f)
    intra, total = _pair_totals(system)
    for k in curve.fault_counts:
        if k not in worst_cross:
            raise FaultModelError(f"no admissible fault pattern with {k} faults")
        W, _, _, X, Y = moments[k]
        expected_cross = (X - Y) / W
        curve.average.append((intra + expected_cross) / total)
        curve.worst.append((intra + worst_cross[k]) / total)
    return curve


def average_reachability(
    system: System, algorithm: RoutingAlgorithm, num_faults: int
) -> float:
    """Exact mean reachability over all admissible ``num_faults`` patterns."""
    return reachability_curve(system, algorithm, (num_faults,)).average[0]


def worst_reachability(
    system: System, algorithm: RoutingAlgorithm, num_faults: int
) -> float:
    """Exact minimum reachability over all admissible patterns."""
    return reachability_curve(system, algorithm, (num_faults,)).worst[0]


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def reachability_of_state(
    system: System,
    algorithm: RoutingAlgorithm,
    state: FaultState,
    routes: CompiledRoutes | None = None,
) -> float:
    """Reachable fraction of ordered core pairs for one concrete pattern.

    With ``routes`` (a :class:`~repro.routing.compiled.CompiledRoutes`
    over the same algorithm), the fraction is read from the compiled
    per-(chiplet, local-pattern) sender/receiver tables instead of
    probing all ordered pairs — the same factorization the exact curves
    use, O(cores) instead of O(cores²), with rows shared across every
    pattern that repeats a local fault pattern (Monte Carlo campaigns).
    Both paths produce bit-identical fractions.
    """
    if routes is not None:
        if routes.algorithm is not algorithm:
            raise FaultModelError("compiled routes belong to a different algorithm")
        return routes.core_reachability(state)
    original = algorithm.fault_state
    algorithm.set_fault_state(state)
    try:
        cores = system.cores
        reachable = sum(
            1
            for s in cores
            for d in cores
            if s != d and algorithm.is_routable(s, d)
        )
    finally:
        algorithm.set_fault_state(original)
    total = len(cores) * (len(cores) - 1)
    return reachable / total


def brute_force_reachability(
    system: System, algorithm: RoutingAlgorithm, num_faults: int
) -> tuple[float, float]:
    """(average, worst) by full enumeration — exponential, for validation."""
    values = [
        reachability_of_state(system, algorithm, state)
        for state in all_fault_patterns(system, num_faults)
    ]
    if not values:
        raise FaultModelError(f"no admissible pattern with {num_faults} faults")
    return sum(values) / len(values), min(values)


def monte_carlo_reachability(
    system: System,
    algorithm: RoutingAlgorithm,
    num_faults: int,
    samples: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """(mean, min) over sampled patterns — for statistical validation."""
    rng = random.Random(seed)
    from ..fault.model import random_fault_state

    values = []
    for _ in range(samples):
        state = random_fault_state(system, num_faults, rng)
        values.append(reachability_of_state(system, algorithm, state))
    return sum(values) / len(values), min(values)
