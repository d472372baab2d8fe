"""Fault state over directed vertical-link channels.

The paper injects faults on unidirectional VL channels ("1-8 faulty VLs"
out of 32 directed channels in the 4-chiplet system) and excludes patterns
that disconnect a chiplet completely — i.e. patterns where *all* down
channels or *all* up channels of one chiplet are faulty.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import FaultModelError
from ..topology.builder import System


class VLDirection(enum.IntEnum):
    """Traversal direction of a directed VL channel."""

    DOWN = 0  # chiplet -> interposer
    UP = 1    # interposer -> chiplet


@dataclass(frozen=True, order=True)
class DirectedVL:
    """One directed VL channel: (bidirectional VL index, direction)."""

    vl_index: int
    direction: VLDirection

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DirectedVL({self.vl_index}, {self.direction.name})"


class FaultState:
    """An immutable set of faulty directed VL channels for one system.

    Provides the queries every routing algorithm needs:

    * :meth:`down_ok` / :meth:`up_ok` — is a VL usable in a direction?
    * :meth:`alive_down_vls` / :meth:`alive_up_vls` — usable VLs per chiplet.
    * :meth:`chiplet_down_pattern` / :meth:`chiplet_up_pattern` — the
      frozen per-chiplet local fault pattern, which indexes DeFT's
      pre-optimized selection tables.
    * :meth:`disconnects_any_chiplet` — the exclusion rule of Fig. 7.
    """

    def __init__(self, system: System, faulty: Iterable[DirectedVL] = ()):
        self._system = system
        faults = frozenset(faulty)
        num_vls = len(system.vls)
        for fault in faults:
            if not (0 <= fault.vl_index < num_vls):
                raise FaultModelError(
                    f"fault on unknown VL {fault.vl_index} (system has {num_vls})"
                )
        self._faults = faults
        # Per-chiplet caches of alive VL local indices.
        self._alive_down: dict[int, tuple[int, ...]] = {}
        self._alive_up: dict[int, tuple[int, ...]] = {}
        for chiplet in range(system.spec.num_chiplets):
            links = system.vls_of_chiplet(chiplet)
            self._alive_down[chiplet] = tuple(
                link.local_index for link in links if self.down_ok(link.index)
            )
            self._alive_up[chiplet] = tuple(
                link.local_index for link in links if self.up_ok(link.index)
            )

    # -- basic queries --------------------------------------------------

    @property
    def system(self) -> System:
        return self._system

    @property
    def faults(self) -> frozenset[DirectedVL]:
        return self._faults

    @property
    def num_faults(self) -> int:
        return len(self._faults)

    def is_faulty(self, vl_index: int, direction: VLDirection) -> bool:
        return DirectedVL(vl_index, direction) in self._faults

    def down_ok(self, vl_index: int) -> bool:
        """Whether the chiplet -> interposer channel of a VL is usable."""
        return not self.is_faulty(vl_index, VLDirection.DOWN)

    def up_ok(self, vl_index: int) -> bool:
        """Whether the interposer -> chiplet channel of a VL is usable."""
        return not self.is_faulty(vl_index, VLDirection.UP)

    # -- per-chiplet views ----------------------------------------------

    def alive_down_vls(self, chiplet: int) -> tuple[int, ...]:
        """Local indices of the chiplet's VLs with a working down channel."""
        return self._alive_down[chiplet]

    def alive_up_vls(self, chiplet: int) -> tuple[int, ...]:
        """Local indices of the chiplet's VLs with a working up channel."""
        return self._alive_up[chiplet]

    def chiplet_down_pattern(self, chiplet: int) -> frozenset[int]:
        """Local indices of *faulty* down channels (DeFT's LUT key)."""
        links = self._system.vls_of_chiplet(chiplet)
        return frozenset(
            link.local_index for link in links if not self.down_ok(link.index)
        )

    def chiplet_up_pattern(self, chiplet: int) -> frozenset[int]:
        """Local indices of *faulty* up channels (DeFT's LUT key)."""
        links = self._system.vls_of_chiplet(chiplet)
        return frozenset(
            link.local_index for link in links if not self.up_ok(link.index)
        )

    def disconnects_any_chiplet(self) -> bool:
        """True when some chiplet lost all down or all up channels.

        These patterns are excluded from the paper's reachability study
        ("excluding those that disconnected chiplets completely").
        """
        for chiplet in range(self._system.spec.num_chiplets):
            if not self._alive_down[chiplet] or not self._alive_up[chiplet]:
                return True
        return False

    # -- derivation ------------------------------------------------------

    def with_faults(self, extra: Iterable[DirectedVL]) -> "FaultState":
        """A new state with additional faults."""
        return FaultState(self._system, self._faults | frozenset(extra))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultState) and self._faults == other._faults

    def __hash__(self) -> int:
        return hash(self._faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultState({sorted(self._faults)})"


def fault_free(system: System) -> FaultState:
    """The empty fault state."""
    return FaultState(system)


#: Canonical job-spec direction tokens (see ``repro.runner.spec``).
_SPEC_DIRECTIONS = {"down": VLDirection.DOWN, "up": VLDirection.UP}


def faults_from_spec(
    system: System, faults: Iterable[tuple[int, str]]
) -> FaultState:
    """Build a fault state from canonical ``(vl_index, "down"|"up")`` pairs.

    The inverse of :func:`repro.runner.spec.faults_to_spec` and the single
    home of the spec -> :class:`FaultState` translation, shared by the
    sessionless executor and the session memo so the two paths can never
    diverge.
    """
    return FaultState(
        system,
        [
            DirectedVL(index, _SPEC_DIRECTIONS[direction])
            for index, direction in faults
        ],
    )


def all_fault_patterns(
    system: System,
    num_faults: int,
    exclude_disconnecting: bool = True,
) -> Iterator[FaultState]:
    """Enumerate every ``num_faults``-sized fault pattern of the system.

    Warning: combinatorial — C(32, k) patterns for the 4-chiplet baseline.
    Use :mod:`repro.analysis.reachability` for exact aggregate statistics
    without enumeration; this iterator exists for validation on small k.
    """
    channels = [
        DirectedVL(link.index, direction)
        for link in system.vls
        for direction in (VLDirection.DOWN, VLDirection.UP)
    ]
    for combo in itertools.combinations(channels, num_faults):
        state = FaultState(system, combo)
        if exclude_disconnecting and state.disconnects_any_chiplet():
            continue
        yield state


def chiplet_fault_pattern(
    system: System,
    chiplet: int,
    down_faulty: Iterable[int] = (),
    up_faulty: Iterable[int] = (),
) -> FaultState:
    """Build a fault state from per-chiplet *local* VL indices.

    Convenience for tests and examples: ``down_faulty``/``up_faulty`` are
    local indices (0..V-1) of the chiplet's VLs.
    """
    links = system.vls_of_chiplet(chiplet)
    by_local = {link.local_index: link for link in links}
    faults: list[DirectedVL] = []
    for local in down_faulty:
        if local not in by_local:
            raise FaultModelError(f"chiplet {chiplet} has no VL with local index {local}")
        faults.append(DirectedVL(by_local[local].index, VLDirection.DOWN))
    for local in up_faulty:
        if local not in by_local:
            raise FaultModelError(f"chiplet {chiplet} has no VL with local index {local}")
        faults.append(DirectedVL(by_local[local].index, VLDirection.UP))
    return FaultState(system, faults)


def random_fault_state(
    system: System,
    num_faults: int,
    rng: random.Random,
    exclude_disconnecting: bool = True,
    max_tries: int = 10_000,
) -> FaultState:
    """Sample a uniform random fault pattern with ``num_faults`` channels.

    Uses rejection sampling to honour the chiplet-disconnection exclusion;
    raises :class:`FaultModelError` when no admissible pattern exists (for
    example ``num_faults`` larger than the number of channels).
    """
    channels = [
        DirectedVL(link.index, direction)
        for link in system.vls
        for direction in (VLDirection.DOWN, VLDirection.UP)
    ]
    if num_faults > len(channels):
        raise FaultModelError(
            f"cannot place {num_faults} faults on {len(channels)} directed channels"
        )
    for _ in range(max_tries):
        state = FaultState(system, rng.sample(channels, num_faults))
        if not exclude_disconnecting or not state.disconnects_any_chiplet():
            return state
    raise FaultModelError(
        f"no admissible pattern with {num_faults} faults found in {max_tries} tries"
    )
