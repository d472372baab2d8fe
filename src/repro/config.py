"""Simulation configuration objects.

:class:`SimulationConfig` collects the microarchitectural parameters of the
network (packet size, buffer depth, number of virtual channels, flit width)
plus the run-control knobs (warm-up, measurement window, drain limit).

The defaults are the paper's evaluation parameters (Section IV-A):

* packet size: 8 flits,
* input buffer depth: 4 flits per virtual channel,
* flit width: 32 bits,
* 2 virtual channels (one per virtual network for DeFT; the baselines use
  both VCs round-robin as the paper does "to have a fair comparison").
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigurationError


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a cycle-accurate simulation run.

    Attributes:
        packet_size: number of flits per packet (head + body + tail).
        buffer_depth: flits of storage per input virtual channel.
        num_vcs: virtual channels per physical port. DeFT requires >= 2
            (one per virtual network); extra VCs are shared round-robin
            inside each virtual network.
        flit_width_bits: payload width of one flit; only used by the
            area/power model and for bandwidth book-keeping.
        hop_latency: cycles a flit takes from winning switch allocation at
            one router to becoming visible in the next router's input
            buffer — the router pipeline (RC/VA/SA/ST) plus link
            traversal. The default of 4 matches the latency scale of the
            paper's Noxim configuration.
        credit_latency: cycles for a credit to travel back upstream after
            a flit vacates a buffer slot. Together with ``buffer_depth``
            this bounds per-VC link throughput at
            ``buffer_depth / (hop_latency + credit_latency)`` under
            congestion, which is the saturation mechanism of credit-based
            NoCs with shallow buffers.
        vl_serialization: vertical links accept one flit every this many
            cycles. ``1`` models full-width microbump stacks (the paper's
            baseline); larger factors model the serialized vertical
            interconnects of Section IV-A's cost-reduction option
            (Pasricha, DAC 2009 [18]).
        warmup_cycles: cycles simulated before statistics are recorded.
        measure_cycles: cycles during which injected packets are tagged as
            measured; latency statistics cover exactly these packets.
        drain_cycles: extra cycles after the measurement window that let
            tagged packets reach their destination. The simulator stops
            early once every measured packet has been delivered or dropped.
        seed: master seed for every stochastic component (traffic,
            round-robin tie-breaks are deterministic and unaffected).
        watchdog_cycles: a :class:`~repro.errors.DeadlockError` is raised if
            no flit moves for this many consecutive cycles while flits are
            in flight. ``0`` disables the watchdog.
    """

    packet_size: int = 8
    buffer_depth: int = 4
    num_vcs: int = 2
    flit_width_bits: int = 32
    hop_latency: int = 4
    credit_latency: int = 4
    vl_serialization: int = 1
    warmup_cycles: int = 1_000
    measure_cycles: int = 4_000
    drain_cycles: int = 20_000
    seed: int = 1
    watchdog_cycles: int = 10_000

    def __post_init__(self) -> None:
        if self.packet_size < 1:
            raise ConfigurationError(f"packet_size must be >= 1, got {self.packet_size}")
        if self.buffer_depth < 1:
            raise ConfigurationError(f"buffer_depth must be >= 1, got {self.buffer_depth}")
        if self.num_vcs < 1:
            raise ConfigurationError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.flit_width_bits < 1:
            raise ConfigurationError(f"flit_width_bits must be >= 1, got {self.flit_width_bits}")
        if self.hop_latency < 1:
            raise ConfigurationError(f"hop_latency must be >= 1, got {self.hop_latency}")
        if self.credit_latency < 1:
            raise ConfigurationError(
                f"credit_latency must be >= 1, got {self.credit_latency}"
            )
        if self.vl_serialization < 1:
            raise ConfigurationError(
                f"vl_serialization must be >= 1, got {self.vl_serialization}"
            )
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles", "watchdog_cycles"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")

    @property
    def total_cycles(self) -> int:
        """Upper bound on simulated cycles (warmup + measure + drain)."""
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles

    def replace(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary (JSON-compatible)."""
        # Every field is a scalar, so a shallow copy is a full one.
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimulationConfig":
        """Build a config from :meth:`to_dict` output; unknown keys rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown SimulationConfig fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SimulationConfig))


@dataclass(frozen=True)
class SweepConfig:
    """An injection-rate sweep specification used by the experiment harness.

    Attributes:
        rates: packet injection rates (packets/cycle/core) to simulate.
        sim: base simulation configuration shared by all points.
        repeats: independent seeds averaged per point.
    """

    rates: tuple[float, ...]
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    repeats: int = 1

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigurationError("sweep needs at least one injection rate")
        if any(r < 0 for r in self.rates):
            raise ConfigurationError("injection rates must be non-negative")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
