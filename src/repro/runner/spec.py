"""Declarative simulation-point specifications.

A :class:`Job` is a *canonical, hashable description* of one simulation:
which system, which routing algorithm, which traffic (name + parameters),
which fault scenario, and which :class:`~repro.config.SimulationConfig`.
Nothing in a job references live objects — systems are named by
:class:`SystemRef`, traffic by :class:`TrafficSpec` — so jobs can be
serialized to JSON, shipped to worker processes, and content-addressed
for the on-disk result cache.

Two jobs with the same canonical form are the same simulation: the
executor (:mod:`repro.runner.execute`) is a pure function of the job, so
``job.key()`` (a SHA-256 of the canonical JSON) is a safe cache key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..config import SimulationConfig
from ..errors import ConfigurationError
from ..network.kernels import KERNEL_NAMES
from .result import fault_pair

if TYPE_CHECKING:  # pragma: no cover
    from ..fault.model import FaultState
    from ..topology.builder import System

#: Bumped whenever the canonical job form or the executor's semantics
#: change incompatibly; part of every cache key so stale on-disk results
#: from older schema versions are never returned.
SPEC_VERSION = 1

#: How a job obtains its fault scenario: ``explicit`` uses the literal
#: :attr:`Job.faults` tuple; ``sample`` draws a seeded random pattern of
#: :attr:`Job.fault_k` directed-VL faults (Monte Carlo campaigns).
FAULTS_MODES = ("explicit", "sample")

#: What the executor computes: ``simulate`` runs the cycle-accurate
#: simulator; ``reachability`` analytically scores the fault scenario via
#: :func:`repro.analysis.reachability.reachability_of_state` (no traffic).
JOB_KINDS = ("simulate", "reachability")

_SCALARS = (str, int, float, bool, type(None))


def _canonical_params(params: Mapping[str, Any] | Iterable[tuple[str, Any]],
                      what: str) -> tuple[tuple[str, Any], ...]:
    """Sort parameters by key and reject non-JSON-scalar values."""
    items = dict(params).items()
    for key, value in items:
        if not isinstance(value, _SCALARS):
            raise ConfigurationError(
                f"{what} parameter {key!r} must be a JSON scalar, got {type(value).__name__}"
            )
    return tuple(sorted(items))


@dataclass(frozen=True)
class SystemRef:
    """A buildable reference to a :class:`~repro.topology.builder.System`.

    Either a named preset (``baseline-4-chiplets``, ``baseline-6-chiplets``,
    ``single-chiplet``) or a regular chiplet grid given as
    ``(cols, rows, chiplet_width, chiplet_height)``.
    """

    preset: str | None = None
    grid: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.grid is None):
            raise ConfigurationError("SystemRef needs exactly one of preset/grid")

    # -- constructors ---------------------------------------------------

    @classmethod
    def baseline4(cls) -> "SystemRef":
        return cls(preset="baseline-4-chiplets")

    @classmethod
    def baseline6(cls) -> "SystemRef":
        return cls(preset="baseline-6-chiplets")

    @classmethod
    def from_grid(cls, cols: int, rows: int, width: int = 4, height: int = 4) -> "SystemRef":
        return cls(grid=(cols, rows, width, height))

    @classmethod
    def from_cli(cls, text: str) -> "SystemRef":
        """Parse the CLI's ``--system`` syntax: '4', '6', or 'COLSxROWS'."""
        if text == "4":
            return cls.baseline4()
        if text == "6":
            return cls.baseline6()
        cols, rows = (int(part) for part in text.split("x"))
        return cls.from_grid(cols, rows)

    # -- materialization ------------------------------------------------

    def build(self) -> "System":
        from ..topology import presets

        if self.preset is not None:
            factories = {
                "baseline-4-chiplets": presets.baseline_4_chiplets,
                "baseline-6-chiplets": presets.baseline_6_chiplets,
                "single-chiplet": presets.single_chiplet,
            }
            try:
                return factories[self.preset]()
            except KeyError:
                raise ConfigurationError(
                    f"unknown system preset {self.preset!r}; "
                    f"available: {sorted(factories)}"
                ) from None
        cols, rows, width, height = self.grid  # type: ignore[misc]
        return presets.chiplet_grid(cols, rows, width, height)

    @property
    def label(self) -> str:
        if self.preset is not None:
            return self.preset
        cols, rows, width, height = self.grid  # type: ignore[misc]
        return f"{cols}x{rows}-grid-{width}x{height}"

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        if self.preset is not None:
            return {"preset": self.preset}
        return {"grid": list(self.grid)}  # type: ignore[arg-type]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SystemRef":
        if "preset" in data:
            return cls(preset=data["preset"])
        return cls(grid=tuple(data["grid"]))


@dataclass(frozen=True)
class TrafficSpec:
    """A traffic generator by registry name + canonical parameters.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so
    two specs built with differently-ordered keyword arguments hash
    identically.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, **params: Any) -> "TrafficSpec":
        return cls(name=name, params=_canonical_params(params, "traffic"))

    def build(self, system: "System", seed: int):
        from ..traffic.registry import make_traffic

        return make_traffic(self.name, system, seed=seed, **dict(self.params))

    @property
    def label(self) -> str:
        rate = dict(self.params).get("rate")
        return f"{self.name}@{rate}" if rate is not None else self.name

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficSpec":
        return cls.make(data["name"], **data.get("params", {}))


def faults_to_spec(state: "FaultState") -> tuple[tuple[int, str], ...]:
    """Canonical fault tuple for a :class:`~repro.fault.model.FaultState`."""
    return tuple(
        sorted(
            fault_pair(fault.vl_index, fault.direction.name.lower())
            for fault in state.faults
        )
    )


@dataclass(frozen=True)
class Job:
    """One simulation point, fully described by value.

    Attributes:
        system: the topology to build.
        algorithm: routing-algorithm registry name (e.g. ``deft``, ``mtr``).
        traffic: traffic spec (registry name + parameters).
        config: simulation configuration; its ``seed`` field is ignored in
            favour of :attr:`seed` so sweeps over seeds share one config.
        faults: sorted ``(vl_index, "down"|"up")`` pairs of faulty directed
            VL channels.
        seed: the job's master seed, applied to both the traffic generator
            and the simulation config. Making the seed part of the spec is
            what gives parallel backends deterministic per-job seeding
            regardless of scheduling order.
        algorithm_params: extra canonical algorithm parameters (currently
            ``rho`` for DeFT's offline table construction).
        faults_mode: ``explicit`` (default) or ``sample``. In sample mode
            the executor draws a random admissible ``fault_k``-fault
            pattern from a deterministic RNG seeded by
            ``(seed, fault_k, fault_sample)``, so each sample index is a
            distinct, reproducible, cacheable simulation point.
        fault_k: number of sampled faulty directed channels (sample mode).
        fault_sample: the sample index within a Monte Carlo campaign
            (sample mode). Part of the canonical form — and therefore the
            cache key — so re-running a campaign with the same seed and
            sample count is served from cache.
        kind: ``simulate`` (default) or ``reachability`` — the latter
            skips the simulator and analytically scores the fault
            scenario's reachable core-pair fraction.
        kernel: cycle-kernel request forwarded to the simulator
            (``auto``, ``reference`` or ``vector``). Deliberately *not*
            part of the canonical form: kernels are bit-identical by
            contract, so the same point computed under either kernel
            must share one cache entry.
    """

    system: SystemRef
    algorithm: str
    traffic: TrafficSpec
    config: SimulationConfig = field(default_factory=SimulationConfig)
    faults: tuple[tuple[int, str], ...] = ()
    seed: int = 1
    algorithm_params: tuple[tuple[str, Any], ...] = ()
    faults_mode: str = "explicit"
    fault_k: int = 0
    fault_sample: int = 0
    kind: str = "simulate"
    kernel: str = "auto"

    def __post_init__(self) -> None:
        for vl_index, direction in self.faults:
            if direction not in ("down", "up"):
                raise ConfigurationError(
                    f"fault direction must be 'down' or 'up', got {direction!r}"
                )
            if vl_index < 0:
                raise ConfigurationError(f"fault VL index must be >= 0, got {vl_index}")
        if self.faults_mode not in FAULTS_MODES:
            raise ConfigurationError(
                f"faults_mode must be one of {FAULTS_MODES}, got {self.faults_mode!r}"
            )
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"job kind must be one of {JOB_KINDS}, got {self.kind!r}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ConfigurationError(
                f"job kernel must be one of {KERNEL_NAMES}, got {self.kernel!r}"
            )
        if self.faults_mode == "sample":
            if self.faults:
                raise ConfigurationError(
                    "sampled-fault jobs must not also carry explicit faults"
                )
            if self.fault_k < 1:
                raise ConfigurationError(
                    f"sample mode needs fault_k >= 1, got {self.fault_k}"
                )
            if self.fault_sample < 0:
                raise ConfigurationError(
                    f"fault_sample must be >= 0, got {self.fault_sample}"
                )
        elif self.fault_k or self.fault_sample:
            raise ConfigurationError(
                "fault_k/fault_sample only apply to faults_mode='sample'"
            )
        object.__setattr__(self, "faults", tuple(sorted(self.faults)))
        object.__setattr__(
            self,
            "algorithm_params",
            _canonical_params(self.algorithm_params, "algorithm"),
        )

    @classmethod
    def make(
        cls,
        system: SystemRef,
        algorithm: str,
        traffic: TrafficSpec,
        config: SimulationConfig,
        *,
        faults: Iterable[tuple[int, str]] = (),
        seed: int = 1,
        algorithm_params: Mapping[str, Any] | None = None,
        faults_mode: str = "explicit",
        fault_k: int = 0,
        fault_sample: int = 0,
        kind: str = "simulate",
        kernel: str = "auto",
    ) -> "Job":
        return cls(
            system=system,
            algorithm=algorithm,
            traffic=traffic,
            config=config,
            faults=tuple(faults),
            seed=seed,
            algorithm_params=tuple((algorithm_params or {}).items()),
            faults_mode=faults_mode,
            fault_k=fault_k,
            fault_sample=fault_sample,
            kind=kind,
            kernel=kernel,
        )

    # -- canonical form & content address -------------------------------

    def canonical(self) -> dict[str, Any]:
        """The canonical JSON-compatible description hashed for caching.

        The config is normalized with the job seed applied, so a job is
        identified by exactly what the executor will simulate.

        Sample-mode and non-simulate fields are only present when they
        deviate from the defaults, so every pre-existing explicit
        ``simulate`` job keeps its original key and stays cache-valid.

        :attr:`kernel` is deliberately excluded: kernel selection is an
        execution detail that never changes results (kernels are
        bit-identical by contract), so the same point simulated under
        either kernel shares one cache entry. Transports that need to
        ship the preference (the spool queue) add a ``kernel`` key to
        this dict themselves; :meth:`from_canonical` reads it back.
        """
        data: dict[str, Any] = {
            "version": SPEC_VERSION,
            "system": self.system.to_dict(),
            "algorithm": self.algorithm,
            "algorithm_params": {k: v for k, v in self.algorithm_params},
            "traffic": self.traffic.to_dict(),
            "faults": [list(fault) for fault in self.faults],
            "config": {**self.config.to_dict(), "seed": self.seed},
            "seed": self.seed,
        }
        if self.faults_mode != "explicit":
            data["faults_mode"] = self.faults_mode
            data["fault_k"] = self.fault_k
            data["fault_sample"] = self.fault_sample
        if self.kind != "simulate":
            data["kind"] = self.kind
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """Content address: SHA-256 of the canonical JSON.

        Memoized — the runner, cache and executor each ask for the key,
        and the job is immutable.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    @property
    def label(self) -> str:
        """Short human-readable description for progress lines."""
        parts = [self.algorithm]
        if self.kind != "simulate":
            parts.append(self.kind)
        else:
            parts.append(self.traffic.label)
        parts.append(f"seed={self.seed}")
        if self.faults_mode == "sample":
            parts.append(f"k={self.fault_k}#{self.fault_sample}")
        elif self.faults:
            parts.append(f"{len(self.faults)}-faults")
        return " ".join(parts)

    @classmethod
    def from_canonical(cls, data: Mapping[str, Any]) -> "Job":
        """Rebuild a job from :meth:`canonical` output."""
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"job spec version {version} not supported (current {SPEC_VERSION})"
            )
        if "fault_stratum" in data:
            # Dropping it would alias a stratified sample to the uniform
            # sample with the same index, and so to that sample's key.
            raise ConfigurationError(
                "fault_stratum is no longer supported: stratified Monte Carlo "
                "sampling was removed; resubmit as a uniform sample job"
            )
        return cls.make(
            system=SystemRef.from_dict(data["system"]),
            algorithm=data["algorithm"],
            traffic=TrafficSpec.from_dict(data["traffic"]),
            config=SimulationConfig.from_dict(data["config"]),
            faults=tuple((int(i), str(d)) for i, d in data.get("faults", ())),
            seed=int(data["seed"]),
            algorithm_params=data.get("algorithm_params") or {},
            faults_mode=str(data.get("faults_mode", "explicit")),
            fault_k=int(data.get("fault_k", 0)),
            fault_sample=int(data.get("fault_sample", 0)),
            kind=str(data.get("kind", "simulate")),
            kernel=str(data.get("kernel", "auto")),
        )


@dataclass(frozen=True)
class Campaign:
    """A named batch of jobs submitted to the runner together."""

    name: str
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def __len__(self) -> int:
        return len(self.jobs)
