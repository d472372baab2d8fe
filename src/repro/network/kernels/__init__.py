"""Cycle kernels: two interchangeable executions of one cycle semantics.

* ``reference`` — the object-based oracle, always available and always a
  batch of one (:mod:`~repro.network.kernels.reference`).
* ``vector`` — the job-batched numpy kernel
  (:mod:`~repro.network.kernels.vector`): it advances one or more
  simulations that share system, faults and config in lockstep, as one
  disjoint-union network; each member routes through its own
  algorithm's compiled table. Needs numpy and compiled routes.

:func:`select_kernel` resolves a request. ``"auto"`` honours the
``DEFT_KERNEL`` environment variable if set, otherwise picks ``vector``
exactly when numpy is importable and compiled routes are in play. An
explicit ``vector`` request compiles routes on the spot when the
algorithm allows it, and falls back to ``reference`` (with the reason
recorded on the simulator) when it does not. Precedence across the
stack: ``--kernel`` flag > ``Job.kernel`` > ``DEFT_KERNEL`` > auto.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from ...errors import ConfigurationError
from .base import CycleKernel
from .reference import ReferenceKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..simulator import Simulator

__all__ = [
    "CycleKernel",
    "ReferenceKernel",
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "build_kernel",
    "numpy_available",
    "select_kernel",
]

#: Environment variable consulted by ``auto`` selection.
KERNEL_ENV = "DEFT_KERNEL"

#: Accepted kernel requests, in documentation order.
KERNEL_NAMES = ("auto", "reference", "vector")


def numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy ships in the image
        return False
    return True


def select_kernel(sim: "Simulator", requested: str) -> tuple[str, str | None]:
    """Resolve ``requested`` for ``sim``: (kernel name, fallback reason).

    May compile (and assign) ``sim.routes`` when an explicit ``vector``
    request arrives without a route table.
    """
    if requested not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown kernel {requested!r}; expected one of {KERNEL_NAMES}"
        )
    name = requested
    if name == "auto":
        name = os.environ.get(KERNEL_ENV) or "auto"
        if name not in KERNEL_NAMES:
            raise ConfigurationError(f"{KERNEL_ENV}={name!r} is not one of {KERNEL_NAMES}")
    if name == "auto":
        auto = "vector" if numpy_available() and sim.routes is not None else "reference"
        return auto, None
    if name == "reference":
        return name, None
    if not numpy_available():
        raise ConfigurationError("kernel 'vector' requires numpy, which is not importable")
    if sim.routes is None:
        if not sim.algorithm.compilable:
            return "reference", (
                f"vector kernel needs a compiled route table and algorithm "
                f"{sim.algorithm.name!r} is not compilable"
            )
        from ...routing.compiled import compile_routes

        sim.routes = compile_routes(sim.algorithm)
    return name, None


def build_kernel(name: str, sims: Sequence["Simulator"]) -> CycleKernel:
    """Instantiate kernel ``name`` (as resolved by :func:`select_kernel`)
    over a batch of simulators."""
    if name == "reference":
        return ReferenceKernel(sims)
    from .vector import VectorKernel

    return VectorKernel(sims)
