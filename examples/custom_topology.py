#!/usr/bin/env python
"""Custom 2.5D topologies: beyond the paper's presets.

DeFT "can be employed in any chiplet system" (Section II-A). This example
builds a heterogeneous 3x1 system with wide 6x4 chiplets, a custom VL
placement, and DRAMs along the top edge; runs the offline VL-selection
optimization; verifies deadlock freedom with the CDG analysis; and
simulates transpose traffic.

Run:  python examples/custom_topology.py
"""

from repro import DeftRouting, SimulationConfig, Simulator, build_system
from repro.analysis.cdg import build_cdg
from repro.analysis.reachability import reachability_curve
from repro.topology.spec import ChipletSpec, SystemSpec
from repro.traffic.synthetic import TransposeTraffic


def main() -> None:
    # Three 6x4 chiplets side by side; 4 VLs each, placed asymmetrically
    # (two on the north edge, two in the south corners).
    vls = ((2, 0), (3, 0), (0, 3), (5, 3))
    chiplets = tuple(
        ChipletSpec(origin=(col * 6, 0), width=6, height=4, vl_positions=vls)
        for col in range(3)
    )
    spec = SystemSpec(
        chiplets=chiplets,
        interposer_width=18,
        interposer_height=4,
        dram_positions=((0, 0), (8, 0), (17, 0)),
        name="custom-3x-wide",
    )
    system = build_system(spec)
    print(system.spec.describe())

    # Offline optimization happens inside DeftRouting's constructor: the
    # composition optimizer handles the 24-router x up-to-4-VL instances.
    algorithm = DeftRouting(system)
    table = algorithm.tables[1]
    print(f"selection table entries per chiplet: {table.num_entries} "
          "(C(4,1)+C(4,2)+C(4,3) faulty scenarios + fault-free)")

    # Deadlock freedom is a property of the rules, not the floorplan.
    report = build_cdg(system, algorithm)
    print(f"CDG acyclic on the custom floorplan: {report.is_acyclic}")

    # Reachability under faults, exact.
    curve = reachability_curve(system, algorithm, (2, 6))
    for k, avg, worst in zip(curve.fault_counts, curve.average, curve.worst):
        print(f"reachability with {k} faulty VLs: avg {avg * 100:.1f}%, "
              f"worst {worst * 100:.1f}%")

    traffic = TransposeTraffic(system, rate=0.005, seed=2)
    config = SimulationConfig(warmup_cycles=400, measure_cycles=2_000)
    result = Simulator(system, algorithm, traffic, config).run()
    print()
    print(result.summary())


if __name__ == "__main__":
    main()
