#!/usr/bin/env python3
"""Topology showdown: performance, area, and energy in one report.

Reproduces the paper's comparison story across all five shared-region
topologies: latency under benign (uniform random) and adversarial
(tornado) traffic at increasing load, next to each router's area and
3-hop energy from the analytical models.

Run:  python examples/topology_showdown.py
"""

from repro.analysis.experiments import fig3_area, fig4_latency, fig7_energy
from repro.topologies import TOPOLOGY_NAMES
from repro.util.tables import format_table

RATES = [0.02, 0.06, 0.10]


def latency_rows(rows, panel):
    """``[topology, latency at each rate]`` for one Figure 4 panel."""
    latency = {
        (row["topology"], row["rate"]): row["mean_latency"]
        for row in rows
        if row["panel"] == panel
    }
    return [[name] + [latency[name, rate] for rate in RATES]
            for name in TOPOLOGY_NAMES]


def main() -> None:
    sweep = fig4_latency.stage_rows(
        {"rates": RATES, "cycles": 4000, "warmup": 1000, "frame_cycles": 10_000},
        seed=11,
    )
    headers = ["topology"] + [f"lat@{rate:.0%}" for rate in RATES]
    print(format_table(headers, latency_rows(sweep, "uniform"),
                       title="Uniform random (cycles)", float_format=".1f"))
    print()
    print(format_table(headers, latency_rows(sweep, "tornado"),
                       title="Tornado (cycles)", float_format=".1f"))

    area = {row["topology"]: row["total_mm2"] for row in fig3_area.stage_rows()}
    energy = {
        (row["topology"], row["hop"]): row["total_pj"]
        for row in fig7_energy.stage_rows()
    }
    rows = [
        [
            name,
            area[name],
            energy[name, "three_hops"],
            energy[name, "intermediate"],
        ]
        for name in TOPOLOGY_NAMES
    ]
    print()
    print(
        format_table(
            ["topology", "router mm^2", "3-hop pJ/flit", "mid-hop pJ/flit"],
            rows,
            title="Cost models (32 nm, 0.9 V)",
            float_format=".3f",
        )
    )
    print(
        "\nreading: DPS pairs mesh-class router cost with MECS-class"
        " multi-hop efficiency — the paper's headline result."
    )


if __name__ == "__main__":
    main()
