"""Figure 4's sweep on the serial and the parallel executor.

The Figure 4 claims are predicates over the campaign's ``fig4`` rows
(``repro.campaign.claims``); this file times the sweep itself.
"""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.experiments import fig4_latency

#: Four rates x five topologies x two panels: a 40-point sweep.
_PARAMS = {
    "rates": (0.01, 0.03, 0.05, 0.07),
    "cycles": 2500,
    "warmup": 600,
    "frame_cycles": 10_000,
}


def test_fig4_serial_vs_parallel_runtime(benchmark):
    """Same sweep, both executors: equal rows, recorded wall-clocks."""

    def sweep(executor):
        return fig4_latency.stage_rows(_PARAMS, seed=1, executor=executor)

    timings, results = time_variants(sweep)
    serial = results["serial"]
    parallel = next(v for k, v in results.items() if k.startswith("parallel"))
    assert serial == parallel  # both panels, row for row
    record_runtime_baseline("fig4_40_point_sweep", timings)
    print()
    print(f"fig4 runtime comparison: {timings}")
    # pytest-benchmark records the (cheap) formatting pass; the real
    # measurement of interest is the timings dict persisted above.
    run_once(benchmark, fig4_latency.format_rows, serial)
