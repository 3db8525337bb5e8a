"""Figure 4's sweep on the serial and the parallel executor.

The Figure 4 claims are predicates over the campaign's ``fig4`` rows
(``repro.campaign.claims``); this file times the sweep itself.
"""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.experiments.fig4_latency import format_rows, run_fig4, summary_rows
from repro.network.config import SimulationConfig

_RATES = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13)


def test_fig4_serial_vs_parallel_runtime(benchmark):
    """Same sweep, both executors: equal curves, recorded wall-clocks."""

    def sweep(executor):
        return run_fig4(
            rates=_RATES[:4],
            cycles=2500,
            warmup=600,
            config=SimulationConfig(frame_cycles=10_000, seed=1),
            executor=executor,
        )

    timings, results = time_variants(sweep)
    serial = results["serial"]
    parallel = next(v for k, v in results.items() if k.startswith("parallel"))
    assert serial.uniform == parallel.uniform
    assert serial.tornado == parallel.tornado
    record_runtime_baseline("fig4_40_point_sweep", timings)
    print()
    print(f"fig4 runtime comparison: {timings}")
    # pytest-benchmark records the (cheap) formatting pass; the real
    # measurement of interest is the timings dict persisted above.
    run_once(benchmark, format_rows, summary_rows(serial))
