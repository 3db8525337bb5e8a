"""Figure 4 — latency/throughput on uniform random and tornado."""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.experiments.fig4_latency import format_rows, run_fig4, summary_rows
from repro.network.config import SimulationConfig

_RATES = (0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13)


def test_fig4_latency_curves(benchmark):
    result = run_once(
        benchmark,
        run_fig4,
        rates=_RATES,
        cycles=4000,
        warmup=1000,
        config=SimulationConfig(frame_cycles=10_000, seed=1),
    )
    print()
    print(format_rows(summary_rows(result)))
    low_uniform = {n: p[0].mean_latency for n, p in result.uniform.items()}
    high_tornado = {n: p[-1].mean_latency for n, p in result.tornado.items()}
    # Paper shape: MECS/DPS fastest at low load; x1 saturates first;
    # x4 cannot hold tornado as well as MECS/DPS.
    assert low_uniform["dps"] < low_uniform["mesh_x1"]
    assert low_uniform["mecs"] < low_uniform["mesh_x1"]
    assert high_tornado["mesh_x1"] > high_tornado["mecs"]
    assert high_tornado["mesh_x4"] > high_tornado["mecs"]


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
