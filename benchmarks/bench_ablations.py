"""Two ablation sweeps on the serial and the parallel executor.

The ablations' claims are predicates over the campaign's rows
(``repro.campaign.claims``); this file times the patience and quota
sweeps themselves.
"""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.ablations import patience, quota


def test_ablations_serial_vs_parallel_runtime(benchmark):
    """Patience + quota sweeps on both executors: equal rows, timings."""

    def sweep(executor):
        return (
            patience.stage_rows(executor=executor),
            quota.stage_rows(executor=executor),
        )

    timings, results = time_variants(sweep)
    serial = results["serial"]
    parallel = next(v for k, v in results.items() if k.startswith("parallel"))
    assert serial == parallel
    record_runtime_baseline("ablations_patience_plus_quota", timings)
    print()
    print(f"ablation runtime comparison: {timings}")
    run_once(benchmark, patience.format_rows, serial[0])
