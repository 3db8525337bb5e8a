"""Two ablation sweeps on the serial and the parallel executor.

The ablations' claims are predicates over the campaign's rows
(``repro.campaign.claims``); this file times the patience and quota
sweeps themselves.
"""

from conftest import record_runtime_baseline, run_once, time_variants

from repro.analysis.ablations import patience, run_patience_ablation, run_quota_ablation


def test_ablations_serial_vs_parallel_runtime(benchmark):
    """Patience + quota sweeps on both executors: equal points, timings."""

    def sweep(executor):
        return (
            run_patience_ablation(executor=executor),
            run_quota_ablation(executor=executor),
        )

    timings, results = time_variants(sweep)
    serial = results["serial"]
    parallel = next(v for k, v in results.items() if k.startswith("parallel"))
    assert serial == parallel
    record_runtime_baseline("ablations_patience_plus_quota", timings)
    print()
    print(f"ablation runtime comparison: {timings}")
    run_once(benchmark, patience.format_rows, patience.summary_rows(serial[0]))
