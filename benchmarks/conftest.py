"""Benchmark configuration.

Three files time work; none asserts a paper result.  Those are the
claim table's predicates over the campaigns' stage rows
(``repro.campaign.claims``), which ``repro campaign run paper --check``
evaluates at the ``paper`` campaign's budgets.

* ``bench_engine.py`` times the optimised engine against the golden
  reference and records ``BENCH_engine.json``.
* ``bench_fig4_latency.py`` and ``bench_ablations.py`` run an
  experiment sweep on both executors: :func:`executor_variants`
  supplies the serial reference and a process-parallel executor, and
  :func:`record_runtime_baseline` records the comparison as a
  ``sweeps`` row of ``BENCH_runtime.json`` at the repo root, through
  the same bench registry as ``repro bench``.  Each prints its rows
  through the experiment module's ``format_rows`` (run with ``-s``).
"""

from __future__ import annotations

import os
import time

from repro.runtime.bench import RUNTIME_BENCH_FILENAME, bench_result, record
from repro.runtime.executor import Executor, ParallelExecutor, SerialExecutor

#: Where the serial-vs-parallel baselines are recorded.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, RUNTIME_BENCH_FILENAME
)

#: Worker count for the parallel variants (override: REPRO_BENCH_JOBS).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)


def run_once(benchmark, fn, *args, **kwargs):
    """Time one execution of an experiment (no warmup rounds).

    The experiments are deterministic and heavy, so a single round is
    both sufficient and honest; pytest-benchmark still records the
    wall-clock time.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def executor_variants() -> list[tuple[str, Executor]]:
    """The serial reference plus a process-parallel executor."""
    return [
        ("serial", SerialExecutor()),
        (f"parallel[{BENCH_JOBS}]", ParallelExecutor(jobs=BENCH_JOBS)),
    ]


def time_variants(fn) -> tuple[dict[str, float], dict[str, object]]:
    """Run ``fn(executor)`` once per variant; return timings + results."""
    timings: dict[str, float] = {}
    results: dict[str, object] = {}
    for label, executor in executor_variants():
        started = time.perf_counter()
        results[label] = fn(executor)
        timings[label] = round(time.perf_counter() - started, 3)
    return timings, results


def record_runtime_baseline(name: str, timings: dict[str, float]) -> None:
    """Merge one benchmark's serial-vs-parallel timings into the baseline.

    The row is keyed by benchmark name so reruns update in place, and it
    carries the CPU count of the machine it was recorded on.
    """
    record([bench_result("sweeps", name, timings)], BASELINE_PATH)
