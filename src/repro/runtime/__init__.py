"""repro.runtime — parallel experiment orchestration with caching.

The layering mirrors the rest of the package: *what to run* is a
declarative, content-hashable :class:`RunSpec`; *how it executes* is an
:class:`Executor` (serial or process-parallel) consulting an optional
content-addressed :class:`ResultCache`; :func:`run_batch` /
:func:`run_grid` sit on top and hand back a :class:`RunManifest`
recording how much work was simulated versus served from cache.

Typical use::

    from repro.runtime import ParallelExecutor, ResultCache, run_grid

    grid = run_grid(
        ["mesh_x1", "mecs", "dps"], [0.02, 0.06, 0.10],
        workload="full_column", cycles=4000, warmup=1000,
        executor=ParallelExecutor(jobs=4), cache=ResultCache(),
    )
    print(grid.curves["dps"][0].mean_latency)
    print(grid.manifest.summary())   # "... 0 simulated, 21 cached ..."
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".bench": (
            "EnginePoint",
            "EngineResult",
            "format_engine_bench",
            "record_engine_baseline",
            "run_engine_bench",
        ),
        ".cache": ("CacheInfo", "ResultCache", "default_cache_dir"),
        ".executor": (
            "ExecutionOutcome",
            "Executor",
            "ParallelExecutor",
            "SerialExecutor",
        ),
        ".runner": (
            "BatchResult",
            "GridResult",
            "RunManifest",
            "run_batch",
            "run_grid",
        ),
        ".spec": (
            "PATTERNS",
            "POLICIES",
            "WORKLOAD_BUILDERS",
            "RunResult",
            "RunSpec",
            "build_flows",
            "execute_spec",
        ),
    },
)
