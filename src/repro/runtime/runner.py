"""High-level batch/grid orchestration over the executors.

``run_batch`` maps an explicit spec list; ``run_grid`` builds the
(topology × rate) product every latency/throughput figure sweeps.  Both
return a :class:`RunManifest` recording how the batch executed — how
many points were simulated versus served from the cache — which is what
lets a caller *prove* that a repeated sweep did zero simulation work.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.network.config import SimulationConfig
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    Executor,
    ProgressCallback,
    SerialExecutor,
)
from repro.runtime.spec import RunResult, RunSpec


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one executed batch."""

    total: int
    simulated: int
    cache_hits: int
    elapsed_seconds: float
    executor: str
    cache_dir: str | None
    started_at: float
    spec_hashes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "elapsed_seconds": self.elapsed_seconds,
            "executor": self.executor,
            "cache_dir": self.cache_dir,
            "started_at": self.started_at,
            "spec_hashes": list(self.spec_hashes),
        }

    def summary(self) -> str:
        """One-line report used by the CLI footer."""
        return (
            f"{self.total} points: {self.simulated} simulated, "
            f"{self.cache_hits} cached, {self.elapsed_seconds:.2f}s "
            f"({self.executor})"
        )


@dataclass(frozen=True)
class BatchResult:
    """Results (in spec order) plus the manifest."""

    specs: tuple[RunSpec, ...]
    results: tuple[RunResult, ...]
    manifest: RunManifest

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass(frozen=True)
class GridResult:
    """One curve of results per topology, in rate order."""

    curves: dict[str, list[RunResult]]
    rates: tuple[float, ...]
    manifest: RunManifest


def run_batch(
    specs: Sequence[RunSpec],
    *,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
) -> BatchResult:
    """Execute a batch of specs; the default executor is serial."""
    executor = executor or SerialExecutor()
    started_at = time.time()
    outcome = executor.run(specs, cache=cache, progress=progress)
    manifest = RunManifest(
        total=outcome.cache_hits + outcome.simulated,
        simulated=outcome.simulated,
        cache_hits=outcome.cache_hits,
        elapsed_seconds=outcome.elapsed_seconds,
        executor=executor.describe(),
        cache_dir=str(cache.root) if cache is not None else None,
        started_at=started_at,
        spec_hashes=tuple(spec.content_hash for spec in specs),
    )
    return BatchResult(
        specs=tuple(specs), results=tuple(outcome.results), manifest=manifest
    )


def run_grid(
    topology_names: Sequence[str],
    rates: Sequence[float],
    *,
    workload: str = "full_column",
    workload_params: dict | None = None,
    policy: str = "pvc",
    mode: str = "run",
    cycles: int = 5000,
    warmup: int = 0,
    config: SimulationConfig | None = None,
    seed: int | None = None,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
) -> GridResult:
    """Run the (topology × rate) product of one workload.

    Every figure-style sweep is this shape; the whole product is
    submitted as one batch so a parallel executor can overlap points
    from different curves.
    """
    base = config or SimulationConfig(frame_cycles=10_000)
    if seed is not None:
        base = replace(base, seed=seed)
    specs = [
        RunSpec(
            topology=name,
            workload=workload,
            rate=rate,
            workload_params=workload_params or {},
            policy=policy,
            config=base,
            mode=mode,
            cycles=cycles,
            warmup=warmup,
        )
        for name in topology_names
        for rate in rates
    ]
    batch = run_batch(specs, executor=executor, cache=cache, progress=progress)
    curves: dict[str, list[RunResult]] = {}
    index = 0
    for name in topology_names:
        curves[name] = list(batch.results[index : index + len(rates)])
        index += len(rates)
    return GridResult(
        curves=curves, rates=tuple(rates), manifest=batch.manifest
    )
