"""The benchmark's workloads, their output checks and their traced layers.

Each workload is a fixed batch of work run back to back by one client
(a closed loop).  The three engine workloads run one simulation on each
of :data:`TOPOLOGIES`; ``campaign_smoke`` reproduces the built-in smoke
campaign into a fresh directory from an empty result cache.  The
injectors inside a simulation are open-loop Bernoulli sources in
simulated time: that is the modelled system, not the benchmark's load.

Outputs are checked against references computed outside the timed
region and kept under the work directory, keyed by seed and a digest of
the program's sources and of this file (which defines the workloads):

* an engine simulation's ``NetworkStats.snapshot()`` (and GSF's
  deferral count) must equal :class:`GoldenColumnSimulator`'s on the
  same generated inputs;
* every campaign stage must complete with the artifact digest of a
  serial run at the same seed and, at the default seed, a ``pass``
  verdict against ``CAMPAIGN_baseline.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import time
from pathlib import Path

import repro
from repro.campaign import builtin as campaign_builtin
from repro.campaign import report as campaign_report
from repro.campaign import runner as campaign_runner
from repro.campaign import stages as campaign_stages
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.qos import registry as qos_registry
from repro.resilience import pool as resilience_pool
from repro.runtime import executor as runtime_executor
from repro.runtime import spec as runtime_spec
from repro.runtime.cache import ResultCache
from repro.topologies import registry as topology_registry
from repro.topologies.dps import DpsTopology
from repro.topologies.flattened_butterfly import FlattenedButterflyTopology
from repro.topologies.mecs import MecsTopology
from repro.topologies.mesh import MeshTopology
from repro.traffic import workloads as traffic_workloads

from spans import SpanIndex, Tracer

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = ROOT / "CAMPAIGN_baseline.json"

#: The seed claims are made at, and the one held out to re-check them.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

TOPOLOGIES = ("mesh_x1", "mecs", "dps", "fbfly")
#: Simulated cycles per engine simulation.
ENGINE_CYCLES = 6000
#: ``pvc_vs_gsf``'s frame length.
FRAME_CYCLES = 1000
CAMPAIGN_NAME = "smoke"
CAMPAIGN_JOBS = 2


@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    name: str
    policy: str
    #: Builder in :mod:`repro.traffic.workloads`, looked up at call time.
    builder: str
    rate: float


#: Why each workload was chosen is recorded in BENCHMARK.json.
ENGINE_WORKLOADS = {
    workload.name: workload
    for workload in (
        EngineWorkload("hotspot_pvc", "pvc", "hotspot_all_injectors", 0.05),
        EngineWorkload("hotspot_gsf", "gsf", "hotspot_all_injectors", 0.05),
        EngineWorkload("uniform_low_rate", "pvc", "full_column_workload", 0.01),
    )
}
CAMPAIGN_WORKLOAD = "campaign_smoke"
WORKLOADS = (*ENGINE_WORKLOADS, CAMPAIGN_WORKLOAD)


def code_digest() -> str:
    """sha256 over the program's Python sources and the workload definitions.

    The checked outputs depend on nothing else, so references are keyed
    by it and results record it.
    """
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), Path(__file__).resolve()]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _plain(value):
    """JSON round trip, so live outputs compare equal to stored ones."""
    return json.loads(json.dumps(value))


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _cached(path: Path, compute, *args) -> dict:
    """Load ``path``, first writing ``compute(*args)`` there if missing.

    The computation runs in a forked child, so its memory never counts
    towards the measuring process's peak RSS.
    """
    if not path.exists():
        child = multiprocessing.get_context("fork").Process(
            target=lambda: _write_json(path, compute(*args)))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"computing {path.name} failed (exit {child.exitcode})")
    return json.loads(path.read_text(encoding="utf-8"))


# -- memory ---------------------------------------------------------------


def vm_hwm_kib(pid: int | str = "self") -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Free earlier passes' garbage, then restart the peak-RSS mark.

    Collecting first starts every pass from the same heap, so neither
    its peak memory nor its time depends on when the collector last ran.
    The mark needs Linux 4.0+; best effort.
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def children_peak_rss_kib() -> int:
    """Summed peak RSS of this process's live multiprocessing children."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            total += vm_hwm_kib(child.pid)
        except OSError:
            pass
    return total


# -- engine workloads -----------------------------------------------------


def _deferrals(policy) -> int:
    count = getattr(policy, "deferral_count", None)
    return count() if count is not None else 0


def _outputs(simulator) -> dict:
    """What a simulation is checked on, from either engine."""
    return {
        "snapshot": simulator.stats.snapshot(),
        "gsf_deferrals": _deferrals(simulator.policy),
    }


def build_simulator(workload: EngineWorkload, topology: str, seed: int,
                    engine=ColumnSimulator):
    config = SimulationConfig(frame_cycles=FRAME_CYCLES, seed=seed)
    fabric = topology_registry.get_topology(topology).build(config)
    flows = getattr(traffic_workloads, workload.builder)(workload.rate)
    policy = qos_registry.create_policy(workload.policy)
    return engine(fabric, flows, policy, config)


@dataclasses.dataclass
class SimRecord:
    """One engine simulation: host time and its checked outputs."""

    topology: str
    host_s: float
    cycles: int
    output: dict

    @property
    def snapshot(self) -> dict:
        return self.output["snapshot"]


def engine_pass(workload: EngineWorkload, seed: int) -> list[SimRecord]:
    """One simulation per topology; only set-up and run are timed."""
    records = []
    for topology in TOPOLOGIES:
        started = time.perf_counter()
        simulator = build_simulator(workload, topology, seed)
        simulator.run(ENGINE_CYCLES)
        host_s = time.perf_counter() - started
        records.append(
            SimRecord(topology, host_s, simulator.cycle, _outputs(simulator)))
    return records


def engine_reference(workload: EngineWorkload, seed: int, work_dir: Path,
                     code: str) -> dict:
    """Golden outputs per topology, computed once per seed and code digest."""
    path = work_dir / "refs" / f"{workload.name}-seed{seed}-{code[:16]}.json"
    return _cached(path, _golden_outputs, workload, seed)


def _golden_outputs(workload: EngineWorkload, seed: int) -> dict:
    outputs = {}
    for topology in TOPOLOGIES:
        golden = build_simulator(workload, topology, seed, GoldenColumnSimulator)
        golden.run(ENGINE_CYCLES)
        outputs[topology] = _outputs(golden)
    return outputs


def check_simulation(record: SimRecord, reference: dict) -> bool:
    return _plain(record.output) == reference[record.topology]


# -- campaign workload ----------------------------------------------------


def campaign_spec(seed: int):
    return dataclasses.replace(campaign_builtin.get_campaign(CAMPAIGN_NAME),
                               seed=seed)


@dataclasses.dataclass
class CampaignPass:
    wall_s: float
    manifest: dict
    directory: Path
    cache_writes: int
    workers_peak_kib: int


def campaign_pass(seed: int, directory: Path, jobs: int = CAMPAIGN_JOBS
                  ) -> CampaignPass:
    """Reproduce the smoke campaign into a fresh directory and cache."""
    shutil.rmtree(directory, ignore_errors=True)
    cache = ResultCache(directory / "cache")
    if jobs > 1:
        executor = runtime_executor.ParallelExecutor(jobs=jobs)
    else:
        executor = runtime_executor.SerialExecutor()
    started = time.perf_counter()
    try:
        result = campaign_runner.run_campaign(
            campaign_spec(seed),
            campaign_dir=directory / "campaign",
            executor=executor,
            cache=cache,
            baseline_path=BASELINE_PATH,
        )
        workers_kib = children_peak_rss_kib()
    finally:
        if jobs > 1:
            executor.close()
    wall_s = time.perf_counter() - started
    return CampaignPass(wall_s, result.manifest, directory / "campaign",
                        cache.writes, workers_kib)


def stage_rows_on_disk(done: CampaignPass) -> dict[str, tuple[str, list] | None]:
    """``{stage: (artifact sha256, rows)}`` read back from the artifacts."""
    found = {}
    for name, entry in done.manifest["stages"].items():
        try:
            data = (done.directory / entry["artifact"]).read_bytes()
        except OSError:
            found[name] = None
            continue
        found[name] = (hashlib.sha256(data).hexdigest(), json.loads(data)["rows"])
    return found


def check_campaign(done: CampaignPass, on_disk: dict, reference: dict,
                   seed: int) -> dict[str, bool]:
    """Per-stage verdicts: complete, serial digest, and baseline at seed 1."""
    campaign = campaign_spec(seed)
    stages = done.manifest["stages"]
    ok = {}
    for stage in campaign.stages:
        entry = stages.get(stage.name, {})
        found = on_disk.get(stage.name)
        ok[stage.name] = (
            entry.get("status") == "complete"
            and found is not None
            and found[0] == reference["digests"].get(stage.name)
        )
    if seed == DEFAULT_SEED:
        card = campaign_report.build_report_card(
            campaign,
            done.manifest,
            {name: found[1] if found else None for name, found in on_disk.items()},
            {name: entry.get("stage_hash") for name, entry in stages.items()},
            baseline=campaign_report.load_baseline(BASELINE_PATH),
            engine=repro.__version__,
        )
        for stage in card.stages:
            ok[stage.name] = ok[stage.name] and stage.verdict == "pass"
    return ok


def campaign_reference(seed: int, work_dir: Path, code: str) -> dict:
    """Serial run at ``seed``: stage digests and total simulated cycles."""
    path = work_dir / "refs" / f"{CAMPAIGN_WORKLOAD}-seed{seed}-{code[:16]}.json"
    return _cached(path, _serial_campaign, seed, work_dir / "reference-campaign")


def _serial_campaign(seed: int, directory: Path) -> dict:
    tracer = Tracer()
    install_wrappers(tracer)
    try:
        done = campaign_pass(seed, directory, jobs=1)
    finally:
        tracer.uninstall()
        shutil.rmtree(directory, ignore_errors=True)
    if not all(e.get("status") == "complete" for e in done.manifest["stages"].values()):
        raise RuntimeError(f"serial reference campaign at seed {seed} did not complete")
    return {
        "digests": {name: entry["artifact_sha256"]
                    for name, entry in done.manifest["stages"].items()},
        "cycles": sum(span.attrs["cycles"] for span in tracer.spans
                      if span.name == "network.run"),
    }


# -- tracing --------------------------------------------------------------


def _run_reading(args) -> dict:
    """Counts a ``ColumnSimulator.run*`` call moves, from public outputs."""
    simulator = args[0]
    snapshot = simulator.stats.snapshot()
    return {
        "topology": simulator.fabric.name,
        "cycles": simulator.cycle,
        "created": snapshot["created_packets"],
        "injected": snapshot["injected_packets"],
        "delivered": snapshot["delivered_packets"],
        "hops": sum(snapshot["hops_by_kind"].values()),
        "preemptions": snapshot["preemption_events"],
        "replays": snapshot["replays"],
        "wasted_tiles": snapshot["wasted_tiles"],
        "total_tiles": snapshot["total_tiles"],
        "gsf_deferrals": _deferrals(simulator.policy),
    }


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (undo with ``uninstall``)."""
    for topology in (MeshTopology, MecsTopology, DpsTopology,
                     FlattenedButterflyTopology):
        tracer.wrap(topology, "build", "topologies.build")
    for builder in ("hotspot_all_injectors", "full_column_workload"):
        tracer.wrap(traffic_workloads, builder, "traffic.flows")
    tracer.wrap(runtime_spec, "build_flows", "traffic.flows")
    for entry in qos_registry.policy_entries():
        tracer.wrap(entry.factory, "__init__", "qos.create")
    tracer.wrap(ColumnSimulator, "__init__", "network.init")
    for method in ("run", "run_window", "run_until_drained"):
        tracer.wrap_measured(ColumnSimulator, method, "network.run", _run_reading)
    for executor in (runtime_executor.ParallelExecutor,
                     runtime_executor.SerialExecutor):
        tracer.wrap(executor, "run", "runtime.executor_run")
    for module in (resilience_pool, runtime_executor):
        tracer.wrap(module, "execute_spec", "runtime.execute_spec")
    tracer.wrap(ResultCache, "get", "runtime.cache_get")
    tracer.wrap(ResultCache, "put", "runtime.cache_put")
    adapters = campaign_stages.STAGE_ADAPTERS
    for kind, adapter in list(adapters.items()):
        run = tracer.wrapped(adapter.run, "analysis.stage_rows", {"kind": kind})
        tracer.wrap_item(adapters, kind, dataclasses.replace(adapter, run=run))
    tracer.wrap(campaign_runner, "run_campaign", "campaign.run")
    for function in ("build_report_card", "load_baseline"):
        tracer.wrap(campaign_runner, function, "campaign.report")


def per_layer_metrics(spans, wall_s: float, owner_pid: int,
                      done: CampaignPass | None) -> dict[str, float]:
    """Every per-layer metric for one traced pass."""
    index = SpanIndex(spans)
    runs = index.named("network.run")
    total = {key: sum(span.attrs[key] for span in runs)
             for key in ("cycles", "created", "injected", "delivered", "hops",
                         "preemptions", "replays", "wasted_tiles",
                         "total_tiles", "gsf_deferrals")}
    run_s = index.total("network.run")
    metrics = {
        "topologies.build_s": index.total("topologies.build"),
        "traffic.flows_s": index.total("traffic.flows"),
        "qos.create_s": index.total("qos.create"),
        "network.init_s": index.total("network.init"),
        "network.run_s": run_s,
    }
    for topology in TOPOLOGIES:
        mine = [span for span in runs if span.attrs["topology"] == topology]
        cycles = sum(span.attrs["cycles"] for span in mine)
        seconds = sum(span.seconds for span in mine)
        metrics[f"network.ns_per_cycle.{topology}"] = (
            seconds / cycles * 1e9 if cycles else 0.0)
    metrics["network.ns_per_delivered_packet"] = (
        run_s / total["delivered"] * 1e9 if total["delivered"] else 0.0)
    metrics["network.cycles"] = total["cycles"]
    metrics["network.created_packets"] = total["created"]
    metrics["network.injected_packets"] = total["injected"]
    metrics["network.delivered_packets"] = total["delivered"]
    metrics["network.hops"] = total["hops"]
    metrics["qos.preemptions"] = total["preemptions"]
    metrics["qos.replays"] = total["replays"]
    metrics["qos.gsf_deferrals"] = total["gsf_deferrals"]
    metrics["network.injected_per_created"] = (
        total["injected"] / total["created"] if total["created"] else 0.0)
    metrics["qos.wasted_hop_frac"] = (
        total["wasted_tiles"] / total["total_tiles"] if total["total_tiles"] else 0.0)

    executor_s = index.total("runtime.executor_run")
    execute_s = index.total("runtime.execute_spec")
    telemetry = done.manifest.get("telemetry", {}) if done else {}
    resilience = telemetry.get("resilience", {})
    jobs = telemetry.get("jobs", 1)
    metrics.update({
        "runtime.executor_run_s": executor_s,
        "runtime.execute_spec_s": execute_s,
        "runtime.pool_busy_frac": (
            execute_s / (jobs * executor_s) if executor_s else 0.0),
        "runtime.cache_get_s": index.total("runtime.cache_get"),
        "runtime.cache_put_s": index.total("runtime.cache_put"),
        "runtime.specs": telemetry.get("specs", 0),
        "runtime.simulated": telemetry.get("simulated", 0),
        "runtime.cache_writes": done.cache_writes if done else 0,
        "runtime.retries": resilience.get("retries", 0),
        "runtime.worker_deaths": resilience.get("worker_deaths", 0),
        "analysis.stage_rows_s": index.self_total("analysis.stage_rows"),
        "analysis.direct_sim_s": sum(
            span.seconds for span in runs
            if span.pid == owner_pid
            and "analysis.stage_rows" in (chain := index.ancestors(span))
            and "runtime.execute_spec" not in chain),
        "campaign.self_s": index.self_total("campaign.run"),
        "campaign.report_s": index.total("campaign.report"),
    })
    stage_times = telemetry.get("stages", {})
    for stage in campaign_spec(DEFAULT_SEED).stages:
        metrics[f"campaign.stage_s.{stage.name}"] = (
            stage_times.get(stage.name, {}).get("elapsed_seconds", 0.0))
    metrics["unattributed_s"] = wall_s - sum(
        span.seconds for span in index.top_level(owner_pid))
    return metrics
