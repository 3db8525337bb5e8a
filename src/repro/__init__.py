"""repro — reproduction of "Topology-aware Quality-of-Service Support in
Highly Integrated Chip Multiprocessors" (Grot, Keckler, Mutlu, 2010).

Public API tour
---------------

Cycle-level shared-region simulation::

    from repro import ColumnSimulator, SimulationConfig, PvcPolicy
    from repro import get_topology, uniform_workload

    topology = get_topology("dps")
    config = SimulationConfig(frame_cycles=10_000)
    sim = ColumnSimulator(topology.build(config), uniform_workload(0.05),
                          PvcPolicy(), config)
    stats = sim.run(10_000, warmup=2_000)
    print(stats.mean_latency)

Chip-level architecture::

    from repro import TopologyAwareSystem

    system = TopologyAwareSystem()
    system.admit_vm("web", n_threads=24, weight=2.0)
    system.admit_vm("db", n_threads=16, weight=3.0)
    assert system.audit_isolation() == []

Parallel sweeps with result caching (:mod:`repro.runtime`)::

    from repro import ParallelExecutor, ResultCache, run_grid

    grid = run_grid(
        ["mesh_x1", "mecs", "dps"], [0.02, 0.06, 0.10],
        workload="full_column", cycles=4000, warmup=1000,
        executor=ParallelExecutor(),          # os.cpu_count() workers
        cache=ResultCache(),                  # ~/.cache/repro
    )
    for name, curve in grid.curves.items():
        print(name, [point.mean_latency for point in curve])
    print(grid.manifest.summary())  # "... N simulated, M cached ..."

Every point is a declarative, content-hashed :class:`RunSpec`; results
are bit-identical across serial/parallel execution and cache round
trips (same seeds ⇒ same stats), and a repeated sweep performs zero
simulations.  Lower-level control: build :class:`RunSpec` batches by
hand and pass them to :func:`run_batch` or an executor's ``map``.

Scenario traffic (:mod:`repro.scenarios`) — bursty sources, record and
replay, closed-loop clients::

    from repro import ColumnSimulator, InjectionCapture, PvcPolicy
    from repro import SimulationConfig, bursty_workload, get_topology
    from repro.scenarios import capture_to_trace, replayed_workload

    config = SimulationConfig(frame_cycles=10_000)
    sim = ColumnSimulator(get_topology("mecs").build(config),
                          bursty_workload(0.3), PvcPolicy(), config)
    capture = InjectionCapture()
    capture.attach(sim)
    sim.run(6_000, warmup=1_000)

    trace = capture_to_trace(capture, sim.flows)      # record ...
    replay = ColumnSimulator(get_topology("mecs").build(config),
                             replayed_workload(trace), PvcPolicy(), config)
    replay.run(6_000, warmup=1_000)                   # ... and replay
    assert replay.stats.snapshot() == sim.stats.snapshot()  # bit-exact

Scenario workloads are also registry names (``"bursty"``,
``"pareto_bursty"``, ``"phased"``, ``"closed_loop"``, ``"replay"``), so
they flow through :class:`RunSpec` hashing, the result cache and the
parallel executor like any other workload.  CLI: ``repro scenario
list|run|record|replay`` and the ``repro burst`` study.

Observability (:mod:`repro.obs`) — engine probes that cost nothing
when off, windowed time-series, packet-lifecycle Chrome traces and
runtime telemetry::

    from repro import ObsSession, RunSpec, execute_spec

    spec = RunSpec(topology="mecs", workload="bursty", rate=0.3,
                   cycles=6_000,
                   obs={"window": 500, "timeline": True, "out_dir": "obs"})
    execute_spec(spec)       # writes <hash>.metrics.jsonl / .trace.json
                             # / .run.json into obs/

The ``obs`` mapping never changes results and never enters the spec's
content hash when empty, so existing caches and campaign baselines are
untouched.  Or attach by hand: construct an :class:`ObsSession`,
``attach(sim)`` before running, ``finalize()`` after.  CLI: ``repro
obs record|report|timeline``, ``--obs DIR`` on any target, ``repro
bench obs`` for the probe-overhead guard.  See
``docs/observability.md``.

QoS policies (:mod:`repro.qos`) — every policy behind one registry::

    from repro import available_policies, create_policy, get_policy

    available_policies()          # ("pvc", "perflow", "noqos", "gsf")
    entry = get_policy("gsf")     # factory + declared capabilities
    entry.capabilities.throttles_injection   # True: source-throttled
    policy = create_policy("gsf")            # fresh, unbound instance

Policies implement the :class:`QosPolicy` contract and declare a
:class:`~repro.qos.base.PolicyCapabilities` record stating what they
ask of the engine (preemption machinery, overflow VCs, compliance
caching, injection throttling); the engines read capabilities, never
concrete types.  Everything that names a policy — ``RunSpec``
validation, the CLI's ``--policy`` choices, experiment policy orders,
campaign stage params — derives from the registry, so
:func:`~repro.qos.register_policy` is the *only* step to add one.
Besides PVC the registry ships GSF (Globally-Synchronized Frames, the
frame-reservation scheme the paper argues against); ``repro pvcgsf``
runs the head-to-head.  See ``docs/qos.md``.

Experiments: every paper table, figure, ablation and extension is one
stage kind in :mod:`repro.campaign.stages`, backed by a module under
:mod:`repro.analysis` whose ``stage_rows`` runs it and whose
``format_rows`` renders its rows::

    from repro.analysis.experiments import fig4_latency

    rows = fig4_latency.stage_rows(
        {"rates": [0.02, 0.06], "topology_names": ["mecs", "dps"]}, seed=1
    )
    print(fig4_latency.format_rows(rows))   # both panels, one batch

CLI: ``repro <target>`` (``repro list`` names them).

Full-paper campaigns (:mod:`repro.campaign`) — every figure, table,
ablation and scenario study as one resumable, sharded, CI-verifiable
run::

    from repro import ResultCache, get_campaign, run_campaign

    result = run_campaign(
        get_campaign("paper"),
        campaign_dir="campaigns/paper",
        cache=ResultCache(),
        baseline_path="CAMPAIGN_baseline.json",
    )
    print(result.report.overall)        # "pass" | "drift" | "fail"

Stages checkpoint shard-by-shard into an on-disk manifest with
sha256-addressed artifacts; interrupting and resuming produces
byte-identical artifacts to an uninterrupted run, and the report card
compares every stage's rows against the committed
``CAMPAIGN_baseline.json``.  CLI: ``repro campaign
list|run|status|resume|report|diff``.

Resilience (:mod:`repro.resilience`) — fault-tolerant parallel
execution and reproducible chaos::

    from repro import ParallelExecutor, RetryPolicy, run_chaos

    executor = ParallelExecutor(jobs=4, retry=RetryPolicy(max_attempts=3),
                                timeout=60.0)   # per-spec budget
    results = executor.map(specs)   # crashes/hangs retried, not fatal

    report = run_chaos("smoke", chaos_dir="chaos/smoke")
    assert report.converged         # disturbed run == clean run, bit-exact

The parallel executor is an in-parent lease broker plus persistent
forked agents: a crashed or hung agent is replaced and its lease
charged against the retry budget; specs that exhaust the budget raise
:class:`ExecutionFailed` with structured
:class:`~repro.resilience.FailureRecord`\\ s *after* the rest of the
batch completed.  Cache blobs are sha256-sealed and quarantined when
corrupt; campaign manifests survive torn writes via a last-good
backup.  :func:`run_chaos` proves it end to end under a seeded
:class:`~repro.resilience.FaultPlan`.  CLI: ``repro chaos run|plan``,
``repro doctor``, ``--retries/--timeout/--chaos`` on any parallel
target.  See ``docs/failures.md``.

Distributed dispatch (:mod:`repro.dispatch`) — lease-based work
claiming for multi-host campaigns::

    from repro import Broker, BrokerServer, DispatchExecutor

    with BrokerServer(Broker()) as server:      # or: repro dispatch serve
        # workers elsewhere: repro dispatch work http://host:port
        outcome = DispatchExecutor(server.url).run(specs)

    with DispatchExecutor() as executor:        # in-process, deterministic
        outcome = executor.run(specs)           # byte-identical to serial

A :class:`Broker` leases content-hashed specs to
:class:`~repro.dispatch.WorkerAgent`\\ s (claim → heartbeat →
complete); abandoned leases expire and requeue, completions are
idempotent on the spec hash, and every result is sha256-verified
before ingestion.  :class:`DispatchExecutor` is a drop-in executor
over the protocol (``--dispatch URL|local`` on any batch target)
that degrades to a local :class:`ParallelExecutor` when the broker is
unreachable.  The chaos harness (``repro chaos run``) stamps lost,
duplicated and delayed calls, partitions and vanishing workers on the
leases the broker grants, then asserts byte-identical convergence.
See ``docs/failures.md``.
"""

from repro._lazy import lazy_exports

# 1.2.0: activity-tracked engine (geometric inter-arrival sampling +
# cycle skipping).  1.3.0: saturation hot path — incremental PVC
# priority/compliance caching (epoch-based lazy flow-table flushes) and
# allocation-free arbitration over persistent per-port rankings.
# Results are bit-identical to 1.2.0, but the version bump deliberately
# invalidates the result cache so every stored blob is regenerated —
# and therefore re-verified — by the new engine.  1.4.0: scenarios
# subsystem — injection processes (on/off, Pareto, phased), JSONL trace
# record/replay, closed-loop request-reply clients; pre-existing
# workloads are bit-identical, the bump guards the cache against the
# engine's new creation path.  1.5.0: campaign subsystem — resumable,
# sharded full-paper reproduction runs with manifest checkpoints,
# sha256-addressed artifacts and a baseline-checked report card; the
# version participates in every stage hash, so campaign manifests and
# baselines invalidate together with the result cache.  1.6.0:
# observability — probe bus in both engines (allocation-free when
# detached), windowed JSONL metrics, Chrome-trace packet lifecycles,
# campaign/runtime telemetry.  Results are bit-identical with probes
# on or off; the bump re-verifies every cached blob through the
# probe-hooked engine.  1.7.0: resilience — supervised persistent
# worker pool (crash/hang detection, deterministic retries, graceful
# degradation), sha256-sealed cache blobs with quarantine-on-read,
# torn-manifest recovery, and the deterministic chaos harness.  Blobs
# written by 1.6.0 carry no payload seal, so the bump regenerates the
# cache under the sealed format; campaign stage hashes (which embed the
# version) and the baseline roll forward with it.  1.8.0: dispatch —
# lease-based broker/worker protocol for multi-host campaigns
# (in-process and localhost-HTTP transports), graceful degradation to
# the supervised pool, counter-keyed network chaos, and campaign
# artifact fsck.  Execution results are bit-identical across
# serial/pool/dispatch paths; the bump rolls the stage hashes and the
# committed baseline forward together, as every version bump must.
# 1.9.0: fleet observability — versioned append-only event journals on
# every broker/worker/campaign lifecycle seam (zero-overhead-when-off,
# bit-neutral to results), content-hash-derived trace/span correlation
# merging per-actor journals into one causally-checked timeline and
# Perfetto fleet trace, broker /metrics + /journal endpoints with the
# live `repro fleet status` / `repro campaign watch` dashboards, and
# guard-checked bench trend history.  Results are unchanged, but the
# version participates in stage hashes, so the committed campaign
# baseline rolls forward with the bump.  1.10.0: policy registry + GSF —
# QoS policies live behind repro.qos.registry (capability-declaring
# entries; every name-consuming surface derives from it), the engines
# read PolicyCapabilities instead of concrete policy types, and
# Globally-Synchronized Frames joins as a fourth policy with
# source-throttled injection via the new injection_release hook.
# Existing policies are bit-identical in both engines; the bump rolls
# the result cache, stage hashes and committed baselines forward with
# the new pvc_vs_gsf stage and GSF bench regime.
__version__ = "1.10.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".analysis.fairness": ("fairness_report", "max_min_allocation"),
        ".campaign.builtin": ("CAMPAIGNS", "get_campaign"),
        ".campaign.report": ("ReportCard", "StageReport"),
        ".campaign.runner": ("CampaignResult", "CampaignRunner", "run_campaign"),
        ".campaign.spec": ("CampaignSpec", "StageSpec"),
        ".core.chip": ("Chip", "ChipConfig"),
        ".core.domain": ("Domain", "is_convex", "xy_path"),
        ".core.hypervisor": ("Hypervisor", "VirtualMachine"),
        ".core.memctrl": ("MemoryController",),
        ".core.system": ("TopologyAwareSystem",),
        ".dispatch.broker": ("Broker",),
        ".dispatch.executor": ("DispatchExecutor",),
        ".dispatch.httpd": ("BrokerServer",),
        ".dispatch.transport": ("HttpTransport", "LocalTransport"),
        ".dispatch.worker": ("WorkerAgent",),
        ".errors": (
            "AllocationError",
            "CampaignError",
            "CampaignInterrupted",
            "ConfigurationError",
            "ConvexityError",
            "DispatchError",
            "ExecutionFailed",
            "IsolationError",
            "ModelError",
            "ReproError",
            "SimulationError",
            "TopologyError",
            "TraceOverflowError",
            "TrafficError",
            "TransportError",
        ),
        ".models.area": ("RouterAreaModel",),
        ".models.energy": ("RouterEnergyModel",),
        ".models.technology": ("TechnologyParameters",),
        ".network.config": ("SimulationConfig",),
        ".network.engine": ("ColumnSimulator",),
        ".network.packet": ("ClosedLoopSpec", "FlowSpec", "Packet"),
        ".network.trace": ("InjectionCapture", "TraceRecorder"),
        ".obs.collect": ("ObsSession", "WindowedMetrics"),
        ".obs.metricsfmt": ("read_metrics",),
        ".obs.probes": ("ProbeBus",),
        ".obs.report": ("render_report",),
        ".obs.telemetry": ("TelemetryRecorder",),
        ".qos.base": ("NoQosPolicy", "PolicyCapabilities", "QosPolicy"),
        ".qos.gsf": ("GsfPolicy",),
        ".qos.perflow": ("PerFlowQueuedPolicy",),
        ".qos.pvc": ("PvcPolicy",),
        ".qos.registry": (
            "PolicyEntry",
            "available_policies",
            "create_policy",
            "get_policy",
            "policy_entries",
            "register_policy",
        ),
        ".resilience.chaos": ("ChaosReport", "run_chaos"),
        ".resilience.faults": ("Fault", "FaultInjector", "FaultPlan", "load_plan"),
        ".resilience.policy": ("FailureRecord", "RetryPolicy"),
        ".runtime.cache": ("ResultCache",),
        ".runtime.executor": ("ParallelExecutor", "SerialExecutor"),
        ".runtime.runner": (
            "BatchResult",
            "GridResult",
            "RunManifest",
            "run_batch",
            "run_grid",
        ),
        ".runtime.spec": ("RunResult", "RunSpec", "execute_spec"),
        ".scenarios.injection": (
            "InjectionProcess",
            "OnOffProcess",
            "ParetoBurstProcess",
            "Phase",
            "PhasedProcess",
        ),
        ".scenarios.tracefmt": ("ScenarioTrace", "read_trace", "write_trace"),
        ".scenarios.workloads": (
            "bursty_workload",
            "closed_loop_workload",
            "pareto_workload",
            "phased_workload",
            "replayed_workload",
        ),
        ".topologies.registry": ("TOPOLOGY_NAMES", "get_topology"),
        ".traffic.workloads": (
            "full_column_workload",
            "hotspot_all_injectors",
            "tornado_workload",
            "uniform_workload",
            "workload1",
            "workload2",
        ),
    },
)
__all__.append("__version__")
