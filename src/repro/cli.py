"""Command-line interface: regenerate any paper result from a shell.

Usage (after installation)::

    repro list                           # what can be run
    repro fig3                           # router area (Figure 3)
    repro fig4 --fast                    # latency curves (Figure 4)
    repro fig4 --jobs 0                  # ... across all CPU cores
    repro table2                         # hotspot fairness (Table 2)
    repro fig5 fig6 fig7                 # several at once
    repro saturation --no-cache          # force re-simulation
    repro ablations --jobs 4             # all design-choice studies
    repro all --fast                     # every target, smoke budgets
    repro report                         # ... written into REPORT.md
    repro cache info                     # result-cache statistics
    repro cache clear                    # drop this version's entries
    repro scenario list                  # scenario workloads + processes
    repro scenario run bursty --rate 0.3 # one scenario through the runtime
    repro scenario record bursty --rate 0.3 --out t.jsonl   # capture a trace
    repro scenario replay t.jsonl        # re-inject it; verify bit-equality
    repro burst                          # bursty-fairness study (extension)
    repro bench engine                   # engine vs golden-reference timings
    repro bench engine --record B.json   # ... and persist the baseline
    repro bench engine --regimes saturation --topologies mesh_x1,mecs
    repro bench guard                    # regression-check BENCH_*.json
    repro bench runtime                  # serial vs parallel executor timings
    repro fig4 --profile                 # cProfile top-20 for any target
    repro campaign list                  # declared reproduction campaigns
    repro campaign run paper --jobs 4    # the whole paper, resumably
    repro campaign resume paper          # continue after an interruption
    repro campaign status paper          # per-stage manifest state
    repro campaign report smoke --check  # report card; exit 1 unless pass
    repro campaign diff smoke            # row-level deltas vs the baseline
    repro campaign run paper --progress  # ... with a per-simulation heartbeat
    repro obs record bursty --rate 0.3 --out obs/   # run + record metrics
    repro obs record bursty --out obs/ --timeline   # ... plus Chrome trace
    repro obs report obs/                # windowed throughput/latency report
    repro obs timeline obs/              # regenerate + verify the trace
    repro bench obs                      # probe overhead: off vs on vs golden
    repro fig4 --obs obs/                # any target: runtime telemetry JSON
    repro scenario run bursty --obs obs/ # any scenario: record obs artifacts
    repro fig4 --jobs 4 --retries 2      # retry crashed/hung worker specs
    repro fig4 --jobs 4 --timeout 60     # per-simulation wall-clock budget
    repro campaign run paper --retries 2 # also retries failing shards
    repro chaos run smoke                # fault-injected campaign, verified
    repro chaos run smoke --dispatch local   # ... plus network-chaos legs
    repro chaos plan smoke               # print a fault plan as JSON
    repro doctor                         # cache integrity check (fsck)
    repro doctor --campaign-dir campaigns/smoke   # + campaign artifacts
    repro dispatch serve --port 8137     # host a broker on localhost HTTP
    repro dispatch work http://127.0.0.1:8137    # run a worker agent
    repro dispatch status http://127.0.0.1:8137  # broker queue/counters
    repro campaign run smoke --dispatch http://127.0.0.1:8137  # distributed
    repro fig4 --dispatch local          # any sweep through the broker
    repro fig4 --dispatch local --journal obs/fleet   # + event journals
    repro campaign run smoke --dispatch local --journal obs/fleet
    repro fleet trace obs/fleet --check  # merge journals -> Chrome trace
    repro fleet status http://127.0.0.1:8137 --watch  # live broker panel
    repro campaign watch smoke           # live per-stage progress bars
    repro bench journal                  # journal overhead: off vs on
    repro bench history --record -       # append guard results to history

(or ``python -m repro ...`` without installation).  An experiment
target runs its stage kinds from :mod:`repro.campaign.stages` at the
budgets of the ``paper`` campaign's stages, or of the ``smoke``
campaign's under ``--fast``; ``--seed`` changes the deterministic
seed.  Simulation-backed targets run through
:mod:`repro.runtime`: ``--jobs N`` fans points out over N worker
processes (``0`` = all cores), and results are cached under
``--cache-dir`` (default ``~/.cache/repro``) keyed by the run spec's
content hash, so repeating a sweep performs zero simulations.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import Executor


def _fault_injector(args):
    """The shared ``--chaos PLAN`` injector, built once per invocation.

    One injector must see every counter (cache puts, shard runs,
    manifest saves) of the whole command, so the instance is cached on
    ``args`` and handed to the executor, the cache and the campaign
    runner alike.
    """
    if not getattr(args, "chaos", None):
        return None
    if getattr(args, "_injector", None) is None:
        from repro.resilience import FaultInjector, load_plan

        args._injector = FaultInjector(load_plan(args.chaos))
    return args._injector


def _executor(args) -> Executor:
    """``--jobs 1`` → serial; ``--jobs 0`` → all cores; else N workers.

    ``--retries``/``--timeout``/``--chaos`` configure the parallel
    executor's broker and agents (deterministic retry policy, per-spec
    wall-clock budget, fault plan); they are inert under ``--jobs 1``,
    which must stay the honest serial baseline.

    ``--dispatch URL|DIR|local`` routes the batch through the
    lease-based broker/worker layer instead: an HTTP broker at a URL,
    or an in-process broker (``local``, or a directory that also
    receives sha256-addressed result artifacts).  The dispatch
    executor degrades to a local parallel executor when the broker is
    unreachable.

    With ``--obs`` the executor is wrapped in a recording
    :class:`~repro.obs.TelemetryExecutor` (one wrapper per target, so
    every ``_executor`` call inside one command shares its counters);
    the collected snapshot is written as JSON when the target finishes.
    """
    from repro.runtime.executor import ParallelExecutor, SerialExecutor

    if getattr(args, "dispatch", None):
        import os as _os

        from repro.dispatch import DispatchExecutor

        retry = None
        if getattr(args, "retries", None):
            from repro.resilience import RetryPolicy

            retry = RetryPolicy(max_attempts=args.retries + 1)
        injector = _fault_injector(args)
        if getattr(args, "_dispatch_executor", None) is None:
            args._dispatch_executor = DispatchExecutor(
                None if args.dispatch == "local" else args.dispatch,
                jobs=(args.jobs if args.jobs >= 1 else (_os.cpu_count() or 2)),
                retry=retry,
                timeout=getattr(args, "timeout", None),
                fault_plan=injector.plan if injector is not None else None,
                journal_dir=getattr(args, "journal", None),
            )
        inner: Executor = args._dispatch_executor
    elif args.jobs == 1:
        inner = SerialExecutor()
    else:
        retry = None
        if getattr(args, "retries", None):
            from repro.resilience import RetryPolicy

            retry = RetryPolicy(max_attempts=args.retries + 1)
        injector = _fault_injector(args)
        inner = ParallelExecutor(
            jobs=None if args.jobs == 0 else args.jobs,
            retry=retry,
            timeout=getattr(args, "timeout", None),
            fault_plan=injector.plan if injector is not None else None,
        )
    if getattr(args, "obs", None):
        from repro.obs import TelemetryExecutor

        if getattr(args, "_telemetry", None) is None:
            args._telemetry = TelemetryExecutor(inner)
        return args._telemetry
    return inner


def _write_telemetry(args, path: str, **meta) -> None:
    """Flush the ``--obs`` telemetry wrapper (if any runs happened)."""
    telemetry = getattr(args, "_telemetry", None)
    if telemetry is None:
        return
    from repro.obs import write_runtime_telemetry

    write_runtime_telemetry(path, telemetry.snapshot(), meta=meta)
    print(f"runtime telemetry written to {path}")
    args._telemetry = None


def _journal_writer(args, actor: str):
    """One journal writer per actor under the ``--journal DIR`` directory.

    Every actor (broker, workers, the campaign runner) appends to its
    own ``<actor>.journal.jsonl`` so ``repro fleet trace DIR`` can merge
    the set without any coordination between writers.
    """
    if not getattr(args, "journal", None):
        return None
    from pathlib import Path

    from repro.obs.fleet import JournalWriter

    return JournalWriter(
        Path(args.journal) / f"{actor}.journal.jsonl", actor=actor
    )


def _cache(args) -> ResultCache | None:
    from repro.runtime.cache import ResultCache

    if args.no_cache:
        return None
    cache = ResultCache(args.cache_dir)
    injector = _fault_injector(args)
    if injector is not None:
        cache.put_hook = injector.on_cache_put
    return cache


def _stage_params(kind: str, fast: bool) -> dict:
    """Base params of ``kind``'s stage in the ``paper`` campaign, or in
    ``smoke`` under ``--fast``; a kind in neither runs at its defaults.

    The built-in shard overlays only split ``topology_names`` and join
    up to the base set, so one batch over the base params yields every
    shard's rows, in order.
    """
    from repro.campaign import get_campaign

    for stage in get_campaign("smoke" if fast else "paper").stages:
        if stage.kind == kind:
            return dict(stage.params)
    return {}


def _run_target(args, target: str) -> str:
    """Run every stage kind of an experiment target; render its rows."""
    from repro.campaign.stages import TARGETS, get_adapter

    if target == "report":
        return _write_report(args)
    kinds = TARGETS[target]
    simulated = any(get_adapter(kind).simulated for kind in kinds)
    executor = _executor(args) if simulated else None
    cache = _cache(args) if simulated else None
    tables = []
    for kind in kinds:
        # Looked up per call: perfbench swaps an adapter's ``run``.
        rows = get_adapter(kind).run(
            _stage_params(kind, args.fast), seed=args.seed,
            executor=executor, cache=cache,
        )
        tables.append(get_adapter(kind).format(rows))
        if args.chart and kind == "fig4":
            from repro.analysis.experiments.fig4_latency import uniform_chart

            tables[-1] += "\n\n" + uniform_chart(rows)
    text = "\n\n".join(tables)
    if cache is not None and cache.hits + cache.misses:
        # Cache writes are fresh simulations; hits were served from disk.
        text += f"\n[runtime: {cache.writes} simulated, {cache.hits} cached]"
    return text


#: Where ``repro report`` writes.
REPORT_PATH = "REPORT.md"


def _write_report(args) -> str:
    """Write what ``repro all`` prints into REPORT.md, a section per target."""
    from repro.campaign.stages import TARGETS

    mode = "fast (smoke budgets)" if args.fast else "full (paper budgets)"
    sections = [
        "# Reproduction report — Topology-aware QoS (Grot et al., 2010)",
        "",
        f"mode: {mode}  |  seed: {args.seed}",
        "",
    ]
    for target in TARGETS:
        sections.append(f"## {target}\n\n```\n{_run_target(args, target)}\n```\n")
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))
    return f"report written to {REPORT_PATH}"


def _profiled(fn, *fn_args, dump_path=None):
    """Run ``fn`` under cProfile; return (result, top-20 report).

    ``dump_path`` additionally saves the raw profile for offline
    analysis (``python -m pstats <path>``, snakeviz, gprof2dot, ...);
    dumps live under the git-ignored ``profiles/`` directory so they
    never end up committed next to the reports.
    """
    import cProfile
    import io
    import os as _os
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    result = fn(*fn_args)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    if dump_path:
        directory = _os.path.dirname(_os.fspath(dump_path))
        if directory:
            _os.makedirs(directory, exist_ok=True)
        stats.dump_stats(dump_path)
    stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    return result, buffer.getvalue().rstrip()


def _csv(value: str | None) -> tuple[str, ...] | None:
    """Split a comma-separated CLI filter into a tuple (None = no filter)."""
    if value is None:
        return None
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _run_bench(args) -> int:
    """``repro bench engine|obs|runtime|journal|guard|history``.

    A section verb times that section live, prints its table, exits 1
    on diverged results or a breached ceiling, and with ``--record
    PATH`` (``-`` = the section's BENCH file) merges its rows in.
    """
    from repro.runtime import bench

    action = args.targets[1] if len(args.targets) > 1 else "engine"
    if action == "guard":
        return _run_bench_guard(args, bench)
    if action == "history":
        return _run_bench_history(args, bench)
    section = bench.SECTION.get(action)
    if section is None or section.run is None:
        print(f"unknown bench action {action!r}; expected engine, obs, "
              "runtime, journal, guard or history", file=sys.stderr)
        return 2

    def run():
        return bench.run_section(
            action, fast=args.fast, jobs=args.jobs if args.jobs > 1 else 2,
            regimes=_csv(args.regimes), topologies=_csv(args.topologies),
        )

    if args.profile:
        import os as _os

        dump_path = _os.path.join("profiles", "profile_bench.pstats")
        results, report = _profiled(run, dump_path=dump_path)
        print(report)
        print(f"pstats dump written to {dump_path}")
        print()
    else:
        results = run()
    if not results:
        print("no benchmark points match the given filters", file=sys.stderr)
        return 2
    text, failures = bench.report_results(results)
    print(text)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.record:
        path = section.filename if args.record == "-" else args.record
        bench.record(results, path)
        print(f"{action} rows recorded to {path}")
    return 0


def _run_bench_guard(args, bench) -> int:
    """``repro bench guard`` — judge the committed BENCH files.

    Prints markdown tables (suitable for a CI job summary) and exits 1
    on any diverged row or breached floor/ceiling.  ``--record PATH``
    names the engine file (default ``BENCH_engine.json``); the runtime
    file is judged too when it exists in the current directory.
    """
    import os as _os

    files = [(args.record or bench.BENCH_ENGINE_FILENAME,
              bench.BENCH_ENGINE_FILENAME)]
    if _os.path.exists(bench.RUNTIME_BENCH_FILENAME):
        files.append((bench.RUNTIME_BENCH_FILENAME,
                      bench.RUNTIME_BENCH_FILENAME))
    violations = []
    for index, (path, filename) in enumerate(files):
        try:
            found, data = bench.guard_file(path, filename)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {path!r}: {error}", file=sys.stderr)
            return 2
        print(("\n" if index else "") + bench.format_file(data, filename))
        violations += found
    if violations:
        print("\n**Regressions detected:**")
        print("\n".join(f"- {violation}" for violation in violations))
    return 1 if violations else 0


def _run_bench_history(args, bench) -> int:
    """``repro bench history`` — guard-checked speedup trend tracking.

    Builds one record from the committed BENCH files (the guard's
    checks included), compares every floor metric against its
    trailing-window mean in ``BENCH_history.jsonl``, and with
    ``--record PATH`` (``-`` = the default history file) appends it.
    Exits 1 on guard violations or trend regressions.
    """
    import os as _os

    history_path = (args.record if args.record and args.record != "-"
                    else bench.BENCH_HISTORY_FILENAME)
    runtime = bench.RUNTIME_BENCH_FILENAME
    try:
        entry = bench.bench_history_entry(
            bench.BENCH_ENGINE_FILENAME,
            runtime if _os.path.exists(runtime) else None)
        history = bench.load_bench_history(history_path)
    except (OSError, ValueError) as error:
        print(f"bench history: {error}", file=sys.stderr)
        return 2
    window = args.window or bench.HISTORY_WINDOW
    flags = bench.flag_history_regressions(history + [entry], window=window)
    print(bench.format_bench_history(history + [entry], flags))
    if args.record:
        bench.append_bench_history(history_path, entry)
        print(f"history entry appended to {history_path}")
    for violation in entry["violations"]:
        print(f"ERROR: {violation}", file=sys.stderr)
    return 1 if entry["violations"] or flags else 0


def _parse_scenario_params(pairs: list[str] | None) -> dict:
    """Parse repeated ``--param key=value`` flags into JSON scalars."""
    import json as _json

    params: dict = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"--param needs key=value, got {pair!r}")
        try:
            value = _json.loads(raw)
        except _json.JSONDecodeError:
            value = raw  # bare strings (e.g. pattern names) stay strings
        if not isinstance(value, (str, int, float, bool, type(None))):
            # Structured values (e.g. the phased workload's phases
            # array) stay JSON-encoded strings — that is the scalar
            # form the spec registry hashes.
            value = raw
        params[key] = value
    return params


def _obs_params(args, out_dir: str) -> dict:
    """The spec-level obs mapping for ``--obs DIR``/``--window``/``--timeline``."""
    from repro.obs import DEFAULT_WINDOW

    return {
        "window": args.window or DEFAULT_WINDOW,
        "timeline": bool(args.timeline),
        "out_dir": out_dir,
    }


def _scenario_spec(args, workload: str, *, obs_dir: str | None = None):
    """Build the RunSpec described by the scenario command-line flags."""
    from repro.network.config import SimulationConfig
    from repro.runtime.spec import RunSpec

    return RunSpec(
        topology=args.topology,
        workload=workload,
        rate=args.rate,
        workload_params=_parse_scenario_params(args.param),
        policy=args.policy,
        config=SimulationConfig(frame_cycles=10_000, seed=args.seed),
        mode="run",
        cycles=args.cycles,
        warmup=args.warmup,
        obs=_obs_params(args, obs_dir) if obs_dir else (),
    )


def _run_scenario(args) -> int:
    """``repro scenario list|run|record|replay`` — scenario traffic."""
    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else "list"
    try:
        if action == "list":
            return _scenario_list()
        if action in ("run", "record"):
            if len(args.targets) < 3:
                print(f"usage: repro scenario {action} <workload> [flags]",
                      file=sys.stderr)
                return 2
            if action == "run":
                return _scenario_run(args, args.targets[2])
            return _scenario_record(args, args.targets[2])
        if action == "replay":
            if len(args.targets) < 3:
                print("usage: repro scenario replay <trace.jsonl>",
                      file=sys.stderr)
                return 2
            return _scenario_replay(args, args.targets[2])
    except (ReproError, ValueError, OSError, KeyError, TypeError) as error:
        # KeyError/TypeError cover malformed user input that surfaces
        # past spec validation (e.g. a trace whose meta lacks a key, a
        # non-integer hotspot target) — a clean message, not a traceback.
        print(f"scenario {action}: {error!r}" if isinstance(error, KeyError)
              else f"scenario {action}: {error}", file=sys.stderr)
        return 2
    print(f"unknown scenario action {action!r}; "
          "expected list, run, record or replay", file=sys.stderr)
    return 2


def _scenario_list() -> int:
    from repro.runtime.spec import SCENARIO_WORKLOADS, WORKLOAD_BUILDERS

    print("scenario workloads (repro scenario run <name> ...):")
    for name, description in SCENARIO_WORKLOADS.items():
        entry = WORKLOAD_BUILDERS[name]
        knobs = ", ".join(sorted(entry.allowed_params)) or "-"
        print(f"  {name:14s} {description}")
        print(f"  {'':14s}   rate: {entry.rate}; params: {knobs}")
    print("classic workloads (also runnable/recordable):")
    for name in WORKLOAD_BUILDERS:
        if name not in SCENARIO_WORKLOADS:
            print(f"  {name}")
    print("example: repro scenario run bursty --rate 0.3 "
          "--param on_cycles=50 --param off_cycles=150")
    return 0


def _format_run_result(result) -> str:
    return (
        f"delivered {result.delivered_flits} flits "
        f"({result.delivered_packets} packets, "
        f"{result.created_packets} created); "
        f"mean latency {result.mean_latency:.1f} cyc; "
        f"{result.preemption_events} preemptions, {result.replays} replays"
    )


def _scenario_run(args, workload: str) -> int:
    from repro.runtime.runner import run_batch

    spec = _scenario_spec(args, workload, obs_dir=args.obs)
    # Obs runs bypass the cache: a cache hit would skip the simulation
    # and leave no artifacts behind.
    cache = None if args.obs else _cache(args)
    batch = run_batch([spec], executor=_executor(args), cache=cache)
    print(f"{spec.label()}  [{spec.content_hash[:12]}]")
    print(_format_run_result(batch.results[0]))
    print(f"[runtime: {batch.manifest.summary()}]")
    if args.obs:
        print(f"obs artifacts in {args.obs} (stem {spec.base_hash[:12]}); "
              f"view with: repro obs report {args.obs}")
        args._telemetry = None  # single spec: the batch log adds nothing
    return 0


def _scenario_record(args, workload: str) -> int:
    """Run one scenario with injection capture; write the JSONL trace."""
    from repro.network.engine import ColumnSimulator
    from repro.network.trace import InjectionCapture
    from repro.runtime.spec import POLICIES, build_flows
    from repro.scenarios import capture_to_trace, snapshot_digest, write_trace
    from repro.topologies.registry import get_topology

    if not args.out:
        print("scenario record needs --out PATH for the trace file",
              file=sys.stderr)
        return 2
    spec = _scenario_spec(args, workload)
    simulator = ColumnSimulator(
        get_topology(spec.topology).build(spec.config),
        build_flows(spec),
        POLICIES[spec.policy](),
        spec.config,
    )
    capture = InjectionCapture()
    capture.attach(simulator)
    simulator.run(spec.cycles, warmup=spec.warmup)
    trace = capture_to_trace(
        capture,
        simulator.flows,
        meta={
            "source": spec.to_json(),
            "snapshot_sha256": snapshot_digest(simulator.stats.snapshot()),
        },
    )
    digest = write_trace(args.out, trace)
    print(f"recorded {len(trace.emissions)} emissions from "
          f"{spec.label()} to {args.out}")
    print(f"trace sha256: {digest}")
    print("replay with: repro scenario replay " + args.out)
    return 0


def _scenario_replay(args, path: str) -> int:
    """Re-inject a recorded trace; verify the round trip is bit-exact."""
    from repro.network.config import SimulationConfig
    from repro.network.engine import ColumnSimulator
    from repro.runtime.spec import POLICIES
    from repro.scenarios import read_trace, replayed_workload, snapshot_digest
    from repro.topologies.registry import get_topology

    trace = read_trace(path)
    source = trace.meta.get("source")
    if not source:
        print(f"trace {path} has no source metadata; cannot rebuild the run",
              file=sys.stderr)
        return 2
    config = SimulationConfig(**source["config"])
    simulator = ColumnSimulator(
        get_topology(source["topology"]).build(config),
        replayed_workload(trace),
        POLICIES[source["policy"]](),
        config,
    )
    simulator.run(source["cycles"], warmup=source["warmup"])
    digest = snapshot_digest(simulator.stats.snapshot())
    expected = trace.meta.get("snapshot_sha256")
    print(f"replayed {len(trace.emissions)} emissions on "
          f"{source['topology']}/{source['policy']}")
    stats = simulator.stats
    print(f"delivered {stats.delivered_flits} flits, "
          f"mean latency {stats.mean_latency:.1f} cyc")
    if expected is None:
        print("source snapshot digest missing; round trip not verified")
        return 0
    if digest == expected:
        print(f"round trip bit-identical (snapshot sha256 {digest[:12]}...)")
        return 0
    print(f"ROUND TRIP DIVERGED: expected {expected}, got {digest}",
          file=sys.stderr)
    return 1


def _run_obs(args) -> int:
    """``repro obs record|report|timeline`` — observability artifacts."""
    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else None
    try:
        if action == "record":
            if len(args.targets) < 3:
                print("usage: repro obs record <workload> --out DIR "
                      "[--window N] [--timeline] [scenario flags]",
                      file=sys.stderr)
                return 2
            return _obs_record(args, args.targets[2])
        if action in ("report", "timeline"):
            if len(args.targets) < 3:
                print(f"usage: repro obs {action} <dir-or-file>",
                      file=sys.stderr)
                return 2
            if action == "report":
                return _obs_report(args.targets[2])
            return _obs_timeline(args.targets[2])
    except (ReproError, OSError, ValueError, KeyError) as error:
        print(f"obs {action}: {error!r}" if isinstance(error, KeyError)
              else f"obs {action}: {error}", file=sys.stderr)
        return 2
    print(f"unknown obs action {action!r}; expected record, report or "
          "timeline", file=sys.stderr)
    return 2


def _obs_record(args, workload: str) -> int:
    """Run one scenario with full observability; write the artifact set."""
    from repro.runtime.spec import execute_spec

    out_dir = args.out or args.obs
    if not out_dir:
        print("obs record needs --out DIR (or --obs DIR) for the artifacts",
              file=sys.stderr)
        return 2
    spec = _scenario_spec(args, workload, obs_dir=out_dir)
    result = execute_spec(spec)
    print(f"{spec.label()}  [{spec.base_hash[:12]}]")
    print(_format_run_result(result))
    stem = spec.base_hash[:12]
    recorded = [f"{stem}.metrics.jsonl", f"{stem}.run.json"]
    if args.timeline:
        recorded.insert(1, f"{stem}.trace.json")
    print(f"recorded to {out_dir}: " + ", ".join(recorded))
    print(f"view with: repro obs report {out_dir}")
    if args.timeline:
        print("trace loads in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _obs_report(path: str) -> int:
    from repro.obs import render_report

    print(render_report(path))
    return 0


def _obs_timeline(path: str) -> int:
    """Regenerate the Chrome trace for recorded runs; verify bit-equality.

    ``path`` is an obs artifact directory (every ``*.run.json`` in it)
    or one run manifest.  Each run is re-executed from its embedded
    spec with the timeline forced on; the refreshed artifacts land on
    the same ``base_hash`` stem, and the new stats-snapshot digest must
    match the recorded one — a divergence means the engine no longer
    reproduces the run the metrics describe.
    """
    import glob as _glob
    import os

    from repro.errors import ConfigurationError
    from repro.obs import read_run, validate_chrome_trace
    from repro.runtime.spec import RunSpec, execute_spec

    if os.path.isdir(path):
        manifests = sorted(_glob.glob(os.path.join(path, "*run.json")))
        if not manifests:
            raise ConfigurationError(f"no *run.json manifests under {path!r}")
    elif os.path.isfile(path):
        manifests = [path]
    else:
        raise ConfigurationError(f"no such file or directory: {path!r}")
    diverged = False
    for run_path in manifests:
        recorded = read_run(run_path)
        out_dir = os.path.dirname(run_path) or "."
        payload = dict(recorded["spec"])
        obs = dict(payload.get("obs") or {})
        obs.setdefault("window", recorded["window_cycles"])
        obs["timeline"] = True
        obs["out_dir"] = out_dir
        payload["obs"] = obs
        spec = RunSpec.from_json(payload)
        execute_spec(spec)
        refreshed = read_run(run_path)
        trace_name = next(
            name for name in refreshed["files"] if name.endswith("trace.json")
        )
        trace_path = os.path.join(out_dir, trace_name)
        events = len(validate_chrome_trace(trace_path)["traceEvents"])
        if refreshed["snapshot_sha256"] == recorded["snapshot_sha256"]:
            print(f"{trace_name}: {events} events, snapshot digest verified "
                  f"({recorded['snapshot_sha256'][:12]}...)")
        else:
            diverged = True
            print(f"{trace_name}: SNAPSHOT DIVERGED — recorded "
                  f"{recorded['snapshot_sha256'][:12]}..., regenerated "
                  f"{refreshed['snapshot_sha256'][:12]}...", file=sys.stderr)
    if diverged:
        return 1
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _campaign_dir(args, name: str) -> str:
    """``--campaign-dir`` override, else ``$REPRO_CAMPAIGN_DIR``/name,
    else ``campaigns/<name>`` under the working directory."""
    import os

    if args.campaign_dir:
        return args.campaign_dir
    base = os.environ.get("REPRO_CAMPAIGN_DIR", "campaigns")
    return os.path.join(base, name)


def _campaign_runner(args, name: str):
    from repro.campaign import CampaignRunner, get_campaign

    return CampaignRunner(
        get_campaign(name),
        campaign_dir=_campaign_dir(args, name),
        executor=_executor(args),
        cache=_cache(args),
        baseline_path=args.baseline,
        shard_retries=args.retries or 0,
        faults=_fault_injector(args),
        journal=_journal_writer(args, "campaign"),
    )


def _run_campaign(args) -> int:
    """``repro campaign list|run|status|resume|report|diff``."""
    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else "list"
    if args.seed != 1 or args.fast:
        # Seeds and budgets participate in every stage hash and in the
        # committed baseline; accepting them here would silently run a
        # different campaign than the one the baseline vouches for.
        print("campaign: --seed/--fast do not apply; seeds and budgets "
              "are pinned in the campaign spec (see repro campaign list)",
              file=sys.stderr)
        return 2
    try:
        if action == "list":
            return _campaign_list()
        if action not in ("run", "status", "resume", "report", "diff",
                          "watch"):
            print(f"unknown campaign action {action!r}; expected list, run, "
                  "status, resume, report, diff or watch", file=sys.stderr)
            return 2
        if len(args.targets) < 3:
            print(f"usage: repro campaign {action} <name> [flags]",
                  file=sys.stderr)
            return 2
        name = args.targets[2]
        if action in ("run", "resume"):
            return _campaign_run(args, name, resume=action == "resume")
        if action == "status":
            return _campaign_status(args, name)
        if action == "watch":
            return _campaign_watch(args, name)
        if action == "report":
            return _campaign_report(args, name)
        return _campaign_diff(args, name)
    except (ReproError, OSError, ValueError) as error:
        print(f"campaign {action}: {error}", file=sys.stderr)
        return 2


def _campaign_list() -> int:
    from repro.campaign import CAMPAIGNS, get_adapter

    for name, campaign in CAMPAIGNS.items():
        print(f"{name}: {campaign.description}")
        print(f"  seed {campaign.seed}, drift tolerance "
              f"{campaign.drift_tolerance:g}, {len(campaign.stages)} stages:")
        for stage in campaign.stages:
            adapter = get_adapter(stage.kind)
            deps = f" <- {', '.join(stage.depends_on)}" if stage.depends_on else ""
            shards = f" [{stage.shard_count} shards]" if stage.shard_count > 1 else ""
            print(f"    {stage.name:22s} {adapter.description}{shards}{deps}")
    print("run with: repro campaign run <name> [--jobs N] [--check]")
    return 0


def _campaign_run(args, name: str, *, resume: bool) -> int:
    from repro.errors import CampaignInterrupted

    runner = _campaign_runner(args, name)

    def progress(stage: str, done: int, total: int, event: str) -> None:
        if event == "reused":
            print(f"  {stage}: complete (served from manifest)")
        elif event == "shard":
            print(f"  {stage}: shard {done}/{total} checkpointed")
        elif event == "retry":
            print(f"  {stage}: shard {done}/{total} failed; retrying")
        elif event == "complete":
            print(f"  {stage}: complete")
        else:
            print(f"  {stage}: FAILED")

    heartbeat = None
    if args.progress:
        from repro.obs import heartbeat_printer

        heartbeat = heartbeat_printer()

    injector = _fault_injector(args)
    stop_after = injector.stop_hook() if injector is not None else None
    print(f"campaign {name} -> {runner.dir}")
    try:
        result = runner.run(
            progress=progress, require_manifest=resume, heartbeat=heartbeat,
            stop_after=stop_after,
        )
    except CampaignInterrupted as stop:
        print(f"interrupted: {stop}")
        return 3
    if args.obs:
        _write_telemetry(args, str(runner.dir / "telemetry.json"),
                         campaign=name)
    report = result.report
    print(f"report card: {runner.dir / 'report.md'}")
    print(f"overall: {report.overall} "
          + " ".join(f"{k}={v}" for k, v in sorted(report.counts().items())))
    if result.failed_stages:
        print(f"failed stages: {', '.join(result.failed_stages)}",
              file=sys.stderr)
        return 1
    if args.check and not report.passed:
        print("--check: report-card verdicts are not all 'pass'",
              file=sys.stderr)
        return 1
    return 0


def _campaign_status(args, name: str) -> int:
    runner = _campaign_runner(args, name)
    manifest = runner.status()
    if manifest is None:
        print(f"campaign {name}: never run (no manifest in {runner.dir})")
        return 0
    print(f"campaign {name} in {runner.dir} "
          f"(engine {manifest.get('engine')}, seed {manifest.get('seed')})")
    for stage in runner.campaign.stages:
        entry = manifest["stages"].get(stage.name)
        if entry is None:
            print(f"  {stage.name:22s} pending")
            continue
        shards = entry.get("shards") or []
        done = sum(1 for shard in shards
                   if shard and shard.get("status") == "complete")
        digest = entry.get("artifact_sha256") or ""
        print(f"  {stage.name:22s} {entry.get('status', 'pending'):9s} "
              f"shards {done}/{len(shards)}  rows {entry.get('rows', 0):4d}  "
              f"{entry.get('elapsed_seconds', 0.0):6.1f}s  {digest[:12]}")
        for record in entry.get("failed_specs") or []:
            print(f"    failed spec: {record.get('label', '?')} "
                  f"({record.get('spec_hash', '')[:12]}) "
                  f"{record.get('kind', '?')} attempt "
                  f"{record.get('attempt', 0)}: "
                  f"{record.get('detail', '')[:80]}")
    dispatch = (manifest.get("telemetry", {}).get("resilience", {})
                .get("dispatch"))
    if dispatch:
        print("  dispatch: "
              + " ".join(f"{k}={v}" for k, v in sorted(dispatch.items())))
    return 0


def _campaign_watch(args, name: str) -> int:
    """``repro campaign watch <name>`` — live per-stage progress bars.

    Re-reads the on-disk manifest every ``--interval`` seconds and
    redraws the dashboard in place; on a non-TTY stream (CI logs,
    pipes) exactly one frame is printed.  The campaign itself runs in
    another process — watching never takes locks or mutates state.
    """
    from repro.obs.fleet import render_campaign_dashboard, watch

    runner = _campaign_runner(args, name)

    def frame() -> str:
        manifest = runner.status()
        if manifest is None:
            return f"campaign {name}: never run (no manifest in {runner.dir})"
        return render_campaign_dashboard(manifest, title=name)

    try:
        watch(frame, interval=args.interval)
    except KeyboardInterrupt:
        print()
    return 0


def _campaign_report(args, name: str) -> int:
    import json as _json

    from repro.campaign import update_baseline

    runner = _campaign_runner(args, name)
    if args.update_baseline:
        entries = runner.baseline_entries()
        update_baseline(args.baseline, name, entries)
        print(f"baseline for campaign {name!r} ({len(entries)} stages) "
              f"written to {args.baseline}")
    report = runner.report()
    if args.json:
        print(_json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        print(report.to_markdown())
    if args.check and not report.passed:
        return 1
    return 0


def _campaign_diff(args, name: str) -> int:
    runner = _campaign_runner(args, name)
    report = runner.report()
    clean = True
    for stage in report.stages:
        if stage.verdict == "pass":
            continue
        clean = False
        print(f"{stage.name}: {stage.verdict} — {stage.detail}")
        for mismatch in stage.mismatches:
            print(f"  {mismatch}")
    if clean:
        print(f"campaign {name}: every stage matches the baseline")
        return 0
    return 1


def _run_chaos(args) -> int:
    """``repro chaos run <campaign> | plan [name]`` — reproducible chaos."""
    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else None
    try:
        if action == "plan":
            return _chaos_plan(args)
        if action == "run":
            if len(args.targets) < 3:
                print("usage: repro chaos run <campaign> [--chaos PLAN] "
                      "[--jobs N] [--retries N] [--timeout S] [--out DIR]",
                      file=sys.stderr)
                return 2
            return _chaos_run(args, args.targets[2])
    except (ReproError, OSError, ValueError) as error:
        print(f"chaos {action}: {error}", file=sys.stderr)
        return 2
    print(f"unknown chaos action {action!r}; expected run or plan",
          file=sys.stderr)
    return 2


def _chaos_plan(args) -> int:
    """Print a fault plan as JSON (or list the built-in plans)."""
    from repro.resilience import BUILTIN_PLANS, load_plan

    name = args.targets[2] if len(args.targets) > 2 else (args.chaos or "smoke")
    if name == "list":
        for plan_name, plan in sorted(BUILTIN_PLANS.items()):
            interrupt = plan.interrupt_after_shards
            print(f"{plan_name}: {len(plan.faults)} fault(s), "
                  f"interrupt_after_shards={interrupt}")
        return 0
    print(load_plan(name).dumps(), end="")
    return 0


def _chaos_run(args, name: str) -> int:
    """Run the three-leg chaos harness; exit 0 only on convergence.

    The chaos campaign runs in ``--out DIR`` (default
    ``chaos/<campaign>``), entirely separate from the regular campaign
    and cache directories — a chaos run must never corrupt real state.
    """
    import os as _os

    from repro.resilience import run_chaos

    jobs = args.jobs
    if jobs == 0:
        jobs = _os.cpu_count() or 2
    if jobs < 2:
        jobs = 2  # agent kill/hang faults need forked agents
    chaos_dir = args.out or _os.path.join("chaos", name)
    progress = None
    if args.progress:
        def progress(stage: str, done: int, total: int, event: str) -> None:
            print(f"  {stage}: {event} ({done}/{total})")
    report = run_chaos(
        name,
        chaos_dir=chaos_dir,
        plan=args.chaos,
        jobs=jobs,
        retries=2 if args.retries is None else args.retries,
        timeout=3.0 if args.timeout is None else args.timeout,
        dispatch=args.dispatch is not None,
        progress=progress,
    )
    print(report.summary())
    print(f"report: {_os.path.join(chaos_dir, 'chaos_report.json')}")
    return 0 if report.converged else 1


def _run_doctor(args) -> int:
    """``repro doctor`` — verify every cache blob; sweep write debris.

    Corrupt blobs are moved to the quarantine directory (the evidence
    survives for inspection; the results recompute on demand).  With
    ``--campaign-dir`` the sha256-addressed campaign artifacts are
    verified against their manifest digests too, quarantining
    mismatches.  With ``--check`` the exit code is 1 whenever anything
    is, or already was, quarantined.
    """
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    report = cache.fsck()
    print(f"cache root: {cache.root} (v{cache.version})")
    print(f"checked {report.checked} blob(s): {report.ok} ok, "
          f"{len(report.quarantined)} quarantined, "
          f"{report.orphan_tmp_removed} orphaned tmp file(s) removed")
    for blob_name in report.quarantined:
        print(f"  quarantined: {blob_name}")
    held = (
        sorted(cache.quarantine_dir.glob("*.json"))
        if cache.quarantine_dir.is_dir()
        else []
    )
    if held:
        print(f"quarantine holds {len(held)} blob(s) under "
              f"{cache.quarantine_dir}:")
        for path in held[:20]:
            print(f"  {path.name}")
        if len(held) > 20:
            print(f"  ... and {len(held) - 20} more")
        print("quarantined results recompute on demand; delete the "
              "directory once inspected")
    else:
        print("cache is healthy")
    campaign_bad = False
    if args.campaign_dir:
        from repro.campaign import fsck_campaign

        campaign_report = fsck_campaign(args.campaign_dir)
        print(f"campaign artifacts: {args.campaign_dir} "
              f"(campaign {campaign_report.campaign!r})")
        print(f"checked {campaign_report.checked} artifact(s): "
              f"{campaign_report.ok} ok, "
              f"{len(campaign_report.quarantined)} quarantined, "
              f"{len(campaign_report.missing)} missing")
        for name in campaign_report.quarantined:
            print(f"  quarantined: {name}")
        for name in campaign_report.missing:
            print(f"  missing: {name}")
        if campaign_report.unrecorded:
            print(f"  {len(campaign_report.unrecorded)} file(s) not "
                  "recorded in the manifest (stale stage hashes or "
                  "debris; left alone)")
        if campaign_report.healthy:
            print("campaign artifacts are healthy")
        else:
            print("quarantined/missing stages re-run on the next "
                  "'campaign run'")
            campaign_bad = True
    if args.check and (report.quarantined or held or campaign_bad):
        print("--check: corrupt blobs were found", file=sys.stderr)
        return 1
    return 0


def _run_dispatch(args) -> int:
    """``repro dispatch serve | work <url> | status <url>``.

    ``serve`` hosts a broker on localhost HTTP (foreground; ^C stops
    it).  ``work`` runs a worker agent against a broker URL, sharing
    the standard result cache so repeated specs answer from disk.
    ``status`` prints the broker's counters and queue depths.
    """
    import json as _json

    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else None
    try:
        if action == "serve":
            from repro.dispatch import Broker, BrokerServer
            from repro.resilience import RetryPolicy

            retry = RetryPolicy(max_attempts=(args.retries or 2) + 1)
            broker = Broker(
                lease_seconds=args.lease_seconds, retry=retry,
                journal=_journal_writer(args, "broker"),
            )
            server = BrokerServer(broker, port=args.port)
            print(f"broker listening on {server.url} "
                  f"(lease {args.lease_seconds:g}s); ^C to stop")
            if args.journal:
                print(f"journaling lifecycle events under {args.journal}")
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("\nbroker stopped")
            return 0
        if action in ("work", "status"):
            if len(args.targets) < 3:
                print(f"usage: repro dispatch {action} <broker-url>",
                      file=sys.stderr)
                return 2
            url = args.targets[2]
            from repro.dispatch import HttpTransport

            if action == "status":
                status = HttpTransport(url).call("status", {})
                print(_json.dumps(status, indent=2, sort_keys=True))
                return 0
            import os as _os

            from repro.dispatch import WorkerAgent

            worker_id = args.worker_id or f"worker-{_os.getpid()}"
            agent = WorkerAgent(
                HttpTransport(url), worker_id=worker_id, cache=_cache(args),
                journal=_journal_writer(args, worker_id),
            )
            print(f"{worker_id} serving {url}")
            try:
                counters = agent.run(
                    max_tasks=args.max_tasks,
                    max_idle=args.max_idle,
                    poll_seconds=args.poll,
                )
            except KeyboardInterrupt:
                counters = dict(agent.counters)
            print(f"{worker_id} done: "
                  + " ".join(f"{k}={v}" for k, v in sorted(counters.items())))
            return 0
    except (ReproError, OSError, ValueError) as error:
        print(f"dispatch {action}: {error}", file=sys.stderr)
        return 2
    print(f"unknown dispatch action {action!r}; expected serve, work or "
          "status", file=sys.stderr)
    return 2


def _run_fleet(args) -> int:
    """``repro fleet status <url> | trace <journal-dir>``.

    ``status`` polls a broker's ``/metrics`` document and renders the
    plain-text fleet panel (``--watch`` keeps refreshing it on a TTY;
    ``--json`` dumps the raw document for scripts).  ``trace`` merges a
    ``--journal`` directory's per-actor journals into one Perfetto
    trace and runs the structural checker over the merged timeline.
    """
    from repro.errors import ReproError

    action = args.targets[1] if len(args.targets) > 1 else None
    try:
        if action == "status":
            if len(args.targets) < 3:
                print("usage: repro fleet status <broker-url> "
                      "[--watch] [--json] [--interval S]", file=sys.stderr)
                return 2
            return _fleet_status(args, args.targets[2])
        if action == "trace":
            if len(args.targets) < 3:
                print("usage: repro fleet trace <journal-dir> "
                      "[--out PATH] [--check]", file=sys.stderr)
                return 2
            return _fleet_trace(args, args.targets[2])
    except (ReproError, OSError, ValueError) as error:
        print(f"fleet {action}: {error}", file=sys.stderr)
        return 2
    print(f"unknown fleet action {action!r}; expected status or trace",
          file=sys.stderr)
    return 2


def _fleet_status(args, url: str) -> int:
    """Render (or watch, or dump) one broker's metrics document."""
    import json as _json

    from repro.dispatch import HttpTransport
    from repro.obs.fleet import render_fleet_dashboard, watch

    transport = HttpTransport(url)
    if args.json:
        print(_json.dumps(transport.call("metrics", {}), indent=2,
                          sort_keys=True))
        return 0

    def frame() -> str:
        doc = transport.call("metrics", {})
        journaling = " [journaling]" if doc.get("journaling") else ""
        return render_fleet_dashboard(
            doc, title=f"fleet @ {url} (engine {doc.get('engine')})"
        ) + journaling

    if not args.watch:
        print(frame())
        return 0
    try:
        watch(frame, interval=args.interval)
    except KeyboardInterrupt:
        print()
    return 0


def _fleet_trace(args, directory: str) -> int:
    """Merge a journal directory into a Chrome trace; gate on soundness."""
    import os as _os

    from repro.obs.fleet import export_fleet_trace, journal_paths

    out = args.out or _os.path.join(directory, "fleet_trace.json")
    count = len(journal_paths(directory))
    digest, problems = export_fleet_trace(directory, out)
    print(f"merged {count} journal(s) from {directory} into {out}")
    print(f"trace sha256: {digest}")
    if problems:
        for problem in problems:
            print(f"  problem: {problem}", file=sys.stderr)
        if args.check:
            print(f"--check: {len(problems)} structural problem(s) in the "
                  "merged timeline", file=sys.stderr)
            return 1
    else:
        print("timeline structurally sound (every span anchored and closed)")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _run_cache(args) -> int:
    """``repro cache [info|clear]`` — inspect or empty the result store."""
    from repro.runtime.cache import ResultCache

    action = args.targets[1] if len(args.targets) > 1 else "info"
    cache = ResultCache(args.cache_dir)
    if action == "info":
        info = cache.info()
        print(f"cache root:     {info.root}")
        print(f"cache version:  v{info.version}")
        print(f"entries:        {info.entries}")
        print(f"total size:     {info.total_bytes} bytes")
        if info.other_versions:
            print(f"other versions: {', '.join(info.other_versions)}")
        return 0
    if action == "clear":
        removed = cache.clear(all_versions=args.all_versions)
        scope = "all versions" if args.all_versions else f"v{cache.version}"
        print(f"removed {removed} cached result(s) ({scope})")
        return 0
    print(f"unknown cache action {action!r}; expected info or clear",
          file=sys.stderr)
    return 2


#: Listed after the experiment targets; all but ``report`` take a
#: sub-action instead of producing a result table.
REPORT_COMMAND_HELP = "write what 'all' prints into REPORT.md"
CACHE_COMMAND_HELP = "result cache maintenance: cache info | cache clear"
CAMPAIGN_COMMAND_HELP = (
    "resumable reproduction campaigns: campaign list | run <name> | "
    "status <name> | resume <name> | report <name> | diff <name> | "
    "watch <name>"
)
BENCH_COMMAND_HELP = (
    "engine benchmark vs golden reference: bench engine | guard | obs "
    "| runtime | journal | history"
)
CHAOS_COMMAND_HELP = (
    "deterministic fault injection: chaos run <campaign> | plan [name|list]"
)
DOCTOR_COMMAND_HELP = (
    "integrity check: verify cache blobs (and --campaign-dir "
    "artifacts), quarantine the corrupt"
)
DISPATCH_COMMAND_HELP = (
    "distributed execution: dispatch serve | work <url> | status <url>"
)
SCENARIO_COMMAND_HELP = (
    "scenario traffic: scenario list | run <wl> | record <wl> | replay <trace>"
)
OBS_COMMAND_HELP = (
    "observability artifacts: obs record <wl> | report <path> | "
    "timeline <path>"
)
FLEET_COMMAND_HELP = (
    "fleet monitoring: fleet status <url> [--watch|--json] | "
    "trace <journal-dir> [--check]"
)


def _policy_choices() -> list[str]:
    """Registered QoS policy names — the registry is the only source."""
    from repro.qos.registry import available_policies

    return list(available_policies())


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.campaign.stages import TARGETS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'Topology-aware QoS Support in "
        "Highly Integrated Chip Multiprocessors' (Grot et al., 2010).",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="experiments to run: " + ", ".join(TARGETS)
        + ", report, cache, 'all', or 'list'",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="run experiment targets at the smoke campaign's budgets",
    )
    parser.add_argument("--seed", type=int, default=1, help="deterministic seed")
    parser.add_argument(
        "--chart", action="store_true", help="add ASCII charts where available"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation sweeps (0 = all cores; default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result cache directory (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always simulate; neither read nor write the result cache",
    )
    parser.add_argument(
        "--all-versions", action="store_true",
        help="with 'cache clear': drop entries of every package version",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the target under cProfile and print the top 20 entries",
    )
    campaign = parser.add_argument_group("campaign options")
    campaign.add_argument(
        "--campaign-dir", default=None, metavar="PATH",
        help="with 'campaign run/...': campaign state directory "
        "(default $REPRO_CAMPAIGN_DIR/<name> or campaigns/<name>)",
    )
    campaign.add_argument(
        "--baseline", default="CAMPAIGN_baseline.json", metavar="PATH",
        help="with 'campaign ...': committed baseline for the report card",
    )
    campaign.add_argument(
        "--check", action="store_true",
        help="with 'campaign run/report': exit non-zero unless every "
        "stage's report-card verdict is 'pass'; with 'fleet trace': "
        "exit non-zero when the merged timeline has structural problems",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="with 'campaign report': print the JSON report card "
        "instead of markdown",
    )
    campaign.add_argument(
        "--update-baseline", action="store_true",
        help="with 'campaign report': record the completed campaign's "
        "rows as the new baseline entries",
    )
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="with 'bench engine|obs|runtime|journal': merge rows into "
        "this BENCH file ('-' = the section's own); with 'bench guard': "
        "the engine file to check; with 'bench history': the history file",
    )
    parser.add_argument(
        "--regimes", default=None, metavar="R1,R2",
        help="with 'bench engine|obs': only run points in these regimes "
        "(low_rate, mid_rate, saturation, bursty, gsf_throttled)",
    )
    parser.add_argument(
        "--topologies", default=None, metavar="T1,T2",
        help="with 'bench engine|obs': only run points on these topologies "
        "(mesh_x1, mecs, dps, fbfly, ...)",
    )
    scenario = parser.add_argument_group("scenario options")
    scenario.add_argument(
        "--topology", default="mecs", metavar="NAME",
        help="with 'scenario run/record': topology to simulate (default mecs)",
    )
    scenario.add_argument(
        "--policy", default="pvc", choices=_policy_choices(),
        help="with 'scenario run/record': QoS policy (default pvc)",
    )
    scenario.add_argument(
        "--rate", type=float, default=None, metavar="R",
        help="with 'scenario run/record': per-injector rate in flits/cycle "
        "(peak rate for bursty workloads)",
    )
    scenario.add_argument(
        "--cycles", type=int, default=4000, metavar="N",
        help="with 'scenario run/record': cycles to simulate (default 4000)",
    )
    scenario.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="with 'scenario run/record': warmup cycles before measuring",
    )
    scenario.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="with 'scenario run/record': workload parameter (repeatable), "
        "e.g. --param on_cycles=50 --param pattern=tornado",
    )
    scenario.add_argument(
        "--out", default=None, metavar="PATH",
        help="with 'scenario record': where to write the JSONL trace; "
        "with 'obs record': the artifact directory; with 'fleet "
        "trace': the merged Chrome-trace output path",
    )
    obs = parser.add_argument_group("observability options")
    obs.add_argument(
        "--obs", default=None, metavar="DIR",
        help="record observability data: scenario runs write windowed "
        "metrics (and --timeline traces) to DIR; experiment targets "
        "write runtime telemetry JSON to DIR; 'campaign run' writes "
        "telemetry.json into the campaign directory",
    )
    obs.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="with --obs/'obs record': metrics window width in cycles "
        "(default 1000); with 'bench history': trailing entries "
        "compared against (default 5)",
    )
    obs.add_argument(
        "--timeline", action="store_true",
        help="with --obs/'obs record': also export the Chrome trace "
        "(packet lifecycles + engine spans; open in Perfetto)",
    )
    obs.add_argument(
        "--progress", action="store_true",
        help="with 'campaign run/resume': print a heartbeat line per "
        "completed simulation",
    )
    dispatch = parser.add_argument_group("dispatch options")
    dispatch.add_argument(
        "--dispatch", default=None, metavar="URL|DIR|local",
        help="run batches through the lease-based broker/worker layer: "
        "an HTTP broker URL (workers run 'repro dispatch work <url>'), "
        "a directory (in-process broker + sha256-addressed result "
        "artifacts), or 'local' (in-process broker, no artifacts); "
        "with 'chaos run': add the network-fault dispatch legs",
    )
    dispatch.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="with 'dispatch serve': port to bind (default: ephemeral)",
    )
    dispatch.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="S",
        help="with 'dispatch serve': lease duration before an "
        "unheartbeated claim is requeued (default 30)",
    )
    dispatch.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="with 'dispatch work': exit after completing N tasks",
    )
    dispatch.add_argument(
        "--max-idle", type=int, default=None, metavar="N",
        help="with 'dispatch work': exit after N consecutive empty "
        "claims (default: poll forever)",
    )
    dispatch.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="with 'dispatch work': idle poll interval in seconds",
    )
    dispatch.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="with 'dispatch work': worker name shown in broker leases",
    )
    fleet = parser.add_argument_group("fleet observability options")
    fleet.add_argument(
        "--journal", default=None, metavar="DIR",
        help="journal every dispatch/campaign lifecycle event: each "
        "actor (broker, workers, campaign runner) appends to its own "
        "<actor>.journal.jsonl under DIR; merge and inspect with "
        "'repro fleet trace DIR'",
    )
    fleet.add_argument(
        "--watch", action="store_true",
        help="with 'fleet status': keep redrawing the dashboard on a "
        "TTY (one frame otherwise)",
    )
    fleet.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="with --watch/'campaign watch': refresh interval in "
        "seconds (default 2)",
    )
    resilience = parser.add_argument_group("resilience options")
    resilience.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry budget: parallel runs retry crashed/hung/erroring "
        "specs up to N times (charged per attempt by the broker); campaign "
        "runs additionally retry failing shards N times (default 0; "
        "'chaos run' defaults to 2)",
    )
    resilience.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-simulation wall-clock budget for parallel runs: an "
        "agent running past it is killed and the spec retried "
        "(default: no timeout; 'chaos run' defaults to 3.0)",
    )
    resilience.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="activate a fault plan (built-in name or JSON file; see "
        "'repro chaos plan list') — injects deterministic worker "
        "kills/hangs, spec/adapter errors, cache corruption and torn "
        "manifest writes into the run",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    targets = list(args.targets)
    if args.jobs < 0:
        print("--jobs must be >= 0", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be > 0 seconds", file=sys.stderr)
        return 2
    if "scenario" in targets:
        if targets[0] != "scenario":
            print("'scenario' must be the first target: "
                  "repro scenario list|run|record|replay", file=sys.stderr)
            return 2
        if len(targets) > 3:
            print(f"unexpected arguments after scenario action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_scenario(args)
    if "campaign" in targets:
        if targets[0] != "campaign":
            print("'campaign' must be the first target: repro campaign "
                  "list|run|status|resume|report|diff", file=sys.stderr)
            return 2
        if len(targets) > 3:
            print(f"unexpected arguments after campaign action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_campaign(args)
    # Keyed on the first target only: "obs" is also a valid *second*
    # target of bench ("repro bench obs").
    if targets[0] == "obs":
        if len(targets) > 3:
            print(f"unexpected arguments after obs action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_obs(args)
    if targets[0] == "chaos":
        if len(targets) > 3:
            print(f"unexpected arguments after chaos action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_chaos(args)
    if targets[0] == "doctor":
        if len(targets) > 1:
            print(f"unexpected arguments after doctor: "
                  f"{' '.join(targets[1:])}", file=sys.stderr)
            return 2
        return _run_doctor(args)
    if targets[0] == "dispatch":
        if len(targets) > 3:
            print(f"unexpected arguments after dispatch action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_dispatch(args)
    if targets[0] == "fleet":
        if len(targets) > 3:
            print(f"unexpected arguments after fleet action: "
                  f"{' '.join(targets[3:])}", file=sys.stderr)
            return 2
        return _run_fleet(args)
    from repro.campaign.stages import TARGETS, get_adapter

    if "list" in targets:
        for target, kinds in TARGETS.items():
            for index, kind in enumerate(kinds):
                name = "" if index else target
                print(f"  {name:10s} {get_adapter(kind).description}")
        print(f"  {'report':10s} {REPORT_COMMAND_HELP}")
        print(f"  {'cache':10s} {CACHE_COMMAND_HELP}")
        print(f"  {'bench':10s} {BENCH_COMMAND_HELP}")
        print(f"  {'scenario':10s} {SCENARIO_COMMAND_HELP}")
        print(f"  {'campaign':10s} {CAMPAIGN_COMMAND_HELP}")
        print(f"  {'obs':10s} {OBS_COMMAND_HELP}")
        print(f"  {'chaos':10s} {CHAOS_COMMAND_HELP}")
        print(f"  {'doctor':10s} {DOCTOR_COMMAND_HELP}")
        print(f"  {'dispatch':10s} {DISPATCH_COMMAND_HELP}")
        print(f"  {'fleet':10s} {FLEET_COMMAND_HELP}")
        return 0
    if "cache" in targets:
        if targets[0] != "cache":
            print("'cache' must be the first target: repro cache [info|clear]",
                  file=sys.stderr)
            return 2
        if len(targets) > 2:
            print(f"unexpected arguments after cache action: "
                  f"{' '.join(targets[2:])}", file=sys.stderr)
            return 2
        return _run_cache(args)
    if "bench" in targets:
        if targets[0] != "bench":
            print("'bench' must be the first target: repro bench engine",
                  file=sys.stderr)
            return 2
        if len(targets) > 2:
            print(f"unexpected arguments after bench action: "
                  f"{' '.join(targets[2:])}", file=sys.stderr)
            return 2
        return _run_bench(args)
    if "all" in targets:
        targets = list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS and t != "report"]
    if unknown:
        print(f"unknown target(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(TARGETS)}, report, cache, bench, "
              "scenario, campaign, obs, chaos, doctor, dispatch, fleet, all, "
              "list", file=sys.stderr)
        return 2
    import os as _os

    for target in targets:
        started = time.time()
        if args.profile:
            dump_path = _os.path.join("profiles", f"profile_{target}.pstats")
            output, report = _profiled(
                _run_target, args, target, dump_path=dump_path
            )
            print(output)
            print()
            print(f"--- cProfile top 20 (cumulative) for {target} ---")
            print(report)
            print(f"pstats dump written to {dump_path}")
        else:
            print(_run_target(args, target))
        if args.obs:
            _write_telemetry(
                args, _os.path.join(args.obs, f"telemetry_{target}.json"),
                target=target,
            )
        print(f"[{target}: {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
