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

(or ``python -m repro ...`` without installation).  Each verb reads its
own flags, declared in the verb table (:func:`verb_table`); ``repro
<verb> [<action>] --help`` lists them, and a flag the verb does not
read exits 2.  An experiment
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
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import Executor


def _fault_injector(args):
    """The shared ``--chaos PLAN`` injector, built once per invocation.

    One injector must see every counter (lease grants, cache puts,
    shard runs, manifest saves) of the whole command, so the instance
    is cached on ``args`` and handed to the executor, the cache and the
    campaign runner alike.
    """
    if not args.chaos:
        return None
    if getattr(args, "_injector", None) is None:
        from repro.resilience import FaultInjector, load_plan

        args._injector = FaultInjector(load_plan(args.chaos))
    return args._injector


def _jobs(args, floor: int = 1) -> int:
    """``--jobs N`` as a worker count: ``0`` is every core; at least ``floor``."""
    import os

    return max(args.jobs or os.cpu_count() or 1, floor)


def _executor(args) -> Executor:
    """``--jobs 1`` → serial; ``--jobs 0`` → all cores; else N workers.

    ``--retries``/``--timeout``/``--chaos`` configure the parallel
    executor's broker and agents (deterministic retry policy, per-spec
    wall-clock budget, the command's fault injector, whose faults the
    broker stamps on each lease); they are inert under ``--jobs 1``,
    which must stay the honest serial baseline.

    ``--dispatch URL|DIR|local`` routes the batch through the
    lease-based broker/worker layer instead: an HTTP broker at a URL,
    or an in-process broker (``local``, or a directory that also
    receives sha256-addressed result artifacts).  The dispatch
    executor degrades to a local parallel executor when the broker is
    unreachable.  It is built once per command and journals under
    ``--journal``.
    """
    from repro.runtime.executor import ParallelExecutor, SerialExecutor

    if args.dispatch:
        if getattr(args, "_dispatch_executor", None) is None:
            from repro.dispatch import DispatchExecutor

            args._dispatch_executor = DispatchExecutor(
                None if args.dispatch == "local" else args.dispatch,
                jobs=_jobs(args), journal_dir=args.journal, **_supervision(args),
            )
        return args._dispatch_executor
    if args.jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=_jobs(args), **_supervision(args))


def _supervision(args) -> dict:
    """A parallel executor's ``--retries`` policy, ``--timeout`` and
    ``--chaos`` fault injector."""
    retry = None
    if args.retries:
        from repro.resilience import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries + 1)
    return {"retry": retry, "timeout": args.timeout, "faults": _fault_injector(args)}


def _observed(args, executor: Executor) -> Executor:
    """With ``--obs``, ``executor`` reporting to a
    :class:`~repro.obs.TelemetryRecorder` until :func:`_write_telemetry`
    flushes it — one recorder per target or campaign run."""
    if args.obs and getattr(args, "_telemetry", None) is None:
        from repro.obs import TelemetryRecorder

        args._telemetry = TelemetryRecorder(executor)
        executor.attach(args._telemetry)
    return executor


def _write_telemetry(args, path: str, **meta) -> None:
    """Flush the ``--obs`` telemetry recorder (if any runs happened)."""
    telemetry = getattr(args, "_telemetry", None)
    if telemetry is None:
        return
    from repro.obs import write_runtime_telemetry

    write_runtime_telemetry(path, telemetry.snapshot(), meta=meta)
    print(f"runtime telemetry written to {path}")
    telemetry.executor.detach(telemetry)
    args._telemetry = None


def _journal_writer(args, actor: str):
    """One journal writer per actor under the ``--journal DIR`` directory.

    Every actor (broker, workers, the campaign runner) appends to its
    own ``<actor>.journal.jsonl`` so ``repro fleet trace DIR`` can merge
    the set without any coordination between writers.
    """
    if not args.journal:
        return None
    from pathlib import Path

    from repro.obs.fleet import JournalWriter

    return JournalWriter(
        Path(args.journal) / f"{actor}.journal.jsonl", actor=actor
    )


def _journal_needs_dispatch(args) -> None:
    """A batch journals only through a ``--dispatch`` broker and its workers."""
    if args.journal and not args.dispatch:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            "--journal needs --dispatch: only the dispatch broker and its "
            "workers journal a batch"
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
    executor = _observed(args, _executor(args)) if simulated else None
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
    if cache is not None:
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


def _run_targets(args) -> int:
    """``repro <target> [<target> ...]``, ``repro report`` and ``repro all``:
    print each target's tables, then its wall-clock time."""
    import os

    from repro.campaign.stages import TARGETS
    from repro.errors import ConfigurationError

    _journal_needs_dispatch(args)
    targets = list(TARGETS) if args.verb == "all" else [args.verb, *args.more]
    # Checked here, not by argparse: a foreign flag's value lands among
    # the further targets, and the foreign flag must be what is named.
    unknown = [name for name in targets if name not in TARGETS and name != "report"]
    if unknown:
        raise ConfigurationError(
            f"unknown target(s): {', '.join(unknown)}; expected "
            f"{', '.join(TARGETS)} or report"
        )
    for target in targets:
        started = time.time()
        if args.profile:
            dump_path = os.path.join("profiles", f"profile_{target}.pstats")
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
                args, os.path.join(args.obs, f"telemetry_{target}.json"),
                target=target,
            )
        print(f"[{target}: {time.time() - started:.1f}s]\n")
    return 0


def _list(args) -> int:
    """``repro list``: each target with its kinds, then every other verb."""
    from repro.campaign.stages import TARGETS, get_adapter

    for target, kinds in TARGETS.items():
        for index, kind in enumerate(kinds):
            name = "" if index else target
            print(f"  {name:10s} {get_adapter(kind).description}")
    for verb, entry in VERBS.items():
        if verb not in ("list", "all"):
            print(f"  {verb:10s} {entry.help}")
    return 0


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


def _bench_points(args) -> int:
    """``repro bench engine|obs``: time the section's point matrix."""
    return _bench_section(
        args, regimes=_csv(args.regimes), topologies=_csv(args.topologies)
    )


def _bench_agents(args) -> int:
    """``repro bench runtime|journal``: time the section's executors."""
    return _bench_section(args, jobs=_jobs(args, floor=2))


def _bench_section(args, **options) -> int:
    """Time one section live, print its table, exit 1 on diverged
    results or a breached ceiling, and with ``--record PATH`` (``-`` =
    the section's BENCH file) merge its rows in."""
    from repro.runtime import bench

    def run():
        return bench.run_section(args.action, fast=args.fast, **options)

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
        section = bench.SECTION[args.action]
        path = section.filename if args.record == "-" else args.record
        bench.record(results, path)
        print(f"{args.action} rows recorded to {path}")
    return 0


def _bench_guard(args) -> int:
    """``repro bench guard`` — judge the committed BENCH files.

    Prints markdown tables (suitable for a CI job summary) and exits 1
    on any diverged row or breached floor/ceiling.  ``--record PATH``
    names the engine file (default ``BENCH_engine.json``); the runtime
    file is judged too when it exists in the current directory.
    """
    import os as _os

    from repro.runtime import bench

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


def _bench_history(args) -> int:
    """``repro bench history`` — guard-checked speedup trend tracking.

    Builds one record from the committed BENCH files (the guard's
    checks included), compares every floor metric against its
    trailing-window mean in ``BENCH_history.jsonl``, and with
    ``--record PATH`` (``-`` = the default history file) appends it.
    Exits 1 on guard violations or trend regressions.
    """
    import os as _os

    from repro.runtime import bench

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


def _scenario_spec(args, *, obs_dir: str | None = None):
    """Build the RunSpec described by the scenario command-line flags."""
    from repro.network.config import SimulationConfig
    from repro.runtime.spec import RunSpec

    return RunSpec(
        topology=args.topology,
        workload=args.workload,
        rate=args.rate,
        workload_params=_parse_scenario_params(args.param),
        policy=args.policy,
        config=SimulationConfig(frame_cycles=10_000, seed=args.seed),
        mode="run",
        cycles=args.cycles,
        warmup=args.warmup,
        obs=_obs_params(args, obs_dir) if obs_dir else (),
    )


def _scenario_list(args) -> int:
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


def _scenario_run(args) -> int:
    from repro.runtime.runner import run_batch

    _journal_needs_dispatch(args)
    spec = _scenario_spec(args, obs_dir=args.obs)
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
    return 0


def _scenario_record(args) -> int:
    """Run one scenario with injection capture; write the JSONL trace."""
    from repro.runtime.spec import capture_run
    from repro.scenarios import write_trace

    spec = _scenario_spec(args)
    trace = capture_run(spec)
    digest = write_trace(args.out, trace)
    print(f"recorded {len(trace.emissions)} emissions from "
          f"{spec.label()} to {args.out}")
    print(f"trace sha256: {digest}")
    print("replay with: repro scenario replay " + args.out)
    return 0


def _scenario_replay(args) -> int:
    """Re-inject a recorded trace as a cached replay spec; verify bit-exactness."""
    import os

    from repro.network.config import SimulationConfig
    from repro.runtime.runner import run_batch
    from repro.runtime.spec import RunSpec
    from repro.scenarios import file_sha256, read_trace

    _journal_needs_dispatch(args)
    path = args.trace
    trace = read_trace(path)
    source = trace.meta.get("source")
    if not source:
        print(f"trace {path} has no source metadata; cannot rebuild the run",
              file=sys.stderr)
        return 2
    spec = RunSpec(
        topology=source["topology"],
        workload="replay",
        # Absolute, so an agent or worker in another directory finds it.
        workload_params={"path": os.path.abspath(path), "sha256": file_sha256(path)},
        policy=source["policy"],
        config=SimulationConfig(**source["config"]),
        cycles=source["cycles"],
        warmup=source["warmup"],
    )
    [result] = run_batch([spec], executor=_executor(args), cache=_cache(args))
    expected = trace.meta.get("snapshot_sha256")
    print(f"replayed {len(trace.emissions)} emissions on "
          f"{source['topology']}/{source['policy']}")
    print(f"delivered {result.delivered_flits} flits, "
          f"mean latency {result.mean_latency:.1f} cyc")
    if expected is None:
        print("source snapshot digest missing; round trip not verified")
        return 0
    if result.snapshot_sha256 == expected:
        print(f"round trip bit-identical (snapshot sha256 {expected[:12]}...)")
        return 0
    print(f"ROUND TRIP DIVERGED: expected {expected}, got {result.snapshot_sha256}",
          file=sys.stderr)
    return 1


def _obs_record(args) -> int:
    """Run one scenario with full observability; write the artifact set."""
    from repro.runtime.spec import execute_spec

    spec = _scenario_spec(args, obs_dir=args.out)
    result = execute_spec(spec)
    print(f"{spec.label()}  [{spec.base_hash[:12]}]")
    print(_format_run_result(result))
    stem = spec.base_hash[:12]
    recorded = [f"{stem}.metrics.jsonl", f"{stem}.run.json"]
    if args.timeline:
        recorded.insert(1, f"{stem}.trace.json")
    print(f"recorded to {args.out}: " + ", ".join(recorded))
    print(f"view with: repro obs report {args.out}")
    if args.timeline:
        print("trace loads in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _obs_report(args) -> int:
    from repro.obs import render_report

    print(render_report(args.path))
    return 0


def _obs_timeline(args) -> int:
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

    path = args.path
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
        digest = execute_spec(spec).snapshot_sha256
        trace_name = f"{spec.base_hash[:12]}.trace.json"
        trace_path = os.path.join(out_dir, trace_name)
        events = len(validate_chrome_trace(trace_path)["traceEvents"])
        if digest == recorded["snapshot_sha256"]:
            print(f"{trace_name}: {events} events, snapshot digest verified "
                  f"({digest[:12]}...)")
        else:
            diverged = True
            print(f"{trace_name}: SNAPSHOT DIVERGED — recorded "
                  f"{recorded['snapshot_sha256'][:12]}..., regenerated "
                  f"{digest[:12]}...", file=sys.stderr)
    if diverged:
        return 1
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _campaign_dir(args) -> str:
    """``--campaign-dir`` override, else ``$REPRO_CAMPAIGN_DIR``/name,
    else ``campaigns/<name>`` under the working directory."""
    import os

    if args.campaign_dir:
        return args.campaign_dir
    base = os.environ.get("REPRO_CAMPAIGN_DIR", "campaigns")
    return os.path.join(base, args.name)


def _campaign_runner(args, **options):
    """The named campaign's runner over its state directory."""
    from repro.campaign import CampaignRunner, get_campaign

    return CampaignRunner(
        get_campaign(args.name), campaign_dir=_campaign_dir(args), **options
    )


def _campaign_list(args) -> int:
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


def _campaign_run(args) -> int:
    """``repro campaign run|resume <name>``: the only campaign actions
    that build an executor and a cache."""
    import os

    from repro.campaign import get_campaign
    from repro.errors import CampaignInterrupted

    name = args.name
    get_campaign(name)  # an unknown name fails before a journal is opened
    runner = _campaign_runner(
        args,
        executor=_observed(args, _executor(args)),
        cache=_cache(args),
        baseline_path=args.baseline,
        shard_retries=args.retries or 0,
        faults=_fault_injector(args),
        journal=_journal_writer(args, "campaign"),
    )

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
            progress=progress, require_manifest=args.action == "resume",
            heartbeat=heartbeat, stop_after=stop_after,
        )
    except CampaignInterrupted as stop:
        print(f"interrupted: {stop}")
        return 3
    if args.obs:
        _write_telemetry(
            args, os.path.join(args.obs, f"telemetry_{name}.json"),
            campaign=name,
        )
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


def _campaign_status(args) -> int:
    name = args.name
    runner = _campaign_runner(args)
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


def _campaign_watch(args) -> int:
    """``repro campaign watch <name>`` — live per-stage progress bars.

    Re-reads the on-disk manifest every ``--interval`` seconds and
    redraws the dashboard in place; on a non-TTY stream (CI logs,
    pipes) exactly one frame is printed.  The campaign itself runs in
    another process — watching never takes locks or mutates state.
    """
    from repro.obs.fleet import render_campaign_dashboard, watch

    name = args.name
    runner = _campaign_runner(args)

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


def _campaign_report(args) -> int:
    import json as _json

    from repro.campaign import update_baseline

    name = args.name
    runner = _campaign_runner(args, baseline_path=args.baseline)
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


def _campaign_diff(args) -> int:
    runner = _campaign_runner(args, baseline_path=args.baseline)
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
        print(f"campaign {args.name}: every stage matches the baseline")
        return 0
    return 1


def _chaos_plan(args) -> int:
    """Print a fault plan as JSON (or list the built-in plans)."""
    from repro.resilience import BUILTIN_PLANS, load_plan

    name = args.plan or args.chaos or "smoke"
    if name == "list":
        for plan_name, plan in sorted(BUILTIN_PLANS.items()):
            interrupt = plan.interrupt_after_shards
            print(f"{plan_name}: {len(plan.faults)} fault(s), "
                  f"interrupt_after_shards={interrupt}")
        return 0
    print(load_plan(name).dumps(), end="")
    return 0


def _chaos_run(args) -> int:
    """Run the three-leg chaos harness; exit 0 only on convergence.

    The chaos campaign runs in ``--out DIR`` (default
    ``chaos/<campaign>``), entirely separate from the regular campaign
    and cache directories — a chaos run must never corrupt real state —
    and each run starts its legs there afresh.
    Agent kill/hang faults need forked agents, so it runs at least two.
    """
    import os as _os

    from repro.resilience import run_chaos

    chaos_dir = args.out or _os.path.join("chaos", args.name)
    progress = None
    if args.progress:
        def progress(stage: str, done: int, total: int, event: str) -> None:
            print(f"  {stage}: {event} ({done}/{total})")
    report = run_chaos(
        args.name,
        chaos_dir=chaos_dir,
        plan=args.chaos,
        jobs=_jobs(args, floor=2),
        retries=2 if args.retries is None else args.retries,
        timeout=3.0 if args.timeout is None else args.timeout,
        progress=progress,
    )
    print(report.summary())
    print(f"report: {_os.path.join(chaos_dir, 'chaos_report.json')}")
    return 0 if report.converged else 1


def _doctor(args) -> int:
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


def _dispatch_serve(args) -> int:
    """Host a broker on localhost HTTP (foreground; ^C stops it)."""
    from repro.dispatch import Broker, BrokerServer
    from repro.resilience import RetryPolicy

    retries = 2 if args.retries is None else args.retries
    retry = RetryPolicy(max_attempts=retries + 1)
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


def _dispatch_work(args) -> int:
    """Run a worker agent against a broker URL, sharing the standard
    result cache so repeated specs answer from disk."""
    import os as _os

    from repro.dispatch import HttpTransport, WorkerAgent

    worker_id = args.worker_id or f"worker-{_os.getpid()}"
    agent = WorkerAgent(
        HttpTransport(args.url), worker_id=worker_id, cache=_cache(args),
        journal=_journal_writer(args, worker_id),
    )
    print(f"{worker_id} serving {args.url}")
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


def _dispatch_status(args) -> int:
    """Print the broker's counters and queue depths."""
    import json as _json

    from repro.dispatch import HttpTransport

    status = HttpTransport(args.url).call("status", {})
    print(_json.dumps(status, indent=2, sort_keys=True))
    return 0


def _fleet_status(args) -> int:
    """Render (or watch, or dump) one broker's metrics document."""
    import json as _json

    from repro.dispatch import HttpTransport
    from repro.obs.fleet import render_fleet_dashboard, watch

    url = args.url
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


def _fleet_trace(args) -> int:
    """Merge a journal directory into a Chrome trace; gate on soundness."""
    import os as _os

    from repro.obs.fleet import export_fleet_trace, journal_paths

    directory = args.directory
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


def _cache_info(args) -> int:
    from repro.runtime.cache import ResultCache

    info = ResultCache(args.cache_dir).info()
    print(f"cache root:     {info.root}")
    print(f"cache version:  v{info.version}")
    print(f"entries:        {info.entries}")
    print(f"total size:     {info.total_bytes} bytes")
    if info.other_versions:
        print(f"other versions: {', '.join(info.other_versions)}")
    return 0


def _cache_clear(args) -> int:
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    removed = cache.clear(all_versions=args.all_versions)
    scope = "all versions" if args.all_versions else f"v{cache.version}"
    print(f"removed {removed} cached result(s) ({scope})")
    return 0


def _policy_choices() -> list[str]:
    """Registered QoS policy names — the registry is the only source."""
    from repro.qos.registry import available_policies

    return list(available_policies())


def _count(text: str) -> int:
    """``type=`` for ``--jobs``/``--retries``: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _seconds(text: str) -> float:
    """``type=`` for ``--timeout``: a number of seconds > 0."""
    try:
        if float(text) > 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected seconds > 0, got {text!r}")


def _arguments() -> dict[str, dict]:
    """Every flag and positional, declared once by name: its argparse
    keywords.  Built per parser: ``--policy`` lists the policies
    registered at that moment."""
    return {
        # Experiment targets.
        "more": dict(nargs="*", metavar="TARGET",
                     help="further targets (or report) to run after this one"),
        "--fast": dict(action="store_true",
                       help="run at the smoke campaign's budgets"),
        "--seed": dict(type=int, default=1, help="deterministic seed"),
        "--chart": dict(action="store_true",
                        help="add ASCII charts where available"),
        "--profile": dict(action="store_true",
                          help="run under cProfile; print the top 20 entries "
                          "and dump the stats under profiles/"),
        "--obs": dict(default=None, metavar="DIR",
                      help="write each target's runtime telemetry JSON to DIR"),
        # Executor and result cache.
        "--jobs": dict(type=_count, default=1, metavar="N",
                       help="worker processes for simulation sweeps "
                       "(0 = all cores; default 1)"),
        "--cache-dir": dict(default=None, metavar="PATH",
                            help="result cache directory "
                            "(default $REPRO_CACHE_DIR or ~/.cache/repro)"),
        "--no-cache": dict(action="store_true",
                           help="always simulate; neither read nor write the "
                           "result cache"),
        "--retries": dict(type=_count, default=None, metavar="N",
                          help="retry budget: parallel runs retry crashed/"
                          "hung/erroring specs up to N times (charged per "
                          "attempt by the broker); campaign runs also retry "
                          "failing shards N times (default 0)"),
        "--timeout": dict(type=_seconds, default=None, metavar="SECONDS",
                          help="per-simulation wall-clock budget for parallel "
                          "runs: an agent running past it is killed and the "
                          "spec retried (default: no timeout)"),
        "--chaos": dict(default=None, metavar="PLAN",
                        help="activate a fault plan (built-in name or JSON "
                        "file; see 'repro chaos plan list') — injects "
                        "deterministic worker kills/hangs, spec/adapter "
                        "errors, cache corruption and torn manifest writes"),
        "--dispatch": dict(default=None, metavar="URL|DIR|local",
                           help="run batches through the lease-based broker/"
                           "worker layer: an HTTP broker URL (workers run "
                           "'repro dispatch work <url>'), a directory "
                           "(in-process broker + sha256-addressed result "
                           "artifacts), or 'local' (in-process broker)"),
        "--journal": dict(default=None, metavar="DIR",
                          help="journal lifecycle events: each actor (broker, "
                          "workers, campaign runner) appends to its own "
                          "<actor>.journal.jsonl under DIR; merge with "
                          "'repro fleet trace DIR'. A target's or scenario's "
                          "batch journals only through --dispatch"),
        # One scenario run.
        "workload": dict(help="a workload from 'repro scenario list'"),
        "--topology": dict(default="mecs", metavar="NAME",
                           help="topology to simulate (default mecs)"),
        "--policy": dict(default="pvc", choices=_policy_choices(),
                         help="QoS policy (default pvc)"),
        "--rate": dict(type=float, default=None, metavar="R",
                       help="per-injector rate in flits/cycle (peak rate for "
                       "bursty workloads)"),
        "--cycles": dict(type=int, default=4000, metavar="N",
                         help="cycles to simulate (default 4000)"),
        "--warmup": dict(type=int, default=0, metavar="N",
                         help="warmup cycles before measuring"),
        "--param": dict(action="append", metavar="KEY=VALUE",
                        help="workload parameter (repeatable), e.g. "
                        "--param on_cycles=50 --param pattern=tornado"),
        "--window": dict(type=int, default=None, metavar="N",
                         help="metrics window width in cycles (default 1000)"),
        "--timeline": dict(action="store_true",
                           help="also export the Chrome trace (packet "
                           "lifecycles + engine spans; open in Perfetto)"),
        "--out": dict(default=None, metavar="PATH", help="output path"),
        "trace": dict(help="a JSONL trace written by 'repro scenario record'"),
        "path": dict(help="an obs artifact directory or one *.run.json manifest"),
        # Campaigns.
        "name": dict(help="a campaign from 'repro campaign list'"),
        "--campaign-dir": dict(default=None, metavar="PATH",
                               help="campaign state directory (default "
                               "$REPRO_CAMPAIGN_DIR/<name> or campaigns/<name>)"),
        "--baseline": dict(default="CAMPAIGN_baseline.json", metavar="PATH",
                           help="committed baseline for the report card"),
        "--check": dict(action="store_true",
                        help="exit 1 unless every stage's report-card "
                        "verdict is 'pass'"),
        "--json": dict(action="store_true",
                       help="print the JSON report card instead of markdown"),
        "--update-baseline": dict(action="store_true",
                                  help="record the completed campaign's rows "
                                  "as the new baseline entries"),
        "--progress": dict(action="store_true",
                           help="print a heartbeat line per completed "
                           "simulation"),
        "--interval": dict(type=float, default=2.0, metavar="S",
                           help="refresh interval in seconds (default 2)"),
        # Benchmarks.
        "--record": dict(default=None, metavar="PATH",
                         help="merge the rows into this BENCH file "
                         "('-' = the section's own)"),
        "--regimes": dict(default=None, metavar="R1,R2",
                          help="only run points in these regimes (low_rate, "
                          "mid_rate, saturation, bursty, gsf_throttled)"),
        "--topologies": dict(default=None, metavar="T1,T2",
                             help="only run points on these topologies "
                             "(mesh_x1, mecs, dps, fbfly, ...)"),
        # Cache maintenance, chaos, dispatch and fleet.
        "--all-versions": dict(action="store_true",
                               help="drop entries of every package version"),
        "plan": dict(nargs="?",
                     help="a built-in plan, a JSON plan file, or 'list' "
                     "(default: --chaos, else smoke)"),
        "url": dict(help="the broker's URL, e.g. http://127.0.0.1:8137"),
        "--port": dict(type=int, default=0, metavar="N",
                       help="port to bind (default: ephemeral)"),
        "--lease-seconds": dict(type=float, default=30.0, metavar="S",
                                help="lease duration before an unheartbeated "
                                "claim is requeued (default 30)"),
        "--worker-id": dict(default=None, metavar="NAME",
                            help="worker name shown in broker leases"),
        "--max-tasks": dict(type=int, default=None, metavar="N",
                            help="exit after completing N tasks"),
        "--max-idle": dict(type=int, default=None, metavar="N",
                           help="exit after N consecutive empty claims "
                           "(default: poll forever)"),
        "--poll": dict(type=float, default=0.2, metavar="S",
                       help="idle poll interval in seconds"),
        "directory": dict(help="a --journal directory"),
        "--watch": dict(action="store_true",
                        help="keep redrawing the dashboard on a TTY "
                        "(one frame otherwise)"),
    }


def _flag(*spellings: str, **keywords) -> tuple[tuple[str, ...], dict]:
    """The argument ``spellings[0]``, spelled ``spellings``, with
    ``keywords`` over its declared ones for one command."""
    return spellings, keywords


@dataclass(frozen=True)
class Command:
    """One runnable command: its handler, its help line, and the
    arguments (names from :func:`_arguments`, or :func:`_flag`
    overrides) that some code path of the handler reads."""

    run: Callable[[argparse.Namespace], int]
    help: str
    reads: tuple = ()

    def declared(self):
        """``(spellings, keywords)`` of each argument the command reads."""
        for item in self.reads:
            yield ((item,), {}) if isinstance(item, str) else item


@dataclass(frozen=True)
class Verb:
    """A verb with actions; ``default`` runs when none is named."""

    help: str
    actions: dict[str, Command]
    default: str | None = None


#: Shared by every experiment target, ``all`` and ``report``.
EXPERIMENT_ARGS = ("--fast", "--seed", "--chart", "--profile", "--obs")
#: What ``_executor`` and ``_cache`` read.
EXECUTOR_ARGS = ("--jobs", "--cache-dir", "--no-cache", "--retries",
                 "--timeout", "--chaos", "--dispatch", "--journal")
#: What ``_scenario_spec`` reads.
RUN_SPEC_ARGS = ("workload", "--topology", "--policy", "--rate", "--cycles",
                 "--warmup", "--param", "--seed")
_TARGET_ARGS = (*EXPERIMENT_ARGS, *EXECUTOR_ARGS)
_BENCH_ARGS = (_flag("--fast", help="time the section's small matrix"),
               "--profile", "--record")
_BENCH_POINT_ARGS = (*_BENCH_ARGS, "--regimes", "--topologies")
_BENCH_AGENT_ARGS = (
    *_BENCH_ARGS, _flag("--jobs", help="agents (0 = all cores; at least 2)"),
)
_CAMPAIGN_RUN_ARGS = (
    "name", "--campaign-dir", *EXECUTOR_ARGS, "--baseline", "--check",
    "--progress",
    _flag("--obs", help="write the runtime telemetry JSON to "
          "DIR/telemetry_<name>.json"),
)

#: Every verb but the experiment targets (see :func:`verb_table`), in
#: ``repro list`` order; ``list`` prints the help of all but the first two.
VERBS: dict[str, Command | Verb] = {
    "list": Command(_list, "print every target and verb"),
    "all": Command(_run_targets, "run every experiment target", _TARGET_ARGS),
    "report": Command(_run_targets, "write what 'all' prints into REPORT.md",
                      ("more", *_TARGET_ARGS)),
    "cache": Verb("result cache maintenance: cache info | cache clear", {
        "info": Command(_cache_info, "print the result cache's statistics",
                        ("--cache-dir",)),
        "clear": Command(_cache_clear, "drop this version's cached results",
                         ("--cache-dir", "--all-versions")),
    }, default="info"),
    "bench": Verb(
        "engine benchmark vs golden reference: bench engine | guard | obs "
        "| runtime | journal | history", {
            "engine": Command(_bench_points, "time the engine against the "
                              "golden reference", _BENCH_POINT_ARGS),
            "obs": Command(_bench_points, "time probes off vs on vs the "
                           "golden reference", _BENCH_POINT_ARGS),
            "runtime": Command(_bench_agents, "time the serial vs the "
                               "parallel executors", _BENCH_AGENT_ARGS),
            "journal": Command(_bench_agents, "time dispatch with journaling "
                               "off vs on", _BENCH_AGENT_ARGS),
            "guard": Command(_bench_guard, "judge the committed BENCH files", (
                _flag("--record", help="the engine BENCH file to judge "
                      "(default BENCH_engine.json)"),
            )),
            "history": Command(_bench_history, "compare each speedup with its "
                               "trailing-window mean", (
                _flag("--record", help="append the entry to this history "
                      "file ('-' = BENCH_history.jsonl)"),
                _flag("--window", help="trailing entries each speedup is "
                      "compared with (default 5)"),
            )),
        }, default="engine"),
    "scenario": Verb(
        "scenario traffic: scenario list | run <wl> | record <wl> | replay "
        "<trace>", {
            "list": Command(_scenario_list, "print the scenario workloads"),
            "run": Command(_scenario_run, "run one scenario through the "
                           "runtime", (
                *RUN_SPEC_ARGS, *EXECUTOR_ARGS,
                _flag("--obs", help="record windowed metrics (and "
                      "--timeline traces) to DIR; bypasses the cache"),
                "--window", "--timeline",
            )),
            "record": Command(_scenario_record, "run one scenario; write its "
                              "injections as a JSONL trace", (
                *RUN_SPEC_ARGS,
                _flag("--out", required=True, help="the trace file to write"),
            )),
            "replay": Command(_scenario_replay, "re-inject a trace; verify "
                              "the run is bit-identical",
                              ("trace", *EXECUTOR_ARGS)),
        }, default="list"),
    "campaign": Verb(
        "resumable reproduction campaigns: campaign list | run <name> | "
        "status <name> | resume <name> | report <name> | diff <name> | "
        "watch <name>", {
            "list": Command(_campaign_list, "print the declared campaigns"),
            "run": Command(_campaign_run, "run a campaign, resuming any "
                           "checkpoint", _CAMPAIGN_RUN_ARGS),
            "status": Command(_campaign_status, "print each stage's manifest "
                              "state", ("name", "--campaign-dir")),
            "resume": Command(_campaign_run, "continue a campaign that has a "
                              "manifest", _CAMPAIGN_RUN_ARGS),
            "report": Command(_campaign_report, "print the report card", (
                "name", "--campaign-dir", "--baseline", "--check", "--json",
                "--update-baseline",
            )),
            "diff": Command(_campaign_diff, "print row-level deltas against "
                            "the baseline",
                            ("name", "--campaign-dir", "--baseline")),
            "watch": Command(_campaign_watch, "redraw per-stage progress bars",
                             ("name", "--campaign-dir", "--interval")),
        }, default="list"),
    "obs": Verb(
        "observability artifacts: obs record <wl> | report <path> | "
        "timeline <path>", {
            "record": Command(_obs_record, "run one scenario; record metrics "
                              "and a run manifest", (
                *RUN_SPEC_ARGS,
                _flag("--out", "--obs", required=True, metavar="DIR",
                      help="the artifact directory"),
                "--window", "--timeline",
            )),
            "report": Command(_obs_report, "print the windowed throughput/"
                              "latency report", ("path",)),
            "timeline": Command(_obs_timeline, "re-run recorded runs; verify "
                                "their digests and write Chrome traces",
                                ("path",)),
        }),
    "chaos": Verb(
        "deterministic fault injection: chaos run <campaign> | plan "
        "[name|list]", {
            "run": Command(_chaos_run, "run a campaign under a fault plan; "
                           "exit 0 only if it converges", (
                "name", "--chaos",
                _flag("--jobs", help="agents (0 = all cores; at least 2)"),
                _flag("--retries", help="retry budget (default 2)"),
                _flag("--timeout", help="per-simulation budget (default 3.0)"),
                _flag("--out", help="chaos state directory (default "
                      "chaos/<campaign>)"),
                _flag("--progress", help="print each stage event"),
            )),
            "plan": Command(_chaos_plan, "print a fault plan as JSON",
                            ("plan", "--chaos")),
        }),
    "doctor": Command(
        _doctor,
        "integrity check: verify cache blobs (and --campaign-dir "
        "artifacts), quarantine the corrupt", (
            "--cache-dir",
            _flag("--campaign-dir", help="also verify this campaign "
                  "directory's artifacts"),
            _flag("--check", help="exit 1 if anything is, or already was, "
                  "quarantined"),
        )),
    "dispatch": Verb(
        "distributed execution: dispatch serve | work <url> | status <url>", {
            "serve": Command(_dispatch_serve, "host a broker on localhost "
                             "HTTP", (
                "--port", "--lease-seconds",
                _flag("--retries", help="attempts per spec beyond the first "
                      "(default 2)"),
                "--journal",
            )),
            "work": Command(_dispatch_work, "run a worker agent against a "
                            "broker", (
                "url", "--worker-id", "--cache-dir", "--no-cache", "--chaos",
                "--journal", "--max-tasks", "--max-idle", "--poll",
            )),
            "status": Command(_dispatch_status, "print a broker's counters "
                              "and queues", ("url",)),
        }),
    "fleet": Verb(
        "fleet monitoring: fleet status <url> [--watch|--json] | "
        "trace <journal-dir> [--check]", {
            "status": Command(_fleet_status, "render a broker's fleet panel", (
                "url",
                _flag("--json", help="print the raw metrics document"),
                "--watch", "--interval",
            )),
            "trace": Command(_fleet_trace, "merge journals into one Chrome "
                             "trace", (
                "directory",
                _flag("--out", help="the merged trace (default "
                      "DIR/fleet_trace.json)"),
                _flag("--check", help="exit 1 if the merged timeline has "
                      "structural problems"),
            )),
        }),
}


def verb_table() -> dict[str, Command | Verb]:
    """Every verb: one per experiment target, then :data:`VERBS`."""
    from repro.campaign.stages import TARGETS, get_adapter

    targets = {
        target: Command(
            _run_targets,
            "; ".join(get_adapter(kind).description for kind in kinds),
            ("more", *_TARGET_ARGS),
        )
        for target, kinds in TARGETS.items()
    }
    return {**targets, **VERBS}


class _Choice(argparse._SubParsersAction):
    """Sub-command choice that declares a command's arguments only once
    the command is chosen, so a run builds the flags of one command, not
    of all 44; and that runs a verb's default action when none is named
    (``repro bench --fast`` is ``repro bench engine --fast``)."""

    def __init__(self, *args, defaults: dict[str, str] | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.defaults = defaults or {}
        self.undeclared: dict[str, Callable[[], None]] = {}

    def __call__(self, parser, namespace, values, option_string=None):
        name, *rest = values
        if name in self.defaults and (
            not rest or rest[0].startswith("-") and rest[0] not in ("-h", "--help")
        ):
            values = [name, self.defaults[name], *rest]
        declare = self.undeclared.pop(name, None)
        if declare is not None:
            declare()
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: one sub-parser per command of :func:`verb_table`,
    each declaring only the arguments its command reads."""
    arguments = _arguments()
    table = verb_table()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'Topology-aware QoS Support in "
        "Highly Integrated Chip Multiprocessors' (Grot et al., 2010).",
    )
    verbs = parser.add_subparsers(
        dest="verb", metavar="VERB", required=True, action=_Choice,
        defaults={verb: entry.default for verb, entry in table.items()
                  if isinstance(entry, Verb) and entry.default},
    )

    def add(choice: _Choice, name: str, command: Command, label: str) -> None:
        sub = choice.add_parser(name, help=command.help, description=command.help)
        sub.set_defaults(command=command, label=label, parser=sub)

        def declare() -> None:
            for names, keywords in command.declared():
                sub.add_argument(*names, **{**arguments[names[0]], **keywords})

        choice.undeclared[name] = declare

    for verb, entry in table.items():
        if isinstance(entry, Command):
            add(verbs, verb, entry, verb)
            continue
        actions = verbs.add_parser(
            verb, help=entry.help, description=entry.help
        ).add_subparsers(
            dest="action", metavar="ACTION", required=True, action=_Choice
        )
        for action, command in entry.actions.items():
            add(actions, action, command, f"{verb} {action}")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse, then call; returns a process exit code."""
    from repro.errors import ReproError

    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:  # the command's own usage lists the flags it reads
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as stop:  # 2 on a usage error, 0 after --help
        return stop.code
    try:
        return args.command.run(args)
    except (ReproError, OSError, ValueError, KeyError, TypeError) as error:
        # Bad input found past the parser (an unknown campaign, a
        # missing file, a trace whose meta lacks a key): a clean
        # message, not a traceback.
        detail = repr(error) if isinstance(error, KeyError) else error
        print(f"{args.label}: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
