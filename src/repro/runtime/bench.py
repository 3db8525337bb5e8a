"""Bench registry: every ``repro bench`` section, recorded and guarded once.

A *section* is one kind of bench record: ``engine``, ``obs``,
``runtime``, ``journal`` or ``sweeps`` (docs/performance.md tables
them).  Each times the same work two or more ways, checks that every
way produced identical results (a benchmark that silently changed
answers would be worse than useless), and records timings plus ratios
into a committed BENCH file.  :data:`SECTIONS` declares only what
differs between them; running, recording (load, merge, write), the
guard, history flattening and the console/markdown tables are written
once over it.  A live ``repro bench <section>`` run fails only on
diverged results or a breached ceiling (floors are too noisy for one
run); ``repro bench guard`` judges the committed rows against every
floor and ceiling.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.topologies.registry import get_topology
from repro.traffic.workloads import full_column_workload, offered_load

#: Committed BENCH files at the repository root.
BENCH_ENGINE_FILENAME = "BENCH_engine.json"
RUNTIME_BENCH_FILENAME = "BENCH_runtime.json"
BENCH_HISTORY_FILENAME = "BENCH_history.jsonl"


@dataclass(frozen=True)
class EnginePoint:
    """One benchmark point: a workload pinned to one simulation regime."""

    name: str
    topology: str
    rate: float
    cycles: int
    warmup: int = 0
    regime: str = "low_rate"  # or "mid_rate", "saturation", "bursty", ...
    workload: str = "full_column"  # or "bursty" (scenario on/off sources)
    policy: str = "pvc"  # any registered QoS policy name
    config: SimulationConfig = field(
        default_factory=lambda: SimulationConfig(frame_cycles=2000, seed=3)
    )

    def flows(self):
        if self.workload == "bursty":
            from repro.scenarios import bursty_workload
            from repro.traffic.patterns import hotspot

            # Bursty hotspot: every burst oversubscribes node 0's
            # ejection port, so the point exercises the saturated
            # blocked-port machinery *and* the idle-gap skipping.
            return bursty_workload(self.rate, pattern=hotspot(0))
        return full_column_workload(self.rate)


def default_points(*, fast: bool = False) -> tuple[EnginePoint, ...]:
    """The committed benchmark matrix (``fast`` shrinks cycle budgets).

    Covers every shared-column topology at saturation (where the
    figure-4/5/6 sweeps spend most of their wall-clock), the low-rate
    left edge of the latency curves, and a mid-rate knee point.
    """
    low_cycles, low_warmup = (1500, 300) if fast else (6000, 1500)
    mid_cycles, mid_warmup = (1200, 300) if fast else (4000, 1000)
    sat_cycles = 800 if fast else 3000
    return (
        EnginePoint("low_rate_mecs_0p01", "mecs", 0.01, low_cycles, low_warmup,
                    regime="low_rate"),
        EnginePoint("low_rate_mesh_x1_0p01", "mesh_x1", 0.01, low_cycles,
                    low_warmup, regime="low_rate"),
        EnginePoint("mid_rate_mesh_x1_0p10", "mesh_x1", 0.10, mid_cycles,
                    mid_warmup, regime="mid_rate"),
        EnginePoint("saturation_mecs_0p30", "mecs", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_mesh_x1_0p30", "mesh_x1", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_dps_0p30", "dps", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_fbfly_0p30", "fbfly", 0.30, sat_cycles,
                    regime="saturation"),
        # Non-stationary regime (scenarios subsystem): on/off sources
        # that saturate during bursts and go silent between them, so
        # both the hot path and the cycle skipper matter at once.
        EnginePoint("bursty_saturation", "mecs", 0.60, sat_cycles * 2,
                    regime="bursty", workload="bursty"),
        # Frame-throttled regime (GSF policy): short frames against a
        # saturating load park most packets on future frame windows, so
        # the engine alternates between dense drains at each boundary
        # and budget-exhausted gaps the cycle skipper must leap without
        # overshooting the next admissible release.
        EnginePoint("gsf_throttled_mecs_0p30", "mecs", 0.30, sat_cycles,
                    regime="gsf_throttled", policy="gsf",
                    config=SimulationConfig(frame_cycles=500, seed=3)),
    )


@dataclass(frozen=True)
class BenchResult:
    """One measured row of a section, exactly as it is recorded.

    The row's fields read as attributes (``result.speedup``,
    ``result.stats_equal``); ``point`` is the engine point it timed.
    """

    section: str
    name: str
    row: dict
    point: EnginePoint | None = None

    def __getattr__(self, key: str):
        row = self.__dict__.get("row", {})
        if key in row:
            return row[key]
        raise AttributeError(key)


#: The name ``repro.runtime`` exports for engine results.
EngineResult = BenchResult


def bench_result(
    section: str, name: str, timings: dict[str, float],
    equal: bool | None = None, *, point: EnginePoint | None = None,
    **descriptors,
) -> BenchResult:
    """Build a section row: descriptors, timings, ratios, equality, host.

    The recording host's CPU count travels with the row, so a floor
    that clamps on single-core hosts judges each row by its own host.
    """
    spec = SECTION[section]
    row = {**descriptors, "timings_seconds": timings,
           "cpu_count": os.cpu_count()}
    for metric in spec.metrics:
        top, bottom = _get(timings, metric.top), _get(timings, metric.bottom)
        if top is not None and bottom is not None:
            ratio = top / bottom if bottom > 0 else float("inf")
            row[metric.name] = (round(ratio - 1, 4) if metric.overhead
                                else round(ratio, 3))
    if spec.equal:
        row[spec.equal] = equal
    return BenchResult(section, name, row, point)


# -- how each section is timed ------------------------------------------


def _best_of(variants: dict, repeats: int) -> tuple[dict[str, float], bool]:
    """Best-of-``repeats`` seconds per variant (each returns seconds and
    an output), interleaved, and whether every output agreed."""
    best = dict.fromkeys(variants, float("inf"))
    outputs = {}
    for _ in range(max(1, repeats)):
        for key, variant in variants.items():
            seconds, outputs[key] = variant()
            best[key] = min(best[key], seconds)
    first, *rest = outputs.values()
    return ({key: round(value, 4) for key, value in best.items()},
            all(output == first for output in rest))


def _simulate(cls, point: EnginePoint, observe: bool):
    """Time one run of ``point``; ``observe`` attaches a full ObsSession."""
    from repro.obs import ObsSession
    from repro.qos.registry import create_policy

    build = get_topology(point.topology).build(point.config)
    simulator = cls(build, point.flows(), create_policy(point.policy),
                    point.config)
    session = ObsSession(timeline=True) if observe else None
    if session is not None:
        session.attach(simulator)
    started = time.perf_counter()
    simulator.run(point.cycles, warmup=point.warmup)
    elapsed = time.perf_counter() - started
    if session is not None:
        session.finalize(simulator.cycle)
    return elapsed, simulator.stats.snapshot()


def _run_points(section: str, variants: dict, points, *, repeats: int, **_):
    """Time every point once per (simulator class, observed) variant."""
    results = []
    for point in points:
        timings, equal = _best_of({
            key: partial(_simulate, cls, point, observe)
            for key, (cls, observe) in variants.items()
        }, repeats)
        results.append(bench_result(
            section, point.name, timings, equal, point=point,
            regime=point.regime, topology=point.topology,
            workload=point.workload, policy=point.policy, rate=point.rate,
            offered_load_flits_per_cycle=round(offered_load(point.flows()), 4),
            cycles=point.cycles, warmup=point.warmup,
        ))
    return results


def _through(make_executor, batches, *, per_batch: bool = False):
    """Run every batch through ``make_executor()``: (seconds, result rows).

    ``per_batch`` creates and closes a fresh executor for each batch.
    """
    started = time.perf_counter()
    rows = []
    for group in ([batch] for batch in batches) if per_batch else [batches]:
        executor = make_executor()
        try:
            for batch in group:
                rows += [result.to_json() for result in executor.run(batch).results]
        finally:
            if hasattr(executor, "close"):
                executor.close()
    return time.perf_counter() - started, rows


def _run_executors(section: str, name: str, batch_count: int, variants: dict,
                   _, *, fast: bool, jobs: int, repeats: int):
    """Time the same two-spec batches once per (executor, per_batch)
    variant: serial, pool, dispatch, or dispatch writing journals."""
    import tempfile

    from repro.dispatch import DispatchExecutor
    from repro.runtime.executor import ParallelExecutor, SerialExecutor
    from repro.runtime.spec import RunSpec

    cycles = 800 if fast else 2500
    batches = [
        [RunSpec(topology="mesh_x1", workload="uniform", rate=rate,
                 config=SimulationConfig(frame_cycles=2000, seed=11 + batch),
                 cycles=cycles, warmup=cycles // 4)
         for rate in (0.03, 0.04)]
        for batch in range(batch_count)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        executors = {
            "serial": SerialExecutor,
            "pool": partial(ParallelExecutor, jobs=jobs),
            "dispatch": partial(DispatchExecutor, jobs=jobs),
            # A fresh directory per run: JournalWriter resumes the
            # sequence on an existing file, which would grow the
            # journal (and its flush cost) across repeats.
            "journaled": lambda: DispatchExecutor(
                jobs=jobs, journal_dir=tempfile.mkdtemp(dir=scratch)),
        }
        timings, equal = _best_of({
            key: partial(_through, executors[kind], batches,
                         per_batch=per_batch)
            for key, (kind, per_batch) in variants.items()
        }, repeats)
    return [bench_result(section, name, timings, equal, jobs=jobs,
                         batches=batch_count, specs_per_batch=2)]


# -- the section table --------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """A recorded ratio of two timings, optionally held to a limit.

    ``top / bottom`` (minus one for an ``overhead``: 0.1 = +10%) must
    stay at or above ``limit``, or at or below it for a ``ceiling``.
    """

    name: str
    top: str
    bottom: str
    limit: float | None = None
    why: str = ""
    ceiling: bool = False
    overhead: bool = False
    #: Dotted path where a BENCH file may keep its own limit.
    stored: str | None = None
    #: Rows recorded on one CPU are held to the single-core allowance.
    clamp: bool = False
    #: Rows without the metric are not judged (otherwise it reads 0).
    optional: bool = False


#: On one CPU two workers cannot beat one process, so a ``clamp`` floor
#: drops to this allowance (a bound on pure orchestration overhead).
SINGLE_CORE_ALLOWANCE = 0.85
_ALLOWANCE_AT = "_floors.single_core_allowance"


@dataclass(frozen=True)
class Section:
    """One kind of bench record; see the module docstring."""

    name: str
    title: str
    filename: str
    metrics: tuple[Metric, ...]
    descriptors: tuple[str, ...] = ()
    #: The row's equality flag, and what a false one means.
    equal: str | None = None
    diverged: str = ""
    #: Rows live in the mapping at this key path, or at key ``row`` of
    #: it for a single-row section.
    at: tuple[str, ...] = ()
    row: str | None = None
    #: Violation prefix and history key, formatted with row and metric.
    label: str = "{row}"
    history: str | None = None
    #: A file with no rows for this section is itself a violation.
    required: bool = False
    #: How it is timed (None: ``benchmarks/`` times and records it);
    #: ``points`` gives a point-based section's default matrix.
    run: Callable[..., list[BenchResult]] | None = None
    points: Callable[[bool], tuple[EnginePoint, ...]] | None = None


SECTIONS: tuple[Section, ...] = (
    Section(
        "engine", "Engine benchmark (optimised vs frozen golden reference)",
        BENCH_ENGINE_FILENAME,
        (Metric("speedup", "golden", "optimized", 1.0,
                "optimised engine regressed"),),
        descriptors=("regime", "topology"),
        equal="stats_equal", diverged="engines diverged",
        history="{row}", required=True,
        run=partial(_run_points, "engine", {
            "optimized": (ColumnSimulator, False),
            "golden": (GoldenColumnSimulator, False),
        }),
        points=lambda fast: default_points(fast=fast),
    ),
    Section(
        "obs", "Probe overhead (probes off vs full ObsSession vs golden)",
        BENCH_ENGINE_FILENAME,
        (Metric("speedup_off", "golden", "off", 1.0,
                "probe hooks cost the engine its lead over golden"),
         # Enabled probes pay a callback per packet event, so they may
         # cost real time; the ceiling only keeps that bounded.
         Metric("enabled_overhead", "on", "off", 1.5,
                "enabled probes grew too costly", ceiling=True,
                overhead=True, stored="_obs.max_enabled_overhead")),
        descriptors=("regime",),
        equal="stats_equal", diverged="probes perturbed results",
        at=("_obs", "points"), label="obs:{row}", history="obs:{row}",
        run=partial(_run_points, "obs", {
            "off": (ColumnSimulator, False),
            "on": (ColumnSimulator, True),
            "golden": (GoldenColumnSimulator, True),
        }),
        # A bracket of the matrix: idle-dominated, saturated, bursty.
        points=lambda fast: tuple(
            point for point in default_points(fast=fast) if point.name in
            ("low_rate_mecs_0p01", "saturation_mecs_0p30", "bursty_saturation")
        ),
    ),
    Section(
        "runtime", "Runtime executors (serial vs pool vs spawn vs dispatch)",
        RUNTIME_BENCH_FILENAME,
        (Metric("pool_vs_spawn", "spawn_per_batch", "pool", 1.0,
                "persistent agents lost to per-batch forking",
                stored="_floors.pool_vs_spawn"),
         Metric("parallel_vs_serial", "serial", "pool", 1.0,
                "parallel execution regressed vs serial",
                stored="_floors.parallel_vs_serial", clamp=True),
         # In-process dispatch is single-process like serial, so the
         # ratio prices the lease protocol alone on any machine.
         Metric("dispatch_vs_serial", "serial", "dispatch", 0.70,
                "lease-protocol overhead regressed",
                stored="_floors.dispatch_vs_serial", optional=True),
         Metric("dispatch_vs_pool", "pool", "dispatch")),
        equal="results_equal", diverged="executor variants diverged",
        row="runtime_pool", history="runtime:{metric}", required=True,
        # ``pool`` keeps one executor's forked agents across batches,
        # ``spawn_per_batch`` forks fresh agents per batch, and
        # ``dispatch`` prices the broker/lease protocol (no network).
        run=partial(_run_executors, "runtime", "runtime_pool", 8, {
            "serial": ("serial", False), "pool": ("pool", False),
            "spawn_per_batch": ("pool", True),
            "dispatch": ("dispatch", False),
        }),
    ),
    Section(
        "journal", "Dispatch journal overhead (journaling off vs on)",
        RUNTIME_BENCH_FILENAME,
        # With no journal attached every hook site is one ``is not
        # None`` test, so journaling off must never be the slower run.
        (Metric("speedup_off", "on", "off", 1.0, "journal-off speedup "
                "fell: the disabled hook path costs real time",
                stored="_journal.floor_speedup_off"),
         Metric("journal_overhead", "on", "off", overhead=True)),
        equal="results_equal", diverged="journaling perturbed results",
        row="_journal", history="journal:{metric}",
        run=partial(_run_executors, "journal", "journal", 4, {
            "off": ("dispatch", False), "on": ("journaled", False),
        }),
    ),
    Section(
        "sweeps", "Experiment sweeps (serial vs parallel, from benchmarks/)",
        RUNTIME_BENCH_FILENAME,
        (Metric("speedup", "serial", "parallel", 1.0,
                "parallel sweep lost to serial",
                stored="_floors.parallel_vs_serial", clamp=True,
                optional=True),),
    ),
)


#: Sections by name.
SECTION = {section.name: section for section in SECTIONS}


def _limited(section: Section) -> list[Metric]:
    return [metric for metric in section.metrics if metric.limit is not None]


def _get(mapping, path: str):
    """Follow a dotted path; ``key`` also matches a ``key[...]`` entry
    (sweep timings are keyed ``parallel[<jobs>]``)."""
    value = mapping
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        if key not in value:
            key = next((k for k in value if k.startswith(key + "[")), key)
        value = value.get(key)
    return value


def _rows(section: Section, data: dict) -> dict[str, dict]:
    """The section's rows in a parsed BENCH file, by name."""
    holder = data
    for key in section.at:
        holder = holder.get(key) or {}
    if section.row:
        row = holder.get(section.row)
        return {section.row.lstrip("_"): row} if row else {}
    claimed = {s.row for s in SECTIONS if s.filename == section.filename}
    return {name: row for name, row in holder.items()
            if not name.startswith("_") and name not in claimed}


def _limit(metric: Metric, data: dict, cpus: int = 2) -> float:
    """The metric's limit in ``data`` for a row recorded on ``cpus`` CPUs."""
    stored = _get(data, metric.stored) if metric.stored else None
    limit = metric.limit if stored is None else stored
    if metric.clamp and cpus <= 1:
        allowance = _get(data, _ALLOWANCE_AT)
        limit = min(limit, SINGLE_CORE_ALLOWANCE
                    if allowance is None else allowance)
    return limit


def _check(section: Section, data: dict, *, live: bool = False) -> list[str]:
    """Violations of one section's rows in ``data``.

    ``live`` judges a fresh run: diverged results and ceilings only.
    """
    rows = _rows(section, data)
    if not rows and section.required and not live:
        return [f"no {section.row or section.name + ' rows'} in "
                f"{section.filename} — nothing is guarded; record with "
                f"`repro bench {section.name} --record`"]
    violations = []
    for name, row in sorted(rows.items()):
        label = section.label.format(row=name)
        if section.equal and not row.get(section.equal, False):
            violations.append(
                f"{label}: {section.equal} is false — {section.diverged}")
        # Each row is judged by the host that recorded it; files from
        # before rows carried one fall back to the file-wide ``_meta``.
        cpus = (row.get("cpu_count")
                or (data.get("_meta") or {}).get("cpu_count") or 1)
        for metric in _limited(section):
            value = row.get(metric.name, None if metric.optional else 0.0)
            if value is None or (live and not metric.ceiling):
                continue
            limit = _limit(metric, data, cpus)
            if metric.ceiling and value > limit:
                violations.append(f"{label}: {metric.name} {value} exceeds "
                                  f"the {limit:g} ceiling — {metric.why}")
            elif not metric.ceiling and value < limit:
                violations.append(f"{label}: {metric.name} {value} < "
                                  f"{limit:g} — {metric.why}")
    return violations


def _render(title: str, notes: list[str], header: list[str],
            body: list[list[str]], *, markdown: bool = False) -> str:
    """A console or markdown table under a title and any note lines."""
    if markdown:
        return "\n".join([
            f"### {title}", "", *notes, "",
            "| " + " | ".join(header) + " |", "|---" * len(header) + "|",
            *("| " + " | ".join(cells) + " |" for cells in body),
        ])
    widths = [max(map(len, column)) for column in zip(header, *body)]
    return "\n".join([title, *notes] + [
        "  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                  for i, (cell, width) in enumerate(zip(cells, widths)))
        for cells in [header, *body]
    ])


def _table(section: Section, data: dict, *, markdown: bool) -> str:
    """One section's rows as a console or markdown table: descriptors,
    timings in seconds, metrics, recording host and equality flag."""
    rows = list(_rows(section, data).items())
    timings = dict.fromkeys(
        key for _, row in rows for key in row.get("timings_seconds", {})
    )
    columns = [
        *((name, name, str) for name in section.descriptors),
        *((f"{key} (s)", f"timings_seconds.{key}", "{:.3f}".format)
          for key in timings),
        *((m.name, m.name, "{:+.1%}".format if m.overhead else "{:.2f}x".format)
          for m in section.metrics),
        ("cpus", "cpu_count", str),
    ]
    if section.equal:
        columns.append((section.equal.removesuffix("_equal"), section.equal,
                        lambda ok: "identical" if ok else "DIVERGED"))
    limits = ", ".join(
        f"{m.name} {'≤' if m.ceiling else '≥'} {_limit(m, data):g}"
        + (f" ({_limit(m, data, cpus=1):g} on 1 CPU)" if m.clamp else "")
        for m in _limited(section)
    )
    return _render(
        section.title, [f"limits: {limits}"],
        ["point" if section.points else "entry",
         *(title for title, _, _ in columns)],
        [[name, *("—" if _get(row, path) is None else fmt(_get(row, path))
                  for _, path, fmt in columns)] for name, row in rows],
        markdown=markdown,
    )


def run_section(
    name: str, *, fast: bool = False, repeats: int = 2, jobs: int = 2,
    points: tuple[EnginePoint, ...] | None = None,
    regimes: tuple[str, ...] | None = None,
    topologies: tuple[str, ...] | None = None,
) -> list[BenchResult]:
    """Time one section live.

    Point-based sections run ``points`` (default: the section's matrix)
    narrowed to ``regimes``/``topologies``; executor sections use
    ``jobs`` workers.
    """
    section = SECTION[name]
    if section.points is not None:
        points = tuple(
            point for point in points or section.points(fast)
            if (regimes is None or point.regime in regimes)
            and (topologies is None or point.topology in topologies)
        )
    return section.run(points, fast=fast, jobs=jobs, repeats=repeats)


#: The name ``repro.runtime`` exports for timing the engine section.
run_engine_bench = partial(run_section, "engine")


def _merge(results: list[BenchResult], data: dict) -> dict:
    """Put each result's row in place, replacing only its same-named row,
    and store any limit the file does not record yet."""
    for result in results:
        section = SECTION[result.section]
        holder = data
        for key in section.at:
            holder = holder.setdefault(key, {})
        holder[section.row or result.name] = dict(result.row)
        limits = [(m.stored, m.limit) for m in section.metrics if m.stored]
        if any(m.clamp for m in section.metrics):
            limits.append((_ALLOWANCE_AT, SINGLE_CORE_ALLOWANCE))
        for path, limit in limits:
            *parents, last = path.split(".")
            holder = data
            for key in parents:
                holder = holder.setdefault(key, {})
            holder.setdefault(last, limit)
    return data


def load_bench_file(path: str | os.PathLike) -> dict:
    """Parse a BENCH file (OSError/ValueError when unreadable)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def record(results: list[BenchResult], path: str | os.PathLike) -> None:
    """Merge results into the BENCH file at ``path``: load, merge, write.

    Every other row keeps its values and its recording host; ``_meta``
    names the code version that last wrote the file.
    """
    import repro

    try:
        data = load_bench_file(path)
    except (OSError, json.JSONDecodeError):
        data = {}
    _merge(results, data)
    data.setdefault("_meta", {})["engine_version"] = repro.__version__
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


#: The name ``repro.runtime`` exports for recording engine results.
record_engine_baseline = record


def _sections(*, filename: str | None = None, results=()) -> list[Section]:
    names = {result.section for result in results}
    return [s for s in SECTIONS if s.filename == filename or s.name in names]


def report_results(results: list[BenchResult]) -> tuple[str, list[str]]:
    """Console tables for fresh results, and the live verdict on them:
    diverged rows and breached ceilings."""
    data, sections = _merge(results, {}), _sections(results=results)
    return (
        "\n\n".join(_table(s, data, markdown=False) for s in sections),
        [violation for s in sections for violation in _check(s, data, live=True)],
    )


def format_engine_bench(results: list[BenchResult]) -> str:
    """The console table of :func:`report_results` (a ``repro.runtime``
    export)."""
    return report_results(results)[0]


def guard_file(path: str | os.PathLike, filename: str) -> tuple[list[str], dict]:
    """Judge the file at ``path`` as the BENCH file ``filename``:
    (violations, parsed file); no violations means clean."""
    data = load_bench_file(path)
    return [violation for section in _sections(filename=filename)
            for violation in _check(section, data)], data


def format_file(data: dict, filename: str) -> str:
    """Markdown tables of a parsed BENCH file (for CI job summaries)."""
    return "\n\n".join(_table(section, data, markdown=True)
                       for section in _sections(filename=filename)
                       if section.required or _rows(section, data))


# -- bench trend history ----------------------------------------------

#: Trailing-window defaults for ``repro bench history``: the newest
#: entry is compared against the mean of up to this many preceding
#: entries and flagged when a metric drops below the tolerance share.
HISTORY_WINDOW = 5
HISTORY_TOLERANCE = 0.90


def bench_history_entry(
    engine_path: str | os.PathLike,
    runtime_path: str | os.PathLike | None = None,
) -> dict:
    """One guard-checked trend record built from the committed files.

    Flattens every floor metric of every section with a history key
    into one ``speedups`` mapping, so the trailing-window comparison is
    a plain per-key ratio check, and carries the guard's violations
    verbatim — an entry recorded against a failing file says so.
    """
    import repro

    speedups: dict[str, float] = {}
    violations: list[str] = []
    for path, filename in ((engine_path, BENCH_ENGINE_FILENAME),
                           (runtime_path, RUNTIME_BENCH_FILENAME)):
        if path is None:
            continue
        found, data = guard_file(path, filename)
        violations += found
        for section in _sections(filename=filename):
            if section.history is None:
                continue
            for name, row in sorted(_rows(section, data).items()):
                for metric in _limited(section):
                    if not metric.ceiling and metric.name in row:
                        key = section.history.format(row=name,
                                                     metric=metric.name)
                        speedups[key] = row[metric.name]
    return {
        "engine_version": repro.__version__,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "speedups": speedups,
        "violations": violations,
    }


def load_bench_history(path: str | os.PathLike) -> list[dict]:
    """Parse a history file; a missing file is an empty history."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    entries: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number}: not valid JSON ({error})")
        if not isinstance(entry, dict) or "speedups" not in entry:
            raise ValueError(
                f"line {number}: history entries are objects with a "
                "'speedups' mapping"
            )
        entries.append(entry)
    return entries


def append_bench_history(path: str | os.PathLike, entry: dict) -> None:
    """Append one history entry as a JSON line."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()


def flag_history_regressions(
    entries: list[dict], *, window: int = HISTORY_WINDOW,
    tolerance: float = HISTORY_TOLERANCE,
) -> list[str]:
    """Metrics in the newest entry that fell below the trailing mean.

    Each speedup in the last entry is compared against the mean of the
    same metric over up to ``window`` preceding entries; a metric is
    flagged when it drops below ``tolerance`` times that mean.  Fewer
    than one prior sample means no verdict for that metric.
    """
    if len(entries) < 2:
        return []
    latest = entries[-1]
    flags: list[str] = []
    for metric, value in sorted(latest.get("speedups", {}).items()):
        trailing = [
            entry["speedups"][metric]
            for entry in entries[-(window + 1):-1]
            if metric in entry.get("speedups", {})
        ]
        if not trailing:
            continue
        mean = sum(trailing) / len(trailing)
        if mean > 0 and value < tolerance * mean:
            flags.append(
                f"{metric}: {value:.3f} is {value / mean:.0%} of the "
                f"trailing {len(trailing)}-entry mean {mean:.3f} "
                f"(tolerance {tolerance:.0%})"
            )
    return flags


def format_bench_history(entries: list[dict], flags: list[str]) -> str:
    """Human-readable trend table (newest last) plus any flags."""
    body = []
    for entry in entries[-10:]:
        speedups = entry.get("speedups", {})
        body.append([
            entry.get("recorded_utc", "?"), entry.get("engine_version", "?"),
            str(len(speedups)),
            f"{min(speedups.values()) if speedups else float('nan'):.3f}",
            str(len(entry.get("violations", []))),
        ])
    table = _render(
        f"bench history ({len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'}, newest last)", [],
        ["recorded (UTC)", "engine", "metrics", "min speedup", "violations"],
        body,
    )
    if not flags:
        return f"{table}\nno trend regressions vs the trailing window"
    return "\n".join([table, "", "trend regressions vs the trailing window:",
                      *(f"  {flag}" for flag in flags)])
