"""The benchmark: absolute simulator throughput and campaign wall time.

Runs one workload (see ``suite.py``) back to back for ``--seconds``
after one unmeasured warm-up pass, checks every output, and prints one
line per simulation (or campaign stage), the pass wall times, the
metrics, a provenance line, and as its last line one JSON object::

    python3 perfbench/run.py --workload hotspot_pvc --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced.  A
timing is the best of the run's passes, as ``timeit`` advises: other
tenants of a shared host only ever slow a pass down (README.md gives
the measured spreads).  The passes line also prints the median and the
pass count.  Fresh set-up probes are spread over the same run.
``--trace 1`` reports the per-layer metrics: half the time runs
untraced, half with spans recorded around the program's public
functions, and the spans are written under the work directory.
``--workload all`` runs every workload, each in its own process, and
prints every metric by name and unit.  A failed output check counts as
a failed operation and makes the exit code 1.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes timed per run; ``setup_s`` is the best of them.
SETUP_PROBES = 10


def listed_units(trace: int) -> dict[str, str]:
    """``{metric: unit}`` as BENCHMARK.json lists them for ``--trace``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@dataclasses.dataclass
class Pass:
    """One run of a workload's fixed batch."""

    wall_s: float
    cycles: int
    peak_kib: int
    #: One verdict per operation (simulation or campaign stage).
    ok: list[bool]
    #: Engine: the ``SimRecord`` list.  Campaign: the verdict per stage.
    detail: object
    campaign: object = None


def repeat(seconds: float, body) -> list:
    """``body()`` back to back until ``seconds`` have passed (at least once)."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        results.append(body())
        if time.perf_counter() >= deadline:
            return results


def median(values) -> float:
    return statistics.median(values)


def setup_probe(workload: str, seed: int, work_dir: Path) -> float:
    """Time from launching a fresh process to its first cycle."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload,
               str(seed), str(work_dir)]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as probe:
        line = probe.stdout.readline()
        seconds = time.perf_counter() - started
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return seconds


def provenance(args, code: str) -> dict:
    import repro
    import suite

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": repro.__version__,
        "git_commit": commit,
        "code_sha256": code,
        "seed": args.seed,
        "seconds": args.seconds,
        "engine_cycles": suite.ENGINE_CYCLES,
        "trace": args.trace,
    }


# -- the two kinds of workload --------------------------------------------


def engine_workload(args, work_dir: Path, code: str):
    """``(one_pass, lines)`` for an engine workload."""
    import suite

    workload = suite.ENGINE_WORKLOADS[args.workload]
    reference = suite.engine_reference(workload, args.seed, work_dir, code)

    def one_pass() -> Pass:
        suite.reset_peak_rss()
        records = suite.engine_pass(workload, args.seed)
        return Pass(
            wall_s=sum(record.host_s for record in records),
            cycles=sum(record.cycles for record in records),
            peak_kib=suite.vm_hwm_kib(),
            ok=[suite.check_simulation(record, reference) for record in records],
            detail=records,
        )

    def lines(passes: list[Pass]) -> list[str]:
        out = []
        for index, first in enumerate(passes[0].detail):
            snap = first.snapshot
            host = min(p.detail[index].host_s for p in passes)
            out.append(
                f"sim {args.workload} {first.topology} {workload.policy} "
                f"best_host_s={host:.4f} created={snap['created_packets']} "
                f"injected={snap['injected_packets']} "
                f"delivered={snap['delivered_packets']} "
                f"preemptions={snap['preemption_events']} "
                f"gsf_deferrals={first.output['gsf_deferrals']}"
            )
        return out

    return one_pass, lines


def campaign_workload(args, work_dir: Path, code: str):
    """``(one_pass, lines)`` for ``campaign_smoke``."""
    import suite

    reference = suite.campaign_reference(args.seed, work_dir, code)
    pass_dir = work_dir / "campaign-pass"

    def one_pass() -> Pass:
        suite.reset_peak_rss()
        done = suite.campaign_pass(args.seed, pass_dir)
        peak_kib = suite.vm_hwm_kib() + done.workers_peak_kib
        verdicts = suite.check_campaign(done, suite.stage_rows_on_disk(done),
                                        reference, args.seed)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return Pass(done.wall_s, reference["cycles"], peak_kib,
                    list(verdicts.values()), verdicts, campaign=done)

    def lines(passes: list[Pass]) -> list[str]:
        stages = [p.campaign.manifest["telemetry"]["stages"] for p in passes]
        return [
            f"stage {args.workload} {name} status={info['status']} "
            f"elapsed_s={median(s[name]['elapsed_seconds'] for s in stages):.4f} "
            f"specs={info['specs']} simulated={info['simulated']} "
            f"ok={all(p.detail.get(name, False) for p in passes)}"
            for name, info in stages[0].items()
        ]

    return one_pass, lines


# -- measuring ------------------------------------------------------------


def traced_metrics(args, work_dir: Path, one_pass, plain: list[Pass]):
    """Per-layer metrics from traced passes; returns ``(passes, metrics)``."""
    import suite
    from spans import Tracer, write_spans

    tracer = Tracer()
    traced: list[tuple[Pass, list]] = []

    def body():
        tracer.run = f"{args.workload}-seed{args.seed}-pass{len(traced)}"
        tracer.worker_dir = work_dir / "spans" / tracer.run
        tracer.worker_dir.mkdir(parents=True, exist_ok=True)
        done = one_pass()
        traced.append((done, tracer.take()))
        shutil.rmtree(tracer.worker_dir)

    suite.install_wrappers(tracer)
    try:
        repeat(args.seconds / 2, body)
    finally:
        tracer.uninstall()
    per_pass = [
        suite.per_layer_metrics(spans, done.wall_s, tracer.owner_pid, done.campaign)
        for done, spans in traced
    ]
    metrics = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace_overhead_frac"] = (
        min(done.wall_s for done, _ in traced) / min(p.wall_s for p in plain) - 1)
    write_spans(work_dir / "trace" / f"{args.workload}-seed{args.seed}.jsonl",
                [span for _, spans in traced for span in spans])
    return [done for done, _ in traced], metrics


def measure(args, work_dir: Path, code: str):
    """``(attempted, failed, metrics, lines)`` for one workload."""
    import suite

    if args.workload == suite.CAMPAIGN_WORKLOAD:
        one_pass, lines = campaign_workload(args, work_dir, code)
    else:
        one_pass, lines = engine_workload(args, work_dir, code)
    # Unmeasured: the first pass of a process fills caches and the heap.
    warm = one_pass()
    setups: list[float] = []
    if args.trace:
        plain = repeat(args.seconds / 2, one_pass)
        traced, metrics = traced_metrics(args, work_dir, one_pass, plain)
        measured = plain + traced
    else:
        # One set-up probe after each pass that ends past its share of
        # the run, so that no slow spell of the host holds all of them.
        begun = time.perf_counter()

        def probed_pass() -> Pass:
            done = one_pass()
            due = SETUP_PROBES * (time.perf_counter() - begun) / args.seconds
            if len(setups) < due:
                setups.append(setup_probe(args.workload, args.seed, work_dir))
            return done

        plain = measured = repeat(args.seconds, probed_pass)
        while len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed, work_dir))
        metrics = {
            "setup_s": min(setups),
            "sim_cycles_per_s": max(p.cycles / p.wall_s for p in plain),
            "batch_wall_s": min(p.wall_s for p in plain),
            "peak_rss_mb": median(p.peak_kib for p in plain) / 1024,
        }
    everything = [warm, *measured]
    attempted = sum(len(p.ok) for p in everything)
    failed = sum(not ok for p in everything for ok in p.ok)
    walls = [p.wall_s for p in plain]
    return attempted, failed, metrics, [
        *lines(everything),
        f"passes wall_s={','.join(f'{p.wall_s:.4f}' for p in everything)} "
        f"(first is the warm-up) untraced: best={min(walls):.4f} "
        f"median={median(walls):.4f} n={len(walls)}",
        *([f"setup probes_s={','.join(f'{s:.4f}' for s in setups)}"] if setups else []),
    ]


# -- all workloads --------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; every metric by name and unit."""
    import suite

    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in suite.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", str(args.work_dir)]
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               check=False)
        lines = child.stdout.splitlines()
        if not lines:
            sys.stderr.write(child.stderr)
            return 2
        result = json.loads(lines[-1])
        print("\n".join(line for line in lines[:-1] if not line.startswith("metric ")))
        for name, metric in result["metrics"].items():
            print(f"metric {workload} {name} {metric['value']} {metric['unit']}")
            combined[f"{workload}.{name}"] = metric
        print(f"ops {workload} attempted={result['attempted']} "
              f"failed={result['failed']}")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*suite.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work",
                        help="references, spans and results (default %(default)s)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    work_dir = args.work_dir.resolve()
    work_dir.mkdir(parents=True, exist_ok=True)
    code = suite.code_digest()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} started_after_s={time.perf_counter() - STARTED:.3f}")
    attempted, failed, metrics, lines = measure(args, work_dir, code)
    units = listed_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json's: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"provenance": provenance(args, code), "lines": lines, **result}
    results = work_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
