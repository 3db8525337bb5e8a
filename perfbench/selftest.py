"""Self-test of the benchmark (about three minutes)::

    python3 perfbench/selftest.py

* every metric name in ``BENCHMARK.json`` matches ``[A-Za-z0-9_.-]+``;
* a shortened (``--seconds 1``) run of every workload completes,
  untraced and traced, with no failed operation (``run.py`` itself
  refuses to report metrics other than those ``BENCHMARK.json`` lists),
  every count repeats in a second traced run, and an untraced run
  completes at the held-out seed too;
* a perturbed simulation snapshot is a failed operation, both in
  process and end to end (exit code 1);
* a perturbed campaign stage row is a failed operation, through the
  serial-digest check and, separately, through the baseline report card;
* the traced engine runs stress what they claim to: injected per
  created is 1.0 at low rate and under 0.5 at the hotspot, GSF never
  preempts, PVC preempts on every topology, and unattributed time is
  under 5% of traced wall.

Everything it writes goes under ``.perfbench_work/selftest``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))

import suite  # noqa: E402  (needs the program on the path)

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        failures.append(what)


def run(workload: str, trace: int, seed: int = suite.DEFAULT_SEED):
    """``(exit code, final JSON or None, other stdout lines)`` of one run."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--work-dir", str(WORK)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, lines[:-1]


def completed(code: int, result: dict | None) -> bool:
    return (code == 0 and result is not None and result["correct"]
            and result["failed"] == 0 and result["attempted"] > 0)


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def check_names(spec: dict) -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    bad = [name for name in names if not NAME.fullmatch(name) or len(name) > 64]
    expect(not bad, f"{len(names)} metric names match [A-Za-z0-9_.-]+ {bad or ''}")
    expect(len(set(names)) == len(names), "metric names are unique")


def check_short_runs() -> dict:
    """Every workload completes; returns ``{workload: (result, lines)}`` traced."""
    traced = {}
    for workload in suite.WORKLOADS:
        for trace in (0, 1):
            code, result, lines = run(workload, trace)
            expect(completed(code, result),
                   f"shortened run of {workload} --trace {trace} completes")
            if trace and result is not None:
                traced[workload] = (result, lines)
                _, again, _ = run(workload, trace)
                expect(again is not None and counts(again) == counts(result),
                       f"{workload}: every count repeats in a second traced run")
        code, result, _ = run(workload, 0, seed=suite.HELD_OUT_SEED)
        expect(completed(code, result),
               f"shortened run of {workload} at the held-out seed completes")
    return traced


def check_stress(traced: dict) -> None:
    """The traced engine runs stress what each workload claims to."""
    layers = {}
    for name in suite.ENGINE_WORKLOADS:
        if name not in traced:
            expect(False, f"traced {name} printed a result")
            return
        result, lines = traced[name]
        metrics = {key: m["value"] for key, m in result["metrics"].items()}
        preemptions = [int(line.split("preemptions=")[1].split()[0])
                       for line in lines if line.startswith("sim ")]
        layers[name] = (metrics, preemptions)
        top_level = sum(metrics[key] for key in (
            "topologies.build_s", "traffic.flows_s", "qos.create_s",
            "network.init_s", "network.run_s", "unattributed_s"))
        expect(metrics["unattributed_s"] < 0.05 * top_level,
               f"{name}: unattributed_s is under 5% of traced wall")
    expect(layers["uniform_low_rate"][0]["network.injected_per_created"] == 1.0,
           "uniform_low_rate injects every created packet")
    expect(all(layers[name][0]["network.injected_per_created"] < 0.5
               for name in ("hotspot_pvc", "hotspot_gsf")),
           "both hotspot workloads inject under half their created packets")
    expect(layers["hotspot_gsf"][0]["qos.preemptions"] == 0
           and not any(layers["hotspot_gsf"][1]),
           "hotspot_gsf never preempts")
    expect(len(layers["hotspot_pvc"][1]) == len(suite.TOPOLOGIES)
           and all(layers["hotspot_pvc"][1]),
           "hotspot_pvc preempts on every topology")


def check_perturbed_snapshot() -> None:
    workload = suite.ENGINE_WORKLOADS["hotspot_pvc"]
    seed = suite.DEFAULT_SEED
    code = suite.code_digest()
    reference = suite.engine_reference(workload, seed, WORK, code)
    records = suite.engine_pass(workload, seed)
    expect(all(suite.check_simulation(r, reference) for r in records),
           "unperturbed snapshots match the golden engine")
    records[1].output["snapshot"]["delivered_packets"] += 1
    expect(not suite.check_simulation(records[1], reference),
           "a perturbed snapshot fails its check")

    # End to end: a reference that disagrees must fail the run.
    path = WORK / "refs" / f"{workload.name}-seed{seed}-{code[:16]}.json"
    saved = path.read_text(encoding="utf-8")
    try:
        bad = json.loads(saved)
        bad["mecs"]["snapshot"]["preemption_events"] += 1
        path.write_text(json.dumps(bad), encoding="utf-8")
        exit_code, result, _ = run(workload.name, 0)
    finally:
        path.write_text(saved, encoding="utf-8")
    expect(exit_code == 1 and result is not None and not result["correct"]
           and result["failed"] >= 1,
           "a run whose snapshot disagrees reports a failed operation and exits 1")


def check_perturbed_stage_row() -> None:
    seed = suite.DEFAULT_SEED
    reference = suite.campaign_reference(seed, WORK, suite.code_digest())
    done = suite.campaign_pass(seed, WORK / "perturbed-campaign")
    try:
        on_disk = suite.stage_rows_on_disk(done)
        ok = suite.check_campaign(done, on_disk, reference, seed)
        expect(all(ok.values()) and len(ok) == 16,
               "every unperturbed stage passes its checks")

        # Change one number in one stage row, rewriting the artifact.
        entry = done.manifest["stages"]["table2"]
        path = done.directory / entry["artifact"]
        payload = json.loads(path.read_text(encoding="utf-8"))
        row = payload["rows"][0]
        key = next(k for k, v in row.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool))
        row[key] = row[key] * 1.5 + 1
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        on_disk = suite.stage_rows_on_disk(done)
        ok = suite.check_campaign(done, on_disk, reference, seed)
        expect(not ok["table2"] and sum(ok.values()) == 15,
               "a perturbed stage row fails the digest check")

        # Accept the perturbed digest: the baseline report card alone
        # must still reject the row.
        agreeing = {**reference, "digests": {**reference["digests"],
                                             "table2": on_disk["table2"][0]}}
        ok = suite.check_campaign(done, on_disk, agreeing, seed)
        expect(not ok["table2"],
               "a perturbed stage row fails the baseline report card")
    finally:
        shutil.rmtree(WORK / "perturbed-campaign", ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    check_names(spec)
    check_perturbed_snapshot()
    check_perturbed_stage_row()
    check_stress(check_short_runs())
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
