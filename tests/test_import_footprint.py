"""What an import loads: lazy package exports keep each import to its closure.

Every case runs in a fresh interpreter, because the test session itself
has long since imported the whole package.
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

#: Layers a simulation never needs: only the engine, topologies, QoS
#: policies, traffic builders and their helpers may load.
OUTER_LAYERS = (
    "analysis",
    "campaign",
    "core",
    "dispatch",
    "obs",
    "resilience",
    "runtime",
    "scenarios",
)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    return done.stdout


def _loaded_after(code: str) -> list[str]:
    """``repro`` modules, and ``http.client``, loaded after running ``code``."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "    if name.split('.')[0] == 'repro' or name == 'http.client')))\n"
    )
    return json.loads(_run(code + report))


def test_a_simulation_only_import_loads_no_outer_layer():
    loaded = _loaded_after(
        "import repro.network.engine, repro.qos.registry\n"
        "import repro.topologies.registry, repro.traffic.workloads\n"
    )
    assert "repro.network.engine" in loaded
    outer = [
        name for name in loaded
        if any(f"{name}.".startswith(f"repro.{layer}.") for layer in OUTER_LAYERS)
    ]
    assert outer == []
    assert "http.client" not in loaded
    # Trace recorders are probe subscribers: the engines never import them.
    assert "repro.network.trace" not in loaded


def test_a_bare_package_import_loads_only_the_export_helper():
    assert _loaded_after("import repro") == ["repro", "repro._lazy"]


def test_building_a_campaign_runner_imports_no_stage_adapter(tmp_path):
    loaded = _loaded_after(
        "from repro.campaign.builtin import get_campaign\n"
        "from repro.campaign.runner import CampaignRunner\n"
        f"CampaignRunner(get_campaign('smoke'), campaign_dir={str(tmp_path)!r})\n"
    )
    assert "repro.campaign.stages" in loaded
    assert [name for name in loaded if name.startswith("repro.analysis")] == []


def test_forked_agents_never_compile_a_module(tmp_path):
    """A parallel executor imports what ``execute_spec`` reaches before forking.

    The patched ``execute_spec`` is inherited by the forked agents; it
    logs its pid and every ``repro`` module first loaded during the call.
    """
    log = tmp_path / "agent_imports.jsonl"
    parent_pid = _run(f"""
import json, os, sys
from repro.network.config import SimulationConfig
from repro.runtime import executor
from repro.runtime.spec import RunSpec

original = executor.execute_spec

def watched(spec):
    before = set(sys.modules)
    try:
        return original(spec)
    finally:
        new = sorted(name for name in set(sys.modules) - before
                     if name.split(".")[0] == "repro")
        with open({str(log)!r}, "a") as handle:
            handle.write(json.dumps([os.getpid(), spec.workload, new]) + "\\n")

executor.execute_spec = watched
config = SimulationConfig(frame_cycles=2000, seed=4)
specs = [RunSpec(topology="mesh_x1", workload=workload, rate=0.05,
                 config=config, cycles=300, warmup=50)
         for workload in ("uniform", "bursty")]
with executor.ParallelExecutor(jobs=2) as parallel:
    parallel.map(specs)
print(os.getpid())
""")
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert sorted(workload for _, workload, _ in calls) == ["bursty", "uniform"]
    assert all(pid != int(parent_pid) for pid, _, _ in calls)
    assert [new for _, _, new in calls] == [[], []]
