"""The experiment table: CLI targets, budgets and formatters all read it.

``repro.campaign.stages`` declares every stage kind once.  ``repro
list``, ``repro all`` and ``repro report`` read its targets, and
``repro <target>`` runs each kind with its ``paper`` campaign stage's
params (``smoke`` under ``--fast``).  Most cases here swap every
adapter's ``run`` for a recorder, so they simulate nothing.
"""

import dataclasses
import os
import re

import pytest

from repro.campaign import get_campaign, load_baseline
from repro.campaign.stages import STAGE_ADAPTERS, TARGETS, get_adapter
from repro.cli import main
from repro.topologies.registry import TOPOLOGY_NAMES

BASELINE = load_baseline(
    os.path.join(os.path.dirname(__file__), os.pardir, "CAMPAIGN_baseline.json")
)

#: Every kind's table title and the labels a row shows at the start of
#: its line, as the formatter renders them.
_HOPS = {"source": "src", "intermediate": "intermediate",
         "destination": "dest", "three_hops": "3 hops"}
RENDERED = {
    "fig3": ("Figure 3: router area overhead (mm^2)",
             lambda row: [row["topology"]]),
    "fig4": ("Figure 4(a): uniform random", lambda row: [row["topology"]]),
    "table2": ("Table 2: relative throughput of different QOS schemes",
               lambda row: [row["topology"]]),
    "fig5": ("Figure 5: preemption rate under adversarial workloads",
             lambda row: [row["workload"], row["topology"]]),
    "fig6": ("Figure 6: slowdown vs preemption-free and deviation from max-min",
             lambda row: [row["workload"], row["topology"]]),
    "fig7": ("Figure 7: router energy per flit",
             lambda row: [row["topology"], _HOPS[row["hop"]]]),
    "saturation": ("Section 5.2: preemption rates in saturation",
                   lambda row: [row["pattern"], row["topology"]]),
    "burst_fairness": ("Burst fairness (extension)",
                       lambda row: [row["traffic"], row["policy"]]),
    "pvc_vs_gsf": ("PVC vs GSF (extension)",
                   lambda row: [row["regime"], row["policy"]]),
    "ablation_quota": ("Ablation: reserved quota vs adversarial preemption",
                       lambda row: [f"{row['share']:.4f}"]),
    "ablation_reserved_vc": ("Ablation: reserved VC for rate-compliant traffic",
                             lambda row: [row["workload"],
                                          "on" if row["reserved"] else "off"]),
    "ablation_patience": ("Ablation: preemption patience",
                          lambda row: [str(row["patience"])]),
    "ablation_frame": ("Ablation: PVC frame length",
                       lambda row: [str(row["frame_cycles"])]),
    "ablation_window": ("Ablation: retransmission window",
                        lambda row: [str(row["window_packets"])]),
    "ablation_replica": ("Ablation: replica selection",
                         lambda row: [f"mesh_x{row['replication']}", row["policy"]]),
    "ablation_fbfly": ("Extension: flattened butterfly vs MECS vs DPS",
                       lambda row: [row["topology"]]),
    "chip": ("Chip study: shared-column count and placement",
             lambda row: [str(list(row["columns"]))]),
}


def _committed_rows(kind: str) -> list[list[dict]]:
    """Every committed stage's rows of ``kind``; the analytical ``chip``,
    in no campaign, contributes its default rows."""
    if kind == "chip":
        return [get_adapter("chip").run({})]
    return [
        entry["rows"]
        for campaign in BASELINE["campaigns"].values()
        for name, entry in campaign["stages"].items()
        if name == kind
    ]


@pytest.fixture
def recorded(monkeypatch):
    """Swap every adapter's ``run`` for a recorder of its calls."""
    canned = {kind: _committed_rows(kind)[0] for kind in STAGE_ADAPTERS}
    calls = []
    for kind, adapter in list(STAGE_ADAPTERS.items()):

        def run(params, *, seed, executor, cache, kind=kind):
            calls.append((kind, params, seed))
            return canned[kind]

        monkeypatch.setitem(
            STAGE_ADAPTERS, kind, dataclasses.replace(adapter, run=run)
        )
    return calls


def test_every_listed_target_maps_to_table_kinds(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.splitlines()
             if not line.startswith("   ")]
    assert names[: names.index("report")] == list(TARGETS) == [
        "fig3", "fig4", "table2", "fig5", "fig6", "fig7", "saturation",
        "burst", "pvcgsf", "ablations", "chip",
    ]
    reachable = [kind for kinds in TARGETS.values() for kind in kinds]
    assert sorted(reachable) == sorted(STAGE_ADAPTERS)
    for kind in STAGE_ADAPTERS:
        assert get_adapter(kind).description in out


def test_campaign_list_prints_the_table_descriptions(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    for stage in get_campaign("paper").stages:
        assert get_adapter(stage.kind).description in out


@pytest.mark.parametrize("fast", [False, True], ids=["paper", "smoke"])
@pytest.mark.parametrize("target", list(TARGETS))
def test_a_target_runs_its_campaign_stages_params(recorded, target, fast, tmp_path):
    argv = [target, "--seed", "5", "--cache-dir", str(tmp_path)]
    assert main(argv + ["--fast"] if fast else argv) == 0
    stages = {stage.kind: stage
              for stage in get_campaign("smoke" if fast else "paper").stages}
    # Only the analytical chip study is in no campaign: it runs at its
    # adapter defaults.
    assert [kind for kind in TARGETS[target] if kind not in stages] == (
        ["chip"] if target == "chip" else []
    )
    assert recorded == [
        (kind, dict(stages[kind].params) if kind in stages else {}, 5)
        for kind in TARGETS[target]
    ]


def test_fig4_budgets_come_from_the_campaigns(recorded, tmp_path):
    assert main(["fig4", "--cache-dir", str(tmp_path)]) == 0
    assert main(["fig4", "--fast", "--cache-dir", str(tmp_path)]) == 0
    assert [params for _, params, _ in recorded] == [
        {"cycles": 4000, "warmup": 1000},
        {"rates": [0.02, 0.08], "cycles": 600, "warmup": 150,
         "topology_names": ["mesh_x1", "mecs"]},
    ]


def test_all_runs_each_kind_once_and_writes_nothing(recorded, tmp_path,
                                                     monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["all", "--fast", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert [kind for kind, _, _ in recorded] == [
        kind for kinds in TARGETS.values() for kind in kinds
    ]
    assert sorted(kind for kind, _, _ in recorded) == sorted(STAGE_ADAPTERS)
    assert list(cwd.iterdir()) == []


def test_report_writes_what_all_prints(recorded, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["all", "--fast", "--seed", "3"]) == 0
    printed = capsys.readouterr().out
    assert main(["report", "--fast", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("report written to REPORT.md\n")
    report = (tmp_path / "REPORT.md").read_text(encoding="utf-8")
    assert "mode: fast (smoke budgets)  |  seed: 3" in report
    texts = re.split(r"\n\[\w+: [0-9.]+s\]\n\n", printed)
    assert texts[-1] == "" and len(texts) == len(TARGETS) + 1
    for target, text in zip(TARGETS, texts):
        assert f"## {target}\n\n```\n{text}\n```\n" in report


@pytest.mark.parametrize("campaign", ["paper", "smoke"])
def test_shard_overlays_join_up_to_the_stage_topologies(campaign):
    """One batch over a stage's base params runs exactly its shards' specs."""
    sharded = [stage for stage in get_campaign(campaign).stages if stage.shards]
    assert sharded
    for stage in sharded:
        assert all(set(overlay) == {"topology_names"} for overlay in stage.shards)
        joined = [name for overlay in stage.shards
                  for name in overlay["topology_names"]]
        # Every sharded kind defaults to the paper's five topologies.
        base = stage.params.get("topology_names", list(TOPOLOGY_NAMES))
        assert sorted(joined) == sorted(base), stage.name


@pytest.mark.parametrize("kind", sorted(STAGE_ADAPTERS))
def test_every_formatter_renders_the_committed_rows(kind):
    title, labels = RENDERED[kind]
    committed = _committed_rows(kind)
    assert committed
    for rows in committed:
        text = get_adapter(kind).format(rows)
        assert title in text
        lines = text.splitlines()
        for row in rows:
            start = re.compile(r"\s+".join(map(re.escape, labels(row))) + r"(\s|$)")
            assert any(start.match(line) for line in lines), (kind, row)
