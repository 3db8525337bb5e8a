"""CLI wiring of the campaign verbs."""

import json

import pytest

import repro.campaign.builtin as builtin
from repro.campaign import CampaignSpec, StageSpec
from repro.cli import main


@pytest.fixture
def tiny_registered(monkeypatch):
    """Register a fast campaign under the name 'tinyci'."""
    campaign = CampaignSpec(
        name="tinyci",
        description="cli test campaign",
        stages=(
            StageSpec("area", "fig3"),
            StageSpec(
                "sat",
                "saturation",
                params={"cycles": 250, "topology_names": ["mesh_x1"]},
                depends_on=("area",),
            ),
        ),
    )
    monkeypatch.setitem(builtin.CAMPAIGNS, "tinyci", campaign)
    return campaign


def _run(args, tmp_path, *extra):
    """``repro campaign <args>`` with the flags its action reads."""
    flags = ["--campaign-dir", str(tmp_path / "state")]
    if args[0] in ("run", "resume", "report", "diff"):
        flags += ["--baseline", str(tmp_path / "baseline.json")]
    if args[0] in ("run", "resume"):
        flags.append("--no-cache")
    return main(["campaign", *args, *flags, *extra])


def test_campaign_list_shows_builtins(capsys):
    assert main(["campaign", "list"]) == 0
    out = capsys.readouterr().out
    assert "paper:" in out
    assert "smoke:" in out
    assert "burst_fairness" in out


def test_campaign_requires_leading_position(capsys):
    assert main(["fig3", "campaign"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_campaign_rejects_seed_and_fast_flags(capsys):
    # Seeds and budgets are pinned in the campaign spec: no campaign
    # action reads either flag.
    assert main(["campaign", "run", "smoke", "--seed", "7"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert main(["campaign", "run", "smoke", "--fast"]) == 2
    assert "--fast" in capsys.readouterr().err


def test_campaign_unknown_action(capsys):
    assert main(["campaign", "dance"]) == 2
    assert "dance" in capsys.readouterr().err


def test_campaign_run_requires_name(capsys):
    assert main(["campaign", "run"]) == 2
    assert "usage" in capsys.readouterr().err


def test_campaign_unknown_name(tmp_path, capsys):
    assert _run(["run", "ghost"], tmp_path) == 2
    assert "unknown campaign" in capsys.readouterr().err


def test_campaign_run_status_report_diff_cycle(
    tiny_registered, tmp_path, capsys
):
    # First run: no baseline yet -> --check would fail; plain run is 0.
    assert _run(["run", "tinyci"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "sat: complete" in out
    assert "overall: fail no_baseline=2" in out

    # status shows completion.
    assert _run(["status", "tinyci"], tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("complete") == 2

    # Record the baseline, then report --check passes.
    assert _run(["report", "tinyci"], tmp_path, "--update-baseline") == 0
    capsys.readouterr()
    assert _run(["report", "tinyci"], tmp_path, "--check") == 0
    assert "Overall: PASS" in capsys.readouterr().out

    # diff agrees.
    assert _run(["diff", "tinyci"], tmp_path) == 0
    assert "every stage matches" in capsys.readouterr().out

    # A re-run now --check-passes and reuses everything.
    assert _run(["run", "tinyci"], tmp_path, "--check") == 0
    out = capsys.readouterr().out
    assert "served from manifest" in out


def test_campaign_obs_writes_telemetry_under_dir(tiny_registered, tmp_path):
    # `--obs DIR` is where the telemetry goes, as for a target: a run
    # and a resume each write DIR/telemetry_<name>.json, and nothing
    # lands in the campaign directory.
    for action in ("run", "resume"):
        obs = tmp_path / f"obs_{action}"
        assert _run([action, "tinyci"], tmp_path, "--obs", str(obs)) == 0
        document = json.loads((obs / "telemetry_tinyci.json").read_text())
        assert document["meta"] == {"campaign": "tinyci"}
    assert not (tmp_path / "state" / "telemetry.json").exists()


def test_campaign_obs_leaves_the_manifest_telemetry_unchanged(
    tiny_registered, tmp_path
):
    # `--obs` attaches a recorder to the executor instead of wrapping
    # it, so the manifest describes the same executor, with the same
    # counters, with or without it.
    telemetry = {}
    for name, extra in (("plain", ()), ("obs", ("--obs", str(tmp_path / "obs")))):
        state = tmp_path / name
        assert main(["campaign", "run", "tinyci", "--campaign-dir", str(state),
                     "--baseline", str(tmp_path / "baseline.json"),
                     "--no-cache", "--jobs", "2", *extra]) == 0
        manifest = json.loads((state / "manifest.json").read_text())
        telemetry[name] = manifest["telemetry"]
        del telemetry[name]["wall_seconds"]
        for stage in telemetry[name]["stages"].values():
            del stage["elapsed_seconds"]
    assert telemetry["plain"]["executor"] == "parallel[jobs=2]"
    assert telemetry["obs"] == telemetry["plain"]


def test_campaign_check_fails_without_baseline(tiny_registered, tmp_path, capsys):
    assert _run(["run", "tinyci"], tmp_path, "--check") == 1
    err = capsys.readouterr().err
    assert "--check" in err


def test_campaign_resume_requires_manifest(tiny_registered, tmp_path, capsys):
    assert _run(["resume", "tinyci"], tmp_path) == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_campaign_report_json(tiny_registered, tmp_path, capsys):
    assert _run(["run", "tinyci"], tmp_path) == 0
    capsys.readouterr()
    assert _run(["report", "tinyci"], tmp_path, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["campaign"] == "tinyci"
    assert {stage["name"] for stage in report["stages"]} == {"area", "sat"}


def test_campaign_diff_reports_mismatches(tiny_registered, tmp_path, capsys):
    assert _run(["run", "tinyci"], tmp_path) == 0
    assert _run(["report", "tinyci"], tmp_path, "--update-baseline") == 0
    # Tamper with the baseline rows to force a fail verdict.
    baseline_path = tmp_path / "baseline.json"
    data = json.loads(baseline_path.read_text())
    rows = data["campaigns"]["tinyci"]["stages"]["sat"]["rows"]
    rows[0]["delivered_flits"] += 10_000
    baseline_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert _run(["diff", "tinyci"], tmp_path) == 1
    out = capsys.readouterr().out
    assert "sat:" in out
    assert "delivered_flits" in out


def test_campaign_dir_defaults_to_env(tiny_registered, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "envbase"))
    assert main(
        [
            "campaign",
            "run",
            "tinyci",
            "--baseline",
            str(tmp_path / "b.json"),
            "--no-cache",
        ]
    ) == 0
    assert (tmp_path / "envbase" / "tinyci" / "manifest.json").exists()
