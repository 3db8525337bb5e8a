"""CLI wiring of the resilience flags, chaos verbs and repro doctor."""

import json

from repro.cli import _cache, _executor, _fault_injector, build_parser, main
from repro.network.config import SimulationConfig
from repro.resilience import FaultPlan
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.spec import RunSpec, execute_spec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)


def _args(*argv):
    return build_parser().parse_args(["fig3", *argv])


def test_resilience_flag_defaults():
    args = _args()
    assert args.retries is None
    assert args.timeout is None
    assert args.chaos is None


def test_invalid_resilience_flags_exit_2(capsys):
    assert main(["fig3", "--retries", "-1"]) == 2
    assert "--retries" in capsys.readouterr().err
    assert main(["fig3", "--timeout", "0"]) == 2
    assert "--timeout" in capsys.readouterr().err


def test_retries_and_timeout_configure_the_parallel_executor():
    ex = _executor(_args("--jobs", "2", "--retries", "2", "--timeout", "1.5"))
    assert isinstance(ex, ParallelExecutor)
    assert ex.retry.max_attempts == 3  # 2 retries = 3 total attempts
    assert ex.timeout == 1.5
    # --jobs 1 stays the honest serial baseline: supervision is inert.
    assert isinstance(
        _executor(_args("--retries", "2", "--timeout", "1.5")), SerialExecutor
    )


def test_dispatch_serve_retries_0_means_one_attempt(monkeypatch):
    # The broker's policy counts attempts: `--retries 0` is one attempt
    # per spec, and only an absent flag means the default of 2 retries.
    import repro.dispatch

    brokers = []

    class StubServer:
        url = "http://127.0.0.1:0"

        def __init__(self, broker, port=None):
            brokers.append(broker)

        def serve_forever(self):
            raise KeyboardInterrupt

    monkeypatch.setattr(repro.dispatch, "BrokerServer", StubServer)
    assert main(["dispatch", "serve", "--retries", "0"]) == 0
    assert main(["dispatch", "serve", "--retries", "1"]) == 0
    assert main(["dispatch", "serve"]) == 0
    assert [broker.retry.max_attempts for broker in brokers] == [1, 2, 3]


def test_chaos_flag_threads_one_injector_through_executor_and_cache(
    tmp_path, monkeypatch
):
    args = _args("--jobs", "2", "--chaos", "smoke",
                 "--cache-dir", str(tmp_path))
    injector = _fault_injector(args)
    assert injector is not None and injector.plan.name == "smoke"
    assert _fault_injector(args) is injector  # one injector per command
    assert _executor(args).faults is injector
    assert _cache(args).put_hook == injector.on_cache_put
    assert _fault_injector(_args()) is None
    # `campaign run --chaos` hands the runner that same injector.
    from repro.campaign import CampaignRunner
    from repro.errors import CampaignInterrupted

    runners = []

    def stop(self, **options):
        runners.append(self)
        raise CampaignInterrupted("stopped before the first stage")

    monkeypatch.setattr(CampaignRunner, "run", stop)
    assert main(["campaign", "run", "smoke", "--jobs", "2", "--chaos", "smoke",
                 "--campaign-dir", str(tmp_path / "state"),
                 "--cache-dir", str(tmp_path / "cache")]) == 3
    [runner] = runners
    assert runner.executor.faults is runner.faults
    assert runner.cache.put_hook == runner.faults.on_cache_put


def test_chaos_plan_prints_round_trippable_json(capsys):
    assert main(["chaos", "plan", "smoke"]) == 0
    plan = FaultPlan.from_json(json.loads(capsys.readouterr().out))
    assert plan.name == "smoke" and plan.faults


def test_chaos_plan_list_and_unknown_plan(capsys):
    assert main(["chaos", "plan", "list"]) == 0
    out = capsys.readouterr().out
    assert "smoke:" in out and "none:" in out
    assert main(["chaos", "plan", "no-such-plan"]) == 2
    assert "no-such-plan" in capsys.readouterr().err
    assert main(["chaos", "bogus"]) == 2


def test_chaos_plan_from_file(tmp_path, capsys):
    from repro.resilience import Fault

    custom = FaultPlan(name="mine", faults=(Fault(kind="spec_error", at=1),))
    path = tmp_path / "plan.json"
    path.write_text(custom.dumps(), encoding="utf-8")
    assert main(["chaos", "plan", str(path)]) == 0
    assert FaultPlan.from_json(json.loads(capsys.readouterr().out)) == custom


def _seeded_cache(root, corrupt: bool):
    cache = ResultCache(root)
    for rate in (0.04, 0.06):
        spec = RunSpec(topology="mesh_x1", workload="uniform", rate=rate,
                       config=_CFG, cycles=400, warmup=100)
        cache.put(spec, execute_spec(spec))
    if corrupt:
        blob = sorted(cache.version_dir.glob("*/*.json"))[0]
        blob.write_bytes(b"bitrot")
    return cache


def test_doctor_quarantines_and_reports(tmp_path, capsys):
    _seeded_cache(tmp_path, corrupt=True)
    assert main(["doctor", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 quarantined" in out and "quarantine holds 1 blob(s)" in out
    # --check keeps failing while the quarantine holds evidence.
    assert main(["doctor", "--cache-dir", str(tmp_path), "--check"]) == 1
    assert "--check" in capsys.readouterr().err


def test_doctor_check_passes_on_a_healthy_cache(tmp_path, capsys):
    _seeded_cache(tmp_path, corrupt=False)
    assert main(["doctor", "--cache-dir", str(tmp_path), "--check"]) == 0
    assert "cache is healthy" in capsys.readouterr().out


def test_list_advertises_the_new_verbs(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "chaos" in out and "doctor" in out
