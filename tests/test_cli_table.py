"""The verb table: each command parses exactly the flags it reads.

Every documented ``repro`` invocation must parse and reach its handler;
every (command, flag) pair is either declared by the command or exits 2
naming the flag; and three flags that used to be silently ignored now
take effect or exit 2.
"""

import contextlib
import glob
import io
import os
import re
import shlex

import pytest

from repro import cli
from repro.cli import Verb, build_parser, main, verb_table

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: A valid value for each flag that takes one (store_true flags take none).
FLAG_VALUES = {
    "--seed": "3", "--obs": "obs", "--jobs": "2", "--cache-dir": "cache",
    "--retries": "1", "--timeout": "5", "--chaos": "smoke",
    "--dispatch": "local", "--journal": "journal", "--topology": "mesh_x1",
    "--policy": "gsf", "--rate": "0.2", "--cycles": "500", "--warmup": "50",
    "--param": "on_cycles=5", "--window": "100", "--out": "out",
    "--campaign-dir": "state", "--baseline": "b.json", "--interval": "0.5",
    "--record": "r.json", "--regimes": "saturation", "--topologies": "mecs",
    "--port": "8137", "--lease-seconds": "5", "--worker-id": "w",
    "--max-tasks": "3", "--max-idle": "4", "--poll": "0.1",
}
#: A valid value for each required positional.
POSITIONAL_VALUES = {
    "workload": "bursty", "trace": "t.jsonl", "name": "smoke", "path": "obs",
    "url": "http://127.0.0.1:8137", "directory": "journal",
}
#: Documented commands that must be refused: CI's foreign-flag check.
REJECTED = {("fig3", "--port", "1")}


def _commands():
    """``{(verb,) or (verb, action): Command}`` for the whole table."""
    table = {}
    for verb, entry in verb_table().items():
        if isinstance(entry, Verb):
            for action, command in entry.actions.items():
                table[verb, action] = command
        else:
            table[(verb,)] = entry
    return table


def _argv(path, command, skip=()):
    """The command's words plus its required positionals and flags."""
    argv = list(path)
    for names, keywords in command.declared():
        if names[0] in POSITIONAL_VALUES:
            argv.append(POSITIONAL_VALUES[names[0]])
        elif keywords.get("required") and names[0] not in skip:
            argv += [names[0], FLAG_VALUES[names[0]]]
    return argv


def _parse(parser, argv):
    """(exit code or None, namespace or None, stderr) without running."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return None, parser.parse_args(argv), err.getvalue()
        except SystemExit as stop:
            return stop.code, None, err.getvalue()


def test_the_table_has_44_commands_over_40_flags():
    flags = [name for name in cli._arguments() if name.startswith("--")]
    assert len(_commands()) == 44
    assert len(flags) == 40


def test_every_command_accepts_exactly_its_declared_flags():
    parser = build_parser()
    flags = [name for name in cli._arguments() if name.startswith("--")]
    accepted = 0
    for path, command in _commands().items():
        declared = {name for names, _ in command.declared() for name in names}
        for flag in flags:
            argv = _argv(path, command, skip=(flag,)) + [flag]
            if flag in FLAG_VALUES:
                argv.append(FLAG_VALUES[flag])
            code, args, err = _parse(parser, argv)
            if flag in declared:
                accepted += 1
                assert code is None, (argv, err)
                assert args.label == " ".join(path)
            else:
                assert code == 2, argv
                assert flag in err, (argv, err)
    assert accepted == 301


def _fenced_lines(path):
    inside = False
    for line in open(path, encoding="utf-8"):
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            yield line.rstrip("\n")


def _workflow_lines(path):
    """Lines of every ``run:`` step, heredoc bodies left out."""
    run_indent = None
    heredoc = None
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        indent = len(line) - len(line.lstrip())
        match = re.match(r"\s*(?:- )?run:\s*(.*)$", line)
        if match:
            run_indent = indent
            if match.group(1) not in ("|", ">"):
                yield match.group(1)
            continue
        if run_indent is None or (line.strip() and indent <= run_indent):
            run_indent = None
            continue
        if heredoc:
            heredoc = None if line.strip() == heredoc else heredoc
            continue
        marker = re.search(r"<<-?\s*'?(\w+)'?", line)
        heredoc = marker.group(1) if marker else None
        yield line


def _docstring_lines():
    for line in cli.__doc__.splitlines():
        if line.strip().startswith("repro "):
            yield line


def _joined(lines):
    """Join lines continued with a trailing backslash."""
    pending = ""
    for line in lines:
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line
        pending = ""


def _repro_commands(line):
    """The argument lists of every ``repro``/``python -m repro`` call."""
    if re.search(r"<[a-z][^>]*>", line):  # a placeholder form
        return
    lexer = shlex.shlex(line, posix=True, punctuation_chars=";&|<>()")
    lexer.whitespace_split = True
    try:
        tokens = list(lexer)
    except ValueError:
        return
    segment = []
    for token in [*tokens, ";"]:
        if token and set(token) <= set(";&|<>()"):
            if "repro" in segment:
                start = segment.index("repro")
                if start == 0 or segment[start - 1] == "-m":
                    words = segment[start + 1:]
                    if words and not any(w.startswith("$") for w in words):
                        yield tuple(words)
            segment = []
        else:
            segment.append(token)


def documented_commands():
    workflows = glob.glob(os.path.join(ROOT, ".github", "workflows", "*.yml"))
    markdown = [
        os.path.join(ROOT, "README.md"),
        *glob.glob(os.path.join(ROOT, "docs", "*.md")),
        *glob.glob(os.path.join(ROOT, ".claude", "skills", "**", "*.md"),
                   recursive=True),
    ]
    sources = [
        *((path, _workflow_lines(path)) for path in sorted(workflows)),
        *((path, _fenced_lines(path)) for path in sorted(markdown)),
        (cli.__file__, _docstring_lines()),
    ]
    commands = {}
    for source, lines in sources:
        for line in _joined(lines):
            for words in _repro_commands(line):
                commands.setdefault(words, os.path.relpath(source, ROOT))
    return commands


def test_documentation_shows_many_commands():
    commands = documented_commands()
    assert len(commands) > 100
    assert REJECTED <= set(commands)


def test_every_documented_command_parses_and_reaches_its_handler():
    parser = build_parser()
    table = verb_table()
    for words, source in documented_commands().items():
        code, args, err = _parse(parser, list(words))
        if words in REJECTED:
            assert code == 2, (source, words)
            continue
        assert code is None, (source, words, err)
        entry = table[words[0]]
        if isinstance(entry, Verb):
            action = words[1] if words[1:] and words[1] in entry.actions else entry.default
            assert args.label == f"{words[0]} {action}", (source, words)
            assert args.command.run is entry.actions[action].run
        else:
            assert args.label == words[0], (source, words)
            assert args.command.run is entry.run


def test_a_bare_verb_runs_its_default_action():
    parser = build_parser()
    for argv, label in [
        (["bench"], "bench engine"), (["bench", "--fast"], "bench engine"),
        (["scenario"], "scenario list"), (["campaign"], "campaign list"),
        (["cache", "--cache-dir", "c"], "cache info"),
    ]:
        code, args, err = _parse(parser, argv)
        assert code is None and args.label == label, (argv, err)
    assert _parse(parser, ["obs"])[0] == 2


def test_help_exits_0_and_errors_exit_2_without_raising(capsys):
    assert main(["--help"]) == 0
    assert main(["scenario", "run", "--help"]) == 0
    assert "--window" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["fig3", "--port", "1"]) == 2
    err = capsys.readouterr().err
    assert "--port" in err and "repro fig3" in err


@pytest.mark.parametrize("argv", [
    ["fig3"],
    ["scenario", "run", "bursty", "--rate", "0.3", "--cycles", "300",
     "--no-cache"],
    ["scenario", "replay", "missing.jsonl"],
])
def test_journal_without_dispatch_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--journal", "journal"]) == 2
    assert "--dispatch" in capsys.readouterr().err
    assert not (tmp_path / "journal").exists()


def test_a_campaign_journals_without_dispatch(tmp_path, monkeypatch):
    import repro.campaign.builtin as builtin
    from repro.campaign import CampaignSpec, StageSpec

    campaign = CampaignSpec(name="tinyjournal", description="journal test",
                            stages=(StageSpec("area", "fig3"),))
    monkeypatch.setitem(builtin.CAMPAIGNS, "tinyjournal", campaign)
    assert main(["campaign", "run", "tinyjournal", "--no-cache",
                 "--campaign-dir", str(tmp_path / "state"),
                 "--baseline", str(tmp_path / "baseline.json"),
                 "--journal", str(tmp_path / "journal")]) == 0
    assert (tmp_path / "journal" / "campaign.journal.jsonl").exists()


def test_chaos_run_refuses_a_dispatch_url_before_any_leg(monkeypatch, capsys):
    import repro.resilience

    legs = []
    monkeypatch.setattr(repro.resilience, "run_chaos",
                        lambda *args, **kwargs: legs.append(kwargs))
    assert main(["chaos", "run", "smoke", "--dispatch",
                 "http://127.0.0.1:8137"]) == 2
    assert "--dispatch" in capsys.readouterr().err
    assert legs == []


@pytest.mark.parametrize("section", ["runtime", "journal"])
def test_bench_jobs_0_means_every_core(section, monkeypatch):
    from repro.runtime import bench

    calls = []
    monkeypatch.setattr(bench, "run_section",
                        lambda name, **options: calls.append(options) or [])
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    for jobs in ("0", "1", "3"):
        main(["bench", section, "--jobs", jobs])
    assert [options["jobs"] for options in calls] == [7, 2, 3]
