"""The command line's argv parser against a plain argparse parser.

`cli._parse_argv` reads a plain command line with the table-driven fast
path `cli._read` and leaves every other one to `cli._argparse`.
`reference_parser` is an argparse set-up written out by hand, kept here
as the oracle.  On a generated corpus of command lines every argv must
end the same way under both: accepted with the same attributes, help
(exit 0), or a usage error (exit 2).  The one intended difference is
that options are not abbreviated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import theta3

from theta3 import cli


def reference_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-subsets",
        type=int,
        default=None,
        metavar="N",
        help="abort with exit 3 after N search nodes",
    )
    common.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="abort with exit 3 after S seconds of search",
    )
    p = argparse.ArgumentParser(
        prog="theta3", description="binary matroid theta-closure toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common], help="decide theta-closedness")
    c.add_argument("input", help="catalog key or file path")
    c.add_argument("--graph", action="store_true", help="input file is an edge list")
    c.add_argument(
        "--no-shortcut",
        action="store_true",
        help="disables the projective shortcut, the rank rule, the recipe "
        "certificate and, with --graph, the flow test (the circuit-pair "
        "scan decides)",
    )

    c = sub.add_parser("closure", parents=[common], help="compute the closure")
    c.add_argument("input", help="catalog key or file path")
    c.add_argument("--graph", action="store_true", help="input file is an edge list")
    c.add_argument(
        "--strategy",
        choices=("batch", "one_at_a_time"),
        default="batch",
        help="add all vectors found in a round, or only the smallest of them",
    )

    c = sub.add_parser(
        "decompose", parents=[common], help="canonical tree and class verdict"
    )
    c.add_argument("input", help="catalog key or file path")
    c.add_argument("--graph", action="store_true", help="input file is an edge list")

    c = sub.add_parser("build", parents=[common], help="evaluate a recipe term")
    c.add_argument("term", nargs="+", help="e.g. 'P(MK(4), C(3); base=1-2,e1)'")

    c = sub.add_parser(
        "crossval", parents=[common], help="classifier vs direct decision sweep"
    )
    c.add_argument("--exhaustive-rank", type=int, default=3, metavar="R")
    c.add_argument("--samples", type=int, default=200, metavar="N")
    c.add_argument("--sample-rank", type=int, default=4, metavar="R")
    c.add_argument("--seed", type=int, default=0)

    sub.add_parser("catalog", parents=[common], help="list named matroids")
    return p


REFERENCE = reference_parser()


def attributes(args) -> str:
    """The attributes of an args object, comparable even when one is NaN."""
    return repr(sorted(vars(args).items()))


def reference_outcome(argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "accepted", attributes(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return ("help", None) if exc.code in (0, None) else ("error", exc.code)


def outcome(argv: list[str]):
    try:
        return "accepted", attributes(cli._parse_argv(argv))
    except cli._Usage as exc:
        return ("help", None) if exc.code == 0 else ("error", exc.code)


# -- the corpus ---------------------------------------------------------------

# Option spellings, each with values good and bad.  Every command meets
# every option, so each also stands for an unknown option somewhere.
# A negative value is a separate token only in the forms that argparse
# reads as a number on every supported Python (-1, -0.5, -.5).
INT_VALUES = ["5", "0", "-1", " 7", "x", "1.5", "", "-x"]
FLOAT_VALUES = ["0.5", "-1", "-0.5", "-.5", "1e-9", "inf", "nan", "x", ""]


def option_snippets() -> list[list[str]]:
    out: list[list[str]] = []
    for name in ("--graph", "--no-shortcut"):
        out += [[name], [f"{name}=1"], [f"{name}="]]
    for name in ("--max-subsets", "--exhaustive-rank", "--samples", "--sample-rank", "--seed"):
        out += [[name, v] for v in INT_VALUES]
        out += [[f"{name}={v}"] for v in INT_VALUES + ["-5"]]
        out.append([name])
    out += [["--max-seconds", v] for v in FLOAT_VALUES]
    out += [[f"--max-seconds={v}"] for v in FLOAT_VALUES + ["-1e-9", "-inf"]]
    out.append(["--max-seconds"])
    out += [["--strategy", v] for v in ("batch", "one_at_a_time", "foo", "")]
    out += [["--strategy=one_at_a_time"], ["--strategy=foo"], ["--strategy"]]
    out += [["-h"], ["--help"], ["--help=1"], ["--bogus"], ["--bogus=1"], ["-x"]]
    return out


POSITIONALS = {
    "check": [[], ["PG(3)"], ["PG(3)", "F7"], ["-1"], ["-"], [""], ["a b"]],
    "closure": [[], ["F7STAR"], ["F7STAR", "x"], ["-5"]],
    "decompose": [[], ["MK(4)"], ["MK(4)", "x"]],
    "build": [[], ["C(3)"], ["P(C(3),", "MK(3);", "base=e3,1-2)"], ["-1", "x"]],
    "crossval": [[], ["x"]],
    "catalog": [[], ["x"]],
}

# Pairs of options, each valid on its own for some command.
PAIRED = [
    ["--max-subsets", "5"],
    ["--max-subsets=7"],
    ["--max-seconds", "-.5"],
    ["--graph"],
    ["--no-shortcut"],
    ["--strategy", "one_at_a_time"],
    ["--samples", "-1"],
    ["--seed=3"],
    ["--exhaustive-rank", "2"],
    ["-h"],
]


def corpus() -> list[list[str]]:
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []

    def add(argv: list[str]) -> None:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(argv)

    snippets = option_snippets()
    for command, positionals in POSITIONALS.items():
        for pos in positionals:
            add([command, *pos])
            for s in snippets:
                add([command, *pos, *s])
                add([command, *s, *pos])
                add([command, *pos[:1], *s, *pos[1:]])
        pos = positionals[1]
        for a in PAIRED:
            for b in PAIRED:
                add([command, *pos, *a, *b])
                add([command, *a, *pos, *b])
                add([command, *a, *b, *pos])
        # a positional run broken by an option
        add([command, "x", "--max-subsets", "5", "y"])
        add([command, "x", "--graph", "y", "z"])
    for argv in (
        [],
        ["-h"],
        ["--help"],
        ["--help=1"],
        ["bogus"],
        ["-1"],
        ["--bogus"],
        ["--bogus", "check", "PG(3)"],
        ["--bogus", "check", "-h"],
        ["-x", "-h"],
        ["-h", "bogus"],
        ["--max-subsets", "5", "check", "PG(3)"],
        ["CHECK", "PG(3)"],
    ):
        add(argv)
    return out


CORPUS = corpus()


def test_the_corpus_covers_every_command_and_option():
    assert len(CORPUS) > 5000
    assert {argv[0] for argv in CORPUS if argv} >= set(cli._GRAMMAR)
    words = {token.split("=")[0] for argv in CORPUS for token in argv}
    for command in cli._GRAMMAR.values():
        assert {o.name for o in command.options} <= words
    outcomes = {outcome(argv)[0] for argv in CORPUS}
    assert outcomes == {"accepted", "help", "error"}


def test_every_argv_ends_as_under_argparse():
    differ = []
    for argv in CORPUS:
        want, got = reference_outcome(argv), outcome(argv)
        if want != got:
            differ.append((argv, want, got))
    assert differ == [], f"{len(differ)} of {len(CORPUS)} differ, first {differ[:5]}"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "PG(3)", "--gr"],
        ["check", "PG(3)", "--no"],
        ["check", "PG(3)", "--max-sub", "5"],
        ["check", "PG(3)", "--max-sub=5"],
        ["closure", "F7", "--strat", "batch"],
        ["crossval", "--exhaustive", "2"],
        ["crossval", "--sample-r", "3"],
        ["check", "PG(3)", "--he"],
        ["--he"],
    ],
)
def test_abbreviations_are_no_longer_accepted(argv):
    # argparse took a unique prefix of an option for the option
    assert reference_outcome(argv)[0] in ("accepted", "help")
    assert outcome(argv) == ("error", 2)


def test_args_carry_the_names_the_commands_read():
    args = cli._parse_argv(["closure", "F7", "--strategy=one_at_a_time", "--max-seconds", "-.5"])
    assert vars(args) == {
        "command": "closure",
        "input": "F7",
        "graph": False,
        "strategy": "one_at_a_time",
        "max_subsets": None,
        "max_seconds": -0.5,
    }
    args = cli._parse_argv(["build", "--max-subsets", "9", "P(C(3),", "MK(3);", "base=e3)"])
    assert args.term == ["P(C(3),", "MK(3);", "base=e3)"] and args.max_subsets == 9


def test_usage_error_goes_to_stderr_with_no_report(capsys):
    assert cli.main(["check", "PG(3)", "--max-subsets", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first, second = captured.err.splitlines()
    assert first.startswith("usage: theta3 check ")
    assert second == "theta3 check: error: argument --max-subsets: invalid int value: 'x'"


@pytest.mark.parametrize("command", [None, *cli._GRAMMAR])
def test_help_lists_every_option_and_exits_zero(capsys, command):
    argv = ["-h"] if command is None else [command, "--help"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: theta3 ")
    names = cli._GRAMMAR if command is None else [o.name for o in cli._GRAMMAR[command].options]
    for name in names:
        assert name in captured.out
    with pytest.raises(json.JSONDecodeError):
        json.loads(captured.out)


def test_the_fast_path_agrees_with_argparse():
    read = 0
    for argv in CORPUS:
        args = cli._read(argv)
        if args is not None:
            read += 1
            assert attributes(args) == attributes(cli._argparse(argv)), argv
    # the fast path takes a good share of the accepted lines
    assert read > 500


def readme_examples() -> list[list[str]]:
    """The argv of each `theta3 ...` line in README's first code block
    under "Command line"."""
    text = Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [words[1:] for words in lines if words[:1] == ["theta3"]]


@pytest.mark.parametrize(
    "argv",
    [
        # the shapes of the benchmark's ops
        ["check", "/tmp/in.matroid", "--max-subsets", "200000"],
        ["check", "/tmp/in.graph", "--graph", "--max-subsets", "200000"],
        ["check", "/tmp/in.matroid", "--no-shortcut", "--max-subsets", "200000"],
        ["decompose", "/tmp/in.matroid", "--max-subsets", "200000"],
        ["closure", "/tmp/in.matroid", "--max-subsets", "200000"],
        ["check", "/tmp/in.matroid"],
        *readme_examples(),
    ],
)
def test_plain_command_lines_take_the_fast_path(argv):
    args = cli._read(argv)
    assert args is not None
    assert attributes(args) == attributes(cli._argparse(argv))


def test_readme_examples_cover_every_command():
    assert {argv[0] for argv in readme_examples()} == set(cli._GRAMMAR)


def test_readme_examples_answer(capsys, monkeypatch, tmp_path):
    # every example runs as written, in a directory that holds the
    # input.graph it names, and ends in a verdict (exit 0 or 1), never in
    # a usage or input error
    monkeypatch.chdir(tmp_path)
    Path("input.graph").write_text("a b ab\na c ac\na d ad\nb c bc\nb d bd\nc d cd\n")
    for argv in readme_examples():
        assert cli.main(argv) in (0, 1), argv
        capsys.readouterr()


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this theta3."""
    src = str(Path(theta3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_import_argparse():
    # a plain command line never needs argparse, so start-up skips it
    out = run_fresh("import sys, theta3.cli; print('argparse' in sys.modules)")
    assert out.strip() == "False"


def test_importing_the_cli_runs_every_module_and_loads_no_heavy_stdlib():
    # start-up runs every theta3 module, none lazily, and needs neither
    # dataclasses nor the inspect chain it pulls in, nor traceback, which
    # only an internal error (exit 4) prints
    out = run_fresh(
        "import json, sys, theta3.cli; print(json.dumps(sorted(m for m in sys.modules "
        "if m in ('argparse', 'dataclasses', 'inspect', 'traceback') "
        "or m.startswith('theta3.'))))"
    )
    package = Path(theta3.__file__).parent
    submodules = sorted(f"theta3.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    assert json.loads(out) == submodules
