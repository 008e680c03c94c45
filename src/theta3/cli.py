"""Command-line front end.

Six subcommands: check (theta-closedness verdict with witness), closure
(fixed point plus per-round trace), decompose (canonical tree plus class
verdict), build (evaluate a recipe term), crossval (agreement sweep of
the classifier, whose verdict is the recipe certificate's, against the
direct decision procedure), catalog (named matroids).  Every command
prints one JSON report to stdout and exits 0 for success/true verdicts,
1 for false verdicts, 2 for errors, 3 when a --max-subsets/--max-seconds
budget ran out before an answer, and 4 for an internal error (the
traceback goes to stderr).  A reader that closes stdout early changes
neither the exit code nor stderr.

Input resolution: an input argument is tried as a catalog key first
(F7, MK(5), PG(3), ...), then as a file path.  Files hold `dim d` on
the first line followed by `LABEL bits` element lines, `#` starting a
comment; with --graph the file is `u v label` edge lines instead.
check --graph and closure --graph work on the graph itself: check
decides by one flow per vertex pair, reading the report's size and
rank from one pass over the edges, and builds the cycle matroid only
for a witness; closure runs one round of flows.  check --graph
--no-shortcut and decompose --graph work on the cycle matroid, and the
first by the circuit-pair scan.  When a recipe certificate proved
check's closed verdict, the report's recipe slot holds that recipe.

Argv grammar: `theta3 COMMAND [options] ARG`, options before or after
the positional argument, each spelled out in full and taking its value
as `--opt value` or `--opt=value`.  One table, _GRAMMAR, drives both
parsers.  _read takes a plain command line (no help, no `--`, no value
that starts with '-' as a separate token, no usage error) without
importing argparse; every other line goes to argparse, built from the
table with abbreviations off, which owns help (stdout, exit 0) and
usage errors (`usage: ...` and `theta3 COMMAND: error: ...` on stderr,
exit 2, no JSON report).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from functools import cache
from types import SimpleNamespace
from typing import NamedTuple

from theta3.budget import Budget, BudgetExceededError
from theta3.gf2 import MAX_DIM, DimensionError, bits_to_str
from theta3.matroid import (
    BinaryMatroid,
    UnknownLabelError,
    restrict,
    same_matroid,
)
from theta3.construct import (
    BuildRecipe,
    _Graph,
    catalog_listing,
    catalog_matroid,
    evaluate_term,
    is_projective,
    parse_recipe,
    projective_geometry,
    serialize_term,
)
from theta3.theta import (
    ClosureTrace,
    ThetaGraph,
    _graph_closure,
    _graph_theta,
    is_complete,
    is_theta3_closed,
    theta3_closure,
)
from theta3.decompose import (
    MatroidLabelledTree,
    canonical_tree_decomposition,
    classify_theta3,
)

__all__ = ["parse_matroid", "parse_graph", "run", "main"]


# -- parsing --------------------------------------------------------------


def parse_matroid(text: str) -> BinaryMatroid:
    """Read the `dim d` / `LABEL bits` format; row 1 is the leading bit."""
    dim: int | None = None
    pairs: list[tuple[str, int]] = []
    seen: dict[str, int] = {}  # the line of each label
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdecimal():
                raise ValueError(f"line {lineno}: expected 'dim d', got {line!r}")
            dim = int(parts[1])
            if dim > MAX_DIM:
                raise ValueError(f"line {lineno}: dim {dim} exceeds MAX_DIM = {MAX_DIM}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'LABEL bits', got {line!r}")
        lab, bits = parts
        if len(bits) != dim or bits.strip("01"):
            raise ValueError(
                f"line {lineno}: column must be {dim} characters of 0/1, got {bits!r}"
            )
        _check_label(lab, lineno, seen)
        # bits_from_str's encoding, with the bits already checked here
        pairs.append((lab, int(bits[::-1], 2)))
    if dim is None:
        raise ValueError("missing 'dim d' header line")
    return BinaryMatroid.from_pairs(pairs, dim)


def _check_label(lab: str, lineno: int, seen: dict[str, int]) -> None:
    """Record that lab is on line lineno, or raise if an earlier line has it."""
    first = seen.setdefault(lab, lineno)
    if first != lineno:
        raise ValueError(
            f"line {lineno}: label {lab!r} is already on line {first}: "
            "labels must be pairwise distinct"
        )


def parse_graph(text: str) -> list[tuple[str, str, str]]:
    """Read `u v label` edge lines."""
    edges = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v label', got {line!r}")
        _check_label(parts[2], lineno, seen)
        edges.append((parts[0], parts[1], parts[2]))
    return edges


def _read_text(path: str) -> str:
    """A file's text, read as bytes and decoded from UTF-8 once."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _load_edges(argument: str) -> list[tuple[str, str, str]]:
    return parse_graph(_read_text(argument))


def _load_matroid(argument: str, as_graph: bool) -> BinaryMatroid:
    if as_graph:
        return _Graph(_load_edges(argument)).matroid
    try:
        return catalog_matroid(argument)
    except KeyError:
        pass
    try:
        text = _read_text(argument)
    except (OSError, ValueError):
        # the file's own error (a directory, bytes that are not UTF-8)
        # for a path that exists; otherwise the argument is neither
        if os.path.exists(argument):
            raise
        raise ValueError(f"{argument!r} is neither a catalog key nor a file") from None
    return parse_matroid(text)


# -- JSON rendering -------------------------------------------------------


def _matroid_json(M: BinaryMatroid, rendered: list[str] | None = None) -> dict:
    """M as JSON; rendered, when given, holds each column's bits_to_str."""
    if rendered is None:
        rendered = [bits_to_str(c, M.dim) for c in M.cols]
    return {
        "dim": M.dim,
        "rank": M.rank,
        "size": M.size,
        "elements": [[lab, bits] for lab, bits in zip(M.labels, rendered)],
    }


def _theta_json(T: ThetaGraph, M: BinaryMatroid | None = None) -> dict:
    out = {
        "arcs": [sorted(a) for a in T.arcs],
        "completing_vector": T.completing_str(),
    }
    if M is not None:
        ok, by = is_complete(M, T)
        out["complete"] = ok
        out["completed_by"] = by
    return out


def _trace_json(trace: ClosureTrace, added_bits: list[str]) -> dict:
    """The trace as JSON; added_bits renders every added vector, in the
    order added."""
    rounds = []
    start = 0
    for r in trace.rounds:
        added = added_bits[start : start + len(r.added_vectors)]
        start += len(added)
        # witness i was found for added vector i, its completing vector,
        # so added[i] is also the witness's rendering of it
        witnesses = [
            {"arcs": [sorted(a) for a in t.arcs], "completing_vector": w}
            for t, w in zip(r.witnesses, added)
        ]
        rounds.append({"added": added, "witnesses": witnesses})
    return {
        "initial_size": trace.initial.size,
        "final_size": trace.final.size,
        "rounds": rounds,
    }


def _tree_json(T: MatroidLabelledTree) -> dict:
    return {
        "vertices": [
            dict(kind=k, **_matroid_json(V)) for V, k in zip(T.vertices, T.kinds)
        ],
        "edges": [[a, b, lab] for a, b, lab in T.edges],
    }


def _recipe_json(r: BuildRecipe) -> dict:
    return {
        "term": r.serialize(),
        "loops": list(r.loops),
        "parallel": [list(p) for p in r.parallel],
    }


def _witness_json(wit, M: BinaryMatroid | None) -> object:
    if wit is None:
        return None
    if isinstance(wit, ThetaGraph):
        return _theta_json(wit, M)
    return str(wit)


# -- commands -------------------------------------------------------------


def _cmd_check(args, budget, report) -> int:
    if args.graph and not args.no_shortcut:
        graph = _Graph(_load_edges(args.input))
        report["input"] = {"argument": args.input, "size": graph.size, "rank": graph.rank}
        wit = _graph_theta(graph, budget)
        report["verdict"] = wit is None
        if wit is None:
            return 0
        # the cycle matroid is built for a witness only
        report["witness"] = _theta_json(wit, graph.matroid)
        return 1
    M = _load_matroid(args.input, args.graph)
    report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
    closed, wit = is_theta3_closed(M, use_shortcut=not args.no_shortcut, budget=budget)
    if isinstance(wit, BuildRecipe):
        report["recipe"] = _recipe_json(wit)
        wit = None
    report["verdict"] = closed
    report["witness"] = _witness_json(wit, M)
    return 0 if closed else 1


def _cmd_closure(args, budget, report) -> int:
    if args.graph:
        graph = _Graph(_load_edges(args.input))
        report["input"] = {"argument": args.input, "size": graph.size, "rank": graph.rank}
        final, trace = _graph_closure(graph, args.strategy, budget)
    else:
        M = _load_matroid(args.input, False)
        report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
        final, trace = theta3_closure(M, strategy=args.strategy, budget=budget)
    if is_projective(final):
        report["verdict"] = (
            f"final = PG({final.rank} over GF(2)), {final.size} elements"
        )
    else:
        report["verdict"] = f"final = {final.size} elements, rank {final.rank}"
    # An added element's label is "v" plus its vector's bits (then a prime
    # per clash), so each added vector is rendered once, by the closure.
    n = trace.initial.size
    added_bits = [lab[1 : 1 + final.dim] for lab in final.labels[n:]]
    rendered = [bits_to_str(c, final.dim) for c in final.cols[:n]] + added_bits
    report["final"] = _matroid_json(final, rendered)
    report["trace"] = _trace_json(trace, added_bits)
    return 0


def _cmd_decompose(args, budget, report) -> int:
    M = _load_matroid(args.input, args.graph)
    report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
    tree = canonical_tree_decomposition(M, budget=budget)
    if M.size < 4:
        report.setdefault("notes", []).append(
            "fewer than 4 elements: by convention there is no 2-separation "
            "and the tree is a single vertex"
        )
    report["tree"] = _tree_json(tree)
    verdict = classify_theta3(M, budget=budget)
    report["verdict"] = "InClass" if verdict.in_class else "NotInClass"
    report["recipe"] = _recipe_json(verdict.recipe) if verdict.recipe else None
    report["witness"] = _witness_json(verdict.witness, M)
    return 0 if verdict.in_class else 1


def _cmd_build(args, budget, report) -> int:
    text = " ".join(args.term)
    report["input"] = {"argument": text}
    term = parse_recipe(text)
    M = evaluate_term(term)
    report["verdict"] = "built"
    report["recipe"] = {"term": serialize_term(term)}
    report["matroid"] = _matroid_json(M)
    return 0


def _crossval_instance(sub: BinaryMatroid, budget) -> dict | None:
    """One agreement check; a dict describes the mismatch, None is agreement."""
    closed = is_theta3_closed(sub, use_shortcut=False, budget=budget)[0]
    try:
        verdict = classify_theta3(sub, budget=budget)
    except RuntimeError as exc:
        return {"labels": sorted(sub.labels), "issue": str(exc)}
    if verdict.in_class != closed:
        return {
            "labels": sorted(sub.labels),
            "closed": closed,
            "classified_in_class": verdict.in_class,
            "issue": "verdict disagreement",
        }
    if verdict.in_class and not same_matroid(sub, verdict.recipe.evaluate()):
        return {
            "labels": sorted(sub.labels),
            "issue": "recipe does not reproduce the circuit family",
        }
    return None


def _cmd_crossval(args, budget, report) -> int:
    if args.samples < 0:
        raise ValueError("--samples must be >= 0")
    report["input"] = {
        "exhaustive_rank": args.exhaustive_rank,
        "samples": args.samples,
        "sample_rank": args.sample_rank,
        "seed": args.seed,
    }
    mismatches: list[dict] = []
    checked = 0
    # both geometries first, so that a bad rank fails before any sweep
    pg = projective_geometry(args.exhaustive_rank)
    big = projective_geometry(args.sample_rank)
    rng = random.Random(args.seed)
    sweeps = (
        ("exhaustive", pg, range(1 << pg.size)),
        ("random", big, (rng.randrange(1 << big.size) for _ in range(args.samples))),
    )
    for kind, geom, masks in sweeps:
        for mask in masks:
            sub = restrict(geom, [lab for i, lab in enumerate(geom.labels) if mask >> i & 1])
            checked += 1
            bad = _crossval_instance(sub, budget)
            if bad is not None:
                bad["kind"] = kind
                mismatches.append(bad)
    report["verdict"] = not mismatches
    report["checked"] = checked
    report["mismatches"] = mismatches
    return 0 if not mismatches else 1


def _cmd_catalog(args, budget, report) -> int:
    del args, budget
    report["verdict"] = "ok"
    report["entries"] = [[k, d] for k, d in catalog_listing()]
    return 0


# -- driver ---------------------------------------------------------------


# The argv grammar: per command, its help, its positional argument (name,
# help, and whether it takes one token or a run of them) and its
# options.  The fast path and the argparse parser both read this table.


class _Option(NamedTuple):
    name: str
    kind: object  # "flag", int, float, or a tuple of the allowed values
    default: object
    help: str
    metavar: str = ""

    @property
    def dest(self) -> str:
        """The attribute of args that holds the option's value."""
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    positional: tuple[str, str, bool] | None  # (name, help, takes a run of tokens)
    options: tuple[_Option, ...]


_BUDGET = (
    _Option("--max-subsets", int, None, "abort with exit 3 after N search nodes", "N"),
    _Option(
        "--max-seconds", float, None, "abort with exit 3 after S seconds of search", "S"
    ),
)
_INPUT = ("input", "catalog key or file path", False)
_GRAPH = _Option("--graph", "flag", False, "input file is an edge list")

_GRAMMAR = {
    "check": _Command(
        "decide theta-closedness",
        _INPUT,
        (
            *_BUDGET,
            _GRAPH,
            _Option(
                "--no-shortcut",
                "flag",
                False,
                "disables the projective shortcut, the rank rule, the recipe "
                "certificate and, with --graph, the flow test (the circuit-pair "
                "scan decides)",
            ),
        ),
    ),
    "closure": _Command(
        "compute the closure",
        _INPUT,
        (
            *_BUDGET,
            _GRAPH,
            _Option(
                "--strategy",
                ("batch", "one_at_a_time"),
                "batch",
                "add all vectors found in a round, or only the smallest of them",
            ),
        ),
    ),
    "decompose": _Command("canonical tree and class verdict", _INPUT, (*_BUDGET, _GRAPH)),
    "build": _Command(
        "evaluate a recipe term",
        ("term", "e.g. 'P(MK(4), C(3); base=1-2,e1)'", True),
        _BUDGET,
    ),
    "crossval": _Command(
        "classifier vs direct decision sweep",
        None,
        (
            *_BUDGET,
            _Option("--exhaustive-rank", int, 3, "check every point set of PG(R)", "R"),
            _Option("--samples", int, 200, "then N random point sets of PG(--sample-rank)", "N"),
            _Option("--sample-rank", int, 4, "rank of the sampled geometry", "R"),
            _Option("--seed", int, 0, "seed of the random samples", "SEED"),
        ),
    ),
    "catalog": _Command("list named matroids", None, _BUDGET),
}

# Per command: each option by its name, and the attribute defaults of its args.
_OPTIONS = {name: {o.name: o for o in c.options} for name, c in _GRAMMAR.items()}
_DEFAULTS = {name: {o.dest: o.default for o in c.options} for name, c in _GRAMMAR.items()}


class _Usage(Exception):
    """Help (code 0, for stdout) or a usage error (code 2, for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The args of a plain command line, or None when argparse must decide.

    A plain command line is a command name, then options spelled in full
    (`--opt value` with a value that does not start with '-', or
    `--opt=value`) around one run of positional tokens, none of which
    starts with '-', and every value valid.  Help, `--`, negative numbers
    as separate tokens and every usage error are left to _argparse.
    """
    if not argv or argv[0] not in _GRAMMAR:
        return None
    name = argv[0]
    options = _OPTIONS[name]
    values = dict(_DEFAULTS[name])
    run: list[str] = []
    run_ended = False
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token[:1] != "-":
            if run_ended:
                return None
            run.append(token)
            continue
        run_ended = bool(run)
        key, eq, value = token.partition("=")
        option = options.get(key)
        if option is None:
            return None
        if option.kind == "flag":
            if eq:
                return None
            values[option.dest] = True
            continue
        if not eq:
            if i == len(argv) or argv[i][:1] == "-":
                return None
            value = argv[i]
            i += 1
        if isinstance(option.kind, tuple):
            if value not in option.kind:
                return None
        else:
            try:
                value = option.kind(value)
            except ValueError:
                return None
        values[option.dest] = value
    positional = _GRAMMAR[name].positional
    if positional is not None:
        pos, _, many = positional
        if not run or (len(run) > 1 and not many):
            return None
        values[pos] = run if many else run[0]
    elif run:
        return None
    return SimpleNamespace(command=name, **values)


@cache
def _parsers():
    """argparse's top parser and the parser of each command, built from
    _GRAMMAR once, on first use, so that a plain command line never
    imports argparse.

    Abbreviations are off.  Help and usage errors raise _Usage, with the
    usage on one line.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            raise _Usage(0, self.format_help().rstrip())

        def error(self, message):
            usage = " ".join(self.format_usage().split())
            raise _Usage(2, f"{usage}\n{self.prog}: error: {message}")

    top = Parser(
        prog="theta3",
        description="binary matroid theta-closure toolkit",
        epilog="Options are spelled out in full and take their value as --opt value "
        "or --opt=value. theta3 COMMAND -h describes one command.",
        allow_abbrev=False,
    )
    commands = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, command in _GRAMMAR.items():
        p = parsers[name] = commands.add_parser(
            name, help=command.help, description=command.help, allow_abbrev=False
        )
        if command.positional is not None:
            pos, text, many = command.positional
            p.add_argument(pos, nargs="+" if many else None, help=text)
        for o in command.options:
            if o.kind == "flag":
                p.add_argument(o.name, action="store_true", help=o.help)
            elif isinstance(o.kind, tuple):
                p.add_argument(o.name, choices=o.kind, default=o.default, help=o.help)
            else:
                p.add_argument(
                    o.name, type=o.kind, default=o.default, metavar=o.metavar, help=o.help
                )
    return top, parsers


def _argparse(argv: list[str]) -> SimpleNamespace:
    """The args of any command line, by argparse (see _parsers).

    The tokens after a known command go to that command's parser, so its
    errors name it.
    """
    top, parsers = _parsers()
    if argv and argv[0] in parsers:
        args = parsers[argv[0]].parse_args(argv[1:])
        return SimpleNamespace(command=argv[0], **vars(args))
    return SimpleNamespace(**vars(top.parse_args(argv)))


def _parse_argv(argv: list[str]) -> SimpleNamespace:
    """The args of a command line; raises _Usage for help and usage errors."""
    args = _read(argv)
    return _argparse(argv) if args is None else args


_COMMANDS = {
    "check": _cmd_check,
    "closure": _cmd_closure,
    "decompose": _cmd_decompose,
    "build": _cmd_build,
    "crossval": _cmd_crossval,
    "catalog": _cmd_catalog,
}


# Reports are trees of dicts, lists and scalars, so the encoder needs no
# cycle check; one encoder serves every report.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
    except _Usage as exc:
        code, text = exc.code, exc.text
        stream = sys.stdout if code == 0 else sys.stderr
    else:
        code, report = _report(args)
        text, stream = _ENCODER.encode(report), sys.stdout
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader has gone away.  Python flushes the stream again at
        # exit, so point it at devnull to keep that flush from raising too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    return code


def _report(args: SimpleNamespace) -> tuple[int, dict]:
    """Run the command that args names: its exit code and its report."""
    report: dict = {
        "command": args.command,
        "input": None,
        "verdict": None,
        "witness": None,
        "trace": None,
        "recipe": None,
        "timings": {},
    }
    started = time.perf_counter()
    code = 2
    try:
        if args.max_subsets is not None and args.max_subsets < 1:
            raise ValueError("--max-subsets must be >= 1")
        # `not > 0` also rejects NaN, which no elapsed time ever exceeds
        if args.max_seconds is not None and not args.max_seconds > 0:
            raise ValueError("--max-seconds must be positive")
        budget = None
        if args.max_subsets is not None or args.max_seconds is not None:
            budget = Budget(max_nodes=args.max_subsets, max_seconds=args.max_seconds)
        code = _COMMANDS[args.command](args, budget, report)
    except BudgetExceededError as exc:
        report["error"] = f"budget exceeded: {exc}"
        code = 3
    except (ValueError, KeyError, OSError, DimensionError, UnknownLabelError) as exc:
        report["error"] = str(exc)
        code = 2
    except Exception as exc:
        import traceback

        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        code = 4
    report["timings"]["total_s"] = round(time.perf_counter() - started, 6)
    return code, report


def run(command: str, args: list[str]) -> int:
    """Programmatic entry point mirroring `theta3 <command> <args...>`."""
    return main([command, *args])


if __name__ == "__main__":
    sys.exit(main())
