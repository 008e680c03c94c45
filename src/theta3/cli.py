"""Command-line front end.

Six subcommands: check (theta-closedness verdict with witness), closure
(fixed point plus per-round trace), decompose (canonical tree plus class
verdict), build (evaluate a recipe term), crossval (agreement sweep of
the classifier against the direct decision procedure), catalog (named
matroids).  Every command prints one JSON report to stdout and exits
0 for success/true verdicts, 1 for false verdicts, 2 for errors, 3 when
a --max-subsets/--max-seconds budget ran out before an answer, and 4
for an internal error (the traceback goes to stderr).

Input resolution: an input argument is tried as a catalog key first
(F7, MK(5), PG(3), ...), then as a file path.  Files hold `dim d` on
the first line followed by `LABEL bits` element lines, `#` starting a
comment; with --graph the file is `u v label` edge lines instead and
the cycle matroid of that graph is used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback

from theta3.budget import Budget, BudgetExceededError
from theta3.gf2 import MAX_DIM, DimensionError, bits_from_str, bits_to_str
from theta3.matroid import (
    BinaryMatroid,
    UnknownLabelError,
    circuits,
    connected_components,
    is_connected,
    restrict,
)
from theta3.construct import (
    catalog_listing,
    catalog_matroid,
    cycle_matroid,
    is_projective,
    projective_geometry,
)
from theta3.theta import (
    ClosureTrace,
    ThetaGraph,
    is_complete,
    is_theta3_closed,
    theta3_closure,
)
from theta3.decompose import (
    MatroidLabelledTree,
    BuildRecipe,
    canonical_tree_decomposition,
    classify_theta3,
    evaluate_term,
    parse_recipe,
    serialize_term,
)

__all__ = ["parse_matroid", "parse_graph", "run", "main"]


# -- parsing --------------------------------------------------------------


def parse_matroid(text: str) -> BinaryMatroid:
    """Read the `dim d` / `LABEL bits` format; row 1 is the leading bit."""
    dim: int | None = None
    pairs: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if len(parts) != 2 or parts[0] != "dim" or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: expected 'dim d', got {line!r}")
            dim = int(parts[1])
            if dim > MAX_DIM:
                raise ValueError(f"line {lineno}: dim {dim} exceeds MAX_DIM = {MAX_DIM}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'LABEL bits', got {line!r}")
        lab, bits = parts
        if len(bits) != dim or set(bits) - {"0", "1"}:
            raise ValueError(
                f"line {lineno}: column must be {dim} characters of 0/1, got {bits!r}"
            )
        pairs.append((lab, bits_from_str(bits)))
    if dim is None:
        raise ValueError("missing 'dim d' header line")
    return BinaryMatroid.from_pairs(pairs, dim)


def parse_graph(text: str) -> list[tuple[str, str, str]]:
    """Read `u v label` edge lines."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v label', got {line!r}")
        edges.append((parts[0], parts[1], parts[2]))
    return edges


def _load_matroid(argument: str, as_graph: bool) -> BinaryMatroid:
    if as_graph:
        with open(argument, encoding="utf-8") as fh:
            return cycle_matroid(parse_graph(fh.read()))
    try:
        return catalog_matroid(argument)
    except KeyError:
        pass
    if os.path.exists(argument):
        with open(argument, encoding="utf-8") as fh:
            return parse_matroid(fh.read())
    raise ValueError(f"{argument!r} is neither a catalog key nor a file")


# -- JSON rendering -------------------------------------------------------


def _matroid_json(M: BinaryMatroid) -> dict:
    return {
        "dim": M.dim,
        "rank": M.rank,
        "size": M.size,
        "elements": [[lab, M.col_str(lab)] for lab in M.labels],
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


def _trace_json(trace: ClosureTrace) -> dict:
    return {
        "initial_size": trace.initial.size,
        "final_size": trace.final.size,
        "rounds": [
            {
                "added": [bits_to_str(v, trace.final.dim) for v in r.added_vectors],
                "witnesses": [_theta_json(t) for t in r.witnesses],
            }
            for r in trace.rounds
        ],
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
    M = _load_matroid(args.input, args.graph)
    report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
    closed, wit = is_theta3_closed(
        M, use_shortcut=not args.no_shortcut, budget=budget
    )
    report["verdict"] = closed
    report["witness"] = _witness_json(wit, M)
    return 0 if closed else 1


def _cmd_closure(args, budget, report) -> int:
    M = _load_matroid(args.input, args.graph)
    report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
    final, trace = theta3_closure(M, strategy=args.strategy, budget=budget)
    if is_projective(final):
        report["verdict"] = (
            f"final = PG({final.rank} over GF(2)), {final.size} elements"
        )
    else:
        report["verdict"] = f"final = {final.size} elements, rank {final.rank}"
    report["final"] = _matroid_json(final)
    report["trace"] = _trace_json(trace)
    return 0


def _cmd_decompose(args, budget, report) -> int:
    M = _load_matroid(args.input, args.graph)
    report["input"] = {"argument": args.input, "size": M.size, "rank": M.rank}
    if not is_connected(M):
        comps = [sorted(c) for c in connected_components(M)]
        raise ValueError(f"decompose needs a connected matroid; components: {comps}")
    if M.size < 4:
        report.setdefault("notes", []).append(
            "fewer than 4 elements: by convention there is no 2-separation "
            "and the tree is a single vertex"
        )
    tree = canonical_tree_decomposition(M, order=args.order, budget=budget)
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
    closed = is_theta3_closed(sub, budget=budget)[0]
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
    if verdict.in_class:
        rebuilt = verdict.recipe.evaluate()
        if set(circuits(rebuilt)) != set(circuits(sub)):
            return {
                "labels": sorted(sub.labels),
                "issue": "recipe does not reproduce the circuit family",
            }
    return None


def _cmd_crossval(args, budget, report) -> int:
    report["input"] = {
        "exhaustive_rank": args.exhaustive_rank,
        "samples": args.samples,
        "sample_rank": args.sample_rank,
        "seed": args.seed,
    }
    mismatches: list[dict] = []
    checked = 0
    pg = projective_geometry(args.exhaustive_rank)
    for mask in range(1 << pg.size):
        sub = restrict(pg, [pg.labels[i] for i in range(pg.size) if mask >> i & 1])
        checked += 1
        bad = _crossval_instance(sub, budget)
        if bad is not None:
            bad["kind"] = "exhaustive"
            mismatches.append(bad)
    rng = random.Random(args.seed)
    big = projective_geometry(args.sample_rank)
    for _ in range(args.samples):
        mask = rng.randrange(1 << big.size)
        sub = restrict(big, [big.labels[i] for i in range(big.size) if mask >> i & 1])
        checked += 1
        bad = _crossval_instance(sub, budget)
        if bad is not None:
            bad["kind"] = "random"
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


def _build_parser() -> argparse.ArgumentParser:
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
        help="disable the full-projective shortcut (forces direct enumeration)",
    )

    c = sub.add_parser("closure", parents=[common], help="compute the closure")
    c.add_argument("input", help="catalog key or file path")
    c.add_argument("--graph", action="store_true", help="input file is an edge list")
    c.add_argument(
        "--strategy",
        choices=("batch", "one_at_a_time"),
        default="batch",
        help="add all found vectors per round, or only the smallest",
    )

    c = sub.add_parser(
        "decompose", parents=[common], help="canonical tree and class verdict"
    )
    c.add_argument("input", help="catalog key or file path")
    c.add_argument("--graph", action="store_true", help="input file is an edge list")
    c.add_argument("--order", choices=("default", "reverse"), default="default")

    c = sub.add_parser("build", parents=[common], help="evaluate a recipe term")
    c.add_argument("term", nargs="+", help="e.g. 'P(MK(4), C(3); base=1-2)'")

    c = sub.add_parser(
        "crossval", parents=[common], help="classifier vs direct decision sweep"
    )
    c.add_argument("--exhaustive-rank", type=int, default=3, metavar="R")
    c.add_argument("--samples", type=int, default=200, metavar="N")
    c.add_argument("--sample-rank", type=int, default=4, metavar="R")
    c.add_argument("--seed", type=int, default=0)

    sub.add_parser("catalog", parents=[common], help="list named matroids")
    return p


_COMMANDS = {
    "check": _cmd_check,
    "closure": _cmd_closure,
    "decompose": _cmd_decompose,
    "build": _cmd_build,
    "crossval": _cmd_crossval,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

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
        if args.max_seconds is not None and args.max_seconds <= 0:
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
        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        code = 4
    report["timings"]["total_s"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report, indent=2))
    return code


def run(command: str, args: list[str]) -> int:
    """Programmatic entry point mirroring `theta3 <command> <args...>`."""
    return main([command, *args])


if __name__ == "__main__":
    sys.exit(main())
