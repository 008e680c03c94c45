#!/usr/bin/env python3
"""Print the growth ladder: budget nodes, process time and peak RSS per rung.

Each row is one family, one rung and one entry point, printed as one
line of JSON:

    {"row": "pgc3/13/closure", "family": "P(PG(r), C(3))", "rung": 13,
     "entry": "closure", "status": "ok", "answer": {...}, "nodes": 1,
     "build_s": 0.03, "seconds": 0.09, "peak_rss_mb": 19.6}

Every row runs in a child process of its own, under a time budget
(--max-seconds, a theta3 Budget) and a cap on its address space
(--max-mb), so a search that blows up shows as a row with status
"budget" or "memory" instead of a hang, and one row's memory never
counts against the next.  "seconds" is the entry point's process time,
"build_s" the time to build its input, and "peak_rss_mb" the child's
peak resident set, build included.  Every input comes from a recipe
term or a fixed random.Random seed, so node counts are deterministic.

Families:
    pgc3      P(PG(r), C(3); base=p1,e1), r = 11, 12, 13, 15
    pgc3-p2   the same at r = 13 with p2 deleted, under check and
              no-shortcut (rows pgc3-p2/13/check, pgc3-p2/13/no-shortcut)
    pg16pts   4000 and 8000 random points of PG(16), random.Random(7)
    mk        M(K_n), n = 7, 8, 9, under no-shortcut (the circuit-pair
              scan) and decompose
    pg        PG(r), r = 4, 5, under no-shortcut (the circuit-pair scan)
              and decompose
    spike     the rank-r spike, r = 9, 13, 15, under check, closure and
              decompose: tip e0, legs {e_i, e_i + e0} for i = 1..r-1,
              and the sum of e_1..e_{r-1}; it closes to PG(r), and it
              is 3-connected and sparse, so the split search tries all
              2^r - 1 vectors of its span
    pgminus   PG(r) minus point p1, r = 8, 10, 13, under decompose:
              3-connected and dense, so the split search tries nothing
    w         the cycle matroid of the n-spoke wheel W_n, n = 10, 13, 16,
              under check, closure and decompose: spokes h-r_i, then the
              rim r_i-r_(i+1); it closes to M(K_(n+1))
    w2        two wheels W_n, n = 6, 7, 8, glued on the rim edge t0 with
              that edge deleted (the 2-sum at at0 and bt0), under check
              and decompose: not in the class, and its tree has two
              vertices
    mstar-k3n the dual of M(K_(3,n)), n = 6, 8, under check and decompose
Entry points: check (is_theta3_closed), no-shortcut (the same with
use_shortcut=False), closure (theta3_closure), round (one closure
round, the vectors it adds) and decompose (canonical_tree_decomposition,
its vertex count).

Usage:
    python3 scripts/growth.py [--max-seconds S] [--max-mb MB] [--only ROW ...]

ROW names a row as family/rung/entry, e.g. pgc3/11/check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FAMILIES = {
    "pgc3": "P(PG(r), C(3))",
    "pgc3-p2": "P(PG(r), C(3)) minus p2",
    "pg16pts": "random points of PG(16)",
    "mk": "M(K_n)",
    "pg": "PG(r)",
    "spike": "rank-r spike",
    "pgminus": "PG(r) minus a point",
    "w": "wheel W_n",
    "w2": "two W_n glued on a rim edge, edge deleted",
    "mstar-k3n": "M*(K_(3,n))",
}
ROWS = [
    *(f"pgc3/{r}/{entry}" for r in (11, 12, 13, 15) for entry in ("check", "closure")),
    *(f"pgc3-p2/13/{entry}" for entry in ("check", "no-shortcut")),
    *(f"pg16pts/{n}/{entry}" for n in (4000, 8000) for entry in ("check", "no-shortcut", "round")),
    *(f"mk/{n}/{entry}" for n in (7, 8, 9) for entry in ("no-shortcut", "decompose")),
    *(f"pg/{r}/{entry}" for r in (4, 5) for entry in ("no-shortcut", "decompose")),
    *(f"spike/{r}/{entry}" for r in (9, 13, 15) for entry in ("check", "closure", "decompose")),
    *(f"pgminus/{r}/decompose" for r in (8, 10, 13)),
    *(f"w/{n}/{entry}" for n in (10, 13, 16) for entry in ("check", "closure", "decompose")),
    *(f"w2/{n}/{entry}" for n in (6, 7, 8) for entry in ("check", "decompose")),
    *(f"mstar-k3n/{n}/{entry}" for n in (6, 8) for entry in ("check", "decompose")),
]


def _build(family: str, rung: int):
    from theta3.construct import (
        complete_bipartite_edges,
        cycle_matroid,
        evaluate_term,
        parse_recipe,
        two_sum,
    )
    from theta3.matroid import BinaryMatroid, delete, dual

    if family == "pg16pts":
        import random

        pts = random.Random(7).sample(range(1, 1 << 16), rung)
        return BinaryMatroid(tuple(f"q{i}" for i in range(rung)), tuple(pts), 16)
    if family == "spike":
        cols = [1] + [c for i in range(1, rung) for c in (1 << i, 1 << i | 1)]
        cols.append((1 << rung) - 2)
        labels = ["e0"] + [f"{x}{i}" for i in range(1, rung) for x in "ab"] + ["z"]
        return BinaryMatroid(tuple(labels), tuple(cols), rung)

    def wheel(prefix: str = ""):
        edges = [("h", f"r{i}", f"{prefix}s{i}") for i in range(rung)]
        edges += [(f"r{i}", f"r{(i + 1) % rung}", f"{prefix}t{i}") for i in range(rung)]
        return cycle_matroid(edges)

    if family == "w":
        return wheel()
    if family == "w2":
        return two_sum(wheel("a"), wheel("b"), "at0", "bt0")
    if family == "mstar-k3n":
        return dual(cycle_matroid(complete_bipartite_edges(3, rung)))
    if family in ("mk", "pg"):
        return evaluate_term(parse_recipe(f"{family.upper()}({rung})"))
    if family == "pgminus":
        return delete(evaluate_term(parse_recipe(f"PG({rung})")), ["p1"])
    m = evaluate_term(parse_recipe(f"P(PG({rung}), C(3); base=p1,e1)"))
    return delete(m, ["p2"]) if family == "pgc3-p2" else m


def _run(entry: str, m, budget):
    """The entry point's answer on m, as JSON."""
    from theta3 import theta
    from theta3.decompose import canonical_tree_decomposition

    if entry in ("check", "no-shortcut"):
        closed, _ = theta.is_theta3_closed(
            m, use_shortcut=entry == "check", budget=budget
        )
        return {"closed": closed}
    if entry == "closure":
        final, trace = theta.theta3_closure(m, budget=budget)
        return {"size": final.size, "rounds": len(trace.rounds)}
    if entry == "decompose":
        tree = canonical_tree_decomposition(m, budget=budget)
        return {"vertices": len(tree.vertices)}
    return {"added": len(theta._incomplete_vectors(m, budget))}


def child(row: str, max_seconds: float, max_mb: int) -> dict:
    """Run one row in this process and return its JSON record."""
    import resource

    from theta3.budget import Budget, BudgetExceededError

    limit = max_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    family, rung, entry = row.split("/")
    out = {"row": row, "family": FAMILIES[family], "rung": int(rung), "entry": entry}
    budget = Budget(max_seconds=max_seconds)
    status, answer = "ok", None
    t0 = time.process_time()
    m = _build(family, int(rung))
    t1 = time.process_time()
    try:
        answer = _run(entry, m, budget)
    except BudgetExceededError:
        status = "budget"
    except MemoryError:
        status = "memory"
    t2 = time.process_time()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(
        status=status,
        answer=answer,
        nodes=budget.nodes,
        build_s=round(t1 - t0, 3),
        seconds=round(t2 - t1, 3),
        peak_rss_mb=round(peak, 1),
    )
    return out


def run_row(row: str, max_seconds: float, max_mb: int) -> dict:
    """Run one row in a child process; a child that dies or overruns
    its budget by far still gives a row."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--child", row]
    argv += ["--max-seconds", str(max_seconds), "--max-mb", str(max_mb)]
    try:
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=2 * max_seconds + 30
        )
    except subprocess.TimeoutExpired:
        return {"row": row, "status": "timeout"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:]
        return {"row": row, "status": "died", "returncode": done.returncode, "error": tail}
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=60.0)
    parser.add_argument("--max-mb", type=int, default=2048)
    parser.add_argument("--only", nargs="+", choices=ROWS, metavar="ROW")
    parser.add_argument("--child", choices=ROWS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.max_seconds, args.max_mb)))
        return 0
    for row in args.only or ROWS:
        print(json.dumps(run_row(row, args.max_seconds, args.max_mb)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
