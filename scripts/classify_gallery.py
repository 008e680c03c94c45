#!/usr/bin/env python3
"""Classify a gallery of instances and print recipes or refutations.

For members of the class the recipe line is re-evaluated and checked
against the input's circuit family before printing, so every line shown
here is verified, not just formatted.

Usage:
    python3 scripts/classify_gallery.py
"""

from __future__ import annotations

import sys

from theta3.construct import (
    catalog_matroid,
    circuit_matroid,
    cycle_matroid,
    parallel_connection,
    theta_edges,
)
from theta3.decompose import classify_theta3
from theta3.matroid import BinaryMatroid, direct_sum, same_matroid


def _gallery() -> list[tuple[str, BinaryMatroid]]:
    tri = circuit_matroid(3)
    out: list[tuple[str, BinaryMatroid]] = [
        ("four-point circuit", circuit_matroid(4)),
        ("complete graph on 4 vertices", catalog_matroid("MK(4)")),
        ("seven-point plane", catalog_matroid("PG(3)")),
        ("two triangles glued at a point", parallel_connection(
            tri, tri.relabel({"e1": "f1", "e2": "f2", "e3": "f3"}), "e3", "f3")),
        ("triangle plus a loop and a parallel edge", cycle_matroid(
            [("a", "b", "x"), ("b", "c", "y"), ("c", "a", "z"),
             ("a", "b", "x2"), ("c", "c", "lp")])),
        ("disjoint pair of circuits", direct_sum(
            circuit_matroid(3),
            circuit_matroid(4).relabel({f"e{i}": f"f{i}" for i in range(1, 5)}))),
        ("theta graph with three length-2 paths", cycle_matroid(theta_edges(2, 2, 2))),
        ("complete bipartite graph K_2,4", catalog_matroid("M_K24")),
        ("dual of the seven-point plane", catalog_matroid("F7STAR")),
    ]
    return out


def main() -> int:
    for name, m in _gallery():
        verdict = classify_theta3(m)
        if verdict.in_class:
            rebuilt = verdict.recipe.evaluate()
            assert sorted(rebuilt.labels) == sorted(m.labels)
            assert same_matroid(rebuilt, m)
            notes = []
            if verdict.recipe.parallel:
                pairs = ", ".join(f"{e}~{r}" for e, r in verdict.recipe.parallel)
                notes.append(f"parallel {pairs}")
            if verdict.recipe.loops:
                notes.append(f"loops {', '.join(verdict.recipe.loops)}")
            tail = f"  [{'; '.join(notes)}]" if notes else ""
            print(f"{name}: IN CLASS")
            print(f"  recipe: {verdict.recipe.serialize()}{tail}")
        else:
            wit = verdict.witness
            print(f"{name}: NOT IN CLASS")
            if isinstance(wit, str):
                print(f"  objection: {wit}")
            else:
                arcs = " ".join(
                    "{" + ",".join(sorted(a)) + "}"
                    for a in sorted(wit.arcs, key=sorted)
                )
                print(f"  incomplete theta: {arcs}  (missing {wit.completing_str()})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
