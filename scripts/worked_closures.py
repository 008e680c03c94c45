#!/usr/bin/env python3
"""Print full closure traces for the three worked starting points.

Each trace lists, round by round, every vector the closure added and
the incomplete theta subgraph that forced it.  The two rank-4 runs
finish instantly; the rank-6 run takes a little longer since the fixed
point has 63 points.

Usage:
    python3 scripts/worked_closures.py [KEY ...]

with keys from the catalog (default: MSTAR_K33 F7STAR MSTAR_K5).
"""

from __future__ import annotations

import sys
import time

from theta3.construct import catalog_matroid, is_projective
from theta3.gf2 import bits_to_str
from theta3.theta import theta3_closure

DEFAULT_KEYS = ("MSTAR_K33", "F7STAR", "MSTAR_K5")


def _describe_arc(arc: frozenset[str]) -> str:
    return "{" + ",".join(sorted(arc)) + "}"


def trace_one(key: str) -> None:
    m = catalog_matroid(key)
    t0 = time.perf_counter()
    final, trace = theta3_closure(m)
    dt = time.perf_counter() - t0

    print(f"=== {key}: {m.size} elements, rank {m.rank} ===")
    for i, rnd in enumerate(trace.rounds, 1):
        print(f"round {i}: {len(rnd.added_vectors)} vectors added")
        for v, wit in zip(rnd.added_vectors, rnd.witnesses):
            arcs = " ".join(_describe_arc(a) for a in sorted(wit.arcs, key=sorted))
            print(f"  + {bits_to_str(v, final.dim)}   completes theta {arcs}")
    shape = (
        f"the full rank-{final.rank} projective geometry"
        if is_projective(final)
        else f"rank {final.rank}"
    )
    print(f"fixed point: {final.size} elements, {shape}  ({dt:.2f}s)")
    print()


def main(argv: list[str]) -> int:
    keys = argv or list(DEFAULT_KEYS)
    for key in keys:
        trace_one(key)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
