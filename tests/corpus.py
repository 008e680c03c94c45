"""Shared instance zoo for the unit and acceptance suites.

SMALL_CORPUS holds everything with at most ten elements, including the
degenerate shapes (empty, loops, parallel pairs) that like to break
edge handling.  CONNECTED_CORPUS holds connected matroids with at most
fourteen elements for the decomposition round trips.  Entries are
(name, matroid) pairs; BinaryMatroid is frozen, so sharing is safe.
"""

from __future__ import annotations

import random

from theta3.construct import (
    catalog_matroid,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cycle_matroid,
    parallel_connection,
    projective_geometry,
    theta_edges,
    two_sum,
)
from theta3.matroid import BinaryMatroid, is_connected


def cycle_edges(n: int) -> list[tuple[str, str, str]]:
    """The n-cycle v1..vn, its edges labelled c1..cn."""
    return [(f"v{i}", f"v{i % n + 1}", f"c{i}") for i in range(1, n + 1)]


def complete_graph_edges(n: int) -> list[tuple[str, str, str]]:
    """K_n on v1..vn, the edge vi vj labelled i-j."""
    return [
        (f"v{i}", f"v{j}", f"{i}-{j}")
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


# The K5 edge labeling whose cycle matroid is dual to the MSTAR_K5
# catalog matrix: pentagon 7,3,6,5,0 around v0..v4, pentagram 8,9,1,2,4.
K5_LABELED_EDGES: list[tuple[str, str, str]] = [
    ("v0", "v1", "7"),
    ("v1", "v2", "3"),
    ("v2", "v3", "6"),
    ("v3", "v4", "5"),
    ("v4", "v0", "0"),
    ("v0", "v2", "8"),
    ("v0", "v3", "9"),
    ("v1", "v4", "1"),
    ("v1", "v3", "2"),
    ("v2", "v4", "4"),
]


def reversed_elements(m: BinaryMatroid) -> BinaryMatroid:
    """The same matroid with its elements listed last to first."""
    return BinaryMatroid(m.labels[::-1], m.cols[::-1], m.dim)


def _relabel_prefix(m: BinaryMatroid, prefix: str, keep: frozenset[str] = frozenset()):
    return m.relabel({lab: prefix + lab for lab in m.labels if lab not in keep})


def _p_c3_c3() -> BinaryMatroid:
    a = circuit_matroid(3)
    b = _relabel_prefix(circuit_matroid(3), "f", keep=frozenset(["e3"]))
    return parallel_connection(a, b, "e3", "e3")


def _p_c4_mk3() -> BinaryMatroid:
    return parallel_connection(
        circuit_matroid(4), complete_graph_matroid(3), "e4", "1-2"
    )


def _two_sum_c4_c4() -> BinaryMatroid:
    b = _relabel_prefix(circuit_matroid(4), "f", keep=frozenset(["e4"]))
    return two_sum(circuit_matroid(4), b, "e4", "e4")


def _u13() -> BinaryMatroid:
    return BinaryMatroid.from_pairs([("a", 1), ("b", 1), ("c", 1)], 1)


def _random_subset(rng: random.Random, rank: int, size: int, tag: str) -> BinaryMatroid:
    cols = rng.sample(range(1, 1 << rank), size)
    return BinaryMatroid.from_pairs(
        ((f"{tag}{c}", c) for c in sorted(cols)), rank
    )


def _small_entries() -> list[tuple[str, BinaryMatroid]]:
    rng = random.Random(20260819)
    out: list[tuple[str, BinaryMatroid]] = [
        ("EMPTY", BinaryMatroid((), (), 0)),
        ("COLOOP1", BinaryMatroid.from_pairs([("e", 1)], 1)),
        ("LOOPS_COLOOP", BinaryMatroid.from_pairs([("a", 0), ("b", 0), ("c", 1)], 1)),
        ("U13", _u13()),
    ]
    out += [(f"C{n}", circuit_matroid(n)) for n in range(1, 7)]
    out += [(f"MK{n}", complete_graph_matroid(n)) for n in (3, 4, 5)]
    out += [("PG2", projective_geometry(2)), ("PG3", projective_geometry(3))]
    out += [
        ("F7", catalog_matroid("F7")),
        ("F7STAR", catalog_matroid("F7STAR")),
        ("MSTAR_K33", catalog_matroid("MSTAR_K33")),
        ("MSTAR_K5", catalog_matroid("MSTAR_K5")),
        ("M_K24", catalog_matroid("M_K24")),
        ("K23", cycle_matroid(complete_bipartite_edges(2, 3))),
        ("THETA122", cycle_matroid(theta_edges(1, 2, 2))),
        ("THETA222", cycle_matroid(theta_edges(2, 2, 2))),
        ("THETA113", cycle_matroid(theta_edges(1, 1, 3))),
        ("P_C3_C3", _p_c3_c3()),
        ("P_C4_MK3", _p_c4_mk3()),
        ("2SUM_C4_C4", _two_sum_c4_c4()),
        ("MK4_PAR", complete_graph_matroid(4).extend("p", 1)),
        ("C4_LOOP", circuit_matroid(4).extend("z", 0)),
        ("RAND_LOOPY", BinaryMatroid.from_pairs(
            [("a", 3), ("b", 3), ("c", 0), ("d", 5), ("e", 6)], 3
        )),
    ]
    out += [
        (f"RAND_PG4_{size}", _random_subset(rng, 4, size, "r"))
        for size in (5, 7, 9)
    ]
    out.append(("RAND_PG3_6", _random_subset(rng, 3, 6, "s")))
    assert all(m.size <= 10 for _, m in out)
    return out


def _connected_extras() -> list[tuple[str, BinaryMatroid]]:
    f7 = catalog_matroid("F7")
    c3f = _relabel_prefix(circuit_matroid(3), "f")
    c4f = _relabel_prefix(circuit_matroid(4), "f")
    c5f = _relabel_prefix(circuit_matroid(5), "f")
    mk4b = complete_graph_matroid(4).relabel(
        {lab: lab.replace("-", ".") for lab in complete_graph_matroid(4).labels}
    )
    inner = parallel_connection(c5f, circuit_matroid(3), "fe5", "e3")
    chain = parallel_connection(
        _relabel_prefix(circuit_matroid(4), "g"), inner, "ge4", "fe1"
    )
    return [
        ("K5EDGES", cycle_matroid(K5_LABELED_EDGES)),
        ("P_F7_C3", parallel_connection(f7, circuit_matroid(3), "1", "e3")),
        ("2SUM_F7_C4", two_sum(f7, circuit_matroid(4), "3", "e1")),
        ("P_MK4_MK4", parallel_connection(
            complete_graph_matroid(4), mk4b, "1-2", "1.2"
        )),
        ("2SUM_MK5_C5", two_sum(complete_graph_matroid(5), c5f, "1-2", "fe5")),
        ("P_F7_F7", parallel_connection(
            f7, f7.relabel({str(k): f"d{k}" for k in range(1, 8)}), "7", "d7"
        )),
        ("CHAIN3", chain),
        ("2SUM_MSTARK33_C4", two_sum(
            catalog_matroid("MSTAR_K33"), c4f, "1", "fe1"
        )),
        ("THETA233", cycle_matroid(theta_edges(2, 3, 3))),
        ("HUBBED_F7", two_sum(f7, _u13(), "5", "c")),
    ]


SMALL_CORPUS: list[tuple[str, BinaryMatroid]] = _small_entries()

CONNECTED_CORPUS: list[tuple[str, BinaryMatroid]] = [
    (name, m)
    for name, m in SMALL_CORPUS
    if m.size >= 1 and is_connected(m)
] + _connected_extras()

assert all(m.size <= 14 for _, m in CONNECTED_CORPUS)
