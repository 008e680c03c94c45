"""Constructors, composition operations, recognizers, and the catalog."""

from __future__ import annotations

import random

import pytest

from theta3 import construct
from theta3.gf2 import DimensionError, rank_bits
from theta3.matroid import (
    BinaryMatroid,
    circuits,
    contract,
    direct_sum,
    dual,
    rank_of,
)
from theta3.construct import (
    catalog_listing,
    catalog_matroid,
    circuit_mapping,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_mapping,
    complete_graph_matroid,
    cycle_matroid,
    is_circuit,
    is_cocircuit,
    is_projective,
    parallel_connection,
    projective_geometry,
    projective_mapping,
    theta_edges,
    two_sum,
)

import oracles
from oracles import is_complete_graph
from corpus import K5_LABELED_EDGES


def _ckey(c):
    return (len(c), sorted(c))


def _same_circuits(a: BinaryMatroid, b: BinaryMatroid) -> bool:
    return set(a.labels) == set(b.labels) and oracles.oracle_circuits(
        a
    ) == oracles.oracle_circuits(b)


# -- basic constructors ------------------------------------------------------


def test_circuit_matroid_shape():
    for n in range(1, 7):
        m = circuit_matroid(n)
        assert m.size == n and m.dim == n - 1
        assert m.labels == tuple(f"e{i}" for i in range(1, n + 1))
        assert oracles.oracle_rank(m) == n - 1
        assert oracles.oracle_circuits(m) == [frozenset(m.labels)]
    with pytest.raises(ValueError):
        circuit_matroid(0)


def test_complete_graph_matroid_shape():
    m = complete_graph_matroid(4)
    assert m.size == 6 and m.rank == 3
    assert set(m.labels) == {"1-2", "1-3", "1-4", "2-3", "2-4", "3-4"}
    # 4 triangles and 3 quadrilaterals
    sizes = [len(c) for c in oracles.oracle_circuits(m)]
    assert sizes.count(3) == 4 and sizes.count(4) == 3
    assert complete_graph_matroid(5).is_simple


def test_complete_graph_matroid_matches_edge_incidences():
    m = complete_graph_matroid(5)
    g = cycle_matroid(
        [(u, v, lab) for u, v, lab in (
            (f"v{i}", f"v{j}", f"{i}-{j}")
            for i in range(1, 6)
            for j in range(i + 1, 6)
        )]
    )
    assert oracles.oracle_circuits(m) == oracles.oracle_circuits(g)


def test_projective_geometry_shape():
    for r in (1, 2, 3):
        pg = projective_geometry(r)
        assert pg.size == (1 << r) - 1
        assert pg.colset == frozenset(range(1, 1 << r))
        assert oracles.oracle_rank(pg) == r
    assert projective_geometry(2).size == 3  # a triangle
    with pytest.raises(DimensionError):
        projective_geometry(17)


def test_cycle_matroid_theta_edges():
    m = cycle_matroid(theta_edges(2, 3, 3))
    assert m.size == 8
    assert oracles.oracle_rank(m) == 6
    # the three cycles are the pairwise unions of the arcs
    assert sorted(len(c) for c in oracles.oracle_circuits(m)) == [5, 5, 6]


def test_cycle_matroid_rejects_malformed_edges_and_big_graphs():
    with pytest.raises(ValueError):
        cycle_matroid([("a", "b")])  # type: ignore[list-item]
    too_big = [(f"x{i}", f"x{i+1}", f"t{i}") for i in range(17)]
    with pytest.raises(DimensionError):
        cycle_matroid(too_big)


def test_cycle_matroid_counts_the_rank_before_building_a_column(monkeypatch):
    # a 32000-vertex path: the union-find rejects it, and no column is
    # coordinatized
    def fail(*args):
        raise AssertionError("greedy_coordinates called")

    monkeypatch.setattr(construct, "greedy_coordinates", fail)
    path = [(f"x{i}", f"x{i + 1}", f"t{i}") for i in range(31999)]
    with pytest.raises(DimensionError, match="rank 31999 exceeds MAX_DIM = 16"):
        cycle_matroid(path)
    # a chorded path of rank 16 on 17 vertices gets past the count
    chorded = path[:16] + [("x2", "x8", "chord")]
    with pytest.raises(AssertionError, match="greedy_coordinates called"):
        cycle_matroid(chorded)


def test_cycle_matroid_is_limited_by_rank_not_vertices():
    # 17 vertices, rank 16: a path with a chord closing a 7-cycle
    edges = [(f"x{i}", f"x{i+1}", f"t{i}") for i in range(16)]
    m = cycle_matroid(edges + [("x2", "x8", "chord")])
    assert (m.size, m.rank, m.dim) == (17, 16, 16)
    # corank 1 means exactly one circuit, so the capped oracle sees them all
    assert circuits(m) == oracles.oracle_circuits(m, max_size=7)
    assert circuits(m) == [frozenset(["chord"] + [f"t{i}" for i in range(2, 8)])]


def test_cycle_matroid_graph_loop_is_matroid_loop():
    m = cycle_matroid([("a", "a", "self"), ("a", "b", "ab")])
    assert m.loops() == frozenset(["self"])


# -- parallel connection and 2-sum -------------------------------------------


def _pc_expected_circuits(M, N, pM, pN):
    """C(M) u C(N') u {(C1 - p) u (C2 - p)} with N's basepoint renamed."""
    ren = lambda c: frozenset(pM if lab == pN else lab for lab in c)
    cm = oracles.oracle_circuits(M)
    cn = [ren(c) for c in oracles.oracle_circuits(N)]
    cross = [
        (c1 - {pM}) | (c2 - {pM})
        for c1 in cm
        if pM in c1
        for c2 in cn
        if pM in c2
    ]
    return sorted(set(cm + cn + cross), key=_ckey)


PC_SAMPLES = [
    (circuit_matroid(3), circuit_matroid(4).relabel(
        {"e1": "f1", "e2": "f2", "e3": "f3", "e4": "f4"}), "e3", "f4"),
    (complete_graph_matroid(4), circuit_matroid(3), "1-2", "e1"),
    (catalog_matroid("F7"), circuit_matroid(3), "5", "e2"),
    (complete_graph_matroid(4), projective_geometry(3), "2-3", "p3"),
]


def test_parallel_connection_circuit_family():
    for M, N, pM, pN in PC_SAMPLES:
        P = parallel_connection(M, N, pM, pN)
        assert pM in P.label_set and pN not in P.label_set or pM == pN
        assert P.size == M.size + N.size - 1
        assert oracles.oracle_circuits(P) == _pc_expected_circuits(M, N, pM, pN)


def test_parallel_connection_rank_is_additive():
    for M, N, pM, pN in PC_SAMPLES:
        P = parallel_connection(M, N, pM, pN)
        assert oracles.oracle_rank(P) == (
            oracles.oracle_rank(M) + oracles.oracle_rank(N) - 1
        )


def test_parallel_connection_rejects_label_clash():
    with pytest.raises(ValueError):
        parallel_connection(circuit_matroid(3), circuit_matroid(3), "e3", "e3")


def test_parallel_connection_loop_basepoint_left():
    M = circuit_matroid(3).extend("z", 0)  # z is a loop
    N = circuit_matroid(4).relabel({f"e{i}": f"f{i}" for i in range(1, 5)})
    P = parallel_connection(M, N, "z", "f4")
    want = direct_sum(M, contract(N, ["f4"]))
    assert _same_circuits(P, want)


def test_parallel_connection_loop_basepoint_right():
    M = circuit_matroid(3)
    N = circuit_matroid(4).relabel(
        {f"e{i}": f"f{i}" for i in range(1, 5)}
    ).extend("z", 0)
    P = parallel_connection(M, N, "e3", "z")
    # the loop survives under the kept basepoint label
    assert P.col_of("e3") == 0
    want = direct_sum(contract(M, ["e3"]), N.relabel({"z": "e3"}))
    assert _same_circuits(P, want)


def test_parallel_connection_coloop_basepoint_degenerates_to_direct_sum():
    # a coloop basepoint belongs to no circuit, so no cross circuits appear
    M = BinaryMatroid.from_pairs([("a", 1), ("b", 2), ("c", 3), ("p", 4)], 3)
    N = circuit_matroid(3)
    P = parallel_connection(M, N, "p", "e3")
    cm = oracles.oracle_circuits(M)
    cn = [
        frozenset("p" if lab == "e3" else lab for lab in c)
        for c in oracles.oracle_circuits(N)
    ]
    assert oracles.oracle_circuits(P) == sorted(cm + cn, key=_ckey)


def _2sum_expected_circuits(M, N, pM, pN):
    cm = oracles.oracle_circuits(M)
    cn = oracles.oracle_circuits(N)
    keep = [c for c in cm if pM not in c] + [c for c in cn if pN not in c]
    cross = [
        (c1 - {pM}) | (c2 - {pN})
        for c1 in cm
        if pM in c1
        for c2 in cn
        if pN in c2
    ]
    return sorted(set(keep + cross), key=_ckey)


def test_two_sum_circuit_family():
    pairs = [
        (circuit_matroid(4), circuit_matroid(4).relabel(
            {f"e{i}": f"f{i}" for i in range(1, 5)}), "e4", "f4"),
        (complete_graph_matroid(4), circuit_matroid(3), "1-4", "e2"),
        (catalog_matroid("F7"), circuit_matroid(4).relabel(
            {f"e{i}": f"f{i}" for i in range(1, 5)}), "2", "f1"),
    ]
    for M, N, pM, pN in pairs:
        S = two_sum(M, N, pM, pN)
        assert pM not in S.label_set and pN not in S.label_set
        assert S.size == M.size + N.size - 2
        assert oracles.oracle_circuits(S) == _2sum_expected_circuits(M, N, pM, pN)


def test_two_sum_of_circuits_is_a_circuit():
    b = circuit_matroid(5).relabel({f"e{i}": f"f{i}" for i in range(1, 6)})
    s = two_sum(circuit_matroid(4), b, "e1", "f1")
    assert is_circuit(s) and s.size == 7


def test_two_sum_needs_three_elements_each_side():
    with pytest.raises(ValueError):
        two_sum(circuit_matroid(2), circuit_matroid(3), "e1", "e1")


# -- recognizers and mappings -------------------------------------------------


def test_is_circuit_recognizer():
    assert is_circuit(circuit_matroid(5))
    assert is_circuit(BinaryMatroid.from_pairs([("x", 0)], 2))  # a single loop
    assert not is_circuit(circuit_matroid(4).extend("z", 0))
    assert not is_circuit(complete_graph_matroid(4))
    assert not is_circuit(BinaryMatroid((), (), 0))


def test_is_cocircuit_recognizer():
    assert is_cocircuit(BinaryMatroid.from_pairs([("a", 5), ("b", 5), ("c", 5)], 3))
    assert is_cocircuit(BinaryMatroid.from_pairs([("a", 1)], 1))
    assert not is_cocircuit(circuit_matroid(3).extend("z", 0))
    assert not is_cocircuit(complete_graph_matroid(3))


def test_is_projective_recognizer():
    assert is_projective(projective_geometry(3))
    assert is_projective(catalog_matroid("F7"))
    assert is_projective(BinaryMatroid.from_pairs([("a", 1)], 1))
    assert not is_projective(catalog_matroid("F7STAR"))
    assert not is_projective(complete_graph_matroid(4))
    assert not is_projective(projective_geometry(3).extend("q", 1))


def test_circuit_mapping_reproduces_circuits():
    shuffled = circuit_matroid(5).relabel(
        {"e1": "north", "e2": "south", "e3": "east", "e4": "west", "e5": "up"}
    )
    mapping = circuit_mapping(shuffled)
    assert mapping is not None
    rebuilt = circuit_matroid(5).relabel(mapping)
    assert _same_circuits(rebuilt, shuffled)
    assert circuit_mapping(complete_graph_matroid(4)) is None


def test_complete_graph_mapping_reproduces_circuits():
    rng = random.Random(31)
    for n in (3, 4, 5):
        m = complete_graph_matroid(n)
        labs = list(m.labels)
        rng.shuffle(labs)
        shuffled = m.relabel(dict(zip(m.labels, labs)))
        mapping = complete_graph_mapping(shuffled)
        assert mapping is not None
        rebuilt = complete_graph_matroid(n).relabel(mapping)
        assert _same_circuits(rebuilt, shuffled)


def test_complete_graph_mapping_from_a_rebased_matrix():
    # same matroid, different representation: change the spanning vertex
    g = cycle_matroid(
        [("a", "b", "1"), ("a", "c", "2"), ("a", "d", "3"),
         ("b", "c", "4"), ("b", "d", "5"), ("c", "d", "6")]
    )
    mapping = complete_graph_mapping(g)
    assert mapping is not None
    rebuilt = complete_graph_matroid(4).relabel(mapping)
    assert _same_circuits(rebuilt, g)


def test_complete_graph_mapping_negatives():
    assert complete_graph_mapping(catalog_matroid("F7")) is None
    assert complete_graph_mapping(circuit_matroid(6)) is None
    five_of_k4 = BinaryMatroid(
        complete_graph_matroid(4).labels[:5],
        complete_graph_matroid(4).cols[:5],
        3,
    )
    assert complete_graph_mapping(five_of_k4) is None


def _scrambled(rng: random.Random, m: BinaryMatroid) -> BinaryMatroid:
    """m under a random change of basis, with its columns and labels shuffled."""
    while True:
        images = [rng.randrange(1, 1 << m.dim) for _ in range(m.dim)]
        if rank_bits(images) == m.dim:
            break
    cols = []
    for c in m.cols:
        v = 0
        for k in range(m.dim):
            if c >> k & 1:
                v ^= images[k]
        cols.append(v)
    labels = list(m.labels)
    rng.shuffle(labels)
    order = list(range(m.size))
    rng.shuffle(order)
    return BinaryMatroid(
        tuple(labels[i] for i in order), tuple(cols[i] for i in order), m.dim
    )


def test_complete_graph_mapping_matches_the_oracle():
    rng = random.Random(6)
    cases = []
    for n in (4, 5, 6):
        points = list(range(1, 1 << (n - 1)))
        while len(cases) < 30 * (n - 3):
            cols = rng.sample(points, n * (n - 1) // 2)
            if rank_bits(cols) == n - 1:
                labels = tuple(f"p{c}" for c in cols)
                cases.append(BinaryMatroid(labels, tuple(cols), n - 1))
    for n in range(3, 9):
        for _ in range(3):
            image = _scrambled(rng, complete_graph_matroid(n))
            cases.append(image)
            # one column moved off M(K_n) while the rank stays n - 1
            spare = [v for v in range(1, 1 << (n - 1)) if v not in image.colset]
            if not spare:
                continue
            cols = list(image.cols)
            cols[rng.randrange(len(cols))] = rng.choice(spare)
            if rank_bits(cols) == n - 1:
                cases.append(BinaryMatroid(image.labels, tuple(cols), n - 1))
    members = 0
    for m in cases:
        mapping = complete_graph_mapping(m)
        assert (mapping is not None) == oracles.oracle_is_complete_graph(m), m
        if mapping is not None:
            members += 1
            rebuilt = complete_graph_matroid(m.rank + 1).relabel(mapping)
            assert set(circuits(rebuilt)) == set(circuits(m)), m
    assert 18 < members < len(cases)


def test_is_complete_graph_reports_order():
    ok, n = is_complete_graph(complete_graph_matroid(5))
    assert ok and n == 5
    ok, n = is_complete_graph(catalog_matroid("F7STAR"))
    assert not ok and n is None
    # MK(3) is also the triangle PG(2); both recognizers accept it
    assert is_complete_graph(projective_geometry(2))[0]


def test_projective_mapping_reproduces_circuits():
    scrambled = projective_geometry(3).relabel(
        {f"p{k}": f"q{15 - k}" for k in range(1, 8)}
    )
    mapping = projective_mapping(scrambled)
    assert mapping is not None
    rebuilt = projective_geometry(3).relabel(mapping)
    assert _same_circuits(rebuilt, scrambled)
    assert projective_mapping(complete_graph_matroid(4)) is None


# -- catalog -------------------------------------------------------------------


def test_catalog_fixed_entries():
    f7 = catalog_matroid("F7")
    assert f7.labels == tuple(str(k) for k in range(1, 8))
    assert f7.cols == tuple(range(1, 8))
    assert _same_circuits(catalog_matroid("F7STAR"), dual(f7))
    k5 = catalog_matroid("MSTAR_K5")
    assert k5.labels == ("1", "2", "3", "4", "5", "6", "7", "8", "9", "0")
    assert k5.cols == (1, 2, 4, 8, 16, 32, 7, 44, 50, 25)
    assert k5.rank == 6
    m33 = catalog_matroid("MSTAR_K33")
    assert m33.size == 9 and m33.rank == 4
    mk24 = catalog_matroid("M_K24")
    assert mk24.size == 8 and mk24.rank == 5


def test_catalog_parameterized_keys():
    assert catalog_matroid("MK(4)").labels == complete_graph_matroid(4).labels
    assert catalog_matroid("PG(3)").cols == projective_geometry(3).cols
    assert catalog_matroid("CIRCUIT(5)").size == 5
    assert catalog_matroid("THETA(2,2,2)").size == 6
    with pytest.raises(KeyError):
        catalog_matroid("MK(four)")
    with pytest.raises(KeyError):
        catalog_matroid("NOPE")


def test_catalog_listing_covers_fixed_keys():
    keys = [k for k, _ in catalog_listing()]
    for k in ("F7", "F7STAR", "MSTAR_K5", "MSTAR_K33", "M_K24"):
        assert k in keys


def test_k5_edge_labeling_is_dual_to_the_catalog_matrix():
    graph = cycle_matroid(K5_LABELED_EDGES)
    assert circuits(graph) == circuits(dual(catalog_matroid("MSTAR_K5")))


def test_mstar_k33_is_dual_to_k33_cycle_matroid():
    g = cycle_matroid(
        [(f"u{i}", f"w{j}", str((i - 1) * 3 + j)) for i in (1, 2, 3) for j in (1, 2, 3)]
    )
    assert circuits(dual(g)) == circuits(catalog_matroid("MSTAR_K33"))
