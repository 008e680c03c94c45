"""BinaryMatroid container, rank calculus, minors, duality, connectivity.

Everything with behavioral content is checked against the brute-force
oracles; the container-level tests pin validation and label plumbing.
"""

from __future__ import annotations

import random
from collections import Counter
from math import comb, factorial

import pytest

from theta3.budget import Budget, BudgetExceededError
from theta3.construct import (
    catalog_matroid,
    complete_graph_matroid,
    cycle_matroid,
    parallel_connection,
    projective_geometry,
)
from theta3.gf2 import DimensionError, bits, bits_from_str, greedy_coordinates
from theta3.matroid import (
    BinaryMatroid,
    UnknownLabelError,
    _circuit_masks,
    circuits,
    connected_components,
    contract,
    delete,
    direct_sum,
    dual,
    exact_two_separations,
    is_connected,
    rank_of,
    restrict,
    simplify,
)

import oracles
from oracles import closure_flat, is_3connected, local_connectivity
from corpus import SMALL_CORPUS


def _subsets_sample(rng: random.Random, labels, count=12):
    labels = list(labels)
    out = [frozenset(), frozenset(labels)]
    for _ in range(count):
        k = rng.randint(0, len(labels))
        out.append(frozenset(rng.sample(labels, k)))
    return out


# -- container validation ---------------------------------------------------


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        BinaryMatroid(("a", "a"), (1, 2), 2)


def test_constructor_rejects_oversized_columns():
    with pytest.raises(ValueError):
        BinaryMatroid(("a",), (4,), 2)


def test_constructor_rejects_dim_beyond_max():
    with pytest.raises(DimensionError):
        BinaryMatroid(("a",), (1,), 17)


def test_from_pairs_accepts_any_iterable():
    assert BinaryMatroid.from_pairs(iter([]), 3) == BinaryMatroid((), (), 3)
    pairs = iter([("a", 1), ("b", 3)])
    assert BinaryMatroid.from_pairs(pairs, 2) == BinaryMatroid(("a", "b"), (1, 3), 2)


def test_col_of_unknown_label():
    m = BinaryMatroid.from_pairs([("a", 1)], 1)
    with pytest.raises(UnknownLabelError):
        m.col_of("b")


def test_extend_rejects_existing_label():
    m = BinaryMatroid.from_pairs([("a", 1)], 2)
    with pytest.raises(ValueError):
        m.extend("a", 2)
    grown = m.extend("b", 2)
    assert grown.size == 2 and grown.col_of("b") == 2


def test_extend_rejects_a_column_too_wide_for_the_dimension():
    m = BinaryMatroid.from_pairs([("a", 1)], 2)
    with pytest.raises(DimensionError):
        m.extend("b", 4)
    with pytest.raises(DimensionError):
        m.extend("b", -1)


def test_derived_matroids_equal_checked_ones():
    # extend, restrict, delete and simplify skip the constructor's
    # checks on what they take over from a valid matroid
    m = BinaryMatroid.from_pairs([("a", 1), ("b", 0), ("c", 3), ("d", 1)], 2)
    grown = m.extend("e", 2)
    assert grown == BinaryMatroid(m.labels + ("e",), m.cols + (2,), 2)
    assert hash(grown) == hash(BinaryMatroid(grown.labels, grown.cols, 2))
    assert restrict(m, ["d", "a", "a"]) == BinaryMatroid(("a", "d"), (1, 1), 2)
    assert delete(m, ["b"]) == BinaryMatroid(("a", "c", "d"), (1, 3, 1), 2)
    assert simplify(m) == BinaryMatroid(("a", "c"), (1, 3), 2)
    assert grown.rank == 2 and grown.label_set == {"a", "b", "c", "d", "e"}


def test_relabel_requires_bijection():
    m = BinaryMatroid.from_pairs([("a", 1), ("b", 2)], 2)
    with pytest.raises(ValueError):
        m.relabel({"a": "b"})  # collides with the untouched "b"


# -- rank, circuits, flats --------------------------------------------------


def test_rank_matches_oracle_on_corpus():
    rng = random.Random(2)
    for name, m in SMALL_CORPUS:
        for S in _subsets_sample(rng, m.labels):
            assert rank_of(m, S) == oracles.oracle_rank(m, S), (name, sorted(S))


def test_circuits_match_oracle_on_corpus():
    for name, m in SMALL_CORPUS:
        assert circuits(m) == oracles.oracle_circuits(m), name


def test_complete_graph_circuits_are_its_cycles_in_closed_form():
    # K_n has C(n, k) (k-1)!/2 cycles of length k; each circuit of M(K_n)
    # is one of them, so every vertex it touches has degree 2
    for n in range(3, 9):
        counts = Counter()
        for c in circuits(complete_graph_matroid(n)):
            counts[len(c)] += 1
            degree = Counter(v for edge in c for v in edge.split("-"))
            assert set(degree.values()) == {2}, (n, sorted(c))
        want = {k: comb(n, k) * factorial(k - 1) // 2 for k in range(3, n + 1)}
        assert counts == want, n


def _pg4_mk5() -> BinaryMatroid:
    return parallel_connection(projective_geometry(4), complete_graph_matroid(5), "p1", "1-2")


@pytest.mark.parametrize(
    "build, count",
    [(lambda: complete_graph_matroid(7), 1172), (_pg4_mk5, None), (lambda: projective_geometry(5), None)],
    ids=["MK(7)", "P(PG4,MK5)", "PG(5)"],
)
def test_circuit_order_across_byte_boundaries(build, count):
    # 21, 24 and 31 elements, relabelled at random so that label order
    # is not element order: the walk's carried element and label-rank
    # masks span several bytes, and the order must still come from the
    # labels alone
    m = build()
    names = [f"x{k:02d}" for k in range(m.size)]
    random.Random(m.size).shuffle(names)
    m = m.relabel(dict(zip(m.labels, names)))
    assert list(m.labels) != sorted(m.labels)
    masks = _circuit_masks(m)
    assert len(set(masks)) == len(masks)
    got = [frozenset(m.labels[j] for j in bits(c)) for c in masks]
    assert all(oracles.oracle_is_circuit(m, c) for c in got)
    assert got == sorted(got, key=lambda c: (len(c), sorted(c)))
    if count is not None:
        assert len(got) == count


def _free_with_loops_and_copies(r: int, loops: int, copies: int) -> BinaryMatroid:
    cols = [1 << i for i in range(r)] + [0] * loops + [1 << i for i in range(r)] * copies
    return BinaryMatroid(tuple(f"e{i:02d}" for i in range(len(cols))), tuple(cols), r)


def test_loops_and_parallel_copies_are_never_expanded():
    # a loop, or a pair of parallel copies, lies in no larger circuit,
    # so the walk expands no set holding one
    m = _free_with_loops_and_copies(4, 4, 2)
    assert circuits(m) == oracles.oracle_circuits(m)

    # rank 8, 25 loops, two copies of each basis element: 49 circuits in
    # about 13k nodes; expanding dependent sets of copies takes about
    # 51k, and walking every set of at most 9 of the 41 non-basis
    # elements some 5e8
    m = _free_with_loops_and_copies(8, 25, 2)
    want = [frozenset([f"e{i:02d}"]) for i in range(8, 33)]
    for i in range(8):
        a, b, c = f"e{i:02d}", f"e{i + 33:02d}", f"e{i + 41:02d}"
        want += [frozenset([a, b]), frozenset([a, c]), frozenset([b, c])]
    want.sort(key=lambda c: (len(c), sorted(c)))
    assert circuits(m, Budget(max_nodes=20_000)) == want


def test_closure_flat_is_the_span_filter():
    rng = random.Random(3)
    for name, m in SMALL_CORPUS:
        for S in _subsets_sample(rng, m.labels, count=6):
            want = frozenset(
                e
                for e in m.labels
                if oracles.oracle_rank(m, S | {e}) == oracles.oracle_rank(m, S)
            )
            assert closure_flat(m, S) == want, (name, sorted(S))


def test_loops_and_parallel_classes():
    m = BinaryMatroid.from_pairs(
        [("a", 0), ("b", 3), ("c", 3), ("d", 5), ("e", 0), ("f", 3)], 3
    )
    assert m.loops() == frozenset(["a", "e"])
    assert sorted(map(sorted, m.parallel_classes())) == [["b", "c", "f"], ["d"]]


# -- minors ------------------------------------------------------------------


def test_delete_and_restrict_are_complementary():
    for name, m in SMALL_CORPUS:
        if m.size < 2:
            continue
        drop = m.labels[::2]
        keep = [lab for lab in m.labels if lab not in drop]
        a, b = delete(m, drop), restrict(m, keep)
        assert a.labels == b.labels and a.cols == b.cols, name


def test_contract_rank_function_is_the_quotient():
    # r_{M/S}(A) = r(A u S) - r(S), checked against the span oracle
    rng = random.Random(7)
    for name, m in SMALL_CORPUS:
        if m.size < 2:
            continue
        for _ in range(4):
            k = rng.randint(1, max(1, m.size // 2))
            S = frozenset(rng.sample(list(m.labels), k))
            mc = contract(m, S)
            assert set(mc.labels) == set(m.labels) - S
            rs = oracles.oracle_rank(m, S)
            for A in _subsets_sample(rng, mc.labels, count=6):
                assert oracles.oracle_rank(mc, A) == oracles.oracle_rank(m, A | S) - rs, (
                    name,
                    sorted(S),
                    sorted(A),
                )


def test_contract_then_delete_commutes():
    for name, m in SMALL_CORPUS:
        if m.size < 3:
            continue
        a, b = m.labels[0], m.labels[1]
        left = delete(contract(m, [a]), [b])
        right = contract(delete(m, [b]), [a])
        assert circuits(left) == circuits(right), name


def test_simplify_keeps_one_representative_per_class():
    for name, m in SMALL_CORPUS:
        s = simplify(m)
        assert s.is_simple
        assert s.colset == frozenset(c for c in m.cols if c)
        assert rank_of(s, s.labels) == rank_of(m, m.labels), name
        # representatives are the lexicographically smallest labels
        for cls in m.parallel_classes():
            assert min(cls) in s.label_set


# -- duality -----------------------------------------------------------------


def test_dual_circuits_are_cocircuits():
    for name, m in SMALL_CORPUS:
        if not (1 <= m.size <= 9):
            continue
        assert circuits(dual(m)) == oracles.oracle_cocircuits(m), name


def test_dual_rank_and_involution():
    for name, m in SMALL_CORPUS:
        if m.size < 1:
            continue
        d = dual(m)
        assert d.size == m.size
        assert d.rank == m.size - m.rank, name
        dd = dual(d)
        assert dd.labels == d.labels  # order preserved both ways
        assert set(dd.labels) == set(m.labels)
        assert circuits(dd) == circuits(m), name


def test_direct_sum_unions_circuits():
    a = BinaryMatroid.from_pairs([("a1", 1), ("a2", 1)], 1)
    b = BinaryMatroid.from_pairs([("b1", 1), ("b2", 2), ("b3", 3)], 2)
    s = direct_sum(a, b)
    assert s.size == 5
    assert rank_of(s, s.labels) == 3
    assert circuits(s) == sorted(
        circuits(a) + circuits(b), key=lambda c: (len(c), sorted(c))
    )
    with pytest.raises(ValueError):
        direct_sum(a, a)


def test_direct_sum_compacts_when_the_dimensions_do_not_fit():
    # Two 9-vertex graphs: dimensions 9 + 9 > MAX_DIM, ranks 5 + 6 fit.
    def edge(u, v):
        return (u, v, u + v)

    a = cycle_matroid(
        [edge("a0", "a1"), edge("a1", "a2"), edge("a2", "a0")]
        + [edge("a3", "a4"), edge("a5", "a6"), edge("a7", "a8")]
    )
    b = cycle_matroid(
        [edge(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)]
        + [edge("b5", "b6"), edge("b7", "b8")]
    )
    assert (a.dim, a.rank, b.dim, b.rank) == (9, 5, 9, 6)
    s = direct_sum(a, b)
    assert s.dim == s.rank == 11
    assert circuits(s) == oracles.oracle_circuits(s)
    # paths of ranks 8 and 9 still do not fit after compaction
    p = cycle_matroid([edge(f"p{i}", f"p{i + 1}") for i in range(8)])
    q = cycle_matroid([edge(f"q{i}", f"q{i + 1}") for i in range(9)])
    with pytest.raises(DimensionError):
        direct_sum(p, q)


# -- connectivity ------------------------------------------------------------


def test_local_connectivity_definition():
    rng = random.Random(13)
    for name, m in SMALL_CORPUS:
        if m.size < 2:
            continue
        labs = list(m.labels)
        for _ in range(4):
            X = frozenset(rng.sample(labs, rng.randint(0, len(labs))))
            Y = frozenset(rng.sample(labs, rng.randint(0, len(labs))))
            want = (
                oracles.oracle_rank(m, X)
                + oracles.oracle_rank(m, Y)
                - oracles.oracle_rank(m, X | Y)
            )
            assert local_connectivity(m, X, Y) == want, name


def test_connected_components_match_oracle():
    for name, m in SMALL_CORPUS:
        got = set(connected_components(m))
        assert got == oracles.oracle_components(m), name
        assert is_connected(m) == (len(got) <= 1)


def test_exact_two_separations_match_oracle():
    for name, m in SMALL_CORPUS:
        got = {frozenset(p) for p in exact_two_separations(m)}
        assert got == oracles.oracle_two_separations(m), name


def _wheel(n: int) -> BinaryMatroid:
    """The cycle matroid of the n-spoke wheel, spokes listed before the rim."""
    edges = [("h", f"r{i}", f"s{i}") for i in range(n)]
    edges += [(f"r{i}", f"r{(i + 1) % n}", f"t{i}") for i in range(n)]
    return cycle_matroid(edges)


# Every separation the backtrack yields, in its order, as "X | Y", and
# the nodes it ticks.  The oracle test compares sets only; a kernel that
# reorders the search or prunes differently changes these.
_BACKTRACK_RUNS = [
    (
        lambda: catalog_matroid("M_K24"),
        89,
        [
            "u1w4 u2w4 | u1w1 u1w2 u1w3 u2w1 u2w2 u2w3",
            "u1w3 u2w3 | u1w1 u1w2 u1w4 u2w1 u2w2 u2w4",
            "u1w1 u1w2 u2w1 u2w2 | u1w3 u1w4 u2w3 u2w4",
            "u1w2 u2w2 | u1w1 u1w3 u1w4 u2w1 u2w3 u2w4",
            "u1w1 u1w3 u2w1 u2w3 | u1w2 u1w4 u2w2 u2w4",
            "u1w1 u1w4 u2w1 u2w4 | u1w2 u1w3 u2w2 u2w3",
            "u1w1 u2w1 | u1w2 u1w3 u1w4 u2w2 u2w3 u2w4",
        ],
    ),
    (
        # the input of the golden p_c3_c3_doubled report
        lambda: BinaryMatroid.from_pairs(
            [
                (lab, bits_from_str(col))
                for lab, col in (
                    ("A1", "1100"),
                    ("B1", "1010"),
                    ("B2", "0110"),
                    ("C1", "1001"),
                    ("C2", "0101"),
                    ("D", "1010"),
                )
            ],
            4,
        ),
        25,
        ["C1 C2 | A1 B1 B2 D", "B1 D | A1 B2 C1 C2", "A1 C1 C2 | B1 B2 D"],
    ),
    # W13 is 3-connected: nothing to yield, after a search of 40902 nodes
    (lambda: _wheel(13), 40902, []),
    # PG(7) minus a point is 3-connected too.  A branch is cut once span X
    # n span Y reaches dimension 2, which happens early in a projective
    # geometry; cutting only when r(X) + r(Y) passed r(M) + 1 took 154046
    # nodes.
    (lambda: delete(projective_geometry(7), ["p1"]), 8118, []),
]


@pytest.mark.parametrize(
    "make, nodes, seps",
    _BACKTRACK_RUNS,
    ids=["M_K24", "P_C3_C3_DOUBLED", "W13", "PG7_MINUS_P1"],
)
def test_exact_two_separations_keep_their_order_and_node_count(make, nodes, seps):
    budget = Budget()
    got = list(exact_two_separations(make(), budget))
    assert [" ".join(sorted(X)) + " | " + " ".join(sorted(Y)) for X, Y in got] == seps
    assert all(isinstance(X, frozenset) and isinstance(Y, frozenset) for X, Y in got)
    assert budget.nodes == nodes


@pytest.mark.parametrize("key", ["THETA(4,4,5)", "W13"])
def test_exact_two_separations_stop_on_the_capped_node(key):
    # The backtrack charges its nodes in batches, and up to date before
    # each yield, so budget.nodes at a yield is the node that found it.
    # A cap of k must then raise on node k + 1 with that count, after
    # yielding exactly the separations found by node k, as a tick per
    # node did.  THETA(4,4,5) yields 48 times in 4142 nodes; W13 yields
    # nothing in 40902, so its batches run to the clock interval.
    m = _wheel(13) if key == "W13" else catalog_matroid(key)
    budget = Budget()
    seps, found_at = [], []
    for sep in exact_two_separations(m, budget):
        seps.append(sep)
        found_at.append(budget.nodes)
    total = budget.nodes
    caps = {1, 2, 4095, 4096, 4097, total - 1, total, total + 1}
    caps |= {p + d for p in found_at[:3] + found_at[-2:] for d in (-1, 0)}
    caps |= set(random.Random(7).sample(range(1, total), 6))
    for cap in sorted(c for c in caps if c >= 1):
        budget = Budget(max_nodes=cap)
        got = []
        try:
            for sep in exact_two_separations(m, budget):
                got.append(sep)
        except BudgetExceededError as exc:
            assert cap < total and exc.nodes == budget.nodes == cap + 1, cap
        else:
            assert cap >= total and budget.nodes == total, cap
        assert got == seps[: sum(p <= cap for p in found_at)], cap


def test_two_separations_come_smaller_side_first():
    for name, m in SMALL_CORPUS:
        for X, Y in exact_two_separations(m):
            assert (len(X), sorted(X)) <= (len(Y), sorted(Y)), name


def test_three_connected_spot_checks():
    by_name = dict(SMALL_CORPUS)
    assert is_3connected(by_name["PG3"])
    assert is_3connected(by_name["F7"])
    assert is_3connected(by_name["MSTAR_K5"])
    assert is_3connected(by_name["MK4"])
    assert not is_3connected(by_name["C4"])
    assert not is_3connected(by_name["P_C3_C3"])
    assert not is_3connected(by_name["C4_LOOP"])  # not even connected


# -- what a matroid works out once ---------------------------------------------


def test_cached_coordinates_are_greedy_and_immutable():
    for name, m in SMALL_CORPUS:
        coords, basis = m.coordinates
        assert (list(coords), list(basis)) == greedy_coordinates(m.cols), name
        assert isinstance(coords, tuple) and isinstance(basis, tuple), name
        assert m.coordinates is m.coordinates, name
    m = complete_graph_matroid(4)
    coords, basis = m.coordinates
    with pytest.raises(TypeError):
        coords[0] = 0  # type: ignore[index]
    with pytest.raises(TypeError):
        basis[0] = 1  # type: ignore[index]
    with pytest.raises(AttributeError):
        m.coordinates = ((), ())  # type: ignore[misc]
    assert m.coordinates == (coords, basis)


def test_connected_components_come_in_order_of_their_first_element():
    m = BinaryMatroid(tuple("abcd"), (0b01, 0b10, 0b10, 0b01), 2)
    assert connected_components(m) == [frozenset("ad"), frozenset("bc")]
    # a loop is a component of its own, where it stands
    m = BinaryMatroid(tuple("zabcd"), (0, 0b01, 0b10, 0b10, 0b01), 2)
    assert connected_components(m) == [{"z"}, {"a", "d"}, {"b", "c"}]


def test_connected_components_returns_a_new_list_each_call():
    m = dict(SMALL_CORPUS)["C4_LOOP"]
    first = connected_components(m)
    want = list(first)
    first.clear()
    second = connected_components(m)
    assert second == want and second is not first
    assert len(want) == 2 and not is_connected(m)


def test_restrict_delete_and_simplify_return_the_input_when_they_keep_it():
    for name, m in SMALL_CORPUS:
        assert restrict(m, m.labels) is m, name
        assert restrict(m, reversed(m.labels)) is m, name
        assert delete(m, []) is m, name
        assert (simplify(m) is m) == m.is_simple, name
        if m.size:
            smaller = restrict(m, m.labels[1:])
            assert smaller is not m and smaller.labels == m.labels[1:], name
