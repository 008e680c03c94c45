"""Randomized invariants over small binary matroids.

The generators favor degenerate inputs on purpose: zero columns,
repeated columns, and dims above the actual rank all show up.
"""

import re
from collections import Counter
from functools import reduce
from itertools import count
from operator import xor
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from theta3.decompose import canonical_tree_decomposition, classify_theta3, recompose
from theta3.gf2 import (
    MAX_DIM,
    bits,
    bits_from_str,
    bits_to_str,
    greedy_coordinates,
    nullity_one,
    rank_bits,
)
from theta3.construct import (
    BuildRecipe,
    DNode,
    Leaf,
    PNode,
    catalog_matroid,
    certificate,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cut_walk,
    cycle_matroid,
    parallel_connection,
    parse_recipe,
    projective_geometry,
    serialize_term,
    theta_edges,
)
from theta3.matroid import (
    BinaryMatroid,
    _circuit_masks,
    circuits,
    connected_components,
    contract,
    delete,
    dual,
    exact_two_separations,
    restrict,
    same_matroid,
    simplify,
)
from theta3.theta import (
    ThetaGraph,
    _arc_key,
    _contraction,
    _flat_has_arc,
    _Graph,
    _graph_theta,
    _pair_route_hits,
    _theta,
    _theta_pair,
    _theta_scan,
    is_theta3_closed,
    theta3_closure,
    theta_graphs,
)

import oracles
from test_matroid import _wheel


@st.composite
def matroids(draw, max_dim=4, max_cols=8):
    dim = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_cols))
    cols = draw(st.lists(st.integers(0, (1 << dim) - 1), min_size=n, max_size=n))
    return BinaryMatroid(tuple(f"g{i}" for i in range(n)), tuple(cols), dim)


@given(matroids())
def test_dual_is_an_involution(m):
    dd = dual(dual(m))
    assert dd.labels == m.labels
    assert dd.rank == m.rank
    assert set(circuits(dd)) == set(circuits(m))


@given(matroids())
def test_simplify_is_idempotent_and_rank_preserving(m):
    s = simplify(m)
    assert s.rank == m.rank
    assert 0 not in s.cols
    assert len(set(s.cols)) == s.size
    again = simplify(s)
    assert again.labels == s.labels and again.cols == s.cols


@given(st.lists(st.integers(0, 255), max_size=12), st.data())
def test_greedy_coordinates_express_every_column_over_the_basis(cols, data):
    indices = st.integers(0, len(cols) - 1)
    first = data.draw(st.lists(indices, max_size=4)) if cols else []
    coords, basis = greedy_coordinates(cols, first)
    assert len(basis) == rank_bits(cols)
    # the columns offered first span the leading coordinates
    assert set(basis[: rank_bits(cols[i] for i in first)]) <= set(first)
    for k, b in enumerate(basis):
        assert coords[b] == 1 << k
    for c, x in zip(cols, coords):
        total = 0
        for k in bits(x):
            total ^= cols[basis[k]]
        assert total == c


@given(matroids(), st.data())
def test_contract_and_delete_commute(m, data):
    labs = list(m.labels)
    A = data.draw(st.lists(st.sampled_from(labs), unique=True, max_size=3))
    rest = [lab for lab in labs if lab not in A]
    B = (
        data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=3))
        if rest
        else []
    )
    x = contract(delete(m, B), A)
    y = delete(contract(m, A), B)
    assert x.labels == y.labels
    assert x.rank == y.rank
    assert set(circuits(x)) == set(circuits(y))


@given(matroids(max_dim=5, max_cols=10))
@example(BinaryMatroid((), (), 3))  # empty
@example(BinaryMatroid(("a", "b", "c"), (0, 0, 0), 2))  # all loops, rank 0
@example(BinaryMatroid(("a", "b", "c"), (1, 2, 4), 3))  # free: no circuits
@example(BinaryMatroid(("z", "y", "x", "w", "v"), (1, 2, 3, 4, 7), 3))  # labels out of order
def test_circuits_match_the_oracle(m):
    assert circuits(m) == oracles.oracle_circuits(m)


def test_same_matroid_agrees_with_circuit_families():
    outcomes = set()

    @settings(max_examples=150)
    @given(matroids(max_dim=4, max_cols=7), st.data())
    def agree(m, data):
        # N: M under an injective linear map into dimension >= M's, its
        # labels in a shuffled order, and sometimes one column replaced.
        dim = data.draw(st.integers(m.dim, 6))
        images = data.draw(
            st.lists(st.integers(1, (1 << dim) - 1), min_size=m.dim, max_size=m.dim)
        )
        assume(rank_bits(images) == m.dim)
        cols = [reduce(xor, (images[k] for k in bits(c)), 0) for c in m.cols]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, m.size - 1))
            cols[i] = data.draw(st.integers(0, (1 << dim) - 1))
        order = data.draw(st.permutations(range(m.size)))
        n = BinaryMatroid(
            tuple(m.labels[i] for i in order), tuple(cols[i] for i in order), dim
        )
        same = set(oracles.oracle_circuits(m)) == set(oracles.oracle_circuits(n))
        assert same_matroid(m, n) == same_matroid(n, m) == same
        outcomes.add(same)

    agree()
    assert outcomes == {True, False}


@st.composite
def loopy_matroids(draw, max_dim=4, max_cols=8):
    """Columns drawn from a pool of at most three nonzero vectors and 0,
    so loops and parallel copies are the rule, not the exception."""
    dim = draw(st.integers(1, max_dim))
    pool = draw(st.lists(st.integers(1, (1 << dim) - 1), min_size=1, max_size=3)) + [0]
    n = draw(st.integers(1, max_cols))
    cols = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return BinaryMatroid(tuple(f"g{i}" for i in range(n)), tuple(cols), dim)


def test_same_matroid_agrees_with_fresh_coordinates_on_loops_and_copies():
    outcomes = set()

    @settings(max_examples=150)
    @given(loopy_matroids(), st.data())
    def agree(m, data):
        # N: M with its labels in a shuffled order, and sometimes one
        # column replaced; M's coordinates are worked out before the call
        cols = list(m.cols)
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, m.size - 1))
            cols[i] = data.draw(st.integers(0, (1 << m.dim) - 1))
        order = data.draw(st.permutations(range(m.size)))
        n = BinaryMatroid(
            tuple(m.labels[i] for i in order), tuple(cols[i] for i in order), m.dim
        )
        cached = m.coordinates
        same = greedy_coordinates(m.cols) == greedy_coordinates(
            [n.col_of(lab) for lab in m.labels]
        )
        assert same_matroid(m, n) == same_matroid(n, m) == same
        assert m.coordinates is cached
        outcomes.add(same)

    agree()
    assert outcomes == {True, False}


@settings(max_examples=50)
@given(matroids(max_dim=4, max_cols=7))
def test_exact_two_separations_match_the_oracle(m):
    got = {frozenset(pair) for pair in exact_two_separations(m)}
    assert got == oracles.oracle_two_separations(m)


@st.composite
def simple_matroids(draw, min_rank=4, max_dim=6, max_cols=11):
    dim = draw(st.integers(min_rank, max_dim))
    cols = draw(
        st.lists(
            st.integers(1, (1 << dim) - 1),
            min_size=min_rank,
            max_size=max_cols,
            unique=True,
        ).filter(lambda cs: rank_bits(cs) >= min_rank)
    )
    return BinaryMatroid(tuple(f"g{i}" for i in range(len(cols))), tuple(cols), dim)


def _scan_form(m, records):
    return [
        (frozenset(frozenset(m.labels[j] for j in bits(a)) for a in arcs), w)
        for *arcs, w in records
    ]


@settings(max_examples=150)
@given(matroids(max_dim=4, max_cols=9))
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
def test_theta_scan_yields_each_theta_once(m):
    got = _scan_form(m, _theta_scan(m))
    assert len(got) == len(set(got))
    assert set(got) == oracles.oracle_theta_graphs(m)


@settings(max_examples=150)
@given(matroids(max_dim=4, max_cols=9))
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
@example(cycle_matroid(complete_bipartite_edges(2, 3)))  # one theta, incomplete
@example(BinaryMatroid(tuple("abcdefg"), (1, 2, 3, 4, 5, 8, 14), 4))  # 5 of 6 complete
def test_incomplete_scan_yields_each_incomplete_theta_once(m):
    # The scan skips a pair whose completing vector is a column before
    # its rank test; what is left must be exactly the incomplete thetas.
    got = _scan_form(m, _theta_scan(m, skip=m.colset))
    assert len(got) == len(set(got))
    want = {(arcs, w) for arcs, w in oracles.oracle_theta_graphs(m) if w not in m.colset}
    assert set(got) == want


@settings(max_examples=100, deadline=None)
@given(matroids(max_dim=7, max_cols=14))
@example(_wheel(6))  # incomplete thetas with arcs of 2 to 4 elements
@example(catalog_matroid("MSTAR_K33"))
def test_incomplete_scan_is_the_full_scan_less_its_complete_thetas(m):
    # The incomplete scan pairs a circuit only with the partners that
    # pass three tests, each of which every incomplete theta passes:
    # C2 meets C1 - b, C2 avoids cl(C1) - C1, and C1 avoids cl(C2) - C2.
    # So it yields the full scan's records whose completing vector is
    # not a column, in the full scan's order; a stricter test drops one.
    want = [rec for rec in _theta_scan(m) if rec[3] not in m.colset]
    assert list(_theta_scan(m, skip=m.colset)) == want


def test_circuits_of_incomplete_thetas_pass_the_flat_test():
    # The incomplete scan drops a circuit C of r(M) - 1 or r(M) elements
    # unless its flat passes _flat_has_arc; by the lemma of the theta
    # module docstring every circuit of an incomplete theta passes.  Each
    # circuit of each incomplete theta of the full scan is checked, and
    # its free mask against the oracle's closure.
    ranks = Counter()

    @settings(max_examples=200, deadline=None)
    @given(matroids(max_dim=7, max_cols=12))
    @example(cycle_matroid(theta_edges(2, 2, 3)))
    @example(cycle_matroid(theta_edges(2, 3, 4)))
    @example(_wheel(5))
    @example(catalog_matroid("MSTAR_K5"))  # 30 circuits with M/C of rank 1
    @example(cycle_matroid(complete_bipartite_edges(3, 3)))  # 18 with rank 2
    def passes(m):
        cocycles = [0] * m.rank
        for e, c in enumerate(m.coordinates[0]):
            for k in bits(c):
                cocycles[k] |= 1 << e
        for *arcs, w in _theta_scan(m):
            if w in m.colset:
                continue
            for arc in arcs:
                c = reduce(xor, arcs) ^ arc
                if c.bit_count() < m.rank - 1:
                    continue
                free, reduced = _contraction(cocycles, c)
                flat = oracles.closure_flat(m, [m.labels[j] for j in bits(c)])
                assert free == sum(1 << j for j, lab in enumerate(m.labels) if lab not in flat)
                assert _flat_has_arc(m.cols, m.colset, free, reduced)
                ranks[len(reduced)] += 1

    passes()
    # both ranks of M/C, and with them the 2- and 3-element arcs, occur;
    # the examples alone count {1: 43, 2: 25}, so the floor holds on any
    # draw
    assert ranks[1] > 20 and ranks[2] > 20, ranks


@settings(max_examples=100)
@given(matroids(max_dim=4, max_cols=9), st.data())
def test_theta_scan_rank_tests_do_not_depend_on_element_order(m, data):
    # The scan decides one circuit pair per set of three circuits that
    # gets past its filters, so the number of decisions (calls to
    # _theta_pair) does not depend on the element order.  The completing
    # vector a pair is looked up by does not depend on it either, so
    # neither does the incomplete scan's count.
    order = data.draw(st.permutations(range(m.size)))
    shuffled = BinaryMatroid(
        tuple(m.labels[i] for i in order), tuple(m.cols[i] for i in order), m.dim
    )
    counts = []
    for mm in (m, shuffled):
        for scan in (_theta_scan(mm), _theta_scan(mm, skip=mm.colset)):
            with mock.patch("theta3.theta._theta_pair", wraps=_theta_pair) as decide:
                found = sum(1 for _ in scan)
            counts.append((decide.call_count, found))
    assert counts[:2] == counts[2:]


@st.composite
def matroids_with_copies(draw, max_dim=8, max_cols=16):
    """Up to max_cols nonzero columns, then up to four loops or copies of
    them, in random order: every dimension gets loops and copies."""
    dim = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_cols))
    cols = draw(st.lists(st.integers(1, (1 << dim) - 1), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(-1, n - 1), max_size=4))  # -1 is a loop
    cols += [cols[i] if i >= 0 else 0 for i in extra]
    cols = draw(st.permutations(cols))
    return BinaryMatroid(tuple(f"g{i}" for i in range(len(cols))), tuple(cols), dim)


def _component(m):
    """m restricted to its largest connected component."""
    return restrict(m, max(connected_components(m), key=len, default=()))


@settings(max_examples=100, deadline=None)
@given(matroids_with_copies(max_dim=8, max_cols=10))
def test_tree_matches_the_backtrack_reference(m):
    # the tree read off the walk against the split loop on the
    # 2-separation backtrack, on connected inputs with parallel copies
    m = _component(m)
    t = canonical_tree_decomposition(m)
    assert oracles.trees_equivalent(t, oracles.oracle_canonical_tree(m))
    assert same_matroid(m, recompose(t))


@settings(max_examples=100, deadline=None)
@given(matroids(max_dim=5, max_cols=10))
def test_a_vector_that_splits_the_contraction_gives_exact_two_separations(m):
    # the lemma in construct.cut_walk's docstring, on a simple connected
    # m: for a nonzero vector v of its span, each class K of m/v (its
    # components other than the loop that an element equal to v
    # becomes) gives an exact 2-separation (K, E - K) once m/v has two
    # classes; and every exact 2-separation arises so, from its split
    # vector
    m = _component(simplify(m))
    r = oracles.oracle_rank(m)

    def classes(v):
        quotient = contract(m.extend("v", v), ["v"])
        return [K for K in connected_components(quotient) if quotient.col_of(min(K))]

    found = set()
    for v in sorted(oracles.span_of(m.cols) - {0}):
        split = classes(v)
        if len(split) < 2:
            continue
        for K in split:
            rest = m.label_set - K
            assert len(K) >= 2 and len(rest) >= 2
            assert oracles.oracle_rank(m, K) + oracles.oracle_rank(m, rest) == r + 1
            found.add(frozenset((K, rest)))
    every = oracles.oracle_two_separations(m)
    assert found <= every
    for X, Y in map(tuple, every):
        split = classes(oracles.split_vector(m, X, Y))
        assert len(split) >= 2 and all(K <= X or K <= Y for K in split)


@settings(max_examples=100, deadline=None)
@given(simple_matroids(min_rank=4, max_dim=6, max_cols=12))
def test_split_search_finds_a_split_exactly_when_the_backtrack_does(m):
    # on a simple connected piece with no cut point that is not a block,
    # the certificate's piece, the walk's search over the vectors no
    # column carries splits it exactly when it has an exact 2-separation
    S = certificate(m)
    assume(isinstance(S, BinaryMatroid))
    piece = cut_walk(S, None, map("marker{}".format, count()))
    has_separation = next(exact_two_separations(S), None) is not None
    assert (piece.at == "marker0") == has_separation
    if has_separation:
        assert piece.at not in S.label_set and len(piece.parts) >= 2


def _p_k6_k5():
    k5 = complete_graph_matroid(5)
    k5 = k5.relabel({lab: "b" + lab for lab in k5.labels})
    return parallel_connection(complete_graph_matroid(6), k5, "1-2", "b1-2")


@settings(max_examples=150, deadline=None)
@given(matroids_with_copies())
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
@example(_p_k6_k5())  # rank 8: |C2 - C1| = 2..7 in the full scan
def test_theta_pair_decides_corank_two_as_the_oracle(m):
    # Every pair the scan decides, in either mode, is a theta exactly
    # when its union has corank 2.
    decided = {}
    for skip in (None, m.colset):
        calls = decided[skip is not None] = []

        def decide(c1, c2, free, reduced):
            verdict = _theta_pair(c1, c2, free, reduced)
            calls.append((c1, c2, verdict))
            return verdict

        with mock.patch("theta3.theta._theta_pair", decide):
            for _ in _theta_scan(m, skip=skip):
                pass
        for c1, c2, verdict in calls:
            union = [m.labels[j] for j in bits(c1 | c2)]
            assert verdict == (oracles.oracle_rank(m, union) == len(union) - 2)
    if m == _p_k6_k5():
        # the full scan decides pairs with 2 to 6 elements outside C1;
        # the incomplete scan pairs a circuit only with partners that
        # could close an incomplete theta, and on this closed matroid
        # none of those is left to decide
        sizes = [(c2 & ~c1).bit_count() for c1, c2, _ in decided[False]]
        assert [sizes.count(k) for k in range(2, 7)] == [7156, 5726, 4028, 2520, 864]
        assert decided[True] == []


def _rule_branch(vecs):
    """Which branch of gf2.nullity_one decides vecs."""
    if len(vecs) == 1:
        return "one"
    if 0 in vecs:
        return "zero"
    return "2-3" if len(vecs) <= 3 else "4-5" if len(vecs) <= 5 else "6+"


# 21 columns of dimension 8, random.Random(0).randint(1, 255) each: unlike
# P(M(K6), M(K5)), some of its cycles are refuted by the rank branch
_DENSE_RANK8 = BinaryMatroid(
    tuple(f"g{i}" for i in range(21)),
    (217, 99, 195, 228, 108, 11, 67, 248, 131, 125, 104, 236, 201, 213, 78, 248,
     123, 92, 150, 229, 233),
    8,
)

# the rule's verdicts per branch over the walk, full and windowed
_WALK_RULE_COUNTS = {
    _p_k6_k5(): {
        ("one", True): 32, ("zero", False): 3348, ("2-3", True): 400,
        ("4-5", True): 1092, ("4-5", False): 1242, ("6+", True): 720,
    },
    _DENSE_RANK8: {
        ("one", True): 26, ("zero", False): 706, ("2-3", True): 539,
        ("4-5", True): 1572, ("4-5", False): 304, ("6+", True): 679,
        ("6+", False): 226,
    },
}


@settings(max_examples=100, deadline=None)
@given(matroids_with_copies())
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
@example(_p_k6_k5())
@example(_DENSE_RANK8)
def test_circuit_walk_decides_cycles_as_the_oracle(m):
    # Every cycle the walk decides, full or windowed, is a circuit exactly
    # when gf2.nullity_one says so.  The walk decides each cycle of at
    # most its cap elements at most once, on the coordinates of the
    # cycle's elements outside the basis, and lists it exactly when the
    # rule says yes.  So the rule must hold on each of its inputs, every
    # yes must list one circuit, and the list must be every circuit
    # within the cap: a no on a circuit would leave it out.
    decided = Counter()
    verdicts = []

    def rule(vecs):
        verdict = nullity_one(vecs)
        # vectors that sum to zero have nullity 1 exactly when their rank
        # is one less than their number
        assert verdict == (len(oracles.span_of(vecs)) == 1 << len(vecs) - 1), vecs
        decided[_rule_branch(vecs), verdict] += 1
        verdicts.append(verdict)
        return verdict

    for window in (None, m.rank):
        verdicts.clear()
        with mock.patch("theta3.matroid.nullity_one", rule):
            walk = _circuit_masks(m, max_size=window)
        cap = m.rank + 1 if window is None else window
        assert len(set(walk)) == len(walk)
        assert set(walk) == oracles.oracle_short_circuits(m, cap)
        # one yes per circuit listed, loops apart
        assert verdicts.count(True) == len(walk) - m.cols.count(0)
    if m in _WALK_RULE_COUNTS:
        assert decided == _WALK_RULE_COUNTS[m]


@given(matroids(max_dim=4, max_cols=9), st.integers(1, 6))
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3), 3)  # loop, copies
def test_short_circuit_oracle_agrees_with_the_subset_oracle(m, k):
    # the cycle-space oracle against the minimal dependent sets
    short = oracles.oracle_short_circuits(m, k)
    assert {frozenset(m.labels[j] for j in bits(c)) for c in short} == set(
        oracles.oracle_circuits(m, k)
    )


@settings(deadline=None)
@given(matroids())
@example(_p_k6_k5())
@example(_DENSE_RANK8)
def test_windowed_walk_lists_the_short_circuits_in_order(m):
    # With max_size = k the walk prunes every set whose descendants can
    # no longer close a cycle of at most k elements; it must still list
    # every circuit of at most k elements, in order.  The two rank-8
    # examples are too large for the oracle, so there the reference is
    # the full walk cut at k.
    full = _circuit_masks(m)
    for k in range(1, m.rank + 2):
        walk = _circuit_masks(m, max_size=k)
        if m in (_p_k6_k5(), _DENSE_RANK8):
            assert walk == [c for c in full if c.bit_count() <= k]
        else:
            named = [frozenset(m.labels[j] for j in bits(c)) for c in walk]
            assert named == oracles.oracle_circuits(m, k)


@st.composite
def multigraphs(draw, max_vertices=7):
    """Edge lists on v0.. in random order: a simple graph plus up to four
    loops or parallel edges.  About a quarter are not closed."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    ends = [p for p, k in zip(pairs, kept) if k]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    ends = draw(st.permutations(ends))
    return [(f"v{a}", f"v{b}", f"e{k}") for k, (a, b) in enumerate(ends)]


@settings(max_examples=200)
@given(multigraphs())
@example(complete_bipartite_edges(2, 3))
@example(theta_edges(2, 2, 2) + [("x", "x", "loop"), ("a1", "x", "twin")])
@example(theta_edges(2, 2, 2) + [("y", "x", "chord"), ("x", "y", "twin")])
def test_graph_flows_agree_with_the_oracle_and_the_scan(edges):
    # Loops never matter and a parallel edge only makes its ends
    # adjacent; the flows, the path-listing oracle and the circuit-pair
    # scan must agree on that.
    m = cycle_matroid(edges)
    wit = _graph_theta(_Graph(edges))
    closed = wit is None
    assert oracles.oracle_graph_closed(edges) == closed
    assert is_theta3_closed(m, use_shortcut=False)[0] == closed
    if not closed:
        oracles.oracle_validate_theta(m, wit.arcs)
        assert not oracles.oracle_is_complete(m, wit.arcs)[0]
        assert wit.completing not in m.colset
        oracles.oracle_validate_theta(m, oracles.oracle_graph_theta(edges))


@settings(max_examples=40)
@given(matroids(max_dim=4, max_cols=6))
def test_closure_is_idempotent(m):
    first, _ = theta3_closure(m)
    again, trace = theta3_closure(first)
    assert len(trace.rounds) == 0
    assert set(again.cols) == set(first.cols)


@settings(max_examples=25, deadline=None)
@given(simple_matroids(min_rank=4, max_dim=4, max_cols=8))
@example(cycle_matroid(theta_edges(2, 2, 3)))
@example(cycle_matroid(theta_edges(3, 3, 3)))
def test_closure_reaches_the_oracle_fixed_point(m):
    # A round may stop at a partial pair-route answer, and a recipe
    # certificate may declare the fixed point, so the final is checked
    # against the brute-force closure.  Rank-4 sets of 4-8 points: on
    # matroids(max_dim=4, max_cols=7) the closure grew 1 input in 200,
    # here about a third of them.  In rank 4 every theta has 2-element
    # arcs, so the pair route finds them all; the theta graphs with a
    # longer arc need the circuit-pair scan.
    final, _ = theta3_closure(m)
    ofinal, _ = oracles.oracle_closure(m)
    assert final.colset == ofinal.colset


@settings(max_examples=25)
@given(matroids(max_dim=3, max_cols=6))
def test_closure_strategies_reach_the_same_fixed_point(m):
    batch, _ = theta3_closure(m, strategy="batch")
    single, _ = theta3_closure(m, strategy="one_at_a_time")
    assert set(batch.cols) == set(single.cols)


_BASES = ("e1", "e2", "x", "1-2", "p7")

# The grammar carries no relabel maps.  st.builds also draws a field
# with a default, so relabel is pinned to the default ().
_leaves = st.one_of(
    st.builds(Leaf, st.just("C"), st.integers(1, 6), relabel=st.just(())),
    st.builds(Leaf, st.just("MK"), st.integers(2, 5), relabel=st.just(())),
    st.builds(Leaf, st.just("PG"), st.integers(1, 4), relabel=st.just(())),
)

_terms = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(
            PNode, kids, kids, st.sampled_from(_BASES), st.sampled_from(_BASES)
        ),
        st.lists(kids, min_size=2, max_size=3).map(lambda ps: DNode(tuple(ps))),
    ),
    max_leaves=5,
)


@given(_terms)
def test_recipe_grammar_round_trips(t):
    assert parse_recipe(serialize_term(t)) == t


@given(
    st.integers(0, MAX_DIM).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, (1 << d) - 1))
    )
)
@example((0, 0))
@example((16, 1 << 15))  # row 16 alone: fifteen leading zero rows
@example((16, (1 << 16) - 1))
@example((6, 0b100100))  # rows 3 and 6
def test_bits_to_str_matches_the_per_bit_definition(case):
    dim, mask = case
    assert bits_to_str(mask, dim) == "".join("1" if mask >> i & 1 else "0" for i in range(dim))


@given(st.text(alphabet="01", max_size=20) | st.text(alphabet="01x _+-١", max_size=8))
@example("")
@example("1_0")  # int() alone would read these three
@example("+1")
@example(" 1")
def test_bits_from_str_matches_the_per_character_definition(s):
    bad = [ch for ch in s if ch not in "01"]
    if bad:
        with pytest.raises(ValueError, match=re.escape(f"bad bit character {bad[0]!r}")):
            bits_from_str(s)
    else:
        assert bits_from_str(s) == sum(1 << i for i, ch in enumerate(s) if ch == "1")


@settings(max_examples=40)
@given(st.integers(0, 127))
def test_classify_matches_direct_decision_on_plane_subsets(mask):
    pg = projective_geometry(3)
    sub = restrict(pg, [pg.labels[i] for i in range(7) if mask >> i & 1])
    closed, _ = is_theta3_closed(sub)
    verdict = classify_theta3(sub)
    assert verdict.in_class == closed
    if verdict.in_class:
        rebuilt = verdict.recipe.evaluate()
        assert sorted(rebuilt.labels) == sorted(sub.labels)
        assert set(circuits(rebuilt)) == set(circuits(sub))


@settings(max_examples=150)
@given(matroids(max_dim=5, max_cols=12))
@example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
@example(BinaryMatroid(tuple(f"p{k}" for k in range(2, 16)), tuple(range(2, 16)), 4))
@example(BinaryMatroid(tuple("abcdef"), (1, 2, 4, 8, 16, 3), 5))  # few pair sums
@example(BinaryMatroid(tuple("abcdefg"), (3, 13, 6, 23, 18, 28, 25), 5))  # 7 yields
# Target 8 only: its pairs {1,9}, {2,10}, {3,11} are dependent, and
# there is no fourth pair, so no yield.
@example(BinaryMatroid(tuple("abcdef"), (1, 2, 3, 9, 10, 11), 4))
# With {4,12} added, target 8 skips the sum pair {3,11}: arcs {1,9},
# {2,10}, {4,12}.
@example(BinaryMatroid(tuple("abcdefgh"), (1, 2, 3, 9, 10, 11, 4, 12), 4))
def test_pair_route_matches_the_per_target_reference(m):
    # One yield per target that has a rank-4 triple, in ascending target
    # order, whether the pairs come from the pass over column pairs or,
    # with few missing vectors, from each missing vector in turn.
    got = [(v, frozenset(t.arcs)) for v, t in _pair_route_hits(m, None)]
    assert got == oracles.oracle_pair_route_hits(m)


@settings(max_examples=100, deadline=None)
@given(matroids(max_dim=5, max_cols=10))
@example(BinaryMatroid(tuple("abcdefg"), (3, 13, 6, 23, 18, 28, 25), 5))  # 7 pair-route yields
@example(cycle_matroid(theta_edges(2, 2, 3)))  # a longer arc, found by the scan
def test_every_witness_lists_its_arcs_in_arc_key_order(m):
    # The reports render arcs in this order, and frozenset comparisons
    # elsewhere would not see a change to it.
    wits = [t for _, t in _pair_route_hits(m, None)]
    wits += theta_graphs(m)
    wits += [is_theta3_closed(m, use_shortcut=s)[1] for s in (True, False)]
    for strategy in ("batch", "one_at_a_time"):
        _, trace = theta3_closure(m, strategy=strategy)
        wits += [t for r in trace.rounds for t in r.witnesses]
    for t in wits:
        if isinstance(t, ThetaGraph):
            assert t.arcs == tuple(sorted(t.arcs, key=_arc_key))


@given(matroids(max_dim=4, max_cols=12), st.data())
def test_theta_builds_the_reference_witness_from_arc_masks(m, data):
    # Labels in shuffled order, so that "g10" < "g2" and label order is
    # not element order; arcs drawn in any order, lengths often tied.
    m = BinaryMatroid(tuple(data.draw(st.permutations(m.labels))), m.cols, m.dim)
    arc_of = data.draw(st.lists(st.integers(0, 3), min_size=m.size, max_size=m.size))
    masks = [sum(1 << j for j, k in enumerate(arc_of) if k == i) for i in range(3)]
    assume(all(masks))
    w = data.draw(st.integers(0, (1 << m.dim) - 1))
    arcs = sorted((frozenset(m.labels[j] for j in bits(x)) for x in masks), key=_arc_key)
    assert _theta(m, masks, w) == ThetaGraph(tuple(arcs), w, m.dim)


def test_certificate_exactly_when_the_oracle_says_closed():
    outcomes = set()

    @settings(max_examples=200)
    @given(matroids(max_dim=4, max_cols=9))
    @example(BinaryMatroid(tuple("abcdefgh"), (0, 1, 1, 2, 3, 4, 5, 6), 3))  # loop, copies
    @example(BinaryMatroid(tuple("abcdefg"), (0, 1, 2, 3, 3, 4, 5), 3))  # two triangles
    @example(cycle_matroid(complete_bipartite_edges(2, 3)))  # an incomplete theta
    def agree(m):
        found = certificate(m)
        closed = oracles.oracle_closed(m)[0]
        assert isinstance(found, BuildRecipe) == closed
        if closed:
            rebuilt = found.evaluate()
            assert sorted(rebuilt.labels) == sorted(m.labels)
            assert set(oracles.oracle_circuits(rebuilt)) == set(oracles.oracle_circuits(m))
            outcomes.add("P(" in found.serialize())
        else:
            # a restriction of m outside the class, whose incomplete
            # theta is incomplete in m too
            assert all(found.col_of(lab) == m.col_of(lab) for lab in found.labels)
            piece_closed, arcs = oracles.oracle_closed(found)
            assert not piece_closed
            assert not oracles.oracle_is_complete(m, arcs)[0]
            outcomes.add(None)

    agree()
    # members glued at a point, members without a gluing, and non-members
    assert outcomes == {True, False, None}


_BLOCKS = (
    circuit_matroid(3),
    circuit_matroid(4),
    complete_graph_matroid(4),
    projective_geometry(3),
)


@st.composite
def glued_blocks(draw):
    """Two or three blocks, each glued at a random point of what came before."""
    out = None
    for i in range(draw(st.integers(2, 3))):
        block = draw(st.sampled_from(_BLOCKS))
        block = block.relabel({lab: f"b{i}{lab}" for lab in block.labels})
        if out is None:
            out = block
        else:
            p = draw(st.sampled_from(out.labels))
            q = draw(st.sampled_from(block.labels))
            out = parallel_connection(out, block, p, q)
    return out


@settings(max_examples=40)
@given(glued_blocks())
def test_every_piece_at_a_cut_point_of_a_closed_matroid_is_closed(m):
    # The lemma behind the certificate: with S/p split into K_1..K_t,
    # each S|(K_i u p) is closed.  Glued blocks are closed, and their
    # glue points are cut points, so the test is never vacuous.
    assert is_theta3_closed(m, use_shortcut=False)[0]
    cuts = 0
    for p in m.labels:
        pieces = connected_components(contract(m, [p]))
        if len(pieces) < 2:
            continue
        cuts += 1
        for K in pieces:
            assert is_theta3_closed(restrict(m, K | {p}), use_shortcut=False)[0]
    assert cuts >= 1
