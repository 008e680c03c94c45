"""Theta detection, completeness, and the closure fixed point."""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import random
from functools import partial
from unittest import mock

import pytest

import theta3
from theta3.budget import Budget, BudgetExceededError
from theta3.construct import (
    BuildRecipe,
    catalog_matroid,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cycle_matroid,
    evaluate_term,
    parallel_connection,
    parse_recipe,
    projective_geometry,
    theta_edges,
)
from theta3.decompose import classify_theta3
from theta3.gf2 import rank_bits
from theta3.matroid import BinaryMatroid, _circuit_masks, delete, same_matroid, simplify
from theta3 import cli, theta
from theta3.theta import (
    graph_is_theta3_closed,
    graph_theta3_closure,
    is_complete,
    is_theta3_closed,
    theta3_closure,
    theta_graphs,
)

import oracles
from corpus import SMALL_CORPUS, complete_graph_edges, cycle_edges


def _impl_theta_set(m):
    return {(frozenset(t.arcs), t.completing) for t in theta_graphs(m)}


# -- detection vs the definitional oracle -----------------------------------


def test_theta_graphs_match_oracle_on_corpus():
    for name, m in SMALL_CORPUS:
        assert _impl_theta_set(m) == oracles.oracle_theta_graphs(m), name


def test_theta_graphs_sorted_and_deduplicated():
    for name, m in SMALL_CORPUS:
        ts = theta_graphs(m)
        keys = [tuple(sorted((len(a), sorted(a)) for a in t.arcs)) for t in ts]
        assert keys == sorted(keys), name
        assert len({frozenset(t.arcs) for t in ts}) == len(ts), name


def test_completing_vector_is_every_arc_sum():
    for name, m in SMALL_CORPUS:
        for t in theta_graphs(m):
            for arc in t.arcs:
                w = 0
                for lab in arc:
                    w ^= m.col_of(lab)
                assert w == t.completing, name


def test_k23_has_one_theta_with_pair_arcs():
    m = cycle_matroid(complete_bipartite_edges(2, 3))
    ts = theta_graphs(m)
    assert len(ts) == 1
    assert sorted(len(a) for a in ts[0].arcs) == [2, 2, 2]
    assert ts[0].elements == m.label_set


# -- completeness -----------------------------------------------------------


def test_is_complete_matches_oracle_on_corpus():
    for name, m in SMALL_CORPUS:
        for t in theta_graphs(m):
            got, lab = is_complete(m, t)
            want, _ = oracles.oracle_is_complete(m, t.arcs)
            assert got == want, (name, t)
            if got:
                assert lab is not None
                assert oracles.oracle_completes(m, t.arcs, lab), (name, lab)
            else:
                assert lab is None


def test_complete_exactly_when_completing_vector_is_a_column():
    # the identity behind the scan's completeness filter: a singleton
    # arc's column is itself the completing vector
    for name, m in SMALL_CORPUS:
        for t in theta_graphs(m):
            assert is_complete(m, t)[0] == (t.completing in m.colset), (name, t)


def test_singleton_arc_completes_its_own_theta():
    m = cycle_matroid(theta_edges(1, 2, 2))
    ts = theta_graphs(m)
    assert len(ts) == 1
    ok, lab = is_complete(m, ts[0])
    assert ok and lab == "A1"


# -- the closed decision ------------------------------------------------------


def test_is_theta3_closed_agrees_with_oracle_on_corpus():
    for name, m in SMALL_CORPUS:
        got, wit = is_theta3_closed(m)
        want, _ = oracles.oracle_closed(m)
        assert got == want, name
        if not got:
            oracles.oracle_validate_theta(m, wit.arcs)
            assert not oracles.oracle_is_complete(m, wit.arcs)[0], name
        elif wit is not None:
            # the certificate proved it: its recipe rebuilds m
            assert isinstance(wit, BuildRecipe), name
            assert same_matroid(wit.evaluate(), m), name


def test_shortcut_and_direct_agree_on_projective_geometries():
    for r in (1, 2, 3, 4):
        pg = projective_geometry(r)
        assert is_theta3_closed(pg, use_shortcut=True)[0]
        assert is_theta3_closed(pg, use_shortcut=False)[0]


def test_rank_rule_agrees_with_the_scan_on_every_subset_of_pg4():
    # At rank 4 or less an empty pair route proves M closed; without
    # the shortcut the circuit-pair scan decides.
    pg = projective_geometry(4)
    for mask in range(1, 1 << pg.size):
        cols = tuple(c for i, c in enumerate(pg.cols) if mask >> i & 1)
        m = BinaryMatroid(tuple(map(str, cols)), cols, 4)
        assert is_theta3_closed(m)[0] == is_theta3_closed(m, use_shortcut=False)[0], mask


@pytest.mark.parametrize("seed", range(3))
def test_rank_rule_agrees_with_the_scan_with_loops_and_parallel_copies(seed):
    # rank 1 to 4 in dimensions up to 8, some with more than 18
    # elements: the rank rule decides at every size
    rng = random.Random(seed)
    for _ in range(150):
        dim = rng.randint(2, 8)
        basis = [rng.randrange(1, 1 << dim) for _ in range(4)]
        # the span of the basis, 0 (a loop) included
        span = [0]
        for v in basis:
            span += [u ^ v for u in span]
        pts = rng.choices(span, k=rng.randint(1, 24))
        m = BinaryMatroid(tuple(f"q{i}" for i in range(len(pts))), tuple(pts), dim)
        assert m.rank <= 4
        closed, wit = is_theta3_closed(m)
        assert closed == is_theta3_closed(m, use_shortcut=False)[0], pts
        if not closed:
            oracles.oracle_validate_theta(m, wit.arcs)
            assert not oracles.oracle_is_complete(m, wit.arcs)[0], pts


def test_rank_rule_stops_at_rank_4():
    # THETA(2,2,3) has rank 5 and one theta, incomplete, with an arc of
    # three elements: past rank 4 an empty pair route proves nothing
    m = catalog_matroid("THETA(2,2,3)")
    assert m.rank == 5 and not list(theta._pair_route_hits(m, None))
    assert not is_theta3_closed(m)[0]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return refuse


def _with_parallel_copies(m):
    """m with a parallel copy of each element, its label primed."""
    for lab, c in zip(m.labels, m.cols):
        m = m.extend(lab + "'", c)
    return m


@pytest.mark.parametrize(
    "key", ["MK(5)", "MSTAR_K33", "F7", "THETA(2,2,2)", "MK(5) doubled"]
)
def test_rank_rule_runs_neither_scan_nor_certificate(monkeypatch, key):
    # inputs of rank 4 or less, at any size: M(K5) is closed, also with
    # a parallel copy of each element (20 elements), F7 projective, and
    # M*(K_3,3) and M(K_2,3) are refuted by the pair route
    name, _, doubled = key.partition(" ")
    m = catalog_matroid(name)
    if doubled:
        m = _with_parallel_copies(m)
        assert m.size == 20
    assert m.rank <= 4
    # a parallel copy lies on no incomplete theta, so the oracle may
    # decide the simplification
    want = oracles.oracle_closed(simplify(m))[0]
    monkeypatch.setattr(theta, "_theta_scan", _refuse("the circuit-pair scan"))
    monkeypatch.setattr(theta, "certificate", _refuse("the certificate"))
    closed, wit = is_theta3_closed(m)
    assert closed == want and (wit is None) == want


def test_no_shortcut_still_scans_at_rank_4(capsys):
    with mock.patch.object(theta, "_theta_scan", wraps=theta._theta_scan) as scan:
        code = cli.main(["check", "MK(5)", "--no-shortcut"])
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"] is True
    assert scan.call_count == 1


def test_rank_4_closure_ends_without_the_certificate(monkeypatch):
    # M(K_2,3) closes in one round, found by the pair route; the round
    # after it finds nothing, and at rank 4 that is the fixed point
    monkeypatch.setattr(theta, "_theta_scan", _refuse("the circuit-pair scan"))
    monkeypatch.setattr(theta, "certificate", _refuse("the certificate"))
    m = dict(SMALL_CORPUS)["K23"]
    final, trace = theta3_closure(m)
    assert final.colset == oracles.oracle_closure(m)[0].colset
    assert len(trace.rounds) == 1


def _decisions_and_nodes(m):
    budget = Budget()
    with mock.patch.object(theta, "_theta_pair", wraps=theta._theta_pair) as decide:
        closed, _ = is_theta3_closed(m, use_shortcut=False, budget=budget)
    assert closed
    return decide.call_count, budget.nodes


def test_closed_scan_rank_tests_only_thetas_that_could_be_incomplete():
    # Every theta of PG(4, 2) is complete, so the scan looks up each
    # completing vector among the columns and never decides a pair in
    # the contraction by C1.  M(K7) needed 19355 rank tests when every
    # circuit pair was rank-tested first, and 5075 with the column
    # lookup first; pairing each circuit only with the partners that
    # could close an incomplete theta with it leaves none.  The node
    # counts, one per candidate pair past the size test, were 1057 and
    # 22703 while every pair within a bucket was a node, and 3327 and
    # 30009 with every circuit paired.  The circuit walk's look-ahead,
    # which expands only sets that can still close a circuit within
    # the size cap, took them from 952 and 10332 to 732 and 6563, and
    # dropping the circuits of r(M) - 1 or r(M) elements whose flat
    # closes no incomplete theta to 312 and 2783.
    assert _decisions_and_nodes(projective_geometry(4)) == (0, 312)
    assert _decisions_and_nodes(catalog_matroid("MK(7)")) == (0, 2783)


@pytest.mark.parametrize("past_walk", [4095, 4096, 4097, 5000, 6562])
def test_batched_scan_budget_is_exact(past_walk):
    # The scan counts its pairs locally and charges them in batches; a
    # node cap must still raise on the first pair past it, as a tick per
    # pair would.  The caps lie past M(K8)'s prepass and circuit walk
    # (30875 nodes): around the first CHECK_EVERY batch of the scan's
    # pairs, inside the second, and then the last node of the 38875
    # that the whole check takes.
    m = catalog_matroid("MK(8)")
    cap = 30875 + past_walk
    with pytest.raises(BudgetExceededError) as exc:
        is_theta3_closed(m, use_shortcut=False, budget=Budget(max_nodes=cap))
    assert exc.value.nodes == cap + 1
    assert is_theta3_closed(m, use_shortcut=False, budget=Budget(max_nodes=38875))[0]
    with pytest.raises(BudgetExceededError) as exc:
        is_theta3_closed(m, use_shortcut=False, budget=Budget(max_nodes=38874))
    assert exc.value.nodes == 38875


def test_budget_stops_the_circuit_walk_within_one_set():
    # the walk charges each expanded set in one batch, and passes it on
    # before it could cross the cap; M(K7) has 15 non-basis elements
    budget = Budget(max_nodes=1)
    with pytest.raises(BudgetExceededError) as exc:
        _circuit_masks(catalog_matroid("MK(7)"), budget)
    assert exc.value.nodes == 15


def test_budget_stops_the_scan():
    with pytest.raises(BudgetExceededError):
        theta_graphs(catalog_matroid("MSTAR_K5"), Budget(max_nodes=5))


@pytest.mark.parametrize(
    "m, nodes",
    [
        # 11 of 15 span vectors missing: the pass over column pairs, in
        # which every pair sum has one pair
        (BinaryMatroid(tuple("abcd"), (1, 2, 4, 8), 4), 0),
        # PG(3) minus a point: the pass over the one missing vector's
        # pairs, three that span only rank 3
        (BinaryMatroid(tuple("abcdef"), (1, 2, 3, 4, 5, 6), 3), 1),
    ],
)
def test_pair_route_reads_the_clock_while_it_builds_its_pair_lists(m, nodes):
    # Neither matroid gives the pair route a theta, and only the second
    # ticks, for its one target; a time budget already spent must still
    # stop the pair route while it builds its lists, by the clock alone.
    budget = Budget()
    assert list(theta._pair_route_hits(m, budget)) == []
    assert budget.nodes == nodes
    budget = Budget(max_seconds=1)
    budget._started -= 2
    with pytest.raises(BudgetExceededError, match="time budget exhausted"):
        list(theta._pair_route_hits(m, budget))


def _random_point_set(rng):
    """A random matroid of rank 1 to 7, with now and then a loop and a few
    parallel copies, its elements shuffled and labelled at random, so
    that label order is not element order."""
    rank = rng.randint(1, 7)
    dim = rank + rng.randint(0, 1)
    basis = []
    while len(basis) < rank:
        v = rng.randrange(1, 1 << dim)
        if rank_bits(basis + [v]) > len(basis):
            basis.append(v)
    cols = list(basis)
    for _ in range(rng.randint(0, rank + 6)):
        v = 0
        while not v:
            for b in basis:
                if rng.random() < 0.5:
                    v ^= b
        cols.append(v)
    cols += [rng.choice(cols) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        cols.append(0)
    rng.shuffle(cols)
    labels = [f"e{k}" for k in rng.sample(range(100), len(cols))]
    return BinaryMatroid(tuple(labels), tuple(cols), dim)


def test_incomplete_scan_window_drops_only_pairs_that_cannot_yield():
    # The incomplete scan pairs only circuits of 4 to r(M) elements: an
    # incomplete theta has no singleton arc and at most r(M) + 2
    # elements, and each of its circuits is the theta minus one arc.  It
    # must yield what the full scan yields with the complete thetas left
    # out, in the same order, and nothing at rank 3 or less.
    rng = random.Random(22)
    yielded = low_rank = 0
    for _ in range(300):
        m = _random_point_set(rng)
        want = [rec for rec in theta._theta_scan(m) if rec[3] not in m.colset]
        got = list(theta._theta_scan(m, skip=m.colset))
        assert got == want, (m.labels, m.cols, m.dim)
        if m.rank <= 3:
            assert got == []
            low_rank += 1
        yielded += len(got)
    assert yielded > 1000 and low_rank > 50


@pytest.mark.parametrize(
    "lengths, arcs, completing",
    [
        ((2, 2, 3), ({"A1", "A2"}, {"B1", "B2"}, {"C1", "C2", "C3"}), 48),
        ((2, 3, 4), ({"A1", "A2"}, {"B1", "B2", "B3"}, {"C1", "C2", "C3", "C4"}), 192),
    ],
)
def test_scan_keeps_a_circuit_whose_theta_closes_through_a_3_element_arc(
    lengths, arcs, completing
):
    # In both graphs a circuit of r(M) - 1 elements, the theta less its
    # 3-element arc, lies in the one incomplete theta: the scan drops a
    # circuit of r(M) - 1 or r(M) elements only when no 2- or 3-element
    # circuit of M/C outside cl(C) sums to a missing vector.  The pair
    # route is blind to these thetas, so the scan must find them.
    m = cycle_matroid(theta_edges(*lengths))
    closed, witness = is_theta3_closed(m, use_shortcut=False)
    assert not closed
    assert witness == theta.ThetaGraph(tuple(map(frozenset, arcs)), completing, m.dim)
    oracles.oracle_validate_theta(m, witness.arcs)
    assert completing not in m.colset


# -- closure ------------------------------------------------------------------


CLOSURE_CASES = [
    "C4",
    "MK4",
    "PG3",
    "U13",
    "P_C3_C3",
    "THETA222",
    "K23",
    "MSTAR_K33",
    "RAND_PG3_6",
]


def test_closure_matches_oracle_fixed_point_and_rounds():
    by_name = dict(SMALL_CORPUS)
    for name in CLOSURE_CASES:
        m = by_name[name]
        final, trace = theta3_closure(m)
        ofinal, orounds = oracles.oracle_closure(m)
        assert final.colset == ofinal.colset, name
        # the rank each round carries over, against one computed afresh
        assert final.rank == ofinal.rank, name
        got_rounds = [sorted(r.added_vectors) for r in trace.rounds]
        assert got_rounds == orounds, name


def test_closure_arc_search_stays_within_a_node_budget():
    # 14 points of PG(6, 2).  The closure's 21-element round is
    # 3-connected: the pair route finds nothing there and the certificate
    # fails with all of M as its piece, so that round scans all of M.  It
    # is the only round that reaches the scan (the whole closure takes
    # 24149 nodes).
    cols = [81, 7, 58, 37, 56, 10, 104, 47, 21, 68, 85, 74, 95, 46]
    m = BinaryMatroid(tuple(f"q{i}" for i in range(len(cols))), tuple(cols), 7)
    with mock.patch.object(theta, "_theta_scan", wraps=theta._theta_scan) as scan:
        final, trace = theta3_closure(m, budget=Budget(max_nodes=50_000))
    assert [c.args[0].size for c in scan.call_args_list] == [21]
    assert final.size == 65 and trace.rounds
    assert is_theta3_closed(final)[0]


def test_closure_to_pg7_stays_within_the_closure_growth_cap():
    # 14 points of PG(6, 2).  The pair route answers four of the five
    # rounds.  The fourth round's matroid has 22 elements and is
    # 3-connected, so that round scans all of it, and adds 98 vectors.
    # Pairing only the circuits an
    # incomplete theta can use (4 to r elements) brought the closure from
    # 52825 nodes to 42680, under the 50k cap of the closure benchmark,
    # meeting only candidate pairs brought it to 17577, and the circuit
    # walk's look-ahead brings it to 12349.
    cols = [123, 44, 97, 51, 72, 86, 12, 33, 25, 26, 49, 94, 15, 43]
    m = BinaryMatroid(tuple(f"q{i}" for i in range(len(cols))), tuple(cols), 7)
    final, trace = theta3_closure(m, budget=Budget(max_nodes=50_000))
    assert final.size == 127 and final.colset == set(range(1, 128))
    assert len(trace.rounds) == 5
    for r, M in _round_matroids(trace):
        for w, wit in zip(r.added_vectors, r.witnesses):
            assert wit.completing == w and w not in M.colset
            oracles.oracle_validate_theta(M, wit.arcs)
            assert not oracles.oracle_is_complete(M, wit.arcs)[0]


@pytest.mark.parametrize(
    "cols",
    [
        [3, 15, 11, 62, 36, 54, 16, 56, 29, 22, 28],
        [41, 58, 61, 22, 48, 16, 35, 62, 40, 38, 46, 44, 5],
    ],
    ids=["PG6pick11", "PG6pick13"],
)
def test_closure_certifies_its_fixed_point_within_a_node_budget(cols):
    # Point sets of PG(5, 2) whose closure has 21 elements, where the
    # last round proves the fixed point.  The circuit-pair scan of that
    # round takes about 24k nodes on both; the whole closure, with the
    # recipe certificate, takes under 150.
    m = BinaryMatroid(tuple(f"q{i}" for i in range(len(cols))), tuple(cols), 6)
    final, trace = theta3_closure(m, budget=Budget(max_nodes=50_000))
    assert final.size == 21 and trace.rounds
    assert is_theta3_closed(final, use_shortcut=False)[0]


def test_small_closure_rounds_take_the_pair_route_first():
    # 18 points of PG(4, 2), rank 5, where the circuit-pair scan took
    # 13107 nodes.  The pair route finds every missing point in one
    # round, and the fixed point PG(4, 2) is projective.
    cols = [10, 1, 14, 13, 12, 24, 18, 28, 21, 22, 6, 8, 5, 11, 19, 31, 27, 23]
    m = BinaryMatroid(tuple(f"q{i}" for i in range(len(cols))), tuple(cols), 5)
    final, trace = theta3_closure(m, budget=Budget(max_nodes=1_000))
    assert final.size == 31 and trace.rounds
    assert final.colset == set(range(1, 32))


def test_small_closure_fixed_point_comes_from_the_certificate(monkeypatch):
    # M(K_2,4) plus its one missing vector is in the class, so no round
    # of its closure needs the circuit-pair scan.  At rank 5 the pair
    # route is not exact, so the certificate proves the fixed point.
    monkeypatch.setattr(theta, "_theta_scan", _refuse("the circuit-pair scan"))
    m = dict(SMALL_CORPUS)["M_K24"]
    assert m.rank == 5
    final, trace = theta3_closure(m)
    ofinal, _ = oracles.oracle_closure(m)
    assert final.colset == ofinal.colset
    assert len(trace.rounds) == 1


def test_check_searches_only_the_piece_outside_the_class():
    # A wheel with 8 spokes glued to M(K7) at one element: 36 elements,
    # rank 13.  No two vertices are joined by three paths of two edges,
    # so the prepass finds nothing.  The certificate cuts off the M(K7)
    # block and hands back the wheel; scanning all of M took 1.62M nodes.
    rim = [(f"v{i}", f"v{i % 8 + 1}", f"r{i}") for i in range(1, 9)]
    spokes = [("hub", f"v{i}", f"s{i}") for i in range(1, 9)]
    m = parallel_connection(
        cycle_matroid(rim + spokes), complete_graph_matroid(7), "s1", "1-2"
    )
    assert (m.size, m.rank) == (36, 13)
    closed, wit = is_theta3_closed(m, budget=Budget(max_nodes=50_000))
    assert not closed
    oracles.oracle_validate_theta(m, wit.arcs)
    assert not oracles.oracle_is_complete(m, wit.arcs)[0]


def test_prepass_refutes_forty_points_of_rank_13_in_one_node():
    # The prepass is gated by distinct columns, not rank: 40 random
    # points of PG(13) are refuted by their first pair-route target,
    # where the circuit-pair scan spent millions of nodes.
    pts = random.Random(1).sample(range(1, 1 << 13), 40)
    m = BinaryMatroid(tuple(f"q{i}" for i in range(40)), tuple(pts), 13)
    assert m.rank == 13
    closed, wit = is_theta3_closed(m, budget=Budget(max_nodes=1))
    assert not closed
    oracles.oracle_validate_theta(m, wit.arcs)
    assert not oracles.oracle_is_complete(m, wit.arcs)[0]


def test_prepass_goes_by_target_above_the_column_cap():
    # The column cap bounds only the table of pairs.  PG(13) minus one
    # point has 8190 columns and misses one vector, so the route goes
    # target by target: that target's third name is the sum pair, so it
    # refutes in two nodes, and the closure adds the point back.
    m = delete(projective_geometry(13), ["p1"])
    assert len(m.colset) > theta._PREPASS_MAX_COLUMNS
    closed, wit = is_theta3_closed(m, budget=Budget(max_nodes=2))
    assert not closed and wit.completing == 1
    assert all(len(arc) == 2 for arc in wit.arcs)
    with pytest.raises(BudgetExceededError):
        is_theta3_closed(m, budget=Budget(max_nodes=1))
    final, trace = theta3_closure(m)
    assert final.size == (1 << 13) - 1 and len(trace.rounds) == 1


class _ClockReads(Budget):
    """A Budget that counts its clock reads, tick()'s included."""

    __slots__ = ("reads",)

    def __init__(self):
        super().__init__()
        self.reads = 0

    def check_time(self):
        self.reads += 1
        super().check_time()


def test_pass_by_target_reads_no_target_after_its_first_hit():
    # PG(7) minus p1..p9 misses 9 vectors, fewer than a third of its 118
    # columns, so the route goes target by target.  The first target
    # refutes M in one node, and the pass reads the clock twice: once
    # for that target's names and once for its tick.  Reading every
    # target's names before testing the first took 10 reads.
    m = delete(projective_geometry(7), [f"p{i}" for i in range(1, 10)])
    assert theta._pair_route_way(m) == "target"
    budget = _ClockReads()
    closed, wit = is_theta3_closed(m, budget=budget)
    assert not closed and wit.completing not in m.colset
    oracles.oracle_validate_theta(m, wit.arcs)
    assert budget.nodes == 1 and budget.reads == 2


def test_certificate_goes_first_above_the_column_cap():
    # 8000 random points of PG(16) are past the column cap, and 57535
    # vectors are missing, so the route would fill its table of pairs.
    # The certificate goes first instead: 8000 candidates find no cut
    # point, and its piece, all of M, is refuted by the route target by
    # target in one tick.  Without the shortcuts the route goes target
    # by target at once.  Skipping the route, check, --no-shortcut and
    # classify_theta3's witness search ran into the exponential scan.
    pts = random.Random(7).sample(range(1, 1 << 16), 8000)
    m = BinaryMatroid(tuple(f"q{i}" for i in range(8000)), tuple(pts), 16)
    assert theta._pair_route_way(m) == "certificate"
    for use_shortcut, nodes in ((True, 8001), (False, 1)):
        closed, wit = is_theta3_closed(
            m, use_shortcut=use_shortcut, budget=Budget(max_nodes=nodes)
        )
        assert not closed and wit.completing not in m.colset
        oracles.oracle_validate_theta(m, wit.arcs)
    verdict = classify_theta3(m, budget=Budget(max_nodes=8001))
    assert not verdict.in_class and verdict.witness == wit


@pytest.mark.parametrize("seed", range(4))
def test_pair_route_branches_agree(monkeypatch, seed):
    # The target-by-target pass keeps four names per target, all that
    # the triple rule reads, so both passes give the same hits,
    # witnesses and ticks, on sets dense enough for either.
    rng = random.Random(seed)
    for _ in range(50):
        rank = rng.randint(3, 6)
        size = rng.randint((1 << rank) // 2, (1 << rank) - 1)
        pts = rng.sample(range(1, 1 << rank), size)
        m = BinaryMatroid(tuple(f"q{i}" for i in range(size)), tuple(pts), rank)
        runs = []
        for way in ("fill", "target"):
            monkeypatch.setattr(theta, "_pair_route_way", lambda M: way)
            budget = Budget()
            runs.append((list(theta._pair_route_hits(m, budget)), budget.nodes))
        assert runs[0] == runs[1], pts


def test_check_reports_the_recipe_of_mk6(capsys):
    # M(K6) has 15 elements and rank 5: the pair route finds nothing,
    # and the certificate proves it by its recipe, where the scan took
    # 1224 nodes and reported no recipe.
    budget = Budget()
    closed, recipe = is_theta3_closed(catalog_matroid("MK(6)"), budget=budget)
    assert closed and budget.nodes == 15
    assert same_matroid(recipe.evaluate(), catalog_matroid("MK(6)"))
    assert cli.main(["check", "MK(6)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True and report["recipe"]["term"] == "MK(6)"


def _glued_blocks(rng):
    """Two or three blocks among C(3..6), M(K4) and PG(3), each glued at
    a random point of what came before: rank 5 or more, at most 18
    elements."""
    blocks = [partial(circuit_matroid, n) for n in range(3, 7)]
    blocks += [partial(complete_graph_matroid, 4), partial(projective_geometry, 3)]
    while True:
        out = None
        for i in range(rng.randint(2, 3)):
            block = rng.choice(blocks)()
            block = block.relabel({lab: f"b{i}{lab}" for lab in block.labels})
            if out is None:
                out = block
            else:
                p, q = rng.choice(out.labels), rng.choice(block.labels)
                out = parallel_connection(out, block, p, q)
        if out.rank >= 5 and out.size <= 18:
            return out


@pytest.mark.parametrize("seed", range(3))
def test_check_proves_small_members_above_rank_4_by_their_recipe(seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = _glued_blocks(rng)
        closed, recipe = is_theta3_closed(m)
        assert closed and isinstance(recipe, BuildRecipe), m.labels
        assert same_matroid(recipe.evaluate(), m), m.labels


def _agrees_with_one_round(m):
    """check (is_theta3_closed) and one closure round run the same
    stages: check refutes m exactly when the round finds vectors, and
    its witness is the round's witness for its vector."""
    closed, wit = is_theta3_closed(m)
    found = theta._incomplete_vectors(m, None)
    assert closed == (not found)
    if not closed:
        assert (wit.completing, wit) in found
        oracles.oracle_validate_theta(m, wit.arcs)
        assert not oracles.oracle_is_complete(m, wit.arcs)[0]


def test_check_agrees_with_one_closure_round_on_the_corpus():
    for name, m in SMALL_CORPUS:
        _agrees_with_one_round(m)


@pytest.mark.parametrize("rank", [5, 6])
def test_check_agrees_with_one_closure_round_on_point_sets(rank):
    # 6 to 18 random points of PG(5) and of PG(6), ranks 5 and 6
    rng = random.Random(rank)
    for _ in range(100):
        pts = rng.sample(range(1, 1 << rank), rng.randint(6, 18))
        labels = tuple(f"q{i}" for i in range(len(pts)))
        _agrees_with_one_round(BinaryMatroid(labels, tuple(pts), rank))


def test_recipe_proves_pg15_with_a_point_glued_circuit_without_the_prepass(
    monkeypatch,
):
    # 32769 distinct columns are past the pair route's cap, whose table
    # of pairs would hold 537M; the certificate proves the input in 1
    # node, for check and for the closure, which ends after 0 rounds.
    def no_prepass(*args, **kwargs):
        raise AssertionError("the pair-route prepass ran")

    monkeypatch.setattr(theta, "_pair_route_hits", no_prepass)
    m = evaluate_term(parse_recipe("P(PG(15), C(3); base=p1,e1)"))
    assert len(m.colset) == 32769
    budget = Budget()
    closed, recipe = is_theta3_closed(m, budget=budget)
    assert closed and isinstance(recipe, BuildRecipe)
    assert budget.nodes == 1
    final, trace = theta3_closure(m, budget=Budget(max_nodes=1))
    assert final is m and trace.rounds == ()


def test_closure_round_scans_only_the_piece_outside_the_class():
    # THETA(2,2,3) glued to M(K4) at one element: 12 elements, rank 7.
    # The pair route finds nothing and the certificate cuts off the M(K4)
    # block, so the round scans the 7-element theta, not all of M.
    m = parallel_connection(
        cycle_matroid(theta_edges(2, 2, 3)), complete_graph_matroid(4), "C1", "1-2"
    )
    assert (m.size, m.rank) == (12, 7)
    with mock.patch.object(theta, "_theta_scan", wraps=theta._theta_scan) as scan:
        final, trace = theta3_closure(m)
    assert [c.args[0].size for c in scan.call_args_list] == [7]
    ofinal, orounds = oracles.oracle_closure(m)
    assert final.colset == ofinal.colset
    assert [sorted(r.added_vectors) for r in trace.rounds] == orounds


def test_closure_scan_decides_no_pair_for_a_vector_it_holds():
    # The rank-9 spike (tip e0, legs {e_i, e_i + e0} for i = 1..8, and
    # the sum of e_1..e_8) closes to PG(9) in three rounds, and only its
    # first reaches the scan.  The round keeps one witness per missing
    # vector, so the scan skips every vector it has yielded: 56 pair
    # decisions for the 56 vectors it adds, where deciding every
    # incomplete theta took 1792.  The nodes, charged before the lookup,
    # and the trace, the first theta per vector, stay as they were.
    r = 9
    cols = [1] + [c for i in range(1, r) for c in (1 << i, 1 << i | 1)]
    labels = ["e0"] + [f"{x}{i}" for i in range(1, r) for x in "ab"]
    m = BinaryMatroid(tuple(labels + ["z"]), tuple(cols + [(1 << r) - 2]), r)
    budget = Budget()
    with mock.patch.object(theta, "_theta_pair", wraps=theta._theta_pair) as decide:
        final, trace = theta3_closure(m, budget=budget)
    assert decide.call_count == 56
    assert budget.nodes == 2808
    assert final.size == 511
    assert [len(rnd.added_vectors) for rnd in trace.rounds] == [56, 252, 185]
    first = trace.rounds[0].witnesses[0]
    assert sorted(map(sorted, first.arcs)) == [
        ["a1", "a2"], ["a3", "a4", "a5", "a6", "a7", "a8", "z"], ["b1", "b2"]
    ]
    form = [
        [list(rnd.added_vectors), [sorted(map(sorted, w.arcs)) for w in rnd.witnesses]]
        for rnd in trace.rounds
    ]
    digest = hashlib.sha256(json.dumps(form).encode()).hexdigest()[:16]
    assert digest == "fcfd858d24c207ca"


def test_closure_of_a_glued_wheel_stays_within_a_node_budget():
    # The 6-spoke wheel glued to M(K5) at one element: 21 elements, rank
    # 9.  Scanning only the wheel closes it in a few hundred nodes;
    # scanning all of M took more than 130k.
    rim = [(f"v{i}", f"v{i % 6 + 1}", f"r{i}") for i in range(1, 7)]
    spokes = [("hub", f"v{i}", f"s{i}") for i in range(1, 7)]
    m = parallel_connection(
        cycle_matroid(rim + spokes), complete_graph_matroid(5), "s1", "1-2"
    )
    final, trace = theta3_closure(m, budget=Budget(max_nodes=5_000))
    assert trace.rounds
    for r in trace.rounds:
        for t in r.witnesses:
            oracles.oracle_validate_theta(m, t.arcs)
            assert not oracles.oracle_is_complete(m, t.arcs)[0]
    assert is_theta3_closed(final)[0]


def test_closure_trace_bookkeeping():
    m = dict(SMALL_CORPUS)["K23"]
    final, trace = theta3_closure(m)
    assert trace.initial.colset == simplify(m).colset
    assert trace.final is final
    added = sum(len(r.added_vectors) for r in trace.rounds)
    assert final.size == trace.initial.size + added
    for r in trace.rounds:
        assert len(r.added_vectors) == len(r.witnesses)
        for v, t in zip(r.added_vectors, r.witnesses):
            assert v == t.completing
            assert v in final.colset


def test_closure_is_idempotent():
    by_name = dict(SMALL_CORPUS)
    for name in ("K23", "THETA222", "MSTAR_K33"):
        final, _ = theta3_closure(by_name[name])
        again, trace = theta3_closure(final)
        assert again.colset == final.colset
        assert trace.rounds == ()


def test_closure_strategies_share_the_fixed_point():
    by_name = dict(SMALL_CORPUS)
    for name in ("K23", "THETA222", "RAND_PG3_6"):
        batch, _ = theta3_closure(by_name[name], strategy="batch")
        single, trace = theta3_closure(by_name[name], strategy="one_at_a_time")
        assert batch.colset == single.colset, name
        assert all(len(r.added_vectors) == 1 for r in trace.rounds)


def test_closure_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        theta3_closure(circuit_matroid(3), strategy="eager")


def test_closure_simplifies_nonsimple_input():
    m = circuit_matroid(4).extend("z", 0).extend("p", 1)
    final, trace = theta3_closure(m)
    assert "z" not in final.label_set
    assert trace.initial.is_simple
    closed, _ = is_theta3_closed(final)
    assert closed


def test_closure_label_collisions_get_ticks():
    # pre-claim the label the added vector would want; a prime is appended
    from theta3.gf2 import bits_to_str

    m = cycle_matroid(complete_bipartite_edges(2, 3))
    w = theta_graphs(m)[0].completing
    taken = f"v{bits_to_str(w, m.dim)}"
    clashed = m.relabel({m.labels[0]: taken})
    final, _ = theta3_closure(clashed)
    assert taken + "'" in final.label_set
    assert final.col_of(taken + "'") == w


# -- the graph front end -------------------------------------------------------


def test_graph_closed_for_cycles_and_completes():
    assert graph_is_theta3_closed(cycle_edges(5))
    assert graph_is_theta3_closed(complete_graph_edges(4))
    assert graph_is_theta3_closed(theta_edges(1, 1, 1))


def test_graph_not_closed_for_k23_and_bare_thetas():
    assert not graph_is_theta3_closed(complete_bipartite_edges(2, 3))
    assert not graph_is_theta3_closed(theta_edges(2, 2, 2))


def test_graph_flows_agree_with_the_scan_on_every_simple_graph_on_six_vertices():
    # All 2^15 labelled simple graphs on six vertices; 23501 are closed.
    # About 6 s on a 2-core host, nearly all of it in the scan.  Each
    # graph that is not closed is closed once it gains an edge per
    # refuted pair, the lemma in _graph_closure's docstring.
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    closed = 0
    for mask in range(1 << len(pairs)):
        edges = [
            (f"v{a}", f"v{b}", f"e{a}{b}")
            for k, (a, b) in enumerate(pairs)
            if mask >> k & 1
        ]
        by_flows = graph_is_theta3_closed(edges)
        by_scan, _ = is_theta3_closed(cycle_matroid(edges), use_shortcut=False)
        assert by_flows == by_scan, edges
        closed += by_flows
        if not by_flows:
            # _Graph numbers the vertices in the order they first appear
            names = list(dict.fromkeys(v for u, w, _ in edges for v in (u, w)))
            added = [
                (names[x], names[y], f"a{x}{y}")
                for x, y, _ in theta._refuted_pairs(theta._Graph(edges), None)
            ]
            assert added and graph_is_theta3_closed(edges + added), edges
    assert closed == 23501


def test_graph_flows_tick_once_per_path_search():
    # K_{2,3}: one pair of hubs (vertices with three distinct neighbours),
    # three searches, all of which succeed
    graph = theta._Graph(complete_bipartite_edges(2, 3))
    with pytest.raises(BudgetExceededError):
        theta._graph_theta(graph, Budget(max_nodes=2))
    assert theta._graph_theta(graph, Budget(max_nodes=3)) is not None
    # only non-adjacent hub pairs cost searches: C4 plus the chord 1-3 has
    # the hubs 1 and 3 alone, and they are adjacent
    edges = cycle_edges(4) + [("v1", "v3", "chord")]
    budget = Budget()
    assert theta._graph_theta(theta._Graph(edges), budget) is None
    assert budget.nodes == 0


def random_multigraph(rng, max_vertices):
    """An edge list in random order: a random simple graph, mostly on 4 or
    more vertices, plus up to four loops or parallel edges.  Labels are drawn at random, so simplify's
    smallest label is not always the first; now and then one reads like
    a label the closure gives an added vector (v plus n bits)."""
    n = rng.randint(1 if rng.random() < 0.2 else 4, max_vertices)
    p = rng.uniform(0.3, 0.9)
    ends = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    ends += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))]
    rng.shuffle(ends)
    labels = [f"e{k}" for k in rng.sample(range(100), len(ends))]
    for k in range(len(labels)):
        if rng.random() < 0.05:
            labels[k] = "v" + "".join(rng.choice("01") for _ in range(n))
    labels = list(dict.fromkeys(labels))
    return [(f"x{a}", f"x{b}", lab) for (a, b), lab in zip(ends, labels)]


def _labelled(M):
    return dict(zip(M.labels, M.cols))


def _round_matroids(trace):
    """The matroid each round of a trace searched, from its final."""
    final, k = trace.final, trace.initial.size
    for r in trace.rounds:
        yield r, BinaryMatroid(final.labels[:k], final.cols[:k], final.dim)
        k += len(r.added_vectors)


def test_graph_closure_matches_the_matroid_route():
    # The flows' final is theta3_closure's, label for label, for either
    # strategy, and every witness is an incomplete theta of its round.
    # The flows run once, on the simple input graph, so one vector at a
    # time every witness is three paths of that graph, in later rounds
    # too.
    rng = random.Random(8)
    later_rounds = 0
    for _ in range(300):
        edges = random_multigraph(rng, 7)
        want, _ = theta3_closure(cycle_matroid(edges))
        for strategy in ("batch", "one_at_a_time"):
            final, trace = graph_theta3_closure(edges, strategy=strategy)
            assert _labelled(final) == _labelled(want), (strategy, edges)
            assert trace.initial == simplify(cycle_matroid(edges))
            for r, M in _round_matroids(trace):
                assert list(r.added_vectors) == sorted(r.added_vectors)
                for w, wit in zip(r.added_vectors, r.witnesses):
                    assert wit.completing == w and w not in M.colset
                    oracles.oracle_validate_theta(M, wit.arcs)
                    assert not oracles.oracle_is_complete(M, wit.arcs)[0]
                    assert wit.elements <= set(trace.initial.labels)
                later_rounds += M.size > trace.initial.size
    assert later_rounds > 50


def test_graph_closure_rounds_are_the_oracle_batch_rounds():
    # The flows find every vector a round can add, so their rounds are
    # the definitional batch rounds.  The oracle lists every subset, so
    # the graphs have at most 12 edges.
    rng = random.Random(9)
    tested = nonempty = 0
    while tested < 100:
        edges = random_multigraph(rng, 6)
        if len(edges) > 12:
            continue
        _, trace = graph_theta3_closure(edges)
        _, want = oracles.oracle_closure(cycle_matroid(edges))
        assert [list(r.added_vectors) for r in trace.rounds] == want, edges
        tested += 1
        nonempty += bool(want)
    assert nonempty >= 10


def _wheel(hub, rim, tag=""):
    n = len(rim)
    edges = [(hub, rim[i], f"{tag}s{i}") for i in range(n)]
    return edges + [(rim[i], rim[(i + 1) % n], f"{tag}t{i}") for i in range(n)]


def test_graph_closure_of_a_wheel_takes_one_round_of_flows():
    # W16 has 17 vertices, so its columns are over a spanning forest.  Its
    # 104 non-adjacent pairs of rim vertices are all refuted, at three
    # searches each, and no flow runs after that: the final is M(K17).
    # The matroid route takes 69377 nodes.
    edges = _wheel("h", [f"r{i}" for i in range(16)])
    budget = Budget()
    final, trace = graph_theta3_closure(edges, budget=budget)
    assert budget.nodes == 312
    assert final.size == 136 and len(trace.rounds) == 1
    want, _ = theta3_closure(cycle_matroid(edges))
    assert _labelled(final) == _labelled(want)
    with pytest.raises(BudgetExceededError):
        graph_theta3_closure(edges, budget=Budget(max_nodes=311))
    # one vector at a time takes 104 rounds from the same flows, which
    # run once
    budget = Budget()
    final, trace = graph_theta3_closure(edges, strategy="one_at_a_time", budget=budget)
    assert budget.nodes == 312
    assert final.size == 136 and len(trace.rounds) == 104
    # two copies of W6 sharing a rim edge close to two K7 sharing that
    # edge, 41 elements; no round of flows confirms the fixed point, which
    # would cost 75 nodes more
    edges = _wheel("h", [f"r{i}" for i in range(6)], "a")
    edges += [
        e for e in _wheel("g", ["r0", "r1"] + [f"q{i}" for i in range(2, 6)], "b")
        if e[2] != "bt0"  # the shared edge r0-r1, kept once as at0
    ]
    budget = Budget()
    final, trace = graph_theta3_closure(edges, budget=budget)
    assert budget.nodes == 129
    assert final.size == 41 and len(trace.rounds) == 1
    want, _ = theta3_closure(cycle_matroid(edges))
    assert _labelled(final) == _labelled(want)


def test_graph_closure_rejects_unknown_strategy_before_any_flow():
    # W16's flows would tick 312 nodes; theta3_closure checks the
    # strategy before its scan, and the graph closure before its flows.
    edges = _wheel("h", [f"r{i}" for i in range(16)])
    budget = Budget()
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        graph_theta3_closure(edges, strategy="bogus", budget=budget)
    assert budget.nodes == 0


def test_graph_closure_reads_each_edge_list_once(monkeypatch):
    # The closure reads the input and its simple graph, one pass each; the
    # cycle matroid of a graph of more than 16 vertices is built from the
    # edges the first pass checked, without a pass of its own.
    edges = _wheel("h", [f"r{i}" for i in range(16)])
    passes = []
    init = theta._Graph.__init__

    def counted(self, edges):
        passes.append(len(edges))
        init(self, edges)

    monkeypatch.setattr(theta._Graph, "__init__", counted)
    final, _ = graph_theta3_closure(edges)
    assert passes == [32, 32]
    assert final.size == 136
    monkeypatch.undo()
    assert theta._Graph(edges).matroid == cycle_matroid(edges)


# -- the package surface -------------------------------------------------------


def test_every_exported_name_exists():
    # A function deleted from a module but left in its __all__ would only
    # fail at a star import; nothing else reads __all__.
    modules = [theta3] + [
        importlib.import_module(f"theta3.{info.name}")
        for info in pkgutil.iter_modules(theta3.__path__)
    ]
    assert len(modules) > 5
    for mod in modules:
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)
