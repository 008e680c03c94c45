"""Theta detection, completeness, and the closure fixed point."""

from __future__ import annotations

import pytest

from theta3.budget import Budget, BudgetExceededError
from theta3.construct import (
    catalog_matroid,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_edges,
    complete_graph_matroid,
    cycle_edges,
    cycle_matroid,
    projective_geometry,
    theta_edges,
)
from theta3.matroid import BinaryMatroid, simplify
from theta3.theta import (
    find_theta_completed_by,
    graph_is_theta3_closed,
    is_complete,
    is_theta3_closed,
    theta3_closure,
    theta_graphs,
)

import oracles
from corpus import SMALL_CORPUS


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


def test_singleton_arc_completes_its_own_theta():
    m = cycle_matroid(theta_edges(1, 2, 2))
    ts = theta_graphs(m)
    assert len(ts) == 1
    ok, lab = is_complete(m, ts[0])
    assert ok and lab == "A1"


# -- targeted search ---------------------------------------------------------


def test_find_theta_completed_by_rejects_corank_three_pairs():
    # In M(K_4) the three circuit pairs whose union sums to 0b111 all
    # have corank 3; none of them is a theta, so nothing is found.
    m = complete_graph_matroid(4)
    assert find_theta_completed_by(m, 0b111) is None


def test_find_theta_completed_by_locates_the_k23_witness():
    m = cycle_matroid(complete_bipartite_edges(2, 3))
    ts = theta_graphs(m)
    w = ts[0].completing
    hit = find_theta_completed_by(m, w)
    assert hit is not None
    assert frozenset(hit.arcs) == frozenset(ts[0].arcs)
    # the only theta of M(K_2,3) completes to w, so other targets miss
    assert find_theta_completed_by(m, m.cols[0]) is None


def test_find_theta_completed_by_on_deleted_projective_point():
    # the 7-point case is no good here: deleting a point from it leaves
    # the complete-graph matroid on 4 vertices, which is closed
    pg = projective_geometry(4)
    m = BinaryMatroid(pg.labels[1:], pg.cols[1:], pg.dim)
    hit = find_theta_completed_by(m, pg.cols[0])
    assert hit is not None
    oracles.oracle_validate_theta(m, hit.arcs)
    assert not oracles.oracle_is_complete(m, hit.arcs)[0]


# -- the closed decision ------------------------------------------------------


def test_is_theta3_closed_agrees_with_oracle_on_corpus():
    for name, m in SMALL_CORPUS:
        got, wit = is_theta3_closed(m)
        want, _ = oracles.oracle_closed(m)
        assert got == want, name
        if not got:
            oracles.oracle_validate_theta(m, wit.arcs)
            assert not oracles.oracle_is_complete(m, wit.arcs)[0], name
        else:
            assert wit is None


def test_shortcut_and_direct_agree_on_projective_geometries():
    for r in (1, 2, 3, 4):
        pg = projective_geometry(r)
        assert is_theta3_closed(pg, use_shortcut=True)[0]
        assert is_theta3_closed(pg, use_shortcut=False)[0]


def test_budget_stops_the_scan():
    with pytest.raises(BudgetExceededError):
        theta_graphs(catalog_matroid("MSTAR_K5"), Budget(max_nodes=5))


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
        got_rounds = [sorted(r.added_vectors) for r in trace.rounds]
        assert got_rounds == orounds, name


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
