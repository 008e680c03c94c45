"""Canonical tree decomposition, recipes, and class membership."""

from __future__ import annotations

import pytest

from theta3.budget import Budget, BudgetExceededError
from theta3.construct import (
    catalog_matroid,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cycle_matroid,
    is_circuit,
    is_cocircuit,
    parallel_connection,
    projective_geometry,
)
from theta3.decompose import (
    BuildRecipe,
    DNode,
    Leaf,
    MatroidLabelledTree,
    PNode,
    Verdict,
    _check_tree,
    canonical_tree_decomposition,
    classify_theta3,
    evaluate_term,
    parse_recipe,
    recompose,
    serialize_term,
    trees_equivalent,
    two_separations,
)
from theta3.matroid import BinaryMatroid, circuits, direct_sum, is_3connected
from theta3.theta import ThetaGraph, is_theta3_closed

import oracles
from corpus import CONNECTED_CORPUS, SMALL_CORPUS


BY_NAME = dict(SMALL_CORPUS)


# -- the tree -----------------------------------------------------------------


def test_two_separations_listing_is_sorted_and_complete():
    m = BY_NAME["P_C3_C3"]
    seps = two_separations(m)
    assert {frozenset(p) for p in seps} == oracles.oracle_two_separations(m)
    assert seps == sorted(seps, key=lambda p: (len(p[0]), sorted(p[0]), sorted(p[1])))


def test_three_connected_matroids_stay_whole():
    for name in ("F7", "PG3", "MSTAR_K5", "MK4"):
        t = canonical_tree_decomposition(BY_NAME[name])
        assert len(t.vertices) == 1 and t.edges == ()
        assert t.kinds == ("ThreeConnected",)
        assert t.vertices[0].labels == BY_NAME[name].labels


def test_small_matroids_are_single_vertices():
    for name in ("C1", "C2", "COLOOP1", "U13"):
        t = canonical_tree_decomposition(BY_NAME[name])
        assert len(t.vertices) == 1 and t.edges == ()


def test_circuit_decomposes_to_itself():
    t = canonical_tree_decomposition(circuit_matroid(6))
    assert t.kinds == ("Circuit",)


def test_two_sum_of_circuits_merges_back_to_one_circuit():
    t = canonical_tree_decomposition(BY_NAME["2SUM_C4_C4"])
    assert t.kinds == ("Circuit",)
    assert len(t.vertices) == 1


def test_parallel_connection_of_triangles_tree_shape():
    t = canonical_tree_decomposition(BY_NAME["P_C3_C3"])
    assert sorted(t.kinds) == ["Circuit", "Circuit", "Cocircuit"]
    hub = t.kinds.index("Cocircuit")
    assert t.degree(hub) == 2
    assert t.vertices[hub].size == 3
    # the hub keeps the shared point; the circuits keep their own edges
    assert "e3" in t.vertices[hub].label_set


def test_k24_tree_is_a_star_of_triangles():
    t = canonical_tree_decomposition(BY_NAME["M_K24"])
    assert sorted(t.kinds) == ["Circuit"] * 4 + ["Cocircuit"]
    hub = t.kinds.index("Cocircuit")
    assert t.degree(hub) == 4
    assert t.vertices[hub].size == 4  # four markers, no real element
    marker_free = set(t.vertices[hub].labels) - t.marker_labels
    assert marker_free == set()


def test_tree_edges_share_exactly_the_marker():
    for name, m in CONNECTED_CORPUS:
        t = canonical_tree_decomposition(m)
        _check_tree(t)  # the library's own invariant check must pass
        for a, b, lab in t.edges:
            assert lab in t.vertices[a].label_set
            assert lab in t.vertices[b].label_set
        for lab in m.labels:
            holders = [v for v in t.vertices if lab in v.label_set]
            assert len(holders) == 1, (name, lab)


def test_tree_vertex_kinds_are_honest():
    for name, m in CONNECTED_CORPUS:
        t = canonical_tree_decomposition(m)
        for v, kind in zip(t.vertices, t.kinds):
            if kind == "Circuit":
                assert is_circuit(v), name
            elif kind == "Cocircuit":
                assert is_cocircuit(v), name
            else:
                assert is_3connected(v), name
        if len(t.vertices) > 1:
            assert all(v.size >= 3 for v in t.vertices), name


def test_no_same_kind_circuit_or_cocircuit_adjacency():
    for name, m in CONNECTED_CORPUS:
        t = canonical_tree_decomposition(m)
        for a, b, _ in t.edges:
            ka, kb = t.kinds[a], t.kinds[b]
            assert not (ka == kb == "Circuit"), name
            assert not (ka == kb == "Cocircuit"), name


def test_recompose_round_trips_circuits():
    for name, m in CONNECTED_CORPUS:
        t = canonical_tree_decomposition(m)
        back = recompose(t)
        assert set(back.labels) == set(m.labels), name
        assert circuits(back) == circuits(m), name


def test_search_orders_agree_up_to_marker_names():
    for name, m in CONNECTED_CORPUS:
        t1 = canonical_tree_decomposition(m)
        t2 = canonical_tree_decomposition(m, order="reverse")
        assert trees_equivalent(t1, t2), name


def test_trees_of_different_matroids_are_not_equivalent():
    t1 = canonical_tree_decomposition(BY_NAME["P_C3_C3"])
    t2 = canonical_tree_decomposition(BY_NAME["M_K24"])
    t3 = canonical_tree_decomposition(BY_NAME["2SUM_C4_C4"])
    assert not trees_equivalent(t1, t2)
    assert not trees_equivalent(t1, t3)


def test_decomposition_input_validation():
    with pytest.raises(ValueError):
        canonical_tree_decomposition(BinaryMatroid((), (), 0))
    with pytest.raises(ValueError):
        canonical_tree_decomposition(BY_NAME["C4_LOOP"])  # disconnected
    with pytest.raises(ValueError):
        canonical_tree_decomposition(circuit_matroid(4), order="sideways")


def test_check_tree_flags_broken_invariants():
    good = canonical_tree_decomposition(BY_NAME["P_C3_C3"])
    _check_tree(good)
    no_edges = MatroidLabelledTree(good.vertices, good.kinds, ())
    with pytest.raises(ValueError):
        _check_tree(no_edges)
    dangling = MatroidLabelledTree(
        good.vertices, good.kinds, (good.edges[0], good.edges[0])
    )
    with pytest.raises(ValueError):
        _check_tree(dangling)
    # n - 1 edges, every edge label shared by exactly its two endpoints,
    # but the edges close a triangle and vertex 3 is left isolated
    tri = [("x", "z", "a"), ("x", "y", "b"), ("y", "z", "c"), ("d", "e", "f")]
    verts = tuple(BinaryMatroid(labs, (1, 2, 3), 2) for labs in tri)
    cyclic = MatroidLabelledTree(
        verts, ("Circuit",) * 4, ((0, 1, "x"), (1, 2, "y"), (0, 2, "z"))
    )
    with pytest.raises(ValueError, match="not connected"):
        _check_tree(cyclic)


def test_budget_aborts_decomposition():
    with pytest.raises(BudgetExceededError):
        canonical_tree_decomposition(
            catalog_matroid("MSTAR_K5"), budget=Budget(max_nodes=3)
        )


# -- recipe terms ----------------------------------------------------------------


def test_serialize_parse_round_trip():
    t = PNode(
        Leaf("C", 4),
        PNode(Leaf("MK", 4), Leaf("PG", 3), "x", "x"),
        "e1",
        "e1",
    )
    text = serialize_term(t)
    again = parse_recipe(text)
    assert serialize_term(again) == text


def test_parse_recipe_grammar():
    t = parse_recipe("P(C(3), MK(4); base=e2, 1-2)")
    assert isinstance(t, PNode)
    assert t.base_left == "e2" and t.base_right == "1-2"
    d = parse_recipe("D(C(3), C(4), PG(2))")
    assert isinstance(d, DNode) and len(d.parts) == 3
    assert parse_recipe("MK(5)") == Leaf("MK", 5)


def test_parse_recipe_rejects_garbage():
    for bad in ("", "C(3", "Q(3)", "P(C(3))", "C(x)", "P(C(3), C(3) base=e1)"):
        with pytest.raises(ValueError):
            parse_recipe(bad)


def test_evaluate_term_leaves():
    assert evaluate_term(Leaf("C", 5)).labels == circuit_matroid(5).labels
    assert evaluate_term(Leaf("PG", 3)).cols == projective_geometry(3).cols
    relab = Leaf("C", 3, (("e1", "a"),))
    m = evaluate_term(relab)
    assert set(m.labels) == {"a", "e2", "e3"}


def test_evaluate_term_composes():
    inner = PNode(
        Leaf("C", 3), Leaf("C", 3, (("e1", "fe1"), ("e2", "fe2"))), "e3", "e3"
    )
    m = evaluate_term(inner)
    want = BY_NAME["P_C3_C3"]
    assert set(m.labels) == set(want.labels)
    assert circuits(m) == circuits(want)
    d = evaluate_term(DNode((Leaf("C", 3), Leaf("C", 3, (("e1", "g1"), ("e2", "g2"), ("e3", "g3"))))))
    assert d.size == 6


# -- classification ----------------------------------------------------------------


def test_classify_leaf_shapes():
    v = classify_theta3(projective_geometry(3))
    assert v.in_class and v.recipe.serialize() == "PG(3)"
    v = classify_theta3(complete_graph_matroid(5))
    assert v.in_class and v.recipe.serialize() == "MK(5)"
    v = classify_theta3(circuit_matroid(7))
    assert v.in_class and v.recipe.serialize() == "C(7)"


def test_classify_parallel_connection_of_triangles():
    v = classify_theta3(BY_NAME["P_C3_C3"])
    assert v.in_class
    assert v.recipe.serialize() == "P(C(3), C(3); base=e3)"
    rebuilt = v.recipe.evaluate()
    m = BY_NAME["P_C3_C3"]
    assert sorted(rebuilt.labels) == sorted(m.labels)
    assert set(circuits(rebuilt)) == set(circuits(m))


def test_classify_rejections_carry_theta_witnesses():
    for name in ("M_K24", "K23", "MSTAR_K33", "MSTAR_K5", "THETA222"):
        v = classify_theta3(BY_NAME[name])
        assert not v.in_class, name
        assert v.recipe is None
        assert isinstance(v.witness, ThetaGraph), name
        oracles.oracle_validate_theta(BY_NAME[name], v.witness.arcs)
        assert not oracles.oracle_is_complete(BY_NAME[name], v.witness.arcs)[0]


def test_classify_handles_loops_and_parallels():
    m = complete_graph_matroid(4).extend("dup", 1).extend("z", 0)
    v = classify_theta3(m)
    assert v.in_class
    assert v.recipe.loops == ("z",)
    assert len(v.recipe.parallel) == 1
    rebuilt = v.recipe.evaluate()
    assert sorted(rebuilt.labels) == sorted(m.labels)
    assert set(circuits(rebuilt)) == set(circuits(m))


def test_classify_disconnected_uses_direct_sum():
    b = circuit_matroid(4).relabel({f"e{i}": f"f{i}" for i in range(1, 5)})
    m = direct_sum(circuit_matroid(3), b)
    v = classify_theta3(m)
    assert v.in_class
    assert isinstance(v.recipe.term, DNode)
    assert v.recipe.serialize() == "D(C(3), C(4))"


def test_classify_empty_and_loops_only():
    v = classify_theta3(BinaryMatroid((), (), 0))
    assert v.in_class and v.recipe.serialize() == "EMPTY"
    loops = BinaryMatroid.from_pairs([("a", 0), ("b", 0)], 1)
    v = classify_theta3(loops)
    assert v.in_class and v.recipe.loops == ("a", "b")
    assert dict(zip(v.recipe.evaluate().labels, v.recipe.evaluate().cols)) == {
        "a": 0,
        "b": 0,
    }


def test_classify_agrees_with_the_decision_procedure_on_corpus():
    for name, m in SMALL_CORPUS:
        v = classify_theta3(m)
        closed, _ = is_theta3_closed(m)
        assert v.in_class == closed, name
        if v.in_class:
            rebuilt = v.recipe.evaluate()
            assert sorted(rebuilt.labels) == sorted(m.labels), name
            assert set(circuits(rebuilt)) == set(circuits(m)), name


def test_classify_budget_propagates():
    with pytest.raises(BudgetExceededError):
        classify_theta3(catalog_matroid("MSTAR_K5"), budget=Budget(max_nodes=2))


def test_verdict_dataclass_shape():
    v = Verdict(True, BuildRecipe(Leaf("C", 3)))
    assert v.witness is None and v.recipe.term == Leaf("C", 3)
