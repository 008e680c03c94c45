"""Canonical tree decomposition, recipes, and class membership."""

from __future__ import annotations

import random
from itertools import count

import pytest

from theta3 import construct, decompose
from theta3.budget import Budget, BudgetExceededError
from theta3.construct import (
    MAX_RECIPE_DEPTH,
    BuildRecipe,
    DNode,
    Leaf,
    PNode,
    Term,
    block_leaf,
    catalog_matroid,
    certificate,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cycle_matroid,
    evaluate_term,
    is_circuit,
    is_cocircuit,
    loops_and_copies,
    parallel_connection,
    parse_recipe,
    projective_geometry,
    serialize_term,
    two_sum,
)
from theta3.decompose import (
    MatroidLabelledTree,
    Verdict,
    _check_tree,
    canonical_tree_decomposition,
    classify_theta3,
    recompose,
)
from theta3.matroid import (
    BinaryMatroid,
    circuits,
    connected_components,
    direct_sum,
    exact_two_separations,
    is_connected,
    restrict,
    same_matroid,
    simplify,
)
from theta3.theta import ThetaGraph, is_theta3_closed

import oracles
from oracles import is_3connected, split_vector, tree_degree, trees_equivalent
from corpus import CONNECTED_CORPUS, SMALL_CORPUS, reversed_elements


BY_NAME = dict(SMALL_CORPUS)


# -- the tree -----------------------------------------------------------------


def test_three_connected_matroids_stay_whole():
    for name in ("F7", "PG3", "MSTAR_K5", "MK4"):
        t = canonical_tree_decomposition(BY_NAME[name])
        assert len(t.vertices) == 1 and t.edges == ()
        assert t.kinds == ("ThreeConnected",)
        assert t.vertices[0].labels == BY_NAME[name].labels


def test_blocks_are_recognized_without_the_backtrack(monkeypatch):
    # M(K_n) and PG(r) parts are 3-connected, so only a part that is
    # neither gets searched: the 2-sum of M(K5) and PG(3) is split once,
    # at a vector of its span that no column carries, and its two
    # halves, M(K5) and PG(3) with the marker in the glued element's
    # place, take no search and no budget node.
    searched = []
    real = construct.cut_walk

    def counting(S, budget=None, fresh=None):
        piece = real(S, budget, fresh)
        if piece.leaf is None:
            searched.append(S.size)
        return piece

    for module in (construct, decompose):
        monkeypatch.setattr(module, "cut_walk", counting)
    for m in (complete_graph_matroid(6), projective_geometry(5)):
        budget = Budget()
        t = canonical_tree_decomposition(m, budget=budget)
        assert t.kinds == ("ThreeConnected",) and searched == []
        assert budget.nodes == 0
    pg = projective_geometry(3)
    pg = pg.relabel({x: "b" + x for x in pg.labels})
    m = two_sum(complete_graph_matroid(5), pg, "1-2", "bp1")
    t = canonical_tree_decomposition(m)
    assert searched == [m.size]
    assert t.kinds == ("ThreeConnected", "ThreeConnected")
    assert same_matroid(m, recompose(t))


def test_disconnected_matroids_are_refused_with_their_components():
    # the one connectivity check of decompose: its message lists the
    # components in order of their first element
    m = BinaryMatroid(tuple("abcd"), (1, 2, 2, 1), 2)
    with pytest.raises(ValueError) as exc:
        canonical_tree_decomposition(m)
    assert str(exc.value) == (
        "decompose needs a connected matroid; components: [['a', 'd'], ['b', 'c']]"
    )


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
    assert tree_degree(t, hub) == 2
    assert t.vertices[hub].size == 3
    # the hub keeps the shared point; the circuits keep their own edges
    assert "e3" in t.vertices[hub].label_set


def test_k24_tree_is_a_star_of_triangles():
    t = canonical_tree_decomposition(BY_NAME["M_K24"])
    assert sorted(t.kinds) == ["Circuit"] * 4 + ["Cocircuit"]
    hub = t.kinds.index("Cocircuit")
    assert tree_degree(t, hub) == 4
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


def test_split_moves_tree_edges_to_the_new_vertex():
    # A 7-cycle with five chords, one of them parallel to c0.  The walk
    # cuts at x0, and the part holding the rest has no cut point, so it
    # is split at a vector no column carries: the marker that stands for
    # x0 there is handed down to the 3-connected piece of that split,
    # and c0, in a triangle, moves to a hub of its own with its copy.
    edges = [(f"v{i}", f"v{(i + 1) % 7}", f"c{i}") for i in range(7)]
    edges += [
        ("v0", "v5", "x0"),
        ("v1", "v0", "x1"),
        ("v5", "v2", "x2"),
        ("v0", "v4", "x3"),
        ("v0", "v3", "x4"),
    ]
    m = cycle_matroid(edges)
    t = canonical_tree_decomposition(m)
    _check_tree(t)
    assert same_matroid(m, recompose(t))


def test_recompose_round_trips_circuits():
    for name, m in CONNECTED_CORPUS:
        t = canonical_tree_decomposition(m)
        back = recompose(t)
        assert set(back.labels) == set(m.labels), name
        assert circuits(back) == circuits(m), name


def _first_split(m: BinaryMatroid) -> tuple[str | None, frozenset[frozenset[str]]]:
    """Where the tree's walk splits m's simplification first, and the
    label sets of the parts."""
    piece = construct.cut_walk(simplify(m), None, map("marker{}".format, count()))
    return piece.at, frozenset(part.matroid.label_set for part in piece.parts)


def test_search_orders_agree_up_to_marker_names():
    # Listing the elements last to first changes where the walk splits
    # first (its cut points come in element order, its missing vectors
    # in the order of a greedy basis); the canonical tree must not change.
    split_differently = 0
    for name, m in CONNECTED_CORPUS:
        r = reversed_elements(m)
        if _first_split(m) != _first_split(r):
            split_differently += 1
        assert trees_equivalent(
            canonical_tree_decomposition(m), canonical_tree_decomposition(r)
        ), name
    assert split_differently > 0


@pytest.mark.parametrize("r", [4, 5, 6])
def test_a_piece_on_the_counting_bound_is_still_cut(r):
    # P(PG(r-1), C(3); base=p1,e1) has exactly 2^(r-1) + 1 elements and
    # a cut point, p1: the bound in cut_walk is tight, so a piece of
    # that size must still be searched and cut there.
    term = parse_recipe(f"P(PG({r - 1}), C(3); base=p1,e1)")
    m = evaluate_term(term)
    assert m.rank == r and m.size == (1 << (r - 1)) + 1
    recipe = certificate(m)
    assert isinstance(recipe, BuildRecipe)
    assert recipe.serialize() == f"P(PG({r - 1}), C(3); base=p1)"
    piece = construct.cut_walk(m, None, map("marker{}".format, count()))
    assert piece.at == "p1" and len(piece.parts) == 2


@pytest.mark.parametrize("r", [4, 5])
def test_dense_pieces_are_three_connected_by_counting(r):
    # Simple connected point sets of PG(r) with more than 2^(r-1) + 1
    # points that are not blocks: the backtrack finds no exact
    # 2-separation, and the walk returns each uncut without a node.
    rng = random.Random(r)
    points = range(1, 1 << r)
    checked = 0
    for _ in range(40):
        k = rng.randint((1 << (r - 1)) + 2, (1 << r) - 2)
        cols = tuple(rng.sample(points, k))
        S = BinaryMatroid(tuple(f"q{c}" for c in cols), cols, r)
        if not is_connected(S) or block_leaf(S) is not None:
            continue
        assert next(exact_two_separations(S), None) is None
        budget = Budget()
        piece = construct.cut_walk(S, budget, map("marker{}".format, count()))
        assert piece == construct.Piece(S) and budget.nodes == 0
        checked += 1
    assert checked > 30


def _matches_the_reference(m: BinaryMatroid) -> MatroidLabelledTree:
    t = canonical_tree_decomposition(m)
    _check_tree(t)
    assert trees_equivalent(t, oracles.oracle_canonical_tree(m))
    assert same_matroid(m, recompose(t))
    return t


def test_tree_matches_the_backtrack_reference_on_the_connected_corpus():
    for name, m in CONNECTED_CORPUS:
        _matches_the_reference(m)


def test_tree_matches_the_backtrack_reference_on_every_graph_on_six_vertices():
    # All connected labelled simple graphs on six vertices (12981 cycle
    # matroids with at least one element), against the split loop on
    # the 2-separation backtrack.
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    checked = merged = 0
    for mask in range(1, 1 << len(pairs)):
        edges = [
            (f"v{a}", f"v{b}", f"e{a}{b}")
            for k, (a, b) in enumerate(pairs)
            if mask >> k & 1
        ]
        m = cycle_matroid(edges)
        if not is_connected(m):
            continue
        t = _matches_the_reference(m)
        checked += 1
        merged += any(V.dim != m.dim for V in t.vertices)
    assert checked == 12981 and merged > 0, (checked, merged)


def test_a_circuit_split_in_two_is_merged_back():
    # THETA(2,2,3) drawn so that the first vector of its span that no
    # column carries cuts the 3-path off as a triangle: the walk splits
    # it in two, and the merge glues it back into one 4-element circuit.
    edges = [
        ("v0", "v3", "a"),
        ("v0", "v4", "b"),
        ("v0", "v5", "c"),
        ("v1", "v2", "d"),
        ("v1", "v4", "e"),
        ("v1", "v5", "f"),
        ("v2", "v3", "g"),
    ]
    m = cycle_matroid(edges)
    piece = construct.cut_walk(m, None, iter(["x", "y"]))
    assert piece.at == "x" and piece.parts[1].at == "y"
    t = _matches_the_reference(m)
    assert sorted(t.kinds) == ["Circuit"] * 3 + ["Cocircuit"]
    assert sorted(V.size for V in t.vertices) == [3, 3, 3, 4]
    assert {"a", "d", "g"} < t.vertices[[V.size for V in t.vertices].index(4)].label_set


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


def test_split_vector_lies_in_both_spans_of_every_exact_separation():
    rng = random.Random(23)
    matroids = [m for _, m in CONNECTED_CORPUS]
    for _ in range(100):
        dim = rng.randint(2, 5)
        cols = tuple(rng.randrange(1 << dim) for _ in range(rng.randint(4, 9)))
        matroids.append(BinaryMatroid(tuple(f"g{j}" for j in range(len(cols))), cols, dim))
    rank = oracles.oracle_rank
    exact, inexact = 0, set()
    for m in matroids:
        for X, Y in exact_two_separations(m):
            w = split_vector(m, X, Y)
            with_w = m.extend("split", w)
            assert w != 0
            for side in (X, Y):
                assert rank(with_w, side | {"split"}) == rank(m, side)
            exact += 1
        # random splits, exact or not by the oracle
        for _ in range(10):
            X = frozenset(lab for lab in m.labels if rng.random() < 0.5)
            Y = m.label_set - X
            meet = rank(m, X) + rank(m, Y) - rank(m)
            if meet != 1:
                inexact.add(meet)
                with pytest.raises(ValueError, match="not an exact 2-separation"):
                    split_vector(m, X, Y)
    assert exact > 500 and {0, 2, 3} <= inexact, (exact, inexact)


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


def test_parse_recipe_caps_nesting_depth():
    def nested(depth):
        return "D(" * depth + "C(3)" + ", C(3))" * depth

    assert isinstance(parse_recipe(nested(MAX_RECIPE_DEPTH)), DNode)
    for depth in (MAX_RECIPE_DEPTH + 1, 2000):
        with pytest.raises(ValueError, match="nests deeper"):
            parse_recipe(nested(depth))


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


def test_certificate_reads_the_clock_at_its_first_cut_point():
    # a cut point is a pass over every coordinate, so its one node must
    # read the clock; MSTAR_K5 is no block and reaches the cut points
    budget = Budget(max_seconds=1)
    budget._started -= 2
    with pytest.raises(BudgetExceededError, match="time budget exhausted"):
        certificate(catalog_matroid("MSTAR_K5"), budget)
    assert budget.nodes == 1


def test_every_tick_reads_the_clock():
    budget = Budget(max_seconds=1)
    budget._started -= 2
    with pytest.raises(BudgetExceededError, match="time budget exhausted"):
        budget.tick()


def test_classify_names_the_piece_when_the_search_runs_out():
    # the certificate tries each of the 8 elements as a cut point, one
    # node each, and leaves no node for the witness search
    m = BY_NAME["M_K24"]
    v = classify_theta3(m, budget=Budget(max_nodes=8))
    assert not v.in_class and v.recipe is None
    assert v.witness == (
        f"the piece on {sorted(m.labels)} is neither a block nor cut at a point"
    )


def test_verdict_dataclass_shape():
    v = Verdict(True, BuildRecipe(Leaf("C", 3)))
    assert v.witness is None and v.recipe.term == Leaf("C", 3)


# -- the recipe read off the tree --------------------------------------------------


def _tree_term(C: BinaryMatroid) -> Term | None:
    """The term of a simple connected C read off its canonical tree, or
    None when the tree breaks the shape of the class.

    Cocircuit vertices are the gluing hubs and must keep exactly one
    real element (the shared point), every other vertex must be a
    circuit, complete-graph or projective block, and every tree edge
    must join a block to a hub.  Such a tree folds back into nested
    parallel connections.
    """
    whole = block_leaf(C)
    if whole is not None:
        return whole
    tree = canonical_tree_decomposition(C)
    markers = tree.marker_labels
    real = [sorted(set(V.labels) - markers) for V in tree.vertices]
    for a, b, _ in tree.edges:
        if (tree.kinds[a] == "Cocircuit") + (tree.kinds[b] == "Cocircuit") != 1:
            return None
    adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(real))}
    for a, b, lab in tree.edges:
        adj[a].append((b, lab))
        adj[b].append((a, lab))
    base: dict[int, str] = {}
    for i, V in enumerate(tree.vertices):
        if tree.kinds[i] == "Cocircuit":
            if len(real[i]) != 1 or V.size != tree_degree(tree, i) + 1:
                return None
            base[i] = real[i][0]
    leaves: dict[int, Leaf] = {}
    for i, V in enumerate(tree.vertices):
        if tree.kinds[i] == "Cocircuit":
            continue
        # each marker takes the label of its hub's shared point
        leaf = block_leaf(V.relabel({lab: base[j] for j, lab in adj[i]}))
        if leaf is None:
            return None
        leaves[i] = leaf
    if not leaves:
        return None

    def block_term(b: int, parent_hub: int | None) -> Term:
        t: Term = leaves[b]
        for h, _ in sorted(adj[b]):
            if h != parent_hub:
                for c, _ in sorted(adj[h]):
                    if c != b:
                        t = PNode(t, block_term(c, h), base[h], base[h])
        return t

    root = min(leaves, key=lambda i: (real[i], sorted(tree.vertices[i].labels)))
    return block_term(root, None)


def tree_recipe(M: BinaryMatroid) -> BuildRecipe | None:
    """M's recipe read off the canonical trees of its simple components,
    or None when M is not in the class.  An independent check of
    classify_theta3, which takes its recipe from construct.certificate."""
    loops, copies = loops_and_copies(M)
    S = simplify(M)
    terms = []
    for comp in sorted(connected_components(S), key=sorted):
        term = _tree_term(restrict(S, comp))
        if term is None:
            return None
        terms.append(term)
    if not terms:
        whole = None
    else:
        whole = terms[0] if len(terms) == 1 else DNode(tuple(terms))
    return BuildRecipe(whole, loops, copies)


def test_tree_reader_agrees_with_the_classifier():
    pg3 = projective_geometry(3)
    planes = []
    for mask in range(1 << 7):
        keep = [lab for i, lab in enumerate(pg3.labels) if mask >> i & 1]
        planes.append((f"plane {mask}", restrict(pg3, keep)))
    inputs = SMALL_CORPUS + CONNECTED_CORPUS + planes
    in_class = 0
    for name, m in inputs:
        read = tree_recipe(m)
        assert (read is not None) == classify_theta3(m).in_class, name
        if read is not None:
            in_class += 1
            assert same_matroid(m, read.evaluate()), name
    assert 0 < in_class < len(inputs)
