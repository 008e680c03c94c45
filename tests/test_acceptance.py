"""The ten acceptance gates, one test function per criterion.

Each test produces a single "[criterion NN] PASS/FAIL ..." line: live
on the real stdout when capture is off, and replayed in a terminal
summary section either way.  The assertions then fail the test the
normal way.  Everything randomized is seeded; reruns see the same
instances.
"""

from __future__ import annotations

import random
import sys
import time

from theta3.construct import (
    catalog_matroid,
    circuit_matroid,
    complete_bipartite_edges,
    complete_graph_matroid,
    cycle_matroid,
    is_circuit,
    is_cocircuit,
    is_projective,
    parallel_connection,
    projective_geometry,
    theta_edges,
    two_sum,
)
from theta3.decompose import (
    _check_tree,
    canonical_tree_decomposition,
    classify_theta3,
    recompose,
)
from theta3.matroid import (
    BinaryMatroid,
    circuits,
    contract,
    delete,
    exact_two_separations,
    restrict,
    simplify,
)
from theta3.theta import (
    graph_is_theta3_closed,
    is_complete,
    is_theta3_closed,
    theta3_closure,
    theta_graphs,
)

import oracles
from oracles import closure_flat, is_3connected, is_complete_graph, trees_equivalent
from corpus import CONNECTED_CORPUS, SMALL_CORPUS, reversed_elements


# conftest's pytest_terminal_summary replays these at the end of the
# run, since default fd capture swallows even sys.__stdout__ writes
CRITERION_LINES: list[str] = []


def _report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {verdict} {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


# -- 1: the two small worked closures ---------------------------------------


def test_criterion_01_worked_closures_fill_the_rank4_geometry():
    results = []
    for key in ("MSTAR_K33", "F7STAR"):
        m = catalog_matroid(key)
        t0 = time.perf_counter()
        final, _ = theta3_closure(m)
        dt = time.perf_counter() - t0
        good = final.colset == set(range(1, 16)) and final.size == 15
        results.append((key, good, final.size, dt))
    ok = all(good and dt <= 10.0 for _, good, _, dt in results)
    _report(1, ok, "; ".join(f"{k} -> {s} pts in {dt:.2f}s" for k, _, s, dt in results))
    for key, good, size, dt in results:
        assert good, f"{key} closed up to {size} points, not the full 15"
        assert dt <= 10.0, f"{key} closure took {dt:.2f}s, limit is 10s"


# -- 2: the big worked closure ----------------------------------------------

# The twelve weight-2 vectors the first round must add (dim 6, row 1 = bit 0).
ROUND1_WEIGHT2 = frozenset({3, 5, 9, 17, 6, 18, 34, 12, 36, 24, 40, 48})


def test_criterion_02_mstar_k5_closure_reaches_the_rank6_geometry():
    m = catalog_matroid("MSTAR_K5")
    t0 = time.perf_counter()
    final, trace = theta3_closure(m)
    dt = time.perf_counter() - t0
    light = {v for v in trace.rounds[0].added_vectors if v.bit_count() <= 2}
    ok = (
        light == ROUND1_WEIGHT2
        and final.size == 63
        and final.colset == set(range(1, 64))
        and dt <= 600.0
    )
    _report(2, ok, f"{final.size} pts after {len(trace.rounds)} rounds in {dt:.1f}s")
    assert light == ROUND1_WEIGHT2, (sorted(light), sorted(ROUND1_WEIGHT2))
    assert final.size == 63 and final.colset == set(range(1, 64))
    assert dt <= 600.0


# -- 3: three negative families with witnesses -------------------------------


def _negative_cases():
    yield "M(K_2,4)", catalog_matroid("M_K24")
    pg = projective_geometry(4)
    for lab in pg.labels:
        yield f"15-point geometry minus {lab}", delete(pg, [lab])
    yield "M(K_2,3)", cycle_matroid(complete_bipartite_edges(2, 3))


def test_criterion_03_negatives_fail_fast_with_validated_witnesses():
    problems = []
    count = 0
    worst = 0.0
    for name, m in _negative_cases():
        count += 1
        t0 = time.perf_counter()
        closed, wit = is_theta3_closed(m)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if closed or wit is None:
            problems.append(f"{name}: no refutation")
            continue
        if dt > 1.0:
            problems.append(f"{name}: {dt:.2f}s, limit is 1s")
        try:
            oracles.oracle_validate_theta(m, wit.arcs)
        except AssertionError as exc:
            problems.append(f"{name}: witness is not a theta ({exc})")
            continue
        if oracles.oracle_is_complete(m, wit.arcs)[0]:
            problems.append(f"{name}: witness is complete")
    ok = not problems
    tail = "" if ok else f"; {problems}"
    _report(3, ok, f"{count} instances refuted, worst {worst * 1000:.0f}ms{tail}")
    assert not problems, problems


# -- 4: three positive families ----------------------------------------------


def test_criterion_04_positive_families_are_all_closed():
    t0 = time.perf_counter()
    problems = []
    for n in range(1, 8):
        if not is_theta3_closed(complete_graph_matroid(n))[0]:
            problems.append(f"MK({n})")
    for r in range(1, 5):
        if not is_theta3_closed(projective_geometry(r), use_shortcut=False)[0]:
            problems.append(f"PG({r}) by direct enumeration")
    if not is_theta3_closed(projective_geometry(5), use_shortcut=True)[0]:
        problems.append("PG(5) by shortcut")
    for n in range(1, 11):
        if not is_theta3_closed(circuit_matroid(n))[0]:
            problems.append(f"C({n})")
    dt = time.perf_counter() - t0
    ok = not problems and dt <= 60.0
    _report(4, ok, f"7 complete graphs + 5 geometries + 10 circuits in {dt:.1f}s")
    assert not problems, problems
    assert dt <= 60.0


# -- 5: classifier vs direct decision ----------------------------------------


def test_criterion_05_classifier_agrees_with_the_direct_decision():
    t0 = time.perf_counter()
    disagreements: list[str] = []
    checked = 0

    def check(sub: BinaryMatroid, tag: str) -> None:
        nonlocal checked
        checked += 1
        closed = is_theta3_closed(sub)[0]
        try:
            verdict = classify_theta3(sub)
        except RuntimeError as exc:
            disagreements.append(f"{tag}: {exc}")
            return
        if verdict.in_class != closed:
            disagreements.append(
                f"{tag}: closed={closed}, classified={verdict.in_class}"
            )
            return
        if verdict.in_class:
            rebuilt = verdict.recipe.evaluate()
            if sorted(rebuilt.labels) != sorted(sub.labels) or set(
                circuits(rebuilt)
            ) != set(circuits(sub)):
                disagreements.append(f"{tag}: recipe does not rebuild the circuits")

    pg3 = projective_geometry(3)
    for mask in range(1 << 7):
        sub = restrict(pg3, [pg3.labels[i] for i in range(7) if mask >> i & 1])
        check(sub, f"plane mask {mask}")
    rng = random.Random(20260819)
    pg4 = projective_geometry(4)
    for k in range(500):
        mask = rng.randrange(1 << 15)
        sub = restrict(pg4, [pg4.labels[i] for i in range(15) if mask >> i & 1])
        check(sub, f"sample {k} mask {mask}")
    dt = time.perf_counter() - t0
    ok = not disagreements and dt <= 300.0
    _report(
        5, ok, f"{checked} instances, {len(disagreements)} disagreements, {dt:.1f}s"
    )
    assert not disagreements, disagreements[:5]
    assert dt <= 300.0


# -- 6: implementation vs definitional oracles --------------------------------


def test_criterion_06_theta_detection_and_completeness_match_the_oracles():
    pool = list(SMALL_CORPUS) + [
        (name, m) for name, m in CONNECTED_CORPUS if m.size <= 10
    ]
    problems = []
    thetas_seen = 0
    for name, m in pool:
        impl = theta_graphs(m)
        impl_set = {(frozenset(t.arcs), t.completing) for t in impl}
        if impl_set != oracles.oracle_theta_graphs(m):
            problems.append(f"{name}: theta families differ")
            continue
        for t in impl:
            thetas_seen += 1
            got, lab = is_complete(m, t)
            want, _ = oracles.oracle_is_complete(m, t.arcs)
            if got != want:
                problems.append(f"{name}: completeness verdicts differ on {t.arcs}")
            elif got and not oracles.oracle_completes(m, t.arcs, lab):
                problems.append(f"{name}: {lab!r} does not complete {t.arcs}")
    ok = not problems
    _report(6, ok, f"{len(pool)} matroids, {thetas_seen} thetas cross-checked")
    assert not problems, problems


# -- 7: hereditary and composition properties ---------------------------------


def _prefixed(m: BinaryMatroid, pre: str) -> BinaryMatroid:
    return m.relabel({lab: f"{pre}{lab}" for lab in m.labels})


def _closed_piece(rng: random.Random, pre: str) -> BinaryMatroid:
    k = rng.randrange(5)
    if k == 0:
        m = circuit_matroid(rng.randint(1, 6))
    elif k == 1:
        m = complete_graph_matroid(rng.randint(2, 5))
    elif k == 2:
        m = projective_geometry(rng.randint(1, 3))
    elif k == 3:
        a = circuit_matroid(rng.randint(3, 5))
        b = _prefixed(circuit_matroid(rng.randint(3, 5)), "q")
        m = parallel_connection(a, b, rng.choice(a.labels), rng.choice(b.labels))
    else:
        m = complete_graph_matroid(4)
        m = m.extend("par", m.col_of(rng.choice(m.labels)))
        if rng.random() < 0.5:
            m = m.extend("lp", 0)
    return _prefixed(m, pre)


def _unclosed_piece(rng: random.Random, pre: str) -> BinaryMatroid:
    k = rng.randrange(3)
    if k == 0:
        m = cycle_matroid(theta_edges(2, 2, rng.randint(2, 3)))
    elif k == 1:
        pg = projective_geometry(rng.randint(3, 4))
        m = delete(pg, [rng.choice(pg.labels)])
    else:
        m = cycle_matroid(complete_bipartite_edges(2, rng.randint(3, 4)))
    return _prefixed(m, pre)


def _piece(rng: random.Random, pre: str, closed_bias: float) -> BinaryMatroid:
    if rng.random() < closed_bias:
        return _closed_piece(rng, pre)
    return _unclosed_piece(rng, pre)


def _with_multiples(rng: random.Random, m: BinaryMatroid) -> BinaryMatroid:
    out = m
    if m.size and rng.random() < 0.7:
        for i in range(rng.randint(1, 3)):
            out = out.extend(f"xp{i}", m.col_of(rng.choice(m.labels)))
    if rng.random() < 0.4:
        out = out.extend("xz", 0)
    return out


def _nonloop_point(rng: random.Random, m: BinaryMatroid) -> str | None:
    pts = [lab for lab in m.labels if m.col_of(lab) != 0]
    return rng.choice(pts) if pts else None


def test_criterion_07_hereditary_and_composition_properties_hold():
    t0 = time.perf_counter()
    rng = random.Random(72026)
    violations: list[str] = []

    si_hits = 0
    for i in range(200):
        m = _with_multiples(rng, _piece(rng, "a", 0.7))
        if not is_theta3_closed(m)[0]:
            continue
        si_hits += 1
        if not is_theta3_closed(simplify(m))[0]:
            violations.append(f"simplification of closed instance {i}")

    flat_hits = 0
    for i in range(200):
        m = _piece(rng, "a", 0.7)
        if not is_theta3_closed(m)[0]:
            continue
        flat_hits += 1
        labs = list(m.labels)
        for _ in range(3):
            F = closure_flat(m, rng.sample(labs, rng.randint(0, len(labs))))
            if not is_theta3_closed(restrict(m, F))[0]:
                violations.append(f"flat restriction of closed instance {i}")

    contract_hits = 0
    for i in range(200):
        m = _piece(rng, "a", 0.7)
        if m.size == 0 or not is_theta3_closed(m)[0]:
            continue
        contract_hits += 1
        for e in rng.sample(list(m.labels), min(3, m.size)):
            if not is_theta3_closed(contract(m, [e]))[0]:
                violations.append(f"contraction of closed instance {i} at {e}")

    twosum_hits = 0
    for i in range(200):
        roll = rng.random()
        if roll < 0.45:
            A = _prefixed(circuit_matroid(rng.randint(3, 7)), "a")
            B = _prefixed(circuit_matroid(rng.randint(3, 7)), "b")
        elif roll < 0.6:
            A = _prefixed(
                complete_graph_matroid(4)
                if rng.random() < 0.5
                else catalog_matroid("F7"),
                "a",
            )
            B = _prefixed(BinaryMatroid(("x", "y", "z"), (1, 1, 1), 1), "b")
        else:
            A = _piece(rng, "a", 0.7)
            B = _piece(rng, "b", 0.7)
            if A.size < 3 or B.size < 3:
                continue
        pa, pb = _nonloop_point(rng, A), _nonloop_point(rng, B)
        if pa is None or pb is None:
            continue
        T = two_sum(A, B, pa, pb)
        if not is_theta3_closed(T)[0]:
            continue
        twosum_hits += 1
        if not (is_theta3_closed(A)[0] and is_theta3_closed(B)[0]):
            violations.append(f"two-sum instance {i}: closed sum, open half")

    both_hits = 0
    for i in range(200):
        A = _piece(rng, "a", 0.65)
        B = _piece(rng, "b", 0.65)
        pa, pb = _nonloop_point(rng, A), _nonloop_point(rng, B)
        if pa is None or pb is None:
            continue
        P = parallel_connection(A, B, pa, pb)
        left = is_theta3_closed(P)[0]
        right = is_theta3_closed(A)[0] and is_theta3_closed(B)[0]
        if left != right:
            violations.append(
                f"parallel connection instance {i}: glued={left}, halves={right}"
            )
        if right:
            both_hits += 1

    dt = time.perf_counter() - t0
    hits = (si_hits, flat_hits, contract_hits, twosum_hits, both_hits)
    ok = not violations and all(h >= 60 for h in hits) and True
    _report(
        7,
        ok,
        f"5 properties x 200 instances, non-vacuous {hits}, "
        f"{len(violations)} violations, {dt:.1f}s",
    )
    assert not violations, violations[:5]
    assert all(h >= 60 for h in hits), hits


# -- 8: decomposition soundness -----------------------------------------------


def test_criterion_08_decomposition_recomposes_and_is_well_formed():
    problems = []
    split_differently = 0
    for name, m in CONNECTED_CORPUS:
        assert m.size <= 14, name
        tree = canonical_tree_decomposition(m)
        try:
            _check_tree(tree)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if set(circuits(recompose(tree))) != set(circuits(m)):
            problems.append(f"{name}: recomposition changes the circuit family")
        multi = len(tree.vertices) > 1
        for V, kind in zip(tree.vertices, tree.kinds):
            if multi and V.size < 3:
                problems.append(f"{name}: vertex below 3 elements")
            if kind == "Circuit" and not is_circuit(V):
                problems.append(f"{name}: dishonest circuit vertex")
            if kind == "Cocircuit" and not is_cocircuit(V):
                problems.append(f"{name}: dishonest cocircuit vertex")
            if kind == "ThreeConnected":
                if is_circuit(V) or is_cocircuit(V):
                    problems.append(f"{name}: mislabeled circuit/cocircuit vertex")
                elif multi and not is_3connected(V):
                    problems.append(f"{name}: dishonest 3-connected vertex")
        for a, b, _ in tree.edges:
            ka, kb = tree.kinds[a], tree.kinds[b]
            if ka == kb and ka in ("Circuit", "Cocircuit"):
                problems.append(f"{name}: adjacent same-kind vertices")
        r = reversed_elements(m)
        if not trees_equivalent(tree, canonical_tree_decomposition(r)):
            problems.append(f"{name}: reversed element order changes the tree")
        if frozenset(next(exact_two_separations(m), ())) != frozenset(
            next(exact_two_separations(r), ())
        ):
            split_differently += 1
    if not split_differently:
        problems.append("reversal never changes the first 2-separation")
    ok = not problems
    _report(
        8,
        ok,
        f"{len(CONNECTED_CORPUS)} connected matroids decomposed, "
        f"{split_differently} split differently when reversed",
    )
    assert not problems, problems


# -- 9: weight-two supersets inside the 15-point geometry ----------------------


def test_criterion_09_weight_two_supersets_have_two_closed_members():
    t0 = time.perf_counter()
    base = [c for c in range(1, 16) if c.bit_count() <= 2]
    extras = [c for c in range(1, 16) if c.bit_count() > 2]
    assert len(base) == 10 and len(extras) == 5
    closed_choices = []
    for mask in range(1 << len(extras)):
        chosen = [extras[i] for i in range(len(extras)) if mask >> i & 1]
        cols = base + chosen
        m = BinaryMatroid(tuple(f"x{c}" for c in cols), tuple(cols), 4)
        if is_theta3_closed(m)[0]:
            closed_choices.append(frozenset(chosen))
    dt = time.perf_counter() - t0
    expected = {frozenset(), frozenset(extras)}
    ok = set(closed_choices) == expected and len(closed_choices) == 2 and dt <= 60.0
    _report(9, ok, f"32 supersets, {len(closed_choices)} closed, {dt:.1f}s")
    assert set(closed_choices) == expected, closed_choices
    assert len(closed_choices) == 2
    assert dt <= 60.0
    base_m = BinaryMatroid(tuple(f"x{c}" for c in base), tuple(base), 4)
    assert is_complete_graph(base_m) == (True, 5)
    full = BinaryMatroid(tuple(f"x{c}" for c in range(1, 16)), tuple(range(1, 16)), 4)
    assert is_projective(full)


# -- 10: glued graphs stay closed ----------------------------------------------


def _compose_random_graph(rng: random.Random) -> list[tuple[str, str, str]]:
    """Cycles and complete graphs, glued at a shared vertex or a shared edge.

    Edge gluing keeps exactly one copy of the shared edge.  Budgets keep
    the vertex count within the dimension cap and the cycle space small
    enough to scan.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"g{counter[0]}"

    def ring(vs):
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def clique(vs):
        return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]

    def cyclo(kind: str, k: int) -> int:
        return 1 if kind == "cycle" else (k - 1) * (k - 2) // 2

    kind = rng.choice(("cycle", "cycle", "complete"))
    k = rng.randint(3, 8) if kind == "cycle" else rng.choice((3, 4, 4, 5, 5, 6, 7))
    verts = [fresh() for _ in range(k)]
    pairs = ring(verts) if kind == "cycle" else clique(verts)
    total_v, total_c = k, cyclo(kind, k)

    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("cycle", "cycle", "complete"))
        k = rng.randint(3, 8) if kind == "cycle" else rng.randint(3, 5)
        mode = rng.choice(("vertex", "edge"))
        grown = k - (1 if mode == "vertex" else 2)
        if total_v + grown > 15 or total_c + cyclo(kind, k) > 12:
            break
        if mode == "vertex":
            pv = [rng.choice(verts)] + [fresh() for _ in range(k - 1)]
        else:
            u, w = rng.choice(pairs)
            pv = [u, w] + [fresh() for _ in range(k - 2)]
        grown_pairs = ring(pv) if kind == "cycle" else clique(pv)
        if mode == "edge":
            grown_pairs = [
                p for p in grown_pairs if frozenset(p) != frozenset((pv[0], pv[1]))
            ]
        pairs += grown_pairs
        verts += pv[1:] if mode == "vertex" else pv[2:]
        total_v += grown
        total_c += cyclo(kind, k)
    return [(u, w, f"t{i}") for i, (u, w) in enumerate(pairs)]


def test_criterion_10_graph_compositions_stay_closed():
    t0 = time.perf_counter()
    rng = random.Random(1020)
    failures = []
    scan_failures = []
    widest = 0
    for i in range(100):
        edges = _compose_random_graph(rng)
        widest = max(widest, len(edges))
        # the flows, and the matroid route on the cycle matroid
        if not graph_is_theta3_closed(edges):
            failures.append(i)
        if not is_theta3_closed(cycle_matroid(edges))[0]:
            scan_failures.append(i)
    k23 = complete_bipartite_edges(2, 3)
    k23_closed = graph_is_theta3_closed(k23)
    k23_scan_closed = is_theta3_closed(cycle_matroid(k23))[0]
    dt = time.perf_counter() - t0
    ok = not failures and not k23_closed and not scan_failures and not k23_scan_closed
    _report(
        10,
        ok,
        f"100 glued graphs (up to {widest} edges) closed, K_2,3 open, {dt:.1f}s",
    )
    assert not failures, failures
    assert not k23_closed
    assert not scan_failures, scan_failures
    assert not k23_scan_closed
