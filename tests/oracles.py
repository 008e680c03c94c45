"""Brute-force reference implementations used to cross-check the library.

Every function here recomputes a matroid fact straight from its
definition, sharing no shortcuts with the modules under test: rank is
the log of a subset-sum span, circuits are minimal dependent sets found
by ascending-size enumeration, thetas are connected corank-2
restrictions with exactly three series classes, and completeness is the
literal "every arc plus e is a circuit" quantifier.  Costs are
exponential on purpose; keep inputs at ten-ish elements (the closure
oracle tolerates fifteen because theta ground sets stay small).

Only the BinaryMatroid container (labels, cols, dim, extend) is reused;
none of the algorithms under test are.  The exception is the last
section: helpers that only tests call, built on the library's own
routines, each checked against an oracle above or against its
definition in the tests.
"""

from __future__ import annotations

from itertools import combinations, count
from math import isqrt
from typing import Iterable

from theta3.budget import Budget
from theta3.construct import complete_graph_mapping
from theta3.decompose import MatroidLabelledTree, _fold, _vertex_kind
from theta3.gf2 import bits, greedy_coordinates
from theta3.matroid import (
    BinaryMatroid,
    exact_two_separations,
    is_connected,
    rank_of,
    restrict,
)


def span_of(cols: Iterable[int]) -> set[int]:
    """All subset XOR sums: the GF(2) span, one doubling per new column."""
    span = {0}
    for c in cols:
        if c not in span:
            span |= {s ^ c for s in span}
    return span


def _cols_for(M: BinaryMatroid, S: Iterable[str] | None) -> list[int]:
    idx = {lab: i for i, lab in enumerate(M.labels)}
    labs = M.labels if S is None else tuple(S)
    return [M.cols[idx[lab]] for lab in labs]


def oracle_rank(M: BinaryMatroid, S: Iterable[str] | None = None) -> int:
    """log2 of the span size of the chosen columns."""
    return (len(span_of(_cols_for(M, S)))).bit_length() - 1


def oracle_is_circuit(M: BinaryMatroid, S: Iterable[str]) -> bool:
    """Dependent, and dropping any one element leaves an independent set."""
    S = frozenset(S)
    if not S or oracle_rank(M, S) >= len(S):
        return False
    return all(oracle_rank(M, S - {e}) == len(S) - 1 for e in S)


def oracle_circuits(
    M: BinaryMatroid, max_size: int | None = None
) -> list[frozenset[str]]:
    """Minimal dependent sets by raw ascending-size enumeration."""
    labs = M.labels
    top = len(labs) if max_size is None else min(max_size, len(labs))
    found: list[frozenset[str]] = []
    for k in range(1, top + 1):
        for combo in combinations(labs, k):
            S = frozenset(combo)
            if any(c <= S for c in found):
                continue
            if oracle_rank(M, S) < len(S):
                found.append(S)
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def oracle_cocircuits(M: BinaryMatroid) -> list[frozenset[str]]:
    """Minimal sets whose removal drops the rank."""
    labs = M.labels
    E = frozenset(labs)
    r = oracle_rank(M)
    found: list[frozenset[str]] = []
    for k in range(1, len(labs) + 1):
        for combo in combinations(labs, k):
            S = frozenset(combo)
            if any(c <= S for c in found):
                continue
            if oracle_rank(M, E - S) < r:
                found.append(S)
    return sorted(found, key=lambda c: (len(c), sorted(c)))


def _pairs_covered(elements: Iterable[str], circuits: list[frozenset[str]]) -> bool:
    return all(
        any({a, b} <= c for c in circuits)
        for a, b in combinations(sorted(elements), 2)
    )


def oracle_connected(M: BinaryMatroid) -> bool:
    """Every pair of distinct elements lies on a common circuit."""
    if M.size <= 1:
        return True
    return _pairs_covered(M.labels, oracle_circuits(M))


def oracle_components(M: BinaryMatroid) -> set[frozenset[str]]:
    """Classes of the transitive closure of "share a circuit"."""
    parent = {lab: lab for lab in M.labels}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in oracle_circuits(M):
        first, *rest = sorted(c)
        for other in rest:
            parent[find(other)] = find(first)
    groups: dict[str, set[str]] = {}
    for lab in M.labels:
        groups.setdefault(find(lab), set()).add(lab)
    return {frozenset(g) for g in groups.values()}


def _series_classes(
    T: frozenset[str], circuits_T: list[frozenset[str]]
) -> list[frozenset[str]]:
    """Partition T by "every circuit contains both or neither"."""
    classes: list[set[str]] = []
    for e in sorted(T):
        for cl in classes:
            f = next(iter(cl))
            if all((e in c) == (f in c) for c in circuits_T):
                cl.add(e)
                break
        else:
            classes.append({e})
    return [frozenset(cl) for cl in classes]


def oracle_theta_subsets(
    M: BinaryMatroid,
) -> list[tuple[frozenset[str], frozenset[frozenset[str]], int]]:
    """Every theta restriction as (ground set, arcs, completing bits).

    A ground set T qualifies when r(T) = |T| - 2, the restriction to T
    is connected, and T splits into exactly three series classes.  The
    completing vector is the common XOR of the arcs (asserted equal).
    """
    idx = {lab: i for i, lab in enumerate(M.labels)}
    r = oracle_rank(M)
    all_circuits = oracle_circuits(M, max_size=min(M.size, r + 2))
    out = []
    for k in range(3, min(M.size, r + 2) + 1):
        for combo in combinations(M.labels, k):
            T = frozenset(combo)
            if oracle_rank(M, T) != k - 2:
                continue
            circuits_T = [c for c in all_circuits if c <= T]
            if not _pairs_covered(T, circuits_T):
                continue
            classes = _series_classes(T, circuits_T)
            if len(classes) != 3:
                continue
            sums = set()
            for cl in classes:
                w = 0
                for lab in cl:
                    w ^= M.cols[idx[lab]]
                sums.add(w)
            assert len(sums) == 1, "arcs of one theta must share their XOR"
            w = sums.pop()
            assert w != 0, "a theta's completing vector is never zero"
            out.append((T, frozenset(classes), w))
    return out


def oracle_theta_graphs(
    M: BinaryMatroid,
) -> set[tuple[frozenset[frozenset[str]], int]]:
    """Comparison form: {(arc partition, completing bits)}."""
    return {(arcs, w) for _, arcs, w in oracle_theta_subsets(M)}


def oracle_completes(
    M: BinaryMatroid, arcs: Iterable[frozenset[str]], e: str
) -> bool:
    """Literal test that element e completes the theta with these arcs."""
    return all(
        A == frozenset((e,)) or oracle_is_circuit(M, A | {e}) for A in arcs
    )


def oracle_is_complete(
    M: BinaryMatroid, arcs: Iterable[frozenset[str]]
) -> tuple[bool, str | None]:
    arcs = tuple(arcs)
    for e in M.labels:
        if oracle_completes(M, arcs, e):
            return True, e
    return False, None


def oracle_validate_theta(
    M: BinaryMatroid, arcs: Iterable[frozenset[str]]
) -> None:
    """Assert that the given arcs really are a theta of M, definitionally."""
    arcs = [frozenset(a) for a in arcs]
    assert len(arcs) == 3 and all(arcs), "a theta has three nonempty arcs"
    T = frozenset().union(*arcs)
    assert sum(len(a) for a in arcs) == len(T), "arcs must not overlap"
    assert oracle_rank(M, T) == len(T) - 2, "theta ground sets have corank 2"
    # the circuits of M inside T are the circuits of M restricted to T
    labs = tuple(lab for lab in M.labels if lab in T)
    sub = oracle_circuits(BinaryMatroid(labs, tuple(_cols_for(M, labs)), M.dim))
    assert _pairs_covered(T, sub), "theta restrictions are connected"
    assert set(_series_classes(T, sub)) == set(arcs), "arcs are series classes"


def oracle_closed(
    M: BinaryMatroid,
) -> tuple[bool, frozenset[frozenset[str]] | None]:
    for _, arcs, _ in oracle_theta_subsets(M):
        ok, _ = oracle_is_complete(M, arcs)
        if not ok:
            return False, arcs
    return True, None


def oracle_closure(
    M: BinaryMatroid,
) -> tuple[BinaryMatroid, list[list[int]]]:
    """Batch fixed point: each round adds every missing completing vector.

    Returns the final matroid and the per-round sorted vector lists.
    The input is simplified (zero and duplicate columns dropped) first.
    """
    seen: dict[int, str] = {}
    for lab, c in zip(M.labels, M.cols):
        if c and c not in seen:
            seen[c] = lab
    cur = BinaryMatroid.from_pairs(
        ((lab, c) for c, lab in seen.items()), M.dim
    )
    rounds: list[list[int]] = []
    k = 0
    while True:
        add = sorted(
            {
                w
                for _, arcs, w in oracle_theta_subsets(cur)
                if not oracle_is_complete(cur, arcs)[0]
            }
        )
        if not add:
            return cur, rounds
        rounds.append(add)
        for w in add:
            if w in cur.colset:
                continue
            k += 1
            cur = cur.extend(f"w{k}", w)


def oracle_two_separations(M: BinaryMatroid) -> set[frozenset[frozenset[str]]]:
    """Unordered partitions (X, Y), both sides >= 2, r(X)+r(Y) = r(M)+1."""
    labs = list(M.labels)
    n = len(labs)
    if n < 4:
        return set()
    r = oracle_rank(M)
    out: set[frozenset[frozenset[str]]] = set()
    for bits in range(1, 1 << n, 2):  # label 0 stays on the X side
        X = frozenset(labs[i] for i in range(n) if bits >> i & 1)
        if len(X) < 2 or n - len(X) < 2:
            continue
        Y = frozenset(labs) - X
        if oracle_rank(M, X) + oracle_rank(M, Y) == r + 1:
            out.add(frozenset((X, Y)))
    return out


def oracle_is_complete_graph(M: BinaryMatroid) -> bool:
    """Some basis gives every column coordinates of weight <= 2.

    Over a vertex star, M(K_n) is the C(n,2) distinct vectors of weight
    1 or 2 in dimension n - 1, so M is some M(K_n) exactly when it is
    simple with C(r+1, 2) elements and a basis B has every column in B
    or equal to a sum of two members of B.  Those r + C(r, 2) vectors
    are then all columns, so a partial basis with a pair sum outside the
    column set is abandoned; every other r-subset is tried.
    """
    cols = list(M.cols)
    present = set(cols)
    r = oracle_rank(M)
    if 0 in present or len(present) != len(cols) or len(cols) != r * (r + 1) // 2:
        return False

    def grow(chosen: list[int], start: int) -> bool:
        if len(chosen) == r:
            low = set(chosen) | {a ^ b for a, b in combinations(chosen, 2)}
            return len(span_of(chosen)) == 1 << r and present <= low
        return any(
            grow(chosen + [c], i + 1)
            for i, c in enumerate(cols[start:], start)
            if all(c ^ b in present for b in chosen)
        )

    return grow([], 0)


def oracle_pair_route_hits(M: BinaryMatroid) -> list[tuple[int, frozenset[frozenset[str]]]]:
    """Reference for the pair-route prepass, one target at a time.

    The targets are the nonzero span vectors that no column carries,
    ascending.  Per target v, in order: the pairs {a, a + v} of distinct
    present columns with a < a + v, ascending in a; the first triple of
    them, in combination order, whose columns together with v have
    rank 4 gives the arcs (each column named by its first label).
    """
    first: dict[int, str] = {}
    for lab, c in zip(M.labels, M.cols):
        first.setdefault(c, lab)
    present = sorted(c for c in first if c)
    targets = sorted(v for v in span_of(M.cols) if v and v not in first)
    out = []
    for v in targets:
        pairs = [a for a in present if a < a ^ v and a ^ v in first]
        for triple in combinations(pairs, 3):
            if len(span_of((*triple, v))) == 16:
                arcs = frozenset(frozenset((first[a], first[a ^ v])) for a in triple)
                out.append((v, arcs))
                break
    return out


def oracle_graph_theta(
    edges: list[tuple[str, str, str]],
) -> tuple[frozenset[str], frozenset[str], frozenset[str]] | None:
    """Three x-y paths, pairwise internally disjoint, for some x, y not adjacent.

    A graph's cycle matroid is theta-closed exactly when no such paths
    exist (Jamison and Mulder's condition), so None means closed.  Every
    simple x-y path is listed by depth-first search and every triple of
    them is tried.  Loops are ignored; each step of a path is labelled
    by the first edge in input order between its two ends.  Returns the
    paths' label sets.
    """
    label: dict[frozenset[str], str] = {}
    for u, v, lab in edges:
        if u != v:
            label.setdefault(frozenset((u, v)), lab)
    verts = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    nbrs = {x: sorted(y for y in verts if frozenset((x, y)) in label) for x in verts}

    def paths(x: str, y: str) -> list[list[str]]:
        found, stack = [], [[x]]
        while stack:
            path = stack.pop()
            for z in nbrs[path[-1]]:
                if z == y:
                    found.append(path + [y])
                elif z not in path:
                    stack.append(path + [z])
        return found

    for x, y in combinations(verts, 2):
        if frozenset((x, y)) in label:
            continue
        for triple in combinations(paths(x, y), 3):
            inner = [set(p[1:-1]) for p in triple]
            if all(not (a & b) for a, b in combinations(inner, 2)):
                return tuple(
                    frozenset(label[frozenset(s)] for s in zip(p, p[1:])) for p in triple
                )
    return None


def oracle_graph_closed(edges: list[tuple[str, str, str]]) -> bool:
    return oracle_graph_theta(edges) is None


# -- helpers on the library's routines ----------------------------------------


def closure_flat(M: BinaryMatroid, S: Iterable[str]) -> frozenset[str]:
    """All elements whose column lies in span(S).  Idempotent, contains S.

    Over a greedy basis that starts inside S, the leading r(S)
    coordinates span S, and a column lies in span(S) exactly when it
    uses no other coordinate.
    """
    first = M._positions(S)
    coords, basis = greedy_coordinates(M.cols, first)
    k = len(set(first).intersection(basis))
    return frozenset(lab for lab, c in zip(M.labels, coords) if not c >> k)


def local_connectivity(M: BinaryMatroid, X: Iterable[str], Y: Iterable[str]) -> int:
    X, Y = frozenset(X), frozenset(Y)
    return rank_of(M, X) + rank_of(M, Y) - rank_of(M, X | Y)


def is_3connected(M: BinaryMatroid) -> bool:
    """Connected with no exact 2-separation (both sides of size >= 2)."""
    if not is_connected(M):
        return False
    return next(exact_two_separations(M), None) is None


def is_complete_graph(M: BinaryMatroid) -> tuple[bool, int | None]:
    """Whether M is some M(K_n), and n."""
    if complete_graph_mapping(M) is None:
        return False, None
    return True, (1 + isqrt(1 + 8 * M.size)) // 2


def tree_degree(T: MatroidLabelledTree, i: int) -> int:
    """The number of tree edges at vertex i."""
    return sum(1 for a, b, _ in T.edges if i in (a, b))


def trees_equivalent(T1: MatroidLabelledTree, T2: MatroidLabelledTree) -> bool:
    """Isomorphic as kind- and real-element-labelled trees; markers ignored.

    Color refinement on the disjoint union; refinement identifies trees,
    so equal stable color multisets on the two sides decide isomorphism.
    """

    def base_colors(T: MatroidLabelledTree) -> list[tuple]:
        markers = T.marker_labels
        return [
            (k, V.size, tuple(sorted(set(V.labels) - markers)))
            for V, k in zip(T.vertices, T.kinds)
        ]

    b1, b2 = base_colors(T1), base_colors(T2)
    if sorted(b1) != sorted(b2):
        return False
    if all(labels for _, _, labels in b1):
        # real labels name every vertex, so the edges decide
        def named_edges(T: MatroidLabelledTree, b: list[tuple]) -> list[tuple]:
            return sorted(sorted((b[x][2], b[y][2])) for x, y, _ in T.edges)

        return named_edges(T1, b1) == named_edges(T2, b2)
    n1 = len(b1)
    total = n1 + len(b2)
    adj: list[list[int]] = [[] for _ in range(total)]
    for a, b, _ in T1.edges:
        adj[a].append(b)
        adj[b].append(a)
    for a, b, _ in T2.edges:
        adj[n1 + a].append(n1 + b)
        adj[n1 + b].append(n1 + a)
    colors: list = b1 + b2
    for _ in range(total):
        combos = [
            (colors[i], tuple(sorted(colors[j] for j in adj[i]))) for i in range(total)
        ]
        rank = {c: k for k, c in enumerate(sorted(set(combos)))}
        colors = [rank[c] for c in combos]
    return sorted(colors[:n1]) == sorted(colors[n1:])


def split_vector(V: BinaryMatroid, X: frozenset[str], Y: frozenset[str]) -> int:
    """The unique nonzero vector of span(X) intersect span(Y).

    Exactness of the separation makes that intersection a line.  Over a
    greedy basis that starts with a basis of X, the rest of the basis
    lies in Y, so the X part of a Y column (its leading r(X)
    coordinates) lies in span(X) and in span(Y); these parts span the
    intersection.  So the separation is exact exactly when the nonzero
    X parts are all one vector, which is the one wanted.
    """
    xs = sorted(V._positions(X))
    coords, basis = greedy_coordinates(V.cols, xs)
    x_part = (1 << len(set(xs).intersection(basis))) - 1
    parts = {coords[i] & x_part for i in V._positions(Y)} - {0}
    if len(parts) != 1:
        raise ValueError("not an exact 2-separation")
    w = 0
    for k in bits(parts.pop()):
        w ^= V.cols[basis[k]]
    return w


def oracle_canonical_tree(
    M: BinaryMatroid, budget: Budget | None = None
) -> MatroidLabelledTree:
    """The canonical tree by the 2-separation backtrack: split each part
    at the first exact 2-separation exact_two_separations yields, with a
    marker carrying its split vector on both sides, until no part has
    one, then merge same-kind neighbours.  Blocks are searched like any
    other part."""
    if M.size < 1 or not is_connected(M):
        raise ValueError("decomposition needs a connected matroid")
    taken = set(M.labels)
    fresh = (lab for lab in map("m{}".format, count(1)) if lab not in taken)
    verts: list[BinaryMatroid | None] = [M]
    kinds: dict[int, str] = {}
    # each marker's two holders, the holder of its split's X side first
    ends: dict[str, list[int]] = {}
    pending = [0]
    while pending:
        v = pending.pop()
        V = verts[v]
        kinds[v] = _vertex_kind(V)
        if kinds[v] != "ThreeConnected":
            continue
        sep = next(exact_two_separations(V, budget), None)
        if sep is None:
            continue
        X, Y = sep
        marker = next(fresh)
        w = split_vector(V, X, Y)
        u = len(verts)
        verts[v] = restrict(V, X).extend(marker, w)
        verts.append(restrict(V, Y).extend(marker, w))
        for lab in ends.keys() & Y:
            ends[lab] = [u if h == v else h for h in ends[lab]]
        ends[marker] = [v, u]
        pending += [v, u]
    for lab in list(ends):
        a, b = ends[lab]
        if kinds[a] == kinds[b] != "ThreeConnected":
            _fold(verts, ends, lab)
    alive = [i for i, V in enumerate(verts) if V is not None]
    alive.sort(key=lambda i: sorted(verts[i].labels))
    remap = {old: new for new, old in enumerate(alive)}
    edges = sorted(
        (min(remap[a], remap[b]), max(remap[a], remap[b]), lab)
        for lab, (a, b) in ends.items()
    )
    return MatroidLabelledTree(
        tuple(verts[i] for i in alive),
        tuple(kinds[i] for i in alive),
        tuple(edges),
    )
