"""Canonical tree decomposition and recognition of the composable class.

A connected binary matroid decomposes along its exact 2-separations into
a tree of parts: 3-connected pieces, circuits, and cocircuits, glued by
2-sums across fresh marker elements.  Splitting until every vertex is
one of those three kinds and then merging adjacent circuit pairs and
adjacent cocircuit pairs yields the canonical tree, which is unique up
to relabeling of the markers.

classify_theta3 reads membership in the class generated by circuits,
complete-graph cycle matroids, and binary projective geometries under
direct sums and parallel connections straight off that tree: cocircuit
vertices are the gluing hubs and must retain exactly one real element
(the shared point), every 3-connected vertex must be a complete-graph
or projective block, and every tree edge must join a block to a hub.
A tree that satisfies all three conditions folds back into a nested
parallel-connection recipe; a tree that violates one certifies the
matroid sits outside the class, and an incomplete theta subgraph is
produced as the concrete witness whenever the search budget allows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

from theta3.budget import Budget, BudgetExceededError
from theta3.gf2 import Echelon, bits
from theta3.matroid import (
    BinaryMatroid,
    connected_components,
    direct_sum,
    exact_two_separations,
    is_connected,
    restrict,
    simplify,
    union_find_roots,
)
from theta3.construct import (
    circuit_matroid,
    circuit_mapping,
    complete_graph_mapping,
    complete_graph_matroid,
    is_circuit,
    is_cocircuit,
    parallel_connection,
    projective_geometry,
    projective_mapping,
    two_sum,
)
from theta3.theta import ThetaGraph, is_theta3_closed

__all__ = [
    "MatroidLabelledTree",
    "two_separations",
    "canonical_tree_decomposition",
    "recompose",
    "trees_equivalent",
    "Leaf",
    "PNode",
    "DNode",
    "BuildRecipe",
    "serialize_term",
    "parse_recipe",
    "evaluate_term",
    "Verdict",
    "classify_theta3",
]


def two_separations(
    M: BinaryMatroid, budget: Budget | None = None
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All exact 2-separations, smaller side first, in canonical order."""
    seps = list(exact_two_separations(M, budget))
    seps.sort(key=lambda p: (len(p[0]), sorted(p[0]), sorted(p[1])))
    return seps


# -- the tree -------------------------------------------------------------


@dataclass(frozen=True)
class MatroidLabelledTree:
    """Tree of matroid parts joined by shared marker elements.

    edges hold (i, j, label) where label is an element of both
    vertices[i] and vertices[j] and of nothing else; kinds[i] is one of
    "Circuit", "Cocircuit", "ThreeConnected".
    """

    vertices: tuple[BinaryMatroid, ...]
    kinds: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]

    @property
    def marker_labels(self) -> frozenset[str]:
        return frozenset(lab for _, _, lab in self.edges)

    def degree(self, i: int) -> int:
        return sum(1 for a, b, _ in self.edges if i in (a, b))


def _vertex_kind(V: BinaryMatroid) -> str:
    # U_{1,2} is both a circuit and a cocircuit; circuit wins.
    if is_circuit(V):
        return "Circuit"
    if is_cocircuit(V):
        return "Cocircuit"
    return "ThreeConnected"


def _split_vector(V: BinaryMatroid, X: frozenset[str], Y: frozenset[str]) -> int:
    """The unique nonzero vector of span(X) intersect span(Y).

    Exactness of the separation makes that intersection a line.  A basis
    of X goes into a tracked echelon; feeding a basis of Y after it,
    exactly one Y basis vector reduces to zero, and the X-origin mask it
    accumulated names the X combination equal to the wanted vector.
    """
    xb: list[int] = []
    ech = Echelon()
    for i in sorted(V._positions(X)):
        if ech.insert(V.cols[i], 1 << len(xb)):
            xb.append(V.cols[i])
    eyy = Echelon()
    yb = [V.cols[i] for i in sorted(V._positions(Y)) if eyy.insert(V.cols[i])]
    for c in yb:
        res, orig = ech.tracked_residue(c)
        if res == 0:
            w = 0
            for k in bits(orig):
                w ^= xb[k]
            return w
        ech.insert(c)
    raise ValueError("not an exact 2-separation")


def canonical_tree_decomposition(
    M: BinaryMatroid, *, order: str = "default", budget: Budget | None = None
) -> MatroidLabelledTree:
    """Split along exact 2-separations, then merge same-kind neighbors.

    order chooses which separation each split takes ("default": first
    found, "reverse": last in canonical order) so tests can confirm the
    result is the same tree up to marker relabeling either way.
    """
    if order not in ("default", "reverse"):
        raise ValueError(f"order must be 'default' or 'reverse', not {order!r}")
    if M.size < 1:
        raise ValueError("decomposition needs at least one element")
    if not is_connected(M):
        raise ValueError("decomposition needs a connected matroid")

    used = set(M.labels)
    counter = 0

    def fresh_marker() -> str:
        nonlocal counter
        while True:
            counter += 1
            lab = f"m{counter}"
            if lab not in used:
                used.add(lab)
                return lab

    verts: list[BinaryMatroid | None] = [M]
    kinds: list[str | None] = [None]
    edges: list[tuple[int, int, str]] = []
    pending = [0]
    while pending:
        v = pending.pop()
        V = verts[v]
        kind = _vertex_kind(V)
        if kind != "ThreeConnected":
            kinds[v] = kind
            continue
        if order == "default":
            sep = next(exact_two_separations(V, budget), None)
        else:
            seps = two_separations(V, budget)
            sep = seps[-1] if seps else None
        if sep is None:
            kinds[v] = "ThreeConnected"
            continue
        X, Y = sep
        marker = fresh_marker()
        w = _split_vector(V, X, Y)
        verts[v] = restrict(V, X).extend(marker, w)
        verts.append(restrict(V, Y).extend(marker, w))
        kinds.append(None)
        u = len(verts) - 1
        for idx, (a, b, lab) in enumerate(edges):
            if a == v and lab in Y:
                edges[idx] = (u, b, lab)
            elif b == v and lab in Y:
                edges[idx] = (a, u, lab)
        edges.append((v, u, marker))
        pending += [v, u]

    def merge_once() -> bool:
        for e in edges:
            a, b, lab = e
            if kinds[a] == kinds[b] and kinds[a] in ("Circuit", "Cocircuit"):
                merged = two_sum(verts[a], verts[b], lab, lab)
                verts[a] = merged
                kinds[a] = _vertex_kind(merged)
                verts[b] = None
                kinds[b] = None
                edges.remove(e)
                for i, (x, y, l) in enumerate(edges):
                    edges[i] = (a if x == b else x, a if y == b else y, l)
                return True
        return False

    while merge_once():
        pass

    alive = [i for i in range(len(verts)) if verts[i] is not None]
    alive.sort(key=lambda i: sorted(verts[i].labels))
    remap = {old: new for new, old in enumerate(alive)}
    out_edges = sorted(
        (min(remap[a], remap[b]), max(remap[a], remap[b]), lab) for a, b, lab in edges
    )
    return MatroidLabelledTree(
        tuple(verts[i] for i in alive),
        tuple(kinds[i] for i in alive),
        tuple(out_edges),
    )


def _check_tree(T: MatroidLabelledTree) -> None:
    n = len(T.vertices)
    if n < 1:
        raise ValueError("tree invariant violated: no vertices")
    if len(T.kinds) != n:
        raise ValueError("tree invariant violated: kinds/vertices length mismatch")
    if len(T.edges) != n - 1:
        raise ValueError("tree invariant violated: edge count is not n-1")
    where: dict[str, list[int]] = {}
    for i, V in enumerate(T.vertices):
        if n > 1 and V.size < 3:
            raise ValueError(f"tree invariant violated: vertex {i} has < 3 elements")
        for lab in V.labels:
            where.setdefault(lab, []).append(i)
    for a, b, lab in T.edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"tree invariant violated: bad edge ({a}, {b})")
        if sorted(where.get(lab, [])) != sorted((a, b)):
            raise ValueError(
                f"tree invariant violated: edge label {lab!r} is not shared by "
                f"exactly its two endpoints"
            )
    for lab, vs in where.items():
        if len(vs) > 2:
            raise ValueError(f"tree invariant violated: label {lab!r} in {len(vs)} vertices")
        if len(vs) == 2 and lab not in {l for _, _, l in T.edges}:
            raise ValueError(
                f"tree invariant violated: label {lab!r} shared without an edge"
            )
    # n - 1 edges: connected is the same as acyclic, so this is a tree
    if len(set(union_find_roots(n, ((a, b) for a, b, _ in T.edges)))) != 1:
        raise ValueError("tree invariant violated: tree is not connected")


def recompose(T: MatroidLabelledTree) -> BinaryMatroid:
    """Fold the tree back into one matroid by 2-summing along every edge."""
    _check_tree(T)
    verts: list[BinaryMatroid | None] = list(T.vertices)
    edges = list(T.edges)
    while edges:
        a, b, lab = edges.pop(0)
        verts[a] = two_sum(verts[a], verts[b], lab, lab)
        verts[b] = None
        edges = [(a if x == b else x, a if y == b else y, l) for x, y, l in edges]
    return next(V for V in verts if V is not None)


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


# -- build recipes --------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """One block: kind "C" (circuit), "MK", or "PG" with its size parameter.

    relabel maps the constructor's labels onto the final ones; identity
    entries are omitted.
    """

    kind: str
    param: int
    relabel: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class PNode:
    left: "Leaf | PNode | DNode"
    right: "Leaf | PNode | DNode"
    base_left: str
    base_right: str


@dataclass(frozen=True)
class DNode:
    parts: tuple["Leaf | PNode | DNode", ...]


Term = Leaf | PNode | DNode


def serialize_term(t: Term) -> str:
    if isinstance(t, Leaf):
        return f"{t.kind}({t.param})"
    if isinstance(t, PNode):
        base = (
            t.base_left
            if t.base_left == t.base_right
            else f"{t.base_left},{t.base_right}"
        )
        return f"P({serialize_term(t.left)}, {serialize_term(t.right)}; base={base})"
    return "D(" + ", ".join(serialize_term(p) for p in t.parts) + ")"


def evaluate_term(t: Term) -> BinaryMatroid:
    if isinstance(t, Leaf):
        maker = {
            "C": circuit_matroid,
            "MK": complete_graph_matroid,
            "PG": projective_geometry,
        }.get(t.kind)
        if maker is None:
            raise ValueError(f"unknown leaf kind {t.kind!r}")
        m = maker(t.param)
        return m.relabel(dict(t.relabel)) if t.relabel else m
    if isinstance(t, PNode):
        return parallel_connection(
            evaluate_term(t.left), evaluate_term(t.right), t.base_left, t.base_right
        )
    out = evaluate_term(t.parts[0])
    for p in t.parts[1:]:
        out = direct_sum(out, evaluate_term(p))
    return out


_TOKEN = re.compile(r"[(),;=]|[^\s(),;=]+")


def parse_recipe(text: str) -> Term:
    """Parse term text like P(MK(4), C(3); base=1-2).

    The grammar carries no relabel maps, so a parsed term builds with
    the constructors' own labels.
    """
    toks = _TOKEN.findall(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of recipe")
        t = toks[pos]
        pos += 1
        if expected is not None and t != expected:
            raise ValueError(f"expected {expected!r}, got {t!r}")
        return t

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def term() -> Term:
        head = take()
        if head in ("C", "MK", "PG"):
            take("(")
            num = take()
            if not num.isdigit():
                raise ValueError(f"{head} needs an integer parameter, got {num!r}")
            take(")")
            return Leaf(head, int(num))
        if head == "P":
            take("(")
            left = term()
            take(",")
            right = term()
            take(";")
            if take() != "base":
                raise ValueError("P needs a base= clause")
            take("=")
            bl = take()
            br = bl
            if peek() == ",":
                take(",")
                br = take()
            take(")")
            return PNode(left, right, bl, br)
        if head == "D":
            take("(")
            parts = [term()]
            while peek() == ",":
                take(",")
                parts.append(term())
            take(")")
            if len(parts) < 2:
                raise ValueError("D needs at least two parts")
            return DNode(tuple(parts))
        raise ValueError(f"unknown recipe head {head!r}")

    out = term()
    if pos != len(toks):
        raise ValueError(f"trailing recipe tokens: {toks[pos:]}")
    return out


@dataclass(frozen=True)
class BuildRecipe:
    """Term tree plus loop and parallel annotations.

    evaluate() reproduces the classified matroid exactly, circuits and
    labels included.  serialize() prints only the term shape; the label
    maps live on the Leaf objects.
    """

    term: Term | None
    loops: tuple[str, ...] = ()
    parallel: tuple[tuple[str, str], ...] = ()

    def serialize(self) -> str:
        return serialize_term(self.term) if self.term is not None else "EMPTY"

    def evaluate(self) -> BinaryMatroid:
        m = (
            evaluate_term(self.term)
            if self.term is not None
            else BinaryMatroid((), (), 0)
        )
        for extra, rep in self.parallel:
            m = m.extend(extra, m.col_of(rep))
        for lab in self.loops:
            m = m.extend(lab, 0)
        return m


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    in_class: bool
    recipe: BuildRecipe | None = None
    witness: ThetaGraph | str | None = None


def _leaf_for_block(
    V: BinaryMatroid, final: dict[str, str], budget: Budget | None
) -> Leaf | None:
    """Recognize a tree block and wire its relabel map, or None."""
    mapping = circuit_mapping(V)
    if mapping is not None:
        kind, param = "C", V.size
    else:
        mapping = complete_graph_mapping(V, budget)
        if mapping is not None:
            kind, param = "MK", (1 + isqrt(1 + 8 * V.size)) // 2
        else:
            mapping = projective_mapping(V)
            if mapping is None:
                return None
            kind, param = "PG", V.rank
    relabel = tuple(
        sorted(
            (cons, final[orig])
            for cons, orig in mapping.items()
            if cons != final[orig]
        )
    )
    return Leaf(kind, param, relabel)


def _component_term(
    C: BinaryMatroid, budget: Budget | None
) -> tuple[Term | None, str | None]:
    """Build the component's term, or return a structural objection."""
    whole = _leaf_for_block(C, {lab: lab for lab in C.labels}, budget)
    if whole is not None:
        return whole, None
    tree = canonical_tree_decomposition(C, budget=budget)
    markers = tree.marker_labels
    real = [sorted(set(V.labels) - markers) for V in tree.vertices]

    for a, b, _ in tree.edges:
        hubs = (tree.kinds[a] == "Cocircuit") + (tree.kinds[b] == "Cocircuit")
        if hubs == 0:
            return None, (
                f"blocks on {real[a]} and {real[b]} meet in a 2-sum "
                f"with no retained shared point"
            )
        if hubs == 2:
            return None, "two gluing hubs meet edge to edge"

    base: dict[int, str] = {}
    for i, V in enumerate(tree.vertices):
        if tree.kinds[i] != "Cocircuit":
            continue
        if len(real[i]) != 1 or V.size != tree.degree(i) + 1:
            return None, (
                f"gluing hub on {sorted(V.labels)} retains {len(real[i])} "
                f"shared points instead of one"
            )
        base[i] = real[i][0]

    adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(tree.vertices))}
    for a, b, lab in tree.edges:
        adj[a].append((b, lab))
        adj[b].append((a, lab))

    leaves: dict[int, Leaf] = {}
    for i, V in enumerate(tree.vertices):
        if tree.kinds[i] == "Cocircuit":
            continue
        final = {lab: lab for lab in real[i]}
        for j, lab in adj[i]:
            final[lab] = base[j]
        leaf = _leaf_for_block(V, final, budget)
        if leaf is None:
            return None, (
                f"3-connected block on {real[i]} is neither a complete-graph "
                f"nor a projective block"
            )
        leaves[i] = leaf

    blocks = sorted(leaves)
    if not blocks:
        return None, "decomposition tree has gluing hubs only"
    root = min(blocks, key=lambda i: (real[i], sorted(tree.vertices[i].labels)))

    def block_term(b: int, parent_hub: int | None) -> Term:
        t: Term = leaves[b]
        for h, _ in sorted(adj[b]):
            if h == parent_hub:
                continue
            p = base[h]
            for c, _ in sorted(adj[h]):
                if c != b:
                    t = PNode(t, block_term(c, h), p, p)
        return t

    return block_term(root, None), None


def classify_theta3(M: BinaryMatroid, budget: Budget | None = None) -> Verdict:
    """Decide membership in the composable class and synthesize a recipe.

    InClass verdicts carry a BuildRecipe whose evaluate() reproduces M
    exactly.  NotInClass verdicts carry an incomplete theta subgraph
    when the budget allows the search, else the structural objection.
    """
    loops = tuple(sorted(M.loops()))
    parallel: list[tuple[str, str]] = []
    for cls in M.parallel_classes():
        if len(cls) > 1:
            rep = min(cls)
            parallel.extend((other, rep) for other in sorted(cls - {rep}))
    S = simplify(M)
    if S.size == 0:
        return Verdict(True, BuildRecipe(None, loops, tuple(parallel)))
    terms = []
    for comp in sorted(connected_components(S), key=sorted):
        sub = restrict(S, comp)
        term, objection = _component_term(sub, budget)
        if term is None:
            try:
                closed, wit = is_theta3_closed(sub, budget=budget)
            except BudgetExceededError:
                return Verdict(False, None, objection)
            if closed:
                raise RuntimeError(
                    f"classification mismatch: {objection}, yet no incomplete "
                    f"theta exists in the component on {sorted(comp)}"
                )
            return Verdict(False, None, wit)
        terms.append(term)
    term = terms[0] if len(terms) == 1 else DNode(tuple(terms))
    return Verdict(True, BuildRecipe(term, loops, tuple(parallel)))
