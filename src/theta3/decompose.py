"""Canonical tree decomposition and recognition of the composable class.

A connected binary matroid decomposes along its exact 2-separations into
a tree of parts: 3-connected pieces, circuits, and cocircuits, glued by
2-sums across fresh marker elements.  Splitting until every vertex is
one of those three kinds and then merging adjacent circuit pairs and
adjacent cocircuit pairs yields the canonical tree, which is unique up
to relabeling of the markers.

classify_theta3 decides membership in the class generated by circuits,
complete-graph cycle matroids, and binary projective geometries under
direct sums and parallel connections without building that tree.  Its
verdict and recipe come from construct.certificate, which cuts each
component at cut points and returns a recipe only once it rebuilds the
matroid.  A matroid outside the class gets an incomplete theta as the
concrete witness whenever the search budget allows; the search runs
only on the piece the certificate could not cut, since that piece's
incomplete thetas are the matroid's own.
"""

from __future__ import annotations

from typing import NamedTuple

from theta3.budget import Budget, BudgetExceededError
from theta3.gf2 import bits, greedy_coordinates
from theta3.matroid import (
    BinaryMatroid,
    _coordinate_classes,
    exact_two_separations,
    is_connected,
    restrict,
)
from theta3.construct import (
    BuildRecipe,
    certificate,
    is_circuit,
    is_cocircuit,
    two_sum,
)
from theta3.theta import ThetaGraph, is_theta3_closed

__all__ = [
    "MatroidLabelledTree",
    "canonical_tree_decomposition",
    "recompose",
    "Verdict",
    "classify_theta3",
]


# -- the tree -------------------------------------------------------------


class MatroidLabelledTree(NamedTuple):
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


def _vertex_kind(V: BinaryMatroid) -> str:
    # U_{1,2} is both a circuit and a cocircuit; circuit wins.
    if is_circuit(V):
        return "Circuit"
    if is_cocircuit(V):
        return "Cocircuit"
    return "ThreeConnected"


def _split_vector(V: BinaryMatroid, X: frozenset[str], Y: frozenset[str]) -> int:
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


def canonical_tree_decomposition(
    M: BinaryMatroid, *, budget: Budget | None = None
) -> MatroidLabelledTree:
    """Split along exact 2-separations, then merge same-kind neighbors.

    Each split takes the first exact 2-separation the search finds.  The
    canonical tree does not depend on that choice (Cunningham and
    Edmonds), so one build serves every reader of it.
    """
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
        sep = next(exact_two_separations(V, budget), None)
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
    markers = T.marker_labels
    for lab, vs in where.items():
        if len(vs) > 2:
            raise ValueError(f"tree invariant violated: label {lab!r} in {len(vs)} vertices")
        if len(vs) == 2 and lab not in markers:
            raise ValueError(
                f"tree invariant violated: label {lab!r} shared without an edge"
            )
    # n - 1 edges: connected is the same as acyclic, so this is a tree
    classes = _coordinate_classes(1 << a | 1 << b for a, b, _ in T.edges)
    if n > 1 and classes != [(1 << n) - 1]:
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


# -- classification -------------------------------------------------------


class Verdict(NamedTuple):
    in_class: bool
    recipe: BuildRecipe | None = None
    witness: ThetaGraph | str | None = None


def classify_theta3(M: BinaryMatroid, budget: Budget | None = None) -> Verdict:
    """Decide membership in the composable class and synthesize a recipe.

    InClass verdicts carry the certificate's BuildRecipe, whose
    evaluate() reproduces M exactly.  NotInClass verdicts carry an
    incomplete theta of the piece the certificate could not cut when
    the budget allows the search, else a note naming that piece.
    """
    found = certificate(M, budget)
    if isinstance(found, BuildRecipe):
        return Verdict(True, found)
    piece = sorted(found.labels)
    try:
        closed, wit = is_theta3_closed(found, use_shortcut=False, budget=budget)
    except BudgetExceededError:
        return Verdict(
            False, None, f"the piece on {piece} is neither a block nor cut at a point"
        )
    if closed:
        raise RuntimeError(
            f"classification mismatch: the piece on {piece} is neither a block "
            f"nor cut at a point, yet no incomplete theta exists in it"
        )
    return Verdict(False, None, wit)
