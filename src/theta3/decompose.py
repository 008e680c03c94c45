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

from itertools import count
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
    complete_graph_mapping,
    is_circuit,
    is_cocircuit,
    is_projective,
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


def _fold(verts: list[BinaryMatroid | None], ends: dict[str, list[int]], lab: str) -> None:
    """2-sum the second holder of marker lab into the first, which takes
    over the second's other markers."""
    a, b = ends.pop(lab)
    verts[a] = two_sum(verts[a], verts[b], lab, lab)
    for m in verts[b].labels:
        if m in ends:
            ends[m] = [a if h == b else h for h in ends[m]]
    verts[b] = None


def canonical_tree_decomposition(
    M: BinaryMatroid, *, budget: Budget | None = None
) -> MatroidLabelledTree:
    """Split along exact 2-separations, then merge same-kind neighbors.

    Each split takes the first exact 2-separation the search finds.  The
    canonical tree does not depend on that choice (Cunningham and
    Edmonds), so one build serves every reader of it.  A part that is
    M(K_n) or PG(r) is recognized as 3-connected, not searched.
    """
    if M.size < 1:
        raise ValueError("decomposition needs at least one element")
    if not is_connected(M):
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
        # M(K_n) for n >= 4 and PG(r) for r >= 3 are 3-connected, and
        # their smaller cases are circuits, so blocks need no search
        if kinds[v] != "ThreeConnected" or is_projective(V):
            continue
        if complete_graph_mapping(V) is not None:
            continue
        sep = next(exact_two_separations(V, budget), None)
        if sep is None:
            continue
        X, Y = sep
        marker = next(fresh)
        w = _split_vector(V, X, Y)
        u = len(verts)
        verts[v] = restrict(V, X).extend(marker, w)
        verts.append(restrict(V, Y).extend(marker, w))
        for lab in ends.keys() & Y:
            ends[lab] = [u if h == v else h for h in ends[lab]]
        ends[marker] = [v, u]
        pending += [v, u]

    # A 2-sum of two circuits is a circuit and of two cocircuits a
    # cocircuit (U_{1,a} 2-summed with U_{1,b} is U_{1,a+b-2}), so no
    # vertex ever changes kind, and an edge whose ends differ in kind
    # keeps differing.  So one pass over the markers in the order they
    # were made merges the same pairs, in the same order and with the
    # same holder first, as merging the first same-kind edge over and
    # over until none is left.
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
    ends = {lab: [a, b] for a, b, lab in T.edges}
    for _, _, lab in T.edges:
        _fold(verts, ends, lab)
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
