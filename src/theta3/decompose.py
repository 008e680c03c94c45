"""Canonical tree decomposition and recognition of the composable class.

A connected binary matroid decomposes along its exact 2-separations into
a tree of parts: 3-connected pieces, circuits, and cocircuits, glued by
2-sums across fresh marker elements.  Once no two circuits and no two
cocircuits are neighbours, the tree is the canonical one, unique up to
relabeling of the markers (Cunningham and Edmonds).

By the paper's theorem a member of the class generated by circuits,
complete-graph cycle matroids and binary projective geometries under
direct sums and parallel connections is a parallel connection of such
blocks, so its canonical tree is the cut-point tree that
construct.certificate walks.  canonical_tree_decomposition reads the
tree off that walk (construct.cut_walk), which goes on where the
certificate stops: a piece with no cut point is split at a vector of
its span that no column carries, and every exact 2-separation is such
a split.  classify_theta3 takes its verdict and recipe from the same
walk, and a recipe is returned only once it rebuilds the matroid.  A
matroid outside the class gets an incomplete theta as the concrete
witness whenever the search budget allows; the search runs only on the
piece the certificate could not cut, since that piece's incomplete
thetas are the matroid's own.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from theta3.budget import Budget, BudgetExceededError
from theta3.matroid import (
    BinaryMatroid,
    _coordinate_classes,
    connected_components,
    is_connected,
    simplify,
)
from theta3.construct import (
    BuildRecipe,
    Piece,
    _read_certificate,
    certificate,
    cut_walk,
    is_circuit,
    is_cocircuit,
    loops_and_copies,
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
    """The canonical tree, read off one walk of M's simplification.

    construct.cut_walk splits the simplification S at cut points and at
    missing vectors of the span, and its docstring proves that every
    exact 2-separation of a piece is one of these splits, so a piece it
    leaves whole is 3-connected.  Each walked piece becomes vertices:
    - a block is a vertex: C(n) a Circuit, M(K_n) and PG(r) ThreeConnected;
    - an uncut piece is a ThreeConnected vertex;
    - a piece cut at a point p is a Cocircuit hub {p, m_1..m_t}, and its
      i-th part holds m_i in p's place;
    - a piece split at a missing vector v into two parts is a 2-sum
      edge, whose marker carries v in both parts;
    - split into t >= 3 parts it is a hub of markers only, {m_1..m_t}.
    A marker keeps the column of the vector it stands for.  A parallel
    copy joins its element's hub, or its element moves to a hub of its
    own, {m, e, copies}, with m in e's place.  Every vertex has at least
    three elements, since a class of a split has at least two, so the
    tree is a 2-sum tree of M.  Splits inside pieces without a cut point
    can leave circuits next to circuits and hubs next to hubs, and one
    pass merges them with two_sum (see below), which leaves the
    canonical tree, unique by Cunningham and Edmonds.  Every vertex the
    merge leaves alone is in M's coordinates.  Each candidate vector
    the walk tries is one budget node.

    M keeps the walk, with the budget it was charged to, so that
    classify_theta3 under the same budget reads its verdict off this
    walk instead of walking again.
    """
    if M.size < 1:
        raise ValueError("decomposition needs at least one element")
    if not is_connected(M):
        comps = [sorted(c) for c in connected_components(M)]
        raise ValueError(f"decompose needs a connected matroid; components: {comps}")

    taken = M.label_set
    fresh = (lab for lab in map("m{}".format, count(1)) if lab not in taken)
    S = simplify(M)
    pieces = (cut_walk(S, budget, fresh),) if S.size else ()
    M.__dict__["_walk"] = (budget, pieces)
    if S.size <= 1:
        return MatroidLabelledTree((M,), (_vertex_kind(M),), ())

    copies: dict[str, list[str]] = {}
    if not M.is_simple:
        for lab, rep in loops_and_copies(M)[1]:
            copies.setdefault(rep, []).append(lab)

    verts: list[BinaryMatroid | None] = []
    kinds: list[str] = []

    def hub(labels: list[str], col: int) -> None:
        verts.append(BinaryMatroid._derived(tuple(labels), (col,) * len(labels), M.dim))
        kinds.append("Cocircuit")

    # pieces to place, each with the markers its labels are renamed to
    # because a hub above holds the label itself
    stack: list[tuple[Piece, dict[str, str]]] = [(pieces[0], {})]
    while stack:
        (V, leaf, at, parts), names = stack.pop()
        if not parts:
            for rep in V.labels:
                if rep in copies and rep not in names:
                    names = {**names, rep: next(fresh)}
                    hub([names[rep], rep, *copies[rep]], M.col_of(rep))
            verts.append(V.relabel(names) if names else V)
            kinds.append("Circuit" if leaf and leaf.kind == "C" else "ThreeConnected")
        elif at in V.label_set:
            marks = [next(fresh) for _ in parts]
            own = [] if at in names else copies.get(at, [])
            hub([names.get(at, at), *own, *marks], V.col_of(at))
            stack += [(part, {**names, at: m}) for part, m in zip(parts, marks)][::-1]
        elif len(parts) > 2:
            # the first part keeps the walk's marker
            marks = [at] + [next(fresh) for _ in parts[1:]]
            hub(marks, parts[0].matroid.col_of(at))
            stack += [(part, {**names, at: m}) for part, m in zip(parts, marks)][::-1]
        else:
            stack += [(part, names) for part in parts[::-1]]

    # each marker's two holders, in the order the vertices were made
    ends: dict[str, list[int]] = {}
    for i, V in enumerate(verts):
        for lab in V.labels:
            if lab not in taken:
                ends.setdefault(lab, []).append(i)
    # A 2-sum of two circuits is a circuit and of two cocircuits a
    # cocircuit (U_{1,a} 2-summed with U_{1,b} is U_{1,a+b-2}), so no
    # vertex ever changes kind, and an edge whose ends differ in kind
    # keeps differing.  So one pass over the markers merges every pair
    # of same-kind neighbours, whatever the order.
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
    the budget allows the search, else a note naming that piece.  After
    canonical_tree_decomposition(M) under the same budget, the verdict
    is read off that call's walk: its first piece that is neither a
    block nor cut at a point is the certificate's piece, in M's labels,
    since the walk cuts at points exactly as the certificate does.
    """
    walked = M.__dict__.get("_walk")
    if walked is not None and walked[0] is budget:
        found = _read_certificate(M, walked[1])
    else:
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
