"""Constructors, composition (parallel connection, 2-sum), recognizers,
build recipes and the recipe certificate.

The building blocks here are the three block families the rest of the
package keeps meeting: circuits U_{n-1,n}, cycle matroids of complete
graphs M(K_n) (all weight-1 and weight-2 vectors of dimension n-1), and
binary projective geometries PG(r-1,2) (all nonzero vectors of dimension
r).  The recognizers answer the converse question, and their _mapping
variants also return an explicit isomorphism onto the constructor's
labeling, which recipe synthesis needs.

Parallel connection glues two matroids across one shared point.  Both
sides are re-coordinatized so the basepoint column becomes the first
unit vector; the two coordinate blocks then overlap in exactly that
first row.  A loop basepoint cannot be moved to a unit column, and the
convention for that degenerate case is a direct sum with the basepoint
contracted on the other side.  Coloop basepoints need no special case:
after the change of basis the rest of that side avoids row 1 entirely,
so the construction degenerates to the right direct sum by itself.

A build recipe is a term over the three block families with direct
sums (D) and parallel connections (P), plus the loops and parallel
copies to add back.  certificate() finds one for a theta-closed matroid
by splitting at cut points, and returns it only once it has checked
that the recipe rebuilds the matroid; for any other matroid it returns
the piece it could not cut.  Its walk is cut_walk, which, given marker
names, goes on to split the pieces without a cut point at the vectors
their columns miss: decompose reads the canonical tree off that walk.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Collection, Iterator, NamedTuple, Sequence

from theta3.budget import Budget
from theta3.gf2 import MAX_DIM, DimensionError, bits, greedy_coordinates
from theta3.matroid import (
    BinaryMatroid,
    _coordinate_classes,
    cached_property,
    connected_components,
    contract,
    delete,
    direct_sum,
    dual,
    restrict,
    same_matroid,
    simplify,
)

__all__ = [
    "circuit_matroid",
    "complete_graph_matroid",
    "projective_geometry",
    "cycle_matroid",
    "parallel_connection",
    "two_sum",
    "is_projective",
    "is_circuit",
    "is_cocircuit",
    "circuit_mapping",
    "complete_graph_mapping",
    "projective_mapping",
    "Leaf",
    "PNode",
    "DNode",
    "BuildRecipe",
    "serialize_term",
    "parse_recipe",
    "evaluate_term",
    "loops_and_copies",
    "block_leaf",
    "certificate",
    "catalog_matroid",
    "catalog_listing",
    "complete_bipartite_edges",
    "theta_edges",
]


# -- constructors --------------------------------------------------------


def circuit_matroid(n: int) -> BinaryMatroid:
    """U_{n-1,n} on labels e1..en: n-1 units plus their sum (n=1: a loop)."""
    if n < 1:
        raise ValueError("circuit_matroid needs n >= 1")
    if n - 1 > MAX_DIM:
        raise DimensionError(f"circuit on {n} elements needs dimension {n - 1}")
    labels = tuple(f"e{i}" for i in range(1, n + 1))
    units = [1 << i for i in range(n - 1)]
    total = 0
    for u in units:
        total ^= u
    return BinaryMatroid(labels, tuple(units + [total]), n - 1)


def complete_graph_matroid(n: int) -> BinaryMatroid:
    """M(K_n) on labels "i-j": vertex n is grounded, so its edges are units."""
    if n < 1:
        raise ValueError("complete_graph_matroid needs n >= 1")
    if n - 1 > MAX_DIM:
        raise DimensionError(f"M(K_{n}) needs dimension {n - 1}")
    labels = []
    cols = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            labels.append(f"{i}-{j}")
            c = 1 << (i - 1)
            if j < n:
                c ^= 1 << (j - 1)
            cols.append(c)
    return BinaryMatroid(tuple(labels), tuple(cols), n - 1)


def projective_geometry(r: int) -> BinaryMatroid:
    """PG(r-1,2) on labels p1..p(2^r-1); the label index is the column value."""
    if r < 1:
        raise ValueError("projective_geometry needs rank >= 1")
    if r > MAX_DIM:
        raise DimensionError(f"projective geometry of rank {r} exceeds MAX_DIM")
    count = (1 << r) - 1
    return BinaryMatroid(
        tuple(f"p{k}" for k in range(1, count + 1)),
        tuple(range(1, count + 1)),
        r,
    )


def cycle_matroid(edges: list[tuple[str, str, str]]) -> BinaryMatroid:
    """Vertex-edge incidence columns over GF(2); graph loops become loops.

    Rows are the sorted vertices.  A graph with more than MAX_DIM
    vertices is rewritten over a spanning forest (the greedy basis of
    its edges), so any graph of rank <= MAX_DIM fits.  The edges are
    read by _Graph, whose union-find counts the rank first, so a larger
    rank raises before any column is built.
    """
    for e in edges:
        if len(e) != 3:
            raise ValueError(f"edge must be (u, v, label), got {e!r}")
    return _Graph(edges).matroid


def _incidence_matroid(
    edges: list[tuple[str, str, str]], verts: Collection[str]
) -> BinaryMatroid:
    """cycle_matroid(edges), given the vertices verts of the (u, v,
    label) edges, whose rank _Graph has checked."""
    pos = {v: i for i, v in enumerate(sorted(verts))}
    labels = tuple(lab for _, _, lab in edges)
    cols = tuple((1 << pos[u]) ^ (1 << pos[v]) for u, v, _ in edges)
    if len(verts) <= MAX_DIM:
        return BinaryMatroid(labels, cols, len(verts))
    coords, forest = greedy_coordinates(cols)
    return BinaryMatroid(labels, tuple(coords), len(forest))


class _Graph:
    """An edge list read in one pass, for the flows.

    Vertices are numbered in the order in which they first appear
    (vertices maps each to its number), and first maps each ordered
    pair (a, b) of adjacent vertices to the index of the first edge
    between them; loops add no pair.  rank is the rank of the cycle
    matroid, the number of vertices minus the number of components,
    which a union-find over the adjacent pairs counts.  The pass
    rejects a rank above MAX_DIM and then a repeated label.  The cycle
    matroid itself (cycle_matroid) is built only when matroid is read,
    from the edges this pass has checked.
    """

    def __init__(self, edges: list[tuple[str, str, str]]):
        index: dict[str, int] = {}
        first: dict[tuple[int, int], int] = {}
        root = list(range(2 * len(edges)))
        rank = 0
        for j, (u, v, _) in enumerate(edges):
            a = index.setdefault(u, len(index))
            b = index.setdefault(v, len(index))
            if a == b or (a, b) in first:
                continue
            first[a, b] = first[b, a] = j
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                rank += 1
        if rank > MAX_DIM:
            raise DimensionError(f"graph of rank {rank} exceeds MAX_DIM = {MAX_DIM}")
        if len({lab for _, _, lab in edges}) != len(edges):
            raise ValueError("labels must be pairwise distinct")
        self.edges = edges
        self.vertices = index
        self.n = len(index)
        self.first = first
        self.size = len(edges)
        self.rank = rank

    @cached_property
    def matroid(self) -> BinaryMatroid:
        return _incidence_matroid(self.edges, self.vertices)


# -- graph edge lists used by the catalog and the test samplers ----------


def complete_bipartite_edges(m: int, n: int) -> list[tuple[str, str, str]]:
    return [
        (f"u{i}", f"w{j}", f"u{i}w{j}")
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]


def theta_edges(a: int, b: int, c: int) -> list[tuple[str, str, str]]:
    """Two vertices joined by three internally disjoint paths of the given
    lengths; the graph's rank, a + b + c - 2, is checked before any edge
    is built."""
    if min(a, b, c) < 1:
        raise ValueError("path lengths must be >= 1")
    if a + b + c - 2 > MAX_DIM:
        raise DimensionError(f"graph of rank {a + b + c - 2} exceeds MAX_DIM = {MAX_DIM}")
    edges = []
    for name, length in (("A", a), ("B", b), ("C", c)):
        prev = "x"
        for k in range(1, length):
            nxt = f"{name.lower()}{k}"
            edges.append((prev, nxt, f"{name}{k}"))
            prev = nxt
        edges.append((prev, "y", f"{name}{length}"))
    return edges


# -- composition ---------------------------------------------------------


def parallel_connection(M: BinaryMatroid, N: BinaryMatroid, pM: str, pN: str) -> BinaryMatroid:
    """Glue M and N across one shared point; the point keeps label pM.

    Loop basepoints degenerate to a direct sum with the basepoint
    contracted on the other side (the loop itself survives).  All other
    cases, coloops included, go through the shared-unit construction.
    """
    cM = M.col_of(pM)
    cN = N.col_of(pN)
    clash = (M.label_set - {pM}) & (N.label_set - {pN})
    if clash:
        raise ValueError(f"label collision outside basepoint: {sorted(clash)}")
    if cM == 0:
        return direct_sum(M, contract(N, [pN]))
    if cN == 0:
        return direct_sum(contract(M, [pM]), N.relabel({pN: pM}))
    # Rank coordinates with each basepoint column mapped to e1.
    am, bm = greedy_coordinates(M.cols, [M._index[pM]])
    an, bn = greedy_coordinates(N.cols, [N._index[pN]])
    rm = len(bm)
    dim = rm + len(bn) - 1
    if dim > MAX_DIM:
        raise DimensionError(f"parallel connection needs dimension {dim} > {MAX_DIM}")
    labels = M.labels + tuple(lab for lab in N.labels if lab != pN)
    cols = list(am)
    for j, lab in enumerate(N.labels):
        if lab == pN:
            continue
        c = an[j]
        cols.append((c & 1) | (c >> 1) << rm)
    return BinaryMatroid(labels, tuple(cols), dim)


def two_sum(M: BinaryMatroid, N: BinaryMatroid, pM: str, pN: str) -> BinaryMatroid:
    """Parallel connection with the glue point removed afterwards."""
    if M.size < 3 or N.size < 3:
        raise ValueError("two_sum needs at least 3 elements on each side")
    return delete(parallel_connection(M, N, pM, pN), [pM])


# -- recognizers ---------------------------------------------------------


def is_circuit(M: BinaryMatroid) -> bool:
    """E(M) itself is a circuit: columns sum to zero with a single dependency."""
    if M.size < 1:
        return False
    total = 0
    for c in M.cols:
        total ^= c
    return total == 0 and M.rank == M.size - 1


def is_cocircuit(M: BinaryMatroid) -> bool:
    """The dual is a circuit, i.e. M = U_{1,n}: rank 1, no loops."""
    return M.size >= 1 and M.rank == 1 and 0 not in M.cols


def is_projective(M: BinaryMatroid) -> bool:
    """Simple with every nonzero vector of its span present: 2^rank - 1 points."""
    return M.size >= 1 and M.is_simple and M.size == (1 << M.rank) - 1


def circuit_mapping(M: BinaryMatroid) -> dict[str, str] | None:
    """Constructor-label to M-label isomorphism, if M is a circuit.

    Any bijection works: every permutation of U_{n-1,n} is an automorphism.
    """
    if not is_circuit(M):
        return None
    return {f"e{i + 1}": lab for i, lab in enumerate(sorted(M.labels))}


def projective_mapping(M: BinaryMatroid) -> dict[str, str] | None:
    """Map p<k> labels onto M, if projective; any basis change is an automorphism."""
    if not is_projective(M):
        return None
    coords, _ = M.coordinates
    return {f"p{c}": M.labels[i] for i, c in enumerate(coords)}


def complete_graph_mapping(M: BinaryMatroid) -> dict[str, str] | None:
    """Constructor-label to M-label isomorphism, if M is some M(K_n).

    Count and rank filters first.  Then the basis is built directly: e is
    the first element, f the first element whose sum with e is a column,
    and every g other than e, f and e + f whose sums with e and with f are
    both columns joins them.  Two edges of K_n sum to an edge exactly when
    they share a vertex, so in M(K_n) with n >= 3 this is the edge star at
    the vertex e and f share, a basis.  The matrix is standardized over
    it.  If all columns come out with weight <= 2 they are C(n,2) distinct
    such vectors, which is all of them, and that forces M(K_n) exactly
    whatever basis was used, so a non-member can only return None.
    """
    if not M.is_simple and M.size > 0:
        return None
    s = M.size
    n = (1 + isqrt(1 + 8 * s)) // 2
    if n * (n - 1) // 2 != s or M.rank != n - 1:
        return None
    cols, colset = M.cols, M.colset
    star = [0] if s else []
    f = next((i for i in range(1, s) if cols[0] ^ cols[i] in colset), None)
    if f is not None:
        ef = cols[0] ^ cols[f]
        star += [f] + [
            g
            for g in range(f + 1, s)
            if cols[g] != ef and cols[g] ^ cols[0] in colset and cols[g] ^ cols[f] in colset
        ]
    coords, _ = greedy_coordinates(cols, star)
    mapping: dict[str, str] = {}
    for i, c in enumerate(coords):
        w = c.bit_count()
        if w > 2:
            return None
        if w == 1:
            a = c.bit_length()
            constructed = f"{a}-{n}"
        else:
            b = c.bit_length()
            a = (c ^ (1 << (b - 1))).bit_length()
            constructed = f"{a}-{b}"
        mapping[constructed] = M.labels[i]
    return mapping


# -- build recipes --------------------------------------------------------


class Leaf(NamedTuple):
    """One block: kind "C" (circuit), "MK", or "PG" with its size parameter.

    relabel maps the constructor's labels onto the final ones; identity
    entries are omitted.
    """

    kind: str
    param: int
    relabel: tuple[tuple[str, str], ...] = ()


class PNode(NamedTuple):
    left: "Leaf | PNode | DNode"
    right: "Leaf | PNode | DNode"
    base_left: str
    base_right: str


class DNode(NamedTuple):
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

# Deepest P/D nesting parse_recipe accepts.  Leaves carry fixed
# constructor labels, so a term that builds nests only a few levels;
# the cap turns absurd depths into a parse error, not a RecursionError.
MAX_RECIPE_DEPTH = 64


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

    def term(depth: int) -> Term:
        if depth > MAX_RECIPE_DEPTH:
            raise ValueError(f"recipe nests deeper than {MAX_RECIPE_DEPTH} levels")
        head = take()
        if head in ("C", "MK", "PG"):
            take("(")
            num = take()
            if not num.isdecimal():
                raise ValueError(f"{head} needs an integer parameter, got {num!r}")
            take(")")
            return Leaf(head, int(num))
        if head == "P":
            take("(")
            left = term(depth + 1)
            take(",")
            right = term(depth + 1)
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
            parts = [term(depth + 1)]
            while peek() == ",":
                take(",")
                parts.append(term(depth + 1))
            take(")")
            if len(parts) < 2:
                raise ValueError("D needs at least two parts")
            return DNode(tuple(parts))
        raise ValueError(f"unknown recipe head {head!r}")

    out = term(0)
    if pos != len(toks):
        raise ValueError(f"trailing recipe tokens: {toks[pos:]}")
    return out


class BuildRecipe(NamedTuple):
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


def loops_and_copies(
    M: BinaryMatroid,
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """M's loops, and each parallel copy paired with its class's smallest
    label: the annotations that rebuild M from its simplification."""
    loops = tuple(sorted(M.loops()))
    copies: list[tuple[str, str]] = []
    for cls in M.parallel_classes():
        if len(cls) > 1:
            rep = min(cls)
            copies.extend((other, rep) for other in sorted(cls - {rep}))
    return loops, tuple(copies)


def block_leaf(V: BinaryMatroid) -> Leaf | None:
    """V as a circuit, M(K_n) or PG block on V's own labels, or None."""
    mapping = circuit_mapping(V)
    if mapping is not None:
        kind, param = "C", V.size
    else:
        mapping = complete_graph_mapping(V)
        if mapping is not None:
            kind, param = "MK", (1 + isqrt(1 + 8 * V.size)) // 2
        else:
            mapping = projective_mapping(V)
            if mapping is None:
                return None
            kind, param = "PG", V.rank
    relabel = tuple(sorted((c, lab) for c, lab in mapping.items() if c != lab))
    return Leaf(kind, param, relabel)


# -- recipe certificate ---------------------------------------------------


class Piece(NamedTuple):
    """A simple connected piece met by cut_walk.

    leaf is the block the piece is, if it is one.  Otherwise at names
    the vector the piece splits at, and parts are the pieces it splits
    into, each holding that vector under the label at: either a column
    of the piece, a cut point, or a marker that each part adds for a
    vector of the span that no column carries.  A piece with neither a
    leaf nor parts is uncut.
    """

    matroid: BinaryMatroid
    leaf: Leaf | None = None
    at: str | None = None
    parts: tuple["Piece", ...] = ()


def certificate(
    M: BinaryMatroid, budget: Budget | None = None
) -> BuildRecipe | BinaryMatroid:
    """A recipe that rebuilds M from circuit, M(K_n) and PG blocks, or a
    piece of M that is not in the class.

    A binary matroid is theta-closed exactly when such a recipe exists,
    so a returned recipe proves M closed.  It is returned only after it
    has been evaluated and found to be M (same_matroid), so the proof
    never rests on the search below being right.

    Each connected component S of the simplification is a block, or is
    cut at the first element p whose contraction disconnects it.  With
    S/p split into K_1..K_t, the spans of the pieces S|(K_i u p) meet
    only in <p>, so S is their parallel connection at p.  If S is
    closed, so is every piece: a theta inside one piece is completed by
    a column of that piece's span, and the only element of another
    piece there is p.  So any cut point serves.  Each p tried costs one
    pass over the coordinates of S (one greedy coordinatization serves
    every p) and one budget node.

    The first simple connected piece that is neither a block nor cut at
    a point is returned instead of a recipe, and the walk (cut_walk)
    stops there.  It is a restriction of M in M's own coordinates and
    lies outside the class, so by the theorem it holds an incomplete
    theta, and by the argument above that theta is incomplete in M too.
    A recipe that does not rebuild M returns M itself, so the caller
    still searches all of M.
    """
    S = simplify(M)
    pieces = []
    for comp in sorted(connected_components(S), key=sorted):
        pieces.append(cut_walk(restrict(S, comp), budget))
        if pieces[-1].leaf is None and not pieces[-1].parts:
            break
    return _read_certificate(M, pieces)


def _read_certificate(
    M: BinaryMatroid, pieces: Collection[Piece]
) -> BuildRecipe | BinaryMatroid:
    """What certificate returns, read off the walks of the components
    of M's simplification: the first piece in walk order that is
    neither a block nor cut at a point, or else the recipe, checked."""
    terms = []
    for piece in pieces:
        term = _term(piece)
        if isinstance(term, BinaryMatroid):
            return term
        terms.append(term)
    if not terms:
        whole = None
    else:
        whole = terms[0] if len(terms) == 1 else DNode(tuple(terms))
    loops, copies = loops_and_copies(M)
    recipe = BuildRecipe(whole, loops, copies)
    return recipe if same_matroid(M, recipe.evaluate()) else M


def _term(piece: Piece) -> Term | BinaryMatroid:
    """The term of a walked piece, or the first piece under it that is
    neither a block nor cut at a point."""
    if piece.leaf is not None:
        return piece.leaf
    if piece.at not in piece.matroid.label_set:
        return piece.matroid
    term: Term | None = None
    for part in piece.parts:
        t = _term(part)
        if isinstance(t, BinaryMatroid):
            return t
        term = t if term is None else PNode(term, t, piece.at, piece.at)
    return term


def cut_walk(
    S: BinaryMatroid,
    budget: Budget | None = None,
    fresh: Iterator[str] | None = None,
) -> Piece:
    """Split a simple connected S at cut points, and with fresh also at
    the vectors of its span that no column carries.

    The lemma behind both: let P be simple and connected, v a nonzero
    vector of its span, and let P/v, the contraction by v, fall into
    coordinate classes K_1..K_t (its components, less the loop that a
    column equal to v becomes).  Every K_i spans v.  Otherwise v is
    outside span(K), so r_{P/v}(K) = r(K), while r_{P/v}(E - K) >=
    r(E - K) - 1; P/v is the direct sum of its classes, so these add
    up to r(P/v) = r(P) - 1, which gives r(K) + r(E - K) <= r(P): K
    would separate P.  So with t >= 2 the spans of the K_i meet only
    in <v>, and P is the parallel connection of the pieces K_i + v
    along v, with v deleted when it is not a column; each
    (K_i, E - K_i) is an exact 2-separation.  A class is never a single
    element, since a class spans v and the only column that spans v
    alone is v itself.  Conversely, the spans of the sides of an exact
    2-separation (X, Y) meet in one vector v, its split vector; in P/v
    they meet only in 0, and each side keeps a nonzero column since P
    is simple, so X and Y are unions of classes and t >= 2.  So every
    exact 2-separation arises from its split vector.

    Candidates come in one loop, each one budget node and one pass
    over S's coordinates, contracted by the candidate and cut into
    classes: first the columns in element order, then, with fresh, the
    missing vectors of S's span in ascending order of their coordinates
    over S's greedy basis.  The first that splits S gives its parts:
    S|(K_i + p) for a cut point p, or S|K_i plus a marker named
    next(fresh) that carries v.  Parts are simple and re-enter the walk,
    where a marker can be a cut point.  A piece that is not a block and
    that no candidate splits is returned uncut; with fresh, by the
    lemma, it is 3-connected.  Without fresh, the walk is certificate's:
    it stops at the first piece that is neither a block nor cut at a
    point, and returns that piece.
    """
    leaf = block_leaf(S)
    if leaf is not None:
        return Piece(S, leaf)
    coords, basis = S.coordinates
    whole = (1 << len(basis)) - 1
    for p, cp in enumerate(coords):
        if budget is not None:
            budget.tick()
        split = _quotient_classes(coords, cp, whole)
        if split is None:
            continue
        base = S.labels[p]
        parts = []
        for labels in _class_labels(S, *split):
            part = cut_walk(restrict(S, labels + [base]), budget, fresh)
            if fresh is None and part.leaf is None and not part.parts:
                return part
            parts.append(part)
        return Piece(S, None, base, tuple(parts))
    if fresh is None:
        return Piece(S)
    present = set(coords)
    for cv in range(1, whole + 1):
        if cv in present:
            continue
        if budget is not None:
            budget.tick()
        split = _quotient_classes(coords, cv, whole)
        if split is None:
            continue
        marker = next(fresh)
        v = 0
        for k in bits(cv):
            v ^= S.cols[basis[k]]
        parts = tuple(
            cut_walk(restrict(S, labels).extend(marker, v), budget, fresh)
            for labels in _class_labels(S, *split)
        )
        return Piece(S, None, marker, parts)
    return Piece(S)


def _quotient_classes(
    coords: Sequence[int], cv: int, whole: int
) -> tuple[list[int], list[int]] | None:
    """The coordinates of S/v and their classes, as _coordinate_classes
    finds them, where coords are S's coordinates over a basis of whole
    and cv is v's; None when S/v is connected.

    Swapping v into the basis for its lowest coordinate and dropping
    that coordinate leaves the coordinates of S/v, and every coordinate
    left is used.  So S/v is connected as soon as one pass in element
    order, growing the class of the first nonzero vector by each vector
    that meets it, holds every coordinate left; the coordinates of S/v
    are listed and cut into classes only when it does not.  The pass
    alone decides most candidates on dense pieces, every one of the
    1023 on PG(10) minus a point.
    """
    low = cv & -cv
    target = whole ^ low
    grown = 0
    for c in coords:
        if c & low:
            c ^= cv
        if c & grown or not grown:
            grown |= c
            if grown == target:
                return None
    quotient = [c ^ cv if c & low else c for c in coords]
    classes = _coordinate_classes(quotient)
    return None if len(classes) < 2 else (quotient, classes)


def _class_labels(
    S: BinaryMatroid, quotient: list[int], classes: list[int]
) -> list[list[str]]:
    """The labels of S in each class of S/v, in S's element order."""
    return [[lab for lab, c in zip(S.labels, quotient) if c & cls] for cls in classes]


# -- named catalog -------------------------------------------------------


def _f7() -> BinaryMatroid:
    """Rank-3 projective geometry with the label equal to the column value."""
    return BinaryMatroid(tuple(str(k) for k in range(1, 8)), tuple(range(1, 8)), 3)


def _mstar_k5() -> BinaryMatroid:
    """Explicit rank-6 representation of the dual of M(K_5).

    Columns 1..6 are the identity; 7, 8, 9, 0 carry the weight-3
    patterns 1110.., ..1101 read row 1 first.
    """
    labels = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "0")
    cols = (1, 2, 4, 8, 16, 32, 7, 44, 50, 25)
    return BinaryMatroid(labels, cols, 6)


def _mstar_k33() -> BinaryMatroid:
    edges = [
        (f"a{i}", f"b{j}", str((i - 1) * 3 + j))
        for i in range(1, 4)
        for j in range(1, 4)
    ]
    return dual(cycle_matroid(edges))


def _m_k24() -> BinaryMatroid:
    return cycle_matroid(complete_bipartite_edges(2, 4))


_FIXED_CATALOG = {
    "F7": _f7,
    "F7STAR": lambda: dual(_f7()),
    "MSTAR_K5": _mstar_k5,
    "MSTAR_K33": _mstar_k33,
    "M_K24": _m_k24,
}


def catalog_matroid(key: str) -> BinaryMatroid:
    """Resolve a named catalog key, e.g. F7, MK(5), PG(3), THETA(2,2,2)."""
    key = key.strip()
    if key in _FIXED_CATALOG:
        return _FIXED_CATALOG[key]()
    m = re.fullmatch(r"MK\((\d+)\)", key)
    if m:
        return complete_graph_matroid(int(m.group(1)))
    m = re.fullmatch(r"PG\((\d+)\)", key)
    if m:
        return projective_geometry(int(m.group(1)))
    m = re.fullmatch(r"CIRCUIT\((\d+)\)", key)
    if m:
        return circuit_matroid(int(m.group(1)))
    m = re.fullmatch(r"THETA\((\d+),(\d+),(\d+)\)", key)
    if m:
        a, b, c = (int(g) for g in m.groups())
        return cycle_matroid(theta_edges(a, b, c))
    raise KeyError(f"unknown catalog key: {key}")


def catalog_listing() -> list[tuple[str, str]]:
    """Key/description pairs for the fixed entries and parameter templates."""
    return [
        ("F7", "rank-3 projective geometry, labels 1..7 (label = column value)"),
        ("F7STAR", "dual of F7, rank 4 on 7 elements"),
        ("MSTAR_K5", "dual of M(K_5), explicit rank-6 matrix, labels 1..9,0"),
        ("MSTAR_K33", "dual of M(K_3,3), rank 4 on 9 elements"),
        ("M_K24", "cycle matroid of K_2,4, rank 5 on 8 elements"),
        ("MK(n)", "cycle matroid of the complete graph K_n"),
        ("PG(r)", "binary projective geometry of rank r (2^r - 1 points)"),
        ("CIRCUIT(n)", "the n-element circuit U_{n-1,n}"),
        ("THETA(a,b,c)", "cycle matroid of the theta graph with path lengths a,b,c"),
    ]
