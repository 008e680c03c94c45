"""Seeded input generators for the four benchmark workloads.

Everything here is standard library only and imports nothing from the
program under test or from its test suite, so neither a library change
nor a test edit can change what a given seed produces.  A matroid is a
list of (label, column) pairs plus its row count; a column is an int
whose bit i holds row i+1, the encoding the program's file format uses
("row 1 first").

The corpus builders at the end take a `random.Random` and return a list
of `Case` objects.  A case knows how to write itself as the file the
program reads; the file is the only thing the program sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

# -- GF(2) helpers --------------------------------------------------------


def rank_of(cols) -> int:
    pivots: dict[int, int] = {}
    for v in cols:
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
    return len(pivots)


def coordinates(cols: list[int], basis: list[int]) -> list[int]:
    """Coordinates of every column over the basis columns (bit k = basis[k])."""
    pivots: dict[int, tuple[int, int]] = {}
    for k, idx in enumerate(basis):
        v, orig = cols[idx], 1 << k
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = (v, orig)
                break
            pv, po = pivots[low]
            v ^= pv
            orig ^= po
        if not v:
            raise ValueError("basis columns are dependent")
    out = []
    for c in cols:
        v, orig = c, 0
        while v:
            low = v & -v
            if low not in pivots:
                raise ValueError("column outside the span of the basis")
            pv, po = pivots[low]
            v ^= pv
            orig ^= po
        out.append(orig)
    return out


def greedy_basis(cols: list[int], first: int | None = None) -> list[int]:
    order = list(range(len(cols)))
    if first is not None:
        order.remove(first)
        order.insert(0, first)
    basis: list[int] = []
    chosen: list[int] = []
    for i in order:
        if rank_of(chosen + [cols[i]]) > len(chosen):
            chosen.append(cols[i])
            basis.append(i)
    return basis


def bits_str(col: int, dim: int) -> str:
    return "".join("1" if col >> i & 1 else "0" for i in range(dim))


def components(cols: list[int]) -> int:
    """Number of connected components (loops and coloops count as their own)."""
    n = len(cols)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pivots: dict[int, tuple[int, int]] = {}
    for i, c in enumerate(cols):
        v, orig = c, 1 << i
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = (v, orig)
                break
            pv, po = pivots[low]
            v ^= pv
            orig ^= po
        if not v:
            # the fundamental circuit of element i: union everything in it
            rest = orig
            while rest:
                low = rest & -rest
                parent[find(low.bit_length() - 1)] = find(i)
                rest ^= low
    return len({find(i) for i in range(n)})


# -- cases ----------------------------------------------------------------


@dataclass
class Case:
    """One generated input: a matroid (`cols`, `dim`) or a graph (`edges`)."""

    name: str
    labels: list[str] = field(default_factory=list)
    cols: list[int] = field(default_factory=list)
    dim: int = 0
    edges: list[tuple[str, str, str]] | None = None

    @property
    def size(self) -> int:
        return len(self.edges) if self.edges is not None else len(self.cols)

    @cached_property
    def columns(self) -> dict[str, int]:
        """Label to column; a graph's columns are its vertex-edge incidences."""
        if self.edges is None:
            return dict(zip(self.labels, self.cols))
        verts = {u for u, _, _ in self.edges} | {v for _, v, _ in self.edges}
        pos = {v: i for i, v in enumerate(sorted(verts))}
        return {lab: (1 << pos[u]) ^ (1 << pos[v]) for u, v, lab in self.edges}

    @cached_property
    def rank(self) -> int:
        return rank_of(self.columns.values())

    def text(self) -> str:
        if self.edges is not None:
            return "".join(f"{u} {v} {lab}\n" for u, v, lab in self.edges)
        body = "".join(
            f"{lab} {bits_str(c, self.dim)}\n" for lab, c in zip(self.labels, self.cols)
        )
        return f"dim {self.dim}\n{body}"


def disguise(rng: random.Random, name: str, cols: list[int], dim: int, tag: str) -> Case:
    """Random change of basis and fresh random labels.

    Neither changes the matroid, so the verdict a case must get is fixed
    by the construction, while the bytes the program reads vary with the
    seed.  The element order stays the construction order: the circuit
    search's cost depends on it (up to 1.7 times on the same graph), and
    shuffling it made runs differ more by seed than by program.
    """
    while True:
        images = [rng.randrange(1, 1 << dim) for _ in range(dim)]
        if rank_of(images) == dim:
            break

    def apply(c: int) -> int:
        out = 0
        k = 0
        while c:
            if c & 1:
                out ^= images[k]
            c >>= 1
            k += 1
        return out

    numbers = rng.sample(range(10 * len(cols) + 10), len(cols))
    labels = [f"{tag}{k}" for k in numbers]
    return Case(name, labels, [apply(c) for c in cols], dim)


# -- blocks ---------------------------------------------------------------


def complete_graph_cols(n: int) -> list[int]:
    """M(K_n) over n-1 rows: vertex n is grounded, so its edges are units."""
    cols = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            cols.append(1 << i if j == n - 1 else (1 << i) | (1 << j))
    return cols


def projective_cols(r: int) -> list[int]:
    return list(range(1, 1 << r))


BLOCKS = {
    "MK5": (complete_graph_cols(5), 4),
    "MK6": (complete_graph_cols(6), 5),
    "MK7": (complete_graph_cols(7), 6),
    "PG3": (projective_cols(3), 3),
    "PG4": (projective_cols(4), 4),
}


def parallel_connection(a: str, b: str, pa: int, pb: int) -> tuple[list[int], int]:
    """Glue block b onto block a at element pa of a and pb of b (pb is dropped)."""
    ca, ra = BLOCKS[a]
    cb, rb = BLOCKS[b]
    xa = coordinates(ca, greedy_basis(ca, first=pa))
    xb = coordinates(cb, greedy_basis(cb, first=pb))
    # Both basepoints are now the first unit vector; b's other rows go
    # above a's, so the two coordinate blocks share exactly row 1.
    glued = list(xa)
    for j, c in enumerate(xb):
        if j != pb:
            glued.append((c & 1) | (c >> 1) << ra)
    return glued, ra + rb - 1


# Single blocks and the two-block parallel connections with rank <= 8 and
# corank <= 16 (a bigger cycle space makes one op take tens of seconds).
DENSE_SHAPES = (
    ("MK5",),
    ("MK6",),
    ("MK7",),
    ("PG3",),
    ("PG4",),
    ("MK5", "MK5"),
    ("MK6", "MK5"),
    ("MK5", "PG3"),
    ("MK6", "PG3"),
    ("PG3", "PG3"),
    ("PG4", "PG3"),
)


def dense_block(rng: random.Random, shape: tuple[str, ...], tag: str) -> Case:
    if len(shape) == 1:
        cols, dim = BLOCKS[shape[0]]
        name = shape[0]
    else:
        a, b = shape
        pa = rng.randrange(len(BLOCKS[a][0]))
        pb = rng.randrange(len(BLOCKS[b][0]))
        cols, dim = parallel_connection(a, b, pa, pb)
        name = f"P({a},{b})"
    return disguise(rng, name, list(cols), dim, tag)


# -- glued graphs ---------------------------------------------------------

# A recipe lists the blocks of a glued graph: ("cycle" | "complete", k,
# "vertex" | "edge"), the first block's mode unused.
Recipe = tuple[tuple[str, int, str], ...]


def _cyclomatic(kind: str, k: int) -> int:
    return 1 if kind == "cycle" else (k - 1) * (k - 2) // 2


def glued_recipe(rng: random.Random) -> Recipe:
    """The block choices of the glued-graph acceptance gate's composer.

    Cycles of 3..8 vertices and complete graphs, at most 15 vertices and a
    cycle space of dimension at most 12 in all.  Every graph built this
    way has a theta-closed cycle matroid.
    """
    kind = rng.choice(("cycle", "cycle", "complete"))
    k = rng.randint(3, 8) if kind == "cycle" else rng.choice((3, 4, 4, 5, 5, 6, 7))
    blocks = [(kind, k, "first")]
    total_v, total_c = k, _cyclomatic(kind, k)
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("cycle", "cycle", "complete"))
        k = rng.randint(3, 8) if kind == "cycle" else rng.randint(3, 5)
        mode = rng.choice(("vertex", "edge"))
        grown = k - (1 if mode == "vertex" else 2)
        if total_v + grown > 15 or total_c + _cyclomatic(kind, k) > 12:
            break
        blocks.append((kind, k, mode))
        total_v += grown
        total_c += _cyclomatic(kind, k)
    return tuple(blocks)


def recipe_shape(recipe: Recipe) -> tuple[int, int]:
    """(edges, rank) of every graph built from the recipe."""
    edges = rank = 0
    for kind, k, mode in recipe:
        block = k if kind == "cycle" else k * (k - 1) // 2
        edges += block - (mode == "edge")
        rank += k - 1 - (mode == "edge")
    return edges, rank


def glued_graph(rng: random.Random, recipe: Recipe, tag: str) -> Case:
    """Build the recipe, gluing each block at a random vertex or edge.

    Edge gluing keeps one copy of the shared edge.  Edges are listed
    block by block, as the acceptance gate's composer lists them.
    """
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"g{counter}"

    def ring(vs):
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def clique(vs):
        return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]

    verts: list[str] = []
    pairs: list[tuple[str, str]] = []
    for kind, k, mode in recipe:
        if mode == "first":
            pv = [fresh() for _ in range(k)]
        elif mode == "vertex":
            pv = [rng.choice(verts)] + [fresh() for _ in range(k - 1)]
        else:
            u, w = rng.choice(pairs)
            pv = [u, w] + [fresh() for _ in range(k - 2)]
        grown = ring(pv) if kind == "cycle" else clique(pv)
        if mode == "edge":
            shared = frozenset((pv[0], pv[1]))
            grown = [p for p in grown if frozenset(p) != shared]
        pairs += grown
        verts += [v for v in pv if v not in verts]
    edges = [(u, w, f"{tag}{i}") for i, (u, w) in enumerate(pairs)]
    return Case(f"graph{len(edges)}", edges=edges)


# -- projective subsets ---------------------------------------------------


def connected_pg_subset(rng: random.Random, rank: int, tag: str) -> Case:
    """A uniformly random subset of PG(rank), redrawn until it is connected."""
    while True:
        mask = rng.randrange(1, 1 << ((1 << rank) - 1))
        cols = [c for c in range(1, 1 << rank) if mask >> (c - 1) & 1]
        if components(cols) == 1:
            return disguise(rng, f"PG{rank}sub{len(cols)}", cols, rank, tag)


# -- corpora --------------------------------------------------------------

# The glued-graph corpus is stratified.  Its k block recipes are fixed:
# the recipes at k evenly spaced quantiles, by (edges, rank), of this many
# draws of the composer from a reference stream.  The seed draws where each
# block is glued on, the edge order and the labels.  Drawing recipes freely
# per seed instead lets one 10-second graph (about 1 draw in 200) decide a
# run's throughput, and even within one (edges, rank) class the cost of a
# recipe varies by a factor of two.
GLUED_REFERENCE_DRAWS = 4000


def glued_recipes(k: int) -> list[Recipe]:
    ref = random.Random("glued-graph reference")
    pool = [glued_recipe(ref) for _ in range(GLUED_REFERENCE_DRAWS)]
    order = sorted(range(len(pool)), key=lambda i: (recipe_shape(pool[i]), i))
    return [pool[order[int((i + 0.5) * len(pool) / k)]] for i in range(k)]


def glued_corpus(rng: random.Random, k: int) -> list[Case]:
    return [glued_graph(rng, recipe, "t") for recipe in glued_recipes(k)]


def dense_corpus(rng: random.Random, copies: int) -> list[Case]:
    return [
        dense_block(rng, shape, "b")
        for _ in range(copies)
        for shape in DENSE_SHAPES
    ]


def classify_corpus(rng: random.Random, count: int) -> list[Case]:
    return [connected_pg_subset(rng, 4, "s") for _ in range(count)]


# Closure inputs: every size from 8 to 24 points, in PG(5) and in PG(6).
# Whether a subset of 10 to 14 points exhausts the node cap is close to a
# coin flip per subset, and an exhausted op costs as much as 30 answered
# ones, so freely drawn subsets make throughput depend on the seed more
# than on the program.  The point sets are therefore drawn once, from a
# fixed reference stream; the seed changes the basis, the labels and the
# element order, none of which changes the matroid.
CLOSURE_RANKS = (5, 6)
CLOSURE_SIZES = range(8, 25)


def closure_corpus(rng: random.Random, per_size: int) -> list[Case]:
    ref = random.Random("closure reference")
    out = []
    for rank in CLOSURE_RANKS:
        for size in CLOSURE_SIZES:
            for _ in range(per_size):
                cols = ref.sample(range(1, 1 << rank), size)
                out.append(disguise(rng, f"PG{rank}pick{size}", cols, rank, "q"))
    return out
