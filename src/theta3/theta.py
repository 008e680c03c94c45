"""Theta subgeometries: detection, completeness, closedness, closure.

A theta restriction T of a binary matroid has three nonempty disjoint
arcs A1, A2, A3: each arc is independent, each union of two arcs is a
circuit, and r(T) = |T| - 2.  Over GF(2) the three arc column-sums then
agree; that common value is the completing vector of T.

Detection works through circuit pairs.  If C1 != C2 are circuits with
C1 n C2 nonempty, the union always has corank >= 2, and corank exactly
2 forces (C1-C2, C2-C1, C1 n C2) to be the arcs of a theta.  Conversely
every theta arises this way from each of the three circuit pairs inside
it, and exactly one of those pairs shares the theta's smallest element,
which is then the smallest element of both circuits.  Pairing only
circuits with the same smallest element therefore finds each theta
from one circuit pair, once.  The search layer passes thetas as int
masks and builds label sets only for what it returns.

Completeness reduces to a vector lookup: an element e completes T iff
some arc is the singleton {e}, or col(e) equals the completing vector
(such an e can never sit on a longer arc, because arcs are independent).
A singleton arc's column is itself the completing vector, so T is
complete exactly when its completing vector is a column.  The scan
for incomplete thetas does this lookup before the corank test of a
circuit pair, so a pair whose vector is a column costs no corank test,
and on a closed matroid only pairs that form no theta reach one.  The
test needs no elimination per pair: C1 u C2 has corank 2 exactly when
C2 - C1 is a circuit of the contraction M/C1, which the residues of its
elements modulo span(C1), read off M's fundamental cocycles once per
C1, decide by gf2.nullity_one, the rule the circuit walk decides its
cycles by (see _theta_pair).  The scan also lists and pairs only
circuits of 4 to r(M) elements: an incomplete theta has no singleton
arc and at most r(M) + 2 elements, and each of its circuits is the
theta minus one arc.

Closedness also has a proof that lists no theta.  By the paper's
theorem a binary matroid is theta-closed exactly when it is built from
circuits, M(K_n) and PG blocks by direct sums and parallel connections,
so a recipe that rebuilds M (construct.certificate) proves M closed;
when there is none, certificate names a piece of M outside the class,
whose incomplete thetas are M's own.

check (is_theta3_closed) and every closure round (_incomplete_vectors)
decide by the same stages, in one order, at every size
(_incomplete_thetas):
1. a full projective geometry is closed;
2. the pair route, exact for thetas whose three arcs have two elements
   each: a theta it finds settles M;
3. the rank rule: at rank 4 or less every incomplete theta has three
   2-element arcs, by the window bound above, so an empty pair route
   proves M closed;
4. the certificate: its recipe proves M closed;
5. otherwise the scan of its piece finds the incomplete thetas.
check stops at the first witness and reports the recipe, and skips
stage 2 when its table of column pairs would be too large
(_PREPASS_MAX_COLUMNS); a round collects every vector.  Without the
shortcuts (check --no-shortcut) stages 2 and 5 are left, and the scan
covers all of M.

A cycle matroid needs no scan.  There a theta is three internally
disjoint x-y paths, and its completing vector x+y is a column exactly
when xy is an edge, so the graph is closed exactly when no two
non-adjacent vertices are joined by three such paths (the graph theorem
of Jamison and Mulder that the paper extends).  By Menger's theorem one
unit-capacity flow per pair, stopped at 3, decides that in polynomial
time; only vertices with at least three distinct neighbours need
pairing.  Loops play no part, and a parallel edge only makes its ends
adjacent.  graph_is_theta3_closed and check --graph decide this way,
on the edge list alone: the cycle matroid is built only for a
witness's completing vector, the sum of the columns along any of its
three paths.  The closure of a graph is a graph too, since each
completing vector is a new edge xy, so graph_theta3_closure (closure
--graph) runs one round of flows: it adds xy for every pair that the
flows refute, which is every vector a round can add, and the graph this
gives is closed (the lemma in _graph_closure's docstring).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

from theta3.budget import Budget
from theta3.construct import BuildRecipe, _Graph, certificate, is_projective
from theta3.gf2 import bits, bits_to_str, nullity_one, pivots_of
from theta3.matroid import BinaryMatroid, _circuit_masks, simplify

__all__ = [
    "ThetaGraph",
    "ClosureRound",
    "ClosureTrace",
    "theta_graphs",
    "is_complete",
    "is_theta3_closed",
    "theta3_closure",
    "graph_is_theta3_closed",
    "graph_theta3_closure",
]

# Distinct-column cap for the pair-route prepass in is_theta3_closed when
# the route fills its table of column pairs: the table stays under 8.4M,
# and every rank of 12 or less fits.  It bounds only that table.  When
# few vectors are missing the route goes target by target, keeping four
# names per target, and the prepass runs at any size.  The exact
# searches behind it are capped only by the Budget.
_PREPASS_MAX_COLUMNS = 1 << 12


class ThetaGraph(NamedTuple):
    """Three arcs plus their common column-sum, the completing vector."""

    arcs: tuple[frozenset[str], frozenset[str], frozenset[str]]
    completing: int
    dim: int

    @property
    def elements(self) -> frozenset[str]:
        return self.arcs[0] | self.arcs[1] | self.arcs[2]

    def completing_str(self) -> str:
        return bits_to_str(self.completing, self.dim)


class ClosureRound(NamedTuple):
    """One round: vector i was added because witness theta i lacked it."""

    added_vectors: tuple[int, ...]
    witnesses: tuple[ThetaGraph, ...]


class ClosureTrace(NamedTuple):
    initial: BinaryMatroid
    final: BinaryMatroid
    rounds: tuple[ClosureRound, ...]


def _arc_key(arc: frozenset[str]) -> tuple[int, list[str]]:
    return (len(arc), sorted(arc))


def _theta(M: BinaryMatroid, arc_masks: Iterable[int], w: int) -> ThetaGraph:
    """The ThetaGraph of M with these arcs (element masks) and completing vector.

    Each arc's labels are sorted once, and the arcs ordered by (length,
    labels), which is _arc_key's order; disjoint arcs never tie.
    """
    labels = M.labels
    arcs = sorted((m.bit_count(), sorted(labels[j] for j in bits(m))) for m in arc_masks)
    return ThetaGraph(tuple(frozenset(arc) for _, arc in arcs), w, M.dim)


def _theta_scan(
    M: BinaryMatroid, budget: Budget | None = None, incomplete: bool = False
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (arc, arc, arc, completing vector) for every theta of M, or
    with incomplete for every theta whose completing vector is not a
    column, once each.

    Arcs are element masks.  Circuits are bucketed by their smallest
    element and only pairs within a bucket are tested, which finds each
    theta from one circuit pair (see the module docstring).  Buckets
    are visited in element order and keep circuit order.  A pair whose
    symmetric difference is not a circuit is skipped: in a theta it is
    the third circuit, the union of the two arcs outside C1 n C2.  The
    pairs left are one per set of three circuits, each the symmetric
    difference of the other two, so the number of corank tests does
    not depend on the element order.  The completing vector, the sum of
    C1 n C2, is summed once per distinct intersection and, with
    incomplete, looked up among M's columns before the corank test, so
    only pairs that could be an incomplete theta pay for one.
    The corank test is made in the contraction by C1: the corank of
    C1 u C2, minus 1, is the nullity of C2 - C1 in M/C1, so the pair is
    a theta exactly when C2 - C1 is a circuit of M/C1 (_theta_pair).
    M/C1 is read off the fundamental cocycles of M, the r masks of the
    elements whose coordinate k is 1, built once per scan: on the first
    pair of its row that gets this far, _contraction reduces them to a
    basis of the cocycles disjoint from C1, which gives every element
    its residue modulo span(C1).  No pair pays for an elimination.

    An incomplete theta has no singleton arc (a singleton arc carries
    the completing vector), and |T| = r(T) + 2 <= r(M) + 2, so each of
    its three circuits, T minus one arc, has 4 to r(M) elements.  With
    incomplete, the scan therefore lists and pairs only the circuits in
    that window, in their usual order: it yields the same thetas in the
    same order as the full scan with the complete ones left out, and
    at rank 3 or less nothing.

    The budget is charged one node per pair that passes the size cap.
    The pairs are counted locally and charged in batches that stay
    exact: a batch is passed on when it reaches Budget.batch_limit(),
    so a node cap raises on the same pair, with the same count, as a
    tick per pair would, and the clock is read as often; the count is
    also passed on before every yield and at the end.
    """
    if budget is None:
        budget = Budget()
    cols = M.cols
    rank_cap = M.rank + 2  # |C1 u C2| can't exceed this at corank 2
    if incomplete:
        skip = M.colset
        masks = [m for m in _circuit_masks(M, budget, M.rank) if m.bit_count() >= 4]
    else:
        skip = frozenset()
        masks = _circuit_masks(M, budget)
    circuits = set(masks)
    buckets: list[list[int]] = [[] for _ in range(M.size)]
    for m in masks:
        buckets[(m & -m).bit_length() - 1].append(m)
    # cocycles[k]: the elements whose coordinate k is 1, the fundamental
    # cocircuit of basis element k
    cocycles = [0] * M.rank
    for e, c in enumerate(M.coordinates[0]):
        for k in bits(c):
            cocycles[k] |= 1 << e
    sums: dict[int, int] = {}  # completing vector per C1 n C2
    tested = 0
    limit = budget.batch_limit()

    for bucket in buckets:
        for ii, mi in enumerate(bucket):
            residue = None
            for mj in bucket[ii + 1 :]:
                if (mi | mj).bit_count() > rank_cap:
                    continue
                tested += 1
                if tested >= limit:
                    budget.tick(tested)
                    tested = 0
                    limit = budget.batch_limit()
                if mi ^ mj not in circuits:
                    continue
                inter = mi & mj
                w = sums.get(inter)
                if w is None:
                    w = 0
                    rest = inter
                    while rest:
                        low = rest & -rest
                        w ^= cols[low.bit_length() - 1]
                        rest ^= low
                    sums[inter] = w
                if w in skip:
                    continue
                if residue is None:
                    free, residue = _contraction(cocycles, mi, M.size)
                if not _theta_pair(mi, mj, free, residue):
                    continue
                budget.tick(tested)
                tested = 0
                yield mi & ~mj, mj & ~mi, inter, w
                limit = budget.batch_limit()
    budget.tick(tested)


def _contraction(cocycles: list[int], c1: int, n: int) -> tuple[int, list[int]]:
    """M/C1 for the element mask c1, read off M's fundamental cocycles:
    (the elements outside cl(C1), the residue of each of M's n elements).

    The cocycles are reduced on their elements in C1, in the lazy
    echelon form of gf2.pivots_of; those that reduce to miss C1 form a
    basis of the cocycles of M disjoint from C1, which are the cocycles
    of M/C1.  An element lies in one of them exactly when it lies
    outside cl(C1), and bit i of its residue says whether it lies in the
    i-th: the residues are coordinates of M/C1, so an element's residue
    is zero exactly when it lies in cl(C1).
    """
    pivots: dict[int, int] = {}
    free = 0
    residue = [0] * n
    bit = 1
    for v in cocycles:
        on = v & c1
        while on:
            low = on & -on
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
            on = v & c1
        else:
            free |= v
            for j in bits(v):
                residue[j] |= bit
            bit <<= 1
    return free, residue


def _theta_pair(c1: int, c2: int, free: int, residue: list[int]) -> bool:
    """Whether C1 u C2 is a theta, for circuits C1 != C2 that meet, given
    (free, residue) = _contraction(..., C1, ...).

    It is exactly when C1 u C2 has corank 2, and its corank is 1 plus
    the nullity of A2 = C2 - C1 in M/C1 (contraction; Oxley, Matroid
    Theory, 3.1).  The residues of A2 sum to zero, since C2's columns
    do and C1 n C2 lies in C1, so gf2.nullity_one decides it.  Two
    mask tests answer as it would, before any residue is read: a
    single element is a circuit of M/C1, and a longer A2 that meets
    cl(C1), where residues are zero, is not.
    """
    a2 = c2 & ~c1
    if not a2 & (a2 - 1):
        return True
    if a2 & ~free:
        return False
    return nullity_one([residue[j] for j in bits(a2)])


def theta_graphs(M: BinaryMatroid, budget: Budget | None = None) -> list[ThetaGraph]:
    """All theta restrictions of M, sorted by their arcs."""
    out = [_theta(M, arcs, w) for *arcs, w in _theta_scan(M, budget)]
    out.sort(key=lambda t: [_arc_key(a) for a in t.arcs])
    return out


def is_complete(M: BinaryMatroid, T: ThetaGraph) -> tuple[bool, str | None]:
    """Whether some element completes T, and one such label.

    Singleton arcs complete their own theta.  Otherwise a completing
    element must carry exactly the completing vector, and any element
    carrying that vector works (it cannot lie on an arc of size >= 2,
    since the rest of that arc would then sum to zero).
    """
    for arc in T.arcs:
        if len(arc) == 1:
            return True, next(iter(arc))
    w = T.completing
    hits = sorted(lab for lab, c in zip(M.labels, M.cols) if c == w)
    if hits:
        return True, hits[0]
    return False, None


def _missing_vectors(M: BinaryMatroid) -> list[int]:
    """Nonzero span vectors of M that no column carries, ascending."""
    span = [0]
    for b in pivots_of(M.cols).values():
        span += [v ^ b for v in span]
    colset = M.colset
    return sorted(v for v in span if v and v not in colset)


def _goes_by_target(M: BinaryMatroid) -> bool:
    """Whether the pair route goes through the missing vectors one by one:
    fewer are missing than a third of the nonzero distinct columns."""
    present = len(M.colset) - (0 in M.colset)
    return 3 * ((1 << M.rank) - 1 - present) < present


def _pair_route_is_exact(M: BinaryMatroid) -> bool:
    """Whether the pair route finds every incomplete theta of M, as it
    does at rank 4 or less; there an empty pair route means M is closed.

    An incomplete theta T has no singleton arc (its column would be the
    completing vector) and |T| = r(T) + 2 <= r(M) + 2.  At r(M) <= 4
    its three arcs of at least two elements each fill at most six, so
    each has exactly two, and the pair route decides those thetas
    exactly (_pair_route_hits).
    """
    return M.rank <= 4


def _pair_route_hits(
    M: BinaryMatroid, budget: Budget | None
) -> Iterator[tuple[int, ThetaGraph]]:
    """Per missing span vector v, ascending: a theta with three 2-element
    arcs completed by v.  It is exact for those thetas, and at rank 4 or
    less they are all the incomplete thetas (_pair_route_is_exact).

    Pairs {a, a^v} of present columns are disjoint across distinct
    pairs and any two of them union to a 4-circuit, so three pairs form
    a theta exactly when {a, b, c, v} has rank 4.  Only missing vectors
    that are the sum of two columns can yield.  Their pair lists come
    from one pass over the pairs of present columns: a table from each
    pair sum to the smaller columns of its pairs, filled column by
    column in ascending order, so every list is ascending; the sums that
    are columns are dropped once, when the targets are sorted.  When
    fewer vectors are missing than a third of the columns
    (_goes_by_target), a pass over each missing vector's possible pairs
    is cheaper, so that is taken instead; it stops at a target's first
    four names, all that the rule below reads.  The clock is read once
    per column of the first pass, and once per target of the second,
    without counting a node.

    The rank test needs no elimination.  Each pair is named by its
    smaller column, the one without v's highest bit, so a^b is a name
    too.  For names a, b of distinct pairs, a, b and v are independent,
    and the only pair in span(a, b, v) other than a's and b's is the
    one named a^b; so {a, b, c, v} has rank 4 exactly when c != a^b.
    The first triple in combination order is therefore (p0, p1, p2), or
    (p0, p1, p3) when p2 is the sum pair, and with only three pairs and
    p2 the sum pair v completes no such theta.  Each tested target ticks
    the budget once, and once more when it moves on to p3.

    A witness is built from the labels of its three pairs: each pair
    sorted, then the three pairs sorted, which is _theta's arc order.
    """
    if budget is None:
        budget = Budget()
    first: dict[int, int] = {}
    for j, c in enumerate(M.cols):
        first.setdefault(c, j)
    present = sorted(c for c in first if c)
    pairs: dict[int, list[int]]
    if _goes_by_target(M):
        targets = _missing_vectors(M)
        pairs = {}
        for v in targets:
            budget.check_time()
            names = (a for a in present if a < a ^ v and a ^ v in first)
            pairs[v] = list(islice(names, 4))
    else:
        pairs = defaultdict(list)
        for i, a in enumerate(present):
            budget.check_time()
            for v in map(a.__xor__, present[i + 1 :]):
                pairs[v].append(a)
        targets = sorted(pairs.keys() - first.keys())
    labels = M.labels
    for v in targets:
        reps = pairs[v]
        if len(reps) < 3:
            continue
        a, b, c = reps[:3]
        budget.tick()
        if c == a ^ b:
            if len(reps) == 3:
                continue
            budget.tick()
            c = reps[3]
        arcs = []
        for x in (a, b, c):
            p, q = labels[first[x]], labels[first[x ^ v]]
            arcs.append((p, q) if p < q else (q, p))
        arcs.sort()
        yield v, ThetaGraph(tuple(map(frozenset, arcs)), v, M.dim)


def _incomplete_thetas(
    M: BinaryMatroid, budget: Budget | None, use_shortcut: bool = True, prepass: bool = True
) -> Generator[tuple[int, ThetaGraph], None, BuildRecipe | None]:
    """(completing vector, witness) for M's incomplete thetas, each vector
    once, as the stages of the module docstring find them.  It yields
    nothing exactly when M is closed, and then returns the recipe if the
    certificate proved it, else None.

    Once the pair route has found a theta nothing else runs, so the
    thetas may be only some of M's.  prepass=False skips the pair route.
    use_shortcut=False leaves out the projective shortcut, the rank rule
    and the certificate, so the scan covers all of M.
    """
    if use_shortcut and is_projective(M):
        return None
    if prepass:
        hit = None
        for hit in _pair_route_hits(M, budget):
            yield hit
        if hit or (use_shortcut and _pair_route_is_exact(M)):
            return None
    if use_shortcut:
        found = certificate(M, budget)
        if isinstance(found, BuildRecipe):
            return found
        # a piece outside the class: its incomplete thetas are M's
        M = found
    seen = set()
    for *arcs, w in _theta_scan(M, budget, incomplete=True):
        if w not in seen:
            seen.add(w)
            yield w, _theta(M, arcs, w)


def is_theta3_closed(
    M: BinaryMatroid,
    *,
    use_shortcut: bool = True,
    budget: Budget | None = None,
) -> tuple[bool, ThetaGraph | BuildRecipe | None]:
    """Decide whether every theta of M is complete, with the evidence.

    The evidence is an incomplete theta when M is not closed, the
    recipe when a recipe certificate proved M closed, and None when the
    projective shortcut, the rank rule or the scan did.  The stages are
    a closure round's (_incomplete_thetas), at every size, stopped at
    the first witness.  The pair route goes target by target, four
    names per target, at any size when few vectors are missing;
    otherwise it fills a table of column pairs, which
    _PREPASS_MAX_COLUMNS distinct columns (every input of rank 12 or
    less) bound, so larger inputs skip it.  use_shortcut=False leaves
    the pair route and the circuit-pair scan of all of M.
    """
    prepass = _goes_by_target(M) or len(M.colset) <= _PREPASS_MAX_COLUMNS
    stages = _incomplete_thetas(M, budget, use_shortcut, prepass)
    try:
        return False, next(stages)[1]
    except StopIteration as closed:
        return True, closed.value


def _incomplete_vectors(
    M: BinaryMatroid, budget: Budget | None
) -> list[tuple[int, ThetaGraph]]:
    """Missing span vectors that complete some theta of M, ascending, each
    with its witness: all that _incomplete_thetas yields, where check
    stops at the first.

    Exact when it reports nothing, which is what certifies a fixed
    point.  Otherwise it may be partial: the pair route is blind to
    thetas with a longer arc, and the scan reports only the piece's
    vectors.  Later rounds pick up whatever it missed (additions never
    invalidate earlier ones).
    """
    return sorted(_incomplete_thetas(M, budget), key=lambda hit: hit[0])


def theta3_closure(
    M: BinaryMatroid,
    *,
    strategy: str = "batch",
    budget: Budget | None = None,
) -> tuple[BinaryMatroid, ClosureTrace]:
    """Iterate "add completing vectors of incomplete thetas" to a fixed point.

    The input is simplified first; added elements get labels "v" plus
    the bit pattern (row 1 first).  strategy "batch" adds every vector
    found in a round, "one_at_a_time" adds only the smallest found this
    round; both end at the same fixed point, which the test suite
    asserts rather than assumes.
    """
    return _closure_rounds(
        simplify(M), lambda cur: _incomplete_vectors(cur, budget), strategy
    )


def _closure_rounds(
    start: BinaryMatroid,
    find: Callable[[BinaryMatroid], list[tuple[int, ThetaGraph]]],
    strategy: str,
) -> tuple[BinaryMatroid, ClosureTrace]:
    """The rounds of theta3_closure from a simple start: find(cur) lists a
    round's (vector, witness) pairs, ascending, and nothing at the fixed
    point.  An added vector is labelled "v" plus its bits, with a prime
    per clash.
    """
    if strategy not in ("batch", "one_at_a_time"):
        raise ValueError(f"unknown strategy {strategy!r}")
    cur = start
    rounds: list[ClosureRound] = []
    while True:
        found = find(cur)
        if not found:
            break
        if strategy == "one_at_a_time":
            found = found[:1]
        added, wits = zip(*found)
        taken = set(cur.labels)
        new_labels = []
        for v in added:
            lab = f"v{bits_to_str(v, cur.dim)}"
            while lab in taken:
                lab += "'"
            taken.add(lab)
            new_labels.append(lab)
        # one matroid per round; the added vectors lie in cur's span, so
        # its rank carries over
        cur = BinaryMatroid._derived(
            cur.labels + tuple(new_labels), cur.cols + added, cur.dim, cur.rank
        )
        rounds.append(ClosureRound(added, wits))
    return cur, ClosureTrace(initial=start, final=cur, rounds=tuple(rounds))


def _path_sum(cols: tuple[int, ...], mask: int) -> int:
    """The sum of the columns at the set bits of mask."""
    w = 0
    for j in bits(mask):
        w ^= cols[j]
    return w


def _refuted_pairs(
    graph: _Graph, budget: Budget | None
) -> Iterator[tuple[int, int, list[int]]]:
    """(x, y, three paths) for each non-adjacent pair of vertices of the
    graph joined by three internally disjoint paths.

    Only vertices with at least three distinct neighbours are paired,
    in vertex order.  The flow network (see _split_network) is built
    once, at the first pair that needs it, and each pair starts from a
    copy of its capacities.  A BFS for an augmenting path from x_out to
    y_in ticks the budget once; the third path found ends the search.
    A path is a mask of the edges graph.first names for its steps.
    """
    n, first = graph.n, graph.first
    degree = [0] * n
    for a, _ in first:
        degree[a] += 1
    hubs = [v for v in range(n) if degree[v] >= 3]
    network = None
    for i, x in enumerate(hubs):
        for y in hubs[i + 1 :]:
            if (x, y) in first:
                continue
            if network is None:
                network = _split_network(n, first)
            source = 2 * x + 1
            cap = _three_paths(network, source, 2 * y, budget)
            if cap is None:
                continue
            head, out, _ = network
            # follow each unit of flow from x to y; an arc carries flow
            # exactly when its capacity has dropped to 0
            nxt = {head[k ^ 1]: head[k] for k in range(0, len(cap), 2) if not cap[k]}
            masks = []
            for k in out[source]:
                if k & 1 or cap[k]:
                    continue
                prev, b, mask = x, head[k], 0
                while True:
                    v = b // 2
                    mask |= 1 << first[prev, v]
                    if v == y:
                        break
                    prev, b = v, nxt[nxt[b]]
                masks.append(mask)
            yield x, y, masks


def _graph_theta(graph: _Graph, budget: Budget | None = None) -> ThetaGraph | None:
    """An incomplete theta of the graph's cycle matroid, or None if it is closed.

    Decided by flows (see the module docstring), pair by pair in vertex
    order, on the graph alone.  The witness's arcs are the first
    refuted pair's three paths, each step taken by the first edge in
    input order between its ends; the cycle matroid is built only then,
    for the completing vector, the sum of arc 1's columns.
    """
    for _, _, masks in _refuted_pairs(graph, budget):
        M = graph.matroid
        return _theta(M, masks, _path_sum(M.cols, masks[0]))
    return None


def _graph_closure(
    graph: _Graph, strategy: str, budget: Budget | None
) -> tuple[BinaryMatroid, ClosureTrace]:
    """theta3_closure of the graph's cycle matroid, by one round of flows.

    The start is simplify's: loops dropped, and the smallest label of
    each parallel class kept, so the simple graph has one edge per
    adjacent pair.  The flows test every non-adjacent pair (see
    _refuted_pairs) and find the vector xy of each pair joined by three
    internally disjoint paths, the sum of any of those paths, with the
    paths as its witness; these are exactly the incomplete thetas'
    completing vectors.  Adding them all reaches the fixed point:

    Lemma.  Let G be a simple graph, and let G' add the edge xy for
    every non-adjacent pair x, y of G joined by three internally
    disjoint paths.  Then no non-adjacent pair of G' is joined by three
    internally disjoint paths in G'.

    Proof.  Let x, y be non-adjacent in G'.  Then G has no three
    internally disjoint x-y paths, or G' would have the edge xy, so by
    Menger's theorem a set S of at most two vertices, neither x nor y,
    separates x from y in G.  An
    added edge uv joins a pair that no two vertices separate, so u and
    v lie in one component of G - S, or one of them is in S: no added
    edge joins two components of G - S.  So S separates x from y in G'
    too, and G' has at most two internally disjoint x-y paths.

    So the flows run once, on the simple graph, at the first round, after
    _closure_rounds has checked the strategy, and every round takes its
    vectors from their hits, ascending: find returns the hits that the
    current matroid does not hold yet.  Under one_at_a_time each
    witness is therefore three paths of the input graph, an incomplete
    theta of every round's matroid, since the vectors added before it
    are other vectors.
    """
    start = simplify(graph.matroid)
    found: list[tuple[int, ThetaGraph]] = []

    def find(cur: BinaryMatroid) -> list[tuple[int, ThetaGraph]]:
        if cur is start:
            kept = set(start.labels)
            simple = _Graph([e for e in graph.edges if e[2] in kept])
            for _, _, masks in _refuted_pairs(simple, budget):
                w = _path_sum(start.cols, masks[0])
                found.append((w, _theta(start, masks, w)))
            found.sort(key=lambda hit: hit[0])
        return found[cur.size - start.size :]

    return _closure_rounds(start, find, strategy)


def _split_network(
    n: int, first: dict[tuple[int, int], int]
) -> tuple[list[int], list[list[int]], list[int]]:
    """The vertex-split network of a graph on vertices 0..n-1 whose
    ordered adjacent pairs are the keys of first: (head, out, capacity).

    Vertex v becomes an in-node 2v and an out-node 2v + 1, joined by an
    arc of capacity 1, and every adjacent pair (a, b) gives an arc
    a_out -> b_in of capacity 1.  Arcs are stored in pairs: arc 2i is
    the i-th arc of the network (the split arcs first, then the pairs in
    the order of first) and arc 2i + 1 is its reverse, of capacity 0, so
    the reverse of arc k is k ^ 1.  Arc k runs to head[k], and out[a]
    lists the arcs leaving node a in arc order.
    """
    # split arc 2v runs 2v -> 2v + 1, and its reverse 2v + 1 back
    head = [k ^ 1 for k in range(2 * n)]
    out = [[k] for k in range(2 * n)]
    k = 2 * n
    for a, b in first:
        tail, to = 2 * a + 1, 2 * b
        out[tail].append(k)
        out[to].append(k + 1)
        head += (to, tail)
        k += 2
    return head, out, [1, 0] * (k // 2)


def _three_paths(
    network: tuple[list[int], list[list[int]], list[int]],
    source: int,
    sink: int,
    budget: Budget | None,
) -> list[int] | None:
    """The residual capacities of a 3-unit flow from source to sink in a
    network from _split_network, or None.

    The network's own capacities are left as they are.  Each BFS for an
    augmenting path ticks the budget once and keeps, per node, the arc
    it was reached by.
    """
    head, out, capacity = network
    cap = capacity[:]
    for _ in range(3):
        if budget is not None:
            budget.tick()
        parent = [-1] * len(out)
        parent[source] = -2  # reached, by no arc
        queue = [source]
        for a in queue:
            for k in out[a]:
                if cap[k]:
                    b = head[k]
                    if parent[b] == -1:
                        parent[b] = k
                        queue.append(b)
            if parent[sink] != -1:
                break
        else:
            return None
        b = sink
        while b != source:
            k = parent[b]
            cap[k] -= 1
            cap[k ^ 1] += 1
            b = head[k ^ 1]
    return cap


def graph_is_theta3_closed(edges: list[tuple[str, str, str]]) -> bool:
    """Whether the cycle matroid of the graph is theta-closed, decided by flows.

    Two non-adjacent vertices joined by three internally disjoint paths
    are what an incomplete theta is in a graph; one flow per such pair
    looks for them.  The cycle matroid is not built, but a graph of
    rank above MAX_DIM raises as cycle_matroid would.
    """
    return _graph_theta(_Graph(edges)) is None


def graph_theta3_closure(
    edges: list[tuple[str, str, str]],
    *,
    strategy: str = "batch",
    budget: Budget | None = None,
) -> tuple[BinaryMatroid, ClosureTrace]:
    """theta3_closure(cycle_matroid(edges)) by one round of flows on the graph.

    The final holds the same elements under the same labels, the added
    ones perhaps in another order; the rounds are true batch rounds,
    since the flows find every vector a round can add, and under batch
    there is one round at most (see _graph_closure).
    """
    return _graph_closure(_Graph(edges), strategy, budget)
