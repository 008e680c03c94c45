"""Theta subgeometries: detection, completeness, closedness, closure.

A theta restriction T of a binary matroid has three nonempty disjoint
arcs A1, A2, A3: each arc is independent, each union of two arcs is a
circuit, and r(T) = |T| - 2.  Over GF(2) the three arc column-sums then
agree; that common value is the completing vector of T.

Detection works through circuit pairs.  If C1 != C2 are circuits with
C1 n C2 nonempty, the union always has corank >= 2, and corank exactly
2 forces (C1-C2, C2-C1, C1 n C2) to be the arcs of a theta.  Conversely
every theta arises this way from each of the three circuit pairs inside
it, with the same arc partition, so deduplication by the arc triple
recovers each theta exactly once.

Completeness reduces to a vector lookup: an element e completes T iff
some arc is the singleton {e}, or col(e) equals the completing vector
(such an e can never sit on a longer arc, because arcs are independent).
So a theta with all arcs of size >= 2 is incomplete precisely when its
completing vector is absent from the columns.  The closure loop leans
on the contrapositive: to find incomplete thetas it searches per missing
span vector v for three disjoint independent sets that each sum to v
and jointly have corank 2.  The corank condition is not optional: in
M(K4) the three disjoint pairs {e1, e2+e3}, {e2, e1+e3}, {e3, e1+e2}
all sum to e1+e2+e3 and all pairwise unions are circuits, yet the six
columns have corank 3 and form no theta (adding the vector would
wrongly turn M(K4) into F7).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from theta3.budget import Budget
from theta3.gf2 import Echelon, bits, bits_to_str, rank_bits
from theta3.matroid import BinaryMatroid, circuits, simplify

__all__ = [
    "ThetaGraph",
    "ClosureRound",
    "ClosureTrace",
    "theta_graphs",
    "is_complete",
    "is_theta3_closed",
    "theta3_closure",
    "find_theta_completed_by",
    "graph_is_theta3_closed",
    "FULL_ENUM_LIMIT",
]

# Above this many elements, closure rounds switch from full theta
# enumeration to the per-missing-vector targeted search.
FULL_ENUM_LIMIT = 18

# Caps for the heuristic fast paths; the exact searches behind them have
# no caps, only the caller's Budget.
_PREPASS_MAX_RANK = 12
_PREPASS_COMBOS_PER_VECTOR = 2000


@dataclass(frozen=True)
class ThetaGraph:
    """Three arcs plus their common column-sum, the completing vector."""

    arcs: tuple[frozenset[str], frozenset[str], frozenset[str]]
    completing: int
    dim: int

    @property
    def elements(self) -> frozenset[str]:
        return self.arcs[0] | self.arcs[1] | self.arcs[2]

    def completing_str(self) -> str:
        return bits_to_str(self.completing, self.dim)


@dataclass(frozen=True)
class ClosureRound:
    """One round: vector i was added because witness theta i lacked it."""

    added_vectors: tuple[int, ...]
    witnesses: tuple[ThetaGraph, ...]


@dataclass(frozen=True)
class ClosureTrace:
    initial: BinaryMatroid
    final: BinaryMatroid
    rounds: tuple[ClosureRound, ...]


def _arc_key(arc: frozenset[str]) -> tuple[int, list[str]]:
    return (len(arc), sorted(arc))


def _make_theta(arcs: list[frozenset[str]], w: int, dim: int) -> ThetaGraph:
    a1, a2, a3 = sorted(arcs, key=_arc_key)
    return ThetaGraph((a1, a2, a3), w, dim)


def _labels_of_mask(M: BinaryMatroid, mask: int) -> frozenset[str]:
    return frozenset(M.labels[j] for j in bits(mask))


def _theta_scan(M: BinaryMatroid, budget: Budget | None = None) -> Iterator[ThetaGraph]:
    """Yield every theta restriction of M exactly once.

    Circuit pairs are scanned per shared element, a pair being handled
    only at its smallest shared element so it is tested once.  The
    corank test is incremental: columns of C2 - C1 reduce against the
    echelon of C1; corank(C1 u C2) - 1 equals the number of columns
    that reduce to zero, so we want exactly one zero and can abort on
    the second.
    """
    circs = circuits(M)
    if len(circs) < 2:
        return
    n = M.size
    cols = M.cols
    index = M._index
    rank_cap = M.rank + 2  # |C1 u C2| can't exceed this at corank 2

    masks = []
    for c in circs:
        m = 0
        for lab in c:
            m |= 1 << index[lab]
        masks.append(m)

    base_ech: list[dict[int, int]] = []
    for m in masks:
        ech = Echelon()
        for j in bits(m):
            ech.insert(cols[j])
        base_ech.append(ech.pivots)

    buckets: list[list[int]] = [[] for _ in range(n)]
    for ci, m in enumerate(masks):
        for j in bits(m):
            buckets[j].append(ci)

    seen: set[tuple[int, int, int]] = set()
    for e in range(n):
        bucket = buckets[e]
        ebit = 1 << e
        for ii in range(len(bucket)):
            mi = masks[bucket[ii]]
            base = base_ech[bucket[ii]]
            for jj in range(ii + 1, len(bucket)):
                mj = masks[bucket[jj]]
                inter = mi & mj
                if inter & -inter != ebit:
                    continue
                union = mi | mj
                if union.bit_count() > rank_cap:
                    continue
                if budget is not None:
                    budget.tick()
                rest = mj & ~mi
                local: dict[int, int] = {}
                zeros = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = cols[low.bit_length() - 1]
                    while v:
                        vlow = v & -v
                        if vlow in base:
                            v ^= base[vlow]
                        elif vlow in local:
                            v ^= local[vlow]
                        else:
                            break
                    if v:
                        local[v & -v] = v
                    else:
                        zeros += 1
                        if zeros == 2:
                            break
                if zeros != 1:
                    continue
                a1, a2, a3 = mi & ~mj, mj & ~mi, inter
                key = tuple(sorted((a1, a2, a3)))
                if key in seen:
                    continue
                seen.add(key)
                w = 0
                for j in bits(a3):
                    w ^= cols[j]
                ci, cj = circs[bucket[ii]], circs[bucket[jj]]
                yield _make_theta([ci - cj, cj - ci, ci & cj], w, M.dim)


def theta_graphs(M: BinaryMatroid, budget: Budget | None = None) -> list[ThetaGraph]:
    """All theta restrictions of M, each arc triple exactly once."""
    out = list(_theta_scan(M, budget))
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


def _span_vectors(cols: tuple[int, ...]) -> list[int]:
    """Every vector in the GF(2) span of cols (including 0), ascending."""
    ech = Echelon()
    for c in cols:
        ech.insert(c)
    vecs = [0]
    for b in ech.pivots.values():
        vecs += [v ^ b for v in vecs]
    vecs.sort()
    return vecs


def _first_label_per_col(M: BinaryMatroid) -> dict[int, str]:
    rep: dict[int, str] = {}
    for lab, c in zip(M.labels, M.cols):
        rep.setdefault(c, lab)
    return rep


def _pair_route(
    M: BinaryMatroid,
    v: int,
    present: list[int],
    rep: dict[int, str],
    max_combos: int | None,
    budget: Budget | None,
) -> ThetaGraph | None:
    """Search for a theta with three 2-element arcs completed by v.

    Pairs {a, a^v} of present columns are disjoint across distinct
    pairs and any two of them union to a 4-circuit, so three pairs form
    a theta exactly when {a, b, c, v} has rank 4.
    """
    pset = set(present)
    pairs = [a for a in present if a < a ^ v and a ^ v in pset]
    if len(pairs) < 3:
        return None
    count = 0
    for a, b, c in combinations(pairs, 3):
        count += 1
        if max_combos is not None and count > max_combos:
            return None
        if budget is not None:
            budget.tick()
        if rank_bits((a, b, c, v)) == 4:
            arcs = [
                frozenset((rep[a], rep[a ^ v])),
                frozenset((rep[b], rep[b ^ v])),
                frozenset((rep[c], rep[c ^ v])),
            ]
            return _make_theta(arcs, v, M.dim)
    return None


def _arcs_by_target(
    M: BinaryMatroid, targets: list[int], budget: Budget | None
) -> dict[int, list[tuple[int, int]]]:
    """For each target v, all independent sets summing to v, as (mask, size).

    One DFS over independent sets serves every target at once.  At a
    node S with running sum s, the element that would finish a v-sum
    set is determined: it must carry column v ^ s, lie outside S, and
    stay independent.  Supersets of a finished set can never finish for
    the same target again (the two extra elements would have to be
    equal), and an arc never contains a smaller arc for the same target
    (the difference would be a dependency inside an independent set),
    so everything emitted is a genuine candidate arc.

    M must be simple: column values identify elements.
    """
    n = M.size
    cols = M.cols
    colpos = {c: i for i, c in enumerate(cols)}
    r = M.rank
    found: dict[int, set[tuple[int, int]]] = {v: set() for v in targets}
    ech = Echelon()

    def visit(smask: int, ssize: int, s: int) -> None:
        for v in targets:
            t = v ^ s
            j = colpos.get(t)
            if j is not None and not smask >> j & 1 and ech.residue(t):
                found[v].add((smask | (1 << j), ssize + 1))

    def grow(start: int, smask: int, ssize: int, s: int) -> None:
        if budget is not None:
            budget.tick()
        visit(smask, ssize, s)
        if ssize + 1 >= r:
            return
        for i in range(start, n):
            piv = ech.insert(cols[i])
            if piv:
                grow(i + 1, smask | (1 << i), ssize + 1, s ^ cols[i])
                ech.remove(piv)

    grow(0, 0, 0, 0)
    return {v: sorted(found[v], key=lambda p: (p[1], p[0])) for v in targets}


def _theta_from_arcs(
    M: BinaryMatroid, v: int, arcs: list[tuple[int, int]], budget: Budget | None
) -> ThetaGraph | None:
    """Pick three pairwise-compatible v-sum sets forming a theta, if any.

    Two disjoint v-sum sets are compatible when their union has corank 1
    (it is then automatically a circuit).  A compatible triple with
    total corank 2 is a theta with the three sets as arcs.
    """
    k = len(arcs)
    if k < 3:
        return None
    cols = M.cols
    arc_cols = [[cols[j] for j in bits(m)] for m, _ in arcs]
    compat: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        mi, si = arcs[i]
        for j in range(i + 1, k):
            mj, sj = arcs[j]
            if mi & mj:
                continue
            if budget is not None:
                budget.tick()
            if rank_bits(arc_cols[i] + arc_cols[j]) == si + sj - 1:
                compat[i].append(j)
    for i in range(k):
        row = compat[i]
        for a, j in enumerate(row):
            in_j = set(compat[j])
            for l in row[a + 1 :]:
                if l not in in_j:
                    continue
                if budget is not None:
                    budget.tick()
                mi, si = arcs[i]
                mj, sj = arcs[j]
                ml, sl = arcs[l]
                if rank_bits(arc_cols[i] + arc_cols[j] + arc_cols[l]) == si + sj + sl - 2:
                    labs = [
                        _labels_of_mask(M, mi),
                        _labels_of_mask(M, mj),
                        _labels_of_mask(M, ml),
                    ]
                    return _make_theta(labs, v, M.dim)
    return None


def find_theta_completed_by(
    M: BinaryMatroid, v: int, budget: Budget | None = None
) -> ThetaGraph | None:
    """Exact search for a theta of M whose completing vector is v.

    Tries the cheap all-pairs route first, then the general search over
    independent v-sum sets.  Parallel copies never matter here (an arc
    repeats no column value), so the search runs on the simplification.
    """
    S = M if M.is_simple else simplify(M)
    rep = _first_label_per_col(S)
    present = sorted(c for c in rep if c)
    hit = _pair_route(S, v, present, rep, None, budget)
    if hit is not None:
        return hit
    arcs = _arcs_by_target(S, [v], budget)[v]
    return _theta_from_arcs(S, v, arcs, budget)


def _is_full_projective(M: BinaryMatroid) -> bool:
    """Simple, and the columns are every nonzero vector of their span."""
    return M.size > 0 and M.is_simple and len(M.colset) == (1 << M.rank) - 1


def _fast_incomplete_witness(
    M: BinaryMatroid, budget: Budget | None
) -> ThetaGraph | None:
    """Capped pair-route sweep over missing span vectors; sound, not complete."""
    if M.rank > _PREPASS_MAX_RANK:
        return None
    rep = _first_label_per_col(M)
    present = sorted(c for c in rep if c)
    pset = M.colset
    for v in _span_vectors(M.cols):
        if v == 0 or v in pset:
            continue
        hit = _pair_route(M, v, present, rep, _PREPASS_COMBOS_PER_VECTOR, budget)
        if hit is not None:
            return hit
    return None


def is_theta3_closed(
    M: BinaryMatroid,
    *,
    use_shortcut: bool = True,
    budget: Budget | None = None,
) -> tuple[bool, ThetaGraph | None]:
    """Decide whether every theta of M is complete; witness on failure.

    With use_shortcut enabled, a simple matroid whose columns exhaust
    every nonzero vector of their span is accepted immediately (a full
    projective restriction has no room for an incomplete theta).  A
    capped per-missing-vector pre-pass catches most negatives quickly;
    the full circuit-pair scan then settles the rest exactly.
    """
    if use_shortcut and _is_full_projective(M):
        return True, None
    witness = _fast_incomplete_witness(M, budget)
    if witness is not None:
        return False, witness
    for T in _theta_scan(M, budget):
        ok, _ = is_complete(M, T)
        if not ok:
            return False, T
    return True, None


def _incomplete_vectors(
    M: BinaryMatroid, budget: Budget | None
) -> list[tuple[int, ThetaGraph]]:
    """Missing span vectors that complete some theta of M, ascending.

    Exact when it reports nothing, which is what certifies a fixed
    point.  On matroids past FULL_ENUM_LIMIT the capped pair route may
    return a partial answer; later rounds pick up whatever it skipped
    (additions never invalidate earlier ones), and once it comes up
    empty the uncapped general search has the final word.
    """
    if _is_full_projective(M):
        return []
    if M.size <= FULL_ENUM_LIMIT:
        seen: dict[int, ThetaGraph] = {}
        for T in _theta_scan(M, budget):
            ok, _ = is_complete(M, T)
            if not ok:
                seen.setdefault(T.completing, T)
        return sorted(seen.items())
    rep = _first_label_per_col(M)
    present = sorted(c for c in rep if c)
    pset = M.colset
    missing = [v for v in _span_vectors(M.cols) if v and v not in pset]
    out: list[tuple[int, ThetaGraph]] = []
    for v in missing:
        hit = _pair_route(M, v, present, rep, _PREPASS_COMBOS_PER_VECTOR, budget)
        if hit is not None:
            out.append((v, hit))
    if out:
        return out
    arcs_all = _arcs_by_target(M, missing, budget)
    for v in missing:
        hit = _theta_from_arcs(M, v, arcs_all[v], budget)
        if hit is not None:
            out.append((v, hit))
    return out


def theta3_closure(
    M: BinaryMatroid,
    *,
    strategy: str = "batch",
    budget: Budget | None = None,
) -> tuple[BinaryMatroid, ClosureTrace]:
    """Iterate "add completing vectors of incomplete thetas" to a fixed point.

    The input is simplified first; added elements get labels "v" plus
    the bit pattern (row 1 first).  strategy "batch" adds every vector
    found in a round, "one_at_a_time" adds only the smallest; both end
    at the same fixed point, which the test suite asserts rather than
    assumes.
    """
    if strategy not in ("batch", "one_at_a_time"):
        raise ValueError(f"unknown strategy {strategy!r}")
    start = simplify(M)
    cur = start
    rounds: list[ClosureRound] = []
    while True:
        found = _incomplete_vectors(cur, budget)
        if not found:
            break
        if strategy == "one_at_a_time":
            found = found[:1]
        added = []
        wits = []
        for v, T in found:
            lab = f"v{bits_to_str(v, cur.dim)}"
            while lab in cur.label_set:
                lab += "'"
            cur = cur.extend(lab, v)
            added.append(v)
            wits.append(T)
        rounds.append(ClosureRound(tuple(added), tuple(wits)))
    return cur, ClosureTrace(initial=start, final=cur, rounds=tuple(rounds))


def graph_is_theta3_closed(edges: list[tuple[str, str, str]]) -> bool:
    """Cycle-matroid delegation: build incidence columns and decide there."""
    from theta3.construct import cycle_matroid

    closed, _ = is_theta3_closed(cycle_matroid(edges))
    return closed
