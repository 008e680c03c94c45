"""Labeled binary matroids and their standard operations.

A BinaryMatroid is an ordered family of GF(2) columns with distinct
string labels.  Duplicate columns (parallel elements) and zero columns
(loops) are allowed everywhere.  All operations are pure functions; a
matroid is immutable, equal to another exactly when their labels,
columns and dimension are, and hashable, so matroids can sit in sets
and dicts.
A matroid works out its rank, its greedy coordinates and its connected
components once, on first use, and keeps them; restrict, delete and
simplify return M itself when they keep every element, so what M has
worked out is not redone.

Circuits are enumerated from the cycle space.  Over a greedy basis
each non-basis element e has a fundamental circuit (e plus the basis
elements its coordinates use), and every cycle (a set whose columns sum
to zero) is the XOR of the fundamental circuits of its non-basis
elements, so each cycle comes from exactly one set of them.  A cycle
whose non-basis part holds a circuit contains that circuit, so only
independent sets of non-basis elements are expanded, and a loop or a
pair of parallel copies never widens the walk.  A cycle is a circuit
exactly when its columns have nullity 1, which gf2.nullity_one decides
on the coordinates of its non-basis elements; the theta scan decides
its circuit pairs by the same rule.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from theta3.budget import Budget
from theta3.gf2 import (
    MAX_DIM,
    DimensionError,
    bits,
    bits_to_str,
    dual_representation,
    greedy_coordinates,
    nullity_one,
    rank_bits,
)

__all__ = [
    "BinaryMatroid",
    "UnknownLabelError",
    "same_matroid",
    "rank_of",
    "circuits",
    "delete",
    "contract",
    "restrict",
    "simplify",
    "dual",
    "direct_sum",
    "connected_components",
    "is_connected",
    "exact_two_separations",
]


class cached_property:
    """functools.cached_property without its lock: the value is worked
    out on first access and stored in the instance's __dict__, where
    later lookups find it before this non-data descriptor.  Python 3.11
    takes a lock on every first access, which costs more than most of
    the values here; 3.12 dropped it.
    """

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class UnknownLabelError(KeyError):
    """A label that does not belong to the matroid's ground set."""

    def __str__(self) -> str:
        # KeyError's str is the bare repr of the key
        return f"unknown label {self.args[0]!r}"


def _check_cols(labels: Iterable[str], cols: Iterable[int], dim: int) -> None:
    for lab, c in zip(labels, cols):
        if c < 0 or c >> dim:
            raise DimensionError(f"column {lab!r} = {c:#x} does not fit dimension {dim}")


class BinaryMatroid:
    """labels, int columns (bit i is row i+1) and the ambient dimension.

    Attributes cannot be set or deleted.  What a matroid works out on
    first use (its cached properties) goes straight into its __dict__.
    One entry there is not derived from the matroid alone: _walk, the
    walk of the last decompose.canonical_tree_decomposition(M) with the
    budget it was charged to, which classify_theta3(M) reads under that
    same budget instead of walking again.
    """

    labels: tuple[str, ...]
    cols: tuple[int, ...]
    dim: int

    def __init__(self, labels: tuple[str, ...], cols: tuple[int, ...], dim: int) -> None:
        if len(labels) != len(cols):
            raise ValueError("labels and cols must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        if not 0 <= dim <= MAX_DIM:
            raise DimensionError(f"ambient dimension {dim} outside 0..{MAX_DIM}")
        _check_cols(labels, cols, dim)
        self.__dict__.update(labels=labels, cols=cols, dim=dim)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a BinaryMatroid")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a BinaryMatroid")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.cols, self.dim) == (other.labels, other.cols, other.dim)

    def __hash__(self) -> int:
        return hash((self.labels, self.cols, self.dim))

    def __repr__(self) -> str:
        return f"BinaryMatroid(labels={self.labels!r}, cols={self.cols!r}, dim={self.dim!r})"

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]], dim: int) -> "BinaryMatroid":
        labels, cols = tuple(zip(*pairs)) or ((), ())
        return cls(labels, cols, dim)

    @classmethod
    def _derived(
        cls,
        labels: tuple[str, ...],
        cols: tuple[int, ...],
        dim: int,
        rank: int | None = None,
    ) -> "BinaryMatroid":
        """A matroid the caller has already validated, built unchecked.

        For results of operations on a valid matroid that keep its
        dimension and take a subfamily of its elements, add one element
        checked on its own, or add vectors of its span under new labels.
        In the last case the caller may pass the rank, which is then not
        computed again.
        """
        M = object.__new__(cls)
        M.__dict__.update(labels=labels, cols=cols, dim=dim)
        if rank is not None:
            # seeds the cached rank property
            M.__dict__["rank"] = rank
        return M

    # -- basic views ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def label_set(self) -> frozenset[str]:
        return frozenset(self.labels)

    @cached_property
    def rank(self) -> int:
        return rank_bits(self.cols)

    @cached_property
    def coordinates(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """greedy_coordinates(cols) as (coords, basis), both tuples."""
        coords, basis = greedy_coordinates(self.cols)
        return tuple(coords), tuple(basis)

    @cached_property
    def _components(self) -> tuple[frozenset[str], ...]:
        """Circuit-connectivity classes in order of their first element;
        see connected_components."""
        coords, _ = self.coordinates
        classes = _coordinate_classes(coords)
        groups: dict[int, list[str]] = {}
        for i, (lab, c) in enumerate(zip(self.labels, coords)):
            # a loop has no coordinates and is a class of its own
            key = next(m for m in classes if m & c) if c else ~i
            groups.setdefault(key, []).append(lab)
        return tuple(frozenset(g) for g in groups.values())

    @cached_property
    def colset(self) -> frozenset[int]:
        return frozenset(self.cols)

    @cached_property
    def is_simple(self) -> bool:
        return 0 not in self.cols and len(self.colset) == self.size

    def col_of(self, label: str) -> int:
        try:
            return self.cols[self._index[label]]
        except KeyError:
            raise UnknownLabelError(label) from None

    def col_str(self, label: str) -> str:
        return bits_to_str(self.col_of(label), self.dim)

    def loops(self) -> frozenset[str]:
        return frozenset(lab for lab, c in zip(self.labels, self.cols) if c == 0)

    def parallel_classes(self) -> list[frozenset[str]]:
        """Nonloop elements grouped by column value, in first-seen order."""
        groups: dict[int, list[str]] = {}
        for lab, c in zip(self.labels, self.cols):
            if c:
                groups.setdefault(c, []).append(lab)
        return [frozenset(g) for g in groups.values()]

    def relabel(self, mapping: Mapping[str, str]) -> "BinaryMatroid":
        """Rename elements; labels absent from mapping stay as they are."""
        new = tuple(mapping.get(lab, lab) for lab in self.labels)
        return BinaryMatroid(new, self.cols, self.dim)

    def extend(self, label: str, col: int) -> "BinaryMatroid":
        if label in self._index:
            raise ValueError(f"label {label!r} already present")
        _check_cols((label,), (col,), self.dim)
        return BinaryMatroid._derived(self.labels + (label,), self.cols + (col,), self.dim)

    def _positions(self, labels: Iterable[str]) -> list[int]:
        idx = self._index
        out = []
        for lab in labels:
            if lab not in idx:
                raise UnknownLabelError(lab)
            out.append(idx[lab])
        return out


# -- rank, closure, circuits -------------------------------------------


def same_matroid(M: BinaryMatroid, N: BinaryMatroid) -> bool:
    """Whether M and N are the same matroid on the same labels.

    A binary matroid is uniquely representable, and coordinates over the
    greedy basis of one label order are its fundamental circuits, so
    they decide equality whatever the two ambient spaces are.
    """
    if M.label_set != N.label_set:
        return False
    coords, basis = greedy_coordinates([N.col_of(lab) for lab in M.labels])
    return M.coordinates == (tuple(coords), tuple(basis))


def rank_of(M: BinaryMatroid, S: Iterable[str]) -> int:
    return rank_bits(M.cols[i] for i in M._positions(S))


def circuits(M: BinaryMatroid, budget: Budget | None = None) -> list[frozenset[str]]:
    """All circuits, shortest first, then by sorted labels."""
    return [frozenset(M.labels[j] for j in bits(c)) for c in _circuit_masks(M, budget)]


def _circuit_masks(
    M: BinaryMatroid, budget: Budget | None = None, max_size: int | None = None
) -> list[int]:
    """All circuits as element-index masks, in the order of `circuits`;
    with max_size, only those of at most max_size elements.

    Loops are the singleton circuits and lie in no other, so they are
    listed directly and left out of the walk.  A set T of non-basis
    elements carries three running XORs of its fundamental circuits:
    in coordinates (the basis part in bits 0..r-1, element t of T at
    bit r+t), which the nullity test reads; as an element mask, which
    is what a circuit is emitted as; and as a label-rank mask, in which
    bit k stands for the k-th largest label, so that of two circuits of
    one size the one with the larger label-rank mask comes first in
    sorted-label order.  Only independent T are expanded: if T holds a
    circuit D, the cycle of any larger set contains D and so is not a
    circuit.  The cycle of T is a circuit exactly when T's coordinates,
    with the cycle's own basis coordinates masked out, have nullity 1:
    the basis elements in the cycle are unit columns.  Masked, the
    coordinates sum to zero, so gf2.nullity_one decides that; each
    stack entry carries T's coordinates for it.  Independence is read
    off an echelon of T's coordinates, each row reduced by the ones
    before it.  A stack entry carries its candidates' residues as T's
    parent reduced them, and T's newest row: one reduction by that row
    gives each candidate's residue against all of T, which decides
    whether T + t is independent and is what T + t's own entry carries.
    The budget ticks once per XOR tried by an expanded set, counted as
    the set is expanded and charged in batches of
    Budget.batch_limit(), so a node cap stops the walk within one
    expanded set; its clock is also read per emitted circuit.

    A circuit has at most r + 1 elements, so the walk emits cycles of
    at most cap = min(max_size, r + 1) elements.  Let x be the basis
    part of the cycle of T + t.  A descendant adds a nonempty set S of
    later candidates, and its cycle has |T + t| + |S| + |x + sum(S)|
    elements, the sum taken over S's coordinates.  So T + t is pushed
    only while its room, cap - |T + t|, can hold |S| + |x + sum(S)|:
    never when the room is at most 0; when it is 1, only if a later
    candidate's coordinates are x; when it is 2, only if some later c
    has |x + c| <= 1, or x + c is the coordinates of a candidate after
    c.  Both tests read a dict from each coordinate vector to its last
    candidate position, built once per walk, and read no more
    candidates than the pushed set's own loop would.  With room 3 or
    more T + t is pushed as it is.  The tests ignore
    independence, so a set whose descendants would emit is never
    dropped; a dropped set's descendants hold no cycle within the cap,
    so no nullity decision is lost either, and only the count of
    expanded sets, and so of nodes, falls (Oxley, Matroid Theory: the
    cycles of a binary matroid are the sums of its fundamental
    circuits).  A set that will not be expanded and whose cycle is
    longer than the cap is skipped before its independence test, which
    only decides what else to do with it.
    """
    if budget is None:
        budget = Budget()
    n = M.size
    r = M.rank
    cap = r + 1 if max_size is None else min(max_size, r + 1)
    basis_part = (1 << r) - 1
    coords, basis = M.coordinates
    in_basis = set(basis)
    nonbasis = [e for e, c in enumerate(M.cols) if c and e not in in_basis]
    m = len(nonbasis)
    # The k-th largest label, from k = 0, weighs 2^k: of two circuits of one
    # size, the one whose first differing sorted label is smaller weighs more.
    weight = [0] * n
    for k, e in enumerate(sorted(range(n), key=M.labels.__getitem__, reverse=True)):
        weight[e] = 1 << k
    tcoords = [coords[e] for e in nonbasis]
    vecs = []
    emasks = []
    lmasks = []
    for t, (e, c) in enumerate(zip(nonbasis, tcoords)):
        vecs.append(c | 1 << (r + t))
        em, lm = 1 << e, weight[e]
        for k in bits(c):
            em |= 1 << basis[k]
            lm |= weight[basis[k]]
        emasks.append(em)
        lmasks.append(lm)
    # (sort key, element mask) per circuit; a label-rank mask is below
    # 2^n, so the key orders by size, then by label-rank mask, largest first
    found = [((1 << n) - weight[e], 1 << e) for e, c in enumerate(M.cols) if not c]
    # the last candidate position of each coordinate vector
    last = {c: t for t, c in enumerate(tcoords)}
    pending = 0
    limit = budget.batch_limit()
    # Entries (first t to add, the three XORs so far, the residues of the
    # candidates from position `off` on as T's parent reduced them, T's
    # newest echelon row, T's coordinates in insertion order).
    stack: list[tuple[int, int, int, int, list[int], int, int, tuple[int, ...]]]
    stack = [(0, 0, 0, 0, tcoords, 0, 0, ())]
    push, pop = stack.append, stack.pop
    while stack:
        start, x, xe, xl, res, off, row, held = pop()
        low = row & -row
        pending += m - start
        if pending >= limit:
            budget.tick(pending)
            pending = 0
            limit = budget.batch_limit()
        # what the cap leaves a descendant of T + t for S and its basis part
        room = cap - len(held) - 1
        reduced: list[int] = []
        for t, v in enumerate(res[start - off :], start):
            y = x ^ vecs[t]
            size = y.bit_count()
            if size > cap and room <= 0:
                # T + t closes no circuit here and is not grown
                continue
            if v & low:
                v ^= row
            reduced.append(v)
            if v:
                if room > 0 and t + 1 < m:
                    b = y & basis_part
                    if room == 1:
                        reach = last.get(b, 0) > t
                    elif room == 2:
                        for s in range(t + 1, m):
                            d = b ^ tcoords[s]
                            if not d & (d - 1) or last.get(d, 0) > s:
                                reach = True
                                break
                        else:
                            reach = False
                    else:
                        reach = True
                    if reach:
                        push(
                            (t + 1, y, xe ^ emasks[t], xl ^ lmasks[t],
                             reduced, start, v, held + (tcoords[t],))
                        )
            elif y & basis_part:
                # T + t holds a circuit, and its cycle is larger still.
                continue
            if size <= cap and nullity_one([u & ~y for u in held] + [tcoords[t] & ~y]):
                found.append(((size << n) - (xl ^ lmasks[t]), xe ^ emasks[t]))
                budget.check_time()
    budget.tick(pending)
    found.sort()
    return [c for _, c in found]


# -- minors, duality, sums ----------------------------------------------


def _sub(M: BinaryMatroid, keep: list[int]) -> BinaryMatroid:
    """M restricted to the elements at these increasing positions: M
    itself when that is all of them."""
    if len(keep) == M.size:
        return M
    return BinaryMatroid._derived(
        tuple(M.labels[i] for i in keep), tuple(M.cols[i] for i in keep), M.dim
    )


def delete(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    drop = set(M._positions(S))
    return _sub(M, [i for i in range(M.size) if i not in drop])


def restrict(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    return _sub(M, sorted(set(M._positions(S))))


def contract(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    """Contract S: quotient the span of S out of the column space.

    The columns are rewritten over a greedy basis that starts inside S,
    and the leading r(S) coordinates, which span S, are dropped.  The
    result is in rank coordinates, of dimension r(M) - r(S), whatever
    the dimension of M.  Contracting a loop therefore just deletes it.
    """
    drop = set(M._positions(S))
    coords, basis = greedy_coordinates(M.cols, sorted(drop))
    k = len(drop.intersection(basis))
    keep = [i for i in range(M.size) if i not in drop]
    return BinaryMatroid(
        tuple(M.labels[i] for i in keep),
        tuple(coords[i] >> k for i in keep),
        len(basis) - k,
    )


def simplify(M: BinaryMatroid) -> BinaryMatroid:
    """Drop loops and keep the lexicographically smallest label per parallel class."""
    reps: dict[int, str] = {}
    for lab, c in zip(M.labels, M.cols):
        if c and (c not in reps or lab < reps[c]):
            reps[c] = lab
    chosen = set(reps.values())
    return _sub(M, [i for i, lab in enumerate(M.labels) if lab in chosen])


def dual(M: BinaryMatroid) -> BinaryMatroid:
    cols, dual_dim = dual_representation(M.cols)
    return BinaryMatroid(M.labels, cols, dual_dim)


def direct_sum(M: BinaryMatroid, N: BinaryMatroid) -> BinaryMatroid:
    """Block-diagonal sum; compacts to rank coordinates only when it must."""
    clash = M.label_set & N.label_set
    if clash:
        raise ValueError(f"label collision in direct sum: {sorted(clash)}")
    if M.dim + N.dim > MAX_DIM:
        M, N = _compact(M), _compact(N)
        if M.dim + N.dim > MAX_DIM:
            raise DimensionError(
                f"direct sum needs dimension {M.dim + N.dim} > MAX_DIM = {MAX_DIM}"
            )
    shift = M.dim
    return BinaryMatroid(
        M.labels + N.labels,
        M.cols + tuple(c << shift for c in N.cols),
        M.dim + N.dim,
    )


def _compact(M: BinaryMatroid) -> BinaryMatroid:
    """Re-coordinatize over a greedy basis so ambient dim equals rank."""
    coords, basis = M.coordinates
    return BinaryMatroid(M.labels, coords, len(basis))


# -- connectivity --------------------------------------------------------


def _coordinate_classes(vectors: Iterable[int]) -> list[int]:
    """Coordinate masks of the connected components, given coordinates
    over a basis: two coordinates are joined when one vector uses both."""
    classes: list[int] = []
    for v in vectors:
        if not v:
            continue
        rest = []
        for m in classes:
            if m & v:
                v |= m
            else:
                rest.append(m)
        rest.append(v)
        classes = rest
    return classes


def connected_components(M: BinaryMatroid) -> list[frozenset[str]]:
    """Circuit-connectivity classes, in order of their first element;
    loops and coloops end up as singletons.

    Fundamental circuits of one greedy basis already generate the whole
    partition: each element is joined to the basis elements its
    coordinates use (a basis element only to itself).  M keeps the
    classes; each call returns a new list of them.
    """
    return list(M._components)


def is_connected(M: BinaryMatroid) -> bool:
    return len(M._components) <= 1


def exact_two_separations(
    M: BinaryMatroid, budget: Budget | None = None
) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
    """Yield every partition (X, Y), |X|,|Y| >= 2, r(X)+r(Y) = r(M)+1.

    Depth-first backtracking over element assignments, X before Y at
    every element; both side ranks are kept incrementally.  Elements are
    placed in order, so X u Y is always the first i elements, and
    r(X) + r(Y) - r(X u Y), the dimension of span X n span Y, never
    decreases as elements are added; at a leaf it must be 1.  So the
    branch is cut as soon as it reaches 2, against the ranks of the
    prefixes, read off M's greedy basis (which also keeps the rank sum
    within r(M)+1).  Element 0 is pinned to X to break the X/Y symmetry.
    Pairs come out with the smaller side first.  The DFS keeps an
    explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.  The budget is charged one node per visit, counted locally and
    passed on when the count reaches Budget.batch_limit(), before every
    yield and at the end, so a node cap raises on the same node, with
    the same count, as a tick per node would.  The canonical tree does
    not use it (construct.cut_walk splits at vectors instead); it is
    the reference the tests hold that walk to.
    """
    n = M.size
    if n < 4:
        return
    if budget is None:
        budget = Budget()
    visited = 0
    limit = budget.batch_limit()
    target = M.rank + 1
    cols = M.cols
    labels = M.labels
    # prefix_rank[i] = r(first i elements): the greedy basis elements before i
    in_basis = set(M.coordinates[1])
    prefix_rank = [0]
    for i in range(n):
        prefix_rank.append(prefix_rank[-1] + (i in in_basis))
    # Each side's columns in bare lazy pivot form (pivot bit -> vector); an
    # insert stores the residue under its lowest bit, so deleting that
    # pivot undoes it exactly.  ranks is the sum of the two sides' ranks.
    side_pivots: tuple[dict[int, int], dict[int, int]] = ({}, {})
    sides: tuple[list[int], list[int]] = ([0], [])
    if cols[0]:
        side_pivots[0][cols[0] & -cols[0]] = cols[0]
    ranks = len(side_pivots[0])
    # Entries (step, i, side, piv): visit the node that places element i
    # (its X branch follows at once), place element i on the Y side once
    # the X branch is done, or take element i off a side, undoing piv.
    VISIT, PLACE_Y, UNDO = 0, 1, 2
    stack = [(VISIT, 1, 0, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        step, i, s, piv = pop()
        if step == UNDO:
            sides[s].pop()
            if piv:
                del side_pivots[s][piv]
                ranks -= 1
            continue
        if step == VISIT:
            visited += 1
            if visited >= limit:
                budget.tick(visited)
                visited = 0
                limit = budget.batch_limit()
            if i == n:
                xs, ys = sides
                if len(xs) >= 2 and len(ys) >= 2 and ranks == target:
                    X = frozenset(labels[j] for j in xs)
                    Y = frozenset(labels[j] for j in ys)
                    budget.tick(visited)
                    visited = 0
                    if (len(X), sorted(X)) <= (len(Y), sorted(Y)):
                        yield X, Y
                    else:
                        yield Y, X
                    limit = budget.batch_limit()
                continue
            push((PLACE_Y, i, 1, 0))
        if len(sides[1 - s]) + n - i - 1 >= 2:
            pivots = side_pivots[s]
            v = cols[i]
            while v:
                piv = v & -v
                if piv not in pivots:
                    break
                v ^= pivots[piv]
            if not v:
                piv = 0
            elif ranks <= prefix_rank[i + 1]:
                pivots[piv] = v
                ranks += 1
            else:
                continue  # span X n span Y would reach dimension 2
            sides[s].append(i)
            push((UNDO, i, s, piv))
            push((VISIT, i + 1, 0, 0))
    budget.tick(visited)
