"""Labeled binary matroids and their standard operations.

A BinaryMatroid is an ordered family of GF(2) columns with distinct
string labels.  Duplicate columns (parallel elements) and zero columns
(loops) are allowed everywhere.  All operations are pure functions; the
dataclass is frozen and hashable, so matroids can sit in sets and dicts.

Circuit enumeration is a backtracking search over independent sets in
label order, with one twist: the echelon basis tracks which inserted
columns each reduction consumed, so when a new column lands in the span
of the current independent set we know the unique subset it depends on.
The set S together with the new element e is emitted exactly when that
subset is all of S, which makes every circuit appear exactly once (at
S = C minus its largest element).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from theta3.budget import Budget
from theta3.gf2 import (
    MAX_DIM,
    DimensionError,
    Echelon,
    bits,
    bits_to_str,
    dual_representation,
    rank_bits,
)

__all__ = [
    "BinaryMatroid",
    "UnknownLabelError",
    "rank_of",
    "closure_flat",
    "circuits",
    "delete",
    "contract",
    "restrict",
    "simplify",
    "dual",
    "direct_sum",
    "local_connectivity",
    "connected_components",
    "is_connected",
    "is_3connected",
    "exact_two_separations",
]


class UnknownLabelError(KeyError):
    """A label that does not belong to the matroid's ground set."""


@dataclass(frozen=True)
class BinaryMatroid:
    labels: tuple[str, ...]
    cols: tuple[int, ...]
    dim: int

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.cols):
            raise ValueError("labels and cols must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be pairwise distinct")
        if not 0 <= self.dim <= MAX_DIM:
            raise DimensionError(f"ambient dimension {self.dim} outside 0..{MAX_DIM}")
        for lab, c in zip(self.labels, self.cols):
            if c < 0 or c >> self.dim:
                raise DimensionError(f"column {lab!r} = {c:#x} does not fit dimension {self.dim}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]], dim: int) -> "BinaryMatroid":
        labels, cols = zip(*pairs) if pairs else ((), ())
        return cls(tuple(labels), tuple(cols), dim)

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
        return BinaryMatroid(self.labels + (label,), self.cols + (col,), self.dim)

    def _positions(self, labels: Iterable[str]) -> list[int]:
        idx = self._index
        out = []
        for lab in labels:
            if lab not in idx:
                raise UnknownLabelError(lab)
            out.append(idx[lab])
        return out


# -- rank, closure, circuits -------------------------------------------


def rank_of(M: BinaryMatroid, S: Iterable[str]) -> int:
    return rank_bits(M.cols[i] for i in M._positions(S))


def closure_flat(M: BinaryMatroid, S: Iterable[str]) -> frozenset[str]:
    """All elements whose column lies in span(S).  Idempotent, contains S."""
    ech = Echelon()
    for i in M._positions(S):
        ech.insert(M.cols[i])
    return frozenset(lab for lab, c in zip(M.labels, M.cols) if ech.residue(c) == 0)


def circuits(M: BinaryMatroid, max_size: int | None = None) -> list[frozenset[str]]:
    """All circuits of size <= max_size (default rank+1, which is all of them)."""
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be positive")
    cap = M.rank + 1 if max_size is None else min(max_size, M.rank + 1)
    n = M.size
    cols = M.cols
    labels = M.labels
    out: list[frozenset[str]] = []
    ech = Echelon()

    def grow(start: int, smask: int, ssize: int) -> None:
        for i in range(start, n):
            res, orig = ech.tracked_residue(cols[i], 1 << i)
            if res == 0:
                if orig == smask | (1 << i):
                    out.append(frozenset(labels[j] for j in bits(orig)))
            elif ssize + 1 < cap:
                piv = ech.insert(cols[i], 1 << i)
                grow(i + 1, smask | (1 << i), ssize + 1)
                ech.remove(piv)

    grow(0, 0, 0)
    out.sort(key=lambda c: (len(c), sorted(c)))
    return out


# -- minors, duality, sums ----------------------------------------------


def delete(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    drop = set(M._positions(S))
    keep = [i for i in range(M.size) if i not in drop]
    return BinaryMatroid(
        tuple(M.labels[i] for i in keep), tuple(M.cols[i] for i in keep), M.dim
    )


def restrict(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    keep = sorted(M._positions(S))
    return BinaryMatroid(
        tuple(M.labels[i] for i in keep), tuple(M.cols[i] for i in keep), M.dim
    )


def contract(M: BinaryMatroid, S: Iterable[str]) -> BinaryMatroid:
    """Contract S: quotient the span of S out of the ambient space.

    A basis of S is echelonized, every remaining column is fully reduced
    against it, and the pivot rows (now identically zero) are dropped.
    Contracting a loop therefore just deletes it.
    """
    drop = set(M._positions(S))
    ech = Echelon()
    for i in sorted(drop):
        ech.insert(M.cols[i])
    pivot_mask = 0
    for b in ech.pivots:
        pivot_mask |= b
    keep_bits = [b for b in range(M.dim) if not pivot_mask >> b & 1]
    new_pos = {b: p for p, b in enumerate(keep_bits)}
    new_dim = len(keep_bits)

    def squeeze(v: int) -> int:
        out = 0
        for b in bits(ech.full_residue(v)):
            out |= 1 << new_pos[b]
        return out

    keep = [i for i in range(M.size) if i not in drop]
    return BinaryMatroid(
        tuple(M.labels[i] for i in keep),
        tuple(squeeze(M.cols[i]) for i in keep),
        new_dim,
    )


def simplify(M: BinaryMatroid) -> BinaryMatroid:
    """Drop loops and keep the lexicographically smallest label per parallel class."""
    reps: dict[int, str] = {}
    for lab, c in zip(M.labels, M.cols):
        if c and (c not in reps or lab < reps[c]):
            reps[c] = lab
    chosen = set(reps.values())
    keep = [i for i, lab in enumerate(M.labels) if lab in chosen]
    return BinaryMatroid(
        tuple(M.labels[i] for i in keep), tuple(M.cols[i] for i in keep), M.dim
    )


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
    ech = Echelon()
    pos = 0
    coords = []
    for c in M.cols:
        res, orig = ech.tracked_residue(c)
        if res:
            ech.insert(c, 1 << pos)
            coords.append(1 << pos)
            pos += 1
        else:
            coords.append(orig)
    return BinaryMatroid(M.labels, tuple(coords), pos)


# -- connectivity --------------------------------------------------------


def local_connectivity(M: BinaryMatroid, X: Iterable[str], Y: Iterable[str]) -> int:
    X, Y = frozenset(X), frozenset(Y)
    return rank_of(M, X) + rank_of(M, Y) - rank_of(M, X | Y)


def union_find_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find over 0..n-1: merge every pair, return each item's root."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return [find(i) for i in range(n)]


def connected_components(M: BinaryMatroid) -> list[frozenset[str]]:
    """Circuit-connectivity classes; loops and coloops end up as singletons.

    Fundamental circuits of one greedy basis already generate the whole
    partition, so a single pass plus union-find does it.
    """

    def fundamental_pairs() -> Iterator[tuple[int, int]]:
        ech = Echelon()
        for i, c in enumerate(M.cols):
            res, orig = ech.tracked_residue(c)
            if res:
                ech.insert(c, 1 << i)
            else:
                for j in bits(orig):
                    yield i, j

    groups: dict[int, list[str]] = {}
    for lab, root in zip(M.labels, union_find_roots(M.size, fundamental_pairs())):
        groups.setdefault(root, []).append(lab)
    return [frozenset(groups[root]) for root in sorted(groups)]


def is_connected(M: BinaryMatroid) -> bool:
    return len(connected_components(M)) <= 1


def exact_two_separations(
    M: BinaryMatroid, budget: Budget | None = None
) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
    """Yield every partition (X, Y), |X|,|Y| >= 2, r(X)+r(Y) = r(M)+1.

    Backtracking over element assignments; both side ranks are kept
    incrementally and the branch is cut as soon as their sum passes
    r(M)+1, since ranks never decrease.  Element 0 is pinned to X to
    break the X/Y symmetry.  Pairs come out with the smaller side first.
    """
    n = M.size
    if n < 4:
        return
    target = M.rank + 1
    cols = M.cols
    labels = M.labels
    echx, echy = Echelon(), Echelon()
    xs: list[int] = [0]
    ys: list[int] = []
    echx.insert(cols[0])

    def assign(i: int) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
        if budget is not None:
            budget.tick()
        if i == n:
            if len(xs) >= 2 and len(ys) >= 2 and echx.rank + echy.rank == target:
                X = frozenset(labels[j] for j in xs)
                Y = frozenset(labels[j] for j in ys)
                if (len(X), sorted(X)) <= (len(Y), sorted(Y)):
                    yield X, Y
                else:
                    yield Y, X
            return
        rem = n - i - 1
        c = cols[i]
        if len(ys) + rem >= 2:
            piv = echx.insert(c)
            if echx.rank + echy.rank <= target:
                xs.append(i)
                yield from assign(i + 1)
                xs.pop()
            if piv:
                echx.remove(piv)
        if len(xs) + rem >= 2:
            piv = echy.insert(c)
            if echx.rank + echy.rank <= target:
                ys.append(i)
                yield from assign(i + 1)
                ys.pop()
            if piv:
                echy.remove(piv)

    yield from assign(1)


def is_3connected(M: BinaryMatroid, budget: Budget | None = None) -> bool:
    """Connected with no exact 2-separation (both sides of size >= 2)."""
    if not is_connected(M):
        return False
    return next(exact_two_separations(M, budget), None) is None
