"""Bit-packed GF(2) columns and elimination.

A column over rows 1..d is stored as a plain int: bit i-1 holds row i.
The string form reads row 1 first, so "110000" is the integer 3
(rows 1 and 2 set).  Dimension is capped at MAX_DIM = 16; the largest
geometry we target lives in dimension 6, so one machine word per column
leaves plenty of headroom.

Elimination uses the lowest set bit of a vector as its pivot.  The one
echelon form is a bare dict from pivot bit to stored vector, kept
*lazily* reduced: stored vectors are never rewritten when a later pivot
arrives.  Lazy reduction is enough for rank and span membership, and an
insert is undone exactly by deleting its pivot, which the separation
search in matroid relies on.  pivots_of builds the form; only
greedy_coordinates also tracks which columns each stored vector sums.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

__all__ = [
    "MAX_DIM",
    "DimensionError",
    "bits",
    "bits_from_str",
    "bits_to_str",
    "pivots_of",
    "rank_bits",
    "nullity_one",
    "greedy_coordinates",
    "dual_representation",
]

MAX_DIM = 16


class DimensionError(ValueError):
    """Dimension mismatch, or a dimension beyond MAX_DIM."""


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_from_str(s: str) -> int:
    """Parse "0110..." (row 1 first) into the int encoding."""
    # what strip leaves starts at the first character that is not a bit
    bad = s.strip("01")
    if bad:
        raise ValueError(f"bad bit character {bad[0]!r} in {s!r}")
    return int(s[::-1], 2) if s else 0


def bits_to_str(mask: int, dim: int) -> str:
    """The string form of a mask below 2**dim, row 1 first."""
    return format(mask, f"0{dim}b")[::-1] if dim else ""


def pivots_of(cols: Iterable[int]) -> dict[int, int]:
    """The columns in lazy echelon form: pivot bit -> stored vector.

    Each column is reduced by the pivots stored so far and, unless it
    reduces to zero, stored under its lowest remaining bit.
    """
    pivots: dict[int, int] = {}
    for v in cols:
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
    return pivots


def rank_bits(cols: Iterable[int]) -> int:
    """Rank of the columns."""
    return len(pivots_of(cols))


def nullity_one(vecs: Sequence[int]) -> bool:
    """Whether vectors that sum to zero have nullity 1: whether no proper
    nonempty subfamily of them sums to zero.

    The complement of a zero-sum subfamily sums to zero too.  So a
    single vector is enough; a longer family with a zero vector is not;
    with none zero, up to 3 vectors are enough (a zero-sum pair would
    leave the third zero), and 4 or 5 exactly when they are pairwise
    distinct (of a zero-sum subfamily and its complement, one has 2
    vectors); above 5, exactly when they have rank len(vecs) - 1.
    """
    size = len(vecs)
    if size == 1:
        return True
    if 0 in vecs:
        return False
    if size <= 3:
        return True
    if size <= 5:
        return len(set(vecs)) == size
    return len(pivots_of(vecs)) == size - 1


def greedy_coordinates(
    cols: Sequence[int], first: Iterable[int] = ()
) -> tuple[list[int], list[int]]:
    """Coordinates of every column over a greedy basis: (coords, basis).

    The columns at the indices in first are offered first, then every
    column in order; each one independent of those taken so far joins
    basis.  Coordinate k of a column is the coefficient of cols[basis[k]].
    """
    # pivot bit -> (stored vector, mask of the basis columns it sums)
    pivots: dict[int, tuple[int, int]] = {}

    def reduce(v: int, origin: int) -> tuple[int, int]:
        while v and v & -v in pivots:
            u, o = pivots[v & -v]
            v ^= u
            origin ^= o
        return v, origin

    basis: list[int] = []
    for i in chain(first, range(len(cols))):
        v, origin = reduce(cols[i], 1 << len(basis))
        if v:
            pivots[v & -v] = v, origin
            basis.append(i)
    return [reduce(c, 0)[1] for c in cols], basis


def dual_representation(cols: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Columns representing the dual matroid, in order, and their dimension.

    Internally picks the greedy basis B (first independent columns),
    rewrites as [I | D] up to column order, and returns [D^T | I] spread
    back over the original positions: basis element i becomes row i of D,
    each non-basis element becomes a unit vector.  Loops (zero columns)
    have an all-zero row, so they turn into coloops of the dual.
    """
    n = len(cols)
    coords, basis_idx = greedy_coordinates(cols)
    dual_dim = n - len(basis_idx)
    if dual_dim > MAX_DIM:
        raise DimensionError(f"dual dimension {dual_dim} exceeds MAX_DIM = {MAX_DIM}")
    in_basis = set(basis_idx)
    nonbasis_idx = [i for i in range(n) if i not in in_basis]
    out = [0] * n
    for t, j in enumerate(nonbasis_idx):
        out[j] = 1 << t
        for k in bits(coords[j]):
            out[basis_idx[k]] |= 1 << t
    return tuple(out), dual_dim
