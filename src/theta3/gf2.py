"""Bit-packed GF(2) columns and elimination.

A column over rows 1..d is stored as a plain int: bit i-1 holds row i.
The string form reads row 1 first, so "110000" is the integer 3
(rows 1 and 2 set).  Dimension is capped at MAX_DIM = 16; the largest
geometry we target lives in dimension 6, so one machine word per column
leaves plenty of headroom.

Elimination uses the lowest set bit of a vector as its pivot.  The
Echelon class keeps the basis *lazily* reduced: stored vectors are never
rewritten when a later pivot arrives.  Lazy reduction is enough for rank
and span membership, and it makes insert/remove perfectly undoable.
Kernels that never read origins (rank_bits, zero_residues and the
separation search in matroid) eliminate on a bare dict of pivots in the
same lazy form.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "MAX_DIM",
    "DimensionError",
    "Echelon",
    "bits",
    "bits_from_str",
    "bits_to_str",
    "rank_bits",
    "zero_residues",
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
    out = 0
    for i, ch in enumerate(s):
        if ch == "1":
            out |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bit character {ch!r} in {s!r}")
    return out


def bits_to_str(mask: int, dim: int) -> str:
    """The string form of a mask below 2**dim, row 1 first."""
    return format(mask, f"0{dim}b")[::-1] if dim else ""


class Echelon:
    """Incremental lazy echelon basis over int-encoded vectors.

    pivots maps a pivot bit (the lowest set bit of the stored vector) to
    that vector.  origins optionally carries, per pivot, a caller-chosen
    mask; residues accumulate the XOR of the origins they consumed, so a
    vector that reduces to zero reports exactly which inserted vectors
    sum to it (unique, because the stored vectors are independent).
    """

    __slots__ = ("pivots", "origins")

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}
        self.origins: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residue(self, v: int) -> int:
        pivots = self.pivots
        while v:
            low = v & -v
            if low not in pivots:
                break
            v ^= pivots[low]
        return v

    def tracked_residue(self, v: int, origin: int = 0) -> tuple[int, int]:
        pivots = self.pivots
        origins = self.origins
        while v:
            low = v & -v
            if low not in pivots:
                break
            v ^= pivots[low]
            origin ^= origins[low]
        return v, origin

    def insert(self, v: int, origin: int = 0) -> int:
        """Insert v; return its pivot bit, or 0 if v was already spanned."""
        v, origin = self.tracked_residue(v, origin)
        if v == 0:
            return 0
        low = v & -v
        self.pivots[low] = v
        self.origins[low] = origin
        return low

    def remove(self, pivot_bit: int) -> None:
        """Undo an insert that returned pivot_bit (laziness makes this exact)."""
        del self.pivots[pivot_bit]
        del self.origins[pivot_bit]


def rank_bits(cols: Iterable[int]) -> int:
    """Rank of the columns, by elimination on bare pivots (no origins)."""
    pivots: dict[int, int] = {}
    for v in cols:
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
    return len(pivots)


def zero_residues(
    vecs: Sequence[int], rest: int, base: Mapping[int, int], keep: int = -1
) -> int:
    """How many of the vectors vecs[i] & keep, i over the set bits of
    rest in increasing order, are spanned by base and the vectors before
    them; counting stops at 2.

    base is read-only, in the lazy pivot form of Echelon.pivots.  The
    vectors have nullity 1 modulo span(base) exactly when this returns 1,
    so nullity-1 tests abort on the second zero.
    """
    local: dict[int, int] = {}
    zeros = 0
    while rest:
        low = rest & -rest
        rest ^= low
        v = vecs[low.bit_length() - 1] & keep
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
    return zeros


def greedy_coordinates(
    cols: Sequence[int], first: Iterable[int] = ()
) -> tuple[list[int], list[int]]:
    """Coordinates of every column over a greedy basis: (coords, basis).

    The columns at the indices in first are offered first, then every
    column in order; each one independent of those taken so far joins
    basis.  Coordinate k of a column is the coefficient of cols[basis[k]].
    """
    ech = Echelon()
    basis: list[int] = []
    for i in chain(first, range(len(cols))):
        if ech.insert(cols[i], 1 << len(basis)):
            basis.append(i)
    return [ech.tracked_residue(c)[1] for c in cols], basis


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
