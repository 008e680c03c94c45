"""Bit-packed GF(2) columns and elimination.

A column over rows 1..d is stored as a plain int: bit i-1 holds row i.
The string form reads row 1 first, so "110000" is the integer 3
(rows 1 and 2 set).  Dimension is capped at MAX_DIM = 16; the largest
geometry we target lives in dimension 6, so one machine word per column
leaves plenty of headroom.

Elimination uses the lowest set bit of a vector as its pivot.  The
Echelon class keeps the basis *lazily* reduced: stored vectors are never
rewritten when a later pivot arrives.  Lazy reduction is enough for rank
and span membership, and it makes insert/remove perfectly undoable,
which the separation search relies on.  Contraction needs residues with
every pivot bit cleared; full_residue does that with a single sweep over
the pivots in increasing order (each pivot vector only touches bits at
or above its own pivot, so earlier clearings survive).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "MAX_DIM",
    "DimensionError",
    "InvalidBasisError",
    "Echelon",
    "bits",
    "bits_from_str",
    "bits_to_str",
    "rank_bits",
    "dual_representation",
]

MAX_DIM = 16


class DimensionError(ValueError):
    """Dimension mismatch, or a dimension beyond MAX_DIM."""


class InvalidBasisError(ValueError):
    """Chosen basis columns are dependent or fail to span."""


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
    return "".join("1" if mask >> i & 1 else "0" for i in range(dim))


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

    def full_residue(self, v: int) -> int:
        # Increasing pivot order: a pivot vector only toggles bits >= its
        # pivot, so each cleared pivot bit stays cleared for the rest of
        # the sweep.  The result has no pivot bit set at all.
        for low in sorted(self.pivots):
            if v & low:
                v ^= self.pivots[low]
        return v


def rank_bits(cols: Iterable[int]) -> int:
    ech = Echelon()
    for c in cols:
        ech.insert(c)
    return ech.rank


def _coordinates(cols: Sequence[int], basis_idx: Sequence[int]) -> list[int]:
    """Coordinates of every column relative to the chosen basis columns.

    Raises InvalidBasisError if the chosen columns are dependent or some
    column falls outside their span.  Coordinate k of the result is the
    coefficient of basis column basis_idx[k].
    """
    ech = Echelon()
    for pos, idx in enumerate(basis_idx):
        if not ech.insert(cols[idx], 1 << pos):
            raise InvalidBasisError(f"basis column {idx} depends on earlier basis columns")
    coords = []
    for c in cols:
        res, orig = ech.tracked_residue(c)
        if res:
            raise InvalidBasisError("basis does not span the column space")
        coords.append(orig)
    return coords


def dual_representation(cols: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Columns representing the dual matroid, in order, and their dimension.

    Internally picks the greedy basis B (first independent columns),
    rewrites as [I | D] up to column order, and returns [D^T | I] spread
    back over the original positions: basis element i becomes row i of D,
    each non-basis element becomes a unit vector.  Loops (zero columns)
    have an all-zero row, so they turn into coloops of the dual.
    """
    n = len(cols)
    ech = Echelon()
    basis_idx = [i for i, c in enumerate(cols) if ech.insert(c)]
    dual_dim = n - len(basis_idx)
    if dual_dim > MAX_DIM:
        raise DimensionError(f"dual dimension {dual_dim} exceeds MAX_DIM = {MAX_DIM}")
    coords = _coordinates(cols, basis_idx)
    in_basis = set(basis_idx)
    nonbasis_idx = [i for i in range(n) if i not in in_basis]
    out = [0] * n
    for t, j in enumerate(nonbasis_idx):
        out[j] = 1 << t
        for k in bits(coords[j]):
            out[basis_idx[k]] |= 1 << t
    return tuple(out), dual_dim
