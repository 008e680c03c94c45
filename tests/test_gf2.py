"""Bit-level linear algebra: conventions, echelon bookkeeping, duality."""

from __future__ import annotations

import random

import pytest

from theta3.gf2 import (
    MAX_DIM,
    DimensionError,
    Echelon,
    InvalidBasisError,
    _coordinates,
    bits,
    bits_from_str,
    bits_to_str,
    dual_representation,
    rank_bits,
)

from oracles import span_of


# -- string convention: the leading character is row 1 ---------------------


def test_bits_from_str_row_one_first():
    assert bits_from_str("10") == 1
    assert bits_from_str("01") == 2
    assert bits_from_str("110000") == 3
    assert bits_from_str("000001") == 32


def test_bits_round_trip():
    for bits in range(64):
        assert bits_from_str(bits_to_str(bits, 6)) == bits


def test_bits_from_str_rejects_junk():
    with pytest.raises(ValueError):
        bits_from_str("10x1")


def test_vector_str_matches_convention():
    assert bits_to_str(3, 6) == "110000"
    assert bits_to_str(0, 0) == ""


def test_bits_walks_set_positions_lowest_first():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    for mask in range(256):
        assert sum(1 << j for j in bits(mask)) == mask


def test_vector_dim_guard():
    # MAX_DIM + 1 loops have a dual of dimension MAX_DIM + 1
    with pytest.raises(DimensionError):
        dual_representation([0] * (MAX_DIM + 1))
    cols, dim = dual_representation([0] * MAX_DIM)
    assert dim == MAX_DIM


# -- echelon ---------------------------------------------------------------


def test_echelon_rank_and_membership_match_span_counting():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(1, 8)
        cols = [rng.randrange(1 << dim) for _ in range(rng.randint(0, 10))]
        ech = Echelon()
        for c in cols:
            ech.insert(c)
        span = span_of(cols)
        assert (1 << ech.rank) == len(span)
        assert rank_bits(cols) == ech.rank
        for probe in range(1 << dim):
            assert (ech.residue(probe) == 0) == (probe in span)


def test_echelon_insert_reports_pivot_and_remove_undoes_it():
    ech = Echelon()
    assert ech.insert(0b110) != 0
    before = dict(ech.pivots)
    piv = ech.insert(0b011)
    assert piv != 0
    ech.remove(piv)
    assert ech.pivots == before
    assert ech.insert(0b110) == 0  # still dependent on the survivor


def test_echelon_tracked_residue_returns_witness_origin():
    ech = Echelon()
    ech.insert(0b001, origin=1)
    ech.insert(0b010, origin=2)
    res, orig = ech.tracked_residue(0b011)
    assert res == 0
    assert orig == 3  # both inserted vectors participate


def test_full_residue_is_canonical_under_insertion_order():
    rng = random.Random(5)
    cols = [rng.randrange(1 << 6) for _ in range(6)]
    reference = None
    for _ in range(10):
        rng.shuffle(cols)
        ech = Echelon()
        for c in cols:
            ech.insert(c)
        image = tuple(ech.full_residue(v) for v in range(64))
        if reference is None:
            reference = image
        # the canonical residue depends only on the span, not the order
        assert image == reference


# -- change of basis, duality ----------------------------------------------


def test_coordinates_rewrite_in_basis_coordinates():
    # basis {e1+e2, e2+e3, e3}: expressing e1 needs all three
    cols = [bits_from_str(s) for s in ("110", "011", "001", "100")]
    out = _coordinates(cols, [0, 1, 2])
    assert out[:3] == [1, 2, 4]
    assert out[3] == 0b111


def test_coordinates_reject_dependent_basis():
    # {e1+e2, e1+e3, e2+e3} sums to zero, so it spans only a plane
    cols = [bits_from_str(s) for s in ("110", "101", "011")]
    with pytest.raises(InvalidBasisError):
        _coordinates(cols, [0, 1, 2])
    # a basis that misses part of the column space is rejected too
    with pytest.raises(InvalidBasisError):
        _coordinates(cols + [bits_from_str("100")], [0, 1])


def test_dual_representation_is_orthogonal_complement():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 6)
        n = rng.randint(1, 8)
        cols = [rng.randrange(1 << dim) for _ in range(n)]
        r = rank_bits(cols)
        d, d_dim = dual_representation(cols)
        assert len(d) == n
        assert d_dim == n - r
        assert all(c >> d_dim == 0 for c in d)
        assert rank_bits(d) == n - r
        # every dual row is orthogonal to every primal row
        primal_rows = _rows(cols, dim, n)
        dual_rows = _rows(list(d), d_dim, n)
        for pr in primal_rows:
            for dr in dual_rows:
                assert bin(pr & dr).count("1") % 2 == 0


def _rows(cols: list[int], dim: int, n: int) -> list[int]:
    rows = []
    for r in range(dim):
        bits = 0
        for i, c in enumerate(cols):
            if c >> r & 1:
                bits |= 1 << i
        rows.append(bits)
    return rows
