"""Bit-level linear algebra: conventions, the echelon form, duality."""

from __future__ import annotations

import random
from functools import reduce
from operator import xor

import pytest

from theta3.gf2 import (
    MAX_DIM,
    DimensionError,
    bits,
    bits_from_str,
    bits_to_str,
    dual_representation,
    greedy_coordinates,
    nullity_one,
    pivots_of,
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


def _reduce(pivots: dict[int, int], v: int) -> int:
    while v and v & -v in pivots:
        v ^= pivots[v & -v]
    return v


def test_pivots_of_rank_and_membership_match_span_counting():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(1, 8)
        cols = [rng.randrange(1 << dim) for _ in range(rng.randint(0, 10))]
        pivots = pivots_of(cols)
        span = span_of(cols)
        assert (1 << len(pivots)) == len(span)
        assert rank_bits(cols) == len(pivots)
        # each stored vector sits under its lowest bit
        assert all(low == v & -v for low, v in pivots.items())
        for probe in range(1 << dim):
            assert (_reduce(pivots, probe) == 0) == (probe in span)


def test_nullity_one_by_hand():
    # one vector, which sums to zero alone, and a family with a zero vector
    assert nullity_one([0])
    assert not nullity_one([0, 0])
    assert not nullity_one([1, 0, 1])
    # up to 3 nonzero vectors; a repeated pair is a family of 2
    assert nullity_one([5, 5])
    assert nullity_one([1, 2, 3])
    # 4 and 5: exactly when pairwise distinct
    assert nullity_one([1, 2, 4, 7])
    assert not nullity_one([1, 1, 2, 2])
    assert nullity_one([1, 2, 4, 8, 15])
    assert not nullity_one([1, 2, 3, 5, 5])
    # above 5: by rank; 1 + 2 + 3 and 4 + 8 + 12 sum to zero, all distinct
    assert nullity_one([1, 2, 4, 8, 16, 31])
    assert not nullity_one([1, 2, 3, 4, 8, 12])
    assert not nullity_one([1, 2, 3, 4, 8, 16, 28])


def test_nullity_one_matches_zero_sum_subfamilies():
    rng = random.Random(13)
    for _ in range(400):
        dim = rng.randint(1, 5)
        vecs = [rng.randrange(1 << dim) for _ in range(rng.randint(0, 7))]
        vecs.append(reduce(xor, vecs, 0))  # the family sums to zero
        n = len(vecs)
        proper = any(
            not reduce(xor, (vecs[i] for i in range(n) if sub >> i & 1), 0)
            for sub in range(1, (1 << n) - 1)
        )
        assert nullity_one(vecs) == (not proper), vecs


# -- change of basis, duality ----------------------------------------------


def test_coordinates_rewrite_in_basis_coordinates():
    # basis {e1+e2, e2+e3, e3}: expressing e1 needs all three
    cols = [bits_from_str(s) for s in ("110", "011", "001", "100")]
    out, basis = greedy_coordinates(cols)
    assert basis == [0, 1, 2]
    assert out[:3] == [1, 2, 4]
    assert out[3] == 0b111
    # offering e1 first puts it at coordinate 0; e3 = e1 + (e1+e2) + (e2+e3)
    out, basis = greedy_coordinates(cols, [3])
    assert basis == [3, 0, 1]
    assert out == [2, 4, 0b111, 1]


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
