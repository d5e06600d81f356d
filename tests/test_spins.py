from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaussem.errors import DimensionMismatch, ResourceCapExceeded, ValidationError
from gaussem.spins import (
    CoordinatePartition,
    SpinConfig,
    deposit_bits,
    enumerate_configs,
    enumerate_partitions,
    extract_bits,
    overlap,
    project,
)


def cfg(text):
    return SpinConfig.from_string(text)


def test_config_round_trip():
    s = SpinConfig.from_values([1, 1, -1, -1])
    assert s.n == 4 and s.bits == 0b0011
    assert s.values() == (1, 1, -1, -1)
    assert str(s) == "++--"
    assert SpinConfig.from_string("++--") == s


def test_config_validation():
    with pytest.raises(ValueError):
        SpinConfig(0, 0)
    with pytest.raises(ValueError):
        SpinConfig(2, 0b100)
    with pytest.raises(ValueError):
        SpinConfig.from_values([1, 0])
    with pytest.raises(ValueError):
        SpinConfig.from_string("+x")


def test_project_prefix_blocks():
    s = cfg("++--")
    p = CoordinatePartition.canonical(4, 2)
    assert project(s, p, 1) == cfg("++")
    assert project(s, p, 2) == cfg("--")


def test_project_single_coordinate_block():
    # block 1 = {coordinate 2}, block 2 = {coordinate 1}
    s = cfg("+-")
    p = CoordinatePartition(2, 0b10)
    assert project(s, p, 1) == cfg("-")
    assert project(s, p, 2) == cfg("+")


def test_project_size_mismatch():
    with pytest.raises(DimensionMismatch):
        project(cfg("+++"), CoordinatePartition.canonical(4, 2), 1)


def test_partition_validation():
    with pytest.raises(ValueError):
        CoordinatePartition(1, 1)
    with pytest.raises(ValueError):
        CoordinatePartition(3, 0)
    with pytest.raises(ValueError):
        CoordinatePartition(3, 0b111)  # block 2 empty


def test_block_size_refuses_unknown_blocks():
    p = CoordinatePartition(4, 0b0001)
    assert (p.block_size(1), p.block_size(2)) == (1, 3)
    for block in (0, 3):
        with pytest.raises(ValueError, match="block must be 1 or 2"):
            p.block_size(block)


def test_overlap_examples():
    assert overlap(cfg("+-+-"), cfg("+-+-")) == 1
    assert overlap(cfg("++"), cfg("+-")) == 0
    assert overlap(cfg("+++"), cfg("+--")) == Fraction(-1, 3)
    with pytest.raises(DimensionMismatch):
        overlap(cfg("++"), cfg("+++"))


def test_enumerate_configs():
    one = list(enumerate_configs(1))
    assert [c.values() for c in one] == [(-1,), (1,)]
    two = list(enumerate_configs(2))
    assert len(two) == len(set(two)) == 4
    assert sum(1 for _ in enumerate_configs(10)) == 1024
    with pytest.raises(ResourceCapExceeded):
        list(enumerate_configs(21))


def test_enumerate_partitions():
    canonical = list(enumerate_partitions(3, "canonical"))
    assert [p.mask for p in canonical] == [0b001, 0b011]
    assert len(list(enumerate_partitions(3, "all"))) == 6
    assert len(list(enumerate_partitions(2, "canonical"))) == 1
    with pytest.raises(ValueError):
        list(enumerate_partitions(1))
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, "bogus"))


@given(st.data())
def test_overlap_split_identity(data):
    # n q(s,t) == n1 q(p1 s, p1 t) + n2 q(p2 s, p2 t), exactly
    n = data.draw(st.integers(2, 10))
    s = SpinConfig(n, data.draw(st.integers(0, (1 << n) - 1)))
    t = SpinConfig(n, data.draw(st.integers(0, (1 << n) - 1)))
    p = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
    lhs = n * overlap(s, t)
    rhs = p.n1 * overlap(project(s, p, 1), project(t, p, 1)) + p.n2 * overlap(
        project(s, p, 2), project(t, p, 2)
    )
    assert lhs == rhs
    assert lhs.denominator == 1


@given(st.data())
def test_overlap_symmetry_and_bounds(data):
    n = data.draw(st.integers(1, 12))
    s = SpinConfig(n, data.draw(st.integers(0, (1 << n) - 1)))
    t = SpinConfig(n, data.draw(st.integers(0, (1 << n) - 1)))
    q = overlap(s, t)
    assert q == overlap(t, s)
    assert -1 <= q <= 1
    assert overlap(s, s) == 1


@given(st.data())
def test_projection_reconstructs(data):
    n = data.draw(st.integers(2, 10))
    s = SpinConfig(n, data.draw(st.integers(0, (1 << n) - 1)))
    p = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
    bits = deposit_bits(project(s, p, 1).bits, p.mask) | deposit_bits(project(s, p, 2).bits, p.mask2)
    assert SpinConfig(n, bits) == s


@given(st.data())
def test_extract_deposit_inverse(data):
    n = data.draw(st.integers(1, 16))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    packed = extract_bits(bits, mask)
    assert deposit_bits(packed, mask) == bits & mask


@given(st.data())
def test_extract_bits_array_matches_int(data):
    n = data.draw(st.integers(1, 10))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    words = np.arange(1 << n, dtype=np.int64)
    packed = extract_bits(words, mask)
    assert packed.dtype == np.int64
    assert packed.tolist() == [extract_bits(int(w), mask) for w in words]


@pytest.mark.parametrize("n1", [-1, 0, 4, 5])
def test_canonical_refuses_empty_blocks(n1):
    with pytest.raises(ValidationError, match="n1"):
        CoordinatePartition.canonical(4, n1)
