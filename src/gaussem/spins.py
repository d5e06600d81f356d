"""Bit-packed spin configurations, coordinate partitions, projections, overlaps.

A configuration of n spins is a word of n bits: bit i-1 holds coordinate i,
set meaning +1 and clear meaning -1.  Enumeration order is ascending word
order, so config index and bit word coincide everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DimensionMismatch, ResourceCapExceeded, ValidationError

#: largest n for which full enumeration of the 2**n configurations is allowed
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class SpinConfig:
    """One of the 2**n Ising configurations, packed into an integer."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"system size must be >= 1, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @classmethod
    def from_values(cls, values) -> "SpinConfig":
        vals = tuple(values)
        bits = 0
        for i, v in enumerate(vals):
            if v == 1:
                bits |= 1 << i
            elif v != -1:
                raise ValueError(f"spin values must be +1 or -1, got {v!r}")
        return cls(len(vals), bits)

    @classmethod
    def from_string(cls, text: str) -> "SpinConfig":
        """Parse a '+-+' style string, coordinate 1 first."""
        if not text or any(ch not in "+-" for ch in text):
            raise ValueError(f"expected a nonempty string over '+-', got {text!r}")
        return cls.from_values(1 if ch == "+" else -1 for ch in text)

    def values(self) -> tuple[int, ...]:
        return tuple(1 if (self.bits >> i) & 1 else -1 for i in range(self.n))

    def __str__(self) -> str:
        return "".join("+" if (self.bits >> i) & 1 else "-" for i in range(self.n))


@dataclass(frozen=True)
class CoordinatePartition:
    """Split of the n coordinates into block 1 (the mask bits) and its complement.

    Both blocks must be nonempty.  The pair of projections loses no
    information: (project(s, p, 1), project(s, p, 2)) determines s.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError("a partition needs n >= 2")
        if self.mask <= 0 or self.mask >> self.n:
            raise ValidationError(f"mask {self.mask} out of range 1..{(1 << self.n) - 2} "
                                  f"for n={self.n}")
        if self.mask.bit_count() == self.n:
            raise ValidationError(f"mask {self.mask} leaves block 2 empty for n={self.n}")

    @classmethod
    def canonical(cls, n: int, n1: int) -> "CoordinatePartition":
        """The contiguous prefix split {1..n1} | {n1+1..n}."""
        if not 1 <= n1 <= n - 1:
            raise ValidationError(f"n1 must be in 1..n-1 for n={n}, got {n1}")
        return cls(n, (1 << n1) - 1)

    @property
    def n1(self) -> int:
        return self.mask.bit_count()

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def mask2(self) -> int:
        return ((1 << self.n) - 1) ^ self.mask

    def block_mask(self, block: int) -> int:
        if block == 1:
            return self.mask
        if block == 2:
            return self.mask2
        raise ValueError(f"block must be 1 or 2, got {block!r}")

    def block_size(self, block: int) -> int:
        return self.block_mask(block).bit_count()


def extract_bits(bits, mask: int):
    """Gather the bits selected by mask, packed toward bit 0 in ascending order.

    Branch-free, so bits may be a Python int or an integer numpy array; an
    array is mapped word by word.
    """
    out = bits & 0
    k = 0
    while mask:
        low = mask & -mask
        out |= ((bits & low) != 0) << k
        k += 1
        mask ^= low
    return out


def deposit_bits(bits: int, mask: int) -> int:
    """Inverse of extract_bits: scatter the low bits into the mask positions."""
    out = 0
    k = 0
    while mask:
        low = mask & -mask
        if (bits >> k) & 1:
            out |= low
        k += 1
        mask ^= low
    return out


def project(sigma: SpinConfig, partition: CoordinatePartition, block: int) -> SpinConfig:
    """Sub-configuration of sigma on the chosen block, original coordinate order kept."""
    if sigma.n != partition.n:
        raise DimensionMismatch(
            f"configuration size {sigma.n} != partition size {partition.n}"
        )
    m = partition.block_mask(block)
    return SpinConfig(partition.block_size(block), extract_bits(sigma.bits, m))


def combine(partition: CoordinatePartition, block1: SpinConfig, block2: SpinConfig) -> SpinConfig:
    """Reassemble a full configuration from its two projections."""
    if block1.n != partition.n1 or block2.n != partition.n2:
        raise DimensionMismatch(
            f"block sizes ({block1.n}, {block2.n}) do not match partition "
            f"({partition.n1}, {partition.n2})"
        )
    bits = deposit_bits(block1.bits, partition.mask) | deposit_bits(block2.bits, partition.mask2)
    return SpinConfig(partition.n, bits)


def overlap(sigma: SpinConfig, tau: SpinConfig) -> Fraction:
    """Normalized inner product (agreements - disagreements) / n, exact."""
    if sigma.n != tau.n:
        raise DimensionMismatch(f"configuration sizes differ: {sigma.n} != {tau.n}")
    d = (sigma.bits ^ tau.bits).bit_count()
    return Fraction(sigma.n - 2 * d, sigma.n)


def enumerate_configs(n: int) -> Iterator[SpinConfig]:
    """All 2**n configurations in ascending bit-word order."""
    if n < 1:
        raise ValueError(f"system size must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceCapExceeded(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    for bits in range(1 << n):
        yield SpinConfig(n, bits)


def enumerate_partitions(n: int, mode: str = "canonical") -> Iterator[CoordinatePartition]:
    """Coordinate splits of {1..n}.

    canonical: the n-1 contiguous prefixes.  all: every nonempty proper subset
    as block 1 (2**n - 2 partitions; each unordered split appears twice, once
    per block labeling).
    """
    if n < 2:
        raise ValueError(f"no valid split exists for n={n}")
    if mode == "canonical":
        for n1 in range(1, n):
            yield CoordinatePartition(n, (1 << n1) - 1)
    elif mode == "all":
        for mask in range(1, (1 << n) - 1):
            yield CoordinatePartition(n, mask)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
