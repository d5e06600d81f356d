"""Layered Gaussian tree processes: validation, merge levels, covariance, lifting.

A tree with layer branch exponents k_1..k_m (sum n) and layer variances
a_1..a_m (sum 1) assigns to every leaf the sum of one independent centered
Gaussian per branch on its root-to-leaf path; the branch at layer i has
variance a_i.  Layer i occupies coordinates (K_{i-1}, K_i] with
K_i = k_1 + ... + k_i, so a leaf's branch index at layer i is simply the low
K_i bits of its configuration word.  Two leaves that first differ inside
layer l+1 share exactly the branches of layers 1..l and their covariance is
the cumulated variance v[l] = a_1 + ... + a_l (v[0] = 0, v[m] = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .spins import CoordinatePartition, SpinConfig
from .util import extract_map

VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class GremTree:
    """Rooted layered tree: per-layer branch exponents and branch variances."""

    exponents: tuple[int, ...]
    variances: tuple[float, ...]

    def __post_init__(self) -> None:
        problems = _tree_problems(self.exponents, self.variances, sum(self.exponents))
        # sum(exponents) is by construction consistent; only a/k shape issues remain
        if problems:
            raise ValidationError("; ".join(problems))

    @property
    def n_layers(self) -> int:
        return len(self.exponents)

    @property
    def n_spins(self) -> int:
        return sum(self.exponents)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Cumulative coordinate counts K_0=0, K_1, ..., K_m=n."""
        out = [0]
        for k in self.exponents:
            out.append(out[-1] + k)
        return tuple(out)

    @property
    def cumulative_variance(self) -> tuple[float, ...]:
        """v[l] = a_1 + ... + a_l for l = 0..m."""
        out = [0.0]
        for a in self.variances:
            out.append(out[-1] + a)
        return tuple(out)

    @property
    def layer_masks(self) -> tuple[int, ...]:
        """Bit mask of each layer's coordinates (mask 0 for zero-width layers)."""
        bounds = self.boundaries
        return tuple(
            ((1 << bounds[i + 1]) - 1) ^ ((1 << bounds[i]) - 1)
            for i in range(self.n_layers)
        )

    @property
    def branch_counts(self) -> tuple[int, ...]:
        """Number of branches entering each layer: 2**K_i."""
        return tuple(1 << b for b in self.boundaries[1:])

    def sub_tree(self, partition: CoordinatePartition, block: int) -> "GremTree":
        """Tree induced on one block of a coordinate split, layer by layer.

        Each layer keeps the block's coordinates that fall inside it (possibly
        none; zero-width layers are legal and always coincide), with the same
        layer variances, so the sub-tree still has unit total variance.
        """
        if partition.n != self.n_spins:
            raise DimensionMismatch(
                f"partition size {partition.n} != tree size {self.n_spins}"
            )
        m = partition.block_mask(block)
        sub_k = tuple((m & lm).bit_count() for lm in self.layer_masks)
        return GremTree(sub_k, self.variances)

    def spec_string(self) -> str:
        ks = ",".join(str(k) for k in self.exponents)
        avs = ",".join(repr(a) for a in self.variances)
        return f"grem[k={ks};a={avs}]"


def _tree_problems(k: Sequence[int], a: Sequence[float], n: int) -> list[str]:
    problems = []
    if len(k) == 0:
        problems.append("tree needs at least one layer")
    if len(k) != len(a):
        problems.append(f"{len(k)} exponents but {len(a)} variances")
    if any(int(x) != x or x < 0 for x in k):
        problems.append(f"branch exponents must be nonnegative integers, got {tuple(k)}")
    if sum(k) != n:
        problems.append(f"branch exponents sum to {sum(k)}, expected {n}")
    if any(x < 0 for x in a):
        problems.append(f"layer variances must be nonnegative, got {tuple(a)}")
    if a and abs(sum(a) - 1.0) > VARIANCE_TOL:
        problems.append(f"layer variances sum to {sum(a)!r}, expected 1")
    return problems


def validate_tree(exponents: Sequence[int], variances: Sequence[float], n: int) -> GremTree:
    """Check every tree constraint and return the tree; report all violations at once."""
    problems = _tree_problems(exponents, variances, n)
    if problems:
        raise ValidationError("; ".join(problems))
    return GremTree(tuple(int(x) for x in exponents), tuple(float(x) for x in variances))


def merge_level(tree: GremTree, sigma: SpinConfig, tau: SpinConfig) -> int:
    """Number of initial layers on which the two leaves' paths coincide."""
    if sigma.n != tree.n_spins or tau.n != tree.n_spins:
        raise DimensionMismatch(
            f"configuration sizes ({sigma.n}, {tau.n}) != tree size {tree.n_spins}"
        )
    x = sigma.bits ^ tau.bits
    level = 0
    for m in tree.layer_masks:
        if x & m:
            break
        level += 1
    return level


def grem_covariance(tree: GremTree, sigma: SpinConfig, tau: SpinConfig) -> float:
    """Covariance of two leaf energies: cumulated variance of the shared layers."""
    return tree.cumulative_variance[merge_level(tree, sigma, tau)]


def merge_level_matrix(tree: GremTree, xor_words: np.ndarray) -> np.ndarray:
    """Merge levels for an array of XOR words (vectorized merge_level)."""
    still = np.ones(xor_words.shape, dtype=bool)
    levels = np.zeros(xor_words.shape, dtype=np.int64)
    for m in tree.layer_masks:
        still = still & ((xor_words & m) == 0)
        levels += still
    return levels


def branch_weight_matrix(tree: GremTree) -> np.ndarray:
    """Linear map from per-branch unit Gaussians to the 2**n leaf energies.

    Column blocks follow the layers; within layer i the branch of leaf c is
    c & (2**K_i - 1) and carries weight sqrt(a_i).  This is the coupling map
    behind GREMModel.coupling_structure() and the small-n test oracle for
    sample_grem; sampling itself sums along the paths and never builds it.
    """
    n = tree.n_spins
    counts = tree.branch_counts
    total = sum(counts)
    w = np.zeros((1 << n, total), dtype=float)
    c = np.arange(1 << n)
    offset = 0
    for count, a in zip(counts, tree.variances):
        w[c, offset + (c & (count - 1))] = np.sqrt(a)
        offset += count
    return w


def sample_grem(tree: GremTree, rng: np.random.Generator) -> np.ndarray:
    """One draw of the leaf energies: independent branch couplings, summed along paths."""
    energies = np.zeros(1 << tree.n_spins)
    c = np.arange(1 << tree.n_spins)
    for count, a in zip(tree.branch_counts, tree.variances):
        eps = np.sqrt(a) * rng.standard_normal(count)
        energies += eps[c & (count - 1)]
    return energies


@dataclass(frozen=True)
class TreeLift:
    """Embedding of a tree process into a wider tree with the same layers.

    The target must widen every layer (k_i(target) >= k_i(source)); newly
    introduced branches reuse the parent branch's Gaussian, which is the same
    as pulling the source energies back along the blockwise projection that
    keeps the first k_i(source) coordinates of every target layer.
    """

    source: GremTree
    target_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.target_exponents) != self.source.n_layers:
            raise ValidationError(
                f"target has {len(self.target_exponents)} layers, "
                f"source has {self.source.n_layers}"
            )
        bad = [
            i + 1
            for i, (ks, kt) in enumerate(zip(self.source.exponents, self.target_exponents))
            if kt < ks
        ]
        if bad:
            raise ValidationError(
                f"target exponents must be >= source exponents (violated at layers {bad})"
            )

    @property
    def target(self) -> GremTree:
        return GremTree(tuple(self.target_exponents), self.source.variances)

    @property
    def block1_mask(self) -> int:
        """Mask of the target coordinates retained by the projection."""
        mask = 0
        t_off = 0
        for ks, kt in zip(self.source.exponents, self.target_exponents):
            mask |= ((1 << ks) - 1) << t_off
            t_off += kt
        return mask

    def projection_map(self) -> np.ndarray:
        """Source leaf index for every target leaf (blockwise truncation)."""
        return extract_map(self.target.n_spins, self.block1_mask)


@dataclass(frozen=True)
class LiftCheckReport:
    """Exhaustive comparison of lifted covariances against the target tree's."""

    pairs_checked: int
    max_violation: float  # max over pairs of v_target[l] - lifted covariance
    ok: bool


def check_lift_covariance(lift: TreeLift, tolerance: float = 1e-12) -> LiftCheckReport:
    """Verify that the lifted process dominates the target merge-level covariance.

    For every ordered pair of target leaves with merge level l, the lifted
    covariance equals the source covariance of the projected leaves and must
    be >= v_target[l].  Both sides depend on a pair only through its XOR
    word u, and the projection is XOR-linear, so the pair (c, c ^ u)
    projects to the source word proj[u]; checking the 2**n words covers
    all 4**n ordered pairs.
    """
    target = lift.target
    n = target.n_spins
    u = np.arange(1 << n, dtype=np.int64)
    v_tgt = np.asarray(target.cumulative_variance)
    v_src = np.asarray(lift.source.cumulative_variance)
    lifted = v_src[merge_level_matrix(lift.source, lift.projection_map())]
    wanted = v_tgt[merge_level_matrix(target, u)]
    violation = float((wanted - lifted).max())
    return LiftCheckReport(
        pairs_checked=4**n,
        max_violation=violation,
        ok=violation <= tolerance,
    )


def lift_energies(lift: TreeLift, source_energies: np.ndarray) -> np.ndarray:
    """Pull a source draw back along the lift's blockwise projection."""
    src = np.asarray(source_energies, dtype=float)
    if src.shape != (1 << lift.source.n_spins,):
        raise DimensionMismatch(
            f"expected {1 << lift.source.n_spins} energies, got {src.shape}"
        )
    return src[lift.projection_map()]


def parse_tree_file(text: str) -> GremTree:
    """Parse the plain-text tree format: 'm n' / exponents / variances."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise ValidationError(
            f"tree file needs 3 data lines (header, exponents, variances), got {len(lines)}"
        )
    head = lines[0].split()
    if len(head) != 2:
        raise ValidationError(f"tree header must be 'n_layers n_spins', got {lines[0]!r}")
    try:
        m, n = int(head[0]), int(head[1])
        exponents = [int(tok) for tok in lines[1].split()]
        variances = [float(tok) for tok in lines[2].split()]
    except ValueError as exc:
        raise ValidationError(f"tree file has a malformed number: {exc}") from exc
    if len(exponents) != m or len(variances) != m:
        raise ValidationError(
            f"expected {m} exponents and variances, got {len(exponents)} and {len(variances)}"
        )
    return validate_tree(exponents, variances, n)


def format_tree_file(tree: GremTree) -> str:
    return "\n".join(
        [
            f"{tree.n_layers} {tree.n_spins}",
            " ".join(str(k) for k in tree.exponents),
            " ".join(repr(a) for a in tree.variances),
        ]
    ) + "\n"
