"""Exhaustive verification of the projection condition on covariances.

For a coordinate split (n1, n2) of n, the audited quantity for an ordered
configuration pair (sigma, tau) is

    gap = c_n(sigma, tau) - (n1/n) c_n1(p1 sigma, p1 tau) - (n2/n) c_n2(p2 sigma, p2 tau)

The condition of interest is gap <= 0 for every pair.  Diagonal pairs give
gap = 0 identically, so the reported maximum is never negative; a violation
means some pair exceeds the tolerance.

Models with a count kernel (overlap models and the REM) are audited
exactly.  Their covariance depends on a pair only through its disagreement
count, k_n[d] = psi(1 - 2d/n) (the Kronecker delta [d == 0] for the REM), so
a pair with d1 disagreements in block 1 and d2 in block 2 has the gap

    k_n[d1 + d2] - (n1/n) k_n1[d1] - (n2/n) k_n2[d2]

The (n1+1)(n2+1) count classes partition all 4**n ordered pairs; each class
is one rational number, and a canonical witness is rebuilt from the first
maximal class.

Every generated covariance is an XOR kernel, c(sigma, tau) = K[sigma XOR tau],
and the projections are XOR-linear, so the gap of a pair is a function of
u = sigma XOR tau alone: ``gap_vector`` holds one gap per XOR word.  Tree
models are audited in float arithmetic through that vector; the 2**n pairs
(sigma, sigma XOR u) of each word share its gap, so the 2**n words still
cover all 4**n ordered pairs.  Custom models, which are stored rather than
generated, are audited over the full dense pair grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, ResourceCapExceeded, ValidationError
from .models import CovarianceModel, CustomModel
from .spins import CoordinatePartition, SpinConfig, deposit_bits, enumerate_partitions, project
from .util import extract_map, psd_factor

VERDICT_HOLDS = "HOLDS"
VERDICT_HOLDS_WITH_EQUALITY = "HOLDS_WITH_EQUALITY"
VERDICT_VIOLATED = "VIOLATED"

#: largest n for a condition audit (4**n ordered pairs per partition)
AUDIT_CAP = 10

#: gap tolerance for models evaluated in exact rational arithmetic
EXACT_TOL = 1e-12
#: gap tolerance for float-backed covariances (custom matrices)
FLOAT_TOL = 1e-9


def condition_gap(model: CovarianceModel, partition: CoordinatePartition,
                  sigma: SpinConfig, tau: SpinConfig):
    """Gap of one ordered pair; exact (Fraction) whenever the model is exact."""
    if partition.n != model.n:
        raise DimensionMismatch(f"partition size {partition.n} != model size {model.n}")
    sub1 = model.submodel(partition, 1)
    sub2 = model.submodel(partition, 2)
    c = model.covariance(sigma, tau)
    c1 = sub1.covariance(project(sigma, partition, 1), project(tau, partition, 1))
    c2 = sub2.covariance(project(sigma, partition, 2), project(tau, partition, 2))
    w1 = Fraction(partition.n1, partition.n)
    w2 = Fraction(partition.n2, partition.n)
    gap = c - w1 * c1 - w2 * c2
    return gap if isinstance(gap, Fraction) else float(gap)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one partition's exhaustive pair audit."""

    n: int
    mask: int
    n1: int
    max_gap: float
    min_gap: float
    witness_sigma: SpinConfig
    witness_tau: SpinConfig
    pairs_checked: int
    verdict: str
    exact: bool
    max_gap_exact: Fraction | None = None
    min_gap_exact: Fraction | None = None

    @property
    def holds(self) -> bool:
        return self.verdict != VERDICT_VIOLATED


@dataclass(frozen=True)
class AuditResult:
    """Per-partition reports plus the worst verdict over partitions."""

    model: str
    n: int
    mode: str
    tolerance: float
    reports: tuple[ConditionReport, ...]

    @property
    def verdict(self) -> str:
        verdicts = {r.verdict for r in self.reports}
        if VERDICT_VIOLATED in verdicts:
            return VERDICT_VIOLATED
        if VERDICT_HOLDS in verdicts:
            return VERDICT_HOLDS
        return VERDICT_HOLDS_WITH_EQUALITY

    @property
    def holds(self) -> bool:
        return self.verdict != VERDICT_VIOLATED

    def worst(self) -> ConditionReport:
        return max(self.reports, key=lambda r: r.max_gap)


def default_tolerance(model: CovarianceModel, tolerance: float | None = None) -> float:
    """The model's default gap tolerance, or ``tolerance`` once it is finite and >= 0."""
    if tolerance is None:
        return FLOAT_TOL if isinstance(model, CustomModel) else EXACT_TOL
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return tolerance


def check_condition(model: CovarianceModel, mode: str = "canonical",
                    tolerance: float | None = None) -> AuditResult:
    """Audit every ordered configuration pair for every partition of the split mode."""
    n = model.n
    if n > AUDIT_CAP:
        raise ResourceCapExceeded(f"n={n} exceeds the audit cap {AUDIT_CAP}")
    if n < 2:
        raise ValidationError("condition audits need n >= 2")
    tol = default_tolerance(model, tolerance)
    reports = tuple(
        audit_partition(model, partition, tol)
        for partition in enumerate_partitions(n, mode)
    )
    return AuditResult(model.spec_string(), n, mode, tol, reports)


def audit_partition(model: CovarianceModel, partition: CoordinatePartition,
                    tolerance: float | None = None) -> ConditionReport:
    tol = default_tolerance(model, tolerance)
    k = model.count_kernel()
    if k is not None:
        return _audit_by_counts(model, partition, k, tol)
    return _audit_dense(model, partition, tol)


def _verdict(max_gap, min_gap, tolerance: float) -> str:
    if max_gap > tolerance:
        return VERDICT_VIOLATED
    if max_gap == 0 and min_gap == 0:
        return VERDICT_HOLDS_WITH_EQUALITY
    return VERDICT_HOLDS


def _audit_by_counts(model: CovarianceModel, partition: CoordinatePartition,
                     k: list[Fraction], tolerance: float) -> ConditionReport:
    """Exact audit over the per-block disagreement-count classes (d1, d2).

    Class (d1, d2) has the gap k[d1 + d2] - (n1/n) k1[d1] - (n2/n) k2[d2],
    with k, k1, k2 the count kernels of the model and its two block
    submodels.  The witness pairs all-plus with the configuration that flips
    the lowest d1 coordinates of block 1 and the lowest d2 of block 2, for
    the first maximal class in d1-major order.
    """
    n, n1, n2 = partition.n, partition.n1, partition.n2
    k1 = model.submodel(partition, 1).count_kernel()
    k2 = model.submodel(partition, 2).count_kernel()
    w1, w2 = Fraction(n1, n), Fraction(n2, n)
    gaps = [(k[d1 + d2] - w1 * k1[d1] - w2 * k2[d2], d1, d2)
            for d1 in range(n1 + 1) for d2 in range(n2 + 1)]
    max_gap, d1, d2 = max(gaps, key=lambda g: g[0])
    min_gap = min(g[0] for g in gaps)
    sigma = (1 << n) - 1
    tau = (sigma ^ deposit_bits((1 << d1) - 1, partition.mask)
           ^ deposit_bits((1 << d2) - 1, partition.mask2))
    return ConditionReport(
        n=n, mask=partition.mask, n1=n1,
        max_gap=float(max_gap), min_gap=float(min_gap),
        witness_sigma=SpinConfig(n, sigma), witness_tau=SpinConfig(n, tau),
        pairs_checked=4**n, verdict=_verdict(max_gap, min_gap, tolerance), exact=True,
        max_gap_exact=max_gap, min_gap_exact=min_gap,
    )


def _audit_dense(model: CovarianceModel, partition: CoordinatePartition,
                 tolerance: float) -> ConditionReport:
    """Float audit of every ordered pair.

    Kernel models reduce to the gap vector, which is row 0 of the gap
    matrix; every other row permutes it, so extremes and verdict are those
    of the whole matrix and its first row-major argmax is (0, argmax).
    """
    if isinstance(model, CustomModel):
        gaps = gap_matrix(model, partition)
    else:
        gaps = gap_vector(model, partition)
    i, j = divmod(int(np.argmax(gaps)), 1 << partition.n)
    max_gap = float(gaps.max())
    min_gap = float(gaps.min())
    return ConditionReport(
        n=partition.n, mask=partition.mask, n1=partition.n1,
        max_gap=max_gap, min_gap=min_gap,
        witness_sigma=SpinConfig(partition.n, i), witness_tau=SpinConfig(partition.n, j),
        pairs_checked=4**partition.n, verdict=_verdict(max_gap, min_gap, tolerance),
        exact=False,
    )


def gap_vector(model: CovarianceModel, partition: CoordinatePartition) -> np.ndarray:
    """Gap of the pairs (sigma, sigma XOR u) for every word u in [0, 2**n), in float.

    gap[u] = K_n[u] - (n1/n) K_n1[p1(u)] - (n2/n) K_n2[p2(u)], with K the
    XOR kernels of the model and its two block submodels and p1, p2 the
    bit extractions of the blocks.
    """
    n = partition.n
    if partition.n != model.n:
        raise DimensionMismatch(f"partition size {partition.n} != model size {model.n}")
    k1 = model.submodel(partition, 1).kernel()
    k2 = model.submodel(partition, 2).kernel()
    return (
        model.kernel()
        - (partition.n1 / n) * k1[extract_map(n, partition.mask)]
        - (partition.n2 / n) * k2[extract_map(n, partition.mask2)]
    )


def gap_expansion(model: CovarianceModel, partition: CoordinatePartition
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(X, coef) with X @ diag(coef) @ X.T equal to gap_matrix(model, partition).

    A generated gap is an XOR kernel, so it is diagonal in the Walsh basis:
    gap[s XOR t] = sum_S ghat(S) chi_S(s) chi_S(t) / 2**n with ghat the
    Walsh-Hadamard transform of the gap vector.  X is model.characters(),
    the characters on which ghat can be nonzero: |S| <= p with the parity of
    p for overlap models (the kernel and both block kernels are polynomials
    of order p in the spins), all 2**n for tree models.  Since X.T @
    gap_vector = chi_S(0) * ghat(S) (see models.walsh_characters), coef =
    (X.T @ gap_vector) * X[0] / 2**n.  Custom gaps are stored, not
    generated; their X and coef are the eigenvectors and eigenvalues of the
    dense gap matrix, so AUDIT_CAP bounds them.
    """
    if isinstance(model, CustomModel):
        coef, chars = np.linalg.eigh(gap_matrix(model, partition))
        return chars, coef
    chars = model.characters()
    return chars, (chars.T @ gap_vector(model, partition)) * chars[0] / (1 << partition.n)


def gap_matrix(model: CovarianceModel, partition: CoordinatePartition) -> np.ndarray:
    """Dense (2**n, 2**n) float matrix of gaps in enumeration order.

    It serves the custom audit, the custom interpolation derivative (through
    gap_expansion) and the tests, as the oracle of the vector and Walsh
    forms; no generated-model path builds it.  Generated models read it off
    the gap vector, gaps[s, t] = gap_vector[s XOR t], so its 4**n entries
    hold the 2**n gaps, one per XOR word.  Custom models, whose matrices are
    stored, subtract the projected block matrices entry by entry.
    """
    n = partition.n
    if partition.n != model.n:
        raise DimensionMismatch(f"partition size {partition.n} != model size {model.n}")
    if n > AUDIT_CAP:
        raise ResourceCapExceeded(f"n={n} exceeds the audit cap {AUDIT_CAP}")
    c = np.arange(1 << n, dtype=np.int64)
    if not isinstance(model, CustomModel):
        return gap_vector(model, partition)[c[:, None] ^ c[None, :]]
    sub1 = model.submodel(partition, 1)
    sub2 = model.submodel(partition, 2)
    p1 = extract_map(n, partition.mask)
    p2 = extract_map(n, partition.mask2)
    w1 = partition.n1 / n
    w2 = partition.n2 / n
    m = model.covariance_matrix()
    m1 = sub1.covariance_matrix()
    m2 = sub2.covariance_matrix()
    return m - w1 * m1[p1[:, None], p1[None, :]] - w2 * m2[p2[:, None], p2[None, :]]


@dataclass(frozen=True)
class PsdReport:
    dim: int
    rank: int
    min_eigenvalue_estimate: float
    psd: bool


def validate_psd(matrix: np.ndarray, tol: float = 1e-8) -> PsdReport:
    """Positive-semidefiniteness via pivoted factorization.

    psd is true when every residual diagonal entry after the rank-revealing
    factorization is >= -tol * max(diagonal).  The eigenvalue estimate is the
    squared smallest pivot at full rank and the most negative residual
    otherwise; it is an estimate, not an eigensolve.
    """
    if not math.isfinite(tol) or tol < 0:
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-12:
        raise ValidationError("matrix is not symmetric within 1e-12")
    _, rank, pivots, resid_min = psd_factor(a)
    maxdiag = float(a.diagonal().max())
    psd = resid_min >= -tol * max(maxdiag, 1.0)
    if rank == a.shape[0]:
        estimate = float(pivots.min() ** 2)
    else:
        estimate = min(resid_min, 0.0)
    return PsdReport(dim=a.shape[0], rank=rank, min_eigenvalue_estimate=estimate, psd=psd)
