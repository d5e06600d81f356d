"""One-parameter blend between a full system and two independent sub-systems.

For a joint draw (E, E1, E2) over a split (n1, n2) of n, the blended
Hamiltonian at parameter t in [0, 1] is

    H(sigma, t) = -( sqrt(t n) E_sigma
                   + sqrt((1-t) n1) E1_(block 1 of sigma)
                   + sqrt((1-t) n2) E2_(block 2 of sigma) )

At t = 1 the partition sum equals the full system's; at t = 0 it factorizes
into the two blocks' partition sums.  The t-derivative of the disorder
average of (1/n) ln Z(t) equals

    -(beta**2 / 2) * < c_n - (n1/n) c_n1 - (n2/n) c_n2 >_t

where <.>_t is the two-replica Gibbs expectation under H(., t).  It is exact
per draw; only the disorder average is sampled.  (Differentiating sqrt(t_j)
produces the 1/2; the finite-difference cross-check pins the constant.)

The expectation w @ G @ w over all 4**n replica pairs is computed in the
Walsh basis of the gap, G = X diag(coef) X.T (audit.gap_expansion):

    w @ G @ w = sum_S coef_S m_S**2,    m_S = sum_sigma w_sigma chi_S(sigma),

with m_S the Gibbs mean of the character chi_S(sigma) = prod_{i in S}
sigma_i.  For SK this is the overlap expansion sum_ij <s_i s_j>**2 of
Guerra-Toninelli interpolation.  Sign rule: chi_S(sigma) = (-1)**(|S| -
|S & sigma|) differs from the XOR-word character (-1)**|S & u| of the gap
vector's Walsh-Hadamard transform by chi_S(0) = (-1)**|S|, so coef_S is
that transform times chi_S(0) / 2**n; odd orders and rem depend on it.  No
generated model builds the 4**n gap matrix: X is the model's character
matrix, shared with its sampler, with one column per character the
couplings reach for overlap models (46 for SK(10)) and 2**n columns for
tree models.  The Gibbs weights of a whole t grid come from one broadcast
of the operations that give the weights of a single t, row for row; the
grid's scales are computed once per call (blend_scales).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import audit as audit_mod
from .disorder import JointDraw, SeedPolicy, TripleSampler
from .errors import ValidationError
from .models import CovarianceModel
from .spins import CoordinatePartition, SpinConfig
from .thermo import LN2, QuenchedEstimate, mean_and_se
from .util import log_mean_exp, pmap


def _scales(partition: CoordinatePartition, beta: float, t: float) -> tuple[float, float, float]:
    """Weights of the full system and of the two blocks at blend parameter t."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must lie in [0, 1], got {t!r}")
    return (
        beta * math.sqrt(t * partition.n),
        beta * math.sqrt((1.0 - t) * partition.n1),
        beta * math.sqrt((1.0 - t) * partition.n2),
    )


def blend_scales(partition: CoordinatePartition, beta: float, ts) -> np.ndarray:
    """_scales of every t in ts as three (len(ts), 1) columns, for TwoReplicaGibbs."""
    cols = np.array([_scales(partition, beta, t) for t in ts], dtype=float).reshape(-1, 3)
    return cols.T[:, :, None]


def _logits(triple: JointDraw, s0, s1, s2) -> np.ndarray:
    """-beta * H(., t) over all configurations from the _scales of t, scalars folded first."""
    return s0 * triple.full.energies + s1 * triple.lift1.energies + s2 * triple.lift2.energies


def interp_hamiltonian(triple: JointDraw, sigma: SpinConfig, t: float) -> float:
    """Blended Hamiltonian of one configuration (beta-free)."""
    if sigma.n != triple.partition.n:
        raise ValidationError(f"configuration size {sigma.n} != system size {triple.partition.n}")
    s0, s1, s2 = _scales(triple.partition, 1.0, t)
    i = sigma.bits
    return -(
        s0 * float(triple.full.energies[i])
        + s1 * float(triple.lift1.energies[i])
        + s2 * float(triple.lift2.energies[i])
    )


def log_partition_t(triple: JointDraw, beta: float, t: float) -> float:
    """ln sum_sigma exp(-beta H(sigma, t)), overflow-free."""
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta!r}")
    return triple.partition.n * LN2 + log_mean_exp(
        _logits(triple, *_scales(triple.partition, beta, t)))


class TwoReplicaGibbs:
    """Gibbs weights of one realization; a pair (sigma, tau) weighs single[sigma] * single[tau].

    ``scales`` is blend_scales(partition, beta, ts) of a t grid, computed
    once per grid.  ``single`` has one row per t, equal to the weights of
    that t alone: the rows broadcast the same elementwise operations.
    """

    def __init__(self, triple: JointDraw, scales: np.ndarray):
        x = _logits(triple, *scales)
        w = np.exp(x - x.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        self.single = w


class _DerivativeMachine:
    """Shared plumbing: the gap in its Walsh basis, one triple sampler, per-draw values."""

    def __init__(self, model: CovarianceModel, partition: CoordinatePartition,
                 beta: float):
        if beta < 0:
            raise ValidationError(f"beta must be >= 0, got {beta!r}")
        self.model = model
        self.partition = partition
        self.beta = beta
        self.chars, self.coef = audit_mod.gap_expansion(model, partition)
        self.sampler = TripleSampler(model, partition)

    def derivatives_of_draw(self, triple: JointDraw, scales: np.ndarray) -> np.ndarray:
        """-(beta**2 / 2) w @ G @ w of one draw, one value per t of blend_scales(.., ts)."""
        m = TwoReplicaGibbs(triple, scales).single @ self.chars
        return -(self.beta**2 / 2.0) * ((m * m) @ self.coef)

    def alpha_of_draw(self, triple: JointDraw, t: float) -> float:
        return log_partition_t(triple, self.beta, t) / self.partition.n


def derivative_estimator(model: CovarianceModel, partition: CoordinatePartition,
                         beta: float, t: float, samples: int, seeds: SeedPolicy,
                         experiment: str | None = None, threads: int = 1) -> QuenchedEstimate:
    """Monte Carlo estimate of d/dt of the averaged per-spin log partition sum.

    The two-replica expectation is exact per draw (in the Walsh basis of the
    gap); only the disorder average is sampled.  Endpoints t = 0, 1 are
    fine: the evaluated expression has no 1/sqrt(t) singularities.
    """
    machine = _DerivativeMachine(model, partition, beta)
    label = experiment or (
        f"deriv|{model.spec_string()}|mask={partition.mask}|beta={beta!r}|t={t!r}"
    )
    scales = blend_scales(partition, beta, [t])

    def one(i: int) -> float:
        return float(machine.derivatives_of_draw(machine.sampler.draw(seeds, label, i), scales)[0])

    vals = np.array(pmap(one, range(samples), threads))
    mean, se = mean_and_se(vals)
    return QuenchedEstimate(mean, se, samples, beta, partition.n, "dalpha/dt")


@dataclass(frozen=True)
class DerivativeComparison:
    """Central finite difference against the two-replica formula."""

    t: float
    h: float
    finite_difference: QuenchedEstimate
    estimator: QuenchedEstimate
    combined_se: float
    agree: bool
    h_warning: bool  # h > 0.1: O(h**2) bias may not be negligible


def finite_difference_check(model: CovarianceModel, partition: CoordinatePartition,
                            beta: float, t: float, h: float, samples: int,
                            seeds: SeedPolicy, threads: int = 1) -> DerivativeComparison:
    """Cross-validate the derivative formula against a seed-coupled difference.

    The same joint draws are reused at t-h and t+h (common random numbers),
    so the difference quotient's spread reflects genuine disorder variation,
    not independent-sample noise.
    """
    if not (0.0 < t - h and t + h < 1.0):
        raise ValidationError(f"need 0 < t-h and t+h < 1, got t={t!r}, h={h!r}")
    machine = _DerivativeMachine(model, partition, beta)
    label = f"fd|{model.spec_string()}|mask={partition.mask}|beta={beta!r}|t={t!r}|h={h!r}"

    def one(i: int) -> float:
        triple = machine.sampler.draw(seeds, label, i)
        return (machine.alpha_of_draw(triple, t + h) - machine.alpha_of_draw(triple, t - h)) / (2 * h)

    vals = np.array(pmap(one, range(samples), threads))
    mean, se = mean_and_se(vals)
    fd = QuenchedEstimate(mean, se, samples, beta, partition.n, "dalpha/dt (central diff)")
    est = derivative_estimator(model, partition, beta, t, samples, seeds, threads=threads)
    combined = math.sqrt(fd.std_error**2 + est.std_error**2)
    return DerivativeComparison(
        t=t, h=h, finite_difference=fd, estimator=est, combined_se=combined,
        agree=abs(fd.value - est.value) <= 3.0 * combined,
        h_warning=h > 0.1,
    )


@dataclass(frozen=True)
class ScanPoint:
    t: float
    estimate: QuenchedEstimate
    verdict: str  # NONNEGATIVE or NEGATIVE at 3 standard errors


@dataclass(frozen=True)
class MonotonicityScan:
    points: tuple[ScanPoint, ...]

    @property
    def all_nonnegative(self) -> bool:
        return all(p.verdict == "NONNEGATIVE" for p in self.points)


def monotonicity_scan(model: CovarianceModel, partition: CoordinatePartition,
                      beta: float, t_grid, samples: int, seeds: SeedPolicy,
                      threads: int = 1) -> MonotonicityScan:
    """Derivative estimates across a t grid; draws are shared across the grid.

    Each draw gives its whole row of derivatives in one call, so only the
    (samples, len(t_grid)) value table is kept, not the draws.
    """
    machine = _DerivativeMachine(model, partition, beta)
    label = f"scan|{model.spec_string()}|mask={partition.mask}|beta={beta!r}"
    ts = [float(t) for t in t_grid]
    scales = blend_scales(partition, beta, ts)

    def row(i: int) -> np.ndarray:
        return machine.derivatives_of_draw(machine.sampler.draw(seeds, label, i), scales)

    table = np.array(pmap(row, range(samples), threads)).reshape(samples, len(ts))
    points = []
    for t, vals in zip(ts, np.ascontiguousarray(table.T)):
        mean, se = mean_and_se(vals)
        est = QuenchedEstimate(mean, se, samples, beta, partition.n, "dalpha/dt")
        verdict = "NONNEGATIVE" if mean >= -3.0 * se else "NEGATIVE"
        points.append(ScanPoint(t, est, verdict))
    return MonotonicityScan(tuple(points))
