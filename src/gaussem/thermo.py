"""Log-partition sums, quenched free energy estimates, bounds, comparisons.

The configuration sum is always exact enumeration; only the disorder average
is Monte Carlo.  Per-spin quantities use the decomposition

    (1/n) ln sum_s exp(x_s) = ln 2 + (max x + ln mean exp(x - max x)) / n

which is overflow-free and returns ln 2 exactly at beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderDraw, SeedPolicy, make_sampler
from .errors import ValidationError
from .models import CovarianceModel, SKModel
from .spins import CoordinatePartition
from .util import log_mean_exp, pmap

LN2 = math.log(2.0)


@dataclass(frozen=True)
class QuenchedEstimate:
    """Monte Carlo mean over disorder draws, with standard error."""

    value: float
    std_error: float
    samples: int
    beta: float
    n: int
    quantity: str

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValidationError("error bars need at least 2 samples")


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def log_partition(draw: DisorderDraw, beta: float) -> float:
    """ln sum_sigma exp(beta sqrt(n) E_sigma), overflow-free."""
    return draw.n * alpha_of_energies(draw.energies, draw.n, beta)


def alpha_of_energies(energies: np.ndarray, n: int, beta: float) -> float:
    """(1/n) ln Z for one realization; exactly ln 2 at beta = 0."""
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta!r}")
    x = (beta * math.sqrt(n)) * np.asarray(energies, dtype=float)
    if np.isnan(x).any():
        raise ValidationError("energies contain NaN")
    return LN2 + log_mean_exp(x) / n


def jensen_bound(beta: float) -> float:
    """Annealed upper bound ln 2 + beta**2 / 2 on the per-spin quenched value."""
    if beta < 0:
        raise ValidationError(f"beta must be >= 0, got {beta!r}")
    return LN2 + beta * beta / 2.0


def quenched_alpha(model: CovarianceModel, beta: float, samples: int, seeds: SeedPolicy,
                   experiment: str | None = None, threads: int = 1) -> QuenchedEstimate:
    """Monte Carlo estimate of the disorder-averaged per-spin log partition sum."""
    if samples < 2:
        raise ValidationError("error bars need at least 2 samples")
    label = experiment or f"alpha|{model.spec_string()}|n={model.n}|beta={beta!r}"
    sampler = make_sampler(model)
    n = model.n

    def one(i: int) -> float:
        return alpha_of_energies(sampler.sample(seeds.stream(label, i)), n, beta)

    vals = np.array(pmap(one, range(samples), threads))
    mean, se = mean_and_se(vals)
    return QuenchedEstimate(mean, se, samples, beta, n, "alpha")


@dataclass(frozen=True)
class SuperadditivityReport:
    """Three independent estimates and the weighted margin between them."""

    alpha_full: QuenchedEstimate
    alpha_block1: QuenchedEstimate
    alpha_block2: QuenchedEstimate
    margin: float
    combined_se: float
    verdict: str

    @property
    def satisfied(self) -> bool:
        return self.verdict == "SATISFIED"


def superadditivity_report(model: CovarianceModel, partition: CoordinatePartition,
                           beta: float, samples: int, seeds: SeedPolicy,
                           threads: int = 1) -> SuperadditivityReport:
    """Compare the full-size estimate against the block-weighted average."""
    n, n1, n2 = partition.n, partition.n1, partition.n2
    base = f"superadd|{model.spec_string()}|mask={partition.mask}|beta={beta!r}"
    a = quenched_alpha(model, beta, samples, seeds, f"{base}|full", threads)
    a1 = quenched_alpha(model.submodel(partition, 1), beta, samples, seeds,
                        f"{base}|block1", threads)
    a2 = quenched_alpha(model.submodel(partition, 2), beta, samples, seeds,
                        f"{base}|block2", threads)
    # integer weighting keeps the margin exactly 0 when all three values coincide
    margin = (n * a.value - n1 * a1.value - n2 * a2.value) / n
    combined = math.sqrt(
        a.std_error**2 + (n1 / n * a1.std_error) ** 2 + (n2 / n * a2.std_error) ** 2
    )
    verdict = "SATISFIED" if margin >= -3.0 * combined else "VIOLATED"
    return SuperadditivityReport(a, a1, a2, margin, combined, verdict)


def _triangular_pair_weights(n: int) -> np.ndarray:
    """Map from the n(n-1)/2 upper-triangular couplings to energies, scaled 1/n."""
    c = np.arange(1 << n)
    signs = np.where((c[:, None] >> np.arange(n)[None, :]) & 1 == 1, 1.0, -1.0)
    cols = [signs[:, i] * signs[:, j] for i in range(n) for j in range(i + 1, n)]
    if not cols:
        return np.zeros((1 << n, 0))
    return np.stack(cols, axis=1) / n


@dataclass(frozen=True)
class SkRescalingReport:
    """Standard (i<j) pair model at sqrt(2) beta versus the full model at beta."""

    alpha_standard: QuenchedEstimate
    alpha_full: QuenchedEstimate
    difference: float
    combined_se: float
    consistent: bool


def sk_rescaling_check(n: int, beta: float, samples: int, seeds: SeedPolicy,
                       threads: int = 1) -> SkRescalingReport:
    """Check the temperature-rescaling identity between the two pair models.

    The full model's energy is distributed as sqrt(2) times the standard
    (i<j, 1/n scaled) model's energy plus a configuration-independent
    Gaussian shift, so the per-spin quenched values coincide after rescaling
    beta by sqrt(2).  Both sides are estimated by direct simulation.
    """
    beta_std = math.sqrt(2.0) * beta
    w = _triangular_pair_weights(n)
    label = f"sk_standard|n={n}|beta={beta!r}"

    def one(i: int) -> float:
        g = seeds.stream(label, i).standard_normal(w.shape[1])
        return alpha_of_energies(w @ g, n, beta_std)

    if samples < 2:
        raise ValidationError("error bars need at least 2 samples")
    vals = np.array(pmap(one, range(samples), threads))
    mean, se = mean_and_se(vals)
    a_std = QuenchedEstimate(mean, se, samples, beta_std, n, "alpha_sk_standard")
    a_full = quenched_alpha(SKModel(n), beta, samples, seeds, threads=threads)
    diff = a_std.value - a_full.value
    combined = math.sqrt(a_std.std_error**2 + a_full.std_error**2)
    return SkRescalingReport(a_std, a_full, diff, combined, abs(diff) <= 3.0 * combined)
