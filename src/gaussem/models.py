"""Covariance rules for Gaussian energy families on the hypercube.

Every model fixes a unit-diagonal symmetric covariance c_n(sigma, tau) over
the 2**n configurations.  Models whose covariance is a rational function of
overlaps return exact fractions from ``covariance``; floats appear only where
the inputs are floats (tree variances, custom matrices).  Every generated
rule depends on a pair only through sigma XOR tau, so ``kernel`` returns the
whole covariance as one vector K of length 2**n with c(sigma, tau) =
K[sigma XOR tau]; dense matrices and condition gaps are read from it.
Models with an explicit coupling expansion expose the linear map from
i.i.d. standard Gaussians to the energy vector via ``coupling_structure``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import Callable, Mapping

import numpy as np

from . import grem as grem_mod
from .errors import (
    DimensionMismatch,
    MissingData,
    ResourceCapExceeded,
    UnsupportedModel,
    ValidationError,
)
from .spins import CoordinatePartition, SpinConfig, overlap
from .util import popcount

#: largest n for which dense 2**n x 2**n covariance matrices may be built
MATRIX_CAP = 12

#: largest number of elements a coupling map, dense or compact, may hold
COUPLING_CAP = 50_000_000

WEIGHT_SUM_TOL = 1e-12


class CouplingStructure:
    """Independent Gaussian couplings plus the linear map to the energy vector.

    ``weight_matrix`` is the dense (2**n, n_couplings) map W with E = W @ g.
    Overlap models also carry the compact form ``(X, idx, coef)`` of the
    same map: every coupling column is a Walsh character chi_S(sigma) =
    prod_{i in S} sigma_i, X holds the k distinct characters as columns in
    ascending order of the bit mask S, and W[:, j] = coef[j] * X[:, idx[j]].
    Samplers use the compact form, so the dense map is only a small-n oracle.
    """

    def __init__(self, description: str, n: int, groups: tuple[tuple[str, int], ...],
                 build: Callable[[], np.ndarray],
                 build_compact: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]
                 | None = None):
        self.description = description
        self.n = n
        self.groups = groups
        self._build = build
        self._build_compact = build_compact
        self._matrix: np.ndarray | None = None

    @property
    def n_couplings(self) -> int:
        return sum(count for _, count in self.groups)

    def weight_matrix(self) -> np.ndarray:
        """Dense (2**n, n_couplings) map W with E = W @ g, g ~ N(0, I)."""
        if self._matrix is None:
            self._matrix = self._build()
        return self._matrix

    def compact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, idx, coef) with W[:, j] = coef[j] * X[:, idx[j]]; see the class docstring."""
        if self._build_compact is None:
            raise UnsupportedModel(f"{self.description} has no character form")
        return self._build_compact()

    def __repr__(self) -> str:
        return f"CouplingStructure({self.description!r}, n={self.n}, couplings={self.n_couplings})"


def _config_signs(n: int) -> np.ndarray:
    """(2**n, n) matrix of +-1 coordinates in enumeration order."""
    c = np.arange(1 << n)
    return np.where((c[:, None] >> np.arange(n)[None, :]) & 1 == 1, 1.0, -1.0)


def _tensor_rows(signs: np.ndarray, p: int) -> np.ndarray:
    """Row-wise p-fold tensor power: row c is the flattened outer power of signs[c]."""
    rows, n = signs.shape
    if rows * n**p > COUPLING_CAP:
        raise ResourceCapExceeded(f"coupling tensor of order {p} too large at n={n}")
    out = signs
    for _ in range(p - 1):
        out = (out[:, :, None] * signs[:, None, :]).reshape(rows, -1)
    return out


def _character_sizes(n: int, orders) -> list[int]:
    """|S| of the characters the order-p couplings reach, p in orders.

    Coupling (i1, .., ip) is the character of the index set S appearing an
    odd number of times, so |S| has the parity of p and is at most min(p, n);
    every such S is reached.
    """
    return sorted({s for p in orders for s in range(p % 2, min(p, n) + 1, 2)})


def _character_form(n: int, scales: Mapping[int, float], characters: Callable[[], np.ndarray]):
    """Compact coupling map (X, idx, coef) of the order-p couplings scaled by scales[p].

    Couplings are flattened like ``_tensor_rows``.  X = characters() is the
    model's walsh_characters; the counts of ``_character_sizes`` fix its
    width k before anything is allocated.
    """
    k = sum(math.comb(n, s) for s in _character_sizes(n, scales))
    n_couplings = sum(n**p for p in scales)
    if max((1 << n) * k, n_couplings) > COUPLING_CAP:
        raise ResourceCapExceeded(
            f"character map 2**{n} x {k} with {n_couplings} couplings exceeds "
            f"the budget of {COUPLING_CAP} elements"
        )
    bits = 1 << np.arange(n, dtype=np.int64)
    masks = []
    for p in scales:
        m = np.zeros(1, dtype=np.int64)
        for _ in range(p):
            m = (m[:, None] ^ bits[None, :]).ravel()
        masks.append(m)
    # the distinct masks, ascending, are the model's walsh_support
    _, idx = np.unique(np.concatenate(masks), return_inverse=True)
    coef = np.concatenate([np.full(n**p, scale) for p, scale in scales.items()])
    return characters(), idx, coef


def walsh_characters(n: int, masks: np.ndarray) -> np.ndarray:
    """(2**n, len(masks)) matrix whose column j is the character chi_S, S = masks[j].

    chi_S(c) = prod_{i in S} s_i = (-1)**(|S| - |S & c|): one factor -1 per
    coordinate of S that is down.  It differs from the XOR-word character
    (-1)**|S & c| by the sign chi_S(0) = (-1)**|S|.  A matrix over the
    coupling budget is refused before it is allocated.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if (1 << n) * masks.size > COUPLING_CAP:
        raise ResourceCapExceeded(
            f"character matrix 2**{n} x {masks.size} exceeds the budget of "
            f"{COUPLING_CAP} elements"
        )
    c = np.arange(1 << n, dtype=np.int64)
    parity = (np.bitwise_count(c[:, None] & masks[None, :]) + np.bitwise_count(masks)) & 1
    return 1.0 - 2.0 * parity


class CovarianceModel:
    """Base class; subclasses fix the covariance rule for one model kind."""

    kind: str = "abstract"
    #: covariance depends on the pair only through per-block disagreement counts
    count_reducible: bool = False

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"system size must be >= 1, got {n}")
        self.n = int(n)
        self._characters: np.ndarray | None = None

    # -- covariance ---------------------------------------------------------

    def covariance(self, sigma: SpinConfig, tau: SpinConfig):
        raise NotImplementedError

    def _check_sizes(self, sigma: SpinConfig, tau: SpinConfig) -> None:
        if sigma.n != self.n or tau.n != self.n:
            raise DimensionMismatch(
                f"configuration sizes ({sigma.n}, {tau.n}) != model size {self.n}"
            )

    def covariance_matrix(self) -> np.ndarray:
        """Dense covariance in enumeration order; unit diagonal."""
        if self.n > MATRIX_CAP:
            raise ResourceCapExceeded(f"n={self.n} exceeds the matrix cap {MATRIX_CAP}")
        c = np.arange(1 << self.n, dtype=np.int64)
        return self.kernel()[c[:, None] ^ c[None, :]]

    def kernel(self) -> np.ndarray:
        """XOR kernel K with c(sigma, tau) = K[sigma XOR tau], one entry per word in [0, 2**n).

        K[u] = c(sigma, sigma XOR u) for every sigma: each built-in rule
        depends on a pair only through the coordinates where it disagrees.
        Dense matrices and condition gaps are read from K; tree models are
        audited through one gap per XOR word, which covers all 4**n pairs.
        """
        raise NotImplementedError

    def walsh_support(self) -> np.ndarray:
        """Ascending masks S of the characters chi_S that can carry weight in ``kernel``.

        All 2**n by default; overlap models narrow it to the characters of
        their couplings.
        """
        return np.arange(1 << self.n, dtype=np.int64)

    def characters(self) -> np.ndarray:
        """walsh_characters over walsh_support, built once per model and shared read-only.

        The structural sampler and the Walsh form of the condition gap
        (audit.gap_expansion) read the same matrix.
        """
        if self._characters is None:
            chars = walsh_characters(self.n, self.walsh_support())
            chars.flags.writeable = False
            self._characters = chars
        return self._characters

    # -- family structure ---------------------------------------------------

    def at_size(self, n: int) -> "CovarianceModel":
        """Same covariance rule at another system size."""
        raise UnsupportedModel(f"{self.kind} is not size-parametric")

    def submodel(self, partition: CoordinatePartition, block: int) -> "CovarianceModel":
        """Model governing the chosen block of a coordinate split."""
        if partition.n != self.n:
            raise DimensionMismatch(
                f"partition size {partition.n} != model size {self.n}"
            )
        return self.at_size(partition.block_size(block))

    def coupling_structure(self) -> CouplingStructure:
        raise UnsupportedModel(
            f"{self.kind} has no structural coupling form; use the factorization sampler"
        )

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class _OverlapPolynomialModel(CovarianceModel):
    """Covariance psi(q) = sum_p w_p q**p with rational weights ``orders = {p: w_p}``.

    The order-p couplings J[i1..ip] enter as sqrt(w_p) n**(-p/2) J s_i1..s_ip,
    so the covariance depends on a pair only through its XOR and every
    coupling column is a Walsh character.
    """

    count_reducible = True
    orders: dict[int, int | Fraction]

    def psi(self, q: Fraction) -> Fraction:
        # exact audits call this per count class: skip the unit weight and the
        # zero start, each of which costs a full Fraction operation
        total = None
        for p, w in self.orders.items():
            term = q**p if w == 1 else w * q**p
            total = term if total is None else total + term
        return total

    def psi_float(self, q: np.ndarray) -> np.ndarray:
        out = np.zeros_like(q, dtype=float)
        for p, w in self.orders.items():
            out += float(w) * q**p
        return out

    def covariance(self, sigma: SpinConfig, tau: SpinConfig) -> Fraction:
        self._check_sizes(sigma, tau)
        return self.psi(overlap(sigma, tau))

    def kernel(self) -> np.ndarray:
        u = np.arange(1 << self.n, dtype=np.int64)
        return self.psi_float(1.0 - 2.0 * popcount(u) / self.n)

    def walsh_support(self) -> np.ndarray:
        u = np.arange(1 << self.n, dtype=np.int64)
        return u[np.isin(popcount(u), _character_sizes(self.n, self.orders))]

    def at_size(self, n: int) -> "CovarianceModel":
        return type(self)(n)

    def coupling_structure(self) -> CouplingStructure:
        n = self.n
        scales = {p: np.sqrt(float(w)) * n ** (-p / 2) for p, w in self.orders.items()}

        def build() -> np.ndarray:
            signs = _config_signs(n)
            return np.hstack([scale * _tensor_rows(signs, p) for p, scale in scales.items()])

        groups = tuple((f"J[i1..i{p}] scaled by sqrt(w_{p}) n**(-{p}/2)", n**p) for p in scales)
        return CouplingStructure(
            "E = sum_p sqrt(w_p) n**(-p/2) sum J[i1..ip] s_i1..s_ip", n, groups, build,
            lambda: _character_form(n, scales, self.characters),
        )


class SKModel(_OverlapPolynomialModel):
    """Full pair-interaction model: all n**2 couplings, covariance q**2."""

    kind = "sk"
    orders = {2: 1}

    def spec_string(self) -> str:
        return "sk"


class PSpinModel(_OverlapPolynomialModel):
    """Order-p interaction model, covariance q**p (odd p allowed on purpose)."""

    kind = "pspin"

    def __init__(self, n: int, p: int):
        super().__init__(n)
        if int(p) != p or p < 1:
            raise ValidationError(f"interaction order must be a positive integer, got {p!r}")
        self.p = int(p)
        self.orders = {self.p: 1}

    def at_size(self, n: int) -> "PSpinModel":
        return PSpinModel(n, self.p)

    def spec_string(self) -> str:
        return f"pspin:{self.p}"

    def __repr__(self) -> str:
        return f"PSpinModel(n={self.n}, p={self.p})"


class MixedModel(_OverlapPolynomialModel):
    """Variance-weighted mixture: covariance sum_p w_p q**p with sum_p w_p = 1."""

    kind = "mixed"

    def __init__(self, n: int, weights: Mapping[int, Real | Fraction]):
        super().__init__(n)
        problems = []
        clean: dict[int, Fraction] = {}
        for p, w in sorted(weights.items()):
            if int(p) != p or p < 1:
                problems.append(f"interaction order {p!r} must be a positive integer")
                continue
            wf = Fraction(w)
            if wf < 0:
                problems.append(f"weight for p={p} is negative ({w!r})")
            clean[int(p)] = wf
        total = sum(clean.values(), Fraction(0))
        if not clean:
            problems.append("at least one interaction order is required")
        elif abs(total - 1) > WEIGHT_SUM_TOL:
            problems.append(f"weights sum to {float(total)!r}, expected 1")
        if problems:
            raise ValidationError("; ".join(problems))
        self.orders = clean

    @property
    def weights(self) -> dict[int, Fraction]:
        return self.orders

    def at_size(self, n: int) -> "MixedModel":
        return MixedModel(n, self.orders)

    def spec_string(self) -> str:
        parts = ",".join(f"{p}={_weight_str(w)}" for p, w in self.orders.items())
        return f"mixed:{parts}"


def _weight_str(w: Fraction) -> str:
    f = float(w)
    return repr(f) if Fraction(repr(f)) == w or Fraction(f) == w else f"{w.numerator}/{w.denominator}"


class REMModel(CovarianceModel):
    """All 2**n energies independent: covariance is the Kronecker delta."""

    kind = "rem"
    count_reducible = True

    def covariance(self, sigma: SpinConfig, tau: SpinConfig) -> Fraction:
        self._check_sizes(sigma, tau)
        return Fraction(1) if sigma.bits == tau.bits else Fraction(0)

    def kernel(self) -> np.ndarray:
        k = np.zeros(1 << self.n)
        k[0] = 1.0
        return k

    def at_size(self, n: int) -> "REMModel":
        return REMModel(n)

    def coupling_structure(self) -> CouplingStructure:
        n = self.n

        def build() -> np.ndarray:
            if n > MATRIX_CAP:
                raise ResourceCapExceeded(f"identity coupling map too large at n={n}")
            return np.eye(1 << n)

        return CouplingStructure(
            f"{1 << n} independent unit couplings, one per configuration",
            n, (("per-configuration", 1 << n),), build,
        )

    def spec_string(self) -> str:
        return "rem"


class GREMModel(CovarianceModel):
    """Tree-structured covariance: v at the merge level of the two leaves."""

    kind = "grem"

    def __init__(self, tree: grem_mod.GremTree):
        super().__init__(tree.n_spins)
        self.tree = tree

    def covariance(self, sigma: SpinConfig, tau: SpinConfig) -> float:
        self._check_sizes(sigma, tau)
        return grem_mod.grem_covariance(self.tree, sigma, tau)

    def kernel(self) -> np.ndarray:
        v = np.asarray(self.tree.cumulative_variance)
        u = np.arange(1 << self.n, dtype=np.int64)
        return v[grem_mod.merge_level_matrix(self.tree, u)]

    def submodel(self, partition: CoordinatePartition, block: int) -> "GREMModel":
        if partition.n != self.n:
            raise DimensionMismatch(
                f"partition size {partition.n} != model size {self.n}"
            )
        return GREMModel(self.tree.sub_tree(partition, block))

    def at_size(self, n: int) -> "CovarianceModel":
        raise UnsupportedModel(
            "a tree model changes with the coordinate split; use submodel(partition, block)"
        )

    def coupling_structure(self) -> CouplingStructure:
        tree = self.tree
        groups = tuple(
            (f"layer {i + 1} (var {a!r})", count)
            for i, (count, a) in enumerate(zip(tree.branch_counts, tree.variances))
        )
        return CouplingStructure(
            "one coupling per branch, scaled by sqrt(layer variance)",
            self.n, groups, lambda: grem_mod.branch_weight_matrix(tree),
        )

    def spec_string(self) -> str:
        return self.tree.spec_string()


class CustomModel(CovarianceModel):
    """Covariance given directly as a matrix in enumeration order.

    Condition audits additionally need the covariances of the projected
    systems; supply them as a size-indexed family of matrices.
    """

    kind = "custom"

    def __init__(self, matrix: np.ndarray, family: Mapping[int, np.ndarray] | None = None,
                 name: str = "custom"):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"covariance must be square, got shape {m.shape}")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if 1 << n != dim:
            raise ValidationError(f"matrix dimension {dim} is not a power of two")
        super().__init__(n)
        if np.abs(m - m.T).max() > 1e-12:
            raise ValidationError("covariance matrix is not symmetric within 1e-12")
        if np.abs(m.diagonal() - 1.0).max() > 1e-9:
            raise ValidationError("covariance matrix does not have unit diagonal")
        self.matrix = m
        self.family = {int(k): np.asarray(v, dtype=float) for k, v in (family or {}).items()}
        self.name = name

    def covariance(self, sigma: SpinConfig, tau: SpinConfig) -> float:
        self._check_sizes(sigma, tau)
        return float(self.matrix[sigma.bits, tau.bits])

    def kernel(self) -> np.ndarray:
        raise UnsupportedModel("custom matrices are stored, not generated")

    def covariance_matrix(self) -> np.ndarray:
        return self.matrix.copy()

    def at_size(self, n: int) -> "CovarianceModel":
        if n == self.n:
            return self
        if n not in self.family:
            raise MissingData(
                f"custom model has no covariance matrix for size {n}; "
                f"available sizes: {sorted(self.family) or 'none'}"
            )
        return CustomModel(self.family[n], self.family, name=self.name)

    def spec_string(self) -> str:
        return f"custom:{self.name}"
