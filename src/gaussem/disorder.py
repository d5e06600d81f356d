"""Disorder realizations with prescribed covariance and reproducible streams.

Streams are counter-based: draw i of experiment e under master seed s uses a
Philox generator keyed by (s, sha256(e)) with counter i, so distinct draws
are independent, order does not matter, and concurrent generation is
race-free and bit-reproducible.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, ResourceCapExceeded, ValidationError
from .grem import sample_grem
from .models import CovarianceModel, CustomModel
from .spins import CoordinatePartition
from .util import extract_map, psd_factor

#: largest Frobenius residual of the covariance factor, relative to the covariance
FACTOR_RTOL = 1e-8


@dataclass(frozen=True)
class SeedPolicy:
    """Derives one independent Gaussian stream per (experiment, draw index).

    The (master seed, experiment label, draw index) triple is hashed into the
    128-bit Philox key; distinct keys give independent streams, and the
    counter (which Philox advances block by block while generating) always
    starts at zero.
    """

    master_seed: int = 0

    def stream(self, experiment: str, draw: int) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.master_seed}|{experiment}|{draw}".encode("utf-8")
        ).digest()
        key = [
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:16], "big"),
        ]
        return np.random.Generator(np.random.Philox(counter=0, key=key))


@dataclass(frozen=True)
class DisorderDraw:
    """One realization of the full energy vector, in enumeration order."""

    n: int
    energies: np.ndarray
    provenance: tuple[str, int, int]  # (model/experiment id, master seed, draw index)

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        if e.shape != (1 << self.n,):
            raise ValidationError(f"expected {1 << self.n} energies, got shape {e.shape}")
        object.__setattr__(self, "energies", e)


class StructuralSampler:
    """Draws the model's independent couplings and applies the linear map.

    The sampler of every generated model (sk, pspin, mixed, rem, grem).
    Overlap models read all n_couplings normals g, fold them onto the k
    distinct Walsh characters of the coupling map, a = bincount(idx, coef *
    g), and return X @ a (CouplingStructure.compact); the dense 2**n x
    n_couplings map is never built, and the draw equals W @ g up to
    summation rounding.  A character map over the coupling budget is refused
    with ResourceCapExceeded before anything is allocated.  The identity map
    of the independent-energies model is skipped, and tree models sum their
    branch couplings along the leaf paths in layer order (grem.sample_grem),
    so their draws do not depend on the BLAS kernel's summation order.
    """

    def __init__(self, model: CovarianceModel):
        self.model = model
        self.n = model.n
        if model.kind in ("rem", "grem"):
            self._chars = None
        else:
            self._chars, self._idx, self._coef = model.coupling_structure().compact()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.model.kind == "grem":
            return sample_grem(self.model.tree, rng)
        if self._chars is None:
            return rng.standard_normal(1 << self.n)
        g = rng.standard_normal(self._idx.size)
        a = np.bincount(self._idx, self._coef * g, minlength=self._chars.shape[1])
        return self._chars @ a


class CholeskySampler:
    """Draws energies through a pivoted rank-revealing factor of the covariance."""

    def __init__(self, covariance: np.ndarray):
        c = np.asarray(covariance, dtype=float)
        factor, rank, _, resid_min = psd_factor(c)
        maxdiag = float(c.diagonal().max())
        if resid_min < -1e-8 * max(maxdiag, 1.0):
            raise ValidationError(
                f"covariance is indefinite beyond tolerance (residual diagonal {resid_min!r})"
            )
        resid = np.linalg.norm(c - factor @ factor.T)
        scale = max(np.linalg.norm(c), 1.0)
        if resid > FACTOR_RTOL * scale:
            raise ValidationError(
                f"factorization residual {resid!r} exceeds {FACTOR_RTOL!r} (relative)"
            )
        self._factor = factor
        self.rank = rank
        self.n = c.shape[0].bit_length() - 1

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._factor @ rng.standard_normal(self._factor.shape[1])


def make_sampler(model: CovarianceModel):
    """The exact sampler of the model, chosen from the model alone.

    Every exact sampler gives the same law, so no caller picks one.
    Generated models draw through their coupling form (StructuralSampler).
    Custom models, and generated models whose character map is over the
    coupling budget, factorize the dense covariance (CholeskySampler), which
    keeps its own MATRIX_CAP refusal; a model refused by both is told both.
    """
    budget = None
    if not isinstance(model, CustomModel):
        try:
            return StructuralSampler(model)
        except ResourceCapExceeded as exc:
            budget = exc
    try:
        covariance = model.covariance_matrix()
    except ResourceCapExceeded as exc:
        if budget is None:
            raise
        raise ResourceCapExceeded(f"{budget}; factorization fallback: {exc}") from exc
    return CholeskySampler(covariance)


def draw_disorder(model: CovarianceModel, policy: SeedPolicy, experiment: str,
                  draw: int) -> DisorderDraw:
    sampler = make_sampler(model)
    rng = policy.stream(experiment, draw)
    return DisorderDraw(
        n=model.n,
        energies=sampler.sample(rng),
        provenance=(f"{model.spec_string()}/{experiment}", policy.master_seed, draw),
    )


def lift(draw: DisorderDraw, partition: CoordinatePartition, block: int) -> DisorderDraw:
    """Embed a block-sized draw into the full space: E'_sigma = E_(block projection).

    The output is degenerate: constant on the fibers of the projection.
    """
    nk = partition.block_size(block)
    if draw.n != nk:
        raise DimensionMismatch(
            f"draw size {draw.n} != block {block} size {nk}"
        )
    amap = extract_map(partition.n, partition.block_mask(block))
    label, seed, idx = draw.provenance
    return DisorderDraw(
        n=partition.n,
        energies=draw.energies[amap],
        provenance=(f"lift{block}[{label}]", seed, idx),
    )


@dataclass(frozen=True)
class JointDraw:
    """Three mutually independent systems: full size plus one per block, lifted."""

    partition: CoordinatePartition
    full: DisorderDraw
    sub1: DisorderDraw
    sub2: DisorderDraw
    lift1: DisorderDraw
    lift2: DisorderDraw


class TripleSampler:
    """Reusable sampler for (full, block-1, block-2) joint draws.

    One stream per draw index, consumed in a fixed order, keeps the three
    systems independent while costing a single generator construction.
    """

    def __init__(self, model: CovarianceModel, partition: CoordinatePartition):
        if partition.n != model.n:
            raise DimensionMismatch(
                f"partition size {partition.n} != model size {model.n}"
            )
        self.model = model
        self.partition = partition
        self._full = make_sampler(model)
        self._s1 = make_sampler(model.submodel(partition, 1))
        self._s2 = make_sampler(model.submodel(partition, 2))
        self._map1 = extract_map(partition.n, partition.mask)
        self._map2 = extract_map(partition.n, partition.mask2)
        self._label = f"{model.spec_string()}|mask={partition.mask}"

    def draw(self, policy: SeedPolicy, experiment: str, index: int) -> JointDraw:
        rng = policy.stream(experiment, index)
        e = self._full.sample(rng)
        e1 = self._s1.sample(rng)
        e2 = self._s2.sample(rng)
        p = self.partition
        seed = policy.master_seed
        full = DisorderDraw(p.n, e, (f"{self._label}/{experiment}", seed, index))
        sub1 = DisorderDraw(p.n1, e1, (f"{self._label}/{experiment}#1", seed, index))
        sub2 = DisorderDraw(p.n2, e2, (f"{self._label}/{experiment}#2", seed, index))
        lift1 = DisorderDraw(p.n, e1[self._map1], sub1.provenance)
        lift2 = DisorderDraw(p.n, e2[self._map2], sub2.provenance)
        return JointDraw(p, full, sub1, sub2, lift1, lift2)


def write_draws(fh: io.TextIOBase, draws: Iterable[DisorderDraw]) -> None:
    """Plain-text exchange format: one line per draw, energies in enumeration order."""
    for d in draws:
        fh.write(" ".join(repr(float(x)) for x in d.energies))
        fh.write("\n")


def read_draws(fh: io.TextIOBase, n: int) -> list[np.ndarray]:
    out = []
    for line in fh:
        if not line.strip():
            continue
        vec = np.array([float(tok) for tok in line.split()])
        if vec.shape != (1 << n,):
            raise ValidationError(f"expected {1 << n} energies per line, got {vec.size}")
        out.append(vec)
    return out
