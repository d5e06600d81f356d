"""Disorder realizations with prescribed covariance and reproducible streams.

Streams are counter-based: draw i of experiment e under master seed s uses a
Philox generator keyed by sha256(s|e|i) with its counter at zero, so
distinct draws are independent, order does not matter, and concurrent
generation is race-free and bit-reproducible.  A draw is its energy vector
and nothing else: the (seed, experiment, index) that made it is known to
the caller and is not stored.  Samplers map a stream to the 2**n energies
of one model; TripleSampler draws the full system and its two blocks from
one stream; write_draws is the plain-text dump of ``sample-dump``.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Iterable, Iterator

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

    The (master seed, experiment label, draw index) triple is hashed with
    sha256, and the first two 64-bit words of the digest key a Philox
    generator whose counter starts at zero.  The key is not the full
    128-bit hash: the two words go through ``np.asarray([a, b])``, which
    promotes a pair with one word at or above 2**63 and one below it to
    float64, so about half of all keys are rounded (see ``key``).  This is
    kept, so that every draw stays what it was, until a change that fixes
    the key re-records every output that depends on it.
    """

    master_seed: int = 0

    def key(self, experiment: str, draw: int) -> np.ndarray:
        """The Philox key of one draw, as two uint64 words.

        The words are converted the way ``Philox(key=[a, b])`` converts a
        list of Python ints, float64 rounding of mixed pairs included.
        """
        digest = hashlib.sha256(
            f"{self.master_seed}|{experiment}|{draw}".encode("utf-8")
        ).digest()
        words = [int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")]
        return np.asarray(words).astype(np.uint64)

    def stream(self, experiment: str, draw: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(counter=0, key=self.key(experiment, draw))
        )

    def streams(self, experiment: str,
                draws: Iterable[int]) -> Iterator[np.random.Generator]:
        """One generator per draw index, equal bit for bit to ``stream``.

        A single generator is built and re-keyed for each index (counter 0,
        empty buffer), which costs a fraction of building a new one.  The
        yielded generator is only valid until the next iteration: keep the
        numbers drawn from it, not the generator.
        """
        rng = np.random.Generator(np.random.Philox(counter=0, key=[0, 0]))
        # the setter copies the arrays, so one state dict serves every draw
        zeros = np.zeros(4, dtype=np.uint64)
        keyed = {"counter": zeros, "key": zeros[:2]}
        state = {"bit_generator": "Philox", "state": keyed, "buffer": zeros,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for draw in draws:
            keyed["key"] = self.key(experiment, draw)
            rng.bit_generator.state = state
            yield rng


@dataclass(frozen=True)
class DisorderDraw:
    """One realization of the full energy vector of n spins, in enumeration order."""

    n: int
    energies: np.ndarray

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
        self.partition = partition
        self._full = make_sampler(model)
        self._s1 = make_sampler(model.submodel(partition, 1))
        self._s2 = make_sampler(model.submodel(partition, 2))
        self._map1 = extract_map(partition.n, partition.mask)
        self._map2 = extract_map(partition.n, partition.mask2)

    def draw(self, policy: SeedPolicy, experiment: str, index: int) -> JointDraw:
        rng = policy.stream(experiment, index)
        e = self._full.sample(rng)
        e1 = self._s1.sample(rng)
        e2 = self._s2.sample(rng)
        p = self.partition
        return JointDraw(p, DisorderDraw(p.n, e), DisorderDraw(p.n1, e1), DisorderDraw(p.n2, e2),
                         DisorderDraw(p.n, e1[self._map1]), DisorderDraw(p.n, e2[self._map2]))


def write_draws(fh: io.TextIOBase, rows: Iterable[np.ndarray]) -> None:
    """Plain-text dump: one line per energy vector, each energy as its float repr."""
    for energies in rows:
        fh.write(" ".join(repr(float(x)) for x in energies))
        fh.write("\n")
