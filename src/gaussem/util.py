"""Vectorized bit tricks, rank-revealing factorization, deterministic map."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from .spins import extract_bits

#: pivots below this fraction of the largest diagonal entry end the factor
PIVOT_RTOL = 1e-10


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element number of set bits."""
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def extract_map(n: int, mask: int) -> np.ndarray:
    """extract_bits of every word in [0, 2**n), as an int64 array.

    The map is linear over XOR, which the audit paths rely on.
    """
    return extract_bits(np.arange(1 << n, dtype=np.int64), mask)


def pmap(fn: Callable, items: Iterable, threads: int = 1) -> list:
    """Order-preserving map; the result is identical for any thread count.

    The pool never has more workers than the machine has CPUs.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def psd_factor(matrix: np.ndarray):
    """Pivoted rank-revealing Cholesky of a (possibly degenerate) symmetric matrix.

    Returns (factor, rank, pivots, resid_diag_min) where factor @ factor.T
    approximates the input, columns beyond ``rank`` are zero, ``pivots`` are
    the successive pivot values and ``resid_diag_min`` is the most negative
    diagonal entry of the factorization residual (0 for an exactly PSD input).
    """
    # imported here: scipy.linalg costs about 0.3 s, and only factorization needs it
    from scipy.linalg import lapack

    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    maxdiag = max(float(a.diagonal().max()), np.finfo(float).tiny)
    c, piv, rank, info = lapack.dpstrf(a, lower=1, tol=PIVOT_RTOL * maxdiag)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpstrf failed with info={info}")
    lower = np.tril(c)
    pivots = lower.diagonal()[:rank].copy()
    lower[:, rank:] = 0.0
    factor = np.zeros_like(lower)
    factor[piv - 1, :] = lower
    resid = a - factor @ factor.T
    return factor, int(rank), pivots, float(resid.diagonal().min())


def log_mean_exp(x: np.ndarray) -> float:
    """Max-shifted ln mean exp(x); exactly the constant when x is constant."""
    m = float(x.max())
    return m + math.log(float(np.exp(x - m).mean()))


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))
