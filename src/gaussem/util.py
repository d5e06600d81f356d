"""Vectorized bit tricks, rank-revealing factorization, deterministic map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np
from scipy.linalg import lapack


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element number of set bits."""
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def extract_map(n: int, mask: int) -> np.ndarray:
    """Packed extraction of the mask bits for every word in [0, 2**n).

    extract_map(n, m)[c] gathers the bits of c at the set positions of m,
    compacted toward bit 0 in ascending position order.  The map is linear
    over XOR, which the audit paths rely on.
    """
    c = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(c)
    k = 0
    pos = 0
    m = mask
    while m:
        if m & 1:
            out |= ((c >> pos) & 1) << k
            k += 1
        m >>= 1
        pos += 1
    return out


def pmap(fn: Callable, items: Iterable, threads: int = 1) -> list:
    """Order-preserving map; the result is identical for any thread count.

    The pool never has more workers than the machine has CPUs.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def psd_factor(matrix: np.ndarray, pivot_tol_scale: float = 1e-10):
    """Pivoted rank-revealing Cholesky of a (possibly degenerate) symmetric matrix.

    Returns (factor, rank, pivots, resid_diag_min) where factor @ factor.T
    approximates the input, columns beyond ``rank`` are zero, ``pivots`` are
    the successive pivot values and ``resid_diag_min`` is the most negative
    diagonal entry of the factorization residual (0 for an exactly PSD input).
    """
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    maxdiag = max(float(a.diagonal().max()), np.finfo(float).tiny)
    c, piv, rank, info = lapack.dpstrf(a, lower=1, tol=pivot_tol_scale * maxdiag)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpstrf failed with info={info}")
    lower = np.tril(c)
    pivots = lower.diagonal()[:rank].copy()
    lower[:, rank:] = 0.0
    factor = np.zeros_like(lower)
    factor[piv - 1, :] = lower
    resid = a - factor @ factor.T
    return factor, int(rank), pivots, float(resid.diagonal().min())


def lse(x: np.ndarray) -> float:
    """Max-shifted log-sum-exp of a vector."""
    m = float(np.max(x))
    return m + float(np.log(np.exp(x - m).sum()))


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return repr(float(x))
