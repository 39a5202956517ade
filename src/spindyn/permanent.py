"""Matrix permanents, the blocks J_ST with <x|H^m|y0> = m!/n^m Per(J_ST)
for x in X_m, and the Gaussian-permanent statistics the reductions use."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import BitString, CouplingMatrix, Rng, hamming_class
from .core import hamming_class_bits, hamming_class_states

__all__ = [
    "permanent_ryser",
    "permanents",
    "permanent_bruteforce",
    "submatrix_for_outcome",
    "class_submatrices",
    "gaussian_permanent_variance_check",
]

_GLYNN_MAX = 30
_BRUTE_MAX = 9
# Columns whose sign patterns are tabulated at once; the rest are walked in
# Python.  2^11 subsets keep a table of one matrix near 2^11 * m * 8 bytes.
_LOW_COLUMNS = 11
# Matrices per chunk are sized so one chunk's table is about this many bytes,
# which keeps the doubling's two table buffers inside a 2 MiB L2: on
# a 2-core Xeon a (16000, 8, 8) stack took 0.08-0.11 s with 512 KiB chunks
# and 0.28-0.36 s with 1 MiB chunks.
_CHUNK_BYTES = 1 << 19


def permanent_ryser(matrix: np.ndarray) -> float:
    """Permanent of a square real matrix (Glynn's formula; see `permanents`).

    The name is kept from the Ryser kernel this replaced.  A matrix gives
    the same bits here as inside any stack passed to `permanents`.
    """
    return float(_glynn(matrix, 2))


def permanents(stack: np.ndarray) -> np.ndarray:
    """Permanents of a stack of square real matrices, shape (B, m, m) -> (B,).

    Glynn's formula, Per(A) = 2^(1-m) sum over sign vectors d with d_0 = +1
    of prod(d) * prod_i sum_j d_j a_ij, in O(2^m * m) elementwise work.
    """
    return _glynn(stack, 3)


def _glynn(matrix: np.ndarray, ndim: int) -> np.ndarray:
    """The permanent kernel: every guard runs before the kernel allocates.

    Row sums over the first `_LOW_COLUMNS` signed columns are tabulated by
    doubling, t -> concat(t + a_j, t - a_j), so bit k of a subset index is
    the sign of column k + 1 and the signs of the products are Thue-Morse;
    folding p -> p[:h] - p[h:] then applies them.  Column 0, whose sign is
    fixed at +1, and the higher columns enter as one offset per sign pattern
    of the higher columns, walked by the same split-and-subtract.  Only
    elementwise operations act along the batch axis, so the result does
    not depend on the BLAS thread count or on the other matrices of the
    stack.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            "permanent shape guard: need a square matrix" if ndim == 2
            else "permanent shape guard: need a stack of square matrices"
        )
    m = a.shape[-1]
    if m > _GLYNN_MAX:
        raise ValueError(f"permanent cost guard: size {m} exceeds {_GLYNN_MAX}")
    if not np.isfinite(a).all():
        raise ValueError("permanent finite guard: entries must be finite")
    if m == 0:
        return np.ones(a.shape[:-2])
    flat = a.reshape(-1, m, m)
    low = min(m - 1, _LOW_COLUMNS)
    step = max(1, min(len(flat), _CHUNK_BYTES // ((8 * m) << low)))
    out = np.empty(len(flat))
    # The doubling alternates between the two halves of one buffer
    # allocated per call, each step written contiguously into the other.
    # Fresh temporaries per step would make the time depend on the
    # allocator's state: glibc returns their freed pages and faults them in
    # again unless an earlier large free has raised its thresholds (a
    # (1000, 8, 8) stack: 5.6-6.3 ms against 2.1-2.2 ms, 2-core box).
    bufs = np.empty((2, (m << low) * step))
    for s0 in range(0, len(flat), step):
        # cols[j] holds column j of every matrix as (row, 1, batch).
        cols = flat[s0 : s0 + step].transpose(2, 1, 0)[:, :, None, :].copy()
        b = cols.shape[-1]
        table = bufs[0][: m * b].reshape(m, 1, b)
        table[:] = 0.0
        for j in range(1, low + 1):
            h = 1 << (j - 1)
            doubled = bufs[j % 2][: 2 * h * m * b].reshape(m, 2 * h, b)
            np.add(table, cols[j], out=doubled[:, :h])
            np.subtract(table, cols[j], out=doubled[:, h:])
            table = doubled
        out[s0 : s0 + b] = _glynn_high(table, cols[low + 1 :], cols[0])
    return np.ldexp(out, 1 - m).reshape(a.shape[:-2])


def _glynn_high(table: np.ndarray, high: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Signed sum over the sign patterns of the `high` columns."""
    if len(high) == 0:
        sums = table + offset
        p = sums[0]
        for row in sums[1:]:
            p *= row
        while len(p) > 1:
            h = len(p) // 2
            p = p[:h] - p[h:]
        return p[0]
    return (_glynn_high(table, high[1:], offset + high[0])
            - _glynn_high(table, high[1:], offset - high[0]))


def permanent_bruteforce(matrix: np.ndarray) -> float:
    """Permanent by direct summation over all m! permutations (test oracle)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    m = a.shape[0]
    if m > _BRUTE_MAX:
        raise ValueError(f"size {m} exceeds the m! cost guard ({_BRUTE_MAX})")
    if m == 0:
        return 1.0
    rows = range(m)
    return math.fsum(
        math.prod(a[i, p[i]] for i in rows) for p in itertools.permutations(rows)
    )


@functools.lru_cache(maxsize=64)
def _class_sites(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The J_ST rule over X_m: rows are the sigma sites excited to 1, columns
    the tau sites flipped to 0, both ascending, shaped to index J as a stack."""
    bits = hamming_class_bits(n, m)
    rows = np.nonzero(bits[:, :n])[1].reshape(len(bits), m, 1)
    cols = np.nonzero(1 - bits[:, n:])[1].reshape(len(bits), 1, m)
    rows.flags.writeable = cols.flags.writeable = False  # shared by every caller
    return rows, cols


def class_submatrices(J: CouplingMatrix, m: int) -> np.ndarray:
    """J_ST of every member of X_m, in `hamming_class_states` order:
    shape (C(n, m)^2, m, m)."""
    rows, cols = _class_sites(J.n, m)
    return J.entries[rows, cols]


def submatrix_for_outcome(J: CouplingMatrix, x: BitString) -> np.ndarray:
    """The m x m block J_ST selected by an outcome x in class m: the row of
    x in `class_submatrices`."""
    if x.n != J.n:
        raise ValueError("bitstring size does not match coupling matrix")
    m = hamming_class(x)
    if m is None or m < 1:
        raise ValueError(f"outcome {x} is not in any class m >= 1")
    rows, cols = _class_sites(J.n, m)
    (k,) = np.flatnonzero(hamming_class_states(J.n, m) == x.index())
    return J.entries[rows[k], cols[k]]


def gaussian_permanent_variance_check(m: int, trials: int, rng: Rng) -> float:
    """Sample mean of Per(J)^2 / m! over Gaussian draws; tends to 1."""
    if m > 8:
        raise ValueError("m above 8 makes the Monte Carlo too costly")
    if trials < 10**3:
        raise ValueError("need at least 10^3 trials for a meaningful mean")
    draws = rng.generator().standard_normal((trials, m, m))
    pers = permanents(draws)
    return float(np.mean(pers**2) / math.factorial(m))
