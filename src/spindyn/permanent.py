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
# Free columns whose sign patterns are tabulated together, as the sum of a
# low and a high table; the columns past them are walked in Python.  With
# 14, one matrix's scratch stays under 1 MiB up to m = 20.
_INNER_COLUMNS = 14
# One call's scratch (the chunk's columns, both tables, the product and the
# row sums) is sized to about this many bytes, unless one matrix needs
# more, as the single-table kernel's was.  With 2 MiB the benchmark's
# cheap phases ran 3-7 % slower on one thread, bw-demo among them, which
# never calls the kernel; with 1 MiB they read 0-3 % (2-core Xeon).
_SCRATCH_BYTES = 1 << 20
# Terms trials * 2^(m-1) * m one `gaussian_permanent_variance_check` may
# sum: about 0.2 s on a 2-core Xeon, and 10^3 trials up to m = 13.  As
# m^2 <= 2^(m-1) * m, its draws then take at most 512 MiB.
_VARIANCE_CHECK_TERMS = 1 << 26


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

    The free columns 1..m-1 split into an inner block of at most
    `_INNER_COLUMNS` and the outer rest, and the inner block splits again
    into low and high columns (`_layout`).  A low table holds each
    row's sums over the signed low columns, and a high table, seeded with
    column 0 plus the outer columns' signs, those over the high ones.  Both
    are built by doubling, t -> (t + a_j, t - a_j), so bit k of a table
    index is the sign of its k-th column.  Row i's sums over every inner
    sign pattern are then one add, high_i[:, None] + low_i[None, :],
    multiplied into the running product row by row.  The pattern index is
    hi * 2^lo + lo, so folding p -> p[:h] - p[h:] applies the Thue-Morse
    signs of the products, and the outer columns are walked by the same
    split-and-subtract.  Up to m = 5 the high table is column 0 alone, so
    every sum and product is the one a single table over the free columns
    forms.  Only elementwise operations act along the batch axis, so the
    result does not depend on the BLAS thread count or on the other
    matrices of the stack.
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
    inner, lo, hi, step = _layout(m, len(flat))
    out = np.empty(len(flat))
    # Every buffer is allocated once per call and each chunk takes a
    # contiguous prefix.  Fresh temporaries per chunk would make the time
    # depend on the allocator's state: glibc returns their freed pages and
    # faults them in again unless an earlier large free has raised its
    # thresholds (a (1000, 8, 8) stack: 5.6-6.3 ms against 2.1-2.2 ms,
    # 2-core box).
    col_buf = np.empty(m * m * step)
    low_buf = np.empty((m << lo) * step)
    high_buf = np.empty((m << hi) * step)
    prod_buf = np.empty((1 << inner) * step)
    sum_buf = np.empty((1 << inner) * step)
    for s0 in range(0, len(flat), step):
        chunk = flat[s0 : s0 + step]
        b = len(chunk)
        # cols[j] holds column j of every matrix as (row, 1, batch).
        cols = col_buf[: m * m * b].reshape(m, m, 1, b)
        np.copyto(cols, chunk.transpose(2, 1, 0)[:, :, None, :])
        low = low_buf[: (m << lo) * b].reshape(m, 1 << lo, b)
        low[:, :1] = 0.0
        _double(low, cols[1 : lo + 1])
        high = high_buf[: (m << hi) * b].reshape(m, 1 << hi, b)
        prod = prod_buf[: (1 << inner) * b].reshape(1 << hi, 1 << lo, b)
        sums = sum_buf[: (1 << inner) * b].reshape(1 << hi, 1 << lo, b)

        def inner_sum(offset: np.ndarray) -> np.ndarray:
            high[:, :1] = offset
            _double(high, cols[lo + 1 : inner + 1])
            np.add(high[0][:, None], low[0][None], out=prod)
            for i in range(1, m):
                np.add(high[i][:, None], low[i][None], out=sums)
                np.multiply(prod, sums, out=prod)
            p = prod.reshape(1 << inner, b)
            while len(p) > 1:
                h = len(p) // 2
                np.subtract(p[:h], p[h:], out=p[:h])
                p = p[:h]
            return p[0].copy()  # prod is reused by the next pattern

        out[s0 : s0 + b] = _walk(inner_sum, cols[0], cols[inner + 1 :])
    return np.ldexp(out, 1 - m).reshape(a.shape[:-2])


def _layout(m: int, count: int) -> tuple[int, int, int, int]:
    """Inner, low and high column counts and matrices per chunk for `count`
    m x m matrices.  The low table takes at least 4 columns, so up to m = 5
    it holds every free column.  From 12 inner columns on it takes 12: a
    single matrix's row add then runs over 2^12 contiguous low entries,
    where numpy's broadcast loop is about 4x faster per entry than over
    2^11 or fewer.  Below that the high table takes up to 4, which keeps
    the two tables small next to the product."""
    inner = min(m - 1, _INNER_COLUMNS)
    hi = min(max(inner - 4, 0), 4) if inner < 12 else inner - 12
    lo = inner - hi
    per_matrix = m * m + (m << lo) + (m << hi) + (2 << inner)
    return inner, lo, hi, max(1, min(count, _SCRATCH_BYTES // (8 * per_matrix)))


def _double(table: np.ndarray, cols: np.ndarray) -> None:
    """Doubles `table` (row, pattern, batch) in place once per column,
    t -> (t + a_j, t - a_j), from the seed in its first pattern."""
    for k, col in enumerate(cols):
        h = 1 << k
        np.subtract(table[:, :h], col, out=table[:, h : 2 * h])
        np.add(table[:, :h], col, out=table[:, :h])


def _walk(inner_sum, offset: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Signed sum of `inner_sum` over the sign patterns of the `outer`
    columns, each added to the column-0 `offset`."""
    if len(outer) == 0:
        return inner_sum(offset)
    return (_walk(inner_sum, offset + outer[0], outer[1:])
            - _walk(inner_sum, offset - outer[0], outer[1:]))


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
    """Sample mean of Per(J)^2 / m! over Gaussian draws; tends to 1.

    The cost guard bounds the kernel's trials * 2^(m-1) * m terms by
    `_VARIANCE_CHECK_TERMS` before anything is drawn.
    """
    terms = trials * m * 2 ** (m - 1)
    if terms > _VARIANCE_CHECK_TERMS:
        raise ValueError(
            f"variance check cost guard: {trials} trials at m = {m} are "
            f"{terms:.3g} terms, above {_VARIANCE_CHECK_TERMS}"
        )
    if trials < 10**3:
        raise ValueError("need at least 10^3 trials for a meaningful mean")
    draws = rng.generator().standard_normal((trials, m, m))
    pers = permanents(draws)
    return float(np.mean(pers**2) / math.factorial(m))
