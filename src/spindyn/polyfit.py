"""Polynomial recovery from noisy or partially corrupted samples.

Three regimes, in increasing order of adversity:

* bounded per-sample noise -> Lagrange interpolation with an explicit
  coefficient-wise error bound (`extract_coefficient`);
* a few samples arbitrarily wrong -> error-locator recovery
  (`berlekamp_welch_recover`), solved exactly over the rationals, since
  every float sample is a dyadic rational;
* every call wrong with probability < 1/2 -> per-node medians at
  Chebyshev points (`robust_median_fit`).

All error bounds carry an implicit multiplicative constant that the
source analysis leaves unspecified; it is set to 1 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import Polynomial, Rng, SampleSet


class RecoveryError(RuntimeError):
    """Raised when corrupted-sample recovery cannot certify its output."""


def roots_to_coefficients(roots: Sequence[float]) -> Polynomial:
    """Expand prod_k (t - r_k) into monomial coefficients."""
    return Polynomial(_root_products(np.asarray(roots, dtype=float)))


def _root_products(roots: np.ndarray) -> np.ndarray:
    """Monomial coefficients of prod_k (t - r_k) for every row of `roots`
    along its last axis: shape (..., m) to (..., m + 1).

    One divide-and-conquer product tree for all rows: each level merges
    neighbouring factors by a plain convolution, which is plenty below
    degree ~500, and carries an odd last factor up, padded with zero
    coefficients (which add exact zeros to every merge).
    """
    m = roots.shape[-1]
    level = np.stack([-roots, np.ones_like(roots)], axis=-1)
    while level.shape[-2] > 1:
        p, q = level[..., 0:-1:2, :], level[..., 1::2, :]
        w = level.shape[-1]
        merged = np.zeros(p.shape[:-1] + (2 * w - 1,))
        for j in range(w):
            merged[..., j : j + w] += p * q[..., j, None]
        if level.shape[-2] % 2:
            last = np.zeros(merged.shape[:-2] + (1, 2 * w - 1))
            last[..., :w] = level[..., -1:, :]
            merged = np.concatenate([merged, last], axis=-2)
        level = merged
    if m == 0:
        return np.ones(roots.shape[:-1] + (1,))
    return level[..., 0, : m + 1]


def lagrange_fit(samples: SampleSet) -> Polynomial:
    """Monomial coefficients of the unique interpolant through the samples:
    the L numerators, each the product over the other nodes, come from one
    product tree over the (L, L - 1) table of other nodes."""
    ts = samples.t
    L = ts.size
    others = np.broadcast_to(ts, (L, L))[~np.eye(L, dtype=bool)].reshape(L, L - 1)
    denoms = np.prod(ts[:, None] - others, axis=1)
    return Polynomial((samples.y / denoms) @ _root_products(others))


def extract_coefficient(
    samples: SampleSet,
    k: int,
    t0: float,
    delta_window: float,
    noise_delta: float,
) -> tuple[float, float]:
    """Estimate the t^k coefficient from equidistant noisy samples.

    The nodes must be the L = d+1 equidistant points spanning
    [t0(1-Delta), t0(1+Delta)].  Returns (estimate, bound) with
    bound = delta * t0^{-k} * (4/Delta)^d * C(d, k).
    """
    if not 0.0 < delta_window < 1.0:
        raise ValueError("delta_window must lie in (0, 1)")
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if k < 0:
        raise ValueError("coefficient index must be non-negative")
    ts = np.sort(samples.t)
    d = ts.size - 1
    lo, hi = t0 * (1 - delta_window), t0 * (1 + delta_window)
    expected = np.linspace(lo, hi, d + 1)
    scale = max(abs(lo), abs(hi))
    if np.max(np.abs(ts - expected)) > 1e-9 * scale:
        raise ValueError(
            "nodes are not the equidistant grid on [t0(1-Delta), t0(1+Delta)]"
        )
    estimate = lagrange_fit(samples).coefficient(k)
    bound = (
        noise_delta * t0 ** (-k) * (4.0 / delta_window) ** d * math.comb(d, k)
    )
    return estimate, bound


def _exact_solve(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Solve an integer system exactly; free variables are set to 0.

    Fraction-free Bareiss elimination (Math. Comp. 22, 1968): after the
    k-th pivot every remaining entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact and no gcd is ever taken.  A
    column with no nonzero entry at or below the current row is skipped.
    Back-substitution runs on the pivot columns only, scaled by the last
    pivot D (the determinant of the pivot block), so each D*x is an integer
    by Cramer's rule; one Fraction per unknown is formed at the end.

    Raises RecoveryError if the system is inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        p = top[c]
        for i in range(r + 1, m):
            row = aug[i]
            f = row[c]
            row[c + 1:] = [
                (p * v - f * w) // prev for v, w in zip(row[c + 1:], top[c + 1:])
            ]
            row[c] = 0
        pivots.append(c)
        prev = p
        r += 1
        if r == m:
            break
    # Rows r.. are zero left of the bar: each column was eliminated or skipped.
    if any(aug[i][ncols] != 0 for i in range(r, m)):
        raise RecoveryError("sample system is inconsistent")
    scaled = [0] * r
    for k in range(r - 1, -1, -1):
        row = aug[k]
        acc = prev * row[ncols]
        for j in range(k + 1, r):
            acc -= row[pivots[j]] * scaled[j]
        scaled[k] = acc // row[pivots[k]]
    x = [Fraction(0)] * ncols
    for c, num in zip(pivots, scaled):
        x[c] = Fraction(num, prev)
    return x


def _divide_exact(
    num: list[Fraction], den: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Polynomial long division (ascending coefficients), exact remainder."""
    num = num[:]
    dd = len(den) - 1
    while den[dd] == 0 and dd > 0:
        dd -= 1
    q = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        f = num[i] / den[dd]
        q[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] -= f * den[j]
    return q, num


def berlekamp_welch_recover(samples: SampleSet, d: int, e_max: int) -> Polynomial:
    """Recover a degree-d polynomial from samples with <= e_max corruptions.

    Solves Q(t_i) = y_i E(t_i) for a monic error locator E of degree
    e_max and Q of degree d + e_max, then returns Q / E.  Every float
    sample is an exact dyadic rational, so the solve runs over the
    integers and the division and checks over Fraction, with no tolerance.

    Raises RecoveryError when the corruption budget is exceeded: the
    system is inconsistent, the division leaves a remainder, or the
    result disagrees with more than e_max samples.
    """
    L = len(samples)
    if L < d + 1 + 2 * e_max:
        raise ValueError(
            f"need at least d+1+2*e_max = {d + 1 + 2 * e_max} samples, got {L}"
        )
    nq = d + e_max + 1
    tf = [float(t) for t in samples.t]
    yf = [float(y) for y in samples.y]
    sol = _exact_solve(*_bw_system(tf, yf, nq, e_max, e_max))
    ts = [Fraction(t) for t in tf]
    ys = [Fraction(y) for y in yf]
    qcoef = sol[:nq]
    ecoef = sol[nq:] + [Fraction(1)]
    quot, rem = _divide_exact(qcoef, ecoef)
    if any(c != 0 for c in rem):
        raise RecoveryError("error locator does not divide the numerator")
    quot = quot[: d + 1] if len(quot) > d + 1 else quot
    agree = 0
    for t, y in zip(ts, ys):
        acc = Fraction(0)
        for c in reversed(quot):
            acc = acc * t + c
        agree += acc == y
    if agree < L - e_max:
        raise RecoveryError(f"recovered polynomial matches only {agree} of {L} samples")
    return Polynomial(np.array([float(c) for c in quot]))


def _bw_system(
    ts: Sequence[float], ys: Sequence[float], nq: int, ne: int, e_max: int
) -> tuple[list[list[int]], list[int]]:
    """Berlekamp-Welch rows Q(t) - y E_low(t) = y t^e_max over the integers.

    With t = a / q and y = b / v from `as_integer_ratio()` (for a float,
    q and v are powers of two) and K = max(nq - 1, ne - 1, e_max), the
    row times v q^K reads a^k q^(K-k) v, -b a^j q^(K-j) and
    b a^e_max q^(K-e_max) in plain integers.  Each row is then divided by
    the gcd of its entries, which divides the v q^K of its first, so every
    row is the exact one times a positive scale (a power of two for float
    data), and the solve sees no Fraction.
    """
    top = max(nq - 1, ne - 1, e_max)
    rows = []
    rhs = []
    for t, y in zip(ts, ys):
        a, q = t.as_integer_ratio()
        b, v = y.as_integer_ratio()
        apow = [1]
        qpow = [1]
        for _ in range(top):
            apow.append(apow[-1] * a)
            qpow.append(qpow[-1] * q)
        row = [apow[k] * qpow[top - k] * v for k in range(nq)]
        row += [-b * apow[j] * qpow[top - j] for j in range(ne)]
        row.append(b * apow[e_max] * qpow[top - e_max])
        g = math.gcd(*row)
        rows.append([x // g for x in row[:-1]])
        rhs.append(row[-1] // g)
    return rows, rhs


def robust_median_fit(
    oracle: Callable[[np.ndarray, list[list[Rng]]], np.ndarray],
    d: int,
    interval: tuple[float, float],
    repetitions: int,
    rng: Rng | None = None,
) -> Polynomial:
    """Fit a degree-d polynomial through per-node medians of a flaky oracle.

    The oracle is called once, with the d + 1 Chebyshev nodes of [a, b]
    and, for node j, `repetitions` independent substreams
    (j * repetitions + i); it returns one value per node and substream,
    shape (d + 1, repetitions), and each node's value is the median of
    its row.  If each value lands within delta of the truth with
    probability > 1/2, the medians are delta-accurate with high
    probability and the interpolant's sup-norm error stays within a
    small multiple of delta (about 2.2*delta at d = 6).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    a, b = interval
    if not b > a:
        raise ValueError("interval must satisfy a < b")
    base = rng if rng is not None else Rng(0)
    u = np.cos((2 * np.arange(d + 1) + 1) * np.pi / (2 * d + 2))
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * u
    streams = [
        [base.substream(j * repetitions + i) for i in range(repetitions)]
        for j in range(d + 1)
    ]
    calls = np.asarray(oracle(nodes, streams), dtype=float)
    if calls.shape != (d + 1, repetitions):
        raise ValueError(
            f"oracle returned shape {calls.shape}, expected {(d + 1, repetitions)}"
        )
    medians = np.median(calls, axis=1)
    design = np.polynomial.chebyshev.chebvander(u, d)
    c, *_ = np.linalg.lstsq(design, medians, rcond=None)
    cheb = np.polynomial.Chebyshev(c, domain=[a, b])
    return Polynomial(cheb.convert(kind=np.polynomial.Polynomial).coef)


def sum_of_coefficients_bound_check(q: Polynomial) -> tuple[float, float]:
    """(sum |a_k|, 4^d * max |q| on [-1,1]); the first never exceeds the second.

    The comparison uses a 10^4-point grid for the sup norm; a relative
    1e-6 slack absorbs the grid resolution.
    """
    lhs = float(np.sum(np.abs(q.coefficients)))
    grid = np.linspace(-1.0, 1.0, 10_000)
    rhs = float(4.0 ** q.degree() * np.max(np.abs(q(grid))))
    if lhs > rhs * (1 + 1e-6):
        raise RecoveryError(
            f"coefficient-sum bound violated: {lhs:.6g} > {rhs:.6g}"
        )
    return lhs, rhs
