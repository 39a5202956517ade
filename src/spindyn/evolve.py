"""Exact time evolution e^{-iHt}|y0> and output probabilities p(x; J; t).

Class II models (H3, H4) evolve inside the weight-n sector, class I in
the full basis.  Field-free H1 and H3 are `chiral`: H = [[0, B], [B^T, 0]]
between the even and odd sigma-parity classes E (which holds |y0>) and O,
so their propagation runs on half-vectors; every other spec runs on the
whole basis, the split whose two sides are both the basis.

One engine expands e^{-iHt} in Chebyshev polynomials of H/a (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967 (1984)): one real three-term recurrence
from |y0> serves every requested time at once, keeping only the rows the
caller asks for, and the Bessel coefficients J_k(a t) carry the time
dependence.  Its k-th vector lies on E for even k and on O for odd k, so
for a chiral spec each step is one product with B^T or B.  T_k(H/a)|y0>
is exactly 0 on X_m for k < m, so p(x; t) keeps its relative accuracy
where it is O(t^{2m}) small.  The scale a is the smaller of two rigorous
bounds on ||H||, `coupling_norm_bound` and `hamiltonian.norm_bounds`
(H1's closed form, or a Collatz-Wielandt bound on |H|; for H3 and H4 at
n = 6 and 8 it is 0.45-0.6 times the first and cuts the series order by
27-45 %).  The series order is certified by a Bessel tail bound, and the
norm of the state at the largest |t| is checked, so a wrong spectral
bound fails loudly instead of returning a wrong table.  Every table,
probability and state is read from the recurrence, never renormalized.

The recurrence takes a chunk of draws on one basis (`probability_tables`,
which the ensembles call), and a single `Propagator` is a chunk of one at
every dimension.  One Collatz-Wielandt sweep over the chunk's |H| gives
every draw's scale, each half-step is one product with the chunk's
`hamiltonian.stacked_half_steps` (within `_DENSE_LIMIT` batched numpy
products with a dense (draws, rows, columns) stack, which needs no
scipy; above it one block-diagonal CSR matrix), and one backward Bessel
loop serves every draw's columns, each draw's held at exactly 0 until
the loop reaches that draw's own start.  Every draw keeps its own scale,
series order, guards and final products, and every operation acts row
by row, column by column or matrix by matrix, so a draw's table has the
same bits in a chunk of any size, and a `Propagator`'s table has them
too.  So nothing here decomposes H but `Propagator.norm_bound`, which
within `_DENSE_LIMIT` reads ||H|| exactly off one `spectral_parts`.
`anticon --model H3 --n 4 --num-j 256` took a median 23.1-23.9 ms with
one eigh per draw in stacked chunks and 11.4-11.9 ms with one recurrence
per chunk of up to 140 draws, in process on a 2-core AMD EPYC with one
BLAS thread.  `draws_per_chunk` sizes the chunks from one byte budget,
which keeps d >= 4096 at one draw per chunk.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    Basis,
    BitString,
    HamiltonianSpec,
    Kind,
    StateVector,
    _check_bytes,
    hamming_class_states,
)
from .hamiltonian import (
    chiral,
    coupling_norm_bound,
    leading_blocks,
    natural_basis,
    norm_bounds,
    parity_sides,
    spectral_bytes,
    spectral_parts,
    stack_product,
    stacked_half_steps,
    step_sides,
)

__all__ = [
    "DecompositionError",
    "KrylovConvergenceError",
    "Propagator",
    "draws_per_chunk",
    "engine",
    "evolve_exact",
    "output_probability",
    "probability_tables",
    "time_average",
]

# The recurrence steps on dense stacks up to this dimension d, and on CSR
# above it; `Propagator.norm_bound` is exact up to it.  Per draw in chunks
# (X_{n/2} rows at t = 4 ln n, one BLAS thread, best of 5 passes), the
# recurrence takes 0.025-0.027 ms on dense stacks and 0.028 ms on CSR at
# d = 70 (H3 n = 4, chiral 38 + 32); at d = 256 (H1 n = 4, chiral
# 128 + 128) dense stacks take 0.12 ms and CSR 0.084 ms.  No basis has
# 70 < d < 252.
_DENSE_LIMIT = 128
# Coupling draws per ensemble chunk are sized so the chunk's stacked H and
# vectors stay within this many bytes (`draws_per_chunk`).  Within
# _DENSE_LIMIT a draw's stack is dense: 13 kB for the H3 n = 4 split
# 38 + 32 (140 draws per chunk), 43 kB for the H4 n = 4 sector (43).
# Chunks save per-step Python; `anticon --model H3 --n 4 --num-j 256`
# took 19.2 / 14.2 / 12.7 / 12.1 / 12.0 ms with budgets of 0.25 / 0.5 /
# 1 / 1.75 / 4 MiB, and 13.2 ms at 16 MiB.  Above _DENSE_LIMIT the stack
# is CSR: the n = 6 sector (d = 924) needs about 0.28 MB per draw, so 16
# draws run as chunks of 5, 5 and 6; at d >= 4096 (n = 6 in the full
# basis, the n = 8 sector) a draw needs about 2 MB and runs alone, where
# stacking saved nothing.  Each chunk also keeps its draws' X_{n/2} rows
# at every series order, so larger chunks cost memory: on a 2-core AMD
# EPYC, chunks of 8 took `equilibrate --model H4 --n 6 --num-j 16` from a
# median 30-33 ms to 22-24 ms, and chunks of 5-6 to 24-25 ms, but chunks
# of 8 raised the peak RSS of a two-thread benchmark pass by 9 MB (+14 %)
# against 4-6 MB.
_CHUNK_BYTES = 7 << 18
_NORM_DRIFT_TOL = 1e-9
_TAIL_TOL = 1e-16  # bound on sum_{k >= K} (2 - delta_k0) |J_k(a t)|
_MAX_ORDER = 1 << 16
_TIME_CHUNK = 256  # times per coefficient table
_BESSEL_RESCALE = 1e150
_BESSEL_TINY = 1e-20  # below this J_0 = 1, J_1 = z/2 and J_k>1 = 0 to 1e-40
# (-i)^k is real for even k and imaginary for odd k; this is its sign.
_PHASE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_Parts = tuple[np.ndarray, np.ndarray, list[np.ndarray]]  # see Propagator._parts


class KrylovConvergenceError(RuntimeError):
    """Raised when the propagation cannot certify its accuracy.

    `draw` is the position, in the chunk given to `probability_tables`, of
    the draw whose guard failed (0 for a single propagator), or None.
    """

    def __init__(self, message: str, draw: int | None = None):
        super().__init__(message)
        self.draw = draw


class DecompositionError(np.linalg.LinAlgError):
    """Raised when the eigendecomposition of `Propagator.norm_bound` fails."""


def _bessel_tail_bound(z: float, order: int) -> float:
    """Upper bound on sum_{k >= order} (2 - delta_k0) |J_k(z)|.

    Uses |J_k(z)| <= (|z|/2)^k / k!, summed as a geometric series.
    """
    z = abs(z)
    if z == 0.0:
        return 0.0 if order > 0 else 1.0
    q = z / (2.0 * (order + 1))
    if q >= 1.0:
        return math.inf
    log_half = order * math.log(z / 2.0) - math.lgamma(order + 1) - math.log1p(-q)
    return 2.0 * math.exp(log_half) if log_half < 700.0 else math.inf


def _series_order(z: float) -> int:
    """Smallest order from max(1, ceil|z|) whose tail bound is within
    _TAIL_TOL, or _MAX_ORDER if no smaller one is.

    From ceil|z| on, each order at least halves the bound, so the orders
    that pass form one run to the end: the first is bracketed by steps
    that double, then found by bisection.
    """

    def passes(order: int) -> bool:
        return order >= _MAX_ORDER or _bessel_tail_bound(z, order) <= _TAIL_TOL

    lo = max(1, math.ceil(abs(z)))
    if passes(lo):
        return lo
    step = 8
    while not passes(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step  # lo fails, hi passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def _bessel_tables(z: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """J_k(z[g, c]) for 0 <= k < max(orders), shape (max(orders), groups,
    columns), from one loop over every group g (a row of z) at once.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    well above both a group's order and its largest |z|, normalized by
    J_0 + 2 sum J_2k = 1 and rescaled per column against overflow;
    J_k(-z) = (-1)^k J_k(z).  A group's columns hold exactly 0 until k
    reaches the group's own start, where they are set to 1: a zero column
    stays 0 under the recurrence and adds 0 to the even sum, and every
    step and rescale acts per column, so the first orders[g] rows of group
    g have the bits of that group's table alone.  A column with |z| below
    `_BESSEL_TINY` runs in place with the rest but is never started and
    steps by 0, so it stays 0 until its closed form is written last.
    """
    groups, cols = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    x = np.abs(z)
    order = max(orders)
    out = np.zeros((order, x.size))
    small = x < _BESSEL_TINY
    live = ~small
    # each group's live columns, keyed by the start of their recurrence
    starts: dict[int, list[slice | np.ndarray]] = {}
    counts = live.reshape(groups, cols).sum(axis=1).tolist()
    for g, (o, count) in enumerate(zip(orders, counts)):
        span = slice(g * cols, (g + 1) * cols)
        if count < cols:
            span = np.flatnonzero(live[span]) + g * cols
        if count:
            base = max(o, math.ceil(x[span].max()))
            starts.setdefault(base + 16 + math.isqrt(40 * base), []).append(span)
    # a tiny column is never started and steps by 0, so it stays 0
    inv = np.zeros(x.size)
    np.divide(2.0, x, out=inv, where=live)
    evens = np.zeros(x.size)  # sum of j_k over even k >= 2
    nxt, cur = np.zeros(x.size), np.zeros(x.size)  # j_{k+1}, j_k
    tops = sorted(starts, reverse=True)
    for top, below in zip(tops, tops[1:] + [0]):
        for span in starts[top]:
            cur[span] = 1.0
        for k in range(top, below, -1):
            if k < order:
                out[k] = cur
            if k % 2 == 0:
                evens += cur
            nxt, cur = cur, (k * inv) * cur - nxt
            # one step grows a column by at most 2 top / _BESSEL_TINY,
            # so checking every fourth step keeps it far below overflow
            if k % 4 == 0 and np.abs(cur).max() > _BESSEL_RESCALE:
                big = np.abs(cur) > _BESSEL_RESCALE
                for arr in (cur, nxt, evens):
                    arr[big] /= _BESSEL_RESCALE
                out[k:, big] /= _BESSEL_RESCALE
    out[0] = cur
    norm = cur + 2.0 * evens
    norm[small] = 1.0
    out /= norm
    # the closed form, last: J_0 = 1, J_1 = z/2 and every higher order 0
    out[0, small] = 1.0
    if order > 1:
        out[1, small] = x[small] / 2.0
    out[1::2, z < 0] *= -1.0
    return out.reshape(order, groups, cols)


def _chebyshev_weights(z: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Real weights w_k(z) of the Chebyshev series of e^{-izx}, laid out
    as `_bessel_tables`.

    e^{-izx} = sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(x); w_k is that
    coefficient's real part for even k and its imaginary part for odd k.
    """
    w = _bessel_tables(z, orders)
    w *= 2.0 * np.resize(_PHASE_SIGN, w.shape[0])[:, None, None]
    w[0] /= 2.0
    return w


def _y0_half(basis: Basis, side0: np.ndarray) -> int:
    """Where y0 sits on side 0 (E), which holds it: its sigma half is empty."""
    (y0,) = hamming_class_states(basis.n, 0)  # X_0 holds y0 alone
    pos = int(basis.pos[y0])
    if pos < 0:
        raise ValueError("initial state lies outside the chosen basis")
    return int(np.searchsorted(side0, pos))


def _read_grid(
    basis: Basis, times: Sequence[float], rows: Sequence[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """The checked time grid and basis positions of a probability read."""
    ts = np.asarray(times, dtype=float).ravel()
    if not ts.size or not np.all(np.isfinite(ts)):
        raise ValueError("times must be a non-empty finite grid")
    dim = basis.dimension
    keep = np.arange(dim) if rows is None else np.asarray(rows, dtype=np.intp)
    if keep.size and (keep.min() < 0 or keep.max() >= dim):
        raise ValueError(f"rows must lie in [0, {dim})")
    return ts, keep


def _probabilities(parts: _Parts) -> np.ndarray:
    """|amplitude|^2 from the real and imaginary parts of `_parts`."""
    re, im, _ = parts
    # in place: fewer (rows x times) temporaries for malloc to hand
    # back to the system and fault in again on the next draw
    re *= re
    im *= im
    re += im
    return re


def _gather(side: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `rows` sits in the sorted positions `side` (any valid
    slot for a row off the side), and which entries of `rows` are off it."""
    local = np.minimum(np.searchsorted(side, rows), side.size - 1)
    return local, np.flatnonzero(side[local] != rows)


class Propagator:
    """Reusable e^{-iHt}|y0> evaluator for one Hamiltonian: the Chebyshev
    recurrence's chunk of one, so every table it reads has the bits of
    `probability_tables([spec], basis, ...)`.

    A `chiral` spec (field-free H1, H3) runs on the two sides E and O of
    `step_sides`; every other spec runs on the whole basis, which is the
    split whose two sides are both the basis and whose half-steps are
    both H.  The amplitude's real part lies on side 0 and its
    imaginary part on side 1.  `dense` says whether the recurrence steps
    on dense stacks (within `_DENSE_LIMIT`) or on CSR.
    """

    def __init__(self, spec: HamiltonianSpec, basis: Basis | None = None):
        self.spec = spec
        self.basis = basis if basis is not None else natural_basis(spec.kind, spec.n)
        self._sides = step_sides(spec, self.basis)
        self.dense = self.basis.dimension <= _DENSE_LIMIT
        # refused here, before a read builds a dense stack or norm_bound
        # decomposes H
        if self.dense:
            _check_bytes(
                spectral_bytes(self.basis, chiral(spec)),
                f"dense dimension {self.basis.dimension}",
            )

    @cached_property
    def _scale(self) -> float:
        """The Chebyshev scale a, as `probability_tables` takes it."""
        return _chebyshev_scales([self.spec], self.basis)[0]

    @cached_property
    def norm_bound(self) -> float:
        """||H|| on the basis: within `_DENSE_LIMIT` exactly, the largest
        |omega| of one `spectral_parts`; above it the Chebyshev scale, an
        upper bound on it."""
        if not self.dense:
            return self._scale
        try:
            omega = spectral_parts(self.spec, self.basis)[0]
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
        return float(np.abs(omega).max())

    def all_probabilities_at(
        self, times: Sequence[float], rows: Sequence[int] | None = None
    ) -> np.ndarray:
        """p(x; t) for the basis positions `rows` (default: all), shape
        (len(rows), len(times)).  A row outside [0, dimension) is refused.
        A column's bits may depend on the other times, since the series
        order and the Bessel table follow the largest |t|, and with one
        time a row's bits may depend on the row count."""
        ts, keep = _read_grid(self.basis, times, rows)
        return _probabilities(self._parts(ts, keep))

    def _parts(self, ts: np.ndarray, rows: np.ndarray) -> _Parts:
        """The real and imaginary parts at `rows` x `ts`, and the state at
        the largest |t| (its real part on side 0, its imaginary part on
        side 1), from the recurrence's chunk of one."""
        return _chebyshev_parts([self.spec], self.basis, [self._scale], ts, rows)[0]

    def state_at(self, t: float) -> StateVector:
        """e^{-iHt}|y0>; the recurrence refuses it, not renormalized, if
        its norm drifts."""
        re, im = self._parts(np.array([float(t)]), np.empty(0, np.intp))[2]
        amps = np.zeros(self.basis.dimension, dtype=complex)
        amps.real[self._sides[0]] = re
        amps.imag[self._sides[1]] = im
        return StateVector(amps, self.basis)

    def probability(self, x: BitString, t: float) -> float:
        """p(x; t) as `all_probabilities_at` reads it; 0 outside the basis."""
        pos = self.basis.index_of(x)
        if pos is None:
            return 0.0
        return float(self.all_probabilities_at([t], rows=[pos])[0, 0])


def _chebyshev_scales(specs: Sequence[HamiltonianSpec], basis: Basis) -> list[float]:
    """Each draw's Chebyshev scale a: the smaller of `coupling_norm_bound`
    and its `norm_bounds`, one Collatz-Wielandt sweep for the chunk, on
    dense stacks within `_DENSE_LIMIT`."""
    bounds = norm_bounds(specs, basis, basis.dimension <= _DENSE_LIMIT)
    return [min(coupling_norm_bound(s), float(b)) for s, b in zip(specs, bounds)]


def _chebyshev_parts(
    specs: Sequence[HamiltonianSpec],
    basis: Basis,
    scales: Sequence[float],
    ts: np.ndarray,
    rows: np.ndarray,
) -> list[_Parts]:
    """`Propagator._parts` of every draw of a chunk on one basis from one
    Chebyshev recurrence, draw j at scale `scales[j]`.

    The vectors phi_k = T_k(H/a)|y0> stay real and phi_k lies on side
    k mod 2.  Each (draws x side) array holds one draw per row, and each
    half-step is one `stack_product` with the chunk's
    `stacked_half_steps`: numpy stacks within `_DENSE_LIMIT`, else
    block-diagonal CSR.  Each draw keeps its own scale a, series order and
    guards; draws run in order of decreasing series order, and the last
    draws leave the stack (`leading_blocks`) once their order is reached.
    Only phi_k[rows] is kept, in one (order x draws x rows) array, so
    memory is O(draws * (order * len(rows) + dimension)).  The products,
    the Bessel loop and the updates act row by row, and each draw's sums
    are its own products, so each draw's table has the bits of a chunk of
    one.  A failed guard sets the error's `draw` to the first failing
    draw's position in `specs`.
    """
    t_far = float(ts[np.argmax(np.abs(ts))])
    scales = [a or 1.0 for a in scales]  # a = 0 means H = 0
    orders = [_series_order(a * t_far) for a in scales]
    for j, (a, order) in enumerate(zip(scales, orders)):
        tail = _bessel_tail_bound(a * t_far, order)
        if tail > _TAIL_TOL:
            raise KrylovConvergenceError(
                f"Chebyshev tail bound {tail:.3e} at order {order} exceeds "
                f"{_TAIL_TOL} (a*|t| = {a * abs(t_far):.3e})",
                j,
            )
    rank = sorted(range(len(specs)), key=lambda j: -orders[j])
    m, order = len(rank), orders[rank[0]]
    ranked, ranked_scales = [orders[j] for j in rank], [scales[j] for j in rank]
    # live[k]: the draws that still need phi_k, which are the first of `rank`
    live = (np.array(ranked)[:, None] > np.arange(order)).sum(axis=0).tolist()
    a = np.array(ranked_scales)[:, None]
    # the first chunk of times carries t_far along as its last column
    first = _chebyshev_weights(a * np.append(ts[:_TIME_CHUNK], t_far), ranked)
    w_far = first[:, :, -1:]
    two_a = 2.0 / a
    dense = basis.dimension <= _DENSE_LIMIT
    stack = stacked_half_steps([specs[j] for j in rank], basis, dense)
    sides = step_sides(specs[0], basis)
    picks = [_gather(side, rows) for side in sides]
    kept = np.empty((order, m, rows.size))
    far = [np.zeros((m, side.size)) for side in sides]
    phi = np.zeros((m, sides[0].size))
    phi[:, _y0_half(basis, sides[0])] = 1.0
    prev = phi  # replaced at k = 1, before it is read
    steps, far_live, n = stack, far, m
    for k in range(order):
        if live[k] < n:  # the last draws have reached their order: drop them
            n = live[k]
            steps = tuple(leading_blocks(s, n, m) for s in stack)
            phi, prev, a, two_a, w_far = phi[:n], prev[:n], a[:n], two_a[:n], w_far[:, :n]
            far_live = [f[:n] for f in far]
        if k == 1:
            prev, phi = phi, stack_product(steps[0], phi) / a
        elif k > 1:
            step = stack_product(steps[1 - k % 2], phi)
            step *= two_a
            step -= prev
            prev, phi = phi, step
        np.take(phi, picks[k % 2][0], axis=1, out=kept[k, :n], mode="clip")
        far_live[k % 2] += w_far[k] * phi
    del stack, steps  # the sums need only the kept rows
    drift = np.abs(np.hypot(*(np.linalg.norm(f, axis=1) for f in far)) - 1.0)
    failed = [j for i, j in enumerate(rank) if not drift[i] <= _NORM_DRIFT_TOL]
    if failed:
        j = min(failed)
        raise KrylovConvergenceError(
            f"norm drift {drift[rank.index(j)]:.3e} exceeds {_NORM_DRIFT_TOL} "
            f"at t = {t_far} (series order {orders[j]})",
            j,
        )
    for s, (_, off) in enumerate(picks):
        kept[s::2, :, off] = 0.0  # phi_k is zero off its side
    re, im = _series_sums(kept, ranked, first, ranked_scales, ts)
    return [(re[i], im[i], [f[i] for f in far]) for i in np.argsort(rank)]


def _series_sums(
    kept: np.ndarray,
    orders: Sequence[int],
    first: np.ndarray,
    scales: Sequence[float],
    ts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every draw's real and imaginary parts at its kept rows and `ts`,
    shape (draws, rows, times): the weighted sums of its even and of its
    odd Chebyshev vectors, draw i's from its own first orders[i] rows of
    `kept` and of the chunk's weight tables (`first` for the first
    `_TIME_CHUNK` times).  Each further chunk of times gets one more
    table, in which each draw's series order is certified for that
    chunk's own largest |t|, so a long grid's early times do not pay for
    its last.  Each draw's sums are products of its own, so they have
    the bits of its chunk of one.
    """
    tables = [(first[:, :, :-1], orders)]
    a = np.array(scales)[:, None]
    for s in range(_TIME_CHUNK, ts.size, _TIME_CHUNK):
        z = a * ts[s : s + _TIME_CHUNK]
        own = [min(o, _series_order(v)) for o, v in zip(orders, np.abs(z).max(axis=1))]
        tables.append((_chebyshev_weights(z, own), own))
    re, im = (np.empty((kept.shape[1], kept.shape[2], ts.size)) for _ in range(2))
    for i in range(len(orders)):
        for s, (w, own) in zip(range(0, ts.size, _TIME_CHUNK), tables):
            k, w = kept[: own[i], i], w[: own[i], i]
            re[i, :, s : s + _TIME_CHUNK] = k[0::2].T @ w[0::2]
            im[i, :, s : s + _TIME_CHUNK] = k[1::2].T @ w[1::2]
    return re, im


def probability_tables(
    specs: Sequence[HamiltonianSpec],
    basis: Basis,
    times: Sequence[float],
    rows: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """p(x; t) at `rows` x `times` for every draw of a chunk that shares
    one layout and one chiral split, as `Propagator.all_probabilities_at`
    lays it out, from one Chebyshev recurrence (`_chebyshev_parts`) after
    one Collatz-Wielandt sweep for the scales.

    Each draw's table has the same bits in a chunk of any size, which
    are its own `Propagator`'s.  A failed guard names the failing draw's
    position in `specs` as its `draw`.
    """
    ts, keep = _read_grid(basis, times, rows)
    parts = _chebyshev_parts(specs, basis, _chebyshev_scales(specs, basis), ts, keep)
    return [_probabilities(p) for p in parts]


def draws_per_chunk(kind: Kind | str, basis: Basis) -> int:
    """How many coupling draws of `kind` on `basis` one `probability_tables`
    call takes in an ensemble: as many as keep the chunk's stacked H and
    its six vectors per side within `_CHUNK_BYTES`.  Within `_DENSE_LIMIT`
    the stack is dense, |E| x |O| float64 per draw for the chiral split
    (ensemble draws carry no z fields, so H1 and H3 take it) and d x d
    otherwise; above it, block-diagonal CSR (8-byte values and 4-byte
    indices)."""
    d = basis.dimension
    if d <= _DENSE_LIMIT:
        split = Kind(kind) in (Kind.H1, Kind.H3)
        e, o = (side.size for side in parity_sides(basis)) if split else (d, d)
        per_draw = 8 * e * o + 48 * d
    else:
        # the hopping kinds store only the flips whose two bits differ
        hops = Kind(kind) in (Kind.H3, Kind.H4)
        entries = d + (int(np.count_nonzero(basis.differ)) if hops else basis.differ.size)
        per_draw = 12 * entries + 48 * d
    return max(1, _CHUNK_BYTES // per_draw)


def engine(spec: HamiltonianSpec) -> str:
    """The engine an ensemble of `spec`'s kind runs in its natural basis
    (`probability_tables`), as reports name it: "chebyshev", then
    "chiral |E|+|O|" or the dimension, then the form of its products."""
    basis = natural_basis(spec.kind, spec.n)
    form = "dense" if basis.dimension <= _DENSE_LIMIT else "sparse"
    if not chiral(spec):
        return f"chebyshev {basis.dimension}, {form} products"
    e, o = step_sides(spec, basis)
    return f"chebyshev chiral {e.size}+{o.size}, {form} products"


def evolve_exact(spec: HamiltonianSpec, t: float) -> StateVector:
    """e^{-iHt}|y0>, its unit norm checked (see `Propagator.state_at`)."""
    return Propagator(spec).state_at(t)


def output_probability(spec: HamiltonianSpec, x: BitString, t: float) -> float:
    """p(x; J; t) = |<x| e^{-iHt} |y0>|^2."""
    return Propagator(spec).probability(x, t)


def time_average(
    spec: HamiltonianSpec, x: BitString, T: float, grid: int = 4000
) -> float:
    """Trapezoid mean of p(x; t) over a uniform grid on [0, T]."""
    if grid < 100:
        raise ValueError("grid must have at least 100 points")
    if T == 0.0:
        return output_probability(spec, x, 0.0)
    prop = Propagator(spec)
    pos = prop.basis.index_of(x)
    if pos is None:
        return 0.0
    ts = np.linspace(0.0, T, grid)
    p = prop.all_probabilities_at(ts, rows=[pos])[0]
    return float(np.trapezoid(p, ts) / T)
