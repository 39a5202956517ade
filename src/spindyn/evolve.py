"""Exact time evolution e^{-iHt}|y0> and output probabilities p(x; J; t).

Class II models (H3, H4) evolve inside the weight-n sector, class I in
the full basis.  Field-free H1 and H3 are `chiral`: H = [[0, B], [B^T, 0]]
between the even and odd sigma-parity classes E (which holds |y0>) and O,
so their propagation runs on half-vectors; every other spec runs on the
whole basis, the split whose two sides are both the basis.

Dimensions within `_DENSE_LIMIT` use one eigendecomposition per draw,
`hamiltonian.spectral_parts` (omega, (U, V)), and reuse it for every
requested time, reading the amplitude in real arithmetic as
U cos(omega t) c on side 0 and -i V (sin(omega t) / omega) c on side 1,
with c = U^T e_y0.  For a chiral spec that is the eigh of B B^T on E
alone, with V = B^T U; for any other spec the eigh of H on the whole
basis, with V = U diag(omega).  A chunk of draws on one basis
(`probability_tables`, the ensemble path) is built, decomposed and read
together: one scatter builds its B or H stack, one stacked eigh
decomposes it, and one batched product per side reads every draw's
amplitudes (`_dense_parts`).  numpy runs LAPACK and BLAS on each matrix
of a stack as on that matrix alone and the rest acts element by element,
so a draw's table has the same bits in a chunk of any size; a single
`Propagator` is a chunk of one.  This saves per-call overhead, not
arithmetic: the eigh of each 38 x 38 block (H3 n = 4) stays ~60 us.

Larger problems expand e^{-iHt} in Chebyshev polynomials of H/a
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): one real
three-term recurrence from |y0> serves every requested time at once,
keeping only the rows the caller asks for, and the Bessel coefficients
J_k(a t) carry the time dependence.  Its k-th vector lies on E for even
k and on O for odd k, so for a chiral spec each step is one product with
B^T or B.  The scale a is the smaller of two rigorous bounds on ||H||,
`coupling_norm_bound` and `hamiltonian.norm_bounds` (H1's closed form,
or a Collatz-Wielandt bound on |H|; for H3 and H4 at n = 6 and 8 it is
0.45-0.6 times the first and cuts the series order by 27-45 %).  The
series order is certified by a Bessel tail bound, and the norm of the
state at the largest |t| is checked, so a wrong spectral bound fails
loudly instead of returning a wrong table.
`Propagator._parts` is the one switch between the engines, and every
table, probability and state is read from its parts, never renormalized.

This engine too takes a chunk of draws on one basis, and a single
`Propagator` is a chunk of one.  One Collatz-Wielandt sweep over the
chunk's block-diagonal |H| gives every draw's scale, each half-step is
one product with the chunk's block-diagonal
`hamiltonian.stacked_half_steps`, and one backward Bessel loop serves
every draw's columns, each draw's held at exactly 0 until the loop
reaches that draw's own start.  Every draw keeps its own scale, series
order, guards and final products, and every operation acts row by row
or column by column, so a draw's table has the same bits in a chunk of
any size.  At small dimensions this trades per-call overhead for longer
products: `equilibrate --model H4 --n 6 --num-j 16` (33 times to
8 ln n) took a median 31-33 ms draw by draw and 24-25 ms in chunks of
5-6, in process on a 2-core AMD EPYC with one BLAS thread.
`draws_per_chunk` sizes the chunks of both engines from one byte
budget, which keeps d >= 4096 at one draw per chunk.
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
    spectral_bytes,
    spectral_parts,
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

# Dense eigh beats the Chebyshev recurrence up to about this dimension d.
# Per draw (fresh Propagator, the X_{n/2} rows at t = 4 ln n, one BLAS
# thread, median of 30 draws, best of 5 passes, range over 3 rounds):
# d = 70 (H3 n = 4, chiral 38 + 32) 0.11-0.12 ms dense against
# 0.46-0.47 ms Chebyshev; d = 256 (H1 n = 4, chiral 128 + 128)
# 0.93-0.97 ms against 0.44-0.46 ms.  No basis has 70 < d < 252.
_DENSE_LIMIT = 128
# Coupling draws per ensemble chunk are sized so the chunk's stacked H and
# vectors stay within this many bytes (`draws_per_chunk`).  On the dense
# engine a draw counts its `spectral_bytes`: 54 kB for the H3 n = 4 split
# 38 + 32 (33 draws per chunk), 118 kB for the H4 n = 4 sector (15).
# Stacked chunks save per-call Python, so once a chunk holds a few dozen
# draws larger ones save little.  On the Chebyshev engine the n = 6
# sector (d = 924) needs about 0.28 MB per draw, so 16 draws run as chunks
# of 5, 5 and 6; at d >= 4096 (n = 6 in the full basis, the n = 8 sector)
# a draw needs about 2 MB and runs alone, where stacking saved nothing.
# Each chunk also keeps its draws' X_{n/2} rows at every series order, so
# larger chunks cost memory: on a 2-core AMD EPYC, chunks of 8 took
# `equilibrate --model H4 --n 6 --num-j 16` from a median 30-33 ms to
# 22-24 ms, and chunks of 5-6 to 24-25 ms, but chunks of 8 raised the
# peak RSS of a two-thread benchmark pass by 9 MB (+14 %) against 4-6 MB.
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
_Spectrum = tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]  # see spectral_parts


class KrylovConvergenceError(RuntimeError):
    """Raised when the propagation cannot certify its accuracy.

    `draw` is the position, in the chunk given to `probability_tables`, of
    the draw whose guard failed (0 for a single propagator), or None.
    """

    def __init__(self, message: str, draw: int | None = None):
        super().__init__(message)
        self.draw = draw


class DecompositionError(np.linalg.LinAlgError):
    """Raised when the dense engine's eigendecomposition fails; `draw` is
    the failing draw's position in its chunk, as for
    `KrylovConvergenceError`."""

    def __init__(self, message: str, draw: int | None = None):
        super().__init__(message)
        self.draw = draw


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
    """Smallest order whose tail bound is within _TAIL_TOL, up to _MAX_ORDER."""
    order = max(1, math.ceil(abs(z)))
    while order < _MAX_ORDER and _bessel_tail_bound(z, order) > _TAIL_TOL:
        order += 1
    return order


def _bessel_tables(zs: Sequence[np.ndarray], orders: Sequence[int]) -> list[np.ndarray]:
    """J_k(z) for 0 <= k < orders[g] (rows) at each z of zs[g] (columns),
    for every group g from one loop.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    well above both a group's order and its largest |z|, normalized by
    J_0 + 2 sum J_2k = 1 and rescaled per column against overflow;
    J_k(-z) = (-1)^k J_k(z).  A group's columns hold exactly 0 until k
    reaches the group's own start, where they are set to 1: a zero column
    stays 0 under the recurrence and adds 0 to the even sum, and every
    step and rescale acts per column, so each table has the bits it has
    alone.
    """
    z = np.concatenate([np.asarray(g, dtype=float).ravel() for g in zs])
    bounds = np.cumsum([0, *(np.size(g) for g in zs)])
    x = np.abs(z)
    order = max(orders)
    out = np.zeros((order, x.size))
    out[0] = 1.0
    small = x < _BESSEL_TINY
    if order > 1:
        out[1, small] = x[small] / 2.0
    live = ~small
    if live.any():
        xl = x[live]
        # each group's live columns are one slice of xl; key them by start
        at = np.cumsum(np.concatenate([[0], live]))[bounds]
        starts: dict[int, list[slice]] = {}
        for lo, hi, o in zip(at[:-1], at[1:], orders):
            if hi > lo:
                base = max(o, math.ceil(xl[lo:hi].max()))
                starts.setdefault(base + 16 + math.isqrt(40 * base), []).append(slice(lo, hi))
        inv = 2.0 / xl
        tab = np.zeros((order, xl.size))
        evens = np.zeros(xl.size)  # sum of j_k over even k >= 2
        nxt, cur = np.zeros(xl.size), np.zeros(xl.size)  # j_{k+1}, j_k
        tops = sorted(starts, reverse=True)
        for top, below in zip(tops, tops[1:] + [0]):
            for cols in starts[top]:
                cur[cols] = 1.0
            for k in range(top, below, -1):
                if k < order:
                    tab[k] = cur
                if k % 2 == 0:
                    evens += cur
                nxt, cur = cur, (k * inv) * cur - nxt
                # one step grows a column by at most 2 top / _BESSEL_TINY,
                # so checking every fourth step keeps it far below overflow
                if k % 4 == 0 and np.abs(cur).max() > _BESSEL_RESCALE:
                    big = np.abs(cur) > _BESSEL_RESCALE
                    for arr in (cur, nxt, evens):
                        arr[big] /= _BESSEL_RESCALE
                    tab[k:, big] /= _BESSEL_RESCALE
        tab[0] = cur
        out[:, live] = tab / (cur + 2.0 * evens)
    out[1::2, z < 0] *= -1.0
    return [
        np.ascontiguousarray(out[:o, lo:hi])
        for lo, hi, o in zip(bounds[:-1], bounds[1:], orders)
    ]


def _chebyshev_weights(zs: Sequence[np.ndarray], orders: Sequence[int]) -> list[np.ndarray]:
    """Real weights w_k(z) of the Chebyshev series of e^{-izx}, one table
    per group of `_bessel_tables`.

    e^{-izx} = sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(x); w_k is that
    coefficient's real part for even k and its imaginary part for odd k.
    """
    tables = _bessel_tables(zs, orders)
    for w in tables:
        w *= 2.0 * np.resize(_PHASE_SIGN, w.shape[0])[:, None]
        w[0] /= 2.0
    return tables


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
    """Reusable e^{-iHt}|y0> evaluator for one Hamiltonian.

    A `chiral` spec (field-free H1, H3) runs on the two sides E and O of
    `step_sides`; every other spec runs on the whole basis, which is the
    split whose two sides are both the basis and whose half-steps are
    both H.  The amplitude's real part lies on side 0 and its
    imaginary part on side 1; `_parts`, the one engine switch, returns
    both at the asked rows and times and the state at the largest |t|.
    """

    def __init__(self, spec: HamiltonianSpec, basis: Basis | None = None):
        self.spec = spec
        self.basis = basis if basis is not None else natural_basis(spec.kind, spec.n)
        self._sides = step_sides(spec, self.basis)
        self._y0_half = _y0_half(self.basis, self._sides[0])
        self.dense = self.basis.dimension <= _DENSE_LIMIT
        if self.dense:  # refused here, before the first read decomposes H
            _check_bytes(
                spectral_bytes(self.basis, chiral(spec)),
                f"dense dimension {self.basis.dimension}",
            )

    @cached_property
    def _spectrum(self) -> _Spectrum:
        """The dense engine's `spectral_parts` of this draw, a chunk of one."""
        return _spectra([self.spec], self.basis)

    @cached_property
    def norm_bound(self) -> float:
        """||H|| on the basis: the dense engine's largest |omega| (exact),
        else the Chebyshev series scale, an upper bound on it."""
        if self.dense:
            return float(np.abs(self._spectrum[0]).max())
        return _chebyshev_scales([self.spec], self.basis)[0]

    def all_probabilities_at(
        self, times: Sequence[float], rows: Sequence[int] | None = None
    ) -> np.ndarray:
        """p(x; t) for the basis positions `rows` (default: all), shape
        (len(rows), len(times)).  A row outside [0, dimension) is refused.
        A column's bits may depend on the other times: the dense engine's
        BLAS product rounds one column differently from several, and the
        Chebyshev series order and Bessel table follow the largest |t|.
        With one time, a Chebyshev row's bits may depend on the row count."""
        ts, keep = _read_grid(self.basis, times, rows)
        return _probabilities(self._parts(ts, keep))

    def _parts(self, ts: np.ndarray, rows: np.ndarray) -> _Parts:
        """The one engine switch: the real and imaginary parts at `rows` x
        `ts`, and the state at the largest |t| (its real part on side 0,
        its imaginary part on side 1), each engine's chunk of one."""
        if not self.dense:
            return _chebyshev_parts([self.spec], self.basis, [self.norm_bound], ts, rows)[0]
        re, im, far = _dense_parts(self._spectrum, self._sides, self._y0_half, ts, rows)
        return re[0], im[0], [f[0] for f in far]

    def state_at(self, t: float) -> StateVector:
        """e^{-iHt}|y0>; refused, not renormalized, if its norm drifts."""
        re, im = self._parts(np.array([float(t)]), np.empty(0, np.intp))[2]
        amps = np.zeros(self.basis.dimension, dtype=complex)
        amps.real[self._sides[0]] = re
        amps.imag[self._sides[1]] = im
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_DRIFT_TOL:
            raise KrylovConvergenceError(
                f"norm drift {abs(nrm - 1.0):.3e} exceeds {_NORM_DRIFT_TOL}"
            )
        return StateVector(amps, self.basis)

    def probability(self, x: BitString, t: float) -> float:
        """p(x; t) as `all_probabilities_at` reads it; 0 outside the basis."""
        pos = self.basis.index_of(x)
        if pos is None:
            return 0.0
        return float(self.all_probabilities_at([t], rows=[pos])[0, 0])


def _spectra(specs: Sequence[HamiltonianSpec], basis: Basis) -> _Spectrum:
    """`spectral_parts` of a chunk of draws.  If the stacked eigh fails,
    the draws are decomposed again one at a time, so that the error names
    the failing draw's position in `specs` (`DecompositionError.draw`)."""
    try:
        return spectral_parts(specs, basis)
    except np.linalg.LinAlgError:
        for j, spec in enumerate(specs):
            try:
                spectral_parts([spec], basis)
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(f"eigendecomposition failed: {exc}", j) from exc
        raise


def _dense_parts(
    spectrum: _Spectrum,
    sides: tuple[np.ndarray, np.ndarray],
    y0_half: int,
    ts: np.ndarray,
    rows: np.ndarray,
) -> _Parts:
    """`Propagator._parts` of every draw of a dense chunk, each array with
    a leading draw axis, from the chunk's stacked `_spectra`.

    Side 0 reads P cos(omega t) c and side 1 -V (sin(omega t) / omega) c,
    with c = P^T e_y0, one batched product per side.  The product covers
    each whole side before `rows` are read, so a row's bits do not depend
    on the other rows, and its largest-|t| column is the state.  Every
    step acts element by element or matrix by matrix, so each draw's
    parts have the bits of a chunk of one.
    """
    omega, halves = spectrum
    c0 = halves[0][:, y0_half, :, None]
    omega = omega[:, :, None]
    wt = omega * ts
    cos = np.cos(wt)
    sinc = np.empty_like(wt)
    sinc[:] = ts  # the omega = 0 rows, which the division skips
    np.divide(np.sin(wt, out=wt), omega, out=sinc, where=omega != 0.0)
    # in place; (-s) c and s (-c) round alike
    cos *= c0
    sinc *= -c0
    far_col = np.abs(ts).argmax()
    parts, far = [], []
    for side, vecs, f in zip(sides, halves, (cos, sinc)):
        local, off = _gather(side, rows)
        whole = vecs @ f
        far.append(whole[:, :, far_col])
        part = whole[:, local]
        part[:, off] = 0.0
        parts.append(part)
    return parts[0], parts[1], far


def _chebyshev_scales(specs: Sequence[HamiltonianSpec], basis: Basis) -> list[float]:
    """Each draw's Chebyshev scale a: the smaller of `coupling_norm_bound`
    and its `norm_bounds`, one Collatz-Wielandt sweep for the chunk."""
    bounds = norm_bounds(specs, basis)
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
    half-step is one product with the chunk's `stacked_half_steps`.
    Each draw keeps its own scale a, series order and guards; draws run
    in order of decreasing series order, and the last draws leave the
    stack (`leading_blocks`) once their order is reached.  Only
    phi_k[rows] is kept, so memory is O(draws * (order * len(rows) +
    dimension)).  The products, the Bessel loop and the updates act row
    by row, so each draw's table has the bits of a chunk of one.  A
    failed guard sets the error's `draw` to the draw's position in
    `specs`.
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
    ranked = [orders[j] for j in rank]
    # live[k]: the draws that still need phi_k, which are the first of `rank`
    live = (np.array(ranked)[:, None] > np.arange(order)).sum(axis=0).tolist()
    # the first chunk of times carries t_far along as its last column
    head = np.append(ts[:_TIME_CHUNK], t_far)
    firsts = _chebyshev_weights([scales[j] * head for j in rank], ranked)
    w_far = np.zeros((order, m, 1))
    for i, first in enumerate(firsts):
        w_far[: first.shape[0], i, 0] = first[:, -1]
    a = np.array([scales[j] for j in rank])[:, None]
    shape = (m, -1)
    two_a = 2.0 / a
    stack = stacked_half_steps([specs[j] for j in rank], basis)
    sides = step_sides(specs[0], basis)
    picks = [_gather(side, rows) for side in sides]
    # where each kept row of each draw sits in a flattened (draws x side) array
    flat = [(np.arange(m)[:, None] * side.size + local).ravel()
            for side, (local, _) in zip(sides, picks)]
    # each draw's kept rows in an array of its own, the shape one draw had
    kept = [np.empty((orders[j], rows.size)) for j in rank]
    far = [np.zeros(m * side.size).reshape(shape) for side in sides]
    prev, phi = None, np.zeros(m * sides[0].size).reshape(shape)
    phi.reshape(m, -1)[:, _y0_half(basis, sides[0])] = 1.0
    steps, far_live, n = stack, far, m
    for k in range(order):
        if live[k] < n:  # the last draws have reached their order: drop them
            n = live[k]
            shape = (n, -1)
            steps = tuple(leading_blocks(s, n, m) for s in stack)
            phi, prev, a, two_a, w_far = phi[:n], prev[:n], a[:n], two_a[:n], w_far[:, :n]
            far_live = [f[:n] for f in far]
            flat = [f[: n * rows.size] for f in flat]
        if k == 1:
            prev, phi = phi, (steps[0] @ phi.ravel()).reshape(shape) / a
        elif k > 1:
            step = (steps[1 - k % 2] @ phi.ravel()).reshape(shape)
            step *= two_a
            step -= prev
            prev, phi = phi, step
        got = phi.ravel()[flat[k % 2]].reshape(n, -1)
        for i in range(n):
            kept[i][k] = got[i]
        far_live[k % 2] += w_far[k] * phi
    out = {}
    for i, j in enumerate(rank):
        state = [f.reshape(m, -1)[i] for f in far]
        drift = abs(math.hypot(*(float(np.linalg.norm(f)) for f in state)) - 1.0)
        if not drift <= _NORM_DRIFT_TOL:
            raise KrylovConvergenceError(
                f"norm drift {drift:.3e} exceeds {_NORM_DRIFT_TOL} "
                f"at t = {t_far} (series order {orders[j]})",
                j,
            )
        out[j] = (*_series_sums(kept[i], picks, firsts[i], scales[j], ts), state)
    return [out[j] for j in range(m)]


def _series_sums(
    kept: np.ndarray,
    picks: list[tuple[np.ndarray, np.ndarray]],
    first: np.ndarray,
    a: float,
    ts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One draw's real and imaginary parts at its kept rows and `ts`: the
    weighted sums of its even and of its odd Chebyshev vectors."""
    for s, (_, off) in enumerate(picks):
        kept[s::2, off] = 0.0  # phi_k is zero off its side
    order = kept.shape[0]
    re, im = np.empty((kept.shape[1], ts.size)), np.empty((kept.shape[1], ts.size))
    for s in range(0, ts.size, _TIME_CHUNK):
        if s == 0:
            w = first[:, :-1]
        else:
            (w,) = _chebyshev_weights([a * ts[s : s + _TIME_CHUNK]], [order])
        re[:, s : s + _TIME_CHUNK] = kept[0::2].T @ w[0::2]
        im[:, s : s + _TIME_CHUNK] = kept[1::2].T @ w[1::2]
    return re, im


def probability_tables(
    specs: Sequence[HamiltonianSpec],
    basis: Basis,
    times: Sequence[float],
    rows: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """`Propagator(spec, basis).all_probabilities_at(times, rows)` of every
    draw of a chunk that shares one layout and one chiral split, each
    table the same bits as its own call.

    A dense chunk takes one stacked eigendecomposition (`_spectra`) and
    one stacked read (`_dense_parts`); a Chebyshev chunk takes one
    Collatz-Wielandt sweep for its scales and one recurrence
    (`_chebyshev_parts`).  A failed guard names the failing draw's
    position in `specs` as its `draw`.
    """
    ts, keep = _read_grid(basis, times, rows)
    if basis.dimension > _DENSE_LIMIT:
        parts = _chebyshev_parts(specs, basis, _chebyshev_scales(specs, basis), ts, keep)
        return [_probabilities(p) for p in parts]
    sides = step_sides(specs[0], basis)
    parts = _dense_parts(_spectra(specs, basis), sides, _y0_half(basis, sides[0]), ts, keep)
    return list(_probabilities(parts))


def draws_per_chunk(kind: Kind | str, basis: Basis) -> int:
    """How many coupling draws of `kind` on `basis` one `probability_tables`
    call takes in an ensemble: as many as keep the chunk's working set
    within `_CHUNK_BYTES`.  On the dense engine that is each draw's
    `spectral_bytes` (ensemble draws carry no z fields, so H1 and H3 take
    the chiral split); on the Chebyshev engine the chunk's stacked H
    (8-byte values and 4-byte indices) and its six vectors per side."""
    d = basis.dimension
    if d <= _DENSE_LIMIT:
        per_draw = spectral_bytes(basis, Kind(kind) in (Kind.H1, Kind.H3))
    else:
        # the hopping kinds store only the flips whose two bits differ
        hops = Kind(kind) in (Kind.H3, Kind.H4)
        entries = d + (int(np.count_nonzero(basis.differ)) if hops else basis.differ.size)
        per_draw = 12 * entries + 48 * d
    return max(1, _CHUNK_BYTES // per_draw)


def engine(spec: HamiltonianSpec) -> str:
    """The engine `Propagator` runs for `spec` in its natural basis, as
    reports name it: "dense" or "chebyshev", then "chiral |E|+|O|" or the
    dimension."""
    basis = natural_basis(spec.kind, spec.n)
    name = "dense" if basis.dimension <= _DENSE_LIMIT else "chebyshev"
    if not chiral(spec):
        return f"{name} {basis.dimension}"
    e, o = step_sides(spec, basis)
    return f"{name} chiral {e.size}+{o.size}"


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
