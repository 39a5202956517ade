"""Exact time evolution e^{-iHt}|y0> and output probabilities p(x; J; t).

Class II models (H3, H4) evolve inside the weight-n sector, class I in
the full basis.  Field-free H1 and H3 are `chiral`: H = [[0, B], [B^T, 0]]
between the even and odd sigma-parity classes E (which holds |y0>) and O,
so their propagation runs on half-vectors; every other spec runs on the
whole basis, the split whose two sides are both the basis.

Dimensions within `_DENSE_LIMIT` use one eigendecomposition,
`hamiltonian.spectral_parts` (omega, (U, V)), and reuse it for every
requested time, reading the amplitude in real arithmetic as
U cos(omega t) c on side 0 and -i V (sin(omega t) / omega) c on side 1,
with c = U^T e_y0.  For a chiral spec that is the eigh of B B^T on E
alone, with V = B^T U; for any other spec the eigh of H on the whole
basis, with V = U diag(omega).  Larger problems expand e^{-iHt} in
Chebyshev polynomials of H/a, where a is `Propagator.norm_bound`, the
smaller of two rigorous bounds on ||H||, `coupling_norm_bound` and
`SparseAction.norm_bound` (H1's closed form, or a Collatz-Wielandt bound
on |H|; for H3 and H4 at n = 6 and 8 it is 0.45-0.6 times the first and
cuts the series order by 27-45 %): one real three-term recurrence from
|y0> serves every requested time at once, keeping only the rows the
caller asks for, and the Bessel coefficients J_k(a t) carry the time
dependence (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  Its
k-th vector lies on E for even k and on O for odd k, so for a chiral
spec each step is one product with B^T or B.  The series order is
certified by a Bessel tail bound, and the norm of the state at the
largest |t| is checked, so a wrong spectral bound fails loudly instead
of returning a wrong table.
`Propagator._parts` is the one switch between the engines, and every
table, probability and state is read from its parts, never renormalized.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Basis, BitString, HamiltonianSpec, StateVector, hamming_class_states
from .hamiltonian import (
    SparseAction,
    chiral,
    coupling_norm_bound,
    natural_basis,
    spectral_parts,
)

__all__ = [
    "KrylovConvergenceError",
    "Propagator",
    "engine",
    "evolve_exact",
    "output_probability",
    "time_average",
]

# Dense eigh beats the Chebyshev recurrence up to about this dimension d.
# Per draw (fresh Propagator, the X_{n/2} rows at t = 4 ln n, one BLAS
# thread, median of 30 draws, best of 5 passes, range over 3 rounds):
# d = 70 (H3 n = 4, chiral 38 + 32) 0.11-0.12 ms dense against
# 0.46-0.47 ms Chebyshev; d = 256 (H1 n = 4, chiral 128 + 128)
# 0.93-0.97 ms against 0.44-0.46 ms.  No basis has 70 < d < 252.
_DENSE_LIMIT = 128
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
    """Raised when the propagation cannot certify its accuracy."""


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


def _bessel_table(z: np.ndarray, order: int) -> np.ndarray:
    """J_k(z) for 0 <= k < order (rows) at each z (columns).

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, started
    well above both the order and |z|, normalized by J_0 + 2 sum J_2k = 1
    and rescaled per column against overflow; J_k(-z) = (-1)^k J_k(z).
    """
    z = np.asarray(z, dtype=float)
    x = np.abs(z)
    out = np.zeros((order, x.size))
    out[0] = 1.0
    small = x < _BESSEL_TINY
    if order > 1:
        out[1, small] = x[small] / 2.0
    live = ~small
    if live.any():
        xl = x[live]
        base = max(order, math.ceil(xl.max()))
        top = base + 16 + math.isqrt(40 * base)
        inv = 2.0 / xl
        tab = np.zeros((order, xl.size))
        evens = np.zeros(xl.size)  # sum of j_k over even k >= 2
        nxt, cur = np.zeros(xl.size), np.ones(xl.size)  # j_{k+1}, j_k
        for k in range(top, 0, -1):
            if k < order:
                tab[k] = cur
            if k % 2 == 0:
                evens += cur
            nxt, cur = cur, (k * inv) * cur - nxt
            # one step grows a column by at most 2 top / _BESSEL_TINY, so
            # checking every fourth step keeps it far below overflow
            if k % 4 == 0 and np.abs(cur).max() > _BESSEL_RESCALE:
                big = np.abs(cur) > _BESSEL_RESCALE
                for arr in (cur, nxt, evens):
                    arr[big] /= _BESSEL_RESCALE
                tab[k:, big] /= _BESSEL_RESCALE
        tab[0] = cur
        out[:, live] = tab / (cur + 2.0 * evens)
    out[1::2, z < 0] *= -1.0
    return out


def _chebyshev_weights(z: np.ndarray, order: int) -> np.ndarray:
    """Real weights w_k(z) of the Chebyshev series of e^{-izx}.

    e^{-izx} = sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(x); w_k is that
    coefficient's real part for even k and its imaginary part for odd k.
    """
    w = _bessel_table(z, order)
    w *= 2.0 * np.resize(_PHASE_SIGN, order)[:, None]
    w[0] /= 2.0
    return w


def _gather(side: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `rows` sits in the sorted positions `side` (any valid
    slot for a row off the side), and which entries of `rows` are off it."""
    local = np.minimum(np.searchsorted(side, rows), side.size - 1)
    return local, np.flatnonzero(side[local] != rows)


class Propagator:
    """Reusable e^{-iHt}|y0> evaluator for one Hamiltonian.

    A `chiral` spec (field-free H1, H3) runs on the two sides E and O of
    `SparseAction.sides`; every other spec runs on the whole basis, which
    is the split whose two sides are both the basis and whose half-steps
    are both H.  The amplitude's real part lies on side 0 and its
    imaginary part on side 1; `_parts`, the one engine switch, returns
    both at the asked rows and times and the state at the largest |t|.
    """

    def __init__(self, spec: HamiltonianSpec, basis: Basis | None = None):
        self.spec = spec
        self.basis = basis if basis is not None else natural_basis(spec.kind, spec.n)
        self.action = SparseAction(spec, self.basis)
        (y0,) = hamming_class_states(spec.n, 0)  # X_0 holds y0 alone
        self._y0_pos = int(self.basis.pos[y0])
        if self._y0_pos < 0:
            raise ValueError("initial state lies outside the chosen basis")
        # y0's sigma half is empty, so it lies on side 0 (E)
        self._sides = self.action.sides
        self._y0_half = int(np.searchsorted(self._sides[0], self._y0_pos))
        self.dense = self.basis.dimension <= _DENSE_LIMIT
        if not self.dense:
            return
        self._omega, self._halves = spectral_parts(spec, self.basis)
        self._c0 = self._halves[0][self._y0_half]

    @cached_property
    def norm_bound(self) -> float:
        """||H|| on the basis: the dense engine's largest |omega| (exact),
        else the Chebyshev series scale, an upper bound on it."""
        if self.dense:
            return float(np.abs(self._omega).max())
        return min(coupling_norm_bound(self.spec), self.action.norm_bound)

    def all_probabilities_at(
        self, times: Sequence[float], rows: Sequence[int] | None = None
    ) -> np.ndarray:
        """p(x; t) for the basis positions `rows` (default: all), shape
        (len(rows), len(times)).  A row outside [0, dimension) is refused.
        A column's bits may depend on the other times: the dense engine's
        BLAS product rounds one column differently from several, and the
        Chebyshev series order and Bessel table follow the largest |t|.
        With one time, a Chebyshev row's bits may depend on the row count."""
        ts = np.asarray(times, dtype=float).ravel()
        if not ts.size or not np.all(np.isfinite(ts)):
            raise ValueError("times must be a non-empty finite grid")
        dim = self.basis.dimension
        keep = np.arange(dim) if rows is None else np.asarray(rows, dtype=np.intp)
        if keep.size and (keep.min() < 0 or keep.max() >= dim):
            raise ValueError(f"rows must lie in [0, {dim})")
        re, im, _ = self._parts(ts, keep)
        # in place: fewer (rows x times) temporaries for malloc to hand
        # back to the system and fault in again on the next draw
        re *= re
        im *= im
        re += im
        return re

    def _parts(self, ts: np.ndarray, rows: np.ndarray) -> _Parts:
        """The one engine switch: the real and imaginary parts at `rows` x
        `ts`, and the state at the largest |t| (its real part on side 0,
        its imaginary part on side 1).  The dense engine's product covers
        each whole side before `rows` are read, so a row's bits do not
        depend on the other rows, and its largest-|t| column is the state.
        """
        if not self.dense:
            return self._chebyshev(ts, rows)
        wt = np.outer(self._omega, ts)
        sinc = np.empty_like(wt)
        sinc[:] = ts  # the omega = 0 rows, which the division skips
        omega = self._omega[:, None]
        np.divide(np.sin(wt), omega, out=sinc, where=omega != 0.0)
        far_col = np.abs(ts).argmax()
        parts, far = [], []
        for side, vecs, f in zip(self._sides, self._halves, (np.cos(wt), -sinc)):
            local, off = _gather(side, rows)
            whole = vecs @ (f * self._c0[:, None])
            far.append(whole[:, far_col])
            part = whole[local]
            part[off] = 0.0
            parts.append(part)
        return parts[0], parts[1], far

    def _chebyshev(self, ts: np.ndarray, rows: np.ndarray) -> _Parts:
        """`_parts` from the Chebyshev recurrence.

        The vectors phi_k = T_k(H/a)|y0> stay real and phi_k lies on side
        k mod 2, stepped there by `SparseAction.apply_half`; only
        phi_k[rows] is kept, so memory is O(order * len(rows) + dimension).
        """
        a = self.norm_bound or 1.0  # a = 0 means H = 0
        t_far = float(ts[np.argmax(np.abs(ts))])
        order = _series_order(a * t_far)
        tail = _bessel_tail_bound(a * t_far, order)
        if tail > _TAIL_TOL:
            raise KrylovConvergenceError(
                f"Chebyshev tail bound {tail:.3e} at order {order} exceeds "
                f"{_TAIL_TOL} (a*|t| = {a * abs(t_far):.3e})"
            )
        # the first chunk of times carries t_far along as its last column
        first = _chebyshev_weights(a * np.append(ts[:_TIME_CHUNK], t_far), order)
        w_far = first[:, -1]
        picks = [_gather(side, rows) for side in self._sides]
        kept = np.empty((order, rows.size))
        far = [np.zeros(side.size) for side in self._sides]
        prev, phi = None, np.zeros(self._sides[0].size)
        phi[self._y0_half] = 1.0
        for k in range(order):
            if k == 1:
                prev, phi = phi, self.action.apply_half(0, phi) / a
            elif k > 1:
                step = self.action.apply_half(1 - k % 2, phi)
                step *= 2.0 / a
                step -= prev
                prev, phi = phi, step
            kept[k] = phi[picks[k % 2][0]]
            far[k % 2] += w_far[k] * phi
        drift = abs(math.hypot(*(float(np.linalg.norm(f)) for f in far)) - 1.0)
        if drift > _NORM_DRIFT_TOL:
            raise KrylovConvergenceError(
                f"norm drift {drift:.3e} exceeds {_NORM_DRIFT_TOL} "
                f"at t = {t_far} (series order {order})"
            )
        for s, (_, off) in enumerate(picks):
            kept[s::2, off] = 0.0  # phi_k is zero off its side
        re, im = np.empty((rows.size, ts.size)), np.empty((rows.size, ts.size))
        for s in range(0, ts.size, _TIME_CHUNK):
            if s == 0:
                w = first[:, :-1]
            else:
                w = _chebyshev_weights(a * ts[s : s + _TIME_CHUNK], order)
            re[:, s : s + _TIME_CHUNK] = kept[0::2].T @ w[0::2]
            im[:, s : s + _TIME_CHUNK] = kept[1::2].T @ w[1::2]
        return re, im, far

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


def engine(spec: HamiltonianSpec) -> str:
    """The engine `Propagator` runs for `spec` in its natural basis, as
    reports name it: "dense" or "chebyshev", then "chiral |E|+|O|" or the
    dimension."""
    basis = natural_basis(spec.kind, spec.n)
    name = "dense" if basis.dimension <= _DENSE_LIMIT else "chebyshev"
    if not chiral(spec):
        return f"{name} {basis.dimension}"
    e, o = SparseAction(spec, basis).sides
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
