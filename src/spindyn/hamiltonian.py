"""Sparse application of the four bipartite models, moments, and norms.

Every model couples sigma site i (index bit i) to tau site j (index bit
n+j, both 0-based here).  The exchange pieces are either a plain
double-flip (sigma_x tau_x) or a hopping term (sigma_x tau_x +
sigma_y tau_y, nonzero only when the two bits differ, amplitude 2); the
sigma_z tau_z pieces and any local z fields collapse into one diagonal.

`moment_table(spec, kmax)` holds the real rows H^k|y0> for k <= kmax in
the full basis, from k sparse applications; `moment()` reads one entry of
it, and sweeps over many outcomes x read one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .core import Basis, BitString, HamiltonianSpec, Kind, Rng, StateVector

__all__ = [
    "DenseMemoryError",
    "SparseAction",
    "dense_matrix",
    "moment",
    "moment_table",
    "operator_norm",
    "coupling_norm_bound",
    "norm_tail_probability",
    "NORM_BOUND_PREFACTOR",
]

# Per-kind prefactor of Sum|J_ij|/n in the operator-norm upper bound,
# exposed exactly as printed (no tightening attempted).
NORM_BOUND_PREFACTOR = {Kind.H1: 1.0, Kind.H2: 2.0, Kind.H3: 1.0, Kind.H4: 1.5}

_DENSE_FULL_MAX_SPINS = 16  # guard: full-basis dense needs 2n <= 16
_DENSE_SECTOR_MAX_DIM = 20000
# Cap on the ~3 d^2 float64 working set of a dense matrix plus its eigh
# (matrix, eigenvectors, workspace): d = 4096 needs 0.4 GB, the n = 8
# sector (d = 12870) would need 4 GB per caller.
_DENSE_MAX_BYTES = 1 << 30


class DenseMemoryError(RuntimeError):
    """Raised before a dense matrix whose working set exceeds the cap."""


@lru_cache(maxsize=16)
def _full_bits(n: int) -> np.ndarray:
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(2 * n)) & 1).astype(np.int8)
    bits.flags.writeable = False
    return bits


def _bits_of(states: np.ndarray, n: int) -> np.ndarray:
    return ((states[:, None] >> np.arange(2 * n)) & 1).astype(np.int8)


def _exchange_terms(spec: HamiltonianSpec) -> list[tuple[int, int, float, bool]]:
    """(i, j, coefficient, is_hopping) for each coupled pair."""
    n = spec.n
    J = spec.couplings.entries
    if spec.kind in (Kind.H1, Kind.H2):
        return [(i, j, J[i, j] / n, False) for i in range(n) for j in range(n)]
    return [(i, j, J[i, j] / (2 * n), True) for i in range(n) for j in range(n)]


def _diag_values(spec: HamiltonianSpec, bits: np.ndarray) -> np.ndarray:
    """The diagonal part (z-z couplings plus local z fields) per basis state."""
    n = spec.n
    za = (1 - 2 * bits.astype(np.float64))  # sigma_z eigenvalue per bit
    diag = np.zeros(bits.shape[0])
    if spec.kind in (Kind.H2, Kind.H4):
        scale = 1.0 / n if spec.kind is Kind.H2 else 1.0 / (2 * n)
        C = spec.couplings.entries * scale
        diag += ((za[:, :n] @ C) * za[:, n:]).sum(axis=1)
    if spec.z_fields is not None:
        h1, h2 = spec.z_fields
        diag += za[:, :n] @ h1 + za[:, n:] @ h2
    return diag


@dataclass(frozen=True)
class SparseAction:
    """H as a linear map on state vectors, without the dense matrix."""

    spec: HamiltonianSpec
    basis: Basis

    def __post_init__(self) -> None:
        if self.basis.n != self.spec.n:
            raise ValueError("basis size does not match the Hamiltonian")
        if self.basis.kind == "sector" and self.spec.kind in (Kind.H1, Kind.H2):
            raise ValueError(
                f"{self.spec.kind.value} leaves the weight-n sector; "
                "use the full basis"
            )

    @cached_property
    def _full_data(self):
        n = self.spec.n
        bits = _full_bits(n)
        diag = _diag_values(self.spec, bits)
        terms = []
        for i, j, c, hop in _exchange_terms(self.spec):
            mask = (1 << i) | (1 << (n + j))
            if hop:
                weight = 2.0 * c * (bits[:, i] ^ bits[:, n + j])
                terms.append((mask, None, weight))
            else:
                terms.append((mask, c, None))
        return diag, terms

    @cached_property
    def _sector_matrix(self) -> sp.csr_matrix:
        n = self.spec.n
        states = self.basis.states()
        bits = _bits_of(states, n)
        sorter = np.argsort(states, kind="stable")
        svals = states[sorter]
        rows_all, cols_all, data_all = [], [], []
        for i, j, c, hop in _exchange_terms(self.spec):
            mask = (1 << i) | (1 << (n + j))
            src = np.where(bits[:, i] != bits[:, n + j])[0]
            targets = states[src] ^ mask
            tpos = sorter[np.searchsorted(svals, targets)]
            rows_all.append(tpos)
            cols_all.append(src)
            data_all.append(np.full(src.size, 2.0 * c))
        dim = states.size
        mat = sp.coo_matrix(
            (np.concatenate(data_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
            shape=(dim, dim),
        ).tocsr()
        diag = _diag_values(self.spec, bits)
        if np.any(diag):
            mat = mat + sp.diags(diag)
        return mat.tocsr()

    def apply_array(self, arr: np.ndarray) -> np.ndarray:
        """H @ arr for a raw vector (or stack of column vectors)."""
        if self.basis.kind == "sector":
            return self._sector_matrix @ arr
        diag, terms = self._full_data
        idx = np.arange(arr.shape[0])
        out = (diag[:, None] * arr) if arr.ndim == 2 else diag * arr
        for mask, c, weight in terms:
            moved = arr[idx ^ mask]
            if weight is None:
                out += c * moved
            elif arr.ndim == 2:
                out += weight[:, None] * moved
            else:
                out += weight * moved
        return out

    def apply(self, v: StateVector) -> StateVector:
        if v.basis != self.basis:
            raise ValueError("state vector basis does not match the action")
        return StateVector(self.apply_array(v.amplitudes), self.basis)


def dense_matrix(spec: HamiltonianSpec, basis: Basis) -> np.ndarray:
    """The full real-symmetric matrix of H in the given basis (test oracle)."""
    if basis.kind == "full":
        if 2 * spec.n > _DENSE_FULL_MAX_SPINS:
            raise ValueError(
                f"full-basis dense matrix limited to 2n <= {_DENSE_FULL_MAX_SPINS}"
            )
    elif basis.dimension > _DENSE_SECTOR_MAX_DIM:
        raise ValueError(
            f"sector dense matrix limited to dimension {_DENSE_SECTOR_MAX_DIM}"
        )
    working_set = 3 * 8 * basis.dimension**2
    if working_set > _DENSE_MAX_BYTES:
        raise DenseMemoryError(
            f"dense dimension {basis.dimension} needs ~{working_set / 2**30:.1f} GiB "
            f"(3 d^2 float64), above the {_DENSE_MAX_BYTES / 2**30:.1f} GiB cap"
        )
    action = SparseAction(spec, basis)
    if basis.kind == "sector":
        return action._sector_matrix.toarray()
    dim = basis.dimension
    idx = np.arange(dim)
    diag, terms = action._full_data
    out = np.zeros((dim, dim))
    out[idx, idx] = diag
    for mask, c, weight in terms:
        if weight is None:
            out[idx ^ mask, idx] += c
        else:
            out[idx ^ mask, idx] += weight
    return out


def moment_table(spec: HamiltonianSpec, kmax: int) -> np.ndarray:
    """Real rows H^k |y0> for k = 0..kmax in the full basis, shape (kmax+1, 4^n)."""
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    action = SparseAction(spec, Basis.full(spec.n))
    table = np.zeros((kmax + 1, 1 << (2 * spec.n)))
    table[0, BitString.y0(spec.n).index()] = 1.0
    for k in range(kmax):
        table[k + 1] = action.apply_array(table[k])
    return table


def moment(
    spec: HamiltonianSpec, x: BitString, k: int, max_power: int | None = None
) -> float:
    """<x| H^k |y0>, read from a moment table of order k."""
    cap = max_power if max_power is not None else 2 * spec.n + 4
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > cap:
        raise ValueError(f"moment order {k} exceeds the configured cap {cap}")
    return float(moment_table(spec, k)[k, x.index()])


def operator_norm(
    spec: HamiltonianSpec, tol: float = 1e-8, max_iter: int = 100_000
) -> float:
    """Spectral norm of H on the full space.

    Dense eigendecomposition when the dimension is at most 4096,
    otherwise power iteration from a fixed seeded start vector.
    """
    dim = 1 << (2 * spec.n)
    if dim <= 4096:
        h = dense_matrix(spec, Basis.full(spec.n))
        return float(np.max(np.abs(np.linalg.eigvalsh(h))))
    action = SparseAction(spec, Basis.full(spec.n))
    v = Rng(20260823).generator().standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        w = action.apply_array(v)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 0.0
        if abs(nrm - est) <= tol * max(nrm, 1e-300):
            return nrm
        est = nrm
        v = w / nrm
    raise RuntimeError(
        f"power iteration did not reach relative tolerance {tol} in "
        f"{max_iter} iterations (last estimate {est})"
    )


def coupling_norm_bound(spec: HamiltonianSpec) -> float:
    """Per-kind upper bound prefactor * Sum|J_ij|/n (plus any |field| sums)."""
    bound = NORM_BOUND_PREFACTOR[spec.kind] * float(
        np.abs(spec.couplings.entries).sum() / spec.n
    )
    if spec.z_fields is not None:
        bound += float(np.abs(spec.z_fields[0]).sum() + np.abs(spec.z_fields[1]).sum())
    return bound


def norm_tail_probability(c: float, n: int) -> float:
    """Tail bound 2^{n^2} exp(-c^2 n^2 / 2) for Sum|J_ij| >= c n^2, clamped to [0,1]."""
    if c <= 0:
        raise ValueError("c must be positive")
    log_val = n * n * math.log(2.0) - c * c * n * n / 2.0
    if log_val >= 0:
        return 1.0
    return math.exp(log_val)
