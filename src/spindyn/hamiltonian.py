"""The four bipartite models as sparse matrices, moments, and norms.

Every model couples sigma site i (index bit i) to tau site j (index bit
n+j, both 0-based here).  The exchange pieces are either a plain
double-flip (sigma_x tau_x) or a hopping term (sigma_x tau_x +
sigma_y tau_y, nonzero only when the two bits differ, amplitude 2); the
sigma_z tau_z pieces and any local z fields collapse into one diagonal.

Every function here takes a `core.Basis`: the full basis, the sector, or
one block of `symmetry_blocks`.  `_layout` lays H out as CSR index arrays
from the basis's flip partners; it is cached per basis, so a coupling
draw computes only the stored values and the diagonal (`_values`, one
row per draw of a chunk).  Two builders read those values: `_csr` wraps
them in scipy CSR matrices for sparse products, and `_dense_stack`
scatters a chunk of draws into one (draws, d, d) numpy stack; a lone
draw is a chunk of one (`dense_matrix`).  scipy.sparse is imported
inside `_csr`, which builds every scipy matrix, so it loads with the
first sparse product and never for a command that stays dense.

`moment_table(spec, kmax)` holds the real rows H^k|y0> for k <= kmax in
the full basis, from k products with one CSR matrix of the draw's
values; the moment <x|H^k|y0> is its entry [k, x.index()], and sweeps
over many outcomes x read one table.

The half-steps of the Chebyshev recurrence take a chunk of coupling
draws on one basis, and one draw is a chunk of one.  Each half-step of
a chunk (`_stacks`) is
either one block-diagonal CSR matrix, the cached layout repeated at
offsets (`_stacked_layout`) over one (draws x entries) value array, or,
for small bases, where dense products cost about what sparse ones do
and scipy need not load, one dense numpy stack (draws, rows, columns)
from one scatter.  Either way one `stack_product` steps every draw with each
draw's bits unchanged.  `stacked_half_steps` holds H's values, and
`leading_blocks` keeps the first draws of such a stack; `norm_bounds`
bounds each draw's ||H|| from above, by H1's closed form without z
fields, otherwise by one Collatz-Wielandt sweep over the chunk's |H|.

`symmetry_blocks` is the partition H conserves (weight or Z-parity
blocks), and `natural_basis` the smallest basis holding y0's dynamics
(the sector for class II, the full basis for class I).

Field-free H1 and H3 are `chiral`: every term flips one sigma and one
tau spin and the diagonal is zero, so Pi = (-1)^{w_sigma} anticommutes
with H.  Ordered by sigma parity, H = [[0, B], [B^T, 0]] between the
even class E (that of |y0>, whose sigma half is empty) and the odd class
O.  `_chiral_layout` takes B's and B^T's CSR layouts from `_layout`, once
per basis, so a draw again computes only the stored values:
`stacked_half_steps` holds both blocks, between the sides of
`step_sides`, and `_chiral_stack` scatters a chunk's B into one numpy
stack, of which `chiral_block` is the chunk of one for dense algebra.
`spectral_parts` is the one dense eigendecomposition of one draw,
two-sided over E and O (`parity_sides`), that the Trotter error algebra
reads; `operator_norm` takes ||H|| from the same spectrum without the
eigenvectors, for `evolve.Propagator.norm_bound`.  `spectral_bytes` is
the working set either refuses above the memory cap, before allocating.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    Basis,
    DenseMemoryError,
    HamiltonianSpec,
    Kind,
    _check_bytes,
    hamming_class_states,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DenseMemoryError",
    "chiral",
    "chiral_block",
    "dense_matrix",
    "leading_blocks",
    "moment_table",
    "natural_basis",
    "norm_bounds",
    "operator_norm",
    "parity_sides",
    "spectral_bytes",
    "spectral_parts",
    "stack_product",
    "stacked_half_steps",
    "step_sides",
    "symmetry_blocks",
    "coupling_norm_bound",
    "norm_tail_probability",
    "NORM_BOUND_PREFACTOR",
]

# Per-kind prefactor of Sum|J_ij|/n in the operator-norm upper bound,
# exposed exactly as printed (no tightening attempted).
NORM_BOUND_PREFACTOR = {Kind.H1: 1.0, Kind.H2: 2.0, Kind.H3: 1.0, Kind.H4: 1.5}

# Products with |H| behind `norm_bounds`.  40 instead of 5 lower the
# bound by under 0.04 x `coupling_norm_bound` (two draws each: H3 at
# n = 6, 8 and 10 from ~0.58 to 0.57, 0.55 and 0.54 of it; H4 at n = 6
# from 0.45 to 0.44).
_CW_STEPS = 5
# Relative slack on a computed norm bound.  Each (|H| v)_i sums at most
# n^2 + 1 non-zero non-negative terms, in any order (a dense stack's zero
# terms add exactly), so it and its ratio to v_i carry a relative
# rounding error of at most (n^2 + 2) 2^-53, 1.1e-14 at n = 10.  H1's
# closed form rounds by at most ~2n 2^-53 Sum|J_ij| against a maximum of
# at least Sum|J_ij| / sqrt(2n) (Khintchine), again ~1e-14 at n = 10.
_NORM_MARGIN = 1e-12


def _diag_values(spec: HamiltonianSpec, za: np.ndarray) -> np.ndarray:
    """The diagonal (z-z couplings plus local z fields) per row, from its signs."""
    n = spec.n
    diag = np.zeros(za.shape[0])
    if spec.kind in (Kind.H2, Kind.H4):
        scale = 1.0 / n if spec.kind is Kind.H2 else 1.0 / (2 * n)
        C = spec.couplings.entries * scale
        diag += ((za[:, :n] @ C) * za[:, n:]).sum(axis=1)
    if spec.z_fields is not None:
        h1, h2 = spec.z_fields
        diag += za[:, :n] @ h1 + za[:, n:] @ h2
    return diag


@lru_cache(maxsize=64)
def _layout(basis: Basis, hopping: bool) -> tuple[np.ndarray, ...]:
    """J-independent CSR layout (indptr, indices, term, diag) of H on the basis.

    Row r stores its diagonal and one entry per site (i, j): every site for
    class I, whose row sets (the full basis, a parity block) hold every
    flip partner, and for the hopping kinds only the sites whose two bits
    differ, which are exactly the flips that stay inside a weight block.
    H is symmetric, so row r's entries are read off r's own flips; each
    row's columns are then sorted once with numpy, which makes the layout
    canonical (no duplicates: distinct flips reach distinct rows, so the
    sorted order is unique).  term[e] is the site i*n + j of entry e (0
    for a diagonal, whose value each draw writes itself) and diag[r] is
    the entry holding row r's diagonal.  Every sparse matrix (`_csr`) and
    `dense_matrix` read this layout; building it needs no scipy.
    """
    n, dim = basis.n, basis.dimension
    flips = basis.differ if hopping else np.ones_like(basis.differ)
    keep = np.vstack([np.ones((1, dim), dtype=bool), flips.reshape(n * n, dim)]).T
    nnz = int(keep.sum())
    # per stored entry: the int64 transients of this build and of the sort,
    # indices, term, and a draw's values
    _check_bytes(44 * nnz, f"sparse layout of {nnz} entries")
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    targets = np.vstack([np.arange(dim)[None, :], basis.partner.reshape(n * n, dim)])
    columns = targets.T[keep]
    del targets
    # entries come grouped by row, so one stable sort of row * dim + column
    # orders each row's columns and leaves the rows in place
    order = np.argsort(_entry_rows(indptr) * dim + columns, kind="stable")
    indices = columns[order].astype(np.int32)
    term = np.broadcast_to(np.r_[0, : n * n], keep.shape)[keep][order]
    first = np.zeros(nnz, dtype=bool)
    first[indptr[:-1]] = True  # each row's diagonal is its first slot
    diag = np.flatnonzero(first[order])
    for arr in (indptr, indices, term, diag):  # the cache shares them with every draw
        arr.flags.writeable = False
    return indptr, indices, term, diag


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR layout."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _values(
    specs: Sequence[HamiltonianSpec], basis: Basis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of H on the basis for a chunk of draws of
    one layout; only data, one row per draw, depends on the draws.

    Each stored flip carries J_ij / n (class I: J_ij / n; class II: twice
    J_ij / 2n); the diagonal entries carry `_diag_values`.
    """
    indptr, indices, term, diag = _layout(basis, _hopping(specs[0]))
    data = (_coupling_rows(specs) / basis.n).take(term, axis=1)
    for row, spec in zip(data, specs):
        row[diag] = _diag_values(spec, basis.signs)
    return indptr, indices, data


def _coupling_rows(specs: Sequence[HamiltonianSpec]) -> np.ndarray:
    """Each draw's J_ij flattened to one row, site i*n + j."""
    return np.array([spec.couplings.entries.ravel() for spec in specs])


def _csr(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """A scipy CSR matrix over a cached layout, for sparse products.

    The index arrays are read-only, sorted and free of duplicates, so the
    matrix is marked canonical and scipy never tries to sort it in place.
    This is the one place that loads scipy.sparse.
    """
    import scipy.sparse as sp

    m = sp.csr_matrix((data, indices, indptr), shape=shape)
    m.has_canonical_format = True
    return m


def _hopping(spec: HamiltonianSpec) -> bool:
    """Whether the exchange terms hop (H3, H4): they then keep the weight."""
    return spec.kind in (Kind.H3, Kind.H4)


def chiral(spec: HamiltonianSpec) -> bool:
    """Whether Pi = (-1)^{w_sigma} anticommutes with H: H1 and H3 without
    z fields, whose every term flips one sigma and one tau spin."""
    return spec.kind in (Kind.H1, Kind.H3) and spec.z_fields is None


@lru_cache(maxsize=64)
def parity_sides(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """The rows of even sigma weight (E) and of odd sigma weight (O).

    Every sigma_i tau_j double flip moves a row to the other side.
    """
    odd = np.count_nonzero(basis.signs[:, : basis.n] < 0, axis=1) % 2 == 1
    sides = (np.flatnonzero(~odd), np.flatnonzero(odd))
    for arr in sides:
        arr.flags.writeable = False
    return sides


@lru_cache(maxsize=64)
def _chiral_layout(basis: Basis, hopping: bool) -> tuple[tuple[np.ndarray, ...], ...]:
    """J-independent CSR layouts (indptr, indices, rows, term) of B and B^T.

    Every stored flip of `_layout` joins an E row to an O row, so B is the
    E rows of that layout with the diagonal slot dropped and the columns
    renumbered within O, and B^T the same for the O rows; rows[e] is the
    row of entry e, for dense scatters.  Each side lists its rows in basis
    order, so the renumbering keeps every row's sorted column order: B @ v
    adds the products of H @ v on those rows, minus the zero diagonal, in
    the same order.
    """
    indptr, indices, term, diag = _layout(basis, hopping)
    sides = parity_sides(basis)
    # per stored entry: the int64 row and side transients, the masks, and
    # the split's indices (with their unmapped copy), rows and term
    _check_bytes(42 * term.size, f"chiral split of {term.size} entries")
    local = np.empty(basis.dimension, dtype=np.int32)
    row_side = np.empty(basis.dimension, dtype=np.intp)
    for s, rows in enumerate(sides):
        local[rows] = np.arange(rows.size)
        row_side[rows] = s
    entry_side = row_side[_entry_rows(indptr)]
    entry_side[diag] = -1
    out = []
    for s, rows in enumerate(sides):
        keep = entry_side == s
        sub_ptr = np.zeros(rows.size + 1, dtype=np.int32)
        np.cumsum(np.diff(indptr)[rows] - 1, out=sub_ptr[1:])
        half = (sub_ptr, local[indices[keep]], _entry_rows(sub_ptr), term[keep])
        for arr in half:
            arr.flags.writeable = False
        out.append(half)
    return tuple(out)


def _half_values(
    specs: Sequence[HamiltonianSpec], half: tuple[np.ndarray, ...]
) -> np.ndarray:
    """The stored values of one block of the chiral split, one row per
    draw: J_ij / n per flip."""
    return (_coupling_rows(specs) / specs[0].n).take(half[3], axis=1)


def spectral_bytes(basis: Basis, split: bool) -> int:
    """Bytes of one draw's dense working set in `spectral_parts`.

    With the chiral split (`split`): B and B^T P (2 |E||O| float64) and
    B B^T, its eigenvectors P and the eigh workspace (3 |E|^2).  On the
    whole basis: H, its eigenvectors and the eigh workspace (3 d^2).
    """
    if split:
        e, o = (side.size for side in parity_sides(basis))
        return 8 * (3 * e * e + 2 * e * o)
    return 3 * 8 * basis.dimension**2


def _chiral_stack(specs: Sequence[HamiltonianSpec], basis: Basis, hopping: bool) -> np.ndarray:
    """B of every draw of a chunk that `_chunk_key` found chiral, shape
    (draws, |E|, |O|); see `chiral_block`."""
    e, o = (side.size for side in parity_sides(basis))
    _check_bytes(8 * len(specs) * e * o, f"{len(specs)} x chiral split {e}+{o} (dense)")
    half = _chiral_layout(basis, hopping)[0]
    out = np.zeros((len(specs), e, o))
    out[:, half[2], half[1]] = _half_values(specs, half)
    return out


def chiral_block(spec: HamiltonianSpec, basis: Basis) -> np.ndarray:
    """B, the |E| x |O| block of a `chiral` H = [[0, B], [B^T, 0]].

    Refuses, before allocating, a split whose dense working set
    (`spectral_bytes`) exceeds the memory cap.
    """
    if not chiral(spec):
        raise ValueError(f"{spec.kind.value} with these fields has no chiral split")
    _check_basis(spec, basis)
    e, o = (side.size for side in parity_sides(basis))
    _check_bytes(spectral_bytes(basis, True), f"chiral split {e}+{o} (dense)")
    return _chiral_stack([spec], basis, _hopping(spec))[0]


def spectral_parts(
    spec: HamiltonianSpec, basis: Basis
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(omega, (P, V)): H's spectrum on the two sides of `step_sides`.

    For a `chiral` spec B B^T = P diag(omega^2) P^T on E and V = B^T P;
    for any other spec H = P diag(omega) P^T on the whole basis and
    V = P diag(omega).  Either way, since cos(x) and sin(x) / x are even,
    cos(Ht) maps side 0 to itself as P cos(omega t) P^T and sin(Ht) maps
    side 0 to side 1 as V (sin(omega t) / omega) P^T; for a chiral spec
    cos(Ht) maps O to itself as I - V (2 sin^2(omega t / 2) / omega^2) V^T.
    One eigh, of half the size for a chiral spec.
    """
    if chiral(spec):
        b = chiral_block(spec, basis)
        w2, p = np.linalg.eigh(b @ b.T)
        return np.sqrt(np.maximum(w2, 0.0)), (p, b.T @ p)
    omega, p = np.linalg.eigh(dense_matrix(spec, basis))
    return omega, (p, p * omega)


def operator_norm(spec: HamiltonianSpec, basis: Basis) -> float:
    """||H|| on the basis: the largest |omega| of `spectral_parts`'
    spectrum, from one eigenvalues-only eigvalsh (of B B^T for a `chiral`
    spec, else of H)."""
    if chiral(spec):
        b = chiral_block(spec, basis)
        return math.sqrt(max(float(np.linalg.eigvalsh(b @ b.T)[-1]), 0.0))
    return float(np.abs(np.linalg.eigvalsh(dense_matrix(spec, basis))[[0, -1]]).max())


def symmetry_blocks(kind: Kind | str, n: int) -> tuple[str, list[Basis]]:
    """The symmetry H conserves, and the basis of each of its blocks.

    The hopping kinds (H3, H4) conserve Hamming weight (blocks w = 0..2n),
    class I (H1, H2) Z-parity (blocks 0 and 1), and z fields are
    diagonal.  The Trotter error algebra splits on this partition.
    """
    if Kind(kind) in (Kind.H1, Kind.H2):
        return "parity", [Basis.of(n, "parity", p) for p in range(2)]
    return "weight", [Basis.of(n, "weight", w) for w in range(2 * n + 1)]


def natural_basis(kind: Kind | str, n: int) -> Basis:
    """Sector basis for the U(1) kinds, full basis otherwise."""
    if Kind(kind) in (Kind.H3, Kind.H4):
        return Basis.sector(n)
    return Basis.full(n)


def _check_basis(spec: HamiltonianSpec, basis: Basis) -> None:
    """Refuses a basis of the wrong size, or one H leaves: class I changes
    the Hamming weight, so it leaves every weight block."""
    if basis.n != spec.n:
        raise ValueError("basis size does not match the Hamiltonian")
    if basis.symmetry == "weight" and spec.kind in (Kind.H1, Kind.H2):
        raise ValueError(
            f"{spec.kind.value} leaves the weight-n sector and every weight "
            "block; use the full basis or a parity block"
        )


def step_sides(spec: HamiltonianSpec, basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """Basis positions of the two sides H's half-steps map onto each other:
    E and O (`parity_sides`) for a `chiral` spec, else the whole basis
    twice.  Refuses a basis the spec does not fit."""
    _check_basis(spec, basis)
    if chiral(spec):
        return parity_sides(basis)
    rows = np.arange(basis.dimension)
    return rows, rows


def _chunk_key(specs: Sequence[HamiltonianSpec], basis: Basis) -> tuple[bool, bool]:
    """(hopping, chiral), which every draw of a chunk must share, each
    draw checked against the basis."""
    key = (_hopping(specs[0]), chiral(specs[0]))
    for spec in specs:
        if (_hopping(spec), chiral(spec)) != key:
            raise ValueError("a stack needs one layout and one chiral split")
        _check_basis(spec, basis)
    return key


def _stacks(
    specs: Sequence[HamiltonianSpec], basis: Basis, magnitude: bool, dense: bool
) -> list[sp.csr_matrix | np.ndarray]:
    """Each half-step of a chunk (their absolute values if `magnitude`):
    B^T and B for a chiral chunk, H otherwise.

    If `dense`, each is a numpy stack (draws, rows, columns) scattered by
    `_chiral_stack` (B^T a transposed view of it) or `_dense_stack`.
    Otherwise each is one block-diagonal CSR matrix whose block j carries
    draw j's stored values over the cached layout repeated at offsets
    (`_stacked_layout`), each half-step's values one (draws x entries)
    array."""
    hopping, split = _chunk_key(specs, basis)
    if dense:
        stack = _chiral_stack(specs, basis, hopping) if split else _dense_stack(specs, basis)
        if magnitude:
            np.abs(stack, out=stack)
        return [stack.transpose(0, 2, 1), stack] if split else [stack]
    # per stored entry: the values, and the stacked indices
    nnz = int(_layout(basis, hopping)[0][-1])
    _check_bytes(12 * len(specs) * nnz, f"stack of {len(specs)} draws")
    if split:
        halves = _chiral_layout(basis, hopping)
        rows = [(h, _half_values(specs, halves[1 - h])) for h in (0, 1)]
    else:
        rows = [(-1, _values(specs, basis)[2])]
    out = []
    for half, values in rows:
        indptr, indices, shape = _stacked_layout(basis, hopping, half, len(specs))
        data = np.abs(values, out=values) if magnitude else values
        out.append(_csr(indptr, indices, data.ravel(), shape))
    return out


def stacked_half_steps(
    specs: Sequence[HamiltonianSpec], basis: Basis, dense: bool = False
) -> tuple[sp.csr_matrix | np.ndarray, sp.csr_matrix | np.ndarray]:
    """The blocks of H from side 0 and from side 1 of `step_sides` to the
    other, (B^T, B) for a chiral chunk and (H, H) otherwise, for a chunk of
    draws on one basis: one block-diagonal CSR matrix whose block j is
    draw j's, or if `dense` one numpy stack whose matrix j is (`_stacks`).
    `stack_product` applies either to one row per draw.  A CSR row adds the same products in the
    same order as in a chunk of one, and numpy runs BLAS on each matrix of
    a stack as on that matrix alone, so either form gives every draw's
    product the bits of its own chunk of one."""
    stacks = _stacks(specs, basis, False, dense)
    return stacks[0], stacks[-1]


def stack_product(stack: sp.csr_matrix | np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each draw's half-step: `stack` (either form of `stacked_half_steps`)
    times each row of v, one row per draw, shape (draws, rows)."""
    if isinstance(stack, np.ndarray):
        return np.matmul(stack, v[:, :, None])[:, :, 0]
    return (stack @ v.ravel()).reshape(v.shape[0], -1)


def norm_bounds(
    specs: Sequence[HamiltonianSpec], basis: Basis, dense: bool = False
) -> np.ndarray:
    """A rigorous upper bound on ||H|| on the basis, or inf, for every draw
    of a chunk on one basis.

    Field-free H1 takes its closed form `_h1_norm`.  Otherwise, for
    symmetric H, ||H|| <= rho(|H|) <= max_i (|H| v)_i / v_i for every
    v > 0 (Wielandt's comparison and the Collatz-Wielandt bound; Horn
    and Johnson, Matrix Analysis, ch. 8).  v is |H|^(_CW_STEPS - 1)
    applied to ones, normalised by its max after each product; one more
    product gives the ratio, times 1 + `_NORM_MARGIN`.  A chiral |H| is
    applied as |B^T| from E and |B| from O.  |H| is symmetric and
    non-negative, so v vanishes exactly on |H|'s zero rows (the rows whose
    first product is 0), and those rows neither feed nor read any other:
    |H| restricted to the rest has the same spectral radius, and the
    ratio is read there.  inf when v has another zero entry, when |H| = 0
    (J = 0), or when the ratio is not finite.

    One sweep serves the chunk, over |H|'s `_stacks` (numpy stacks if
    `dense`, else block-diagonal CSR), and every max, zero check and
    division is taken per draw, so each draw's bound has the bits of its
    chunk of one.
    """
    if _chunk_key(specs, basis) == (False, True):  # field-free H1
        return np.array([_h1_norm(spec) * (1.0 + _NORM_MARGIN) for spec in specs])
    m, blocks = len(specs), _stacks(specs, basis, True, dense)

    def step(vs: list[np.ndarray]) -> list[np.ndarray]:
        # block s maps side s to the other, so the products come reversed
        return [stack_product(b, v) for b, v in zip(blocks, vs)][::-1]

    sides = step_sides(specs[0], basis)[: len(blocks)]
    vs = [np.ones((m, side.size)) for side in sides]
    empty = None  # |H|'s zero rows, from the first product
    dead = np.zeros(m, dtype=bool)  # the draws whose bound is inf
    for _ in range(_CW_STEPS - 1):
        ws = step(vs)
        if empty is None:
            empty = [w == 0.0 for w in ws]
        top = np.max([w.max(axis=1) for w in ws], axis=0)
        dead |= ~(top > 0.0)
        top[dead] = 1.0
        vs = [w / top[:, None] for w in ws]
    for v, e in zip(vs, empty):
        v[e] = 1.0  # |H| v is 0 there, and no other row reads them
    dead |= ~(np.min([v.min(axis=1) for v in vs], axis=0) > 0.0)
    for v in vs:
        v[dead] = 1.0  # read no ratio off a zero
    bound = np.max([(w / v).max(axis=1) for w, v in zip(step(vs), vs)], axis=0)
    dead |= ~np.isfinite(bound)
    return np.where(dead, math.inf, bound * (1.0 + _NORM_MARGIN))


@lru_cache(maxsize=8)
def _stacked_layout(
    basis: Basis, hopping: bool, half: int, count: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """(indptr, indices, shape) of `count` copies of one half-step's CSR
    layout on the block diagonal: H's (half -1), or that of B^T (half 0,
    from E to O) or B (half 1, from O to E) in the chiral split.  One copy
    is the cached layout itself."""
    if half < 0:
        indptr, indices = _layout(basis, hopping)[:2]
        cols = basis.dimension
    else:
        indptr, indices = _chiral_layout(basis, hopping)[1 - half][:2]
        cols = parity_sides(basis)[half].size
    shape = ((indptr.size - 1) * count, cols * count)
    if count == 1:
        return indptr, indices, shape
    nnz = int(indptr[-1])
    shift = np.arange(count, dtype=np.int64)[:, None]
    _check_bytes(16 * count * nnz, f"stacked layout of {count} x {nnz} entries")
    out = (
        np.append((indptr[:-1] + nnz * shift).ravel(), nnz * count).astype(np.int32),
        (indices + cols * shift).ravel().astype(np.int32),
    )
    for arr in out:  # the cache shares them with every chunk
        arr.flags.writeable = False
    return *out, shape


def leading_blocks(
    stack: sp.csr_matrix | np.ndarray, count: int, blocks: int
) -> sp.csr_matrix | np.ndarray:
    """The first `count` of the `blocks` draws of a `stacked_half_steps`
    stack, over its own arrays: the leading diagonal blocks of a CSR
    matrix, or the leading matrices of a numpy stack."""
    if isinstance(stack, np.ndarray):
        return stack[:count]
    rows, cols = (size // blocks * count for size in stack.shape)
    end = int(stack.indptr[rows])
    return _csr(stack.indptr[: rows + 1], stack.indices[:end], stack.data[:end], (rows, cols))


def _dense_stack(specs: Sequence[HamiltonianSpec], basis: Basis) -> np.ndarray:
    """H on the basis for every draw of a chunk that passed `_chunk_key`,
    shape (draws, d, d); see `dense_matrix`."""
    d = basis.dimension
    _check_bytes(8 * len(specs) * d * d, f"{len(specs)} x dense dimension {d}")
    indptr, indices, data = _values(specs, basis)
    out = np.zeros((len(specs), d, d))
    out[:, _entry_rows(indptr), indices] += data
    return out


def dense_matrix(spec: HamiltonianSpec, basis: Basis) -> np.ndarray:
    """H on the basis as a real-symmetric d x d numpy array.

    Refuses, before allocating, a dimension whose ~3 d^2 float64 working
    set (matrix, eigenvectors, eigh workspace) exceeds the memory cap:
    d = 4096 needs 0.4 GB, the n = 8 sector (d = 12870) 4 GB.  The layout
    has no duplicates, so each value lands in its own slot; adding into
    zeros, as scipy's toarray() does, keeps every entry equal bit for bit
    to the toarray() of the same values in CSR form, such as the CSR
    half-steps of `stacked_half_steps` (a -0.0 coupling becomes 0.0 in
    both).
    """
    d = basis.dimension
    _check_bytes(spectral_bytes(basis, False), f"dense dimension {d} (3 d^2 float64)")
    _check_basis(spec, basis)
    return _dense_stack([spec], basis)[0]


def moment_table(spec: HamiltonianSpec, kmax: int) -> np.ndarray:
    """Real rows H^k |y0> for k = 0..kmax in the full basis, shape (kmax+1, 4^n).

    Refuses, before allocating, a table above the memory cap."""
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    d = 1 << (2 * spec.n)
    _check_bytes(8 * (kmax + 1) * d, f"moment table of {kmax + 1} x {d} float64")
    indptr, indices, data = _values([spec], Basis.full(spec.n))
    h = _csr(indptr, indices, data[0], (d, d))
    table = np.zeros((kmax + 1, d))
    table[0, hamming_class_states(spec.n, 0)] = 1.0  # X_0 holds y0 alone
    for k in range(kmax):
        table[k + 1] = h @ table[k]
    return table


def _h1_norm(spec: HamiltonianSpec) -> float:
    """||H1|| = max over s in {+-1}^n of ||s^T J||_1 / n.

    H1 = Sum J_ij X_i X_{n+j} / n is diagonal in the X basis, with
    eigenvalues s^T J t / n over sign vectors s, t; the best t for a given
    s takes the sign of each entry of s^T J.  s and -s give the same
    value, so s_1 = +1.
    """
    n = spec.n
    # the int64 bits and shift transients, the float signs and the products
    _check_bytes(40 * n << (n - 1), f"sign table of {1 << (n - 1)} rows")
    bits = (np.arange(1 << (n - 1))[:, None] << 1 >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * bits
    return float(np.abs(signs @ spec.couplings.entries).sum(axis=1).max() / n)


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
