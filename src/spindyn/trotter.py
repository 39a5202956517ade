"""Product-formula circuits: construction, exact error norms, gate budgets.

A circuit is an ordered list of two-spin rotations, each acting on one
sigma-site and one tau-site.  Exponentials of the five supported Pauli
pairs have closed forms: a gate mixes the two rows of each pair joined
by its double flip and at most phases the rest, so sequences can be
applied to states or accumulated into dense unitaries without any series
expansion.

Gates read each site's flip pairs from the rows of a `core.Basis`, the
same rows the Hamiltonian is laid out from: the full basis for
`apply_sequence`, each symmetry block for the error algebra.  The pairs
and the signs below are cached per basis (`_flip_pairs`).

Error norms run block by block.  The XX+YY and XX+YY+ZZ gates (H3, H4)
conserve Hamming weight and the class-I gates (H1, H2) conserve Z-parity,
so e^{-iHt} and the product formula are both block-diagonal in that
partition (2n+1 weight blocks or 2 parity blocks, from
`hamiltonian.symmetry_blocks`).  ||e^{-iHt} - T^M|| is the largest
singular value over the blocks of U_b - S_b^M, where S_b is one step
applied inside block b.  A spin flip that commutes with every gate pairs
blocks of equal error, so only one block of each mirror pair is computed
(`_error_blocks`).  A grid of orders and step counts runs as one stack
per kept block (`_error_stacks`): each (order, M) is a slice, and every
slice's step has the gate layout of one order-1 step, so one gate pass,
one shared ladder of squares and one values-only SVD serve the stack,
with the bits of each slice computed alone.

The E/O gauge.  Every double flip moves a row between E and O, the rows
of even and odd sigma parity (`hamiltonian.parity_sides`).  With
G = diag(1 on E, i on O), a gate that only flips spins (XX, YY, XX+YY:
the gates of H1 and H3) has real G^H g G, since its flip coefficient b is
imaginary and becomes i b on E rows and -i b on O rows.  A unitary
similarity keeps every singular value, so the chiral kinds run their
whole block algebra in float64: the step, its power and the SVD.  The
tags decide: one kernel, `_apply_gates`, runs a flip-only sequence in the
gauge and any other (H2, H4) in complex arithmetic with G = I.

The Strang step.  Every gate is complex-symmetric and the order-2 step
is a palindrome, so S = A^T A with A its first half; in the gauge, with
A' = G^H A G and Pi = G^2 = diag(1 on E, -1 on O), S' = (Pi A'^T Pi) A'.

The exact part.  Each block's H is `hamiltonian.dense_matrix` or, for a
chiral kind, its E x O block B, never a slice of the whole 4^n matrix;
`hamiltonian.spectral_parts` gives its two-sided parts (omega, (P, V)),
once per block for every order and step count of a grid.  For the chiral kinds that is one
eigh of B B^T, half the block, and G^H e^{-iHt} G = cos(Ht) + Pi sin(Ht)
is real: P cos(omega t) P^T on E x E, P (sin(omega t) / omega) V^T on E x O,
minus its transpose on O x E, and I - V (2 sin^2(omega t / 2) / omega^2)
V^T on O x O.  H2 and H4 take cos(Ht) - i sin(Ht) from the first two.
All dense algebra runs on numpy's LAPACK, so one BLAS thread pool serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import Basis, HamiltonianSpec, Kind, Rng, hamming_class_states, sample_coupling
from .hamiltonian import chiral, parity_sides, spectral_parts, symmetry_blocks

_TAGS = ("XX", "YY", "ZZ", "XX+YY", "XX+YY+ZZ")
_DENSE_MAX_DIM = 4096
# steps per slice group of an error grid, at the largest kept block; a
# group holds at least one slice, so the budget never refuses a grid
_GRID_BYTES = 1 << 22

# default prefactor from the n=5 calibration; see estimate_prefactor
CALIBRATED_PREFACTOR = 2.97e-4


class Gate(NamedTuple):
    """One two-spin rotation e^{-i angle * (Pauli pair)} on (sigma_i, tau_j)."""

    i: int
    j: int
    tag: str
    angle: float


@dataclass(frozen=True)
class GateSequence:
    """Ordered two-spin rotations on n sigma-sites and n tau-sites."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        for g in self.gates:
            if not (0 <= g.i < self.n and 0 <= g.j < self.n):
                raise ValueError(f"gate {g} addresses sites outside 0..{self.n - 1}")
            if g.tag not in _TAGS:
                raise ValueError(f"unknown pauli tag {g.tag!r}")
            if not math.isfinite(g.angle):
                raise ValueError("gate angle must be finite")
        object.__setattr__(
            self,
            "gates",
            tuple(Gate(int(g.i), int(g.j), str(g.tag), float(g.angle)) for g in self.gates),
        )


# Generators that only flip spins.  Every sigma_i tau_j double flip moves
# a row between E and O, so in the E/O gauge their gates are real.
_FLIP_TAGS = frozenset({"XX", "YY", "XX+YY"})


def _in_gauge(gates: Sequence[Gate]) -> bool:
    """Whether the gates act in the E/O gauge (module docstring): the tags decide."""
    return all(g.tag in _FLIP_TAGS for g in gates)


def _gate_moves(tag: str, th: float) -> tuple[complex, tuple[tuple, ...]]:
    """A gate as (phase, moves).

    Every row is first scaled by `phase`; then each move (pairs, a, b)
    maps each flip pair (x, y) in `pairs` to (a x + b y, a y + b x).  The
    pairs are "hop" (the two addressed bits differ), "stay" (they agree)
    or "all".  A flip-only gate has phase 1, real a and imaginary b.
    """
    c, s = math.cos(th), math.sin(th)
    if tag == "XX":
        return 1.0, (("all", c, -1j * s),)
    if tag == "YY":
        return 1.0, (("hop", c, -1j * s), ("stay", c, 1j * s))
    if tag == "XX+YY":
        # pure hopping of amplitude 2 between the two differing states
        return 1.0, (("hop", math.cos(2 * th), -1j * math.sin(2 * th)),)
    lo = np.exp(-1j * th)
    if tag == "ZZ":
        # equal bits pick up e^{-i th}, differing bits e^{i th}
        return lo, (("hop", np.exp(2j * th), 0.0),)
    # XX+YY+ZZ: equal bits pick up e^{-i th}; the differing pair splits
    # into a symmetric (eigenvalue +1) and antisymmetric (-3) combination
    hi = np.exp(4j * th)  # e^{3i th} relative to lo
    return lo, (("hop", (1 + hi) / 2, (1 - hi) / 2),)


@lru_cache(maxsize=64)
def _flip_pairs(basis: Basis) -> tuple[list[list[dict[str, tuple]]], np.ndarray]:
    """Each double flip's row pairs on the basis, and Pi on each row.

    Every sigma_i tau_j flip pairs a row on E with a partner on O.
    pairs[i][j][part] = (rows, swapped, sign) for the "hop" pairs (the
    two addressed bits differ), the "stay" pairs (they agree; none in a
    weight block, which an equal-bit flip leaves) and "all": rows lists
    the pairs' E rows and then their O partners, swapped each row's
    partner, and sign (shape (rows, 1, 1), to scale a (rows, slices,
    columns) array) is +1 on the E rows and -1 on the O rows.  A part
    that holds every row of the basis is the slice of all rows, so its
    gates run on the whole array in place.  Pi is +1 on E and -1 on O.
    Like the flip index, every array is read-only and shared.
    """
    even, odd = parity_sides(basis)
    pi = np.ones(basis.dimension)
    pi[odd] = -1.0
    pi.flags.writeable = False
    pairs = []
    for i in range(basis.n):
        row = []
        for j in range(basis.n):
            partner, differ = basis.partner[i, j], basis.differ[i, j]
            hop = even[differ[even]]
            stay = even[~differ[even] & (partner[even] != even)]
            parts = {}
            for part, e in (("hop", hop), ("stay", stay), ("all", np.r_[hop, stay])):
                if 2 * e.size == basis.dimension:
                    parts[part] = (slice(None), partner, pi[:, None, None])
                    continue
                sign = np.r_[np.ones(e.size), -np.ones(e.size)][:, None, None]
                parts[part] = (np.r_[e, partner[e]], np.r_[partner[e], e], sign)
                for arr in parts[part]:
                    arr.flags.writeable = False
            row.append(parts)
        pairs.append(row)
    return pairs, pi


class _GateTable(NamedTuple):
    """Gate sequences of one layout (the same sites and tags, gate by
    gate), as coefficient columns over the sequences: its slices.

    gates[g] = (i, j, phase, moves) for the g-th gate of every slice:
    phase is None when every slice's is 1, else a (slices, 1) column, and
    each move (part, a, b) holds (slices, 1) columns of `_gate_moves`'s a
    and b.  In the gauge (`_in_gauge`) b holds -Im b, the factor of the
    E row of a pair (its O row takes the opposite).
    """

    gauge: bool
    slices: int
    gates: list[tuple[int, int, np.ndarray | None, list[tuple[str, np.ndarray, np.ndarray]]]]


def _gate_table(slices: Sequence[Sequence[Gate]]) -> _GateTable:
    """The `_GateTable` of gate sequences that share one layout.

    Each slice's coefficients are those `_gate_moves` gives its own gate,
    so math.cos and math.sin set their bits.
    """
    gauge = _in_gauge(slices[0])
    gates = []
    for column in zip(*slices):
        phases, moves = zip(*(_gate_moves(g.tag, float(g.angle)) for g in column))
        phase = None if all(p == 1.0 for p in phases) else np.array(phases)[:, None]
        coefs = []
        for k, (part, _, _) in enumerate(moves[0]):
            a = np.array([m[k][1] for m in moves])[:, None]
            b = np.array([m[k][2] for m in moves])[:, None]
            coefs.append((part, a, -b.imag if gauge else b))
        gates.append((column[0].i, column[0].j, phase, coefs))
    return _GateTable(gauge, len(slices), gates)


def _apply_gates(arr: np.ndarray, table: _GateTable, basis: Basis) -> np.ndarray:
    """Apply each slice's gates in order to a (rows, slices) or (rows,
    slices, columns) array, slice s by the table's slice s, in place, and
    return it.

    Every gate mixes the two rows of each flip pair (`_flip_pairs`) and
    leaves or phases the rest, so the same code acts on the full basis
    and on any set of rows closed under the gates' flips.  In the gauge,
    each gate acts as G^H g G with G = diag(1 on E, i on O): a pair's b
    becomes i b on its E row and -i b on its O row, both real, so a real
    array stays real.  Otherwise G = I and the array must be complex.
    Every coefficient scales whole (slice, columns) rows, as a scalar
    would scale one slice, so a slice has the bits of a table of one.
    """
    pairs = _flip_pairs(basis)[0]
    cols = arr.reshape(arr.shape[0], arr.shape[1], -1)  # a view
    for i, j, phase, moves in table.gates:
        if phase is not None:
            cols *= phase
        for part, a, b in moves:
            rows, swapped, sign = pairs[i][j][part]
            mixed, moved = cols[rows], cols[swapped]
            mixed *= a
            moved *= sign * b if table.gauge else b
            mixed += moved
            cols[rows] = mixed
    return arr


def apply_sequence(seq: GateSequence, v: np.ndarray) -> np.ndarray:
    """Apply the gates in order to a full-basis state (or matrix columns)."""
    if v.shape[0] != 1 << (2 * seq.n):
        raise ValueError("state dimension does not match the gate layout")
    basis = Basis.full(seq.n)
    arr = v.astype(complex, copy=True)
    table = _gate_table([seq.gates])
    if not table.gauge:
        _apply_gates(arr[:, None], table, basis)
        return arr
    odd = parity_sides(basis)[1]
    arr[odd] *= -1j  # G^H v
    _apply_gates(arr[:, None], table, basis)
    arr[odd] *= 1j
    return arr


def _check_dense_dim(dim: int) -> None:
    if dim > _DENSE_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the dense limit {_DENSE_MAX_DIM}")


def sequence_unitary(seq: GateSequence) -> np.ndarray:
    """Dense unitary of the whole sequence (dimension-guarded)."""
    dim = 1 << (2 * seq.n)
    _check_dense_dim(dim)
    return apply_sequence(seq, np.eye(dim, dtype=complex))


def _step_gates(spec: HamiltonianSpec, dt: float) -> list[Gate]:
    """One forward row-major sweep of all term exponentials at angle scale dt."""
    J = spec.couplings.entries
    n = spec.n
    out: list[Gate] = []
    for i in range(n):
        for j in range(n):
            if spec.kind is Kind.H1:
                out.append(Gate(i, j, "XX", dt * J[i, j] / n))
            elif spec.kind is Kind.H2:
                # XX and ZZ on the same site pair commute, so the pair of
                # gates is the exact term exponential
                out.append(Gate(i, j, "XX", dt * J[i, j] / n))
                out.append(Gate(i, j, "ZZ", dt * J[i, j] / n))
            elif spec.kind is Kind.H3:
                out.append(Gate(i, j, "XX+YY", dt * J[i, j] / (2 * n)))
            else:
                out.append(Gate(i, j, "XX+YY+ZZ", dt * J[i, j] / (2 * n)))
    return out


def _check_circuit(spec: HamiltonianSpec, grid: Sequence[tuple[int, int]]) -> None:
    """Refuse any (order, M) of the grid that build_trotter cannot build."""
    if any(M < 1 for _, M in grid):
        raise ValueError("M must be at least 1")
    if any(order not in (1, 2) for order, _ in grid):
        raise ValueError("only orders 1 and 2 are supported")
    if spec.z_fields is not None:
        raise ValueError("the circuit model covers two-spin couplings only")


def build_trotter(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> GateSequence:
    """M product-formula steps for e^{-iHt}; order 1 or 2 (Strang)."""
    _check_circuit(spec, [(order, M)])
    dt = t / M
    if order == 1:
        step = _step_gates(spec, dt)
    else:
        half = _step_gates(spec, dt / 2)
        step = half + half[::-1]
    return GateSequence(spec.n, tuple(step * M))


# -- block-diagonal error algebra ------------------------------------------


def _steps(table: _GateTable, block: Basis, halves: Sequence[int]) -> np.ndarray:
    """Every slice's product-formula step inside a block, shape (slices,
    d, d), in the gauge `_apply_gates` takes: real for flip-only gates.

    One `_apply_gates` pass runs the table over a (rows, slices, d)
    identity.  A slice holds its whole step, or, for the slices listed in
    `halves`, the first half A of a Strang step.  Every gate is
    complex-symmetric and the Strang step is a palindrome, so that step
    is A^T A: half the gate work.  In the E/O gauge, with A' = G^H A G
    and G^2 = Pi, it is (Pi A'^T Pi) A'.  Every product is one matrix of
    a batched matmul, which numpy hands to BLAS as it would that matrix
    alone.
    """
    d = block.dimension
    eye = np.zeros((d, table.slices, d), dtype=float if table.gauge else complex)
    eye[np.arange(d), :, np.arange(d)] = 1.0
    steps = _apply_gates(eye, table, block).transpose(1, 0, 2)
    if not halves:
        return steps
    whole = len(halves) == table.slices
    half = steps if whole else steps[halves]
    left = half.transpose(0, 2, 1)  # A^T A: numpy takes syrk for complex A
    if table.gauge:
        pi = _flip_pairs(block)[1]
        left = pi[:, None] * left * pi
    if whole:
        return np.matmul(left, half)
    steps[halves] = np.matmul(left, half)
    return steps


def _powers(steps: np.ndarray, ms: Sequence[int]) -> np.ndarray:
    """steps[s] to the power ms[s] for every slice, ms non-increasing,
    with the products np.linalg.matrix_power makes for each power alone.

    That is the step itself for M = 1, (S S) S for M = 3, and otherwise
    the binary ladder: the squares S^(2^k) multiplied into the result
    from the lowest set bit of M up.  One shared ladder serves the stack:
    rung k squares only the slices with M >= 2^k, which lead it, and
    each rung's products are one batched matmul.
    """
    count = len(ms)
    out = None  # a slice holds its partial product once a set bit is reached
    z = steps
    for k in range(ms[0].bit_length()):
        live = sum(1 for m in ms if m >> k)
        if k:
            z = np.matmul(z[:live], z[:live])
        low = (1 << k) - 1
        bits = [s for s in range(live) if ms[s] >> k & 1]
        first = [s for s in bits if not ms[s] & low]
        more = [s for s in bits if ms[s] & low and ms[s] != 3]
        three = [s for s in bits if k == 1 and ms[s] == 3]
        if three:  # matrix_power's M = 3 is (S S) S, not S (S S)
            out[three] = np.matmul(z[three], steps[three])
        if len(more) == count:
            out = np.matmul(out, z)
        elif more:
            out[more] = np.matmul(out[more], z[more])
        if len(first) == count:
            out = z
        elif first:
            if out is None:
                out = np.empty_like(steps)
            out[first] = z[first]
    return out


def _exact_part(spec: HamiltonianSpec, block: Basis, t: float) -> np.ndarray:
    """e^{-iHt} on the block from `spectral_parts`, in its gates' gauge.

    A chiral spec's gates are flip-only, and there G^H e^{-iHt} G =
    cos(Ht) + Pi sin(Ht), real: P cos(omega t) P^T on E x E,
    P (sin(omega t) / omega) V^T on E x O, minus its transpose on O x E,
    and I - V (2 sin^2(omega t / 2) / omega^2) V^T on O x O.  Any other
    spec reads cos(Ht) - i sin(Ht) from the first two parts.
    """
    omega, (p, v) = spectral_parts(spec, block)
    wt = omega * t
    # sin(omega t) / omega and sin(omega t / 2) / omega, t and t / 2 at omega = 0
    sinc, half = np.full_like(wt, t), np.full_like(wt, t / 2)
    np.divide(np.sin(wt), omega, out=sinc, where=omega != 0.0)
    np.divide(np.sin(wt / 2), omega, out=half, where=omega != 0.0)
    ee = (p * np.cos(wt)) @ p.T
    eo = (p * sinc) @ v.T
    if not chiral(spec):
        return ee - 1j * eo
    e, o = parity_sides(block)
    out = np.empty((block.dimension, block.dimension))
    out[np.ix_(e, e)] = ee
    out[np.ix_(e, o)] = eo
    out[np.ix_(o, e)] = -eo.T
    out[np.ix_(o, o)] = np.eye(o.size) - (v * (2.0 * half * half)) @ v.T
    return out


def _error_blocks(kind: Kind, n: int) -> list[Basis]:
    """The blocks whose errors stand for all: one of each mirror pair.

    A flip F of some spins that commutes with every term and every gate
    maps block b onto a block b'; restricted to the rows it is a
    permutation P with P H_b P^T = H_b' and P S_b P^T = S_b', so
    U_b - S_b^M and U_b' - S_b'^M have the same singular values.

    - H3, H4: the global flip X^{2n} keeps XX, YY and ZZ and maps weight
      w to 2n - w; the blocks w <= n stay.
    - H1: X on sigma_0 keeps every XX term and swaps the two parities;
      parity n mod 2 stays.
    - H2: that flip anticommutes with the ZZ terms on sigma_0, and the
      global flip keeps each parity, so both blocks stay.

    y0's block (weight n, parity n mod 2) always stays.  z fields would
    break both flips; build_trotter rejects them.
    """
    blocks = symmetry_blocks(kind, n)[1]
    if kind is Kind.H1:
        return [blocks[n % 2]]
    if kind is Kind.H2:
        return blocks
    return blocks[: n + 1]


def _error_stacks(spec: HamiltonianSpec, t: float, grid: Sequence[tuple[int, int]]):
    """||U_b - S_b^M|| for every (order, M) slice of the grid, block by
    block (`_error_blocks`): per kept block and group of slices, (block,
    U_b, the group's positions in `grid`, S_b^M, the norms).

    S_b is one product-formula step of size t/M inside the block.  All
    slices share the gate layout of `_step_gates` (order 1 at dt = t/M,
    order 2 its first half at dt/2), so one `_gate_table` serves every
    block.  The slices run by decreasing M, which `_powers` needs, in
    consecutive groups of at most `_GRID_BYTES` of steps at the largest
    kept block (at least one slice each).  Per block and group, one
    `_steps` pass, one `_powers` ladder and one values-only SVD of the
    stack; the exact part comes from one eigendecomposition per block,
    shared by every slice.  Both are in the gauge of the block's gates,
    which keeps the singular values of U_b - S_b^M (a unitary
    similarity), and every slice has the bits of a grid of one.
    """
    _check_dense_dim(1 << (2 * spec.n))
    _check_circuit(spec, grid)
    if not grid:
        return
    blocks = _error_blocks(spec.kind, spec.n)
    gauge = _in_gauge(_step_gates(spec, 1.0))
    width = (8 if gauge else 16) * max(b.dimension for b in blocks) ** 2
    size = max(1, _GRID_BYTES // width)
    rank = sorted(range(len(grid)), key=lambda s: -grid[s][1])
    groups = []
    for lo in range(0, len(rank), size):
        where = rank[lo : lo + size]
        slices = [grid[s] for s in where]
        table = _gate_table([_step_gates(spec, t / M / order) for order, M in slices])
        halves = [s for s, (order, _) in enumerate(slices) if order == 2]
        groups.append((where, table, halves, [int(M) for _, M in slices]))
    for block in blocks:
        exact = _exact_part(spec, block, t)
        for where, table, halves, ms in groups:
            powers = _powers(_steps(table, block, halves), ms)
            norms = np.linalg.svd(exact - powers, compute_uv=False)[:, 0]
            yield block, exact, where, powers, norms


def block_arithmetic(spec: HamiltonianSpec) -> str:
    """The arithmetic of `spec`'s block error algebra, as reports name it:
    "real (E/O gauge)" when its gates only flip spins (H1, H3), else
    "complex"."""
    return "real (E/O gauge)" if _in_gauge(_step_gates(spec, 1.0)) else "complex"


def trotter_error_grid(
    spec: HamiltonianSpec, t: float, Ms: Sequence[int], orders: Sequence[int]
) -> list[list[float]]:
    """||e^{-iHt} - T^M|| for every order and every M, as the maximum over
    symmetry blocks: row o holds orders[o]'s errors at Ms.

    The whole grid is checked before any block is computed.
    """
    grid = [(order, M) for order in orders for M in Ms]
    errs = np.zeros(len(grid))
    for _, _, where, _, norms in _error_stacks(spec, t, grid):
        errs[where] = np.maximum(errs[where], norms)
    return errs.reshape(len(orders), len(Ms)).tolist()


def trotter_operator_errors(
    spec: HamiltonianSpec, t: float, Ms: Sequence[int], order: int
) -> list[float]:
    """||e^{-iHt} - T^M|| for every M at one order (see trotter_error_grid)."""
    return trotter_error_grid(spec, t, Ms, [order])[0]


def trotter_operator_error(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> float:
    """Spectral norm of e^{-iHt} - T^M (see trotter_operator_errors)."""
    return trotter_operator_errors(spec, t, [M], order)[0]


def l1_unitary_bound_check(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> tuple[float, float]:
    """(sum_x |p - p'|, 4 ||U - T^M||); the first never exceeds the second.

    y0 lies on E, where the gauge is 1, so its columns carry the
    probabilities |.|^2 unchanged.
    """
    (y0,) = hamming_class_states(spec.n, 0)  # X_0 holds y0 alone
    l1, norm = 0.0, 0.0
    for block, exact, _, (power,), (err,) in _error_stacks(spec, t, [(order, M)]):
        col = block.pos[y0]
        if col >= 0:
            p_exact, p_trotter = np.abs(exact[:, col]) ** 2, np.abs(power[:, col]) ** 2
            l1 = float(np.sum(np.abs(p_exact - p_trotter)))
        norm = max(norm, float(err))
    bound = 4.0 * norm
    if l1 > bound + 1e-9:
        raise RuntimeError(
            f"distribution distance {l1:.3e} exceeds the unitary bound {bound:.3e}"
        )
    return l1, bound


# -- nested commutator sums ------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAIRS = {
    Kind.H1: ("xx",),
    Kind.H2: ("xx", "zz"),
    Kind.H3: ("xx", "yy"),
    Kind.H4: ("xx", "yy", "zz"),
}


def _term_sites_and_coeffs(spec: HamiltonianSpec):
    n = spec.n
    scale = n if spec.kind in (Kind.H1, Kind.H2) else 2 * n
    return [
        ((i, n + j), spec.couplings.entries[i, j] / scale)
        for i in range(n)
        for j in range(n)
    ]


def _embed_term(sites, coeff, pairs, joint):
    """Sum of Pauli-pair products on `sites`, embedded in the joint sites."""
    dim = 1 << len(joint)
    out = np.zeros((dim, dim), dtype=complex)
    for pair in pairs:
        m = np.array([[1.0 + 0j]])
        for s in joint:  # joint[k] is bit k of the local index
            if s == sites[0]:
                f = _PAULI[pair[0]]
            elif s == sites[1]:
                f = _PAULI[pair[1]]
            else:
                f = _I2
            m = np.kron(f, m)
        out += m
    return coeff * out


def upsilon(spec: HamiltonianSpec, p: int) -> float:
    """Sum of nested-commutator spectral norms over all term (p+1)-tuples.

    Each norm is evaluated exactly on the joint support subspace of the
    participating terms (at most 6 sites), so the cost never touches the
    4^n-dimensional space.  Tuples whose supports cannot overlap are
    skipped; their commutators vanish identically.
    """
    if spec.n > 6:
        raise ValueError("nested-commutator sums are limited to n <= 6")
    if p not in (1, 2):
        raise ValueError("only p in {1, 2} is supported")
    terms = _term_sites_and_coeffs(spec)
    pairs = _PAIRS[spec.kind]
    total = 0.0
    for sa, ca in terms:
        for sb, cb in terms:
            if not set(sa) & set(sb):
                continue
            joint_ab = tuple(sorted(set(sa) | set(sb)))
            if p == 1:
                ha = _embed_term(sa, ca, pairs, joint_ab)
                hb = _embed_term(sb, cb, pairs, joint_ab)
                k1 = hb @ ha - ha @ hb  # anti-hermitian
                total += float(np.max(np.abs(np.linalg.eigvalsh(1j * k1))))
                continue
            support = set(sa) | set(sb)
            for sc, cc in terms:
                if not support & set(sc):
                    continue
                joint = tuple(sorted(support | set(sc)))
                ha = _embed_term(sa, ca, pairs, joint)
                hb = _embed_term(sb, cb, pairs, joint)
                hc = _embed_term(sc, cc, pairs, joint)
                k1 = hb @ ha - ha @ hb
                k2 = hc @ k1 - k1 @ hc  # hermitian
                total += float(np.max(np.abs(np.linalg.eigvalsh(k2))))
    return total


# -- gate budgets ----------------------------------------------------------


def gate_count_plan(n: int, t0: float, eps_t: float, P: float) -> int:
    """2 n^2 M gates with M = ceil sqrt(P n^3 t0^3 / eps_t)."""
    if n < 1 or t0 <= 0 or eps_t <= 0 or P <= 0:
        raise ValueError("all planner arguments must be positive")
    M = math.ceil(math.sqrt(P * n**3 * t0**3 / eps_t))
    return 2 * n * n * M


def estimate_prefactor(
    n: int,
    t0: float,
    M_grid: Sequence[int] | None = None,
    kind: Kind = Kind.H3,
    draws: int = 8,
    rng: Rng | None = None,
) -> float:
    """Fit measured second-order errors to eps = P n^3 t0^3 / M^2.

    Per coupling draw, a least-squares line through the origin against
    x = n^3 t0^3 / M^2 gives one P estimate; the result is the mean over
    draws.  Measured prefactors drift upward with n for every kind, so
    the fit is a regime calibration, not a universal constant.  The
    default model is the XY kind: at n = 5 its estimate reproduces
    CALIBRATED_PREFACTOR within a few percent, while the isotropic kind
    comes out 2-3x larger there; budgets planned for that kind deserve
    their own calibration pass.
    """
    if M_grid is None:
        M_grid = (8, 16, 32)
    if draws < 1:
        raise ValueError("draws must be positive")
    base = rng if rng is not None else Rng(0)
    xs = np.array([n**3 * t0**3 / M**2 for M in M_grid])
    estimates = []
    for d in range(draws):
        spec = HamiltonianSpec(kind, sample_coupling(n, base.substream(d)))
        errs = np.array(trotter_operator_errors(spec, t0, M_grid, 2))
        estimates.append(float(np.sum(errs * xs) / np.sum(xs * xs)))
    return float(np.mean(estimates))
