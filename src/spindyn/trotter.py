"""Product-formula circuits: construction, exact error norms, gate budgets.

A circuit is an ordered list of two-spin rotations, each acting on one
sigma-site and one tau-site.  Exponentials of the five supported Pauli
pairs have closed forms: a gate maps each basis state's amplitude to a
mix of itself and its partner under the double flip, so sequences can be
applied to states or accumulated into dense unitaries without any series
expansion.

Gates read each site's flip partners from a `core.Basis`, the same rows
the Hamiltonian is laid out from: the full basis for `apply_sequence`,
each symmetry block for the error algebra.

Error norms run block by block.  The XX+YY and XX+YY+ZZ gates (H3, H4)
conserve Hamming weight and the class-I gates (H1, H2) conserve Z-parity,
so e^{-iHt} and the product formula are both block-diagonal in that
partition (2n+1 weight blocks or 2 parity blocks, from
`hamiltonian.symmetry_blocks`).
Each block's H is `hamiltonian.dense_matrix` on that block, never a
slice of the whole 4^n matrix, and is diagonalised once per call and
shared by every step count M;
||e^{-iHt} - T^M|| is the largest singular value over the blocks of
U_b - S_b^M, where S_b is one step applied inside block b.  A spin flip
that commutes with every gate pairs blocks of equal error, so only one
block of each mirror pair is computed (`_error_blocks`).  All dense
algebra runs on numpy's LAPACK, so one BLAS thread pool serves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Basis, HamiltonianSpec, Kind, Rng, hamming_class_states, sample_coupling
from .hamiltonian import dense_matrix, symmetry_blocks

_TAGS = ("XX", "YY", "ZZ", "XX+YY", "XX+YY+ZZ")
_DENSE_MAX_DIM = 4096

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

    def gate_count(self) -> int:
        return len(self.gates)


def _gate_coefficients(tag: str, th: float) -> tuple[complex, complex, complex, complex]:
    """(a, b) for rows whose two bits agree, then for rows where they differ."""
    c, s = math.cos(th), math.sin(th)
    if tag == "XX":
        return c, -1j * s, c, -1j * s
    if tag == "YY":
        return c, 1j * s, c, -1j * s
    if tag == "ZZ":
        return np.exp(-1j * th), 0.0, np.exp(1j * th), 0.0
    if tag == "XX+YY":
        # pure hopping of amplitude 2 between the two differing states
        return 1.0, 0.0, math.cos(2 * th), -1j * math.sin(2 * th)
    # XX+YY+ZZ: equal bits pick up e^{-i th}; the differing pair splits
    # into a symmetric (eigenvalue +1) and antisymmetric (-3) combination
    lo, hi = np.exp(-1j * th), np.exp(3j * th)
    return lo, 0.0, (lo + hi) / 2, (lo - hi) / 2


def _apply_gate(
    arr: np.ndarray, gate: Gate, flipped: np.ndarray, diff: np.ndarray
) -> np.ndarray:
    """Gate action on the first axis of a (rows,) or (rows, cols) array.

    Every gate maps row r to a_r arr[r] + b_r arr[flipped[r]], where the
    pair (a_r, b_r) depends only on whether the two addressed bits of
    state r differ, so the same code acts on the full basis and on any
    set of rows closed under the flip.  A row whose partner leaves the
    rows has flipped[r] = r and b_r = 0 (only the hopping gates, which
    leave equal-bit rows in place, run on such rows).
    """
    a_eq, b_eq, a_df, b_df = _gate_coefficients(gate.tag, gate.angle)
    a = np.where(diff, a_df, a_eq)
    b = np.where(diff, b_df, b_eq)
    if arr.ndim == 2:
        a, b = a[:, None], b[:, None]
    out = a * arr
    if b_eq or b_df:
        moved = arr[flipped]
        moved *= b
        out += moved
    return out


def _apply_gates(arr: np.ndarray, gates: Sequence[Gate], basis: Basis) -> np.ndarray:
    for g in gates:
        arr = _apply_gate(arr, g, basis.partner[g.i, g.j], basis.differ[g.i, g.j])
    return arr


def apply_sequence(seq: GateSequence, v: np.ndarray) -> np.ndarray:
    """Apply the gates in order to a full-basis state (or matrix columns)."""
    if v.shape[0] != 1 << (2 * seq.n):
        raise ValueError("state dimension does not match the gate layout")
    return _apply_gates(v.astype(complex, copy=True), seq.gates, Basis.full(seq.n))


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


def build_trotter(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> GateSequence:
    """M product-formula steps for e^{-iHt}; order 1 or 2 (Strang)."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    if spec.z_fields is not None:
        raise ValueError("the circuit model covers two-spin couplings only")
    dt = t / M
    if order == 1:
        step = _step_gates(spec, dt)
    else:
        half = _step_gates(spec, dt / 2)
        step = half + half[::-1]
    return GateSequence(spec.n, tuple(step * M))


# -- block-diagonal error algebra ------------------------------------------


def _step_matrix(gates: Sequence[Gate], block: Basis, order: int) -> np.ndarray:
    """One product-formula step (the gates of build_trotter) inside a block.

    Every gate is complex-symmetric and the Strang step is a palindrome,
    so at order 2 the step is A^T A with A the first half applied to the
    block identity: half the gate work for one block product.
    """
    eye = np.eye(block.dimension, dtype=complex)
    if order == 1:
        return _apply_gates(eye, gates, block)
    half = _apply_gates(eye, gates[: len(gates) // 2], block)
    return half.T @ half


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


def _block_products(spec: HamiltonianSpec, t: float, Ms: Sequence[int], order: int):
    """Per kept block (`_error_blocks`): (block index, exact U_b, [S_b^M for each M]).

    S_b is one product-formula step of size t/M applied inside the block;
    the exact part comes from one eigendecomposition per block, shared by
    every M.
    """
    _check_dense_dim(1 << (2 * spec.n))
    if any(M < 1 for M in Ms):
        raise ValueError("M must be at least 1")
    steps = [build_trotter(spec, t / M, 1, order).gates for M in Ms]
    for block in _error_blocks(spec.kind, spec.n):
        evals, evecs = np.linalg.eigh(dense_matrix(spec, block))
        exact = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
        powers = [
            np.linalg.matrix_power(_step_matrix(step, block, order), M)
            for step, M in zip(steps, Ms)
        ]
        yield block, exact, powers


def trotter_operator_errors(
    spec: HamiltonianSpec, t: float, Ms: Sequence[int], order: int
) -> list[float]:
    """||e^{-iHt} - T^M|| for every M, as the maximum over symmetry blocks."""
    errs = np.zeros(len(Ms))
    for _, exact, powers in _block_products(spec, t, Ms, order):
        block_errs = [np.linalg.norm(exact - p, 2) for p in powers]
        errs = np.maximum(errs, block_errs)
    return [float(e) for e in errs]


def trotter_operator_error(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> float:
    """Spectral norm of e^{-iHt} - T^M (see trotter_operator_errors)."""
    return trotter_operator_errors(spec, t, [M], order)[0]


def l1_unitary_bound_check(
    spec: HamiltonianSpec, t: float, M: int, order: int
) -> tuple[float, float]:
    """(sum_x |p - p'|, 4 ||U - T^M||); the first never exceeds the second."""
    (y0,) = hamming_class_states(spec.n, 0)  # X_0 holds y0 alone
    l1, norm = 0.0, 0.0
    for block, exact, (power,) in _block_products(spec, t, [M], order):
        col = block.pos[y0]
        if col >= 0:
            p_exact, p_trotter = np.abs(exact[:, col]) ** 2, np.abs(power[:, col]) ** 2
            l1 = float(np.sum(np.abs(p_exact - p_trotter)))
        norm = max(norm, float(np.linalg.norm(exact - power, 2)))
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
