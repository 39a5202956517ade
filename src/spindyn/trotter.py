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
(`_error_blocks`).

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
`hamiltonian.spectral_parts` gives the same two-sided parts
(omega, (P, V)) the dense `evolve.Propagator` reads, once per call for
every step count M.  For the chiral kinds that is one eigh of B B^T,
half the block, and G^H e^{-iHt} G = cos(Ht) + Pi sin(Ht) is
real: P cos(omega t) P^T on E x E, P (sin(omega t) / omega) V^T on E x O,
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
    partner, and sign (a column) is +1 on the E rows and -1 on the O
    rows.  A part that holds every row of the basis is the slice of all
    rows, so its gates run on the whole array in place.  Pi is +1 on E
    and -1 on O.  Like the flip index, every array is read-only and shared.
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
                    parts[part] = (slice(None), partner, pi[:, None])
                    continue
                sign = np.r_[np.ones(e.size), -np.ones(e.size)][:, None]
                parts[part] = (np.r_[e, partner[e]], np.r_[partner[e], e], sign)
                for arr in parts[part]:
                    arr.flags.writeable = False
            row.append(parts)
        pairs.append(row)
    return pairs, pi


def _apply_gates(arr: np.ndarray, gates: Sequence[Gate], basis: Basis) -> np.ndarray:
    """Apply the gates in order to the first axis of a (rows,) or (rows,
    cols) array, in place, and return it.

    Every gate mixes the two rows of each flip pair (`_flip_pairs`) and
    leaves or phases the rest, so the same code acts on the full basis
    and on any set of rows closed under the gates' flips.  If
    `_in_gauge(gates)`, each gate acts as G^H g G with G = diag(1 on E,
    i on O): a pair's b becomes i b on its E row and -i b on its O row,
    both real, so a real array stays real.  Otherwise G = I and the array
    must be complex.
    """
    pairs = _flip_pairs(basis)[0]
    gauge = _in_gauge(gates)
    cols = arr.reshape(arr.shape[0], -1)  # a view: a vector is one column
    for g in gates:
        phase, moves = _gate_moves(g.tag, g.angle)
        if phase != 1.0:
            cols *= phase
        for part, a, b in moves:
            rows, swapped, sign = pairs[g.i][g.j][part]
            mixed, moved = cols[rows], cols[swapped]
            mixed *= a
            moved *= sign * -b.imag if gauge else b
            mixed += moved
            cols[rows] = mixed
    return arr


def apply_sequence(seq: GateSequence, v: np.ndarray) -> np.ndarray:
    """Apply the gates in order to a full-basis state (or matrix columns)."""
    if v.shape[0] != 1 << (2 * seq.n):
        raise ValueError("state dimension does not match the gate layout")
    basis = Basis.full(seq.n)
    arr = v.astype(complex, copy=True)
    if not _in_gauge(seq.gates):
        return _apply_gates(arr, seq.gates, basis)
    odd = parity_sides(basis)[1]
    arr[odd] *= -1j  # G^H v
    _apply_gates(arr, seq.gates, basis)
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
    """One product-formula step (the gates of build_trotter) inside a
    block, in the gauge `_apply_gates` takes: real for flip-only gates.

    Every gate is complex-symmetric and the Strang step is a palindrome,
    so at order 2 the step is A^T A with A the first half applied to the
    block identity: half the gate work for one block product.  In the E/O
    gauge, with A' = G^H A G and G^2 = Pi, that is (Pi A'^T Pi) A'.
    """
    gauge = _in_gauge(gates)
    eye = np.eye(block.dimension, dtype=float if gauge else complex)
    if order == 1:
        return _apply_gates(eye, gates, block)
    half = _apply_gates(eye, gates[: len(gates) // 2], block)
    if not gauge:
        return half.T @ half
    pi = _flip_pairs(block)[1]
    return (pi[:, None] * half.T * pi) @ half


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


def _block_products(spec: HamiltonianSpec, t: float, Ms: Sequence[int], order: int):
    """Per kept block (`_error_blocks`): (block, exact U_b, [S_b^M for each M]).

    S_b is one product-formula step of size t/M applied inside the block;
    the exact part comes from one eigendecomposition per block, shared by
    every M.  Both are in the gauge of the block's gates, which keeps the
    singular values of U_b - S_b^M (a unitary similarity).
    """
    _check_dense_dim(1 << (2 * spec.n))
    if any(M < 1 for M in Ms):
        raise ValueError("M must be at least 1")
    steps = [build_trotter(spec, t / M, 1, order).gates for M in Ms]
    for block in _error_blocks(spec.kind, spec.n):
        exact = _exact_part(spec, block, t)
        powers = [
            np.linalg.matrix_power(_step_matrix(step, block, order), M)
            for step, M in zip(steps, Ms)
        ]
        yield block, exact, powers


def _block_error(exact: np.ndarray, power: np.ndarray) -> float:
    """||U_b - S_b^M||: the largest singular value, from a values-only SVD."""
    return float(np.linalg.svd(exact - power, compute_uv=False)[0])


def block_arithmetic(spec: HamiltonianSpec) -> str:
    """The arithmetic of `spec`'s block error algebra, as reports name it:
    "real (E/O gauge)" when its gates only flip spins (H1, H3), else
    "complex"."""
    return "real (E/O gauge)" if _in_gauge(_step_gates(spec, 1.0)) else "complex"


def trotter_operator_errors(
    spec: HamiltonianSpec, t: float, Ms: Sequence[int], order: int
) -> list[float]:
    """||e^{-iHt} - T^M|| for every M, as the maximum over symmetry blocks."""
    errs = np.zeros(len(Ms))
    for _, exact, powers in _block_products(spec, t, Ms, order):
        errs = np.maximum(errs, [_block_error(exact, p) for p in powers])
    return [float(e) for e in errs]


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
    for block, exact, (power,) in _block_products(spec, t, [M], order):
        col = block.pos[y0]
        if col >= 0:
            p_exact, p_trotter = np.abs(exact[:, col]) ** 2, np.abs(power[:, col]) ** 2
            l1 = float(np.sum(np.abs(p_exact - p_trotter)))
        norm = max(norm, _block_error(exact, power))
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
