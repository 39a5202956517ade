"""Circuit construction, gate closed forms, error scaling, and budgets."""

import math

import numpy as np
import pytest
import scipy.linalg

from spindyn.core import Basis, BitString, HamiltonianSpec, Kind, Rng, sample_coupling
from spindyn.hamiltonian import dense_matrix, parity_sides, stacked_half_steps, symmetry_blocks
from spindyn import trotter
from spindyn.trotter import (
    _apply_gates,
    _error_blocks,
    _error_stacks,
    _gate_table,
    _powers,
    _steps,
    CALIBRATED_PREFACTOR,
    Gate,
    GateSequence,
    apply_sequence,
    build_trotter,
    estimate_prefactor,
    gate_count_plan,
    l1_unitary_bound_check,
    sequence_unitary,
    trotter_error_grid,
    trotter_operator_error,
    trotter_operator_errors,
    upsilon,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"X": SX, "Y": SY, "Z": SZ}


def op_at(op, pos, total):
    return np.kron(np.eye(1 << (total - 1 - pos)), np.kron(op, np.eye(1 << pos)))


def gate_oracle(gate, n):
    """expm of the generator, built from explicit Pauli tensor products."""
    total = 2 * n
    gen = np.zeros((1 << total, 1 << total), dtype=complex)
    for pair in gate.tag.split("+"):
        gen += op_at(PAULI[pair[0]], gate.i, total) @ op_at(
            PAULI[pair[1]], n + gate.j, total
        )
    return scipy.linalg.expm(-1j * gate.angle * gen)


def random_spec(kind, n, seed):
    return HamiltonianSpec(kind, sample_coupling(n, Rng(seed)))


def apply_gates(arr, gates, block):
    """Apply one gate sequence to the rows of arr in place (a table of one slice)."""
    _apply_gates(arr[:, None], _gate_table([gates]), block)
    return arr


def step_matrix(gates, block, order):
    """One step of build_trotter's gates inside the block, as `_steps`
    builds it: from the first half of the gates at order 2."""
    if order == 1:
        return _steps(_gate_table([gates]), block, [])[0]
    return _steps(_gate_table([gates[: len(gates) // 2]]), block, [0])[0]


# -- gates -----------------------------------------------------------------


@pytest.mark.parametrize("tag", ["XX", "YY", "ZZ", "XX+YY", "XX+YY+ZZ"])
@pytest.mark.parametrize("ij", [(0, 0), (1, 0), (0, 1)])
def test_gate_closed_form_matches_expm(tag, ij):
    gate = Gate(ij[0], ij[1], tag, 0.73)
    seq = GateSequence(2, (gate,))
    got = sequence_unitary(seq)
    want = gate_oracle(gate, 2)
    assert np.max(np.abs(got - want)) < 1e-12


def test_gates_are_unitary():
    g = Rng(3).generator()
    gates = tuple(
        Gate(int(g.integers(2)), int(g.integers(2)), tag, float(g.standard_normal()))
        for tag in ("XX", "YY", "ZZ", "XX+YY", "XX+YY+ZZ")
    )
    U = sequence_unitary(GateSequence(2, gates))
    assert np.max(np.abs(U @ U.conj().T - np.eye(16))) < 1e-12


def test_apply_sequence_matches_unitary():
    spec = random_spec(Kind.H4, 2, 5)
    seq = build_trotter(spec, 1.3, 2, 2)
    g = Rng(7).generator()
    v = g.standard_normal(16) + 1j * g.standard_normal(16)
    assert np.max(np.abs(apply_sequence(seq, v) - sequence_unitary(seq) @ v)) < 1e-12


def test_sequence_validation():
    with pytest.raises(ValueError):
        GateSequence(2, (Gate(2, 0, "XX", 0.1),))
    with pytest.raises(ValueError):
        GateSequence(2, (Gate(0, 0, "XY", 0.1),))
    with pytest.raises(ValueError):
        GateSequence(2, (Gate(0, 0, "XX", float("nan")),))
    with pytest.raises(ValueError):
        apply_sequence(GateSequence(2, ()), np.zeros(8))


# -- build_trotter ---------------------------------------------------------


def test_gate_counts():
    spec = random_spec(Kind.H3, 2, 13)
    for M in (1, 3, 7):
        assert len(build_trotter(spec, 1.0, M, 1).gates) == 4 * M
        assert len(build_trotter(spec, 1.0, M, 2).gates) == 8 * M


def test_first_order_step_structure():
    spec = random_spec(Kind.H1, 2, 17)
    J = spec.couplings.entries
    seq = build_trotter(spec, 3.0, 3, 1)
    step = seq.gates[:4]
    assert [(g.i, g.j) for g in step] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for g in step:
        assert g.tag == "XX"
        assert g.angle == pytest.approx(J[g.i, g.j] / 2.0, rel=1e-12)
    assert seq.gates[4:8] == step and seq.gates[8:] == step


def test_second_order_step_is_palindrome():
    spec = random_spec(Kind.H4, 3, 19)
    seq = build_trotter(spec, 2.0, 2, 2)
    per_step = len(seq.gates) // 2
    step = seq.gates[:per_step]
    assert step == tuple(reversed(step))
    assert seq.gates[per_step:] == step


def test_h2_emits_commuting_pair():
    spec = random_spec(Kind.H2, 2, 23)
    seq = build_trotter(spec, 1.0, 1, 1)
    tags = [g.tag for g in seq.gates]
    assert tags == ["XX", "ZZ"] * 4
    assert seq.gates[0].angle == seq.gates[1].angle


def test_build_trotter_validation():
    spec = random_spec(Kind.H1, 2, 29)
    with pytest.raises(ValueError):
        build_trotter(spec, 1.0, 0, 1)
    with pytest.raises(ValueError):
        build_trotter(spec, 1.0, 1, 3)
    g = Rng(31).generator()
    with_fields = HamiltonianSpec(
        Kind.H1, spec.couplings, z_fields=(g.standard_normal(2), g.standard_normal(2))
    )
    with pytest.raises(ValueError):
        build_trotter(with_fields, 1.0, 1, 1)


# -- error norms -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h1_trotterization_is_exact(n):
    spec = random_spec(Kind.H1, n, 37 + n)
    for M in (1, 2, 5):
        assert trotter_operator_error(spec, 1.7, M, 1) < 1e-10


@pytest.mark.parametrize("kind", [Kind.H3, Kind.H4])
def test_error_scaling_orders(kind):
    spec = random_spec(kind, 3, 41)
    errs2 = [trotter_operator_error(spec, 2.0, M, 2) for M in (8, 16, 32, 64)]
    errs1 = [trotter_operator_error(spec, 2.0, M, 1) for M in (8, 16, 32, 64)]
    for lo, hi in zip(errs2, errs2[1:]):
        assert hi / lo == pytest.approx(0.25, rel=0.15)
    for lo, hi in zip(errs1, errs1[1:]):
        assert hi / lo == pytest.approx(0.5, rel=0.15)
    slope2 = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs2), 1)[0]
    slope1 = np.polyfit(np.log([8, 16, 32, 64]), np.log(errs1), 1)[0]
    assert abs(slope2 + 2) < 0.15 and abs(slope1 + 1) < 0.15


def full_space_pair(spec, t, M, order):
    """(e^{-iHt}, T^M) on the whole 4^n space: expm and a dense step power."""
    h = dense_matrix(spec, Basis.full(spec.n))
    step = sequence_unitary(build_trotter(spec, t / M, 1, order))
    return scipy.linalg.expm(-1j * h * t), np.linalg.matrix_power(step, M)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_error_matches_full_space_oracle(kind, n):
    spec = random_spec(kind, n, 83 + n)
    for order in (1, 2):
        for M in (1, 3, 8):
            U, TM = full_space_pair(spec, 1.4, M, order)
            want = scipy.linalg.svdvals(U - TM)[0]
            assert abs(trotter_operator_error(spec, 1.4, M, order) - want) <= 1e-12


@pytest.mark.parametrize("kind", list(Kind))
def test_error_list_equals_singles_bit_for_bit(kind):
    spec = random_spec(kind, 3, 89)
    Ms = [1, 3, 8, 16]
    for order in (1, 2):
        many = trotter_operator_errors(spec, 2.1, Ms, order)
        assert many == [trotter_operator_error(spec, 2.1, M, order) for M in Ms]


@pytest.mark.parametrize("kind", list(Kind))
def test_strang_step_from_half_step_matches_every_gate(kind):
    # the order-2 step is built as A^T A from the half step A; applying
    # the whole palindrome gate by gate must give the same block matrix
    n = 3
    spec = random_spec(kind, n, 91)
    gates = build_trotter(spec, 0.8, 1, 2).gates
    for block in symmetry_blocks(kind, n)[1]:
        eye = np.eye(block.dimension, dtype=complex)
        want = apply_gates(eye, gates, block)
        assert np.max(np.abs(step_matrix(gates, block, 2) - want)) <= 1e-13
        assert np.array_equal(step_matrix(gates, block, 1), want)


@pytest.mark.parametrize("kind", list(Kind))
def test_step_unitary_is_block_diagonal(kind):
    n = 3
    spec = random_spec(kind, n, 97)
    U = sequence_unitary(build_trotter(spec, 0.9, 1, 2))
    weight = np.array([bin(s).count("1") for s in range(1 << (2 * n))])
    label = weight % 2 if kind in (Kind.H1, Kind.H2) else weight
    off_block = label[:, None] != label[None, :]
    assert np.all(U[off_block] == 0)
    symmetry, blocks = symmetry_blocks(kind, n)
    assert [b.dimension for b in blocks] == np.bincount(label).tolist()
    assert symmetry == ("parity" if kind in (Kind.H1, Kind.H2) else "weight")


@pytest.mark.parametrize("kind", list(Kind))
def test_blocks_share_the_cached_flip_index(kind):
    n = 3
    blocks = symmetry_blocks(kind, n)[1]
    assert all(a is b for a, b in zip(blocks, symmetry_blocks(kind, n)[1]))
    states = np.sort(np.concatenate([b.states for b in blocks]))
    assert np.array_equal(states, np.arange(1 << (2 * n)))
    if kind in (Kind.H3, Kind.H4):
        assert blocks[n] is Basis.sector(n)
    for block in blocks:
        steps = (stacked_half_steps([random_spec(kind, n, s)], block) for s in (1, 2))
        for a, b in zip(*steps):
            assert np.shares_memory(a.indptr, b.indptr)
            # the chiral split of weight 0 or 2n stores no entries to share
            assert a.indices.size == 0 or np.shares_memory(a.indices, b.indices)
        with pytest.raises(ValueError, match="read-only"):
            block.partner.flat[0] = 0


def gauge(block):
    """The diagonal of G: 1 on the even sigma-parity rows E, i on O."""
    g = np.ones(block.dimension, dtype=complex)
    g[parity_sides(block)[1]] = 1j
    return g


def original_basis(step, block):
    """G S' G^H: a step of `step_matrix` back in the block's own basis
    (only real steps, those of flip-only gates, are in the E/O gauge)."""
    if np.iscomplexobj(step):
        return step
    g = gauge(block)
    return g[:, None] * step * g.conj()


def assert_flip_maps_block(spec, src, dst, mask):
    """Flipping the spins in `mask` carries H and every step from src onto dst."""
    perm = dst.pos[src.states ^ mask]
    assert np.array_equal(np.sort(perm), np.arange(dst.dimension))
    moved = np.ix_(perm, perm)
    h_src, h_dst = (dense_matrix(spec, b) for b in (src, dst))
    assert np.array_equal(h_dst[moved], h_src)
    for order in (1, 2):
        gates = build_trotter(spec, 0.7, 1, order).gates
        s_src, s_dst = (
            original_basis(step_matrix(gates, b, order), b) for b in (src, dst)
        )
        assert np.max(np.abs(s_dst[moved] - s_src)) <= 1e-14


@pytest.mark.parametrize("kind", [Kind.H3, Kind.H4])
@pytest.mark.parametrize("n", [2, 3])
def test_global_flip_pairs_weight_blocks(kind, n):
    spec = random_spec(kind, n, 107 + n)
    blocks = symmetry_blocks(kind, n)[1]
    for w in range(2 * n + 1):
        assert_flip_maps_block(spec, blocks[w], blocks[2 * n - w], (1 << (2 * n)) - 1)
    assert _error_blocks(kind, n) == blocks[: n + 1]


@pytest.mark.parametrize("n", [2, 3])
def test_sigma0_flip_pairs_h1_parity_blocks(n):
    spec = random_spec(Kind.H1, n, 113 + n)
    even, odd = symmetry_blocks(Kind.H1, n)[1]
    assert_flip_maps_block(spec, even, odd, 1)
    assert_flip_maps_block(spec, odd, even, 1)
    assert _error_blocks(Kind.H1, n) == [(even, odd)[n % 2]]


@pytest.mark.parametrize("n", [2, 3])
def test_h2_parity_blocks_are_not_paired(n):
    # the ZZ terms on sigma_0 anticommute with its flip: the two parity
    # blocks have different spectra, and on this n = 2 draw different
    # errors, so both are kept
    spec = random_spec(Kind.H2, n, 127)
    spectra = [
        np.linalg.eigvalsh(dense_matrix(spec, b))
        for b in symmetry_blocks(Kind.H2, n)[1]
    ]
    assert np.max(np.abs(spectra[0] - spectra[1])) > 0.1
    errs = [
        np.linalg.norm(exact - power, 2)
        for _, exact, _, (power,), _ in _error_stacks(spec, 1.3, [(2, 4)])
    ]
    assert len(errs) == 2
    if n == 2:
        assert abs(errs[0] - errs[1]) > 0.1 * max(errs)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [2, 3])
def test_kept_blocks_hold_y0(kind, n):
    y0 = BitString.y0(n).index()
    assert sum(int(b.pos[y0] >= 0) for b in _error_blocks(kind, n)) == 1


@pytest.mark.parametrize("kind", [Kind.H1, Kind.H3])
@pytest.mark.parametrize("n", [2, 3])
def test_chiral_blocks_run_real_in_the_eo_gauge(kind, n):
    # every matrix of a chiral kind's error algebra is real in the gauge
    # G = diag(1 on E, i on O): the step is G^H (the complex gate product)
    # G and the exact part G^H e^{-iHt} G, a real orthogonal matrix
    spec = random_spec(kind, n, 131 + n)
    t = 1.1
    for order in (1, 2):
        gates = build_trotter(spec, t, 1, order).gates
        product = np.eye(1 << (2 * n), dtype=complex)
        for gate in gates:
            product = gate_oracle(gate, n) @ product
        for block in _error_blocks(kind, n):
            step = step_matrix(gates, block, order)
            assert step.dtype == np.float64
            g = gauge(block)
            want = g.conj()[:, None] * product[np.ix_(block.states, block.states)] * g
            assert np.max(np.abs(step - want)) <= 1e-13
    for block, exact, *_ in _error_stacks(spec, t, [(2, 1)]):
        assert exact.dtype == np.float64
        assert np.max(np.abs(exact.T @ exact - np.eye(block.dimension))) <= 1e-13
        g = gauge(block)
        want = scipy.linalg.expm(-1j * t * dense_matrix(spec, block))
        assert np.max(np.abs(exact - g.conj()[:, None] * want * g)) <= 1e-13


# ||e^{-iHt} - T^M|| at t = ln n, J from sample_coupling(n, Rng(seed)), as
# the complex block algebra computed it with one BLAS thread: (kind, n,
# seed, order) -> errors at M = 8 (and 64).  H1's are rounding zeros.
PINNED_ERRORS = {
    (Kind.H3, 5, 0, 2): [0.0018670475611672183],
    (Kind.H3, 5, 1, 2): [0.0024223109138043924],
    (Kind.H3, 5, 2, 2): [0.002218053428241389],
    (Kind.H3, 5, 3, 2): [0.0022668094174487737],
    (Kind.H1, 4, 0, 1): [7.0178456052580966e-15, 1.6212752379275205e-14],
    (Kind.H1, 4, 0, 2): [7.652918714653163e-15, 3.65447500281151e-14],
    (Kind.H2, 4, 0, 1): [0.20236935357111988, 0.025360201768900293],
    (Kind.H2, 4, 0, 2): [0.007086659273665195, 0.00011075967466879655],
    (Kind.H3, 4, 0, 1): [0.056501967894611545, 0.007064995881640914],
    (Kind.H3, 4, 0, 2): [0.0010212064676437, 1.5958293892508578e-05],
    (Kind.H4, 4, 0, 1): [0.07914976468103654, 0.00983062475499785],
    (Kind.H4, 4, 0, 2): [0.001954815006546795, 3.0546406779129446e-05],
}


@pytest.mark.parametrize(
    "case", list(PINNED_ERRORS), ids=lambda c: f"{c[0].value}-n{c[1]}-seed{c[2]}-order{c[3]}"
)
def test_errors_match_the_complex_block_algebra(case):
    # 1e-12 relative, plus 1e-14 absolute: the rounding floor of a 64-step
    # power, where both the complex and the real algebra lie up to 7e-15
    # from an 80-bit computation of the same H3 and H4 errors at n = 3, 4;
    # H1's rounding zeros are held at 1e-12 absolute
    kind, n, seed, order = case
    want = PINNED_ERRORS[case]
    Ms = [8, 64][: len(want)]
    got = trotter_operator_errors(random_spec(kind, n, seed), math.log(n), Ms, order)
    for g, w in zip(got, want):
        if kind is Kind.H1:
            assert abs(g - w) <= 1e-12
        else:
            assert abs(g - w) <= 1e-12 * w + 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
def test_power_ladder_makes_the_products_of_matrix_power(dtype):
    # one ladder for a stack of steps: each power, M = 1 and M = 3
    # included, has the bits of np.linalg.matrix_power on its step alone
    rng = np.random.default_rng(151)
    ms = [40, 33, 32, 17, 8, 8, 7, 5, 4, 3, 3, 2, 1]
    stack = rng.standard_normal((len(ms), 6, 6)).astype(dtype) / 2.5
    if dtype is complex:
        stack += 1j * rng.standard_normal(stack.shape) / 2.5
    got = _powers(stack.copy(), ms)
    for s, M in enumerate(ms):
        want = np.linalg.matrix_power(stack[s], M)
        assert np.array_equal(got[s], want), M
        assert np.array_equal(_powers(stack[s : s + 1].copy(), [M])[0], want), M


@pytest.mark.parametrize("kind", list(Kind))
def test_grid_slice_groups_keep_every_bit(kind, monkeypatch):
    # the grid in one stack, with orders given as 2,1 and a repeated M,
    # has the bits of one group per slice and of a grid of one per slice
    spec = random_spec(kind, 3, 139)
    Ms, orders = [3, 1, 8, 2, 3], [2, 1]
    whole = trotter_error_grid(spec, 1.9, Ms, orders)
    singles = [[trotter_error_grid(spec, 1.9, [M], [o])[0][0] for M in Ms] for o in orders]
    assert whole == singles
    monkeypatch.setattr(trotter, "_GRID_BYTES", 1)
    assert trotter_error_grid(spec, 1.9, Ms, orders) == whole
    assert trotter_operator_errors(spec, 1.9, Ms, 1) == whole[1]


def test_grid_is_checked_before_any_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was computed")

    monkeypatch.setattr(trotter, "_exact_part", refuse)
    spec = random_spec(Kind.H3, 2, 149)
    for Ms, orders in (([4], [1, 3]), ([4, 0], [2]), ([0], [3])):
        with pytest.raises(ValueError):
            trotter_error_grid(spec, 1.0, Ms, orders)
    assert trotter_error_grid(spec, 1.0, [], [1, 2]) == [[], []]


def test_error_rejects_nonpositive_step_count():
    with pytest.raises(ValueError):
        trotter_operator_errors(random_spec(Kind.H3, 2, 101), 1.0, [4, 0], 2)


def test_error_dimension_guard():
    spec = random_spec(Kind.H3, 7, 43)
    with pytest.raises(ValueError):
        trotter_operator_error(spec, 1.0, 2, 2)


# -- upsilon ---------------------------------------------------------------


def naive_upsilon1(spec):
    """All-pairs sum on the full 4^n space, no support pruning."""
    n = spec.n
    total = 2 * n
    scale = n if spec.kind in (Kind.H1, Kind.H2) else 2 * n
    pair_ops = {
        Kind.H1: ["XX"],
        Kind.H2: ["XX", "ZZ"],
        Kind.H3: ["XX", "YY"],
        Kind.H4: ["XX", "YY", "ZZ"],
    }[spec.kind]
    terms = []
    for i in range(n):
        for j in range(n):
            h = np.zeros((1 << total, 1 << total), dtype=complex)
            for tag in pair_ops:
                h += op_at(PAULI[tag[0]], i, total) @ op_at(PAULI[tag[1]], n + j, total)
            terms.append(spec.couplings.entries[i, j] / scale * h)
    total_sum = 0.0
    for ha in terms:
        for hb in terms:
            total_sum += scipy.linalg.svdvals(hb @ ha - ha @ hb)[0]
    return total_sum


def test_upsilon_h1_vanishes():
    assert upsilon(random_spec(Kind.H1, 3, 47), 1) == 0.0
    assert upsilon(random_spec(Kind.H1, 2, 47), 2) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_upsilon_pruning_matches_naive_sum(n):
    spec = random_spec(Kind.H3, n, 53 + n)
    assert upsilon(spec, 1) == pytest.approx(naive_upsilon1(spec), rel=1e-8)


def test_upsilon_linear_growth():
    ratios = []
    for n in range(2, 7):
        spec = random_spec(Kind.H3, n, 59 + n)
        ratios.append(upsilon(spec, 1) / n)
    assert max(ratios) < 2.5


def test_upsilon_second_order_positive():
    assert upsilon(random_spec(Kind.H4, 2, 61), 2) > 0


def test_upsilon_guards():
    spec = random_spec(Kind.H3, 2, 67)
    with pytest.raises(ValueError):
        upsilon(spec, 3)
    with pytest.raises(ValueError):
        upsilon(random_spec(Kind.H3, 7, 67), 1)


# -- gate budgets ----------------------------------------------------------


def test_gate_count_plan_anchors():
    t0 = 5 * math.log(100)
    for eps, anchor in [(1e-1, 1.2e8), (1e-2, 3.8e8), (1e-3, 1.2e9)]:
        got = gate_count_plan(100, t0, eps, CALIBRATED_PREFACTOR)
        assert got == pytest.approx(anchor, rel=0.1)


def test_gate_count_plan_closed_form():
    g = Rng(71).generator()
    for _ in range(50):
        n = int(g.integers(1, 200))
        t0 = float(g.uniform(0.1, 50))
        eps = float(g.uniform(1e-4, 1.0))
        P = float(g.uniform(1e-5, 1e-2))
        want = 2 * n * n * math.ceil(math.sqrt(P * n**3 * t0**3 / eps))
        assert gate_count_plan(n, t0, eps, P) == want


def test_gate_count_plan_validation():
    with pytest.raises(ValueError):
        gate_count_plan(0, 1.0, 0.1, 1e-4)
    with pytest.raises(ValueError):
        gate_count_plan(2, 1.0, -0.1, 1e-4)


def test_prefactor_h1_is_negligible():
    P = estimate_prefactor(2, 2.0, M_grid=(4, 8), kind=Kind.H1, draws=2)
    assert abs(P) < 1e-10


def test_prefactor_t0_doubling_stability():
    # grids scale with t0^{3/2} so both runs probe the same step-error
    # regime eps = P n^3 t0^3 / M^2; the isotropic kind's fit is the
    # t0-stable one at this configuration (the XY kind drifts ~1.5x)
    t0 = 3 * math.log(3)
    a = estimate_prefactor(3, t0, M_grid=(8, 16, 32), kind=Kind.H4, draws=4)
    b = estimate_prefactor(3, 2 * t0, M_grid=(24, 48, 96), kind=Kind.H4, draws=4)
    assert a > 0
    assert b / a == pytest.approx(1.0, abs=0.25)


def test_prefactor_validation():
    with pytest.raises(ValueError):
        estimate_prefactor(2, 1.0, draws=0)


# -- distribution distance -------------------------------------------------


def test_l1_bound_h1_both_vanish():
    spec = random_spec(Kind.H1, 2, 73)
    l1, bound = l1_unitary_bound_check(spec, 1.5, 3, 1)
    assert l1 < 1e-12 and bound < 1e-9


def test_l1_bound_holds_and_decays():
    spec = random_spec(Kind.H3, 3, 79)
    prev_l1, prev_bound = np.inf, np.inf
    for M in (4, 8, 16, 32):
        l1, bound = l1_unitary_bound_check(spec, 2.0, M, 2)
        assert l1 <= bound
        assert l1 < prev_l1 and bound < prev_bound
        prev_l1, prev_bound = l1, bound


@pytest.mark.parametrize("kind", list(Kind))
def test_l1_bound_matches_full_space_oracle(kind):
    spec = random_spec(kind, 3, 103)
    for order, M in ((1, 3), (2, 8)):
        U, TM = full_space_pair(spec, 1.6, M, order)
        col = BitString.y0(3).index()
        want_l1 = np.sum(np.abs(np.abs(U[:, col]) ** 2 - np.abs(TM[:, col]) ** 2))
        want_bound = 4.0 * scipy.linalg.svdvals(U - TM)[0]
        l1, bound = l1_unitary_bound_check(spec, 1.6, M, order)
        assert abs(l1 - want_l1) <= 1e-12
        assert abs(bound - want_bound) <= 4e-12
