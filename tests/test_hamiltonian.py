import math
import tracemalloc

import numpy as np
import pytest

from spindyn import core, hamiltonian
from spindyn.core import (
    Basis,
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Rng,
    StateVector,
    hamming_class,
    hamming_class_members,
    sample_coupling,
)
from spindyn.evolve import Propagator
from spindyn.hamiltonian import (
    DenseMemoryError,
    _CW_STEPS,
    _NORM_MARGIN,
    _chiral_layout,
    _layout,
    chiral,
    chiral_block,
    coupling_norm_bound,
    dense_matrix,
    leading_blocks,
    moment_table,
    natural_basis,
    norm_bounds,
    norm_tail_probability,
    stack_product,
    stacked_half_steps,
    step_sides,
    symmetry_blocks,
)
from spindyn.permanent import permanent_bruteforce, submatrix_for_outcome

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def op_at(op, pos, total):
    """Single-site operator on index bit `pos` (independent kron oracle)."""
    return np.kron(np.eye(1 << (total - 1 - pos)), np.kron(op, np.eye(1 << pos)))


def dense_oracle(spec):
    """H built term by term from explicit Pauli tensor products."""
    n = spec.n
    total = 2 * n
    J = spec.couplings.entries
    H = np.zeros((1 << total, 1 << total), dtype=complex)
    for i in range(n):
        for j in range(n):
            xx = op_at(SX, i, total) @ op_at(SX, n + j, total)
            yy = op_at(SY, i, total) @ op_at(SY, n + j, total)
            zz = op_at(SZ, i, total) @ op_at(SZ, n + j, total)
            if spec.kind is Kind.H1:
                H += (J[i, j] / n) * xx
            elif spec.kind is Kind.H2:
                H += (J[i, j] / n) * (xx + zz)
            elif spec.kind is Kind.H3:
                H += (J[i, j] / (2 * n)) * (xx + yy)
            else:
                H += (J[i, j] / (2 * n)) * (xx + yy + zz)
    if spec.z_fields is not None:
        h1, h2 = spec.z_fields
        for i in range(n):
            H += h1[i] * op_at(SZ, i, total)
            H += h2[i] * op_at(SZ, n + i, total)
    return H


def random_spec(kind, n, seed, fields=False):
    J = sample_coupling(n, Rng(seed))
    zf = None
    if fields:
        g = Rng(seed, 999).generator()
        zf = (g.standard_normal(n), g.standard_normal(n))
    return HamiltonianSpec(kind, J, z_fields=zf)


def h_product(spec, basis, v):
    """H @ v, for v of shape (d,) or (d, k), from the draw's chunk of one:
    CSR half-step s maps side s of `step_sides` to the other (for a spec
    with no chiral split, H maps the whole basis to itself)."""
    sides = step_sides(spec, basis)
    out = np.zeros_like(v)
    for step, src, dst in zip(stacked_half_steps([spec], basis), sides, sides[::-1]):
        out[dst] = step @ v[src]
    return out


def half_step_array(spec, basis):
    """H assembled from the `toarray()` of each CSR half-step of the draw's
    chunk of one, block s placed from side s of `step_sides` to the other."""
    sides = step_sides(spec, basis)
    out = np.zeros((basis.dimension,) * 2)
    for step, src, dst in zip(stacked_half_steps([spec], basis), sides, sides[::-1]):
        out[np.ix_(dst, src)] = step.toarray()
    return out


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fields", [False, True])
def test_dense_matches_kron_oracle(kind, n, fields):
    spec = random_spec(kind, n, 100 * n + 7, fields=fields)
    got = dense_matrix(spec, Basis.full(n))
    want = dense_oracle(spec)
    assert np.max(np.abs(want.imag)) < 1e-12  # real in this basis
    assert np.allclose(got, want.real, atol=1e-12)


@pytest.mark.parametrize("kind", list(Kind))
def test_apply_matches_dense(kind):
    n = 2
    spec = random_spec(kind, n, 31)
    h = dense_matrix(spec, Basis.full(n))
    g = np.random.default_rng(4)
    v = g.standard_normal(h.shape[0]) + 1j * g.standard_normal(h.shape[0])
    assert np.allclose(h_product(spec, Basis.full(n), v), h @ v, atol=1e-12)
    # batched columns too
    vs = g.standard_normal((h.shape[0], 3))
    assert np.allclose(h_product(spec, Basis.full(n), vs), h @ vs, atol=1e-12)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fields", [False, True])
def test_apply_and_dense_match_oracle(kind, n, fields):
    # the half-steps and dense_matrix read one layout, so both are checked
    # against the kron oracle, restricted to each basis H allows
    spec = random_spec(kind, n, 31 + n, fields=fields)
    oracle = dense_oracle(spec)
    bases = [Basis.full(n)]
    if kind in (Kind.H3, Kind.H4):
        bases.append(Basis.sector(n))
    g = np.random.default_rng(4)
    for basis in bases:
        rows = basis.states
        want = oracle[np.ix_(rows, rows)]
        assert np.allclose(dense_matrix(spec, basis), want.real, atol=1e-12)
        d = rows.size
        v = g.standard_normal(d) + 1j * g.standard_normal(d)
        assert np.allclose(h_product(spec, basis, v), want @ v, atol=1e-12)
        vs = g.standard_normal((d, 3)) + 1j * g.standard_normal((d, 3))
        assert np.allclose(h_product(spec, basis, vs), want @ vs, atol=1e-12)


@pytest.mark.parametrize("basis", [Basis.full(3), Basis.sector(3)])
def test_flip_index_is_built_once_and_shared(basis):
    a, b = (stacked_half_steps([random_spec(Kind.H4, 3, s)], basis)[0] for s in (1, 2))
    assert np.shares_memory(a.indptr, b.indptr)
    assert np.shares_memory(a.indices, b.indices)
    assert not np.shares_memory(a.data, b.data)
    assert Basis.of(3, basis.symmetry, basis.label) is basis
    for arr in (basis.states, basis.pos, basis.partner, basis.differ, basis.signs,
                a.indptr, a.indices):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0


@pytest.mark.parametrize(
    "kind, basis, block",
    [
        (Kind.H1, Basis.full(3), None),
        (Kind.H4, Basis.sector(3), None),
        (Kind.H3, None, Basis.of(3, "weight", 2)),
    ],
)
def test_cached_layout_is_canonical(kind, basis, block):
    # scipy's abs() and max() deduplicate in place unless the matrix is
    # canonical, which would write into the shared read-only layout
    spec = random_spec(kind, 3, 8, fields=True)  # no chiral split: the half-step is H
    if basis is not None:
        m, dense = stacked_half_steps([spec], basis)[0], dense_matrix(spec, basis)
    else:
        m = stacked_half_steps([spec], block)[0]
        rows = block.states
        dense = dense_oracle(spec)[np.ix_(rows, rows)].real
    assert m.has_canonical_format
    for r in range(m.shape[0]):
        cols = m.indices[m.indptr[r] : m.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)
    assert np.allclose(abs(m).toarray(), np.abs(dense), atol=1e-12)
    assert m.max() == pytest.approx(dense.max(), abs=1e-12)
    assert m.min() == pytest.approx(dense.min(), abs=1e-12)


def block_bases(kind, n):
    """The full basis plus every block of the kind's partition (the sector
    is the weight-n block)."""
    blocks = symmetry_blocks(kind, n)[1]
    if kind in (Kind.H3, Kind.H4):
        assert Basis.sector(n) is blocks[n]
    return [Basis.full(n), *blocks]


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("fields", [False, True])
def test_dense_block_equals_sparse_toarray_bit_for_bit(kind, fields):
    for n in (1, 2, 3):
        spec = random_spec(kind, n, 40 + n, fields=fields)
        for basis in block_bases(kind, n):
            got = dense_matrix(spec, basis)
            want = half_step_array(spec, basis)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # toarray adds into zeros, so a -0.0 coupling reads 0.0 in both
    J = CouplingMatrix(np.array([[-0.0, 1.5], [0.25, -0.0]]))
    for basis in block_bases(kind, 2):
        spec = HamiltonianSpec(kind, J)
        want = half_step_array(spec, basis)
        assert dense_matrix(spec, basis).tobytes() == want.tobytes()


def layout_oracle(basis, hopping):
    """(indptr, indices, term, diag) from a row-by-row entry list whose
    columns scipy's sort_indices() orders, carrying each entry's slot."""
    import scipy.sparse as sp

    n, dim = basis.n, basis.dimension
    cols, terms, indptr = [], [], [0]
    for r in range(dim):
        cols.append(r)
        terms.append(-1)  # the diagonal
        for i in range(n):
            for j in range(n):
                if not hopping or basis.differ[i, j, r]:
                    cols.append(int(basis.partner[i, j, r]))
                    terms.append(i * n + j)
        indptr.append(len(cols))
    slots = np.arange(len(cols))
    m = sp.csr_matrix((slots, np.array(cols), np.array(indptr)), shape=(dim, dim))
    m.sort_indices()
    term = np.array(terms)[m.data]
    return m.indptr, m.indices, np.maximum(term, 0), np.flatnonzero(term < 0)


@pytest.mark.parametrize("kind", list(Kind))
def test_layout_matches_scipy_sort_indices_oracle(kind):
    hopping = kind in (Kind.H3, Kind.H4)
    for n in (1, 2, 3):
        for basis in block_bases(kind, n):
            got = _layout(basis, hopping)
            for a, b in zip(got, layout_oracle(basis, hopping)):
                assert np.array_equal(a, b)
            assert got[0].dtype == got[1].dtype == np.int32  # indptr, indices


def test_index_and_layout_builds_are_guarded(monkeypatch):
    # H1's full basis at n = 10 would need ~2 GiB for its flip index alone
    spec = random_spec(Kind.H1, 10, 5)
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError, match="flip index"):
            moment_table(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    basis = Basis.full(3)  # 16 KiB; its H1 layout needs ~23 KiB
    monkeypatch.setattr(core, "_MAX_BYTES", 20000)
    _layout.cache_clear()
    with pytest.raises(DenseMemoryError, match="sparse layout"):
        _layout(basis, False)


_CHIRAL_CASES = [
    (Kind.H1, "full", 1),
    (Kind.H1, "full", 2),
    (Kind.H1, "full", 3),
    (Kind.H3, "sector", 2),
    (Kind.H3, "sector", 3),
    (Kind.H3, "sector", 4),
    (Kind.H3, "full", 3),
]


@pytest.mark.parametrize("kind,basis_kind,n", _CHIRAL_CASES)
def test_chiral_split_leaves_both_diagonal_blocks_zero(kind, basis_kind, n):
    spec = random_spec(kind, n, 300 + n)
    basis = Basis.full(n) if basis_kind == "full" else Basis.sector(n)
    assert chiral(spec)
    e, o = step_sides(spec, basis)
    assert np.array_equal(np.sort(np.r_[e, o]), np.arange(basis.dimension))
    sigma_weight = [sum(BitString.from_index(int(s), n).bits[:n]) for s in basis.states]
    assert all(sigma_weight[r] % 2 == 0 for r in e)
    assert all(sigma_weight[r] % 2 == 1 for r in o)
    assert basis.index_of(BitString.y0(n)) in e
    h = dense_matrix(spec, basis)
    assert not h[np.ix_(e, e)].any() and not h[np.ix_(o, o)].any()
    assert np.array_equal(chiral_block(spec, basis), h[np.ix_(e, o)])


@pytest.mark.parametrize("kind,basis_kind,n", _CHIRAL_CASES)
def test_half_steps_add_what_the_full_product_adds(kind, basis_kind, n):
    # each half-step gives, bit for bit, the product of H's one CSR matrix
    # (the build `moment_table` steps by) on a vector that is zero off the
    # side it starts from, read on the other side
    spec = random_spec(kind, n, 310 + n)
    basis = Basis.full(n) if basis_kind == "full" else Basis.sector(n)
    d = basis.dimension
    indptr, indices, data = hamiltonian._values([spec], basis)
    h = hamiltonian._csr(indptr, indices, data[0], (d, d))
    steps, sides = stacked_half_steps([spec], basis), step_sides(spec, basis)
    g = np.random.default_rng(n)
    for side, (src, dst) in enumerate([sides, sides[::-1]]):
        v = g.standard_normal(src.size)
        full = np.zeros(d)
        full[src] = v
        want = h @ full
        assert np.array_equal(steps[side] @ v, want[dst])
        assert not want[src].any()


@pytest.mark.parametrize(
    "kind,fields", [(Kind.H1, False), (Kind.H3, False), (Kind.H4, False), (Kind.H2, True)]
)
def test_stacked_half_steps_give_each_draws_product(kind, fields):
    # block j of a stack is draw j's half-step, bit for bit, and the
    # leading blocks are the stack of the first draws
    n = 3
    basis = Basis.full(n)
    specs = [random_spec(kind, n, 330 + j, fields=fields) for j in range(3)]
    singles = [stacked_half_steps([spec], basis) for spec in specs]
    stack = stacked_half_steps(specs, basis)
    dense = stacked_half_steps(specs, basis, dense=True)
    g = np.random.default_rng(7)
    for side in (0, 1):
        vs = [g.standard_normal(a[side].shape[1]) for a in singles]
        want = [a[side] @ v for a, v in zip(singles, vs)]
        for spec, v, w in zip(specs, vs, want):  # a chunk of one steps as H does
            sides = step_sides(spec, basis)
            full = np.zeros(basis.dimension)
            full[sides[side]] = v
            assert np.allclose(w, (dense_matrix(spec, basis) @ full)[sides[1 - side]],
                               rtol=0.0, atol=1e-14)
        assert np.array_equal(stack[side] @ np.concatenate(vs), np.concatenate(want))
        head = leading_blocks(stack[side], 2, 3)
        assert np.array_equal(head @ np.concatenate(vs[:2]), np.concatenate(want[:2]))
        # the dense form: each draw's product has the bits of its own
        # chunk of one and agrees with the sparse one to rounding
        rows = np.array(vs)
        got = stack_product(dense[side], rows)
        for j, spec in enumerate(specs):
            own = stacked_half_steps([spec], basis, dense=True)[side]
            alone = stack_product(own, rows[j : j + 1])
            assert np.array_equal(got[j], alone[0])
            assert np.allclose(got[j], want[j], rtol=0.0, atol=1e-14)
        assert np.array_equal(stack_product(leading_blocks(dense[side], 2, 3), rows[:2]), got[:2])
        assert np.array_equal(stack_product(stack[side], rows), np.array(want))
    mixed = random_spec(kind, n, 339, fields=not fields)
    if chiral(mixed) != chiral(specs[0]):
        with pytest.raises(ValueError, match="one chiral split"):
            stacked_half_steps([specs[0], mixed], basis)


@pytest.mark.parametrize("kind", list(Kind))
def test_chiral_layouts_are_each_others_transpose(kind):
    hopping = kind in (Kind.H3, Kind.H4)
    for n in (1, 2, 3):
        for basis in block_bases(kind, n):
            b, bt = _chiral_layout(basis, hopping)
            for half in (b, bt):
                counts = np.diff(half[0])
                assert np.array_equal(half[2], np.repeat(np.arange(counts.size), counts))
            forward = sorted(zip(b[2], b[1], b[3]))
            backward = sorted(zip(bt[1], bt[2], bt[3]))
            assert forward == backward
            for half in (b, bt):
                assert all(not arr.flags.writeable for arr in half)


@pytest.mark.parametrize(
    "kind,fields",
    [(Kind.H2, False), (Kind.H4, False)] + [(k, True) for k in Kind],
)
def test_non_chiral_specs_keep_the_whole_basis(kind, fields):
    spec = random_spec(kind, 2, 320, fields=fields)
    basis = Basis.full(2)
    assert not chiral(spec)
    e, o = step_sides(spec, basis)
    assert np.array_equal(e, np.arange(16)) and np.array_equal(o, np.arange(16))
    steps = stacked_half_steps([spec], basis)
    assert steps[0] is steps[1]  # both half-steps are H, bit for bit
    assert np.array_equal(steps[1].toarray(), dense_matrix(spec, basis))
    with pytest.raises(ValueError, match="no chiral split"):
        chiral_block(spec, basis)
    # z fields and ZZ terms put a diagonal inside the even sigma class
    h = dense_matrix(spec, basis)
    assert h[np.ix_(*[hamiltonian.parity_sides(basis)[0]] * 2)].any()


def test_chiral_block_is_guarded_before_allocating():
    # the n = 8 sector splits 6470 + 6400; its dense working set is ~1.7 GB
    spec = random_spec(Kind.H3, 8, 330)
    with pytest.raises(DenseMemoryError, match="chiral split 6470\\+6400"):
        chiral_block(spec, Basis.sector(8))
    with pytest.raises(ValueError, match="leaves the weight-n sector"):
        chiral_block(random_spec(Kind.H1, 2, 331), Basis.sector(2))


def test_single_term_h1():
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix([[1.0]]))
    h = dense_matrix(spec, Basis.full(1))
    want = np.zeros((4, 4))
    want[
        [0, 1, 2, 3], [3, 2, 1, 0]
    ] = 1.0  # sigma_x tau_x swaps both bits
    assert np.array_equal(h, want)


def test_h1_zero_couplings():
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix(np.zeros((2, 2))))
    v = np.random.default_rng(0).standard_normal(16)
    assert np.allclose(h_product(spec, Basis.full(2), v), 0.0)


def test_h2_equals_h1_plus_zz():
    # H2 dense equals H1 dense plus an independently built z-z part
    n = 2
    J = sample_coupling(n, Rng(55))
    h2 = dense_matrix(HamiltonianSpec(Kind.H2, J), Basis.full(n))
    h1 = dense_matrix(HamiltonianSpec(Kind.H1, J), Basis.full(n))
    zz = np.zeros_like(h1)
    for i in range(n):
        for j in range(n):
            zz += (J.entries[i, j] / n) * (
                op_at(SZ, i, 2 * n) @ op_at(SZ, n + j, 2 * n)
            ).real
    assert np.allclose(h2, h1 + zz, atol=1e-12)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermiticity_on_random_vectors(kind, n):
    spec = random_spec(kind, n, 17 * n + 1, fields=True)
    basis = Basis.full(n)
    g = np.random.default_rng(n)
    dim = 1 << (2 * n)
    for _ in range(100):
        u = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
        lhs = np.vdot(u, h_product(spec, basis, v))
        rhs = np.conj(np.vdot(v, h_product(spec, basis, u)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("kind", [Kind.H3, Kind.H4])
def test_sector_preservation_and_restriction(kind):
    n = 3
    spec = random_spec(kind, n, 23, fields=True)
    full = dense_matrix(spec, Basis.full(n))
    states = Basis.sector(n).states
    # H maps the sector into itself: off-sector block vanishes
    outside = np.setdiff1d(np.arange(full.shape[0]), states)
    assert np.max(np.abs(full[np.ix_(outside, states)])) < 1e-12
    # and the sector dense matrix is exactly the restriction
    sec = dense_matrix(spec, Basis.sector(n))
    assert np.allclose(sec, full[np.ix_(states, states)], atol=1e-12)


def test_sector_rejected_for_class_one():
    # class I changes the Hamming weight: every weight block is refused,
    # both parity blocks are accepted
    for kind in (Kind.H1, Kind.H2):
        spec = random_spec(kind, 2, 3)
        for w in range(5):
            with pytest.raises(ValueError, match="leaves the weight-n sector"):
                stacked_half_steps([spec], Basis.of(2, "weight", w))
            with pytest.raises(ValueError, match="leaves the weight-n sector"):
                dense_matrix(spec, Basis.of(2, "weight", w))
        for p in range(2):
            assert dense_matrix(spec, Basis.of(2, "parity", p)).shape == (8, 8)


def test_h3_on_y0_lands_in_class_one():
    n = 3
    spec = random_spec(Kind.H3, n, 8)
    basis = Basis.full(n)
    v = h_product(spec, basis, StateVector.basis_state(BitString.y0(n), basis).amplitudes)
    assert np.array_equal(v, moment_table(spec, 1)[1])
    support = {int(i) for i in np.nonzero(np.abs(v) > 1e-14)[0]}
    class_one = {x.index() for x in hamming_class_members(n, 1)}
    assert support and support <= class_one


def test_h1_changes_total_weight_by_two_or_zero():
    n = 3
    spec = random_spec(Kind.H1, n, 12)
    basis = Basis.full(n)
    for x in hamming_class_members(n, 1):
        v = h_product(spec, basis, StateVector.basis_state(x, basis).amplitudes)
        for idx in np.nonzero(np.abs(v) > 1e-14)[0]:
            w = BitString.from_index(int(idx), n).weight()
            assert w in (n - 2, n, n + 2)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [2, 3])
def test_moment_permanent_identity(kind, n):
    for seed in range(3):
        spec = random_spec(kind, n, 1000 + seed)
        table = moment_table(spec, n)
        for m in range(1, n + 1):
            for x in hamming_class_members(n, m):
                for l in range(m):
                    assert abs(table[l, x.index()]) < 1e-9
                per = permanent_bruteforce(submatrix_for_outcome(spec.couplings, x))
                want = math.factorial(m) / n**m * per
                got = table[m, x.index()]
                assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fields", [False, True])
def test_moment_table_matches_dense_powers(kind, n, fields):
    spec = random_spec(kind, n, 300 + 10 * n, fields=fields)
    h = dense_matrix(spec, Basis.full(n))
    kmax = 2 * n + 1
    table = moment_table(spec, kmax)
    assert table.dtype == np.float64 and table.shape == (kmax + 1, 1 << (2 * n))
    v = np.zeros(1 << (2 * n))
    v[BitString.y0(n).index()] = 1.0
    for k in range(kmax + 1):
        assert np.max(np.abs(table[k] - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
        v = h @ v


def test_moment_table_validation():
    with pytest.raises(ValueError):
        moment_table(random_spec(Kind.H3, 2, 5), -1)


def test_moment_table_is_guarded_before_allocating():
    # 2^40 + 1 rows of 16 float64 values
    spec = random_spec(Kind.H3, 2, 5)
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError, match="moment table"):
            moment_table(spec, 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kind", list(Kind))
def test_local_fields_leave_low_moments_unchanged(kind):
    n = 3
    base = random_spec(kind, n, 44)
    with_fields = HamiltonianSpec(
        kind, base.couplings, z_fields=(np.array([0.7, -1.1, 0.4]), np.array([0.2, 0.9, -0.5]))
    )
    got, want = moment_table(with_fields, 3), moment_table(base, 3)
    for m in (1, 2, 3):
        for x in hamming_class_members(n, m)[:4]:
            for l in range(m + 1):
                assert got[l, x.index()] == pytest.approx(
                    want[l, x.index()], rel=1e-9, abs=1e-12
                )


def test_norm_bound_single_term():
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix([[1.0]]))
    assert Propagator(spec).norm_bound == pytest.approx(1.0)


def test_norm_bound_holds():
    for kind in Kind:
        for seed in range(5):
            spec = random_spec(kind, 3, 70 + seed)
            assert Propagator(spec).norm_bound <= coupling_norm_bound(spec) + 1e-12


def collatz_wielandt_oracle(h):
    """max_i (|h| v)_i / v_i at v = |h|^(_CW_STEPS - 1) ones, from the dense
    |h| and without normalising v, or inf if v has a zero entry."""
    a = np.abs(h)
    v = np.linalg.matrix_power(a, _CW_STEPS - 1) @ np.ones(a.shape[0])
    return float(np.max(a @ v / v)) if np.all(v > 0.0) else math.inf


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("fields", [False, True])
def test_sparse_norm_bound_covers_the_spectrum(kind, n, fields):
    spec = random_spec(kind, n, 600 + 10 * n, fields=fields)
    basis = natural_basis(kind, n)
    h = dense_matrix(spec, basis)
    bound = norm_bounds([spec], basis)[0]
    exact = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert exact <= bound <= coupling_norm_bound(spec) * (1.0 + _NORM_MARGIN)
    if kind is Kind.H1 and not fields:  # the closed form
        assert bound == pytest.approx(exact, rel=1e-11)
    else:  # the chiral halves read the whole |H|'s iterates
        want = collatz_wielandt_oracle(h) * (1.0 + _NORM_MARGIN)
        assert bound == pytest.approx(want, rel=1e-13)


def test_sparse_norm_bound_is_tight_for_h3():
    for seed in range(4):
        spec = random_spec(Kind.H3, 6, 650 + seed)
        bound = norm_bounds([spec], Basis.sector(6))[0]
        assert bound <= 0.7 * coupling_norm_bound(spec)


@pytest.mark.parametrize("kind", list(Kind))
def test_sparse_norm_bound_with_zero_rows(kind):
    # a zero row of J keeps v > 0; one coupling alone gives H3's |H| zero
    # rows (H2 and H4 keep a z-z diagonal on every row), where the ratio
    # is not read, and J = 0 gives |H| = 0: no ratio is read at all (inf),
    # except by H1's closed form
    n = 3
    rowless = sample_coupling(n, Rng(31)).entries.copy()
    rowless[1] = 0.0
    single = np.zeros((n, n))
    single[0, 2] = -0.7
    specs = [HamiltonianSpec(kind, CouplingMatrix(e)) for e in (rowless, single, 0 * single)]
    bounds = []
    for spec in specs:
        basis = natural_basis(kind, n)
        h = dense_matrix(spec, basis)
        bounds.append(norm_bounds([spec], basis)[0])
        assert float(np.max(np.abs(np.linalg.eigvalsh(h)))) <= bounds[-1]
    assert bounds[0] <= coupling_norm_bound(specs[0]) * (1.0 + _NORM_MARGIN)
    assert math.isfinite(bounds[1])
    assert bounds[2] == (0.0 if kind is Kind.H1 else math.inf)


def test_h1_sign_table_is_guarded():
    spec = random_spec(Kind.H1, 40, 6)  # 2^39 sign rows
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError, match="sign table"):
            hamiltonian._h1_norm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_norm_bound_above_dense_cutoff_takes_h1_closed_form():
    # n = 7 (d = 16384) runs the Chebyshev engine; H1's norm has a closed form
    n = 7
    J = sample_coupling(n, Rng(2))
    spec = HamiltonianSpec(Kind.H1, J)
    signs = np.array([[1 - 2 * ((k >> p) & 1) for p in range(n)] for k in range(1 << n)])
    closed = np.max(np.abs(signs @ (J.entries / n) @ signs.T))
    assert Propagator(spec).norm_bound == pytest.approx(float(closed), rel=1e-6)


def test_tail_probability_values():
    assert norm_tail_probability(3.0, 4) == pytest.approx(2**16 * math.exp(-72.0), rel=1e-12)
    assert norm_tail_probability(1e-9, 2) == 1.0
    with pytest.raises(ValueError):
        norm_tail_probability(0.0, 2)


def test_h1_norm_tail_monte_carlo():
    # no draw among 10^4 exceeds 3n at n=4 (closed form for commuting H1)
    n = 4
    draws = Rng(314).generator().standard_normal((10**4, n, n))
    signs = np.array([[1 - 2 * ((k >> p) & 1) for p in range(n)] for k in range(1 << n)])
    vals = np.einsum("si,bij,uj->bsu", signs, draws / n, signs)
    norms = np.abs(vals).max(axis=(1, 2))
    assert np.max(norms) < 3 * n
    # spot check the closed form against the dense spectral norm
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix(draws[0]))
    assert Propagator(spec).norm_bound == pytest.approx(float(norms[0]), rel=1e-10)


def test_dense_guards():
    spec = random_spec(Kind.H3, 9, 1)
    with pytest.raises(DenseMemoryError):
        dense_matrix(spec, Basis.full(9))
    with pytest.raises(DenseMemoryError):
        dense_matrix(spec, Basis.sector(9))  # C(18,9) = 48620: ~53 GiB
