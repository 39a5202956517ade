"""Propagation tests against an independent expm oracle and closed forms."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from spindyn.core import (
    Basis,
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Rng,
    sample_coupling,
)
import spindyn.evolve
import spindyn.hamiltonian
from spindyn.evolve import (
    DecompositionError,
    KrylovConvergenceError,
    Propagator,
    _MAX_ORDER,
    _TAIL_TOL,
    _bessel_tables,
    _bessel_tail_bound,
    _series_order,
    draws_per_chunk,
    engine,
    evolve_exact,
    natural_basis,
    output_probability,
    probability_tables,
    time_average,
)
from spindyn.hamiltonian import (
    DenseMemoryError,
    chiral,
    coupling_norm_bound,
    dense_matrix,
    norm_bounds,
    parity_sides,
    step_sides,
)
from spindyn.permanent import permanent_bruteforce, submatrix_for_outcome


def random_spec(kind, n, seed, fields=False):
    J = sample_coupling(n, Rng(seed))
    zf = None
    if fields:
        g = Rng(seed, 999).generator()
        zf = (g.standard_normal(n), g.standard_normal(n))
    return HamiltonianSpec(kind, J, z_fields=zf)


def expm_oracle(spec, basis, t):
    """e^{-iHt}|y0> computed with scipy's expm, no eigendecomposition."""
    h = dense_matrix(spec, basis).astype(complex)
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of(BitString.y0(spec.n))] = 1.0
    return scipy.linalg.expm(-1j * h * t) @ v


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("fields", [False, True])
@pytest.mark.parametrize("t", [0.35, 1.7, -2.4])
def test_dense_path_matches_expm(kind, fields, t):
    spec = random_spec(kind, 3, 41, fields=fields)
    basis = natural_basis(spec.kind, spec.n)
    got = evolve_exact(spec, t).amplitudes
    want = expm_oracle(spec, basis, t)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("t", [0.35, 1.7, -2.4])
def test_krylov_path_matches_expm(kind, t, monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    spec = random_spec(kind, 3, 42)
    basis = natural_basis(spec.kind, spec.n)
    got = Propagator(spec).state_at(t).amplitudes
    want = expm_oracle(spec, basis, t)
    assert np.max(np.abs(got - want)) < 1e-8


def test_krylov_matches_dense_larger_instance(monkeypatch):
    spec = random_spec(Kind.H2, 4, 7)  # full basis, dimension 256
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 4096)
    dense = Propagator(spec)
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    krylov = Propagator(spec)
    assert dense.dense and not krylov.dense
    for t in (0.5, 3.0):
        a = dense.state_at(t).amplitudes
        b = krylov.state_at(t).amplitudes
        assert np.max(np.abs(a - b)) < 1e-8


def test_single_pair_flip_probability_is_sin_squared():
    # n=1: H = J11 sigma^x tau^x couples |y0> to |x0> only, so the
    # transfer probability is sin^2(J11 t).
    g = 0.83
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix(np.array([[g]])))
    x0 = BitString.x0(1)
    for t in (0.0, 0.4, 1.1, 2.9):
        assert output_probability(spec, x0, t) == pytest.approx(
            np.sin(g * t) ** 2, abs=1e-12
        )


def test_t_zero_returns_initial_state():
    for kind in (Kind.H1, Kind.H4):
        spec = random_spec(kind, 3, 5)
        state = evolve_exact(spec, 0.0)
        assert state.probability(BitString.y0(3)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("limit", [4096, 1])
def test_unit_norm_preserved(limit, monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    spec = random_spec(Kind.H3, 4, 11)
    prop = Propagator(spec)
    for t in (0.2, 1.9, 7.3):
        assert abs(prop.state_at(t).norm() - 1.0) < 1e-9


def test_krylov_group_property(monkeypatch):
    # e^{-iH(t1+t2)}|y0> = e^{-iH t2} e^{-iH t1}|y0>, the second factor
    # from the expm oracle.
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    spec = random_spec(Kind.H4, 4, 13)
    prop = Propagator(spec)
    t1, t2 = 0.9, 1.6
    direct = prop.state_at(t1 + t2).amplitudes
    h = dense_matrix(spec, prop.basis)
    stepped = scipy.linalg.expm(-1j * h * t2) @ prop.state_at(t1).amplitudes
    assert np.max(np.abs(direct - stepped)) < 1e-12


_CHEBYSHEV_CASES = [
    (Kind.H1, "full"),
    (Kind.H2, "full"),
    (Kind.H3, "sector"),
    (Kind.H3, "full"),
    (Kind.H4, "sector"),
    (Kind.H4, "full"),
]


@pytest.mark.parametrize("kind,basis_kind", _CHEBYSHEV_CASES)
@pytest.mark.parametrize("fields", [False, True])
def test_chebyshev_matches_oracles(kind, basis_kind, fields, monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    spec = random_spec(kind, 3, 61, fields=fields)
    basis = Basis.full(3) if basis_kind == "full" else Basis.sector(3)
    prop = Propagator(spec, basis=basis)
    assert not prop.dense
    for t in (0.0, 0.35, -2.4):
        got = prop.state_at(t).amplitudes
        assert np.max(np.abs(got - expm_oracle(spec, basis, t))) <= 1e-12
    # 33-point grid of mixed sign against the eigh oracle
    grid = np.linspace(-3.0, 5.0, 33)
    evals, evecs = np.linalg.eigh(dense_matrix(spec, basis))
    c0 = evecs[basis.index_of(BitString.y0(3))]
    want = np.abs(evecs @ (np.exp(-1j * np.outer(evals, grid)) * c0[:, None])) ** 2
    table = prop.all_probabilities_at(grid)
    assert table.shape == (basis.dimension, grid.size)
    assert np.max(np.abs(table - want)) <= 1e-12
    rows = np.arange(basis.dimension)[::-3]
    assert np.array_equal(prop.all_probabilities_at(grid, rows=rows), table[rows])


def eigh_oracle(spec, basis, grid):
    """|<x| e^{-iHt} |y0>|^2 on every row and time, from the complex eigh
    of the whole matrix."""
    evals, evecs = np.linalg.eigh(dense_matrix(spec, basis).astype(complex))
    c0 = evecs[basis.index_of(BitString.y0(spec.n))].conj()
    return np.abs(evecs @ (np.exp(-1j * np.outer(evals, grid)) * c0[:, None])) ** 2


_CHIRAL_DENSE = [(Kind.H1, n) for n in (1, 2, 3)] + [(Kind.H3, n) for n in (1, 2, 3, 4)]


def assert_dense_engine_matches_oracles(prop):
    """A lone Propagator on dense stacks: states against expm, tables
    against the complex eigh oracle."""
    spec, basis = prop.spec, prop.basis
    assert prop.dense
    for t in (0.0, 0.35, -2.4, 30.0):
        got = prop.state_at(t).amplitudes
        assert np.max(np.abs(got - expm_oracle(spec, basis, t))) <= 1e-13
    grid = np.linspace(-3.0, 5.0, 33)
    table = prop.all_probabilities_at(grid)
    assert table.shape == (basis.dimension, grid.size)
    assert np.max(np.abs(table - eigh_oracle(spec, basis, grid))) <= 1e-13


@pytest.mark.parametrize("kind,n", _CHIRAL_DENSE)
@pytest.mark.parametrize("zero", [False, True])
def test_chiral_dense_engine_matches_oracles(kind, n, zero):
    spec = random_spec(kind, n, 90 + n)
    if zero:  # J = 0: omega = 0 on every mode
        spec = HamiltonianSpec(kind, CouplingMatrix(np.zeros((n, n))))
    assert chiral(spec)
    assert_dense_engine_matches_oracles(Propagator(spec))


_WHOLE_DENSE = [(k, n, False) for k in (Kind.H2, Kind.H4) for n in (2, 3)] + [
    (k, n, True) for k in Kind for n in (2, 3)
]


@pytest.mark.parametrize("kind,n,fields", _WHOLE_DENSE)
@pytest.mark.parametrize("zero", [False, True])
def test_whole_basis_dense_engine_matches_oracles(kind, n, fields, zero):
    # omega = lambda takes both signs; J = 0 makes it 0 on every mode
    # without fields and the field diagonal with them
    spec = random_spec(kind, n, 80 + n, fields=fields)
    if zero:
        spec = HamiltonianSpec(kind, CouplingMatrix(np.zeros((n, n))), spec.z_fields)
    assert not chiral(spec)
    assert_dense_engine_matches_oracles(Propagator(spec))


@pytest.mark.parametrize(
    "kind,n,name",
    [(Kind.H3, 3, "dense chiral"), (Kind.H4, 3, "dense 20"), (Kind.H4, 5, "chebyshev 252")],
)
def test_rows_outside_the_basis_are_refused(kind, n, name):
    # `name` is the form of the lone Propagator's products
    spec = random_spec(kind, n, 1)
    prop = Propagator(spec)
    assert prop.dense == name.startswith("dense")
    assert chiral(spec) == name.endswith("chiral")
    d = prop.basis.dimension
    for rows in ([-1], [d], [0, d + 5]):
        with pytest.raises(ValueError, match="rows must lie in"):
            prop.all_probabilities_at([0.5], rows=rows)
    assert prop.all_probabilities_at([0.5], rows=[d - 1]).shape == (1, 1)
    assert prop.all_probabilities_at([0.5], rows=[]).shape == (0, 1)
    for times in ([], [0.5, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="times must be"):
            prop.all_probabilities_at(times)


_READ_CASES = [(Kind.H1, 3), (Kind.H3, 4), (Kind.H4, 3), (Kind.H2, 2)]


@pytest.mark.parametrize("kind,n", _READ_CASES)
@pytest.mark.parametrize("limit", [4096, 1])
def test_every_read_of_p_is_the_table_bit_for_bit(kind, n, limit, monkeypatch):
    # probability and output_probability read all_probabilities_at
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    spec = random_spec(kind, n, 120 + n)
    prop = Propagator(spec)
    assert prop.dense == (limit > 1)
    for t in (0.3, -1.7, 4.0):
        for pos, index in enumerate(prop.basis.states[:12]):
            x = BitString.from_index(int(index), n)
            want = prop.all_probabilities_at([t], rows=[pos])[0, 0]
            assert prop.probability(x, t) == want
            assert output_probability(spec, x, t) == want
    if prop.basis.symmetry == "weight":  # all ones lies outside the sector
        assert prop.probability(BitString((1,) * (2 * n)), 0.3) == 0.0


@pytest.mark.parametrize("kind,n", _CHIRAL_DENSE)
def test_chiral_dense_state_has_unit_norm(kind, n):
    prop = Propagator(random_spec(kind, n, 95 + n))
    for t in (0.0, 0.7, -4.1, 23.0):
        assert abs(prop.state_at(t).norm() - 1.0) <= 1e-13


@pytest.mark.parametrize(
    "kind,fields",
    [(Kind.H2, False), (Kind.H4, False)] + [(k, True) for k in Kind],
)
@pytest.mark.parametrize("limit", [4096, 1])
def test_non_chiral_specs_take_the_general_path(kind, fields, limit, monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    spec = random_spec(kind, 2, 97, fields=fields)
    prop = Propagator(spec)
    whole = np.arange(prop.basis.dimension)
    assert all(np.array_equal(side, whole) for side in step_sides(spec, prop.basis))
    assert prop.dense == (limit > 1)
    assert engine(spec) == f"chebyshev {whole.size}, {'dense' if limit > 1 else 'sparse'} products"
    got = prop.state_at(1.3).amplitudes
    assert np.max(np.abs(got - expm_oracle(spec, prop.basis, 1.3))) <= 1e-12


def test_engine_names_the_split_and_its_sides():
    # the ensembles' engine: one recurrence per chunk, on dense stacks up
    # to _DENSE_LIMIT and on block-diagonal CSR above it
    assert engine(random_spec(Kind.H3, 4, 1)) == "chebyshev chiral 38+32, dense products"
    assert engine(random_spec(Kind.H1, 3, 1)) == "chebyshev chiral 32+32, dense products"
    assert engine(random_spec(Kind.H3, 6, 1)) == "chebyshev chiral 452+472, sparse products"
    assert engine(random_spec(Kind.H1, 4, 1)) == "chebyshev chiral 128+128, sparse products"
    assert engine(random_spec(Kind.H4, 6, 1)) == "chebyshev 924, sparse products"
    assert engine(random_spec(Kind.H3, 3, 1, fields=True)) == "chebyshev 20, dense products"


@pytest.mark.parametrize("kind", list(Kind))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("fields", [False, True])
def test_propagator_norm_bound(kind, n, fields, monkeypatch):
    # within _DENSE_LIMIT ||H|| on the basis is read off its eigenvalues;
    # above it (class I at n = 4) it is the series scale
    spec = random_spec(kind, n, 500 + 10 * n, fields=fields)
    if fields:  # z fields break H1's X-basis closed form

        def refuse(spec):
            raise AssertionError("closed form taken with z fields")

        monkeypatch.setattr(spindyn.hamiltonian, "_h1_norm", refuse)
    prop = Propagator(spec)
    h = dense_matrix(spec, prop.basis)
    exact = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert prop.dense == (kind in (Kind.H3, Kind.H4) or n < 4)
    if prop.dense:
        assert prop.norm_bound == pytest.approx(exact, rel=1e-12)
    else:
        alone = norm_bounds([spec], prop.basis)[0]
        assert prop.norm_bound == min(coupling_norm_bound(spec), alone)
        assert exact <= prop.norm_bound


def test_bessel_table_matches_scipy():
    z = np.array([0.0, 1e-30, 1e-9, 1e-3, 0.5, -3.0, 26.0, -103.0, 400.0])
    order = _series_order(400.0)
    want = scipy.special.jv(np.arange(order)[:, None], z[None, :])
    assert np.max(np.abs(_bessel_tables(z[None, :], [order])[:, 0] - want)) <= 5e-14


def test_bessel_table_with_tiny_columns_is_pinned():
    # every equilibrate grid starts at t = 0, so tiny columns share a
    # table with live ones; a scale-0 and a 1e-25 group hold nothing else.
    # sha256 of the table from before tiny columns ran in place.
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 12.0, 42)
    a = np.concatenate([rng.uniform(0.5, 3.0, 5), [-2.0, 0.0, 1e-25]])
    z = a[:, None] * ts
    orders = [_series_order(v) for v in np.abs(z).max(axis=1)]
    table = _bessel_tables(z, orders)
    assert table.shape == (73, 8, 42)
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "a3668f63352fc23de6e0c99ffc7fdaf3d8a2559f77192f56548a1de88cbe30fd"
    )


def test_series_order_matches_the_unit_step_scan():
    # the bracketed search finds the order a scan up from ceil|z| finds,
    # from z = 0 through orders near and past _MAX_ORDER
    def scan(z):
        order = max(1, math.ceil(abs(z)))
        while order < _MAX_ORDER and _bessel_tail_bound(z, order) > _TAIL_TOL:
            order += 1
        return order

    zs = np.concatenate([
        [0.0, 1e-30, -1e-30, 1e-17, 1e-9, 1e-3, -0.5, 1.0],
        np.linspace(0.01, 60.0, 1500),
        -np.geomspace(60.0, 1e4, 300),
        np.geomspace(300.0, 7e4, 80),
        [65000.0, 65535.0, 65536.0, 65536.5, 1e6],
    ])
    for z in zs:
        assert _series_order(z) == scan(z), z


def test_chebyshev_low_spectral_bound_fails_loudly(monkeypatch):
    # The true norm is half the bound here; at 0.2 x bound the spectrum of
    # H/a reaches 2.5, where T_k grows like 4.8^k and the series order
    # chosen for [-1, 1] no longer converges by t = 10.
    spec = random_spec(Kind.H3, 4, 67)
    low = 0.2 * coupling_norm_bound(spec)
    monkeypatch.setattr(spindyn.evolve, "coupling_norm_bound", lambda s: low)
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    prop = Propagator(spec)
    with pytest.raises(KrylovConvergenceError, match="norm drift"):
        prop.all_probabilities_at([0.5, 10.0])
    with pytest.raises(KrylovConvergenceError, match="norm drift"):
        prop.state_at(-10.0)


@pytest.mark.parametrize("kind,n", [(Kind.H3, 5), (Kind.H4, 4), (Kind.H4, 5)])
def test_chebyshev_table_matches_the_dense_engine(kind, n, monkeypatch):
    # the Chebyshev scale is the Collatz-Wielandt bound here, well below
    # coupling_norm_bound; on dense stacks and on CSR, on a grid to 8 ln n
    # and back, a lone Propagator's table is its chunk of one's bit for bit
    # and matches the eigh oracle
    spec = random_spec(kind, n, 110 + n)
    assert norm_bounds([spec], natural_basis(kind, n))[0] < 0.8 * coupling_norm_bound(spec)
    grid = np.linspace(-2.0, 8.0 * np.log(n), 33)
    for limit in (4096, 1):
        monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
        prop = Propagator(spec)
        assert prop.dense == (limit > 1)
        table = prop.all_probabilities_at(grid)
        assert np.array_equal(table, probability_tables([spec], prop.basis, grid)[0])
        assert np.max(np.abs(table - eigh_oracle(spec, prop.basis, grid))) <= 1e-13


@pytest.mark.parametrize("limit", [4096, 1])
def test_long_grid_chunks_of_times_match_the_oracle(limit, monkeypatch):
    # 700 times run as three chunks of times; the later chunks certify
    # their own series orders, shorter than the last time's, and every
    # column still matches the eigh oracle.  A chunk of draws keeps each
    # draw's bits
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    specs = [random_spec(Kind.H3, 3, 140 + j) for j in range(3)]
    basis = natural_basis(Kind.H3, 3)
    grid = np.linspace(40.0, -5.0, 700)
    assert grid.size > 2 * spindyn.evolve._TIME_CHUNK
    tables = probability_tables(specs, basis, grid)
    for spec, table in zip(specs, tables):
        assert np.array_equal(table, Propagator(spec).all_probabilities_at(grid))
        assert np.max(np.abs(table - eigh_oracle(spec, basis, grid))) <= 1e-12


@pytest.mark.parametrize("kind", list(Kind))
def test_chebyshev_propagates_zero_coupling_rows(kind, monkeypatch):
    # a zero row of J, and J = 0, where a = min(0, norm_bound) falls back to 1
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    n = 3
    rowless = sample_coupling(n, Rng(37)).entries.copy()
    rowless[0] = 0.0
    grid = np.linspace(-3.0, 5.0, 33)
    for entries in (rowless, np.zeros((n, n))):
        spec = HamiltonianSpec(kind, CouplingMatrix(entries))
        prop = Propagator(spec)
        assert not prop.dense
        table = prop.all_probabilities_at(grid)
        assert np.max(np.abs(table - eigh_oracle(spec, prop.basis, grid))) <= 1e-12
    assert norm_bounds([spec], prop.basis)[0] == (0.0 if kind is Kind.H1 else np.inf)


def chunk_specs(kind, n, fields):
    """16 draws whose scales give several series orders and Miller starts:
    plain draws, draws scaled by 3 and by 0.1, and J = 0 (a falls back to 1)."""
    specs = []
    for j in range(16):
        spec = random_spec(kind, n, 300 + j, fields)
        entries = spec.couplings.entries * (3.0 if j % 5 == 1 else 0.1 if j % 5 == 2 else 1.0)
        if j == 7:
            entries = np.zeros((n, n))
        specs.append(HamiltonianSpec(kind, CouplingMatrix(entries), spec.z_fields))
    return specs


# every dense size: class I up to n = 3, class II up to n = 4
_DENSE_CHUNKS = [
    (k, n, f, None)
    for k, sizes in ((Kind.H1, (2, 3)), (Kind.H2, (2, 3)), (Kind.H3, (2, 3, 4)), (Kind.H4, (2, 3, 4)))
    for n in sizes
    for f in (False, True)
]


@pytest.mark.parametrize(
    "kind,n,fields,limit",
    [
        (Kind.H1, 4, False, None),
        (Kind.H3, 6, False, None),
        (Kind.H4, 5, False, None),
        (Kind.H2, 3, True, 1),
        (Kind.H4, 4, True, 1),
    ]
    + _DENSE_CHUNKS,
)
def test_chunked_tables_match_each_draw_alone(kind, n, fields, limit, monkeypatch):
    # one recurrence and one Bessel loop for a chunk give every draw the
    # bits of its own chunk of one, whatever the chunk holds, and that is
    # the draw's own Propagator on dense stacks and on CSR alike
    if limit is not None:
        monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    basis = natural_basis(kind, n)
    specs = chunk_specs(kind, n, fields)
    props = [Propagator(spec, basis=basis) for spec in specs]
    assert props[0].dense == (limit is None and basis.dimension <= 128)
    assert len({_series_order(p.norm_bound * 6.0) for p in props}) >= 3
    grid = np.array([0.0, -0.7, 2.5, 6.0])
    rows = np.flatnonzero(np.arange(basis.dimension) % 3 != 1)
    alone = [p.all_probabilities_at(grid, rows) for p in props]
    for size in (1, 3, 16):
        tables = []
        for s in range(0, len(specs), size):
            tables += probability_tables(specs[s : s + size], basis, grid, rows)
        assert len(tables) == len(props)
        for got, want in zip(tables, alone):
            assert np.array_equal(got, want)
    full = probability_tables(specs[:3], basis, grid[:2])
    for got, prop in zip(full, props):
        assert np.array_equal(got, prop.all_probabilities_at(grid[:2]))


def test_chunked_guards_name_the_draw(monkeypatch):
    # draw 1 of 3 gets a spectral bound far below ||H||, and a draw with
    # couplings 1e5 times larger cannot certify a series order: each
    # failure names its draw, and the chunk returns nothing rather than
    # its siblings' tables alone
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    specs = [random_spec(Kind.H3, 4, 67 + j) for j in range(3)]
    props = [Propagator(spec) for spec in specs]
    alone = [p.all_probabilities_at([0.5, 10.0]) for p in props]
    real = spindyn.evolve.coupling_norm_bound

    def bound(spec):
        low = np.array_equal(spec.couplings.entries, specs[1].couplings.entries)
        return 0.2 * real(spec) if low else real(spec)

    monkeypatch.setattr(spindyn.evolve, "coupling_norm_bound", bound)
    basis = props[0].basis
    with pytest.raises(KrylovConvergenceError, match="norm drift") as err:
        probability_tables(specs, basis, [0.5, 10.0])
    assert err.value.draw == 1
    monkeypatch.setattr(spindyn.evolve, "coupling_norm_bound", real)
    big = HamiltonianSpec(Kind.H3, CouplingMatrix(1e5 * specs[2].couplings.entries))
    with pytest.raises(KrylovConvergenceError, match="tail bound") as err:
        probability_tables([specs[0], specs[1], big], basis, [0.5, 10.0])
    assert err.value.draw == 2
    for got, want in zip(probability_tables(specs, basis, [0.5, 10.0]), alone):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "kind,n,fields",
    [
        (Kind.H3, 2, False),
        (Kind.H3, 4, False),
        (Kind.H4, 2, False),
        (Kind.H4, 4, False),
        (Kind.H1, 2, False),
        (Kind.H2, 2, False),
        (Kind.H4, 2, True),
    ],
)
def test_dense_chunked_tables_match_each_draw_alone(kind, n, fields, monkeypatch):
    # a chunk within _DENSE_LIMIT steps on numpy stacks: neither it nor
    # a lone Propagator calls eigh or builds a scipy matrix, and for one
    # time or several, a row subset or every row, every chunk size gives
    # each draw the bits of its own Propagator; chunk_specs holds a J = 0
    # draw
    basis = natural_basis(kind, n)
    specs = chunk_specs(kind, n, fields)
    subset = np.flatnonzero(np.arange(basis.dimension) % 3 != 1)
    cases = [(grid, rows) for grid in ([1.3], [0.0, -0.7, 2.5, 6.0]) for rows in (subset, None)]
    props = [Propagator(spec, basis=basis) for spec in specs]
    assert props[0].dense

    def refuse(*args):
        raise AssertionError("a dense chunk decomposed H or built a scipy matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(spindyn.hamiltonian, "_csr", refuse)
    for grid, rows in cases:
        alone = [p.all_probabilities_at(grid, rows) for p in props]
        for size in (1, 3, 16):
            tables = []
            for s in range(0, len(specs), size):
                tables += probability_tables(specs[s : s + size], basis, grid, rows)
            assert len(tables) == len(specs)
            for got, want in zip(tables, alone):
                assert np.array_equal(got, want)


def test_failed_eigh_raises_decomposition_error(monkeypatch):
    # Propagator.norm_bound names a failed eigvalsh; no table read
    # decomposes H, and a lone Propagator's table is its chunk's, bit for bit
    basis = natural_basis(Kind.H4, 2)
    specs = [random_spec(Kind.H4, 2, 83 + j) for j in range(3)]

    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    prop = Propagator(specs[1], basis=basis)
    assert prop.dense
    with pytest.raises(DecompositionError, match="eigendecomposition failed") as err:
        prop.norm_bound
    assert isinstance(err.value, np.linalg.LinAlgError)
    tables = probability_tables(specs, basis, [0.5, 2.0])
    for got, spec in zip(tables, specs):
        want = Propagator(spec, basis=basis).all_probabilities_at([0.5, 2.0])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("limit", [4096, 1])
def test_chunk_refuses_mixed_layouts_and_sizes(limit, monkeypatch):
    # the chunk's basis is given, so what a chunk can still mix is its
    # draws' layouts and chiral splits, or a spec whose n misses the basis
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", limit)
    basis = Basis.full(3)
    h3 = random_spec(Kind.H3, 3, 1)
    for other in (random_spec(Kind.H4, 3, 2), random_spec(Kind.H3, 3, 3, fields=True)):
        with pytest.raises(ValueError, match="one layout"):
            probability_tables([h3, other], basis, [1.0])
    for chunk in ([h3, random_spec(Kind.H3, 4, 4)], [random_spec(Kind.H3, 4, 4), h3]):
        with pytest.raises(ValueError, match="basis size"):
            probability_tables(chunk, basis, [1.0])


@pytest.mark.parametrize(
    "kind,where,fields",
    [
        (Kind.H2, "full", True),
        (Kind.H2, "parity", True),
        (Kind.H3, "sector", False),
        (Kind.H3, "full", False),
        (Kind.H4, "sector", False),
        (Kind.H4, "full", False),
    ],
)
def test_chunk_norm_bounds_match_each_draw_alone(kind, where, fields):
    # one Collatz-Wielandt sweep for a chunk gives every draw the bits of
    # its own, on CSR and on dense stacks, and the two forms agree to
    # rounding; J = 0 (draw 7) reads inf on that draw only, unless z
    # fields fill the diagonal.  H3's |H| on the full basis has zero rows
    # (weights 0 and 2n hop nowhere), which the ratio skips
    basis = {"full": Basis.full(3), "parity": Basis.of(3, "parity", 0)}.get(where, Basis.sector(4))
    specs = chunk_specs(kind, basis.n, fields)
    bounds = norm_bounds(specs, basis)
    alone = [norm_bounds([spec], basis)[0] for spec in specs]
    assert np.array_equal(bounds, alone)
    stacked = norm_bounds(specs, basis, dense=True)
    assert np.array_equal(stacked, [norm_bounds([s], basis, dense=True)[0] for s in specs])
    finite = np.isfinite(bounds)
    assert np.array_equal(np.isfinite(stacked), finite)
    assert np.allclose(stacked[finite], bounds[finite], rtol=1e-13, atol=0.0)
    for spec, bound in zip(specs, bounds):
        exact = np.max(np.abs(np.linalg.eigvalsh(dense_matrix(spec, basis))))
        assert exact <= bound
    assert np.flatnonzero(~finite).tolist() == ([] if fields else [7])


@pytest.mark.parametrize("seed,orders", [(0, (70, 53)), (1, (81, 60)), (2, (74, 56))])
def test_norm_bound_skips_the_zero_rows_of_abs_h(seed, orders):
    # H3 on the full basis at n = 4: |H| has zero rows (weights 0 and 8),
    # where v = |H|^4 1 vanishes; the ratio over the rest is finite, still
    # bounds ||H||, and shortens the series at t = 8 ln 4
    spec = random_spec(Kind.H3, 4, seed)
    basis = Basis.full(4)
    exact = np.max(np.abs(np.linalg.eigvalsh(dense_matrix(spec, basis))))
    for dense in (False, True):
        bound = norm_bounds([spec], basis, dense)[0]
        assert exact <= bound < coupling_norm_bound(spec)
    t = 8.0 * np.log(4)
    scale = min(coupling_norm_bound(spec), float(norm_bounds([spec], basis)[0]))
    assert (_series_order(coupling_norm_bound(spec) * t), _series_order(scale * t)) == orders
    assert Propagator(spec, basis=basis).norm_bound == scale


@pytest.mark.parametrize("kind", [Kind.H3, Kind.H4])
def test_chebyshev_chunk_builds_its_matrices_once(kind, monkeypatch):
    # a chunk builds one |H| and one stack per half-step however many
    # draws it holds; `leading_blocks` views the stack as draws finish
    basis = natural_basis(kind, 5)
    assert basis.dimension > spindyn.evolve._DENSE_LIMIT
    specs = [random_spec(kind, 5, 400 + j) for j in range(16)]
    csr, leading = spindyn.hamiltonian._csr, spindyn.evolve.leading_blocks
    calls = {"csr": 0, "views": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(spindyn.hamiltonian, "_csr", counted("csr", csr))
    monkeypatch.setattr(spindyn.evolve, "leading_blocks", counted("views", leading))
    builds = []
    for m in (3, 16):
        calls.update(csr=0, views=0)
        probability_tables(specs[:m], basis, [0.5, 3.0], np.arange(10))
        builds.append(calls["csr"] - calls["views"])
    assert builds == ([4, 4] if kind is Kind.H3 else [2, 2])  # chiral: B^T and B


def test_draws_per_chunk_keeps_large_dimensions_alone():
    # stacking pays at small d; from d = 4096 each draw runs alone.  The
    # H3 n = 4 split (38 + 32) steps on a dense B of 8 * 38 * 32 bytes and
    # six vectors of 8 * 70 per draw, so the 1.75 MiB budget takes 140
    # draws; the H4 n = 4 sector steps on a dense 70 x 70 H (43 draws)
    sector = natural_basis(Kind.H3, 4)
    assert [side.size for side in parity_sides(sector)] == [38, 32]
    assert draws_per_chunk(Kind.H3, sector) == 140
    assert draws_per_chunk(Kind.H3, sector) == (
        spindyn.evolve._CHUNK_BYTES // (8 * 38 * 32 + 48 * 70)
    )
    assert draws_per_chunk(Kind.H4, sector) == 43
    assert draws_per_chunk(Kind.H1, natural_basis(Kind.H1, 4)) > 16
    assert draws_per_chunk(Kind.H4, natural_basis(Kind.H4, 6)) >= 4
    for kind, n in [(Kind.H1, 6), (Kind.H2, 6), (Kind.H3, 8), (Kind.H4, 8)]:
        assert natural_basis(kind, n).dimension >= 4096
        assert draws_per_chunk(kind, natural_basis(kind, n)) == 1


def test_chebyshev_uncertifiable_order_fails_before_stepping(monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 1)
    prop = Propagator(random_spec(Kind.H1, 2, 71))
    with pytest.raises(KrylovConvergenceError, match="tail bound"):
        prop.all_probabilities_at([1.0, 1e7])


def test_chebyshev_n8_sector_table_is_normalized():
    spec = random_spec(Kind.H3, 8, 73)
    prop = Propagator(spec)
    assert prop.basis.dimension == 12870 and not prop.dense
    table = prop.all_probabilities_at([0.0, 0.6, 1.5])
    assert table[prop.basis.index_of(BitString.y0(8)), 0] == 1.0
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-9


def test_dense_memory_guard_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(spindyn.evolve, "_DENSE_LIMIT", 20000)
    spec = random_spec(Kind.H3, 8, 73)
    tracemalloc.start()
    try:
        with pytest.raises(DenseMemoryError):
            Propagator(spec)
        with pytest.raises(DenseMemoryError):
            dense_matrix(random_spec(Kind.H1, 7, 79), Basis.full(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_energy_is_conserved():
    spec = random_spec(Kind.H2, 3, 17, fields=True)
    prop = Propagator(spec)
    h = dense_matrix(spec, prop.basis)
    v0 = prop.state_at(0.0).amplitudes
    e0 = np.vdot(v0, h @ v0).real
    for t in (0.7, 2.2, 5.1):
        v = prop.state_at(t).amplitudes
        assert np.vdot(v, h @ v).real == pytest.approx(e0, abs=1e-8)


def test_sector_and_full_basis_agree_for_class_two():
    spec = random_spec(Kind.H3, 3, 19)
    sector = Propagator(spec)
    full = Propagator(spec, basis=Basis.full(3))
    assert sector.basis is Basis.sector(3)
    for t in (0.6, 2.8):
        for idx in sector.basis.states[:5]:
            x = BitString.from_index(int(idx), 3)
            assert sector.probability(x, t) == pytest.approx(
                full.probability(x, t), abs=1e-10
            )


def test_class_two_weight_is_conserved_in_full_basis():
    spec = random_spec(Kind.H4, 3, 23)
    state = Propagator(spec, basis=Basis.full(3)).state_at(1.3)
    in_sector = 0.0
    for idx, p in enumerate(state.probabilities()):
        x = BitString.from_index(idx, 3)
        if x.weight() == 3:
            in_sector += p
        else:
            assert p < 1e-12
    assert in_sector == pytest.approx(1.0, abs=1e-9)


def test_coupling_rescaling_identity():
    # With no fields H is linear in J, so p(x; J; t) = p(x; (t/t0) J; t0).
    t, t0 = 2.3, 0.7
    spec = random_spec(Kind.H1, 3, 29)
    scaled = HamiltonianSpec(
        Kind.H1, CouplingMatrix((t / t0) * spec.couplings.entries)
    )
    x = BitString.x0(3)
    assert output_probability(spec, x, t) == pytest.approx(
        output_probability(scaled, x, t0), abs=1e-10
    )


def test_short_time_leading_order_is_permanent():
    # amplitude(t) = (-it)^m Per(J_ST)/n^m + O(t^{m+2}), so
    # p(t)/t^{2m} -> Per^2/n^{2m}.
    n = 3
    spec = random_spec(Kind.H1, n, 31)
    x = BitString((1, 1, 0) + (0, 0, 1))  # m = 2
    per = permanent_bruteforce(submatrix_for_outcome(spec.couplings, x))
    assert abs(per) > 0.1  # seed chosen to keep the target well away from zero
    target = per**2 / n**4
    prop = Propagator(spec)
    for t in (4e-3, 2e-3):
        assert prop.probability(x, t) / t**4 == pytest.approx(target, rel=1e-3)


def test_all_probabilities_at_matches_pointwise():
    spec = random_spec(Kind.H3, 3, 37)
    prop = Propagator(spec)
    times = [0.0, 0.8, 1.9]
    table = prop.all_probabilities_at(times)
    assert table.shape == (prop.basis.dimension, len(times))
    for col, t in enumerate(times):
        want = prop.state_at(t).probabilities()
        assert np.max(np.abs(table[:, col] - want)) < 1e-12
    assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-9


def test_ising_time_average_closed_form():
    # For H1 the infinite-time average is 2^{-2n} (1 + (-1)^{n + |x|}).
    n = 2
    spec = random_spec(Kind.H1, n, 43)
    T = 600.0
    for bits, want in [
        ((1, 0, 0, 1), 1 / 8),  # |x| = 2, n even
        ((1, 1, 1, 1), 1 / 8),
        ((1, 0, 0, 0), 0.0),  # odd weight
    ]:
        got = time_average(spec, BitString(bits), T, grid=6000)
        assert got == pytest.approx(want, abs=2e-3)


def test_time_average_limits_and_validation():
    spec = random_spec(Kind.H1, 2, 47)
    y0 = BitString.y0(2)
    assert time_average(spec, y0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert time_average(spec, BitString.x0(2), 0.0) == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(ValueError):
        time_average(spec, y0, 1.0, grid=50)


def test_time_average_outside_sector_is_zero():
    spec = random_spec(Kind.H3, 2, 53)
    off = BitString((1, 1, 1, 0))  # weight 3 on 2n = 4 spins
    assert time_average(spec, off, 2.0) == 0.0


def test_output_probability_size_mismatch():
    spec = random_spec(Kind.H1, 2, 59)
    with pytest.raises(ValueError):
        output_probability(spec, BitString.y0(3), 1.0)
