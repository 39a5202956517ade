import itertools
import math
import threading

import numpy as np
import pytest

import spindyn.core
from spindyn.core import (
    Basis,
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Polynomial,
    Rng,
    SampleSet,
    StateVector,
    _block_states,
    hamming_class,
    hamming_class_bits,
    hamming_class_members,
    hamming_class_states,
    model_class,
    one_blas_thread,
    sample_coupling,
)


def test_y0_and_x0_classes():
    for n in (1, 2, 3, 5):
        assert hamming_class(BitString.y0(n)) == 0
        assert hamming_class(BitString.x0(n)) == n


def test_all_ones_has_no_class():
    for n in (1, 2, 3):
        assert hamming_class(BitString((1,) * (2 * n))) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_partition_exhaustive(n):
    # every weight-n string lands in exactly one class; the union is X
    counts = {m: 0 for m in range(n + 1)}
    total_weight_n = 0
    for idx in range(1 << (2 * n)):
        x = BitString.from_index(idx, n)
        m = hamming_class(x)
        if x.weight() == n:
            total_weight_n += 1
        if m is not None:
            counts[m] += 1
            assert x.weight() == n  # members of X_m always have total weight n
    assert sum(counts.values()) == total_weight_n == math.comb(2 * n, n)
    for m in range(n + 1):
        assert counts[m] == math.comb(n, m) ** 2
        assert len(hamming_class_members(n, m)) == math.comb(n, m) ** 2


def class_members_by_combinations(n, m):
    """X_m as nested itertools.combinations: sigma ones, then tau ones."""
    out = []
    for s_ones in itertools.combinations(range(n), m):
        sigma = [1 if i in s_ones else 0 for i in range(n)]
        for t_ones in itertools.combinations(range(n), n - m):
            tau = [1 if j in t_ones else 0 for j in range(n)]
            out.append(BitString(tuple(sigma + tau)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hamming_class_states_match_the_combinations_order(n):
    for m in range(n + 1):
        oracle = class_members_by_combinations(n, m)
        states = hamming_class_states(n, m)
        assert states.dtype == np.int64
        assert states.tolist() == [x.index() for x in oracle]
        assert hamming_class_members(n, m) == oracle
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0] = 0
        assert hamming_class_states(n, m) is states  # cached per (n, m)
        bits = hamming_class_bits(n, m)
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        assert bits.tolist() == [list(x.bits) for x in oracle]
        assert hamming_class_bits(n, m) is bits
    for m in (-1, n + 1):
        with pytest.raises(ValueError):
            hamming_class_states(n, m)


def test_sector_order_is_sorted_once_per_n():
    # Basis.of and every hamming_class_states(n, m) read this one array
    order = _block_states(4, "weight", 4)
    assert _block_states(4, "weight", 4) is order
    assert not order.flags.writeable


def test_class_representative_lies_in_its_class():
    for n in (1, 2, 3, 5):
        for m in range(1, n + 1):
            x = BitString.class_representative(n, m)
            assert hamming_class(x) == m
            assert x.index() in hamming_class_states(n, m)
        assert BitString.class_representative(n, n) == BitString.x0(n)
        for m in (0, n + 1):
            with pytest.raises(ValueError, match="Hamming class"):
                BitString.class_representative(n, m)
    assert str(BitString.class_representative(4, 2)) == "11000011"


def test_index_round_trip():
    for n in (1, 3):
        for idx in range(1 << (2 * n)):
            assert BitString.from_index(idx, n).index() == idx


def test_sigma_tau_halves():
    x = BitString((1, 0, 0, 1, 1, 0))
    assert x.sigma_half() == (1, 0, 0)
    assert x.tau_half() == (1, 1, 0)
    assert str(x) == "100110"  # the label every CSV and report writes


def test_sector_basis_lexicographic():
    b = Basis.sector(2)
    strings = [str(BitString.from_index(int(k), 2)) for k in b.states]
    assert strings == sorted(strings)
    assert len(strings) == 6
    # positions round-trip
    for i, k in enumerate(b.states):
        assert b.index_of(BitString.from_index(int(k), 2)) == i
    assert b.index_of(BitString((1, 0, 0, 0))) is None


@pytest.mark.parametrize(
    "symmetry, label",
    [("full", 0), ("parity", 0), ("parity", 1), ("weight", 1), ("weight", 2), ("weight", 3)],
)
def test_flip_index_partners_from_bit_strings(symmetry, label):
    n = 2
    index = Basis.of(n, symmetry, label)
    members = [
        k for k in range(1 << (2 * n))
        if symmetry == "full"
        or (symmetry == "parity" and BitString.from_index(k, n).weight() % 2 == label)
        or (symmetry == "weight" and BitString.from_index(k, n).weight() == label)
    ]
    assert sorted(index.states.tolist()) == members
    if symmetry == "weight":
        strings = [str(BitString.from_index(int(k), n)) for k in index.states]
        assert strings == sorted(strings)
    for r, k in enumerate(index.states.tolist()):
        bits = BitString.from_index(k, n).bits
        assert index.pos[k] == r
        assert index.signs[r].tolist() == [1 - 2 * b for b in bits]
        for i in range(n):
            for j in range(n):
                flipped = list(bits)
                flipped[i] ^= 1
                flipped[n + j] ^= 1
                target = BitString(tuple(flipped)).index()
                got = int(index.partner[i, j, r])
                if target in members:
                    assert index.states[got] == target
                else:  # a partner outside the rows is the row itself
                    assert got == r
                assert index.differ[i, j, r] == (bits[i] != bits[n + j])
    assert np.all(np.delete(index.pos, index.states) == -1)


def test_basis_is_built_once_per_row_set():
    # bases compare by identity, so the cache must hand back one object
    sector = Basis.sector(3)
    assert Basis.of(3, "weight", 3) is sector
    assert Basis.of(3, "weight", np.int64(3)) is sector
    assert Basis.full(3) is Basis.of(3, "full", 0)
    assert sector.dimension == math.comb(6, 3)
    assert repr(sector) == "Basis.of(3, 'weight', 3)"
    with pytest.raises(TypeError):
        Basis.of(n=3, symmetry="weight", label=3)
    for args in [(0, "full", 0), (2, "sector", 2), (2, "parity", 2), (2, "weight", 5)]:
        with pytest.raises(ValueError):
            Basis.of(*args)


def test_rng_determinism_and_streams():
    a = sample_coupling(4, Rng(123, 5)).entries
    b = sample_coupling(4, Rng(123, 5)).entries
    assert np.array_equal(a, b)
    c = sample_coupling(4, Rng(123, 6)).entries
    assert not np.array_equal(a, c)
    d = sample_coupling(4, Rng(124, 5)).entries
    assert not np.array_equal(a, d)


def test_rng_substream_paths_distinct():
    r = Rng(9)
    seen = {tuple(np.ravel(sample_coupling(2, r.substream(k)).entries)) for k in range(20)}
    assert len(seen) == 20
    # nested substreams differ from flat ones
    assert not np.array_equal(
        sample_coupling(2, r.substream(1).substream(2)).entries,
        sample_coupling(2, r.substream(1)).entries,
    )


def test_gaussian_moments_monte_carlo():
    draws = Rng(77).generator().standard_normal(10**5 * 16).reshape(-1, 4, 4)
    flat = draws.ravel()
    n = flat.size
    mean = float(flat.mean())
    var = float(flat.var())
    assert abs(mean) <= 3 / math.sqrt(n)  # SE of the mean of N(0,1)
    assert abs(var - 1.0) <= 3 * math.sqrt(2 / n)  # SE of the variance


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        CouplingMatrix(np.array([[np.inf]]))


def test_spec_validation():
    J = CouplingMatrix(np.eye(2))
    s = HamiltonianSpec(Kind.H3, J)
    assert s.n == 2 and s.z_fields is None
    s2 = HamiltonianSpec("H1", J, z_fields=([0.1, 0.2], [0.3, 0.4]))
    assert s2.kind is Kind.H1
    with pytest.raises(ValueError):
        HamiltonianSpec(Kind.H1, J, z_fields=([1.0], [1.0, 2.0]))


def test_model_class():
    assert model_class(Kind.H1) == "I"
    assert model_class("H2") == "I"
    assert model_class(Kind.H3) == "II"
    assert model_class(Kind.H4) == "II"


def test_state_vector_basics():
    b = Basis.full(1)
    v = StateVector.basis_state(BitString.y0(1), b)
    assert v.norm() == pytest.approx(1.0)
    assert v.probability(BitString.y0(1)) == pytest.approx(1.0)
    assert v.probability(BitString.x0(1)) == 0.0
    with pytest.raises(ValueError):
        StateVector(np.ones(3), b)
    # sector basis state outside the sector is rejected
    with pytest.raises(ValueError):
        StateVector.basis_state(BitString((1, 1, 1, 1)), Basis.sector(2))


def test_polynomial_degree_and_eval():
    p = Polynomial([1.0, 0.0, 2.0, 0.0])
    assert p.degree() == 3  # trailing zeros count toward the stored degree
    assert p(2.0) == pytest.approx(1 + 2 * 4)
    assert p.coefficient(2) == 2.0
    assert p.coefficient(17) == 0.0


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        SampleSet(np.array([0.1, 0.2]), np.array([1.5]))
    s = SampleSet([0.1, 0.2], [1.5, -2.25])
    assert len(s) == 2 and s.t.dtype == s.y.dtype == np.float64


# -------------------------------------------------------------- BLAS pin


def test_one_blas_thread_nests_and_restores_the_callers_count():
    set_threads, get_threads, name = spindyn.core._openblas_threads()
    caller = get_threads()
    set_threads(2)
    try:
        with one_blas_thread() as outer:
            assert outer.pinned and name in outer.detail
            assert get_threads() == 1
            with one_blas_thread() as inner:
                assert inner == outer
                assert get_threads() == 1
            assert get_threads() == 1  # only the outermost exit restores
        assert get_threads() == 2
        # entries from other threads nest with the caller's: the count
        # comes back only when the last of them exits
        entered, release = threading.Event(), threading.Event()

        def hold():
            with one_blas_thread():
                entered.set()
                release.wait(10)

        with one_blas_thread():
            worker = threading.Thread(target=hold)
            worker.start()
            assert entered.wait(10)
        assert get_threads() == 1
        release.set()
        worker.join(10)
        assert get_threads() == 2
        # an exception leaves the pin as a normal exit does
        with pytest.raises(KeyError), one_blas_thread():
            raise KeyError("inside")
        assert get_threads() == 2
    finally:
        set_threads(caller)


def test_one_blas_thread_reports_a_missing_library(monkeypatch):
    def missing():
        raise OSError("no libscipy_openblas64_*.so in nowhere")

    monkeypatch.setattr(spindyn.core, "_openblas_threads", missing)
    with pytest.warns(RuntimeWarning, match="not pinned: no libscipy_openblas64_"):
        with one_blas_thread() as pin:
            assert not pin.pinned
            assert pin.detail == "not pinned: no libscipy_openblas64_*.so in nowhere"
            assert np.linalg.eigvalsh(np.eye(3)).tolist() == [1.0, 1.0, 1.0]
