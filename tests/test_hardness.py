"""Reduction pipelines (dynamics -> permanent) and the analytic bound calculators."""

import math

import numpy as np
import pytest

from spindyn.core import (
    Basis,
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Rng,
    SampleSet,
    sample_coupling,
)
from spindyn.evolve import Propagator
from spindyn.hamiltonian import coupling_norm_bound, dense_matrix, moment_table
from spindyn.hardness import (
    anticoncentration_thresholds,
    extract_permanent_from_dynamics,
    gaussian_rescaling_tvd,
    interpolation_recovery_bound,
    interpolation_tvd,
    short_time_xi_bound,
    stockmeyer_error,
    truncation_error,
    worst_to_average_demo,
    xi_square_negligible,
)
from spindyn.permanent import permanent_bruteforce, submatrix_for_outcome
from spindyn.polyfit import extract_coefficient


# ---------------------------------------------------------------- truncation


def test_truncation_error_direct_value():
    assert truncation_error(1.0, 1.0, 1) == pytest.approx(2.0)


def test_truncation_error_log_space():
    # (2*100)^201 alone overflows a float; the ratio is ~6e85 and must survive.
    value = truncation_error(100.0, 1.0, 200)
    assert math.isfinite(value)
    assert value > 1.0
    # Far past the factorial crossover the ratio underflows cleanly to zero.
    assert truncation_error(10.0, 1.0, 500) == 0.0


def test_truncation_error_monotone_in_t():
    values = [truncation_error(1.0, t, 5) for t in (0.1, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_truncation_error_decreases_in_K():
    # factorial dominance for 2 ||H|| t < 1
    for K in range(1, 9):
        assert truncation_error(1.0, 0.4, K + 4) < truncation_error(1.0, 0.4, K)


@pytest.mark.parametrize("args", [(0.0, 1.0, 2), (1.0, 0.0, 2), (1.0, 1.0, 0)])
def test_truncation_error_validation(args):
    with pytest.raises(ValueError):
        truncation_error(*args)


def test_truncation_error_bounds_taylor_remainder():
    # Build the degree-K Taylor polynomial of p(t) from amplitude moments and
    # compare the measured remainder against eps_K.
    K, t = 10, 0.2
    spec = HamiltonianSpec(Kind.H3, sample_coupling(2, Rng(64)))
    basis = Basis.sector(2)
    H = dense_matrix(spec, basis)
    iy = basis.index_of(BitString.y0(2))
    ix = basis.index_of(BitString.x0(2))
    v = np.zeros(H.shape[0], dtype=complex)
    v[iy] = 1.0
    amp = []
    for ell in range(K + 1):
        amp.append((-1j) ** ell * v[ix] / math.factorial(ell))
        v = H @ v
    p_coeffs = np.convolve(np.array(amp), np.conj(np.array(amp)))[: K + 1]
    assert np.max(np.abs(p_coeffs.imag)) < 1e-14
    p_exact = Propagator(spec).all_probabilities_at(np.array([t]))[ix][0]
    p_taylor = np.polynomial.polynomial.polyval(t, p_coeffs.real)
    remainder = abs(p_exact - p_taylor)
    assert remainder <= truncation_error(Propagator(spec).norm_bound, t, K)


# ------------------------------------------------------------ short-time xi


def test_xi_bound_direct_value():
    expected = 2.0**4 * 3**3 * 0.5 / math.factorial(4)
    assert short_time_xi_bound(2.0, 3, 0.5) == pytest.approx(expected, rel=1e-12)


def test_xi_bound_zero_time():
    assert short_time_xi_bound(1.0, 4, 0.0) == 0.0


def test_xi_bound_stirling_step():
    # ||H|| <= 3n turns the bound into (3e)^{n+1} n^n t.
    t = 0.7
    for n in range(1, 41):
        loose = (3 * math.e) ** (n + 1) * float(n) ** n * t
        assert short_time_xi_bound(3.0 * n, n, t) <= loose


def test_xi_bound_validation():
    with pytest.raises(ValueError):
        short_time_xi_bound(0.0, 2, 1.0)
    with pytest.raises(ValueError):
        short_time_xi_bound(1.0, 2, -1.0)


@pytest.mark.parametrize(
    "c, expected",
    [(0.6, True), (0.4, False), (0.51, True), (0.49, False), (0.5, False)],
)
def test_xi_negligibility_predicate(c, expected):
    assert xi_square_negligible(c) is expected


def test_xi_predicate_rejects_small_probes():
    with pytest.raises(ValueError):
        xi_square_negligible(0.6, probes=(10.0, 100.0))


# -------------------------------------------------------------- rescaling TVD


def test_rescaling_tvd_zero_at_equal_times():
    assert gaussian_rescaling_tvd(2.5, 2.5, 7) == 0.0


def test_rescaling_tvd_direct_value():
    assert gaussian_rescaling_tvd(1.01, 1.0, 10) == pytest.approx(
        15.0 * math.sqrt(0.0201), rel=1e-12
    )


def test_rescaling_tvd_window_budget():
    # Delta = beta / n^2 keeps the cost at (3/2) sqrt(2 beta + beta^2/n^2),
    # bounded uniformly in n.
    beta = 1.0 / 64.0
    for n in range(2, 101):
        delta = beta / n**2
        value = gaussian_rescaling_tvd(1.0 + delta, 1.0, n)
        closed = 1.5 * math.sqrt(2 * beta + beta**2 / n**2)
        assert value == pytest.approx(closed, rel=1e-9)
        assert value <= 0.266


def test_rescaling_tvd_validation():
    with pytest.raises(ValueError):
        gaussian_rescaling_tvd(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        gaussian_rescaling_tvd(1.0, -2.0, 3)


# ------------------------------------------------------- approximate counting


@pytest.mark.parametrize("model_class", ["I", "II"])
def test_stockmeyer_zero_noise(model_class):
    assert stockmeyer_error(model_class, 0.0, 0.5, 0.0, 4, 0.3) == 0.0


def test_stockmeyer_class_I_value():
    assert stockmeyer_error("I", 0.1, 0.5, 0.0, 4, 0.0) == pytest.approx(0.00625)


def test_stockmeyer_class_II_value():
    expected = 2.0 / (math.sqrt(math.pi) * 0.5) * 0.1 * 2.0 / math.comb(8, 4)
    assert stockmeyer_error("II", 0.1, 0.5, 0.0, 4, 0.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_stockmeyer_class_ratio():
    for n in range(1, 13):
        eps_I = stockmeyer_error("I", 0.2, 0.3, 0.0, n, 0.0)
        eps_II = stockmeyer_error("II", 0.2, 0.3, 0.0, n, 0.0)
        expected = (
            (2.0 / math.sqrt(math.pi))
            * math.sqrt(n)
            * 4.0**n
            / (2.0 * n * math.comb(2 * n, n))
        )
        assert eps_II / eps_I == pytest.approx(expected, rel=1e-10)


def test_stockmeyer_failure_term():
    # nu = 0 isolates the g p(x) contribution.
    assert stockmeyer_error("I", 0.0, 0.5, 0.25, 3, 0.08) == pytest.approx(0.02)


def test_stockmeyer_monotone_in_errors():
    base = stockmeyer_error("II", 0.1, 0.5, 0.1, 5, 0.2)
    assert stockmeyer_error("II", 0.2, 0.5, 0.1, 5, 0.2) > base
    assert stockmeyer_error("II", 0.1, 0.5, 0.3, 5, 0.2) > base


@pytest.mark.parametrize(
    "args",
    [
        ("III", 0.1, 0.5, 0.0, 2, 0.0),
        ("I", 0.1, 1.5, 0.0, 2, 0.0),
        ("I", -0.1, 0.5, 0.0, 2, 0.0),
        ("I", 0.1, 0.5, -0.2, 2, 0.0),
        ("I", 0.1, 0.5, 0.0, 0, 0.0),
    ],
)
def test_stockmeyer_validation(args):
    with pytest.raises(ValueError):
        stockmeyer_error(*args)


def test_anticoncentration_threshold_values():
    assert anticoncentration_thresholds("I", 2) == pytest.approx(1.0 / 16.0)
    assert anticoncentration_thresholds("II", 2) == pytest.approx(1.0 / 6.0)
    assert anticoncentration_thresholds("II", 10) == pytest.approx(
        1.0 / 184756.0, rel=1e-12
    )


def test_anticoncentration_threshold_log_space():
    value = anticoncentration_thresholds("II", 300)
    assert math.isfinite(value)
    assert value > 0.0


def test_anticoncentration_threshold_validation():
    with pytest.raises(ValueError):
        anticoncentration_thresholds("A", 2)
    with pytest.raises(ValueError):
        anticoncentration_thresholds("I", 0)


# ----------------------------------------------------- permanent extraction


def test_extraction_n2_reference_window():
    # Worst case over this draw block measures ~7e-4 on the mixed scale; the
    # returned bound always covers.  The tighter 1e-3 relative target is
    # exercised at K = 2n+6 in the acceptance suite.
    for draw in range(50):
        spec = HamiltonianSpec(Kind.H1, sample_coupling(2, Rng(1000 + draw)))
        est, truth, bound = extract_permanent_from_dynamics(
            spec, BitString.x0(2), 0.1, 0.5, 8
        )
        assert abs(est - truth) <= bound
        assert abs(est - truth) <= 1e-2 * (1.0 + abs(truth))


def test_extraction_m2_submatrix():
    x = BitString.class_representative(3, 2)
    for draw in range(50):
        J = sample_coupling(3, Rng(2000 + draw))
        spec = HamiltonianSpec(Kind.H1, J)
        est, truth, bound = extract_permanent_from_dynamics(spec, x, 0.05, 0.9, 8)
        sub = submatrix_for_outcome(J, x)
        assert sub.shape == (2, 2)
        brute = float(permanent_bruteforce(sub)) ** 2
        assert truth == pytest.approx(brute, rel=1e-12, abs=1e-12)
        assert abs(est - truth) <= bound
        assert abs(est - truth) <= 1e-3 * (1.0 + abs(truth))


def test_extraction_bound_reads_the_propagator_norm():
    # H3 at n = 7 runs the Chebyshev engine on the sector, whose norm bound
    # lies far below coupling_norm_bound; the Taylor term follows it
    n, K, t0, dw = 7, 8, 0.1, 0.5
    spec = HamiltonianSpec(Kind.H3, sample_coupling(n, Rng(0)))
    x = BitString.class_representative(n, 1)
    est, truth, bound = extract_permanent_from_dynamics(spec, x, t0, dw, K)
    nodes = SampleSet(np.linspace(t0 * (1 - dw), t0 * (1 + dw), K + 1), np.zeros(K + 1))

    def budget(norm):
        eps_K = truncation_error(norm, t0 * (1 + dw), K)
        return extract_coefficient(nodes, 2, t0, dw, eps_K)[1] * n**2

    norm = Propagator(spec).norm_bound
    assert norm < coupling_norm_bound(spec)
    assert bound == pytest.approx(budget(norm), rel=1e-12)
    assert bound < 1e-2 * budget(coupling_norm_bound(spec))
    assert abs(est - truth) <= bound


def test_extraction_zero_coupling():
    spec = HamiltonianSpec(Kind.H1, CouplingMatrix(np.zeros((2, 2))))
    est, truth, bound = extract_permanent_from_dynamics(
        spec, BitString.x0(2), 0.1, 0.5, 8
    )
    assert est == 0.0
    assert truth == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_extraction_end_to_end(n):
    for m in range(1, n + 1):
        x = BitString.class_representative(n, m)
        for draw in range(50):
            spec = HamiltonianSpec(Kind.H1, sample_coupling(n, Rng(4000 + draw)))
            est, truth, bound = extract_permanent_from_dynamics(
                spec, x, 0.1, 0.5, 2 * m + 6
            )
            assert abs(est - truth) <= max(bound, 1e-6 * (1.0 + abs(truth)))


@pytest.mark.parametrize("kind, n", [(Kind.H3, 4), (Kind.H4, 4), (Kind.H1, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extraction_keeps_p_relative_accuracy_at_small_dimension(kind, n, seed):
    # the CLI defaults at d = 70 and 64, within _DENSE_LIMIT: p(x; t) is
    # O(t^{2m}) on X_n, and reading it from the recurrence keeps its
    # relative accuracy, so the estimate lands within 1e-2 of the truth
    # (an eigendecomposition read missed it by up to 4.4e3 relative)
    m = n
    x = BitString.class_representative(n, m)
    spec = HamiltonianSpec(kind, sample_coupling(n, Rng(seed)))
    assert Propagator(spec).dense
    est, truth, _ = extract_permanent_from_dynamics(spec, x, 0.1, 0.5, 2 * m + 6)
    assert abs(est - truth) <= 1e-2 * abs(truth)


@pytest.mark.parametrize(
    "kind, n",
    [(Kind.H1, 2), (Kind.H1, 3), (Kind.H3, 3)],
)
def test_extraction_leading_coefficient_matches_moment(kind, n):
    # a_2 = <x|H|y0>^2: the t^2 coefficient ties the fit to the algebraic
    # identity.  The narrow window keeps double precision ~1e5 in hand.
    x = BitString.class_representative(n, 1)
    for draw in range(50):
        spec = HamiltonianSpec(kind, sample_coupling(n, Rng(3000 + draw)))
        est, _, _ = extract_permanent_from_dynamics(spec, x, 0.02, 0.9, 8)
        target = float(moment_table(spec, 1)[1, x.index()]) ** 2
        if abs(target) < 1e-12:
            continue
        assert est / float(n) ** 2 == pytest.approx(target, rel=1e-6)


@pytest.mark.parametrize(
    "n, m, K, rel",
    [(2, 2, 8, 1e-5), (3, 3, 10, 2e-4)],
)
def test_extraction_deeper_coefficients(n, m, K, rel):
    # Deeper coefficients amplify the ~1e-16 absolute sample noise by
    # t0^{-2m} (4/Delta)^K C(K, 2m); these tolerances sit >= 10x above the
    # measured double-precision floor for each configuration.
    x = BitString.class_representative(n, m)
    for draw in range(50):
        spec = HamiltonianSpec(Kind.H1, sample_coupling(n, Rng(7000 + draw)))
        est, _, _ = extract_permanent_from_dynamics(spec, x, 0.02, 0.99, K)
        target = (float(moment_table(spec, m)[m, x.index()]) / math.factorial(m)) ** 2
        if abs(target) < 1e-12:
            continue
        assert est / float(n) ** (2 * m) == pytest.approx(target, rel=rel)


def test_extraction_noisy_mode_deterministic():
    spec = HamiltonianSpec(Kind.H1, sample_coupling(2, Rng(42)))
    args = (spec, BitString.x0(2), 0.1, 0.5, 8)
    first = extract_permanent_from_dynamics(*args, noise_delta=1e-4, rng=Rng(7))
    second = extract_permanent_from_dynamics(*args, noise_delta=1e-4, rng=Rng(7))
    other = extract_permanent_from_dynamics(*args, noise_delta=1e-4, rng=Rng(8))
    assert first == second
    assert first[0] != other[0]
    # the oracle is noisy exactly when noise_delta > 0: at 0 no draw is read
    clean = extract_permanent_from_dynamics(*args)
    assert extract_permanent_from_dynamics(*args, rng=Rng(7)) == clean
    assert clean[0] != first[0]


def test_extraction_noisy_mode_within_bound():
    for draw in range(10):
        spec = HamiltonianSpec(Kind.H1, sample_coupling(2, Rng(5000 + draw)))
        est, truth, bound = extract_permanent_from_dynamics(
            spec,
            BitString.x0(2),
            0.1,
            0.5,
            8,
            noise_delta=1e-4,
            rng=Rng(600 + draw),
        )
        assert abs(est - truth) <= bound


def test_extraction_sign_adversarial_noise():
    # Uniform noise understates the worst case: flip each sample by delta in
    # the direction of its extraction weight and check the noise term of the
    # returned bound still covers the shift.
    spec = HamiltonianSpec(Kind.H1, sample_coupling(3, Rng(77)))
    x = BitString.class_representative(3, 2)
    t0, dw, K, delta = 0.1, 0.5, 8, 1e-3
    nodes = np.linspace(t0 * (1 - dw), t0 * (1 + dw), K + 1)
    prop = Propagator(spec)
    clean = prop.all_probabilities_at(nodes)[prop.basis.index_of(x)]
    weights = np.array(
        [
            extract_coefficient(
                SampleSet(nodes, np.eye(K + 1)[i]), 4, t0, dw, 0.0
            )[0]
            for i in range(K + 1)
        ]
    )
    adversarial = clean + delta * np.sign(weights)
    est_clean, _ = extract_coefficient(SampleSet(nodes, clean), 4, t0, dw, 0.0)
    est_adv, noise_bound = extract_coefficient(
        SampleSet(nodes, adversarial), 4, t0, dw, delta
    )
    shift = abs(est_adv - est_clean)
    assert shift == pytest.approx(delta * np.abs(weights).sum(), rel=1e-9)
    assert shift <= noise_bound
    _, truth, bound = extract_permanent_from_dynamics(
        spec, x, t0, dw, K, noise_delta=delta, rng=Rng(1)
    )
    assert abs(est_adv * 3.0**4 - truth) <= bound + abs(est_clean * 3.0**4 - truth)


def test_extraction_validation():
    spec = HamiltonianSpec(Kind.H1, sample_coupling(2, Rng(0)))
    x0 = BitString.x0(2)
    with pytest.raises(ValueError):
        extract_permanent_from_dynamics(spec, BitString.y0(2), 0.1, 0.5, 8)
    with pytest.raises(ValueError):
        extract_permanent_from_dynamics(spec, x0, 0.1, 0.5, 3)
    with pytest.raises(ValueError):
        extract_permanent_from_dynamics(spec, x0, 0.1, 0.5, 8, noise_delta=-1.0)
    with pytest.raises(ValueError):
        extract_permanent_from_dynamics(spec, BitString.x0(3), 0.1, 0.5, 8)


# ------------------------------------------------------------ interpolation


def test_recovery_bound_value():
    assert interpolation_recovery_bound(1e-3, 0.5, 3) == pytest.approx(1.152)


def test_recovery_bound_monotone_in_delta():
    assert interpolation_recovery_bound(2e-3, 0.5, 3) > interpolation_recovery_bound(
        1e-3, 0.5, 3
    )


def test_interpolation_tvd_values():
    assert interpolation_tvd(0.0, 5) == 0.0
    assert interpolation_tvd(0.04, 5) == pytest.approx(3.2)


def test_interpolation_tvd_monotone():
    values = [interpolation_tvd(t, 4) for t in (0.0, 0.01, 0.1, 0.5)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_interpolation_helper_validation():
    with pytest.raises(ValueError):
        interpolation_recovery_bound(1e-3, 0.0, 3)
    with pytest.raises(ValueError):
        interpolation_tvd(-0.1, 4)


# --------------------------------------------------------- worst-to-average


def test_w2a_identity_noiseless():
    # At the proof's default window the only noise is floating point; the
    # recovery bound with delta ~ 1e-13 still pins the estimate near 1.
    est, truth = worst_to_average_demo(np.eye(3), 0.0, Rng(11))
    assert truth == 1.0
    assert abs(est - 1.0) <= interpolation_recovery_bound(1e-13, 48.0**-2, 3)
    assert abs(est - 1.0) <= 1e-3


def test_w2a_integer_recovery():
    # A recovery bound below 1/2 forces the rounded estimate onto the exact
    # integer permanent.
    bound = interpolation_recovery_bound(1e-12, 0.02, 4)
    assert bound < 0.5
    for draw in range(10):
        X = (Rng(500 + draw).generator().uniform(0, 1, (4, 4)) < 0.5).astype(float)
        est, truth = worst_to_average_demo(
            X, 1e-12, Rng(900 + draw), delta_window=0.02
        )
        assert truth == round(truth)
        assert abs(est - truth) <= bound
        assert round(est) == truth


def test_w2a_truth_is_brute_force():
    _, truth = worst_to_average_demo(np.ones((3, 3)), 0.0, Rng(3))
    assert truth == 6.0


def test_w2a_truth_is_the_exact_permanent_bit_for_bit():
    # Glynn on a 0/1 matrix with m <= 7 stays in integers below 2**53.
    cases = [np.ones((7, 7))]
    for m in range(1, 8):
        g = Rng(71, m).generator()
        cases += [(g.random((m, m)) < g.random()).astype(float) for _ in range(100)]
    for k, X in enumerate(cases):
        _, truth = worst_to_average_demo(X, 0.0, Rng(k), repetitions=1)
        assert truth.hex() == float(permanent_bruteforce(X)).hex(), f"case {k}"
    assert worst_to_average_demo(cases[0], 0.0, Rng(0), repetitions=1)[1] == 5040.0


def test_w2a_deterministic():
    X = np.eye(4)
    assert worst_to_average_demo(X, 1e-6, Rng(21)) == worst_to_average_demo(
        X, 1e-6, Rng(21)
    )


def test_w2a_validation():
    with pytest.raises(ValueError):
        worst_to_average_demo(np.eye(8), 0.0, Rng(0))
    with pytest.raises(ValueError, match="1 <= m"):
        worst_to_average_demo(np.zeros((0, 0)), 0.0, Rng(0))
    with pytest.raises(ValueError):
        worst_to_average_demo(np.full((3, 3), 0.5), 0.0, Rng(0))
    with pytest.raises(ValueError):
        worst_to_average_demo(np.ones((2, 3)), 0.0, Rng(0))
