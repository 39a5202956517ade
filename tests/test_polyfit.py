"""Interpolation, bounded-noise extraction, and corrupted-sample recovery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spindyn.core import Polynomial, Rng, SampleSet
from spindyn.polyfit import (
    RecoveryError,
    _bw_system,
    _exact_solve,
    berlekamp_welch_recover,
    extract_coefficient,
    lagrange_fit,
    robust_median_fit,
    roots_to_coefficients,
    sum_of_coefficients_bound_check,
)


def poly_samples(coeffs, ts):
    p = Polynomial(np.array(coeffs, dtype=float))
    return SampleSet(np.asarray(ts, dtype=float), p(np.asarray(ts, dtype=float)))


# -- lagrange_fit ----------------------------------------------------------


def test_lagrange_recovers_square():
    fit = lagrange_fit(poly_samples([0, 0, 1], [0.0, 1.0, 2.0]))
    assert np.max(np.abs(fit.coefficients - [0, 0, 1])) < 1e-12


def test_lagrange_recovers_constant():
    for nodes in ([1.0], [0.0, 5.0, -3.0, 2.0]):
        fit = lagrange_fit(poly_samples([3.0], nodes))
        assert fit(0.37) == pytest.approx(3.0, abs=1e-12)
        assert all(abs(c) < 1e-12 for c in fit.coefficients[1:])


def test_lagrange_degree_ten_round_trip():
    g = Rng(71).generator()
    coeffs = g.standard_normal(11)
    ts = np.linspace(-1.0, 1.0, 11)
    fit = lagrange_fit(poly_samples(coeffs, ts))
    assert np.max(np.abs(fit.coefficients - coeffs)) < 1e-8 * np.max(np.abs(coeffs))


def fraction_interpolant(ts, ys):
    """Monomial coefficients of the interpolant through the float samples,
    in exact rational arithmetic, rounded once at the end."""
    ts = [Fraction(float(t)) for t in ts]
    coeffs = [Fraction(0)] * len(ts)
    for i, (ti, yi) in enumerate(zip(ts, ys)):
        numer, denom = [Fraction(1)], Fraction(1)
        for j, tj in enumerate(ts):
            if j != i:
                numer = [a - tj * b for a, b in zip([Fraction(0)] + numer, numer + [Fraction(0)])]
                denom *= ti - tj
        for k, c in enumerate(numer):
            coeffs[k] += Fraction(float(yi)) * c / denom
    return np.array([float(c) for c in coeffs])


@pytest.mark.parametrize("L", range(9, 22))
def test_lagrange_matches_the_exact_interpolant(L):
    # extraction windows (t0 = 0.1, window 0.5 at the CLI defaults): the
    # one product tree over every row of other nodes keeps the float fit
    # within 1e-12 of the largest exact coefficient
    g = Rng(90 + L).generator()
    for t0, dw in ((0.1, 0.5), (1.0, 0.5), (0.3, 0.9)):
        ts = np.linspace(t0 * (1 - dw), t0 * (1 + dw), L)
        ys = g.uniform(0.0, 1e-3, L)
        want = fraction_interpolant(ts, ys)
        got = lagrange_fit(SampleSet(ts, ys)).coefficients
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0]))


# -- roots_to_coefficients -------------------------------------------------


def test_roots_pair():
    p = roots_to_coefficients([1.0, -1.0])
    assert np.allclose(p.coefficients, [-1.0, 0.0, 1.0], atol=1e-14)


def test_roots_empty():
    p = roots_to_coefficients([])
    assert p.degree() == 0 and p(123.0) == 1.0


def test_roots_twenty_random_against_product():
    g = Rng(73).generator()
    roots = g.uniform(-2, 2, size=20)
    p = roots_to_coefficients(roots)
    for t in g.uniform(-2.5, 2.5, size=50):
        want = np.prod(t - roots)
        assert p(t) == pytest.approx(want, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("d", [3, 8, 12])
def test_roots_round_trip_well_separated(d):
    roots = np.linspace(-1.0, 1.0, d) * (1 + 0.1 * d)
    p = roots_to_coefficients(roots)
    got = np.sort(np.roots(p.coefficients[::-1]).real)
    assert np.max(np.abs(got - np.sort(roots))) < 1e-6


# -- extract_coefficient ---------------------------------------------------


def equidistant_window(t0, dw, d):
    return np.linspace(t0 * (1 - dw), t0 * (1 + dw), d + 1)


def test_extract_noiseless():
    ts = equidistant_window(2.0, 0.5, 4)
    samples = poly_samples([0.5, 0, -1.2, 0, 2.0], ts)
    for k, want in enumerate([0.5, 0, -1.2, 0, 2.0]):
        est, bound = extract_coefficient(samples, k, 2.0, 0.5, 0.0)
        assert est == pytest.approx(want, abs=1e-9)
        assert bound == 0.0


def test_extract_beyond_degree_is_zero():
    ts = equidistant_window(2.0, 0.5, 4)
    samples = poly_samples([0, 0, 0, 0, 1], ts)
    est, bound = extract_coefficient(samples, 7, 2.0, 0.5, 1e-6)
    assert est == 0.0 and bound == 0.0


def test_extract_quartic_under_adversarial_noise():
    t0, dw, delta = 2.0, 0.5, 1e-6
    ts = equidistant_window(t0, dw, 4)
    clean = ts**4
    g = Rng(79).generator()
    for _ in range(1000):
        noise = delta * g.choice([-1.0, 1.0], size=ts.size)
        est, bound = extract_coefficient(
            SampleSet(ts, clean + noise), 4, t0, dw, delta
        )
        assert abs(est - 1.0) <= bound


def test_extract_window_mismatch_rejected():
    ts = np.linspace(1.0, 3.0, 5) + 0.01
    samples = SampleSet(ts, ts**2)
    with pytest.raises(ValueError):
        extract_coefficient(samples, 2, 2.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        extract_coefficient(SampleSet(np.linspace(1, 3, 5), np.ones(5)), 2, 2.0, 1.5, 0.0)
    with pytest.raises(ValueError):
        extract_coefficient(SampleSet(np.linspace(1, 3, 5), np.ones(5)), 2, -2.0, 0.5, 0.0)


@pytest.mark.parametrize("t0,dw", [(2.0, 0.5), (1.0, 0.9), (0.1, 0.9)])
def test_extract_bound_dominates_worst_case(t0, dw):
    # the estimate error is linear in the noise, so the worst case over
    # |e_i| <= delta is delta * sum_i |w_ki| with w the basis-coefficient
    # matrix; that must stay below the quoted bound for every k
    for d in range(1, 11):
        ts = equidistant_window(t0, dw, d)
        W = np.zeros((d + 1, d + 1))
        for i in range(d + 1):
            others = np.delete(ts, i)
            W[:, i] = roots_to_coefficients(others).coefficients / np.prod(
                ts[i] - others
            )
        for k in range(d + 1):
            worst = float(np.sum(np.abs(W[k])))
            bound = t0 ** (-k) * (4 / dw) ** d * math.comb(d, k)
            assert worst <= bound


# -- berlekamp_welch_recover -----------------------------------------------


def test_bw_no_errors_reduces_to_interpolation():
    ts = np.arange(6, dtype=float)
    samples = poly_samples([1.0, -2.0, 0.0, 1.0], ts)
    fit = berlekamp_welch_recover(samples, 3, 0)
    assert np.max(np.abs(fit.coefficients - [1, -2, 0, 1])) < 1e-9


def test_bw_three_corruptions():
    ts = np.arange(12, dtype=float)
    ys = ts**3 - 2 * ts
    ys[2], ys[5], ys[9] = 40.0, -7.0, 1.0
    fit = berlekamp_welch_recover(SampleSet(ts, ys), 3, 3)
    assert np.max(np.abs(fit.coefficients - [0, -2, 0, 1])) < 1e-6


def test_bw_budget_exceeded_is_detected():
    ts = np.arange(12, dtype=float)
    ys = ts**3 - 2 * ts
    for i in (1, 4, 7, 10):
        ys[i] += 10.0 + i
    with pytest.raises(RecoveryError):
        berlekamp_welch_recover(SampleSet(ts, ys), 3, 3)


def test_bw_too_few_samples_rejected():
    samples = poly_samples([1.0, 1.0], np.arange(4, dtype=float))
    with pytest.raises(ValueError):
        berlekamp_welch_recover(samples, 3, 2)


def test_bw_exact_mode_is_exact_on_integer_data():
    for seed in range(25):
        g = Rng(83, seed).generator()
        d = int(g.integers(0, 11))
        L = int(g.integers(d + 1, 41))
        e_max = int(g.integers(0, (L - d - 1) // 2 + 1))
        coeffs = g.integers(-9, 10, size=d + 1).astype(float)
        ts = np.arange(L, dtype=float) - L // 2
        ys = Polynomial(coeffs)(ts)
        corrupt = g.choice(L, size=e_max, replace=False)
        ys[corrupt] += g.integers(1, 50, size=e_max).astype(float)
        fit = berlekamp_welch_recover(SampleSet(ts, ys), d, e_max)
        got = np.zeros(d + 1)
        got[: fit.coefficients.size] = fit.coefficients[: d + 1]
        assert np.array_equal(got, coeffs), f"seed {seed}: {got} != {coeffs}"


# -- _exact_solve ----------------------------------------------------------


def _pivot_columns(rows):
    """Column rank profile: the columns outside the span of those before them."""
    basis = []
    pivots = []
    for c in range(len(rows[0])):
        v = [Fraction(row[c]) for row in rows]
        for lead, u in basis:
            if v[lead]:
                f = v[lead] / u[lead]
                v = [a - f * b for a, b in zip(v, u)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is not None:
            basis.append((lead, v))
            pivots.append(c)
    return pivots


def _nodes(g, kind, L):
    if kind == "float":
        return [Fraction(float(t)) for t in g.uniform(-1.0, 1.0, size=L)]
    pool = np.arange(-24, 25)
    picked = [int(k) for k in g.choice(pool, size=L, replace=False)]
    denominator = {"int": 1, "half": 2, "eighth": 8}[kind]
    return [Fraction(k, denominator) for k in picked]


def _bw_case(case):
    """A Berlekamp-Welch integer system: nodes int/float/k/2/k/8, shaped
    square, overdetermined or rank-deficient (budget above the planted count)."""
    g = Rng(97, case).generator()
    kind = ("int", "float", "half", "eighth")[case % 4]
    shape = ("square", "over", "rank-deficient")[(case // 4) % 3]
    d = int(g.integers(0, 7))
    planted = int(g.integers(0, 3))
    budget = planted + (int(g.integers(1, 3)) if shape == "rank-deficient" else 0)
    L = d + 1 + 2 * budget + (int(g.integers(1, 5)) if shape == "over" else 0)
    ts = _nodes(g, kind, L)
    coeffs = [int(c) for c in g.integers(-9, 10, size=d + 1)]
    ys = [sum(c * t**k for k, c in enumerate(coeffs)) for t in ts]
    for i in g.choice(L, size=planted, replace=False):
        ys[int(i)] += int(g.integers(1, 50))
    return _bw_system(ts, ys, d + budget + 1, budget, budget)


def _low_rank_case(case):
    """A random integer system of rank below its width, some columns all zero."""
    g = Rng(98, case).generator()
    m, n = int(g.integers(2, 12)), int(g.integers(2, 12))
    k = int(g.integers(1, min(m, n) + 1))
    left = g.integers(-5, 6, size=(m, k))
    right = g.integers(-5, 6, size=(k, n))
    right[:, g.random(n) < 0.2] = 0
    rows = [[int(v) for v in row] for row in left @ right]
    x = g.integers(-7, 8, size=n)
    rhs = [int(v) for v in (left @ right) @ x]
    return rows, rhs


def _exact_solve_cases():
    return [_bw_case(c) for c in range(180)] + [_low_rank_case(c) for c in range(60)]


def test_exact_solve_satisfies_system_and_zeroes_free_columns():
    for case, (rows, rhs) in enumerate(_exact_solve_cases()):
        x = _exact_solve(rows, rhs)
        assert all(isinstance(v, Fraction) for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b, f"case {case}"
        pivots = set(_pivot_columns(rows))
        assert all(x[c] == 0 for c in range(len(x)) if c not in pivots), (
            f"case {case}: a free column is nonzero"
        )


def test_exact_solve_rejects_inconsistent_systems():
    for case, (rows, rhs) in enumerate(_exact_solve_cases()[::4]):
        # a combination of two rows whose right-hand side is off by one
        g = Rng(99, case).generator()
        i, j = (int(v) for v in g.choice(len(rows), size=2))
        a, b = (int(v) for v in g.integers(1, 4, size=2))
        extra = [a * u + b * v for u, v in zip(rows[i], rows[j])]
        spot = int(g.integers(0, len(rows) + 1))
        rows = rows[:spot] + [extra] + rows[spot:]
        rhs = rhs[:spot] + [a * rhs[i] + b * rhs[j] + 1] + rhs[spot:]
        with pytest.raises(RecoveryError, match="inconsistent"):
            _exact_solve(rows, rhs)


def test_bw_system_is_integer_and_scales_rows_by_powers_of_two():
    ts = [Fraction(3, 8), Fraction(-1, 2), Fraction(5)]
    ys = [Fraction(1, 4), Fraction(7), Fraction(-3, 2)]
    rows, rhs = _bw_system(ts, ys, 3, 1, 1)
    for t, y, row, b in zip(ts, ys, rows, rhs):
        want = [1, t, t**2, -y, y * t]
        scale = Fraction(b) / want[-1]
        assert scale.denominator == 1 and scale.numerator & (scale.numerator - 1) == 0
        assert [Fraction(v) for v in row] == [scale * w for w in want[:-1]]


def _fraction_bw_system(ts, ys, nq, ne, e_max):
    """Oracle: the Berlekamp-Welch rows from Fraction powers and products,
    each row scaled by the LCM of its denominators."""
    rows, rhs = [], []
    for t, y in zip(ts, ys):
        row = [t**a for a in range(nq)] + [-y * t**b for b in range(ne)]
        row.append(y * t**e_max)
        scale = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (scale // v.denominator) for v in row]
        rows.append(ints[:-1])
        rhs.append(ints[-1])
    return rows, rhs


def _solve_or_refuse(rows, rhs):
    try:
        return _exact_solve(rows, rhs)
    except RecoveryError:
        return "inconsistent"


def test_bw_system_rows_are_positive_multiples_of_the_fraction_rows():
    # odd seeds: full-precision float nodes and samples, square systems;
    # even seeds: nodes k / 4 (integers when the seed is a multiple of 4)
    # and integer coefficients, so every sample is exact and the
    # overdetermined systems stay consistent; every case has a t = 0 node
    for seed in range(20):
        g = Rng(107, seed).generator()
        d, e = int(g.integers(0, 11)), int(g.integers(0, 5))
        if seed % 2:
            L = d + 1 + 2 * e
            ts = [float(t) for t in g.uniform(-2.0, 2.0, size=L)]
            coeffs = [Fraction(float(c)) for c in g.standard_normal(d + 1)]
        else:
            L = d + 1 + 2 * e + int(g.integers(0, 3))
            ks = g.choice(np.arange(-20, 21), size=L, replace=False)
            ts = [float(k) / (1 if seed % 4 == 0 else 4) for k in ks]
            coeffs = [Fraction(int(c)) for c in g.integers(-9, 10, size=d + 1)]
        ts[int(g.integers(0, L))] = 0.0
        ys = [float(sum(c * Fraction(t) ** k for k, c in enumerate(coeffs))) for t in ts]
        for i in g.choice(L, size=e, replace=False):
            ys[int(i)] += float(g.integers(1, 9))
        nq = d + e + 1
        rows, rhs = _bw_system(ts, ys, nq, e, e)
        want_rows, want_rhs = _fraction_bw_system(
            [Fraction(t) for t in ts], [Fraction(y) for y in ys], nq, e, e
        )
        for row, b, want, wb in zip(rows, rhs, want_rows, want_rhs):
            assert all(type(v) is int for v in row + [b])
            scale = Fraction(row[0], want[0])
            assert scale > 0
            assert [Fraction(v) for v in row + [b]] == [scale * w for w in want + [wb]]
        assert _solve_or_refuse(rows, rhs) == _solve_or_refuse(want_rows, want_rhs), seed


# -- robust_median_fit -----------------------------------------------------


def test_median_fit_noiseless():
    truth = Polynomial(np.array([0.3, -1.0, 0.0, 2.0]))
    fit = robust_median_fit(
        lambda ts, rngs: [[truth(t)] * len(row) for t, row in zip(ts, rngs)],
        3, (-1.0, 1.0), 5,
    )
    assert np.max(np.abs(fit.coefficients - truth.coefficients)) < 1e-9


def test_median_fit_guarantee_parameters():
    # oracle correct w.p. 0.75 within delta; target sup error (2 + 1/4) delta
    delta, d, reps = 1e-3, 6, 25
    truth = Polynomial(np.array([0.2, 1.0, -0.5, 0.0, 0.3, 0.0, -1.0]))
    grid = np.linspace(-1.0, 1.0, 400)
    want = truth(grid)

    def one(t, rng):
        g = rng.generator()
        if g.uniform() < 0.75:
            return truth(t) + g.uniform(-delta, delta)
        return truth(t) + g.uniform(20 * delta, 60 * delta)

    def oracle(ts, rngs):
        return [[one(t, rng) for rng in row] for t, row in zip(ts, rngs)]

    wins = 0
    for trial in range(200):
        fit = robust_median_fit(
            oracle, d, (-1.0, 1.0), reps, rng=Rng(89, trial)
        )
        if np.max(np.abs(fit(grid) - want)) <= (2 + 0.25) * delta:
            wins += 1
    assert wins >= 2 * 200 // 3, f"only {wins}/200 trials within (2+1/4) delta"


def test_median_fit_overestimated_degree():
    delta = 1e-3
    truth = Polynomial(np.array([0.5, -1.0, 0.0, 0.0, 1.0]))  # degree 4

    def oracle(ts, rngs):
        return [
            [truth(t) + rng.generator().uniform(-delta, delta) for rng in row]
            for t, row in zip(ts, rngs)
        ]

    good = 0
    for trial in range(20):
        fit = robust_median_fit(
            oracle, 6, (-1.0, 1.0), 25, rng=Rng(97, trial)
        )
        extra = max(abs(fit.coefficient(5)), abs(fit.coefficient(6)))
        good += extra <= 10 * delta
    assert good >= 15


def test_median_fit_validation():
    noiseless = lambda ts, rngs: np.zeros((len(ts), len(rngs[0])))  # noqa: E731
    with pytest.raises(ValueError):
        robust_median_fit(noiseless, 2, (-1.0, 1.0), 0)
    with pytest.raises(ValueError):
        robust_median_fit(noiseless, 2, (1.0, -1.0), 5)
    # one value per node is not one per node and repetition
    with pytest.raises(ValueError, match="shape"):
        robust_median_fit(lambda ts, rngs: np.zeros(len(ts)), 2, (-1.0, 1.0), 5)


# -- sum_of_coefficients_bound_check ---------------------------------------


def test_coefficient_sum_monomial():
    for d in (1, 4, 9):
        coeffs = np.zeros(d + 1)
        coeffs[d] = 1.0
        lhs, rhs = sum_of_coefficients_bound_check(Polynomial(coeffs))
        assert lhs == 1.0
        assert rhs == pytest.approx(4.0**d, rel=1e-12)


def test_coefficient_sum_chebyshev_t8():
    a, b = np.array([1.0]), np.array([0.0, 1.0])  # T_0, T_1
    for _ in range(7):
        nxt = np.zeros(b.size + 1)
        nxt[1:] = 2 * b
        nxt[: a.size] -= a
        a, b = b, nxt
    lhs, rhs = sum_of_coefficients_bound_check(Polynomial(b))
    assert lhs == pytest.approx(577.0, abs=1e-9)
    assert lhs <= rhs <= 4.0**8 * (1 + 1e-9)


def test_coefficient_sum_random_never_violated():
    g = Rng(101).generator()
    for _ in range(1000):
        lhs, rhs = sum_of_coefficients_bound_check(
            Polynomial(g.standard_normal(13))
        )
        assert lhs <= rhs * (1 + 1e-6)
