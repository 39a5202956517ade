"""Anticoncentration Monte Carlo: moments, ratio r, Paley-Zygmund, equilibration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from spindyn.anticon import (
    AnticonThresholds,
    MomentRecord,
    equilibration_curve,
    moment_statistics,
    paley_zygmund_bound,
    ratio_r,
)
import spindyn.evolve
from spindyn.core import BitString, HamiltonianSpec, Kind, Rng, sample_coupling
from spindyn.evolve import KrylovConvergenceError, Propagator, draws_per_chunk
from spindyn.hamiltonian import natural_basis
from spindyn.hardness import anticoncentration_thresholds


def synthetic_record(n: int, mean_p: float, mean_p2: float) -> MomentRecord:
    return MomentRecord(
        x=BitString.class_representative(n, n // 2), mean_p=mean_p, mean_p2=mean_p2, se_p=0.0, se_p2=0.0,
        samples=100, kind=Kind.H3, n=n, t=1.0,
    )


# ------------------------------------------------------------------- types


def test_moment_record_validation():
    with pytest.raises(ValueError):
        synthetic_record(2, 1.5, 0.1)
    with pytest.raises(ValueError):
        synthetic_record(2, 0.5, -0.1)
    with pytest.raises(ValueError):
        MomentRecord(
            x=BitString.x0(2), mean_p=0.1, mean_p2=0.02, se_p=0.0, se_p2=0.0,
            samples=0, kind=Kind.H1, n=2, t=0.5,
        )
    for field in ("se_p", "se_p2"):
        with pytest.raises(ValueError):
            dataclasses.replace(synthetic_record(2, 0.1, 0.02), **{field: -1e-12})


def test_threshold_defaults_and_derived():
    th = AnticonThresholds()
    assert (th.K, th.Lambda) == (0.5, 4.0)
    assert th.alpha == pytest.approx(0.25)
    assert th.beta == pytest.approx(1.0 / 64.0)
    ising = AnticonThresholds.ising()
    assert ising.Lambda == 16.0
    assert ising.beta == pytest.approx(1.0 / 256.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"K": 0.0},
        {"K": 1.5},
        {"Lambda": 0.5},
    ],
)
def test_threshold_validation(kwargs):
    with pytest.raises(ValueError):
        AnticonThresholds(**kwargs)


# ----------------------------------------------------------------- moments


def test_zero_time_moments_vanish():
    (records,) = moment_statistics(Kind.H3, 2, [0.0], 16, Rng(1))
    for record in records:
        assert record.mean_p == pytest.approx(0.0, abs=1e-25)
        assert record.mean_p2 == pytest.approx(0.0, abs=1e-50)


def test_full_distribution_normalization():
    # The X_{n/2} slice alone does not sum to 1; the full ensemble mean does.
    for kind in (Kind.H3, Kind.H1):
        total = None
        draws = 5
        for j in range(draws):
            spec = HamiltonianSpec(kind, sample_coupling(2, Rng(40).substream(j)))
            p = Propagator(spec).all_probabilities_at(np.array([1.3]))[:, 0]
            total = p if total is None else total + p
        assert total.sum() / draws == pytest.approx(1.0, abs=1e-9)


def test_moment_statistics_time_grid_matches_single_times():
    # One propagation per draw over the grid gives, record for record, what
    # one call per time gives (to rounding: the series order follows the
    # largest |t| of the call); the pool changes nothing.
    grid = [0.4, 1.1, 2.5]
    sweep = moment_statistics(Kind.H3, 2, grid, 16, Rng(12))
    assert moment_statistics(Kind.H3, 2, grid, 16, Rng(12), threads=3) == sweep
    assert len(sweep) == len(grid)
    for t, records in zip(grid, sweep):
        (single,) = moment_statistics(Kind.H3, 2, [t], 16, Rng(12))
        for got, want in zip(records, single, strict=True):
            assert (got.x, got.samples, got.t) == (want.x, want.samples, t)
            for f in ("mean_p", "mean_p2", "se_p", "se_p2"):
                assert getattr(got, f) == pytest.approx(getattr(want, f), rel=1e-12)
            assert got.se_p >= 0.0 and got.se_p2 >= 0.0


def test_jensen_at_five_standard_errors():
    (records,) = moment_statistics(Kind.H3, 4, [4 * math.log(4)], 256, Rng(7))
    for record in records:
        assert record.mean_p2 >= record.mean_p**2 - 5.0 * record.se_p2


def test_sigma_tau_symmetry_observational():
    # The model's symmetry suggests x and its exchanged-complement partner
    # share statistics; this is recorded as an observation, never a failure.
    (records,) = moment_statistics(Kind.H3, 4, [4 * math.log(4)], 256, Rng(31))
    by_bits = {record.x.bits: record for record in records}
    for record in records:
        sigma, tau = record.x.sigma_half(), record.x.tau_half()
        partner = BitString(tuple(1 - b for b in tau + sigma))
        partner_record = by_bits[partner.bits]
        spread = math.sqrt(record.se_p**2 + partner_record.se_p**2)
        if spread > 0 and abs(record.mean_p - partner_record.mean_p) > 5.0 * spread:
            warnings.warn(
                f"sigma/tau partner asymmetry at {record.x}",
                stacklevel=1,
            )


def test_moments_reproducible():
    assert moment_statistics(Kind.H3, 2, [1.5], 16, Rng(3)) == moment_statistics(
        Kind.H3, 2, [1.5], 16, Rng(3)
    )


def test_thread_count_does_not_change_results():
    serial = moment_statistics(Kind.H3, 2, [1.5], 32, Rng(9), threads=1)
    threaded = moment_statistics(Kind.H3, 2, [1.5], 32, Rng(9), threads=4)
    assert serial == threaded
    grid = [0.0, 0.9, 1.8]
    assert equilibration_curve(Kind.H3, 2, grid, 32, Rng(9), threads=3) == (
        equilibration_curve(Kind.H3, 2, grid, 32, Rng(9), threads=1)
    )
    # the H3 n = 4 sector takes 140 draws per chunk: 300 draws run as
    # three chunks, each one recurrence on dense stacks
    basis = natural_basis(Kind.H3, 4)
    assert -(-300 // draws_per_chunk(Kind.H3, basis)) >= 3
    serial = moment_statistics(Kind.H3, 4, [0.6, 2.4], 300, Rng(9), threads=1)
    assert serial == moment_statistics(Kind.H3, 4, [0.6, 2.4], 300, Rng(9), threads=3)
    assert equilibration_curve(Kind.H3, 4, grid, 300, Rng(9), threads=3) == (
        equilibration_curve(Kind.H3, 4, grid, 300, Rng(9), threads=1)
    )


def test_thread_count_does_not_change_chebyshev_results():
    # H1 at n = 4 (d = 256) and the H4 n = 6 sector (d = 924) run the
    # Chebyshev engine, in several chunks of draws here
    serial = moment_statistics(Kind.H1, 4, [0.7, 2.1], 100, Rng(19), threads=1)
    assert serial == moment_statistics(Kind.H1, 4, [0.7, 2.1], 100, Rng(19), threads=3)
    grid = [0.0, 1.1, 3.6]
    assert equilibration_curve(Kind.H4, 6, grid, 24, Rng(19), threads=3) == (
        equilibration_curve(Kind.H4, 6, grid, 24, Rng(19), threads=1)
    )


def test_chunking_does_not_change_results(monkeypatch):
    # one draw per chunk against the default chunks, bit for bit
    grid = [0.4, 2.2]
    chunked = moment_statistics(Kind.H3, 6, grid, 20, Rng(23))
    curve = equilibration_curve(Kind.H1, 4, grid, 40, Rng(23))
    dense = moment_statistics(Kind.H3, 4, grid, 100, Rng(23))  # one chunk on dense stacks
    dense_curve = equilibration_curve(Kind.H3, 4, grid, 100, Rng(23))
    monkeypatch.setattr(spindyn.evolve, "_CHUNK_BYTES", 1)
    assert moment_statistics(Kind.H3, 6, grid, 20, Rng(23)) == chunked
    assert equilibration_curve(Kind.H1, 4, grid, 40, Rng(23)) == curve
    assert moment_statistics(Kind.H3, 4, grid, 100, Rng(23)) == dense
    assert equilibration_curve(Kind.H3, 4, grid, 100, Rng(23)) == dense_curve


def test_failed_guard_names_the_coupling_draw(monkeypatch):
    # draw 5 of the ensemble gets a spectral bound far below ||H||
    bad = sample_coupling(6, Rng(29).substream(5)).entries
    real = spindyn.evolve.coupling_norm_bound

    def bound(spec):
        low = np.array_equal(spec.couplings.entries, bad)
        return 0.2 * real(spec) if low else real(spec)

    monkeypatch.setattr(spindyn.evolve, "coupling_norm_bound", bound)
    with pytest.raises(KrylovConvergenceError, match="coupling draw 5: norm drift") as err:
        moment_statistics(Kind.H3, 6, [10.0], 16, Rng(29), threads=2)
    assert err.value.draw == 5


def test_failed_dense_chunk_guard_names_the_coupling_draw(monkeypatch):
    # draw 5 of an H3 n = 4 ensemble, which steps on dense stacks, gets a
    # spectral bound far below ||H||
    bad = sample_coupling(4, Rng(31).substream(5)).entries
    real = spindyn.evolve.coupling_norm_bound

    def bound(spec):
        low = np.array_equal(spec.couplings.entries, bad)
        return 0.2 * real(spec) if low else real(spec)

    monkeypatch.setattr(spindyn.evolve, "coupling_norm_bound", bound)
    with pytest.raises(KrylovConvergenceError, match="coupling draw 5: norm drift") as err:
        moment_statistics(Kind.H3, 4, [10.0], 16, Rng(31), threads=2)
    assert err.value.draw == 5


@pytest.mark.parametrize("n, num_J", [(3, 16), (0, 16), (4, 8)])
def test_moment_argument_validation(n, num_J):
    with pytest.raises(ValueError):
        moment_statistics(Kind.H3, n, [1.0], num_J, Rng(0))


# ----------------------------------------------------------------- ratio r


def test_ratio_anchor_value():
    (records,) = moment_statistics(Kind.H3, 4, [4 * math.log(4)], 1024, Rng(2024))
    assert len(records) == 36
    r = ratio_r(records, AnticonThresholds(), "II")
    assert r >= 0.7


def test_ratio_zero_records():
    records = [synthetic_record(4, 0.0, 0.0) for _ in range(6)]
    assert ratio_r(records, AnticonThresholds(), "II") == 0.0


def test_ratio_synthetic_saturation():
    scale = anticoncentration_thresholds("II", 4)
    records = [synthetic_record(4, scale, scale**2) for _ in range(5)]
    assert ratio_r(records, AnticonThresholds(), "II") == 1.0


def test_ratio_depends_only_on_dimensionless_moments():
    gen = Rng(88).generator()
    pairs = [(float(u), float(v)) for u, v in zip(gen.uniform(0, 2, 40), gen.uniform(0, 8, 40))]
    results = []
    for model_class, n in (("I", 3), ("II", 5)):
        scale = anticoncentration_thresholds(model_class, n)
        records = [synthetic_record(n, u * scale, v * scale**2) for u, v in pairs]
        results.append(ratio_r(records, AnticonThresholds(), model_class))
    assert results[0] == results[1]


def test_ratio_validation():
    with pytest.raises(ValueError):
        ratio_r([], AnticonThresholds(), "II")
    mixed = [synthetic_record(2, 0.1, 0.02), synthetic_record(4, 0.1, 0.02)]
    with pytest.raises(ValueError, match="mix different n"):
        ratio_r(mixed, AnticonThresholds(), "II")


def test_ratio_rejects_mixed_times():
    # a flattened multi-time sweep has no single r
    sweep = moment_statistics(Kind.H3, 2, [0.5, 1.5], 16, Rng(4))
    with pytest.raises(ValueError, match="mix different t"):
        ratio_r(sweep[0] + sweep[1], AnticonThresholds(), "II")


# ----------------------------------------------------------- Paley-Zygmund


def test_pz_threshold_point():
    scale = anticoncentration_thresholds("II", 4)
    record = synthetic_record(4, 0.5 * scale, 4.0 * scale**2)
    # K^2/(4 Lambda) with K = 1/2, Lambda = 4
    assert paley_zygmund_bound(record, 0.5) == pytest.approx(1.0 / 64.0, rel=1e-12)


def test_pz_limits():
    record = synthetic_record(2, 0.25, 0.0625)
    assert paley_zygmund_bound(record, 1.0) == 0.0
    assert paley_zygmund_bound(record, 0.0) == pytest.approx(1.0)


def test_pz_validation():
    record = synthetic_record(2, 0.25, 0.0625)
    with pytest.raises(ValueError):
        paley_zygmund_bound(record, 1.5)
    degenerate = synthetic_record(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        paley_zygmund_bound(degenerate, 0.5)


# ------------------------------------------------------------ equilibration


def test_equilibration_zero_row_and_determinism():
    grid = [0.0, 0.7, 1.4]
    curve = equilibration_curve(Kind.H3, 2, grid, 16, Rng(5))
    assert curve[0][1] == pytest.approx(0.0, abs=1e-25)
    assert curve == equilibration_curve(Kind.H3, 2, grid, 16, Rng(5))
    assert len(curve) == len(grid)


def test_equilibration_stationary_beyond_three_log_n():
    grid = np.linspace(0.0, 8 * math.log(4), 33)
    curve = equilibration_curve(Kind.H3, 4, grid, 256, Rng(55))
    late = [value for t, value, _ in curve if t >= 3 * math.log(4)]
    half = len(late) // 2
    first, second = np.mean(late[:half]), np.mean(late[half:])
    assert abs(second - first) / first < 0.10


def test_equilibration_plateau_matches_moment_sweep():
    # Self-consistency: the late-time plateau equals the fixed-t moment
    # average at t = 4 ln n within Monte-Carlo error.
    t_star = 4 * math.log(4)
    (records,) = moment_statistics(Kind.H3, 4, [t_star], 256, Rng(7))
    anchor = np.mean([record.mean_p for record in records])
    grid = np.linspace(3 * math.log(4), 8 * math.log(4), 17)
    curve = equilibration_curve(Kind.H3, 4, grid, 256, Rng(55))
    plateau = np.mean([value for _, value, _ in curve])
    assert plateau == pytest.approx(anchor, rel=0.05)


def test_ising_long_time_plateau():
    # Every x in X_1 at n=2 has n + wt(x) even, so the ensemble converges to
    # 2 * 2^{-2n} = 1/8.
    grid = np.linspace(10.0, 40.0, 31)
    curve = equilibration_curve(Kind.H1, 2, grid, 512, Rng(99))
    window_mean = np.mean([value for _, value, _ in curve])
    assert window_mean == pytest.approx(0.125, rel=0.05)


def test_equilibration_validation():
    with pytest.raises(ValueError):
        equilibration_curve(Kind.H3, 2, [], 16, Rng(0))
    with pytest.raises(ValueError):
        equilibration_curve(Kind.H3, 2, [0.0, math.inf], 16, Rng(0))

