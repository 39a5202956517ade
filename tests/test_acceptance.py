"""Twelve acceptance checks, one test per numbered criterion.

Each test pins one end-to-end numerical claim of the package at desk
scale, with fixed seeds throughout.  The Monte Carlo sweeps in criteria
3 and 4 dominate the runtime (a few minutes at n = 6); everything else
finishes in seconds.
"""

import json
import math

import numpy as np
import pytest

from spindyn.anticon import (
    AnticonThresholds,
    equilibration_curve,
    moment_statistics,
    ratio_r,
)
from spindyn.cli import main
from spindyn.core import (
    Basis,
    BitString,
    HamiltonianSpec,
    Kind,
    Rng,
    SampleSet,
    hamming_class_members,
    sample_coupling,
)
from spindyn.evolve import time_average
from spindyn.hamiltonian import dense_matrix
from spindyn.hardness import extract_permanent_from_dynamics
from spindyn.permanent import (
    gaussian_permanent_variance_check,
    permanent_ryser,
    submatrix_for_outcome,
)
from spindyn.polyfit import RecoveryError, berlekamp_welch_recover, extract_coefficient
from spindyn.trotter import (
    CALIBRATED_PREFACTOR,
    estimate_prefactor,
    gate_count_plan,
    l1_unitary_bound_check,
    trotter_operator_error,
)


def test_c01_moment_permanent_identity():
    """<x|H^l|y0> vanishes below the Hamming class and hits the permanent at it."""
    for ki, kind in enumerate(Kind):
        for n in (2, 3, 4):
            basis = Basis.full(n)
            y0_pos = BitString.y0(n).index()
            members = {m: hamming_class_members(n, m) for m in range(1, n + 1)}
            for draw in range(20):
                rng = Rng(1100).substream(ki).substream(n).substream(draw)
                J = sample_coupling(n, rng)
                for with_fields in (False, True):
                    fields = None
                    if with_fields:
                        fr = rng.substream(99).generator()
                        fields = (fr.standard_normal(n), fr.standard_normal(n))
                    spec = HamiltonianSpec(kind, J, z_fields=fields)
                    H = np.asarray(dense_matrix(spec, basis))
                    v = np.zeros(H.shape[0], dtype=complex)
                    v[y0_pos] = 1.0
                    for ell in range(1, n + 1):
                        v = H @ v
                        for m in range(ell + 1, n + 1):
                            leak = max(abs(v[x.index()]) for x in members[m])
                            assert leak < 1e-9
                        for x in members[ell]:
                            truth = (
                                math.factorial(ell)
                                / float(n) ** ell
                                * permanent_ryser(submatrix_for_outcome(J, x))
                            )
                            assert abs(v[x.index()] - truth) <= 1e-8 * abs(truth)


def test_c02_ising_time_average_matches_parity_formula():
    """H1 time average at T = 500 equals (1+(-1)^{n+wt})*2^{-2n} per branch.

    Seeds are gap-generic draws: the formula is the infinite-time
    dephasing average, and a near-degenerate eigenvalue pair keeps its
    cross term alive for T ~ 1/gap, past any fixed horizon.
    """
    T = 500.0
    for n, seeds in ((2, (267, 164, 269)), (3, (2246, 118, 839))):
        scale = 2.0 ** (-2 * n)
        for seed in seeds:
            spec = HamiltonianSpec(Kind.H1, sample_coupling(n, Rng(seed)))
            for idx in range(1 << (2 * n)):
                x = BitString.from_index(idx, n)
                truth = (1 + (-1) ** (n + x.weight())) * scale
                avg = time_average(spec, x, T)
                if truth == 0:
                    assert abs(avg) <= 1e-3
                else:
                    assert abs(avg - truth) <= 0.02 * truth


def test_c03_anticoncentration_anchor_and_small_n_sweep():
    """XY-model ratio r clears 0.7 at n = 4 and stays above 0.3 at n in {4,6}.

    KNOWN RED, kept as specified rather than weakened.  The anchor
    passes: r = 0.8333 at n = 4, t = 4 ln n (30 of 36 outcomes, SE
    0.062, against 0.7 - 3 SE).  The 0.3 floor across the full sweep
    does not survive measurement at n = 6: the second moments of p are still relaxing there, and the
    E[p^2]-threshold cuts through the middle of their distribution
    (median E[p^2]*C(12,6)^2 is 5.2 at t = 2 ln 6 and 4.5 at
    t = 3 ln 6, against the threshold 4).  Measured r at n = 6:
    0.10-0.21 at t = 2 ln n across three seeds, converging DOWN as
    draws increase (true value ~0.1), so that point fails robustly;
    knife-edge 0.28-0.39 at 3 ln n (below the floor at the
    highest-precision measurement); ~0.7 at 4 ln n.  At n = 4 all
    three time points pass.  The failure message prints the full
    (n, t/ln n, r) table from this run.
    """
    thresholds = AnticonThresholds()
    (records,) = moment_statistics(Kind.H3, 4, [4 * math.log(4)], 1024, Rng(1300))
    r = ratio_r(records, thresholds, "II")
    se = math.sqrt(max(r * (1 - r), 0.0) / len(records))
    assert r >= 0.7 - 3 * se
    table = []
    for n in (4, 6):
        times = [k * math.log(n) for k in (2, 3, 4)]
        sweep = moment_statistics(Kind.H3, n, times, 1024, Rng(1310 + n))
        for k, records in zip((2, 3, 4), sweep):
            table.append((n, k, ratio_r(records, thresholds, "II")))
    failing = [(n, k, r) for n, k, r in table if r < 0.3]
    assert not failing, f"r below 0.3 at (n, t/ln n, r): {failing}; full table: {table}"


def test_c04_equilibration_plateau():
    """Windowed means of the XY curve drift < 10% beyond t = 3 ln n."""
    for n, num_j, points in ((4, 256, 17), (6, 192, 13)):
        grid = np.linspace(3 * math.log(n), 9 * math.log(n), points)
        rows = equilibration_curve(Kind.H3, n, grid, num_j, Rng(1400 + n))
        means = np.array([mean for _, mean, _ in rows])
        overall = means.mean()
        for window in np.array_split(means, 4):
            assert abs(window.mean() - overall) <= 0.10 * overall


def test_c05_permanent_extraction_pipeline():
    """Per(J)^2 recovered from noiseless dynamics for 50 draws at n in {2,3}."""
    for n in (2, 3):
        K = 2 * n + 6
        x0 = BitString.x0(n)
        for draw in range(50):
            spec = HamiltonianSpec(Kind.H1, sample_coupling(n, Rng(1500 + draw)))
            est, truth, bound = extract_permanent_from_dynamics(
                spec, x0, 0.1, 0.5, K
            )
            assert abs(est - truth) <= max(bound, 1e-3 * abs(truth))


def test_c06_berlekamp_welch_exact_recovery_and_signalling():
    """In-budget corruptions recover 100/100; over-budget signals >= 95/100."""
    gen = Rng(1600).generator()

    def plant(extra):
        d = int(gen.integers(1, 11))
        e = int(gen.integers(1, 5))
        L = d + 1 + 2 * e
        coeffs = [int(c) for c in gen.integers(-9, 10, size=d + 1)]
        nodes = list(range(1, L + 1))
        values = [sum(c * t**k for k, c in enumerate(coeffs)) for t in nodes]
        for pos in gen.choice(L, size=e + extra, replace=False):
            sign = -1 if gen.uniform() < 0.5 else 1
            values[pos] += sign * int(gen.integers(1, 100))
        samples = SampleSet([float(t) for t in nodes], [float(v) for v in values])
        return samples, d, e, coeffs

    recovered = 0
    for _ in range(100):
        samples, d, e, coeffs = plant(extra=0)
        fit = berlekamp_welch_recover(samples, d, e)
        if all(fit.coefficient(k) == c for k, c in enumerate(coeffs)):
            recovered += 1
    assert recovered == 100

    signaled = 0
    for _ in range(100):
        samples, d, e, _ = plant(extra=1)
        try:
            berlekamp_welch_recover(samples, d, e)
        except RecoveryError:
            signaled += 1
    assert signaled >= 95


def test_c07_coefficient_error_bound_adversarial():
    """|estimate - a_k| <= delta * t0^{-k} (4/Delta)^d C(d,k) in every trial."""
    configs = [
        (4, 2, 0.5, 0.5, 1e-3),
        (8, 4, 1.0, 0.9, 1e-4),
        (10, 6, 0.7, 0.99, 1e-6),
        (6, 0, 0.3, 0.5, 1e-3),
        (10, 10, 1.0, 0.5, 1e-5),
    ]
    for d, k, t0, dw, delta in configs:
        gen = Rng(1700 + 10 * d + k).generator()
        nodes = np.linspace(t0 * (1 - dw), t0 * (1 + dw), d + 1)
        formula = delta * t0 ** (-k) * (4 / dw) ** d * math.comb(d, k)
        for _ in range(1000):
            coeffs = gen.uniform(-1, 1, size=d + 1)
            clean = np.polynomial.polynomial.polyval(nodes, coeffs)
            noise = delta * gen.choice([-1.0, 1.0], size=d + 1)
            est, bound = extract_coefficient(
                SampleSet(nodes, clean + noise), k, t0, dw, delta
            )
            assert abs(est - coeffs[k]) <= formula
            assert bound == pytest.approx(formula, rel=1e-9)


def test_c08_trotter_error_scaling():
    """XY slopes hit -1 and -2 within 0.15; the commuting model is exact."""
    Ms = [8, 16, 32, 64]
    t = 1.0
    spec_xy = HamiltonianSpec(Kind.H3, sample_coupling(3, Rng(1800)))
    for order, target in ((1, -1.0), (2, -2.0)):
        errs = [trotter_operator_error(spec_xy, t, M, order) for M in Ms]
        slope = float(np.polyfit(np.log(Ms), np.log(errs), 1)[0])
        assert abs(slope - target) <= 0.15
    spec_ising = HamiltonianSpec(Kind.H1, sample_coupling(3, Rng(1801)))
    for M in Ms:
        assert trotter_operator_error(spec_ising, t, M, 1) < 1e-10


def test_c09_gate_count_planner_anchors_and_reestimation():
    """Published gate budgets reproduce within 10%; n = 5 refit lands in 2x."""
    t0 = 5 * math.log(100)
    for eps, target in ((1e-1, 1.2e8), (1e-2, 3.8e8), (1e-3, 1.2e9)):
        gates = gate_count_plan(100, t0, eps, 2.97e-4)
        assert abs(gates - target) <= 0.10 * target
    measured = estimate_prefactor(5, 2.0, draws=4, rng=Rng(0))
    assert CALIBRATED_PREFACTOR / 2 <= measured <= CALIBRATED_PREFACTOR * 2


def test_c10_output_l1_bounded_by_unitary_distance():
    """sum_x |p - p'| <= 4||U - T^M|| across an 8-point (M, J) sweep at n = 3."""
    for draw in range(2):
        spec = HamiltonianSpec(Kind.H3, sample_coupling(3, Rng(1900 + draw)))
        for M in (4, 8, 16, 32):
            for order in (1, 2):
                l1, bound = l1_unitary_bound_check(spec, 1.0, M, order)
                assert l1 <= bound


def test_c11_gaussian_permanent_variance():
    """Sample mean of Per(J)^2/m! sits within 5 SE of 1 over 1e5 trials."""
    for m in (2, 3, 4):
        batches = np.array(
            [
                gaussian_permanent_variance_check(m, 10_000, Rng(2000 + m).substream(b))
                for b in range(10)
            ]
        )
        mean = float(batches.mean())
        se = float(batches.std(ddof=1)) / math.sqrt(len(batches))
        assert abs(mean - 1.0) <= 5 * se


def test_c12_cli_experiments_replay_byte_identically(tmp_path):
    """Every experiment subcommand reruns from its manifest byte-for-byte."""
    experiments = [
        ["moments-check", "--n", "2", "--model", "H2", "--draws", "3", "--seed", "5"],
        ["equilibrate", "--model", "H3", "--n", "2", "--num-j", "24",
         "--points", "5", "--seed", "6", "--threads", "2"],
        ["anticon", "--model", "H3", "--n", "2", "--t-mult", "4",
         "--num-j", "16", "--seed", "7"],
        ["extract-permanent", "--model", "H1", "--n", "2", "--seed", "8"],
        ["worst-to-average", "--m", "3", "--delta-window", "0.05",
         "--noise-delta", "1e-12", "--seed", "9"],
        ["trotter-plan", "--n", "50", "--t0-mult", "2", "--eps", "1e-2",
         "--seed", "10"],
        ["trotter-error", "--model", "H2", "--n", "2", "--m-grid", "4,8",
         "--seed", "11"],
        ["bw-demo", "--degree", "4", "--errors", "2", "--exact", "--seed", "12"],
        ["bounds", "--n", "6", "--seed", "13"],
    ]
    for args in experiments:
        orig_parent = tmp_path / args[0] / "orig"
        assert main([*args, "--outdir", str(orig_parent)]) == 0
        run_dir = next(orig_parent.glob(f"{args[0]}-*"))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["outputs"]
        replay_parent = tmp_path / args[0] / "replay"
        assert main(["rerun", str(run_dir), "--outdir", str(replay_parent)]) == 0
        replay_dir = next(replay_parent.glob(f"{args[0]}-*"))
        for name in manifest["outputs"]:
            assert (run_dir / name).read_bytes() == (replay_dir / name).read_bytes()
