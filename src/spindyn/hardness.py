"""Constructive reductions: dynamics -> permanent, and the analytic bounds.

The centerpiece reads off Per(J_ST)^2 from the short-time output
probability p(x; t): the first 2m-1 Taylor coefficients vanish and the
2m-th equals Per(J_ST)^2 / n^{2m}, so a polynomial fit through sampled
dynamics recovers the permanent.  The rest of the module evaluates the
closed-form error budgets that the asymptotic argument strings together
(truncation, rescaling, approximate-counting, interpolation).
"""

from __future__ import annotations

import math

import numpy as np

from .core import BitString, HamiltonianSpec, Rng, SampleSet, hamming_class
from .evolve import Propagator
from .permanent import permanent_ryser, permanents, submatrix_for_outcome
from .polyfit import extract_coefficient, robust_median_fit

def truncation_error(normH: float, t: float, K: int) -> float:
    """(2 ||H|| t)^{K+1} / (K+1)!, evaluated in log-space."""
    if normH <= 0 or t <= 0 or K < 1:
        raise ValueError("normH, t must be positive and K >= 1")
    return math.exp(
        (K + 1) * math.log(2.0 * normH * t) - math.lgamma(K + 2)
    )


def short_time_xi_bound(normH: float, n: int, t: float) -> float:
    """||H||^{n+1} n^n t / (n+1)!, evaluated in log-space."""
    if normH <= 0 or n < 1 or t < 0:
        raise ValueError("normH must be positive, n >= 1, t >= 0")
    if t == 0:
        return 0.0
    return math.exp(
        (n + 1) * math.log(normH)
        + n * math.log(n)
        + math.log(t)
        - math.lgamma(n + 2)
    )


def xi_square_negligible(c: float, probes: tuple[float, float] = (1e250, 1e300)) -> bool:
    """Whether xi^2 = o(n!) along t = n^{-cn}; true exactly when c > 1/2.

    Uses the Stirling form ln(xi^2/n!) ~ 2(n+1) ln(3e) + n + (1-2c) n ln n
    and checks the sign and direction at two astronomically large probes.
    The (1-2c) n ln n term only overtakes the linear terms once
    ln n > ~5/(2c-1), so small-n evaluation is deliberately avoided.
    """
    lo, hi = probes
    if not 1e6 <= lo < hi:
        raise ValueError("probes must be huge and increasing")

    def log_ratio(N: float) -> float:
        return 2 * (N + 1) * math.log(3 * math.e) + N + (1 - 2 * c) * N * math.log(N)

    return log_ratio(hi) < log_ratio(lo) and log_ratio(hi) < 0


def gaussian_rescaling_tvd(t: float, t0: float, n: int) -> float:
    """(3/2) n sqrt(|(t/t0)^2 - 1|): distribution cost of rescaling time."""
    if t <= 0 or t0 <= 0:
        raise ValueError("t and t0 must be positive")
    return 1.5 * n * math.sqrt(abs((t / t0) ** 2 - 1.0))


def _log_central_binomial(n: int) -> float:
    return math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)


def stockmeyer_error(
    model_class: str, nu: float, gamma: float, g: float, n: int, p_x: float
) -> float:
    """Additive error of approximate counting applied to p(x).

    Class I:  (1+g) gamma^-1 nu (2n) 2^{-2n} + g p(x)
    Class II: (1+g) (sqrt(pi) gamma / 2)^-1 nu sqrt(n) C(2n,n)^-1 + g p(x)
    """
    if model_class not in ("I", "II"):
        raise ValueError("model_class must be 'I' or 'II'")
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if nu < 0 or g < 0:
        raise ValueError("nu and g must be non-negative")
    if n < 1:
        raise ValueError("n must be at least 1")
    if model_class == "I":
        lead = (1 + g) / gamma * nu * (2 * n) * math.exp(-2 * n * math.log(2.0))
    else:
        lead = (
            (1 + g)
            * 2.0
            / (math.sqrt(math.pi) * gamma)
            * nu
            * math.sqrt(n)
            * math.exp(-_log_central_binomial(n))
        )
    return lead + g * p_x


def anticoncentration_thresholds(model_class: str, n: int) -> float:
    """Benchmark scale of p(x): 2^{-2n} (class I) or C(2n,n)^{-1} (class II)."""
    if model_class not in ("I", "II"):
        raise ValueError("model_class must be 'I' or 'II'")
    if n < 1:
        raise ValueError("n must be at least 1")
    if model_class == "I":
        return math.exp(-2 * n * math.log(2.0))
    return math.exp(-_log_central_binomial(n))


def extract_permanent_from_dynamics(
    spec: HamiltonianSpec,
    x: BitString,
    t0: float,
    delta_window: float,
    K: int,
    noise_delta: float = 0.0,
    rng: Rng | None = None,
) -> tuple[float, float, float]:
    """Estimate Per(J_ST)^2 from sampled dynamics; returns (estimate, truth, bound).

    Samples p(x; t) at the K+1 equidistant nodes of
    [t0(1-Delta), t0(1+Delta)], fits a degree-K polynomial, and scales
    the t^{2m} coefficient by n^{2m}.  With noise_delta > 0 the oracle is
    noisy: each sample is shifted by a uniform draw from
    [-noise_delta, noise_delta] (from `rng`).  The bound combines the
    Taylor truncation error eps_K with the per-sample noise through the
    coefficient-extraction amplification factor.  eps_K takes ||H||
    from `Propagator.norm_bound`: y0's block holds all the dynamics.
    """
    m = hamming_class(x)
    if m is None or m < 1:
        raise ValueError("x must lie in a Hamming class X_m with m >= 1")
    if x.n != spec.n:
        raise ValueError("bitstring size does not match the Hamiltonian")
    if K < 2 * m:
        raise ValueError(f"K must be at least 2m = {2 * m}")
    if noise_delta < 0:
        raise ValueError("noise_delta must be non-negative")
    n = spec.n
    nodes = np.linspace(t0 * (1 - delta_window), t0 * (1 + delta_window), K + 1)
    prop = Propagator(spec)
    pos = prop.basis.index_of(x)
    ps = prop.all_probabilities_at(nodes, rows=[pos])[0]
    if noise_delta > 0:
        gen = (rng if rng is not None else Rng(0)).generator()
        ps = ps + gen.uniform(-noise_delta, noise_delta, size=ps.size)
    t_max = t0 * (1 + delta_window)
    normH = prop.norm_bound
    # H = 0 makes p(x; t) constant in t: no Taylor tail to account for.
    eps_K = truncation_error(normH, t_max, K) if normH > 0 else 0.0
    estimate, amp_bound = extract_coefficient(
        SampleSet(nodes, ps), 2 * m, t0, delta_window, noise_delta + eps_K
    )
    scale = float(n) ** (2 * m)
    truth = float(permanent_ryser(submatrix_for_outcome(spec.couplings, x)) ** 2)
    return estimate * scale, truth, amp_bound * scale


def interpolation_recovery_bound(
    noise_delta: float, delta_window: float, degree: int
) -> float:
    """(9 delta / 4) (4 / Delta)^d: recovery error of the interpolation route."""
    if delta_window <= 0 or degree < 0 or noise_delta < 0:
        raise ValueError("arguments must be non-negative with delta_window > 0")
    return 2.25 * noise_delta * (4.0 / delta_window) ** degree


def interpolation_tvd(t: float, n: int) -> float:
    """n (3 sqrt(t) + t): distribution distance along the interpolation path."""
    if t < 0 or n < 1:
        raise ValueError("t must be non-negative and n >= 1")
    return n * (3.0 * math.sqrt(t) + t)


def worst_to_average_demo(
    X_hard: np.ndarray,
    noise_delta: float,
    rng: Rng,
    delta_window: float | None = None,
    repetitions: int = 9,
) -> tuple[float, float]:
    """Recover Per(X) for a 0/1 matrix through the average-case path.

    q(t) = Per(t X + (1-t) Y) is a degree-m polynomial in t; its values
    near t ~ 0 are average-case-like instances (Y Gaussian), yet q(1) is
    the worst-case permanent.  The demo samples q on [-Delta, Delta]
    with bounded noise, fits with the median regression, and evaluates
    at t = 1.  delta_window defaults to the proof's (16m)^{-2}; pass a
    larger window to make the extrapolation numerically benign.

    The returned truth Per(X) is exact: for a 0/1 matrix with m <= 7 every
    intermediate of Glynn's formula is an integer below 2**53 (row sums at
    most 7 in absolute value, products at most 7^7, 64 terms, and a final
    division by a power of two), so the float kernel carries it bit for bit.
    """
    X = np.asarray(X_hard, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("X_hard must be square")
    m = X.shape[0]
    if not 1 <= m <= 7:
        raise ValueError(f"worst-to-average demo needs 1 <= m <= 7, got m = {m}")
    if not np.all((X == 0) | (X == 1)):
        raise ValueError("X_hard must be a 0/1 matrix")
    dw = (16.0 * m) ** -2 if delta_window is None else delta_window
    Y = rng.substream(0).generator().standard_normal((m, m))

    def oracle(ts: np.ndarray, streams: list[list[Rng]]) -> np.ndarray:
        # one permanent per node: a matrix has the same bits in any stack
        values = permanents(ts[:, None, None] * X + (1.0 - ts)[:, None, None] * Y)
        if noise_delta == 0.0:
            return np.repeat(values[:, None], repetitions, axis=1)
        return np.array([
            [value + s.generator().uniform(-noise_delta, noise_delta) for s in row]
            for value, row in zip(values, streams)
        ])

    fit = robust_median_fit(
        oracle,
        m,
        (-dw, dw),
        repetitions,
        rng=rng.substream(1),
    )
    truth = permanent_ryser(X)
    return float(fit(1.0)), truth
