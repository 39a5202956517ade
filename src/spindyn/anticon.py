"""Monte-Carlo anticoncentration experiments over random couplings.

Estimates the first two moments of the output probability p(x; J; t)
across an ensemble of coupling matrices, computes the threshold ratio r
(the fraction of outcomes whose moments clear the class scale), applies
the Paley-Zygmund lower bound, and traces equilibration curves.  The
moment sweep and the curve read one accumulator, `_ensemble_sums`, which
propagates each draw once over the whole time grid and sums in
draw-index order from per-draw substreams, so identical seeds reproduce
results bit for bit.  It reads X_{n/2} as `hamming_class_states` rows;
only `moment_statistics` builds `BitString`s, for its records.  It returns
values and writes no file: the CLI renders records and curves as CSV.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    BitString,
    HamiltonianSpec,
    Kind,
    Rng,
    hamming_class_members,
    hamming_class_states,
    sample_coupling,
)
from .evolve import KrylovConvergenceError, draws_per_chunk, probability_tables
from .hamiltonian import natural_basis
from .hardness import anticoncentration_thresholds

_MIN_DRAWS = 16


@dataclass(frozen=True)
class MomentRecord:
    """Sample moments of p(x; J; t) over the coupling ensemble for one x,
    with the standard errors of both means."""

    x: BitString
    mean_p: float
    mean_p2: float
    se_p: float
    se_p2: float
    samples: int
    kind: Kind
    n: int
    t: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_p <= 1.0:
            raise ValueError("mean_p must lie in [0, 1]")
        if self.mean_p2 < 0.0:
            raise ValueError("mean_p2 must be non-negative")
        if self.se_p < 0.0 or self.se_p2 < 0.0:
            raise ValueError("standard errors must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


@dataclass(frozen=True)
class AnticonThresholds:
    """Threshold constants (K, Lambda) for the anticoncentration test.

    Defaults follow the collision-sector analysis: K = 1/2 and Lambda = 4,
    giving alpha = K/2 = 1/4 and beta = K^2/(4 Lambda) = 1/64.  The Ising
    pipeline uses Lambda = 16 (see `ising`).
    """

    K: float = 0.5
    Lambda: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.K <= 1.0 <= self.Lambda:
            raise ValueError("thresholds require 0 < K <= 1 <= Lambda")

    @classmethod
    def ising(cls) -> "AnticonThresholds":
        return cls(K=0.5, Lambda=16.0)

    @property
    def alpha(self) -> float:
        return self.K / 2.0

    @property
    def beta(self) -> float:
        return self.K**2 / (4.0 * self.Lambda)


class _EnsembleSums(NamedTuple):
    kind: Kind
    times: np.ndarray
    p: np.ndarray
    p2: np.ndarray
    p4: np.ndarray
    mean: np.ndarray
    mean2: np.ndarray


def ensemble_workers(kind: Kind | str, n: int, num_J: int, threads: int) -> int:
    """How many worker threads an ensemble of `num_J` draws of `kind` at
    size n runs on, given a cap of `threads`.

    Chunks of several draws (`draws_per_chunk` > 1: dense stacks, and
    CSR up to the n = 6 sector) run on the calling thread: on 2 cores
    two workers took 1.31x the time of one at H3 n = 6 (chunks of 5-6
    draws), as scipy's CSR product and numpy's small elementwise calls
    do not overlap across threads.  Only chunks of one draw (the n >= 8
    sectors, the full basis from n = 6) go to a pool of up to `threads`
    workers, one per chunk at most: two workers took 1.00x at H1 n = 6,
    0.69x at H3 n = 8 and 0.47x at H3 n = 10 (README).
    """
    if draws_per_chunk(kind, natural_basis(kind, n)) > 1:
        return 1
    return max(1, min(threads, num_J))


def _ensemble_sums(
    kind: Kind | str,
    n: int,
    times: Sequence[float] | np.ndarray,
    num_J: int,
    rng: Rng,
    threads: int,
) -> _EnsembleSums:
    """Propagate each coupling draw once over the grid and sum its p table.

    `p`, `p2` and `p4` sum p, p^2 and p^4 per (x in X_{n/2}, t); `mean`
    and `mean2` sum each draw's X_{n/2} mean of p, and its square, per t.
    Only the X_{n/2} rows are propagated.  The draws run in chunks of
    `draws_per_chunk` consecutive indices, each one `probability_tables`
    call: one Chebyshev recurrence for the whole chunk, on dense stacks
    up to `evolve._DENSE_LIMIT` (the sector up to n = 4, the full basis
    up to n = 3).  The chunks run on `ensemble_workers` threads.  Each
    chunk's tables, squares, fourth powers and means are laid out as
    rows after the running sums, and one reduction over that draw axis
    adds them in draw order (its other axis always holds two entries or
    more, so numpy does not sum it pairwise).  Draws are independent
    substreams and a draw's table has the same bits in any chunk, so
    neither the thread count nor the chunking changes a bit.  A failed
    guard names the ensemble's draw index.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be even and at least 2 for the X_{n/2} sweep")
    if num_J < _MIN_DRAWS:
        raise ValueError(f"num_J must be at least {_MIN_DRAWS}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a non-empty finite 1-D grid")
    kind = Kind(kind)
    basis = natural_basis(kind, n)
    positions = basis.pos[hamming_class_states(n, n // 2)]

    def one_chunk(draws: range) -> list[np.ndarray]:
        specs = [HamiltonianSpec(kind, sample_coupling(n, rng.substream(j))) for j in draws]
        try:
            return probability_tables(specs, basis, times, positions)
        except KrylovConvergenceError as exc:
            j = draws[exc.draw]
            raise KrylovConvergenceError(f"coupling draw {j}: {exc}", j) from exc

    # equal chunks of at most draws_per_chunk draws, in draw order
    count = -(-num_J // draws_per_chunk(kind, basis))
    edges = [i * num_J // count for i in range(count + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    # one row of sums: p, p^2 and p^4 over (x, t), then mean and mean^2 over
    # t; each chunk fills the rows after a copy of it, in one reused buffer
    shape, cells = (positions.size, times.size), positions.size * times.size
    sums = np.zeros(3 * cells + 2 * times.size)
    buffer = np.empty((max(map(len, chunks)) + 1, sums.size))
    workers = ensemble_workers(kind, n, num_J, threads)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        for tables in pool.map(one_chunk, chunks) if pool else map(one_chunk, chunks):
            rows = buffer[: len(tables) + 1]
            rows[0] = sums
            powers = rows[1:, : 3 * cells].reshape(len(tables), 3, *shape)
            means = rows[1:, 3 * cells :].reshape(len(tables), 2, times.size)
            np.stack(tables, out=powers[:, 0])
            np.multiply(powers[:, 0], powers[:, 0], out=powers[:, 1])
            np.multiply(powers[:, 1], powers[:, 1], out=powers[:, 2])
            np.mean(powers[:, 0], axis=1, out=means[:, 0])
            np.multiply(means[:, 0], means[:, 0], out=means[:, 1])
            np.add.reduce(rows, axis=0, out=sums)
    p, p2, p4 = sums[: 3 * cells].reshape(3, *shape)
    mean, mean2 = sums[3 * cells :].reshape(2, times.size)
    return _EnsembleSums(kind, times, p, p2, p4, mean, mean2)


def moment_statistics(
    kind: Kind | str,
    n: int,
    times: Sequence[float] | np.ndarray,
    num_J: int,
    rng: Rng,
    threads: int = 1,
) -> list[list[MomentRecord]]:
    """Per-x moment records, with their standard errors, at each time.

    One list per entry of `times`, each in X_{n/2} order.  One evolution
    per coupling draw serves every x and every t.
    """
    sums = _ensemble_sums(kind, n, times, num_J, rng, threads)
    members = hamming_class_members(n, n // 2)
    m1, m2, m4 = sums.p / num_J, sums.p2 / num_J, sums.p4 / num_J
    return [
        [
            MomentRecord(
                x=x,
                mean_p=float(m1[i, ti]),
                mean_p2=float(m2[i, ti]),
                se_p=math.sqrt(max(m2[i, ti] - m1[i, ti] ** 2, 0.0) / num_J),
                se_p2=math.sqrt(max(m4[i, ti] - m2[i, ti] ** 2, 0.0) / num_J),
                samples=num_J,
                kind=sums.kind,
                n=n,
                t=float(t),
            )
            for i, x in enumerate(members)
        ]
        for ti, t in enumerate(sums.times)
    ]


def ratio_r(
    records: Sequence[MomentRecord],
    thresholds: AnticonThresholds,
    model_class: str,
) -> float:
    """Fraction of records with mean_p >= K*scale and mean_p2 <= Lambda*scale^2.

    The scale is the class benchmark 2^{-2n} (I) or C(2n,n)^{-1} (II).
    All records must share one n and one t.
    """
    if not records:
        raise ValueError("records must be non-empty")
    n, t = records[0].n, records[0].t
    if any(r.n != n for r in records):
        raise ValueError("records mix different n")
    if any(r.t != t for r in records):
        raise ValueError("records mix different t")
    scale = anticoncentration_thresholds(model_class, n)
    hits = sum(
        1
        for r in records
        if r.mean_p >= thresholds.K * scale
        and r.mean_p2 <= thresholds.Lambda * scale**2
    )
    return hits / len(records)


def paley_zygmund_bound(record: MomentRecord, theta: float) -> float:
    """(1-theta)^2 mean_p^2 / mean_p2: lower bound on Pr[p > theta E p]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if record.mean_p2 <= 0.0:
        raise ValueError("second moment is zero: bound undefined")
    return (1.0 - theta) ** 2 * record.mean_p**2 / record.mean_p2


def equilibration_curve(
    kind: Kind | str,
    n: int,
    t_grid: Sequence[float] | np.ndarray,
    num_J: int,
    rng: Rng,
    threads: int = 1,
) -> list[tuple[float, float, float]]:
    """(t, mean, stderr) rows for p averaged over x in X_{n/2} and J draws."""
    sums = _ensemble_sums(kind, n, t_grid, num_J, rng, threads)
    out = []
    for i, t in enumerate(sums.times):
        mean = sums.mean[i] / num_J
        var = max(sums.mean2[i] / num_J - mean**2, 0.0)
        out.append((float(t), float(mean), math.sqrt(var / num_J)))
    return out

