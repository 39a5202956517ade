"""Command-line front end: seeded experiments with CSV/JSON provenance.

Each experiment (`_cmd_*`) takes the parsed arguments and returns its
named outputs as bytes, rendered by `_csv` or `_json`; it opens no file.
`main` is the only code that touches the disk: it makes the run directory
`<outdir>/<command>-<UTCstamp>-seed<seed>/` before the experiment runs,
then writes the outputs and a `manifest.json` recording the command, its
argument list, the seed, the git state, and the output names.
`rerun <manifest>` replays a recorded run into a fresh directory; outputs
reproduce byte for byte.

Exit codes: 0 success; 1 a numerical guard tripped (the diagnostic names
the guard); 2 usage error.  A failed run leaves no run directory and none
of the parents it made, except that moments-check keeps its rows up to
the first offender of the moment identity (without a manifest).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .anticon import (
    AnticonThresholds,
    equilibration_curve,
    moment_statistics,
    ratio_r,
)
from .core import (
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Rng,
    hamming_class_bits,
    hamming_class_states,
    model_class,
    sample_coupling,
)
from .evolve import engine
from .hamiltonian import moment_table, symmetry_blocks
from .hardness import (
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
from .permanent import class_submatrices, permanents
from .polyfit import SampleSet, berlekamp_welch_recover
from .trotter import (
    CALIBRATED_PREFACTOR,
    block_arithmetic,
    gate_count_plan,
    trotter_error_grid,
)

_MOMENT_SUB_TOL = 1e-9
_MOMENT_REL_TOL = 1e-8
_MOMENT_NOISE = 1e-14  # an m-th moment this close to its truth is rounding
_MOMENT_TRUTH_FLOOR = 1e-12  # least divisor of a relative error: no inf at Per = 0


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def _new_run_dir(outdir: str, command: str, seed: int) -> list[Path]:
    """Creates the run directory and any missing parents; returns every
    directory it created, the run directory first and its parents deepest
    first."""
    stamp = _utc_now().strftime("%Y%m%dT%H%M%S%fZ")
    path = Path(outdir) / f"{command}-{stamp}-seed{seed}"
    created = [path, *itertools.takewhile(lambda p: not p.exists(), path.parents)]
    path.mkdir(parents=True, exist_ok=False)
    return created


@functools.cache
def _git_describe() -> str:
    """State of the checkout this package was loaded from, not of the cwd.

    Taken once per process: the loaded code does not change under it.
    """
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _strip_outdir(args: list[str]) -> list[str]:
    out = []
    skip = False
    for token in args:
        if skip:
            skip = False
            continue
        if token == "--outdir":
            skip = True
            continue
        if token.startswith("--outdir="):
            continue
        out.append(token)
    return out


def _csv(header: list[str], rows) -> bytes:
    """A CSV file's bytes, with csv.writer's \\r\\n line ends."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _json(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _write(run_dir: Path, outputs: dict[str, bytes]) -> None:
    for name, data in outputs.items():
        (run_dir / name).write_bytes(data)


class _GuardKeepsOutputs(RuntimeError):
    """A guard that trips after outputs were made; `main` writes them
    without a manifest."""

    def __init__(self, message: str, outputs: dict[str, bytes]) -> None:
        super().__init__(message)
        self.outputs = outputs


def _threads(ns: argparse.Namespace) -> int:
    if ns.threads is not None:
        return max(1, ns.threads)
    return os.cpu_count() or 1


# ------------------------------------------------------------------ handlers


def _labels(n: int, m: int) -> list[str]:
    """The x_bits label of each member of X_m, in class order."""
    return ["".join(map(str, row)) for row in hamming_class_bits(n, m).tolist()]


def _cmd_moments_check(ns: argparse.Namespace) -> dict[str, bytes]:
    kind = Kind(ns.model)
    n = ns.n
    if ns.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {ns.draws}")
    classes = [(m, hamming_class_states(n, m), _labels(n, m)) for m in range(1, n + 1)]
    worst: tuple[float, str] = (0.0, "")
    rows: list[list] = []

    def made() -> dict[str, bytes]:
        header = ["draw", "m", "x_bits", "max_abs_sub_moment", "mth_rel_error"]
        return {"moments_check.csv": _csv(header, rows)}

    for draw in range(ns.draws):
        J = sample_coupling(n, Rng(ns.seed).substream(draw))
        table = moment_table(HamiltonianSpec(kind, J), n)
        for m, states, labels in classes:
            pers = permanents(class_submatrices(J, m))
            columns = table[:, states]  # column c holds <x_c|H^k|y0> for every k
            sub = np.abs(columns[1:m]).max(axis=0, initial=0.0)
            truth = math.factorial(m) / float(n) ** m * pers
            diff = np.abs(columns[m] - truth)
            rel = diff / np.maximum(np.abs(truth), _MOMENT_TRUTH_FLOOR)
            bad = np.flatnonzero((rel > _MOMENT_REL_TOL) & (diff > _MOMENT_NOISE))
            # rows up to the first offender, as a row-by-row sweep makes them
            stop = int(bad[0]) + 1 if bad.size else len(labels)
            rows += (
                [draw, m, label, repr(s), repr(r)]
                for label, s, r in zip(labels[:stop], sub.tolist(), rel.tolist())
            )
            if bad.size:
                raise _GuardKeepsOutputs(
                    f"moment identity guard: relative error {rel[bad[0]]:.3e} at "
                    f"draw {draw}, m {m}, x {labels[bad[0]]}",
                    made(),
                )
            top = int(np.argmax(sub))  # the first member at the class maximum
            if sub[top] > worst[0]:
                where = f"draw {draw}, x {labels[top]}"
                worst = (float(sub[top]), f"sub-moment at {where}")
    if worst[0] > _MOMENT_SUB_TOL:
        raise _GuardKeepsOutputs(
            f"moment identity guard: {worst[1]} leaked {worst[0]:.3e}", made()
        )
    print(f"all moment identities within tolerance over {ns.draws} draws")
    return made()


def _report_engine(kind: Kind, n: int) -> None:
    """Names the engine the sweep's chunks ran (`evolve.engine`) on
    stderr; it depends on the kind and size only, so any couplings will
    do."""
    spec = HamiltonianSpec(kind, CouplingMatrix(np.zeros((n, n))))
    print(f"engine: {engine(spec)}", file=sys.stderr)


def _cmd_equilibrate(ns: argparse.Namespace) -> dict[str, bytes]:
    grid = np.linspace(0.0, ns.t_mult_max * math.log(ns.n), ns.points)
    rows = equilibration_curve(
        Kind(ns.model), ns.n, grid, ns.num_j, Rng(ns.seed), threads=_threads(ns)
    )
    _report_engine(Kind(ns.model), ns.n)
    return {
        "equilibration.csv": _csv(
            ["n", "t", "mean_p", "stderr"],
            ([ns.n, repr(t), repr(mean), repr(se)] for t, mean, se in rows),
        )
    }


def _cmd_anticon(ns: argparse.Namespace) -> dict[str, bytes]:
    kind = Kind(ns.model)
    t = ns.t_mult * math.log(ns.n)
    (records,) = moment_statistics(
        kind, ns.n, [t], ns.num_j, Rng(ns.seed), threads=_threads(ns)
    )
    thresholds = (
        AnticonThresholds.ising() if ns.ising_thresholds else AnticonThresholds()
    )
    cls = model_class(kind)
    r = ratio_r(records, thresholds, cls)
    print(f"r = {r!r} over {len(records)} outcomes")
    _report_engine(kind, ns.n)
    # the moments in the class benchmark's units, each error bar with its mean
    scale = anticoncentration_thresholds(cls, ns.n)
    moments = (
        [ns.n, repr(rec.t), label, repr(rec.mean_p / scale),
         repr(rec.mean_p2 / scale**2), repr(rec.se_p / scale), repr(rec.se_p2 / scale**2)]
        for rec, label in zip(records, _labels(ns.n, ns.n // 2))
    )
    header = ["n", "t", "x_bits", "mean_p_scaled", "mean_p2_scaled", "stderr_p", "stderr_p2"]
    return {
        "moments.csv": _csv(header, moments),
        "ratio.csv": _csv(
            ["n", "t_over_logn", "r", "num_x", "num_J", "seed"],
            [[ns.n, repr(ns.t_mult), repr(r), len(records), ns.num_j, ns.seed]],
        ),
    }


def _cmd_extract_permanent(ns: argparse.Namespace) -> dict[str, bytes]:
    kind = Kind(ns.model)
    n = ns.n
    m = ns.m if ns.m is not None else n
    K = ns.K if ns.K is not None else 2 * m + 6
    x = BitString.class_representative(n, m)
    spec = HamiltonianSpec(kind, sample_coupling(n, Rng(ns.seed)))
    estimate, truth, bound = extract_permanent_from_dynamics(
        spec,
        x,
        ns.t0,
        ns.delta_window,
        K,
        noise_delta=ns.noise_delta,
        rng=Rng(ns.seed).substream(1),
    )
    nodes = np.linspace(
        ns.t0 * (1 - ns.delta_window), ns.t0 * (1 + ns.delta_window), K + 1
    )
    print(f"estimate = {estimate!r}, truth = {truth!r}, bound = {bound!r}")
    payload = {
        "inputs": {
            "model": kind.value,
            "n": n,
            "m": m,
            "x_bits": str(x),
            "t0": ns.t0,
            "delta_window": ns.delta_window,
            "K": K,
            "mode": "noisy-oracle" if ns.noise_delta > 0 else "exact-oracle",
            "noise_delta": ns.noise_delta,
        },
        "nodes": [float(v) for v in nodes],
        "estimate": float(estimate),
        "truth": float(truth),
        "bound": float(bound),
        "seed": ns.seed,
    }
    return {"extraction.json": _json(payload)}


def _cmd_worst_to_average(ns: argparse.Namespace) -> dict[str, bytes]:
    m = ns.m
    base = Rng(ns.seed)
    X = (base.substream(2).generator().uniform(0, 1, (m, m)) < 0.5).astype(float)
    estimate, truth = worst_to_average_demo(
        X, ns.noise_delta, base, delta_window=ns.delta_window
    )
    window = ns.delta_window if ns.delta_window is not None else (16.0 * m) ** -2
    bound = interpolation_recovery_bound(ns.noise_delta, window, m)
    print(f"estimate = {estimate!r}, truth = {truth!r}, bound = {bound!r}")
    payload = {
        "inputs": {
            "m": m,
            "delta_window": window,
            "noise_delta": ns.noise_delta,
        },
        "X": [[int(v) for v in row] for row in X],
        "estimate": float(estimate),
        "truth": float(truth),
        "rounded": int(round(estimate)),
        "recovery_bound": float(bound),
        "interpolation_tvd_at_window": float(interpolation_tvd(window, m)),
        "seed": ns.seed,
    }
    return {"worst_to_average.json": _json(payload)}


def _cmd_trotter_plan(ns: argparse.Namespace) -> dict[str, bytes]:
    t0 = ns.t0_mult * math.log(ns.n)
    gates = gate_count_plan(ns.n, t0, ns.eps, ns.prefactor)
    print(f"gates = {gates} (~ {float(gates):.3e})")
    plan = {"n": ns.n, "t0": t0, "eps_t": ns.eps, "prefactor": ns.prefactor, "gates": int(gates)}
    return {"plan.json": _json(plan)}


def _cmd_trotter_error(ns: argparse.Namespace) -> dict[str, bytes]:
    kind = Kind(ns.model)
    t = ns.t_mult * math.log(ns.n)
    spec = HamiltonianSpec(kind, sample_coupling(ns.n, Rng(ns.seed)))
    orders = [int(v) for v in ns.orders.split(",")]
    m_grid = [int(v) for v in ns.m_grid.split(",")]
    grid = trotter_error_grid(spec, t, m_grid, orders)
    rows = (
        [kind.value, ns.n, repr(float(t)), order, M, repr(float(err))]
        for order, errs in zip(orders, grid)
        for M, err in zip(m_grid, errs)
    )
    csv_bytes = _csv(["model", "n", "t", "order", "M", "error"], rows)
    symmetry, blocks = symmetry_blocks(kind, ns.n)
    largest = max(b.dimension for b in blocks)
    print(
        f"{symmetry} blocks: {len(blocks)} in {block_arithmetic(spec)} arithmetic, "
        f"largest {largest}",
        file=sys.stderr,
    )
    return {"trotter_error.csv": csv_bytes}


def _cmd_bw_demo(ns: argparse.Namespace) -> dict[str, bytes]:
    d = ns.degree
    planted = ns.errors
    budget = ns.budget if ns.budget is not None else planted
    L = d + 1 + 2 * budget
    # SampleSet stores floats: a planted value |sum c_k t^k| + 49 <= 9 sum L^k + 49
    # past 2**53 is no longer carried exactly, and decoding then fails.
    peak = 9 * sum(L**k for k in range(d + 1)) + 49
    if peak > 2**53:
        raise ValueError(
            f"degree {d} with {L} samples plants values up to {peak:.3g}, "
            f"beyond 2**53 = {2**53}: float samples cannot carry them exactly"
        )
    gen = Rng(ns.seed).generator()
    coefficients = [int(v) for v in gen.integers(-9, 10, size=d + 1)]
    nodes = list(range(1, L + 1))
    values = [sum(c * t**k for k, c in enumerate(coefficients)) for t in nodes]
    positions = [int(v) for v in gen.choice(L, size=planted, replace=False)]
    for pos in positions:
        values[pos] += int(gen.integers(1, 50)) * (1 if gen.uniform(0, 1) < 0.5 else -1)
    samples = SampleSet([float(v) for v in nodes], [float(v) for v in values])
    fit = berlekamp_welch_recover(samples, d, budget)
    recovered = [float(fit.coefficient(k)) for k in range(d + 1)]
    match = recovered == coefficients
    if not match:
        raise RuntimeError("recovery guard: decoded coefficients do not match plant")
    print(f"recovered degree-{d} polynomial through {planted} corruptions")
    payload = {
        "degree": d,
        "planted_errors": planted,
        "budget": budget,
        "exact": True,
        "sample_count": L,
        "corrupted_positions": sorted(positions),
        "planted_coefficients": coefficients,
        "recovered_coefficients": recovered,
        "match": match,
        "seed": ns.seed,
    }
    return {"bw.json": _json(payload)}


def _cmd_bounds(ns: argparse.Namespace) -> dict[str, bytes]:
    values = {
        "truncation_error": truncation_error(ns.normh, ns.t, ns.K),
        "short_time_xi_bound": short_time_xi_bound(ns.normh, ns.n, ns.t),
        "xi_square_negligible": xi_square_negligible(ns.c),
        "gaussian_rescaling_tvd": gaussian_rescaling_tvd(ns.t, ns.t0, ns.n),
        "stockmeyer_error_I": stockmeyer_error(
            "I", ns.nu, ns.gamma, ns.g, ns.n, ns.p_x
        ),
        "stockmeyer_error_II": stockmeyer_error(
            "II", ns.nu, ns.gamma, ns.g, ns.n, ns.p_x
        ),
        "anticoncentration_threshold_I": anticoncentration_thresholds("I", ns.n),
        "anticoncentration_threshold_II": anticoncentration_thresholds("II", ns.n),
        "interpolation_recovery_bound": interpolation_recovery_bound(
            ns.noise_delta, ns.delta_window, ns.degree
        ),
        "interpolation_tvd": interpolation_tvd(ns.delta_window, ns.n),
    }
    inputs = {
        key: getattr(ns, key)
        for key in (
            "normh", "t", "K", "n", "t0", "c", "nu", "gamma", "g", "p_x",
            "noise_delta", "delta_window", "degree",
        )
    }
    for key, value in values.items():
        print(f"{key} = {value!r}")
    return {"bounds.json": _json({"inputs": inputs, "values": values})}


def _cmd_rerun(ns: argparse.Namespace) -> int:
    path = Path(ns.manifest)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.is_file():
        raise ValueError(f"no manifest at {path}")
    data = json.loads(path.read_text())
    if not (
        isinstance(data, dict)
        and data.get("command") in ns.experiments
        and isinstance(data.get("args"), list)
        and all(isinstance(arg, str) for arg in data["args"])
    ):
        raise ValueError(
            f"{path} is not a run manifest: it needs a \"command\" naming an "
            f"experiment and \"args\", a list of strings"
        )
    return main([data["command"], *data["args"], "--outdir", ns.outdir])


# --------------------------------------------------------------- the parser


def _positive_int(text: str) -> int:
    """The value of a size flag (--n, --m): an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _add_common(sub: argparse.ArgumentParser, threads: bool = False) -> None:
    sub.add_argument("--outdir", default="runs", help="parent directory for run dirs")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    if threads:
        sub.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker cap for J draws (default: available parallelism)",
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.

    parse_args returns a fresh Namespace on every call, so one parser
    serves every main() call.
    """
    parser = argparse.ArgumentParser(
        prog="spindyn",
        description="Seeded spin-dynamics experiments with CSV/JSON provenance.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("moments-check", help="moment-permanent identity sweep")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--model", required=True, choices=[k.value for k in Kind])
    p.add_argument("--draws", type=int, default=20)
    _add_common(p)
    p.set_defaults(handler=_cmd_moments_check)

    p = subs.add_parser("equilibrate", help="output-probability equilibration curve")
    p.add_argument("--model", default="H3", choices=[k.value for k in Kind])
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--num-j", type=int, default=256)
    p.add_argument("--points", type=int, default=33)
    p.add_argument("--t-mult-max", type=float, default=8.0,
                   help="grid tops out at this multiple of ln n")
    _add_common(p, threads=True)
    p.set_defaults(handler=_cmd_equilibrate)

    p = subs.add_parser("anticon", help="moment sweep over X_{n/2} plus the ratio r")
    p.add_argument("--model", default="H3", choices=[k.value for k in Kind])
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--t-mult", type=float, default=4.0, help="t = this * ln n")
    p.add_argument("--num-j", type=int, default=1024)
    p.add_argument("--ising-thresholds", action="store_true",
                   help="use the Lambda=16 Ising thresholds")
    _add_common(p, threads=True)
    p.set_defaults(handler=_cmd_anticon)

    p = subs.add_parser("extract-permanent", help="permanent from sampled dynamics")
    p.add_argument("--model", default="H1", choices=[k.value for k in Kind])
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--m", type=_positive_int, help="Hamming class (default n)")
    p.add_argument("--t0", type=float, default=0.1)
    p.add_argument("--delta-window", type=float, default=0.5)
    p.add_argument("--K", type=int, default=None, help="fit degree (default 2m+6)")
    p.add_argument("--noise-delta", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_extract_permanent)

    p = subs.add_parser("worst-to-average", help="0/1 permanent via the Gaussian path")
    p.add_argument("--m", type=_positive_int, default=4)
    p.add_argument("--delta-window", type=float, default=None,
                   help="interpolation window (default: the proof's (16m)^-2)")
    p.add_argument("--noise-delta", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(handler=_cmd_worst_to_average)

    p = subs.add_parser("trotter-plan", help="gate budget for a target error")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--t0-mult", type=float, required=True, help="t0 = this * ln n")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--prefactor", type=float, default=CALIBRATED_PREFACTOR)
    _add_common(p)
    p.set_defaults(handler=_cmd_trotter_plan)

    p = subs.add_parser("trotter-error", help="operator-error scaling sweep")
    p.add_argument("--model", default="H3", choices=[k.value for k in Kind])
    p.add_argument("--n", type=_positive_int, default=3)
    p.add_argument("--t-mult", type=float, default=1.0, help="t = this * ln n")
    p.add_argument("--orders", default="1,2")
    p.add_argument("--m-grid", default="8,16,32,64")
    _add_common(p)
    p.set_defaults(handler=_cmd_trotter_error)

    p = subs.add_parser("bw-demo", help="plant-and-recover polynomial decoding")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--errors", type=int, default=3, help="corruptions planted")
    p.add_argument("--budget", type=int, default=None,
                   help="correction budget e_max (default: planted count)")
    p.add_argument("--exact", action="store_true",
                   help="accepted for old command lines; decoding is always exact")
    _add_common(p)
    p.set_defaults(handler=_cmd_bw_demo)

    p = subs.add_parser("bounds", help="evaluate every analytic calculator")
    p.add_argument("--normh", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.6)
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--p-x", type=float, default=0.0)
    p.add_argument("--noise-delta", type=float, default=1e-3)
    p.add_argument("--delta-window", type=float, default=0.5)
    p.add_argument("--degree", type=int, default=8)
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    experiments = tuple(subs.choices)  # every subcommand so far; rerun replays them
    p = subs.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("manifest", help="manifest.json or its run directory")
    p.add_argument("--outdir", default="runs")
    p.set_defaults(handler=None, experiments=experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    created: list[Path] = []
    try:
        if ns.command == "rerun":
            return _cmd_rerun(ns)
        created = _new_run_dir(ns.outdir, ns.command, ns.seed)
        run_dir = created[0]
        started_at = _utc_now().isoformat()
        outputs = ns.handler(ns)
        manifest = {
            "command": ns.command,
            "args": _strip_outdir(argv[1:]),
            "seed": ns.seed,
            "git_describe": _git_describe(),
            "started_at": started_at,
            "outputs": list(outputs),
        }
        _write(run_dir, {**outputs, "manifest.json": _json(manifest)})
        print(f"run-dir: {run_dir}")
        return 0
    except _GuardKeepsOutputs as exc:
        _write(run_dir, exc.outputs)
        print(f"numerical guard [RuntimeError]: {exc}", file=sys.stderr)
        code = 1
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical guard [{type(exc).__name__}]: {exc}", file=sys.stderr)
        code = 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    # drop the run dir and the parents made for it, unless outputs were kept
    for path in created:
        if any(path.iterdir()):
            break
        path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
