"""The measuring process: runs passes of one workload and checks them.

Started by `run.py` in a fresh interpreter whose BLAS thread variables are
already set, so the program under test sees them when numpy loads.
`--setup` only imports spindyn and runs the warm-up experiment; `run.py`
times that whole process as the set-up cost.  Otherwise the worker warms
up, runs passes until `--seconds` is spent (at least two, for the replay
check), checks every output and writes one JSON result to `--result`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WARM_UP = ["anticon", "--model", "H3", "--n", "2", "--num-j", "16", "--threads", "1"]


def _import_spindyn(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import spindyn.cli  # noqa: F401


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> dict:
        info = config["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stderr of one `spindyn.cli.main` call.

    An exception escaping `main` is exit code 1, as it would be for the
    `spindyn` command; the pass goes on and the operation counts as failed.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["spindyn.cli"].main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def _api(exp: workloads.Experiment) -> float:
    import numpy as np

    permanent = sys.modules["spindyn.permanent"]
    fn, m, trials = exp.api
    if fn == "permanent_ryser":
        a = np.random.default_rng([exp.seed, m]).standard_normal((m, m))
        return permanent.permanent_ryser(a)
    rng = sys.modules["spindyn.core"].Rng(exp.seed)
    return permanent.gaussian_permanent_variance_check(m, trials, rng)


def run_experiment(exp: workloads.Experiment, outdir: Path) -> tuple[float, int, str, object]:
    """(seconds, exit code, message, outputs) for one operation."""
    if exp.api:
        t0 = time.perf_counter()
        try:
            value = _api(exp)
        except Exception as exc:
            return time.perf_counter() - t0, 1, f"{type(exc).__name__}: {exc}", None
        return time.perf_counter() - t0, 0, "", {"value": value}
    t0 = time.perf_counter()
    code, message = _cli(exp.argv(str(outdir)))
    seconds = time.perf_counter() - t0
    run_dirs = sorted(p for p in outdir.iterdir() if p.is_dir()) if outdir.exists() else []
    return seconds, code, message, (run_dirs[0] if len(run_dirs) == 1 else None)


class Checker:
    """Compares outcomes with the reference and across passes."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.first_digests: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # mismatches: the run is not correct
        self.known_failures: dict[str, str] = {}

    def record(self, exp: workloads.Experiment, code: int, message: str, outputs) -> int:
        """Checks one outcome; returns its output size in bytes."""
        self.attempted += 1
        ref = self.reference.get(exp.key)
        if ref is None:
            raise SystemExit(f"no reference output for {exp.key!r}")
        if code != 0:
            self.failed += 1
            if code == ref["exit"]:
                self.known_failures[exp.key] = message
            else:
                self.errors.append(f"{exp.key}: exit {code} ({message})")
            return 0
        if exp.api:
            parsed, digest, size = outputs, {"value": repr(outputs["value"])}, 0
        else:
            if outputs is None:
                self.failed += 1
                self.errors.append(f"{exp.key}: no single run directory")
                return 0
            parsed = check.read_outputs(outputs)
            digest = check.digests(outputs)
            size = sum(p.stat().st_size for p in outputs.iterdir())
        if ref["exit"] == 0:
            errors = check.check(parsed, ref["outputs"], bool(exp.api))
        else:
            # Recorded as failing, now succeeds: the CLI's own guards
            # passed; only the certificates remain to check.
            errors = check.check(parsed, {}, bool(exp.api))
        first = self.first_digests.setdefault(exp.key, digest)
        if first != digest:
            errors.append("outputs differ from the first pass of this run")
        if errors:
            self.failed += 1
            self.errors += [f"{exp.key}: {e}" for e in errors]
        return size


def warm_up(tmp: Path) -> None:
    code, message = _cli([*WARM_UP, "--outdir", str(tmp / "warm-up")])
    if code != 0:
        raise SystemExit(f"warm-up experiment failed: {message}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--nproc", type=int, default=1)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path, help="with --trace 1, write spans here")
    ap.add_argument("--record", type=Path, help="write outputs as references here")
    args = ap.parse_args()

    _import_spindyn(args.root)
    tmp = Path(tempfile.mkdtemp(prefix="worker-", dir=args.scratch))
    try:
        warm_up(tmp)
        if args.setup:
            return 0
        plan = workloads.plan(args.workload, args.seed, args.smoke, args.nproc)
        if args.record:
            return record(plan, args.record, tmp)
        return measure(plan, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_pass(plan: workloads.Plan, tmp: Path, index: int, checker: Checker):
    """One pass: seconds per experiment, pass seconds, output bytes."""
    seconds = []
    outcomes = []
    t0 = time.perf_counter()
    for i, exp in enumerate(plan.experiments):
        s, code, message, outputs = run_experiment(exp, tmp / f"p{index}-{i}")
        seconds.append(s)
        outcomes.append((exp, code, message, outputs))
    total = time.perf_counter() - t0
    size = sum(checker.record(*o) for o in outcomes)
    for i in range(len(plan.experiments)):
        shutil.rmtree(tmp / f"p{index}-{i}", ignore_errors=True)
    return seconds, total, size


def measure(plan: workloads.Plan, args, tmp: Path) -> int:
    ref_path = HERE / "reference" / f"{plan.reference_name}.json"
    checker = Checker(json.loads(ref_path.read_text()))
    tracer = tracing.Tracer() if args.trace else None
    passes = []  # (seconds per experiment, total, traced, layer metrics)
    start = time.perf_counter()
    while True:
        index = len(passes)
        # With --trace 1 the first pass runs untraced, as the baseline
        # for the tracing overhead.
        traced = tracer is not None and index > 0
        if traced:
            tracer.tag = {"pass": index}
            mark = len(tracer.spans)
            tracer.install()
        try:
            seconds, total, size = run_pass(plan, tmp, index, checker)
        finally:
            if traced:
                tracer.uninstall()
        layers = (
            tracing.pass_metrics(tracer.spans[mark:], plan.threads, size) if traced else None
        )
        passes.append((seconds, total, traced, layers))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[1] for p in passes)
        if len(passes) >= 2 and elapsed + typical > args.seconds:
            break

    timed = [p for p in passes if not p[2]]
    result = {
        "passes": len(passes),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors[:20],
        "known_failures": checker.known_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "total_s": statistics.median(p[1] for p in timed),
        # A phase is the sum over its experiments of each one's median
        # time over the untraced passes.
        "phases": {
            ph: sum(
                statistics.median(p[0][i] for p in timed)
                for i, exp in enumerate(plan.experiments) if exp.phase == ph
            )
            for ph in workloads.PHASES
        },
        "pass_totals": [p[1] for p in passes],
        "pass_seconds": [p[0] for p in passes],
        "versions": _versions(),
    }
    if tracer is not None:
        traced = [p for p in passes if p[2]]
        layers = {
            name: statistics.median(p[3][name] for p in traced)
            for name in traced[0][3]
        }
        samples = [b - a for _, a, b in tracing.draws(tracer.spans)]
        pct, value = tracing.tail(samples)
        layers["evolve.draw_s.p50"] = statistics.median(samples) if samples else 0.0
        layers["evolve.draw_s.tail"] = value
        layers["evolve.draw_s.tail_pct"] = pct
        layers["evolve.draw_s.count"] = len(samples)
        layers["trace.overhead"] = statistics.median(p[1] for p in traced) / result["total_s"]
        result["layers"] = layers
        tracer.write(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


def record(plan: workloads.Plan, path: Path, tmp: Path) -> int:
    """Adds this plan's outputs to the reference file at `path`."""
    refs = json.loads(path.read_text()) if path.exists() else {}
    for i, exp in enumerate(plan.experiments):
        outdir = tmp / f"r{i}"
        _, code, message, outputs = run_experiment(exp, outdir)
        entry = {"argv": list(exp.cli) or list(exp.api), "exit": code}
        if code == 0:
            entry["outputs"] = outputs if exp.api else check.read_outputs(outputs)
        else:
            entry["message"] = message
        refs[exp.key] = entry
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}" for k in sorted(refs)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
