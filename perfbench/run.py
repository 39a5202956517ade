"""spindyn benchmark: per-experiment wall time, output checks, traced layers.

Run from the root of a spindyn checkout:

    python3 perfbench/run.py --workload desk-n6 --seed 0 --seconds 30 --trace 0

It times set-up in fresh interpreters, then starts one worker process
that runs passes of the workload for `--seconds`, checks every output
against the stored references and across passes, and reports medians
over passes.  The last line of standard output is one JSON object:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Run artifacts (result record, spans) go to `.perfbench_out/` in the
checkout; CLI run directories are made under it and removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    **{phase: "s" for phase in workloads.PHASES},
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def _git_commit(root: Path, env: dict) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "spindyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(args: list[str], env: dict, deadline: float) -> float:
    """Runs worker.py to completion; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "spindyn" / "cli.py").is_file():
        print(f"no spindyn source under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    plan = workloads.plan(args.workload, args.seed, args.smoke, nproc)
    if not (HERE / "reference" / f"{plan.reference_name}.json").is_file():
        print(f"missing reference {plan.reference_name}.json", file=sys.stderr)
        return 2

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    # BLAS threads are fixed per workload so that both sides of a
    # comparison run with the same count.
    env.update({var: str(plan.threads) for var in THREAD_VARS})
    # git (the CLI records `git describe`) must not search above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)

    with tempfile.TemporaryDirectory(prefix="scratch-", dir=out) as scratch:
        common = ["--root", str(root), "--scratch", scratch]
        setup = [_worker([*common, "--setup"], env, deadline) for _ in range(SETUP_REPEATS)]
        stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
        result_path = out / f"{stem}.json"
        _worker(
            [*common, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--nproc", str(nproc), "--result", str(result_path),
             "--spans", str(out / f"{stem}-spans.jsonl"),
             *(["--smoke"] if args.smoke else [])],
            env, deadline,
        )
    result = json.loads(result_path.read_text())

    result["provenance"] = {
        **result.pop("versions"),
        "nproc": nproc,
        "threads": plan.threads,
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "case": plan.case,
        "smoke": args.smoke,
        "git_commit": _git_commit(root, env),
        "source_sha256": _source_digest(root),
    }
    result["setup_runs_s"] = setup
    result_path.write_text(json.dumps(result, indent=1))

    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            **result["phases"],
            "total_s": result["total_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"passes {result['passes']}: {[round(t, 3) for t in result['pass_totals']]}")
    for key, message in result["known_failures"].items():
        print(f"known failure: {key}: {message}")
    for error in result["errors"]:
        print(f"MISMATCH {error}")
    print(f"failed_frac = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.4f} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
