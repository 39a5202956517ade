"""Re-record the reference outputs the benchmark checks against.

Run from the root of a spindyn checkout, on the commit whose outputs are
the reference:

    python3 perfbench/record.py

Every case of every reference family is run once, single-threaded, and
its parsed outputs (or its exit code, for an operation that fails) are
written to `perfbench/reference/<family>.json`.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

FAMILIES = ("desk-n6", "sweep-n4")


def main() -> int:
    root = Path.cwd()
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", GIT_CEILING_DIRECTORIES=str(root.parent))
    for smoke in (False, True):
        for workload in FAMILIES:
            name = workloads.plan(workload, 0, smoke, 1).reference_name
            path = HERE / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.unlink(missing_ok=True)
            for case in range(workloads.N_CASES):
                with tempfile.TemporaryDirectory(prefix="record-", dir=out) as scratch:
                    subprocess.run(
                        [sys.executable, str(HERE / "worker.py"), "--root", str(root),
                         "--scratch", scratch, "--workload", workload,
                         "--seed", str(case), "--record", str(path),
                         *(["--smoke"] if smoke else [])],
                        env=env, check=True,
                    )
            print(f"recorded {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
