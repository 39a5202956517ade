"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["desk-n6", "sweep-n4", "pool-n6"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    # only bw-demo in float mode fails, once per pass, and only in sweep-n4
    passes = int(proc.stdout.split("passes ")[1].split(":")[0])
    assert last["failed"] == (passes if workload == "sweep-n4" else 0)


@pytest.mark.parametrize("workload", ["sweep-n4", "pool-n6"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["evolve.Propagator.calls"] > 0
    assert metrics["hamiltonian.moment.calls"] > 0
    assert 0 < metrics["anticon.parallel_efficiency"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-n4", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_tolerates_last_bits_and_additions_only():
    want = {"a.csv": {"p": [0.25, 1e-17]}, "b.json": {"x": 3.0, "k": "110"}}
    moved = {"a.csv": {"p": [0.25 * (1 + 1e-13), 3e-17], "new": [1.0, 2.0]},
             "b.json": {"x": 3.0, "k": "110", "extra": 1}, "c.json": {}}
    assert check.compare(moved, want, "") == []
    assert check.compare({"a.csv": {"p": [0.2501, 1e-17]}, "b.json": want["b.json"]},
                         want, "")
    assert check.compare({"a.csv": want["a.csv"]}, want, "") == ["/b.json: missing"]
    assert check.compare({**want, "b.json": {"x": 3.0, "k": "011"}}, want, "")


def test_certified_estimate_is_checked_against_its_bound():
    ok = {"extraction.json": {"estimate": 5.0, "truth": 1.0, "bound": 10.0}}
    bad = {"extraction.json": {"estimate": 50.0, "truth": 1.0, "bound": 10.0}}
    ref = {"extraction.json": {"estimate": -3.0, "truth": 1.0, "bound": 10.0}}
    assert check.check(ok, ref, api=False) == []
    assert check.check(bad, ref, api=False)


def test_tracer_installs_under_caller_names_and_restores():
    import spindyn.anticon
    import spindyn.cli
    import spindyn.evolve
    import spindyn.hamiltonian

    moment = spindyn.cli.moment
    prop = spindyn.anticon.Propagator
    apply_array = spindyn.hamiltonian.SparseAction.apply_array
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spindyn.cli.moment is not moment
        assert spindyn.hamiltonian.moment is spindyn.cli.moment
        assert spindyn.anticon.Propagator is not prop
        assert spindyn.hamiltonian.SparseAction.apply_array is not apply_array
        records = spindyn.anticon.estimate_moments(
            "H3", 2, 1.0, 16, spindyn.core.Rng(0), threads=2)
        assert len(records) == 4
    finally:
        tracer.uninstall()
    assert spindyn.cli.moment is moment
    assert spindyn.anticon.Propagator is prop
    assert spindyn.evolve.Propagator is prop
    assert spindyn.hamiltonian.SparseAction.apply_array is apply_array
    names = {s["name"] for s in tracer.spans}
    assert {"anticon.moment_statistics", "evolve.Propagator",
            "core.sample_coupling"} <= names
    ensemble = next(s for s in tracer.spans if s["name"] == "anticon.moment_statistics")
    props = [s for s in tracer.spans if s["name"] == "evolve.Propagator"]
    assert len(props) == 16 and all(s["parent"] == ensemble["id"] for s in props)
    assert len(tracing.draws(tracer.spans)) == 16
