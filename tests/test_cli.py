"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` in-process: fast, and the exit
codes / stdout / files are exactly what a shell invocation would see.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spindyn import cli
from spindyn.anticon import equilibration_curve
from spindyn.cli import main
from spindyn.core import BitString, Rng


def run_cli(args, outdir):
    return main([*args, "--outdir", str(outdir)])


def only_run_dir(outdir, command):
    dirs = sorted(outdir.glob(f"{command}-*"))
    assert len(dirs) == 1
    return dirs[0]


def test_trotter_plan_prints_published_anchor(tmp_path, capsys):
    rc = run_cli(
        ["trotter-plan", "--n", "100", "--t0-mult", "5", "--eps", "1e-1",
         "--prefactor", "2.97e-4"],
        tmp_path,
    )
    assert rc == 0
    out = capsys.readouterr().out
    gates = int(out.split("gates = ")[1].split()[0])
    assert abs(gates - 1.2e8) <= 0.1 * 1.2e8
    plan = json.loads((only_run_dir(tmp_path, "trotter-plan") / "plan.json").read_text())
    assert plan["gates"] == gates
    assert plan["t0"] == pytest.approx(5 * math.log(100))


def test_moments_check_worked_example(tmp_path):
    rc = run_cli(["moments-check", "--n", "3", "--model", "H4", "--seed", "7"], tmp_path)
    assert rc == 0
    csv_path = only_run_dir(tmp_path, "moments-check") / "moments_check.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "draw,m,x_bits,max_abs_sub_moment,mth_rel_error"
    # 20 draws x sum_m C(3,m)^2 = 9 + 9 + 1 outcomes
    assert len(lines) == 1 + 20 * 19


def test_anticon_reruns_are_byte_identical(tmp_path):
    args = ["anticon", "--model", "H3", "--n", "2", "--t-mult", "4",
            "--num-j", "16", "--seed", "1"]
    assert run_cli(args, tmp_path / "a") == 0
    assert run_cli(args, tmp_path / "b") == 0
    da = only_run_dir(tmp_path / "a", "anticon")
    db = only_run_dir(tmp_path / "b", "anticon")
    for name in ("moments.csv", "ratio.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_thread_count_does_not_change_outputs(tmp_path):
    base = ["equilibrate", "--model", "H3", "--n", "2", "--num-j", "24",
            "--points", "5", "--seed", "9"]
    assert run_cli([*base, "--threads", "1"], tmp_path / "a") == 0
    assert run_cli([*base, "--threads", "3"], tmp_path / "b") == 0
    da = only_run_dir(tmp_path / "a", "equilibrate")
    db = only_run_dir(tmp_path / "b", "equilibrate")
    assert (da / "equilibration.csv").read_bytes() == (db / "equilibration.csv").read_bytes()


def test_rerun_replays_byte_identically(tmp_path):
    args = ["anticon", "--model", "H1", "--n", "2", "--t-mult", "3",
            "--num-j", "16", "--seed", "4", "--ising-thresholds"]
    assert run_cli(args, tmp_path / "orig") == 0
    original = only_run_dir(tmp_path / "orig", "anticon")
    assert main(["rerun", str(original), "--outdir", str(tmp_path / "replay")]) == 0
    replay = only_run_dir(tmp_path / "replay", "anticon")
    manifest = json.loads((original / "manifest.json").read_text())
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (original / name).read_bytes() == (replay / name).read_bytes()


def test_rerun_accepts_manifest_path_and_rejects_missing(tmp_path, capsys):
    args = ["bounds", "--seed", "2"]
    assert run_cli(args, tmp_path / "orig") == 0
    original = only_run_dir(tmp_path / "orig", "bounds")
    rc = main(["rerun", str(original / "manifest.json"),
               "--outdir", str(tmp_path / "replay")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["rerun", str(tmp_path / "nowhere"), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "no manifest" in capsys.readouterr().err


def test_manifest_schema(tmp_path):
    args = ["anticon", "--model", "H3", "--n", "2", "--num-j", "16", "--seed", "3"]
    assert run_cli(args, tmp_path) == 0
    run_dir = only_run_dir(tmp_path, "anticon")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "args", "seed", "git_describe", "started_at", "outputs"
    }
    assert manifest["command"] == "anticon"
    assert manifest["seed"] == 3
    assert "--outdir" not in manifest["args"]
    assert manifest["args"] == args[1:]
    for name in manifest["outputs"]:
        assert (run_dir / name).is_file()
    assert run_dir.name.endswith("-seed3")


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["anticon", "--wat"],
        ["trotter-plan", "--n", "100"],  # missing required flags
    ],
)
def test_usage_errors_exit_2(tmp_path, argv, capsys):
    assert run_cli(argv, tmp_path) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["worst-to-average", "--m", "0"],
        ["extract-permanent", "--m", "-1"],
        ["anticon", "--n", "0"],
        ["equilibrate", "--n", "-2"],
        ["trotter-error", "--n", "0"],
        ["trotter-plan", "--n", "-2", "--t0-mult", "1", "--eps", "0.1"],
        ["moments-check", "--n", "0", "--model", "H1"],
        ["bounds", "--n", "0"],
    ],
)
def test_sizes_below_one_are_refused_by_the_parser(tmp_path, argv, capsys):
    assert run_cli(argv, tmp_path / "out") == 2
    assert f"argument {argv[1]}: must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_domain_validation_exits_2(tmp_path, capsys):
    rc = run_cli(["anticon", "--n", "3", "--num-j", "16"], tmp_path)
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_numerical_guard_exits_1_and_names_guard(tmp_path, capsys):
    rc = run_cli(
        ["bw-demo", "--errors", "4", "--budget", "3", "--exact", "--seed", "3"],
        tmp_path,
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "numerical guard" in err
    assert "RecoveryError" in err


def test_numerical_guards_leave_no_empty_run_dir(tmp_path, monkeypatch, capsys):
    (tmp_path / "kept").mkdir()
    argv = ["bw-demo", "--errors", "4", "--budget", "3", "--seed", "3"]
    assert run_cli(argv, tmp_path / "kept" / "g" / "deep") == 1
    assert "numerical guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert list((tmp_path / "kept").iterdir()) == []
    # a guard that fires after rows were written keeps them, and their parents
    real = cli.moment_table

    def shifted(spec, kmax):
        table = real(spec, kmax)
        table[1] += 1.0
        return table

    monkeypatch.setattr(cli, "moment_table", shifted)
    argv = ["moments-check", "--model", "H3", "--n", "2", "--draws", "1"]
    assert run_cli(argv, tmp_path / "kept" / "m") == 1
    assert "moment identity guard" in capsys.readouterr().err
    csv_path = only_run_dir(tmp_path / "kept" / "m", "moments-check") / "moments_check.csv"
    assert len(csv_path.read_text().splitlines()) == 2  # header and the offending row


@pytest.mark.parametrize("draws", ["0", "-2"])
def test_moments_check_refuses_fewer_than_one_draw(tmp_path, draws, capsys):
    argv = ["moments-check", "--model", "H2", "--n", "2", "--draws", draws]
    assert run_cli(argv, tmp_path / "out") == 2
    assert "--draws must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_moments_check_and_equilibration_build_no_bitstring(tmp_path, monkeypatch):
    # outcome classes travel as index arrays: a BitString per member, or
    # per draw for y0, would show up here
    built = []
    real = BitString.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(BitString, "__post_init__", counted)
    argv = ["moments-check", "--model", "H4", "--n", "4", "--draws", "2"]
    assert run_cli(argv, tmp_path) == 0
    equilibration_curve("H3", 4, [0.0, 1.0], 16, Rng(0))
    assert built == []


def test_bw_demo_within_budget_recovers(tmp_path):
    rc = run_cli(["bw-demo", "--degree", "5", "--errors", "3", "--exact",
                  "--seed", "6"], tmp_path)
    assert rc == 0
    report = json.loads((only_run_dir(tmp_path, "bw-demo") / "bw.json").read_text())
    assert report["match"] is True
    assert report["recovered_coefficients"] == [
        float(c) for c in report["planted_coefficients"]
    ]
    assert len(report["corrupted_positions"]) == 3


def test_help_exits_zero_everywhere(capsys):
    subcommands = [
        "moments-check", "equilibrate", "anticon", "extract-permanent",
        "worst-to-average", "trotter-plan", "trotter-error", "bw-demo",
        "bounds", "rerun",
    ]
    assert main(["--help"]) == 0
    for sub in subcommands:
        assert main([sub, "--help"]) == 0
    capsys.readouterr()


def test_extract_permanent_report(tmp_path):
    rc = run_cli(["extract-permanent", "--model", "H1", "--n", "2", "--seed", "5"],
                 tmp_path)
    assert rc == 0
    report = json.loads(
        (only_run_dir(tmp_path, "extract-permanent") / "extraction.json").read_text()
    )
    assert set(report) == {"inputs", "nodes", "estimate", "truth", "bound", "seed"}
    assert report["inputs"]["K"] == 2 * 2 + 6
    assert report["inputs"]["mode"] == "exact-oracle"
    assert report["inputs"]["x_bits"] == "1100"
    assert len(report["nodes"]) == report["inputs"]["K"] + 1
    assert abs(report["estimate"] - report["truth"]) <= report["bound"]
    assert abs(report["estimate"] - report["truth"]) <= 1e-3 * (1 + abs(report["truth"]))
    noisy = tmp_path / "noisy"
    rc = run_cli(["extract-permanent", "--model", "H1", "--n", "2", "--seed", "5",
                  "--noise-delta", "1e-6"], noisy)
    assert rc == 0
    report = json.loads(
        (only_run_dir(noisy, "extract-permanent") / "extraction.json").read_text()
    )
    assert report["inputs"]["mode"] == "noisy-oracle"


def test_worst_to_average_integer_recovery(tmp_path):
    rc = run_cli(
        ["worst-to-average", "--m", "4", "--delta-window", "0.02",
         "--noise-delta", "1e-12", "--seed", "11"],
        tmp_path,
    )
    assert rc == 0
    report = json.loads(
        (only_run_dir(tmp_path, "worst-to-average") / "worst_to_average.json").read_text()
    )
    assert report["recovery_bound"] < 0.5
    assert report["rounded"] == report["truth"]
    assert abs(report["estimate"] - report["truth"]) <= report["recovery_bound"]


def test_bounds_report_includes_worked_example(tmp_path, capsys):
    assert run_cli(["bounds"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "stockmeyer_error_I = 0.00625" in out
    report = json.loads((only_run_dir(tmp_path, "bounds") / "bounds.json").read_text())
    values = report["values"]
    assert values["stockmeyer_error_I"] == pytest.approx(0.00625)
    assert values["xi_square_negligible"] is True
    assert values["gaussian_rescaling_tvd"] == 0.0
    assert set(values) == {
        "truncation_error", "short_time_xi_bound", "xi_square_negligible",
        "gaussian_rescaling_tvd", "stockmeyer_error_I", "stockmeyer_error_II",
        "anticoncentration_threshold_I", "anticoncentration_threshold_II",
        "interpolation_recovery_bound", "interpolation_tvd",
    }


def test_trotter_error_orders_shrink_with_m(tmp_path):
    rc = run_cli(
        ["trotter-error", "--model", "H3", "--n", "2", "--m-grid", "4,8,16",
         "--seed", "2"],
        tmp_path,
    )
    assert rc == 0
    csv_path = only_run_dir(tmp_path, "trotter-error") / "trotter_error.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "model,n,t,order,M,error"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    for order in ("1", "2"):
        errs = [float(r[5]) for r in rows if r[3] == order]
        assert errs == sorted(errs, reverse=True)


def test_distinct_runs_get_distinct_directories(tmp_path):
    args = ["trotter-plan", "--n", "5", "--t0-mult", "1", "--eps", "1e-2"]
    assert run_cli(args, tmp_path) == 0
    assert run_cli(args, tmp_path) == 0
    assert len(list(tmp_path.glob("trotter-plan-*"))) == 2


def test_chebyshev_ensemble_threads_are_byte_identical(tmp_path):
    # H1 at n = 4 runs in the 256-dim full basis, above the dense limit.
    base = ["anticon", "--model", "H1", "--n", "4", "--num-j", "16", "--seed", "5"]
    assert run_cli([*base, "--threads", "1"], tmp_path / "a") == 0
    assert run_cli([*base, "--threads", "2"], tmp_path / "b") == 0
    da = only_run_dir(tmp_path / "a", "anticon")
    db = only_run_dir(tmp_path / "b", "anticon")
    for name in ("moments.csv", "ratio.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


def test_bw_demo_refuses_values_past_float_precision(tmp_path, capsys):
    rc = run_cli(["bw-demo", "--degree", "16", "--errors", "6", "--exact"], tmp_path / "a")
    assert rc == 2
    assert "2**53" in capsys.readouterr().err
    rc = run_cli(["bw-demo", "--degree", "10", "--errors", "4", "--exact"], tmp_path / "b")
    assert rc == 0
    report = json.loads((only_run_dir(tmp_path / "b", "bw-demo") / "bw.json").read_text())
    assert report["match"] is True


def test_git_describe_reads_the_package_checkout(tmp_path, monkeypatch):
    args = ["trotter-plan", "--n", "5", "--t0-mult", "1", "--eps", "1e-2"]
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    cli._git_describe.cache_clear()
    assert run_cli(args, tmp_path / "root") == 0
    monkeypatch.chdir(tmp_path)
    cli._git_describe.cache_clear()
    assert run_cli(args, tmp_path / "elsewhere") == 0
    described = [
        json.loads((only_run_dir(tmp_path / d, "trotter-plan") / "manifest.json")
                   .read_text())["git_describe"]
        for d in ("root", "elsewhere")
    ]
    assert described[0] == described[1]


def test_cli_spawns_git_once_per_process(tmp_path, monkeypatch):
    real_run = cli.subprocess.run
    spawned = []

    def counting_run(cmd, *args, **kwargs):
        spawned.append(cmd[0])
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counting_run)
    cli._git_describe.cache_clear()
    args = ["trotter-plan", "--n", "5", "--t0-mult", "1", "--eps", "1e-2"]
    for k in range(3):
        assert run_cli(args, tmp_path / str(k)) == 0
    assert spawned == ["git"]


def test_trotter_error_reports_its_blocks_on_stderr(tmp_path, capsys):
    args = ["trotter-error", "--model", "H3", "--n", "3", "--m-grid", "4"]
    assert run_cli(args, tmp_path) == 0
    assert capsys.readouterr().err.strip() == (
        "weight blocks: 7 in real (E/O gauge) arithmetic, largest 20"
    )
    args = ["trotter-error", "--model", "H1", "--n", "2", "--m-grid", "4"]
    assert run_cli(args, tmp_path) == 0
    assert capsys.readouterr().err.strip() == (
        "parity blocks: 2 in real (E/O gauge) arithmetic, largest 8"
    )
    args = ["trotter-error", "--model", "H4", "--n", "2", "--m-grid", "4"]
    assert run_cli(args, tmp_path) == 0
    assert capsys.readouterr().err.strip() == (
        "weight blocks: 5 in complex arithmetic, largest 6"
    )


def test_commands_load_one_blas_pool(tmp_path):
    # numpy and scipy each ship an OpenBLAS with its own thread pool;
    # dense algebra that alternates between them leaves one pool spinning
    # while the other works, so no command may load scipy.linalg
    script = (
        "import sys\n"
        "from spindyn import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for args in (['trotter-error', '--model', 'H3', '--n', '2', '--m-grid', '4'],\n"
        "             ['trotter-error', '--model', 'H1', '--n', '2', '--m-grid', '4'],\n"
        "             ['anticon', '--model', 'H3', '--n', '2', '--num-j', '16']):\n"
        "    assert cli.main([*args, '--outdir', out]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
    assert len(list(tmp_path.glob("trotter-error-*"))) == 2
    assert len(list(tmp_path.glob("anticon-*"))) == 1


def test_bw_demo_defaults_recover_on_every_seed(tmp_path):
    for seed in range(4):
        out = tmp_path / str(seed)
        assert run_cli(["bw-demo", "--seed", str(seed)], out) == 0
        report = json.loads((only_run_dir(out, "bw-demo") / "bw.json").read_text())
        assert report["match"] is True and report["exact"] is True


def test_extract_permanent_refuses_class_outside_one_to_n(tmp_path, capsys):
    for m, why in (("0", "argument --m"), ("4", "Hamming class")):
        rc = run_cli(["extract-permanent", "--n", "3", "--m", m], tmp_path)
        assert rc == 2
        assert why in capsys.readouterr().err
    assert not list(tmp_path.glob("extract-permanent-*/extraction.json"))


@pytest.mark.parametrize(
    "argv",
    [["extract-permanent", "--n", "3", "--m", "5"], ["anticon", "--n", "3", "--num-j", "16"],
     # the grid is checked whole before the CSV is opened
     ["trotter-error", "--n", "2", "--orders", "1,3", "--m-grid", "4"],
     ["trotter-error", "--n", "2", "--orders", "2", "--m-grid", "4,0"]],
)
def test_usage_errors_leave_no_run_dir(tmp_path, argv, capsys):
    assert run_cli(argv, tmp_path) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # the missing --outdir parents this run created go too, and no others
    (tmp_path / "kept").mkdir()
    assert run_cli(argv, tmp_path / "kept" / "ue" / "deep") == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_dense_commands_never_load_scipy_sparse(tmp_path):
    # only a sparse product needs scipy; commands that stay on dense
    # products (the ensembles within _DENSE_LIMIT step on dense stacks)
    # must not pay its import, and a sparse Chebyshev command loads it at
    # its first product, from the thread pool, with unchanged bytes
    script = (
        "import sys\n"
        "from spindyn import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for args in (['anticon', '--model', 'H3', '--n', '2', '--num-j', '16'],\n"
        "             ['anticon', '--model', 'H3', '--n', '4', '--num-j', '16'],\n"
        "             ['equilibrate', '--model', 'H4', '--n', '4', '--num-j', '16'],\n"
        "             ['equilibrate', '--model', 'H2', '--n', '2', '--num-j', '16'],\n"
        "             ['trotter-error', '--model', 'H3', '--n', '2', '--m-grid', '4'],\n"
        "             ['trotter-error', '--model', 'H1', '--n', '2', '--m-grid', '4'],\n"
        "             ['extract-permanent', '--n', '2'],\n"
        "             ['worst-to-average'],\n"
        "             ['bw-demo', '--exact'],\n"
        "             ['bounds']):\n"
        "    assert cli.main([*args, '--outdir', out]) == 0, args\n"
        "loaded = ['scipy.sparse' in sys.modules]\n"
        "eq = ['equilibrate', '--model', 'H4', '--n', '6', '--num-j', '16']\n"
        "assert cli.main([*eq, '--threads', '2', '--outdir', out + '/t2']) == 0\n"
        "loaded.append('scipy.sparse' in sys.modules)\n"
        "assert cli.main([*eq, '--threads', '1', '--outdir', out + '/t1']) == 0\n"
        "print('loaded', *loaded)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "loaded False True"
    t2, t1 = (only_run_dir(tmp_path / t, "equilibrate") for t in ("t2", "t1"))
    assert (t2 / "equilibration.csv").read_bytes() == (t1 / "equilibration.csv").read_bytes()


def test_dense_chiral_outputs_do_not_depend_on_threads(tmp_path):
    # the dense stacks' products run on numpy's OpenBLAS from the sweep's
    # thread pool; neither pool size may move a bit, on the chiral split
    # (300 draws: three chunks) or on the whole basis (64 draws: two)
    cases = (("h3-anticon", ["anticon", "--model", "H3", "--n", "4", "--num-j", "300"]),
             ("h3-equilibrate", ["equilibrate", "--model", "H3", "--n", "4", "--num-j", "16"]),
             ("h4-anticon", ["anticon", "--model", "H4", "--n", "4", "--num-j", "64"]))
    script = (
        "import sys\n"
        "from spindyn import cli\n"
        "out = sys.argv[1]\n"
        f"for label, args in {cases!r}:\n"
        "    for threads in ('1', '2', '3'):\n"
        "        argv = [*args, '--threads', threads, '--outdir', f'{out}/{label}/t{threads}']\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / f"b{blas}")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        assert run.stderr.count("engine: chebyshev chiral 38+32, dense products") == 6
        assert run.stderr.count("engine: chebyshev 70, dense products") == 3
    for label, args in cases:
        names = ("moments.csv", "ratio.csv") if args[0] == "anticon" else ("equilibration.csv",)
        dirs = [only_run_dir(tmp_path / b / label / t, args[0])
                for b in ("b1", "b2") for t in ("t1", "t2", "t3")]
        for name in names:
            outputs = {(d / name).read_bytes() for d in dirs}
            assert len(outputs) == 1, (label, name)


def test_sweeps_report_their_engine_on_stderr(tmp_path, capsys):
    cases = [
        (["anticon", "--model", "H3", "--n", "4", "--num-j", "16"],
         "chebyshev chiral 38+32, dense products"),
        (["anticon", "--model", "H1", "--n", "2", "--num-j", "16"],
         "chebyshev chiral 8+8, dense products"),
        (["anticon", "--model", "H4", "--n", "2", "--num-j", "16"], "chebyshev 6, dense products"),
        (["equilibrate", "--model", "H1", "--n", "4", "--num-j", "16", "--points", "3"],
         "chebyshev chiral 128+128, sparse products"),
        (["equilibrate", "--model", "H2", "--n", "2", "--num-j", "16"],
         "chebyshev 16, dense products"),
    ]
    for args, want in cases:
        assert run_cli(args, tmp_path / args[0]) == 0
        assert capsys.readouterr().err.strip() == f"engine: {want}"
    # the report goes to stderr only: a replay's outputs stay byte-identical
    for command in ("anticon", "equilibrate"):
        for d in (tmp_path / command).glob(f"{command}-*"):
            assert not any(b"engine" in f.read_bytes() for f in d.iterdir())


@pytest.mark.parametrize(
    "args, moments_sha256, ratio_sha256",
    [
        # moments.csv: the bytes of the recurrence scaled by the smaller of
        # coupling_norm_bound and the draw's norm_bounds (within 8.3e-15
        # relative of the coupling-bound scale's); ratio.csv: the bytes
        # from before the chiral split, unmoved by either scale
        (["--model", "H3", "--n", "6", "--t-mult", "3", "--num-j", "16", "--seed", "0"],
         "443f1f2c7ec3e3c968872e562341194bf9ce018cdec01d6688403d9110eab66c",
         "7c50da96f5e7385049250e542750e7418afc5097b66d5db461126bb22d0e62bd"),
        (["--model", "H1", "--n", "4", "--num-j", "16", "--seed", "5"],
         "24cc103ed49b94798cb22d0c4654e3b1e5129e0554a0d51531682f5169904e73",
         "c03fe1d3fac59aed5b646db2b2dfb262e9a498e564b54abee813351fea9602d0"),
    ],
    ids=["H3-n6-seed0", "H1-n4-seed5"],
)
def test_chebyshev_anticon_csv_is_pinned(tmp_path, args, moments_sha256, ratio_sha256):
    assert run_cli(["anticon", *args], tmp_path) == 0
    run_dir = only_run_dir(tmp_path, "anticon")
    for name, sha256 in (("moments.csv", moments_sha256), ("ratio.csv", ratio_sha256)):
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["--model", "H4", "--n", "3", "--seed", "7"],
         "96571a1ff36da7c90bb0c28b08308cafa9f1d92411a7d5171b20e2e1a4ee2a87"),
        (["--model", "H2", "--n", "5", "--seed", "11", "--draws", "2"],
         "552141987aede8fde59ab5776474ecb96bd40d640f8a88ee732e20338f1a1a25"),
        # a chiral kind, whose half-steps split into B and B^T
        (["--model", "H3", "--n", "4", "--seed", "3", "--draws", "2"],
         "348f946aacacf44f07c31577bdaba8a13f80cb4ebb9480f9f9ee741bb6524dc7"),
    ],
    ids=["H4-n3-seed7", "H2-n5-seed11-draws2", "H3-n4-seed3-draws2"],
)
def test_moments_check_csv_is_pinned(tmp_path, args, sha256):
    # digests of the row-by-row sweep's output: the per-class arrays must
    # reproduce every row and every repr'd float
    assert run_cli(["moments-check", *args], tmp_path) == 0
    csv_path = only_run_dir(tmp_path, "moments-check") / "moments_check.csv"
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == sha256


def test_moments_check_guards_name_the_first_offending_row(tmp_path, monkeypatch, capsys):
    real = cli.moment_table

    def run(name, shifts):
        # H3 at n = 3, 3 draws; shifts[draw] lists (k, x bits, added to <x|H^k|y0>)
        calls = []

        def shifted(spec, kmax):
            table = real(spec, kmax)
            for k, bits, delta in shifts.get(len(calls), ()):
                table[k, int(bits[::-1], 2)] += delta
            calls.append(spec)
            return table

        monkeypatch.setattr(cli, "moment_table", shifted)
        args = ["moments-check", "--model", "H3", "--n", "3", "--draws", "3"]
        assert run_cli(args, tmp_path / name) == 1
        csv_path = only_run_dir(tmp_path / name, "moments-check") / "moments_check.csv"
        return capsys.readouterr().err, csv_path.read_text().splitlines()[-1]

    # the m-th moment of two class-2 members of draw 1 is off
    err, last = run("rel", {1: [(2, "011001", 1.0), (2, "110100", 1.0)]})
    assert "relative error" in err and "draw 1, m 2, x 110100" in err
    assert last.startswith("1,2,110100,")  # rows stop at the first offender
    # equal sub-moment leaks at two class-2 members of draw 0 (101010 comes
    # first in class order) and at draw 2's one class-3 member
    leaks = {0: [(1, "011001", 1e-6), (1, "101010", 1e-6), (2, "111000", 1e-7)],
             2: [(1, "111000", 1e-6)]}
    err, last = run("sub", leaks)
    assert "sub-moment at draw 0, x 101010 leaked 1.000e-06" in err
    assert last.startswith("2,3,111000,")  # every row is written first


# sha256 of trotter_error.csv with one BLAS thread, from the one-(order, M)
# at-a-time block algebra the stacked grid replaced.  H4's complex blocks
# of 70 rows at n = 4 round differently on 1 and 2 OpenBLAS threads, so
# the pins run in a subprocess with one.
TROTTER_CSV_SHA256 = {
    "--n 3 --seed 0": "30bc5aac728f8f17640c59e2cdeb5cd60535c4f847138bf8d875d32a26e3354f",
    "--n 3 --seed 1": "30aafad8ab2e1bacbaf1abea04158254526e63498667836ae404fa7e04402cac",
    "--n 3 --seed 2": "cd073c420d6cb6a83e5151784cfa0e35ca3b8c0af221b61bd4c6f0ca83ff1856",
    "--n 3 --seed 3": "39b52833991ef7d9f2991e0cf5feaa6d7a0a88ea195b84e851297b09f16bb64b",
    "--model H4 --n 4 --m-grid 1,2,3,3,8 --seed 0":
        "a4cb4905be5049548d86c78e0e8662da8f4797d68383f21901288157e67c098c",
    "--model H3 --n 4 --m-grid 1,2,3,3,8 --seed 0":
        "5f35fb2ae10d3c4b211f8fd44315acca374f3e1aeebbcbd3dc6d3c93a8e356df",
    "--model H1 --n 3 --m-grid 1,2,3,3,8 --seed 0":
        "c562dd665ca9662d0f2748d0e7adc880d5840937bed02345d4f2fb89bd4387e7",
    "--model H2 --n 3 --m-grid 1,2,3,3,8 --seed 0":
        "b3650d960a2b92ffd9bd1a38ff0c0a649af26f030f222a77d49196e84d6f0868",
}


def test_trotter_error_csv_is_pinned(tmp_path):
    script = (
        "import sys\n"
        "from spindyn import cli\n"
        f"for k, args in enumerate({list(TROTTER_CSV_SHA256)!r}):\n"
        "    argv = ['trotter-error', *args.split(), '--outdir', f'{sys.argv[1]}/{k}']\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    for k, (args, sha256) in enumerate(TROTTER_CSV_SHA256.items()):
        csv_path = only_run_dir(tmp_path / str(k), "trotter-error") / "trotter_error.csv"
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == sha256, args


def test_anticon_and_equilibrate_csv_headers(tmp_path):
    assert run_cli(["anticon", "--model", "H3", "--n", "2", "--num-j", "16", "--seed", "3"],
                   tmp_path) == 0
    assert run_cli(["equilibrate", "--model", "H3", "--n", "2", "--num-j", "16",
                    "--points", "2", "--seed", "3"], tmp_path) == 0
    anticon = only_run_dir(tmp_path, "anticon")
    headers = {
        anticon / "moments.csv": "n,t,x_bits,mean_p_scaled,mean_p2_scaled,stderr_p,stderr_p2",
        anticon / "ratio.csv": "n,t_over_logn,r,num_x,num_J,seed",
        only_run_dir(tmp_path, "equilibrate") / "equilibration.csv": "n,t,mean_p,stderr",
    }
    for path, header in headers.items():
        assert path.read_bytes().split(b"\r\n")[0] == header.encode()


# one small argv per experiment subcommand
HANDLER_ARGV = {
    "moments-check": ["--n", "2", "--model", "H4", "--draws", "2"],
    "equilibrate": ["--n", "2", "--num-j", "16", "--points", "3", "--threads", "1"],
    "anticon": ["--model", "H1", "--n", "2", "--num-j", "16", "--threads", "1"],
    "extract-permanent": ["--n", "2", "--seed", "5"],
    "worst-to-average": ["--m", "3"],
    "trotter-plan": ["--n", "10", "--t0-mult", "1", "--eps", "0.1"],
    "trotter-error": ["--n", "2", "--m-grid", "4,8"],
    "bw-demo": ["--degree", "4", "--errors", "1"],
    "bounds": ["--n", "3"],
}


def test_handler_argv_cover_every_experiment():
    rerun = cli._build_parser().parse_args(["rerun", "manifest.json"])
    assert set(HANDLER_ARGV) == set(rerun.experiments)


@pytest.mark.parametrize("command", list(HANDLER_ARGV))
def test_handlers_return_outputs_and_write_nothing(tmp_path, monkeypatch, command):
    argv = [command, *HANDLER_ARGV[command]]
    assert run_cli(argv, tmp_path / "out") == 0
    run_dir = only_run_dir(tmp_path / "out", command)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(fresh)
    ns = cli._build_parser().parse_args(argv)
    outputs = ns.handler(ns)
    assert list(fresh.iterdir()) == []
    assert isinstance(outputs, dict)
    assert all(isinstance(data, bytes) for data in outputs.values())
    assert list(outputs) == manifest["outputs"]
    for name, data in outputs.items():
        assert (run_dir / name).read_bytes() == data
    assert sorted(p.name for p in run_dir.iterdir()) == sorted([*outputs, "manifest.json"])


def test_rerun_refuses_malformed_manifests(tmp_path, capsys):
    recursive = {"command": "rerun", "args": [str(tmp_path / "recursive.json")]}
    for name, data in (("no-command.json", {"seed": 1}), ("list.json", [1, 2]),
                       ("recursive.json", recursive),
                       ("args.json", {"command": "bounds", "args": ["--n", 3]})):
        (tmp_path / name).write_text(json.dumps(data))
        rc = main(["rerun", str(tmp_path / name), "--outdir", str(tmp_path / "out")])
        assert rc == 2, name
        assert "is not a run manifest" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
