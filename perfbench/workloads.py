"""What one pass of each workload runs, at full and at smoke size.

A pass is a fixed list of experiments.  Each experiment is one `spindyn`
CLI invocation (through `spindyn.cli.main(argv)`) or one call of a public
permanent function, and its wall time adds to the end-to-end metric named
by its `phase`.  Inputs come only from the workload seed: the seed picks
one of `N_CASES` recorded cases, and every experiment seed derives from
that case, so each case has stored reference outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

N_CASES = 4

PHASES = (
    "anticon_s",
    "equilibrate_s",
    "moments_check_s",
    "extract_permanent_s",
    "trotter_error_s",
    "permanent_s",
    "decode_s",
)

WORKLOADS = ("desk-n6", "sweep-n4", "pool-n6")


@dataclass(frozen=True)
class Experiment:
    """One timed operation.  `cli` is the argv without --seed/--outdir;
    `api` names a permanent-layer call as (function, m, trials)."""

    phase: str
    seed: int
    cli: tuple[str, ...] = ()
    api: tuple = ()

    @property
    def key(self) -> str:
        """Reference key: the operation and its inputs, minus --threads.

        Thread counts must not change outputs, so pool-n6 shares the
        references of desk-n6.
        """
        if self.api:
            return " ".join(str(v) for v in self.api) + f" seed={self.seed}"
        argv = list(self.cli)
        if "--threads" in argv:
            i = argv.index("--threads")
            del argv[i : i + 2]
        return " ".join(argv) + f" --seed {self.seed}"

    def argv(self, outdir: str) -> list[str]:
        return [*self.cli, "--seed", str(self.seed), "--outdir", outdir]


@dataclass(frozen=True)
class Plan:
    """A workload instance: its experiments and thread settings."""

    workload: str
    case: int
    smoke: bool
    threads: int  # the CLI --threads value and the BLAS thread count
    experiments: tuple[Experiment, ...]

    @property
    def reference_name(self) -> str:
        family = "sweep-n4" if self.workload == "sweep-n4" else "desk-n6"
        return family + ("-smoke" if self.smoke else "")


def _desk(case: int, smoke: bool, threads: int) -> list[Experiment]:
    # n = 5-6: dense eigh on the 924-dim sector, matvecs on 4^5, the
    # 1024-dim Trotter algebra and large-m Ryser carry the cost.
    n6, n5, m = (2, 3, 8) if smoke else (6, 5, 17)
    th = ("--threads", str(threads))
    s = case
    big = [
        Experiment("anticon_s", s, ("anticon", "--model", "H3", "--n", str(n6),
                                    "--t-mult", "3", "--num-j", "16", *th)),
        Experiment("equilibrate_s", s, ("equilibrate", "--model", "H4", "--n", str(n6),
                                        "--num-j", "16", *th)),
        Experiment("extract_permanent_s", s, ("extract-permanent", "--model", "H1",
                                              "--n", str(n5))),
        Experiment("trotter_error_s", s, ("trotter-error", "--model", "H3",
                                          "--n", str(n5), "--orders", "2",
                                          "--m-grid", "8")),
    ]
    # Machine speed drifts by tens of percent over seconds, so the short
    # experiments run as several equal calls spread between the long ones;
    # each phase then samples the whole pass.  Decoding has no n;
    # moments-check runs one draw per call.  One small batched-Ryser call
    # keeps every permanent-layer span present in traced runs.
    out = [Experiment("permanent_s", s,
                      api=("gaussian_permanent_variance_check", 4 if smoke else 8, 1000))]
    for i, exp in enumerate(big):
        sub = len(big) * case + i
        out += [
            exp,
            Experiment("moments_check_s", sub, ("moments-check", "--model", "H4",
                                                "--n", str(n5), "--draws", "1")),
            Experiment("permanent_s", sub, api=("permanent_ryser", m, 0)),
            Experiment("decode_s", sub, ("worst-to-average", "--m", "3" if smoke else "7")),
            Experiment("decode_s", sub, ("bw-demo", "--degree", "4" if smoke else "10",
                                         "--errors", "1" if smoke else "4", "--exact")),
        ]
    return out


def _sweep(case: int, smoke: bool) -> list[Experiment]:
    # n = 3-4 with many draws and many small calls: fixed per-call costs
    # (per-draw Python, sector build, CLI run dir, manifest, git) dominate.
    # As in desk-n6, the calls of each phase are spread over the pass.
    n4, n3 = (2, 2) if smoke else (4, 3)
    reps = 8
    th = ("--threads", "1")
    s = case
    big = [
        Experiment("anticon_s", s, ("anticon", "--model", "H3", "--n", str(n4),
                                    "--num-j", "16" if smoke else "256", *th)),
        Experiment("anticon_s", s, ("anticon", "--model", "H1", "--n", str(n4),
                                    "--num-j", "16", *th)),
        Experiment("equilibrate_s", s, ("equilibrate", "--model", "H3", "--n", str(n4),
                                        "--num-j", "16" if smoke else "128", *th)),
        Experiment("permanent_s", s,
                   api=("gaussian_permanent_variance_check", 4 if smoke else 8,
                        1000 if smoke else 16000)),
    ]
    out = []
    for i in range(reps):
        sub = reps * case + i
        if i % 2 == 0:
            out += [
                big[(i // 2) % len(big)],
                Experiment("moments_check_s", sub, ("moments-check", "--model", "H2",
                                                    "--n", str(n4), "--draws", "1")),
                Experiment("trotter_error_s", sub, ("trotter-error", "--n", str(n3))),
                Experiment("decode_s", sub, ("worst-to-average",
                                             "--m", "3" if smoke else "7")),
            ]
        out += [
            Experiment("extract_permanent_s", sub,
                       ("extract-permanent", "--model", "H1", "--n", str(n3))),
            Experiment("decode_s", sub, ("bw-demo", "--degree", "4" if smoke else "10",
                                         "--errors", "1" if smoke else "4", "--exact")),
        ]
    # bw-demo in float mode at its defaults trips its recovery guard on
    # this code; it stays in as an attempted operation so that `failed`
    # shows the defect and a fix shows as a drop.
    out.append(Experiment("decode_s", s, ("bw-demo",)))
    return out


def plan(workload: str, seed: int, smoke: bool, nproc: int) -> Plan:
    """The experiments of one workload for one seed."""
    case = seed % N_CASES
    if workload == "sweep-n4":
        return Plan(workload, case, smoke, 1, tuple(_sweep(case, smoke)))
    if workload in ("desk-n6", "pool-n6"):
        threads = nproc if workload == "pool-n6" else 1
        return Plan(workload, case, smoke, threads, tuple(_desk(case, smoke, threads)))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
