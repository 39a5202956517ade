"""Spans around spindyn's public functions, and the per-layer metrics.

`Tracer.install()` replaces each traced function, class or method under
every name a spindyn module holds it by (for example `spindyn.cli.moment`
and `spindyn.anticon.Propagator`), so callers reach the wrapper exactly
where they looked the original up.  `uninstall()` puts the originals back;
timed runs never install anything.

A span records its name, start, end, parent span, root experiment and
thread.  A span opened by a pool thread with nothing open on that thread
takes as parent the innermost span open on the thread that installed the
tracer, which is the ensemble call waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute, method or None)
TARGETS = (
    ("core.sample_coupling", "spindyn.core", "sample_coupling", None),
    ("core.Basis.index_of", "spindyn.core", "Basis", "index_of"),
    ("hamiltonian.apply_array", "spindyn.hamiltonian", "SparseAction", "apply_array"),
    ("hamiltonian.moment", "spindyn.hamiltonian", "moment", None),
    ("hamiltonian.dense_matrix", "spindyn.hamiltonian", "dense_matrix", None),
    ("hamiltonian.operator_norm", "spindyn.hamiltonian", "operator_norm", None),
    ("evolve.Propagator", "spindyn.evolve", "Propagator", None),
    ("evolve.all_probabilities_at", "spindyn.evolve", "Propagator", "all_probabilities_at"),
    ("permanent.permanent_ryser", "spindyn.permanent", "permanent_ryser", None),
    ("permanent.gaussian_permanent_variance_check", "spindyn.permanent",
     "gaussian_permanent_variance_check", None),
    ("polyfit.extract_coefficient", "spindyn.polyfit", "extract_coefficient", None),
    ("polyfit.robust_median_fit", "spindyn.polyfit", "robust_median_fit", None),
    ("polyfit.berlekamp_welch_recover", "spindyn.polyfit", "berlekamp_welch_recover", None),
    ("hardness.extract_permanent_from_dynamics", "spindyn.hardness",
     "extract_permanent_from_dynamics", None),
    ("hardness.worst_to_average_demo", "spindyn.hardness", "worst_to_average_demo", None),
    ("anticon.moment_statistics", "spindyn.anticon", "moment_statistics", None),
    ("anticon.equilibration_curve", "spindyn.anticon", "equilibration_curve", None),
    ("trotter.build_trotter", "spindyn.trotter", "build_trotter", None),
    ("trotter.sequence_unitary", "spindyn.trotter", "sequence_unitary", None),
    ("trotter.trotter_operator_error", "spindyn.trotter", "trotter_operator_error", None),
    ("cli.main", "spindyn.cli", "main", None),
)

ENSEMBLES = ("anticon.moment_statistics", "anticon.equilibration_curve")

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    ("evolve.Propagator.calls", "count"),
    ("evolve.Propagator.self_s", "s"),
    ("evolve.Propagator.dim_max", "count"),
    ("evolve.all_probabilities_at.self_s", "s"),
    ("evolve.draw_s.p50", "s"),
    ("evolve.draw_s.tail", "s"),
    ("evolve.draw_s.tail_pct", "%"),
    ("evolve.draw_s.count", "count"),
    ("evolve.dense_flop_computed", "flop"),
    ("hamiltonian.apply_array.calls", "count"),
    ("hamiltonian.apply_array.self_s", "s"),
    ("hamiltonian.moment.calls", "count"),
    ("hamiltonian.moment.self_s", "s"),
    ("hamiltonian.dense_matrix.calls", "count"),
    ("hamiltonian.dense_matrix.self_s", "s"),
    ("hamiltonian.operator_norm.self_s", "s"),
    ("core.sample_coupling.calls", "count"),
    ("core.sample_coupling.self_s", "s"),
    ("core.Basis.index_of.calls", "count"),
    ("core.Basis.index_of.self_s", "s"),
    ("anticon.moment_statistics.self_s", "s"),
    ("anticon.equilibration_curve.self_s", "s"),
    ("anticon.parallel_efficiency", "ratio"),
    ("permanent.permanent_ryser.calls", "count"),
    ("permanent.permanent_ryser.self_s", "s"),
    ("permanent.gaussian_permanent_variance_check.self_s", "s"),
    ("permanent.terms_computed", "count"),
    ("trotter.build_trotter.self_s", "s"),
    ("trotter.sequence_unitary.calls", "count"),
    ("trotter.sequence_unitary.self_s", "s"),
    ("trotter.trotter_operator_error.self_s", "s"),
    ("trotter.gates_applied", "count"),
    ("polyfit.extract_coefficient.self_s", "s"),
    ("polyfit.robust_median_fit.self_s", "s"),
    ("polyfit.berlekamp_welch_recover.self_s", "s"),
    ("polyfit.berlekamp_welch_recover.failed", "count"),
    ("hardness.extract_permanent_from_dynamics.self_s", "s"),
    ("hardness.worst_to_average_demo.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
)


def _attrs(name: str, args: tuple, result) -> dict:
    """Work counts a span carries, read from its arguments and result."""
    if name == "evolve.Propagator":
        return {"dim": result.basis.dimension, "dense": bool(result.dense)}
    if name == "evolve.all_probabilities_at":
        prop = args[0]
        return {"dim": prop.basis.dimension, "dense": bool(prop.dense),
                "times": len(args[1])}
    if name == "permanent.permanent_ryser":
        return {"terms": 2 ** len(args[0])}
    if name == "permanent.gaussian_permanent_variance_check":
        return {"terms": args[1] * 2 ** args[0]}
    if name == "trotter.sequence_unitary":
        return {"gates": len(args[0].gates)}
    if name == "cli.main":
        return {"exit": result}
    return {}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[dict]] = defaultdict(list)
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []
        self.tag: dict = {}

    # -- spans -------------------------------------------------------------
    def open(self, name: str, **attrs) -> dict:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks[self._home]
            parent = home[-1] if home else None
        span = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else None,
            "name": name,
            "thread": tid,
            "start": time.perf_counter(),
            **self.tag,
            **attrs,
        }
        if span["root"] is None:
            span["root"] = span["id"]
        stack.append(span)
        return span

    def close(self, span: dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stacks[span["thread"]].pop()
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            try:
                attrs = _attrs(name, args, result)
            except (LookupError, AttributeError, TypeError):
                attrs = {}  # a changed signature loses the count, not the run
            tracer.close(span, **attrs)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spindyn" or n.startswith("spindyn.")]
        # Resolve every original first: wrapping a class replaces the name
        # its methods would otherwise be looked up through.
        found = []
        for name, module, attr, method in TARGETS:
            owner = getattr(importlib.import_module(module), attr, None)
            target = owner if method is None else getattr(owner, method, None)
            if target is not None:  # a function that is gone reads zero
                found.append((name, owner, attr, method, target))
        for name, owner, attr, method, target in found:
            wrapper = self._wrap(name, target)
            if method is not None:
                self._set(owner, method, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is owner:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- metrics from spans ------------------------------------------------------
def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - _union(kids)
    return out


def draws(spans: list[dict]) -> list[tuple[int, float, float]]:
    """(ensemble id, start, end) per coupling draw.

    A draw runs on one thread from its `sample_coupling` call to the end
    of the `all_probabilities_at` that follows it.
    """
    ensembles = {s["id"] for s in spans if s["name"] in ENSEMBLES}
    per_thread = defaultdict(list)
    for s in spans:
        if s["parent"] in ensembles:
            per_thread[(s["parent"], s["thread"])].append(s)
    out = []
    for (ens, _), group in per_thread.items():
        start = None
        for s in sorted(group, key=lambda s: s["start"]):
            if s["name"] == "core.sample_coupling":
                start = s["start"]
            elif s["name"] == "evolve.all_probabilities_at" and start is not None:
                out.append((ens, start, s["end"]))
                start = None
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50..p99.9 with >= 10 samples
    beyond it, or p50 (the median) when none of them has."""
    if not values:
        return 50.0, 0.0
    values = sorted(values)
    n = len(values)
    best = (50.0, statistics.median(values))
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = (pct, values[min(n - 1, int(pct / 100 * n))])
    return best


def pass_metrics(spans: list[dict], threads: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (draw statistics excepted)."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += own[s["id"]]
    m = {}
    for name, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls[base]
        elif stat == "self_s":
            m[name] = self_s[base]

    props = [s for s in spans if s["name"] == "evolve.Propagator" and "dim" in s]
    probs = [s for s in spans if s["name"] == "evolve.all_probabilities_at" and "dim" in s]
    m["evolve.Propagator.dim_max"] = max((s["dim"] for s in props), default=0)
    # Flop model: symmetric eigendecomposition with vectors ~ 9 d^3
    # (Golub & Van Loan); the amplitudes are a real d x d times complex
    # d x T product, 4 d^2 T.
    m["evolve.dense_flop_computed"] = float(
        sum(9 * s["dim"] ** 3 for s in props if s["dense"])
        + sum(4 * s["dim"] ** 2 * s["times"] for s in probs if s["dense"])
    )
    m["permanent.terms_computed"] = sum(s.get("terms", 0) for s in spans)
    m["trotter.gates_applied"] = sum(s.get("gates", 0) for s in spans)

    by_id = {s["id"]: s for s in spans}
    failed_mains = {s["id"] for s in spans if s["name"] == "cli.main"
                    and (s.get("exit") != 0 or "error" in s)}

    def under_failed(s: dict) -> bool:
        while s is not None:
            if s["id"] in failed_mains:
                return True
            s = by_id.get(s["parent"])
        return False

    m["polyfit.berlekamp_welch_recover.failed"] = sum(
        1 for s in spans if s["name"] == "polyfit.berlekamp_welch_recover"
        and ("error" in s or under_failed(s))
    )

    busy = sum(b - a for _, a, b in draws(spans))
    walls = sum((s["end"] - s["start"]) * threads for s in spans if s["name"] in ENSEMBLES)
    m["anticon.parallel_efficiency"] = busy / walls if walls else 0.0
    m["cli.output_bytes"] = output_bytes
    m["trace.spans"] = len(spans)
    return m
