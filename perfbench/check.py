"""Output checks: numeric comparison against recorded references.

Outputs are compared by value at a tolerance, not by hash, so an engine
change that moves last bits still passes.  References only ever require
what they recorded: a later change may add output files, JSON keys or CSV
columns, but every recorded value must still be there and agree.
Byte identity is checked separately, between passes of one run (the
replay guarantee).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
# Ryser sums 2^m alternating terms; another summation order or kernel
# legitimately moves the result by ~1e-9 relative at m = 18.
PERMANENT_RTOL = 1e-8
# Manifest fields that must replay.  Arguments carry the thread count,
# and timestamps and git state change by design.
MANIFEST_KEYS = ("command", "seed")
# Fields whose value is dominated by amplified rounding at these sizes
# (bounds of 1e18 and more): they are checked against the program's own
# certificate |estimate - truth| <= bound instead of against a reference.
CERTIFIED = {
    "extraction.json": ("estimate", "truth", "bound"),
    "worst_to_average.json": ("estimate", "truth", "recovery_bound"),
}


def _cell(text: str):
    # Floats are written with repr, so they carry '.', 'e' or 'n' (nan,
    # inf); bit labels and integers compare as exact strings.
    if any(c in text for c in ".eEn"):
        try:
            return float(text)
        except ValueError:
            pass
    return text


def parse_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [_cell(r[i]) for r in body] for i, col in enumerate(header)}


def read_outputs(run_dir: Path) -> dict:
    """Parsed contents of every output file of a CLI run directory."""
    out = {}
    for path in sorted(run_dir.iterdir()):
        if path.suffix == ".csv":
            out[path.name] = parse_csv(path)
        elif path.suffix == ".json":
            data = json.loads(path.read_text())
            if path.name == "manifest.json":
                data = {k: data.get(k) for k in MANIFEST_KEYS}
            out[path.name] = data
    return out


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of each output file; the manifest holds a timestamp."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.name != "manifest.json"
    }


def _close(got, want, rtol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= ATOL + rtol * abs(want)


def compare(got, want, path: str, rtol: float = RTOL) -> list[str]:
    """Mismatches between an output and its reference, as messages."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        errors = []
        for key, value in want.items():
            if key not in got:
                errors.append(f"{path}/{key}: missing")
            else:
                errors += compare(got[key], value, f"{path}/{key}", rtol)
        return errors
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {len(want)} entries"]
        errors = []
        for i, (g, w) in enumerate(zip(got, want)):
            errors += compare(g, w, f"{path}[{i}]", rtol)
        return errors[:5]
    if isinstance(want, float) and not isinstance(got, bool):
        if isinstance(got, (int, float)) and _close(float(got), want, rtol):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _certify(outputs: dict) -> list[str]:
    errors = []
    for name, (estimate, truth, bound) in CERTIFIED.items():
        data = outputs.get(name)
        if data is None:
            continue
        err = abs(data[estimate] - data[truth])
        if not err <= data[bound]:
            errors.append(f"{name}: |{estimate} - {truth}| = {err!r} exceeds {bound}")
        if "rounded" in data and data["rounded"] != int(round(data[estimate])):
            errors.append(f"{name}: rounded does not match estimate")
    return errors


def check(outputs: dict, reference: dict, api: bool) -> list[str]:
    """Mismatches of one experiment's parsed outputs against its reference."""
    want = {
        name: (
            {k: v for k, v in data.items() if k not in ("estimate", "rounded")}
            if name in CERTIFIED
            else data
        )
        for name, data in reference.items()
    }
    errors = compare(outputs, want, "", PERMANENT_RTOL if api else RTOL)
    return errors + _certify(outputs)
