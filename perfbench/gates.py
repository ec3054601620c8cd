"""Correctness gates: each returns None when an operation's output is
physically right, or a one-line reason when it is not.

The gates read CLI output by column and key name only, and compare against
oracles built here (expected check names, sizes, slope band, generator
products), never against a second run of the program.
"""

from __future__ import annotations

import json
import math

import numpy as np
import yaml

from workloads import SWEEP_DELTA_T

# First-order decoupling: per-cycle error ~ T_c^2.  Across 60 seeds the
# fitted slope spans 1.80-1.93 on symmetric-s3 and 1.99 on spin-flip n=6.
SLOPE_BAND = (1.6, 2.4)
# Phase-aligned distance allowed per pulse between an imported frame and the
# product of the exported generator matrices; it is the realization
# tolerance of one profile, and the errors of the pulses add along the path.
FRAME_TOL_PER_PULSE = 1e-9

GENERIC_CHECKS = ("cycle-length", "eulerian-cycle-valid", "symmetrization",
                  "projector-idempotent", "qmap-commutant-valued")
SCENARIO_CHECKS = {
    "carr-purcell": ("fault-sy-vanishes", "fault-sz-vanishes", "fault-sx-central"),
    "pauli": ("random-fault-eliminated",),
    "spin-flip": ("linear-noise-suppressed",),
    "symmetric-s3": ("two-dim-block-present", "noiseless-subsystem-clean"),
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_value(c: dict, scenario) -> str:
    name, value, tol = c.get("name"), c.get("value"), c.get("tolerance")
    if c.get("passed") is not True:
        return f"check {name} not passed (value {value!r}, tolerance {tol!r})"
    if name == "cycle-length":
        if value != scenario.cycle_length:
            return f"cycle-length {value!r} != |G|*|gens| = {scenario.cycle_length}"
    elif _is_number(tol):
        if not (_is_number(value) and math.isfinite(value) and 0 <= value <= tol):
            return f"check {name} value {value!r} outside tolerance {tol!r}"
    elif tol == "ok":
        if value != "ok":
            return f"check {name} reports {value!r}"
    elif isinstance(tol, str) and tol.startswith("d="):
        if f"({tol[2:]}," not in str(value):
            return f"check {name} has no block of dimension {tol[2:]}: {value!r}"
    return None


def check_verify(op, rc: int, stdout: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"summary is not JSON: {exc}"
    if doc.get("passed") is not True:
        return "summary passed is not true"
    checks = doc.get("checks") or []
    names = {c.get("name") for c in checks}
    missing = [n for n in GENERIC_CHECKS + SCENARIO_CHECKS.get(op.scenario.name, ())
               if n not in names]
    if missing:
        return f"missing checks {missing}"
    for c in checks:
        reason = _check_value(c, op.scenario)
        if reason:
            return reason
    return None


def check_sweep(op, rc: int, stdout: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    table = [ln for ln in lines if not ln.startswith("#")]
    if len(table) < 2:
        return "no sweep rows"
    cols = table[0].split(",")
    if "delta_t" not in cols or "distance" not in cols:
        return f"sweep header lacks delta_t or distance: {table[0]!r}"
    i_dt, i_dist = cols.index("delta_t"), cols.index("distance")
    try:
        rows = [(float(f[i_dt]), float(f[i_dist]))
                for f in (ln.split(",") for ln in table[1:])]
    except (ValueError, IndexError) as exc:
        return f"bad sweep row: {exc}"
    if sorted(dt for dt, _ in rows) != sorted(SWEEP_DELTA_T):
        return f"delta_t values {[dt for dt, _ in rows]} != {list(SWEEP_DELTA_T)}"
    rows.sort(reverse=True)
    dists = [dist for _, dist in rows]
    if not all(math.isfinite(x) and x > 0 for x in dists):
        return f"distance not positive and finite: {dists}"
    if not all(a > b for a, b in zip(dists, dists[1:])):
        return f"distance does not decrease with delta_t: {dists}"
    slopes = [ln.split(":", 1)[1] for ln in lines if ln.startswith("# slope:")]
    if len(slopes) != 1:
        return "no '# slope:' line"
    try:
        slope = float(slopes[0])
    except ValueError:
        return f"bad slope {slopes[0]!r}"
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        return f"slope {slope} outside {SLOPE_BAND}"
    return None


def check_export(op, rc: int, stdout: str) -> str:
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = yaml.safe_load(stdout)
    except yaml.YAMLError as exc:
        return f"schedule is not YAML: {exc}"
    if not isinstance(doc, dict) or doc.get("kind") != "eulerian":
        return "schedule kind is not eulerian"
    path = doc.get("path") or []
    if len(path) != op.scenario.cycle_length:
        return f"path length {len(path)} != {op.scenario.cycle_length}"
    covered = {row.get("sub_interval") for row in doc.get("timeline") or []}
    if covered != set(range(len(path))):
        return "timeline does not cover every sub-interval"
    return None


def _decode(m: dict) -> np.ndarray:
    rows, cols = m["dim"]
    return np.array([complex(re, im) for re, im in m["data"]]).reshape(rows, cols)


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def check_import(exported: str, schedule) -> str:
    doc = yaml.safe_load(exported)
    path = tuple(int(c) for c in doc["path"])
    if tuple(schedule.path.colors) != path:
        return "imported path differs from the exported path"
    gens = [_decode(g) for g in doc["generators"]]
    frames = schedule.stroboscopic_frames()
    if len(frames) != len(path) + 1:
        return f"{len(frames)} frames for a path of length {len(path)}"
    expect = np.eye(gens[0].shape[0], dtype=complex)
    worst = _phase_distance(frames[0], expect)
    for color, frame in zip(path, frames[1:]):
        expect = gens[color] @ expect
        worst = max(worst, _phase_distance(frame, expect))
    tol = FRAME_TOL_PER_PULSE * len(path)
    if worst > tol:
        return f"frames differ from the generator products by {worst:.3e}"
    if _phase_distance(frames[-1], np.eye(len(frames[-1]))) > tol:
        return "imported schedule does not close at the identity"
    return None


CLI_GATES = {"verify": check_verify, "sweep": check_sweep,
             "export-schedule": check_export}
