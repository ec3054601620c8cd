"""Serialization: matrices, run configuration, and schedule export/import.

One YAML-based, human-editable format is used everywhere.  Complex matrices
are stored row-major as lists of [re, im] pairs in decimal text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import analysis, group_theory
from .cayley import EulerPath, build_cayley, validate_path, walk
from .dynamics import DriftModel
from .pulses import FaultModel, constant_profile, eulerian_schedule, piecewise_profile


# libyaml's C loader and dumper when PyYAML was built with it; they parse and
# emit the same documents as the pure-Python SafeLoader and SafeDumper.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Invalid or out-of-range run configuration."""


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": list(m.shape),
        "data": [[float(x.real), float(x.imag)] for x in m.ravel()],
    }


def decode_matrix(doc: dict) -> np.ndarray:
    try:
        rows, cols = doc["dim"]
        flat = np.array([complex(re, im) for re, im in doc["data"]])
        return flat.reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix document: {exc}") from exc


@dataclass
class RunConfig:
    scenario: str = None
    inline: dict = None
    n_qubits: int = None
    delta_t: float = 0.01
    delta_t_list: list = None
    cycles: int = 10
    seed: int = 0
    trials: int = 20
    env_dim: int = 2
    out: str = None
    as_json: bool = False
    verbosity: int = 1
    faults: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.n_qubits is not None and self.n_qubits < 1:
            raise ConfigError("n_qubits must be >= 1")
        if self.env_dim < 1:
            raise ConfigError("env_dim must be >= 1")
        if self.delta_t is not None and self.delta_t <= 0:
            raise ConfigError("delta_t must be > 0")
        if self.delta_t_list is not None and any(d <= 0 for d in self.delta_t_list):
            raise ConfigError("all delta_t values must be > 0")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


# type of each scalar override; a value of another type is a ConfigError
# here rather than a TypeError, or a silent truncation, later on
_OVERRIDE_TYPES = {"delta_t": float, "cycles": int, "seed": int, "trials": int,
                   "env_dim": int, "verbosity": int, "n_qubits": int}


def _typed(key: str, value, kind):
    """``value`` as ``kind``: a finite number (not a bool), whole for an int."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and kind(value) == value):
        return kind(value)
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"override {key} must be {what}, got {value!r}")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        doc = yaml.load(fh, Loader=_LOADER) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    cfg = RunConfig()
    sc = doc.get("scenario")
    if isinstance(sc, dict):
        cfg.inline = sc
    elif sc is not None:
        cfg.scenario = str(sc)
    over = doc.get("overrides") or {}
    if not isinstance(over, dict):
        raise ConfigError("overrides must be a mapping")
    for key, kind in _OVERRIDE_TYPES.items():
        if key in over:
            setattr(cfg, key, _typed(key, over[key], kind))
    if "delta_t_list" in over:
        values = over["delta_t_list"]
        if not isinstance(values, list):
            raise ConfigError("override delta_t_list must be a list")
        cfg.delta_t_list = [_typed("delta_t_list", v, float) for v in values]
    if "out" in doc:
        cfg.out = str(doc["out"])
    if "faults" in doc:
        cfg.faults = doc["faults"]
    cfg.validate()
    return cfg


def _profile_from_doc(color: int, rep, group, doc: dict, delta_t: float):
    units = doc.get("units", "per_delta_t")
    if units not in ("per_delta_t", "absolute"):
        raise ConfigError("units must be 'per_delta_t' or 'absolute'")
    scale = delta_t if units == "absolute" else 1.0
    gen = group.generators[color]
    if "axis" in doc:
        return constant_profile(gen, rep, decode_matrix(doc["axis"]))
    if "segments" in doc:
        segs = [(float(s["fraction"]), scale * decode_matrix(s["rate"]))
                for s in doc["segments"]]
        return piecewise_profile(gen, rep, segs)
    raise ConfigError("profile needs an 'axis' or 'segments' entry")


def scenario_from_config(cfg: RunConfig) -> analysis.Scenario:
    """Resolve the built-in scenario by name, or build one inline."""
    if cfg.inline is None:
        if cfg.scenario is None:
            raise ConfigError("no scenario given")
        return analysis.get_scenario(cfg.scenario, cfg.n_qubits)
    doc = cfg.inline
    try:
        gen_mats = [decode_matrix(g) for g in doc["generators"]]
    except KeyError as exc:
        raise ConfigError("inline scenario needs 'generators'") from exc
    group, rep = group_theory.close_group(gen_mats)
    graph = build_cayley(group)
    if "path" in doc:
        colors = tuple(int(c) for c in doc["path"])
        ok, diag = validate_path(graph, colors)
        if not ok:
            raise ConfigError(f"invalid path: {diag}")
        path = EulerPath(colors=colors, vertices=tuple(walk(graph, colors)))
    else:
        from .cayley import eulerian_cycle
        path = eulerian_cycle(graph)
    profiles = {}
    for color, pdoc in enumerate(doc.get("profiles", [])):
        profiles[color] = _profile_from_doc(color, rep, group, pdoc, cfg.delta_t)
    missing = [c for c in range(len(group.generators)) if c not in profiles]
    if missing:
        raise ConfigError(f"inline scenario has no profile for generator color(s) {missing}")
    noise = tuple((nd.get("name", f"s{i}"), decode_matrix(nd["matrix"]))
                  for i, nd in enumerate(doc.get("noise_generators", [])))
    return analysis.Scenario(
        name=str(doc.get("name", "custom")),
        description=str(doc.get("description", "inline scenario")),
        n_qubits=int(doc.get("n_qubits", 0)),
        group=group, rep=rep, graph=graph, path=path, profiles=profiles,
        noise_generators=noise,
        expected_cycle_length=group.order * len(group.generators),
        default_delta_t=cfg.delta_t,
    )


def drift_from_doc(doc: dict) -> DriftModel:
    H_S = decode_matrix(doc["H_S"])
    H_E = decode_matrix(doc["H_E"]) if "H_E" in doc else np.zeros((1, 1))
    couplings = tuple((decode_matrix(c["S"]), decode_matrix(c["E"]))
                      for c in doc.get("couplings", []))
    drift = DriftModel(H_S=H_S, H_E=H_E, couplings=couplings)
    drift.validate()
    return drift


def fault_from_doc(doc: dict, rep=None) -> FaultModel:
    deltas = {}
    for color, segs in doc.items():
        deltas[int(color)] = [(float(s["fraction"]), decode_matrix(s["rate"]))
                              for s in segs]
    from .pulses import _in_algebra
    in_alg = rep is not None and all(_in_algebra(s, rep) for s in deltas.values())
    fault = FaultModel(deltas=deltas, in_algebra=in_alg)
    fault.validate()
    return fault


def export_schedule(scenario: analysis.Scenario, delta_t: float) -> str:
    """Segment-by-segment timeline of the Eulerian schedule as YAML text."""
    sched = scenario.schedule(delta_t)
    ham_docs = {}
    ham_ids = []

    def ham_id(m: np.ndarray) -> str:
        for hid, stored in ham_ids:
            if stored.shape == m.shape and np.allclose(stored, m, atol=1e-14):
                return hid
        hid = f"h{len(ham_ids)}"
        ham_ids.append((hid, m))
        ham_docs[hid] = encode_matrix(m)
        return hid

    timeline = []
    t = 0.0
    for ell, color in enumerate(sched.path.colors):
        for frac, rate in sched.profiles[color].segments:
            amp = float(np.linalg.norm(rate)) / delta_t
            unit = rate / np.linalg.norm(rate) if amp > 0 else rate
            timeline.append({
                "start": float(t),
                "duration": float(frac * delta_t),
                "sub_interval": ell,
                "color": int(color),
                "hamiltonian": ham_id(unit),
                "amplitude": amp,
            })
            t += frac * delta_t
    doc = {
        "kind": "eulerian",
        "delta_t": float(delta_t),
        "generators": [encode_matrix(scenario.rep.matrices[g])
                       for g in scenario.group.generators],
        "path": [int(c) for c in sched.path.colors],
        "hamiltonians": ham_docs,
        "timeline": timeline,
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=True)


def import_schedule(text: str):
    """Rebuild a ControlSchedule from exported YAML text."""
    doc = yaml.load(text, Loader=_LOADER)
    if doc.get("kind") != "eulerian":
        raise ConfigError("only eulerian schedules are exportable")
    delta_t = float(doc["delta_t"])
    gen_mats = [decode_matrix(g) for g in doc["generators"]]
    group, rep = group_theory.close_group(gen_mats)
    graph = build_cayley(group)
    colors = tuple(int(c) for c in doc["path"])
    ok, diag = validate_path(graph, colors)
    if not ok:
        raise ConfigError(f"invalid path in schedule file: {diag}")
    path = EulerPath(colors=colors, vertices=tuple(walk(graph, colors)))
    hams = {hid: decode_matrix(m) for hid, m in doc["hamiltonians"].items()}
    # reconstruct one profile per color from its first sub-interval
    seen = {}
    for row in doc["timeline"]:
        seen.setdefault(row["sub_interval"], []).append(row)
    profiles = {}
    for ell, rows in sorted(seen.items()):
        color = rows[0]["color"]
        if color in profiles:
            continue
        segs = [(row["duration"] / delta_t,
                 row["amplitude"] * delta_t * hams[row["hamiltonian"]])
                for row in rows]
        profiles[color] = piecewise_profile(group.generators[color], rep, segs)
    return eulerian_schedule(path, profiles, delta_t, rep)
