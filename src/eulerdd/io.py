"""Serialization: matrices, run configuration, and schedule export/import.

One YAML-based, human-editable format is used everywhere.  Complex matrices
are stored row-major as lists of [re, im] pairs in decimal text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

from . import analysis
from .group_theory import is_hermitian
from .pulses import (FaultModel, GridMismatchError, _in_algebra,
                     constant_profile, piecewise_profile)


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
                   "env_dim": int, "n_qubits": int}


def _typed(label: str, value, kind):
    """``value`` as ``kind``: a finite number (not a bool), whole for an int;
    otherwise a ConfigError naming ``label``."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and kind(value) == value):
        return kind(value)
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{label} must be {what}, got {value!r}")


def _matrix(label: str, doc) -> np.ndarray:
    """``decode_matrix(doc)``; its ConfigError names ``label``."""
    try:
        return decode_matrix(doc)
    except ConfigError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


_number = partial(_typed, kind=float)
_integer = partial(_typed, kind=int)


def _path(where: str, key: str) -> str:
    """Key path of ``key`` inside the entry at path ``where`` ("" at the top)."""
    return f"{where}.{key}" if where else key


def _field(doc: dict, where: str, key: str, read):
    """``read(path, doc[key])`` with ``path = _path(where, key)``; a missing
    key is a ConfigError naming that path."""
    path = _path(where, key)
    if key not in doc:
        raise ConfigError(f"{path} is missing")
    return read(path, doc[key])


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
            setattr(cfg, key, _typed(f"override {key}", over[key], kind))
    if "delta_t_list" in over:
        values = over["delta_t_list"]
        if not isinstance(values, list):
            raise ConfigError("override delta_t_list must be a list")
        cfg.delta_t_list = [_number("override delta_t_list", v) for v in values]
    if "out" in doc:
        cfg.out = str(doc["out"])
    cfg.validate()
    return cfg


def _entries(doc: dict, key: str, kind=dict, where: str = "") -> list:
    """``doc[key]`` (empty if absent) as a list of ``kind`` values; the
    ConfigError names the key path ``where.key``."""
    value = doc.get(key, [])
    if (not isinstance(value, list)
            or not all(isinstance(v, kind) and not isinstance(v, bool)
                       for v in value)):
        what = "mappings" if kind is dict else "integers"
        raise ConfigError(f"{_path(where, key)} must be a list of {what}")
    return value


def _profile_from_doc(gen: int, rep, doc: dict, delta_t: float, where: str):
    units = doc.get("units", "per_delta_t")
    if units not in ("per_delta_t", "absolute"):
        raise ConfigError(f"{where}.units must be 'per_delta_t' or 'absolute'")
    scale = delta_t if units == "absolute" else 1.0
    if "axis" in doc:
        return constant_profile(gen, rep, _field(doc, where, "axis", _matrix))
    if "segments" in doc:
        segs = []
        for j, seg in enumerate(_entries(doc, "segments", where=where)):
            at = f"{where}.segments[{j}]"
            segs.append((_field(seg, at, "fraction", _number),
                         scale * _field(seg, at, "rate", _matrix)))
        return piecewise_profile(gen, rep, segs)
    raise ConfigError(f"{where} needs an 'axis' or 'segments' entry")


def _generators(doc: dict) -> list:
    """The generator matrices of a scenario or schedule document."""
    return [_matrix(f"generators[{i}]", g)
            for i, g in enumerate(_entries(doc, "generators"))]


def _build(where: str, *args, **kwargs) -> analysis.Scenario:
    """``analysis.scenario_from_generators``, its refusals as ConfigError."""
    try:
        return analysis.scenario_from_generators(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_config(cfg: RunConfig) -> analysis.Scenario:
    """Resolve the built-in scenario by name, or build one inline."""
    if cfg.inline is None:
        if cfg.scenario is None:
            raise ConfigError("no scenario given")
        return analysis.get_scenario(cfg.scenario, cfg.n_qubits)
    doc = cfg.inline
    if "generators" not in doc:
        raise ConfigError("inline scenario needs 'generators'")
    noise = tuple((nd.get("name", f"s{i}"),
                   _field(nd, f"noise_generators[{i}]", "matrix", _matrix))
                  for i, nd in enumerate(_entries(doc, "noise_generators")))
    return _build(
        "inline scenario",
        str(doc.get("name", "custom")),
        str(doc.get("description", "inline scenario")),
        _integer("n_qubits", doc.get("n_qubits", 0)),
        _generators(doc),
        [partial(_profile_from_doc, doc=pdoc, delta_t=cfg.delta_t,
                 where=f"profiles[{i}]")
         for i, pdoc in enumerate(_entries(doc, "profiles"))],
        path_colors=_entries(doc, "path", int) if "path" in doc else None,
        noise_generators=noise)


def fault_from_doc(doc: dict, rep=None) -> FaultModel:
    """The FaultModel of a ``faults`` document: a mapping from each color to
    its list of segments, each a mapping with a positive ``fraction`` and a
    Hermitian ``rate`` matrix (1/delta_t units, d x d for ``rep``).  A
    malformed document is a ConfigError naming its key path."""
    if not isinstance(doc, dict):
        raise ConfigError("faults must be a mapping")
    deltas = {}
    for key in doc:
        color = _integer("faults key", key)
        where = f"faults.{color}"
        segs = []
        for j, seg in enumerate(_entries(doc, key, where="faults")):
            at = f"{where}[{j}]"
            frac = _field(seg, at, "fraction", _number)
            rate = _field(seg, at, "rate", _matrix)
            if frac <= 0.0:
                raise ConfigError(f"{at}.fraction must be > 0, got {frac}")
            d = rep.dimension if rep is not None else rate.shape[0]
            if rate.shape != (d, d) or not is_hermitian(rate):
                raise ConfigError(f"{at}.rate must be a Hermitian {d} x {d} matrix")
            segs.append((frac, rate))
        try:
            FaultModel(deltas={color: segs}).validate()
        except GridMismatchError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        deltas[color] = segs
    in_alg = rep is not None and all(_in_algebra(s, rep) for s in deltas.values())
    return FaultModel(deltas=deltas, in_algebra=in_alg)


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
    if not isinstance(doc, dict):
        raise ConfigError("schedule file must be a mapping")
    if doc.get("kind") != "eulerian":
        raise ConfigError("only eulerian schedules are exportable")
    missing = [key for key in ("delta_t", "generators", "path", "hamiltonians",
                               "timeline") if key not in doc]
    if missing:
        raise ConfigError(f"schedule file has no {', '.join(missing)}")
    delta_t = _number("delta_t", doc["delta_t"])
    if not isinstance(doc["hamiltonians"], dict):
        raise ConfigError("hamiltonians must be a mapping")
    hams = {hid: _matrix(f"hamiltonians.{hid}", m)
            for hid, m in doc["hamiltonians"].items()}

    def hamiltonian(path, hid):
        if not isinstance(hid, str) or hid not in hams:
            raise ConfigError(f"{path} names no entry of hamiltonians: {hid!r}")
        return hams[hid]

    # one profile per color, read from its first sub-interval
    rows_of = {}
    for k, row in enumerate(_entries(doc, "timeline")):
        at = f"timeline[{k}]"
        rows_of.setdefault(_field(row, at, "sub_interval", _integer), []).append(
            (_field(row, at, "color", _integer),
             _field(row, at, "duration", _number) / delta_t,
             _field(row, at, "amplitude", _number) * delta_t
             * _field(row, at, "hamiltonian", hamiltonian)))
    segments = {}
    for _, rows in sorted(rows_of.items()):
        color = rows[0][0]
        if color not in segments:
            segments[color] = [(frac, rate) for _, frac, rate in rows]
    scenario = _build(
        "schedule file", "imported", "imported schedule", 0,
        _generators(doc),
        [partial(piecewise_profile, segments=segments[c])
         for c in sorted(segments)],
        path_colors=_entries(doc, "path", int))
    return scenario.schedule(delta_t)
