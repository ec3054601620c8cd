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
from .pulses import (GridMismatchError, RealizationError, SegmentError,
                     check_amplitudes, checked_delta_t, constant_profile,
                     fault_segments, piecewise_profile)


# libyaml's C loader and dumper when PyYAML was built with it; they parse and
# emit the same documents as the pure-Python SafeLoader and SafeDumper.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    """Invalid or out-of-range run configuration."""


class _UniqueKeyLoader(_LOADER):
    """``_LOADER`` that refuses a mapping key equal to an earlier key of the
    same mapping (``cycles`` twice, or ``0`` and ``0.0``): a plain loader
    keeps the last one silently."""

    def construct_mapping(self, node, deep=False):
        seen = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                first = seen.setdefault(key, key_node)
            except TypeError:   # unhashable: refused by construct_mapping
                continue
            if first is not key_node:
                raise ConfigError(
                    f"line {key_node.start_mark.line + 1}: key {key!r} repeats "
                    f"the key {self.construct_object(first)!r} of line "
                    f"{first.start_mark.line + 1} in the same mapping")
        return super().construct_mapping(node, deep=deep)


def _load(stream):
    """The YAML document in ``stream``, every mapping key given once; text
    that is not YAML is a ConfigError naming the line of the fault."""
    try:
        return yaml.load(stream, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"not valid YAML: {where}{problem}") from exc


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
    delta_t: tuple = None   # sub-interval lengths; None when none is given
    cycles: int = 10
    seed: int = 0
    trials: int = 20
    env_dim: int = 2
    out: str = None

    def validate(self) -> None:
        if self.n_qubits is not None and self.n_qubits < 1:
            raise ConfigError("n_qubits must be >= 1")
        if self.env_dim < 1:
            raise ConfigError("env_dim must be >= 1")
        dts = self.delta_t
        if dts is not None and not (dts and all(0 < d < math.inf for d in dts)):
            raise ConfigError(f"delta_t must be finite values > 0, got {dts}")
        if dts is not None and len(set(dts)) != len(dts):
            raise ConfigError(f"delta_t values must be distinct, got {dts}")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# type of each scalar override; a value of another type is a ConfigError
# here rather than a TypeError, or a silent truncation, later on
_OVERRIDE_TYPES = {"cycles": int, "seed": int, "trials": int, "env_dim": int,
                   "n_qubits": int}
# the overrides each command reads, besides seed and n_qubits, which every
# command takes (export-schedule writes the same schedule for every seed)
_COMMAND_OVERRIDES = {"verify": ("trials",),
                      "sweep": ("delta_t", "cycles", "env_dim"),
                      "export-schedule": ("delta_t",)}


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


def _known(doc: dict, where: str, keys) -> None:
    """A ConfigError naming the key path of the first key of ``doc`` that is
    not in ``keys``: a misspelt key would otherwise change nothing."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{_path(where, str(key))} is not a known key; "
                              f"known: {', '.join(keys)}")


def _field(doc: dict, where: str, key: str, read):
    """``read(path, doc[key])`` with ``path = _path(where, key)``; a missing
    key is a ConfigError naming that path."""
    path = _path(where, key)
    if key not in doc:
        raise ConfigError(f"{path} is missing")
    return read(path, doc[key])


def load_config(path: str, command: str = None) -> RunConfig:
    """The run configuration in the YAML file ``path``; a file that cannot
    be read is a ConfigError naming the path.  For a ``command`` of
    ``_COMMAND_OVERRIDES``, an override that the command does not read is a
    ConfigError naming the key and the command."""
    try:
        with open(path) as fh:
            doc = _load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _known(doc, "", ("scenario", "overrides", "out"))
    cfg = RunConfig()
    sc = doc.get("scenario")
    if isinstance(sc, dict):
        cfg.inline = sc
    elif sc is not None:
        cfg.scenario = str(sc)
    over = doc.get("overrides") or {}
    if not isinstance(over, dict):
        raise ConfigError("overrides must be a mapping")
    if "delta_t_list" in over:
        raise ConfigError("override delta_t_list is not read; give delta_t a list")
    _known(over, "overrides", (*_OVERRIDE_TYPES, "delta_t"))
    for key, kind in _OVERRIDE_TYPES.items():
        if key in over:
            setattr(cfg, key, _typed(f"override {key}", over[key], kind))
    if "delta_t" in over:
        dts = over["delta_t"]
        cfg.delta_t = tuple(_number("override delta_t", v)
                            for v in (dts if isinstance(dts, list) else [dts]))
    if command is not None:
        reads = ("seed", "n_qubits", *_COMMAND_OVERRIDES[command])
        for key in over:
            if key not in reads:
                raise ConfigError(f"override {key} is not read by {command}; "
                                  f"it reads {', '.join(reads)}")
    if "out" in doc:
        if not isinstance(doc["out"], str):
            raise ConfigError(f"out must be a file path, got {doc['out']!r}")
        cfg.out = doc["out"]
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


def _segments(doc: dict, key, where: str) -> list:
    """The (fraction, rate) pairs of the ``{fraction, rate}`` entries of
    the list ``doc[key]``, at key path ``where.key``; the segment rule is
    checked by what the pairs build."""
    segs = []
    for j, seg in enumerate(_entries(doc, key, where=where)):
        at = f"{_path(where, key)}[{j}]"
        _known(seg, at, ("fraction", "rate"))
        segs.append((_field(seg, at, "fraction", _number),
                     _field(seg, at, "rate", _matrix)))
    return segs


def _profile_from_doc(gen: int, rep, doc: dict, where: str):
    """The profile of an inline ``profiles`` entry, in angle rates h * delta_t."""
    if "units" in doc:
        raise ConfigError(f"{where}.units is not read: segment rates are "
                          f"angle rates h * delta_t")
    _known(doc, where, ("axis", "segments"))
    if "axis" in doc and "segments" in doc:
        raise ConfigError(f"{where} has both 'axis' and 'segments'; give one")
    if "axis" in doc:
        key, build, value = ("axis", constant_profile,
                             _field(doc, where, "axis", _matrix))
    elif "segments" in doc:
        key, build = "segments", piecewise_profile
        value = _segments(doc, "segments", where)
    else:
        raise ConfigError(f"{where} needs an 'axis' or 'segments' entry")
    try:
        return build(gen, rep, value)
    except SegmentError as exc:
        raise ConfigError(f"{where}.segments{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


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
    if cfg.n_qubits is not None:
        raise ConfigError("override n_qubits only sizes a built-in scenario")
    doc = cfg.inline
    _known(doc, "scenario", ("name", "generators", "profiles", "path",
                             "noise_generators"))
    if "generators" not in doc:
        raise ConfigError("inline scenario needs 'generators'")
    noise = []
    for i, nd in enumerate(_entries(doc, "noise_generators")):
        _known(nd, f"noise_generators[{i}]", ("name", "matrix"))
        name = nd.get("name", f"s{i}")
        if not isinstance(name, str):
            raise ConfigError(f"noise_generators[{i}].name must be a string, "
                              f"got {name!r}")
        noise.append((name, _field(nd, f"noise_generators[{i}]", "matrix", _matrix)))
    if not isinstance(doc.get("name", ""), str):
        raise ConfigError(f"scenario.name must be a string, got {doc['name']!r}")
    return _build(
        "inline scenario",
        doc.get("name", "custom"),
        "inline scenario",
        0,
        _generators(doc),
        [partial(_profile_from_doc, doc=pdoc, where=f"profiles[{i}]")
         for i, pdoc in enumerate(_entries(doc, "profiles"))],
        path_colors=_entries(doc, "path", int) if "path" in doc else None,
        noise_generators=noise)


def fault_from_doc(doc: dict, rep) -> dict:
    """The fault of a ``faults`` document for ``rep``: a mapping from each
    generator color of ``rep`` to its list of ``{fraction, rate}`` segments
    (rates in 1/delta_t units), held by ``pulses.fault_segments`` to d =
    ``rep.dimension`` and to the colors 0..|Γ|-1.  A malformed document, a
    list that breaks the segment rule or another color is a ConfigError
    naming its key path."""
    if not isinstance(doc, dict):
        raise ConfigError("faults must be a mapping")
    deltas = {_integer("faults key", key): _segments(doc, key, "faults")
              for key in doc}
    colors = range(len(rep.group.generators))
    try:
        return fault_segments(deltas, rep.dimension, colors, "faults.{}")
    except SegmentError as exc:
        raise ConfigError(str(exc)) from exc
    except GridMismatchError as exc:
        raise ConfigError(f"faults.{exc.color} is not a generator color: the "
                          f"colors are 0..{len(colors) - 1}") from exc


def export_schedule(scenario: analysis.Scenario, delta_t: float) -> str:
    """Segment-by-segment timeline of the Eulerian schedule at ``delta_t``,
    as YAML text."""
    delta_t = checked_delta_t(delta_t)
    sched = scenario.schedule()
    if not math.isfinite(sched.sub_intervals * delta_t):
        raise ValueError(f"delta_t {delta_t!r} is too large: the cycle time "
                         f"{sched.sub_intervals} x delta_t is not finite")
    check_amplitudes(sched, delta_t)
    ham_docs = {}
    ham_ids = []

    def ham_id(m: np.ndarray) -> str:
        for hid, stored in ham_ids:
            # absolute only: numpy's default rtol would merge directions
            # about 1e-5 apart
            if stored.shape == m.shape and np.allclose(stored, m, rtol=0.0,
                                                       atol=1e-14):
                return hid
        hid = f"h{len(ham_ids)}"
        ham_ids.append((hid, m))
        ham_docs[hid] = encode_matrix(m)
        return hid

    def profile_rows(profile) -> list:
        """(duration, hamiltonian id, amplitude) of each segment."""
        out = []
        for frac, rate in profile.segments:
            amp = float(np.linalg.norm(rate)) / delta_t
            unit = rate / np.linalg.norm(rate) if amp > 0 else rate
            out.append((frac * delta_t, ham_id(unit), amp))
        return out

    # a profile's rows are the same in every step that pulses it: built at
    # its first step, so ids still number the Hamiltonians in time order
    rows = {}
    timeline = []
    t = 0.0
    for ell, step in enumerate(sched.steps):
        if step.profile not in rows:
            rows[step.profile] = profile_rows(step.profile)
        for duration, hid, amp in rows[step.profile]:
            timeline.append({
                "start": float(t),
                "duration": float(duration),
                "sub_interval": ell,
                "color": int(step.color),
                "hamiltonian": hid,
                "amplitude": amp,
            })
            t += duration
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
    """Rebuild a ControlSchedule from exported YAML text; the file's
    ``delta_t`` turns the rows into (fraction, angle rate) segments."""
    doc = _load(text)
    if not isinstance(doc, dict):
        raise ConfigError("schedule file must be a mapping")
    _known(doc, "", ("kind", "delta_t", "generators", "path", "hamiltonians",
                     "timeline"))
    if doc.get("kind") != "eulerian":
        raise ConfigError("only eulerian schedules are exportable")
    missing = [key for key in ("delta_t", "generators", "path", "hamiltonians",
                               "timeline") if key not in doc]
    if missing:
        raise ConfigError(f"schedule file has no {', '.join(missing)}")
    delta_t = _number("delta_t", doc["delta_t"])
    if delta_t <= 0:
        raise ConfigError(f"delta_t must be > 0, got {delta_t!r}")
    if not isinstance(doc["hamiltonians"], dict):
        raise ConfigError("hamiltonians must be a mapping")
    hams = {hid: _matrix(f"hamiltonians.{hid}", m)
            for hid, m in doc["hamiltonians"].items()}

    def hamiltonian(path, hid):
        if not isinstance(hid, str) or hid not in hams:
            raise ConfigError(f"{path} names no entry of hamiltonians: {hid!r}")
        return hid

    # (k, sub_interval, color, (duration, amplitude, hamiltonian)) per row
    rows, starts = [], []
    for k, row in enumerate(_entries(doc, "timeline")):
        at = f"timeline[{k}]"
        _known(row, at, ("start", "duration", "sub_interval", "color",
                         "hamiltonian", "amplitude"))
        starts.append(_field(row, at, "start", _number))
        rows.append((k, _field(row, at, "sub_interval", _integer),
                     _field(row, at, "color", _integer),
                     (_field(row, at, "duration", _number),
                      _field(row, at, "amplitude", _number),
                      _field(row, at, "hamiltonian", hamiltonian))))
    # one profile per color, read from the rows of its first sub-interval
    first, segments = {}, {}
    for k, ell, color, (dur, amp, hid) in rows:
        if first.setdefault(color, ell) == ell:
            segments.setdefault(color, []).append(
                (k, (dur / delta_t, amp * delta_t * hams[hid])))

    def profile(color, generator, rep):
        """The profile of ``color``; a refusal by the segment rule names
        the row of the offending segment, a profile that does not realize
        the generator the color's first row."""
        ks, segs = zip(*segments[color])
        try:
            return piecewise_profile(generator, rep, segs)
        except SegmentError as exc:
            raise ConfigError(f"timeline[{ks[exc.index]}]: color {color} "
                              f"segment {exc}") from exc
        except RealizationError as exc:
            raise ConfigError(f"timeline[{ks[0]}]: color {color} {exc}") from exc

    scenario = _build(
        "schedule file", "imported", "imported schedule", 0,
        _generators(doc), [partial(profile, c) for c in sorted(segments)],
        path_colors=_entries(doc, "path", int))
    _check_timeline(rows, scenario.path.colors)
    # each start is where the durations before it end, up to rounding
    t, tol = 0.0, 1e-12 * len(scenario.path) * delta_t
    for (k, _, _, (dur, _, _)), start in zip(rows, starts):
        if abs(start - t) > tol:
            raise ConfigError(f"timeline[{k}].start is {start!r}, but the "
                              f"durations before it sum to {t!r}")
        t += dur
    return scenario.schedule()


def _check_timeline(rows, path) -> None:
    """Refuse timeline ``rows`` (as ``import_schedule`` reads them) that
    disagree with ``path``: rows must run through sub-intervals 0..L-1 in
    order, each row's color must be ``path[l]``, and each later sub-interval
    of a color must repeat the (duration, amplitude, hamiltonian) rows of
    its first, as ``export_schedule`` writes them.  The ConfigError names
    the first offending row."""
    subs = []   # (l, [(k, segment row), ...]) in time order
    for k, ell, color, seg in rows:
        at = f"timeline[{k}]"
        last = len(subs) - 1
        if ell not in (last, last + 1) or not 0 <= ell < len(path):
            raise ConfigError(f"{at}.sub_interval is {ell}; rows must run "
                              f"through sub-intervals 0..{len(path) - 1} in order")
        if ell > last:
            subs.append((ell, []))
        if color != path[ell]:
            raise ConfigError(f"{at}.color is {color}, but path[{ell}] is {path[ell]}")
        subs[-1][1].append((k, seg))
    if len(subs) < len(path):
        raise ConfigError(f"timeline[{len(rows)}] is missing: sub-interval "
                          f"{len(subs)} has no rows")
    first = {}
    for ell, segs in subs:
        ref = first.setdefault(path[ell], segs)
        if [seg for _, seg in segs] != [seg for _, seg in ref]:
            k = next((k for (k, seg), (_, want) in zip(segs, ref) if seg != want),
                     segs[-1][0])
            raise ConfigError(f"timeline[{k}] does not repeat the rows of color "
                              f"{path[ell]} from timeline[{ref[0][0]}]")
