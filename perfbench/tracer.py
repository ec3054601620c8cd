"""Span tracer for the traced run.

Wraps named public functions of eulerdd at every module binding that
refers to them (``analysis`` and ``cli`` hold their own references to
``commutant_basis``, ``pi_G``, ``q_map`` and others), and records one span
per call while recording is on.  Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions to wrap
LAYERS = {
    "group_theory": ("close_group", "commutant_basis", "center_basis",
                     "decompose_irreps", "pi_G"),
    "cayley": ("build_cayley", "eulerian_cycle", "validate_path"),
    "pulses": ("constant_profile", "piecewise_profile", "eulerian_schedule"),
    "dynamics": ("average_hamiltonian", "simulate_cycles", "q_map",
                 "residual_error", "decoupling_distance"),
    "analysis": ("get_scenario", "verify_theorem", "robustness_report",
                 "noise_suppression_check", "scaling_study"),
    "io": ("scenario_from_config", "export_schedule", "import_schedule"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
PACKAGE = "eulerdd"


class Tracer:
    """Spans are ``[id, parent_id, name, start, end, op]``; ``op`` is the
    index of the operation that caused the span, shared by all its spans."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self.op = -1
        self.bindings = {}          # function -> module attributes rebound
        self.observers = {}         # function -> callable(args, result)
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for name in FUNCTIONS:
            layer, fn_name = name.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{layer}")
            fn = getattr(owner, fn_name, None)
            self.bindings[name] = 0
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
                        self.bindings[name] += 1

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, name,
                    perf_counter(), 0.0, self.op]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            observe = self.observers.get(name)
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # sizes are left out, the operation still counts
            return result

        return traced


def summarize(spans, focus=()) -> dict:
    """Per-layer metrics of one pass's spans.

    ``<fn>.s`` is busy time including child spans, counted once when a
    function is nested inside itself; ``<fn>.calls`` counts every call;
    ``<module>.self_s`` is the module's span time minus the time its direct
    child spans cover.  ``focus_s`` is the time covered by the spans named
    in ``focus``, each instant counted once.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_time[s[1]] += s[4] - s[3]

    def has_ancestor(s, names):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    out = {f"{name}.{kind}": 0.0 for name in FUNCTIONS for kind in ("s", "calls")}
    out.update({f"{mod}.self_s": 0.0 for mod in LAYERS})
    out["focus_s"] = 0.0
    for s in spans:
        name, dur = s[2], s[4] - s[3]
        out[f"{name}.calls"] += 1
        if not has_ancestor(s, (name,)):
            out[f"{name}.s"] += dur
        out[f"{name.split('.')[0]}.self_s"] += dur - child_time[s[0]]
        if name in focus and not has_ancestor(s, focus):
            out["focus_s"] += dur
    for name in FUNCTIONS:
        out[f"{name}.calls"] = int(out[f"{name}.calls"])
    return out
