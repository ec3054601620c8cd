"""Self-test of the benchmark's correctness gates and failure accounting.

    python3 perfbench/selftest.py

Feeds the gates good and deliberately corrupted operation outputs, and runs
one pass of a workload whose CLI returns a corrupted sweep, to show that a
wrong output counts as a failed operation rather than a pass.  Needs numpy
and PyYAML; the failure-accounting case also imports eulerdd from src/.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
from workloads import CARR_PURCELL, SPIN_FLIP_6, Op, Workload  # noqa: E402

SWEEP_OK = """delta_t,cycle_time,cycles,distance,quad_error
0.02,0.16,10,0.0374,3.4e-14
0.01,0.08,10,0.00944,3.4e-14
0.005,0.04,10,0.00237,3.4e-14
# slope: 1.991511
"""

X = np.array([[0, 1], [1, 0]], dtype=complex)


def verify_doc(**changes) -> dict:
    checks = [
        {"name": "cycle-length", "passed": True, "value": 2, "tolerance": 2},
        {"name": "eulerian-cycle-valid", "passed": True, "value": "ok", "tolerance": "ok"},
        {"name": "symmetrization", "passed": True, "value": 2.6e-14, "tolerance": 1e-07},
        {"name": "projector-idempotent", "passed": True, "value": 0.0, "tolerance": 1e-10},
        {"name": "qmap-commutant-valued", "passed": True, "value": 0.0, "tolerance": 1e-09},
        {"name": "fault-sy-vanishes", "passed": True, "value": 1e-17, "tolerance": 1e-09},
        {"name": "fault-sz-vanishes", "passed": True, "value": 2e-18, "tolerance": 1e-09},
        {"name": "fault-sx-central", "passed": True, "value": 1.7e-15, "tolerance": 1e-09},
    ]
    for c in checks:
        c.update(changes.get(c["name"], {}))
    return {"scenario": "carr-purcell", "passed": True,
            "checks": [c for c in checks if c.get("keep", True)]}


def encode(m) -> dict:
    return {"dim": list(m.shape), "data": [[x.real, x.imag] for x in m.ravel()]}


def fake_schedule(colors, frames):
    return SimpleNamespace(path=SimpleNamespace(colors=tuple(colors)),
                           stroboscopic_frames=lambda: frames)


def cases():
    sweep = Op("sweep", SPIN_FLIP_6)
    yield "sweep: good output passes", gates.check_sweep(sweep, 0, SWEEP_OK) is None
    yield "sweep: columns are read by name", gates.check_sweep(sweep, 0, SWEEP_OK.replace(
        "delta_t,cycle_time,cycles,distance,quad_error", "delta_t,cycle_time,cycles,distance"
    ).replace(",3.4e-14", "")) is None
    yield "sweep: negative distance fails", gates.check_sweep(
        sweep, 0, SWEEP_OK.replace("0.00944", "-0.00944")) is not None
    yield "sweep: distance growing as delta_t shrinks fails", gates.check_sweep(
        sweep, 0, SWEEP_OK.replace("0.00237", "0.05")) is not None
    yield "sweep: slope outside the band fails", gates.check_sweep(
        sweep, 0, SWEEP_OK.replace("1.991511", "1.02")) is not None
    yield "sweep: missing slope line fails", gates.check_sweep(
        sweep, 0, SWEEP_OK.replace("# slope: 1.991511\n", "")) is not None
    yield "sweep: missing delta_t row fails", gates.check_sweep(
        sweep, 0, SWEEP_OK.replace("0.005,0.04,10,0.00237,3.4e-14\n", "")) is not None
    yield "sweep: non-zero exit fails", gates.check_sweep(sweep, 1, SWEEP_OK) is not None

    verify = Op("verify", CARR_PURCELL)
    yield "verify: good summary passes", gates.check_verify(
        verify, 0, json.dumps(verify_doc())) is None
    yield "verify: value above its tolerance fails even if marked passed", gates.check_verify(
        verify, 0, json.dumps(verify_doc(symmetrization={"value": 1e-3}))) is not None
    yield "verify: wrong cycle length fails", gates.check_verify(
        verify, 0, json.dumps(verify_doc(**{"cycle-length": {"value": 4, "tolerance": 4}}))) is not None
    yield "verify: a dropped check fails", gates.check_verify(
        verify, 0, json.dumps(verify_doc(**{"fault-sx-central": {"keep": False}}))) is not None
    yield "verify: exit 1 fails", gates.check_verify(
        verify, 1, json.dumps(verify_doc())) is not None

    exported = json.dumps({"kind": "eulerian", "path": [0, 0], "generators": [encode(X)]})
    eye = np.eye(2, dtype=complex)
    good = [eye, -1j * X, -eye]
    yield "import: frames equal to generator products up to phase pass", gates.check_import(
        exported, fake_schedule([0, 0], good)) is None
    yield "import: a wrong frame fails", gates.check_import(
        exported, fake_schedule([0, 0], [eye, eye, eye])) is not None
    yield "import: a different path fails", gates.check_import(
        exported, fake_schedule([0], good[:2])) is not None

    yield "pass: a corrupted sweep row counts as a failed operation", corrupted_pass()


def corrupted_pass() -> bool:
    """One pass through Runner with a CLI that prints a negative distance."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from run import Runner

    def main(argv):
        sys.stdout.write(SWEEP_OK.replace("0.0374", "-0.0374"))
        return 0

    workload = Workload("corrupted", (Op("sweep", SPIN_FLIP_6),))
    runner = Runner(workload, {SPIN_FLIP_6.key: "unused.yaml"}, seed=0)
    runner.cli = SimpleNamespace(main=main)
    runner.run_pass()
    reasons = runner.failures[workload.ops[0].label]
    return len(reasons) == 1 and "distance not positive" in reasons[0]


def main() -> int:
    failed = 0
    for name, ok in cases():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
