"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure), and asserts at the stated
tolerance.  Run the whole gate with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from eulerdd.analysis import (SIGMA, builtin_scenarios, carr_purcell_scenario,
                              collective, fault_fidelity_comparison, pauli_on,
                              pauli_scenario, random_hermitian, scaling_study,
                              spin_flip_scenario, symmetric_s3_scenario,
                              verify_theorem)
from eulerdd.cayley import validate_path
from eulerdd.cli import main as cli_main
from eulerdd.dynamics import q_map, residual_error
from eulerdd.group_theory import decompose_irreps, pi_G
from eulerdd.pulses import apply_fault
from test_group_theory import center_basis, f_map

SX, SY, SZ = SIGMA["x"], SIGMA["y"], SIGMA["z"]


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_01_cycle_lengths_and_reference_paths():
    t0 = time.perf_counter()
    scenarios = builtin_scenarios()
    lengths = [len(s.path) for s in scenarios]
    ok = lengths == [2, 8, 8, 12]
    for s in scenarios:
        ok = ok and validate_path(s.group, s.path.colors)[0]
        if s.reference_path is not None:
            ok = ok and validate_path(s.group, s.reference_path)[0]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report("criterion-01 cycle-lengths",
           ok, f"lengths={lengths} elapsed={elapsed:.3f}s")


def test_02_symmetrization_theorem():
    t0 = time.perf_counter()
    worst = 0.0
    for sc in builtin_scenarios():
        row = verify_theorem(sc, sc.schedule(), np.random.default_rng(0), 100)[0]
        assert row["value"] != "skipped" and row["tolerance"] == 1e-7
        worst = max(worst, row["value"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    report("criterion-02 symmetrization",
           ok, f"max|Q(X)-Pi(X)|={worst:.3e} elapsed={elapsed:.1f}s")


def test_03_projector_properties():
    rng = np.random.default_rng(0)
    worst_idem = worst_comm = 0.0
    for sc in builtin_scenarios():
        d = sc.rep.dimension
        for _ in range(100):
            X = random_hermitian(d, rng)
            p = pi_G(sc.rep, X)
            worst_idem = max(worst_idem, np.linalg.norm(pi_G(sc.rep, p) - p))
            for g in sc.rep.matrices:
                worst_comm = max(worst_comm, np.linalg.norm(p @ g - g @ p))
        # q_map checked on a smaller sample (it integrates per input)
        sched = sc.schedule()
        for _ in range(10):
            X = random_hermitian(d, rng)
            q = q_map(sched, X)
            worst_idem = max(worst_idem,
                             np.linalg.norm(pi_G(sc.rep, q) - q))
            for g in sc.rep.matrices:
                worst_comm = max(worst_comm, np.linalg.norm(q @ g - g @ q))
    ok = worst_idem <= 1e-9 and worst_comm <= 1e-9
    report("criterion-03 projector-properties",
           ok, f"idempotency={worst_idem:.3e} commutant={worst_comm:.3e}")


def test_04_carr_purcell_fault_robustness():
    sc = carr_purcell_scenario()
    details = []
    ok = True
    for name, u in (("sy", SY), ("sz", SZ)):
        res = residual_error(apply_fault(sc.schedule(), {0: [(1.0, 0.1 * u)]}))
        details.append(f"{name}={np.linalg.norm(res):.2e}")
        ok = ok and np.linalg.norm(res) <= 1e-9
    res = residual_error(apply_fault(sc.schedule(), {0: [(1.0, 0.1 * SX)]}))
    dev = np.linalg.norm(res - 0.1 * SX)
    details.append(f"sx-dev={dev:.2e}")
    ok = ok and dev <= 1e-9
    # the surviving term lies in the center of the group algebra
    cen = np.array([b.ravel() for b in center_basis(sc.rep)])
    v = res.ravel()
    off_center = np.linalg.norm(v - cen.T @ (cen.conj() @ v))
    details.append(f"off-center={off_center:.2e}")
    ok = ok and off_center <= 1e-9
    report("criterion-04 carr-purcell-robustness", ok, " ".join(details))


def test_05_pauli_systematic_error_elimination():
    sc = pauli_scenario(1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        fault = {}
        for c in range(2):
            m = random_hermitian(2, rng)
            fault[c] = [(1.0, m - np.trace(m) / 2 * np.eye(2))]
        worst = max(worst, np.linalg.norm(
            residual_error(apply_fault(sc.schedule(), fault))))
    fault = {0: [(1.0, 0.3 * SY)], 1: [(1.0, 0.2 * SX)]}
    err_dd, err_free = fault_fidelity_comparison(sc, fault, 0.01, 10, seed=5)
    ratio = err_free / err_dd
    ok = worst <= 1e-8 and ratio >= 10.0
    report("criterion-05 pauli-error-elimination",
           ok, f"max-residual={worst:.3e} fidelity-ratio={ratio:.1f}x")


def test_06_spin_flip_linear_noise():
    sc = spin_flip_scenario(2)
    worst = 0.0
    for u in "xyz":
        for k in range(2):
            worst = max(worst,
                        np.linalg.norm(pi_G(sc.rep, pauli_on(2, k, u))))
    mats = sc.rep.matrices
    worst_comm = max(np.linalg.norm(a @ b - b @ a)
                     for a in mats for b in mats)
    ok = worst <= 1e-12 and worst_comm <= 1e-12
    report("criterion-06 spin-flip-noise",
           ok, f"projected-noise={worst:.3e} non-abelian={worst_comm:.3e}")


def test_07_noiseless_subsystem():
    sc = symmetric_s3_scenario()
    decomp = decompose_irreps(sc.rep, seed=0)
    dims = sorted((b.dimension, b.multiplicity) for b in decomp.blocks)
    has_d2 = any(b.dimension == 2 for b in decomp.blocks)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        # random collective-coupling drift: sum of c_u * (sum_k sigma_u^(k))
        S = sum(rng.standard_normal() * collective(3, u) for u in "xyz")
        avg = pi_G(sc.rep, S)
        for blk in decomp.blocks:
            B = decomp.block_of(avg, blk)
            n_J, d_J = blk.multiplicity, blk.dimension
            N = B.reshape(n_J, d_J, n_J, d_J).trace(axis1=1, axis2=3) / d_J
            worst = max(worst, np.linalg.norm(B - np.kron(N, np.eye(d_J))))
    ok = has_d2 and worst <= 1e-8
    report("criterion-07 noiseless-subsystem",
           ok, f"blocks={dims} dimension-factor-deviation={worst:.3e}")


def test_08_first_order_convergence():
    t0 = time.perf_counter()
    slopes = {}
    for sc in (carr_purcell_scenario(), symmetric_s3_scenario()):
        study = scaling_study(sc, [0.02, 0.01, 0.005, 0.002],
                              cycles=1, env_dim=2, seed=0)
        slopes[sc.name] = study.slope
    elapsed = time.perf_counter() - t0
    ok = all(abs(s - 2.0) <= 0.2 for s in slopes.values()) and elapsed < 300
    detail = " ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    report("criterion-08 convergence",
           ok, f"slopes: {detail} elapsed={elapsed:.1f}s")


def test_09_f_map_oracle():
    sc = carr_purcell_scenario()
    got = f_map(sc.profiles, SZ)

    # independent oracle: brute-force Riemann sum over the single pulse
    # sub-interval of u(x)^dagger sigma_z u(x), u(x) = exp(-i x (pi/2) sx)
    n = 200000
    xs = (np.arange(n) + 0.5) / n
    acc = np.zeros((2, 2), dtype=complex)
    for x in xs:
        c, s = np.cos(np.pi * x / 2), np.sin(np.pi * x / 2)
        u = c * np.eye(2) - 1j * s * SX
        acc += u.conj().T @ SZ @ u
    oracle = acc / n
    np.testing.assert_allclose(oracle, (2 / np.pi) * SY, atol=1e-9)

    dev = np.linalg.norm(got - oracle)
    analytic_dev = np.linalg.norm(got - (2 / np.pi) * SY)
    ok = dev <= 1e-9 and analytic_dev <= 1e-9
    report("criterion-09 f-map-oracle",
           ok, f"|f(sz)-oracle|={dev:.3e} |f(sz)-(2/pi)sy|={analytic_dev:.3e}")


def test_10_determinism(tmp_path):
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for f in files:
        code = cli_main(["verify", "--scenario", "pauli", "--trials", "10",
                         "--seed", "42", "--out", str(f)])
        assert code == 0
    identical = files[0].read_bytes() == files[1].read_bytes()
    doc = json.loads(files[0].read_text())
    ok = identical and doc["passed"]
    report("criterion-10 determinism",
           ok, f"byte-identical={identical} checks={len(doc['checks'])}")
