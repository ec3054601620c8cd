"""Tests for scenario construction, robustness reports, and scaling studies."""

from functools import partial

import numpy as np
import pytest

from eulerdd import analysis, dynamics, io
from eulerdd.analysis import (SIGMA, builtin_scenarios, carr_purcell_scenario,
                              collective, fault_fidelity_comparison,
                              get_scenario, heisenberg,
                              noise_suppression_check, pauli_on,
                              pauli_scenario, random_hermitian,
                              robustness_report, scaling_study, spin_flip_scenario,
                              symmetric_s3_scenario, verify_theorem)
from eulerdd.cayley import validate_path
from eulerdd.group_theory import decompose_irreps, in_algebra, pi_G
from eulerdd.pulses import FaultModel, constant_profile, piecewise_profile

SX, SY, SZ = SIGMA["x"], SIGMA["y"], SIGMA["z"]


class TestBuiltinScenarios:
    def test_catalog(self):
        scs = builtin_scenarios()
        assert [s.name for s in scs] == ["carr-purcell", "pauli", "spin-flip",
                                         "symmetric-s3"]
        assert [s.expected_cycle_length for s in scs] == [2, 8, 8, 12]

    def test_pauli_multi_qubit_lengths(self):
        for n in (1, 2):
            sc = pauli_scenario(n)
            assert len(sc.path) == n * 2 ** (2 * n + 1)

    def test_pauli_cap(self):
        for n in (0, 5):
            with pytest.raises(ValueError, match="1 <= n <= 4"):
                pauli_scenario(n)

    def test_spin_flip_odd_n_projective(self):
        sc = spin_flip_scenario(3)
        assert sc.group.order == 4
        assert len(sc.path) == 8
        sc.rep.validate()

    def test_reference_paths_validate(self):
        for sc in builtin_scenarios():
            if sc.reference_path is not None:
                ok, diag = validate_path(sc.graph, sc.reference_path)
                assert ok, f"{sc.name}: {diag}"

    def test_get_scenario(self):
        assert get_scenario("pauli", 2).n_qubits == 2
        with pytest.raises(ValueError, match="unknown scenario 'nope'; known: "
                                             "carr-purcell, pauli, spin-flip"):
            get_scenario("nope")

    @pytest.mark.parametrize("name", ["pauli", "spin-flip"])
    def test_get_scenario_zero_qubits_is_not_the_default(self, name):
        assert get_scenario(name).n_qubits >= 1
        with pytest.raises(ValueError):
            get_scenario(name, 0)

    @pytest.mark.parametrize("name,size", [("carr-purcell", 1),
                                           ("symmetric-s3", 3)])
    def test_one_size_scenario_refuses_other_sizes(self, name, size):
        assert get_scenario(name, size).n_qubits == size
        assert get_scenario(name).n_qubits == size
        for n in (size - 1, size + 1, 5):
            with pytest.raises(ValueError, match="n_qubits"):
                get_scenario(name, n)

    def test_builtin_checks_belong_to_their_scenario(self):
        rng = np.random.default_rng(0)
        for sc in builtin_scenarios():
            assert sc.checks
            names = [c["name"] for check in sc.checks for c in check(sc, rng, 0)]
            assert names

    def test_all_profiles_in_algebra(self):
        for sc in builtin_scenarios():
            assert all(in_algebra(sc.rep, rate) for p in sc.profiles.values()
                       for _, rate in p.segments)

    def test_generic_drift_unit_norm(self):
        for sc in builtin_scenarios():
            drift = sc.generic_drift(env_dim=2, seed=1)
            drift.validate()
            assert np.linalg.norm(drift.total(), 2) == pytest.approx(1.0)


class TestAlgebraBasisOnDemand:
    """Only ``verify`` reads the group algebra's basis, so building,
    sweeping, exporting and importing a scenario never build it."""

    @staticmethod
    def built(rep):
        return "algebra" in rep._cache

    def test_built_by_verify_only(self):
        sc = get_scenario("pauli", 2)
        assert not self.built(sc.rep)
        scaling_study(sc, [0.02, 0.01], env_dim=1)
        sched = io.import_schedule(io.export_schedule(sc, 0.01))
        assert not self.built(sc.rep) and not self.built(sched.rep)
        half = {"dim": [2, 2], "data": [[0, 0], [np.pi / 2, 0],
                                        [np.pi / 2, 0], [0, 0]]}
        for cfg in (io.RunConfig(scenario="symmetric-s3"),
                    io.RunConfig(inline={
                        "generators": [io.encode_matrix(SX)],
                        "profiles": [{"segments": [{"fraction": 0.5, "rate": half},
                                                   {"fraction": 0.5, "rate": half}]}]})):
            assert not self.built(io.scenario_from_config(cfg).rep)
        analysis.verify_checks(sc, trials=2, seed=0)
        assert self.built(sc.rep)


class TestVerifyTheorem:
    def test_all_builtins_pass(self):
        for sc in builtin_scenarios():
            row = verify_theorem(sc, trials=20, seed=0)
            assert row["passed"] and row["value"] <= 1e-7, sc.name

    def test_out_of_algebra_profile_skips(self):
        sc = carr_purcell_scenario()
        bad = piecewise_profile(sc.group.generators[0], sc.rep,
                                [(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        sc.profiles[0] = bad
        row = verify_theorem(sc, trials=5)
        assert row["value"] == "skipped" and row["passed"]


def per_operator_integral(segments):
    """The toggling-frame kernel before operator stacks, for d_E = 1: u
    starts at the identity and is propagated past every segment."""
    d = segments[0][1][1].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    u = np.eye(d, dtype=complex)
    for frac, (lam, V), X in segments:
        theta = frac * (lam[:, None] - lam[None, :])
        K = frac * np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
        Y = V.conj().T @ X @ V
        Y *= K
        W = V.conj().T @ u
        acc += W.conj().T @ Y @ W
        u = V @ (np.exp(-1j * frac * lam)[:, None] * W)
    return acc


def per_operator_pi_G(rep, X):
    mats, adjs = rep.stacked()
    return ((adjs @ X) @ mats).sum(axis=0) / len(mats)


def per_operator_q_map(rep, profiles, X):
    F = sum(per_operator_integral([(frac, spec, X) for (frac, _), spec
                                   in zip(p.segments, p.spectra)])
            for p in profiles.values()) / len(profiles)
    return per_operator_pi_G(rep, F)


def per_trial_checks(scenario, trials, seed, monkeypatch):
    """The rows of ``verify_checks`` as its per-trial loops computed them
    before operator stacks: one draw, one q_map and one pi_G at a time, and
    one pi_G per noise generator."""
    monkeypatch.setattr(analysis, "noise_suppression_check", lambda sc: max(
        (float(np.linalg.norm(per_operator_pi_G(sc.rep, S)))
         for _, S in sc.noise_generators), default=0.0))
    rng = np.random.default_rng(seed)
    rep = scenario.rep
    expected = scenario.expected_cycle_length
    checks = [analysis.check_result("cycle-length", len(scenario.path) == expected,
                                    len(scenario.path), expected)]
    ok, diag = validate_path(scenario.graph, scenario.path.colors)
    checks.append(analysis.check_result("eulerian-cycle-valid", ok, diag, "ok"))
    if scenario.reference_path is not None:
        ok, diag = validate_path(scenario.graph, scenario.reference_path)
        checks.append(analysis.check_result("reference-path-valid", ok, diag, "ok"))

    theorem_rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        X = random_hermitian(rep.dimension, theorem_rng)
        dev = np.linalg.norm(per_operator_q_map(rep, scenario.profiles, X)
                             - per_operator_pi_G(rep, X))
        worst = max(worst, float(dev))
    checks.append(analysis.bound_check("symmetrization", worst, analysis.THEOREM_TOL))

    mats = rep.stacked()[0]
    worst_idem, worst_comm = 0.0, 0.0
    for _ in range(10):
        X = random_hermitian(rep.dimension, rng)
        p = per_operator_pi_G(rep, X)
        worst_idem = max(worst_idem,
                         float(np.linalg.norm(per_operator_pi_G(rep, p) - p)))
        q = per_operator_q_map(rep, scenario.profiles, X)
        worst_comm = max(worst_comm, analysis.max_norm(q @ mats - mats @ q))
    checks.append(analysis.bound_check("projector-idempotent", worst_idem, 1e-10))
    checks.append(analysis.bound_check("qmap-commutant-valued", worst_comm, 1e-9))
    for check in scenario.checks:
        checks.extend(check(scenario, rng, seed))
    return checks


class TestStackedVerify:
    """verify draws its random operators in the same order as the per-trial
    loops did and evaluates them in stacks, with the same rows."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name,n", [
        ("carr-purcell", None), ("pauli", None), ("spin-flip", None),
        ("symmetric-s3", None), ("pauli", 2), ("spin-flip", 3), ("spin-flip", 5),
    ])
    def test_rows_equal_the_per_trial_loop(self, name, n, seed, monkeypatch):
        sc = get_scenario(name, n)
        got = analysis.verify_checks(sc, 20, seed)
        assert got == per_trial_checks(sc, 20, seed, monkeypatch)

    @pytest.mark.parametrize("name,n", [
        ("carr-purcell", None), ("pauli", 2), ("symmetric-s3", None),
        ("spin-flip", 5),
    ])
    def test_stacks_fit_the_budget_in_draw_order(self, name, n):
        rep = get_scenario(name, n).rep
        d, order = rep.dimension, rep.group.order
        rng = np.random.default_rng(0)
        ops = [random_hermitian(d, rng) for _ in range(20)]
        drawn = []
        stacks = []
        for stack in analysis._operator_stacks(rep, (drawn.append(m) or m
                                                     for m in ops)):
            assert len(drawn) == sum(map(len, stacks)) + len(stack)  # lazily
            stacks.append(stack)
        assert np.array_equal(np.concatenate(stacks), np.array(ops))
        per = len(stacks[0])
        assert all(len(s) == per for s in stacks[:-1])

        def product_bytes(k):
            return 16 * order * k * d * d

        assert per == 1 or product_bytes(per) <= analysis.MAX_STACK_BYTES
        assert per == 20 or product_bytes(per + 1) > analysis.MAX_STACK_BYTES

    def test_verify_passes_stacks_to_q_map(self, monkeypatch):
        # pauli n=2: 16 operators fit the budget, so 20 trials are two calls
        sc = get_scenario("pauli", 2)
        shapes = []
        real = analysis.q_map
        monkeypatch.setattr(analysis, "q_map", lambda rep, profiles, X: (
            shapes.append(X.shape) or real(rep, profiles, X)))
        analysis.verify_checks(sc, 20, 0)
        assert shapes == [(16, 4, 4), (4, 4, 4), (10, 4, 4)]


def block_actions(rep, residual):
    """(block, B) for every irrep block of ``rep``, B the residual's action
    on that block."""
    decomp = decompose_irreps(rep, seed=0)
    return [(blk, decomp.block_of(residual, blk)) for blk in decomp.blocks]


class TestRobustnessReport:
    def test_carr_purcell_transverse_faults_safe(self):
        sc = carr_purcell_scenario()
        for u in (SY, SZ):
            rob = robustness_report(sc, FaultModel.constant([0], [0.1 * u]))
            assert rob.residual_norm <= 1e-9
            # noiseless: the residual acts on no block
            for _, B in block_actions(sc.rep, rob.residual):
                assert np.linalg.norm(B) <= 1e-8

    def test_carr_purcell_x_fault_central_nonzero(self):
        sc = carr_purcell_scenario()
        rob = robustness_report(sc, FaultModel.constant([0], [0.1 * SX]))
        assert rob.residual_norm > 1e-3
        assert rob.center_residual <= 1e-9
        assert rob.commutant_residual <= 1e-9

    def test_pauli_any_fault_eliminated(self):
        sc = pauli_scenario(1)
        rng = np.random.default_rng(8)
        for _ in range(5):
            rates = []
            for _ in range(2):
                m = random_hermitian(2, rng)
                rates.append(m - np.trace(m) / 2 * np.eye(2))
            rob = robustness_report(sc, FaultModel.constant([0, 1], rates))
            assert rob.residual_norm <= 1e-8

    def test_s3_blocks_protected_dimension_factor(self):
        sc = symmetric_s3_scenario()
        rng = np.random.default_rng(9)
        # arbitrary (not in-algebra) fault: residual stays in the commutant,
        # so the dimension factors remain clean
        rates = [random_hermitian(8, rng), random_hermitian(8, rng)]
        rob = robustness_report(sc, FaultModel.constant([0, 1], rates))
        assert rob.commutant_residual <= 1e-8
        # no block is unprotected: each action is N ⊗ I on its dimension
        # factor, which covers the noiseless and scalar cases
        tol = 1e-8 * max(rob.residual_norm, 1.0)
        for blk, B in block_actions(sc.rep, rob.residual):
            assert analysis._factor_fit_residual(
                B, blk.multiplicity, blk.dimension) <= tol


class TestNoiseSuppression:
    @pytest.mark.parametrize("noise,message", [
        (np.kron(SX, SX), "must be a Hermitian 2 x 2 matrix"),
        (SX @ SZ, "must be a Hermitian 2 x 2 matrix"),
        (SZ + np.eye(2), "must be traceless"),
    ], ids=["wrong-size", "non-hermitian", "trace"])
    def test_bad_noise_generator_refused(self, noise, message):
        with pytest.raises(ValueError, match=rf"^noise_generators\[1\] {message}"):
            analysis.scenario_from_generators(
                "bad", "", 1, [SX], [partial(constant_profile, axis=SX)],
                noise_generators=[("sz", SZ), ("bad", noise)])

    def test_spin_flip_full_suppression(self):
        sc = spin_flip_scenario(2)
        assert noise_suppression_check(sc) <= 1e-12

    def test_s3_collective_noise_on_dimension_factor(self):
        sc = symmetric_s3_scenario()
        # collective noise survives symmetrization but never touches the
        # dimension factor of the two-dimensional block
        assert noise_suppression_check(sc) > 1e-12
        from eulerdd.group_theory import decompose_irreps
        decomp = decompose_irreps(sc.rep, seed=0)
        blk = next(b for b in decomp.blocks if b.dimension == 2)
        for _, S in sc.noise_generators:
            avg = pi_G(sc.rep, S)
            B = decomp.block_of(avg, blk)
            n_J, d_J = blk.multiplicity, blk.dimension
            N = B.reshape(n_J, d_J, n_J, d_J).trace(axis1=1, axis2=3) / d_J
            assert np.linalg.norm(B - np.kron(N, np.eye(d_J))) <= 1e-8

    def test_spin_flip_n2_abelian_algebra(self):
        sc = spin_flip_scenario(2)
        mats = sc.rep.matrices
        worst = max(np.linalg.norm(a @ b - b @ a) for a in mats for b in mats)
        assert worst <= 1e-12


class TestScalingStudy:
    def test_carr_purcell_slope_two(self):
        sc = carr_purcell_scenario()
        study = scaling_study(sc, [0.02, 0.01, 0.005], cycles=4, seed=3)
        assert study.monotonic
        assert study.slope == pytest.approx(2.0, abs=0.2)

    def test_zero_drift_flagged(self):
        from eulerdd.dynamics import DriftModel
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        study = scaling_study(sc, [0.02, 0.01], drift=drift)
        assert not np.isfinite(study.slope) or study.notice

    def test_zero_delta_t_refused(self):
        sc = carr_purcell_scenario()
        for run in (lambda: sc.schedule(0.0), lambda: sc.bangbang(0.0),
                    lambda: scaling_study(sc, [0.0, 0.01])):
            with pytest.raises(ValueError, match="delta_t must be positive"):
                run()

    @pytest.mark.parametrize("kind", ["eulerian", "bangbang"])
    def test_average_hamiltonian_once_per_sweep(self, kind, monkeypatch):
        real, calls = dynamics.average_hamiltonian, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, "average_hamiltonian", counted)
        monkeypatch.setattr(dynamics, "average_hamiltonian", counted)
        sc = symmetric_s3_scenario()
        study = scaling_study(sc, [0.02, 0.01, 0.005], kind=kind)
        assert len(calls) == 1
        # the same distances as one average per delta_t
        drift = sc.generic_drift()
        make = sc.schedule if kind == "eulerian" else sc.bangbang
        assert sorted(r.distance for r in study.rows) == sorted(
            dynamics.decoupling_distance(drift, make(dt))
            for dt in (0.02, 0.01, 0.005))

    @pytest.mark.parametrize("kind", ["eulerain", "", None])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match="kind"):
            scaling_study(carr_purcell_scenario(), [0.02, 0.01], kind=kind)

    def test_bangbang_also_slope_two(self):
        sc = carr_purcell_scenario()
        study = scaling_study(sc, [0.02, 0.01, 0.005], cycles=4, seed=3,
                              kind="bangbang")
        assert study.slope == pytest.approx(2.0, abs=0.3)


class TestFidelityComparison:
    def test_decoupling_beats_free_evolution(self):
        sc = pauli_scenario(1)
        fault = FaultModel.constant([0, 1], [0.3 * SY, 0.2 * SX])
        err_dd, err_free = fault_fidelity_comparison(sc, fault, 0.01, 10, seed=5)
        assert err_free >= 10 * err_dd


def test_operator_helpers():
    np.testing.assert_allclose(pauli_on(2, 0, "x"), np.kron(SX, np.eye(2)))
    # I ⊗ sigma ⊗ I has the entries of the qubit-by-qubit kron chain
    for n in range(1, 5):
        for k in range(n):
            for u in "xyz":
                chain = np.ones((1, 1))
                for j in range(n):
                    chain = np.kron(chain, SIGMA[u] if j == k else SIGMA["i"])
                assert np.array_equal(pauli_on(n, k, u), chain)
    np.testing.assert_allclose(collective(2, "z"), np.kron(SZ, SZ))
    # exchange coupling has the swap spectrum {+1 triplet, -3 singlet}
    evals = np.linalg.eigvalsh(heisenberg(2, 0, 1))
    np.testing.assert_allclose(sorted(evals), [-3, 1, 1, 1], atol=1e-12)
