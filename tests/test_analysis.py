"""Tests for scenario construction, fault residuals, and scaling studies."""

import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from eulerdd import analysis, dynamics, io
from eulerdd.analysis import (SIGMA, builtin_scenarios, carr_purcell_scenario,
                              collective, fault_fidelity_comparison,
                              get_scenario, heisenberg,
                              noise_suppression_check, pauli_on,
                              pauli_scenario, random_hermitian, scaling_study,
                              spin_flip_scenario, symmetric_s3_scenario,
                              verify_theorem)
from eulerdd.cayley import EulerPath, validate_path
from eulerdd.group_theory import (MAX_STACK_BYTES, center_basis,
                                  decompose_irreps, in_algebra, pi_G,
                                  subspace_distance)
from eulerdd.pulses import (ControlSchedule, Step, apply_fault, constant_profile,
                            piecewise_profile)
from test_group_theory import validate_rep

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

    def test_pauli_five_qubits_build(self):
        sc = pauli_scenario(5)
        assert sc.group.order == 1024
        assert len(sc.path) == sc.expected_cycle_length == 10240

    def test_pauli_cap(self):
        for n in (0, 6):
            with pytest.raises(ValueError, match="1 <= n <= 5"):
                pauli_scenario(n)

    def test_spin_flip_odd_n_projective(self):
        sc = spin_flip_scenario(3)
        assert sc.group.order == 4
        assert len(sc.path) == 8
        validate_rep(sc.rep)

    def test_reference_paths_validate(self):
        for sc in builtin_scenarios():
            if sc.reference_path is not None:
                ok, diag = validate_path(sc.group, sc.reference_path)
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
            names = [c["name"] for check in sc.checks
                     for c in check(sc, sc.schedule(), rng, 0)]
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

    def test_generic_drift_shares_the_noise_generators(self):
        # S ⊗ (E / n) is (S / √n) ⊗ (E / √n): the scale rides on E, so no
        # scaled copy of a system operator is made (the unit norm of this
        # drift is test_generic_drift_unit_norm's)
        for sc in builtin_scenarios():
            drift = sc.generic_drift(env_dim=2, seed=1)
            assert len(drift.couplings) == len(sc.noise_generators)
            for (S, _), (_, m) in zip(drift.couplings, sc.noise_generators):
                assert S is m

    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_generic_drift_builds_one_total(self, env_dim, monkeypatch):
        builds = []
        real = dynamics.DriftModel._total.func
        monkeypatch.setattr(dynamics.DriftModel._total, "func",
                            lambda drift: builds.append(drift) or real(drift))
        sc = get_scenario("spin-flip", 3)
        drift = sc.generic_drift(env_dim=env_dim, seed=2)
        total = drift.total()
        assert len(builds) == 1 and builds[0] is not drift
        # the divided total is the total of the divided terms
        fresh = real(drift)
        assert np.abs(total - fresh).max() <= 1e-15 * np.abs(fresh).max()
        assert not total.flags.writeable
        assert np.linalg.norm(total, 2) == pytest.approx(1.0, rel=1e-14)


class TestRandomHermitians:
    def test_single_draw_is_the_reference_formula(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        m = b.standard_normal((6, 6)) + 1j * b.standard_normal((6, 6))
        assert np.array_equal(random_hermitian(6, a), (m + m.conj().T) / 2.0)


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


def theorem_rows(sc, sched, trials, seed=0):
    return verify_theorem(sc, sched, np.random.default_rng(seed), trials)


class TestVerifyTheorem:
    NAMES = ["symmetrization", "projector-idempotent", "qmap-commutant-valued"]

    def test_all_builtins_pass(self):
        for sc in builtin_scenarios():
            rows = theorem_rows(sc, sc.schedule(), 20)
            assert [r["name"] for r in rows] == self.NAMES, sc.name
            assert all(r["passed"] for r in rows), sc.name
            assert rows[0]["value"] <= 1e-7, sc.name

    def test_out_of_algebra_profile_skips(self):
        sc = carr_purcell_scenario()
        bad = piecewise_profile(sc.group.generators[0], sc.rep,
                                [(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        sc.profiles[0] = bad
        row = theorem_rows(sc, sc.schedule(), 5)[0]
        assert row["value"] == "skipped" and row["passed"]

    def test_identity_is_read_on_the_walk(self):
        # pauli n=1, the sigma-x pulse twice: the walk (0, x, 0) is held to
        # the group table but is not an Eulerian cycle, so its average is
        # not pi_G; the bang-bang walk through every element is
        sc = pauli_scenario(1)
        x = sc.group.generators[0]
        walk = EulerPath(colors=(0, 0), vertices=(0, x, 0))
        step = Step(0, sc.profiles[0])
        sched = ControlSchedule(rep=sc.rep, steps=(step, step), path=walk)
        row = theorem_rows(sc, sched, 20)[0]
        assert row["value"] > analysis.THEOREM_TOL and not row["passed"]
        assert all(r["passed"] for r in theorem_rows(sc, sc.bangbang(), 20))
        # verify reads the scenario's own walk (the pauli check faults the
        # sigma-z pulse, which this walk leaves out)
        checks = {c["name"]: c for c in analysis.verify_checks(
            replace(sc, path=walk, reference_path=None, checks=()), 20, 0)}
        assert not checks["symmetrization"]["passed"]
        assert checks["symmetrization"]["value"] > analysis.THEOREM_TOL


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
    mats = rep.matrices
    adjs = mats.conj().transpose(0, 2, 1)
    return ((adjs @ X) @ mats).sum(axis=0) / len(mats)


def per_operator_f_map(profiles, X):
    # a profile with involution data is integrated in closed form, one
    # operator at a time as well
    return sum(dynamics._involution_integral(1.0, p.involution, X)
               if p.involution is not None else
               per_operator_integral([(frac, spec, X) for (frac, _), spec
                                      in zip(p.segments, p.spectra)])
               for p in profiles.values()) / len(profiles)


def per_operator_q_map(rep, profiles, X):
    return per_operator_pi_G(rep, per_operator_f_map(profiles, X))


def per_operator_commutator_norm(rep, q):
    """max_g |g† q g - q| (Frobenius), one element at a time."""
    return max(float(np.linalg.norm(g.conj().T @ q @ g - q, axis=(-2, -1)))
               for g in rep.matrices)


def per_trial_checks(scenario, trials, seed, monkeypatch):
    """The rows of ``verify_checks`` as per-trial loops compute them: one
    draw, one pi_G and one q_map = pi_G∘F at a time, the commutant check
    one element at a time, and one pi_G per noise generator."""
    monkeypatch.setattr(analysis, "noise_suppression_check", lambda sc: max(
        (float(np.linalg.norm(per_operator_pi_G(sc.rep, S)))
         for _, S in sc.noise_generators), default=0.0))
    rng = np.random.default_rng(seed)
    rep = scenario.rep
    expected = scenario.expected_cycle_length
    checks = [analysis.check_result("cycle-length", len(scenario.path) == expected,
                                    len(scenario.path), expected)]
    ok, diag = validate_path(scenario.group, scenario.path.colors)
    checks.append(analysis.check_result("eulerian-cycle-valid", ok, diag, "ok"))
    if scenario.reference_path is not None:
        ok, diag = validate_path(scenario.group, scenario.reference_path)
        checks.append(analysis.check_result("reference-path-valid", ok, diag, "ok"))

    worst_sym, worst_idem, worst_comm = 0.0, 0.0, 0.0
    for _ in range(trials):
        X = random_hermitian(rep.dimension, rng)
        p = per_operator_pi_G(rep, X)
        q = per_operator_q_map(rep, scenario.profiles, X)
        worst_sym = max(worst_sym, float(np.linalg.norm(q - p)))
        worst_idem = max(worst_idem,
                         float(np.linalg.norm(per_operator_pi_G(rep, p) - p)))
        worst_comm = max(worst_comm, per_operator_commutator_norm(rep, q))
    checks.append(analysis.bound_check("symmetrization", worst_sym,
                                       analysis.THEOREM_TOL))
    checks.append(analysis.bound_check("projector-idempotent", worst_idem, 1e-10))
    checks.append(analysis.bound_check("qmap-commutant-valued", worst_comm, 1e-9))
    for check in scenario.checks:
        checks.extend(check(scenario, scenario.schedule(), rng, seed))
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
        d = rep.dimension
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

        def stack_bytes(k):
            return 16 * k * d * d

        assert per == 1 or stack_bytes(per) <= MAX_STACK_BYTES
        assert per == 20 or stack_bytes(per + 1) > MAX_STACK_BYTES

    def test_verify_passes_stacks_to_q_map(self, monkeypatch):
        # pauli n=2: 256 operators fit the budget, so 20 trials are one
        # stack, averaged once by the group and once over the walk, and the
        # idempotence check averages the group average again
        sc = get_scenario("pauli", 2)
        shapes = []
        for name in ("pi_G", "q_map"):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *args, real=real, name=name: (
                shapes.append((name, args[-1].shape)) or real(*args)))
        analysis.verify_checks(sc, 20, 0)
        assert shapes == [("pi_G", (20, 4, 4)), ("q_map", (20, 4, 4)),
                          ("pi_G", (20, 4, 4))]


def block_actions(rep, residual):
    """(block, B) for every irrep block of ``rep``, B the residual's action
    on that block."""
    decomp = decompose_irreps(rep, seed=0)
    return [(blk, decomp.block_of(residual, blk)) for blk in decomp.blocks]


def fault_residual(sc, colors, rates):
    return dynamics.residual_error(apply_fault(
        sc.schedule(), {c: [(1.0, r)] for c, r in zip(colors, rates)}))


class TestFaultResidual:
    def test_carr_purcell_transverse_faults_safe(self):
        sc = carr_purcell_scenario()
        for u in (SY, SZ):
            res = fault_residual(sc, [0], [0.1 * u])
            assert np.linalg.norm(res) <= 1e-9
            # noiseless: the residual acts on no block
            for _, B in block_actions(sc.rep, res):
                assert np.linalg.norm(B) <= 1e-8

    def test_carr_purcell_x_fault_central_nonzero(self):
        sc = carr_purcell_scenario()
        res = fault_residual(sc, [0], [0.1 * SX])
        assert np.linalg.norm(res) > 1e-3
        assert subspace_distance(res, center_basis(sc.rep)) <= 1e-9
        assert np.linalg.norm(res - pi_G(sc.rep, res)) <= 1e-9

    def test_pauli_any_fault_eliminated(self):
        sc = pauli_scenario(1)
        rng = np.random.default_rng(8)
        for _ in range(5):
            rates = []
            for _ in range(2):
                m = random_hermitian(2, rng)
                rates.append(m - np.trace(m) / 2 * np.eye(2))
            assert np.linalg.norm(fault_residual(sc, [0, 1], rates)) <= 1e-8

    def test_s3_blocks_protected_dimension_factor(self):
        sc = symmetric_s3_scenario()
        rng = np.random.default_rng(9)
        # arbitrary (not in-algebra) fault: residual stays in the commutant,
        # so the dimension factors remain clean
        rates = [random_hermitian(8, rng), random_hermitian(8, rng)]
        res = fault_residual(sc, [0, 1], rates)
        assert np.linalg.norm(res - pi_G(sc.rep, res)) <= 1e-8
        # no block is unprotected: each action is N ⊗ I on its dimension
        # factor, which covers the noiseless and scalar cases
        tol = 1e-8 * max(np.linalg.norm(res), 1.0)
        for blk, B in block_actions(sc.rep, res):
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
        assert study.notice == ""
        assert study.slope == pytest.approx(2.0, abs=0.2)

    def test_zero_drift_flagged(self):
        from eulerdd.dynamics import DriftModel
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        study = scaling_study(sc, [0.02, 0.01], drift=drift)
        assert not np.isfinite(study.slope) or study.notice

    def test_equal_cycle_times_give_no_slope(self):
        # one distinct cycle time leaves the log-log fit rank-deficient
        sc = carr_purcell_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy's RankWarning
            study = scaling_study(sc, [0.02, 0.02], cycles=10)
        assert np.isnan(study.slope)
        assert study.notice == "slope undefined: the cycle times are all equal"

    def test_zero_delta_t_refused(self):
        sc = carr_purcell_scenario()
        for run in (lambda: scaling_study(sc, [0.0, 0.01]),
                    lambda: scaling_study(sc, [0.01, 0.0], kind="bangbang"),
                    lambda: fault_fidelity_comparison(sc, {}, 0.0, 1)):
            with pytest.raises(ValueError, match="delta_t must be positive"):
                run()

    @pytest.mark.parametrize("kind,builder", [
        ("eulerian", "eulerian_schedule"), ("bangbang", "bangbang_schedule")])
    def test_schedule_built_once_per_sweep(self, kind, builder, monkeypatch):
        # a schedule holds no delta_t, so one serves every delta_t
        real, calls = getattr(analysis, builder), []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(analysis, builder, counted)
        study = scaling_study(carr_purcell_scenario(), [0.02, 0.01, 0.005],
                              kind=kind)
        assert len(calls) == 1
        assert [r.cycle_time for r in study.rows] == [2 * 0.02, 2 * 0.01, 2 * 0.005]

    @pytest.mark.parametrize("delta_t,cycles,error,message", [
        ([1e308, 1e307], 10, ValueError, "delta_t 1e+308 is too large"),
        ([0.02, 0.01], 10 ** 9, dynamics.UnitarityError,
         "lost unitarity over 1000000000 cycles"),
    ], ids=["overflowing-delta-t", "too-many-cycles"])
    def test_sweep_refusals(self, delta_t, cycles, error, message):
        with pytest.raises(error) as info:
            scaling_study(carr_purcell_scenario(), delta_t, cycles=cycles)
        assert message in str(info.value)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("kind", ["eulerian", "bangbang"])
    def test_average_hamiltonian_once_per_sweep(self, kind, monkeypatch):
        real, calls = dynamics.average_hamiltonian, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "average_hamiltonian", counted)
        sc = symmetric_s3_scenario()
        study = scaling_study(sc, [0.02, 0.01, 0.005], kind=kind)
        assert len(calls) == 1
        # the same distances as one average per delta_t
        drift = sc.generic_drift()
        make = sc.schedule if kind == "eulerian" else sc.bangbang
        assert sorted(r.distance for r in study.rows) == sorted(
            dynamics.decoupling_distance(drift, make(), [dt])[0]
            for dt in (0.02, 0.01, 0.005))

    @pytest.mark.parametrize("kind", ["eulerain", "", None])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match="kind"):
            scaling_study(carr_purcell_scenario(), [0.02, 0.01], kind=kind)

    def test_sweep_peak_holds_no_scaled_noise_copies(self):
        # spin-flip n=5 with d_E = 2: D = 64, and each of the 15 noise
        # generators is a d x d = D²/4 array.  Scaled copies of them took
        # the traced peak to 16 D²-sized complex arrays
        sc = spin_flip_scenario(5)
        D = 2 * sc.rep.dimension
        scaling_study(sc, [0.02, 0.01])     # the profiles' spectra, once
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            scaling_study(sc, [0.02, 0.01, 0.005], cycles=10)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 16 * D ** 2

    def test_bangbang_also_slope_two(self):
        sc = carr_purcell_scenario()
        study = scaling_study(sc, [0.02, 0.01, 0.005], cycles=4, seed=3,
                              kind="bangbang")
        assert study.slope == pytest.approx(2.0, abs=0.3)


class TestFidelityComparison:
    def test_decoupling_beats_free_evolution(self):
        sc = pauli_scenario(1)
        fault = {0: [(1.0, 0.3 * SY)], 1: [(1.0, 0.2 * SX)]}
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
