"""Tests for propagators, toggling-frame averages, and joint simulation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerdd import dynamics
from eulerdd.analysis import (SIGMA, carr_purcell_scenario, pauli_scenario,
                              random_hermitian, scaling_study, spin_flip_scenario,
                              symmetric_s3_scenario, verify_theorem)
from eulerdd.dynamics import (DriftModel, TimeOutOfRangeError,
                              _sub_interval_integral, average_hamiltonian,
                              control_propagator, decoupling_distance, f_map,
                              q_map, residual_error, simulate_cycles)
from eulerdd.cayley import build_cayley, eulerian_cycle
from eulerdd.group_theory import (GroupClosureError, center_basis, close_group,
                                  commutant_basis, equal_up_to_phase,
                                  in_algebra, pi_G)
from eulerdd.pulses import (ControlSchedule, FaultModel, PulseProfile,
                            RealizationError, Step, _expm_herm, apply_fault,
                            eulerian_schedule, merged_segments,
                            phase_distance, piecewise_profile)
from test_group_theory import (PROPERTY_MAX_ORDER, _monomial, hermitian_log,
                               monomial_groups)

SX, SY, SZ = SIGMA["x"], SIGMA["y"], SIGMA["z"]


def hs_project(X, basis):
    B = np.array([b.ravel() for b in basis])
    v = X.ravel()
    return np.linalg.norm(v - B.T @ (B.conj() @ v))


def fine_grid_integral(integrand, cuts, nodes=48):
    """Gauss-Legendre sum of integrand(x) over each [cuts[k], cuts[k+1]];
    the integrands here are entire in x, so this converges to rounding."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    acc = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        for x, w in zip(xs, ws):
            acc = acc + 0.5 * (b - a) * w * integrand(a + 0.5 * (b - a) * (x + 1))
    return acc


def segment_cuts(segments):
    return np.concatenate([[0.0], np.cumsum([frac for frac, _ in segments])])


def random_profile(d, fractions, rng):
    """Profile with random Hermitian segment rates; the first is zero and the
    second has a doubly repeated eigenvalue.  Only f_map reads it, so it
    need not realize any generator."""
    rates = [np.zeros((d, d), dtype=complex)]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rates.append(q @ np.diag([1.3, 1.3] + [-2.1] * (d - 2)) @ q.conj().T)
    rates += [2.0 * random_hermitian(d, rng) for _ in fractions[2:]]
    return PulseProfile(segments=list(zip(fractions, rates)))


class TestSegmentProducts:
    """Products of segment exponentials: a profile's u(1) and the joint
    propagator of a cycle."""

    def test_constant_sigma_x(self):
        prof = PulseProfile(segments=[(1.0, (np.pi / 2) * SX)])
        assert phase_distance(SX, prof.unitary_at(1.0)) <= 1e-10

    def test_zero_hamiltonian(self):
        # zero drift, and bang-bang kicks conjugate it to zero: u is I itself
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((3, 3)),
                           couplings=())
        u = simulate_cycles(drift, sc.bangbang(0.1), cycles=2)
        np.testing.assert_allclose(u, np.eye(6), atol=1e-14)

    def test_s3_two_factor_product(self):
        sc = symmetric_s3_scenario()
        target = sc.rep.matrices[sc.group.generators[1]]
        assert phase_distance(target, sc.profiles[1].unitary_at(1.0)) <= 1e-9

    def test_unitarity(self):
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        u = simulate_cycles(drift, sc.schedule(0.05), cycles=3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(16)) <= 1e-10 * 16


class TestControlPropagator:
    def test_eulerian_z2_at_delta_t(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule(0.1)
        assert equal_up_to_phase(control_propagator(sched, 0.1), SX, 1e-9)

    def test_identity_at_zero(self):
        sc = pauli_scenario(1)
        for sched in (sc.schedule(0.1), sc.bangbang(0.1)):
            np.testing.assert_allclose(control_propagator(sched, 0.0),
                                       np.eye(2), atol=1e-12)

    def test_negative_time_out_of_range(self):
        sched = carr_purcell_scenario().schedule(0.1)
        with pytest.raises(TimeOutOfRangeError):
            control_propagator(sched, -0.1)

    def test_closure_at_cycle_time(self):
        sc = pauli_scenario(1)
        sched = sc.schedule(0.1)
        u = control_propagator(sched, sched.cycle_time)
        assert equal_up_to_phase(u, np.eye(2), 1e-9)

    def test_cyclicity(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule(0.1)
        for t in (0.03, 0.15):
            a = control_propagator(sched, t)
            b = control_propagator(sched, t + sched.cycle_time)
            assert phase_distance(a, b) <= 1e-9

    def test_bangbang_piecewise_constant(self):
        sc = pauli_scenario(1)
        bb = sc.bangbang(0.1)
        for ell in range(4):
            u = control_propagator(bb, ell * 0.1 + 0.05)
            np.testing.assert_allclose(u, sc.rep.matrices[ell], atol=1e-12)


class TestAverageHamiltonian:
    def test_bangbang_z2_kills_sigma_z(self):
        sc = carr_purcell_scenario()
        avg = average_hamiltonian(sc.bangbang(0.1), SZ)
        np.testing.assert_allclose(avg, np.zeros((2, 2)), atol=1e-12)

    def test_eulerian_z2_kills_sigma_z(self):
        sc = carr_purcell_scenario()
        avg = average_hamiltonian(sc.schedule(0.1), SZ)
        assert np.linalg.norm(avg) <= 1e-7

    def test_invariant_operator_unchanged(self):
        sc = carr_purcell_scenario()
        H0 = 0.4 * SX + 0.1 * np.eye(2)
        avg = average_hamiltonian(sc.schedule(0.1), H0)
        np.testing.assert_allclose(avg, H0, atol=1e-10)

    @pytest.mark.parametrize("make", [carr_purcell_scenario,
                                      symmetric_s3_scenario,
                                      lambda: pauli_scenario(2)])
    def test_bangbang_is_group_average_on_joint_space(self, make):
        sc = make()
        H0 = random_hermitian(2 * sc.rep.dimension, np.random.default_rng(1))
        lifted = [np.kron(g, np.eye(2)) for g in sc.rep.matrices]
        expected = sum(g.conj().T @ H0 @ g for g in lifted) / len(lifted)
        np.testing.assert_allclose(average_hamiltonian(sc.bangbang(0.1), H0),
                                   expected, atol=1e-12)

    def test_non_hermitian_rejected(self):
        sc = carr_purcell_scenario()
        with pytest.raises(ValueError):
            average_hamiltonian(sc.schedule(0.1), SX + 1j * np.eye(2))


class TestExactKernel:
    @pytest.mark.parametrize("d,fractions", [
        (2, (0.4, 0.6)), (3, (0.25, 0.35, 0.4)), (4, (0.5, 0.2, 0.3)),
    ])
    def test_f_map_matches_fine_grid(self, d, fractions):
        rng = np.random.default_rng(d)
        profiles = {c: random_profile(d, fractions, rng) for c in range(2)}
        X = random_hermitian(d, rng)
        ref = sum(fine_grid_integral(
            lambda x, p=p: p.unitary_at(x).conj().T @ X @ p.unitary_at(x),
            segment_cuts(p.segments)) for p in profiles.values()) / 2
        assert np.linalg.norm(f_map(profiles, X) - ref) <= 1e-10

    @pytest.mark.parametrize("env_dim", [2, 3])
    def test_reshape_lift_matches_kron(self, env_dim):
        rng = np.random.default_rng(env_dim)
        d = 3
        segs = [(0.3, random_hermitian(d, rng)), (0.5, np.zeros((d, d))),
                (0.2, random_hermitian(d, rng))]
        X = random_hermitian(d * env_dim, rng)
        got = _sub_interval_integral([(f, np.linalg.eigh(r), X) for f, r in segs],
                                     env_dim)
        eye_e = np.eye(env_dim)
        ref = _sub_interval_integral([(f, np.linalg.eigh(np.kron(r, eye_e)), X)
                                      for f, r in segs])
        assert np.linalg.norm(got - ref) <= 1e-12

    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_stack_matches_per_operator(self, env_dim):
        # the segment integrals of an (n, D, D) stack are those of its
        # operators; the joint (d_E > 1) contraction of a stack is one larger
        # product, whose sums may round differently
        rng = np.random.default_rng(env_dim)
        d = 3
        spectra = [(0.3, np.linalg.eigh(random_hermitian(d, rng))),
                   (0.7, np.linalg.eigh(random_hermitian(d, rng)))]
        X = np.array([random_hermitian(d * env_dim, rng) for _ in range(4)])
        got = _sub_interval_integral([(f, spec, X) for f, spec in spectra], env_dim)
        ref = [_sub_interval_integral([(f, spec, x) for f, spec in spectra], env_dim)
               for x in X]
        if env_dim == 1:
            assert np.array_equal(got, ref)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_joint_average_hamiltonian_matches_fine_grid(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule(0.1)
        H0 = sc.generic_drift(env_dim=2, seed=1).total()
        dt, eye_e = sched.delta_t, np.eye(2)

        def integrand(t):
            u = np.kron(control_propagator(sched, t), eye_e)
            return u.conj().T @ H0 @ u

        cuts = np.arange(2 * sched.sub_intervals + 1) * (dt / 2)
        ref = fine_grid_integral(integrand, cuts, nodes=24) / sched.cycle_time
        got = average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - ref) <= 1e-10

    def test_residual_error_on_finer_fault_grid(self):
        rng = np.random.default_rng(8)
        sc = symmetric_s3_scenario()
        fractions = (0.25, 0.25, 0.3, 0.2)
        fault = FaultModel(deltas={c: [(f, 0.1 * random_hermitian(8, rng))
                                       for f in fractions] for c in (0, 1)})
        cuts = segment_cuts(fault.deltas[0])

        def fault_at(c, x):
            return fault.deltas[c][np.searchsorted(cuts, x) - 1][1]

        ref = sum(fine_grid_integral(
            lambda x, c=c: (sc.profiles[c].unitary_at(x).conj().T @ fault_at(c, x)
                            @ sc.profiles[c].unitary_at(x)), cuts)
            for c in (0, 1)) / 2
        got = residual_error(sc.rep, sc.profiles, fault)
        assert np.linalg.norm(got - pi_G(sc.rep, ref)) <= 1e-10


def segment_product(segments, x=1.0):
    """u(x) of (fraction, rate) segments, one _expm_herm per segment."""
    u = np.eye(segments[0][1].shape[0], dtype=complex)
    pos = 0.0
    for frac, rate in segments:
        u = _expm_herm(rate, min(frac, max(x - pos, 0.0))) @ u
        pos += frac
    return u


class TestKickedTimeline:
    """A hand-built timeline with kicks after non-zero pulses: the frames
    follow f_{l+1} = K_l u_l(1) f_l, and the average Hamiltonian is the
    time average of the control propagator."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        _, self.rep = close_group([SX])
        self.a = PulseProfile(segments=[(0.4, 1.1 * SX + 0.3 * SZ),
                                        (0.6, random_hermitian(2, rng))])
        self.b = PulseProfile(segments=[(1.0, 0.7 * SY)])
        self.kicks = [_expm_herm(random_hermitian(2, rng)) for _ in range(2)]
        self.sched = ControlSchedule(rep=self.rep, delta_t=0.1, steps=(
            Step(0, self.a, self.kicks[0]), Step(1, self.b),
            Step(0, self.a, self.kicks[1])))

    def test_frames_apply_each_kick_after_its_pulse(self):
        plan = [(self.a, self.kicks[0]), (self.b, None), (self.a, self.kicks[1])]
        frame = np.eye(2, dtype=complex)
        for l, (prof, kick) in enumerate(plan):
            mid = control_propagator(self.sched, (l + 0.5) * 0.1)
            assert np.linalg.norm(mid - segment_product(prof.segments, 0.5) @ frame) <= 1e-12
            frame = segment_product(prof.segments) @ frame
            if kick is not None:
                frame = kick @ frame
            assert np.linalg.norm(self.sched.stroboscopic_frames()[l + 1] - frame) <= 1e-12
        assert self.sched.max_hamiltonian_norm == float("inf")

    def test_average_hamiltonian_matches_fine_grid(self):
        H0 = random_hermitian(4, np.random.default_rng(5))
        eye_e = np.eye(2)

        def integrand(t):
            u = np.kron(control_propagator(self.sched, t), eye_e)
            return u.conj().T @ H0 @ u

        cuts = np.concatenate([[0.0]] + [
            0.1 * (l + segment_cuts(step.profile.segments)[1:])
            for l, step in enumerate(self.sched.steps)])
        ref = fine_grid_integral(integrand, cuts, nodes=24) / self.sched.cycle_time
        got = average_hamiltonian(self.sched, H0)
        assert np.linalg.norm(got - ref) <= 1e-9


class TestFMapAndQMap:
    def setup_method(self):
        self.cp = carr_purcell_scenario()

    def test_carr_purcell_analytic_value(self):
        got = f_map(self.cp.profiles, SZ)
        np.testing.assert_allclose(got, (2 / np.pi) * SY, atol=1e-13, rtol=0)

    def test_identity_fixed(self):
        np.testing.assert_allclose(f_map(self.cp.profiles, np.eye(2)),
                                   np.eye(2), atol=1e-12)

    def test_commuting_operator_fixed(self):
        np.testing.assert_allclose(f_map(self.cp.profiles, SX), SX,
                                   atol=1e-12)

    def test_linearity_trace_hermiticity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = random_hermitian(2, rng)
            Y = random_hermitian(2, rng)
            a = rng.standard_normal()
            fx = f_map(self.cp.profiles, X)
            fy = f_map(self.cp.profiles, Y)
            fxy = f_map(self.cp.profiles, a * X + Y)
            assert np.linalg.norm(fxy - a * fx - fy) <= 1e-10
            assert abs(np.trace(fx) - np.trace(X)) <= 1e-10
            assert np.linalg.norm(fx - fx.conj().T) <= 1e-10

    def test_q_map_kills_sigma_z(self):
        assert np.linalg.norm(q_map(self.cp.rep, self.cp.profiles, SZ)) <= 1e-9

    def test_q_map_commutant_valued_random(self):
        rng = np.random.default_rng(4)
        sc = symmetric_s3_scenario()
        for _ in range(100):
            X = random_hermitian(8, rng)
            q = q_map(sc.rep, sc.profiles, X)
            worst = max(np.linalg.norm(q @ g - g @ q) for g in sc.rep.matrices)
            assert worst <= 1e-9

    def test_q_map_idempotent(self):
        rng = np.random.default_rng(5)
        for sc in (self.cp, pauli_scenario(1)):
            for _ in range(20):
                X = random_hermitian(2, rng)
                q1 = q_map(sc.rep, sc.profiles, X)
                q2 = q_map(sc.rep, sc.profiles, q1)
                assert np.linalg.norm(q2 - q1) <= 1e-9

    def test_q_map_identity_on_commutant(self):
        for sc in (self.cp, symmetric_s3_scenario()):
            for Y in commutant_basis(sc.rep):
                q = q_map(sc.rep, sc.profiles, Y)
                assert np.linalg.norm(q - pi_G(sc.rep, Y)) <= 1e-10

    def test_pauli_traceless_killed(self):
        sc = pauli_scenario(1)
        for u in (SX, SY, SZ):
            assert np.linalg.norm(q_map(sc.rep, sc.profiles, u)) <= 1e-9

    def test_theorem_fails_outside_algebra(self):
        # same group, but sigma_x realized through out-of-algebra rotations
        from eulerdd.pulses import piecewise_profile
        group, rep = close_group([SX])
        prof = piecewise_profile(group.generators[0], rep,
                                 [(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        assert not any(in_algebra(rep, rate) for _, rate in prof.segments)
        dev = np.linalg.norm(q_map(rep, {0: prof}, SZ) - pi_G(rep, SZ))
        assert dev > 1e-3


class TestResidualError:
    def test_carr_purcell_y_z_faults_vanish(self):
        sc = carr_purcell_scenario()
        for u in (SY, SZ):
            fault = FaultModel.constant([0], [0.1 * u])
            res = residual_error(sc.rep, sc.profiles, fault)
            assert np.linalg.norm(res) <= 1e-9

    def test_carr_purcell_x_fault_in_center(self):
        sc = carr_purcell_scenario()
        fault = FaultModel.constant([0], [0.1 * SX])
        res = residual_error(sc.rep, sc.profiles, fault)
        np.testing.assert_allclose(res, 0.1 * SX, atol=1e-9)
        assert hs_project(res, center_basis(sc.rep)) <= 1e-9

    def test_zero_fault(self):
        sc = carr_purcell_scenario()
        fault = FaultModel.constant([0], [np.zeros((2, 2))])
        assert np.linalg.norm(residual_error(sc.rep, sc.profiles, fault)) == 0.0

    def test_always_commutant_valued(self):
        rng = np.random.default_rng(6)
        sc = symmetric_s3_scenario()
        for _ in range(5):
            rates = [random_hermitian(8, rng), random_hermitian(8, rng)]
            fault = FaultModel.constant([0, 1], rates)
            res = residual_error(sc.rep, sc.profiles, fault)
            for g in sc.rep.matrices:
                assert np.linalg.norm(res @ g - g @ res) <= 1e-9

    def test_in_algebra_fault_lands_in_center(self):
        rng = np.random.default_rng(7)
        sc = symmetric_s3_scenario()
        cen = center_basis(sc.rep)
        alg = sc.rep.algebra_basis()
        for _ in range(5):
            rates = []
            for _ in range(2):
                coefs = rng.standard_normal(len(alg))
                m = sum(c * b for c, b in zip(coefs, alg))
                rates.append(m + m.conj().T)
            fault = FaultModel.constant([0, 1], rates)
            res = residual_error(sc.rep, sc.profiles, fault)
            assert hs_project(res, cen) <= 1e-9


class TestSimulation:
    def test_zero_drift_cyclic(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        u = simulate_cycles(drift, sc.schedule(0.1), cycles=1)
        assert phase_distance(np.eye(2), u) <= 1e-9

    def test_commuting_drift_free_evolution(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=0.3 * SX, H_E=np.zeros((1, 1)), couplings=())
        sched = sc.schedule(0.05)
        u = simulate_cycles(drift, sched, cycles=3)
        expected = _expm_herm(0.3 * SX, 3 * sched.cycle_time)
        assert phase_distance(expected, u) <= 1e-9

    def test_decoupling_distance_zero_drift(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        assert decoupling_distance(drift, sc.schedule(0.1)) <= 1e-9

    def test_distance_scales_quadratically(self):
        sc = carr_purcell_scenario()
        E = np.array([[0.4, 0.3], [0.3, -0.2]])
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=0.1 * np.eye(2) * 0,
                           couplings=((SZ, E),))
        d1 = decoupling_distance(drift, sc.schedule(0.02), cycles=2)
        d2 = decoupling_distance(drift, sc.schedule(0.01), cycles=2)
        assert d1 / d2 == pytest.approx(4.0, rel=0.15)

    def test_traceless_coupling_enforced(self):
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((2, 2)),
                           couplings=((np.eye(2), np.eye(2)),))
        with pytest.raises(ValueError):
            drift.validate()

    def test_faulty_simulation_runs(self):
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        fault = FaultModel.constant([0], [0.1 * SY])
        faulty = apply_fault(sc.schedule(0.01), fault)
        u = simulate_cycles(drift, faulty, cycles=2)
        dim = u.shape[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-9


def per_sub_interval_cycles(drift, scenario, dt, bangbang=False, fault=None,
                            cycles=1):
    """simulate_cycles as it was before steps were reused, built from the
    scenario's matrices, path and profiles: one exponential per segment of
    every sub-interval, and exp(-i g† H0 g dt) for every bang-bang
    sub-interval."""
    H0 = drift.total()
    de = drift.env_dim
    eye_e = np.eye(de)

    def lift(m):
        return np.kron(m, eye_e) if de > 1 else m

    u_cycle = np.eye(H0.shape[0], dtype=complex)
    if bangbang:
        for j in range(scenario.group.order):
            g = lift(scenario.rep.matrices[j])
            u_cycle = _expm_herm(g.conj().T @ H0 @ g, dt) @ u_cycle
    else:
        for color in scenario.path.colors:
            prof = scenario.profiles[color]
            fault_segs = fault.deltas.get(color) if fault else None
            for frac, k, fault_rate in merged_segments(prof, fault_segs):
                h_ctrl = lift((prof.segments[k][1] + fault_rate) / dt)
                u_cycle = _expm_herm(H0 + h_ctrl, frac * dt) @ u_cycle
    return np.linalg.matrix_power(u_cycle, cycles)


def finer_grid_fault(rng, dim, colors):
    fractions = (0.25, 0.25, 0.3, 0.2)
    return FaultModel(deltas={c: [(f, 0.1 * random_hermitian(dim, rng))
                                  for f in fractions] for c in colors})


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of every np.linalg.eigh call (pulses and dynamics look it up
    on np.linalg at call time)."""
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestSegmentReuse:
    """Each distinct segment is decomposed once: on its profile (eigenpairs,
    endpoint unitary), its schedule (frames), its drift (H0) and, in
    simulate_cycles, once per color."""

    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    @pytest.mark.parametrize("make,kind", [
        (carr_purcell_scenario, "eulerian"), (symmetric_s3_scenario, "eulerian"),
        (symmetric_s3_scenario, "fault"), (pauli_scenario, "fault"),
        (symmetric_s3_scenario, "bangbang"), (pauli_scenario, "bangbang"),
    ])
    def test_simulate_cycles_matches_per_sub_interval_loop(self, make, kind, env_dim):
        sc = make()
        drift = sc.generic_drift(env_dim=env_dim, seed=env_dim)
        if kind == "bangbang":
            sched = sc.bangbang(0.05)
        else:
            sched = sc.schedule(0.05)
        fault = None
        if kind == "fault":
            rng = np.random.default_rng(env_dim)
            fault = finer_grid_fault(rng, sc.rep.dimension, sorted(sc.profiles))
            sched = apply_fault(sched, fault)
        got = simulate_cycles(drift, sched, cycles=3)
        ref = per_sub_interval_cycles(drift, sc, 0.05, kind == "bangbang", fault,
                                      cycles=3)
        assert np.linalg.norm(got - ref) <= 1e-12

    @pytest.mark.parametrize("make", [carr_purcell_scenario, pauli_scenario,
                                      symmetric_s3_scenario])
    def test_cached_spectra_match_fresh_exponentials(self, make):
        rng = np.random.default_rng(11)
        profiles = list(make().profiles.values())
        profiles.append(random_profile(4, (0.4, 0.35, 0.25), rng))
        for prof in profiles:
            d = prof.segments[0][1].shape[0]
            fresh = np.eye(d, dtype=complex)
            for (frac, rate), (lam, V) in zip(prof.segments, prof.spectra):
                assert np.linalg.norm((V * lam) @ V.conj().T - rate) <= 1e-13
                fresh = _expm_herm(rate, frac) @ fresh
            assert np.linalg.norm(prof.endpoint_unitary() - fresh) <= 1e-13
            # part-way through the last segment
            frac, rate = prof.segments[-1]
            x = 1.0 - 0.5 * frac
            partial = _expm_herm(rate, 0.5 * frac)
            for f, r in prof.segments[-2::-1]:
                partial = partial @ _expm_herm(r, f)
            assert np.linalg.norm(prof.unitary_at(x) - partial) <= 1e-13

    def test_cached_arrays_are_shared_read_only(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule(0.01)
        drift = sc.generic_drift(env_dim=2)
        assert sched.stroboscopic_frames() is sched.stroboscopic_frames()
        assert drift.total() is drift.total()
        prof = sc.profiles[1]
        for a in (prof.endpoint_unitary(), prof.spectra[0][1],
                  sched.stroboscopic_frames()[3], drift.total()):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_control_propagator_reuses_frames_and_spectra(self, eigh_calls):
        sc = symmetric_s3_scenario()
        sched = sc.schedule(0.1)
        for prof in sc.profiles.values():
            prof.spectra
        del eigh_calls[:]
        for t in np.linspace(0.0, 2 * sched.cycle_time, 50):
            control_propagator(sched, t)
        assert eigh_calls == []

    def test_sweep_makes_one_joint_exponential_per_color_and_delta_t(
            self, eigh_calls, monkeypatch):
        sc = spin_flip_scenario(6)
        drift = sc.generic_drift(env_dim=2, seed=0)
        del eigh_calls[:]
        per_call = []
        real = dynamics.simulate_cycles

        def counted(*args, **kwargs):
            before = len(eigh_calls)
            out = real(*args, **kwargs)
            per_call.append(eigh_calls[before:])
            return out

        monkeypatch.setattr(dynamics, "simulate_cycles", counted)
        scaling_study(sc, [0.02, 0.01, 0.005], cycles=2, drift=drift)
        gamma = len(sc.group.generators)
        assert len(per_call) == 3
        for calls in per_call:
            assert calls == [(128, 128)] * gamma
        # the 64x64 segment rates were decomposed once, when their profiles
        # were built (piecewise_profile checks the realization), not here
        assert eigh_calls.count((64, 64)) == 0

    @pytest.mark.parametrize("points", [1, 3, 4])
    def test_sweep_decomposes_the_average_hamiltonian_once(
            self, eigh_calls, monkeypatch, points):
        # with the joint propagator stubbed out, the only eigh left is the
        # one of Hbar (8 x 2 = 16), which no delta_t changes
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        monkeypatch.setattr(dynamics, "simulate_cycles",
                            lambda drift, sched, cycles: np.eye(16))
        del eigh_calls[:]
        scaling_study(sc, [0.02 / 2 ** k for k in range(points)], drift=drift)
        assert eigh_calls == [(16, 16)]

    def test_verify_theorem_decomposes_each_segment_once(self, eigh_calls):
        sc = spin_flip_scenario(3)
        # building a profile decomposes its segments for the realization check
        assert all("spectra" in vars(p) for p in sc.profiles.values())
        del eigh_calls[:]
        verify_theorem(sc, trials=20)
        verify_theorem(sc, trials=20, seed=1)
        assert eigh_calls == []


def reversed_profile(profile):
    """u_rev(x) = u(1 - x) u(1)†: the segments in reverse order, each rate
    negated."""
    return PulseProfile(segments=tuple((frac, -rate)
                                       for frac, rate in profile.segments[::-1]))


def mirrored(schedule):
    """The forward steps, then the same steps backwards, each pulsing its
    profile reversed: one color carries two profiles."""
    back = tuple(Step(s.color, reversed_profile(s.profile))
                 for s in schedule.steps[::-1])
    return ControlSchedule(rep=schedule.rep, delta_t=schedule.delta_t,
                           steps=schedule.steps + back)


def with_fault(segments, fault_segments):
    """(fraction, rate) pieces of one sub-interval: the profile segments cut
    at the fault segment ends, each rate plus the fault rate there."""
    if fault_segments is None:
        return list(segments)
    ends = [np.cumsum([frac for frac, _ in segs]) for segs in (segments, fault_segments)]
    cuts = np.unique(np.round(np.concatenate([[0.0], *ends]), 15))

    def rate_at(segs, e, x):
        return segs[min(int(np.searchsorted(e, x)), len(segs) - 1)][1]

    return [(b - a, rate_at(segments, ends[0], 0.5 * (a + b))
             + rate_at(fault_segments, ends[1], 0.5 * (a + b)))
            for a, b in zip(cuts[:-1], cuts[1:])]


def per_step_cycles(drift, schedule, fault=None):
    """One cycle as a product of fresh exponentials, step by step: each
    step's own profile, with the fault of its color when ``fault`` is a
    FaultModel."""
    H0 = drift.total()
    eye_e = np.eye(drift.env_dim)
    dt = schedule.delta_t
    u = np.eye(H0.shape[0], dtype=complex)
    for step in schedule.steps:
        segs = step.profile.segments
        if fault is not None:
            segs = with_fault(segs, fault.deltas.get(step.color))
        for frac, rate in segs:
            u = _expm_herm(H0 + np.kron(rate / dt, eye_e), frac * dt) @ u
        if step.kick is not None:
            u = np.kron(step.kick, eye_e) @ u
    return u


class TestMirroredTimeline:
    """A timeline in which one color pulses two profiles (forward and
    reversed) is simulated step by step, not color by color."""

    @pytest.mark.parametrize("env_dim", [1, 2])
    @pytest.mark.parametrize("faulty", [False, True], ids=["ideal", "fault"])
    @pytest.mark.parametrize("make", [symmetric_s3_scenario, pauli_scenario,
                                      carr_purcell_scenario])
    def test_simulate_cycles_matches_per_step_product(self, make, faulty, env_dim):
        sc = make()
        sched = mirrored(sc.schedule(0.05))
        drift = sc.generic_drift(env_dim=env_dim, seed=3)
        fault = None
        if faulty:
            fault = finer_grid_fault(np.random.default_rng(env_dim),
                                     sc.rep.dimension, sorted(sc.profiles))
            sched = apply_fault(sched, fault)
        got = simulate_cycles(drift, sched)
        assert np.abs(got - per_step_cycles(drift, sched, fault)).max() <= 1e-12


@st.composite
def random_profile_sets(draw):
    """A monomial group with a random 1-3 segment profile per generator:
    random rates, the last one chosen to land on the generator."""
    gens = draw(monomial_groups())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    counts = [draw(st.integers(1, 3)) for _ in gens]
    return gens, seed, counts


class TestRandomMirroredTimelines:
    """Mirrored Eulerian timelines over random monomial groups: they close
    at the identity, keep the forward average Hamiltonian, and simulate
    as their step-by-step product, with and without a fault."""

    @settings(max_examples=25, deadline=None)
    @given(random_profile_sets())
    def test_mirrored_cycle_identities(self, case):
        gens, seed, counts = case
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        rng = np.random.default_rng(seed)
        d = rep.dimension
        profiles = {}
        for c, g in enumerate(group.generators):
            fracs = rng.uniform(0.2, 1.0, counts[c])
            fracs /= fracs.sum()
            rates = [random_hermitian(d, rng) for _ in fracs[:-1]]
            u = np.eye(d, dtype=complex)
            for frac, rate in zip(fracs, rates):
                u = _expm_herm(rate, frac) @ u
            rates.append(hermitian_log(rep.matrices[g] @ u.conj().T) / fracs[-1])
            try:
                profiles[c] = piecewise_profile(g, rep, list(zip(fracs, rates)))
            except RealizationError:
                assume(False)
        forward = eulerian_schedule(eulerian_cycle(build_cayley(group)),
                                    profiles, 0.05, rep)
        back = mirrored(forward)
        assert np.linalg.norm(back.stroboscopic_frames()[-1] - np.eye(d)) <= 1e-12

        S = random_hermitian(d, rng)
        drift = DriftModel(H_S=random_hermitian(d, rng), H_E=random_hermitian(2, rng),
                           couplings=((S - np.trace(S) / d * np.eye(d),
                                       random_hermitian(2, rng)),))
        H0 = drift.total()
        assert np.linalg.norm(average_hamiltonian(back, H0)
                              - average_hamiltonian(forward, H0)) <= 1e-12

        fault = finer_grid_fault(rng, d, sorted(profiles))
        for sched, f in ((back, None), (apply_fault(back, fault), fault)):
            got = simulate_cycles(drift, sched)
            assert np.abs(got - per_step_cycles(drift, sched, f)).max() <= 1e-12
