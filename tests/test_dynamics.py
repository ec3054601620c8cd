"""Tests for propagators, toggling-frame averages, and joint simulation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerdd import analysis, dynamics
from eulerdd.analysis import (SIGMA, carr_purcell_scenario, pauli_scenario,
                              random_hermitian, scaling_study, spin_flip_scenario,
                              symmetric_s3_scenario, verify_theorem)
from eulerdd.dynamics import (DriftModel, UnitarityError,
                              _eigenbasis_integral, average_hamiltonian,
                              decoupling_distance, q_map, residual_error,
                              simulate_cycles)
from eulerdd.cayley import EulerPath, eulerian_cycle
from eulerdd.group_theory import (GroupClosureError, close_group,
                                  commutator_norms, equal_up_to_phase, in_algebra,
                                  pi_G)
from eulerdd.pulses import (ControlSchedule, PathMismatchError, PulseProfile,
                            RealizationError, Step, _expm_eig, _expm_herm,
                            _involution_unitary, apply_fault, constant_profile, eulerian_schedule,
                            merged_segments, phase_distance, piecewise_profile)
from test_group_theory import (PROPERTY_MAX_ORDER, _monomial, algebra_basis,
                               center_basis, commutant_basis, conjugated,
                               dense, f_map, hermitian_log, hermitian_monomials,
                               monomial_groups, multiply, pauli_generators,
                               pauli_pairs, subspace_distance)

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
        assert phase_distance(SX, prof.endpoint_unitary()) <= 1e-10

    def test_zero_hamiltonian(self):
        # zero drift, and bang-bang kicks conjugate it to zero: u is I itself
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((3, 3)),
                           couplings=())
        u = simulate_cycles(drift, sc.bangbang(), 0.1, cycles=2)
        np.testing.assert_allclose(u, np.eye(6), atol=1e-14)

    def test_s3_two_factor_product(self):
        sc = symmetric_s3_scenario()
        target = sc.rep.matrices[sc.group.generators[1]]
        assert phase_distance(target, sc.profiles[1].endpoint_unitary()) <= 1e-9

    def test_unitarity(self):
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        u = simulate_cycles(drift, sc.schedule(), 0.05, cycles=3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(16)) <= 1e-10 * 16


class TestControlPropagator:
    """The test-local ``control_propagator`` oracle, from the product
    frames and each profile's u(x)."""

    def test_eulerian_z2_at_delta_t(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule()
        assert equal_up_to_phase(control_propagator(sched, 0.1, 0.1), SX, 1e-9)

    def test_identity_at_zero(self):
        sc = pauli_scenario(1)
        for sched in (sc.schedule(), sc.bangbang()):
            np.testing.assert_allclose(control_propagator(sched, 0.0, 0.1),
                                       np.eye(2), atol=1e-12)

    def test_closure_at_cycle_time(self):
        sc = pauli_scenario(1)
        sched = sc.schedule()
        u = control_propagator(sched, sched.sub_intervals * 0.1, 0.1)
        assert equal_up_to_phase(u, np.eye(2), 1e-9)

    def test_cyclicity(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule()
        for t in (0.03, 0.15):
            a = control_propagator(sched, t, 0.1)
            b = control_propagator(sched, t + sched.sub_intervals * 0.1, 0.1)
            assert phase_distance(a, b) <= 1e-9

    def test_bangbang_piecewise_constant(self):
        sc = pauli_scenario(1)
        bb = sc.bangbang()
        for ell in range(4):
            u = control_propagator(bb, ell * 0.1 + 0.05, 0.1)
            np.testing.assert_allclose(u, sc.rep.matrices[ell], atol=1e-12)


class TestAverageHamiltonian:
    def test_bangbang_z2_kills_sigma_z(self):
        sc = carr_purcell_scenario()
        avg = average_hamiltonian(sc.bangbang(), SZ)
        np.testing.assert_allclose(avg, np.zeros((2, 2)), atol=1e-12)

    def test_eulerian_z2_kills_sigma_z(self):
        sc = carr_purcell_scenario()
        avg = average_hamiltonian(sc.schedule(), SZ)
        assert np.linalg.norm(avg) <= 1e-7

    def test_invariant_operator_unchanged(self):
        sc = carr_purcell_scenario()
        H0 = 0.4 * SX + 0.1 * np.eye(2)
        avg = average_hamiltonian(sc.schedule(), H0)
        np.testing.assert_allclose(avg, H0, atol=1e-10)

    @pytest.mark.parametrize("make", [carr_purcell_scenario,
                                      symmetric_s3_scenario,
                                      lambda: pauli_scenario(2)])
    def test_bangbang_is_group_average_on_joint_space(self, make):
        sc = make()
        H0 = random_hermitian(2 * sc.rep.dimension, np.random.default_rng(1))
        lifted = [np.kron(g, np.eye(2)) for g in sc.rep.matrices]
        expected = sum(g.conj().T @ H0 @ g for g in lifted) / len(lifted)
        np.testing.assert_allclose(average_hamiltonian(sc.bangbang(), H0),
                                   expected, atol=1e-12)

    def test_non_hermitian_rejected(self):
        sc = carr_purcell_scenario()
        with pytest.raises(ValueError):
            average_hamiltonian(sc.schedule(), SX + 1j * np.eye(2))


class TestExactKernel:
    @pytest.mark.parametrize("d,fractions", [
        (2, (0.4, 0.6)), (3, (0.25, 0.35, 0.4)), (4, (0.5, 0.2, 0.3)),
    ])
    def test_f_map_matches_fine_grid(self, d, fractions):
        rng = np.random.default_rng(d)
        profiles = {c: random_profile(d, fractions, rng) for c in range(2)}
        X = random_hermitian(d, rng)
        ref = sum(fine_grid_integral(
            lambda x, p=p: unitary_at(p, x).conj().T @ X @ unitary_at(p, x),
            segment_cuts(p.segments)) for p in profiles.values()) / 2
        assert np.linalg.norm(f_map(profiles, X) - ref) <= 1e-10

    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_stack_matches_per_operator(self, env_dim):
        # the segment integrals of a stack are those of its operators: here
        # four (d_E, d_E, d, d) block stacks of joint operators, as
        # average_hamiltonian passes them
        rng = np.random.default_rng(env_dim)
        d = 3
        spectra = [(0.3, np.linalg.eigh(random_hermitian(d, rng))),
                   (0.7, np.linalg.eigh(random_hermitian(d, rng)))]
        X = np.array([random_hermitian(d * env_dim, rng) for _ in range(4)])
        X = np.ascontiguousarray(
            X.reshape(4, d, env_dim, d, env_dim).transpose(0, 2, 4, 1, 3))
        got = _eigenbasis_integral([(f, spec, X) for f, spec in spectra])
        ref = [_eigenbasis_integral([(f, spec, x) for f, spec in spectra])
               for x in X.reshape(-1, d, d)]
        assert np.array_equal(got.reshape(-1, d, d), ref)

    def test_joint_average_hamiltonian_matches_fine_grid(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        H0 = sc.generic_drift(env_dim=2, seed=1).total()
        dt, eye_e = 0.1, np.eye(2)

        def integrand(t):
            u = np.kron(control_propagator(sched, t, dt), eye_e)
            return u.conj().T @ H0 @ u

        cuts = np.arange(2 * sched.sub_intervals + 1) * (dt / 2)
        ref = fine_grid_integral(integrand, cuts, nodes=24) / (sched.sub_intervals * dt)
        got = average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - ref) <= 1e-10

    def test_residual_error_on_finer_fault_grid(self):
        rng = np.random.default_rng(8)
        sc = symmetric_s3_scenario()
        fractions = (0.25, 0.25, 0.3, 0.2)
        fault = {c: [(f, 0.1 * random_hermitian(8, rng)) for f in fractions]
                 for c in (0, 1)}
        cuts = segment_cuts(fault[0])

        def fault_at(c, x):
            return fault[c][np.searchsorted(cuts, x) - 1][1]

        ref = sum(fine_grid_integral(
            lambda x, c=c: (unitary_at(sc.profiles[c], x).conj().T @ fault_at(c, x)
                            @ unitary_at(sc.profiles[c], x)), cuts)
            for c in (0, 1)) / 2
        got = residual_error(apply_fault(sc.schedule(), fault))
        assert np.linalg.norm(got - pi_G(sc.rep, ref)) <= 1e-10


@st.composite
def pauli_segments(draw):
    """A signed Hermitian Pauli string A on n <= 5 qubits, an angle θ in
    (0, 2π], a fraction f in (0, 1], an X of shape (d, d), (3, d, d) or
    (2, 2, d, d), and the seed of that X."""
    n = draw(st.integers(1, 5))
    letters = draw(st.text("ixyz", min_size=n, max_size=n))
    sign = draw(st.sampled_from([1.0, -1.0]))
    theta = draw(st.floats(0.0, 2 * np.pi, exclude_min=True))
    frac = draw(st.floats(0.0, 1.0, exclude_min=True))
    lead = draw(st.sampled_from([(), (3,), (2, 2)]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return sign * analysis._pauli_string(letters).dense(), theta, frac, lead, seed


def counted_kernels(monkeypatch):
    """Calls of the closed-form and the eigenbasis kernels, by name."""
    calls = []
    for name in ("_involution_integral", "_eigenbasis_integral"):
        real = getattr(dynamics, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(dynamics, name, counted)
    return calls


class TestInvolutionIntegral:
    """A one-segment profile whose rate is θA, A a monomial Hermitian
    involution, is integrated in closed form; every other segment list in
    the eigenbasis."""

    @settings(max_examples=60, deadline=None)
    @given(pauli_segments())
    def test_closed_form_equals_the_eigenbasis_kernel(self, case):
        A, theta, frac, lead, seed = case
        d = A.shape[0]
        prof = PulseProfile(segments=((frac, theta * A),))
        assert prof.involution is not None
        rng = np.random.default_rng(seed)
        X = (rng.standard_normal((*lead, d, d))
             + 1j * rng.standard_normal((*lead, d, d)))
        got = dynamics._involution_integral(frac, prof.involution, X)
        want = _eigenbasis_integral([(frac, prof.spectra[0], X)])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(X)

    def test_sinc_equals_numpy_bit_for_bit(self):
        # at 0, at a subnormal, at multiples of 1/π (where π t rounds near
        # a multiple of π) and at random points of several scales
        rng = np.random.default_rng(66)
        points = [0.0, 5e-324, 2.5e-310, -1e-320,
                  *(k / np.pi for k in range(-8, 9)),
                  *rng.uniform(-10.0, 10.0, 2000),
                  *rng.uniform(0.0, 1e-3, 2000),
                  *10.0 ** rng.uniform(-300.0, 2.0, 2000)]
        for t in map(float, points):
            got = dynamics._sinc(t)
            assert np.float64(got).tobytes() == np.sinc(t).tobytes(), t

    @pytest.mark.parametrize("make", [carr_purcell_scenario, pauli_scenario,
                                      spin_flip_scenario,
                                      lambda: pauli_scenario(2),
                                      lambda: spin_flip_scenario(5)],
                             ids=["carr-purcell", "pauli", "spin-flip",
                                  "pauli-2", "spin-flip-5"])
    def test_closed_form_runs_for_pauli_string_profiles(self, make, monkeypatch):
        sc = make()
        d = sc.rep.dimension
        assert all(p.involution is not None for p in sc.profiles.values())
        calls = counted_kernels(monkeypatch)
        X = random_hermitian(d, np.random.default_rng(0))
        f_map(sc.profiles, X)
        q_map(sc.schedule(), np.array([X, X]))
        # one-piece faults, and a color the fault leaves out
        residual_error(apply_fault(sc.schedule(), {0: [(1.0, 0.1 * X)]}))
        average_hamiltonian(sc.schedule(), sc.generic_drift(env_dim=2).total())
        assert set(calls) == {"_involution_integral"}

    @pytest.mark.parametrize("case", ["symmetric-s3", "conjugated-pauli",
                                      "diag-1-2", "split-fault", "bang-bang"])
    def test_every_other_segment_list_takes_the_eigenbasis(self, case,
                                                           monkeypatch):
        sc = carr_purcell_scenario()
        rep, profiles, sched = sc.rep, sc.profiles, sc.schedule()
        if case == "symmetric-s3":
            sc = symmetric_s3_scenario()
            rep, profiles, sched = sc.rep, sc.profiles, sc.schedule()
        elif case == "conjugated-pauli":
            gens = conjugated(pauli_generators(1), 3)
            group, rep = close_group(gens)
            profiles = {c: constant_profile(g, rep, axis)
                        for c, (g, axis) in enumerate(zip(group.generators, gens))}
            sched = eulerian_schedule(eulerian_cycle(group), profiles, rep)
        elif case == "diag-1-2":
            # |entries| 1 and 2: no θ makes A = rate / θ an involution; the
            # profile realizes no element, so no schedule pulses it
            profiles = {0: PulseProfile(segments=((1.0, np.diag([1.0, 2.0])),))}
            sched = None
        X = random_hermitian(rep.dimension, np.random.default_rng(1))
        calls = counted_kernels(monkeypatch)
        if case == "split-fault":
            # a one-segment Pauli profile under a fault of two pieces
            residual_error(apply_fault(sched, {0: [(0.5, 0.1 * SZ), (0.5, 0.1 * SY)]}))
        elif case == "bang-bang":
            sched = sc.bangbang()
            assert {s.profile.involution for s in sched.steps} == {None}
            average_hamiltonian(sched, X)
        else:
            assert {p.involution for p in profiles.values()} == {None}
            f_map(profiles, X)
            if sched is not None:
                residual_error(apply_fault(sched, {0: [(1.0, X)]}))
        assert set(calls) == {"_eigenbasis_integral"}

    @pytest.mark.parametrize("make", [carr_purcell_scenario,
                                      lambda: spin_flip_scenario(4),
                                      symmetric_s3_scenario],
                             ids=["carr-purcell", "spin-flip-4", "symmetric-s3"])
    @pytest.mark.parametrize("kind", ["eulerian", "bangbang"])
    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_average_hamiltonian_equals_the_stacked_form(self, make, kind,
                                                         env_dim):
        # bang-bang's frames are its elements exactly, with entries 0 and
        # ±1, so its gathers have the bits of the dense products over the
        # (d_E, d_E, d, d) stack of blocks; an Eulerian schedule's product
        # frames are its elements only to rounding, and so its average
        sc = make()
        sched = sc.schedule() if kind == "eulerian" else sc.bangbang()
        H0 = sc.generic_drift(env_dim=env_dim, seed=env_dim).total()
        want = dense_average_hamiltonian(sched, H0)
        got = average_hamiltonian(sched, H0)
        if kind == "bangbang":
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def dense_average_hamiltonian(sched, H0):
    """H̄ from the (d_E, d_E, d, d) stack of blocks of H0: each distinct
    profile's integral of the stack, conjugated by the frame of every step
    that pulses it, in time order."""
    d = sched.rep.dimension
    de = H0.shape[0] // d
    blocks = np.ascontiguousarray(H0.reshape(d, de, d, de).transpose(1, 3, 0, 2))
    averaged = {p: dynamics._sub_interval_integral(p, blocks)
                for p in dict.fromkeys(s.profile for s in sched.steps)}
    acc = np.zeros_like(blocks)
    for frame, step in zip(sched.stroboscopic_frames(), sched.steps):
        acc += frame.conj().T @ averaged[step.profile] @ frame
    want = acc.transpose(2, 0, 3, 1).reshape(H0.shape)
    want /= sched.sub_intervals
    want += want.conj().T
    want *= 0.5
    return want


def unitary_at(profile, x):
    """u(x) of ``profile`` for fraction x in [0, 1] of the sub-interval:
    cos(xθ) I - i sin(xθ) A for a profile with involution data, and
    otherwise the product of the segments' exponentials from their
    eigenpairs, the last one up to x."""
    if profile.involution is not None:
        frac = profile.segments[0][0]
        theta, rows, phases = profile.involution
        return _involution_unitary(theta * (frac if x >= frac - 1e-15 else x),
                                   rows, phases)
    u = np.eye(profile.segments[0][1].shape[0], dtype=complex)
    pos = 0.0
    for (frac, _), (lam, V) in zip(profile.segments, profile.spectra):
        if x >= pos + frac - 1e-15:
            u = _expm_eig(lam, V, frac) @ u
        else:
            u = _expm_eig(lam, V, x - pos) @ u
            break
        pos += frac
    return u


def control_propagator(schedule, t, delta_t):
    """U_c(t) for sub-intervals ``delta_t``, t >= 0 reduced modulo the
    cycle time: step l's u(s) after the product frame f_l."""
    t = t % (schedule.sub_intervals * delta_t)
    ell = int(t // delta_t)
    s = t - ell * delta_t
    frame = schedule.stroboscopic_frames()[ell]
    return unitary_at(schedule.steps[ell].profile, s / delta_t) @ frame


class TestGatheredAverage:
    """An Eulerian schedule of a monomial representation conjugates by
    gathers over its path's vertices; the dense frame products agree."""

    @pytest.mark.parametrize("make", [carr_purcell_scenario,
                                      lambda: pauli_scenario(2),
                                      lambda: spin_flip_scenario(4),
                                      symmetric_s3_scenario],
                             ids=["carr-purcell", "pauli-2", "spin-flip-4",
                                  "symmetric-s3"])
    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_gathers_equal_the_frame_products(self, make, env_dim,
                                              monkeypatch):
        sc = make()
        sched = sc.schedule()
        H0 = sc.generic_drift(env_dim=env_dim, seed=env_dim).total()
        calls = []
        real = dynamics.conjugation_sum
        monkeypatch.setattr(dynamics, "conjugation_sum",
                            lambda *a, **k: calls.append(a[2]) or real(*a, **k))
        got = average_hamiltonian(sched, H0)
        # one gather call: every profile of an Eulerian cycle pulses at
        # each vertex once, so their integrals are summed first, over every
        # element in order (elements=None), with no index array
        assert calls == [None]
        want = dense_average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 2, 3]))
    def test_random_monomial_groups(self, gens, seed, env_dim):
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        profiles = {c: piecewise_profile(g, rep, [(1.0, hermitian_log(rep.matrices[g]))])
                    for c, g in enumerate(group.generators)}
        sched = eulerian_schedule(eulerian_cycle(group), profiles, rep)
        assert rep.monomial() is not None
        H0 = random_hermitian(rep.dimension * env_dim, np.random.default_rng(seed))
        want = dense_average_hamiltonian(sched, H0)
        got = average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)

    @pytest.mark.parametrize("env_dim", [1, 2])
    def test_one_color_pulsing_two_profiles(self, env_dim, monkeypatch):
        # a step of color 0 pulses another profile that realizes the same
        # generator: each profile's gather runs over its own vertices
        sc = pauli_scenario(1)
        sched = sc.schedule()
        rng = np.random.default_rng(env_dim)
        gen = sc.group.generators[0]
        A = random_hermitian(2, rng)
        back = hermitian_log(sc.rep.matrices[gen] @ _expm_herm(A, -1.0))
        other = piecewise_profile(gen, sc.rep, [(0.5, 2 * A), (0.5, 2 * back)])
        steps = (Step(0, other),) + sched.steps[1:]
        mixed = ControlSchedule(rep=sc.rep, steps=steps, path=sched.path)
        calls = []
        real = dynamics.conjugation_sum
        monkeypatch.setattr(dynamics, "conjugation_sum",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        H0 = random_hermitian(2 * env_dim, rng)
        got = average_hamiltonian(mixed, H0)
        assert len(calls) == 3
        want = dense_average_hamiltonian(mixed, H0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("make", [
        lambda: carr_purcell_scenario().bangbang(),
        lambda: pauli_scenario(2).bangbang(),
        lambda: hadamard_schedule(),
        lambda: mirrored(pauli_scenario(2).schedule()),
        lambda: mirrored(spin_flip_scenario(4).schedule()),
        lambda: mirrored(symmetric_s3_scenario().schedule())],
        ids=["bangbang-carr-purcell", "bangbang-pauli-2", "hadamard",
             "mirrored-pauli-2", "mirrored-spin-flip-4", "mirrored-symmetric-s3"])
    @pytest.mark.parametrize("env_dim", [1, 2])
    def test_every_walk_conjugates_by_its_vertices(self, make, env_dim,
                                                   monkeypatch):
        # kicks (bang-bang), products of a representation that is not
        # monomial (Hadamard) and one color pulsing two profiles (mirrored):
        # every pulse visits each vertex once, so one conjugation_sum of
        # the summed integrals, equal to the frames
        sched = make()
        calls = []
        real = dynamics.conjugation_sum
        monkeypatch.setattr(dynamics, "conjugation_sum",
                            lambda *a, **k: calls.append(a[2]) or real(*a, **k))
        rng = np.random.default_rng(env_dim)
        H0 = random_hermitian(sched.rep.dimension * env_dim, rng)
        got = average_hamiltonian(sched, H0)
        assert calls == [None]
        want = dense_average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def hadamard_schedule():
    """The Eulerian schedule of the Hadamard group {I, H}, a representation
    that is not monomial: every entry of H is nonzero."""
    had = (SX + SZ) / np.sqrt(2)
    group, rep = close_group([had])
    assert rep.monomial() is None
    return eulerian_schedule(eulerian_cycle(group),
                             {0: constant_profile(1, rep, had)}, rep)


class TestScheduleWalk:
    """A schedule's path is the walk of its steps, from which the average
    reads the frames: a schedule needs one, and a path that does not match
    the steps is refused at construction."""

    def test_bangbang_walks_the_elements_in_order(self):
        sched = pauli_scenario(1).bangbang()
        assert sched.path.colors == (None,) * 4
        assert sched.path.vertices == (0, 1, 2, 3, 0)

    def test_schedule_without_a_path_is_a_type_error(self):
        sched = carr_purcell_scenario().schedule()
        with pytest.raises(TypeError, match="path"):
            ControlSchedule(rep=sched.rep, steps=sched.steps)
        with pytest.raises(TypeError, match="path"):
            ControlSchedule(sched.rep, sched.steps)

    def test_path_of_other_steps_is_refused(self):
        # the mirrored timeline's 128 steps with the forward path's 64
        # colors and 65 vertices
        forward = pauli_scenario(2).schedule()
        steps = mirrored(forward).steps
        assert (len(steps), len(forward.path.vertices)) == (128, 65)
        with pytest.raises(PathMismatchError, match="the path of 64 colors and "
                                                    "65 vertices is not the walk "
                                                    "of the 128 steps"):
            ControlSchedule(rep=forward.rep, steps=steps, path=forward.path)
        # a replace checks it too
        with pytest.raises(PathMismatchError):
            replace(forward, steps=forward.steps[:-1])

    def test_path_one_vertex_short_is_refused(self):
        sched = mirrored(carr_purcell_scenario().schedule())
        short = EulerPath(colors=sched.path.colors,
                          vertices=sched.path.vertices[:-1])
        with pytest.raises(PathMismatchError, match="it needs their colors "
                                                    "and 5 vertices"):
            replace(sched, path=short)

    def test_all_zero_walk_is_refused(self):
        # the right colors and count, but every vertex the identity: the
        # first pulse realizes generator 0, not the move from 0 to 0
        sched = pauli_scenario(2).schedule()
        zeros = EulerPath(colors=sched.path.colors,
                          vertices=(0,) * len(sched.path.vertices))
        with pytest.raises(RealizationError, match="the pulse of step 0 does "
                                                   "not realize element 0"):
            ControlSchedule(rep=sched.rep, steps=sched.steps, path=zeros)
        with pytest.raises(RealizationError):
            replace(sched, path=zeros)

    @pytest.mark.parametrize("where", [1, -1])
    def test_vertex_outside_the_group_is_refused(self, where):
        sched = pauli_scenario(2).schedule()
        verts = list(sched.path.vertices)
        verts[where] = 16
        with pytest.raises(PathMismatchError, match=r"must be elements 0\.\.15"):
            replace(sched, path=EulerPath(sched.path.colors, tuple(verts)))
        verts[where] = -1
        with pytest.raises(PathMismatchError, match="must be elements"):
            replace(sched, path=EulerPath(sched.path.colors, tuple(verts)))

    def test_walk_not_starting_at_the_identity_is_refused(self):
        sched = pauli_scenario(1).bangbang()
        verts = (1, 2, 3, 0, 1)
        with pytest.raises(PathMismatchError, match="vertex 0 first"):
            replace(sched, path=EulerPath(sched.path.colors, verts))

    def test_wrong_vertex_one_is_refused(self):
        # step 0 pulses the generator of its color, which moves the identity
        # to vertex 1; another generator there is a move it does not make
        sched = pauli_scenario(2).schedule()
        gens = sched.rep.group.generators
        verts = list(sched.path.vertices)
        c = sched.path.colors[0]
        assert verts[1] == gens[c]
        verts[1] = g = gens[1 - c]
        with pytest.raises(RealizationError, match=f"the pulse of step 0 does "
                                                   f"not realize element {g}, "
                                                   f"which moves vertex 0 to {g}"):
            replace(sched, path=EulerPath(sched.path.colors, tuple(verts)))

    def test_later_step_off_its_pulse_is_refused(self):
        # vertex 40 moved: steps 39 and 40 pulse profiles whose moves were
        # read at their first steps, and step 39 is the first that breaks it
        sched = pauli_scenario(2).schedule()
        verts = list(sched.path.vertices)
        verts[40] = next(v for v in range(16) if v != verts[40])
        with pytest.raises(PathMismatchError, match="step 39 does not move "
                                                    f"vertex {verts[39]} to "
                                                    f"{verts[40]}"):
            replace(sched, path=EulerPath(sched.path.colors, tuple(verts)))

    def test_kick_that_does_not_realize_its_move_is_refused(self):
        # bang-bang's step 1 kicks g_2 g_1† from vertex 1 to 2; the
        # identity kick does not make that move
        sched = pauli_scenario(1).bangbang()
        steps = list(sched.steps)
        steps[1] = replace(steps[1], kick=sched.rep.matrices[0])
        with pytest.raises(RealizationError, match="the pulse of step 1 does not "
                                                   "realize element "):
            replace(sched, steps=tuple(steps))

    @pytest.mark.parametrize("make", [
        lambda: carr_purcell_scenario().bangbang(),
        lambda: pauli_scenario(2).bangbang(),
        lambda: mirrored(pauli_scenario(2).schedule()),
        lambda: mirrored(symmetric_s3_scenario().schedule())],
        ids=["bangbang-carr-purcell", "bangbang-pauli-2", "mirrored-pauli-2",
             "mirrored-symmetric-s3"])
    def test_bangbang_and_mirrored_walks_are_held(self, make):
        # both are built through the walk check: every pulse realizes the
        # move of each step that carries it
        sched = make()
        assert len(sched.path.vertices) == len(sched.steps) + 1


def segment_product(segments, x=1.0):
    """u(x) of (fraction, rate) segments, one _expm_herm per segment."""
    u = np.eye(segments[0][1].shape[0], dtype=complex)
    pos = 0.0
    for frac, rate in segments:
        u = _expm_herm(rate, min(frac, max(x - pos, 0.0))) @ u
        pos += frac
    return u


class TestKickedTimeline:
    """A kicked walk in the Pauli n=1 group: a two-segment pulse and a
    constant one, each realizing its generator, and kicks that are
    elements, so frame l is the element of vertex l, read from the group
    table.  The frames follow f_{l+1} = K_l u_l(1) f_l, and the average
    Hamiltonian is the time average of the control propagator."""

    def setup_method(self):
        sc = pauli_scenario(1)
        group, rep = sc.group, sc.rep
        x, z = group.generators
        y = multiply(group, x, z)
        rng = np.random.default_rng(21)
        A = random_hermitian(2, rng)
        back = hermitian_log(rep.matrices[x] @ _expm_herm(A, -1.0))
        a = piecewise_profile(x, rep, [(0.4, A / 0.4), (0.6, back / 0.6)])
        # (color, profile, kick element or None)
        plan = [(0, a, z), (1, sc.profiles[1], None), (0, a, y)]
        self.vertices = [0]
        for color, _, kick in plan:
            v = multiply(group, group.generators[color], self.vertices[-1])
            self.vertices.append(v if kick is None else multiply(group, kick, v))
        steps = tuple(Step(color, prof, None if kick is None else rep.matrices[kick])
                      for color, prof, kick in plan)
        self.sched = ControlSchedule(rep=rep, steps=steps, path=EulerPath(
            colors=tuple(s.color for s in steps), vertices=tuple(self.vertices)))

    def test_frames_apply_each_kick_after_its_pulse(self):
        frame = np.eye(2, dtype=complex)
        for l, step in enumerate(self.sched.steps):
            mid = control_propagator(self.sched, (l + 0.5) * 0.1, 0.1)
            segs = step.profile.segments
            assert np.linalg.norm(mid - segment_product(segs, 0.5) @ frame) <= 1e-12
            frame = segment_product(segs) @ frame
            if step.kick is not None:
                frame = step.kick @ frame
            assert np.linalg.norm(self.sched.stroboscopic_frames()[l + 1] - frame) <= 1e-12
        assert self.sched.max_rate_norm == float("inf")

    def test_average_hamiltonian_matches_fine_grid(self):
        sched, rep = self.sched, self.sched.rep
        for frame, v in zip(sched.stroboscopic_frames(), self.vertices):
            assert equal_up_to_phase(frame, rep.matrices[v], 1e-9)
        H0 = random_hermitian(4, np.random.default_rng(5))
        eye_e = np.eye(2)

        def integrand(t):
            u = np.kron(control_propagator(sched, t, 0.1), eye_e)
            return u.conj().T @ H0 @ u

        cuts = np.concatenate([[0.0]] + [
            0.1 * (l + segment_cuts(step.profile.segments)[1:])
            for l, step in enumerate(sched.steps)])
        ref = fine_grid_integral(integrand, cuts, nodes=24) / (3 * 0.1)
        got = average_hamiltonian(sched, H0)
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
        assert np.linalg.norm(q_map(self.cp.schedule(), SZ)) <= 1e-9

    def test_q_map_commutant_valued_random(self):
        rng = np.random.default_rng(4)
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        for _ in range(100):
            X = random_hermitian(8, rng)
            q = q_map(sched, X)
            worst = max(np.linalg.norm(q @ g - g @ q) for g in sc.rep.matrices)
            assert worst <= 1e-9

    def test_q_map_idempotent(self):
        rng = np.random.default_rng(5)
        for sc in (self.cp, pauli_scenario(1)):
            sched = sc.schedule()
            for _ in range(20):
                X = random_hermitian(2, rng)
                q1 = q_map(sched, X)
                q2 = q_map(sched, q1)
                assert np.linalg.norm(q2 - q1) <= 1e-9

    def test_q_map_identity_on_commutant(self):
        for sc in (self.cp, symmetric_s3_scenario()):
            for Y in commutant_basis(sc.rep):
                q = q_map(sc.schedule(), Y)
                assert np.linalg.norm(q - pi_G(sc.rep, Y)) <= 1e-10

    def test_pauli_traceless_killed(self):
        sc = pauli_scenario(1)
        for u in (SX, SY, SZ):
            assert np.linalg.norm(q_map(sc.schedule(), u)) <= 1e-9

    def test_theorem_fails_outside_algebra(self):
        # same group, but sigma_x realized through out-of-algebra rotations
        from eulerdd.pulses import piecewise_profile
        group, rep = close_group([SX])
        prof = piecewise_profile(group.generators[0], rep,
                                 [(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        assert not any(in_algebra(rep, rate) for _, rate in prof.segments)
        sched = eulerian_schedule(eulerian_cycle(group), {0: prof}, rep)
        dev = np.linalg.norm(q_map(sched, SZ) - pi_G(rep, SZ))
        assert dev > 1e-3


def faulted_residual(sc, fault):
    """The residual of ``fault`` on the scenario's Eulerian schedule."""
    return residual_error(apply_fault(sc.schedule(), fault))


class TestResidualError:
    def test_carr_purcell_y_z_faults_vanish(self):
        sc = carr_purcell_scenario()
        for u in (SY, SZ):
            res = faulted_residual(sc, {0: [(1.0, 0.1 * u)]})
            assert np.linalg.norm(res) <= 1e-9

    def test_carr_purcell_x_fault_in_center(self):
        sc = carr_purcell_scenario()
        res = faulted_residual(sc, {0: [(1.0, 0.1 * SX)]})
        np.testing.assert_allclose(res, 0.1 * SX, atol=1e-9)
        assert hs_project(res, center_basis(sc.rep)) <= 1e-9

    def test_zero_fault(self):
        sc = carr_purcell_scenario()
        fault = {0: [(1.0, np.zeros((2, 2)))]}
        assert np.linalg.norm(faulted_residual(sc, fault)) == 0.0

    def test_always_commutant_valued(self):
        rng = np.random.default_rng(6)
        sc = symmetric_s3_scenario()
        for _ in range(5):
            fault = {c: [(1.0, random_hermitian(8, rng))] for c in (0, 1)}
            res = faulted_residual(sc, fault)
            for g in sc.rep.matrices:
                assert np.linalg.norm(res @ g - g @ res) <= 1e-9

    def test_in_algebra_fault_lands_in_center(self):
        rng = np.random.default_rng(7)
        sc = symmetric_s3_scenario()
        cen = center_basis(sc.rep)
        alg = algebra_basis(sc.rep)
        for _ in range(5):
            fault = {}
            for color in range(2):
                coefs = rng.standard_normal(len(alg))
                m = sum(c * b for c, b in zip(coefs, alg))
                fault[color] = [(1.0, m + m.conj().T)]
            res = faulted_residual(sc, fault)
            assert hs_project(res, cen) <= 1e-9

    def test_in_algebra_fault_told_apart_from_any_fault(self):
        # three qubits carry S3's trivial irrep four times and its 2-d irrep
        # twice, so the commutant (4² + 2² = 20) is larger than the center
        # (2): a random one-segment fault leaves a residual in the
        # commutant but off the center, and only an in-algebra one lands on it
        sc = symmetric_s3_scenario()
        rng = np.random.default_rng(0)
        cen = center_basis(sc.rep)
        assert (len(commutant_basis(sc.rep)), len(cen)) == (20, 2)
        res = faulted_residual(sc, {c: [(1.0, 0.1 * random_hermitian(8, rng))]
                                    for c in (0, 1)})
        assert commutator_norms(sc.rep, res).max() <= 1e-12
        assert subspace_distance(res, cen) > 0.1
        fault = {}
        for c in (0, 1):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            M = np.tensordot(z, sc.rep.matrices, axes=1)
            fault[c] = [(1.0, 0.1 * (M + M.conj().T) / 2)]
        assert subspace_distance(faulted_residual(sc, fault), cen) <= 1e-12

    def test_walk_that_is_not_a_cycle_is_not_averaged_onto_the_commutant(self):
        # pauli n=1, the sigma-x pulse twice: the walk (0, x, 0) averages
        # over {I, sigma_x} only, so neither average commutes with sigma_z
        sc = pauli_scenario(1)
        x = sc.group.generators[0]
        step = Step(0, sc.profiles[0])
        sched = ControlSchedule(rep=sc.rep, steps=(step, step),
                                path=EulerPath(colors=(0, 0), vertices=(0, x, 0)))
        X = random_hermitian(2, np.random.default_rng(0))
        assert commutator_norms(sc.rep, q_map(sched, X)).max() > 0.1
        res = residual_error(apply_fault(sched, {0: [(1.0, 0.1 * SX)]}))
        np.testing.assert_allclose(res, 0.1 * SX, atol=1e-12)
        assert commutator_norms(sc.rep, res).max() > 0.1


def kron_total(drift):
    """H0 = H_S ⊗ I + I ⊗ H_E + sum S ⊗ E, term by term as it reads."""
    d, de = drift.system_dim, drift.env_dim
    h = np.kron(drift.H_S, np.eye(de)) + np.kron(np.eye(d), drift.H_E)
    for S, E in drift.couplings:
        h = h + np.kron(dense(S), E)
    return h


class TestJointOperators:
    """Each joint S ⊗ E operator is written in place; these are its
    Kronecker-product oracles."""

    @pytest.mark.parametrize("coupled", [False, True], ids=["free", "coupled"])
    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    def test_total_equals_the_kronecker_sum(self, env_dim, coupled):
        rng = np.random.default_rng(env_dim)
        d = 4
        couplings = ()
        if coupled:
            traceless = [s - np.trace(s) / d * np.eye(d)
                         for s in (random_hermitian(d, rng) for _ in range(3))]
            couplings = tuple((S, random_hermitian(env_dim, rng)) for S in traceless)
        drift = DriftModel(H_S=random_hermitian(d, rng),
                           H_E=random_hermitian(env_dim, rng), couplings=couplings)
        assert np.array_equal(drift.total(), kron_total(drift))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data(),
           st.integers(0, 2 ** 32 - 1))
    def test_monomial_couplings_equal_the_dense_total(self, n, env_dim, data,
                                                      seed):
        # Pauli strings and other Hermitian monomials, scattered into H0 by
        # their rows, give the dense loop's total bit for bit, divided too
        rng = np.random.default_rng(seed)
        d = 2 ** n
        pairs = [data.draw(pauli_pairs(n, n)), data.draw(hermitian_monomials(d))]
        H_S, H_E = random_hermitian(d, rng), random_hermitian(env_dim, rng)
        Es = [random_hermitian(env_dim, rng) for _ in pairs]
        drift = DriftModel(H_S=H_S, H_E=H_E, couplings=tuple(zip(pairs, Es)))
        want = DriftModel(H_S=H_S, H_E=H_E, couplings=tuple(
            (S.dense(), E) for S, E in zip(pairs, Es)))
        assert np.array_equal(drift.total(), want.total())
        assert np.array_equal(drift.divided(3.0).total(),
                              want.divided(3.0).total())
        assert all(S is T for (S, _), (T, _)
                   in zip(drift.divided(3.0).couplings, drift.couplings))

    def test_drift_is_validated_once(self, monkeypatch):
        # a sweep validates its drift at every delta_t; the terms of a
        # drift do not change, so the checks run once
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        calls = []
        real = dynamics.is_hermitian
        monkeypatch.setattr(dynamics, "is_hermitian",
                            lambda m: calls.append(1) or real(m))
        decoupling_distance(drift, sc.schedule(), [0.02, 0.01, 0.005])
        drift.validate()
        assert len(calls) == 2 + 1      # H_S and H_E once; H̄'s H0 once
        # a drift that fails is refused at every call
        bad = DriftModel(H_S=np.array([[0, 1], [0, 0]], dtype=complex),
                         H_E=np.zeros((1, 1)), couplings=())
        for _ in range(2):
            with pytest.raises(ValueError, match="non-Hermitian"):
                bad.validate()

    @pytest.mark.parametrize("env_dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["bangbang", "eulerian"])
    def test_average_hamiltonian_matches_kron(self, kind, env_dim):
        # H̄ step by step on S ⊗ E: each segment integral taken of the joint
        # H0 in the eigenbasis of rate ⊗ I, conjugated by frame ⊗ I
        rng = np.random.default_rng(env_dim)
        sc = symmetric_s3_scenario()
        sched = sc.bangbang() if kind == "bangbang" else sc.schedule()
        H0 = random_hermitian(sc.rep.dimension * env_dim, rng)
        eye_e = np.eye(env_dim)
        ref = 0
        for frame, step in zip(sched.stroboscopic_frames(), sched.steps):
            lifted = np.kron(frame, eye_e)
            F = _eigenbasis_integral(
                [(f, np.linalg.eigh(np.kron(r, eye_e)), H0)
                 for f, r in step.profile.segments])
            ref = ref + lifted.conj().T @ F @ lifted
        ref = ref / sched.sub_intervals
        got = average_hamiltonian(sched, H0)
        assert np.linalg.norm(got - ref) <= 1e-12

    @pytest.mark.parametrize("kind", ["bangbang", "eulerian"])
    def test_simulate_cycles_matches_kron_reference(self, kind):
        # a bang-bang kick acts on the rows of U, the pulses through the
        # rate added to each environment block of H0
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=3, seed=5)
        sched = sc.bangbang() if kind == "bangbang" else sc.schedule()
        got = simulate_cycles(drift, sched, 0.05, cycles=2)
        ref = np.linalg.matrix_power(per_step_cycles(drift, sched, 0.05), 2)
        assert np.abs(got - ref).max() <= 1e-12


class TestSimulation:
    def test_zero_drift_cyclic(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        u = simulate_cycles(drift, sc.schedule(), 0.1, cycles=1)
        assert phase_distance(np.eye(2), u) <= 1e-9

    def test_commuting_drift_free_evolution(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=0.3 * SX, H_E=np.zeros((1, 1)), couplings=())
        sched = sc.schedule()
        u = simulate_cycles(drift, sched, 0.05, cycles=3)
        expected = _expm_herm(0.3 * SX, 3 * (sched.sub_intervals * 0.05))
        assert phase_distance(expected, u) <= 1e-9

    def test_decoupling_distance_zero_drift(self):
        sc = carr_purcell_scenario()
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((1, 1)),
                           couplings=())
        (dist,) = decoupling_distance(drift, sc.schedule(), [0.1])
        assert dist <= 1e-9

    def test_distance_scales_quadratically(self):
        sc = carr_purcell_scenario()
        E = np.array([[0.4, 0.3], [0.3, -0.2]])
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=0.1 * np.eye(2) * 0,
                           couplings=((SZ, E),))
        d1, d2 = decoupling_distance(drift, sc.schedule(), [0.02, 0.01], cycles=2)
        assert d1 / d2 == pytest.approx(4.0, rel=0.15)

    def test_decoupling_distance_per_delta_t(self):
        # one distance per delta_t, each that of the cycle propagated alone
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=2, seed=4)
        sched = sc.schedule()
        hbar = average_hamiltonian(sched, drift.total())
        got = decoupling_distance(drift, sched, [0.02, 0.01], cycles=3)
        assert len(got) == 2
        for dt, dist in zip((0.02, 0.01), got):
            want = phase_distance(simulate_cycles(drift, sched, dt, 3),
                                  _expm_eig(*np.linalg.eigh(hbar),
                                            3 * (sched.sub_intervals * dt)))
            assert dist == want

    def test_overflowing_delta_t_refused_before_any_simulation(self, monkeypatch):
        # 10 x 2 x 1e308 is inf: exp(-i Hbar inf) would be nan
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        calls = []
        monkeypatch.setattr(dynamics, "simulate_cycles",
                            lambda *args: calls.append(args))
        for values in ([1e308, 1e307], [0.01, 1e308]):
            with pytest.raises(ValueError, match=r"^delta_t 1e\+308 is too large: "
                                                 r"the propagated time 10 x 2 x"):
                decoupling_distance(drift, sc.schedule(), values, cycles=10)
        assert calls == []

    def test_delta_t_whose_amplitude_overflows_refused(self, monkeypatch):
        # rate / 1e-320 overflows: refused, naming delta_t, before any
        # exponential, not as a warning and a failed decomposition
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        calls = []
        monkeypatch.setattr(dynamics, "_expm_herm", lambda *a: calls.append(a))
        message = r"^delta_t 1e-320 is too small: a segment amplitude"
        with pytest.raises(ValueError, match=message):
            simulate_cycles(drift, sc.schedule(), 1e-320)
        with pytest.raises(ValueError, match=message):
            decoupling_distance(drift, sc.schedule(), [1e-320, 1e-321])
        # a fault's rate counts too, and a zero rate never overflows
        sched = apply_fault(sc.schedule(), {0: [(1.0, 1e150 * SZ)]})
        with pytest.raises(ValueError, match=r"^delta_t 1e-160 is too small"):
            simulate_cycles(drift, sched, 1e-160)
        assert calls == []
        monkeypatch.undo()
        # rate / 1e-300 is finite: the cycle is propagated
        u = simulate_cycles(drift, sc.schedule(), 1e-300)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_cycle_count_off_unitarity_refused(self):
        # rounding compounds over 10^9 cycles past 1e-8 * dim; 10^6 stay in
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        simulate_cycles(drift, sc.schedule(), 0.02, cycles=10 ** 6)
        with pytest.raises(UnitarityError, match="over 1000000000 cycles") as info:
            simulate_cycles(drift, sc.schedule(), 0.02, cycles=10 ** 9)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("cycles", [2 ** 62, 10 ** 23])
    def test_overflowing_cycle_count_refused(self, cycles):
        # the cycle's power overflows: entries near 1e239 at 2^62, nan at
        # 10^23; the drift of either is nan, refused as a large one is
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        with pytest.raises(UnitarityError, match=f"over {cycles} cycles"):
            simulate_cycles(drift, sc.schedule(), 0.02, cycles=cycles)

    def test_traceless_coupling_enforced(self):
        drift = DriftModel(H_S=np.zeros((2, 2)), H_E=np.zeros((2, 2)),
                           couplings=((np.eye(2), np.eye(2)),))
        with pytest.raises(ValueError):
            drift.validate()

    def test_faulty_simulation_runs(self):
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        faulty = apply_fault(sc.schedule(), {0: [(1.0, 0.1 * SY)]})
        u = simulate_cycles(drift, faulty, 0.01, cycles=2)
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
            fault_segs = fault.get(color) if fault else None
            for frac, k, fault_rate in merged_segments(prof, fault_segs):
                h_ctrl = lift((prof.segments[k][1] + fault_rate) / dt)
                u_cycle = _expm_herm(H0 + h_ctrl, frac * dt) @ u_cycle
    return np.linalg.matrix_power(u_cycle, cycles)


def finer_grid_fault(rng, dim, colors):
    fractions = (0.25, 0.25, 0.3, 0.2)
    return {c: [(f, 0.1 * random_hermitian(dim, rng)) for f in fractions]
            for c in colors}


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
        sched = sc.bangbang() if kind == "bangbang" else sc.schedule()
        fault = None
        if kind == "fault":
            rng = np.random.default_rng(env_dim)
            fault = finer_grid_fault(rng, sc.rep.dimension, sorted(sc.profiles))
            sched = apply_fault(sched, fault)
        got = simulate_cycles(drift, sched, 0.05, cycles=3)
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
            assert np.array_equal(prof.endpoint_unitary(), unitary_at(prof, 1.0))
            # part-way through the last segment
            frac, rate = prof.segments[-1]
            x = 1.0 - 0.5 * frac
            partial = _expm_herm(rate, 0.5 * frac)
            for f, r in prof.segments[-2::-1]:
                partial = partial @ _expm_herm(r, f)
            assert np.linalg.norm(unitary_at(prof, x) - partial) <= 1e-13

    def test_cached_arrays_are_shared_read_only(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        drift = sc.generic_drift(env_dim=2)
        assert sched.stroboscopic_frames() is sched.stroboscopic_frames()
        assert drift.total() is drift.total()
        prof = sc.profiles[1]
        for a in (prof.endpoint_unitary(), prof.spectra[0][1],
                  sched.stroboscopic_frames()[3], drift.total()):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        prof = carr_purcell_scenario().profiles[0]
        assert prof.involution is prof.involution
        for a in prof.involution[1:]:    # rows, phases
            with pytest.raises(ValueError):
                a[0] = 0

    def test_control_propagator_reuses_frames_and_spectra(self, eigh_calls):
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        for prof in sc.profiles.values():
            prof.spectra
        del eigh_calls[:]
        for t in np.linspace(0.0, 2 * sched.sub_intervals * 0.1, 50):
            control_propagator(sched, t, 0.1)
        assert eigh_calls == []

    def test_sweep_makes_one_joint_exponential_per_color_and_delta_t(
            self, eigh_calls, monkeypatch):
        sc = spin_flip_scenario(6)
        drift = sc.generic_drift(env_dim=2, seed=0)
        del eigh_calls[:]
        exps = []
        real_expm = dynamics._expm_herm

        def counted_expm(H, *args):
            exps.append(H.shape)
            return real_expm(H, *args)

        monkeypatch.setattr(dynamics, "_expm_herm", counted_expm)
        per_call = []
        real = dynamics.simulate_cycles

        def counted(*args, **kwargs):
            before, eighs = len(exps), len(eigh_calls)
            out = real(*args, **kwargs)
            per_call.append((exps[before:], eigh_calls[eighs:]))
            return out

        monkeypatch.setattr(dynamics, "simulate_cycles", counted)
        scaling_study(sc, [0.02, 0.01, 0.005], cycles=2, drift=drift)
        gamma = len(sc.group.generators)
        assert len(per_call) == 3
        for calls, eighs in per_call:
            assert calls == [(128, 128)] * gamma
            assert eighs == []          # one-shot exponentials: Padé
        # the Pauli-string profiles were never diagonalized: only Hbar was
        assert eigh_calls == [(128, 128)]
        assert not any("spectra" in vars(p) for p in sc.profiles.values())

    @pytest.mark.parametrize("points", [1, 3, 4])
    def test_sweep_decomposes_the_average_hamiltonian_once(
            self, eigh_calls, monkeypatch, points):
        # with the joint propagator stubbed out, the only eigh left is the
        # one of Hbar (8 x 2 = 16), which no delta_t changes
        sc = symmetric_s3_scenario()
        drift = sc.generic_drift(env_dim=2, seed=0)
        monkeypatch.setattr(dynamics, "simulate_cycles",
                            lambda drift, sched, delta_t, cycles: np.eye(16))
        del eigh_calls[:]
        scaling_study(sc, [0.02 / 2 ** k for k in range(points)], drift=drift)
        assert eigh_calls == [(16, 16)]

    def test_verify_theorem_decomposes_each_segment_once(self, eigh_calls):
        sc = spin_flip_scenario(3)
        # the Pauli-string profiles are realized and integrated in closed
        # form: none of them is ever diagonalized
        assert not any("spectra" in vars(p) for p in sc.profiles.values())
        del eigh_calls[:]
        sched = sc.schedule()
        for seed in (0, 1):
            verify_theorem(sc, sched, np.random.default_rng(seed), 20)
        # the one eigh per call is the algebra check's Gram matrix: one 1 x 1
        # block per element, as no element but the identity has a trace
        assert eigh_calls == [(4, 1, 1)] * 2
        assert not any("spectra" in vars(p) for p in sc.profiles.values())


def reversed_profile(profile):
    """u_rev(x) = u(1 - x) u(1)†: the segments in reverse order, each rate
    negated."""
    return PulseProfile(segments=tuple((frac, -rate)
                                       for frac, rate in profile.segments[::-1]))


def mirrored(schedule):
    """The forward steps, then the same steps backwards, each pulsing its
    profile reversed and carrying its fault in reversed segment order: one
    color carries two profiles.  Its walk runs the forward path out and
    back: back step j undoes forward step L-1-j, so it starts in the frame
    of forward vertex L - j."""
    profiles = {p: reversed_profile(p) for p in {s.profile for s in schedule.steps}}
    faults = {id(s.fault): s.fault and s.fault[::-1] for s in schedule.steps}
    back = tuple(Step(s.color, profiles[s.profile], fault=faults[id(s.fault)])
                 for s in schedule.steps[::-1])
    fwd = schedule.path
    path = EulerPath(colors=fwd.colors + fwd.colors[::-1],
                     vertices=fwd.vertices + fwd.vertices[::-1][1:])
    return ControlSchedule(rep=schedule.rep, steps=schedule.steps + back, path=path)


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


def per_step_cycles(drift, schedule, dt, fault=None):
    """One cycle of sub-intervals ``dt`` as a product of fresh
    exponentials, step by step: each step's own profile, with the fault of
    its color when ``fault`` maps colors to (fraction, rate) segments."""
    H0 = kron_total(drift)
    eye_e = np.eye(drift.env_dim)
    u = np.eye(H0.shape[0], dtype=complex)
    for step in schedule.steps:
        segs = step.profile.segments
        if fault is not None:
            segs = with_fault(segs, fault.get(step.color))
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
        sched = mirrored(sc.schedule())
        drift = sc.generic_drift(env_dim=env_dim, seed=3)
        fault = None
        if faulty:
            fault = finer_grid_fault(np.random.default_rng(env_dim),
                                     sc.rep.dimension, sorted(sc.profiles))
            sched = apply_fault(sched, fault)
        got = simulate_cycles(drift, sched, 0.05)
        assert np.abs(got - per_step_cycles(drift, sched, 0.05, fault)).max() <= 1e-12


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
        forward = eulerian_schedule(eulerian_cycle(group),
                                    profiles, rep)
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
            got = simulate_cycles(drift, sched, 0.05)
            assert np.abs(got - per_step_cycles(drift, sched, 0.05, f)).max() <= 1e-12

        # each back step carries its forward step's fault reversed in time,
        # in the toggling frame it undoes: the residual is the forward one
        faulted = apply_fault(forward, fault)
        assert np.linalg.norm(residual_error(mirrored(faulted))
                              - residual_error(faulted)) <= 1e-12
