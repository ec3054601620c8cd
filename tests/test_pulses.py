"""Tests for pulse profile synthesis and schedule assembly."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdd import pulses
from eulerdd.analysis import (SIGMA, _pauli_string, carr_purcell_scenario,
                              heisenberg,
                              pauli_scenario, random_hermitian,
                              spin_flip_scenario, swap_gate,
                              symmetric_s3_scenario)
from eulerdd.cayley import EulerPath
from eulerdd.dynamics import residual_error, simulate_cycles
from eulerdd.group_theory import close_group, equal_up_to_phase, in_algebra
from eulerdd.io import (ConfigError, encode_matrix, export_schedule,
                        fault_from_doc)
from eulerdd.pulses import (EXPM_WORK, GridMismatchError,
                            IncompleteProfileSetError, RealizationError,
                            SegmentError, UnreachableGeneratorError, _expm_eig,
                            _expm_herm, apply_fault, bangbang_schedule,
                            constant_profile, eulerian_schedule,
                            merged_segments, phase_distance, piecewise_profile,
                            segment_list)
from test_dynamics import control_propagator, unitary_at

SX, SY, SZ = SIGMA["x"], SIGMA["y"], SIGMA["z"]


class TestConstantProfile:
    def test_sigma_x_quarter_turn(self):
        group, rep = close_group([SX])
        prof = constant_profile(group.generators[0], rep, SX)
        (frac, rate), = prof.segments
        assert frac == 1.0
        # amplitude pi/2 in 1/delta_t units
        np.testing.assert_allclose(rate, (np.pi / 2) * SX, atol=1e-12)
        assert phase_distance(SX, prof.endpoint_unitary()) <= 1e-9
        assert in_algebra(rep, rate)

    def test_identity_target_zero_amplitude(self):
        group, rep = close_group([SX])
        prof = constant_profile(0, rep, SX)
        np.testing.assert_allclose(prof.segments[0][1], np.zeros((2, 2)))

    def test_swap_via_heisenberg(self):
        g1 = swap_gate(2, 0, 1)
        group, rep = close_group([g1])
        prof = constant_profile(group.generators[0], rep, heisenberg(2, 0, 1))
        (_, rate), = prof.segments
        np.testing.assert_allclose(rate, (np.pi / 4) * heisenberg(2, 0, 1),
                                   atol=1e-12)

    def test_unreachable_axis(self):
        group, rep = close_group([SX])
        with pytest.raises(UnreachableGeneratorError):
            constant_profile(group.generators[0], rep, SZ)


    def test_non_hermitian_axis_refused_before_eigh(self, monkeypatch):
        group, rep = close_group([SX])
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh ran"))
        axis = np.array([[0, 1.3], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            constant_profile(group.generators[0], rep, axis)

    @pytest.mark.parametrize("make", [carr_purcell_scenario, pauli_scenario,
                                      lambda: spin_flip_scenario(3)],
                             ids=["carr-purcell", "pauli", "spin-flip-3"])
    def test_first_realizing_angle_is_taken(self, make, monkeypatch):
        # the candidate angles grow, so the first that realizes the target
        # is the smallest and no later one is tried; the second call is
        # piecewise_profile's realization check of the chosen angle
        calls = []

        def counted(a, b):
            calls.append(1)
            return phase_distance(a, b)

        sc = make()
        monkeypatch.setattr(pulses, "phase_distance", counted)
        for c, prof in sc.profiles.items():
            calls.clear()
            again = constant_profile(sc.group.generators[c], sc.rep,
                                     prof.segments[0][1]
                                     / np.linalg.norm(prof.segments[0][1]))
            assert calls == [1, 1]
            np.testing.assert_allclose(again.segments[0][1], prof.segments[0][1],
                                       atol=1e-12)


class TestPiecewiseProfile:
    def test_s3_two_segment_generator(self):
        sc = symmetric_s3_scenario()
        prof = sc.profiles[1]
        assert len(prof.segments) == 2
        target = sc.rep.matrices[sc.group.generators[1]]
        assert phase_distance(target, prof.endpoint_unitary()) <= 1e-9
        assert all(in_algebra(sc.rep, rate) for _, rate in prof.segments)

    def test_single_segment_matches_constant(self):
        group, rep = close_group([SX])
        const = constant_profile(group.generators[0], rep, SX)
        piece = piecewise_profile(group.generators[0], rep,
                                  [(1.0, (np.pi / 2) * SX)])
        assert phase_distance(const.endpoint_unitary(),
                              piece.endpoint_unitary()) <= 1e-12

    def test_angle_addition(self):
        group, rep = close_group([SX])
        prof = piecewise_profile(group.generators[0], rep,
                                 [(0.5, (np.pi / 2) * SX),
                                  (0.5, (np.pi / 2) * SX)])
        assert phase_distance(SX, prof.endpoint_unitary()) <= 1e-9

    def test_wrong_realization_rejected(self):
        group, rep = close_group([SX])
        with pytest.raises(RealizationError):
            piecewise_profile(group.generators[0], rep, [(1.0, 0.3 * SX)])

    def test_out_of_algebra_flagged(self):
        group, rep = close_group([SX])
        # realize sigma_x (up to phase) as a z-flip followed by a y-flip;
        # both segment Hamiltonians lie outside span{I, sx}
        prof = piecewise_profile(group.generators[0], rep,
                                 [(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        assert not any(in_algebra(rep, rate) for _, rate in prof.segments)

    def test_fractions_must_sum_to_one(self):
        group, rep = close_group([SX])
        with pytest.raises(ValueError):
            piecewise_profile(group.generators[0], rep, [(0.5, np.pi * SX)])


class TestSchedules:
    def test_eulerian_z2_structure(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule()
        assert sched.sub_intervals * 0.1 == pytest.approx(0.2)
        frames = sched.stroboscopic_frames()
        assert equal_up_to_phase(frames[1], SX, 1e-9)
        assert equal_up_to_phase(frames[2], np.eye(2), 1e-9)

    def test_profile_of_another_generator_rejected(self):
        # X and Z swapped: the cycle still closes, but frame l is then no
        # longer the element of path vertex l
        sc = pauli_scenario(1)
        swapped = {0: sc.profiles[1], 1: sc.profiles[0]}
        with pytest.raises(RealizationError, match="the profile of color 0 "
                                                   "does not realize generator 0"):
            eulerian_schedule(sc.path, swapped, sc.rep)

    def test_missing_profile_rejected(self):
        sc = pauli_scenario(1)
        with pytest.raises(IncompleteProfileSetError):
            eulerian_schedule(sc.path, {0: sc.profiles[0]}, sc.rep)

    def test_stroboscopic_frames_visit_each_element_gamma_times(self):
        for sc in (pauli_scenario(1), symmetric_s3_scenario()):
            sched = sc.schedule()
            frames = sched.stroboscopic_frames()[:-1]
            counts = [0] * sc.group.order
            for f in frames:
                hits = [j for j, m in enumerate(sc.rep.matrices)
                        if equal_up_to_phase(f, m, 1e-8)]
                assert len(hits) == 1
                counts[hits[0]] += 1
            assert counts == [len(sc.group.generators)] * sc.group.order

    def test_stroboscopic_frames_follow_the_path_vertices(self):
        for sc in (pauli_scenario(2), symmetric_s3_scenario()):
            frames = sc.schedule().stroboscopic_frames()
            assert len(frames) == len(sc.path.vertices)
            for frame, v in zip(frames, sc.path.vertices):
                assert equal_up_to_phase(frame, sc.rep.matrices[v], 1e-9)

    def test_bangbang_matches_eulerian_frame_set(self):
        sc = pauli_scenario(1)
        bb = sc.bangbang()
        assert bb.sub_intervals * 0.01 == pytest.approx(0.04)
        bb_frames = bb.stroboscopic_frames()[:-1]
        for f in bb_frames:
            assert any(equal_up_to_phase(f, m, 1e-9) for m in sc.rep.matrices)

    def test_bangbang_kicks(self):
        group, rep = close_group([SX, SZ])
        bb = bangbang_schedule(group, rep)
        kicks = [s.kick for s in bb.steps]
        assert len(kicks) == group.order
        mats = rep.matrices
        for l, k in enumerate(kicks, start=1):
            expected = mats[(l) % group.order] @ mats[l - 1].conj().T
            np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_bounded_control_norm(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        # max amplitude is the pi/2-rate exchange pulse: |pi/2 h(k,l)| / dt
        expected = (np.pi / 2) * np.linalg.norm(heisenberg(3, 0, 1), 2) / 0.01
        assert sched.max_rate_norm / 0.01 == pytest.approx(expected)

    def test_control_norm_is_the_maximum_over_every_step(self):
        # the strongest profile of color 0 is not its last one: both
        # realize sigma_x, walking 0 -> 1 -> 0
        _, rep = close_group([SX])
        strong = pulses.PulseProfile(segments=[(1.0, 1.5 * np.pi * SX)])
        weak = pulses.PulseProfile(segments=[(0.5, np.pi * SZ), (0.5, np.pi * SY)])
        sched = pulses.ControlSchedule(rep=rep, steps=(
            pulses.Step(0, strong), pulses.Step(0, weak)),
            path=EulerPath(colors=(0, 0), vertices=(0, 1, 0)))
        assert sched.profiles[0] is weak
        assert sched.max_rate_norm / 0.1 == pytest.approx(1.5 * np.pi / 0.1)

    def test_invalid_delta_t(self):
        # a schedule holds no delta_t: it is refused where time enters
        sc = carr_purcell_scenario()
        drift = sc.generic_drift(env_dim=2)
        for dt in (-1.0, 0.0, np.nan, np.inf):
            for run in (lambda: simulate_cycles(drift, sc.schedule(), dt),
                        lambda: simulate_cycles(drift, sc.bangbang(), dt),
                        lambda: export_schedule(sc, dt)):
                with pytest.raises(ValueError, match="delta_t must be positive"):
                    run()


def hermitian_of_norm(d, norm, rng):
    """A random Hermitian d x d matrix of 1-norm ``norm``."""
    H = random_hermitian(d, rng)
    return H * (norm / np.abs(H).sum(axis=0).max())


class TestPadeExponential:
    """exp(-i s H) by Padé scaling and squaring, against the eigh form."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 50.0), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_equals_the_eigh_form(self, d, norm, sign, seed):
        H = hermitian_of_norm(d, 1.0, np.random.default_rng(seed))
        s = sign * norm      # ‖s H‖₁ = norm
        got = _expm_herm(H, s)
        want = _expm_eig(*np.linalg.eigh(H), s)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, norm)
        assert np.linalg.norm(got.conj().T @ got - np.eye(d)) <= 1e-13 * d

    @pytest.mark.parametrize("norm,degree,squarings", [
        (0.01, 3, 0), (0.2, 5, 0), (0.9, 7, 0), (2.0, 9, 0), (5.0, 13, 0),
        (40.0, 13, 3)])
    def test_degree_and_squarings_follow_the_norm(self, norm, degree,
                                                  squarings, monkeypatch):
        degrees = []
        real = pulses._pade
        monkeypatch.setattr(pulses, "_pade",
                            lambda a, m, work: degrees.append(m) or real(a, m, work))
        products = []
        real_matmul, real_in_place = np.matmul, pulses._times_in_place

        def counted(*args, **kwargs):
            products.append(1)
            return real_matmul(*args, **kwargs)

        def counted_in_place(*args):
            products.append(1)
            return real_in_place(*args)

        H = hermitian_of_norm(16, norm, np.random.default_rng(3))
        work = np.empty((EXPM_WORK, 16, 16), dtype=complex)
        h = H.copy()
        monkeypatch.setattr(pulses.np, "matmul", counted)
        monkeypatch.setattr(pulses, "_times_in_place", counted_in_place)
        got = _expm_herm(h, 1.0, work)
        monkeypatch.undo()
        assert degrees == [degree]
        # matrix products, one solve besides: five at degree 9
        per_degree = {3: 2, 5: 3, 7: 5, 9: 5, 13: 6}[degree]
        assert len(products) == per_degree + squarings
        want = _expm_eig(*np.linalg.eigh(H), 1.0)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, norm)
        # a scratch stack changes no bit of the result
        assert np.array_equal(got, _expm_herm(H, 1.0))

    @pytest.mark.parametrize("norm", [1.6, 40.0])
    def test_in_place_products_in_row_blocks(self, norm):
        # at D = 128 the in-place products take four blocks of rows
        D = 128
        assert pulses.MAX_STACK_BYTES // (16 * D) < D
        H = hermitian_of_norm(D, norm, np.random.default_rng(5))
        got = _expm_herm(H.copy(), 1.0, np.empty((EXPM_WORK, D, D), dtype=complex))
        want = _expm_eig(*np.linalg.eigh(H), 1.0)
        assert np.abs(got - want).max() <= 1e-13 * norm
        assert np.linalg.norm(got.conj().T @ got - np.eye(D)) <= 1e-13 * D

    def test_input_is_kept_without_a_work_stack(self):
        H = hermitian_of_norm(8, 2.0, np.random.default_rng(1))
        H.setflags(write=False)
        _expm_herm(H, 0.7)      # a read-only H is copied, not written

    def test_exact_zero_gives_the_identity(self):
        for d in (1, 2, 7):
            assert np.array_equal(_expm_herm(np.zeros((d, d)), 3.0), np.eye(d))
        assert np.array_equal(_expm_herm(SX, 0.0), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_refused(self, bad):
        H = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="exponent .* is not finite"):
            _expm_herm(H, 0.5)
        with pytest.raises(ValueError, match="exponent .* is not finite"):
            _expm_herm(SX, bad)


@st.composite
def pauli_profiles(draw):
    """A one-segment profile pulsing θA for a signed Hermitian Pauli string
    A on n <= 5 qubits and θ in (0, 2π], and a fraction x in [0, 1]."""
    n = draw(st.integers(1, 5))
    letters = draw(st.text("ixyz", min_size=n, max_size=n))
    sign = draw(st.sampled_from([1.0, -1.0]))
    theta = draw(st.floats(0.0, 2 * np.pi, exclude_min=True))
    x = draw(st.floats(0.0, 1.0))
    return pulses.PulseProfile(((1.0, sign * theta * _pauli_string(letters)),)), x


class TestClosedFormUnitary:
    """A profile with involution data has u(x) = cos(xθ) I - i sin(xθ) A,
    and its endpoint unitary is u(1) of that form."""

    @settings(max_examples=80, deadline=None)
    @given(pauli_profiles())
    def test_equals_the_spectra_form(self, case):
        prof, x = case
        assert prof.involution is not None
        got = unitary_at(prof, x)
        lam, V = prof.spectra[0]
        assert np.abs(got - _expm_eig(lam, V, x)).max() <= 1e-14
        # past the end of the segment, u stays at u(1)
        assert np.array_equal(unitary_at(prof, 1.0 - 1e-16), unitary_at(prof, 1.0))
        assert np.array_equal(prof.endpoint_unitary(), unitary_at(prof, 1.0))

    def test_pauli_string_profiles_are_never_diagonalized(self):
        sc = spin_flip_scenario(3)
        sched = sc.schedule()
        sched.stroboscopic_frames()
        control_propagator(sched, 0.3, 0.1)
        assert all(p.involution is not None for p in sc.profiles.values())
        assert not any("spectra" in vars(p) for p in sc.profiles.values())


T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


@st.composite
def involution_axes(draw):
    """(c, A, φ): a signed Hermitian Pauli string A != ±I on n <= 4
    qubits, a scale c > 0 and a rotation angle φ in (0, π)."""
    n = draw(st.integers(1, 4))
    letters = draw(st.text("ixyz", min_size=n, max_size=n).filter(
        lambda t: set(t) != {"i"}))
    sign = draw(st.sampled_from([1.0, -1.0]))
    c = draw(st.floats(0.1, 3.0))
    phi = draw(st.floats(0.01, np.pi - 0.01))
    return c, sign * _pauli_string(letters), phi


class TestInvolutionAngle:
    """An axis cA, A a monomial Hermitian involution, has its angle read
    from its (rows, phases), with the eigenbasis rule's result."""

    @pytest.mark.parametrize("make", [lambda: spin_flip_scenario(6),
                                      lambda: pauli_scenario(2)],
                             ids=["spin-flip-6", "pauli-2"])
    def test_builtin_profiles_build_without_eigh(self, make, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: pytest.fail("eigh ran"))
        sc = make()
        assert all(p.involution is not None for p in sc.profiles.values())

    def test_t_gate_quarter_of_a_quarter_turn(self):
        group, rep = close_group([T_GATE, SZ])
        assert group.order == 8
        prof = constant_profile(group.generators[0], rep, SZ)
        assert np.array_equal(prof.segments[0][1], (np.pi / 8) * SZ)

    @settings(max_examples=60, deadline=None)
    @given(involution_axes())
    def test_equals_the_eigenbasis_rule(self, case):
        c, A, phi = case
        d = len(A)
        target = np.cos(phi) * np.eye(d) - 1j * np.sin(phi) * A
        parts = pulses.involution_parts(c * A)
        assert parts is not None and abs(parts[0] - c) <= 1e-15 * c
        got = pulses._involution_angle(target, *parts)
        want = pulses._eigenbasis_angle(target, c * A)
        assert abs(got - want) <= 1e-12 * max(1.0, 1.0 / c)
        assert abs(got * c - phi) <= 1e-12

    @pytest.mark.parametrize("target,axis,why", [
        (SX, SZ, "target not diagonal in axis eigenbasis"),
        (SX, np.eye(2), "axis is a multiple of identity"),
        (SX, -np.eye(2), "axis is a multiple of identity"),
        (np.kron(np.eye(2), SZ), np.kron(SZ, np.eye(2)), None)],
        ids=["not-commuting", "identity", "minus-identity", "outside-span"])
    def test_refusals_name_the_eigenbasis_rule_reasons(self, target, axis, why):
        _, rep = close_group([target])
        match = "^unreachable generator along axis" + (f": {why}$" if why else "$")
        assert pulses.involution_parts(np.asarray(axis, dtype=complex)) is not None
        with pytest.raises(UnreachableGeneratorError, match=match):
            constant_profile(rep.group.generators[0], rep, axis)


class TestIdentity:
    """Profiles and drifts hold arrays, so they compare and hash by
    identity: == never asks numpy for the truth of an array."""

    def test_copies_compare_unequal(self):
        prof = symmetric_s3_scenario().profiles[1]
        drift = carr_purcell_scenario().generic_drift(env_dim=2)
        for obj in (prof, drift):
            twin = copy.copy(obj)
            assert obj == obj
            assert (obj == twin) is False
            assert obj != twin

    def test_profile_is_hashable(self):
        prof = carr_purcell_scenario().profiles[0]
        assert {prof: 1}[prof] == 1
        assert hash(prof) != hash(copy.copy(prof))


class TestFaults:
    def test_zero_fault_is_identity_operation(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule()
        faulty = apply_fault(sched, {0: [(1.0, np.zeros((2, 2)))]})
        for step in faulty.steps:
            for frac, ideal, err in merged_segments(step.profile, step.fault):
                assert np.linalg.norm(err) == 0.0

    def test_constant_fault_merges_onto_profile_grid(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule()
        faulty = apply_fault(sched, {1: [(1.0, 0.1 * heisenberg(3, 0, 1))]})
        for step in faulty.steps:
            if step.color != 1:
                assert step.fault is None
                continue
            segs = merged_segments(step.profile, step.fault)
            assert len(segs) == 2
            for frac, ideal, err in segs:
                np.testing.assert_allclose(err, 0.1 * heisenberg(3, 0, 1))

    def test_bad_fault_grid_rejected(self):
        sc = carr_purcell_scenario()
        with pytest.raises(SegmentError, match=r"^deltas\[0\]\[0\]\.fraction: "
                                             r"the fractions sum to 0\.4,"):
            apply_fault(sc.schedule(), {0: [(0.4, SX)]})

    def test_unknown_color_rejected(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule()
        with pytest.raises(GridMismatchError):
            apply_fault(sched, {5: [(1.0, SX)]})

    @pytest.mark.parametrize("color", [5, -1, None, "a"])
    def test_residual_refuses_a_color_no_profile_carries(self, color):
        # a color that pulses nothing is refused where the fault is
        # attached, not averaged as zero
        sc = carr_purcell_scenario()
        with pytest.raises(GridMismatchError, match=f"unknown color {color}$"):
            residual_error(apply_fault(sc.schedule(), {color: [(1.0, 0.1 * SX)]}))

    def test_bangbang_steps_carry_no_fault_color(self):
        bb = carr_purcell_scenario().bangbang()
        assert [s.color for s in bb.steps] == [None, None]
        with pytest.raises(GridMismatchError, match="unknown color 0"):
            apply_fault(bb, {0: [(1.0, SX)]})
        with pytest.raises(GridMismatchError, match="unknown color None"):
            apply_fault(bb, {None: [(1.0, SX)]})

    def test_fault_of_wrong_dimension_refused_where_it_meets_the_rep(self):
        # the 2 x 2 schedule refuses a 4 x 4 fault by key path
        sc = carr_purcell_scenario()
        fault = {0: [(1.0, np.kron(SX, SX))]}
        message = r"^deltas\[0\]\[0\]\.rate must be a Hermitian 2 x 2 matrix"
        with pytest.raises(SegmentError, match=message):
            apply_fault(sc.schedule(), fault)

    def test_steps_of_one_color_share_one_fault_tuple(self):
        # simulate_cycles keys its exponentials on id(step.fault)
        sc = symmetric_s3_scenario()
        faulty = apply_fault(sc.schedule(),
                             {0: [(1.0, 0.1 * heisenberg(3, 0, 1))]})
        faults = {id(step.fault) for step in faulty.steps if step.color == 0}
        assert len(faults) == 1

    def test_faulted_copy_builds_one_step_per_distinct_step(self, monkeypatch):
        # an Eulerian schedule holds one step per color, and so does its
        # faulted copy, whose walk a fault leaves as it was: it is not
        # checked again, and the schedule it was copied from is unchanged
        sched = pauli_scenario(2).schedule()
        assert len({id(step) for step in sched.steps}) == 4
        checks = []
        real = pulses.ControlSchedule.__post_init__
        monkeypatch.setattr(pulses.ControlSchedule, "__post_init__",
                            lambda self: checks.append(1) or real(self))
        faulty = apply_fault(sched, {0: [(1.0, 0.1 * np.kron(SX, SZ))]})
        assert checks == []
        assert len({id(step) for step in faulty.steps}) == 4
        assert (faulty.rep, faulty.path) == (sched.rep, sched.path)
        for step, ideal in zip(faulty.steps, sched.steps):
            assert (step.color, step.profile, step.kick) == (ideal.color,
                                                             ideal.profile, None)
            assert (step.fault is None) == (step.color != 0)
            assert ideal.fault is None

    def test_bangbang_fault_rejected(self):
        sc = carr_purcell_scenario()
        bb = sc.bangbang()
        with pytest.raises(ValueError):
            apply_fault(bb, {0: [(1.0, SX)]})


@st.composite
def segment_lists(draw):
    """(d, segments, index of the corrupted segment or None): random split
    fractions and random Hermitian d x d rates with at most one corruption,
    a fraction <= 0, a non-Hermitian rate, a (d+1) x (d+1) rate, or the last
    segment ending 1e-9 off the end of the sub-interval."""
    d = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fracs = [w / sum(weights) for w in weights]
    rates = [random_hermitian(d, rng) for _ in fracs]
    kind = draw(st.sampled_from([None, "fraction", "sum", "hermitian", "shape"]))
    bad = draw(st.integers(0, len(fracs) - 1))
    if kind is None:
        bad = None
    elif kind == "fraction":
        fracs[bad] = draw(st.sampled_from([0.0, -fracs[bad]]))
    elif kind == "sum":
        bad = len(fracs) - 1
        fracs[bad] += draw(st.sampled_from([1e-9, -1e-9]))
    elif kind == "hermitian":
        rates[bad] = rates[bad] + 1j * np.eye(d)
    else:
        rates[bad] = random_hermitian(d + 1, rng)
    return d, list(zip(fracs, rates)), bad


class TestSegmentRule:
    @settings(max_examples=80, deadline=None)
    @given(segment_lists())
    def test_profiles_faults_and_fault_docs_share_the_rule(self, case):
        d, segs, bad = case
        rep = close_group([np.eye(d)])[1]

        def refusal(build, error):
            """The message of ``build``'s refusal, None if it keeps the rule."""
            try:
                build()
            except error as exc:
                return str(exc)
            except RealizationError:    # random segments realize no target
                pass
            return None

        free = piecewise_profile(0, rep, [(1.0, np.zeros((d, d)))])
        sched = pulses.ControlSchedule(rep=rep, steps=(pulses.Step(0, free),),
                                       path=EulerPath(colors=(0,), vertices=(0, 0)))
        doc = {0: [{"fraction": f, "rate": encode_matrix(r)} for f, r in segs]}
        refusals = [
            refusal(lambda: segment_list(segs, d), SegmentError),
            refusal(lambda: piecewise_profile(0, rep, segs), SegmentError),
            refusal(lambda: apply_fault(sched, {0: segs}), SegmentError),
            refusal(lambda: fault_from_doc(doc, rep), ConfigError),
        ]
        if bad is None:
            assert refusals == [None] * 4
        else:
            paths = ("", "", "deltas[0]", "faults.0")
            for msg, path in zip(refusals, paths):
                assert msg is not None and msg.startswith(f"{path}[{bad}]"), msg

    @pytest.mark.parametrize("segs,message", [
        ([], r"^\[0\] is missing"),
        ([(np.inf, SX)], r"^\[0\]\.fraction must be a finite number > 0"),
        ([(np.nan, SX)], r"^\[0\]\.fraction must be a finite number > 0"),
        ([(0.5, SX), (0.5, np.kron(SX, SX))],
         r"^\[1\]\.rate must be a Hermitian 2 x 2 matrix"),
        ([(1.0, "abc")], r"^\[0\]\.rate must be a Hermitian 2 x 2 matrix$"),
    ], ids=["empty", "infinite-fraction", "nan-fraction", "wrong-d-rate",
            "string-rate"])
    def test_refusal_names_the_segment(self, segs, message):
        with pytest.raises(SegmentError, match=message):
            segment_list(segs, 2)

    @pytest.mark.parametrize("fraction", ["a", None, [0.5]],
                             ids=["string", "none", "list"])
    def test_unconvertible_fraction_names_its_key_path(self, fraction):
        sc = carr_purcell_scenario()
        with pytest.raises(SegmentError) as info:
            apply_fault(sc.schedule(), {0: [(fraction, SX)]})
        assert str(info.value) == (f"deltas[0][0].fraction must be a finite "
                                   f"number > 0, got {fraction!r}")
        assert info.value.index == 0
        with pytest.raises(SegmentError, match=r"^\[1\]\.fraction must be") as info:
            segment_list([(0.5, SX), (fraction, SX)], 2)
        assert info.value.index == 1

    def test_wrong_d_axis_refused(self):
        group, rep = close_group([SX])
        with pytest.raises(ValueError, match=r"^axis must be a Hermitian 2 x 2 matrix"):
            constant_profile(group.generators[0], rep, np.kron(SX, SX))
