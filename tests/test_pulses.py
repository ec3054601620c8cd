"""Tests for pulse profile synthesis and schedule assembly."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerdd import pulses
from eulerdd.analysis import (SIGMA, carr_purcell_scenario, heisenberg,
                              pauli_scenario, random_hermitian,
                              robustness_report, spin_flip_scenario,
                              swap_gate, symmetric_s3_scenario)
from eulerdd.dynamics import residual_error
from eulerdd.group_theory import close_group, equal_up_to_phase, in_algebra
from eulerdd.io import ConfigError, encode_matrix, fault_from_doc
from eulerdd.pulses import (FaultModel, GridMismatchError,
                            IncompleteProfileSetError, RealizationError,
                            SegmentError, UnreachableGeneratorError,
                            apply_fault, bangbang_schedule, constant_profile,
                            eulerian_schedule, merged_segments,
                            phase_distance, piecewise_profile, segment_list)

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
        sched = sc.schedule(0.1)
        assert sched.cycle_time == pytest.approx(0.2)
        frames = sched.stroboscopic_frames()
        assert equal_up_to_phase(frames[1], SX, 1e-9)
        assert equal_up_to_phase(frames[2], np.eye(2), 1e-9)

    def test_missing_profile_rejected(self):
        sc = pauli_scenario(1)
        with pytest.raises(IncompleteProfileSetError):
            eulerian_schedule(sc.path, {0: sc.profiles[0]}, 0.01, sc.rep)

    def test_stroboscopic_frames_visit_each_element_gamma_times(self):
        for sc in (pauli_scenario(1), symmetric_s3_scenario()):
            sched = sc.schedule(0.01)
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
            frames = sc.schedule(0.01).stroboscopic_frames()
            assert len(frames) == len(sc.path.vertices)
            for frame, v in zip(frames, sc.path.vertices):
                assert equal_up_to_phase(frame, sc.rep.matrices[v], 1e-9)

    def test_bangbang_matches_eulerian_frame_set(self):
        sc = pauli_scenario(1)
        bb = sc.bangbang(0.01)
        assert bb.cycle_time == pytest.approx(0.04)
        bb_frames = bb.stroboscopic_frames()[:-1]
        for f in bb_frames:
            assert any(equal_up_to_phase(f, m, 1e-9) for m in sc.rep.matrices)

    def test_bangbang_kicks(self):
        group, rep = close_group([SX, SZ])
        bb = bangbang_schedule(group, rep, 0.01)
        kicks = [s.kick for s in bb.steps]
        assert len(kicks) == group.order
        mats = rep.matrices
        for l, k in enumerate(kicks, start=1):
            expected = mats[(l) % group.order] @ mats[l - 1].conj().T
            np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_bounded_control_norm(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule(0.01)
        # max amplitude is the pi/2-rate exchange pulse: |pi/2 h(k,l)| / dt
        expected = (np.pi / 2) * np.linalg.norm(heisenberg(3, 0, 1), 2) / 0.01
        assert sched.max_hamiltonian_norm == pytest.approx(expected)

    def test_control_norm_is_the_maximum_over_every_step(self):
        # the strongest profile of color 0 is not its last one
        _, rep = close_group([SX])
        strong = pulses.PulseProfile(segments=[(1.0, 3.0 * SX)])
        weak = pulses.PulseProfile(segments=[(0.5, 0.5 * SY), (0.5, 0.2 * SZ)])
        sched = pulses.ControlSchedule(rep=rep, delta_t=0.1, steps=(
            pulses.Step(0, strong), pulses.Step(0, weak)))
        assert sched.profiles[0] is weak
        assert sched.max_hamiltonian_norm == pytest.approx(3.0 / 0.1)

    def test_invalid_delta_t(self):
        sc = carr_purcell_scenario()
        with pytest.raises(ValueError):
            sc.schedule(-1.0)


class TestIdentity:
    """Profiles, fault models and drifts hold arrays, so they compare and
    hash by identity: == never asks numpy for the truth of an array."""

    def test_copies_compare_unequal(self):
        prof = symmetric_s3_scenario().profiles[1]
        fault = FaultModel.constant([0], [0.1 * SX])
        drift = carr_purcell_scenario().generic_drift(env_dim=2)
        for obj in (prof, fault, drift):
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
        sched = sc.schedule(0.05)
        fault = FaultModel.constant([0], [np.zeros((2, 2))])
        faulty = apply_fault(sched, fault)
        for step in faulty.steps:
            for frac, ideal, err in merged_segments(step.profile, step.fault):
                assert np.linalg.norm(err) == 0.0

    def test_constant_fault_merges_onto_profile_grid(self):
        sc = symmetric_s3_scenario()
        sched = sc.schedule(0.05)
        fault = FaultModel.constant([1], [0.1 * heisenberg(3, 0, 1)])
        faulty = apply_fault(sched, fault)
        for step in faulty.steps:
            if step.color != 1:
                assert step.fault is None
                continue
            segs = merged_segments(step.profile, step.fault)
            assert len(segs) == 2
            for frac, ideal, err in segs:
                np.testing.assert_allclose(err, 0.1 * heisenberg(3, 0, 1))

    def test_bad_fault_grid_rejected(self):
        with pytest.raises(SegmentError, match=r"^deltas\[0\]\[0\]\.fraction: "
                                             r"the fractions sum to 0\.4,"):
            FaultModel(deltas={0: [(0.4, SX)]})

    def test_unknown_color_rejected(self):
        sc = carr_purcell_scenario()
        sched = sc.schedule(0.05)
        with pytest.raises(GridMismatchError):
            apply_fault(sched, FaultModel(deltas={5: [(1.0, SX)]}))

    def test_bangbang_steps_carry_no_fault_color(self):
        bb = carr_purcell_scenario().bangbang(0.05)
        assert [s.color for s in bb.steps] == [None, None]
        with pytest.raises(GridMismatchError, match="unknown color 0"):
            apply_fault(bb, FaultModel(deltas={0: [(1.0, SX)]}))
        with pytest.raises(GridMismatchError, match="unknown color None"):
            apply_fault(bb, FaultModel(deltas={None: [(1.0, SX)]}))

    def test_fault_of_wrong_dimension_refused_where_it_meets_the_rep(self):
        # a FaultModel takes d from its first rate, so a 4 x 4 fault is
        # built; the 2 x 2 schedule and residual refuse it by key path
        sc = carr_purcell_scenario()
        fault = FaultModel.constant([0], [np.kron(SX, SX)])
        message = r"^deltas\[0\]\[0\]\.rate must be a Hermitian 2 x 2 matrix"
        for meet in (lambda: apply_fault(sc.schedule(0.05), fault),
                     lambda: residual_error(sc.rep, sc.profiles, fault),
                     lambda: robustness_report(sc, fault)):
            with pytest.raises(SegmentError, match=message):
                meet()

    def test_matching_dimension_runs_no_segment_rule(self, monkeypatch):
        # the rule ran for d = 2 when the model was built; only another d
        # runs it again
        sc = carr_purcell_scenario()
        fault = FaultModel.constant([0], [0.1 * SX])
        calls = []

        def counted(segs, d):
            calls.append(d)
            return segment_list(segs, d)
        monkeypatch.setattr(pulses, "segment_list", counted)
        fault.check_dimension(2)
        apply_fault(sc.schedule(0.05), fault)
        residual_error(sc.rep, sc.profiles, fault)
        assert calls == []
        with pytest.raises(SegmentError, match=r"^deltas\[0\]\[0\]\.rate must "
                                             r"be a Hermitian 4 x 4 matrix"):
            fault.check_dimension(4)
        assert calls == [4]

    def test_bangbang_fault_rejected(self):
        sc = carr_purcell_scenario()
        bb = sc.bangbang(0.05)
        with pytest.raises(ValueError):
            apply_fault(bb, FaultModel(deltas={0: [(1.0, SX)]}))


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

        doc = {1: [{"fraction": f, "rate": encode_matrix(r)} for f, r in segs]}
        refusals = [
            refusal(lambda: segment_list(segs, d), SegmentError),
            refusal(lambda: piecewise_profile(0, rep, segs), SegmentError),
            # color 0 fixes d, as the first rate of a fault does
            refusal(lambda: FaultModel({0: [(1.0, np.zeros((d, d)))], 1: segs}),
                    SegmentError),
            refusal(lambda: fault_from_doc(doc, rep), ConfigError),
        ]
        if bad is None:
            assert refusals == [None] * 4
        else:
            paths = ("", "", "deltas[1]", "faults.1")
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
        with pytest.raises(SegmentError) as info:
            FaultModel({0: [(fraction, SX)]})
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
