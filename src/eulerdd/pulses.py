"""Bounded-strength pulse profiles realizing group generators, and the
assembly of Eulerian / bang-bang control schedules.

A profile is its list of piecewise-constant segments.  Segment
Hamiltonians are stored as "angle-rate" matrices R = h * delta_t, so a
profile is independent of the sub-interval length: the physical
Hamiltonian on a segment is R / delta_t and amplitudes scale as
1/delta_t automatically.  ``piecewise_profile`` checks realization, and
``group_theory.in_algebra`` group-algebra membership where that is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .cayley import EulerPath
from .group_theory import (DEFAULT_PHASE_TOL, UnitaryRep, _read_only,
                           is_hermitian, phase_distance)

REALIZATION_TOL = 1e-9


class UnreachableGeneratorError(ValueError):
    """The requested generator cannot be reached along the given axis."""


class RealizationError(ValueError):
    """A profile does not implement its target generator."""


class GridMismatchError(ValueError):
    """A fault color is the generator color of no step of the schedule."""


class IncompleteProfileSetError(ValueError):
    """A path color has no pulse profile."""


class SegmentError(ValueError):
    """A segment list breaks the segment rule; the message starts with the
    key path of the offending value, as in "[1].rate" or "deltas[0][1].rate",
    and ``index`` is the position of the offending segment in its list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def hermitian_matrix(m, d: int, label: str) -> np.ndarray:
    """``m`` as a complex array; a ValueError naming ``label`` unless it is a
    Hermitian d x d matrix."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        m = None
    if m is None or m.shape != (d, d) or not is_hermitian(m):
        raise ValueError(f"{label} must be a Hermitian {d} x {d} matrix")
    return m


def segment_list(segments, d: int) -> tuple:
    """The segment rule: ``segments`` as a tuple of (fraction, rate) pairs
    covering one sub-interval, each fraction a finite float > 0, each rate
    a Hermitian d x d complex matrix, the fractions summing to 1 within
    1e-12.  A SegmentError names the first segment that breaks it; a sum
    off 1 is the last segment's."""
    out = []
    for j, (frac, rate) in enumerate(segments):
        try:
            frac = float(frac)
        except (TypeError, ValueError):
            pass    # refused below, by the value as given
        if not (isinstance(frac, float) and 0.0 < frac < math.inf):
            raise SegmentError(f"[{j}].fraction must be a finite number > 0, "
                               f"got {frac!r}", j)
        try:
            out.append((frac, hermitian_matrix(rate, d, f"[{j}].rate")))
        except ValueError as exc:
            raise SegmentError(str(exc), j) from None
    if not out:
        raise SegmentError("[0] is missing: a segment list has at least one "
                           "segment", 0)
    total = sum(frac for frac, _ in out)
    if abs(total - 1.0) > 1e-12:
        raise SegmentError(f"[{len(out) - 1}].fraction: the fractions sum to "
                           f"{total!r}, not 1", len(out) - 1)
    return tuple(out)


def _expm_eig(evals: np.ndarray, evecs: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) from the eigenpairs of a Hermitian H."""
    return (evecs * np.exp(-1j * scale * evals)) @ evecs.conj().T


def _expm_herm(H: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) for Hermitian H via eigendecomposition."""
    return _expm_eig(*np.linalg.eigh(H), scale)


@dataclass(eq=False)
class PulseProfile:
    """Piecewise-constant control over one sub-interval: its segments.

    segments: (fraction, rate) pairs, where fraction is the share of
    delta_t and rate = h * delta_t is the angle-rate d x d matrix; the
    segment unitary is exp(-i * rate * fraction).  ``piecewise_profile``
    builds the profiles of a schedule, so their segments keep the segment
    rule and realize their generator.

    A profile replays unchanged in every step that pulses it, so the
    eigenpairs of each segment rate and the endpoint unitary are computed
    once, on first use, and shared read-only; the segments must not be
    changed after that.  Profiles compare and hash by identity, so the
    per-profile caches of ``dynamics`` and ``io`` key on the profile.
    """

    segments: tuple

    @property
    def max_rate_norm(self) -> float:
        """Largest instantaneous Hamiltonian norm, in units of 1/delta_t."""
        return max(float(np.linalg.norm(rate, 2)) for _, rate in self.segments)

    @cached_property
    def spectra(self) -> tuple:
        """(eigenvalues, eigenvectors) of each segment rate."""
        return tuple(tuple(_read_only(a) for a in np.linalg.eigh(rate))
                     for _, rate in self.segments)

    def unitary_at(self, x: float) -> np.ndarray:
        """u(x) for fraction x in [0, 1] of the sub-interval."""
        u = np.eye(self.segments[0][1].shape[0], dtype=complex)
        pos = 0.0
        for (frac, _), (lam, V) in zip(self.segments, self.spectra):
            if x >= pos + frac - 1e-15:
                u = _expm_eig(lam, V, frac) @ u
            else:
                u = _expm_eig(lam, V, x - pos) @ u
                break
            pos += frac
        return u

    def endpoint_unitary(self) -> np.ndarray:
        """u(1), shared read-only."""
        return self._endpoint

    @cached_property
    def _endpoint(self) -> np.ndarray:
        return _read_only(self.unitary_at(1.0))


def constant_profile(generator: int, rep: UnitaryRep, axis: np.ndarray) -> PulseProfile:
    """Single-segment profile: constant Hamiltonian along ``axis`` realizing
    the generator.  The amplitude is the smallest non-negative angle theta
    with exp(-i theta axis) equal to the target up to phase; the physical
    amplitude is theta / delta_t.  An axis that is not a Hermitian d x d
    matrix is refused.
    """
    target = rep.matrices[generator]
    d = target.shape[0]
    axis = hermitian_matrix(axis, d, "axis")
    if np.linalg.norm(target - np.eye(d)) <= DEFAULT_PHASE_TOL:
        return piecewise_profile(generator, rep, [(1.0, np.zeros((d, d)))])
    evals, evecs = np.linalg.eigh(axis)
    diag_target = evecs.conj().T @ target @ evecs
    if np.linalg.norm(diag_target - np.diag(np.diag(diag_target))) > 1e-9:
        raise UnreachableGeneratorError(
            "unreachable generator along axis: target not diagonal in axis eigenbasis")
    t = np.diag(diag_target)
    # candidate angles from one pair of distinct axis eigenvalues, all
    # branches; eigh sorts the eigenvalues, so the first such pair is (0, j)
    j = int(np.argmax(evals - evals[0] > 1e-12))
    if j == 0:
        raise UnreachableGeneratorError(
            "unreachable generator along axis: axis is a multiple of identity")
    gap = evals[0] - evals[j]
    base = -np.angle(t[0] / t[j]) / gap
    period = 2.0 * np.pi / abs(gap)
    for n in range(-8, 9):    # theta grows with n: the first fit is the smallest
        theta = base + n * period
        if theta < -1e-12:
            continue
        if phase_distance(target, _expm_eig(evals, evecs, theta)) <= REALIZATION_TOL:
            break
    else:
        raise UnreachableGeneratorError("unreachable generator along axis")
    return piecewise_profile(generator, rep, [(1.0, theta * axis)])


def piecewise_profile(generator: int, rep: UnitaryRep, segments) -> PulseProfile:
    """Profile from explicit (fraction, rate) segments; rate = h * delta_t.

    It holds the segments to the segment rule for d = ``rep.dimension``
    and checks that they realize ``rep.matrices[generator]`` up to phase
    (RealizationError); group-algebra membership is not checked here.
    """
    target = rep.matrices[generator]
    profile = PulseProfile(segment_list(segments, target.shape[0]))
    dist = phase_distance(target, profile.endpoint_unitary())
    if dist > REALIZATION_TOL:
        raise RealizationError(f"profile does not implement generator: "
                               f"distance {dist:.3e} > {REALIZATION_TOL:.0e}")
    return profile


@dataclass(eq=False)
class FaultModel:
    """Systematic per-generator control errors.

    deltas[color] is a tuple of (fraction, rate) segments over the
    sub-interval, in the same 1/delta_t units as profiles; the same error
    replays at the same offset every time that generator is pulsed.  Built
    models keep the segment rule, with d the size of their first rate;
    ``check_dimension`` holds them to the d of the representation they meet.
    """

    deltas: dict

    def __post_init__(self):
        rates = [rate for segs in self.deltas.values() for _, rate in segs]
        d = np.shape(rates[0])[0] if rates and np.ndim(rates[0]) else 0
        self.deltas = self._segment_lists(d)
        self._checked_dim = d

    def _segment_lists(self, d: int) -> dict:
        deltas = {}
        for color, segs in self.deltas.items():
            try:
                deltas[color] = segment_list(segs, d)
            except SegmentError as exc:
                raise SegmentError(f"deltas[{color}]{exc}", exc.index) from None
        return deltas

    def check_dimension(self, d: int) -> None:
        """A SegmentError naming ``deltas[c]`` unless every rate is d x d,
        d the dimension of the representation the fault meets.  The rule
        runs again only for a d other than the last one the model passed."""
        if d != self._checked_dim:
            self._segment_lists(d)
            self._checked_dim = d

    @staticmethod
    def constant(colors, rates) -> "FaultModel":
        """Constant Delta-h per generator; rates in 1/delta_t units."""
        return FaultModel(deltas={c: [(1.0, r)] for c, r in zip(colors, rates)})


@dataclass(frozen=True, eq=False)
class Step:
    """One sub-interval of a schedule: the generator color it realizes
    (None for a free step), the profile pulsed over it, an instantaneous
    frame jump applied after the pulse (None for none), and the systematic
    error riding on the pulse: validated (fraction, rate) fault segments,
    in the profile's 1/delta_t units, or None for an ideal pulse."""

    color: int | None
    profile: PulseProfile
    kick: np.ndarray | None = None
    fault: tuple | None = None


@dataclass
class ControlSchedule:
    """Full cyclic control timeline: one step per sub-interval of length
    delta_t.  The control during step l is u_l(s) f_l, where u_l is the
    step's profile and the frames are f_0 = I, f_{l+1} = K_l u_l(1) f_l,
    K_l being the step's kick (left out when None).  Each step carries its
    own profile, kick and fault, so steps of one color may pulse different
    profiles.  ``path`` is the Euler path an Eulerian schedule follows, None
    for a schedule that follows none.
    """

    rep: UnitaryRep
    delta_t: float
    steps: tuple
    path: EulerPath = None

    @property
    def sub_intervals(self) -> int:
        return len(self.steps)

    @property
    def cycle_time(self) -> float:
        return self.sub_intervals * self.delta_t

    @property
    def profiles(self) -> dict:
        """color -> the profile of the last step of that color; defined for
        a schedule whose steps of one color all pulse one profile."""
        return {step.color: step.profile for step in self.steps}

    @property
    def max_hamiltonian_norm(self) -> float:
        if any(step.kick is not None for step in self.steps):
            return float("inf")  # kicks are impulsive by construction
        distinct = {step.profile for step in self.steps}
        return max(p.max_rate_norm for p in distinct) / self.delta_t

    def stroboscopic_frames(self) -> tuple:
        """U_c at the sub-interval endpoints 0, dt, 2dt, ..., T_c.

        Computed once per schedule and shared (read-only) by the closing
        check, ``average_hamiltonian`` and every ``control_propagator`` call.
        """
        return self._frames

    @cached_property
    def _frames(self) -> tuple:
        frame = _read_only(np.eye(self.rep.dimension, dtype=complex))
        frames = [frame]
        for step in self.steps:
            frame = step.profile.endpoint_unitary() @ frame
            if step.kick is not None:
                frame = step.kick @ frame
            frames.append(_read_only(frame))
        return tuple(frames)


def eulerian_schedule(path: EulerPath, profiles: dict, delta_t: float,
                      rep: UnitaryRep) -> ControlSchedule:
    """Assemble the Eulerian schedule: pulse the color-c profile during the
    l'th sub-interval, c being the l'th path color; T_c = L * delta_t."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if len(path) == 0:
        raise ValueError("empty path: decoupling requires |G| > 1")
    for c in path.colors:
        if c not in profiles:
            raise IncompleteProfileSetError(f"incomplete profile set: no profile for color {c}")
    sched = ControlSchedule(rep=rep, delta_t=delta_t, path=path,
                            steps=tuple(Step(c, profiles[c]) for c in path.colors))
    # closure: the path returns to the identity, so U_c(T_c) ~ identity
    closing = sched.stroboscopic_frames()[-1]
    if phase_distance(np.eye(rep.dimension, dtype=complex), closing) > 1e-8:
        raise RealizationError("schedule does not close at the identity")
    return sched


def bangbang_schedule(group, rep: UnitaryRep, delta_t: float) -> ControlSchedule:
    """Baseline impulsive schedule: free evolution in frame g_l during
    sub-interval l, then the kick g_{l+1} g_l† (indices mod |G|)."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    n = group.order
    if n <= 1:
        raise ValueError("decoupling requires |G| > 1")
    mats = rep.matrices
    free = piecewise_profile(0, rep, [(1.0, np.zeros_like(mats[0]))])
    return ControlSchedule(rep=rep, delta_t=delta_t, steps=tuple(
        Step(None, free, mats[(l + 1) % n] @ mats[l].conj().T) for l in range(n)))


def _merge_grids(profile_segs, fault_segs):
    """Union grid of two segment lists over [0, 1]; returns
    (fraction, profile segment index, fault_rate) triples."""
    ends = [list(accumulate(frac for frac, _ in segs))
            for segs in (profile_segs, fault_segs)]
    cuts = sorted(c for c in {0.0, 1.0, *(round(e, 15) for e in ends[0] + ends[1])}
                  if 0.0 <= c <= 1.0 + 1e-12)

    def index_at(which, x):
        """The segment of list ``which`` (0 profile, 1 fault) holding x."""
        return next((k for k, end in enumerate(ends[which]) if x < end - 1e-12),
                    len(ends[which]) - 1)

    return [(b - a, index_at(0, 0.5 * (a + b)),
             fault_segs[index_at(1, 0.5 * (a + b))][1])
            for a, b in zip(cuts[:-1], cuts[1:])]


def apply_fault(schedule: ControlSchedule, fault: FaultModel) -> ControlSchedule:
    """Attach a systematic fault: segment Hamiltonians become h + delta-h.

    Every fault color must be the generator color of some step.  The
    returned schedule's steps of color c carry ``fault.deltas[c]``, and the
    other steps no fault; each keeps its ideal profile (the toggling frame
    is always built from the intended control)."""
    fault.check_dimension(schedule.rep.dimension)
    colors = {step.color for step in schedule.steps}
    for color in fault.deltas:
        if color is None or color not in colors:
            raise GridMismatchError(f"incompatible fault grid: unknown color {color}")
    return replace(schedule, steps=tuple(
        replace(step, fault=fault.deltas.get(step.color)) for step in schedule.steps))


def merged_segments(profile: PulseProfile, fault_segments):
    """(fraction, profile segment index, fault_rate) triples for one
    sub-interval under ``fault_segments`` (None for no fault); the index
    selects the ideal rate and its cached eigenpairs on ``profile``."""
    segs = profile.segments
    if fault_segments is None:
        return [(frac, k, np.zeros_like(rate)) for k, (frac, rate) in enumerate(segs)]
    return _merge_grids(segs, fault_segments)
