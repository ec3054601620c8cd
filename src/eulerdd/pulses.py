"""Bounded-strength pulse profiles realizing group generators, and the
assembly of Eulerian / bang-bang control schedules.

Profiles are piecewise constant.  Segment Hamiltonians are stored as
"angle-rate" matrices R = h * delta_t, so a profile is independent of the
sub-interval length: the physical Hamiltonian on a segment is R / delta_t
and amplitudes scale as 1/delta_t automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cayley import EulerPath
from .group_theory import (UnitaryRep, _read_only, align_phase, is_hermitian,
                           span_distance)

REALIZATION_TOL = 1e-9
ALGEBRA_TOL = 1e-10


class UnreachableGeneratorError(ValueError):
    """The requested generator cannot be reached along the given axis."""


class RealizationError(ValueError):
    """A profile does not implement its target generator."""


class GridMismatchError(ValueError):
    """Fault segment grid is incompatible with the profile grid."""


class IncompleteProfileSetError(ValueError):
    """A path color has no pulse profile."""


def _expm_eig(evals: np.ndarray, evecs: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) from the eigenpairs of a Hermitian H."""
    return (evecs * np.exp(-1j * scale * evals)) @ evecs.conj().T


def _expm_herm(H: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * H) for Hermitian H via eigendecomposition."""
    return _expm_eig(*np.linalg.eigh(H), scale)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance after optimal global-phase alignment."""
    return float(np.linalg.norm(a - align_phase(a, b)))


@dataclass
class PulseProfile:
    """Piecewise-constant control realizing one generator over a sub-interval.

    segments: list of (fraction, rate) where fraction is the share of
    delta_t and rate = h * delta_t is the angle-rate matrix; the segment
    unitary is exp(-i * rate * fraction).

    A profile replays unchanged in every sub-interval of its color, so the
    eigenpairs of each segment rate and the endpoint unitary are computed
    once, on first use, and shared read-only; the segments must not be
    changed after that.
    """

    generator: int
    segments: list
    target: np.ndarray
    in_algebra: bool

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
        d = self.target.shape[0]
        u = np.eye(d, dtype=complex)
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


def _check_realization(profile: PulseProfile, tol=REALIZATION_TOL):
    dist = phase_distance(profile.target, profile.endpoint_unitary())
    if dist > tol:
        raise RealizationError(
            f"profile does not implement generator: distance {dist:.3e} > {tol:.0e}")


def _in_algebra(segments, rep: UnitaryRep, tol=ALGEBRA_TOL) -> bool:
    stack = rep.algebra_stack()
    return all(span_distance(rate, *stack) <= tol * max(np.linalg.norm(rate), 1.0)
               for _, rate in segments)


def constant_profile(generator: int, rep: UnitaryRep, axis: np.ndarray) -> PulseProfile:
    """Single-segment profile: constant Hamiltonian along ``axis`` realizing
    the generator.  The amplitude is the smallest non-negative angle theta
    with exp(-i theta axis) equal to the target up to phase; the physical
    amplitude is theta / delta_t.  A non-Hermitian axis is refused.
    """
    axis = np.asarray(axis, dtype=complex)
    if not is_hermitian(axis):
        raise ValueError("axis must be a Hermitian matrix")
    target = rep.matrices[generator]
    d = target.shape[0]
    if np.linalg.norm(target - np.eye(d)) <= rep.phase_tolerance:
        segments = [(1.0, np.zeros((d, d), dtype=complex))]
        return PulseProfile(generator=generator, segments=segments, target=target,
                            in_algebra=_in_algebra(segments, rep))
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
        u = evecs @ np.diag(np.exp(-1j * theta * evals)) @ evecs.conj().T
        if phase_distance(target, u) <= REALIZATION_TOL:
            break
    else:
        raise UnreachableGeneratorError("unreachable generator along axis")
    segments = [(1.0, theta * axis)]
    return PulseProfile(generator=generator, segments=segments, target=target,
                        in_algebra=_in_algebra(segments, rep))


def piecewise_profile(generator: int, rep: UnitaryRep, segments) -> PulseProfile:
    """Profile from explicit (fraction, rate) segments; rate = h * delta_t.

    Validates the realization invariant and computes the in-algebra flag by
    projecting each segment onto the group-algebra span.
    """
    segs = []
    total = 0.0
    for frac, rate in segments:
        frac = float(frac)
        if frac <= 0.0:
            raise ValueError("segment fractions must be positive")
        rate = np.asarray(rate, dtype=complex)
        if not is_hermitian(rate):
            raise ValueError("segment Hamiltonians must be Hermitian")
        segs.append((frac, rate))
        total += frac
    if abs(total - 1.0) > 1e-12:
        raise ValueError("segment fractions must sum to 1")
    profile = PulseProfile(generator=generator, segments=segs,
                           target=rep.matrices[generator],
                           in_algebra=_in_algebra(segs, rep))
    _check_realization(profile)
    return profile


@dataclass
class FaultModel:
    """Systematic per-generator control errors.

    deltas[color] is a list of (fraction, rate) segments over the
    sub-interval, in the same 1/delta_t units as profiles; the same error
    replays at the same offset every time that generator is pulsed.
    """

    deltas: dict
    in_algebra: bool = False

    def validate(self) -> None:
        for color, segs in self.deltas.items():
            total = sum(frac for frac, _ in segs)
            if abs(total - 1.0) > 1e-12:
                raise GridMismatchError(
                    f"incompatible fault grid: color {color} fractions sum to {total}")

    @staticmethod
    def constant(colors, rates, rep: UnitaryRep = None) -> "FaultModel":
        """Constant Delta-h per generator; rates in 1/delta_t units."""
        deltas = {c: [(1.0, np.asarray(r, dtype=complex))] for c, r in zip(colors, rates)}
        in_alg = False
        if rep is not None:
            in_alg = all(_in_algebra(segs, rep) for segs in deltas.values())
        return FaultModel(deltas=deltas, in_algebra=in_alg)


@dataclass
class ControlSchedule:
    """Full cyclic control timeline.

    kind 'eulerian': path is an EulerPath, profiles maps color -> PulseProfile.
    kind 'bangbang': ordering is the group element order; the propagator is
    piecewise constant and kicks are zero-duration frame jumps.
    """

    kind: str
    rep: UnitaryRep
    delta_t: float
    path: EulerPath = None
    profiles: dict = None
    ordering: tuple = None
    fault: FaultModel = None

    @property
    def sub_intervals(self) -> int:
        if self.kind == "eulerian":
            return len(self.path)
        return self.rep.group.order

    @property
    def cycle_time(self) -> float:
        return self.sub_intervals * self.delta_t

    @property
    def max_hamiltonian_norm(self) -> float:
        if self.kind != "eulerian":
            return float("inf")  # b.b. kicks are impulsive by construction
        return max(p.max_rate_norm for p in self.profiles.values()) / self.delta_t

    def kicks(self) -> list:
        """Bang-bang frame jumps p_l = g_l g_{l-1}†."""
        mats = self.rep.matrices
        order = self.ordering
        n = len(order)
        return [mats[order[l % n]] @ mats[order[l - 1]].conj().T
                for l in range(1, n + 1)]

    def stroboscopic_frames(self) -> tuple:
        """U_c at the sub-interval endpoints 0, dt, 2dt, ..., T_c.

        Computed once per schedule and shared (read-only) by the closing
        check, ``average_hamiltonian`` and every ``control_propagator`` call.
        """
        return self._frames

    @cached_property
    def _frames(self) -> tuple:
        d = self.rep.dimension
        if self.kind == "bangbang":
            return (*(self.rep.matrices[j] for j in self.ordering),
                    _read_only(np.eye(d, dtype=complex)))
        frames = [_read_only(np.eye(d, dtype=complex))]
        for c in self.path.colors:
            frames.append(_read_only(self.profiles[c].endpoint_unitary() @ frames[-1]))
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
    sched = ControlSchedule(kind="eulerian", rep=rep, delta_t=delta_t,
                            path=path, profiles=dict(profiles))
    # closure: the path returns to the identity, so U_c(T_c) ~ identity
    closing = sched.stroboscopic_frames()[-1]
    if phase_distance(np.eye(rep.dimension, dtype=complex), closing) > 1e-8:
        raise RealizationError("schedule does not close at the identity")
    return sched


def bangbang_schedule(group, rep: UnitaryRep, delta_t: float) -> ControlSchedule:
    """Baseline impulsive schedule: propagator g_{l-1} on sub-interval l."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if group.order <= 1:
        raise ValueError("decoupling requires |G| > 1")
    return ControlSchedule(kind="bangbang", rep=rep, delta_t=delta_t,
                           ordering=tuple(range(group.order)))


def _merge_grids(profile_segs, fault_segs):
    """Union grid of two segment lists over [0, 1]; returns
    (fraction, profile segment index, fault_rate) triples."""
    cuts = {0.0, 1.0}
    pos = 0.0
    for frac, _ in profile_segs:
        pos += frac
        cuts.add(round(pos, 15))
    pos = 0.0
    for frac, _ in fault_segs:
        pos += frac
        cuts.add(round(pos, 15))
    cuts = sorted(c for c in cuts if 0.0 <= c <= 1.0 + 1e-12)

    def index_at(segs, x):
        pos = 0.0
        for k, (frac, _) in enumerate(segs):
            if x < pos + frac - 1e-12:
                return k
            pos += frac
        return len(segs) - 1

    merged = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        merged.append((b - a, index_at(profile_segs, mid),
                       fault_segs[index_at(fault_segs, mid)][1]))
    return merged


def apply_fault(schedule: ControlSchedule, fault: FaultModel) -> ControlSchedule:
    """Attach a systematic fault: segment Hamiltonians become h + delta-h.

    The ideal profiles are retained on the returned schedule (the toggling
    frame is always built from the intended control)."""
    if schedule.kind != "eulerian":
        raise ValueError("fault injection is defined for eulerian schedules only")
    fault.validate()
    for color in fault.deltas:
        if color not in schedule.profiles:
            raise GridMismatchError(f"incompatible fault grid: unknown color {color}")
    return ControlSchedule(kind="eulerian", rep=schedule.rep,
                           delta_t=schedule.delta_t, path=schedule.path,
                           profiles=schedule.profiles, fault=fault)


def merged_segments(profile: PulseProfile, fault, color: int):
    """(fraction, profile segment index, fault_rate) triples for one
    sub-interval; the index selects the ideal rate and its cached
    eigenpairs on ``profile``."""
    segs = profile.segments
    if fault is None or color not in fault.deltas:
        return [(frac, k, np.zeros_like(rate)) for k, (frac, rate) in enumerate(segs)]
    return _merge_grids(segs, fault.deltas[color])
