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

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .cayley import START, EulerPath
from .group_theory import (DEFAULT_PHASE_TOL, MAX_STACK_BYTES, UnitaryRep,
                           _monomial_parts, _read_only, is_hermitian,
                           phase_distance)

REALIZATION_TOL = 1e-9


class UnreachableGeneratorError(ValueError):
    """The requested generator cannot be reached along the given axis."""


class RealizationError(ValueError):
    """A profile does not implement its target generator."""


class GridMismatchError(ValueError):
    """A fault color is not one of the colors it is held to; ``color`` is
    that color."""

    def __init__(self, color):
        super().__init__(f"incompatible fault grid: unknown color {color}")
        self.color = color


class IncompleteProfileSetError(ValueError):
    """A path color has no pulse profile."""


class PathMismatchError(ValueError):
    """A schedule's path is not the walk of its steps."""


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
    """exp(-i * scale * H) from the eigenpairs of a Hermitian H; for an H
    exponentiated at several scales, whose eigenpairs are reused."""
    return (evecs * np.exp(-1j * scale * evals)) @ evecs.conj().T


# (m, θ_m): the largest ‖A‖₁ at which the degree-m Padé approximant of
# exp(A) is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005), Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))
# the coefficients b_j of the degree-m approximant, scaled to integers
_PADE_B = {m: tuple(float(math.factorial(2 * m - j)
                          // (math.factorial(j) * math.factorial(m - j)))
                    for j in range(m + 1)) for m, _ in _PADE_THETA}
# how many powers A², A⁴, ... degree m stores: Higham's choice, but for
# m = 7, which takes one product more so that it fits EXPM_WORK
_PADE_POWERS = {3: 1, 5: 2, 7: 2, 9: 2, 13: 3}
# the matrices of the scratch stack that _expm_herm works in; degree 13
# needs one more, and allocates its own stack
EXPM_WORK = 3


def _expm_herm(H: np.ndarray, scale: float = 1.0, work=None) -> np.ndarray:
    """exp(-i * scale * H) for Hermitian H, by Padé scaling and squaring
    (Higham 2005; Moler & Van Loan, SIAM Rev. 45, 3 (2003)): the degree
    3, 5, 7, 9 or 13 whose θ_m bounds ‖-i scale H‖₁, squared after scaling
    by 2^-s when that norm is above θ₁₃.  For a one-shot exponential; where
    one H is exponentiated at several scales, its eigenpairs are reused
    (``_expm_eig``).

    ``work``, a (EXPM_WORK, D, D) complex stack, holds the temporaries, so
    that one stack serves many calls; H is then overwritten, so pass a
    scratch copy.  Without it H is copied and a stack allocated.  A
    non-finite exponent is a ValueError.
    """
    a = np.array(H, dtype=complex) if work is None else H
    if work is None:
        work = np.empty((EXPM_WORK, *a.shape), dtype=complex)
    # ‖H‖₁ from |H| written into the real parts of a scratch matrix
    norm = abs(scale) * float(np.abs(a, out=work[0].real).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError(f"the exponent -i x {scale!r} x H is not finite")
    m = next((m for m, theta in _PADE_THETA if norm <= theta), 13)
    squarings = (math.ceil(math.log2(norm / _PADE_THETA[-1][1]))
                 if norm > _PADE_THETA[-1][1] else 0)
    a *= -1j * scale * 0.5 ** squarings
    u = _pade(a, m, work)
    for _ in range(squarings):
        np.copyto(u, np.matmul(u, u, out=work[0]))
    return u


def _pade(a: np.ndarray, m: int, work: np.ndarray) -> np.ndarray:
    """(V - U)⁻¹ (V + U), the degree-m Padé approximant of exp(A) for the
    A held in ``a``, with U = p(A²) A and V = q(A²) for the odd and even
    coefficients of the approximant.  All of them are polynomials in A and
    commute.  ``a`` and the first _PADE_POWERS[m] + 1 matrices of ``work``
    (of a new stack when ``work`` holds fewer) are overwritten; the
    products that would need one more matrix are taken in place
    (``_times_in_place``)."""
    b = _PADE_B[m]
    j = _PADE_POWERS[m]
    if j >= len(work):
        work = np.empty((j + 1, *a.shape), dtype=complex)
    powers, odd = work[:j], work[j]
    np.matmul(a, a, out=powers[0])
    for k in range(1, len(powers)):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    _even_polynomial(odd, b[1::2], powers)
    _times_in_place(odd, a)                 # U; A is read for the last time
    _even_polynomial(a, b[0::2], powers)    # V
    np.subtract(a, odd, out=powers[0])
    a += odd
    return np.linalg.solve(powers[0], a)


def _even_polynomial(out, coeffs, powers) -> None:
    """out = Σ_k coeffs[k] y^k for y = A², where powers[i] = y^(i+1).  With
    j stored powers and a higher degree, the terms above y^j are taken as
    y^j · Σ_{k≥1} coeffs[j+k] y^k (Paterson-Stockmeyer)."""
    j = len(powers)
    if len(coeffs) <= j + 1:
        _combine(out, coeffs, powers)
        return
    _combine(out, (0.0, *coeffs[j + 1:]), powers)
    _times_in_place(out, powers[j - 1])
    _combine(out, coeffs[:j + 1], powers, add=True)


def _combine(out, coeffs, powers, add: bool = False) -> None:
    """out = coeffs[0] I + Σ_{k≥1} coeffs[k] powers[k-1], plus what out
    holds when ``add``: summed from the highest power down, each partial
    sum scaled by the ratio of two coefficients (Horner's rule on the
    coefficients), so that no term needs a temporary."""
    top = len(coeffs) - 1
    if add:
        out *= 1.0 / coeffs[top]
        out += powers[top - 1]
    else:
        np.copyto(out, powers[top - 1])
    for k in range(top - 1, 0, -1):
        out *= coeffs[k + 1] / coeffs[k]
        out += powers[k - 1]
    out *= coeffs[1]
    out.ravel()[::out.shape[0] + 1] += coeffs[0]


def _times_in_place(x: np.ndarray, y: np.ndarray) -> None:
    """x <- x y, a block of rows of x at a time: row i of the product reads
    only row i of x, so no D x D temporary is needed.  A block is a quarter
    of the rows, or as many as fit MAX_STACK_BYTES if that is more (all of
    them at small D, where the calls would cost more than the products)."""
    step = max(-(-len(x) // 4), MAX_STACK_BYTES // (16 * len(x)))
    for r in range(0, len(x), step):
        x[r:r + step] = x[r:r + step] @ y


def involution_parts(rate: np.ndarray):
    """(θ, rows, phases) of a matrix θA with θ > 0 and A a monomial
    Hermitian involution, as a Pauli string is: rows[i] is the row of the
    one nonzero entry in column i of A and phases[i] that entry.  None for
    any other matrix.  Rows and entries are ``group_theory._monomial_parts``'
    (zero is exact zero); rows must be an involution and A = rate / θ, θ
    the largest |entry|, must square to I within 1e-14 per entry, so every
    |entry| is θ."""
    parts = _monomial_parts(rate)
    if parts is None or not (parts[0][parts[0]] == np.arange(len(rate))).all():
        return None
    rows, entries = parts[0], parts[1].astype(complex)
    theta = float(np.abs(entries).max())
    # the parts divided as reals: a complex division by a subnormal θ
    # overflows
    phases = (entries.view(float) / theta).view(complex)
    # A² e_i = phases[i] phases[rows[i]] e_i
    if not np.abs(phases * phases[rows] - 1.0).max() <= 1e-14:
        return None
    return theta, _read_only(rows), _read_only(phases)


def _involution_unitary(angle: float, rows: np.ndarray,
                        phases: np.ndarray) -> np.ndarray:
    """exp(-i angle A) = cos(angle) I - i sin(angle) A for the monomial
    involution A of ``involution_parts``' (rows, phases)."""
    d = len(rows)
    u = np.zeros((d, d), dtype=complex)
    u[rows, np.arange(d)] = (-1j * math.sin(angle)) * phases
    u.ravel()[::d + 1] += math.cos(angle)
    return u


@dataclass(eq=False)
class PulseProfile:
    """Piecewise-constant control over one sub-interval: its segments.

    segments: (fraction, rate) pairs, where fraction is the share of
    delta_t and rate = h * delta_t is the angle-rate d x d matrix; the
    segment unitary is exp(-i * rate * fraction).  ``piecewise_profile``
    builds the profiles of a schedule, so their segments keep the segment
    rule and realize their generator.

    A profile replays unchanged in every step that pulses it, so the
    eigenpairs of each segment rate, the ``involution`` data and the
    endpoint unitary are computed once, on first use, and shared
    read-only; the segments must not be changed after that.  A profile with
    ``involution`` data is never diagonalized on its way through a
    schedule: its unitary and its integrals have closed forms.  Profiles
    compare and hash by identity, so the per-profile caches of
    ``dynamics`` and ``io`` key on the profile.
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

    @cached_property
    def involution(self):
        """``involution_parts`` of the rate of a one-segment profile; None
        for any other profile."""
        if len(self.segments) != 1:
            return None
        return involution_parts(self.segments[0][1])

    def endpoint_unitary(self) -> np.ndarray:
        """u(1), shared read-only: for a profile with ``involution`` data
        cos(fθ) I - i sin(fθ) A, built from (θ, rows, phases) at its one
        fraction f, and otherwise the product of the segments' exponentials
        from their eigenpairs."""
        return self._endpoint

    @cached_property
    def _endpoint(self) -> np.ndarray:
        if self.involution is not None:
            theta, rows, phases = self.involution
            return _read_only(_involution_unitary(theta * self.segments[0][0],
                                                  rows, phases))
        u = np.eye(self.segments[0][1].shape[0], dtype=complex)
        for (frac, _), (lam, V) in zip(self.segments, self.spectra):
            u = _expm_eig(lam, V, frac) @ u
        return _read_only(u)


def constant_profile(generator: int, rep: UnitaryRep, axis: np.ndarray) -> PulseProfile:
    """Single-segment profile: constant Hamiltonian along ``axis`` realizing
    the generator.  The amplitude is the smallest non-negative angle theta
    with exp(-i theta axis) equal to the target up to phase; the physical
    amplitude is theta / delta_t.  An axis that is not a Hermitian d x d
    matrix is refused.  An axis cA, A a monomial Hermitian involution
    (``involution_parts``), has its angle read from (c, rows, phases)
    (``_involution_angle``); any other axis is diagonalized.
    """
    target = rep.matrices[generator]
    d = target.shape[0]
    axis = hermitian_matrix(axis, d, "axis")
    if np.linalg.norm(target - np.eye(d)) <= DEFAULT_PHASE_TOL:
        return piecewise_profile(generator, rep, [(1.0, np.zeros((d, d)))])
    parts = involution_parts(axis)
    theta = (_eigenbasis_angle(target, axis) if parts is None
             else _involution_angle(target, *parts))
    return piecewise_profile(generator, rep, [(1.0, theta * axis)])


def _unreachable(why: str = "") -> UnreachableGeneratorError:
    return UnreachableGeneratorError("unreachable generator along axis"
                                     + (f": {why}" if why else ""))


def _involution_angle(target: np.ndarray, c: float, rows: np.ndarray,
                      phases: np.ndarray) -> float:
    """The angle of ``constant_profile`` for the axis cA, A the monomial
    Hermitian involution of (rows, phases), without an eigendecomposition.

    A's eigenvectors are known: e_i of eigenvalue phases[i] = ±1 for a
    column i that A fixes, e_i ± phases[i] e_rows[i] of eigenvalue ±1 for
    one it moves.  A target aI + bA in span{I, A} has the eigenvalue
    λ± = a ± b on each, read from its column i, and exp(-iθcA) has e^{∓iθc}
    there, so θ = arg(λ- / λ+) / (2c), plus the period π/c when that is
    negative: the eigenbasis rule of ``_eigenbasis_angle`` for the
    eigenvalues ±c.  A target that does not commute with A is refused as
    not diagonal in A's eigenbasis, as that rule refuses it; one that
    commutes but lies outside span{I, A}, or is not realized at θ, as
    unreachable.
    """
    d = len(rows)
    cols = np.arange(d)
    fixed = rows == cols

    def eigenvalue(sign):
        on = np.flatnonzero(fixed & (phases.real * sign > 0))
        if len(on):
            return target[on[0], on[0]]
        i = int(np.argmin(fixed))      # a moved column
        return target[i, i] + sign * phases[i] * target[i, rows[i]]

    if fixed.all() and np.ptp(phases.real) < 1.0:   # A = ±I
        raise _unreachable("axis is a multiple of identity")
    plus, minus = eigenvalue(1), eigenvalue(-1)
    residual = target.copy()
    residual.ravel()[::d + 1] -= 0.5 * (plus + minus)
    residual[rows, cols] -= 0.5 * (plus - minus) * phases
    if np.linalg.norm(residual) > 1e-9:
        # (TA)[:, i] = T[:, rows[i]] phases[i], (AT)[i] = phases[rows[i]] T[rows[i]]
        commutator = target[:, rows] * phases - phases[rows][:, None] * target[rows]
        raise _unreachable("target not diagonal in axis eigenbasis"
                           if np.linalg.norm(commutator) > 1e-9 else "")
    theta = np.angle(minus / plus) / (2.0 * c)
    if theta < -1e-12:
        theta += np.pi / c
    realized = _involution_unitary(theta * c, rows, phases)
    if not phase_distance(target, realized) <= REALIZATION_TOL:
        raise _unreachable()
    return theta


def _eigenbasis_angle(target: np.ndarray, axis: np.ndarray) -> float:
    """The angle of ``constant_profile`` from the eigenpairs of ``axis``:
    the target, diagonal in the axis eigenbasis, has eigenvalues t there,
    and of the angles that turn the first pair of distinct axis
    eigenvalues into the phase of t on them (every branch), the smallest
    non-negative one that realizes the target is taken."""
    evals, evecs = np.linalg.eigh(axis)
    diag_target = evecs.conj().T @ target @ evecs
    if np.linalg.norm(diag_target - np.diag(np.diag(diag_target))) > 1e-9:
        raise _unreachable("target not diagonal in axis eigenbasis")
    t = np.diag(diag_target)
    # candidate angles from one pair of distinct axis eigenvalues, all
    # branches; eigh sorts the eigenvalues, so the first such pair is (0, j)
    j = int(np.argmax(evals - evals[0] > 1e-12))
    if j == 0:
        raise _unreachable("axis is a multiple of identity")
    gap = evals[0] - evals[j]
    base = -np.angle(t[0] / t[j]) / gap
    period = 2.0 * np.pi / abs(gap)
    for n in range(-8, 9):    # theta grows with n: the first fit is the smallest
        theta = base + n * period
        if theta < -1e-12:
            continue
        if phase_distance(target, _expm_eig(evals, evecs, theta)) <= REALIZATION_TOL:
            return theta
    raise _unreachable()


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


def fault_segments(deltas: dict, d: int, colors, where: str = "deltas[{}]") -> dict:
    """The one rule for a fault, a mapping color -> list of (fraction, rate)
    segments over the sub-interval in the profiles' 1/delta_t units: each
    color is one of ``colors`` (GridMismatchError otherwise, None included)
    and each list keeps the segment rule for the representation's d (a
    SegmentError whose path starts with ``where`` formatted with the color).
    Returns color -> the validated segment tuple a ``Step`` stores."""
    held = {}
    for color, segs in deltas.items():
        if color is None or color not in colors:
            raise GridMismatchError(color)
        try:
            held[color] = segment_list(segs, d)
        except SegmentError as exc:
            raise SegmentError(f"{where.format(color)}{exc}", exc.index) from None
    return held


@dataclass(frozen=True, eq=False)
class Step:
    """One sub-interval of a schedule: the generator color it realizes
    (None for a free step), the profile pulsed over it, an instantaneous
    frame jump applied after the pulse (None for none), and the systematic
    error riding on the pulse: the (fraction, rate) segment tuple that
    ``fault_segments`` returns for its color, in the profile's 1/delta_t
    units, or None for an ideal pulse."""

    color: int | None
    profile: PulseProfile
    kick: np.ndarray | None = None
    fault: tuple | None = None


@dataclass
class ControlSchedule:
    """Full cyclic control timeline: one step per sub-interval.  The
    control during step l is u_l(s) f_l, where u_l is the step's profile
    and the frames are f_0 = I, f_{l+1} = K_l u_l(1) f_l, K_l being the
    step's kick (left out when None).  Each step carries its own profile,
    kick and fault, so steps of one color may pulse different profiles.
    ``path`` is the schedule's walk on the group, whose vertex l is the
    element of frame f_l up to phase, as ``average_hamiltonian`` reads it.
    The walk is held to the group's multiplication table:
    its colors must be the steps', its vertices one more, elements, and
    vertex 0 first (PathMismatchError); each distinct (profile, kick) pulse
    must realize, up to phase, the element that moves its first step's
    vertex to the next (RealizationError), and every step carrying it must
    make that move (PathMismatchError).  The rates are angle rates, so a
    schedule holds no delta_t; its cycle time is ``sub_intervals * delta_t``.
    """

    rep: UnitaryRep
    steps: tuple
    path: EulerPath

    def __post_init__(self):
        p, n = self.path, len(self.steps)
        if len(p.vertices) != n + 1 or tuple(p.colors) != tuple(
                step.color for step in self.steps):
            raise PathMismatchError(
                f"the path of {len(p)} colors and {len(p.vertices)} vertices "
                f"is not the walk of the {n} steps: it needs their colors "
                f"and {n + 1} vertices")
        group, v = self.rep.group, np.asarray(p.vertices)
        if (v.dtype.kind not in "iu" or v[0] != START
                or not 0 <= v.min() <= v.max() < group.order):
            raise PathMismatchError(f"the path's vertices must be elements "
                                    f"0..{group.order - 1}, vertex 0 first")
        moves, pulses = np.empty(n, dtype=int), {}
        for l, step in enumerate(self.steps):
            c, key = step.color, (step.profile, id(step.kick))
            if key not in pulses:
                pulses[key] = e = int(np.argmax(group.mult_table[:, v[l]] == v[l + 1]))
                u = step.profile.endpoint_unitary()
                if phase_distance(self.rep.matrices[e], u if step.kick is None
                                  else step.kick @ u) > REALIZATION_TOL:
                    raise RealizationError(
                        f"the profile of color {c} does not realize generator {c}"
                        if step.kick is None and c is not None
                        and e == group.generators[c] else
                        f"the pulse of step {l} does not realize element {e}, "
                        f"which moves vertex {v[l]} to {v[l + 1]}")
            moves[l] = pulses[key]
        bad = np.flatnonzero(group.mult_table[moves, v[:-1]] != v[1:])
        if len(bad):
            raise PathMismatchError(f"step {bad[0]} does not move vertex "
                                    f"{v[bad[0]]} to {v[bad[0] + 1]}: its pulse "
                                    f"realizes element {moves[bad[0]]}")

    @property
    def sub_intervals(self) -> int:
        return len(self.steps)

    @property
    def profiles(self) -> dict:
        """color -> the profile of the last step of that color; defined for
        a schedule whose steps of one color all pulse one profile."""
        return {step.color: step.profile for step in self.steps}

    @property
    def max_rate_norm(self) -> float:
        """Largest Hamiltonian norm in 1/delta_t units; inf if a step kicks."""
        if any(step.kick is not None for step in self.steps):
            return float("inf")  # kicks are impulsive by construction
        distinct = {step.profile for step in self.steps}
        return max(p.max_rate_norm for p in distinct)

    def stroboscopic_frames(self) -> tuple:
        """U_c at the sub-interval endpoints 0, dt, 2dt, ..., T_c, as
        products of the steps' endpoint unitaries and kicks; computed once
        per schedule and shared read-only.  The averages read each frame
        from its path vertex instead: these products are what a schedule
        read from a file is checked against."""
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


def eulerian_schedule(path: EulerPath, profiles: dict,
                      rep: UnitaryRep) -> ControlSchedule:
    """Assemble the Eulerian schedule: pulse the color-c profile during the
    l'th sub-interval, c being the l'th path color.  The color-c profile
    must realize generator c up to phase, as ``ControlSchedule`` holds it
    (RealizationError otherwise), so that frame l is the element of path
    vertex l up to phase."""
    if len(path) == 0:
        raise ValueError("empty path: decoupling requires |G| > 1")
    for c in path.colors:
        if c not in profiles:
            raise IncompleteProfileSetError(f"incomplete profile set: no profile for color {c}")
    step_of = {c: Step(c, profiles[c]) for c in set(path.colors)}
    sched = ControlSchedule(rep=rep, path=path,
                            steps=tuple(step_of[c] for c in path.colors))
    # closure: the path returns to the identity, so U_c(T_c) ~ identity;
    # the product of the profiles' endpoints is taken here, without
    # building the frames
    closing = np.eye(rep.dimension, dtype=complex)
    for c in path.colors:
        closing = profiles[c].endpoint_unitary() @ closing
    if phase_distance(np.eye(rep.dimension, dtype=complex), closing) > 1e-8:
        raise RealizationError("schedule does not close at the identity")
    return sched


def bangbang_schedule(group, rep: UnitaryRep) -> ControlSchedule:
    """Baseline impulsive schedule: free evolution in frame g_l during
    sub-interval l, then the kick g_{l+1} g_l† (indices mod |G|); its walk
    is (0, 1, ..., |G| - 1, 0), colorless."""
    n = group.order
    if n <= 1:
        raise ValueError("decoupling requires |G| > 1")
    mats = rep.matrices
    free = piecewise_profile(0, rep, [(1.0, np.zeros_like(mats[0]))])
    return ControlSchedule(
        rep=rep, path=EulerPath(colors=(None,) * n, vertices=(*range(n), 0)),
        steps=tuple(Step(None, free, mats[(l + 1) % n] @ mats[l].conj().T)
                    for l in range(n)))


def checked_delta_t(delta_t: float) -> float:
    """The sub-interval length ``delta_t``; a ValueError unless it is a
    finite number > 0 (an infinite one propagates to nan)."""
    if not 0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t!r}")
    return delta_t


def check_amplitudes(schedule: ControlSchedule, delta_t: float) -> None:
    """A ValueError naming ``delta_t`` unless every segment rate of
    ``schedule``'s profiles and faults, divided by it, is finite: the
    physical amplitude ‖rate‖ / delta_t overflows at a tiny delta_t."""
    profiles = {step.profile for step in schedule.steps}
    faults = {id(step.fault): step.fault for step in schedule.steps if step.fault}
    top = max(float(np.linalg.norm(rate))
              for segs in (*(p.segments for p in profiles), *faults.values())
              for _, rate in segs)
    if not math.isfinite(top / float(delta_t)):
        raise ValueError(f"delta_t {delta_t!r} is too small: a segment "
                         f"amplitude |rate| / delta_t is not finite")


def apply_fault(schedule: ControlSchedule, deltas: dict) -> ControlSchedule:
    """Attach a systematic fault: segment Hamiltonians become h + delta-h.

    ``deltas`` maps a color to its (fraction, rate) segments, held by
    ``fault_segments`` to the schedule's d and to the generator colors of
    its steps.  The returned schedule's steps of color c carry the segments
    of ``deltas[c]``, and the other steps no fault; each keeps its ideal
    profile (the toggling frame is always built from the intended
    control).  One faulted step is built per distinct step.  A fault moves
    no pulse, kick or vertex, so the walk held at construction holds: the
    copy (``copy.copy``, frames shared) is not checked again."""
    held = fault_segments(deltas, schedule.rep.dimension,
                          {step.color for step in schedule.steps})
    faulted = {s: Step(s.color, s.profile, s.kick, held.get(s.color))
               for s in set(schedule.steps)}
    out = copy.copy(schedule)
    out.steps = tuple(map(faulted.get, schedule.steps))
    return out


def merged_segments(profile: PulseProfile, fault):
    """(fraction, profile segment index, fault rate) triples for one
    sub-interval under the fault segments ``fault``, on the union of the
    two grids (zero rates on the profile's for None); the index selects the
    ideal rate and its cached eigenpairs on ``profile``."""
    segs = profile.segments
    if fault is None:
        return [(frac, k, np.zeros_like(rate)) for k, (frac, rate) in enumerate(segs)]
    ends = [list(accumulate(frac for frac, _ in s)) for s in (segs, fault)]
    cuts = sorted(c for c in {0.0, 1.0, *(round(e, 15) for e in ends[0] + ends[1])}
                  if 0.0 <= c <= 1.0 + 1e-12)

    def index_at(which, x):
        """The segment of list ``which`` (0 profile, 1 fault) holding x."""
        return next((k for k, end in enumerate(ends[which]) if x < end - 1e-12),
                    len(ends[which]) - 1)

    return [(b - a, index_at(0, 0.5 * (a + b)), fault[index_at(1, 0.5 * (a + b))][1])
            for a, b in zip(cuts[:-1], cuts[1:])]
