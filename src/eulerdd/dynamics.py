"""Toggling-frame averaging and joint system-environment simulation.

Everything is piecewise constant, so propagators are exact products of
segment exponentials, and every toggling-frame time average (``f_map``,
``q_map``, ``residual_error``, ``average_hamiltonian``) is a sum of exact
segment integrals: in closed form by gathers for a one-segment pulse of a
Pauli-string-like rate θA (A a monomial Hermitian involution), in the
eigenbasis of the segment Hamiltonian otherwise.  These averages act on
the system alone: a control U ⊗ I_E conjugates each d×d block H0_kl of a
joint H0 = Σ_kl H0_kl ⊗ |k⟩⟨l| on its own, so on S ⊗ E they run over
those blocks.

A schedule step carries its profile, its kick and its fault.  A profile
replays unchanged in every step that pulses it, so the eigenpairs of its
segments (cached on the profile), the total drift and its validation
(cached on the drift), the sub-interval average of ``average_hamiltonian``
(per distinct profile, of the whole stack of blocks) and, in
``simulate_cycles``, the joint segment exponentials (per distinct profile
and fault) are each computed once and reused.  An eigendecomposition is
taken only where it is reused: a joint segment exponential, used once, is
a Padé approximant (``pulses._expm_herm``), and Hbar, exponentiated at
every delta_t of a sweep, is diagonalized once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group_theory import (ShapeError, UnitaryRep, _read_only,
                           conjugation_sum, is_hermitian, phase_distance, pi_G)
from .pulses import (EXPM_WORK, ControlSchedule, PulseProfile, _expm_eig,
                     _expm_herm, check_amplitudes, checked_delta_t,
                     fault_segments, merged_segments)


class UnitarityError(ValueError):
    """A propagated cycle drifted off unitarity by more than 1e-8 * dim."""


@dataclass(frozen=True, eq=False)
class DriftModel:
    """System-environment drift H0 = H_S ⊗ I + I ⊗ H_E + sum S_a ⊗ E_a.

    env_dim = 1 models a closed system.  Noise generators S_a must be
    traceless.
    """

    H_S: np.ndarray
    H_E: np.ndarray
    couplings: tuple  # of (S_alpha, E_alpha) pairs

    @property
    def system_dim(self) -> int:
        return self.H_S.shape[0]

    @property
    def env_dim(self) -> int:
        return self.H_E.shape[0]

    def validate(self) -> None:
        """A ValueError unless H_S and H_E are Hermitian and each coupling
        is a traceless S of the system's shape with an E of the
        environment's; checked once per drift, as the drift's terms are
        not changed after it is built."""
        self._valid

    @cached_property
    def _valid(self) -> bool:
        for h in (self.H_S, self.H_E):
            if not is_hermitian(h):
                raise ValueError("invalid drift: non-Hermitian term")
        for S, E in self.couplings:
            if abs(np.trace(S)) > 1e-10 * max(np.linalg.norm(S), 1.0):
                raise ValueError("invalid drift: noise generator is not traceless")
            if S.shape != (self.system_dim,) * 2 or E.shape != (self.env_dim,) * 2:
                raise ValueError("invalid drift: coupling shape mismatch")
        return True

    def total(self) -> np.ndarray:
        """H0 on S ⊗ E, built once per drift and read-only."""
        return self._total

    def divided(self, norm: float) -> "DriftModel":
        """This drift divided by ``norm``: H_S, H_E and each E divided (each
        S stays the same array), its total this drift's total divided, not
        built again."""
        out = DriftModel(H_S=self.H_S / norm, H_E=self.H_E / norm,
                         couplings=tuple((S, E / norm) for S, E in self.couplings))
        # the cached_property's slot, filled as its first call would
        out.__dict__["_total"] = _read_only(self.total() / norm)
        return out

    @cached_property
    def _total(self) -> np.ndarray:
        """H_S, H_E and each S·E[k, l] written into one (d, d_E, d, d_E)
        array, whose (i, e, j, f) entry is that of row (i, e) and column
        (j, f) of H0.  Each product is taken in the order of np.kron(S, E),
        so H0 equals the Kronecker sum entry for entry."""
        d, de = self.system_dim, self.env_dim
        h = np.zeros((d, de, d, de), dtype=complex)
        _env_blocks(h)[:] = self.H_S            # H_S ⊗ I
        np.einsum("ieif->ief", h)[:] += self.H_E    # I ⊗ H_E
        for S, E in self.couplings:             # S ⊗ E
            for k in range(de):
                for l in range(de):
                    h[:, k, :, l] += S * E[k, l]
        return _read_only(h.reshape(d * de, d * de))


def _env_blocks(h: np.ndarray) -> np.ndarray:
    """The d_E diagonal blocks h[:, k, :, k] of a (d, d_E, d, d_E) array,
    as one writable (d_E, d, d) view: adding m to it adds m ⊗ I."""
    return np.einsum("ikjk->kij", h)


def _sub_interval_integral(profile: PulseProfile, pieces) -> np.ndarray:
    """Exact integral of u(x)† X(x) u(x) over x in [0, 1] for the control u
    of ``profile`` on S.

    ``pieces`` are (fraction, segment index, X) triples in time order: the
    profile's segment of that index pulses over the fraction, under X, a
    d×d matrix or a (..., d, d) stack (every piece's X of one shape).  One
    piece of a profile with ``involution`` data (a one-segment profile
    whose rate is θA, A a monomial Hermitian involution) is integrated in
    closed form by gathers; any other list (several pieces, θ = 0, a dense
    or non-involutory rate) in the eigenbasis of each segment rate.
    """
    if len(pieces) == 1 and profile.involution is not None:
        frac, _, X = pieces[0]
        return _involution_integral(frac, profile.involution, X)
    return _eigenbasis_integral([(frac, profile.spectra[k], X)
                                 for frac, k, X in pieces])


def _sinc(t: float) -> float:
    """np.sinc(t) = sin(πt)/(πt) of one float, by np.sinc's own formula,
    without the array round trip."""
    y = math.pi * t
    return math.sin(y) / y if y else 1.0


def _involution_integral(frac: float, involution, X: np.ndarray) -> np.ndarray:
    """∫ u(x)† X u(x) over x in [0, f] for u(x) = e^{-ixθA}, A a monomial
    Hermitian involution given by ``PulseProfile.involution``'s (θ, rows,
    phases).

    A² = I, so u(x) = cos(xθ) I − i sin(xθ) A and the integral is
    a X + b AXA + i g (AX − XA) with a = f/2 + sin(2fθ)/(4θ), b = f − a and
    g = sin²(fθ)/(2θ), taken through sinc so that no θ is too small.
    (AX)_ij = A[i, rows[i]] X[rows[i], j] and (XA)_ij = X[i, rows[j]]
    phases[j], so AX, XA and AXA = (AX)A are phased row and column gathers:
    O(d²) per operator of a (..., d, d) stack.
    """
    theta, rows, phases = involution
    x = frac * theta
    a = 0.5 * frac * (1.0 + _sinc(2.0 * x / np.pi))
    g = 0.5 * frac * math.sin(x) * _sinc(x / np.pi)
    ax = np.take(X, rows, axis=-2)
    ax *= phases[rows][:, None]
    xa = np.take(X, rows, axis=-1)
    xa *= phases
    out = np.take(ax, rows, axis=-1)
    out *= (frac - a) * phases
    ax -= xa
    ax *= 1j * g
    out += ax
    out += np.multiply(X, a, out=xa)
    return out


def _eigenbasis_integral(segments) -> np.ndarray:
    """Exact integral of u(x)† X(x) u(x) over x in [0, 1] for a
    piecewise-constant control u on S.

    ``segments`` are (fraction, (λ, V), X) triples: on a segment of length f
    starting at u₀, u(x) = e^{-ixR} u₀ with R = VΛV† and X(x) = X, a d×d
    matrix.  With Y = V†XV and W = V†u₀ the segment integral is
    W† (K ∘ Y) W with K_ij = f e^{iθ/2} sinc(θ/2), θ = f(λᵢ−λⱼ), which
    stays finite at degenerate eigenvalues (Van Loan 1978, diagonal form).

    X may also be a (..., d, d) stack, every segment's X of the same shape;
    each product then runs over the whole stack and the result is the stack
    of the integrals.
    """
    acc = np.zeros(np.shape(segments[0][2]), dtype=complex)
    u = None        # u₀ = I on the first segment, where W = V†
    for k, (frac, (lam, V), X) in enumerate(segments):
        theta = frac * (lam[:, None] - lam[None, :])
        K = frac * np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
        Y = V.conj().T @ X @ V
        Y *= K
        W = V.conj().T if u is None else V.conj().T @ u
        Y = W.conj().T @ Y      # frees K ∘ Y before the last product
        acc += Y @ W
        if k + 1 < len(segments):
            u = V @ (np.exp(-1j * frac * lam)[:, None] * W)
    return acc


def _profile_segments(profile: PulseProfile, X: np.ndarray) -> list:
    """(fraction, segment index, X) pieces of a profile under a constant X."""
    return [(frac, k, X) for k, (frac, _) in enumerate(profile.segments)]


def average_hamiltonian(schedule: ControlSchedule, H0: np.ndarray) -> np.ndarray:
    """First-order average Hamiltonian (1/T_c) ∫ U_c†(t) H0 U_c(t) dt.

    H0 may live on S or on S ⊗ E; in the joint case U_c acts as U_c ⊗ I,
    so each d×d block H0_kl of H0 = Σ_kl H0_kl ⊗ |k⟩⟨l| is averaged on its
    own.  The (d_E, d_E, d, d) stack of blocks is integrated once per
    distinct profile, giving F(H0_kl); a free step has F(H0_kl) = H0_kl.
    Step l's frame is the element of the schedule's path vertex l up to a
    phase, which cancels in f† F f, so each profile's conjugations are one
    ``group_theory.conjugation_sum`` over the vertices of the steps that
    pulse it, and a kick acts through the vertices only.  The result
    depends on the path and the profiles, not on delta_t.
    """
    H0 = np.asarray(H0, dtype=complex)
    if not is_hermitian(H0):
        raise ValueError("invalid drift: H0 must be Hermitian")
    rep = schedule.rep
    d = rep.dimension
    dim = H0.shape[0]
    if dim % d:
        raise ValueError("invalid drift: dimension is not a multiple of the system's")
    de = dim // d
    blocks = np.ascontiguousarray(H0.reshape(d, de, d, de).transpose(1, 3, 0, 2))
    avg = np.zeros((dim, dim), dtype=complex)
    acc = avg.reshape(d, de, d, de).transpose(1, 3, 0, 2)   # its blocks
    for p in dict.fromkeys(step.profile for step in schedule.steps):
        averaged = _sub_interval_integral(p, _profile_segments(p, blocks))
        mine = [v for v, step in zip(schedule.path.vertices, schedule.steps)
                if step.profile is p]
        conjugation_sum(rep, averaged, np.array(mine), out=acc)
    avg /= schedule.sub_intervals
    avg += avg.conj().T
    avg *= 0.5
    return avg


def f_map(profiles: dict, X: np.ndarray) -> np.ndarray:
    """Average of u_c†(s) X u_c(s) over the generators and the sub-interval,
    of one operator or of each operator of an (n, d, d) stack."""
    X = np.asarray(X, dtype=complex)
    d = next(iter(profiles.values())).segments[0][1].shape[0]
    if X.shape[-2:] != (d, d):
        raise ShapeError("shape error: operator does not match profile dimension")
    return sum(_sub_interval_integral(prof, _profile_segments(prof, X))
               for prof in profiles.values()) / len(profiles)


def q_map(rep: UnitaryRep, profiles: dict, X: np.ndarray) -> np.ndarray:
    """Eulerian averaging map: group-average projector after the F map, of
    one operator or of each operator of an (n, d, d) stack."""
    return pi_G(rep, f_map(profiles, X))


def residual_error(rep: UnitaryRep, profiles: dict, deltas: dict) -> np.ndarray:
    """First-order residual control-error operator of a systematic fault.

    A scenario-level average over the generator set: ``profiles`` maps
    each color to its profile, pulsed with the (fraction, rate) segments
    ``deltas`` gives that color (no error for a color it leaves out).
    ``fault_segments`` holds ``deltas`` to d and to the colors of
    ``profiles``.  Returned in 1/delta_t units (multiply by 1/delta_t for
    the physical Hamiltonian).  The toggling frame uses the ideal profiles;
    the integrand is u†(s) delta-h(s) u(s)."""
    held = fault_segments(deltas, rep.dimension, profiles)
    acc = sum(_sub_interval_integral(prof, merged_segments(prof, held.get(color)))
              for color, prof in profiles.items())
    return pi_G(rep, acc / len(profiles))


def simulate_cycles(drift: DriftModel, schedule: ControlSchedule,
                    delta_t: float, cycles: int = 1) -> np.ndarray:
    """Joint propagator of H0 + H_c(t) ⊗ I over [0, cycles * L * delta_t].

    The total Hamiltonian is piecewise constant, so one exponential per
    control segment is exact.  A profile and its fault replay unchanged in
    every step that carries both, so the exponential of each of their
    merged segments is computed once per distinct (profile, fault) and
    reused along the steps; each kick is applied after its step's segments.
    A propagator off unitarity by more than 1e-8 * dim (rounding that
    ``cycles`` compounds) is a UnitarityError.
    """
    dt = checked_delta_t(delta_t)
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    drift.validate()
    d, de = drift.system_dim, drift.env_dim
    dim = d * de
    exps = _segment_exponentials(drift, schedule, dt)
    u = None                        # the cycle, from the first exponential on
    for step in schedule.steps:
        for e in exps[(step.profile, id(step.fault))]:
            u = e if u is None else e @ u
        if step.kick is not None:   # (kick ⊗ I) U on the rows (i, e) of U
            u = (step.kick @ u.reshape(d, de * dim)).reshape(dim, dim)
    del exps                        # freed before the cycle is raised to a power
    u = np.linalg.matrix_power(u, cycles)
    gram = u.conj().T @ u           # U†U - I, the identity taken off in place
    gram.ravel()[::dim + 1] -= 1.0
    err = np.linalg.norm(gram)
    if err > 1e-8 * dim:
        raise UnitarityError(f"propagator lost unitarity over {cycles} cycles: "
                             f"drift {err:.2e}; use fewer cycles")
    return u


def _segment_exponentials(drift: DriftModel, schedule: ControlSchedule,
                          dt: float) -> dict:
    """The joint exponential of each merged segment of each distinct
    (profile, fault) of ``schedule``, keyed by (profile, id(fault)) (fault
    segments are tuples of arrays).  Each is taken of one copy of H0 that
    holds the segment's rate in its d_E diagonal blocks, and all share one
    scratch stack; a delta_t at which a rate / delta_t is not finite is
    refused first."""
    check_amplitudes(schedule, dt)
    H0 = drift.total()
    d, de = drift.system_dim, drift.env_dim
    h = H0.copy()
    blocks = _env_blocks(h.reshape(d, de, d, de))
    work = np.empty((EXPM_WORK, *h.shape), dtype=complex)
    exps = {}
    for step in schedule.steps:
        p = step.profile
        key = (p, id(step.fault))
        if key in exps:
            continue
        exps[key] = []
        for frac, k, fault_rate in merged_segments(p, step.fault):
            np.copyto(h, H0)
            blocks += (p.segments[k][1] + fault_rate) / dt
            exps[key].append(_expm_herm(h, frac * dt, work))
    return exps


def decoupling_distance(drift: DriftModel, schedule: ControlSchedule,
                        delta_t_values, cycles: int = 1) -> list:
    """Phase-aligned Frobenius distance between the stroboscopic propagator
    and exp(-i Hbar M T_c), for each delta_t of ``delta_t_values``, from
    one Hbar and one eigh.  A delta_t whose M T_c is not finite is refused
    before any run."""
    times = []
    for dt in delta_t_values:
        t = cycles * (schedule.sub_intervals * checked_delta_t(dt))
        if not math.isfinite(t):
            raise ValueError(f"delta_t {dt!r} is too large: the propagated "
                             f"time {cycles} x {schedule.sub_intervals} x "
                             f"delta_t is not finite")
        times.append((dt, t))
    lam, V = np.linalg.eigh(average_hamiltonian(schedule, drift.total()))
    return [phase_distance(simulate_cycles(drift, schedule, dt, cycles),
                           _expm_eig(lam, V, t)) for dt, t in times]
