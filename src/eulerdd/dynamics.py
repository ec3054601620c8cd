"""Toggling-frame averaging and joint system-environment simulation.

Everything is piecewise constant, so propagators are exact products of
segment exponentials and every toggling-frame average is a sum of exact
segment integrals (``_sub_interval_integral``).  ``q_map``,
``average_hamiltonian`` and ``residual_error`` read a schedule's walk
through one loop (``_walk_average``), so a walk that is not an Eulerian
cycle need not average onto the commutant.  These averages act on the
system alone: a control U ⊗ I_E conjugates each d×d block H0_kl of a
joint H0 = Σ_kl H0_kl ⊗ |k⟩⟨l| on its own, so on S ⊗ E they run over
those blocks.

A profile replays unchanged in every step that pulses it, so its segment
eigenpairs (cached on the profile), the total drift and its validation
(cached on the drift), an average's integral per distinct pulse and, in
``simulate_cycles``, the joint segment exponentials per distinct profile
and fault are each computed once and reused.  An eigendecomposition is
taken only where it is reused: a joint segment exponential, used once, is
a Padé approximant (``pulses._expm_herm``), and Hbar, exponentiated at
every delta_t of a sweep, is diagonalized once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group_theory import (Monomial, ShapeError, _read_only, conjugation_sum,
                           is_hermitian, is_traceless, phase_distance)
from .pulses import (EXPM_WORK, ControlSchedule, PulseProfile, _expm_eig,
                     _expm_herm, check_amplitudes, checked_delta_t,
                     merged_segments)


class UnitarityError(ValueError):
    """A propagated cycle drifted off unitarity by more than 1e-8 * dim."""


@dataclass(frozen=True, eq=False)
class DriftModel:
    """System-environment drift H0 = H_S ⊗ I + I ⊗ H_E + sum S_a ⊗ E_a.

    env_dim = 1 models a closed system.  Noise generators S_a must be
    traceless; each is a d x d array or a Monomial, which the drift keeps
    as it is and writes into H0 by its row pattern.
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
        environment's, a Monomial S also Hermitian (``Monomial.is_hermitian``,
        in O(d)); checked once per drift, as the drift's terms are not
        changed after it is built."""
        self._valid

    @cached_property
    def _valid(self) -> bool:
        for h in (self.H_S, self.H_E):
            if not is_hermitian(h):
                raise ValueError("invalid drift: non-Hermitian term")
        for S, E in self.couplings:
            if not is_traceless(S):
                raise ValueError("invalid drift: noise generator is not traceless")
            if S.shape != (self.system_dim,) * 2 or E.shape != (self.env_dim,) * 2:
                raise ValueError("invalid drift: coupling shape mismatch")
            if isinstance(S, Monomial) and not S.is_hermitian():
                raise ValueError("invalid drift: non-Hermitian term")
        return True

    def total(self) -> np.ndarray:
        """H0 on S ⊗ E, built once per drift and read-only."""
        return self._total

    def divided(self, norm: float) -> "DriftModel":
        """This drift divided by ``norm``: H_S, H_E and each E divided (each
        S stays the same array or Monomial), its total this drift's total
        divided, not built again."""
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
        so H0 equals the Kronecker sum entry for entry.  A Monomial S adds
        its entries times E[k, l] at (rows[c], k, c, l) alone: the dense
        loop's nonzero products, in its order."""
        d, de = self.system_dim, self.env_dim
        h = np.zeros((d, de, d, de), dtype=complex)
        _env_blocks(h)[:] = self.H_S            # H_S ⊗ I
        np.einsum("ieif->ief", h)[:] += self.H_E    # I ⊗ H_E
        cols = np.arange(d)
        for S, E in self.couplings:             # S ⊗ E
            for k in range(de):
                for l in range(de):
                    if isinstance(S, Monomial):
                        h[S.rows, k, cols, l] += S.entries * E[k, l]
                    else:
                        h[:, k, :, l] += S * E[k, l]
        return _read_only(h.reshape(d * de, d * de))


def _env_blocks(h: np.ndarray) -> np.ndarray:
    """The d_E diagonal blocks h[:, k, :, k] of a (d, d_E, d, d_E) array,
    as one writable (d_E, d, d) view: adding m to it adds m ⊗ I."""
    return np.einsum("ikjk->kij", h)


def _sub_interval_integral(profile: PulseProfile, X: np.ndarray,
                           fault=None) -> np.ndarray:
    """Exact integral of u(x)† Y(x) u(x) over x in [0, 1] for the control u
    of ``profile`` on S, with Y(x) = X (a d×d matrix or a (..., d, d)
    stack) or, when X is None, the rate of ``fault`` at x (zero for None).
    One piece, a constant Y on a profile with ``involution`` data (one
    segment pulsing θA, A a monomial Hermitian involution), is integrated
    in closed form by gathers; any other list (a fault grid that cuts it,
    several segments, θ = 0, a dense or non-involutory rate) in each
    segment's eigenbasis."""
    pieces = ([(frac, k, X) for k, (frac, _) in enumerate(profile.segments)]
              if X is not None else merged_segments(profile, fault))
    if len(pieces) == 1 and profile.involution is not None:
        frac, _, Y = pieces[0]
        return _involution_integral(frac, profile.involution, Y)
    return _eigenbasis_integral([(frac, profile.spectra[k], Y)
                                 for frac, k, Y in pieces])


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


def _walk_average(schedule: ControlSchedule, X: np.ndarray = None) -> np.ndarray:
    """(1/L) Σ_l f_l† I_l f_l over the L steps, f_l the element of path
    vertex l (its phase cancels) and I_l the integral of u_l(x)† Y u_l(x)
    over step l's profile u_l, for Y = X (a d×d operator or a (..., d, d)
    stack) or, when X is None, Y the step's fault (zero for none).  Each
    distinct pulse is integrated once, and the integrals of the pulses on
    one multiset of vertices are summed before one ``conjugation_sum``:
    one in all, over every element with no index gather, for an Eulerian
    cycle (every pulse visits each element once) and a bang-bang walk."""
    on = defaultdict(list)      # step -> the vertices it starts from
    for v, step in zip(schedule.path.vertices, schedule.steps):
        on[step].append(v)
    pulses = {}     # (profile, id(fault)) -> [profile, fault, vertices]
    for step, verts in on.items():
        fault = step.fault if X is None else None
        pulses.setdefault((step.profile, id(fault)),
                          [step.profile, fault, []])[2].extend(verts)
    sums = defaultdict(int)     # vertex multiset -> the summed integrals
    for p, fault, verts in pulses.values():
        sums[tuple(sorted(verts))] += _sub_interval_integral(p, X, fault)
    every = tuple(range(len(schedule.rep.matrices)))
    out = None
    for verts, integral in sums.items():
        elements = None if verts == every else np.array(verts)
        out = conjugation_sum(schedule.rep, integral, elements, out=out)
    out /= schedule.sub_intervals
    return out


def average_hamiltonian(schedule: ControlSchedule, H0: np.ndarray) -> np.ndarray:
    """First-order average Hamiltonian (1/T_c) ∫ U_c†(t) H0 U_c(t) dt.

    H0 may live on S or on S ⊗ E, where U_c acts as U_c ⊗ I: the stack of
    the d×d blocks H0_kl of H0 = Σ_kl H0_kl ⊗ |k⟩⟨l| is averaged over the
    walk and symmetrized.  Kicks act through the vertices only, faults not
    at all, and the result depends on the path and profiles, not delta_t.
    """
    H0 = np.asarray(H0, dtype=complex)
    if not is_hermitian(H0):
        raise ValueError("invalid drift: H0 must be Hermitian")
    d = schedule.rep.dimension
    de, rem = divmod(len(H0), d)
    if rem:
        raise ValueError("invalid drift: dimension is not a multiple of the system's")
    blocks = np.ascontiguousarray(H0.reshape(d, de, d, de).transpose(1, 3, 0, 2))
    avg = _walk_average(schedule, blocks).transpose(2, 0, 3, 1).reshape(H0.shape)
    avg += avg.conj().T
    avg *= 0.5
    return avg


def q_map(schedule: ControlSchedule, X: np.ndarray) -> np.ndarray:
    """Eulerian averaging map: the toggling-frame average of X over the
    schedule's walk, of one operator or of each operator of an (n, d, d)
    stack; pi_G of its average over the generators' pulses when the walk
    is an Eulerian cycle."""
    X = np.asarray(X, dtype=complex)
    if X.shape[-2:] != (schedule.rep.dimension,) * 2:
        raise ShapeError("shape error: operator does not match representation dimension")
    return _walk_average(schedule, X)


def residual_error(schedule: ControlSchedule) -> np.ndarray:
    """First-order residual control-error operator of the faults that
    ``apply_fault`` attached to the steps: each step's u†(s) delta-h(s) u(s),
    u its ideal profile, averaged over the walk.  In 1/delta_t units
    (multiply by 1/delta_t for the physical Hamiltonian)."""
    return _walk_average(schedule)


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
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused
        u = np.linalg.matrix_power(u, cycles)
        gram = u.conj().T @ u       # U†U - I, the identity taken off in place
    gram.ravel()[::dim + 1] -= 1.0
    err = np.linalg.norm(gram)
    if not err <= 1e-8 * dim:       # nan, from an overflow, included
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
