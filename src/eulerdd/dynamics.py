"""Control propagators, toggling-frame averaging, and joint
system-environment simulation.

Everything is piecewise constant, so propagators are exact products of
segment exponentials, and every toggling-frame time average (``f_map``,
``q_map``, ``residual_error``, ``average_hamiltonian``) is a sum of exact
segment integrals evaluated in the eigenbasis of the segment Hamiltonian.

A schedule step carries its profile, its kick and its fault.  A profile
replays unchanged in every step that pulses it, so the eigenpairs of its
segments (cached on the profile), the stroboscopic frames (cached on the
schedule), the total drift (cached on the drift), the sub-interval average
of ``average_hamiltonian`` (per distinct profile) and, in
``simulate_cycles``, the joint segment exponentials (per distinct profile
and fault) are each computed once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group_theory import (ShapeError, UnitaryRep, _read_only, is_hermitian,
                           phase_distance, pi_G)
from .pulses import (ControlSchedule, FaultModel, PulseProfile, _expm_eig,
                     _expm_herm, merged_segments)


class TimeOutOfRangeError(ValueError):
    pass


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
        for h in (self.H_S, self.H_E):
            if not is_hermitian(h):
                raise ValueError("invalid drift: non-Hermitian term")
        for S, E in self.couplings:
            if abs(np.trace(S)) > 1e-10 * max(np.linalg.norm(S), 1.0):
                raise ValueError("invalid drift: noise generator is not traceless")
            if S.shape != (self.system_dim,) * 2 or E.shape != (self.env_dim,) * 2:
                raise ValueError("invalid drift: coupling shape mismatch")

    def total(self) -> np.ndarray:
        """H0 on S ⊗ E, built once per drift and read-only."""
        return self._total

    @cached_property
    def _total(self) -> np.ndarray:
        d, de = self.system_dim, self.env_dim
        h = np.kron(self.H_S, np.eye(de)) + np.kron(np.eye(d), self.H_E)
        for S, E in self.couplings:
            h = h + np.kron(S, E)
        return _read_only(h)


def control_propagator(schedule: ControlSchedule, t: float) -> np.ndarray:
    """U_c(t), reduced modulo the cycle time; exact per segment."""
    if t < 0:
        raise TimeOutOfRangeError("time out of range")
    dt = schedule.delta_t
    tc = schedule.cycle_time
    t = t % tc if tc > 0 else 0.0
    ell = int(t // dt)
    s = t - ell * dt
    frame = schedule.stroboscopic_frames()[ell]
    return schedule.steps[ell].profile.unitary_at(s / dt) @ frame


def _lift_conj(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(A ⊗ I_E)† X (A ⊗ I_E) for each X of a (..., d, d_E, d, d_E) stack
    of tensors: two matrix products when d_E = 1, a contraction over the
    system indices otherwise."""
    d, de = X.shape[-4:-2]
    if de == 1:
        return (A.conj().T @ X.reshape(*X.shape[:-4], d, d) @ A).reshape(X.shape)
    Y = np.tensordot(A.conj(), X, axes=(0, -4))     # (j, ..., e, k, f)
    Y = np.tensordot(Y, A, axes=(-2, 0))            # (j, ..., e, f, l)
    n = Y.ndim
    return Y.transpose(*range(1, n - 3), 0, n - 3, n - 1, n - 2)


def _sub_interval_integral(segments, env_dim: int = 1) -> np.ndarray:
    """Exact integral of u(x)† X(x) u(x) over x in [0, 1] for a
    piecewise-constant control u on S, acting as u ⊗ I on S ⊗ E.

    ``segments`` are (fraction, (λ, V), X) triples: on a segment of length f
    starting at u₀, u(x) = e^{-ixR} u₀ with R = VΛV† and X(x) = X, a matrix
    on S ⊗ E.  With Y = V†XV and W = V†u₀ the segment integral is
    W† (K ∘ Y) W with K_ij = f e^{iθ/2} sinc(θ/2), θ = f(λᵢ−λⱼ), which
    stays finite at degenerate eigenvalues (Van Loan 1978, diagonal form).

    X may also be an (n, D, D) stack (D = d d_E), every segment's X of the
    same shape; each product then runs over the whole stack and the result
    is the stack of the n integrals.
    """
    d = segments[0][1][1].shape[0]
    shape = (*np.shape(segments[0][2])[:-2], d, env_dim, d, env_dim)
    acc = np.zeros(shape, dtype=complex)
    u = None        # u₀ = I on the first segment, where W = V†
    for k, (frac, (lam, V), X) in enumerate(segments):
        theta = frac * (lam[:, None] - lam[None, :])
        K = frac * np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
        Y = _lift_conj(V, np.reshape(X, shape))
        Y *= K[:, None, :, None]
        W = V.conj().T if u is None else V.conj().T @ u
        acc += _lift_conj(W, Y)
        if k + 1 < len(segments):
            u = V @ (np.exp(-1j * frac * lam)[:, None] * W)
    return acc.reshape(*shape[:-4], d * env_dim, d * env_dim)


def _profile_segments(profile: PulseProfile, X: np.ndarray) -> list:
    """(fraction, (λ, V), X) triples of a profile under a constant X."""
    return [(frac, spec, X)
            for (frac, _), spec in zip(profile.segments, profile.spectra)]


def average_hamiltonian(schedule: ControlSchedule, H0: np.ndarray) -> np.ndarray:
    """First-order average Hamiltonian (1/T_c) ∫ U_c†(t) H0 U_c(t) dt.

    H0 may live on S or on S ⊗ E; in the joint case U_c acts as U_c ⊗ I.
    The sub-interval average F(H0) is computed once per distinct profile
    and conjugated by the stroboscopic frame of every step that pulses it;
    a free step has F(H0) = H0, and a kick acts through the frames only.
    The result depends on the path and the profiles but not on delta_t.
    """
    H0 = np.asarray(H0, dtype=complex)
    if not is_hermitian(H0):
        raise ValueError("invalid drift: H0 must be Hermitian")
    d = schedule.rep.dimension
    dim = H0.shape[0]
    if dim % d:
        raise ValueError("invalid drift: dimension is not a multiple of the system's")
    de = dim // d

    averaged = {}
    acc = np.zeros((dim, dim), dtype=complex)
    for frame, step in zip(schedule.stroboscopic_frames(), schedule.steps):
        if step.profile not in averaged:
            averaged[step.profile] = _sub_interval_integral(
                _profile_segments(step.profile, H0), de).reshape(d, de, d, de)
        acc += _lift_conj(frame, averaged[step.profile]).reshape(dim, dim)
    avg = acc / schedule.sub_intervals
    return 0.5 * (avg + avg.conj().T)


def f_map(profiles: dict, X: np.ndarray) -> np.ndarray:
    """Average of u_c†(s) X u_c(s) over the generators and the sub-interval,
    of one operator or of each operator of an (n, d, d) stack."""
    X = np.asarray(X, dtype=complex)
    d = next(iter(profiles.values())).segments[0][1].shape[0]
    if X.shape[-2:] != (d, d):
        raise ShapeError("shape error: operator does not match profile dimension")
    return sum(_sub_interval_integral(_profile_segments(prof, X))
               for prof in profiles.values()) / len(profiles)


def q_map(rep: UnitaryRep, profiles: dict, X: np.ndarray) -> np.ndarray:
    """Eulerian averaging map: group-average projector after the F map, of
    one operator or of each operator of an (n, d, d) stack."""
    return pi_G(rep, f_map(profiles, X))


def residual_error(rep: UnitaryRep, profiles: dict, fault: FaultModel) -> np.ndarray:
    """First-order residual control-error operator of a systematic fault.

    A scenario-level average over the generator set: ``profiles`` maps
    each color to its profile, pulsed with ``fault.deltas`` of that color
    (no error for a color the fault leaves out).
    Returned in 1/delta_t units (multiply by 1/delta_t for the physical
    Hamiltonian).  The toggling frame uses the ideal profiles; the
    integrand is u†(s) delta-h(s) u(s)."""
    fault.check_dimension(rep.dimension)
    acc = sum(_sub_interval_integral(
        [(frac, prof.spectra[k], err)
         for frac, k, err in merged_segments(prof, fault.deltas.get(color))])
        for color, prof in profiles.items())
    return pi_G(rep, acc / len(profiles))


def simulate_cycles(drift: DriftModel, schedule: ControlSchedule,
                    cycles: int = 1) -> np.ndarray:
    """Joint propagator of H0 + H_c(t) ⊗ I over [0, cycles * T_c].

    The total Hamiltonian is piecewise constant, so one exponential per
    control segment is exact.  A profile and its fault replay unchanged in
    every step that carries both, so the exponential of each of their
    merged segments is computed once per distinct (profile, fault) and
    reused along the steps; each kick is applied after its step's segments.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    drift.validate()
    H0 = drift.total()
    d, de = drift.system_dim, drift.env_dim
    dim = d * de
    eye_e = np.eye(de)
    dt = schedule.delta_t

    def lift(m):
        return np.kron(m, eye_e) if de > 1 else m

    exps = {}
    u_cycle = np.eye(dim, dtype=complex)
    for step in schedule.steps:
        p = step.profile
        key = (p, id(step.fault))     # fault segments are tuples of arrays
        if key not in exps:
            exps[key] = [_expm_herm(H0 + lift((p.segments[k][1] + fault_rate) / dt),
                                    frac * dt)
                         for frac, k, fault_rate in merged_segments(p, step.fault)]
        for e in exps[key]:
            u_cycle = e @ u_cycle
        if step.kick is not None:
            u_cycle = lift(step.kick) @ u_cycle
    u = np.linalg.matrix_power(u_cycle, cycles)
    err = np.linalg.norm(u.conj().T @ u - np.eye(dim))
    if err > 1e-8 * dim:
        raise RuntimeError(f"propagator lost unitarity: drift {err:.2e}")
    return u


def decoupling_distance(drift: DriftModel, schedule: ControlSchedule,
                        cycles: int = 1) -> float:
    """Phase-aligned Frobenius distance between the stroboscopic propagator
    and exp(-i Hbar M T_c)."""
    hbar = average_hamiltonian(schedule, drift.total())
    return _distance_to_average(drift, schedule, cycles, np.linalg.eigh(hbar))


def _distance_to_average(drift: DriftModel, schedule: ControlSchedule,
                         cycles: int, hbar_eig: tuple) -> float:
    """``decoupling_distance`` for the eigenpairs (λ, V) of a given average
    Hamiltonian, which a delta_t sweep decomposes once since it does not
    depend on delta_t."""
    u = simulate_cycles(drift, schedule, cycles)
    return phase_distance(u, _expm_eig(*hbar_eig, cycles * schedule.cycle_time))
