"""High-level verifications: symmetrization-theorem checks, fault-residual
checks, noiseless-subsystem identification, error-scaling studies, and the
built-in decoupling scenarios (Carr-Purcell, Pauli, collective spin-flip,
symmetric-group decoupling on three qubits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import pulses
from .cayley import EulerPath, eulerian_cycle, path_from_colors, validate_path
from .dynamics import (DriftModel, decoupling_distance, q_map, residual_error,
                       simulate_cycles)
from .group_theory import (HERMITIAN_TOL, MAX_STACK_BYTES, Group, UnitaryRep,
                           center_basis, close_group, commutator_norms,
                           decompose_irreps, in_algebra, pi_G,
                           subspace_distance)
from .pulses import (ControlSchedule, apply_fault, bangbang_schedule,
                     constant_profile, eulerian_schedule, hermitian_matrix,
                     piecewise_profile)

SIGMA = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_on(n: int, k: int, u: str) -> np.ndarray:
    """Single-qubit Pauli u on qubit k (0-based) of an n-qubit register:
    I_{2^k} ⊗ sigma_u ⊗ I_{2^(n-k-1)}."""
    return _pauli_string("i" * k + u + "i" * (n - k - 1))


def collective(n: int, u: str) -> np.ndarray:
    """Tensor power sigma_u ⊗ ... ⊗ sigma_u on n qubits."""
    return _pauli_string(u * n)


def _pauli_string(letters: str) -> np.ndarray:
    """sigma_{letters[0]} ⊗ ... ⊗ sigma_{letters[-1]}, qubit 0 the most
    significant bit, from index arithmetic: each factor has one entry per
    column, so column c of the product has one, in the row that flips the
    bits of c that x and y factors flip, equal to the product of the
    factors' entries taken in qubit order.  np.array_equal to the
    Kronecker product; only the signs of some zeros can differ."""
    n = len(letters)
    cols = np.arange(2 ** n)
    rows = cols.copy()
    entries = None
    for q, u in enumerate(letters):
        shift = n - 1 - q
        bit = (cols >> shift) & 1
        flip = int(u in "xy")
        factor = SIGMA[u][bit ^ flip, bit]
        entries = factor if entries is None else entries * factor
        rows ^= flip << shift
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    out[rows, cols] = entries
    return out


def heisenberg(n: int, k: int, l: int) -> np.ndarray:
    """Exchange coupling sigma_k . sigma_l on an n-qubit register."""
    return sum(pauli_on(n, k, u) @ pauli_on(n, l, u) for u in "xyz")


def swap_gate(n: int, k: int, l: int) -> np.ndarray:
    """swap of qubits k and l; equals (I + sigma_k . sigma_l) / 2."""
    return (np.eye(2 ** n) + heisenberg(n, k, l)) / 2.0


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Random Hermitian (M + M†) / 2, M with standard complex Gaussian
    entries, its real and imaginary parts from one ``rng`` call."""
    z = rng.standard_normal((2, dim, dim))
    out = np.empty((dim, dim), dtype=complex)
    np.add(z[0], z[0].T, out=out.real)
    np.subtract(z[1], z[1].T, out=out.imag)
    out.view(float)[...] *= 0.5
    return out


def _operator_stacks(rep: UnitaryRep, operators):
    """The d x d ``operators`` of an iterable, consumed lazily and in order,
    as (n, d, d) stacks of as many as fit MAX_STACK_BYTES (at least one;
    the last stack may hold fewer)."""
    per = max(1, MAX_STACK_BYTES // (16 * rep.dimension ** 2))
    it = iter(operators)
    while chunk := list(islice(it, per)):
        yield np.array(chunk, dtype=complex)


def max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of matrices, each taken as
    ``np.linalg.norm`` takes it of one matrix."""
    return max(float(np.linalg.norm(m)) for m in stack)


def random_state(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@dataclass
class Scenario:
    """One built-in decoupling scheme with everything needed to run it."""

    name: str
    description: str
    n_qubits: int
    rep: UnitaryRep
    path: EulerPath
    profiles: dict                  # color -> PulseProfile
    reference_path: tuple = None        # explicit color sequence when stated
    noise_generators: tuple = ()    # (name, traceless system operator)
    # checks only this scenario passes, each called as check(scenario,
    # its schedule(), rng, seed) -> list of check_result dicts; a scenario
    # built from a config has none and gets only the generic checks
    checks: tuple = ()

    @property
    def group(self) -> Group:
        return self.rep.group

    @property
    def expected_cycle_length(self) -> int:
        """|G| * |Gamma|: every edge of the Cayley graph once."""
        return self.group.order * len(self.group.generators)

    def schedule(self) -> ControlSchedule:
        return eulerian_schedule(self.path, self.profiles, self.rep)

    def bangbang(self) -> ControlSchedule:
        return bangbang_schedule(self.group, self.rep)

    def generic_drift(self, env_dim: int = 2, seed: int = 0) -> DriftModel:
        """Random unit-norm drift coupling every noise generator (or a
        random traceless operator if none is declared) to the environment."""
        d = self.rep.dimension
        rng = np.random.default_rng(seed)
        H_S = random_hermitian(d, rng)
        H_E = random_hermitian(env_dim, rng) if env_dim > 1 else np.zeros((1, 1))
        couplings = []
        gens = [m for _, m in self.noise_generators]
        if not gens:
            s = random_hermitian(d, rng)
            gens = [s - np.trace(s) / d * np.eye(d)]
        for S in gens:
            E = random_hermitian(env_dim, rng) if env_dim > 1 else np.ones((1, 1))
            couplings.append((S, E))
        drift = DriftModel(H_S=H_S, H_E=H_E, couplings=tuple(couplings))
        # the spectral norm of the Hermitian H0
        return drift.divided(np.abs(np.linalg.eigvalsh(drift.total())).max())


def check_result(name, passed, value, tolerance, note="") -> dict:
    """One named verification check, in the form the CLI summary prints."""
    return {"name": name, "passed": bool(passed), "value": value,
            "tolerance": tolerance, "note": note}


def bound_check(name, value, tol) -> dict:
    """The check that ``value`` is at most ``tol``."""
    return check_result(name, value <= tol, value, tol)


def scenario_from_generators(name, description, n_qubits, gen_mats,
                             profile_builders, path_colors=None,
                             reference_colors=None, noise_generators=(),
                             max_order=512, checks=()) -> Scenario:
    """Assemble a scenario: close the generator matrices into a group, take
    the Eulerian cycle of its Cayley graph with ``path_colors`` (or the
    deterministic one when None), and realize generator c by
    ``profile_builders[c](generator element, rep)``.

    Refuses generators that close to fewer distinct non-identity
    generators (a repeat, up to phase, or the identity), a profile count
    other than the generator count, and a noise generator that is not a
    traceless Hermitian d x d matrix.
    """
    group, rep = close_group(gen_mats, max_order=max_order)
    for i, (_, S) in enumerate(noise_generators):
        S = hermitian_matrix(S, rep.dimension, f"noise_generators[{i}]")
        if abs(np.trace(S)) > HERMITIAN_TOL * max(np.linalg.norm(S), 1.0):
            raise ValueError(f"noise_generators[{i}] must be traceless")
    if len(group.generators) != len(gen_mats) or 0 in group.generators:
        raise ValueError("generators: one repeats another up to phase or is "
                         "the identity")
    if len(profile_builders) != len(gen_mats):
        missing = list(range(len(profile_builders), len(gen_mats)))
        raise ValueError(
            f"profiles: {len(profile_builders)} for {len(gen_mats)} generators"
            + (f"; no profile for generator color(s) {missing}" if missing else ""))
    path = (eulerian_cycle(group) if path_colors is None
            else path_from_colors(group, path_colors))
    profiles = {c: build(g, rep) for c, (g, build)
                in enumerate(zip(group.generators, profile_builders))}
    return Scenario(
        name=name, description=description, n_qubits=n_qubits,
        rep=rep, path=path, profiles=profiles,
        reference_path=tuple(reference_colors) if reference_colors else None,
        noise_generators=tuple(noise_generators), checks=tuple(checks),
    )


def _carr_purcell_checks(scenario, schedule, rng, seed) -> list:
    """Faults along sigma_y, sigma_z vanish; a sigma_x fault stays central."""
    res = {u: residual_error(apply_fault(schedule, {0: [(1.0, 0.1 * SIGMA[u])]}))
           for u in "yzx"}
    checks = [bound_check(f"fault-s{u}-vanishes", float(np.linalg.norm(res[u])),
                          1e-9) for u in "yz"]
    dev = float(np.linalg.norm(res["x"] - 0.1 * SIGMA["x"]))
    checks.append(bound_check("fault-sx-central",
                              max(dev, subspace_distance(res["x"],
                                                         center_basis(scenario.rep))),
                              1e-9))
    return checks


def carr_purcell_scenario(n: int = 1) -> Scenario:
    """Single decohering qubit, spin-flip group {I, sigma_x}, L = 2."""
    if n != 1:
        raise ValueError(f"carr-purcell scenario has n_qubits = 1 only, got {n}")
    return scenario_from_generators(
        "carr-purcell",
        "single-qubit spin-flip decoupling with one bounded sigma-x pulse",
        1, [SIGMA["x"]], [partial(constant_profile, axis=SIGMA["x"])],
        reference_colors=(0, 0),
        noise_generators=(("sz", SIGMA["z"]),),
        checks=(_carr_purcell_checks,),
    )


# Eulerian cycle colors of the two-generator order-4 graph, as stated for
# the qubit error-basis scheme: (g1, g2, g1, g2, g2, g1, g2, g1).
_TWO_GEN_PATH = (0, 1, 0, 1, 1, 0, 1, 0)


def _pauli_checks(scenario, schedule, rng, seed) -> list:
    """Random traceless faults on every generator are averaged away."""
    d = scenario.rep.dimension
    worst = 0.0
    colors = sorted(scenario.profiles)
    for _ in range(10):
        deltas = {}
        for c in colors:
            m = random_hermitian(d, rng)
            deltas[c] = [(1.0, m - np.trace(m) / d * np.eye(d))]
        res = residual_error(apply_fault(schedule, deltas))
        worst = max(worst, float(np.linalg.norm(res)))
    return [bound_check("random-fault-eliminated", worst, 1e-8)]


def pauli_scenario(n: int = 1) -> Scenario:
    """Qubit error-basis decoupling; for n qubits the cycle has length
    n * 2^(2n+1) (10240 at n = 5), so n is capped at 5."""
    if not 1 <= n <= 5:
        raise ValueError("pauli scenario supports 1 <= n <= 5 qubits")
    gen_mats = [pauli_on(n, k, u) for k in range(n) for u in ("x", "z")]
    builders = [partial(constant_profile, axis=a) for a in gen_mats]
    noise = tuple((f"s{u}{k}", pauli_on(n, k, u))
                  for k in range(n) for u in "xyz")
    return scenario_from_generators(
        "pauli",
        "maximal averaging over the qubit error basis (robust to any "
        "systematic in-algebra fault)",
        n, gen_mats, builders,
        reference_colors=_TWO_GEN_PATH if n == 1 else None,
        noise_generators=noise, max_order=4 ** n + 1,
        checks=(_pauli_checks,),
    )


def _spin_flip_checks(scenario, schedule, rng, seed) -> list:
    """Linear noise is suppressed; for even n the group algebra is abelian."""
    checks = [bound_check("linear-noise-suppressed",
                          noise_suppression_check(scenario), 1e-12)]
    if scenario.n_qubits % 2 == 0:
        rep = scenario.rep
        worst = float(commutator_norms(rep, rep.matrices).max())
        checks.append(bound_check("algebra-abelian", worst, 1e-10))
    return checks


def spin_flip_scenario(n: int = 2) -> Scenario:
    """Collective spin-flip decoupling on n qubits; removes arbitrary
    single-qubit (linear) noise."""
    if n < 1:
        raise ValueError("spin-flip scenario needs n >= 1")
    gen_mats = [collective(n, "x"), collective(n, "z")]
    noise = tuple((f"s{u}{k}", pauli_on(n, k, u))
                  for k in range(n) for u in "xyz")
    return scenario_from_generators(
        "spin-flip",
        "collective spin-flip decoupling averaging out arbitrary linear noise",
        n, gen_mats, [partial(constant_profile, axis=a) for a in gen_mats],
        reference_colors=_TWO_GEN_PATH,
        noise_generators=noise,
        checks=(_spin_flip_checks,),
    )


def _symmetric_s3_checks(scenario, schedule, rng, seed) -> list:
    """A two-dimensional irrep exists, and the averaged collective noise acts
    on each block as N ⊗ I (a clean noiseless subsystem)."""
    rep = scenario.rep
    decomp = decompose_irreps(rep, seed=seed)
    dims = sorted((b.dimension, b.multiplicity) for b in decomp.blocks)
    has_d2 = any(b.dimension == 2 for b in decomp.blocks)
    checks = [check_result("two-dim-block-present", has_d2, str(dims), "d=2")]
    worst = 0.0
    for _, S in scenario.noise_generators:
        avg = pi_G(rep, S)
        for blk in decomp.blocks:
            worst = max(worst, _factor_fit_residual(decomp.block_of(avg, blk),
                                                    blk.multiplicity,
                                                    blk.dimension))
    checks.append(bound_check("noiseless-subsystem-clean", worst, 1e-8))
    return checks


def symmetric_s3_scenario(n: int = 3) -> Scenario:
    """Permutation-symmetrizing decoupling on three qubits via Heisenberg
    exchange pulses; generates a two-dimensional noiseless subsystem."""
    if n != 3:
        raise ValueError(f"symmetric-s3 scenario has n_qubits = 3 only, got {n}")
    g1 = swap_gate(n, 0, 1)
    g2 = swap_gate(n, 0, 1) @ swap_gate(n, 1, 2)

    prof1 = partial(constant_profile, axis=heisenberg(n, 0, 1))
    # two half-interval exchange pulses: h(2,3) then h(1,2), each at
    # angle-rate pi/2 (amplitude pi / (2 delta_t))
    prof2 = partial(piecewise_profile,
                    segments=[(0.5, (np.pi / 2) * heisenberg(n, 1, 2)),
                              (0.5, (np.pi / 2) * heisenberg(n, 0, 1))])

    noise = tuple((f"collective-{u}", sum(pauli_on(n, k, u) for k in range(n)))
                  for u in "xyz")
    reference = (1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0)
    return scenario_from_generators(
        "symmetric-s3",
        "S3 symmetrization of three qubits with bounded Heisenberg exchange",
        n, [g1, g2], [prof1, prof2],
        reference_colors=reference, noise_generators=noise,
        checks=(_symmetric_s3_checks,),
    )


# name -> factory(n), each with its default size
_FACTORIES = {
    "carr-purcell": carr_purcell_scenario,
    "pauli": pauli_scenario,
    "spin-flip": spin_flip_scenario,
    "symmetric-s3": symmetric_s3_scenario,
}


def builtin_scenarios() -> list:
    """The four built-in scenarios at their default parameters."""
    return [make() for make in _FACTORIES.values()]


def get_scenario(name: str, n: int = None) -> Scenario:
    if name not in _FACTORIES:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(_FACTORIES)}")
    return _FACTORIES[name]() if n is None else _FACTORIES[name](n)


THEOREM_TOL = 1e-7


def verify_theorem(scenario: Scenario, schedule: ControlSchedule, rng,
                   trials: int) -> list:
    """Three checks on ``trials`` random Hermitian X from ``rng``, with
    p = pi_G(X) and q = q_map(X) over ``schedule``'s walk: the identity
    q_map = pi_G (``symmetrization``, max |q - p|; skipped, passed with a
    note, when a profile's rate leaves the group algebra, as the hypothesis
    then fails), max |pi_G(p) - p| and max |g q - q g|."""
    rep = scenario.rep
    draws = (random_hermitian(rep.dimension, rng) for _ in range(trials))
    worst_sym = worst_idem = worst_comm = 0.0
    for X in _operator_stacks(rep, draws):
        p, q = pi_G(rep, X), q_map(schedule, X)
        worst_sym = max(worst_sym, max_norm(q - p))
        worst_idem = max(worst_idem, max_norm(pi_G(rep, p) - p))
        worst_comm = max(worst_comm, float(commutator_norms(rep, q).max()))
    if all(in_algebra(rep, rate) for prof in scenario.profiles.values()
           for _, rate in prof.segments):
        theorem = bound_check("symmetrization", worst_sym, THEOREM_TOL)
    else:
        theorem = check_result("symmetrization", True, "skipped", THEOREM_TOL,
                               "hypothesis failed: profiles leave the algebra")
    return [theorem, bound_check("projector-idempotent", worst_idem, 1e-10),
            bound_check("qmap-commutant-valued", worst_comm, 1e-9)]


def verify_checks(scenario: Scenario, trials: int, seed: int) -> list:
    """Every named check ``verify`` runs on a scenario: its walk's length and
    validity, the three checks of one draw of ``trials`` operators, then the
    scenario's own, which draw on from the same generator."""
    rng = np.random.default_rng(seed)
    schedule = scenario.schedule()
    path, expected = schedule.path, scenario.expected_cycle_length
    checks = [check_result("cycle-length", len(path) == expected,
                           len(path), expected)]
    ok, diag = validate_path(scenario.group, path.colors)
    checks.append(check_result("eulerian-cycle-valid", ok, diag, "ok"))
    if scenario.reference_path is not None:
        ok, diag = validate_path(scenario.group, scenario.reference_path)
        checks.append(check_result("reference-path-valid", ok, diag, "ok"))
    checks.extend(verify_theorem(scenario, schedule, rng, trials))
    for check in scenario.checks:
        checks.extend(check(scenario, schedule, rng, seed))
    return checks


def _factor_fit_residual(B: np.ndarray, n_J: int, d_J: int) -> float:
    """Distance of a block from its best N ⊗ I fit, N the partial trace
    over the dimension factor divided by d_J."""
    N = B.reshape(n_J, d_J, n_J, d_J).trace(axis1=1, axis2=3) / d_J
    return float(np.linalg.norm(B - np.kron(N, np.eye(d_J))))


def noise_suppression_check(scenario: Scenario) -> float:
    """The largest norm of a noise generator's group average; 0 when the
    scenario declares no noise generator."""
    rep = scenario.rep
    gens = (S for _, S in scenario.noise_generators)
    return max((max_norm(pi_G(rep, S)) for S in _operator_stacks(rep, gens)),
               default=0.0)


@dataclass
class ScalingRow:
    delta_t: float
    cycle_time: float
    cycles: int
    distance: float
    per_cycle: float


@dataclass
class ScalingStudy:
    rows: list
    slope: float        # log-log slope of per-cycle error vs T_c; nan if n/a
    notice: str = ""


def scaling_study(scenario: Scenario, delta_t_values, cycles: int = 1,
                  drift: DriftModel = None, env_dim: int = 2,
                  seed: int = 0, kind: str = "eulerian") -> ScalingStudy:
    """Per-cycle decoupling error against the cycle time, with the fitted
    log-log slope (first-order decoupling gives slope 2)."""
    make = {"eulerian": scenario.schedule, "bangbang": scenario.bangbang}.get(kind)
    if make is None:
        raise ValueError(f"kind must be 'eulerian' or 'bangbang', got {kind!r}")
    if drift is None:
        drift = scenario.generic_drift(env_dim=env_dim, seed=seed)
    sched = make()
    delta_t_values = tuple(delta_t_values)
    rows = [ScalingRow(delta_t=float(dt), cycle_time=sched.sub_intervals * dt,
                       cycles=cycles, distance=dist, per_cycle=dist / cycles)
            for dt, dist in zip(delta_t_values, decoupling_distance(
                drift, sched, delta_t_values, cycles))]
    rows.sort(key=lambda r: -r.cycle_time)
    notice = ""
    per_cycle = [r.per_cycle for r in rows]
    if not all(a >= b * 0.999 for a, b in zip(per_cycle, per_cycle[1:])):
        notice = "non-monotonic data: error not in the asymptotic regime"
    if all(p <= 1e-13 for p in per_cycle):
        notice = "errors at numerical noise floor; slope not meaningful"
    distinct = len({r.cycle_time for r in rows})
    if distinct >= 2 and all(p > 0 for p in per_cycle):
        slope = float(np.polyfit(np.log([r.cycle_time for r in rows]),
                                 np.log(per_cycle), 1)[0])
    else:
        slope = float("nan")
        if len(rows) >= 2 and distinct < 2:
            notice = "slope undefined: the cycle times are all equal"
        notice = notice or "slope undefined (need >= 2 nonzero points)"
    return ScalingStudy(rows=rows, slope=slope, notice=notice)


def fidelity_error(drift: DriftModel, unitary: np.ndarray,
                   state: np.ndarray) -> float:
    """1 - fidelity of a pure system state under a joint propagator, with a
    maximally mixed environment."""
    d, de = drift.system_dim, drift.env_dim
    rho = np.kron(np.outer(state, state.conj()), np.eye(de) / de)
    rho = unitary @ rho @ unitary.conj().T
    rho_s = rho.reshape(d, de, d, de).trace(axis1=1, axis2=3)
    return float(1.0 - np.real(state.conj() @ rho_s @ state))


def fault_fidelity_comparison(scenario: Scenario, deltas: dict,
                              delta_t: float, cycles: int,
                              env_dim: int = 2, seed: int = 0) -> tuple:
    """(decoupled error, free-evolution error) for a random system state
    under a unit-norm generic drift; the decoupled run carries the fault
    ``deltas``, color -> (fraction, rate) segments."""
    rng = np.random.default_rng(seed)
    drift = scenario.generic_drift(env_dim=env_dim, seed=seed)
    sched = apply_fault(scenario.schedule(), deltas)
    u_dd = simulate_cycles(drift, sched, delta_t, cycles)
    t_total = cycles * (sched.sub_intervals * delta_t)
    u_free = pulses._expm_herm(drift.total(), t_total)
    psi = random_state(scenario.rep.dimension, rng)
    return (fidelity_error(drift, u_dd, psi),
            fidelity_error(drift, u_free, psi))
