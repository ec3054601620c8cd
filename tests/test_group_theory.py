"""Tests for groups, representations, projectors, and block structure."""

import functools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerdd import group_theory
from eulerdd.analysis import (collective, get_scenario, pauli_on,
                              robustness_report, spin_flip_scenario)
from eulerdd.cayley import build_cayley, eulerian_cycle, validate_path
from eulerdd.dynamics import average_hamiltonian, f_map, q_map
from eulerdd.group_theory import (DEFAULT_PHASE_TOL, GroupClosureError,
                                  InvalidGeneratorError, ResourceLimitError,
                                  ShapeError, center_basis, close_group,
                                  commutant_basis, decompose_irreps,
                                  equal_up_to_phase, fix_phase, pi_G,
                                  subspace_distance)
from eulerdd.pulses import (FaultModel, _expm_herm, bangbang_schedule,
                            eulerian_schedule, piecewise_profile)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def span_dimension(mats, tol=1e-10):
    stack = np.array([m.ravel() for m in mats])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > tol * s[0]))


def character_commutant_dim(rep):
    """dim of the commutant = tr of pi_G on operator space = sum |tr g|^2 / |G|."""
    return round(sum(abs(np.trace(g)) ** 2 for g in rep.matrices)
                 / len(rep.matrices))


def _null_combinations(M, mats, tol=1e-10):
    """Orthonormal vec rows spanning sum_k a_k mats[k], where a runs over the
    leading len(mats) coordinates of the null vectors of M."""
    # vh is square either way; U stays small for tall M
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    null = np.concatenate([s, np.zeros(vh.shape[0] - s.size)]) <= tol
    vecs = [sum(c * m for c, m in zip(vh[k, :len(mats)].conj(), mats))
            for k in np.flatnonzero(null)]
    if not vecs:
        return np.zeros((0, mats[0].size))
    _, s, vh = np.linalg.svd(np.array([v.ravel() for v in vecs]),
                             full_matrices=False)
    return vh[s > tol * s[0]]


def center_by_intersection(rep):
    """The replaced center definition: algebra ∩ span(commutant_basis), from
    the null space of [A | -C]."""
    alg, com = rep.algebra_basis(), commutant_basis(rep)
    A = np.array([m.ravel() for m in alg]).T
    C = np.array([m.ravel() for m in com]).T
    return _null_combinations(np.hstack([A, -C]), alg)


def center_by_commutation(rep):
    """algebra ∩ commutant from the generators: algebra elements X with
    γX - Xγ = 0 for every generator γ.  Used at d = 64, where
    commutant_basis alone takes about 100 s and 1.3 GB."""
    alg = rep.algebra_basis()
    M = np.vstack([np.array([(g @ a - a @ g).ravel() for a in alg]).T
                   for g in (rep.matrices[k] for k in rep.group.generators)])
    return _null_combinations(M, alg)


def assert_same_span(basis, ref_rows, tol):
    """basis (orthonormal matrices) and ref_rows (orthonormal vec rows) span
    the same subspace: equal dimension and the sine of the largest
    principal angle at most tol."""
    rows = np.array([b.ravel() for b in basis])
    assert rows.shape == ref_rows.shape
    assert np.linalg.norm(rows - rows @ ref_rows.conj().T @ ref_rows, 2) <= tol


class TestCloseGroup:
    def test_z2_from_sigma_x(self):
        group, rep = close_group([SX], max_order=8)
        assert group.order == 2
        assert equal_up_to_phase(rep.matrices[0], I2)
        assert equal_up_to_phase(rep.matrices[1], SX)
        group.validate()
        rep.validate()

    def test_trivial_group(self):
        group, rep = close_group([I2])
        assert group.order == 1
        group.validate()

    def test_pauli_group_up_to_phase(self):
        group, rep = close_group([SX, SZ])
        assert group.order == 4
        group.validate()
        rep.validate()

    def test_s3_order(self):
        # permutation matrices for (1 2) and (1 2 3)
        t = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        group, rep = close_group([t, c])
        assert group.order == 6
        group.validate()

    def test_non_unitary_rejected(self):
        with pytest.raises(InvalidGeneratorError):
            close_group([np.array([[1, 1], [0, 1]], dtype=complex)])

    def test_closure_cap(self):
        theta = 2 * np.pi / 97
        rot = np.array([[np.exp(1j * theta), 0], [0, 1]], dtype=complex)
        with pytest.raises(GroupClosureError):
            close_group([rot], max_order=16)


class TestPiG:
    def setup_method(self):
        self.z2_group, self.z2 = close_group([SX])
        self.pauli_group, self.pauli = close_group([SX, SZ])

    def test_sigma_z_killed_by_spin_flip(self):
        np.testing.assert_allclose(pi_G(self.z2, SZ), np.zeros((2, 2)), atol=1e-12)

    def test_pauli_maximal_averaging(self):
        for u in (SX, SY, SZ):
            np.testing.assert_allclose(pi_G(self.pauli, u), np.zeros((2, 2)),
                                       atol=1e-12)

    def test_identity_invariant(self):
        np.testing.assert_allclose(pi_G(self.pauli, I2), I2, atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            pi_G(self.pauli, np.eye(3))

    def test_idempotent_and_commutant_valued(self):
        rng = np.random.default_rng(0)
        for rep in (self.z2, self.pauli):
            for _ in range(100):
                X = random_hermitian(2, rng)
                p = pi_G(rep, X)
                assert np.linalg.norm(pi_G(rep, p) - p) <= 1e-10
                for g in rep.matrices:
                    assert np.linalg.norm(p @ g - g @ p) <= 1e-10

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = pi_G(self.pauli, X)
            assert abs(np.trace(p) - np.trace(X)) <= 1e-12
            h = random_hermitian(2, rng)
            ph = pi_G(self.pauli, h)
            assert np.linalg.norm(ph - ph.conj().T) <= 1e-12


class TestCommutantAndCenter:
    def test_pauli_commutant_is_scalar(self):
        _, rep = close_group([SX, SZ])
        basis = commutant_basis(rep)
        assert len(basis) == 1
        assert equal_up_to_phase(basis[0] * np.sqrt(2), I2)

    def test_trivial_group_full_space(self):
        _, rep = close_group([I2])
        assert len(commutant_basis(rep)) == 4

    def test_z2_commutant(self):
        _, rep = close_group([SX])
        basis = commutant_basis(rep)
        assert len(basis) == 2
        # span must contain I and sigma_x
        stack = np.array([b.ravel() for b in basis])
        for m in (I2, SX):
            v = m.ravel()
            resid = v - stack.T @ (stack.conj() @ v)
            assert np.linalg.norm(resid) <= 1e-10

    def test_pauli_center_scalar(self):
        _, rep = close_group([SX, SZ])
        assert len(center_basis(rep)) == 1

    def test_abelian_center_equals_algebra(self):
        _, rep = close_group([SX])
        assert len(center_basis(rep)) == 2

    def test_trivial_group_center(self):
        # algebra of the trivial group is span{I}, so the center is too
        _, rep = close_group([np.eye(3, dtype=complex)])
        cen = center_basis(rep)
        assert len(cen) == 1
        assert equal_up_to_phase(cen[0] * np.sqrt(3), np.eye(3))

    def test_basis_orthonormal(self):
        _, rep = close_group([SX])
        basis = commutant_basis(rep)
        gram = np.array([[np.vdot(a.ravel(), b.ravel()) for b in basis]
                         for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)


# every built-in at its default size, plus spin-flip up to d = 64
ALGEBRA_CASES = [("carr-purcell", None), ("pauli", 1), ("spin-flip", 2),
                 ("symmetric-s3", None), ("spin-flip", 3), ("spin-flip", 4),
                 ("spin-flip", 5), ("spin-flip", 6)]
SMALL_CASES = [c for c in ALGEBRA_CASES if c != ("spin-flip", 6)]


@functools.lru_cache(maxsize=None)
def scenario(name, n):
    return get_scenario(name, n)


class TestPiGDerivedAlgebra:
    """center_basis, decompose_irreps and robustness_report take the commutant
    through pi_G; each agrees with the commutant-basis definition it replaced."""

    @pytest.mark.parametrize("name,n", ALGEBRA_CASES)
    def test_center_matches_algebra_intersect_commutant(self, name, n):
        rep = scenario(name, n).rep
        ref = (center_by_intersection(rep) if rep.dimension <= 32
               else center_by_commutation(rep))
        assert_same_span(center_basis(rep), ref, 1e-12)

    @pytest.mark.parametrize("name,n", SMALL_CASES)
    def test_commutant_dimension_is_character_formula(self, name, n):
        rep = scenario(name, n).rep
        assert len(commutant_basis(rep)) == character_commutant_dim(rep)

    @pytest.mark.parametrize("name,n", SMALL_CASES)
    def test_commutant_residual_matches_basis_distance(self, name, n):
        sc = scenario(name, n)
        rep, d = sc.rep, sc.rep.dimension
        rng = np.random.default_rng(5)
        com = commutant_basis(rep)
        rates = []
        for _ in sc.profiles:
            m = random_hermitian(d, rng)
            rates.append(0.1 * (m - np.trace(m) / d * np.eye(d)))
        rob = robustness_report(sc, FaultModel.constant(sorted(sc.profiles),
                                                        rates))
        assert abs(rob.commutant_residual
                   - subspace_distance(rob.residual, com)) <= 1e-12
        # the same identity off the commutant, where both sides are O(1)
        X = random_hermitian(d, rng)
        assert abs(np.linalg.norm(X - pi_G(rep, X))
                   - subspace_distance(X, com)) <= 1e-12

    @pytest.mark.parametrize("name,n", ALGEBRA_CASES)
    def test_irrep_block_counts(self, name, n):
        rep = scenario(name, n).rep
        dec = decompose_irreps(rep)
        assert sum(b.multiplicity * b.dimension for b in dec.blocks) == rep.dimension
        assert (sum(b.multiplicity ** 2 for b in dec.blocks)
                == character_commutant_dim(rep))


class TestMemoryGuard:
    def test_commutant_basis_refuses_d128_before_allocating(self):
        rep = spin_flip_scenario(7).rep
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match="resource limit"):
                commutant_basis(rep)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 1 << 20

    def test_is_a_value_error(self):
        # the CLI maps ValueError to exit code 2
        assert issubclass(ResourceLimitError, ValueError)


def _monomial(perm, phase_steps, global_phase):
    """Permutation matrix with 4th-root-of-unity diagonal phases and a
    global phase."""
    d = len(perm)
    m = np.zeros((d, d), dtype=complex)
    m[list(perm), range(d)] = 1j ** np.asarray(phase_steps)
    return np.exp(1j * global_phase) * m


@st.composite
def monomial_groups(draw):
    d = draw(st.integers(1, 6))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(d)))
        steps = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        phases = draw(st.lists(st.floats(0, 2 * np.pi), min_size=2, max_size=2))
        gens.append((perm, steps, phases))
    return gens


PROPERTY_MAX_ORDER = 24


class TestRandomMonomialGroups:
    """Properties over random monomial groups (permutations with diagonal
    and global phases, d <= 6) small enough to close quickly."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups())
    def test_algebra_layer_properties(self, gens):
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        # global phases do not change the projective group
        other, _ = close_group([_monomial(p, s, ph[1]) for p, s, ph in gens],
                               max_order=PROPERTY_MAX_ORDER)
        assert other.order == group.order
        assert len(commutant_basis(rep)) == character_commutant_dim(rep)
        assert_same_span(center_basis(rep), center_by_intersection(rep), 1e-12)
        dec = decompose_irreps(rep)
        assert sum(b.multiplicity * b.dimension for b in dec.blocks) == rep.dimension
        assert (sum(b.multiplicity ** 2 for b in dec.blocks)
                == character_commutant_dim(rep))


def loop_pi_G(rep, X):
    """The per-element group average: (g† X) g added in element order."""
    acc = np.zeros((rep.dimension,) * 2, dtype=complex)
    for g in rep.matrices:
        acc += g.conj().T @ X @ g
    return acc / len(rep.matrices)


def loop_center(rep, tol=1e-10):
    """Orthonormal vec rows spanning the twisted class sums, each summed by
    loop_pi_G."""
    sums = np.array([loop_pi_G(rep, g).ravel() for g in rep.matrices])
    _, s, vh = np.linalg.svd(sums, full_matrices=False)
    return vh[s > tol * s[0]]


class TestStackedRep:
    """pi_G and center_basis read one stacked view of the group; center_basis
    and decompose_irreps are computed once per representation."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_stacked_pi_and_center_match_loop(self, gens, seed):
        try:
            _, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                 max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        rng = np.random.default_rng(seed)
        d = rep.dimension
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.linalg.norm(pi_G(rep, X) - loop_pi_G(rep, X)) <= 1e-13
        ref = loop_center(rep)
        rows = np.array([b.ravel() for b in center_basis(rep)])
        assert rows.shape == ref.shape
        assert np.linalg.norm(rows.conj().T @ rows - ref.conj().T @ ref) <= 1e-13

    def test_cached_arrays_are_read_only_and_shared(self):
        rep = get_scenario("symmetric-s3", None).rep
        mats, adjs = rep.stacked()
        assert mats is rep.stacked()[0] and adjs is rep.stacked()[1]
        np.testing.assert_array_equal(mats, np.array(rep.matrices))
        np.testing.assert_array_equal(adjs, mats.conj().transpose(0, 2, 1))
        cen, dec = center_basis(rep), decompose_irreps(rep)
        assert center_basis(rep) is cen
        assert decompose_irreps(rep) is dec
        arrays = [mats, adjs, cen, dec.basis_change,
                  *(b.columns for b in dec.blocks)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            cen[0][0, 0] = 1.0

    @pytest.mark.parametrize("basis", ["algebra", "center"])
    def test_basis_stacks_built_once(self, basis, monkeypatch):
        # every profile's in-algebra check reads the one algebra stack
        _, rep = close_group(pauli_generators(2))
        real, builds = group_theory._orthonormal_span, []
        monkeypatch.setattr(group_theory, "_orthonormal_span",
                            lambda *args: builds.append(1) or real(*args))
        get = {"algebra": rep.algebra_basis,
               "center": lambda: center_basis(rep)}[basis]
        stack = get()
        assert builds == [1] and get() is stack
        assert stack.ndim == 3 and stack.shape[1:] == (4, 4)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0

    def test_irreps_cached_per_seed(self, monkeypatch):
        rep = get_scenario("symmetric-s3", None).rep
        builds = []
        real = group_theory._decompose_irreps

        def counted(*args):
            builds.append(args[1:])
            return real(*args)

        monkeypatch.setattr(group_theory, "_decompose_irreps", counted)
        first = decompose_irreps(rep, seed=0)
        assert decompose_irreps(rep, seed=0) is first
        assert decompose_irreps(rep, seed=1) is not first
        assert decompose_irreps(rep, seed=1) is decompose_irreps(rep, seed=1)
        assert builds == [(0,), (1,)]


def hermitian_log(u):
    """Hermitian H with exp(-iH) = u, for a unitary u.  The eigenbasis comes
    from a Hermitian function of u, and the phases are cut in the middle of
    the widest gap between u's eigenphases, so equal eigenvalues get equal
    phases and H is a polynomial in u."""
    mix = (u + u.conj().T) / 2 + (np.e / np.pi) * (u - u.conj().T) / 2j
    _, v = np.linalg.eigh(mix)
    lam = np.diag(v.conj().T @ u @ v)
    ang = np.sort(np.angle(lam))
    gaps = np.diff(np.append(ang, ang[0] + 2 * np.pi))
    k = int(np.argmax(gaps))
    shift = ang[k] + gaps[k] / 2 - np.pi
    phases = np.angle(lam * np.exp(-1j * shift)) + shift
    return -(v * phases) @ v.conj().T


@st.composite
def segment_plans(draw):
    """(fraction, weight) pairs of one profile, with fractions from small
    integers and the last weight set so that sum(fraction * weight) = 1."""
    n = draw(st.integers(1, 3))
    parts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    fractions = [p / sum(parts) for p in parts]
    weights = draw(st.lists(st.floats(-2, 2), min_size=n - 1, max_size=n - 1))
    weights.append((1 - sum(f * w for f, w in zip(fractions, weights)))
                   / fractions[-1])
    return list(zip(fractions, weights))


class TestEulerianIdentities:
    """The paper's identities on random monomial groups: the Eulerian cycle
    has length |G|·|Γ|; q_map = pi_G for in-algebra profiles; and the
    first-order average Hamiltonian is pi_G(F_Γ(H0)) = q_map(H0) for any
    profiles."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.lists(segment_plans(), min_size=2, max_size=2),
           st.integers(0, 2 ** 32 - 1))
    def test_cycle_and_first_order_identities(self, gens, plans, seed):
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        graph = build_cayley(group)
        path = eulerian_cycle(graph)
        ok, diag = validate_path(graph, path.colors)
        assert ok, diag
        assert len(path) == group.order * len(group.generators)

        # rates are real multiples of the generator's Hermitian logarithm
        profiles = {}
        for c, gen in enumerate(group.generators):
            H = hermitian_log(rep.matrices[gen])
            profiles[c] = piecewise_profile(gen, rep,
                                            [(f, w * H) for f, w in plans[c]])
            assert profiles[c].in_algebra
        rng = np.random.default_rng(seed)
        d = rep.dimension
        X, H0 = random_hermitian(d, rng), random_hermitian(d, rng)
        assert np.linalg.norm(q_map(rep, profiles, X) - pi_G(rep, X)) <= 1e-9
        sched = eulerian_schedule(path, profiles, 0.1, rep)
        for frame, v in zip(sched.stroboscopic_frames(), path.vertices):
            assert equal_up_to_phase(frame, rep.matrices[v], 1e-9)
        assert np.linalg.norm(average_hamiltonian(sched, H0)
                              - q_map(rep, profiles, H0)) <= 1e-10

        # a two-segment profile whose first segment is a random rotation
        gen = group.generators[0]
        A = random_hermitian(d, rng)
        back = hermitian_log(rep.matrices[gen] @ _expm_herm(A, -1.0))
        profiles[0] = piecewise_profile(gen, rep, [(0.5, 2 * A), (0.5, 2 * back)])
        sched = eulerian_schedule(path, profiles, 0.1, rep)
        assert np.linalg.norm(average_hamiltonian(sched, H0)
                              - q_map(rep, profiles, H0)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_bangbang_frames_and_average(self, gens, seed):
        """Kicks after free steps put sub-interval l in the frame g_l, close
        at the identity, and average any H0 to pi_G(H0)."""
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        frames = bangbang_schedule(group, rep, 0.1).stroboscopic_frames()
        assert len(frames) == group.order + 1
        for frame, g in zip(frames, rep.matrices):
            assert np.linalg.norm(frame - g) <= 1e-12
        assert np.linalg.norm(frames[-1] - np.eye(rep.dimension)) <= 1e-12
        H0 = random_hermitian(rep.dimension, np.random.default_rng(seed))
        avg = average_hamiltonian(bangbang_schedule(group, rep, 0.1), H0)
        assert np.linalg.norm(avg - pi_G(rep, H0)) <= 1e-10


def assert_stack_matches_per_operator(rep, profiles, X):
    """f_map, q_map and pi_G of the (n, d, d) stack X equal, bit for bit,
    the stack of their values at each operator of X."""
    for quantity in (functools.partial(f_map, profiles),
                     functools.partial(q_map, rep, profiles),
                     functools.partial(pi_G, rep)):
        stacked = quantity(X)
        assert stacked.shape == X.shape
        assert np.array_equal(stacked, np.array([quantity(x) for x in X]))


class TestStackedOracle:
    """A stack of operators and one operator take one code path: each
    quantity of a stack equals the per-operator calls exactly."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["carr-purcell", "pauli", "spin-flip",
                                      "symmetric-s3"])
    def test_builtins(self, name, seed):
        # symmetric-s3's second generator has a two-segment profile
        sc = get_scenario(name, None)
        rng = np.random.default_rng(seed)
        X = np.array([random_hermitian(sc.rep.dimension, rng) for _ in range(20)])
        assert_stack_matches_per_operator(sc.rep, sc.profiles, X)
        assert_stack_matches_per_operator(sc.rep, sc.profiles, X[:1])

    @settings(max_examples=30, deadline=None)
    @given(monomial_groups(), st.lists(segment_plans(), min_size=2, max_size=2),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_monomial_groups(self, gens, plans, n, seed):
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        profiles = {}
        for c, gen in enumerate(group.generators):
            H = hermitian_log(rep.matrices[gen])
            profiles[c] = piecewise_profile(gen, rep, [(f, w * H) for f, w in plans[c]])
        rng = np.random.default_rng(seed)
        d = rep.dimension
        X = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        assert_stack_matches_per_operator(rep, profiles, X)

    def test_shape_checked_on_the_last_two_axes(self):
        sc = get_scenario("carr-purcell", None)
        for X in (np.zeros((3, 2, 3)), np.zeros((3, 4, 4)), np.zeros(2)):
            with pytest.raises(ShapeError):
                pi_G(sc.rep, X)
            with pytest.raises(ValueError, match="shape error"):
                q_map(sc.rep, sc.profiles, X)


def linear_scan_closure(generator_matrices, max_order,
                        tol=DEFAULT_PHASE_TOL):
    """Reference closure: each product is compared with every stored element
    by equal_up_to_phase, in order (the lookup close_group replaced).
    Returns (elements, mult_table, generators)."""
    gens = [np.asarray(g, dtype=complex) for g in generator_matrices]
    d = gens[0].shape[0]
    elements = [np.eye(d, dtype=complex)]

    def find(m):
        for k, e in enumerate(elements):
            if equal_up_to_phase(e, m, tol):
                return k
        return -1

    gen_indices = []
    for g in gens:
        k = find(g)
        if k < 0:
            elements.append(fix_phase(g))
            k = len(elements) - 1
        if k not in gen_indices and k != 0:
            gen_indices.append(k)
        elif k == 0 and len(gens) == 1:
            gen_indices.append(0)

    frontier = list(range(len(elements)))
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                prod = g @ elements[i]
                if find(prod) < 0:
                    if len(elements) >= max_order:
                        raise GroupClosureError("group too large or not closed")
                    elements.append(fix_phase(prod))
                    nxt.append(len(elements) - 1)
        frontier = nxt

    n = len(elements)
    table = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            k = find(elements[i] @ elements[j])
            if k < 0:
                raise GroupClosureError("group too large or not closed")
            table[i, j] = k
    return elements, table, tuple(gen_indices or [0])


def assert_same_closure(gens, max_order):
    """close_group and linear_scan_closure agree bit for bit, or both raise."""
    try:
        ref = linear_scan_closure(gens, max_order)
    except GroupClosureError:
        with pytest.raises(GroupClosureError):
            close_group(gens, max_order=max_order)
        return
    group, rep = close_group(gens, max_order=max_order)
    elements, table, generators = ref
    assert len(rep.matrices) == len(elements)
    for got, want in zip(rep.matrices, elements):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(group.mult_table, table)
    assert group.generators == generators


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pauli_generators(n):
    return [pauli_on(n, k, u) for k in range(n) for u in "xz"]


def spin_flip_generators(n):
    return [collective(n, "x"), collective(n, "z")]


def conjugated(gens, seed):
    """The generators conjugated by one seeded random unitary."""
    u = random_unitary(gens[0].shape[0], np.random.default_rng(seed))
    return [u @ g @ u.conj().T for g in gens]


@pytest.fixture
def comparisons(monkeypatch):
    """Counts the equal_up_to_phase calls made inside group_theory."""
    calls = []
    real = group_theory.equal_up_to_phase

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(group_theory, "equal_up_to_phase", counted)
    return calls


class TestClosure:
    """close_group compares each product with one stored element, derives
    its table from the generator action, and matches the linear-scan
    closure exactly."""

    @pytest.mark.parametrize("name,n", [*ALGEBRA_CASES, ("pauli", 2)])
    def test_scenario_groups_match_linear_scan(self, name, n):
        rep = scenario(name, n).rep
        assert_same_closure([rep.matrices[k] for k in rep.group.generators], 512)

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_random_monomial_groups_match_linear_scan(self, gens, seed):
        mats = [_monomial(p, s, ph[0]) for p, s, ph in gens]
        assert_same_closure(mats, PROPERTY_MAX_ORDER)
        # conjugated by a random unitary the entries are generic, so some
        # lie near rounding half-steps instead of on the grid
        u = random_unitary(mats[0].shape[0], np.random.default_rng(seed))
        assert_same_closure([u @ m @ u.conj().T for m in mats],
                            PROPERTY_MAX_ORDER)

    def test_copy_across_rounding_half_step_is_found(self):
        # a real reflection whose (0, 0) entry lies 1e-12 above a half-step
        # of a 1e-5 rounding grid; the copy lies 1e-12 below it
        half_step = 0.600005

        def reflection(c):
            s = np.sqrt(1.0 - c * c)
            return np.array([[c, s], [s, -c]], dtype=complex)

        a, b = reflection(half_step + 1e-12), reflection(half_step - 1e-12)
        assert equal_up_to_phase(a, b)
        group, rep = close_group([a, b])
        assert group.order == 2
        assert group.generators == (1,)
        assert np.array_equal(group.mult_table, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("gens,max_order,order", [
        (pauli_generators(2), 17, 16), (spin_flip_generators(5), 512, 4),
        (conjugated(pauli_generators(2), 5), 17, 16)],
        ids=["pauli-2", "spin-flip-5", "conjugated-pauli-2"])
    def test_one_comparison_per_generator_product(self, gens, max_order,
                                                  order, comparisons):
        group, _ = close_group(gens, max_order=max_order)
        assert group.order == order
        # one per generator, then one per product gens[c] @ e_i
        assert len(comparisons) <= len(gens) * (order + 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_derived_table_matches_direct_products(self, n):
        group, rep = close_group(pauli_generators(n))
        assert group.order == 4 ** n
        if n == 3:
            group.validate()
        stack = np.array(rep.matrices)
        d = stack.shape[1]
        for i in range(group.order):
            prods = rep.matrices[i] @ stack
            # unitary P = c E for a unit phase c exactly when |tr(E† P)| = d
            overlap = np.einsum("kab,kab->k", stack[group.mult_table[i]].conj(),
                                prods)
            assert np.abs(overlap).min() >= d * (1 - 1e-10)

    def test_fix_phase_matches_one_matrix_reference(self):
        def reference(m):
            # one matrix at a time: rotate the first largest-modulus entry
            # (up to the 1e-9 relative slack) to be real positive
            flat = m.ravel()
            mods = np.abs(flat)
            top = mods.max()
            if top == 0.0:
                return m.copy()
            idx = int(np.flatnonzero(mods >= top * (1.0 - 1e-9))[0])
            return m / (flat[idx] / abs(flat[idx]))

        rng = np.random.default_rng(3)
        ms = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        ms[::4] = np.round(ms[::4])   # ties among largest-modulus entries
        ms[1] = 0.0                   # the zero matrix is left unchanged
        for m in ms:
            assert fix_phase(m).tobytes() == reference(m).tobytes()


def fix_phase_equal(a, b, tol=DEFAULT_PHASE_TOL):
    """The metric equal_up_to_phase had before it took the optimal phase:
    the distance between the two matrices each phase-fixed by its own
    largest-modulus entry."""
    if a.shape != b.shape:
        return False
    scale = max(np.linalg.norm(a), 1.0)
    return np.linalg.norm(fix_phase(a) - fix_phase(b)) <= tol * scale


def closure_bytes(gens, max_order):
    """Bytes of the elements, the table and the generators of a closure."""
    try:
        group, rep = close_group(gens, max_order=max_order)
    except GroupClosureError:
        return None
    return ([m.tobytes() for m in rep.matrices], group.mult_table.tobytes(),
            group.generators)


def assert_closure_as_with_fix_phase_metric(gens, max_order):
    got = closure_bytes(gens, max_order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_theory, "equal_up_to_phase", fix_phase_equal)
        assert closure_bytes(gens, max_order) == got


class TestPhaseDistance:
    """equal_up_to_phase compares the distance after the optimal phase; the
    closures it gives are the ones the fix_phase metric gave."""

    def test_modulus_tie_is_equal(self):
        # fix_phase rotates entry (0, 0) of a but entry (1, 1) of b, whose
        # modulus is 3e-9 larger, so the fix_phase metric saw an O(1) distance
        a = np.diag([1, 1j])
        b = np.exp(0.7j) * np.diag([1 - 3e-9, 1j])
        assert not fix_phase_equal(a, b, 1e-8)
        assert equal_up_to_phase(a, b, 1e-8)
        assert group_theory.phase_distance(a, b) <= 1e-8

    def test_shapes_must_match(self):
        assert not equal_up_to_phase(I2, np.eye(3))

    @pytest.mark.parametrize("name,n", [
        ("carr-purcell", None), ("spin-flip", 2), ("symmetric-s3", None),
        ("pauli", 1), ("pauli", 2), ("pauli", 3), ("pauli", 4)])
    def test_scenario_closures_match_fix_phase_metric(self, name, n):
        rep = scenario(name, n).rep
        assert_closure_as_with_fix_phase_metric(
            [rep.matrices[k] for k in rep.group.generators], 512)

    @settings(max_examples=60, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_monomial_closures_match_fix_phase_metric(self, gens, seed):
        mats = [_monomial(p, s, ph[0]) for p, s, ph in gens]
        assert_closure_as_with_fix_phase_metric(mats, PROPERTY_MAX_ORDER)
        u = random_unitary(mats[0].shape[0], np.random.default_rng(seed))
        assert_closure_as_with_fix_phase_metric(
            [u @ m @ u.conj().T for m in mats], PROPERTY_MAX_ORDER)


def restacked_distance(X, basis):
    """subspace_distance as computed before the basis stacks: the basis
    restacked as rows and conjugated on every call."""
    B = np.array([b.ravel() for b in basis])
    v = X.ravel()
    return float(np.linalg.norm(v - B.T @ (B.conj() @ v)))


class TestSubspaceDistance:
    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_matches_restacked_reference_bit_for_bit(self, gens, seed):
        try:
            _, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                 max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        rng = np.random.default_rng(seed)
        d = rep.dimension
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for basis in (rep.algebra_basis(), center_basis(rep),
                      list(center_basis(rep)), commutant_basis(rep)):
            assert subspace_distance(X, basis) == restacked_distance(X, basis)

    def test_empty_basis_gives_the_norm(self):
        X = np.arange(4.0).reshape(2, 2) + 1j
        for empty in ([], np.zeros((0, 2, 2), dtype=complex)):
            assert subspace_distance(X, empty) == np.linalg.norm(X)


class TestDecomposeIrreps:
    def test_pauli_irreducible(self):
        _, rep = close_group([SX, SZ])
        dec = decompose_irreps(rep)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert (blk.multiplicity, blk.dimension) == (1, 2)

    def test_basis_change_unitary_and_block_structure(self):
        from eulerdd.analysis import swap_gate
        g1 = swap_gate(3, 0, 1)
        g2 = swap_gate(3, 0, 1) @ swap_gate(3, 1, 2)
        _, rep = close_group([g1, g2])
        dec = decompose_irreps(rep)
        V = dec.basis_change
        np.testing.assert_allclose(V.conj().T @ V, np.eye(8), atol=1e-10)
        dims = sorted((b.dimension, b.multiplicity) for b in dec.blocks)
        assert dims == [(1, 4), (2, 2)]
        assert sum(b.multiplicity * b.dimension for b in dec.blocks) == 8
        # every group element is block-diagonal as I(n) ⊗ Mat(d)
        for g in rep.matrices:
            rot = V.conj().T @ g @ V
            pos = 0
            for blk in dec.blocks:
                n, d = blk.multiplicity, blk.dimension
                size = n * d
                B = rot[pos:pos + size, pos:pos + size]
                # off-block entries vanish
                assert np.linalg.norm(rot[pos:pos + size, pos + size:]) <= 1e-9
                assert np.linalg.norm(rot[pos + size:, pos:pos + size]) <= 1e-9
                # I ⊗ M structure: all diagonal d x d sub-blocks equal,
                # off-diagonal sub-blocks vanish
                B4 = B.reshape(n, d, n, d)
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            assert np.linalg.norm(B4[i, :, i, :] - B4[0, :, 0, :]) <= 1e-8
                        else:
                            assert np.linalg.norm(B4[i, :, j, :]) <= 1e-8
                pos += size

    def test_double_commutant_dimensions(self):
        from eulerdd.analysis import collective
        for gens in ([SX], [SX, SZ], [collective(2, "x"), collective(2, "z")]):
            _, rep = close_group(gens)
            dec = decompose_irreps(rep)
            com_dim = len(commutant_basis(rep))
            alg_dim = span_dimension(rep.matrices)
            assert com_dim == sum(b.multiplicity ** 2 for b in dec.blocks)
            assert alg_dim == sum(b.dimension ** 2 for b in dec.blocks)

    def test_block_norms_match_per_block_loop(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        starts = [0, 1, 3, 4, 7]
        cuts = starts + [9]
        loop = [[np.linalg.norm(M[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]])
                 for j in range(len(starts))] for i in range(len(starts))]
        np.testing.assert_allclose(group_theory._block_norms(M, starts), loop,
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n,blocks", [(7, [(64, 2)]), (8, [(64, 1)] * 4)])
    def test_spin_flip_blocks_at_large_d(self, n, blocks):
        _, rep = close_group(spin_flip_generators(n))
        dec = decompose_irreps(rep)
        assert [(b.multiplicity, b.dimension) for b in dec.blocks] == blocks
        assert (sum(b.multiplicity ** 2 for b in dec.blocks)
                == character_commutant_dim(rep))

    def test_spin_flip_n2_four_one_dim_blocks(self):
        from eulerdd.analysis import collective
        _, rep = close_group([collective(2, "x"), collective(2, "z")])
        dec = decompose_irreps(rep)
        assert [(b.multiplicity, b.dimension) for b in dec.blocks] == [(1, 1)] * 4
