"""Tests for groups, representations, projectors, and block structure."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerdd import analysis, dynamics, group_theory
from eulerdd.analysis import (collective, get_scenario, pauli_on,
                              spin_flip_scenario)
from eulerdd.cayley import eulerian_cycle, validate_path
from eulerdd.dynamics import average_hamiltonian, q_map, residual_error
from eulerdd.group_theory import (ALGEBRA_TOL, DEFAULT_PHASE_TOL,
                                  GroupClosureError, InvalidGeneratorError,
                                  Monomial, ShapeError, close_group, decompose_irreps,
                                  equal_up_to_phase, fix_phase, in_algebra,
                                  pi_G)
from eulerdd.pulses import (_expm_herm, apply_fault, bangbang_schedule,
                            eulerian_schedule, piecewise_profile)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def dense(S):
    """A noise generator or coupling S as its d x d array: a Monomial
    densified, an array as it is."""
    return S.dense() if isinstance(S, Monomial) else S


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
    alg, com = algebra_basis(rep), commutant_basis(rep)
    A = np.array([m.ravel() for m in alg]).T
    C = np.array([m.ravel() for m in com]).T
    return _null_combinations(np.hstack([A, -C]), alg)


def center_by_commutation(rep):
    """algebra ∩ commutant from the generators: algebra elements X with
    γX - Xγ = 0 for every generator γ.  Used at d = 64, where
    commutant_basis alone takes about 100 s and 1.3 GB."""
    alg = algebra_basis(rep)
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
        validate_group(group)
        validate_rep(rep)

    def test_trivial_group(self):
        group, rep = close_group([I2])
        assert group.order == 1
        validate_group(group)

    def test_pauli_group_up_to_phase(self):
        group, rep = close_group([SX, SZ])
        assert group.order == 4
        validate_group(group)
        validate_rep(rep)

    def test_s3_order(self):
        # permutation matrices for (1 2) and (1 2 3)
        t = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        group, rep = close_group([t, c])
        assert group.order == 6
        validate_group(group)

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
    """The center (the twisted class sums of ``center_basis``) and
    decompose_irreps take the commutant through pi_G, and the distance of a
    fault residual from the commutant is measured through it; each agrees
    with the commutant-basis definition it replaced."""

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
        fault = {}
        for c in sorted(sc.profiles):
            m = random_hermitian(d, rng)
            fault[c] = [(1.0, 0.1 * (m - np.trace(m) / d * np.eye(d)))]
        res = residual_error(apply_fault(sc.schedule(), fault))
        assert abs(np.linalg.norm(res - pi_G(rep, res))
                   - subspace_distance(res, com)) <= 1e-12
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


@st.composite
def pauli_pairs(draw, min_qubits=1, max_qubits=4):
    """A signed Pauli string on ``min_qubits`` <= n <= ``max_qubits`` qubits,
    the identity string included, as its Monomial pair."""
    n = draw(st.integers(min_qubits, max_qubits))
    S = analysis._pauli_string(draw(st.text("ixyz", min_size=n, max_size=n)))
    return Monomial(S.rows, draw(st.sampled_from([1.0, -1.0])) * S.entries)


@st.composite
def hermitian_monomials(draw, d):
    """A Hermitian Monomial of dimension d: rows a random involution (2-cycles
    and fixed points), entries z and conj(z) on each 2-cycle and real on
    each fixed point, |z| <= 1."""
    perm = draw(st.permutations(range(d)))
    cycles = draw(st.integers(0, d // 2))
    rows, entries = np.arange(d), np.zeros(d, dtype=complex)
    part = st.floats(-1.0, 1.0)
    for a, b in zip(perm[:2 * cycles:2], perm[1:2 * cycles:2]):
        rows[a], rows[b] = b, a
        entries[a] = complex(draw(part), draw(part)) / np.sqrt(2)
        entries[b] = entries[a].conjugate()
    for c in perm[2 * cycles:]:
        entries[c] = draw(part)
    return Monomial(rows, entries)


def commutant_basis(rep):
    """Orthonormal basis of {X : X g = g X for all g in G}, the oracle for
    ``pi_G``, whose image is the same space.

    The commutant of G is the commutant of its generators, so this is the
    null space of the Gram matrix sum_γ M_γ† M_γ with M_γ = γ ⊗ I - I ⊗ γ^T
    (row-major vec), taken with ``eigh``: eigenvalues at most
    DEFAULT_PHASE_TOL times the largest.  For unitary γ,
    M_γ† M_γ = 2I - K - K† with K = γ ⊗ conj(γ).  It costs O(d^6) time and
    16 d^4 bytes per d^2 x d^2 array, about five of which are live at once.
    """
    d = rep.dimension
    gram = np.zeros((d * d, d * d), dtype=complex)
    for k in rep.group.generators:
        g = rep.matrices[k]
        gram -= np.kron(g, g.conj())
    gram += gram.conj().T
    gram[np.diag_indices(d * d)] += 2.0 * len(rep.group.generators)
    evals, evecs = np.linalg.eigh(gram)
    null = evals <= DEFAULT_PHASE_TOL * max(evals[-1], 1.0)
    return [evecs[:, k].reshape(d, d) for k in np.flatnonzero(null)]


def orthonormal_span(mats):
    """Orthonormal (Hilbert-Schmidt) basis of the span of a (k, d, d)
    stack, as a (rank, d, d) stack: the rows of the SVD's vh whose singular
    values exceed DEFAULT_PHASE_TOL times the largest."""
    k, d, _ = mats.shape
    _, s, vh = np.linalg.svd(mats.reshape(k, d * d), full_matrices=False)
    rank = int(np.sum(s > DEFAULT_PHASE_TOL * s[0])) if s.size else 0
    return vh[:rank].reshape(rank, d, d)


def algebra_basis(rep):
    """Orthonormal basis of span{g_j}, the oracle for ``in_algebra``: the
    SVD of the (|G|, d²) element stack."""
    return orthonormal_span(rep.matrices)


def center_basis(rep):
    """Orthonormal basis of the center, group algebra ∩ commutant: the SVD
    of the twisted class sums pi_G(g).  pi_G maps span{g} into itself
    (h† g h is a phase times an element) and fixes every element of the
    commutant, so its image of the algebra is the algebra ∩ commutant."""
    return orthonormal_span(pi_G(rep, rep.matrices))


def subspace_distance(X, basis):
    """Hilbert-Schmidt distance of X from the span of an orthonormal matrix
    basis (a (k, d, d) stack or a sequence of d x d matrices); |X| for an
    empty basis."""
    if len(basis) == 0:
        return float(np.linalg.norm(X))
    B = np.reshape(basis, (len(basis), -1))
    v = X.ravel()
    return float(np.linalg.norm(v - B.T @ np.conj(B @ np.conj(v))))


def multiply(group, i, j):
    """The element index of g_i g_j."""
    return int(group.mult_table[i, j])


def generated_subgroup(group, gens) -> set:
    """The elements of the subgroup that the elements ``gens`` generate."""
    closure = {0}
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(closure):
                for p in (multiply(group, g, h), multiply(group, h, g)):
                    if p not in closure:
                        closure.add(p)
                        nxt.append(p)
            if g not in closure:
                closure.add(g)
                nxt.append(g)
        frontier = nxt
    return closure


def validate_group(group):
    """The group axioms on the multiplication table, by brute force: element
    0 the identity, every row and column a permutation, associativity, and
    generators that generate the group."""
    n = group.order
    t = group.mult_table
    if t.shape != (n, n):
        raise ValueError("mult_table is not square")
    for i in range(n):
        if t[0, i] != i or t[i, 0] != i:
            raise ValueError("element 0 is not the identity")
        if sorted(t[i]) != list(range(n)) or sorted(t[:, i]) != list(range(n)):
            raise ValueError("mult_table rows/columns are not permutations")
        if 0 not in t[i]:
            raise ValueError(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            if not np.array_equal(t[t[i, j]], t[i][t[j]]):
                raise ValueError("mult_table is not associative")
    if generated_subgroup(group, group.generators) != set(range(n)):
        raise ValueError("generators do not generate the group")


def validate_rep(rep):
    """A faithful projective representation of its group: one unitary per
    element, the identity first, and g_i g_j equal to g_{ij} up to phase."""
    d = rep.dimension
    if len(rep.matrices) != rep.group.order:
        raise ValueError("one matrix per group element required")
    if not equal_up_to_phase(rep.matrices[0], np.eye(d)):
        raise ValueError("element 0 must be represented by the identity")
    for k, m in enumerate(rep.matrices):
        if not group_theory.is_unitary(m):
            raise ValueError(f"matrix {k} is not unitary")
    for i, mi in enumerate(rep.matrices):
        for j, mj in enumerate(rep.matrices):
            if not equal_up_to_phase(mi @ mj, rep.matrices[multiply(rep.group, i, j)]):
                raise ValueError("matrices are not a projective homomorphism")
            if i < j and equal_up_to_phase(mi, mj):
                raise ValueError("representation is not faithful up to phase")


PROPERTY_MAX_ORDER = 24


class TestRandomMonomialGroups:
    """Properties over random monomial groups (permutations with diagonal
    and global phases, d <= 6) small enough to close quickly."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_algebra_layer_properties(self, gens, seed):
        mats = [_monomial(p, s, ph[0]) for p, s, ph in gens]
        try:
            group, rep = close_group(mats, max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        # the group axioms and the projective homomorphism, on the table of
        # the keyed walk and on that of the dense walk, which closes the
        # same group conjugated by a random unitary
        dense_group, dense_rep = close_group(conjugated(mats, seed),
                                             max_order=PROPERTY_MAX_ORDER)
        assert dense_rep.monomial() is None or group.order == 1
        assert dense_group.order == group.order
        for g, r in ((group, rep), (dense_group, dense_rep)):
            validate_group(g)
            validate_rep(r)
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


class TestInAlgebra:
    """in_algebra, read from the multiplication table, decides as the SVD
    of the element stack does, at the same distance, on monomial
    representations and on the same groups conjugated by a random unitary,
    which are not monomial."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_svd_oracle(self, gens, seed):
        mats = [_monomial(p, s, ph[0]) for p, s, ph in gens]
        for generators in (mats, conjugated(mats, seed)):
            try:
                _, rep = close_group(generators, max_order=PROPERTY_MAX_ORDER)
            except GroupClosureError:
                assume(False)
            rng = np.random.default_rng(seed)
            d, n = rep.dimension, len(rep.matrices)
            z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
            inside = np.tensordot(z, rep.matrices, axes=1)
            X = np.concatenate([(inside + inside.conj().swapaxes(1, 2)) / 2,
                                [random_hermitian(d, rng) for _ in range(3)]])
            basis = algebra_basis(rep)
            want = np.array([subspace_distance(x, basis) for x in X])
            got = group_theory._algebra_distance(rep, X)
            assert np.abs(got - want).max() <= 1e-12
            decided = want <= ALGEBRA_TOL * np.maximum(
                np.linalg.norm(X, axis=(1, 2)), 1.0)
            assert decided[:3].all()
            assert in_algebra(rep, X).tolist() == decided.tolist()
            assert [in_algebra(rep, x) for x in X] == decided.tolist()

    @pytest.mark.parametrize("name,n", SMALL_CASES)
    def test_builtin_rates_and_random_operators(self, name, n):
        # pauli's algebra is every operator; the others' is not
        sc = scenario(name, n)
        rates = [rate for prof in sc.profiles.values() for _, rate in prof.segments]
        X = np.array(rates + [random_hermitian(sc.rep.dimension,
                                               np.random.default_rng(0))])
        basis = algebra_basis(sc.rep)
        want = np.array([subspace_distance(x, basis) for x in X])
        got = group_theory._algebra_distance(sc.rep, X)
        assert np.abs(got - want).max() <= 1e-12
        assert in_algebra(sc.rep, X).tolist() == [True] * len(rates) + [
            name == "pauli"]


class TestStackedRep:
    """pi_G and the twisted class sums read the one (|G|, d, d) element
    stack; decompose_irreps is computed once per representation."""

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

    @pytest.mark.parametrize("name,n", [
        ("carr-purcell", None), ("pauli", 2), ("spin-flip", 3),
        ("symmetric-s3", None)])
    def test_matrices_are_one_read_only_stack(self, name, n):
        sc = get_scenario(name, n)
        mats = sc.rep.matrices
        assert isinstance(mats, np.ndarray) and mats.dtype == complex
        assert mats.shape == (sc.group.order, sc.rep.dimension, sc.rep.dimension)
        assert not mats.flags.writeable
        with pytest.raises(ValueError):
            mats[0, 0, 0] = 2.0

    def test_cached_arrays_are_read_only_and_shared(self):
        rep = get_scenario("symmetric-s3", None).rep
        dec = decompose_irreps(rep)
        assert decompose_irreps(rep) is dec
        arrays = [rep.matrices, *(b.columns for b in dec.blocks)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            dec.blocks[0].columns[0, 0] = 1.0

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


def f_map(profiles, X):
    """The generator-set map F_Γ: u_c†(s) X u_c(s) averaged over the
    sub-interval and over the generators' profiles, of X or of each X of an
    (n, d, d) stack; an Eulerian cycle averages it to pi_G∘F_Γ."""
    X = np.asarray(X, dtype=complex)
    return (sum(dynamics._sub_interval_integral(p, X) for p in profiles.values())
            / len(profiles))


def blockwise(op, H0, d):
    """The operator on S ⊗ E whose d×d blocks are ``op`` of the blocks
    H0_kl of H0 = Σ_kl H0_kl ⊗ |k⟩⟨l|, one block per call."""
    de = H0.shape[0] // d
    blocks = H0.reshape(d, de, d, de).transpose(1, 3, 0, 2).reshape(-1, d, d)
    out = np.array([op(b) for b in blocks]).reshape(de, de, d, d)
    return out.transpose(2, 0, 3, 1).reshape(d * de, d * de)


class TestEulerianIdentities:
    """The paper's identities on random monomial groups: the Eulerian cycle
    has length |G|·|Γ|; q_map = pi_G for in-algebra profiles, whose
    residual of an in-algebra fault lies in the center; and the first-order
    average Hamiltonian, read from the walk, is pi_G(F_Γ(H0)) for any
    profiles, on S and, block by block, on S ⊗ E."""

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.lists(segment_plans(), min_size=2, max_size=2),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
    def test_cycle_and_first_order_identities(self, gens, plans, seed, env_dim):
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        path = eulerian_cycle(group)
        ok, diag = validate_path(group, path.colors)
        assert ok, diag
        assert len(path) == group.order * len(group.generators)

        # rates are real multiples of the generator's Hermitian logarithm
        profiles = {}
        for c, gen in enumerate(group.generators):
            H = hermitian_log(rep.matrices[gen])
            profiles[c] = piecewise_profile(gen, rep,
                                            [(f, w * H) for f, w in plans[c]])
            assert all(in_algebra(rep, rate) for _, rate in profiles[c].segments)
        rng = np.random.default_rng(seed)
        d = rep.dimension
        X, H0 = random_hermitian(d, rng), random_hermitian(d, rng)
        joint = random_hermitian(d * env_dim, rng)
        sched = eulerian_schedule(path, profiles, rep)
        assert np.linalg.norm(q_map(sched, X) - pi_G(rep, X)) <= 1e-9
        for frame, v in zip(sched.stroboscopic_frames(), path.vertices):
            assert equal_up_to_phase(frame, rep.matrices[v], 1e-9)
        assert np.linalg.norm(average_hamiltonian(sched, H0)
                              - pi_G(rep, f_map(profiles, H0))) <= 1e-10
        assert np.linalg.norm(
            average_hamiltonian(sched, joint)
            - blockwise(lambda b: pi_G(rep, f_map(profiles, b)), joint, d)) <= 1e-10

        # a fault in the group algebra leaves a residual in the center; its
        # half segments split each pulse on the fault's grid
        deltas = {}
        for c in profiles:
            z = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
            M = np.tensordot(z, rep.matrices, axes=1)
            delta = 0.1 * (M + M.conj().T) / 2
            deltas[c] = [(0.5, delta), (0.5, -delta)]
        res = residual_error(apply_fault(sched, deltas))
        assert (subspace_distance(res, center_basis(rep))
                <= 1e-10 * max(np.linalg.norm(res), 1.0))

        # a two-segment profile whose first segment is a random rotation
        gen = group.generators[0]
        A = random_hermitian(d, rng)
        back = hermitian_log(rep.matrices[gen] @ _expm_herm(A, -1.0))
        profiles[0] = piecewise_profile(gen, rep, [(0.5, 2 * A), (0.5, 2 * back)])
        sched = eulerian_schedule(path, profiles, rep)
        assert np.linalg.norm(average_hamiltonian(sched, H0)
                              - pi_G(rep, f_map(profiles, H0))) <= 1e-10
        assert np.linalg.norm(
            average_hamiltonian(sched, joint)
            - blockwise(lambda b: pi_G(rep, f_map(profiles, b)), joint, d)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
    def test_bangbang_frames_and_average(self, gens, seed, env_dim):
        """Kicks after free steps put sub-interval l in the frame g_l, close
        at the identity, and average any H0 to pi_G(H0), on S ⊗ E block by
        block."""
        try:
            group, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                     max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assume(group.order > 1)
        frames = bangbang_schedule(group, rep).stroboscopic_frames()
        assert len(frames) == group.order + 1
        for frame, g in zip(frames, rep.matrices):
            assert np.linalg.norm(frame - g) <= 1e-12
        assert np.linalg.norm(frames[-1] - np.eye(rep.dimension)) <= 1e-12
        rng = np.random.default_rng(seed)
        H0 = random_hermitian(rep.dimension, rng)
        avg = average_hamiltonian(bangbang_schedule(group, rep), H0)
        assert np.linalg.norm(avg - pi_G(rep, H0)) <= 1e-10
        joint = random_hermitian(rep.dimension * env_dim, rng)
        avg = average_hamiltonian(bangbang_schedule(group, rep), joint)
        assert np.linalg.norm(avg - blockwise(functools.partial(pi_G, rep), joint,
                                              rep.dimension)) <= 1e-10


def assert_stack_matches_per_operator(rep, profiles, sched, X):
    """f_map, q_map (on the schedule ``sched``, unless it is None) and pi_G
    of the (n, d, d) stack X equal, bit for bit, the stack of their values
    at each operator of X."""
    for quantity in (functools.partial(f_map, profiles),
                     *([functools.partial(q_map, sched)] if sched else []),
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
        assert_stack_matches_per_operator(sc.rep, sc.profiles, sc.schedule(), X)
        assert_stack_matches_per_operator(sc.rep, sc.profiles, sc.schedule(), X[:1])

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
        # the trivial group has no Eulerian cycle to pulse
        sched = (eulerian_schedule(eulerian_cycle(group), profiles, rep)
                 if group.order > 1 else None)
        assert_stack_matches_per_operator(rep, profiles, sched, X)

    def test_shape_checked_on_the_last_two_axes(self):
        sc = get_scenario("carr-purcell", None)
        for X in (np.zeros((3, 2, 3)), np.zeros((3, 4, 4)), np.zeros(2)):
            with pytest.raises(ShapeError):
                pi_G(sc.rep, X)
            with pytest.raises(ShapeError):
                q_map(sc.schedule(), X)

    def test_empty_stack_gives_an_empty_stack(self):
        sc = get_scenario("pauli", 1)
        assert pi_G(sc.rep, np.zeros((0, 2, 2))).shape == (0, 2, 2)


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


def random_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


def pi_G_per_operator(rep, X):
    """loop_pi_G of each operator of an (n, d, d) stack."""
    return np.array([loop_pi_G(rep, x) for x in X])


class TestMonomialGather:
    """A monomial representation averages by a phased gather of X, a dense
    one by products; both add the terms in element order."""

    @pytest.mark.parametrize("name,n", [
        ("carr-purcell", None), ("pauli", 1), ("pauli", 3), ("pauli", 4),
        ("spin-flip", 2), ("spin-flip", 5), ("symmetric-s3", None)])
    def test_builtins_equal_the_products_bit_for_bit(self, name, n):
        rep = scenario(name, n).rep
        rows, phases = rep.monomial()
        mats = rep.matrices
        rebuilt = np.zeros_like(mats)
        for j, m in enumerate(rebuilt):
            m[rows[j], np.arange(rep.dimension)] = phases[j]
        assert np.array_equal(rebuilt, mats)
        X = random_stack(rep.dimension, 3, 0)
        assert np.array_equal(pi_G(rep, X[0]), loop_pi_G(rep, X[0]))
        assert np.array_equal(pi_G(rep, X), pi_G_per_operator(rep, X))
        # the center's twisted class sums average (up to 16 of) the elements
        assert np.array_equal(pi_G(rep, mats[:16]),
                              pi_G_per_operator(rep, mats[:16]))

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_random_monomial_groups_match_the_products(self, gens, n, seed):
        try:
            _, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                 max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assert rep.monomial() is not None
        X = random_stack(rep.dimension, n, seed)
        want = pi_G_per_operator(rep, X)
        assert np.linalg.norm(pi_G(rep, X) - want) <= 1e-15 * np.linalg.norm(X)

    @pytest.mark.parametrize("gens", [
        conjugated(pauli_generators(1), 3), conjugated(pauli_generators(2), 5),
        conjugated(spin_flip_generators(3), 7)],
        ids=["pauli-1", "pauli-2", "spin-flip-3"])
    def test_conjugated_reps_stay_dense(self, gens):
        _, rep = close_group(gens)
        assert rep.monomial() is None
        # 20 operators at d = 4 split |G| = 16 into blocks of 12 and 4
        X = random_stack(rep.dimension, 20, 1)
        want = pi_G_per_operator(rep, X)
        assert np.linalg.norm(pi_G(rep, X) - want) <= 1e-13 * np.linalg.norm(X)

    def test_one_tiny_extra_entry_is_not_monomial(self):
        assert close_group([SX])[1].monomial() is not None
        g = SX.copy()
        g[0, 0] = 1e-300
        _, rep = close_group([g])
        assert rep.group.order == 2 and rep.monomial() is None
        X = random_stack(2, 1, 2)[0]
        assert np.array_equal(pi_G(rep, X), loop_pi_G(rep, X))

    def test_temporaries_stay_bounded(self):
        # pauli n=4: the (|G|, n, d, d) products of 20 operators are 20 MiB
        rep = scenario("pauli", 4).rep
        X = random_stack(rep.dimension, 20, 3)
        pi_G(rep, X[0])     # builds the cached monomial arrays
        tracemalloc.start()
        try:
            pi_G(rep, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_first_dense_average_copies_no_stack(self):
        # |G| = 256, d = 16: one copy of the element stack is 1 MiB; the
        # first call builds the (empty) monomial cache and forms each
        # block's adjoints within MAX_STACK_BYTES
        _, rep = close_group(conjugated(pauli_generators(4), 11))
        X = random_stack(rep.dimension, 1, 4)[0]
        tracemalloc.start()
        try:
            pi_G(rep, X)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.group.order == 256 and rep.monomial() is None
        assert peak < 2 ** 19
        assert retained < 0.1 * 2 ** 20


class TestMonomialAverage:
    """pi_G of a Monomial: gathers of its d entries under a monomial
    representation, a Monomial of its rows when every conjugate keeps them,
    and the average of its dense array otherwise."""

    @settings(max_examples=60, deadline=None)
    @given(pauli_pairs(), st.sampled_from(["pauli", "spin-flip"]))
    def test_pauli_groups_keep_the_rows(self, S, name):
        rep = scenario(name, int(np.log2(S.shape[0]))).rep
        got = pi_G(rep, S)
        assert isinstance(got, Monomial)
        assert np.array_equal(got.rows, S.rows)
        assert np.abs(got.dense() - pi_G(rep, S.dense())).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(monomial_groups(), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_any_group_equals_the_dense_average(self, gens, data, seed):
        mats = [_monomial(p, s, ph[0]) for p, s, ph in gens]
        for generators in (mats, conjugated(mats, seed)):
            try:
                _, rep = close_group(generators, max_order=PROPERTY_MAX_ORDER)
            except GroupClosureError:
                assume(False)
            S = data.draw(hermitian_monomials(rep.dimension))
            got = pi_G(rep, S)
            if rep.monomial() is None:
                assert not isinstance(got, Monomial)
            assert np.abs(dense(got) - pi_G(rep, S.dense())).max() <= 1e-15

    def test_builtin_noise_is_averaged_without_a_dense_array(self, monkeypatch):
        # no Pauli-string noise generator is densified, and no d x d array
        # is formed: the conjugation_sum of a dense operator is refused
        def refused(*args, **kwargs):
            raise AssertionError("dense average")
        built = [scenario(name, n) for name, n in
                 (("carr-purcell", None), ("pauli", 3), ("spin-flip", 5))]
        monkeypatch.setattr(group_theory, "conjugation_sum", refused)
        monkeypatch.setattr(Monomial, "dense", refused)
        for sc in built:
            for _, S in sc.noise_generators:
                assert pi_G(sc.rep, S).norm() == 0.0

    def test_wrong_dimension_is_a_shape_error(self):
        S = analysis._pauli_string("xz")
        with pytest.raises(ShapeError, match="^shape error"):
            pi_G(scenario("pauli", 1).rep, S)


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
            validate_group(group)
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
        V = np.hstack([b.columns for b in dec.blocks])
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


HADAMARD = (SX + SZ) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])
BUILTIN_CASES = [("carr-purcell", None), ("pauli", 1), ("pauli", 2),
                 ("pauli", 3), ("spin-flip", 2), ("spin-flip", 5),
                 ("symmetric-s3", None)]


def dense_conjugates(rep, X):
    """g_j† X g_j for every element j, by products: a (..., |G|, d, d) stack."""
    mats = rep.matrices
    return mats.conj().transpose(0, 2, 1) @ X[..., None, :, :] @ mats


def dense_commutator_norms(rep, X):
    """|X g - g X| (Frobenius) for every element g, by products."""
    mats = rep.matrices
    Xs = X[..., None, :, :]
    return np.linalg.norm(Xs @ mats - mats @ Xs, axis=(-2, -1))


def assert_close_relative(got, want, rtol, scale=0.0):
    """got = want within rtol times the larger of |want| and ``scale``: for
    norms of commutators that vanish, the scale of their operators."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * max(np.abs(want).max(), scale, 1e-300)


def assert_norms_match(rep, ops):
    assert_close_relative(group_theory.commutator_norms(rep, ops),
                          dense_commutator_norms(rep, ops), 1e-12,
                          np.abs(ops).max())


def conjugate_stack(rep, X, elements=None):
    return np.concatenate(list(group_theory.conjugates(rep, X, elements)), axis=-3)


class TestGatherPlan:
    """A monomial representation caches one gather plan, which conjugates,
    group averages and commutator norms share; other representations keep
    dense products."""

    def test_plan_is_cached_and_read_only(self):
        rep = scenario("pauli", 2).rep
        index, phase = rep.gather_plan()
        assert rep.gather_plan()[0] is index
        assert index.dtype == np.int32 and index.shape == (16, 16)
        assert phase.shape == (16, 16) and not index.flags.writeable
        assert not phase.flags.writeable
        d = rep.dimension
        for j, g in enumerate(rep.matrices):
            X = random_stack(d, 1, j)[0]
            term = (phase[j] * X.ravel()[index[j]]).reshape(d, d)
            assert np.array_equal(term, g.conj().T @ X @ g)

    @pytest.mark.parametrize("name,n", BUILTIN_CASES)
    def test_builtin_conjugates_and_norms_equal_the_products(self, name, n):
        rep = scenario(name, n).rep
        d = rep.dimension
        rng = np.random.default_rng(5)
        X = np.array([random_hermitian(d, rng) for _ in range(3)])
        commuting = pi_G(rep, X)
        assert_close_relative(conjugate_stack(rep, X), dense_conjugates(rep, X),
                              1e-12)
        for ops in (X, commuting, X[0]):
            assert_norms_match(rep, ops)
        # a random X is far from the commutant, pi_G(X) within rounding of it
        assert group_theory.commutator_norms(rep, X).max() > 0.1
        assert group_theory.commutator_norms(rep, commuting).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(monomial_groups(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_random_monomial_groups_equal_the_products(self, gens, n, seed):
        try:
            _, rep = close_group([_monomial(p, s, ph[0]) for p, s, ph in gens],
                                 max_order=PROPERTY_MAX_ORDER)
        except GroupClosureError:
            assume(False)
        assert rep.gather_plan() is not None
        X = random_stack(rep.dimension, n, seed)
        X = X + X.conj().transpose(0, 2, 1)
        assert_close_relative(conjugate_stack(rep, X), dense_conjugates(rep, X),
                              1e-12)
        for ops in (X, pi_G(rep, X)):
            assert_norms_match(rep, ops)

    def test_chosen_elements_in_order_with_repeats(self):
        rep = scenario("pauli", 2).rep
        X = random_stack(4, 2, 9)
        elements = np.array([3, 0, 3, 15, 7])
        want = dense_conjugates(rep, X)[:, elements]
        assert_close_relative(conjugate_stack(rep, X, elements), want, 1e-15)
        got = group_theory.conjugation_sum(rep, X, elements)
        assert_close_relative(got, want.sum(axis=1), 1e-14)

    @pytest.mark.parametrize("name,n,ops", [("pauli", 4, 16), ("spin-flip", 5, 3),
                                            ("spin-flip", 6, 1)])
    def test_blocks_fit_the_budget(self, name, n, ops):
        rep = scenario(name, n).rep
        X = random_stack(rep.dimension, ops, 2)
        blocks = list(group_theory.conjugates(rep, X))
        assert sum(b.shape[-3] for b in blocks) == rep.group.order
        for b in blocks:
            assert b.shape[-3] == 1 or b.nbytes <= group_theory.MAX_STACK_BYTES

    @pytest.mark.parametrize("gens", [
        [HADAMARD], conjugated(pauli_generators(2), 5),
        conjugated(spin_flip_generators(3), 7)],
        ids=["hadamard", "conjugated-pauli-2", "conjugated-spin-flip-3"])
    def test_dense_reps_keep_products(self, gens, monkeypatch):
        _, rep = close_group(gens)
        assert rep.monomial() is None and rep.gather_plan() is None
        X = random_stack(rep.dimension, 3, 4)
        X = X + X.conj().transpose(0, 2, 1)
        commuting = pi_G(rep, X)
        # np.take is the gather; products never call it
        monkeypatch.setattr(np, "take", lambda *a, **k: pytest.fail("gathered"))
        assert_close_relative(conjugate_stack(rep, X), dense_conjugates(rep, X),
                              1e-12)
        for ops in (X, commuting):
            assert_norms_match(rep, ops)

    def test_monomial_reps_gather(self, monkeypatch):
        rep = scenario("pauli", 2).rep
        calls = []
        real = np.take
        monkeypatch.setattr(np, "take", lambda *a, **k: calls.append(1) or real(*a, **k))
        group_theory.commutator_norms(rep, random_stack(4, 2, 1))
        assert calls == [1]


class TestKeyedClosure:
    """Monomial generators close by keys of their rows and phases, with the
    dense closure's elements, order and table."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        for name in ("_keyed_walk", "_dense_walk"):
            real = getattr(group_theory, name)
            monkeypatch.setattr(group_theory, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        return calls

    @pytest.mark.parametrize("gens,order", [
        ([T_GATE, SZ], 8), ([T_GATE, SX], 16), (pauli_generators(3), 64),
        (spin_flip_generators(4), 4)], ids=["t-gate", "t-gate-x", "pauli-3",
                                           "spin-flip-4"])
    def test_monomial_generators_take_the_keyed_walk(self, gens, order, walks):
        assert_same_closure(gens, 512)
        walks.clear()
        group, rep = close_group(gens)
        assert group.order == order and rep.monomial() is not None
        assert walks == ["_keyed_walk"]

    def test_conjugated_generators_take_the_dense_walk(self, walks):
        close_group(conjugated(pauli_generators(2), 5))
        assert walks == ["_dense_walk"]

    def test_copy_across_a_grid_step_is_found(self, walks):
        # [[0, w], [1, 0]] squares to w I, so it has order 2 for any unit w;
        # two copies 2e-13 apart straddle a rounding step of the key grid
        step = 1.0 / group_theory._KEY_SCALE
        re = (round(0.6 / step) + 0.5) * step

        def flip(re):
            return np.array([[0, complex(re, np.sqrt(1 - re * re))], [1, 0]])

        a, b = flip(re + 1e-13), flip(re - 1e-13)
        keys = group_theory._monomial_keys(*group_theory._monomial_parts(np.array([a, b])))
        assert keys[0] != keys[1] and equal_up_to_phase(a, b)
        assert_same_closure([a, b, SZ], 512)
        walks.clear()
        group, _ = close_group([a, b, SZ])
        assert walks == ["_keyed_walk"] and group.order == 4

    def test_an_unconfirmed_hit_falls_back_to_the_dense_walk(self, walks):
        # phases 1e-8 apart share a key but are distinct elements
        g = np.diag([1.0, np.exp(1e-8j)])
        assert_same_closure([g], 8)
        walks.clear()
        with pytest.raises(GroupClosureError):
            close_group([g], max_order=8)
        assert walks == ["_keyed_walk", "_dense_walk"]

    def test_pauli_5_closes(self):
        group, rep = close_group(pauli_generators(5), max_order=4 ** 5 + 1)
        assert group.order == 1024 and rep.monomial() is not None
        # the table agrees with direct products on a sample of rows
        d = rep.dimension
        for i in (1, 17, 513, 1023):
            prods = rep.matrices[i] @ rep.matrices
            overlap = np.einsum("kab,kab->k",
                                rep.matrices[group.mult_table[i]].conj(), prods)
            assert np.abs(overlap).min() >= d * (1 - 1e-10)
