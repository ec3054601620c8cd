"""Finite groups, their unitary (projective) matrix representations, and the
algebraic structure used by decoupling: group-average projector, commutant,
center, and irreducible block decomposition.

All equality tests between represented elements are "equal up to a global
phase", by the distance after the optimal phase (``phase_distance``); stored
elements have their phase fixed by the entry of largest modulus, so no
explicit factor system is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_PHASE_TOL = 1e-10
HERMITIAN_TOL = 1e-10
# relative eigenvalue gap that separates the clusters of decompose_irreps
CLUSTER_TOL = 1e-8


class GroupClosureError(ValueError):
    """Closure of the generator set did not terminate within the cap."""


class InvalidGeneratorError(ValueError):
    """A supplied generator matrix is not unitary."""


class ShapeError(ValueError):
    """Operator dimension does not match the representation."""


class ResourceLimitError(ValueError):
    """A computation would allocate more memory than its fixed budget."""


class DegenerateDecompositionError(RuntimeError):
    """Eigenvalue clustering was ambiguous at the requested tolerance."""


def fix_phase(m: np.ndarray) -> np.ndarray:
    """Normalize the global phase of a matrix by its largest-modulus entry.

    The entry of largest modulus (first in row-major order on ties, up to a
    small relative slack) is rotated to be real positive; an all-zero matrix
    is returned unchanged.
    """
    m = np.asarray(m)
    flat = m.ravel()
    mods = np.abs(flat)
    top = mods.max()
    if top == 0.0:
        return m.copy()
    pick = flat[np.argmax(mods >= top * (1.0 - 1e-9))]
    # hypot, not np.abs: it rounds as the scalar abs() of one entry does
    return m / (pick / np.hypot(pick.real, pick.imag))


def align_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return b multiplied by the unit phase maximizing |tr(a† b)| overlap."""
    ov = np.trace(a.conj().T @ b)
    if abs(ov) < 1e-300:
        return b
    return b * (ov.conjugate() / abs(ov))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance after optimal global-phase alignment."""
    return float(np.linalg.norm(a - align_phase(a, b)))


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_PHASE_TOL) -> bool:
    """``phase_distance(a, b)`` within ``tol`` times max(|a|, 1)."""
    return a.shape == b.shape and phase_distance(a, b) <= tol * max(np.linalg.norm(a), 1.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so that no caller can change it for
    the others that share it."""
    a.setflags(write=False)
    return a


def is_unitary(m: np.ndarray, tol: float = DEFAULT_PHASE_TOL) -> bool:
    d = m.shape[0]
    return m.shape == (d, d) and np.linalg.norm(m.conj().T @ m - np.eye(d)) <= tol * d


def is_hermitian(m: np.ndarray) -> bool:
    """|m - m†| within HERMITIAN_TOL times max(|m|, 1) (Frobenius norms)."""
    return np.linalg.norm(m - m.conj().T) <= HERMITIAN_TOL * max(np.linalg.norm(m), 1.0)


@dataclass(frozen=True)
class Group:
    """Abstract finite group: element list, multiplication table, generators.

    Element 0 is the identity.  ``mult_table[i, j]`` is the index of
    g_i * g_j.  ``generators`` are indices into ``elements``.
    """

    elements: tuple
    mult_table: np.ndarray
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def multiply(self, i: int, j: int) -> int:
        return int(self.mult_table[i, j])

    def validate(self) -> None:
        n = self.order
        t = self.mult_table
        if t.shape != (n, n):
            raise ValueError("mult_table shape does not match element count")
        for i in range(n):
            if t[0, i] != i or t[i, 0] != i:
                raise ValueError("element 0 is not the identity")
            if sorted(t[i]) != list(range(n)) or sorted(t[:, i]) != list(range(n)):
                raise ValueError("mult_table rows/columns are not permutations")
            if 0 not in t[i]:
                raise ValueError(f"element {i} has no inverse")
        # associativity by brute force (desk-scale groups only)
        for i in range(n):
            for j in range(n):
                tij = t[i, j]
                if not np.array_equal(t[tij], t[i][t[j]]):
                    raise ValueError("mult_table is not associative")
        if self.generated_subgroup(self.generators) != set(range(n)):
            raise ValueError("generators do not generate the group")

    def generated_subgroup(self, gens) -> set:
        closure = {0}
        frontier = list(gens)
        while frontier:
            nxt = []
            for g in frontier:
                for h in list(closure):
                    for p in (self.multiply(g, h), self.multiply(h, g)):
                        if p not in closure:
                            closure.add(p)
                            nxt.append(p)
                if g not in closure:
                    closure.add(g)
                    nxt.append(g)
            frontier = nxt
        return closure


@dataclass
class UnitaryRep:
    """Unitary projective representation: one matrix per group element."""

    group: Group
    matrices: list
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]

    def validate(self) -> None:
        d = self.dimension
        if len(self.matrices) != self.group.order:
            raise ValueError("one matrix per group element required")
        if not equal_up_to_phase(self.matrices[0], np.eye(d)):
            raise ValueError("element 0 must be represented by the identity")
        for k, m in enumerate(self.matrices):
            if not is_unitary(m):
                raise ValueError(f"matrix {k} is not unitary")
        for i, mi in enumerate(self.matrices):
            for j, mj in enumerate(self.matrices):
                k = self.group.multiply(i, j)
                if not equal_up_to_phase(mi @ mj, self.matrices[k]):
                    raise ValueError("matrices are not a projective homomorphism")
                if i < j and equal_up_to_phase(mi, mj):
                    raise ValueError("representation is not faithful up to phase")

    def _cached(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept for
        the representation's lifetime; later calls return the same object."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def stacked(self) -> tuple:
        """(|G|, d, d) read-only stacks of the matrices and of their
        adjoints, in element order, built once."""
        def build():
            mats = np.array(self.matrices, dtype=complex)
            adjs = np.ascontiguousarray(mats.conj().transpose(0, 2, 1))
            return _read_only(mats), _read_only(adjs)
        return self._cached("stack", build)

    def algebra_basis(self) -> np.ndarray:
        """Orthonormal (Hilbert-Schmidt) basis of span{g_j}, as a read-only
        (k, d, d) stack built once."""
        return self._cached("algebra", lambda: _orthonormal_span(self.matrices))


def subspace_distance(X: np.ndarray, basis) -> float:
    """Hilbert-Schmidt distance of X from the span of an orthonormal matrix
    basis (a (k, d, d) stack or a sequence of d x d matrices); |X| for an
    empty basis.  The vector, not the basis, is conjugated: conj(B conj(v))
    has the bits of conj(B) v without a conjugated copy of the basis."""
    if len(basis) == 0:
        return float(np.linalg.norm(X))
    B = np.reshape(basis, (len(basis), -1))
    v = X.ravel()
    return float(np.linalg.norm(v - B.T @ np.conj(B @ np.conj(v))))


def _orthonormal_span(mats, tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize matrices in the Hilbert-Schmidt inner product; a
    read-only (rank, d, d) stack."""
    d = mats[0].shape[0]
    stack = np.asarray(mats).reshape(len(mats), d * d)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size else 0
    return _read_only(vh[:rank].reshape(rank, d, d))


def close_group(generator_matrices, max_order: int = 512) -> tuple:
    """Build the abstract group generated by unitary matrices, up to phase.

    Returns (Group, UnitaryRep).  Element 0 is the identity's phase class;
    the others follow in breadth-first order of generator products and are
    stored phase-fixed (``fix_phase``).  Two matrices are one element when
    ``equal_up_to_phase(stored, product)`` holds.

    Each product gens[c] @ e_i of the breadth-first loop is compared by
    ``equal_up_to_phase`` with one stored element only: the e maximizing
    |tr(e† product)|, from one matrix-vector product with the stack of the
    conjugated, flattened stored elements.  For unitary d x d matrices a
    product within the tolerance of a stored e has |tr(e† product)| >=
    d (1 - DEFAULT_PHASE_TOL), so the result equals a linear scan's unless two
    stored elements e, e' are nearly equal up to phase: |tr(e† e')| >=
    d (1 - 2 DEFAULT_PHASE_TOL).

    The multiplication table needs no further products: if e_i was found as
    gens[c] @ e_p, row i is the action of gens[c] applied to row p.  One
    lookup costs O(|G| d^2) against a hash's O(d^2), but the O(|G|^2 d^3)
    products of a table filled by lookups are gone, so the total,
    O(|Gamma| |G|^2 d^2) for |Gamma| generators, is smaller whenever
    d >= |Gamma|.

    Raises GroupClosureError if the closure exceeds ``max_order`` elements.
    """
    gens = [np.asarray(g, dtype=complex) for g in generator_matrices]
    if not gens:
        raise InvalidGeneratorError("invalid generator: empty generator list")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d) or not is_unitary(g):
            raise InvalidGeneratorError("invalid generator: non-unitary input")

    elements = []
    parent = []   # (c, p) when element i was found as gens[c] @ elements[p]
    # conj(e).ravel() of each stored e; rows past len(elements) are spare
    conj = np.empty((8, d * d), dtype=complex)

    def add(m, origin):
        nonlocal conj
        k = len(elements)
        if k == len(conj):
            conj = np.concatenate([conj, np.empty_like(conj)])
        conj[k] = m.conj().ravel()
        elements.append(m)
        parent.append(origin)
        return k

    def find(m):
        k = int(np.argmax(np.abs(conj[:len(elements)] @ m.ravel())))
        return k if equal_up_to_phase(elements[k], m) else -1

    add(np.eye(d, dtype=complex), None)
    gen_indices = []
    for c, g in enumerate(gens):
        k = find(g)
        if k < 0:
            k = add(fix_phase(g), (c, 0))
        if k not in gen_indices and k != 0:
            gen_indices.append(k)
        elif k == 0 and len(gens) == 1:
            gen_indices.append(0)

    act = []   # act[i][c]: index of gens[c] @ elements[i]
    for i, e in enumerate(elements):   # grows while it is walked
        row = []
        for c, g in enumerate(gens):
            prod = g @ e
            k = find(prod)
            if k < 0:
                if len(elements) >= max_order:
                    raise GroupClosureError("group too large or not closed")
                k = add(fix_phase(prod), (c, i))
            row.append(k)
        act.append(row)

    n = len(elements)
    act = np.array(act).T
    table = np.empty((n, n), dtype=int)
    table[0] = np.arange(n)
    for i in range(1, n):
        c, p = parent[i]
        table[i] = act[c, table[p]]

    if not gen_indices:
        gen_indices = [0]
    group = Group(elements=tuple(f"g{k}" for k in range(n)),
                  mult_table=table, generators=tuple(gen_indices))
    rep = UnitaryRep(group=group, matrices=elements)
    return group, rep


def _average(mats: np.ndarray, adjs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(1/n) sum_j g_j† X g_j over a stack of n matrices and their adjoints,
    for one d x d X or for each X of an (m, d, d) stack; each term is formed
    as (g_j† X) g_j and the terms are summed in stack order."""
    return ((adjs @ X[..., None, :, :]) @ mats).sum(axis=-3) / len(mats)


def pi_G(rep: UnitaryRep, X: np.ndarray) -> np.ndarray:
    """Group-average projector onto the commutant:
    (1/|G|) sum_j g_j† X g_j, of one operator or of each operator of an
    (n, d, d) stack."""
    X = np.asarray(X, dtype=complex)
    d = rep.dimension
    if X.shape[-2:] != (d, d):
        raise ShapeError("shape error: operator does not match representation dimension")
    return _average(*rep.stacked(), X)


# Budget for the d^2 x d^2 complex arrays (16 d^4 bytes each) that
# commutant_basis holds at once: the Gram matrix, eigh's copy of it, the
# eigenvectors and two workspaces (peak RSS measured at 4.6-4.9 arrays for
# d = 16, 32).  d = 64 (1.25 GiB) fits; d = 128 (20 GiB) would exhaust the
# machine.
MAX_COMMUTANT_BYTES = 2 * 1024 ** 3
_COMMUTANT_ARRAYS = 5


def commutant_basis(rep: UnitaryRep, tol: float = 1e-10) -> list:
    """Orthonormal basis of {X : X g = g X for all g in G}.

    The commutant of G is the commutant of its generators, so this is the
    null space of the Gram matrix sum_γ M_γ† M_γ with M_γ = γ ⊗ I - I ⊗ γ^T
    (row-major vec), taken with ``eigh``: eigenvalues at most ``tol`` times
    the largest.  For unitary γ, M_γ† M_γ = 2I - K - K† with K = γ ⊗ conj(γ).

    This costs O(d^6) time and 16 d^4 bytes per d^2 x d^2 array; the
    verification path never calls it (``pi_G`` is the orthogonal projector
    onto the same space).  Raises ResourceLimitError, before allocating,
    when the arrays would exceed MAX_COMMUTANT_BYTES.
    """
    d = rep.dimension
    need = _COMMUTANT_ARRAYS * 16 * d ** 4
    if need > MAX_COMMUTANT_BYTES:
        raise ResourceLimitError(
            f"resource limit: commutant_basis at d={d} needs about "
            f"{need / 2 ** 30:.1f} GiB (limit {MAX_COMMUTANT_BYTES / 2 ** 30:.1f} GiB)")
    gram = np.zeros((d * d, d * d), dtype=complex)
    for k in rep.group.generators:
        g = rep.matrices[k]
        gram -= np.kron(g, g.conj())
    gram += gram.conj().T
    gram[np.diag_indices(d * d)] += 2.0 * len(rep.group.generators)
    evals, evecs = np.linalg.eigh(gram)
    null = evals <= tol * max(evals[-1], 1.0)
    return [evecs[:, k].reshape(d, d) for k in np.flatnonzero(null)]


def center_basis(rep: UnitaryRep) -> np.ndarray:
    """Orthonormal basis of the center: group algebra ∩ commutant.

    Spanned by the twisted class sums pi_G(g), g in G: pi_G maps span{g}
    into itself (h† g h is a phase times an element) and fixes every
    element of the commutant, so its image of the algebra is exactly the
    algebra ∩ commutant.  Costs |G|^2 products of d x d matrices and an
    SVD of a |G| x d^2 stack, once per representation; the basis is a
    read-only (k, d, d) stack shared by later calls.
    """
    return rep._cached("center", lambda: _center_basis(rep))


def _center_basis(rep: UnitaryRep) -> np.ndarray:
    mats, adjs = rep.stacked()
    return _orthonormal_span([_average(mats, adjs, g) for g in mats])


@dataclass(frozen=True)
class IrrepBlock:
    label: int
    multiplicity: int      # n_J: commutant acts as Mat(n_J) ⊗ I
    dimension: int         # d_J: algebra acts as I ⊗ Mat(d_J)
    columns: np.ndarray    # d x (n_J * d_J) orthonormal columns spanning H_J


@dataclass(frozen=True)
class IrrepDecomposition:
    blocks: tuple
    basis_change: np.ndarray  # d x d unitary; columns ordered block by block

    def block_of(self, X: np.ndarray, block: IrrepBlock) -> np.ndarray:
        cols = block.columns
        return cols.conj().T @ X @ cols


def _block_norms(M: np.ndarray, starts) -> np.ndarray:
    """Frobenius norms of the blocks of a square matrix whose rows and
    columns are cut where the index ranges in ``starts`` begin."""
    sq = np.abs(M) ** 2
    return np.sqrt(np.add.reduceat(np.add.reduceat(sq, starts, axis=0),
                                   starts, axis=1))


def decompose_irreps(rep: UnitaryRep, seed: int = 0) -> IrrepDecomposition:
    """Numerically block-diagonalize the representation.

    Computed once per representation and ``seed``; later calls return the
    same decomposition, whose arrays are read-only.

    Draws a random Hermitian commutant element, clusters its eigenvalues,
    and stitches eigenspaces into isotypic blocks with a second random
    commutant element so that in the rotated basis the group algebra acts
    as I(n_J) ⊗ Mat(d_J) and the commutant as Mat(n_J) ⊗ I(d_J).

    Each random element is P + P† with P = pi_G(Z) for a seeded complex
    Gaussian d x d matrix Z.  pi_G is the orthogonal projector onto the
    commutant, so P has independent complex Gaussian coordinates in any
    orthonormal commutant basis; no basis is formed.
    """
    return rep._cached(("irreps", seed), lambda: _decompose_irreps(rep, seed))


def _decompose_irreps(rep: UnitaryRep, seed: int) -> IrrepDecomposition:
    d = rep.dimension
    rng = np.random.default_rng(seed)

    def twirled_hermitian():
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = pi_G(rep, z)
        return m + m.conj().T

    H = twirled_hermitian()
    evals, evecs = np.linalg.eigh(H)
    scale = max(np.abs(evals).max(), 1.0)

    # cluster eigenvalues: each cluster is one commutant eigenspace (dim d_J)
    gap_lo = CLUSTER_TOL * scale / 100.0
    clusters = []
    starts = []
    start = 0
    for k in range(1, d + 1):
        gap = evals[k] - evals[k - 1] if k < d else np.inf
        if gap_lo < gap <= CLUSTER_TOL * scale:
            raise DegenerateDecompositionError("degenerate decomposition; reseed")
        if gap > CLUSTER_TOL * scale:
            clusters.append(evecs[:, start:k])
            starts.append(start)
            start = k

    # connect eigenspaces belonging to the same isotypic component: a second
    # commutant element maps copies onto each other (block form N ⊗ I), so
    # clusters i, j are adjacent when block (i, j) of evecs† C2 evecs is not
    # negligible.
    C2 = twirled_hermitian()
    m = len(clusters)
    ov = _block_norms(evecs.conj().T @ C2 @ evecs, starts)
    adj = ov > 1e-8 * max(np.linalg.norm(C2), 1.0)
    adj |= adj.T

    # connected components
    comp_of = np.full(m, -1)
    comps = []
    for i in range(m):
        if comp_of[i] >= 0:
            continue
        stack, comp = [i], []
        while stack:
            v = stack.pop()
            if comp_of[v] >= 0:
                continue
            comp_of[v] = len(comps)
            comp.append(v)
            stack.extend(np.flatnonzero(adj[v] & (comp_of < 0)).tolist())
        comps.append(sorted(comp))

    raw_blocks = []
    for comp in comps:
        dims = {clusters[i].shape[1] for i in comp}
        if len(dims) != 1:
            raise DegenerateDecompositionError("degenerate decomposition; reseed")
        d_J = dims.pop()
        n_J = len(comp)
        ref = clusters[comp[0]]
        cols = [ref]
        for i in comp[1:]:
            # a commutant element restricted between copies is a scalar times
            # the canonical identification, so images of the reference basis
            # stay orthogonal; normalizing columns keeps the factor alignment
            # (the common phase is absorbed into the multiplicity factor).
            img = clusters[i] @ (clusters[i].conj().T @ C2 @ ref)
            norms = np.linalg.norm(img, axis=0)
            if norms.min() <= 1e-10 * max(norms.max(), 1.0):
                raise DegenerateDecompositionError("degenerate decomposition; reseed")
            cols.append(img / norms)
        raw_blocks.append((n_J, d_J, np.hstack(cols)))

    raw_blocks.sort(key=lambda b: (-b[1], -b[0]))
    blocks = []
    columns = []
    for label, (n_J, d_J, cols) in enumerate(raw_blocks):
        blocks.append(IrrepBlock(label=label, multiplicity=n_J,
                                 dimension=d_J, columns=_read_only(cols)))
        columns.append(cols)
    basis_change = _read_only(np.hstack(columns))
    return IrrepDecomposition(blocks=tuple(blocks), basis_change=basis_change)
