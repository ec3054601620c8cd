"""Finite groups, their unitary (projective) matrix representations, and the
algebraic structure used by decoupling: the group-average projector onto
the commutant, group-algebra membership and the irreducible blocks.

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
ALGEBRA_TOL = 1e-10
# relative eigenvalue gap that separates the clusters of decompose_irreps
CLUSTER_TOL = 1e-8


class GroupClosureError(ValueError):
    """Closure of the generator set did not terminate within the cap."""


class InvalidGeneratorError(ValueError):
    """A supplied generator matrix is not unitary."""


class ShapeError(ValueError):
    """Operator dimension does not match the representation."""


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
    ov = np.vdot(a, b)      # tr(a† b), without forming a† b
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


def _monomial_parts(mats: np.ndarray):
    """(rows, phases) of a (..., d, d) stack whose every column has exactly
    one entry != 0: rows[..., i] is the row of that entry in column i and
    phases[..., i] the entry.  None for any other stack."""
    nonzero = mats != 0
    if not (nonzero.sum(axis=-2) == 1).all():
        return None
    rows = nonzero.argmax(axis=-2)
    d = mats.shape[-1]
    flat = mats.reshape(-1, d * d)
    picks = rows.reshape(-1, d) * d + np.arange(d)
    return rows, flat[np.arange(len(flat))[:, None], picks].reshape(rows.shape)


@dataclass(frozen=True, eq=False)
class Monomial:
    """A d x d operator with one entry per column, kept as its read-only
    (rows, entries) pair: column c holds entries[c] in row rows[c] and is
    zero elsewhere.  A Pauli string is one (Aaronson & Gottesman, PRA 70,
    052328 (2004)), so it is checked, averaged and coupled in O(d) without
    its d x d array, which ``dense`` forms where a caller needs it.  Both
    arrays are copied; a ValueError unless they are two length-d arrays
    with rows in 0..d-1."""

    rows: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.intp)
        entries = np.array(self.entries, dtype=complex)
        d = len(rows)
        if (rows.shape != (d,) or entries.shape != (d,)
                or not ((0 <= rows) & (rows < d)).all()):
            raise ValueError("monomial: rows and entries must be two length-d "
                             "arrays, with rows in 0..d-1")
        object.__setattr__(self, "rows", _read_only(rows))
        object.__setattr__(self, "entries", _read_only(entries))

    @property
    def shape(self) -> tuple:
        return (len(self.rows),) * 2

    def dense(self) -> np.ndarray:
        """The d x d complex array, a new one at each call."""
        d = len(self.rows)
        out = np.zeros((d, d), dtype=complex)
        out[self.rows, np.arange(d)] = self.entries
        return out

    def norm(self) -> float:
        """The Frobenius norm, that of the entries."""
        return float(np.linalg.norm(self.entries))

    def trace(self) -> complex:
        """The sum of the entries in their own row (rows[c] = c), in order."""
        return self.entries[self.rows == np.arange(len(self.rows))].sum()

    def is_hermitian(self) -> bool:
        """rows an involution and |entries[rows] - conj(entries)| within
        HERMITIAN_TOL times max(|entries|, 1): ``is_hermitian`` of the dense
        array in O(d), on its row pattern, where the adjoint's column c is
        conj(entries[rows[c]]) in row rows[c].  Rows that are not an
        involution are refused, whatever their entries."""
        rows, e = self.rows, self.entries
        return bool((rows[rows] == np.arange(len(rows))).all()
                    and np.linalg.norm(e[rows] - e.conj())
                    <= HERMITIAN_TOL * max(self.norm(), 1.0))


def is_traceless(m) -> bool:
    """|tr m| within HERMITIAN_TOL times max(|m|, 1) (Frobenius norm), for a
    d x d array or, in O(d), a Monomial."""
    trace, norm = ((m.trace(), m.norm()) if isinstance(m, Monomial)
                   else (np.trace(m), np.linalg.norm(m)))
    return abs(trace) <= HERMITIAN_TOL * max(norm, 1.0)


def is_unitary(m: np.ndarray) -> bool:
    """|m† m - I| within DEFAULT_PHASE_TOL times d (Frobenius norm)."""
    d = m.shape[0]
    return (m.shape == (d, d)
            and np.linalg.norm(m.conj().T @ m - np.eye(d)) <= DEFAULT_PHASE_TOL * d)


def is_hermitian(m: np.ndarray) -> bool:
    """|m - m†| within HERMITIAN_TOL times max(|m|, 1) (Frobenius norms)."""
    return np.linalg.norm(m - m.conj().T) <= HERMITIAN_TOL * max(np.linalg.norm(m), 1.0)


@dataclass(frozen=True)
class Group:
    """Abstract finite group of elements 0..n-1: multiplication table and
    generators.

    Element 0 is the identity.  ``mult_table[i, j]`` is the index of
    g_i * g_j.  ``generators`` are element indices.
    """

    mult_table: np.ndarray
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.mult_table)


@dataclass
class UnitaryRep:
    """Unitary projective representation: ``matrices`` is the read-only
    (|G|, d, d) complex stack of the group's elements, in element order."""

    group: Group
    matrices: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[-1]

    def _cached(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept for
        the representation's lifetime; later calls return the same object."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def monomial(self):
        """For a monomial representation, (|G|, d) read-only arrays (rows,
        phases): rows[j, i] is the row of the one nonzero entry in column i
        of element j and phases[j, i] that entry, so that g_j† X g_j is the
        gather conj(phases[j, a]) X[rows[j, a], rows[j, b]] phases[j, b].
        None unless every column of every element has exactly one entry
        != 0.  Zero is exact zero: only then does the gather add up to the
        products.  Built once."""
        def build():
            parts = _monomial_parts(self.matrices)
            return None if parts is None else tuple(map(_read_only, parts))
        return self._cached("monomial", build)

    def gather_plan(self):
        """For a monomial representation, (|G|, d²) read-only arrays
        (index, phase) such that g_j† X g_j, flattened, is
        phase[j] * X.ravel()[index[j]]: index[j, a d + b] =
        rows[j, a] d + rows[j, b] (int32) and phase[j, a d + b] =
        conj(phases[j, a]) phases[j, b], for the (rows, phases) of
        ``monomial``.  None for any other representation.  20 |G| d²
        bytes, built once."""
        def build():
            mono = self.monomial()
            if mono is None:
                return None
            rows, phases = mono
            n, d = rows.shape
            rows = rows.astype(np.int32)
            index = (rows[:, :, None] * d + rows[:, None, :]).reshape(n, d * d)
            phase = (phases.conj()[:, :, None] * phases[:, None, :]).reshape(n, d * d)
            return _read_only(index), _read_only(phase)
        return self._cached("gather", build)


def in_algebra(rep: UnitaryRep, X: np.ndarray):
    """X, one d x d operator or each of an (n, d, d) stack, lies within
    ALGEBRA_TOL * max(|X|, 1) of span{g_j}, the group algebra (Frobenius)."""
    scale = np.maximum(np.linalg.norm(X, axis=(-2, -1)), 1.0)
    return _algebra_distance(rep, X) <= ALGEBRA_TOL * scale


def _algebra_distance(rep: UnitaryRep, X: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt distance of X, d x d or (n, d, d), from span{g_j}.

    tr(g_i† g_j) is a phase times tr(g_{i⁻¹j}), so the elements' Gram
    matrix is block-diagonal over the left cosets iH (i least in iH) of the
    subgroup H that the elements of |tr g| > DEFAULT_PHASE_TOL * d generate
    ({e} for a Pauli group).  One batched ``eigh`` solves it with the
    stack's SVD cut at DEFAULT_PHASE_TOL; the residual X - sum_j c_j g_j is
    formed explicitly, so that nothing cancels."""
    table, d = rep.group.mult_table, rep.dimension
    sub = np.abs(np.trace(rep.matrices, axis1=1, axis2=2)) > DEFAULT_PHASE_TOL * d
    while not sub[table[np.ix_(sub, sub)]].all():
        sub[table[np.ix_(sub, sub)]] = True
    cosets = table[np.ix_(table[:, sub].min(axis=1) == np.arange(len(table)), sub)]
    stack = rep.matrices[cosets].reshape(-1, d * d)         # coset by coset
    blocks = stack.reshape(*cosets.shape, d * d)
    w, V = np.linalg.eigh(np.conj(blocks @ blocks.conj().swapaxes(-1, -2)))
    w[w <= DEFAULT_PHASE_TOL ** 2 * w.max()] = np.inf      # cut: 1/w = 0
    flat = np.reshape(X, (-1, d * d))
    # tr(g_j† X), by one product: a product per coset is a tiny BLAS call
    b = np.conj(stack @ flat.conj().T).reshape(*cosets.shape, -1)
    c = V @ ((V.conj().swapaxes(-1, -2) @ b) / w[..., None])
    fit = c.reshape(-1, len(flat)).T @ stack
    return np.linalg.norm(flat - fit, axis=-1).reshape(np.shape(X)[:-2])


def close_group(generator_matrices, max_order: int = 512) -> tuple:
    """Build the abstract group generated by unitary matrices, up to phase.

    Returns (Group, UnitaryRep).  Element 0 is the identity's phase class;
    the others follow in breadth-first order of generator products and are
    stored phase-fixed (``fix_phase``), in place in one growable (n, d, d)
    buffer, whose |G| stored rows are copied once, at the end, into
    ``rep.matrices``.  Two matrices are one element when
    ``equal_up_to_phase(stored, product)`` holds.

    Each product gens[c] @ e_i of the breadth-first walk is compared by
    ``equal_up_to_phase`` with one stored element only.  The dense walk
    (``_dense_walk``) picks the e maximizing |tr(e† product)|, from one
    matrix-vector product of the flattened stored elements with the
    conjugated, flattened product (so the stack is never conjugated).  For
    unitary d x d matrices a product within the tolerance of a stored e has
    |tr(e† product)| >= d (1 - DEFAULT_PHASE_TOL), so the result equals a
    linear scan's unless two stored elements e, e' are nearly equal up to
    phase: |tr(e† e')| >= d (1 - 2 DEFAULT_PHASE_TOL).  When every
    generator is monomial, the keyed walk (``_keyed_walk``) finds the same
    element by the product's rows and phases, in O(d) per product instead
    of O(|G| d^2), and falls back to the dense walk for a product it cannot
    decide; the elements, their order and the table are the dense walk's,
    bit for bit.

    The multiplication table needs no further products: if e_i was found as
    gens[c] @ e_p, row i is the action of gens[c] applied to row p.  One
    dense lookup costs O(|G| d^2) against a hash's O(d^2), but the
    O(|G|^2 d^3) products of a table filled by lookups are gone, so the
    total, O(|Gamma| |G|^2 d^2) for |Gamma| generators, is smaller whenever
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

    found = _Elements(d)
    found.add(np.eye(d, dtype=complex), None)
    gen_indices = []
    for c, g in enumerate(gens):
        k = found.find(g)
        if k < 0:
            k = found.add(fix_phase(g), (c, 0))
        if k not in gen_indices and k != 0:
            gen_indices.append(k)
        elif k == 0 and len(gens) == 1:
            gen_indices.append(0)

    seeded = len(found)
    act = None
    gen_parts = _monomial_parts(np.array(gens))
    if gen_parts is not None:
        try:
            act = _keyed_walk(found, gens, gen_parts, max_order)
        except _Undecided:
            del found.parent[seeded:]
    if act is None:
        act = _dense_walk(found, gens, max_order)

    n = len(found)
    act = np.array(act).T
    table = np.empty((n, n), dtype=int)
    table[0] = np.arange(n)
    for i in range(1, n):
        c, p = found.parent[i]
        table[i] = act[c, table[p]]

    if not gen_indices:
        gen_indices = [0]
    group = Group(mult_table=table, generators=tuple(gen_indices))
    # a copy of the stored rows: a view would keep the spare ones alive
    rep = UnitaryRep(group=group, matrices=_read_only(found.stack[:n].copy()))
    return group, rep


def _grown(a: np.ndarray, k: int) -> np.ndarray:
    """``a``, or a copy of it with twice the rows when it has no row k."""
    if k < len(a):
        return a
    out = np.empty((2 * len(a), *a.shape[1:]), dtype=a.dtype)
    out[:len(a)] = a
    return out


class _Elements:
    """The elements a closure has found, in order: stack[:len(self)] holds
    them phase-fixed, in one growable (n, d, d) buffer whose rows past them
    are spare, and parent[i] = (c, p) says that element i was found as
    gens[c] @ stack[p] (None for the identity)."""

    def __init__(self, d: int):
        self.parent = []
        self.stack = np.empty((8, d, d), dtype=complex)

    def __len__(self) -> int:
        return len(self.parent)

    def add(self, m: np.ndarray, origin) -> int:
        k = len(self.parent)
        self.stack = _grown(self.stack, k)
        self.stack[k] = m
        self.parent.append(origin)
        return k

    def add_product(self, prod: np.ndarray, origin, max_order: int) -> int:
        """``add(fix_phase(prod), origin)``; a GroupClosureError when
        ``max_order`` elements are stored already."""
        if len(self.parent) >= max_order:
            raise GroupClosureError("group too large or not closed")
        return self.add(fix_phase(prod), origin)

    def find(self, m: np.ndarray) -> int:
        """The stored element maximizing |tr(e† m)| if it is
        ``equal_up_to_phase`` to m, else -1."""
        n = len(self.parent)
        k = int(np.argmax(np.abs(self.stack[:n].reshape(n, -1) @ m.ravel().conj())))
        return k if equal_up_to_phase(self.stack[k], m) else -1


def _dense_walk(found: _Elements, gens, max_order: int) -> list:
    """act[i][c], the index of gens[c] @ e_i, for every element i, walking
    the elements in order while the new ones are added: each product is
    looked up by ``_Elements.find``."""
    act = []
    while len(act) < len(found):
        i = len(act)
        row = []
        for c, g in enumerate(gens):
            prod = g @ found.stack[i]
            k = found.find(prod)
            if k < 0:
                k = found.add_product(prod, (c, i), max_order)
            row.append(k)
        act.append(row)
    return act


class _Undecided(Exception):
    """A keyed lookup found an element that the tolerance does not confirm."""


# The phases of a monomial's key are rounded to multiples of 1/_KEY_SCALE:
# far coarser than rounding (stored elements are phase-fixed, so it does not
# accumulate along the walk), far finer than the phase steps of a group
# within any closure's max_order.
_KEY_SCALE = 2.0 ** 20


def _monomial_keys(rows: np.ndarray, phases: np.ndarray) -> list:
    """One bytes key per monomial of the (m, d) arrays (rows, phases): its
    rows and its phases divided by the unit phase of column 0's entry, so
    that a global phase leaves the key as it is, rounded to the grid."""
    m, d = rows.shape
    fixed = phases / (phases[:, :1] / np.abs(phases[:, :1]))
    keys = np.empty((m, 3, d), dtype=np.int64)
    keys[:, 0] = rows
    keys[:, 1] = np.rint(fixed.real * _KEY_SCALE)
    keys[:, 2] = np.rint(fixed.imag * _KEY_SCALE)
    return keys.reshape(m, 3 * d).view(np.dtype((np.void, 24 * d)))[:, 0].tolist()


def _equal_up_to_phase_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``equal_up_to_phase(a[k], b[k])`` for every row k of two (m, d)
    arrays, at once."""
    overlap = np.einsum("kd,kd->k", a.conj(), b)
    mod = np.abs(overlap)
    turn = np.ones_like(overlap)
    big = mod >= 1e-300
    turn[big] = overlap[big].conj() / mod[big]
    dist = np.linalg.norm(a - b * turn[:, None], axis=1)
    return dist <= DEFAULT_PHASE_TOL * np.maximum(np.linalg.norm(a, axis=1), 1.0)


def _keyed_walk(found: _Elements, gens, gen_parts, max_order: int) -> list:
    """``_dense_walk`` for generators with the monomial (rows, phases)
    ``gen_parts``, one breadth-first level at a time: the products of a
    level's elements with every generator are formed as gathers of their
    rows and phases, and each is looked up by its ``_monomial_keys`` key.
    The decisions are the dense walk's:

    - a key hit is confirmed at the tolerance of ``equal_up_to_phase``,
      on the phases alone (two monomials of equal rows differ only there),
      all of a level's hits at once; if one fails, _Undecided is raised and
      the caller takes the dense walk;
    - a key miss, which a product lying across a grid step from its element
      also is, is looked up among the stored elements of the same rows by
      overlap, as ``_Elements.find`` looks among all (an element of other
      rows overlaps a product in at most d - 2 of its d columns), and
      confirmed by ``equal_up_to_phase``.  Only a product that fails this
      too is stored, from its dense product, so that the elements keep the
      dense walk's bits.
    """
    g_rows, g_phases = gen_parts
    n_gens, d = g_rows.shape
    cols = np.arange(d)
    rows = np.empty((len(found.stack), d), dtype=np.intp)   # of each element
    phases = np.empty((len(found.stack), d), dtype=complex)
    keys, buckets = {}, {}      # key -> element; rows bytes -> elements

    def register(k, r, p, key):
        nonlocal rows, phases
        rows, phases = _grown(rows, k), _grown(phases, k)
        rows[k], phases[k] = r, p
        keys.setdefault(key, k)
        buckets.setdefault(r.tobytes(), []).append(k)

    def scan(r, p):
        bucket = buckets.get(r.tobytes())
        if bucket is None:
            return -1
        k = bucket[int(np.argmax(np.abs(phases[bucket] @ p.conj())))]
        return k if equal_up_to_phase(phases[k], p) else -1

    seeded = _monomial_parts(found.stack[:len(found)])
    for k, key in enumerate(_monomial_keys(*seeded)):
        register(k, seeded[0][k], seeded[1][k], key)

    act = []
    start = 0
    while start < len(found):
        end = len(found)
        # gens[c] @ e_i for the level's e_i, in the walk's order (i, c)
        prod_rows = g_rows[:, rows[start:end]].swapaxes(0, 1).reshape(-1, d)
        prod_phases = (g_phases[:, rows[start:end]]
                       * phases[start:end]).swapaxes(0, 1).reshape(-1, d)
        level = np.empty(len(prod_rows), dtype=np.intp)
        hits = []
        for j, key in enumerate(_monomial_keys(prod_rows, prod_phases)):
            k = keys.get(key)
            if k is not None:
                hits.append(j)
            else:
                k = scan(prod_rows[j], prod_phases[j])
                if k < 0:
                    i, c = divmod(j, n_gens)
                    k = found.add_product(gens[c] @ found.stack[start + i],
                                          (c, start + i), max_order)
                    r = prod_rows[j]
                    register(k, r, found.stack[k][r, cols], key)
                else:
                    keys[key] = k
            level[j] = k
        if hits and not _equal_up_to_phase_rows(phases[level[hits]],
                                                prod_phases[hits]).all():
            raise _Undecided
        act.extend(level.reshape(-1, n_gens).tolist())
        start = end
    return act


# Bound on the complex temporaries of one block of group elements in
# conjugates, and on the (n, d, d) operator stacks that verify passes to
# pi_G.  On a 2-core OpenBLAS host, 64 KiB stacks ran 2-5x faster than one
# operator at a time, while 1 MiB stacks raised the benchmark's peak RSS
# by 6%.
MAX_STACK_BYTES = 64 * 1024


def conjugates(rep: UnitaryRep, X: np.ndarray, elements=None):
    """g_j† X g_j for the element indices ``elements`` (every element, in
    order, when None), of one d x d X or of each X of a (..., d, d) stack:
    yields them in order, as (..., B, d, d) blocks of B elements whose
    terms fit MAX_STACK_BYTES (one element at least).

    A monomial representation takes each block's terms as one gather of
    the flattened X by its cached ``gather_plan`` and one multiply by the
    plan's phases; any other, as the products (g_j† X) g_j, the block's
    adjoints g_j† formed with its terms.  With phases in {±1, ±i} the
    gather has the bits of the products.
    """
    d = rep.dimension
    plan = rep.gather_plan()
    flat = X.reshape(*X.shape[:-2], d * d)
    count = len(rep.matrices) if elements is None else len(elements)
    per = max(1, MAX_STACK_BYTES // max(1, 16 * X.size))
    for j in range(0, count, per):
        blk = slice(j, j + per) if elements is None else elements[j:j + per]
        if plan is None:
            g = rep.matrices[blk]
            yield (g.conj().swapaxes(-1, -2) @ X[..., None, :, :]) @ g
        else:
            index, phase = plan
            terms = np.take(flat, index[blk], axis=-1)
            terms *= phase[blk]
            yield terms.reshape(*terms.shape[:-1], d, d)


def conjugation_sum(rep: UnitaryRep, X: np.ndarray, elements=None,
                    out: np.ndarray = None) -> np.ndarray:
    """sum_j g_j† X g_j over the element indices ``elements`` (repeats
    count; every element when None), for one d x d X or for each X of a
    (..., d, d) stack; added into ``out`` (of X's shape) when given, else
    into a new array.

    The terms are the blocks of ``conjugates``.  The running sum is added
    into each block's first term, or a block of one term into it, so the
    terms add up in the order of ``elements``.
    """
    for terms in conjugates(rep, X, elements):
        if out is None:
            out = terms.sum(axis=-3)
        elif terms.shape[-3] == 1:
            out += terms[..., 0, :, :]
        else:
            terms[..., 0, :, :] += out
            terms.sum(axis=-3, out=out)
    return out


def commutator_norms(rep: UnitaryRep, X: np.ndarray) -> np.ndarray:
    """‖X g_j − g_j X‖ (Frobenius) for every element j, of one d x d X or
    of each X of an (n, d, d) stack: a (..., |G|) array.  For unitary g_j
    this is ‖g_j† X g_j − X‖, taken from the blocks of ``conjugates``:
    gathers for a monomial representation, products for any other."""
    X = np.asarray(X, dtype=complex)
    Xs = X[..., None, :, :]
    return np.concatenate([np.linalg.norm(np.subtract(terms, Xs, out=terms),
                                          axis=(-2, -1))
                           for terms in conjugates(rep, X)], axis=-1)


def pi_G(rep: UnitaryRep, X):
    """Group-average projector onto the commutant:
    (1/|G|) sum_j g_j† X g_j, of one operator or of each operator of an
    (n, d, d) stack.

    X may also be a Monomial.  Under a monomial representation its
    conjugates are then gathers of its d entries (``_monomial_conjugates``),
    and when every one keeps X's rows, as under a Pauli group, the average
    is the Monomial of those rows and the entries' average, in O(|G| d).
    Otherwise, and under any other representation, X is densified."""
    if not isinstance(X, Monomial):
        X = np.asarray(X, dtype=complex)
    d = rep.dimension
    if X.shape[-2:] != (d, d):
        raise ShapeError("shape error: operator does not match representation dimension")
    if isinstance(X, Monomial):
        terms = _monomial_conjugates(rep, X)
        if terms is not None:
            return Monomial(X.rows, terms.sum(axis=0) / len(terms))
        X = X.dense()
    return conjugation_sum(rep, X) / len(rep.matrices)


def _monomial_conjugates(rep: UnitaryRep, X: Monomial):
    """The (|G|, d) entries of g_j† X g_j for every element j, when the
    representation is monomial and every conjugate has X's rows; else None.

    For the (rows, phases) of ``UnitaryRep.monomial``, g_j† X g_j has, in
    column c, the entry conj(phases[j, r]) X.entries[rows[j, c]]
    phases[j, c] in row r = inv_j[X.rows[rows[j, c]]], inv_j the inverse
    of the permutation rows[j]: the gather of ``conjugates`` on X's row
    pattern, its phase product taken in the same order."""
    mono = rep.monomial()
    if mono is None:
        return None
    rows, phases = mono
    n, d = rows.shape
    inv = np.empty_like(rows)
    inv[np.arange(n)[:, None], rows] = np.arange(d)
    if not (np.take_along_axis(inv, X.rows[rows], axis=1) == X.rows).all():
        return None
    terms = X.entries[rows]
    terms *= phases[:, X.rows].conj() * phases
    return terms


@dataclass(frozen=True)
class IrrepBlock:
    multiplicity: int      # n_J: commutant acts as Mat(n_J) ⊗ I
    dimension: int         # d_J: algebra acts as I ⊗ Mat(d_J)
    columns: np.ndarray    # d x (n_J * d_J) orthonormal columns spanning H_J


@dataclass(frozen=True)
class IrrepDecomposition:
    blocks: tuple

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
    return IrrepDecomposition(blocks=tuple(
        IrrepBlock(multiplicity=n_J, dimension=d_J, columns=_read_only(cols))
        for n_J, d_J, cols in raw_blocks))
