"""Finite-dimensional *-algebras, read in orthonormal coordinates.

Every algebra is read through three tables over an orthonormal basis b_k:
its product table <b_l, b_i b_j>, its star table <b_l, b_i*> and its
traces tr b_k, each built once.  Products, adjoints, norms (of left-regular
matrices), the unit's check, the center, the block structure and
subalgebras spanned by coordinate rows are all solved from them in the
algebra's k coordinates, never on M_N.

An algebra given as a span of N x N matrices keeps that basis,
orthonormal under the trace inner product trace(a* b); with row-major
flattening that is the standard inner product on C^(N*N), so its span
arithmetic reduces to plain linear algebra, and its tables are read off
the basis.  The dense pass, which multiplies the k basis matrices
pairwise and also measures the closure residual in O(k N^2 + k^3) memory,
stays for spans with no known structure, such as algebra_from_span's.  A
builder that knows the structure passes the table and its residual
instead: the fixed-point algebra and C(X) run the same pass on the d x d
diagonal blocks of their block-diagonal bases.  An algebra without a basis
is built from all three tables (MatrixStarAlgebra.from_tables): the
crossed product reads them off its structure tensor, a direct sum places
its summands' on the diagonal, and a subalgebra spanned by coordinate rows
(restricted_algebra, which also gives the center of such an algebra) reads
them off its parent's.

The dense layer stays as the oracle and for the algebras that are spans:
generation by closure, commutants by nullspace and the finite-dimensional
separating-subalgebra checker.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    check_tol,
    cluster_values,
    flatten,
    intertwiner_rows,
    nullspace_rows,
    orthonormal_rows,
    span_contains,
    unflatten,
)


class AlgebraError(ValueError):
    pass


class SplitError(RuntimeError):
    """Randomized central splitting failed after bounded retries."""


# Complex entries of basis products held at once by the product pass.
_PRODUCT_SLAB = 1 << 20


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """A finite-dimensional *-algebra in orthonormal coordinates b_k, read
    through `structure` <b_l, b_i b_j>, `star` <b_l, b_i*> and `traces`
    tr b_k.

    `basis`, for an algebra given as a span of N x N matrices, has shape
    (dim, N, N) and is orthonormal under trace(a* b); the star table and
    traces are read off it.  `table` and `product_residual`, when given,
    are the product table and a bound on how far products leave the span,
    so the dense pass never runs.  An algebra without a basis is built by
    from_tables, which also takes `star_table` and `trace_values`, and its
    `ambient_dim` is the size of the matrices its builder represents it on;
    only its coordinate interface works, and the span methods (contains,
    coefficients, element, random_element, is_unital) raise AlgebraError.
    Either way the left-regular matrices L_c = (structure @ c).T represent
    the algebra faithfully, and an injective *-homomorphism of C*-algebras
    is isometric (Murphy, C*-Algebras and Operator Theory, 1990, 3.1.5), so
    the operator norm of L_c is that of the element.
    """

    ambient_dim: int
    basis: np.ndarray | None
    table: np.ndarray | None = field(default=None, repr=False)
    product_residual: float = 0.0
    star_table: np.ndarray | None = field(default=None, repr=False)
    trace_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.basis is None:
            if self.table is None or self.star_table is None or self.trace_values is None:
                raise AlgebraError("an algebra without a basis needs its three tables")
            return
        if self.star_table is not None or self.trace_values is not None:
            raise AlgebraError("an algebra with a basis reads its star table and traces off it")
        basis = np.asarray(self.basis, dtype=complex)
        n = self.ambient_dim
        if basis.ndim != 3 or basis.shape[1:] != (n, n):
            raise AlgebraError("basis must be a (dim, N, N) array")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_tables(cls, ambient_dim: int, table: np.ndarray, star: np.ndarray,
                    traces: np.ndarray, product_residual: float = 0.0) -> MatrixStarAlgebra:
        """The algebra in coordinates with the given product table, star
        table and traces, and no basis of matrices."""
        return cls(ambient_dim, None, table, product_residual, star, traces)

    # -- basic span machinery ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.traces)

    def basis_rows(self) -> np.ndarray:
        if self.basis is None:
            raise AlgebraError("the algebra has no basis of matrices; read it in coordinates")
        return flatten(self.basis)

    def contains(self, mats, tol: float = DEFAULT_TOL) -> bool:
        return span_contains(self.basis_rows(), flatten(np.asarray(mats, dtype=complex)), tol)

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """Expansion of a (or of each of a stack) against the orthonormal basis."""
        return flatten(a) @ self.basis_rows().conj().T

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_l coeffs[..., l] b_l, for one coefficient vector or a stack."""
        return unflatten(np.asarray(coeffs, dtype=complex) @ self.basis_rows(), self.ambient_dim)

    def random_element(self, rng: np.random.Generator, hermitian: bool = False) -> np.ndarray:
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        a = self.element(c)
        if hermitian:
            a = (a + a.conj().T) / 2.0
        return a

    @cached_property
    def _products(self) -> tuple[np.ndarray, float]:
        """(structure, product residual), from the builder or the dense pass."""
        if self.table is not None:
            return self.table, self.product_residual
        return self._product_pass()

    def _product_pass(self) -> tuple[np.ndarray, float]:
        """The dense pass: every product of two basis matrices."""
        return product_table(self.basis)

    @property
    def structure(self) -> np.ndarray:
        """<b_l, b_i b_j> indexed [j, l, i]: slice j is right multiplication
        by b_j in basis coordinates.  Built once and kept on the instance."""
        return self._products[0]

    @cached_property
    def traces(self) -> np.ndarray:
        """tr b_k per basis element: conj(tr b_k) are the unit's coefficients
        and tr b_k / sum_l |tr b_l|^2 the trace state tau(b_k)."""
        if self.basis is None:
            return self.trace_values
        return np.trace(self.basis, axis1=1, axis2=2)

    @cached_property
    def star(self) -> np.ndarray:
        """<b_l, b_i*> = conj(tr(b_l b_i)) indexed [l, i], so
        b_i* = sum_l star[l, i] b_l."""
        if self.basis is None:
            return self.star_table
        return (self.basis_rows() @ flatten(self.basis.swapaxes(1, 2)).T).conj()

    def closure_residual(self) -> float:
        """How far products and adjoints stray from the span (0 for an algebra)."""
        if self.dim == 0:
            return 0.0
        if self.basis is None:
            return self._products[1]
        off = self.star.T @ self.basis_rows() - flatten(self.basis.conj().swapaxes(1, 2))
        return max(self._products[1], float(np.linalg.norm(off, axis=1).max()))

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """A basis must be orthonormal, and products and adjoints may leave
        the span by tol * max(N, 1) at most (closure_residual)."""
        if self.basis is not None:
            rows = self.basis_rows()
            gram = rows.conj() @ rows.T
            if not np.allclose(gram, np.eye(self.dim), atol=max(tol, 1e-9) * 10):
                raise AlgebraError("basis is not orthonormal")
        if self.closure_residual() > tol * max(self.ambient_dim, 1):
            raise AlgebraError("span is not closed under product/adjoint")

    # -- arithmetic in coordinates -------------------------------------------

    def left_regular(self, c: np.ndarray) -> np.ndarray:
        """L_c, the matrix of x -> c x on coordinates, for c (..., dim):
        column j is the coordinates of c b_j."""
        return np.swapaxes(np.tensordot(c, self.structure, axes=(-1, -1)), -2, -1)

    def multiply(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """The coordinates of the products of coordinate stacks that broadcast."""
        return (self.left_regular(c1) @ np.asarray(c2)[..., None])[..., 0]

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        """The coordinates of the adjoints of a coordinate stack."""
        return np.conj(c) @ self.star.T

    def norm(self, c: np.ndarray) -> np.ndarray:
        """The operator norm of each element of a coordinate stack: the
        largest singular value of its left-regular matrix."""
        c = np.asarray(c, dtype=complex)
        if self.dim == 0:
            return np.zeros(c.shape[:-1])
        return np.linalg.svd(self.left_regular(c), compute_uv=False)[..., 0]

    # -- structural elements -------------------------------------------------

    def unit(self) -> np.ndarray:
        """The coordinates of the algebra's own unit (the sum of its minimal
        central projections).

        The unit e of a *-closed span A is the trace-orthogonal projection
        of 1 onto A: for a in A, <a, 1 - e> = tr(a*) - tr(a* e) = 0 as
        a* e = a*.  So e has coefficients <b_l, 1> = conj(tr b_l), and
        tr e = |e|^2 = sum_l |tr b_l|^2.  A span without a unit fails the
        check e b_j = b_j, read off the table as L_e = 1, which raises
        AlgebraError on every call.  Built once and kept on the instance.
        """
        return self._unit

    @cached_property
    def _unit(self) -> np.ndarray:
        e = self.traces.conj()
        defect = np.linalg.norm(self.left_regular(e) - np.eye(self.dim), axis=0)
        if np.any(defect > 1e-6):
            raise AlgebraError("algebra has no unit in its span")
        return e

    def is_unital(self, tol: float = DEFAULT_TOL) -> bool:
        """True when the ambient identity lies in the span."""
        return self.contains(np.eye(self.ambient_dim), tol)


def product_table(elems: np.ndarray) -> tuple[np.ndarray, float]:
    """(structure, largest distance of a product from the span) of k
    elements (k, ..., d, d) whose flattenings are orthonormal and whose
    middle axes index F diagonal blocks of size d: none for a dense basis
    (k, N, N), |X| for the fibers (k, |X|, d, d) of block-diagonal matrices.

    Embedding blocks on the diagonal of M_(F d) is an isometry, so the
    table and residual of the blocks are the embedded ones, at O(k^2 F d^3)
    cost in place of O(k^2 N^3).  Each block's products for all pairs are
    one (k d, d) x (d, k d) matmul.  They are formed a slab of right factors
    b_j at a time, each slab's products holding at most about _PRODUCT_SLAB
    entries.
    """
    k, d = elems.shape[0], elems.shape[-1]
    if k == 0:
        return np.zeros((0, 0, 0), dtype=complex), 0.0
    blocks = elems.reshape(k, -1, d, d)
    f = blocks.shape[1]
    rows = elems.reshape(k, -1)
    size = rows.shape[1]
    proj = rows.conj().T
    left = blocks.transpose(1, 0, 2, 3).reshape(f, k * d, d)       # [x, (i, a), b]
    step = max(1, _PRODUCT_SLAB // (k * size))
    table = np.empty((k, k, k), dtype=complex)
    worst = 0.0
    for j0 in range(0, k, step):
        right = blocks[j0:j0 + step]
        s = right.shape[0]
        # [x, (i, a), (j, c)]: block x of b_i b_j, rearranged to [(j, i), (x, a, c)].
        prods = left @ right.transpose(1, 2, 0, 3).reshape(f, d, s * d)
        prods = prods.reshape(f, k, d, s, d).transpose(3, 1, 0, 2, 4).reshape(s * k, size)
        coeffs = prods @ proj
        table[j0:j0 + step] = coeffs.reshape(-1, k, k).transpose(0, 2, 1)
        prods -= coeffs @ rows
        worst = max(worst, float(np.linalg.norm(prods, axis=1).max()))
    return table, worst


def restricted_algebra(alg: MatrixStarAlgebra, rows: np.ndarray) -> MatrixStarAlgebra:
    """The span of s_r = sum_k rows[r, k] b_k, for orthonormal rows of
    alg's coordinates, in coordinates against the rows: no two matrices are
    multiplied and no basis is formed.

    s_i s_j is sum_(k, k') rows[i, k] rows[j, k'] b_k b_k'.  alg's table
    gives the projection v of that product onto alg's span, in alg's
    coordinates; its coordinates against the rows are v rows* and its
    distance from their span |v - v rows* rows|.  What each b_k b_k' leaves
    outside alg's span is at most alg's product residual rho, so s_i s_j
    leaves the rows' span by at most that distance plus
    |rows[i]|_1 |rows[j]|_1 rho, the residual kept.  The star table is
    alg's read against the rows, and the traces are
    tr s_r = sum_k rows[r, k] tr b_k.
    """
    # [j, i, l]: the b_l coordinate of s_i s_j, from alg's table [k', l, k].
    v = (np.tensordot(rows, alg.structure, axes=(1, 0)) @ rows.T).transpose(0, 2, 1)
    coeffs = v @ rows.conj().T
    v -= coeffs @ rows
    l1 = np.abs(rows).sum(axis=1).max(initial=0.0)
    residual = float(np.linalg.norm(v, axis=-1).max(initial=0.0)) + l1 ** 2 * alg._products[1]
    return MatrixStarAlgebra.from_tables(alg.ambient_dim, coeffs.transpose(0, 2, 1),
                                         (alg.adjoint(rows) @ rows.conj().T).T,
                                         rows @ alg.traces, residual)


def algebra_from_span(mats, ambient_dim: int | None = None,
                      tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Wrap an already-*-closed span (orthonormalizes; validates closure)."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.shape[0] == 0:
        if ambient_dim is None:
            raise AlgebraError("ambient dimension needed for the zero algebra")
        return MatrixStarAlgebra(ambient_dim, np.zeros((0, ambient_dim, ambient_dim), dtype=complex))
    n = mats.shape[1]
    rows = orthonormal_rows(flatten(mats), tol)
    alg = MatrixStarAlgebra(n, unflatten(rows, n))
    alg.validate(max(tol, 1e-8))
    return alg


def generate(gens, ambient_dim: int | None = None,
             tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Smallest *-closed span containing the generators.

    Fixed-point iteration: span <- span + span*span + span* until the
    dimension stabilizes.
    """
    gens = np.asarray(gens, dtype=complex)
    if gens.ndim == 2:
        gens = gens[None]
    if gens.shape[0] == 0:
        if ambient_dim is None:
            raise AlgebraError("ambient dimension needed for the zero algebra")
        return MatrixStarAlgebra(ambient_dim, np.zeros((0, ambient_dim, ambient_dim), dtype=complex))
    n = gens.shape[1]
    if gens.shape[1] != gens.shape[2]:
        raise AlgebraError("generators must be square matrices")
    rows = orthonormal_rows(flatten(gens), tol)
    if rows.shape[0] == 0:
        return MatrixStarAlgebra(n, np.zeros((0, n, n), dtype=complex))
    while True:
        mats = unflatten(rows, n)
        stars = np.conj(np.transpose(mats, (0, 2, 1)))
        prods = (mats[:, None] @ mats[None]).reshape(-1, n, n)
        new_rows = orthonormal_rows(
            np.vstack([rows, flatten(stars), flatten(prods)]), tol)
        if new_rows.shape[0] == rows.shape[0]:
            return MatrixStarAlgebra(n, unflatten(new_rows, n))
        rows = new_rows


def commutant(alg: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """{t : tb = bt for every b in the algebra}, inside the full ambient M_N."""
    n = alg.ambient_dim
    rows = intertwiner_rows(alg.basis, alg.basis, tol)
    return MatrixStarAlgebra(n, unflatten(rows, n))


def full_matrix_algebra(n: int) -> MatrixStarAlgebra:
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return MatrixStarAlgebra(n, basis)


def _center_rows(alg: MatrixStarAlgebra, tol: float) -> np.ndarray:
    """Orthonormal rows of A's coordinates spanning A intersect A' (center)."""
    table = alg.structure
    return nullspace_rows((table - table.transpose(2, 1, 0)).reshape(alg.dim ** 2, -1), tol)


def center(alg: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """A intersect A', solved for the k coefficients of a central element.

    Row (j, l) is c -> <b_l, [sum_i c_i b_i, b_j]>.  A is closed and its
    basis orthonormal, so these rows have the singular values of the
    Kronecker commutant operator restricted to A.  An algebra without a
    basis gets its center in coordinates against those rows
    (restricted_algebra).
    """
    if alg.dim == 0:
        return alg
    rows = _center_rows(alg, tol)
    if alg.basis is None:
        return restricted_algebra(alg, rows)
    return MatrixStarAlgebra(alg.ambient_dim, alg.element(rows))


@dataclass(frozen=True)
class Block:
    size: int
    multiplicity: int
    projection: np.ndarray  # the minimal central projection's coordinates


@dataclass(frozen=True)
class BlockStructure:
    algebra: MatrixStarAlgebra
    blocks: tuple[Block, ...]

    def sizes(self) -> list[int]:
        return sorted(b.size for b in self.blocks)


def _range(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the range of a projection p."""
    evals, evecs = np.linalg.eigh((p + p.conj().T) / 2.0)
    return evecs[:, evals > 0.5]


def _compress(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The compressed matrices q* m q for orthonormal columns q."""
    return q.conj().T @ mats @ q


# Central splittings tried by block_decompose, each with a doubled gap.
_SPLIT_ATTEMPTS = 8


def block_decompose(alg: MatrixStarAlgebra, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> BlockStructure:
    """Minimal central projections and per-block (size, multiplicity).

    Solved in A's coordinates but for the projections.  A seeded random
    central element z, drawn on the center's rows as random_element draws,
    acts on A by left multiplication as L_z (left_regular), and
    L_z* = L_(z*) in an orthonormal basis, so the Hermitian part of L_z
    is L_h for h the Hermitian part of z.  Its eigenvalue clusters must
    number dim Z(A); each spans a block ideal A p of dimension n^2, and p,
    the projection of the unit's coefficients conj(tr b_k) onto it, must be
    idempotent.  The multiplicity is trace(p) / n.
    """
    check_tol(tol)
    if alg.dim == 0:
        return BlockStructure(alg, ())
    rng = np.random.default_rng(seed)
    rows = _center_rows(alg, tol)
    unit = alg.traces.conj()
    cut = max(tol, 1e-7)
    gap = 1e-7
    for _ in range(_SPLIT_ATTEMPTS):
        z = (rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))) @ rows
        lz = alg.left_regular(z)
        evals, evecs = np.linalg.eigh((lz + lz.conj().T) / 2.0)
        clusters = cluster_values(evals, gap)
        if len(clusters) == len(rows):
            blocks = []
            for idx in clusters:
                n = math.isqrt(idx.size)
                q = evecs[:, idx]
                p = q @ (q.conj().T @ unit)
                square = alg.multiply(p, p)
                if n * n != idx.size or \
                        np.linalg.norm(square - p) > cut * max(1.0, np.linalg.norm(p)):
                    break
                m = int(round((alg.traces @ p).real / n))
                blocks.append(Block(size=n, multiplicity=m, projection=p))
            else:
                blocks.sort(key=lambda b: (b.size, -b.multiplicity))
                return BlockStructure(alg, tuple(blocks))
        gap *= 2.0
    raise SplitError("central splitting failed; reseed or loosen tolerance")


# -- separating subalgebras / Stone-Weierstrass -----------------------------


@dataclass(frozen=True)
class SeparationReport:
    separating: bool
    reducible_blocks: tuple[int, ...]          # blocks whose restriction is reducible
    merged_pairs: tuple[tuple[int, int], ...]  # block pairs made equivalent
    missing_unit: bool                         # B does not contain A's unit


def _block_restriction(structure: BlockStructure, sub: MatrixStarAlgebra,
                       index: int, tol: float) -> np.ndarray:
    """Restriction of the subalgebra to one irreducible block slice of A.

    Compress to a single copy of the block: pick a minimal projection in the
    block's commutant and cut with it.  We realize this by compressing to
    range(p) and then slicing a single irreducible summand via the commutant
    of the compressed subalgebra of A.
    """
    p = structure.algebra.element(structure.blocks[index].projection)
    q = _range(p)
    comp_a = _compress(q, structure.algebra.basis)
    # Inside range(p), A acts as M_n (x) 1_m; its commutant is 1_n (x) M_m.
    alg_p = algebra_from_span(comp_a, tol=tol)
    comm_p = commutant(alg_p, tol)
    # A minimal projection in the commutant cuts one irreducible copy.
    rng = np.random.default_rng(7)
    h = comm_p.random_element(rng, hermitian=True)
    evals, evecs = np.linalg.eigh(h)
    clusters = cluster_values(evals, 1e-7)
    r = evecs[:, clusters[0]]  # one eigenspace = range of a minimal projection
    return _compress(q @ r, sub.basis)


def is_separating(sub: MatrixStarAlgebra, alg: MatrixStarAlgebra,
                  seed: int = 0, tol: float = DEFAULT_TOL) -> SeparationReport:
    """Do all irreducible blocks of A stay irreducible and inequivalent on B?

    Uses the algebra's own unit: if B misses A's unit, the restriction of the
    identity representation is degenerate and B cannot separate.
    """
    if not alg.contains(sub.basis, max(tol, 1e-8)):
        raise AlgebraError("first argument is not a subalgebra of the second")
    structure = block_decompose(alg, seed=seed, tol=tol)
    missing_unit = not sub.contains(alg.element(alg.unit()), max(tol, 1e-7))
    restrictions = [_block_restriction(structure, sub, i, tol)
                    for i in range(len(structure.blocks))]
    reducible = []
    for i, mats in enumerate(restrictions):
        span = generate(mats, ambient_dim=mats.shape[1], tol=tol)
        if commutant(span, tol).dim != 1:
            reducible.append(i)
    merged = []
    for i in range(len(restrictions)):
        for j in range(i + 1, len(restrictions)):
            if _nonzero_intertwiner(restrictions[i], restrictions[j], tol):
                merged.append((i, j))
    separating = not reducible and not merged and not missing_unit
    return SeparationReport(separating, tuple(reducible), tuple(merged), missing_unit)


def _nonzero_intertwiner(mats1: np.ndarray, mats2: np.ndarray, tol: float) -> bool:
    """Is there a nonzero s with s m1 = m2 s for all basis pairs?"""
    return intertwiner_rows(mats2, mats1, tol).shape[0] > 0


@dataclass(frozen=True)
class SWVerdict:
    holds: bool
    separating: bool
    dims_equal: bool
    report: SeparationReport


def check_stone_weierstrass(sub: MatrixStarAlgebra, alg: MatrixStarAlgebra,
                            seed: int = 0, tol: float = DEFAULT_TOL) -> SWVerdict:
    """Separating subalgebra implies equality (finite-dimensional check)."""
    report = is_separating(sub, alg, seed=seed, tol=tol)
    dims_equal = sub.dim == alg.dim
    holds = (not report.separating) or dims_equal
    return SWVerdict(holds, report.separating, dims_equal, report)
