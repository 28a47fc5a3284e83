"""Finite-dimensional *-algebras, read block by block in orthonormal coordinates.

Every algebra is a direct sum of blocks, and each block holds its product
table <b_l, b_i b_j>, its star table <b_l, b_i*> and its traces tr b_k over
its own orthonormal coordinates b_k.  Elements of two blocks multiply to
zero, so products, adjoints, norms, the unit, the center, the block
structure and subalgebras spanned by coordinate rows are all solved block by
block, never on M_N or on a table of the whole algebra; blocks of one size
are stacked (Blocks) and each stack is one batched call.  Builders know their
blocks: the fixed-point algebra has one per orbit, C(X) one per point, a
crossed product one per W-orbit of its base's blocks, a direct sum its
summands' and restricted_algebra those its rows lie in.

A span of N x N matrices with no known structure (MatrixSpan) keeps its
orthonormal matrices beside its one-block algebra, whose tables span_tables
reads off their products: generation by closure works on the matrices, and
the finite-dimensional separating-subalgebra checker reads ranks off the
algebra's blocks in its coordinates, with no commutant on M_N.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SPLIT_GAPS,
    SplitError,
    block_cut,
    check_tol,
    cluster_values,
    component_labels,
    flatten,
    orthonormal_rows,
    span_contains,
    unflatten,
)


class AlgebraError(ValueError):
    pass


# Complex entries of products held at once by span_tables.
_PRODUCT_SLAB = 1 << 20


@dataclass(frozen=True)
class Blocks:
    """g blocks of one size s, stacked: block b holds the algebra's
    coordinates index[b], and over them its product table table[b]
    [j, l, i] = <b_l, b_i b_j> (slice j is right multiplication by b_j), its
    star table star[b] [l, i] = <b_l, b_i*> and its traces traces[b]."""

    index: np.ndarray    # (g, s)
    table: np.ndarray    # (g, s, s, s)
    star: np.ndarray     # (g, s, s)
    traces: np.ndarray   # (g, s)

    def regular(self, parts: np.ndarray) -> np.ndarray:
        """L_c on each block, for block coordinates parts (..., g, s):
        column j is the coordinates of c b_j."""
        g, s = self.index.shape
        prods = (self.table.reshape(g, s * s, s) @ parts[..., None])[..., 0]
        return np.swapaxes(prods.reshape(parts.shape + (s,)), -2, -1)


def _grouped(keys) -> dict:
    """The positions of equal keys, by key in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


@dataclass(frozen=True)
class MatrixStarAlgebra:
    """A finite-dimensional *-algebra in orthonormal coordinates b_k, the
    direct sum of its blocks.

    `blocks` holds one stack per block size, in increasing order of size
    (the constructor merges stacks of one size); their indices partition the
    coordinates.  `product_residual` bounds how far its builder saw products
    and adjoints leave the span, and `ambient_dim` is the size of the
    matrices its builder represents it on.  The left-regular matrix L_c is
    block diagonal, and an injective *-homomorphism of C*-algebras is
    isometric (Murphy, C*-Algebras and Operator Theory, 1990, 3.1.5), so the
    largest operator norm of its blocks is that of the element.
    """

    ambient_dim: int
    blocks: tuple[Blocks, ...]
    product_residual: float = 0.0

    def __post_init__(self):
        given = [st for st in self.blocks if st.index.size]
        groups = _grouped(st.index.shape[1] for st in given)
        stacks = []
        for size in sorted(groups):
            parts = [given[i] for i in groups[size]]
            stacks.append(parts[0] if len(parts) == 1 else Blocks(*map(np.concatenate, zip(
                *((st.index, st.table, st.star, st.traces) for st in parts)))))
        coords = np.sort(np.concatenate([st.index.ravel() for st in stacks] + [[]]))
        if not np.array_equal(coords, np.arange(coords.size)):
            raise AlgebraError("the blocks' coordinates must partition the algebra's")
        object.__setattr__(self, "blocks", tuple(stacks))

    @property
    def dim(self) -> int:
        return sum(st.index.size for st in self.blocks)

    @cached_property
    def traces(self) -> np.ndarray:
        """tr b_k per coordinate: conj(tr b_k) are the unit's coefficients
        and tr b_k / sum_l |tr b_l|^2 the trace state tau(b_k)."""
        return self._whole([st.traces for st in self.blocks], ())

    def components(self, rows: np.ndarray) -> np.ndarray:
        """The component of each of `rows` (r, dim) in the graph on the
        blocks in which a row links the blocks it has a nonzero coordinate
        in, labeled by its least block (blocks numbered stack by stack); a
        zero row has block 0's label.  Consecutive nonzero entries of a row
        link their blocks, which joins all the blocks the row touches, so
        any of them gives the row's label."""
        ids, first = np.zeros(self.dim, dtype=int), 0
        for st in self.blocks:
            ids[st.index] = first + np.arange(len(st.index))[:, None]
            first += len(st.index)
        at, col = np.nonzero(rows)
        link = np.zeros((first, first), dtype=bool)
        chain = at[1:] == at[:-1]
        link[ids[col[:-1][chain]], ids[col[1:][chain]]] = True
        touched = np.zeros(len(rows), dtype=int)
        touched[at] = ids[col]
        return component_labels(link)[touched]

    def _whole(self, parts, lead: tuple) -> np.ndarray:
        """Coordinates (*lead, dim) from their parts (*lead, g, s) per stack."""
        out = np.zeros(lead + (self.dim,), dtype=complex)
        for st, part in zip(self.blocks, parts):
            out[..., st.index] = part
        return out

    def closure_residual(self) -> float:
        """How far products and adjoints stray from the span (0 for an
        algebra), as its builder measured it."""
        return self.product_residual

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Products and adjoints may leave the span by tol * max(N, 1) at
        most (closure_residual)."""
        if self.closure_residual() > tol * max(self.ambient_dim, 1):
            raise AlgebraError("span is not closed under product/adjoint")

    # -- arithmetic in coordinates, block by block ---------------------------

    def left_regular(self, c: np.ndarray) -> list[np.ndarray]:
        """The blocks of L_c, the matrix of x -> c x on coordinates, for c
        (..., dim): one (..., g, s, s) array per stack."""
        c = np.asarray(c)
        return [st.regular(c[..., st.index]) for st in self.blocks]

    def multiply(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """The coordinates of the products of coordinate stacks that broadcast."""
        c1, c2 = np.asarray(c1), np.asarray(c2)
        return self._whole([(lc @ c2[..., st.index, None])[..., 0]
                            for st, lc in zip(self.blocks, self.left_regular(c1))],
                           np.broadcast_shapes(c1.shape[:-1], c2.shape[:-1]))

    def adjoint(self, c: np.ndarray) -> np.ndarray:
        """The coordinates of the adjoints of a coordinate stack."""
        c = np.conj(c)
        return self._whole([(st.star @ c[..., st.index, None])[..., 0] for st in self.blocks],
                           c.shape[:-1])

    def norm(self, c: np.ndarray) -> np.ndarray:
        """The operator norm of each element of a coordinate stack: the
        largest singular value of the blocks of its left-regular matrix."""
        c = np.asarray(c, dtype=complex)
        return np.max([np.zeros(c.shape[:-1])] + [np.linalg.svd(lc, compute_uv=False)[..., 0].max(
            axis=-1) for lc in self.left_regular(c)], axis=0)

    # -- structural elements -------------------------------------------------

    def unit(self) -> np.ndarray:
        """The coordinates of the algebra's own unit (the sum of its minimal
        central projections).

        The unit e of a *-closed span A is the trace-orthogonal projection
        of 1 onto A: for a in A, <a, 1 - e> = tr(a*) - tr(a* e) = 0 as
        a* e = a*.  So e has coefficients <b_l, 1> = conj(tr b_l), and
        tr e = |e|^2 = sum_l |tr b_l|^2.  A span without a unit fails the
        check e b_j = b_j, read off each block as L_e = 1, which raises
        AlgebraError on every call.  Built once and kept on the instance.
        """
        return self._unit

    @cached_property
    def _unit(self) -> np.ndarray:
        e = self.traces.conj()
        for st, le in zip(self.blocks, self.left_regular(e)):
            if np.any(np.linalg.norm(le - np.eye(st.index.shape[1]), axis=-2) > 1e-6):
                raise AlgebraError("algebra has no unit in its span")
        return e


def span_tables(elems: np.ndarray, index: np.ndarray) -> tuple[Blocks, float]:
    """(blocks, largest distance of a product or an adjoint from its
    block's span) of stacks elems (g, s, F, d, d): block b is spanned by s
    orthonormal elements with F diagonal blocks d x d, at the coordinates
    index[b].  Embedding blocks on the diagonal of M_(F d) is an isometry,
    so these are the embedded tables and distances, at O(g s^2 F d^3):
    one batched matmul per slab of right factors, each slab's products
    holding about _PRODUCT_SLAB entries.
    """
    g, s, f, d = elems.shape[:4]
    size = f * d * d
    rows = elems.reshape(g, s, size)
    proj = rows.conj().swapaxes(1, 2)
    left = elems.transpose(0, 2, 1, 3, 4).reshape(g, f, s * d, d)          # [b, x, (i, a), c]
    step = max(1, _PRODUCT_SLAB // max(g * s * size, 1))
    table = np.empty((g, s, s, s), dtype=complex)
    worst = 0.0
    for j0 in range(0, s, step):
        right = elems[:, j0:j0 + step]
        t = right.shape[1]
        # [b, x, (i, a), (j, e)]: block x of b_i b_j, rearranged to [b, (j, i), (x, a, e)].
        prods = left @ right.transpose(0, 2, 3, 1, 4).reshape(g, f, d, t * d)
        prods = prods.reshape(g, f, s, d, t, d).transpose(0, 4, 2, 1, 3, 5).reshape(g, t * s, size)
        coeffs = prods @ proj
        table[:, j0:j0 + step] = coeffs.reshape(g, t, s, s).transpose(0, 1, 3, 2)
        prods -= coeffs @ rows
        worst = max(worst, float(np.linalg.norm(prods, axis=-1).max(initial=0.0)))
    adjoints = elems.conj().swapaxes(-2, -1).reshape(g, s, size)
    star = rows.conj() @ adjoints.swapaxes(1, 2)
    off = star.swapaxes(1, 2) @ rows - adjoints
    worst = max(worst, float(np.linalg.norm(off, axis=-1).max(initial=0.0)))
    traces = np.trace(elems, axis1=-2, axis2=-1).sum(axis=-1)
    return Blocks(index, table, star, traces), worst


def restricted_algebra(alg: MatrixStarAlgebra, rows: np.ndarray) -> MatrixStarAlgebra:
    """The span of s_r = sum_k rows[r, k] b_k, for orthonormal rows of
    alg's coordinates, in coordinates against the rows: no two matrices are
    multiplied and no basis is formed.

    It keeps the blocks of alg that its rows lie in, and a row that touches
    two blocks merges them, as an SVD basis may; blocks of as many rows are
    one batched call.  The projection v of s_i s_j onto alg's span has
    coordinates v rows* against the rows and distance |v - v rows* rows|
    from their span; each b_k b_k' leaves alg's span by at most alg's
    product residual rho, so the residual kept adds |rows[i]|_1 |rows[j]|_1
    rho.  Star table and traces are alg's read against the rows.
    """
    if not len(rows):
        return MatrixStarAlgebra(alg.ambient_dim, ())
    comp = alg.components(rows)
    parts = [np.flatnonzero(comp == c) for c in np.unique(comp)]
    blocks, worst = [], 0.0
    for group in _grouped(map(len, parts)).values():
        index = np.stack([parts[c] for c in group])
        r = rows[index]                                                  # (g, s, k)
        prods = alg.multiply(r[:, :, None], r[:, None])                 # [b, i, j]: s_i s_j
        coeffs = prods @ r.conj().swapaxes(1, 2)[:, None]               # [b, i, j, m]
        worst = max(worst, float(np.linalg.norm(prods - coeffs @ r[:, None], axis=-1).max()))
        star = alg.adjoint(r) @ r.conj().swapaxes(1, 2)                 # [b, i, m]
        blocks.append(Blocks(index, coeffs.transpose(0, 2, 3, 1), star.swapaxes(1, 2),
                             r @ alg.traces))
    l1 = np.abs(rows).sum(axis=1).max(initial=0.0)
    return MatrixStarAlgebra(alg.ambient_dim, tuple(blocks), worst + l1 ** 2 * alg.product_residual)


def _central(alg: MatrixStarAlgebra, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stack, (vecs, keep): rows vecs[b, t] of block b's coordinates
    and the mask keep (g, s) of those that span its center, the kernel of
    c -> <b_l, [sum_i c_i b_i, b_j]>.  A's commutator matrix is block
    diagonal with these blocks, so one cut at its scale (block_cut) keeps
    the kernel the dense rule keeps.
    """
    return [(vh.conj(), ~keep) for _, vh, keep in block_cut(
        [(st.table - st.table.transpose(0, 3, 2, 1)).reshape(len(st.index), -1, st.index.shape[1])
         for st in alg.blocks], tol)]


def _center_rows(alg: MatrixStarAlgebra, tol: float) -> np.ndarray:
    """Orthonormal rows of A's coordinates spanning its center, each in one
    block (_central)."""
    parts = [np.zeros((0, alg.dim), dtype=complex)]
    for st, (vecs, keep) in zip(alg.blocks, _central(alg, tol)):
        b, t = np.nonzero(keep)
        rows = np.zeros((len(b), alg.dim), dtype=complex)
        rows[np.arange(len(b))[:, None], st.index[b]] = vecs[b, t]
        parts.append(rows)
    return np.concatenate(parts)


def center(alg: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """A intersect A', solved block by block (_center_rows), in coordinates
    against its rows (restricted_algebra), so it keeps A's blocks."""
    return restricted_algebra(alg, _center_rows(alg, tol))


@dataclass(frozen=True)
class Block:
    """A simple summand M_size (x) 1_multiplicity, whose minimal central
    projection has the coordinates `part` on those, `index`, of the block
    of A it lies in; `projection` places them among A's `dim` when read."""

    size: int
    multiplicity: int
    index: np.ndarray = field(repr=False)
    part: np.ndarray = field(repr=False)
    dim: int = field(repr=False)

    @property
    def projection(self) -> np.ndarray:
        proj = np.zeros(self.dim, dtype=complex)
        proj[self.index] = self.part
        return proj


@dataclass(frozen=True)
class BlockStructure:
    algebra: MatrixStarAlgebra
    blocks: tuple[Block, ...]

    def sizes(self) -> list[int]:
        return sorted(b.size for b in self.blocks)


def block_decompose(alg: MatrixStarAlgebra, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> BlockStructure:
    """Minimal central projections and per-block (size, multiplicity).

    Solved block by block in A's coordinates, each stack in one batch.  A
    seeded random central element z of each block (_central) acts on it as
    L_z, and L_z* = L_(z*) in orthonormal coordinates; the eigenvalue
    clusters of its Hermitian part must number the dimension of the block's
    center, and each spans a block ideal A p of dimension n^2, where p, the
    projection of the unit conj(tr b_k) onto it, must be idempotent.  The
    multiplicity is trace(p) / n.  A failed stack redraws at the next gap
    of SPLIT_GAPS, and SplitError is raised when none is left.
    """
    check_tol(tol)
    rng = np.random.default_rng(seed)
    cut = max(tol, 1e-7)
    blocks = []
    for st, (vecs, keep) in zip(alg.blocks, _central(alg, tol)):
        g, s = st.index.shape
        unit = st.traces.conj()[..., None]
        for gap in SPLIT_GAPS:
            draws = rng.standard_normal((2, g, 1, s))
            lz = st.regular((((draws[0] + 1j * draws[1]) * keep[:, None]) @ vecs)[:, 0])
            evals, evecs = np.linalg.eigh((lz + lz.conj().swapaxes(1, 2)) / 2.0)
            member = cluster_values(evals, gap)[..., None] == np.arange(s)   # [b, t, cluster]
            # [cluster, b, k]: the unit's projection onto each cluster's eigenvectors.
            p = (evecs @ (member * (evecs.conj().swapaxes(1, 2) @ unit))).transpose(2, 0, 1)
            n2 = member.sum(axis=1).T
            n = np.rint(np.sqrt(n2)).astype(int)
            square = (st.regular(p) @ p[..., None])[..., 0]
            bad = (n * n != n2) | (np.linalg.norm(square - p, axis=-1)
                                   > cut * np.maximum(1.0, np.linalg.norm(p, axis=-1)))
            used = n2 > 0
            if np.array_equal(used.sum(axis=0), keep.sum(axis=1)) and not (bad & used).any():
                break
        else:
            raise SplitError("central splitting failed; reseed or loosen tolerance")
        mult = np.rint((p * st.traces).sum(axis=-1).real / np.maximum(n, 1)).astype(int)
        blocks += [Block(int(n[c, b]), int(mult[c, b]), st.index[b], p[c, b], alg.dim)
                   for c, b in zip(*np.nonzero(used))]
    blocks.sort(key=lambda b: (b.size, -b.multiplicity))
    return BlockStructure(alg, tuple(blocks))


# -- spans of matrices, separating subalgebras / Stone-Weierstrass -------------


@dataclass(frozen=True)
class MatrixSpan:
    """A *-closed span of N x N matrices with no known structure: its
    matrices, orthonormal under trace(a* b), and the algebra in coordinates
    against them, one block whose tables are read off their products
    (span_tables), built on first access."""

    mats: np.ndarray   # (dim, N, N)

    @property
    def dim(self) -> int:
        return self.mats.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.mats.shape[1]

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        blocks, residual = span_tables(self.mats[None, :, None], np.arange(self.dim)[None])
        return MatrixStarAlgebra(self.ambient_dim, (blocks,), residual)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_l coeffs[..., l] b_l, for one coefficient vector or a stack."""
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.mats, axes=1)

    def contains(self, mats, tol: float = DEFAULT_TOL) -> bool:
        return span_contains(flatten(self.mats), flatten(np.asarray(mats, dtype=complex)), tol)


def _span_of(mats, ambient_dim: int | None, tol: float) -> MatrixSpan:
    """The orthonormalized span of one square matrix or a stack."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if not mats.shape[0]:
        if ambient_dim is None:
            raise AlgebraError("ambient dimension needed for the zero algebra")
        return MatrixSpan(np.zeros((0, ambient_dim, ambient_dim), dtype=complex))
    if mats.shape[1] != mats.shape[2]:
        raise AlgebraError("generators must be square matrices")
    return MatrixSpan(unflatten(orthonormal_rows(flatten(mats), tol), mats.shape[1]))


def generate(gens, ambient_dim: int | None = None,
             tol: float = DEFAULT_TOL) -> MatrixSpan:
    """Smallest *-closed span containing the generators.

    Fixed-point iteration: span <- span + span*span + span* until the
    dimension stabilizes.
    """
    span = _span_of(gens, ambient_dim, tol)
    n = span.ambient_dim
    while span.dim:
        mats = span.mats
        stars = np.conj(np.transpose(mats, (0, 2, 1)))
        prods = (mats[:, None] @ mats[None]).reshape(-1, n, n)
        grown = _span_of(np.concatenate([mats, stars, prods]), n, tol)
        if grown.dim == span.dim:
            return grown
        span = grown
    return span


def full_matrix_algebra(n: int) -> MatrixSpan:
    return MatrixSpan(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


@dataclass(frozen=True)
class SeparationReport:
    separating: bool
    reducible_blocks: tuple[int, ...]          # blocks whose restriction is reducible
    merged_pairs: tuple[tuple[int, int], ...]  # block pairs made equivalent
    missing_unit: bool                         # B does not contain A's unit


def is_separating(sub: MatrixSpan, alg: MatrixSpan,
                  seed: int = 0, tol: float = DEFAULT_TOL) -> SeparationReport:
    """Do all irreducible blocks of A stay irreducible and inequivalent on B?

    Read off A's blocks (block_decompose) in A's coordinates, where B's
    orthonormal matrices are the rows c.  Block i, of size n_i and
    multiplicity m_i, is A p_i = M_(n_i) (x) 1_(m_i), and b -> b p_i
    restricts B to it.  A *-subalgebra of M_n acts irreducibly only if it
    is M_n (Burnside), so block i stays irreducible iff r_i = rank(c p_i)
    is n_i^2, or n_i = 1 (0 on C^1 counts as irreducible).  Blocks i and j
    are made equivalent when their restrictions share an irreducible
    summand, which makes rank(c (p_i + p_j)) < r_i + r_j, or when B has a
    kernel on both, for a rank-one map between kernel vectors intertwines:
    on one copy of block i that kernel has dimension z_i = n_i - tr(e_B
    p_i) / m_i, e_B = B's unit, the trace-orthogonal projection of 1 onto
    B (0 when B is).  If B misses A's unit, the restriction of the
    identity representation is degenerate and B cannot separate.
    """
    if not alg.contains(sub.mats, max(tol, 1e-8)):
        raise AlgebraError("first argument is not a subalgebra of the second")
    a = alg.algebra
    blocks = block_decompose(a, seed=seed, tol=tol).blocks
    c = flatten(sub.mats) @ flatten(alg.mats).conj().T
    missing_unit = not span_contains(c, a.unit(), max(tol, 1e-7))
    proj = np.array([blk.projection for blk in blocks]).reshape(-1, a.dim)
    cut = a.multiply(proj[:, None], c)                                   # [i, l]: p_i c_l
    ranks = [orthonormal_rows(part, tol).shape[0] for part in cut]
    unit_traces = (a.multiply(proj, (c @ a.traces).conj() @ c) @ a.traces).real
    kernel = [blk.size - round(t / blk.multiplicity) for blk, t in zip(blocks, unit_traces)]
    reducible = tuple(i for i, blk in enumerate(blocks)
                      if blk.size > 1 and ranks[i] < blk.size ** 2)
    merged = tuple((i, j) for i, j in combinations(range(len(blocks)), 2)
                   if kernel[i] > 0 and kernel[j] > 0
                   or orthonormal_rows(cut[i] + cut[j], tol).shape[0] < ranks[i] + ranks[j])
    separating = not reducible and not merged and not missing_unit
    return SeparationReport(separating, reducible, merged, missing_unit)


@dataclass(frozen=True)
class SWVerdict:
    holds: bool
    separating: bool
    dims_equal: bool
    report: SeparationReport


def check_stone_weierstrass(sub: MatrixSpan, alg: MatrixSpan,
                            seed: int = 0, tol: float = DEFAULT_TOL) -> SWVerdict:
    """Separating subalgebra implies equality (finite-dimensional check)."""
    report = is_separating(sub, alg, seed=seed, tol=tol)
    dims_equal = sub.dim == alg.dim
    holds = (not report.separating) or dims_equal
    return SWVerdict(holds, report.separating, dims_equal, report)
