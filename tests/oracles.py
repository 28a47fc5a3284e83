"""Dense oracles that the package no longer carries.

Every algebra of `equivaria` is a direct sum of blocks, each read through
its own tables, and no algebra keeps a basis of matrices.  Here an
algebra given by orthonormal N x N matrices is read the dense way (Dense):
every product of two basis matrices expanded against the basis, which is
the oracle of the block tables, assembled into whole tables by table_of and
star_of, and the intersection of two spans is the oracle of centers and
of invariant compacts.  A Hilbert module is held by its carrier components
in `equivaria`; here its dense tensors are assembled from them (tensors),
a module is built from dense tensors with the components found in their
zero pattern (carrier_components, the oracle of the components each
builder states), and rows in a module's pair coordinates are written out
on all m^2 carrier pairs (dense_rows, pair_rows); there the rank-one maps
and the fullness ideal are the oracles of compact_operators and is_full.
An equivariant module's gamma and a module's scalar form are held
component by component too; here they are assembled into (|W|, m, m) and
(m, m) arrays (dense_gamma, dense_gram), and a dense gamma is read back
onto a module's components (carried).  The crossed product B >| W lives
in its own coordinates in `equivaria`; here it is embedded by the regular
representation on l^2(W) (x) C^N, with the covariant-pair relations
(1)-(4) that make that embedding's product table the one cp.algebra reads
off B's blocks.  An action of `equivaria` is a permutation of B's
coordinates, validated and crossed by index; here an action is given by
dense (|W|, k, k) maps (DenseAction, dense_maps builds them from a
permutation) and validated through B's products and adjoints, its crossed
tables multiplied out through the maps (DenseCrossedProduct,
dense_crossed_product), the oracle of the index path.  C(X, M_d)'s action
alpha for d >= 2 (alpha_matrix, function_algebra_action) is not a
permutation, and lives here only.  CrossedProduct.is_ideal takes its rows
grouped by B-coordinate and tests them block by block; here dense
coefficient rows are tested one group element at a time against whole
product stacks (crossed_is_ideal_loop), and grouped_rows groups dense rows
that lie in single column blocks.  The pairwise ideal test of matrix spans,
the operator norm of a matrix and the block-diagonal embedding of functions
(embed_function) are kept here as well, with all of C(X, M_d)
(function_algebra, whose d = 1 case is systems.scalar_algebra).  The
fixed-point algebra of `equivaria` holds each invariant function by its
value at its orbit's least point and reads its tables there; here the
functions are carried over their whole orbits (invariant_functions) and the
tables read off the products at every point, with the whole Gram matrix
checked (carried_fixed_point_algebra), and C(X/W) is solved as the
fixed-point algebra of the trivial scalar cocycle (solved_orbit_algebra),
the oracle of the written-down scalar_algebra of the orbit sizes.  A span of
matrices is checked for separation the dense way (dense_is_separating): B
compressed to one copy of each of A's blocks (block_restriction), its
commutant there by the Kronecker nullspace (commutant) for irreducibility
and Kronecker intertwiners between two blocks for equivalence, the oracle
of matalg.is_separating's ranks.  The builtin groups of `equivaria` are
table formulas; here they are built from element tuples and compose rules
(symmetric_from_permutations, dihedral_from_pairs, quaternion_from_units,
direct_product_from_pairs), one product at a time (table_from_elements).
The representation w -> I_{w,x} of a point's stabilizer (stabilizer_rep),
which the spectrum never builds, is built here for the irreps-based loops.
"""
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from equivaria.groups import FiniteGroup, Subgroup
from equivaria.hilbmod import Carried, Components, FDHilbertModule
from equivaria.linalg import (
    DEFAULT_TOL,
    check_tol,
    cluster_values,
    component_labels,
    flatten,
    homomorphism_defect,
    intertwiner_rows,
    nullspace_rows,
    orthonormal_rows,
    span_contains,
    unflatten,
)
from equivaria.matalg import (
    AlgebraError,
    Blocks,
    MatrixSpan,
    MatrixStarAlgebra,
    SeparationReport,
    _grouped,
    _span_of,
    block_decompose,
    generate,
    restricted_algebra,
    span_tables,
)
from equivaria.reps import UnitaryRep, regular_rep
from equivaria.systems import (
    CrossedProduct,
    EquivariantSystem,
    SystemError,
    _largest_norm,
    _least_point_kernels,
)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def span_intersection(a_rows: np.ndarray, b_rows: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the intersection of two row spans: the vectors
    orthogonal to both orthocomplements."""
    comp_a = nullspace_rows(a_rows.conj(), tol)
    comp_b = nullspace_rows(b_rows.conj(), tol)
    stacked = np.vstack([comp_a.conj(), comp_b.conj()])
    if stacked.shape[0] == 0:
        return np.eye(a_rows.shape[1], dtype=complex)
    return nullspace_rows(stacked, tol)


class Dense:
    """The span of orthonormal N x N matrices, read the dense way: its
    tables from every product and adjoint of two basis matrices, expanded
    against the basis, and its closure residual from their distances to
    the span."""

    def __init__(self, basis):
        self.basis = np.asarray(basis, dtype=complex)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def basis_rows(self) -> np.ndarray:
        return flatten(self.basis)

    def coefficients(self, a) -> np.ndarray:
        return flatten(np.asarray(a, dtype=complex)) @ self.basis_rows().conj().T

    def element(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.basis, axes=1)

    def contains(self, mats, tol: float = DEFAULT_TOL) -> bool:
        return span_contains(self.basis_rows(), flatten(np.asarray(mats, dtype=complex)), tol)

    @cached_property
    def structure(self) -> np.ndarray:
        """<b_l, b_i b_j> indexed [j, l, i]."""
        return self.coefficients(self.basis[None] @ self.basis[:, None]).transpose(0, 2, 1)

    @cached_property
    def star(self) -> np.ndarray:
        """<b_l, b_i*> indexed [l, i]."""
        return self.coefficients(self.basis.conj().swapaxes(1, 2)).T

    @cached_property
    def traces(self) -> np.ndarray:
        return np.trace(self.basis, axis1=1, axis2=2)

    def _distance(self, mats) -> float:
        """The largest distance of the matrices from the span."""
        rows, vecs = self.basis_rows(), flatten(mats).reshape(-1, self.basis_rows().shape[1])
        return float(np.linalg.norm(vecs - (vecs @ rows.conj().T) @ rows, axis=1).max(initial=0.0))

    def product_residual(self) -> float:
        """The largest distance of a product of two basis matrices from the span."""
        return self._distance(self.basis[:, None] @ self.basis[None])

    def closure_residual(self) -> float:
        """The largest distance of a product or an adjoint from the span."""
        return max(self.product_residual(), self._distance(self.basis.conj().swapaxes(1, 2)))


def carrier_components(action, coefficients) -> list[np.ndarray]:
    """The connected components of the carrier indices of dense tensors,
    each as sorted indices, in order of their least index.

    For `action[k, p, i]` (e_i b_k = sum_p action[k, p, i] e_p) and
    `coefficients[j, l, k]` (the k-th coefficient of <e_j|e_l>), i and p
    are linked when some action[k, p, i] != 0, j and l when some
    coefficients[j, l, k] != 0, and i and j when one k has a nonzero
    action[k, :, i] and a nonzero coefficients[j, :, k].  Entry (p, l) of
    |e_i><e_j| is sum_k action[k, p, i] coefficients[j, l, k], so it is
    nonzero only when i, j, p and l lie in one component.
    """
    nz_action = action != 0                                           # [k, p, i]
    nz_coeff = coefficients != 0                                      # [j, l, k]
    shared = nz_coeff.any(axis=1).astype(float) @ nz_action.any(axis=1).astype(float)
    link = nz_action.any(axis=0) | nz_coeff.any(axis=2) | (shared > 0)
    labels = component_labels(link)
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def components_of(action, coefficients) -> tuple:
    """Components of dense tensors, one per carrier component, each with
    the coordinates that act on it or hold its values."""
    parts = []
    for part in carrier_components(action, coefficients):
        a, v = action[:, part[:, None], part], coefficients[part[:, None], part]
        coords = np.flatnonzero((a != 0).any(axis=(1, 2)) | (v != 0).any(axis=(0, 1)))
        parts.append(Components(part[None], coords[None], a[coords][None], v[..., coords][None]))
    return tuple(parts)


def dense_module(algebra, action, inner, name: str = "") -> FDHilbertModule:
    """The module of dense tensors action (dim B, m, m) and inner (m, m, dim B)."""
    return FDHilbertModule(algebra, components_of(np.asarray(action, dtype=complex),
                                                  np.asarray(inner, dtype=complex)), name)


def tensors(e) -> tuple[np.ndarray, np.ndarray]:
    """A module's dense (dim B, m, m) action and (m, m, dim B) inner
    values, assembled from its components."""
    m, k = e.carrier_dim, e.algebra.dim
    action = np.zeros((k, m, m), dtype=complex)
    inner = np.zeros((m, m, k), dtype=complex)
    for st in e.parts:
        car, crd = st.carrier, st.coords
        action[crd[:, :, None, None], car[:, None, :, None], car[:, None, None, :]] = st.action
        inner[car[:, :, None, None], car[:, None, :, None], crd[:, None, None, :]] = st.inner
    return action, inner


def dense_rows(e, rows) -> np.ndarray:
    """Rows at a module's carrier pairs (e.pairs) written out on all m^2."""
    out = np.zeros(np.shape(rows)[:-1] + (e.carrier_dim ** 2,), dtype=complex)
    out[..., e.pairs] = rows
    return out


def pair_rows(e, mats) -> np.ndarray:
    """Carrier matrices (..., m, m) read at a module's carrier pairs; every
    other entry must be zero."""
    flat = flatten(mats)
    off = np.ones(flat.shape[-1], dtype=bool)
    off[e.pairs] = False
    assert not flat[..., off].any()
    return flat[..., e.pairs]


def rank_one(e, eta, xi) -> np.ndarray:
    """|eta><xi| : zeta -> eta <xi|zeta>, as a raw carrier matrix: column l
    is eta . <xi|e_l>, the oracle of the batched rank-one maps."""
    m = e.carrier_dim
    return e.act(np.broadcast_to(eta, (m, m)), e.inner_product(xi, np.eye(m))).T


def fullness_ideal(e, tol: float = DEFAULT_TOL):
    """span{<xi|eta>} inside B, in coordinates against orthonormal rows of
    B's (restricted_algebra), cut on all m^2 inner coefficients: all of B
    iff E is full, the oracle of hilbmod.is_full."""
    m = e.carrier_dim
    return restricted_algebra(e.algebra, orthonormal_rows(tensors(e)[1].reshape(m * m, -1), tol))


def dense_gram(e) -> np.ndarray:
    """A module's scalar form as one (m, m) matrix, assembled from its
    component blocks."""
    m = e.carrier_dim
    out = np.zeros((m, m), dtype=complex)
    for st, g in zip(e.parts, e.gram):
        out[st.carrier[:, :, None], st.carrier[:, None, :]] = g
    return out


def gram_sqrt(e) -> tuple[np.ndarray, np.ndarray]:
    """(S, S^-1) with S = G^(1/2), G the dense scalar form."""
    evals, evecs = np.linalg.eigh(dense_gram(e))
    return ((evecs * np.sqrt(evals)) @ evecs.conj().T,
            (evecs / np.sqrt(evals)) @ evecs.conj().T)


def dense_gamma(eq) -> np.ndarray:
    """An equivariant module's gamma as one (|W|, m, m) array, assembled
    from its blocks: gamma_w[carrier[target[w, b], p], carrier[b, i]] =
    blocks[w, b, p, i]."""
    w_n, m = eq.group.order, eq.base.carrier_dim
    out = np.zeros((w_n, m, m), dtype=complex)
    w = np.arange(w_n)[:, None, None, None]
    for st, c in zip(eq.base.parts, eq.gamma):
        out[w, st.carrier[c.target][..., None], st.carrier[None, :, None, :]] = c.blocks
    return out


def carried(base, gamma) -> tuple:
    """The Carried stacks of a dense gamma (|W|, m, m) on base's components:
    column block b of gamma_w goes to the least component of its stack it
    reaches, with that block.  A gamma_w that mixes two components carries
    both onto the least of them, which EquivariantModule rejects."""
    out = []
    for st in base.parts:
        car = st.carrier
        blocks = gamma[:, car[:, None, :, None], car[None, :, None, :]]    # [w, c, b, p, i]
        target = (np.abs(blocks).max(axis=(3, 4)) > 0).argmax(axis=1)
        out.append(Carried(target, np.take_along_axis(
            blocks, target[:, None, :, None, None], axis=1)[:, 0]))
    return tuple(out)


def averaged_tensors(eq) -> tuple[np.ndarray, np.ndarray]:
    """The averaged module's dense (|W|, dim B, m, m) maps
    gamma_{w^-1} R_{b_i} / sqrt|W| and (m, m, |W|, dim B) inner values
    sqrt|W| sum_j gamma_w[j, q] <e_p|e_j>, the crossed coefficients."""
    action, inner = tensors(eq.base)
    w_n, m = eq.group.order, eq.base.carrier_dim
    gamma = dense_gamma(eq)
    maps = (gamma[eq.group.inv] / np.sqrt(w_n))[:, None] @ action[None]
    by_column = gamma.transpose(2, 0, 1).reshape(m * w_n, m) * np.sqrt(w_n)  # [(q, w), j]
    return maps, (by_column @ inner).reshape(m, m, w_n, -1)


def table_of(alg) -> np.ndarray:
    """alg's whole product table [j, l, i], assembled from its blocks: zero
    unless i, j and l share a block."""
    out = np.zeros((alg.dim,) * 3, dtype=complex)
    for st in alg.blocks:
        i = st.index
        out[i[:, :, None, None], i[:, None, :, None], i[:, None, None, :]] = st.table
    return out


def star_of(alg) -> np.ndarray:
    """alg's whole star table [l, i], assembled from its blocks."""
    out = np.zeros((alg.dim,) * 2, dtype=complex)
    for st in alg.blocks:
        out[st.index[:, :, None], st.index[:, None, :]] = st.star
    return out


def embed_function(sys, k: np.ndarray) -> np.ndarray:
    """Block-diagonal matrices in M_{|X| d} of functions (..., |X|, d, d),
    blocks by point index, for a system's |X| and d."""
    k = np.asarray(k, dtype=complex)
    x_n, d = sys.n_points, sys.fiber_dim
    lead = k.shape[:-3]
    out = np.zeros(lead + (x_n, d, x_n, d), dtype=complex)
    x = np.arange(x_n)
    out[..., x, :, x, :] = np.moveaxis(k, -3, 0)
    return out.reshape(lead + (x_n * d, x_n * d))


def embedded(funcs) -> np.ndarray:
    """Functions (k, |X|, d, d) as block-diagonal matrices in M_{|X| d},
    blocks by point index (embed_function)."""
    x_n, d = funcs.shape[1:3]
    return embed_function(SimpleNamespace(n_points=x_n, fiber_dim=d), funcs)


def fpa_basis(fpa) -> np.ndarray:
    """The fixed-point algebra's basis: its functions embedded."""
    return embedded(fpa.functions)


def scalar_basis(n_points: int) -> np.ndarray:
    """C(X)'s basis, the point indicators on the diagonal of M_|X|."""
    return embedded(np.eye(n_points).reshape(n_points, n_points, 1, 1))


def base_basis(alg) -> np.ndarray:
    """The basis of a C(X/W) or C(X, M_d) built by systems.scalar_algebra
    or function_algebra, one stack at consecutive coordinates.  For
    C(X, M_d), blocks of size d^2, the matrix units of each point on an
    ambient of size |X| d; for C(X/W), blocks of size 1 with traces
    sqrt|O|, the indicators 1_O / sqrt|O| of consecutive runs of |O|
    points, an isometric embedding of the orbits' functions (C(X) when
    every |O| is 1)."""
    (st,) = alg.blocks
    n, size = st.index.shape
    d = math.isqrt(size)
    assert d * d == size and np.array_equal(st.index.ravel(), np.arange(alg.dim))
    if d > 1:
        assert alg.ambient_dim == n * d
        return embedded(np.eye(n * size).reshape(n * size, n, d, d))
    sizes = np.rint(np.abs(st.traces[:, 0]) ** 2).astype(int)
    assert alg.ambient_dim == sizes.sum()
    runs = np.repeat(np.eye(n) / np.sqrt(sizes)[:, None], sizes, axis=1)
    return embedded(runs[:, :, None, None])


def dense_of(alg) -> Dense:
    """The dense twin of a fixed-point algebra (its functions embedded) or
    of a C(X/W) or C(X, M_d) (base_basis)."""
    return Dense(fpa_basis(alg) if hasattr(alg, "functions") else base_basis(alg))


def crossed_basis(action, basis=None) -> np.ndarray:
    """Every a_(w,i) = b_i w / sqrt|W| embedded at once: a (|W| dim B, |W| N,
    |W| N) array, row (w, i), for B's basis matrices `basis` (base_basis
    when not given).

    The regular embedding is (b w)(delta_v (x) a) = delta_{wv} (x)
    beta_{(wv)^-1}(b) a, so row (w, i) has the block beta_{(wv)^-1}(b_i) /
    sqrt|W| at (wv, v), and each of the |W| twisted bases is built once,
    from the maps scaled by 1 / sqrt|W|.
    """
    g = action.group
    basis = base_basis(action.algebra) if basis is None else basis
    k, n, w_n = basis.shape[0], basis.shape[1], g.order
    twisted = np.tensordot(dense_maps(action)[g.inv] / math.sqrt(w_n), basis, axes=(1, 0))
    out = np.zeros((w_n, k, w_n, n, w_n, n), dtype=complex)
    w, v = np.arange(w_n)[:, None], np.arange(w_n)
    out[w, :, g.mul[w, v], :, v, :] = twisted[g.mul[w, v]]
    return out.reshape(w_n * k, w_n * n, w_n * n)


def embedded_algebra(cp, basis=None) -> Dense:
    """The span of the embedded a_(w,i), read the dense way: the crossed
    coefficients are coordinates against this basis."""
    return Dense(crossed_basis(cp.action, basis))


def relation_residual(cp, basis=None) -> float:
    """The largest norm by which the embedding breaks the relations of the
    covariant pair (pi, U) it integrates (Williams, Crossed Products of
    C*-Algebras, 2007, 2.3), with pi(b) acting on delta_v (x) C^N by
    beta_(v^-1)(b) and U_w = lambda_w (x) 1_N:
      (1) a_(w,i) embeds as pi(b_i) U_w / sqrt|W|,
      (2) pi(b_i) pi(b_j) = pi(b_i b_j),
      (3) U_w pi(b_i) U_w* = pi(beta_w(b_i)) and
      (4) U_w U_v = U_wv.
    Then (pi(a) U_w)(pi(b) U_v) = pi(a beta_w(b)) U_wv, the product that
    cp.algebra's tables expand.  Both sides of (1) and (3) carry the
    1 / sqrt|W| of the embedding; (2) is quadratic, so its coefficients are
    scaled back, and it is read in B's coordinates: pi(b_i) must be
    block-diagonal, and its blocks must multiply as B does.  (3) is read at
    W's generators, which with (4) and beta a homomorphism covers W."""
    g, maps = cp.group, dense_maps(cp.action)
    b_alg = Dense(base_basis(cp.action.algebra) if basis is None else basis)
    k, n, w_n = b_alg.dim, b_alg.ambient_dim, g.order
    emb = crossed_basis(cp.action, b_alg.basis).reshape(w_n, k, w_n * n, w_n * n)
    pi = emb[g.identity]
    u = np.kron(regular_rep(g).matrices, np.eye(n))
    u_star = u.conj().transpose(0, 2, 1)
    pair = emb - pi @ u[:, None]                                                     # (1)
    gens = list(g.generators())
    covariance = (u[gens, None] @ pi @ u_star[gens, None]
                  - np.tensordot(maps[gens], pi, axes=(1, 0)))                       # (3)
    v = np.arange(w_n)
    blocks = pi.reshape(k, w_n, n, w_n, n)
    c = b_alg.coefficients(blocks[:, v, :, v])                     # [v, i, m]
    outside = blocks.copy()
    outside[:, v, :, v] -= b_alg.element(c)
    c = c * math.sqrt(w_n)
    table = table_of(cp.action.algebra).transpose(2, 0, 1)         # [m, n, l]
    # [v, i, j, l]: the b_l part of block v of pi(b_i) pi(b_j) - pi(b_i b_j).
    left = c[:, None] @ (c @ table.reshape(k, k * k)).reshape(w_n, k, k, k)
    right = (table.reshape(k * k, k) @ c).reshape(w_n, k, k, k)
    return float(max(
        np.linalg.norm(pair, axis=(-2, -1)).max(),
        np.linalg.norm(covariance, axis=(-2, -1)).max(initial=0.0),
        np.linalg.norm(homomorphism_defect(u, g.mul), axis=(-2, -1)).max(),   # (4)
        np.linalg.norm(outside.reshape(k, -1), axis=1).max(),
        np.linalg.norm(left - right, axis=(0, 3)).max()))


def is_ideal(ideal, alg, tol: float = DEFAULT_TOL) -> bool:
    """Two-sided *-closed ideal test of matrix spans (Dense or
    matalg.MatrixSpan, given by `basis` or `mats`): i* and i a stay in the
    span, the oracle of CrossedProduct.is_ideal.

    Each product m may leave the span by at most tol * max(1, |m|).  The
    products are tested one basis element a at a time against the whole
    ideal basis, so memory stays O(dim I * N^2) whatever dim A is.  A is
    *-closed, so once I* = I holds, a i = (i* a*)* lies in I because i* a*
    does: the left products need no test of their own.
    """
    ideal_mats = getattr(ideal, "basis", None)
    ideal_mats = ideal.mats if ideal_mats is None else ideal_mats
    alg_mats = getattr(alg, "basis", None)
    alg_mats = alg.mats if alg_mats is None else alg_mats
    if len(ideal_mats) == 0:
        return True
    rows = flatten(ideal_mats)
    if not span_contains(flatten(alg_mats), rows, max(tol, 1e-8)):
        return False
    if not span_contains(rows, flatten(np.conj(np.transpose(ideal_mats, (0, 2, 1)))), tol):
        return False
    return all(span_contains(rows, flatten(ideal_mats @ a), tol) for a in alg_mats)



def crossed_is_ideal_loop(cp, rows: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Is the span of orthonormal coefficient rows (., |W| dim B) a
    two-sided *-ideal of cp?  The oracle of CrossedProduct.is_ideal on
    dense rows: the adjoints of the rows, then their products with the
    a_(w,j) of one w at a time, each a_(w,j) acting on the rows' part in
    its block by its slice of the block's table, tested against all the
    rows together."""
    if rows.shape[0] in (0, cp.dim):
        return True
    alg = cp.algebra
    if not span_contains(rows, alg.adjoint(rows), tol):
        return False
    k, w_n = cp.action.algebra.dim, cp.group.order
    for w in range(w_n):
        prods = np.zeros((len(rows), k, cp.dim), dtype=complex)   # [r, j]: i_r a_(w,j)
        for st in alg.blocks:
            # A block holds a_(v,j), for j its orbit's t-th coordinate, at v p + t.
            p = st.index.shape[1] // w_n
            slot = slice(w * p, (w + 1) * p)
            prods[:, st.index[:, slot, None] % k, st.index[:, None]] = (
                st.table[:, slot] @ rows[:, st.index][:, :, None, :, None])[..., 0]
        if not span_contains(rows, prods.reshape(-1, cp.dim), tol):
            return False
    return True


def grouped_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Coefficient rows (., |W| k), each in one column block (., i), as
    CrossedProduct.is_ideal takes them: (k, r, |W|), the rows of each i in
    order in its first slots, zeros after."""
    w_n = rows.shape[1] // k
    blocks = rows.reshape(len(rows), w_n, k)
    touched = np.abs(blocks).max(axis=1, initial=0.0) > 0                # [row, i]
    assert (touched.sum(axis=1) == 1).all(), "a row spans two column blocks"
    i = touched.argmax(axis=1)
    slot = np.array([np.count_nonzero(i[:n] == i[n]) for n in range(len(i))], dtype=np.intp)
    out = np.zeros((k, max(slot.max(initial=-1) + 1, 1), w_n), dtype=complex)
    out[i, slot] = blocks[np.arange(len(rows)), :, i]
    return out

# -- the dense action path -----------------------------------------------------


def alpha_matrix(sys, w: int) -> np.ndarray:
    """alpha_w as a matrix on flattened function coordinates C^{|X| d^2}:
    block (x, w^-1 x) is I_{w, w^-1 x} (x) I_{w^-1, x}^T, all formed at once."""
    d, x_n = sys.fiber_dim, sys.n_points
    w_inv = sys.group.inverse(w)
    pre = sys.action[w_inv]
    left, right = sys.cocycle[w, pre], sys.cocycle[w_inv].swapaxes(1, 2)
    out = np.zeros((x_n, d * d, x_n, d * d), dtype=complex)
    out[np.arange(x_n), :, pre, :] = (left[:, :, None, :, None]
                                      * right[:, None, :, None, :]).reshape(x_n, d * d, d * d)
    return out.reshape(x_n * d * d, x_n * d * d)


def dense_maps(action) -> np.ndarray:
    """An action's (|W|, k, k) maps on B's coefficient vectors: a
    DenseAction's own, or the 0/1 matrices of an AlgebraAction's
    permutation, with beta_w(b_j) = b_(perm[w, j]) in column j."""
    if isinstance(action, DenseAction):
        return action.maps
    w_n, k = action.perm.shape
    maps = np.zeros((w_n, k, k), dtype=complex)
    maps[np.arange(w_n)[:, None], action.perm, np.arange(k)] = 1.0
    return maps


@dataclass(frozen=True)
class DenseAction:
    """An action of a finite group on B by dense maps, maps[w] acting on
    B's coefficient vectors, validated and crossed through products of the
    maps and of B's elements: the oracle of AlgebraAction's index checks,
    and the form of the actions that are not permutations, such as
    C(X, M_d)'s for d >= 2 (function_algebra_action) and conjugations."""

    group: object
    algebra: MatrixStarAlgebra
    maps: np.ndarray  # (|W|, dim, dim)

    def __post_init__(self):
        maps = np.array(self.maps, dtype=complex)
        maps.setflags(write=False)
        object.__setattr__(self, "maps", maps)

    @classmethod
    def of(cls, action) -> "DenseAction":
        """The dense twin of an AlgebraAction."""
        return cls(action.group, action.algebra, dense_maps(action))

    @cached_property
    def orbits(self) -> tuple[np.ndarray, ...]:
        """B's coordinates by W-orbit of B's blocks, read off the maps'
        support: the components of the graph in which beta_w(b_j) links
        b_j's block with each block it touches, stacked as
        AlgebraAction._orbits stacks them."""
        k = self.algebra.dim
        label = self.algebra.components(((self.maps != 0).any(axis=0) | np.eye(k, dtype=bool)).T)
        coords = [np.flatnonzero(label == o) for o in np.unique(label)]
        return tuple(np.stack([coords[o] for o in group])
                     for group in _grouped(map(len, coords)).values())

    def validate(self, tol: float = 1e-8) -> None:
        """AlgebraAction.validate's checks, bounds and messages, through
        the maps: the identity and all-pairs homomorphism defects are
        Frobenius norms of matrix differences, and the star and
        multiplicativity defects at the generators are read through B's
        products and adjoints."""
        check_tol(tol)
        k, maps = self.algebra.dim, self.maps
        if maps.shape != (self.group.order, k, k):
            raise SystemError("action maps have wrong shape")
        ident = np.linalg.norm(maps[0] - np.eye(k))
        hom = np.linalg.norm(homomorphism_defect(maps, self.group.mul), axis=(-2, -1))
        if not ident <= tol * max(k, 1):
            raise SystemError("identity does not act as identity")
        if not hom.max() <= tol * max(k, 1):
            raise SystemError("maps are not a group homomorphism")
        if k == 0:
            return
        star, mult = self.defects(list(self.group.generators()))
        if not _largest_norm(star) <= tol:
            raise SystemError("action does not preserve the involution")
        if not _largest_norm(mult) <= tol:
            raise SystemError("action is not multiplicative")

    def defects(self, gens: list) -> tuple[list, list]:
        """(star, mult) at the elements gens, as AlgebraAction._defects
        gives them: rows of the B-coordinates of beta_w(b_i*) -
        beta_w(b_i)* and of beta_w(b_i b_j) - beta_w(b_i) beta_w(b_j), the
        products one W-orbit of B's blocks at a time (for b_i and b_j of
        two orbits both sides are exactly zero)."""
        alg, maps = self.algebra, self.maps[gens]
        images = maps.swapaxes(1, 2)                      # [w, i]: beta_w(b_i)
        star, mult = [alg.adjoint(np.eye(alg.dim)) @ images - alg.adjoint(images)], []
        for index in self.orbits:
            n, p = index.shape
            beta = maps[:, index[:, :, None], index[:, None, :]]          # [w, o, l, j]
            # [0, i, o]: b_i, and [1 + w, i, o]: beta_w(b_i), in the orbit's coordinates.
            elems = np.concatenate([np.broadcast_to(np.eye(p)[:, None], (1, p, n, p)),
                                    beta.transpose(0, 3, 1, 2)])
            prods = products_on(alg, index, elems[:, :, None], elems[:, None])
            # [w, i, j, o]: beta_w(b_i b_j) - beta_w(b_i) beta_w(b_j).
            mult.append((beta[:, None, None] @ prods[0, ..., None])[..., 0] - prods[1:])
        return star, mult


def function_algebra_action(sys) -> DenseAction:
    """alpha as a dense action on the full function algebra C(X, M_d)."""
    maps = np.stack([alpha_matrix(sys, w) for w in sys.group.elements()])
    return DenseAction(sys.group, function_algebra(sys), maps)


def products_on(alg, index: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The products of coordinate stacks c1, c2 (..., n, p) that broadcast,
    in the coordinates index (n, p) of alg, each row a union of its blocks:
    block by block, as alg.multiply, without alg's other coordinates."""
    out = np.zeros(np.broadcast_shapes(c1.shape, c2.shape), dtype=complex)
    row, pos = np.full(alg.dim, -1), np.zeros(alg.dim, dtype=np.intp)
    row[index] = np.arange(len(index))[:, None]
    pos[index] = np.arange(index.shape[1])
    for st in alg.blocks:
        sel = np.flatnonzero(row[st.index[:, 0]] >= 0)
        at, ix = row[st.index[sel]], pos[st.index[sel]]
        part = Blocks(st.index[sel], st.table[sel], st.star[sel], st.traces[sel])
        out[..., at, ix] = (part.regular(c1[..., at, ix]) @ c2[..., at, ix, None])[..., 0]
    return out


class DenseCrossedProduct(CrossedProduct):
    """B >| W of a DenseAction, its tables multiplied out through the maps:
    <b_l, b_i beta_w(b_j)> from products of B's elements in each orbit's
    coordinates and beta_(w^-1)(b_i*) from the maps and B's adjoints, the
    oracle of the tables CrossedProduct.algebra gathers by index."""

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        g, action = self.group, self.action
        b_alg, maps = action.algebra, action.maps
        w_n, k = g.order, b_alg.dim
        w, v = np.arange(w_n)[:, None], np.arange(w_n)
        adjoints = b_alg.adjoint(np.eye(k))                               # [i, m]: b_i*
        blocks = []
        for index in action.orbits:
            n, p = index.shape
            adj = adjoints[index[:, None, :], index[:, :, None]]         # [o, m, i]: b_i*
            beta = maps[:, index[:, :, None], index[:, None, :]]           # [w, o, l, j]
            units = np.broadcast_to(np.eye(p)[:, None], (p, n, p))       # [i, o]: b_i
            # [w, o, j, l, i]: <b_l, b_i beta_w(b_j)>.
            prods = products_on(b_alg, index, units[:, None, None],
                                beta.transpose(0, 3, 1, 2)[None]).transpose(1, 3, 2, 4, 0)
            table = np.zeros((n, w_n, p, w_n, p, w_n, p), dtype=complex)
            table[:, v, :, g.mul[w, v], :, w] = prods[:, None] / math.sqrt(w_n)
            star = np.zeros((n, w_n, p, w_n, p), dtype=complex)
            # [w, o, l, i]: the b_l coefficient of beta_(w^-1)(b_i*).
            star[:, g.inv, :, v] = beta[g.inv] @ adj
            traces = np.zeros((n, w_n, p), dtype=complex)
            traces[:, g.identity] = math.sqrt(w_n) * b_alg.traces[index]
            blocks.append(Blocks((v[:, None] * k + index[:, None, :]).reshape(n, -1),
                                 table.reshape(n, w_n * p, w_n * p, w_n * p),
                                 star.reshape(n, w_n * p, w_n * p), traces.reshape(n, -1)))
        return MatrixStarAlgebra(w_n * b_alg.ambient_dim, tuple(blocks))


def dense_crossed_product(action: DenseAction, tol: float = 1e-8) -> DenseCrossedProduct:
    """B >| W of a dense action validated at tol: SystemError unless every
    beta_w is also unitary on B's orthonormal basis, checked at the
    generators, as only then are the a_(w,i) orthonormal."""
    action.validate(tol)
    k = action.algebra.dim
    gens = action.maps[list(action.group.generators())]
    defect = gens.conj().swapaxes(-2, -1) @ gens - np.eye(k)
    if not np.linalg.norm(defect, axis=(-2, -1)).max(initial=0.0) <= tol * max(k, 1):
        raise SystemError("action does not preserve the trace inner product")
    return DenseCrossedProduct(action)


def dense_outer_action(whole: DenseAction, inner, u_emb: np.ndarray, v_sub):
    """systems._outer_action of a dense action: V acts on B >| U by
    alpha_v(a_(u,i)) = sum_j beta_v[j, i] a_(v u v^-1, j).  Returns
    (alpha, w_of)."""
    g = whole.group
    v_emb = np.array(v_sub.embedding)
    in_u = np.zeros(g.order, dtype=np.intp)
    in_u[u_emb] = np.arange(len(u_emb))
    conj = in_u[g.mul[g.mul[v_emb[:, None], u_emb], g.inv[v_emb][:, None]]]   # [v, u]: v u v^-1
    v_n, u_n, k = len(v_emb), len(u_emb), whole.algebra.dim
    maps = np.zeros((v_n, u_n, k, u_n, k), dtype=complex)
    maps[np.arange(v_n)[:, None], conj, :, np.arange(u_n)] = whole.maps[v_emb][:, None]
    return (DenseAction(v_sub.group, inner.algebra, maps.reshape(v_n, u_n * k, u_n * k)),
            g.mul[u_emb, v_emb[:, None]])


# -- the fixed-point algebra over whole orbits -------------------------------------


def invariant_functions(sys, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The orthonormal invariant functions (k, |X|, d, d), orbit by orbit
    in the order of their least points: the commutant of each least
    point's stabilizer cocycle (systems._least_point_kernels), carried to
    every point of the orbit, found by comparing each point's least point
    with the vector's, and divided by sqrt|O|."""
    d, least = sys.fiber_dim, sys.orbits.least

    def ad(stab, xs):
        i = sys.cocycle[np.ix_(stab, xs)]
        return (i[..., :, None, :, None] * i.conj()[..., None, :, None, :]).reshape(
            len(stab), len(xs), d * d, d * d)

    values, base = _least_point_kernels(sys.orbits, ad, d * d, tol)
    k, y = np.nonzero(base[:, None] == least)
    u = sys.cocycle[sys.orbits.mover[y], least[y]]                   # I_{w,x}, w x = y
    funcs = np.zeros((len(base), sys.n_points, d, d), dtype=complex)
    funcs[k, y] = (u @ values[k].reshape(-1, d, d) @ u.conj().swapaxes(-2, -1)
                   / np.sqrt(np.bincount(least)[base[k]])[:, None, None])
    return funcs


@dataclass(frozen=True)
class CarriedFixedPointAlgebra(MatrixStarAlgebra):
    """A fixed-point algebra that holds its functions (k, |X|, d, d)."""

    functions: np.ndarray = field(kw_only=True, repr=False)


def carried_fixed_point_algebra(sys, tol: float = DEFAULT_TOL) -> CarriedFixedPointAlgebra:
    """systems.fixed_point_algebra from the functions carried over whole
    orbits: the whole k x k Gram matrix of the (k, |X| d^2) functions
    checked against the identity, each function's orbit read at a point
    where it is nonzero, and each orbit's tables read off the pointwise
    products on all of its points (span_tables)."""
    check_tol(tol)
    funcs = invariant_functions(sys, tol)
    k, x_n = len(funcs), sys.n_points
    rows = funcs.reshape(k, -1)
    if not np.abs(rows.conj() @ rows.T - np.eye(k)).max(initial=0.0) <= 10 * tol:
        raise AlgebraError("basis is not orthonormal")
    orbits = sys.orbits
    at = np.abs(rows.reshape(k, x_n, -1)).max(axis=2).argmax(axis=1)
    counts = np.bincount(np.searchsorted(orbits.representatives, orbits.least[at]),
                         minlength=len(orbits.members))
    starts = np.cumsum(counts) - counts
    blocks, worst = [], 0.0
    for (s, _), group in _grouped(zip(counts.tolist(), map(len, orbits.members))).items():
        index = starts[group][:, None] + np.arange(s)
        points = np.array([orbits.members[o] for o in group])
        stack, residual = span_tables(funcs[index[:, :, None], points[:, None, :]], index)
        blocks.append(stack)
        worst = max(worst, residual)
    alg = CarriedFixedPointAlgebra(sys.total_dim, tuple(blocks), worst, functions=funcs)
    alg.validate(tol)
    return alg


def solved_orbit_algebra(sys, tol: float = DEFAULT_TOL) -> CarriedFixedPointAlgebra:
    """C(X/W) solved as the fixed-point algebra of W's action on X with
    scalar fibers and the trivial cocycle (carried_fixed_point_algebra):
    its functions are the orbit indicators over sqrt|O|."""
    ones = np.ones((sys.group.order, sys.n_points, 1, 1), dtype=complex)
    return carried_fixed_point_algebra(EquivariantSystem(
        sys.group, sys.points, sys.action, 1, ones, name=sys.name + "-pts"), tol)


# -- C(X, M_d) and separation, the dense way -------------------------------------


def function_algebra(sys) -> MatrixStarAlgebra:
    """All of C(X, M_d), embedded block-diagonally; dim |X| d^2, one block
    M_d per point, in coordinates against the matrix units.  For d = 1 it
    is systems.scalar_algebra of |X| ones."""
    x_n, d = sys.n_points, sys.fiber_dim
    units = np.broadcast_to(np.eye(d * d, dtype=complex).reshape(d * d, 1, d, d),
                            (x_n, d * d, 1, d, d))
    blocks, residual = span_tables(units, np.arange(x_n * d * d).reshape(x_n, d * d))
    return MatrixStarAlgebra(sys.total_dim, (blocks,), residual)


def algebra_from_span(mats, ambient_dim: int | None = None,
                      tol: float = DEFAULT_TOL) -> MatrixSpan:
    """Wrap an already-*-closed span (orthonormalizes; validates closure)."""
    span = _span_of(mats, ambient_dim, tol)
    span.algebra.validate(max(tol, 1e-8))
    return span


def commutant(span: MatrixSpan, tol: float = DEFAULT_TOL) -> MatrixSpan:
    """{t : tb = bt for every b in the span}, inside the full ambient M_N:
    the Kronecker nullspace, a (k N^2, N^2) matrix."""
    return MatrixSpan(unflatten(intertwiner_rows(span.mats, span.mats, tol), span.ambient_dim))


def projection_range(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the range of a projection p."""
    evals, evecs = np.linalg.eigh((p + p.conj().T) / 2.0)
    return evecs[:, evals > 0.5]


def compress(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The compressed matrices q* m q for orthonormal columns q."""
    return q.conj().T @ mats @ q


def block_restriction(alg: MatrixSpan, block, sub: MatrixSpan, tol: float) -> np.ndarray:
    """Restriction of the subalgebra to one irreducible block slice of A.

    Compress to range(p), where A acts as M_n (x) 1_m and its commutant is
    1_n (x) M_m; a minimal projection in that commutant, one eigenspace of
    a seeded random Hermitian element, cuts a single irreducible copy.
    """
    q = projection_range(alg.element(block.projection))
    comm_p = commutant(algebra_from_span(compress(q, alg.mats), tol=tol), tol)
    rng = np.random.default_rng(7)
    h = comm_p.element(rng.standard_normal(comm_p.dim) + 1j * rng.standard_normal(comm_p.dim))
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    return compress(q @ evecs[:, cluster_values(evals, 1e-7) == 0], sub.mats)


def dense_is_separating(sub: MatrixSpan, alg: MatrixSpan,
                        seed: int = 0, tol: float = DEFAULT_TOL) -> SeparationReport:
    """matalg.is_separating on N x N matrices: B restricted to one copy of
    each of A's blocks (block_restriction), its commutant there for
    irreducibility and the Kronecker intertwiners between two blocks'
    restrictions for equivalence."""
    if not alg.contains(sub.mats, max(tol, 1e-8)):
        raise AlgebraError("first argument is not a subalgebra of the second")
    structure = block_decompose(alg.algebra, seed=seed, tol=tol)
    missing_unit = not sub.contains(alg.element(alg.algebra.unit()), max(tol, 1e-7))
    restrictions = [block_restriction(alg, blk, sub, tol) for blk in structure.blocks]
    reducible = []
    for i, mats in enumerate(restrictions):
        span = generate(mats, ambient_dim=mats.shape[1], tol=tol)
        if commutant(span, tol).dim != 1:
            reducible.append(i)
    merged = []
    for i in range(len(restrictions)):
        for j in range(i + 1, len(restrictions)):
            # A nonzero s with s m1 = m2 s for all basis pairs.
            if intertwiner_rows(restrictions[j], restrictions[i], tol).shape[0]:
                merged.append((i, j))
    separating = not reducible and not merged and not missing_unit
    return SeparationReport(separating, tuple(reducible), tuple(merged), missing_unit)


# -- groups from element tuples ---------------------------------------------------


def table_from_elements(elements, compose, identity) -> np.ndarray:
    """The multiplication table of `elements` under `compose`, the
    identity moved to index 0."""
    elems = list(elements)
    if elems[0] != identity:
        elems.remove(identity)
        elems.insert(0, identity)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.intp)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = pos[compose(a, b)]
    return table


def direct_product_from_pairs(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """g x h with element index a*|H| + b, one pair product at a time."""
    ng, nh = g.order, h.order
    table = np.zeros((ng * nh, ng * nh), dtype=np.intp)
    for a1, b1 in itertools.product(range(ng), range(nh)):
        for a2, b2 in itertools.product(range(ng), range(nh)):
            table[a1 * nh + b1, a2 * nh + b2] = g.mul[a1, a2] * nh + h.mul[b1, b2]
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


def symmetric_from_permutations(n: int) -> FiniteGroup:
    """S_n on its permutation tuples, sorted, with (p q)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(n)))

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    return FiniteGroup(table_from_elements(perms, compose, tuple(range(n))), name=f"S{n}")


def dihedral_from_pairs(order: int) -> FiniteGroup:
    """D_order on pairs (k, f), r^k s^f with s r s = r^-1, flips last."""
    n = order // 2
    elems = [(k, f) for f in (0, 1) for k in range(n)]

    def compose(a, b):
        k1, f1 = a
        k2, f2 = b
        return ((k1 + (k2 if f1 == 0 else -k2)) % n, f1 ^ f2)

    return FiniteGroup(table_from_elements(elems, compose, (0, 0)), name=f"D{order}")


def quaternion_from_units() -> FiniteGroup:
    """Q8 on pairs (sign, unit), the unit products written out."""
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in ("1", "i", "j", "k") for s in (1, -1)]

    def compose(a, b):
        s, u = prod[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return FiniteGroup(table_from_elements(elems, compose, (1, "1")), name="Q8")


def stabilizer_rep(sys: EquivariantSystem, x: int) -> tuple[Subgroup, UnitaryRep]:
    """The stabilizer of point x and its representation w -> I_{w,x}."""
    sub = sys.group.subgroup(sys.orbits.stabilizers[x])
    return sub, UnitaryRep(sub.group, sys.cocycle[list(sub.embedding), x], label=f"I@x{x}")
