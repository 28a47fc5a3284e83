"""Dense oracles that the package no longer carries.

The crossed product B >| W lives in its own coordinates in `equivaria`;
here it is embedded by the regular representation on l^2(W) (x) C^N, with
the covariant-pair relations (1)-(4) that make that embedding's product
table the one read off the structure tensor.  The pairwise ideal test of
matrix spans and the operator norm of a matrix are kept here as well.
"""
import math

import numpy as np

from equivaria.linalg import DEFAULT_TOL, flatten, homomorphism_defect, span_contains
from equivaria.matalg import MatrixStarAlgebra
from equivaria.reps import regular_rep


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def crossed_basis(action) -> np.ndarray:
    """Every a_(w,i) = b_i w / sqrt|W| embedded at once: a (|W| dim B, |W| N,
    |W| N) array, row (w, i).

    The regular embedding is (b w)(delta_v (x) a) = delta_{wv} (x)
    beta_{(wv)^-1}(b) a, so row (w, i) has the block beta_{(wv)^-1}(b_i) /
    sqrt|W| at (wv, v), and each of the |W| twisted bases is built once,
    from the maps scaled by 1 / sqrt|W|.
    """
    g = action.group
    alg = action.algebra
    n, k, w_n = alg.ambient_dim, alg.dim, g.order
    twisted = np.tensordot(action.maps[g.inv] / math.sqrt(w_n), alg.basis, axes=(1, 0))
    out = np.zeros((w_n, k, w_n, n, w_n, n), dtype=complex)
    w, v = np.arange(w_n)[:, None], np.arange(w_n)
    out[w, :, g.mul[w, v], :, v, :] = twisted[g.mul[w, v]]
    return out.reshape(w_n * k, w_n * n, w_n * n)


def embedded_algebra(cp) -> MatrixStarAlgebra:
    """The span of the embedded a_(w,i), with the crossed product's product
    table: the crossed coefficients are coordinates against this basis.
    Its star table and traces are read off the basis; build
    MatrixStarAlgebra(N, crossed_basis(cp.action)) for a product table read
    off it too."""
    emb = crossed_basis(cp.action)
    return MatrixStarAlgebra(emb.shape[1], emb, cp.algebra.structure, 0.0)


def relation_residual(cp) -> float:
    """The largest norm by which the embedding breaks the relations of the
    covariant pair (pi, U) it integrates (Williams, Crossed Products of
    C*-Algebras, 2007, 2.3), with pi(b) acting on delta_v (x) C^N by
    beta_(v^-1)(b) and U_w = lambda_w (x) 1_N:
      (1) a_(w,i) embeds as pi(b_i) U_w / sqrt|W|,
      (2) pi(b_i) pi(b_j) = pi(b_i b_j),
      (3) U_w pi(b_i) U_w* = pi(beta_w(b_i)) and
      (4) U_w U_v = U_wv.
    Then (pi(a) U_w)(pi(b) U_v) = pi(a beta_w(b)) U_wv, the product that the
    structure tensor expands.  Both sides of (1) and (3) carry the
    1 / sqrt|W| of the embedding; (2) is quadratic, so its coefficients are
    scaled back, and it is read in B's coordinates: pi(b_i) must be
    block-diagonal, and its blocks must multiply as B does.  (3) is read at
    W's generators, which with (4) and beta a homomorphism covers W."""
    g, b_alg, maps = cp.group, cp.action.algebra, cp.action.maps
    k, n, w_n = b_alg.dim, b_alg.ambient_dim, g.order
    emb = crossed_basis(cp.action).reshape(w_n, k, w_n * n, w_n * n)
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
    table = b_alg.structure.transpose(2, 0, 1)                     # [m, n, l]
    # [v, i, j, l]: the b_l part of block v of pi(b_i) pi(b_j) - pi(b_i b_j).
    left = c[:, None] @ (c @ table.reshape(k, k * k)).reshape(w_n, k, k, k)
    right = (table.reshape(k * k, k) @ c).reshape(w_n, k, k, k)
    return float(max(
        np.linalg.norm(pair, axis=(-2, -1)).max(),
        np.linalg.norm(covariance, axis=(-2, -1)).max(initial=0.0),
        np.linalg.norm(homomorphism_defect(u, g.mul), axis=(-2, -1)).max(),   # (4)
        np.linalg.norm(outside.reshape(k, -1), axis=1).max(),
        np.linalg.norm(left - right, axis=(0, 3)).max()))


def is_ideal(ideal: MatrixStarAlgebra, alg: MatrixStarAlgebra,
             tol: float = DEFAULT_TOL) -> bool:
    """Two-sided *-closed ideal test of matrix spans: i* and i a stay in the
    span, the oracle of CrossedProduct.is_ideal.

    Each product m may leave the span by at most tol * max(1, |m|).  The
    products are tested one basis element a at a time against the whole
    ideal basis, so memory stays O(dim I * N^2) whatever dim A is.  A is
    *-closed, so once I* = I holds, a i = (i* a*)* lies in I because i* a*
    does: the left products need no test of their own.
    """
    if ideal.dim == 0:
        return True
    if not alg.contains(ideal.basis, max(tol, 1e-8)):
        return False
    rows = ideal.basis_rows()
    if not span_contains(rows, flatten(np.conj(np.transpose(ideal.basis, (0, 2, 1)))), tol):
        return False
    return all(span_contains(rows, flatten(ideal.basis @ a), tol) for a in alg.basis)
