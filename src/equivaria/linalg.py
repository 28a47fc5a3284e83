"""Dense linear-algebra helpers shared by all modules.

Subspaces of C^D are represented as arrays of shape (k, D) whose rows are
orthonormal.  Matrices are flattened row-major, so the standard inner
product of flattened matrices equals the trace inner product trace(a* b).
"""
from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9

# Complex entries of rows that span_contains projects at once.
_SPAN_SLAB = 1 << 20
# Entries from which a wide matrix is reduced by QR before its SVD.
_WIDE_REDUCTION = 1500


def flatten(mats: np.ndarray) -> np.ndarray:
    """Flatten an array of matrices (..., n, m) to vectors (..., n*m)."""
    mats = np.asarray(mats, dtype=complex)
    n, m = mats.shape[-2:]
    return mats.reshape(mats.shape[:-2] + (n * m,))


def unflatten(vecs: np.ndarray, n: int, m: int | None = None) -> np.ndarray:
    if m is None:
        m = n
    vecs = np.asarray(vecs, dtype=complex)
    return vecs.reshape(vecs.shape[:-1] + (n, m))


def orthonormal_rows(vectors: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of `vectors`."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.size == 0:
        return np.zeros((0, vectors.shape[-1]), dtype=complex)
    vh, rank = _right_singular(vectors, tol, full=False)
    return vh[:rank]


def _right_singular(matrix: np.ndarray, tol: float, full: bool) -> tuple[np.ndarray, int]:
    """(Vh, rank) of the SVD of a nonempty matrix, keeping s > tol max(s_0, 1).

    The floor on the scale makes an all-roundoff matrix read as rank zero.
    A tall matrix has the singular values and right singular vectors of its
    n x n R factor, so it is reduced first and its m x n U is never formed.
    `full` asks for all n right singular vectors, which a kernel needs.
    Otherwise a wide M = R* Q* (M* = Q R) is cut through the m x m R*
    (Chan's R-SVD) when twice as wide as tall and of _WIDE_REDUCTION entries.
    """
    m, n = matrix.shape
    if m > n:
        matrix = np.linalg.qr(matrix, mode="r")
    elif not full and 2 * m <= n and m * n >= _WIDE_REDUCTION:
        q, r = np.linalg.qr(matrix.conj().T)
        vh, rank = _right_singular(r.conj().T, tol, full)
        return vh @ q.conj().T, rank
    _, s, vh = np.linalg.svd(matrix, full_matrices=full and m < n)
    return vh, int(np.sum(s > rank_threshold(s, tol)))


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < 1.

    At tol >= 1 or NaN the rule s > tol max(s_0, 1) keeps no singular
    value, so every rank would be 0 and every span test would pass; at
    tol <= 0 it keeps rounding noise.
    """
    if not 0 < tol < 1:
        raise ValueError("tolerance must lie strictly between 0 and 1")


def rank_threshold(values: np.ndarray, tol: float) -> float:
    """tol max(s_0, 1) for the singular values `values` of one matrix, s_0
    the largest: the dense rule keeps the values above it."""
    return tol * max(float(np.max(values, initial=0.0)), 1.0)


def nullspace_rows(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the kernel of `matrix` (acting on columns)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if matrix.shape[0] == 0:
        return np.eye(matrix.shape[1], dtype=complex)
    vh, rank = _right_singular(matrix, tol, full=True)
    return vh[rank:].conj()


def intertwiner_rows(left, right, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning {s : left[i] s = s right[i] for every i}.

    `left` stacks p x p and `right` q x q matrices; each row is a p x q
    matrix s flattened row-major, for which vec(a s - s b) =
    (a (x) 1 - 1 (x) b^T) vec(s).  An empty stack constrains nothing.
    """
    p, q = np.shape(left)[-1], np.shape(right)[-1]
    ops = [np.kron(a, np.eye(q)) - np.kron(np.eye(p), b.T) for a, b in zip(left, right)]
    return nullspace_rows(np.vstack(ops) if ops else np.zeros((0, p * q)), tol)


def row_residuals(basis_rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Distance from each row of `vecs` to the span of the orthonormal rows.

    Stacks (..., k, D) of bases and (..., r, D) of rows pair up along their
    leading axes; zero rows in a basis add nothing to its span.
    """
    diff = (vecs @ basis_rows.conj().swapaxes(-1, -2)) @ basis_rows
    diff -= vecs
    return np.linalg.norm(diff, axis=-1)


def span_contains(basis_rows: np.ndarray, vecs: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Does each row v of `vecs` lie within tol * max(1, |v|) of the span?

    Stacks pair up as in row_residuals.  The rows are tested a slab at a
    time, so the transient residuals hold at most about 2^20 entries however
    many rows there are.
    """
    vecs = np.atleast_2d(np.asarray(vecs, dtype=complex))
    step = max(1, _SPAN_SLAB // max(math.prod(vecs.shape[:-2]) * vecs.shape[-1], 1))
    for s in range(0, vecs.shape[-2], step):
        chunk = vecs[..., s:s + step, :]
        bound = tol * np.maximum(1.0, np.linalg.norm(chunk, axis=-1))
        if np.any(row_residuals(basis_rows, chunk) > bound):
            return False
    return True


def spans_equal(a_rows: np.ndarray, b_rows: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if a_rows.shape[0] != b_rows.shape[0]:
        return False
    return span_contains(a_rows, b_rows, tol) and span_contains(b_rows, a_rows, tol)


def homomorphism_defect(mats: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """[g, h] = mats[gh] - mats[g] mats[h] for a group's multiplication
    table `mul`: zero exactly when the matrices are a homomorphism."""
    return mats[mul] - mats[:, None] @ mats[None]


def cluster_values(values: np.ndarray, gap: float) -> np.ndarray:
    """Cluster labels of ascending real values (..., s), each row on its
    own: a value more than `gap` above the one before starts a new cluster,
    and clusters are numbered from 0."""
    starts = np.diff(values, axis=-1) > gap
    return np.concatenate([np.zeros(starts.shape[:-1] + (1,), dtype=np.intp),
                           np.cumsum(starts, axis=-1)], axis=-1)


def component_labels(link: np.ndarray) -> np.ndarray:
    """The connected components of the graph with adjacency `link` (n, n),
    each node labeled with the least node of its component: each node takes
    the least label among itself and its neighbours, then that label's
    label, until nothing changes."""
    link = link | link.T
    n = link.shape[0]
    labels = np.arange(n)
    while True:
        low = np.minimum(np.where(link, labels, n).min(axis=1, initial=n), labels)
        new = low[low]
        if np.array_equal(new, labels):
            return labels
        labels = new


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0
