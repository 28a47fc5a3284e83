"""Finite-dimensional Hilbert C*-modules and Morita-equivalence witnesses.

A module is a carrier space C^m with a right action of a *-algebra B and a
B-valued inner product, conjugate-linear in the first argument.  The
compact operators K_B(E) are the span of the rank-one maps
|eta><xi| : zeta -> eta <xi|zeta>.  Module adjoints are taken with respect
to the faithful scalar form tau(<xi|eta>), tau the trace state of B, which
is tau(b_k) = tr b_k / sum_l |tr b_l|^2 on B's basis; conjugating by the
square root of the Gram matrix turns the module adjoint into the ordinary
conjugate transpose, so K_B(E) becomes an honest matrix *-algebra.

Inner values live in one coordinate system, B's orthonormal basis: a module
stores <e_p|e_q> as an (m, m, dim B) coefficient array, so its values lie
in B by construction, and B is read through its tables only: the Gram
matrix through its traces, norms through its left-regular matrices, and the
axioms, Cauchy-Schwarz and the Morita witness's samples through its product
and star tables.  `act` takes and `inner_product` returns B's elements as
coordinate vectors, never as N x N matrices, and both raise ModuleError on
arrays of the wrong size.  The rank-one maps (one or all m^2 of them), the
Gram matrix, the fullness ideal and the averaged (Green-Julg) module over
B >| W are built from the coefficients with a few matrix products, never
with per-pair loops.  Over B >| W the coordinates are the crossed product's
coefficients, the coordinates of its algebra, so no inner value is
embedded.  Values that arrive as matrices (the quotient module's functions)
pass through one checked conversion, which raises ModuleError when a value
leaves the span.  The Green-Julg check needs no module over B >| W at all:
a rank-one map is the same operator in any basis of B >| W, so the averaged
compacts come from the crossed coefficients and the maps of the same basis,
and K_B(E)^W is solved in the coordinates of K_B(E).  `compact_operators`
cuts the rank of the m^2 rank-one maps one carrier component at a time
(`carrier_components`; the points or orbits of the function modules): the
stack of all the maps is block diagonal, one block per component, so its
singular values are the blocks' together, and dense SVDs of the blocks cut
at the whole stack's scale are the dense rule exactly; `is_full` and the
Morita witness take their ranks on the same carrier pairs.  A module of one
component is one block, the only case in which the cut forms the m^4 stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup
from .linalg import (
    DEFAULT_TOL,
    check_tol,
    component_labels,
    flatten,
    homomorphism_defect,
    nullspace_rows,
    orthonormal_rows,
    rank_threshold,
    row_residuals,
    span_contains,
    spans_equal,
    unflatten,
)
from .matalg import Blocks, MatrixStarAlgebra, restricted_algebra
from .systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    crossed_product,
)


class ModuleError(ValueError):
    pass


# Samples drawn by FDHilbertModule.axiom_residuals.
_AXIOM_SAMPLES = 20
# Relative Gram eigenvalue below which a module's scalar form is degenerate.
_DEGENERATE = 1e-10


def _act(action: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x . b for stacks of carrier vectors x (..., m) and B-coefficients c (..., k)."""
    return (np.tensordot(c, action, axes=1) @ x[..., None])[..., 0]


def _inner_values(inner: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x|y> in B's coordinates for stacks of carrier vectors (..., m)."""
    m, _, k = inner.shape
    return (y[..., None, :] @ (x.conj() @ inner.reshape(m, -1)).reshape(*x.shape, k))[..., 0, :]


def _checked_coefficients(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients (..., k) of vectors values (..., D) against orthonormal
    rows (k, D), for values that must lie in their span: each may leave it
    by 1e-8 max(1, |v|) at most, or ModuleError is raised."""
    flat = values.reshape(-1, rows.shape[1])
    if not span_contains(rows, flat, 1e-8):
        raise ModuleError("inner products leave the coefficient algebra")
    return (flat @ rows.conj().T).reshape(*values.shape[:-1], rows.shape[0])


@dataclass(frozen=True)
class FDHilbertModule:
    """A Hilbert module over a matrix *-algebra, given by two tensors.

    `action[k]` is the carrier matrix of the right action of basis element k;
    `inner[i, j]` is <e_i | e_j> expanded in B's orthonormal basis.
    """

    algebra: MatrixStarAlgebra
    action: np.ndarray  # (dim B, m, m)
    inner: np.ndarray   # (m, m, dim B)
    name: str = ""

    def __post_init__(self):
        action = np.asarray(self.action, dtype=complex)
        inner = np.asarray(self.inner, dtype=complex)
        m = action.shape[1] if action.ndim == 3 else inner.shape[0]
        if action.shape != (self.algebra.dim, m, m):
            raise ModuleError("action tensor has wrong shape")
        if inner.shape != (m, m, self.algebra.dim):
            raise ModuleError("inner tensor has wrong shape")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "inner", inner)

    @property
    def carrier_dim(self) -> int:
        return self.action.shape[1]

    def _carrier(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.ndim == 0 or x.shape[-1] != self.carrier_dim:
            raise ModuleError("carrier vectors must have the carrier's size on their last axis")
        return x

    def act(self, xi: np.ndarray, c: np.ndarray) -> np.ndarray:
        """xi . b for the algebra element b with coordinates c (..., dim B),
        a stack no deeper than xi's; not an N x N matrix."""
        xi = self._carrier(xi)
        c = np.asarray(c, dtype=complex)
        if c.ndim == 0 or c.shape[-1] != self.algebra.dim or c.ndim > xi.ndim:
            raise ModuleError("algebra elements are coordinate vectors of size dim B, "
                              "stacked no deeper than the carrier vectors")
        return _act(self.action, xi, c)

    def inner_product(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """The coordinates (..., dim B) of <xi | eta> in B, conjugate-linear
        in xi; not an N x N matrix."""
        return _inner_values(self.inner, self._carrier(xi), self._carrier(eta))

    def norm(self, xi: np.ndarray) -> float:
        """|<xi|xi>|^(1/2), the operator norm read off B's table."""
        return float(np.sqrt(max(self.algebra.norm(self.inner_product(xi, xi)), 0.0)))

    # -- the scalar form and the Gram transform ------------------------------

    def gram(self) -> np.ndarray:
        """G[i, j] = tau(<e_i | e_j>): the faithful scalar inner product.

        As e b_k = b_k for B's unit e, tau(b_k) = tr b_k / tr e, where
        tr e = sum_l |tr b_l|^2 is the squared norm of unit()'s coordinates;
        unit() raises AlgebraError for a span without a unit.  Built once and
        kept on the instance.
        """
        return self._gram

    @cached_property
    def components(self) -> list[np.ndarray]:
        """The carrier components of the module's tensors (carrier_components)."""
        return carrier_components(self.action, self.inner)

    @cached_property
    def _gram(self) -> np.ndarray:
        g = self.inner @ self.algebra.traces / np.linalg.norm(self.algebra.unit()) ** 2
        return (g + g.conj().T) / 2.0

    def gram_sqrt(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, S^-1) with S = G^(1/2); requires a definite inner product."""
        g = self.gram()
        evals, evecs = np.linalg.eigh(g)
        if self.carrier_dim and evals.min() < _DEGENERATE * max(evals.max(), 1.0):
            raise ModuleError("inner product is degenerate on the carrier")
        s = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
        s_inv = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
        return s, s_inv

    def module_adjoint(self, t: np.ndarray) -> np.ndarray:
        """The adjoint of a carrier operator (or a stack) w.r.t. the scalar form."""
        g = self.gram()
        return np.linalg.solve(g, t.conj().swapaxes(-1, -2) @ g)

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        m = self.carrier_dim
        return rng.standard_normal(m) + 1j * rng.standard_normal(m)

    # -- axiom residuals ------------------------------------------------------

    def axiom_residuals(self, rng: np.random.Generator | None = None) -> dict:
        """Numeric residuals of the Hilbert-module axioms.

        Keys: bimodule, compatibility, symmetry, positivity, definiteness.
        The values lie in B by construction, and completeness holds
        automatically at finite dimension; neither is measured.  Each of the
        _AXIOM_SAMPLES samples draws xi, eta, b1 and b2 in turn, real parts
        before imaginary ones, and every residual is divided by that
        sample's max(1, |xi| |eta|, |b1| |b2|); all are evaluated at once.
        Elements of B are read in its coordinates, where the norm of a
        difference is its trace norm, the operator norm is that of the
        left-regular matrix, and positivity is that of its Hermitian part,
        the left-regular representation being a faithful one.
        """
        rng = rng or np.random.default_rng(0)
        b_alg = self.algebra
        m, k = self.carrier_dim, b_alg.dim
        draws = rng.standard_normal((_AXIOM_SAMPLES, 4 * m + 4 * k))
        parts = np.split(draws, np.cumsum([m, m, m, m, k, k, k]), axis=1)
        xi, eta, c1, c2 = (re + 1j * im for re, im in zip(parts[::2], parts[1::2]))
        act, inner, star = self.act, self.inner_product, b_alg.adjoint

        def norms(a):
            return np.linalg.norm(a, axis=1)

        scale = np.maximum(1.0, np.maximum(norms(xi) * norms(eta),
                                           b_alg.norm(c1) * b_alg.norm(c2)))
        # (xi b1) b2 = xi (b1 b2)
        bimodule = norms(act(act(xi, c1), c2) - act(xi, b_alg.multiply(c1, c2)))
        # <xi b1 | eta b2> = b1* <xi|eta> b2
        compatibility = norms(inner(act(xi, c1), act(eta, c2))
                              - b_alg.multiply(b_alg.multiply(star(c1), inner(xi, eta)), c2))
        # <eta|xi> = <xi|eta>*
        symmetry = norms(inner(eta, xi) - star(inner(xi, eta)))
        # <xi|xi> >= 0
        q = inner(xi, xi)
        positivity = norms(q - star(q)) + np.maximum(0.0, -_lowest(b_alg, (q + star(q)) / 2.0))
        res = {key: float(np.max(value / scale, initial=0.0)) for key, value in (
            ("bimodule", bimodule), ("compatibility", compatibility),
            ("symmetry", symmetry), ("positivity", positivity))}
        res["definiteness"] = 0.0
        if m:
            evals = np.linalg.eigvalsh(self.gram())
            res["definiteness"] = max(0.0, -float(evals.min())) + \
                (1.0 if evals.min() < _DEGENERATE * max(evals.max(), 1.0) else 0.0)
        return res

    def validate(self, tol: float = 1e-8, rng=None) -> None:
        res = self.axiom_residuals(rng)
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise ModuleError(f"Hilbert-module axioms violated: {bad}")

    def cauchy_schwarz_residual(self, xi: np.ndarray, eta: np.ndarray) -> float:
        """Violation of <eta|xi><xi|eta> <= ||xi||^2 <eta|eta> (0 if it holds),
        read in B's coordinates."""
        b_alg = self.algebra
        lhs = b_alg.multiply(self.inner_product(eta, xi), self.inner_product(xi, eta))
        gap = self.norm(xi) ** 2 * self.inner_product(eta, eta) - lhs
        return max(0.0, -float(_lowest(b_alg, (gap + b_alg.adjoint(gap)) / 2.0)))


def _lowest(b_alg: MatrixStarAlgebra, h: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each Hermitian element of B (coordinates
    (..., k)), from the blocks of its left-regular matrix, whose spectrum
    is the element's in B."""
    lows = [np.linalg.eigvalsh(lh)[..., 0].min(axis=-1) for lh in b_alg.left_regular(h)]
    return np.min(lows, axis=0) if lows else np.zeros(h.shape[:-1])


# -- standard constructions ---------------------------------------------------


def standard_module(b_alg: MatrixStarAlgebra) -> FDHilbertModule:
    """B as a module over itself with <b1|b2> = b1* b2: action[j] is right
    multiplication by b_j, and the inner values are the products b_i* b_j."""
    eye = np.eye(b_alg.dim)
    action = b_alg.multiply(eye[:, None], eye).transpose(1, 2, 0)
    inner = b_alg.multiply(b_alg.adjoint(eye)[:, None], eye)
    return FDHilbertModule(b_alg, action, inner, name="standard")


def scalar_algebra(n_points: int) -> MatrixStarAlgebra:
    """C(X) for |X| = n_points, the diagonal algebra in M_{|X|}: one block
    C per point, in coordinates against the point indicators."""
    ones = np.ones((n_points, 1, 1, 1), dtype=complex)
    return MatrixStarAlgebra(n_points, (Blocks(np.arange(n_points)[:, None], ones,
                                               ones[..., 0], ones[..., 0, 0]),))


def function_module(sys: EquivariantSystem) -> FDHilbertModule:
    """C(X, C^d) over C(X): pointwise action and inner product."""
    x_n, d = sys.n_points, sys.fiber_dim
    b_alg = scalar_algebra(x_n)
    m = x_n * d
    action = np.zeros((x_n, m, m), dtype=complex)
    inner = np.zeros((m, m, x_n), dtype=complex)
    p = np.arange(m)
    # e_p lives at point p // d: <e_p|e_p> is that point's basis element.
    action[p // d, p, p] = 1.0
    inner[p, p, p // d] = 1.0
    return FDHilbertModule(b_alg, action, inner, name="function")


def free_module(n: int) -> FDHilbertModule:
    """C^n over C (the scalars realized as M_1)."""
    b_alg = scalar_algebra(1)
    action = np.eye(n, dtype=complex)[None]
    return FDHilbertModule(b_alg, action, np.eye(n, dtype=complex)[..., None], name="free")


# -- compact operators ---------------------------------------------------------


def rank_one(e: FDHilbertModule, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """|eta><xi| : zeta -> eta <xi|zeta>, as a raw carrier matrix.

    Column l is eta . <xi|e_l>, with <xi|e_l> expanded in B's basis.
    """
    return (np.tensordot(np.conj(xi), e.inner, axes=1) @ (e.action @ eta)).T


@dataclass(frozen=True)
class CompactOperators:
    """K_B(E) as raw carrier matrices, orthonormal rows spanning the rank-one
    maps, with `rank_margin`, sigma_r / sigma_(r+1) of their rank cut over all
    blocks, infinite when nothing is kept or nothing is dropped."""

    module: FDHilbertModule
    raw_rows: np.ndarray        # orthonormal rows spanning raw compacts
    rank_margin: float


def _rank_one_maps(action: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """All |e_i><e_j| as one (m, m, m, m) array indexed [i, j, row, col],
    for each of any leading axes the two arrays share.

    `action[k]` is the carrier map of the k-th algebra element and
    `coefficients[j, l, k]` the k-th coefficient of <e_j|e_l> against the
    same elements; they need not be a basis, since a rank-one map is the
    same operator however its inner values are expanded.  Column l of
    |e_i><e_j| is e_i . <e_j|e_l>, so |e_i><e_j| is the (m, k) x (k, m)
    product of [p, k] = action[k, p, i] with [k, l] = coefficients[j, l, k].
    One batched matmul over (i, j) writes every map in place, so no
    transposed copy of the m^4 entries is made.
    """
    left = np.ascontiguousarray(np.swapaxes(action, -3, -1))          # [i, p, k]
    right = np.ascontiguousarray(np.swapaxes(coefficients, -2, -1))   # [j, k, l]
    return left[..., :, None, :, :] @ right[..., None, :, :, :]


def carrier_components(action: np.ndarray, coefficients: np.ndarray) -> list[np.ndarray]:
    """The connected components of the carrier indices, each as sorted
    indices, in order of their least index.

    For `action` and `coefficients` as _rank_one_maps takes them, i and p
    are linked when some action[k, p, i] != 0, j and l when some
    coefficients[j, l, k] != 0, and i and j when one k has a nonzero
    action[k, :, i] and a nonzero coefficients[j, :, k].  Entry (p, l) of
    |e_i><e_j| is sum_k action[k, p, i] coefficients[j, l, k], so it is
    nonzero only when i, j, p and l lie in one component.  A roundoff-sized
    entry only merges two components, which still split the maps.
    """
    nz_action = action != 0                                           # [k, p, i]
    nz_coeff = coefficients != 0                                      # [j, l, k]
    shared = nz_coeff.any(axis=1).astype(float) @ nz_action.any(axis=1).astype(float)
    link = nz_action.any(axis=0) | nz_coeff.any(axis=2) | (shared > 0)
    labels = component_labels(link)
    return [np.flatnonzero(labels == c) for c in np.unique(labels)]


def _compact_rows(action: np.ndarray, coefficients: np.ndarray, tol: float,
                  parts: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """(rows, margin): orthonormal rows (r, m^2) spanning the rank-one
    maps and the margin sigma_r / sigma_(r+1) of their rank cut over all
    blocks (CompactOperators.rank_margin), as compact_operators describes,
    for the carrier components `parts` of the two arrays.
    """
    m = action.shape[-1]
    if m == 0:
        return np.zeros((0, 0), dtype=complex), np.inf
    blocks = []      # (values, right singular vectors, each block's coordinates)
    for size in sorted({part.size for part in parts}):
        idx = np.stack([part for part in parts if part.size == size])   # [g, a]
        pairs = idx[:, :, None], idx[:, None, :]
        maps = _rank_one_maps(action[:, pairs[0], pairs[1]].swapaxes(0, 1),
                              coefficients[pairs])
        _, s, vh = np.linalg.svd(maps.reshape(len(idx), size ** 2, size ** 2),
                                 full_matrices=False)
        flat = (pairs[0] * m + pairs[1]).reshape(len(idx), size ** 2)
        blocks.append((s.ravel(), vh.reshape(-1, size ** 2), flat))
    values = np.concatenate([s for s, _, _ in blocks])
    threshold = rank_threshold(values, tol)
    # Value i of one size's blocks comes from block i // size^2.
    kept = [(vh[s > threshold], flat[np.flatnonzero(s > threshold) // flat.shape[1]])
            for s, vh, flat in blocks]
    rows = np.zeros((int(np.sum(values > threshold)), m * m), dtype=complex)
    offset = 0
    for vh, flat in kept:
        rows[offset + np.arange(len(vh))[:, None], flat] = vh
        offset += len(vh)
    dropped = values[values <= threshold].max(initial=0.0)
    margin = np.inf if rows.shape[0] == 0 or dropped == 0.0 \
        else float(values[values > threshold].min() / dropped)
    return rows, margin


def compact_operators(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> CompactOperators:
    """Span of the rank-one module maps, closed as a matrix *-algebra.

    |e_i><e_j| is nonzero only at (p, l) with i, j, p, l in one carrier
    component S, so the m^2 maps form one (s^2, s^2) block per component,
    and zero rows for pairs from two components.  Each block is cut by a
    dense SVD (batched by size) at the whole stack's scale
    tol max(max_S s_0(S), 1), which keeps exactly what the dense SVD of all
    m^2 maps keeps.  The SVDs cost about sum_S s^6, so a module of one
    component of s = m carriers pays m^6 for its one dense block.
    ModuleError unless the module's scalar form is definite (gram_sqrt).
    """
    check_tol(tol)
    e.gram_sqrt()
    raw_rows, margin = _compact_rows(e.action, e.inner, tol, e.components)
    return CompactOperators(e, raw_rows, margin)


def fullness_ideal(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """span{<xi|eta>} inside B, in coordinates against orthonormal rows of
    B's (restricted_algebra); an ideal of B, all of B iff E is full.

    The span is taken on the (m^2, dim B) inner coefficients, which have the
    singular values of the values themselves, since B's basis is
    orthonormal.
    """
    m = e.carrier_dim
    return restricted_algebra(e.algebra,
                              orthonormal_rows(e.inner.reshape(m * m, e.algebra.dim), tol))


def _in_component(e: FDHilbertModule) -> np.ndarray:
    """The flat indices p m + l of the carrier pairs (p, l) that lie in one
    carrier component (carrier_components): off them every rank-one map
    and every inner value <e_p|e_l> is zero."""
    m = e.carrier_dim
    return np.concatenate([(p[:, None] * m + p).ravel() for p in e.components] + [[]]).astype(int)


def is_full(e: FDHilbertModule, tol: float = 1e-8) -> bool:
    """Is fullness_ideal(e, tol) all of B?  Only the rank of the inner
    coefficients <e_p|e_l> with p and l in one carrier component is taken,
    at `tol`; the others are zero, and the ideal is not embedded."""
    values = e.inner.reshape(e.carrier_dim ** 2, e.algebra.dim)[_in_component(e)]
    return orthonormal_rows(values, tol).shape[0] == e.algebra.dim


# -- equivariant modules -------------------------------------------------------


@dataclass(frozen=True)
class EquivariantModule:
    """A Hilbert B-module with compatible group actions gamma (on E), beta (on B)."""

    base: FDHilbertModule
    beta: AlgebraAction
    gamma: np.ndarray  # (|W|, m, m)

    @property
    def group(self) -> FiniteGroup:
        return self.beta.group

    def validate(self, tol: float = 1e-8, rng=None) -> None:
        """Check the base module, beta and gamma, then gamma_w(xi b) =
        gamma_w(xi) beta_w(b) and <gamma_w xi|gamma_w eta> = beta_w(<xi|eta>)
        on four samples per w at once; the first failure in the order
        (w, sample, check) raises."""
        self.base.validate(tol, rng)
        self.beta.validate(tol)
        g = self.group
        m = self.base.carrier_dim
        if self.gamma.shape != (g.order, m, m):
            raise ModuleError("gamma has wrong shape")
        if np.linalg.norm(self.gamma[0] - np.eye(m)) > tol * max(m, 1):
            raise ModuleError("gamma at the identity is not the identity")
        hom = homomorphism_defect(self.gamma, g.mul)
        if np.linalg.norm(hom, axis=(-2, -1)).max() > tol * max(m, 1):
            raise ModuleError("gamma is not a group homomorphism")
        rng = rng or np.random.default_rng(1)
        b_alg, action, inner = self.base.algebra, self.base.action, self.base.inner
        k = b_alg.dim
        # Each sample draws xi, eta, then b's coefficients, real parts first.
        parts = np.split(rng.standard_normal((g.order, 4, 4 * m + 2 * k)),
                         np.cumsum([m, m, m, m, k]), axis=-1)
        xi, eta, c = (re + 1j * im for re, im in zip(parts[::2], parts[1::2]))
        # Transposed, gamma_w and beta_w act on the rows of the samples.
        gamma, beta = self.gamma.swapaxes(1, 2), self.beta.maps.swapaxes(1, 2)
        gx, size = xi @ gamma, np.linalg.norm(xi, axis=-1)
        op = b_alg.norm(c)                                                 # |b|_op
        # [w, sample, check]; inner values in B's coordinates, whose norm is
        # the trace norm.
        bad = np.stack([
            np.linalg.norm(_act(action, xi, c) @ gamma - _act(action, gx, c @ beta), axis=-1)
            > tol * np.maximum(1.0, size * np.maximum(1.0, op)),
            np.linalg.norm(_inner_values(inner, gx, eta @ gamma)
                           - _inner_values(inner, xi, eta) @ beta, axis=-1)
            > tol * np.maximum(1.0, size * np.linalg.norm(eta, axis=-1))], axis=-1)
        if bad.any():
            w, _, check = np.unravel_index(bad.argmax(), bad.shape)
            raise ModuleError((f"gamma_w(xi b) != gamma_w(xi) beta_w(b) at w={w}",
                               f"inner product is not equivariant at w={w}")[check])


def scalar_translation_action(sys: EquivariantSystem) -> AlgebraAction:
    """C(X) (diagonal in M_{|X|}) with the translation action of W:
    beta_w(f)(x) = f(w^-1 x), the permutations beta_w(delta_y) = delta_(wy)
    built from the action table alone."""
    g, x_n = sys.group, sys.n_points
    maps = np.zeros((g.order, x_n, x_n), dtype=complex)
    maps[np.arange(g.order)[:, None], np.arange(x_n), sys.action[g.inv]] = 1.0
    return AlgebraAction(g, scalar_algebra(x_n), maps)


def equivariant_function_module(sys: EquivariantSystem) -> EquivariantModule:
    """C(X, C^d) with gamma_w xi(x) = I_{w, w^-1 x} xi(w^-1 x), and beta
    translating the base module's own C(X) (scalar_translation_action)."""
    base = function_module(sys)
    g = sys.group
    x_n, d = sys.n_points, sys.fiber_dim
    gamma = np.zeros((g.order, x_n, d, x_n, d), dtype=complex)
    w, pre = np.arange(g.order)[:, None], sys.action[g.inv]               # [w, x]: w^-1 x
    gamma[w, np.arange(x_n), :, pre, :] = sys.cocycle[w, pre]
    beta = AlgebraAction(g, base.algebra, scalar_translation_action(sys).maps)
    return EquivariantModule(base, beta, gamma.reshape(g.order, x_n * d, x_n * d))


def trivial_equivariant_module(e: FDHilbertModule,
                               group: FiniteGroup) -> EquivariantModule:
    maps = np.tile(np.eye(e.algebra.dim, dtype=complex), (group.order, 1, 1))
    gamma = np.tile(np.eye(e.carrier_dim, dtype=complex), (group.order, 1, 1))
    return EquivariantModule(e, AlgebraAction(group, e.algebra, maps), gamma)


# -- crossed-product and averaged modules --------------------------------------


def green_julg_module(eq: EquivariantModule,
                      cp: CrossedProduct | None = None) -> tuple[FDHilbertModule, CrossedProduct]:
    """E as a module over B >| W: xi . bw = gamma_{w^-1}(xi b), averaged inner.

    The inner product is <<xi|eta>> = sum_w <xi|gamma_w eta> w.  Both tensors
    are built in crossed coefficients, (w, i) for a_(w,i) = b_i w / sqrt|W|,
    the coordinates of cp.algebra, which is the module's algebra.
    """
    base = eq.base
    cp = cp or crossed_product(eq.beta)
    m = base.carrier_dim
    action = _averaged_maps(eq).reshape(cp.dim, m, m)
    inner = averaged_inner_coefficients(eq).reshape(m, m, cp.dim)
    return FDHilbertModule(cp.algebra, action, inner,
                           name=(base.name or "module") + "-averaged"), cp


def _averaged_maps(eq: EquivariantModule) -> np.ndarray:
    """(|W|, dim B, m, m): the carrier map gamma_{w^-1} R_{b_i} / sqrt|W| by
    which a_(w,i) = b_i w / sqrt|W| acts on the averaged module."""
    gamma = eq.gamma[eq.group.inv] / np.sqrt(eq.group.order)
    return gamma[:, None] @ eq.base.action[None]


def averaged_inner_coefficients(eq: EquivariantModule) -> np.ndarray:
    """<<e_p|e_q>> = sum_w <e_p|gamma_w e_q> w in crossed coefficients.

    An (m, m, |W|, dim B) array: <e_p|gamma_w e_q> w has the coefficients
    sqrt|W| sum_j gamma_w[j, q] <e_p|e_j> against the a_(w,i).  One product
    per p, with gamma's columns scaled first, writes it in this layout, so
    reshaping it copies nothing.
    """
    m, w_n = eq.base.carrier_dim, eq.group.order
    by_column = eq.gamma.transpose(2, 0, 1).reshape(m * w_n, m) * np.sqrt(w_n)  # [(q, w), j]
    return (by_column @ eq.base.inner).reshape(m, m, w_n, eq.base.algebra.dim)


def invariant_compacts_rows(eq: EquivariantModule,
                            compacts: CompactOperators | None = None,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """Raw-coordinate span of K_B(E)^W = {k : gamma_w k = k gamma_w}.

    Solved in the coordinates of K_B(E): with R the r orthonormal raw rows
    of the compacts, read as matrices K_i, the invariant compacts are c R
    for the c in C^r with sum_i c_i (gamma_g K_i - K_i gamma_g) = 0 at every
    generator g, one kernel of a (|gens| m^2, r) matrix.  c and R have
    orthonormal rows, so c R does too.
    """
    compacts = compacts or compact_operators(eq.base, tol)
    rows = compacts.raw_rows
    m, r = eq.base.carrier_dim, rows.shape[0]
    mats = unflatten(rows, m)
    gamma = eq.gamma[list(eq.group.generators())][:, None]
    comm = gamma @ mats - mats @ gamma                      # [g, i, p, q]
    columns = comm.transpose(0, 2, 3, 1).reshape(gamma.shape[0] * m * m, r)
    return nullspace_rows(columns, tol) @ rows


@dataclass(frozen=True)
class GreenJulgVerdict:
    ok: bool
    averaged_compacts_dim: int
    invariant_compacts_dim: int
    residual: float


def _averaged_compacts_rows(eq: EquivariantModule, tol: float) -> np.ndarray:
    """Raw-coordinate span of K_{B >| W}(E), from crossed coefficients.

    |e_p><e_q| is the same operator whatever basis of B >| W its inner
    values are expanded in, so the averaged module's rank-one maps are built
    from the |W| dim B maps of the a_(w,i) and the inner values in crossed
    coefficients, without the module's algebra.  Their rank is cut one
    carrier component at a time, as in compact_operators; the components
    are the orbits.
    """
    eq.beta.validate()
    maps = _averaged_maps(eq)
    w_n, k, m = maps.shape[:3]
    maps, values = maps.reshape(w_n * k, m, m), averaged_inner_coefficients(eq).reshape(m, m, -1)
    return _compact_rows(maps, values, tol, carrier_components(maps, values))[0]


def verify_green_julg(eq: EquivariantModule, tol: float = 1e-8) -> GreenJulgVerdict:
    """K_{B >| W}(E) = K_B(E)^W, compared as raw spans on the carrier.

    Both sides are found in coefficient space at `tol`: the averaged
    compacts from the rank-one maps in crossed coefficients, cut one
    carrier component at a time, and the invariant compacts as a kernel in
    the coordinates of K_B(E).  Neither the embedded crossed product, the
    averaged module nor the Kronecker commutant of gamma is built.
    """
    check_tol(tol)
    lhs = _averaged_compacts_rows(eq, tol)
    inv_rows = invariant_compacts_rows(eq, tol=tol)
    ok = spans_equal(lhs, inv_rows, tol)
    resid = float(max(row_residuals(inv_rows, lhs).max(initial=0.0),
                      row_residuals(lhs, inv_rows).max(initial=0.0)))
    return GreenJulgVerdict(ok, lhs.shape[0], inv_rows.shape[0], resid)


def green_julg_norms(eq: EquivariantModule, xi: np.ndarray,
                     gj: FDHilbertModule | None = None) -> tuple[float, float, int]:
    """(||xi||^2 in E, ||xi||^2 in the averaged module, |W|)."""
    if gj is None:
        gj = green_julg_module(eq)[0]
    return (eq.base.norm(xi) ** 2, gj.norm(xi) ** 2, eq.group.order)


# -- Morita equivalence -------------------------------------------------------


@dataclass(frozen=True)
class MoritaWitness:
    a_dim: int
    b_dim: int
    full: bool
    span_match: bool
    multiplicative_residual: float
    star_residual: float
    injective: bool

    @property
    def ok(self) -> bool:
        return (self.full and self.span_match and self.injective
                and self.multiplicative_residual < 1e-8
                and self.star_residual < 1e-8)


def verify_morita(a_alg: MatrixStarAlgebra, e: FDHilbertModule,
                  left_action: np.ndarray, tol: float = 1e-8,
                  rng: np.random.Generator | None = None) -> MoritaWitness:
    """Witness that A ~ B via E: E full over B and A = K_B(E) through left_action.

    `left_action[k]` is the raw carrier matrix by which A's basis element k
    acts on E.  The map must be a *-isomorphism onto the compacts.  Ranks
    and spans are taken on the carrier pairs of one component
    (_in_component), off which the compacts vanish, as compact_operators
    cuts them; there each row v of the left action must vanish too, to
    tol * max(1, |v|), for its image to lie in K_B(E).
    """
    rng = rng or np.random.default_rng(0)
    left_action = np.asarray(left_action, dtype=complex)
    full = is_full(e, tol)
    compacts = compact_operators(e, tol)
    pairs = _in_component(e)
    image = flatten(left_action)
    off = np.delete(np.arange(image.shape[1]), pairs)
    img_rows = orthonormal_rows(image[:, pairs], tol)
    injective = img_rows.shape[0] == a_alg.dim
    span_match = (img_rows.shape[0] == compacts.raw_rows.shape[0]
                  and span_contains(np.zeros((0, len(off))), image[:, off], tol)
                  and spans_equal(img_rows, compacts.raw_rows[:, pairs], tol))
    # Eight samples, each drawing c1 then c2, real parts before imaginary;
    # their products and adjoints are read off A's tables.
    draws = rng.standard_normal((8, 4, a_alg.dim))
    c1, c2 = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    l1, l2, l12, lstar = (np.tensordot(c, left_action, axes=1) for c in (
        c1, c2, a_alg.multiply(c1, c2), a_alg.adjoint(c1)))
    top = [np.abs(x).max(axis=(1, 2), initial=0.0)
           for x in (l1, l2, l1 @ l2 - l12, lstar - e.module_adjoint(l1))]
    scale = np.maximum(1.0, top[0] * top[1])
    mult_res, star_res = (float(np.max(t / scale, initial=0.0)) for t in top[2:])
    return MoritaWitness(a_alg.dim, e.algebra.dim, full, span_match,
                         mult_res, star_res, injective)


def _block_sum(b1: MatrixStarAlgebra, b2: MatrixStarAlgebra) -> MatrixStarAlgebra:
    """B1 (+) B2, block-diagonal in M_{N1 + N2}: B1's blocks, then B2's at
    the coordinates after B1's."""
    moved = (Blocks(st.index + b1.dim, st.table, st.star, st.traces) for st in b2.blocks)
    return MatrixStarAlgebra(b1.ambient_dim + b2.ambient_dim, b1.blocks + tuple(moved),
                             max(b1.product_residual, b2.product_residual))


def direct_sum_module(e1: FDHilbertModule, e2: FDHilbertModule) -> FDHilbertModule:
    """E1 (+) E2 over B1 (+) B2 (block-diagonal ambient)."""
    b1, b2 = e1.algebra, e2.algebra
    b_sum = _block_sum(b1, b2)
    m1, m2 = e1.carrier_dim, e2.carrier_dim
    m = m1 + m2
    action = np.zeros((b_sum.dim, m, m), dtype=complex)
    action[:b1.dim, :m1, :m1] = e1.action
    action[b1.dim:, m1:, m1:] = e2.action
    inner = np.zeros((m, m, b_sum.dim), dtype=complex)
    inner[:m1, :m1, :b1.dim] = e1.inner
    inner[m1:, m1:, b1.dim:] = e2.inner
    return FDHilbertModule(b_sum, action, inner, name="direct-sum")


def direct_sum_left_action(a1: MatrixStarAlgebra, l1: np.ndarray,
                           a2: MatrixStarAlgebra, l2: np.ndarray,
                           m1: int, m2: int) -> tuple[MatrixStarAlgebra, np.ndarray]:
    """Block-diagonal assembly of two algebras with left actions."""
    a_sum = _block_sum(a1, a2)
    m = m1 + m2
    left = np.zeros((a_sum.dim, m, m), dtype=complex)
    left[:a1.dim, :m1, :m1] = l1
    left[a1.dim:, m1:, m1:] = l2
    return a_sum, left
