"""Finite-dimensional Hilbert C*-modules and Morita-equivalence witnesses.

A module is a carrier space C^m with a right action of a matrix *-algebra B
and a B-valued inner product, conjugate-linear in the first argument.  The
compact operators K_B(E) are the span of the rank-one maps
|eta><xi| : zeta -> eta <xi|zeta>.  Module adjoints are taken with respect
to the faithful scalar form tau(<xi|eta>), tau the normalized trace on B;
conjugating by the square root of the Gram matrix turns the module adjoint
into the ordinary conjugate transpose, so K_B(E) becomes an honest matrix
*-algebra.

Inner values are worked with in B's coordinates: <e_p|e_q> expanded in B's
orthonormal basis is an (m, m, dim B) array.  The rank-one maps (one or all
m^2 of them), the fullness ideal, and the averaged (Green-Julg) and crossed
modules over B >| W are built from it with a few matrix products, never
with per-pair loops.  Crossed-product elements are embedded and read back
only through the CrossedProduct, which builds its embedded basis when a
module over B >| W first needs it; whether values lie in a span is decided
by `linalg.span_contains` alone.  The Green-Julg check builds neither: a
rank-one map is the same operator in any basis of B >| W, so the averaged
compacts come from the crossed coefficients b_i w, and K_B(E)^W is solved
in the coordinates of K_B(E).  `compact_operators` cuts the rank of
the m^2 rank-one maps with `linalg.certified_rows`: a sketch whose exact
residual proves that the dense SVD would keep the same rank, so the
m^2 x m^2 SVD runs only when the proof fails; the margin of the cut is kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup
from .linalg import (
    DEFAULT_TOL,
    certified_rows,
    flatten,
    intertwiner_rows,
    nullspace_rows,
    orthonormal_rows,
    row_residuals,
    span_contains,
    spans_equal,
    unflatten,
)
from .matalg import MatrixStarAlgebra, algebra_from_span, operator_norm
from .systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    crossed_product,
)


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class FDHilbertModule:
    """A Hilbert module over a matrix *-algebra, given by dense tensors.

    `action[k]` is the carrier matrix of the right action of basis element k;
    `inner[i, j]` is <e_i | e_j> as an element of B's ambient matrix space.
    """

    algebra: MatrixStarAlgebra
    action: np.ndarray  # (dim B, m, m)
    inner: np.ndarray   # (m, m, N, N)
    name: str = ""
    _gram: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        action = np.asarray(self.action, dtype=complex)
        inner = np.asarray(self.inner, dtype=complex)
        m = action.shape[1] if action.ndim == 3 else inner.shape[0]
        n = self.algebra.ambient_dim
        if action.shape != (self.algebra.dim, m, m):
            raise ModuleError("action tensor has wrong shape")
        if inner.shape != (m, m, n, n):
            raise ModuleError("inner tensor has wrong shape")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "inner", inner)

    @property
    def carrier_dim(self) -> int:
        return self.action.shape[1]

    def act(self, xi: np.ndarray, b: np.ndarray) -> np.ndarray:
        """xi . b for an algebra element b (given as an ambient matrix)."""
        coeffs = self.algebra.coefficients(b)
        return np.einsum("k,kij,j->i", coeffs, self.action, xi)

    def action_matrix(self, b: np.ndarray) -> np.ndarray:
        coeffs = self.algebra.coefficients(b)
        return np.einsum("k,kij->ij", coeffs, self.action)

    def inner_product(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """<xi | eta> in B, conjugate-linear in xi."""
        return np.einsum("i,j,ijab->ab", np.conj(xi), eta, self.inner)

    def norm(self, xi: np.ndarray) -> float:
        return float(np.sqrt(max(operator_norm(self.inner_product(xi, xi)), 0.0)))

    # -- the scalar form and the Gram transform ------------------------------

    def trace_functional(self) -> np.ndarray:
        """tau as a matrix functional: tau(b) = trace(e b) / trace(e)."""
        e = self.algebra.unit()
        return e.conj().T / np.real(np.trace(e))

    def gram(self) -> np.ndarray:
        """G[i, j] = tau(<e_i | e_j>): the faithful scalar inner product.

        The instance is frozen, so the first result is kept and returned again.
        """
        if self._gram is None:
            tau = self.trace_functional()
            g = np.einsum("ba,ijab->ij", tau.conj().T, self.inner)
            object.__setattr__(self, "_gram", (g + g.conj().T) / 2.0)
        return self._gram

    def gram_sqrt(self, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
        """(S, S^-1) with S = G^(1/2); requires a definite inner product."""
        g = self.gram()
        evals, evecs = np.linalg.eigh(g)
        if self.carrier_dim and evals.min() < tol * max(evals.max(), 1.0):
            raise ModuleError("inner product is degenerate on the carrier")
        s = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
        s_inv = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.conj().T
        return s, s_inv

    def module_adjoint(self, t: np.ndarray) -> np.ndarray:
        """The adjoint of a carrier operator w.r.t. the scalar form."""
        g = self.gram()
        return np.linalg.solve(g, t.conj().T @ g)

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        m = self.carrier_dim
        return rng.standard_normal(m) + 1j * rng.standard_normal(m)

    # -- axiom residuals ------------------------------------------------------

    def axiom_residuals(self, rng: np.random.Generator | None = None,
                        n_samples: int = 20) -> dict:
        """Numeric residuals of the Hilbert-module axioms.

        Keys: values_in_algebra, bimodule, compatibility, symmetry,
        positivity, definiteness.  Completeness holds automatically at
        finite dimension and is not measured.
        """
        rng = rng or np.random.default_rng(0)
        b_alg = self.algebra
        m = self.carrier_dim
        res = {k: 0.0 for k in ("values_in_algebra", "bimodule", "compatibility",
                                "symmetry", "positivity", "definiteness")}
        vals = self.inner.reshape(m * m, b_alg.ambient_dim ** 2)
        res["values_in_algebra"] = float(
            row_residuals(b_alg.basis_rows(), vals).max(initial=0.0))
        for _ in range(n_samples):
            xi = self.random_vector(rng)
            eta = self.random_vector(rng)
            b1 = b_alg.random_element(rng)
            b2 = b_alg.random_element(rng)
            scale = max(1.0, np.linalg.norm(xi) * np.linalg.norm(eta),
                        operator_norm(b1) * operator_norm(b2))
            # (xi b1) b2 = xi (b1 b2)
            lhs = self.act(self.act(xi, b1), b2)
            rhs = self.act(xi, b1 @ b2)
            res["bimodule"] = max(res["bimodule"],
                                  float(np.linalg.norm(lhs - rhs)) / scale)
            # <xi b1 | eta b2> = b1* <xi|eta> b2
            lhs2 = self.inner_product(self.act(xi, b1), self.act(eta, b2))
            rhs2 = b1.conj().T @ self.inner_product(xi, eta) @ b2
            res["compatibility"] = max(res["compatibility"],
                                       float(np.linalg.norm(lhs2 - rhs2)) / scale)
            # <eta|xi> = <xi|eta>*
            diff = self.inner_product(eta, xi) - self.inner_product(xi, eta).conj().T
            res["symmetry"] = max(res["symmetry"], float(np.linalg.norm(diff)) / scale)
            # <xi|xi> >= 0
            q = self.inner_product(xi, xi)
            herm = float(np.linalg.norm(q - q.conj().T))
            neg = max(0.0, -float(np.linalg.eigvalsh((q + q.conj().T) / 2.0).min()))
            res["positivity"] = max(res["positivity"], (herm + neg) / scale)
        if m:
            evals = np.linalg.eigvalsh(self.gram())
            res["definiteness"] = max(0.0, -float(evals.min())) + \
                (1.0 if evals.min() < 1e-10 * max(evals.max(), 1.0) else 0.0)
        return res

    def validate(self, tol: float = 1e-8, rng=None) -> None:
        res = self.axiom_residuals(rng)
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise ModuleError(f"Hilbert-module axioms violated: {bad}")

    def cauchy_schwarz_residual(self, xi: np.ndarray, eta: np.ndarray) -> float:
        """Violation of <eta|xi><xi|eta> <= ||xi||^2 <eta|eta> (0 if it holds)."""
        lhs = self.inner_product(eta, xi) @ self.inner_product(xi, eta)
        rhs = self.norm(xi) ** 2 * self.inner_product(eta, eta)
        gap = rhs - lhs
        evals = np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)
        return max(0.0, -float(evals.min()))


# -- standard constructions ---------------------------------------------------


def standard_module(b_alg: MatrixStarAlgebra) -> FDHilbertModule:
    """B as a module over itself with <b1|b2> = b1* b2; B's structure table
    is the action tensor."""
    stars = np.conj(np.transpose(b_alg.basis, (0, 2, 1)))
    inner = stars[:, None] @ b_alg.basis[None]
    return FDHilbertModule(b_alg, b_alg.structure, inner, name="standard")


def scalar_algebra(n_points: int) -> MatrixStarAlgebra:
    """C(X) for |X| = n_points, as the diagonal algebra in M_{|X|}."""
    basis = np.zeros((n_points, n_points, n_points), dtype=complex)
    for x in range(n_points):
        basis[x, x, x] = 1.0
    return MatrixStarAlgebra(n_points, basis)


def function_module(sys: EquivariantSystem) -> FDHilbertModule:
    """C(X, C^d) over C(X): pointwise action and inner product."""
    x_n, d = sys.n_points, sys.fiber_dim
    b_alg = scalar_algebra(x_n)
    m = x_n * d
    action = np.zeros((x_n, m, m), dtype=complex)
    inner = np.zeros((m, m, x_n, x_n), dtype=complex)
    for x in range(x_n):
        for i in range(d):
            action[x, x * d + i, x * d + i] = 1.0
            for j in range(d):
                if i == j:
                    inner[x * d + i, x * d + j, x, x] = 1.0
    return FDHilbertModule(b_alg, action, inner, name="function")


def free_module(n: int) -> FDHilbertModule:
    """C^n over C (the scalars realized as M_1)."""
    b_alg = MatrixStarAlgebra(1, np.ones((1, 1, 1), dtype=complex))
    action = np.eye(n, dtype=complex)[None]
    inner = np.zeros((n, n, 1, 1), dtype=complex)
    for i in range(n):
        inner[i, i, 0, 0] = 1.0
    return FDHilbertModule(b_alg, action, inner, name="free")


# -- compact operators ---------------------------------------------------------


def rank_one(e: FDHilbertModule, eta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """|eta><xi| : zeta -> eta <xi|zeta>, as a raw carrier matrix.

    Column l is eta . <xi|e_l>, with <xi|e_l> expanded in B's basis.
    """
    return np.einsum("i,ilk,kpj,j->pl", np.conj(xi), _inner_coefficients(e),
                     e.action, eta)


@dataclass(frozen=True)
class CompactOperators:
    """K_B(E) in Gram coordinates, with the raw-coordinate span alongside.

    `algebra` is a genuine matrix *-algebra: matrices S k S^-1 for raw
    compacts k, with S the Gram square root, so * is the conjugate transpose.
    `rank_margin` is the margin of the rank cut on the rank-one maps, as
    `linalg.certified_rows` returns it.
    """

    module: FDHilbertModule
    algebra: MatrixStarAlgebra
    raw_rows: np.ndarray        # orthonormal rows spanning raw compacts
    transform: np.ndarray       # S
    transform_inv: np.ndarray   # S^-1
    rank_margin: float

    def contains_raw(self, mats, tol: float = 1e-8) -> bool:
        return span_contains(self.raw_rows, flatten(np.asarray(mats, dtype=complex)), tol)


def _inner_coefficients(e: FDHilbertModule) -> np.ndarray:
    """<e_p|e_q> expanded in B's orthonormal basis: an (m, m, dim B) array."""
    m = e.carrier_dim
    n = e.algebra.ambient_dim
    return e.inner.reshape(m, m, n * n) @ e.algebra.basis_rows().conj().T


def _rank_one_maps(action: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """All |e_i><e_j| as one (m, m, m, m) array indexed [i, j, row, col].

    `action[k]` is the carrier map of the k-th algebra element and
    `coefficients[j, l, k]` the k-th coefficient of <e_j|e_l> against the
    same elements; they need not be a basis, since a rank-one map is the
    same operator however its inner values are expanded.  Column l of
    |e_i><e_j| is e_i . <e_j|e_l>, so |e_i><e_j| is the (m, k) x (k, m)
    product of [p, k] = action[k, p, i] with [k, l] = coefficients[j, l, k].
    One batched matmul over (i, j) writes every map in place, so no
    transposed copy of the m^4 entries is made.
    """
    left = np.ascontiguousarray(action.transpose(2, 1, 0))           # [i, p, k]
    right = np.ascontiguousarray(coefficients.transpose(0, 2, 1))    # [j, k, l]
    return left[:, None] @ right[None]


def compact_operators(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> CompactOperators:
    """Span of the rank-one module maps, closed as a matrix *-algebra."""
    m = e.carrier_dim
    s, s_inv = e.gram_sqrt()
    if m == 0:
        alg = MatrixStarAlgebra(0, np.zeros((0, 0, 0), dtype=complex))
        return CompactOperators(e, alg, np.zeros((0, 0), dtype=complex), s, s_inv,
                                np.inf)
    maps = _rank_one_maps(e.action, _inner_coefficients(e))
    raw_rows, margin = certified_rows(maps.reshape(m * m, m * m), tol)
    # S is invertible, so dressing a basis of the raw span spans the image.
    dressed = s @ unflatten(raw_rows, m) @ s_inv
    alg = algebra_from_span(dressed, ambient_dim=m, tol=tol)
    return CompactOperators(e, alg, raw_rows, s, s_inv, margin)


def adjointable_operators(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the B-linear carrier operators (raw coords).

    In finite dimension every B-linear map is adjointable, so this is the
    commutant of the right-action matrices.
    """
    return intertwiner_rows(e.action, e.action, tol)


def fullness_ideal(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """span{<xi|eta>} inside B; an ideal of B, all of B iff E is full.

    The span is taken on the (m^2, dim B) coefficients of the values in B's
    orthonormal basis, which have the singular values of the raw values, so
    the rank rule is unchanged.  A value outside B raises ModuleError; it is
    never projected into B silently.
    """
    m = e.carrier_dim
    n = e.algebra.ambient_dim
    if m == 0:
        return MatrixStarAlgebra(n, np.zeros((0, n, n), dtype=complex))
    b_rows = e.algebra.basis_rows()
    vals = e.inner.reshape(m * m, n * n)
    if not span_contains(b_rows, vals, max(tol, 1e-8)):
        raise ModuleError("inner products leave the coefficient algebra")
    rows = orthonormal_rows(vals @ b_rows.conj().T, tol) @ b_rows
    return MatrixStarAlgebra(n, unflatten(rows, n))


def is_full(e: FDHilbertModule, tol: float = 1e-8) -> bool:
    return fullness_ideal(e, tol).dim == e.algebra.dim


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
        self.base.validate(tol, rng)
        self.beta.validate(tol)
        g = self.group
        m = self.base.carrier_dim
        if self.gamma.shape != (g.order, m, m):
            raise ModuleError("gamma has wrong shape")
        if np.linalg.norm(self.gamma[0] - np.eye(m)) > tol * max(m, 1):
            raise ModuleError("gamma at the identity is not the identity")
        for w1 in g.elements():
            for w2 in g.elements():
                diff = self.gamma[g.mul[w1, w2]] - self.gamma[w1] @ self.gamma[w2]
                if np.linalg.norm(diff) > tol * max(m, 1):
                    raise ModuleError("gamma is not a group homomorphism")
        rng = rng or np.random.default_rng(1)
        for w in g.elements():
            for _ in range(4):
                xi = self.base.random_vector(rng)
                eta = self.base.random_vector(rng)
                b = self.base.algebra.random_element(rng)
                scale = max(1.0, np.linalg.norm(xi) * max(1.0, operator_norm(b)))
                lhs = self.gamma[w] @ self.base.act(xi, b)
                rhs = self.base.act(self.gamma[w] @ xi, self.beta.apply(w, b))
                if np.linalg.norm(lhs - rhs) > tol * scale:
                    raise ModuleError(f"gamma_w(xi b) != gamma_w(xi) beta_w(b) at w={w}")
                lhs2 = self.base.inner_product(self.gamma[w] @ xi, self.gamma[w] @ eta)
                rhs2 = self.beta.apply(w, self.base.inner_product(xi, eta))
                scale2 = max(1.0, np.linalg.norm(xi) * np.linalg.norm(eta))
                if np.linalg.norm(lhs2 - rhs2) > tol * scale2:
                    raise ModuleError(f"inner product is not equivariant at w={w}")


def scalar_translation_action(sys: EquivariantSystem) -> AlgebraAction:
    """C(X) (diagonal in M_{|X|}) with the translation action of W:
    beta_w(f)(x) = f(w^-1 x)."""
    g = sys.group
    x_n = sys.n_points
    maps = np.zeros((g.order, x_n, x_n), dtype=complex)
    for w in g.elements():
        maps[w, np.arange(x_n), sys.action[g.inverse(w)]] = 1.0
    return AlgebraAction(g, scalar_algebra(x_n), maps)


def equivariant_function_module(sys: EquivariantSystem) -> EquivariantModule:
    """C(X, C^d) with gamma_w xi(x) = I_{w, w^-1 x} xi(w^-1 x)."""
    base = function_module(sys)
    g = sys.group
    x_n, d = sys.n_points, sys.fiber_dim
    m = x_n * d
    gamma = np.zeros((g.order, m, m), dtype=complex)
    for w in g.elements():
        w_inv = g.inverse(w)
        for x in range(x_n):
            pre = sys.action[w_inv, x]
            gamma[w, x * d:(x + 1) * d, pre * d:(pre + 1) * d] = sys.cocycle[w, pre]
    return EquivariantModule(base, scalar_translation_action(sys), gamma)


def trivial_equivariant_module(e: FDHilbertModule,
                               group: FiniteGroup) -> EquivariantModule:
    maps = np.tile(np.eye(e.algebra.dim, dtype=complex), (group.order, 1, 1))
    gamma = np.tile(np.eye(e.carrier_dim, dtype=complex), (group.order, 1, 1))
    return EquivariantModule(e, AlgebraAction(group, e.algebra, maps), gamma)


# -- crossed-product and averaged modules --------------------------------------


def green_julg_module(eq: EquivariantModule,
                      cp: CrossedProduct | None = None,
                      tol: float = DEFAULT_TOL) -> tuple[FDHilbertModule, CrossedProduct]:
    """E as a module over B >| W: xi . bw = gamma_{w^-1}(xi b), averaged inner.

    The inner product is <<xi|eta>> = sum_w <xi|gamma_w eta> w.  Both tensors
    are built from crossed coefficients, (w, i) for b_i w: cp.embed places
    all m^2 averaged_inner_coefficients in the crossed ambient.  This builds
    the embedded crossed product; spans of inner values can be compared in
    cp's whitened coefficients without it.
    """
    base = eq.base
    cp = cp or crossed_product(eq.beta, tol)
    # Right action: the crossed coefficients of each basis element against
    # the |W| dim B carrier maps gamma_{w^-1} R_{b_i}.
    action = _crossed_maps(cp, _averaged_maps(eq))
    # Inner products <<e_p | e_q>>, embedded in the crossed ambient.
    inner = cp.embed(averaged_inner_coefficients(eq))
    return FDHilbertModule(cp.algebra, action, inner,
                           name=(base.name or "module") + "-averaged"), cp


def _averaged_maps(eq: EquivariantModule) -> np.ndarray:
    """(|W|, dim B, m, m): the carrier map gamma_{w^-1} R_{b_i} by which
    b_i w acts on the averaged module."""
    return eq.gamma[eq.group.inv][:, None] @ eq.base.action[None]


def averaged_inner_coefficients(eq: EquivariantModule) -> np.ndarray:
    """<<e_p|e_q>> = sum_w <e_p|gamma_w e_q> w in crossed coefficients.

    An (m, m, |W|, dim B) array: <e_p|gamma_w e_q> has B-coefficients
    sum_j gamma_w[j, q] <e_p|e_j>.
    """
    return np.einsum("pjl,wjq->pqwl", _inner_coefficients(eq.base), eq.gamma)


def _crossed_maps(cp: CrossedProduct, maps: np.ndarray) -> np.ndarray:
    """Right-action tensor of a module over B >| W whose element b_i w acts
    by maps[w, i]: each basis element acts by its crossed coefficients."""
    c = cp.basis_coefficients()
    dim, size = c.shape[0], maps.shape[-1]
    return (c.reshape(dim, -1) @ maps.reshape(-1, size * size)).reshape(dim, size, size)


def module_crossed_product(eq: EquivariantModule,
                           cp: CrossedProduct | None = None,
                           tol: float = DEFAULT_TOL) -> tuple[FDHilbertModule, CrossedProduct]:
    """E >| W over B >| W: carrier C^{m |W|}, (xi w1)(b w2) = xi beta_w1(b) w1w2.

    Built like green_julg_module.  Carrier coordinate (w, p) is w * m + p;
    b_i v maps the block of w to the block of wv by R_{beta_w(b_i)}, and
    <<e_p w1 | e_q w2>> = beta_{w1^-1}(<e_p|e_q>) (w1^-1 w2).
    """
    g = eq.group
    base = eq.base
    cp = cp or crossed_product(eq.beta, tol)
    m, k, w_n = base.carrier_dim, base.algebra.dim, g.order
    big = m * w_n
    twisted = np.einsum("wli,lpq->wipq", eq.beta.maps, base.action)  # R_{beta_w(b_i)}
    maps = np.zeros((w_n, k, w_n, m, w_n, m), dtype=complex)
    ips = np.einsum("wil,pql->wpqi", eq.beta.maps[g.inv], _inner_coefficients(base))
    coeffs = np.zeros((w_n, m, w_n, m, w_n, k), dtype=complex)
    for w in range(w_n):
        for v in range(w_n):
            maps[v, :, g.mul[w, v], :, w, :] = twisted[w]
            coeffs[w, :, v, :, g.mul[g.inv[w], v]] = ips[w]
    action = _crossed_maps(cp, maps.reshape(w_n, k, big, big))
    inner = cp.embed(coeffs.reshape(big, big, w_n, k))
    return FDHilbertModule(cp.algebra, action, inner,
                           name=(base.name or "module") + "-crossed"), cp


@dataclass(frozen=True)
class CrossedCompactsVerdict:
    ok: bool
    image_dim: int
    compacts_dim: int


def verify_module_crossed_compacts(eq: EquivariantModule,
                                   tol: float = 1e-8) -> CrossedCompactsVerdict:
    """K_{B >| W}(E >| W) = K_B(E) >| W, via phi(k w): xi v -> k(gamma_w xi) wv.

    Every rank cut, the crossed product's embedded span included, is taken
    at `tol`.
    """
    g = eq.group
    m = eq.base.carrier_dim
    ecp, _ = module_crossed_product(eq, tol=tol)
    big = compact_operators(ecp, tol)
    base_c = compact_operators(eq.base, tol)
    imgs = []
    for w in g.elements():
        for row in base_c.raw_rows:
            k = row.reshape(m, m)
            phi = np.zeros((g.order * m, g.order * m), dtype=complex)
            for v in g.elements():
                wv = g.mul[w, v]
                phi[wv * m:(wv + 1) * m, v * m:(v + 1) * m] = k @ eq.gamma[w]
            imgs.append(phi)
    img_rows = orthonormal_rows(flatten(np.stack(imgs)), tol) if imgs else \
        np.zeros((0, (g.order * m) ** 2), dtype=complex)
    ok = spans_equal(img_rows, big.raw_rows, tol)
    return CrossedCompactsVerdict(ok, img_rows.shape[0], big.raw_rows.shape[0])


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
    from the |W| dim B maps gamma_{w^-1} R_{b_i} and the inner values in the
    crossed coefficients b_i w.
    """
    eq.beta.validate()
    maps = _averaged_maps(eq)
    w_n, k, m = maps.shape[:3]
    stack = _rank_one_maps(maps.reshape(w_n * k, m, m),
                           averaged_inner_coefficients(eq).reshape(m, m, w_n * k))
    return certified_rows(stack.reshape(m * m, m * m), tol)[0]


def verify_green_julg(eq: EquivariantModule, tol: float = 1e-8) -> GreenJulgVerdict:
    """K_{B >| W}(E) = K_B(E)^W, compared as raw spans on the carrier.

    Both sides are found in coefficient space at `tol`: the averaged
    compacts from the rank-one maps in crossed coefficients, with a
    certified rank cut, and the invariant compacts as a kernel in the
    coordinates of K_B(E).  Neither the embedded crossed product, the
    averaged module nor the Kronecker commutant of gamma is built.
    """
    lhs = _averaged_compacts_rows(eq, tol)
    inv_rows = invariant_compacts_rows(eq, tol=tol)
    ok = spans_equal(lhs, inv_rows, tol)
    resid = float(max(row_residuals(inv_rows, lhs).max(initial=0.0),
                      row_residuals(lhs, inv_rows).max(initial=0.0)))
    return GreenJulgVerdict(ok, lhs.shape[0], inv_rows.shape[0], resid)


def green_julg_norms(eq: EquivariantModule, xi: np.ndarray,
                     gj: FDHilbertModule | None = None,
                     cp: CrossedProduct | None = None) -> tuple[float, float, int]:
    """(||xi||^2 in E, ||xi||^2 in the averaged module, |W|)."""
    if gj is None:
        gj, cp = green_julg_module(eq)
    return (eq.base.norm(xi) ** 2, gj.norm(xi) ** 2, eq.group.order)


# -- duality and Morita equivalence -------------------------------------------


def dual_module(e: FDHilbertModule,
                compacts: CompactOperators | None = None,
                tol: float = DEFAULT_TOL) -> tuple[FDHilbertModule, np.ndarray]:
    """K_B(E, B) over K_B(E), with <<k | l>> = k* l.

    Dual vectors are bras <xi|; the carrier coordinate of <xi| is conj(xi)
    so that everything stays linear.  Also returns the left action of B on
    the dual (b . <xi| = <xi b*|) as matrices, one per B basis element.
    """
    compacts = compacts or compact_operators(e, tol)
    m = e.carrier_dim
    s, s_inv = compacts.transform, compacts.transform_inv
    k_alg = compacts.algebra
    # Right action of a compact a (in Gram coords): bra_xi . a = bra_{a# xi},
    # and in conj coordinates delta -> conj(a#) delta with a# = S^-1 a* S.
    action = np.stack([np.conj(s_inv @ a.conj().T @ s) for a in k_alg.basis])
    # <<e_p|e_q>> = |e_p><e_q|
    inner = s @ _rank_one_maps(e.action, _inner_coefficients(e)) @ s_inv
    dual = FDHilbertModule(k_alg, action, inner, name=(e.name or "module") + "-dual")
    # Left action of B: b . bra_xi = bra_{xi b*}; conj coords: conj(R_{b*}).
    left = np.zeros((e.algebra.dim, m, m), dtype=complex)
    for i in range(e.algebra.dim):
        bstar = e.algebra.basis[i].conj().T
        left[i] = np.conj(e.action_matrix(bstar))
    return dual, left


@dataclass(frozen=True)
class MoritaWitness:
    a_dim: int
    b_dim: int
    full: bool
    span_match: bool
    multiplicative_residual: float
    star_residual: float
    injective: bool
    block_counts: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return (self.full and self.span_match and self.injective
                and self.multiplicative_residual < 1e-8
                and self.star_residual < 1e-8)


def verify_morita(a_alg: MatrixStarAlgebra, e: FDHilbertModule,
                  left_action: np.ndarray, tol: float = 1e-8,
                  check_blocks: bool = False,
                  rng: np.random.Generator | None = None) -> MoritaWitness:
    """Witness that A ~ B via E: E full over B and A = K_B(E) through left_action.

    `left_action[k]` is the raw carrier matrix by which A's basis element k
    acts on E.  The map must be a *-isomorphism onto the compacts.
    """
    rng = rng or np.random.default_rng(0)
    left_action = np.asarray(left_action, dtype=complex)
    full = is_full(e, tol)
    compacts = compact_operators(e, tol)
    img_rows = orthonormal_rows(flatten(left_action), tol)
    injective = img_rows.shape[0] == a_alg.dim
    span_match = (img_rows.shape[0] == compacts.raw_rows.shape[0]
                  and spans_equal(img_rows, compacts.raw_rows, tol))
    mult_res = 0.0
    star_res = 0.0
    for _ in range(8):
        c1 = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        c2 = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        a1 = a_alg.element(c1)
        a2 = a_alg.element(c2)
        l1 = np.einsum("k,kij->ij", c1, left_action)
        l2 = np.einsum("k,kij->ij", c2, left_action)
        l12 = np.einsum("k,kij->ij", a_alg.coefficients(a1 @ a2), left_action)
        scale = max(1.0, float(np.abs(l1).max() * np.abs(l2).max()))
        mult_res = max(mult_res, float(np.abs(l1 @ l2 - l12).max()) / scale)
        lstar = np.einsum("k,kij->ij", a_alg.coefficients(a1.conj().T), left_action)
        star_res = max(star_res,
                       float(np.abs(lstar - e.module_adjoint(l1)).max()) / scale)
    blocks = None
    if check_blocks:
        from .matalg import block_decompose
        blocks = (len(block_decompose(a_alg).blocks),
                  len(block_decompose(e.algebra).blocks))
    return MoritaWitness(a_alg.dim, e.algebra.dim, full, span_match,
                         mult_res, star_res, injective, blocks)


def _block_sum(b1: MatrixStarAlgebra, b2: MatrixStarAlgebra) -> MatrixStarAlgebra:
    """B1 (+) B2, block-diagonal in M_{N1 + N2}."""
    n1, n = b1.ambient_dim, b1.ambient_dim + b2.ambient_dim
    basis = np.zeros((b1.dim + b2.dim, n, n), dtype=complex)
    basis[:b1.dim, :n1, :n1] = b1.basis
    basis[b1.dim:, n1:, n1:] = b2.basis
    return MatrixStarAlgebra(n, basis)


def direct_sum_module(e1: FDHilbertModule, e2: FDHilbertModule) -> FDHilbertModule:
    """E1 (+) E2 over B1 (+) B2 (block-diagonal ambient)."""
    b1, b2 = e1.algebra, e2.algebra
    b_sum = _block_sum(b1, b2)
    n1, n = b1.ambient_dim, b_sum.ambient_dim
    m1, m2 = e1.carrier_dim, e2.carrier_dim
    m = m1 + m2
    action = np.zeros((b_sum.dim, m, m), dtype=complex)
    action[:b1.dim, :m1, :m1] = e1.action
    action[b1.dim:, m1:, m1:] = e2.action
    inner = np.zeros((m, m, n, n), dtype=complex)
    inner[:m1, :m1, :n1, :n1] = e1.inner
    inner[m1:, m1:, n1:, n1:] = e2.inner
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


def interior_tensor_product(e1: FDHilbertModule, e2: FDHilbertModule,
                            left_b_on_e2: np.ndarray,
                            tol: float = DEFAULT_TOL) -> tuple[FDHilbertModule, np.ndarray]:
    """E1 (x)_B E2 over C, for E1 over B and E2 over C with B acting on E2.

    <xi1 (x) xi2 | eta1 (x) eta2> = <xi2 | <xi1|eta1> eta2>; the null space
    of this semi-inner product is quotiented out.  Returns the module and
    the quotient map Q (quotient coords = Q @ tensor coords).
    """
    b_alg = e1.algebra
    c_alg = e2.algebra
    m1, m2 = e1.carrier_dim, e2.carrier_dim
    big = m1 * m2
    # Semi-inner product on the full tensor space, valued in C's ambient.
    # left_b_on_e2[k] is the action of B basis element k on E2's carrier.
    inner_big = np.zeros((big, big, c_alg.ambient_dim, c_alg.ambient_dim), dtype=complex)
    for p1 in range(m1):
        for q1 in range(m1):
            coeffs = b_alg.coefficients(e1.inner[p1, q1])
            bmat = np.einsum("k,kij->ij", coeffs, left_b_on_e2)
            # <e_{p2} | bmat e_{q2}>_C
            vals = np.einsum("pjab,jq->pqab", e2.inner, bmat)
            for p2 in range(m2):
                for q2 in range(m2):
                    inner_big[p1 * m2 + p2, q1 * m2 + q2] = vals[p2, q2]
    # Scalar Gram and null space.
    e_unit = c_alg.unit()
    tau = e_unit.conj().T / np.real(np.trace(e_unit))
    gram = np.einsum("ba,pqab->pq", tau.conj().T, inner_big)
    gram = (gram + gram.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > max(tol, 1e-10) * max(evals.max(), 1.0)
    u = evecs[:, keep]          # orthonormal complement of the null space
    q_map = u.conj().T          # tensor coords -> quotient coords
    m = u.shape[1]
    inner = np.einsum("pi,pqab,qj->ijab", u.conj(), inner_big, u)
    action = np.zeros((c_alg.dim, m, m), dtype=complex)
    eye1 = np.eye(m1)
    for k in range(c_alg.dim):
        action[k] = q_map @ np.kron(eye1, e2.action[k]) @ u
    return FDHilbertModule(c_alg, action, inner, name="interior-tensor"), q_map


def tensor_left_action(left_a_on_e1: np.ndarray, m2: int,
                       q_map: np.ndarray) -> np.ndarray:
    """Push a left action on E1 through to the quotiented tensor product."""
    eye2 = np.eye(m2)
    return np.stack([q_map @ np.kron(l, eye2) @ q_map.conj().T
                     for l in left_a_on_e1])
