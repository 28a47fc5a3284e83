"""Finite-dimensional Hilbert C*-modules and Morita-equivalence witnesses.

A module is a carrier space C^m with a right action of a *-algebra B and a
B-valued inner product, conjugate-linear in the first argument.  The
compact operators K_B(E) are the span of the rank-one maps
|eta><xi| : zeta -> eta <xi|zeta>.  Module adjoints are taken with respect
to the faithful scalar form tau(<xi|eta>), tau the trace state of B.

A module is held by its carrier components, as an algebra by its blocks
(Components, stacked by shape): component S spans s carrier vectors, is
acted on by c coordinates of B and keeps that action (c, s, s), its inner
values (s, s, c) and its block of the scalar form; every other entry is
zero.  Builders state the components they know: the function module one
per point, the averaged (Green-Julg) module over B >| W one per W-orbit,
the standard module one per block of B, direct sums and rebased modules
those of their inputs.  An equivariant module's gamma_w carries each
component onto one of its stack by an (s, s) block (Carried).  Rank-one
maps, compacts and a Morita witness's left action live at the carrier
pairs (+)_S S x S (FDHilbertModule.pairs), where products and adjoints are
taken block by block and dense SVDs of the blocks, cut at the whole
stack's scale, are the dense rule exactly.  The Green-Julg check builds no
module over B >| W: the averaged compacts come from the averaged
components, and K_B(E)^W is solved one W-orbit of components at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup
from .linalg import (
    DEFAULT_TOL,
    block_cut,
    check_tol,
    homomorphism_defect,
    orthonormal_rows,
    row_residuals,
    span_contains,
    spans_equal,
)
from .matalg import Blocks, MatrixStarAlgebra, _grouped
from .systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    crossed_product,
    scalar_algebra,
)


class ModuleError(ValueError):
    pass


# Samples drawn by FDHilbertModule.axiom_residuals.
_AXIOM_SAMPLES = 20
# Relative Gram eigenvalue below which a module's scalar form is degenerate.
_DEGENERATE = 1e-10


def _checked_coefficients(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients (..., k) of vectors values (..., D) against orthonormal
    rows (k, D), for values that must lie in their span: each may leave it
    by 1e-8 max(1, |v|) at most, or ModuleError is raised."""
    flat = values.reshape(-1, rows.shape[1])
    if not span_contains(rows, flat, 1e-8):
        raise ModuleError("inner products leave the coefficient algebra")
    return (flat @ rows.conj().T).reshape(*values.shape[:-1], rows.shape[0])


@dataclass(frozen=True)
class Components:
    """g carrier components of one shape (s, c), stacked: component b spans
    the carrier vectors carrier[b] and is acted on by B's coordinates
    coords[b]; action[b, j] is the carrier map of b_(coords[b, j]) on it
    (e_i b = sum_p action[b, j, p, i] e_p) and inner[b, p, q, j] the
    b_(coords[b, j]) coefficient of <e_p|e_q>, for p, q its positions."""

    carrier: np.ndarray   # (g, s)
    coords: np.ndarray    # (g, c)
    action: np.ndarray    # (g, c, s, s)
    inner: np.ndarray     # (g, s, s, c)


def _flat_pairs(carrier: np.ndarray, m: int) -> np.ndarray:
    """(g, s^2): p m + q for the carrier pairs (p, q) of each component of
    a stack's carrier (g, s)."""
    return (carrier[:, :, None] * m + carrier[:, None, :]).reshape(len(carrier), -1)


def _pairs(parts, m: int) -> np.ndarray:
    """The carrier pairs p m + q with p and q in one component, ascending."""
    return np.sort(np.concatenate([_flat_pairs(st.carrier, m).ravel() for st in parts]
                                  + [np.zeros(0, dtype=np.intp)]))


@dataclass(frozen=True)
class FDHilbertModule:
    """A Hilbert module over a matrix *-algebra, held by its carrier
    components.

    The components partition the carrier and share no coordinate of B; a
    coordinate acts as zero off its component, and no inner value joins
    two components.  The constructor stacks the components of one shape,
    in increasing order of shape, and checks both partitions.
    """

    algebra: MatrixStarAlgebra
    parts: tuple[Components, ...]
    name: str = ""

    def __post_init__(self):
        given = [st for st in self.parts if st.carrier.size]
        groups = _grouped((st.carrier.shape[1], st.coords.shape[1]) for st in given)
        stacks = tuple(Components(*(np.concatenate([getattr(given[i], f) for i in groups[key]])
                                    for f in ("carrier", "coords", "action", "inner")))
                       for key in sorted(groups))
        carrier, coords = (np.sort(np.concatenate([getattr(st, f).ravel() for st in stacks] + [[]]))
                           for f in ("carrier", "coords"))
        if not np.array_equal(carrier, np.arange(carrier.size)) or np.any(np.diff(coords) == 0) \
                or not np.all((coords >= 0) & (coords < self.algebra.dim)):
            raise ModuleError("the components must partition the carrier and share no coordinate")
        object.__setattr__(self, "parts", stacks)

    @property
    def carrier_dim(self) -> int:
        return sum(st.carrier.size for st in self.parts)

    @cached_property
    def pairs(self) -> np.ndarray:
        """The carrier pairs p m + q with p and q in one component,
        ascending: the sum_S s^2 coordinates of the compacts and of a
        witness's left action.  Every pair of a direct sum's first summand
        comes before every pair of its second."""
        return _pairs(self.parts, self.carrier_dim)

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
        out = np.zeros(np.broadcast_shapes(xi.shape[:-1], c.shape[:-1]) + xi.shape[-1:],
                       dtype=complex)
        for st in self.parts:
            g, s = st.carrier.shape
            maps = (c[..., st.coords][..., None, :] @ st.action.reshape(g, -1, s * s))
            out[..., st.carrier] = (maps.reshape(c.shape[:-1] + (g, s, s))
                                    @ xi[..., st.carrier, None])[..., 0]
        return out

    def inner_product(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """The coordinates (..., dim B) of <xi | eta> in B, conjugate-linear
        in xi; not an N x N matrix."""
        x, y = self._carrier(xi), self._carrier(eta)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (self.algebra.dim,),
                       dtype=complex)
        for st in self.parts:
            g, s = st.carrier.shape
            left = (x[..., st.carrier][..., None, :].conj() @ st.inner.reshape(g, s, -1))
            out[..., st.coords] = (y[..., st.carrier][..., None, :]
                                   @ left.reshape(x.shape[:-1] + (g, s, -1)))[..., 0, :]
        return out

    def norm(self, xi: np.ndarray) -> float:
        """|<xi|xi>|^(1/2), the operator norm read off B's table."""
        return float(np.sqrt(max(self.algebra.norm(self.inner_product(xi, xi)), 0.0)))

    # -- the scalar form, and operators held at the carrier pairs -------------

    @cached_property
    def gram(self) -> tuple[np.ndarray, ...]:
        """tau(<e_p|e_q>), the scalar form, as a (g, s, s) stack of component
        blocks per stack of `parts` (zero between components): tau(b_k) =
        tr b_k / tr e, tr e = |unit()|^2, as e b_k = b_k for B's unit e."""
        scale = np.linalg.norm(self.algebra.unit()) ** 2
        gs = ((st.inner @ self.algebra.traces[st.coords][:, None, :, None])[..., 0] / scale
              for st in self.parts)
        return tuple((g + g.conj().swapaxes(-1, -2)) / 2.0 for g in gs)

    def _definiteness(self) -> float:
        """max(0, -l) for G's least eigenvalue l, plus 1 when l lies below
        _DEGENERATE max(G's largest, 1), from one batched eigvalsh per
        stack: nonzero exactly when G is degenerate."""
        values = np.concatenate([np.linalg.eigvalsh(g).ravel() for g in self.gram] + [[]])
        low = values.min(initial=np.inf)
        return max(0.0, -low) + float(low < _DEGENERATE * max(values.max(initial=0.0), 1.0))

    def _blockwise(self, fn, *rows: np.ndarray) -> np.ndarray:
        """fn(G's blocks, *their blocks) for carrier operators at the carrier
        pairs (..., len(pairs)), block diagonal, one stack of (..., g, s, s)
        blocks at a time, read back at the pairs."""
        lead = np.broadcast_shapes(*(r.shape[:-1] for r in rows))
        out = np.zeros(lead + self.pairs.shape, dtype=complex)
        for st, gram in zip(self.parts, self.gram):
            at = np.searchsorted(self.pairs, _flat_pairs(st.carrier, self.carrier_dim))
            blocks = (r[..., at].reshape(r.shape[:-1] + gram.shape) for r in rows)
            out[..., at] = fn(gram, *blocks).reshape(lead + at.shape)
        return out

    def module_adjoint(self, rows: np.ndarray) -> np.ndarray:
        """The adjoint G^-1 t* G w.r.t. the scalar form of carrier operators
        t at the carrier pairs (..., len(pairs)), at the pairs."""
        return self._blockwise(lambda g, t: np.linalg.solve(g, t.conj().swapaxes(-1, -2) @ g),
                               rows)

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
        res["definiteness"] = self._definiteness() if m else 0.0
        return res

    def validate(self, tol: float = 1e-8, rng=None) -> None:
        check_tol(tol)
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
    """B as a module over itself with <b1|b2> = b1* b2, one component per
    block of B, on the block's coordinates: action[j] is right
    multiplication by b_j, slice j of the block's table, and the inner
    values are the products b_i* b_j, the table applied to the star table."""
    return FDHilbertModule(b_alg, tuple(
        Components(st.index, st.index, st.table,
                   (st.table @ st.star[:, None]).transpose(0, 3, 1, 2)) for st in b_alg.blocks),
        name="standard")


def function_module(sys: EquivariantSystem) -> FDHilbertModule:
    """C(X, C^d) over C(X), pointwise, one component per point x: the fiber
    vectors e_(x d + a), on which delta_x acts as the identity, with
    <e_p|e_q> = delta_pq delta_x."""
    x_n, d = sys.n_points, sys.fiber_dim
    eye = np.broadcast_to(np.eye(d, dtype=complex), (x_n, 1, d, d))
    return FDHilbertModule(scalar_algebra(np.ones(x_n)), (Components(
        np.arange(x_n * d).reshape(x_n, d), np.arange(x_n)[:, None], eye,
        eye.transpose(0, 2, 3, 1)),), name="function")


def free_module(n: int) -> FDHilbertModule:
    """C^n over C (the scalars realized as M_1), one component."""
    eye = np.eye(n, dtype=complex)
    return FDHilbertModule(scalar_algebra([1]), (Components(
        np.arange(n)[None], np.zeros((1, 1), dtype=np.intp), eye[None, None],
        eye[None, :, :, None]),), name="free")


# -- compact operators ---------------------------------------------------------


@dataclass(frozen=True)
class CompactOperators:
    """K_B(E): orthonormal rows spanning the rank-one maps at the module's
    carrier pairs, off which every compact is zero, and `rank_margin`,
    sigma_r / sigma_(r+1) of their cut, infinite if none is kept or dropped."""

    module: FDHilbertModule
    raw_rows: np.ndarray        # (r, len(module.pairs)), orthonormal
    rank_margin: float


def _rank_one_maps(action: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """All |e_i><e_j| as one (m, m, m, m) array indexed [i, j, row, col],
    for each of any leading axes the two arrays share: `action[k]` is the
    carrier map of the k-th algebra element and `coefficients[j, l, k]` the
    k-th coefficient of <e_j|e_l>, in any basis.  Column l of |e_i><e_j| is
    e_i . <e_j|e_l>, one batched matmul over (i, j) of [p, k] =
    action[k, p, i] with [k, l] = coefficients[j, l, k]."""
    left = np.ascontiguousarray(np.swapaxes(action, -3, -1))          # [i, p, k]
    right = np.ascontiguousarray(np.swapaxes(coefficients, -2, -1))   # [j, k, l]
    return left[..., :, None, :, :] @ right[..., None, :, :, :]


def _compact_rows(parts, m: int, tol: float) -> tuple[np.ndarray, float, np.ndarray]:
    """(rows, margin, pairs): orthonormal rows spanning the rank-one maps of
    the components `parts` of an m-dimensional carrier at their carrier
    pairs `pairs` (_pairs), and the margin of their cut, as
    compact_operators describes."""
    pairs = _pairs(parts, m)
    cuts = block_cut([_rank_one_maps(st.action, st.inner).reshape(
        len(st.carrier), st.carrier.shape[1] ** 2, -1) for st in parts], tol)
    values = np.concatenate([sv.ravel() for sv, _, _ in cuts] + [[]])
    mask = np.concatenate([keep.ravel() for _, _, keep in cuts] + [[]]).astype(bool)
    rows = np.zeros((int(mask.sum()), pairs.size), dtype=complex)
    offset = 0
    for st, (_, vh, keep) in zip(parts, cuts):
        at = np.searchsorted(pairs, _flat_pairs(st.carrier, m))
        # Value i of one stack comes from component i // s^2.
        kept = np.flatnonzero(keep)
        rows[offset + np.arange(kept.size)[:, None], at[kept // at.shape[1]]] = \
            vh.reshape(-1, vh.shape[-1])[kept]
        offset += kept.size
    dropped = values[~mask].max(initial=0.0)
    margin = np.inf if rows.shape[0] == 0 or dropped == 0.0 \
        else float(values[mask].min() / dropped)
    return rows, margin, pairs


def compact_operators(e: FDHilbertModule, tol: float = DEFAULT_TOL) -> CompactOperators:
    """Span of the rank-one module maps, closed as a matrix *-algebra.

    |e_i><e_j| is nonzero only at (p, l) with i, j, p, l in one carrier
    component S, so the maps are one (s^2, s^2) block per component and
    zero for pairs from two.  Each block is cut by a dense SVD (batched by
    shape) at the whole stack's scale tol max(max_S s_0(S), 1), which keeps
    exactly what the dense SVD of all m^2 maps keeps, at about sum_S s^6.
    ModuleError unless the scalar form is definite, read off the
    eigenvalues of its component blocks.
    """
    check_tol(tol)
    if e._definiteness():
        raise ModuleError("inner product is degenerate on the carrier")
    raw_rows, margin, _ = _compact_rows(e.parts, e.carrier_dim, tol)
    return CompactOperators(e, raw_rows, margin)


def is_full(e: FDHilbertModule, tol: float = 1e-8) -> bool:
    """Is span{<xi|eta>} all of B, its rank cut at `tol`?  Two components'
    values lie in disjoint pairs and coordinates, so the singular values of
    the components' values together are those of the whole (m^2, dim B)."""
    cuts = block_cut([st.inner.reshape(len(st.carrier), -1, st.inner.shape[3])
                      for st in e.parts], tol)
    return sum(int(keep.sum()) for _, _, keep in cuts) == e.algebra.dim


# -- equivariant modules -------------------------------------------------------


@dataclass(frozen=True)
class Carried:
    """gamma on a stack of components: gamma_w carries component b onto
    component target[w, b], e_(carrier[b, i]) to sum_p blocks[w, b, p, i]
    e_(carrier[target[w, b], p])."""

    target: np.ndarray    # (|W|, g)
    blocks: np.ndarray    # (|W|, g, s, s)


@dataclass(frozen=True)
class EquivariantModule:
    """A Hilbert B-module with compatible group actions gamma (on E), beta
    (on B).  gamma is one Carried per stack of base.parts, each row of its
    target a permutation, so no gamma_w mixes two components; else the
    constructor raises ModuleError."""

    base: FDHilbertModule
    beta: AlgebraAction
    gamma: tuple[Carried, ...]

    def __post_init__(self):
        n = self.group.order
        if len(self.gamma) != len(self.base.parts) or any(
                c.blocks.shape != (n,) + st.carrier.shape + st.carrier.shape[1:]
                or c.target.shape != c.blocks.shape[:2]
                for st, c in zip(self.base.parts, self.gamma)):
            raise ModuleError("gamma has wrong shape")
        if any(np.any(np.sort(c.target, axis=1) != np.arange(c.target.shape[1]))
               for c in self.gamma):
            raise ModuleError("gamma_w must carry a stack's components onto a permutation of them")

    @property
    def group(self) -> FiniteGroup:
        return self.beta.group

    def carry(self, xi: np.ndarray) -> np.ndarray:
        """gamma_w xi[w] for carrier vectors xi (|W|, ..., m), one W-orbit
        of components at a time."""
        xi = self.base._carrier(xi)
        out = np.zeros_like(xi)
        for st, idx, gamma in _orbits(self):
            car = st.carrier[idx].ravel()
            gamma = gamma.reshape(gamma.shape[:1] + (1,) * (xi.ndim - 2) + gamma.shape[1:])
            out[..., car] = (gamma @ xi[..., car, None])[..., 0]
        return out

    def validate(self, tol: float = 1e-8, rng=None) -> None:
        """Check the base module, beta and gamma, then gamma_w(xi b) =
        gamma_w(xi) beta_w(b) and <gamma_w xi|gamma_w eta> = beta_w(<xi|eta>)
        on four samples per w at once; the first failure in the order
        (w, sample, check) raises.  gamma_e - 1 and gamma_gh - gamma_g gamma_h
        are bounded by tol max(m, 1) in the Frobenius norm, summed over the
        W-orbits of components, on whose carriers gamma is block diagonal."""
        self.base.validate(tol, rng)
        self.beta.validate(tol)
        g = self.group
        m = self.base.carrier_dim
        ident = hom = 0.0
        for _, _, gamma in _orbits(self):
            ident += np.linalg.norm(gamma[0] - np.eye(len(gamma[0]))) ** 2
            hom = hom + np.linalg.norm(homomorphism_defect(gamma, g.mul), axis=(-2, -1)) ** 2
        if np.sqrt(ident) > tol * max(m, 1):
            raise ModuleError("gamma at the identity is not the identity")
        if np.sqrt(np.max(hom, initial=0.0)) > tol * max(m, 1):
            raise ModuleError("gamma is not a group homomorphism")
        rng = rng or np.random.default_rng(1)
        b_alg, act, inner = self.base.algebra, self.base.act, self.base.inner_product
        k = b_alg.dim
        # Each sample draws xi, eta, then b's coefficients, real parts first.
        parts = np.split(rng.standard_normal((g.order, 4, 4 * m + 2 * k)),
                         np.cumsum([m, m, m, m, k]), axis=-1)
        xi, eta, c = (re + 1j * im for re, im in zip(parts[::2], parts[1::2]))
        # beta_w(b) has b's coefficient j at perm[w, j]: a gather by pi_w^-1.
        back = np.argsort(self.beta.perm, axis=1)[:, None]
        beta_c, beta_inner = (np.take_along_axis(a, back, -1) for a in (c, inner(xi, eta)))
        gx, size = self.carry(xi), np.linalg.norm(xi, axis=-1)
        op = b_alg.norm(c)                                                 # |b|_op
        # [w, sample, check]; inner values in B's coordinates, whose norm is
        # the trace norm.
        bad = np.stack([
            np.linalg.norm(self.carry(act(xi, c)) - act(gx, beta_c), axis=-1)
            > tol * np.maximum(1.0, size * np.maximum(1.0, op)),
            np.linalg.norm(inner(gx, self.carry(eta)) - beta_inner, axis=-1)
            > tol * np.maximum(1.0, size * np.linalg.norm(eta, axis=-1))], axis=-1)
        if bad.any():
            w, _, check = np.unravel_index(bad.argmax(), bad.shape)
            raise ModuleError((f"gamma_w(xi b) != gamma_w(xi) beta_w(b) at w={w}",
                               f"inner product is not equivariant at w={w}")[check])


def scalar_translation_action(sys: EquivariantSystem) -> AlgebraAction:
    """C(X) (diagonal in M_{|X|}) with the translation action of W:
    beta_w(f)(x) = f(w^-1 x)."""
    return AlgebraAction(sys.group, scalar_algebra(np.ones(sys.n_points)), sys.action)


def equivariant_function_module(sys: EquivariantSystem) -> EquivariantModule:
    """C(X, C^d) with gamma_w xi(x) = I_{w, w^-1 x} xi(w^-1 x): gamma_w
    carries the fiber at x onto the fiber at w x by I_{w, x}.  beta
    translates the base module's own C(X), built once."""
    base = function_module(sys)
    beta = AlgebraAction(sys.group, base.algebra, sys.action)
    return EquivariantModule(base, beta, (Carried(sys.action, sys.cocycle),))


def trivial_equivariant_module(e: FDHilbertModule,
                               group: FiniteGroup) -> EquivariantModule:
    """e with W acting trivially: every gamma_w keeps each component."""
    gamma = tuple(Carried(np.tile(np.arange(g), (group.order, 1)),
                          np.broadcast_to(np.eye(s, dtype=complex), (group.order, g, s, s)))
                  for g, s in (st.carrier.shape for st in e.parts))
    perm = np.tile(np.arange(e.algebra.dim), (group.order, 1))
    return EquivariantModule(e, AlgebraAction(group, e.algebra, perm), gamma)


# -- crossed-product and averaged modules --------------------------------------


def green_julg_module(eq: EquivariantModule,
                      cp: CrossedProduct | None = None) -> tuple[FDHilbertModule, CrossedProduct]:
    """E as a module over B >| W: xi . bw = gamma_{w^-1}(xi b), with
    <<xi|eta>> = sum_w <xi|gamma_w eta> w.  Its components (_averaged_parts)
    are in the coordinates of cp.algebra, the crossed coefficients."""
    cp = cp or crossed_product(eq.beta)
    return FDHilbertModule(cp.algebra, _averaged_parts(eq),
                           name=(eq.base.name or "module") + "-averaged"), cp


def _orbits(eq: EquivariantModule):
    """(stack, its components idx, gamma on their carrier (|W|, n s, n s))
    for each W-orbit of components, which gamma_w carries onto each other,
    in order of stacks and of least components; ModuleError when gamma_w
    carries a component off the orbit, as no group action does."""
    for st, carried in zip(eq.base.parts, eq.gamma):
        for idx in _grouped(carried.target.min(axis=0).tolist()).values():
            where = np.full(len(st.carrier), -1)
            where[idx] = np.arange(len(idx))
            onto = where[carried.target[:, idx]]                               # [w, a]
            if np.any(onto < 0):
                raise ModuleError("gamma carries a component off its orbit")
            (w_n, n), s = onto.shape, st.carrier.shape[1]
            gamma = np.zeros((w_n, n, s, n, s), dtype=complex)
            gamma[np.arange(w_n)[:, None], onto, :, np.arange(n), :] = carried.blocks[:, idx]
            yield st, idx, gamma.reshape(w_n, n * s, n * s)


def _averaged_parts(eq: EquivariantModule) -> list[Components]:
    """The averaged module's components, one per W-orbit of components
    (_orbits), joined.

    There a_(w,i) = b_i w / sqrt|W|, coordinate w dim B + i, acts by
    gamma_{w^-1} R_{b_i} / sqrt|W|, and <<e_p|e_q>> has the coefficient
    sqrt|W| sum_j gamma_w[j, q] <e_p|e_j>_i, zero unless p and q share an
    orbit.
    """
    g, k = eq.group, eq.base.algebra.dim
    root = np.sqrt(g.order)
    parts = []
    for st, idx, gamma in _orbits(eq):                                      # gamma [w, j, q]
        n, (c, s) = len(idx), st.action.shape[1:3]
        one = np.arange(n)
        action = np.zeros((n, c, n, s, n, s), dtype=complex)
        action[one, :, one, :, one] = st.action[idx]
        inner = np.zeros((n, s, n, s, n, c), dtype=complex)
        inner[one, :, one, :, one] = st.inner[idx]
        carrier, s, c = st.carrier[idx].ravel(), n * s, n * c
        maps = (gamma[g.inv, None] / root) @ action.reshape(c, s, s)
        values = inner.reshape(s, s, c).transpose(0, 2, 1) @ gamma[:, None]  # [w, p, i, q]
        parts.append(Components(carrier[None], (np.arange(g.order)[:, None] * k
                                                + st.coords[idx].ravel()).reshape(1, -1),
                                maps.reshape(1, -1, s, s),
                                root * values.transpose(1, 3, 0, 2).reshape(1, s, s, -1)))
    return parts


def _placed(rows: np.ndarray, pairs: np.ndarray, onto: np.ndarray) -> np.ndarray:
    """Rows at the carrier pairs `pairs`, written at their places among the
    pairs `onto`, which hold them; both ascending, as FDHilbertModule.pairs."""
    out = np.zeros((len(rows), onto.size), dtype=complex)
    out[:, np.searchsorted(onto, pairs)] = rows
    return out


def invariant_compacts_rows(eq: EquivariantModule,
                            compacts: CompactOperators | None = None,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """K_B(E)^W = {k : gamma_w k = k gamma_w} at the base module's pairs.

    With R the orthonormal rows of the compacts, read as matrices K_i, it
    is c R for the c with sum_i c_i (gamma_g K_i - K_i gamma_g) = 0 at W's
    generators g.  A K_i on component S commutes into the blocks (gS, S)
    and (S, g^-1 S), so that matrix is block diagonal by W-orbit of
    components: one kernel per orbit, all cut at the whole matrix's scale
    tol max(s_0, 1), s_0 the largest singular value of all orbits.  Each
    orbit's c are orthonormal, so the rows c R are.
    """
    check_tol(tol)
    rows = (compacts or compact_operators(eq.base, tol)).raw_rows
    gens = list(eq.group.generators())
    if not gens:
        return rows
    comms, sels = [], []      # each orbit's commutator matrix and rows
    for st, idx, gamma in _orbits(eq):
        car = st.carrier[idx]
        local = rows[:, np.searchsorted(eq.base.pairs, _flat_pairs(car, eq.base.carrier_dim))]
        sel = np.flatnonzero(np.abs(local).max(axis=(1, 2)) > 0)           # [i, a, pair]
        if not sel.size:
            continue
        (n, s), one = car.shape, np.arange(len(idx))
        mats = np.zeros((sel.size, n, s, n, s), dtype=complex)
        mats[:, one, :, one, :] = local[sel].reshape(sel.size, n, s, s).swapaxes(0, 1)
        mats = mats.reshape(sel.size, n * s, n * s)
        gamma = gamma[gens][:, None]
        comm = (gamma @ mats - mats @ gamma).transpose(0, 2, 3, 1)               # [g, p, q, i]
        comms.append(comm.reshape(-1, sel.size))
        sels.append(sel)
    return np.concatenate([vh[keep.sum():].conj() @ rows[sel]
                           for (_, vh, keep), sel in zip(block_cut(comms, tol), sels)]
                          + [rows[:0]])


@dataclass(frozen=True)
class GreenJulgVerdict:
    ok: bool
    averaged_compacts_dim: int
    invariant_compacts_dim: int
    residual: float


def verify_green_julg(eq: EquivariantModule, tol: float = 1e-8) -> GreenJulgVerdict:
    """K_{B >| W}(E) = K_B(E)^W, compared as spans at the averaged module's
    carrier pairs, which hold the base module's.  Both sides are found at
    `tol`: the averaged compacts cut one orbit at a time from the averaged
    components (a rank-one map is the same operator in any basis of
    B >| W), and the invariant compacts as kernels in the coordinates of
    K_B(E); neither the crossed product's algebra nor the Kronecker
    commutant is built.
    """
    check_tol(tol)
    eq.beta.validate(tol)
    lhs, _, pairs = _compact_rows(_averaged_parts(eq), eq.base.carrier_dim, tol)
    inv_rows = _placed(invariant_compacts_rows(eq, tol=tol), eq.base.pairs, pairs)
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

    `left_action[k]` holds the entries, at the module's carrier pairs
    (FDHilbertModule.pairs), of the raw carrier matrix by which A's basis
    element k acts on E; its other entries are zero, as every compact's
    are.  The map must be a *-isomorphism onto the compacts, whose rows
    compact_operators cuts in the same coordinates.
    """
    rng = rng or np.random.default_rng(0)
    left_action = np.asarray(left_action, dtype=complex)
    if left_action.shape != (a_alg.dim, e.pairs.size):
        raise ModuleError("the left action holds one row over the module's carrier pairs "
                          "per basis element of A")
    full = is_full(e, tol)
    compacts = compact_operators(e, tol)
    img_rows = orthonormal_rows(left_action, tol)
    injective = img_rows.shape[0] == a_alg.dim
    span_match = spans_equal(img_rows, compacts.raw_rows, tol)
    # Eight samples, each drawing c1 then c2, real parts before imaginary;
    # their products and adjoints are read off A's tables.  Each image is
    # held at the carrier pairs, where products and module adjoints are
    # taken one component block at a time, and the entries off the pairs
    # are zero on both sides.
    draws = rng.standard_normal((8, 4, a_alg.dim))
    c1, c2 = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
    l1, l2, l12, lstar = (c @ left_action
                          for c in (c1, c2, a_alg.multiply(c1, c2), a_alg.adjoint(c1)))
    top = [np.abs(x).max(axis=1, initial=0.0)
           for x in (l1, l2, e._blockwise(lambda _, a, b: a @ b, l1, l2) - l12,
                     lstar - e.module_adjoint(l1))]
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
    """E1 (+) E2 over B1 (+) B2 (block-diagonal ambient): the components of
    both, E2's at the carrier vectors and coordinates after E1's."""
    moved = (Components(st.carrier + e1.carrier_dim, st.coords + e1.algebra.dim, st.action,
                        st.inner) for st in e2.parts)
    return FDHilbertModule(_block_sum(e1.algebra, e2.algebra), e1.parts + tuple(moved),
                           name="direct-sum")


def direct_sum_left_action(a1: MatrixStarAlgebra, l1: np.ndarray, a2: MatrixStarAlgebra,
                           l2: np.ndarray) -> tuple[MatrixStarAlgebra, np.ndarray]:
    """A1 (+) A2 with its left action on E1 (+) E2, for left actions at the
    carrier pairs of E1 and E2: the sum's pairs are E1's, then E2's."""
    left = np.zeros((a1.dim + a2.dim, l1.shape[1] + l2.shape[1]), dtype=complex)
    left[:a1.dim, :l1.shape[1]] = l1
    left[a1.dim:, l1.shape[1]:] = l2
    return _block_sum(a1, a2), left
