"""Scalar subgroups, the ideal C(X, W, I), and the Morita endgame.

For a system (X, W, H, I) the stabilizer elements whose cocycle unitary is a
scalar cut out subgroups W'_x; under a normalisation condition (the scalars
are 1) and a completeness condition (the cocycle representation of W_x
contains every irreducible trivial on W'_x, which scalar_subgroups reads as
the rank of a Gram matrix of traces), the fixed-point algebra
C(X, M_d)^W is Morita equivalent to the ideal

    C(X, W, I) = {f in C(X) >| W : f_{w'w}(x) = f_w(x) for all w' in W'_x},

with the equivalence implemented by the averaged function module.  The
semidirect reduction then rewrites the ideal as C(X, W', I) >| R for a
splitting W = W' >| R and lands on C(X/W') >| R — the finite shape of the
reduced dual.  Its iterated crossed product (C(X) >| W') >| R is the
crossed product of R's action on C(X) >| W', read against C(X) >| W in the
coordinates of both algebras.

The ideal test and the comparison of J with C run in the crossed product's
coefficients, which are orthonormal coordinates, so rank cuts, norms and
residuals are those of the trace inner product.  Both J and C split over
the points of X, into |X| column blocks of C^|W|.  C is held by its points,
the coset indicators of each C_x, and is built, tested as an ideal and
transported along the reduction point by point; J's rank is one batched
cut over the points, read off the base module's point components and
gamma's blocks (verify_morita_theorem gives the argument), which also
names the points where J falls short of C.  C's whole rows are written out
only for its algebra, the crossed product's restricted to them, and to
rebase the Green-Julg module onto a proper C component by component.
The Morita witnesses get their left actions at their modules' carrier
pairs, read off the pointwise fixed-point functions, so no crossed-product
element or function is embedded as a matrix; the reduction's quotient
module reads its gamma off the cocycle at the orbits' least points.
Stabilizers and orbits are the systems' (EquivariantSystem.orbits).  The
Green-Julg module is built only when both cocycle conditions hold, and the
fixed-point algebra only when J = C as well, for the Morita witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groups import FiniteGroup, Subgroup, semidirect_decomposition
from .hilbmod import (
    Carried,
    Components,
    EquivariantModule,
    FDHilbertModule,
    ModuleError,
    MoritaWitness,
    _checked_coefficients,
    _placed,
    compact_operators,
    direct_sum_left_action,
    direct_sum_module,
    equivariant_function_module,
    green_julg_module,
    scalar_translation_action,
    verify_morita,
)
from .linalg import (
    DEFAULT_TOL,
    block_cut,
    check_tol,
    row_residuals,
    span_contains,
)
from .matalg import MatrixStarAlgebra, block_decompose, restricted_algebra
from .systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    crossed_product,
    _iterated_crossed_iso,
    _along_orbits,
    _least_point_kernels,
    _outer_action,
    fixed_point_algebra,
    restrict_system,
    scalar_algebra,
)


class MoritaError(ValueError):
    pass


class SplittingError(MoritaError):
    """The hypothesis W'_x = W_x n W' fails; carries a counterexample point."""

    def __init__(self, point: int, message: str):
        super().__init__(message)
        self.point = point


# -- scalar subgroups ----------------------------------------------------------


@dataclass(frozen=True)
class ScalarStructure:
    """Per-point scalar subgroups of the stabilizers, with condition flags.

    `scalar_elements[x]` lists stabilizer elements whose cocycle unitary is a
    scalar multiple of the identity; `wprime[x]` lists those whose scalar is
    1 (the normalised part, used for the ideal constraints), as the
    read-only mask `wprime_mask[x, w]` too.  The normalisation condition
    holds when the two agree everywhere; completeness at x, when
    span{I_{w,x} : w in W_x} has dimension |W_x|/|W'_x|.
    """

    system: EquivariantSystem
    stabilizers: tuple[tuple[int, ...], ...]
    scalar_elements: tuple[tuple[int, ...], ...]
    scalar_values: tuple[tuple[complex, ...], ...]
    wprime: tuple[tuple[int, ...], ...]
    wprime_mask: np.ndarray = field(repr=False, compare=False)   # [x, w]
    normalisation_ok: bool
    completeness_ok: bool
    completeness_by_point: tuple[bool, ...]


def scalar_subgroups(sys: EquivariantSystem, tol: float = 1e-8) -> ScalarStructure:
    """Detect W'_x per point and evaluate normalisation and completeness.

    A cocycle unitary counts as scalar when its distance to (trace/d) id is
    below tolerance.  Verified invariants: each W'_x is a normal subgroup of
    the stabilizer W_x, and w W'_x w^-1 = W'_{wx}.

    The stabilizers are sys.orbits', the scalar tests are read off the
    cocycle in one pass over all (w, x), and the invariants are one
    comparison of masks through the multiplication table.  Completeness is
    a rank: w -> I_{w,x} is trivial on W'_x, a representation of Q =
    W_x/W'_x, and C[Q] is the sum of M_{d_rho} over Q's irreps (Serre,
    Linear Representations of Finite Groups, 6.2), so every rho occurs
    exactly when span{I_{w,x}} has dimension |Q|: the rank of the Gram
    matrix G_x[u, v] = tr I_{u^-1 v, x}, u, v in W_x, one batched eigvalsh
    per distinct stabilizer.  On each isotypic part of C[W_x], G_x is
    |W_x| m_rho / d_rho, 0 or at least 1, so the eigenvalues above 1/2 are
    counted whatever tol is.
    """
    check_tol(tol)
    g = sys.group
    d = sys.fiber_dim
    x_n = sys.n_points
    stab = sys.orbits.fixes                                           # [w, x]
    traces = np.trace(sys.cocycle, axis1=-2, axis2=-1)                # [w, x]
    lam = traces / d
    dev = np.linalg.norm(sys.cocycle - lam[..., None, None] * np.eye(d), axis=(-2, -1))
    scalar = stab & (dev < tol * np.maximum(1.0, np.abs(lam)) * d)
    wp = scalar & (np.abs(lam - 1.0) < tol)
    _check_scalar_invariants(g, sys.action, stab, wp)

    def per_point(mask):
        return tuple(tuple(int(w) for w in np.flatnonzero(mask[:, x])) for x in range(x_n))

    scalars, wprime = per_point(scalar), per_point(wp)
    values = tuple(tuple(complex(lam[w, x]) for w in scalars[x]) for x in range(x_n))
    mask = wp.T.copy()
    mask.setflags(write=False)
    normalisation_ok = bool(np.array_equal(scalar, wp))
    by_point = np.ones(x_n, dtype=bool)
    for elems, xs in sys.orbits.by_stabilizer:
        u = np.array(elems)
        gram = traces[g.mul[g.inv[u][:, None], u]][..., xs].transpose(2, 0, 1)   # [x, u, v]
        rank = (np.linalg.eigvalsh(gram) > 0.5).sum(axis=1)
        by_point[xs] = rank * wp[:, xs].sum(axis=0) == len(elems)
    return ScalarStructure(sys, sys.orbits.stabilizers, scalars, values, wprime, mask,
                           normalisation_ok, bool(by_point.all()), tuple(bool(b) for b in by_point))


def _check_scalar_invariants(g: FiniteGroup, action: np.ndarray, stab: np.ndarray,
                             wp: np.ndarray) -> None:
    """Raise MoritaError at the first point x, and there the first w, at
    which W'_x is not a normal subgroup of W_x or w W'_x w^-1 != W'_(wx).
    `stab` and `wp` are [w, x] masks of W_x and W'_x.

    v lies in w W'_x w^-1 exactly when w^-1 v w lies in W'_x, so the two
    sets agree when row x of wp read through w^-1 v w equals row wx.  W'_x is
    normal in W_x when it is a subgroup and the sets agree for every w in
    W_x.  Normality is tested first at each point, so a point that fails at
    some w fixing it is reported as not normal.
    """
    mul, n = g.mul, g.order
    at = wp.T                                                         # [x, u]
    # [x, u, v]: u, v in W'_x but uv not.
    unclosed = at[:, :, None] & at[:, None, :] & ~at[:, mul]
    not_subgroup = ~at[:, 0] | unclosed.any(axis=(1, 2))
    conj_inv = mul[mul[g.inv], np.arange(n)[:, None]]                 # [w, v]: w^-1 v w
    bad = (at[:, conj_inv] != at[action.T]).any(axis=2)               # [x, w]
    not_normal = not_subgroup | (bad & stab.T).any(axis=1)
    failing = not_normal | bad.any(axis=1)
    if not failing.any():
        return
    x = int(np.argmax(failing))
    if not_normal[x]:
        raise MoritaError(f"W'_x is not normal in the stabilizer at x={x}")
    raise MoritaError(f"w W'_x w^-1 != W'_(wx) at x={x}, w={int(np.argmax(bad[x]))}")


# -- the ideal C(X, W, I) ------------------------------------------------------


@dataclass(frozen=True)
class CIdeal:
    """C(X, W, I) inside C(X) >| W, point by point.

    `by_point[x]` holds C_x's orthonormal rows in the column block (., x) of
    cp's coefficients, orthonormal coordinates of cp.algebra, in its first
    `ranks[x]` slots by the least element of their coset, zeros after.
    `rows`, the (dim, |W| |X|) rows point after point, and `algebra`, the
    ideal against them (restricted_algebra, or cp.algebra at full
    dimension), are built on first access.
    """

    system: EquivariantSystem
    cp: CrossedProduct
    by_point: np.ndarray       # (|X|, |W|, |W|)
    ranks: np.ndarray          # (|X|,): dim C_x

    @property
    def dim(self) -> int:
        return int(self.ranks.sum())

    @cached_property
    def rows(self) -> np.ndarray:
        x_n, w_n = self.ranks.size, self.by_point.shape[2]
        rows = np.zeros((self.dim, w_n, x_n), dtype=complex)
        rows[np.arange(self.dim), :, np.repeat(np.arange(x_n), self.ranks)] = \
            self.by_point[np.arange(w_n) < self.ranks[:, None]]
        return rows.reshape(self.dim, -1)

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        if self.dim == self.cp.dim:
            return self.cp.algebra
        return restricted_algebra(self.cp.algebra, self.rows)


def c_ideal(sys: EquivariantSystem, scalar: ScalarStructure | None = None,
            cp: CrossedProduct | None = None,
            tol: float = DEFAULT_TOL) -> CIdeal:
    """Solve f_{w'w}(x) = f_w(x) for w' in W'_x inside the crossed product.

    The constraints at x involve only the coefficients f_w(x), column block
    (., x), so C is the direct sum over points of C_x, the functions on W
    constant on each right coset W'_x w.  The normalised indicators of those
    cosets are an orthonormal basis of C_x; no kernel is solved.  W'_x is a
    subgroup, as scalar_subgroups checks, so the cosets partition W.  In
    cp's orthonormal coefficients the result is verified to be a two-sided
    *-closed ideal of C(X) >| W (CrossedProduct.is_ideal, by point).
    """
    check_tol(tol)
    scalar = scalar or scalar_subgroups(sys, tol)
    cp = cp or crossed_product(scalar_translation_action(sys), tol)
    g = sys.group
    w_n, x_n = g.order, sys.n_points
    # [x, w]: the least element of the coset W'_x w, which names it.
    least = np.where(scalar.wprime_mask[:, :, None], g.mul[None], w_n).min(axis=1)
    points, first = np.nonzero(least == np.arange(w_n))              # each coset once
    ranks = np.bincount(points, minlength=x_n)
    slot = np.arange(points.size) - np.repeat(np.cumsum(ranks) - ranks, ranks)
    members = least[points] == first[:, None]                        # [row, w]
    by_point = np.zeros((x_n, w_n, w_n), dtype=complex)
    by_point[points, slot] = members / np.sqrt(members.sum(axis=1, keepdims=True))
    if not cp.is_ideal(by_point, tol):
        raise MoritaError("C(X, W, I) is not an ideal of the crossed product")
    return CIdeal(sys, cp, by_point, ranks)


# -- the Morita theorem --------------------------------------------------------


def rebase_module(e: FDHilbertModule, rows: np.ndarray) -> FDHilbertModule:
    """View a module over the subalgebra spanned by orthonormal rows of B's
    coordinates, which must contain all its inner products.

    Basis element s of the subalgebra is sum_k rows[s, k] b_k, and its
    product table is B's restricted to the rows (restricted_algebra).  The
    carrier components stay: each row must lie in the coordinates of one
    or of none, and a component takes the maps sum_k r[k] action[k] of its
    rows r and its inner values projected onto them; ModuleError when a row
    or a value leaves them.
    """
    b_alg = e.algebra
    owner = np.full(b_alg.dim, -1)                                  # each coordinate's component
    for st in e.parts:
        owner[st.coords] = st.coords[:, :1]
    touch = rows != 0
    first = np.where(touch, owner, b_alg.dim).min(axis=1)
    if np.any(touch & (owner != first[:, None])):
        raise ModuleError("a row of the subalgebra leaves the coordinates of its carrier component")
    parts = []
    for st in e.parts:
        for b, crd in enumerate(st.coords):
            sel = np.flatnonzero(first == crd[0])
            r_b = rows[np.ix_(sel, crd)]
            maps = (r_b @ st.action[b].reshape(len(crd), -1)).reshape(-1, *st.action.shape[2:])
            parts.append(Components(st.carrier[b:b + 1], sel[None], maps[None],
                                    _checked_coefficients(r_b, st.inner[b])[None]))
    return FDHilbertModule(restricted_algebra(b_alg, rows), tuple(parts),
                           name=e.name + "-rebased")


def _averaged_point_blocks(eq: EquivariantModule) -> np.ndarray:
    """(|X|, |W| d^2, |W|): block x holds the crossed coefficients (., x) of
    the averaged values <<e_p|e_q>> = sqrt|W| sum_j gamma_w[j, q] <e_p|e_j>
    with e_p at x (p = x d + a), read off the function module eq.base, whose
    components are the points in order, and gamma's blocks.  With j at x,
    gamma_w[j, q] is zero unless gamma_w carries q's point onto x, so only
    the e_q of x's orbit have values: row (v, a, b) holds e_q = e_(y d + b)
    for the first v with v^-1 x = y, and the other rows are zero, so the
    block has the singular values and right singular vectors of the rows of
    all m vectors e_q.  Every other coefficient is zero."""
    (st,), (carried,) = eq.base.parts, eq.gamma
    w_n, x_n = carried.target.shape
    d, w = st.carrier.shape[1], np.arange(w_n)
    pre = np.argsort(carried.target, axis=1).T                        # [x, w]: w^-1 x
    first = (pre[:, :, None] == pre[:, None, :]).argmax(axis=1)       # [x, w]: its row v
    out = np.zeros((x_n, w_n, d, d, w_n), dtype=complex)
    out[np.arange(x_n)[:, None], first, :, :, w] = np.sqrt(w_n) * (
        st.inner[:, None, ..., 0] @ carried.blocks[w, pre])
    return out.reshape(x_n, -1, w_n)


def _point_spans(blocks: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(rows, ranks): orthonormal rows (|X|, r, |W|) of each block's row
    span, dropped rows set to zero, from one batched SVD cut at the whole
    matrix's scale (block_cut)."""
    (_, vh, keep), = block_cut([blocks], tol)
    return vh * keep[..., None], keep.sum(axis=1)


@dataclass(frozen=True)
class MoritaTheoremVerdict:
    scalar: ScalarStructure
    conditions_hold: bool
    j_dim: int
    c_dim: int
    spans_match: bool
    strict_inclusion: bool
    j_in_c_residual: float
    witness: MoritaWitness | None
    fpa_blocks: int | None
    c_blocks: int | None
    ideal: CIdeal
    module: FDHilbertModule | None   # the rebased witness module, when built
    witness_fpa: MatrixStarAlgebra | None    # the fixed-point algebra, when a witness built it
    gaps: tuple[tuple[int, int, int], ...]   # (x, dim J_x, dim C_x) where J_x < C_x
    tol: float                               # the tolerance of every cut

    @cached_property
    def fpa(self) -> MatrixStarAlgebra:
        """C(X, M_d)^W: the witness's, or built on first access at `tol`."""
        return self.witness_fpa or fixed_point_algebra(self.scalar.system, self.tol)

    @property
    def ok(self) -> bool:
        if self.conditions_hold:
            return self.spans_match and self.witness is not None and self.witness.ok
        return self.strict_inclusion or self.j_dim == self.c_dim


def verify_morita_theorem(sys: EquivariantSystem, seed: int = 0,
                          tol: float = 1e-8,
                          scalar: ScalarStructure | None = None) -> MoritaTheoremVerdict:
    """Check C(X, M_d)^W ~ C(X, W, I) through the averaged function module.

    J = span{<<e_p|e_q>>} is compared with C(X, W, I); under both cocycle
    conditions the spans must agree and a Morita witness is produced.  When
    completeness fails the strictness of J in C is reported instead, and
    `gaps` names the points x where dim J_x < dim C_x.  `scalar`, when
    given, must be scalar_subgroups(sys, tol).  J's rank, C's ideal check,
    the span tests, the fixed-point algebra, both block decompositions and
    the witness all take `tol`, which the verdict records.

    J and C are compared in the crossed product's coefficients, which are
    orthonormal, so their singular values, norms and residuals are those of
    the embedded matrices.  Both are cut point by point, and that is exact:
      - delta_x in C(X) multiplies f = sum f_w(y) delta_y w to the column
        block (., x) of its coefficients, so both J and C, left ideals, are
        the direct sums of their blocks J_x and C_x in C^|W|.
      - <<e_p|e_q>> = sum_w <e_p|gamma_w e_q> w has B-coefficients only at
        the point x of e_p, so each generating row lies in one block, and
        the rows of different blocks are orthogonal: the singular values
        of the whole (m^2, |W| |X|) matrix are the union of the blocks',
        and one batched SVD of the |X| blocks (_averaged_point_blocks),
        cut at the whole matrix's scale tol max(max_x s_0(x), 1), keeps the
        same values.
      - A vector of block x is as far from J (or C) as from J_x (or C_x),
        so the residuals and containments, taken on the stacks of blocks,
        are those of the whole spans.
    C_x is spanned by the normalised indicators of the right cosets
    W'_x w (CIdeal.by_point).  J's blocks come straight from the base
    module's point components and gamma's blocks, one batched product over
    the points; under both conditions the Green-Julg module is built for
    the witness, which rebases it onto a proper C's rows, keeping its
    components, the orbits, at whose carrier pairs the fixed-point
    functions act.  `module` and `witness_fpa` are None when no witness is
    built; `fpa` is then built on first access.
    """
    check_tol(tol)
    scalar = scalar or scalar_subgroups(sys, tol)
    eq = equivariant_function_module(sys)
    cp = crossed_product(eq.beta, tol)
    cid = c_ideal(sys, scalar, cp, tol)
    conditions = scalar.normalisation_ok and scalar.completeness_ok
    d = sys.fiber_dim
    # A witness needs the averaged module.
    averaged = green_julg_module(eq, cp)[0] if conditions else None
    j_rows, j_ranks = _point_spans(_averaged_point_blocks(eq), tol)
    c_rows, c_ranks = cid.by_point, cid.ranks
    j_dim = int(j_ranks.sum())
    j_in_c = float(row_residuals(c_rows, j_rows).max(initial=0.0))
    spans_match = j_dim == cid.dim and span_contains(c_rows, j_rows, tol) \
        and span_contains(j_rows, c_rows, tol)
    strict = j_dim < cid.dim and span_contains(c_rows, j_rows, tol)
    gaps = tuple((int(x), int(j_ranks[x]), int(c_ranks[x]))
                 for x in np.flatnonzero(j_ranks < c_ranks))
    witness = fpa = fpa_blocks = c_blocks = module = None
    if averaged is not None and spans_match:
        fpa = fixed_point_algebra(sys, tol)
        module = averaged if cid.dim == cp.dim else rebase_module(averaged, cid.rows)
        # f acts inside each point's fiber: f(x)[a, b] at the pair (x d + a, x d + b).
        p, q = np.divmod(module.pairs, module.carrier_dim)
        left = fpa.functions[:, p // d, p % d, q % d] * (p // d == q // d)
        witness = verify_morita(fpa, module, left, tol, rng=np.random.default_rng(seed))
        fpa_blocks = len(block_decompose(fpa, seed=seed, tol=tol).blocks)
        c_blocks = len(block_decompose(module.algebra, seed=seed, tol=tol).blocks)
    return MoritaTheoremVerdict(scalar, conditions, j_dim, cid.dim,
                                spans_match, strict, j_in_c, witness,
                                fpa_blocks, c_blocks, cid, module, fpa, gaps, tol)


# -- semidirect reduction ------------------------------------------------------


def _check_splitting(sys: EquivariantSystem, scalar: ScalarStructure,
                     wprime) -> None:
    """Raise SplittingError at the first point x with W'_x != W_x n W'."""
    expected = sys.orbits.fixes.T & np.isin(np.arange(sys.group.order), wprime)   # [x, w]
    bad = (scalar.wprime_mask != expected).any(axis=1)
    if bad.any():
        x = int(bad.argmax())
        raise SplittingError(x, f"W'_x != W_x n W' at point index {x}: {sorted(scalar.wprime[x])}"
                                f" vs {np.flatnonzero(expected[x]).tolist()}")


def quotient_equivariant_module(sys: EquivariantSystem, sys_p: EquivariantSystem,
                                u_emb: np.ndarray, v_sub: Subgroup, tol: float = DEFAULT_TOL):
    """The W'-invariant vectors of C(X, C^d) as an R-equivariant module
    over C(X/W'), for sys_p = restrict_system(sys, W'), W' the elements
    u_emb of W, and R = v_sub.

    One component per W'-orbit O: an invariant u is u(x) at O's least
    point x, a vector fixed by each I_{s,x}, s in W'_x (a kernel batched by
    stabilizer, cut as fixed_point_algebra cuts), carried to wx by I_{w,x}
    as fixed_point_algebra carries its functions.  Divided by sqrt|O| they
    are orthonormal; C(X/W') is written down (scalar_algebra of the
    W'-orbits' sizes), delta_O / sqrt|O| acts on them as 1 / sqrt|O| and
    <u_p|u_q> is delta_pq delta_O / |O|.  gamma_v carries O's component
    onto v O's by u(x')* I_{v,z} I_{u,x} u(x), read at the least points x
    of O and x' = v z of v O, u in W' the mover of z.  Returns
    (equivariant module, invariant rows), in order of least points.
    """
    d, x_n = sys.fiber_dim, sys.n_points
    orbits = sys_p.orbits
    least = orbits.least
    vecs, home = _least_point_kernels(
        orbits, lambda stab, xs: sys_p.cocycle[np.ix_(stab, xs)], d, tol)
    k, y, transport, root = _along_orbits(sys_p, home)
    u_rows = np.zeros((len(home), x_n, d), dtype=complex)
    u_rows[k, y] = (transport @ vecs[k, :, None])[..., 0] / root[:, None]
    u_rows = u_rows.reshape(len(home), -1)
    size = np.bincount(least)                                          # [x]: |O| at least x
    q_alg = scalar_algebra(size[list(orbits.representatives)])        # C(X/W')
    orbit_of = np.searchsorted(orbits.representatives, least)        # [x]
    counts = np.bincount(orbit_of[home], minlength=q_alg.dim)
    starts = np.cumsum(counts) - counts
    parts = []     # an orbit without invariant vectors has an empty component, dropped
    for o, (n, x) in enumerate(zip(counts, orbits.representatives)):
        unit = np.eye(n, dtype=complex)[None] / np.sqrt(size[x])      # delta_O / sqrt|O| on O
        parts.append(Components(starts[o] + np.arange(n)[None], np.array([[o]]), unit[None],
                                unit[..., None]))
    base = FDHilbertModule(q_alg, tuple(parts), name="quotient-invariant")
    # R permutes the orbits: [v, o] the orbit of v x for the least point x
    # of orbit o, its least point x', and z = v^-1 x' in o.
    v_emb, reps = np.array(v_sub.embedding), np.array(orbits.representatives)
    image = orbit_of[sys.action[v_emb][:, reps]]
    z = sys.action[sys.group.inv[v_emb][:, None], reps[image]]
    carry = sys.cocycle[v_emb[:, None], z] @ sys.cocycle[u_emb[orbits.mover[z]], reps]
    gamma = []
    for st in base.parts:      # a component's carrier is its vectors' indices
        o = st.coords[:, 0]
        where = np.zeros(q_alg.dim, dtype=np.intp)
        where[o] = np.arange(len(o))
        target = where[image[:, o]]
        gamma.append(Carried(target, vecs[st.carrier[target]].conj() @ carry[:, o]
                             @ vecs[st.carrier].swapaxes(-1, -2)))
    return EquivariantModule(base, AlgebraAction(v_sub.group, q_alg, image),
                             tuple(gamma)), u_rows


@dataclass(frozen=True)
class ReductionReport:
    """Per-link verification of fpa ~ C(X,W,I) = C(X,W',I) >| R ~ C(X/W') >| R."""

    system_name: str
    splitting_ok: bool
    theorem: MoritaTheoremVerdict            # fpa(sys) ~ C(X, W, I)
    iso_bijective: bool                      # C(X) >| W = (C(X) >| W') >| R
    iso_mult_residual: float
    iso_star_residual: float
    ideal_transport_ok: bool                 # the iso matches the two ideals
    wprime_theorem: MoritaTheoremVerdict     # fpa(sys|W') ~ C(X, W', I)
    final_witness: MoritaWitness             # fpa(sys) ~ C(X/W') >| R
    fpa_block_count: int
    final_block_count: int
    final_dim: int

    @property
    def ok(self) -> bool:
        return (self.splitting_ok and self.theorem.ok and self.iso_bijective
                and self.iso_mult_residual < 1e-8
                and self.iso_star_residual < 1e-8
                and self.ideal_transport_ok and self.wprime_theorem.ok
                and self.final_witness.ok
                and self.fpa_block_count == self.final_block_count)


def semidirect_reduction(sys: EquivariantSystem, wprime, r, seed: int = 0,
                         tol: float = 1e-8) -> ReductionReport:
    """Verify the reduction chain for a supplied splitting W = W' >| R.

    Links: (1) fpa(sys) ~ C(X,W,I) (Morita theorem); (2) the ideal transports
    to C(X,W',I) >| R through the iterated-crossed-product isomorphism;
    (3) fpa(sys|W') ~ C(X,W',I); (4) the R-averaged quotient module gives
    fpa(sys) ~ C(X/W') >| R directly.  Block counts of the two ends compared.
    """
    check_tol(tol)
    return _semidirect_reduction(sys, wprime, r, seed, tol)[0]


def _semidirect_reduction(sys: EquivariantSystem, wprime, r, seed: int,
                          tol: float):
    """The reduction report, with the link-4 witness data it was built from:
    (report, R-averaged quotient module, left action of report.theorem.fpa)."""
    g = sys.group
    semidirect_decomposition(g, wprime, r)   # raises when not a splitting
    scalar = scalar_subgroups(sys, tol)
    _check_splitting(sys, scalar, wprime)

    thm = verify_morita_theorem(sys, seed=seed, tol=tol, scalar=scalar)

    # Link 3: the theorem for the restricted system.
    sys_p, u_sub = restrict_system(sys, wprime)
    thm_p = verify_morita_theorem(sys_p, seed=seed, tol=tol)

    # Link 2: (C(X) >| W') >| R ~ C(X) >| W on the crossed products the two
    # theorems built; C(X, W', I), thm_p's ideal, transports onto thm's.
    u_emb, v_sub = np.array(u_sub.embedding), g.subgroup(r)
    alpha, w_of = _outer_action(thm.ideal.cp.action, thm_p.ideal.cp, u_emb, v_sub)
    iso = _iterated_crossed_iso(thm.ideal.cp, crossed_product(alpha, tol), w_of,
                                np.random.default_rng(0))
    img, img_ranks = _point_spans(_transported_points(w_of, thm_p.ideal.by_point), tol)
    c_rows = thm.ideal.by_point
    ideal_transport_ok = bool(img_ranks.sum() == thm.ideal.dim and span_contains(c_rows, img, tol)
                              and span_contains(img, c_rows, tol))

    # Link 4: fpa(sys) ~ C(X/W') >| R, fpa acting on the W'-invariant vectors
    # by u_p* f u_q, zero unless both lie on one W'-orbit O, a component of
    # eq_q's base whose coordinate is O's index; f and u are carried along O
    # by I, so it is |O| times its term at O's least point x.
    eq_q, u_rows = quotient_equivariant_module(sys, sys_p, u_emb, v_sub, tol)
    eq_q.validate(tol)                        # validates beta, so it is crossed unchecked
    gj_q, cp_q = green_julg_module(eq_q, CrossedProduct(eq_q.beta))
    fpa = thm.fpa
    vecs = u_rows.reshape(len(u_rows), sys.n_points, sys.fiber_dim)
    reps = np.array(sys_p.orbits.representatives)
    x = np.zeros(len(u_rows), dtype=np.intp)          # each vector's W'-least point
    for st in eq_q.base.parts:
        x[st.carrier] = reps[st.coords]
    p, q = np.divmod(eq_q.base.pairs, len(u_rows))
    local = np.einsum("na,knab,nb->kn", vecs[p, x[p]].conj(), fpa.functions[:, x[p]],
                      vecs[q, x[p]], optimize=True) * np.bincount(sys_p.orbits.least)[x[p]]
    left = _placed(local, eq_q.base.pairs, gj_q.pairs)
    final_witness = verify_morita(fpa, gj_q, left, tol,
                                  rng=np.random.default_rng(seed))
    fpa_blocks = thm.fpa_blocks
    if fpa_blocks is None:
        fpa_blocks = len(block_decompose(fpa, seed=seed, tol=tol).blocks)
    final_blocks = len(block_decompose(cp_q.algebra, seed=seed, tol=tol).blocks)
    report = ReductionReport(sys.name, True, thm, iso.bijective,
                             iso.multiplicative_residual, iso.star_residual,
                             ideal_transport_ok, thm_p, final_witness,
                             fpa_blocks, final_blocks, cp_q.algebra.dim)
    return report, gj_q, left


def _transported_points(w_of: np.ndarray, by_point: np.ndarray) -> np.ndarray:
    """phi(h v) = h (uv), phi the slot map w_of of _outer_action, for each row
    h (|X|, r, |U|) of C(X, U, I) and v: (|X|, |V| r, |W|) at h's point."""
    x_n, r, _ = by_point.shape
    out = np.zeros((x_n, len(w_of), r, w_of.size), dtype=complex)
    out[:, np.arange(len(w_of))[:, None], :, w_of] = by_point.transpose(2, 0, 1)
    return out.reshape(x_n, -1, w_of.size)


@dataclass(frozen=True)
class ToyDualReport:
    """Block-diagonal Morita witness between direct sums of fixed-point
    algebras and their reduced duals, one reduction per component."""

    reductions: tuple[ReductionReport, ...]
    witness: MoritaWitness
    fpa_dims: tuple[int, ...]
    final_dims: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.witness.ok and all(rep.ok for rep in self.reductions)

    @property
    def block_counts(self) -> tuple[int, int]:
        """Block counts of the two direct sums: sums of the summands' counts."""
        return (sum(rep.fpa_block_count for rep in self.reductions),
                sum(rep.final_block_count for rep in self.reductions))


def assemble_toy_dual(components, seed: int = 0, tol: float = 1e-8) -> ToyDualReport:
    """components: iterable of (system, wprime elements, r elements).

    Runs the semidirect reduction per component, then assembles its
    R-averaged quotient modules into one block-diagonal module witnessing
    (+) fpa_i ~ (+) C(X_i/W'_i) >| R_i.
    """
    check_tol(tol)
    zero = MatrixStarAlgebra(0, ())
    reports, module, a_sum, left_sum = [], FDHilbertModule(zero, ()), zero, np.zeros((0, 0))
    for sys, wprime, r in components:
        report, gj_q, left = _semidirect_reduction(sys, wprime, r, seed, tol)
        reports.append(report)
        a_sum, left_sum = direct_sum_left_action(a_sum, left_sum, report.theorem.fpa, left)
        module = direct_sum_module(module, gj_q)
    witness = verify_morita(a_sum, module, left_sum, tol, rng=np.random.default_rng(seed))
    return ToyDualReport(tuple(reports), witness,
                         tuple(r.theorem.fpa.dim for r in reports),
                         tuple(r.final_dim for r in reports))
