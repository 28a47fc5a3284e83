"""Scalar subgroups, the ideal C(X, W, I), and the Morita endgame.

For a system (X, W, H, I) the stabilizer elements whose cocycle unitary is a
scalar cut out subgroups W'_x; under a normalisation condition (the scalars
are 1) and a completeness condition (the cocycle representation of W_x
contains every irreducible trivial on W'_x), the fixed-point algebra
C(X, M_d)^W is Morita equivalent to the ideal

    C(X, W, I) = {f in C(X) >| W : f_{w'w}(x) = f_w(x) for all w' in W'_x},

with the equivalence implemented by the averaged function module.  The
semidirect reduction then rewrites the ideal as C(X, W', I) >| R for a
splitting W = W' >| R and lands on C(X/W') >| R — the finite shape of the
reduced dual.

The ideal test and the comparison of J with C run in the crossed product's
whitened coefficients, where rank cuts, norms and residuals are those of the
embedded matrices.  Those coefficients are also the coordinates of the
embedded crossed product's algebra, so C's algebra is its whitened rows
times that basis, and the Green-Julg module is rebased onto C by projecting
its inner coefficients onto those rows.  The embedded crossed product is
built only when both cocycle conditions hold, as the algebra of the
averaged module that a Morita witness needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import semidirect_decomposition
from .hilbmod import (
    EquivariantModule,
    FDHilbertModule,
    MoritaWitness,
    _checked_coefficients,
    averaged_inner_coefficients,
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
    nullspace_rows,
    orthonormal_rows,
    row_residuals,
    span_contains,
    spans_equal,
    unflatten,
)
from .matalg import MatrixStarAlgebra, block_decompose
from .reps import enumerate_irreps, multiplicity
from .spectrum import stabilizer_rep
from .systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    crossed_product,
    fixed_point_algebra,
    iterated_crossed_iso,
    quotient_algebra,
    restrict_system,
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
    1 (the normalised part, used for the ideal constraints).  The
    normalisation condition holds when the two agree everywhere.
    """

    system: EquivariantSystem
    stabilizers: tuple[tuple[int, ...], ...]
    scalar_elements: tuple[tuple[int, ...], ...]
    scalar_values: tuple[tuple[complex, ...], ...]
    wprime: tuple[tuple[int, ...], ...]
    normalisation_ok: bool
    completeness_ok: bool
    completeness_by_point: tuple[bool, ...]


def scalar_subgroups(sys: EquivariantSystem, tol: float = 1e-8) -> ScalarStructure:
    """Detect W'_x per point and evaluate normalisation and completeness.

    A cocycle unitary counts as scalar when its distance to (trace/d) id is
    below tolerance.  Verified invariants: each W'_x is a normal subgroup of
    the stabilizer W_x, and w W'_x w^-1 = W'_{wx}.
    """
    g = sys.group
    d = sys.fiber_dim
    eye = np.eye(d)
    stabs, scalars, values, wprime = [], [], [], []
    for x in range(sys.n_points):
        stab = [w for w in g.elements() if sys.action[w, x] == x]
        sc, vals, wp = [], [], []
        for w in stab:
            mat = sys.cocycle[w, x]
            lam = complex(np.trace(mat)) / d
            if np.linalg.norm(mat - lam * eye) < tol * max(1.0, abs(lam)) * d:
                sc.append(w)
                vals.append(lam)
                if abs(lam - 1.0) < tol:
                    wp.append(w)
        stabs.append(tuple(stab))
        scalars.append(tuple(sc))
        values.append(tuple(vals))
        wprime.append(tuple(wp))
    # Invariants.
    for x in range(sys.n_points):
        stab_sub = g.subgroup(list(stabs[x]))
        if not stab_sub.group.is_normal(
                [stab_sub.from_parent(w) for w in wprime[x]]):
            raise MoritaError(f"W'_x is not normal in the stabilizer at x={x}")
        for w in g.elements():
            wx = int(sys.action[w, x])
            conj = sorted(g.conjugate(w, u) for u in wprime[x])
            if conj != sorted(wprime[wx]):
                raise MoritaError(
                    f"w W'_x w^-1 != W'_(wx) at x={x}, w={w}")
    normalisation_ok = all(scalars[x] == wprime[x] for x in range(sys.n_points))
    # Completeness: every irrep of W_x trivial on W'_x occurs in w -> I_{w,x}.
    # Points with the same stabilizer share its irreps.
    by_point = []
    irreps_of: dict[tuple[int, ...], list] = {}
    for x in range(sys.n_points):
        sub, i_rep = stabilizer_rep(sys, x)
        if stabs[x] not in irreps_of:
            irreps_of[stabs[x]] = enumerate_irreps(sub.group)
        wp_local = [sub.from_parent(w) for w in wprime[x]]
        ok = True
        for rho in irreps_of[stabs[x]]:
            trivial_on_wp = all(
                np.linalg.norm(rho.matrices[u] - np.eye(rho.dim)) < 1e-8
                for u in wp_local)
            if trivial_on_wp and multiplicity(i_rep, rho) == 0:
                ok = False
        by_point.append(ok)
    return ScalarStructure(sys, tuple(stabs), tuple(scalars), tuple(values),
                           tuple(wprime), normalisation_ok, all(by_point),
                           tuple(by_point))


# -- the ideal C(X, W, I) ------------------------------------------------------


@dataclass(frozen=True)
class CIdeal:
    """C(X, W, I) inside C(X) >| W, in coefficients; embedded on demand.

    `metric_rows` spans the ideal in cp's whitened coordinates, where norms
    and inner products are those of the embedded matrices; they are also
    coordinates against cp.algebra's basis.  `algebra`, the embedded span
    with basis metric_rows @ cp.algebra's basis, is built on first access;
    an ideal of full dimension is the whole crossed product, and its
    algebra is cp.algebra.
    """

    system: EquivariantSystem
    cp: CrossedProduct
    coeff_rows: np.ndarray     # (dim, |W| * |X|), orthonormal
    metric_rows: np.ndarray    # (dim, |W| * |X|), orthonormal after whitening

    @property
    def dim(self) -> int:
        return self.coeff_rows.shape[0]

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        if self.dim == self.cp.metric.shape[0]:
            return self.cp.algebra
        amb = self.cp.algebra.ambient_dim
        rows = self.metric_rows @ self.cp.algebra.basis_rows()
        return MatrixStarAlgebra(amb, unflatten(rows, amb))


def c_ideal(sys: EquivariantSystem, scalar: ScalarStructure | None = None,
            cp: CrossedProduct | None = None,
            tol: float = DEFAULT_TOL) -> CIdeal:
    """Solve f_{w'w}(x) = f_w(x) for w' in W'_x inside the crossed product.

    The result is verified to be a two-sided *-closed ideal of C(X) >| W,
    in cp's whitened coefficients (CrossedProduct.is_ideal).
    """
    scalar = scalar or scalar_subgroups(sys, max(tol, 1e-8))
    cp = cp or crossed_product(scalar_translation_action(sys), tol)
    g = sys.group
    x_n = sys.n_points
    n_coeff = g.order * x_n
    constraints = []
    for x in range(x_n):
        for wp in scalar.wprime[x]:
            if wp == 0:
                continue
            for w in g.elements():
                row = np.zeros(n_coeff)
                row[int(g.mul[wp, w]) * x_n + x] += 1.0
                row[w * x_n + x] -= 1.0
                if row.any():
                    constraints.append(row)
    if constraints:
        rows = nullspace_rows(np.vstack(constraints), tol)
    else:
        rows = np.eye(n_coeff, dtype=complex)
    metric_rows = orthonormal_rows(cp.whiten(rows.reshape(-1, g.order, x_n)), tol)
    if not cp.is_ideal(metric_rows, max(tol, 1e-8)):
        raise MoritaError("C(X, W, I) is not an ideal of the crossed product")
    return CIdeal(sys, cp, rows, metric_rows)


# -- the Morita theorem --------------------------------------------------------


def rebase_module(e: FDHilbertModule, rows: np.ndarray) -> FDHilbertModule:
    """View a module over the subalgebra spanned by orthonormal rows of B's
    coordinates, which must contain all its inner products.

    Basis element s of the subalgebra is sum_k rows[s, k] b_k.  Each inner
    value is projected onto the rows; one that leaves them raises
    ModuleError.  Rows spanning all of B leave the module as it is.
    """
    b_alg = e.algebra
    if rows.shape[0] == b_alg.dim:
        return e
    n, m = b_alg.ambient_dim, e.carrier_dim
    sub = MatrixStarAlgebra(n, unflatten(rows @ b_alg.basis_rows(), n))
    action = (rows @ e.action.reshape(b_alg.dim, m * m)).reshape(-1, m, m)
    return FDHilbertModule(sub, action, _checked_coefficients(rows, e.inner),
                           name=e.name + "-rebased")


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
    fpa: MatrixStarAlgebra

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
    completeness fails the strictness of J in C is reported instead.
    `scalar`, when given, must be scalar_subgroups(sys, tol).

    J and C are compared in the crossed product's whitened coefficients,
    whose singular values, norms and residuals are those of the embedded
    matrices, so the rank and span rules are the embedded ones.  The inner
    values are averaged once: under both conditions the Green-Julg module
    is built first and J read off its inner values, and the witness rebases
    that module onto C's whitened rows; otherwise J comes from the averaged
    coefficients alone.  `module` is None when no witness is built.
    """
    scalar = scalar or scalar_subgroups(sys, tol)
    fpa = fixed_point_algebra(sys)
    eq = equivariant_function_module(sys)
    cp = crossed_product(eq.beta)
    cid = c_ideal(sys, scalar, cp)
    conditions = scalar.normalisation_ok and scalar.completeness_ok
    # A witness needs the averaged module, whose inner values span J.
    averaged = green_julg_module(eq, cp)[0] if conditions else None
    inner = averaged.inner if averaged is not None else \
        cp.whiten(averaged_inner_coefficients(eq))
    m = eq.base.carrier_dim
    j_rows = orthonormal_rows(inner.reshape(m * m, cp.metric.shape[0]))
    c_rows = cid.metric_rows
    j_in_c = float(row_residuals(c_rows, j_rows).max(initial=0.0))
    spans_match = spans_equal(j_rows, c_rows, tol)
    strict = (j_rows.shape[0] < cid.dim) and span_contains(c_rows, j_rows, tol)
    witness = None
    fpa_blocks = c_blocks = None
    module = None
    if averaged is not None and spans_match:
        module = rebase_module(averaged, c_rows)
        witness = verify_morita(fpa, module, fpa.basis, tol,
                                rng=np.random.default_rng(seed))
        fpa_blocks = len(block_decompose(fpa, seed=seed).blocks)
        c_blocks = len(block_decompose(module.algebra, seed=seed).blocks)
    return MoritaTheoremVerdict(scalar, conditions, j_rows.shape[0], cid.dim,
                                spans_match, strict, j_in_c, witness,
                                fpa_blocks, c_blocks, cid, module, fpa)


# -- semidirect reduction ------------------------------------------------------


def _check_splitting(sys: EquivariantSystem, scalar: ScalarStructure,
                     wprime) -> None:
    wp_set = set(int(e) for e in wprime)
    for x in range(sys.n_points):
        expected = sorted(set(scalar.stabilizers[x]) & wp_set)
        if sorted(scalar.wprime[x]) != expected:
            raise SplittingError(
                x, f"W'_x != W_x n W' at point index {x}: "
                   f"{sorted(scalar.wprime[x])} vs {expected}")


def quotient_equivariant_module(sys: EquivariantSystem, wprime, r,
                                tol: float = DEFAULT_TOL):
    """The W'-invariant vectors of C(X, C^d) as an R-equivariant module
    over C(X/W').

    Returns (equivariant module, invariant row basis).
    """
    g = sys.group
    sys_p, u_sub = restrict_system(sys, wprime)
    v_sub = g.subgroup(sorted(set(int(e) for e in r)))
    eqm = equivariant_function_module(sys)
    m = eqm.base.carrier_dim
    # gamma is a homomorphism, so invariance under generators of W' suffices.
    blocks = [eqm.gamma[u_sub.to_parent(u)] - np.eye(m)
              for u in u_sub.group.generators()]
    u_rows = nullspace_rows(np.vstack(blocks) if blocks else np.zeros((0, m)), tol)
    k = u_rows.shape[0]
    # The orbit-function algebra C(X/W').
    quot = quotient_algebra(EquivariantSystem(
        sys_p.group, sys_p.points, sys_p.action, 1,
        np.ones((sys_p.group.order, sys_p.n_points, 1, 1), dtype=complex),
        name=sys_p.name + "-pts"))
    q_alg = quot.algebra
    d = sys.fiber_dim
    x_n = sys.n_points
    # Pointwise multiplication by (normalized) orbit indicators.
    action = np.zeros((q_alg.dim, k, k), dtype=complex)
    for o, orb in enumerate(quot.orbits):
        diag = np.zeros(x_n * d)
        for x in orb:
            diag[x * d:(x + 1) * d] = 1.0 / np.sqrt(len(orb))
        action[o] = u_rows.conj() @ (diag[:, None] * u_rows.T)
    vecs = u_rows.reshape(k, x_n, d)
    # [p, q, x]: <u_p(x)|u_q(x)>.
    ips = (vecs.conj().transpose(1, 0, 2) @ vecs.transpose(1, 2, 0)).transpose(1, 2, 0)
    # The values are functions on X, diagonal like C(X/W')'s basis, whose
    # diagonals are the orbit indicators: they must be constant on orbits.
    inner = _checked_coefficients(quot.orbit_basis, ips)
    base = FDHilbertModule(q_alg, action, inner, name="quotient-invariant")
    # R acts by the restricted gamma; on C(X/W') it permutes orbits.
    v_n = v_sub.group.order
    gamma = np.zeros((v_n, k, k), dtype=complex)
    maps = np.zeros((v_n, q_alg.dim, q_alg.dim), dtype=complex)
    orbit_of = {}
    for o, orb in enumerate(quot.orbits):
        for x in orb:
            orbit_of[x] = o
    for v in range(v_n):
        vp = v_sub.to_parent(v)
        gamma[v] = u_rows.conj() @ eqm.gamma[vp] @ u_rows.T
        for o, orb in enumerate(quot.orbits):
            maps[v, orbit_of[int(sys.action[vp, orb[0]])], o] = 1.0
    eq_q = EquivariantModule(base, AlgebraAction(v_sub.group, q_alg, maps), gamma)
    return eq_q, u_rows


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

    # Link 2: transport C(X, W', I) = thm_p's ideal through
    # phi((a u) v) = a (uv) into C(X) >| R.
    action = thm.ideal.cp.action
    iso = iterated_crossed_iso(action, wprime, r, tol)
    v_sub = g.subgroup(sorted(set(int(e) for e in r)))
    x_n = sys.n_points
    u_n, v_n = u_sub.group.order, v_sub.group.order
    imgs = []
    for v in range(v_n):
        vp = v_sub.to_parent(v)
        for h in thm_p.ideal.coeff_rows:
            hm = h.reshape(u_n, x_n)
            out = np.zeros((g.order, x_n), dtype=complex)
            for u in range(u_n):
                out[g.mul[u_sub.to_parent(u), vp]] += hm[u]
            imgs.append(out.reshape(-1))
    img_rows = orthonormal_rows(np.stack(imgs), tol) if imgs else \
        np.zeros((0, g.order * x_n), dtype=complex)
    ideal_transport_ok = spans_equal(img_rows, thm.ideal.coeff_rows, tol)

    # Link 4: the direct equivalence fpa(sys) ~ C(X/W') >| R, where fpa acts
    # on the W'-invariant vectors by compression.
    eq_q, u_rows = quotient_equivariant_module(sys, wprime, r, tol)
    eq_q.validate(max(tol, 1e-8))
    gj_q, cp_q = green_julg_module(eq_q)
    fpa = thm.fpa
    left = u_rows.conj() @ fpa.basis @ u_rows.T
    final_witness = verify_morita(fpa, gj_q, left, tol,
                                  rng=np.random.default_rng(seed))
    fpa_blocks = thm.fpa_blocks
    if fpa_blocks is None:
        fpa_blocks = len(block_decompose(fpa, seed=seed).blocks)
    final_blocks = len(block_decompose(cp_q.algebra, seed=seed).blocks)
    report = ReductionReport(sys.name, True, thm, iso.bijective,
                             iso.multiplicative_residual, iso.star_residual,
                             ideal_transport_ok, thm_p, final_witness,
                             fpa_blocks, final_blocks, cp_q.algebra.dim)
    return report, gj_q, left


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


def assemble_toy_dual(components, seed: int = 0, tol: float = 1e-8) -> ToyDualReport:
    """components: iterable of (system, wprime elements, r elements).

    Runs the semidirect reduction per component, then assembles its
    R-averaged quotient modules into one block-diagonal module witnessing
    (+) fpa_i ~ (+) C(X_i/W'_i) >| R_i.
    """
    reports = []
    module = None
    a_sum = None
    left_sum = None
    for sys, wprime, r in components:
        report, gj_q, left = _semidirect_reduction(sys, wprime, r, seed, tol)
        reports.append(report)
        fpa = report.theorem.fpa
        if module is None:
            module, a_sum, left_sum = gj_q, fpa, left
        else:
            a_sum, left_sum = direct_sum_left_action(
                a_sum, left_sum, fpa, left, module.carrier_dim, gj_q.carrier_dim)
            module = direct_sum_module(module, gj_q)
    if module is None:
        zero = MatrixStarAlgebra(0, np.zeros((0, 0, 0), dtype=complex))
        module = FDHilbertModule(zero, np.zeros((0, 0, 0), dtype=complex),
                                 np.zeros((0, 0, 0), dtype=complex))
        a_sum = zero
        left_sum = np.zeros((0, 0, 0), dtype=complex)
    witness = verify_morita(a_sum, module, left_sum, tol, check_blocks=True,
                            rng=np.random.default_rng(seed))
    return ToyDualReport(tuple(reports), witness,
                         tuple(r.theorem.fpa.dim for r in reports),
                         tuple(r.final_dim for r in reports))
