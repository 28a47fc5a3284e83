"""The structured solvers against the dense constructions they replace.

Each algebra is a sum of blocks whose tables match, assembled
(oracles.table_of), the dense pass over its basis matrices (oracles.Dense)
and the per-pair loops, and no algebra of the Morita theorem holds a whole
table or a dense basis; `center` and `block_decompose` solve block by block
in the algebra's coordinates (A intersect A' solved inside A's span and the
N x N central split are their oracles), `intertwiner_space` stacks only the
group's generators, `compact_operators` and `green_julg_module` build
their components in a few contractions, the Green-Julg check finds both of
its spans in coefficient space, every module is held by the carrier components its builder states, which are the
components oracles.carrier_components finds in its dense tensors, with its
inner values as coefficients in B's basis (checked against the dense values
its builder used to form), `is_ideal` tests rows grouped by point one
block at a time, as the per-element loop over dense rows decides, and C
held by its points reads back as its whole rows bit for bit, and
`is_irreducible` reads the character norm.  A
CrossedProduct's coefficients are orthonormal coordinates of its algebra,
one block per W-orbit of B's blocks: its product table, star table, traces,
unit and norms
equal those read off the regular embedding of tests/oracles.py, which
keeps the covariant-pair relations, on every bundled system, z2-line 1-5
and z2xz2-line 1-3 with and without W'.  An action is a permutation,
validated and crossed by index with the messages, the W-orbits and, bit
for bit, the crossed tables of the dense oracle (oracles.DenseAction), on
hypothesis-drawn translations too; non-permutation tables are refused when
built, and validate's bounds follow the caller's tolerance and are pinned
by planted defects.  `span_contains` tests stacks a
slab at a time.
The compacts are cut one carrier component at a time, a module of one
component as one block, with the dense SVD of the whole stack of rank-one
maps as their oracle; size spies find no m^4 array in the Morita theorem,
and no array of dim B m^2 entries in its modules, their compacts or the
witness's left action, which live at the modules' carrier pairs.
Crossed products multiply, take adjoints and test ideals in coefficients,
and the Morita theorem compares J with C there; the embedded matrices are
their oracle.  The fixed-point algebra's tables come from the products of
each orbit's functions and the crossed product's from B's blocks in each
orbit's coordinates, with the dense pass as their oracle; mutants of the embedding and of its
1 / sqrt|W| fail the oracle's relation and orthonormality checks.  The
direct sums' tables are the dense block sum's, and a Block keeps its
projection's coordinates.  Module axioms are checked on all samples at once,
against the per-sample loop.  The Morita theorem cuts J and C point by
point, with the whole-ambient SVD of J and the kernel of C's constraints
as oracles, and
`scalar_subgroups` is checked against its loop over points, elements and
stabilizer irreps, on planted cocycles too, down to the first failure its
invariant checks name.  A proper C's algebra
and the orbit algebra C(X/W') take tables that match the dense pass, and
C(X/W')'s functions are the orbit indicators bit for bit.  EquivariantSystem.orbits
matches a point-by-point oracle, also after a random relabelling of X,
which moves no dimension, block count, gap or verdict; J's point blocks,
read off the averaged module's components, have the Gram matrices of the
dense cut.  gamma is carried component to component: applied to vectors
it is the dense gamma, on planted cocycles, the ladders and the quotient
modules, a gamma that mixes two components is rejected when built, and
no equivariant module holds a (|W|, m, m) gamma.  The
dense paths and per-pair loops survive here as oracles, and spies check
that a run classifies the spectrum, builds each fixed-point algebra once
and averages the inner products once, and that neither the structured
algebras nor the reduction chain runs the dense pass of a span of
matrices; stabilizers with one multiplication table share one irrep
enumeration.  The crossed-product
isomorphisms and the reduction's links are index maps and batched products,
with their per-slot loops as oracles; a spy counts the crossed products,
decompositions and restricted systems one reduction builds, and the
batched `EquivariantModule.validate` names the first failure its sample
loop names, on mutants too.  The Morita witness draws its eight samples at
once, as its loop drew them, and flags mutant left actions as the loop does;
the unit, the projection of 1, is the least-squares unit of the table;
alpha_w's one scatter is the per-point Kronecker loop exactly; a wide
cut reduced by QR keeps the rank and span of the direct SVD; and
`block_cut`, given the diagonal blocks of a block-diagonal matrix, keeps
the rank, row span and kernel that the dense cut keeps on the whole.
"""
import copy
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import oracles
from oracles import (
    Dense,
    DenseAction,
    algebra_from_span,
    averaged_tensors,
    carried,
    carrier_components,
    components_of,
    crossed_basis,
    dense_gamma,
    dense_crossed_product,
    dense_gram,
    dense_maps,
    dense_module,
    dense_of,
    dense_rows,
    embedded,
    embedded_algebra,
    fpa_basis,
    fullness_ideal,
    function_algebra_action,
    gram_sqrt,
    is_ideal,
    operator_norm,
    pair_rows,
    rank_one,
    scalar_basis,
    span_intersection,
    star_of,
    table_of,
    tensors,
)
from test_hilbmod import compacts_algebra
from test_reps import assert_table_is_the_irreps

from equivaria import cli, groups, hilbmod, linalg, matalg, morita, reps, spectrum, systems
from equivaria.datasets import bundled
from equivaria.groups import BUILTIN_GROUPS, builtin_group, cyclic, dihedral, symmetric
from equivaria.hilbmod import (
    ModuleError,
    compact_operators,
    direct_sum_module,
    equivariant_function_module,
    free_module,
    function_module,
    green_julg_module,
    invariant_compacts_rows,
    is_full,
    standard_module,
    trivial_equivariant_module,
)
from equivaria.linalg import (
    block_cut,
    flatten,
    intertwiner_rows,
    nullspace_rows,
    orthonormal_rows,
    row_residuals,
    span_contains,
    spans_equal,
    unflatten,
)
from equivaria.matalg import (
    AlgebraError,
    MatrixSpan,
    MatrixStarAlgebra,
    center,
    generate,
)
from equivaria.morita import (
    c_ideal,
    quotient_equivariant_module,
    rebase_module,
    scalar_translation_action,
    verify_morita_theorem,
)
from equivaria.reps import (
    RepError,
    UnitaryRep,
    character_table,
    commutant_dimension,
    enumerate_irreps,
    intertwiner_space,
    is_irreducible,
    multiplicity,
    regular_rep,
)
from equivaria.systems import (
    AlgebraAction,
    EquivariantSystem,
    anticomplete_point_system,
    crossed_product,
    fixed_point_algebra,
    one_point_system,
    z2_line_system,
    z2xz2_line_system,
)


def center_oracle(basis, tol=1e-9) -> np.ndarray:
    """A intersect A' inside A's span, from its orthonormal basis matrices
    B_j alone: the kernel of c -> (sum_j c_j [B_j, B_i])_i, k unknowns,
    embedded as orthonormal rows."""
    comm = basis[:, None] @ basis[None] - basis[None] @ basis[:, None]       # [j, i]
    coeffs = linalg.nullspace_rows(comm.transpose(1, 2, 3, 0).reshape(-1, len(basis)), tol)
    return flatten(np.tensordot(coeffs, basis, axes=1))


def center_dim_checked(alg, dense) -> int:
    """dim center(A), for A with the basis matrices of `dense`, after
    checking that its rows embed to a span of A intersect A' and that
    center(A) has the tables of that span."""
    rows = matalg._center_rows(alg, 1e-9)
    embedded = dense.element(rows)
    oracle = center_oracle(dense.basis)
    assert spans_equal(flatten(embedded), oracle, 1e-8)
    assert_same_tables(center(alg), Dense(embedded))
    return rows.shape[0]


@pytest.mark.parametrize("name", ["z2-line", "dihedral-plane"])
def test_center_matches_oracle_on_fixed_point_algebras(name):
    fpa = fixed_point_algebra(bundled(name))
    assert center_dim_checked(fpa, Dense(fpa_basis(fpa))) > 0


def test_center_matches_oracle_on_crossed_product():
    cp = dense_crossed_product(function_algebra_action(z2_line_system(1)))
    assert center_dim_checked(cp.algebra, embedded_algebra(cp)) > 0


BLOCK_SHAPES = [(1, 2), (2, 1), (2, 2)]


def conjugated_block_sum():
    """A = U (M_1 (x) 1_2 + M_2 (x) 1_1 + M_2 (x) 1_2) U* for a random unitary U."""
    n = sum(a * b for a, b in BLOCK_SHAPES)
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mats = []
    offset = 0
    for size, mult in BLOCK_SHAPES:
        for i in range(size):
            for j in range(size):
                m = np.zeros((n, n), dtype=complex)
                unit = np.zeros((size, size))
                unit[i, j] = 1.0
                m[offset:offset + size * mult, offset:offset + size * mult] = \
                    np.kron(unit, np.eye(mult))
                mats.append(u @ m @ u.conj().T)
        offset += size * mult
    return algebra_from_span(np.stack(mats))


def test_center_of_conjugated_block_sum_counts_summands():
    span = conjugated_block_sum()
    assert span.dim == sum(a * a for a, _ in BLOCK_SHAPES)
    assert center_dim_checked(span.algebra, Dense(span.mats)) == len(BLOCK_SHAPES)


def test_generators_generate_and_are_cached():
    for name in BUILTIN_GROUPS:
        g = builtin_group(name)
        gens = g.generators()
        assert g.generated_subgroup(gens) == list(g.elements())
        assert g.generators() is gens


@pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
def test_generator_intertwiners_match_all_elements(name):
    g = builtin_group(name)
    reps = enumerate_irreps(g) + [regular_rep(g)]
    pairs = [(rho, sig) for rho in reps[:-1] for sig in reps[:-1]] + [(reps[-1], reps[-1])]
    for rho, sig in pairs:
        every = intertwiner_rows(sig.matrices, rho.matrices)
        assert spans_equal(intertwiner_space(rho, sig), every, 1e-8)


def test_compacts_match_stacked_rank_one_maps():
    e = function_module(bundled("z2-line"))
    m = e.carrier_dim
    eye = np.eye(m)
    raws = np.stack([rank_one(e, eye[i], eye[j]) for i in range(m) for j in range(m)])
    compacts = compact_operators(e)
    assert spans_equal(dense_rows(e, compacts.raw_rows), orthonormal_rows(flatten(raws)), 1e-8)
    rng = np.random.default_rng(2)
    eta, xi = e.random_vector(rng), e.random_vector(rng)
    cols = np.stack([e.act(eta, e.inner_product(xi, eye[l])) for l in range(m)], axis=1)
    assert np.abs(rank_one(e, eta, xi) - cols).max() < 1e-12
    s, s_inv = gram_sqrt(e)
    dressed = orthonormal_rows(flatten(s @ raws @ s_inv))
    assert spans_equal(flatten(compacts_algebra(compacts).mats), dressed, 1e-8)


def test_unit_is_computed_once():
    alg = fixed_point_algebra(bundled("z2-line"))
    assert alg.unit() is alg.unit()
    assert alg.traces is alg.traces
    e = function_module(bundled("z2-line"))
    assert e.gram is e.gram


# -- the product pass against the dense closure check and per-pair loops ------


def product_tables_loop(alg):
    """<b_l, b_i b_j> and <b_l, b_j b_i>, one pair at a time, indexed [j, l, i]."""
    k = alg.dim
    left = np.zeros((k, k, k), dtype=complex)
    right = np.zeros((k, k, k), dtype=complex)
    for j in range(k):
        for i in range(k):
            left[j, :, i] = alg.coefficients(alg.basis[i] @ alg.basis[j])
            right[j, :, i] = alg.coefficients(alg.basis[j] @ alg.basis[i])
    return left, right


def product_pass_algebra(label):
    """(algebra, Dense of its basis matrices)."""
    if label in ("z2-line", "dihedral-plane"):
        fpa = fixed_point_algebra(bundled(label))
        return fpa, Dense(fpa_basis(fpa))
    if label == "crossed-product":
        cp = dense_crossed_product(function_algebra_action(z2_line_system(1)))
        return cp.algebra, embedded_algebra(cp)
    span = conjugated_block_sum()
    return span.algebra, Dense(span.mats)


PRODUCT_PASS = ["z2-line", "dihedral-plane", "crossed-product", "block-sum"]


@pytest.mark.parametrize("label", PRODUCT_PASS)
def test_product_pass_matches_dense_closure_and_pair_loop(label):
    alg, dense = product_pass_algebra(label)
    left, right = product_tables_loop(dense)
    table = table_of(alg)
    assert close(table, left)
    assert close(table.transpose(2, 1, 0), right)
    assert abs(alg.closure_residual() - dense.closure_residual()) < 1e-12
    assert alg.closure_residual() < 1e-9


def standard_module_loops(b_alg):
    """(action, inner) of B over itself, one pair at a time."""
    k, n = b_alg.dim, b_alg.ambient_dim
    action = np.zeros((k, k, k), dtype=complex)
    inner = np.zeros((k, k, n, n), dtype=complex)
    for i in range(k):
        for j in range(k):
            action[j, :, i] = b_alg.coefficients(b_alg.basis[i] @ b_alg.basis[j])
            inner[i, j] = b_alg.basis[i].conj().T @ b_alg.basis[j]
    return action, inner


@pytest.mark.parametrize("label", ["z2-line", "block-sum"])
def test_standard_module_matches_pair_loops(label):
    alg, dense = product_pass_algebra(label)
    e = standard_module(alg)
    action, inner = standard_module_loops(dense)
    assert close(tensors(e)[0], action) and close(dense_inner(e, dense), inner)


def test_closure_check_catches_a_bad_product_or_adjoint():
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    # span{(E12 + E21)/sqrt 2} is *-closed, but its square is (E11 + E22)/2;
    # span{E12} holds E12 E12 = 0, but not the adjoint E21.
    for basis in ((e12 + e12.T) / np.sqrt(2), e12):
        with pytest.raises(AlgebraError, match="span is not closed"):
            MatrixSpan(basis[None]).algebra.validate()
        with pytest.raises(AlgebraError, match="span is not closed"):
            algebra_from_span(basis)


def test_product_pass_checks_every_slab(monkeypatch):
    """One right factor per slab; the only bad product, Y Y for the
    Hermitian Y spanning the second summand, is in the last slab."""
    monkeypatch.setattr(matalg, "_PRODUCT_SLAB", 1)
    units = np.eye(4).reshape(4, 2, 2)
    y = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    basis = np.zeros((5, 4, 4), dtype=complex)
    basis[:4, :2, :2] = units
    basis[4, 2:, 2:] = y
    with pytest.raises(AlgebraError, match="span is not closed"):
        MatrixSpan(basis).algebra.validate()
    assert Dense(basis).closure_residual() > 0.5
    closed = MatrixSpan(basis[:4])
    closed.algebra.validate()
    assert close(table_of(closed.algebra), product_tables_loop(Dense(closed.mats))[0])


FIBERWISE = [f"z2-line-{n}" for n in range(1, 9)] + [
    "dihedral-plane", "anticomplete-point", "z2xz2-line-2"]


def fiberwise_system(label):
    if label in ("dihedral-plane", "anticomplete-point"):
        return bundled(label)
    if label.startswith("z2xz2"):
        return z2xz2_line_system(int(label[-1]))
    return z2_line_system(int(label.split("-")[-1]))


@pytest.mark.parametrize("label", FIBERWISE)
def test_fiberwise_table_matches_the_dense_pass(label):
    fpa = fixed_point_algebra(fiberwise_system(label))
    dense = Dense(fpa_basis(fpa))
    table = table_of(fpa)
    assert close(table, dense.structure) and close(table, product_tables_loop(dense)[0])
    assert close(star_of(fpa), dense.star) and close(fpa.traces, dense.traces)
    # The same basis as a span of matrices runs the dense pass.
    assert abs(fpa.closure_residual() - MatrixSpan(dense.basis).algebra.closure_residual()) < 1e-12
    assert abs(fpa.closure_residual() - dense.closure_residual()) < 1e-12


def held_arrays(obj):
    """Every array an algebra holds: its fields and cached values, through
    tuples and the Blocks they hold."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from held_arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from held_arrays(value)


def test_no_algebra_holds_a_whole_table_or_a_dense_basis(monkeypatch):
    """On z2-line n = 8 (k = N = 34), no array held by the fixed-point
    algebra, by cp.algebra or by C's algebra, with their units built, has
    k^3 or k N^2 entries: each keeps its blocks' tables.  No array held by
    the theorem's crossed product B >| W, B = C(X), or by the
    (C(X) >| W') >| R that a reduction of z2xz2-line 8 builds, B = C(X) >| W',
    with their algebras and units built, has dim B^3 entries, let alone the
    |W| dim B^3 of a structure tensor."""
    verdict = verify_morita_theorem(z2_line_system(8))
    algebras = [verdict.fpa, verdict.ideal.cp.algebra, verdict.ideal.algebra]
    for alg in algebras:
        alg.unit()
        sizes = [a.size for a in held_arrays(alg)]
        assert sizes and len(alg.blocks) > 1
        assert max(sizes) < min(alg.dim ** 3, alg.dim * alg.ambient_dim ** 2), sizes

    def check(cp):
        cp.algebra.unit()
        sizes = [a.size for a in held_arrays(cp)]
        assert sizes and len(cp.algebra.blocks) > 1
        assert max(sizes) < cp.action.algebra.dim ** 3, sizes

    check(verdict.ideal.cp)
    built = []

    def spy(action, tol=1e-8):
        built.append(crossed_product(action, tol))
        return built[-1]

    monkeypatch.setattr(morita, "crossed_product", spy)
    assert morita.semidirect_reduction(z2xz2_line_system(8), [0, 2], [0, 1]).ok
    # The theorems' C(X) >| W and C(X) >| W', then the outer product on the latter.
    outer = built[2]
    assert outer.action.algebra is built[1].algebra and outer.dim == built[0].dim == 68
    check(outer)
    assert verdict.fpa.dim == 34 and verdict.fpa.ambient_dim == 34


def test_no_module_holds_an_array_of_dim_b_m2_entries(monkeypatch):
    """On z2-line n = 8 (dim B = |X| = 17, m = 34), no array held by the
    function module, the averaged module, the rebased witness module, their
    compacts, or the left action the witness receives has dim B m^2 =
    19652 entries: each module holds its carrier components, and the
    compacts and the left action live at its carrier pairs."""
    sys = z2_line_system(8)
    verdicts = []
    calls = witness_calls(monkeypatch, lambda: verdicts.append(verify_morita_theorem(sys)))
    (verdict,), ((_, witness_module, left, _, _),) = verdicts, calls
    eq = equivariant_function_module(sys)
    averaged = green_julg_module(eq, verdict.ideal.cp)[0]
    assert witness_module is verdict.module and verdict.witness.ok
    modules = [eq.base, averaged, verdict.module]
    for e in modules:
        e.gram
    held = modules + [compact_operators(e) for e in modules] + [left]
    sizes = [a.size for obj in held for a in held_arrays(obj)]
    assert max(sizes) < sys.n_points * (sys.n_points * sys.fiber_dim) ** 2, max(sizes)


def test_fiberwise_pass_rejects_functions_that_do_not_close(monkeypatch):
    """Orthonormal least-point values on z2-line-1 that span no algebra:
    Y Y, for the Hermitian Y at point 1, leaves the span, and sits in the
    last slab."""
    monkeypatch.setattr(matalg, "_PRODUCT_SLAB", 1)
    values = np.zeros((3, 2, 2), dtype=complex)
    values[0, 0, 0] = values[1, 1, 1] = 1.0
    values[2] = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    least = np.array([0, 0, 1])
    monkeypatch.setattr(systems, "_least_point_kernels",
                        lambda *args: (values.reshape(len(values), -1), least))
    with pytest.raises(AlgebraError, match="span is not closed"):
        fixed_point_algebra(z2_line_system(1))
    values, least = values[:2], least[:2]
    assert fixed_point_algebra(z2_line_system(1)).dim == 2


def planted_overlap(monkeypatch, size):
    """Patch z2-line n = 2's least-point values: `size` of the origin's
    first value added to its second, which stays of unit norm."""
    solve = systems._least_point_kernels

    def overlapped(*args):
        vecs, least = solve(*args)
        first, second = np.flatnonzero(least == 2)
        vecs = vecs.copy()
        vecs[second] = vecs[second] + size * vecs[first]
        vecs[second] /= np.linalg.norm(vecs[second])
        return vecs, least

    monkeypatch.setattr(systems, "_least_point_kernels", overlapped)


def test_orthonormality_check_honours_its_tolerance(monkeypatch):
    """The Gram check is |G - 1| <= 10 tol at every tol: before, a relative
    tolerance of 1e-5 and a floor of 1e-8 accepted a 5e-8 overlap of the
    two origin values of z2-line n = 2 at tol 1e-9 and 1e-12."""
    sys = z2_line_system(2)
    planted_overlap(monkeypatch, 5e-8)
    with pytest.raises(AlgebraError, match="not orthonormal"):
        fixed_point_algebra(sys, 1e-9)
    monkeypatch.undo()
    planted_overlap(monkeypatch, 5e-9)
    assert fixed_point_algebra(sys, 1e-9).dim == 10
    with pytest.raises(AlgebraError, match="not orthonormal"):
        fixed_point_algebra(sys, 1e-12)


def test_closure_check_honours_its_tolerance(monkeypatch):
    """validate runs at tol itself: orthonormal values at z2-line n = 1's
    origin, E_11 and cos t E_22 + sin t E_12 for t = 1e-10, leave their
    span by about 1e-10, so they pass at tol 1e-9 and fail at 1e-12, where
    validate(max(tol, 1e-8)) passed them."""
    t = 1e-10
    values = np.zeros((3, 2, 2), dtype=complex)
    values[0] = np.eye(2) / np.sqrt(2)             # on the orbit {-1, 1}
    values[1, 0, 0] = 1.0
    values[2, 1, 1], values[2, 0, 1] = np.cos(t), np.sin(t)
    least = np.array([0, 1, 1])
    monkeypatch.setattr(systems, "_least_point_kernels",
                        lambda *args: (values.reshape(len(values), -1), least))
    assert 1e-11 < fixed_point_algebra(z2_line_system(1), 1e-9).closure_residual() < 1e-9
    with pytest.raises(AlgebraError, match="span is not closed"):
        fixed_point_algebra(z2_line_system(1), 1e-12)


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-13, 1e-14])
@pytest.mark.parametrize("label", ["z2-line-4", "dihedral-plane", "anticomplete-point",
                                   "z2-line-12", "z2xz2-line-3"])
def test_wedderburn_crosscheck_holds_at_fine_tolerances(label, tol):
    """validate runs at tol itself, no longer at max(tol, 1e-8): the three
    bundled systems (z2-line is n = 4) and two more hold at every tol."""
    assert spectrum.wedderburn_crosscheck(fiberwise_system(label), tol=tol).ok


def invariant_functions_dense(sys, tol=1e-9):
    """The whole-ambient oracle of invariant_functions: the kernel of
    alpha_g - 1 stacked over W's generators, on all of C(X, M_d)."""
    size = sys.n_points * sys.fiber_dim ** 2
    stacked = [oracles.alpha_matrix(sys, w) - np.eye(size) for w in sys.group.generators()]
    return linalg.nullspace_rows(np.vstack(stacked) if stacked else np.zeros((0, size)), tol)


def orbits_brute_force(sys):
    """EquivariantSystem.orbits' fields, point by point and element by
    element, with by_stabilizer as lists."""
    g, x_n = sys.group, sys.n_points
    orbit = [sorted({int(sys.action[w, x]) for w in g.elements()}) for x in range(x_n)]
    least = [o[0] for o in orbit]
    stabs = [tuple(w for w in g.elements() if sys.action[w, x] == x) for x in range(x_n)]
    groups = {}
    for x in range(x_n):
        groups.setdefault(stabs[x], []).append(x)
    return {"least": least,
            "mover": [next(w for w in g.elements() if sys.action[w, least[y]] == y)
                      for y in range(x_n)],
            "representatives": tuple(sorted(set(least))),
            "members": tuple(tuple(orbit[x]) for x in sorted(set(least))),
            "fixes": [[w in stabs[x] for x in range(x_n)] for w in g.elements()],
            "stabilizers": tuple(stabs),
            "by_stabilizer": list(groups.items())}


def assert_orbits_match_the_brute_force(sys):
    orbits, oracle = sys.orbits, orbits_brute_force(sys)
    assert orbits.least.tolist() == oracle["least"]
    assert orbits.mover.tolist() == oracle["mover"]
    assert orbits.representatives == oracle["representatives"]
    assert orbits.members == oracle["members"]
    assert orbits.fixes.tolist() == oracle["fixes"]
    assert orbits.stabilizers == oracle["stabilizers"]
    assert [(stab, xs.tolist()) for stab, xs in orbits.by_stabilizer] == oracle["by_stabilizer"]


def orbit_of_each(sys, funcs):
    """The least point of the one orbit each function lives on; fails
    unless a function is nonzero exactly on the points of one orbit."""
    least = sys.action.min(axis=0)
    support = np.abs(funcs).max(axis=(2, 3), initial=0.0) > 0           # [k, y]
    orbit = least[support.argmax(axis=1)]
    assert np.array_equal(support, orbit[:, None] == least)
    return orbit


def assert_orbit_blocked(sys, fpa, funcs):
    """fpa has one block per orbit, holding that orbit's functions, so its
    whole table [j, l, i] = <b_l, b_i b_j> is zero unless the three
    functions share an orbit."""
    orbit = orbit_of_each(sys, funcs)
    blocks = [orbit[index] for st in fpa.blocks for index in st.index]
    assert all(len(set(b.tolist())) == 1 for b in blocks)
    assert sorted(b[0] for b in blocks) == list(sys.orbits.representatives)
    same = orbit[:, None] == orbit
    assert not table_of(fpa)[~(same[:, :, None] & same[None])].any()


@pytest.mark.parametrize("label", FIBERWISE)
def test_invariant_functions_match_the_whole_ambient_kernel(label):
    sys = fiberwise_system(label)
    funcs = fixed_point_algebra(sys).functions
    rows = funcs.reshape(len(funcs), -1)
    assert close(rows @ rows.conj().T, np.eye(len(rows)))
    assert spans_equal(rows, invariant_functions_dense(sys), 1e-10)
    assert_orbit_blocked(sys, fixed_point_algebra(sys), funcs)


def test_irreducible_by_character_norm_matches_commutant():
    groups = [builtin_group(name) for name in sorted(BUILTIN_GROUPS)]
    for g in groups + [dihedral(12), symmetric(4)]:
        irreps = enumerate_irreps(g)
        reps = irreps + [regular_rep(g), irreps[0].direct_sum(irreps[-1])]
        for r in reps:
            assert is_irreducible(r) == (commutant_dimension(r) == 1)
        assert all(is_irreducible(r) for r in irreps)
        assert not is_irreducible(reps[-1])


# -- the Morita pipeline against its per-pair loops ---------------------------


def dense_inner(e, dense):
    """A module's inner values as matrices: coefficients times the basis of
    `dense`, the basis matrices of B's coordinates."""
    return np.tensordot(tensors(e)[1], dense.basis, axes=1)


def quotient_module(sys, wprime, r):
    """quotient_equivariant_module for the splitting W = W' >| R."""
    sys_p, u_sub = systems.restrict_system(sys, wprime)
    return quotient_equivariant_module(sys, sys_p, np.array(u_sub.embedding),
                                       sys.group.subgroup(r))


def function_module_dense(sys):
    """<e_p|e_p> = E_xx for the point x of e_p, as the builder once wrote it."""
    x_n, d = sys.n_points, sys.fiber_dim
    inner = np.zeros((x_n * d, x_n * d, x_n, x_n), dtype=complex)
    for x in range(x_n):
        for i in range(d):
            inner[x * d + i, x * d + i, x, x] = 1.0
    return inner


def dense_inner_case(kind):
    """(module, its inner values as matrices from the dense construction,
    Dense of its algebra's basis matrices)."""
    if kind == "standard":
        span = conjugated_block_sum()
        dense = Dense(span.mats)
        return standard_module(span.algebra), standard_module_loops(dense)[1], dense
    if kind == "function":
        sys = z2_line_system(2)
        return function_module(sys), function_module_dense(sys), Dense(scalar_basis(sys.n_points))
    if kind == "free":
        return free_module(3), np.eye(3, dtype=complex)[:, :, None, None], Dense(np.ones((1, 1, 1)))
    if kind == "direct-sum":
        sys, span = z2_line_system(1), conjugated_block_sum()
        e1, e2 = function_module(sys), standard_module(span.algebra)
        d1, d2 = Dense(scalar_basis(sys.n_points)), Dense(span.mats)
        v1, v2 = function_module_dense(sys), standard_module_loops(d2)[1]
        (m1, n1), (m2, n2) = v1.shape[1:3], v2.shape[1:3]
        inner = np.zeros((m1 + m2, m1 + m2, n1 + n2, n1 + n2), dtype=complex)
        inner[:m1, :m1, :n1, :n1] = v1
        inner[m1:, m1:, n1:, n1:] = v2
        return direct_sum_module(e1, e2), inner, block_sum_dense(d1, d2)
    # The W'-invariant vectors u_p of the function module: the values
    # <u_p|u_q> are functions on X, diagonal in C(X/W')'s ambient.
    sys, wprime, r = bundled("two-component")[1]
    eq, u_rows = quotient_module(sys, wprime, r)
    k, x_n = u_rows.shape[0], sys.n_points
    vecs = u_rows.reshape(k, x_n, sys.fiber_dim)
    ips = np.einsum("pxa,qxa->pqx", vecs.conj(), vecs)
    inner = np.zeros((k, k, x_n, x_n), dtype=complex)
    for x in range(x_n):
        inner[:, :, x, x] = ips[:, :, x]
    indicators = quotient_indicators(systems.restrict_system(sys, wprime)[0])[2]
    return eq.base, inner, Dense(embedded(indicators[:, :, None, None]))


def block_sum_dense(b1, b2):
    """B1 (+) B2 with its block-diagonal basis, the oracle of the direct
    sums' coordinate tables."""
    n1, n = b1.ambient_dim, b1.ambient_dim + b2.ambient_dim
    basis = np.zeros((b1.dim + b2.dim, n, n), dtype=complex)
    basis[:b1.dim, :n1, :n1] = b1.basis
    basis[b1.dim:, n1:, n1:] = b2.basis
    return Dense(basis)


@pytest.mark.parametrize("kind", ["standard", "function", "free", "direct-sum", "quotient"])
def test_inner_coefficients_match_the_dense_values(kind):
    e, inner, dense = dense_inner_case(kind)
    assert e.carrier_dim > 0 and close(dense_inner(e, dense), inner)
    # The module's algebra has the tables of its basis; the direct sum's are
    # the dense block sum's.
    assert_same_tables(e.algebra, dense)


def axiom_residuals_loop(e, b_alg, rng, n_samples=20):
    """The module axioms' residuals, one sample at a time, on the matrices
    of b_alg, an algebra with B's coordinates and a basis."""
    res = {k: 0.0 for k in ("bimodule", "compatibility", "symmetry", "positivity",
                            "definiteness")}

    def inner_product(x, y):
        return b_alg.element(e.inner_product(x, y))

    for _ in range(n_samples):
        xi, eta = e.random_vector(rng), e.random_vector(rng)
        c1, c2 = ((rng.standard_normal(b_alg.dim) + 1j * rng.standard_normal(b_alg.dim))
                  for _ in range(2))
        b1, b2 = b_alg.element(c1), b_alg.element(c2)
        scale = max(1.0, np.linalg.norm(xi) * np.linalg.norm(eta),
                    operator_norm(b1) * operator_norm(b2))
        lhs, rhs = e.act(e.act(xi, c1), c2), e.act(xi, b_alg.coefficients(b1 @ b2))
        res["bimodule"] = max(res["bimodule"], np.linalg.norm(lhs - rhs) / scale)
        lhs = inner_product(e.act(xi, c1), e.act(eta, c2))
        rhs = b1.conj().T @ inner_product(xi, eta) @ b2
        res["compatibility"] = max(res["compatibility"], np.linalg.norm(lhs - rhs) / scale)
        diff = inner_product(eta, xi) - inner_product(xi, eta).conj().T
        res["symmetry"] = max(res["symmetry"], np.linalg.norm(diff) / scale)
        q = inner_product(xi, xi)
        herm = np.linalg.norm(q - q.conj().T)
        neg = max(0.0, -np.linalg.eigvalsh((q + q.conj().T) / 2.0).min())
        res["positivity"] = max(res["positivity"], (herm + neg) / scale)
    if e.carrier_dim:
        evals = np.linalg.eigvalsh(dense_gram(e))
        res["definiteness"] = max(0.0, -float(evals.min())) + \
            (1.0 if evals.min() < 1e-10 * max(evals.max(), 1.0) else 0.0)
    return res


def axiom_case(label):
    """(module, its algebra with a basis): the function module of z2-line,
    its averaged module over the crossed product, whose matrices are the
    embedded ones, or the function module with its tensors perturbed, which
    breaks every axiom by a residual of order one."""
    e = function_module(bundled("z2-line"))
    if label == "averaged":
        averaged, cp = green_julg_module(equivariant_function_module(bundled("z2-line")))
        return averaged, embedded_algebra(cp)
    if label == "perturbed":
        rng = np.random.default_rng(12)
        action, inner = tensors(e)
        e = dense_module(e.algebra, action + 0.3 * rng.standard_normal(action.shape),
                         inner + 0.3j * rng.standard_normal(inner.shape))
    return e, Dense(scalar_basis(e.algebra.dim))


@pytest.mark.parametrize("label", ["function", "averaged", "perturbed"])
def test_axiom_residuals_match_the_sample_loop(label):
    e, dense = axiom_case(label)
    batched = e.axiom_residuals(np.random.default_rng(3))
    loop = axiom_residuals_loop(e, dense, np.random.default_rng(3))
    assert batched.keys() == loop.keys()
    assert all(abs(batched[k] - loop[k]) < 1e-12 for k in loop)
    if label == "perturbed":
        assert min(batched.values()) > 1e-3


def crossed_embed(action, f):
    """Regular embedding: (b w)(delta_v (x) a) = delta_{wv} (x) beta_{(wv)^-1}(b) a."""
    g = action.group
    alg = Dense(oracles.base_basis(action.algebra))
    n = alg.ambient_dim
    w_n = g.order
    f = np.asarray(f, dtype=complex)
    out = np.zeros((w_n * n, w_n * n), dtype=complex)
    for w in range(w_n):
        if not f[w].any():
            continue
        for v in range(w_n):
            vp = g.mul[w, v]
            b = alg.element(dense_maps(action)[g.inv[vp]] @ f[w])
            out[vp * n:(vp + 1) * n, v * n:(v + 1) * n] += b
    return out


def crossed_coefficient_map(cp):
    """The pseudo-inverse of the embedding, one crossed_embed column at a time."""
    g, k = cp.group, cp.action.algebra.dim
    cols = []
    for w in range(g.order):
        for i in range(k):
            f = np.zeros((g.order, k), dtype=complex)
            f[w, i] = 1.0
            cols.append(flatten(crossed_embed(cp.action, f)))
    return np.linalg.pinv(np.stack(cols, axis=1))


def green_julg_loops(eq, cp):
    """(action, inner) of the averaged module, one pair at a time."""
    g, base = eq.group, eq.base
    b_alg = base.algebra
    m, k = base.carrier_dim, b_alg.dim
    coeff_map = crossed_coefficient_map(cp)
    base_action = tensors(base)[0]
    dense = embedded_algebra(cp)
    gamma = dense_gamma(eq)
    action = np.zeros((cp.dim, m, m), dtype=complex)
    for idx in range(cp.dim):
        f = (coeff_map @ flatten(dense.basis[idx])).reshape(g.order, k)
        for w in range(g.order):
            for i in range(k):
                action[idx] += f[w, i] * (gamma[g.inv[w]] @ base_action[i])
    amb = dense.ambient_dim
    inner = np.zeros((m, m, amb, amb), dtype=complex)
    eye = np.eye(m)
    for p in range(m):
        for q in range(m):
            f = np.stack([base.inner_product(eye[p], gamma[w] @ eye[q])
                          for w in range(g.order)])
            inner[p, q] = crossed_embed(cp.action, f)
    return action, inner


def test_module_takes_algebra_elements_in_coordinates():
    """Over C(X), dim B = |X| = N: a matrix where coordinates belong would
    broadcast, so it is refused, as are carrier vectors of the wrong size."""
    e = function_module(z2_line_system(1))
    n, m = e.algebra.dim, e.carrier_dim
    assert n == e.algebra.ambient_dim
    xi, c = np.ones(m), np.arange(n, dtype=complex)
    assert close(e.act(xi, c), np.tensordot(c, tensors(e)[0], axes=1) @ xi)
    for bad in (np.eye(n), np.ones(n + 1), np.float64(1.0)):
        with pytest.raises(ModuleError, match="coordinate vectors"):
            e.act(xi, bad)
    with pytest.raises(ModuleError, match="carrier's size"):
        e.act(np.ones(m + 1), c)
    with pytest.raises(ModuleError, match="carrier's size"):
        e.inner_product(xi, np.ones((2, m + 1)))
    assert e.inner_product(xi, xi).shape == (n,)


PIPELINE = ["z2-line", "anticomplete-point", "z2xz2-line-1", "z2xz2-line-2",
            "z2xz2-line-1-quotient", "z2xz2-line-2-quotient", "z4-rotation"]


def z4_rotation_system():
    """Z/4 rotating four points and fixing a fifth, where I_w = i^w.

    Unlike the bundled systems, its group has elements that are not their
    own inverses, so w and w^-1 cannot be confused unnoticed."""
    g = cyclic(4)
    action = np.array([[(x + w) % 4 for x in range(4)] + [4] for w in range(4)])
    coc = np.ones((4, 5, 1, 1), dtype=complex)
    coc[:, 4, 0, 0] = [1j ** w for w in range(4)]
    return EquivariantSystem(g, (0, 1, 2, 3, "c"), action, 1, coc, name="z4-rotation")


def pipeline_module(label):
    """The equivariant function module of a bundled Morita input or of the
    Z/4 rotation, or the R-equivariant quotient module of a two-component
    system."""
    if label in ("z2-line", "anticomplete-point"):
        return equivariant_function_module(bundled(label))
    if label == "z4-rotation":
        return equivariant_function_module(z4_rotation_system())
    n = int(label.split("-")[2])
    sys, wprime, r = bundled("two-component")[n - 1]
    assert sys.name == f"z2xz2-line-{n}"
    if label.endswith("quotient"):
        return quotient_module(sys, wprime, r)[0]
    return equivariant_function_module(sys)


@pytest.mark.parametrize("label", PIPELINE)
def test_green_julg_module_matches_pair_loops(label):
    eq = pipeline_module(label)
    gj, cp = green_julg_module(eq)
    action, inner = green_julg_loops(eq, cp)
    assert gj.algebra is cp.algebra
    assert np.abs(tensors(gj)[0] - action).max() < 1e-10
    assert np.abs(dense_inner(gj, embedded_algebra(cp)) - inner).max() < 1e-10


def crossed_system(label):
    """z2-line-n, anticomplete-point, z2xz2-line-1 or the Z/4 rotation."""
    if label == "anticomplete-point":
        return anticomplete_point_system()
    if label == "z2xz2-line-1":
        return z2xz2_line_system(1)
    if label == "z4-rotation":
        return z4_rotation_system()
    return z2_line_system(int(label[-1]))


@pytest.mark.parametrize("label", ["z2-line-1", "z4-rotation"])
def test_embed_of_a_stack_matches_per_array_oracle(label):
    """Coefficients f embed as sum f[w, i] a_(w,i), a_(w,i) = b_i w / sqrt|W|."""
    cp = crossed_product(scalar_translation_action(crossed_system(label)))
    w_n, k = cp.group.order, cp.action.algebra.dim
    dim = w_n * k
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 2, w_n, k)) + 1j * rng.standard_normal((3, 2, w_n, k))
    dense = embedded_algebra(cp)
    embedded = dense.element(stack.reshape(3, 2, dim))
    assert embedded.shape == (3, 2) + dense.basis.shape[1:]
    for idx in np.ndindex(3, 2):
        oracle = crossed_embed(cp.action, stack[idx]) / np.sqrt(w_n)
        assert np.abs(embedded[idx] - oracle).max() < 1e-12
        assert np.abs(dense.element(stack[idx].reshape(dim)) - oracle).max() < 1e-12
    # The embedding is orthonormal.
    rows = dense.basis_rows()
    assert np.abs(rows @ rows.conj().T - np.eye(dim)).max() < 1e-12


def span_contains_loop(basis, vecs, tol=1e-9) -> bool:
    return all(row_residuals(basis, v[None])[0] <= tol * max(1.0, np.linalg.norm(v))
               for v in vecs)


def test_span_contains_checks_every_slab():
    rng = np.random.default_rng(8)
    width = 512
    basis = np.linalg.qr(rng.standard_normal((width, 6)))[0].T.astype(complex)
    # More rows than one slab of 2^20 entries holds, all inside the span.
    vecs = rng.standard_normal(((1 << 20) // width + 40, 6)) @ basis
    assert span_contains(basis, vecs) and span_contains_loop(basis, vecs)
    # Only the last row, in the last slab, leaves the span.
    outside = np.linalg.qr(np.vstack([basis.real, rng.standard_normal((1, width))]).T)[0][:, -1]
    vecs[-1] += 1e-6 * outside
    assert not span_contains(basis, vecs) and not span_contains_loop(basis, vecs)
    assert span_contains(basis, vecs[:-1])


def restricted_rows_spy(monkeypatch, module) -> list:
    """The coordinate rows of every restricted_algebra call made through
    `module`, in order."""
    calls = []

    def spy(alg, rows):
        calls.append(rows)
        return matalg.restricted_algebra(alg, rows)

    monkeypatch.setattr(module, "restricted_algebra", spy)
    return calls


def assert_same_tables(alg, plain):
    """alg, in coordinates, has the product table, star table and traces
    that the dense pass reads off plain's basis."""
    assert close(table_of(alg), plain.structure)
    assert close(star_of(alg), plain.star) and close(alg.traces, plain.traces)


@pytest.mark.parametrize("label", PIPELINE)
def test_fullness_ideal_matches_raw_values(label, monkeypatch):
    """The ideal's rows span the values as matrices, and its tables are
    those of that span."""
    eq = pipeline_module(label)
    averaged, cp = green_julg_module(eq)
    calls = restricted_rows_spy(monkeypatch, oracles)
    base = dense_of(eq.base.algebra)
    for e, dense in ((eq.base, base), (averaged, embedded_algebra(cp))):
        m = e.carrier_dim
        raw = orthonormal_rows(flatten(dense_inner(e, dense)).reshape(m * m, -1))
        ideal = fullness_ideal(e)
        rows = calls.pop()
        assert not calls and ideal.dim == raw.shape[0]
        assert spans_equal(flatten(dense.element(rows)), raw, 1e-8)
        assert_same_tables(ideal, Dense(dense.element(rows)))
        assert is_full(e) == (raw.shape[0] == e.algebra.dim)


def test_checked_conversion_rejects_values_outside_the_algebra():
    e = function_module(bundled("z2-line"))
    dense = Dense(scalar_basis(e.algebra.dim))
    rows = dense.basis_rows()
    inner = dense_inner(e, dense)
    assert close(hilbmod._checked_coefficients(rows, flatten(inner)), tensors(e)[1])
    inner[0, 1, 0, 1] = 0.5     # off the diagonal algebra C(X)
    with pytest.raises(ModuleError, match="leave the coefficient algebra"):
        hilbmod._checked_coefficients(rows, flatten(inner))


def test_rebase_module_rejects_a_subalgebra_that_misses_a_value():
    # C^2 (+) 0 over C (+) C: every value lies in the first summand.
    e = direct_sum_module(free_module(2), free_module(0))
    first = rebase_module(e, np.eye(2, dtype=complex)[:1])
    first.validate()
    inner = tensors(e)[1]
    assert first.algebra.dim == 1 and close(tensors(first)[1], inner[:, :, :1])
    assert not inner[:, :, 1:].any()
    assert is_full(first) and not is_full(e)
    with pytest.raises(ModuleError, match="leave the coefficient algebra"):
        rebase_module(e, np.eye(2, dtype=complex)[1:])
    # The function module's values span C(X): C of all points but the last
    # misses <e_p|e_p> at that point.
    e = function_module(bundled("z2-line"))
    with pytest.raises(ModuleError, match="leave the coefficient algebra"):
        rebase_module(e, np.eye(e.algebra.dim, dtype=complex)[:-1])
    # C (+) C over C (+) C: the row (1, 1) / sqrt 2 joins the two carrier
    # components' coordinates.
    e = direct_sum_module(free_module(1), free_module(1))
    with pytest.raises(ModuleError, match="leaves the coordinates of its carrier component"):
        rebase_module(e, np.array([[1, 1]], dtype=complex) / np.sqrt(2))


def is_ideal_loops(ideal, alg, tol=1e-9) -> bool:
    if not alg.contains(ideal.basis, max(tol, 1e-8)):
        return False
    rows = ideal.basis_rows()
    for a in alg.basis:
        for i in ideal.basis:
            for m in (a @ i, i @ a, i.conj().T):
                if row_residuals(rows, flatten(m)[None])[0] > tol * max(1.0, np.linalg.norm(m)):
                    return False
    return True


def embedded_ideal(cid):
    """(C's embedded span, the embedded crossed product)."""
    dense = embedded_algebra(cid.cp)
    return Dense(dense.element(cid.rows)), dense


def test_is_ideal_matches_product_loop():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pad_a = np.zeros((5, 5), dtype=complex)
    pad_a[:2, :2] = a
    pad_b = np.zeros((5, 5), dtype=complex)
    pad_b[2:, 2:] = b
    blocks = generate([pad_a, pad_b], ambient_dim=5)
    first = generate([pad_a], ambient_dim=5)
    sys = bundled("z2-line")
    cid = c_ideal(sys)
    # C(X) sits in C(X) >| W as the identity-coefficient part: a *-subalgebra,
    # not an ideal, since w . f leaves it.
    cp = crossed_product(scalar_translation_action(sys))
    k = sys.n_points
    diag = Dense(algebra_from_span(embedded_algebra(cp).element(np.eye(cp.dim)[:k])).mats)
    # On z2-line, C(X, W, I) is the whole crossed product; on z2xz2-line-1 it
    # is a proper ideal, which the coefficient test accepts by its products.
    proper = c_ideal(z2xz2_line_system(1))
    assert proper.dim < proper.cp.dim
    cases = [(Dense(first.mats), Dense(blocks.mats), True), (*embedded_ideal(cid), True),
             (*embedded_ideal(proper), True), (diag, embedded_algebra(cp), False)]
    for ideal, alg, expected in cases:
        assert is_ideal(ideal, alg) == is_ideal_loops(ideal, alg) == expected
    # The crossed-product cases, in coefficients grouped by point, and their
    # dense rows through the per-w product loop.
    diag_rows = orthonormal_rows(np.eye(cp.dim)[:k])
    for crossed, rows, grouped, expected in (
            (cid.cp, cid.rows, cid.by_point, True), (proper.cp, proper.rows, proper.by_point, True),
            (cp, diag_rows, oracles.grouped_rows(diag_rows, k), False)):
        assert crossed.is_ideal(grouped) == oracles.crossed_is_ideal_loop(crossed, rows) == expected
    assert cid.dim == cid.cp.dim
    assert np.array_equal(oracles.grouped_rows(proper.rows, proper.system.n_points),
                          proper.by_point[:, :proper.ranks.max()])


def test_one_sided_ideals_are_not_ideals():
    """In C(X) >| Z/2 = M_2, for Z/2 swapping two points, p A is closed
    under right products but not under the adjoint, and A p the reverse;
    the coefficient and dense tests both reject them."""
    swap = EquivariantSystem(cyclic(2), (0, 1), np.array([[0, 1], [1, 0]]), 1,
                             np.ones((2, 2, 1, 1), dtype=complex), name="swap")
    cp = crossed_product(scalar_translation_action(swap))
    p = np.zeros(4, dtype=complex)
    p[0] = 1.0                        # the indicator of point 0, at slot e
    units = np.eye(4)
    # The last input, the whole crossed product, is an ideal.
    for prods, expected in ((cp.algebra.multiply(p, units), False),
                            (cp.algebra.multiply(units, p), False), (units, True)):
        rows = orthonormal_rows(prods)
        assert rows.shape[0] == (4 if expected else 2)
        assert cp.is_ideal(oracles.grouped_rows(rows, 2)) == expected
        assert oracles.crossed_is_ideal_loop(cp, rows) == expected
        dense = embedded_algebra(cp)
        n = dense.ambient_dim
        embedded = flatten(dense.element(prods))
        ideal = Dense(unflatten(orthonormal_rows(embedded), n))
        assert is_ideal(ideal, dense) == is_ideal_loops(ideal, dense) == expected


CROSSED = ["z2-line-1", "z2-line-2", "anticomplete-point", "z2xz2-line-1", "z4-rotation"]


def close(a, b, tol=1e-10) -> bool:
    return float(np.abs(a - b).max(initial=0.0)) < tol * max(1.0, float(np.abs(b).max()))


@pytest.mark.parametrize("label", CROSSED)
@pytest.mark.parametrize("make_action", [scalar_translation_action, function_algebra_action])
def test_crossed_coefficients_match_the_embedding(label, make_action):
    check_crossed_coefficients(cross(make_action(crossed_system(label))))


def test_crossed_coefficients_match_the_embedding_of_a_corner():
    check_crossed_coefficients(crossed_product(corner_action()), CORNER_BASIS)


def check_crossed_coefficients(cp, basis=None):
    """The embedded basis is orthonormal, and cp.algebra's products and
    adjoints of coordinate stacks that broadcast, and its coordinate rows,
    match the embedded matrices, for B's basis matrices `basis`
    (oracles.base_basis when not given)."""
    dense = embedded_algebra(cp, basis)
    emb = dense.basis_rows()
    assert close(emb @ emb.conj().T, np.eye(cp.dim), 1e-12)
    rng = np.random.default_rng(9)
    f, h = rng.standard_normal((2, 3, cp.dim)) + 1j * rng.standard_normal((2, 3, cp.dim))
    alg = cp.algebra
    ef, eh = dense.element(f), dense.element(h)
    assert close(dense.element(alg.multiply(f, h)), ef @ eh)
    assert close(dense.element(alg.multiply(f[:, None], h[None])), ef[:, None] @ eh[None])
    assert close(dense.element(alg.adjoint(f)), np.conj(np.transpose(ef, (0, 2, 1))))
    # Coefficient rows carry the trace inner products of the embedded matrices.
    assert close(f @ f.conj().T, flatten(ef) @ flatten(ef).conj().T)
    # ... and are the coordinates against the algebra's basis.
    assert close(f, np.stack([dense.coefficients(a) for a in ef]))
    assert alg.dim == emb.shape[0]
    assert alg.closure_residual() < 1e-9


# E11 and E22 in M_3, whose sum is not I_3.
CORNER_BASIS = np.eye(3, dtype=complex)[:2, :, None] * np.eye(3)[:2, None, :]


def corner_action():
    """Z/2 swapping E11 and E22 in M_3, both in B's one block: B's unit
    E11 + E22 is not I_3."""
    return AlgebraAction(cyclic(2), MatrixSpan(CORNER_BASIS).algebra, [[0, 1], [1, 0]])


def cross(action):
    """B >| W: crossed_product of an AlgebraAction, and the dense oracle's
    of a DenseAction such as C(X, M_d)'s alpha (function_algebra_action)."""
    if isinstance(action, DenseAction):
        return dense_crossed_product(action)
    return crossed_product(action)


def crossed_case(label):
    """B >| W's action: C(X, M_d) or C(X) under the translation action of a
    system, `{kind}:{system}`, optionally restricted to W' = {0, 2} by a
    `|wprime` suffix, or the corner action."""
    if label == "corner":
        return corner_action()
    make_action, system = label.split(":")
    actions = {"scalar": scalar_translation_action, "function": function_algebra_action}
    system, _, restricted = system.partition("|")
    sys = (morita_system(system) if system.startswith(("z2xz2", "dihedral"))
           else crossed_system(system))
    if restricted:
        sys = systems.restrict_system(sys, [0, 2])[0]
    return actions[make_action](sys)


# The bundled systems, z2-line 1-5 and z2xz2-line 1-3 with and without W'.
CROSSED_TABLES = sorted({f"{a}:{s}" for a in ("scalar", "function") for s in CROSSED} | {
    "corner", "scalar:dihedral-plane", "scalar:z2-line-3", "scalar:z2-line-4",
    "scalar:z2-line-5", *(f"scalar:z2xz2-line-{n}{r}" for n in (1, 2, 3) for r in ("", "|wprime"))})


@pytest.mark.parametrize("label", CROSSED_TABLES)
def test_crossed_tables_match_the_embedded_span(label):
    """The coordinate algebra of B >| W has the tables of the embedded span,
    read off the embedding, and the embedding keeps the covariant-pair
    relations (1)-(4) that make them so."""
    cp = cross(crossed_case(label))
    alg = cp.algebra
    assert alg.ambient_dim == cp.group.order * cp.action.algebra.ambient_dim
    base = CORNER_BASIS if label == "corner" else None
    emb = crossed_basis(cp.action, base)
    dense = Dense(emb)
    assert close(flatten(emb) @ flatten(emb).conj().T, np.eye(alg.dim), 1e-12)
    assert oracles.relation_residual(cp, base) <= 1e-12
    assert np.abs(alg.traces - dense.traces).max() <= 1e-12
    assert np.abs(star_of(alg) - dense.star).max() <= 1e-12
    # The unit of B >| W is pi(e) = 1 (x) e for B's unit e, also when e is not I_N.
    b_alg = cp.action.algebra
    b_dense = Dense(oracles.base_basis(b_alg) if base is None else base)
    unit = np.kron(np.eye(cp.group.order), b_dense.element(b_alg.unit()))
    assert np.abs(alg.unit() - dense.coefficients(unit)).max() <= 1e-12
    assert np.abs(dense.element(alg.unit()) - unit).max() <= 1e-12
    # Products and norms of random elements against the embedded matrices.
    rng = np.random.default_rng(10)
    f, h = rng.standard_normal((2, 3, alg.dim)) + 1j * rng.standard_normal((2, 3, alg.dim))
    ef, eh = dense.element(f), dense.element(h)
    assert close(dense.element(alg.multiply(f, h)), ef @ eh, 1e-12)
    assert close(dense.element(alg.adjoint(f)), ef.conj().swapaxes(1, 2), 1e-12)
    assert close(alg.norm(f), np.array([operator_norm(a) for a in ef]), 1e-12)
    if alg.dim <= 64:
        assert np.abs(table_of(alg) - dense.structure).max() <= 1e-12
        assert dense.closure_residual() < 1e-12
    assert alg.closure_residual() < 1e-12


def crossed_basis_mutant(kind):
    """crossed_basis with the twist beta_(wv) in place of beta_((wv)^-1), or
    with block (v, wv) in place of (wv, v), scaled by 1 / sqrt|W| as it is."""
    def mutant(action, basis):
        g = action.group
        n, k, w_n = basis.shape[1], basis.shape[0], g.order
        maps = dense_maps(action) if kind == "twist" else dense_maps(action)[g.inv]
        twisted = np.tensordot(maps, basis, axes=(1, 0)) / np.sqrt(w_n)
        out = np.zeros((w_n, k, w_n, n, w_n, n), dtype=complex)
        for w in range(w_n):
            for v in range(w_n):
                wv = g.mul[w, v]
                if kind == "slot":
                    out[w, :, v, :, wv, :] = twisted[wv]
                else:
                    out[w, :, wv, :, v, :] = twisted[wv]
        return out.reshape(w_n * k, w_n * n, w_n * n)
    return mutant


@pytest.mark.parametrize("kind", ["twist", "slot"])
def test_relation_check_rejects_a_wrong_embedding(kind, monkeypatch):
    cp = crossed_product(scalar_translation_action(z4_rotation_system()))
    assert oracles.relation_residual(cp) < 1e-12
    monkeypatch.setattr(oracles, "crossed_basis", crossed_basis_mutant(kind))
    assert oracles.relation_residual(cp) > 1e-3


def test_whitened_basis_rejects_a_wrong_inverse_root(monkeypatch):
    """crossed_basis without its 1 / sqrt|W|: the basis b_i w is not orthonormal."""
    monkeypatch.setattr(oracles, "crossed_basis",
                        lambda action, basis: crossed_basis(action, basis) * np.sqrt(action.group.order))
    rows = oracles.embedded_algebra(crossed_product(
        scalar_translation_action(z4_rotation_system()))).basis_rows()
    assert not close(rows @ rows.conj().T, np.eye(len(rows)))


@pytest.mark.parametrize("label", CROSSED)
def test_morita_spans_in_coefficients_match_the_embedded_ideals(label, monkeypatch):
    sys = crossed_system(label)
    verdict = verify_morita_theorem(sys)
    cid = verdict.ideal
    cp = cid.cp
    # C: the coefficient rows embed to an orthonormal basis of an ideal,
    # whose tables are c_ideal's algebra's; an ideal of full dimension is
    # the crossed product, in its own coordinates.
    c_alg, dense = embedded_ideal(cid)
    c_rows = c_alg.basis_rows()
    assert close(c_rows @ c_rows.conj().T, np.eye(cid.dim))
    assert cid.algebra.dim == cid.dim and is_ideal(c_alg, dense)
    if cid.dim < cp.dim:
        assert_same_tables(cid.algebra, c_alg)
    else:
        assert cid.algebra is cp.algebra
        assert_same_tables(cid.algebra, dense)
    # J: the span of the averaged inner values is the fullness ideal.
    eq = equivariant_function_module(sys)
    m = eq.base.carrier_dim
    j_rows = orthonormal_rows(averaged_tensors(eq)[1].reshape(m * m, -1))
    averaged = green_julg_module(eq, cp)[0]
    j_emb = orthonormal_rows(flatten(dense_inner(averaged, dense)).reshape(m * m, -1))
    calls = restricted_rows_spy(monkeypatch, oracles)
    j_alg = fullness_ideal(averaged)
    ideal_rows = calls.pop()
    assert j_rows.shape[0] == j_alg.dim == verdict.j_dim == j_emb.shape[0]
    assert spans_equal(flatten(dense.element(j_rows)), j_emb, 1e-8)
    assert spans_equal(flatten(dense.element(ideal_rows)), j_emb, 1e-8)
    assert_same_tables(j_alg, Dense(dense.element(ideal_rows)))
    # The verdict's fields, recomputed on the embedded spans.
    assert verdict.spans_match == spans_equal(j_emb, c_rows, 1e-8)
    assert verdict.strict_inclusion == (
        j_emb.shape[0] < cid.dim and span_contains(c_rows, j_emb, 1e-8))
    assert abs(verdict.j_in_c_residual - row_residuals(c_rows, j_emb).max()) < 1e-12
    assert (verdict.module is None) == (verdict.witness is None)


# -- the Green-Julg check in coefficient space against the embedded spans ------


def invariant_compacts_kronecker(eq, tol=1e-8):
    """K_B(E) intersected with the Kronecker commutant of the generators."""
    gamma = dense_gamma(eq)[list(eq.group.generators())]
    return span_intersection(dense_rows(eq.base, compact_operators(eq.base, tol).raw_rows),
                             intertwiner_rows(gamma, gamma, tol), tol)


GREEN_JULG_SYSTEMS = {
    **{f"z2-line-{n}": lambda n=n: z2_line_system(n) for n in (1, 2, 3)},
    **{f"z2xz2-line-{n}": lambda n=n: z2xz2_line_system(n) for n in (1, 2)},
    "anticomplete-point": anticomplete_point_system,
    "s3-point": lambda: one_point_system(symmetric(3), regular_rep(symmetric(3)).matrices),
    "z4-rotation": z4_rotation_system,
}
GREEN_JULG_CASES = [*GREEN_JULG_SYSTEMS, "trivial-free"]


def green_julg_case(label):
    """The equivariant function module of a system above, or C^3 under the
    trivial group."""
    if label == "trivial-free":
        return trivial_equivariant_module(free_module(3), builtin_group("trivial"))
    return equivariant_function_module(GREEN_JULG_SYSTEMS[label]())


@pytest.mark.parametrize("label", GREEN_JULG_CASES)
def test_invariant_compacts_match_the_kronecker_commutant(label):
    eq = green_julg_case(label)
    rows = dense_rows(eq.base, invariant_compacts_rows(eq, tol=1e-8))
    oracle = invariant_compacts_kronecker(eq)
    assert rows.shape[0] == oracle.shape[0] > 0
    assert spans_equal(rows, oracle, 1e-8)
    assert np.abs(rows @ rows.conj().T - np.eye(rows.shape[0])).max() < 1e-12


@pytest.mark.parametrize("label", GREEN_JULG_CASES)
def test_averaged_compacts_match_the_embedded_module(label):
    # The rank-one maps over the embedded B >| W, as the averaged module
    # expands them in its orthonormal basis.
    eq = green_julg_case(label)
    averaged = green_julg_module(eq)[0]
    oracle = compact_operators(averaged, 1e-8).raw_rows
    rows, _, pairs = hilbmod._compact_rows(hilbmod._averaged_parts(eq), eq.base.carrier_dim, 1e-8)
    assert np.array_equal(pairs, averaged.pairs)
    assert rows.shape[0] == oracle.shape[0] > 0
    assert spans_equal(rows, oracle, 1e-8)


# -- block structure in the algebra's coordinates against the dense split ------


@dataclasses.dataclass(frozen=True)
class DenseBlock:
    """A block of the dense split: its projection is an N x N matrix."""

    size: int
    multiplicity: int
    projection: np.ndarray


def block_decompose_dense(alg, seed=0, tol=1e-9):
    """The N x N split: eigenspaces of a random central z, kept when inside
    the support and the algebra, block sizes from the compressed span."""
    if alg.dim == 0:
        return matalg.BlockStructure(alg, ())
    rng = np.random.default_rng(seed)
    # The center's coordinates: c -> <b_l, [sum_i c_i b_i, b_j]> vanishes.
    table = alg.structure
    cen = Dense(alg.element(linalg.nullspace_rows(
        (table - table.transpose(2, 1, 0)).reshape(alg.dim ** 2, -1), tol)))
    e = alg.element(alg.traces.conj())
    gap = 1e-7
    for _ in range(8):
        z = cen.element(rng.standard_normal(cen.dim) + 1j * rng.standard_normal(cen.dim))
        evals, evecs = np.linalg.eigh((z + z.conj().T) / 2.0)
        projections = []
        ok = True
        labels = linalg.cluster_values(evals, gap)
        for idx in (np.flatnonzero(labels == c) for c in range(labels.max() + 1)):
            p = evecs[:, idx] @ evecs[:, idx].conj().T
            if np.linalg.norm(p @ e - p) > 1e-6:
                # Outside the support: fine when wholly outside.
                ok = np.linalg.norm(p @ e) <= 1e-6
            elif not alg.contains(p, max(tol, 1e-7)):
                ok = False
            else:
                projections.append(p)
            if not ok:
                break
        if ok and len(projections) == cen.dim:
            blocks = []
            for p in projections:
                comp = oracles.compress(oracles.projection_range(p), alg.basis)
                rank = orthonormal_rows(flatten(comp), tol).shape[0]
                n = int(round(np.sqrt(rank)))
                if n * n != rank:
                    break
                blocks.append(DenseBlock(n, int(round(np.trace(p).real / n)), p))
            else:
                blocks.sort(key=lambda b: (b.size, -np.trace(b.projection).real))
                return matalg.BlockStructure(alg, tuple(blocks))
        gap *= 2.0
    raise linalg.SplitError("dense split failed")


def corner_block_sum():
    """conjugated_block_sum in a corner of M_10: its unit has rank 8."""
    alg = conjugated_block_sum()
    mats = np.zeros((alg.dim, 10, 10), dtype=complex)
    mats[:, :8, :8] = alg.mats
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    return algebra_from_span(u @ mats @ u.conj().T)


def group_algebra(name):
    g = builtin_group(name)
    return generate(regular_rep(g).matrices, ambient_dim=g.order)


BLOCK_ALGEBRAS = {
    **{f"fpa-{name}": lambda name=name: fixed_point_algebra(bundled(name))
       for name in ("z2-line", "dihedral-plane", "anticomplete-point")},
    **{f"fpa-z2xz2-line-{n}": lambda n=n: fixed_point_algebra(z2xz2_line_system(n))
       for n in (1, 2)},
    **{f"cp-z2-line-{n}": lambda n=n: dense_crossed_product(
        function_algebra_action(z2_line_system(n))) for n in (1, 2)},
    **{f"compacts-z2-line-{n}": lambda n=n: compacts_algebra(compact_operators(
        function_module(z2_line_system(n)))) for n in (1, 2, 3)},
    **{f"group-{name}": lambda name=name: group_algebra(name)
       for name in ("Z2", "Z2xZ2", "S3", "D8")},
    "conjugated-block-sum": conjugated_block_sum,
    "corner-block-sum": corner_block_sum,
}


@pytest.mark.parametrize("label", sorted(BLOCK_ALGEBRAS))
def test_block_decompose_matches_the_dense_split(label):
    """The crossed products split in their coordinates, their embedded
    spans densely; every Block keeps its projection's coordinates."""
    built = BLOCK_ALGEBRAS[label]()
    if label.startswith("cp-"):
        alg, dense = built.algebra, embedded_algebra(built)
    elif label.startswith("fpa-"):
        alg, dense = built, Dense(fpa_basis(built))
    else:
        alg, dense = built.algebra, Dense(built.mats)
    if label == "corner-block-sum":
        assert not dense.contains(np.eye(10))
    for seed in range(3):
        got = [DenseBlock(b.size, b.multiplicity, dense.element(b.projection))
               for b in matalg.block_decompose(alg, seed=seed).blocks]
        want = block_decompose_dense(dense, seed=seed).blocks
        assert [(b.size, b.multiplicity) for b in got] == \
            [(b.size, b.multiplicity) for b in want]
        # Equal blocks may come in either order: match projections as sets.
        for key in {(b.size, b.multiplicity) for b in got}:
            mine = [b.projection for b in got if (b.size, b.multiplicity) == key]
            theirs = [b.projection for b in want if (b.size, b.multiplicity) == key]
            nearest = [min((np.abs(p - q).max(), i) for i, q in enumerate(theirs))
                       for p in mine]
            assert all(dist < 1e-8 for dist, _ in nearest)
            assert len({i for _, i in nearest}) == len(mine)


# -- each object once per run ---------------------------------------------------


def counting_spy(monkeypatch, modules, name) -> list:
    """Rebind `name` in each module to one wrapper that records its first
    argument per call; returns the record."""
    calls = []
    original = getattr(modules[0], name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, spy, raising=False)
    return calls


def test_spectrum_command_classifies_once(monkeypatch, capsys):
    # z2-line has five orbits and two distinct stabilizers: {e} and Z/2.
    # The spy is bound in cli too, so a direct call from there is counted.
    classified = counting_spy(monkeypatch, [spectrum, cli], "classify_irreps")
    tabled = counting_spy(monkeypatch, [spectrum], "character_table")
    enumerated = counting_spy(monkeypatch, [reps], "enumerate_irreps")
    assert cli.main(["spectrum", "--input", "z2-line", "--format", "json"]) == 0
    assert len(classified) == 1 and len(tabled) == 2
    assert '"spectrum_dims"' in capsys.readouterr().out
    # On dihedral-plane the stabilizers {0, 4} and {0, 5} are one Z/2 table:
    # four stabilizers, three character tables, and no irrep is split.
    plane = bundled("dihedral-plane")
    desc = spectrum.classify_irreps(plane)
    stabs = {plane.orbits.stabilizers[x] for x in plane.orbits.representatives}
    assert len(tabled) == 5 and len(stabs) == 4 and enumerated == []
    # An entry's character is the row of its stabilizer's table with the
    # entry's label, read-only.
    for e in desc.entries:
        labels, chars = character_table(e.stabilizer.group)
        assert np.array_equal(e.character, chars[labels.index(e.rho_label)])
        assert not e.character.flags.writeable


def test_reduction_builds_each_fixed_point_algebra_once(monkeypatch):
    built = counting_spy(monkeypatch, [systems, morita, spectrum], "fixed_point_algebra")
    components = bundled("two-component")
    assert morita.assemble_toy_dual(components).ok
    for sys, _, _ in components:
        assert sum(s is sys for s in built) == 1


def test_morita_theorem_averages_once_and_runs_no_dense_pass(monkeypatch):
    averaged = counting_spy(monkeypatch, [hilbmod], "_averaged_parts")
    dense = dense_pass_spy(monkeypatch)
    verdict = verify_morita_theorem(bundled("z2-line"))
    assert verdict.ok and verdict.witness is not None
    assert len(averaged) == 1
    # C is the whole crossed product here, so the witness module is over
    # cp.algebra, whose blocks the verdict counted.
    cp_algebra = verdict.ideal.cp.algebra
    assert verdict.module.algebra is cp_algebra and verdict.c_blocks is not None
    assert dense == []
    # The dense pass itself still runs on a span of matrices.
    plain = MatrixSpan(crossed_basis(verdict.ideal.cp.action))
    assert close(table_of(plain.algebra), table_of(cp_algebra)) and dense[-1] is plain


def dense_pass_spy(monkeypatch) -> list:
    """The spans of matrices whose dense product pass (MatrixSpan.algebra)
    runs, in order."""
    spans, dense_pass = [], MatrixSpan.algebra.func

    def spy(span):
        spans.append(span)
        return dense_pass(span)

    monkeypatch.setattr(MatrixSpan, "algebra", property(spy))
    return spans


def validate_loop(rep, tol=1e-9):
    """The first failing pair (g, h) of the homomorphism test, in loop order."""
    mats = rep.matrices
    for g in rep.group.elements():
        for h in rep.group.elements():
            if np.linalg.norm(mats[rep.group.mul[g, h]] - mats[g] @ mats[h]) > tol * rep.dim:
                return g, h
    return None


def test_homomorphism_defect_names_the_first_failing_pair():
    g = builtin_group("S3")
    good = regular_rep(g)
    assert np.abs(linalg.homomorphism_defect(good.matrices, g.mul)).max() < 1e-15
    assert validate_loop(good) is None
    good.validate()
    mats = good.matrices.copy()
    mats[4] = mats[4] @ np.diag(np.exp(1j * np.arange(g.order)))   # unitary, not a hom
    bad = UnitaryRep(g, mats)
    first = validate_loop(bad)
    assert first is not None
    with pytest.raises(RepError, match=rf"homomorphism fails at \({first[0]}, {first[1]}\)"):
        bad.validate()
    loop_max = max(np.abs(mats[g.mul[a, b]] - mats[a] @ mats[b]).max()
                   for a in g.elements() for b in g.elements())
    assert abs(bad.homomorphism_residual() - loop_max) < 1e-14


# -- the Morita theorem's J and C point by point, against the whole ambient ----


def flip_system(n_points):
    """Z/2 reflecting n_points points on a line, scalar trivial cocycle."""
    action = np.stack([np.arange(n_points), np.arange(n_points)[::-1]])
    return EquivariantSystem(cyclic(2), tuple(float(x) for x in range(n_points)), action,
                             1, np.ones((2, n_points, 1, 1), dtype=complex), name="flip")


def dihedral_grid(r):
    pts = [(float(a), float(b)) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    return systems.dihedral_plane_family().system(pts)


def morita_system(label):
    kind, _, n = label.rpartition("-")
    if label in ("anticomplete-point", "dihedral-plane"):
        return bundled(label)
    return {"z2-line": z2_line_system, "z2xz2-line": z2xz2_line_system,
            "flip": flip_system, "dihedral-grid": dihedral_grid}[kind](int(n))


MORITA = ([f"z2-line-{n}" for n in range(1, 9)]
          + ["z2xz2-line-1", "z2xz2-line-2", "flip-3", "flip-4", "flip-5",
             "anticomplete-point", "dihedral-plane", "dihedral-grid-2"])


def j_rows_dense(sys):
    """J's whole-ambient cut: the SVD of all m^2 inner values."""
    eq = equivariant_function_module(sys)
    m = eq.base.carrier_dim
    return orthonormal_rows(averaged_tensors(eq)[1].reshape(m * m, -1))


def c_rows_dense(sys, scalar, tol=1e-9):
    """C's whole-ambient kernel: one constraint row per (x, w' in W'_x, w)."""
    g, x_n = sys.group, sys.n_points
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
    return linalg.nullspace_rows(np.vstack(constraints), tol) if constraints \
        else np.eye(n_coeff, dtype=complex)


def point_blocks(inner, x_n, d):
    """(|X|, d m, |W|): block x holds the averaged inner values <<e_p|e_q>>,
    (m, m, |W| |X|) or (m, m, |W|, |X|) crossed coefficients, whose left
    vector e_p lies at x (p = x d + a), in the columns (., x): the oracle of
    morita._averaged_point_blocks, cut out of the whole averaged tensor."""
    m = inner.shape[0]
    x = np.arange(x_n)
    return inner.reshape(x_n, d, m, -1, x_n)[x, :, :, :, x].reshape(x_n, d * m, -1)


def j_rows_by_point(sys):
    """J's rows as the point-local cut finds them, in the whole ambient."""
    eq = equivariant_function_module(sys)
    blocks = point_blocks(averaged_tensors(eq)[1], sys.n_points, sys.fiber_dim)
    rows, ranks = morita._point_spans(blocks)
    x_n, w_n = rows.shape[0], rows.shape[2]
    out = np.zeros((int(ranks.sum()), w_n, x_n), dtype=complex)
    points = np.repeat(np.arange(x_n), ranks)
    out[np.arange(points.size), :, points] = np.concatenate(
        [rows[x, :ranks[x]] for x in range(x_n)])
    return out.reshape(points.size, -1)


@pytest.mark.parametrize("label", MORITA)
def test_point_local_spans_match_the_whole_ambient_cut(label):
    sys = morita_system(label)
    verdict = verify_morita_theorem(sys)
    cid = verdict.ideal
    j_dense = j_rows_dense(sys)
    c_dense = c_rows_dense(sys, verdict.scalar)
    j_points = j_rows_by_point(sys)
    assert verdict.j_dim == j_points.shape[0] == j_dense.shape[0]
    assert verdict.c_dim == cid.dim == c_dense.shape[0]
    assert spans_equal(j_points, j_dense, 1e-10)
    assert spans_equal(cid.rows, c_dense, 1e-10)
    assert close(cid.rows @ cid.rows.conj().T, np.eye(cid.dim))
    # The verdict's fields, recomputed on the whole spans.
    assert abs(verdict.j_in_c_residual - row_residuals(c_dense, j_dense).max()) < 1e-12
    assert verdict.spans_match == spans_equal(j_dense, c_dense, 1e-8)
    assert verdict.strict_inclusion == (
        j_dense.shape[0] < c_dense.shape[0] and span_contains(c_dense, j_dense, 1e-8))
    # The gaps: the points where J's columns (., x) span less than C's.
    w_n, x_n = sys.group.order, sys.n_points

    def block_dims(rows):
        return [orthonormal_rows(rows.reshape(-1, w_n, x_n)[:, :, x]).shape[0]
                for x in range(x_n)]

    j_x, c_x = block_dims(j_dense), block_dims(c_dense)
    assert verdict.gaps == tuple((x, j_x[x], c_x[x]) for x in range(x_n) if j_x[x] < c_x[x])


def c_rows_whole(sys, scalar):
    """C's coefficient rows as c_ideal built them whole, one (dim, |W| |X|)
    array sorted by point and by the least element of each coset."""
    g = sys.group
    w_n, x_n = g.order, sys.n_points
    least = np.where(scalar.wprime_mask[:, :, None], g.mul[None], w_n).min(axis=1)
    points, first = np.divmod(np.unique(least + w_n * np.arange(x_n)[:, None]), w_n)
    members = least[points] == first[:, None]
    rows = np.zeros((points.size, w_n, x_n), dtype=complex)
    rows[np.arange(points.size), :, points] = members / np.sqrt(members.sum(axis=1, keepdims=True))
    return rows.reshape(points.size, -1)


def right_cosets(sys):
    """Per point, the right cosets W'_x w of every w, as element lists."""
    g, wprime = sys.group, morita.scalar_subgroups(sys).wprime
    return [[[int(g.mul[u, w]) for u in wprime[x]] for w in g.elements()]
            for x in range(sys.n_points)]


C_POINTS = ([f"z2-line-{n}" for n in range(1, 13)] + [f"dihedral-grid-{r}" for r in (1, 2, 3)]
            + [f"z2xz2-line-{n}" for n in (1, 2, 3)] + ["anticomplete-point"])


@pytest.mark.parametrize("label", C_POINTS)
def test_c_by_point_is_the_whole_rows_bit_for_bit(label):
    """C held point by point reads back, through CIdeal.rows, as the whole
    coefficient rows bit for bit, and its rows are built only when read."""
    sys = morita_system(label)
    cid = c_ideal(sys)
    assert "rows" not in cid.__dict__
    assert cid.by_point.shape == (sys.n_points, sys.group.order, sys.group.order)
    assert np.array_equal(cid.ranks, [len(set(map(frozenset, cosets)))
                                      for cosets in right_cosets(sys)])
    assert np.array_equal(cid.rows, c_rows_whole(sys, morita.scalar_subgroups(sys)))
    assert cid.dim == cid.rows.shape[0]


def prescribed_matrix(values, size, seed=0):
    """A size x size matrix diag(values) V* for a random unitary V, so row i
    is values[i] v_i*."""
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.standard_normal((size, size))
                     + 1j * rng.standard_normal((size, size)))[0]
    padded = np.zeros(size)
    padded[:len(values)] = values
    return padded[:, None] * v.conj().T


def test_point_cut_takes_the_whole_matrix_scale():
    # Three 6 x 4 blocks with prescribed singular values, each the
    # transposed first rows of diag(values) V*.  The largest is 1e6, so the
    # dense rule cuts at 1e-9 * 1e6 = 1e-3: block 1 loses its 1e-4 and 1e-5,
    # which its own scale, max(1e-2, 1) = 1, would keep, and block 2 keeps
    # nothing.
    values = [[1e6, 2.0, 1e-2, 0.0], [1e-2, 1e-4, 1e-5, 0.0], [1e-4, 1e-6, 0.0, 0.0]]
    blocks = np.stack([prescribed_matrix(v, 6, seed=x)[:4].T
                       for x, v in enumerate(values)])
    rows, ranks = morita._point_spans(blocks)
    assert list(ranks) == [3, 1, 0]
    # The dense cut of the same rows, each block in its own columns.
    whole = np.zeros((3, 6, 4, 3), dtype=complex)
    for x in range(3):
        whole[x, :, :, x] = blocks[x]
    dense = orthonormal_rows(whole.reshape(18, 12))
    assert dense.shape[0] == ranks.sum()
    kept = np.zeros((3, 4, 4, 3), dtype=complex)
    for x in range(3):
        kept[x, :, :, x] = rows[x]
    assert spans_equal(orthonormal_rows(kept.reshape(12, 12)), dense, 1e-10)


# -- scalar subgroups in one pass, against the per-point loop ------------------


def scalar_invariants_loop(sys, stabs, wprime):
    """The per-point invariant checks of scalar_subgroups, as they were."""
    g = sys.group
    for x in range(sys.n_points):
        stab_sub = g.subgroup(list(stabs[x]))
        if not stab_sub.group.is_normal(
                [stab_sub.from_parent(w) for w in wprime[x]]):
            raise morita.MoritaError(f"W'_x is not normal in the stabilizer at x={x}")
        for w in g.elements():
            wx = int(sys.action[w, x])
            conj = sorted(g.product(w, u, g.inverse(w)) for u in wprime[x])
            if conj != sorted(wprime[wx]):
                raise morita.MoritaError(
                    f"w W'_x w^-1 != W'_(wx) at x={x}, w={w}")


def scalar_subgroups_loop(sys, tol=1e-8):
    """scalar_subgroups point by point and element by element, as it was:
    two subgroups per point and one multiplicity per irrep."""
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
    scalar_invariants_loop(sys, stabs, wprime)
    normalisation_ok = all(scalars[x] == wprime[x] for x in range(sys.n_points))
    by_point = []
    irreps_of = {}
    for x in range(sys.n_points):
        sub, i_rep = oracles.stabilizer_rep(sys, x)
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
    mask = np.zeros((sys.n_points, sys.group.order), dtype=bool)
    for x, elems in enumerate(wprime):
        mask[x, list(elems)] = True
    return morita.ScalarStructure(sys, tuple(stabs), tuple(scalars), tuple(values),
                                  tuple(wprime), mask, normalisation_ok, all(by_point),
                                  tuple(by_point))


def one_point(group_name, which):
    """One fixed point whose cocycle is an irrep of a builtin group, or the
    direct sum of all its irreps ("all")."""
    g = builtin_group(group_name)
    irreps = enumerate_irreps(g)
    picked = irreps if which == "all" else [irreps[which]]
    d = sum(rho.dim for rho in picked)
    mats = np.zeros((g.order, d, d), dtype=complex)
    at = 0
    for rho in picked:
        mats[:, at:at + rho.dim, at:at + rho.dim] = rho.matrices
        at += rho.dim
    return one_point_system(g, mats, name=f"{group_name}-{which}")


SCALAR = MORITA + ["z4-rotation", "Q8-all", "Q8-4", "D8-4", "S3-2", "Z4-1", "Z2xZ2-3"]


def scalar_system(label):
    if label == "z4-rotation":
        return z4_rotation_system()
    name, _, which = label.rpartition("-")
    if name in BUILTIN_GROUPS:
        return one_point(name, "all" if which == "all" else int(which))
    return morita_system(label)


@pytest.mark.parametrize("label", SCALAR)
def test_scalar_subgroups_match_the_point_loop(label):
    sys = scalar_system(label)
    for tol in (1e-8, 1e-3):
        fast, loop = morita.scalar_subgroups(sys, tol), scalar_subgroups_loop(sys, tol)
        for name in ("stabilizers", "scalar_elements", "wprime", "normalisation_ok",
                     "completeness_ok", "completeness_by_point"):
            assert getattr(fast, name) == getattr(loop, name), name
        assert np.array_equal(fast.wprime_mask, loop.wprime_mask)
        assert fast.wprime_mask.dtype == bool and not fast.wprime_mask.flags.writeable
        assert all(len(a) == len(b) and close(np.array(a), np.array(b), 1e-14)
                   for a, b in zip(fast.scalar_values, loop.scalar_values))


def planted_cocycle_system(group_name, mults, twist, second, seed):
    """(system, irreps at point 0): point 0 is fixed, with cocycle
    chi U ((+)_rho rho^(m_rho)) U* for a seeded unitary U and, when twist > 0,
    a nontrivial linear character chi.  second = "fixed" adds a fixed point
    with the untwisted sum in another seeded basis, "free" a free orbit with
    the trivial cocycle, anything else nothing."""
    g = builtin_group(group_name)
    irreps = enumerate_irreps(g)
    mults = list(mults[:len(irreps)])
    if not any(mults):
        mults[0] = 1
    d = sum(m * rho.dim for m, rho in zip(mults, irreps))
    rng = np.random.default_rng(seed)

    def planted():
        mats, at = np.zeros((g.order, d, d), dtype=complex), 0
        for m, rho in zip(mults, irreps):
            for _ in range(m):
                mats[:, at:at + rho.dim, at:at + rho.dim] = rho.matrices
                at += rho.dim
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        return u @ mats @ u.conj().T

    linear = [rho.matrices[:, 0, 0] for rho in irreps
              if rho.dim == 1 and np.abs(rho.matrices - 1.0).max() > 1e-8]
    chi = linear[(twist - 1) % len(linear)] if twist and linear else np.ones(g.order)
    points, action, cocycle = [0.0], [np.zeros(g.order, dtype=np.intp)], [
        chi[:, None, None] * planted()]
    if second == "fixed":
        points.append(1.0)
        action.append(np.ones(g.order, dtype=np.intp))
        cocycle.append(planted())
    elif second == "free":
        points += [2.0 + v for v in range(g.order)]
        action += [1 + g.mul[:, v] for v in range(g.order)]
        cocycle += [np.broadcast_to(np.eye(d), (g.order, d, d))] * g.order
    sys = EquivariantSystem(g, tuple(points), np.stack(action, axis=1), d,
                            np.stack(cocycle, axis=1), name=f"{group_name}-planted")
    return sys, [rho for m, rho in zip(mults, irreps) if m]


# A hundred examples, a second in all, reach every builtin group.
@settings(settings.get_profile("derandomized"), max_examples=100)
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.integers(0, 3), st.sampled_from(["none", "fixed", "free"]),
       st.integers(0, 2 ** 32 - 1))
def test_scalar_subgroups_match_the_irreps_oracle_on_planted_cocycles(
        group_name, mults, twist, second, seed):
    """Completeness as the rank of the trace Gram matrix agrees with the
    irreps-based loop, and every Gram eigenvalue is 0 or at least 1, so the
    cut at 1/2 has a margin of 1/2 on either side."""
    sys, occurring = planted_cocycle_system(group_name, mults, twist, second, seed)
    for tol in (1e-8, 1e-3):
        fast, loop = morita.scalar_subgroups(sys, tol), scalar_subgroups_loop(sys, tol)
        for name in ("stabilizers", "scalar_elements", "wprime", "normalisation_ok",
                     "completeness_ok", "completeness_by_point"):
            assert getattr(fast, name) == getattr(loop, name), name
        assert np.array_equal(fast.wprime_mask, loop.wprime_mask)
        assert fast.wprime_mask.dtype == bool and not fast.wprime_mask.flags.writeable
        assert all(len(a) == len(b) and close(np.array(a), np.array(b), 1e-12)
                   for a, b in zip(fast.scalar_values, loop.scalar_values))
    for x, stab in enumerate(fast.stabilizers):
        mats = sys.cocycle[list(stab), x]
        gram = np.einsum("uab,vab->uv", mats.conj(), mats)            # tr(I_u* I_v)
        eigs = np.linalg.eigvalsh(gram)
        assert np.all((eigs < 1e-8) | (eigs >= 1 - 1e-9)), eigs
        if x == 0:
            # Twisting by chi permutes the irreps and keeps their dims.
            assert (eigs > 0.5).sum() == sum(rho.dim ** 2 for rho in occurring)


# Multiplicities of at most one keep the fiber at d <= 6, so the
# whole-ambient kernel stays below 9 * 36 columns; a hundred examples take
# about a second.
@settings(settings.get_profile("derandomized"), max_examples=100)
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.lists(st.integers(0, 1), min_size=8, max_size=8),
       st.integers(0, 3), st.sampled_from(["none", "fixed", "free"]),
       st.integers(0, 2 ** 32 - 1))
def test_orbit_solvers_match_the_whole_ambient_oracles_on_planted_cocycles(
        group_name, mults, twist, second, seed):
    """The invariant functions span the whole-ambient kernel, orthonormally
    and one orbit at a time, so the table is zero outside orbit blocks; each
    spectrum entry's dimension, a character inner product, counts its
    equivariant maps; and J's point blocks have the Gram matrices of the
    averaged tensor's cut."""
    sys, _ = planted_cocycle_system(group_name, mults, twist, second, seed)
    assert_orbits_match_the_brute_force(sys)
    funcs = fixed_point_algebra(sys).functions
    rows = funcs.reshape(len(funcs), -1)
    assert close(rows @ rows.conj().T, np.eye(len(rows)))
    assert spans_equal(rows, invariant_functions_dense(sys), 1e-10)
    assert_orbit_blocked(sys, fixed_point_algebra(sys), funcs)
    desc = spectrum.classify_irreps(sys)
    assert desc.integrality_distance < 1e-9
    for x in sys.orbits.representatives:
        sub, i_rep = oracles.stabilizer_rep(sys, x)
        dims = {e.rho_label: e.dim for e in desc.entries if e.point == x}
        for rho in enumerate_irreps(sub.group):
            assert intertwiner_space(rho, i_rep).shape[0] == dims.get(rho.label, 0)
    eq = equivariant_function_module(sys)
    x_n, d = sys.n_points, sys.fiber_dim
    assert same_gram(morita._averaged_point_blocks(eq),
                     point_blocks(averaged_tensors(eq)[1], x_n, d))


# Multiplicities of at most one keep the fiber at d <= 6, where the
# fixed-point algebra's kernels are cheap; a hundred examples take about a
# second.
@settings(settings.get_profile("derandomized"), max_examples=100)
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.lists(st.integers(0, 1), min_size=8, max_size=8),
       st.integers(0, 3), st.sampled_from(["none", "fixed", "free"]),
       st.integers(0, 2 ** 32 - 1))
def test_labels_pair_with_blocks_on_planted_cocycles(group_name, mults, twist, second, seed):
    """Rounded P pairs each spectrum entry with one block of its own size,
    within rounding, and the pairing is the one the projections' traces
    give: entry (x, rho) takes the block p with tr(p(x) I_x(e_rho)) =
    dim rho dim(x, rho), read off the carried functions."""
    sys, _ = planted_cocycle_system(group_name, mults, twist, second, seed)
    for tol in (1e-8, 1e-6):
        verdict = spectrum.wedderburn_crosscheck(sys, tol=tol)
        assert verdict.ok and verdict.labels_paired, verdict.diff()
        assert verdict.label_distance < 1e-12
    fpa = fixed_point_algebra(sys)
    blocks = matalg.block_decompose(fpa).blocks
    for e in verdict.spectrum.entries:
        _, i_rep = oracles.stabilizer_rep(sys, e.point)
        # I_x(e_rho) / dim rho.
        weight = np.tensordot(e.character.conj(), i_rep.matrices, axes=1) / len(e.character)
        at = np.tensordot([b.projection for b in blocks], fpa.functions[:, e.point], axes=1)
        taken = np.abs(np.trace(at @ weight, axis1=1, axis2=2) - e.dim) < 1e-9
        assert [b.size for b, t in zip(blocks, taken) if t] == [e.dim], e.label


def planted_system(*args):
    return planted_cocycle_system(*args)[0]


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(st.one_of(
    st.sampled_from(FIBERWISE).map(fiberwise_system),
    st.builds(planted_system, st.sampled_from(sorted(BUILTIN_GROUPS)),
              st.lists(st.integers(0, 1), min_size=8, max_size=8), st.integers(0, 3),
              st.sampled_from(["none", "fixed", "free"]), st.integers(0, 2 ** 32 - 1))))
def test_least_point_algebra_is_the_carried_one(sys):
    """The fixed-point algebra read at its orbits' least points has the
    functions, bit for bit, and the block layout of the one carried over
    whole orbits (oracles.carried_fixed_point_algebra), and its tables,
    star tables and traces to 1e-14.  The oracle reads each least point's
    values carried by I_{e,x}, which a planted cocycle U U* misses 1 by up
    to 5e-15, so the bound grows by ten times that miss."""
    fpa, oracle = fixed_point_algebra(sys), oracles.carried_fixed_point_algebra(sys)
    assert np.array_equal(fpa.functions, oracle.functions)
    assert [st.index.tolist() for st in fpa.blocks] == [st.index.tolist() for st in oracle.blocks]
    bound = 1e-14 + 10 * np.abs(sys.cocycle[0] - np.eye(sys.fiber_dim)).max()
    for mine, theirs in ((table_of(fpa), table_of(oracle)), (star_of(fpa), star_of(oracle)),
                         (fpa.traces, oracle.traces)):
        assert np.abs(mine - theirs).max(initial=0.0) <= bound


@settings(settings.get_profile("derandomized"))
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.lists(st.integers(0, 2), min_size=8, max_size=8),
       st.integers(0, 3), st.sampled_from(["none", "fixed", "free"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_character_tables_of_planted_stabilizers_are_the_irreps(
        group_name, mults, twist, second, seed, table_seed):
    """Every reindexed stabilizer table of a planted system, at any seed of
    the central draw, has enumerate_irreps's labels and characters."""
    sys, _ = planted_cocycle_system(group_name, mults, twist, second, seed)
    for stab, _ in sys.orbits.by_stabilizer:
        assert_table_is_the_irreps(sys.group.subgroup(stab).group, table_seed)


@settings(settings.get_profile("derandomized"))
@given(st.sampled_from(["D8", "S4"]), st.lists(st.integers(0, 23), max_size=3))
def test_character_tables_of_subgroups_are_the_irreps(name, gens):
    g = dihedral(8) if name == "D8" else symmetric(4)
    assert_table_is_the_irreps(g.subgroup(g.generated_subgroup(
        [w % g.order for w in gens])).group)


@pytest.mark.parametrize("label", [f"z2-line-{n}" for n in range(1, 9)]
                         + ["dihedral-plane", "anticomplete-point"]
                         + [f"z2xz2-line-{n}" for n in (1, 2, 3)])
def test_j_blocks_from_the_base_module_are_the_averaged_modules(label):
    """The witness regime reads J's blocks off the base module too; they
    have the Gram matrices of the averaged module's inner values cut by
    point, and so their singular values and right singular vectors."""
    sys = morita_system(label)
    eq = equivariant_function_module(sys)
    averaged = green_julg_module(eq)[0]
    blocks = morita._averaged_point_blocks(eq)
    assert blocks.shape == (sys.n_points, eq.group.order * sys.fiber_dim ** 2, eq.group.order)
    assert same_gram(blocks, point_blocks(tensors(averaged)[1], sys.n_points, sys.fiber_dim))


def same_gram(blocks, dense) -> bool:
    """Do the stacks of blocks (..., r, c) and (..., r', c) have the same
    Gram matrices B* B, to rounding?  The point blocks keep only the rows
    of the e_q on the point's orbit, each once, and zero rows, where the
    dense cut keeps all m."""
    def gram(b):
        return b.conj().swapaxes(-1, -2) @ b

    return close(gram(blocks), gram(dense), 1e-12)


def relabelled(sys, perm):
    """sys with point x renamed perm[x]: action and cocycle read through the
    permutation, the same system on other labels."""
    inv = np.argsort(perm)
    return EquivariantSystem(sys.group, tuple(sys.points[x] for x in inv),
                             perm[sys.action[:, inv]], sys.fiber_dim, sys.cocycle[:, inv],
                             name=sys.name)


RELABELLED = (["z2-line", "dihedral-plane", "anticomplete-point", "z2xz2-line-1",
               "z2xz2-line-2"] + [f"z2-line-{n}" for n in range(1, 7)]
              + ["dihedral-grid-1", "dihedral-grid-2"])


@functools.cache
def labelled_verdicts(label):
    """(system, wedderburn_crosscheck, verify_morita_theorem) on the
    system's own labels."""
    sys = bundled(label) if label == "z2-line" else morita_system(label)
    return sys, spectrum.wedderburn_crosscheck(sys), verify_morita_theorem(sys)


@settings(settings.get_profile("derandomized"))
@given(st.sampled_from(RELABELLED), st.integers(0, 2 ** 32 - 1))
def test_verdicts_do_not_depend_on_how_the_points_are_labelled(label, seed):
    """A permutation of X moves the orbits, stabilizers and gaps with it
    and changes no dimension, block count or verdict."""
    sys, spec, thm = labelled_verdicts(label)
    perm = np.random.default_rng(seed).permutation(sys.n_points)
    moved = relabelled(sys, perm)
    assert_orbits_match_the_brute_force(moved)
    spec_moved = spectrum.wedderburn_crosscheck(moved)
    assert (spec_moved.ok, spec_moved.spectrum_dims, spec_moved.block_sizes) == (
        spec.ok, spec.spectrum_dims, spec.block_sizes)
    thm_moved = verify_morita_theorem(moved)
    assert (thm_moved.ok, thm_moved.j_dim, thm_moved.c_dim, thm_moved.fpa_blocks,
            thm_moved.c_blocks) == (thm.ok, thm.j_dim, thm.c_dim, thm.fpa_blocks, thm.c_blocks)
    assert thm_moved.gaps == tuple(sorted((int(perm[x]), j, c) for x, j, c in thm.gaps))


@pytest.mark.parametrize("label", ["dihedral-plane", "z4-rotation", "z2xz2-line-2", "Q8-all"])
def test_scalar_invariants_name_the_first_failure_of_the_loop(label):
    sys = scalar_system(label)
    scalar = morita.scalar_subgroups(sys)
    stab = sys.action == np.arange(sys.n_points)
    rng = np.random.default_rng(0)
    messages = set()
    for trial in range(60):
        # Toggle a few stabilizer elements in or out of some W'_x.
        wp = np.zeros_like(stab)
        for x, elems in enumerate(scalar.wprime):
            wp[list(elems), x] = True
        flips = rng.random(stab.shape) < (0.02 if trial % 2 else 0.2)
        wp ^= flips & stab
        wprime = [tuple(int(w) for w in np.flatnonzero(wp[:, x])) for x in range(sys.n_points)]
        stabs = [tuple(int(w) for w in np.flatnonzero(stab[:, x])) for x in range(sys.n_points)]
        try:
            scalar_invariants_loop(sys, stabs, wprime)
            expected = None
        except morita.MoritaError as exc:
            expected = str(exc)
        try:
            morita._check_scalar_invariants(sys.group, sys.action, stab, wp)
            found = None
        except morita.MoritaError as exc:
            found = str(exc)
        assert found == expected
        messages.add(expected.split(" at ")[0] if expected else None)
    # Both messages and a pass occur among the trials; with one point every
    # failure is at a w that fixes it, so Q8's is always "not normal".
    assert len(messages) == (2 if label == "Q8-all" else 3)


def splitting_failures_loop(sys, scalar, wprime):
    """(x, message) at each point where W'_x != W_x n W', in the per-point
    loop that morita._check_splitting replaced."""
    wp_set = set(int(e) for e in wprime)
    out = []
    for x in range(sys.n_points):
        expected = sorted(set(scalar.stabilizers[x]) & wp_set)
        if sorted(scalar.wprime[x]) != expected:
            out.append((x, f"W'_x != W_x n W' at point index {x}: "
                           f"{sorted(scalar.wprime[x])} vs {expected}"))
    return out


@pytest.mark.parametrize("label", ["dihedral-plane", "z4-rotation", "z2xz2-line-2"])
def test_splitting_check_names_the_first_failure_of_the_loop(label):
    sys = scalar_system(label)
    scalar = morita.scalar_subgroups(sys)
    g = sys.group
    stab = sys.orbits.fixes
    subgroups = sorted({tuple(g.generated_subgroup([a])) for a in g.elements()})
    rng = np.random.default_rng(1)
    several = 0
    for wprime in subgroups:
        for trial in range(6):
            # Toggle a few stabilizer elements in or out of some W'_x.
            wp = scalar.wprime_mask.T ^ ((rng.random(stab.shape) < 0.1 * trial) & stab)
            moved = dataclasses.replace(scalar, wprime_mask=wp.T, wprime=tuple(
                tuple(np.flatnonzero(wp[:, x]).tolist()) for x in range(sys.n_points)))
            failures = splitting_failures_loop(sys, moved, wprime)
            try:
                morita._check_splitting(sys, moved, wprime)
                found = None
            except morita.SplittingError as exc:
                found = (exc.point, str(exc))
            assert found == (failures[0] if failures else None)
            several += len(failures) > 1
    assert several


def test_reduction_runs_no_dense_product_pass(monkeypatch):
    # Rebased onto a proper C, the witness modules are over cp.algebra's
    # table restricted to C's rows, and C(X/W') is diagonal: no algebra of
    # the chain multiplies its basis pairwise.
    dense = dense_pass_spy(monkeypatch)
    report = morita.semidirect_reduction(z2xz2_line_system(2), [0, 2], [0, 1])
    assert dense == []
    assert report.ok and report.splitting_ok and report.iso_bijective
    assert report.ideal_transport_ok
    assert (report.fpa_block_count, report.final_block_count, report.final_dim) == (4, 4, 10)
    for thm, dims in ((report.theorem, (10, 10, 4, 10)), (report.wprime_theorem, (5, 5, 5, 20))):
        assert thm.ok and thm.conditions_hold and thm.spans_match and not thm.strict_inclusion
        assert (thm.j_dim, thm.c_dim, thm.c_blocks, thm.fpa.dim) == dims
        assert thm.c_dim < thm.ideal.cp.dim == thm.module.algebra.ambient_dim
        assert thm.witness.ok and thm.j_in_c_residual < 1e-14


@pytest.mark.parametrize("label", ["z2xz2-line-1", "z2xz2-line-2", "flip-3", "flip-5"])
def test_restricted_table_matches_the_dense_pass(label):
    cid = c_ideal(morita_system(label))
    assert cid.dim < cid.cp.dim
    alg = cid.algebra
    plain, dense = embedded_ideal(cid)
    assert_same_tables(alg, plain)
    assert alg.closure_residual() < 1e-13 and plain.closure_residual() < 1e-13
    alg.validate()
    assert close(plain.element(alg.unit()), plain.element(MatrixSpan(plain.basis).algebra.unit()))
    # Rows that are not a subalgebra: the residual is the dense one.
    rows = orthonormal_rows(cid.rows[:1] + dense.coefficients(
        np.eye(dense.ambient_dim))[None] * 0.5)
    bad = matalg.restricted_algebra(cid.cp.algebra, rows)
    twin = Dense(dense.element(rows))
    residual = twin.product_residual()
    assert close(table_of(bad), twin.structure)
    assert abs(bad.product_residual - residual) < 1e-12 and residual > 1e-3
    with pytest.raises(AlgebraError, match="not closed"):
        bad.validate()


def quotient_indicators(sys):
    """C(X/W) from the orbit indicators: (table, orbits, indicators), the
    table <b_l, b_i b_j> of the normalised indicators b_o = 1_O / sqrt|O|,
    b_o b_o = b_o / sqrt|O|."""
    n = sys.n_points
    orbits = orbits_brute_force(sys)["members"]
    indicators = np.zeros((len(orbits), n), dtype=complex)
    table = np.zeros((len(orbits),) * 3, dtype=complex)
    for i, orb in enumerate(orbits):
        indicators[i, list(orb)] = 1.0 / np.sqrt(len(orb))
        table[i, i, i] = 1.0 / np.sqrt(len(orb))
    return table, orbits, indicators


def orbit_algebra(sys):
    """C(X/W) written down from the sizes of sys's orbits."""
    return systems.scalar_algebra([len(o) for o in sys.orbits.members])


@pytest.mark.parametrize("label", ["z2xz2-line-1", "z2xz2-line-2", "z2xz2-line-3", "z2-line-4",
                                   "dihedral-plane", "flip-5"])
@pytest.mark.parametrize("restrict", [False, True])
def test_written_orbit_algebra_is_the_solved_one(label, restrict):
    """C(X/W) written down from the orbit sizes (scalar_algebra) has the
    tables, to 1e-15, of the fixed-point algebra of the trivial scalar
    cocycle solved over whole orbits (oracles.solved_orbit_algebra), on
    the whole group and on a subgroup; the solved functions are the
    normalised orbit indicators exactly."""
    sys = morita_system(label)
    if restrict:
        sys = systems.restrict_system(sys, {2: [0], 4: [0, 2], 8: [0, 1, 2, 3]}[
            sys.group.order])[0]
    solved, written = oracles.solved_orbit_algebra(sys), orbit_algebra(sys)
    table, orbits, indicators = quotient_indicators(sys)
    assert sys.orbits.members == orbits and written.dim == len(orbits)
    assert np.array_equal(solved.functions[:, :, 0, 0], indicators)
    assert written.ambient_dim == solved.ambient_dim == sys.n_points
    assert close(table_of(written), table, 1e-15)
    for mine, theirs in ((table_of(written), table_of(solved)),
                         (star_of(written), star_of(solved)), (written.traces, solved.traces)):
        assert np.abs(mine - theirs).max() <= 1e-15


def test_written_orbit_algebra_matches_the_dense_pass():
    for sys in (flip_system(5), systems.restrict_system(z2xz2_line_system(2), [0, 2])[0]):
        indicators = quotient_indicators(sys)[2]
        q = orbit_algebra(sys)
        assert_same_tables(q, Dense(embedded(indicators[:, :, None, None])))
        assert q.closure_residual() == 0.0


# -- the compacts cut one carrier component at a time against the whole stack --


def compacts_dense(action, coefficients, tol=1e-8):
    """(rows, margin, values) of the dense SVD of the whole (m^2, m^2) stack
    of rank-one maps, margin sigma_r / sigma_(r+1) as the component cut
    reports it."""
    m = action.shape[-1]
    _, s, vh = np.linalg.svd(hilbmod._rank_one_maps(action, coefficients).reshape(m * m, m * m))
    rank = int(np.sum(s > tol * max(s[0], 1.0)))
    dropped = s[rank] if rank < s.size else 0.0
    return vh[:rank], np.inf if rank == 0 or dropped == 0.0 else s[rank - 1] / dropped, s


def averaged_pair(eq):
    """(averaged module, its action, its coefficients against the b_i w):
    the maps gamma_{w^-1} R_{b_i} and sum_j gamma_w[j, q] <e_p|e_j>, exact
    where the data are.  The averaged components the Green-Julg check
    cuts, against b_i w / sqrt|W|, must give the same rank-one maps."""
    w_n, m = eq.group.order, eq.base.carrier_dim
    k = eq.base.algebra.dim
    action, inner, gamma = *tensors(eq.base), dense_gamma(eq)
    maps = (gamma[eq.group.inv][:, None] @ action[None]).reshape(w_n * k, m, m)
    by_column = gamma.transpose(2, 0, 1).reshape(m * w_n, m)            # [(q, w), j]
    coefficients = (by_column @ inner).reshape(m, m, w_n * k)
    averaged = green_julg_module(eq)[0]
    exact = hilbmod._rank_one_maps(maps, coefficients)
    assert close(hilbmod._rank_one_maps(*tensors(averaged)), exact, 1e-15)
    return averaged, maps, coefficients


def component_case(label):
    """(action, coefficients, number of carrier components, the module
    whose builder states them or None) of a module."""
    kind, _, name = label.partition(":")
    if kind == "function":
        sys = bundled(name) if name in ("z2-line", "dihedral-plane", "anticomplete-point") \
            else bundled("two-component")[int(name[-1]) - 1][0]
        e = function_module(sys)
        return (*tensors(e), sys.n_points, e)
    if kind == "averaged":
        sys = z2_line_system(int(name))
        # The orbits of Z/2 on {-n..n}: n pairs {x, -x} and the origin.
        e, maps, coefficients = averaged_pair(equivariant_function_module(sys))
        return maps, coefficients, int(name) + 1, e
    if kind == "witness":
        e = verify_morita_theorem(z2_line_system(int(name))).module
        return (*tensors(e), int(name) + 1, e)
    if kind == "quotient":
        # One component per W'-orbit that holds an invariant vector.
        sys, wprime, r = splitting_case(name)
        eq, u_rows = quotient_module(sys, wprime, r)
        least = systems.restrict_system(sys, wprime)[0].orbits.least
        support = np.abs(u_rows.reshape(len(u_rows), sys.n_points, -1)).max(axis=2) > 0
        return (*tensors(eq.base), len(set(least[support.argmax(axis=1)])), eq.base)
    if kind == "pattern":
        # Three maps, each with one nonzero entry that only one kind of link
        # puts in a component: |e_0><e_0| at (1, 0) by the action's 0-1,
        # |e_2><e_2| at (2, 3) by the coefficients' 2-3, and |e_2><e_4| at
        # (2, 4) by the element k = 1 shared by carriers 2 and 4.
        action = np.zeros((2, 5, 5), dtype=complex)
        coefficients = np.zeros((5, 5, 2), dtype=complex)
        action[0, 1, 0] = action[1, 2, 2] = 1.0
        coefficients[0, 0, 0] = coefficients[2, 3, 1] = coefficients[4, 4, 1] = 1.0
        return action, coefficients, 2, None
    if kind == "standard":
        # M_2 over itself: one component, cut as one block.
        e = standard_module(algebra_from_span(np.eye(4, dtype=complex).reshape(4, 2, 2)).algebra)
        return (*tensors(e), 1, e)
    if kind == "orbit":
        # A Z/8 orbit of 8 points and a fixed point, fiber 2: blocks of 16
        # and 2 carriers.
        e, maps, coefficients = averaged_pair(equivariant_function_module(z8_orbit_system(2)))
        return maps, coefficients, 2, e

    def scaled(e, c):
        action, inner = tensors(e)
        return dense_module(e.algebra, action, c * inner)

    if kind == "graded-sum":
        # Values 1e6, 1 and 1e-3: the cut keeps 1e6 and 1, so the margin is
        # the least kept value over the largest dropped one, 1 / 1e-3.
        e = direct_sum_module(direct_sum_module(scaled(free_module(1), 1e6), free_module(1)),
                              scaled(free_module(2), 1e-3))
        return (*tensors(e), 3, e)
    first, second = free_module(2), free_module(3)
    if kind == "scaled-sum":
        # Values of size 1e6 and 1e-3: the whole stack's scale, 1e-8 * 1e6,
        # drops every map of the second summand, which its own would keep.
        first, second = scaled(first, 1e6), scaled(second, 1e-3)
    e = direct_sum_module(first, second)
    return (*tensors(e), 2, e)


def z8_orbit_system(d):
    """Z/8 turning 8 points and fixing a ninth, identity cocycle of size d."""
    action = np.array([[(x + w) % 8 for x in range(8)] + [8] for w in range(8)])
    return EquivariantSystem(builtin_group("Z8"), tuple(range(9)), action, d,
                             np.tile(np.eye(d, dtype=complex), (8, 9, 1, 1)))


COMPONENT_CASES = ([f"function:{name}" for name in
                    ("z2-line", "dihedral-plane", "anticomplete-point", "two-1", "two-2")]
                   + [f"averaged:{n}" for n in range(1, 5)]
                   + ["witness:3", "quotient:z2xz2-line-2", "quotient:s3-translation",
                      "direct-sum", "scaled-sum", "graded-sum", "pattern", "standard", "orbit"])


@pytest.mark.parametrize("label", COMPONENT_CASES)
def test_component_cut_matches_the_whole_stack(label):
    action, coefficients, n_parts, e = component_case(label)
    m = action.shape[-1]
    parts = carrier_components(action, coefficients)
    assert len(parts) == n_parts
    assert sorted(np.concatenate(parts)) == list(range(m))
    if e is not None:
        # The components the builder states are the oracle's.
        assert sorted(map(list, parts)) == sorted(c for st in e.parts for c in st.carrier.tolist())
    rows, margin, pairs = hilbmod._compact_rows(components_of(action, coefficients), m, 1e-8)
    if e is not None:
        assert np.array_equal(pairs, e.pairs)
    whole = np.zeros((rows.shape[0], m * m), dtype=complex)
    whole[:, pairs] = rows
    dense, dense_margin, values = compacts_dense(action, coefficients)
    assert rows.shape[0] == dense.shape[0] > 0
    assert spans_equal(whole, dense, 1e-8)
    # The margins are compared only where the first dropped value stands
    # above rounding, which only the scaled sums' 1e-3 summands do; below it
    # both margins are sigma_r over noise, and must both be large.
    dropped = values[rows.shape[0]] if rows.shape[0] < values.size else 0.0
    if dropped > 1e-12 * max(values[0], 1.0):
        assert label in ("scaled-sum", "graded-sum")
        assert margin == pytest.approx(dense_margin, rel=1e-10)
    else:
        assert label not in ("scaled-sum", "graded-sum")
        assert margin > 1e12 and dense_margin > 1e12
    assert np.abs(rows @ rows.conj().T - np.eye(rows.shape[0])).max() < 1e-12
    # Every compact vanishes off the blocks S x S, which are the pairs.
    on = np.zeros((m, m), dtype=bool)
    for part in parts:
        on[np.ix_(part, part)] = True
    assert np.array_equal(np.flatnonzero(on), pairs)


def test_pairs_from_two_components_give_zero_maps():
    e = direct_sum_module(free_module(2), free_module(3))
    maps = hilbmod._rank_one_maps(*tensors(e))
    # |e_i><e_j| with i in the first summand and j in the second is zero.
    assert not maps[:2, 2:].any() and not maps[2:, :2].any()
    assert maps[:2, :2].any() and maps[2:, 2:].any()
    assert [list(p) for p in carrier_components(*tensors(e))] == [[0, 1], [2, 3, 4]]
    assert [st.carrier.tolist() for st in e.parts] == [[[0, 1]], [[2, 3, 4]]]


def test_morita_theorem_forms_no_m4_array(monkeypatch):
    sys = z2_line_system(8)
    m = sys.n_points * sys.fiber_dim
    sizes = []
    maps, svd = hilbmod._rank_one_maps, np.linalg.svd

    def maps_spy(*args):
        out = maps(*args)
        sizes.append(("maps", out.size))
        return out

    def svd_spy(a, *args, **kwargs):
        sizes.append(("svd", np.size(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(hilbmod, "_rank_one_maps", maps_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    assert verify_morita_theorem(sys).ok
    assert {kind for kind, _ in sizes} == {"maps", "svd"}
    assert max(size for _, size in sizes) < m ** 4


# -- the reduction chain as index maps, against the loops it replaced ----------


def s3_translation():
    """S3 acting on itself by left translation: free, scalar trivial cocycle."""
    g = symmetric(3)
    return EquivariantSystem(g, tuple(float(x) for x in range(6)),
                             np.asarray(g.mul, dtype=np.intp), 1,
                             np.ones((6, 6, 1, 1), dtype=complex), name="s3-translation")


def s3_splitting():
    g = symmetric(3)
    rotations = [w for w in g.elements() if g.product(w, w, w) == 0]
    return rotations, [0, min(set(g.elements()) - set(rotations))]


def s4_points():
    """S4 permuting four points, with the splitting V4 >| S3, S3 the
    permutations that fix the last point: R has elements of order 3."""
    g = symmetric(4)
    perms = sorted(itertools.permutations(range(4)))   # symmetric's element order
    sys = EquivariantSystem(g, (0.0, 1.0, 2.0, 3.0), np.array(perms, dtype=np.intp), 1,
                            np.ones((24, 4, 1, 1), dtype=complex), name="s4-points")
    klein = [i for i, p in enumerate(perms) if all(p[p[x]] == x != p[x] for x in range(4))]
    return sys, [0] + klein, [i for i, p in enumerate(perms) if p[3] == 3]


def splitting_case(label):
    """(system, W', R) for a splitting W = W' >| R of the system's group."""
    if label == "s3-translation":
        return (s3_translation(), *s3_splitting())
    if label == "s4-points":
        return s4_points()
    kind, _, n = label.rpartition("-")
    if kind == "z2xz2-line":
        return z2xz2_line_system(int(n)), [0, 2], [0, 1]
    if kind == "flip-free":
        return flip_system(int(n)), [0], [0, 1]
    return flip_system(int(n)), [0, 1], [0]


SPLITTINGS = ["z2xz2-line-1", "z2xz2-line-2", "z2xz2-line-3", "s3-translation",
              "flip-3", "flip-4", "flip-5", "flip-free-4", "s4-points"]
REDUCTIONS = [label for label in SPLITTINGS if label not in ("flip-free-4", "s4-points")]


def phi_iso_loop(sys, f):
    """phi_iso's map, f (|W|, |X|) against a_(w,x) = delta_x w / sqrt|W|, as
    the loop over (w, v, x)."""
    g = sys.group
    w_n, x_n = g.order, sys.n_points
    func = np.zeros((x_n, w_n, w_n), dtype=complex)
    for w in range(w_n):
        for v in range(w_n):
            vp = g.mul[v, g.inv[w]]  # row index v w^-1
            for x in range(x_n):
                # f(w v^-1 x)
                src = sys.action[g.mul[w, g.inv[v]], x]
                func[x, vp, v] += f[w, src] / np.sqrt(w_n)
    return func


def outer_loops(action, normal, complement):
    """(multiply, star, phi) of (B >| U) >| V on single arrays (|V|, |U|,
    dim B) against a_(u,i) v / sqrt|V|, as the per-slot loops of the
    iterated crossed product."""
    g = action.group
    u_sub = g.subgroup(sorted(set(int(e) for e in normal)))
    v_sub = g.subgroup(sorted(set(int(e) for e in complement)))
    k = action.algebra.dim
    u_n, v_n = u_sub.group.order, v_sub.group.order
    maps = dense_maps(action)
    inner_maps = np.stack([maps[u_sub.to_parent(u)] for u in range(u_n)])
    inner = dense_crossed_product(DenseAction(u_sub.group, action.algebra, inner_maps)).algebra

    def inner_mult(a, b):
        return inner.multiply(a.reshape(-1), b.reshape(-1)).reshape(u_n, k)

    def inner_star(a):
        return inner.adjoint(a.reshape(-1)).reshape(u_n, k)

    def outer_apply(v, f):
        vp = v_sub.to_parent(v)
        out = np.zeros_like(f)
        for u in range(u_n):
            conj = u_sub.from_parent(g.product(vp, u_sub.to_parent(u), g.inverse(vp)))
            out[conj] += maps[vp] @ f[u]
        return out

    def outer_mult(fa, fb):
        out = np.zeros_like(fa)
        for v1 in range(v_n):
            for v2 in range(v_n):
                prod = inner_mult(fa[v1], outer_apply(v1, fb[v2]))
                out[v_sub.group.mul[v1, v2]] += prod / np.sqrt(v_n)
        return out

    def outer_star(fa):
        out = np.zeros_like(fa)
        for v in range(v_n):
            vi = v_sub.group.inv[v]
            out[vi] += outer_apply(vi, inner_star(fa[v]))
        return out

    def phi(fa):
        out = np.zeros((g.order, k), dtype=complex)
        for v in range(v_n):
            for u in range(u_n):
                out[g.product(u_sub.to_parent(u), v_sub.to_parent(v))] += fa[v, u]
        return out

    return outer_mult, outer_star, phi


def outer_product_of(action, normal, complement):
    """((B >| U) >| V, the slot map w_of) as the reduction builds them, or
    through the dense oracle for a DenseAction."""
    g = action.group
    u_sub, v_sub = g.subgroup(normal), g.subgroup(complement)
    u_emb = np.array(u_sub.embedding)
    if isinstance(action, DenseAction):
        inner = dense_crossed_product(DenseAction(u_sub.group, action.algebra,
                                                  action.maps[u_emb]))
        alpha, w_of = oracles.dense_outer_action(action, inner, u_emb, v_sub)
        return dense_crossed_product(alpha), w_of
    inner = crossed_product(AlgebraAction(u_sub.group, action.algebra, action.perm[u_emb]))
    alpha, w_of = systems._outer_action(action, inner, u_emb, v_sub)
    return crossed_product(alpha), w_of


def iso_residuals_loop(rng, shape, mult_pair, star_pair):
    """The witnesses' eight-sample loop: (multiplicative, star) residuals."""
    res = [0.0, 0.0]
    for _ in range(8):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for i, (lhs, rhs) in enumerate((mult_pair(f, h), star_pair(f))):
            res[i] = max(res[i], float(np.abs(lhs - rhs).max())
                         / max(1.0, float(np.abs(rhs).max())))
    return tuple(res)


@pytest.mark.parametrize("label", ["flip-3", "flip-4", "flip-5", "s3-translation",
                                   "z4-rotation"])
def test_phi_iso_matches_the_point_loop(label):
    sys = z4_rotation_system() if label == "z4-rotation" else splitting_case(label)[0]
    witness, cp, target, phi = systems.phi_iso(sys)
    w_n, x_n = sys.group.order, sys.n_points
    rng = np.random.default_rng(3)
    f = rng.standard_normal((2, w_n, x_n)) + 1j * rng.standard_normal((2, w_n, x_n))
    # One call maps a stack of coordinates; each image is the loop's.
    assert np.array_equal(phi(f.reshape(2, -1)), np.stack([phi_iso_loop(sys, fi) for fi in f]))
    # The samples are drawn as the loop draws them: f, then h, real first.
    draws = systems._iso_samples(np.random.default_rng(0), (w_n, x_n))
    rng = np.random.default_rng(0)
    loop = [[rng.standard_normal((w_n, x_n)) + 1j * rng.standard_normal((w_n, x_n))
             for _ in range(2)] for _ in range(8)]
    assert np.array_equal(np.stack(draws, axis=1), np.array(loop))
    alg, shape = cp.algebra, (w_n, x_n)
    mult, star = iso_residuals_loop(
        np.random.default_rng(0), shape,
        lambda a, b: (phi_iso_loop(sys, alg.multiply(a.ravel(), b.ravel()).reshape(shape)),
                      phi_iso_loop(sys, a) @ phi_iso_loop(sys, b)),
        lambda a: (phi_iso_loop(sys, alg.adjoint(a.ravel()).reshape(shape)),
                   phi_iso_loop(sys, a).conj().swapaxes(-1, -2)))
    assert witness.ok and witness.source_dim == w_n * x_n == target.dim
    assert abs(witness.multiplicative_residual - mult) < 1e-14
    assert abs(witness.star_residual - star) < 1e-14


@pytest.mark.parametrize("label", SPLITTINGS)
@pytest.mark.parametrize("which", ["functions", "scalars"])
def test_outer_crossed_product_matches_the_slot_loops(label, which):
    sys, normal, complement = splitting_case(label)
    action = (function_algebra_action(sys) if which == "functions"
              else scalar_translation_action(sys))
    outer, w_of = outer_product_of(action, normal, complement)
    mult, star, phi = outer_loops(action, normal, complement)
    shape = w_of.shape + (action.algebra.dim,)
    rng = np.random.default_rng(7)
    fa, fb = (rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
              for _ in range(2))
    flat_a, flat_b = fa.reshape(3, -1), fb.reshape(3, -1)
    for new, old in ((outer.algebra.multiply(flat_a, flat_b), [mult(a, b) for a, b in zip(fa, fb)]),
                     (outer.algebra.adjoint(flat_a), [star(a) for a in fa]),
                     (systems._slot_image(w_of, flat_a), [phi(a) for a in fa])):
        assert np.abs(new - np.stack(old).reshape(new.shape)).max() < 1e-13
    whole_cp = cross(action)
    whole = whole_cp.algebra

    def whole_mult(a, b):
        return whole.multiply(a.ravel(), b.ravel()).reshape(a.shape)

    # A dense action's witness is the one iterated_crossed_iso draws, from
    # the oracle's crossed products.
    witness = (systems._iterated_crossed_iso(whole_cp, outer, w_of, np.random.default_rng(0))
               if isinstance(action, DenseAction)
               else systems.iterated_crossed_iso(action, normal, complement))
    res = iso_residuals_loop(np.random.default_rng(0), shape,
                             lambda a, b: (phi(mult(a, b)), whole_mult(phi(a), phi(b))),
                             lambda a: (phi(star(a)), whole.adjoint(phi(a).ravel()).reshape(
                                 phi(a).shape)))
    assert witness.ok and witness.bijective
    assert (witness.source_dim, witness.target_dim) == (np.prod(shape), whole.dim)
    assert np.abs(np.array([witness.multiplicative_residual, witness.star_residual])
                  - res).max() < 1e-14


def transported_rows_loop(g, u_sub, v_sub, coeff_rows, x_n):
    """Link 2's images phi(h v), one (v, h, u) at a time."""
    u_n, v_n = u_sub.group.order, v_sub.group.order
    imgs = []
    for v in range(v_n):
        vp = v_sub.to_parent(v)
        for h in coeff_rows:
            hm = h.reshape(u_n, x_n)
            out = np.zeros((g.order, x_n), dtype=complex)
            for u in range(u_n):
                out[g.mul[u_sub.to_parent(u), vp]] += hm[u]
            imgs.append(out.reshape(-1))
    return np.stack(imgs)


def quotient_module_loops(sys, wprime, r, u_rows):
    """(action, gamma, maps) of the quotient module, per orbit and per r."""
    g = sys.group
    sys_p, _ = systems.restrict_system(sys, wprime)
    v_sub = g.subgroup(sorted(set(int(e) for e in r)))
    orbits = orbits_brute_force(sys_p)["members"]
    gamma_w = dense_gamma(equivariant_function_module(sys))
    k, d, x_n = u_rows.shape[0], sys.fiber_dim, sys.n_points
    action = np.zeros((len(orbits), k, k), dtype=complex)
    for o, orb in enumerate(orbits):
        diag = np.zeros(x_n * d)
        for x in orb:
            diag[x * d:(x + 1) * d] = 1.0 / np.sqrt(len(orb))
        action[o] = u_rows.conj() @ (diag[:, None] * u_rows.T)
    v_n = v_sub.group.order
    gamma = np.zeros((v_n, k, k), dtype=complex)
    maps = np.zeros((v_n, len(orbits), len(orbits)), dtype=complex)
    orbit_of = {}
    for o, orb in enumerate(orbits):
        for x in orb:
            orbit_of[x] = o
    for v in range(v_n):
        vp = v_sub.to_parent(v)
        gamma[v] = u_rows.conj() @ gamma_w[vp] @ u_rows.T
        for o, orb in enumerate(orbits):
            maps[v, orbit_of[int(sys.action[vp, orb[0]])], o] = 1.0
    return action, gamma, maps


@pytest.mark.parametrize("label", REDUCTIONS)
def test_reduction_links_match_the_loops(label):
    sys, wprime, r = splitting_case(label)
    g = sys.group
    sys_p, u_sub = systems.restrict_system(sys, wprime)
    v_sub = g.subgroup(r)
    cid = c_ideal(sys_p)
    w_of = outer_product_of(scalar_translation_action(sys), wprime, r)[1]
    # Each image keeps its row's point: grouped by point, the loop's images
    # are the nonzero rows of the per-point transport, in order (v, h).
    images = morita._transported_points(w_of, cid.by_point)
    loop = oracles.grouped_rows(
        transported_rows_loop(g, u_sub, v_sub, cid.rows, sys.n_points), sys.n_points)
    for x in range(sys.n_points):
        mine = images[x][images[x].any(axis=1)]
        assert len(mine) == v_sub.group.order * cid.ranks[x]
        assert np.array_equal(mine, loop[x, :len(mine)]) and not loop[x, len(mine):].any()
    eq, u_rows = quotient_module(sys, wprime, r)
    action, gamma, maps = quotient_module_loops(sys, wprime, r, u_rows)
    assert close(tensors(eq.base)[0], action) and close(dense_gamma(eq), gamma)
    assert np.array_equal(dense_maps(eq.beta), maps)
    eq.validate()
    # Link 4's left action is the compression u* f u of the embedded
    # fixed-point functions, read at the averaged module's carrier pairs.
    report, gj_q, left = morita._semidirect_reduction(sys, wprime, r, 0, 1e-8)
    assert report.ok
    compressed = u_rows.conj() @ fpa_basis(report.theorem.fpa) @ u_rows.T
    assert close(left, pair_rows(gj_q, np.where(np.abs(compressed) > 1e-13, compressed, 0.0)))


def test_reduction_builds_each_crossed_product_once(monkeypatch):
    # The theorem's C(X) >| W is the whole of link 2, the restricted
    # theorem's C(X) >| W' its inner factor, link 2 builds (C(X) >| W') >| R
    # on it, and link 4 builds C(X/W') >| R, crossing unchecked the action
    # that the quotient module's check validated.
    built = counting_spy(monkeypatch, [systems, morita, hilbmod], "crossed_product")
    crossed = counting_spy(monkeypatch, [morita], "CrossedProduct")
    split = counting_spy(monkeypatch, [groups, systems, morita], "semidirect_decomposition")
    restricted = counting_spy(monkeypatch, [systems, morita], "restrict_system")
    report = morita.semidirect_reduction(z2xz2_line_system(2), [0, 2], [0, 1])
    assert report.ok and report.iso_bijective and report.ideal_transport_ok
    assert (len(built), len(crossed), len(split), len(restricted)) == (3, 1, 1, 1)
    built += crossed
    assert [action.group.order for action in built] == [4, 2, 2, 2]
    assert built[2].algebra.dim == 2 * built[1].algebra.dim


# -- EquivariantModule.validate on all samples at once, against its loop -------


def equivariant_validate_loop(eq, tol=1e-8, rng=None):
    """EquivariantModule.validate, one (w, sample) at a time."""
    eq.base.validate(tol, rng)
    eq.beta.validate(tol)
    g = eq.group
    m = eq.base.carrier_dim
    gamma = dense_gamma(eq)
    if np.linalg.norm(gamma[0] - np.eye(m)) > tol * max(m, 1):
        raise ModuleError("gamma at the identity is not the identity")
    hom = linalg.homomorphism_defect(gamma, g.mul)
    if np.linalg.norm(hom, axis=(-2, -1)).max() > tol * max(m, 1):
        raise ModuleError("gamma is not a group homomorphism")
    rng = rng or np.random.default_rng(1)
    alg = dense_of(eq.base.algebra)

    def beta(w, b):
        return alg.element(dense_maps(eq.beta)[w] @ alg.coefficients(b))

    def inner_product(x, y):
        return alg.element(eq.base.inner_product(x, y))

    for w in g.elements():
        for _ in range(4):
            xi = eq.base.random_vector(rng)
            eta = eq.base.random_vector(rng)
            b = alg.element(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
            scale = max(1.0, np.linalg.norm(xi) * max(1.0, operator_norm(b)))
            lhs = gamma[w] @ eq.base.act(xi, alg.coefficients(b))
            rhs = eq.base.act(gamma[w] @ xi, alg.coefficients(beta(w, b)))
            if np.linalg.norm(lhs - rhs) > tol * scale:
                raise ModuleError(f"gamma_w(xi b) != gamma_w(xi) beta_w(b) at w={w}")
            lhs2 = inner_product(gamma[w] @ xi, gamma[w] @ eta)
            rhs2 = beta(w, inner_product(xi, eta))
            scale2 = max(1.0, np.linalg.norm(xi) * np.linalg.norm(eta))
            if np.linalg.norm(lhs2 - rhs2) > tol * scale2:
                raise ModuleError(f"inner product is not equivariant at w={w}")


def validate_message(check, eq):
    try:
        check(eq)
    except ModuleError as exc:
        return str(exc)
    return None


def equivariant_case(label):
    """A module of the reduction chain, or a mutant of the function module
    of z2xz2-line-1 (points -1, 0, 1; w = 1 and w = 3 flip them), its
    gamma changed densely and read back onto the components (carried)."""
    if label in ("z2-line", "dihedral-plane", "anticomplete-point"):
        return equivariant_function_module(bundled(label))
    if label == "z4-rotation":
        return equivariant_function_module(z4_rotation_system())
    if label.endswith("quotient"):
        sys, wprime, r = splitting_case(label.rpartition("-")[0])
        return quotient_module(sys, wprime, r)[0]
    eq = equivariant_function_module(z2xz2_line_system(1))
    kind, _, size = label.partition(":")
    size = float(size)
    m = eq.base.carrier_dim
    base, gamma = eq.base, dense_gamma(eq)
    if kind in ("gamma-at-3", "turned-at-3"):
        # gamma_3 turned by a small rotation of the vectors 0 and `other`:
        # mixing the points -1 and 0 (other = 2) or within the fiber at -1
        # (other = 1).
        other = 2 if kind == "gamma-at-3" else 1
        turn = np.eye(m, dtype=complex)
        turn[np.ix_([0, other], [0, other])] = [[np.cos(size), -np.sin(size)],
                                                [np.sin(size), np.cos(size)]]
        gamma[3] = gamma[3] @ turn
    elif kind == "trivial-gamma":
        # Every gamma_w the identity: a homomorphism of isometries, but beta
        # still moves the points.
        gamma = np.broadcast_to(np.eye(m), gamma.shape)
    elif kind == "scaled-gamma":
        # gamma conjugated by a pointwise scalar, larger at -1: still a
        # homomorphism of module maps, but no longer isometric.
        scale = np.diag(np.repeat([1.0 + size, 1.0, 1.0], 2))
        gamma = scale @ gamma @ np.linalg.inv(scale)
    else:
        # The inner product scaled at the point -1: beta no longer carries it,
        # while the action is unchanged.
        action, inner = tensors(base)
        inner[:, :, 0] *= 1.0 + size
        base = dense_module(base.algebra, action, inner)
    return hilbmod.EquivariantModule(base, eq.beta, carried(base, gamma))


EQUIVARIANT = (["z2-line", "dihedral-plane", "anticomplete-point", "z4-rotation",
                "trivial-gamma:0"]
               + [f"{label}-quotient" for label in REDUCTIONS]
               + [f"turned-at-3:{eps}" for eps in (1e-8, 1.5e-8, 2e-8, 3e-8, 1e-7)]
               + [f"scaled-gamma:{eps}" for eps in (1e-8, 1.5e-8, 2e-8, 1e-6)]
               + [f"scaled-inner:{eps}" for eps in (2e-8, 1e-2)])


@pytest.mark.parametrize("label", EQUIVARIANT)
def test_equivariant_validate_names_the_first_failure_of_the_loop(label):
    eq = equivariant_case(label)
    loop = validate_message(equivariant_validate_loop, eq)
    assert validate_message(lambda e: e.validate(), eq) == loop
    expected = {"trivial-gamma:0": "gamma_w(xi b) != gamma_w(xi) beta_w(b) at w=1",
                "turned-at-3:1e-07": "gamma is not a group homomorphism",
                "scaled-gamma:1e-06": "inner product is not equivariant at w=1",
                "scaled-inner:0.01": "inner product is not equivariant at w=1"}
    if label in expected or not label.startswith(("turned", "scaled")):
        assert loop == expected.get(label)


@pytest.mark.parametrize("eps", [1e-8, 1.2e-8, 1.5e-8, 2e-8, 3e-8, 1e-7])
def test_a_gamma_that_mixes_two_components_is_rejected_at_construction(eps):
    # gamma_3 turned by a rotation of the points -1 and 0, however small,
    # carries both onto one component; at the parent such a gamma reached
    # validate, which at 3e-8 named the module map and at 1e-7 the
    # homomorphism.
    with pytest.raises(ModuleError, match="permutation"):
        equivariant_case(f"gamma-at-3:{eps}")
    eq = equivariant_function_module(z2xz2_line_system(1))
    (c,) = eq.gamma
    target = c.target.copy()
    target[1, 0] = target[1, 1]
    with pytest.raises(ModuleError, match="permutation"):
        hilbmod.EquivariantModule(eq.base, eq.beta, (hilbmod.Carried(target, c.blocks),))
    with pytest.raises(ModuleError, match="wrong shape"):
        hilbmod.EquivariantModule(eq.base, eq.beta, (hilbmod.Carried(c.target[:, :2],
                                                                      c.blocks[:, :2]),))


# -- gamma carried component to component, against the dense gamma ------------


def function_gamma_loop(sys):
    """gamma_w of C(X, C^d) one (w, x) at a time: the block I_{w,x} from
    the fiber at x to the fiber at w x."""
    d = sys.fiber_dim
    out = np.zeros((sys.group.order, sys.total_dim, sys.total_dim), dtype=complex)
    for w in range(sys.group.order):
        for x in range(sys.n_points):
            y = sys.action[w, x]
            out[w, y * d:(y + 1) * d, x * d:(x + 1) * d] = sys.cocycle[w, x]
    return out


def assert_carry_is_the_dense_gamma(eq, seed):
    """gamma_w applied to random carrier vectors, a stack per w and a
    single vector per w, is the dense gamma_w's product."""
    rng = np.random.default_rng(seed)
    w_n, m = eq.group.order, eq.base.carrier_dim
    xi = rng.standard_normal((w_n, 3, m)) + 1j * rng.standard_normal((w_n, 3, m))
    dense = dense_gamma(eq)
    assert close(eq.carry(xi), (dense[:, None] @ xi[..., None])[..., 0], 1e-14)
    assert close(eq.carry(xi[:, 0]), (dense @ xi[:, 0, :, None])[..., 0], 1e-14)


@settings(settings.get_profile("derandomized"), max_examples=50)
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.lists(st.integers(0, 1), min_size=8, max_size=8),
       st.integers(0, 3), st.sampled_from(["none", "fixed", "free"]),
       st.integers(0, 2 ** 32 - 1))
def test_carried_gamma_is_the_dense_gamma_on_planted_cocycles(
        group_name, mults, twist, second, seed):
    sys, _ = planted_cocycle_system(group_name, mults, twist, second, seed)
    eq = equivariant_function_module(sys)
    assert np.array_equal(dense_gamma(eq), function_gamma_loop(sys))
    assert_carry_is_the_dense_gamma(eq, seed)


@pytest.mark.parametrize("label", [f"z2-line-{n}" for n in range(1, 9)]
                         + [f"dihedral-grid-{r}" for r in (1, 2, 3)]
                         + [f"{label}-quotient" for label in REDUCTIONS])
def test_carried_gamma_is_the_dense_gamma_on_the_ladders(label):
    """The function modules of the ladders, whose dense gamma is the loop's,
    and the quotient modules, whose dense gamma is the compression of the
    function module's (test_reduction_links_match_the_loops)."""
    if label.endswith("quotient"):
        eq = equivariant_case(label)
    else:
        sys = morita_system(label)
        eq = equivariant_function_module(sys)
        assert np.array_equal(dense_gamma(eq), function_gamma_loop(sys))
    assert_carry_is_the_dense_gamma(eq, 0)


def test_no_equivariant_module_holds_a_dense_gamma(monkeypatch):
    """On z2-line n = 8 (|W| = 2, m = 34), no array held by an equivariant
    module that the library builds, the function module, its trivial twin
    and the quotient module of W = {e} >| Z/2, has |W| m^2 = 2312 entries,
    and no matrix that invariant_compacts_rows factorises has that many:
    gamma is held block by block and the kernels are solved one orbit at a
    time, where the parent held the (|W|, m, m) gamma and factorised the
    (m^2, r) commutator."""
    sys = z2_line_system(8)
    eq = equivariant_function_module(sys)
    w_n, m = eq.group.order, eq.base.carrier_dim
    modules = [eq, trivial_equivariant_module(eq.base, eq.group), quotient_module(sys, [0], [0, 1])[0]]
    compacts = compact_operators(eq.base)
    factored = []
    for name in ("svd", "qr"):
        def spy(a, *args, original=getattr(np.linalg, name), **kwargs):
            factored.append(np.size(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rows = invariant_compacts_rows(eq, compacts)
    monkeypatch.undo()
    assert rows.shape[0] == m and factored
    assert all(e.base.carrier_dim == m for e in modules)
    sizes = [a.size for e in modules for a in held_arrays(e)] + factored
    assert max(sizes) < w_n * m * m, max(sizes)


# -- the witness's samples, the unit, alpha_w and wide cuts against their loops --


def witness_calls(monkeypatch, run) -> list:
    """(A, E, left action, tol, generator) of each verify_morita call made by
    run(), the generator copied as it arrived."""
    calls = []
    original = hilbmod.verify_morita

    def spy(a_alg, e, left_action, tol=1e-8, **kwargs):
        calls.append((a_alg, e, np.asarray(left_action, dtype=complex), tol,
                      copy.deepcopy(kwargs.get("rng") or np.random.default_rng(0))))
        return original(a_alg, e, left_action, tol, **kwargs)

    monkeypatch.setattr(morita, "verify_morita", spy)
    run()
    return calls


def witness_residuals_loop(a_alg, e, left_action, rng):
    """verify_morita's eight-sample loop: (multiplicative, star) residuals
    and the samples (c1, c2) it drew.  Products and adjoints are those of
    A's matrices when A is a fixed-point algebra, or of its coordinates (the
    direct sums, whose tables test_inner_coefficients_match_the_dense_values
    checks against the dense block sum)."""
    g = dense_gram(e)
    m = e.carrier_dim
    left_action = dense_rows(e, left_action).reshape(-1, m, m)
    if not hasattr(a_alg, "functions"):
        def product_of(c1, c2):
            return a_alg.multiply(c1, c2)

        def adjoint_of(c):
            return a_alg.adjoint(c)
    else:
        n, rows = a_alg.ambient_dim, flatten(fpa_basis(a_alg))

        def product_of(c1, c2):
            return rows.conj() @ flatten((c1 @ rows).reshape(n, n) @ (c2 @ rows).reshape(n, n))

        def adjoint_of(c):
            return rows.conj() @ flatten((c @ rows).reshape(n, n).conj().T)
    mult_res = star_res = 0.0
    samples = []
    for _ in range(8):
        c1 = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        c2 = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        samples.append((c1, c2))
        l1 = np.tensordot(c1, left_action, axes=1)
        l2 = np.tensordot(c2, left_action, axes=1)
        l12 = np.tensordot(product_of(c1, c2), left_action, axes=1)
        scale = max(1.0, float(np.abs(l1).max() * np.abs(l2).max()))
        mult_res = max(mult_res, float(np.abs(l1 @ l2 - l12).max()) / scale)
        lstar = np.tensordot(adjoint_of(c1), left_action, axes=1)
        adjoint = np.linalg.solve(g, l1.conj().T @ g)
        star_res = max(star_res, float(np.abs(lstar - adjoint).max()) / scale)
    return mult_res, star_res, samples


def witness_run(label):
    if label == "toy-dual":
        return lambda: morita.assemble_toy_dual(bundled("two-component"))
    if label == "link-4":
        return lambda: morita.semidirect_reduction(z2xz2_line_system(2), [0, 2], [0, 1])
    sys = bundled(label) if label == "z2-line" else z2_line_system(int(label.rpartition("-")[2]))
    return lambda: verify_morita_theorem(sys)


@pytest.mark.parametrize("label", ["z2-line"] + [f"z2-line-{n}" for n in range(1, 6)]
                         + ["link-4", "toy-dual"])
def test_witness_samples_match_the_loop(label, monkeypatch):
    calls = witness_calls(monkeypatch, witness_run(label))
    assert calls
    for a_alg, e, left, tol, rng in calls:
        loop_rng, batch_rng = copy.deepcopy(rng), copy.deepcopy(rng)
        mult, star, samples = witness_residuals_loop(a_alg, e, left, loop_rng)
        witness = hilbmod.verify_morita(a_alg, e, left, tol, rng=batch_rng)
        # The batch draws the loop's samples, in its order, and no more.
        draws = copy.deepcopy(rng).standard_normal((8, 4, a_alg.dim))
        assert np.array_equal(draws[:, 0::2] + 1j * draws[:, 1::2], np.array(samples))
        assert loop_rng.bit_generator.state == batch_rng.bit_generator.state
        assert abs(witness.multiplicative_residual - mult) < 1e-14
        assert abs(witness.star_residual - star) < 1e-14
        assert witness.ok


@pytest.mark.parametrize("kind", ["not-multiplicative", "not-star"])
def test_witness_flags_a_mutant_left_action_as_the_loop_does(kind, monkeypatch):
    a_alg, e, left, tol, rng = witness_calls(monkeypatch, witness_run("z2-line-2"))[0]
    m = e.carrier_dim
    if kind == "not-multiplicative":
        # l(a) l(b) = 4 l(ab), while l(a*) is still l(a)'s adjoint.
        left, expected = 2.0 * left, (True, False)
    else:
        # Conjugated by a positive diagonal that is not unitary for the
        # scalar form: still multiplicative, no longer *-preserving.
        t = np.diag(1.0 + np.arange(m) / m)
        dense = dense_rows(e, left).reshape(-1, m, m)
        left, expected = pair_rows(e, t @ dense @ np.linalg.inv(t)), (False, True)
    mult, star, _ = witness_residuals_loop(a_alg, e, left, copy.deepcopy(rng))
    witness = hilbmod.verify_morita(a_alg, e, left, tol, rng=copy.deepcopy(rng))
    assert (mult > 1e-8, star > 1e-8) == expected
    assert (witness.multiplicative_residual > 1e-8, witness.star_residual > 1e-8) == expected
    assert not witness.ok
    assert abs(witness.multiplicative_residual - mult) <= 1e-14 * max(1.0, mult)
    assert abs(witness.star_residual - star) <= 1e-14 * max(1.0, star)


def unit_lstsq(alg):
    """MatrixStarAlgebra.unit as the least-squares solution of e b_j = b_j in
    the table's coordinates, checked one basis element at a time."""
    k, n = alg.dim, alg.ambient_dim
    e = np.zeros((n, n), dtype=complex)
    if k:
        coeffs, *_ = np.linalg.lstsq(alg.structure.reshape(k * k, k),
                                     np.eye(k).reshape(-1), rcond=None)
        e = (coeffs @ alg.basis_rows()).reshape(n, n)
    for b in alg.basis:
        if np.linalg.norm(e @ b - b) > 1e-6 * max(1.0, np.linalg.norm(b)):
            raise AlgebraError("algebra has no unit in its span")
    return e


def unit_case(label):
    """(algebra, a twin with its coordinates, its table and a basis)."""
    if label == "fpa":
        alg = fixed_point_algebra(bundled("z2-line"))
        return alg, dense_of(alg)
    if label == "cp":
        cp = c_ideal(bundled("z2-line")).cp
        return cp.algebra, embedded_algebra(cp)
    if label == "restricted-c":
        cid = c_ideal(z2xz2_line_system(1))
        assert cid.dim < cid.cp.dim
        return cid.algebra, embedded_ideal(cid)[0]
    if label == "compacts":
        span = compacts_algebra(compact_operators(equivariant_function_module(bundled("z2-line")).base))
        return span.algebra, Dense(span.mats)
    # The corner C e11 inside M_2, whose unit is not the identity.
    e11 = np.zeros((1, 2, 2), dtype=complex)
    e11[0, 0, 0] = 1.0
    return MatrixSpan(e11).algebra, Dense(e11)


@pytest.mark.parametrize("label", ["fpa", "cp", "restricted-c", "compacts", "corner"])
def test_unit_is_the_least_squares_unit(label):
    alg, dense = unit_case(label)
    assert np.abs(dense.element(alg.unit()) - unit_lstsq(dense)).max() < 1e-10


def test_a_nilpotent_span_has_no_unit():
    e12 = np.zeros((1, 2, 2), dtype=complex)
    e12[0, 0, 1] = 1.0
    alg = MatrixSpan(e12).algebra
    # A failure is not kept on the instance: the second call raises too.
    for unit, of in ((MatrixStarAlgebra.unit, alg), (MatrixStarAlgebra.unit, alg),
                     (unit_lstsq, Dense(e12))):
        with pytest.raises(AlgebraError, match="no unit"):
            unit(of)


def alpha_matrix_loop(sys, w):
    """alpha_w, one point's Kronecker block at a time."""
    d, x_n = sys.fiber_dim, sys.n_points
    w_inv = sys.group.inverse(w)
    out = np.zeros((x_n * d * d, x_n * d * d), dtype=complex)
    for x in range(x_n):
        pre = sys.action[w_inv, x]
        block = np.kron(sys.cocycle[w, pre], sys.cocycle[w_inv, x].T)
        out[x * d * d:(x + 1) * d * d, pre * d * d:(pre + 1) * d * d] = block
    return out


@pytest.mark.parametrize("label", ["z2-line", "dihedral-plane", "anticomplete-point",
                                   "z2xz2-line-2", "dihedral-grid-2"])
def test_alpha_matrix_matches_the_kronecker_loop(label):
    sys = bundled(label) if label == "z2-line" else morita_system(label)
    for w in range(sys.group.order):
        assert np.array_equal(oracles.alpha_matrix(sys, w), alpha_matrix_loop(sys, w))


def wide_matrix(rows, cols, values, seed=0):
    """A rows x cols matrix U diag(values) V* with random orthonormal U, V."""
    rng = np.random.default_rng(seed)

    def orthonormal(n):
        return np.linalg.qr(rng.standard_normal((n, rows))
                            + 1j * rng.standard_normal((n, rows)))[0]

    padded = np.zeros(rows)
    padded[:len(values)] = values
    return orthonormal(rows) @ (padded[:, None] * orthonormal(cols).conj().T)


def wide_case(label):
    """(matrix, tol, rank) for a matrix of at least linalg._WIDE_REDUCTION
    entries and twice as wide as tall, so the cut takes the QR reduction."""
    kind, _, arg = label.partition(":")
    if kind == "aspect":
        ratio = int(arg)
        rows = 1 + math.isqrt(1500 // ratio)
        rng = np.random.default_rng(ratio)
        shape = (rows, ratio * rows)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 1e-9, rows
    if kind == "deficient":
        # Twelve values kept, one of them 10x the threshold tol max(s_0, 1),
        # and one 10x below it; the scale is s_0 = 1 or 1e3.  Any backward
        # stable SVD fixes the span of the kept values only to about
        # 1e-16 s_0 / (their gap to the dropped ones), so tol is large
        # enough for two of them to agree within 1e-12.
        scale, tol = float(arg), 1e-4
        cut = tol * max(scale, 1.0)
        return wide_matrix(20, 400, [scale] * 11 + [10 * cut, cut / 10]), tol, 12
    if kind == "zero":
        return np.zeros((20, 400), dtype=complex), 1e-9, 0
    return wide_matrix(1, 2000, [float(arg)]), 1e-9, int(float(arg) > 0)


@pytest.mark.parametrize("label", ["aspect:2", "aspect:5", "aspect:10", "aspect:22",
                                   "aspect:50", "deficient:1", "deficient:1e3", "zero",
                                   "one-row:1", "one-row:0"])
def test_reduced_wide_cut_matches_the_direct_svd(label, monkeypatch):
    matrix, tol, rank = wide_case(label)
    rows, cols = matrix.shape
    assert 2 * rows <= cols and rows * cols >= linalg._WIDE_REDUCTION
    _, s, vh = np.linalg.svd(matrix, full_matrices=False)
    direct = vh[:int(np.sum(s > tol * max(s[0], 1.0)))]
    reduced = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: reduced.append(a.shape)
                        or qr(a, *args, **kw))
    cut = orthonormal_rows(matrix, tol)
    assert reduced == [(cols, rows)]
    assert cut.shape[0] == direct.shape[0] == rank
    assert spans_equal(cut, direct, 1e-12)
    assert np.abs(cut @ cut.conj().T - np.eye(cut.shape[0])).max(initial=0.0) < 1e-12


# Singular values of the blocks given to block_cut: each at least 100x
# from every threshold tol max(s_0, 1) at tol 1e-9 that they can set
# (1e-9 or 1e-3), so a block SVD and the dense one agree on every cut.
BLOCK_VALUES = (0.0, 1e-5, 1.0, 1e6)
# At its own scale the 1e-5 block is kept; at the whole matrix's, 1e-3, not.
FAR_BELOW = [(1, 3, 3, (1e6,)), (2, 4, 2, (1e-5,))]


def block_stacks(specs, seed):
    """Stacks (g, m, n) of blocks U diag(values) V*, U and V orthonormal,
    for specs (g, m, n, magnitudes): each value drawn from the magnitudes."""
    rng = np.random.default_rng(seed)
    stacks = []
    for g, m, n, magnitudes in specs:
        blocks = []
        for _ in range(g):
            values = rng.choice(magnitudes, min(m, n))
            blocks.append(wide_matrix(m, n, values, int(rng.integers(2 ** 32))) if m <= n
                          else wide_matrix(n, m, values, int(rng.integers(2 ** 32))).conj().T)
        stacks.append(np.array(blocks))
    return stacks


def placed_rows(stacks, rows_of):
    """The rows rows_of(i, b) of block b of each stack i, placed at that
    block's columns of the block-diagonal matrix of the stacks."""
    width = sum(s.shape[0] * s.shape[2] for s in stacks)
    out, col = [np.zeros((0, width), dtype=complex)], 0
    for i, stack in enumerate(stacks):
        for b in range(stack.shape[0]):
            rows = rows_of(i, b)
            placed = np.zeros((rows.shape[0], width), dtype=complex)
            placed[:, col:col + stack.shape[2]] = rows
            out.append(placed)
            col += stack.shape[2]
    return np.concatenate(out)


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
                          st.sampled_from([BLOCK_VALUES[:1], BLOCK_VALUES[1:2], BLOCK_VALUES[2:3],
                                           BLOCK_VALUES[3:], BLOCK_VALUES])), max_size=3),
       st.integers(0, 2 ** 32 - 1))
@example([], 0)
@example([(2, 3, 2, (0.0,))], 0)
@example(FAR_BELOW, 1)
def test_block_cut_keeps_what_the_dense_cut_keeps(specs, seed):
    stacks, tol = block_stacks(specs, seed), 1e-9
    cuts = block_cut(stacks, tol)
    dense = np.zeros((sum(s.shape[0] * s.shape[1] for s in stacks),
                      sum(s.shape[0] * s.shape[2] for s in stacks)), dtype=complex)
    row = col = 0
    for stack in stacks:
        for block in stack:
            dense[row:row + block.shape[0], col:col + block.shape[1]] = block
            row, col = row + block.shape[0], col + block.shape[1]
    kept = placed_rows(stacks, lambda i, b: cuts[i][1][b][cuts[i][2][b]])
    span = orthonormal_rows(dense, tol)
    assert kept.shape[0] == span.shape[0] and spans_equal(kept, span, 1e-8)
    if all(s.shape[2] <= s.shape[1] for s in stacks):
        kernel = placed_rows(stacks, lambda i, b: cuts[i][1][b][~cuts[i][2][b]].conj())
        assert spans_equal(kernel, nullspace_rows(dense, tol), 1e-8)
    if specs == FAR_BELOW:
        assert not cuts[1][2].any() and cuts[0][2].all()


# -- permutation actions, checked and crossed by index ------------------------


def action_outcome(action, cross_with):
    """(validate's message or None, the crossed product's message or None,
    its block tables or None), crossed by cross_with."""
    try:
        action.validate()
        message = None
    except systems.SystemError as exc:
        message = str(exc)
    try:
        stacks = cross_with(action).algebra.blocks
    except systems.SystemError as exc:
        return message, str(exc), None
    return message, None, [(st.index, st.table, st.star, st.traces) for st in stacks]


def points_action(group, perm):
    """The action beta_w(delta_j) = delta_(perm[w, j]) on C(X), X the
    points of the table."""
    alg = oracles.function_algebra(systems.trivial_system(np.shape(perm)[1]))
    return AlgebraAction(group, alg, np.asarray(perm))


def z4_shifts(broken: bool):
    """Z/4 by powers of the shift of four points; `broken` sends 2 to 1."""
    perm = (np.arange(4) + np.arange(4)[:, None]) % 4
    if broken:
        perm[2] = np.arange(4)
    return points_action(cyclic(4), perm)


def unequal_tables_action():
    """M_2 twice, once against the Hermitian units E11, E22, (E12 + E21) /
    sqrt 2, i (E12 - E21) / sqrt 2 and once against the Pauli matrices /
    sqrt 2, with Z/2 swapping the two bases coordinate by coordinate: a
    block-to-block permutation that keeps the star tables (each basis
    self-adjoint) but not the product tables."""
    units = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]], [[0, 1j], [-1j, 0]]])
    pauli = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    scale = np.array([1.0, 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])[:, None, None]
    elems = np.stack([units * scale, pauli / np.sqrt(2.0)]).astype(complex)[:, :, None]
    blocks, residual = matalg.span_tables(elems, np.arange(8).reshape(2, 4))
    assert residual < 1e-14
    return AlgebraAction(cyclic(2), MatrixStarAlgebra(4, (blocks,)),
                         [np.arange(8), np.roll(np.arange(8), 4)])


def outer_action_of(label):
    """V's action on C(X) >| W' for the splitting W = W' >| V, as the
    reduction builds it."""
    sys, normal, complement = splitting_case(label)
    action, g = scalar_translation_action(sys), sys.group
    u_emb = np.array(g.subgroup(normal).embedding)
    inner = crossed_product(AlgebraAction(g.subgroup(normal).group, action.algebra,
                                          action.perm[u_emb]))
    return systems._outer_action(action, inner, u_emb, g.subgroup(complement))[0]


PERMUTATION_ACTIONS = {
    **{f"translation:z2-line-{n}": lambda n=n: scalar_translation_action(z2_line_system(n))
       for n in range(1, 6)},
    **{f"translation:z2xz2-line-{n}": lambda n=n: scalar_translation_action(z2xz2_line_system(n))
       for n in range(1, 4)},
    **{f"translation:z2xz2-line-{n}|W'": lambda n=n: scalar_translation_action(
        systems.restrict_system(z2xz2_line_system(n), [0, 2])[0]) for n in range(1, 4)},
    "translation:dihedral-plane": lambda: scalar_translation_action(bundled("dihedral-plane")),
    "translation:dihedral-grid-2": lambda: scalar_translation_action(dihedral_grid(2)),
    **{f"outer:{label}": lambda label=label: outer_action_of(label) for label in REDUCTIONS},
    **{f"quotient:{label}": lambda label=label: quotient_module(*splitting_case(label))[0].beta
       for label in REDUCTIONS},
    "trivial:z2-line-2": lambda: trivial_equivariant_module(
        function_module(z2_line_system(2)), cyclic(3)).beta,
    "mutant:identity": lambda: points_action(cyclic(2), [[1, 0], [0, 1]]),
    "mutant:homomorphism": lambda: points_action(cyclic(2), [[0, 1, 2], [1, 2, 0]]),
    "mutant:z4-not-hom": lambda: z4_shifts(broken=True),
    "z4-shift": lambda: z4_shifts(broken=False),
    "mutant:unequal-tables": unequal_tables_action,
}


def assert_index_path_is_the_dense_path(action, label=""):
    """validate and CrossedProduct.algebra read a block-carrying
    permutation action off B's tables by index; the dense oracle, through
    the 0/1 maps of the permutation, gives the same messages and, bit for
    bit, the same largest star and multiplicativity defects, the same
    W-orbits of blocks and the same crossed tables."""
    dense = DenseAction.of(action)
    message, cp_message, stacks = action_outcome(action, crossed_product)
    dense_message, dense_cp_message, dense_stacks = action_outcome(dense, dense_crossed_product)
    assert (message, cp_message) == (dense_message, dense_cp_message)
    gens = list(action.group.generators())
    assert ([systems._largest_norm(part) for part in action._defects(gens)]
            == [systems._largest_norm(part) for part in dense.defects(gens)])
    expected = {"mutant:identity": "identity", "mutant:homomorphism": "homomorphism",
                "mutant:z4-not-hom": "homomorphism", "mutant:unequal-tables": "multiplicative"}
    if label in expected:
        assert expected[label] in message and stacks is None
        return
    assert message is None and stacks is not None and len(stacks) == len(dense_stacks)
    assert len(action._orbits) == len(dense.orbits)
    assert all(np.array_equal(a, b) for a, b in zip(action._orbits, dense.orbits))
    for part, dense_part in zip(stacks, dense_stacks):
        assert all(np.array_equal(a, b) for a, b in zip(part, dense_part))


@pytest.mark.parametrize("label", sorted(PERMUTATION_ACTIONS))
def test_the_permutation_branch_is_the_dense_branch(label):
    assert_index_path_is_the_dense_path(PERMUTATION_ACTIONS[label](), label)


def coset_points(g, elems):
    """(action, points) of g on the disjoint union of its cosets w H, one
    orbit per generated subgroup H = <e> for e in elems, by left
    multiplication."""
    tables = []
    for e in elems:
        sub = np.array(g.generated_subgroup([e]))
        label = g.mul[:, sub].min(axis=1)                        # [v]: the coset of v
        reps = np.unique(label)
        tables.append(np.searchsorted(reps, label[g.mul[:, reps]]))   # [w, c]
    offsets = np.cumsum([0] + [t.shape[1] for t in tables])
    return np.concatenate([t + o for t, o in zip(tables, offsets)], axis=1), offsets[-1]


SMALL_GROUPS = sorted(name for name in BUILTIN_GROUPS if builtin_group(name).order <= 8)


@settings(settings.get_profile("derandomized"), max_examples=25)
@given(st.sampled_from(SMALL_GROUPS), st.lists(st.integers(0, 7), min_size=1, max_size=2),
       st.sampled_from(["cosets", "planted"]), st.integers(0, 2 ** 32 - 1))
def test_translations_by_index_match_the_dense_oracle(group_name, elems, kind, seed):
    """C(X)'s translation, for a small group on a random union of coset
    spaces or one of the planted cocycle systems: its index defects, orbits
    and crossed tables are the dense oracle's, and its crossed product
    multiplies as the embedded span."""
    g = builtin_group(group_name)
    if kind == "planted":
        sys = planted_cocycle_system(group_name, [1] + [0] * 7, 0, ("fixed", "free")[seed % 2],
                                     seed)[0]
    else:
        action, n = coset_points(g, [e % g.order for e in elems])
        sys = EquivariantSystem(g, tuple(range(n)), action, 1,
                                np.ones((g.order, n, 1, 1), dtype=complex))
    action = scalar_translation_action(sys)
    assert np.array_equal(action.perm, sys.action)
    assert_index_path_is_the_dense_path(action)
    check_crossed_coefficients(crossed_product(action))


def test_a_permutation_that_splits_a_block_is_refused():
    """C^3 held as the blocks span{delta_0, delta_1} and C delta_2, with
    Z/2 swapping delta_0 and delta_2: a *-automorphism whose permutation
    splits the first block, which AlgebraAction refuses; the dense oracle
    validates and crosses it, with one W-orbit of blocks."""
    deltas = np.eye(2, dtype=complex).reshape(1, 2, 2, 1, 1)
    pair, _ = matalg.span_tables(deltas, np.array([[0, 1]]))
    one, _ = matalg.span_tables(np.ones((1, 1, 1, 1, 1), dtype=complex), np.array([[2]]))
    alg = MatrixStarAlgebra(3, (pair, one))
    with pytest.raises(systems.SystemError, match="onto a block"):
        AlgebraAction(cyclic(2), alg, [[0, 1, 2], [2, 1, 0]])
    dense = DenseAction(cyclic(2), alg, np.stack([np.eye(3), np.eye(3)[[2, 1, 0]]]))
    dense.validate()
    cp = dense_crossed_product(dense)
    assert cp.algebra.dim == 6 and len(dense.orbits) == 1


def swap_maps(entry=None):
    """The swap of two points as dense maps, with entry (w, row, column,
    value) written into them."""
    maps = np.stack([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]).astype(complex)
    if entry is not None:
        maps[entry[:3]] = entry[3]
    return maps


@pytest.mark.parametrize("table, message", [
    *((swap_maps(entry), "table of coordinate indices")
      for entry in [None, (1, 0, 1, -1.0), (1, 0, 1, 1j), (1, 1, 1, 1e-300), (1, 0, 0, np.nan),
                    (1, 1, 0, 0.0)]),
    ([[0.0, 1.0], [1.0, 0.0]], "table of coordinate indices"),
    ([[0, 1], [np.nan, 0]], "table of coordinate indices"),
    ([[0, 1]], "table of coordinate indices"),
    ([[0, 1], [1, 1]], "does not permute"),
    ([[0, 1], [1, 2]], "does not permute"),
    ([[0, 1], [-1, 0]], "does not permute"),
])
def test_only_a_permutation_table_is_an_action(table, message):
    """An action is its integer permutation table: dense maps, even the 0/1
    swap and the swaps with a sign, a phase, a stray entry, a NaN or an
    empty column that went to the dense path, a float table, a NaN, a wrong
    shape and a row that is no permutation are refused when built."""
    with pytest.raises(systems.SystemError, match=message):
        points_action(cyclic(2), table)


def test_an_action_holds_its_perm_read_only():
    perm = np.array([[0, 1], [1, 0]])
    action = points_action(cyclic(2), perm)
    perm[1] = [0, 1]
    assert action.perm[1, 0] == 1
    with pytest.raises(ValueError):
        action.perm[1] = [0, 1]
    action.validate()


@pytest.mark.parametrize("table", ["star", "table"])
def test_a_nan_in_b_fails_the_permutation_checks(table):
    """B's tables with a NaN entry under the trivial action, a
    permutation: each defect there is NaN, which a bound written as
    `norm > bound` would pass."""
    alg = oracles.function_algebra(systems.trivial_system(2))
    stack = alg.blocks[0]
    parts = {"star": stack.star.copy(), "table": stack.table.copy()}
    parts[table][0, 0, 0] = np.nan
    alg = MatrixStarAlgebra(alg.ambient_dim, (matalg.Blocks(stack.index, parts["table"],
                                                             parts["star"], stack.traces),))
    action = AlgebraAction(cyclic(2), alg, [[0, 1], [0, 1]])
    message = {"star": "involution", "table": "multiplicative"}[table]
    for act in (action, DenseAction.of(action)):
        with pytest.raises(systems.SystemError, match=message):
            act.validate()


def test_a_nan_map_fails_validate_and_crossed_product():
    """A NaN in the maps fails the dense oracle's identity and homomorphism
    bounds; a NaN in a permutation table is refused when built."""
    action = scalar_translation_action(z2_line_system(2))
    for w, message in ((0, "identity"), (1, "homomorphism")):
        maps = np.array(dense_maps(action))
        maps[w, 0, 0] = np.nan
        broken = DenseAction(action.group, action.algebra, maps)
        with pytest.raises(systems.SystemError, match=message):
            broken.validate()
        with pytest.raises(systems.SystemError, match=message):
            dense_crossed_product(broken)
        perm = action.perm.astype(float)
        perm[w, 0] = np.nan
        with pytest.raises(systems.SystemError, match="table of coordinate indices"):
            AlgebraAction(action.group, action.algebra, perm)


def planted_swap(part: str, eps: float):
    """Z/2 swapping the two blocks C b_0 and C b_1 of one stack, whose
    tables differ by eps in `part`: the star table or the product table of
    b_1.  beta then misses preserving the involution, or multiplicativity,
    by exactly eps."""
    ones = np.ones((2, 1, 1, 1), dtype=complex)
    tables = {"star": ones[..., 0].copy(), "table": ones.copy()}
    tables[part][1] += eps
    alg = MatrixStarAlgebra(2, (matalg.Blocks(np.arange(2)[:, None], tables["table"],
                                              tables["star"], ones[..., 0, 0]),))
    return AlgebraAction(cyclic(2), alg, [[0, 1], [1, 0]])


def test_crossed_product_honours_the_callers_tolerance():
    """A star defect of 1e-10 passes at tol 1e-8 and fails at 1e-12: the
    check runs at the caller's tolerance, not at a fixed 1e-8."""
    action = planted_swap("star", 1e-10)
    assert crossed_product(action, tol=1e-8).dim == 4
    with pytest.raises(systems.SystemError, match="involution"):
        crossed_product(action, tol=1e-12)


@pytest.mark.parametrize("part, message", [("star", "involution"), ("table", "multiplicative")])
def test_validate_pins_its_star_and_multiplicativity_bounds(part, message):
    """A defect of 1e-5 lies between tol = 1e-8 and 1e-4, so a bound
    loosened to 1e-2 lets it through at 1e-8."""
    action = planted_swap(part, 1e-5)
    with pytest.raises(systems.SystemError, match=message):
        action.validate(1e-8)
    action.validate(1e-4)


def test_verdicts_validate_their_actions_at_their_tolerance(monkeypatch):
    """Every action a verdict crosses or checks is validated at the
    verdict's own tolerance."""
    tols, validate = [], AlgebraAction.validate
    monkeypatch.setattr(AlgebraAction, "validate",
                        lambda self, tol=1e-8: tols.append(tol) or validate(self, tol))
    sys = z2xz2_line_system(1)
    assert verify_morita_theorem(sys, tol=1e-6).ok
    assert c_ideal(sys, tol=1e-6).dim
    assert hilbmod.verify_green_julg(equivariant_function_module(sys), 1e-6).ok
    assert morita.semidirect_reduction(sys, [0, 2], [0, 1], tol=1e-6).ok
    assert len(tols) >= 6 and set(tols) == {1e-6}


def test_a_translation_is_validated_under_10_mb():
    """C(X)'s translation on the dihedral grid r = 6 (|W| = 8, k = 169),
    built and validated: the all-pairs (|W|, |W|, k, k) homomorphism defect
    of the dense maps took validate to a 58.5 MB traced peak; the action
    holds its (|W|, k) permutation and is checked by index with no (k, k)
    array."""
    sys = dihedral_grid(6)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scalar_translation_action(sys).validate()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 10e6, peak / 1e6
