"""Hilbert modules: axioms, compacts, fullness, averaged modules, Morita witnesses."""
import numpy as np
import pytest

from equivaria import hilbmod
from equivaria.datasets import bundled
from equivaria.groups import builtin_group
from equivaria.hilbmod import (
    ModuleError,
    compact_operators,
    direct_sum_left_action,
    direct_sum_module,
    equivariant_function_module,
    free_module,
    function_module,
    green_julg_module,
    green_julg_norms,
    invariant_compacts_rows,
    is_full,
    scalar_algebra,
    standard_module,
    trivial_equivariant_module,
    verify_green_julg,
    verify_morita,
)
from equivaria.linalg import (
    DEFAULT_TOL,
    flatten,
    intertwiner_rows,
    span_contains,
    spans_equal,
    unflatten,
)
from equivaria.matalg import (
    MatrixSpan,
    block_decompose,
    generate,
)
from equivaria.reps import regular_rep
from equivaria.systems import (
    fixed_point_algebra,
    one_point_system,
    z2_line_system,
)
from oracles import (
    algebra_from_span,
    dense_module,
    dense_rows,
    fpa_basis,
    fullness_ideal,
    gram_sqrt,
    operator_norm,
    pair_rows,
    tensors,
)


def compacts_algebra(c, tol=DEFAULT_TOL):
    """K_B(E) as a genuine matrix *-algebra: the raw compacts k dressed as
    S k S^-1, S the Gram square root, so that * is the conjugate transpose.
    S is invertible, so dressing a basis of the raw span spans the image."""
    m = c.module.carrier_dim
    s, s_inv = gram_sqrt(c.module)
    return algebra_from_span(s @ unflatten(dense_rows(c.module, c.raw_rows), m) @ s_inv,
                             ambient_dim=m, tol=tol)


def m2_algebra():
    return generate(np.array([[[0, 1], [0, 0]]], dtype=complex), ambient_dim=2)


def test_standard_module_axioms_and_norm():
    b = m2_algebra()
    e = standard_module(b.algebra)
    e.validate()
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        # The module norm of an algebra element is its operator norm.
        assert abs(e.norm(c) - operator_norm(b.element(c))) < 1e-9


def test_compacts_of_standard_module_recover_algebra():
    b = m2_algebra()
    e = standard_module(b.algebra)
    c = compact_operators(e)
    assert compacts_algebra(c).dim == b.dim
    assert is_full(e)


def test_function_module_compacts():
    sys = z2_line_system(1)
    e = function_module(sys)
    c = compact_operators(e)
    # K_{C(X)}(C(X, C^d)) = C(X, M_d).
    assert compacts_algebra(c).dim == sys.n_points * sys.fiber_dim ** 2
    assert is_full(e)


def test_compacts_are_ideal_in_adjointables():
    e = function_module(z2_line_system(1))
    raw = dense_rows(e, compact_operators(e).raw_rows)
    # In finite dimension every module map is adjointable: the commutant of
    # the right action.
    action = tensors(e)[0]
    adj_rows = intertwiner_rows(action, action)
    # Compacts sit inside the adjointable (= module-map) operators ...
    assert span_contains(adj_rows, raw)
    # ... and absorb them under multiplication on either side.
    m = e.carrier_dim
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = (adj_rows.T @ (rng.standard_normal(adj_rows.shape[0])
                           + 1j * rng.standard_normal(adj_rows.shape[0]))).reshape(m, m)
        k = (raw.T @ (rng.standard_normal(raw.shape[0])
                      + 1j * rng.standard_normal(raw.shape[0]))).reshape(m, m)
        assert span_contains(raw, flatten(np.array([
            t @ k / max(1.0, np.abs(t @ k).max()),
            k @ t / max(1.0, np.abs(k @ t).max())])), 1e-8)


COMPACTS_SYSTEMS = {
    "z2-line-3": lambda: z2_line_system(3),
    "anticomplete-point": lambda: bundled("anticomplete-point"),
    "z2xz2-line-1": lambda: bundled("two-component")[0][0],
}


@pytest.mark.parametrize("name", COMPACTS_SYSTEMS)
def test_compacts_equal_adjointables(name):
    # E is finitely generated over a unital B, so K_B(E) = L_B(E); the
    # adjointables are a Kronecker nullspace, independent of the rank cut.
    eq = equivariant_function_module(COMPACTS_SYSTEMS[name]())
    for e in (eq.base, green_julg_module(eq)[0]):
        c = compact_operators(e)
        action = tensors(e)[0]
        assert spans_equal(dense_rows(e, c.raw_rows), intertwiner_rows(action, action))
        assert c.rank_margin > 1e6


def test_cauchy_schwarz_holds():
    rng = np.random.default_rng(2)
    for e in (standard_module(m2_algebra().algebra), function_module(z2_line_system(1))):
        for _ in range(25):
            xi, eta = e.random_vector(rng), e.random_vector(rng)
            assert e.cauchy_schwarz_residual(xi, eta) < 1e-10


def test_degenerate_inner_product_rejected():
    b = scalar_algebra([1])
    action = np.eye(2, dtype=complex)[None]
    inner = np.zeros((2, 2, 1), dtype=complex)
    inner[0, 0, 0] = 1.0   # second basis vector has zero length
    e = dense_module(b, action, inner)
    with pytest.raises(ModuleError, match="degenerate"):
        compact_operators(e)


def test_fullness_ideal_picks_one_block():
    # E = the first block of B = M2 (+) M2: fullness ideal is that block.
    basis = np.zeros((8, 4, 4), dtype=complex)
    k = 0
    for blk in (0, 2):
        for i in range(2):
            for j in range(2):
                basis[k, blk + i, blk + j] = 1.0
                k += 1
    b = MatrixSpan(basis).algebra
    action = np.zeros((8, 2, 2), dtype=complex)
    inner = np.zeros((2, 2, 8), dtype=complex)
    for k in range(4):   # first-block basis elements act on C^2, rest act as 0
        action[k] = basis[k, :2, :2].T
    for i in range(2):
        for j in range(2):
            inner[i, j, 2 * i + j] = 1.0   # <e_i|e_j> = E_ij, basis element 2i + j
    e = dense_module(b, action, inner)
    e.validate()
    ideal = fullness_ideal(e)
    assert ideal.dim == 4
    assert not is_full(e)


def test_verify_morita_success_and_failure():
    # (K(H), C, H): the basic equivalence.
    e = free_module(2)
    m2 = generate(np.array([[[0, 1], [0, 0]]], dtype=complex), ambient_dim=2)
    # C^2 is one component, so its pairs are all four carrier pairs.
    left = flatten(m2.mats)
    w = verify_morita(m2.algebra, e, left)
    assert w.ok
    # A = M2 (+) M2 against B = C with E = C^2: dimensions cannot match.
    basis = np.zeros((8, 4, 4), dtype=complex)
    k = 0
    for blk in (0, 2):
        for i in range(2):
            for j in range(2):
                basis[k, blk + i, blk + j] = 1.0
                k += 1
    a = MatrixSpan(basis).algebra
    left_bad = flatten(np.concatenate([m2.mats, m2.mats]))
    w_bad = verify_morita(a, e, left_bad)
    assert not w_bad.ok
    assert not w_bad.injective


def test_green_julg_trivial_group_is_identity():
    e = free_module(3)
    eq = trivial_equivariant_module(e, builtin_group("trivial"))
    gj = green_julg_module(eq)[0]
    assert gj.carrier_dim == e.carrier_dim
    assert verify_green_julg(eq).ok
    xi = np.array([1.0, 2.0, -1.0j])
    n1, n2, order = green_julg_norms(eq, xi, gj)
    assert order == 1 and abs(n1 - n2) < 1e-12


def test_green_julg_z2_line_matches_invariant_compacts():
    eq = equivariant_function_module(z2_line_system(2))
    eq.validate()
    verdict = verify_green_julg(eq)
    assert verdict.ok
    assert verdict.residual < 1e-8
    # The invariant compacts are the fixed-point algebra on the carrier.
    from equivaria.systems import fixed_point_algebra
    fpa = fixed_point_algebra(z2_line_system(2))
    rows = dense_rows(eq.base, invariant_compacts_rows(eq))
    assert spans_equal(rows, flatten(fpa_basis(fpa)))


def test_green_julg_norm_bounds():
    eq = equivariant_function_module(z2_line_system(2))
    gj = green_julg_module(eq)[0]
    rng = np.random.default_rng(3)
    for _ in range(20):
        n1, n2, order = green_julg_norms(eq, eq.base.random_vector(rng), gj)
        assert n1 <= n2 + 1e-9
        assert n2 <= order * n1 + 1e-8


def test_direct_sum_morita():
    e1 = free_module(2)
    e2 = free_module(2)
    m2 = m2_algebra()
    a_sum, left = direct_sum_left_action(m2.algebra, flatten(m2.mats),
                                         m2.algebra, flatten(m2.mats))
    total = direct_sum_module(e1, e2)
    total.validate()
    w = verify_morita(a_sum, total, left)
    assert w.ok
    assert sorted(block_decompose(a_sum).sizes()) == [2, 2]


def test_one_point_s3_green_julg():
    g = builtin_group("S3")
    sys = one_point_system(g, regular_rep(g).matrices)
    eq = equivariant_function_module(sys)
    verdict = verify_green_julg(eq)
    assert verdict.ok
    # Both sides equal the commutant of the regular representation: dim 6.
    assert verdict.averaged_compacts_dim == 6


def test_is_full_honours_its_tolerance():
    # B = C (+) C with <e1|e1> = delta_1 and <e2|e2> = 1e-7 delta_2: full, but
    # the second value is below a 1e-6 rank cut.
    b = scalar_algebra([1, 1])
    action = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    inner = np.zeros((2, 2, 2), dtype=complex)
    inner[0, 0] = [1.0, 0.0]
    inner[1, 1] = [0.0, 1e-7]
    e = dense_module(b, action, inner)
    assert is_full(e, 1e-12)
    assert not is_full(e, 1e-6)


def test_is_full_embeds_no_ideal(monkeypatch):
    # C^2 (+) 0 over C (+) C misses the second summand; the values of the
    # first module below lie under a 1e-6 cut on one summand.
    b = scalar_algebra([1, 1])
    inner = np.zeros((2, 2, 2), dtype=complex)
    inner[0, 0] = [1.0, 0.0]
    inner[1, 1] = [0.0, 1e-7]
    small = dense_module(b, np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), inner)
    cases = [(small, 1e-12), (small, 1e-6),
             (direct_sum_module(free_module(2), free_module(0)), 1e-8),
             (function_module(z2_line_system(2)), 1e-8)]
    expected = [fullness_ideal(e, tol).dim == e.algebra.dim for e, tol in cases]
    assert expected == [True, False, False, True]

    def embedded(*args, **kwargs):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(hilbmod, "MatrixStarAlgebra", embedded)
    assert [is_full(e, tol) for e, tol in cases] == expected


def test_witness_checks_honour_their_tolerance():
    # The same module: <e2|e2> = 1e-7 delta_2 makes |e2><e2| a compact of
    # norm 1e-7, kept by a 1e-12 rank cut and dropped by a 1e-6 one.
    b = scalar_algebra([1, 1])
    action = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    inner = np.zeros((2, 2, 2), dtype=complex)
    inner[0, 0] = [1.0, 0.0]
    inner[1, 1] = [0.0, 1e-7]
    e = dense_module(b, action, inner)
    left = pair_rows(e, action)
    assert verify_morita(b, e, left, 1e-12).ok
    assert not verify_morita(b, e, left, 1e-6).span_match
    eq = trivial_equivariant_module(e, builtin_group("trivial"))
    fine, coarse = verify_green_julg(eq, 1e-12), verify_green_julg(eq, 1e-6)
    assert fine.averaged_compacts_dim == fine.invariant_compacts_dim == 2
    assert coarse.averaged_compacts_dim == coarse.invariant_compacts_dim == 1


def test_green_julg_on_dihedral_plane():
    # m = 34 under the square's group, whose two generators both constrain:
    # the first alone leaves 18 invariant compacts.  The invariant compacts
    # of the function module are the fixed-point algebra on the carrier.
    sys = bundled("dihedral-plane")
    eq = equivariant_function_module(sys)
    verdict = verify_green_julg(eq)
    assert verdict.ok and verdict.residual < 1e-8
    assert verdict.averaged_compacts_dim == verdict.invariant_compacts_dim == 9
    assert spans_equal(dense_rows(eq.base, invariant_compacts_rows(eq)),
                       flatten(fpa_basis(fixed_point_algebra(sys))))
