"""Equivariant systems, fixed-point algebras, and crossed products."""
import numpy as np
import pytest

from equivaria.groups import FiniteGroup, builtin_group, cyclic, symmetric
from equivaria.hilbmod import scalar_translation_action
from equivaria.matalg import MatrixSpan, block_decompose, full_matrix_algebra
from equivaria.linalg import flatten, spans_equal
from equivaria.reps import enumerate_irreps, regular_rep
import oracles
from oracles import (
    Dense,
    DenseAction,
    alpha_matrix,
    base_basis,
    dense_crossed_product,
    embed_function,
    embedded_algebra,
    function_algebra,
    function_algebra_action,
)
from equivaria.systems import (
    AlgebraAction,
    EquivariantSystem,
    SystemError,
    anticomplete_point_system,
    crossed_product,
    dihedral_plane_system,
    fixed_point_algebra,
    iterated_crossed_iso,
    left_translation_system,
    one_point_system,
    phi_iso,
    restrict_system,
    scalar_algebra,
    trivial_system,
    z2_line_system,
    z2xz2_line_system,
)


def flip_system(n_points=3):
    """Z/2 flipping the symmetric grid, scalar trivial cocycle."""
    g = cyclic(2)
    pts = tuple(float(j) for j in range(-(n_points // 2), n_points // 2 + 1))
    action = np.stack([np.arange(n_points), np.arange(n_points)[::-1]])
    coc = np.ones((2, n_points, 1, 1), dtype=complex)
    return EquivariantSystem(g, pts, action, 1, coc, name="flip")


def test_cocycle_identity_enforced():
    g = cyclic(2)
    bad = np.ones((2, 1, 1, 1), dtype=complex)
    bad[1, 0, 0, 0] = 2.0  # not unitary
    with pytest.raises(SystemError):
        EquivariantSystem(g, ("pt",), np.zeros((2, 1), dtype=np.intp), 1, bad)


def test_a_nan_cocycle_entry_is_rejected():
    """NaN passes every bound written `norm > bound`; each check of the
    cocycle is failed by it."""
    sys = z2_line_system(2)
    coc = np.array(sys.cocycle)
    coc[1, 0, 0, 0] = np.nan
    with pytest.raises(SystemError, match=r"cocycle I_\(1,0\) is not unitary"):
        EquivariantSystem(sys.group, sys.points, sys.action, 2, coc)


def z3_points_system(action=None, cocycle=None):
    """Z/3 on three points, scalar fibers; by default trivial action and cocycle."""
    action = np.zeros((3, 3), dtype=np.intp) + np.arange(3) if action is None else action
    cocycle = np.ones((3, 3, 1, 1), dtype=complex) if cocycle is None else cocycle
    return EquivariantSystem(cyclic(3), (0, 1, 2), action, 1, cocycle)


def test_validation_names_the_first_element_that_does_not_permute():
    action = np.array([[0, 1, 2], [0, 0, 1], [1, 1, 2]])
    with pytest.raises(SystemError, match=r"^element 1 does not permute the points$"):
        z3_points_system(action=action)


def test_validation_rejects_permutations_that_are_not_an_action():
    # Two transpositions: (w1, w2) = (1, 1) and (2, 2), among others, fail.
    action = np.array([[0, 1, 2], [1, 0, 2], [0, 2, 1]])
    with pytest.raises(SystemError, match=r"^action is not a group action$"):
        z3_points_system(action=action)


def test_validation_names_the_first_cocycle_that_is_not_unitary():
    coc = np.ones((3, 3, 1, 1), dtype=complex)
    coc[1, 0] = 2.0
    coc[0, 2] = 3.0
    with pytest.raises(SystemError, match=r"^cocycle I_\(0,2\) is not unitary$"):
        z3_points_system(cocycle=coc)


def test_validation_names_the_first_triple_where_the_cocycle_identity_fails():
    coc = np.ones((3, 3, 1, 1), dtype=complex)
    coc[1, 0], coc[2, 0] = 1j, -1.0
    coc[1, 2] = 1j
    mul = cyclic(3).mul
    failing = [(w1, w2, x) for w1 in range(3) for w2 in range(3) for x in range(3)
               if abs(coc[w1, x, 0, 0] * coc[w2, x, 0, 0] - coc[mul[w1, w2], x, 0, 0]) > 1e-9]
    # Loop order puts (1, 1, 2) first; point order would put (1, 2, 0) first.
    assert failing[0] == (1, 1, 2) and (1, 2, 0) in failing
    with pytest.raises(SystemError,
                       match=r"^cocycle identity fails at \(w1=1, w2=1, x=2\)$"):
        z3_points_system(cocycle=coc)


def test_orbits():
    sys = flip_system(5)
    orbits = sys.orbits
    assert orbits is sys.orbits
    assert orbits.representatives == (0, 1, 2)
    assert orbits.members == ((0, 4), (1, 3), (2,))
    assert orbits.least.tolist() == [0, 1, 2, 1, 0]
    assert orbits.mover.tolist() == [0, 0, 0, 1, 1]
    assert orbits.stabilizers == ((0,), (0,), (0, 1), (0,), (0,))
    assert [(stab, xs.tolist()) for stab, xs in orbits.by_stabilizer] == [
        ((0,), [0, 1, 3, 4]), ((0, 1), [2])]
    assert np.array_equal(orbits.fixes, sys.action == np.arange(5))
    with pytest.raises(ValueError):
        orbits.least[0] = 1


def test_a_validated_system_cannot_be_edited():
    """The system keeps read-only copies of its action and cocycle, and its
    group of its tables: an in-place write raises, and an edit of the arrays
    passed in changes nothing, so the cached orbits cannot go stale."""
    line = z2_line_system(1)
    action, cocycle, mul = line.action.copy(), line.cocycle.copy(), line.group.mul.copy()
    sys = EquivariantSystem(FiniteGroup(mul, "Z2"), line.points, action, 2, cocycle)
    members = sys.orbits.members
    for array in (sys.action, sys.cocycle, sys.group.mul, sys.group.inv):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = array[0]
    action[1] = [0, 1, 2]
    cocycle[1] = np.eye(2)
    mul[1] = [0, 1]
    assert np.array_equal(sys.action, line.action)
    assert np.array_equal(sys.cocycle, line.cocycle)
    assert np.array_equal(sys.group.mul, line.group.mul)
    assert sys.orbits.members == members == ((0, 2), (1,))


@pytest.mark.parametrize("n", [1, 2])
def test_z2_line_fixed_point_algebra(n):
    sys = z2_line_system(n)
    fpa = fixed_point_algebra(sys)
    assert fpa.dim == 4 * n + 2
    sizes = sorted(block_decompose(fpa).sizes())
    assert sizes == [1, 1] + [2] * n


def test_alpha_is_star_automorphism():
    sys = z2_line_system(2)
    rng = np.random.default_rng(0)
    falg = function_algebra(sys)
    dense = Dense(base_basis(falg))
    k = falg.dim
    for w in sys.group.elements():
        mat = alpha_matrix(sys, w)
        for _ in range(3):
            ca, cb = (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)))
            a, b = dense.element(ca), dense.element(cb)
            assert np.abs(dense.element(falg.multiply(ca, cb)) - a @ b).max() < 1e-12
            lhs = dense.element(mat @ falg.multiply(ca, cb))
            rhs = dense.element(mat @ ca) @ dense.element(mat @ cb)
            assert np.abs(lhs - rhs).max() < 1e-9
            star = dense.element(mat @ falg.adjoint(ca))
            assert np.abs(star - dense.element(mat @ ca).conj().T).max() < 1e-9


@pytest.mark.parametrize("tol", [1e-9, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["z2-line-2", "dihedral-plane", "z2xz2-line-2"])
def test_invariant_functions_are_fixed(name, tol):
    """The orbit cut's singular values are 0 and sqrt(2 |W_x|), so every
    tolerance returns the same orthonormal invariant functions.  The kernel
    over the whole ambient space, stacked over W's generators, returned 24
    functions on dihedral-plane at tol 0.5, some moved by 2.0."""
    sys = {"z2-line-2": z2_line_system(2), "dihedral-plane": dihedral_plane_system(),
           "z2xz2-line-2": z2xz2_line_system(2)}[name]
    funcs = fixed_point_algebra(sys, tol).functions
    rows = funcs.reshape(len(funcs), -1)
    assert len(funcs) == fixed_point_algebra(sys).dim
    assert np.abs(rows @ rows.conj().T - np.eye(len(rows))).max() < 1e-12
    for w in sys.group.elements():
        assert np.abs(alpha_matrix(sys, w) @ rows.T - rows.T).max() < 1e-9


def test_orbit_algebra_orbit_count():
    """C(X/W) for the flip of five points: one coordinate per orbit, each
    the normalised indicator 1_O / sqrt|O|, with trace sqrt|O|."""
    sys = flip_system(5)
    q = scalar_algebra([len(o) for o in sys.orbits.members])
    assert q.dim == 3 and q.ambient_dim == 5
    assert sorted(len(o) for o in sys.orbits.members) == [1, 2, 2]
    assert np.allclose(q.traces ** 2, [2, 2, 1])
    assert np.allclose(q.unit(), q.traces)


def test_group_algebra_crossed_product():
    # One point, trivial action: C >| W is the group algebra.
    for name in ("Z2", "S3"):
        g = builtin_group(name)
        sys = trivial_system(1, 1, g)
        cp = crossed_product(scalar_translation_action(sys))
        sizes = sorted(block_decompose(cp.algebra).sizes())
        assert sizes == sorted(r.dim for r in enumerate_irreps(g))


def test_free_orbit_crossed_product_is_full():
    # Z/2 swapping two points: C(X) >| Z2 = M2.
    g = cyclic(2)
    action = np.array([[0, 1], [1, 0]])
    coc = np.ones((2, 2, 1, 1), dtype=complex)
    sys = EquivariantSystem(g, (0.0, 1.0), action, 1, coc, name="swap")
    cp = crossed_product(scalar_translation_action(sys))
    assert cp.algebra.dim == 4
    assert spans_equal(embedded_algebra(cp).basis_rows(),
                       flatten(full_matrix_algebra(4).mats)) is False
    assert sorted(block_decompose(cp.algebra).sizes()) == [2]


def test_phi_iso_on_flip_grid():
    witness, cp, target, phi = phi_iso(flip_system(5))
    assert witness.ok
    assert witness.multiplicative_residual < 1e-9


def test_iterated_crossed_iso_s3():
    g = symmetric(3)
    rotations = [w for w in g.elements() if g.product(w, w, w) == 0]
    complement = [0, min(set(g.elements()) - set(rotations))]
    sys = trivial_system(2, 1, g)
    action = scalar_translation_action(sys)
    witness = iterated_crossed_iso(action, rotations, complement)
    assert witness.ok
    assert witness.multiplicative_residual < 1e-9


def test_restrict_system():
    sys = z2xz2_line_system(2)
    sub_sys, sub = restrict_system(sys, [0, 1])
    assert sub_sys.group.order == 2
    # The restricted factor is exactly the Z/2 line system.
    line = z2_line_system(2)
    assert np.array_equal(sub_sys.action, line.action)
    assert np.abs(sub_sys.cocycle - line.cocycle).max() < 1e-12


def test_left_translation_embedding():
    sys = flip_system(3)
    target = left_translation_system(sys)
    assert target.fiber_dim == sys.group.order
    k = np.zeros((3, 2, 2), dtype=complex)
    k[0] = np.eye(2)
    mat = embed_function(target, k)
    assert mat.shape == (6, 6)


def test_one_point_regular_rep_fpa():
    g = symmetric(3)
    sys = one_point_system(g, regular_rep(g).matrices)
    fpa = fixed_point_algebra(sys)
    # The commutant of the regular representation has dimension sum(mult^2).
    assert fpa.dim == 6
    assert sorted(block_decompose(fpa).sizes()) == [1, 1, 2]


def test_anticomplete_fixed_points():
    sys = anticomplete_point_system()
    fpa = fixed_point_algebra(sys)
    assert fpa.dim == 1


def test_dihedral_plane_validates():
    sys = dihedral_plane_system()
    assert sys.n_points == 17
    assert len(sys.orbits.members) == 4


def scalar_action(group, perm):
    """The action beta_w(delta_j) = delta_(perm[w, j]) on C(X), X the
    points of the table."""
    alg = function_algebra(trivial_system(np.shape(perm)[1]))
    return AlgebraAction(group, alg, np.asarray(perm))


def dense_scalar_action(group, maps):
    """The dense action with the given maps on C(X), X the points of the
    maps (oracles.DenseAction)."""
    return DenseAction(group, function_algebra(trivial_system(np.shape(maps)[1])), maps)


def conjugation_maps(g):
    """Ad(g) on M_2 in the matrix-unit basis: column (i, j) is g E_ij g^-1."""
    units = np.eye(4).reshape(4, 2, 2)
    return np.stack([(g @ e @ np.linalg.inv(g)).reshape(-1) for e in units], axis=1)


def shifts(n, step=1):
    """Z/n by powers of the shift of n points, delta_j -> delta_(j + step)."""
    return (np.arange(n) + step * np.arange(n)[:, None]) % n


def test_action_validation_accepts_actions_by_automorphisms():
    """C(X)'s translations and a swap of two points by index; C(X, M_2)'s
    alpha and a conjugation of M_2, which are not permutations, through
    the dense oracle."""
    for sys in (z2_line_system(1), dihedral_plane_system()):
        scalar_translation_action(sys).validate()
        function_algebra_action(sys).validate()
    scalar_action(cyclic(2), [[0, 1], [1, 0]]).validate()
    # Conjugation by a unitary is a *-automorphism of M_2.
    flip = np.array([[0.0, 1j], [-1j, 0.0]])
    DenseAction(cyclic(2), full_matrix_algebra(2).algebra,
                np.stack([np.eye(4), conjugation_maps(flip)])).validate()


def test_action_validation_rejects_each_broken_axiom():
    """Permutations that do not act as a group, by index; a reflection and
    a skew conjugation, which no permutation table can state, through the
    dense oracle with the same messages."""
    # A reflection of C^2: an involutive, *-preserving linear map of C(X)
    # that is not multiplicative.
    reflection = np.array([[0.6, 0.8], [0.8, -0.6]])
    # Conjugation by an invertible, non-unitary g with g^2 = 1: an algebra
    # automorphism of M_2 that does not commute with the involution.
    skew = np.array([[1.0, 1.0], [0.0, -1.0]])
    mutants = [
        (scalar_action(cyclic(2), [[1, 0], [0, 1]]), crossed_product, "identity"),
        (scalar_action(cyclic(2), [[0, 1, 2], [1, 2, 0]]), crossed_product, "homomorphism"),
        (dense_scalar_action(cyclic(2), [np.eye(2), reflection]), dense_crossed_product,
         "multiplicative"),
        (DenseAction(cyclic(2), full_matrix_algebra(2).algebra,
                     np.stack([np.eye(4), conjugation_maps(skew)])), dense_crossed_product,
         "involution"),
    ]
    for action, cross, message in mutants:
        with pytest.raises(SystemError, match=message):
            action.validate()
        with pytest.raises(SystemError, match=message):
            cross(action)


def summand_swap_basis():
    """span{E11, (E22 + E33) / sqrt 2} in M_3, one block."""
    basis = np.zeros((2, 3, 3), dtype=complex)
    basis[0, 0, 0] = 1.0
    basis[1, 1, 1] = basis[1, 2, 2] = 1.0 / np.sqrt(2.0)
    return basis


def test_crossed_product_rejects_an_action_that_does_not_preserve_the_trace():
    """A = span{E11, (E22 + E33) / sqrt 2} in M_3 with the two summands
    swapped: a *-automorphism, but the orthonormal basis goes to E22 + E33,
    of norm sqrt 2, and E11 / sqrt 2, so the map is not unitary, and the
    dense oracle rejects it.  Swapping the two coordinates instead, as a
    permutation, is unitary but not multiplicative."""
    alg = MatrixSpan(summand_swap_basis()).algebra
    swap = np.array([[0.0, 1.0 / np.sqrt(2.0)], [np.sqrt(2.0), 0.0]])
    action = DenseAction(cyclic(2), alg, np.stack([np.eye(2), swap]))
    action.validate()
    with pytest.raises(SystemError, match="does not preserve the trace"):
        dense_crossed_product(action)
    with pytest.raises(SystemError, match="multiplicative"):
        crossed_product(AlgebraAction(cyclic(2), alg, [[0, 1], [1, 0]]))


def powers(gen, order):
    """[gen^0, ..., gen^(order - 1)]: a homomorphism from Z/order that sends
    the generator 1 to `gen`, when gen^order = 1."""
    return np.stack([np.linalg.matrix_power(gen, j) for j in range(order)])


def test_generator_checks_reject_each_mutant_of_z4():
    """Z/4 = <1>: multiplicativity, the star and unitarity are read at 1
    only, after the homomorphism check on all pairs, so a generator map that
    breaks one of them is rejected, and so are maps that are automorphisms
    at the generator but not a homomorphism.  The permutations are checked
    by index, the other maps by the dense oracle."""
    assert cyclic(4).generators() == (1,)
    # A quarter turn of span{delta_0, delta_1}: real, so *-preserving, and
    # orthogonal of order 4, but not multiplicative.
    quarter = np.eye(4)
    quarter[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    # Conjugation by g = [[1, 1], [0, -1]], g^2 = 1: an automorphism of M_2
    # that does not commute with the involution.
    skew = conjugation_maps(np.array([[1.0, 1.0], [0.0, -1.0]]))
    # Each map a permutation, but beta_2 = 1 != beta_1^2.
    not_hom = shifts(4)
    not_hom[2] = np.arange(4)
    mutants = [
        (dense_scalar_action(cyclic(4), powers(quarter, 4)), "multiplicative"),
        (DenseAction(cyclic(4), full_matrix_algebra(2).algebra, powers(skew, 4)), "involution"),
        (scalar_action(cyclic(4), not_hom), "homomorphism"),
    ]
    for action, message in mutants:
        with pytest.raises(SystemError, match=message):
            action.validate()
    scalar_action(cyclic(4), shifts(4)).validate()
    # The summand swap of span{E11, (E22 + E33) / sqrt 2} at the generator:
    # a *-automorphism whose matrix is not unitary.
    swap = np.array([[0.0, 1.0 / np.sqrt(2.0)], [np.sqrt(2.0), 0.0]])
    action = DenseAction(cyclic(4), MatrixSpan(summand_swap_basis()).algebra, powers(swap, 4))
    action.validate()
    with pytest.raises(SystemError, match="does not preserve the trace"):
        dense_crossed_product(action)


def test_relation_check_rejects_an_embedding_that_breaks_covariance(monkeypatch):
    """C(4 points) >| Z/4 by the shift, embedded as if Z/4 shifted the other
    way: relations (1), (2) and (4) hold, and covariance (3), checked at the
    generator only, fails there."""
    action = scalar_action(cyclic(4), shifts(4))
    cp = crossed_product(action)
    assert oracles.relation_residual(cp) < 1e-12
    other = scalar_action(cyclic(4), shifts(4, -1))
    crossed_basis = oracles.crossed_basis
    monkeypatch.setattr(oracles, "crossed_basis", lambda _, basis: crossed_basis(other, basis))
    assert oracles.relation_residual(cp) > 1e-3
