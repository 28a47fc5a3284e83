"""Matrix *-algebras: closure, commutants, blocks, ideals, separation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivaria.groups import builtin_group
from equivaria.hilbmod import standard_module
from equivaria.matalg import (
    AlgebraError,
    MatrixStarAlgebra,
    block_decompose,
    check_stone_weierstrass,
    commutant,
    center,
    full_matrix_algebra,
    generate,
    is_separating,
)
from equivaria.reps import enumerate_irreps, regular_rep
from oracles import is_ideal, operator_norm


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for m in mats:
        out[i:i + m.shape[0], i:i + m.shape[0]] = m
        i += m.shape[0]
    return out


def test_generate_full_matrix_algebra():
    nil = np.array([[[0, 1], [0, 0]]], dtype=complex)
    alg = generate(nil, ambient_dim=2)
    assert alg.dim == 4
    assert alg.closure_residual() < 1e-10
    assert alg.is_unital()


def test_commutant_and_bicommutant():
    # Scalars in M3 have commutant M3; double commutant returns the algebra.
    scalars = MatrixStarAlgebra(3, np.eye(3, dtype=complex)[None] / np.sqrt(3))
    assert commutant(scalars).dim == 9
    rng = np.random.default_rng(0)
    gens = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    alg = generate(gens, ambient_dim=3)
    double = commutant(commutant(alg))
    assert double.dim == alg.dim


def test_block_decomposition_m2_plus_m3():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = generate([block_diag(a, np.zeros((3, 3))),
                    block_diag(np.zeros((2, 2)), b)], ambient_dim=5)
    assert alg.dim == 13
    assert center(alg).dim == 2
    structure = block_decompose(alg)
    assert sorted(structure.sizes()) == [2, 3]
    for blk in structure.blocks:
        p = alg.element(blk.projection)
        assert np.abs(p @ p - p).max() < 1e-8


def test_group_algebra_blocks_match_irreps():
    for name in ("Z2", "Z2xZ2", "S3", "D8"):
        g = builtin_group(name)
        alg = generate(regular_rep(g).matrices, ambient_dim=g.order)
        sizes = sorted(block_decompose(alg).sizes())
        dims = sorted(r.dim for r in enumerate_irreps(g))
        assert sizes == dims


def test_cstar_identity_and_positivity():
    """The norm read off the left-regular matrix is the operator norm, and
    |a* a| = |a|^2 holds in coordinates."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alg = full_matrix_algebra(4)
    c = alg.coefficients(a)
    assert abs(alg.norm(c) - operator_norm(a)) < 1e-9
    assert abs(alg.norm(alg.multiply(alg.adjoint(c), c)) - alg.norm(c) ** 2) < 1e-9


def test_nonunital_subalgebra_unit():
    # The corner C e11 inside M2: its own unit is e11, not the ambient identity.
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    alg = MatrixStarAlgebra(2, e11[None])
    assert not alg.is_unital()
    assert np.abs(alg.element(alg.unit()) - e11).max() < 1e-10


def test_an_algebra_is_given_by_a_basis_or_by_its_tables():
    """A basis fixes the star table and traces, so they are not also given;
    an algebra without one is built from all three tables, and its span
    methods raise."""
    plain = generate([np.diag([1.0, 2.0]).astype(complex)], ambient_dim=2)
    with pytest.raises(AlgebraError, match="reads its star table"):
        MatrixStarAlgebra(2, plain.basis, plain.structure, 0.0, plain.star)
    with pytest.raises(AlgebraError, match="reads its star table"):
        MatrixStarAlgebra(2, plain.basis, trace_values=plain.traces)
    with pytest.raises(AlgebraError, match="three tables"):
        MatrixStarAlgebra(2, None, plain.structure)
    tables = MatrixStarAlgebra.from_tables(2, plain.structure, plain.star, plain.traces)
    assert tables.basis is None and tables.dim == plain.dim
    assert np.abs(tables.unit() - plain.unit()).max() < 1e-12
    tables.validate()
    with pytest.raises(AlgebraError, match="no basis"):
        tables.element(tables.unit())


def test_ideals_in_block_algebra():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = generate([block_diag(a, np.zeros((3, 3))),
                    block_diag(np.zeros((2, 2)), b)], ambient_dim=5)
    first = generate([block_diag(a, np.zeros((3, 3)))], ambient_dim=5)
    second = generate([block_diag(np.zeros((2, 2)), b)], ambient_dim=5)
    assert is_ideal(first, alg) and is_ideal(second, alg)


def test_separating_requires_whole_algebra():
    # Scalars inside C^2 (diagonal) merge the two characters: not separating.
    diag = np.zeros((2, 2, 2), dtype=complex)
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    alg = MatrixStarAlgebra(2, diag)
    scalars = MatrixStarAlgebra(2, np.eye(2, dtype=complex)[None] / np.sqrt(2))
    report = is_separating(scalars, alg)
    assert not report.separating
    assert report.merged_pairs
    verdict = check_stone_weierstrass(scalars, alg)
    assert verdict.holds and not verdict.separating
    whole = check_stone_weierstrass(alg, alg)
    assert whole.holds and whole.separating and whole.dims_equal


def test_separating_detects_reducible_restriction():
    # Diagonals inside M2 restrict reducibly on the single block.
    diag = np.zeros((2, 2, 2), dtype=complex)
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    sub = MatrixStarAlgebra(2, diag)
    report = is_separating(sub, full_matrix_algebra(2))
    assert not report.separating
    assert report.reducible_blocks == (0,)


def planted_algebra(blocks, pad, seed):
    """(algebra, unit): a seeded unitary conjugate of (+)_i M_(n_i) (x) 1_(m_i)
    (+) 0_pad for blocks [(n_i, m_i)], in a seeded orthonormal basis of the span."""
    big = sum(n * m for n, m in blocks) + pad
    basis, offset = [], 0
    for n, m in blocks:
        span = slice(offset, offset + n * m)
        for e_ab in np.eye(n * n).reshape(n * n, n, n):
            mat = np.zeros((big, big), dtype=complex)
            mat[span, span] = np.kron(e_ab, np.eye(m)) / np.sqrt(m)
            basis.append(mat)
        offset += n * m
    rng = np.random.default_rng(seed)

    def unitary(size):
        return np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))[0]

    u, v = unitary(big), unitary(len(basis))
    planted = np.diag(np.arange(big) < offset).astype(complex)
    basis = np.tensordot(v, u @ np.array(basis) @ u.conj().T, axes=1)
    return MatrixStarAlgebra(big, basis), u @ planted @ u.conj().T


@settings(settings.get_profile("derandomized"))
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_traces_star_unit_and_blocks_of_a_planted_algebra(blocks, pad, seed):
    alg, unit = planted_algebra(blocks, pad, seed)
    basis = alg.basis
    assert alg.traces is alg.traces and alg.star is alg.star
    assert np.abs(alg.traces - np.einsum("kii->k", basis)).max() < 1e-12
    # <b_l, b_i*> = sum_(a, b) conj(b_l[a, b]) conj(b_i[b, a]).
    assert np.abs(alg.star - np.einsum("lab,iba->li", basis.conj(), basis.conj())).max() < 1e-12
    assert np.abs(np.tensordot(alg.star.T, basis, axes=1)
                  - basis.conj().swapaxes(1, 2)).max() < 1e-10
    assert np.abs(alg.element(alg.unit()) - unit).max() < 1e-10
    # The trace state on b_i* b_j is tr(b_i* b_j) / tr e = delta_ij / rank e.
    rank = sum(n * m for n, m in blocks)
    assert np.abs(standard_module(alg).gram() - np.eye(alg.dim) / rank).max() < 1e-12
    structure = block_decompose(alg)
    assert sorted((b.size, b.multiplicity) for b in structure.blocks) == sorted(blocks)
    assert np.abs(alg.element(sum(b.projection for b in structure.blocks)) - unit).max() < 1e-8
