"""Matrix *-algebras: closure, commutants, blocks, ideals, separation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivaria.groups import builtin_group
from equivaria.hilbmod import scalar_algebra, standard_module
from equivaria.linalg import component_labels
from equivaria.matalg import (
    AlgebraError,
    Blocks,
    MatrixSpan,
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
from oracles import Dense, dense_gram, is_ideal, operator_norm, star_of, table_of


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
    assert alg.algebra.closure_residual() < 1e-10
    assert alg.contains(np.eye(2))


def test_commutant_and_bicommutant():
    # Scalars in M3 have commutant M3; double commutant returns the algebra.
    scalars = MatrixSpan(np.eye(3, dtype=complex)[None] / np.sqrt(3))
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
    assert center(alg.algebra).dim == 2
    structure = block_decompose(alg.algebra)
    assert sorted(structure.sizes()) == [2, 3]
    for blk in structure.blocks:
        p = alg.element(blk.projection)
        assert np.abs(p @ p - p).max() < 1e-8


def test_group_algebra_blocks_match_irreps():
    for name in ("Z2", "Z2xZ2", "S3", "D8"):
        g = builtin_group(name)
        alg = generate(regular_rep(g).matrices, ambient_dim=g.order)
        sizes = sorted(block_decompose(alg.algebra).sizes())
        dims = sorted(r.dim for r in enumerate_irreps(g))
        assert sizes == dims


def test_cstar_identity_and_positivity():
    """The norm read off the left-regular matrix is the operator norm, and
    |a* a| = |a|^2 holds in coordinates."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    span = full_matrix_algebra(4)
    alg, c = span.algebra, Dense(span.mats).coefficients(a)
    assert abs(alg.norm(c) - operator_norm(a)) < 1e-9
    assert abs(alg.norm(alg.multiply(alg.adjoint(c), c)) - alg.norm(c) ** 2) < 1e-9


def test_nonunital_subalgebra_unit():
    # The corner C e11 inside M2: its own unit is e11, not the ambient identity.
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    alg = MatrixSpan(e11[None])
    assert not alg.contains(np.eye(2))
    assert np.abs(alg.element(alg.algebra.unit()) - e11).max() < 1e-10


def test_an_algebra_is_its_blocks():
    """The blocks' coordinates must partition the algebra's; stacks of one
    size are merged and ordered by size, and every operation reads the
    blocks: C (+) M_2 (+) C, with C's blocks at coordinates 0 and 5, against
    the dense tables of its embedding in M_4."""
    m2 = full_matrix_algebra(2).algebra
    one = np.ones((1, 1, 1, 1), dtype=complex)
    st = m2.blocks[0]
    with pytest.raises(AlgebraError, match="partition"):
        MatrixStarAlgebra(4, (Blocks(np.array([[0]]), one, one[..., 0], one[..., 0, 0]),
                              Blocks(np.array([[0, 1, 2, 3]]), st.table, st.star, st.traces)))
    alg = MatrixStarAlgebra(4, (Blocks(np.array([[0]]), one, one[..., 0], one[..., 0, 0]),
                                Blocks(st.index + 1, st.table, st.star, st.traces),
                                Blocks(np.array([[5]]), one, one[..., 0], one[..., 0, 0])))
    assert [b.index.tolist() for b in alg.blocks] == [[[0], [5]], [[1, 2, 3, 4]]]
    basis = np.zeros((6, 4, 4), dtype=complex)
    basis[0, 0, 0] = basis[5, 3, 3] = 1.0
    basis[1:5, 1:3, 1:3] = np.eye(4).reshape(4, 2, 2)
    dense = Dense(basis)
    assert np.abs(table_of(alg) - dense.structure).max() < 1e-12
    assert np.abs(star_of(alg) - dense.star).max() < 1e-12
    assert np.abs(alg.traces - dense.traces).max() < 1e-12
    assert np.abs(dense.element(alg.unit()) - np.eye(4)).max() < 1e-12
    rng = np.random.default_rng(3)
    f, h = rng.standard_normal((2, 3, 6)) + 1j * rng.standard_normal((2, 3, 6))
    ef, eh = dense.element(f), dense.element(h)
    assert np.abs(dense.element(alg.multiply(f, h)) - ef @ eh).max() < 1e-12
    assert np.abs(dense.element(alg.adjoint(f)) - ef.conj().swapaxes(1, 2)).max() < 1e-12
    assert np.abs(alg.norm(f) - [operator_norm(a) for a in ef]).max() < 1e-12
    assert sorted((b.size, b.multiplicity) for b in block_decompose(alg).blocks) == \
        [(1, 1), (1, 1), (2, 1)]
    with pytest.raises(AlgebraError, match="no unit"):
        MatrixSpan(np.array([[[0, 1], [0, 0]]], dtype=complex)).algebra.unit()


def components_by_touch(alg, rows):
    """MatrixStarAlgebra.components as it was written: the (rows, blocks)
    incidence, its Gram matrix as the graph, each row labeled by its least
    block's component."""
    ids, first = np.zeros(alg.dim, dtype=int), 0
    for stack in alg.blocks:
        ids[stack.index] = first + np.arange(len(stack.index))[:, None]
        first += len(stack.index)
    touch = (rows != 0) @ (ids[:, None] == np.arange(first))
    return component_labels(touch.T @ touch)[touch.argmax(axis=1)]


def test_components_are_those_of_the_incidence_graph():
    """Rows chain the blocks they touch; the labels are the incidence
    graph's, zero rows included, on C(6), on C (+) M_2 (+) C and on a
    direct sum of twelve blocks of three sizes."""
    m2 = full_matrix_algebra(2).algebra.blocks[0]
    one = np.ones((1, 1, 1, 1), dtype=complex)
    c = Blocks(np.array([[0], [5]]), np.concatenate([one] * 2), np.ones((2, 1, 1)),
               np.ones((2, 1)))
    algs = [scalar_algebra(6),
            MatrixStarAlgebra(4, (c, Blocks(m2.index + 1, m2.table, m2.star, m2.traces)))]
    sizes = [1, 4, 1, 4, 9, 1, 1, 4, 9, 1, 4, 1]
    ends = np.cumsum(sizes)
    perm = np.random.default_rng(0).permutation(ends[-1])
    algs.append(MatrixStarAlgebra(1, tuple(
        Blocks(perm[None, e - s:e], np.zeros((1, s, s, s)), np.zeros((1, s, s)), np.zeros((1, s)))
        for s, e in zip(sizes, ends))))
    rng = np.random.default_rng(1)
    for alg in algs:
        for _ in range(50):
            r = int(rng.integers(1, 12))
            mask = rng.random((r, alg.dim)) < rng.random() * 0.3
            rows = mask * rng.standard_normal((r, alg.dim))
            assert np.array_equal(alg.components(rows), components_by_touch(alg, rows))


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
    alg = MatrixSpan(diag)
    scalars = MatrixSpan(np.eye(2, dtype=complex)[None] / np.sqrt(2))
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
    sub = MatrixSpan(diag)
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
    return MatrixSpan(basis), u @ planted @ u.conj().T


@settings(settings.get_profile("derandomized"))
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_traces_star_unit_and_blocks_of_a_planted_algebra(blocks, pad, seed):
    span, unit = planted_algebra(blocks, pad, seed)
    basis, alg = span.mats, span.algebra
    assert alg.traces is alg.traces and span.algebra is alg
    assert np.abs(alg.traces - np.einsum("kii->k", basis)).max() < 1e-12
    # <b_l, b_i*> = sum_(a, b) conj(b_l[a, b]) conj(b_i[b, a]).
    star = star_of(alg)
    assert np.abs(star - np.einsum("lab,iba->li", basis.conj(), basis.conj())).max() < 1e-12
    assert np.abs(np.tensordot(star.T, basis, axes=1)
                  - basis.conj().swapaxes(1, 2)).max() < 1e-10
    assert np.abs(span.element(alg.unit()) - unit).max() < 1e-10
    # The trace state on b_i* b_j is tr(b_i* b_j) / tr e = delta_ij / rank e.
    rank = sum(n * m for n, m in blocks)
    assert np.abs(dense_gram(standard_module(alg)) - np.eye(alg.dim) / rank).max() < 1e-12
    structure = block_decompose(alg)
    assert sorted((b.size, b.multiplicity) for b in structure.blocks) == sorted(blocks)
    assert np.abs(span.element(sum(b.projection for b in structure.blocks)) - unit).max() < 1e-8
