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
    center,
    full_matrix_algebra,
    generate,
    is_separating,
)
from equivaria.reps import enumerate_irreps, regular_rep
from equivaria.spectrum import realized_commutant_dim
from oracles import (
    Dense,
    commutant,
    dense_gram,
    dense_is_separating,
    is_ideal,
    operator_norm,
    star_of,
    table_of,
)


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
    algs = [scalar_algebra(np.ones(6)),
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


def planted_units(blocks, pad):
    """The matrix units E_ab (x) 1_(m_i) of each block of (+)_i M_(n_i) (x)
    1_(m_i) (+) 0_pad, blocks [(n_i, m_i)]: one (n_i, n_i, N, N) array per
    block."""
    big = sum(n * m for n, m in blocks) + pad
    units, offset = [], 0
    for n, m in blocks:
        block = np.zeros((n, n, big, big), dtype=complex)
        block[..., offset:offset + n * m, offset:offset + n * m] = np.kron(
            np.eye(n * n).reshape(n, n, n, n), np.eye(m))
        units.append(block)
        offset += n * m
    return units


def planted_algebra(blocks, pad, seed):
    """(algebra, unit, conjugate): a seeded unitary conjugate u . u* of
    (+)_i M_(n_i) (x) 1_(m_i) (+) 0_pad (planted_units, scaled to unit
    norm), in a seeded orthonormal basis of the span, its unit and the
    conjugation."""
    units = planted_units(blocks, pad)
    big = units[0].shape[-1]
    basis = np.concatenate([block.reshape(-1, big, big) / np.sqrt(m)
                            for block, (_, m) in zip(units, blocks)])
    rng = np.random.default_rng(seed)

    def unitary(size):
        return np.linalg.qr(rng.standard_normal((size, size))
                            + 1j * rng.standard_normal((size, size)))[0]

    u, v = unitary(big), unitary(len(basis))
    planted = np.diag(np.arange(big) < big - pad).astype(complex)
    basis = np.tensordot(v, u @ basis @ u.conj().T, axes=1)
    return MatrixSpan(basis), u @ planted @ u.conj().T, lambda mats: u @ mats @ u.conj().T


@settings(settings.get_profile("derandomized"))
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_traces_star_unit_and_blocks_of_a_planted_algebra(blocks, pad, seed):
    span, unit, _ = planted_algebra(blocks, pad, seed)
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


# -- separation and commutants against the dense oracle -------------------------

SUBALGEBRAS = ("blocks", "diagonals", "copies", "one-diagonal", "corner", "zero")


def planted_subalgebra(units, kind, pick):
    """Generators of a subalgebra of the planted algebra with blocks
    `units` (planted_units), before conjugation: the blocks in the bit mask
    `pick` ("blocks"), every block's diagonal ("diagonals"), x (+) x on the
    first two blocks, of one size, and the others whole ("copies"), one
    block's diagonal and the others whole ("one-diagonal"), the first
    diagonal unit of one block and nothing else ("corner"), or none."""
    big = units[0].shape[-1]
    whole = [block.reshape(-1, big, big) for block in units]
    diagonal = [np.diagonal(block, axis1=0, axis2=1).transpose(2, 0, 1) for block in units]
    i = pick % len(units)
    if kind == "blocks":
        gens = [w for j, w in enumerate(whole) if pick >> j & 1] or whole[:1]
    elif kind == "diagonals":
        gens = diagonal
    elif kind == "copies":
        gens = [whole[0] + whole[1]] + whole[2:]
    elif kind == "one-diagonal":
        gens = whole[:i] + [diagonal[i]] + whole[i + 1:]
    elif kind == "corner":
        gens = [diagonal[i][:1]]
    else:
        gens = [np.zeros((0, big, big))]
    return np.concatenate(gens)


def planted_pair(blocks, pad, seed, kind, pick):
    """(B, A): A = planted_algebra(blocks, pad, seed) and B its subalgebra
    generated by planted_subalgebra(kind, pick), in A's frame."""
    alg, _, conjugate = planted_algebra(blocks, pad, seed)
    gens = conjugate(planted_subalgebra(planted_units(blocks, pad), kind, pick))
    return generate(gens, ambient_dim=alg.ambient_dim), alg


@settings(settings.get_profile("derandomized"), max_examples=20)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1), st.sampled_from(SUBALGEBRAS),
       st.integers(0, 7))
def test_separation_and_commutants_match_the_dense_oracle(blocks, pad, seed, kind, pick):
    if kind == "copies":
        blocks = [(blocks[0][0], 1 + pick % 2)] + blocks
    sub, alg = planted_pair(blocks, pad, seed, kind, pick)
    assert is_separating(sub, alg, seed) == dense_is_separating(sub, alg, seed)
    assert realized_commutant_dim(sub.mats) == commutant(sub).dim
    # A's commutant on C^N is (+)_i M_(m_i) (+) M_pad.
    assert realized_commutant_dim(alg.mats) == sum(m * m for _, m in blocks) + pad * pad


def diagonal_span(*rows):
    """The span of diagonal matrices with the given diagonals."""
    return generate(np.array([np.diag(r) for r in rows], dtype=complex), ambient_dim=len(rows[0]))


@pytest.mark.parametrize("sub, alg, reducible, merged, missing_unit", [
    # B = 0 on C^3: every block is its kernel, so every pair is merged.
    (MatrixSpan(np.zeros((0, 3, 3), dtype=complex)), np.eye(3), 0, 3, True),
    # C e_0 in C^3: the blocks of e_1 and e_2 share B's kernel.
    ([[1, 0, 0]], np.eye(3), 0, 1, True),
    # C (e_0 + e_1) in C^3: the blocks of e_0 and e_1 share B's character.
    ([[1, 1, 0]], np.eye(3), 0, 1, True),
    # The diagonals and the scalars in M_2 restrict reducibly.
    ([[1, 0], [0, 1]], None, 1, 0, False),
    ([[1, 1]], None, 1, 0, False),
])
def test_pinned_separation_reports(sub, alg, reducible, merged, missing_unit):
    sub = sub if isinstance(sub, MatrixSpan) else diagonal_span(*sub)
    alg = full_matrix_algebra(2) if alg is None else diagonal_span(*alg)
    report = is_separating(sub, alg)
    assert report == dense_is_separating(sub, alg)
    assert (len(report.reducible_blocks), len(report.merged_pairs), report.missing_unit) == \
        (reducible, merged, missing_unit)
    assert not report.separating


@pytest.mark.parametrize("blocks, kind, pick, reducible, merged, missing_unit", [
    # M_2 (+) 0 in M_2 (+) C: B's kernel is the block C alone.
    ([(2, 1), (1, 1)], "blocks", 1, (), (), True),
    # M_2 (x) 1_2 (+) 0 in M_2 (x) 1_2 (+) M_2: 0 on C^2 is reducible.
    ([(2, 2), (2, 1)], "blocks", 1, (1,), (), True),
    # The diagonals of M_2 (x) 1_2 (+) M_3: five characters, one block each.
    ([(2, 2), (3, 1)], "diagonals", 0, (0, 1), (), False),
    # C E_00 (x) 1_2 (+) 0 in M_2 (x) 1_2 (+) C: a kernel of dimension
    # 2 - tr(E_00 (x) 1_2) / 2 = 1 on each copy of M_2's block, and C's.
    ([(2, 2), (1, 1)], "corner", 0, (1,), ((0, 1),), True),
])
def test_pinned_planted_separation_reports(blocks, kind, pick, reducible, merged, missing_unit):
    sub, alg = planted_pair(blocks, 0, 0, kind, pick)
    report = is_separating(sub, alg)
    assert report == dense_is_separating(sub, alg)
    assert (report.reducible_blocks, report.merged_pairs, report.missing_unit) == \
        (reducible, merged, missing_unit)


def test_criterion_8_pairs_match_the_dense_oracle():
    """The first 50 seeds of criterion 8's sweep (test_acceptance)."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        n_gens = int(rng.integers(1, 3))
        gens = rng.standard_normal((n_gens, n, n)) + 1j * rng.standard_normal((n_gens, n, n))
        alg = generate(gens, ambient_dim=n)
        h = alg.element(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
        sub = generate([h], ambient_dim=n)
        assert is_separating(sub, alg, seed=seed) == dense_is_separating(sub, alg, seed=seed), seed
