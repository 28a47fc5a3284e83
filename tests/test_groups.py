"""Group tables, subgroups, and semidirect decompositions."""
import numpy as np
import pytest

from equivaria.groups import (
    BUILTIN_GROUPS,
    FiniteGroup,
    GroupError,
    builtin_group,
    cyclic,
    dihedral,
    direct_product,
    quaternion,
    semidirect_decomposition,
    symmetric,
)


def test_builtin_orders():
    expected = {"trivial": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6,
                "Z7": 7, "Z8": 8, "Z2xZ2": 4, "S3": 6, "D8": 8, "Q8": 8}
    for name, order in expected.items():
        assert builtin_group(name).order == order
    assert set(BUILTIN_GROUPS) == set(expected)


def test_cyclic_structure():
    g = cyclic(5)
    for a in g.elements():
        assert g.mul[a, g.inverse(a)] == 0
        assert g.product(a, a) == (2 * a) % 5


def test_bad_table_rejected():
    with pytest.raises(GroupError):
        FiniteGroup(np.array([[0, 1], [0, 1]]))
    with pytest.raises(GroupError):
        FiniteGroup(np.array([[1, 0], [0, 1]]))


def test_the_first_element_without_an_inverse_is_named():
    # 1 * 1 = 1 in a table whose identity and associativity hold: element 1
    # has no inverse, and neither has 2.
    table = np.array([[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    with pytest.raises(GroupError, match="element 1 lacks a two-sided inverse"):
        FiniteGroup(table)


def test_subgroup_reindexing():
    g = symmetric(3)
    sub = g.subgroup([w for w in g.elements() if g.product(w, w, w) == 0])
    assert sub.group.order == 3
    for v in range(sub.group.order):
        assert sub.from_parent(sub.to_parent(v)) == v
    # The reindexed table is the parent's, read at the embedding.
    emb = list(sub.embedding)
    for a in range(sub.group.order):
        for b in range(sub.group.order):
            assert emb[sub.group.mul[a, b]] == g.mul[emb[a], emb[b]]


def test_direct_product_indexing():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    # (a1, b1)(a2, b2) = (a1+a2, b1+b2) with index 3a + b.
    assert g.mul[3 * 1 + 1, 3 * 1 + 2] == 3 * 0 + 0


def test_semidirect_s3():
    g = symmetric(3)
    normal = [w for w in g.elements() if g.product(w, w, w) == 0]
    complement = [0, min(set(g.elements()) - set(normal))]
    factor = semidirect_decomposition(g, normal, complement)
    assert len(factor) == 6
    for w, (u, v) in factor.items():
        assert g.product(u, v) == w


def test_semidirect_rejects_non_normal():
    g = symmetric(3)
    transposition = min(w for w in g.elements()
                        if w != 0 and g.product(w, w) == 0)
    with pytest.raises(GroupError):
        semidirect_decomposition(g, [0, transposition], [0, 1, 2])


def test_dihedral_and_quaternion_relations():
    d8 = dihedral(8)
    # s r s^-1 = r^-1 with r = 1, s = 4 in the builtin ordering.
    assert d8.conjugate(4, 1) == d8.inverse(1)
    q8 = quaternion()
    center = [w for w in q8.elements()
              if all(q8.mul[w, v] == q8.mul[v, w] for v in q8.elements())]
    assert len(center) == 2
