"""Group tables, subgroups, and semidirect decompositions."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import oracles

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
from equivaria.morita import semidirect_reduction
from equivaria.systems import z2xz2_line_system


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


@pytest.mark.parametrize("call", [
    lambda: cyclic(2).is_subgroup([0, 5]),
    lambda: cyclic(2).is_subgroup([0, -1]),
    lambda: cyclic(4).is_normal([0, 4]),
    lambda: cyclic(4).subgroup([0, -2]),
    lambda: cyclic(4).generated_subgroup([7]),
    lambda: cyclic(4).generated_subgroup([-1]),
    lambda: semidirect_decomposition(cyclic(4), [0, 2], [0, -1]),
    lambda: semidirect_reduction(z2xz2_line_system(1), [0, 2], [0, 7]),
])
def test_an_element_outside_the_group_raises_group_error(call):
    """Neither an IndexError nor an index read from the end of the table."""
    with pytest.raises(GroupError, match="are not all elements of"):
        call()


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
    assert d8.product(4, 1, d8.inverse(4)) == d8.inverse(1)
    q8 = quaternion()
    center = [w for w in q8.elements()
              if all(q8.mul[w, v] == q8.mul[v, w] for v in q8.elements())]
    assert len(center) == 2


def cyclic_from_residues(n: int) -> FiniteGroup:
    return FiniteGroup(oracles.table_from_elements(range(n), lambda a, b: (a + b) % n, 0),
                       name=f"Z{n}")


BUILTIN_ORACLES = {
    **{f"Z{n}": lambda n=n: cyclic_from_residues(n) for n in range(2, 9)},
    "trivial": lambda: cyclic_from_residues(1),
    "Z2xZ2": lambda: oracles.direct_product_from_pairs(cyclic_from_residues(2),
                                                       cyclic_from_residues(2)),
    "S3": lambda: oracles.symmetric_from_permutations(3),
    "D8": lambda: oracles.dihedral_from_pairs(8),
    "Q8": oracles.quaternion_from_units,
}


# Every table the package, its tests and its benchmark build, with the
# element-tuple construction it must equal.
ORACLE_TABLES = {
    **{f"D{2 * n}": (lambda n=n: dihedral(2 * n), lambda n=n: oracles.dihedral_from_pairs(2 * n))
       for n in range(1, 13)},
    **{f"S{n}": (lambda n=n: symmetric(n), lambda n=n: oracles.symmetric_from_permutations(n))
       for n in range(1, 6)},
    "Q8": (quaternion, oracles.quaternion_from_units),
    **{f"builtin {name}": (lambda name=name: builtin_group(name),
                           BUILTIN_ORACLES[name]) for name in BUILTIN_GROUPS},
    "Z2xZ3": (lambda: direct_product(cyclic(2), cyclic(3)),
              lambda: oracles.direct_product_from_pairs(cyclic(2), cyclic(3))),
    "Q8xZ2": (lambda: direct_product(quaternion(), cyclic(2)),
              lambda: oracles.direct_product_from_pairs(quaternion(), cyclic(2))),
    "S3xZ3": (lambda: direct_product(symmetric(3), cyclic(3)),
              lambda: oracles.direct_product_from_pairs(symmetric(3), cyclic(3))),
}


@pytest.mark.parametrize("label", ORACLE_TABLES)
def test_tables_are_their_element_tuple_constructions(label):
    build, oracle = ORACLE_TABLES[label]
    g, expected = build(), oracle()
    assert np.array_equal(g.mul, expected.mul) and np.array_equal(g.inv, expected.inv)
    assert g.name == expected.name


def closure(g, elems) -> set:
    """The subgroup generated by elems, one product at a time."""
    span, frontier = {0}, [0]
    while frontier:
        frontier = [c for c in {g.product(a, b) for a in frontier for b in elems} if c not in span]
        span.update(frontier)
    return span


def brute_is_subgroup(g, s: set) -> bool:
    return 0 in s and all(g.product(a, b) in s for a in s for b in s)


def brute_is_normal(g, s: set) -> bool:
    return brute_is_subgroup(g, s) and all(
        g.product(w, a, g.inverse(w)) in s for w in g.elements() for a in s)


PROPERTY_GROUPS = {"S3": lambda: symmetric(3), "D8": lambda: dihedral(8), "Q8": quaternion,
                   "Z2xZ2": lambda: builtin_group("Z2xZ2"), "S4": lambda: symmetric(4),
                   "D12": lambda: dihedral(12)}


@st.composite
def group_and_subsets(draw):
    """A group and three element lists: two drawn subsets, each replaced
    at times by the subgroup it generates, and a generating list."""
    g = PROPERTY_GROUPS[draw(st.sampled_from(sorted(PROPERTY_GROUPS)))]()
    picks = []
    for _ in range(3):
        elems = draw(st.lists(st.integers(0, g.order - 1), max_size=3))
        picks.append(sorted(closure(g, elems)) if draw(st.booleans()) else elems)
    return g, picks


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(group_and_subsets())
def test_predicates_against_set_computations(drawn):
    g, (first, second, gens) = drawn
    for elems in (first, second):
        s = set(elems)
        assert g.is_subgroup(elems) == brute_is_subgroup(g, s)
        assert g.is_normal(elems) == brute_is_normal(g, s)
        if brute_is_subgroup(g, s):
            sub = g.subgroup(elems)
            emb = list(sub.embedding)
            assert emb == sorted(s)
            assert all(emb[sub.group.mul[a, b]] == g.product(emb[a], emb[b])
                       for a in range(len(emb)) for b in range(len(emb)))
        else:
            with pytest.raises(GroupError, match="is not a subgroup"):
                g.subgroup(elems)
    assert g.generated_subgroup(gens) == sorted(closure(g, gens))
    u, v = set(first), set(second)
    splits = (brute_is_normal(g, u) and brute_is_subgroup(g, v)
              and len(u) * len(v) == g.order and u & v == {0})
    if splits:
        factor = semidirect_decomposition(g, first, second)
        assert factor == {g.product(a, b): (a, b) for a in sorted(u) for b in sorted(v)}
        assert sorted(factor) == list(g.elements())
    else:
        with pytest.raises(GroupError):
            semidirect_decomposition(g, first, second)


@pytest.mark.parametrize("name", PROPERTY_GROUPS)
def test_semidirect_decomposition_on_every_pair_of_subgroups(name):
    """Every subgroup of these groups has two generators; each ordered pair
    (U, V) splits the group exactly when the set computations say so."""
    g = PROPERTY_GROUPS[name]()
    subgroups = sorted({tuple(sorted(closure(g, [a, b])))
                        for a in g.elements() for b in g.elements()})
    normal = {u for u in subgroups if brute_is_normal(g, set(u))}
    splits = 0
    for u in subgroups:
        for v in subgroups:
            if u in normal and len(u) * len(v) == g.order and set(u) & set(v) == {0}:
                factor = semidirect_decomposition(g, u, v)
                assert factor == {g.product(a, b): (a, b) for a in u for b in v}
                splits += 1
            else:
                with pytest.raises(GroupError):
                    semidirect_decomposition(g, u, v)
    assert splits >= 2   # W = W x| {e} and W = {e} x| W at least


@pytest.mark.parametrize("name", PROPERTY_GROUPS)
def test_generators_are_the_greedy_generating_set(name):
    g = PROPERTY_GROUPS[name]()
    gens, span = [], {0}
    for a in g.elements():
        if a not in span:
            gens.append(a)
            span = closure(g, gens)
    assert g.generators() == tuple(gens)
