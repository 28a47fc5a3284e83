"""The structured solvers against the dense constructions they replace.

`center` solves in the algebra's coefficient space, `intertwiner_space`
stacks only the group's generators, and `compact_operators` builds every
rank-one map in one contraction.  The dense paths survive here as oracles.
"""
import numpy as np
import pytest

from equivaria.datasets import bundled
from equivaria.groups import BUILTIN_GROUPS, builtin_group
from equivaria.hilbmod import compact_operators, function_module, rank_one
from equivaria.linalg import (
    flatten,
    intertwiner_rows,
    orthonormal_rows,
    span_intersection,
    spans_equal,
)
from equivaria.matalg import algebra_from_span, center, commutant
from equivaria.reps import enumerate_irreps, intertwiner_space, regular_rep
from equivaria.systems import (
    crossed_product,
    fixed_point_algebra,
    function_algebra_action,
    z2_line_system,
)


def center_dim_checked(alg) -> int:
    """dim center(A), after checking it spans A intersect commutant(A)."""
    rows = center(alg).basis_rows()
    oracle = span_intersection(alg.basis_rows(), commutant(alg).basis_rows())
    assert spans_equal(rows, oracle, 1e-8)
    return rows.shape[0]


@pytest.mark.parametrize("name", ["z2-line", "dihedral-plane"])
def test_center_matches_oracle_on_fixed_point_algebras(name):
    assert center_dim_checked(fixed_point_algebra(bundled(name))) > 0


def test_center_matches_oracle_on_crossed_product():
    cp = crossed_product(function_algebra_action(z2_line_system(1)))
    assert center_dim_checked(cp.algebra) > 0


def test_center_of_conjugated_block_sum_counts_summands():
    # A = U (M_1 (x) 1_2 + M_2 (x) 1_1 + M_2 (x) 1_2) U* for a random unitary U.
    shapes = [(1, 2), (2, 1), (2, 2)]
    n = sum(a * b for a, b in shapes)
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mats = []
    offset = 0
    for size, mult in shapes:
        for i in range(size):
            for j in range(size):
                m = np.zeros((n, n), dtype=complex)
                unit = np.zeros((size, size))
                unit[i, j] = 1.0
                m[offset:offset + size * mult, offset:offset + size * mult] = \
                    np.kron(unit, np.eye(mult))
                mats.append(u @ m @ u.conj().T)
        offset += size * mult
    alg = algebra_from_span(np.stack(mats))
    assert alg.dim == sum(a * a for a, _ in shapes)
    assert center_dim_checked(alg) == len(shapes)


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
    assert spans_equal(compacts.raw_rows, orthonormal_rows(flatten(raws)), 1e-8)
    s, s_inv = compacts.transform, compacts.transform_inv
    dressed = orthonormal_rows(flatten(s @ raws @ s_inv))
    assert spans_equal(compacts.algebra.basis_rows(), dressed, 1e-8)


def test_unit_is_computed_once():
    alg = fixed_point_algebra(bundled("z2-line"))
    assert alg.unit() is alg.unit()
