"""Irreducible decomposition against hand-known character theory."""
import numpy as np
import pytest

from equivaria.groups import builtin_group
from equivaria.reps import (
    character_inner,
    commutant_dimension,
    enumerate_irreps,
    equivariant_maps,
    intertwiner_space,
    is_irreducible,
    isotypic_projection,
    multiplicity,
    regular_rep,
    trivial_rep,
)

# Irrep dimension multisets known from the classical character tables.
KNOWN_DIMS = {
    "trivial": [1], "Z2": [1, 1], "Z3": [1, 1, 1], "Z4": [1] * 4,
    "Z5": [1] * 5, "Z6": [1] * 6, "Z7": [1] * 7, "Z8": [1] * 8,
    "Z2xZ2": [1] * 4, "S3": [1, 1, 2], "D8": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
}


@pytest.mark.parametrize("name", sorted(KNOWN_DIMS))
def test_irrep_dimensions(name):
    g = builtin_group(name)
    irreps = enumerate_irreps(g)
    assert sorted(r.dim for r in irreps) == KNOWN_DIMS[name]
    assert sum(r.dim ** 2 for r in irreps) == g.order


@pytest.mark.parametrize("name", ["S3", "D8", "Q8", "Z6"])
def test_character_orthogonality(name):
    g = builtin_group(name)
    irreps = enumerate_irreps(g)
    for i, rho in enumerate(irreps):
        for j, sig in enumerate(irreps):
            inner = character_inner(rho.character(), sig.character())
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10


def test_schur_on_intertwiners():
    g = builtin_group("S3")
    irreps = enumerate_irreps(g)
    for i, rho in enumerate(irreps):
        for j, sig in enumerate(irreps):
            dim = intertwiner_space(rho, sig).shape[0]
            assert dim == (1 if i == j else 0)
    for rho in irreps:
        assert is_irreducible(rho)
        assert commutant_dimension(rho) == 1


def test_regular_rep_multiplicities():
    g = builtin_group("D8")
    reg = regular_rep(g)
    assert reg.homomorphism_residual() < 1e-12
    total = np.zeros((g.order, g.order), dtype=complex)
    for rho in enumerate_irreps(g):
        assert multiplicity(reg, rho) == rho.dim
        p = isotypic_projection(reg, rho)
        assert np.abs(p @ p - p).max() < 1e-10
        total += p
    assert np.abs(total - np.eye(g.order)).max() < 1e-10


def test_equivariant_maps_oracle():
    g = builtin_group("Z2")
    irreps = enumerate_irreps(g)
    sign = next(r for r in irreps if abs(r.character()[1] + 1) < 1e-9)
    triv = trivial_rep(g)
    assert equivariant_maps(sign, triv).shape[0] == 0
    assert equivariant_maps(triv, triv).shape[0] == 1
