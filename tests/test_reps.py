"""Irreducible decomposition against hand-known character theory."""
import numpy as np
import pytest

from equivaria.groups import (
    BUILTIN_GROUPS,
    builtin_group,
    cyclic,
    dihedral,
    direct_product,
    quaternion,
    symmetric,
)
from equivaria.linalg import SPLIT_GAPS, SplitError
from equivaria.reps import (
    character_inner,
    character_table,
    commutant_dimension,
    enumerate_irreps,
    intertwiner_space,
    is_irreducible,
    isotypic_projection,
    multiplicity,
    regular_rep,
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


# The builtins and the larger groups of the benchmark's irreps workload.
TABLE_GROUPS = {**{name: lambda name=name: builtin_group(name) for name in BUILTIN_GROUPS},
                "D12": lambda: dihedral(12), "D16": lambda: dihedral(16),
                "Q8xZ2": lambda: direct_product(quaternion(), cyclic(2)),
                "S3xZ3": lambda: direct_product(symmetric(3), cyclic(3)),
                "D20": lambda: dihedral(20), "S4": lambda: symmetric(4),
                "D24": lambda: dihedral(24)}


def assert_table_is_the_irreps(group, seed: int = 0) -> None:
    """character_table at `seed` has enumerate_irreps's labels, order and
    characters, and its rows are orthonormal under (1/|G|) sum_g."""
    labels, chars = character_table(group, seed=seed)
    irreps = enumerate_irreps(group)
    assert labels == [rho.label for rho in irreps]
    assert np.abs(chars - np.stack([rho.character() for rho in irreps])).max() < 1e-9
    assert np.abs(chars @ chars.conj().T / group.order - np.eye(len(labels))).max() < 1e-12


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_character_table_is_the_enumerated_irreps(name):
    assert_table_is_the_irreps(TABLE_GROUPS[name]())


def first_draws_zero(monkeypatch, count: int) -> list:
    """Make the first `count` standard normal draws of every seeded
    generator zero, so z = 0 and all its eigenvalues coincide; returns the
    record of draws."""
    draws, seeded = [], np.random.default_rng

    class Generator:
        def __init__(self, seed):
            self.rng = seeded(seed)

        def standard_normal(self, shape):
            draws.append(shape)
            out = self.rng.standard_normal(shape)
            return np.zeros_like(out) if len(draws) <= count else out

    monkeypatch.setattr(np.random, "default_rng", Generator)
    return draws


def test_character_table_redraws_a_degenerate_draw(monkeypatch):
    """Both draws of the first attempt (real and imaginary parts of a) are
    zero: the second attempt's draw separates the characters."""
    draws = first_draws_zero(monkeypatch, 2)
    labels, chars = character_table(builtin_group("D8"))
    assert len(draws) == 4
    monkeypatch.undo()
    assert labels == character_table(builtin_group("D8"))[0]
    assert_table_is_the_irreps(builtin_group("D8"))
    assert np.abs(chars - character_table(builtin_group("D8"))[1]).max() < 1e-12


def test_character_table_raises_when_no_draw_separates(monkeypatch):
    draws = first_draws_zero(monkeypatch, 2 + 2 * len(SPLIT_GAPS))
    # The trivial group has one class: z = 0 has nothing to separate.
    assert character_table(builtin_group("trivial"))[0] == ["1d0"]
    with pytest.raises(SplitError, match="could not separate"):
        character_table(builtin_group("S3"))
    assert len(draws) == 2 + 2 * len(SPLIT_GAPS)


def test_character_table_refuses_mixed_central_characters(monkeypatch):
    """Two eigenvectors, phased so that v[e] > 0, mixed by a rotation of
    0.1 rad: still orthonormal, so Schur orthogonality holds, but the
    degrees 0.995 d0 + 0.0998 d1 and -0.0998 d0 + 0.995 d1 are no
    integers."""
    eigh = np.linalg.eigh

    def mixed(h):
        evals, vecs = eigh(h)
        vecs = vecs * (np.abs(vecs[0]) / vecs[0])
        c, s = np.cos(0.1), np.sin(0.1)
        vecs[:, :2] = vecs[:, :2] @ np.array([[c, -s], [s, c]])
        return evals, vecs

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    with pytest.raises(SplitError, match="no character table"):
        character_table(builtin_group("S3"))
