"""Spectrum classification, Wedderburn cross-checks, and limit certificates."""
import numpy as np
import pytest

from equivaria import reps, spectrum
from equivaria.datasets import bundled, dataset_names
from equivaria.groups import symmetric
from equivaria.matalg import generate
from equivaria.reps import regular_rep
from equivaria.spectrum import (
    SpectrumError,
    classify_irreps,
    fell_limit_certificate,
    realize_irrep,
    realized_commutant_dim,
    stabilizer_rep,
    wedderburn_crosscheck,
)
from equivaria.systems import (
    ClosedFormFamily,
    FixedPointAlgebra,
    dihedral_plane_system,
    fixed_point_algebra,
    one_point_system,
    trivial_system,
    z2_line_family,
    z2_line_system,
    z2xz2_line_system,
)


def test_stabilizer_rep_at_origin():
    sys = z2_line_system(2)
    origin = sys.points.index(0.0)
    sub, i_rep = stabilizer_rep(sys, origin)
    assert sub.group.order == 2
    assert np.abs(i_rep.matrices[1] - np.diag([1.0, -1.0])).max() < 1e-12


def test_classification_z2_line():
    sys = z2_line_system(3)
    desc = classify_irreps(sys)
    dims = sorted(e.dim for e in desc.entries)
    assert dims == [1, 1, 2, 2, 2]
    origin_labels = sorted(e.label for e in desc.entries if e.stabilizer.group.order == 2)
    assert len(origin_labels) == 2


def test_realized_irreps_are_irreducible():
    sys = z2_line_system(2)
    desc = classify_irreps(sys)
    for entry in desc.entries:
        mats = realize_irrep(sys, entry)
        assert mats.shape[1] == entry.dim
        # Scalar commutant = irreducibility of the realized representation.
        assert realized_commutant_dim(mats) == 1
        # *-homomorphism spot check against the algebra product.
        alg = generate(mats, ambient_dim=entry.dim)
        assert alg.algebra.closure_residual() < 1e-8


def realized_on_functions(sys, entry) -> np.ndarray:
    """realize_irrep read off the functions carried over whole orbits."""
    funcs = fixed_point_algebra(sys).functions
    s = entry.basis
    moved = funcs[:, entry.point][:, None] @ s[None]
    return np.tensordot(moved, s.conj(), axes=([2, 3], [1, 2])).transpose(0, 2, 1)


@pytest.mark.parametrize("name", ["z2-line", "dihedral-plane", "anticomplete-point",
                                  "z2xz2-line-3"])
def test_realize_irrep_reads_the_least_point_values(monkeypatch, name):
    """Every entry's matrices, with FixedPointAlgebra.functions made to fail,
    are bit for bit those read off the carried functions."""
    sys = z2xz2_line_system(3) if name == "z2xz2-line-3" else bundled(name)
    sys = sys[0] if isinstance(sys, tuple) else sys
    entries = classify_irreps(sys).entries
    expected = [realized_on_functions(sys, entry) for entry in entries]

    def refuse(fpa):
        raise AssertionError("realize_irrep carried the functions")

    monkeypatch.setattr(FixedPointAlgebra, "functions", property(refuse))
    for entry, mats in zip(entries, expected):
        assert np.array_equal(realize_irrep(sys, entry), mats), entry.label


def test_classification_solves_no_intertwiner_space(monkeypatch):
    """Dimensions come from characters; the equivariant maps are solved
    when an entry's basis is first read."""
    def refuse(*args, **kwargs):
        raise AssertionError("an intertwiner space was solved")

    monkeypatch.setattr(reps, "intertwiner_space", refuse)
    sys = dihedral_plane_system()
    desc = classify_irreps(sys)
    monkeypatch.undo()
    for entry in desc.entries:
        basis = entry.basis
        assert basis.shape == (entry.dim, sys.fiber_dim, entry.rho.dim)
        flat = basis.reshape(entry.dim, -1)
        assert np.abs(flat @ flat.conj().T - np.eye(entry.dim)).max() < 1e-12


def bundled_systems() -> dict:
    """Every system of the bundled datasets, by dataset name (and index)."""
    out = {}
    for name in dataset_names():
        obj = bundled(name)
        if isinstance(obj, list):
            out.update({f"{name}-{i}": c[0] for i, c in enumerate(obj)})
        else:
            out[name] = obj
    return out


@pytest.mark.parametrize("label", sorted(bundled_systems()))
def test_multiplicities_are_integers_on_bundled_datasets(label):
    verdict = wedderburn_crosscheck(bundled_systems()[label])
    assert verdict.ok
    assert verdict.integrality_distance <= 1e-9


@pytest.mark.parametrize("angle, distance", [(0.5, (1 - np.cos(0.5)) / 2), (np.pi / 2, None)])
def test_multiplicities_of_a_planted_non_representation(angle, distance):
    """I_s = diag(1, e^(i angle)) at the origin of z2-line, with s^2 = e:
    no representation unless the angle is 0 or pi.  The trivial irrep's
    multiplicity is (3 + cos angle) / 2, which lies (1 - cos angle) / 2
    from 2; at pi / 2 that is 1/2, and the classification refuses."""
    sys = z2_line_system(2)
    origin = sys.points.index(0.0)
    cocycle = sys.cocycle.copy()
    cocycle[1, origin] = np.diag([1.0, np.exp(1j * angle)])
    object.__setattr__(sys, "cocycle", cocycle)     # past the cocycle check
    if distance is None:
        with pytest.raises(SpectrumError, match="from an integer"):
            classify_irreps(sys)
    else:
        assert abs(classify_irreps(sys).integrality_distance - distance) < 1e-12


def test_crosscheck_on_fixtures():
    for sys in (z2_line_system(2), trivial_system(3, 2),
                one_point_system(symmetric(3), regular_rep(symmetric(3)).matrices)):
        verdict = wedderburn_crosscheck(sys)
        assert verdict.ok, verdict.diff()


def test_crosscheck_dihedral_plane():
    verdict = wedderburn_crosscheck(dihedral_plane_system())
    assert verdict.ok, verdict.diff()


def test_fell_certificate_accepts_both_origin_entries():
    fam = z2_line_family()
    seq = [1.0 / k for k in range(1, 17)]
    for label in ("1d0", "1d1"):
        cert = fell_limit_certificate(fam, seq, 0.0, label, tail_length=4)
        assert cert.accepted, (label, cert.residuals[-4:])


def test_fell_certificate_reads_its_irrep_off_the_character_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a representation was split")

    monkeypatch.setattr(spectrum, "enumerate_irreps", refuse)
    monkeypatch.setattr(reps, "enumerate_irreps", refuse)
    cert = fell_limit_certificate(z2_line_family(), [1.0 / k for k in range(1, 17)], 0.0, "1d1",
                                  tail_length=4)
    assert cert.accepted


def test_fell_certificate_unknown_label():
    fam = z2_line_family()
    seq = [1.0 / k for k in range(1, 17)]
    with pytest.raises(SpectrumError):
        fell_limit_certificate(fam, seq, 5.0, "nonexistent")


def test_fell_certificate_rejects_wrong_limit():
    # A family with a constant nontrivial cocycle everywhere: the candidate at
    # a distant fixed point sees different matrix coefficients.
    from equivaria.groups import cyclic
    g = cyclic(2)

    def point_map(w, x):
        return x

    def cocycle_at(w, x):
        if w == 0:
            return np.eye(1, dtype=complex)
        return np.array([[1.0 if abs(x - 5.0) < 0.5 else -1.0]], dtype=complex)

    fam = ClosedFormFamily("plateau", g, 1, point_map, cocycle_at)
    seq = [5.0] * 16   # constant sequence away from the candidate point
    cert = fell_limit_certificate(fam, seq, 0.0, "1d0", tail_length=4)
    assert not cert.accepted


def test_fell_certificate_rejects_a_parked_sequence():
    """x_n = 2 stays at distance 2 from the origin.  Its residuals, 1.0,
    lie below tol * scale at tol 5, which certified the sequence as
    converging to the origin; a tolerance outside (0, 1) is refused."""
    fam = z2_line_family()
    assert not fell_limit_certificate(fam, [2.0] * 20, 0.0, "1d0").accepted
    for tol in (5.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^tolerance must lie strictly between 0 and 1$"):
            fell_limit_certificate(fam, [2.0] * 20, 0.0, "1d0", tol=tol)


def test_certificate_requires_multiplicity_one():
    fam = z2_line_family()
    with pytest.raises(SpectrumError):
        # At a free point the stabilizer is trivial and rho occurs twice.
        fell_limit_certificate(fam, [1.0], 3.0, "1d0")
