"""Spectrum classification, Wedderburn cross-checks, and limit certificates."""
import dataclasses

import numpy as np
import pytest
from oracles import stabilizer_rep

from equivaria import reps, spectrum
from equivaria.datasets import bundled, dataset_names
from equivaria.groups import symmetric
from equivaria.reps import character_table, regular_rep
from equivaria.spectrum import (
    SpectrumError,
    classify_irreps,
    fell_limit_certificate,
    wedderburn_crosscheck,
)
from equivaria.systems import (
    ClosedFormFamily,
    FixedPointAlgebra,
    dihedral_plane_system,
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


def test_classification_solves_no_intertwiner_space(monkeypatch):
    """Dimensions come from characters and the label check from traces:
    no equivariant map is solved."""
    def refuse(*args, **kwargs):
        raise AssertionError("an intertwiner space was solved")

    monkeypatch.setattr(reps, "intertwiner_space", refuse)
    verdict = wedderburn_crosscheck(dihedral_plane_system())
    assert verdict.ok and verdict.labels_paired


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


@pytest.mark.parametrize("label", sorted(bundled_systems()))
def test_entry_characters_are_irreducible(label):
    """Each entry's character has norm 1 on its stabilizer, and the entries
    of a point fill its fiber: the sum of dim(x, rho) rho(e) is d."""
    sys = bundled_systems()[label]
    filled = {}
    for e in classify_irreps(sys).entries:
        assert abs(np.vdot(e.character, e.character) / e.stabilizer.group.order - 1) < 1e-12
        filled[e.point] = filled.get(e.point, 0) + e.dim * e.character[0].real
    assert all(abs(total - sys.fiber_dim) < 1e-12 for total in filled.values()), filled


@pytest.mark.parametrize("name", ["z2-line", "dihedral-plane", "anticomplete-point",
                                  "z2xz2-line-3"])
def test_label_check_reads_the_least_point_values(monkeypatch, name):
    """With FixedPointAlgebra.functions made to fail, every entry still
    pairs with a block of its own size: the traces are read off the
    least-point values."""
    sys = z2xz2_line_system(3) if name == "z2xz2-line-3" else bundled(name)

    def refuse(fpa):
        raise AssertionError("the label check carried the functions")

    monkeypatch.setattr(FixedPointAlgebra, "functions", property(refuse))
    verdict = wedderburn_crosscheck(sys)
    assert verdict.ok and verdict.labels_paired, verdict.diff()
    assert verdict.label_distance < 1e-12


def s3_regular():
    return one_point_system(symmetric(3), regular_rep(symmetric(3)).matrices)


def z2_five_and_six():
    """One point, Z/2 acting by 5 copies of its trivial irrep and 6 of its sign."""
    return one_point_system(symmetric(2), np.stack([np.eye(11), np.diag([1.0] * 5 + [-1.0] * 6)]))


def retraded(first, second):
    """The entries labeled `first` and `second` trade dims: the sorted dims
    stay."""
    def mutate(entries):
        by_label = {e.rho_label: e for e in entries}
        one, two = by_label[first], by_label[second]
        return [dataclasses.replace(one, dim=two.dim) if e is one else
                dataclasses.replace(two, dim=one.dim) if e is two else e for e in entries]
    return mutate


def relabelled(entries):
    """The first entry takes the label and character of an irrep of its
    stabilizer that does not occur at its point."""
    e = entries[0]
    labels, chars = character_table(e.stabilizer.group)
    occurring = {f.rho_label for f in entries if f.point == e.point}
    i = next(i for i, label in enumerate(labels) if label not in occurring)
    return [dataclasses.replace(e, rho_label=labels[i], character=chars[i]), *entries[1:]]


def stray(entries):
    """A copy of an entry of a free orbit, placed at a point of the orbit
    other than its least one, where no block lives."""
    e = next(e for e in entries if len(e.orbit) > 1)
    return [*entries, dataclasses.replace(e, point=e.orbit[-1])]


MUTANTS = {
    "traded-dims": (s3_regular, retraded("1d0", "2d0")),
    # P reads 5/6 and 6/5, within 1/4 of a permutation: only the sizes differ.
    "traded-dims-5-6": (z2_five_and_six, retraded("1d0", "1d1")),
    "duplicated": (s3_regular, lambda entries: [*entries, entries[-1]]),
    "dropped": (dihedral_plane_system, lambda entries: entries[1:]),
    # Z/2 fixes the one point with I = 1_2: its sign irrep does not occur.
    "relabelled": (lambda: trivial_system(1, 2, symmetric(2)), relabelled),
    "stray": (lambda: z2_line_system(2), stray),
    # Every character at 0.7 of itself: P reads 0.7 where it read 1.
    "shrunk-characters": (s3_regular, lambda entries: [
        dataclasses.replace(e, character=0.7 * e.character) for e in entries]),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_crosscheck_refuses_a_mutated_classification(monkeypatch, name):
    """The labels must pair with the blocks, not only the sorted dims with
    the block sizes: the traded dims keep S3's sorted dims [1, 1, 2], and
    they and the relabelled entry were accepted when only counts were
    compared.  A pairing within 1/4 of a permutation is required too."""
    build, mutate = MUTANTS[name]
    sys = build()
    assert wedderburn_crosscheck(sys).ok
    classify = spectrum.classify_irreps

    def mutated(*args, **kwargs):
        desc = classify(*args, **kwargs)
        return dataclasses.replace(desc, entries=tuple(mutate(list(desc.entries))))

    monkeypatch.setattr(spectrum, "classify_irreps", mutated)
    verdict = wedderburn_crosscheck(sys)
    assert not verdict.ok and "unpaired" in verdict.diff()
    if name == "traded-dims":
        assert verdict.spectrum_dims == verdict.block_sizes == (1, 1, 2)
    if name == "traded-dims-5-6":
        assert verdict.spectrum_dims == verdict.block_sizes and verdict.label_distance < 0.25
    if name == "shrunk-characters":
        assert verdict.labels_paired and abs(verdict.label_distance - 0.3) < 1e-12
    else:
        assert not verdict.labels_paired


def test_fell_certificate_accepts_both_origin_entries():
    fam = z2_line_family()
    seq = [1.0 / k for k in range(1, 17)]
    for label in ("1d0", "1d1"):
        cert = fell_limit_certificate(fam, seq, 0.0, label, tail_length=4)
        assert cert.accepted, (label, cert.residuals[-4:])


def test_fell_certificate_reads_its_irrep_off_the_character_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a representation was split")

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
