"""Scalar subgroups, the relation ideal, the Morita theorem, and reductions."""
import inspect

import numpy as np
import oracles
import pytest

from equivaria import morita
from equivaria.datasets import bundled
from equivaria.groups import cyclic
from equivaria.morita import (
    SplittingError,
    assemble_toy_dual,
    c_ideal,
    scalar_subgroups,
    semidirect_reduction,
    verify_morita_theorem,
)
from equivaria.systems import (
    AlgebraAction,
    CrossedProduct,
    EquivariantSystem,
    anticomplete_point_system,
    trivial_system,
    z2_line_system,
    z2xz2_line_system,
)


def flip_system(n_points=3):
    """Z/2 flipping the symmetric grid, scalar trivial cocycle."""
    g = cyclic(2)
    pts = tuple(float(j) for j in range(-(n_points // 2), n_points // 2 + 1))
    action = np.stack([np.arange(n_points), np.arange(n_points)[::-1]])
    coc = np.ones((2, n_points, 1, 1), dtype=complex)
    return EquivariantSystem(g, pts, action, 1, coc, name="flip")


def test_scalar_subgroups_z2_line():
    sys = z2_line_system(2)
    origin = sys.points.index(0.0)
    scalar = scalar_subgroups(sys)
    assert scalar.stabilizers[origin] == (0, 1)
    # The cocycle at the origin is diag(1, -1): not scalar, so only the
    # identity contributes.
    assert scalar.scalar_elements[origin] == (0,)
    assert scalar.wprime[origin] == (0,)
    assert scalar.normalisation_ok
    assert scalar.completeness_ok


def test_scalar_subgroups_trivial_cocycle():
    scalar = scalar_subgroups(flip_system(3))
    fixed = flip_system(3).points.index(0.0)
    # With a trivial cocycle every stabilizer element is scalar with value 1.
    assert scalar.wprime[fixed] == (0, 1)
    assert scalar.scalar_elements[fixed] == (0, 1)
    assert scalar.normalisation_ok
    assert scalar.completeness_ok


def test_scalar_subgroups_anticomplete():
    scalar = scalar_subgroups(anticomplete_point_system())
    # The nontrivial element acts by the scalar -1: scalar but not normalised.
    assert scalar.scalar_elements[0] == (0, 1)
    assert scalar.wprime[0] == (0,)
    assert not scalar.normalisation_ok
    assert not scalar.completeness_ok


def test_c_ideal_no_constraints_is_whole():
    sys = z2_line_system(1)
    cid = c_ideal(sys)
    # W'_x is trivial at every point: no constraints, C = the full crossed
    # product of dimension |W| |X|.
    assert cid.dim == 2 * sys.n_points
    assert cid.algebra.dim == cid.cp.algebra.dim
    # The whole crossed product's span is built once, not again for C.
    assert cid.algebra is cid.cp.algebra


def test_c_ideal_anticomplete_dimension():
    cid = c_ideal(anticomplete_point_system())
    assert cid.dim == 2


def test_c_ideal_fixed_point_constraint():
    # One fixed point with full scalar stabilizer pins f_e = f_w there:
    # dim C = |W| |X| - 1.
    cid = c_ideal(flip_system(3))
    assert cid.dim == 2 * 3 - 1
    assert cid.algebra.dim == cid.dim


def test_morita_theorem_z2_line():
    verdict = verify_morita_theorem(z2_line_system(1))
    assert verdict.conditions_hold
    assert verdict.spans_match
    assert verdict.j_dim == verdict.c_dim
    assert verdict.witness is not None and verdict.witness.ok
    assert verdict.fpa_blocks == verdict.c_blocks
    assert verdict.ok


def test_morita_theorem_over_the_trivial_group():
    # No generators: every check at the generators reads an empty stack.
    verdict = verify_morita_theorem(trivial_system(3, 2))
    assert verdict.conditions_hold and verdict.ok
    assert verdict.j_dim == verdict.c_dim == 3 and verdict.fpa_blocks == verdict.c_blocks == 3


def test_morita_theorem_anticomplete_strict():
    verdict = verify_morita_theorem(anticomplete_point_system())
    assert not verdict.conditions_hold
    assert verdict.j_dim == 1
    assert verdict.c_dim == 2
    assert verdict.strict_inclusion
    assert verdict.j_in_c_residual < 1e-8
    assert verdict.ok


def test_semidirect_reduction_z2xz2_line():
    report = semidirect_reduction(z2xz2_line_system(1), [0, 2], [0, 1])
    assert report.ok
    assert report.fpa_block_count == report.final_block_count == 3  # n + 2
    assert report.ideal_transport_ok
    assert report.iso_mult_residual < 1e-9


def test_the_reduction_validates_each_action_once(monkeypatch):
    """The quotient module's check validates its beta, which is then
    crossed unchecked: four action checks in all, not five."""
    calls = []
    validate = AlgebraAction.validate

    def spy(self, *args, **kwargs):
        calls.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraAction, "validate", spy)
    assert semidirect_reduction(z2xz2_line_system(2), [0, 2], [0, 1]).ok
    assert len(calls) == 4


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13])
def test_the_reduction_honours_a_strict_tolerance(tol):
    for n in (1, 6):
        assert semidirect_reduction(z2xz2_line_system(n), [0, 2], [0, 1], tol=tol).ok, n


def test_reduction_with_trivial_wprime_is_the_theorem():
    # W' = {e}: the chain collapses to fpa ~ C(X) >| W.
    report = semidirect_reduction(z2_line_system(1), [0], [0, 1])
    assert report.ok


def test_reduction_with_trivial_r():
    # R = {e}: the final algebra is the orbit-function algebra C(X/W').
    report = semidirect_reduction(flip_system(3), [0, 1], [0])
    assert report.ok
    assert report.final_dim == 2   # two orbits: {0} and {-1, 1}


def test_reduction_rejects_bad_splitting():
    # On the line with the sign cocycle, W'_origin is trivial, so the
    # global splitting W' = W fails exactly at the origin.
    sys = z2_line_system(1)
    with pytest.raises(SplittingError) as err:
        semidirect_reduction(sys, [0, 1], [0])
    assert err.value.point == sys.points.index(0.0)


def test_toy_dual_single_component():
    report = assemble_toy_dual([(z2xz2_line_system(1), [0, 2], [0, 1])])
    assert report.ok
    assert len(report.reductions) == 1


def test_toy_dual_two_components():
    report = assemble_toy_dual([
        (z2xz2_line_system(1), [0, 2], [0, 1]),
        (z2_line_system(1), [0], [0, 1]),
    ])
    assert report.ok
    assert report.block_counts == (3 + 3, 3 + 3)
    # The assembled witness covers the direct sum of both components.
    assert len(report.fpa_dims) == 2


def test_toy_dual_of_no_components_is_the_zero_witness():
    # The zero module over the zero algebra: full, with no compacts to match.
    report = assemble_toy_dual([])
    assert report.ok and report.reductions == ()
    assert (report.witness.a_dim, report.witness.b_dim) == (0, 0)
    assert report.block_counts == (0, 0)


def test_gaps_name_the_points_where_j_falls_short():
    sys = bundled("dihedral-plane")
    verdict = verify_morita_theorem(sys)
    # The origin alone: J_0 = 4 < C_0 = 8 carries the whole 4-dim gap.
    origin = sys.points.index((0.0, 0.0))
    assert verdict.gaps == ((origin, 4, 8),)
    assert verdict.c_dim - verdict.j_dim == 4 and verdict.strict_inclusion
    assert verify_morita_theorem(anticomplete_point_system()).gaps == ((0, 1, 2),)
    # Where J = C there is no gap.
    assert verify_morita_theorem(z2_line_system(2)).gaps == ()


def test_morita_tolerance_reaches_the_cuts_of_j_and_c(monkeypatch):
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((fn.__name__, bound.arguments["tol"]))
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_point_spans", "c_ideal"):
        monkeypatch.setattr(morita, name, spy(getattr(morita, name)))
    for tol in (1e-6, 1e-10):
        seen.clear()
        assert verify_morita_theorem(z2_line_system(2), tol=tol).ok
        assert sorted(seen) == [("_point_spans", tol), ("c_ideal", tol)]


def test_c_ideal_takes_its_tolerance_as_it_is(monkeypatch):
    """c_ideal passes `tol` to scalar_subgroups and to C's ideal check
    unchanged; they were held at 1e-8 or above."""
    seen = []
    scalar, is_ideal = morita.scalar_subgroups, CrossedProduct.is_ideal
    monkeypatch.setattr(morita, "scalar_subgroups",
                        lambda sys, tol=1e-8: seen.append(("scalar", tol)) or scalar(sys, tol))
    monkeypatch.setattr(CrossedProduct, "is_ideal",
                        lambda self, rows, tol=1e-8: seen.append(("ideal", tol))
                        or is_ideal(self, rows, tol))
    cid = c_ideal(z2xz2_line_system(1), tol=1e-10)
    assert 0 < cid.dim < cid.cp.dim
    assert seen == [("scalar", 1e-10), ("ideal", 1e-10)]


def test_is_ideal_rejects_a_row_tilted_out_of_c():
    """One row of C_x tilted by 1e-6 toward a function that is not constant
    on W'_x's cosets leaves an ideal: is_ideal rejects it at tol 1e-8 and
    accepts it at 1e-4, as the dense per-element loop does."""
    cid = c_ideal(z2xz2_line_system(1))
    x = int(np.argmin(cid.ranks))
    assert cid.ranks[x] < cid.by_point.shape[2]
    rows = cid.by_point.copy()
    a, b = np.flatnonzero(rows[x, 0])[:2]          # two elements of one coset
    rows[x, 0, a] += 1e-6 / np.sqrt(2)
    rows[x, 0, b] -= 1e-6 / np.sqrt(2)
    rows[x, 0] /= np.linalg.norm(rows[x, 0])
    dense = morita.CIdeal(cid.system, cid.cp, rows, cid.ranks).rows
    for tol, expected in ((1e-8, False), (1e-4, True)):
        assert cid.cp.is_ideal(rows, tol) == expected
        assert oracles.crossed_is_ideal_loop(cid.cp, dense, tol) == expected


def test_morita_tolerance_reaches_every_cut_of_the_cli(monkeypatch, capsys):
    """`morita --tolerance` reaches C's ideal check, the fixed-point algebra
    and both block decompositions, in the theorem and in the reduction, and
    a verdict's `fpa` built on access takes the same tol.  A crossed
    product makes no cut and takes no tolerance."""
    from equivaria import cli

    seen = []

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((label, bound.arguments["tol"]))
            return fn(*args, **kwargs)
        return wrapped

    for module, name in ((morita, "c_ideal"), (morita, "fixed_point_algebra"),
                         (morita, "block_decompose")):
        label = f"{module.__name__.rpartition('.')[2]}.{name}"
        monkeypatch.setattr(module, name, spy(label, getattr(module, name)))
    for name in ("z2-line", "two-component"):
        assert cli.main(["morita", "--input", name, "--tolerance", "1e-6"]) == 0
    capsys.readouterr()
    assert {label for label, _ in seen} == {
        "morita.c_ideal", "morita.fixed_point_algebra", "morita.block_decompose"}
    assert [tol for _, tol in seen] == [1e-6] * len(seen)
    # dihedral-plane builds no witness, so its fixed-point algebra waits for `fpa`.
    seen.clear()
    thm = verify_morita_theorem(bundled("dihedral-plane"), tol=1e-6)
    assert thm.witness_fpa is None and thm.fpa.dim > 0
    assert seen == [("morita.c_ideal", 1e-6), ("morita.fixed_point_algebra", 1e-6)]
    assert thm.tol == 1e-6
