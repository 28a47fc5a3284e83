"""Serialization round-trips, CLI behaviour (exit codes, formats) and the
tolerance rule that the CLI and the library share."""
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equivaria import cli, linalg, matalg, morita, reps, systems
from equivaria.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFICATION, main
from equivaria.datasets import bundled, dataset_names
from equivaria.groups import builtin_group, symmetric
from equivaria.hilbmod import (
    FDHilbertModule,
    compact_operators,
    equivariant_function_module,
    function_module,
    invariant_compacts_rows,
    is_full,
    scalar_translation_action,
    verify_green_julg,
)
from equivaria.reps import (
    character_table,
    commutant_dimension,
    enumerate_irreps,
    intertwiner_space,
    trivial_rep,
)
from equivaria.serialize import (
    ParseError,
    canonical_dumps,
    complex_array_from_json,
    complex_array_to_json,
    group_to_json,
    parse_document,
    system_to_json,
)
from equivaria.spectrum import (
    classify_irreps,
    fell_limit_certificate,
    wedderburn_crosscheck,
)
from equivaria.systems import z2_line_family, z2_line_system, z2xz2_line_system


def test_complex_codec_roundtrip():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    back = complex_array_from_json(complex_array_to_json(arr))
    assert np.abs(back - arr).max() < 1e-15


def test_group_roundtrip_byte_identical():
    for name in ("Z2", "S3", "D8"):
        g = builtin_group(name)
        text = canonical_dumps(group_to_json(g))
        g2 = parse_document(text)
        assert g2.order == g.order
        assert np.array_equal(g2.mul, g.mul)
        assert canonical_dumps(group_to_json(g2)) == text


def test_system_roundtrip_byte_identical():
    for name in ("z2-line", "dihedral-plane", "anticomplete-point"):
        sys = bundled(name)
        text = canonical_dumps(system_to_json(sys))
        sys2 = parse_document(text)
        assert sys2.n_points == sys.n_points
        assert np.abs(sys2.cocycle - sys.cocycle).max() < 1e-15
        assert canonical_dumps(system_to_json(sys2)) == text


def test_complex_codec_rejects_malformed_arrays():
    assert complex_array_from_json([1, 2.5]) == 1 + 2.5j
    assert complex_array_from_json([[[0, 1]], [[2, 3]]]).shape == (2, 1)
    with pytest.raises(ParseError, match="ragged"):
        complex_array_from_json([[[1, 0], [0, 0]], [[0, 0]]])
    with pytest.raises(ParseError, match="ragged"):
        complex_array_from_json([[1, 0], [[0, 0], [1, 1]]])
    with pytest.raises(ParseError, match=r"\[re, im\] pairs"):
        complex_array_from_json([[1, 0, 0], [1, 0, 0]])
    with pytest.raises(ParseError, match=r"\[re, im\] pairs"):
        complex_array_from_json(1.0)
    for leaf in ("1", None, True, False, {"re": 1}):
        with pytest.raises(ParseError, match="must be numbers"):
            complex_array_from_json([[1, 0], [leaf, 0]])
    with pytest.raises(ParseError, match="out of range"):
        complex_array_from_json([[10 ** 400, 0]])


def test_parse_reports_location():
    with pytest.raises(ParseError, match=r"line 3, column 1"):
        parse_document('{"kind": "system",\n  "oops"\n}')


def test_parse_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_document('{"kind": "starship"}')
    with pytest.raises(ParseError):
        parse_document('{"kind": "group", "builtin": "Monster"}')
    with pytest.raises(ParseError):
        parse_document('["not", "an", "object"]')


def test_system_with_reduction_extras():
    sys = z2_line_system(1)
    doc = system_to_json(sys)
    doc["wprime"] = [0]
    doc["r"] = [0, 1]
    parsed, extras = parse_document(canonical_dumps(doc))
    assert parsed.n_points == sys.n_points
    assert extras == {"wprime": [0], "r": [0, 1]}


# z2xz2-line-2 with one half of its splitting W = W' >| R: a document the
# CLI once ran in theorem mode, printing PASS.
SPLITTING = {"wprime": [0, 2], "r": [0, 1]}


def half_splitting_document(half: str) -> str:
    return canonical_dumps({**system_to_json(z2xz2_line_system(2)), half: SPLITTING[half]})


@pytest.mark.parametrize("half", sorted(SPLITTING))
def test_parse_document_rejects_half_a_splitting(half):
    missing = ({"wprime", "r"} - {half}).pop()
    with pytest.raises(ParseError, match=f"'{missing}' is missing"):
        parse_document(half_splitting_document(half))


@pytest.mark.parametrize("half", sorted(SPLITTING))
def test_cli_morita_rejects_half_a_splitting(half, tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(half_splitting_document(half))
    assert main(["morita", "--input", str(path)]) == EXIT_INPUT
    out = capsys.readouterr()
    assert "PASS" not in out.out and out.err.startswith("error: ") and "is missing" in out.err


def test_components_document():
    sys = z2_line_system(1)
    doc = {"schema": "equivaria/1", "kind": "components",
           "components": [{"system": system_to_json(sys),
                           "wprime": [0], "r": [0, 1]}]}
    comps = parse_document(canonical_dumps(doc))
    assert len(comps) == 1
    assert comps[0][1:] == ([0], [0, 1])


def test_cli_examples_lists_datasets(capsys):
    assert main(["examples", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert {d["name"] for d in report["datasets"]} == set(dataset_names())


def test_cli_irreps_builtin(capsys):
    assert main(["irreps", "--input", "S3", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert sorted(r["dim"] for r in report["irreps"]) == [1, 1, 2]


def test_cli_spectrum_bundled(capsys):
    assert main(["spectrum", "--input", "z2-line", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["wedderburn"]["ok"]


def test_cli_morita_modes(capsys):
    assert main(["morita", "--input", "anticomplete-point",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "theorem" and report["strict_inclusion"]
    assert main(["morita", "--input", "two-component",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "toy-dual" and report["ok"]


def test_cli_morita_passes_the_tolerance_through(monkeypatch, capsys):
    seen = []
    theorem = cli.verify_morita_theorem

    def spy(*args, tol, **kwargs):
        seen.append(tol)
        return theorem(*args, tol=tol, **kwargs)

    monkeypatch.setattr(cli, "verify_morita_theorem", spy)
    assert main(["morita", "--input", "z2-line", "--tolerance", "1e-12"]) == EXIT_OK
    assert main(["morita", "--input", "z2-line"]) == EXIT_OK
    assert seen == [1e-12, 1e-8]


def test_cli_morita_default_json_on_z2_line(capsys):
    assert main(["morita", "--input", "z2-line", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert main(["morita", "--input", "z2-line", "--tolerance", "1e-8",
                 "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == report
    witness = report.pop("witness")
    assert report == {"schema": "equivaria/1", "command": "morita", "mode": "theorem",
                      "system": "z2-line-4", "ok": True, "conditions_hold": True,
                      "j_dim": 18, "c_dim": 18, "spans_match": True,
                      "strict_inclusion": False, "normalisation_ok": True,
                      "completeness_ok": True, "fpa_blocks": 6, "c_blocks": 6,
                      "gaps": []}
    assert witness["ok"] and witness["full"] and witness["span_match"]
    assert max(witness["multiplicative_residual"], witness["star_residual"]) < 1e-10


def test_cli_verify_suites(capsys):
    assert main(["verify", "none"]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "morita", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and len(report["checks"]) == 2


def test_cli_verify_all_json(capsys):
    assert main(["verify", "all", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert all(check["ok"] is True for check in report["checks"])


@pytest.mark.parametrize("tolerance", ["1e-12", "1e-9", "1e-8", "1e-6"])
def test_cli_verify_suites_honour_the_tolerance(monkeypatch, capsys, tolerance):
    # Every library call of the suites that takes a tolerance is given
    # --tolerance, and every suite's verdict holds at each of these.  The
    # Green-Julg module makes no cut, so it takes none.
    from equivaria import hilbmod
    seen = {}

    def spying(module, name):
        original = getattr(module, name)
        signature = inspect.signature(original)

        def spy(*args, **kwargs):
            seen.setdefault(name, []).append(signature.bind(*args, **kwargs).arguments["tol"])
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    for module, name in ((cli, "enumerate_irreps"), (cli, "wedderburn_crosscheck"),
                         (cli, "verify_morita_theorem"), (hilbmod, "verify_green_julg")):
        spying(module, name)
    assert main(["verify", "all", "--tolerance", tolerance, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert sorted(seen) == ["enumerate_irreps", "verify_green_julg",
                            "verify_morita_theorem", "wedderburn_crosscheck"]
    assert {tol for calls in seen.values() for tol in calls} == {float(tolerance)}


def test_cli_morita_on_no_components(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(canonical_dumps({"schema": "equivaria/1", "kind": "components",
                                     "components": []}))
    assert main(["morita", "--input", str(path), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "toy-dual" and report["ok"] and report["components"] == []
    assert report["witness"]["ok"]


def test_cli_parser_is_built_once_and_keeps_its_defaults():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["morita", "--input", "z2-line", "--tolerance", "1e-6",
                              "--seed", "3"]).tolerance == 1e-6
    args = parser.parse_args(["morita", "--input", "z2-line"])
    assert (args.tolerance, args.seed) == (1e-8, 0)
    assert parser.parse_args(["spectrum", "--input", "z2-line"]).tolerance == 1e-9


def malformed_documents() -> list[dict]:
    """Documents that parse as JSON but not as an equivaria input."""
    def system(**fields):
        return {**system_to_json(z2_line_system(1)), **fields}

    def components(*entries):
        return {"schema": "equivaria/1", "kind": "components", "components": list(entries)}

    entry = {"system": system(), "wprime": [0], "r": [0, 1]}
    return [
        {"kind": "system"},
        components({"wprime": [0], "r": [0, 1]}),                  # no "system"
        components(5),
        components(["not", "an", "object"]),
        {**components(), "components": 5},
        system(points=5),
        system(wprime=5, r=[0, 1]),
        system(wprime=[0, 7], r=[0, 1]),                           # |W| = 2
        components({**entry, "wprime": ["a"]}),
        system(fiber_dim="x"),
        system(group={"kind": "group", "mul": [[0, 1], [1]]}),     # ragged
        {"kind": "group", "mul": [[0, 1], [0, 1]]},                # not a group
        # Integer fields take JSON integers only, never truncated.
        system(action=[[0, 1, 2], [2, 1, 0.4]]),
        {"kind": "group", "mul": [[0, 1], [1, 1.7]]},
        system(wprime=[0.9], r=[0, 1]),
        components({**entry, "r": ["1", 0]}),
        {**system_to_json(bundled("anticomplete-point")), "fiber_dim": True},   # d = 1
        {"kind": "group", "mul": [[0, 1], [1, 10 ** 30]]},          # no machine integer
    ]


def test_cli_input_errors(tmp_path, capsys):
    assert main(["irreps", "--input", "no-such-thing"]) == EXIT_INPUT
    assert main(["irreps"]) == EXIT_INPUT
    for tolerance in ("-1", "0", "nan", "inf", "1", "10", "1e300"):
        assert main(["spectrum", "--input", "z2-line", "--tolerance", tolerance]) == EXIT_INPUT
    assert main(["spectrum", "--input", "z2-line", "--seed", "-1"]) == EXIT_INPUT
    assert main(["spectrum", "--input", "S3"]) == EXIT_INPUT  # group, not system
    bad = tmp_path / "bad.json"
    for doc in malformed_documents():
        with pytest.raises(ParseError):
            parse_document(json.dumps(doc))
        bad.write_text(json.dumps(doc))
        assert main(["morita", "--input", str(bad)]) == EXIT_INPUT, doc
        assert capsys.readouterr().err.startswith("error: ")
    capsys.readouterr()


# Every library entry point that takes a tolerance, called with one.
TOLERANT = {
    "verify_morita_theorem": lambda tol: morita.verify_morita_theorem(z2_line_system(4), tol=tol),
    "semidirect_reduction":
        lambda tol: morita.semidirect_reduction(*bundled("two-component")[0], tol=tol),
    "assemble_toy_dual": lambda tol: morita.assemble_toy_dual(bundled("two-component"), tol=tol),
    "verify_green_julg":
        lambda tol: verify_green_julg(equivariant_function_module(z2_line_system(4)), tol),
    "wedderburn_crosscheck": lambda tol: wedderburn_crosscheck(z2_line_system(4), tol=tol),
    "classify_irreps": lambda tol: classify_irreps(z2_line_system(4), tol=tol),
    "enumerate_irreps": lambda tol: enumerate_irreps(builtin_group("S3"), tol=tol),
    "character_table": lambda tol: character_table(symmetric(4), tol=tol),
    "intertwiner_space": lambda tol: intertwiner_space(*[trivial_rep(builtin_group("Z2"))] * 2, tol),
    "commutant_dimension": lambda tol: commutant_dimension(trivial_rep(builtin_group("Z2")), tol),
    # x_n = 2 stays 2 from the origin; at tol 5 its residual 1.0 was accepted.
    "fell_limit_certificate": lambda tol: fell_limit_certificate(
        z2_line_family(), [2.0] * 20, 0.0, "1d0", tol=tol),
    "fixed_point_algebra": lambda tol: systems.fixed_point_algebra(z2_line_system(2), tol),
    "compact_operators":
        lambda tol: compact_operators(function_module(z2_line_system(2)), tol),
    "block_decompose":
        lambda tol: matalg.block_decompose(systems.fixed_point_algebra(z2_line_system(2)), tol=tol),
    "scalar_subgroups": lambda tol: morita.scalar_subgroups(z2_line_system(2), tol),
    "c_ideal": lambda tol: morita.c_ideal(z2_line_system(2), tol=tol),
    # The row of delta_0 e, which right products by w leave.
    "CrossedProduct.is_ideal": lambda tol: systems.crossed_product(
        scalar_translation_action(z2_line_system(2))).is_ideal(np.eye(10)[:1], tol),
    "AlgebraAction.validate":
        lambda tol: scalar_translation_action(z2_line_system(2)).validate(tol),
    "FDHilbertModule.validate": lambda tol: negated_module().validate(tol),
    "is_full": lambda tol: is_full(function_module(z2_line_system(2)), tol),
    "invariant_compacts_rows": lambda tol: invariant_compacts_rows(
        *with_compacts(equivariant_function_module(z2_line_system(2))), tol),
    "block_cut": lambda tol: linalg.block_cut([np.eye(2)[None]], tol),
    "center": lambda tol: matalg.center(systems.fixed_point_algebra(z2_line_system(2)), tol),
    "crossed_product": lambda tol: systems.crossed_product(
        scalar_translation_action(z2_line_system(2)), tol),
    "EquivariantModule.validate":
        lambda tol: equivariant_function_module(z2_line_system(1)).validate(tol),
}


def negated_module():
    """The function module of z2-line n = 1 with its inner values negated,
    so <xi|xi> <= 0: validate raises at the default tolerance."""
    e = function_module(z2_line_system(1))
    return FDHilbertModule(e.algebra, tuple(dataclasses.replace(st, inner=-st.inner)
                                            for st in e.parts))


def with_compacts(eq):
    """(eq, its base module's compacts), so the tolerance reaches the
    invariant compacts' own cut."""
    return eq, compact_operators(eq.base)


@pytest.mark.parametrize("tol", [0.0, 1.0, 10.0, float("nan"), -1e-9])
@pytest.mark.parametrize("entry", TOLERANT)
def test_library_rejects_a_tolerance_outside_the_unit_interval(entry, tol):
    """The CLI's rule, raised before any rank cut: at tol >= 1 every rank
    would be 0 (verify_morita_theorem read ok with J = 0 against C = 17 on
    z2-line n = 4 at tol 10; fixed_point_algebra(z2_line_system(2)) had
    dimension 20 where the default gives 10, and compact_operators kept
    rank 0), and other checks would fail first with errors of their own.
    Without the check, is_ideal accepted the row of delta_0 e at tol 10,
    c_ideal(z2_line_system(2), tol=10) had dimension 9 where the default
    gives 10, scalar_subgroups at tol 0 raised that W'_x is not normal, and
    validate passed any maps at tol nan.  FDHilbertModule.validate passed a
    module with negated inner values at tol 5, is_full read False on
    function_module(z2_line_system(2)) at tol 5 where the default reads
    True, and invariant_compacts_rows, given the compacts, cut unchecked.
    fell_limit_certificate accepted x_n = 2 as converging to the origin at
    tol 5 and rejected the true limits at tol -1 or nan; the
    representation-level entry points cut unchecked."""
    with pytest.raises(ValueError, match="^tolerance must lie strictly between 0 and 1$"):
        TOLERANT[entry](tol)


def test_cli_spectrum_at_tolerance_one_half(capsys):
    """The orbit cut keeps the default's 9 invariant functions at tol 0.5;
    the whole-ambient kernel kept 24 and the central splitting failed."""
    assert main(["spectrum", "--input", "dihedral-plane", "--tolerance", "0.5",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["entries"]) == 6 and report["wedderburn"]["ok"]
    assert report["wedderburn"]["algebra_dim"] == 9
    assert report["wedderburn"]["integrality_distance"] <= 1e-9


def test_cli_unreadable_input_file_is_an_input_error(tmp_path, capsys):
    assert main(["spectrum", "--input", str(tmp_path)]) == EXIT_INPUT   # a directory
    latin = tmp_path / "latin.json"
    latin.write_bytes('{"kind": "system", "name": "\u00e9"}'.encode("latin-1"))
    assert main(["spectrum", "--input", str(latin)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_cli_failed_splitting_is_a_one_line_verification_error(capsys, monkeypatch):
    """When no split attempt succeeds, the central splitting and the
    representation splitting give up with a message and exit 1, not a
    traceback."""
    for module, argv in ((matalg, ["spectrum", "--input", "z2-line"]),
                         (reps, ["irreps", "--input", "S3"])):
        with monkeypatch.context() as patch:
            patch.setattr(module, "SPLIT_GAPS", ())
            assert main(argv) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("verification error: ") and len(err.splitlines()) == 1
        assert "split" in err


def test_cli_rejects_corrupted_cocycle(tmp_path, capsys):
    doc = system_to_json(z2_line_system(1))
    doc["cocycle"][1][0][0][0] = [3.0, 0.0]   # no longer unitary
    path = tmp_path / "corrupt.json"
    path.write_text(canonical_dumps(doc))
    assert main(["spectrum", "--input", str(path)]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("command", ["spectrum", "morita"])
def test_cli_rejects_a_nan_cocycle_entry(tmp_path, capsys, command):
    """A NaN entry passes every bound written `norm > bound`: spectrum
    then exited 1 with "basis is not orthonormal" and morita with "SVD did
    not converge"."""
    doc = system_to_json(bundled("z2-line"))
    doc["cocycle"][1][0][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == EXIT_INPUT
    assert "cocycle I_(1,0) is not unitary" in capsys.readouterr().err


def test_cli_rejects_a_ragged_cocycle(tmp_path, capsys):
    doc = system_to_json(z2_line_system(1))
    doc["cocycle"][1][0][0].append([0.0, 0.0])   # a row of three entries
    path = tmp_path / "ragged.json"
    path.write_text(canonical_dumps(doc))
    assert main(["spectrum", "--input", str(path)]) == EXIT_INPUT
    assert "ragged complex array" in capsys.readouterr().err
    doc["cocycle"][1][0][0] = [[1.0, 0.0], [True, False]]
    path.write_text(canonical_dumps(doc))
    assert main(["morita", "--input", str(path)]) == EXIT_INPUT
    assert "must be numbers, not bool" in capsys.readouterr().err


def test_cli_morita_reports_the_gap_points(capsys):
    assert main(["morita", "--input", "dihedral-plane", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["gaps"] == [{"point": 0, "j_dim": 4, "c_dim": 8}]
    assert main(["morita", "--input", "dihedral-plane"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["  conditions fail; J dim 132 < C dim 136",
                         "  dim J_x 4 < dim C_x 8 at point 0 = (0.0, 0.0)"]
    assert main(["morita", "--input", "anticomplete-point", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["gaps"] == [
        {"point": 0, "j_dim": 1, "c_dim": 2}]


def test_cli_roundtrip_file_input(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(canonical_dumps(system_to_json(z2_line_system(1))))
    assert main(["spectrum", "--input", str(path), "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_out_of_memory_has_its_own_exit_code(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_morita_theorem", exhausted)
    assert main(["morita", "--input", "z2-line"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.splitlines() == ["resource error: morita ran out of memory"]


def test_cli_output_to_a_closed_pipe_ends_quietly():
    """A reader that has gone away (`| head`) is not an error: the command
    exits with its verdict's code and writes nothing to stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "equivaria.cli", "irreps", "--input", "S3", "--format", "json"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_OK
    assert out.stderr == ""
