"""The benchmark's workloads: their inputs, their ops and each op's verdict fields.

An op is one question put to equivaria: a CLI call or a library call.  Its
`run` looks the callee up on the module at call time, so an installed tracer
sees it.  Its `verdict` turns what `run` returned into plain JSON fields that
are compared with `reference.json`: exit codes, ok flags, dimensions, block
counts and rounded characters.  A residual is reduced to whether it lies
below the tolerance the library compares it with, never kept as a number.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# MoritaWitness.ok and ReductionReport.ok compare residuals with this.
RESIDUAL_TOL = 1e-8
# Characters are compared after rounding to this many decimals.
CHAR_DECIMALS = 6
LADDER = (3, 4, 5)


@dataclass
class Op:
    id: str
    kind: str                       # irreps | spectrum | morita | verify
    run: Callable[[], Any]
    verdict: Callable[[Any], dict]
    size: dict = field(default_factory=dict)


# -- verdict fields ------------------------------------------------------------


def _char(values) -> list:
    """Rounded [re, im] pairs; +0.0 in place of -0.0 so rounding is stable."""
    out = []
    for re, im in values:
        out.append([round(float(re), CHAR_DECIMALS) + 0.0,
                    round(float(im), CHAR_DECIMALS) + 0.0])
    return out


def irreps_fields(order: int, irreps) -> dict:
    """irreps: iterable of (dim, [[re, im], ...]) per irreducible."""
    return {"order": int(order),
            "irreps": sorted([int(d), _char(c)] for d, c in irreps)}


def spectrum_fields(entries, wedderburn: dict) -> dict:
    """entries: iterable of (dim, orbit size, stabilizer order)."""
    return {"entries": sorted([int(a), int(b), int(c)] for a, b, c in entries),
            "ok": bool(wedderburn["ok"]),
            "spectrum_dims": sorted(int(d) for d in wedderburn["spectrum_dims"]),
            "block_sizes": sorted(int(d) for d in wedderburn["block_sizes"]),
            "algebra_dim": int(wedderburn["algebra_dim"])}


def witness_fields(w: dict | None) -> dict | None:
    if w is None:
        return None
    return {"ok": bool(w["ok"]), "full": bool(w["full"]),
            "span_match": bool(w["span_match"]),
            "multiplicative_residual_ok":
                float(w["multiplicative_residual"]) < RESIDUAL_TOL,
            "star_residual_ok": float(w["star_residual"]) < RESIDUAL_TOL}


def theorem_fields(t: dict) -> dict:
    keys = ("ok", "conditions_hold", "spans_match", "strict_inclusion",
            "normalisation_ok", "completeness_ok")
    out = {k: bool(t[k]) for k in keys}
    for k in ("j_dim", "c_dim", "fpa_blocks", "c_blocks"):
        out[k] = None if t[k] is None else int(t[k])
    out["witness"] = witness_fields(t["witness"])
    return out


def morita_fields(report: dict) -> dict:
    mode = report["mode"]
    if mode == "theorem":
        return {"mode": mode, **theorem_fields(report)}
    if mode == "reduction":
        iso = report["iso"]
        return {"mode": mode, "ok": bool(report["ok"]),
                "theorem": theorem_fields(report["theorem"]),
                "iso_bijective": bool(iso["bijective"]),
                "iso_multiplicative_residual_ok":
                    float(iso["multiplicative_residual"]) < RESIDUAL_TOL,
                "iso_star_residual_ok": float(iso["star_residual"]) < RESIDUAL_TOL,
                "ideal_transport_ok": bool(report["ideal_transport_ok"]),
                "final_witness": witness_fields(report["final_witness"]),
                "fpa_blocks": int(report["fpa_blocks"]),
                "final_blocks": int(report["final_blocks"])}
    return {"mode": mode, "ok": bool(report["ok"]),
            "components": [[c["system"], bool(c["ok"]), int(c["fpa_blocks"]),
                            int(c["final_blocks"])] for c in report["components"]],
            "witness": witness_fields(report["witness"])}


def verify_fields(report: dict) -> dict:
    return {"ok": bool(report["ok"]),
            "checks": [[c["name"], bool(c["ok"])] for c in report["checks"]]}


def _cli_fields(result) -> dict:
    """Fields of a CLI op: the exit code plus the report's verdict fields."""
    code, out = result
    fields = {"exit": int(code)}
    if not out.strip():
        return fields
    report = json.loads(out)
    command = report["command"]
    if command == "irreps":
        fields.update(irreps_fields(report["order"],
                                    ((r["dim"], r["character"]) for r in report["irreps"])))
    elif command == "spectrum":
        fields.update(spectrum_fields(
            ((e["dim"], len(e["orbit"]), e["stabilizer_order"])
             for e in report["entries"]), report["wedderburn"]))
    elif command == "morita":
        fields.update(morita_fields(report))
    elif command == "verify":
        fields.update(verify_fields(report))
    return fields


# -- library verdicts, in the CLI report's shape -------------------------------


def witness_dict(w) -> dict | None:
    if w is None:
        return None
    return {"ok": w.ok, "full": w.full, "span_match": w.span_match,
            "multiplicative_residual": w.multiplicative_residual,
            "star_residual": w.star_residual}


def theorem_dict(v) -> dict:
    return {"ok": v.ok, "conditions_hold": v.conditions_hold, "j_dim": v.j_dim,
            "c_dim": v.c_dim, "spans_match": v.spans_match,
            "strict_inclusion": v.strict_inclusion,
            "normalisation_ok": v.scalar.normalisation_ok,
            "completeness_ok": v.scalar.completeness_ok,
            "fpa_blocks": v.fpa_blocks, "c_blocks": v.c_blocks,
            "witness": witness_dict(v.witness)}


def _library_spectrum_fields(result) -> dict:
    desc, verdict = result
    return spectrum_fields(
        ((e.dim, len(e.orbit), e.stabilizer.group.order) for e in desc.entries),
        {"ok": verdict.ok, "spectrum_dims": verdict.spectrum_dims,
         "block_sizes": verdict.block_sizes, "algebra_dim": verdict.algebra_dim})


def _library_morita_fields(verdict) -> dict:
    return {"mode": "theorem", **theorem_fields(theorem_dict(verdict))}


def _library_irreps_fields(result) -> dict:
    group, irreps = result
    return irreps_fields(group.order, (
        (r.dim, [[c.real, c.imag] for c in r.character()]) for r in irreps))


# -- workloads -------------------------------------------------------------------


def _cli_op(op_id: str, kind: str, argv: list[str], seed: int, size=None) -> Op:
    from equivaria import cli

    full = argv + ["--seed", str(seed), "--format", "json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(full)
        return code, out.getvalue()

    return Op(op_id, kind, run, _cli_fields, size or {})


def _system_size(sys, morita: bool) -> dict:
    n = sys.n_points * sys.fiber_dim
    size = {"N": n}
    if morita:
        size["crossed_ambient"] = sys.group.order * n
    return size


def _write(workdir: Path, name: str, doc: dict) -> str:
    from equivaria import serialize

    path = workdir / f"{name}.json"
    path.write_text(serialize.canonical_dumps(doc))
    return str(path)


def _bundled_cli(seed: int, workdir: Path) -> list[Op]:
    from equivaria import datasets, groups, serialize, systems

    ops = [_cli_op(f"irreps/{g}", "irreps", ["irreps", "--input", g], seed,
                   {"order": groups.builtin_group(g).order})
           for g in groups.BUILTIN_GROUPS]
    systems_by_name = {name: datasets.bundled(name)
                       for name in ("z2-line", "anticomplete-point")}
    files = {name: _write(workdir, name, serialize.system_to_json(sys))
             for name, sys in systems_by_name.items()}
    comps = datasets.bundled("two-component")
    files["two-component"] = _write(workdir, "two-component", {
        "schema": serialize.SCHEMA, "kind": "components",
        "components": [{"system": serialize.system_to_json(s), "wprime": wp, "r": r}
                       for s, wp, r in comps]})
    red = systems.z2xz2_line_system(2)
    files["z2xz2-line-2"] = _write(workdir, "z2xz2-line-2", {
        **serialize.system_to_json(red), "wprime": [0, 2], "r": [0, 1]})
    for kind in ("spectrum", "morita"):
        for name, sys in systems_by_name.items():
            ops.append(_cli_op(f"{kind}/{name}", kind, [kind, "--input", files[name]],
                               seed, _system_size(sys, kind == "morita")))
    comp_sizes = [_system_size(s, True) for s, _, _ in comps]
    ops.append(_cli_op("morita/two-component", "morita",
                       ["morita", "--input", files["two-component"]], seed,
                       {k: [s[k] for s in comp_sizes] for k in comp_sizes[0]}))
    ops.append(_cli_op("morita/z2xz2-line-2", "morita",
                       ["morita", "--input", files["z2xz2-line-2"]], seed,
                       _system_size(red, True)))
    ops.append(_cli_op("verify/all", "verify", ["verify", "all"], seed))
    return ops


def _dihedral_plane(seed: int, workdir: Path) -> list[Op]:
    from equivaria import datasets, serialize

    sys = datasets.bundled("dihedral-plane")
    path = _write(workdir, "dihedral-plane", serialize.system_to_json(sys))
    return [_cli_op("spectrum/dihedral-plane", "spectrum",
                    ["spectrum", "--input", path], seed, _system_size(sys, False)),
            _cli_op("morita/dihedral-plane", "morita",
                    ["morita", "--input", path], seed, _system_size(sys, True))]


def _z2_line_ladder(seed: int, workdir: Path) -> list[Op]:
    from equivaria import morita, spectrum, systems

    ops = []
    for n in LADDER:
        sys = systems.z2_line_system(n)

        def run_spectrum(sys=sys):
            return (spectrum.classify_irreps(sys, seed=seed),
                    spectrum.wedderburn_crosscheck(sys, seed=seed))

        def run_morita(sys=sys):
            return morita.verify_morita_theorem(sys, seed=seed)

        ops.append(Op(f"spectrum/z2-line-{n}", "spectrum", run_spectrum,
                      _library_spectrum_fields, _system_size(sys, False)))
        ops.append(Op(f"morita/z2-line-{n}", "morita", run_morita,
                      _library_morita_fields, _system_size(sys, True)))
    return ops


def _irreps_groups(seed: int, workdir: Path) -> list[Op]:
    from equivaria import groups as g, reps

    named = [(name, g.builtin_group(name)) for name in g.BUILTIN_GROUPS]
    # Beyond the builtins, up to order 24; S3xS3 (order 36) would take ~37 s.
    named += [(grp.name, grp) for grp in (
        g.dihedral(12), g.dihedral(16), g.direct_product(g.quaternion(), g.cyclic(2)),
        g.direct_product(g.symmetric(3), g.cyclic(3)), g.dihedral(20),
        g.symmetric(4), g.dihedral(24))]
    ops = []
    for name, grp in named:
        def run(grp=grp):
            return grp, reps.enumerate_irreps(grp, seed=seed)

        ops.append(Op(f"irreps/{name}", "irreps", run,
                      _library_irreps_fields, {"order": grp.order}))
    return ops


BUILDERS = {
    "bundled-cli": _bundled_cli,
    "dihedral-plane": _dihedral_plane,
    "z2-line-ladder": _z2_line_ladder,
    "irreps-groups": _irreps_groups,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's ops, with their input files written into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, workdir)
