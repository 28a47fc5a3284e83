"""Command-line interface: irreps, spectrum, morita, verify, examples.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 out of
memory.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
from pathlib import Path

import numpy as np

from .datasets import DATASET_DESCRIPTIONS, bundled, dataset_names
from .groups import BUILTIN_GROUPS, FiniteGroup, builtin_group
from .linalg import check_tol
from .matalg import SplitError
from .morita import (
    assemble_toy_dual,
    semidirect_reduction,
    verify_morita_theorem,
)
from .reps import DegenerateSplitError, enumerate_irreps
from .serialize import SCHEMA, ParseError, complex_to_json, parse_document
from .spectrum import wedderburn_crosscheck
from .systems import EquivariantSystem

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class InputError(ValueError):
    pass


def _load_input(value: str):
    """Resolve --input: a bundled dataset name, builtin group, or file path."""
    if value in DATASET_DESCRIPTIONS:
        return bundled(value)
    if value in BUILTIN_GROUPS:
        return builtin_group(value)
    path = Path(value)
    if not path.exists():
        raise InputError(f"no such file, bundled dataset, or builtin: {value!r}")
    try:
        return parse_document(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        raise InputError(f"{value}: {exc}") from exc


def _emit(report: dict, fmt: str, text_lines) -> None:
    # text_lines is a generator, so its lines are formatted for text only.
    # A reader gone away (`| head`) is not an error; pointing stdout at the
    # null device keeps the flush at exit from failing again.
    try:
        if fmt == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        _sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())


def cmd_irreps(args) -> int:
    obj = _load_input(args.input)
    if not isinstance(obj, FiniteGroup):
        raise InputError("irreps expects a group input")
    irreps = enumerate_irreps(obj, seed=args.seed, tol=args.tolerance)
    rows = []
    for rho in irreps:
        chi = rho.character()
        rows.append({"label": rho.label, "dim": rho.dim,
                     "character": [complex_to_json(c) for c in chi]})
    report = {"schema": SCHEMA, "command": "irreps", "group": obj.name,
              "order": obj.order, "irreps": rows}

    def lines():
        yield f"group {obj.name} (order {obj.order}): {len(rows)} irreducibles"
        for row in rows:
            chi = ", ".join(f"{c[0]:+.4f}{c[1]:+.4f}i" for c in row["character"])
            yield f"  {row['label']}  dim {row['dim']}  character [{chi}]"

    _emit(report, args.format, lines())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    obj = _load_input(args.input)
    if isinstance(obj, tuple):
        obj = obj[0]
    if not isinstance(obj, EquivariantSystem):
        raise InputError("spectrum expects a system input")
    verdict = wedderburn_crosscheck(obj, seed=args.seed, tol=args.tolerance)
    entries = [{"label": e.label, "orbit": list(e.orbit), "dim": e.dim,
                "stabilizer_order": e.stabilizer.group.order}
               for e in verdict.spectrum.entries]
    report = {"schema": SCHEMA, "command": "spectrum", "system": obj.name,
              "entries": entries,
              "wedderburn": {"ok": verdict.ok,
                             "spectrum_dims": list(verdict.spectrum_dims),
                             "block_sizes": list(verdict.block_sizes),
                             "algebra_dim": verdict.algebra_dim,
                             "integrality_distance": verdict.integrality_distance}}

    def lines():
        yield f"system {obj.name}: {len(entries)} irreducibles"
        for e in entries:
            yield (f"  {e['label']}  dim {e['dim']}  orbit size {len(e['orbit'])}"
                   f"  stabilizer order {e['stabilizer_order']}")
        yield f"wedderburn crosscheck: {'PASS' if verdict.ok else 'FAIL'} ({verdict.diff()})"

    _emit(report, args.format, lines())
    return EXIT_OK if verdict.ok else EXIT_VERIFICATION


def _witness_json(w) -> dict | None:
    if w is None:
        return None
    return {"ok": w.ok, "full": w.full, "span_match": w.span_match,
            "multiplicative_residual": w.multiplicative_residual,
            "star_residual": w.star_residual}


def _theorem_json(v) -> dict:
    return {"ok": v.ok, "conditions_hold": v.conditions_hold,
            "j_dim": v.j_dim, "c_dim": v.c_dim, "spans_match": v.spans_match,
            "strict_inclusion": v.strict_inclusion,
            "normalisation_ok": v.scalar.normalisation_ok,
            "completeness_ok": v.scalar.completeness_ok,
            "fpa_blocks": v.fpa_blocks, "c_blocks": v.c_blocks,
            "gaps": [{"point": x, "j_dim": j, "c_dim": c} for x, j, c in v.gaps],
            "witness": _witness_json(v.witness)}


def cmd_morita(args) -> int:
    obj = _load_input(args.input)
    if isinstance(obj, list):
        toy = assemble_toy_dual(obj, seed=args.seed, tol=args.tolerance)
        report = {"schema": SCHEMA, "command": "morita", "mode": "toy-dual",
                  "components": [{"system": r.system_name, "ok": r.ok,
                                  "fpa_blocks": r.fpa_block_count,
                                  "final_blocks": r.final_block_count}
                                 for r in toy.reductions],
                  "witness": _witness_json(toy.witness), "ok": toy.ok}

        def lines():
            yield (f"toy dual assembly over {len(toy.reductions)} components: "
                   f"{'PASS' if toy.ok else 'FAIL'}")
            for r in toy.reductions:
                yield (f"  {r.system_name}: reduction {'ok' if r.ok else 'FAILED'}, "
                       f"blocks {r.fpa_block_count} = {r.final_block_count}")

        _emit(report, args.format, lines())
        return EXIT_OK if toy.ok else EXIT_VERIFICATION
    extras = {}
    if isinstance(obj, tuple):
        obj, extras = obj
    if not isinstance(obj, EquivariantSystem):
        raise InputError("morita expects a system or components input")
    if extras:
        rep = semidirect_reduction(obj, extras["wprime"], extras["r"],
                                   seed=args.seed, tol=args.tolerance)
        report = {"schema": SCHEMA, "command": "morita", "mode": "reduction",
                  "system": obj.name, "ok": rep.ok,
                  "theorem": _theorem_json(rep.theorem),
                  "iso": {"bijective": rep.iso_bijective,
                          "multiplicative_residual": rep.iso_mult_residual,
                          "star_residual": rep.iso_star_residual},
                  "ideal_transport_ok": rep.ideal_transport_ok,
                  "final_witness": _witness_json(rep.final_witness),
                  "fpa_blocks": rep.fpa_block_count,
                  "final_blocks": rep.final_block_count}

        def lines():
            yield f"semidirect reduction on {obj.name}: {'PASS' if rep.ok else 'FAIL'}"
            yield f"  theorem link: {'ok' if rep.theorem.ok else 'FAILED'}"
            yield (f"  crossed iso: bijective={rep.iso_bijective}, "
                   f"mult residual {rep.iso_mult_residual:.2e}")
            yield f"  ideal transport: {rep.ideal_transport_ok}"
            yield f"  final witness: {'ok' if rep.final_witness.ok else 'FAILED'}"
            yield f"  block counts: {rep.fpa_block_count} vs {rep.final_block_count}"

        _emit(report, args.format, lines())
        return EXIT_OK if rep.ok else EXIT_VERIFICATION
    verdict = verify_morita_theorem(obj, seed=args.seed, tol=args.tolerance)
    report = {"schema": SCHEMA, "command": "morita", "mode": "theorem",
              "system": obj.name, **_theorem_json(verdict)}

    def lines():
        yield f"morita theorem on {obj.name}: {'PASS' if verdict.ok else 'FAIL'}"
        if verdict.conditions_hold:
            yield f"  {'J = C, witness ok' if verdict.ok else 'FAILED'}"
            return
        yield (f"  conditions fail; J dim {verdict.j_dim} "
               f"{'<' if verdict.strict_inclusion else '='} C dim {verdict.c_dim}")
        for x, j, c in verdict.gaps:
            yield f"  dim J_x {j} < dim C_x {c} at point {x} = {obj.points[x]!r}"

    _emit(report, args.format, lines())
    return EXIT_OK if verdict.ok else EXIT_VERIFICATION


def _suite_groups(tol: float, seed: int) -> list[tuple[str, bool]]:
    from .reps import isotypic_projection, regular_rep
    results = []
    for name in sorted(BUILTIN_GROUPS):
        g = builtin_group(name)
        irreps = enumerate_irreps(g, seed=seed, tol=tol)
        ok = sum(r.dim ** 2 for r in irreps) == g.order
        reg = regular_rep(g)
        total = sum(isotypic_projection(reg, rho) for rho in irreps)
        ok &= bool(np.abs(total - np.eye(g.order)).max() < 1e-8)
        results.append((f"groups/{name}", ok))
    return results


def _suite_spectrum(tol: float, seed: int) -> list[tuple[str, bool]]:
    sys = bundled("z2-line")
    v = wedderburn_crosscheck(sys, seed=seed, tol=tol)
    dims = v.spectrum.dims()
    return [("spectrum/z2-line-crosscheck", v.ok),
            ("spectrum/z2-line-entries", dims == [1, 1] + [2] * 4)]


def _suite_morita(tol: float, seed: int) -> list[tuple[str, bool]]:
    v1 = verify_morita_theorem(bundled("z2-line"), seed=seed, tol=tol)
    v2 = verify_morita_theorem(bundled("anticomplete-point"), seed=seed, tol=tol)
    return [("morita/z2-line", v1.ok and v1.conditions_hold),
            ("morita/anticomplete-strict", v2.strict_inclusion
             and v2.j_dim == 1 and v2.c_dim == 2)]


def _suite_modules(tol: float, seed: int) -> list[tuple[str, bool]]:
    from .hilbmod import (equivariant_function_module, green_julg_norms,
                          green_julg_module, verify_green_julg)
    eq = equivariant_function_module(bundled("z2-line"))
    res = eq.base.axiom_residuals(np.random.default_rng(seed))
    gj = green_julg_module(eq)[0]
    rng = np.random.default_rng(seed)
    bounds = True
    for _ in range(10):
        n1, n2, order = green_julg_norms(eq, eq.base.random_vector(rng), gj)
        bounds &= n1 <= n2 + 1e-9 <= order * n1 + 1e-8
    return [("modules/axioms", max(res.values()) < 1e-8),
            ("modules/green-julg", verify_green_julg(eq, tol).ok),
            ("modules/norm-bounds", bounds)]


SUITES = {
    "groups": _suite_groups,
    "spectrum": _suite_spectrum,
    "morita": _suite_morita,
    "modules": _suite_modules,
}


def cmd_verify(args) -> int:
    name = args.suite
    if name == "none":
        picked = []
    elif name == "all":
        picked = [SUITES[k] for k in sorted(SUITES)]
    elif name in SUITES:
        picked = [SUITES[name]]
    else:
        raise InputError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES) + ['all', 'none']}")
    results = []
    for suite in picked:
        # Suites may yield numpy booleans, which json cannot encode.
        results.extend((n, bool(f)) for n, f in suite(args.tolerance, args.seed))
    ok = all(flag for _, flag in results)
    report = {"schema": SCHEMA, "command": "verify", "suite": name,
              "checks": [{"name": n, "ok": f} for n, f in results], "ok": ok}

    def lines():
        yield from (f"{n}: {'PASS' if f else 'FAIL'}" for n, f in results)
        yield f"verify {name}: {'PASS' if ok else 'FAIL'} ({len(results)} checks)"

    _emit(report, args.format, lines())
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_examples(args) -> int:
    report = {"schema": SCHEMA, "command": "examples",
              "datasets": [{"name": n, "description": DATASET_DESCRIPTIONS[n]}
                           for n in dataset_names()]}
    _emit(report, args.format, (f"{n}: {DATASET_DESCRIPTIONS[n]}" for n in dataset_names()))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="equivaria",
        description="finite equivariant operator algebra toolkit",
        epilog="exit codes: 0 success, 1 verification failure, 2 input error, "
               "3 out of memory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", help="file path, bundled dataset, or builtin group")
        p.add_argument("--tolerance", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="text")

    # The Morita checks cut ranks of embedded spans, at 1e-8 unless asked.
    for name, fn, tolerance in (("irreps", cmd_irreps, 1e-9),
                                ("spectrum", cmd_spectrum, 1e-9),
                                ("morita", cmd_morita, 1e-8)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn, needs_input=True, tolerance=tolerance)
    p = sub.add_parser("verify")
    common(p)
    p.add_argument("suite", nargs="?", default="all")
    p.set_defaults(fn=cmd_verify, needs_input=False)
    p = sub.add_parser("examples")
    common(p)
    p.set_defaults(fn=cmd_examples, needs_input=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_tol(args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    if args.seed < 0:
        print("error: seed must not be negative", file=_sys.stderr)
        return EXIT_INPUT
    if args.needs_input and not args.input:
        print(f"error: {args.command} requires --input", file=_sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (ValueError, SplitError, DegenerateSplitError) as exc:
        print(f"verification error: {exc}", file=_sys.stderr)
        return EXIT_VERIFICATION
    except MemoryError:
        print(f"resource error: {args.command} ran out of memory", file=_sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
