"""Capture the library verdicts that tests/test_golden_verdicts.py compares.

Run from the root of the checkout:

    PYTHONPATH=src python tests/capture_golden_verdicts.py

It recomputes every verdict of cases(), rewrites tests/golden_verdicts.json
with the git sha of the checkout it ran in, and prints a line for each
value that differs from the file it replaces.  A verdict is flattened to a
dict of bools, ints, strings, floats (residuals) and lists of them.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from equivaria.datasets import bundled
from equivaria.groups import symmetric
from equivaria.hilbmod import (
    equivariant_function_module,
    scalar_translation_action,
    verify_green_julg,
)
from equivaria.morita import (
    assemble_toy_dual,
    quotient_equivariant_module,
    semidirect_reduction,
    verify_morita_theorem,
)
from equivaria.spectrum import wedderburn_crosscheck
from equivaria.systems import (
    dihedral_plane_family,
    iterated_crossed_iso,
    phi_iso,
    restrict_system,
    z2_line_system,
    z2xz2_line_system,
)
from test_acceptance import _flip_z2, _grid_z2xz2, _s3_translation

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
TOLERANCES = (1e-8, 1e-6)


def dihedral_grid(r: int):
    """dihedral_plane_family on the grid {-r..r}^2."""
    pts = [(float(i), float(j)) for i in range(-r, r + 1) for j in range(-r, r + 1)]
    return dihedral_plane_family().system(pts, name=f"dihedral-grid-{r}")


def witness_fields(w) -> dict | None:
    if w is None:
        return None
    return {"ok": w.ok, "a_dim": w.a_dim, "b_dim": w.b_dim, "full": w.full,
            "span_match": w.span_match, "injective": w.injective,
            "multiplicative_residual": w.multiplicative_residual,
            "star_residual": w.star_residual}


def theorem_fields(v) -> dict:
    return {"ok": v.ok, "conditions_hold": v.conditions_hold,
            "normalisation_ok": v.scalar.normalisation_ok,
            "completeness_ok": v.scalar.completeness_ok,
            "wprime": [list(elems) for elems in v.scalar.wprime],
            "j_dim": v.j_dim, "c_dim": v.c_dim, "spans_match": v.spans_match,
            "strict_inclusion": v.strict_inclusion, "j_in_c_residual": v.j_in_c_residual,
            "witness": witness_fields(v.witness), "fpa_blocks": v.fpa_blocks,
            "c_blocks": v.c_blocks, "gaps": [list(gap) for gap in v.gaps]}


def wedderburn_fields(v) -> dict:
    return {"ok": v.ok, "spectrum_dims": list(v.spectrum_dims),
            "block_sizes": list(v.block_sizes), "algebra_dim": v.algebra_dim,
            "sum_of_squares": v.sum_of_squares,
            "integrality_distance": v.integrality_distance,
            "entries": [[e.label, list(e.orbit), e.dim] for e in v.spectrum.entries]}


def reduction_fields(rep) -> dict:
    return {"ok": rep.ok, "splitting_ok": rep.splitting_ok,
            "theorem": theorem_fields(rep.theorem), "iso_bijective": rep.iso_bijective,
            "iso_mult_residual": rep.iso_mult_residual,
            "iso_star_residual": rep.iso_star_residual,
            "ideal_transport_ok": rep.ideal_transport_ok,
            "wprime_theorem": theorem_fields(rep.wprime_theorem),
            "final_witness": witness_fields(rep.final_witness),
            "fpa_block_count": rep.fpa_block_count,
            "final_block_count": rep.final_block_count, "final_dim": rep.final_dim}


def toy_dual_fields(rep) -> dict:
    return {"ok": rep.ok, "witness": witness_fields(rep.witness),
            "fpa_dims": list(rep.fpa_dims), "final_dims": list(rep.final_dims),
            "block_counts": list(rep.block_counts),
            "reductions": [reduction_fields(r) for r in rep.reductions]}


def green_julg_fields(v) -> dict:
    return {"ok": v.ok, "averaged_compacts_dim": v.averaged_compacts_dim,
            "invariant_compacts_dim": v.invariant_compacts_dim, "residual": v.residual}


def quotient_module(sys, wprime, r):
    """The R-equivariant quotient module of sys for the splitting W' >| R,
    as the semidirect reduction builds it."""
    sys_p, u_sub = restrict_system(sys, wprime)
    return quotient_equivariant_module(sys, sys_p, np.array(u_sub.embedding),
                                       sys.group.subgroup(r))[0]


def iso_fields(w) -> dict:
    return {"ok": w.ok, "source_dim": w.source_dim, "target_dim": w.target_dim,
            "bijective": w.bijective, "multiplicative_residual": w.multiplicative_residual,
            "star_residual": w.star_residual}


def crossed_isos():
    """(key, thunk) for the crossed-product isomorphisms of criterion 5's
    systems: phi_iso on each, and iterated_crossed_iso for its splitting."""
    g3 = symmetric(3)
    rotations = [w for w in g3.elements() if g3.product(w, w, w) == 0]
    splittings = [(_flip_z2, [0, 1], [0]), (_grid_z2xz2, [0, 2], [0, 1]),
                  (_s3_translation, rotations, [0, min(set(g3.elements()) - set(rotations))])]
    for build, normal, complement in splittings:
        name = build().name
        yield f"phi-iso/{name}", lambda build=build: iso_fields(phi_iso(build())[0])
        yield (f"iterated-crossed-iso/{name}",
               lambda build=build, normal=normal, complement=complement: iso_fields(
                   iterated_crossed_iso(scalar_translation_action(build()), normal, complement)))


def cases():
    """(key, thunk) for every verdict of the corpus."""
    systems = [(f"z2-line-{n}", lambda n=n: z2_line_system(n)) for n in range(1, 13)]
    systems += [(f"dihedral-grid-{r}", lambda r=r: dihedral_grid(r)) for r in range(1, 4)]
    for tol in TOLERANCES:
        for name, build in systems:
            yield (f"wedderburn/{name}@{tol:g}",
                   lambda build=build, tol=tol: wedderburn_fields(
                       wedderburn_crosscheck(build(), tol=tol)))
            yield (f"morita/{name}@{tol:g}",
                   lambda build=build, tol=tol: theorem_fields(
                       verify_morita_theorem(build(), tol=tol)))
            yield (f"green-julg/{name}@{tol:g}",
                   lambda build=build, tol=tol: green_julg_fields(
                       verify_green_julg(equivariant_function_module(build()), tol=tol)))
        for n in range(1, 4):
            yield (f"reduction/z2xz2-line-{n}@{tol:g}",
                   lambda n=n, tol=tol: reduction_fields(
                       semidirect_reduction(z2xz2_line_system(n), [0, 2], [0, 1], tol=tol)))
            yield (f"green-julg/quotient-z2xz2-line-{n}@{tol:g}",
                   lambda n=n, tol=tol: green_julg_fields(verify_green_julg(
                       quotient_module(z2xz2_line_system(n), [0, 2], [0, 1]), tol=tol)))
        yield (f"toy-dual/two-component@{tol:g}",
               lambda tol=tol: toy_dual_fields(
                   assemble_toy_dual(bundled("two-component"), tol=tol)))
    yield from crossed_isos()


def capture() -> dict:
    return {key: thunk() for key, thunk in cases()}


def differences(old, new, float_tol: float = 0.0, where: str = ""):
    """Paths at which two captured values differ: keys, bools, ints, strings
    and list lengths exactly, floats within float_tol."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                yield f"{where}/{key}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}"
            else:
                yield from differences(old[key], new[key], float_tol, f"{where}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, float_tol, f"{where}[{i}]")
    elif isinstance(old, float) and isinstance(new, float):
        if not abs(old - new) <= float_tol:
            yield f"{where}: {old!r} -> {new!r}"
    elif type(old) is not type(new) or old != new:
        yield f"{where}: {old!r} -> {new!r}"


def main() -> int:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=GOLDEN.parent).stdout.strip()
    verdicts = capture()
    old = json.loads(GOLDEN.read_text())["verdicts"] if GOLDEN.exists() else {}
    for line in differences(old, verdicts):
        print(line)
    GOLDEN.write_text(json.dumps({"captured_at": sha, "verdicts": verdicts}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
