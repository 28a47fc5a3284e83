"""End-to-end acceptance checks, one test per headline guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion.  Each test states its tolerance and (where relevant) its runtime
budget explicitly.
"""
import importlib
import json
import os
import pkgutil
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import equivaria
from equivaria import morita
from equivaria.cli import main as cli_main
from equivaria.datasets import bundled, dataset_names
from equivaria.groups import BUILTIN_GROUPS, builtin_group, symmetric
from equivaria.hilbmod import (
    equivariant_function_module,
    function_module,
    green_julg_module,
    green_julg_norms,
    scalar_translation_action,
    standard_module,
    trivial_equivariant_module,
    free_module,
    verify_green_julg,
)
from equivaria.matalg import MatrixSpan, check_stone_weierstrass, generate
from equivaria.morita import (
    assemble_toy_dual,
    semidirect_reduction,
    verify_morita_theorem,
)
from equivaria.reps import (
    character_inner,
    enumerate_irreps,
    intertwiner_space,
    isotypic_projection,
    regular_rep,
)
from equivaria.spectrum import (
    classify_irreps,
    fell_limit_certificate,
    wedderburn_crosscheck,
)
from equivaria.systems import (
    EquivariantSystem,
    anticomplete_point_system,
    fixed_point_algebra,
    iterated_crossed_iso,
    one_point_system,
    phi_iso,
    z2_line_family,
    z2_line_system,
    z2xz2_line_system,
)


def test_criterion_1_z2_line_classification():
    """Sign-cocycle line, n = 4: spectrum, fixed points, and blocks in < 5 s."""
    n = 4
    start = time.perf_counter()
    sys = z2_line_system(n)
    desc = classify_irreps(sys, tol=1e-8)
    fpa = fixed_point_algebra(sys, tol=1e-8)
    verdict = wedderburn_crosscheck(sys, tol=1e-8)
    elapsed = time.perf_counter() - start
    dims = sorted(e.dim for e in desc.entries)
    assert dims == [1, 1] + [2] * n
    origin = sys.points.index(0.0)
    origin_entries = [e for e in desc.entries if e.point == origin]
    assert sorted(e.dim for e in origin_entries) == [1, 1]
    assert fpa.dim == 4 * n + 2
    assert verdict.ok
    assert sorted(verdict.block_sizes) == [1, 1] + [2] * n
    assert elapsed < 5.0, f"classification took {elapsed:.2f}s"


def test_criterion_2_fell_limit_certificates():
    """Both one-dimensional entries at the origin are Fell limits of x_n = 1/n."""
    fam = z2_line_family()
    seq = [1.0 / k for k in range(1, 21)]
    for label in ("1d0", "1d1"):
        cert = fell_limit_certificate(fam, seq, 0.0, label, tail_length=8)
        assert cert.accepted, label
        assert max(cert.residuals[-8:]) < 1e-6, label


def test_criterion_3_green_julg_instances():
    """The averaging identification holds on three independent instances."""
    instances = [
        trivial_equivariant_module(free_module(3), builtin_group("trivial")),
        equivariant_function_module(z2_line_system(2)),
        equivariant_function_module(one_point_system(
            symmetric(3), regular_rep(symmetric(3)).matrices)),
    ]
    for eq in instances:
        verdict = verify_green_julg(eq)
        assert verdict.ok and verdict.residual < 1e-8, eq.base.name


def test_criterion_4_relation_ideal():
    """J = C with a witness on the line; strict inclusion at the bad point."""
    good = verify_morita_theorem(z2_line_system(2))
    assert good.conditions_hold and good.spans_match
    assert good.j_dim == good.c_dim
    assert good.j_in_c_residual < 1e-8
    assert good.witness is not None and good.witness.ok

    bad = verify_morita_theorem(anticomplete_point_system())
    assert not bad.conditions_hold
    assert bad.j_dim == 1 and bad.c_dim == 2
    assert bad.strict_inclusion and bad.j_in_c_residual < 1e-8


def _grid_z2xz2():
    """Z/2 x Z/2 on the symmetric 3 x 3 grid: a flips rows, b flips columns."""
    g = builtin_group("Z2xZ2")
    pts = tuple((float(i), float(j)) for i in (-1, 0, 1) for j in (-1, 0, 1))
    idx = {p: k for k, p in enumerate(pts)}
    action = np.zeros((4, 9), dtype=np.intp)
    for w in range(4):
        a, b = divmod(w, 2)
        for (i, j), k in idx.items():
            action[w, k] = idx[(-i if a else i, -j if b else j)]
    coc = np.ones((4, 9, 1, 1), dtype=complex)
    return EquivariantSystem(g, pts, action, 1, coc, name="grid-z2xz2")


def _flip_z2(n_points=5):
    from equivaria.groups import cyclic
    g = cyclic(2)
    pts = tuple(float(j) for j in range(-(n_points // 2), n_points // 2 + 1))
    action = np.stack([np.arange(n_points), np.arange(n_points)[::-1]])
    coc = np.ones((2, n_points, 1, 1), dtype=complex)
    return EquivariantSystem(g, pts, action, 1, coc, name="flip")


def _s3_translation():
    g = symmetric(3)
    pts = tuple(float(x) for x in range(6))
    action = np.asarray(g.mul, dtype=np.intp)
    coc = np.ones((6, 6, 1, 1), dtype=complex)
    return EquivariantSystem(g, pts, action, 1, coc, name="s3-translation")


def test_criterion_5_crossed_product_isomorphisms():
    """phi and the iterated-crossed-product map are *-isomorphisms (< 1e-9)."""
    systems = [_flip_z2(5), _grid_z2xz2(), _s3_translation()]
    for sys in systems:
        witness, _, _, _ = phi_iso(sys)
        assert witness.ok, sys.name
        assert witness.multiplicative_residual < 1e-9, sys.name
        assert witness.star_residual < 1e-9, sys.name
    g3 = symmetric(3)
    rotations = [w for w in g3.elements() if g3.product(w, w, w) == 0]
    splittings = [
        (_flip_z2(5), [0, 1], [0]),
        (_grid_z2xz2(), [0, 2], [0, 1]),
        (_s3_translation(), rotations,
         [0, min(set(g3.elements()) - set(rotations))]),
    ]
    for sys, normal, complement in splittings:
        witness = iterated_crossed_iso(scalar_translation_action(sys),
                                       normal, complement)
        assert witness.ok, sys.name
        assert witness.multiplicative_residual < 1e-9, sys.name
        assert witness.star_residual < 1e-9, sys.name


def test_criterion_6_semidirect_reduction_and_assembly():
    """The Z/2 x Z/2 line reduces end-to-end; two components assemble."""
    n = 2
    report = semidirect_reduction(z2xz2_line_system(n), [0, 2], [0, 1])
    assert report.ok
    assert report.fpa_block_count == n + 2
    assert report.final_block_count == n + 2

    toy = assemble_toy_dual([
        (z2xz2_line_system(1), [0, 2], [0, 1]),
        (z2xz2_line_system(2), [0, 2], [0, 1]),
    ])
    assert toy.ok
    assert all(r.ok for r in toy.reductions)
    # The assembled witness is block-diagonal with matching block counts.
    assert toy.block_counts[0] == toy.block_counts[1] == 3 + 4


def test_criterion_7_builtin_group_representation_theory():
    """All builtin groups: dimension count, orthogonality, resolution of 1."""
    for name in sorted(BUILTIN_GROUPS):
        g = builtin_group(name)
        irreps = enumerate_irreps(g)
        assert sum(r.dim ** 2 for r in irreps) == g.order, name
        for i, rho in enumerate(irreps):
            for j, sig in enumerate(irreps):
                inner = character_inner(rho.character(), sig.character())
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10, name
                dim = intertwiner_space(rho, sig).shape[0]
                assert dim == (1 if i == j else 0), name
        reg = regular_rep(g)
        total = sum(isotypic_projection(reg, rho) for rho in irreps)
        assert np.abs(total - np.eye(g.order)).max() < 1e-10, name


def test_criterion_8_stone_weierstrass_sweep():
    """200 seeded random subalgebra pairs, ambient dim <= 4 (dim A <= 20), < 60 s."""
    start = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        n_gens = int(rng.integers(1, 3))
        gens = rng.standard_normal((n_gens, n, n)) + \
            1j * rng.standard_normal((n_gens, n, n))
        alg = generate(gens, ambient_dim=n)
        assert alg.dim <= 20
        h = alg.element(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
        sub = generate([h], ambient_dim=n)
        verdict = check_stone_weierstrass(sub, alg, seed=seed)
        assert verdict.holds, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"


def test_criterion_9_module_axioms_and_norm_bounds():
    """Axioms and Cauchy-Schwarz on every bundled module; averaging bounds."""
    line = z2_line_system(2)
    from equivaria.systems import dihedral_plane_system
    eq_line = equivariant_function_module(line)
    gj_line, _ = green_julg_module(eq_line)
    modules = [
        function_module(line),
        function_module(dihedral_plane_system()),
        function_module(anticomplete_point_system()),
        standard_module(fixed_point_algebra(line)),
        gj_line,
    ]
    rng = np.random.default_rng(0)
    for e in modules:
        res = e.axiom_residuals(rng)
        assert max(res.values()) < 1e-8, (e.name, res)
        for _ in range(100):
            xi, eta = e.random_vector(rng), e.random_vector(rng)
            assert e.cauchy_schwarz_residual(xi, eta) < 1e-8, e.name
    # Averaged-module norm bounds, with equality witnessed at |W| = 1.
    gj = green_julg_module(eq_line)[0]
    for _ in range(20):
        n1, n2, order = green_julg_norms(eq_line, eq_line.base.random_vector(rng), gj)
        assert n1 <= n2 + 1e-9
        assert n2 <= order * n1 + 1e-8
    triv = trivial_equivariant_module(free_module(3), builtin_group("trivial"))
    gj_t = green_julg_module(triv)[0]
    n1, n2, order = green_julg_norms(triv, triv.base.random_vector(rng), gj_t)
    assert order == 1 and abs(n1 - n2) < 1e-12


# Each capped CLI run is a child process whose address space is capped at
# 2 GiB and whose wall time is capped at 60 s.  BLAS runs one thread, so its
# per-thread buffers do not count against the cap on machines with many cores.
CLI_CAP_BYTES = 2 << 30
CLI_TIMEOUT_S = 60


def run_capped_cli(*args) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CLI_CAP_BYTES, CLI_CAP_BYTES))

    return subprocess.run([sys.executable, "-m", "equivaria.cli", *args],
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def test_criterion_10_dihedral_plane_morita_under_a_memory_cap():
    """`equivaria morita` on dihedral-plane (|W| = 8, |X| = 17, so B >| W has
    dimension 136 in M_136) ends with a verdict under the 2 GiB cap, in < 60 s."""
    out = run_capped_cli("morita", "--input", "dihedral-plane", "--format", "json")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["ok"] and not report["conditions_hold"]
    assert (report["j_dim"], report["c_dim"]) == (132, 136)
    assert report["strict_inclusion"]


# Every capped CLI run and its documented exit code.  irreps takes a group
# and spectrum one system, so the others are input errors (exit 2).
CLI_RUNS = [
    *[(("irreps", "--input", name), 2) for name in dataset_names()],
    *[(("spectrum", "--input", name), 2 if name == "two-component" else 0)
      for name in dataset_names()],
    *[(("morita", "--input", name), 0) for name in dataset_names()],
    (("verify", "all"), 0),
    (("examples",), 0),
]


# The JSON report of every exit-0 run of CLI_RUNS, keyed by its arguments.
GOLDEN_CLI_RUNS = Path(__file__).with_name("golden_cli_runs.json")


def assert_matches_golden(report, golden, where: str) -> None:
    """Keys, strings, ints and booleans exactly; floats within 1e-12."""
    if isinstance(golden, dict):
        assert isinstance(report, dict) and report.keys() == golden.keys(), where
        for key in golden:
            assert_matches_golden(report[key], golden[key], f"{where}/{key}")
    elif isinstance(golden, list):
        assert isinstance(report, list) and len(report) == len(golden), where
        for i, (r, g) in enumerate(zip(report, golden)):
            assert_matches_golden(r, g, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(report, float) and abs(report - golden) <= 1e-12, (where, report, golden)
    else:
        assert type(report) is type(golden) and report == golden, (where, report, golden)


def test_criterion_11_every_dataset_through_every_command():
    """irreps, spectrum and morita on every bundled dataset, plus `verify all`
    and `examples`: each ends under the 2 GiB cap, in < 60 s, with its
    documented exit code and no traceback, and each exit-0 JSON report is
    the golden one.  Two children run at a time."""
    golden = json.loads(GOLDEN_CLI_RUNS.read_text())
    assert sorted(golden) == sorted(" ".join(args) for args, code in CLI_RUNS if code == 0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        outs = list(pool.map(lambda run: run_capped_cli(*run[0], "--format", "json"),
                             CLI_RUNS))
    for (args, code), out in zip(CLI_RUNS, outs):
        assert out.returncode == code, (args, out.stderr)
        assert "Traceback" not in out.stderr, args
        if code == 0:
            key = " ".join(args)
            assert_matches_golden(json.loads(out.stdout), golden[key], key)


def test_no_cli_run_multiplies_a_basis_pairwise(monkeypatch, capsys):
    """Every run of CLI_RUNS, in process, with the dense product pass of a
    span of matrices (MatrixSpan.algebra) made to fail: every algebra a
    command multiplies in has its blocks from its builder, so each run ends
    as documented."""
    def dense_pass(span):
        raise AssertionError(f"dense product pass on a span of dimension {span.dim}")

    monkeypatch.setattr(MatrixSpan, "algebra", property(dense_pass))
    for args, code in CLI_RUNS:
        assert cli_main([*args, "--format", "json"]) == code, args
    capsys.readouterr()


def test_morita_runs_enumerate_no_irreps(monkeypatch, capsys):
    """verify_morita_theorem on every bundled system and z2xz2-line 1-2, a
    semidirect reduction, and every `morita` run of CLI_RUNS, with
    enumerate_irreps made to fail in every module that imports it:
    completeness is a rank of traces, so no stabilizer's irreps are built.
    Where no witness is built, on dihedral-plane and anticomplete-point,
    the fixed-point algebra is not built either."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_irreps called on a Morita run")

    modules = [importlib.import_module(info.name)
               for info in pkgutil.iter_modules(equivaria.__path__, "equivaria.")]
    holders = [m for m in modules if hasattr(m, "enumerate_irreps")]
    assert {m.__name__ for m in holders} >= {"equivaria.reps", "equivaria.cli"}
    for module in holders:
        monkeypatch.setattr(module, "enumerate_irreps", refuse)
    built = []
    fpa = morita.fixed_point_algebra
    monkeypatch.setattr(morita, "fixed_point_algebra",
                        lambda sys, *args, **kwargs: built.append(sys) or fpa(sys, *args, **kwargs))
    for name in ("dihedral-plane", "anticomplete-point"):
        verdict = verify_morita_theorem(bundled(name))
        assert verdict.ok and verdict.witness is None
        assert cli_main(["morita", "--input", name, "--format", "json"]) == 0
    assert built == []
    for sys in (bundled("z2-line"), z2xz2_line_system(1), z2xz2_line_system(2)):
        assert verify_morita_theorem(sys).ok
    assert semidirect_reduction(z2xz2_line_system(2), [0, 2], [0, 1]).ok
    for args, code in CLI_RUNS:
        if args[0] == "morita":
            assert cli_main([*args, "--format", "json"]) == code, args
    capsys.readouterr()
