"""Self-tests of the benchmark harness: span arithmetic, tracer installation,
failure accounting, trace-invariance of verdicts and the reference itself.

    python3 -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads
from make_reference import cross_check

BENCH = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_and_recursive_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", clock)
    tr = tracer.Tracer()

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 2.0
        inner_w()
        clock.now += 1.0

    def rec(n):
        clock.now += 1.0
        if n:
            rec_w(n - 1)

    def boom():
        clock.now += 0.5
        raise ValueError

    inner_w = tr._wrap("m.inner", inner)
    outer_w = tr._wrap("m.outer", outer)
    rec_w = tr._wrap("m.rec", rec)
    boom_w = tr._wrap("m.boom", boom)
    outer_w()
    rec_w(2)
    with pytest.raises(ValueError):
        boom_w()
    s = tr.stats
    assert (s["m.outer"].total_s, s["m.outer"].self_s) == (6.0, 3.0)
    assert (s["m.inner"].total_s, s["m.inner"].self_s) == (3.0, 3.0)
    # Recursion: inclusive time counted once, self time per activation.
    assert (s["m.rec"].calls, s["m.rec"].total_s, s["m.rec"].self_s) == (3, 3.0, 3.0)
    assert (s["m.boom"].errors, s["m.boom"].self_s) == (1, 0.5)
    assert tr._stack == []


def test_install_rebinds_every_namespace():
    from equivaria import cli, hilbmod, matalg, morita, spectrum, linalg

    originals = (matalg.block_decompose, linalg.flatten,
                 matalg.MatrixStarAlgebra.closure_residual)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert spectrum.block_decompose is matalg.block_decompose
        assert morita.block_decompose is matalg.block_decompose
        assert getattr(matalg.block_decompose, "__wrapped_by_tracer__", False)
        assert hilbmod.compact_operators is morita.compact_operators
        assert getattr(morita.compact_operators, "__wrapped_by_tracer__", False)
        assert getattr(matalg.MatrixStarAlgebra.closure_residual,
                       "__wrapped_by_tracer__", False)
        assert getattr(cli.SUITES["groups"], "__wrapped_by_tracer__", False)
        assert linalg.flatten is originals[1]          # hot helper, left alone
    finally:
        tr.uninstall()
    assert matalg.block_decompose is originals[0]
    assert spectrum.block_decompose is originals[0]
    assert matalg.MatrixStarAlgebra.closure_residual is originals[2]


def test_install_after_importing_only_groups_and_reps():
    script = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / "src")!r}]
        import equivaria.reps, tracer
        tr = tracer.Tracer()
        tr.install()
        from equivaria import matalg
        assert matalg.MatrixStarAlgebra.unit.__wrapped_by_tracer__
        tr.uninstall()
    """)
    subprocess.run([sys.executable, "-c", script], timeout=120, check=True)


def _op(fn, op_id="x/y", kind="morita"):
    return workloads.Op(op_id, kind, fn, lambda result: {"value": result})


def test_capped_memory_error_is_charged_the_budget():
    script = textwrap.dedent(f"""
        import json, resource, sys
        sys.path.insert(0, {str(BENCH)!r})
        import child, workloads
        import numpy as np
        cap = child.MEMORY_CAP_BYTES
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        op = workloads.Op("m/x", "morita",
                          lambda: np.ones((136, 136, 136, 136), complex), dict)
        print(json.dumps(child.run_op(op)))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True)
    rec = json.loads(out.stdout.splitlines()[-1])
    assert (rec["outcome"], rec["error"]) == ("memory", "MemoryError")
    assert rec["seconds"] < child.OP_BUDGET_S
    assert run.charged_seconds(rec) == child.OP_BUDGET_S


def test_budget_and_post_work_errors():
    def slow():
        time.sleep(1.0)

    rec = child.run_op(_op(slow), budget=0.2)
    assert rec["outcome"] == "budget"
    assert run.charged_seconds(rec, budget=0.2) == 0.2

    def work_then_type_error():
        time.sleep(0.05)
        raise TypeError("Object of type bool is not JSON serializable")

    rec = child.run_op(_op(work_then_type_error))
    assert (rec["outcome"], rec["error"]) == ("error", "TypeError")
    assert 0.05 <= run.charged_seconds(rec) == rec["seconds"] < child.OP_BUDGET_S


def test_judge_known_defects_and_partial_references():
    ok = {"outcome": "ok", "error": None, "verdict": {"exit": 0, "ok": True, "n": 3}}
    err = {"outcome": "error", "error": "TypeError", "verdict": None}
    assert run.judge(ok, {"verdict": ok["verdict"]}) == (False, True)
    assert run.judge(ok, {"verdict": {"exit": 0, "ok": True, "n": 4}}) == (True, False)
    assert run.judge(err, {"known_defect": "TypeError", "verdict": None}) == (True, True)
    assert run.judge(err, {"verdict": ok["verdict"]}) == (True, False)
    partial = {"known_defect": "MemoryError", "verdict": None,
               "partial": {"exit": 0, "ok": True}}
    assert run.judge(ok, partial) == (False, True)
    assert run.judge({**ok, "verdict": {"exit": 1, "ok": False}}, partial) == (True, False)


def test_traced_and_untraced_verdicts_are_identical(tmp_path):
    picked = {"spectrum/z2-line", "morita/anticomplete-point", "morita/z2-line",
              "irreps/S3"}
    ops = [op for op in workloads.build("bundled-cli", 0, tmp_path) if op.id in picked]
    ops += workloads.build("z2-line-ladder", 0, tmp_path)[:2]
    untraced = [child.run_op(op) for op in ops]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [child.run_op(op) for op in ops]
    finally:
        tr.uninstall()

    def fields(records):
        return json.dumps([[r["outcome"], r["verdict"]] for r in records],
                          sort_keys=True).encode()

    assert fields(traced) == fields(untraced)
    assert tr.stats["matalg.block_decompose"].calls > 0
    ref = run.load_reference()
    for rec in untraced:
        workload = "z2-line-ladder" if rec["id"].endswith("-3") else "bundled-cli"
        assert run.judge(rec, ref[workload][rec["id"]]) == (False, True)


def test_reference_agrees_with_the_test_suite():
    ref = run.load_reference()
    assert set(ref) == set(workloads.WORKLOADS)
    cross_check(ref)
    known = {(w, op) for w, ops in ref.items() for op, e in ops.items()
             if "known_defect" in e}
    assert known == {("bundled-cli", "verify/all"),
                     ("dihedral-plane", "morita/dihedral-plane")}
    assert len(ref["bundled-cli"]) == 19 and len(ref["dihedral-plane"]) == 2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "irreps-groups",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
