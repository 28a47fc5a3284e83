"""Benchmark for equivaria: time to verdict on four workloads, checked against
a committed reference, with per-module spans in a separate traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload bundled-cli --seed 0 --seconds 16 --trace 0

`--workload all` runs the four workloads one after another.

Each run starts SETUP_RUNS fresh child processes (bench/child.py) one after
another; every child caps its address space, pins the BLAS thread count to
the cores it may use, imports equivaria from ./src, builds and serialises
the workload's inputs, warms up BLAS and says "ready".  The last child then
runs the workload's ops back to back for --seconds, in whole passes.

Every op's verdict fields must equal bench/reference.json.  An op fails if it
raises, runs past the per-op budget, hits the memory cap, exits with another
code than the reference or returns other verdict fields.  The reference
records the two failures of the seed commit as known defects: they count as
failed ops but not as wrong output.  A failed op that hit the memory cap or
the budget is charged the whole budget; any other failed op its measured
time, so fixing a failure never reads as a slowdown.

The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are setup_s, verdict_s and
peak_rss_mb; with --trace 1 the per-layer span metrics of BENCHMARK.json.
Full results go to bench/results/<workload>-seed<seed>[.trace].json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from child import MEMORY_CAP_BYTES, OP_BUDGET_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
RUN_DEADLINE_S = 170.0
KINDS = ("irreps", "spectrum", "morita", "verify")

# The per-layer metrics of the traced run: <module>.<qualname>.<stat>.
LAYER_STATS = {
    "linalg.nullspace_rows": ("calls", "self_s", "svd_flops"),
    "linalg.orthonormal_rows": ("calls", "self_s", "svd_flops"),
    "matalg.commutant": ("calls", "total_s"),
    "matalg.center": ("total_s",),
    "linalg.span_intersection": ("total_s",),
    "matalg.block_decompose": ("calls", "total_s", "split_attempts"),
    "reps.enumerate_irreps": ("calls", "total_s", "split_attempts"),
    "reps.intertwiner_space": ("calls", "self_s"),
    "hilbmod.compact_operators": ("calls", "self_s", "total_s"),
    "hilbmod.rank_one": ("calls",),
    "hilbmod.green_julg_module": ("total_s",),
    "hilbmod.verify_morita": ("total_s",),
    "matalg.MatrixStarAlgebra.closure_residual": ("calls", "self_s", "bytes", "errors"),
    "matalg.algebra_from_span": ("total_s",),
    "systems.crossed_product": ("calls", "total_s"),
    "matalg.MatrixStarAlgebra.unit": ("calls", "self_s"),
    "systems.fixed_point_algebra": ("calls", "total_s"),
    "systems.invariant_functions": ("calls", "total_s"),
    "morita.verify_morita_theorem": ("calls", "total_s"),
    "morita.semidirect_reduction": ("calls", "total_s"),
    "morita.quotient_equivariant_module": ("calls",),
    "hilbmod.FDHilbertModule.module_adjoint": ("calls",),
    "morita.c_ideal": ("total_s",),
    "matalg.is_ideal": ("total_s",),
    "spectrum.classify_irreps": ("total_s",),
    "spectrum.wedderburn_crosscheck": ("total_s",),
    "serialize.parse_document": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "errors"),
}
STAT_UNITS = {"calls": "count", "errors": "count", "split_attempts": "count",
              "self_s": "s", "total_s": "s", "svd_flops": "flop", "bytes": "B"}


class BenchError(RuntimeError):
    pass


# -- children ----------------------------------------------------------------------


def _child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    return env, threads


def _spawn(args, workdir: Path, env: dict, setup_only: bool, deadline: float):
    """Start one child; return (setup seconds, final message or None)."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--fd", str(write_fd)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, pass_fds=(write_fd,),
                            stdout=sys.stderr)
    os.close(write_fd)
    messages, buf = [], b""
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as pipe:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError("run deadline passed; child killed")
                ready, _, _ = select.select([pipe], [], [], remaining)
                if not ready:
                    continue
                chunk = pipe.read(1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    msg = json.loads(line)
                    if msg["event"] == "ready":
                        msg["setup_s"] = time.perf_counter() - t0
                    messages.append(msg)
    finally:
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0 or not messages or messages[0]["event"] != "ready":
        raise BenchError(f"workload child exited with code {code}")
    done = messages[-1] if messages[-1]["event"] == "done" else None
    if not setup_only and done is None:
        raise BenchError("workload child ended without results")
    return messages[0]["setup_s"], done


# -- accounting ----------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def judge(record: dict, ref: dict) -> tuple[bool, bool]:
    """(failed, correct) for one op record against its reference entry.

    A reference entry holds "verdict" (the exact verdict fields) or, where
    the seed commit could not produce one, "partial" (fields any future
    verdict must have); "known_defect" names the exception the seed commit
    raised.  A known defect fails the op but is the expected output.
    """
    if record["outcome"] != "ok":
        return True, record["error"] == ref.get("known_defect")
    fields = record["verdict"]
    if "verdict" in ref and ref["verdict"] is not None:
        good = fields == ref["verdict"]
    else:
        good = all(fields.get(k) == v for k, v in ref["partial"].items())
    return not good, good


def charged_seconds(record: dict, budget: float = OP_BUDGET_S) -> float:
    """Seconds an op is charged: the budget if it hit the cap or the budget."""
    if record["outcome"] in ("memory", "budget"):
        return budget
    return record["seconds"]


def summarise(passes: list, reference: dict) -> dict:
    """Per-pass totals, per-kind medians and failure counts of one run."""
    attempted = failed = 0
    correct = True
    per_pass, per_kind, judged = [], {k: [] for k in KINDS}, []
    for p in passes:
        kinds = {}
        for rec in p["ops"]:
            bad, good = judge(rec, reference[rec["id"]])
            attempted += 1
            failed += bad
            correct &= good
            judged.append({**rec, "failed": bad, "correct": good,
                           "charged_s": charged_seconds(rec), "traced": p["traced"]})
            kinds[rec["kind"]] = kinds.get(rec["kind"], 0.0) + charged_seconds(rec)
        per_pass.append(sum(kinds.values()))
        for k, v in kinds.items():
            per_kind[k].append(v)
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "pass_s": per_pass,
            "kind_s": {k: statistics.median(v) for k, v in per_kind.items() if v},
            "ops": judged}


def layer_metrics(spans: list, passes: list) -> dict:
    """Per-layer metrics: medians over the traced passes of each statistic."""
    def med(get):
        return statistics.median(get(s) for s in spans)

    out = {}
    for key, stats in LAYER_STATS.items():
        for stat in stats:
            value = med(lambda s: s["stats"].get(key, {}).get(stat, 0))
            out[f"{key}.{stat}"] = {"value": value, "unit": STAT_UNITS[stat]}
    for module in spans[0]["modules"]:
        out[f"{module}.self_s"] = {"value": med(lambda s: s["modules"][module]),
                                   "unit": "s"}
    raw = {t: [sum(r["seconds"] for r in p["ops"]) for p in passes if p["traced"] == t]
           for t in (False, True)}
    out["trace_overhead_s"] = {
        "value": statistics.median(raw[True]) - statistics.median(raw[False]),
        "unit": "s"}
    return out


# -- provenance ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    if not (Path.cwd() / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(done: dict, threads: int, args) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "blas": done["blas"], "blas_threads": threads,
            "python": platform.python_version(), "numpy": done["numpy"],
            "git_sha": _git_sha(), "memory_cap_bytes": MEMORY_CAP_BYTES,
            "op_budget_s": OP_BUDGET_S, "setup_runs": SETUP_RUNS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "op_sizes": done["sizes"]}


# -- main ----------------------------------------------------------------------------


def measure(args) -> tuple[dict, list[str]]:
    if not (Path.cwd() / "src" / "equivaria").is_dir():
        raise BenchError("run from the root of an equivaria checkout (no src/equivaria)")
    reference = load_reference()[args.workload]
    env, threads = _child_env()
    workdir = BENCH / ".work" / str(os.getpid())
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    try:
        for i in range(SETUP_RUNS):
            setup_s, done = _spawn(args, workdir / str(i), env,
                                   i < SETUP_RUNS - 1, deadline)
            setups.append(setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarise(done["passes"], reference)
    untraced = [p for p in done["passes"] if not p["traced"]]
    timed = summarise(untraced, reference)
    result = {"provenance": provenance(done, threads, args),
              "setup_runs_s": setups, "summary": {k: v for k, v in summary.items()
                                                  if k != "ops"},
              "ops": summary["ops"]}
    lines = []
    if args.trace:
        metrics = layer_metrics(done["spans"], done["passes"])
        result["spans"] = done["spans"]
        if not _traced_matches_untraced(done["passes"]):
            summary["correct"] = False
            lines.append("traced verdict fields differ from untraced ones")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "verdict_s": {"value": statistics.median(timed["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": done["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    result["metrics"] = metrics
    result["kind_s"] = timed["kind_s"]
    lines += _report_lines(args, metrics, timed, summary, done, threads)
    out = {"correct": summary["correct"], "attempted": summary["attempted"],
           "failed": summary["failed"], "metrics": metrics}
    result["result"] = out
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    path = results / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    lines.append(f"results written to {path.relative_to(Path.cwd())}")
    return out, lines


def _traced_matches_untraced(passes: list) -> bool:
    fields = {t: [json.dumps([r["outcome"], r["error"], r["verdict"]], sort_keys=True)
                  for p in passes if p["traced"] == t for r in p["ops"]]
              for t in (False, True)}
    n = len(passes[0]["ops"])
    return fields[False][:n] == fields[True][:n]


def _report_lines(args, metrics, timed, summary, done, threads) -> list[str]:
    prov = provenance(done, threads, args)
    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(done['passes'])}",
             f"  machine: {prov['nproc']} cpus ({prov['cpu_model']}), "
             f"{prov['blas']['name']} {prov['blas']['version']} x{threads} threads, "
             f"python {prov['python']}, numpy {prov['numpy']}, git {prov['git_sha']}, "
             f"cap {MEMORY_CAP_BYTES >> 20} MiB, budget {OP_BUDGET_S:g} s/op"]
    for name, m in metrics.items():
        lines.append(f"  {name:<58} {m['value']:.6g} {m['unit']}")
    if args.trace:
        lines.append("  top self-time spans of the first traced pass:")
        for span in done["spans"][0]["top"]:
            lines.append(f"    {span['span']:<56} {span['self_s']:.4f} s self, "
                         f"{span['total_s']:.4f} s total, {span['calls']} calls")
    else:
        for kind, value in timed["kind_s"].items():
            lines.append(f"  {kind + '_s':<58} {value:.6g} s")
        share = timed["failed"] / timed["attempted"]
        lines.append(f"  {'fail_share':<58} {share:.6g} "
                     f"({timed['failed']}/{timed['attempted']})")
    for rec in summary["ops"]:
        if rec["failed"] or not rec["correct"]:
            lines.append(f"  failed op {rec['id']}: {rec['outcome']} {rec['error'] or ''}"
                         f"{'' if rec['correct'] else '  (not the reference output)'}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            out, lines = measure(args)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
