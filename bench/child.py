"""One workload child: set up, say "ready", run passes of the workload's ops.

Started by run.py with the BLAS thread count already pinned in its
environment and `src/` of the checkout on PYTHONPATH.  It caps its own
address space, imports numpy and equivaria, builds and serialises the
inputs, makes an untimed warm-up call into BLAS, and then reports "ready"
on the pipe `--fd`.  With `--setup-only` it stops there.  Otherwise it runs
the ops back to back (a closed loop with one client) in whole passes until
`--seconds` have gone, at least one pass; with `--trace 1` passes alternate
untraced and traced, at least one of each.  The last message on the pipe
holds every op record, the traced passes' span statistics and ru_maxrss.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

MEMORY_CAP_BYTES = 3 << 30
OP_BUDGET_S = 20.0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past OP_BUDGET_S."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def run_op(op, budget: float = OP_BUDGET_S) -> dict:
    """Run one op under the per-op budget and classify how it ended.

    outcome is "ok", "memory" (MemoryError, e.g. from the address-space
    cap), "budget" (ran past the budget) or "error" (anything else raised,
    including a failure to read the verdict fields).
    """
    record = {"id": op.id, "kind": op.kind, "outcome": "ok", "error": None,
              "verdict": None}
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        record.update(outcome="budget", error="BudgetExceeded")
    except MemoryError:
        record.update(outcome="memory", error="MemoryError")
    except (Exception, SystemExit) as exc:
        record.update(outcome="error", error=type(exc).__name__)
    finally:
        record["seconds"] = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    if record["outcome"] == "ok":
        try:
            record["verdict"] = op.verdict(result)
        except Exception as exc:
            record.update(outcome="error", error=f"verdict:{type(exc).__name__}")
    return record


def warm_up() -> None:
    """Exercise the BLAS thread pool once so no op pays its cold start."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    np.linalg.svd(a)
    a @ a


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _send(fd: int, message: dict) -> None:
    data = (json.dumps(message) + "\n").encode()
    while data:
        data = data[os.write(fd, data):]


def _run_passes(ops, seconds: float, trace: bool) -> tuple[list, list]:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            records = [run_op(op) for op in ops]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "ops": records})
        if traced:
            spans.append({"stats": {k: vars(st) for k, st in tracer.stats.items()},
                          "modules": tracer.module_self_s(),
                          "top": tracer.top_self()})
            tracer.reset()
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--fd", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))

    import numpy as np
    import equivaria

    src = Path.cwd().resolve() / "src"
    if src not in Path(equivaria.__file__).resolve().parents:
        print(f"equivaria imported from {equivaria.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    ops = workloads.build(args.workload, args.seed, Path(args.workdir))
    warm_up()
    _send(args.fd, {"event": "ready"})
    if args.setup_only:
        return 0
    passes, spans = _run_passes(ops, args.seconds, bool(args.trace))
    _send(args.fd, {"event": "done", "passes": passes, "spans": spans,
                    "sizes": {op.id: op.size for op in ops},
                    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "numpy": np.__version__, "blas": blas_info()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
