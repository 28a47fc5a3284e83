"""Span tracer for the equivaria modules, installed from outside the package.

`Tracer.install()` wraps every function defined in an `equivaria.*` module
(except the hot helpers in SKIP) plus the class methods in METHODS, and
rebinds each wrapper under every name that pointed at the original in any
`equivaria.*` namespace or module-level dict: `from .matalg import
block_decompose` copies the binding, so patching only `matalg` would miss
the call from `spectrum`.  `uninstall()` puts the originals back.

Per wrapped function it keeps calls, total_s (outermost activations only,
so recursion is not double counted), self_s (span minus the part covered
by child spans), errors (exceptions raised out of it) and split_attempts
(`linalg.cluster_values` calls while it is on the stack).  Two computed
counters come from argument shapes: svd_flops (m*n*min(m, n) of the input
of the rank helpers) and bytes (dim^2 * N^2 * 16, the product array that
`closure_residual` materialises).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("groups", "reps", "linalg", "matalg", "systems", "spectrum",
           "hilbmod", "morita", "serialize", "datasets", "cli")

# Called more than ~1e4 times per pass; wrapping it would cost more than it
# shows.  Class methods outside METHODS (basis_rows, coefficients, element,
# act, ...) are not wrapped either.  Their time lands in the caller's self_s.
SKIP = {"linalg.flatten"}

METHODS = {
    "matalg": {"MatrixStarAlgebra": ("closure_residual", "unit")},
    "hilbmod": {"FDHilbertModule": ("module_adjoint",)},
}

SPLIT_KEY = "linalg.cluster_values"


def _svd_flops(args, kwargs) -> int:
    shape = np.shape(args[0] if args else next(iter(kwargs.values())))
    if len(shape) < 2:
        shape = (1,) + tuple(shape)
    m, n = shape[0], int(np.prod(shape[1:]))
    return m * n * min(m, n)


def _closure_bytes(args, kwargs) -> int:
    alg = args[0]
    return alg.dim ** 2 * alg.ambient_dim ** 2 * 16


COMPUTED = {
    "linalg.nullspace_rows": ("svd_flops", _svd_flops),
    "linalg.orthonormal_rows": ("svd_flops", _svd_flops),
    "matalg.MatrixStarAlgebra.closure_residual": ("bytes", _closure_bytes),
}


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    split_attempts: int = 0
    svd_flops: int = 0
    bytes: int = 0
    depth: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []        # [key, child seconds]
        self._patches: list[tuple] = []     # (setter, target, name, original)

    # -- spans ---------------------------------------------------------------

    def reset(self) -> None:
        for key in self.stats:
            self.stats[key] = Stat()

    def _wrap(self, key: str, fn):
        stat_of = self.stats
        stat_of[key] = Stat()
        stack = self._stack
        computed = COMPUTED.get(key)
        clock = time.perf_counter
        split = key == SPLIT_KEY

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = stat_of[key]
            st.calls += 1
            if computed is not None:
                field, count = computed
                setattr(st, field, getattr(st, field) + count(args, kwargs))
            if split:
                for name in {frame[0] for frame in stack}:
                    stat_of[name].split_attempts += 1
            frame = [key, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                elapsed = clock() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += elapsed - frame[1]
                if st.depth == 0:
                    st.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed

        span.__wrapped_by_tracer__ = True
        return span

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"equivaria.{m}") for m in MODULES}
        wrappers = {}   # id(original) -> wrapper; the originals stay alive
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)
                        and f"{short}.{name}" not in SKIP):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(setattr, mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patch(dict.__setitem__, obj, k, wrappers[id(v)])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[short], cls_name)
                for meth in methods:
                    key = f"{short}.{cls_name}.{meth}"
                    self._patch(setattr, cls, meth,
                                self._wrap(key, vars(cls)[meth]))

    def _patch(self, setter, target, name, wrapper) -> None:
        original = target[name] if isinstance(target, dict) else vars(target)[name]
        self._patches.append((setter, target, name, original))
        setter(target, name, wrapper)

    def uninstall(self) -> None:
        for setter, target, name, original in reversed(self._patches):
            setter(target, name, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st.self_s
        return out

    def top_self(self, n: int = 15) -> list[dict]:
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [{"span": key, "calls": st.calls, "self_s": st.self_s,
                 "total_s": st.total_s} for key, st in ranked[:n] if st.calls]
