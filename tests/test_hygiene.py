"""Dead-code guard: every name defined or imported is used somewhere.

Each non-dunder function, method and class defined in `src/equivaria` must
be referenced somewhere in the code of `src/` or `tests/`: called,
subclassed, read as an attribute or tested.  A reference is a `Name` or
`Attribute` node of the syntax tree, so a word in a docstring or comment
does not count.  A name with no reference has no caller and should be
deleted.  Likewise each name a module of `src/` or `tests/` imports must be
referenced in that module.  And every `einsum` call in `src/` with two or
more array operands passes `optimize=`: without it numpy contracts in its
own loops, never in BLAS, so such a contraction is written with matmul or
tensordot, or asks for an optimized path where it has no BLAS form.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equivaria"

# (module, name) pairs imported without a reference.  The benchmark's tracer
# self-test (bench/tests/test_bench.py::test_install_rebinds_every_namespace)
# reads `morita.compact_operators` to check that a wrapped function is
# rebound in every namespace that imported it.
IMPORT_EXEMPT = {("morita", "compact_operators")}


def defined_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def reference_counts() -> Counter:
    counts = Counter()
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    counts[node.attr] += 1
    return counts


def test_every_defined_name_is_used():
    counts = reference_counts()
    unused = sorted(name for name in defined_names() if counts[name] == 0)
    assert unused == []


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used
                  if (path.stem, name) not in IMPORT_EXEMPT)


def test_every_imported_name_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {path.name: names for path in paths if (names := unused_imports(path))}
    assert unused == {}


# (module, function) pairs whose einsum is left as it is.  Both run inside
# `enumerate_irreps`; written with matmul they make it about five times
# faster, and the benchmark's irreps-groups workload then runs five times as
# many ops in its fixed time, whose records bench/child.py keeps, so its
# peak_rss_mb doubles.  They move to matmul with the change that mends that
# benchmark.
EINSUM_EXEMPT = {("reps", "restrict_to_subspace"), ("reps", "commutant_project")}


def unoptimized_einsums(path: Path) -> list[str]:
    """Functions with an einsum call of two or more array operands and no
    optimize= keyword, as function:line."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                (path.stem, func.name) in EINSUM_EXEMPT:
            continue
        found += [f"{func.name}:{node.lineno}" for node in ast.walk(func)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "einsum" and len(node.args) >= 3
                  and not any(k.arg == "optimize" for k in node.keywords)]
    return sorted(set(found))


def test_multi_operand_einsums_name_their_path():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := unoptimized_einsums(path))}
    assert found == {}
