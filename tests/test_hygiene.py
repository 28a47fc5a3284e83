"""Dead-code guard: every function, class and method of `src/` is reached.

The roots are what runs the library from outside: the module-level
statements of every module of `src/equivaria`, every function of `cli.py`,
and every name that `tests/test_acceptance.py` (the paper's statements this
repo reproduces) or `bench/workloads.py` (the benchmark's ops) references.
A function's body is reached when its name is, and a method's when both its
class and its own name are (a dunder method's when its class is); the names
a reached body references are reached in turn.  A reference is a `Name` or
`Attribute` node of the syntax tree, outside annotations, so a word in a
docstring, a comment or a type hint does not count, and names are matched
without their module, so the closure errs on the side of reaching.  Every
non-dunder function, class and method defined in `src/equivaria` must be
reached or be listed, with its reason, in REACH_EXEMPT; a cluster of
functions that only call each other is therefore caught as well.  Each name
a module of `src/` or `tests/` imports must be referenced in that module.
And every `einsum` call in `src/` with two or more array operands passes
`optimize=`: without it numpy contracts in its own loops, never in BLAS, so
such a contraction is written with matmul or tensordot, or asks for an
optimized path where it has no BLAS form.  Finally, X's orbits and
stabilizers are derived in one place, `EquivariantSystem.orbits`: no other
code of `src/` takes a minimum of an action table or compares one with
`==` or `!=`, the forms that read orbit minima and stabilizer masks off it.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equivaria"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# (module, name) pairs imported without a reference.  The benchmark's tracer
# self-test (bench/tests/test_bench.py::test_install_rebinds_every_namespace)
# reads `morita.compact_operators` to check that a wrapped function is
# rebound in every namespace that imported it.
IMPORT_EXEMPT = {("morita", "compact_operators")}

# Definitions that no root reaches, kept for the tests that use them.
REACH_EXEMPT = {
    "groups.Subgroup.from_parent": "fixture of the per-point stabilizer loops in test_solvers",
    "matalg.full_matrix_algebra": "fixture of the algebra-action and separation tests",
    "reps.UnitaryRep.direct_sum": "fixture of the reducible case of is_irreducible",
    "reps.equivariant_maps": "solved by SpectrumEntry.basis for realize_irrep, ROADMAP item 6",
    "reps.trivial_rep": "fixture of the equivariant_maps oracle",
    "reps.commutant_dimension": "oracle of is_irreducible",
    "serialize.document_to_json": "writer that the parse_document round-trip tests use",
    "serialize.dumps_document": "writer that the parse_document round-trip tests use",
    "spectrum.SpectrumEntry.basis": "read by realize_irrep, ROADMAP item 6",
    "spectrum.realize_irrep": "ROADMAP item 6",
    "spectrum.realized_commutant_dim": "check of realize_irrep's irreducibility, ROADMAP item 6",
    "systems.trivial_system": "fixture of the systems, spectrum and Morita tests",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def references(nodes) -> set[str]:
    """Names and attributes the nodes read, outside annotations and outside
    the bodies of the functions and classes they define: those bodies run
    only when their definition is reached."""
    found, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        if isinstance(node, ast.ClassDef):
            stack += node.decorator_list + node.bases + node.keywords
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += node.decorator_list + node.args.defaults
            stack += [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.AnnAssign):
            stack += [node.value] if node.value else []
        else:
            stack += ast.iter_child_nodes(node)
    return found


def definitions(nodes):
    """The functions and classes defined in the nodes, not inside another."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS):
            yield node
        else:
            stack += ast.iter_child_nodes(node)


def units(nodes, prefix: str, owner: str | None = None):
    """(label, name, class or None, references of the body) for each
    definition in the nodes and, recursively, in its body."""
    for node in definitions(nodes):
        label = f"{prefix}.{node.name}"
        yield label, node.name, owner, references(node.body)
        inner_owner = node.name if isinstance(node, ast.ClassDef) else None
        yield from units(node.body, label, inner_owner)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def unreached() -> list[str]:
    """Labels module.name or module.Class.method of the definitions in `src/`
    that no root reaches; a method of an unreached class is not listed."""
    reached, pending = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        reached |= references(tree.body)
        if path.stem == "cli":
            reached |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        pending += units(tree.body, path.stem)
    for path in (ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "workloads.py"):
        reached |= {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(parse(path))
                    if isinstance(node, (ast.Name, ast.Attribute))}
    grown = True
    while grown:
        grown = False
        for unit in list(pending):
            _, name, owner, names = unit
            if owner is None and name in reached or \
                    owner in reached and (name in reached or is_dunder(name)):
                reached |= names
                pending.remove(unit)
                grown = True
    return sorted(label for label, name, owner, _ in pending
                  if not is_dunder(name) and (owner is None or owner in reached))


def test_every_defined_name_is_reached():
    found = unreached()
    assert sorted(set(found) - REACH_EXEMPT.keys()) == []
    # An exempt definition that a root reaches leaves the list.
    assert sorted(REACH_EXEMPT.keys() - set(found)) == []
    assert all(reason.strip() for reason in REACH_EXEMPT.values())


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


# The one definition that reads orbits and stabilizers off an action table.
ORBIT_SOURCE = ("systems", "EquivariantSystem", "orbits")


def is_action(node, aliases) -> bool:
    """Is the node a system's action table (`.action`, or a name bound to
    one), an index of one or its transpose?"""
    while isinstance(node, ast.Subscript) or isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return (isinstance(node, ast.Attribute) and node.attr == "action"
            or isinstance(node, ast.Name) and node.id in aliases)


def assignments(func):
    """(target, value) of each assignment in the function, unpacking
    `a, b = c, d` pairwise."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    yield from zip(target.elts, node.value.elts)
                else:
                    yield target, node.value


def orbit_reads(path: Path, exempt: bool = True) -> list[str]:
    """function:line of each minimum of an action table (`.min`, `.argmin`,
    `np.min`, `np.amin`) and each `==` or `!=` comparison with one, outside
    ORBIT_SOURCE when `exempt`.  A name assigned an action table in the
    same function counts as one."""
    tree = parse(path)
    skip = set()
    for cls in tree.body:
        if exempt and isinstance(cls, ast.ClassDef) and (path.stem, cls.name) == ORBIT_SOURCE[:2]:
            skip |= {line for fn in cls.body if getattr(fn, "name", None) == ORBIT_SOURCE[2]
                     for line in range(fn.lineno, fn.end_lineno + 1)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {target.id for target, value in assignments(func)
                   if isinstance(target, ast.Name) and is_action(value, set())}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                hit = (node.func.attr in ("min", "argmin") and is_action(node.func.value, aliases)
                       or node.func.attr in ("min", "amin") and bool(node.args)
                       and is_action(node.args[0], aliases))
            elif isinstance(node, ast.Compare):
                hit = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                    is_action(side, aliases) for side in [node.left, *node.comparators])
            else:
                continue
            if hit and node.lineno not in skip:
                found.add(f"{func.name}:{node.lineno}")
    return sorted(found)


def test_only_the_system_derives_orbits_and_stabilizers():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := orbit_reads(path))}
    assert found == {}
    # The guard sees the forms: the one place that uses them is found
    # once it is no longer exempt.
    assert any(name.startswith("orbits:") for name in
               orbit_reads(PACKAGE / "systems.py", exempt=False))
