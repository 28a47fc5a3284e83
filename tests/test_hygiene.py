"""Dead-code guard: every name defined in the package is used somewhere.

Each non-dunder function, method and class defined in `src/equivaria` must
occur at least twice, as a whole word, across the Python files of `src/`
and `tests/`: once where it is defined and once where it is called,
subclassed or tested.  A name that occurs only at its definition has no
caller and should be deleted.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equivaria"


def defined_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def word_counts() -> Counter:
    counts = Counter()
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def test_every_defined_name_is_used():
    counts = word_counts()
    unused = sorted(name for name in defined_names() if counts[name] < 2)
    assert unused == []
