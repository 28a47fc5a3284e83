"""JSON (de)serialization for groups, systems, and reports.

One self-describing schema, version "equivaria/1": complex numbers are
two-element [re, im] arrays, all matrices are nested lists in row-major
order, and `canonical_dumps` fixes key order and spacing so that
serialize(parse(text)) is byte-identical for canonical inputs.
"""
from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .groups import BUILTIN_GROUPS, FiniteGroup, builtin_group
from .systems import EquivariantSystem

SCHEMA = "equivaria/1"


class ParseError(ValueError):
    pass


@contextmanager
def _malformed(what: str):
    """Raise ParseError for a field that `what` lacks or that does not convert."""
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"{what} missing field {exc}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def complex_array_to_json(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        return complex_to_json(complex(arr))
    return [complex_array_to_json(sub) for sub in arr]


def complex_array_from_json(data) -> np.ndarray:
    """The complex array of nested [re, im] pairs, converted at once.

    ParseError for ragged nesting, for a pair without exactly two entries
    and for a leaf that is not a JSON number (true and false are not).
    """
    try:
        leaves = np.array(data, dtype=object)
    except ValueError as exc:
        raise ParseError(f"ragged complex array: {exc}") from exc
    if leaves.size == 0:
        return np.zeros(leaves.shape, dtype=complex)
    kinds = set(np.ravel(_leaf_type(leaves)))
    if list in kinds:
        raise ParseError("ragged complex array")
    if leaves.shape[-1:] != (2,):
        raise ParseError(f"complex array of shape {leaves.shape} is not made of [re, im] pairs")
    if not kinds <= {int, float}:
        odd = sorted(k.__name__ for k in kinds - {int, float})
        raise ParseError(f"complex array leaves must be numbers, not {', '.join(odd)}")
    try:
        parts = leaves.astype(float)
    except OverflowError as exc:
        raise ParseError(f"complex array leaf out of range: {exc}") from exc
    return parts[..., 0] + 1j * parts[..., 1]


_leaf_type = np.frompyfunc(type, 1, 1)


def _integers(data, ndim: int, what: str) -> np.ndarray:
    """data as an integer array of ndim axes.  ParseError unless it is
    nested lists of that depth whose leaves are JSON integers: true, 2.0
    and "2" are not, and none is truncated or converted."""
    leaves = np.array(data, dtype=object)
    if leaves.ndim != ndim or not set(np.ravel(_leaf_type(leaves))) <= {int}:
        shape = ("an integer", "a list of integers", "a matrix of integers")[ndim]
        raise ParseError(f"{what} must be {shape}")
    return leaves.astype(np.intp)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def group_to_json(g: FiniteGroup) -> dict:
    name = g.name or ""
    if name in BUILTIN_GROUPS:
        return {"schema": SCHEMA, "kind": "group", "builtin": name}
    return {"schema": SCHEMA, "kind": "group", "name": name,
            "mul": [[int(e) for e in row] for row in g.mul]}


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict):
        raise ParseError("group document must be a JSON object")
    if "builtin" in data:
        name = data["builtin"]
        if name not in BUILTIN_GROUPS:
            raise ParseError(f"unknown builtin group {name!r}")
        return builtin_group(name)
    if "mul" not in data:
        raise ParseError("group document needs 'mul' or 'builtin'")
    with _malformed("group document"):
        return FiniteGroup(_integers(data["mul"], 2, "'mul'"), name=data.get("name", ""))


def _point_to_json(p):
    if isinstance(p, tuple):
        return list(float(c) for c in p)
    if isinstance(p, str):
        return p
    return float(p)


def _point_from_json(p):
    if isinstance(p, list):
        return tuple(float(c) for c in p)
    if isinstance(p, str):
        return p
    return float(p)


def system_to_json(sys: EquivariantSystem) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "system",
        "name": sys.name,
        "group": group_to_json(sys.group),
        "points": [_point_to_json(p) for p in sys.points],
        "action": [[int(x) for x in row] for row in sys.action],
        "fiber_dim": int(sys.fiber_dim),
        "cocycle": complex_array_to_json(sys.cocycle),
    }


def system_from_json(data: dict) -> EquivariantSystem:
    if not isinstance(data, dict):
        raise ParseError("system document must be a JSON object")
    with _malformed("system document"):
        group = group_from_json(data["group"])
        points = tuple(_point_from_json(p) for p in data["points"])
        action = _integers(data["action"], 2, "'action'")
        fiber_dim = int(_integers(data["fiber_dim"], 0, "'fiber_dim'"))
        cocycle = complex_array_from_json(data["cocycle"])
    try:
        return EquivariantSystem(group, points, action, fiber_dim, cocycle,
                                 name=data.get("name", ""))
    except ValueError as exc:
        raise ParseError(f"invalid system: {exc}") from exc


def parse_document(text: str):
    """Parse a JSON document into a group, system, or component list.

    Component lists describe inputs for the toy-dual assembly:
    {"kind": "components", "components": [{"system": ..., "wprime": [...],
    "r": [...]}, ...]}.  A system may also carry a splitting, "wprime" and
    "r" together; one without the other raises ParseError.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level document must be a JSON object")
    kind = data.get("kind")
    if kind == "group":
        return group_from_json(data)
    if kind == "system":
        sys = system_from_json(data)
        extras = {key: _elements(data, key, sys.group) for key in ("wprime", "r")
                  if key in data}
        if len(extras) == 1:
            raise ParseError(f"a splitting needs both 'wprime' and 'r'; "
                             f"{({'wprime', 'r'} - extras.keys()).pop()!r} is missing")
        return (sys, extras) if extras else sys
    if kind == "components":
        with _malformed("components document"):
            return [(sys, _elements(entry, "wprime", sys.group), _elements(entry, "r", sys.group))
                    for entry in data.get("components", [])
                    for sys in [system_from_json(entry["system"])]]
    raise ParseError(f"unknown document kind {kind!r}")


def _elements(data: dict, key: str, group: FiniteGroup) -> list[int]:
    """The element indices listed at data[key]; ParseError unless each is
    an integer below the group's order."""
    with _malformed(f"{key!r} list"):
        elems = _integers(data[key], 1, f"{key!r}").tolist()
    if any(not 0 <= e < group.order for e in elems):
        raise ParseError(f"{key!r} names an element outside a group of order {group.order}")
    return elems
