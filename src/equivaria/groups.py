"""Finite groups given by multiplication tables, plus a library of builtins.

Elements are integer indices 0..order-1 with 0 the identity.  All builders
return validated groups; an invalid table raises GroupError at construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an order x order multiplication table over indices.

    `mul` and `inv` are read-only copies, so a validated group cannot be
    edited in place.
    """

    mul: np.ndarray
    name: str = "group"
    inv: np.ndarray = field(init=False, repr=False)
    _generators: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mul = np.array(self.mul, dtype=np.intp)   # a copy, made read-only below
        n = mul.shape[0]
        if mul.shape != (n, n) or n == 0:
            raise GroupError("multiplication table must be a nonempty square array")
        if mul.min() < 0 or mul.max() >= n:
            raise GroupError("table entries out of range")
        if not (np.array_equal(mul[0], np.arange(n)) and np.array_equal(mul[:, 0], np.arange(n))):
            raise GroupError("element 0 is not an identity")
        # Associativity on all triples, vectorized: (ab)c == a(bc).
        if not np.array_equal(mul[mul, :][:, :, :], mul[:, mul][:, :, :]):
            raise GroupError("multiplication table is not associative")
        # inv[a]: the one b with ab = e, which must also satisfy ba = e.
        ident = mul == 0
        inv = ident.argmax(axis=1)
        bad = (ident.sum(axis=1) != 1) | (mul[inv, np.arange(n)] != 0)
        if bad.any():
            raise GroupError(f"element {bad.argmax()} lacks a two-sided inverse")
        mul.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def product(self, *elems: int) -> int:
        out = 0
        for e in elems:
            out = int(self.mul[out, e])
        return out

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, w: int, a: int) -> int:
        """w a w^-1."""
        return self.product(w, a, self.inverse(w))

    def is_subgroup(self, elems) -> bool:
        s = set(int(e) for e in elems)
        if 0 not in s:
            return False
        return all(int(self.mul[a, b]) in s for a in s for b in s)

    def is_normal(self, elems) -> bool:
        s = set(int(e) for e in elems)
        return self.is_subgroup(s) and all(
            self.conjugate(w, a) in s for w in self.elements() for a in s
        )

    def subgroup(self, elems, name: str | None = None) -> "Subgroup":
        """The subgroup on the given elements, as a group in its own right."""
        elems = sorted(set(int(e) for e in elems))
        if not self.is_subgroup(elems):
            raise GroupError(f"{elems} is not a subgroup")
        idx = np.array(elems)
        table = np.searchsorted(idx, self.mul[idx[:, None], idx])
        sub = FiniteGroup(table, name=name or f"{self.name}-sub{len(elems)}")
        return Subgroup(group=sub, parent=self, embedding=tuple(elems))

    def generated_subgroup(self, gens) -> list[int]:
        """Element list of the subgroup generated by `gens`."""
        seen = {0}
        frontier = [0]
        gens = [int(g) for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = int(self.mul[a, g])
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return sorted(seen)

    def generators(self) -> tuple[int, ...]:
        """A generating set, built greedily in element order and cached.

        A homomorphism invariant on these elements is invariant on all.
        """
        if self._generators is None:
            gens: list[int] = []
            span = {0}
            for a in self.elements():
                if a not in span:
                    gens.append(a)
                    span = set(self.generated_subgroup(gens))
            object.__setattr__(self, "_generators", tuple(gens))
        return self._generators


@dataclass(frozen=True)
class Subgroup:
    """A subgroup reindexed as a standalone group, with its embedding."""

    group: FiniteGroup
    parent: FiniteGroup
    embedding: tuple[int, ...]

    def to_parent(self, a: int) -> int:
        return self.embedding[a]

    def from_parent(self, a: int) -> int:
        return self.embedding.index(int(a))


def _table_from_elements(elements, compose, identity) -> np.ndarray:
    elems = list(elements)
    if elems[0] != identity:
        elems.remove(identity)
        elems.insert(0, identity)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.intp)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = pos[compose(a, b)]
    return table


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with element index a*|H| + b."""
    ng, nh = g.order, h.order
    table = np.zeros((ng * nh, ng * nh), dtype=np.intp)
    for a1, b1 in itertools.product(range(ng), range(nh)):
        for a2, b2 in itertools.product(range(ng), range(nh)):
            table[a1 * nh + b1, a2 * nh + b2] = g.mul[a1, a2] * nh + h.mul[b1, b2]
    return FiniteGroup(table, name=name or f"{g.name}x{h.name}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters via permutation tuples."""
    perms = sorted(itertools.permutations(range(n)))
    ident = tuple(range(n))

    def compose(p, q):  # (p q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(n))

    return FiniteGroup(_table_from_elements(perms, compose, ident), name=f"S{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: rotations r^k and flips r^k s."""
    if order % 2 != 0 or order < 2:
        raise GroupError("dihedral order must be even and >= 2")
    n = order // 2
    # Element (k, f): r^k s^f with s r s = r^-1.
    elems = [(k, f) for f in (0, 1) for k in range(n)]

    def compose(a, b):
        k1, f1 = a
        k2, f2 = b
        k = (k1 + (k2 if f1 == 0 else -k2)) % n
        return (k, f1 ^ f2)

    return FiniteGroup(_table_from_elements(elems, compose, (0, 0)), name=f"D{order}")


def quaternion() -> FiniteGroup:
    """The quaternion group Q8 = {+-1, +-i, +-j, +-k}."""
    # Elements as (sign, axis) with axis in {1, i, j, k}.
    units = ["1", "i", "j", "k"]
    prod = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]
    elems.remove((1, "1"))
    elems.insert(0, (1, "1"))

    def compose(a, b):
        s, u = prod[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return FiniteGroup(_table_from_elements(elems, compose, (1, "1")), name="Q8")


def semidirect_decomposition(g: FiniteGroup, normal, complement):
    """Check W = U x| V and return the factor map w -> (u, v) with w = u v.

    `normal` and `complement` are element lists.  Raises GroupError when the
    data is not a semidirect decomposition of g.
    """
    u_elems = sorted(set(int(e) for e in normal))
    v_elems = sorted(set(int(e) for e in complement))
    if not g.is_normal(u_elems):
        raise GroupError("first factor is not a normal subgroup")
    if not g.is_subgroup(v_elems):
        raise GroupError("complement is not a subgroup")
    if len(u_elems) * len(v_elems) != g.order:
        raise GroupError("factor orders do not multiply to the group order")
    if set(u_elems) & set(v_elems) != {0}:
        raise GroupError("factors intersect nontrivially")
    factor = {}
    for u in u_elems:
        for v in v_elems:
            w = g.product(u, v)
            if w in factor:
                raise GroupError("factorization is not unique")
            factor[w] = (u, v)
    return factor


BUILTIN_GROUPS = {
    "trivial": lambda: cyclic(1),
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z5": lambda: cyclic(5),
    "Z6": lambda: cyclic(6),
    "Z7": lambda: cyclic(7),
    "Z8": lambda: cyclic(8),
    "Z2xZ2": lambda: direct_product(cyclic(2), cyclic(2)),
    "S3": lambda: symmetric(3),
    "D8": lambda: dihedral(8),
    "Q8": lambda: quaternion(),
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise GroupError(f"unknown builtin group {name!r}") from None
