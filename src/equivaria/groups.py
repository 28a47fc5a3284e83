"""Finite groups given by multiplication tables, plus a library of builtins.

Elements are integer indices 0..order-1 with 0 the identity.  All builders
return validated groups; an invalid table raises GroupError at construction.
The builtins are table formulas.  A set of elements is read as one boolean
membership mask, range-checked (GroupError), and tested by lookups in `mul`.
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

    def _members(self, elems) -> tuple[np.ndarray, np.ndarray]:
        """(mask, sub): the (order,) membership mask of `elems` and its
        elements ascending; GroupError unless each lies in 0..order-1:
        bincount refuses a negative element and counts past the order for
        one too large."""
        idx = np.fromiter(elems, dtype=np.intp)
        try:
            mask = np.bincount(idx, minlength=self.order).astype(bool)
            if mask.size == self.order:
                return mask, mask.nonzero()[0]
        except ValueError:
            pass
        raise GroupError(f"{idx.tolist()} are not all elements of {self.name} "
                         f"(order {self.order})")

    @staticmethod
    def _holds(mask: np.ndarray, table: np.ndarray) -> bool:
        """Whether the mask holds e and every entry of `table`.  Callers read
        tables with take, on a few elements cheaper than fancy indexing."""
        return bool(mask[0]) and np.count_nonzero(mask[table]) == table.size

    def is_subgroup(self, elems) -> bool:
        mask, sub = self._members(elems)
        return self._holds(mask, self.mul.take(sub, 0).take(sub, 1))

    def is_normal(self, elems) -> bool:
        """Whether `elems` is a subgroup fixed by every w . w^-1."""
        mask, sub = self._members(elems)
        conjugates = self.mul[self.mul.take(sub, 1), self.inv[:, None]]   # [w, a]
        return (self._holds(mask, self.mul.take(sub, 0).take(sub, 1))
                and self._holds(mask, conjugates))

    def subgroup(self, elems, name: str | None = None) -> "Subgroup":
        """The subgroup on the given elements, as a group in its own right."""
        mask, sub = self._members(elems)
        products = self.mul.take(sub, 0).take(sub, 1)
        if not self._holds(mask, products):
            raise GroupError(f"{sub.tolist()} is not a subgroup")
        table = np.searchsorted(sub, products)                  # each product's index in sub
        return Subgroup(FiniteGroup(table, name=name or f"{self.name}-sub{sub.size}"),
                        parent=self, embedding=tuple(sub.tolist()))

    def generated_subgroup(self, gens) -> list[int]:
        """The subgroup `gens` generate, ascending, grown breadth first."""
        gens = self._members(gens)[1]
        seen = np.arange(self.order) == 0
        frontier = seen.nonzero()[0]
        while frontier.size:
            new = np.zeros(self.order, dtype=bool)
            new[self.mul.take(frontier, 0).take(gens, 1)] = True
            frontier = (new & ~seen).nonzero()[0]
            seen |= new
        return seen.nonzero()[0].tolist()

    def generators(self) -> tuple[int, ...]:
        """A generating set, built greedily in element order and cached: a
        homomorphism invariant on these elements is invariant on all."""
        if self._generators is None:
            gens: list[int] = []
            span = np.arange(self.order) == 0
            while not span.all():
                gens.append(int(span.argmin()))   # the least element outside the span
                span[self.generated_subgroup(gens)] = True
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


def cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product with element index a*|H| + b."""
    table = g.mul[:, None, :, None] * h.order + h.mul[None, :, None, :]   # [a1, b1, a2, b2]
    return FiniteGroup(table.reshape(g.order * h.order, -1), name=name or f"{g.name}x{h.name}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, its permutations p in lexicographic
    order, with (p q)(i) = p(q(i))."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    composed = perms[np.arange(len(perms))[:, None, None], perms[None]]   # [p, q, i]
    # Read as base-n numbers, lexicographic order is numeric order.
    code = n ** np.arange(n - 1, -1, -1)
    return FiniteGroup(np.searchsorted(perms @ code, composed @ code), name=f"S{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: element f n + k is r^k s^f,
    n = order / 2, with s r s = r^-1."""
    if order % 2 != 0 or order < 2:
        raise GroupError("dihedral order must be even and >= 2")
    n = order // 2
    f, k = np.divmod(np.arange(order), n)
    # r^k1 s^f1 r^k2 s^f2 = r^(k1 +- k2) s^(f1 + f2), the sign - iff f1 = 1.
    turn = (k[:, None] + (1 - 2 * f[:, None]) * k[None, :]) % n
    return FiniteGroup((f[:, None] ^ f[None, :]) * n + turn, name=f"D{order}")


def quaternion() -> FiniteGroup:
    """The quaternion group Q8 = {+-1, +-i, +-j, +-k}: element 2 a + s is
    (-1)^s times unit a of (1, i, j, k), and unit a times unit b is +-unit
    a xor b (i j = k, j k = i, k i = j), negative where `negative` is 1."""
    negative = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    a, s = np.divmod(np.arange(8), 2)
    sign = s[:, None] ^ s[None, :] ^ negative[a[:, None], a[None, :]]
    return FiniteGroup(2 * (a[:, None] ^ a[None, :]) + sign, name="Q8")


def semidirect_decomposition(g: FiniteGroup, normal, complement):
    """Check W = U x| V and return the factor map w -> (u, v) with w = u v.

    `normal` and `complement` are element lists.  Raises GroupError when the
    data is not a semidirect decomposition of g.  |U| |V| = |W| and U n V =
    {e} make the u v distinct: u v = u' v' puts u'^-1 u = v' v^-1 in U n V.
    """
    if not g.is_normal(normal):
        raise GroupError("first factor is not a normal subgroup")
    if not g.is_subgroup(complement):
        raise GroupError("complement is not a subgroup")
    (_, u), (in_v, v) = g._members(normal), g._members(complement)
    if u.size * v.size != g.order:
        raise GroupError("factor orders do not multiply to the group order")
    if np.count_nonzero(in_v[u]) != 1:
        raise GroupError("factors intersect nontrivially")
    return dict(zip(g.mul.take(u, 0).take(v, 1).ravel().tolist(),
                    itertools.product(u.tolist(), v.tolist())))


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
