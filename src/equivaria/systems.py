"""Equivariant systems (X, W, H, I) at finite scale.

A system is a finite point set X, a finite group W permuting it, a fiber
dimension d, and a unitary cocycle I_{w,x} satisfying
I_{w1, w2 x} I_{w2, x} = I_{w1 w2, x}.  The induced action on matrix-valued
functions is alpha_w(k)(x) = I_{w, w^-1 x} k(w^-1 x) I_{w^-1, x}.

The module also realizes crossed products B >| W and verifies the two
structural isomorphisms C(X) >| W ~ C(X, K(l^2 W))^W and
(B >| U) >| V ~ B >| W for W = U >| V.  A CrossedProduct works in crossed
coefficients, against the a_(w,i) = b_i w / sqrt|W|, orthonormal in the
regular representation since the action preserves the trace: they are the
coordinates of its algebra, one block per W-orbit of B's blocks, whose
tables are read off B's blocks in the orbit's coordinates, and products,
adjoints and the ideal test run on that algebra alone.  An action is a
permutation of B's coordinates that carries each block onto a block, as
every action a verdict builds is; it is validated and crossed by index,
off B's block tables, and the W-orbits of B's blocks are read once off
the blocks it moves.  (B >| U) >| V is the crossed product of V's action
on B >| U.  No crossed-product element is embedded as a matrix.
The fixed-point algebra holds each invariant function by its value at its
orbit's least point, a commutant of the stabilizer's cocycle there, and
reads one block per orbit off those values; the functions are carried
along their orbits only when read.  Orbits and stabilizers are those that
EquivariantSystem.orbits derives once per system, and C(X/W) is written
down from the orbits' sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .groups import FiniteGroup, Subgroup, semidirect_decomposition
from .linalg import (
    DEFAULT_TOL,
    block_cut,
    check_tol,
    homomorphism_defect,
    orthonormal_rows,
    span_contains,
    spans_equal,
)
from .matalg import AlgebraError, Blocks, MatrixStarAlgebra, _grouped, span_tables
from .reps import regular_rep


class SystemError(ValueError):
    pass


@dataclass(frozen=True)
class EquivariantSystem:
    """The datum (X, W, H, I): points, action, fiber dimension, cocycle.

    `action[w, x]` is the index of w.x; `cocycle[w, x]` is the d x d unitary
    I_{w,x}.  Systems are validated eagerly; invalid ones never exist.  The
    system keeps read-only copies of `action` and `cocycle`, so neither an
    in-place write nor an edit of the arrays passed in can change it after
    validation, nor leave `orbits` stale.
    """

    group: FiniteGroup
    points: tuple
    action: np.ndarray   # (|W|, |X|) point permutation
    fiber_dim: int
    cocycle: np.ndarray  # (|W|, |X|, d, d)
    name: str = "system"

    def __post_init__(self):
        w_n = self.group.order
        x_n = len(self.points)
        action = np.array(self.action, dtype=np.intp)
        coc = np.array(self.cocycle, dtype=complex)
        d = self.fiber_dim
        if action.shape != (w_n, x_n):
            raise SystemError("action table has wrong shape")
        if coc.shape != (w_n, x_n, d, d):
            raise SystemError("cocycle tensor has wrong shape")
        if not np.array_equal(action[0], np.arange(x_n)):
            raise SystemError("identity does not act trivially on points")
        # Each check runs on every index at once and names the first failure
        # in C order, the order of the nested loops over (w1, w2, x).
        bad = (np.sort(action, axis=1) != np.arange(x_n)).any(axis=1)
        if bad.any():
            raise SystemError(f"element {bad.argmax()} does not permute the points")
        mul = self.group.mul
        # [w1, w2, x]: (w1 w2).x against w1.(w2.x).
        if not np.array_equal(action[mul], action[np.arange(w_n)[:, None, None], action]):
            raise SystemError("action is not a group action")
        # A bound is failed by NaN: each is written `not norm <= bound`.
        unitary = coc.conj().swapaxes(-2, -1) @ coc - np.eye(d)
        bad = ~(np.linalg.norm(unitary, axis=(-2, -1)) <= 1e-9 * d)
        if bad.any():
            w, x = np.unravel_index(bad.argmax(), bad.shape)
            raise SystemError(f"cocycle I_({w},{x}) is not unitary")
        # [w1, w2, x]: I_{w1, w2 x} I_{w2, x} - I_{w1 w2, x}, one product per
        # (w2, x) of the left factors stacked over w1, (|W| d, d).
        left = coc[np.arange(w_n), action[..., None]].reshape(w_n, x_n, w_n * d, d)
        defect = (left @ coc).reshape(w_n, x_n, w_n, d, d).transpose(2, 0, 1, 3, 4) - coc[mul]
        bad = ~(np.linalg.norm(defect, axis=(-2, -1)) <= 1e-9 * d)
        if bad.any():
            w1, w2, x = np.unravel_index(bad.argmax(), bad.shape)
            raise SystemError(f"cocycle identity fails at (w1={w1}, w2={w2}, x={x})")
        action.setflags(write=False)
        coc.setflags(write=False)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "cocycle", coc)
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def total_dim(self) -> int:
        return self.n_points * self.fiber_dim

    @cached_property
    def orbits(self) -> Orbits:
        """X's orbits and stabilizers, read off the action table on first
        access: the one place that derives them."""
        act, x = self.action, np.arange(self.n_points)
        least, fixes = act.min(axis=0), act == x
        sizes = np.bincount(least)
        stabs = _cut(np.nonzero(fixes.T)[1].tolist(), fixes.sum(axis=0))
        index = {stab: i for i, stab in enumerate(dict.fromkeys(stabs))}   # first appearance
        label = np.fromiter(map(index.__getitem__, stabs), np.intp, len(stabs))
        arrays = [least, (act[:, least] == x).argmax(axis=0), fixes,
                  *(x[label == i] for i in range(len(index)))]
        for a in arrays:
            a.setflags(write=False)
        return Orbits(*arrays[:2], tuple(np.flatnonzero(sizes).tolist()),
                      _cut(np.argsort(least, kind="stable").tolist(), sizes[sizes > 0]),
                      fixes, stabs, tuple(zip(index, arrays[3:])))


def _cut(flat: list, sizes) -> tuple[tuple[int, ...], ...]:
    """`flat` cut into consecutive tuples of the given sizes."""
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))


@dataclass(frozen=True, eq=False)
class Orbits:
    """X's W-orbits and stabilizers; the arrays are read-only.

    `least[y]` is the least point of y's orbit and `mover[y]` the first w
    with w . least[y] = y.  `members[o]` lists the points of the orbit of
    `representatives[o]`, the least points ascending.  `by_stabilizer` pairs
    each stabilizer, in order of first appearance along X, with its points.
    """

    least: np.ndarray                      # (|X|,)
    mover: np.ndarray                      # (|X|,)
    representatives: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]   # each ascending
    fixes: np.ndarray                      # [w, x]: w . x = x
    stabilizers: tuple[tuple[int, ...], ...]   # [x]: W_x, ascending
    by_stabilizer: tuple[tuple[tuple[int, ...], np.ndarray], ...]


# -- system builders ---------------------------------------------------------


def trivial_system(n_points: int, fiber_dim: int = 1,
                   group: FiniteGroup | None = None) -> EquivariantSystem:
    """Trivial group (or trivial action with identity cocycle) on n points."""
    from .groups import cyclic
    g = group or cyclic(1)
    action = np.tile(np.arange(n_points), (g.order, 1))
    coc = np.tile(np.eye(fiber_dim, dtype=complex), (g.order, n_points, 1, 1))
    return EquivariantSystem(g, tuple(range(n_points)), action, fiber_dim, coc,
                             name="trivial")


def one_point_system(group: FiniteGroup, rep_matrices: np.ndarray,
                     name: str = "one-point") -> EquivariantSystem:
    """A single fixed point with cocycle a unitary representation of W."""
    mats = np.asarray(rep_matrices, dtype=complex)
    d = mats.shape[1]
    action = np.zeros((group.order, 1), dtype=np.intp)
    return EquivariantSystem(group, ("pt",), action, d, mats[:, None], name=name)


@dataclass(frozen=True)
class ClosedFormFamily:
    """A named cocycle family over the real line/plane, sampled onto grids.

    `point_map(w, x)` moves a point; `cocycle_at(w, x)` evaluates I_{w,x}.
    """

    name: str
    group: FiniteGroup
    fiber_dim: int
    point_map: object   # callable (w, point) -> point
    cocycle_at: object  # callable (w, point) -> (d, d) array

    def system(self, points, name: str | None = None) -> EquivariantSystem:
        pts = [self._canon(p) for p in points]
        index = {p: i for i, p in enumerate(pts)}
        w_n = self.group.order
        action = np.zeros((w_n, len(pts)), dtype=np.intp)
        coc = np.zeros((w_n, len(pts), self.fiber_dim, self.fiber_dim), dtype=complex)
        for w in range(w_n):
            for i, p in enumerate(pts):
                q = self._canon(self.point_map(w, p))
                if q not in index:
                    raise SystemError(f"grid is not closed under the action: {p} -> {q}")
                action[w, i] = index[q]
                coc[w, i] = self.cocycle_at(w, p)
        return EquivariantSystem(self.group, tuple(pts), action, self.fiber_dim,
                                 coc, name=name or self.name)

    @staticmethod
    def _canon(p):
        if isinstance(p, tuple):
            return tuple(round(float(c), 12) for c in p)
        return round(float(p), 12)


def z2_line_family() -> ClosedFormFamily:
    """Z/2 on the line by x -> -x with I_{w,x} = diag(e^{ix}, -e^{-ix})."""
    from .groups import cyclic
    g = cyclic(2)

    def point_map(w, x):
        return -x if w == 1 else x

    def cocycle_at(w, x):
        if w == 0:
            return np.eye(2, dtype=complex)
        return np.diag([np.exp(1j * x), -np.exp(-1j * x)])

    return ClosedFormFamily("z2-line", g, 2, point_map, cocycle_at)


def z2_line_system(n: int) -> EquivariantSystem:
    """The symmetric grid {-n..n} (2n+1 points) of the Z/2 line family."""
    pts = [float(j) for j in range(-n, n + 1)]
    return z2_line_family().system(pts, name=f"z2-line-{n}")


def dihedral_plane_family() -> ClosedFormFamily:
    """The symmetry group of the square on the plane, constant cocycle I=w."""
    from .groups import dihedral
    g = dihedral(8)
    mats = _dihedral8_standard_matrices()

    def point_map(w, p):
        v = mats[w].real @ np.array(p, dtype=float)
        return (float(v[0]), float(v[1]))

    def cocycle_at(w, p):
        return mats[w]

    return ClosedFormFamily("dihedral-plane", g, 2, point_map, cocycle_at)


def _dihedral8_standard_matrices() -> np.ndarray:
    """The standard 2-dim representation matching the builtin D8 ordering."""
    from .groups import dihedral
    g = dihedral(8)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = np.zeros((8, 2, 2), dtype=complex)
    # Builtin ordering: index k < 4 is r^k, index 4 + k is r^k s.
    for k in range(4):
        mats[k] = np.linalg.matrix_power(rot, k)
        mats[4 + k] = np.linalg.matrix_power(rot, k) @ flip
    if np.abs(homomorphism_defect(mats, g.mul)).max() > 1e-12:
        raise SystemError("dihedral matrices do not match the group table")
    return mats


def dihedral_plane_system(generic=(2.0, 1.0)) -> EquivariantSystem:
    """Origin + one axis orbit + one diagonal orbit + one generic orbit."""
    fam = dihedral_plane_family()
    seeds = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), tuple(map(float, generic))]
    pts = []
    for s in seeds:
        for w in range(fam.group.order):
            q = fam._canon(fam.point_map(w, s))
            if q not in pts:
                pts.append(q)
    return fam.system(pts, name="dihedral-plane")


def z2xz2_line_system(n: int) -> EquivariantSystem:
    """Z/2 x Z/2 on the grid {-n..n}: the first factor fixes every point with
    identity cocycle, the second factor is the Z/2 line family."""
    from .groups import cyclic, direct_product
    g = direct_product(cyclic(2), cyclic(2))   # (a, b) -> 2a + b
    line = z2_line_system(n)
    b = np.arange(4) % 2
    return EquivariantSystem(g, line.points, line.action[b], 2, line.cocycle[b],
                             name=f"z2xz2-line-{n}")


def restrict_system(sys: EquivariantSystem, elems):
    """The same points and cocycle, acted on by the subgroup spanned by `elems`.

    Returns (system, subgroup); the subgroup carries the reindexing maps.
    """
    sub = sys.group.subgroup(elems)
    parents = np.array(sub.embedding)
    return EquivariantSystem(sub.group, sys.points, sys.action[parents], sys.fiber_dim,
                             sys.cocycle[parents], name=f"{sys.name}|sub"), sub


def anticomplete_point_system() -> EquivariantSystem:
    """One point, W = Z/2, scalar fiber, I_w = -1 on the nontrivial element."""
    from .groups import cyclic
    g = cyclic(2)
    action = np.zeros((2, 1), dtype=np.intp)
    coc = np.array([[[[1.0]]], [[[-1.0]]]], dtype=complex)
    return EquivariantSystem(g, ("pt",), action, 1, coc, name="anticomplete-point")


def left_translation_system(sys: EquivariantSystem) -> EquivariantSystem:
    """Same points and action, fiber l^2(W), constant left-translation cocycle."""
    lam = regular_rep(sys.group).matrices
    w_n = sys.group.order
    coc = np.tile(lam[:, None], (1, sys.n_points, 1, 1))
    return EquivariantSystem(sys.group, sys.points, sys.action, w_n, coc,
                             name=sys.name + "-left-translation")


# -- the induced action on functions ----------------------------------------


def scalar_algebra(sizes) -> MatrixStarAlgebra:
    """C(X/W) for W-orbits of the given sizes, in M_{|X|}: one block C per
    orbit O, in coordinates against 1_O / sqrt|O|, whose square is
    1_O / |O|, so its table is 1 / sqrt|O|, its star 1 and its trace
    sqrt|O|.  C(X) is the case of orbits of one point each."""
    root = np.sqrt(np.asarray(sizes, dtype=complex))[:, None]
    n = len(root)
    return MatrixStarAlgebra(int(np.sum(sizes)), (Blocks(
        np.arange(n)[:, None], 1 / root[..., None, None], np.ones((n, 1, 1), dtype=complex), root),))


def _least_point_kernels(orbits: Orbits, unitaries, n: int, tol: float):
    """(vectors, base): orthonormal kernels (r, n) of the stacks
    (U_s - 1)_(s in W_x), unitaries(stab, xs) giving U (|stab|, len(xs), n, n),
    at each orbit's least point, base[r] being vector r's, in order of least
    points.  One SVD is batched over the least points of each stabilizer
    and cut on its own (block_cut): s_0 is the batch's largest value."""
    least = orbits.least
    vecs, base = [np.zeros((0, n), dtype=complex)], [np.zeros(0, dtype=np.intp)]
    for stab, points in orbits.by_stabilizer:
        xs = points[least[points] == points]
        if not xs.size:
            continue
        op = (unitaries(stab, xs) - np.eye(n)).transpose(1, 0, 2, 3).reshape(len(xs), -1, n)
        (_, vh, keep), = block_cut([op], tol)
        at, j = np.nonzero(~keep)
        vecs.append(vh[at, j].conj())
        base.append(xs[at])
    order = np.argsort(np.concatenate(base), kind="stable")
    return np.concatenate(vecs)[order], np.concatenate(base)[order]


def _along_orbits(sys: EquivariantSystem, base: np.ndarray):
    """(r, y, u, root) for vectors at the least points base (r,): every
    point y of vector r's orbit O, each r's ascending, with I_{w,x} for
    w x = y and sqrt|O|; vector r at y is its value moved by u, over root."""
    least = sys.orbits.least
    size = np.bincount(least)
    n = size[base]
    r = np.repeat(np.arange(len(base)), n)
    # Orbit O's points start at the number of points of orbits below O.
    start = np.repeat((np.cumsum(size) - size)[base] - np.cumsum(n) + n, n)
    y = np.argsort(least, kind="stable")[start + np.arange(n.sum())]
    return r, y, sys.cocycle[sys.orbits.mover[y], least[y]], np.sqrt(size[base[r]])


@dataclass(frozen=True)
class FixedPointAlgebra(MatrixStarAlgebra):
    """C(X, M_d)^W in coordinates against its orthonormal invariant
    functions, each held read-only by its value values[r] (d, d) at its
    orbit's least point least[r].  Function r is I_{w,x} values[r]
    I_{w,x}* / sqrt|O| at w x; `functions` (k, |X|, d, d), read-only,
    carries them along their orbits on first read."""

    system: EquivariantSystem = field(kw_only=True, repr=False)
    values: np.ndarray = field(kw_only=True, repr=False)   # (k, d, d)
    least: np.ndarray = field(kw_only=True, repr=False)    # (k,)

    @cached_property
    def functions(self) -> np.ndarray:
        d, x_n = self.system.fiber_dim, self.system.n_points
        r, y, u, root = _along_orbits(self.system, self.least)
        funcs = np.zeros((self.dim, x_n, d, d), dtype=complex)
        funcs[r, y] = u @ self.values[r] @ u.conj().swapaxes(-2, -1) / root[:, None, None]
        funcs.setflags(write=False)
        return funcs


def fixed_point_algebra(sys: EquivariantSystem, tol: float = DEFAULT_TOL) -> FixedPointAlgebra:
    """C(X, M_d)^W, one block per orbit, in coordinates against its
    orthonormal invariant functions, embedded block-diagonally in
    M_{|X| d}, an isometry.

    An invariant k is fixed by its value at its orbit's least point x:
    k(wx) = I_{w,x} k(x) I_{w,x}*, the same for every w of the coset w W_x
    as k(x) commutes with each I_{s,x}, s in W_x.  So an orthonormal basis
    v_r of that commutant, carried along the orbit O and divided by
    sqrt|O|, gives the orbit's invariant functions f_r, which vanish off
    O: the table has entries only inside orbit blocks.  The commutant is
    the kernel of T: f -> (I_{s,x} f I_{s,x}* - f)_{s in W_x}, one SVD
    batched over the least points of one stabilizer.  The f -> I_s f I_s*
    are unitary and average to the projection P onto the kernel, so
    T*T = 2 |W_x| (1 - P): T's singular values are 0 and sqrt(2 |W_x|) up
    to roundoff, and the cut s <= tol max(s_0, 1), s_0 the batch's
    largest, separates them for every tol in (0, 1).

    Carrying is unitary, so on O <f_l, f_i f_j> = tr(v_l* v_i v_j) /
    sqrt|O|, <f_l, f_i*> = tr(v_l* v_i*) and tr f_i = sqrt|O| tr v_i: the
    tables are read off the values (matalg.span_tables), batched over
    orbits with as many functions and points, and no function is carried.
    Products leave the span by the values' distance over sqrt|O| and
    adjoints by the values', so the values' residual bounds the functions'.
    The Gram matrix is block-diagonal by orbit, each block the values'
    Gram, which must lie within 10 tol of the identity.
    """
    check_tol(tol)
    d, orbits = sys.fiber_dim, sys.orbits

    def ad(stab, xs):
        i = sys.cocycle[np.ix_(stab, xs)]                             # [s, x]: I_{s,x}
        # Row-major vec(I f I*) = (I (x) conj I) vec(f).
        return (i[..., :, None, :, None] * i.conj()[..., None, :, None, :]).reshape(
            len(stab), len(xs), d * d, d * d)

    vecs, least = _least_point_kernels(orbits, ad, d * d, tol)
    values = vecs.reshape(-1, d, d)
    values.setflags(write=False)
    counts = np.bincount(np.searchsorted(orbits.representatives, least),
                         minlength=len(orbits.members))
    starts = np.cumsum(counts) - counts
    blocks, worst = [], 0.0
    for (s, size), group in _grouped(zip(counts.tolist(), map(len, orbits.members))).items():
        index = starts[group][:, None] + np.arange(s)
        rows = vecs[index]
        if not np.abs(rows @ rows.conj().swapaxes(1, 2) - np.eye(s)).max(initial=0.0) <= 10 * tol:
            raise AlgebraError("basis is not orthonormal")
        stack, residual = span_tables(values[index][:, :, None], index)
        blocks.append(Blocks(index, stack.table / math.sqrt(size), stack.star,
                             stack.traces * math.sqrt(size)))
        worst = max(worst, residual)
    alg = FixedPointAlgebra(sys.total_dim, tuple(blocks), worst, system=sys, values=values,
                            least=least)
    alg.validate(tol)
    return alg


# -- actions on algebras and crossed products --------------------------------


@dataclass(frozen=True)
class AlgebraAction:
    """An action of a finite group on a *-algebra B by permutations of B's
    orthonormal coordinates: beta_w(b_j) = b_(perm[w, j]).

    A *-automorphism of a finite-dimensional C*-algebra permutes its simple
    summands and is inner on each (Skolem-Noether); every action a verdict
    builds, C(X)'s translation and those derived from it, is such a
    permutation with trivial inner parts.  The action keeps a read-only
    copy of `perm`, and per stack of B's blocks `moves` holds (block,
    place): beta_w carries block b of the stack onto its block block[w, b]
    and b's t-th coordinate onto that block's place[w, b, t]-th.  The
    constructor raises SystemError unless each row of perm permutes B's
    coordinates and carries every block onto a block of the same stack.
    """

    group: FiniteGroup
    algebra: MatrixStarAlgebra
    perm: np.ndarray  # (|W|, dim B)
    moves: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alg, k = self.algebra, self.algebra.dim
        perm = np.asarray(self.perm)
        if perm.shape != (self.group.order, k) or (perm.size and perm.dtype.kind not in "iu"):
            raise SystemError("an action is a (|W|, dim B) table of coordinate indices")
        perm = perm.astype(np.intp)                                       # a copy
        if (np.sort(perm, axis=1) != np.arange(k)).any():
            raise SystemError("beta_w does not permute B's coordinates")
        block, place, stack = (np.zeros(k, dtype=np.intp) for _ in range(3))
        for s, st in enumerate(alg.blocks):
            block[st.index] = np.arange(len(st.index))[:, None]
            place[st.index] = np.arange(st.index.shape[1])
            stack[st.index] = s
        moves = []
        for s, st in enumerate(alg.blocks):
            image = perm[:, st.index]                                      # [w, b, t]
            target = block[image]
            if (stack[image] != s).any() or (target != target[..., :1]).any():
                raise SystemError("beta_w does not carry each block of B onto a block")
            moves.append((target[..., 0], place[image]))
        perm.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "moves", tuple(moves))

    @cached_property
    def _orbits(self) -> tuple[np.ndarray, ...]:
        """B's coordinates by W-orbit of B's blocks, read off `moves` on
        first access, each ascending, the orbits in order of their least
        block (numbered stack by stack); orbits with as many coordinates
        are stacked, one (n, p) array per size, in order of first
        appearance."""
        coords = []
        for st, (block, _) in zip(self.algebra.blocks, self.moves):
            least = block.min(axis=0)
            coords += [np.sort(st.index[least == b], axis=None) for b in np.unique(least)]
        return tuple(np.stack([coords[o] for o in group])
                     for group in _grouped(map(len, coords)).values())

    def validate(self, tol: float = 1e-8) -> None:
        """Check that beta is a homomorphism into the *-automorphisms of B,
        by index, with no product of B's elements.

        beta_w and beta_v as permutation matrices differ by 1 in two entries
        of each column they move apart, so the identity and the all-pairs
        homomorphism defects are counts of moved columns.  beta_w moves b_j
        to b_(pi j), so beta_w(b_i b_j) - beta_w(b_i) beta_w(b_j) has the
        entries T_b[j, l, i] - T_(pi b)[pi j, pi l, pi i] of B's block
        tables, and the star defect those of the star tables.  beta is a
        homomorphism, so both are checked at the group's generators only.
        Every bound is written so that NaN fails it.
        """
        check_tol(tol)
        perm, k = self.perm, self.algebra.dim
        ident = np.sqrt(2.0 * np.count_nonzero(perm[0] != np.arange(k)))
        # [g, h]: the columns that pi_gh and pi_g pi_h move apart.
        hom = np.sqrt(2.0 * np.count_nonzero(
            perm[self.group.mul] != perm[np.arange(len(perm))[:, None, None], perm], axis=-1))
        if not ident <= tol * max(k, 1):
            raise SystemError("identity does not act as identity")
        if not hom.max() <= tol * max(k, 1):
            raise SystemError("maps are not a group homomorphism")
        if k == 0:
            return
        star, mult = self._defects(list(self.group.generators()))
        if not _largest_norm(star) <= tol:
            raise SystemError("action does not preserve the involution")
        if not _largest_norm(mult) <= tol:
            raise SystemError("action is not multiplicative")

    def _defects(self, gens: list[int]) -> tuple[list, list]:
        """(star, mult) at the elements gens, one stack of B's blocks at a
        time: arrays whose rows, along the last axis, are the B-coordinates
        of beta_w(b_i*) - beta_w(b_i)* and of beta_w(b_i b_j) -
        beta_w(b_i) beta_w(b_j), read off B's tables by index."""
        star, mult = [], []
        for st, (block, place) in zip(self.algebra.blocks, self.moves):
            b, t = block[gens][..., None, None], place[gens]         # (G, g, 1, 1), [w, b, t]
            # [w, b, t, l]: the b_l entry of beta_w(b_t*) - beta_w(b_t)*.
            star.append(st.star.swapaxes(1, 2) - st.star[b, t[..., None, :], t[..., None]])
            # [w, b, i, j, l]: the b_l entry of beta_w(b_i b_j) - beta_w(b_i) beta_w(b_j).
            tj, tl, ti = t[:, :, None, :, None], t[:, :, None, None, :], t[..., None, None]
            mult.append(st.table.transpose(0, 3, 1, 2) - st.table[b[..., None], tj, tl, ti])
        return star, mult


def _largest_norm(parts) -> float:
    """The largest norm along the last axis over the arrays `parts`, 0 for
    none; NaN when an entry is NaN."""
    return np.max([0.0] + [np.linalg.norm(a, axis=-1).max(initial=0.0) for a in parts])


def _tables_on(alg: MatrixStarAlgebra, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """([o, j, l, i]: <b_l, b_i b_j>, [o, l, i]: <b_l, b_i*>) for the
    coordinates index (n, p) of alg, each row a union of its blocks, at
    their places in the row: alg's block tables placed, zero across
    blocks."""
    table = np.zeros(index.shape + index.shape[1:] * 2, dtype=complex)
    star = np.zeros(index.shape + index.shape[1:], dtype=complex)
    row, pos = np.full(alg.dim, -1), np.zeros(alg.dim, dtype=np.intp)
    row[index] = np.arange(len(index))[:, None]
    pos[index] = np.arange(index.shape[1])
    for st in alg.blocks:
        sel = np.flatnonzero(row[st.index[:, 0]] >= 0)
        at, ix = row[st.index[sel, :1]], pos[st.index[sel]]
        table[at[:, :, None, None], ix[:, :, None, None], ix[:, None, :, None],
              ix[:, None, None, :]] = st.table[sel]
        star[at[:, :, None], ix[:, :, None], ix[:, None, :]] = st.star[sel]
    return table, star


@dataclass(frozen=True)
class CrossedProduct:
    """B >| W in crossed coefficients, the coordinates of `algebra`.

    Coordinate (w, i), at w dim B + i, is that of a_(w,i) = b_i w / sqrt|W|.
    Every beta_w permutes B's orthonormal basis, so it is unitary and the
    a_(w,i) are orthonormal in the regular representation on
    l^2(W) (x) C^N: the standard inner products of coordinates are the
    trace inner products there.
    """

    action: AlgebraAction

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def dim(self) -> int:
        """|W| dim B, the dimension of B >| W."""
        return self.group.order * self.action.algebra.dim

    @cached_property
    def algebra(self) -> MatrixStarAlgebra:
        """B >| W in its own coordinates, the crossed coefficients: one
        block per W-orbit O of B's blocks, as a_(w,i) a_(v,j) =
        b_i beta_w(b_j) wv / sqrt|W| vanishes unless b_i and beta_w(b_j)
        share a block.  <a_(u,l), a_(w,i) a_(v,j)> is
        <b_l, b_i b_(pi_w j)> / sqrt|W| on O when u = wv and zero
        otherwise, gathered from B's block tables in O's coordinates at
        pi_w's places, at O(|W| p^3) for the p coordinates of O;
        a_(w,i)* = beta_(w^-1)(b_i*) w^-1 / sqrt|W|, whose coefficients are
        b_i*'s moved by pi_(w^-1), and tr a_(w,i) = delta_(w,e) sqrt|W|
        tr b_i.  These hold in the regular representation, in which a_(w,i)
        has the block beta_((wv)^-1)(b_i) / sqrt|W| at (wv, v): only w = e
        has diagonal blocks, and each beta_v preserves the trace.  The
        regular representation integrates a covariant pair (Williams,
        Crossed Products of C*-Algebras, 2007, 2.3), so these are the tables
        of the embedded span, whose ambient size |W| N is `ambient_dim`.
        """
        g, action = self.group, self.action
        b_alg = action.algebra
        w_n, k = g.order, b_alg.dim
        w, v = np.arange(w_n)[:, None], np.arange(w_n)
        blocks = []
        for index in action._orbits:
            n, p = index.shape
            place = np.zeros(k, dtype=np.intp)
            place[index] = np.arange(p)
            pi, o = place[action.perm[:, index]], np.arange(n)[:, None]   # [w, o, j]: pi_w j
            table_on, adj = _tables_on(b_alg, index)                      # adj [o, m, i]: b_i*
            prods = table_on[o, pi]                        # [w, o, j, l, i]: <b_l, b_i b_(pi_w j)>
            flipped = adj[o, np.argsort(pi, axis=-1)[g.inv]]
            table = np.zeros((n, w_n, p, w_n, p, w_n, p), dtype=complex)
            table[:, v, :, g.mul[w, v], :, w] = prods[:, None] / math.sqrt(w_n)
            star = np.zeros((n, w_n, p, w_n, p), dtype=complex)
            star[:, g.inv, :, v] = flipped
            traces = np.zeros((n, w_n, p), dtype=complex)
            traces[:, g.identity] = math.sqrt(w_n) * b_alg.traces[index]
            blocks.append(Blocks((v[:, None] * k + index[:, None, :]).reshape(n, -1),
                                 table.reshape(n, w_n * p, w_n * p, w_n * p),
                                 star.reshape(n, w_n * p, w_n * p), traces.reshape(n, -1)))
        return MatrixStarAlgebra(w_n * b_alg.ambient_dim, tuple(blocks))

    def is_ideal(self, rows: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Is the span of rows (dim B, r, |W|), row (i, s) the coefficients
        rows[i, s, w] at (w, i), orthonormal or zero for each i, a two-sided
        *-ideal?  Each row f's adjoint and products f a with the orthonormal
        basis a_(w,j) must stay in the span, each v within tol * max(1, |v|)
        in the trace norm; A is *-closed, so a I follows.  A B-coordinate
        lies in the block of its W-orbit, and an ideal of a direct sum is
        the sum of its parts in the summands, so each stack of blocks is
        tested in one batch: adjoints off the star tables, products with the
        whole basis of each block off its table in one matmul.  A span of
        full dimension needs no test.
        """
        check_tol(tol)
        if np.count_nonzero(rows.any(axis=-1)) in (0, self.dim):
            return True
        w_n, r = self.group.order, rows.shape[1]
        for st in self.algebra.blocks:
            # A block holds a_(v,j), j the t-th of its orbit's p coordinates, at v p + t.
            n, size = st.index.shape
            t = np.arange(size // w_n)
            held = np.zeros((n, t.size, r, w_n, t.size), dtype=complex)
            held[:, t, :, :, t] = rows[st.index[:, :t.size]].swapaxes(0, 1)
            held = held.reshape(n, -1, size)
            prods = held[:, None] @ st.table.swapaxes(-1, -2)      # [o, j, s]: f_s b_j
            if not (span_contains(held, held.conj() @ st.star.swapaxes(-1, -2), tol)
                    and span_contains(held, prods.reshape(n, -1, size), tol)):
                return False
        return True


def crossed_product(action: AlgebraAction, tol: float = 1e-8) -> CrossedProduct:
    """B >| W from an action validated at `tol` (AlgebraAction.validate):
    SystemError unless beta is a homomorphism into the *-automorphisms of
    B.  A permutation of B's orthonormal basis is unitary, so the a_(w,i)
    are orthonormal, as CrossedProduct assumes, with no check of its own.
    """
    action.validate(tol)
    return CrossedProduct(action)


# -- structural isomorphisms -------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    """A verified *-isomorphism between two concretely realized algebras."""

    source_dim: int
    target_dim: int
    bijective: bool
    multiplicative_residual: float
    star_residual: float

    @property
    def ok(self) -> bool:
        return self.bijective and self.multiplicative_residual < 1e-8 \
            and self.star_residual < 1e-8


def phi_iso(sys: EquivariantSystem, tol: float = DEFAULT_TOL,
            rng: np.random.Generator | None = None):
    """The isomorphism C(X) >| W ~ C(X, K(l^2 W))^W for scalar-fiber systems.

    phi(f w)(x): delta_v -> f(w v^-1 x) delta_{v w^-1}, a relabelling, as
    w -> v w^-1 is one-to-one for each v; on a_(w,x) = delta_x w / sqrt|W|
    it takes the 1 / sqrt|W| along.  Returns the witness together with the
    image map from coordinate stacks (..., |W| |X|) to functions (..., |X|,
    |W|, |W|), compared and multiplied point by point: the block-diagonal
    embedding is an isometry, so the span test and residuals are its.
    """
    if sys.fiber_dim != 1:
        raise SystemError("phi_iso requires scalar fibers")
    g = sys.group
    x_n = sys.n_points
    w_n = g.order
    rng = rng or np.random.default_rng(0)

    cp = crossed_product(AlgebraAction(g, scalar_algebra(np.ones(x_n)), sys.action))   # C(X) >| W
    target_sys = left_translation_system(sys)
    target = fixed_point_algebra(target_sys, tol)
    # [w, v, x]: phi(f w)(x) has f(w v^-1 x) at row v w^-1, column v.
    w_idx = np.arange(w_n)[:, None, None]
    v_idx = np.arange(w_n)[None, :, None]
    index = (g.mul[v_idx, g.inv[w_idx]], v_idx, w_idx,
             sys.action[g.mul[w_idx, g.inv[v_idx]], np.arange(x_n)])
    phi = partial(_translation_image, target_sys, index)

    img_rows = orthonormal_rows(phi(np.eye(w_n * x_n)).reshape(w_n * x_n, -1), tol)
    bijective = (img_rows.shape[0] == w_n * x_n
                 and spans_equal(img_rows, target.functions.reshape(target.dim, -1),
                                 max(tol, 1e-8)))
    f, h = _iso_samples(rng, (w_n * x_n,))
    pf = phi(f)
    alg = cp.algebra
    witness = IsoWitness(w_n * x_n, target.dim, bijective,
                         _iso_residual(phi(alg.multiply(f, h)), pf @ phi(h)),
                         _iso_residual(phi(alg.adjoint(f)), pf.conj().swapaxes(-2, -1)))
    return witness, cp, target, phi


def _translation_image(target_sys: EquivariantSystem, index, f: np.ndarray) -> np.ndarray:
    """phi_iso's map into target_sys: `index` = (rows, columns, w, sources)
    puts f_w(sources[w, v, x]) / sqrt|W| at entry (rows[w, v], columns[v])
    of point x, for coordinates f (..., |W| |X|) read as (..., |W|, |X|)."""
    rows, cols, w_idx, src = index
    w_n, x_n = target_sys.fiber_dim, target_sys.n_points
    f = np.asarray(f, dtype=complex).reshape(*np.shape(f)[:-1], w_n, x_n) / math.sqrt(w_n)
    func = np.zeros(f.shape[:-2] + (x_n, w_n, w_n), dtype=complex)
    func[..., np.arange(x_n), rows, cols] = f[..., w_idx, src]
    return func


def iterated_crossed_iso(action: AlgebraAction, normal, complement,
                         rng: np.random.Generator | None = None):
    """(B >| U) >| V ~ B >| W for W = U >| V, via phi((a u) v) = a (u v).

    `normal` and `complement` are element lists of W.  Verifies the map is a
    *-isomorphism at coefficient level; returns the witness.
    """
    g = action.group
    semidirect_decomposition(g, normal, complement)   # raises unless W = U >| V
    u_sub = g.subgroup(normal)
    u_emb = np.array(u_sub.embedding)
    inner = crossed_product(AlgebraAction(u_sub.group, action.algebra, action.perm[u_emb]))
    alpha, w_of = _outer_action(action, inner, u_emb, g.subgroup(complement))
    return _iterated_crossed_iso(crossed_product(action), crossed_product(alpha), w_of,
                                 rng or np.random.default_rng(0))


def _outer_action(whole: AlgebraAction, inner: CrossedProduct, u_emb: np.ndarray,
                  v_sub: Subgroup) -> tuple[AlgebraAction, np.ndarray]:
    """(alpha, w_of) for W = U >| V, with U's elements u_emb in W and V's
    in v_sub, and inner = B >| U.

    V acts on B >| U by alpha_v(a_(u,i)) = a_(v u v^-1, pi_v i), as
    v (b_i u) v^-1 = beta_v(b_i) (v u v^-1), so (B >| U) >| V is
    crossed_product(alpha), whose coordinates (v, u, i) are those of
    a_(u,i) v / sqrt|V| = b_i (uv) / sqrt|W|.  phi((a u) v) = a (uv) moves
    coordinate (v, u, i) to (w_of[v, u], i) of B >| W (_slot_image).
    """
    g = whole.group
    v_emb = np.array(v_sub.embedding)
    in_u = np.zeros(g.order, dtype=np.intp)
    in_u[u_emb] = np.arange(len(u_emb))
    conj = in_u[g.mul[g.mul[v_emb[:, None], u_emb], g.inv[v_emb][:, None]]]   # [v, u]: v u v^-1
    k = whole.algebra.dim
    perm = conj[:, :, None] * k + whole.perm[v_emb][:, None]
    return (AlgebraAction(v_sub.group, inner.algebra, perm.reshape(len(v_emb), -1)),
            g.mul[u_emb, v_emb[:, None]])


def _slot_image(w_of: np.ndarray, f: np.ndarray) -> np.ndarray:
    """phi((a u) v) = a (uv) on coordinate stacks f (..., |V| |U| dim B) of
    (B >| U) >| V: coordinate (v, u, i) goes to (w_of[v, u], i) of B >| W."""
    k = f.shape[-1] // w_of.size
    out = np.zeros(f.shape, dtype=complex)
    out[..., (w_of[..., None] * k + np.arange(k)).ravel()] = f
    return out


def _iterated_crossed_iso(whole: CrossedProduct, outer: CrossedProduct, w_of: np.ndarray,
                          rng: np.random.Generator) -> IsoWitness:
    """The witness that _slot_image is a *-isomorphism from outer =
    (B >| U) >| V onto whole = B >| W, from eight samples at once."""
    fa, fb = _iso_samples(rng, (outer.dim,))
    pa = _slot_image(w_of, fa)
    bijective = bool(np.array_equal(np.sort(w_of, axis=None), np.arange(whole.group.order)))
    return IsoWitness(outer.dim, whole.dim, bijective,
                      _iso_residual(_slot_image(w_of, outer.algebra.multiply(fa, fb)),
                                    whole.algebra.multiply(pa, _slot_image(w_of, fb))),
                      _iso_residual(_slot_image(w_of, outer.algebra.adjoint(fa)),
                                    whole.algebra.adjoint(pa)))


def _iso_samples(rng: np.random.Generator, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Eight pairs (f, h) of complex arrays of `shape`, stacked; each sample
    draws f, then h, real part before imaginary."""
    draws = rng.standard_normal((8, 2, 2) + shape)
    f, h = np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0)
    return f, h


def _iso_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """The largest over the samples of max|lhs - rhs| / max(1, max|rhs|)."""
    axes = tuple(range(1, lhs.ndim))
    return float((np.abs(lhs - rhs).max(axis=axes)
                  / np.maximum(1.0, np.abs(rhs).max(axis=axes))).max())
