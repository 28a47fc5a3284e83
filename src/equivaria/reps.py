"""Unitary representations of finite groups and the isotypic toolbox.

Irreducible decomposition works by sampling a random Hermitian element of
the commutant of the regular representation (seeded), splitting its
eigenspaces, and recursing until every piece has a one-dimensional
commutant.  The character table alone is read off the center of C[G], with
one eigenproblem of the size of the number of conjugacy classes and no
representation split.  Both routes share one canonical order (by
dimension, then by character vector) and its labels, which everything
downstream treats as fixed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .linalg import (
    DEFAULT_TOL,
    check_tol,
    cluster_values,
    homomorphism_defect,
    intertwiner_rows,
    random_hermitian,
)


class RepError(ValueError):
    pass


class DegenerateSplitError(RuntimeError):
    """Random commutant splitting failed after bounded retries."""


@dataclass(frozen=True)
class UnitaryRep:
    """A unitary representation: one dim x dim matrix per group element."""

    group: FiniteGroup
    matrices: np.ndarray  # (order, dim, dim)
    label: str = ""

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.shape[0] != self.group.order or mats.shape[1] != mats.shape[2]:
            raise RepError("matrix array shape does not match the group")
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def character(self) -> np.ndarray:
        return np.einsum("gii->g", self.matrices)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        mats = self.matrices
        d = self.dim
        eye = np.eye(d)
        if np.linalg.norm(mats[self.group.identity] - eye) > tol * d:
            raise RepError("identity element is not represented by the identity")
        for g in self.group.elements():
            if np.linalg.norm(mats[g].conj().T @ mats[g] - eye) > tol * d:
                raise RepError(f"matrix for element {g} is not unitary")
        defect = np.linalg.norm(homomorphism_defect(mats, self.group.mul), axis=(-2, -1))
        failing = np.argwhere(defect > tol * d)
        if failing.size:
            g, h = failing[0]
            raise RepError(f"homomorphism fails at ({g}, {h})")

    def homomorphism_residual(self) -> float:
        return float(np.max(np.abs(homomorphism_defect(self.matrices, self.group.mul))))

    def restrict_to_subspace(self, basis_cols: np.ndarray, label: str = "") -> "UnitaryRep":
        """Compress onto an invariant subspace spanned by orthonormal columns."""
        q = basis_cols
        mats = np.einsum("ij,gjk,kl->gil", q.conj().T, self.matrices, q)
        return UnitaryRep(self.group, mats, label=label)

    def direct_sum(self, other: "UnitaryRep", label: str = "") -> "UnitaryRep":
        if other.group is not self.group and not np.array_equal(other.group.mul, self.group.mul):
            raise RepError("direct sum requires the same group")
        d1, d2 = self.dim, other.dim
        mats = np.zeros((self.group.order, d1 + d2, d1 + d2), dtype=complex)
        mats[:, :d1, :d1] = self.matrices
        mats[:, d1:, d1:] = other.matrices
        return UnitaryRep(self.group, mats, label=label)


def trivial_rep(group: FiniteGroup) -> UnitaryRep:
    return UnitaryRep(group, np.ones((group.order, 1, 1), dtype=complex), label="triv")


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation: matrix of g sends e_h to e_{gh}."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in group.elements():
        mats[g, group.mul[g], np.arange(n)] = 1.0
    return UnitaryRep(group, mats, label="regular")


def commutant_project(rep: UnitaryRep, h: np.ndarray) -> np.ndarray:
    """Average h into the commutant of the representation."""
    out = np.einsum("gij,jk,gkl->il", rep.matrices, h,
                    rep.matrices[rep.group.inv])
    return out / rep.group.order


def intertwiner_space(rho: UnitaryRep, pi: UnitaryRep, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of {s: H_rho -> H_pi | s rho(w) = pi(w) s}.

    Rows of the result flatten (dim pi) x (dim rho) matrices; orthonormality
    is with respect to the Hilbert-Schmidt inner product trace(r* s).  Both
    representations are homomorphisms, so w runs over generators only.
    """
    check_tol(tol)
    gens = list(rho.group.generators())
    return intertwiner_rows(pi.matrices[gens], rho.matrices[gens], tol)


def commutant_dimension(rep: UnitaryRep, tol: float = DEFAULT_TOL) -> int:
    check_tol(tol)
    return intertwiner_space(rep, rep, tol).shape[0]


def is_irreducible(rep: UnitaryRep) -> bool:
    """<chi, chi> = dim End_W(V) by Schur orthogonality; irreducible iff 1."""
    chi = rep.character()
    return round(character_inner(chi, chi).real) == 1


def _character_keys(chars: np.ndarray, decimals: int = 8) -> list[tuple[float, ...]]:
    """One key per character of the stack (r, |G|): its values rounded,
    as (re, im) pairs laid end to end."""
    rounded = np.round(np.asarray(chars, dtype=complex), decimals) + 0.0  # normalize -0.0
    pairs = np.stack([rounded.real, rounded.imag], axis=-1)
    return [tuple(row) for row in pairs.reshape(len(pairs), -1).tolist()]


# Commutant splittings tried by _split_rep, each with a doubled gap.
_SPLIT_ATTEMPTS = 8


def _split_rep(rep: UnitaryRep, rng: np.random.Generator, tol: float) -> list[UnitaryRep]:
    """Split a unitary rep into irreducible pieces (with multiplicity)."""
    if rep.dim == 0:
        return []
    if is_irreducible(rep):
        return [rep]
    gap = 1e-7
    for attempt in range(_SPLIT_ATTEMPTS):
        t = commutant_project(rep, random_hermitian(rep.dim, rng))
        t = (t + t.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(t)
        labels = cluster_values(evals, gap)
        clusters = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
        if len(clusters) <= 1:
            gap *= 2.0
            continue
        pieces = []
        ok = True
        for idx in clusters:
            q = evecs[:, idx]
            sub = rep.restrict_to_subspace(q)
            if sub.homomorphism_residual() > tol * max(sub.dim, 1) * 10:
                ok = False
                break
            pieces.extend(_split_rep(sub, rng, tol))
        if ok:
            return pieces
        gap *= 2.0
    raise DegenerateSplitError(
        "could not split representation; raise the tolerance or reseed")


def _canonical_order(dims, chars) -> tuple[list[int], list[str]]:
    """The canonical order of irreps with dimensions `dims` and characters
    `chars`, and their labels: ascending by (dimension, character vector
    rounded to 8 decimals), labeled "{dim}d{k}" with k counting within one
    dimension.  enumerate_irreps and character_table both order by it."""
    keys = list(zip(dims, _character_keys(chars)))
    order = sorted(range(len(dims)), key=keys.__getitem__)
    counts: dict[int, int] = {}
    labels = []
    for i in order:
        k = counts.get(dims[i], 0)
        counts[dims[i]] = k + 1
        labels.append(f"{dims[i]}d{k}")
    return order, labels


def enumerate_irreps(group: FiniteGroup, seed: int = 0,
                     tol: float = DEFAULT_TOL) -> list[UnitaryRep]:
    """All irreducible unitary representations, pairwise inequivalent.

    Deterministic for a fixed seed; in the canonical order and labels.
    """
    check_tol(tol)
    rng = np.random.default_rng(seed)
    pieces = _split_rep(regular_rep(group), rng, tol)
    by_char: dict = {}
    for key, piece in zip(_character_keys([p.character() for p in pieces]), pieces):
        by_char.setdefault(key, piece)
    irreps = list(by_char.values())
    total = sum(r.dim ** 2 for r in irreps)
    if total != group.order:
        raise DegenerateSplitError(
            f"irrep dimensions square-sum to {total}, expected {group.order}")
    order, labels = _canonical_order([r.dim for r in irreps],
                                     [r.character() for r in irreps])
    return [UnitaryRep(group, irreps[i].matrices, label=label)
            for i, label in zip(order, labels)]


def character_table(group: FiniteGroup, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> tuple[list[str], np.ndarray]:
    """Labels and characters (r, |G|) of the irreducible representations,
    in the canonical order and labels of enumerate_irreps, read off the
    center of C[G] (Burnside-Dixon; Dixon, Numer. Math. 10, 1967).

    The conjugacy classes C_k are named by their least elements, and the
    class sums multiply as C_i C_j = sum_k c[i, j, k] C_k.  A seeded random
    z = sum_i a_i C_i acts on the center; in its orthonormal basis
    C_k / sqrt|C_k| the action is normal, with the central idempotents
    e_chi as eigenvectors: unit vectors v_chi[k] = conj chi(C_k)
    sqrt(|C_k| / |G|), up to a phase fixed by v_chi[e] > 0.  One eigh of
    the Hermitian part finds them when its eigenvalues are apart; a draw
    with two closer than the gap is redrawn, as in _split_rep.
    DegenerateSplitError is raised when no draw separates them, or when
    the characters fail integral degrees summing in squares to |G|, or
    Schur orthogonality, within tol |G|.
    """
    check_tol(tol)
    n, mul = group.order, group.mul
    least = mul[mul, group.inv[:, None]].min(axis=0)      # [h, x] -> h x h^-1
    named = np.zeros(n, dtype=np.intp)
    named[least] = 1
    cls = (np.cumsum(named) - 1)[least]
    r = int(named.sum())
    sizes = np.bincount(cls, minlength=r)
    # pairs[i, j, k] = c[i, j, k] |C_k|: the (g, h) in C_i x C_j with gh in C_k.
    pairs = np.bincount(((cls[:, None] * r + cls) * r + cls[mul]).ravel(), minlength=r ** 3)
    root = np.sqrt(sizes)
    # [i, k, j]: c[i, j, k] sqrt(|C_k| / |C_j|), the action of C_i on the center.
    act = (pairs.reshape(r, r, r).transpose(0, 2, 1) / (root[:, None] * root)).reshape(r, -1)
    rng = np.random.default_rng(seed)
    gap = 1e-7
    for _ in range(_SPLIT_ATTEMPTS):
        a = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        z = (a @ act).reshape(r, r)
        evals, vecs = np.linalg.eigh((z + z.conj().T) / 2.0)
        if np.all(np.diff(evals) > gap * max(1.0, np.abs(evals).max())):
            break
        gap *= 2.0
    else:
        raise DegenerateSplitError(
            "could not separate the central characters; raise the tolerance or reseed")
    vecs = vecs * (np.abs(vecs[0]) / vecs[0])
    degrees = np.sqrt(n) * vecs[0].real
    dims = np.rint(degrees).astype(int)
    chars = (np.sqrt(n) * vecs.conj().T / root)[:, cls]
    schur = np.abs(chars @ chars.conj().T / n - np.eye(r)).max()
    if not (np.abs(degrees - dims).max() <= tol * n and np.sum(dims ** 2) == n
            and schur <= tol * n):
        raise DegenerateSplitError(
            "the central characters are no character table; raise the tolerance or reseed")
    order, labels = _canonical_order(dims.tolist(), chars)
    return labels, chars[order]


def character_inner(chi1: np.ndarray, chi2: np.ndarray) -> complex:
    """(1/|W|) sum_w chi1(w) conj(chi2(w))."""
    return complex(np.vdot(chi2, chi1) / chi1.shape[0])


def multiplicity(pi: UnitaryRep, rho: UnitaryRep) -> int:
    m = character_inner(pi.character(), rho.character())
    return int(round(m.real))


def isotypic_projection(pi: UnitaryRep, rho: UnitaryRep) -> np.ndarray:
    """The projection pi(e_rho) = (dim rho / |W|) sum_w conj(tr rho(w)) pi(w)."""
    if pi.group.order != rho.group.order or not np.array_equal(pi.group.mul, rho.group.mul):
        raise RepError("representations belong to different groups")
    weights = rho.dim * rho.character().conj() / pi.group.order
    return np.tensordot(weights, pi.matrices, axes=1)


def equivariant_maps(rho: UnitaryRep, pi: UnitaryRep,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of HS(rho, pi)^W, as (count, dim pi, dim rho)."""
    check_tol(tol)
    rows = intertwiner_space(rho, pi, tol)
    return rows.reshape(-1, pi.dim, rho.dim)
