"""Unitary representations of finite groups and the isotypic toolbox.

Irreducible decomposition works by sampling a random Hermitian element of
the commutant of the regular representation (seeded), splitting its
eigenspaces, and recursing until every piece has a one-dimensional
commutant.  Everything downstream treats the resulting canonical irrep
list (sorted by dimension, then by character vector) as fixed labels.
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
    gens = list(rho.group.generators())
    return intertwiner_rows(pi.matrices[gens], rho.matrices[gens], tol)


def commutant_dimension(rep: UnitaryRep, tol: float = DEFAULT_TOL) -> int:
    return intertwiner_space(rep, rep, tol).shape[0]


def is_irreducible(rep: UnitaryRep) -> bool:
    """<chi, chi> = dim End_W(V) by Schur orthogonality; irreducible iff 1."""
    chi = rep.character()
    return round(character_inner(chi, chi).real) == 1


def _character_key(char: np.ndarray, decimals: int = 8):
    rounded = np.round(char, decimals)
    rounded += 0.0  # normalize -0.0
    return tuple((float(c.real), float(c.imag)) for c in rounded)


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


def enumerate_irreps(group: FiniteGroup, seed: int = 0,
                     tol: float = DEFAULT_TOL) -> list[UnitaryRep]:
    """All irreducible unitary representations, pairwise inequivalent.

    Deterministic for a fixed seed; sorted by (dimension, character vector).
    """
    check_tol(tol)
    rng = np.random.default_rng(seed)
    pieces = _split_rep(regular_rep(group), rng, tol)
    by_char: dict = {}
    for p in pieces:
        key = _character_key(p.character())
        by_char.setdefault(key, p)
    irreps = sorted(by_char.values(), key=lambda r: (r.dim, _character_key(r.character())))
    total = sum(r.dim ** 2 for r in irreps)
    if total != group.order:
        raise DegenerateSplitError(
            f"irrep dimensions square-sum to {total}, expected {group.order}")
    counts: dict[int, int] = {}
    labeled = []
    for r in irreps:
        k = counts.get(r.dim, 0)
        counts[r.dim] = k + 1
        labeled.append(UnitaryRep(group, r.matrices, label=f"{r.dim}d{k}"))
    return labeled


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
    rows = intertwiner_space(rho, pi, tol)
    return rows.reshape(-1, pi.dim, rho.dim)
