"""Classify the irreducible representations of a fixed-point algebra.

For a system (X, W, H, I) the irreducibles of C(X, M_d)^W are labeled by
pairs (orbit Wx, irrep rho of the stabilizer W_x occurring in I_x); the
representation space is HS(rho, I_x)^{W_x} and the action is
pi_{x,rho}(k): s -> k(x) s.  The dimension of that space is the
multiplicity of rho in I_x, read off the stabilizer's character table,
which comes from the center of C[W_x] (reps.character_table); the orbits
that share a stabilizer (EquivariantSystem.orbits) share its table.  No
representation of W_x is split and no equivariant map is solved until an
entry's basis is read.
The module cross-checks the classification against the Wedderburn block
structure and produces limit certificates for closed-form cocycle families
(the finite stand-in for Fell-topology limit points, detected through
matrix-coefficient convergence).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groups import Subgroup
from .linalg import DEFAULT_TOL, check_tol
from .matalg import block_decompose, generate
from .reps import (
    UnitaryRep,
    character_table,
    enumerate_irreps,
    equivariant_maps,
)
from .systems import (
    ClosedFormFamily,
    EquivariantSystem,
    fixed_point_algebra,
)


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumEntry:
    """One irreducible: orbit representative, stabilizer irrep, dimension.

    `dim` is the multiplicity of the irrep labeled `rho_label` in
    `cocycle`, the representation w -> I_{w,x} of the stabilizer at
    `point`.  The entry holds neither: `rho`, `cocycle` and `basis` are
    built, at `seed` and `tol`, on first access only.
    """

    orbit: tuple[int, ...]
    point: int                 # canonical representative: lowest index
    stabilizer: Subgroup
    rho_label: str             # label of rho among the stabilizer's irreps
    dim: int                   # dim HS(rho, I_x)^{W_x}
    system: EquivariantSystem = field(repr=False)
    seed: int = 0
    tol: float = DEFAULT_TOL

    @property
    def label(self) -> str:
        return f"x{self.point}:{self.rho_label}"

    @cached_property
    def rho(self) -> UnitaryRep:
        """The irrep of the (reindexed) stabilizer labeled `rho_label`,
        from enumerate_irreps at the entry's seed and tolerance."""
        irreps = enumerate_irreps(self.stabilizer.group, seed=self.seed, tol=self.tol)
        return next(rho for rho in irreps if rho.label == self.rho_label)

    @cached_property
    def cocycle(self) -> UnitaryRep:
        """I_x on the stabilizer."""
        return stabilizer_rep(self.system, self.point, self.stabilizer)[1]

    @cached_property
    def basis(self) -> np.ndarray:
        """(dim, d, dim rho) orthonormal equivariant maps; SpectrumError
        unless there are `dim` of them."""
        maps = equivariant_maps(self.rho, self.cocycle, self.tol)
        if maps.shape[0] != self.dim:
            raise SpectrumError(f"{self.label}: {maps.shape[0]} equivariant maps "
                                f"for multiplicity {self.dim}")
        return maps


@dataclass(frozen=True)
class SpectrumDescription:
    system: EquivariantSystem
    entries: tuple[SpectrumEntry, ...]
    integrality_distance: float   # largest distance of a multiplicity from its integer

    def dims(self) -> list[int]:
        return sorted(e.dim for e in self.entries)


def stabilizer_rep(sys: EquivariantSystem, x: int,
                   sub: Subgroup | None = None) -> tuple[Subgroup, UnitaryRep]:
    """The representation w -> I_{w,x} of the stabilizer of point x;
    `sub`, when given, must be that stabilizer."""
    if sub is None:
        sub = sys.group.subgroup(sys.orbits.stabilizers[x])
    return sub, UnitaryRep(sub.group, sys.cocycle[list(sub.embedding), x], label=f"I@x{x}")


# A multiplicity this far from an integer means I_x is no representation.
_INTEGRALITY_LIMIT = 0.25


def classify_irreps(sys: EquivariantSystem, seed: int = 0,
                    tol: float = DEFAULT_TOL) -> SpectrumDescription:
    """One entry per (orbit, stabilizer irrep occurring in the cocycle).

    Orbits of one stabilizer (sys.orbits.by_stabilizer) share its
    character table, and stabilizers whose reindexed groups have one
    multiplication table share one reps.character_table.  An entry's
    dimension is the multiplicity of rho in I_x, the character inner
    product Re <chi_I, chi_rho> / |W_x| (Serre, Linear Representations of
    Finite Groups, 2.3), rounded; the multiplicities at all least points of
    one stabilizer are one product of its table with their traces
    tr I_{s,x}.  No representation is split and no intertwiner space is
    solved.  The largest distance of a multiplicity from its integer is
    kept, and SpectrumError is raised when it reaches 1/4.
    """
    check_tol(tol)
    orbits = sys.orbits
    representatives = np.array(orbits.representatives)
    entries, worst, tables = [], 0.0, {}
    for stab, points in orbits.by_stabilizer:
        xs = points[orbits.least[points] == points]
        if not xs.size:
            continue
        sub = sys.group.subgroup(stab)
        key = sub.group.mul.tobytes()
        if key not in tables:
            tables[key] = character_table(sub.group, seed=seed, tol=tol)
        labels, chars = tables[key]
        traces = np.trace(sys.cocycle[np.ix_(sub.embedding, xs)], axis1=-2, axis2=-1)
        mults = (chars.conj() @ traces).real / len(stab)               # [rho, x]
        counts = np.rint(mults)
        worst = max(worst, float(np.abs(mults - counts).max()))
        at = np.searchsorted(representatives, xs).tolist()             # x's orbit
        for x, o, column in zip(xs.tolist(), at, counts.T.astype(int).tolist()):
            entries += [SpectrumEntry(orbits.members[o], x, sub, label, n, sys, seed, tol)
                        for label, n in zip(labels, column) if n > 0]
    if worst >= _INTEGRALITY_LIMIT:
        raise SpectrumError(f"a stabilizer multiplicity lies {worst:.3g} from an integer: "
                            "the cocycle is not a representation")
    return SpectrumDescription(sys, tuple(sorted(entries, key=lambda e: e.point)), worst)


def realize_irrep(sys: EquivariantSystem, entry: SpectrumEntry,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrices of pi_{x,rho}(k): s -> k(x) s on the entry's basis.

    Returns one dim x dim matrix per basis element of the fixed-point
    algebra, in its order, read off its value k(x) at the entry's point x:
    zero off x's orbit O, and on it the value at x, O's least point,
    carried by I_{e,x} and divided by sqrt|O|, as FixedPointAlgebra carries
    it.  Verified *-homomorphism with scalar commutant by the caller or
    test suite.
    """
    check_tol(tol)
    fpa = fixed_point_algebra(sys, tol)
    x, u = entry.point, sys.cocycle[0, entry.point]
    at, on = np.zeros_like(fpa.values), fpa.least == x
    at[on] = u @ fpa.values[on] @ u.conj().T / np.sqrt(len(entry.orbit))
    s = entry.basis  # (m, d, r)
    # [k, n, a, r]: k(x) s_n; then contracted with conj(s_m) over (a, r).
    moved = at[:, None] @ s[None]
    return np.tensordot(moved, s.conj(), axes=([2, 3], [1, 2])).transpose(0, 2, 1)


def realized_commutant_dim(mats: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """dim of the commutant in M_N of the algebra the N x N matrices
    generate, read off its blocks (block_decompose): C^N is the sum of m_i
    copies of each block's irreducible C^(n_i) and of the z-dimensional
    common kernel, z = N - sum n_i m_i, so the commutant is the sum of the
    M_(m_i) and M_z, of dimension sum m_i^2 + z^2 (1 iff irreducible)."""
    check_tol(tol)
    n = mats.shape[1]
    blocks = block_decompose(generate(mats, ambient_dim=n, tol=tol).algebra, tol=tol).blocks
    kernel = n - sum(b.size * b.multiplicity for b in blocks)
    return sum(b.multiplicity ** 2 for b in blocks) + kernel ** 2


@dataclass(frozen=True)
class WedderburnVerdict:
    ok: bool
    spectrum_dims: tuple[int, ...]
    block_sizes: tuple[int, ...]
    algebra_dim: int
    sum_of_squares: int
    spectrum: SpectrumDescription   # the classification the check compared

    @property
    def integrality_distance(self) -> float:
        return self.spectrum.integrality_distance

    def diff(self) -> str:
        return (f"spectrum dims {list(self.spectrum_dims)} vs "
                f"block sizes {list(self.block_sizes)}; "
                f"sum of squares {self.sum_of_squares} vs dim {self.algebra_dim}")


def wedderburn_crosscheck(sys: EquivariantSystem, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> WedderburnVerdict:
    """The classification must reproduce the block structure exactly; the
    verdict carries the classification it compared."""
    check_tol(tol)
    desc = classify_irreps(sys, seed=seed, tol=tol)
    fpa = fixed_point_algebra(sys, tol)
    blocks = block_decompose(fpa, seed=seed, tol=tol)
    dims = tuple(desc.dims())
    sizes = tuple(blocks.sizes())
    total = sum(d * d for d in dims)
    ok = dims == sizes and total == fpa.dim
    return WedderburnVerdict(ok, dims, sizes, fpa.dim, total, desc)


# -- Fell-limit certificates -------------------------------------------------


@dataclass(frozen=True)
class LimitCertificate:
    family: str
    sequence: tuple[float, ...]
    point: object              # candidate limit point
    rho_label: str
    candidate_values: tuple[complex, ...]   # candidate rep on each test element
    residuals: tuple[float, ...]            # max residual per sample
    accepted: bool
    tail_length: int


def _default_profiles(center):
    """Decaying scalar bump profiles, flat to sixth order at `center`.

    Flatness at the candidate limit point makes the matrix-coefficient
    residuals fall off like |x - x0|^6 along the sequence, while the
    profiles still separate distant orbits (for rejection cases).
    """
    def sq(p):
        if isinstance(p, tuple):
            c = center if isinstance(center, tuple) else (center,) * len(p)
            return sum((float(a) - float(b)) ** 2 for a, b in zip(p, c))
        return (float(p) - float(center)) ** 2

    return [
        lambda p: 1.0 / (1.0 + sq(p) ** 3),
        lambda p: np.exp(-sq(p) ** 3),
        lambda p: sq(p) ** 3 / (1.0 + sq(p) ** 3),
    ]


def _family_invariant_value(family: ClosedFormFamily, h, point) -> np.ndarray:
    """k(x) for k = (1/|W|) sum_w alpha_w(h), evaluated from closed forms."""
    g = family.group
    acc = np.zeros((family.fiber_dim, family.fiber_dim), dtype=complex)
    for w in g.elements():
        w_inv = g.inverse(w)
        pre = family.point_map(w_inv, point)
        acc += family.cocycle_at(w, pre) @ h(pre) @ family.cocycle_at(w_inv, point)
    return acc / g.order


def fell_limit_certificate(family: ClosedFormFamily, sequence, point, rho_label: str,
                           seed: int = 0, tol: float = 1e-6,
                           tail_length: int = 8) -> LimitCertificate:
    """Matrix-coefficient limit test for a candidate 1-dim stabilizer irrep.

    The candidate is the entry (point, rho) of the limit point's stabilizer.
    For symmetrized bump test elements k, the certificate checks that
    <xi0 | k(x_n) xi0> converges to the candidate representation's value,
    where xi0 spans the rho-isotypic line of I_{point}, the range of the
    projection read off rho's character (reps.character_table; no
    representation is split).  Accepts iff the last `tail_length` residuals
    fall below tol * scale.
    """
    check_tol(tol)
    g = family.group
    canon = family._canon(point)
    stab = [w for w in g.elements()
            if family._canon(family.point_map(w, canon)) == canon]
    sub = g.subgroup(stab)
    mats = np.stack([np.asarray(family.cocycle_at(sub.to_parent(v), canon), dtype=complex)
                     for v in range(sub.group.order)])
    labels, chars = character_table(sub.group, seed=seed)
    if rho_label not in labels:
        raise SpectrumError(f"no stabilizer irrep labeled {rho_label!r}")
    chi = chars[labels.index(rho_label)]
    dim = int(np.rint(chi[sub.group.identity].real))
    if dim != 1:
        raise SpectrumError(
            "limit certificates support one-dimensional stabilizer irreps only")
    # I(e_rho) = (dim rho / |W_x|) sum_w conj(chi_rho(w)) I_w.
    proj = np.tensordot(dim * chi.conj() / sub.group.order, mats, axes=1)
    rank = int(round(np.real(np.trace(proj))))
    if rank == 0:
        raise SpectrumError("candidate irrep does not occur in the limit cocycle")
    if rank != 1:
        raise SpectrumError(
            "limit certificates require multiplicity one for the candidate")
    evals, evecs = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    xi0 = evecs[:, -1]

    d = family.fiber_dim
    tests = []
    for prof in _default_profiles(canon):
        for i in range(d):
            for j in range(d):
                def h(p, prof=prof, i=i, j=j):
                    out = np.zeros((d, d), dtype=complex)
                    out[i, j] = prof(p)
                    return out
                tests.append(h)

    seq = tuple(float(x) for x in np.asarray(sequence, dtype=float))
    cand_values = []
    for h in tests:
        k0 = _family_invariant_value(family, h, canon)
        cand_values.append(complex(np.vdot(xi0, k0 @ xi0)))
    residuals = []
    scale = 1.0
    for x_n in seq:
        worst = 0.0
        for h, cand in zip(tests, cand_values):
            kx = _family_invariant_value(family, h, family._canon(x_n))
            val = complex(np.vdot(xi0, kx @ xi0))
            scale = max(scale, abs(val), abs(cand))
            worst = max(worst, abs(val - cand))
        residuals.append(worst)
    tail = residuals[-tail_length:]
    accepted = len(residuals) >= tail_length and all(r < tol * scale for r in tail)
    return LimitCertificate(family.name, seq, canon, rho_label,
                            tuple(cand_values), tuple(residuals), accepted,
                            tail_length)
