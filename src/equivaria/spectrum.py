"""Classify the irreducible representations of a fixed-point algebra.

For a system (X, W, H, I) the irreducibles of C(X, M_d)^W are labeled by
pairs (orbit Wx, irrep rho of the stabilizer W_x occurring in I_x); the
representation space is HS(rho, I_x)^{W_x} and the action is
pi_{x,rho}(k): s -> k(x) s.  The dimension of that space is the
multiplicity of rho in I_x, read off the stabilizer's character table,
which comes from the center of C[W_x] (reps.character_table); the orbits
that share a stabilizer (EquivariantSystem.orbits) share its table.  No
representation of W_x is split and no equivariant map is solved: an entry
keeps rho's character, and the traces of pi_{x,rho} are read off it.
The module cross-checks the classification against the Wedderburn block
structure, label by label, and produces limit certificates for
closed-form cocycle families (the finite stand-in for Fell-topology limit
points, detected through matrix-coefficient convergence).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import Subgroup
from .linalg import DEFAULT_TOL, check_tol
from .matalg import BlockStructure, block_decompose
from .reps import character_table
from .systems import (
    ClosedFormFamily,
    EquivariantSystem,
    FixedPointAlgebra,
    fixed_point_algebra,
)


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumEntry:
    """One irreducible: orbit representative, stabilizer irrep, dimension.

    `dim` is the multiplicity, in the representation w -> I_{w,x} of the
    stabilizer at `point`, of the irrep labeled `rho_label`, whose
    character on the (reindexed) stabilizer is `character`, read-only.
    """

    orbit: tuple[int, ...]
    point: int                 # canonical representative: lowest index
    stabilizer: Subgroup
    rho_label: str             # label of rho among the stabilizer's irreps
    dim: int                   # dim HS(rho, I_x)^{W_x}
    character: np.ndarray = field(repr=False, compare=False)

    @property
    def label(self) -> str:
        return f"x{self.point}:{self.rho_label}"


@dataclass(frozen=True)
class SpectrumDescription:
    system: EquivariantSystem
    entries: tuple[SpectrumEntry, ...]
    integrality_distance: float   # largest distance of a multiplicity from its integer

    def dims(self) -> list[int]:
        return sorted(e.dim for e in self.entries)


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
            tables[key][1].setflags(write=False)
        labels, chars = tables[key]
        traces = np.trace(sys.cocycle[np.ix_(sub.embedding, xs)], axis1=-2, axis2=-1)
        mults = (chars.conj() @ traces).real / len(stab)               # [rho, x]
        counts = np.rint(mults)
        worst = max(worst, float(np.abs(mults - counts).max()))
        at = np.searchsorted(representatives, xs).tolist()             # x's orbit
        for x, o, column in zip(xs.tolist(), at, counts.T.astype(int).tolist()):
            entries += [SpectrumEntry(orbits.members[o], x, sub, label, n, chi)
                        for label, chi, n in zip(labels, chars, column) if n > 0]
    if worst >= _INTEGRALITY_LIMIT:
        raise SpectrumError(f"a stabilizer multiplicity lies {worst:.3g} from an integer: "
                            "the cocycle is not a representation")
    return SpectrumDescription(sys, tuple(sorted(entries, key=lambda e: e.point)), worst)


@dataclass(frozen=True)
class WedderburnVerdict:
    ok: bool
    spectrum_dims: tuple[int, ...]
    block_sizes: tuple[int, ...]
    algebra_dim: int
    sum_of_squares: int
    spectrum: SpectrumDescription   # the classification the check compared
    labels_paired: bool             # rounded P pairs entries and blocks of one size
    label_distance: float           # largest distance of an entry of P from its integer

    @property
    def integrality_distance(self) -> float:
        return self.spectrum.integrality_distance

    def diff(self) -> str:
        text = (f"spectrum dims {list(self.spectrum_dims)} vs "
                f"block sizes {list(self.block_sizes)}; "
                f"sum of squares {self.sum_of_squares} vs dim {self.algebra_dim}")
        if not self.labels_paired or self.label_distance >= _INTEGRALITY_LIMIT:
            text += f"; entries and blocks unpaired at distance {self.label_distance:.3g}"
        return text


def _label_pairing(desc: SpectrumDescription, fpa: FixedPointAlgebra,
                   structure: BlockStructure) -> tuple[bool, float]:
    """Pair the entries with the blocks p_i by their traces.

    k(x) commutes with I_x(W_x), so tr pi_{x,rho}(k) = tr(k(x) I_x(e_rho)) /
    dim rho with e_rho = (dim rho / |W_x|) sum_s conj chi_rho(s) s (Serre,
    2.6), and P[(x, rho), i] = sum_s conj chi_rho(s) tr(p_i(x) I_{s,x}) /
    (|W_x| dim(x, rho)) is 1 when p_i acts as the identity on pi_{x,rho}
    and 0 when it acts as zero.  p_i lives on one orbit, so P is formed at
    the pairs of one least point x only, with p_i(x) read off the algebra's
    values there, part @ values[index] / sqrt|O|.  The weights
    conj chi_rho(s) / |W_x| are set one stabilizer at a time and vanish off
    W_x, so each p_i(x) is traced against every I_{w,x} in one batch.
    Returns whether rounded P is a permutation that pairs each entry with a
    block of its own size, and P's largest distance from its rounding.
    """
    sys, entries, blocks = desc.system, desc.entries, structure.blocks
    index = np.concatenate([b.index for b in blocks])
    starts = np.cumsum([0] + [len(b.index) for b in blocks[:-1]])
    bp = fpa.least[index[starts]]                                     # p_i's point
    proj = np.add.reduceat(np.concatenate([b.part for b in blocks])[:, None, None]
                           * fpa.values[index], starts)
    proj /= np.sqrt(np.bincount(sys.orbits.least)[bp])[:, None, None]   # p_i(x)
    traces = (sys.cocycle[:, bp].swapaxes(-2, -1) * proj).sum(axis=(-2, -1)).T   # [i, w]
    ep = np.array([e.point for e in entries], dtype=np.intp)
    dims = np.array([e.dim for e in entries], dtype=np.intp)
    batches: dict[tuple[int, ...], list[int]] = {}
    for j, e in enumerate(entries):
        batches.setdefault(e.stabilizer.embedding, []).append(j)
    weights = np.zeros((len(entries), sys.group.order), dtype=complex)   # [e, w]
    for stab, batch in batches.items():
        chars = np.array([entries[j].character for j in batch])
        weights[np.ix_(batch, stab)] = chars.conj() / len(stab)
    # The pairs (entry, block) of one point: each entry against its point's run of blocks.
    order = np.argsort(bp, kind="stable")
    lo, hi = np.searchsorted(bp[order], ep), np.searchsorted(bp[order], ep, "right")
    count = hi - lo
    e_of = np.repeat(np.arange(len(entries)), count)
    b_of = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
    p = (weights[e_of] * traces[b_of]).sum(axis=-1) / dims[e_of]
    rounded = np.rint(p.real)
    one = rounded == 1
    paired = bool((one | (rounded == 0)).all()
                  and (np.bincount(e_of[one], minlength=len(entries)) == 1).all()
                  and (np.bincount(b_of[one], minlength=len(blocks)) == 1).all()
                  and (dims[e_of[one]] == np.array([b.size for b in blocks])[b_of[one]]).all())
    return paired, float(np.abs(p - rounded).max(initial=0.0))


def wedderburn_crosscheck(sys: EquivariantSystem, seed: int = 0,
                          tol: float = DEFAULT_TOL) -> WedderburnVerdict:
    """The classification must reproduce the block structure exactly: the
    sorted dims must be the sorted block sizes, and the labels must pair
    with the blocks (_label_pairing) within the multiplicities' limit of
    1/4.  The verdict carries the classification it compared."""
    check_tol(tol)
    desc = classify_irreps(sys, seed=seed, tol=tol)
    fpa = fixed_point_algebra(sys, tol)
    blocks = block_decompose(fpa, seed=seed, tol=tol)
    dims = tuple(desc.dims())
    sizes = tuple(blocks.sizes())
    total = sum(d * d for d in dims)
    paired, distance = _label_pairing(desc, fpa, blocks)
    ok = dims == sizes and total == fpa.dim and paired and distance < _INTEGRALITY_LIMIT
    return WedderburnVerdict(ok, dims, sizes, fpa.dim, total, desc, paired, distance)


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


def _coefficients(family: ClosedFormFamily, profiles, xi0: np.ndarray, point) -> np.ndarray:
    """<xi0 | k(x) xi0> at x = point for each test element k = (1/|W|)
    sum_w alpha_w(prof E_ij), in the order (profile, i, j), evaluated from
    closed forms: alpha_w(h)(x) = I_{w,w^-1 x} h(w^-1 x) I_{w^-1,x}."""
    g, acc = family.group, 0.0
    for w in g.elements():
        w_inv = g.inverse(w)
        pre = family.point_map(w_inv, point)
        left = xi0.conj() @ family.cocycle_at(w, pre)
        right = family.cocycle_at(w_inv, point) @ xi0
        acc = acc + np.multiply.outer([prof(pre) for prof in profiles], np.outer(left, right))
    return np.ravel(acc) / g.order


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

    profiles = _default_profiles(canon)
    seq = tuple(float(x) for x in np.asarray(sequence, dtype=float))
    cand_values = _coefficients(family, profiles, xi0, canon)
    values = [_coefficients(family, profiles, xi0, family._canon(x_n)) for x_n in seq]
    residuals = [float(np.abs(v - cand_values).max()) for v in values]
    scale = max(float(np.abs([cand_values, *values]).max()), 1.0)
    tail = residuals[-tail_length:]
    accepted = len(residuals) >= tail_length and all(r < tol * scale for r in tail)
    return LimitCertificate(family.name, seq, canon, rho_label,
                            tuple(cand_values.tolist()), tuple(residuals), accepted,
                            tail_length)
