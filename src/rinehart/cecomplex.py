"""The Chevalley-Eilenberg-de Rham complex M (x) Lambda^* L^* and its
cohomology, plus the total complex of a bounded complex of representations.

Cochains are coordinatized by their values on increasing tuples of the A-basis
of L; evaluation on anything else goes through A-multilinear expansion.  The
differential is

    (d xi)(s_1..s_{p+1}) = sum_i (-1)^{i-1} rho(s_i)(xi(.. ^s_i ..))
                         + sum_{i<j} (-1)^{i+j} xi([s_i,s_j], .. ^s_i .. ^s_j ..)

with the bracket inserted in the first slot.  d^2 = 0 is asserted on
construction and fails only if invalid input slipped past validation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .algebroid import LieRinehartAlgebroid, Representation, bracket_actions
from .complexes import CochainComplex, total_cohomology_dims
from .errors import ConstructionInconsistent, NotEquivariant
from .linalg import Matrix, add_block


def koszul_terms(terms, T):
    """Terms of the Koszul / CE differential on the wedge s_T of a tuple of basis indices.

    terms[i, j] lists the (l, x) of the nonzero A-coefficients B_ij^l of
    [s_i, s_j] on s_l: the table `L.bracket_terms`, or one keyed alike that
    holds each coefficient's action on a module (`bracket_actions`).

    Yields (sign, pair, x, S).  For each slot pos: pair is None, x = T[pos] is the
    section whose anchor (or rho) acts, S is T without that slot and the sign is
    (-1)^pos.  For each pair p1 < p2 and each entry (l, x) of
    terms[T[p1], T[p2]]: pair = (p1, p2), S is the rest with l sorted in, and the
    sign is (-1)^(p1+p2) times the sign of that sort.  Terms whose wedge repeats
    l vanish and are skipped; sorting assumes the rest is increasing.
    """
    for pos, j in enumerate(T):
        yield (-1 if pos % 2 else 1), None, j, T[:pos] + T[pos + 1:]
    for p1 in range(len(T)):
        for p2 in range(p1 + 1, len(T)):
            nonzero = terms[T[p1], T[p2]]
            if not nonzero:
                continue
            rest = T[:p1] + T[p1 + 1:p2] + T[p2 + 1:]
            sgn = -1 if (p1 + p2) % 2 else 1
            for l, x in nonzero:
                if l in rest:
                    continue
                pos = bisect_left(rest, l)
                yield (-sgn if pos % 2 else sgn), (p1, p2), x, rest[:pos] + (l,) + rest[pos:]


@dataclass
class CEComplex:
    algebroid: LieRinehartAlgebroid
    representation: Representation
    complex: CochainComplex
    tuples: list    # tuples[p] = increasing p-tuples of basis indices, lex order


def ce_complex(L: LieRinehartAlgebroid, R: Representation) -> CEComplex:
    n = L.n
    N = R.module.dim
    f = L.field
    tuples = [list(combinations(range(n), p)) for p in range(n + 1)]
    dims = [N * comb(n, p) for p in range(n + 1)]
    blocks = bracket_actions(L, R)
    rho = [None if r.is_zero() else r for r in R.rho]   # zero blocks add nothing
    diffs = []
    for p in range(n):
        index_p = {t: i for i, t in enumerate(tuples[p])}
        rows = [{} for _ in range(dims[p + 1])]
        for ti, T in enumerate(tuples[p + 1]):
            for sgn, pair, x, S in koszul_terms(blocks, T):
                block = rho[x] if pair is None else x
                if block is not None:
                    add_block(rows, ti * N, index_p[S] * N, block, sgn)
        diffs.append(Matrix.from_dicts(f, dims[p], rows))
    try:
        cx = CochainComplex(f, dims, diffs)
    except ConstructionInconsistent as e:
        raise ConstructionInconsistent(f"CE differential is not a complex: {e}") from e
    return CEComplex(L, R, cx, tuples)


def ce_dims(L: LieRinehartAlgebroid, R: Representation) -> list[int]:
    return total_cohomology_dims(ce_complex(L, R).complex)


@dataclass
class RepComplex:
    """A bounded complex of representations with A-linear, L-equivariant maps."""
    representations: list
    maps: list   # maps[a]: M^a -> M^{a+1}

    def validate(self, L: LieRinehartAlgebroid):
        from .algebra import Violation
        out = []
        reps = self.representations
        if len(self.maps) != max(len(reps) - 1, 0):
            return [Violation("complex-shape", (len(self.maps), len(reps)))]
        for a, delta in enumerate(self.maps):
            src, dst = reps[a], reps[a + 1]
            if (delta.rows, delta.cols) != (dst.module.dim, src.module.dim):
                out.append(Violation("map-shape", (a,)))
                continue
            for b in range(L.m):
                if delta.mul(src.module.action[b]) != dst.module.action[b].mul(delta):
                    out.append(Violation("map-not-A-linear", (a, b)))
            for i in range(L.n):
                if delta.mul(src.rho[i]) != dst.rho[i].mul(delta):
                    out.append(Violation("map-not-equivariant", (a, i)))
        for a in range(len(self.maps) - 1):
            if not self.maps[a + 1].mul(self.maps[a]).is_zero():
                out.append(Violation("composite-nonzero", (a,)))
        return out


def total_complex(L: LieRinehartAlgebroid, C: RepComplex) -> CochainComplex:
    """Total complex of M^* (x) Lambda^* L^*, with (-1)^a on the vertical leg."""
    bad = C.validate(L)
    if bad:
        raise NotEquivariant("; ".join(v.describe() for v in bad))
    f = L.field
    n = L.n
    ces = [ce_complex(L, R) for R in C.representations]
    height = len(ces)
    top = height - 1 + n
    # block layout per total degree: (a, b = k - a) with a ascending
    offsets = []
    dims = []
    for k in range(top + 1):
        off = {}
        total = 0
        for a in range(height):
            b = k - a
            if 0 <= b <= n:
                off[a] = total
                total += ces[a].complex.dims[b]
        offsets.append(off)
        dims.append(total)
    diffs = []
    for k in range(top):
        rows = [{} for _ in range(dims[k + 1])]
        for a, src_off in offsets[k].items():
            b = k - a
            # vertical: (-1)^a d_rho into block (a, b+1)
            if b + 1 <= n and a in offsets[k + 1]:
                add_block(rows, offsets[k + 1][a], src_off, ces[a].complex.diff(b),
                          -1 if a % 2 else 1)
            # horizontal: delta (x) identity into block (a+1, b)
            if a + 1 < height and (a + 1) in offsets[k + 1]:
                dst_off = offsets[k + 1][a + 1]
                delta = C.maps[a]
                for t in range(len(ces[a].tuples[b])):
                    add_block(rows, dst_off + t * delta.rows, src_off + t * delta.cols, delta)
        diffs.append(Matrix.from_dicts(f, dims[k], rows))
    return CochainComplex(f, dims, diffs)
