"""Truncated universal enveloping algebra with PBW straightening, the
homological complex U (x) Lambda^* L resolving A, and the transfer of its
U-linear dual onto the CE complex.

The transfer is phi -> phi o partial on the actual partials of the resolution:
a U-linear phi is determined by its values on the generators 1 (x) s_J, and
(phi o partial)(1 (x) s_T) is read off the column of the generator, each
entry u (x) s_J acting on M through U.  The truncation at PBW degree d keeps
the generators of C_i only for i <= d, so the differential d_i is transferred
for i < d and Ext^i is certified against the CE complex for i < d.

PBW normal form: algebra coefficients leftmost, then sections in ascending
index, so the basis monomial e_a s_{i1} ... s_{ik} (i1 <= ... <= ik) is the
pair (a, (i1, ..., ik)) and its degree is k.  Products are rewritten with the
two defining relation families

    s f - f s = a(s)(f)          s_i s_j - s_j s_i = [s_i, s_j]

by innermost-leftmost reduction with memoized monomial products.  Each rewrite
strictly lowers (degree, inversion count), so rewriting terminates.  Products
whose normal form would exceed the cutoff are flagged as overflow, never
silently truncated.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb

from .algebroid import LieRinehartAlgebroid, Representation, anchor_representation
from .cecomplex import CEComplex, ce_complex, koszul_terms
from .complexes import total_cohomology_dims
from .errors import EngineError, ExactnessFailure, MismatchAt
from .linalg import Matrix, RowBasis, add_block, add_entry, combination, dict_to_sparse


class TruncatedEnveloping:
    """U(L) up to PBW degree d: basis {e_a s_alpha : len(alpha) <= d}, in
    ascending degree, then alpha in lex order, then a."""

    def __init__(self, L: LieRinehartAlgebroid, cutoff: int):
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.L = L
        self.field = L.field
        self.cutoff = cutoff
        self.alg = L.algebra
        m, n = L.m, L.n
        self.basis = [(a, alpha) for d in range(cutoff + 1)
                      for alpha in combinations_with_replacement(range(n), d) for a in range(m)]
        self.index = {mono: i for i, mono in enumerate(self.basis)}
        assert len(self.basis) == m * comb(n + cutoff, cutoff)
        self._memo_s = {}
        self._memo_alg = {}

    @property
    def dim(self):
        return len(self.basis)

    def degree(self, mono):
        return len(mono[1])

    # -- elements are dicts {monomial: coefficient} -------------------------

    def _add_into(self, acc, elem, scale=None):
        unscaled = scale is None or scale == self.field.one
        for mono, c in elem.items():
            v = c if unscaled else c * scale
            if mono in acc:
                acc[mono] = acc[mono] + v
            else:
                acc[mono] = v

    def _clean(self, acc):
        return {mono: c for mono, c in acc.items() if c}

    def unit(self):
        return self.coefficient(self.alg.sparse_unit)

    def section(self, i):
        """s_i as an element (the unit coefficient spread over the A-basis)."""
        return {(a, (i,)): c for a, c in self.alg.sparse_unit}

    def coefficient(self, f_coords):
        """The element of A with sparse coordinates f_coords."""
        return {(a, ()): c for a, c in f_coords}

    def rmul_alg_mono(self, mono, b):
        """Normal form of (e_a s_alpha) e_b; the degree never grows."""
        key = (mono, b)
        hit = self._memo_alg.get(key)
        if hit is not None:
            return hit
        a, alpha = mono
        if not alpha:
            out = {(k, alpha): c for k, c in self.alg.sparse_mult[a][b]}
        else:
            j = alpha[-1]
            prev = (a, alpha[:-1])
            head = self.rmul_alg_mono(prev, b)
            out_acc = {}
            t1, ov = self.rmul_s_elem(head, j)
            assert not ov
            self._add_into(out_acc, t1)
            for c_idx, cv in self.L.anchors[j].column(b):
                self._add_into(out_acc, self.rmul_alg_mono(prev, c_idx), cv)
            out = self._clean(out_acc)
        self._memo_alg[key] = out
        return out

    def rmul_s_mono(self, mono, j):
        """Normal form of (e_a s_alpha) s_j, with an overflow flag."""
        key = (mono, j)
        hit = self._memo_s.get(key)
        if hit is not None:
            return hit
        a, alpha = mono
        if not alpha or alpha[-1] <= j:
            if len(alpha) >= self.cutoff:
                out = ({}, True)
            else:
                out = ({(a, alpha + (j,)): self.field.one}, False)
        else:
            l = alpha[-1]
            prev = (a, alpha[:-1])
            swapped, ov1 = self.rmul_s_mono(prev, j)
            t1, ov2 = self.rmul_s_elem(swapped, l)
            acc = {}
            self._add_into(acc, t1)
            # bracket correction [s_l, s_j], degree drops by one
            for t_idx, fl in self.L.bracket_terms[l, j]:
                for c_idx, cv in fl:
                    lowered = self.rmul_alg_mono(prev, c_idx)
                    piece, ov3 = self.rmul_s_elem(lowered, t_idx)
                    assert not ov3
                    self._add_into(acc, piece, cv)
            out = (self._clean(acc), ov1 or ov2)
        self._memo_s[key] = out
        return out

    def rmul_s_elem(self, elem, j):
        acc = {}
        overflow = False
        for mono, c in elem.items():
            piece, ov = self.rmul_s_mono(mono, j)
            overflow = overflow or ov
            self._add_into(acc, piece, c)
        return self._clean(acc), overflow

    def mul_mono(self, m1, m2):
        """Product of two PBW basis monomials, straightened."""
        b, beta = m2
        out = self.rmul_alg_mono(m1, b)
        overflow = False
        for j in beta:
            out, ov = self.rmul_s_elem(out, j)
            overflow = overflow or ov
        return out, overflow

    def mul(self, u, v):
        acc = {}
        overflow = False
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                piece, ov = self.mul_mono(m1, m2)
                overflow = overflow or ov
                self._add_into(acc, piece, c1 * c2)
        return self._clean(acc), overflow

    # -- actions, augmentation ----------------------------------------------

    def action_on_module(self, mono, R: Representation) -> Matrix:
        a, alpha = mono
        out = R.module.action[a]
        for i in alpha:
            out = out.mul(R.rho[i])
        return out

    def element_action_on_module(self, elem, R: Representation) -> Matrix:
        N = R.module.dim
        return combination(self.field, N, N,
                           ((c, self.action_on_module(mono, R)) for mono, c in elem.items()))

    def augmentation_matrix(self) -> Matrix:
        """epsilon(u) = u . 1 as a map from U-coordinates to A-coordinates, with U
        acting on A through the anchor.  s_alpha . 1 = rho_i(s_alpha' . 1) for
        alpha = (i,) + alpha', one matrix-vector product from a vector of lower
        degree, and e_a s_alpha . 1 is e_a times it."""
        A = anchor_representation(self.L)
        lifted = {(): self.alg.sparse_unit}   # alpha -> s_alpha . 1
        cols = []
        for a, alpha in self.basis:
            if alpha not in lifted:
                lifted[alpha] = A.rho[alpha[0]].apply(lifted[alpha[1:]])
            cols.append(A.module.action[a].apply(lifted[alpha]))
        return Matrix.from_columns(self.field, self.alg.dim, cols)

    def to_vector(self, elem):
        """The element as a sparse vector on the PBW basis."""
        return dict_to_sparse({self.index[mono]: c for mono, c in elem.items()})

    def table(self):
        """Deterministic multiplication table by rows.  m_i m_j lies within the
        cutoff exactly for the basis prefix deg m_j <= cutoff - deg m_i, and
        row i lists those products as (sorted terms, overflow); every later
        product overflows and is not stored.  With beta = beta' + (j,),
        m_i (e_b s_beta) is m_i (e_b s_beta'), an earlier cell of the row,
        times s_j: the last straightening step of mul_mono."""
        degrees = [self.degree(mono) for mono in self.basis]
        # steps[k] = (index of the left factor, j), None at degree 0
        steps = [(self.index[(b, beta[:-1])], beta[-1]) if beta else None
                 for b, beta in self.basis]
        rows = []
        for m1, d1 in zip(self.basis, degrees):
            cells = []
            for (b, _), step in zip(self.basis[:bisect_right(degrees, self.cutoff - d1)], steps):
                if step is None:
                    cells.append((self.rmul_alg_mono(m1, b), False))
                else:
                    left, left_ov = cells[step[0]]
                    elem, ov = self.rmul_s_elem(left, step[1])
                    cells.append((elem, left_ov or ov))
            rows.append([(sorted((self.index[mono], c) for mono, c in elem.items()), ov)
                         for elem, ov in cells])
        return rows


@dataclass
class RinehartComplex:
    """C_i = U(L) (x)_A Lambda^i L with the Koszul-type differential, graded by
    total degree (PBW degree plus homological degree)."""
    U: TruncatedEnveloping
    bases: list      # bases[i] = [(monomial, tuple)] with deg + i <= cutoff
    levels: list     # levels[i][k] = deg + i of the generator bases[i][k]
    partials: list   # partials[i]: C_i -> C_{i-1} for i >= 1
    epsilon: Matrix  # on C_0 = U


def rinehart_complex(L: LieRinehartAlgebroid, cutoff: int):
    """Build the resolution and certify exactness on every total-degree level
    t <= cutoff; returns (complex, report) or raises ExactnessFailure."""
    U = TruncatedEnveloping(L, cutoff)
    f = L.field
    n = L.n
    degrees = [U.degree(mono) for mono in U.basis]
    bases, levels = [], []
    for i in range(n + 1):
        kept = [(mono, d + i) for mono, d in zip(U.basis, degrees) if d + i <= cutoff]
        tuples = list(combinations(range(n), i))
        bases.append([(mono, J) for J in tuples for mono, _ in kept])
        levels.append([level for _ in tuples for _, level in kept])
    index_maps = [{bj: t for t, bj in enumerate(b)} for b in bases]
    partials = [None]
    for i in range(1, n + 1):
        rows = [{} for _ in range(len(bases[i - 1]))]
        for col, (mono, J) in enumerate(bases[i]):
            # u (x) s_J -> sum +- u s_j (x) s_rest + sum +- u f (x) s_merged, f = [s, s']
            for sgn, pair, x, S in koszul_terms(L.bracket_terms, J):
                if pair is None:
                    image, overflow = U.rmul_s_mono(mono, x)
                else:
                    image, overflow = U.mul({mono: f.one}, U.coefficient(x))
                if overflow:
                    raise EngineError("differential escaped the certified levels")
                for m2, c in image.items():
                    add_entry(rows[index_maps[i - 1][(m2, S)]], col, c if sgn == 1 else -c)
        partials.append(Matrix.from_dicts(f, len(bases[i]), rows))
    eps = U.augmentation_matrix()
    cx = RinehartComplex(U, bases, levels, partials, eps)
    # complex identities
    for i in range(2, n + 1):
        if not partials[i - 1].mul(partials[i]).is_zero():
            raise ExactnessFailure("partial o partial != 0", witness=("dd", i))
    if n >= 1 and not eps.mul(partials[1]).is_zero():
        raise ExactnessFailure("epsilon o partial != 0 on C_1", witness=("eps", 1))
    report = check_exactness(cx)
    return cx, report


@dataclass
class ExactnessReport:
    cutoff: int
    homology: dict       # (t, i) -> dim H_i of the level-t slice (i >= 1)
    augmented: dict      # t -> (dim ker eps|_t, rank partial_1|_t, rank eps|_t)

    @property
    def ok(self):
        if any(v for v in self.homology.values()):
            return False
        return all(kd == r1 for kd, r1, _ in self.augmented.values())


def _level_ranks(m: Matrix, levels, top) -> list:
    """ranks[t] = rank of the columns of m at level <= t, for t = 0..top, read
    off one RowBasis that takes the columns in level order."""
    basis = RowBasis(m.field, m.rows)
    new = [0] * (top + 1)
    for c in sorted(range(m.cols), key=levels.__getitem__):
        new[levels[c]] += basis.add(m.column(c))
    return list(accumulate(new))


def check_exactness(cx: RinehartComplex) -> ExactnessReport:
    """Exactness of the augmented resolution on every level slice t <= cutoff
    (the generators of level <= t), in (t, then degree) order.

    A differential preserves the filtration when no entry sends a generator to
    one of a higher level; an entry that does escapes every slice from the
    level of its column on, so one scan of the nonzeros finds the first
    escaping slice.  Below it the slice of partial_i is its columns of level
    <= t, so the ranks on all slices come from one elimination per map.
    """
    U = cx.U
    n = U.L.n
    top = U.cutoff
    levels = cx.levels
    escape = min(((levels[i][c], i) for i in range(1, n + 1)
                  for r, row in enumerate(cx.partials[i].data) for c, _ in row
                  if levels[i - 1][r] > levels[i][c]), default=None)
    zero = [0] * (top + 1)
    ranks = [zero] + [_level_ranks(cx.partials[i], levels[i], top)
                      for i in range(1, n + 1)] + [zero]
    r_eps = _level_ranks(cx.epsilon, levels[0], top)
    homology = {}
    augmented = {}
    for t in range(top + 1):
        if escape is not None and escape[0] == t:
            raise ExactnessFailure("differential does not preserve the filtration",
                                   witness=("filtration", t, escape[1]))
        for i in range(1, n + 1):
            h = sum(lv <= t for lv in levels[i]) - ranks[i][t] - ranks[i + 1][t]
            homology[(t, i)] = h
            if h:
                raise ExactnessFailure(f"homology {h} at level t={t}, degree {i}",
                                       witness=(t, i))
        ker_eps = sum(lv <= t for lv in levels[0]) - r_eps[t]
        augmented[t] = (ker_eps, ranks[1][t], r_eps[t])
        if ker_eps != ranks[1][t]:
            raise ExactnessFailure(f"augmented complex not exact at C_0, level {t}",
                                   witness=(t, 0))
    return ExactnessReport(U.cutoff, homology, augmented)


@dataclass
class HomIsoCertificate:
    ce: CEComplex        # the CE complex the transfer was compared with
    degrees: list        # i with d_i transferred from the resolution
    transferred: list    # transferred[i] = d_i read off partials[i + 1]

    @property
    def ok(self):
        """Every CE differential was transferred and matched."""
        return len(self.transferred) == self.ce.algebroid.n


def hom_complex_iso(cx: RinehartComplex, R: Representation) -> HomIsoCertificate:
    """Transfer Hom_U(C_*, M) onto M (x) Lambda^* L^* along phi -> (phi(1 (x) s_J))_J
    and check each transferred differential equals d_rho entry by entry.

    (phi o partial)(1 (x) s_T) = sum c u . phi(1 (x) s_J) over the entries
    c (u (x) s_J) of partial(1 (x) s_T), so block (T, J) of the transferred d_i
    is the action of sum c u on M.  The generator 1 (x) s_T lies in the truncated
    resolution only when i + 1 <= cutoff; higher d_i are not transferred.
    """
    U = cx.U
    L = U.L
    N = R.module.dim
    f = L.field
    ce = ce_complex(L, R)
    one = U.unit()    # 1 = sum_a unit[a] e_a
    transferred = []
    for i in range(min(L.n, U.cutoff)):
        column = {b: k for k, b in enumerate(cx.bases[i + 1])}
        index_i = {J: k for k, J in enumerate(ce.tuples[i])}
        rows = [{} for _ in range(ce.complex.dims[i + 1])]
        for ti, T in enumerate(ce.tuples[i + 1]):
            # partial(1 (x) s_T), grouped by J
            image = {}
            for unit_mono, u in one.items():
                for r, x in cx.partials[i + 1].column(column[(unit_mono, T)]):
                    mono, J = cx.bases[i][r]
                    elem = image.setdefault(J, {})
                    elem[mono] = elem.get(mono, f.zero) + u * x
            for J, elem in image.items():
                add_block(rows, ti * N, index_i[J] * N, U.element_action_on_module(elem, R))
        got = Matrix.from_dicts(f, ce.complex.dims[i], rows)
        want = ce.complex.diff(i)
        if got != want:
            r = next(r for r, (g, w) in enumerate(zip(got.data, want.data)) if g != w)
            g, w = dict(got.data[r]), dict(want.data[r])
            raise MismatchAt(i, (r, min(c for c in g.keys() | w.keys() if g.get(c) != w.get(c))))
        transferred.append(got)
    return HomIsoCertificate(ce, list(range(len(transferred))), transferred)


def ext_dims(report: ExactnessReport, cert: HomIsoCertificate):
    """Ext^i over U(L) of (A, M) for i = 0..n, read from the CE complex that the
    transfer matched entry by entry.

    The resolution must be exact.  The differentials the truncated resolution
    cannot reach (d_i with i >= cutoff) are not transferred, so the resolution
    certifies Ext^i only for i < cutoff.
    """
    if not report.ok:
        raise ExactnessFailure("the resolution is not exact",
                               witness=[k for k, h in sorted(report.homology.items()) if h])
    return list(enumerate(total_cohomology_dims(cert.ce.complex)))
