"""Cochain complexes of finite-dimensional spaces and the spectral sequence
of a filtered complex.

A filtration gives each basis coordinate a level, F^p being spanned by the
coordinates of level >= p.  One column reduction of each d_s in filtration
order (Zomorodian-Carlsson, "Computing persistent homology") changes the basis
unitriangularly within the filtration into one where d pairs basis elements:
b_j -> b_i with level gap g = level(i) - level(j) >= 0, every other element
going to zero.  The filtered complex is then a direct sum of two-term interval
complexes and single elements, so the pages are read off the pairs
(Basu-Parida, "Spectral sequences, exact couples and persistence modules"):
E_r^{p,q} holds the elements of level p in degree p+q that are unpaired or
paired with gap >= r, and d_r is the matching of the gap-r pairs.  The limit
page holds the unpaired elements; it is the page at r = T+1 for the top level
T and is certified by convergence to H^n of the complex.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ConstructionInconsistent, DegreeOutOfRange, EngineError, IncompatibleFiltration
from .linalg import (Matrix, RowBasis, Subspace, _sub_scaled, complete_basis, dict_to_sparse,
                     echelon, rank)


@dataclass
class Cohomology:
    """H^i = Z / B in one degree: the coboundaries B = im d_{i-1} and the
    representatives, the kernel vectors of d_i that extend a basis of B to one
    of the cocycles Z."""
    coboundaries: Subspace
    reps: list

    @property
    def dim(self) -> int:
        return len(self.reps)

    @cached_property
    def _tagged(self) -> RowBasis:
        """B's basis, then each representative z_k tagged with a unit at n + k
        past the ambient dimension n, eliminated on first use.  Z maps onto the
        span's first n coordinates one to one, so every pivot lies below n."""
        B = self.coboundaries
        n, one = B.ambient_dim, B.field.one
        rows = RowBasis(B.field, n + self.dim)
        for v in B.basis:
            rows.add(v)
        for k, z in enumerate(self.reps):
            rows.add(z + ((n + k, one),))
        return rows

    def coordinates(self, v):
        """Coefficients of the class of v on the representatives, or None when
        v is not a cocycle, by one reduction: v = b + sum c_k z_k leaves
        -sum c_k e_{n+k}, and anything left below n puts v outside Z.  A
        coboundary has the coordinates ()."""
        n = self.coboundaries.ambient_dim
        w = self._tagged.reduce(v)
        if any(j < n for j in w):
            return None
        return tuple(sorted((j - n, -x) for j, x in w.items()))


class CochainComplex:
    """Spaces k^{dims[i]} for i = 0..N with differentials d_i: dims[i] -> dims[i+1]."""

    def __init__(self, field, dims, diffs, check=True):
        self.field = field
        self.dims = list(dims)
        self.diffs = list(diffs)
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one differential per consecutive pair of degrees")
        for i, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.dims[i + 1], self.dims[i]):
                raise ValueError(f"differential {i} has shape {(d.rows, d.cols)}, "
                                 f"expected {(self.dims[i + 1], self.dims[i])}")
        if check:
            for i in range(len(self.diffs) - 1):
                if not self.diffs[i + 1].mul(self.diffs[i]).is_zero():
                    raise ConstructionInconsistent(f"d_{i + 1} d_{i} != 0")
        self._echelons = {}
        self._cohomology = {}

    @property
    def top_degree(self):
        return len(self.dims) - 1

    def space_dim(self, i) -> int:
        if 0 <= i <= self.top_degree:
            return self.dims[i]
        return 0

    def diff(self, i) -> Matrix:
        """d_i, extended by zero maps outside the degree range."""
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return Matrix.zero(self.field, self.space_dim(i + 1), self.space_dim(i))

    def echelon(self, i) -> RowBasis:
        """The reduced row echelon basis of the rows of d_i, eliminated once
        per degree."""
        if i not in self._echelons:
            self._echelons[i] = echelon(self.diff(i))
        return self._echelons[i]

    def cohomology(self, i) -> Cohomology:
        """H^i, computed once per degree."""
        if i not in self._cohomology:
            self._cohomology[i] = cohomology_at(self, i)
        return self._cohomology[i]


def cohomology_at(c: CochainComplex, i: int) -> Cohomology:
    """H^i computed afresh; read it through c.cohomology(i), which keeps it."""
    if not (0 <= i <= c.top_degree):
        raise DegreeOutOfRange(f"degree {i} outside 0..{c.top_degree}")
    if i == 0:
        im = Subspace.zero(c.field, c.dims[0])
    else:
        d = c.diffs[i - 1]
        im = Subspace(c.field, c.dims[i], [d.column(j) for j in c.echelon(i - 1).pivots()])
    return Cohomology(im, complete_basis(im, c.echelon(i).kernel()))


def total_cohomology_dims(c: CochainComplex):
    return [c.cohomology(i).dim for i in range(c.top_degree + 1)]


class FilteredComplex:
    """A cochain complex with a decreasing filtration by coordinates.

    `levels[s][j] >= 0` is the level of coordinate j in degree s, and F^p is
    spanned by the coordinates of level >= p.  The filtration is compatible
    with d when every nonzero entry of each d_s goes from a coordinate of level
    l to one of level >= l.
    """

    def __init__(self, complex: CochainComplex, levels):
        self.complex = complex
        self.levels = [tuple(lv) for lv in levels]
        if len(self.levels) != complex.top_degree + 1:
            raise IncompatibleFiltration("one list of levels per degree is required")
        for s, lv in enumerate(self.levels):
            if len(lv) != complex.dims[s]:
                raise IncompatibleFiltration(f"{len(lv)} levels for the {complex.dims[s]} "
                                             f"coordinates of degree {s}")
            if any(level < 0 for level in lv):
                raise IncompatibleFiltration(f"negative level at degree {s}")
        for s, d in enumerate(complex.diffs):
            src, tgt = self.levels[s], self.levels[s + 1]
            for i, row in enumerate(d.data):
                for j, _ in row:
                    if tgt[i] < src[j]:
                        raise IncompatibleFiltration(
                            f"d(F^{src[j]}) not inside F^{src[j]} from degree {s}")
        self.top_level = max((level for lv in self.levels for level in lv), default=0)


def _reduce(d: Matrix, src, tgt):
    """The column reduction R = d V of d in filtration order.

    Columns go by level descending, then index; a column's pivot is its
    nonzero row of lowest level, then highest index, and it is cleared there by
    earlier columns only, so V is unitriangular.  Returns {pivot row: column}
    and the columns R_j and V_j as {index: value} rows.
    """
    one = d.field.one
    owner, R, V = {}, [None] * d.cols, [None] * d.cols
    for j in sorted(range(d.cols), key=lambda j: (-src[j], j)):
        r, v = dict(d.column(j)), {j: one}
        while r:
            i = max(r, key=lambda i: (-tgt[i], i))
            k = owner.get(i)
            if k is None:
                owner[i] = j
                break
            f = r[i] / R[k][i]
            _sub_scaled(r, f, R[k])
            _sub_scaled(v, f, V[k])
        R[j], V[j] = r, v
    return owner, R, V


@dataclass
class Pairing:
    """The persistence pairing of a filtered complex, per degree s.

    `basis[s][e]` is b_e, the vector whose latest entry is e: R_k when e is the
    pivot of column k of d_{s-1}, V_e otherwise.  In that basis d sends each
    source b_j to its partner b_{target[s][j]} and every other b_e to zero.
    `gap[s][e]` is the level gap of e's pair, None when e is unpaired.
    """
    levels: list
    basis: list
    target: list
    gap: list


def _pairing(fc: FilteredComplex) -> Pairing:
    """Reduce each d_s once and read the pairs off the reductions.  A pivot row
    of d_{s-1} is a coboundary, so by d o d = 0 its own column of d_s reduces
    to zero; a column that does not is an engine error."""
    cx = fc.complex
    lv = fc.levels + [()]
    basis, target, gap = [], [], []
    below = {}                       # pivot rows of d_{s-1} -> (column, R)
    for s in range(cx.top_degree + 1):
        owner, R, V = _reduce(cx.diff(s), lv[s], lv[s + 1])
        b, g = list(V), [None] * cx.dims[s]
        for e, (k, column) in below.items():
            if R[e]:
                raise EngineError(f"column {e} of d_{s} does not reduce to zero "
                                  f"though it is a pivot of d_{s - 1}")
            b[e], g[e] = column, lv[s][e] - lv[s - 1][k]
        up = {}
        for i, j in owner.items():
            up[j], g[j] = i, lv[s + 1][i] - lv[s][j]
        basis.append(b)
        target.append(up)
        gap.append(g)
        below = {i: (j, R[j]) for i, j in owner.items()}
    return Pairing(fc.levels, basis, target, gap)


@dataclass
class SpectralPage:
    r: int               # page number
    entries: dict        # (p, q) -> the surviving coordinates of degree p+q, in index order
    diffs: dict          # (p, q) -> Matrix on representatives
    pairing: Pairing

    def dim(self, p, q) -> int:
        return len(self.entries.get((p, q), ()))

    def dims(self) -> dict:
        return {pq: len(e) for pq, e in sorted(self.entries.items()) if e}

    def reps(self, p, q) -> list:
        """The representatives b_e at (p, q), vectors in C^{p+q}."""
        return [dict_to_sparse(self.pairing.basis[p + q][e]) for e in self.entries.get((p, q), ())]

    def coordinates(self, p, q, vector):
        """Coefficients on the representatives at (p, q) of a vector of F^p
        whose class lives on this page, by back-substitution on the b_e, latest
        entry first, down to the entries above level p."""
        s = p + q
        levels, basis = self.pairing.levels[s], self.pairing.basis[s]
        target, gap = self.pairing.target[s], self.pairing.gap[s]
        w, x = dict(vector), {}
        while w:
            e = max(w, key=lambda e: (-levels[e], e))
            if levels[e] > p:
                break
            if levels[e] < p or (e in target and gap[e] < self.r):
                raise EngineError("vector does not represent a class at this position")
            c = x[e] = w[e] / basis[e][e]
            _sub_scaled(w, c, basis[e])
        return tuple((k, x[e]) for k, e in enumerate(self.entries[(p, q)]) if e in x)


@dataclass
class PagesReport:
    stable_at: int
    bound: int
    convergence: dict    # n -> (sum of limit dims on the antidiagonal, dim H^n)

    @property
    def converged(self):
        return all(a == b for a, b in self.convergence.values())


def _page(fc: FilteredComplex, pr: Pairing, r: int) -> SpectralPage:
    """E_r: the coordinates unpaired or paired with gap >= r, each at its level,
    and d_r the matching of the gap-r pairs."""
    entries = {(p, s - p): [] for s in range(len(pr.levels)) for p in range(fc.top_level + 1)}
    for s, levels in enumerate(pr.levels):
        for e, level in enumerate(levels):
            if pr.gap[s][e] is None or pr.gap[s][e] >= r:
                entries[(level, s - level)].append(e)
    field = fc.complex.field
    diffs = {}
    for (p, q), coords in entries.items():
        s = p + q
        row = {c: k for k, c in enumerate(entries.get((p + r, q - r + 1), ()))}
        diffs[(p, q)] = Matrix.from_columns(field, len(row), [
            ((row[pr.target[s][c]], field.one),) if c in pr.target[s] and pr.gap[s][c] == r
            else () for c in coords])
    return SpectralPage(r, entries, diffs, pr)


def spectral_pages(fc: FilteredComplex, r_max: int = 1):
    """Pages E_1..E_{r_max}, the limit page, and a convergence report, all read
    off one persistence pairing.

    The limit page E_infinity holds the unpaired coordinates; it is the page at
    the bound T+1 for the top level T, and its antidiagonal totals must equal
    the dims of H^n of the unfiltered complex.  Every page past the bound is
    E_infinity again, with every differential leaving the filtration range.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    cx = fc.complex
    pr = _pairing(fc)
    bound = fc.top_level + 1
    pages = [_page(fc, pr, r) for r in range(1, bound + 1)]
    einf = pages[-1]
    stable_at = 1 + max((pr.gap[s][j] for s, up in enumerate(pr.target) for j in up), default=0)
    convergence = {}
    for n in range(cx.top_degree + 1):
        total = sum(einf.dim(p, n - p) for p in range(bound))
        convergence[n] = (total, cx.cohomology(n).dim)
    report = PagesReport(stable_at, bound, convergence)
    if not report.converged:
        raise EngineError(f"limit page does not converge to total cohomology: {convergence}")
    pages += [replace(einf, r=r) for r in range(bound + 1, r_max + 1)]
    return pages[:r_max], einf, report


@dataclass
class EdgeMaps:
    """The five-term sequence 0 -> E2^{1,0} -> H^1 -> E2^{0,1} -> E2^{2,0} -> H^2."""
    inflation1: Matrix    # E2^{1,0} -> H^1
    restriction: Matrix   # H^1 -> E2^{0,1}
    transgression: Matrix  # d_2: E2^{0,1} -> E2^{2,0}
    inflation2: Matrix    # E2^{2,0} -> H^2
    node_dims: tuple
    exact: tuple          # exactness at (E2^{1,0}, H^1, E2^{0,1}, E2^{2,0})

    @property
    def all_exact(self):
        return all(self.exact)


def edge_maps(fc: FilteredComplex, e2: SpectralPage) -> EdgeMaps:
    """Explicit matrices of the five-term sequence, plus exactness certificates,
    from the E_2 page e2 of fc.

    Requires the filtration to vanish above the cohomological degree (true for
    every first-quadrant situation, in particular the extension filtration),
    so that low-degree page representatives are honest cocycles.
    """
    cx = fc.complex
    h1, h2 = (cx.cohomology(i) if i <= cx.top_degree
              else Cohomology(Subspace.zero(cx.field, 0), []) for i in (1, 2))

    e10, e20, e01_dim = e2.reps(1, 0), e2.reps(2, 0), e2.dim(0, 1)
    d1 = cx.diff(1)
    d2m = cx.diff(2)
    for z in e10:
        if d1.apply(z):
            raise EngineError("E2^{1,0} representative is not a cocycle; filtration is not first-quadrant")
    for w in e20:
        if d2m.apply(w):
            raise EngineError("E2^{2,0} representative is not a cocycle; filtration is not first-quadrant")

    # every cocycle has class coordinates: B and the representatives span Z
    inflation1 = Matrix.from_columns(cx.field, h1.dim, [h1.coordinates(z) for z in e10])
    restriction = Matrix.from_columns(cx.field, e01_dim, [e2.coordinates(0, 1, z) for z in h1.reps])
    transgression = e2.diffs.get((0, 1), Matrix.zero(cx.field, len(e20), e01_dim))
    inflation2 = Matrix.from_columns(cx.field, h2.dim, [h2.coordinates(w) for w in e20])

    for later, earlier, where in ((restriction, inflation1, "restriction o inflation"),
                                  (transgression, restriction, "transgression o restriction"),
                                  (inflation2, transgression, "inflation o transgression")):
        if not later.mul(earlier).is_zero():
            raise EngineError(f"five-term composition {where} is nonzero")

    # each composition is zero, so image = kernel at a node X iff the ranks of
    # the maps into and out of X add up to dim X
    r1, rr, rt, r2 = map(rank, (inflation1, restriction, transgression, inflation2))
    exact = (r1 == len(e10), r1 + rr == h1.dim, rr + rt == e01_dim, rt + r2 == len(e20))
    node_dims = (len(e10), h1.dim, e01_dim, len(e20), h2.dim)
    return EdgeMaps(inflation1, restriction, transgression, inflation2, node_dims, exact)
