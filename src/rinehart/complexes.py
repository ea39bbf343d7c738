"""Cochain complexes of finite-dimensional spaces and the spectral sequence
of a filtered complex.

Pages are computed from the subquotient formula

    E_r^{p,q} = (F^p n d^{-1} F^{p+r} + F^{p+1}) / (F^{p+1} + d(F^{p-r+1}) n F^p)

in total degree p+q, with filtration indices clamped (F^p is the whole space
for p < 0 and zero beyond the declared chain).  For a filtration of length T
every differential d_r with r > T vanishes, and under the clamping the page at
r = T+1 has Z_r = F^p n ker d and B_r = im d n F^p: it is the limit page, read
where the bound fixes it and certified by convergence to H^n of the complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield, replace
from functools import cached_property

from .errors import ConstructionInconsistent, DegreeOutOfRange, EngineError, IncompatibleFiltration
from .linalg import (Matrix, Subspace, class_coordinates, complete_basis,
                     image_subspace, kernel_subspace, kernel_vectors, rank)


@dataclass
class Cohomology:
    """H^i = Z / B in one degree: the kernel vectors of d_i (a basis of the
    cocycles Z), the coboundaries B = im d_{i-1}, and the representatives, the
    kernel vectors that extend a basis of B to one of Z."""
    kernel: list
    coboundaries: Subspace
    reps: list

    @property
    def dim(self) -> int:
        return len(self.reps)

    @cached_property
    def cocycles(self) -> Subspace:
        """Z as a subspace, eliminated only when membership is asked for."""
        B = self.coboundaries
        return Subspace(B.field, B.ambient_dim, self.kernel)


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

    def cohomology(self, i) -> Cohomology:
        """H^i, computed once per degree."""
        if i not in self._cohomology:
            self._cohomology[i] = cohomology_at(self, i)
        return self._cohomology[i]


def cohomology_at(c: CochainComplex, i: int) -> Cohomology:
    """H^i computed afresh; read it through c.cohomology(i), which keeps it."""
    if not (0 <= i <= c.top_degree):
        raise DegreeOutOfRange(f"degree {i} outside 0..{c.top_degree}")
    ker = kernel_vectors(c.diff(i))
    im = image_subspace(c.diff(i - 1)) if i > 0 else Subspace.zero(c.field, c.dims[i])
    return Cohomology(ker, im, complete_basis(im, ker))


def total_cohomology_dims(c: CochainComplex):
    return [c.cohomology(i).dim for i in range(c.top_degree + 1)]


class FilteredComplex:
    """A cochain complex with a decreasing filtration compatible with d.

    `filtration[i]` is the chain [F^0, F^1, ...] at degree i; F^0 must be the
    whole space and d(F^p) must land in F^p one degree up.  The images d(F^p)
    built for that check and the preimages d^{-1}(F^p) are kept per degree and
    clamped level 0..T+1, where T is the longest chain's last index.
    """

    def __init__(self, complex: CochainComplex, filtration):
        self.complex = complex
        self.filtration = [list(chain) for chain in filtration]
        if len(self.filtration) != complex.top_degree + 1:
            raise IncompatibleFiltration("one filtration chain per degree is required")
        for i, chain in enumerate(self.filtration):
            if not chain or not chain[0].is_full() or chain[0].ambient_dim != complex.dims[i]:
                raise IncompatibleFiltration(f"F^0 at degree {i} must be the whole space")
            for p in range(len(chain) - 1):
                if not chain[p].contains_space(chain[p + 1]):
                    raise IncompatibleFiltration(f"chain not decreasing at degree {i}, index {p}")
        self.top_index = max(len(chain) - 1 for chain in self.filtration)
        self._images = {}
        self._preimages = {}
        for i in range(complex.top_degree + 1):
            d = complex.diff(i)
            for p in range(self.top_index + 2):
                img = self._images[(i, p)] = self.space(i, p).image(d)
                if not self.space(i + 1, p).contains_space(img):
                    raise IncompatibleFiltration(
                        f"d(F^{p}) not inside F^{p} from degree {i}")

    def space(self, i, p) -> Subspace:
        """F^p at degree i, clamped outside the declared ranges."""
        dim_i = self.complex.space_dim(i)
        if dim_i == 0:
            return Subspace.zero(self.complex.field, 0)
        if p <= 0:
            return self.filtration[i][0]
        chain = self.filtration[i]
        if p < len(chain):
            return chain[p]
        return Subspace.zero(self.complex.field, dim_i)

    def _level(self, p) -> int:
        return min(max(p, 0), self.top_index + 1)

    def image(self, i, p) -> Subspace:
        """d_i(F^p) in degree i+1."""
        return self._images[(i, self._level(p))]

    def preimage(self, i, p) -> Subspace:
        """d_i^{-1}(F^p), the preimage in degree i of F^p one degree up."""
        key = (i, self._level(p))
        if key not in self._preimages:
            self._preimages[key] = self.space(i + 1, p).preimage(self.complex.diff(i))
        return self._preimages[key]


@dataclass
class PageEntry:
    dim: int
    reps: list           # representatives, vectors in C^{p+q}
    _den: Subspace       # denominator subspace, for coordinate extraction


@dataclass
class SpectralPage:
    r: int               # page number
    field: object
    entries: dict        # (p, q) -> PageEntry
    diffs: dict = dfield(default_factory=dict)   # (p, q) -> Matrix on representatives

    def dim(self, p, q) -> int:
        e = self.entries.get((p, q))
        return e.dim if e else 0

    def dims(self) -> dict:
        return {pq: e.dim for pq, e in sorted(self.entries.items()) if e.dim}

    def coordinates(self, p, q, vector):
        """Coefficients of a cycle in the representative basis at (p, q), mod the denominator."""
        e = self.entries[(p, q)]
        x = class_coordinates(self.field, e.reps, e._den, vector)
        if x is None:
            raise EngineError("vector does not represent a class at this position")
        return x


@dataclass
class PagesReport:
    stable_at: int
    bound: int
    convergence: dict    # n -> (sum of limit dims on the antidiagonal, dim H^n)

    @property
    def converged(self):
        return all(a == b for a, b in self.convergence.values())


def _page(fc: FilteredComplex, r: int):
    """The page E_r of the spectral sequence."""
    cx = fc.complex
    entries = {}
    for s in range(cx.top_degree + 1):
        for p in range(fc.top_index + 1):
            q = s - p
            Fp = fc.space(s, p)
            zr = Fp.intersect(fc.preimage(s, p + r))
            b = fc.image(s - 1, p - r + 1).intersect(Fp) if s > 0 \
                else Subspace.zero(cx.field, cx.dims[s])
            den = fc.space(s, p + 1).add(b)
            zd = zr.intersect(den)
            reps = complete_basis(zd, zr.basis)
            num = zr.add(fc.space(s, p + 1))
            if len(reps) != num.dim - den.dim:
                raise EngineError(f"page {r} at {(p, q)}: {len(reps)} representatives "
                                  f"for a subquotient of dim {num.dim - den.dim}")
            entries[(p, q)] = PageEntry(len(reps), reps, den)
    return SpectralPage(r, cx.field, entries)


def _page_differentials(fc: FilteredComplex, page: SpectralPage, r: int):
    cx = fc.complex
    for (p, q), e in page.entries.items():
        s = p + q
        tgt = page.entries.get((p + r, q - r + 1))
        tdim = tgt.dim if tgt else 0
        if e.dim == 0 or tdim == 0:
            page.diffs[(p, q)] = Matrix.zero(cx.field, tdim, e.dim)
            continue
        d = cx.diff(s)
        page.diffs[(p, q)] = Matrix.from_columns(
            cx.field, tdim, [page.coordinates(p + r, q - r + 1, d.apply(z)) for z in e.reps])


def spectral_pages(fc: FilteredComplex, r_max: int = 1):
    """Pages E_1..E_{r_max}, the limit page, and a convergence report.

    The limit page is the page at the filtration-length bound T+1, past which
    no differential can be nonzero; its antidiagonal totals must equal the
    dims of H^n of the unfiltered complex.  Pages are built up to the bound
    only: under the clamping every later page has the same Z_r and B_r, so it
    is E_{T+1} again, with every differential leaving the filtration range.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    cx = fc.complex
    bound = fc.top_index + 1
    pages = [_page(fc, r) for r in range(1, bound + 1)]
    for r, page in enumerate(pages, start=1):
        _page_differentials(fc, page, r)
    einf = pages[-1]
    # d_r o d_r = 0 and the subquotient identity for the next page
    for r, page in enumerate(pages, start=1):
        for (p, q), m in page.diffs.items():
            nxt = page.diffs.get((p + r, q - r + 1))
            if nxt is not None and m.cols and nxt.rows:
                if not nxt.mul(m).is_zero():
                    raise EngineError(f"d_{r} o d_{r} != 0 at {(p, q)}")
        if r < bound:
            ranks = {pq: rank(m) for pq, m in page.diffs.items()}
            for (p, q), e in page.entries.items():
                in_rank = ranks.get((p - r, q + r - 1), 0)
                if pages[r].dim(p, q) != e.dim - ranks[(p, q)] - in_rank:
                    raise EngineError(f"subquotient identity fails at page {r}, {(p, q)}")
    stable_at = bound
    for r in range(bound - 1, 0, -1):
        if pages[r - 1].dims() == einf.dims():
            stable_at = r
        else:
            break
    convergence = {}
    for n in range(cx.top_degree + 1):
        total = sum(einf.dim(p, n - p) for p in range(fc.top_index + 1))
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


def _class_coordinates(field, h: Cohomology, vector):
    x = class_coordinates(field, h.reps, h.coboundaries, vector)
    if x is None:
        raise EngineError("vector is not a cocycle of the expected class group")
    return x


def edge_maps(fc: FilteredComplex, e2: SpectralPage) -> EdgeMaps:
    """Explicit matrices of the five-term sequence, plus exactness certificates,
    from the E_2 page e2 of fc.

    Requires the filtration to vanish above the cohomological degree (true for
    every first-quadrant situation, in particular the extension filtration),
    so that low-degree page representatives are honest cocycles.
    """
    cx = fc.complex
    h1, h2 = (cx.cohomology(i) if i <= cx.top_degree
              else Cohomology([], Subspace.zero(cx.field, 0), []) for i in (1, 2))

    def entry(p, q):
        return e2.entries.get((p, q), PageEntry(0, [], Subspace.zero(cx.field, cx.space_dim(p + q))))

    e10, e01, e20 = entry(1, 0), entry(0, 1), entry(2, 0)
    d1 = cx.diff(1)
    d2m = cx.diff(2)
    for z in e10.reps:
        if d1.apply(z):
            raise EngineError("E2^{1,0} representative is not a cocycle; filtration is not first-quadrant")
    for w in e20.reps:
        if d2m.apply(w):
            raise EngineError("E2^{2,0} representative is not a cocycle; filtration is not first-quadrant")

    inflation1 = Matrix.from_columns(cx.field, h1.dim,
                                     [_class_coordinates(cx.field, h1, z) for z in e10.reps])
    restriction = Matrix.from_columns(cx.field, e01.dim, [e2.coordinates(0, 1, z) for z in h1.reps])
    transgression = e2.diffs.get((0, 1), Matrix.zero(cx.field, e20.dim, e01.dim))
    inflation2 = Matrix.from_columns(cx.field, h2.dim,
                                     [_class_coordinates(cx.field, h2, w) for w in e20.reps])

    for later, earlier, where in ((restriction, inflation1, "restriction o inflation"),
                                  (transgression, restriction, "transgression o restriction"),
                                  (inflation2, transgression, "inflation o transgression")):
        if later.cols == earlier.rows and earlier.cols and later.rows:
            if not later.mul(earlier).is_zero():
                raise EngineError(f"five-term composition {where} is nonzero")

    exact = (
        kernel_subspace(inflation1).dim == 0,
        image_subspace(inflation1).equals(kernel_subspace(restriction)),
        image_subspace(restriction).equals(kernel_subspace(transgression)),
        image_subspace(transgression).equals(kernel_subspace(inflation2)),
    )
    node_dims = (e10.dim, h1.dim, e01.dim, e20.dim, h2.dim)
    return EdgeMaps(inflation1, restriction, transgression, inflation2, node_dims, exact)
