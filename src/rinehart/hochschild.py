"""The spectral sequence of an extension of algebroids: filtration of the CE
complex, pages, page identifications, convergence, and the five-term sequence.

In the basis adapted to the splitting (kernel sections first), a coordinate
q-form lies in filtration level p exactly when every tuple carrying a nonzero
coordinate contains at least p quotient-block indices; this is the coordinate
form of "annihilated by the wedge of q-p+1 kernel sections" for free modules.
So the filtration is a level per coordinate: the level of the coordinate
(T, mu) is the number of quotient-block indices in T.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebroid import Representation
from .cecomplex import ce_complex, ce_dims
from .complexes import (EdgeMaps, FilteredComplex, SpectralPage, edge_maps,
                        spectral_pages, total_cohomology_dims)
from .errors import (DimMismatch, ExactnessFailure, FiltrationNotPreserved,
                     IncompatibleFiltration)
from .extensions import AdaptedExtension, ExtensionTriple, adapt, induced_q_rep_adapted


@dataclass
class HSFiltration:
    adapted: AdaptedExtension
    ce: object                    # CEComplex of the adapted algebroid
    filtered: FilteredComplex
    graded: dict                  # (p, degree) -> (dim gr_p, expected dim)

    @property
    def graded_ok(self) -> bool:
        return all(a == b for a, b in self.graded.values())


def hs_filtration(E: ExtensionTriple, R: Representation) -> HSFiltration:
    ad = adapt(E, R)
    ce = ce_complex(ad.L_ad, ad.R_ad)
    N = R.module.dim
    c, r = ad.c, ad.r
    levels = [[sum(t >= c for t in T) for T in tuples for _ in range(N)] for tuples in ce.tuples]
    try:
        filtered = FilteredComplex(ce.complex, levels)
    except IncompatibleFiltration as e:
        raise FiltrationNotPreserved(str(e)) from e
    graded = {}
    for s, lv in enumerate(levels):
        for p in range(r + 1):
            got = lv.count(p)
            expected = N * comb(r, p) * comb(c, s - p) if 0 <= s - p <= c else 0
            graded[(p, s)] = (got, expected)
            if got != expected:
                raise DimMismatch(("gr", p, s), got, expected)
    return HSFiltration(ad, ce, filtered, graded)


@dataclass
class HSPages:
    filtration: HSFiltration
    pages: list                   # [E_1, ..., E_{r_max}]
    e2: SpectralPage              # always computed: check_e2 and the edge maps read it
    einf: SpectralPage
    stable_at: int
    convergence: dict             # n -> (sum of E_inf dims, dim H^n(L; M))

    @property
    def converged(self) -> bool:
        return all(a == b for a, b in self.convergence.values())

    def page(self, r: int) -> SpectralPage:
        return self.pages[r - 1]


def hs_pages(E: ExtensionTriple, R: Representation, r_max: int | None = None) -> HSPages:
    """Pages E_1..E_{r_max} (default: through the stabilization bound r + 1
    for the quotient rank r, even when no coordinate reaches level r, as for
    M = 0); E_2 is computed whatever r_max is."""
    hf = hs_filtration(E, R)
    if r_max is None:
        r_max = hf.adapted.r + 1
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    pages, einf, report = spectral_pages(hf.filtered, max(r_max, 2))
    # sanity: the adapted complex computes the same dims as the original basis
    original = ce_dims(E.L, R)
    adapted = [hn for _, (_, hn) in sorted(report.convergence.items())]
    if original != adapted:
        raise DimMismatch("adapted-vs-original CE dims", adapted, original)
    return HSPages(hf, pages[:r_max], pages[1], einf, report.stable_at, report.convergence)


@dataclass
class PageCertificate:
    table: dict      # (p, q) -> (page dim, independently computed dim)

    @property
    def ok(self) -> bool:
        return all(a == b for a, b in self.table.values())


def check_e1(hp: HSPages) -> PageCertificate:
    """E_1^{p,q} against H^q(K; M (x) Lambda^p Q^*) computed independently.

    K has zero anchor and is an ideal, so it acts on Lambda^p Q^* trivially and
    M (x) Lambda^p Q^* is C(r, p) copies of M as a K-module: its cohomology is
    C(r, p) dim H^q(K; M), read off the CE complex of K.  The vanishing of the
    K-action on the quotient is asserted from the adapted brackets first.
    """
    ad = hp.filtration.adapted
    terms = ad.L_ad.bracket_terms
    for i in range(ad.c):
        for j in range(ad.c, ad.L_ad.n):
            if any(l >= ad.c for l, _ in terms[i, j]):
                raise FiltrationNotPreserved("kernel action on the quotient does not vanish")
    e1 = hp.page(1)
    dims = total_cohomology_dims(ad.ce_kernel.complex)
    table = {}
    for p in range(ad.r + 1):
        for q in range(ad.c + 1):
            got = e1.dim(p, q)
            expected = comb(ad.r, p) * dims[q]
            table[(p, q)] = (got, expected)
            if got != expected:
                raise DimMismatch(("E1", p, q), got, expected)
    return PageCertificate(table)


def check_e2(hp: HSPages) -> PageCertificate:
    """E_2^{p,q} against H^p(Q; H^q(K; M)) via the induced representation."""
    ad = hp.filtration.adapted
    table = {}
    for q in range(ad.c + 1):
        dims = ce_dims(ad.Q_quot, induced_q_rep_adapted(ad, ad.ce_kernel, q))
        for p in range(ad.r + 1):
            got = hp.e2.dim(p, q)
            table[(p, q)] = (got, dims[p])
            if got != dims[p]:
                raise DimMismatch(("E2", p, q), got, dims[p])
    return PageCertificate(table)


def five_term(hp: HSPages) -> EdgeMaps:
    """Materialize 0 -> E2^{1,0} -> H^1 -> E2^{0,1} -> E2^{2,0} -> H^2 and
    verify exactness at each interior node."""
    em = edge_maps(hp.filtration.filtered, hp.e2)
    if not em.all_exact:
        bad = [i for i, ok in enumerate(em.exact) if not ok]
        raise ExactnessFailure(f"five-term sequence fails at node(s) {bad}", witness=bad)
    return em


def hs_report(E: ExtensionTriple, R: Representation, r_max: int | None = None):
    """One-stop structure for the CLI: filtration, pages, certificates, five-term."""
    hp = hs_pages(E, R, r_max)
    return hp, check_e1(hp), check_e2(hp), five_term(hp)
