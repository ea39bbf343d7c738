"""The generic spectral-sequence engine on hand-built filtered complexes.

Independent of any algebroid: a cochain complex with a compatible decreasing
filtration yields pages, a limit page read at the filtration-length bound T+1
and certified by convergence to H^n, and edge maps forming the five-term
sequence.
"""

from fractions import Fraction

from rinehart import QQ
from rinehart.complexes import (CochainComplex, FilteredComplex, edge_maps,
                                spectral_pages)
from rinehart.linalg import Matrix, Subspace

# the CE complex of the solvable algebra [e1,e2] = e1, filtered by e2*-degree
c = CochainComplex(QQ, [1, 2, 1],
                   [Matrix.zero(QQ, 2, 1),
                    Matrix.from_rows(QQ, [[Fraction(-1), Fraction(0)]])])
one = Fraction(1)
filt = [
    [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    [Subspace.full(QQ, 2), Subspace(QQ, 2, [((1, one),)]), Subspace.zero(QQ, 2)],
    [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
]
fc = FilteredComplex(c, filt)

pages, einf, report = spectral_pages(fc, 2)
for page in pages:
    print(f"E_{page.r} dims:", page.dims())
print("limit page:", einf.dims())
print("stable from page", report.stable_at, "(bound", report.bound, ")")
print("convergence (per degree, limit total vs H^n):", report.convergence)

em = edge_maps(fc, pages[1])
print("\nfive-term sequence 0 -> E2^{1,0} -> H^1 -> E2^{0,1} -> E2^{2,0} -> H^2")
print("node dims:", em.node_dims)
print("inflation matrix:", [[str(x) for x in row] for row in em.inflation1.entries])
print("exact at every node:", em.all_exact)

# a trivial filtration degenerates at page one
trivial = FilteredComplex(c, [[Subspace.full(QQ, d)] for d in c.dims])
_, einf2, rep2 = spectral_pages(trivial, 1)
print("\ntrivial filtration: E_1 = limit =", einf2.dims(), "stable at", rep2.stable_at)
