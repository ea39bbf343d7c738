"""The generic spectral-sequence engine on hand-built filtered complexes.

Independent of any algebroid: a cochain complex whose coordinates each carry a
filtration level, compatible with d, yields pages read off one persistence
pairing of a level-graded basis, a limit page (the unpaired elements, read at
the filtration-length bound T+1 and certified by convergence to H^n), and edge
maps forming the five-term sequence.
"""

from fractions import Fraction

from rinehart import QQ
from rinehart.complexes import (CochainComplex, FilteredComplex, edge_maps,
                                spectral_pages)
from rinehart.linalg import Matrix

# the CE complex of the solvable algebra [e1,e2] = e1, filtered by e2*-degree:
# the level of a coordinate is its number of e2* factors
c = CochainComplex(QQ, [1, 2, 1],
                   [Matrix.zero(QQ, 2, 1),
                    Matrix.from_rows(QQ, [[Fraction(-1), Fraction(0)]])])
fc = FilteredComplex(c, [[0], [0, 1], [1]])

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

# a trivial filtration (every coordinate at level 0) degenerates at page one
trivial = FilteredComplex(c, [[0] * d for d in c.dims])
_, einf2, rep2 = spectral_pages(trivial, 1)
print("\ntrivial filtration: E_1 = limit =", einf2.dims(), "stable at", rep2.stable_at)
