"""The truncated enveloping algebra, its straightening rules, the resolution
of the base algebra, and the transfer that identifies Ext with CE cohomology.

Shows individual rewrites (moving coefficients left, sorting sections),
certifies exactness of the filtered resolution level by level, and compares
the Ext pipeline with the CE pipeline on the corpus.
"""

from rinehart import catalog
from rinehart.cecomplex import ce_dims
from rinehart.enveloping import (TruncatedEnveloping, ext_dims, hom_complex_iso,
                                 rinehart_complex)

L = catalog.aff1().algebroid
U = TruncatedEnveloping(L, 3)
print(f"aff(1), cutoff 3: PBW dimension {U.dim} (= C(2+3,3))")
prod, _ = U.mul_mono((0, (1,)), (0, (0,)))
print("straightening e2*e1 :", {k: str(v) for k, v in prod.items()},
      " (= e1 e2 - e1)")

Lf = catalog.fatpoint_rank1().algebroid
Uf = TruncatedEnveloping(Lf, 2)
prod, _ = Uf.mul_mono((0, (0,)), (1, ()))
print("fat point, s*x      :", {k: str(v) for k, v in prod.items()},
      " (= x s + x, the anchor relation)")
eps = Uf.augmentation_matrix()
x_image = eps.apply(Uf.to_vector(Uf.coefficient(((1, Lf.field.one),))))
print("augmentation of x   :", {j: str(v) for j, v in x_image}, " (nonzero coordinates)")

print("\nresolution exactness by total-degree level (cutoff 3):")
for entry in catalog.positive_entries():
    cx, report = rinehart_complex(entry.algebroid, 3)
    levels = sorted({t for (t, _) in report.homology})
    print(f"  {entry.name:18s} exact on levels {levels}: {report.ok}")

print("\nExt through the resolution vs the CE complex:")
for entry in catalog.positive_entries():
    cx, report = rinehart_complex(entry.algebroid, 3)
    cert = hom_complex_iso(cx, entry.representation)
    exts = [d for _, d in ext_dims(report, cert)]
    ces = ce_dims(entry.algebroid, entry.representation)
    print(f"  {entry.name:18s} Ext={exts} CE={ces} agree={exts == ces}")
