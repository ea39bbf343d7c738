"""The truncated enveloping algebra, its straightening rules, the resolution
of the base algebra, and the transfer that identifies Ext with CE cohomology.

Shows individual rewrites (moving coefficients left, sorting sections),
certifies exactness of the filtered resolution level by level, and compares
the Ext pipeline with the CE pipeline on the corpus.
"""

from pathlib import Path

from rinehart.cecomplex import ce_dims
from rinehart.enveloping import (TruncatedEnveloping, ext_dims, hom_complex_iso,
                                 rinehart_complex)
from rinehart.problems import parse

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
CORPUS = [(name, parse(PROBLEMS / f"{name}.json"))
          for name in ("abelian2", "sl2", "heisenberg3", "aff1", "fatpoint_rank1",
                       "fatpoint_rank2", "split_example", "heisenberg3_f2", "sl2_f2")]

L = parse(PROBLEMS / "aff1.json").algebroid
U = TruncatedEnveloping(L, 3)
print(f"aff(1), cutoff 3: PBW dimension {U.dim} (= C(2+3,3))")
prod, _ = U.mul_mono((0, (1,)), (0, (0,)))
print("straightening e2*e1 :", {k: str(v) for k, v in prod.items()},
      " (= e1 e2 - e1)")

Lf = parse(PROBLEMS / "fatpoint_rank1.json").algebroid
Uf = TruncatedEnveloping(Lf, 2)
prod, _ = Uf.mul_mono((0, (0,)), (1, ()))
print("fat point, s*x      :", {k: str(v) for k, v in prod.items()},
      " (= x s + x, the anchor relation)")
eps = Uf.augmentation_matrix()
x_image = eps.apply(Uf.to_vector(Uf.coefficient(((1, Lf.field.one),))))
print("augmentation of x   :", {j: str(v) for j, v in x_image}, " (nonzero coordinates)")

print("\nresolution exactness by total-degree level (cutoff 3):")
for name, problem in CORPUS:
    cx, report = rinehart_complex(problem.algebroid, 3)
    levels = sorted({t for (t, _) in report.homology})
    print(f"  {name:18s} exact on levels {levels}: {report.ok}")

print("\nExt through the resolution vs the CE complex:")
for name, problem in CORPUS:
    cx, report = rinehart_complex(problem.algebroid, 3)
    cert = hom_complex_iso(cx, problem.representation())
    exts = [d for _, d in ext_dims(report, cert)]
    ces = ce_dims(problem.algebroid, problem.representation())
    print(f"  {name:18s} Ext={exts} CE={ces} agree={exts == ces}")
