"""Algebroid validation and Chevalley-Eilenberg cohomology on the corpus.

Every entry is validated exhaustively (antisymmetry, Jacobi on the full
k-basis of the Leibniz closure, anchor morphism), then its CE cohomology is
computed with exact arithmetic.  The final block shows the same structure
constants producing different dims in characteristic 2.
"""

from pathlib import Path

from rinehart.algebroid import invariants, validate_algebroid
from rinehart.cecomplex import ce_dims
from rinehart.problems import parse

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

for name in ("abelian2", "sl2", "heisenberg3", "aff1", "fatpoint_rank1", "fatpoint_rank2",
             "split_example", "heisenberg3_f2", "sl2_f2"):
    problem = parse(PROBLEMS / f"{name}.json")
    L = problem.algebroid
    issues = validate_algebroid(L)
    dims = ce_dims(L, problem.representation())
    inv = invariants(L, problem.representation())
    print(f"{name:18s} field={L.field.describe():4s} rank={L.n} "
          f"dim_k A={L.m}  H dims={dims}  invariants={inv.dim}  "
          f"valid={'yes' if not issues else issues}")

print("\na deliberately corrupted sl2 table:")
bad = parse(PROBLEMS / "negative" / "bad_jacobi_sl2.json").algebroid
for v in validate_algebroid(bad):
    print("  violation:", v.describe())

print("\ncharacteristic sensitivity of the sl2 structure constants:")
for label, name in (("over Q  ", "sl2"), ("over F_2", "sl2_f2")):
    problem = parse(PROBLEMS / f"{name}.json")
    print(f"  {label}:", ce_dims(problem.algebroid, problem.representation()))
