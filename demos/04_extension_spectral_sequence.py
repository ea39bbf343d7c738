"""The spectral sequence of an algebroid extension, end to end.

The Heisenberg algebra with its center as the kernel is the smallest example
with a nonzero transgression: two classes die between the second page and the
limit.  Every identification is cross-checked against an independent
computation (E1 against kernel cohomology with form coefficients, E2 against
quotient cohomology with the induced action).
"""

from pathlib import Path

from rinehart.extensions import induced_q_rep
from rinehart.hochschild import check_e1, check_e2, five_term, hs_pages
from rinehart.linalg import rank
from rinehart.problems import parse

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

heis = parse(PROBLEMS / "ext_heis_center.json")   # center as the kernel
E = heis.extension_triple
rep = heis.representation()

hp = hs_pages(E, rep, r_max=3)
print("Heisenberg / center extension, trivial coefficients")
print("graded pieces match the predicted dims:", hp.filtration.graded_ok)
for page in hp.pages:
    print(f"  E_{page.r} dims:", page.dims())
print("  E_oo dims:", hp.einf.dims())
print("  stable from page:", hp.stable_at)

d2 = hp.page(2).diffs[(0, 1)]
print("transgression d2 at (0,1) has rank", rank(d2),
      "(the dual of the bracket, K* -> Lambda^2 Q*)")

print("convergence per total degree (E_oo sum vs H^n):", hp.convergence)

e1 = check_e1(hp)
e2 = check_e2(hp)
print("E1 identification:", "ok" if e1.ok else e1.table)
print("E2 identification:", "ok" if e2.ok else e2.table)

ft = five_term(hp)
print("five-term node dims:", ft.node_dims, "exact:", ft.all_exact)

print("\ninduced action of the quotient on kernel cohomology:")
for q in (0, 1):
    r = induced_q_rep(E, rep, q)
    mats = [[str(x) for row in m.entries for x in row] for m in r.rho]
    print(f"  H^{q}(K;k): dim {r.module.dim}, action matrices {mats} (central kernel: trivial)")

print("\nfat-point extension over k[x]/(x^2):")
fp = parse(PROBLEMS / "ext_fatpoint.json")
hpf = hs_pages(fp.extension_triple, fp.representation(), r_max=2)
print("  E_2 dims:", hpf.page(2).dims(), " converged:", hpf.converged)
