"""Finite algebras, their derivations, and scalar-symbol operators on modules.

Walks through the dual numbers k[x]/(x^2): validating the multiplication
table, solving for the derivation space, and assembling the algebra of
scalar-symbol operators on a module together with its symbol sequence

    0 -> End_A(M) -> D(M) -> Der_k(A).
"""

from pathlib import Path

from rinehart import (AModule, QQ, atiyah_object, derivation_space, parse,
                      regular_module, validate_algebra)
from rinehart.algebra import matrix_from_flat
from rinehart.linalg import Matrix

# the base algebra of the fat-point algebroids is the dual numbers
DUAL_NUMBERS = Path(__file__).resolve().parents[1] / "problems" / "fatpoint_rank1.json"

a = parse(DUAL_NUMBERS).algebra
print("algebra: k[x]/(x^2) on the basis {1, x}")
print("axioms:", validate_algebra(a) or "all hold")

der = derivation_space(a)
print(f"\nderivation space over Q: dimension {der.dim}")
d = matrix_from_flat(QQ, der.basis[0], 2, 2)
print("spanning derivation (sends 1 -> 0, x -> x, i.e. x d/dx):")
for row in d.entries:
    print("  ", [str(v) for v in row])

der2 = derivation_space(parse(DUAL_NUMBERS, {"type": "prime", "p": 2}).algebra)
print(f"\nthe same table over F_2 has derivation dimension {der2.dim}")
print("(the constraint 2 a x = 0 disappears in characteristic 2)")

print("\nscalar-symbol operators on M = A (free of rank one):")
at = atiyah_object(a, regular_module(a))
print(f"  dim D(M) = {at.space.dim}, kernel End_A(M) = {at.kernel.dim}, "
      f"symbol image = {at.symbol_image.dim}")
print(f"  exact in the middle: {at.exact_at_middle}; symbol onto Der: {at.symbol_surjective}")

print("\nnon-free module M = k (x acts by zero):")
m = AModule(a, 1, [Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)])
at = atiyah_object(a, m)
print(f"  dim D(M) = {at.space.dim}, kernel = {at.kernel.dim}, "
      f"symbol still onto: {at.symbol_surjective}")
