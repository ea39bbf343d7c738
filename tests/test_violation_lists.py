"""Exact violation lists over A = k[x]/(x^3), a base algebra with m > 1.

The negative corpus has no anchor-morphism case and no violation over an
algebra of dimension above 1, so these lists pin the names, indices and order
of every axiom loop on the k-basis e_a s_i (flat index 3 i + a) directly.
"""

import pytest

from rinehart.algebra import FiniteAlgebra, regular_module
from rinehart.algebroid import (LieRinehartAlgebroid, Representation, validate_algebroid,
                                validate_representation)
from rinehart.fields import GF, QQ
from rinehart.linalg import Matrix

FIELDS = [QQ, GF(3)]


def truncated_poly(f) -> FiniteAlgebra:
    """k[x]/(x^3) on the basis 1, x, x^2."""
    def e(t):
        return tuple(f.one if s == t else f.zero for s in range(3))
    zero = tuple(f.zero for _ in range(3))
    mult = [[e(i + j) if i + j < 3 else zero for j in range(3)] for i in range(3)]
    return FiniteAlgebra(f, 3, mult, e(0))


def matrix(f, rows):
    return Matrix.from_rows(f, [[f.from_int(x) for x in row] for row in rows])


def x_ddx(f):
    return matrix(f, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])


def x2_ddx(f):
    return matrix(f, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])


def zero_bracket(f, n):
    return [[[tuple(f.zero for _ in range(3)) for _ in range(n)] for _ in range(n)]
            for _ in range(n)]


def rank2(f):
    """Anchors x d/dx and x^2 d/dx with a zero declared bracket."""
    A = truncated_poly(f)
    return LieRinehartAlgebroid(A, 2, [x_ddx(f), x2_ddx(f)], zero_bracket(f, 2))


def described(vs):
    return [v.describe() for v in vs]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
def test_anchor_morphism_and_jacobi_list(f):
    assert described(validate_algebroid(rank2(f))) == [
        "jacobi at (0, 1, 3)", "jacobi at (0, 3, 4)", "anchor-morphism at (0, 3)"]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
def test_symbol_and_flatness_list(f):
    L = rank2(f)
    R = Representation(regular_module(L.algebra), [x_ddx(f), x_ddx(f)])
    assert described(validate_representation(L, R)) == [
        "symbol at (1, 1)", "symbol at (1, 2)", "flatness at (1, 3)", "flatness at (3, 4)"]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
def test_antisymmetry_list(f):
    A = truncated_poly(f)
    bracket = zero_bracket(f, 2)
    s1 = [tuple(f.zero for _ in range(3)), A.unit]
    bracket[0][1] = s1
    bracket[1][0] = s1
    L = LieRinehartAlgebroid(A, 2, [x_ddx(f), matrix(f, [[0] * 3] * 3)], bracket)
    assert described(validate_algebroid(L)) == [
        "antisymmetry at (0, 3)", "antisymmetry at (0, 4)", "antisymmetry at (0, 5)",
        "antisymmetry at (1, 3)", "antisymmetry at (1, 4)", "antisymmetry at (2, 3)",
        "jacobi at (0, 1, 3)", "jacobi at (0, 2, 3)"]
