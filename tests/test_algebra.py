from fractions import Fraction

from oracles import is_derivation
from rinehart.algebra import (AModule, FiniteAlgebra, atiyah_object, derivation_space,
                              endomorphism_space, matrix_from_flat, regular_module,
                              validate_algebra)
from rinehart.fields import QQ
from rinehart.linalg import Matrix, dense_to_sparse

from corpus import load


F2 = {"type": "prime", "p": 2}


def base_field_algebra():
    return load("abelian2").algebra


def dual_numbers(field=None):
    """k[x]/(x^2) on the basis {1, x}."""
    return load("fatpoint_rank1", field).algebra


def split_algebra():
    """k + k with orthogonal idempotents."""
    return load("split_example").algebra


def test_base_field_is_valid():
    assert validate_algebra(base_field_algebra()) == []


def test_dual_numbers_valid():
    assert validate_algebra(dual_numbers()) == []


def test_split_algebra_valid():
    assert validate_algebra(split_algebra()) == []


def test_broken_unit_detected():
    # 1*1 deliberately set to x: the unit law fails and is localized
    a = load("bad_unit_algebra").algebra
    axioms = {v.axiom for v in validate_algebra(a)}
    assert "unit" in axioms


def test_broken_associativity_detected():
    # basis {1, x, y}: x*x = y, x*y = 1, y*y = 0 is not associative at (x, x, y)
    o, z = QQ.one, QQ.zero
    e0, e1, e2, zero = (o, z, z), (z, o, z), (z, z, o), (z, z, z)
    mult = [[e0, e1, e2], [e1, e2, e0], [e2, e0, zero]]
    a = FiniteAlgebra(QQ, 3, mult, e0)
    vs = validate_algebra(a)
    assert any(v.axiom == "associativity" and v.indices == (1, 1, 2) for v in vs)


def test_derivations_of_base_field_vanish():
    assert derivation_space(base_field_algebra()).dim == 0


def test_derivations_of_dual_numbers():
    # solving the Leibniz constraints by hand: D(1) = 0, D(x) = b x
    der = derivation_space(dual_numbers())
    assert der.dim == 1
    d = matrix_from_flat(QQ, der.basis[0], 2, 2)
    assert is_derivation(dual_numbers(), d)
    assert d.column(0) == ()
    assert d.entries[0][1] == Fraction(0) and d.entries[1][1] != 0


def test_derivations_of_dual_numbers_char2():
    # in characteristic 2 the constraint 2 a x = 0 disappears: extra derivation
    assert derivation_space(dual_numbers(F2)).dim == 2


def test_derivations_of_split_algebra_vanish():
    # idempotents are rigid: D(e) = D(e^2) = 2eD(e) forces D = 0 here
    assert derivation_space(split_algebra()).dim == 0


def test_derivation_space_closed_under_commutator():
    for a in [dual_numbers(), dual_numbers(F2), split_algebra()]:
        der = derivation_space(a)
        mats = [matrix_from_flat(a.field, v, a.dim, a.dim) for v in der.basis]
        for d1 in mats:
            for d2 in mats:
                comm = d1.mul(d2).sub(d2.mul(d1))
                flat = tuple(x for row in comm.entries for x in row)
                assert der.contains(dense_to_sparse(flat))


def test_module_validation():
    a = dual_numbers()
    assert regular_module(a).validate() == []
    bad = AModule(a, 1, [Matrix.from_rows(QQ, [[Fraction(1)]]),
                         Matrix.from_rows(QQ, [[Fraction(1)]])])
    # x acting by 1 is not multiplicative: x*x = 0 must act by 0
    assert any(v.axiom == "module-multiplicativity" for v in bad.validate())


def test_atiyah_lie_algebra_case():
    # A = k, M = k^2: all 2x2 matrices, zero symbol
    a = base_field_algebra()
    m = AModule(a, 2, [Matrix.identity(QQ, 2)])
    at = atiyah_object(a, m)
    assert at.space.dim == 4
    assert at.symbol_image.dim == 0
    assert at.kernel.dim == 4
    assert at.kernel_is_end and at.exact_at_middle


def test_atiyah_free_module_over_dual_numbers():
    # M = A free of rank 1: dim D(M) = dim End_A(A) + dim Der = 2 + 1 = 3
    a = dual_numbers()
    at = atiyah_object(a, regular_module(a))
    assert at.space.dim == 3
    assert endomorphism_space(regular_module(a)).dim == 2
    assert at.kernel_is_end and at.exact_at_middle
    assert at.symbol_surjective


def test_atiyah_non_free_module():
    # M = k with x acting by zero: symbol still onto, kernel = End_A(k) = k
    a = dual_numbers()
    m = AModule(a, 1, [Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)])
    assert m.validate() == []
    at = atiyah_object(a, m)
    assert at.space.dim == 2
    assert at.kernel.dim == 1
    assert at.kernel_is_end and at.exact_at_middle
    assert at.symbol_surjective
