from fractions import Fraction

from rinehart import catalog
from rinehart.algebroid import (invariants, leibniz_bracket, trivial_representation,
                                validate_algebroid, validate_representation)
from rinehart.fields import QQ
from rinehart.linalg import dense_to_sparse


def test_positive_corpus_validates():
    for entry in catalog.positive_entries():
        assert validate_algebroid(entry.algebroid) == [], entry.name
        assert validate_representation(entry.algebroid, entry.representation) == [], entry.name


def test_sl2_adjoint_validates():
    entry = catalog.sl2()
    assert validate_representation(entry.algebroid, entry.extra_representations["adjoint"]) == []


def test_bad_jacobi_detected_with_witness():
    vs = validate_algebroid(catalog.bad_jacobi_sl2())
    jac = [v for v in vs if v.axiom == "jacobi"]
    assert jac and jac[0].indices == (0, 1, 2)


def test_bad_flatness_detected():
    L, rep = catalog.bad_flatness_rep()
    assert any(v.axiom == "flatness" for v in validate_representation(L, rep))


def unit(u):
    return ((u, QQ.one),)


def test_bracket_tensor_base_field_case():
    # A = k: the bracket is just the declared structure constants
    L = catalog.sl2().algebroid
    assert leibniz_bracket(L, unit(0), unit(1)) == ((2, Fraction(1)),)  # [e,f] = h
    assert leibniz_bracket(L, unit(2), unit(0)) == ((0, Fraction(2)),)  # [h,e] = 2e


def test_bracket_tensor_leibniz_term():
    # fat point, rank 1: [s, x s] = a(s)(x) s = x s
    entry = catalog.fatpoint_rank1()
    L = entry.algebroid
    s = L.kindex(0, 0)
    xs = L.kindex(0, 1)
    vec = leibniz_bracket(L, unit(s), unit(xs))
    assert vec == ((xs, Fraction(1)),)


def test_bracket_tensor_zero_anchor_is_bilinear():
    entry = catalog.split_example()
    L = entry.algebroid
    act = [L.algebra_action_on_sections(b) for b in range(L.m)]
    for b in range(L.m):
        for u in range(L.kdim):
            eu = unit(u)
            for v in range(L.kdim):
                ev = unit(v)
                lhs = leibniz_bracket(L, act[b].apply(eu), ev)
                rhs = act[b].apply(leibniz_bracket(L, eu, ev))
                assert lhs == rhs


def test_invariants_trivial_rep():
    entry = catalog.heisenberg3()
    inv = invariants(entry.algebroid, entry.representation)
    assert inv.dim == 1


def test_invariants_fatpoint_anchor_rep():
    # solve x f' = 0 on {1, x}: invariants = span{1}
    entry = catalog.fatpoint_rank1()
    inv = invariants(entry.algebroid, entry.representation)
    assert inv.dim == 1
    assert inv.contains(dense_to_sparse((Fraction(1), Fraction(0))))


def test_invariants_sl2_adjoint_no_center():
    entry = catalog.sl2()
    inv = invariants(entry.algebroid, entry.extra_representations["adjoint"])
    assert inv.dim == 0


def test_anchor_representation_validates():
    for make in (catalog.fatpoint_rank1, catalog.fatpoint_rank2, catalog.split_example):
        entry = make()
        assert validate_representation(entry.algebroid, entry.representation) == []


def test_trivial_rep_of_lie_algebra():
    L = catalog.abelian2().algebroid
    rep = trivial_representation(L)
    assert validate_representation(L, rep) == []
