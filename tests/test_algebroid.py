from fractions import Fraction

from rinehart.algebroid import (anchor_representation, invariants, leibniz_bracket,
                                validate_algebroid, validate_representation)
from rinehart.fields import QQ
from rinehart.linalg import dense_to_sparse

from corpus import POSITIVE, load


def test_positive_corpus_validates():
    for name in POSITIVE:
        p = load(name)
        assert validate_algebroid(p.algebroid) == [], name
        assert validate_representation(p.algebroid, p.representation()) == [], name


def test_sl2_adjoint_validates():
    p = load("sl2_adjoint")
    assert validate_representation(p.algebroid, p.module) == []


def test_bad_jacobi_detected_with_witness():
    vs = validate_algebroid(load("bad_jacobi_sl2").algebroid)
    jac = [v for v in vs if v.axiom == "jacobi"]
    assert jac and jac[0].indices == (0, 1, 2)


def test_bad_flatness_detected():
    p = load("bad_rep_flatness")
    assert any(v.axiom == "flatness" for v in validate_representation(p.algebroid, p.module))


def unit(u):
    return ((u, QQ.one),)


def test_bracket_tensor_base_field_case():
    # A = k: the bracket is just the declared structure constants
    L = load("sl2").algebroid
    assert leibniz_bracket(L, unit(0), unit(1)) == ((2, Fraction(1)),)  # [e,f] = h
    assert leibniz_bracket(L, unit(2), unit(0)) == ((0, Fraction(2)),)  # [h,e] = 2e


def test_bracket_tensor_leibniz_term():
    # fat point, rank 1: [s, x s] = a(s)(x) s = x s
    L = load("fatpoint_rank1").algebroid
    s = L.kindex(0, 0)
    xs = L.kindex(0, 1)
    vec = leibniz_bracket(L, unit(s), unit(xs))
    assert vec == ((xs, Fraction(1)),)


def test_bracket_tensor_zero_anchor_is_bilinear():
    L = load("split_example").algebroid
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
    p = load("heisenberg3")
    inv = invariants(p.algebroid, p.representation())
    assert inv.dim == 1


def test_invariants_fatpoint_anchor_rep():
    # solve x f' = 0 on {1, x}: invariants = span{1}
    p = load("fatpoint_rank1")
    inv = invariants(p.algebroid, p.representation())
    assert inv.dim == 1
    assert inv.contains(dense_to_sparse((Fraction(1), Fraction(0))))


def test_invariants_sl2_adjoint_no_center():
    p = load("sl2_adjoint")
    inv = invariants(p.algebroid, p.module)
    assert inv.dim == 0


def test_anchor_representation_validates():
    for name in ("fatpoint_rank1", "fatpoint_rank2", "split_example"):
        L = load(name).algebroid
        assert validate_representation(L, anchor_representation(L)) == []


def test_trivial_rep_of_lie_algebra():
    L = load("abelian2").algebroid
    rep = anchor_representation(L)
    assert validate_representation(L, rep) == []
