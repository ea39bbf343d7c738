from fractions import Fraction

import pytest

from rinehart.algebroid import anchor_representation, invariants, validate_representation
from rinehart.cecomplex import ce_complex, ce_dims
from rinehart.errors import EngineError
from rinehart.extensions import (ExtensionTriple, adapt, extension_from_k_indices,
                                 induced_q_rep, induced_q_rep_adapted, validate_extension,
                                 with_splitting)
from rinehart.fields import QQ

from corpus import EXTENSIONS, abelian, load


def make_ext(name):
    p = load(name)
    return p, p.extension_triple


def test_corpus_extensions_validate():
    for ext_name in EXTENSIONS:
        assert validate_extension(load(ext_name).extension_triple) == [], ext_name


def test_degenerate_full_kernel():
    entry, E = make_ext("ext_q0")
    assert E.Q.n == 0 and E.K.n == 3
    assert validate_extension(E) == []


def test_non_ideal_kernel_rejected():
    # aff(1) with K = span{e2}: [e1, e2] = e1 is not a multiple of e2
    E = extension_from_k_indices(load("aff1").algebroid, [1])
    vs = validate_extension(E)
    assert any(v.axiom in ("iota-bracket", "pi-bracket") for v in vs)


def test_maps_whose_ranks_add_up_but_whose_composition_is_nonzero_are_not_exact():
    # L = k^2 abelian, iota: s_0 -> s_0, pi: s_0 -> q, s_1 -> 0; sigma: q -> s_0.
    # rank iota + rank pi = 2 = kdim L, yet pi iota != 0
    f = QQ
    one, zero = (f.one,), (f.zero,)
    E = ExtensionTriple(abelian(1), load("abelian2").algebroid, abelian(1), iota=[[one, zero]],
                        pi=[[one], [zero]], sigma=[[one, zero]])
    assert [v.axiom for v in validate_extension(E)] == ["not-exact-in-middle"]


def test_splitting_that_is_not_a_section_is_rejected():
    # L = k^2 abelian, K = span{s_0}, sigma(q) = 2 s_1: pi sigma = 2 != 1
    f = QQ
    E = extension_from_k_indices(load("abelian2").algebroid, [0],
                                 [[(f.zero,), (f.one + f.one,)]])
    assert [v.axiom for v in validate_extension(E)] == ["sigma-not-a-section"]


def test_nonzero_kernel_anchor_rejected():
    # fat point rank 2 with K = span{s1}: a(s1) = x d/dx is nonzero
    entry = load("fatpoint_rank2")
    E = extension_from_k_indices(entry.algebroid, [0])
    vs = validate_extension(E)
    assert any(v.axiom == "kernel-anchor-nonzero" for v in vs)
    with pytest.raises(EngineError):
        adapt(E, entry.representation())


def test_adapted_structure_heisenberg():
    entry, E = make_ext("ext_heis_center")
    ad = adapt(E, entry.representation())
    assert ad.c == 1 and ad.r == 2
    # Q is the abelian 2-dim quotient
    assert ce_dims(ad.Q_quot, anchor_representation(ad.Q_quot)) == [1, 2, 1]


def test_induced_action_aff1_weight_one():
    # hand computation: (q.c)(e1) = -c([e2, e1]) = c(e1), a +1 weight
    entry, E = make_ext("ext_aff1")
    rep1 = induced_q_rep(E, entry.representation(), 1)
    assert rep1.module.dim == 1
    assert rep1.rho[0].entries[0][0] == Fraction(1)
    # invariants of that weight action vanish
    ad = adapt(E, entry.representation())
    assert invariants(ad.Q_quot, rep1).dim == 0


def test_induced_action_q0_matches_invariant_level():
    # q = 0: the action on M^K is the restriction of rho through the splitting
    entry, E = make_ext("ext_aff1")
    rep0 = induced_q_rep(E, entry.representation(), 0)
    ad = adapt(E, entry.representation())
    assert rep0.module.dim == 1
    assert validate_representation(ad.Q_quot, rep0) == []
    # trivial coefficients: sigma(q) acts by zero on M^K = k
    assert rep0.rho[0].is_zero()


def test_induced_action_central_kernel_trivial():
    # Heisenberg with central K: [sigma(q), z] = 0, so Q acts trivially on H^q(K;k)
    entry, E = make_ext("ext_heis_center")
    for q in (0, 1):
        rep = induced_q_rep(E, entry.representation(), q)
        assert rep.module.dim == 1
        for r in rep.rho:
            assert r.is_zero()


def test_induced_action_fatpoint():
    entry, E = make_ext("ext_fatpoint")
    ad = adapt(E, entry.representation())
    ceK = ce_complex(ad.K_sub, ad.rho_K)
    for q in (0, 1):
        rep = induced_q_rep_adapted(ad, ceK, q)
        assert validate_representation(ad.Q_quot, rep) == []


def test_induced_action_independent_of_splitting():
    # second splitting sigma'(q) = e2 + e1: the descended operators coincide
    entry, E = make_ext("ext_aff1")
    one = (QQ.one,)
    zero = (QQ.zero,)
    delta = [[one, zero]]   # q-basis element 0 gets + 1*e1
    E2 = with_splitting(E, delta)
    assert validate_extension(E2) == []
    for q in (0, 1):
        a = induced_q_rep(E, entry.representation(), q)
        b = induced_q_rep(E2, entry.representation(), q)
        assert [m.entries for m in a.rho] == [m.entries for m in b.rho]


def test_induced_action_out_of_range_degree_is_zero_module():
    entry, E = make_ext("ext_aff1")
    rep = induced_q_rep(E, entry.representation(), 5)
    assert rep.module.dim == 0
