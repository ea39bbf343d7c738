from fractions import Fraction

import pytest

from rinehart.complexes import (CochainComplex, FilteredComplex, edge_maps, spectral_pages,
                                total_cohomology_dims)
from rinehart.errors import (ConstructionInconsistent, DegreeOutOfRange,
                             EngineError, IncompatibleFiltration)
from rinehart.fields import QQ
from rinehart.linalg import Matrix, Subspace

from oracles import limit_page_dims


def qmat(rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def single_space():
    return CochainComplex(QQ, [1], [])


def two_term_identity():
    return CochainComplex(QQ, [1, 1], [qmat([[1]])])


def abelian2_ce():
    # CE complex of the abelian 2-dim Lie algebra, trivial coefficients: all d = 0
    return CochainComplex(QQ, [1, 2, 1], [Matrix.zero(QQ, 2, 1), Matrix.zero(QQ, 1, 2)])


def test_cohomology_single_space():
    h = single_space().cohomology(0)
    assert (h.dim, h.reps) == (1, [((0, Fraction(1)),)])


def test_cohomology_exact_two_term():
    c = two_term_identity()
    assert total_cohomology_dims(c) == [0, 0]


def test_cohomology_abelian_binomials():
    assert total_cohomology_dims(abelian2_ce()) == [1, 2, 1]


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        single_space().cohomology(1)


def test_dd_nonzero_rejected():
    with pytest.raises(ConstructionInconsistent):
        CochainComplex(QQ, [1, 1, 1], [qmat([[1]]), qmat([[1]])])


def trivial_filtration(c):
    return FilteredComplex(c, [[Subspace.full(QQ, d)] for d in c.dims])


def test_trivial_filtration_degenerates_at_e1():
    c = abelian2_ce()
    fc = trivial_filtration(c)
    pages, einf, report = spectral_pages(fc, 2)
    assert pages[0].dims() == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    assert pages[0].dims() == einf.dims()
    assert report.stable_at == 1
    assert report.converged


def test_two_step_filtration_of_exact_complex_collapses():
    c = two_term_identity()
    filt = [
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    fc = FilteredComplex(c, filt)
    _, einf, report = spectral_pages(fc, 2)
    assert einf.dims() == {}
    assert report.converged


def test_incompatible_filtration_detected():
    c = two_term_identity()
    # F^1 = whole space in degree 0 but zero in degree 1: d does not preserve it
    filt = [
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1)],
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    with pytest.raises(IncompatibleFiltration):
        FilteredComplex(c, filt)


def aff1_ce():
    # CE complex of the 2-dim solvable algebra [e1,e2] = e1, trivial coefficients:
    # d0 = 0, d1(e1*) = -e1*^e2*, d1(e2*) = 0
    return CochainComplex(QQ, [1, 2, 1], [Matrix.zero(QQ, 2, 1), qmat([[-1, 0]])])


def aff1_hs_filtration():
    # filtration of the aff(1) complex by number of e2*-factors (K = span e1)
    c = aff1_ce()
    one = Fraction(1)
    filt = [
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
        [Subspace.full(QQ, 2), Subspace(QQ, 2, [((1, one),)]), Subspace.zero(QQ, 2)],
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    return FilteredComplex(c, filt)


def test_aff1_extension_pages():
    fc = aff1_hs_filtration()
    pages, einf, report = spectral_pages(fc, 2)
    assert pages[0].dims() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert pages[1].dims() == {(0, 0): 1, (1, 0): 1}
    assert einf.dims() == {(0, 0): 1, (1, 0): 1}
    assert report.converged
    assert [a for a, _ in sorted(report.convergence.items())] is not None
    assert {n: ab for n, ab in report.convergence.items()} == {0: (1, 1), 1: (1, 1), 2: (0, 0)}


def test_pages_invariant_under_basis_permutation():
    fc = aff1_hs_filtration()
    c = fc.complex
    one = Fraction(1)
    filt2 = [
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
        [Subspace(QQ, 2, [((1, one),), ((0, one),)]), Subspace(QQ, 2, [((1, one),)]),
         Subspace.zero(QQ, 2)],
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    fc2 = FilteredComplex(c, filt2)
    p1, e1, _ = spectral_pages(fc, 3)
    p2, e2, _ = spectral_pages(fc2, 3)
    assert e1.dims() == e2.dims()
    assert all(a.dims() == b.dims() for a, b in zip(p1, p2))


def test_edge_maps_trivial_filtration_identity_shaped():
    c = aff1_ce()
    fc = trivial_filtration(c)
    em = edge_maps(fc, spectral_pages(fc, 2)[0][1])
    # restriction H^1 -> E2^{0,1} is the identity on the shared representatives
    assert em.restriction.rows == em.restriction.cols == 1
    assert em.restriction.entries[0][0] == Fraction(1)
    assert em.inflation1.cols == 0
    assert em.all_exact


def test_edge_maps_aff1_extension():
    fc = aff1_hs_filtration()
    em = edge_maps(fc, spectral_pages(fc, 2)[0][1])
    # 0 -> k -> k -> 0 -> 0 -> 0
    assert em.node_dims == (1, 1, 0, 0, 0)
    assert em.all_exact


def test_page_representative_count_mismatch_raises(monkeypatch):
    # a wrong number of page representatives is an engine error, not an assert
    import rinehart.complexes as complexes_mod
    monkeypatch.setattr(complexes_mod, "complete_basis", lambda base, candidates: [])
    with pytest.raises(EngineError):
        spectral_pages(aff1_hs_filtration(), 2)


def two_step_exact():
    filt = [
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    return FilteredComplex(two_term_identity(), filt)


def permuted_aff1_filtration():
    one = Fraction(1)
    filt = [
        [Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
        [Subspace(QQ, 2, [((1, one),), ((0, one),)]), Subspace(QQ, 2, [((1, one),)]),
         Subspace.zero(QQ, 2)],
        [Subspace.full(QQ, 1), Subspace.full(QQ, 1), Subspace.zero(QQ, 1)],
    ]
    return FilteredComplex(aff1_ce(), filt)


def hand_built_filtrations():
    return [trivial_filtration(abelian2_ce()), trivial_filtration(aff1_ce()),
            trivial_filtration(single_space()), two_step_exact(), aff1_hs_filtration(),
            permuted_aff1_filtration()]


def test_limit_page_is_the_e_infinity_subquotient():
    for fc in hand_built_filtrations():
        _, einf, _ = spectral_pages(fc, 1)
        assert einf.dims() == limit_page_dims(fc)


def test_filtered_images_and_preimages_at_clamped_levels():
    for fc in hand_built_filtrations():
        cx = fc.complex
        for i in range(cx.top_degree + 1):
            d = cx.diff(i)
            for p in range(-2, fc.top_index + 4):
                assert fc.image(i, p).equals(fc.space(i, p).image(d)), (i, p)
                assert fc.preimage(i, p).equals(fc.space(i + 1, p).preimage(d)), (i, p)
