from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinehart.complexes import (CochainComplex, FilteredComplex, edge_maps, spectral_pages,
                                total_cohomology_dims)
from rinehart.errors import (ConstructionInconsistent, DegreeOutOfRange,
                             EngineError, IncompatibleFiltration)
from rinehart.fields import GF, QQ
from rinehart.hochschild import hs_filtration
from rinehart.linalg import Matrix, rank

from corpus import load
from oracles import five_term_exactness, limit_page_dims, subquotient_page_dims


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
    return FilteredComplex(c, [[0] * d for d in c.dims])


def test_trivial_filtration_degenerates_at_e1():
    c = abelian2_ce()
    fc = trivial_filtration(c)
    pages, einf, report = spectral_pages(fc, 2)
    assert pages[0].dims() == {(0, 0): 1, (0, 1): 2, (0, 2): 1}
    assert pages[0].dims() == einf.dims()
    assert report.stable_at == 1
    assert report.converged


def two_step_exact():
    # F^1 is zero in degree 0 and the whole space in degree 1
    return FilteredComplex(two_term_identity(), [[0], [1]])


def test_two_step_filtration_of_exact_complex_collapses():
    _, einf, report = spectral_pages(two_step_exact(), 2)
    assert einf.dims() == {}
    assert report.converged


def test_incompatible_filtration_detected():
    c = two_term_identity()
    # F^1 = whole space in degree 0 but zero in degree 1: d does not preserve it
    with pytest.raises(IncompatibleFiltration):
        FilteredComplex(c, [[1], [0]])


@pytest.mark.parametrize("levels", [[[0]], [[0], [0], [0]], [[0], [0, 0]], [[-1], [0]]])
def test_malformed_levels_rejected(levels):
    with pytest.raises(IncompatibleFiltration):
        FilteredComplex(two_term_identity(), levels)


def aff1_ce():
    # CE complex of the 2-dim solvable algebra [e1,e2] = e1, trivial coefficients:
    # d0 = 0, d1(e1*) = -e1*^e2*, d1(e2*) = 0
    return CochainComplex(QQ, [1, 2, 1], [Matrix.zero(QQ, 2, 1), qmat([[-1, 0]])])


def aff1_hs_filtration():
    # filtration of the aff(1) complex by number of e2*-factors (K = span e1)
    return FilteredComplex(aff1_ce(), [[0], [0, 1], [1]])


def test_aff1_extension_pages():
    fc = aff1_hs_filtration()
    pages, einf, report = spectral_pages(fc, 2)
    assert pages[0].dims() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert pages[1].dims() == {(0, 0): 1, (1, 0): 1}
    assert einf.dims() == {(0, 0): 1, (1, 0): 1}
    assert report.converged
    assert {n: ab for n, ab in report.convergence.items()} == {0: (1, 1), 1: (1, 1), 2: (0, 0)}


def permuted(fc, perms):
    """fc with the coordinates of each degree s renumbered so that new
    coordinate k is old coordinate perms[s][k]: the rows and columns of every
    differential and the levels move together."""
    cx = fc.complex
    diffs = []
    for s, d in enumerate(cx.diffs):
        rows, cols = perms[s + 1], perms[s]
        diffs.append(Matrix.from_rows(cx.field, [[d.entries[i][j] for j in cols] for i in rows]))
    levels = [[lv[j] for j in perm] for lv, perm in zip(fc.levels, perms)]
    return FilteredComplex(CochainComplex(cx.field, cx.dims, diffs), levels)


def page_ranks(page):
    return {pq: rank(m) for pq, m in page.diffs.items() if rank(m)}


def test_pages_invariant_under_basis_permutation():
    p = load("ext_heis_center")
    heis = hs_filtration(p.extension_triple, p.representation()).filtered
    for fc, perms in ((aff1_hs_filtration(), [[0], [1, 0], [0]]),
                      (heis, [list(range(d))[::-1] for d in heis.complex.dims])):
        p1, e1, r1 = spectral_pages(fc, 3)
        p2, e2, r2 = spectral_pages(permuted(fc, perms), 3)
        assert e1.dims() == e2.dims()
        assert r1.stable_at == r2.stable_at
        assert [(a.dims(), page_ranks(a)) for a in p1] == [(b.dims(), page_ranks(b)) for b in p2]


def test_edge_maps_trivial_filtration_identity_shaped():
    c = aff1_ce()
    fc = trivial_filtration(c)
    em = edge_maps(fc, spectral_pages(fc, 2)[0][1])
    # restriction H^1 -> E2^{0,1} is the identity on the shared representatives
    assert em.restriction.rows == em.restriction.cols == 1
    assert em.restriction.entries[0][0] == Fraction(1)
    assert em.inflation1.cols == 0
    assert em.all_exact and em.exact == five_term_exactness(em)


def test_edge_maps_aff1_extension():
    fc = aff1_hs_filtration()
    em = edge_maps(fc, spectral_pages(fc, 2)[0][1])
    # 0 -> k -> k -> 0 -> 0 -> 0
    assert em.node_dims == (1, 1, 0, 0, 0)
    assert em.all_exact and em.exact == five_term_exactness(em)


def test_coordinates_reject_vectors_off_the_page():
    # in aff(1), e1* (level 0) is paired with e1*^e2* (level 1): gap 1
    pages, _, _ = spectral_pages(aff1_hs_filtration(), 2)
    e1, e2 = pages
    one = Fraction(1)
    assert e1.coordinates(0, 1, ((0, one),)) == ((0, one),)
    with pytest.raises(EngineError):
        e2.coordinates(0, 1, ((0, one),))    # d_1 of it is nonzero
    with pytest.raises(EngineError):
        e1.coordinates(1, 0, ((0, one),))    # below level 1
    # the level-1 part is in F^1, the denominator at level 0
    assert e2.coordinates(0, 1, ()) == ()
    assert e1.coordinates(0, 1, ((0, one), (1, one))) == ((0, one),)


def test_a_complex_with_nonzero_dd_fails_the_pairing_guard():
    # d1 d0 != 0: row 0 of degree 1 is a pivot of d0, yet its own column of d1 stays
    c = CochainComplex(QQ, [1, 1, 1], [qmat([[1]]), qmat([[1]])], check=False)
    with pytest.raises(EngineError):
        spectral_pages(trivial_filtration(c), 1)


def hand_built_filtrations():
    return [trivial_filtration(abelian2_ce()), trivial_filtration(aff1_ce()),
            trivial_filtration(single_space()), two_step_exact(), aff1_hs_filtration(),
            permuted(aff1_hs_filtration(), [[0], [1, 0], [0]])]


def test_limit_page_is_the_e_infinity_subquotient():
    for fc in hand_built_filtrations():
        pages, einf, _ = spectral_pages(fc, 3)
        assert einf.dims() == limit_page_dims(fc.complex, fc.levels)
        for page in pages:
            assert page.dims() == subquotient_page_dims(fc.complex, fc.levels, page.r)


# -- generated filtered complexes: interval complexes under a change of basis --

@st.composite
def interval_complexes(draw, field):
    """A filtered complex with a known decomposition: intervals (degree, birth
    level, death level), each a coordinate at its birth level sent by d to one
    at its death level a degree up, and unpaired coordinates (degree, level).
    The coordinates of each degree are shuffled, then the basis is changed by
    random elementary steps u_b = e_b + c e_a with e_a earlier than e_b in the
    filtration order, which keep every F^p.  Returns the filtered complex, the
    intervals and the unpaired coordinates."""
    top_degree, top_level = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    level = st.integers(0, top_level)
    intervals = [(s, min(a, b), max(a, b)) for s, a, b in draw(st.lists(
        st.tuples(st.integers(0, top_degree - 1), level, level), max_size=6))] \
        if top_degree else []
    unpaired = draw(st.lists(st.tuples(st.integers(0, top_degree), level), max_size=4))
    coords = [[] for _ in range(top_degree + 1)]
    for k, (s, birth, death) in enumerate(intervals):
        coords[s].append((birth, ("source", k)))
        coords[s + 1].append((death, ("target", k)))
    for s, lv in unpaired:
        coords[s].append((lv, None))
    coords = [[cs[i] for i in draw(st.permutations(range(len(cs))))] for cs in coords]
    levels = [[lv for lv, _ in cs] for cs in coords]
    dims = [len(cs) for cs in coords]
    zero, one = field.zero, field.one
    d = [[[zero] * dims[s] for _ in range(dims[s + 1])] for s in range(top_degree)]
    for s in range(top_degree):
        where = {tag: i for i, (_, tag) in enumerate(coords[s + 1])}
        for j, (_, tag) in enumerate(coords[s]):
            if tag and tag[0] == "source":
                d[s][where[("target", tag[1])]][j] = one
    for s in range(top_degree + 1):
        order = sorted(range(dims[s]), key=lambda j: (-levels[s][j], j))
        for _ in range(draw(st.integers(0, 2 * dims[s])) if dims[s] > 1 else 0):
            x, y = sorted(draw(st.lists(st.integers(0, dims[s] - 1), min_size=2, max_size=2,
                                        unique=True)))
            a, b = order[x], order[y]
            c = field.from_int(draw(st.sampled_from([1, -1, 2, 3])))
            if s < top_degree:
                for row in d[s]:
                    row[b] = row[b] + c * row[a]
            if s > 0:
                d[s - 1][a] = [u - c * v for u, v in zip(d[s - 1][a], d[s - 1][b])]
    diffs = [Matrix.from_rows(field, rows) if rows else Matrix.zero(field, 0, dims[s])
             for s, rows in enumerate(d)]
    cx = CochainComplex(field, dims, diffs)
    return FilteredComplex(cx, levels), intervals, unpaired


def interval_page_dims(intervals, unpaired, r):
    out = Counter((lv, s - lv) for s, lv in unpaired)
    for s, birth, death in intervals:
        if death - birth >= r:
            out[(birth, s - birth)] += 1
            out[(death, s + 1 - death)] += 1
    return dict(out)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F_2", "F_3"])
def test_pages_match_the_intervals_and_the_subquotient_oracle(field):
    @settings(max_examples=120, deadline=None)
    @given(interval_complexes(field))
    def check(generated):
        fc, intervals, unpaired = generated
        gaps = [death - birth for _, birth, death in intervals]
        last = fc.top_level + 2
        pages, einf, report = spectral_pages(fc, last)
        assert report.stable_at == 1 + max(gaps, default=0)
        assert einf.dims() == interval_page_dims([], unpaired, 1) \
            == limit_page_dims(fc.complex, fc.levels)
        for page in pages:
            expected = interval_page_dims(intervals, unpaired, page.r)
            assert page.dims() == expected == subquotient_page_dims(fc.complex, fc.levels, page.r)
            assert sum(rank(m) for m in page.diffs.values()) == gaps.count(page.r)

    check()
