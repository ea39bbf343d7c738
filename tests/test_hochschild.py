from itertools import product

from rinehart.cecomplex import ce_dims
from rinehart.complexes import total_cohomology_dims
from rinehart.extensions import adapt, extension_from_k_indices
from rinehart.hochschild import (check_e1, check_e2, five_term, hs_filtration,
                                 hs_pages, hs_report)
from rinehart.problems import parse

from corpus import EXTENSIONS, PROBLEMS, load
from oracles import (five_term_exactness, limit_page_dims, subquotient_page_dims,
                     tensor_module_e1_dims)


def make(name):
    p = load(name)
    return p, p.extension_triple


def test_filtration_k0_concentrates_on_diagonal():
    entry, E = make("ext_k0")
    hf = hs_filtration(E, entry.representation())
    # K = 0: gr concentrates on p = degree
    for (p, s), (got, _) in hf.graded.items():
        if got:
            assert p == s
    assert hf.graded_ok


def test_filtration_q0_concentrates_at_p0():
    entry, E = make("ext_q0")
    hf = hs_filtration(E, entry.representation())
    for (p, s), (got, _) in hf.graded.items():
        if got:
            assert p == 0
    assert hf.graded_ok


def test_filtration_aff1_degree_one_dims():
    entry, E = make("ext_aff1")
    hf = hs_filtration(E, entry.representation())
    chain = [sum(level >= p for level in hf.filtered.levels[1]) for p in range(3)]
    assert chain == [2, 1, 0]
    assert hf.graded_ok


def test_pages_aff1():
    entry, E = make("ext_aff1")
    hp = hs_pages(E, entry.representation(), r_max=2)
    assert hp.page(1).dims() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert hp.page(2).dims() == {(0, 0): 1, (1, 0): 1}
    assert hp.einf.dims() == {(0, 0): 1, (1, 0): 1}
    assert hp.converged
    assert hp.convergence == {0: (1, 1), 1: (1, 1), 2: (0, 0)}


def test_pages_k0_degenerate():
    entry, E = make("ext_k0")
    hp = hs_pages(E, entry.representation(), r_max=2)
    assert hp.page(2).dims() == {(0, 0): 1, (1, 0): 1}
    assert hp.converged


def test_pages_q0_trivial_filtration():
    entry, E = make("ext_q0")
    hp = hs_pages(E, entry.representation())
    assert hp.einf.dims() == {(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1}
    assert hp.stable_at == 1
    assert hp.converged


def test_pages_heisenberg_transgression():
    entry, E = make("ext_heis_center")
    hp = hs_pages(E, entry.representation(), r_max=3)
    e2 = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1}
    assert hp.page(2).dims() == e2
    # d2 transgresses K^* onto Lambda^2 Q^*: two classes die
    assert hp.einf.dims() == {(0, 0): 1, (1, 0): 2, (1, 1): 2, (2, 1): 1}
    d2 = hp.page(2).diffs[(0, 1)]
    from rinehart.linalg import rank
    assert rank(d2) == 1
    assert hp.convergence == {0: (1, 1), 1: (2, 2), 2: (2, 2), 3: (1, 1)}


def test_pages_fatpoint():
    entry, E = make("ext_fatpoint")
    hp = hs_pages(E, entry.representation(), r_max=2)
    assert total_cohomology_dims(adapt(E, entry.representation()).ce_kernel.complex) == [2, 2]
    assert hp.page(2).dims() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert hp.converged
    assert ce_dims(entry.algebroid, entry.representation()) == [1, 2, 1]


def test_e1_identification_whole_corpus():
    for name in EXTENSIONS:
        entry, E = make(name)
        cert = check_e1(hs_pages(E, entry.representation()))
        assert cert.ok, name


def test_e1_matches_the_tensor_module_oracle_corpus_files_over_three_fields():
    files = sorted(PROBLEMS.glob("ext_*.json"))
    assert len(files) == 5
    for path, field in product(files, ({"type": "rational"}, {"type": "prime", "p": 2},
                                       {"type": "prime", "p": 101})):
        problem = parse(path, field)
        hp = hs_pages(problem.extension_triple, problem.representation())
        expected = tensor_module_e1_dims(hp.filtration.adapted)
        assert check_e1(hp).table == {pq: (hp.page(1).dim(*pq), dim)
                                      for pq, dim in expected.items()}, (path.name, field)


def test_e2_identification_whole_corpus():
    for name in EXTENSIONS:
        entry, E = make(name)
        cert = check_e2(hs_pages(E, entry.representation()))
        assert cert.ok, name


def test_e1_aff1_table():
    entry, E = make("ext_aff1")
    cert = check_e1(hs_pages(E, entry.representation()))
    assert cert.table[(0, 0)] == (1, 1)
    assert cert.table[(1, 1)] == (1, 1)


def test_e2_aff1_table():
    entry, E = make("ext_aff1")
    cert = check_e2(hs_pages(E, entry.representation()))
    assert {pq: got for pq, (got, _) in cert.table.items()} == \
        {(0, 0): 1, (1, 0): 1, (0, 1): 0, (1, 1): 0}


def test_five_term_whole_corpus():
    for name in EXTENSIONS:
        entry, E = make(name)
        ft = five_term(hs_pages(E, entry.representation()))
        assert ft.all_exact, name


def test_five_term_exactness_matches_the_subspace_oracle_whole_corpus():
    for name in EXTENSIONS:
        entry, E = make(name)
        ft = five_term(hs_pages(E, entry.representation()))
        assert ft.exact == five_term_exactness(ft), name


def test_five_term_aff1_dims():
    entry, E = make("ext_aff1")
    ft = five_term(hs_pages(E, entry.representation()))
    assert ft.node_dims == (1, 1, 0, 0, 0)


def test_five_term_heisenberg_dims():
    entry, E = make("ext_heis_center")
    ft = five_term(hs_pages(E, entry.representation()))
    assert ft.node_dims == (2, 2, 1, 1, 2)
    from rinehart.linalg import rank
    assert rank(ft.transgression) == 1


def test_hs_report_bundle():
    entry, E = make("ext_heis_center")
    hp, e1, e2, ft = hs_report(E, entry.representation())
    assert hp.converged and e1.ok and e2.ok and ft.all_exact


def test_full_spectral_machinery_over_f2():
    # same central extension, coefficients in F_2: the engine runs entirely mod 2
    entry = load("heisenberg3_f2")
    E = extension_from_k_indices(entry.algebroid, [2])
    hp = hs_pages(E, entry.representation(), r_max=3)
    assert hp.filtration.graded_ok
    assert check_e1(hp).ok
    assert check_e2(hp).ok
    assert hp.converged
    assert five_term(hp).all_exact
    assert hp.convergence == {0: (1, 1), 1: (2, 2), 2: (2, 2), 3: (1, 1)}


def test_limit_page_is_the_e_infinity_subquotient_whole_corpus():
    # every page, the limit page included, against the generic subquotient formulas
    for name in EXTENSIONS:
        entry, E = make(name)
        hp = hs_pages(E, entry.representation(), r_max=4)
        fc = hp.filtration.filtered
        assert hp.einf.dims() == limit_page_dims(fc.complex, fc.levels), name
        for page in hp.pages:
            assert page.dims() == subquotient_page_dims(fc.complex, fc.levels, page.r), \
                (name, page.r)
