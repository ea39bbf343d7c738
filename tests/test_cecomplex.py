from fractions import Fraction

import pytest

from rinehart.algebroid import invariants
from rinehart.cecomplex import RepComplex, ce_complex, ce_dims, total_complex
from rinehart.complexes import total_cohomology_dims
from rinehart.errors import NotEquivariant
from rinehart.linalg import Matrix, Subspace

from corpus import CE_DIMS, POSITIVE, load
from oracles import lie_ce_dims_bruteforce


def test_frozen_classical_dims():
    for name, dims in CE_DIMS.items():
        p = load(name)
        assert ce_dims(p.algebroid, p.representation()) == dims, name


def lie_data(p):
    L = p.algebroid
    rep = p.representation()
    coeffs = [[[L.bracket[i][j][l][0] for l in range(L.n)] for j in range(L.n)]
              for i in range(L.n)]
    rho = [[[x for x in row] for row in m.entries] for m in rep.rho]
    return L.n, coeffs, rho


def test_lie_algebra_dims_match_bruteforce_oracle():
    for name in ("abelian2", "sl2", "heisenberg3", "aff1"):
        e = load(name)
        n, coeffs, rho = lie_data(e)
        coeffs = [[[Fraction(x) for x in r] for r in p] for p in coeffs]
        rho_q = [[[Fraction(x) for x in row] for row in m] for m in rho]
        assert ce_dims(e.algebroid, e.representation()) == \
            lie_ce_dims_bruteforce(n, coeffs, rho_q), name


def test_sl2_adjoint_matches_bruteforce_oracle():
    e = load("sl2_adjoint")
    rep = e.module
    n, coeffs, rho = lie_data(e)
    coeffs = [[[Fraction(x) for x in r] for r in p] for p in coeffs]
    rho_q = [[[Fraction(x) for x in row] for row in m] for m in rho]
    # Whitehead: adjoint cohomology of sl2 over Q vanishes
    dims = ce_dims(e.algebroid, rep)
    assert dims == lie_ce_dims_bruteforce(n, coeffs, rho_q)
    assert dims == [0, 0, 0, 0]


def test_f2_entries_match_mod_p_oracle():
    for name in ("heisenberg3_f2", "sl2_f2"):
        e = load(name)
        L = e.algebroid
        coeffs = [[[L.bracket[i][j][l][0].v for l in range(L.n)] for j in range(L.n)]
                  for i in range(L.n)]
        rho = [[[x.v for x in row] for row in m.entries] for m in e.representation().rho]
        assert ce_dims(L, e.representation()) == \
            lie_ce_dims_bruteforce(L.n, coeffs, rho, mod_p=2), name


def test_characteristic_dependence_of_sl2_table():
    sl2, sl2_f2 = load("sl2"), load("sl2_f2")
    over_q = ce_dims(sl2.algebroid, sl2.representation())
    over_f2 = ce_dims(sl2_f2.algebroid, sl2_f2.representation())
    assert over_q == [1, 0, 0, 1]
    assert over_f2 == [1, 2, 2, 1]   # 2e = 0 degenerates the table to a Heisenberg one
    assert over_q != over_f2


def test_fatpoint_rank1_complex_shape():
    e = load("fatpoint_rank1")
    ce = ce_complex(e.algebroid, e.representation())
    # A -> A, d(f) = x f': rank 1 differential
    assert ce.complex.dims == [2, 2]
    assert ce_dims(e.algebroid, e.representation()) == [1, 1]


def test_degree_zero_cohomology_equals_invariants():
    for name in POSITIVE:
        e = load(name)
        ce = ce_complex(e.algebroid, e.representation())
        h = ce.complex.cohomology(0)
        dim, reps = h.dim, h.reps
        inv = invariants(e.algebroid, e.representation())
        assert dim == inv.dim, name
        if dim:
            assert Subspace.span(e.field, inv.ambient_dim, reps).equals(inv), name


def test_euler_characteristic():
    for name in POSITIVE:
        e = load(name)
        ce = ce_complex(e.algebroid, e.representation())
        dims = ce.complex.dims
        hs = total_cohomology_dims(ce.complex)
        chi_spaces = sum((-1) ** p * d for p, d in enumerate(dims))
        chi_h = sum((-1) ** p * d for p, d in enumerate(hs))
        assert chi_spaces == chi_h, name


def test_isomorphic_representations_same_dims():
    # conjugate the adjoint representation of sl2 by an invertible change of basis
    e = load("sl2_adjoint")
    rep = e.module
    f = e.field
    g = Matrix.from_rows(f, [[Fraction(x) for x in row]
                             for row in [[1, 1, 0], [0, 1, 0], [0, 0, 1]]])
    ginv = Matrix.from_rows(f, [[Fraction(x) for x in row]
                                for row in [[1, -1, 0], [0, 1, 0], [0, 0, 1]]])
    from rinehart.algebroid import Representation
    conj = Representation(rep.module, [g.mul(r).mul(ginv) for r in rep.rho])
    assert ce_dims(e.algebroid, rep) == ce_dims(e.algebroid, conj)


def one_term_complex(p):
    return RepComplex([p.representation()], [])


def test_total_complex_single_term_equals_ce():
    e = load("heisenberg3")
    t = total_complex(e.algebroid, one_term_complex(e))
    assert total_cohomology_dims(t) == ce_dims(e.algebroid, e.representation())


def test_total_complex_identity_cone_is_exact():
    e = load("heisenberg3")
    rep = e.representation()
    c = RepComplex([rep, rep], [Matrix.identity(e.algebroid.field, 1)])
    t = total_complex(e.algebroid, c)
    assert total_cohomology_dims(t) == [0] * len(t.dims)


def test_total_complex_zero_map_kunneth_count():
    e = load("abelian2")
    rep = e.representation()
    c = RepComplex([rep, rep], [Matrix.zero(e.algebroid.field, 1, 1)])
    t = total_complex(e.algebroid, c)
    assert total_cohomology_dims(t) == [1, 3, 3, 1]


def test_equivariant_map_that_is_not_a_linear_is_a_violation():
    e = load("fatpoint_rank1")
    rep = e.representation()
    f = e.algebroid.field
    # the projection onto the coefficient of 1 commutes with s = x d/dx, which
    # kills 1, but not with x-multiplication: it sends x . 1 = x to 0
    delta = Matrix.from_rows(f, [[f.one, f.zero], [f.zero, f.zero]])
    violations = RepComplex([rep, rep], [delta]).validate(e.algebroid)
    assert [(v.axiom, v.indices) for v in violations] == [("map-not-A-linear", (0, 1))]


def test_total_complex_rejects_non_equivariant_map():
    e = load("fatpoint_rank1")
    rep = e.representation()
    f = e.algebroid.field
    # x-multiplication is A-linear but not equivariant for the anchor action:
    # s(x f) - x s(f) = x f, so delta = act(x) does not commute with rho(s)
    delta = rep.module.action[1]
    c = RepComplex([rep, rep], [delta])
    with pytest.raises(NotEquivariant):
        total_complex(e.algebroid, c)
