from fractions import Fraction
from math import comb

import pytest

from corpus import POSITIVE, abelian, load
from oracles import dense_vector, mul_vec, pbw_exponent_order, unit_vectors
from rinehart.cecomplex import ce_dims
from rinehart.cli import run
from rinehart.enveloping import (ExactnessReport, TruncatedEnveloping, ext_dims,
                                 hom_complex_iso, rinehart_complex)
from rinehart.errors import EngineError, ExactnessFailure, MismatchAt
from rinehart.fields import QQ
from rinehart.linalg import Matrix, dense_to_sparse


def test_pbw_count_abelian_rank1():
    U = TruncatedEnveloping(abelian(1), 3)
    assert U.dim == 4      # 1, s, s^2, s^3


def test_pbw_count_formula_on_corpus():
    for name in POSITIVE:
        e = load(name)
        L = e.algebroid
        U = TruncatedEnveloping(L, 3)
        assert U.dim == L.m * comb(L.n + 3, 3), name


def test_pbw_basis_order_matches_the_exponent_recursion():
    # the report's table indices are positions in this order
    algebroids = [load(name).algebroid for name in POSITIVE] + \
        [abelian(n) for n in (1, 3, 4, 5)]
    for L in algebroids:
        for cutoff in range(1, 6):
            got = [(a, tuple(alpha.count(t) for t in range(L.n)))
                   for a, alpha in TruncatedEnveloping(L, cutoff).basis]
            assert got == [(a, alpha) for alpha in pbw_exponent_order(L.n, cutoff)
                           for a in range(L.m)], (L.n, L.m, cutoff)


def test_env_report_lists_the_basis_as_exponent_vectors():
    problem = load("fatpoint_rank2")
    report, code = run("env", problem, {"degree": 3})
    L = problem.algebroid
    assert code == 0 and (L.n, L.m) == (2, 2)
    assert report["results"]["pbw_basis"] == [[a, list(alpha)]
                                             for alpha in pbw_exponent_order(L.n, 3)
                                             for a in range(L.m)]


def test_polynomial_table_commutative_with_overflow():
    U = TruncatedEnveloping(abelian(1), 3)
    s1 = (0, (0,))
    s2 = (0, (0, 0))
    prod, ov = U.mul_mono(s1, s2)
    assert not ov and prod == {(0, (0, 0, 0)): QQ.one}
    _, ov2 = U.mul_mono(s2, s2)
    assert ov2


def test_aff1_straightening_single_rewrite():
    # e2 e1 = e1 e2 + [e2, e1] = e1 e2 - e1
    L = load("aff1").algebroid
    U = TruncatedEnveloping(L, 2)
    assert U.dim == 6
    prod, ov = U.mul_mono((0, (1,)), (0, (0,)))
    assert not ov
    assert prod == {(0, (0, 1)): Fraction(1), (0, (0,)): Fraction(-1)}


def test_fatpoint_relation_instance():
    # s x = x s + a(s)(x) = x s + x
    L = load("fatpoint_rank1").algebroid
    U = TruncatedEnveloping(L, 2)
    assert U.dim == 2 * comb(3, 2)
    prod, ov = U.mul_mono((0, (0,)), (1, ()))
    assert not ov
    assert prod == {(1, (0,)): Fraction(1), (1, ()): Fraction(1)}


def test_defining_relations_on_corpus():
    for name in POSITIVE:
        e = load(name)
        L = e.algebroid
        U = TruncatedEnveloping(L, 2)
        # s_i f - f s_i = a(s_i)(f)
        for i in range(L.n):
            for b in range(L.m):
                sf, _ = U.mul(U.section(i), U.coefficient(L.algebra.basis_vector(b)))
                fs, _ = U.mul(U.coefficient(L.algebra.basis_vector(b)), U.section(i))
                diff = dict(sf)
                for mono, c in fs.items():
                    diff[mono] = diff.get(mono, L.field.zero) - c
                diff = {k: v for k, v in diff.items() if v}
                expected = U.coefficient(L.anchors[i].apply(L.algebra.basis_vector(b)))
                assert diff == expected, (name, i, b)
        # s_i s_j - s_j s_i = [s_i, s_j]
        for i in range(L.n):
            for j in range(L.n):
                ss, _ = U.mul(U.section(i), U.section(j))
                ts, _ = U.mul(U.section(j), U.section(i))
                diff = dict(ss)
                for mono, c in ts.items():
                    diff[mono] = diff.get(mono, L.field.zero) - c
                diff = {k: v for k, v in diff.items() if v}
                expected = {}
                for l in range(L.n):
                    for c_idx, cv in enumerate(L.bracket[i][j][l]):
                        if cv:
                            expected[(c_idx, (l,))] = cv
                assert diff == expected, (name, i, j)


def test_straightening_confluence():
    # associativity wherever all degrees stay inside the cutoff
    for name in ("sl2", "aff1", "fatpoint_rank2", "split_example", "heisenberg3_f2"):
        e = load(name)
        U = TruncatedEnveloping(e.algebroid, 3)
        monos = [m for m in U.basis if U.degree(m) <= 1]
        for m1 in monos:
            for m2 in monos:
                for m3 in monos:
                    ab, ov1 = U.mul_mono(m1, m2)
                    ab_c, ov2 = U.mul({k: v for k, v in ab.items()}, {m3: U.field.one})
                    bc, ov3 = U.mul_mono(m2, m3)
                    a_bc, ov4 = U.mul({m1: U.field.one}, bc)
                    assert not (ov1 or ov2 or ov3 or ov4)
                    assert ab_c == a_bc, (name, m1, m2, m3)


def test_augmentation_values():
    L = load("fatpoint_rank1").algebroid
    U = TruncatedEnveloping(L, 2)
    eps = U.augmentation_matrix()
    one_vec = U.to_vector(U.unit())
    assert eps.apply(one_vec) == ((0, Fraction(1)),)
    s_vec = U.to_vector(U.section(0))
    assert eps.apply(s_vec) == ()   # derivations kill 1
    x_vec = U.to_vector(U.coefficient(((1, Fraction(1)),)))
    assert eps.apply(x_vec) == ((1, Fraction(1)),)


def test_action_respects_relations():
    for name in POSITIVE:
        e = load(name)
        L = e.algebroid
        U = TruncatedEnveloping(L, 2)
        R = e.representation()
        for i in range(L.n):
            for b in range(L.m):
                lhs = R.rho[i].mul(R.module.action[b]).sub(R.module.action[b].mul(R.rho[i]))
                rhs = R.module.act_vec(L.anchors[i].apply(L.algebra.basis_vector(b)))
                assert lhs.sub(rhs).is_zero(), name


def test_rinehart_exactness_koszul():
    L = load("abelian2").algebroid
    cx, report = rinehart_complex(L, 3)
    assert report.ok
    assert all(h == 0 for h in report.homology.values())


def test_rinehart_exactness_corpus():
    for name in POSITIVE:
        e = load(name)
        cx, report = rinehart_complex(e.algebroid, 3)
        assert report.ok, name


def test_partial_is_u_linear_in_u():
    # partial(v (u (x) w)) = v partial(u (x) w) for degree <= 1 left factors v
    for name in ("sl2", "fatpoint_rank2"):
        e = load(name)
        L = e.algebroid
        cx, _ = rinehart_complex(L, 3)
        U = cx.U
        f = L.field
        for i in range(1, L.n + 1):
            pm = cx.partials[i]
            idx_i = {b: t for t, b in enumerate(cx.bases[i])}
            idx_prev = {b: t for t, b in enumerate(cx.bases[i - 1])}
            for v in [m for m in U.basis if U.degree(m) <= 1]:
                for (mono, J) in cx.bases[i]:
                    if U.degree(v) + U.degree(mono) + i > U.cutoff:
                        continue
                    moved, ov = U.mul_mono(v, mono)
                    assert not ov
                    # v . partial(u (x) J)
                    img = pm.apply(((idx_i[(mono, J)], f.one),))
                    lhs = {}
                    for t, c in img:
                        m2, J2 = cx.bases[i - 1][t]
                        prod, ov2 = U.mul_mono(v, m2)
                        assert not ov2
                        for m3, c3 in prod.items():
                            key = (m3, J2)
                            lhs[key] = lhs.get(key, f.zero) + c * c3
                    # partial(v u (x) J)
                    col2 = tuple(sorted((idx_i[(m2, J)], c) for m2, c in moved.items() if c))
                    img2 = pm.apply(col2)
                    rhs = {}
                    for t, c in img2:
                        rhs[cx.bases[i - 1][t]] = c
                    lhs = {k: v2 for k, v2 in lhs.items() if v2}
                    rhs = {k: v2 for k, v2 in rhs.items() if v2}
                    assert lhs == rhs, (name, i, v, mono, J)


def resolution_ext(L, R, d):
    cx, report = rinehart_complex(L, d)
    return ext_dims(report, hom_complex_iso(cx, R))


def test_hom_iso_aff1_hand_matrices():
    e = load("aff1")
    cert = hom_complex_iso(rinehart_complex(e.algebroid, 3)[0], e.representation())
    # trivial coefficients: d0 = 0, transferred d1 = (-1 0) including the sign
    assert cert.transferred[0].is_zero()
    assert cert.transferred[1].entries == ((Fraction(-1), Fraction(0)),)


def test_hom_iso_corpus():
    for name in POSITIVE:
        e = load(name)
        cert = hom_complex_iso(rinehart_complex(e.algebroid, 3)[0], e.representation())
        assert cert.ok, name


def test_hom_iso_sl2_adjoint():
    e = load("sl2_adjoint")
    cert = hom_complex_iso(rinehart_complex(e.algebroid, 3)[0], e.module)
    shapes = [(m.rows, m.cols) for m in cert.transferred]
    assert shapes == [(9, 3), (9, 9), (3, 9)]


def test_hom_iso_reads_the_resolution():
    # corrupt one entry of the generator column 1 (x) s_0 s_1 of partial_2: the
    # bracket term -[s_0, s_1] (x) 1 = -1 (x) s_2; the transfer must notice
    e = load("heisenberg3")
    cx, _ = rinehart_complex(e.algebroid, 3)
    U = cx.U
    unit_mono = (0, ())
    col = cx.bases[2].index((unit_mono, (0, 1)))
    row = cx.bases[1].index((unit_mono, (2,)))
    rows = [list(r) for r in cx.partials[2].entries]
    assert rows[row][col] == -U.field.one
    rows[row][col] = -rows[row][col]
    cx.partials[2] = Matrix.from_rows(U.field, rows)
    with pytest.raises(MismatchAt) as err:
        hom_complex_iso(cx, e.representation())
    assert err.value.degree == 1


def test_hom_iso_below_the_rank_transfers_what_exists():
    # at cutoff 2 the resolution of h_3 has no generator in degree 3
    e = load("heisenberg3")
    cx, report = rinehart_complex(e.algebroid, 2)
    cert = hom_complex_iso(cx, e.representation())
    assert cert.degrees == [0, 1]
    assert cert.ok is False
    assert [d for _, d in ext_dims(report, cert)] == [1, 2, 2, 1]


def test_ext_dims_refuses_an_inexact_resolution():
    e = load("aff1")
    cx, _ = rinehart_complex(e.algebroid, 3)
    bad = ExactnessReport(3, {(1, 1): 1}, {})
    with pytest.raises(ExactnessFailure):
        ext_dims(bad, hom_complex_iso(cx, e.representation()))


def test_resolution_overflow_is_an_engine_error(monkeypatch):
    monkeypatch.setattr(TruncatedEnveloping, "rmul_s_mono", lambda self, mono, j: ({}, True))
    with pytest.raises(EngineError, match="escaped"):
        rinehart_complex(load("aff1").algebroid, 2)


def test_ext_dims_match_ce_corpus():
    for name in POSITIVE:
        e = load(name)
        exts = resolution_ext(e.algebroid, e.representation(), 3)
        assert [d for _, d in exts] == ce_dims(e.algebroid, e.representation()), name


def test_ext_dims_examples():
    e = load("abelian2")
    assert [d for _, d in resolution_ext(e.algebroid, e.representation(), 3)] == [1, 2, 1]
    e = load("sl2")
    assert [d for _, d in resolution_ext(e.algebroid, e.representation(), 3)] == [1, 0, 0, 1]
    e = load("fatpoint_rank1")
    assert [d for _, d in resolution_ext(e.algebroid, e.representation(), 3)] == [1, 1]


def test_table_export_is_deterministic():
    L = load("aff1").algebroid
    t1 = TruncatedEnveloping(L, 2).table()
    t2 = TruncatedEnveloping(L, 2).table()
    assert t1 == t2
    _, overflow = t1[0][0]   # row 0, its first cell: the (0, 0) product
    assert overflow is False


def test_augmentation_is_left_a_linear_and_onto():
    # eps(f u) = f eps(u), and the image of eps on every level is all of A
    for name in ("fatpoint_rank1", "split_example"):
        e = load(name)
        L = e.algebroid
        U = TruncatedEnveloping(L, 2)
        eps = U.augmentation_matrix()
        alg = L.algebra
        for b in range(L.m):
            for mono in U.basis:
                fu, ov = U.mul(U.coefficient(alg.basis_vector(b)), {mono: L.field.one})
                assert not ov
                lhs = eps.apply(U.to_vector(fu))
                image = eps.apply(U.to_vector({mono: L.field.one}))
                rhs = mul_vec(alg, unit_vectors(alg)[b], dense_vector(image, L.m, L.field.zero))
                assert lhs == dense_to_sparse(rhs), (name, b, mono)
        from rinehart.linalg import rank as _rank
        assert _rank(eps) == L.m
