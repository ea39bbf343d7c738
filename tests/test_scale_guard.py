"""Problems that are large as linear algebra but small as mathematics must stay
cheap: abelian k^10 and k^12 have 1024 and 4096 cochains and zero
differentials, sl2 at PBW degree 6 has an 84-dimensional truncated
enveloping algebra, the Hochschild-Serre pages of h_9 over its centre
filter 512 cochains by 9 levels, and the extension checks of a rank-4 fat
point over k[x]/(x^12) bracket every pair of its 48 k-basis elements.  Each
run takes about a second or less when matrices and vectors walk only their
nonzero entries and the pages come from one reduction of each differential."""

from math import comb

import pytest

from rinehart import cli
from rinehart.algebra import FiniteAlgebra
from rinehart.algebroid import LieRinehartAlgebroid
from rinehart.fields import GF, QQ
from rinehart.linalg import Matrix
from rinehart.problems import ProblemFile


def lie_problem(field, n, brackets, extension=None):
    """A Lie algebra over A = k, with [s_i, s_j] = c s_l for each (i, j, l, c)."""
    one, zero = field.one, field.zero
    alg = FiniteAlgebra(field, 1, [[(one,)]], (one,))
    table = [[[(zero,)] * n for _ in range(n)] for _ in range(n)]
    for i, j, l, c in brackets:
        table[i][j][l] = (field.from_int(c),)
        table[j][i][l] = (field.from_int(-c),)
    L = LieRinehartAlgebroid(alg, n, [Matrix.zero(field, 1, 1)] * n, table)
    return ProblemFile(field, alg, L, extension=extension)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_abelian_k10_cohomology(field):
    report, code = cli.run("cohomology", lie_problem(field, 10, []))
    assert code == 0, report
    assert report["results"]["dims"] == [comb(10, p) for p in range(11)]


def test_abelian_k12_cohomology_over_f101():
    # 4096 cochains whose representatives are all unit vectors
    report, code = cli.run("cohomology", lie_problem(GF(101), 12, []))
    assert code == 0, report
    assert report["results"]["dims"] == [comb(12, p) for p in range(13)]


def test_sl2_ext_at_degree_6():
    # basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f
    problem = lie_problem(QQ, 3, [(0, 1, 2, 1), (2, 0, 0, 2), (2, 1, 1, -2)])
    report, code = cli.run("env", problem, {"degree": 6})
    assert code == 0, report
    assert report["results"]["pbw_dim"] == comb(9, 3)
    assert report["results"]["ext_dims"] == [1, 0, 0, 1]


def test_heisenberg9_hs_over_its_centre_over_f101():
    # h_9: [x_i, y_i] = z for i < 4, kernel the centre z
    problem = lie_problem(GF(101), 9, [(i, 4 + i, 8, 1) for i in range(4)], {"k_indices": [8]})
    report, code = cli.run("hs", problem)
    assert code == 0, report
    results = report["results"]
    # H^p(h_9) = C(8, p) - C(8, p - 2) for p <= 4, and Poincare duality above
    low = [comb(8, p) - (comb(8, p - 2) if p >= 2 else 0) for p in range(5)]
    totals = low + low[::-1]
    assert [(c["einf_total"], c["h_total"]) for _, c in sorted(
        results["convergence"].items(), key=lambda kv: int(kv[0]))] == list(zip(totals, totals))
    assert results["stable_at"] == 3


def fat_point_problem(field, j, rank, extension):
    """A = k[x]/(x^j); a(s_1) = x d/dx, a(s_i) = 0 and [s_1, s_i] = s_i for i > 1."""
    one, zero = field.one, field.zero
    e = [tuple(one if t == c else zero for t in range(j)) for c in range(j)]
    nil = tuple(zero for _ in range(j))
    alg = FiniteAlgebra(field, j, [[e[a + b] if a + b < j else nil for b in range(j)]
                                   for a in range(j)], e[0])
    x_ddx = Matrix.from_rows(field, [[field.from_int(a) if a == b else zero for b in range(j)]
                                     for a in range(j)])
    table = [[[nil] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(1, rank):
        table[0][i] = [e[0] if t == i else nil for t in range(rank)]
        table[i][0] = [tuple(-x for x in e[0]) if t == i else nil for t in range(rank)]
    L = LieRinehartAlgebroid(alg, rank, [x_ddx] + [Matrix.zero(field, j, j)] * (rank - 1), table)
    return ProblemFile(field, alg, L, extension=extension)


def test_fat_point_x12_rank4_hs_over_f101():
    # kernel <s_3, s_4>: an ideal with zero anchor, checked on 48 k-basis elements
    problem = fat_point_problem(GF(101), 12, 4, {"k_indices": [2, 3]})
    report, code = cli.run("hs", problem)
    assert code == 0, report
    results = report["results"]
    assert results["graded_ok"] is True
    convergence = results["convergence"].values()
    assert convergence and all(c["einf_total"] == c["h_total"] for c in convergence)
