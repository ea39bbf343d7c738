import random
from fractions import Fraction

import pytest

from rinehart.fields import GF, QQ
from rinehart.linalg import (Matrix, Subspace, dense_to_sparse, image_subspace,
                             kernel_subspace, kernel_vectors, rank, rref, solve)


def qmat(rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def pmat(p, rows):
    f = GF(p)
    return Matrix.from_rows(f, [[f.from_int(x) for x in r] for r in rows])


def test_rank_identity():
    assert rank(Matrix.identity(QQ, 2)) == 2


def test_rank_zero_matrix():
    assert rank(Matrix.zero(QQ, 3, 4)) == 0


def test_rank_dependent_rows():
    # hand row-reduction: second row is twice the first
    assert rank(qmat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_is_zero():
    assert kernel_vectors(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_map_is_full():
    ks = kernel_subspace(Matrix.zero(QQ, 2, 3))
    assert ks.dim == 3


def test_kernel_rank_one():
    # solved by hand: x + 2y = 0, spanned by (2, -1) up to scale
    (v,) = kernel_vectors(qmat([[1, 2], [2, 4]]))
    x = dict(v)
    assert x[0] * Fraction(-1) == x[1] * Fraction(2)
    assert any(x.values())


def test_rank_nullity_random_rational():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = qmat([[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(c)]
                  for _ in range(r)])
        assert rank(m) + len(kernel_vectors(m)) == c
        for v in kernel_vectors(m):
            assert m.apply(v) == ()


def test_rank_nullity_random_mod_p():
    f = GF(5)
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = Matrix.from_rows(f, [[f.from_int(rng.randrange(5)) for _ in range(c)]
                                 for _ in range(r)])
        assert rank(m) + len(kernel_vectors(m)) == c
        for v in kernel_vectors(m):
            assert m.apply(v) == ()


def test_rank_matches_sympy_oracle():
    import sympy
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        rows = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(c)]
                for _ in range(r)]
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                 for row in rows]).rank()
        assert rank(qmat(rows)) == expected


def test_solve_and_membership():
    m = qmat([[1, 0, 1], [0, 1, 1]])
    x = solve(m, dense_to_sparse((Fraction(3), Fraction(5))))
    assert x is not None
    assert m.apply(x) == dense_to_sparse((Fraction(3), Fraction(5)))
    assert solve(qmat([[1, 2], [2, 4]]), dense_to_sparse((Fraction(0), Fraction(1)))) is None


def test_rref_is_canonical():
    a = qmat([[2, 4], [1, 3]])
    b = qmat([[1, 3], [2, 4]])
    assert rref(a)[0] == rref(b)[0]


def test_intersect_and_sum():
    one = Fraction(1)
    zero = Fraction(0)
    u = Subspace(QQ, 3, map(dense_to_sparse, [(one, zero, zero), (zero, one, zero)]))
    w = Subspace(QQ, 3, map(dense_to_sparse, [(zero, one, zero), (zero, zero, one)]))
    cap = u.intersect(w)
    assert cap.dim == 1 and cap.contains(dense_to_sparse((zero, one, zero)))
    assert u.add(w).dim == 3


def test_preimage():
    m = qmat([[1, 0], [0, 0]])
    w = Subspace.zero(QQ, 2)
    pre = w.preimage(m)
    assert pre.dim == 1 and pre.contains(dense_to_sparse((Fraction(0), Fraction(1))))


def test_image_subspace_uses_pivot_columns():
    m = qmat([[1, 2, 0], [2, 4, 1]])
    im = image_subspace(m)
    assert im.dim == 2
    assert im.basis[0] == dense_to_sparse((Fraction(1), Fraction(2)))


def test_rank_mod_p_matches_oracle():
    from oracles import rank_mod_p
    rng = random.Random(19)
    for _ in range(30):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        rows = [[rng.randrange(5) for _ in range(c)] for _ in range(r)]
        assert rank(pmat(5, rows)) == rank_mod_p(rows, 5)


def test_shape_mismatch_raises_value_error():
    # user-reachable shape checks must survive python -O
    m = qmat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.apply(((2, Fraction(1)),))
    with pytest.raises(ValueError):
        m.mul(qmat([[1, 2, 3]]))


def test_sub_shape_mismatch_raises_value_error():
    with pytest.raises(ValueError, match="subtract"):
        qmat([[1, 2], [3, 4]]).sub(qmat([[1, 2]]))


def test_preimage_shape_mismatch_raises_value_error():
    with pytest.raises(ValueError, match="preimage"):
        Subspace.zero(QQ, 3).preimage(qmat([[1, 0], [0, 1]]))
