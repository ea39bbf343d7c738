"""Property tests for the elimination engine against sympy (over Q) and the
brute-force rank oracle (over F_5), on small sparse matrices with zero rows,
duplicate rows and all-zero matrices; for every sparse `Matrix` operation
against the dense reference in oracles.py, over Q and F_5, on shapes down to
0 x n and n x 0; and for the subspace calculus on sparse vectors against
dense ranks and reduced echelon forms, checking that no vector it returns
stores a zero or an index out of order."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (dense_add_block, dense_apply, dense_combination, dense_mul, dense_scale,
                     dense_sub, dense_transpose, dense_vector, rank_mod_p, rref_mod_p,
                     sparse_rows)
from rinehart.complexes import Cohomology
from rinehart.fields import GF, QQ
from rinehart.linalg import (Matrix, Subspace, add_block, combination, complete_basis,
                             dense_to_sparse, kernel_vectors, rank, rref, solve)
from rinehart.problems import fmt_vector

F5 = GF(5)
SETTINGS = settings(max_examples=150, deadline=None)

# mostly zeros, a few small integers and fractions
Q_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
F5_ENTRIES = st.sampled_from([0, 0, 0, 1, 2, 3, 4])


@st.composite
def int_rows(draw, entries, max_rows=8, max_cols=10):
    """Row lists of one width; some rows are repeated and some zeroed."""
    c = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[i]) if draw(st.booleans()) else [0] * c)
    return c, rows


def qmat(c, rows):
    return Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows]) if rows \
        else Matrix.zero(QQ, 0, c)


def smat(c, rows):
    return sympy.Matrix(rows) if rows else sympy.zeros(0, c)


def frac(x):
    return Fraction(int(x.p), int(x.q))


def q_rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


def f5_rank(rows):
    return rank_mod_p(rows, 5) if rows else 0


def greedy(rank_of, start, candidates):
    """Candidates that raise the oracle rank of start, kept in order."""
    kept, cur = [], list(start)
    for v in candidates:
        if rank_of(cur + [v]) > len(cur):
            kept.append(v)
            cur.append(v)
    return kept


@SETTINGS
@given(int_rows(Q_ENTRIES))
@example((3, [[0, 0, 0], [0, 0, 0]]))
@example((4, []))
def test_rref_and_kernel_match_sympy(case):
    c, rows = case
    m, s = qmat(c, rows), smat(c, rows)
    red, pivots = s.rref()
    ours, our_pivots = rref(m)
    assert our_pivots == list(pivots)
    assert ours == [dense_to_sparse(frac(x) for x in red.row(i)) for i in range(len(pivots))]
    assert rank(m) == len(pivots)
    assert kernel_vectors(m) == [dense_to_sparse(frac(x) for x in v) for v in s.nullspace()]


@SETTINGS
@given(int_rows(Q_ENTRIES), st.lists(Q_ENTRIES, min_size=10, max_size=10), st.booleans())
def test_solve_matches_sympy_consistency(case, xs, consistent):
    c, rows = case
    m, s = qmat(c, rows), smat(c, rows)
    if consistent:
        b = m.apply(dense_to_sparse(Fraction(x) for x in xs[:c]))
    else:
        b = dense_to_sparse(Fraction(x) for x in xs[:len(rows)])
    x = solve(m, b)
    augmented = s.row_join(sympy.Matrix(len(rows), 1, list(dense_vector(b, len(rows), 0))))
    if augmented.rank() > s.rank():
        assert x is None
        return
    assert x is not None and m.apply(x) == b
    _, pivots = s.rref()
    assert all(j in pivots for j, _ in x)


@SETTINGS
@given(int_rows(F5_ENTRIES))
@example((5, [[0] * 5]))
def test_rank_mod_5_matches_oracle(case):
    c, rows = case
    m = Matrix.from_rows(F5, [[F5.from_int(x) for x in r] for r in rows]) if rows \
        else Matrix.zero(F5, 0, c)
    assert rank(m) == f5_rank(rows)
    for v in kernel_vectors(m):
        assert m.apply(v) == ()


@pytest.mark.parametrize("field, to_field, rank_of, entries", [
    (QQ, Fraction, q_rank, Q_ENTRIES),
    (F5, F5.from_int, f5_rank, F5_ENTRIES),
])
def test_span_and_complete_basis_match_greedy_oracle(field, to_field, rank_of, entries):
    @SETTINGS
    @given(int_rows(entries), st.integers(0, 8))
    def check(case, split):
        c, rows = case
        vecs = [dense_to_sparse(to_field(x) for x in r) for r in rows]
        kept = greedy(rank_of, [], rows)
        sub = Subspace.span(field, c, vecs)
        assert sub.basis == [dense_to_sparse(to_field(x) for x in r) for r in kept]
        assert all(sub.contains(v) for v in vecs)
        base = Subspace.span(field, c, vecs[:split])
        before = (list(base.basis), base.canonical())
        start = greedy(rank_of, [], rows[:split])
        extra = complete_basis(base, vecs[split:])
        assert extra == [dense_to_sparse(to_field(x) for x in r)
                         for r in greedy(rank_of, start, rows[split:])]
        assert (base.basis, base.canonical()) == before

    check()


@pytest.mark.parametrize("field, to_field, rank_of, entries", [
    (QQ, Fraction, q_rank, Q_ENTRIES),
    (F5, F5.from_int, f5_rank, F5_ENTRIES),
])
def test_subspace_rejects_a_dependent_basis(field, to_field, rank_of, entries):
    @SETTINGS
    @given(int_rows(entries))
    def check(case):
        c, rows = case
        dense = [tuple(to_field(x) for x in r) for r in rows]
        vecs = list(map(dense_to_sparse, dense))
        if rank_of(rows) < len(rows):
            with pytest.raises(ValueError, match="dependent"):
                Subspace(field, c, vecs)
        else:
            sub = Subspace(field, c, vecs)
            assert sub.basis == vecs
            assert sub.canonical() == (rref(Matrix.from_rows(field, dense))[0] if vecs else [])

    check()


def test_subspace_rejects_a_repeated_vector():
    v = ((0, Fraction(1)), (1, Fraction(2)))
    with pytest.raises(ValueError, match="dependent"):
        Subspace(QQ, 2, [v, tuple((j, 2 * x) for j, x in v)])


# -- the sparse Matrix against the dense reference in oracles.py --------------

SIZES = st.integers(0, 4)
MATRIX_FIELDS = [QQ, F5]


def values(field):
    if field is QQ:
        return Q_ENTRIES.map(Fraction)
    return F5_ENTRIES.map(F5.from_int)


@st.composite
def dense(draw, field, r, c):
    """An r x c list of row lists, mostly zeros, sometimes with a zero row or column."""
    rows = [[draw(values(field)) for _ in range(c)] for _ in range(r)]
    if r and draw(st.booleans()):
        rows[draw(st.integers(0, r - 1))] = [field.zero] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in rows:
            row[j] = field.zero
    return rows


@st.composite
def nearby(draw, field, rows):
    """rows with some entries redrawn, so that differences often cancel."""
    return [[x if draw(st.booleans()) else draw(values(field)) for x in row] for row in rows]


def mat(field, rows, cols):
    return Matrix(field, len(rows), cols, sparse_rows(rows))


def assert_is(m, rows, cols):
    """m is the sparse form of the dense rows: shape, entries, no stored zero."""
    assert (m.rows, m.cols) == (len(rows), cols)
    assert m.data == sparse_rows(rows)
    assert m.entries == tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_from_rows_drops_explicit_zeros(field, data):
    r, c = data.draw(st.integers(1, 4)), data.draw(SIZES)
    rows = data.draw(dense(field, r, c))
    m = Matrix.from_rows(field, rows)
    assert_is(m, rows, c)
    twin = mat(field, rows, c)
    assert m == twin and hash(m) == hash(twin)


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_mul_and_apply_match_dense(field, data):
    r, k, c = data.draw(SIZES), data.draw(SIZES), data.draw(SIZES)
    a, b = data.draw(dense(field, r, k)), data.draw(dense(field, k, c))
    assert_is(mat(field, a, k).mul(mat(field, b, c)), dense_mul(a, b, c, field.zero), c)
    v = tuple(data.draw(values(field)) for _ in range(k))
    assert mat(field, a, k).apply(dense_to_sparse(v)) == dense_to_sparse(dense_apply(a, v, field.zero))


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_sub_and_scale_match_dense(field, data):
    r, c = data.draw(SIZES), data.draw(SIZES)
    a = data.draw(dense(field, r, c))
    b = data.draw(nearby(field, a))
    assert_is(mat(field, a, c).sub(mat(field, b, c)), dense_sub(a, b), c)
    s = data.draw(values(field))
    assert_is(mat(field, a, c).scale(s), dense_scale(a, s), c)


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_transpose_column_and_is_zero_match_dense(field, data):
    r, c = data.draw(SIZES), data.draw(SIZES)
    a = data.draw(dense(field, r, c))
    m = mat(field, a, c)
    t = dense_transpose(a, c)
    assert_is(m.transpose(), t, r)
    assert [m.column(j) for j in range(c)] == [dense_to_sparse(col) for col in t]
    assert m.is_zero() == (not any(x for row in a for x in row))


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_combination_matches_dense(field, data):
    r, c = data.draw(SIZES), data.draw(SIZES)
    terms = [(data.draw(values(field)), data.draw(dense(field, r, c)))
             for _ in range(data.draw(st.integers(0, 3)))]
    if terms and data.draw(st.booleans()):
        coeff, first = terms[0]
        terms.append((-coeff, data.draw(nearby(field, first))))
    got = combination(field, r, c, [(s, mat(field, m, c)) for s, m in terms])
    assert_is(got, dense_combination(terms, r, c, field.zero), c)


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_add_block_matches_dense(field, data):
    r, c = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows, want = [{} for _ in range(r)], [[field.zero] * c for _ in range(r)]
    for _ in range(data.draw(st.integers(0, 4))):
        br, bc = data.draw(st.integers(0, r)), data.draw(st.integers(0, c))
        r0, c0 = data.draw(st.integers(0, r - br)), data.draw(st.integers(0, c - bc))
        block = data.draw(dense(field, br, bc))
        for sign in data.draw(st.sampled_from([(1,), (-1,), (1, -1)])):
            add_block(rows, r0, c0, mat(field, block, bc), sign)
            dense_add_block(want, r0, c0, block, sign)
    assert_is(Matrix.from_dicts(field, c, rows), want, c)


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_equality_and_hash_follow_the_entries(field, data):
    r, c = data.draw(SIZES), data.draw(SIZES)
    a = data.draw(dense(field, r, c))
    b = data.draw(nearby(field, a))
    m, n = mat(field, a, c), mat(field, b, c)
    assert (m == n) == (a == b)
    if a == b:
        assert hash(m) == hash(n)
    assert m != Matrix.zero(field, r, c + 1)


def test_cancelled_entries_are_not_stored():
    one = Fraction(1)
    a = Matrix.from_rows(QQ, [[one, one]])
    b = Matrix.from_rows(QQ, [[one], [-one]])
    zero = Matrix.zero(QQ, 1, 1)
    assert a.mul(b) == zero and a.mul(b).data == ((),)
    assert a.sub(a).data == ((),) and a.scale(Fraction(0)).data == ((),)
    assert combination(QQ, 1, 2, [(one, a), (-one, a)]).data == ((),)
    rows = [{}]
    add_block(rows, 0, 0, a)
    add_block(rows, 0, 0, a, -1)
    assert Matrix.from_dicts(QQ, 2, rows) == Matrix.zero(QQ, 1, 2)


# -- the subspace calculus on sparse vectors against dense references ---------

VECTOR_CASES = [
    pytest.param(QQ, Fraction, q_rank, Q_ENTRIES, id="Q"),
    pytest.param(F5, F5.from_int, f5_rank, F5_ENTRIES, id="F_5"),
]


def is_sparse(v, n):
    """v is a sparse vector of k^n: nonzero values at indices increasing below n."""
    idx = [j for j, _ in v]
    return all(x for _, x in v) and idx == sorted(set(idx)) and all(0 <= j < n for j in idx)


def plain(field, v, n):
    """The dense row of ints and fractions that the rank oracles read."""
    return [x if field is QQ else x.v for x in dense_vector(v, n, field.zero)]


def dense_rref(field, rows, c):
    """(RREF rows as field tuples, pivots) from sympy over Q or the mod-5 oracle."""
    if not rows:
        return [], []
    if field is QQ:
        red, pivots = smat(c, rows).rref()
        return [tuple(frac(x) for x in red.row(i)) for i in range(len(pivots))], list(pivots)
    red, pivots = rref_mod_p(rows, 5)
    return [tuple(map(F5.from_int, row)) for row in red], pivots


def dense_nullspace(field, rows, c):
    """The unit vector at each free column j with -rref[i][j] at each pivot."""
    red, pivots = dense_rref(field, rows, c)
    out = []
    for j in range(c):
        if j not in pivots:
            v = [field.zero] * c
            v[j] = field.one
            for row, p in zip(red, pivots):
                v[p] = -row[j]
            out.append(tuple(v))
    return out


@st.composite
def vector_lists(draw, entries, c, max_size=5):
    return draw(st.lists(st.lists(entries, min_size=c, max_size=c), max_size=max_size))


@pytest.mark.parametrize("field, to_field, rank_of, entries", VECTOR_CASES)
def test_kernel_rref_and_canonical_match_dense(field, to_field, rank_of, entries):
    @SETTINGS
    @given(int_rows(entries))
    def check(case):
        c, rows = case
        dense = [tuple(to_field(x) for x in r) for r in rows]
        m = Matrix.from_rows(field, dense) if rows else Matrix.zero(field, 0, c)
        ker = kernel_vectors(m)
        assert all(is_sparse(v, c) for v in ker)
        assert ker == [dense_to_sparse(v) for v in dense_nullspace(field, rows, c)]
        red, pivots = dense_rref(field, rows, c)
        assert rref(m) == ([dense_to_sparse(r) for r in red], pivots)
        sub = Subspace.span(field, c, map(dense_to_sparse, dense))
        assert sub.canonical() == [dense_to_sparse(r) for r in red]

    check()


@pytest.mark.parametrize("field, to_field, rank_of, entries", VECTOR_CASES)
def test_span_contains_intersect_match_dense_ranks(field, to_field, rank_of, entries):
    @SETTINGS
    @given(st.data())
    def check(data):
        c = data.draw(st.integers(1, 6))
        us, ws = data.draw(vector_lists(entries, c)), data.draw(vector_lists(entries, c))
        probe = data.draw(st.lists(entries, min_size=c, max_size=c))
        U = Subspace.span(field, c, [dense_to_sparse(map(to_field, r)) for r in us])
        W = Subspace.span(field, c, [dense_to_sparse(map(to_field, r)) for r in ws])
        u = [plain(field, v, c) for v in U.basis]
        w = [plain(field, v, c) for v in W.basis]
        assert U.contains(dense_to_sparse(map(to_field, probe))) == \
            (rank_of(u + [probe]) == len(u))
        cap = U.intersect(W)
        assert all(is_sparse(v, c) for v in cap.basis)
        for v in cap.basis:
            x = plain(field, v, c)
            assert rank_of(u + [x]) == len(u) and rank_of(w + [x]) == len(w)
        assert cap.dim == len(u) + len(w) - rank_of(u + w)

    check()


@pytest.mark.parametrize("field, to_field, rank_of, entries", VECTOR_CASES)
def test_preimage_and_image_match_dense(field, to_field, rank_of, entries):
    @SETTINGS
    @given(st.data())
    def check(data):
        r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        rows = [data.draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]
        dense = [[to_field(x) for x in row] for row in rows]
        m = Matrix.from_rows(field, dense)
        W = Subspace.span(field, r, [dense_to_sparse(map(to_field, v))
                                     for v in data.draw(vector_lists(entries, r))])
        w = [plain(field, v, r) for v in W.basis]
        P = W.preimage(m)
        assert all(is_sparse(v, c) for v in P.basis)
        for v in P.basis:
            image = dense_apply(dense, dense_vector(v, c, field.zero), field.zero)
            assert rank_of(w + [[x if field is QQ else x.v for x in image]]) == len(w)
        columns = [[row[j] for row in rows] for j in range(c)]
        assert P.dim == c + len(w) - rank_of(columns + w)
        U = Subspace.span(field, c, [dense_to_sparse(map(to_field, v))
                                     for v in data.draw(vector_lists(entries, c))])
        images = [dense_apply(dense, dense_vector(v, c, field.zero), field.zero)
                  for v in U.basis]
        kept = greedy(rank_of, [], [[x if field is QQ else x.v for x in y] for y in images])
        assert Subspace.span(field, r, [m.apply(v) for v in U.basis]).basis == \
            [dense_to_sparse(map(to_field, v)) for v in kept]

    check()


@pytest.mark.parametrize("field, to_field, rank_of, entries", VECTOR_CASES)
def test_solve_and_class_coordinates_match_dense(field, to_field, rank_of, entries):
    @SETTINGS
    @given(int_rows(entries), st.data())
    def check(case, data):
        c, rows = case
        dense = [[to_field(x) for x in r] for r in rows]
        m = Matrix.from_rows(field, dense) if rows else Matrix.zero(field, 0, c)
        b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        x = solve(m, dense_to_sparse(map(to_field, b)))
        augmented = [list(row) + [y] for row, y in zip(rows, b)]
        if rows and rank_of(augmented) > rank_of(rows):
            assert x is None
        else:
            assert x is not None and is_sparse(x, c)
            assert dense_apply(dense, dense_vector(x, c, field.zero), field.zero) == \
                tuple(map(to_field, b))
            assert {j for j, _ in x} <= set(dense_rref(field, rows, c)[1])
        # classes of Z = D + span(reps) modulo D, on representatives that extend its basis
        D = Subspace.span(field, c, [dense_to_sparse(map(to_field, v))
                                     for v in data.draw(vector_lists(entries, c, 3))])
        reps = complete_basis(D, [dense_to_sparse(map(to_field, v))
                                  for v in data.draw(vector_lists(entries, c, 3))])
        h = Cohomology(D, reps)
        coeffs = data.draw(st.lists(entries, min_size=D.dim, max_size=D.dim))
        on_d = Matrix.from_columns(field, c, D.basis).apply(dense_to_sparse(map(to_field, coeffs)))
        assert all(h.coordinates(v) == () for v in D.basis + [on_d])
        vector = data.draw(st.lists(entries, min_size=c, max_size=c))
        y = h.coordinates(dense_to_sparse(map(to_field, vector)))
        both = [plain(field, v, c) for v in reps + D.basis]
        if rank_of(both + [vector]) > len(both):
            assert y is None
            return
        assert y is not None and is_sparse(y, len(reps))
        rest = dense_vector(dense_to_sparse(map(to_field, vector)), c, field.zero)
        for j, coeff in y:
            rest = tuple(a - coeff * e for a, e in zip(rest, dense_vector(reps[j], c, field.zero)))
        d = [plain(field, v, c) for v in D.basis]
        assert rank_of(d + [[a if field is QQ else a.v for a in rest]]) == len(d)

    check()


@pytest.mark.parametrize("field", MATRIX_FIELDS)
@SETTINGS
@given(data=st.data())
def test_apply_and_fmt_vector_match_dense(field, data):
    r, k = data.draw(SIZES), data.draw(SIZES)
    a = data.draw(dense(field, r, k))
    v = tuple(data.draw(values(field)) for _ in range(k))
    out = mat(field, a, k).apply(dense_to_sparse(v))
    assert is_sparse(out, r)
    assert dense_vector(out, r, field.zero) == dense_apply(a, v, field.zero)
    assert fmt_vector(field, dense_to_sparse(v), k) == [field.fmt(x) for x in v]
