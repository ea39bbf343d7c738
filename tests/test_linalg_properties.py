"""Property tests for the elimination engine against sympy (over Q) and the
brute-force rank oracle (over F_5), on small sparse matrices with zero rows,
duplicate rows and all-zero matrices."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import rank_mod_p
from rinehart.fields import GF, QQ
from rinehart.linalg import Matrix, Subspace, complete_basis, kernel_vectors, rank, rref, solve

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
    assert ours == [tuple(frac(x) for x in red.row(i)) for i in range(len(pivots))]
    assert rank(m) == len(pivots)
    assert kernel_vectors(m) == [tuple(frac(x) for x in v) for v in s.nullspace()]


@SETTINGS
@given(int_rows(Q_ENTRIES), st.lists(Q_ENTRIES, min_size=10, max_size=10), st.booleans())
def test_solve_matches_sympy_consistency(case, xs, consistent):
    c, rows = case
    m, s = qmat(c, rows), smat(c, rows)
    if consistent:
        b = m.apply(tuple(Fraction(x) for x in xs[:c]))
    else:
        b = tuple(Fraction(x) for x in xs[:len(rows)])
    x = solve(m, b)
    augmented = s.row_join(sympy.Matrix(len(rows), 1, list(b)))
    if augmented.rank() > s.rank():
        assert x is None
        return
    assert x is not None and m.apply(x) == b
    _, pivots = s.rref()
    assert all(not x[j] for j in range(c) if j not in pivots)


@SETTINGS
@given(int_rows(F5_ENTRIES))
@example((5, [[0] * 5]))
def test_rank_mod_5_matches_oracle(case):
    c, rows = case
    m = Matrix.from_rows(F5, [[F5.from_int(x) for x in r] for r in rows]) if rows \
        else Matrix.zero(F5, 0, c)
    assert rank(m) == f5_rank(rows)
    for v in kernel_vectors(m):
        assert not any(m.apply(v))


@pytest.mark.parametrize("field, to_field, rank_of, entries", [
    (QQ, Fraction, q_rank, Q_ENTRIES),
    (F5, F5.from_int, f5_rank, F5_ENTRIES),
])
def test_span_and_complete_basis_match_greedy_oracle(field, to_field, rank_of, entries):
    @SETTINGS
    @given(int_rows(entries), st.integers(0, 8))
    def check(case, split):
        c, rows = case
        vecs = [tuple(to_field(x) for x in r) for r in rows]
        kept = greedy(rank_of, [], rows)
        sub = Subspace.span(field, c, vecs)
        assert sub.basis == [tuple(to_field(x) for x in r) for r in kept]
        assert all(sub.contains(v) for v in vecs)
        base = Subspace.span(field, c, vecs[:split])
        before = (list(base.basis), base.canonical())
        start = greedy(rank_of, [], rows[:split])
        extra = complete_basis(base, vecs[split:])
        assert extra == [tuple(to_field(x) for x in r)
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
        vecs = [tuple(to_field(x) for x in r) for r in rows]
        if rank_of(rows) < len(rows):
            with pytest.raises(ValueError, match="dependent"):
                Subspace(field, c, vecs)
        else:
            sub = Subspace(field, c, vecs)
            assert sub.basis == vecs
            assert sub.canonical() == (rref(Matrix.from_rows(field, vecs))[0] if vecs else [])

    check()


def test_subspace_rejects_a_repeated_vector():
    v = (Fraction(1), Fraction(2))
    with pytest.raises(ValueError, match="dependent"):
        Subspace(QQ, 2, [v, tuple(2 * x for x in v)])
