"""The algebra axioms, the anchors' Leibniz rule and the k-bilinear bracket
are read off A's regular module and the anchor representation.  On random
structure tables over Q, F_2 and F_3, valid or not, with dim A <= 4 and
rank <= 2, they must agree with the dense product loops of oracles.py: the
bracket of every pair of k-basis elements, and of random sparse k-vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (algebra_violations, bracket_of_vectors, bracket_table, dense_vector,
                     is_derivation)
from rinehart.algebra import FiniteAlgebra, derivation_space, matrix_from_flat, validate_algebra
from rinehart.algebroid import LieRinehartAlgebroid, leibniz_bracket, validate_algebroid
from rinehart.fields import GF, QQ
from rinehart.linalg import dense_to_sparse

FIELDS = [QQ, GF(2), GF(3)]
SCALARS = [0, 0, 0, 1, -1, 2, Fraction(1, 2)]


def entries(f):
    """Mostly zeros and small integers, and 1/2 where 2 is invertible."""
    xs = [x for x in SCALARS if f.kind == "rational" or x.denominator % f.p]
    return st.sampled_from(xs).map(lambda x: f.parse(str(x)))


@st.composite
def tables(draw, f):
    """Structure constants and unit of k[x]/(x^m), of k^m or of a random
    table, with up to two entries redrawn at random."""
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["truncated", "split", "random"]))
    e = [tuple(f.one if s == t else f.zero for s in range(m)) for t in range(m)]
    zero = tuple(f.zero for _ in range(m))
    vec = st.lists(entries(f), min_size=m, max_size=m).map(tuple)
    if kind == "truncated":
        mult = [[e[i + j] if i + j < m else zero for j in range(m)] for i in range(m)]
        unit = e[0]
    elif kind == "split":
        mult = [[e[i] if i == j else zero for j in range(m)] for i in range(m)]
        unit = tuple(f.one for _ in range(m))
    else:
        mult = [[draw(vec) for _ in range(m)] for _ in range(m)]
        unit = draw(vec)
    for _ in range(draw(st.integers(0, 2))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        v = list(mult[i][j])
        v[k] = draw(entries(f))
        mult[i][j] = tuple(v)
    return FiniteAlgebra(f, m, mult, unit)


@st.composite
def algebroids(draw, f):
    """Anchors that are random matrices or random derivations of the table,
    and a random declared bracket."""
    A = draw(tables(f))
    m, n = A.dim, draw(st.integers(1, 2))
    ders = derivation_space(A).basis
    entry = entries(f)
    anchors = []
    for _ in range(n):
        if ders and draw(st.booleans()):
            flat = [f.zero] * (m * m)
            for d in ders:
                c = draw(entry)
                flat = [x + c * y for x, y in zip(flat, dense_vector(d, m * m, f.zero))]
        else:
            flat = [draw(entry) for _ in range(m * m)]
        anchors.append(matrix_from_flat(f, dense_to_sparse(flat), m, m))
    bracket = [[[tuple(draw(entry) for _ in range(m)) for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
    return LieRinehartAlgebroid(A, n, anchors, bracket)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_product_checks_match_the_dense_loops(f, data):
    L = data.draw(algebroids(f))
    A = L.algebra
    assert [(v.axiom, v.indices) for v in validate_algebra(A)] == algebra_violations(A)
    failing = [v.indices for v in validate_algebroid(L) if v.axiom == "anchor-derivation"]
    assert failing == [(i,) for i, d in enumerate(L.anchors) if not is_derivation(A, d)]
    one = L.field.one
    assert [[leibniz_bracket(L, ((u, one),), ((v, one),)) for v in range(L.kdim)]
            for u in range(L.kdim)] == [[dense_to_sparse(v) for v in row]
                                        for row in bracket_table(L)]


def k_vectors(f, size):
    """Sparse vectors of length size with 0 to 4 nonzeros."""
    return st.dictionaries(st.integers(0, size - 1), entries(f).filter(bool),
                           max_size=4).map(lambda d: tuple(sorted(d.items())))


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_leibniz_bracket_of_sparse_vectors_matches_the_bilinear_expansion(f, data):
    L = data.draw(algebroids(f))
    x, y = data.draw(k_vectors(f, L.kdim)), data.draw(k_vectors(f, L.kdim))
    assert leibniz_bracket(L, x, y) == bracket_of_vectors(bracket_table(L), x, y)
