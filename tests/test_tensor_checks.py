"""Antisymmetry, Jacobi, the anchor morphism and flatness are checked on the
A-basis and spread to the k-basis e_a s_i by the algebra.  On random
algebroids over Q, F_2 and F_3 (dim A <= 4, rank <= 3; brackets antisymmetric
or not, anchors derivations or not) and on representations over sums of the
regular module or over a random, possibly non-multiplicative module, every
violation list must equal the exhaustive k-basis loops of oracles.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (alternating_violations, bracket_table, dense_vector, failing_pairs,
                     jacobi_triples)
from rinehart.algebra import AModule, FiniteAlgebra, derivation_space, matrix_from_flat
from rinehart.algebroid import (LieRinehartAlgebroid, Representation, anchor_representation,
                                validate_algebroid, validate_representation)
from rinehart.fields import GF, QQ
from rinehart.linalg import block_diagonal, dense_to_sparse
from test_product_properties import entries

FIELDS = [QQ, GF(2), GF(3)]


@st.composite
def algebras(draw, f):
    """k[x]/(x^m), k^m or a random table, so that most draws are valid."""
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["truncated", "truncated", "split", "random"]))
    e = [tuple(f.one if s == t else f.zero for s in range(m)) for t in range(m)]
    zero = tuple(f.zero for _ in range(m))
    if kind == "truncated":
        mult = [[e[i + j] if i + j < m else zero for j in range(m)] for i in range(m)]
        return FiniteAlgebra(f, m, mult, e[0])
    if kind == "split":
        mult = [[e[i] if i == j else zero for j in range(m)] for i in range(m)]
        return FiniteAlgebra(f, m, mult, tuple(f.one for _ in range(m)))
    vec = st.lists(entries(f), min_size=m, max_size=m).map(tuple)
    return FiniteAlgebra(f, m, [[draw(vec) for _ in range(m)] for _ in range(m)], draw(vec))


def random_matrix(draw, f, rows, cols):
    return matrix_from_flat(f, dense_to_sparse(draw(entries(f)) for _ in range(rows * cols)),
                            rows, cols)


def sparse_matrix(draw, f, n):
    """A matrix with at most two nonzero entries."""
    flat = [f.zero] * (n * n)
    for _ in range(draw(st.integers(0, 2))):
        flat[draw(st.integers(0, n * n - 1))] = draw(entries(f))
    return matrix_from_flat(f, dense_to_sparse(flat), n, n)


@st.composite
def algebroids(draw, f):
    A = draw(algebras(f))
    m, n = A.dim, draw(st.integers(1, 3))
    ders = derivation_space(A).basis
    anchors = []
    for _ in range(n):
        if draw(st.integers(0, 4)):
            # a random derivation; zero where A has none
            flat = [f.zero] * (m * m)
            for d in ders:
                c = draw(entries(f))
                flat = [x + c * y for x, y in zip(flat, dense_vector(d, m * m, f.zero))]
            anchors.append(matrix_from_flat(f, dense_to_sparse(flat), m, m))
        else:
            anchors.append(random_matrix(draw, f, m, m))
    coeffs = st.lists(entries(f), min_size=m, max_size=m).map(tuple)
    bracket = [[[draw(coeffs) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            bracket[i][i] = [tuple(f.zero for _ in range(m))] * n
            for j in range(i):
                bracket[i][j] = [tuple(-x for x in c) for c in bracket[j][i]]
    return LieRinehartAlgebroid(A, n, anchors, bracket)


@st.composite
def representations(draw, L):
    """Copies of the regular module with rho = anchor blocks plus or minus a
    sparse matrix, or a random module with random rho."""
    f, m = L.field, L.m
    if draw(st.booleans()):
        copies = draw(st.integers(1, 2))
        reg = anchor_representation(L).module
        mod = AModule(L.algebra, m * copies, [block_diagonal(a, copies) for a in reg.action])
        rho = []
        for d in L.anchors:
            r = block_diagonal(d, copies)
            p = sparse_matrix(draw, f, m * copies)
            rho.append(r.sub(p) if draw(st.booleans()) else r.sub(p.scale(-f.one)))
        return Representation(mod, rho)
    N = draw(st.integers(1, 3))
    mod = AModule(L.algebra, N, [random_matrix(draw, f, N, N) for _ in range(m)])
    return Representation(mod, [random_matrix(draw, f, N, N) for _ in range(L.n)])


def listed(vs, *axioms):
    return [(v.axiom, v.indices) for v in vs if v.axiom in axioms]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.describe())
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_tensor_checks_match_the_exhaustive_loops(f, data):
    L = data.draw(algebroids(f))
    R = data.draw(representations(L))
    table = bracket_table(L)
    vs = validate_algebroid(L)
    if any(v.axiom.startswith("algebra-") or v.axiom == "anchor-derivation" for v in vs):
        assert listed(vs, "alternating", "antisymmetry", "jacobi", "anchor-morphism") == []
    else:
        assert listed(vs, "alternating", "antisymmetry") == alternating_violations(L, table)
        assert [v.indices for v in vs if v.axiom == "jacobi"] == jacobi_triples(L, table)
        assert [v.indices for v in vs if v.axiom == "anchor-morphism"] == \
            failing_pairs(L, anchor_representation(L), table)
    flat = [v.indices for v in validate_representation(L, R) if v.axiom == "flatness"]
    assert flat == failing_pairs(L, R, table)
