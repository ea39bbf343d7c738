"""The PBW multiplication table and the augmentation against the oracles that
straighten each product from scratch and chain the matrices of each monomial,
on every corpus algebroid at cutoffs 1-4 over Q, F_2 and F_3, and the
augmentation also on anchors that neither kill 1 nor commute."""

import pytest

from corpus import load
from oracles import chained_augmentation, chained_table
from rinehart.algebroid import LieRinehartAlgebroid
from rinehart.enveloping import TruncatedEnveloping
from rinehart.linalg import Matrix

ALGEBROIDS = ("abelian2", "sl2", "heisenberg3", "aff1", "fatpoint_rank1", "fatpoint_rank2",
              "split_example")
FIELDS = {"Q": {"type": "rational"}, "F_2": {"type": "prime", "p": 2},
          "F_3": {"type": "prime", "p": 3}}
CUTOFFS = (1, 2, 3, 4)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", ALGEBROIDS)
def test_table_rows_and_augmentation_match_the_chained_oracles(name, field):
    L = load(name, FIELDS[field]).algebroid
    for cutoff in CUTOFFS:
        # separate instances, so the two tables share no memoized product
        U = TruncatedEnveloping(L, cutoff)
        want = chained_table(TruncatedEnveloping(L, cutoff))
        rows = U.table()
        assert len(rows) == U.dim
        for i, row in enumerate(rows):
            for j, (terms, overflow) in enumerate(row):
                assert want[(i, j)] == {"overflow": overflow, "terms": terms}, (cutoff, i, j)
            for j in range(len(row), U.dim):
                assert want[(i, j)] == {"overflow": True, "terms": None}, (cutoff, i, j)
                assert U.degree(U.basis[i]) + U.degree(U.basis[j]) > cutoff, (cutoff, i, j)
        assert U.augmentation_matrix() == chained_augmentation(U), cutoff


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_augmentation_applies_the_sections_in_pbw_order(field):
    # A valid anchor kills 1, so on the corpus every column of degree >= 1 is
    # zero and the order of the sections never shows.  Anchors that do not
    # kill 1 and do not commute (no algebroid, but the formula still applies)
    # make s^alpha . 1 depend on it.
    L0 = load("split_example", FIELDS[field]).algebroid
    f = L0.field
    anchors = [Matrix.from_rows(f, [[f.from_int(x) for x in row] for row in rows])
               for rows in ([[1, 1], [0, 1]], [[1, 0], [1, 1]])]
    assert anchors[0].mul(anchors[1]) != anchors[1].mul(anchors[0])
    L = LieRinehartAlgebroid(L0.algebra, 2, anchors, L0.bracket)
    for cutoff in CUTOFFS[1:]:
        U = TruncatedEnveloping(L, cutoff)
        eps = U.augmentation_matrix()
        assert eps == chained_augmentation(U), cutoff
        assert any(U.degree(U.basis[c]) >= 2 for row in eps.data for c, _ in row), cutoff
