"""check_exactness against the nested-slice oracle, on the resolution of each
corpus algebroid and on copies with entries of partial_i or of epsilon
redrawn: the two must give equal reports, or fail with the same exception
type, message and witness."""

import random
from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import load
from oracles import nested_slice_exactness
from rinehart.enveloping import check_exactness, rinehart_complex
from rinehart.errors import ExactnessFailure
from rinehart.linalg import Matrix

ALGEBROIDS = ("abelian2", "sl2", "heisenberg3", "aff1", "fatpoint_rank1", "fatpoint_rank2",
              "split_example")
FIELDS = {"Q": {"type": "rational"}, "F_2": {"type": "prime", "p": 2},
          "F_3": {"type": "prime", "p": 3}}
CUTOFFS = (1, 2, 3, 4)


@lru_cache(maxsize=None)
def resolution(name, field, cutoff):
    cx, report = rinehart_complex(load(name, FIELDS[field]).algebroid, cutoff)
    return cx


def outcome(check, cx):
    """The report, or (type, message, witness) of the failure."""
    try:
        return check(cx)
    except ExactnessFailure as e:
        return type(e), str(e), e.witness


def redrawn(cx, edits):
    """A copy of cx with entry (row, col) of partial_target (epsilon for
    target 0) set to k, for each (target, row, col, k) of edits."""
    maps = [cx.epsilon] + cx.partials[1:]
    for target, row, col, k in edits:
        m = maps[target]
        rows = [dict(r) for r in m.data]
        rows[row][col] = m.field.from_int(k)
        maps[target] = Matrix.from_dicts(m.field, m.cols, rows)
    return replace(cx, epsilon=maps[0], partials=[None] + maps[1:])


def edit(draw_int, cx):
    """One (target, row, col, k) drawn with draw_int(lo, hi), or None when the
    drawn map has no entries."""
    target = draw_int(0, len(cx.partials) - 1)
    m = cx.epsilon if target == 0 else cx.partials[target]
    if not (m.rows and m.cols):
        return None
    return target, draw_int(0, m.rows - 1), draw_int(0, m.cols - 1), draw_int(-2, 2)


def branch(result):
    if not isinstance(result, tuple):
        return "exact"
    message = result[1]
    if message.startswith("differential does not preserve"):
        return "escape"
    return "homology" if message.startswith("homology") else "augmented"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_check_exactness_matches_the_nested_slice_oracle(data):
    # one or two redrawn entries: with two, the first failure in (t, then i)
    # order must be the one reported
    name = data.draw(st.sampled_from(ALGEBROIDS))
    field = data.draw(st.sampled_from(sorted(FIELDS)))
    cx = resolution(name, field, data.draw(st.sampled_from(CUTOFFS)))
    assert outcome(check_exactness, cx) == outcome(nested_slice_exactness, cx)
    draw_int = lambda lo, hi: data.draw(st.integers(lo, hi))
    edits = [e for e in (edit(draw_int, cx) for _ in range(data.draw(st.integers(1, 2)))) if e]
    bad = redrawn(cx, edits)
    assert outcome(check_exactness, bad) == outcome(nested_slice_exactness, bad)


def test_redrawn_entries_reach_every_failure_branch():
    rng = random.Random(0)
    reached = set()
    for _ in range(400):
        cx = resolution(rng.choice(ALGEBROIDS), rng.choice(sorted(FIELDS)), rng.choice(CUTOFFS))
        one = edit(rng.randint, cx)
        if one is None:
            continue
        bad = redrawn(cx, [one])
        got = outcome(check_exactness, bad)
        assert got == outcome(nested_slice_exactness, bad)
        reached.add(branch(got))
    assert reached == {"exact", "escape", "homology", "augmented"}


def test_the_first_escape_in_level_then_degree_order_is_reported():
    cx = resolution("heisenberg3", "Q", 3)
    lv = cx.levels
    # cells of partial_i from a generator to one of a higher level, by (level, i)
    escaping = sorted((lv[i][c], i, r, c) for i in range(1, len(cx.partials))
                      for r in range(len(lv[i - 1])) for c in range(len(lv[i]))
                      if lv[i - 1][r] > lv[i][c])
    first, last = escaping[0], escaping[-1]
    assert first[:2] < last[:2]
    bad = redrawn(cx, [(i, r, c, 1) for _, i, r, c in (last, first)])
    got = outcome(check_exactness, bad)
    assert got == outcome(nested_slice_exactness, bad)
    assert got[2] == ("filtration",) + first[:2]
