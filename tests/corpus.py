"""The shipped problem files as test fixtures, read by the parser that every
CLI run uses.  A field block given to `load` replaces the file's own, so a
file over Q also serves the F_2 and F_3 property tests."""

import json
from pathlib import Path

from rinehart.problems import from_dict, parse

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

POSITIVE = ("abelian2", "sl2", "heisenberg3", "aff1", "fatpoint_rank1", "fatpoint_rank2",
            "split_example", "heisenberg3_f2", "sl2_f2")
EXTENSIONS = ("ext_k0", "ext_q0", "ext_aff1", "ext_heis_center", "ext_fatpoint")

# CE dims derived by hand, with each file's own coefficients
CE_DIMS = {
    "abelian2": [1, 2, 1],
    "sl2": [1, 0, 0, 1],
    "heisenberg3": [1, 2, 2, 1],
    "aff1": [1, 1, 0],
    "fatpoint_rank1": [1, 1],
    "heisenberg3_f2": [1, 2, 2, 1],
}


def load(name, field=None):
    """The problem in problems/<name>.json, or else in problems/negative/."""
    path = PROBLEMS / f"{name}.json"
    if not path.exists():
        path = PROBLEMS / "negative" / f"{name}.json"
    return parse(path, field)


def abelian(n):
    """The abelian Lie algebra k^n over Q, for the ranks that no file holds."""
    data = json.loads((PROBLEMS / "abelian2.json").read_text(encoding="utf-8"))
    data["algebroid"] = {"rank": n, "anchor": [[[0]]] * n,
                         "bracket": [[[[0]] * n] * n] * n}
    return from_dict(data).algebroid
