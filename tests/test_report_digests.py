"""Frozen report bytes for the shipped corpus.

Every file of `problems/` and `problems/negative/` runs under each command
that applies to it (validate, cohomology, invariants, then hs with an
extension, total with a complex, env at degree 3 with neither), in its own
field and, for Q files, re-typed to F_101.  `report_digests.json` holds the
exit code and the SHA-256 of `render_json` for each run.  The engine is exact
and pivots deterministically, so any change to these bytes is a change of
output, not of speed.

Rewrite the file only when output changes on purpose:

    PYTHONPATH=src python tests/test_report_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from rinehart.cli import render_json, run
from rinehart.errors import ParseError
from rinehart.problems import from_dict

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("report_digests.json")


def _commands(data):
    cmds = ["validate", "cohomology", "invariants"]
    if data.get("extension") is not None:
        cmds.append("hs")
    if data.get("complex") is not None:
        cmds.append("total")
    if data.get("extension") is None and data.get("complex") is None:
        cmds.append("env")
    return cmds


def corpus_digests():
    problems = ROOT / "problems"
    out = {}
    for path in sorted(problems.glob("*.json")) + sorted((problems / "negative").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        name = str(path.relative_to(problems).with_suffix(""))
        variants = [(None, data)]
        if data["field"]["type"] == "rational":
            variants.append(("F_101", dict(data, field={"type": "prime", "p": 101})))
        for label, variant in variants:
            for cmd in _commands(data):
                key = f"{name}:{cmd}" + (f"@{label}" if label else "")
                try:
                    report, code = run(cmd, from_dict(variant), {"degree": 3})
                except ParseError:
                    out[key] = "exit 2"
                    continue
                digest = hashlib.sha256(render_json(report).encode()).hexdigest()
                out[key] = f"exit {code} sha256 {digest}"
    return out


def test_corpus_report_bytes_are_frozen():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = corpus_digests()
    assert sorted(actual) == sorted(expected)
    changed = [k for k in expected if actual[k] != expected[k]]
    assert not changed, f"report bytes changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_report_digests.py --write")
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
