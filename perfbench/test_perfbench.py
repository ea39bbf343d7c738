"""The benchmark's own tests: python3 -m pytest perfbench

Tiny smoke runs of every workload, trace transparency, and the checker's
ability to fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
from check import Checker, digest, load_expected  # noqa: E402
from run import execute  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == want


def test_traced_and_untraced_reports_are_identical():
    case_list = [c for w in cases.WORKLOADS for c in cases.build(w, 0, ROOT, tiny=True)]
    plain = [digest(out, code) for _, code, out in map(execute, case_list)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for c in case_list:
            _, code, out = execute(c)
            tracer.end_case()
            traced.append(digest(out, code))
    finally:
        tracer.uninstall()
    assert plain == traced
    assert tracer.calls["cli.run"] == len(case_list)


def test_uninstall_restores_every_binding():
    import rinehart.complexes
    import rinehart.linalg
    before = (rinehart.linalg.rank, rinehart.complexes.rank, rinehart.linalg.Matrix.mul)
    tracer = Tracer()
    tracer.install()
    assert rinehart.complexes.rank is not before[1]
    tracer.uninstall()
    assert (rinehart.linalg.rank, rinehart.complexes.rank, rinehart.linalg.Matrix.mul) == before


def test_checker_catches_corrupt_digest_and_wrong_dims():
    checker = Checker(load_expected(HERE / "expected.json"))
    case = next(c for c in cases.build("ce_scale", 0, ROOT, tiny=True) if c.id == "heis3@Q")
    _, code, out = execute(case)
    assert checker.check(case, code, out) == []
    corrupted = out.replace('"status":"ok"', '"status":"oK"')
    assert any("frozen digest" in m for m in checker.check(case, code, corrupted))
    report = json.loads(out)
    report["results"]["dims"][1] += 1
    wrong = json.dumps(report)
    problems = checker.check(case, code, wrong)
    assert any("closed form" in m for m in problems)
    assert any("seed 0" in m for m in problems)
    # a field pair where F_101 loses a class is caught too
    assert Checker.cross_field({"x@Q": [1, 2, 1], "x@F_101": [1, 1, 1]})


def test_seeds_change_bases_but_not_answers():
    first = cases.build("certify_scale", 5, ROOT, tiny=True)
    again = cases.build("certify_scale", 5, ROOT, tiny=True)
    assert [c.text for c in first] == [c.text for c in again]
    canonical = {c.id: c.text for c in cases.build("certify_scale", 0, ROOT, tiny=True)}
    assert {c.id for c in first} == set(canonical)
    assert any(c.text != canonical[c.id] for c in first)
    checker = Checker(load_expected(HERE / "expected.json"))
    for c in first:
        _, code, out = execute(c)
        assert checker.check(c, code, out) == [], c.id


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_basis_change_is_unimodular_and_keeps_the_kernel():
    import random
    for seed in range(1, 6):
        P, Pinv = cases.signed_permutation(5, [3, 4], random.Random(seed))
        ident = [[sum(P[i][k] * Pinv[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
        assert ident == [[int(i == j) for j in range(5)] for i in range(5)]
        assert all(P[i][j] == 0 for i in (3, 4) for j in range(3))
