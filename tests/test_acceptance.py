"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All comparisons are exact; the only tolerances are the stated runtime caps.
"""

import json
import time
from math import comb

from rinehart.algebroid import validate_algebroid, validate_representation
from rinehart.cecomplex import RepComplex, ce_complex, ce_dims, total_complex
from rinehart.cli import render_json, run
from rinehart.complexes import total_cohomology_dims
from rinehart.enveloping import ext_dims, hom_complex_iso, rinehart_complex
from rinehart.extensions import extension_from_k_indices, validate_extension
from rinehart.hochschild import check_e1, check_e2, five_term, hs_pages
from rinehart.linalg import Matrix
from rinehart.problems import parse

from corpus import CE_DIMS, EXTENSIONS, POSITIVE, PROBLEMS, load


def report_line(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_1_axiom_suite():
    t0 = time.monotonic()
    assert len(POSITIVE) >= 8
    for name in POSITIVE:
        p = load(name)
        assert validate_algebroid(p.algebroid) == [], name
        assert validate_representation(p.algebroid, p.representation()) == [], name
        ce = ce_complex(p.algebroid, p.representation())   # asserts d^2 = 0 exactly
        for i in range(len(ce.complex.diffs) - 1):
            assert ce.complex.diffs[i + 1].mul(ce.complex.diffs[i]).is_zero()
    # negative corpus: the right violation, with a witness
    vs = validate_algebroid(load("bad_jacobi_sl2").algebroid)
    assert any(v.axiom == "jacobi" and v.indices == (0, 1, 2) for v in vs)
    from rinehart.algebra import validate_algebra
    vs = validate_algebra(load("bad_unit_algebra").algebra)
    assert any(v.axiom == "unit" for v in vs)
    bad = load("bad_rep_flatness")
    assert any(v.axiom == "flatness" for v in validate_representation(bad.algebroid, bad.module))
    E = extension_from_k_indices(load("aff1").algebroid, [1])
    assert any(v.axiom in ("iota-bracket", "pi-bracket") for v in validate_extension(E))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    report_line(1, f"{len(POSITIVE)} algebroids validate, d^2 = 0, negative corpus "
                   f"localized; {elapsed:.2f}s < 5s")


def test_acceptance_2_classical_oracle():
    for name, dims in CE_DIMS.items():
        p = load(name)
        got = ce_dims(p.algebroid, p.representation())
        assert got == dims, (name, got, dims)
    report_line(2, "CE dims equal the hand-derived classical table exactly")


def test_acceptance_3_main_theorem_shadow():
    t0 = time.monotonic()
    d = 3
    for name in POSITIVE:
        p = load(name)
        L = p.algebroid
        cx, exact = rinehart_complex(L, d)
        assert cx.U.dim == L.m * comb(L.n + d, d), name
        assert exact.ok, name
        assert all(h == 0 for h in exact.homology.values()), name
        cert = hom_complex_iso(cx, p.representation())
        assert cert.ok, name
        exts = ext_dims(exact, cert)
        assert [x for _, x in exts] == ce_dims(L, p.representation()), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"enveloping suite took {elapsed:.2f}s"
    report_line(3, f"PBW counts, resolution exactness (t <= {d}), hom-transfer "
                   f"certificates and Ext = CE on all entries; {elapsed:.2f}s < 60s")


def test_acceptance_4_spectral_suite():
    for name in EXTENSIONS:
        p = load(name)
        E = p.extension_triple
        assert validate_extension(E) == [], name
        hp = hs_pages(E, p.representation(), r_max=2)
        assert hp.filtration.graded_ok, name
        assert check_e1(hp).ok, name
        assert check_e2(hp).ok, name
        assert hp.converged, name
        ft = five_term(hp)
        assert ft.all_exact, name
    report_line(4, "gr/E1/E2 identifications, convergence and five-term exactness "
                   "hold on every corpus extension")


def test_acceptance_5_complexes():
    p = load("heisenberg3")
    rep = p.representation()
    cone = RepComplex([rep, rep], [Matrix.identity(p.field, 1)])
    assert total_cohomology_dims(total_complex(p.algebroid, cone)) == [0, 0, 0, 0, 0]
    single = RepComplex([rep], [])
    assert total_cohomology_dims(total_complex(p.algebroid, single)) == \
        ce_dims(p.algebroid, rep)
    report_line(5, "identity-cone hypercohomology vanishes; single-term total "
                   "complex equals CE cohomology")


def full_suite_reports():
    chunks = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = parse(path)
        commands = ["validate", "cohomology", "invariants"]
        if problem.extension is not None:
            commands.append("hs")
        if problem.complex is not None:
            commands.append("total")
        if problem.extension is None and problem.complex is None:
            commands.append("env")
        for cmd in commands:
            report, code = run(cmd, problem, {"degree": 3})
            assert code == 0, (path.name, cmd)
            chunks.append(render_json(report))
    return "".join(chunks)


def test_acceptance_6_determinism_and_field_sensitivity():
    first = full_suite_reports()
    second = full_suite_reports()
    assert first == second
    r_q, _ = run("cohomology", parse(PROBLEMS / "sl2.json"))
    r_f2, _ = run("cohomology", parse(PROBLEMS / "sl2_f2.json"))
    assert r_q["results"]["dims"] == [1, 0, 0, 1]
    assert r_f2["results"]["dims"] == [1, 2, 2, 1]
    assert r_q["field"] == "Q" and r_f2["field"] == "F_2"
    report_line(6, "byte-identical machine reports across runs; F_2 vs Q dims "
                   "differ where expected and the report records the field")
