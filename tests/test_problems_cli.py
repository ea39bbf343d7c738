import json
import time
from pathlib import Path

import pytest

from rinehart.cli import main, render_json, run
from rinehart.errors import ShapeError
from rinehart.fields import PRIME_BOUND
from rinehart.problems import (canonical_json, from_dict, parse, problem_hash,
                               to_dict)

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def all_problem_files():
    return sorted(PROBLEMS.glob("*.json"))


def test_minimal_file_parses(tmp_path):
    data = {
        "field": {"type": "rational"},
        "algebra": {"dim": 1, "unit": [1], "mult": [[[1]]]},
        "algebroid": {"rank": 1, "anchor": [[[0]]], "bracket": [[[[0]]]]},
    }
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(data))
    p = parse(path)
    assert p.algebroid.n == 1


def test_shipped_corpus_parses_and_validates():
    from rinehart.cli import _validate_all, _clean
    for path in all_problem_files():
        p = parse(path)
        assert _clean(_validate_all(p)), path.name


def test_round_trip_identity():
    for path in all_problem_files():
        p = parse(path)
        again = from_dict(json.loads(canonical_json(to_dict(p))))
        assert to_dict(again) == to_dict(p), path.name
        assert problem_hash(again) == problem_hash(p), path.name


def test_corpus_files_are_in_canonical_form():
    # the files are the source of every example: each is the indented, key-sorted
    # form of what it parses to, and the malformed one is at least formatted so
    for path in sorted(PROBLEMS.glob("**/*.json")):
        text = path.read_text(encoding="utf-8")
        if path.name == "bad_bracket_shape.json":
            data = json.loads(text)
        else:
            data = to_dict(parse(path))
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n", path.name


def test_wrong_bracket_shape_reports_field():
    with pytest.raises(ShapeError) as err:
        parse(PROBLEMS / "negative" / "bad_bracket_shape.json")
    assert "bracket" in str(err.value)


def test_missing_file_is_input_error(capsys):
    code = main(["validate", str(PROBLEMS / "does_not_exist.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


FIELD_OVERRIDES = ([], ["--field", "5"], ["--field", "rational"])


@pytest.mark.parametrize("flags", FIELD_OVERRIDES)
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
def test_non_object_problem_is_input_error_under_any_field(tmp_path, capsys, text, flags):
    path = tmp_path / "problem.json"
    path.write_text(text)
    code = main(["validate", str(path)] + flags)
    assert code == 2
    assert capsys.readouterr().err == "input error: problem must be a JSON object\n"


@pytest.mark.parametrize("text", [None, "{bad"])
def test_unreadable_file_message_ignores_the_field_override(tmp_path, capsys, text):
    path = tmp_path / "problem.json"
    if text is not None:
        path.write_text(text)
    errs = []
    for flags in FIELD_OVERRIDES:
        assert main(["validate", str(path)] + flags) == 2
        errs.append(capsys.readouterr().err)
    assert str(path) in errs[0] and errs == [errs[0]] * len(FIELD_OVERRIDES)


def test_file_that_is_not_utf8_is_a_located_input_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff{}")
    assert main(["validate", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_field_flag_that_is_not_a_number_names_the_flag(capsys, value):
    assert main(["validate", str(PROBLEMS / "abelian2.json"), "--field", value]) == 2
    err = capsys.readouterr().err
    assert "--field" in err and "'rational' or a prime" in err


def test_field_flag_with_a_composite_names_the_modulus(capsys):
    assert main(["validate", str(PROBLEMS / "abelian2.json"), "--field", "4"]) == 2
    assert capsys.readouterr().err == "input error: field.p: modulus 4 is not prime\n"


def test_validate_ok_exit_zero(capsys):
    code = main(["validate", str(PROBLEMS / "sl2.json"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["field"] == "Q"


def test_validate_negative_corpus_exit_one(capsys):
    for name in ("bad_jacobi_sl2", "bad_unit_algebra", "bad_rep_flatness",
                 "bad_extension_not_ideal"):
        code = main(["validate", str(PROBLEMS / "negative" / f"{name}.json"),
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1, name
        report = json.loads(out)
        assert report["status"] == "violations", name


def test_bad_jacobi_witness_in_report(capsys):
    main(["validate", str(PROBLEMS / "negative" / "bad_jacobi_sl2.json"),
          "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert any("jacobi" in v for v in report["validation"]["algebroid"])
    assert any("(0, 1, 2)" in v for v in report["validation"]["algebroid"])


def test_cohomology_command_sl2(capsys):
    code = main(["cohomology", str(PROBLEMS / "sl2.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["dims"] == [1, 0, 0, 1]


def test_cohomology_command_f2(capsys):
    code = main(["cohomology", str(PROBLEMS / "sl2_f2.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["field"] == "F_2"
    assert report["results"]["dims"] == [1, 2, 2, 1]


def test_invariants_command(capsys):
    code = main(["invariants", str(PROBLEMS / "fatpoint_rank1.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["dim"] == 1


def test_hs_command_aff1(capsys):
    code = main(["hs", str(PROBLEMS / "ext_aff1.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    res = report["results"]
    assert res["pages"]["2"] == {"0,0": 1, "1,0": 1}
    assert res["five_term"]["exact"] == [True, True, True, True]
    assert res["graded_ok"] is True


def test_env_command_aff1(capsys):
    code = main(["env", str(PROBLEMS / "aff1.json"), "--format", "json", "--degree", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    res = report["results"]
    assert res["pbw_dim"] == 10
    assert res["ext_dims"] == [1, 1, 0]
    assert res["ext_equals_ce"] is True


def test_total_command(capsys):
    code = main(["total", str(PROBLEMS / "total_identity_cone.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["dims"] == [0, 0, 0, 0, 0]


def test_total_without_complex_is_input_error(capsys):
    code = main(["total", str(PROBLEMS / "sl2.json")])
    assert code == 2


def test_report_determinism_bytes():
    for name in ("sl2.json", "ext_heis_center.json", "fatpoint_rank2.json"):
        p = parse(PROBLEMS / name)
        cmd = "hs" if name.startswith("ext_") else "cohomology"
        r1, c1 = run(cmd, p)
        r2, c2 = run(cmd, parse(PROBLEMS / name))
        assert c1 == c2 == 0
        assert render_json(r1) == render_json(r2)


def test_text_and_json_agree_on_numbers(capsys):
    main(["cohomology", str(PROBLEMS / "heisenberg3.json"), "--format", "json"])
    js = json.loads(capsys.readouterr().out)
    main(["cohomology", str(PROBLEMS / "heisenberg3.json"), "--format", "text"])
    text = capsys.readouterr().out
    assert f'dims: {json.dumps(js["results"]["dims"])}' in text


def test_hash_records_field_and_input():
    p1 = parse(PROBLEMS / "heisenberg3.json")
    p2 = parse(PROBLEMS / "heisenberg3_f2.json")
    assert problem_hash(p1) != problem_hash(p2)


def test_env_degree_zero_is_input_error(capsys):
    code = main(["env", str(PROBLEMS / "aff1.json"), "--degree", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "degree" in err


def test_hs_max_page_zero_is_input_error(capsys):
    code = main(["hs", str(PROBLEMS / "ext_aff1.json"), "--max-page", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "max_page" in err


def test_string_degree_option_is_input_error(tmp_path, capsys):
    data = json.loads((PROBLEMS / "aff1.json").read_text())
    data["options"] = {"degree": "3"}
    path = tmp_path / "string_degree.json"
    path.write_text(json.dumps(data))
    code = main(["env", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "options.degree" in err


def validate_with_field(tmp_path, field):
    data = json.loads((PROBLEMS / "heisenberg3.json").read_text())
    data["field"] = field
    path = tmp_path / "retyped.json"
    path.write_text(json.dumps(data))
    return main(["validate", str(path), "--format", "json"])


@pytest.mark.parametrize("p", ["7", 7.0, True, None, [7]])
def test_non_int_modulus_is_input_error(tmp_path, capsys, p):
    code = validate_with_field(tmp_path, {"type": "prime", "p": p})
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "field.p must be an int" in err


def test_mersenne_61_modulus_is_accepted_quickly(tmp_path, capsys):
    start = time.perf_counter()
    code = validate_with_field(tmp_path, {"type": "prime", "p": 2**61 - 1})
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["field"] == f"F_{2**61 - 1}"


# 561 is a Carmichael number; 318665857834031151167461 is a strong pseudoprime
# to the first 12 prime bases, so it needs the 13th (41) to be rejected
@pytest.mark.parametrize("p", [1, 4, 561, 2**61 + 1, 318665857834031151167461])
def test_composite_modulus_is_input_error(tmp_path, capsys, p):
    code = validate_with_field(tmp_path, {"type": "prime", "p": p})
    err = capsys.readouterr().err
    assert code == 2
    assert "field.p" in err and "not prime" in err


def test_modulus_above_primality_bound_is_input_error(tmp_path, capsys):
    code = validate_with_field(tmp_path, {"type": "prime", "p": PRIME_BOUND + 2})
    err = capsys.readouterr().err
    assert code == 2
    assert "field.p" in err and "too large" in err


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_env_builds_the_resolution_once(monkeypatch):
    import rinehart.cli as cli_mod
    import rinehart.enveloping as env_mod
    resolutions = count_calls(monkeypatch, cli_mod, "rinehart_complex")
    exactness = count_calls(monkeypatch, env_mod, "check_exactness")
    _, code = run("env", parse(PROBLEMS / "heisenberg3.json"), {"degree": 3})
    assert code == 0
    assert len(resolutions) == 1 and len(exactness) == 1


@pytest.mark.parametrize("options", [{}, {"max_page": 1}])
def test_hs_computes_the_pages_once(monkeypatch, options):
    import rinehart.complexes as complexes_mod
    import rinehart.hochschild as hochschild_mod
    pages = count_calls(monkeypatch, hochschild_mod, "spectral_pages")
    pages_inner = count_calls(monkeypatch, complexes_mod, "spectral_pages")
    report, code = run("hs", parse(PROBLEMS / "ext_heis_center.json"), options)
    assert code == 0
    assert len(pages) + len(pages_inner) == 1
    if options:
        assert list(report["results"]["pages"]) == ["1"]


def test_hs_keeps_the_page_count_of_a_zero_dimensional_module():
    # no cochains at all: the pages still run to the extension's bound r + 1
    data = json.loads((PROBLEMS / "ext_heis_center.json").read_text())
    data["module"] = {"dim": 0, "action": [[]], "rho": [[], [], []]}
    report, code = run("hs", from_dict(data))
    assert code == 0, report
    assert list(report["results"]["pages"]) == ["1", "2", "3"]
    assert report["results"]["stable_at"] == 1


def run_edited(tmp_path, name, command, edit):
    data = json.loads((PROBLEMS / name).read_text())
    edit(data)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(data))
    return main([command, str(path)])


@pytest.mark.parametrize("key", ["maps", "modules"])
def test_non_list_complex_field_is_input_error(tmp_path, capsys, key):
    code = run_edited(tmp_path, "total_identity_cone.json", "total",
                      lambda d: d["complex"].__setitem__(key, 5))
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and f"complex.{key} must be a list" in err


def _set(path, value):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# each bool below would stand for a valid int (True = 1, False = 0) in its file
@pytest.mark.parametrize("name, path, value, where", [
    ("heisenberg3.json", ("algebra", "dim"), True, "algebra.dim"),
    ("fatpoint_rank1.json", ("algebroid", "rank"), True, "algebroid.rank"),
    ("total_identity_cone.json", ("complex", "modules", 0, "dim"), True,
     "complex.modules[0].dim"),
    ("ext_aff1.json", ("extension", "k_indices"), [False], "extension.k_indices"),
    ("heisenberg3.json", ("module",),
     {"dim": True, "action": [[[1]]], "rho": [[[0]], [[0]], [[0]]]}, "module.dim"),
])
def test_bool_where_int_expected_is_input_error(tmp_path, capsys, name, path, value, where):
    code = run_edited(tmp_path, name, "validate", _set(path, value))
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and where in err


def test_cohomology_builds_the_regular_module_once(monkeypatch):
    import rinehart.algebroid as algebroid_mod
    modules = count_calls(monkeypatch, algebroid_mod, "regular_module")
    _, code = run("cohomology", parse(PROBLEMS / "fatpoint_rank2.json"))
    assert code == 0
    assert len(modules) == 1


# a JSON 0 skips scalar parsing; a zero of any other type is still refused
@pytest.mark.parametrize("value", [0.0, False])
def test_inexact_zero_in_the_bracket_is_located_input_error(tmp_path, capsys, value):
    code = run_edited(tmp_path, "fatpoint_rank2.json", "validate",
                      _set(("algebroid", "bracket", 0, 1, 0, 1), value))
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err and "algebroid.bracket[0][1][0][1]" in err
