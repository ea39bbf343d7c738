"""Command-line interface: parse a problem file, run one command, emit a
deterministic report.

Commands: validate | cohomology | invariants | hs | env | total.
Exit codes: 0 ok, 1 validation or certificate failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebroid import invariants, validate_algebroid, validate_representation
from .cecomplex import ce_complex, total_complex
from .complexes import total_cohomology_dims
from .enveloping import ext_dims, hom_complex_iso, rinehart_complex
from .errors import EngineError, ParseError
from .hochschild import hs_report
from .problems import ProblemFile, check_options, fmt_vector, parse, problem_hash

COMMANDS = ("validate", "cohomology", "invariants", "hs", "env", "total")


def _violation_strings(vs):
    return [v.describe() for v in vs]


def _validate_all(problem: ProblemFile):
    out = {}
    out["algebra"] = _violation_strings(problem.algebra.violations)
    out["algebroid"] = _violation_strings(validate_algebroid(problem.algebroid))
    rep = problem.representation()
    out["representation"] = _violation_strings(
        validate_representation(problem.algebroid, rep))
    if problem.complex is not None:
        out["complex"] = _violation_strings(problem.complex.validate(problem.algebroid))
    if problem.extension_triple is not None:
        out["extension"] = _violation_strings(problem.extension_triple.violations)
    return out


def _clean(validation):
    return all(not v for v in validation.values())


def _pq_table(dims_dict):
    return {f"{p},{q}": d for (p, q), d in sorted(dims_dict.items())}


def run(command: str, problem: ProblemFile, options: dict | None = None) -> tuple[dict, int]:
    """Execute one command; returns (report dict, exit code)."""
    options = check_options(dict(options or {}), "option ")
    field = problem.field
    report = {
        "command": command,
        "engine_version": __version__,
        "field": field.describe(),
        "input_hash": problem_hash(problem),
        "options": {k: v for k, v in sorted(options.items())},
    }
    validation = _validate_all(problem)
    report["validation"] = validation
    if not _clean(validation):
        report["status"] = "violations"
        return report, 1
    if command == "validate":
        report["status"] = "ok"
        return report, 0
    rep = problem.representation()
    try:
        if command == "cohomology":
            cx = ce_complex(problem.algebroid, rep).complex
            groups = [cx.cohomology(p) for p in range(cx.top_degree + 1)]
            report["results"] = {
                "dims": [h.dim for h in groups],
                "representatives": {str(p): [fmt_vector(field, v, cx.dims[p]) for v in h.reps]
                                    for p, h in enumerate(groups)},
            }
        elif command == "invariants":
            inv = invariants(problem.algebroid, rep)
            report["results"] = {
                "dim": inv.dim,
                "basis": [fmt_vector(field, v, inv.ambient_dim) for v in inv.basis],
            }
        elif command == "hs":
            if problem.extension_triple is None:
                raise ParseError("command 'hs' needs an extension block")
            r_max = options.get("max_page", problem.options.get("max_page"))
            hp, e1, e2, ft = hs_report(problem.extension_triple, rep, r_max)
            report["results"] = {
                "pages": {str(page.r): _pq_table(page.dims()) for page in hp.pages},
                "e_infinity": _pq_table(hp.einf.dims()),
                "stable_at": hp.stable_at,
                "convergence": {str(n): {"einf_total": a, "h_total": b}
                                for n, (a, b) in sorted(hp.convergence.items())},
                "graded_ok": hp.filtration.graded_ok,
                "e1_certificate": {f"{p},{q}": list(v) for (p, q), v in sorted(e1.table.items())},
                "e2_certificate": {f"{p},{q}": list(v) for (p, q), v in sorted(e2.table.items())},
                "five_term": {
                    "node_dims": list(ft.node_dims),
                    "exact": list(ft.exact),
                },
            }
        elif command == "env":
            d = options.get("degree", problem.options.get("degree", 3))
            cx, exact_report = rinehart_complex(problem.algebroid, d)
            exts = ext_dims(exact_report, hom_complex_iso(cx, rep))
            U = cx.U
            table = {}
            overflow = {"overflow": True, "terms": None}
            for i, row in enumerate(U.table()):
                for j, (terms, ov) in enumerate(row):
                    table[f"{i},{j}"] = {"overflow": ov,
                                         "terms": [[t, field.fmt(c)] for t, c in terms]}
                for j in range(len(row), U.dim):
                    table[f"{i},{j}"] = overflow
            report["results"] = {
                "degree": d,
                "pbw_dim": U.dim,
                "pbw_basis": [[a, [alpha.count(t) for t in range(U.L.n)]] for a, alpha in U.basis],
                "multiplication_table": table,
                "rinehart_exact_levels": sorted({t for (t, _) in exact_report.homology}),
                "hom_iso": "ok",
                "ext_dims": [d_ for _, d_ in exts],
                "ext_equals_ce": True,
            }
        elif command == "total":
            if problem.complex is None:
                raise ParseError("command 'total' needs a complex block")
            cx = total_complex(problem.algebroid, problem.complex)
            report["results"] = {"dims": total_cohomology_dims(cx)}
        else:
            raise ParseError(f"unknown command {command!r}")
    except ParseError:
        raise
    except EngineError as e:
        report["status"] = "mismatch"
        report["error"] = {"type": type(e).__name__, "message": str(e)}
        return report, 1
    report["status"] = "ok"
    return report, 0


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _render_lines(value, indent, key=None):
    pad = "  " * indent
    label = f"{pad}{key}: " if key is not None else pad
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k in sorted(value):
            lines.extend(_render_lines(value[k], indent + (1 if key is not None else 0), k))
        return lines
    return [label + json.dumps(value)]


def render_text(report: dict) -> str:
    return "\n".join(_render_lines(report, 0)) + "\n"


def _field_block(text: str) -> dict:
    """The field block that --field names: 'rational' or a prime."""
    if text == "rational":
        return {"type": "rational"}
    try:
        return {"type": "prime", "p": int(text)}
    except ValueError:
        raise ParseError(f"--field must be 'rational' or a prime, got {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="rinehart",
        description="Exact cohomology of Lie-Rinehart algebroids: validation, "
                    "CE cohomology, enveloping-algebra checks, spectral sequences.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("problem", help="path to a JSON problem file")
    ap.add_argument("--field", default=None, metavar="rational|P",
                    help="override the problem's field ('rational' or a prime)")
    ap.add_argument("--degree", type=int, default=None,
                    help="PBW cutoff for 'env' (default: problem option or 3)")
    ap.add_argument("--max-page", type=int, default=None,
                    help="last page for 'hs' (default: filtration length + 1)")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    args = ap.parse_args(argv)
    try:
        field = None if args.field is None else _field_block(args.field)
        problem = parse(args.problem, field)
    except (ParseError, ValueError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    options = {}
    if args.degree is not None:
        options["degree"] = args.degree
    if args.max_page is not None:
        options["max_page"] = args.max_page
    try:
        report, code = run(args.command, problem, options)
    except ParseError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    out = render_json(report) if args.format == "json" else render_text(report)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
