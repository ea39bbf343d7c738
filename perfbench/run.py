"""Benchmark for the rinehart engine, driven the way the CLI drives it.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding `src/rinehart`
and `problems/`).  Each request goes problem JSON text -> problems.from_dict ->
cli.run(command, problem, options) -> cli.render_json, in this one process and
thread, one case at a time (a closed loop with one client).  A pass runs the
workload's whole case list; passes repeat until --seconds have elapsed, and
each case's time is its median over passes, scaled to a reference host speed
(see speed.py).  Every output is checked (see check.py); the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones (self
times, work counts, useful/attempted ratios; see tracer.py), and writes the
spans of the first traced pass to .perfbench_trace/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def _engine_present(root: Path) -> bool:
    return (root / "src" / "rinehart" / "cli.py").is_file() and (root / "problems").is_dir()


def measure_setup(workload, seed, tiny, probe):
    """Median over repeats of interpreter start + `import rinehart` in a fresh
    process plus generating, serializing and reading the workload's inputs."""
    import cases
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    reps = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import rinehart"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        built = cases.build(workload, seed, ROOT, tiny)
        reps.append((t0, perf_counter()))
    probe.sample()
    return (statistics.median((b - a) * probe.scale_over(a, b) for a, b in reps),
            statistics.median(b - a for a, b in reps), built)


def execute(case):
    """One CLI request; returns (seconds, exit code, output text)."""
    from rinehart import cli, problems
    from rinehart.errors import ParseError
    t0 = perf_counter()
    try:
        problem = problems.from_dict(json.loads(case.text))
        report, code = cli.run(case.command, problem, case.options)
        out = cli.render_json(report)
    except (ParseError, ValueError) as e:     # the CLI's input-error exit
        code, out = 2, f"input error: {e}\n"
    return perf_counter() - t0, code, out


def run_pass(case_list, checker, probe, tracer=None):
    """One pass over the case list.  times holds (case, seconds without the
    probe's interruptions, start, end)."""
    from check import report_dims
    times, failures, dims = [], [], {}
    failed = 0
    probe_before = probe.spent_s
    wall0 = perf_counter()
    for case in case_list:
        if tracer is not None:
            tracer.case_id = case.id
        spent = probe.spent_s
        t_case = perf_counter()
        try:
            dt, code, out = execute(case)
        except Exception:                      # a raise is a failed case, not a dead run
            failed += 1
            failures.append(f"{case.id}: raised\n{traceback.format_exc(limit=3)}")
            continue
        finally:
            if tracer is not None:
                tracer.end_case()
        times.append((case, dt - (probe.spent_s - spent), t_case, perf_counter()))
        bad = checker.check(case, code, out)
        if code == 0 and case.command in ("cohomology", "hs", "env", "total"):
            dims[case.id] = report_dims(case.command, json.loads(out))
        if bad:
            failed += 1
            failures.extend(bad)
    cross = checker.cross_field(dims)
    failed += len(cross)
    failures.extend(cross)
    end = perf_counter()
    return {"times": times, "failed": failed, "failures": failures, "start": wall0, "end": end,
            "wall": end - wall0 - (probe.spent_s - probe_before), "attempted": len(case_list)}


def case_medians(passes, probe):
    """Per case id: (case, median over passes of its scaled seconds)."""
    by_id = {}
    for p in passes:
        for case, dt, a, b in p["times"]:
            by_id.setdefault(case.id, (case, []))[1].append(dt * probe.scale_over(a, b))
    return {cid: (case, statistics.median(v)) for cid, (case, v) in by_id.items()}


def _field_sum(meds, field):
    return sum(t for c, t in meds.values() if c.field == field)


def end_to_end(meds, setup_s):
    """run_s is the sum over cases of each case's median (the median pass,
    robust to a slow moment in one pass); case_p50_ms/case_p90_ms are deciles
    over the cases' median latencies."""
    lat = [t for _, t in meds.values()]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(lat), "s"),
        "q_run_s": (_field_sum(meds, "Q"), "s"),
        "fp_run_s": (_field_sum(meds, "F_101"), "s"),
        "max_case_s": (max(lat), "s"),
        "case_p50_ms": (deciles[4] * 1e3, "ms"),
        "case_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(snap, untraced, traced):
    """Per-layer metrics of one traced pass (snap, self times already scaled)
    plus the field split and the tracing overhead, from the case medians of
    the run's untraced and traced passes."""
    s, n, c = snap["self_s"], snap["calls"], snap["counts"]
    out = {}

    def t(metric, *labels):
        out[metric] = (sum(s.get(x, 0.0) for x in labels), "s")

    def k(metric, value, unit="count"):
        out[metric] = (value, unit)

    t("problems.parse_s", "problems.parse")
    t("problems.hash_s", "problems.hash")
    t("cli.run_s", "cli.run")
    t("cli.render_s", "cli.render")
    k("cli.report_bytes", c.get("cli.report_bytes", 0), "bytes")
    t("algebra.validate_s", "algebra.validate")
    t("algebroid.validate_s", "algebroid.validate")
    t("algebroid.rep_validate_s", "algebroid.rep_validate")
    k("algebroid.jacobi_triples", c.get("algebroid.jacobi_triples", 0))
    t("extensions.validate_s", "extensions.validate")
    k("linalg.echelon_calls", n.get("linalg.echelon.Q", 0) + n.get("linalg.echelon.Fp", 0))
    t("linalg.echelon_s.Q", "linalg.echelon.Q")
    t("linalg.echelon_s.Fp", "linalg.echelon.Fp")
    k("linalg.echelon_cells", c.get("linalg.echelon_cells", 0))
    k("linalg.echelon_nnz_ratio", _ratio(c.get("linalg.echelon_nnz", 0),
                                         c.get("linalg.echelon_cells", 0)), "ratio")
    k("linalg.rank_calls", n.get("linalg.rank", 0))
    k("linalg.basis_attempts", c.get("linalg.basis_attempts", 0))
    k("linalg.basis_accept_ratio", _ratio(c.get("linalg.basis_kept", 0),
                                          c.get("linalg.basis_attempts", 0)), "ratio")
    t("linalg.complete_basis_s", "linalg.complete_basis")
    t("linalg.span_s", "linalg.span")
    k("linalg.subspace_inits", n.get("linalg.subspace_init", 0))
    t("linalg.subspace_init_s", "linalg.subspace_init")
    t("linalg.intersect_s", "linalg.intersect")
    t("linalg.preimage_s", "linalg.preimage")
    t("linalg.kernel_s", "linalg.kernel")
    k("linalg.solve_calls", n.get("linalg.solve", 0))
    t("linalg.solve_s", "linalg.solve")
    k("linalg.mul_calls", n.get("linalg.mul.Q", 0) + n.get("linalg.mul.Fp", 0))
    t("linalg.mul_s.Q", "linalg.mul.Q")
    t("linalg.mul_s.Fp", "linalg.mul.Fp")
    k("linalg.mul_macs", c.get("linalg.mul_macs", 0))
    k("linalg.mul_nnz_ratio", _ratio(c.get("linalg.mul_nnz", 0), c.get("linalg.mul_cells", 0)),
      "ratio")
    k("fields.fp_to_q_ratio", _ratio(_field_sum(untraced, "F_101"), _field_sum(untraced, "Q")),
      "ratio")
    k("cecomplex.builds", n.get("cecomplex.assemble", 0))
    t("cecomplex.assemble_s", "cecomplex.assemble")
    k("cecomplex.cochain_dim", c.get("cecomplex.cochain_dim", 0))
    t("complexes.dd_check_s", "complexes.dd_check")
    k("complexes.cohomology_calls", n.get("complexes.cohomology", 0))
    t("complexes.cohomology_s", "complexes.cohomology")
    t("complexes.filtered_init_s", "complexes.filtered_init")
    k("complexes.pages_calls", n.get("complexes.pages", 0))
    t("complexes.pages_s", "complexes.pages")
    t("complexes.edge_maps_s", "complexes.edge_maps")
    k("complexes.coordinates_calls", n.get("complexes.coordinates", 0))
    k("extensions.adapt_calls", n.get("extensions.adapt", 0))
    t("extensions.adapt_s", "extensions.adapt")
    t("extensions.induced_rep_s", "extensions.induced_rep")
    t("hochschild.filtration_s", "hochschild.filtration")
    t("hochschild.hs_pages_s", "hochschild.hs_pages")
    t("hochschild.check_e1_s", "hochschild.check_e1")
    t("hochschild.check_e2_s", "hochschild.check_e2")
    t("hochschild.five_term_s", "hochschild.five_term")
    k("enveloping.pbw_dim", c.get("enveloping.pbw_dim", 0))
    calls = c.get("enveloping.straighten_calls", 0)
    k("enveloping.straighten_calls", calls)
    k("enveloping.straighten_hit_ratio",
      1 - _ratio(c.get("enveloping.straighten_new", 0), calls) if calls else 0.0, "ratio")
    t("enveloping.table_s", "enveloping.table")
    k("enveloping.resolution_builds", n.get("enveloping.resolution", 0))
    t("enveloping.resolution_s", "enveloping.resolution")
    k("enveloping.resolution_cells", c.get("enveloping.resolution_cells", 0))
    k("enveloping.resolution_nnz_ratio", _ratio(c.get("enveloping.resolution_nnz", 0),
                                                c.get("enveloping.resolution_cells", 0)), "ratio")
    t("enveloping.exactness_s", "enveloping.exactness")
    t("enveloping.hom_iso_s", "enveloping.hom_iso")
    t("enveloping.ext_s", "enveloping.ext")
    k("trace.overhead_ratio", _ratio(sum(t for _, t in traced.values()),
                                     sum(t for _, t in untraced.values())), "ratio")
    k("trace.attributed_ratio", _ratio(snap["raw_self_s"] + snap["bookkeeping_s"], snap["wall"]),
      "ratio")
    return out


def _median_metrics(per_pass):
    """Median over traced passes; counts repeat exactly, so they stay whole numbers."""
    out = {}
    for m, (first, unit) in per_pass[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        out[m] = (median(p[m][0] for p in per_pass), unit)
    return out


def write_trace(tracer, workload, seed, snaps):
    out_dir = ROOT / ".perfbench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed,
           "span_fields": ["name", "start_s", "end_s", "parent", "case"],
           "spans": tracer.spans,
           "passes": [{"wall_s": sn["wall"], "self_s": sn["self_s"], "calls": sn["calls"],
                       "counts": sn["counts"], "bookkeeping_s": sn["bookkeeping_s"]}
                      for sn in snaps]}
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "ce_scale", "certify_scale"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny case lists, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)
    if not _engine_present(ROOT):
        sys.stderr.write(f"no engine sources under {ROOT}: expected src/rinehart and problems/\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import rinehart  # noqa: F401  (imported before timing, as a CLI process would)
    from check import Checker, load_expected
    from speed import REFERENCE_S, SpeedProbe, pinned_to_fastest_cpu
    from tracer import Tracer

    probe = SpeedProbe()
    with pinned_to_fastest_cpu():
        setup_s, setup_raw, case_list = measure_setup(args.workload, args.seed, args.tiny, probe)
    checker = Checker(load_expected(HERE / "expected.json"))
    tracer = Tracer() if args.trace else None
    untraced, traced, snaps = [], [], []
    t_start = perf_counter()
    while True:
        gc.collect()
        with probe.sampling():
            untraced.append(run_pass(case_list, checker, probe))
        if tracer is not None:
            # no probe inside traced passes: it would land in the spans' self
            # times; one sample on each side scales the whole pass
            gc.collect()
            probe.sample()
            tracer.reset(keep_spans=not snaps)
            tracer.install()
            try:
                p = run_pass(case_list, checker, probe, tracer)
            finally:
                tracer.uninstall()
            probe.sample()
            traced.append(p)
            scale = probe.scale_over(p["start"], p["end"])
            snaps.append({"self_s": {k: v * scale for k, v in tracer.self_s.items()},
                          "calls": dict(tracer.calls), "counts": dict(tracer.counts),
                          "bookkeeping_s": tracer.bookkeeping_s, "wall": p["wall"],
                          "raw_self_s": sum(tracer.self_s.values())})
        if perf_counter() - t_start >= args.seconds:
            break

    all_passes = untraced + traced
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    for msg in dict.fromkeys(m for p in all_passes for m in p["failures"]):
        print(f"FAIL {msg}")
    untraced_meds = case_medians(untraced, probe)
    raw_run = sum(dt for p in untraced for _, dt, _, _ in p["times"]) / len(untraced)
    print(f"host: probe kernel median {statistics.median(probe.kernel_s) * 1e3:.1f} ms "
          f"(reference {REFERENCE_S * 1e3:.0f} ms); unscaled mean pass {raw_run:.4f} s, "
          f"unscaled setup {setup_raw:.4f} s")
    if tracer is None:
        metrics = end_to_end(untraced_meds, setup_s)
        print(f"{args.workload} seed={args.seed}: {len(untraced)} passes of {len(case_list)} "
              f"cases; case_p50_ms/case_p90_ms over the medians of {len(untraced_meds)} cases "
              f"({sum(len(p['times']) for p in untraced)} samples)")
    else:
        traced_meds = case_medians(traced, probe)
        metrics = _median_metrics([layer_metrics(sn, untraced_meds, traced_meds) for sn in snaps])
        path = write_trace(tracer, args.workload, args.seed, snaps)
        print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced + {len(traced)} traced "
              f"passes of {len(case_list)} cases; {len(tracer.spans)} spans in {path.name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
