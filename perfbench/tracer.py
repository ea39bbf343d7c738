"""Outside-in tracer: wraps the engine's public functions from the benchmark's
own files, with no change to the engine.

Each wrapped call is a span (name, start, end, parent, case id).  A span's
self time is its duration minus the full intervals of its child spans; the
tracer's own bookkeeping around each call is summed apart, so

    pass wall time = sum of self times + bookkeeping + harness time

where harness time is what the benchmark loop spends outside every span.

Every module-level binding of a wrapped function is patched, including names
that consumer modules imported with `from .linalg import rank`, because those
are separate bindings of the same object.  Scalar operators (`FpElement`,
`Fraction`) are not wrapped: that would measure the wrapper; the field layer
is read through the Q / F_p split of the end-to-end times instead.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _nnz(m):
    return sum(1 for row in m.entries for x in row if x)


def _kind(m):
    return "Q" if m.field.kind == "rational" else "Fp"


# -- hooks: (counters, args, result) -> None, run outside the timed span -----

def _echelon_hook(c, args, result):
    m = args[0]
    c["linalg.echelon_cells"] += m.rows * m.cols
    c["linalg.echelon_nnz"] += _nnz(m)


def _mul_hook(c, args, result):
    a, b = args[0], args[1]
    c["linalg.mul_macs"] += a.rows * a.cols * b.cols
    c["linalg.mul_cells"] += a.rows * a.cols + b.rows * b.cols
    c["linalg.mul_nnz"] += _nnz(a) + _nnz(b)


def _span_hook(c, args, result):
    c["linalg.basis_attempts"] += len(args[2])
    c["linalg.basis_kept"] += result.dim


def _complete_basis_hook(c, args, result):
    c["linalg.basis_attempts"] += len(args[1])
    c["linalg.basis_kept"] += len(result)


def _jacobi_hook(c, args, result):
    # the exhaustive Jacobi loop runs unless an algebra or anchor axiom failed first
    if not any(v.axiom.startswith("algebra-") or v.axiom == "anchor-derivation" for v in result):
        c["algebroid.jacobi_triples"] += comb(args[0].kdim, 3)


def _ce_hook(c, args, result):
    c["cecomplex.cochain_dim"] += sum(result.complex.dims)


def _pbw_hook(c, args, result):
    c["enveloping.pbw_dim"] += args[0].dim


def _resolution_hook(c, args, result):
    for d in result[0].partials[1:]:
        c["enveloping.resolution_cells"] += d.rows * d.cols
        c["enveloping.resolution_nnz"] += _nnz(d)


def _render_hook(c, args, result):
    c["cli.report_bytes"] += len(result.encode())


# (module, qualified name, span name, field-split, hook).  Span names are the
# per-layer metric stems (`<name>_s` self time, calls counted per name); rref
# and image_subspace carry no metric of their own but keep their elimination
# clean-up out of their callers' self times.
TARGETS = [
    ("problems", "from_dict", "problems.parse", False, None),
    ("problems", "problem_hash", "problems.hash", False, None),
    ("cli", "run", "cli.run", False, None),
    ("cli", "render_json", "cli.render", False, _render_hook),
    ("algebra", "validate_algebra", "algebra.validate", False, None),
    ("algebroid", "validate_algebroid", "algebroid.validate", False, _jacobi_hook),
    ("algebroid", "validate_representation", "algebroid.rep_validate", False, None),
    ("linalg", "echelon", "linalg.echelon", True, _echelon_hook),
    ("linalg", "rref", "linalg.rref", False, None),
    ("linalg", "rank", "linalg.rank", False, None),
    ("linalg", "kernel_vectors", "linalg.kernel", False, None),
    ("linalg", "kernel_subspace", "linalg.kernel", False, None),
    ("linalg", "image_subspace", "linalg.image", False, None),
    ("linalg", "solve", "linalg.solve", False, None),
    ("linalg", "complete_basis", "linalg.complete_basis", False, _complete_basis_hook),
    ("linalg", "Matrix.mul", "linalg.mul", True, _mul_hook),
    ("linalg", "Subspace.__init__", "linalg.subspace_init", False, None),
    ("linalg", "Subspace.span", "linalg.span", False, _span_hook),
    ("linalg", "Subspace.intersect", "linalg.intersect", False, None),
    ("linalg", "Subspace.preimage", "linalg.preimage", False, None),
    ("cecomplex", "ce_complex", "cecomplex.assemble", False, _ce_hook),
    ("complexes", "CochainComplex.__init__", "complexes.dd_check", False, None),
    ("complexes", "cohomology_at", "complexes.cohomology", False, None),
    ("complexes", "FilteredComplex.__init__", "complexes.filtered_init", False, None),
    ("complexes", "spectral_pages", "complexes.pages", False, None),
    ("complexes", "edge_maps", "complexes.edge_maps", False, None),
    ("complexes", "SpectralPage.coordinates", "complexes.coordinates", False, None),
    ("extensions", "validate_extension", "extensions.validate", False, None),
    ("extensions", "adapt", "extensions.adapt", False, None),
    ("extensions", "induced_q_rep", "extensions.induced_rep", False, None),
    ("extensions", "induced_q_rep_adapted", "extensions.induced_rep", False, None),
    ("hochschild", "hs_filtration", "hochschild.filtration", False, None),
    ("hochschild", "hs_pages", "hochschild.hs_pages", False, None),
    ("hochschild", "check_e1", "hochschild.check_e1", False, None),
    ("hochschild", "check_e2", "hochschild.check_e2", False, None),
    ("hochschild", "five_term", "hochschild.five_term", False, None),
    ("enveloping", "TruncatedEnveloping.__init__", "enveloping.pbw_init", False, _pbw_hook),
    ("enveloping", "TruncatedEnveloping.table", "enveloping.table", False, None),
    ("enveloping", "rinehart_complex", "enveloping.resolution", False, _resolution_hook),
    ("enveloping", "check_exactness", "enveloping.exactness", False, None),
    ("enveloping", "hom_complex_iso", "enveloping.hom_iso", False, None),
    ("enveloping", "ext_dims", "enveloping.ext", False, None),
]

# PBW straightening is memoized and called far too often for a timed span;
# these only count calls and distinct (instance, arguments) keys.
COUNTED = [
    ("enveloping", "TruncatedEnveloping.rmul_s_mono"),
    ("enveloping", "TruncatedEnveloping.rmul_alg_mono"),
]


class Tracer:
    """Span store and counters for one run; install() patches, uninstall() restores."""

    def __init__(self):
        self.stack = []            # open frames: [child_covered_s, span index or None]
        self.spans = []            # (name, start, end, parent index, case id)
        self.keep_spans = False
        self.case_id = None
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.bookkeeping_s = 0.0
        self._straighten_keys = set()
        self._patches = []

    # -- per-pass state --------------------------------------------------------

    def reset(self, keep_spans=False):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.bookkeeping_s = 0.0
        self.keep_spans = keep_spans

    def end_case(self):
        """Memo tables live per enveloping-algebra instance, so distinct keys are
        counted per case (the instances die with it)."""
        self.counts["enveloping.straighten_new"] += len(self._straighten_keys)
        self._straighten_keys.clear()

    # -- wrapping --------------------------------------------------------------

    def _timed(self, name, fn, split, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            label = f"{name}.{_kind(args[0])}" if split else name
            stack = tr.stack
            parent = stack[-1] if stack else None
            idx = None
            if tr.keep_spans:
                idx = len(tr.spans)
                tr.spans.append(None)
            frame = [0.0, idx]
            stack.append(frame)
            t1 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = perf_counter()
                stack.pop()
                tr.self_s[label] += (t2 - t1) - frame[0]
                tr.calls[label] += 1
                if idx is not None:
                    tr.spans[idx] = (label, t1, t2, parent[1] if parent else None, tr.case_id)
                if ok and hook is not None:
                    hook(tr.counts, args, result)
                t3 = perf_counter()
                if parent is not None:
                    parent[0] += t3 - t0
                tr.bookkeeping_s += (t1 - t0) + (t3 - t2)

        return wrapper

    def _counted(self, fn):
        tr = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(obj, *args):
            t0 = perf_counter()
            tr.counts["enveloping.straighten_calls"] += 1
            tr._straighten_keys.add((id(obj), name) + args)
            spent = perf_counter() - t0
            tr.bookkeeping_s += spent
            if tr.stack:
                tr.stack[-1][0] += spent    # keep it out of the caller's self time
            return fn(obj, *args)

        return wrapper

    def install(self):
        if self._patches:
            return
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "rinehart" or name.startswith("rinehart.")}
        for modname, qual, span, split, hook in TARGETS:
            self._patch(mods, modname, qual, lambda fn, s=span, sp=split, h=hook:
                        self._timed(s, fn, sp, h))
        for modname, qual in COUNTED:
            self._patch(mods, modname, qual, self._counted)

    def _patch(self, mods, modname, qual, make):
        owner = mods[f"rinehart.{modname}"]
        parts = qual.split(".")
        if len(parts) == 2:
            cls = getattr(owner, parts[0])
            raw = cls.__dict__[parts[1]]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = make(fn)
            self._patches.append((cls, parts[1], raw))
            setattr(cls, parts[1], staticmethod(wrapped) if static else wrapped)
            return
        fn = getattr(owner, qual)
        wrapped = make(fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
