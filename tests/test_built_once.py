"""Each artifact of a request is built once: the echelon of each differential
behind the cohomology groups, one elimination of each map of the resolution
behind its exactness on every level, the CE complex of the kernel behind the
E_1 and E_2 certificates, the reduction of each filtered differential
behind the spectral pages, the Lie-morphism check of a representation, the
products of the regular module and the symbol commutators, the action of each
bracket coefficient, and the validation of the algebra and of the extension,
which adapt reuses without a rank of its own.
Validating a valid algebroid brackets no pair of k-vectors and makes a number
of matrix products set by the A-basis, parsing builds a field element only
for a nonzero scalar, the enveloping table reads each basis degree once and
takes one straightening step per product within the cutoff, the
augmentation multiplies no matrices, and a report formats only the nonzero
entries of its vectors."""

import json
import sys
from collections import Counter
from itertools import product
from pathlib import Path

from rinehart import algebroid, cecomplex, cli, complexes, extensions
from rinehart.algebra import AModule, FiniteAlgebra
from rinehart.algebroid import LieRinehartAlgebroid
from rinehart.cecomplex import ce_complex
from rinehart.fields import QQ, Field
from rinehart.linalg import Matrix
from rinehart.problems import ProblemFile, parse, problem_hash

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def patch_everywhere(monkeypatch, owner, name, make):
    """Replace every module-level binding of owner.name in the package."""
    fn = getattr(owner, name)
    wrapped = make(fn)
    for modname, mod in list(sys.modules.items()):
        if modname == "rinehart" or modname.startswith("rinehart."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapped)


def recording(calls):
    """A wrapper factory that appends each call's first argument to calls."""
    def make(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)
        return wrapper
    return make


def recorded_complexes(monkeypatch):
    """The list that every CochainComplex built from now on is appended to."""
    built = []
    init = complexes.CochainComplex.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(complexes.CochainComplex, "__init__", record)
    return built


def test_one_kernel_and_one_image_per_complex_and_degree_in_hs(monkeypatch):
    # the kernel of d_i and the image of d_{i-1} come from one echelon per map
    from rinehart import linalg
    built, eliminated, solved = recorded_complexes(monkeypatch), [], []
    patch_everywhere(monkeypatch, linalg, "echelon", recording(eliminated))
    patch_everywhere(monkeypatch, linalg, "solve", recording(solved))
    report, code = cli.run("hs", parse(PROBLEMS / "ext_heis_center.json"))
    assert code == 0, report
    assert len(built) > 4
    for c in built:
        for i, d in enumerate(c.diffs):
            # the arguments stay referenced, so identity cannot be reused
            assert sum(m is d for m in eliminated) == 1, (c.dims, i)
    assert solved == []


def test_cohomology_eliminates_each_map_once(monkeypatch):
    from rinehart import linalg
    built, eliminated = recorded_complexes(monkeypatch), []
    patch_everywhere(monkeypatch, linalg, "echelon", recording(eliminated))
    report, code = cli.run("cohomology", parse(PROBLEMS / "heisenberg3.json"))
    assert code == 0, report
    (c,) = built
    # d_0, d_1, d_2 and the zero map out of the top degree
    assert len(eliminated) == len(c.diffs) + 1 == 4
    assert [m for m in eliminated if not any(m is d for d in c.diffs)] == \
        [Matrix.zero(c.field, 0, c.dims[-1])]


def test_exactness_eliminates_each_map_once(monkeypatch):
    from rinehart import enveloping, linalg
    checked, eliminated = [], []
    init, check = linalg.RowBasis.__init__, enveloping.check_exactness

    def record_basis(self, field, n):
        init(self, field, n)
        if checked and checked[-1] is not None:
            eliminated.append(n)

    def record_check(cx):
        checked.append(cx)
        try:
            return check(cx)
        finally:
            checked.append(None)

    monkeypatch.setattr(linalg.RowBasis, "__init__", record_basis)
    monkeypatch.setattr(enveloping, "check_exactness", record_check)
    report, code = cli.run("env", parse(PROBLEMS / "heisenberg3.json"), {"degree": 3})
    assert code == 0, report
    cx = checked[0]
    assert checked[1:] == [None]
    # one basis for the columns of each partial_i and one for those of epsilon
    assert sorted(eliminated) == sorted([len(b) for b in cx.bases[:-1]] + [cx.U.alg.dim])
    assert len(eliminated) == len(cx.bases) == 4


def test_hs_builds_the_ce_complex_of_the_kernel_once(monkeypatch):
    adapted, assembled = [], []
    adapt = extensions.adapt

    def record_adapt(E, R):
        adapted.append(adapt(E, R))
        return adapted[-1]

    patch_everywhere(monkeypatch, extensions, "adapt", lambda fn: record_adapt)
    patch_everywhere(monkeypatch, cecomplex, "ce_complex", recording(assembled))
    report, code = cli.run("hs", parse(PROBLEMS / "ext_heis_center.json"))
    assert code == 0, report
    (ad,) = adapted
    assert ad.r == 2
    assert sum(L is ad.K_sub for L in assembled) == 1


def test_adapt_takes_no_rank_once_the_extension_is_validated(monkeypatch):
    # the inversion of the change of basis decides by itself whether the
    # adapted family is an A-basis
    from rinehart import linalg
    problem = parse(PROBLEMS / "ext_heis_center.json")
    E = problem.extension_triple
    assert E.violations == ()
    calls = []
    patch_everywhere(monkeypatch, linalg, "rank", recording(calls))
    ad = extensions.adapt(E, problem.representation())
    assert ad.r == 2 and calls == []


def test_one_lie_morphism_loop_per_algebroid_and_representation(monkeypatch):
    loops = Counter()
    seen = []
    failing_pairs = algebroid._failing_pairs

    def counted(L, R):
        seen.append((L, R))
        loops[(id(L), id(R))] += 1
        return failing_pairs(L, R)

    monkeypatch.setattr(algebroid, "_failing_pairs", counted)
    problem = parse(PROBLEMS / "fatpoint_rank2.json")
    assert problem.module is None
    report, code = cli.run("cohomology", problem)
    assert code == 0, report
    assert report["validation"]["algebroid"] == report["validation"]["representation"] == []
    assert sorted(loops.values()) == [1]


def test_one_product_per_regular_module_pair_and_symbol_commutator(monkeypatch):
    from rinehart import linalg
    calls = []
    mul = linalg.Matrix.mul

    def recorded(left, right):
        calls.append((left, right))   # kept referenced, so identity cannot be reused
        return mul(left, right)

    monkeypatch.setattr(linalg.Matrix, "mul", recorded)
    problem = parse(PROBLEMS / "fatpoint_rank2.json")
    assert problem.module is None
    report, code = cli.run("cohomology", problem)
    assert code == 0, report
    products = Counter((id(left), id(right)) for left, right in calls)
    R = algebroid.anchor_representation(problem.algebroid)
    act = R.module.action
    assert len(act) > 1 and len(R.rho) > 1
    for i, j in product(range(len(act)), repeat=2):
        assert products[id(act[i]), id(act[j])] == 1, ("act_i act_j", i, j)
    for i, b in product(range(len(R.rho)), range(len(act))):
        assert products[id(R.rho[i]), id(act[b])] == 1, ("rho_i act_b", i, b)
        assert products[id(act[b]), id(R.rho[i])] == 1, ("act_b rho_i", i, b)


def test_each_validator_runs_once_per_request(monkeypatch):
    from rinehart import algebra
    runs = {"algebra": [], "extension": [], "extension data": []}
    patch_everywhere(monkeypatch, algebra, "validate_algebra", recording(runs["algebra"]))
    patch_everywhere(monkeypatch, extensions, "validate_extension",
                     recording(runs["extension"]))
    patch_everywhere(monkeypatch, extensions, "extension_from_k_indices",
                     recording(runs["extension data"]))
    for command in ("validate", "cohomology", "invariants", "hs", "env"):
        for calls in runs.values():
            calls.clear()
        report, code = cli.run(command, parse(PROBLEMS / "ext_heis_center.json"))
        assert code == 0, report
        assert {k: len(v) for k, v in runs.items()} == \
            {"algebra": 1, "extension": 1, "extension data": 1}, command


def test_pages_past_the_bound_reuse_the_limit_page(monkeypatch):
    pages = []
    monkeypatch.setattr(complexes, "_page", recording(pages)(complexes._page))
    report, code = cli.run("hs", parse(PROBLEMS / "ext_heis_center.json"), {"max_page": 6})
    assert code == 0, report
    assert sorted(report["results"]["pages"], key=int) == [str(r) for r in range(1, 7)]
    assert len(pages) == 3


def test_hs_reduces_each_differential_once_and_forms_no_subspace_chain(monkeypatch):
    from rinehart import linalg
    reduced, filtered, subspace_calls = [], [], []
    monkeypatch.setattr(complexes, "_reduce", recording(reduced)(complexes._reduce))
    init = complexes.FilteredComplex.__init__

    def record_filtered(self, *args, **kwargs):
        init(self, *args, **kwargs)
        filtered.append(self)

    monkeypatch.setattr(complexes.FilteredComplex, "__init__", record_filtered)
    for name in ("intersect", "preimage"):
        def caller_recorded(self, *args, _fn=getattr(linalg.Subspace, name), _name=name):
            subspace_calls.append((_name, sys._getframe(1).f_globals["__name__"]))
            return _fn(self, *args)
        monkeypatch.setattr(linalg.Subspace, name, caller_recorded)
    report, code = cli.run("hs", parse(PROBLEMS / "ext_heis_center.json"))
    assert code == 0, report
    assert [call for call in subspace_calls
            if call[1] in ("rinehart.complexes", "rinehart.hochschild")] == []
    assert len(filtered) == 1
    cx = filtered[0].complex
    assert len(reduced) == cx.top_degree + 1
    for d in cx.diffs:
        assert sum(m is d for m in reduced) == 1


def test_validation_forms_no_k_closure(monkeypatch):
    brackets, loops = [], []
    patch_everywhere(monkeypatch, algebroid, "leibniz_bracket", recording(brackets))
    patch_everywhere(monkeypatch, algebroid, "_k_pair_loop", recording(loops))
    report, code = cli.run("cohomology", parse(PROBLEMS / "fatpoint_rank2.json"))
    assert code == 0, report
    assert brackets == loops == []


def test_parsing_builds_field_elements_of_nonzero_scalars_only(monkeypatch):
    path = PROBLEMS / "fatpoint_rank2.json"
    data = json.loads(path.read_text())
    assert data.keys() == {"field", "algebra", "algebroid"}
    blocks = [data["algebra"]["unit"], data["algebra"]["mult"], data["algebroid"]["anchor"],
              data["algebroid"]["bracket"]]

    def nonzero(node):
        return sum(map(nonzero, node)) if isinstance(node, list) else int(node != 0)

    calls = []
    monkeypatch.setattr(Field, "parse", recording(calls)(Field.parse))
    parse(path)
    assert 0 < len(calls) <= sum(map(nonzero, blocks))


def test_enveloping_table_reads_each_degree_once(monkeypatch):
    from rinehart.enveloping import TruncatedEnveloping
    U = TruncatedEnveloping(parse(PROBLEMS / "heisenberg3.json").algebroid, 3)
    calls = []
    monkeypatch.setattr(TruncatedEnveloping, "degree",
                        recording(calls)(TruncatedEnveloping.degree))
    U.table()
    assert U.dim > 1 and len(calls) == U.dim


def heisenberg3_enveloping(cutoff):
    from rinehart.enveloping import TruncatedEnveloping
    return TruncatedEnveloping(parse(PROBLEMS / "heisenberg3.json").algebroid, cutoff)


def test_enveloping_table_straightens_no_product_from_scratch(monkeypatch):
    from rinehart.enveloping import TruncatedEnveloping
    U = heisenberg3_enveloping(5)
    calls = []
    monkeypatch.setattr(TruncatedEnveloping, "mul_mono",
                        recording(calls)(TruncatedEnveloping.mul_mono))
    U.table()
    assert calls == []


def test_enveloping_table_takes_one_step_per_cell(monkeypatch):
    # one rmul_s_elem per product m_i (e_b s^beta) within the cutoff with
    # |beta| >= 1, not counting the calls straightening makes inside itself
    from rinehart.enveloping import TruncatedEnveloping
    U = heisenberg3_enveloping(5)
    depth, steps = [0], []

    def nesting(fn, log):
        def wrapper(*args):
            if log is not None and depth[0] == 0:
                log.append(args[1:])
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for name, log in (("rmul_s_mono", None), ("rmul_alg_mono", None), ("rmul_s_elem", steps)):
        monkeypatch.setattr(TruncatedEnveloping, name,
                            nesting(getattr(TruncatedEnveloping, name), log))
    U.table()
    degrees = [U.degree(mono) for mono in U.basis]
    within = [(d1, d2) for d1 in degrees for d2 in degrees if d1 + d2 <= U.cutoff]
    assert (U.dim, len(within)) == (56, 462)
    assert len(steps) == sum(d2 >= 1 for _, d2 in within) == 406


def test_augmentation_multiplies_no_matrices(monkeypatch):
    # a chain of |alpha| products per monomial would take 210 for these 56
    from rinehart import linalg
    from rinehart.algebroid import anchor_representation
    U = heisenberg3_enveloping(5)
    anchor_representation(U.L)
    calls = []
    monkeypatch.setattr(linalg.Matrix, "mul", recording(calls)(linalg.Matrix.mul))
    eps = U.augmentation_matrix()
    assert (eps.rows, eps.cols) == (1, 56) and calls == []


def fat_point(j, rank):
    """A = k[x]/(x^j) over Q; a(s_1) = x d/dx, a(s_i) = 0 and [s_1, s_i] = s_i
    for i > 1."""
    f = QQ
    e = [tuple(f.one if t == c else f.zero for t in range(j)) for c in range(j)]
    zero = tuple(f.zero for _ in range(j))
    alg = FiniteAlgebra(f, j, [[e[a + b] if a + b < j else zero for b in range(j)]
                               for a in range(j)], e[0])
    x_ddx = Matrix.from_rows(f, [[f.from_int(a) if a == b else f.zero for b in range(j)]
                                 for a in range(j)])
    bracket = [[[zero] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(1, rank):
        bracket[0][i] = [e[0] if t == i else zero for t in range(rank)]
        bracket[i][0] = [tuple(-x for x in e[0]) if t == i else zero for t in range(rank)]
    L = LieRinehartAlgebroid(alg, rank, [x_ddx] + [Matrix.zero(f, j, j)] * (rank - 1), bracket)
    return ProblemFile(f, alg, L)


def products_in_validation(monkeypatch, problem):
    from rinehart import linalg
    calls = []
    monkeypatch.setattr(linalg.Matrix, "mul", recording(calls)(linalg.Matrix.mul))
    validation = cli._validate_all(problem)
    assert all(not v for v in validation.values()), validation
    return len(calls)


def test_validation_products_over_a_fat_point(monkeypatch):
    # comparing every pair of the 18 k-basis elements e_a s_i takes 378 products
    assert products_in_validation(monkeypatch, fat_point(6, 3)) <= 378 // 2


def test_validation_products_over_the_base_field(monkeypatch):
    # m = 1: the k-basis is the A-basis, so there is nothing to save
    assert products_in_validation(monkeypatch, parse(PROBLEMS / "sl2_adjoint.json")) <= 26


def abelian(n):
    """The abelian Lie algebra k^n over Q, with trivial coefficients."""
    f = QQ
    alg = FiniteAlgebra(f, 1, [[(f.one,)]], (f.one,))
    bracket = [[[(f.zero,)] * n for _ in range(n)] for _ in range(n)]
    L = LieRinehartAlgebroid(alg, n, [Matrix.zero(f, 1, 1)] * n, bracket)
    return ProblemFile(f, alg, L)


def test_reports_format_only_nonzero_entries(monkeypatch):
    problem = abelian(8)
    calls = []
    fmt = Field.fmt
    monkeypatch.setattr(Field, "fmt", lambda self, x: calls.append(x) or fmt(self, x))
    problem_hash(problem)
    header = len(calls)
    calls.clear()
    report, code = cli.run("cohomology", problem)
    assert code == 0, report
    reps = report["results"]["representatives"]
    nonzero = sum(1 for vectors in reps.values() for v in vectors for x in v if x != 0)
    assert nonzero == 2 ** 8      # one unit cocycle per basis cochain
    assert len(calls) <= nonzero + header


def test_one_action_per_bracket_coefficient(monkeypatch):
    calls = []
    monkeypatch.setattr(AModule, "act_vec", recording(calls)(AModule.act_vec))
    for problem in (parse(PROBLEMS / "fatpoint_rank2.json"), fat_point(4, 3)):
        L, R = problem.algebroid, problem.representation()
        coefficients = sum(1 for plane in L.bracket for row in plane for c in row if any(c))
        calls.clear()
        first, second = ce_complex(L, R), ce_complex(L, R)
        assert first.complex.diffs == second.complex.diffs
        assert 0 < len(calls) <= coefficients
