"""Workload case lists and their seeded input generators.

A case is one CLI request: problem JSON text, a command and its options.  The
text is what `rinehart <command> <file> --format json` would read; the engine
sees nothing else.

Scaling families are written as integer structure constants and serialized
through the engine's public constructors (`FiniteAlgebra`,
`LieRinehartAlgebroid`, `ProblemFile`, `problems.to_dict`).  Seed 0 keeps the canonical
bases.  Any other seed shuffles the case order and rewrites each family member
on a seeded signed permutation of its section basis that keeps every kernel
on its indices, so every generated input is isomorphic to its seed-0 form,
every closed-form answer still holds, and the tensors stay exactly as sparse.
General elementary changes s_i <- s_i + c s_j would fill in the bracket
tensor, and PBW straightening then costs up to 4x more on some seeds, which
would make seeds incomparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dfield
from pathlib import Path

FIELDS = ("Q", "F_101")
CORPUS_COMMANDS = ("validate", "cohomology", "invariants")
WORKLOADS = ("corpus", "ce_scale", "certify_scale")


@dataclass
class Case:
    id: str               # stable across seeds; keys the frozen expectations
    field: str            # "Q", "F_101" or another field label from the input
    command: str
    options: dict
    text: str             # problem JSON, as a CLI user would hand it over
    expect: dict = dfield(default_factory=dict)   # closed-form facts for the checker


@dataclass
class Structure:
    """Integer structure constants of an algebroid over A = k[e_0..e_{m-1}]."""
    m: int
    mult: list            # mult[i][j]: coordinates of e_i e_j
    unit: list
    n: int
    anchors: list         # n matrices m x m, column j = anchor of s_i on e_j
    bracket: list         # bracket[i][j][l]: A-coordinates of s_l in [s_i, s_j]
    k_indices: list | None = None


# -- families ----------------------------------------------------------------

def _lie(n, pairs):
    """A Lie algebra over A = k from {(i, j): [(l, c), ...]} with i < j."""
    bracket = [[[[0] for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (i, j), terms in pairs.items():
        for l, c in terms:
            bracket[i][j][l][0] += c
            bracket[j][i][l][0] -= c
    return Structure(1, [[[1]]], [1], n, [[[0]] for _ in range(n)], bracket)


def abelian(n):
    return _lie(n, {})


def heisenberg(k):
    """h_{2k+1}: basis x_1..x_k, y_1..y_k, z with [x_i, y_i] = z."""
    return _lie(2 * k + 1, {(i, k + i): [(2 * k, 1)] for i in range(k)})


def upper_triangular_n4():
    """Strictly upper-triangular 4x4 matrices, basis E_ij (i < j), [E_ij, E_jk] = E_ik."""
    basis = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    idx = {b: t for t, b in enumerate(basis)}
    pairs = {}
    for (a, b) in basis:
        for (c, d) in basis:
            if b == c:
                s, t = idx[(a, b)], idx[(c, d)]
                key, sign = ((s, t), 1) if s < t else ((t, s), -1)
                pairs.setdefault(key, []).append((idx[(a, d)], sign))
    return _lie(6, pairs)


def sl2():
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return _lie(3, {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]})


def fat_point(j, rank):
    """A = k[x]/(x^j); a(s_1) = x d/dx, a(s_i) = 0 and [s_1, s_i] = s_i for i > 1."""
    mult = [[[1 if a + b == c else 0 for c in range(j)] for b in range(j)] for a in range(j)]
    unit = [1] + [0] * (j - 1)
    zero = [[0] * j for _ in range(j)]
    x_ddx = [[a if a == b else 0 for b in range(j)] for a in range(j)]
    anchors = [x_ddx] + [zero] * (rank - 1)
    bracket = [[[[0] * j for _ in range(rank)] for _ in range(rank)] for _ in range(rank)]
    for i in range(1, rank):
        bracket[0][i][i] = list(unit)
        bracket[i][0][i] = [-u for u in unit]
    return Structure(j, mult, unit, rank, anchors, bracket)


def with_kernel(s: Structure, k_indices):
    s.k_indices = list(k_indices)
    return s


# -- seeded change of section basis ------------------------------------------

def signed_permutation(n, k_indices, rng):
    """P and P^{-1} for s' = P s: a seeded permutation inside the kernel indices
    and inside the rest, with seeded signs.  It is a product of elementary
    changes with coefficients +-1, keeps each kernel on its indices and keeps
    every structure tensor exactly as sparse as before."""
    kset = set(k_indices or [])
    perm = list(range(n))
    for block in ([i for i in range(n) if i in kset], [i for i in range(n) if i not in kset]):
        shuffled = block[:]
        rng.shuffle(shuffled)
        for a, b in zip(block, shuffled):
            perm[a] = b
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    P = [[signs[a] if i == perm[a] else 0 for i in range(n)] for a in range(n)]
    Pinv = [[P[a][i] for a in range(n)] for i in range(n)]    # orthogonal: P^{-1} = P^T
    return P, Pinv


def change_basis(s: Structure, rng: random.Random) -> Structure:
    """Rewrite s on the seeded section basis s' = P s (P constant, so anchors and
    brackets transform tensorially: the Leibniz terms vanish on constants)."""
    P, Pinv = signed_permutation(s.n, s.k_indices, rng)
    n, m = s.n, s.m
    anchors = [[[sum(P[a][i] * s.anchors[i][r][c] for i in range(n)) for c in range(m)]
                for r in range(m)] for a in range(n)]
    bracket = []
    for a in range(n):
        plane = []
        for b in range(n):
            acc = [[0] * m for _ in range(n)]       # coefficient of s_l
            for i in range(n):
                if not P[a][i]:
                    continue
                for j in range(n):
                    w = P[a][i] * P[b][j]
                    if not w:
                        continue
                    for l in range(n):
                        for t, v in enumerate(s.bracket[i][j][l]):
                            acc[l][t] += w * v
            plane.append([[sum(acc[l][t] * Pinv[l][k] for l in range(n)) for t in range(m)]
                          for k in range(n)])
        bracket.append(plane)
    return Structure(m, s.mult, s.unit, n, anchors, bracket, s.k_indices)


# -- serialization through the engine's public constructors -----------------

def problem_text(s: Structure, field_label: str, options=None) -> str:
    from rinehart.algebra import FiniteAlgebra
    from rinehart.algebroid import LieRinehartAlgebroid
    from rinehart.fields import GF, QQ
    from rinehart.linalg import Matrix
    from rinehart.problems import ProblemFile, canonical_json, to_dict

    f = QQ if field_label == "Q" else GF(int(field_label.split("_")[1]))
    c = f.from_int
    alg = FiniteAlgebra(f, s.m, [[tuple(map(c, v)) for v in row] for row in s.mult],
                        tuple(map(c, s.unit)))
    anchors = [Matrix.from_rows(f, [[c(x) for x in row] for row in a]) for a in s.anchors]
    bracket = [[[tuple(map(c, v)) for v in row] for row in plane] for plane in s.bracket]
    L = LieRinehartAlgebroid(alg, s.n, anchors, bracket)
    ext = None if s.k_indices is None else {"k_indices": list(s.k_indices), "splitting": None}
    return canonical_json(to_dict(ProblemFile(f, alg, L, None, None, ext, dict(options or {}))))


# -- workloads ----------------------------------------------------------------

def _family_cases(specs, rng):
    """specs: (id, structure, command, options, expect); one case per field."""
    out = []
    for cid, struct, command, options, expect in specs:
        if rng is not None:
            struct = change_basis(struct, rng)
        for fl in FIELDS:
            out.append(Case(f"{cid}@{fl}", fl, command, dict(options),
                            problem_text(struct, fl), dict(expect)))
    return out


def ce_scale_specs(tiny=False):
    if tiny:
        return [("abelian3", abelian(3), "cohomology", {}, {"kind": "abelian", "n": 3}),
                ("heis3", heisenberg(1), "cohomology", {}, {"kind": "heisenberg", "k": 1}),
                ("fat3r2", fat_point(3, 2), "cohomology", {}, {"kind": "euler"})] + _probe_specs()
    return [
        ("abelian7", abelian(7), "cohomology", {}, {"kind": "abelian", "n": 7}),
        ("abelian8", abelian(8), "cohomology", {}, {"kind": "abelian", "n": 8}),
        ("heis5", heisenberg(2), "cohomology", {}, {"kind": "heisenberg", "k": 2}),
        ("heis7", heisenberg(3), "cohomology", {}, {"kind": "heisenberg", "k": 3}),
        ("n4", upper_triangular_n4(), "cohomology", {}, {"kind": "n4"}),
        ("fat6r3", fat_point(6, 3), "cohomology", {}, {"kind": "euler"}),
        ("fat8r2", fat_point(8, 2), "cohomology", {}, {"kind": "euler"}),
    ] + _probe_specs()


def _probe_specs():
    """One minimal hs and one minimal env request.  They keep every layer's
    counters and self times present on this workload (at about 1% of a pass),
    so a change to the certificate layers shows here as a near-zero share."""
    return [
        ("probe_hs_abelian2", with_kernel(abelian(2), [1]), "hs", {},
         {"kind": "abelian", "n": 2}),
        ("probe_env_heis3", heisenberg(1), "env", {"degree": 2}, {"kind": "heisenberg", "k": 1}),
    ]


def certify_scale_specs(tiny=False):
    if tiny:
        return [
            ("hs_heis3_centre", with_kernel(heisenberg(1), [2]), "hs", {},
             {"kind": "heisenberg", "k": 1}),
            ("env_abelian2_d2", abelian(2), "env", {"degree": 2}, {"kind": "abelian", "n": 2}),
        ]
    return [
        ("hs_heis5_centre", with_kernel(heisenberg(2), [4]), "hs", {},
         {"kind": "heisenberg", "k": 2}),
        ("hs_fat4r3_k23", with_kernel(fat_point(4, 3), [1, 2]), "hs", {}, {"kind": "euler"}),
        ("hs_abelian4_k2", with_kernel(abelian(4), [2, 3]), "hs", {}, {"kind": "abelian", "n": 4}),
        ("env_heis3_d5", heisenberg(1), "env", {"degree": 5}, {"kind": "heisenberg", "k": 1}),
        ("env_sl2_d4", sl2(), "env", {"degree": 4}, {"kind": "sl2"}),
        ("env_fat3r2_d4", fat_point(3, 2), "env", {"degree": 4}, {"kind": "euler"}),
    ]


def _corpus_commands(data):
    cmds = list(CORPUS_COMMANDS)
    if data.get("extension") is not None:
        cmds.append("hs")
    if data.get("complex") is not None:
        cmds.append("total")
    if data.get("extension") is None and data.get("complex") is None:
        cmds.append("env")
    return cmds


def corpus_cases(problems_dir: Path, tiny=False):
    """Every shipped problem under the commands the acceptance suite picks (env
    at degree 3), in its own field and, for Q files, re-typed to F_101 as
    `rinehart --field 101` does.  Negative files must end in exit 1 or 2."""
    files = sorted(problems_dir.glob("*.json")) + sorted((problems_dir / "negative").glob("*.json"))
    if tiny:
        files = [problems_dir / "heisenberg3.json", problems_dir / "ext_heis_center.json",
                 problems_dir / "negative" / "bad_jacobi_sl2.json"]
    out = []
    for path in files:
        raw = path.read_text(encoding="utf-8")
        data = json.loads(raw)
        negative = path.parent.name == "negative"
        name = ("negative/" if negative else "") + path.stem
        ft = data["field"]
        own = "Q" if ft.get("type") == "rational" else f"F_{ft.get('p')}"
        variants = [(own, raw)]
        if own == "Q":
            retyped = dict(data, field={"type": "prime", "p": 101})
            variants.append(("F_101", json.dumps(retyped)))
        for fl, text in variants:
            for cmd in _corpus_commands(data):
                expect = {"kind": "negative"} if negative else {"kind": "corpus"}
                out.append(Case(f"{name}:{cmd}@{fl}", fl, cmd, {"degree": 3}, text, expect))
    return out


def build(workload: str, seed: int, root: Path, tiny=False) -> list[Case]:
    """The workload's case list for this seed; the same seed gives the same list."""
    rng = None if seed == 0 else random.Random(seed)
    if workload == "corpus":
        cases = corpus_cases(root / "problems", tiny)
    elif workload == "ce_scale":
        cases = _family_cases(ce_scale_specs(tiny), rng)
    elif workload == "certify_scale":
        cases = _family_cases(certify_scale_specs(tiny), rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if rng is not None:
        rng.shuffle(cases)
    return cases
