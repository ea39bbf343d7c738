"""JSON problem files: parsing, validation, canonical serialization, hashing.

Schema (all scalars are ints or "a/b" strings; matrices are row-major):

    {"field":     {"type": "rational"} | {"type": "prime", "p": 5},
     "algebra":   {"dim": m, "unit": [m], "mult": [m][m][m]},
     "algebroid": {"rank": n, "anchor": [n](m x m), "bracket": [n][n][n][m]},
     "module":    {"dim": N, "action": [m](N x N), "rho": [n](N x N)},   # optional
     "complex":   {"modules": [module...], "maps": [matrix...]},          # optional
     "extension": {"k_indices": [...], "splitting": [r][n] of scalar|[m]},# optional
     "options":   {"degree": 3, "max_page": 2}}                           # optional

When no module is given, commands that need coefficients use A acting on
itself through the anchor (for A = k this is the trivial representation).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dfield
from functools import cached_property

from .algebra import AModule, FiniteAlgebra
from .algebroid import LieRinehartAlgebroid, Representation, anchor_representation
from .cecomplex import RepComplex
from .errors import ParseError, ShapeError
from .extensions import ExtensionTriple, extension_from_k_indices
from .fields import GF, QQ, Field
from .linalg import Matrix, dense_to_sparse


def _expect(cond, msg):
    if not cond:
        raise ShapeError(msg)


def _parse_scalar(field, x, where):
    try:
        return field.parse(x)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from e


def _parse_vector(field, data, length, where):
    _expect(isinstance(data, list) and len(data) == length,
            f"{where} must be a list of length {length}")
    # a JSON 0 is the one scalar that needs no parsing (false and 0.0 are refused)
    return tuple(field.zero if type(x) is int and x == 0
                 else _parse_scalar(field, x, f"{where}[{i}]") for i, x in enumerate(data))


def _parse_matrix(field, data, rows, cols, where):
    _expect(isinstance(data, list) and len(data) == rows,
            f"{where} must have {rows} rows, got {len(data) if isinstance(data, list) else type(data).__name__}")
    return Matrix.from_rows(field, [_parse_vector(field, row, cols, f"{where}[{r}]")
                                    for r, row in enumerate(data)])


def check_options(options: dict, where: str) -> dict:
    """The PBW degree and the last page, when given, must be ints >= 1."""
    for key in ("degree", "max_page"):
        if key in options:
            value = options[key]
            _expect(type(value) is int and value >= 1,
                    f"{where}{key} must be an int >= 1, got {value!r}")
    return options


@dataclass
class ProblemFile:
    field: Field
    algebra: FiniteAlgebra
    algebroid: LieRinehartAlgebroid
    module: Representation | None = None
    complex: RepComplex | None = None
    extension: dict | None = None
    options: dict = dfield(default_factory=dict)

    def representation(self) -> Representation:
        return self.module if self.module is not None else anchor_representation(self.algebroid)

    @cached_property
    def extension_triple(self) -> ExtensionTriple | None:
        """The extension block as extension data, built once per problem."""
        if self.extension is None:
            return None
        return extension_from_k_indices(self.algebroid, self.extension["k_indices"],
                                        self.extension.get("splitting"))


def _parse_field(data) -> Field:
    _expect(isinstance(data, dict) and "type" in data, "field must carry a type")
    if data["type"] == "rational":
        return QQ
    if data["type"] == "prime":
        _expect("p" in data, "field.p is required for prime fields")
        p = data["p"]
        _expect(type(p) is int, f"field.p must be an int, got {p!r}")
        try:
            return GF(p)
        except ParseError as e:
            raise ParseError(f"field.p: {e}") from e
    raise ParseError(f"field.type {data['type']!r} is not rational|prime")


def _parse_algebra(field, data) -> FiniteAlgebra:
    _expect(isinstance(data, dict), "algebra must be an object")
    for key in ("dim", "unit", "mult"):
        _expect(key in data, f"algebra.{key} is required")
    m = data["dim"]
    _expect(type(m) is int and m >= 1, "algebra.dim must be a positive int")
    unit = _parse_vector(field, data["unit"], m, "algebra.unit")
    _expect(isinstance(data["mult"], list) and len(data["mult"]) == m,
            f"algebra.mult must have length {m}")
    mult = []
    for i, row in enumerate(data["mult"]):
        _expect(isinstance(row, list) and len(row) == m, f"algebra.mult[{i}] must have length {m}")
        mult.append([_parse_vector(field, v, m, f"algebra.mult[{i}][{j}]")
                     for j, v in enumerate(row)])
    return FiniteAlgebra(field, m, mult, unit)


def _parse_algebroid(field, alg, data) -> LieRinehartAlgebroid:
    _expect(isinstance(data, dict), "algebroid must be an object")
    for key in ("rank", "anchor", "bracket"):
        _expect(key in data, f"algebroid.{key} is required")
    n = data["rank"]
    m = alg.dim
    _expect(type(n) is int and n >= 0, "algebroid.rank must be a non-negative int")
    _expect(isinstance(data["anchor"], list) and len(data["anchor"]) == n,
            f"algebroid.anchor must have length {n}")
    anchors = [_parse_matrix(field, a, m, m, f"algebroid.anchor[{i}]")
               for i, a in enumerate(data["anchor"])]
    _expect(isinstance(data["bracket"], list) and len(data["bracket"]) == n,
            f"algebroid.bracket must have length {n}")
    bracket = []
    for i, plane in enumerate(data["bracket"]):
        _expect(isinstance(plane, list) and len(plane) == n,
                f"algebroid.bracket[{i}] must have length {n}")
        rows = []
        for j, row in enumerate(plane):
            _expect(isinstance(row, list) and len(row) == n,
                    f"algebroid.bracket[{i}][{j}] must have length {n}")
            rows.append([_parse_vector(field, v, m, f"algebroid.bracket[{i}][{j}][{l}]")
                         for l, v in enumerate(row)])
        bracket.append(rows)
    return LieRinehartAlgebroid(alg, n, anchors, bracket)


def _parse_module(field, alg, L, data, where="module") -> Representation:
    _expect(isinstance(data, dict), f"{where} must be an object")
    for key in ("dim", "action", "rho"):
        _expect(key in data, f"{where}.{key} is required")
    N = data["dim"]
    _expect(type(N) is int and N >= 0, f"{where}.dim must be a non-negative int")
    _expect(isinstance(data["action"], list) and len(data["action"]) == alg.dim,
            f"{where}.action must have length {alg.dim}")
    action = [_parse_matrix(field, a, N, N, f"{where}.action[{i}]")
              for i, a in enumerate(data["action"])]
    _expect(isinstance(data["rho"], list) and len(data["rho"]) == L.n,
            f"{where}.rho must have length {L.n}")
    rho = [_parse_matrix(field, a, N, N, f"{where}.rho[{i}]")
           for i, a in enumerate(data["rho"])]
    return Representation(AModule(alg, N, action), rho)


def _parse_extension(field, alg, L, data) -> dict:
    _expect(isinstance(data, dict), "extension must be an object")
    _expect("k_indices" in data, "extension.k_indices is required")
    ks = data["k_indices"]
    _expect(isinstance(ks, list) and all(type(i) is int and 0 <= i < L.n for i in ks)
            and len(set(ks)) == len(ks),
            "extension.k_indices must be distinct indices into the algebroid basis")
    out = {"k_indices": list(ks), "splitting": None}
    if data.get("splitting") is not None:
        r = L.n - len(ks)
        sp = data["splitting"]
        _expect(isinstance(sp, list) and len(sp) == r,
                f"extension.splitting must have {r} rows")
        rows = []
        for j, row in enumerate(sp):
            _expect(isinstance(row, list) and len(row) == L.n,
                    f"extension.splitting[{j}] must have length {L.n}")
            entries = []
            for l, x in enumerate(row):
                if isinstance(x, list):
                    entries.append(_parse_vector(field, x, alg.dim,
                                                 f"extension.splitting[{j}][{l}]"))
                else:
                    c = _parse_scalar(field, x, f"extension.splitting[{j}][{l}]")
                    entries.append(tuple(c * u for u in alg.unit))
            rows.append(entries)
        out["splitting"] = rows
    return out


def from_dict(data) -> ProblemFile:
    _expect(isinstance(data, dict), "problem must be a JSON object")
    for key in ("field", "algebra", "algebroid"):
        _expect(key in data, f"{key} is required")
    field = _parse_field(data["field"])
    alg = _parse_algebra(field, data["algebra"])
    L = _parse_algebroid(field, alg, data["algebroid"])
    module = None
    if data.get("module") is not None:
        module = _parse_module(field, alg, L, data["module"])
    complex_ = None
    if data.get("complex") is not None:
        cdata = data["complex"]
        _expect(isinstance(cdata, dict) and "modules" in cdata and "maps" in cdata,
                "complex needs modules and maps")
        for key in ("modules", "maps"):
            _expect(isinstance(cdata[key], list), f"complex.{key} must be a list")
        mods = [_parse_module(field, alg, L, md, where=f"complex.modules[{i}]")
                for i, md in enumerate(cdata["modules"])]
        _expect(len(cdata["maps"]) == max(len(mods) - 1, 0),
                "complex.maps must have one entry per consecutive pair")
        maps = [_parse_matrix(field, mp, mods[i + 1].module.dim, mods[i].module.dim,
                              f"complex.maps[{i}]")
                for i, mp in enumerate(cdata["maps"])]
        complex_ = RepComplex(mods, maps)
    extension = None
    if data.get("extension") is not None:
        extension = _parse_extension(field, alg, L, data["extension"])
    options = data.get("options") or {}
    _expect(isinstance(options, dict), "options must be an object")
    check_options(options, "options.")
    return ProblemFile(field, alg, L, module, complex_, extension, options)


def parse(path, field=None) -> ProblemFile:
    """The problem in the file at path; a field block given as field replaces
    the file's own when the file holds a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except ValueError as e:
        # malformed JSON, bytes that are not UTF-8, or an int past Python's digit limit
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    if field is not None and isinstance(data, dict):
        data["field"] = field
    return from_dict(data)


def fmt_vector(field, pairs, n):
    """The n entries of the sparse vector pairs, formatted: one Field.fmt call per
    nonzero, and 0 elsewhere, which is Field.fmt of zero in both fields."""
    out = [0] * n
    for j, x in pairs:
        out[j] = field.fmt(x)
    return out


def _fmt_terms(field, terms, n, m):
    """n coefficient vectors in A from the nonzero (l, sparse coefficient) pairs terms."""
    out = [[0] * m for _ in range(n)]
    for l, c in terms:
        out[l] = fmt_vector(field, c, m)
    return out


def _fmt_matrix(field, m: Matrix):
    return [fmt_vector(field, row, m.cols) for row in m.data]


def _module_dict(field, R: Representation):
    return {
        "dim": R.module.dim,
        "action": [_fmt_matrix(field, a) for a in R.module.action],
        "rho": [_fmt_matrix(field, r) for r in R.rho],
    }


def to_dict(p: ProblemFile) -> dict:
    f, L, m = p.field, p.algebroid, p.algebra.dim
    data = {
        "field": {"type": f.kind} if f.kind == "rational" else {"type": f.kind, "p": f.p},
        "algebra": {
            "dim": p.algebra.dim,
            "unit": fmt_vector(f, p.algebra.sparse_unit, m),
            "mult": [[fmt_vector(f, v, m) for v in row] for row in p.algebra.sparse_mult],
        },
        "algebroid": {
            "rank": p.algebroid.n,
            "anchor": [_fmt_matrix(f, a) for a in p.algebroid.anchors],
            "bracket": [[_fmt_terms(f, L.bracket_terms[i, j], L.n, m) for j in range(L.n)]
                        for i in range(L.n)],
        },
    }
    if p.module is not None:
        data["module"] = _module_dict(f, p.module)
    if p.complex is not None:
        data["complex"] = {
            "modules": [_module_dict(f, r) for r in p.complex.representations],
            "maps": [_fmt_matrix(f, mp) for mp in p.complex.maps],
        }
    if p.extension is not None:
        ext = {"k_indices": list(p.extension["k_indices"])}
        if p.extension.get("splitting") is not None:
            ext["splitting"] = [[fmt_vector(f, dense_to_sparse(v), m) for v in row]
                                for row in p.extension["splitting"]]
        else:
            ext["splitting"] = None
        data["extension"] = ext
    if p.options:
        data["options"] = dict(sorted(p.options.items()))
    return data


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def problem_hash(p: ProblemFile) -> str:
    return hashlib.sha256(canonical_json(to_dict(p)).encode()).hexdigest()
