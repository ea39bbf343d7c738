"""Lie-Rinehart algebroids: a free A-module L = A s_1 + ... + A s_n with an
anchor into Der_k(A) and a bracket declared on the A-basis.

The full k-bilinear bracket on the nm-dimensional space underlying L is always
derived from the declared data through the Leibniz rule

    [f s_i, g s_j] = f g [s_i, s_j] + f a(s_i)(g) s_j - g a(s_j)(f) s_i

never input directly.  Validation checks antisymmetry, the Jacobi identity on
every k-basis triple of that closure, and that the anchor is a morphism of
k-Lie algebras.  The anchor makes A itself a representation of L, whose module
is A's regular module (which checks the algebra axioms), so each anchor's
Leibniz rule is that representation's symbol condition and the morphism check
is its flatness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import combinations, product

from .algebra import AModule, FiniteAlgebra, Violation, regular_module
from .linalg import Matrix, Subspace, block_diagonal, combination, kernel_subspace


class LieRinehartAlgebroid:
    def __init__(self, algebra: FiniteAlgebra, rank: int, anchors, bracket):
        self.algebra = algebra
        self.field = algebra.field
        self.n = rank
        self.m = algebra.dim
        self.anchors = list(anchors)           # one m x m Matrix per basis section
        # bracket[i][j][l] in k^m: the A-coefficient of s_l in [s_i, s_j]
        self.bracket = [[[tuple(v) for v in row] for row in plane] for plane in bracket]
        if len(self.anchors) != rank:
            raise ValueError("one anchor matrix per basis section")
        for d in self.anchors:
            if (d.rows, d.cols) != (self.m, self.m):
                raise ValueError("anchor matrix of wrong shape")
        if len(self.bracket) != rank or any(len(p) != rank for p in self.bracket):
            raise ValueError("bracket table must be rank x rank")
        for plane in self.bracket:
            for row in plane:
                if len(row) != rank or any(len(v) != self.m for v in row):
                    raise ValueError("bracket entries must be rank x dim coefficient arrays")
        self._tensor = None
        self._anchor_rep = None

    @property
    def kdim(self) -> int:
        return self.n * self.m

    def kindex(self, i, a) -> int:
        """Flat index of the k-basis element e_a s_i."""
        return i * self.m + a

    def k_to_acoords(self, v):
        return [tuple(v[i * self.m:(i + 1) * self.m]) for i in range(self.n)]

    def algebra_action_on_sections(self, b) -> Matrix:
        """Multiplication by e_b on L in k-coordinates (block diagonal)."""
        return block_diagonal(regular_module(self.algebra).action[b], self.n)


@dataclass
class BracketTensor:
    """The k-bilinear closure of the bracket: table[u][v] is [b_u, b_v] in k-coordinates."""
    field: object
    dim: int
    table: list

    def of_basis(self, u, v):
        return self.table[u][v]

    def of_vectors(self, x, y):
        z = self.field.zero
        out = [z] * self.dim
        for u, xu in enumerate(x):
            if not xu:
                continue
            for v, yv in enumerate(y):
                if not yv:
                    continue
                c = xu * yv
                for t, w in enumerate(self.table[u][v]):
                    if w:
                        out[t] = out[t] + c * w
        return tuple(out)


def build_bracket_tensor(L: LieRinehartAlgebroid) -> BracketTensor:
    """Expand the declared A-basis bracket to the whole k-basis via Leibniz.

    The coefficient e_a e_b [s_i, s_j]_l is act(e_a e_b) applied to the
    declared one, and the term e_a a(s_i)(e_b) is column b of the anchor
    representation's action of e_a s_i.
    """
    if L._tensor is not None:
        return L._tensor
    f = L.field
    A = anchor_representation(L)
    prods = [[A.module.act_vec(ab) for ab in row] for row in L.algebra.mult]
    leibniz = [hat.transpose().data for hat in A.basis_actions]   # column b: e_a a(s_i)(e_b)
    size = L.kdim
    table = [[None] * size for _ in range(size)]
    for i, a, j, b in product(range(L.n), range(L.m), range(L.n), range(L.m)):
        out = [f.zero] * size
        for l in range(L.n):
            for t, c in enumerate(prods[a][b].apply(L.bracket[i][j][l])):
                if c:
                    out[L.kindex(l, t)] = out[L.kindex(l, t)] + c
        # + e_a a(s_i)(e_b) s_j  -  e_b a(s_j)(e_a) s_i
        for t, c in leibniz[L.kindex(i, a)][b]:
            out[L.kindex(j, t)] = out[L.kindex(j, t)] + c
        for t, c in leibniz[L.kindex(j, b)][a]:
            out[L.kindex(i, t)] = out[L.kindex(i, t)] - c
        table[L.kindex(i, a)][L.kindex(j, b)] = tuple(out)
    L._tensor = BracketTensor(f, size, table)
    return L._tensor


def validate_algebroid(L: LieRinehartAlgebroid) -> list[Violation]:
    """Antisymmetry, exhaustive Jacobi and anchor compatibility on the k-closure."""
    out = []
    out.extend(Violation(f"algebra-{v.axiom}", v.indices, v.detail)
               for v in L.algebra.violations)
    A = anchor_representation(L)
    symbol = _kept(L, A, _symbol_pairs)
    out.extend(Violation("anchor-derivation", (i,)) for i in sorted({i for i, _ in symbol}))
    if out:
        return out
    t = build_bracket_tensor(L)
    size = L.kdim
    for u in range(size):
        if any(t.of_basis(u, u)):
            out.append(Violation("alternating", (u,)))
        for v in range(u + 1, size):
            if any(x + y for x, y in zip(t.of_basis(u, v), t.of_basis(v, u))):
                out.append(Violation("antisymmetry", (u, v)))
    # [[b_x, b_y], b_z] = sum_s [b_x, b_y]_s [b_s, b_z], over the nonzero table entries
    sparse = [[[(k, c) for k, c in enumerate(w) if c] for w in row] for row in t.table]
    for x, y, z in combinations(range(size), 3):
        jac = [L.field.zero] * size
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            for s, c in sparse[p][q]:
                for k, w in sparse[s][r]:
                    jac[k] = jac[k] + c * w
        if any(jac):
            out.append(Violation("jacobi", (x, y, z)))
    out.extend(Violation("anchor-morphism", pair) for pair in _kept(L, A, _failing_pairs))
    return out


@dataclass
class Representation:
    """An A-module M with an action of L by scalar-symbol operators."""
    module: AModule
    rho: list   # one dim x dim Matrix per basis section of L
    _failing: dict = dfield(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def basis_actions(self) -> list:
        """Action e_a . rho(s_i) of each k-basis element e_a s_i of L, at its
        flat index i m + a (A-linear extension of rho)."""
        return [act.mul(r) for r in self.rho for act in self.module.action]

    def rho_of_vector(self, L: LieRinehartAlgebroid, v) -> Matrix:
        N = self.module.dim
        return combination(self.module.field, N, N, zip(v, self.basis_actions))


def trivial_representation(L: LieRinehartAlgebroid) -> Representation:
    """The classical trivial representation k with rho = 0, for A = k only."""
    if L.m != 1:
        raise ValueError("trivial representation needs A = k; use anchor_representation")
    f = L.field
    mod = AModule(L.algebra, 1, [Matrix.identity(f, 1)])
    zero = Matrix.zero(f, 1, 1)
    return Representation(mod, [zero] * L.n)


def anchor_representation(L: LieRinehartAlgebroid) -> Representation:
    """A as a representation of L, acting through the anchor; built once per L."""
    if L._anchor_rep is None:
        L._anchor_rep = Representation(regular_module(L.algebra), list(L.anchors))
    return L._anchor_rep


def _failing_pairs(L: LieRinehartAlgebroid, R: Representation) -> list:
    """The k-basis pairs u < v with R([b_u, b_v]) != [R(b_u), R(b_v)]."""
    t = build_bracket_tensor(L)
    hats = R.basis_actions
    out = []
    for u, v in combinations(range(L.kdim), 2):
        comm = hats[u].mul(hats[v]).sub(hats[v].mul(hats[u]))
        if R.rho_of_vector(L, t.of_basis(u, v)) != comm:
            out.append((u, v))
    return out


def _symbol_pairs(L: LieRinehartAlgebroid, R: Representation) -> list:
    """The pairs (i, b) with [R(s_i), act_b] != act(a(s_i)(e_b)); the product
    act_b R(s_i) is the action of e_b s_i in R.basis_actions."""
    mod = R.module
    hats = R.basis_actions
    return [(i, b) for i, b in product(range(L.n), range(L.m))
            if R.rho[i].mul(mod.action[b]).sub(hats[L.kindex(i, b)])
            != mod.act_vec(L.anchors[i].column(b))]


def _kept(L: LieRinehartAlgebroid, R: Representation, find) -> list:
    """find(L, R), run once per (L, R) and kept on R."""
    if (find, L) not in R._failing:
        R._failing[find, L] = find(L, R)
    return R._failing[find, L]


def validate_representation(L: LieRinehartAlgebroid, R: Representation) -> list[Violation]:
    """Scalar-symbol condition over the anchor plus flatness on the k-basis."""
    out = [Violation(f"module-{v.axiom}", v.indices, v.detail) for v in R.module.validate()]
    if len(R.rho) != L.n:
        return out + [Violation("rho-shape", (len(R.rho), L.n))]
    out.extend(Violation("symbol", pair) for pair in _kept(L, R, _symbol_pairs))
    return out + [Violation("flatness", pair) for pair in _kept(L, R, _failing_pairs)]


def invariants(L: LieRinehartAlgebroid, R: Representation) -> Subspace:
    """{m in M : rho(u)(m) = 0 for every k-basis element u of L}."""
    rows = tuple(row for mat in R.basis_actions for row in mat.data)
    return kernel_subspace(Matrix(R.module.field, len(rows), R.module.dim, rows))
