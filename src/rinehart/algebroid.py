"""Lie-Rinehart algebroids: a free A-module L = A s_1 + ... + A s_n with an
anchor into Der_k(A) and a bracket declared on the A-basis.

The full k-bilinear bracket on the nm-dimensional space underlying L is always
derived from the declared data through the Leibniz rule

    [f s_i, g s_j] = f g [s_i, s_j] + f a(s_i)(g) s_j - g a(s_j)(f) s_i

never input directly: brackets of k-vectors other than the declared sections
come from `leibniz_bracket`, and no table of them is stored.  Validation
checks antisymmetry, the Jacobi identity and that the anchor is a morphism of
k-Lie algebras, on every k-basis pair or triple.  The anchor makes A itself a
representation of L, whose module is A's regular module (which checks the
algebra axioms), so each anchor's Leibniz rule is that representation's
symbol condition and the morphism check is its flatness check.

The structure maps are A-multilinear up to anchor terms, so each defect is a
tensor on the A-basis s_1..s_n, spread to the k-basis e_a s_i by products in
A.  With B_ij = [s_i, s_j], S_ij = B_ij + B_ji, F the curvature of a
representation R, Sigma its symbol defect and J_ijk the Jacobiator of
(s_i, s_j, s_k):

    [e_a s_i, e_a s_i] = e_a e_a B_ii,  [e_a s_i, e_b s_j] + [e_b s_j, e_a s_i] = e_a e_b S_ij
    flatness at (e_a s_i, e_b s_j):  act_a act_b F_ij - act_a Sigma_ib R_j + act_b Sigma_ja R_i
    J(e_a s_i, e_b s_j, e_c s_k) = e_a e_b e_c J_ijk
                                   + sum_cyc (e_b e_c D_jk(e_a) s_i - e_b e_c a_j(e_a) S_ki)

with D the curvature of the anchor representation.  The first holds over a
commutative A, the second when R's module is also multiplicative, the third
over a valid algebra with derivation anchors, which `validate_algebroid`
checks first.  A representation whose module is not multiplicative is the
one case left to the comparison of every k-basis pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product

from .algebra import AModule, FiniteAlgebra, Violation, regular_module
from .linalg import (Matrix, Subspace, block_diagonal, combination, dense_to_sparse,
                     dict_to_sparse, kernel_subspace)


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
        # bracket_terms[i, j]: the nonzero (l, B_ij^l) of [s_i, s_j], B_ij^l a sparse
        # vector in A; every reader of the bracket walks this table
        self.bracket_terms = {(i, j): tuple((l, dense_to_sparse(v)) for l, v in enumerate(row)
                                            if any(v))
                              for i, plane in enumerate(self.bracket)
                              for j, row in enumerate(plane)}
        self._anchor_rep = None

    @property
    def kdim(self) -> int:
        return self.n * self.m

    def kindex(self, i, a) -> int:
        """Flat index of the k-basis element e_a s_i."""
        return i * self.m + a

    def k_to_acoords(self, v):
        """The A-coordinates of the sparse k-vector v: n dense tuples of length m."""
        out = [[self.field.zero] * self.m for _ in range(self.n)]
        for j, x in v:
            out[j // self.m][j % self.m] = x
        return [tuple(c) for c in out]

    def algebra_action_on_sections(self, b) -> Matrix:
        """Multiplication by e_b on L in k-coordinates (block diagonal)."""
        return block_diagonal(regular_module(self.algebra).action[b], self.n)


def leibniz_bracket(L: LieRinehartAlgebroid, x, y) -> tuple:
    """[x, y] for sparse k-vectors x = sum f_i s_i and y = sum g_j s_j of L:

        sum f_i g_j B_ij + sum_u x_u e_a a_i(g_j) s_j - sum_v y_v e_b a_j(f_i) s_i

    over u = e_a s_i in x and v = e_b s_j in y.  Each term is bilinear in (x, y)
    with the products in A taken in the order of the Leibniz rule on the
    k-basis, so this is its k-bilinear closure for any algebra and anchors."""
    m, B = L.m, L.bracket_terms
    A = anchor_representation(L)
    act, hats = A.module.action, A.basis_actions
    f, g = _sections(m, x), _sections(m, y)
    out = {}
    for i, fi in f.items():
        for j, gj in g.items():
            if B[i, j]:
                fg = _times(act, fi, gj)
                _add(out, _flat(m, ((l, _times(act, fg, c)) for l, c in B[i, j])))
    for u, xu in x:
        _add(out, _flat(m, ((j, hats[u].apply(gj)) for j, gj in g.items())), xu)
    for v, yv in y:
        _add(out, _flat(m, ((i, hats[v].apply(fi)) for i, fi in f.items())), -yv)
    return dict_to_sparse(out)


def _sections(m, v) -> dict:
    """The A-coordinates {i: f_i} of the sparse k-vector v = sum f_i s_i, each f_i
    a sparse element of A."""
    out = {}
    for t, x in v:
        out.setdefault(t // m, []).append((t % m, x))
    return out


def validate_algebroid(L: LieRinehartAlgebroid) -> list[Violation]:
    """Antisymmetry, Jacobi and anchor compatibility of the k-closure, read
    off tensors on the A-basis (see `_alternating_pairs`, `_jacobi_triples`
    and `_failing_pairs`); each is exact once the algebra is valid and every
    anchor is a derivation, which the early return guarantees."""
    out = []
    out.extend(Violation(f"algebra-{v.axiom}", v.indices, v.detail)
               for v in L.algebra.violations)
    A = anchor_representation(L)
    symbol = _kept(L, A, _symbol_defects)
    out.extend(Violation("anchor-derivation", (i,)) for i in sorted({i for i, _ in symbol}))
    if out:
        return out
    S = _symmetrised(L)
    out.extend(Violation("alternating", (u,)) if u == v else Violation("antisymmetry", (u, v))
               for u, v in _alternating_pairs(L, S))
    out.extend(Violation("jacobi", t) for t in _jacobi_triples(L, S))
    out.extend(Violation("anchor-morphism", pair) for pair in _kept(L, A, _failing_pairs))
    return out


def _times(act, x, y) -> tuple:
    """The product x y of two sparse elements of A, from the regular module's
    action matrices act."""
    out = {}
    if y:
        for c, xc in x:
            _add(out, act[c].apply(y), xc)
    return dict_to_sparse(out)


def _symmetrised(L: LieRinehartAlgebroid) -> dict:
    """S_ij = B_ij + B_ji at each i <= j where it is nonzero, as n sparse coefficients in A."""
    B = L.bracket_terms
    out = {}
    for i, j in combinations_with_replacement(range(L.n), 2):
        terms = B[i, j] + B[j, i]
        if not terms:
            continue
        acc = [{} for _ in range(L.n)]
        for l, c in terms:
            _add(acc[l], c)
        S = [dict_to_sparse(a) for a in acc]
        if any(S):
            out[i, j] = S
    return out


def _alternating_pairs(L: LieRinehartAlgebroid, S: dict) -> list:
    """The pairs (u, u) with [b_u, b_u] != 0 and u < v with [b_u, b_v] + [b_v, b_u]
    != 0, sorted.  The Leibniz terms cancel, so at u = e_a s_i, v = e_b s_j
    these are e_a e_a B_ii and e_a e_b S_ij, over a commutative A."""
    mult, act = L.algebra.sparse_mult, anchor_representation(L).module.action

    def kills(a, b, coeffs):
        return not any(_times(act, mult[a][b], c) for c in coeffs)

    out = [(L.kindex(i, a),) * 2 for i in range(L.n) for a in range(L.m)
           if not kills(a, a, [c for _, c in L.bracket_terms[i, i]])]
    out.extend((L.kindex(i, a), L.kindex(j, b)) for (i, j), Sij in S.items()
               for a, b in product(range(L.m), repeat=2) if (i < j or a < b)
               and not kills(a, b, Sij))
    return sorted(out)


def _jacobi_triples(L: LieRinehartAlgebroid, S: dict) -> list:
    """The k-basis triples u < v < w whose Jacobiator is nonzero, in
    `combinations` order.  With J_ijk the Jacobiator of (s_i, s_j, s_k), D the
    curvature of the anchor representation and S_ij = B_ij + B_ji,

        J(e_a s_i, e_b s_j, e_c s_k) = e_a e_b e_c J_ijk
            + sum_cyc (e_b e_c D_jk(e_a) s_i - e_b e_c a_j(e_a) S_ki),

    exact over a valid algebra with derivation anchors.  Only blocks i <= j <= k
    where one of these tensors is nonzero are expanded."""
    n, m = L.n, L.m
    mult, anchors, B = L.algebra.sparse_mult, L.anchors, L.bracket_terms
    A = anchor_representation(L)
    act = A.module.action
    minus = -L.field.one
    no_S = [()] * n
    D = dict(_kept(L, A, _curvatures))
    for i, j in combinations(range(n), 2):
        if (i, j) in S or (i, j) in D:
            # D_ji = a(S_ij) - D_ij, so no product is formed twice
            Dji = A.rho_of_vector(L, _flat(m, enumerate(S.get((i, j), no_S))))
            Dji = Dji.sub(D[i, j]) if (i, j) in D else Dji
            if not Dji.is_zero():
                D[j, i] = Dji

    def jacobiator(i, j, k):
        out = [{} for _ in range(n)]
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for l, c in B[p, q]:
                for t, w in B[l, r]:
                    _add(out[t], _times(act, c, w))
                _add(out[l], anchors[r].apply(c), minus)
        return [dict_to_sparse(acc) if acc else () for acc in out]

    out = []
    for i, j, k in combinations_with_replacement(range(n), 3):
        if len({i, j, k}) + m < 4:
            continue        # no triple u < v < w in this block
        J = jacobiator(i, j, k)
        Ds = [D.get(pq) for pq in ((j, k), (k, i), (i, j))]
        Ss = [S.get(pq) for pq in ((i, k), (i, j), (j, k))]
        if not any(J) and Ds == [None] * 3 and Ss == [None] * 3:
            continue
        Ss = [no_S if s is None else s for s in Ss]
        for a, b, c in product(range(m), repeat=3):
            if (i == j and a >= b) or (j == k and b >= c):
                continue
            e = (a, b, c)
            val = [{} for _ in range(n)]
            abc = act[c].apply(mult[a][b])
            for l in range(n):
                _add(val[l], _times(act, abc, J[l]))
            for t, (slot, x) in enumerate(zip((i, j, k), e)):
                # the cyclic term at slot t: y = e_b e_c for (a, b, c) rotated
                y = mult[e[(t + 1) % 3]][e[(t + 2) % 3]]
                if Ds[t] is not None:
                    _add(val[slot], _times(act, y, Ds[t].column(x)))
                coeff = _times(act, y, anchors[(j, k, i)[t]].column(x))
                if coeff:
                    for l in range(n):
                        _add(val[l], _times(act, coeff, Ss[t][l]), minus)
            if any(map(dict_to_sparse, val)):
                out.append((L.kindex(i, a), L.kindex(j, b), L.kindex(k, c)))
    return sorted(out)


def _add(acc: dict, v, scale=None):
    """acc += scale * v in place, for a sparse v and an accumulator {index: value}."""
    for t, x in v:
        if scale is not None:
            x = scale * x
        acc[t] = acc[t] + x if t in acc else x


def _flat(m, coeffs) -> tuple:
    """The (l, c) pairs of coeffs, c a sparse element of A, as one sparse k-vector
    on the basis e_a s_l."""
    return tuple((l * m + t, x) for l, c in coeffs for t, x in c)


@dataclass
class Representation:
    """An A-module M with an action of L by scalar-symbol operators."""
    module: AModule
    rho: list   # one dim x dim Matrix per basis section of L
    _memo: dict = dfield(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def basis_actions(self) -> list:
        """Action e_a . rho(s_i) of each k-basis element e_a s_i of L, at its
        flat index i m + a (A-linear extension of rho)."""
        return [act.mul(r) for r in self.rho for act in self.module.action]

    def rho_of_vector(self, L: LieRinehartAlgebroid, v) -> Matrix:
        """The action of the sparse k-vector v of L."""
        N = self.module.dim
        hats = self.basis_actions
        return combination(self.module.field, N, N, ((x, hats[u]) for u, x in v))


def anchor_representation(L: LieRinehartAlgebroid) -> Representation:
    """A as a representation of L, acting through the anchor; built once per L."""
    if L._anchor_rep is None:
        L._anchor_rep = Representation(regular_module(L.algebra), list(L.anchors))
    return L._anchor_rep


def _curvatures(L: LieRinehartAlgebroid, R: Representation) -> dict:
    """F_ij = R([s_i, s_j]) - [R(s_i), R(s_j)] at each i <= j where it is nonzero."""
    N = R.module.dim
    out = {}
    for i, j in combinations_with_replacement(range(L.n), 2):
        B = L.bracket_terms[i, j]
        F = R.rho_of_vector(L, _flat(L.m, B)) if B else Matrix.zero(L.field, N, N)
        if i < j:
            F = F.sub(R.rho[i].mul(R.rho[j]).sub(R.rho[j].mul(R.rho[i])))
        if not F.is_zero():
            out[i, j] = F
    return out


def _failing_pairs(L: LieRinehartAlgebroid, R: Representation) -> list:
    """The k-basis pairs u < v with R([b_u, b_v]) != [R(b_u), R(b_v)].

    When A is commutative and R's module is multiplicative, the defect at
    (e_a s_i, e_b s_j) is act_a act_b F_ij - act_a Sigma_ib R_j + act_b Sigma_ja R_i,
    with F the curvature and Sigma the symbol defect, so only the blocks i <= j
    where one of these is nonzero are expanded.  Otherwise every pair is
    compared on the k-closure."""
    f, mod, mult = L.field, R.module, L.algebra.mult
    if any(mult[a][b] != mult[b][a] for a, b in combinations(range(L.m), 2)) or \
            any(not d.is_zero() for _, d in mod.multiplicativity_defects):
        return _k_pair_loop(L, R)
    # act_c F_ij for every c, and act_a Sigma_ib R_j for every a
    curv = {ij: [act.mul(F) for act in mod.action] for ij, F in _kept(L, R, _curvatures).items()}
    twisted = {}
    for (i, b), sigma in _kept(L, R, _symbol_defects).items():
        for j, r in enumerate(R.rho):
            p = sigma.mul(r)
            if not p.is_zero():
                twisted[i, b, j] = [act.mul(p) for act in mod.action]
    blocks = set(curv) | {tuple(sorted((i, j))) for i, _, j in twisted}
    N = mod.dim
    out = []
    for i, j in blocks:
        for a, b in product(range(L.m), repeat=2):
            if i == j and a >= b:
                continue
            terms = list(zip(mult[a][b], curv.get((i, j), ())))
            if (i, b, j) in twisted:
                terms.append((-f.one, twisted[i, b, j][a]))
            if (j, a, i) in twisted:
                terms.append((f.one, twisted[j, a, i][b]))
            if not combination(f, N, N, terms).is_zero():
                out.append((L.kindex(i, a), L.kindex(j, b)))
    return sorted(out)


def _k_pair_loop(L: LieRinehartAlgebroid, R: Representation) -> list:
    """_failing_pairs by comparing every pair u < v of the k-basis."""
    hats, one = R.basis_actions, L.field.one
    out = []
    for u, v in combinations(range(L.kdim), 2):
        comm = hats[u].mul(hats[v]).sub(hats[v].mul(hats[u]))
        if R.rho_of_vector(L, leibniz_bracket(L, ((u, one),), ((v, one),))) != comm:
            out.append((u, v))
    return out


def _symbol_defects(L: LieRinehartAlgebroid, R: Representation) -> dict:
    """Sigma_ib = [R(s_i), act_b] - act(a(s_i)(e_b)) at each (i, b) where it is
    nonzero; the product act_b R(s_i) is the action of e_b s_i in R.basis_actions."""
    mod = R.module
    hats = R.basis_actions
    out = {}
    for i, b in product(range(L.n), range(L.m)):
        comm = R.rho[i].mul(mod.action[b]).sub(hats[L.kindex(i, b)])
        symbol = mod.act_vec(L.anchors[i].column(b))
        if comm != symbol:
            out[i, b] = comm.sub(symbol)
    return out


def _kept(L: LieRinehartAlgebroid, R: Representation, find):
    """find(L, R), run once per (L, R) and kept on R."""
    if (find, L) not in R._memo:
        R._memo[find, L] = find(L, R)
    return R._memo[find, L]


class BracketActions(dict):
    """The action act(B_ij^l) on a module of each nonzero coefficient of
    [s_i, s_j], keyed like L.bracket_terms and formed when (i, j) is first read."""

    def __init__(self, L: LieRinehartAlgebroid, R: Representation):
        super().__init__()
        self.terms, self.act = L.bracket_terms, R.module.act_vec

    def __missing__(self, ij):
        out = self[ij] = tuple((l, self.act(x)) for l, x in self.terms[ij])
        return out


def bracket_actions(L: LieRinehartAlgebroid, R: Representation) -> BracketActions:
    """The bracket coefficients of L acting on R's module, one table per (L, R)."""
    return _kept(L, R, BracketActions)


def validate_representation(L: LieRinehartAlgebroid, R: Representation) -> list[Violation]:
    """Scalar-symbol condition over the anchor plus flatness on the k-basis."""
    out = [Violation(f"module-{v.axiom}", v.indices, v.detail) for v in R.module.validate()]
    if len(R.rho) != L.n:
        return out + [Violation("rho-shape", (len(R.rho), L.n))]
    out.extend(Violation("symbol", pair) for pair in _kept(L, R, _symbol_defects))
    return out + [Violation("flatness", pair) for pair in _kept(L, R, _failing_pairs)]


def invariants(L: LieRinehartAlgebroid, R: Representation) -> Subspace:
    """{m in M : rho(u)(m) = 0 for every k-basis element u of L}."""
    rows = tuple(row for mat in R.basis_actions for row in mat.data)
    return kernel_subspace(Matrix(R.module.field, len(rows), R.module.dim, rows))
