"""Independent brute-force oracles used only by the test suite.

Deliberately written against different machinery than the engine: the CE
differential is assembled entry-by-entry from the defining formula with an
explicit permutation-sign evaluator, and ranks come from sympy over Q or a
local RREF over F_p.  Only the Lie-algebra case (A = k) is covered; that is
what the classical expected values are frozen from.  The page oracles are the
one exception: `subquotient_page_dims` evaluates the generic subquotient
formula for E_r and `limit_page_dims` the E_infinity formula straight from the
kernel of each d_s and the span of the columns of d_{s-1}, both with the
engine's subspace calculus on the coordinate subspaces F^p, where the engine
reads pages off a persistence pairing; `five_term_exactness` compares images
and kernels as subspaces, where the engine adds ranks;
`nested_slice_exactness` eliminates every level slice of the resolution,
where the engine eliminates each map once in level order;
`tensor_module_e1_dims` assembles the CE complex of K with C(r, p) copies of
M for each p, where the engine scales one cohomology by C(r, p); and
`chained_table` straightens every product of the PBW table from scratch and
`chained_augmentation` builds the action of each monomial as a chain of
matrix products, where the engine takes one step from a product or a vector
of lower degree; `pbw_exponent_order` lists the PBW basis as exponent vectors
by recursion, where the engine enumerates ascending index tuples.  The
algebra product is evaluated here by dense loops over the structure constants
(`mul_vec`), where the engine reads it off the regular module and the anchor
representation.  The algebroid axioms are checked here on every k-basis pair
and triple of the bracket's k-bilinear closure, where the engine reads tensors
on the A-basis.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import sympy

from rinehart.algebra import AModule
from rinehart.algebroid import Representation, anchor_representation
from rinehart.cecomplex import ce_dims
from rinehart.enveloping import ExactnessReport
from rinehart.errors import ExactnessFailure
from rinehart.linalg import (Matrix, Subspace, block_diagonal, image_subspace, kernel_subspace,
                             kernel_vectors, rank)


def perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def evaluate_dual(inc, t):
    """Value of the alternating dual of the increasing tuple `inc` on tuple `t`."""
    if sorted(t) != list(inc):
        return 0
    return perm_sign(tuple(inc.index(x) for x in t))


def lie_ce_dims_bruteforce(n, bracket_coeffs, rho, mod_p=None):
    """CE cohomology dims of a Lie algebra: dense evaluation + external ranks.

    bracket_coeffs[i][j][l]: coefficient of s_l in [s_i, s_j] (int/Fraction).
    rho[i]: matrix of s_i as nested lists.  mod_p switches to F_p ranks.
    """
    N = len(rho[0]) if rho else 1

    def differential(p):
        src = [(inc, mu) for inc in combinations(range(n), p) for mu in range(N)]
        dst = [(inc, nu) for inc in combinations(range(n), p + 1) for nu in range(N)]
        rows = []
        for inc_t, nu in dst:
            row = []
            for inc_s, mu in src:
                val = Fraction(0)
                for i in range(p + 1):
                    rest = inc_t[:i] + inc_t[i + 1:]
                    e = evaluate_dual(inc_s, rest)
                    if e:
                        sgn = 1 if i % 2 == 0 else -1
                        val += sgn * e * Fraction(rho[inc_t[i]][nu][mu])
                if nu == mu:
                    for i in range(p + 1):
                        for j in range(i + 1, p + 1):
                            rest = tuple(x for k, x in enumerate(inc_t) if k not in (i, j))
                            for l in range(n):
                                c = Fraction(bracket_coeffs[inc_t[i]][inc_t[j]][l])
                                if not c:
                                    continue
                                e = evaluate_dual(inc_s, (l,) + rest)
                                if e:
                                    sgn = 1 if (i + j) % 2 == 0 else -1
                                    val += sgn * e * c
                row.append(val)
            rows.append(row)
        return rows

    def rank_of(rows):
        if not rows or not rows[0]:
            return 0
        if mod_p is None:
            return sympy.Matrix(rows).rank()
        return rank_mod_p(rows, mod_p)

    ds = [differential(p) for p in range(n)]
    sizes = [N * comb(n, p) for p in range(n + 1)]
    ranks = [rank_of(d) for d in ds]
    dims = []
    for p in range(n + 1):
        r_out = ranks[p] if p < n else 0
        r_in = ranks[p - 1] if p > 0 else 0
        dims.append(sizes[p] - r_out - r_in)
    return dims


def rank_mod_p(rows, p):
    return len(rref_mod_p(rows, p)[1])


def rref_mod_p(rows, p):
    """The reduced row echelon form of an int matrix mod p: its nonzero rows
    and their pivot columns."""
    m = [[int(Fraction(x)) % p for x in row] for row in rows]
    nr, nc = len(m), len(m[0])
    r = 0
    pivots = []
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def filtration_space(field, levels, p):
    """F^p as a coordinate subspace: spanned by the coordinates of level >= p."""
    return Subspace(field, len(levels), [((j, field.one),) for j, level in enumerate(levels)
                                         if level >= p])


def subquotient_page_dims(cx, levels, r):
    """dim (F^p n d^{-1} F^{p+r} + F^{p+1}) / (F^{p+1} + d(F^{p-r+1}) n F^p)
    at each (p, q) with a nonzero value, in total degree p + q, for the
    filtration of the complex cx by coordinate levels."""
    f = cx.field
    lv = list(levels) + [()]
    top = max((level for row in levels for level in row), default=0)
    out = {}
    for s in range(cx.top_degree + 1):
        d = cx.diff(s)
        for p in range(top + 1):
            Fp, Fp1 = filtration_space(f, lv[s], p), filtration_space(f, lv[s], p + 1)
            zr = Fp.intersect(filtration_space(f, lv[s + 1], p + r).preimage(d))
            den = Fp1
            if s > 0:
                src = filtration_space(f, lv[s - 1], p - r + 1)
                image = Subspace.span(f, cx.dims[s], [cx.diff(s - 1).apply(v) for v in src.basis])
                den = Fp1.add(image.intersect(Fp))
            dim = zr.add(Fp1).dim - den.dim
            if dim:
                out[(p, s - p)] = dim
    return out


def limit_page_dims(cx, levels):
    """dim (F^p n Z + F^{p+1}) / (F^{p+1} + B n F^p) at each (p, q) with a
    nonzero value, where Z and B are the cocycles and coboundaries of cx in
    total degree p + q, for the filtration by coordinate levels."""
    f = cx.field
    top = max((level for row in levels for level in row), default=0)
    out = {}
    for s in range(cx.top_degree + 1):
        Z = Subspace(f, cx.dims[s], kernel_vectors(cx.diff(s)))
        B = Subspace.span(f, cx.dims[s], [cx.diff(s - 1).column(j) for j in range(cx.dims[s - 1])]
                          if s > 0 else [])
        for p in range(top + 1):
            Fp, Fp1 = filtration_space(f, levels[s], p), filtration_space(f, levels[s], p + 1)
            num = Fp.intersect(Z).add(Fp1)
            den = Fp1.add(B.intersect(Fp))
            if num.dim != den.dim:
                out[(p, s - p)] = num.dim - den.dim
    return out


def five_term_exactness(em):
    """Exactness of the five-term sequence of edge maps em at its four interior
    nodes: injectivity at E2^{1,0}, then image = kernel compared as subspaces,
    where the engine adds the ranks of two maps whose composition is zero."""
    maps = (em.inflation1, em.restriction, em.transgression, em.inflation2)
    return (rank(maps[0]) == maps[0].cols,) + tuple(
        image_subspace(a).equals(kernel_subspace(b)) for a, b in zip(maps, maps[1:]))


# -- nested-slice exactness and tensor-module E_1 -----------------------------

def _slice_indices(cx, i, t):
    """The generators of C_i whose PBW degree plus i is at most t."""
    return [idx for idx, (mono, _) in enumerate(cx.bases[i]) if cx.U.degree(mono) + i <= t]


def _submatrix(m, row_idx, col_idx):
    """The rows row_idx and the columns col_idx of m, both ascending."""
    keep = {c: k for k, c in enumerate(col_idx)}
    return Matrix(m.field, len(row_idx), len(col_idx),
                  tuple(tuple((keep[c], x) for c, x in m.data[r] if c in keep) for r in row_idx))


def nested_slice_exactness(cx):
    """check_exactness by cutting the level-t slice of every partial_i and of
    epsilon and eliminating each one, level by level, where the engine
    eliminates each map once with its columns in level order."""
    U = cx.U
    n = U.L.n
    homology = {}
    augmented = {}
    for t in range(U.cutoff + 1):
        slices = [_slice_indices(cx, i, t) for i in range(n + 1)]
        mats = {}
        for i in range(1, n + 1):
            sub = _submatrix(cx.partials[i], slices[i - 1], slices[i])
            # the differential must preserve the filtration level
            full_cols = slices[i]
            inside = set(slices[i - 1])
            outside_rows = [r for r in range(len(cx.bases[i - 1])) if r not in inside]
            if outside_rows and full_cols:
                esc = _submatrix(cx.partials[i], outside_rows, full_cols)
                if not esc.is_zero():
                    raise ExactnessFailure("differential does not preserve the filtration",
                                           witness=("filtration", t, i))
            mats[i] = sub
        # ranks[i] = rank of partial_i on the level slice, 0 past the top degree
        ranks = [0] + [rank(mats[i]) if slices[i] else 0 for i in range(1, n + 1)] + [0]
        for i in range(1, n + 1):
            h = len(slices[i]) - ranks[i] - ranks[i + 1]
            homology[(t, i)] = h
            if h:
                raise ExactnessFailure(f"homology {h} at level t={t}, degree {i}",
                                       witness=(t, i))
        eps_slice = _submatrix(cx.epsilon, list(range(U.alg.dim)), slices[0])
        r_eps = rank(eps_slice)
        ker_eps = len(slices[0]) - r_eps
        augmented[t] = (ker_eps, ranks[1], r_eps)
        if ker_eps != ranks[1]:
            raise ExactnessFailure(f"augmented complex not exact at C_0, level {t}",
                                   witness=(t, 0))
    return ExactnessReport(U.cutoff, homology, augmented)


# -- the PBW table and the augmentation, product by product -------------------

def chained_table(U):
    """The multiplication table over all dim^2 pairs, {(i, j): {"overflow",
    "terms"}}, each product within the cutoff straightened from scratch by
    mul_mono, where the engine takes one straightening step from an earlier
    cell of the row and stores only the cells within the cutoff."""
    out = {}
    degrees = [U.degree(mono) for mono in U.basis]
    for i1, m1 in enumerate(U.basis):
        for i2, m2 in enumerate(U.basis):
            if degrees[i1] + degrees[i2] <= U.cutoff:
                elem, ov = U.mul_mono(m1, m2)
                terms = sorted(((U.index[mono], c) for mono, c in elem.items()))
                out[(i1, i2)] = {"overflow": ov, "terms": terms}
            else:
                out[(i1, i2)] = {"overflow": True, "terms": None}
    return out


def pbw_exponent_order(n, dmax):
    """The exponent vectors of the PBW monomials in n sections up to degree
    dmax, in the order of the basis: ascending degree, then descending lex,
    listed by a recursion on the first exponent where the engine enumerates
    ascending index tuples."""
    def of_degree(k, deg):
        if k == 0:
            return [()] if deg == 0 else []
        return [(first,) + rest for first in range(deg, -1, -1)
                for rest in of_degree(k - 1, deg - first)]
    return [alpha for deg in range(dmax + 1) for alpha in of_degree(n, deg)]


def chained_augmentation(U):
    """epsilon as the matrix of e_a s_alpha acting on A, built as the chain of
    matrix products rho_a rho_i1 rho_i2 ... for each monomial and applied to
    1, where the engine extends the vector of the monomial a degree lower."""
    A = anchor_representation(U.L)
    cols = []
    for a, alpha in U.basis:
        act = A.module.action[a]
        for i in alpha:
            act = act.mul(A.rho[i])
        cols.append(act.apply(U.alg.sparse_unit))
    return Matrix.from_columns(U.field, U.alg.dim, cols)


def tensor_module_e1_dims(ad):
    """dim H^q(K; M (x) Lambda^p Q^*) at each (p, q), with M (x) Lambda^p Q^*
    built as the K-module of C(r, p) block-diagonal copies of M and its CE
    complex assembled afresh for each p, where the engine multiplies the
    cohomology of one CE complex of K by C(r, p)."""
    out = {}
    for p in range(ad.r + 1):
        copies = comb(ad.r, p)
        mod = AModule(ad.L_ad.algebra, copies * ad.rep.module.dim,
                      [block_diagonal(m, copies) for m in ad.rep.module.action])
        rho = [block_diagonal(ad.rho_K.rho[i], copies) for i in range(ad.c)]
        for q, dim in enumerate(ce_dims(ad.K_sub, Representation(mod, rho))):
            out[(p, q)] = dim
    return out


# -- dense reference for linalg.Matrix: lists of row lists, every entry visited --

def sparse_rows(rows):
    """The one sparse form of a dense matrix: per row, its nonzero (col, value)
    pairs in column order."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def dense_vector(pairs, n, zero):
    """The dense tuple of length n of a sparse vector of (index, value) pairs."""
    out = [zero] * n
    for j, x in pairs:
        out[j] = x
    return tuple(out)


def dense_mul(a, b, cols, zero):
    """a (r x k) times b (k x cols)."""
    out = []
    for row in a:
        acc = [zero] * cols
        for k, x in enumerate(row):
            for j in range(cols):
                acc[j] = acc[j] + x * b[k][j]
        out.append(acc)
    return out


def dense_apply(a, v, zero):
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


def dense_sub(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_scale(a, c):
    return [[c * x for x in row] for row in a]


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_combination(terms, rows, cols, zero):
    out = [[zero] * cols for _ in range(rows)]
    for c, m in terms:
        out = [[x + c * y for x, y in zip(r, s)] for r, s in zip(out, m)]
    return out


def dense_add_block(rows, r0, c0, block, sign):
    for a, brow in enumerate(block):
        for b, x in enumerate(brow):
            rows[r0 + a][c0 + b] = rows[r0 + a][c0 + b] + (x if sign == 1 else -x)


# -- dense reference for the algebra product, straight from the structure constants --

def mul_vec(a, x, y):
    """The product of the elements x and y (coordinates) of the algebra a."""
    out = [a.field.zero] * a.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, s in enumerate(a.mult[i][j]):
                    out[k] = out[k] + xi * yj * s
    return tuple(out)


def unit_vectors(a):
    return [tuple(a.field.one if t == i else a.field.zero for t in range(a.dim))
            for i in range(a.dim)]


def algebra_violations(a):
    """(axiom, indices) of each failing commutativity pair, associativity
    triple and unit-law index, each kind in lexicographic order."""
    e = unit_vectors(a)
    m = range(a.dim)
    out = [("commutativity", (i, j)) for i, j in combinations(m, 2)
           if a.mult[i][j] != a.mult[j][i]]
    out += [("associativity", (i, j, k)) for i, j, k in product(m, repeat=3)
            if mul_vec(a, mul_vec(a, e[i], e[j]), e[k]) != mul_vec(a, e[i], mul_vec(a, e[j], e[k]))]
    out += [("unit", (k,)) for k in m if mul_vec(a, a.unit, e[k]) != e[k]]
    return out


def is_derivation(a, d):
    """Leibniz rule D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all basis pairs,
    for a linalg.Matrix d read through its dense entries."""
    rows, zero = d.entries, a.field.zero
    e = unit_vectors(a)
    for i, j in product(range(a.dim), repeat=2):
        lhs = dense_apply(rows, a.mult[i][j], zero)
        dei, dej = dense_apply(rows, e[i], zero), dense_apply(rows, e[j], zero)
        rhs = tuple(x + y for x, y in zip(mul_vec(a, dei, e[j]), mul_vec(a, e[i], dej)))
        if lhs != rhs:
            return False
    return True


def bracket_table(L):
    """[e_a s_i, e_b s_j] at [i m + a][j m + b], in k-coordinates, from
    [f s_i, g s_j] = f g [s_i, s_j] + f a(s_i)(g) s_j - g a(s_j)(f) s_i."""
    alg, m, n = L.algebra, L.m, L.n
    zero = L.field.zero
    anchors = [d.entries for d in L.anchors]
    e = unit_vectors(alg)
    table = [[None] * (n * m) for _ in range(n * m)]
    for i, a, j, b in product(range(n), range(m), range(n), range(m)):
        out = [zero] * (n * m)
        for l in range(n):
            for t, x in enumerate(mul_vec(alg, alg.mult[a][b], L.bracket[i][j][l])):
                out[l * m + t] = out[l * m + t] + x
        for t, x in enumerate(mul_vec(alg, e[a], dense_apply(anchors[i], e[b], zero))):
            out[j * m + t] = out[j * m + t] + x
        for t, x in enumerate(mul_vec(alg, e[b], dense_apply(anchors[j], e[a], zero))):
            out[i * m + t] = out[i * m + t] - x
        table[i * m + a][j * m + b] = tuple(out)
    return table


def bracket_of_vectors(table, x, y):
    """[x, y] for sparse k-vectors x and y, expanded bilinearly over every
    pair of their nonzeros in table = bracket_table(L), as a sparse vector."""
    acc = {}
    for u, xu in x:
        for v, yv in y:
            for k, c in enumerate(table[u][v]):
                if c:
                    acc[k] = acc[k] + xu * yv * c if k in acc else xu * yv * c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


# -- exhaustive reference for the algebroid axioms, on every k-basis pair and triple --

def alternating_violations(L, table):
    """(axiom, indices) of each u with [b_u, b_u] != 0 and each u < v with
    [b_u, b_v] + [b_v, b_u] != 0, in the order of the loop over u, v; table is
    bracket_table(L)."""
    out = []
    for u in range(L.kdim):
        if any(table[u][u]):
            out.append(("alternating", (u,)))
        for v in range(u + 1, L.kdim):
            if any(x + y for x, y in zip(table[u][v], table[v][u])):
                out.append(("antisymmetry", (u, v)))
    return out


def jacobi_triples(L, table):
    """The triples u < v < w with [[b_u, b_v], b_w] + [[b_v, b_w], b_u] +
    [[b_w, b_u], b_v] != 0, expanded densely over table = bracket_table(L)."""
    size, zero = L.kdim, L.field.zero
    out = []
    for x, y, z in combinations(range(size), 3):
        jac = [zero] * size
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            for s, c in enumerate(table[p][q]):
                for k, w in enumerate(table[s][r]):
                    jac[k] = jac[k] + c * w
        if any(jac):
            out.append((x, y, z))
    return out


def failing_pairs(L, R, table):
    """The pairs u < v with R([b_u, b_v]) != [R(b_u), R(b_v)], where R(e_a s_i)
    is act(e_a) R(s_i), all as dense matrices; table is bracket_table(L)."""
    N, zero = R.module.dim, L.field.zero
    acts = [m.entries for m in R.module.action]
    hats = [dense_mul(acts[a], r.entries, N, zero) for r in R.rho for a in range(L.m)]

    def rho(vec):
        return dense_combination(zip(vec, hats), N, N, zero)

    return [(u, v) for u, v in combinations(range(L.kdim), 2)
            if rho(table[u][v]) != dense_sub(dense_mul(hats[u], hats[v], N, zero),
                                             dense_mul(hats[v], hats[u], N, zero))]
