"""Extensions 0 -> K -> L -> Q -> 0 of Lie-Rinehart algebroids, the adapted
basis attached to a splitting, and the induced action of Q on H^q(K; M).

The kernel of any algebroid morphism has vanishing anchor, so K is an A-Lie
algebra and its CE differential is A-linear; H^q(K; M) therefore carries an
A-module structure, and the splitting transports the L-action to a
representation of Q on it.  Elements of K act null-homotopically on K-cochains
(Cartan formula), which is why the descended action is independent of the
splitting and flat even though neither holds at the cochain level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import AModule, Violation, regular_module
from .algebroid import (LieRinehartAlgebroid, Representation, anchor_representation,
                        bracket_actions, leibniz_bracket, validate_algebroid,
                        validate_representation)
from .cecomplex import CEComplex, ce_complex, koszul_terms
from .complexes import Cohomology
from .errors import EngineError, NotWellDefined
from .linalg import (Matrix, add_block, block_diagonal, dense_to_sparse, hstack, rank, rref,
                     sub_vector)


def amap_matrix(L_src: LieRinehartAlgebroid, L_dst: LieRinehartAlgebroid, acoords) -> Matrix:
    """k-matrix of the A-linear map s_j -> sum_l acoords[j][l] s'_l."""
    act = regular_module(L_src.algebra).action
    rows = [{} for _ in range(L_dst.kdim)]
    for j in range(L_src.n):
        for l in range(L_dst.n):
            x = dense_to_sparse(acoords[j][l])
            for a, act_a in enumerate(act):
                for t, c in act_a.apply(x):
                    rows[L_dst.kindex(l, t)][L_src.kindex(j, a)] = c
    return Matrix.from_dicts(L_src.field, L_src.kdim, rows)


@dataclass
class ExtensionTriple:
    K: LieRinehartAlgebroid
    L: LieRinehartAlgebroid
    Q: LieRinehartAlgebroid
    iota: list    # iota[j][l] in k^m: A-coords in L of the j-th K-basis element
    pi: list      # pi[j][l]: A-coords in Q of the image of the j-th L-basis element
    sigma: list   # sigma[j][l]: A-coords in L of the section of the j-th Q-basis element

    @cached_property
    def violations(self) -> tuple:
        """validate_extension(self), run once per extension."""
        return tuple(validate_extension(self))


def extension_from_k_indices(L: LieRinehartAlgebroid, k_indices, sigma_acoords=None) -> ExtensionTriple:
    """Extension data from a coordinate ideal: K spans the listed basis sections.

    Structure constants of K and Q are read off from L (restriction and
    projection); whether K really is an ideal etc. is left to validate_extension.
    """
    k_indices = list(k_indices)
    q_indices = [i for i in range(L.n) if i not in k_indices]
    one = tuple(L.algebra.unit)
    zero_vec = tuple(L.field.zero for _ in range(L.m))
    K, Q = _restrict(L, k_indices), _restrict(L, q_indices)
    iota = [[one if l == k else zero_vec for l in range(L.n)] for k in k_indices]
    pi = [[one if q == j else zero_vec for q in q_indices] for j in range(L.n)]
    if sigma_acoords is None:
        sigma = [[one if l == q else zero_vec for l in range(L.n)] for q in q_indices]
    else:
        sigma = [[tuple(v) for v in row] for row in sigma_acoords]
    return ExtensionTriple(K, L, Q, iota, pi, sigma)


def _restrict(L: LieRinehartAlgebroid, indices) -> LieRinehartAlgebroid:
    """The sections s_i, i in indices, of L with their anchors and the
    components of their brackets along the same sections."""
    return LieRinehartAlgebroid(L.algebra, len(indices), [L.anchors[i] for i in indices],
                                [[[L.bracket[i][j][l] for l in indices] for j in indices]
                                 for i in indices])


def validate_extension(E: ExtensionTriple) -> list[Violation]:
    """A-module exactness, bracket/anchor compatibility, zero anchor on K,
    and sigma being an A-linear section of pi."""
    out = []
    K, L, Q = E.K, E.L, E.Q
    if K.n + Q.n != L.n:
        out.append(Violation("rank-mismatch", (K.n, L.n, Q.n)))
        return out
    f = L.field
    im = amap_matrix(K, L, E.iota)
    pm = amap_matrix(L, Q, E.pi)
    sm = amap_matrix(Q, L, E.sigma)
    rank_iota, rank_pi = rank(im), rank(pm)
    if rank_iota != K.kdim:
        out.append(Violation("iota-not-injective", ()))
    if rank_pi != Q.kdim:
        out.append(Violation("pi-not-surjective", ()))
    # im iota = ker pi iff im iota lies in ker pi and has its dimension
    if not pm.mul(im).is_zero() or rank_iota + rank_pi != L.kdim:
        out.append(Violation("not-exact-in-middle", ()))
    for i, d in enumerate(K.anchors):
        if not d.is_zero():
            out.append(Violation("kernel-anchor-nonzero", (i,)))
    # iota and pi preserve anchors and brackets; column u of a map is the image of b_u
    for name, S, T, mat in (("iota", K, L, im), ("pi", L, Q, pm)):
        aS, aT = anchor_representation(S), anchor_representation(T)
        units = [((u, f.one),) for u in range(S.kdim)]
        cols = [mat.column(u) for u in range(S.kdim)]
        for u in range(S.kdim):
            if aT.rho_of_vector(T, cols[u]) != aS.basis_actions[u]:
                out.append(Violation(f"{name}-anchor", (u,)))
            for v in range(u + 1, S.kdim):
                if mat.apply(leibniz_bracket(S, units[u], units[v])) != \
                        leibniz_bracket(T, cols[u], cols[v]):
                    out.append(Violation(f"{name}-bracket", (u, v)))
    if pm.mul(sm) != Matrix.identity(f, Q.kdim):
        out.append(Violation("sigma-not-a-section", ()))
    return out


def _invert(m: Matrix) -> Matrix:
    red, pivots = rref(hstack(m, Matrix.identity(m.field, m.rows)))
    if pivots != list(range(m.rows)):
        raise EngineError("matrix is not invertible")
    return Matrix(m.field, m.rows, m.rows, tuple(sub_vector(row, m.rows, 2 * m.rows)
                                                 for row in red))


@dataclass
class AdaptedExtension:
    """The extension rewritten on the basis (iota(K-basis), sigma(Q-basis))."""
    ext: ExtensionTriple
    rep: Representation
    L_ad: LieRinehartAlgebroid      # same L, adapted A-basis
    R_ad: Representation            # transported representation
    K_sub: LieRinehartAlgebroid     # first c adapted sections
    rho_K: Representation           # restriction of R_ad to K_sub
    Q_quot: LieRinehartAlgebroid    # last r adapted sections mod K
    c: int
    r: int

    @cached_property
    def ce_kernel(self) -> CEComplex:
        """The CE complex of K_sub with coefficients rho_K, built once."""
        return ce_complex(self.K_sub, self.rho_K)


def adapt(E: ExtensionTriple, R: Representation) -> AdaptedExtension:
    bad = E.violations
    if bad:
        raise EngineError("invalid extension: " + "; ".join(v.describe() for v in bad))
    L = E.L
    alg = L.algebra
    m = alg.dim
    c, r = E.K.n, E.Q.n
    n = L.n
    new_acoords = [[tuple(v) for v in row] for row in E.iota] + \
                  [[tuple(v) for v in row] for row in E.sigma]
    T_inv = _invert(amap_matrix(L, L, new_acoords))
    for b in range(m):
        act = L.algebra_action_on_sections(b)
        if T_inv.mul(act) != act.mul(T_inv):
            raise EngineError("inverse change of basis is not A-linear")
    kvecs = [tuple((L.kindex(l, a), x) for l in range(n) for a, x in enumerate(new_acoords[t][l])
                   if x) for t in range(n)]
    anchors_ad = [anchor_representation(L).rho_of_vector(L, v) for v in kvecs]
    rho_ad = [R.rho_of_vector(L, v) for v in kvecs]
    bracket_ad = []
    for i in range(n):
        plane = []
        for j in range(n):
            w = leibniz_bracket(L, kvecs[i], kvecs[j])
            plane.append(L.k_to_acoords(T_inv.apply(w)))
        bracket_ad.append(plane)
    L_ad = LieRinehartAlgebroid(alg, n, anchors_ad, bracket_ad)
    R_ad = Representation(R.module, rho_ad)
    if validate_algebroid(L_ad) or validate_representation(L_ad, R_ad):
        raise EngineError("adapted structure failed validation")
    for i in range(c):
        for j in range(c):
            if any(l >= c for l, _ in L_ad.bracket_terms[i, j]):
                raise EngineError("kernel sections are not closed under the bracket")
    K_sub, Q_quot = _restrict(L_ad, range(c)), _restrict(L_ad, range(c, n))
    rho_K = Representation(R.module, rho_ad[:c])
    return AdaptedExtension(E, R, L_ad, R_ad, K_sub, rho_K, Q_quot, c, r)


def _descend_operator(op: Matrix, h: Cohomology, field):
    """Matrix of an operator on the representatives of the cohomology h.

    Requires op(Z) inside Z and op(B) inside B; raises NotWellDefined otherwise.
    B's basis and the representatives form a basis of Z, so one class
    reduction of each of their images answers both.
    """
    on_b = [h.coordinates(op.apply(b)) for b in h.coboundaries.basis]
    out_cols = [h.coordinates(op.apply(z)) for z in h.reps]
    if None in on_b or None in out_cols:
        raise NotWellDefined("operator does not preserve cocycles")
    if any(on_b):
        raise NotWellDefined("operator does not preserve coboundaries")
    return Matrix.from_columns(field, h.dim, out_cols)


def _module_action_on_cochains(ad: AdaptedExtension, ceK, q: int, b: int) -> Matrix:
    """Multiplication by e_b on K-cochains (A-linear because K has zero anchor)."""
    return block_diagonal(ad.rep.module.action[b], len(ceK.tuples[q]))


def _lie_operator_on_k_cochains(ad: AdaptedExtension, ceK, q: int, section_index: int) -> Matrix:
    """The action of an adapted L-section u on K-q-cochains:

        (u . c)(k_T) = rho(u)(c(k_T)) - sum_pos c(.., [u, k_pos], ..)

    The bracket terms are the Koszul terms of the tuple (u,) + T that pair slot 0
    with slot pos + 1; their sign (-1)^(pos + pos_l + 1) is exactly the one needed.
    """
    f = ad.L_ad.field
    N = ad.rep.module.dim
    tuples = ceK.tuples[q]
    index_q = {t: i for i, t in enumerate(tuples)}
    size = len(tuples) * N
    blocks = bracket_actions(ad.L_ad, ad.R_ad)
    rows = [{} for _ in range(size)]
    for ti, T in enumerate(tuples):
        add_block(rows, ti * N, ti * N, ad.R_ad.rho[section_index])
        for sgn, pair, x, S in koszul_terms(blocks, (section_index,) + T):
            if pair is None or pair[0] != 0:
                continue
            if S[-1] >= ad.c:
                raise NotWellDefined("bracket with the kernel leaves the kernel")
            add_block(rows, ti * N, index_q[S] * N, x, sgn)
    return Matrix.from_dicts(f, size, rows)


def induced_q_rep(E: ExtensionTriple, R: Representation, q: int) -> Representation:
    """The representation of Q on H^q(K; M) induced through the splitting."""
    ad = adapt(E, R)
    return induced_q_rep_adapted(ad, ad.ce_kernel, q)


def induced_q_rep_adapted(ad: AdaptedExtension, ceK: CEComplex, q: int) -> Representation:
    """The induced representation from the adapted extension and the CE complex
    ceK of its kernel with coefficients rho_K."""
    f = ad.L_ad.field
    alg = ad.L_ad.algebra
    if not (0 <= q <= ad.c):
        modH = AModule(alg, 0, [Matrix.zero(f, 0, 0)] * alg.dim)
        return Representation(modH, [Matrix.zero(f, 0, 0)] * ad.r)
    h = ceK.complex.cohomology(q)
    act_mats = []
    for b in range(alg.dim):
        op = _module_action_on_cochains(ad, ceK, q, b)
        # A-linearity of the K-differential (zero anchor): op must commute with d
        if q < ad.c:
            op_next = _module_action_on_cochains(ad, ceK, q + 1, b)
            dq = ceK.complex.diff(q)
            if dq.mul(op) != op_next.mul(dq):
                raise NotWellDefined("algebra action does not commute with the K-differential")
        act_mats.append(_descend_operator(op, h, f))
    modH = AModule(alg, h.dim, act_mats)
    bad = modH.validate()
    if bad:
        raise NotWellDefined("induced A-module structure is invalid: "
                             + "; ".join(v.describe() for v in bad))
    rho_mats = []
    for j in range(ad.r):
        theta = _lie_operator_on_k_cochains(ad, ceK, q, ad.c + j)
        rho_mats.append(_descend_operator(theta, h, f))
    induced = Representation(modH, rho_mats)
    bad = validate_representation(ad.Q_quot, induced)
    if bad:
        raise NotWellDefined("induced action is not a representation of Q: "
                             + "; ".join(v.describe() for v in bad))
    return induced


def with_splitting(E: ExtensionTriple, delta_acoords) -> ExtensionTriple:
    """Replace sigma by sigma + delta for an A-linear delta: Q -> K (inside L)."""
    sigma = []
    for j in range(E.Q.n):
        row = []
        for l in range(E.L.n):
            row.append(tuple(a + b for a, b in zip(E.sigma[j][l], delta_acoords[j][l])))
        sigma.append(row)
    return ExtensionTriple(E.K, E.L, E.Q, E.iota, E.pi, sigma)
