"""Finite-dimensional commutative unital algebras, their derivations, modules,
and the algebra of scalar-symbol operators on a module.

An algebra is raw data: structure constants mult[i][j] (the coordinates of
e_i e_j) plus the coordinates of 1.  Its product exists once, as the regular
module (A acting on itself): associativity and the unit law are that module's
multiplicativity and unit defects, read column by column on basis triples.
Target sizes are tiny (m <= ~8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .linalg import (Matrix, Subspace, add_entry, combination, dense_to_sparse, kernel_subspace,
                     sub_vector)


@dataclass(frozen=True)
class Violation:
    axiom: str
    indices: tuple
    detail: str = ""

    def describe(self) -> str:
        return f"{self.axiom} at {self.indices}" + (f": {self.detail}" if self.detail else "")


class FiniteAlgebra:
    def __init__(self, field, dim, mult, unit):
        self.field = field
        self.dim = dim
        self.mult = [[tuple(v) for v in row] for row in mult]   # mult[i][j] in k^dim
        self.unit = tuple(unit)
        if len(self.mult) != dim or any(len(row) != dim for row in self.mult):
            raise ValueError("mult table must be dim x dim")
        for row in self.mult:
            for v in row:
                if len(v) != dim:
                    raise ValueError("mult entries must be coordinate vectors of length dim")
        if len(self.unit) != dim:
            raise ValueError("unit vector of wrong length")
        # the same constants as sparse vectors, for everything that computes with them
        self.sparse_mult = [[dense_to_sparse(v) for v in row] for row in self.mult]
        self.sparse_unit = dense_to_sparse(self.unit)
        self._regular = None

    def basis_vector(self, i):
        return ((i, self.field.one),)

    @cached_property
    def violations(self) -> tuple:
        """validate_algebra(self), run once per algebra."""
        return tuple(validate_algebra(self))


def validate_algebra(a: FiniteAlgebra) -> list[Violation]:
    """Commutativity on basis pairs; associativity and the unit law read off
    the regular module: column k of act_i act_j - act(e_i e_j) is
    e_i (e_j e_k) - (e_i e_j) e_k, and column k of act(1) - I is 1 e_k - e_k."""
    out = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if a.mult[i][j] != a.mult[j][i]:
                out.append(Violation("commutativity", (i, j)))
    reg = regular_module(a)
    for (i, j), d in reg.multiplicativity_defects:
        out.extend(Violation("associativity", (i, j, k)) for k in _nonzero_columns(d))
    out.extend(Violation("unit", (k,)) for k in _nonzero_columns(reg.unit_defect))
    return out


def _nonzero_columns(m: Matrix) -> list:
    return sorted({j for row in m.data for j, _ in row})


def matrix_from_flat(field, flat, rows, cols) -> Matrix:
    """The rows x cols matrix flattened row by row into the sparse vector flat."""
    return Matrix(field, rows, cols, tuple(sub_vector(flat, r * cols, (r + 1) * cols)
                                           for r in range(rows)))


def _leibniz_rows(a: FiniteAlgebra, offset=0) -> list:
    """The Leibniz constraints on an unknown m x m matrix D, flattened from
    column offset, one sparse row per (i, j, output coordinate t):

        sum_c D[t][c] mult[i][j]_c - sum_r D[r][i] mult[r][j]_t - sum_r D[r][j] mult[i][r]_t = 0
    """
    m = a.dim
    rows = []
    for i, j, t in product(range(m), repeat=3):
        row = {}
        for c, x in enumerate(a.mult[i][j]):
            add_entry(row, offset + t * m + c, x)
        for r in range(m):
            add_entry(row, offset + r * m + i, -a.mult[r][j][t])
            add_entry(row, offset + r * m + j, -a.mult[i][r][t])
        rows.append(row)
    return rows


def _commutator_rows(act: Matrix) -> list:
    """[D, act] = 0 entrywise in an unknown n x n matrix D, flattened: one
    sparse row per entry (r, c), sum_t D[r][t] act[t][c] - sum_t act[r][t] D[t][c]."""
    n = act.rows
    cols = act.transpose().data
    rows = []
    for r, c in product(range(n), repeat=2):
        row = {}
        for t, x in cols[c]:
            add_entry(row, r * n + t, x)
        for t, x in act.data[r]:
            add_entry(row, t * n + c, -x)
        rows.append(row)
    return rows


def derivation_space(a: FiniteAlgebra) -> Subspace:
    """All Leibniz matrices, as a subspace of flattened m x m matrices.

    The Leibniz constraints are one linear system in the m^2 unknown entries
    D[r][c]; its kernel is Der_k(A).
    """
    return kernel_subspace(Matrix.from_dicts(a.field, a.dim * a.dim, _leibniz_rows(a)))


class AModule:
    """A finite-dimensional module over a FiniteAlgebra, given by action matrices."""

    def __init__(self, algebra: FiniteAlgebra, dim, action):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.action = list(action)   # one dim x dim Matrix per algebra basis element
        if len(self.action) != algebra.dim:
            raise ValueError("one action matrix per algebra basis element")
        for mtx in self.action:
            if (mtx.rows, mtx.cols) != (dim, dim):
                raise ValueError("action matrix of wrong shape")

    def act_vec(self, f) -> Matrix:
        """Action matrix of the algebra element with sparse coordinates f."""
        act = self.action
        return combination(self.field, self.dim, self.dim, ((x, act[c]) for c, x in f))

    @cached_property
    def unit_defect(self) -> Matrix:
        """act(1) - I."""
        return self.act_vec(self.algebra.sparse_unit).sub(Matrix.identity(self.field, self.dim))

    @cached_property
    def multiplicativity_defects(self) -> list:
        """((i, j), act_i act_j - act(e_i e_j)) for every basis pair, row-major."""
        mult = self.algebra.sparse_mult
        return [((i, j), ai.mul(aj).sub(self.act_vec(mult[i][j])))
                for i, ai in enumerate(self.action) for j, aj in enumerate(self.action)]

    def validate(self) -> list[Violation]:
        out = [] if self.unit_defect.is_zero() else [Violation("module-unit", ())]
        return out + [Violation("module-multiplicativity", ij)
                      for ij, d in self.multiplicativity_defects if not d.is_zero()]


def regular_module(a: FiniteAlgebra) -> AModule:
    """A acting on itself by multiplication, built once per algebra: the
    action matrix of e_i has the columns mult[i][j]."""
    if a._regular is None:
        a._regular = AModule(a, a.dim, [Matrix.from_columns(a.field, a.dim, row)
                                        for row in a.sparse_mult])
    return a._regular


def endomorphism_space(mod: AModule) -> Subspace:
    """A-linear endomorphisms: matrices commuting with every action matrix."""
    rows = [row for act in mod.action for row in _commutator_rows(act)]
    return kernel_subspace(Matrix.from_dicts(mod.field, mod.dim * mod.dim, rows))


@dataclass
class AtiyahObject:
    """Scalar-symbol operators on a module: pairs (D, Dbar) with
    D(x m) = x D(m) + Dbar(x) m and Dbar a derivation of the algebra.

    Vectors of `space` are flattened (D | Dbar) pairs of length N^2 + m^2.
    """
    space: Subspace
    symbol_image: Subspace       # subspace of flattened m x m matrices
    kernel: Subspace             # operators with zero symbol, as flattened N x N matrices
    endomorphisms: Subspace      # End_A(M), computed independently
    derivations: Subspace        # Der_k(A), for the surjectivity comparison

    @property
    def exact_at_middle(self) -> bool:
        return self.space.dim == self.kernel.dim + self.symbol_image.dim

    @property
    def kernel_is_end(self) -> bool:
        return self.kernel.equals(self.endomorphisms)

    @property
    def symbol_surjective(self) -> bool:
        return self.symbol_image.equals(self.derivations)


def atiyah_object(a: FiniteAlgebra, mod: AModule) -> AtiyahObject:
    """Solve the joint linear system for (D, Dbar) and package the symbol sequence."""
    m = a.dim
    n = mod.dim
    f = a.field
    nn = n * n
    unknowns = nn + m * m
    rows = []
    # pair Leibniz: D act(e_b) - act(e_b) D - sum_c Dbar[c][b] act(e_c) = 0
    for b in range(m):
        for (r, c), row in zip(product(range(n), repeat=2), _commutator_rows(mod.action[b])):
            for cc, act in enumerate(mod.action):
                add_entry(row, nn + cc * m + b, -dict(act.data[r]).get(c, f.zero))
            rows.append(row)
    # Dbar Leibniz
    rows.extend(_leibniz_rows(a, nn))
    space = kernel_subspace(Matrix.from_dicts(f, unknowns, rows))
    symbol_image = Subspace.span(f, m * m, [sub_vector(v, nn, unknowns) for v in space.basis])
    # zero-symbol slice of the solution space, projected to the operator block
    sym = Matrix(f, m * m, unknowns, tuple(((nn + t, f.one),) for t in range(m * m)))
    zero_symbol = kernel_subspace(sym).intersect(space)
    kernel = Subspace.span(f, nn, [sub_vector(v, 0, nn) for v in zero_symbol.basis])
    return AtiyahObject(space, symbol_image, kernel, endomorphism_space(mod), derivation_space(a))
