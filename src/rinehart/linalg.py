"""Exact matrices and subspace calculus over Q or F_p.

Elimination strategy: fraction-free Bareiss over Q (rows are scaled to
integers first, so all intermediate values are integers), plain Gaussian
elimination over F_p.  Pivoting is deterministic -- leftmost column, first
nonzero row -- which fixes every basis and representative the engine reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NotASubspace
from .fields import Field


Vector = tuple


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @staticmethod
    def from_rows(field, rows_list):
        rows_t = tuple(tuple(r) for r in rows_list)
        ncols = len(rows_t[0]) if rows_t else 0
        for r in rows_t:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return Matrix(field, len(rows_t), ncols, rows_t)

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero
        return Matrix(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def entry(self, i, j):
        return self.entries[i][j]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} applied to a matrix with {self.cols} columns")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            acc = z
            for j in range(self.cols):
                if v[j]:
                    acc = acc + row[j] * v[j]
            out.append(acc)
        return tuple(out)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        z = self.field.zero
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out_row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    if row[k]:
                        acc = acc + row[k] * other.entries[k][j]
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def add(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(a - b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(c * a for a in r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def column(self, j) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)))


def add_block(rows, r0, c0, block: Matrix, sign=1):
    """rows[r0 + a][c0 + b] += sign * block[a][b] over the nonzero entries of
    block, where rows is a list of row lists being assembled and sign is +1 or -1."""
    for a, brow in enumerate(block.entries):
        row = rows[r0 + a]
        for b, v in enumerate(brow):
            if v:
                row[c0 + b] += v if sign == 1 else -v


def _int_rows(rows):
    """Scale each rational row to coprime integers (rank/kernel are unaffected)."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon_rational(rows):
    """Fraction-free Bareiss elimination; returns (echelon rows as Fractions, pivot cols)."""
    M = _int_rows(rows)
    nr = len(M)
    nc = len(M[0]) if nr else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        k = None
        for i in range(r, nr):
            if M[i][c] != 0:
                k = i
                break
        if k is None:
            continue
        if k != r:
            M[r], M[k] = M[k], M[r]
        piv = M[r][c]
        for i in range(r + 1, nr):
            mic = M[i][c]
            for j in range(c, nc):
                M[i][j] = (piv * M[i][j] - mic * M[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    ech = [tuple(Fraction(v) for v in row) for row in M[:len(pivots)]]
    return ech, pivots


def _echelon_prime(rows, field):
    """Naive Gaussian elimination with normalized pivots."""
    M = [list(row) for row in rows]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        k = None
        for i in range(r, nr):
            if M[i][c]:
                k = i
                break
        if k is None:
            continue
        if k != r:
            M[r], M[k] = M[k], M[r]
        inv = field.one / M[r][c]
        M[r] = [inv * x for x in M[r]]
        for i in range(r + 1, nr):
            if M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    ech = [tuple(row) for row in M[:len(pivots)]]
    return ech, pivots


def echelon(m: Matrix):
    """Row echelon form (pivot rows only) plus pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return [], []
    if m.field.kind == "rational":
        return _echelon_rational(m.entries)
    return _echelon_prime(m.entries, m.field)


def rref(m: Matrix):
    """Reduced row echelon form: unique, used as the canonical basis of a span."""
    ech, pivots = echelon(m)
    field = m.field
    rows = [list(r) for r in ech]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        inv = field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    return [tuple(r) for r in rows], pivots


def rank(m: Matrix) -> int:
    """Rank over the matrix field, by exact elimination."""
    return len(echelon(m)[1])


def _back_substitute(ech, pivots, ncols, free_col, field):
    """Kernel vector with coordinate 1 at free_col, solved against the echelon rows."""
    x = [field.zero] * ncols
    x[free_col] = field.one
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        acc = field.zero
        row = ech[r]
        for j in range(c + 1, ncols):
            if x[j] and row[j]:
                acc = acc + row[j] * x[j]
        x[c] = -acc / row[c]
    return tuple(x)


def kernel_vectors(m: Matrix):
    """Basis of the null space {v : m v = 0}, one vector per free column."""
    if m.cols == 0:
        return []
    if m.rows == 0:
        return [tuple(m.field.one if i == j else m.field.zero for i in range(m.cols))
                for j in range(m.cols)]
    ech, pivots = echelon(m)
    pivset = set(pivots)
    return [_back_substitute(ech, pivots, m.cols, c, m.field)
            for c in range(m.cols) if c not in pivset]


def solve(m: Matrix, b: Vector):
    """One solution of m x = b with free coordinates set to zero, or None."""
    if m.cols == 0:
        return () if all(not v for v in b) else None
    if m.rows == 0:
        return tuple(m.field.zero for _ in range(m.cols))
    aug = Matrix.from_rows(m.field, [row + (bv,) for row, bv in zip(m.entries, b)])
    ech, pivots = echelon(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [m.field.zero] * m.cols
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = ech[r]
        acc = row[m.cols]
        for j in range(c + 1, m.cols):
            if x[j] and row[j]:
                acc = acc - row[j] * x[j]
        x[c] = acc / row[c]
    return tuple(x)


def class_coordinates(field, reps, den: "Subspace", vector):
    """Coefficients of vector on reps modulo den: solves [reps | den basis] x = vector
    and keeps x[:len(reps)]; () when both are empty, None when there is no solution."""
    cols = [list(v) for v in reps] + [list(v) for v in den.basis]
    if not cols:
        return ()
    x = solve(Matrix.from_rows(field, cols).transpose(), tuple(vector))
    return None if x is None else x[:len(reps)]


class Subspace:
    """A subspace of k^ambient, held as an explicit independent basis.

    The basis is whatever the caller constructed (e.g. chosen representatives);
    `canonical()` gives the unique RREF basis used for membership and equality.
    """

    def __init__(self, field, ambient_dim, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = [tuple(v) for v in basis]
        for v in self.basis:
            if len(v) != ambient_dim:
                raise ValueError("basis vector of wrong length")
        self._canon = None
        if self.basis and rank(Matrix.from_rows(field, self.basis)) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def zero(field, ambient_dim):
        return Subspace(field, ambient_dim, [])

    @staticmethod
    def full(field, ambient_dim):
        o, z = field.one, field.zero
        return Subspace(field, ambient_dim,
                        [tuple(o if i == j else z for i in range(ambient_dim))
                         for j in range(ambient_dim)])

    @staticmethod
    def span(field, ambient_dim, vectors):
        """Greedy independent subset of `vectors`, kept in their given order."""
        basis = []
        r = 0
        for v in vectors:
            cand = basis + [tuple(v)]
            if rank(Matrix.from_rows(field, cand)) > r:
                basis = cand
                r += 1
        return Subspace(field, ambient_dim, basis)

    def canonical(self):
        if self._canon is None:
            if not self.basis:
                self._canon = []
            else:
                self._canon = rref(Matrix.from_rows(self.field, self.basis))[0]
        return self._canon

    def is_full(self):
        return self.dim == self.ambient_dim

    def contains(self, v) -> bool:
        if not any(v):
            return True
        if not self.basis:
            return False
        m = Matrix.from_rows(self.field, self.basis + [tuple(v)])
        return rank(m) == self.dim

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def equals(self, other: "Subspace") -> bool:
        return self.ambient_dim == other.ambient_dim and self.canonical() == other.canonical()

    def add(self, other: "Subspace") -> "Subspace":
        if not other.basis:
            return self
        if not self.basis:
            return other
        return Subspace.span(self.field, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.is_full():
            return other
        if other.is_full():
            return self
        if not self.basis or not other.basis:
            return Subspace.zero(self.field, self.ambient_dim)
        if self.contains_space(other):
            return other
        if other.contains_space(self):
            return self
        # columns (alpha | beta) with sum alpha_i u_i = sum beta_j v_j
        rows = []
        for t in range(self.ambient_dim):
            row = [self.basis[i][t] for i in range(len(self.basis))]
            row += [-other.basis[j][t] for j in range(len(other.basis))]
            rows.append(tuple(row))
        ker = kernel_vectors(Matrix.from_rows(self.field, rows)) if rows else []
        vecs = []
        for k in ker:
            v = [self.field.zero] * self.ambient_dim
            for i, u in enumerate(self.basis):
                if k[i]:
                    v = [a + k[i] * b for a, b in zip(v, u)]
            vecs.append(tuple(v))
        return Subspace.span(self.field, self.ambient_dim, vecs)

    def preimage(self, m: Matrix) -> "Subspace":
        """{v : m v in self}, for m mapping k^cols into this ambient space."""
        assert m.rows == self.ambient_dim
        if self.is_full():
            return Subspace.full(self.field, m.cols)
        # kernel of (v, beta) |-> m v - sum beta_j w_j, projected to v
        rows = []
        for t in range(self.ambient_dim):
            row = list(m.entries[t]) + [-w[t] for w in self.basis]
            rows.append(tuple(row))
        ker = kernel_vectors(Matrix.from_rows(self.field, rows))
        vecs = [k[:m.cols] for k in ker]
        return Subspace.span(self.field, m.cols, vecs)

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under m (ambient = columns of m)."""
        assert m.cols == self.ambient_dim
        return Subspace.span(self.field, m.rows, [m.apply(v) for v in self.basis])

    def coordinates(self, v):
        """Coefficients of v in this basis, or None if v is outside the span."""
        if not self.basis:
            return () if not any(v) else None
        cols = Matrix.from_rows(self.field, self.basis).transpose()
        return solve(cols, tuple(v))


def image_subspace(m: Matrix) -> Subspace:
    """Column space of m, with the pivot columns of m as basis."""
    _, piv_cols = echelon(m)
    basis = [m.column(j) for j in piv_cols]
    return Subspace(m.field, m.rows, basis)


def kernel_subspace(m: Matrix) -> Subspace:
    return Subspace(m.field, m.cols, kernel_vectors(m))


def complete_basis(base: Subspace, candidates) -> list:
    """Candidates (in order) that extend `base` to an independent family."""
    chosen = []
    cur = base.basis[:]
    r = len(cur)
    for v in candidates:
        trial = cur + [tuple(v)]
        if rank(Matrix.from_rows(base.field, trial)) > r:
            cur = trial
            r += 1
            chosen.append(tuple(v))
    return chosen


def quotient_dim(V: Subspace, W: Subspace):
    """dim V/W plus coset representatives; W must be contained in V."""
    for v in W.basis:
        if not V.contains(v):
            raise NotASubspace("W has a basis vector outside span(V)")
    reps = complete_basis(W, V.basis)
    assert len(reps) == V.dim - W.dim
    return V.dim - W.dim, reps
