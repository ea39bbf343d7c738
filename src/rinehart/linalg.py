"""Exact matrices and subspace calculus over Q or F_p.

One elimination engine serves both fields: `RowBasis`, an incremental reduced
row echelon basis written against the scalar operators.  Each inserted vector
is reduced by the rows at its pivots; if anything is left, its leftmost
nonzero column becomes a new pivot and is cleared from the other rows.  The
RREF, its pivot columns, the kernel vectors with a unit at each free column
and the solution of m x = b with free coordinates zero are all unique, which
fixes every basis and representative the engine reports.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def combination(field, rows, cols, terms) -> Matrix:
    """The rows x cols matrix sum of c * m over the (c, m) pairs of terms, in
    one pass over the nonzero entries; an empty sum is the zero matrix."""
    acc = [[field.zero] * cols for _ in range(rows)]
    for c, m in terms:
        if not c:
            continue
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"{m.rows}x{m.cols} term in a {rows}x{cols} combination")
        for out, row in zip(acc, m.entries):
            for j, x in enumerate(row):
                if x:
                    out[j] = out[j] + c * x
    return Matrix(field, rows, cols, tuple(tuple(r) for r in acc))


def add_block(rows, r0, c0, block: Matrix, sign=1):
    """rows[r0 + a][c0 + b] += sign * block[a][b] over the nonzero entries of
    block, where rows is a list of row lists being assembled and sign is +1 or -1."""
    for a, brow in enumerate(block.entries):
        row = rows[r0 + a]
        for b, v in enumerate(brow):
            if v:
                row[c0 + b] += v if sign == 1 else -v


def _sub_scaled(w: dict, f, row: dict):
    """w -= f * row on sparse rows {col: value}, dropping entries that cancel."""
    for j, x in row.items():
        if j in w:
            y = w[j] - f * x
            if y:
                w[j] = y
            else:
                del w[j]
        else:
            w[j] = -(f * x)


class RowBasis:
    """Incremental reduced row echelon basis of a span in k^n.

    `rows` maps each pivot column to a sparse row {col: value} that is 1 at its
    own pivot and 0 at every other pivot, so the rows in pivot order are the
    RREF of the span and every pivot is the leftmost nonzero of its row.
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = {}

    def copy(self) -> "RowBasis":
        out = RowBasis(self.field, self.n)
        out.rows = {c: dict(row) for c, row in self.rows.items()}
        return out

    def pivots(self) -> list:
        return sorted(self.rows)

    def dense(self, c) -> Vector:
        row, z = self.rows[c], self.field.zero
        return tuple(row.get(j, z) for j in range(self.n))

    def reduce(self, v) -> dict:
        """Nonzero entries of v minus its part in the span: empty iff v lies in it."""
        w = {j: x for j, x in enumerate(v) if x}
        for c in [c for c in w if c in self.rows]:
            _sub_scaled(w, w[c], self.rows[c])
        return w

    def add(self, v) -> bool:
        """Insert v; False, with nothing changed, when v is already in the span."""
        w = self.reduce(v)
        if not w:
            return False
        c = min(w)
        inv = self.field.one / w[c]
        new = {j: x * inv for j, x in w.items()}
        for row in self.rows.values():
            if c in row:
                _sub_scaled(row, row[c], new)
        self.rows[c] = new
        return True


def echelon(m: Matrix) -> RowBasis:
    """Reduced row echelon basis of the row space of m."""
    basis = RowBasis(m.field, m.cols)
    for row in m.entries:
        basis.add(row)
    return basis


def rref(m: Matrix):
    """Reduced row echelon form: unique, used as the canonical basis of a span."""
    basis = echelon(m)
    pivots = basis.pivots()
    return [basis.dense(c) for c in pivots], pivots


def rank(m: Matrix) -> int:
    """Rank over the matrix field, by exact elimination."""
    return len(echelon(m).rows)


def kernel_vectors(m: Matrix):
    """Basis of the null space {v : m v = 0}: for each free column j, the unit
    vector at j with -row[j] at the pivot of each echelon row."""
    basis = echelon(m)
    z, o = m.field.zero, m.field.one
    free = {j: [o if i == j else z for i in range(m.cols)]
            for j in range(m.cols) if j not in basis.rows}
    for c, row in basis.rows.items():
        for j, x in row.items():
            if j != c:
                free[j][c] = -x
    return [tuple(free[j]) for j in sorted(free)]


def solve(m: Matrix, b: Vector):
    """One solution of m x = b with free coordinates set to zero, or None."""
    aug = echelon(Matrix.from_rows(m.field, [row + (bv,) for row, bv in zip(m.entries, b)]))
    if m.cols in aug.rows:
        return None
    x = [m.field.zero] * m.cols
    for c, row in aug.rows.items():
        x[c] = row.get(m.cols, m.field.zero)
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
    its reduced echelon form, built once with it, answers membership, and
    `canonical()` reads it as the unique RREF basis used for equality.
    """

    def __init__(self, field, ambient_dim, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = []
        self._rows = RowBasis(field, ambient_dim)
        for v in basis:
            if not self._keep(v):
                raise ValueError("basis vectors are linearly dependent")

    def _keep(self, v) -> bool:
        """Append v to the basis if it is independent of it; False otherwise."""
        v = tuple(v)
        if len(v) != self.ambient_dim:
            raise ValueError("basis vector of wrong length")
        if not self._rows.add(v):
            return False
        self.basis.append(v)
        return True

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
        out = Subspace(field, ambient_dim, [])
        for v in vectors:
            out._keep(v)
        return out

    def canonical(self):
        return [self._rows.dense(c) for c in self._rows.pivots()]

    def is_full(self):
        return self.dim == self.ambient_dim

    def contains(self, v) -> bool:
        return not self._rows.reduce(v)

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
    basis = [m.column(j) for j in echelon(m).pivots()]
    return Subspace(m.field, m.rows, basis)


def kernel_subspace(m: Matrix) -> Subspace:
    return Subspace(m.field, m.cols, kernel_vectors(m))


def complete_basis(base: Subspace, candidates) -> list:
    """Candidates (in order) that extend `base` to an independent family."""
    rows = base._rows.copy()
    return [tuple(v) for v in candidates if rows.add(v)]


def quotient_dim(V: Subspace, W: Subspace):
    """dim V/W plus coset representatives; W must be contained in V."""
    for v in W.basis:
        if not V.contains(v):
            raise NotASubspace("W has a basis vector outside span(V)")
    reps = complete_basis(W, V.basis)
    assert len(reps) == V.dim - W.dim
    return V.dim - W.dim, reps
