"""Exact matrices and subspace calculus over Q or F_p.

One elimination engine serves both fields: `RowBasis`, an incremental reduced
row echelon basis written against the scalar operators.  Each inserted vector
is reduced by the rows at its pivots; if anything is left, its leftmost
nonzero column becomes a new pivot and is cleared from the other rows.  The
RREF, its pivot columns, the kernel vectors with a unit at each free column
and the solution of m x = b with free coordinates zero are all unique, which
fixes every basis and representative the engine reports.

A vector is sparse: the tuple of its nonzero (index, value) pairs in index
order, the same thing a `Matrix` row is.  No zero is ever stored, so equal
vectors are equal tuples.  Kernels, subspace bases, solutions, coordinates and
representatives all take this form, and every operation, the elimination
included, walks nonzeros alone; only reports and the `entries` view are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import Field


def dense_to_sparse(v) -> tuple:
    """The sparse vector of a dense one, for parsed structure constants."""
    return tuple((j, x) for j, x in enumerate(v) if x)


def dict_to_sparse(acc: dict) -> tuple:
    """The sparse vector of a {index: value} accumulator: zeros dropped, indices sorted."""
    return tuple(sorted((j, x) for j, x in acc.items() if x))


def sub_vector(v, start, stop) -> tuple:
    """The entries of v at start <= j < stop, shifted down by start."""
    return tuple((j - start, x) for j, x in v if start <= j < stop)


def _dense(pairs, n, z) -> tuple:
    out = [z] * n
    for j, x in pairs:
        out[j] = x
    return tuple(out)


@dataclass(frozen=True)
class Matrix:
    """A rows x cols matrix held as sparse rows: data[i] is the tuple of the
    nonzero (col, value) pairs of row i, in column order.  No zero is ever
    stored, so equal matrices have equal data and equal hashes.  Every
    operation walks nonzeros only; `entries` is a dense view for rendering."""
    field: Field
    rows: int
    cols: int
    data: tuple

    @staticmethod
    def from_rows(field, rows_list):
        """From dense rows of one length; zero entries are dropped."""
        rows_t = [tuple(r) for r in rows_list]
        ncols = len(rows_t[0]) if rows_t else 0
        if any(len(r) != ncols for r in rows_t):
            raise ValueError("ragged rows")
        return Matrix(field, len(rows_t), ncols, tuple(map(dense_to_sparse, rows_t)))

    @staticmethod
    def from_columns(field, rows, columns):
        """From sparse columns with every index < rows."""
        return Matrix(field, len(columns), rows, tuple(map(tuple, columns))).transpose()

    @staticmethod
    def from_dicts(field, cols, dict_rows):
        """From rows {col: value} with every col < cols; zero values are dropped."""
        return Matrix(field, len(dict_rows), cols, tuple(map(dict_to_sparse, dict_rows)))

    @staticmethod
    def zero(field, rows, cols):
        return Matrix(field, rows, cols, ((),) * rows)

    @staticmethod
    def identity(field, n):
        return Matrix(field, n, n, tuple(((i, field.one),) for i in range(n)))

    @property
    def entries(self) -> tuple:
        """Dense view, a tuple of row tuples."""
        z = self.field.zero
        return tuple(_dense(row, self.cols, z) for row in self.data)

    @cached_property
    def _columns(self) -> tuple:
        """The sparse columns, kept once the first is asked for."""
        return self.transpose().data

    def apply(self, v) -> tuple:
        """The sparse vector m v, walking only the columns at the nonzeros of v."""
        if v and v[-1][0] >= self.cols:
            raise ValueError(f"vector with an entry at {v[-1][0]} applied to a matrix "
                             f"with {self.cols} columns")
        cols = self._columns
        acc = {}
        for j, x in v:
            for i, a in cols[j]:
                acc[i] = acc[i] + a * x if i in acc else a * x
        return dict_to_sparse(acc)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.data
        out = []
        for row in self.data:
            acc = {}
            for k, a in row:
                for j, b in right[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(dict_to_sparse(acc))
        return Matrix(self.field, self.rows, other.cols, tuple(out))

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        out = []
        for r1, r2 in zip(self.data, other.data):
            acc = dict(r1)
            for j, x in r2:
                acc[j] = acc[j] - x if j in acc else -x
            out.append(dict_to_sparse(acc))
        return Matrix(self.field, self.rows, self.cols, tuple(out))

    def scale(self, c) -> "Matrix":
        if not c:
            return Matrix.zero(self.field, self.rows, self.cols)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple((j, c * x) for j, x in row) for row in self.data))

    def is_zero(self) -> bool:
        return not any(self.data)

    def column(self, j) -> tuple:
        return self._columns[j]

    def transpose(self) -> "Matrix":
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row:
                cols[j].append((i, x))
        return Matrix(self.field, self.cols, self.rows, tuple(map(tuple, cols)))


def combination(field, rows, cols, terms) -> Matrix:
    """The rows x cols matrix sum of c * m over the (c, m) pairs of terms, in
    one pass over the nonzero entries; an empty sum is the zero matrix."""
    acc = [{} for _ in range(rows)]
    for c, m in terms:
        if not c:
            continue
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError(f"{m.rows}x{m.cols} term in a {rows}x{cols} combination")
        for out, row in zip(acc, m.data):
            for j, x in row:
                out[j] = out[j] + c * x if j in out else c * x
    return Matrix.from_dicts(field, cols, acc)


def block_diagonal(block: Matrix, copies: int) -> Matrix:
    """copies of block down the diagonal."""
    return Matrix(block.field, copies * block.rows, copies * block.cols,
                  tuple(tuple((t * block.cols + j, x) for j, x in row)
                        for t in range(copies) for row in block.data))


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """The columns of a followed by those of b; both have the same rows."""
    return Matrix(a.field, a.rows, a.cols + b.cols,
                  tuple(r + tuple((a.cols + j, x) for j, x in s) for r, s in zip(a.data, b.data)))


def add_entry(row: dict, k, x):
    """row[k] += x on a row {col: value} being assembled, when x is nonzero."""
    if x:
        row[k] = row[k] + x if k in row else x


def add_block(rows, r0, c0, block: Matrix, sign=1):
    """rows[r0 + a][c0 + b] += sign * block[a][b] over the nonzero entries of
    block, where rows is a list of {col: value} rows being assembled (see
    Matrix.from_dicts) and sign is +1 or -1."""
    for a, brow in enumerate(block.data):
        row = rows[r0 + a]
        for b, v in brow:
            if sign != 1:
                v = -v
            k = c0 + b
            row[k] = row[k] + v if k in row else v


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

    def vector(self, c) -> tuple:
        """The row at pivot c as a sparse vector."""
        return tuple(sorted(self.rows[c].items()))

    def reduce(self, v) -> dict:
        """Nonzero entries of v minus its part in the span, for v given by its
        nonzero (col, value) pairs: empty iff v lies in the span."""
        w = dict(v)
        for c in [c for c in w if c in self.rows]:
            _sub_scaled(w, w[c], self.rows[c])
        return w

    def add(self, v) -> bool:
        """Insert v; False, with nothing changed, when v is already in the span."""
        w = self.reduce(v)
        if not w:
            return False
        c = min(w)
        if w[c] != self.field.one:
            inv = self.field.one / w[c]
            w = {j: x * inv for j, x in w.items()}
        for row in self.rows.values():
            if c in row:
                _sub_scaled(row, row[c], w)
        self.rows[c] = w
        return True

    def kernel(self) -> list:
        """Basis of the null space of a matrix whose rows span this basis: for
        each free column j, the unit vector at j with -row[j] at the pivot of
        each echelon row, read straight off the RREF rows (a pivot precedes
        every free column of its row)."""
        free = {j: [] for j in range(self.n) if j not in self.rows}
        for c in self.pivots():
            for j, x in self.rows[c].items():
                if j != c:
                    free[j].append((c, -x))
        unit = self.field.one
        return [tuple(pairs) + ((j, unit),) for j, pairs in free.items()]


def echelon(m: Matrix) -> RowBasis:
    """Reduced row echelon basis of the row space of m."""
    basis = RowBasis(m.field, m.cols)
    for row in m.data:
        basis.add(row)
    return basis


def rref(m: Matrix):
    """Reduced row echelon form: unique, used as the canonical basis of a span."""
    basis = echelon(m)
    pivots = basis.pivots()
    return [basis.vector(c) for c in pivots], pivots


def rank(m: Matrix) -> int:
    """Rank over the matrix field, by exact elimination."""
    return len(echelon(m).rows)


def kernel_vectors(m: Matrix):
    """Basis of the null space {v : m v = 0}, see RowBasis.kernel."""
    return echelon(m).kernel()


def solve(m: Matrix, b):
    """One solution of m x = b with free coordinates set to zero, or None."""
    aug = echelon(hstack(m, Matrix.from_columns(m.field, m.rows, [b])))
    if m.cols in aug.rows:
        return None
    return tuple((c, aug.rows[c][m.cols]) for c in aug.pivots() if m.cols in aug.rows[c])


class Subspace:
    """A subspace of k^ambient, held as an explicit independent basis of
    sparse vectors.

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
        if v and v[-1][0] >= self.ambient_dim:
            raise ValueError(f"basis vector with an entry at {v[-1][0]} in k^{self.ambient_dim}")
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
        return Subspace(field, ambient_dim, [((j, field.one),) for j in range(ambient_dim)])

    @staticmethod
    def span(field, ambient_dim, vectors):
        """Greedy independent subset of `vectors`, kept in their given order."""
        out = Subspace(field, ambient_dim, [])
        for v in vectors:
            out._keep(v)
        return out

    def canonical(self):
        return [self._rows.vector(c) for c in self._rows.pivots()]

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
        neg = [tuple((j, -x) for j, x in v) for v in other.basis]
        ker = kernel_vectors(Matrix.from_columns(self.field, self.ambient_dim, self.basis + neg))
        u = Matrix.from_columns(self.field, self.ambient_dim, self.basis)
        return Subspace.span(self.field, self.ambient_dim,
                             [u.apply(sub_vector(k, 0, self.dim)) for k in ker])

    def preimage(self, m: Matrix) -> "Subspace":
        """{v : m v in self}, for m mapping k^cols into this ambient space."""
        if m.rows != self.ambient_dim:
            raise ValueError(f"preimage under a {m.rows}x{m.cols} matrix of a subspace "
                             f"of k^{self.ambient_dim}")
        if self.is_full():
            return Subspace.full(self.field, m.cols)
        # kernel of (v, beta) |-> m v - sum beta_j w_j, projected to v
        neg = Matrix.from_columns(self.field, m.rows,
                                  [tuple((j, -x) for j, x in w) for w in self.basis])
        ker = kernel_vectors(hstack(m, neg))
        return Subspace.span(self.field, m.cols, [sub_vector(k, 0, m.cols) for k in ker])


def image_subspace(m: Matrix) -> Subspace:
    """Column space of m, with the pivot columns of m as basis."""
    cols = m.transpose().data
    return Subspace(m.field, m.rows, [cols[j] for j in echelon(m).pivots()])


def kernel_subspace(m: Matrix) -> Subspace:
    return Subspace(m.field, m.cols, kernel_vectors(m))


def complete_basis(base: Subspace, candidates) -> list:
    """Candidates (in order) that extend `base` to an independent family."""
    rows = base._rows.copy()
    return [v for v in candidates if rows.add(v)]

