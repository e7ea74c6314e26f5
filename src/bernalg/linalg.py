"""Exact linear algebra over an exact field: matrices, reduced row-echelon
forms, kernels, and canonically represented subspaces.

A subspace is always stored by the unique reduced row-echelon basis of its
row space, so equality of subspaces is plain equality of representations
and chain-stabilisation tests need no tolerances.  Everything is immutable
after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ


def _rref_rows(rows, cols, field):
    """Gauss-Jordan over the given field; returns (reduced rows, pivot cols).

    The reduction is full (pivots are 1, cleared above and below), so the
    output rows are the unique RREF of the input row space, zero rows last.
    """
    m = [list(r) for r in rows]
    zero = field.zero
    piv_r = 0
    pivots = []
    for col in range(cols):
        pick = None
        for r in range(piv_r, len(m)):
            if m[r][col] != zero:
                pick = r
                break
        if pick is None:
            continue
        m[piv_r], m[pick] = m[pick], m[piv_r]
        inv = m[piv_r][col]
        if inv != field.one:
            m[piv_r] = [x / inv for x in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][col] != zero:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    reduced = [tuple(r) for r in m]
    # move zero rows to the bottom, preserving the order of nonzero rows
    nonzero = [r for r in reduced if any(x != zero for x in r)]
    n_zero = len(reduced) - len(nonzero)
    width = len(reduced[0]) if reduced else cols
    reduced = nonzero + [tuple([zero] * width)] * n_zero
    return reduced, tuple(pivots)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major entries over an exact field."""

    rows: int
    cols: int
    entries: tuple
    field: object = QQ

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the matrix shape")

    @staticmethod
    def from_rows(rows, cols=None, field=QQ) -> "Matrix":
        rows = [tuple(field.of(x) for x in r) for r in rows]
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            cols = widths.pop()
        elif cols is None:
            raise ValueError("column count required for an empty matrix")
        flat = tuple(x for r in rows for x in r)
        return Matrix(len(rows), cols, flat, field)

    @staticmethod
    def identity(n: int, field=QQ) -> "Matrix":
        zero, one = field.zero, field.one
        return Matrix(n, n, tuple(one if i == j else zero
                                  for i in range(n) for j in range(n)), field)

    @staticmethod
    def zeros(rows: int, cols: int, field=QQ) -> "Matrix":
        return Matrix(rows, cols, tuple([field.zero] * (rows * cols)), field)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[tuple]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j)
                            for j in range(self.cols) for i in range(self.rows)),
                      self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.field.zero
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = ri[k]
                    if a != zero:
                        acc = acc + a * other.at(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out), self.field)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix difference")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)),
                      self.field)

    def scaled(self, c) -> "Matrix":
        c = self.field.of(c)
        return Matrix(self.rows, self.cols,
                      tuple(c * x for x in self.entries), self.field)

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for x in self.entries)

    def rref(self) -> "Matrix":
        reduced, _ = _rref_rows(self.row_list(), self.cols, self.field)
        return Matrix.from_rows(reduced, self.cols, self.field)

    def rank(self) -> int:
        _, pivots = _rref_rows(self.row_list(), self.cols, self.field)
        return len(pivots)

    def kernel(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a canonical subspace of K^cols."""
        reduced, pivots = _rref_rows(self.row_list(), self.cols, self.field)
        zero, one = self.field.zero, self.field.one
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [zero] * self.cols
            v[f] = one
            for r, p in enumerate(pivots):
                v[p] = -reduced[r][f]
            basis.append(v)
        return Subspace(basis, self.cols, self.field)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def eigenspace(m: Matrix, lam) -> "Subspace":
    """Kernel of (m - lam * id); m must be square."""
    if m.rows != m.cols:
        raise ValueError("eigenspace needs a square matrix")
    return (m - Matrix.identity(m.rows, m.field).scaled(lam)).kernel()


class Subspace:
    """A linear subspace of K^n held by its unique RREF basis (no zero rows).

    Because the representation is canonical, `==` decides subspace equality
    and the objects are hashable.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "field")

    def __init__(self, vectors, ambient_dim: int, field=QQ):
        vs = []
        for v in vectors:
            v = tuple(field.of(x) for x in v)
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match the ambient dimension")
            vs.append(v)
        if vs:
            reduced, pivots = _rref_rows(vs, ambient_dim, field)
            zero = field.zero
            reduced = [r for r in reduced if any(x != zero for x in r)]
        else:
            reduced, pivots = [], ()
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", tuple(reduced))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def zero(ambient_dim: int, field=QQ) -> "Subspace":
        return Subspace([], ambient_dim, field)

    @staticmethod
    def full(ambient_dim: int, field=QQ) -> "Subspace":
        return Subspace(Matrix.identity(ambient_dim, field).row_list(),
                        ambient_dim, field)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        return Matrix.from_rows(list(self.rows), self.ambient_dim, self.field)

    def is_zero(self) -> bool:
        return not self.rows

    def coords_of(self, vector):
        """Coefficients of `vector` over the RREF basis, or None if outside."""
        v = [self.field.of(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match the ambient dimension")
        zero = self.field.zero
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c != zero:
                v = [a - c * b for a, b in zip(v, row)]
        if any(x != zero for x in v):
            return None
        return tuple(coeffs)

    def contains(self, vector) -> bool:
        return self.coords_of(vector) is not None

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(r) for r in self.rows)

    def plus(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(list(self.rows) + list(other.rows),
                        self.ambient_dim, self.field)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, via the kernel of the stacked combination system."""
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim, self.field)
        k1, k2 = self.dim, other.dim
        entries = []
        for t in range(self.ambient_dim):
            entries.extend(self.rows[i][t] for i in range(k1))
            entries.extend(-other.rows[j][t] for j in range(k2))
        system = Matrix(self.ambient_dim, k1 + k2, tuple(entries), self.field)
        return Subspace([combine_rows(c[:k1], self.rows, self.field)
                         for c in system.kernel().rows], self.ambient_dim, self.field)

    def span_of_coords(self, coords: "Subspace") -> "Subspace":
        """The subspace whose coordinates over this RREF basis span `coords`."""
        return Subspace([combine_rows(c, self.rows, self.field) for c in coords.rows],
                        self.ambient_dim, self.field)

    __or__ = plus
    __and__ = meet

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise ValueError("ambient dimension (or field) mismatch")

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def combine_rows(coeffs, rows, field=QQ) -> list:
    """sum(c_i * rows_i) for rows of equal length; there must be a row."""
    zero = field.zero
    v = [zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c != zero:
            v = [a + c * b for a, b in zip(v, row)]
    return v


def solve_row_combination(rows, target, ambient_dim: int, field=QQ):
    """Coefficients c with sum(c_i * rows_i) == target, or None."""
    return solve_row_combinations(rows, [target], ambient_dim, field)[0]


def solve_row_combinations(rows, targets, ambient_dim: int, field=QQ) -> list:
    """For each target, coefficients c with sum(c_i * rows_i) == target, or
    None when the target is outside the span of the rows.

    The rows need not be in echelon form.  One elimination on the
    transposed system, with every target as a right-hand side, serves them
    all; free coefficients are set to zero.
    """
    k = len(rows)
    zero = field.zero
    aug = [[field.of(r[t]) for r in rows] + [field.of(v[t]) for v in targets]
           for t in range(ambient_dim)]
    reduced, pivots = _rref_rows(aug, k, field)
    out = []
    for q in range(k, k + len(targets)):
        if any(row[q] != zero for row in reduced[len(pivots):]):
            out.append(None)  # inconsistent system
            continue
        coeffs = [zero] * k
        for r, p in enumerate(pivots):
            coeffs[p] = reduced[r][q]
        out.append(tuple(coeffs))
    return out
