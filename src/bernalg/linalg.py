"""Exact linear algebra over an exact field, on integer rows: canonically
represented subspaces, fraction-free echelon forms, kernels and
row-combination systems.  `Matrix`, a dense matrix of field scalars, is
kept for callers of the package; no other module builds one.

A subspace is stored by the unique RREF basis of its row space, each row
scaled to a primitive integer row with a positive pivot (over GF(p):
residues with pivot 1), so equality of subspaces is equality of integer
tuples and chain-stabilisation tests need no tolerances; `Subspace.rows` is
the rational view.  Elimination is fraction-free: row r is cleared by the
pivot row p as a*r - b*p, and the field's `reduce` keeps the coefficients
small, so QQ and GF(p) share one path.  Scalars are coerced only at the
public constructors.  Everything is immutable; all operations are pure.

A coordinate subspace, the span of some unit vectors, needs none of this:
it is one int, the bitset of its pivot columns, built from the supports of
rows that each have at most one nonzero entry.  Its pivots and unit rows
are derived from the bitset on first read, and equality, hashing,
containment and sums between two of them are int operations.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, lcm

from .fields import QQ


def _eliminate(r, p, col, reduce) -> list:
    """Row r with column col cleared by the pivot row p: a*r - b*p reduced,
    where a/b = p[col]/r[col] in lowest terms."""
    a, b = p[col], r[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    return reduce([a * x - b * y for x, y in zip(r, p)])


def _echelon(pending, cols, field):
    """Fraction-free Gauss-Jordan on a list of reduced integer rows, which
    it consumes, pivoting in the first `cols` columns: (pivot rows, pivot
    columns, other rows).  Each pivot row is the field's canonical multiple
    (`normalize`) of an RREF row, zero in every other pivot column; the
    other rows vanish in the first `cols`."""
    reduce = field.reduce
    done, pivots = [], []
    for col in range(cols):
        for i, r in enumerate(pending):
            if r[col]:
                break
        else:
            continue
        p = field.normalize(pending.pop(i), col)
        for block in (done, pending):
            for i, r in enumerate(block):
                if r[col]:
                    block[i] = _eliminate(r, p, col, reduce)
        done.append(p)
        pivots.append(col)
    return done, pivots, pending


def _single_entries(rows, n: int) -> bool:
    """Whether each of the rows, of length n, has at most one nonzero entry.
    A loop, as it runs for every subspace built and mostly stops at its
    first row."""
    for r in rows:
        if r.count(0) < n - 1:
            return False
    return True


def _support(x) -> int:
    """The bitset of the nonzero entries of x."""
    return sum(map((1).__lshift__, compress(count(), x)))


def _cleared(vector, n: int, field) -> tuple:
    """(x, d): the integer vector x = d * vector, its entries coerced first."""
    v = [field.of(x) for x in vector]
    if len(v) != n:
        raise ValueError("vector length does not match the ambient dimension")
    return field.clear(v)


def combine_rows(coeffs, rows) -> list:
    """sum(c_i * rows_i) for rows of equal length; there must be a row."""
    v = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            v = [a + c * b for a, b in zip(v, row)]
    return v


class Matrix:
    """Immutable dense matrix with row-major entries over an exact field."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries: tuple, field=QQ):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the matrix shape")
        for name, value in zip(self.__slots__, (rows, cols, entries, field)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.entries, self.field)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Matrix(rows={self.rows!r}, cols={self.cols!r}, "
                f"entries={self.entries!r}, field={self.field!r})")

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
                    if a:
                        acc = acc + a * other.at(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out), self.field)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def rref(self) -> "Matrix":
        s = Subspace(self.row_list(), self.cols, self.field)
        zeros = [[self.field.zero] * self.cols] * (self.rows - s.dim)
        return Matrix.from_rows(list(s.rows) + zeros, self.cols, self.field)

    def rank(self) -> int:
        return Subspace(self.row_list(), self.cols, self.field).dim

    def kernel(self) -> "Subspace":
        """Right kernel {x : M x = 0} as a canonical subspace of K^cols."""
        return Subspace(self.row_list(), self.cols, self.field).null_space()

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


class Subspace:
    """A linear subspace of K^n held by its unique RREF basis (no zero rows).

    `int_rows` holds each RREF row scaled to a primitive integer row with a
    positive pivot (over GF(p): residues with pivot 1); `rows` is the RREF
    as field scalars, built on first read.  The form is canonical, so `==`
    decides subspace equality and the objects are hashable.  A coordinate
    subspace (every RREF row the unit vector at its pivot) is held by the
    bitset of its pivots, from which `pivots` and `int_rows` are made on
    first read; `==`, `hash`, `contains_int`, `leq` and `plus` read the
    bitset alone.
    """

    __slots__ = ("ambient_dim", "field", "_bits", "_int_rows", "_pivots", "_rows", "_hash")

    def __init__(self, vectors, ambient_dim: int, field=QQ):
        self._set([_cleared(v, ambient_dim, field)[0] for v in vectors], ambient_dim, field)

    @classmethod
    def of_int_rows(cls, rows, ambient_dim: int, field=QQ) -> "Subspace":
        """The span of integer rows (over GF(p): of their residues), unchecked."""
        s = object.__new__(cls)
        s._set(rows, ambient_dim, field)
        return s

    @classmethod
    def _of_rref(cls, int_rows, pivots, ambient_dim: int, field) -> "Subspace":
        """The subspace whose canonical integer RREF rows (the form of
        `int_rows`) and pivots are given, unchecked: no elimination runs."""
        s = object.__new__(cls)
        s._set_rref(int_rows, pivots, ambient_dim, field)
        return s

    @classmethod
    def _coordinate(cls, bits: int, ambient_dim: int, field) -> "Subspace":
        """The span of the unit vectors at the set bits of `bits`."""
        s = object.__new__(cls)
        s._fill(ambient_dim, field, bits, None, None)
        return s

    def _set(self, int_rows, ambient_dim, field):
        reduce = field.reduce
        rows = [reduce(r) for r in int_rows]
        if _single_entries(rows, ambient_dim):
            # each row is zero or a multiple of a unit vector: the span is
            # that of the unit vectors at the columns where some row is nonzero
            self._fill(ambient_dim, field, _support(map(any, zip(*rows))), None, None)
            return
        rows, pivots, _ = _echelon(rows, ambient_dim, field)
        self._set_rref(rows, pivots, ambient_dim, field)

    def _set_rref(self, int_rows, pivots, ambient_dim, field):
        """The subspace of canonical integer RREF rows with their pivots."""
        rows = tuple(map(tuple, int_rows))
        # a row with a single nonzero entry is normalized to a unit row
        bits = sum(map((1).__lshift__, pivots)) if _single_entries(rows, ambient_dim) else None
        self._fill(ambient_dim, field, bits, rows, tuple(pivots))

    def _fill(self, ambient_dim, field, bits, int_rows, pivots):
        # a coordinate subspace's rows and pivots, the rational view and the
        # hash are built on first use
        for name, value in zip(self.__slots__, (ambient_dim, field, bits, int_rows, pivots,
                                                None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def zero(ambient_dim: int, field=QQ) -> "Subspace":
        return Subspace._coordinate(0, ambient_dim, field)

    @staticmethod
    def full(ambient_dim: int, field=QQ) -> "Subspace":
        return Subspace._coordinate((1 << ambient_dim) - 1, ambient_dim, field)

    @property
    def int_rows(self) -> tuple:
        """The canonical integer RREF rows."""
        if self._int_rows is None:
            n = self.ambient_dim
            object.__setattr__(self, "_int_rows", tuple((0,) * p + (1,) + (0,) * (n - p - 1)
                                                        for p in self.pivots))
        return self._int_rows

    @property
    def pivots(self) -> tuple:
        """The pivot column of each RREF row: a coordinate subspace's set bits."""
        if self._pivots is None:
            bits = map(int, bin(self._bits)[:1:-1])
            object.__setattr__(self, "_pivots", tuple(compress(count(), bits)))
        return self._pivots

    @property
    def rows(self) -> tuple:
        """The RREF basis rows as field scalars, pivots 1."""
        if self._rows is None:
            back, zero = self.field.back, self.field.zero
            object.__setattr__(self, "_rows", tuple(
                tuple(back(x, r[p]) if x else zero for x in r)
                for r, p in zip(self.int_rows, self.pivots)))
        return self._rows

    @property
    def dim(self) -> int:
        return len(self._int_rows) if self._bits is None else self._bits.bit_count()

    def is_zero(self) -> bool:
        return not self.dim

    def is_coordinate(self) -> bool:
        """Whether the subspace is spanned by unit vectors."""
        return self._bits is not None

    def coords_of(self, vector):
        """Coefficients of `vector` over the RREF basis, or None if outside:
        its entries in the pivot columns, as an RREF row is 0 at the others'."""
        x, d = _cleared(vector, self.ambient_dim, self.field)
        if not self.contains_int(x):
            return None
        return tuple(self.field.back(x[p], d) for p in self.pivots)

    def contains(self, vector) -> bool:
        return self.coords_of(vector) is not None

    def contains_int(self, x) -> bool:
        """Whether the integer vector x (over GF(p): its residues) lies in
        the subspace."""
        reduce = self.field.reduce
        x = reduce(x)
        if self._bits is not None:
            return not _support(x) & ~self._bits
        for r, p in zip(self.int_rows, self.pivots):
            if x[p]:
                x = _eliminate(x, r, p, reduce)
        return not any(x)

    def leq(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self._bits is not None and other._bits is not None:
            return not self._bits & ~other._bits
        return self.dim <= other.dim and all(map(other.contains_int, self.int_rows))

    def plus(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self._bits is not None and other._bits is not None:
            bits = self._bits | other._bits
            if bits == other._bits:
                return other
            if bits == self._bits:
                return self
            return Subspace._coordinate(bits, self.ambient_dim, self.field)
        return Subspace.of_int_rows(self.int_rows + other.int_rows,
                                    self.ambient_dim, self.field)

    def _common_pivot_rows(self) -> tuple:
        """(rows, L): the RREF rows times L, the lcm of the integer pivots."""
        scale = lcm(*(r[p] for r, p in zip(self.int_rows, self.pivots)))
        return [[scale // r[p] * x for x in r] for r, p in zip(self.int_rows, self.pivots)], scale

    def null_space(self) -> "Subspace":
        """{x : r . x = 0 for every row r}, the right kernel of the basis."""
        rows, scale = self._common_pivot_rows()
        basis = []
        for f in set(range(self.ambient_dim)).difference(self.pivots):
            v = [0] * self.ambient_dim
            v[f] = scale
            for r, p in zip(rows, self.pivots):
                v[p] = -r[f]
            basis.append(v)
        return Subspace.of_int_rows(basis, self.ambient_dim, self.field)

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection: the null space of the sum of the two null spaces."""
        self._check_ambient(other)
        return self.null_space().plus(other.null_space()).null_space()

    def span_of_coords(self, coords: "Subspace") -> "Subspace":
        """The subspace whose coordinates over this RREF basis span `coords`."""
        rows, _ = self._common_pivot_rows()
        return Subspace.of_int_rows([combine_rows(c, rows) for c in coords.int_rows],
                                    self.ambient_dim, self.field)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise ValueError("ambient dimension (or field) mismatch")

    # Equal subspaces are both coordinate ones or neither, and the bitset
    # decides between coordinate ones, so those compare and hash by it.
    def __eq__(self, other):
        if self is other:
            return True
        if not (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.field == other.field):
            return False
        if self._bits is None:
            return other._bits is None and self._int_rows == other._int_rows
        return self._bits == other._bits

    def __hash__(self):
        if self._hash is None:
            key = self._int_rows if self._bits is None else self._bits
            object.__setattr__(self, "_hash", hash((self.ambient_dim, key)))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def solve_row_combinations(rows, targets, ambient_dim: int, field=QQ) -> list:
    """For each target, coefficients c with sum(c_i * rows_i) == target, or
    None when the target is outside the span of the rows.

    The rows need not be in echelon form.  One elimination on the
    transposed system, with every target as a right-hand side, serves them
    all; free coefficients are set to zero.
    """
    k = len(rows)
    zero, back = field.zero, field.back
    aug = [field.reduce(field.clear([field.of(r[t]) for r in rows]
                                    + [field.of(v[t]) for v in targets])[0])
           for t in range(ambient_dim)]
    reduced, pivots, rest = _echelon(aug, k, field)
    out = []
    for q in range(k, k + len(targets)):
        coeffs = [zero] * k
        for row, p in zip(reduced, pivots):
            coeffs[p] = back(row[q], row[p])
        # a nonzero right-hand side in a row without pivot: inconsistent
        out.append(None if any(row[q] for row in rest) else tuple(coeffs))
    return out
