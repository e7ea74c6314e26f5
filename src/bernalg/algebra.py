"""Commutative algebras presented by structure constants.

The multiplication table stores one coordinate vector per unordered basis
pair (i, j) with i <= j; unspecified pairs multiply to zero, so
commutativity is structural.  On top of the bilinear product the module
provides subspace products, the three power chains (full, principal,
plenary), subalgebra and ideal closures, and nilpotency reporting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import QQ
from .linalg import Matrix, Subspace, solve_row_combinations

FULL = "full"
PRINCIPAL = "principal"
PLENARY = "plenary"
CHAIN_KINDS = (FULL, PRINCIPAL, PLENARY)

# Unbounded full chains get a hard safety cap; exceeding it means the input
# violated the subalgebra contract badly enough to defeat plateau detection.
_HARD_CAP = 10_000


class ChainCapError(RuntimeError):
    """An unbounded full power chain reached the hard cap without stabilizing."""


class CommAlgebra:
    """Finite-dimensional commutative algebra over an exact field."""

    def __init__(self, basis_names, products, field=QQ):
        names = tuple(str(n) for n in basis_names)
        if not names:
            raise ValueError("an algebra needs at least one basis vector")
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        self.basis_names = names
        self.dim = len(names)
        self.field = field
        table = {}
        for (i, j), coords in products.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"basis index out of range in product ({i},{j})")
            key = (i, j) if i <= j else (j, i)
            coords = tuple(field.of(x) for x in coords)
            if len(coords) != self.dim:
                raise ValueError(f"product vector for {key} has wrong length")
            if key in table and table[key] != coords:
                raise ValueError(f"conflicting products for basis pair {key}")
            table[key] = coords
        zero = field.zero
        # all-zero rows are dropped: unspecified pairs multiply to zero anyway
        self._table = {key: coords for key, coords in table.items()
                       if any(c != zero for c in coords)}
        self._sparse = {
            key: tuple((k, c) for k, c in enumerate(coords) if c != zero)
            for key, coords in self._table.items()
        }

    @classmethod
    def from_table(cls, basis_names, named_products, field=QQ):
        """Build from a {(name, name): {name: coeff}} table."""
        names = list(basis_names)
        index = {n: i for i, n in enumerate(names)}
        zero = field.zero
        products = {}
        for (na, nb), combo in named_products.items():
            coords = [zero] * len(names)
            for nc, coeff in combo.items():
                coords[index[nc]] = field.of(coeff)
            products[(index[na], index[nb])] = tuple(coords)
        return cls(names, products, field)

    # -- elements ---------------------------------------------------------

    def element(self, coords) -> "Element":
        coords = tuple(self.field.of(x) for x in coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length does not match the dimension")
        return Element(self, coords)

    def zero_element(self) -> "Element":
        return Element(self, tuple([self.field.zero] * self.dim))

    def basis_element(self, i: int) -> "Element":
        zero, one = self.field.zero, self.field.one
        return Element(self, tuple(one if k == i else zero for k in range(self.dim)))

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"unknown basis name {name!r}") from None

    def table_row(self, i: int, j: int):
        """Sparse product of basis vectors i and j: ((k, coeff), ...) or None."""
        return self._sparse.get((i, j) if i <= j else (j, i))

    def mul_coords(self, x, y) -> tuple:
        zero = self.field.zero
        acc = [zero] * self.dim
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            for j, yj in enumerate(y):
                if yj == zero:
                    continue
                row = self.table_row(i, j)
                if not row:
                    continue
                c = xi * yj
                for k, coeff in row:
                    acc[k] = acc[k] + c * coeff
        return tuple(acc)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        return Element(self, self.mul_coords(x.coords, y.coords))

    # -- operators and subspaces ------------------------------------------

    def left_mult_matrix(self, x: "Element", restrict_to: Subspace | None = None) -> Matrix:
        """Matrix of multiplication by x, acting on coordinate columns.

        With `restrict_to` the matrix is expressed in that subspace's RREF
        basis; the subspace must be invariant under multiplication by x.
        """
        if restrict_to is None:
            cols = [self.mul_coords(x.coords, self.basis_element(j).coords)
                    for j in range(self.dim)]
            entries = tuple(cols[j][i] for i in range(self.dim) for j in range(self.dim))
            return Matrix(self.dim, self.dim, entries, self.field)
        k = restrict_to.dim
        cols = []
        for row in restrict_to.rows:
            image = self.mul_coords(x.coords, row)
            coords = restrict_to.coords_of(image)
            if coords is None:
                raise ValueError("restriction subspace is not invariant under this multiplication")
            cols.append(coords)
        entries = tuple(cols[j][i] for i in range(k) for j in range(k))
        return Matrix(k, k, entries, self.field)

    def subspace_product(self, s1: Subspace, s2: Subspace) -> Subspace:
        """Span of all products of basis vectors of s1 with basis vectors of s2."""
        if s1.ambient_dim != self.dim or s2.ambient_dim != self.dim:
            raise ValueError("subspace ambient dimension does not match the algebra")
        if s1.is_zero() or s2.is_zero():
            return Subspace.zero(self.dim, self.field)
        prods = [self.mul_coords(u, v) for u in s1.rows for v in s2.rows]
        return Subspace(prods, self.dim, self.field)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.field)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim, self.field)

    def span_of(self, elements) -> Subspace:
        return Subspace([e.coords for e in elements], self.dim, self.field)

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


@dataclass(frozen=True)
class Element:
    """An algebra element held by its coordinate vector."""

    algebra: CommAlgebra
    coords: tuple

    def _check(self, other: "Element"):
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        c = self.algebra.field.of(other)
        return Element(self.algebra, tuple(c * a for a in self.coords))

    def __rmul__(self, other):
        return self.__mul__(other)

    def is_zero(self) -> bool:
        zero = self.algebra.field.zero
        return all(a == zero for a in self.coords)

    def __str__(self):
        zero = self.algebra.field.zero
        parts = [f"{c}*{n}" for c, n in zip(self.coords, self.algebra.basis_names)
                 if c != zero]
        return " + ".join(parts) if parts else "0"


def weight_of(weight, x: Element):
    """Value at x of the linear functional with the given basis values."""
    zero = x.algebra.field.zero
    acc = zero
    for w, c in zip(weight, x.coords):
        if w != zero and c != zero:
            acc = acc + w * c
    return acc


def subspace_product(a: CommAlgebra, s1: Subspace, s2: Subspace) -> Subspace:
    return a.subspace_product(s1, s2)


@dataclass(frozen=True)
class PowerChain:
    """One computed power chain; terms[0] is the starting subspace itself.

    nil_index is the 1-based position of the first zero term, so for the
    full and principal chains it equals the usual nilpotency index (power
    nil_index of the subspace vanishes).  stabilized means the chain's tail
    is known: either a zero term was reached or the remaining terms provably
    repeat the last stored one forever.
    """

    kind: str
    terms: tuple
    stabilized: bool
    nil_index: int | None


class _ProductCache:
    """Memoises symmetric subspace products inside one chain computation."""

    def __init__(self, algebra: CommAlgebra):
        self.algebra = algebra
        self.cache = {}

    def product(self, s1: Subspace, s2: Subspace) -> Subspace:
        k1, k2 = s1.rows, s2.rows
        key = (k1, k2) if k1 <= k2 else (k2, k1)
        hit = self.cache.get(key)
        if hit is None:
            hit = self.algebra.subspace_product(s1, s2)
            self.cache[key] = hit
        return hit


def _full_chain(a: CommAlgebra, s: Subspace, max_steps: int | None):
    """Full powers S^i = sum over r+s=i of S^r * S^s, computed by DP.

    Consecutive equal terms do not end a full chain: a plateau of value T
    starting at position p is only permanent once it has held through
    position 2p, because from then on the recurrence reproduces the constant
    value sum(S^r * T, r < p) + T * T at every later position.  Stopping on
    a single repeat would truncate chains that drop after a plateau.
    """
    cache = _ProductCache(a)
    terms = [s]
    if s.is_zero():
        return terms, True, 1
    plateau = 0  # 0-based index where the current run of equal terms starts
    while True:
        pos = len(terms)  # about to compute the (pos+1)-th power
        if max_steps is not None and pos >= max_steps:
            return terms, False, None
        if max_steps is None and pos >= _HARD_CAP:
            raise ChainCapError("full power chain did not stabilize within the "
                                "safety cap; pass max_steps to truncate")
        new = Subspace.zero(a.dim, a.field)
        i = pos + 1
        for r in range(1, i // 2 + 1):
            new = new.plus(cache.product(terms[r - 1], terms[i - r - 1]))
        terms.append(new)
        if new.is_zero():
            return terms, True, len(terms)
        if new != terms[-2]:
            plateau = len(terms) - 1
        if len(terms) >= 2 * (plateau + 1):
            return terms, True, None


def _first_order_chain(a: CommAlgebra, s: Subspace, kind: str, max_steps: int | None):
    """Principal (T -> T*S) and plenary (T -> T*T) chains.

    Both recurrences depend only on the previous term, so one repeat proves
    stabilization.
    """
    if max_steps is None:
        max_steps = a.dim + 2
    terms = [s]
    while True:
        if terms[-1].is_zero():
            return terms, True, len(terms)
        if len(terms) >= max_steps:
            return terms, False, None
        prev = terms[-1]
        new = a.subspace_product(prev, s if kind == PRINCIPAL else prev)
        if new == prev:
            return terms, True, None
        terms.append(new)


def power_chain(a: CommAlgebra, s: Subspace, kind: str, max_steps: int | None = None) -> PowerChain:
    """Compute a power chain of the subspace s until it vanishes, provably
    stabilizes, or hits max_steps (reported via stabilized=False)."""
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if kind == FULL:
        terms, stable, nil = _full_chain(a, s, max_steps)
    else:
        terms, stable, nil = _first_order_chain(a, s, kind, max_steps)
    return PowerChain(kind, tuple(terms), stable, nil)


def generated_subalgebra(a: CommAlgebra, gens) -> Subspace:
    """Smallest subspace containing gens and closed under the product."""
    span = a.span_of(list(gens))
    while True:
        grown = span.plus(a.subspace_product(span, span))
        if grown == span:
            return span
        span = grown


def generated_ideal(a: CommAlgebra, gens) -> Subspace:
    """Smallest subspace containing gens and closed under multiplication
    by the whole algebra."""
    span = a.span_of(list(gens))
    full = a.full_space()
    while True:
        grown = span.plus(a.subspace_product(full, span))
        if grown == span:
            return span
        span = grown


def is_ideal(a: CommAlgebra, s: Subspace) -> bool:
    return a.subspace_product(a.full_space(), s).leq(s)


@dataclass(frozen=True)
class NilpotencyReport:
    """Nil indices of the three chains; None when the chain does not vanish.

    nil_index_full / nil_index_principal follow the power numbering, so
    index k means the k-th power is the first zero one.  solv_index counts
    plenary powers starting from S*S, so solv_index k means the k-th
    plenary power vanishes; the zero subspace reports 1 everywhere.
    """

    nil_index_full: int | None
    nil_index_principal: int | None
    solv_index: int | None

    @staticmethod
    def of_chains(full: PowerChain, principal: PowerChain,
                  plenary: PowerChain) -> "NilpotencyReport":
        solv = None
        if plenary.nil_index is not None:
            solv = max(plenary.nil_index - 1, 1)
        return NilpotencyReport(full.nil_index, principal.nil_index, solv)


def nilpotency_report(a: CommAlgebra, s: Subspace, max_steps: int | None = None) -> NilpotencyReport:
    return NilpotencyReport.of_chains(*(power_chain(a, s, kind, max_steps)
                                        for kind in CHAIN_KINDS))


def plenary_power(a: CommAlgebra, s: Subspace, i: int) -> Subspace:
    """The i-th plenary power (i >= 1), the first one being S*S."""
    if i < 1:
        raise ValueError("plenary power index must be >= 1")
    t = s
    for _ in range(i):
        t = a.subspace_product(t, t)
    return t


def subalgebra_on(a: CommAlgebra, s: Subspace, names=None) -> CommAlgebra:
    """The algebra structure induced on a multiplicatively closed subspace,
    in the coordinates of its RREF basis."""
    if names is None:
        names = _subspace_names(a, s)
    products = induced_table(a, s.rows, s.rows)
    if products is None:
        raise ValueError("subspace is not closed under multiplication")
    return CommAlgebra(names, products, a.field)


def induced_table(a: CommAlgebra, rows, basis_rows) -> dict | None:
    """{(i, j): coordinates of rows[i] * rows[j] over basis_rows} for i <= j,
    the table the product induces on a basis; None when some product leaves
    the span of basis_rows."""
    pairs = list(itertools.combinations_with_replacement(range(len(rows)), 2))
    coords = solve_row_combinations(
        basis_rows, [a.mul_coords(rows[i], rows[j]) for i, j in pairs], a.dim, a.field)
    if any(c is None for c in coords):
        return None
    return dict(zip(pairs, coords))


def _subspace_names(a: CommAlgebra, s: Subspace):
    """Reuse parent basis names when the rows are standard basis vectors."""
    zero, one = a.field.zero, a.field.one
    names = []
    for row in s.rows:
        hot = [k for k, x in enumerate(row) if x != zero]
        if len(hot) == 1 and row[hot[0]] == one:
            names.append(a.basis_names[hot[0]])
        else:
            return [f"s{i + 1}" for i in range(s.dim)]
    return names
