"""Commutative algebras presented by structure constants.

The multiplication table stores one coordinate vector per unordered basis
pair (i, j) with i <= j; unspecified pairs multiply to zero, so
commutativity is structural.  On top of the bilinear product the module
provides memoised subspace products, the three power chains (full,
principal, plenary), subalgebra and ideal closures, and nilpotency
reporting.  Every first-order chain T -> step(T) goes through
`iterate_chain`.  `BaricAlgebra`, an algebra paired with a weight
functional, lives here beside `CommAlgebra`: building one from a file
needs no Bernstein machinery, which `bernstein` adds on top.

Every product runs on one integer table, the structure constants times D
(the lcm of their denominators; 1 over GF(p)), through one kernel: it
serves `mul_coords`, `subspace_product` and the identity scans.  The field
clears each operand to integers, the kernel takes them as sparse vectors
and returns the product as a dense row of ints, and the field maps results
back.  Where that table is nonzero is kept once per algebra, as bitmasks
over the basis (`CommAlgebra._support_table`, made on first use).  The
identity walk reads it, and so does a product of two coordinate subspaces
(spans of basis vectors, as N, U, V and the chain terms of the built-in
families are), which needs no kernel: while each table row at their pivots
has a single entry, as on the built-in families, it is the span of the
unit vectors at the OR of their supports.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import operator
from typing import NamedTuple

from .fields import QQ
from .linalg import Subspace, _support, combine_rows, solve_row_combinations

FULL = "full"
PRINCIPAL = "principal"
PLENARY = "plenary"
CHAIN_KINDS = (FULL, PRINCIPAL, PLENARY)

# Unbounded full chains get a hard safety cap on their number of runs of
# equal terms.  The full chain of a subalgebra shrinks strictly from run to
# run, so it has at most dim + 1 runs; the chain of a subspace that is not
# closed under the product need not stabilize at all, and its cost grows
# with the cube of its run count.
_HARD_CAP = 200


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
        # each pair's nonzero entries as (indices, field scalars); two flat
        # lists, as a pair object per entry would only feed the collector
        table, of = {}, field.of
        for (i, j), coords in products.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"basis index out of range in product ({i},{j})")
            key = (i, j) if i <= j else (j, i)
            if len(coords) != self.dim:
                raise ValueError(f"product vector for {key} has wrong length")
            ks = [k for k, x in enumerate(coords) if x]
            row = (ks, [of(coords[k]) for k in ks])
            # an entry can still be zero in the field (a multiple of p), so
            # rows compare, and the integer table keeps, nonzero entries only
            if key in table and _nonzero(table[key]) != _nonzero(row):
                raise ValueError(f"conflicting products for basis pair {key}")
            table[key] = row
        # the integer table, D times the structure constants, indexed [i][j];
        # pairs without a nonzero constant multiply to zero and keep ()
        ints, self._den = field.clear([c for _, cs in table.values() for c in cs])
        self._int_max = max(map(abs, ints), default=0)   # bounds the identity scans' sums
        self._int_rows = [[()] * self.dim for _ in range(self.dim)]
        self._int_nonzeros = 0   # of the dim^3 entries [i][j][k]; the identity scans read it
        ints = iter(ints)
        for (i, j), (ks, _) in table.items():
            # zip takes exactly len(ks) integers, ks being its first argument
            row = self._int_rows[i][j] = self._int_rows[j][i] = tuple(
                (k, v) for k, v in zip(ks, ints) if v)
            self._int_nonzeros += len(row) if i == j else 2 * len(row)
        self._products = {}
        self._supports = None   # the support table, made on first use

    @classmethod
    def from_table(cls, basis_names, named_products, field=QQ):
        """Build from a {(name, name): {name: coeff}} table."""
        names = list(basis_names)
        index = {n: i for i, n in enumerate(names)}
        products = {}
        for (na, nb), combo in named_products.items():
            # the constructor reads only the nonzero entries into the field
            coords = [0] * len(names)
            for nc, coeff in combo.items():
                coords[index[nc]] = coeff
            products[(index[na], index[nb])] = coords
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
        back, den = self.field.back, self._den
        return tuple((k, back(v, den)) for k, v in self._int_rows[i][j]) or None

    def _int_mul(self, x, y) -> list:
        """D x y for sparse integer vectors x and y, as a dense list.

        The integer kernel every product runs on.  A sparse vector is a
        tuple of (index, int) pairs without zero entries, so () is zero;
        the product is accumulated into, and returned as, one list of
        `dim` ints.
        """
        rows = self._int_rows
        acc = [0] * self.dim
        for i, xi in x:
            ri = rows[i]
            for j, yj in y:
                row = ri[j]
                if row:
                    c = xi * yj
                    for k, t in row:
                        acc[k] += c * t
        return acc

    def mul_coords(self, x, y) -> tuple:
        (xs, dx), (ys, dy) = self.field.clear(x), self.field.clear(y)
        return self._back(self._int_mul(_sparse(xs), _sparse(ys)), self._den * dx * dy)

    def _back(self, v, scale: int) -> tuple:
        """The coordinates of v / scale, for a dense integer vector v."""
        back, zero = self.field.back, self.field.zero
        return tuple(back(c, scale) if c else zero for c in v)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        return Element(self, self.mul_coords(x.coords, y.coords))

    def _support_table(self) -> tuple:
        """Where the integer table is nonzero, as bitmasks over the basis,
        made on the first call and kept: adj[k] holds the n with e_k e_n !=
        0, supp[p][q] the support of e_p e_q, cols[m] the union of adj[k]
        over k in m, meet[p][c] the q at which supp[p][q] meets c (rows made
        on first use), filled[upper] the p with e_p e_q != 0 (some q >= p)."""
        if self._supports is None:
            pairs = self._int_rows
            adj = [_support(row) for row in pairs]
            supp = _Lazy(lambda p: [sum(1 << k for k, _ in r) if r else 0 for r in pairs[p]])
            self._supports = (
                adj, supp,
                _Lazy(lambda m: functools.reduce(operator.or_, itertools.compress(
                    adj, map(int, bin(m)[:1:-1])), 0)),
                _Lazy(lambda p: _Lazy(lambda c: _support([m & c for m in supp[p]]))),
                [_support(adj), _support([m >> p for p, m in enumerate(adj)])])
        return self._supports

    # -- operators and subspaces ------------------------------------------

    def _int_operator_on(self, x, s: Subspace) -> tuple[list, int]:
        """(M, c): multiplication by the integer vector x on s, in the
        coordinates of s's RREF basis, as the rows of the integer matrix M,
        c > 0 times the operator.

        Column j is D x r_j for the common-pivot row r_j = L (RREF row j),
        read at s's pivots, so c = D L.  s must be invariant under x: a
        product y lies in s exactly when L y is the combination of the r_j
        with y's pivot entries as coefficients.
        """
        rows, scale = s._common_pivot_rows()
        xs, reduce = _sparse(x), self.field.reduce
        cols = []
        for r in rows:
            y = self._int_mul(xs, _sparse(r))
            col = [y[p] for p in s.pivots]
            if any(reduce([scale * t - u for t, u in zip(y, combine_rows(col, rows))])):
                raise ValueError("restriction subspace is not invariant under this multiplication")
            cols.append(col)
        return [[col[i] for col in cols] for i in range(s.dim)], self._den * scale

    def subspace_product(self, s1: Subspace, s2: Subspace) -> Subspace:
        """Span of all products of basis vectors of s1 with basis vectors of s2.

        Products are memoised for the algebra's lifetime under the unordered
        pair of subspaces: their RREF rows are canonical and the table never
        changes, so a stored product cannot go stale.  A subspace caches its
        hash, and a lookup with the very objects of an earlier call matches
        by identity without comparing rows.  A square S*S multiplies each
        unordered pair of rows once, and zero or repeated products are
        dropped before the reduction.  Two coordinate subspaces multiply
        without the kernel (`_coordinate_product`).
        """
        if s1.ambient_dim != self.dim or s2.ambient_dim != self.dim:
            raise ValueError("subspace ambient dimension does not match the algebra")
        key = frozenset((s1, s2))
        hit = self._products.get(key)
        if hit is None:
            square = len(key) == 1
            if s1.is_coordinate() and s2.is_coordinate():
                hit = self._coordinate_product(s1, s2, square)
            if hit is None:
                # an integer row is a positive multiple of the rational one, and
                # so is its integer product, which spans the same line
                rows = [_sparse(r) for r in s1.int_rows]
                pairs = (itertools.combinations_with_replacement(rows, 2) if square
                         else itertools.product(rows, [_sparse(r) for r in s2.int_rows]))
                prods = dict.fromkeys(tuple(p) for p in itertools.starmap(self._int_mul, pairs)
                                      if any(p))
                hit = Subspace.of_int_rows(prods, self.dim, self.field)
            self._products[key] = hit
        return hit

    def _coordinate_product(self, s1: Subspace, s2: Subspace, square: bool):
        """The span of the table rows e_p e_q, p in s1 and q in adj[p] & s2
        (q >= p in a square), as the OR of their supports; None when one of
        those rows has more than one entry."""
        adj, supp = self._support_table()[:2]
        b2, bits = s2._bits, 0
        for p in s1.pivots:
            qs, row = adj[p] & (b2 >> p << p if square else b2), supp[p]
            while qs:
                q = qs & -qs
                qs ^= q
                m = row[q.bit_length() - 1]
                if m & (m - 1):
                    return None
                bits |= m
        return Subspace._coordinate(bits, self.dim, self.field)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.field)

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim, self.field)

    def span_of(self, elements) -> Subspace:
        return Subspace([e.coords for e in elements], self.dim, self.field)

    def __repr__(self):
        return f"CommAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


class BaricAlgebra:
    """A commutative algebra together with a weight functional given by its
    values on the basis."""

    def __init__(self, algebra: CommAlgebra, weight):
        self.algebra = algebra
        self.weight = tuple(algebra.field.of(x) for x in weight)
        if len(self.weight) != algebra.dim:
            raise ValueError("weight vector length does not match the dimension")
        self._barideal = None

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def barideal(self) -> Subspace:
        """N = ker(weight), the codimension-one ideal of a valid weight;
        built on the first call and kept, as the weight never changes.

        No elimination runs: with q the last index of nonzero weight w, the
        rows w_q e_f - w_f e_q for f != q are N's RREF rows up to scale, as
        each is zero at every other f and q is no pivot (past q, w_f = 0
        and the row is e_f).  A zero weight has the whole space as its
        kernel."""
        if self._barideal is None:
            field, n = self.field, self.dim
            ws, _ = field.clear(self.weight)
            q = max((k for k, w in enumerate(ws) if w), default=None)
            if q is None:
                self._barideal = Subspace.full(n, field)
            else:
                pivots = [f for f in range(n) if f != q]
                rows = []
                for f in pivots:
                    r = [0] * n
                    r[f], r[q] = ws[q], -ws[f]
                    rows.append(field.normalize(field.reduce(r), f))
                self._barideal = Subspace._of_rref(rows, pivots, n, field)
        return self._barideal

    def __repr__(self):
        return f"BaricAlgebra(dim={self.dim}, basis={list(self.algebra.basis_names)})"


class _Lazy(dict):
    """A table whose entry k is make(k), made on first use."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, k):
        out = self[k] = self.make(k)
        return out


def _nonzero(row) -> list:
    """The (index, scalar) pairs of a constructor row whose scalar is nonzero."""
    return [(k, c) for k, c in zip(*row) if c]


def _sparse(ints) -> tuple:
    """The nonzero entries of an integer vector as (index, int) pairs."""
    return tuple((k, v) for k, v in enumerate(ints) if v)


def _dense(pairs, n: int) -> list:
    """The integer vector of length n with the given (index, int) entries."""
    v = [0] * n
    for k, x in pairs:
        v[k] = x
    return v


class Element(NamedTuple):
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
        return not any(self.coords)

    def __str__(self):
        parts = [f"{c}*{n}" for c, n in zip(self.coords, self.algebra.basis_names) if c]
        return " + ".join(parts) if parts else "0"


def weight_of(weight, x: Element):
    """Value at x of the linear functional with the given basis values."""
    acc = x.algebra.field.zero
    for w, c in zip(weight, x.coords):
        if w and c:
            acc = acc + w * c
    return acc


def subspace_product(a: CommAlgebra, s1: Subspace, s2: Subspace) -> Subspace:
    return a.subspace_product(s1, s2)


class Run(NamedTuple):
    """Chain positions start..end (1-based, inclusive) that all hold term."""

    start: int
    end: int
    term: Subspace


class PowerChain(NamedTuple):
    """One computed power chain, held as runs of equal terms; position 1 is
    the starting subspace itself.

    nil_index is the 1-based position of the first zero term, so for the
    full and principal chains it equals the usual nilpotency index (power
    nil_index of the subspace vanishes).  stabilized means the chain's tail
    is known: either a zero term was reached or the remaining terms provably
    repeat the last stored one forever.  A first-order chain has runs of
    length 1; a full chain's runs can be exponentially long.
    """

    kind: str
    runs: tuple
    stabilized: bool
    nil_index: int | None

    def term(self, i: int) -> Subspace:
        """The term at position i; past the last stored position only when
        the tail is known."""
        last = self.runs[-1]
        if i > last.end and self.stabilized:
            return last.term
        if not 1 <= i <= last.end:
            raise IndexError(f"chain position {i} is not stored")
        return self.runs[bisect.bisect_right(self.runs, i, key=lambda r: r.start) - 1].term

    @property
    def terms(self) -> tuple:
        """One term per stored position; its length grows with the nil index."""
        return tuple(r.term for r in self.runs for _ in range(r.start, r.end + 1))


def _full_runs(a: CommAlgebra, s: Subspace, max_steps: int | None):
    """Full powers S^i = sum over r+s=i of S^r * S^s, as runs of equal terms.

    S^i sums T_j * T_l over the run pairs (j, l) that hold some r and s
    with r + s = i.  Taking the last run k as open (it goes on as long as
    the terms repeat), a pair of closed runs contributes exactly at
    a_j + a_l <= i <= b_j + b_l, and a pair (j, k) from i = a_j + a_k on.
    The term can therefore change only at the breakpoints a_j + a_l,
    b_j + b_l + 1 and a_j + a_k, and is computed only there.  The future
    breakpoints are kept in a heap as the chain grows: when run k opens at
    a_k it adds a_j + a_k for every run j, and when it closes at b_k it
    adds b_j + b_k + 1 for every closed run j (its pairs' starts are in
    already).  The last breakpoint is 2 * a_k: a plateau that has held
    through twice its start position repeats forever, so a single repeated
    term does not end the chain but running out of breakpoints does.

    When S * S <= S, S is a subalgebra and its full powers shrink:
    S^2 <= S^1, and if S^(m+1) <= S^m for m < i, every split r + s = i + 1
    has (say) r >= 2, so S^r S^s <= S^(r-1) S^s <= S^i.  Then a term is
    computed only at the end points b_j + b_l + 1 (and at 2, as S^1 is S
    itself and no sum): elsewhere no pair stops contributing, so S^i
    contains S^(i-1) and, the chain shrinking, equals it.  Other starts,
    whose chains can grow, compute every breakpoint.
    """
    runs = [Run(1, 1, s)]
    if s.is_zero():
        return runs, True, 1
    # T_j T_l under the run indices (j, l), j <= l, filled once through the
    # algebra's memoised `subspace_product`; equal products of different
    # pairs are stored as one object, so the sum dedupes them by identity
    products, distinct = {}, {}

    def product(j, l):
        p = products.get((j, l))
        if p is None:
            p = a.subspace_product(runs[j].term, runs[l].term)
            p = products[j, l] = distinct.setdefault(p, p)
        return p

    shrinking = product(0, 0).leq(s)
    pairs_at = _dominant_pairs if shrinking else _active_pairs
    # the starts and ends of the closed runs, which never change, and the
    # end points where a pair of closed runs stops contributing
    points, starts, ends, stops = [2], [], [], {2}
    while True:
        last = runs[-1]
        while points and points[0] <= last.end:
            heapq.heappop(points)
        if not points:
            return runs, True, None
        pos = points[0]
        if max_steps is not None and pos > max_steps:
            runs[-1] = last._replace(end=max_steps)
            return runs, False, None
        new = last.term  # a shrinking chain changes only at its end points
        if not shrinking or pos in stops:
            new = _full_term(itertools.starmap(product, pairs_at(starts, ends, last.start, pos)))
        if new == last.term:
            runs[-1] = last._replace(end=pos)
            continue
        if max_steps is None and len(runs) >= _HARD_CAP:
            raise ChainCapError("full power chain did not stabilize within the "
                                "safety cap; pass max_steps to truncate")
        runs[-1] = last._replace(end=pos - 1)
        starts.append(last.start)
        ends.append(pos - 1)
        runs.append(Run(pos, pos, new))
        if new.is_zero():
            return runs, True, pos
        for r in runs:
            heapq.heappush(points, r.start + pos)
            if r.end < pos:
                heapq.heappush(points, r.end + pos)
                stops.add(r.end + pos)


def _active_pairs(starts, ends, open_start: int, pos: int) -> list:
    """Every run pair (j, l), j <= l, that contributes at pos; `starts` and
    `ends` are those of the closed runs, and the open run k = len(starts)
    starts at open_start.

    Runs are contiguous, so their starts and ends both increase, and the
    closed runs l >= j that pair with a closed run j at pos (a_j + a_l <=
    pos <= b_j + b_l) form an interval, found by bisection.
    """
    k = len(starts)
    pairs = [(j, k) for j, start in enumerate(itertools.chain(starts, (open_start,)))
             if start + open_start <= pos]
    for j, (start, end) in enumerate(zip(starts, ends)):
        hi = bisect.bisect_right(starts, pos - start, j)
        if hi <= j:
            break  # a later run j starts later, so it pairs with none either
        pairs += [(j, l) for l in range(bisect.bisect_left(ends, pos - end, j), hi)]
    return pairs


def _dominant_pairs(starts, ends, open_start: int, pos: int) -> list:
    """The run pairs whose products sum to the same term as those of
    `_active_pairs`, when the terms shrink; at most one per run.

    T_j T_l contains T_j' T_l' when j <= j' and l <= l', so only the
    minimal contributing pairs count.  For each closed run j that is the
    first closed partner l >= j, kept unless an earlier run kept one <= l;
    the kept partners decrease, so no kept pair contains another.  The
    open run k pairs with run 0 (pos - 1 lies in it), and T_0 T_k contains
    every T_j T_k, so it is kept unless run 0 has a closed partner.
    """
    k = len(starts)
    pairs, bound = [], k
    for j, (start, end) in enumerate(zip(starts, ends)):
        hi = min(bisect.bisect_right(starts, pos - start, j), bound)
        if hi <= j:
            break  # no later run j pairs with a partner below the bound
        l = bisect.bisect_left(ends, pos - end, j, hi)
        if l < hi:
            pairs.append((j, l))
            bound = l
    if not pairs or pairs[0][0]:
        pairs.append((0, k))
    return pairs


def _full_term(products) -> Subspace:
    """The sum of run-pair products: each distinct object once, largest
    first, skipping one that lies in the running sum (one bitset test when
    both are coordinate subspaces)."""
    terms = sorted(dict.fromkeys(products), key=lambda t: t.dim, reverse=True)
    total = terms[0]
    for t in terms[1:]:
        if not t.leq(total):
            total = total.plus(t)
    return total


def iterate_chain(start: Subspace, step, cap: int | None = None):
    """The chain T_0 = start, T_{k+1} = step(T_k), as (terms, stabilized).

    The chain ends at its first zero term, before its first repeat (a
    first-order recurrence repeats forever from then on) or, unstabilized,
    once it holds `cap` terms.  `step` must map zero to zero.
    """
    terms = [start]
    while True:
        if terms[-1].is_zero():
            return terms, True
        if cap is not None and len(terms) >= cap:
            return terms, False
        new = step(terms[-1])
        if new == terms[-1]:
            return terms, True
        terms.append(new)


def _check_max_steps(max_steps: int | None) -> None:
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")


def power_chain(a: CommAlgebra, s: Subspace, kind: str, max_steps: int | None = None) -> PowerChain:
    """Compute a power chain of the subspace s until it vanishes, provably
    stabilizes, or hits max_steps (reported via stabilized=False)."""
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    _check_max_steps(max_steps)
    if kind == FULL:
        runs, stable, nil = _full_runs(a, s, max_steps)
    else:
        # principal T -> T*S, plenary T -> T*T
        terms, stable = iterate_chain(
            s, lambda t: a.subspace_product(t, s if kind == PRINCIPAL else t),
            a.dim + 2 if max_steps is None else max_steps)
        runs = [Run(i, i, t) for i, t in enumerate(terms, 1)]
        nil = len(terms) if terms[-1].is_zero() else None
    return PowerChain(kind, tuple(runs), stable, nil)


def generated_subalgebra(a: CommAlgebra, gens) -> Subspace:
    """Smallest subspace containing gens and closed under the product."""
    terms, _ = iterate_chain(a.span_of(list(gens)),
                             lambda t: t.plus(a.subspace_product(t, t)))
    return terms[-1]


def generated_ideal(a: CommAlgebra, gens) -> Subspace:
    """Smallest subspace containing gens and closed under multiplication
    by the whole algebra."""
    full = a.full_space()
    terms, _ = iterate_chain(a.span_of(list(gens)),
                             lambda t: t.plus(a.subspace_product(full, t)))
    return terms[-1]


def is_ideal(a: CommAlgebra, s: Subspace) -> bool:
    return a.subspace_product(a.full_space(), s).leq(s)


class NilpotencyReport(NamedTuple):
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
    terms, _ = iterate_chain(s, lambda t: a.subspace_product(t, t), i + 1)
    return terms[-1]  # a zero or repeated last term stands for all later ones


def subalgebra_on(a: CommAlgebra, s: Subspace) -> CommAlgebra:
    """The algebra structure induced on a multiplicatively closed subspace,
    in the coordinates of its RREF basis."""
    products = induced_table(a, s.rows, s.rows)
    if products is None:
        raise ValueError("subspace is not closed under multiplication")
    return CommAlgebra(_subspace_names(a, s), products, a.field)


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
    if s.is_coordinate():
        return [a.basis_names[p] for p in s.pivots]
    return [f"s{i + 1}" for i in range(s.dim)]
