"""Exact verification of polynomial identities on a commutative algebra.

Each supported identity is decided by full multilinearization: every
variable of degree d is replaced by d fresh variables, the multilinear
component is extracted, and that symmetric multilinear form is checked on
all unordered tuples of basis vectors.  Over the rationals (infinite,
characteristic 0) this is equivalent to the identity holding for every
element.  A failing tuple is turned into a concrete witness by evaluating
the original identity at subset sums of the tuple; inclusion-exclusion
guarantees one of them has a nonzero defect.

The scans run in exact integer arithmetic on the algebra's one integer
table (the structure constants times D, the lcm of their denominators);
the weight is scaled by Dw, the lcm of its denominators.  Every term of a
tuple's sum is weighted by a positive integer chosen so that the whole
integer sum is one fixed positive multiple of the rational sum (D^3 Dw^2
for the quartic forms, D^2 Dw for the cubic ones, D^3 for Jordan).  A positive
multiple is zero exactly when the rational sum is, so each tuple gets the
same verdict as in rational arithmetic, the tuples are visited in the
same order, and the first failing tuple is the same.

Witnesses and `identity_defect` share one integer defect evaluator per
identity (`_int_defect`), on `CommAlgebra._int_mul`, the kernel every
product uses.  The identities are homogeneous, so each
variable is cleared to an integer vector, the evaluator returns a fixed
positive multiple of the defect, and one division maps it back.  The
witness search evaluates the subset sums of a failing tuple as integer
vectors and builds rational elements only for the sum it returns.

The scans accumulate each tuple's sum in one int.  Each table row
D e_i e_j is packed by Kronecker substitution as sum_k v_k 2^(B k)
(`_packing`), and a pair's operator, whose column n packs D x e_n, is a
sum of packed rows.  A pairing then costs one big-int multiply-add per
nonzero entry of the other pair, and the zero test is `acc == 0`.  Each
scan takes B = bound.bit_length() + 2 for a bound on every coordinate its
integer sums can reach, from dim, the largest |table entry| M and the
largest |W| (3 * 2 Dw^2 * dim^2 M^3 + 6 D^2 W^2 M for the quartic forms).
Packing is Z-linear, so an accumulated int is the packing of the integer
sum vector, whose coordinates are below 2^(B-2) in absolute value; signed
digits below 2^(B-1) make packing injective, so `acc == 0` exactly when
the vector is zero, and every tuple's verdict, the first failing tuple
and its witness are those of the unpacked sums.  The quartic scan builds
the operators of one leading index at a time: in lexicographic order
every pairing's first pair holds the tuple's leading index.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple

from .algebra import CommAlgebra, Element, _sparse
from .fields import QQ


class Identity(enum.Enum):
    BERNSTEIN = "bernstein"              # (x^2)^2 = w(x)^2 x^2
    JORDAN = "jordan"                    # x(x^2 y) = x^2 (x y)
    CUBE_WEIGHT = "cube_weight"          # x^3 = w(x) x^2
    JACOBI = "jacobi"                    # (xy)z + (yz)x + (zx)y = 0
    CUBE_ZERO = "cube_zero"              # x^3 = 0
    SQUARE_SQUARE_ZERO = "square_square_zero"  # (x^2)^2 = 0

    @property
    def needs_weight(self) -> bool:
        return self in (Identity.BERNSTEIN, Identity.CUBE_WEIGHT)

    @property
    def variables(self) -> tuple[str, ...]:
        if self is Identity.JORDAN:
            return ("x", "y")
        if self is Identity.JACOBI:
            return ("x", "y", "z")
        return ("x",)


class Witness(NamedTuple):
    """A variable assignment together with the nonzero defect it produces;
    equality and hash ignore the note."""

    assignment: tuple
    residual: object
    note: str = ""

    def __bool__(self) -> bool:
        # a witness is the falsy outcome of a check
        return False

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self[:2] == other[:2]

    def __ne__(self, other):
        # tuple's own __ne__ would compare the note too
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:2])

    def assignment_dict(self) -> dict:
        return dict(self.assignment)


def _weight_for(a: CommAlgebra, ident: Identity, weight):
    """The weight as field elements when the identity needs one, else None."""
    if not ident.needs_weight:
        return None
    if weight is None:
        raise ValueError(f"identity {ident.value} needs a weight functional")
    w = tuple(a.field.of(x) for x in weight)
    if len(w) != a.dim:
        raise ValueError("weight vector length does not match the dimension")
    return w


def identity_defect(a: CommAlgebra, ident: Identity, assignment: dict, weight=None) -> Element:
    """Direct evaluation of the identity's defect at concrete elements.

    The variables are cleared to integer vectors by one common
    denominator d; the identity is homogeneous of total degree 3 or 4, so
    the integer defect at the cleared vectors is m * d^degree times the
    rational one."""
    weight = _weight_for(a, ident, weight)
    ws, dw = (None, 1) if weight is None else a.field.clear(weight)
    ints, d = a.field.clear([c for var in ident.variables for c in assignment[var].coords])
    xs = [_sparse(ints[i:i + a.dim]) for i in range(0, len(ints), a.dim)]
    v, m = _int_defect(a, ident, xs, ws, dw)
    cubic = ident in (Identity.CUBE_WEIGHT, Identity.CUBE_ZERO, Identity.JACOBI)
    return Element(a, a._back(v, m * d ** (3 if cubic else 4)))


def _int_defect(a: CommAlgebra, ident: Identity, xs, ws, dw: int) -> tuple:
    """(v, m): the defect of the identity at the sparse integer vectors xs
    (in the order of `ident.variables`) as the dense integer vector v = m
    times it, m > 0.  The weight enters as the integers ws = Dw * weight.
    With D x y the kernel's product, every term is weighted to the same
    multiple m of the powers of D and Dw.  Products of products re-enter
    the kernel as sparse vectors."""
    d = a._den

    def mul(x, y):
        return _sparse(a._int_mul(x, y))

    x = xs[0]
    if ident is Identity.JACOBI:
        y, z = xs[1], xs[2]
        return _combination(a.dim, (1, mul(mul(x, y), z)), (1, mul(mul(y, z), x)),
                            (1, mul(mul(z, x), y))), d * d
    sq = mul(x, x)                      # D x^2
    if ident is Identity.JORDAN:
        y = xs[1]
        return _combination(a.dim, (1, mul(x, mul(sq, y))), (-1, mul(sq, mul(x, y)))), d ** 3
    if ident in (Identity.BERNSTEIN, Identity.SQUARE_SQUARE_ZERO):
        quad = mul(sq, sq)              # D^3 (x^2)^2
        if ident is Identity.SQUARE_SQUARE_ZERO:
            return _combination(a.dim, (1, quad)), d ** 3
        w = sum(ws[k] * c for k, c in x)    # Dw w(x)
        return _combination(a.dim, (dw * dw, quad), (-d * d * w * w, sq)), d ** 3 * dw * dw
    cube = mul(sq, x)                   # D^2 x^3
    if ident is Identity.CUBE_ZERO:
        return _combination(a.dim, (1, cube)), d * d
    if ident is Identity.CUBE_WEIGHT:
        w = sum(ws[k] * c for k, c in x)
        return _combination(a.dim, (dw, cube), (-d * w, sq)), d * d * dw
    raise ValueError(f"unknown identity {ident!r}")


def _combination(dim: int, *terms) -> list:
    """sum c * vec over the (c, vec) terms of sparse integer vectors, as a
    dense list of dim ints."""
    acc = [0] * dim
    for c, vec in terms:
        for k, v in vec:
            acc[k] += c * v
    return acc


def _packing(bound: int):
    """pack(v): the sparse integer vector v as one int, sum_k v_k 2^(B k),
    for B = bound.bit_length() + 2.  Packing is Z-linear, and a packed sum
    is 0 exactly when its vector is, if `bound` bounds that vector's
    coordinates (see the module docstring)."""
    width = bound.bit_length() + 2
    return lambda v: sum(c << (width * k) for k, c in v)


def _packed_table(a, pack) -> list:
    """The integer table with each row D e_i e_j packed, indexed [i][j]."""
    table = [[0] * a.dim for _ in range(a.dim)]
    for i, rows in enumerate(a._int_rows):
        for j in range(i, a.dim):
            table[i][j] = table[j][i] = pack(rows[j])
    return table


def _operator(table, x) -> list:
    """The packed columns D x e_n of multiplication by the sparse integer
    vector x on a packed table: D x y then packs to the sum of y_n times
    column n."""
    return [sum(v * table[m][n] for m, v in x) for n in range(len(table))]


def _scan_degree4(a, weight):
    """First basis 4-tuple where the linearized quartic form is nonzero.

    The multilinear component of (x^2)^2 is, up to a positive factor, the
    sum over the three pair-pairings; the weight part (when a weight is
    given) linearizes to the sum over the six ways of splitting the tuple
    into a weight pair and a product pair.  With P = D e_p e_q and
    W = Dw w, the pair-pair terms 2 Dw^2 P P and the weight terms
    D^2 W W P are each D^3 Dw^2 times their rational values.  For M the
    largest |table entry|, a coordinate of D P P is at most dim^2 M^3, which
    bounds the packed sums.

    In each pairing (ij)(kl), (ik)(jl), (il)(jk) the first pair holds the
    tuple's leading index i, so D P_ib P_cd is the sum of P_cd[n] times
    column n of the packed operator of P_ib.  The operators of one leading
    index are built when first needed and dropped when i moves on.  With a
    weight, a pairing of (pq) with (rs) contributes the symmetric form
    2 Dw^2 D P_pq P_rs - D^2 (W_p W_q P_rs + W_r W_s P_pq): the same product
    on pair vectors extended by W_p W_q at index dim, in the table times
    2 Dw^2 extended by e_n e_dim = -D^2 e_n and e_dim e_dim = 0, so the
    operators carry the weight terms too.
    """
    pairs, dim = a._int_rows, a.dim
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    c_pair, c_weight = 2 * dw * dw, a._den ** 2
    m, w = a._int_max, max(map(abs, ws or [0]))
    pack = _packing(3 * c_pair * dim * dim * m ** 3 + 6 * c_weight * w * w * m)
    table, vecs = _packed_table(a, pack), pairs
    if ws is not None:
        units = [-c_weight * pack(((n, 1),)) for n in range(dim)]
        table = [[c_pair * t for t in row] + [u] for row, u in zip(table, units)] + [units + [0]]
        vecs = [[pairs[p][q] + (((dim, ws[p] * ws[q]),) if ws[p] * ws[q] else ())
                 for q in range(dim)] for p in range(dim)]
    lead = None
    for t in itertools.combinations_with_replacement(range(dim), 4):
        i, j, k, l = t
        if i != lead:
            lead, row, ops = i, vecs[i], [None] * dim
        acc = 0
        for b, y in ((j, vecs[k][l]), (k, vecs[j][l]), (l, vecs[j][k])):
            if row[b] and y:
                op = ops[b]
                if op is None:
                    op = ops[b] = _operator(table, row[b])
                acc += sum(v * op[n] for n, v in y)
        if acc:
            return t
    return None


def _scan_degree3(a, weight):
    """First basis triple where the linearized cubic form is nonzero.

    The product terms Dw (D e_p e_q) e_r and the weight terms D W P are
    each D^2 Dw times their rational values; their coordinates are at most
    Dw dim M^2 and D W M.
    """
    pairs, dim = a._int_rows, a.dim
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    m, w = a._int_max, max(map(abs, ws or [0]))
    table = _packed_table(a, _packing(3 * dw * dim * m * m + 3 * a._den * w * m))
    for t in itertools.combinations_with_replacement(range(dim), 3):
        i, j, k = t
        terms = ((k, (i, j)), (j, (i, k)), (i, (j, k)))
        acc = dw * sum(v * table[n][r] for r, (p, q) in terms for n, v in pairs[p][q])
        if ws is not None:
            acc -= a._den * sum(ws[r] * table[p][q] for r, (p, q) in terms)
        if acc:
            return t
    return None


def _scan_jordan(a):
    """First ((x-triple), y) where the linearized Jordan form is nonzero.

    Both terms e_m (P e_y) and P (D e_m e_y) of each summand are D^3 times
    their rational values, so the form needs no further weighting, and a
    coordinate of either is at most dim^2 M^3.  Both are read off packed
    pair operators: e_m (P e_y) is the sum of P[n] times column m of the
    operator of D e_n e_y, and P (D e_m e_y) the sum of (D e_m e_y)[n]
    times column n of the operator of P.  Each pair's operator is built
    once per scan, when first needed.
    """
    pairs, dim = a._int_rows, a.dim
    table = _packed_table(a, _packing(6 * dim * dim * a._int_max ** 3))
    ops = {}

    def op(p, q):
        o = ops.get((p, q))
        if o is None:
            o = ops[p, q] = ops[q, p] = _operator(table, pairs[p][q])
        return o

    for t in itertools.combinations_with_replacement(range(dim), 3):
        i, j, k = t
        terms = [(m, pairs[p][q], op(p, q))
                 for m, (p, q) in ((i, (j, k)), (j, (i, k)), (k, (i, j))) if pairs[p][q]]
        for y in range(dim):
            acc = 0
            for m, x, x_op in terms:
                acc += sum(v * op(n, y)[m] for n, v in x if pairs[n][y])
                acc -= sum(v * x_op[n] for n, v in pairs[m][y])
            if acc:
                return t, y
    return None


def _subset_sums(positions: tuple[int, ...]):
    """Distinct subset sums of basis vectors as sparse integer vectors,
    smallest supports first."""
    seen = set()
    for size in range(1, len(positions) + 1):
        for combo in itertools.combinations(range(len(positions)), size):
            multiset = tuple(sorted(positions[c] for c in combo))
            if multiset in seen:
                continue
            seen.add(multiset)
            yield tuple((k, multiset.count(k)) for k in sorted(set(multiset)))


def _witness_from_tuple(a, ident, weight, xs, y_index):
    """Convert a failing linearized tuple into a witness for the identity
    itself.  The scans compute a positive multiple of the identity's
    multilinear component, so by polarization some subset sum of the tuple
    has a nonzero defect; the final raise guards that argument.  The sums
    are evaluated as integer vectors; only the one returned is built as
    rational elements."""
    ws, dw = (None, 1) if weight is None else QQ.clear(weight)
    if ident is Identity.JACOBI:
        v, m = _int_defect(a, ident, [((i, 1),) for i in xs], ws, dw)
        return Witness(tuple(zip(ident.variables, map(a.basis_element, xs))),
                       Element(a, a._back(v, m)))
    y = () if y_index is None else (((y_index, 1),),)
    for x in _subset_sums(xs):
        v, m = _int_defect(a, ident, (x, *y), ws, dw)
        if any(v):
            assignment = {"x": a.element([dict(x).get(k, 0) for k in range(a.dim)])}
            if y_index is not None:
                assignment["y"] = a.basis_element(y_index)
            return Witness(tuple(assignment.items()), Element(a, a._back(v, m)))
    raise RuntimeError("linearized form is nonzero but no witness was found")


def check_identity(a: CommAlgebra, ident: Identity, weight=None):
    """True if the identity holds for every element of the algebra, else a
    Witness.  Only rational algebras are accepted: the multilinearization
    argument needs an infinite field of characteristic zero."""
    if a.field != QQ:
        raise ValueError("identity checking is only supported over the rationals")
    weight = _weight_for(a, ident, weight)
    if ident in (Identity.BERNSTEIN, Identity.SQUARE_SQUARE_ZERO):
        bad = _scan_degree4(a, weight)
        if bad is None:
            return True
        return _witness_from_tuple(a, ident, weight, bad, None)
    if ident in (Identity.CUBE_WEIGHT, Identity.CUBE_ZERO, Identity.JACOBI):
        bad = _scan_degree3(a, weight)
        if bad is None:
            return True
        return _witness_from_tuple(a, ident, weight, bad, None)
    if ident is Identity.JORDAN:
        hit = _scan_jordan(a)
        if hit is None:
            return True
        xs, y = hit
        return _witness_from_tuple(a, ident, weight, xs, y)
    raise ValueError(f"unknown identity {ident!r}")
