"""Exact verification of polynomial identities on a commutative algebra.

Each identity is written once, as terms (`_TERMS`): a coefficient, the
variables whose weight it carries and a product tree.  `_linearize`
derives, once per identity, all that does not depend on the algebra: the
variables and degrees, the terms' scales to one common multiple for the one
integer defect evaluator (`_int_defect`, shared by `identity_defect` and
the witness search), and the full linearization, in which a variable of
degree d gets d slots that fill its occurrences in every order, as
canonical commutative monomials whose multiplicities are divided by their
gcd.  Over the rationals an identity holds exactly when that form vanishes
on every basis tuple (one sorted multiset of slots per variable; degree-1
variables the form is symmetric in share one).  A failing tuple yields a
witness at subset sums of each variable's slots.

Everything runs on the algebra's integer table (D times the structure
constants) and the weight times Dw, each term weighted to one positive
multiple of its rational value, so verdicts and first failing tuples are
the rational ones.  The form also holds the scan's plan (`_plan`): one step
per product monomial, a vector factor times the packed operator of the
other factor, with its sign, the kind and slots of each factor and the pair
the outer multisets fix; a weight monomial w(a) w(b) (c d) rides on the
product (a b)(c d) through coordinate dim.  It holds too the exponents of
a bound on the sums, built up each monomial's tree (`_digit_bound`).  The
scan (`_scan`) binds the plan to the algebra and accumulates a tuple's sum
in one int: rows D e_i e_j are packed on first use as sum_k v_k 2^(B k),
with B from the bound, so that `acc == 0` exactly when the unpacked sum is
zero.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import NamedTuple

from .algebra import CommAlgebra, Element, _dense, _sparse
from .fields import QQ


class Identity(enum.Enum):
    BERNSTEIN = "bernstein"
    JORDAN = "jordan"
    CUBE_WEIGHT = "cube_weight"
    JACOBI = "jacobi"
    CUBE_ZERO = "cube_zero"
    SQUARE_SQUARE_ZERO = "square_square_zero"

    @property
    def needs_weight(self) -> bool:
        return _form(self).weights > 0

    @property
    def variables(self) -> tuple[str, ...]:
        return _form(self).variables


# Each identity as (coefficient, weight variables, product tree) terms that
# sum to zero; a tree is a variable name or a pair of trees.
_SQ = ("x", "x")
_TERMS = {
    Identity.BERNSTEIN: ((1, (), (_SQ, _SQ)), (-1, ("x", "x"), _SQ)),     # (x^2)^2 = w(x)^2 x^2
    Identity.JORDAN: ((1, (), ("x", (_SQ, "y"))), (-1, (), (_SQ, ("x", "y")))),  # x(x^2y) = x^2(xy)
    Identity.CUBE_WEIGHT: ((1, (), (_SQ, "x")), (-1, ("x",), _SQ)),        # x^3 = w(x) x^2
    Identity.JACOBI: ((1, (), (("x", "y"), "z")), (1, (), (("y", "z"), "x")),
                      (1, (), (("z", "x"), "y"))),                    # (xy)z + (yz)x + (zx)y = 0
    Identity.CUBE_ZERO: ((1, (), (_SQ, "x")),),                            # x^3 = 0
    Identity.SQUARE_SQUARE_ZERO: ((1, (), (_SQ, _SQ)),),                   # (x^2)^2 = 0
}


class _Form(NamedTuple):
    variables: tuple   # in order of first appearance
    slots: tuple       # per variable, the range of its slots
    groups: tuple      # the sizes of the multisets a scan visits
    products: int      # the common multiple is D^products Dw^weights
    weights: int
    monomials: tuple   # (multiplicity, weight slots, canonical tree over slots)
    bound: tuple       # see `_digit_bound`
    dots: tuple        # the scan's plan, derived by `_plan`
    columns: tuple
    fused: tuple       # (u, h): the steps' multiplicity up to sign, the weight monomials'


@functools.cache
def _form(ident: Identity) -> _Form:
    return _linearize(_TERMS[ident])


def _leaves(tree) -> tuple:
    return _leaves(tree[0]) + _leaves(tree[1]) if isinstance(tree, tuple) else (tree,)


def _key(tree):
    """A total order on trees over slots: leaves first."""
    return (0, tree) if isinstance(tree, int) else (1, _key(tree[0]), _key(tree[1]))


def _canon(tree, leaf):
    """The commutative canonical form of tree, each leaf replaced by leaf(it)."""
    if not isinstance(tree, tuple):
        return leaf(tree)
    return tuple(sorted((_canon(tree[0], leaf), _canon(tree[1], leaf)), key=_key))


def _linearize(terms) -> _Form:
    occurrences = [(*weights, *_leaves(tree)) for _, weights, tree in terms]
    variables = tuple(dict.fromkeys(v for occ in occurrences for v in occ))
    degrees = [occurrences[0].count(v) for v in variables]
    starts = itertools.accumulate(degrees, initial=0)
    slots = tuple(range(s, s + d) for s, d in zip(starts, degrees))

    def linearized(move: dict) -> dict:
        out = {}
        for c, weights, tree in terms:
            for perm in itertools.product(*map(itertools.permutations, slots)):
                fill = {v: iter([move.get(s, s) for s in p]) for v, p in zip(variables, perm)}
                key = (tuple(sorted(next(fill[v]) for v in weights)),
                       _canon(tree, lambda v: next(fill[v])))
                out[key] = out.get(key, 0) + c
        return out

    counts = linearized({})
    g = math.gcd(*counts.values())
    monomials = tuple((n // g, ws, tree) for (ws, tree), n in counts.items() if n)
    single, groups = {s[0] for s in slots if len(s) == 1}, []
    for s in slots:
        # a degree-1 variable joins the degree-1 variables before it when the
        # form is symmetric in all of them
        joined = groups[-1] + list(s) if groups and single >= {*groups[-1], *s} else None
        if joined and all(linearized(dict(zip(joined, p))) == counts
                          for p in itertools.permutations(joined)):
            groups[-1] = joined
        else:
            groups.append(list(s))
    groups = tuple(map(len, groups))
    products = max(len(_leaves(t)) - 1 for _, _, t in terms)
    weights = max(len(ws) for _, ws, _ in terms)
    bound = {}   # exponents of (D, Dw, max |ws|, dim, M) -> the monomials' total |multiplicity|
    for n, ws, tree in monomials:
        leaves, e, f = _shape(tree)
        exponents = (products + 1 - leaves, weights - len(ws), len(ws), e, f)
        bound[exponents] = bound.get(exponents, 0) + abs(n)
    return _Form(variables, slots, groups, products, weights, monomials,
                 tuple((n, e) for e, n in bound.items()), *_plan(groups, monomials))


def _plan(groups: tuple, monomials: tuple) -> tuple:
    """The scan's steps, one per product monomial x y of the form, taken as
    the vector factor y times the operator of x (the packed columns D x e_n):
    the operator of a leaf (a table row), else of a factor fixed while the
    last multiset varies, else of one holding slot 0.  A factor is (pair,
    weighted, i, j), the vector D e_p e_q (a pair) or e_q (a leaf, i = j)
    at p = t_i and q = t_j.  A dot step is (the pair the outer multisets fix
    or (), sign, vector factor, operator factor); for m (y S) a column step
    (fixed pair, sign, S, y, m) reads S_n times column m of the operator of
    e_n e_y.  Weight monomials w(slots of x) y ride on x y, the factor x
    carrying its slots' weight through coordinate dim.  The steps share one
    multiplicity u up to sign, the weight monomials one h; fused is (u, h)."""
    outer = sum(groups[:-1])   # the slots of all multisets but the last
    inner = set(range(outer, sum(groups)))
    weight_terms = {(ws, tree): n for n, ws, tree in monomials if ws}
    units = {abs(n) for n, ws, _ in monomials if not ws}
    fused = {(n, len(ws)) for (ws, _), n in weight_terms.items()}

    def factor(f, weighted: bool) -> tuple:   # the factor and the pair the outer slots fix
        pair = not isinstance(f, int)
        i, j = f if pair else (f, f)
        return (pair, weighted, i, j), (f if pair and not weighted and j < outer else ())

    dots, columns = [], []
    for n, ws, tree in monomials:
        if ws:
            continue
        if len(_leaves(tree)) > 4:
            raise ValueError(f"no scan for the monomial {tree!r} of degree above 4")
        sign = 1 if n > 0 else -1
        if not all(len(_leaves(f)) <= 2 for f in tree):   # m (y S): leaves sort first
            s, fixed = factor(tree[1][1], False)
            columns.append((fixed, sign, s, tree[1][0], tree[0]))
            continue
        x, y = sorted(tree, key=lambda f: (not isinstance(f, int), bool(inner & set(_leaves(f))),
                                           0 not in _leaves(f)))
        (xf, x_fixed), (yf, y_fixed) = (
            factor(f, weight_terms.pop((tuple(sorted(_leaves(f))), g), None) is not None)
            for f, g in ((x, y), (y, x)))
        dots.append((x_fixed or y_fixed, sign, yf, xf))
    if weight_terms or len(units) > 1 or len(fused) > 1:
        raise ValueError("no scan: the steps' multiplicities differ, or the weight terms "
                         "do not ride on the product terms")
    return tuple(dots), tuple(columns), (units.pop(), fused.pop()[0] if fused else 0)


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
    denominator d; the identity is homogeneous, so the integer defect at
    the cleared vectors is m * d^degree times the rational one."""
    weight = _weight_for(a, ident, weight)
    ws, dw = (None, 1) if weight is None else a.field.clear(weight)
    ints, d = a.field.clear([c for var in ident.variables for c in assignment[var].coords])
    xs = [_sparse(ints[i:i + a.dim]) for i in range(0, len(ints), a.dim)]
    v, m = _int_defect(a, ident, xs, ws, dw)
    return Element(a, a._back(v, m * d ** sum(map(len, _form(ident).slots))))


def _int_defect(a: CommAlgebra, ident: Identity, xs, ws, dw: int) -> tuple:
    """(v, m): the defect at the sparse integer vectors xs (in the order of
    `ident.variables`) as the dense integer vector v = m times it, for
    m = D^products Dw^weights and the weight as the integers ws = Dw w."""
    form, d = _form(ident), a._den
    memo = dict(zip(form.variables, xs))   # each subtree's value, the leaves first

    def value(tree):
        out = memo.get(tree)
        if out is None:
            out = memo[tree] = _sparse(a._int_mul(value(tree[0]), value(tree[1])))
        return out

    acc = [0] * a.dim
    for c, weights, tree in _TERMS[ident]:
        # brought to the common multiple
        c *= d ** (form.products + 1 - len(_leaves(tree))) * dw ** (form.weights - len(weights))
        for v in weights:
            c *= sum(ws[k] * x for k, x in memo[v])
        if c:
            for k, x in value(tree):
                acc[k] += c * x
    return acc, d ** form.products * dw ** form.weights


def _digit_bound(form: _Form, a: CommAlgebra, ws, dw: int) -> int:
    """A bound on every coordinate of the form's integer sum at a basis
    tuple, built up each monomial's tree when the form is derived: a leaf
    is 1, a product of x and y at most |supp x| |supp y| max|x| max|y| M
    (M the largest |table entry|, supports up to dim), a weight factor at
    most max |ws|, and the monomial scaled to the common multiple.  The
    form keeps the exponents of (D, Dw, max |ws|, dim, M) of each."""
    numbers = (a._den, dw, max(map(abs, ws or [0])), a.dim, a._int_max)
    return sum(n * math.prod(map(pow, numbers, exponents)) for n, exponents in form.bound)


def _shape(tree) -> tuple:
    """(leaves, e, f): a product is at most |supp x| |supp y| max|x| max|y| M,
    with support 1 for a leaf and dim for a product, so the tree is at
    most dim^e M^f."""
    if not isinstance(tree, tuple):
        return 1, 0, 0
    (l1, e1, f1), (l2, e2, f2) = map(_shape, tree)
    return l1 + l2, e1 + e2 + (l1 > 1) + (l2 > 1), f1 + f2 + 1


def _packing(bound: int):
    """pack(v): the sparse integer vector v as one int, sum_k v_k 2^(B k),
    for B = bound.bit_length() + 2; injective on vectors within `bound`."""
    width = bound.bit_length() + 2
    return lambda v: sum(c << (width * k) for k, c in v)


class _Lazy(dict):
    """A table whose entry k is make(k), made on first use."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, k):
        out = self[k] = self.make(k)
        return out


def _scan(a: CommAlgebra, ident: Identity, weight):
    """First tuple (all slots, concatenated) in scan order where the
    linearized form is nonzero, or None.  The form's plan is bound to the
    algebra: table rows are packed, and each kind of factor's vectors and
    operators made, on first use, and kept for the whole scan."""
    form, dim, pairs = _form(ident), a.dim, a._int_rows
    ws, dw = QQ.clear(weight) if form.weights else (None, 1)
    pack = _packing(_digit_bound(form, a, ws, dw))
    u, h = form.fused
    scale, c_weight = u * dw ** form.weights, h * a._den ** form.weights

    def pack_row(r: int) -> list:   # scaled, with e_n e_dim = c_weight e_n
        if r == dim:
            return [pack(((n, c_weight),)) for n in range(dim)] + [0]
        out = [rows[n][r] if n in rows else scale * pack(v) for n, v in enumerate(pairs[r])]
        return out + [pack(((r, c_weight),))]

    rows = _Lazy(pack_row)

    def vector(pair: bool, weighted: bool, p: int, q: int) -> tuple:   # e_q, or D e_p e_q
        v = pairs[p][q] if pair else ((q, 1),)
        w = (ws[p] if pair else 1) * ws[q] if weighted else 0
        return v + ((dim, w),) if w else v

    def operator(x) -> list:   # the packed columns D x e_n
        out = ()
        for m, v in x:
            r = rows[m]
            out = [o + v * e for o, e in zip(out, r)] if out else [v * e for e in r]
        return out

    def grid(make, pair: bool) -> list:   # [p][q] is make(p, q), made on first use; a leaf's [any][q]
        made = [_Lazy(functools.partial(make, p)) for p in range(dim if pair else 1)]
        return made if pair else made * dim

    # one table of vectors and one of operators per kind of factor, (pair, weighted)
    vectors = _Lazy(lambda kind: pairs if kind == (True, False)
                    else grid(functools.partial(vector, *kind), kind[0]))
    operators = _Lazy(lambda kind: [rows] * dim if kind == (False, False)
                      else grid(lambda p, q: operator(vectors[kind][p][q]), kind[0]))
    dots = [(fixed, (*y[2:], vectors[y[:2]], *x[2:], operators[x[:2]], sign))
            for fixed, sign, y, x in form.dots]
    columns = [(fixed, (*f[2:], vectors[f[:2]], y, operators[True, False], m, sign))
               for fixed, sign, f, y, m in form.columns]
    for head in map(sum, itertools.product(*(itertools.combinations_with_replacement(
            range(dim), g) for g in form.groups[:-1])), itertools.repeat(())):
        # the steps with a factor that is zero for every tuple of this head drop out
        live = [[step for f, step in steps if not f or pairs[head[f[0]]][head[f[1]]]]
                for steps in (dots, columns)]
        for t in itertools.combinations_with_replacement(range(dim), form.groups[-1]):
            t = head + t
            acc = 0
            for i1, j1, vecs, i2, j2, ops, sign in live[0]:
                vec = vecs[t[i1]][t[j1]]
                if vec:
                    op = ops[t[i2]][t[j2]]
                    if op:
                        s = sum(v * op[n] for n, v in vec)
                        acc = acc + s if sign > 0 else acc - s
            for i, j, vecs, y, ops, m, sign in live[1]:   # column m of e_n e_y's operator
                ty, tm = t[y], t[m]
                for n, v in vecs[t[i]][t[j]]:
                    op = ops[n][ty]
                    if op:
                        acc += sign * v * op[tm]
            if acc:
                return t
    return None


def _subset_sums(positions: tuple) -> list:
    """Distinct subset sums of basis vectors as sparse integer vectors,
    smallest supports first."""
    multisets = dict.fromkeys(tuple(sorted(c)) for size in range(1, len(positions) + 1)
                              for c in itertools.combinations(positions, size))
    return [tuple((k, m.count(k)) for k in sorted(set(m))) for m in multisets]


def _witness_from_tuple(a, ident, weight, t):
    """A witness for the identity from a failing tuple of the scan: by
    polarization some choice of a subset sum of each variable's slots has
    a nonzero defect (the raise guards that argument).  Only the one
    returned is built as rational elements."""
    ws, dw = (None, 1) if weight is None else QQ.clear(weight)
    form = _form(ident)
    for xs in itertools.product(*(_subset_sums([t[s] for s in slots]) for slots in form.slots)):
        v, m = _int_defect(a, ident, xs, ws, dw)
        if any(v):
            assignment = tuple((name, Element(a, a._back(_dense(x, a.dim), 1)))
                               for name, x in zip(form.variables, xs))
            return Witness(assignment, Element(a, a._back(v, m)))
    raise RuntimeError("linearized form is nonzero but no witness was found")


def check_identity(a: CommAlgebra, ident: Identity, weight=None):
    """True if the identity holds for every element of the algebra, else a
    Witness.  Only rational algebras are accepted: the multilinearization
    argument needs an infinite field of characteristic zero."""
    if a.field != QQ:
        raise ValueError("identity checking is only supported over the rationals")
    weight = _weight_for(a, ident, weight)
    bad = _scan(a, ident, weight)
    return True if bad is None else _witness_from_tuple(a, ident, weight, bad)
