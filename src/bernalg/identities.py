"""Exact verification of polynomial identities on a commutative algebra.

Each identity is written once, as terms (`_TERMS`): a coefficient, the
variables whose weight it carries and a product tree.  `_linearize` derives
the rest: variables and degrees, the terms' scales to one common multiple
for the one integer defect evaluator (`_int_defect`, shared by
`identity_defect` and the witness search), and the full linearization, in
which a variable of degree d gets d slots that fill its occurrences in
every order, as canonical commutative monomials whose multiplicities are
divided by their gcd.  Over the rationals an identity holds exactly when
that form vanishes on every basis tuple (one sorted multiset of slots per
variable; degree-1 variables the form is symmetric in share one).  A
failing tuple yields a witness at subset sums of each variable's slots.

Everything runs on the algebra's integer table (D times the structure
constants) and the weight times Dw, each term weighted to one positive
multiple of its rational value, so verdicts and first failing tuples are
the rational ones.  The scan (`_scan`) accumulates a tuple's sum in one
int: rows D e_i e_j are packed on first use as sum_k v_k 2^(B k), with B
from a bound built up each monomial's tree (`_digit_bound`), so that
`acc == 0` exactly when the unpacked sum is zero.  A weight monomial
w(a) w(b) (c d) rides on the product (a b)(c d) through coordinate dim.
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
    steps: tuple       # see `_steps`
    fused: tuple


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
    return _Form(variables, slots, groups, max(len(_leaves(t)) - 1 for _, _, t in terms),
                 max(len(ws) for _, ws, _ in terms), monomials, *_steps(groups, monomials))


def _steps(groups: tuple, monomials: tuple) -> tuple:
    """One step per product monomial x y: (multiplicity, operator factor,
    vector factor, whether each carries its slots' weight, None), taking
    the operator of a leaf (a table row), else of a factor fixed while the
    last multiset varies, else of one holding slot 0; for m (y S),
    (multiplicity, S, y, False, False, m): S[n] times column m of the
    operator of e_n e_y.  Weight monomials w(slots of x) y ride on x y; the
    (multiplicity, tree, weight count) they share is returned too."""
    inner = set(range(sum(groups[:-1]), sum(groups)))
    weight_terms = {(ws, tree): n for n, ws, tree in monomials if ws}
    steps, fused = [], []
    for n, ws, tree in monomials:
        if ws:
            continue
        if len(_leaves(tree)) > 4:
            raise ValueError(f"no scan for the monomial {tree!r} of degree above 4")
        if not all(len(_leaves(f)) <= 2 for f in tree):   # m (y S): leaves sort first
            steps.append((n, tree[1][1], tree[1][0], False, False, tree[0]))
            continue
        x, y = sorted(tree, key=lambda f: (not isinstance(f, int), bool(inner & set(_leaves(f))),
                                           0 not in _leaves(f)))
        splits = ((x, y), (y, x))
        hits = [weight_terms.pop((tuple(sorted(_leaves(f))), g), None) for f, g in splits]
        fused += [(h, g, len(_leaves(f))) for h, (f, g) in zip(hits, splits) if h is not None]
        steps.append((n, x, y, hits[0] is not None, hits[1] is not None, None))
    if (weight_terms or len({(h, len(_leaves(g)), k) for h, g, k in fused}) > 1
            or fused and len({step[0] for step in steps}) > 1):
        raise ValueError("the weight terms do not ride on the product terms")
    return tuple(steps), (fused[0] if fused else None)


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
        c *= _scale(form, d, dw, tree, len(weights))
        for v in weights:
            c *= sum(ws[k] * x for k, x in memo[v])
        if c:
            for k, x in value(tree):
                acc[k] += c * x
    return acc, d ** form.products * dw ** form.weights


def _digit_bound(form: _Form, a: CommAlgebra, ws, dw: int) -> int:
    """A bound on every coordinate of the form's integer sum at a basis
    tuple, built up each monomial's tree: a leaf is 1, a product of x and y
    at most |supp x| |supp y| max|x| max|y| M (M the largest |table entry|,
    supports up to dim), a weight factor at most max |ws|."""
    w = max(map(abs, ws or [0]))
    return sum(abs(n) * _scale(form, a._den, dw, tree, len(wslots)) * w ** len(wslots)
               * a.dim ** _shape(tree)[1] * a._int_max ** _shape(tree)[2]
               for n, wslots, tree in form.monomials)


@functools.cache
def _shape(tree) -> tuple:
    """(leaves, e, f): a product is at most |supp x| |supp y| max|x| max|y| M,
    with support 1 for a leaf and dim for a product, so the tree is at
    most dim^e M^f."""
    if not isinstance(tree, tuple):
        return 1, 0, 0
    (l1, e1, f1), (l2, e2, f2) = map(_shape, tree)
    return l1 + l2, e1 + e2 + (l1 > 1) + (l2 > 1), f1 + f2 + 1


def _scale(form: _Form, d: int, dw: int, tree, weights: int) -> int:
    """The factor that brings a term with this tree and this many weight
    factors to the common multiple D^products Dw^weights."""
    return d ** (form.products + 1 - _shape(tree)[0]) * dw ** (form.weights - weights)


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
    linearized form is nonzero, or None.  Vectors and operators are kept
    by key, a basis index k for a leaf and p dim + q for a pair; those of
    a pair holding the tuple's first slot while that index leads."""
    form, dim, pairs, d = _form(ident), a.dim, a._int_rows, a._den
    if form.weights and weight is None:
        raise ValueError(f"identity {ident.value} needs a weight functional")
    ws, dw = QQ.clear(weight) if form.weights else (None, 1)
    pack = _packing(_digit_bound(form, a, ws, dw))
    scale = c_weight = 1
    if form.fused:
        n, x, y = form.steps[0][:3]
        scale = n * _scale(form, d, dw, (x, y), 0)
        n, tree, k = form.fused
        c_weight = n * _scale(form, d, dw, tree, k)

    def pack_row(r: int) -> list:   # scaled, with e_n e_dim = c_weight e_n
        if r == dim:
            return [pack(((n, c_weight),)) for n in range(dim)] + [0]
        out = [rows[n][r] if n in rows else scale * pack(v) for n, v in enumerate(pairs[r])]
        return out + [pack(((r, c_weight),))] if form.fused else out

    rows = _Lazy(pack_row)

    def vector(c: int, idx: tuple, ext: bool) -> tuple:   # c e_i or c D e_p e_q
        v = pairs[idx[0]][idx[1]] if len(idx) == 2 else ((idx[0], 1),)
        v = v if c == 1 else tuple((k, c * x) for k, x in v)
        w = c * math.prod(ws[i] for i in idx) if ext else 0
        return v + ((dim, w),) if w else v

    def operator(x) -> list:   # the packed columns D x e_n
        out = ()
        for m, v in x:
            r = rows[m]
            out = [o + v * e for o, e in zip(out, r)] if out else [v * e for e in r]
        return out

    tables = {}   # by kind, coefficient, leaf or pair, and weight

    def table(kind: str, c: int, leaf: bool, ext: bool):
        """Vectors [p][q] (a leaf: [any][q]), or operators by key k (a leaf)
        or p dim + q (a pair)."""
        key = (kind, c, leaf, ext)
        if key not in tables and kind == "vec":
            tables[key] = ([[vector(c, (q,), ext) for q in range(dim)]] * dim if leaf
                           else pairs if c == 1 and not ext
                           else [[vector(c, (p, q), ext) for q in range(dim)] for p in range(dim)])
        elif key not in tables:
            tables[key] = _Lazy((lambda k: operator(vector(1, (k,), ext)) if ext else rows[k])
                                if leaf else lambda k: operator(vector(1, divmod(k, dim), ext)))
        return tables[key]

    outer = sum(form.groups[:-1])   # the slots of all multisets but the last

    def fixed(f, ext) -> tuple:   # a pair factor that the outer multisets fix, else ()
        return () if ext or isinstance(f, int) or max(f) >= outer else f

    dots, columns = [], []
    for n, x, y, x_ext, y_ext, column in form.steps:
        tree, vec = ((x, y), y) if column is None else ((column, (y, x)), x)
        leaf = isinstance(vec, int)
        c = n * _scale(form, d, dw, tree, 0) // scale
        vecs = ((0, vec) if leaf else vec) + (table("vec", c, leaf, y_ext),)
        if column is not None:
            columns.append((fixed(x, False), (*vecs, y, table("op", 1, False, False), column)))
        elif isinstance(x, int):
            dots.append((fixed(vec, y_ext), (*vecs, x, 0, x, table("op", 1, True, x_ext))))
        else:
            ops = table("lead" if 0 in x else "op", 1, False, x_ext)
            dots.append((fixed(x, x_ext) or fixed(vec, y_ext), (*vecs, x[0], dim, x[1], ops)))
    per_lead = [ops for key, ops in tables.items() if key[0] == "lead"]
    lead = None
    for head in map(sum, itertools.product(*(itertools.combinations_with_replacement(
            range(dim), g) for g in form.groups[:-1])), itertools.repeat(())):
        # the steps with a factor that is zero for every tuple of this head drop out
        live = [[step for f, step in steps if not f or pairs[head[f[0]]][head[f[1]]]]
                for steps in (dots, columns)]
        for t in itertools.combinations_with_replacement(range(dim), form.groups[-1]):
            t = head + t
            if t[0] != lead:
                lead = t[0]
                for ops in per_lead:
                    ops.clear()
            acc = 0
            for j1, j2, vecs, i1, k1, i2, ops in live[0]:
                vec = vecs[t[j1]][t[j2]]
                if vec:
                    op = ops[t[i1] * k1 + t[i2]]
                    if op:
                        acc += sum(v * op[n] for n, v in vec)
            for j1, j2, vecs, y, ops, m in live[1]:   # column m of e_n e_y's operator
                ty, tm = t[y], t[m]
                for n, v in vecs[t[j1]][t[j2]]:
                    op = ops[n * dim + ty]
                    if op:
                        acc += v * op[tm]
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
