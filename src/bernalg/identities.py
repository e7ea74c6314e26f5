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
witness at subset sums of each variable's slots.  At the first tuple
(0, ..., 0) the form is a positive multiple of the defect at e_0 for every
variable, which is also the first witness tried there, so `check_identity`
evaluates that one defect before it sets up a scan: on a Bernstein algebra
with its idempotent first, most failing identities fail there.

Everything runs on the algebra's integer table (D times the structure
constants) and the weight times Dw, each term weighted to one positive
multiple of its rational value, so verdicts and first failing tuples are
the rational ones.  The form also holds the scan's plan (`_plan`): one step
per product monomial, a vector factor times the packed operator of the
other factor, with its sign and the kind and slots of each factor.  A weight
monomial rides on the product whose operator factor holds its weight slots,
through coordinate dim, where e_n e_dim is a multiple of e_n: w(a) w(b)
(c d) on (a b)(c d), w(c) (a b) on c (a b).  It holds too the
exponents of a bound on the sums, built up each monomial's tree
(`_digit_bound`), and the support tests of the walk.  The scan (`_scan`)
binds the plan to the algebra and accumulates a tuple's sum in one int:
rows D e_i e_j are packed on first use as sum_k v_k 2^(B k), with B from the
bound, so that `acc == 0` exactly when the unpacked sum is zero.

On a sparse table most tuples are zero in every step, so the scan walks
(`_walk`) the tuples in scan order one slot at a time, keeping at each slot
only the values at which some step can still be nonzero: the step's pair
factors nonzero, an operator factor acting on some row, and at its last
slot the support of its vector factor meeting the columns where its
operator is nonzero, all read as bitmasks off the algebra's one support
table (`CommAlgebra._support_table`, kept with it while it lives, and read
by its products of coordinate subspaces too).  The walk only chooses
tuples, and it skips only tuples at which every step is zero; the scan sums
every step at every tuple it gets.  A table with half its entries nonzero
or more is enumerated, every tuple, and so is one with fewer than 7 basis
vectors (`_SMALL`) for a form of one multiset (`_walks`); Jordan's form, of
two, walks it.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import NamedTuple

from .algebra import CommAlgebra, Element, _dense, _Lazy, _sparse
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
    terms: tuple       # (coefficient, weight variables, tree, D and Dw exponents to the multiple)
    monomials: tuple   # (multiplicity, weight slots, canonical tree over slots)
    bound: tuple       # see `_digit_bound`
    dots: tuple        # the scan's plan, derived by `_plan`
    columns: tuple
    fused: tuple       # (u, h): the steps' multiplicity up to sign, the weight monomials'
    tests: tuple       # per slot, the support tests of the walk (see `_plan`)
    drops: bool        # whether a scan drops the made grids' rows behind t_0


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
    # each term brought to the common multiple D^products Dw^weights
    scaled = tuple((c, ws, tree, products + 1 - len(_leaves(tree)), weights - len(ws))
                   for c, ws, tree in terms)
    bound = {}   # exponents of (D, Dw, max |ws|, dim, M) -> the monomials' total |multiplicity|
    for n, ws, tree in monomials:
        leaves, e, f = _shape(tree)
        exponents = (products + 1 - leaves, weights - len(ws), len(ws), e, f)
        bound[exponents] = bound.get(exponents, 0) + abs(n)
    return _Form(variables, slots, groups, products, weights, scaled, monomials,
                 tuple((n, e) for e, n in bound.items()), *_plan(groups, monomials))


def _plan(groups: tuple, monomials: tuple) -> tuple:
    """The scan's steps, one per product monomial x y of the form, taken as
    the vector factor y times the operator of x (the packed columns D x e_n):
    the operator of a leaf (a table row), else of a factor fixed while the
    last multiset varies, else of one holding slot 0.  A factor is (pair,
    weighted, i, j), the vector D e_p e_q (a pair) or e_q (a leaf, i = j)
    at p = t_i and q = t_j.  A dot step is (sign, vector factor, operator
    factor); for m (y S) a column step (sign, S, y, m) reads S_n times
    column m of the operator of e_n e_y.  Weight monomials w(slots of x) y
    ride on x y, the weighted factor x carrying its slots' weight at
    coordinate dim (see `_scan`).  The steps share one multiplicity u up to
    sign, the weight monomials one h; fused is (u, h).

    The walk's tests are, per slot s, (bit, test) for the step of that bit
    (dots, then columns), test(v, t) the values of t_s at
    which the step can still be nonzero, from the scan's masks v and the
    slots before s (see `_walk`).  A step with no test at a slot passes
    there.  They are the scan's only pruning, and they only choose tuples:
    a tuple they skip is zero in every step, and a tuple they keep sums
    every step.  `drops` says whether no tuple after t_0 passes p reads
    row p of the grids that the scan makes for its pair factors."""
    inner = set(range(sum(groups[:-1]), sum(groups)))
    weight_terms = {(ws, tree): n for n, ws, tree in monomials if ws}
    units = {abs(n) for n, ws, _ in monomials if not ws}
    fused = {(n, len(ws)) for (ws, _), n in weight_terms.items()}

    def factor(f, weighted: bool) -> tuple:
        pair = not isinstance(f, int)
        return (pair, weighted, *(f if pair else (f, f)))

    dots, columns = [], []
    for n, ws, tree in monomials:
        if ws:
            continue
        if len(_leaves(tree)) > 4:
            raise ValueError(f"no scan for the monomial {tree!r} of degree above 4")
        sign = 1 if n > 0 else -1
        if not all(len(_leaves(f)) <= 2 for f in tree):   # m (y S): leaves sort first
            columns.append((sign, factor(tree[1][1], False), tree[1][0], tree[0]))
            continue
        x, y = sorted(tree, key=lambda f: (not isinstance(f, int), bool(inner & set(_leaves(f))),
                                           0 not in _leaves(f)))
        xf, yf = (factor(f, weight_terms.pop((tuple(sorted(_leaves(f))), g), None) is not None)
                  for f, g in ((x, y), (y, x)))
        if yf[1] and not yf[0]:
            raise ValueError(f"no scan for the weight monomial on {tree!r}")
        dots.append((sign, yf, xf))
    if weight_terms or len(units) > 1 or len(fused) > 1:
        raise ValueError("no scan: the steps' multiplicities differ, or the weight terms "
                         "do not ride on the product terms")

    group = [g for g, n in enumerate(groups) for _ in range(n)]
    found = {}   # (slot, step) -> the step's tests at that slot

    def meets(y, x):   # at its last slot a dot step's factors must meet
        last = max(*y[2:], *x[2:])
        if y[0] and y[3] == last > max(x[2:]):
            return functools.partial(_meet, y[1], y[2], x)
        if x[3] == last > max(y[2:]):
            return functools.partial(_meet, x[1], x[2] if x[0] else None, y)
        return None

    # per step its factors, each with its role, and the test at its last
    # slot; a weighted vector meets a leaf operator at dim, so that leaf
    # gets no row test
    specs = [((y, "vector"), (x, "operator" if x[0] or not y[1] else None), meets(y, x))
             for _, y, x in dots]
    specs += [((f, "vector"), (factor(y, False), "operator"), (factor(m, False), "operator"),
               y > max(*f[2:], m) and functools.partial(_column, *f[2:], m))
              for _, f, y, m in columns]
    for k, (*factors, exact) in enumerate(specs):
        last = max(i for f, _ in factors for i in f[2:])
        if exact:
            found.setdefault((last, k), []).append(exact)
        for (pair, weighted, i, j), role in factors:
            upper = pair and group[i] == group[j]
            for s in range(i, j + 1) if role else ():
                # see `_factor`; a pair is tested below its last slot only
                # within a multiset, and at the step's last slot only when
                # nothing tests the step there
                if s < last and (upper or s in (i, j)) or s == j == last and not exact:
                    found.setdefault((s, k), []).append(
                        functools.partial(_factor, weighted, role == "operator", i, j, upper))
    tests = tuple(tuple((1 << k, ts[0] if len(ts) == 1 else functools.partial(_every, tuple(ts)))
                        for (at, k), ts in sorted(found.items()) if at == s)
                  for s in range(sum(groups)))
    # when every dot factor's first slot lies in the first multiset, no
    # tuple after t_0 passes p reads row p of the grids made for them; a
    # column step reads e_n e_y at any n
    drops = not columns and all(f[2] < groups[0] for _, y, x in dots for f in (y, x))
    return (tuple(dots), tuple(columns),
            (units.pop(), fused.pop()[0] if fused else 0), tests, drops)


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
    acc = [0] * a.dim
    for c, weights, tree, e, f in form.terms:
        c *= d ** e * dw ** f
        for v in weights:
            c *= sum(ws[k] * x for k, x in memo[v])
        if c:
            for k, x in _tree_value(a, memo, tree):
                acc[k] += c * x
    return acc, d ** form.products * dw ** form.weights


def _tree_value(a: CommAlgebra, memo: dict, tree) -> tuple:
    """The sparse integer value of a product tree, each subtree's value
    kept in memo (which holds the leaves).  A module function, not a
    closure: a recursive closure refers to itself, and the cycle would keep
    the algebra alive until the cyclic collector runs."""
    out = memo.get(tree)
    if out is None:
        out = memo[tree] = _sparse(a._int_mul(_tree_value(a, memo, tree[0]),
                                              _tree_value(a, memo, tree[1])))
    return out


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


# Below this dimension a scan of one multiset does not walk: on the families
# making the masks costs more than the tuples they skip (up to dimension 8 on
# bdown and bup).
_SMALL = 7


def _walks(a: CommAlgebra, form: _Form) -> bool:
    """Whether a scan of the form walks the support of the algebra's table
    rather than enumerate every tuple: when under half of its dim^3 entries
    are nonzero and, for a form of one multiset, it is not small."""
    return ((len(form.groups) > 1 or a.dim >= _SMALL)
            and 2 * a._int_nonzeros < a.dim ** 3)


def _walk(masks: _Masks, groups: tuple, tests: tuple, steps: int):
    """The tuples in scan order, one sorted multiset per group, at which
    some step passes all its support tests (`_plan`) on the masks.  A step
    stays live while its tests pass, and a slot's values are the union of
    its live steps' tests; so every tuple the walk skips is zero in every
    step, its one invariant."""
    last, every = len(tests) - 1, masks.low
    starts = frozenset(itertools.accumulate(groups[:-1], initial=0))

    def visit(t: tuple, s: int, alive: int):
        found, free, todo = [], alive, 0   # found: each tested step's bit, then its mask
        for bit, test in tests[s]:
            if alive & bit:
                m = test(masks, t)
                found.append(bit)
                found.append(m)
                free ^= bit
                todo |= m
        if free:
            todo = every
        if s not in starts:
            todo = todo >> t[-1] << t[-1]
        while todo:
            low = todo & -todo
            todo ^= low
            u = (*t, low.bit_length() - 1)
            if s == last:
                yield u
                continue
            live = free
            for k in range(0, len(found), 2):
                if found[k + 1] & low:
                    live |= found[k]
            yield from visit(u, s + 1, live)

    try:
        yield from visit((), 0, (1 << steps) - 1)
    finally:
        visit = None   # the recursive closure refers to itself


class _Masks:
    """A scan's view of the algebra's `_support_table`.  With a weight bit
    dim stands for coordinate dim, where e_n e_dim = c_weight e_n, and a
    weighted factor has w_p w_q there (a pair) or w_q (a leaf)."""

    def __init__(self, a: CommAlgebra, ws):
        self.pairs = a._int_rows
        self.adj, self.supp, self.cols, self.meet, self.filled = a._support_table()
        self.ws, self.fused = ws, ws is not None
        self.low, self.top = (1 << a.dim) - 1, 1 << a.dim
        self.wmask = sum(1 << k for k, w in enumerate(ws or ()) if w)


# The walk's tests (see `_plan`): each gives, from a scan's masks v and the
# tuple t so far, the values of the next slot at which its step can be
# nonzero.

def _factor(weighted: bool, acts: bool, i: int, j: int, upper: bool, v: _Masks, t: tuple) -> int:
    """The values of slot s = len(t) at which the factor (t_i, t_j) can
    still be nonzero, or act on some row if acts: at s = i the p whose row
    has a nonzero entry (at some q >= p when upper), below j those up to the
    last entry of row t_i that can serve, and at j those entries."""
    if len(t) == i:
        return v.filled[upper] | v.wmask if weighted else v.filled[upper]
    p = t[i]
    row = v.adj[p] | v.wmask if weighted and v.ws[p] else v.adj[p]
    if acts and not v.fused:
        row = v.meet[p][v.filled[False]]
    return row if len(t) == j else (1 << row.bit_length()) - 1


def _reach(f, v: _Masks, t: tuple) -> int:
    """The n for which the factor f at t times e_n can be nonzero; a leaf
    has p = q, so its weight is nonzero when w_p w_q is."""
    pair, weighted, i, j = f
    p, q = t[i], t[j]
    m = v.supp[p][q] if pair else 1   # nonzero when e_p e_q, or e_q, is
    out = v.cols[m] if pair else v.adj[q]
    if not v.fused:
        return out
    return out | (v.top if m else 0) | (v.low if weighted and v.ws[p] and v.ws[q] else 0)


def _meet(weighted: bool, i, f, v: _Masks, t: tuple) -> int:   # (t_i, q), or e_q if i is None, times f
    c = _reach(f, v, t)
    out = c & v.low if i is None else v.meet[t[i]][c & v.low]
    return out | v.wmask if weighted and (i is None or v.ws[t[i]]) and c & v.top else out


def _column(i: int, j: int, m: int, v: _Masks, t: tuple) -> int:   # e_n e_y, n in (t_i, t_j), times e_m
    row, out = v.adj[t[m]], 0
    for n, _ in v.pairs[t[i]][t[j]]:
        out |= v.meet[n][row]
    return out


def _every(tests: tuple, v: _Masks, t: tuple) -> int:
    out = -1
    for test in tests:
        out &= test(v, t)
    return out


def _scan(a: CommAlgebra, ident: Identity, weight):
    """First tuple (all slots, concatenated) in scan order where the
    linearized form is nonzero, or None.  The form's plan is bound to the
    algebra: table rows are packed, and each kind of factor's vectors and
    operators made, on first use.  A weighted factor has w_p w_q (a pair)
    or w_q (a leaf q) at coordinate dim, where e_n e_dim = c_weight e_n, so
    a weighted leaf's operator is q's plus c_weight w_q times the identity.
    The tuples come from one stream: a sparse table's walk (`_walk`), on
    masks made up front, which skips only tuples at which every step is
    zero, else every tuple in scan order.  Each tuple sums every step.
    `check_identity` has decided the first tuple by then, and scans only
    when the form vanishes there."""
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
        x = pairs[p][q] if pair else ((q, 1),)
        w = (ws[p] * ws[q] if pair else ws[q]) if weighted else 0
        return x + ((dim, w),) if w else x

    def operator_of(x) -> list:   # the packed columns D x e_n, never changed in place
        out = ()
        for m, v in x:
            r = rows[m]
            out = ([o + v * e for o, e in zip(out, r)] if out
                   else r if v == 1 else [v * e for e in r])
        return out

    def grid(make, pair: bool) -> list:   # [p][q] is make(p, q), made on first use; a leaf's [any][q]
        made = [_Lazy(functools.partial(make, p)) for p in range(dim if pair else 1)]
        return made if pair else made * dim

    # one table of vectors and one of operators per kind of factor, (pair, weighted)
    vectors = _Lazy(lambda kind: pairs if kind == (True, False)
                    else grid(functools.partial(vector, *kind), kind[0]))
    operators = _Lazy(lambda kind: [rows] * dim if kind == (False, False)
                      else grid(lambda p, q: operator_of(vectors[kind][p][q]), kind[0]))
    dots = [(*y[2:], vectors[y[:2]], *x[2:], operators[x[:2]], sign) for sign, y, x in form.dots]
    columns = [(*f[2:], pairs, y, operators[True, False], m, sign)
               for sign, f, y, m in form.columns]
    # the grids made for pair factors, whose rows below t_0 no later tuple reads
    made = [g for table in (vectors, operators) for kind, g in table.items()
            if kind[0] and g is not pairs] if form.drops else []
    if _walks(a, form):
        tuples = _walk(_Masks(a, ws), form.groups, form.tests, len(dots) + len(columns))
    else:   # every tuple: the heads from the outer multisets, then the last one's
        *outer, k = form.groups
        multisets = functools.partial(itertools.combinations_with_replacement, range(dim))
        tuples = (head + t for head in map(sum, itertools.product(*map(multisets, outer)),
                                            itertools.repeat(()))
                  for t in multisets(k))

    lead = 0
    try:
        for t in tuples:
            if made and t[0] != lead:
                for grid_rows in made:
                    for p in range(lead, t[0]):
                        grid_rows[p].clear()
                lead = t[0]
            acc = 0
            for i1, j1, vecs, i2, j2, ops, sign in dots:
                vec = vecs[t[i1]][t[j1]]
                if vec:
                    op = ops[t[i2]][t[j2]]
                    if op:
                        s = sum(v * op[n] for n, v in vec)
                        acc = acc + s if sign > 0 else acc - s
            for i, j, vecs, y, ops, m, sign in columns:   # column m of e_n e_y's operator
                ty, tm = t[y], t[m]
                for n, v in vecs[t[i]][t[j]]:
                    op = ops[n][ty]
                    if op:
                        acc += sign * v * op[tm]
            if acc:
                return t
        return None
    finally:
        rows = None   # pack_row refers to rows


def _subset_sums(positions: tuple) -> list:
    """Distinct subset sums of basis vectors as sparse integer vectors,
    smallest supports first."""
    multisets = dict.fromkeys(tuple(sorted(c)) for size in range(1, len(positions) + 1)
                              for c in itertools.combinations(positions, size))
    return [tuple((k, m.count(k)) for k in sorted(set(m))) for m in multisets]


def _witness_at(a: CommAlgebra, ident: Identity, xs, ws, dw: int):
    """The Witness at the sparse integer vectors xs (in the order of
    `ident.variables`) when the defect there is nonzero, else None; only
    then is anything built as rational elements."""
    v, m = _int_defect(a, ident, xs, ws, dw)
    if not any(v):
        return None
    assignment = tuple((name, Element(a, a._back(_dense(x, a.dim), 1)))
                       for name, x in zip(ident.variables, xs))
    return Witness(assignment, Element(a, a._back(v, m)))


def _witness_from_tuple(a, ident, weight, t):
    """A witness for the identity from a failing tuple of the scan: by
    polarization some choice of a subset sum of each variable's slots has
    a nonzero defect (the raise guards that argument), and the first such
    choice is returned."""
    ws, dw = (None, 1) if weight is None else QQ.clear(weight)
    for xs in itertools.product(*(_subset_sums([t[s] for s in slots])
                                  for slots in _form(ident).slots)):
        found = _witness_at(a, ident, xs, ws, dw)
        if found is not None:
            return found
    raise RuntimeError("linearized form is nonzero but no witness was found")


def check_identity(a: CommAlgebra, ident: Identity, weight=None):
    """True if the identity holds for every element of the algebra, else a
    Witness.  Only rational algebras are accepted: the multilinearization
    argument needs an infinite field of characteristic zero.

    The defect at every variable e_0 decides the first tuple (0, ..., 0)
    of the scan before any scan is set up: the form's sum there is a
    positive multiple of that defect, and e_0 for every variable is the
    first subset-sum choice `_witness_from_tuple` tries at that tuple, so a
    nonzero defect is the witness the scan would lead to.  When e_0 e_0 = 0
    that defect is 0 unevaluated, as every term's tree holds a product of
    two leaves; a term with a bare leaf, such as w(x)^2 x, would void this."""
    if a.field != QQ:
        raise ValueError("identity checking is only supported over the rationals")
    weight = _weight_for(a, ident, weight)
    if a._int_rows[0][0]:
        ws, dw = (None, 1) if weight is None else QQ.clear(weight)
        first = _witness_at(a, ident, (((0, 1),),) * len(ident.variables), ws, dw)
        if first is not None:
            return first
    bad = _scan(a, ident, weight)
    return True if bad is None else _witness_from_tuple(a, ident, weight, bad)
