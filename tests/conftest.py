import contextlib
import functools
import itertools
import random
from fractions import Fraction

import pytest

from bernalg import (QQ, BaricAlgebra, CommAlgebra, Identity, Matrix, PeirceData,
                     PrimeField, Subspace, Witness, bernstein_witnesses, check_identity,
                     find_idempotent, make_family, peirce, weight_of)
from bernalg.algebra import _sparse, induced_table
from bernalg.bernstein import NotBernsteinError
from bernalg import identities
from bernalg.identities import _weight_for


def bernstein_corpus():
    """All baric corpus members: bdown/bup truncations and jordan3."""
    out = []
    for n in range(2, 9):
        out.append((f"bdown{n}", make_family("bdown", n)))
        out.append((f"bup{n}", make_family("bup", n)))
    out.append(("jordan3", make_family("jordan3")))
    return out


def commutative_corpus():
    """Plain commutative corpus members (no weight)."""
    out = []
    for n in range(2, 9):
        out.append((f"squareshift{n}", make_family("squareshift", n)))
        out.append((f"zhevlakov{n}", make_family("zhevlakov", n)))
    return out


@pytest.fixture(scope="session")
def baric_corpus():
    return bernstein_corpus()


@pytest.fixture(scope="session")
def plain_corpus():
    return commutative_corpus()


@pytest.fixture(scope="session")
def peirce_corpus(baric_corpus):
    """(name, baric algebra, PeirceData) for the whole baric corpus."""
    return [(name, b, peirce(b)) for name, b in baric_corpus]


def non_nilpotent_baric():
    """A Bernstein algebra whose barideal is not nilpotent: u*v = u keeps
    the line through u fixed under multiplication by V."""
    from fractions import Fraction
    a = CommAlgebra.from_table(
        ["e", "u", "v"],
        {("e", "e"): {"e": 1},
         ("e", "u"): {"u": Fraction(1, 2)},
         ("u", "v"): {"u": 1}})
    return BaricAlgebra(a, [1, 0, 0])


def proper_ann_u_baric():
    """A Bernstein algebra with 0 < annU < U: u1*u1 = v is the only
    product inside N, so annU is the line through u2."""
    a = CommAlgebra.from_table(
        ["e", "u1", "u2", "v"],
        {("e", "e"): {"e": 1}, ("e", "u1"): {"u1": Fraction(1, 2)},
         ("e", "u2"): {"u2": Fraction(1, 2)}, ("u1", "u1"): {"v": 1}})
    return BaricAlgebra(a, [1, 0, 0, 0])


def wide_v_bernstein(r: int, s: int, seed: int) -> BaricAlgebra:
    """A Bernstein algebra of Peirce type (1 + r, s) on (e, u1..ur, v1..vs):
    e^2 = e, e u_i = u_i/2, e v_j = 0, U^2 = V^2 = 0, and a seeded random
    bilinear U x V -> U with entries in [-2, 2].  For x = ae + u + v,
    x^2 = a^2 e + (au + 2uv) and (x^2)^2 = a^2 x^2, so every such table
    satisfies the Bernstein identity, whatever dim V is."""
    rng = fresh_rng(seed)
    names = ["e"] + [f"u{i + 1}" for i in range(r)] + [f"v{j + 1}" for j in range(s)]
    table = {("e", "e"): {"e": 1}}
    table.update({("e", f"u{i + 1}"): {f"u{i + 1}": Fraction(1, 2)} for i in range(r)})
    for i in range(r):
        for j in range(s):
            table[f"u{i + 1}", f"v{j + 1}"] = {f"u{k + 1}": rng.randint(-2, 2) for k in range(r)}
    return BaricAlgebra(CommAlgebra.from_table(names, table), [1] + [0] * (r + s))


def peirce_table(r: int, s: int, products: dict) -> BaricAlgebra:
    """e^2 = e, e u_i = u_i/2 and e v_j = 0 on (e, u1..ur, v1..vs) with
    weight (1, 0, ..., 0), plus the given products of N."""
    us = [f"u{i + 1}" for i in range(r)]
    table = {("e", "e"): {"e": 1}, **{("e", x): {x: Fraction(1, 2)} for x in us}, **products}
    a = CommAlgebra.from_table(["e"] + us + [f"v{j + 1}" for j in range(s)], table)
    return BaricAlgebra(a, [1] + [0] * (r + s))


def wide_u2_bernstein(r: int, s: int, seed: int) -> BaricAlgebra:
    """A Bernstein algebra of Peirce type (1 + r, s) with U^2 != 0: the
    wide-V shape with U x U -> V and V x V -> U terms next to U x V -> U,
    each entry nonzero with probability 3/20 and drawn from [-2, 2].  Such
    a table need not be Bernstein, so tables are drawn from the seed until
    the exact scan accepts one whose U^2 is nonzero."""
    return peirce_table(r, s, _wide_u2_products(r, s, seed))


@functools.cache
def _wide_u2_products(r: int, s: int, seed: int) -> dict:
    rng = fresh_rng(seed)
    us, vs = [f"u{i + 1}" for i in range(r)], [f"v{j + 1}" for j in range(s)]
    blocks = ([(x, y, vs) for i, x in enumerate(us) for y in us[i:]]
              + [(x, y, us) for x in us for y in vs]
              + [(x, y, us) for i, x in enumerate(vs) for y in vs[i:]])
    while True:
        products = {(x, y): {z: rng.randint(-2, 2) for z in targets if rng.random() < 0.15}
                    for x, y, targets in blocks}
        b = peirce_table(r, s, products)
        u = peirce(b).U   # e acts diagonally, so the split always succeeds
        if (check_identity(b.algebra, Identity.BERNSTEIN, b.weight) is True
                and not b.algebra.subspace_product(u, u).is_zero()):
            return products


def cancelling_u2_bernstein() -> BaricAlgebra:
    """A Bernstein algebra of type (1 + 4, 2) that the Peirce proof of the
    Bernstein identity declines: u1 v1 = u3, u2 v1 = u4 and u1 u4 = v2 =
    -u2 u3, every other product in N zero, so U (UV) holds v2 while
    u (u v) = ab v2 - ab v2 = 0 for u = a u1 + b u2 + ..., as the identity
    needs; every other condition holds since U v2 = 0 and V^2 = 0."""
    return peirce_table(4, 2, {("u1", "v1"): {"u3": 1}, ("u2", "v1"): {"u4": 1},
                               ("u1", "u4"): {"v2": 1}, ("u2", "u3"): {"v2": -1}})


def jordan_bernstein(r: int, s: int) -> BaricAlgebra:
    """A sparse Jordan-Bernstein algebra of Peirce type (1 + r, s) on
    (e, u1..ur, v1..vs): e^2 = e, e u_i = u_i/2 and u_{2i} v_j = j u_{2i-1},
    every other product zero.  It is built like `wide_v_bernstein`, so it
    is Bernstein.  It is Jordan, as V^2 = 0 and (uv)v = 0 (u_{2i-1} V = 0),
    the structural conditions of Worz-Busekros (Algebras in Genetics,
    1980); not nuclear, as U^2 = 0 != V; and N^3 = 0."""
    names = ["e"] + [f"u{i + 1}" for i in range(r)] + [f"v{j + 1}" for j in range(s)]
    table = {("e", "e"): {"e": 1}}
    table.update({("e", f"u{i}"): {f"u{i}": Fraction(1, 2)} for i in range(1, r + 1)})
    table.update({(f"u{i}", f"v{j}"): {f"u{i - 1}": j}
                  for i in range(2, r + 1, 2) for j in range(1, s + 1)})
    return BaricAlgebra(CommAlgebra.from_table(names, table), [1] + [0] * (r + s))


def gametic(dim: int) -> BaricAlgebra:
    """The simple Mendelian (gametic) algebra of dim alleles (Lyubich 1992):
    e_i e_j = (e_i + e_j)/2, weight 1 on every basis vector.  x^2 = w(x) x,
    so both weighted identities hold, with every basis vector weighted."""
    names = [f"g{i}" for i in range(dim)]
    table = {(names[i], names[j]): {names[k]: Fraction((k == i) + (k == j), 2) for k in {i, j}}
             for i, j in itertools.combinations_with_replacement(range(dim), 2)}
    return BaricAlgebra(CommAlgebra.from_table(names, table), [1] * dim)


def random_vector_in(rng, space: Subspace, lo=-3, hi=3):
    field = space.field
    v = [field.zero] * space.ambient_dim
    for row in space.rows:
        c = rng.randint(lo, hi)
        if c:
            v = [a + field.of(c) * b for a, b in zip(v, row)]
    return tuple(v)


def random_subspace_in(rng, space: Subspace):
    """A random subspace of `space`, spanned by 0..dim random combinations."""
    k = rng.randint(0, space.dim)
    vecs = [random_vector_in(rng, space) for _ in range(k)]
    return Subspace(vecs, space.ambient_dim, space.field)


def random_table_algebra(rng, dim, field=QQ):
    """A seeded random commutative table with small integer coefficients.
    Most tables only map into lower basis indices, which makes them
    nilpotent, often with plateaus in their full chains; the rest are
    unrestricted."""
    triangular = rng.random() < 0.7
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < 0.5:
                continue
            top = min(i, j) if triangular else dim
            coords = [rng.choice((0, 0, 1, -1, 2)) if k < top else 0
                      for k in range(dim)]
            products[(i, j)] = coords
    return CommAlgebra([f"b{k}" for k in range(dim)], products, field)


def pair_row_table(rng, dim, field=QQ, density=0.5, wide=0.0):
    """A seeded random table in which each pair product is nonzero with the
    given probability, and a nonzero one is a multiple of one basis vector
    or, with probability `wide`, a row with two entries (5 vanishes over
    GF(5), so an entry or a whole row may be zero in the field)."""
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < density:
                coords = [0] * dim
                for k in rng.sample(range(dim), 2 if dim > 1 and rng.random() < wide else 1):
                    coords[k] = rng.choice((1, -1, 2, Fraction(1, 2), 5))
                products[(i, j)] = coords
    return CommAlgebra([f"b{k}" for k in range(dim)], products, field)


def random_coordinate_subspace(rng, dim, field=QQ, size=None):
    """The span of `size` (by default a random number of) distinct unit
    vectors of K^dim, as a bitset subspace."""
    size = rng.randint(0, dim) if size is None else min(size, dim)
    return Subspace._coordinate(sum(1 << p for p in rng.sample(range(dim), size)), dim, field)


def reference_form(vectors, dim, field) -> tuple:
    """(rows, pivots): the RREF of the span of vectors by `reference_rref`,
    without its zero rows."""
    rows, pivots = reference_rref([[field.of(x) for x in v] for v in vectors], dim, field)
    return tuple(rows[:len(pivots)]), pivots


def reference_mul_coords(a, x, y) -> tuple:
    """The product of coordinate vectors by field multiply-add over the
    rational table: `mul_coords` before the integer kernel, kept as its
    reference."""
    acc = [a.field.zero] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            row = a.table_row(i, j)
            if not row:
                continue
            c = xi * yj
            for k, coeff in row:
                acc[k] = acc[k] + c * coeff
    return tuple(acc)


def reference_subspace_product(a, s1: Subspace, s2: Subspace) -> Subspace:
    return Subspace([reference_mul_coords(a, x, y) for x in s1.rows for y in s2.rows],
                    a.dim, a.field)


def reference_rref(rows, cols, field):
    """Gauss-Jordan on field scalars; returns (reduced rows, pivot cols).

    `linalg`'s elimination before it went fraction-free, kept as its
    reference.  The reduction is full (pivots are 1, cleared above and
    below), so the output rows are the unique RREF of the input row space,
    zero rows last.
    """
    m = [list(r) for r in rows]
    zero = field.zero
    piv_r = 0
    pivots = []
    for col in range(cols):
        pick = None
        for r in range(piv_r, len(m)):
            if m[r][col]:
                pick = r
                break
        if pick is None:
            continue
        m[piv_r], m[pick] = m[pick], m[piv_r]
        inv = m[piv_r][col]
        # zero entries are kept as they are: sparse rows are common
        if inv != field.one:
            m[piv_r] = [x / inv if x else x for x in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b if b else a for a, b in zip(m[r], m[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    reduced = [tuple(r) for r in m]
    # move zero rows to the bottom, preserving the order of nonzero rows
    nonzero = [r for r in reduced if any(r)]
    n_zero = len(reduced) - len(nonzero)
    width = len(reduced[0]) if reduced else cols
    reduced = nonzero + [tuple([zero] * width)] * n_zero
    return reduced, tuple(pivots)


def sparse_int_mul(a):
    """`a._int_mul` with its dense product turned back into a sparse
    vector, the form the reference scans below compose and accumulate."""
    return lambda x, y: _sparse(a._int_mul(x, y))


def _add_to(acc: dict, vec, c: int) -> None:
    for k, v in vec:
        acc[k] = acc.get(k, 0) + c * v


def reference_scan_degree4(a, weight):
    """First basis 4-tuple where the linearized quartic form is nonzero.

    `identities._scan_degree4` before it applied pair operators: one full
    bilinear integer product per pairing, kept verbatim as its reference.
    """
    pairs, mul = a._int_rows, sparse_int_mul(a)
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    c_pair, c_weight = 2 * dw * dw, a._den ** 2
    for t in itertools.combinations_with_replacement(range(a.dim), 4):
        i, j, k, l = t
        acc = {}
        for p, q in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))):
            x, y = pairs[p[0]][p[1]], pairs[q[0]][q[1]]
            if x and y:
                _add_to(acc, mul(x, y), c_pair)
        if ws is not None:
            for (p, q), (r, s) in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)),
                                   ((k, l), (i, j)), ((j, l), (i, k)), ((j, k), (i, l))):
                c = ws[p] * ws[q]
                if c:
                    _add_to(acc, pairs[r][s], -c_weight * c)
        if any(acc.values()):
            return t
    return None


def reference_scan_degree3(a, weight):
    """First basis triple where the linearized cubic form is nonzero.

    `identities._scan_degree3` before it ran on packed integers: one dict
    accumulation per triple, kept verbatim as its reference.
    """
    pairs, mul, units = a._int_rows, sparse_int_mul(a), [((k, 1),) for k in range(a.dim)]
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    for t in itertools.combinations_with_replacement(range(a.dim), 3):
        i, j, k = t
        acc = {}
        for r, (p, q) in ((k, (i, j)), (j, (i, k)), (i, (j, k))):
            x = pairs[p][q]
            if x:
                _add_to(acc, mul(x, units[r]), dw)
        if ws is not None:
            for r, (p, q) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                c = ws[r]
                if c:
                    _add_to(acc, pairs[p][q], -a._den * c)
        if any(acc.values()):
            return t
    return None


def reference_scan_jordan(a):
    """First ((x-triple), y) where the linearized Jordan form is nonzero.

    `identities._scan_jordan` before it ran on packed integers: one dict
    accumulation per (triple, y), kept verbatim as its reference.
    """
    pairs, mul, units = a._int_rows, sparse_int_mul(a), [((k, 1),) for k in range(a.dim)]
    # P e_y and P (D e_m e_y) recur across tuples, so each is computed once
    # per scan; e_m (P e_y) is met by one (tuple, y) only and is not kept
    xys, pps = {}, {}
    for t in itertools.combinations_with_replacement(range(a.dim), 3):
        i, j, k = t
        for y in range(a.dim):
            acc = {}
            for m, (p, q) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                x = pairs[p][q]
                if not x:
                    continue
                xy = xys.get((p, q, y))
                if xy is None:
                    xy = xys[p, q, y] = mul(x, units[y])
                if xy:
                    _add_to(acc, mul(units[m], xy), 1)
                my = pairs[m][y]
                if my:
                    pq, ym = (p, q), (min(m, y), max(m, y))
                    key = (pq, ym) if pq <= ym else (ym, pq)
                    pp = pps.get(key)
                    if pp is None:
                        pp = pps[key] = mul(x, my)
                    _add_to(acc, pp, -1)
            if any(acc.values()):
                return t, y
    return None


def scans_both_ways(a, ident, weight):
    """The scan's first failing tuple with the support walk and with every
    tuple enumerated."""
    saved = identities._walks
    try:
        out = []
        for walks in (True, False):
            identities._walks = lambda a, form, walks=walks: walks
            out.append(identities._scan(a, ident, weight))
        return out
    finally:
        identities._walks = saved


def reference_left_mult_matrix(a, x, restrict_to=None) -> Matrix:
    """Multiplication by x in the RREF coordinates of `restrict_to` (the
    whole space by default), read column by column through `coords_of`:
    the rational route, kept as the reference of
    `CommAlgebra._int_operator_on`."""
    s = a.full_space() if restrict_to is None else restrict_to
    cols = [s.coords_of(a.mul_coords(x.coords, row)) for row in s.rows]
    if None in cols:
        raise ValueError("restriction subspace is not invariant under this multiplication")
    k = s.dim
    return Matrix(k, k, tuple(cols[j][i] for i in range(k) for j in range(k)), a.field)


def operator_matrix(a, x, s=None) -> Matrix:
    """`CommAlgebra._int_operator_on` for the element x on s (the whole
    space by default) as a rational `Matrix`: its integer rows divided by
    c and by the denominator cleared from x."""
    s = a.full_space() if s is None else s
    xs, dx = a.field.clear(x.coords)
    rows, c = a._int_operator_on(xs, s)
    return Matrix(s.dim, s.dim, tuple(a.field.back(v, c * dx) for r in rows for v in r), a.field)


def reference_annihilator(a, u: Subspace) -> Subspace:
    """{x in U : x*U = 0} as one rational `Matrix` system, kept as the
    reference of `bernstein._annihilator_in_u`."""
    prods = [[a.mul_coords(x, y) for x in u.rows] for y in u.rows]
    system = [[p[t] for p in row] for row in prods for t in range(a.dim)]
    return u.span_of_coords(Matrix.from_rows(system, u.dim, a.field).kernel())


def eigenspace(m: Matrix, lam) -> Subspace:
    """Kernel of (m - lam * id); m must be square.  The rational route of
    `reference_peirce`."""
    if m.rows != m.cols:
        raise ValueError("eigenspace needs a square matrix")
    lam = m.field.of(lam)
    shifted = [[x - lam if i == j else x for j, x in enumerate(m.row(i))] for i in range(m.rows)]
    return Subspace(shifted, m.cols, m.field).null_space()


def reference_peirce(b, e=None) -> PeirceData:
    """The Peirce split through the rational left multiplication matrix and
    `eigenspace`, kept as the reference of `bernstein.peirce`."""
    if e is None:
        e = find_idempotent(b)
    a, n = b.algebra, b.barideal()
    le = reference_left_mult_matrix(a, e, n)
    u = n.span_of_coords(eigenspace(le, b.field.of(Fraction(1, 2))))
    v = n.span_of_coords(eigenspace(le, b.field.zero))
    if u.dim + v.dim != n.dim or u.plus(v) != n:
        raise NotBernsteinError("barideal does not split", bernstein_witnesses(b))
    return PeirceData(e, u, v, n, reference_annihilator(a, u))


def reference_jordan_structural(b, p):
    """The structural Jordan condition in `Element` arithmetic on the RREF
    rows, kept as the reference of `bernstein._jordan_structural`."""
    a = b.algebra
    if not reference_subspace_product(a, p.V, p.V).is_zero():
        return "V*V is nonzero"
    for urow in p.U.rows:
        u = a.element(urow)
        for j in range(p.V.dim):
            vj = a.element(p.V.rows[j])
            for k in range(j, p.V.dim):
                vk = a.element(p.V.rows[k])
                defect = (u * vj) * vk if j == k else (u * vj) * vk + (u * vk) * vj
                if not defect.is_zero():
                    named = (("u", u), ("v", vj)) + ((("w", vk),) if j < k else ())
                    return Witness(named, defect, note="(u v) v does not vanish" if j == k
                                   else "(u v) w + (u w) v does not vanish")
    return True


def reference_verify_weight(b):
    """The weight check in field arithmetic, kept as the reference of
    `bernstein.verify_weight`."""
    zero = b.field.zero
    if all(w == zero for w in b.weight):
        return Witness((), zero, note="weight functional is identically zero")
    a = b.algebra
    for i in range(a.dim):
        for j in range(i, a.dim):
            lhs = zero
            for k, coeff in a.table_row(i, j) or ():
                lhs = lhs + b.weight[k] * coeff
            diff = lhs - b.weight[i] * b.weight[j]
            if diff != zero:
                return Witness((("x", a.basis_element(i)), ("y", a.basis_element(j))),
                               diff, note="weight is not multiplicative on this pair")
    return True


def reference_identity_defect(a, ident, assignment, weight=None):
    """The defect in `Element` arithmetic: `identity_defect` before the
    integer evaluator, kept as its reference."""
    weight = _weight_for(a, ident, weight)
    x = assignment["x"]
    sq = x * x
    if ident is Identity.BERNSTEIN:
        w = weight_of(weight, x)
        return sq * sq - w * w * sq
    if ident is Identity.JORDAN:
        y = assignment["y"]
        return x * (sq * y) - sq * (x * y)
    if ident is Identity.CUBE_WEIGHT:
        return sq * x - weight_of(weight, x) * sq
    if ident is Identity.JACOBI:
        y, z = assignment["y"], assignment["z"]
        return (x * y) * z + (y * z) * x + (z * x) * y
    if ident is Identity.CUBE_ZERO:
        return sq * x
    return sq * sq


def reference_witness_from_tuple(a, ident, weight, xs, y_index):
    """The witness search evaluating one rational `reference_identity_defect`
    per subset sum of basis elements, kept as the reference of
    `identities._witness_from_tuple`."""
    if ident is Identity.JACOBI:
        assignment = dict(zip(ident.variables, map(a.basis_element, xs)))
        residual = reference_identity_defect(a, ident, assignment, weight)
        return Witness(tuple(assignment.items()), residual)
    y = {} if y_index is None else {"y": a.basis_element(y_index)}
    seen = set()
    for size in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, size):
            multiset = tuple(sorted(combo))
            if multiset in seen:
                continue
            seen.add(multiset)
            x = a.zero_element()
            for idx in multiset:
                x = x + a.basis_element(idx)
            assignment = {"x": x, **y}
            residual = reference_identity_defect(a, ident, assignment, weight)
            if not residual.is_zero():
                return Witness(tuple(assignment.items()), residual)
    raise RuntimeError("linearized form is nonzero but no witness was found")


@contextlib.contextmanager
def reference_products(a):
    """Route the element products of `a` through `reference_mul_coords`."""
    a.mul_coords = functools.partial(reference_mul_coords, a)
    try:
        yield a
    finally:
        del a.mul_coords


def rebased(a, weight, rows):
    """The algebra and weight in the basis given by `rows` (old coordinates)."""
    table = induced_table(a, rows, rows)
    assert table is not None
    b = CommAlgebra([f"f{i}" for i in range(a.dim)], table)
    if weight is None:
        return b, None
    return b, tuple(sum((w * c for w, c in zip(weight, row)), Fraction(0)) for row in rows)


def change_of_basis_copy(a, weight, seed):
    """A seeded copy in a random invertible basis with entries in [-2, 2]."""
    rng = fresh_rng(seed)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(a.dim)]
        if Subspace(rows, a.dim).dim == a.dim:
            return rebased(a, weight, rows)


def weighted_basis_copy(b, seed):
    """A seeded copy of a baric algebra in a random invertible basis with
    entries in [-2, 2] in which every basis vector has nonzero weight, the
    shape of the dense copies that reports are benchmarked on: every fused
    weight term of the weighted identity scans is then live."""
    a, rng = b.algebra, fresh_rng(seed)
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(a.dim)]
        if (all(weight_of(b.weight, a.element(r)) for r in rows)
                and Subspace(rows, a.dim).dim == a.dim):
            return BaricAlgebra(*rebased(a, b.weight, rows))


def rebased_copies(alg):
    """Seeded basis permutations, seeded rational changes of basis and a
    copy with rational scales, each as (label, algebra)."""
    a, weight = (alg.algebra, alg.weight) if isinstance(alg, BaricAlgebra) else (alg, None)
    copies = []
    for seed in range(2):
        order = list(range(a.dim))
        fresh_rng(seed).shuffle(order)
        perm = [[int(j == i) for j in range(a.dim)] for i in order]
        copies.append((f"permuted{seed}", rebased(a, weight, perm)))
    copies += [(f"rebased{seed}", change_of_basis_copy(a, weight, seed)) for seed in range(3)]
    copies.append(("scaled", scaled_copy(a, weight)))
    return [(label, b if w is None else BaricAlgebra(b, w)) for label, (b, w) in copies]


SCALES = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(-3, 4), Fraction(7, 5))


def scaled_copy(a, weight):
    """A copy with basis vector i scaled by SCALES[i % 5], so the table and
    the weight both carry denominators."""
    rows = [[SCALES[i % len(SCALES)] if j == i else 0 for j in range(a.dim)]
            for i in range(a.dim)]
    return rebased(a, weight, rows)


def span_elements(space: Subspace):
    """Every element of a subspace over a prime field, as a frozenset."""
    field = space.field
    vals = [field.of(i) for i in range(field.p)]
    out = set()
    for coeffs in itertools.product(vals, repeat=space.dim):
        v = [field.zero] * space.ambient_dim
        for c, row in zip(coeffs, space.rows):
            if c != field.zero:
                v = [a + c * b for a, b in zip(v, row)]
        out.add(tuple(v))
    return frozenset(out)


def all_subspaces_within(space: Subspace):
    """Every subspace of `space` over its prime field, found by growing
    spans one vector at a time (layer by layer in dimension)."""
    field = space.field
    vectors = [v for v in span_elements(space)
               if any(x != field.zero for x in v)]
    zero = Subspace.zero(space.ambient_dim, field)
    found = {zero}
    layer = {zero}
    for _ in range(space.dim):
        grown = set()
        for s in layer:
            for v in vectors:
                if not s.contains(v):
                    grown.add(s.plus(Subspace([v], space.ambient_dim, field)))
        layer = grown
        found |= layer
    return found


@pytest.fixture(scope="session")
def gf5():
    return PrimeField(5)


def fresh_rng(seed=0):
    return random.Random(seed)
