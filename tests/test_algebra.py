from fractions import Fraction

import pytest

from bernalg import (QQ, BaricAlgebra, CommAlgebra, Matrix, PrimeField, Subspace,
                     generated_ideal, generated_subalgebra, is_ideal, make_family,
                     nilpotency_report, power_chain, plenary_power,
                     subalgebra_on)
from bernalg import algebra as algebra_module
from bernalg.algebra import ChainCapError, _sparse

from conftest import (change_of_basis_copy, fresh_rng, operator_matrix, pair_row_table,
                      random_coordinate_subspace, random_subspace_in, random_table_algebra,
                      random_vector_in, reference_form, reference_mul_coords, reference_rref,
                      reference_subspace_product, scaled_copy)


def span_named(a, *names):
    rows = [a.basis_element(a.index_of(n)).coords for n in names]
    return Subspace(rows, a.dim, a.field)


# ---------------------------------------------------------------- products


def test_bdown_product_shifts_down():
    a = make_family("bdown", 3).algebra
    u2, v1 = a.basis_element(a.index_of("u2")), a.basis_element(a.index_of("v1"))
    assert u2 * v1 == a.basis_element(a.index_of("u1"))


def test_zhevlakov_product_min_rule():
    a = make_family("zhevlakov", 5)
    e3, e5 = a.basis_element(2), a.basis_element(4)
    assert e3 * e5 == a.basis_element(1)  # e2


def test_multiply_by_zero():
    a = make_family("squareshift", 3)
    x = a.element([1, 2, 3])
    assert (x * a.zero_element()).is_zero()


def test_commutativity_random():
    rng = fresh_rng(3)
    for name in ("bdown", "bup"):
        a = make_family(name, 4).algebra
        full = a.full_space()
        for _ in range(40):
            x = a.element(random_vector_in(rng, full))
            y = a.element(random_vector_in(rng, full))
            assert x * y == y * x


def test_dimension_mismatch_rejected():
    a = make_family("squareshift", 3)
    with pytest.raises(ValueError):
        a.element([1, 2])
    other = make_family("squareshift", 2)
    with pytest.raises(ValueError):
        a.basis_element(0) * other.basis_element(0)
    with pytest.raises(ValueError):
        a.subspace_product(a.full_space(), other.full_space())


def test_power_chain_argument_validation():
    a = make_family("squareshift", 3)
    with pytest.raises(ValueError):
        power_chain(a, a.full_space(), "sideways")
    with pytest.raises(ValueError):
        power_chain(a, a.full_space(), "full", max_steps=0)


# ---------------------------------------------------------------- operators


def test_left_mult_of_idempotent_is_diagonal():
    b = make_family("bdown", 2)
    a = b.algebra
    e = a.basis_element(0)
    m = operator_matrix(a, e)
    h = Fraction(1, 2)
    expected = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0],
                                 [0, 0, h, 0], [0, 0, 0, h]])
    assert m == expected


def test_left_mult_of_zero():
    a = make_family("squareshift", 3)
    assert operator_matrix(a, a.zero_element()).is_zero()


def test_left_mult_restricted_shift():
    a = make_family("bdown", 3).algebra
    u_span = span_named(a, "u1", "u2", "u3")
    v1 = a.basis_element(a.index_of("v1"))
    m = operator_matrix(a, v1, u_span)
    # in the basis (u1, u2, u3): u1 -> 0, u2 -> u1, u3 -> u2
    assert m == Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_left_mult_restriction_must_be_invariant():
    a = make_family("bdown", 3).algebra
    v1 = a.basis_element(a.index_of("v1"))
    with pytest.raises(ValueError):
        operator_matrix(a, v1, span_named(a, "u2"))


# ---------------------------------------------------------------- subspace products


def test_product_with_zero_space():
    a = make_family("bdown", 3).algebra
    assert a.subspace_product(a.full_space(), a.zero_space()).is_zero()


def test_bdown_u_times_v():
    a = make_family("bdown", 3).algebra
    u = span_named(a, "u1", "u2", "u3")
    v = span_named(a, "v1")
    assert a.subspace_product(u, v) == span_named(a, "u1", "u2")


def test_squareshift_n_squared():
    a = make_family("squareshift", 3)
    n = a.full_space()
    assert a.subspace_product(n, n) == span_named(a, "e1", "e2")


class _CountedRow(list):
    """A row of a table that counts its reads: row p of the support table,
    one read per support of a product e_p e_q."""

    def __init__(self, row, calls):
        super().__init__(row)
        self.calls = calls

    def __getitem__(self, j):
        self.calls.append(j)
        return super().__getitem__(j)


def test_repeated_or_swapped_product_is_not_recomputed(monkeypatch):
    """bdown(3)'s full space and N are coordinate subspaces, so their
    product is read off the algebra's support table; in a change-of-basis
    copy N is not, and the product runs on `_int_mul`.  Each path counts the
    calls of the kernel it uses: support table reads on the first,
    `_int_mul` on the second, which the first never calls."""
    def bdown3():
        return make_family("bdown", 3)

    def copy():
        b = bdown3()
        return BaricAlgebra(*change_of_basis_copy(b.algebra, b.weight, 1))

    for make, coordinate in ((bdown3, True), (copy, False)):
        table_reads, kernel_calls = [], []

        def count_products(b):
            a = b.algebra
            original = a._int_mul
            monkeypatch.setattr(a, "_int_mul",
                                lambda x, y: kernel_calls.append(1) or original(x, y))
            adj, supp, *rest = a._support_table()
            counted = {p: _CountedRow(supp[p], table_reads) for p in range(a.dim)}
            monkeypatch.setattr(a, "_supports", (adj, counted, *rest))
            return a, b.barideal()
        a, n = count_products(make())
        assert n.is_coordinate() is coordinate
        calls = table_reads if coordinate else kernel_calls
        first = a.subspace_product(a.full_space(), n)
        computed = len(calls)
        assert computed > 0
        assert a.subspace_product(a.full_space(), n) is first
        assert a.subspace_product(n, a.full_space()) is first
        assert len(calls) == computed
        # the memo lives on the algebra: a fresh one computes the product anew
        fresh, _ = count_products(make())
        assert fresh.subspace_product(n, fresh.full_space()) == first
        assert len(calls) == 2 * computed
        if coordinate:
            assert not kernel_calls


def kernel_algebras():
    """(label, algebra) pairs for the integer product kernel: seeded random
    tables, their copies with rationally scaled basis vectors (so that the
    table's denominators make D > 1) and in a seeded random basis, and the
    same random tables over GF(5) and GF(7)."""
    rng = fresh_rng(29)
    out = []
    for n in range(12):
        dim = rng.randint(2, 5)
        a = random_table_algebra(fresh_rng(1000 + n), dim)
        out += [(f"random{n}", a), (f"scaled{n}", scaled_copy(a, None)[0]),
                (f"rebased{n}", change_of_basis_copy(a, None, n)[0])]
        out += [(f"random{n}/GF({p})", random_table_algebra(fresh_rng(1000 + n), dim,
                                                            PrimeField(p)))
                for p in (5, 7)]
    return out


KERNEL_ALGEBRAS = kernel_algebras()


def random_coords(rng, a):
    """A random coordinate vector with zeros and, over the rationals, denominators."""
    field = a.field
    return tuple(field.of(rng.choice((0, 0, 1, -2, 3))) / field.of(rng.choice((1, 2, 3)))
                 for _ in range(a.dim))


def test_kernel_algebras_carry_denominators():
    scaled = [a for label, a in KERNEL_ALGEBRAS if label.startswith("scaled")]
    assert sum(a._den > 1 for a in scaled) >= len(scaled) // 2
    assert all(a._den == 1 for label, a in KERNEL_ALGEBRAS if "GF" in label)


@pytest.mark.parametrize("label, a", KERNEL_ALGEBRAS, ids=[c[0] for c in KERNEL_ALGEBRAS])
def test_mul_coords_matches_the_field_reference(label, a):
    rng = fresh_rng(len(label))
    vectors = [a.basis_element(k).coords for k in range(a.dim)]
    vectors += [a.zero_element().coords] + [random_coords(rng, a) for _ in range(6)]
    for x in vectors:
        for y in vectors:
            assert a.mul_coords(x, y) == reference_mul_coords(a, x, y), (x, y)


@pytest.mark.parametrize("label, a", KERNEL_ALGEBRAS, ids=[c[0] for c in KERNEL_ALGEBRAS])
def test_subspace_product_matches_the_field_reference(label, a):
    rng = fresh_rng(len(label) + 1)
    full = a.full_space()
    spaces = [full, a.zero_space()]
    spaces += [Subspace([random_coords(rng, a) for _ in range(rng.randint(1, a.dim))],
                        a.dim, a.field) for _ in range(4)]
    spaces += [random_subspace_in(rng, full) for _ in range(2)]
    for s1 in spaces:
        for s2 in spaces:
            assert a.subspace_product(s1, s2) == reference_subspace_product(a, s1, s2)


@pytest.mark.parametrize("label, a", KERNEL_ALGEBRAS, ids=[c[0] for c in KERNEL_ALGEBRAS])
def test_int_mul_returns_the_cleared_product_as_a_dense_list(label, a):
    rng = fresh_rng(len(label) + 2)
    vectors = [a.basis_element(k).coords for k in range(a.dim)]
    vectors += [a.zero_element().coords] + [random_coords(rng, a) for _ in range(6)]
    for x in vectors:
        for y in vectors:
            (xs, dx), (ys, dy) = a.field.clear(x), a.field.clear(y)
            prod = a._int_mul(_sparse(xs), _sparse(ys))
            assert type(prod) is list and len(prod) == a.dim
            assert all(type(v) is int for v in prod)
            # D dx dy x y, read back (over GF(p): modulo p)
            scale = a._den * dx * dy
            assert [a.field.back(v, scale) for v in prod] == list(reference_mul_coords(a, x, y))


def test_subspace_product_matches_the_reference_on_square_swapped_and_mixed_pairs():
    rng = fresh_rng(43)
    for n in range(40):
        field, dim = (QQ, PrimeField(5))[n % 2], rng.randint(2, 5)

        def fresh():
            return random_table_algebra(fresh_rng(2000 + n), dim, field)
        a = fresh()
        full = a.full_space()
        s, t = random_subspace_in(rng, full), random_subspace_in(rng, full)
        twin = Subspace.of_int_rows(s.int_rows, dim, field)  # equal to s, another object
        pairs = [(s, s), (s, twin), (s, t), (t, s), (s, a.zero_space()), (a.zero_space(), s),
                 (full, s), (s, full), (full, full), (s, s.plus(t)), (s.meet(t), t)]
        for x, y in pairs:
            want = reference_subspace_product(a, x, y)
            # on the shared algebra a product may come from the memo, filled
            # by the swapped or an equal pair; a fresh algebra computes it
            assert a.subspace_product(x, y) == want, (n, x.int_rows, y.int_rows)
            assert fresh().subspace_product(x, y) == want, (n, x.int_rows, y.int_rows)


def monomial_table_algebra(rng, dim, field):
    """A seeded random table whose every product is a multiple of one basis
    vector (5 vanishes over GF(5)), as in the built-in families."""
    return pair_row_table(rng, dim, field, 0.6)


def test_coordinate_paths_match_the_references():
    """`subspace_product`, `plus`, `leq` and `contains_int` on monomial and
    general tables, with coordinate and other subspaces on either side."""
    rng = fresh_rng(61)
    seen = set()
    for n in range(48):
        field, dim = (QQ, PrimeField(5))[n % 2], rng.randint(1, 5)
        make = monomial_table_algebra if n % 3 else random_table_algebra

        def fresh():
            return make(fresh_rng(3000 + n), dim, field)
        a = fresh()
        full = a.full_space()
        units = full.int_rows
        spaces = [Subspace.of_int_rows(rng.sample(units, rng.randint(0, dim)), dim, field)
                  for _ in range(3)]
        spaces += [random_subspace_in(rng, full) for _ in range(3)] + [full, a.zero_space()]
        for x in spaces:
            assert x.is_coordinate() is all(sum(map(bool, r)) == 1 for r in x.rows)
            vectors = [[rng.choice((0, 0, 1, -2, 5)) if k in x.pivots or rng.random() < 0.2
                        else 0 for k in range(dim)] for _ in range(4)]
            for v in vectors:
                rank = len(reference_rref(list(x.rows) + [[field.of(c) for c in v]],
                                          dim, field)[1])
                assert x.contains_int(v) is (rank == x.dim), (n, x.int_rows, v)
            for y in spaces:
                seen.add((x.is_coordinate(), y.is_coordinate()))
                assert fresh().subspace_product(x, y) == reference_subspace_product(a, x, y)
                rows, pivots = reference_rref(list(x.rows) + list(y.rows), dim, field)
                total = x.plus(y)
                assert (total.rows, total.pivots) == (tuple(rows[:len(pivots)]), pivots)
                assert x.leq(y) is (len(pivots) == y.dim)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def mixed_table_algebra(rng, dim, field):
    """A seeded random table whose products are each a multiple of one
    basis vector or a general row, either possibly zero in the field."""
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            coords = [0] * dim
            if rng.random() < 0.5:
                coords[rng.randrange(dim)] = rng.choice((1, -3, Fraction(2, 3), 5))
            else:
                coords = [rng.choice((0, 1, -1, Fraction(1, 2), 5)) for _ in range(dim)]
            products[(i, j)] = coords
    return CommAlgebra([f"b{k}" for k in range(dim)], products, field)


def test_coordinate_products_span_the_pair_rows_without_reduction(monkeypatch):
    """A product of two coordinate subspaces is the span of the table rows
    D e_i e_j at their pivots; when every such row has a single entry it is
    built as a coordinate subspace without `of_int_rows`."""
    rng = fresh_rng(67)
    reduced, of_int_rows = [], Subspace.of_int_rows

    def recorded(cls, rows, *args):
        reduced.append(rows)
        return of_int_rows(rows, *args)

    monkeypatch.setattr(Subspace, "of_int_rows", classmethod(recorded))
    kinds = set()
    for n in range(60):
        field, dim = (QQ, PrimeField(5))[n % 2], rng.randint(1, 6)
        make = monomial_table_algebra if n % 3 else mixed_table_algebra
        a = make(fresh_rng(4000 + n), dim, field)
        spaces = [Subspace._coordinate(sum(1 << p for p in rng.sample(range(dim), rng.randint(0, dim))),
                                       dim, field)
                  for _ in range(4)]
        for x in spaces:
            for y in spaces:
                rows = [[dict(a._int_rows[i][j]).get(k, 0) for k in range(dim)]
                        for i in x.pivots for j in y.pivots]
                want = of_int_rows(rows, dim, field)
                monomial = all(len(a._int_rows[i][j]) <= 1 for i in x.pivots for j in y.pivots)
                a._products.clear()
                reduced.clear()
                got = a.subspace_product(x, y)
                assert got == want and got.is_coordinate() is want.is_coordinate(), (n, x, y)
                assert (got.int_rows, got.pivots) == (want.int_rows, want.pivots)
                assert bool(reduced) is not monomial, (n, x.pivots, y.pivots)
                kinds.add((monomial, got.is_coordinate()))
    assert kinds == {(True, True), (False, True), (False, False)}


def _product_cases(rng, dim, field) -> list:
    """(table kind, algebra, s1, s2): random bitset operands on a monomial
    table and on one with some two-entry rows, squares and zero operands
    among them."""
    cases = []
    for kind, wide in (("monomial", 0.0), ("mixed", 0.3)):
        a = pair_row_table(rng, dim, field, min(1.0, 3 / dim), wide)
        spaces = [random_coordinate_subspace(rng, dim, field, rng.randint(0, 12))
                  for _ in range(3)]
        spaces.append(a.zero_space())
        cases += [(kind, a, x, y) for x in spaces for y in spaces]
    return cases


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_coordinate_products_match_the_reference_at_every_size(field):
    """Products of bitset subspaces at dims 1..12 and up to the cap, on
    monomial tables and on tables where a touched row has two entries: the
    support table's OR where every touched row has one entry, the kernel
    path otherwise, both equal to `reference_subspace_product` and to the
    `reference_rref` form of the products of the operands' rows."""
    rng = fresh_rng(73)
    seen = set()
    for dim in list(range(1, 13)) + [20, 31, 47, 62, 63, 64]:
        for kind, a, x, y in _product_cases(rng, dim, field):
            square = x == y
            wide = any(len(a._int_rows[p][q]) > 1 for p in x.pivots for q in y.pivots)
            case = (dim, kind, x.pivots, y.pivots)
            assert (a._coordinate_product(x, y, square) is None) is wide, case
            a._products.clear()
            got = a.subspace_product(x, y)
            want = reference_subspace_product(a, x, y)
            assert got == want and hash(got) == hash(want), case
            rows, pivots = reference_form([reference_mul_coords(a, r, t)
                                           for r in x.rows for t in y.rows], dim, field)
            assert (got.rows, got.pivots) == (rows, pivots), case
            assert got.is_coordinate() is all(sum(map(bool, r)) == 1 for r in rows), case
            seen.add((kind, square, wide, x.is_zero() or y.is_zero()))
    assert {(k, sq, w, z) for k, sq, w, z in seen if not z} >= {
        ("monomial", True, False, False), ("monomial", False, False, False),
        ("mixed", True, True, False), ("mixed", False, True, False),
        ("mixed", False, False, False)}
    assert ("monomial", False, False, True) in seen


def test_product_monotone():
    rng = fresh_rng(5)
    a = make_family("bdown", 4).algebra
    full = a.full_space()
    for _ in range(30):
        rows = [random_vector_in(rng, full) for _ in range(rng.randint(0, 3))]
        s = Subspace(rows, a.dim)
        t = s.plus(Subspace([random_vector_in(rng, full)], a.dim))
        r = Subspace([random_vector_in(rng, full)], a.dim)
        assert a.subspace_product(s, r).leq(a.subspace_product(t, r))


# ---------------------------------------------------------------- power chains


def test_squareshift3_principal_chain_terms():
    a = make_family("squareshift", 3)
    chain = power_chain(a, a.full_space(), "principal")
    assert [t for t in chain.terms] == [
        a.full_space(), span_named(a, "e1", "e2"), span_named(a, "e1"),
        a.zero_space()]
    assert chain.nil_index == 4 and chain.stabilized


def test_squareshift3_full_chain_has_plateau():
    a = make_family("squareshift", 3)
    chain = power_chain(a, a.full_space(), "full")
    assert [t for t in chain.terms] == [
        a.full_space(), span_named(a, "e1", "e2"), span_named(a, "e1"),
        span_named(a, "e1"), a.zero_space()]
    assert chain.nil_index == 5
    # a plateau keeps one object, so its memoised products match by identity
    assert chain.terms[3] is chain.terms[2]


def test_zero_multiplication_algebra_chains():
    a = make_family("squareshift", 1)
    for kind in ("full", "principal", "plenary"):
        chain = power_chain(a, a.full_space(), kind)
        assert chain.nil_index == 2
        assert len(chain.terms) == 2


def squareshift_full_nil_oracle(n):
    """Independent count: the only nonzero products are squares, so a basis
    vector e_k is reachable from products of exactly m factors iff m is an
    achievable factor count; the counts for e_k form the interval
    [1, 2^(n-k)] joined over doublings.  The last survivor is e_1 with
    maximal count 2^(n-1), so the full nil index is 2^(n-1) + 1."""
    return 2 ** (n - 1) + 1


@pytest.mark.parametrize("n", range(1, 21))
def test_squareshift_full_nil_index_matches_counting_oracle(n):
    a = make_family("squareshift", n)
    chain = power_chain(a, a.full_space(), "full")
    assert chain.nil_index == squareshift_full_nil_oracle(n)
    assert len(chain.runs) == n + 1  # one run per dimension, then zero


@pytest.mark.parametrize("n", range(1, 21))
def test_zhevlakov_full_nil_index_is_exponential(n):
    a = make_family("zhevlakov", n)
    chain = power_chain(a, a.full_space(), "full")
    assert chain.nil_index == 2 ** (n - 1) + 1
    assert len(chain.runs) == n + 1


def test_full_chain_respects_max_steps():
    a = make_family("squareshift", 5)
    chain = power_chain(a, a.full_space(), "full", max_steps=4)
    assert not chain.stabilized and chain.nil_index is None
    assert len(chain.terms) == 4


def test_full_chain_detects_nonzero_stabilization():
    # u*v = u keeps span{u} fixed forever: N^2 = N^3 = ... = span{u}
    a = CommAlgebra.from_table(["u", "v"], {("u", "v"): {"u": 1}})
    chain = power_chain(a, a.full_space(), "full")
    assert chain.stabilized and chain.nil_index is None
    assert chain.terms[-1] == Subspace([[1, 0]], 2)


def test_full_chain_over_gf5_matches_rationals(gf5):
    over_q = make_family("bdown", 3)
    over_p = make_family("bdown", 3, field=gf5)
    chain_q = power_chain(over_q.algebra, over_q.barideal(), "full")
    chain_p = power_chain(over_p.algebra, over_p.barideal(), "full")
    assert [t.dim for t in chain_p.terms] == [t.dim for t in chain_q.terms] == [4, 2, 1, 0]
    assert chain_p.nil_index == chain_q.nil_index == 4
    rep = nilpotency_report(over_p.algebra, over_p.barideal())
    assert rep == nilpotency_report(over_q.algebra, over_q.barideal())


def test_full_chain_terms_decrease_for_subalgebras(baric_corpus):
    for _, b in baric_corpus:
        a = b.algebra
        n = b.barideal()
        chain = power_chain(a, n, "full")
        for earlier, later in zip(chain.terms, chain.terms[1:]):
            assert later.leq(earlier)


def reference_full_chain(a, s, max_steps=None):
    """The position-by-position recurrence, kept as an oracle: S^i sums the
    product over every split r + s = i, and a plateau that starts at
    position p ends the chain once it has held through position 2p.
    Returns (terms, stabilized, nil_index) like a PowerChain."""
    terms = [s]
    if s.is_zero():
        return terms, True, 1
    plateau = 0  # 0-based index where the current run of equal terms starts
    while True:
        if max_steps is not None and len(terms) >= max_steps:
            return terms, False, None
        i = len(terms) + 1
        new = Subspace.zero(a.dim, a.field)
        for r in range(1, i // 2 + 1):
            new = new.plus(a.subspace_product(terms[r - 1], terms[i - r - 1]))
        if new.is_zero():
            return terms + [new], True, i
        if new != terms[-1]:
            plateau = len(terms)
        terms.append(new)
        if len(terms) >= 2 * (plateau + 1):
            return terms, True, None


def assert_full_chain_matches_reference(a, s, max_steps=None):
    chain = power_chain(a, s, "full", max_steps)
    terms, stabilized, nil_index = reference_full_chain(a, s, max_steps)
    assert chain.terms == tuple(terms)
    assert (chain.stabilized, chain.nil_index) == (stabilized, nil_index)
    assert [chain.term(i) for i in range(1, len(terms) + 1)] == terms
    return chain


@pytest.mark.parametrize("kind", ["squareshift", "zhevlakov", "bdown", "bup"])
def test_full_chain_matches_reference_on_families(kind):
    for n in range(1, 9):
        fam = make_family(kind, n)
        a = getattr(fam, "algebra", fam)
        assert_full_chain_matches_reference(a, a.full_space())
        if a is not fam:
            assert_full_chain_matches_reference(a, fam.barideal())


def test_full_chain_matches_reference_on_baric_corpus_and_plateau(baric_corpus):
    for _, b in baric_corpus:
        assert_shrinking_chain_matches_reference(b.algebra, b.barideal())
        assert_full_chain_matches_reference(b.algebra, b.algebra.full_space())
    # u*v = u: a nonzero plateau from position 2 on
    a = CommAlgebra.from_table(["u", "v"], {("u", "v"): {"u": 1}})
    chain = assert_full_chain_matches_reference(a, a.full_space())
    assert chain.stabilized and chain.nil_index is None


def test_full_chain_matches_reference_on_random_tables():
    rng = fresh_rng(17)
    for _ in range(240):
        a = random_table_algebra(rng, rng.randint(2, 5))
        assert_full_chain_matches_reference(a, a.full_space())
        # a random start subspace need not be a subalgebra: its runs need
        # not shrink, a term can come back, and the chain need not stabilize
        start = random_subspace_in(rng, a.full_space())
        assert_full_chain_matches_reference(a, start, max_steps=40)


def test_truncated_full_chains_match_reference():
    rng = fresh_rng(5)
    cases = [make_family("squareshift", 5), make_family("zhevlakov", 4),
             make_family("bdown", 4).algebra,
             CommAlgebra.from_table(["u", "v"], {("u", "v"): {"u": 1}})]
    cases += [random_table_algebra(rng, 4) for _ in range(4)]
    for a in cases:
        length = len(power_chain(a, a.full_space(), "full").terms)
        for max_steps in range(1, length + 2):
            chain = assert_full_chain_matches_reference(a, a.full_space(), max_steps)
            assert len(chain.terms) == min(max_steps, length)


def test_full_chains_of_random_lines_and_planes_match_reference():
    # the span of one or two random vectors, which is mostly not a subalgebra
    rng = fresh_rng(41)
    subalgebras = 0
    for _ in range(120):
        a = random_table_algebra(rng, rng.randint(2, 5))
        s = Subspace([random_vector_in(rng, a.full_space())
                      for _ in range(rng.choice((1, 1, 2)))], a.dim)
        chain = assert_full_chain_matches_reference(a, s)
        subalgebras += generated_subalgebra(a, map(a.element, s.rows)) == s
        length = chain.runs[-1].end
        for max_steps in sorted({1, 2, max(length // 2, 1), length, length + 1}):
            assert_full_chain_matches_reference(a, s, max_steps)
    assert subalgebras < 60


def test_full_chain_computes_each_run_pair_product_once(monkeypatch):
    a = make_family("squareshift", 12)
    calls = []
    original = a.subspace_product
    monkeypatch.setattr(a, "subspace_product",
                        lambda s1, s2: calls.append(1) or original(s1, s2))
    chain = power_chain(a, a.full_space(), "full")
    runs = len(chain.runs)
    assert (runs, chain.nil_index) == (13, 2 ** 11 + 1)
    assert 0 < len(calls) <= runs * (runs + 1) // 2


def assert_shrinking_chain_matches_reference(a, s):
    """The oracle holds for a subalgebra's full chain, whole and cut at
    every length; its terms shrink, so the chain sums dominant pairs."""
    assert a.subspace_product(s, s).leq(s)
    chain = assert_full_chain_matches_reference(a, s)
    for earlier, later in zip(chain.terms, chain.terms[1:]):
        assert later.leq(earlier)
    for max_steps in range(1, len(chain.terms) + 2):
        assert_full_chain_matches_reference(a, s, max_steps)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_full_chains_of_generated_subalgebras_match_reference(field):
    rng = fresh_rng(23)
    for _ in range(60):
        a = random_table_algebra(rng, rng.randint(2, 5), field)
        gens = [a.element(random_vector_in(rng, a.full_space()))
                for _ in range(rng.choice((1, 2)))]
        assert_shrinking_chain_matches_reference(a, generated_subalgebra(a, gens))


def test_full_chains_of_rebased_families_match_reference():
    # in a changed basis the chain terms are no coordinate subspaces
    cases = [(make_family("squareshift", 6), None), (make_family("zhevlakov", 6), None),
             (make_family("bdown", 5).algebra, make_family("bdown", 5).weight)]
    for a, weight in cases:
        b, w = change_of_basis_copy(a, weight, 3)
        s = b.full_space() if w is None else BaricAlgebra(b, w).barideal()
        assert_shrinking_chain_matches_reference(b, s)
        assert not all(t.is_coordinate() for t in power_chain(b, s, "full").terms)


def test_full_chain_of_a_subalgebra_sums_dominant_pairs_at_end_points(monkeypatch):
    a = make_family("squareshift", 12)
    products, terms, per_term = [], [], []
    original_product = a.subspace_product
    monkeypatch.setattr(a, "subspace_product",
                        lambda s1, s2: products.append(1) or original_product(s1, s2))
    original_term = algebra_module._full_term
    monkeypatch.setattr(algebra_module, "_full_term",
                        lambda ps: terms.append(1) or original_term(ps))
    original_pairs = algebra_module._dominant_pairs

    def dominant_pairs(starts, ends, open_start, pos):
        pairs = original_pairs(starts, ends, open_start, pos)
        per_term.append((len(pairs), len(starts) + 1))
        return pairs

    monkeypatch.setattr(algebra_module, "_dominant_pairs", dominant_pairs)
    chain = power_chain(a, a.full_space(), "full")
    assert chain.nil_index == 2 ** 11 + 1
    # the general rule, a term at every breakpoint, takes 112 terms and 77 products
    assert (len(terms), len(products)) == (67, 67)
    assert len(per_term) == len(terms)
    assert all(0 < pairs <= runs for pairs, runs in per_term)
    assert sum(pairs for pairs, _ in per_term) == 122


def test_full_chain_term_past_the_stored_positions():
    a = make_family("squareshift", 4)
    chain = power_chain(a, a.full_space(), "full")
    assert [(r.start, r.end) for r in chain.runs] == [(1, 1), (2, 2), (3, 4), (5, 8), (9, 9)]
    assert chain.term(1000).is_zero()
    cut = power_chain(a, a.full_space(), "full", max_steps=6)
    assert cut.term(6) == chain.term(6)
    for i in (0, 7):
        with pytest.raises(IndexError):
            cut.term(i)


def test_full_chain_of_a_non_subalgebra_need_not_stabilize(monkeypatch):
    # b0 acts as minus the identity, so the line through x = b0 - 3/2 b1
    # has the powers S^i = <x^i>, a new line at every position
    a = CommAlgebra(["b0", "b1"], {(0, 0): (-1, 0), (0, 1): (0, -1)})
    s = Subspace([(1, Fraction(-3, 2))], 2)
    # S * S is not in S, so the chain keeps the general rule
    assert not a.subspace_product(s, s).leq(s)
    monkeypatch.setattr(algebra_module, "_dominant_pairs", None)
    chain = assert_full_chain_matches_reference(a, s, max_steps=30)
    assert len(chain.runs) == 30 and not chain.stabilized
    monkeypatch.setattr(algebra_module, "_HARD_CAP", 20)
    with pytest.raises(ChainCapError):
        power_chain(a, s, "full")


# ---------------------------------------------------------------- closures


def test_generated_subalgebra_squareshift_top_generates_all():
    a = make_family("squareshift", 5)
    top = a.basis_element(4)
    assert generated_subalgebra(a, [top]) == a.full_space()


def test_generated_subalgebra_empty():
    a = make_family("squareshift", 3)
    assert generated_subalgebra(a, []) == a.zero_space()


def test_generated_subalgebra_bdown():
    a = make_family("bdown", 3).algebra
    gens = [a.basis_element(a.index_of("u3")), a.basis_element(a.index_of("v1"))]
    assert generated_subalgebra(a, gens) == span_named(a, "v1", "u1", "u2", "u3")


def test_generated_ideal_examples():
    a = make_family("bdown", 3).algebra
    assert generated_ideal(a, [a.basis_element(a.index_of("u1"))]) == span_named(a, "u1")
    assert generated_ideal(a, []) == a.zero_space()
    sq = make_family("squareshift", 4)
    assert generated_ideal(sq, [sq.basis_element(1)]) == Subspace(
        [sq.basis_element(0).coords, sq.basis_element(1).coords], 4)


def test_subalgebra_contained_in_ideal_closure():
    rng = fresh_rng(13)
    a = make_family("bup", 4).algebra
    full = a.full_space()
    for _ in range(25):
        gens = [a.element(random_vector_in(rng, full))
                for _ in range(rng.randint(0, 2))]
        sub = generated_subalgebra(a, gens)
        ideal = generated_ideal(a, gens)
        assert sub.leq(ideal)
        for g in gens:
            assert sub.contains(g.coords)


# ---------------------------------------------------------------- ideals


def test_full_space_is_ideal():
    a = make_family("bdown", 3).algebra
    assert is_ideal(a, a.full_space())


def test_squareshift_prefixes_are_ideals():
    a = make_family("squareshift", 5)
    for k in range(1, 5):
        assert is_ideal(a, Subspace([a.basis_element(i).coords for i in range(k)], 5))


def test_bdown_u2_span_not_ideal():
    a = make_family("bdown", 3).algebra
    assert not is_ideal(a, span_named(a, "u2"))


def test_principal_powers_are_ideals(peirce_corpus):
    for _, b, p in peirce_corpus:
        chain = power_chain(b.algebra, p.N, "principal")
        for term in chain.terms:
            assert is_ideal(b.algebra, term)


# ---------------------------------------------------------------- reports


def test_squareshift3_nilpotency_report():
    a = make_family("squareshift", 3)
    rep = nilpotency_report(a, a.full_space())
    assert (rep.nil_index_full, rep.nil_index_principal, rep.solv_index) == (5, 4, 3)


def test_zero_subspace_report():
    a = make_family("squareshift", 3)
    rep = nilpotency_report(a, a.zero_space())
    assert (rep.nil_index_full, rep.nil_index_principal, rep.solv_index) == (1, 1, 1)


def test_bdown4_barideal_indices():
    b = make_family("bdown", 4)
    rep = nilpotency_report(b.algebra, b.barideal())
    assert rep.nil_index_full == 5
    assert rep.nil_index_principal == 5


def test_full_iff_principal_nilpotency(baric_corpus, plain_corpus):
    spaces = [(b.algebra, b.barideal()) for _, b in baric_corpus]
    spaces += [(a, a.full_space()) for _, a in plain_corpus]
    for a, s in spaces:
        rep = nilpotency_report(a, s)
        assert (rep.nil_index_full is None) == (rep.nil_index_principal is None)


def test_plenary_power_helper():
    a = make_family("squareshift", 3)
    n = a.full_space()
    assert plenary_power(a, n, 1) == span_named(a, "e1", "e2")
    assert plenary_power(a, n, 2) == span_named(a, "e1")
    assert plenary_power(a, n, 3).is_zero()


# ---------------------------------------------------------------- barideal


def _barideal_weights(field, rng):
    """Weights of dim 1..7 with the last nonzero entry at every index, zeros
    and nonzeros before it drawn at random, a single nonzero entry, and the
    all-zero weight."""
    values = ([Fraction(1, 3), Fraction(-5, 2), 7, -4, Fraction(9, 4), 1] if field == QQ
              else [1, 2, 3, field.p - 1, Fraction(1, 2), Fraction(-2, 3)])
    out = []
    for dim in range(1, 8):
        out.append([0] * dim)
        for q in range(dim):
            single = [0] * dim
            single[q] = rng.choice(values)
            out.append(single)
            for _ in range(6):
                w = [rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(q)]
                out.append(w + [rng.choice(values)] + [0] * (dim - q - 1))
    return out


@pytest.mark.parametrize("field", (QQ, PrimeField(5), PrimeField(7)), ids=("QQ", "GF5", "GF7"))
def test_barideal_is_the_kernel_of_the_weight(field):
    for w in _barideal_weights(field, fresh_rng(field.p if field != QQ else 0)):
        n = len(w)
        b = BaricAlgebra(CommAlgebra([f"b{k}" for k in range(n)], {}, field), w)
        got, want = b.barideal(), Subspace([w], n, field).null_space()
        assert got == want and got.int_rows == want.int_rows and got.pivots == want.pivots, w
        assert got.is_coordinate() == want.is_coordinate() and hash(got) == hash(want), w
        assert got.rows == want.rows and got.dim == n - any(b.weight), w
        assert b.barideal() is got


# ---------------------------------------------------------------- restriction


def test_subalgebra_on_barideal():
    b = make_family("bdown", 2)
    n_alg = subalgebra_on(b.algebra, b.barideal())
    assert n_alg.dim == 3
    # the induced table keeps u2*v1 = u1
    i_v1 = n_alg.index_of("v1")
    i_u2 = n_alg.index_of("u2")
    i_u1 = n_alg.index_of("u1")
    prod = n_alg.basis_element(i_u2) * n_alg.basis_element(i_v1)
    assert prod == n_alg.basis_element(i_u1)


def test_subalgebra_on_rejects_unclosed():
    a = make_family("squareshift", 3)
    with pytest.raises(ValueError):
        subalgebra_on(a, Subspace([a.basis_element(2).coords], 3))
