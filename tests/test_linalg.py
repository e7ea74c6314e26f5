from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bernalg import QQ, BaricAlgebra, CommAlgebra, Matrix, PrimeField, Subspace
from bernalg.linalg import _echelon, solve_row_combinations

from conftest import (all_subspaces_within, eigenspace, fresh_rng, reference_form, reference_rref,
                      span_elements)


def mat(rows):
    return Matrix.from_rows(rows)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------- rref


def test_rref_proportional_rows():
    assert mat([[2, 4], [1, 2]]).rref() == mat([[1, 2], [0, 0]])


def test_rref_identity_fixed():
    eye = Matrix.identity(3)
    assert eye.rref() == eye


def test_rref_swap():
    # by hand: swap rows, pivots normalize to the identity
    assert mat([[0, 1], [1, 0]]).rref() == mat([[1, 0], [0, 1]])


small_entries = st.integers(min_value=-9, max_value=9).map(Fraction)
small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda c: st.lists(
        st.lists(small_entries, min_size=c, max_size=c), min_size=1, max_size=5))


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(rows):
    m = mat(rows)
    assert m.rref().rref() == m.rref()


@given(small_matrix)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = mat(rows)
    assert m.rank() + m.kernel().dim == m.cols


@given(small_matrix)
@settings(max_examples=40, deadline=None)
def test_kernel_annihilates(rows):
    m = mat(rows)
    zero = [Fraction(0)] * m.rows
    for v in m.kernel().rows:
        out = [sum(m.at(i, j) * v[j] for j in range(m.cols)) for i in range(m.rows)]
        assert out == zero


# ---------------------------------------------------------------- kernel


def test_kernel_zero_matrix_full():
    assert Matrix.zeros(2, 2).kernel() == Subspace.full(2)


def test_kernel_identity_trivial():
    assert Matrix.identity(3).kernel() == Subspace.zero(3)


def test_kernel_single_row():
    assert mat([[1, 1]]).kernel() == Subspace([[1, -1]], 2)


# ---------------------------------------------------------------- spans


def test_empty_span_is_zero():
    assert Subspace([], 3) == Subspace.zero(3)


def test_dependent_vectors_collapse():
    s = Subspace([[1, 0], [2, 0]], 2)
    assert s.dim == 1
    assert s == Subspace([[1, 0]], 2)


def test_independent_vectors_fill():
    # rank check by hand: det [[1,1],[1,-1]] = -2 != 0
    assert Subspace([[1, 1], [1, -1]], 2) == Subspace.full(2)


def test_sum_with_zero():
    s = Subspace([[1, 2, 3]], 3)
    assert s.plus(Subspace.zero(3)) == s


def test_intersect_plane_line():
    plane = Subspace([[1, 0], [0, 1]], 2)
    line = Subspace([[1, 1]], 2)
    assert plane.meet(line) == line


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        Subspace([[1, 0]], 2).plus(Subspace([[1, 0, 0]], 3))
    with pytest.raises(ValueError):
        Subspace([[1, 0]], 2).meet(Subspace([[1, 0, 0]], 3))
    with pytest.raises(ValueError):
        Subspace([[1, 0]], 2).contains((1, 0, 0))


def test_contains_trivia():
    assert Subspace.zero(2).contains((0, 0))
    assert not Subspace([[1, 0]], 2).contains((0, 1))


def random_subspace_5d(rng):
    k = rng.randint(0, 4)
    return Subspace([[rng.randint(-4, 4) for _ in range(5)] for _ in range(k)], 5)


def test_dimension_formula_random_5d():
    rng = fresh_rng(7)
    for _ in range(120):
        s1, s2 = random_subspace_5d(rng), random_subspace_5d(rng)
        total = s1.plus(s2)
        meet = s1.meet(s2)
        assert s1.dim + s2.dim == total.dim + meet.dim
        assert meet.leq(s1) and meet.leq(s2)
        assert s1.leq(total) and s2.leq(total)


def test_equality_agrees_with_double_inclusion():
    rng = fresh_rng(11)
    for _ in range(150):
        s1, s2 = random_subspace_5d(rng), random_subspace_5d(rng)
        assert (s1 == s2) == (s1.leq(s2) and s2.leq(s1))


# ---------------------------------------------------------------- eigenspaces


def test_eigenspace_identity():
    assert eigenspace(Matrix.identity(3), 1) == Subspace.full(3)


def test_eigenspace_zero_matrix():
    assert eigenspace(Matrix.zeros(3, 3), 0) == Subspace.full(3)


def test_eigenspace_diagonal():
    m = mat([[1, 0, 0], [0, F("1/2"), 0], [0, 0, 0]])
    assert eigenspace(m, F("1/2")) == Subspace([[0, 1, 0]], 3)


# ---------------------------------------------------------------- solving


def test_solve_row_combination():
    rows = [(F(1), F(1), F(0)), (F(0), F(1), F(1))]
    coeffs, outside = solve_row_combinations(rows, [(F(2), F(3), F(1)), (F(0), F(0), F(1))], 3)
    assert coeffs == (F(2), F(1))
    assert outside is None


# ---------------------------------------------------------------- GF(p) oracle


def test_exhaustive_lattice_against_enumeration(gf5):
    # every subspace of GF(5)^d for d <= 3; sums and intersections agree
    # with the element-set oracle and the dimension formula
    for d in (2, 3):
        ambient = Subspace.full(d, gf5)
        subs = sorted(all_subspaces_within(ambient), key=lambda s: (s.dim, s.rows and str(s.rows)))
        expected = {2: 8, 3: 64}[d]
        assert len(subs) == expected
        sets = {s: span_elements(s) for s in subs}
        for s1 in subs:
            for s2 in subs:
                meet = s1.meet(s2)
                assert sets.setdefault(meet, span_elements(meet)) == sets[s1] & sets[s2]
                total = s1.plus(s2)
                assert s1.leq(total) and s2.leq(total)
                assert total.dim == s1.dim + s2.dim - meet.dim


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(3)
    with pytest.raises(ValueError):
        PrimeField(2)
    PrimeField(5)
    PrimeField(7)


def test_gf5_rational_coercion(gf5):
    # 1/2 = 3 mod 5
    assert gf5.of(Fraction(1, 2)) == gf5.of(3)


def test_rational_coercion_keeps_fractions_and_converts_the_rest(gf5):
    x = Fraction(3, 6)
    assert QQ.of(x) is x
    for value, want in ((2, Fraction(2)), ("3/6", Fraction(1, 2)), (True, Fraction(1))):
        got = QQ.of(value)
        assert type(got) is Fraction and got == want
    with pytest.raises(TypeError):
        QQ.of(gf5.of(2))


# ---------------------------------------------------------------- integer core
#
# `Subspace` keeps primitive integer RREF rows and eliminates without
# fractions; every operation must agree with Gauss-Jordan on field scalars
# (`conftest.reference_rref`) on seeded matrices over QQ, GF(5) and GF(7).

ORACLE_FIELDS = [QQ, PrimeField(5), PrimeField(7)]
ORACLE_CASES = ("random", "rank_deficient", "zero_and_duplicate", "huge")


def oracle_scalar(rng, field, case):
    if case == "huge":  # numerators and denominators just under MAX_DIGITS
        num = rng.choice((-1, 1)) * rng.randint(10 ** 997, 10 ** 998)
        den = rng.randint(10 ** 996, 10 ** 997)
        while field != QQ and den % field.p == 0:
            den += 1
        return field.of(Fraction(num, den)) if rng.random() < 0.8 else field.zero
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.7 else field.zero
    return field.of(rng.randrange(field.p))


def oracle_rows(rng, field, case, cols):
    """Seeded rows of one kind; `huge` rows are few so the reference stays fast."""
    if case == "huge":
        return [[oracle_scalar(rng, field, case) for _ in range(cols)]
                for _ in range(rng.randint(1, 3))]
    base = [[oracle_scalar(rng, field, case) for _ in range(cols)]
            for _ in range(rng.randint(1, 5))]
    if case == "random":
        return base
    # more rows than the base rows they combine (all but the last): rank-deficient
    rows = [[sum((oracle_scalar(rng, field, "random") * b[t] for b in base[:-1]), field.zero)
             for t in range(cols)] for _ in range(len(base) + 1)]
    if case == "zero_and_duplicate":
        rows += [[field.zero] * cols, list(rows[0]), [field.of(3) * x for x in rows[-1]]]
        rng.shuffle(rows)
    return rows


def reference_span(rows, cols, field):
    """(nonzero RREF rows, pivots) of the rows by the field-scalar reference."""
    reduced, pivots = reference_rref(rows, cols, field) if rows else ([], ())
    return tuple(r for r in reduced if any(r)), tuple(pivots)


def reference_kernel(rows, cols, field):
    """A basis of {x : r . x = 0} read off the reference RREF."""
    reduced, pivots = reference_span(rows, cols, field)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [field.zero] * cols
        v[f] = field.one
        for r, p in zip(reduced, pivots):
            v[p] = -r[f]
        basis.append(v)
    return basis


def reference_solve(rows, target, cols, field):
    """Coefficients c with sum(c_i rows_i) == target (free ones zero), or None."""
    k = len(rows)
    aug = [[r[t] for r in rows] + [target[t]] for t in range(cols)]
    reduced, pivots = reference_rref(aug, k, field)
    if any(row[k] for row in reduced[len(pivots):]):
        return None
    coeffs = [field.zero] * k
    for r, p in enumerate(pivots):
        coeffs[p] = reduced[r][k]
    return tuple(coeffs)


def combination(rng, field, rows, cols):
    v = [field.zero] * cols
    for row in rows:
        c = oracle_scalar(rng, field, "random")
        v = [a + c * b for a, b in zip(v, row)]
    return v


@pytest.mark.parametrize("field, case", [(f, c) for f in ORACLE_FIELDS for c in ORACLE_CASES])
def test_subspace_rows_and_pivots_match_the_reference(field, case):
    for seed in range(4 if case == "huge" else 12):
        rng = fresh_rng(seed)
        cols = rng.randint(1, 6)
        rows = oracle_rows(rng, field, case, cols)
        s = Subspace(rows, cols, field)
        want_rows, want_pivots = reference_span(rows, cols, field)
        assert s.rows == want_rows and s.pivots == want_pivots
        # the same span from another generating set: RREF rows scaled,
        # reordered and mixed with combinations of themselves
        other = [[oracle_scalar(rng, field, "random") or field.one] for _ in want_rows]
        gens = [[c[0] * x for x in r] for c, r in zip(other, want_rows)]
        gens += [combination(rng, field, want_rows, cols) for _ in range(2)] if want_rows else []
        rng.shuffle(gens)
        t = Subspace(gens, cols, field)
        assert t == s and hash(t) == hash(s)
        if want_rows:
            smaller = Subspace(want_rows[1:], cols, field)
            assert smaller != s and smaller.leq(s) and not s.leq(smaller)
        # the stored form itself: primitive rows with a positive pivot over
        # QQ, residues with pivot 1 over GF(p)
        for r, p in zip(s.int_rows, s.pivots):
            if field == QQ:
                assert r[p] > 0 and gcd(*r) == 1
            else:
                assert r[p] == 1 and all(0 <= x < field.p for x in r)


@pytest.mark.parametrize("field, case", [(f, c) for f in ORACLE_FIELDS for c in ORACLE_CASES])
def test_membership_coordinates_and_solving_match_the_reference(field, case):
    for seed in range(4 if case == "huge" else 12):
        rng = fresh_rng(100 + seed)
        cols = rng.randint(1, 6)
        rows = oracle_rows(rng, field, case, cols)
        s = Subspace(rows, cols, field)
        want_rows, want_pivots = reference_span(rows, cols, field)
        inside = combination(rng, field, rows, cols)
        outside = [oracle_scalar(rng, field, case) for _ in range(cols)]
        targets = [inside, outside]
        for v in targets:
            member = len(reference_span(rows + [v], cols, field)[0]) == len(want_rows)
            assert s.contains(v) is member
            coords = s.coords_of(v)
            if member:
                assert coords == tuple(v[p] for p in want_pivots)
            else:
                assert coords is None
        assert solve_row_combinations(rows, targets, cols, field) == \
            [reference_solve(rows, v, cols, field) for v in targets]
        assert Matrix.from_rows(rows, cols, field).kernel() == \
            Subspace(reference_kernel(rows, cols, field), cols, field)
        assert Matrix.from_rows(rows, cols, field).kernel().rows == \
            reference_span(reference_kernel(rows, cols, field), cols, field)[0]


@pytest.mark.parametrize("field, case", [(f, c) for f in ORACLE_FIELDS for c in ORACLE_CASES])
def test_lattice_operations_match_the_reference(field, case):
    for seed in range(4 if case == "huge" else 12):
        rng = fresh_rng(200 + seed)
        cols = rng.randint(1, 6)
        rows1, rows2 = (oracle_rows(rng, field, case, cols) for _ in range(2))
        s1, s2 = Subspace(rows1, cols, field), Subspace(rows2, cols, field)
        r1, r2 = (reference_span(r, cols, field)[0] for r in (rows1, rows2))
        total = reference_span(list(r1) + list(r2), cols, field)[0]
        assert s1.plus(s2).rows == total
        assert s1.leq(s2) is (len(total) == len(r2))
        assert s2.leq(s1) is (len(total) == len(r1))
        # the meet: combinations of r1 whose coefficients solve the stacked
        # system [r1 | -r2] c = 0
        stacked = [[r[t] for r in r1] + [-r[t] for r in r2] for t in range(cols)]
        if r1 and r2:
            kernel = reference_kernel(stacked, len(r1) + len(r2), field)
            meet = [[sum((c[i] * r1[i][t] for i in range(len(r1))), field.zero)
                     for t in range(cols)] for c in kernel]
        else:
            meet = []
        assert s1.meet(s2).rows == reference_span(meet, cols, field)[0]


# ---------------------------------------------------------------- coordinate subspaces

# multiples of a unit vector: negative, scaled, multiples of 5 (zero over
# GF(5)) and huge, so that reduction has to find the one nonzero residue
unit_multiples = st.one_of(st.integers(-30, 30),
                           st.sampled_from([5, -10, 25 * 10 ** 20, 10 ** 40 + 1]))


@given(st.sampled_from([QQ, PrimeField(5)]), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_of_int_rows_on_unit_multiples_matches_the_reference(field, cols, data):
    picks = data.draw(st.lists(st.tuples(st.integers(0, cols - 1), unit_multiples), max_size=8))
    rows = []
    for k, c in picks:
        row = [0] * cols
        row[k] = c
        rows.append(row)
    # a repeated row and a zero row
    rows += rows[:1] + [[0] * cols]
    s = Subspace.of_int_rows(rows, cols, field)
    want_rows, want_pivots = reference_span([[field.of(x) for x in r] for r in rows], cols, field)
    assert s.is_coordinate()
    assert s.pivots == want_pivots and s.rows == want_rows
    assert s.int_rows == tuple(tuple(int(bool(x)) for x in r) for r in want_rows)
    # and elimination, which the unit rows skip, finds the same form
    reduced, pivots, _ = _echelon([field.reduce(r) for r in rows], cols, field)
    assert (s.int_rows, s.pivots) == (tuple(map(tuple, reduced)), tuple(pivots))


def test_coordinate_flag_is_exact_on_the_elimination_path():
    assert Subspace([[1, 1], [1, -1]], 2).is_coordinate()
    assert Subspace([[0, 2, 2], [0, 1, 3]], 3).is_coordinate()
    assert not Subspace([[1, 1]], 2).is_coordinate()
    assert Subspace.zero(3).is_coordinate() and Subspace.full(3).is_coordinate()
    # equal whichever path built them; pivots alone do not make two equal
    eliminated = Subspace([[1, 1], [1, -1]], 2)
    assert eliminated == Subspace.full(2) and hash(eliminated) == hash(Subspace.full(2))
    plane, skew = Subspace([[1, 0, 0], [0, 1, 0]], 3), Subspace([[1, 0, 1], [0, 1, 0]], 3)
    assert plane.pivots == skew.pivots and plane != skew and skew != plane
    # a sum of coordinate subspaces is one, kept by its union of pivots
    s = Subspace([[1, 0, 0]], 3).plus(Subspace([[0, 0, 3]], 3))
    assert s.is_coordinate() and s == Subspace([[1, 0, 0], [0, 0, 1]], 3)


def _unit(dim: int, p: int, c=1) -> list:
    row = [0] * dim
    row[p] = c
    return row


def _bitset_subspaces(rng, dim: int, field) -> list:
    """(path, subspace, the vectors whose span it is) for each way a bitset
    subspace is built: `of_int_rows` of rows with one entry each (with a
    repeat, a zero row and, over GF(5), a row that vanishes there),
    `_coordinate`, the closed-form barideal of a weight with one nonzero
    entry, and `plus` of two bitset subspaces."""
    cols = rng.sample(range(dim), rng.randint(0, dim))
    rows = [_unit(dim, p, rng.choice((1, -3, 7, 12))) for p in cols]
    rows += rows[:1] + [[0] * dim]
    if field != QQ:
        rows.append(_unit(dim, rng.randrange(dim), 10))
    out = [("of_int_rows", Subspace.of_int_rows(rows, dim, field), rows)]
    cols = rng.sample(range(dim), rng.randint(0, dim))
    out.append(("_coordinate", Subspace._coordinate(sum(1 << p for p in cols), dim, field),
                [_unit(dim, p) for p in cols]))
    q = rng.randrange(dim)
    weight = _unit(dim, q, rng.choice((1, -2, Fraction(3, 4))))
    n = BaricAlgebra(CommAlgebra([f"b{k}" for k in range(dim)], {}, field), weight).barideal()
    out.append(("barideal", n, [_unit(dim, f) for f in range(dim) if f != q]))
    x, y = (Subspace._coordinate(sum(1 << p for p in rng.sample(range(dim), rng.randint(0, dim))),
                                 dim, field) for _ in range(2))
    out.append(("plus", x.plus(y), [_unit(dim, p) for p in x.pivots + y.pivots]))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_bitset_subspaces_match_the_reference_rref_at_every_dimension(field):
    """Every construction path of a coordinate subspace, at dims 1..64,
    against `reference_rref`: rows, pivots and the flag, `==` and `hash`
    against the same span built by elimination, `contains_int` and `leq`."""
    rng = fresh_rng(71)
    for dim in range(1, 65):
        for path, s, vectors in _bitset_subspaces(rng, dim, field):
            case = (dim, path)
            rows, pivots = reference_form(vectors, dim, field)
            assert s.is_coordinate(), case
            assert (s.rows, s.pivots) == (rows, pivots), case
            assert s.int_rows == tuple(tuple(int(bool(x)) for x in r) for r in rows), case
            assert (s.dim, s.is_zero()) == (len(pivots), not pivots), case
            # the same span from rows with two entries, reduced by elimination
            chained = [_unit(dim, p) for p in pivots]
            for r, p in zip(chained, pivots[1:]):
                r[p] = 1
            twin = Subspace.of_int_rows(chained, dim, field)
            assert twin.is_coordinate() and twin == s and s == twin, case
            assert hash(twin) == hash(s), case
            other = Subspace._coordinate(s._bits ^ 1 << rng.randrange(dim), dim, field)
            assert other != s and s != other, case
            skew = None
            free = [c for c in range(dim) if pivots and c > pivots[0] and c not in pivots]
            if free:
                # the same pivots, not the same span
                first = _unit(dim, pivots[0])
                first[free[0]] = 1
                skew = Subspace.of_int_rows([first] + [_unit(dim, p) for p in pivots[1:]],
                                            dim, field)
                assert skew.pivots == s.pivots and not skew.is_coordinate(), case
                assert skew != s and s != skew, case
            for _ in range(3):
                v = [rng.choice((0, 1, -2, 5)) if k in pivots or rng.random() < 0.1 else 0
                     for k in range(dim)]
                inside = len(reference_form(list(rows) + [v], dim, field)[1]) == len(pivots)
                assert s.contains_int(v) is inside, (case, v)
            unrelated = Subspace._coordinate(rng.getrandbits(dim), dim, field)
            for t in filter(None, (other, twin, skew, unrelated)):
                rank = len(reference_form(list(rows) + list(t.rows), dim, field)[1])
                assert s.leq(t) is (rank == t.dim), (case, t.pivots)
            assert s.leq(Subspace.full(dim, field)), case
            assert s.leq(Subspace.zero(dim, field)) is s.is_zero(), case


# ---------------------------------------------------------------- field hooks

fractions_with_shared_denominators = st.builds(
    Fraction, st.integers(-10 ** 30, 10 ** 30), st.sampled_from([1, 2, 3, 6, 7, 10 ** 20 + 1]))


@given(st.lists(st.one_of(st.fractions(), fractions_with_shared_denominators), max_size=12))
@settings(max_examples=200, deadline=None)
def test_clear_matches_the_plain_formula(values):
    d = lcm(*[v.denominator for v in values])
    assert QQ.clear(values) == ([v.numerator * (d // v.denominator) for v in values], d)
