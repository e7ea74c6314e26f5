import glob
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bernalg import (QQ, BaricAlgebra, CommAlgebra, Identity, PrimeField, Witness, check_identity,
                     from_algebra, identity_defect, make_family, parse, plenary_power, serialize,
                     subalgebra_on, to_algebra)
from bernalg import identities

from conftest import (bernstein_corpus, change_of_basis_copy, commutative_corpus, fresh_rng,
                      gametic, jordan_bernstein, non_nilpotent_baric, random_table_algebra,
                      reference_identity_defect, rebased, rebased_copies, reference_products,
                      reference_scan_degree3, reference_scan_degree4, reference_scan_jordan,
                      reference_witness_from_tuple, scaled_copy, scans_both_ways,
                      sparse_int_mul, weighted_basis_copy, wide_v_bernstein)

ALL_IDENTITIES = tuple(Identity)


def slow_identity_check(a, ident, weight=None):
    """Independent decision route: inclusion-exclusion polarization of each
    variable, evaluated through identity_defect on all ordered basis tuples.

    For a form of degree d in x, the full polarization at (b_1, ..., b_d) is
    sum over nonempty S of (-1)^(d-|S|) f(sum_S b_i); the identity holds over
    the rationals iff every such value (for every assignment of the other
    variables) vanishes.
    """
    degree = {
        Identity.BERNSTEIN: 4,
        Identity.SQUARE_SQUARE_ZERO: 4,
        Identity.CUBE_WEIGHT: 3,
        Identity.CUBE_ZERO: 3,
        Identity.JORDAN: 3,
    }
    others = tuple(v for v in ident.variables if v != "x")
    if ident is Identity.JACOBI:
        for t in itertools.product(range(a.dim), repeat=3):
            assignment = {"x": a.basis_element(t[0]), "y": a.basis_element(t[1]),
                          "z": a.basis_element(t[2])}
            if not identity_defect(a, ident, assignment, weight).is_zero():
                return False
        return True
    d = degree[ident]
    for t in itertools.product(range(a.dim), repeat=d):
        for extra in itertools.product(range(a.dim), repeat=len(others)):
            total = a.zero_element()
            for size in range(1, d + 1):
                for subset in itertools.combinations(range(d), size):
                    x = a.zero_element()
                    for pos in subset:
                        x = x + a.basis_element(t[pos])
                    assignment = {"x": x}
                    for var, idx in zip(others, extra):
                        assignment[var] = a.basis_element(idx)
                    val = identity_defect(a, ident, assignment, weight)
                    total = total + val if (d - size) % 2 == 0 else total - val
            if not total.is_zero():
                return False
    return True


def _pair_products(a):
    basis = [a.basis_element(i) for i in range(a.dim)]
    prods = [[None] * a.dim for _ in range(a.dim)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            prods[i][j] = prods[j][i] = basis[i] * basis[j]
    return basis, prods


def rational_scan_degree4(a, weight):
    basis, prods = _pair_products(a)
    two = a.field.of(2)
    for t in itertools.combinations_with_replacement(range(a.dim), 4):
        i, j, k, l = t
        acc = two * ((prods[i][j] * prods[k][l])
                     + (prods[i][k] * prods[j][l])
                     + (prods[i][l] * prods[j][k]))
        if weight is not None:
            for (p, q), (r, s) in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)),
                                   ((k, l), (i, j)), ((j, l), (i, k)), ((j, k), (i, l))):
                acc = acc - (weight[p] * weight[q]) * prods[r][s]
        if not acc.is_zero():
            return t, None
    return None


def rational_scan_degree3(a, weight):
    basis, prods = _pair_products(a)
    for t in itertools.combinations_with_replacement(range(a.dim), 3):
        i, j, k = t
        acc = (prods[i][j] * basis[k]) + (prods[i][k] * basis[j]) + (prods[j][k] * basis[i])
        if weight is not None:
            for p, (r, s) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                acc = acc - weight[p] * prods[r][s]
        if not acc.is_zero():
            return t, None
    return None


def rational_scan_jordan(a, weight):
    basis, prods = _pair_products(a)
    for t in itertools.combinations_with_replacement(range(a.dim), 3):
        i, j, k = t
        for y in range(a.dim):
            by = basis[y]
            acc = (basis[i] * (prods[j][k] * by) - prods[j][k] * (basis[i] * by)
                   + basis[j] * (prods[i][k] * by) - prods[i][k] * (basis[j] * by)
                   + basis[k] * (prods[i][j] * by) - prods[i][j] * (basis[k] * by))
            if not acc.is_zero():
                return t, y
    return None


RATIONAL_SCANS = {
    Identity.BERNSTEIN: rational_scan_degree4,
    Identity.SQUARE_SQUARE_ZERO: rational_scan_degree4,
    Identity.CUBE_WEIGHT: rational_scan_degree3,
    Identity.CUBE_ZERO: rational_scan_degree3,
    Identity.JACOBI: rational_scan_degree3,
    Identity.JORDAN: rational_scan_jordan,
}


def rational_check_identity(a, ident, weight=None):
    """check_identity decided in Element (Fraction) arithmetic, with the
    products of the reference `mul_coords`: the scans the integer kernel
    replaced, kept as its reference."""
    weight = identities._weight_for(a, ident, weight)
    with reference_products(a):
        bad = RATIONAL_SCANS[ident](a, weight)
        if bad is None:
            return True
        return reference_witness_from_tuple(a, ident, weight, *bad)


def random_element(a, rng: random.Random):
    coords = [a.field.of(rng.randint(-6, 6)) / a.field.of(rng.randint(1, 3))
              for _ in range(a.dim)]
    return a.element(coords)


def random_identity_probe(a, ident, weight=None, trials: int = 100, rng=None, seed: int = 0):
    """Sampling oracle: evaluate the identity at random rational elements,
    returning the first witness found or True.  A True here is evidence,
    not a verdict, so it stays in the tests."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if a.field != QQ:
        raise ValueError("identity probing is only supported over the rationals")
    weight = identities._weight_for(a, ident, weight)
    if rng is None:
        rng = random.Random(seed)
    for _ in range(trials):
        assignment = {v: random_element(a, rng) for v in ident.variables}
        residual = identity_defect(a, ident, assignment, weight)
        if not residual.is_zero():
            return Witness(tuple(assignment.items()), residual)
    return True


# ---------------------------------------------------------------- verdicts


def test_square_square_zero_witness_on_squareshift():
    a = make_family("squareshift", 3)
    w = check_identity(a, Identity.SQUARE_SQUARE_ZERO)
    assert isinstance(w, Witness)
    assert dict(w.assignment)["x"] == a.basis_element(2)  # e3
    assert w.residual == a.basis_element(0)  # (e3^2)^2 = e1


def test_one_dimensional_idempotent_is_bernstein():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    assert check_identity(a, Identity.BERNSTEIN, [1]) is True


def test_bdown3_jordan_fails_with_reproducible_witness():
    b = make_family("bdown", 3)
    w = check_identity(b.algebra, Identity.JORDAN)
    assert isinstance(w, Witness)
    again = identity_defect(b.algebra, Identity.JORDAN, w.assignment_dict())
    assert again == w.residual and not again.is_zero()
    # deterministic: a second run returns the identical witness
    assert check_identity(b.algebra, Identity.JORDAN) == w


def test_jordan3_family_is_jordan():
    b = make_family("jordan3")
    assert check_identity(b.algebra, Identity.JORDAN) is True


def test_jacobi_witness_assigns_basis_vectors():
    b = make_family("bdown", 3)
    w = check_identity(b.algebra, Identity.JACOBI)
    assert isinstance(w, Witness)
    assigned = w.assignment_dict()
    assert list(assigned) == ["x", "y", "z"]
    basis = [b.algebra.basis_element(i) for i in range(b.dim)]
    assert all(x in basis for x in assigned.values())


def test_weight_required():
    a = make_family("squareshift", 2)
    with pytest.raises(ValueError):
        check_identity(a, Identity.BERNSTEIN)
    with pytest.raises(ValueError):
        random_identity_probe(a, Identity.CUBE_WEIGHT)


def test_prime_field_rejected(gf5):
    b = make_family("bdown", 2, field=gf5)
    with pytest.raises(ValueError):
        check_identity(b.algebra, Identity.JACOBI)


# ---------------------------------------------------------------- dual routes


@pytest.mark.parametrize("maker, weighted", [
    (lambda: make_family("squareshift", 3), False),
    (lambda: make_family("zhevlakov", 3), False),
    (lambda: make_family("jordan3"), True),
    (lambda: make_family("bdown", 2), True),
    (lambda: make_family("bup", 2), True),
])
def test_fast_check_matches_polarization_oracle(maker, weighted):
    alg = maker()
    weight = alg.weight if weighted else None
    a = alg.algebra if weighted else alg
    for ident in ALL_IDENTITIES:
        if ident.needs_weight and weight is None:
            continue
        fast = check_identity(a, ident, weight)
        slow = slow_identity_check(a, ident, weight)
        assert (fast is True) == slow, ident


def test_check_agrees_with_probe_across_corpus(baric_corpus, plain_corpus):
    rng = fresh_rng(23)
    cases = [(b.algebra, b.weight) for _, b in baric_corpus]
    cases += [(a, None) for _, a in plain_corpus]
    for a, weight in cases:
        for ident in ALL_IDENTITIES:
            if ident.needs_weight and weight is None:
                continue
            verdict = check_identity(a, ident, weight)
            probed = random_identity_probe(a, ident, weight, trials=200, rng=rng)
            if verdict is True:
                assert probed is True
            else:
                # the witness must reproduce its residual exactly
                again = identity_defect(a, ident, verdict.assignment_dict(), weight)
                assert again == verdict.residual and not again.is_zero()


def test_probe_finds_squareshift_defect_quickly():
    a = make_family("squareshift", 3)
    res = random_identity_probe(a, Identity.SQUARE_SQUARE_ZERO, trials=100, seed=1)
    assert isinstance(res, Witness)
    assert not identity_defect(a, Identity.SQUARE_SQUARE_ZERO,
                               res.assignment_dict()).is_zero()


def test_probe_confirms_jordan3():
    b = make_family("jordan3")
    assert random_identity_probe(b.algebra, Identity.JORDAN, trials=60, seed=2) is True
    with pytest.raises(ValueError):
        random_identity_probe(b.algebra, Identity.JORDAN, trials=0)


# ---------------------------------------------------------------- implications


def barideal_algebras(baric_corpus):
    out = []
    for name, b in baric_corpus:
        out.append((name + ".N", subalgebra_on(b.algebra, b.barideal())))
    return out


def test_cube_zero_implies_jacobi_jordan_and_fast_solvability(baric_corpus, plain_corpus):
    corpus = [(n, a) for n, a in plain_corpus]
    corpus += [(n, b.algebra) for n, b in baric_corpus]
    corpus += barideal_algebras(baric_corpus)
    hit = 0
    for name, a in corpus:
        if check_identity(a, Identity.CUBE_ZERO) is not True:
            continue
        hit += 1
        assert check_identity(a, Identity.JACOBI) is True, name
        assert check_identity(a, Identity.JORDAN) is True, name
        assert plenary_power(a, a.full_space(), 4).is_zero(), name
    assert hit >= 3  # jordan3.N, bdown2.N, bup2.N at least


def _jacobi_cases() -> list:
    """(label, algebra): the families at n = 1..12 and jordan3, wide-V
    Bernstein tables and 60 random tables, each with a change-of-basis copy."""
    cases = [(f"{kind}{n}", make_family(kind, n))
             for kind in ("bdown", "bup", "squareshift", "zhevlakov") for n in range(1, 13)]
    cases.append(("jordan3", make_family("jordan3")))
    cases += [(f"wide_v_bernstein(3, 3, {seed})", wide_v_bernstein(3, 3, seed))
              for seed in range(10)]
    rng = fresh_rng(3000)
    cases += [(f"random{k}", random_table_algebra(rng, rng.randint(2, 6))) for k in range(60)]
    out = []
    for label, alg in cases:
        a = getattr(alg, "algebra", alg)
        out += [(label, a), (f"{label} rebased", change_of_basis_copy(a, None, 0)[0])]
    return out


def test_jacobi_is_cube_zero_linearized():
    """x^3 = 0 fully linearized is 2 ((xy)z + (yz)x + (zx)y) = 0: over the
    rationals a commutative algebra is a nilalgebra of nilindex 3 exactly
    when it is Jacobi, so both identities share one form and one scan."""
    jacobi, cube = identities._form(Identity.JACOBI), identities._form(Identity.CUBE_ZERO)
    assert set(jacobi.monomials) == set(cube.monomials)
    assert (jacobi.groups, jacobi.bound) == (cube.groups, cube.bound)
    cases, failing = _jacobi_cases(), 0
    for label, a in cases:
        first = identities._scan(a, Identity.JACOBI, None)
        assert first == identities._scan(a, Identity.CUBE_ZERO, None), label
        holds = check_identity(a, Identity.JACOBI) is True
        assert holds == (check_identity(a, Identity.CUBE_ZERO) is True) == (first is None), label
        failing += not holds
    assert 0 < failing < len(cases)


def test_square_square_zero_holds_on_bernstein_barideals(baric_corpus):
    for name, a in barideal_algebras(baric_corpus):
        assert check_identity(a, Identity.SQUARE_SQUARE_ZERO) is True, name


# ---------------------------------------------------------------- integer kernel


def _skewed_bdown2():
    """bdown2 with e*u1 = u1: the weight stays multiplicative, Bernstein fails."""
    text = serialize(from_algebra(make_family("bdown", 2), "bdown2"))
    assert "prod e u1 = 1/2 u1" in text
    return to_algebra(parse(text.replace("prod e u1 = 1/2 u1", "prod e u1 = 1 u1")))


def kernel_cases():
    """(name, algebra, weight or None) for families small enough for the
    rational reference; plain algebras get an arbitrary rational weight so
    the weighted scans run (and fail) on them too."""
    out = []
    for kind in ("bdown", "bup"):
        for n in (2, 3, 4):
            b = make_family(kind, n)
            out.append((f"{kind}{n}", b.algebra, b.weight))
    for name, b in (("jordan3", make_family("jordan3")),
                    ("non_nilpotent", non_nilpotent_baric()),
                    ("skewed_bdown2", _skewed_bdown2())):
        out.append((name, b.algebra, b.weight))
    for kind in ("squareshift", "zhevlakov"):
        for n in (2, 3, 4):
            a = make_family(kind, n)
            out.append((f"{kind}{n}", a, tuple(Fraction(k + 1, 2) for k in range(a.dim))))
    # seeded random tables in a rescaled basis, so that the table and the
    # weight carry denominators
    for seed in range(4):
        rng = fresh_rng(seed)
        a = random_table_algebra(rng, 3 + seed % 3)
        weight = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(a.dim))
        out.append((f"random{seed}", *scaled_copy(a, weight)))
    # dense copies of Bernstein algebras: the Bernstein scan runs to the end
    for kind in ("bdown", "bup"):
        for n in (3, 4):
            b = make_family(kind, n)
            out.append((f"dense_{kind}{n}", *change_of_basis_copy(b.algebra, b.weight, n)))
    return out


def _assert_same_checks(a, weight, label):
    for ident in ALL_IDENTITIES:
        got = check_identity(a, ident, weight)
        want = rational_check_identity(a, ident, weight)
        assert got == want, (label, ident)


KERNEL_CASES = kernel_cases()
SMALL_CASES = [c for c in KERNEL_CASES if c[1].dim <= 5]


@pytest.mark.parametrize("name, a, weight", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_integer_kernel_returns_the_rational_witness_on_families(name, a, weight):
    _assert_same_checks(a, weight, name)


@pytest.mark.parametrize("name, a, weight", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_integer_kernel_returns_the_rational_witness_on_changed_bases(name, a, weight):
    for seed in (1, 2):
        _assert_same_checks(*change_of_basis_copy(a, weight, seed), f"{name}@{seed}")


WEIGHTED_BASIS_CASES = [(f"{name}@{seed}", weighted_basis_copy(b, seed))
                        for name, b in (("bdown3", make_family("bdown", 3)),
                                        ("bup3", make_family("bup", 3)),
                                        ("jordan3", make_family("jordan3")))
                        for seed in range(20)]


@pytest.mark.parametrize("name, b", WEIGHTED_BASIS_CASES, ids=[c[0] for c in WEIGHTED_BASIS_CASES])
def test_integer_kernel_returns_the_rational_witness_when_every_basis_vector_has_weight(name, b):
    assert all(b.weight)
    _assert_same_checks(b.algebra, b.weight, name)


@pytest.mark.parametrize("name, a, weight", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_integer_kernel_returns_the_rational_witness_on_scaled_bases(name, a, weight):
    b, w = scaled_copy(a, weight)
    assert any(x.denominator > 1 for x in w)
    assert any(c.denominator > 1 for i in range(b.dim) for j in range(i, b.dim)
               for _, c in b.table_row(i, j) or ())
    _assert_same_checks(b, w, name)


# ---------------------------------------------------------------- pair operators


def engine_scan(a, ident, weight=None):
    """The engine's first failing tuple, in the shape of the references:
    Jordan's as ((x-triple), y)."""
    t = identities._scan(a, ident, weight)
    return t if t is None or ident is not Identity.JORDAN else (t[:3], t[3])


def quartic_scan(a, weight):
    """The Bernstein scan with a weight, the square-square-zero one without."""
    if weight is None:
        return engine_scan(a, Identity.SQUARE_SQUARE_ZERO)
    return engine_scan(a, Identity.BERNSTEIN, weight)


def cubic_scans(a, weight):
    """The cube-weight scan with a weight; the cube-zero and Jacobi ones,
    which share one linearized form, without."""
    if weight is not None:
        return [engine_scan(a, Identity.CUBE_WEIGHT, weight)]
    return [engine_scan(a, Identity.CUBE_ZERO), engine_scan(a, Identity.JACOBI)]


DENSE_CASES = [c for c in KERNEL_CASES if c[0].startswith("dense_")]


@pytest.mark.parametrize("name, a, weight", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
def test_bernstein_scan_runs_to_the_end_on_dense_copies(name, a, weight):
    nonzero = sum(1 for i in range(a.dim) for j in range(i, a.dim) if a.table_row(i, j))
    assert nonzero > a.dim * (a.dim + 1) // 4
    assert check_identity(a, Identity.BERNSTEIN, weight) is True


def test_pair_operator_scan_matches_the_bilinear_scan_on_a_dense_dim10_copy():
    b = make_family("bdown", 8)
    a, weight = change_of_basis_copy(b.algebra, b.weight, 1)
    assert a.dim == 10
    assert all(a.table_row(i, j) for i in range(a.dim) for j in range(i, a.dim))
    assert reference_scan_degree4(a, weight) is None
    assert check_identity(a, Identity.BERNSTEIN, weight) is True
    bad = reference_scan_degree4(a, None)
    assert bad is not None and quartic_scan(a, None) == bad
    want = identities._witness_from_tuple(a, Identity.SQUARE_SQUARE_ZERO, None, bad)
    assert check_identity(a, Identity.SQUARE_SQUARE_ZERO) == want


def _fixture_cases():
    out = []
    for fixture in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.alg"))):
        with open(fixture, encoding="utf-8") as fh:
            alg = to_algebra(parse(fh.read()))
        a = getattr(alg, "algebra", alg)
        weight = getattr(alg, "weight", tuple(Fraction(k + 1, 2) for k in range(a.dim)))
        out.append((os.path.basename(fixture), a, weight))
    return out


SCAN_CASES = (KERNEL_CASES + _fixture_cases()
              + [(name, getattr(x, "algebra", x), getattr(x, "weight", None))
                 for name, x in bernstein_corpus() + commutative_corpus()])


@pytest.mark.parametrize("name, a, weight", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_pair_operator_scan_returns_the_bilinear_first_failing_tuple(name, a, weight):
    copies = [(a, weight)]
    if a.dim <= 6:
        copies += [change_of_basis_copy(a, weight, seed) for seed in (1, 2)]
        copies.append(scaled_copy(a, weight))
    for b, w in copies:
        for wt in dict.fromkeys((w, None)):
            assert quartic_scan(b, wt) == reference_scan_degree4(b, wt), (name, wt)


# ---------------------------------------------------------------- packed scans


def _assert_scans_match_the_references(a, weight, label):
    for w in dict.fromkeys((weight, None)):
        assert quartic_scan(a, w) == reference_scan_degree4(a, w), (label, w)
        for got in cubic_scans(a, w):
            assert got == reference_scan_degree3(a, w), (label, w)
    assert engine_scan(a, Identity.JORDAN) == reference_scan_jordan(a), label


@pytest.mark.parametrize("name, a, weight", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_packed_cubic_and_jordan_scans_return_the_reference_first_failing_tuple(name, a, weight):
    copies = [(a, weight)]
    if a.dim <= 6:
        copies += [change_of_basis_copy(a, weight, 1), scaled_copy(a, weight)]
    for b, w in copies:
        for wt in dict.fromkeys((w, None)):
            for got in cubic_scans(b, wt):
                assert got == reference_scan_degree3(b, wt), (name, wt)
        assert engine_scan(b, Identity.JORDAN) == reference_scan_jordan(b), name


def _big_rational(draw, digits):
    """Zero, or a rational of mixed sign with up to `digits` digits in its
    numerator and its denominator."""
    if draw(st.integers(0, 2)) == 0:
        return Fraction(0)
    cap = 10 ** draw(st.integers(0, digits))
    return Fraction(draw(st.integers(-cap, cap)), draw(st.integers(1, cap)))


@st.composite
def big_tables(draw, digits=300):
    """(algebra, weight) on dim 2..5 with big rational entries.  Triangular
    tables map e_i e_j into indices below min(i, j), so many tuples vanish
    and the scans run past the first ones."""
    dim = draw(st.integers(2, 5))
    triangular = draw(st.booleans())
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            top = min(i, j) if triangular else dim
            products[i, j] = [_big_rational(draw, digits) if k < top else 0 for k in range(dim)]
    a = CommAlgebra([f"b{i}" for i in range(dim)], products)
    return a, tuple(_big_rational(draw, digits) for _ in range(dim))


@given(big_tables())
@settings(max_examples=60, deadline=None)
def test_packed_scans_return_the_reference_first_failing_tuple_on_big_tables(case):
    _assert_scans_match_the_references(*case, "big table")


def test_packed_scans_match_the_references_near_max_digits():
    # numerators and denominators just under MAX_DIGITS, on a random
    # triangular table and on a Bernstein algebra in a huge diagonal basis,
    # whose Bernstein scan runs to the end
    rng = fresh_rng(5)

    def huge():
        return Fraction(rng.choice((-1, 1)) * rng.randint(10 ** 997, 10 ** 998),
                        rng.randint(10 ** 996, 10 ** 997))

    dim = 4
    a = CommAlgebra([f"b{i}" for i in range(dim)],
                    {(i, j): [huge() if k < min(i, j) else 0 for k in range(dim)]
                     for i in range(dim) for j in range(i, dim)})
    _assert_scans_match_the_references(a, tuple(huge() for _ in range(dim)), "triangular")
    b = make_family("bdown", 2)
    c, w = rebased(b.algebra, b.weight, [[huge() if j == i else 0 for j in range(b.dim)]
                                         for i in range(b.dim)])
    assert quartic_scan(c, w) is None
    _assert_scans_match_the_references(c, w, "bdown2 rescaled")


# integer tables (e0 e0, e0 e1, e1 e1), each with the tuple where its scan
# first fails: there the sum vector (s0, s1) is nonzero but s0 + s1 2^B = 0
# for B = bitlen(M) + 2, M the largest entry, so packing at a width bounded
# by the entries alone, not by the growth of the products, would lose it
CARRY_TABLES = {
    "quartic": (((-2, -1), (-2, 1), (0, 1)), (0, 0, 0, 0)),
    "cubic": (((-6, 1), (-4, 5), (-6, -6)), (0, 0, 0)),
    "jordan": (((-5, -5), (-4, -3), (4, -3)), ((0, 0, 0), 0)),
}


@pytest.mark.parametrize("name", list(CARRY_TABLES))
def test_packed_scans_keep_a_failure_whose_sum_carries_at_the_entry_width(name):
    (t00, t01, t11), first = CARRY_TABLES[name]
    a = CommAlgebra(["b0", "b1"], {(0, 0): t00, (0, 1): t01, (1, 1): t11})
    scan = {"quartic": reference_scan_degree4, "cubic": reference_scan_degree3,
            "jordan": lambda b, _: reference_scan_jordan(b)}[name]
    assert scan(a, None) == first
    _assert_scans_match_the_references(a, None, name)


# ---------------------------------------------------------------- derived forms


def plan_sum(a, ident, weight, t) -> list:
    """The unpacked integer sum of the engine's linearized form at the
    basis tuple t (all slots, concatenated): each monomial evaluated with
    the integer kernel and brought to the common multiple."""
    form = identities._form(ident)
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    mul = sparse_int_mul(a)

    def value(tree):
        return ((t[tree], 1),) if isinstance(tree, int) else mul(value(tree[0]), value(tree[1]))

    acc = [0] * a.dim
    for n, wslots, tree in form.monomials:
        # brought to the common multiple D^products Dw^weights
        c = (n * a._den ** (form.products + 1 - len(identities._leaves(tree)))
             * dw ** (form.weights - len(wslots)))
        for s in wslots:
            c *= ws[t[s]]
        for k, v in value(tree):
            acc[k] += c * v
    return acc


def polarization(a, ident, weight, t) -> tuple:
    """sum over nonempty S_v of each variable's slots of
    prod_v (-1)^(d_v - |S_v|) * defect(v = sum_{i in S_v} e_{t_i}),
    through `identity_defect`."""
    form = identities._form(ident)
    total = a.zero_element()
    choices = [[c for size in range(1, len(slots) + 1) for c in itertools.combinations(slots, size)]
               for slots in form.slots]
    for subsets in itertools.product(*choices):
        assignment = {}
        for var, subset in zip(form.variables, subsets):
            x = a.zero_element()
            for s in subset:
                x = x + a.basis_element(t[s])
            assignment[var] = x
        val = identity_defect(a, ident, assignment, weight)
        sign = sum(len(slots) - len(sub) for slots, sub in zip(form.slots, subsets)) % 2
        total = total - val if sign else total + val
    return total.coords


def hand_bound(a, ident, weight) -> int:
    """The digit bounds the scans used before they were derived from the
    identities' trees: one formula for the quartic forms, one for the
    cubic ones and one for Jordan."""
    ws, dw = QQ.clear(weight) if weight is not None else (None, 1)
    dim, m, d, w = a.dim, a._int_max, a._den, max(map(abs, ws or [0]))
    if ident in (Identity.BERNSTEIN, Identity.SQUARE_SQUARE_ZERO):
        return 3 * 2 * dw * dw * dim * dim * m ** 3 + 6 * d * d * w * w * m
    if ident is Identity.JORDAN:
        return 6 * dim * dim * m ** 3
    return 3 * dw * dim * m * m + 3 * d * w * m


def _assert_forms_agree(a, weight, rng):
    for ident in ALL_IDENTITIES:
        w = weight if ident.needs_weight else None
        form = identities._form(ident)
        ws, dw = QQ.clear(w) if w is not None else (None, 1)
        bound = identities._digit_bound(form, a, ws, dw)
        hand = hand_bound(a, ident, w)
        # the quartic formula carried the Bernstein pair multiplicity 2;
        # the square-square-zero form alone has multiplicity 1
        assert bound == (hand // 2 if ident is Identity.SQUARE_SQUARE_ZERO else hand), ident
        ratio = None
        for _ in range(4):
            t = tuple(rng.randrange(a.dim) for _ in range(sum(map(len, form.slots))))
            got, pol = plan_sum(a, ident, w, t), polarization(a, ident, w, t)
            assert max(map(abs, got)) <= bound, (ident, t)
            for g, p in zip(got, pol):
                if p:
                    ratio = ratio if ratio is not None else g / p
                    assert ratio > 0 and g == ratio * p, (ident, t)
                else:
                    assert g == 0, (ident, t)


@pytest.mark.parametrize("seed", range(8))
def test_linearized_plan_is_a_positive_multiple_of_the_polarization(seed):
    rng = fresh_rng(100 + seed)
    b, weight = scaled_copy(random_table_algebra(rng, 2 + seed % 4),
                            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(2 + seed % 4)))
    _assert_forms_agree(b, weight, rng)


@given(big_tables(digits=40), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_linearized_plan_agrees_with_the_polarization_on_big_tables(case, rng):
    _assert_forms_agree(*case, rng)


# ---------------------------------------------------------------- spin factors


def spin_factor(dim):
    """e0 e0 = e0, e0 ei = ei, ei ei = e0 for i >= 1: a Jordan algebra
    with unit e0, so not nil."""
    products = {(0, i): [int(k == i) for k in range(dim)] for i in range(dim)}
    products.update({(i, i): [int(k == 0) for k in range(dim)] for i in range(1, dim)})
    return CommAlgebra([f"e{i}" for i in range(dim)], products)


SPIN_CASES = ([(f"spin{d}", spin_factor(d)) for d in range(3, 15)]
              + [(f"spin5@{seed}", change_of_basis_copy(spin_factor(5), None, seed)[0])
                 for seed in (1, 2, 3)])


@pytest.mark.parametrize("name, a", SPIN_CASES, ids=[c[0] for c in SPIN_CASES])
def test_jordan_scan_runs_to_the_end_on_spin_factors(name, a):
    assert not identity_defect(a, Identity.CUBE_ZERO, {"x": a.basis_element(0)}).is_zero()
    assert check_identity(a, Identity.JORDAN) is True
    assert engine_scan(a, Identity.JORDAN) is None
    assert reference_scan_jordan(a) is None


@given(st.integers(0, 10 ** 300), st.data())
@settings(max_examples=60, deadline=None)
def test_packing_is_injective_on_vectors_within_the_bound(bound, data):
    pack = identities._packing(bound)
    n = data.draw(st.integers(1, 6))
    vector = st.lists(st.sampled_from((-bound, 0, bound)) | st.integers(-bound, bound),
                      min_size=n, max_size=n)
    u, v = data.draw(vector), data.draw(vector)
    assert (pack(tuple(enumerate(u))) == pack(tuple(enumerate(v)))) == (u == v)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 2 ** 64 - 1, 2 ** 64, 10 ** 300])
def test_packing_keeps_the_corners_of_the_bound_box_apart(bound):
    pack = identities._packing(bound)
    digits = sorted({-bound, 1 - bound, -1, 0, 1, bound - 1, bound} if bound else {0})
    vectors = list(itertools.product(digits, repeat=3))
    assert len({pack(tuple(enumerate(v))) for v in vectors}) == len(vectors)


# ---------------------------------------------------------------- integer defects


@pytest.mark.parametrize("name, a, weight", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_identity_defect_matches_element_arithmetic_at_rational_points(name, a, weight):
    rng = fresh_rng(3)
    for b, w in ((a, weight), scaled_copy(a, weight)):
        w = w if w is not None else tuple(Fraction(k - 1, 3) for k in range(b.dim))
        for ident in ALL_IDENTITIES:
            for _ in range(3):
                assignment = {v: random_element(b, rng) for v in ident.variables}
                got = identity_defect(b, ident, assignment, w)
                assert got == reference_identity_defect(b, ident, assignment, w), (name, ident)


def test_identity_defect_matches_element_arithmetic_over_prime_fields():
    for p in (5, 7):
        field = PrimeField(p)
        rng = fresh_rng(p)
        for kind in ("bdown", "bup"):
            b = make_family(kind, 3, field)
            for ident in ALL_IDENTITIES:
                assignment = {v: b.algebra.element([rng.randrange(p) for _ in range(b.dim)])
                              for v in ident.variables}
                got = identity_defect(b.algebra, ident, assignment, b.weight)
                want = reference_identity_defect(b.algebra, ident, assignment, b.weight)
                assert got == want, (p, kind, ident)


# ---------------------------------------------------------------- support walk


def weight_of_kind(kind, dim, rng):
    """None, or a weight of dim entries: all zero, some zero or none zero."""
    if kind is None:
        return None
    entries = {"zero": (0,), "sparse": (0, 0, 1, -2, Fraction(1, 2)), "full": (1, -2, Fraction(1, 2))}
    return tuple(Fraction(rng.choice(entries[kind])) for _ in range(dim))


@st.composite
def sparse_tables(draw):
    """(algebra, weight or None) of dim 1..5 whose pair products are
    nonzero at a drawn density, from none to all, each a monomial or a
    general row."""
    dim = draw(st.integers(1, 5))
    density = draw(st.sampled_from((0.0, 0.15, 0.35, 0.6, 1.0)))
    monomial = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    entries = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2))
    products = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < density:
                row = [0] * dim
                for k in ([rng.randrange(dim)] if monomial else range(dim)):
                    row[k] = rng.choice(entries if monomial else (0, 0) + entries)
                products[i, j] = row
    a = CommAlgebra([f"b{i}" for i in range(dim)], products)
    return a, weight_of_kind(draw(st.sampled_from((None, "zero", "sparse", "full"))), dim, rng)


def _assert_walk_matches_enumeration(a, weight, label):
    for ident in ALL_IDENTITIES:
        w = (weight or tuple(Fraction(k + 1, 2) for k in range(a.dim))) if ident.needs_weight else None
        walked, enumerated = scans_both_ways(a, ident, w)
        assert walked == enumerated, (label, ident)


@given(sparse_tables())
@settings(max_examples=200, deadline=None)
def test_support_walk_returns_the_enumerated_first_failing_tuple(case):
    _assert_walk_matches_enumeration(*case, "sparse table")


def walked_tuples(a, ident, weight) -> list:
    """Every tuple the support walk yields for the identity, to its end."""
    form = identities._form(ident)
    ws = QQ.clear(weight)[0] if form.weights else None
    return list(identities._walk(identities._Masks(a, ws), form.groups, form.tests,
                                 len(form.dots) + len(form.columns)))


def _assert_walk_visits_every_nonzero_tuple(a, weight, label):
    """The walk yields tuples in scan order, each once, and among them every
    tuple at which the linearized sum is nonzero, not only the first."""
    for ident in ALL_IDENTITIES:
        w = (weight or tuple(Fraction(k + 1, 2) for k in range(a.dim))) if ident.needs_weight else None
        walked = walked_tuples(a, ident, w)
        kept = set(walked)
        every = [sum(ts, ()) for ts in itertools.product(*(
            itertools.combinations_with_replacement(range(a.dim), g)
            for g in identities._form(ident).groups))]
        assert walked == [t for t in every if t in kept], (label, ident)
        missed = [t for t in every if t not in kept and any(plan_sum(a, ident, w, t))]
        assert not missed, (label, ident, missed[:3])


@given(sparse_tables())
@example((jordan_bernstein(3, 2).algebra, jordan_bernstein(3, 2).weight))
@example((wide_v_bernstein(3, 3, 0).algebra, wide_v_bernstein(3, 3, 0).weight))
@settings(max_examples=150, deadline=None)
def test_support_walk_visits_every_tuple_whose_sum_is_nonzero(case):
    _assert_walk_visits_every_nonzero_tuple(*case, "sparse table")


@pytest.mark.parametrize("name", list(CARRY_TABLES))
def test_support_walk_keeps_a_failure_whose_sum_carries(name):
    (t00, t01, t11), first = CARRY_TABLES[name]
    a = CommAlgebra(["b0", "b1"], {(0, 0): t00, (0, 1): t01, (1, 1): t11})
    for weight in (None, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(-2))):
        _assert_walk_matches_enumeration(a, weight, name)


WIDE_V_TYPES = ((3, 3), (4, 2), (3, 4))   # (r, s): dims 7, 7 and 8


# the wide-V tables of seeds 0-9, and the Jordan-Bernstein table of dim 14
# (dim V = 3), on which Jordan and cube-weight hold too, so their scans run
# to the end
WIDE_V_CASES = ([(f"r{r}s{s}-{seed}", wide_v_bernstein, (r, s, seed))
                 for r, s in WIDE_V_TYPES for seed in range(10)]
                + [("jordan-r10s3", jordan_bernstein, (10, 3))])


@pytest.mark.parametrize("make, args", [c[1:] for c in WIDE_V_CASES],
                         ids=[c[0] for c in WIDE_V_CASES])
def test_wide_v_tables_are_bernstein_and_walked_as_enumerated(make, args):
    b = make(*args)
    assert all(identities._walks(b.algebra, identities._form(i)) for i in ALL_IDENTITIES)
    assert check_identity(b.algebra, Identity.BERNSTEIN, b.weight) is True
    _assert_walk_matches_enumeration(b.algebra, b.weight, f"{make.__name__}{args}")


@pytest.mark.parametrize("dim", range(2, 9))
def test_gametic_scans_walked_enumerated_and_referenced_agree(dim):
    """Every basis vector of the gametic algebra has weight 1 and both
    weighted identities hold on it, in every basis, so their scans run to
    the end with every weight term live.  On it and its rebased copies the
    walk, the enumeration and the reference scans agree for all six
    identities; from dimension 7 every form walks the family."""
    g = gametic(dim)
    assert all(identities._walks(g.algebra, identities._form(i))
               == (dim >= (4 if i is Identity.JORDAN else 7)) for i in ALL_IDENTITIES)
    for label, c in [("family", g)] + rebased_copies(g):
        for ident in (Identity.BERNSTEIN, Identity.CUBE_WEIGHT):
            assert identities._scan(c.algebra, ident, c.weight) is None, (label, ident)
        _assert_walk_matches_enumeration(c.algebra, c.weight, f"gametic{dim} {label}")
        _assert_scans_match_the_references(c.algebra, c.weight, f"gametic{dim} {label}")


def direct_sum(a, b):
    """a (x) b, a's basis first."""
    products = {}
    for alg, shift in ((a, 0), (b, a.dim)):
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                row = [0] * (a.dim + b.dim)
                for k, c in alg.table_row(i, j) or ():
                    row[shift + k] = c
                products[shift + i, shift + j] = row
    return CommAlgebra([f"b{i}" for i in range(a.dim + b.dim)], products)


def test_support_walk_passes_candidates_whose_terms_cancel(monkeypatch):
    # the Jordan form vanishes on jordan3 with nonzero terms, so the walk
    # must sum, and pass, its candidates there before bdown3's first failure
    a = direct_sum(make_family("jordan3").algebra, make_family("bdown", 3).algebra)
    walked, enumerated = scans_both_ways(a, Identity.JORDAN, None)
    assert walked == enumerated and walked is not None and min(walked) >= 3
    seen, walk = [], identities._walk

    def recorded(*args):
        for t in walk(*args):
            seen.append(t)
            yield t

    monkeypatch.setattr(identities, "_walk", recorded)
    assert identities._scan(a, Identity.JORDAN, None) == walked
    mul = sparse_int_mul(a)

    def value(tree, t):
        return ((t[tree], 1),) if isinstance(tree, int) else mul(value(tree[0], t), value(tree[1], t))

    monomials = [tree for _, _, tree in identities._form(Identity.JORDAN).monomials]
    cancelled = [t for t in seen[:-1] if any(value(tree, t) for tree in monomials)]
    assert cancelled and all(not any(plan_sum(a, Identity.JORDAN, None, t)) for t in cancelled)


def test_a_scan_failing_on_its_first_tuple_makes_no_masks(monkeypatch):
    # e_0 is bdown's idempotent, so these fail at e_0 for every variable,
    # which `check_identity` evaluates before it sets up any scan
    b = make_family("bdown", 8)

    def fail(*args):
        raise AssertionError("no scan expected")

    monkeypatch.setattr(identities, "_scan", fail)
    monkeypatch.setattr(b.algebra, "_support_table", fail)
    e0 = b.algebra.basis_element(0)
    for ident in (Identity.JACOBI, Identity.CUBE_ZERO, Identity.SQUARE_SQUARE_ZERO):
        got = check_identity(b.algebra, ident)
        assert got is not True and got.assignment_dict() == dict.fromkeys(ident.variables, e0)
        assert identity_defect(b.algebra, ident, got.assignment_dict()) == got.residual
    assert b.algebra._supports is None


def _first_tuple_cases() -> list:
    """(label, algebra, weight or None): the families at n = 1..10 and
    jordan3 with their rebased copies, a copy of each baric one in a basis
    of weighted vectors, the wide-V Bernstein tables and the carry tables."""
    cases = []
    families = [(f"{kind}{n}", make_family(kind, n))
                for kind in ("bdown", "bup", "squareshift", "zhevlakov") for n in range(1, 11)]
    for name, alg in families + [("jordan3", make_family("jordan3"))]:
        copies = [("family", alg)] + rebased_copies(alg)
        if isinstance(alg, BaricAlgebra):
            copies.append(("weighted", weighted_basis_copy(alg, 0)))
        cases += [(f"{name} {label}", getattr(c, "algebra", c), getattr(c, "weight", None))
                  for label, c in copies]
    cases += [(f"wide V {r} {s} seed {seed}", b.algebra, b.weight)
              for r, s in WIDE_V_TYPES for seed in range(10)
              for b in [wide_v_bernstein(r, s, seed)]]
    for name, ((t00, t01, t11), _) in CARRY_TABLES.items():
        a = CommAlgebra(["b0", "b1"], {(0, 0): t00, (0, 1): t01, (1, 1): t11})
        cases += [(f"carry {name} {w}", a, w) for w in (None, (Fraction(1), Fraction(-2)))]
    return cases


def test_first_tuple_verdicts_match_the_scan_then_witness_route(monkeypatch):
    """`check_identity` returns the witness of the scan's first failing
    tuple, assignment, residual and note, and scans only when the defect
    at e_0 vanishes, that is when the first failing tuple is not (0, ..., 0).
    Where e_0 e_0 = 0 that defect is 0 unevaluated: the scan comes before
    any witness is built."""
    scan, witness_at, calls = identities._scan, identities._witness_at, []

    def recorded(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    monkeypatch.setattr(identities, "_scan", recorded("scan", scan))
    monkeypatch.setattr(identities, "_witness_at", recorded("witness", witness_at))
    first_failures = skipped = 0
    for label, a, weight in _first_tuple_cases():
        for ident in ALL_IDENTITIES:
            if ident.needs_weight and weight is None:
                continue
            w = weight if ident.needs_weight else None
            t = scan(a, ident, w)
            want = True if t is None else identities._witness_from_tuple(a, ident, w, t)
            calls.clear()
            got = check_identity(a, ident, w)
            assert (got is True) == (want is True), (label, ident)
            if got is not True:
                assert tuple(got) == tuple(want), (label, ident)
            assert calls.count("scan") == (t is None or any(t)), (label, ident, t)
            if not a._int_rows[0][0]:
                assert calls[0] == "scan", (label, ident)
                skipped += 1
            first_failures += t is not None and not any(t)
    assert first_failures > 100 and skipped > 400


def test_bernstein_walk_on_bdown62_sums_few_tuples(monkeypatch):
    # every one of the 766,480 sorted 4-tuples of the 64 basis vectors is
    # zero but for the few where a product of the monomial table lands
    b = make_family("bdown", 62)
    seen, walk = [], identities._walk

    def counted(*args):
        for t in walk(*args):
            seen.append(t)
            yield t

    monkeypatch.setattr(identities, "_walk", counted)
    assert check_identity(b.algebra, Identity.BERNSTEIN, b.weight) is True
    assert 0 < len(seen) <= 5920


SMALL_SPARSE = [(name, make_family(*kind)) for name, kind in (
    ("jordan3", ("jordan3",)), ("bdown2", ("bdown", 2)), ("squareshift4", ("squareshift", 4)),
    ("zhevlakov5", ("zhevlakov", 5)))]


@pytest.mark.parametrize("name, alg", SMALL_SPARSE, ids=[c[0] for c in SMALL_SPARSE])
def test_jordan_walks_small_sparse_tables_that_one_multiset_forms_enumerate(name, alg,
                                                                             monkeypatch):
    a = getattr(alg, "algebra", alg)
    weight = getattr(alg, "weight", tuple(Fraction(k + 1, 2) for k in range(a.dim)))
    walks, walk = [], identities._walk

    def recorded(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(identities, "_walk", recorded)
    for b, w, sparse in ((a, weight, True), (*change_of_basis_copy(a, weight, 1), False)):
        for ident in ALL_IDENTITIES:
            walks.clear()
            identities._scan(b, ident, w if ident.needs_weight else None)
            assert len(walks) == (sparse and ident is Identity.JORDAN), (name, sparse, ident)
    walked, enumerated = scans_both_ways(a, Identity.JORDAN, None)
    assert walked == enumerated
    assert engine_scan(a, Identity.JORDAN) == reference_scan_jordan(a) == (
        walked and (walked[:3], walked[3]))


METAMORPHIC_CASES = ([(f"{kind}{n}", make_family(kind, n)) for kind in ("bdown", "bup")
                      for n in range(2, 11)]
                     + [(f"{kind}{n}", make_family(kind, n)) for kind in ("squareshift", "zhevlakov")
                        for n in range(3, 11)]
                     + [("jordan3", make_family("jordan3"))])


@pytest.mark.parametrize("name, alg", METAMORPHIC_CASES, ids=[c[0] for c in METAMORPHIC_CASES])
def test_verdicts_agree_on_walked_and_enumerated_copies(name, alg, monkeypatch):
    """A permuted family stays monomial and is walked, by Jordan at any
    dimension and by the other identities from dimension 7 on; a change of
    basis makes it dense and it is enumerated.  Every copy,
    walked as the library chooses and then walked throughout, gives the
    family's verdicts, and every witness re-evaluates to its residual."""
    baric = isinstance(alg, BaricAlgebra)
    copies = [("family", alg)] + rebased_copies(alg)
    if baric:
        copies.append(("weighted", weighted_basis_copy(alg, 0)))
    monomial = ("family", "permuted0", "permuted1", "scaled")
    for label, c in copies:
        a = getattr(c, "algebra", c)
        for ident in ALL_IDENTITIES:
            small = a.dim < 7 and ident is not Identity.JORDAN
            assert identities._walks(a, identities._form(ident)) == (
                label in monomial and not small), (label, ident)
    idents = [i for i in ALL_IDENTITIES if baric or not i.needs_weight]
    want = None
    for walked in (False, True):
        if walked:
            monkeypatch.setattr(identities, "_walks", lambda a, form: True)
        for label, copy in copies:
            a, weight = (copy.algebra, copy.weight) if baric else (copy, None)
            verdicts = {}
            for ident in idents:
                w = weight if ident.needs_weight else None
                result = check_identity(a, ident, w)
                verdicts[ident] = result is True
                if result is not True:
                    residual = identity_defect(a, ident, result.assignment_dict(), w)
                    assert residual == result.residual and not residual.is_zero(), (label, ident)
            want = want or verdicts
            assert verdicts == want, (label, walked)
