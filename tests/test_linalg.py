from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernalg import (Matrix, PrimeField, Subspace, eigenspace,
                     solve_row_combination)

from conftest import all_subspaces_within, fresh_rng, span_elements


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
    coeffs = solve_row_combination(rows, (F(2), F(3), F(1)), 3)
    assert coeffs == (F(2), F(1))
    assert solve_row_combination(rows, (F(0), F(0), F(1)), 3) is None


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
