"""Coverage for subspace operations and normalization behavior that the
other test files reach only indirectly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernalg import Matrix, Subspace, make_family, parse, serialize

from conftest import eigenspace, fresh_rng, random_vector_in


def test_subspace_lattice_methods():
    s1 = Subspace([[1, 0, 0], [0, 1, 0]], 3)
    s2 = Subspace([[0, 1, 1]], 3)
    assert s2.leq(s1.plus(s2))
    assert s1.contains((1, 1, 0))
    assert not s1.contains((0, 0, 1))


def test_subspace_product_is_symmetric():
    a = make_family("bdown", 2).algebra
    y = a.basis_element(1)  # v1
    u = Subspace([a.basis_element(2).coords, a.basis_element(3).coords], a.dim)
    v = Subspace([y.coords], a.dim)
    assert a.subspace_product(u, v) == a.subspace_product(v, u)


def test_eigenspace_requires_square():
    with pytest.raises(ValueError):
        eigenspace(Matrix.from_rows([[1, 2, 3]]), 1)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2]]) @ Matrix.from_rows([[1, 2]])


def test_transpose_roundtrip():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m
    assert m.transpose().at(2, 1) == Fraction(6)


small = st.integers(min_value=-4, max_value=4)


@given(st.lists(small, min_size=4, max_size=4),
       st.lists(small, min_size=4, max_size=4),
       st.lists(small, min_size=4, max_size=4), small, small)
@settings(max_examples=60, deadline=None)
def test_product_is_bilinear(xc, yc, zc, s, t):
    a = make_family("bdown", 2).algebra
    x, y, z = a.element(xc), a.element(yc), a.element(zc)
    left = (s * x + t * y) * z
    assert left == s * (x * z) + t * (y * z)
    assert x * (s * y + t * z) == s * (x * y) + t * (x * z)


def test_parse_normalizes_messy_input_once():
    messy = (
        "algebra mess\n"
        "\n"
        "basis e v1 u1 u2   # comment\n"
        "prod v1 u2 = 1 u1\n"
        "weight e 2/2\n"
        "prod e u2 = 1/2 u2\n"
        "prod u1 e = 1/2 u1\n"
        "prod e e = 1 u1 + 1 e + -1 u1\n"
        "prod u2 v1 = 1 u1\n"  # agreeing duplicate in flipped order
    )
    f = parse(messy)
    canonical = serialize(f)
    assert canonical == (
        "algebra mess\n"
        "basis e v1 u1 u2\n"
        "weight e 1\n"
        "prod e e = 1 e\n"
        "prod e u1 = 1/2 u1\n"
        "prod e u2 = 1/2 u2\n"
        "prod v1 u2 = 1 u1\n")
    assert serialize(parse(canonical)) == canonical


def test_random_membership_consistency():
    rng = fresh_rng(77)
    a = make_family("bup", 3).algebra
    full = a.full_space()
    for _ in range(50):
        rows = [random_vector_in(rng, full) for _ in range(rng.randint(0, 3))]
        s = Subspace(rows, a.dim)
        for row in rows:
            assert s.contains(row)
        coords = s.coords_of(random_vector_in(rng, s)) if not s.is_zero() else ()
        assert coords is not None
