import glob
import os
from fractions import Fraction

import pytest

from bernalg import (BaricAlgebra, ParseError, classify, from_algebra,
                     make_family, parse, serialize, to_algebra)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_files():
    return sorted(glob.glob(os.path.join(DATA, "*.alg")))


def test_minimal_baric_file_parses():
    text = """\
# four dimensional example
algebra bdown2
basis e v1 u1 u2
weight e 1
prod e e = 1 e
prod e u1 = 1/2 u1
prod e u2 = 1/2 u2
prod v1 u2 = 1 u1
"""
    f = parse(text)
    assert f.name == "bdown2"
    assert f.basis == ("e", "v1", "u1", "u2")
    assert f.weights == {"e": Fraction(1)}
    alg = to_algebra(f)
    assert isinstance(alg, BaricAlgebra)
    assert alg.dim == 4
    assert classify(alg).is_bernstein is True


def test_file_without_weights_is_plain():
    f = parse("algebra sq\nbasis e1 e2\nprod e2 e2 = 1 e1\n")
    alg = to_algebra(f)
    assert not isinstance(alg, BaricAlgebra)
    assert (alg.basis_element(1) * alg.basis_element(1)) == alg.basis_element(0)


def test_empty_basis_line_errors():
    with pytest.raises(ParseError) as exc:
        parse("algebra a\nbasis\n")
    assert exc.value.line == 2


def test_unknown_identifier_named_in_error():
    with pytest.raises(ParseError) as exc:
        parse("algebra a\nbasis u1 v1\nprod u1 v1 = 1 u0\n")
    assert "u0" in str(exc.value)
    assert exc.value.line == 3
    assert exc.value.col == 16  # 'u0' starts at column 16


def test_malformed_rational_rejected():
    with pytest.raises(ParseError) as exc:
        parse("algebra a\nbasis x\nweight x 1/0\n")
    assert "1/0" in str(exc.value)
    with pytest.raises(ParseError):
        parse("algebra a\nbasis x\nweight x q\n")


def test_conflicting_duplicate_product_rejected():
    base = "algebra a\nbasis x y z\nprod x y = 1 z\n"
    parse(base + "prod y x = 1 z\n")  # agreeing symmetric duplicate is fine
    with pytest.raises(ParseError):
        parse(base + "prod y x = 2 z\n")


def test_missing_algebra_line():
    with pytest.raises(ParseError):
        parse("basis x\n")


def test_directives_after_comment_stripping():
    f = parse("algebra a  # trailing\nbasis x  # comment\n  # whole line\n")
    assert f.basis == ("x",)


def test_term_merging_and_zero_drop():
    f = parse("algebra a\nbasis x y\nprod x x = 1 y + -1 y + 1 x\n")
    assert f.products[("x", "x")] == ((Fraction(1), "x"),)


def test_round_trip_on_golden_files():
    for path in data_files():
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        f = parse(text)
        out = serialize(f)
        assert parse(out) == f
        # one normalization pass is idempotent
        assert serialize(parse(out)) == out


def test_zero_weight_file_round_trips_as_baric():
    f = parse("algebra z\nbasis e u\nweight e 0\n")
    assert f.is_baric
    again = parse(serialize(from_algebra(to_algebra(f), f.name)))
    assert again.is_baric
    assert again == f


def test_family_serialization_round_trip():
    for kind, n in (("bdown", 3), ("bup", 4), ("squareshift", 4),
                    ("zhevlakov", 3), ("jordan3", None)):
        alg = make_family(kind, n)
        f = from_algebra(alg, "g")
        assert parse(serialize(f)) == f
        rebuilt = to_algebra(f)
        a1 = alg.algebra if isinstance(alg, BaricAlgebra) else alg
        a2 = rebuilt.algebra if isinstance(rebuilt, BaricAlgebra) else rebuilt
        assert a1.basis_names == a2.basis_names
        for i in range(a1.dim):
            for j in range(a1.dim):
                assert a1.table_row(i, j) == a2.table_row(i, j)


def test_golden_fixture_contents_pinned():
    with open(os.path.join(DATA, "bdown2.alg"), "r", encoding="utf-8") as fh:
        assert fh.read() == (
            "algebra bdown2\n"
            "basis e v1 u1 u2\n"
            "weight e 1\n"
            "prod e e = 1 e\n"
            "prod e u1 = 1/2 u1\n"
            "prod e u2 = 1/2 u2\n"
            "prod v1 u2 = 1 u1\n")
