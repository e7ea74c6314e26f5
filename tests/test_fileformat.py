import glob
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernalg import (BaricAlgebra, ParseError, classify, from_algebra,
                     make_family, parse, serialize, to_algebra)
from bernalg import fileformat
from bernalg.cli import main

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


def test_basis_over_the_dimension_cap_is_refused(monkeypatch):
    monkeypatch.setattr(fileformat, "MAX_DIM", 3)
    parse("algebra a\nbasis x y z\n")
    with pytest.raises(ParseError) as exc:
        parse("algebra a\nbasis x y z w\nprod x x = 1 w\n")
    assert "MAX_DIM = 3" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (2, 13)  # the first vector over the cap


def test_rational_over_the_digit_cap_is_refused():
    cap = fileformat.MAX_DIGITS
    half = cap // 2
    parse(f"algebra a\nbasis x\nweight x {'7' * half}/{'3' * (cap - half)}\n")
    for token in ("1" * (cap + 1), f"-1/{'3' * cap}"):
        with pytest.raises(ParseError) as exc:
            parse(f"algebra a\nbasis x y\nprod x x = {token} y\n")
        assert f"MAX_DIGITS = {cap}" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (3, 12)


def test_spec_rationals_keep_the_fraction_grammar_under_the_digit_cap():
    cap = fileformat.MAX_DIGITS
    for token in ("1/2", " -3 ", "1.5", "2e3", "1E-2", "7" * cap):
        assert fileformat.spec_rational(token) == Fraction(token)
    # an exponent is counted before the number is built
    for token in ("1" * (cap + 1), "1e99999999", f"1e-{cap + 1}", "0." + "1" * cap):
        with pytest.raises(ValueError) as exc:
            fileformat.spec_rational(token)
        assert f"MAX_DIGITS = {cap}" in str(exc.value)
    with pytest.raises(ValueError):
        fileformat.spec_rational("1e")


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


@pytest.mark.parametrize("name", ["my-alg.v2_quot", "x y", "1abc", ""])
def test_from_algebra_refuses_a_name_that_parse_refuses(name):
    with pytest.raises(ParseError):
        parse(f"algebra {name}\nbasis e\n")
    with pytest.raises(ValueError, match=re.escape(f"bad algebra name {name!r}")):
        from_algebra(make_family("bdown", 1), name)


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


# ---------------------------------------------------------------- fuzzing


_TOKENS = st.sampled_from(["algebra", "basis", "weight", "prod", "=", "+", "#", "a", "b",
                           "1", "-1/2", "1/0", "0", "3/", "x1", "\t", " ", "\n", "1" * 12])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200),
                 st.lists(_TOKENS, max_size=40).map(" ".join),
                 st.lists(_TOKENS, max_size=40).map("".join)))
def test_parse_raises_only_parse_error_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def algebra_texts(draw):
    """Valid algebra files: a basis, some weights and products with
    rational coefficients, in any order, possibly repeated and with
    comments, blank lines and zero coefficients."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                          min_size=1, max_size=5, unique=True))
    lines = [f"algebra {draw(st.sampled_from(['a', 'alg_1', 'B']))}", "basis " + " ".join(names)]
    body = [f"weight {n} {draw(_RATIONALS)}" for n in draw(st.lists(st.sampled_from(names),
                                                                     unique=True))]
    for x, y in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                              max_size=6, unique_by=lambda p: frozenset(p))):
        terms = draw(st.lists(st.tuples(_RATIONALS, st.sampled_from(names)), min_size=1,
                              max_size=4))
        body.append(f"prod {x} {y} = " + " + ".join(f"{c} {n}" for c, n in terms))
    body = draw(st.permutations(body))
    body += draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=2))
    return "\n".join(lines + body) + "\n"


@settings(max_examples=200, deadline=None)
@given(algebra_texts())
def test_valid_files_round_trip_through_serialize(text):
    f = parse(text)
    assert parse(serialize(f)) == f


# every character that str.split or the regex \s takes for whitespace,
# with two look-alikes that neither does
WHITESPACE = [c for c in map(chr, range(0x3001))
              if c.isspace() or re.fullmatch(r"\s", c)] + ["\u200b", "\ufeff"]


@given(st.text(st.one_of(st.sampled_from(WHITESPACE + ["#", "x", "/"]), st.characters())))
@settings(max_examples=400, deadline=None)
def test_tokens_and_columns_match_a_regex_scan(line):
    want = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line.split("#", 1)[0])]
    tokens = fileformat._tokenize(line)
    assert len(tokens) == len(want)
    assert list(zip(tokens, fileformat._columns(line))) == want


# one input of each malformed kind with its (message, line, column)
PARSE_ERRORS = {
    "bad rational": ("algebra a\nbasis x y\nprod x y = 1/0 x\n",
                     ("malformed rational '1/0'", 3, 12)),
    "bad weight rational": ("algebra a\nbasis x\nweight x 1.5\n",
                            ("malformed rational '1.5'", 3, 10)),
    "over the digit cap": ("algebra a\nbasis x\nweight x " + "1" * 1001 + "\n",
                           ("rational exceeds the digit cap MAX_DIGITS = 1000", 3, 10)),
    "unknown identifier": ("algebra a\nbasis x y\nprod x\u3000z = 1 x  # z\n",
                           ("unknown basis identifier 'z'", 3, 8)),
    "unknown term identifier": ("algebra a\nbasis x y\nprod x y =\t1 x + 2/3 w\n",
                                ("unknown basis identifier 'w'", 3, 22)),
    "no basis": ("algebra a\nweight x 1\n",
                 ("basis must be declared before this line", 2, 1)),
    "missing basis": ("algebra a\n\n", ("missing 'basis' line", 3, 1)),
    "conflicting duplicate": ("algebra a\nbasis x y\nprod x y = 1 x\nprod  y x = 2 x\n",
                              ("conflicting duplicate product for pair x y", 4, 7)),
    "conflicting weight": ("algebra a\nbasis x y\nweight y 1\nweight y 2\n",
                           ("conflicting weight for 'y'", 4, 8)),
    "unknown directive": ("algebra a\nbasis x\n  mul x x = 1 x\n",
                          ("unknown directive 'mul'", 3, 3)),
    "no header": ("# c\nbasis x\n", ("file must start with an 'algebra' line", 2, 1)),
    "missing header": ("# only a comment\n", ("missing 'algebra' line", 2, 1)),
}


@pytest.mark.parametrize("kind", list(PARSE_ERRORS))
def test_parse_error_message_line_and_column(kind):
    text, (message, line, col) = PARSE_ERRORS[kind]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"line {line}, column {col}: {message}"


# the remaining malformed kinds, each with its (message, line, column)
STRUCTURE_ERRORS = {
    "duplicate algebra line": ("algebra a\nalgebra b\nbasis x\n",
                               ("duplicate algebra line", 2, 1)),
    "duplicate basis line": ("algebra a\nbasis x\nbasis y\n", ("duplicate basis line", 3, 1)),
    "bad basis identifier": ("algebra a\nbasis x 1y\n", ("bad basis identifier '1y'", 2, 9)),
    "duplicate basis identifier": ("algebra a\nbasis x y  x\n",
                                   ("duplicate basis identifier 'x'", 2, 12)),
    "short weight line": ("algebra a\nbasis x\nweight x\n",
                          ("weight line needs '<id> <p/q>'", 3, 1)),
    "unknown weight identifier": ("algebra a\nbasis x\nweight z 1\n",
                                  ("unknown basis identifier 'z'", 3, 8)),
    "short prod line": ("algebra a\nbasis e\nprod e e =\n",
                        ("prod line needs '<id> <id> = <p/q> <id> ...'", 3, 1)),
    "missing equals": ("algebra a\nbasis e\nprod e e 1 e\n",
                       ("expected '=' after the basis pair", 3, 10)),
    "dangling plus": ("algebra a\nbasis e\nprod e e = 1 e +\n", ("dangling '+' in product", 3, 16)),
    "term without identifier": ("algebra a\nbasis e\nprod e e = 1 e + 2\n",
                                ("product term needs '<p/q> <id>'", 3, 18)),
}


@pytest.mark.parametrize("kind", list(STRUCTURE_ERRORS))
def test_structure_errors_name_their_token_and_check_exits_2(kind, tmp_path, capsys):
    text, (message, line, col) = STRUCTURE_ERRORS[kind]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    alg = tmp_path / "bad.alg"
    alg.write_text(text, encoding="utf-8")
    assert main(["check", str(alg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: line {line}, column {col}: {message}\n"
