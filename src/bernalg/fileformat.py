"""Line-oriented text format for algebras given by structure constants.

Grammar ('#' starts a comment, blank lines ignored):

    algebra <name>
    basis <id> <id> ...
    weight <id> <p/q>            # omitted ids weigh 0; no weight lines at
                                 # all means the file is not baric
    prod <id> <id> = <p/q> <id> [+ <p/q> <id>] ...

Unordered pairs not declared multiply to zero; symmetric closure is
implied.  Duplicate declarations of the same pair are rejected unless they
agree exactly.  A basis of more than MAX_DIM vectors is refused up front,
and so is a rational written with more than MAX_DIGITS digits in all.
Parsing canonicalizes term order and drops zero terms, so
serialize(parse(text)) is stable after one pass and parse(serialize(f))
returns f for canonical files.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import BaricAlgebra, CommAlgebra

# input bounds: the identity scans visit C(dim + 3, 4) tuples, and every
# product pays for the digits of its rationals
MAX_DIM = 64
MAX_DIGITS = 1000

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    """Parse failure with 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class AlgebraFile:
    """Canonical in-memory form of one algebra file.  Two files are equal
    when all four fields are; a file is mutable, so it is not hashable."""

    __slots__ = ("name", "basis", "weights", "products")

    def __init__(self, name: str, basis: tuple, weights: dict | None = None,
                 products: dict | None = None):
        self.name = name
        self.basis = basis
        self.weights = {} if weights is None else weights
        self.products = {} if products is None else products

    def _key(self) -> tuple:
        return (self.name, self.basis, self.weights, self.products)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        return (f"AlgebraFile(name={self.name!r}, basis={self.basis!r}, "
                f"weights={self.weights!r}, products={self.products!r})")

    @property
    def is_baric(self) -> bool:
        return bool(self.weights)


def spec_rational(token: str) -> Fraction:
    """A rational in any form `Fraction` reads (CLI specs accept decimals
    and exponents too), refused before it is built when it is written with
    more than MAX_DIGITS digits, an exponent counting with its value."""
    mantissa, _, exponent = token.lower().partition("e")
    digits = sum(ch.isdigit() for ch in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal():
        digits += int(exponent) if len(exponent) <= 4 else MAX_DIGITS + 1
    if digits > MAX_DIGITS:
        raise ValueError(f"rational exceeds the digit cap MAX_DIGITS = {MAX_DIGITS}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational {token!r}") from None


class _BadToken(Exception):
    """A parse error at token `index` of the current line; `parse` turns it
    into a ParseError, working out the token's column only then."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _tokenize(line: str) -> list:
    """The whitespace-separated tokens of a line, up to its first '#'."""
    return line.split("#", 1)[0].split()


def _columns(line: str) -> list:
    """The 1-based column of each token of `_tokenize(line)`.  Only
    whitespace separates a token from the end of the one before, so its
    first occurrence from there is where it starts."""
    cols, end = [], 0
    for tok in _tokenize(line):
        start = line.find(tok, end)
        cols.append(start + 1)
        end = start + len(tok)
    return cols


def _file_rational(token: str, index: int) -> Fraction:
    """The rational `p` or `p/q` at token `index`, its digits counted
    before it is built."""
    m = _RATIONAL_RE.match(token)
    if m is None:
        raise _BadToken(f"malformed rational {token!r}", index)
    num, den = m.groups()
    if len(token) - (token[0] in "+-") - (den is not None) > MAX_DIGITS:
        raise _BadToken(f"rational exceeds the digit cap MAX_DIGITS = {MAX_DIGITS}", index)
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse(text: str) -> AlgebraFile:
    name = None
    basis: list[str] = []
    index: dict[str, int] = {}
    weights: dict[str, Fraction] = {}
    products: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head = tokens[0]
        try:
            if head == "algebra":
                if name is not None:
                    raise _BadToken("duplicate algebra line", 0)
                if len(tokens) != 2:
                    raise _BadToken("algebra line needs exactly one name", 0)
                if not _NAME_RE.match(tokens[1]):
                    raise _BadToken(f"bad algebra name {tokens[1]!r}", 1)
                name = tokens[1]
            elif name is None:
                raise _BadToken("file must start with an 'algebra' line", 0)
            elif head == "basis":
                if basis:
                    raise _BadToken("duplicate basis line", 0)
                if len(tokens) == 1:
                    raise _BadToken("empty basis line", 0)
                if len(tokens) > MAX_DIM + 1:
                    raise _BadToken(f"basis of {len(tokens) - 1} vectors exceeds the "
                                    f"dimension cap MAX_DIM = {MAX_DIM}", MAX_DIM + 1)
                for k, tok in enumerate(tokens[1:], 1):
                    if not _NAME_RE.match(tok):
                        raise _BadToken(f"bad basis identifier {tok!r}", k)
                    if tok in index:
                        raise _BadToken(f"duplicate basis identifier {tok!r}", k)
                    index[tok] = len(basis)
                    basis.append(tok)
            elif not basis:
                raise _BadToken("basis must be declared before this line", 0)
            elif head == "weight":
                if len(tokens) != 3:
                    raise _BadToken("weight line needs '<id> <p/q>'", 0)
                ident = tokens[1]
                if ident not in index:
                    raise _BadToken(f"unknown basis identifier {ident!r}", 1)
                value = _file_rational(tokens[2], 2)
                if ident in weights and weights[ident] != value:
                    raise _BadToken(f"conflicting weight for {ident!r}", 1)
                weights[ident] = value
            elif head == "prod":
                _parse_prod(tokens, index, products)
            else:
                raise _BadToken(f"unknown directive {head!r}", 0)
        except _BadToken as exc:
            raise ParseError(exc.message, lineno, _columns(raw)[exc.index]) from None

    if name is None:
        raise ParseError("missing 'algebra' line", max(1, text.count("\n") + 1), 1)
    if not basis:
        raise ParseError("missing 'basis' line", max(1, text.count("\n") + 1), 1)
    # a pair whose terms all cancel multiplies to zero, which files leave out
    order = sorted(products, key=lambda k: (index[k[0]], index[k[1]]))
    ordered = {key: products[key] for key in order if products[key]}
    return AlgebraFile(name, tuple(basis), dict(weights), ordered)


def _parse_prod(tokens, index, products) -> None:
    if len(tokens) < 5:
        raise _BadToken("prod line needs '<id> <id> = <p/q> <id> ...'", 0)
    na, nb, eq = tokens[1:4]
    for k in (1, 2):
        if tokens[k] not in index:
            raise _BadToken(f"unknown basis identifier {tokens[k]!r}", k)
    if eq != "=":
        raise _BadToken("expected '=' after the basis pair", 3)
    combo: dict[str, Fraction] = {}
    pos, end = 4, len(tokens)
    while pos < end:
        if pos > 4 and tokens[pos] == "+":
            pos += 1
            if pos >= end:
                raise _BadToken("dangling '+' in product", pos - 1)
        if pos + 1 >= end:
            raise _BadToken("product term needs '<p/q> <id>'", pos)
        coeff = _file_rational(tokens[pos], pos)
        ident = tokens[pos + 1]
        if ident not in index:
            raise _BadToken(f"unknown basis identifier {ident!r}", pos + 1)
        # a repeated identifier adds to its earlier coefficient
        combo[ident] = combo[ident] + coeff if ident in combo else coeff
        pos += 2
    key = (na, nb) if index[na] <= index[nb] else (nb, na)
    canon = tuple((coeff, ident) for ident, coeff in
                  sorted(combo.items(), key=lambda kv: index[kv[0]]) if coeff)
    if key in products and products[key] != canon:
        raise _BadToken(f"conflicting duplicate product for pair {key[0]} {key[1]}", 1)
    products[key] = canon


def serialize(f: AlgebraFile) -> str:
    lines = [f"algebra {f.name}", "basis " + " ".join(f.basis)]
    order = {n: i for i, n in enumerate(f.basis)}
    for ident in sorted(f.weights, key=order.__getitem__):
        lines.append(f"weight {ident} {f.weights[ident]}")
    for (na, nb) in sorted(f.products, key=lambda k: (order[k[0]], order[k[1]])):
        combo = f.products[(na, nb)]
        if not combo:
            continue
        rhs = " + ".join(f"{c} {ident}" for c, ident in combo)
        lines.append(f"prod {na} {nb} = {rhs}")
    return "\n".join(lines) + "\n"


def to_algebra(f: AlgebraFile):
    """Build a CommAlgebra (no weight lines) or BaricAlgebra from a file."""
    table = {}
    for (na, nb), combo in f.products.items():
        table[(na, nb)] = {ident: coeff for coeff, ident in combo}
    algebra = CommAlgebra.from_table(f.basis, table)
    if not f.is_baric:
        return algebra
    weight = [f.weights.get(n, Fraction(0)) for n in f.basis]
    return BaricAlgebra(algebra, weight)


def from_algebra(alg, name: str) -> AlgebraFile:
    """Serialize a CommAlgebra or BaricAlgebra into file form (rationals
    only), under a name that `parse` accepts back."""
    if not _NAME_RE.match(name):
        raise ValueError(f"bad algebra name {name!r}")
    baric = isinstance(alg, BaricAlgebra)
    a = alg.algebra if baric else alg
    names = a.basis_names
    products = {}
    for i in range(a.dim):
        for j in range(i, a.dim):
            row = a.table_row(i, j)
            if not row:
                continue
            combo = tuple((coeff, names[k]) for k, coeff in row)
            products[(names[i], names[j])] = combo
    weights = {}
    if baric:
        # an all-zero weight keeps one (zero) line so the file stays baric
        weights = ({names[i]: w for i, w in enumerate(alg.weight) if w != 0}
                   or {names[0]: alg.weight[0]})
    return AlgebraFile(name, tuple(names), weights, products)
