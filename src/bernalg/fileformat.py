"""Line-oriented text format for algebras given by structure constants.

Grammar ('#' starts a comment, blank lines ignored):

    algebra <name>
    basis <id> <id> ...
    weight <id> <p/q>            # omitted ids weigh 0; no weight lines at
                                 # all means the file is not baric
    prod <id> <id> = <p/q> <id> [+ <p/q> <id>] ...

Unordered pairs not declared multiply to zero; symmetric closure is
implied.  Duplicate declarations of the same pair are rejected unless they
agree exactly.  A basis of more than MAX_DIM vectors and a rational written
with more than MAX_DIGITS digits are refused up front.  Parsing canonicalizes term order and drops zero terms, so
serialize(parse(text)) is stable after one pass and parse(serialize(f))
returns f for canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .algebra import CommAlgebra
from .bernstein import BaricAlgebra
from .fields import QQ

# input bounds: the identity scans visit C(dim + 3, 4) tuples, and every
# product pays for the digits of its rationals
MAX_DIM = 64
MAX_DIGITS = 1000

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/([1-9]\d*))?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    """Parse failure with 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class AlgebraFile:
    """Canonical in-memory form of one algebra file."""

    name: str
    basis: tuple
    weights: dict = dc_field(default_factory=dict)
    products: dict = dc_field(default_factory=dict)

    @property
    def is_baric(self) -> bool:
        return bool(self.weights)


def parse_rational(token: str, line: int = 0, col: int = 0) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise ParseError(f"malformed rational {token!r}", line, col)
    try:
        return spec_rational(token)
    except ValueError as exc:
        raise ParseError(str(exc), line, col) from None


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


def _tokenize(line: str):
    code = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", code)]


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
        head, head_col = tokens[0]
        args = tokens[1:]
        if head == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line", lineno, head_col)
            if len(args) != 1:
                raise ParseError("algebra line needs exactly one name", lineno, head_col)
            if not _NAME_RE.match(args[0][0]):
                raise ParseError(f"bad algebra name {args[0][0]!r}", lineno, args[0][1])
            name = args[0][0]
            continue
        if name is None:
            raise ParseError("file must start with an 'algebra' line", lineno, head_col)
        if head == "basis":
            if basis:
                raise ParseError("duplicate basis line", lineno, head_col)
            if not args:
                raise ParseError("empty basis line", lineno, head_col)
            if len(args) > MAX_DIM:
                raise ParseError(f"basis of {len(args)} vectors exceeds the dimension cap "
                                 f"MAX_DIM = {MAX_DIM}", lineno, args[MAX_DIM][1])
            for tok, col in args:
                if not _NAME_RE.match(tok):
                    raise ParseError(f"bad basis identifier {tok!r}", lineno, col)
                if tok in index:
                    raise ParseError(f"duplicate basis identifier {tok!r}", lineno, col)
                index[tok] = len(basis)
                basis.append(tok)
            continue
        if not basis:
            raise ParseError("basis must be declared before this line", lineno, head_col)
        if head == "weight":
            if len(args) != 2:
                raise ParseError("weight line needs '<id> <p/q>'", lineno, head_col)
            (ident, icol), (val, vcol) = args
            if ident not in index:
                raise ParseError(f"unknown basis identifier {ident!r}", lineno, icol)
            value = parse_rational(val, lineno, vcol)
            if ident in weights and weights[ident] != value:
                raise ParseError(f"conflicting weight for {ident!r}", lineno, icol)
            weights[ident] = value
            continue
        if head == "prod":
            _parse_prod(args, index, products, lineno, head_col)
            continue
        raise ParseError(f"unknown directive {head!r}", lineno, head_col)

    if name is None:
        raise ParseError("missing 'algebra' line", max(1, text.count("\n") + 1), 1)
    if not basis:
        raise ParseError("missing 'basis' line", max(1, text.count("\n") + 1), 1)
    # a pair whose terms all cancel multiplies to zero, which files leave out
    order = sorted(products, key=lambda k: (index[k[0]], index[k[1]]))
    ordered = {key: products[key] for key in order if products[key]}
    return AlgebraFile(name, tuple(basis), dict(weights), ordered)


def _parse_prod(args, index, products, lineno, head_col):
    if len(args) < 4:
        raise ParseError("prod line needs '<id> <id> = <p/q> <id> ...'", lineno, head_col)
    (na, acol), (nb, bcol), (eq, eqcol) = args[0], args[1], args[2]
    for ident, col in ((na, acol), (nb, bcol)):
        if ident not in index:
            raise ParseError(f"unknown basis identifier {ident!r}", lineno, col)
    if eq != "=":
        raise ParseError("expected '=' after the basis pair", lineno, eqcol)
    terms = args[3:]
    combo: dict[str, Fraction] = {}
    pos = 0
    while pos < len(terms):
        if pos and terms[pos][0] == "+":
            pos += 1
            if pos >= len(terms):
                raise ParseError("dangling '+' in product", lineno, terms[pos - 1][1])
        if pos + 1 >= len(terms):
            raise ParseError("product term needs '<p/q> <id>'", lineno, terms[pos][1])
        coeff = parse_rational(terms[pos][0], lineno, terms[pos][1])
        ident, icol = terms[pos + 1]
        if ident not in index:
            raise ParseError(f"unknown basis identifier {ident!r}", lineno, icol)
        combo[ident] = combo.get(ident, Fraction(0)) + coeff
        pos += 2
    combo = {k: v for k, v in combo.items() if v != 0}
    key = (na, nb) if index[na] <= index[nb] else (nb, na)
    canon = tuple(sorted(combo.items(), key=lambda kv: index[kv[0]]))
    canon = tuple((coeff, ident) for ident, coeff in canon)
    if key in products and products[key] != canon:
        raise ParseError(f"conflicting duplicate product for pair {key[0]} {key[1]}",
                         lineno, acol)
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


def to_algebra(f: AlgebraFile, field=QQ):
    """Build a CommAlgebra (no weight lines) or BaricAlgebra from a file."""
    table = {}
    for (na, nb), combo in f.products.items():
        table[(na, nb)] = {ident: coeff for coeff, ident in combo}
    algebra = CommAlgebra.from_table(f.basis, table, field)
    if not f.is_baric:
        return algebra
    weight = [f.weights.get(n, Fraction(0)) for n in f.basis]
    return BaricAlgebra(algebra, weight)


def from_algebra(alg, name: str) -> AlgebraFile:
    """Serialize a CommAlgebra or BaricAlgebra into file form (rationals only)."""
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
