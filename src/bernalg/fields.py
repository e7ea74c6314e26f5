"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` values, which are always stored
reduced with a positive denominator, so exactness and canonical form come
for free.  Prime fields (p >= 5, avoiding characteristics 2 and 3 so that
halving stays invertible) exist only so that tests can run exhaustive
enumeration oracles over a finite ambient space; they are never used for
identity checks.

Integer hooks: `clear` writes a vector as integers over a positive scale d,
`back(n, d)` is n / d in the field, `reduce(row)` shrinks an integer row on
its line (gcd division over QQ, residues over GF(p)) and `normalize(row,
col)` picks the canonical multiple: primitive with row[col] > 0 over QQ,
row[col] = 1 over GF(p).
"""

from __future__ import annotations

import math
from fractions import Fraction


class RationalField:
    """Field object for exact rational arithmetic."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(value) -> Fraction:
        # a Fraction is immutable and already reduced, so it is its own image
        return value if type(value) is Fraction else Fraction(value)

    @staticmethod
    def clear(values) -> tuple[list, int]:
        """(integers, d) with integers[k] = d * values[k], d the lcm of the
        denominators.  A table holds few distinct denominators, so d is
        divided once by each of them, not once per value."""
        dens = {v.denominator for v in values}
        if len(dens) == 1:  # d itself: the numerators are the integers
            return [v.numerator for v in values], dens.pop()
        d = math.lcm(*dens)
        scale = {q: d // q for q in dens}
        return [v.numerator * scale[v.denominator] for v in values], d

    @staticmethod
    def back(n: int, d: int) -> Fraction:
        return Fraction(n, d)

    @staticmethod
    def reduce(row):
        g = math.gcd(*row)
        return row if g <= 1 else [x // g for x in row]

    @staticmethod
    def normalize(row, col: int):
        g = math.gcd(*row) if row[col] > 0 else -math.gcd(*row)
        return row if g == 1 else [x // g for x in row]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"

    def __str__(self) -> str:
        return "Q"


QQ = RationalField()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class ModP:
    """Residue class modulo a prime p, immutable; value is the residue in
    0..p-1."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("ModP is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"ModP(value={self.value!r}, p={self.p!r})"

    def _lift(self, other):
        if isinstance(other, ModP):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModP(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return ModP(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return ModP(-self.value, self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


class PrimeField:
    """GF(p) for a prime p >= 5; characteristics 2 and 3 are rejected."""

    def __init__(self, p: int):
        if not _is_prime(p) or p < 5:
            raise ValueError("prime field modulus must be a prime >= 5")
        self.p = p
        self.zero = ModP(0, p)
        self.one = ModP(1, p)

    def of(self, value) -> ModP:
        if isinstance(value, ModP):
            if value.p != self.p:
                raise ValueError("mixed moduli")
            return value
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes in GF(p)")
            return ModP(value.numerator * pow(den, self.p - 2, self.p), self.p)
        if isinstance(value, int):
            return ModP(value, self.p)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def clear(self, values) -> tuple[list, int]:
        """(residues in 0..p-1, 1): GF(p) has no denominators to clear."""
        return [self.of(v).value for v in values], 1

    def back(self, n: int, d: int) -> ModP:
        return ModP(n * pow(d, -1, self.p), self.p)

    def reduce(self, row) -> list:
        return [x % self.p for x in row]

    def normalize(self, row, col: int):
        inv = pow(row[col], -1, self.p)
        return row if inv == 1 else [x * inv % self.p for x in row]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    __str__ = __repr__
