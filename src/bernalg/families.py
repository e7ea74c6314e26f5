"""Deterministic generators for the example families at finite truncation.

All families keep the weight vector first in the basis order so that
serialized fixtures stay byte-stable.  Truncations are chosen so the
multiplication table is closed:

* zhevlakov(n): e_i e_j = e_{min(i,j)-1} for i, j >= 2 (closed as given).
* squareshift(n): e_k^2 = e_{k-1} for k >= 2 (closed as given).
* bdown(n): baric on (e, v1, u_1..u_n) with u_i v1 = u_{i-1}; products only
  move down, so cutting the top is closed.
* bup(n): baric on (e, v2, u_1..u_n) with u_i v2 = u_{i+1} for i < n and
  u_n v2 = 0.  The untruncated family has no nilpotent barideal and no
  finite chain behavior; the truncation deliberately restores both.
* jordan3: the minimal (e, u, v) algebra with u^2 = v, which is both
  nuclear (U^2 = V) and Jordan.

Plenary squaring squares coefficients at every step: for squareshift,
x = sum a_i e_i gives x^[2] = sum a_i^2 e_{i-1}, so a nonzero top
coefficient survives to a nonzero multiple of e_1.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import BaricAlgebra, CommAlgebra, Element
from .fields import QQ
from .fileformat import MAX_DIM

FAMILY_KINDS = ("zhevlakov", "squareshift", "bdown", "bup", "jordan3")


def make_family(kind: str, n: int | None = None, field=QQ):
    """Build a family member; plain commutative for zhevlakov/squareshift,
    baric for bdown/bup/jordan3 (jordan3 ignores n)."""
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family {kind!r}; choose one of {FAMILY_KINDS}")
    if kind == "jordan3":
        return _jordan3(field)
    if n is None or n < 1:
        raise ValueError(f"family {kind!r} needs a size n >= 1")
    dim = n + 2 if kind in ("bdown", "bup") else n
    if dim > MAX_DIM:
        raise ValueError(f"family {kind!r} at n = {n} has dimension {dim}, over the "
                         f"dimension cap MAX_DIM = {MAX_DIM}")
    if kind == "zhevlakov":
        return _zhevlakov(n, field)
    if kind == "squareshift":
        return _squareshift(n, field)
    if kind == "bdown":
        return _bdown(n, field)
    return _bup(n, field)


def _zhevlakov(n: int, field) -> CommAlgebra:
    names = [f"e{i}" for i in range(1, n + 1)]
    table = {}
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            table[(f"e{i}", f"e{j}")] = {f"e{min(i, j) - 1}": 1}
    return CommAlgebra.from_table(names, table, field)


def _squareshift(n: int, field) -> CommAlgebra:
    names = [f"e{i}" for i in range(1, n + 1)]
    table = {(f"e{k}", f"e{k}"): {f"e{k - 1}": 1} for k in range(2, n + 1)}
    return CommAlgebra.from_table(names, table, field)


def _bdown(n: int, field) -> BaricAlgebra:
    names = ["e", "v1"] + [f"u{i}" for i in range(1, n + 1)]
    half = Fraction(1, 2)
    table = {("e", "e"): {"e": 1}}
    for i in range(1, n + 1):
        table[("e", f"u{i}")] = {f"u{i}": half}
    for i in range(2, n + 1):
        table[(f"u{i}", "v1")] = {f"u{i - 1}": 1}
    algebra = CommAlgebra.from_table(names, table, field)
    return BaricAlgebra(algebra, [1] + [0] * (n + 1))


def _bup(n: int, field) -> BaricAlgebra:
    names = ["e", "v2"] + [f"u{i}" for i in range(1, n + 1)]
    half = Fraction(1, 2)
    table = {("e", "e"): {"e": 1}}
    for i in range(1, n + 1):
        table[("e", f"u{i}")] = {f"u{i}": half}
    for i in range(1, n):
        table[(f"u{i}", "v2")] = {f"u{i + 1}": 1}
    algebra = CommAlgebra.from_table(names, table, field)
    return BaricAlgebra(algebra, [1] + [0] * (n + 1))


def _jordan3(field) -> BaricAlgebra:
    names = ["e", "u", "v"]
    table = {
        ("e", "e"): {"e": 1},
        ("e", "u"): {"u": Fraction(1, 2)},
        ("u", "u"): {"v": 1},
    }
    algebra = CommAlgebra.from_table(names, table, field)
    return BaricAlgebra(algebra, [1, 0, 0])


def plenary_trace(a: CommAlgebra, x: Element, max_r: int) -> list[Element]:
    """The sequence x^[1] = x, x^[r] = (x^[r-1])^2, stopping after the first
    zero term or after max_r terms."""
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    trace = [x]
    while len(trace) < max_r and not trace[-1].is_zero():
        trace.append(trace[-1] * trace[-1])
        if trace[-1].is_zero():
            break
    return trace
