"""Exact verification of polynomial identities on a commutative algebra.

Each supported identity is decided by full multilinearization: every
variable of degree d is replaced by d fresh variables, the multilinear
component is extracted, and that symmetric multilinear form is checked on
all unordered tuples of basis vectors.  Over the rationals (infinite,
characteristic 0) this is equivalent to the identity holding for every
element.  A failing tuple is turned into a concrete witness by evaluating
the original identity at subset sums of the tuple; inclusion-exclusion
guarantees one of them has a nonzero defect.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field

from .algebra import CommAlgebra, Element, weight_of
from .fields import QQ


class Identity(enum.Enum):
    BERNSTEIN = "bernstein"              # (x^2)^2 = w(x)^2 x^2
    JORDAN = "jordan"                    # x(x^2 y) = x^2 (x y)
    CUBE_WEIGHT = "cube_weight"          # x^3 = w(x) x^2
    JACOBI = "jacobi"                    # (xy)z + (yz)x + (zx)y = 0
    CUBE_ZERO = "cube_zero"              # x^3 = 0
    SQUARE_SQUARE_ZERO = "square_square_zero"  # (x^2)^2 = 0

    @property
    def needs_weight(self) -> bool:
        return self in (Identity.BERNSTEIN, Identity.CUBE_WEIGHT)

    @property
    def variables(self) -> tuple[str, ...]:
        if self is Identity.JORDAN:
            return ("x", "y")
        if self is Identity.JACOBI:
            return ("x", "y", "z")
        return ("x",)


@dataclass(frozen=True)
class Witness:
    """A variable assignment together with the nonzero defect it produces."""

    assignment: tuple
    residual: object
    note: str = field(default="", compare=False)

    def __bool__(self) -> bool:
        # a witness is the falsy outcome of a check
        return False

    def assignment_dict(self) -> dict:
        return dict(self.assignment)


def _weight_for(a: CommAlgebra, ident: Identity, weight):
    """The weight as field elements when the identity needs one, else None."""
    if not ident.needs_weight:
        return None
    if weight is None:
        raise ValueError(f"identity {ident.value} needs a weight functional")
    w = tuple(a.field.of(x) for x in weight)
    if len(w) != a.dim:
        raise ValueError("weight vector length does not match the dimension")
    return w


def identity_defect(a: CommAlgebra, ident: Identity, assignment: dict, weight=None) -> Element:
    """Direct evaluation of the identity's defect at concrete elements."""
    weight = _weight_for(a, ident, weight)
    x = assignment["x"]
    if ident is Identity.BERNSTEIN:
        sq = x * x
        w = weight_of(weight, x)
        return sq * sq - w * w * sq
    if ident is Identity.JORDAN:
        y = assignment["y"]
        sq = x * x
        return x * (sq * y) - sq * (x * y)
    if ident is Identity.CUBE_WEIGHT:
        sq = x * x
        return sq * x - weight_of(weight, x) * sq
    if ident is Identity.JACOBI:
        y, z = assignment["y"], assignment["z"]
        return (x * y) * z + (y * z) * x + (z * x) * y
    if ident is Identity.CUBE_ZERO:
        return (x * x) * x
    if ident is Identity.SQUARE_SQUARE_ZERO:
        sq = x * x
        return sq * sq
    raise ValueError(f"unknown identity {ident!r}")


def _pair_products(a: CommAlgebra):
    basis = [a.basis_element(i) for i in range(a.dim)]
    prods = [[None] * a.dim for _ in range(a.dim)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            p = basis[i] * basis[j]
            prods[i][j] = p
            prods[j][i] = p
    return basis, prods


def _scan_degree4(a, weight, with_weight):
    """First basis 4-tuple where the linearized quartic form is nonzero.

    The multilinear component of (x^2)^2 is, up to a positive factor, the
    sum over the three pair-pairings; the weight part linearizes to the sum
    over the six ways of splitting the tuple into a weight pair and a
    product pair.
    """
    basis, prods = _pair_products(a)
    zero = a.field.zero
    two = a.field.of(2)
    for t in itertools.combinations_with_replacement(range(a.dim), 4):
        i, j, k, l = t
        acc = two * ((prods[i][j] * prods[k][l])
                     + (prods[i][k] * prods[j][l])
                     + (prods[i][l] * prods[j][k]))
        if with_weight:
            for (p, q), (r, s) in (((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k)),
                                   ((k, l), (i, j)), ((j, l), (i, k)), ((j, k), (i, l))):
                c = weight[p] * weight[q]
                if c != zero:
                    acc = acc - c * prods[r][s]
        if not acc.is_zero():
            return t
    return None


def _scan_degree3(a, weight, with_weight):
    """First basis triple where the linearized cubic form is nonzero."""
    basis, prods = _pair_products(a)
    zero = a.field.zero
    for t in itertools.combinations_with_replacement(range(a.dim), 3):
        i, j, k = t
        acc = (prods[i][j] * basis[k]) + (prods[i][k] * basis[j]) + (prods[j][k] * basis[i])
        if with_weight:
            for p, (r, s) in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                c = weight[p]
                if c != zero:
                    acc = acc - c * prods[r][s]
        if not acc.is_zero():
            return t
    return None


def _scan_jordan(a):
    """First ((x-triple), y) where the linearized Jordan form is nonzero."""
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


def _subset_sums(a: CommAlgebra, positions: tuple[int, ...]):
    """Distinct subset sums of basis vectors, smallest supports first."""
    seen = set()
    for size in range(1, len(positions) + 1):
        for combo in itertools.combinations(range(len(positions)), size):
            multiset = tuple(sorted(positions[c] for c in combo))
            if multiset in seen:
                continue
            seen.add(multiset)
            e = a.zero_element()
            for idx in multiset:
                e = e + a.basis_element(idx)
            yield e


def _witness_from_tuple(a, ident, weight, xs, y_index):
    """Convert a failing linearized tuple into a witness for the identity
    itself.  The scans compute a positive multiple of the identity's
    multilinear component, so by polarization some subset sum of the tuple
    has a nonzero defect; the final raise guards that argument."""
    if ident is Identity.JACOBI:
        i, j, k = xs
        assignment = {"x": a.basis_element(i), "y": a.basis_element(j), "z": a.basis_element(k)}
        residual = identity_defect(a, ident, assignment, weight)
        return Witness(tuple(assignment.items()), residual)
    y = {} if y_index is None else {"y": a.basis_element(y_index)}
    for x in _subset_sums(a, xs):
        assignment = {"x": x, **y}
        residual = identity_defect(a, ident, assignment, weight)
        if not residual.is_zero():
            return Witness(tuple(assignment.items()), residual)
    raise RuntimeError("linearized form is nonzero but no witness was found")


def check_identity(a: CommAlgebra, ident: Identity, weight=None):
    """True if the identity holds for every element of the algebra, else a
    Witness.  Only rational algebras are accepted: the multilinearization
    argument needs an infinite field of characteristic zero."""
    if a.field != QQ:
        raise ValueError("identity checking is only supported over the rationals")
    weight = _weight_for(a, ident, weight)
    if ident in (Identity.BERNSTEIN, Identity.SQUARE_SQUARE_ZERO):
        bad = _scan_degree4(a, weight, ident is Identity.BERNSTEIN)
        if bad is None:
            return True
        return _witness_from_tuple(a, ident, weight, bad, None)
    if ident in (Identity.CUBE_WEIGHT, Identity.CUBE_ZERO, Identity.JACOBI):
        bad = _scan_degree3(a, weight, ident is Identity.CUBE_WEIGHT)
        if bad is None:
            return True
        return _witness_from_tuple(a, ident, weight, bad, None)
    if ident is Identity.JORDAN:
        hit = _scan_jordan(a)
        if hit is None:
            return True
        xs, y = hit
        return _witness_from_tuple(a, ident, weight, xs, y)
    raise ValueError(f"unknown identity {ident!r}")


def random_element(a: CommAlgebra, rng: random.Random) -> Element:
    coords = [a.field.of(rng.randint(-6, 6)) / a.field.of(rng.randint(1, 3))
              for _ in range(a.dim)]
    return a.element(coords)


def random_identity_probe(a: CommAlgebra, ident: Identity, weight=None,
                          trials: int = 100, rng=None, seed: int = 0):
    """Sampling oracle: evaluate the identity at random rational elements,
    returning the first witness found or True."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if a.field != QQ:
        raise ValueError("identity probing is only supported over the rationals")
    weight = _weight_for(a, ident, weight)
    if rng is None:
        rng = random.Random(seed)
    for _ in range(trials):
        assignment = {v: random_element(a, rng) for v in ident.variables}
        residual = identity_defect(a, ident, assignment, weight)
        if not residual.is_zero():
            return Witness(tuple(assignment.items()), residual)
    return True
