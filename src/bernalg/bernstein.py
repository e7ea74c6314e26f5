"""Baric and Bernstein structure: weight verification, idempotents, Peirce
decompositions, the annihilator ideal ann_U(U), classification flags,
baric quotients, the nuclear core Ke + U + U^2, and the per-call
`Analysis` that computes each of these facts at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (CommAlgebra, Element, PRINCIPAL, PowerChain, induced_table,
                      is_ideal, power_chain, weight_of)
from .identities import Identity, Witness, check_identity
from .linalg import Matrix, Subspace, eigenspace


class BaricAlgebra:
    """A commutative algebra together with a weight functional given by its
    values on the basis."""

    def __init__(self, algebra: CommAlgebra, weight):
        self.algebra = algebra
        self.weight = tuple(algebra.field.of(x) for x in weight)
        if len(self.weight) != algebra.dim:
            raise ValueError("weight vector length does not match the dimension")

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def barideal(self) -> Subspace:
        """N = ker(weight), the codimension-one ideal of a valid weight."""
        m = Matrix(1, self.dim, self.weight, self.field)
        return m.kernel()

    def __repr__(self):
        return f"BaricAlgebra(dim={self.dim}, basis={list(self.algebra.basis_names)})"


@dataclass(frozen=True)
class PeirceData:
    """Idempotent of weight one with its eigenspace decomposition.

    U is the 1/2-eigenspace and V the 0-eigenspace of multiplication by e
    on N; annU = {u in U : u*U = 0}.
    """

    e: Element
    U: Subspace
    V: Subspace
    N: Subspace
    annU: Subspace


@dataclass(frozen=True)
class ClassificationFlags:
    """Classification verdicts; jordan/nuclear are None unless the algebra
    verified as Bernstein.  Every False flag has an entry in witnesses."""

    is_baric: bool
    is_bernstein: bool | None
    is_jordan: bool | None
    is_nuclear: bool | None
    barideal_nilpotent: bool | None
    witnesses: dict


class NotBernsteinError(ValueError):
    """A computation that needs a Bernstein algebra met one that is not."""

    def __init__(self, message: str, b: BaricAlgebra):
        super().__init__(message)
        self.baric = b

    def witnesses(self) -> dict:
        """The broken weight pair or Bernstein identity, keyed like the
        witnesses of ClassificationFlags; computed on demand."""
        w = verify_weight(self.baric)
        if w is not True:
            return {"baric": w}
        w = check_identity(self.baric.algebra, Identity.BERNSTEIN, self.baric.weight)
        return {} if w is True else {"bernstein": w}


def verify_weight(b: BaricAlgebra):
    """True iff the weight is nonzero and multiplicative on all basis pairs
    (sufficient by bilinearity); otherwise a Witness."""
    zero = b.field.zero
    if all(w == zero for w in b.weight):
        return Witness((), zero, note="weight functional is identically zero")
    a = b.algebra
    for i in range(a.dim):
        for j in range(i, a.dim):
            lhs = zero
            row = a.table_row(i, j)
            if row:
                for k, coeff in row:
                    lhs = lhs + b.weight[k] * coeff
            diff = lhs - b.weight[i] * b.weight[j]
            if diff != zero:
                return Witness((("x", a.basis_element(i)), ("y", a.basis_element(j))),
                               diff, note="weight is not multiplicative on this pair")
    return True


def find_idempotent(b: BaricAlgebra, seed: Element | None = None) -> Element:
    """Square of a normalized weight-one element; by default the first basis
    vector of nonzero weight is used as the seed.  The result is verified to
    be an idempotent of weight one, which fails exactly when the input is
    not Bernstein."""
    zero, one = b.field.zero, b.field.one
    a = b.algebra
    if seed is None:
        for k, w in enumerate(b.weight):
            if w != zero:
                seed = a.basis_element(k)
                break
        if seed is None:
            raise NotBernsteinError("weight functional is zero; no idempotent seed exists", b)
    w = weight_of(b.weight, seed)
    if w == zero:
        raise ValueError("seed element has weight zero")
    x = (one / w) * seed
    e = x * x
    if e * e != e or weight_of(b.weight, e) != one:
        raise NotBernsteinError("squared seed is not an idempotent of weight one; "
                                "the algebra is not Bernstein", b)
    return e


def peirce(b: BaricAlgebra, e: Element | None = None) -> PeirceData:
    """Peirce decomposition N = U + V for the idempotent e, plus annU.

    U and V are the 1/2- and 0-eigenspaces of multiplication by e restricted
    to N; the decomposition must be direct, which fails on non-Bernstein
    input."""
    if e is None:
        e = find_idempotent(b)
    a = b.algebra
    n = b.barideal()
    le = a.left_mult_matrix(e, restrict_to=n)
    half = b.field.of(Fraction(1, 2))
    u = n.span_of_coords(eigenspace(le, half))
    v = n.span_of_coords(eigenspace(le, b.field.zero))
    if u.dim + v.dim != n.dim or u.plus(v) != n:
        raise NotBernsteinError("barideal does not split into the 1/2- and 0-eigenspaces; "
                                "the algebra is not Bernstein", b)
    return PeirceData(e, u, v, n, _annihilator_in_u(a, u))


def _annihilator_in_u(a: CommAlgebra, u: Subspace) -> Subspace:
    """{x in U : x*U = 0}, solved as one linear system over U's coordinates."""
    k = u.dim
    if k == 0:
        return Subspace.zero(a.dim, a.field)
    prods = [[a.mul_coords(u.rows[i], u.rows[j]) for j in range(k)] for i in range(k)]
    rows = []
    for j in range(k):
        for t in range(a.dim):
            rows.append([prods[i][j][t] for i in range(k)])
    return u.span_of_coords(Matrix.from_rows(rows, k, a.field).kernel())


def check_peirce_relations(b: BaricAlgebra, p: PeirceData):
    """Verify U^2 <= V, UV <= U, V^2 <= U, U V^2 = 0, annU (U + U^2) = 0 and
    V^2 <= annU; returns True or a Witness naming the broken inclusion."""
    a = b.algebra
    u2 = a.subspace_product(p.U, p.U)
    v2 = a.subspace_product(p.V, p.V)
    checks = (
        (p.U, p.U, p.V, "U*U is not contained in V"),
        (p.U, p.V, p.U, "U*V is not contained in U"),
        (p.V, p.V, p.U, "V*V is not contained in U"),
        (p.U, v2, Subspace.zero(a.dim, a.field), "U*V^2 is nonzero"),
        (p.annU, p.U.plus(u2), Subspace.zero(a.dim, a.field), "annU*(U + U^2) is nonzero"),
    )
    for left, right, target, note in checks:
        if not a.subspace_product(left, right).leq(target):
            w = _product_witness(a, left, right, target, note)
            if w is not None:
                return w
    if not v2.leq(p.annU):
        for row in v2.rows:
            if not p.annU.contains(row):
                return Witness((("v2", a.element(row)),), a.element(row),
                               note="V^2 is not contained in annU")
    return True


def _product_witness(a: CommAlgebra, s1: Subspace, s2: Subspace, target: Subspace, note: str):
    for x in s1.rows:
        for y in s2.rows:
            prod = a.mul_coords(x, y)
            if not target.contains(prod):
                return Witness((("x", a.element(x)), ("y", a.element(y))),
                               a.element(prod), note=note)
    return None


def _jordan_structural(b: BaricAlgebra, p: PeirceData):
    """Condition: V^2 = 0 and (u v) v = 0, checked on basis tuples via the
    polarized form (u v) w + (u w) v (valid away from characteristic 2)."""
    a = b.algebra
    v2 = a.subspace_product(p.V, p.V)
    if not v2.is_zero():
        for x in p.V.rows:
            for y in p.V.rows:
                prod = a.mul_coords(x, y)
                if any(c != a.field.zero for c in prod):
                    return Witness((("v", a.element(x)), ("w", a.element(y))),
                                   a.element(prod), note="V*V is nonzero")
    for urow in p.U.rows:
        u = a.element(urow)
        for j in range(p.V.dim):
            vj = a.element(p.V.rows[j])
            for k in range(j, p.V.dim):
                vk = a.element(p.V.rows[k])
                defect = (u * vj) * vk if j == k else (u * vj) * vk + (u * vk) * vj
                if not defect.is_zero():
                    return Witness((("u", u), ("v", vj)) if j == k else
                                   (("u", u), ("v", vj), ("w", vk)),
                                   defect, note="(u v) v does not vanish")
    return True


class Analysis:
    """The facts one report needs about one algebra, each computed at most
    once: the weight verdict, identity verdicts, Peirce data and the power
    chains of the start subspace (the barideal N for baric input, the whole
    space otherwise).  Make a fresh one per report; it caches nothing
    beyond its own lifetime.
    """

    def __init__(self, alg, rng_seed: int = 0):
        self.baric = isinstance(alg, BaricAlgebra)
        self.source = alg
        self.algebra = alg.algebra if self.baric else alg
        self.weight = alg.weight if self.baric else None
        self.rng_seed = rng_seed
        self._identities = {}
        self._chains = {}

    @property
    def battery(self) -> tuple:
        """The identities that apply: weight-based ones only on baric input."""
        return tuple(i for i in Identity if self.baric or not i.needs_weight)

    def identity(self, ident: Identity):
        if ident not in self._identities:
            self._identities[ident] = check_identity(self.algebra, ident, self.weight,
                                                     self.rng_seed)
        return self._identities[ident]

    @cached_property
    def weight_ok(self):
        return verify_weight(self.source)

    @cached_property
    def start(self) -> Subspace:
        return self.source.barideal() if self.baric else self.algebra.full_space()

    @cached_property
    def peirce(self) -> PeirceData:
        return peirce(self.source)

    def chain(self, kind: str, max_steps: int | None = None) -> PowerChain:
        # max_steps is part of the key: the flags read the uncapped principal
        # chain even when a report caps its chains
        key = (kind, max_steps)
        if key not in self._chains:
            self._chains[key] = power_chain(self.algebra, self.start, kind, max_steps)
        return self._chains[key]

    @cached_property
    def flags(self) -> ClassificationFlags:
        """Weight, Bernstein identity, Jordan (structural condition on the
        Peirce components), nuclearity U^2 = V, and nilpotency of the
        barideal; baric input only."""
        witnesses: dict = {}
        if self.weight_ok is not True:
            witnesses["baric"] = self.weight_ok
            return ClassificationFlags(False, None, None, None, None, witnesses)
        bern = self.identity(Identity.BERNSTEIN)
        if bern is not True:
            witnesses["bernstein"] = bern
            return ClassificationFlags(True, False, None, None, None, witnesses)
        a, p = self.algebra, self.peirce
        jordan = _jordan_structural(self.source, p)
        if jordan is not True:
            witnesses["jordan"] = jordan
        u2 = a.subspace_product(p.U, p.U)
        nuclear = u2 == p.V
        if not nuclear:
            for row in p.V.rows:
                if not u2.contains(row):
                    witnesses["nuclear"] = Witness((("v", a.element(row)),), a.element(row),
                                                   note="V is not exhausted by U*U")
                    break
        chain = self.chain(PRINCIPAL)
        nilpotent = chain.nil_index is not None
        if not nilpotent:
            witnesses["barideal_nilpotent"] = chain.terms[-1]
        return ClassificationFlags(True, True, jordan is True, nuclear, nilpotent, witnesses)


def classify(b: BaricAlgebra) -> ClassificationFlags:
    """Run the full classification battery; see Analysis.flags."""
    return Analysis(b).flags


def quotient(b: BaricAlgebra, ideal: Subspace) -> BaricAlgebra:
    """Quotient by a baric ideal (an ideal contained in ker weight), on the
    complement basis made of the first standard coordinate vectors that
    extend the ideal to a full basis."""
    a = b.algebra
    if ideal.ambient_dim != a.dim:
        raise ValueError("ideal ambient dimension does not match the algebra")
    if not is_ideal(a, ideal):
        raise ValueError("subspace is not an ideal")
    if not ideal.leq(b.barideal()):
        raise ValueError("ideal is not contained in the kernel of the weight")
    chosen = []
    work = ideal
    for k in range(a.dim):
        if not work.contains(_unit(a, k)):
            chosen.append(k)
            work = work.plus(Subspace([_unit(a, k)], a.dim, a.field))
    units = [_unit(a, k) for k in chosen]
    table = induced_table(a, units, list(ideal.rows) + units)
    products = {pair: coords[ideal.dim:] for pair, coords in table.items()}
    qa = CommAlgebra([a.basis_names[k] for k in chosen], products, a.field)
    return BaricAlgebra(qa, [b.weight[k] for k in chosen])


def _unit(a: CommAlgebra, k: int):
    zero, one = a.field.zero, a.field.one
    return tuple(one if t == k else zero for t in range(a.dim))


def nuclear_core(b: BaricAlgebra, p: PeirceData | None = None) -> BaricAlgebra:
    """The subalgebra on Ke + U + U^2 with the restricted structure
    constants; always a nuclear Bernstein algebra when the input is
    Bernstein, and U + U^2 is verified to be an ideal of the input."""
    if p is None:
        p = peirce(b)
    a = b.algebra
    u2 = a.subspace_product(p.U, p.U)
    barpart = p.U.plus(u2)
    if not is_ideal(a, barpart):
        raise ValueError("U + U^2 failed the ideal check; input is not Bernstein")
    core_rows = [p.e.coords] + list(p.U.rows) + list(u2.rows)
    names = (["e"] + [f"u{i + 1}" for i in range(p.U.dim)]
             + [f"w{i + 1}" for i in range(u2.dim)])
    products = induced_table(a, core_rows, core_rows)
    if products is None:
        raise ValueError("Ke + U + U^2 is not multiplicatively closed; "
                         "input is not Bernstein")
    core = CommAlgebra(names, products, a.field)
    weight = [weight_of(b.weight, a.element(r)) for r in core_rows]
    result = BaricAlgebra(core, weight)
    cp = peirce(result, result.algebra.basis_element(0))
    if result.algebra.subspace_product(cp.U, cp.U) != cp.V:
        raise ValueError("core failed the nuclearity check; input is not Bernstein")
    return result

