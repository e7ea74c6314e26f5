"""Baric and Bernstein structure: weight verification, idempotents, Peirce
decompositions, the annihilator ideal ann_U(U), classification flags,
baric quotients, the nuclear core Ke + U + U^2, and the per-call
`Analysis` that computes each of these facts at most once.  The baric
pair itself, `BaricAlgebra`, is defined in `algebra` (so that reading a
file loads no Bernstein logic) and imported here under the same name.

The weight check, the Peirce split and annU run on the integer kernel
(`CommAlgebra._int_mul` over `Subspace.int_rows`): the weight is compared
on the integer table; 2L_e restricted to N is a projection in a Bernstein
algebra, so U = eN and V = (I - 2L_e)N are spanned by integer images of
N's rows, with no kernel solved; and annU is U itself when U*U = 0, else
one integer system over U's rows.  Rationals are built only for what a
report prints: the idempotent, the RREF views of the subspaces and the
witnesses.

The Bernstein gate of an `Analysis` makes the default split first and
proves the identity from it where the Peirce relations hold and four
subspace products vanish (`_proves_bernstein`), with no identity scan;
where the split, a relation or a product fails, `check_identity` scans, so
every failing verdict and every witness comes from the scan.  The
analysis's Peirce data is that one split.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .algebra import (BaricAlgebra, CommAlgebra, Element, PRINCIPAL, PowerChain, _sparse,
                      induced_table, is_ideal, power_chain, weight_of)
from .fields import QQ
from .identities import Identity, Witness, check_identity
from .linalg import Subspace


class PeirceData(NamedTuple):
    """Idempotent of weight one with its eigenspace decomposition.

    U is the 1/2-eigenspace and V the 0-eigenspace of multiplication by e
    on N; annU = {u in U : u*U = 0}.
    """

    e: Element
    U: Subspace
    V: Subspace
    N: Subspace
    annU: Subspace


class ClassificationFlags(NamedTuple):
    """Classification verdicts; jordan/nuclear are None unless the algebra
    verified as Bernstein.  Every False flag has an entry in witnesses."""

    is_baric: bool
    is_bernstein: bool | None
    is_jordan: bool | None
    is_nuclear: bool | None
    barideal_nilpotent: bool | None
    witnesses: dict


class NotBernsteinError(ValueError):
    """A computation that needs a Bernstein algebra met one that is not.
    witnesses holds the broken weight pair or Bernstein identity, keyed like
    the witnesses of ClassificationFlags (see bernstein_witnesses).  Over
    GF(p), where identities are not checked, it holds only the weight's:
    {"baric": w} when the weight fails, else {}."""

    def __init__(self, message: str, witnesses: dict):
        super().__init__(message)
        self.witnesses = witnesses


def bernstein_witnesses(b: BaricAlgebra) -> dict:
    """{} when the weight is valid and the Bernstein identity holds, else
    {"baric": w} or {"bernstein": w} for the first check that fails."""
    return Analysis(b).bernstein_witnesses


def _error_witnesses(b: BaricAlgebra) -> dict:
    """The witnesses of a NotBernsteinError raised on b (see its docstring)."""
    if b.field == QQ:
        return bernstein_witnesses(b)
    weight = verify_weight(b)
    return {} if weight is True else {"baric": weight}


def verify_weight(b: BaricAlgebra):
    """True iff the weight is nonzero and multiplicative on all basis pairs
    (sufficient by bilinearity); otherwise a Witness.

    With the integer table D T and the integer weight ws = Dw w, both
    Dw ws(D T_ij) and D ws_i ws_j are D Dw^2 times their rational values;
    over GF(p) they are compared modulo p."""
    field = b.field
    if all(w == field.zero for w in b.weight):
        return Witness((), field.zero, note="weight functional is identically zero")
    a = b.algebra
    (ws, dw), den = field.clear(b.weight), a._den
    for i in range(a.dim):
        for j in range(i, a.dim):
            diff = dw * sum(ws[k] * v for k, v in a._int_rows[i][j]) - den * ws[i] * ws[j]
            if any(field.reduce([diff])):
                return Witness((("x", a.basis_element(i)), ("y", a.basis_element(j))),
                               field.back(diff, den * dw * dw),
                               note="weight is not multiplicative on this pair")
    return True


def _idempotent(b: BaricAlgebra, seed: Element | None = None) -> Element | None:
    """The square of the seed scaled to weight one when it is an idempotent
    of weight one, else None; by default the seed is the first basis vector
    of nonzero weight, and None stands too for a zero weight."""
    zero, one = b.field.zero, b.field.one
    a = b.algebra
    if seed is None:
        k = next((k for k, w in enumerate(b.weight) if w != zero), None)
        if k is None:
            return None
        seed = a.basis_element(k)
    w = weight_of(b.weight, seed)
    if w == zero:
        raise ValueError("seed element has weight zero")
    x = (one / w) * seed
    e = x * x
    return e if e * e == e and weight_of(b.weight, e) == one else None


def find_idempotent(b: BaricAlgebra, seed: Element | None = None) -> Element:
    """Square of a normalized weight-one element; by default the first basis
    vector of nonzero weight is used as the seed.  The result is verified to
    be an idempotent of weight one.  That check fails only on input that is
    not Bernstein, but it can pass on such input too (the skewed bdown(2)
    and bup(3), whose split then fails)."""
    e = _idempotent(b, seed)
    if e is not None:
        return e
    if seed is None and all(w == b.field.zero for w in b.weight):
        raise NotBernsteinError("weight functional is zero; no idempotent seed exists",
                                _error_witnesses(b))
    raise NotBernsteinError("squared seed is not an idempotent of weight one; "
                            "the algebra is not Bernstein", _error_witnesses(b))


def peirce(b: BaricAlgebra, e: Element | None = None) -> PeirceData:
    """Peirce decomposition N = U + V for the idempotent e, plus annU.

    U and V are the 1/2- and 0-eigenspaces of multiplication by e restricted
    to N.  In a Bernstein algebra P = 2L_e on N is a projection, so they are
    its image and kernel: U = eN and V = {x - 2ex : x in N}, spanned by the
    images of N's rows; no kernel is solved.  The image of P and that of
    I - P always sum to N, and the sum is direct exactly when P(I - P) = 0
    (a vector P(I - P)x lies in both), so dim U + dim V = dim N is the
    projection test, L_e (2L_e - I) N = 0; it fails on non-Bernstein
    input."""
    p = _split(b, find_idempotent(b) if e is None else e)
    if p is None:
        raise NotBernsteinError("barideal does not split into the 1/2- and 0-eigenspaces; "
                                "the algebra is not Bernstein", _error_witnesses(b))
    return p


def _split(b: BaricAlgebra, e: Element) -> PeirceData | None:
    """The Peirce data of `peirce` for the idempotent e, or None when the
    projection test fails; it builds no NotBernsteinError, whose witnesses
    would run the Bernstein gate."""
    a, n, field = b.algebra, b.barideal(), b.field
    xs, dx = field.clear(e.coords)
    xs, c = _sparse(xs), a._den * dx
    rows, _ = n._common_pivot_rows()
    # y = c e r for each common-pivot row r of N, with c = D dx
    images = [a._int_mul(xs, _sparse(r)) for r in rows]
    # N = ker w, so y lies in N exactly when w(y) = 0
    ws, _ = field.clear(b.weight)
    if any(field.reduce([sum(w * t for w, t in zip(ws, y) if w) for y in images])):
        raise ValueError("restriction subspace is not invariant under this multiplication")
    u = Subspace.of_int_rows(images, a.dim, field)
    v = Subspace.of_int_rows([[c * s - 2 * t for s, t in zip(r, y)]
                              for r, y in zip(rows, images)], a.dim, field)
    if u.dim + v.dim != n.dim:
        return None
    return PeirceData(e, u, v, n, _annihilator_in_u(a, u))


def _proves_bernstein(a: CommAlgebra, p: PeirceData) -> bool:
    """True when the split proves the Bernstein identity: U^2 <= V, UV <= U,
    V^2 <= U and U(UV) = U V^2 = U U^2 = U^2 U^2 = 0.  False proves
    nothing.

    The split gives e u = u/2 and e v = 0, so for x = ae + u + v with
    a = w(x), x^2 = a^2 e + (au + 2uv + v^2) + u^2 with its U part and its
    V part in the brackets, and (x^2)^2 - a^2 x^2 = 4a u(uv) + 2a u v^2
    + 4(uv)^2 + 4(uv)v^2 + (v^2)^2 + 2a u u^2 + 4(uv)u^2 + 2v^2 u^2
    + (u^2)^2.  As UV and V^2 lie in U, each term lies in one of the four
    products: (uv)^2 in U(UV), (uv)v^2 and (v^2)^2 in U V^2, (uv)u^2 and
    v^2 u^2 in U U^2."""
    mul = a.subspace_product
    u2, uv, v2 = mul(p.U, p.U), mul(p.U, p.V), mul(p.V, p.V)
    return (u2.leq(p.V) and uv.leq(p.U) and v2.leq(p.U)
            and all(mul(s, t).is_zero() for s, t in ((p.U, uv), (p.U, v2), (p.U, u2), (u2, u2))))


def _annihilator_in_u(a: CommAlgebra, u: Subspace) -> Subspace:
    """{x in U : x*U = 0}: U itself when the memoised U*U is zero, else one
    integer system over U's coordinates: sum_i c_i D r_i r_j = 0 for every
    j, with r_i the common-pivot rows, one positive multiple L of the RREF
    rows."""
    if a.subspace_product(u, u).is_zero():
        return u
    rows = [_sparse(r) for r in u._common_pivot_rows()[0]]
    system = []
    for y in rows:
        system += zip(*(a._int_mul(x, y) for x in rows))
    return u.span_of_coords(Subspace.of_int_rows(system, u.dim, a.field).null_space())


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
        (p.U, v2, a.zero_space(), "U*V^2 is nonzero"),
        (p.annU, p.U.plus(u2), a.zero_space(), "annU*(U + U^2) is nonzero"),
    )
    for left, right, target, note in checks:
        if not a.subspace_product(left, right).leq(target):
            return _product_witness(a, left, right, target, note, ("x", "y"))
    if not v2.leq(p.annU):
        return _row_witness(a, v2, p.annU, "v2", "V^2 is not contained in annU")
    return True


def _product_witness(a: CommAlgebra, s1: Subspace, s2: Subspace, target: Subspace,
                     note: str, names) -> Witness:
    """The first product x*y of RREF rows of s1 and s2 outside target, with
    x and y under the two names; the caller has seen s1*s2 leave target."""
    for x, y in itertools.product(s1.rows, s2.rows):
        prod = a.mul_coords(x, y)
        if not target.contains(prod):
            return Witness(tuple(zip(names, (a.element(x), a.element(y)))),
                           a.element(prod), note=note)


def _row_witness(a: CommAlgebra, s: Subspace, target: Subspace, name: str, note: str) -> Witness:
    """The first RREF row of s outside target, as its own witness; the
    caller has seen s leave target."""
    x = a.element(next(r for r in s.rows if not target.contains(r)))
    return Witness(((name, x),), x, note=note)


def _jordan_structural(b: BaricAlgebra, p: PeirceData):
    """Condition: V^2 = 0 and (u v) v = 0, checked on basis tuples via the
    polarized form (u v) w + (u w) v (valid away from characteristic 2).

    The tuples run on the integer rows, each a positive multiple of its
    RREF row, so both terms of a defect carry the same positive factor and
    its zero test is exact; only the first nonzero one is rebuilt as a
    witness on the RREF rows."""
    a = b.algebra
    if not a.subspace_product(p.V, p.V).is_zero():
        return _product_witness(a, p.V, p.V, a.zero_space(), "V*V is nonzero", ("v", "w"))
    mul, reduce = a._int_mul, a.field.reduce
    vs = [_sparse(r) for r in p.V.int_rows]
    for i, urow in enumerate(p.U.int_rows):
        u = _sparse(urow)
        uvs = [_sparse(mul(u, v)) for v in vs]
        for j, (vj, uvj) in enumerate(zip(vs, uvs)):
            for k in range(j, len(vs)):
                defect = mul(uvj, vs[k])
                if j < k:
                    defect = [s + t for s, t in zip(defect, mul(uvs[k], vj))]
                if any(reduce(defect)):
                    return _jordan_witness(a, p, i, j, k)
    return True


def _jordan_witness(a: CommAlgebra, p: PeirceData, i: int, j: int, k: int) -> Witness:
    """The witness of the structural Jordan condition at RREF rows u_i of U
    and v_j, v_k of V (j <= k), whose defect the caller has seen nonzero."""
    u, vj, vk = a.element(p.U.rows[i]), a.element(p.V.rows[j]), a.element(p.V.rows[k])
    if j == k:
        return Witness((("u", u), ("v", vj)), (u * vj) * vj, note="(u v) v does not vanish")
    return Witness((("u", u), ("v", vj), ("w", vk)), (u * vj) * vk + (u * vk) * vj,
                   note="(u v) w + (u w) v does not vanish")


class Analysis:
    """The facts one report needs about one algebra, each computed at most
    once: the weight verdict, identity verdicts, Peirce data and the power
    chains of the start subspace (the barideal N for baric input, the whole
    space otherwise).  Make a fresh one per report; these facts die with
    it.  Subspace products are memoised apart from it, on the algebra
    itself for the algebra's lifetime (see `CommAlgebra.subspace_product`).
    """

    def __init__(self, alg):
        self.baric = isinstance(alg, BaricAlgebra)
        self.source = alg
        self.algebra = alg.algebra if self.baric else alg
        self.weight = alg.weight if self.baric else None
        self._identities = {}
        self._chains = {}

    @property
    def battery(self) -> tuple:
        """The identities that apply: weight-based ones only on baric input."""
        return tuple(i for i in Identity if self.baric or not i.needs_weight)

    def identity(self, ident: Identity):
        """True or the witness of `check_identity`; the Bernstein identity
        is True without a scan when the default split proves it."""
        if ident not in self._identities:
            proved = ident is Identity.BERNSTEIN and self.bernstein_proved
            self._identities[ident] = (True if proved
                                       else check_identity(self.algebra, ident, self.weight))
        return self._identities[ident]

    @cached_property
    def bernstein_proved(self) -> bool:
        """Whether the default split proves the Bernstein identity (see
        `_proves_bernstein`); tried on rational baric input with a valid
        weight only."""
        if not (self.baric and self.algebra.field == QQ and self.weight_ok is True):
            return False
        split = self.split
        return split is not None and _proves_bernstein(self.algebra, split)

    @cached_property
    def weight_ok(self):
        return verify_weight(self.source)

    @cached_property
    def start(self) -> Subspace:
        return self.source.barideal() if self.baric else self.algebra.full_space()

    @cached_property
    def split(self) -> PeirceData | None:
        """The default Peirce split, or None where the idempotent or the
        split fails; made at most once, for the Bernstein proof or `peirce`."""
        e = _idempotent(self.source)
        return None if e is None else _split(self.source, e)

    @cached_property
    def peirce(self) -> PeirceData:
        """The default split; where it fails, `peirce` raises its error."""
        return peirce(self.source) if self.split is None else self.split

    def chain(self, kind: str, max_steps: int | None = None) -> PowerChain:
        # max_steps is part of the key: the flags read the uncapped principal
        # chain even when a report caps its chains
        key = (kind, max_steps)
        if key not in self._chains:
            self._chains[key] = power_chain(self.algebra, self.start, kind, max_steps)
        return self._chains[key]

    @cached_property
    def bernstein_witnesses(self) -> dict:
        """The weight, then the Bernstein identity: {} when both hold, else
        the first failure's witness under "baric" or "bernstein"."""
        if self.weight_ok is not True:
            return {"baric": self.weight_ok}
        bern = self.identity(Identity.BERNSTEIN)
        return {} if bern is True else {"bernstein": bern}

    @cached_property
    def flags(self) -> ClassificationFlags:
        """Weight, Bernstein identity, Jordan (structural condition on the
        Peirce components), nuclearity U^2 = V, and nilpotency of the
        barideal; baric input only."""
        failed = self.bernstein_witnesses
        if failed:
            baric = "bernstein" in failed
            return ClassificationFlags(baric, False if baric else None, None, None, None,
                                       dict(failed))
        witnesses: dict = {}
        a, p = self.algebra, self.peirce
        jordan = _jordan_structural(self.source, p)
        if jordan is not True:
            witnesses["jordan"] = jordan
        u2 = a.subspace_product(p.U, p.U)
        nuclear = u2 == p.V
        if not nuclear:
            witnesses["nuclear"] = _row_witness(a, p.V, u2, "v", "V is not exhausted by U*U")
        chain = self.chain(PRINCIPAL)
        nilpotent = chain.nil_index is not None
        if not nilpotent:
            witnesses["barideal_nilpotent"] = chain.runs[-1].term
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
    # e_k lies in the ideal plus the earlier e_j exactly when some vector of
    # the ideal ends at k, that is when k is a pivot with the columns reversed
    ends = Subspace.of_int_rows([r[::-1] for r in ideal.int_rows], a.dim, a.field).pivots
    chosen = [k for k in range(a.dim) if a.dim - 1 - k not in ends]
    units = [[int(t == k) for t in range(a.dim)] for k in chosen]
    table = induced_table(a, units, list(ideal.rows) + units)
    products = {pair: coords[ideal.dim:] for pair, coords in table.items()}
    qa = CommAlgebra([a.basis_names[k] for k in chosen], products, a.field)
    return BaricAlgebra(qa, [b.weight[k] for k in chosen])


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

