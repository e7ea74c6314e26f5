"""Nilpotency machinery around the barideal of a Bernstein algebra: the
word action of V on annU, the submodule/ideal correspondence, the greatest
subspace fixed by I -> V*I, nilpotency of the multiplication closure of V
on N, stability checks for N*I = I versus V*I = I, and a constructive
finiteness certificate for ideals with nilpotent generator closures.

The multiplication closure runs on integer matrices: its generators L_v
come from `CommAlgebra._int_operator_on` as integer positive multiples of
the operators, and the word spans and the closure are `Subspace`s of flat
integer matrices.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (BaricAlgebra, CommAlgebra, Element, FULL, generated_ideal,
                      generated_subalgebra, is_ideal, iterate_chain, power_chain)
from .bernstein import PeirceData
from .linalg import Subspace, combine_rows


def module_action(p: PeirceData, word, u: Element) -> Element:
    """Right-to-left iterated multiplication (v1*...*vk).u = v1(...(vk u)...).

    Every word letter must lie in V and u in annU; the result stays in annU
    because annU is an ideal whose U-part products vanish.
    """
    if not p.annU.contains(u.coords):
        raise ValueError("element is not in annU")
    result = u
    for letter in reversed(list(word)):
        if not p.V.contains(letter.coords):
            raise ValueError("word letter is not in V")
        result = letter * result
    return result


class SubmoduleIdealReport(NamedTuple):
    is_submodule: bool
    is_ideal_in_a: bool


def submodule_ideal_check(b: BaricAlgebra, p: PeirceData, s: Subspace) -> SubmoduleIdealReport:
    """For s inside annU: being stable under V equals being an ideal of the
    whole algebra; both booleans are computed independently."""
    if not s.leq(p.annU):
        raise ValueError("subspace is not contained in annU")
    a = b.algebra
    sub = a.subspace_product(p.V, s).leq(s)
    return SubmoduleIdealReport(sub, is_ideal(a, s))


class FixedSubspaceResult(NamedTuple):
    """Chain I_0 = N, I_{k+1} = V * I_k down to its limit, the greatest
    subspace I with V*I = I."""

    chain: tuple
    gfp: Subspace
    steps: int


def greatest_fixed_subspace(b: BaricAlgebra, p: PeirceData) -> FixedSubspaceResult:
    """Iterate I -> V*I from N.  Any I with V*I = I satisfies I = V^k I
    inside every chain term, so the (always reached) limit is the greatest
    fixed subspace; starting at N loses nothing since V*A is inside N."""
    a = b.algebra
    chain, _ = iterate_chain(p.N, lambda t: a.subspace_product(p.V, t))
    if len(chain) == 1 or not chain[-1].is_zero():
        # record the step V*I = I that proves a nonzero limit (or, from a
        # zero N, the one step V*0 = 0)
        chain.append(chain[-1])
    return FixedSubspaceResult(tuple(chain), chain[-1], len(chain) - 1)


class MultClosure(NamedTuple):
    """The associative operator algebra generated by multiplication by V
    on N.  nil_index k means every product of k generators vanishes (and
    so the k-th power of the closure is zero); with no generators the
    closure is zero and the index is 1.

    generators holds one operator L_v per RREF row v of V as a flat
    row-major integer tuple in N's RREF coordinates, a positive multiple
    of the operator (only the lines they span matter); closure is the
    span of all words in them, a subspace of the flat k x k matrices."""

    generators: tuple
    closure: Subspace
    nilpotent: bool
    nil_index: int | None


def _compose(f, g, k) -> list:
    """The flat k x k integer matrix f @ g, for f flat and g as its rows."""
    return [x for i in range(0, k * k, k) for x in combine_rows(f[i:i + k], g)]


def mult_closure_nilpotent(b: BaricAlgebra, p: PeirceData) -> MultClosure:
    """Build the operators L_v on N for a basis of V and the spans W_m of
    their words of length m = 1, 2, ...; an operator algebra on a k-space
    that is nilpotent at all vanishes on words of length k.  The closure
    under composition is then the sum of the W_m, and otherwise the limit of
    C -> gens + C*gens.  Spans and products run on integer matrices, positive
    multiples of the operators, which span the same lines."""
    a = b.algebra
    k = p.N.dim
    ops = [a._int_operator_on(row, p.N)[0] for row in p.V.int_rows]
    gens = tuple(tuple(x for r in op for x in r) for op in ops)

    def span(rows) -> Subspace:
        return Subspace.of_int_rows(rows, k * k, a.field)

    def products(s: Subspace) -> Subspace:
        return span([_compose(f, g, k) for f in s.int_rows for g in ops])

    gen_span = span(gens)
    words, _ = iterate_chain(gen_span, products, max(k, 1) + 1)
    if words[-1].is_zero():
        return MultClosure(gens, span([r for w in words for r in w.int_rows]), True, len(words))
    # not nilpotent: a repeated word span never reaches zero
    closure, _ = iterate_chain(gen_span, lambda c: gen_span.plus(products(c)))
    return MultClosure(gens, closure[-1], False, None)


class StabilityReport(NamedTuple):
    """Outcome of comparing N*I with I and V*I with I for a subspace I."""

    ni_eq_i: bool
    vi_eq_i: bool
    conclusion_holds: bool


def stable_subspace_check(b: BaricAlgebra, p: PeirceData, s: Subspace) -> StabilityReport:
    """N*I = I holds exactly when V*I = I does, and either forces I inside
    annU and an ideal; conclusion_holds records both facts for this s."""
    a = b.algebra
    ni = a.subspace_product(p.N, s) == s
    vi = a.subspace_product(p.V, s) == s
    conclusion = (ni == vi)
    if ni:
        conclusion = conclusion and s.leq(p.annU) and is_ideal(a, s)
    return StabilityReport(ni, vi, conclusion)


NOT_NILPOTENT = "generated subalgebra is not nilpotent; the decomposition does not apply"


def _no_certificate(f_chain) -> str:
    """Why F's full chain, which has no zero term, gives no certificate: it
    stabilized without vanishing, or max_steps cut it before it could."""
    if f_chain.stabilized:
        return NOT_NILPOTENT
    return (f"the chain of the generated subalgebra was cut at max_steps = "
            f"{f_chain.runs[-1].end} before it vanished; the decomposition is not decided")


class DecompositionCertificate(NamedTuple):
    """Checked decomposition N = F + N^m with F^m = 0 for the subalgebra F
    generated by ideal generators of N, including the power inclusions
    N^i <= F^i + N^{i+1} for i = 1..m."""

    F: Subspace
    m: int
    eq_checked_up_to: int
    n_equals_f_plus_nm: bool
    n_nilpotent: bool


def decompose_nilpotent_ideal(a: CommAlgebra, n: Subspace, gens,
                              max_steps: int | None = None) -> DecompositionCertificate:
    """Certificate for: if the subalgebra F generated by ideal generators of
    N is nilpotent with F^m = 0, then N decomposes as F + N^m, and at finite
    dimension N^m itself vanishes so the certificate closes with N = F.
    """
    gens = list(gens)
    if not is_ideal(a, n):
        raise ValueError("subspace is not an ideal")
    if generated_ideal(a, gens) != n:
        raise ValueError("generators do not generate the ideal")
    f = generated_subalgebra(a, gens)
    f_chain = power_chain(a, f, FULL, max_steps)
    if f_chain.nil_index is None:
        raise ValueError(_no_certificate(f_chain))
    m = f_chain.nil_index
    n_chain = f_chain if f == n else power_chain(a, n, FULL, m + 1)
    # the inclusion N^i <= F^i + N^{i+1} can only change where one of its
    # three terms starts a new run, so it is checked at those exponents alone
    n_starts = {r.start for r in n_chain.runs}
    exponents = n_starts | {t - 1 for t in n_starts} | {r.start for r in f_chain.runs}
    for i in sorted(e for e in exponents if 1 <= e <= m):
        if not n_chain.term(i).leq(f_chain.term(i).plus(n_chain.term(i + 1))):
            raise AssertionError(f"power inclusion failed at exponent {i}")
    n_m = n_chain.term(m)
    return DecompositionCertificate(f, m, m, n == f.plus(n_m), n_m.is_zero())
