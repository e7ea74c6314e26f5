import sys
from fractions import Fraction

import pytest

from bernalg import (CommAlgebra, Matrix, Subspace, decompose_nilpotent_ideal,
                     generated_ideal, generated_subalgebra,
                     greatest_fixed_subspace, is_ideal,
                     make_family, module_action, mult_closure_nilpotent,
                     nilpotency_report, peirce, power_chain,
                     stable_subspace_check, submodule_ideal_check)
from bernalg.bernstein import BaricAlgebra

from conftest import (all_subspaces_within, change_of_basis_copy, fresh_rng,
                      non_nilpotent_baric, proper_ann_u_baric, random_subspace_in,
                      random_table_algebra, reference_left_mult_matrix)


def span_named(a, *names):
    rows = [a.basis_element(a.index_of(n)).coords for n in names]
    return Subspace(rows, a.dim, a.field)


# ---------------------------------------------------------------- word action


def test_two_letter_action_shifts_twice():
    b = make_family("bdown", 3)
    p = peirce(b)
    a = b.algebra
    v1 = a.basis_element(a.index_of("v1"))
    u3 = a.basis_element(a.index_of("u3"))
    assert module_action(p, [v1, v1], u3) == a.basis_element(a.index_of("u1"))


def test_empty_word_is_identity():
    b = make_family("bdown", 3)
    p = peirce(b)
    u3 = b.algebra.basis_element(4)
    assert module_action(p, [], u3) == u3


def test_three_letter_action_kills_u3():
    b = make_family("bdown", 3)
    p = peirce(b)
    a = b.algebra
    v1 = a.basis_element(1)
    assert module_action(p, [v1, v1, v1], a.basis_element(4)).is_zero()


def test_action_result_stays_in_ann_u():
    b = make_family("bup", 4)
    p = peirce(b)
    a = b.algebra
    v2 = a.basis_element(1)
    for row in p.annU.rows:
        out = module_action(p, [v2], a.element(row))
        assert p.annU.contains(out.coords)


def test_action_validates_inputs():
    b = make_family("bdown", 3)
    p = peirce(b)
    a = b.algebra
    u1, u3 = a.basis_element(2), a.basis_element(4)
    with pytest.raises(ValueError):
        module_action(p, [u1], u3)  # letter not in V
    j3 = make_family("jordan3")
    pj = peirce(j3)
    with pytest.raises(ValueError):
        module_action(pj, [], j3.algebra.basis_element(1))  # u not in annU


# ---------------------------------------------------------------- submodules


def test_submodule_examples():
    b = make_family("bdown", 3)
    p = peirce(b)
    a = b.algebra
    r1 = submodule_ideal_check(b, p, span_named(a, "u1"))
    assert r1.is_submodule and r1.is_ideal_in_a
    r0 = submodule_ideal_check(b, p, Subspace.zero(a.dim))
    assert r0.is_submodule and r0.is_ideal_in_a
    r2 = submodule_ideal_check(b, p, span_named(a, "u2"))
    assert not r2.is_submodule and not r2.is_ideal_in_a


def test_submodule_requires_containment():
    j3 = make_family("jordan3")
    p = peirce(j3)
    with pytest.raises(ValueError):
        submodule_ideal_check(j3, p, span_named(j3.algebra, "u"))


def test_correspondence_on_sampled_subspaces(peirce_corpus):
    rng = fresh_rng(37)
    for name, b, p in peirce_corpus:
        for _ in range(60):
            s = random_subspace_in(rng, p.annU)
            rep = submodule_ideal_check(b, p, s)
            assert rep.is_submodule == rep.is_ideal_in_a, name


# ---------------------------------------------------------------- fixed subspace


def test_bup4_chain_walks_up_and_dies():
    b = make_family("bup", 4)
    p = peirce(b)
    res = greatest_fixed_subspace(b, p)
    a = b.algebra
    assert res.chain == (p.N,
                         span_named(a, "u2", "u3", "u4"),
                         span_named(a, "u3", "u4"),
                         span_named(a, "u4"),
                         Subspace.zero(a.dim))
    assert res.gfp.is_zero() and res.steps == 4


def test_bdown3_chain_reaches_zero():
    b = make_family("bdown", 3)
    res = greatest_fixed_subspace(b, peirce(b))
    assert res.gfp.is_zero()
    assert [t.dim for t in res.chain] == [4, 2, 1, 0]


def test_jordan3_v_annihilates_in_one_step():
    b = make_family("jordan3")
    res = greatest_fixed_subspace(b, peirce(b))
    assert res.steps == 1 and res.gfp.is_zero()


def test_gfp_is_a_fixed_point_and_maximal(peirce_corpus):
    rng = fresh_rng(41)
    for name, b, p in peirce_corpus:
        res = greatest_fixed_subspace(b, p)
        a = b.algebra
        assert a.subspace_product(p.V, res.gfp) == res.gfp, name
        for _ in range(50):
            s = random_subspace_in(rng, p.N)
            if a.subspace_product(p.V, s) == s:
                assert s.leq(res.gfp), name


def test_nonzero_gfp_detected():
    b = non_nilpotent_baric()
    p = peirce(b)
    res = greatest_fixed_subspace(b, p)
    assert res.gfp == Subspace([[0, 1, 0]], 3)  # the line through u


def test_fixed_chain_keeps_its_repeat_and_power_chain_drops_it():
    # V*I = I is recorded as a last, repeated term; a power chain stops
    # before repeating
    b = non_nilpotent_baric()
    p = peirce(b)
    res = greatest_fixed_subspace(b, p)
    assert [t.dim for t in res.chain] == [2, 1, 1] and res.steps == 2
    chain = power_chain(b.algebra, p.N, "principal")
    assert [t.dim for t in chain.terms] == [2, 1]
    assert chain.stabilized and chain.nil_index is None


# ---------------------------------------------------------------- mult closure


def test_bdown3_closure_is_nilpotent_shift():
    b = make_family("bdown", 3)
    mc = mult_closure_nilpotent(b, peirce(b))
    assert len(mc.generators) == 1
    assert mc.closure.dim == 2  # L and L^2 span everything generated
    assert mc.nilpotent
    # L^3 = 0 and L^2 != 0, so the operator algebra cubes to zero
    assert mc.nil_index == 3


def test_closure_without_v_is_trivial():
    a = CommAlgebra.from_table(
        ["e", "u"], {("e", "e"): {"e": 1}, ("e", "u"): {"u": "1/2"}})
    b = BaricAlgebra(a, [1, 0])
    mc = mult_closure_nilpotent(b, peirce(b))
    assert mc.generators == () and mc.closure.is_zero()
    assert mc.nilpotent and mc.nil_index == 1


def test_closure_generators_are_positive_integer_multiples_of_the_operators(peirce_corpus):
    for name, b, p in peirce_corpus:
        a = b.algebra
        mc = mult_closure_nilpotent(b, p)
        assert len(mc.generators) == p.V.dim, name
        for g, row in zip(mc.generators, p.V.rows):
            want = reference_left_mult_matrix(a, a.element(row), p.N).entries
            assert all(type(x) is int for x in g)
            ratios = {Fraction(x) / y for x, y in zip(g, want) if y}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios), name
            assert all(x == 0 for x, y in zip(g, want) if not y), name


def test_bup4_closure_nilpotent_with_longest_word_three():
    b = make_family("bup", 4)
    mc = mult_closure_nilpotent(b, peirce(b))
    assert mc.nilpotent
    # u1 -> u2 -> u3 -> u4 under L, so L^3 != 0 and L^4 = 0
    assert mc.nil_index == 4


def test_non_nilpotent_closure_detected():
    b = non_nilpotent_baric()
    mc = mult_closure_nilpotent(b, peirce(b))
    assert not mc.nilpotent and mc.nil_index is None
    assert mc.closure.dim == 1  # L_v is idempotent on N: u -> u, v -> 0


def reference_closure(gens, k, field) -> Subspace:
    """The span of all words in the generators, grown by rational `Matrix`
    products C -> C + C*gens from the generators until it repeats."""
    ops = [Matrix(k, k, tuple(map(field.of, g)), field) for g in gens]
    span = Subspace([m.entries for m in ops], k * k, field)
    while True:
        words = [(Matrix(k, k, row, field) @ g).entries for row in span.rows for g in ops]
        grown = span.plus(Subspace(words, k * k, field))
        if grown == span:
            return span
        span = grown


def unipotent_baric():
    """A Bernstein algebra where v acts on U as I + S with S a shift: L_v is
    not nilpotent, and L_v^2 = I + 2S leaves the line of L_v."""
    a = CommAlgebra.from_table(
        ["e", "u1", "u2", "v"],
        {("e", "e"): {"e": 1}, ("e", "u1"): {"u1": Fraction(1, 2)},
         ("e", "u2"): {"u2": Fraction(1, 2)}, ("u1", "v"): {"u1": 1},
         ("u2", "v"): {"u2": 1, "u1": 1}})
    return BaricAlgebra(a, [1, 0, 0, 0])


def test_closure_is_the_span_of_all_words(peirce_corpus):
    cases = list(peirce_corpus) + [("non_nilpotent", non_nilpotent_baric(), None),
                                   ("unipotent", unipotent_baric(), None),
                                   ("proper_ann_u", proper_ann_u_baric(), None)]
    for kind in ("bdown", "bup"):
        b = make_family(kind, 4)
        cases.append((f"rebased_{kind}4",
                      BaricAlgebra(*change_of_basis_copy(b.algebra, b.weight, 1)), None))
    for name, b, p in cases:
        p = p or peirce(b)
        mc = mult_closure_nilpotent(b, p)
        assert mc.closure == reference_closure(mc.generators, p.N.dim, b.field), name


def test_triple_equivalence_of_nilpotency_criteria(peirce_corpus):
    cases = list(peirce_corpus) + [("non_nilpotent", non_nilpotent_baric(), None)]
    for name, b, p in cases:
        if p is None:
            p = peirce(b)
        n_nilpotent = nilpotency_report(b.algebra, p.N).nil_index_principal is not None
        closure_nilpotent = mult_closure_nilpotent(b, p).nilpotent
        gfp_zero = greatest_fixed_subspace(b, p).gfp.is_zero()
        assert n_nilpotent == closure_nilpotent == gfp_zero, name


# ---------------------------------------------------------------- stability


def test_zero_subspace_is_stable():
    b = make_family("bdown", 3)
    rep = stable_subspace_check(b, peirce(b), Subspace.zero(b.dim))
    assert rep.ni_eq_i and rep.vi_eq_i and rep.conclusion_holds


def test_bdown3_u_shrinks_under_both():
    b = make_family("bdown", 3)
    p = peirce(b)
    a = b.algebra
    expected = span_named(a, "u1", "u2")
    assert a.subspace_product(p.N, p.U) == expected
    assert a.subspace_product(p.V, p.U) == expected
    rep = stable_subspace_check(b, p, p.U)
    assert not rep.ni_eq_i and not rep.vi_eq_i and rep.conclusion_holds


def test_stability_exhaustive_over_gf5(gf5):
    # every subspace of N for the small prime-field corpus members
    members = [make_family("bdown", 1, field=gf5),
               make_family("bdown", 2, field=gf5),
               make_family("bup", 2, field=gf5),
               make_family("jordan3", field=gf5)]
    for b in members:
        p = peirce(b)
        assert p.N.dim <= 3
        for s in all_subspaces_within(p.N):
            rep = stable_subspace_check(b, p, s)
            assert rep.conclusion_holds
    # at least one of the members reaches dimension 3 in N
    assert any(peirce(b).N.dim == 3 for b in members)


def test_stability_random_rational(peirce_corpus):
    rng = fresh_rng(53)
    for name, b, p in peirce_corpus:
        for _ in range(100):
            rep = stable_subspace_check(b, p, random_subspace_in(rng, p.N))
            assert rep.conclusion_holds, name


def test_stability_on_fixed_line():
    b = non_nilpotent_baric()
    p = peirce(b)
    line = Subspace([[0, 1, 0]], 3)
    rep = stable_subspace_check(b, p, line)
    assert rep.ni_eq_i and rep.vi_eq_i and rep.conclusion_holds
    assert line.leq(p.annU) and is_ideal(b.algebra, line)


# ---------------------------------------------------------------- certificates


def test_certificate_squareshift3():
    a = make_family("squareshift", 3)
    cert = decompose_nilpotent_ideal(a, a.full_space(), [a.basis_element(2)])
    assert cert.F == a.full_space()
    assert cert.m == 5
    assert cert.eq_checked_up_to == 5
    assert cert.n_equals_f_plus_nm and cert.n_nilpotent


def test_certificate_vacuous():
    a = make_family("squareshift", 2)
    cert = decompose_nilpotent_ideal(a, a.zero_space(), [])
    assert cert.m == 1 and cert.F.is_zero()
    assert cert.n_equals_f_plus_nm and cert.n_nilpotent


def test_certificate_bdown3_barideal():
    b = make_family("bdown", 3)
    a = b.algebra
    n = b.barideal()
    gens = [a.basis_element(a.index_of("u3")), a.basis_element(a.index_of("v1"))]
    cert = decompose_nilpotent_ideal(a, n, gens)
    assert cert.F == n
    assert cert.m == 4  # N^4 = 0 in the full-power numbering
    assert cert.n_equals_f_plus_nm and cert.n_nilpotent


def test_certificate_rejects_non_generating_sets():
    b = make_family("bdown", 3)
    a = b.algebra
    with pytest.raises(ValueError):
        decompose_nilpotent_ideal(a, b.barideal(), [a.basis_element(a.index_of("u1"))])


def test_certificate_rejects_non_ideal():
    a = make_family("bdown", 3).algebra
    with pytest.raises(ValueError):
        decompose_nilpotent_ideal(a, span_named(a, "u2"), [a.basis_element(3)])


def test_certificate_rejects_non_nilpotent_closure():
    b = non_nilpotent_baric()
    a = b.algebra
    n = b.barideal()
    gens = [a.basis_element(1), a.basis_element(2)]
    assert generated_ideal(a, gens) == n
    with pytest.raises(ValueError):
        decompose_nilpotent_ideal(a, n, gens)


@pytest.mark.parametrize("n", range(2, 7))
def test_certificates_close_for_squareshift_and_bdown(n):
    sq = make_family("squareshift", n)
    cert = decompose_nilpotent_ideal(sq, sq.full_space(), [sq.basis_element(n - 1)])
    assert cert.n_equals_f_plus_nm and cert.n_nilpotent
    b = make_family("bdown", n)
    a = b.algebra
    gens = [a.basis_element(a.index_of(f"u{n}")), a.basis_element(a.index_of("v1"))]
    cert = decompose_nilpotent_ideal(a, b.barideal(), gens)
    assert cert.n_equals_f_plus_nm and cert.n_nilpotent
    assert cert.m == n + 1


def test_certificate_matches_a_check_at_every_exponent():
    # ideals whose generated subalgebra F is smaller than N, so the two
    # chains differ; the inclusions are checked here at every i = 1..m
    rng = fresh_rng(3)
    seen = 0
    for _ in range(40):
        a = random_table_algebra(rng, rng.randint(3, 5))
        n = a.full_space()
        for g in range(a.dim):
            gens = [a.basis_element(g)]
            f = generated_subalgebra(a, gens)
            f_chain = power_chain(a, f, "full")
            if generated_ideal(a, gens) != n or f == n or f_chain.nil_index is None:
                continue
            m = f_chain.nil_index
            n_chain = power_chain(a, n, "full", m + 1)
            n_powers = [n_chain.term(i) for i in range(1, m + 2)]
            for i in range(1, m + 1):
                assert n_powers[i - 1].leq(f_chain.term(i).plus(n_powers[i]))
            cert = decompose_nilpotent_ideal(a, n, gens)
            assert (cert.F, cert.m, cert.eq_checked_up_to) == (f, m, m)
            assert cert.n_equals_f_plus_nm == (n == f.plus(n_powers[m - 1]))
            assert cert.n_nilpotent == n_powers[m - 1].is_zero()
            seen += 1
    assert seen >= 10


def test_certificate_checks_inclusions_per_run_not_per_exponent(monkeypatch):
    a = make_family("squareshift", 12)
    calls = []
    leq = Subspace.leq

    def counted(s, t):
        # only the certificate's own checks: the full chains test each run
        # pair's product against their running sums with `leq` too
        if sys._getframe(1).f_code is decompose_nilpotent_ideal.__code__:
            calls.append(s)
        return leq(s, t)
    monkeypatch.setattr(Subspace, "leq", counted)
    cert = decompose_nilpotent_ideal(a, a.full_space(), [a.basis_element(11)])
    assert cert.m == 2 ** 11 + 1 and cert.n_equals_f_plus_nm and cert.n_nilpotent
    # F = N has 13 runs, so a few dozen inclusions stand for all 2049
    assert len(calls) < 50
