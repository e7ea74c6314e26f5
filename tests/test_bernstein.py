import collections
import functools
import glob
import os
from fractions import Fraction

import pytest

from bernalg import (QQ, BaricAlgebra, CommAlgebra, Identity, PeirceData, PrimeField,
                     Subspace, Witness, bernstein_witnesses, build_report, check_identity,
                     check_peirce_relations, classify, find_idempotent, make_family,
                     nilpotency_report, nuclear_core, parse, peirce, plenary_power, quotient,
                     subspace_product, to_algebra, verify_weight, weight_of)
from bernalg.bernstein import Analysis, NotBernsteinError, _annihilator_in_u, _jordan_structural

from conftest import (bernstein_corpus, cancelling_u2_bernstein, change_of_basis_copy,
                      fresh_rng, jordan_bernstein, non_nilpotent_baric, operator_matrix,
                      peirce_table, proper_ann_u_baric, rebased_copies, reference_annihilator,
                      reference_identity_defect, reference_jordan_structural,
                      reference_left_mult_matrix, reference_mul_coords, reference_peirce,
                      reference_subspace_product, reference_verify_weight, scaled_copy,
                      wide_u2_bernstein, wide_v_bernstein)


def span_named(a, *names):
    rows = [a.basis_element(a.index_of(n)).coords for n in names]
    return Subspace(rows, a.dim, a.field)


# ---------------------------------------------------------------- weights


def test_bdown_weight_valid():
    assert verify_weight(make_family("bdown", 3)) is True


def test_zero_weight_rejected():
    a = make_family("squareshift", 3)
    w = verify_weight(BaricAlgebra(a, [0, 0, 0]))
    assert isinstance(w, Witness)
    assert "zero" in w.note


def test_squareshift_weight_not_multiplicative():
    a = make_family("squareshift", 3)
    w = verify_weight(BaricAlgebra(a, [1, 0, 0]))
    assert isinstance(w, Witness)
    # first failing pair in scan order: (e1, e1), since w(e1*e1) = 0 != 1
    pair = w.assignment_dict()
    assert pair["x"] == a.basis_element(0) and pair["y"] == a.basis_element(0)
    assert w.residual == Fraction(-1)


# ---------------------------------------------------------------- idempotents


def test_default_idempotent_bdown():
    b = make_family("bdown", 3)
    assert find_idempotent(b) == b.algebra.basis_element(0)


def test_one_dimensional_idempotent():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    b = BaricAlgebra(a, [1])
    assert find_idempotent(b) == a.basis_element(0)


def test_seeded_idempotent_shift():
    b = make_family("bdown", 3)
    a = b.algebra
    seed = a.basis_element(0) + a.basis_element(a.index_of("u1"))
    e = find_idempotent(b, seed)
    # (e + u1)^2 = e + u1 because e*u1 = u1/2 and u1*u1 = 0
    assert e == seed
    assert e * e == e


def test_non_bernstein_seed_square_detected():
    # e*e = e + n with e*n = n/2 makes (e)^2 fail idempotency
    a = CommAlgebra.from_table(
        ["e", "n"],
        {("e", "e"): {"e": 1, "n": 1}, ("e", "n"): {"n": Fraction(1, 2)}})
    b = BaricAlgebra(a, [1, 0])
    assert verify_weight(b) is True
    with pytest.raises(ValueError):
        find_idempotent(b)


def test_zero_weight_seed_rejected():
    b = make_family("bdown", 2)
    with pytest.raises(ValueError):
        find_idempotent(b, b.algebra.basis_element(1))


# ---------------------------------------------------------------- peirce


def test_bdown_peirce_components():
    b = make_family("bdown", 4)
    p = peirce(b)
    a = b.algebra
    assert p.U == span_named(a, "u1", "u2", "u3", "u4")
    assert p.V == span_named(a, "v1")
    assert p.N == p.U.plus(p.V)
    assert p.annU == p.U  # U*U = 0 here


def test_one_dimensional_peirce():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    p = peirce(BaricAlgebra(a, [1]))
    assert p.U.is_zero() and p.V.is_zero() and p.N.is_zero()


@pytest.mark.parametrize("r, s", ((3, 3), (4, 2), (3, 4)))
def test_wide_v_peirce_split_and_its_rebased_copies(r, s):
    # the split is decided by dimensions alone: U and V meet only in 0
    b = wide_v_bernstein(r, s, seed=r + s)
    a = b.algebra
    p = peirce(b)
    assert p.U == span_named(a, *(f"u{i + 1}" for i in range(r)))
    assert p.V == span_named(a, *(f"v{j + 1}" for j in range(s)))
    assert check_peirce_relations(b, p) is True
    for label, c in rebased_copies(b):
        q = peirce(c)
        assert (q.U.dim, q.V.dim) == (r, s) and q.U.plus(q.V) == q.N, label
        assert q == reference_peirce(c, q.e), label


def test_jordan3_ann_u_is_zero():
    p = peirce(make_family("jordan3"))
    assert p.U.dim == 1 and p.V.dim == 1
    assert p.annU.is_zero()  # u*u = v != 0


SPLIT_FAILS = ("barideal does not split into the 1/2- and 0-eigenspaces; "
               "the algebra is not Bernstein")


def assert_split_fails(b):
    """peirce(b) raises the split's NotBernsteinError, with the witnesses
    of the Bernstein gate."""
    with pytest.raises(NotBernsteinError) as exc:
        peirce(b)
    assert str(exc.value) == SPLIT_FAILS
    assert exc.value.witnesses == bernstein_witnesses(b) and "bernstein" in exc.value.witnesses


def test_peirce_rejects_wrong_eigenvalue():
    # e*n = n puts n in the 1-eigenspace, so N does not split into U and V
    a = CommAlgebra.from_table(
        ["e", "n"], {("e", "e"): {"e": 1}, ("e", "n"): {"n": 1}})
    b = BaricAlgebra(a, [1, 0])
    assert verify_weight(b) is True
    assert_split_fails(b)


def skewed_family(kind: str, n: int, field=QQ) -> BaricAlgebra:
    """bdown(n) or bup(n) with e*u1 = u1 in place of u1/2: the weight stays
    multiplicative, but u1 is an eigenvector of e for the eigenvalue 1."""
    a = make_family(kind, n, field).algebra
    products = {(i, j): [dict(a.table_row(i, j)).get(k, 0) for k in range(a.dim)]
                for i in range(a.dim) for j in range(i, a.dim) if a.table_row(i, j)}
    e, u1 = a.index_of("e"), a.index_of("u1")
    products[e, u1] = [int(k == u1) for k in range(a.dim)]
    return BaricAlgebra(CommAlgebra(a.basis_names, products, a.field),
                        [int(k == e) for k in range(a.dim)])


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("bdown", "bup") for n in (2, 3, 5, 8)])
def test_peirce_rejects_the_skewed_families(kind, n):
    # one row of N, u1, fails the split; every other row keeps its eigenvalue
    b = skewed_family(kind, n)
    assert verify_weight(b) is True and find_idempotent(b) == b.algebra.basis_element(0)
    assert_split_fails(b)
    with pytest.raises(NotBernsteinError):
        reference_peirce(b)


def test_not_bernstein_over_a_prime_field_carries_the_weight_witness_only():
    # the identity engine refuses GF(p), so the error's witnesses come from
    # the weight alone; classify and bernstein_witnesses keep refusing
    gf5 = PrimeField(5)
    skewed = skewed_family("bdown", 2, gf5)
    a = CommAlgebra.from_table(["e", "n"], {("e", "e"): {"e": 1, "n": 1}, ("e", "n"): {"n": 1}},
                               gf5)
    not_idempotent = BaricAlgebra(a, [1, 0])
    for b, route, message in ((skewed, peirce, SPLIT_FAILS),
                              (not_idempotent, find_idempotent, "squared seed is not an")):
        assert verify_weight(b) is True
        with pytest.raises(NotBernsteinError, match=message) as exc:
            route(b)
        assert exc.value.witnesses == {}
        for refused in (classify, bernstein_witnesses):
            with pytest.raises(ValueError, match="only supported over the rationals") as exc:
                refused(b)
            assert not isinstance(exc.value, NotBernsteinError)
    with pytest.raises(NotBernsteinError) as exc:
        find_idempotent(BaricAlgebra(make_family("bdown", 2, gf5).algebra, [0, 0, 0, 0]))
    assert exc.value.witnesses.keys() == {"baric"}
    assert exc.value.witnesses["baric"].note == "weight functional is identically zero"


def test_peirce_reports_a_row_leaving_n_before_a_row_failing_the_split():
    # N's first row n1 fails the split (e*n1 = n1) and its second leaves N
    # (e*n2 = e); the weight is not multiplicative, as N is then no ideal
    a = CommAlgebra.from_table(["e", "n1", "n2"], {("e", "e"): {"e": 1}, ("e", "n1"): {"n1": 1},
                                                   ("e", "n2"): {"e": 1}})
    b = BaricAlgebra(a, [1, 0, 0])
    assert verify_weight(b) is not True
    for route in (peirce, reference_peirce):
        with pytest.raises(ValueError, match="not invariant") as exc:
            route(b)
        assert not isinstance(exc.value, NotBernsteinError)


def test_peirce_relations_hold_on_corpus(peirce_corpus):
    for name, b, p in peirce_corpus:
        assert check_peirce_relations(b, p) is True, name


def test_jordan3_is_exactly_nuclear():
    b = make_family("jordan3")
    p = peirce(b)
    assert subspace_product(b.algebra, p.U, p.U) == p.V


def test_corrupted_table_breaks_relations():
    # u1*u2 = e violates U*U <= V; reuse the clean decomposition data
    clean = make_family("bdown", 3)
    p = peirce(clean)
    a = clean.algebra
    table = {(0, 0): a.basis_element(0).coords}
    for i in range(1, a.dim):
        row = a.table_row(0, i)
        if row:
            coords = [a.field.zero] * a.dim
            for k, c in row:
                coords[k] = c
            table[(0, i)] = tuple(coords)
    for i in range(2, a.dim):
        row = a.table_row(1, i)
        if row:
            coords = [a.field.zero] * a.dim
            for k, c in row:
                coords[k] = c
            table[(1, i)] = tuple(coords)
    table[(a.index_of("u1"), a.index_of("u2"))] = a.basis_element(0).coords
    corrupted = CommAlgebra(a.basis_names, table)
    cb = BaricAlgebra(corrupted, clean.weight)
    w = check_peirce_relations(cb, p)
    assert isinstance(w, Witness)
    assert w.note == "U*U is not contained in V"


# hand-made Peirce data (products, U, V, annU by basis names, note) on which
# every relation checked before `note` holds and the one named by it fails
RELATION_CASES = [
    ({("u", "u"): {"u": 1}}, "u", "", "", "U*U is not contained in V"),
    ({("u", "v"): {"w": 1}}, "u", "v", "", "U*V is not contained in U"),
    ({("v", "v"): {"w": 1}}, "", "v", "", "V*V is not contained in U"),
    ({("v", "v"): {"u2": 1}, ("u1", "u2"): {"v": 1}}, "u1 u2", "v", "", "U*V^2 is nonzero"),
    ({("u", "u"): {"v": 1}}, "u", "v", "u", "annU*(U + U^2) is nonzero"),
    # V^2 = span(u1, u2) and only its second row leaves annU
    ({("v", "v"): {"u1": 1}, ("w", "w"): {"u2": 1}}, "u1 u2", "v w", "u1",
     "V^2 is not contained in annU"),
]


@pytest.mark.parametrize("products, u, v, ann_u, note", RELATION_CASES,
                         ids=[c[-1] for c in RELATION_CASES])
def test_each_relation_witness_reevaluates_outside_its_target(products, u, v, ann_u, note):
    a = CommAlgebra.from_table(["u", "u1", "u2", "v", "w"], products)
    U, V, annU = (span_named(a, *names.split()) for names in (u, v, ann_u))
    p = PeirceData(a.zero_element(), U, V, U.plus(V), annU)
    w = check_peirce_relations(BaricAlgebra(a, [0] * a.dim), p)
    assert isinstance(w, Witness) and w.note == note
    mul = functools.partial(reference_subspace_product, a)
    u2, v2, zero = mul(U, U), mul(V, V), a.zero_space()
    if note == "V^2 is not contained in annU":
        (name, x), = w.assignment
        assert name == "v2" and w.residual == x
        assert v2.contains(x.coords) and not annU.contains(x.coords)
        return
    left, right, target = {
        "U*U is not contained in V": (U, U, V),
        "U*V is not contained in U": (U, V, U),
        "V*V is not contained in U": (V, V, U),
        "U*V^2 is nonzero": (U, v2, zero),
        "annU*(U + U^2) is nonzero": (annU, U.plus(u2), zero),
    }[note]
    (nx, x), (ny, y) = w.assignment
    assert (nx, ny) == ("x", "y") and left.contains(x.coords) and right.contains(y.coords)
    prod = reference_mul_coords(a, x.coords, y.coords)
    assert w.residual.coords == prod and not target.contains(prod)


# ---------------------------------------------------------------- classification


def test_classify_bdown3():
    fl = classify(make_family("bdown", 3))
    assert (fl.is_baric, fl.is_bernstein, fl.is_jordan, fl.is_nuclear,
            fl.barideal_nilpotent) == (True, True, False, False, True)
    jw = fl.witnesses["jordan"]
    a = make_family("bdown", 3).algebra
    got = {k: v.coords for k, v in jw.assignment}
    assert got["u"] == a.basis_element(a.index_of("u3")).coords
    assert got["v"] == a.basis_element(a.index_of("v1")).coords
    assert jw.residual.coords == a.basis_element(a.index_of("u1")).coords
    assert "nuclear" in fl.witnesses


def test_classify_jordan3():
    fl = classify(make_family("jordan3"))
    assert (fl.is_bernstein, fl.is_jordan, fl.is_nuclear) == (True, True, True)
    assert not fl.witnesses


def test_classify_names_the_three_variable_jordan_witness():
    # (u v) v vanishes on every U x V pair here, and the polarized form
    # (u v) w + (u w) v does not: (u2 v1) v2 = u1 v2 = u3
    h = Fraction(1, 2)
    a = CommAlgebra.from_table(["e", "u1", "u2", "u3", "v1", "v2"], {
        ("e", "e"): {"e": 1}, ("e", "u1"): {"u1": h}, ("e", "u2"): {"u2": h},
        ("e", "u3"): {"u3": h}, ("u2", "v1"): {"u1": 1}, ("u1", "v2"): {"u3": 1}})
    b = BaricAlgebra(a, [1, 0, 0, 0, 0, 0])
    fl = classify(b)
    assert (fl.is_bernstein, fl.is_jordan) == (True, False)
    jw = fl.witnesses["jordan"]
    assert jw.note == "(u v) w + (u w) v does not vanish"
    u, v, w = (x for _, x in jw.assignment)
    assert [name for name, _ in jw.assignment] == ["u", "v", "w"]
    assert [a.basis_names[x.coords.index(1)] for x in (u, v, w)] == ["u2", "v1", "v2"]
    assert jw.residual == (u * v) * w + (u * w) * v == a.basis_element(a.index_of("u3"))
    assert check_identity(a, Identity.JORDAN) is not True


def test_classify_one_dimensional():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    fl = classify(BaricAlgebra(a, [1]))
    assert (fl.is_baric, fl.is_bernstein, fl.is_jordan, fl.is_nuclear,
            fl.barideal_nilpotent) == (True, True, True, True, True)


def test_classify_flags_on_small_truncations():
    assert classify(make_family("bdown", 2)).is_jordan is True
    assert classify(make_family("bup", 2)).is_jordan is True
    assert classify(make_family("bup", 3)).is_jordan is False


def test_structural_jordan_matches_identity_routes(peirce_corpus):
    # condition on the components vs the element identity vs the cube rule
    for name, b, _ in peirce_corpus:
        fl = classify(b)
        via_identity = check_identity(b.algebra, Identity.JORDAN) is True
        via_cube = check_identity(b.algebra, Identity.CUBE_WEIGHT, b.weight) is True
        assert fl.is_jordan == via_identity == via_cube, name


@pytest.mark.parametrize("r, s", ((3, 2), (4, 2), (10, 3)))
def test_jordan_bernstein_tables_read_jordan_not_nuclear_n_nilpotent(r, s):
    # a flag set the wide-V tables do not reach, with dim V > 1
    b = jordan_bernstein(r, s)
    for ident in (Identity.BERNSTEIN, Identity.JORDAN, Identity.CUBE_WEIGHT):
        assert check_identity(b.algebra, ident, b.weight if ident.needs_weight else None) is True
    fl = classify(b)
    assert (fl.is_baric, fl.is_bernstein, fl.is_jordan, fl.is_nuclear,
            fl.barideal_nilpotent) == (True, True, True, False, True)
    assert fl.witnesses.keys() == {"nuclear"}
    p = peirce(b)
    assert (p.U.dim, p.V.dim) == (r, s) and p == reference_peirce(b, p.e)


WIDE_U2 = [(r, s, seed) for r, s in ((3, 2), (3, 3), (4, 2), (3, 4)) for seed in range(10)]


def test_wide_u2_tables_reach_four_flag_sets():
    # (jordan, nuclear, N nilpotent) over the 40 tables with U^2 != 0, each
    # of Peirce type (1 + r, s) as drawn
    reached = collections.Counter()
    for r, s, seed in WIDE_U2:
        b = wide_u2_bernstein(r, s, seed)
        fl = classify(b)
        assert fl.is_bernstein is True and (peirce(b).U.dim, peirce(b).V.dim) == (r, s)
        reached[fl.is_jordan, fl.is_nuclear, fl.barideal_nilpotent] += 1
    assert reached == {(True, False, True): 14, (False, False, True): 13,
                       (False, False, False): 10, (True, True, True): 3}


def test_classify_non_nilpotent_barideal():
    fl = classify(non_nilpotent_baric())
    assert fl.is_bernstein is True
    assert fl.barideal_nilpotent is False
    assert "barideal_nilpotent" in fl.witnesses


# ---------------------------------------------------------------- the Bernstein proof


def random_baric(seed: int) -> BaricAlgebra:
    """A seeded baric table on (e, n1..nk), k in 2..5, with the valid weight
    w = (1, 0, ..., 0), so that every product of the n_i lies in
    N = span(n1..nk), each entry nonzero with probability 1/3 and drawn from
    [-2, 2].  At even seeds e^2 = e and e n_i is n_i/2 or 0, so the split
    succeeds and the proof's products decide; at odd seeds e^2 - e and the
    e n_i are drawn too, and the idempotent rarely exists."""
    rng = fresh_rng(seed)
    names = ["e"] + [f"n{i + 1}" for i in range(rng.randint(2, 5))]
    table = {(x, y): {z: rng.randint(-2, 2) for z in names[1:] if rng.random() < 1 / 3}
             for i, x in enumerate(names) for y in names[i:]}
    if seed % 2 == 0:
        table.update({("e", x): {x: Fraction(rng.randint(0, 1), 2)} for x in names[1:]})
        table["e", "e"] = {}
    table["e", "e"]["e"] = 1
    return BaricAlgebra(CommAlgebra.from_table(names, table), [1] + [0] * (len(names) - 1))


def _proof_cases():
    """(name, table, whether the proof decides it) over the Bernstein
    corpus, where it must, the table it declines and tables that are not
    Bernstein (None: either way)."""
    out = [(f"{kind}{n}", make_family(kind, n), True) for kind in ("bdown", "bup")
           for n in range(1, 13)]
    out.append(("jordan3", make_family("jordan3"), True))
    out += [(f"wide_v_{r}_{s}@{seed}", wide_v_bernstein(r, s, seed), True)
            for r, s in ((3, 3), (4, 2), (3, 4)) for seed in range(10)]
    out += [(f"wide_u2_{r}_{s}@{seed}", wide_u2_bernstein(r, s, seed), True)
            for r, s, seed in WIDE_U2]
    out += [(f"jordan_bernstein_{r}_{s}", jordan_bernstein(r, s), True)
            for r, s in ((3, 2), (4, 2), (10, 3))]
    out += [(f"core_{kind}{n}", nuclear_core(make_family(kind, n)), True)
            for kind in ("bdown", "bup") for n in range(2, 9)]
    out += [("non_nilpotent", non_nilpotent_baric(), True),
            ("proper_ann_u", proper_ann_u_baric(), True),
            ("cancelling_u2", cancelling_u2_bernstein(), False)]
    out += [(f"skewed_{kind}{n}", skewed_family(kind, n), False)
            for kind in ("bdown", "bup") for n in (2, 3, 5, 8)]
    # one table per condition of the proof, failing there alone; none is
    # Bernstein, so each condition is needed for the proof to be sound
    out += [(f"only_{name}", peirce_table(2, 2, products), False) for name, products in (
        ("u2_not_in_v", {("u1", "u1"): {"u2": 1}}),
        ("uv_not_in_u", {("u1", "v1"): {"v2": 1}}),
        ("v2_not_in_u", {("v1", "v1"): {"v2": 1}}),
        ("u_uv", {("u1", "v1"): {"u2": 1}, ("u1", "u2"): {"v2": 1}}),
        ("u_v2", {("v1", "v1"): {"u1": 1}, ("u1", "u2"): {"v2": 1}}),
        ("u_u2", {("u1", "u1"): {"v1": 1}, ("u1", "v1"): {"u2": 1}}),
        ("u2_u2", {("u1", "u1"): {"v1": 1}, ("v1", "v1"): {"u2": 1}}))]
    return out + [(f"random_baric@{seed}", random_baric(seed), None) for seed in range(20)]


PROOF_CASES = _proof_cases()


@pytest.mark.parametrize("name, b, proved", PROOF_CASES, ids=[c[0] for c in PROOF_CASES])
def test_the_bernstein_proof_is_sound_and_the_scan_decides_the_rest(name, b, proved):
    # on the table and its rebased copies: a proof implies that the scan
    # holds, and the analysis's verdict is check_identity's, witness and all
    for label, c in [("input", b)] + rebased_copies(b):
        an = Analysis(c)
        want = check_identity(c.algebra, Identity.BERNSTEIN, c.weight)
        got = an.identity(Identity.BERNSTEIN)
        if an.bernstein_proved:
            assert want is True, label
        if name.startswith(("only_", "skewed_")):
            assert want is not True, label
        assert proved is None or an.bernstein_proved is proved, label
        assert got is True if want is True else (got, got.note) == (want, want.note), label


def test_the_declined_table_is_bernstein_and_reported_by_the_scan():
    # the proof's products are zero only up to cancellation here: the scan
    # decides the verdict, and the report reads Bernstein
    b = cancelling_u2_bernstein()
    a, p = b.algebra, peirce(b)
    uv = a.subspace_product(p.U, p.V)
    assert not a.subspace_product(p.U, uv).is_zero()
    report, status = build_report("cancelling_u2", b)
    assert status == 0 and report["flags"]["bernstein"] is True
    assert report["identities"]["bernstein"] is True


# ---------------------------------------------------------------- invariants


def test_corpus_dimension_split(peirce_corpus):
    for name, b, p in peirce_corpus:
        assert b.dim == 1 + p.U.dim + p.V.dim, name


def test_idempotent_independence(peirce_corpus):
    for name, b, p in peirce_corpus:
        a = b.algebra
        # seed with e + (first U basis vector) when U is nonzero
        if p.U.is_zero():
            continue
        seed = p.e + a.element(p.U.rows[0])
        p2 = peirce(b, find_idempotent(b, seed))
        assert (p2.U.dim, p2.V.dim) == (p.U.dim, p.V.dim), name
        assert p2.annU == p.annU, name


def test_barideal_solvable_with_third_plenary_zero(peirce_corpus):
    for name, b, p in peirce_corpus:
        assert plenary_power(b.algebra, p.N, 3).is_zero(), name


def test_nuclear_members_annihilate_barideal(peirce_corpus):
    for name, b, p in peirce_corpus:
        if classify(b).is_nuclear:
            assert subspace_product(b.algebra, p.annU, p.N).is_zero(), name
            assert nilpotency_report(b.algebra, p.N).nil_index_principal is not None


# ---------------------------------------------------------------- quotients


def test_quotient_bdown3_by_ann_u():
    b = make_family("bdown", 3)
    p = peirce(b)
    q = quotient(b, p.annU)
    a = q.algebra
    assert a.basis_names == ("e", "v1")
    assert a.basis_element(0) * a.basis_element(0) == a.basis_element(0)
    assert (a.basis_element(0) * a.basis_element(1)).is_zero()
    assert (a.basis_element(1) * a.basis_element(1)).is_zero()
    assert q.weight == (Fraction(1), Fraction(0))
    assert classify(q).is_jordan is True


def test_quotient_by_zero_is_same_table():
    b = make_family("bdown", 2)
    q = quotient(b, Subspace.zero(b.dim))
    assert q.algebra.basis_names == b.algebra.basis_names
    for i in range(b.dim):
        for j in range(b.dim):
            assert q.algebra.table_row(i, j) == b.algebra.table_row(i, j)
    assert q.weight == b.weight


def test_quotient_rejects_bad_ideals():
    b = make_family("bdown", 3)
    a = b.algebra
    with pytest.raises(ValueError):
        quotient(b, span_named(a, "u2"))  # not an ideal
    with pytest.raises(ValueError):
        quotient(b, span_named(a, "e"))  # not inside ker(weight)


def test_quotient_by_ann_u_is_jordan_on_corpus(peirce_corpus):
    for name, b, p in peirce_corpus:
        q = quotient(b, p.annU)
        assert classify(q).is_jordan is True, name


# ---------------------------------------------------------------- nuclear core


def test_nuclear_core_of_jordan3_is_everything():
    b = make_family("jordan3")
    core = nuclear_core(b)
    assert core.dim == 3
    assert classify(core).is_nuclear is True


def test_nuclear_core_of_bdown3_drops_v():
    b = make_family("bdown", 3)
    core = nuclear_core(b, peirce(b))
    assert core.dim == 4  # Ke + U, since U*U = 0
    fl = classify(core)
    assert fl.is_bernstein and fl.is_nuclear


def test_nuclear_core_one_dimensional():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    b = BaricAlgebra(a, [1])
    assert nuclear_core(b).dim == 1


def test_nuclear_core_is_nuclear_across_corpus(peirce_corpus):
    for name, b, p in peirce_corpus:
        core = nuclear_core(b, p)
        assert classify(core).is_nuclear is True, name


# ---------------------------------------------------------------- integer routes


def _reference_cases():
    """(name, baric algebra): the corpus and an algebra with 0 < annU < U,
    dense and scaled copies of their small members, and the families over
    GF(5) and GF(7)."""
    out = bernstein_corpus() + [("proper_ann_u", proper_ann_u_baric())]
    for name, b in list(out):
        if b.dim <= 6:
            for seed in (1, 2, 3):
                out.append((f"dense_{name}@{seed}",
                            BaricAlgebra(*change_of_basis_copy(b.algebra, b.weight, seed))))
        out.append((f"scaled_{name}", BaricAlgebra(*scaled_copy(b.algebra, b.weight))))
    for p in (5, 7):
        for kind in ("bdown", "bup"):
            for n in (2, 3, 4, 5):
                out.append((f"{kind}{n}_gf{p}", make_family(kind, n, PrimeField(p))))
        out.append((f"jordan3_gf{p}", make_family("jordan3", None, PrimeField(p))))
    return out


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("name, b", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_integer_peirce_matches_the_rational_route(name, b):
    assert not name.startswith("scaled") or any(w.denominator > 1 for w in b.weight)
    p = peirce(b)
    assert p == reference_peirce(b)
    # the same system on a second subspace of the algebra
    assert _annihilator_in_u(b.algebra, p.V) == reference_annihilator(b.algebra, p.V)
    assert verify_weight(b) is True and reference_verify_weight(b) is True
    seeded = find_idempotent(b, p.e + b.algebra.element(p.U.rows[0])) if p.U.dim else p.e
    assert peirce(b, seeded) == reference_peirce(b, seeded)


@pytest.mark.parametrize("name, b", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_left_mult_matrix_matches_the_rational_route(name, b):
    a, p = b.algebra, peirce(b)
    for x in [p.e] + [a.element(r) for r in p.V.rows + p.U.rows]:
        assert operator_matrix(a, x, p.N) == reference_left_mult_matrix(a, x, p.N)
        assert operator_matrix(a, x) == reference_left_mult_matrix(a, x)
    if p.V.dim:
        # e (e + v) = e leaves the line through e + v
        line = Subspace([(p.e + a.element(p.V.rows[0])).coords], a.dim, a.field)
        for route in (functools.partial(operator_matrix, a),
                      functools.partial(reference_left_mult_matrix, a)):
            with pytest.raises(ValueError, match="not invariant"):
                route(p.e, line)


@pytest.mark.parametrize("name, b", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_weight_witness_matches_the_rational_route(name, b):
    a = b.algebra
    for k in range(b.dim):
        bent = list(b.weight)
        bent[k] = bent[k] + b.field.one
        broken = BaricAlgebra(a, bent)
        got = verify_weight(broken)
        assert got == reference_verify_weight(broken), k
        assert got is True or got.note == reference_verify_weight(broken).note


def test_weight_is_compared_modulo_p():
    # weight 3 on x over GF(5): w(x*x) = 3 + 1 = 4 and w(x)^2 = 9 agree only mod 5
    gf5 = PrimeField(5)
    a = CommAlgebra.from_table(["x", "y"], {("x", "x"): {"x": 1, "y": 1},
                                            ("x", "y"): {"x": 1}, ("y", "y"): {"y": 1}}, gf5)
    b = BaricAlgebra(a, [3, 1])
    assert verify_weight(b) is True and reference_verify_weight(b) is True
    broken = BaricAlgebra(CommAlgebra.from_table(
        ["x", "y"], {("x", "x"): {"x": 1, "y": 2}, ("x", "y"): {"x": 1},
                     ("y", "y"): {"y": 1}}, gf5), [3, 1])
    got = verify_weight(broken)
    assert got == reference_verify_weight(broken)
    assert got.residual == gf5.of(1)  # 3 + 2 - 9 = -4 = 1 mod 5


# ---------------------------------------------------------------- flag witnesses


def _flag_witness_inputs():
    """Every baric fixture with its rebased copies, then bdown/bup(3..5)."""
    out = []
    for fixture in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.alg"))):
        with open(fixture, encoding="utf-8") as fh:
            alg = to_algebra(parse(fh.read()))
        if isinstance(alg, BaricAlgebra):
            name = os.path.basename(fixture)
            out += [(name, alg)] + [(f"{name}_{label}", c) for label, c in rebased_copies(alg)]
    out += [(f"{kind}{n}", make_family(kind, n)) for kind in ("bdown", "bup") for n in (3, 4, 5)]
    return out


def _v_squared_nonzero():
    """A Bernstein algebra with v*v = u, so V*V is nonzero."""
    a = CommAlgebra.from_table(["e", "u", "v"], {("e", "e"): {"e": 1},
                                                 ("e", "u"): {"u": Fraction(1, 2)},
                                                 ("v", "v"): {"u": 1}})
    return BaricAlgebra(a, [1, 0, 0])


def _bent_weight():
    b = make_family("bdown", 3)
    return BaricAlgebra(b.algebra, [2] + list(b.weight[1:]))


# one generated input per witness kind, with the kinds it must show
FLAG_FAILING = [
    ("v_squared_nonzero", _v_squared_nonzero(), {"V*V is nonzero"}),
    ("bdown3", make_family("bdown", 3), {"(u v) v does not vanish",
                                         "V is not exhausted by U*U"}),
    ("non_nilpotent", non_nilpotent_baric(), {"barideal_nilpotent"}),
    ("bent_weight", _bent_weight(), {"weight is not multiplicative on this pair"}),
]
FLAG_INPUTS = _flag_witness_inputs() + [case[:2] for case in FLAG_FAILING]


def flag_witness_kinds(b) -> set:
    """Re-evaluate every witness of classify(b) through the reference
    products and return their kinds: the note, or the flag for a subspace."""
    a, flags = b.algebra, classify(b)
    mul = functools.partial(reference_mul_coords, a)
    kinds = set()
    for key, w in flags.witnesses.items():
        kinds.add(key if isinstance(w, Subspace) else w.note)
        if key == "baric":
            (_, x), (_, y) = w.assignment
            xy = a.element(mul(x.coords, y.coords))
            got = weight_of(b.weight, xy) - weight_of(b.weight, x) * weight_of(b.weight, y)
            assert w.residual == got != 0
            continue
        if key == "bernstein":
            got = reference_identity_defect(a, Identity.BERNSTEIN, dict(w.assignment), b.weight)
            assert w.residual == got and not got.is_zero()
            continue
        p = reference_peirce(b)
        if key == "barideal_nilpotent":
            assert not w.is_zero() and reference_subspace_product(a, w, p.N) == w
            continue
        args = dict(w.assignment)
        assert all(p.V.contains(args[k].coords) for k in ("v", "w") if k in args)
        if w.note == "V is not exhausted by U*U":
            assert w.residual == args["v"]
            assert not reference_subspace_product(a, p.U, p.U).contains(args["v"].coords)
            continue
        if w.note == "V*V is nonzero":
            got = mul(args["v"].coords, args["w"].coords)
        else:
            assert w.note == "(u v) v does not vanish" and p.U.contains(args["u"].coords)
            u, v = args["u"].coords, args["v"].coords
            vw = args.get("w", args["v"]).coords
            got = mul(mul(u, v), vw)
            if "w" in args:
                got = tuple(s + t for s, t in zip(got, mul(mul(u, vw), v)))
        assert w.residual.coords == got and any(got)
    return kinds


@pytest.mark.parametrize("name, b", FLAG_INPUTS, ids=[c[0] for c in FLAG_INPUTS])
def test_flag_witnesses_reevaluate_through_the_reference_products(name, b):
    flag_witness_kinds(b)


@pytest.mark.parametrize("name, b, kinds", FLAG_FAILING, ids=[c[0] for c in FLAG_FAILING])
def test_each_flag_witness_kind_fires_on_a_generated_input(name, b, kinds):
    assert kinds <= flag_witness_kinds(b)


# ---------------------------------------------------------------- annU and Jordan


def _ann_u_cases():
    """annU strictly between 0 and U, annU = 0 (jordan3) and annU = U (the
    wide-V tables), each with its rebased copies."""
    out = [("proper_ann_u", proper_ann_u_baric()), ("jordan3", make_family("jordan3"))]
    out += [(f"wide_v_{r}_{s}", wide_v_bernstein(r, s, seed=r + s))
            for r, s in ((3, 3), (4, 2), (3, 4))]
    return out + [(f"{name}_{label}", c) for name, b in out for label, c in rebased_copies(b)]


ANN_U_CASES = _ann_u_cases()


@pytest.mark.parametrize("name, b", ANN_U_CASES, ids=[c[0] for c in ANN_U_CASES])
def test_ann_u_matches_the_reference(name, b):
    a, p = b.algebra, peirce(b)
    got = _annihilator_in_u(a, p.U)
    assert got == p.annU == reference_annihilator(a, p.U)
    if name.startswith("proper_ann_u"):
        assert 0 < got.dim < p.U.dim
    elif name.startswith("jordan3"):
        assert got.is_zero()
    else:
        # U*U = 0: the memoised product decides, and annU is U itself
        assert a.subspace_product(p.U, p.U).is_zero() and got is p.U


class CountingMemo(dict):
    """A product memo that counts its misses (stores) and lookups per key."""

    def __init__(self):
        super().__init__()
        self.misses, self.lookups = collections.Counter(), collections.Counter()

    def get(self, key, default=None):
        self.lookups[key] += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.misses[key] += 1
        super().__setitem__(key, value)


def test_one_report_multiplies_u_by_u_once():
    b = make_family("bdown", 6)
    memo = b.algebra._products = CountingMemo()
    report, status = build_report("bdown6", b)
    assert status == 0 and report["peirce"]["relations_ok"] is True
    key = frozenset((peirce(make_family("bdown", 6)).U,))
    # annU, the Peirce relations and the nuclear flag all read the one product
    assert memo.misses[key] == 1 and memo.lookups[key] >= 3


def _polarized_only():
    """A Bernstein algebra of type (1 + 2, 2) where every (u v) v vanishes on
    basis vectors but (u1 v1) v2 + (u1 v2) v1 = u2 v2 = u1 does not."""
    a = CommAlgebra.from_table(
        ["e", "u1", "u2", "v1", "v2"],
        {("e", "e"): {"e": 1}, ("e", "u1"): {"u1": Fraction(1, 2)},
         ("e", "u2"): {"u2": Fraction(1, 2)}, ("u1", "v1"): {"u2": 1}, ("u2", "v2"): {"u1": 1}})
    return BaricAlgebra(a, [1, 0, 0, 0, 0])


def _cancelling_pairs():
    """A Bernstein algebra of type (1 + 4, 2) on which v1 and v2 act on U as
    the exterior algebra on two generators acts on itself: (u v) v = 0 for
    every v, while (u1 v1) v2 = -u4 and (u1 v2) v1 = u4 cancel."""
    a = CommAlgebra.from_table(
        ["e", "u1", "u2", "u3", "u4", "v1", "v2"],
        {("e", "e"): {"e": 1}, **{("e", f"u{i}"): {f"u{i}": Fraction(1, 2)} for i in range(1, 5)},
         ("u1", "v1"): {"u2": 1}, ("u3", "v1"): {"u4": 1},
         ("u1", "v2"): {"u3": 1}, ("u2", "v2"): {"u4": -1}})
    return BaricAlgebra(a, [1] + [0] * 6)


def _jordan_cases():
    """Tables whose structural Jordan condition holds or fails at various
    tuples: the wide-V tables at several seeds, one failing only in its
    polarized form, one holding only because its polarized terms cancel,
    the baric corpus, their rebased copies and the families over GF(5)."""
    out = [(f"wide_v_{r}_{s}@{seed}", wide_v_bernstein(r, s, seed))
           for r, s in ((3, 3), (4, 2), (3, 4), (1, 2)) for seed in range(4)]
    out += [("polarized_only", _polarized_only()), ("cancelling_pairs", _cancelling_pairs())]
    out += [(name, b) for name, b in bernstein_corpus() if b.dim <= 7]
    out += [(f"{name}_{label}", c) for name, b in out[::5] for label, c in rebased_copies(b)]
    return out + [(f"{kind}{n}_gf5", make_family(kind, n, PrimeField(5)))
                  for kind in ("bdown", "bup") for n in (2, 3, 4)]


JORDAN_CASES = _jordan_cases()


@pytest.mark.parametrize("name, b", JORDAN_CASES, ids=[c[0] for c in JORDAN_CASES])
def test_integer_jordan_condition_matches_the_element_route(name, b):
    p = peirce(b)
    got, want = _jordan_structural(b, p), reference_jordan_structural(b, p)
    if name == "polarized_only":
        assert got.note == "(u v) w + (u w) v does not vanish"
    if name == "cancelling_pairs":
        assert got is True
    if want is True or isinstance(want, str):
        assert got is True if want is True else got.note == want
        return
    assert tuple(got) == tuple(want) and got.note == want.note
