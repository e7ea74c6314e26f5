import collections
import gc
import glob
import json
import os
import weakref

import pytest

from bernalg import BaricAlgebra, CommAlgebra, Identity, make_family, parse, to_algebra
from bernalg import algebra as algebra_module
from bernalg import bernstein as bernstein_module
from bernalg import nilpotence as nilpotence_module
from bernalg import report as report_module
from bernalg.report import build_report, certificate_summary, emit_report

from conftest import (bernstein_corpus, change_of_basis_copy, non_nilpotent_baric,
                      rebased_copies, weighted_basis_copy)


def test_one_dimensional_report_is_minimal():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    report, status = build_report("unit", BaricAlgebra(a, [1]))
    assert status == 0
    assert report["peirce"]["n_dim"] == 0
    assert report["flags"]["jordan"] is True
    assert report["flags"]["nuclear"] is True


def test_a_reported_algebra_is_freed_without_the_cyclic_collector():
    # a sparse baric family, a plain family and a dense copy: the scans,
    # their witnesses and the chains leave no reference cycle behind
    algs = [make_family("bdown", 6), make_family("zhevlakov", 8),
            weighted_basis_copy(make_family("bdown", 3), 1)]
    gc.collect()
    gc.disable()
    try:
        for k, alg in enumerate(algs):
            build_report(f"a{k}", alg)
        refs = [weakref.ref(a) for alg in algs for a in (alg, getattr(alg, "algebra", alg))]
        del algs, alg
        assert [r() for r in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_baric_report_omits_baric_sections():
    report, status = build_report("sq", make_family("squareshift", 3))
    assert status == 0
    assert report["baric"] is False
    for key in ("flags", "peirce", "fixed_subspace", "mult_closure", "weight_ok"):
        assert key not in report
    assert "identities" in report and "chains" in report
    assert "bernstein" not in report["identities"]  # needs a weight


def test_invalid_weight_report_stops_early():
    a = make_family("squareshift", 3)
    report, status = build_report("bad", BaricAlgebra(a, [1, 0, 0]))
    assert status == 1
    assert report["weight_ok"] is False
    assert "weight_witness" in report
    assert "flags" not in report


def test_report_serializes_to_json():
    report, _ = build_report("j3", make_family("jordan3"))
    payload = json.loads(emit_report(report))
    assert payload["flags"]["nuclear"] is True
    assert payload["certificate"]["n_nilpotent"] is True



@pytest.mark.parametrize("proof", [True, False], ids=["proved", "scanned"])
def test_baric_report_computes_each_fact_once(proof, monkeypatch):
    b = make_family("bdown", 3)
    n = b.barideal()
    calls = collections.Counter()

    def counting(module, attr, key, original=None):
        original = original or getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(bernstein_module, "check_identity", lambda a, ident, *rest: ident)
    # the proof, as it is or switched off, which leaves the verdict to the scan
    counting(bernstein_module, "_proves_bernstein", lambda *args: "proof",
             None if proof else lambda *args: False)
    counting(bernstein_module, "_split", lambda *args: "split")
    counting(bernstein_module, "verify_weight", lambda *args: "verify_weight")
    for module in (bernstein_module, nilpotence_module):
        counting(module, "power_chain", lambda a, s, kind, *rest: (kind, s == n))
    counting(algebra_module, "_full_runs", lambda *args: "full")
    report, status = build_report("bdown3", b)
    assert status == 0 and report["certificate"]["n_nilpotent"] is True
    # the Bernstein verdict once, by the proof or by the scan it leaves
    assert calls["proof"] == 1 and calls[Identity.BERNSTEIN] == (0 if proof else 1)
    assert all(calls[ident] == 1 for ident in Identity if ident is not Identity.BERNSTEIN)
    # one split, made for the proof and read again by the Peirce section
    assert calls["split"] == 1 and calls["verify_weight"] == 1
    assert calls[("principal", True)] == 1 and calls[("plenary", True)] == 1
    assert calls["full"] == 1  # N's full chain, reused by the certificate


FIXTURES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.alg")))


# ---------------------------------------------------------------- certificate


def _certificate_cases():
    """Every fixture, bdown/bup(2..8) and jordan3, each with a change-of-basis
    copy."""
    out = []
    for fixture in FIXTURES:
        with open(fixture, encoding="utf-8") as fh:
            out.append((os.path.basename(fixture), to_algebra(parse(fh.read()))))
    out += bernstein_corpus()
    for name, alg in list(out):
        a, w = (alg.algebra, alg.weight) if isinstance(alg, BaricAlgebra) else (alg, None)
        b, w = change_of_basis_copy(a, w, 0)
        out.append((f"rebased_{name}", b if w is None else BaricAlgebra(b, w)))
    return out


CERTIFICATE_CASES = _certificate_cases()


@pytest.mark.parametrize("name, alg", CERTIFICATE_CASES, ids=[c[0] for c in CERTIFICATE_CASES])
def test_report_certificate_equals_the_fully_checked_certificate(name, alg, monkeypatch):
    for max_steps in (None, 1, 2, 3):
        with monkeypatch.context() as m:
            # the report reads the certificate from N's chain and checks nothing again
            for module, attr in ((report_module, "decompose_nilpotent_ideal"),
                                 (nilpotence_module, "is_ideal"),
                                 (nilpotence_module, "generated_ideal"),
                                 (nilpotence_module, "generated_subalgebra")):
                m.setattr(module, attr, None)
            report, _ = build_report(name, alg, max_steps)
        if not report.get("flags", {}).get("bernstein"):
            assert "certificate" not in report, name
            continue
        want = certificate_summary(alg.algebra, alg.barideal(), None, max_steps)
        assert report["certificate"] == want, (name, max_steps)


CHAIN_END_CASES = CERTIFICATE_CASES + [("non_nilpotent", non_nilpotent_baric())]


@pytest.mark.parametrize("name, alg", CHAIN_END_CASES, ids=[c[0] for c in CHAIN_END_CASES])
def test_a_cut_chain_is_not_reported_as_non_nilpotency(name, alg):
    if not build_report(name, alg)[0].get("flags", {}).get("bernstein"):
        return
    a, n = alg.algebra, alg.barideal()
    for max_steps in (None, 1, 2, 3):
        cert = build_report(name, alg, max_steps)[0]["certificate"]
        assert cert == certificate_summary(a, n, None, max_steps), (name, max_steps)
        chain = algebra_module.power_chain(a, n, "full", max_steps)
        if chain.nil_index is not None:
            assert "error" not in cert, (name, max_steps)
        elif chain.stabilized:
            assert cert == {"error": nilpotence_module.NOT_NILPOTENT}, (name, max_steps)
        else:
            assert f"cut at max_steps = {max_steps} " in cert["error"], (name, max_steps)
            assert "not nilpotent" not in cert["error"], (name, max_steps)


def test_cut_and_non_nilpotent_certificates_are_both_reached():
    errors = {build_report(name, alg, max_steps)[0].get("certificate", {}).get("error")
              for name, alg in CHAIN_END_CASES for max_steps in (None, 1, 2, 3)}
    assert nilpotence_module.NOT_NILPOTENT in errors
    assert any(e and "cut at max_steps = 3 " in e for e in errors)


def test_certificate_cases_reach_both_branches():
    certs = [build_report(name, alg, max_steps)[0].get("certificate")
             for name, alg in CERTIFICATE_CASES for max_steps in (None, 1)]
    assert {"error" in c for c in certs if c} == {True, False}


# ---------------------------------------------------------------- metamorphic


def basis_independent(report: dict) -> dict:
    """The `check --json` fields that no change of basis may move: dimensions,
    verdicts and flags, Peirce dimensions, nil and solvability indices,
    fixed-subspace chain dimensions, closure and certificate numbers."""
    keep = {key: report.get(key) for key in ("dimension", "baric", "weight_ok", "flags",
                                             "chains", "fixed_subspace", "mult_closure",
                                             "certificate")}
    keep["identities"] = {k: v is True for k, v in report.get("identities", {}).items()}
    keep["witness_kinds"] = sorted(report.get("witnesses", {}))
    peirce = report.get("peirce", {})
    keep["peirce"] = {k: peirce.get(k) for k in ("n_dim", "u_dim", "v_dim", "ann_u_dim",
                                                 "relations_ok")}
    return keep


@pytest.mark.parametrize("fixture", FIXTURES, ids=os.path.basename)
def test_basis_independent_report_fields_survive_a_change_of_basis(fixture):
    with open(fixture, encoding="utf-8") as fh:
        alg = to_algebra(parse(fh.read()))
    report, status = build_report("x", alg)
    want = basis_independent(report)
    for label, copy in rebased_copies(alg):
        got, got_status = build_report("x", copy)
        assert (basis_independent(got), got_status) == (want, status), label


def _permuted_families():
    """The sparse families, whose N, Peirce pieces and chain terms are
    coordinate subspaces, each with two seeded permutations of its basis,
    in which they stay coordinate subspaces on other pivots."""
    out = []
    for kind, ns in (("bdown", (3, 6)), ("bup", (3, 6)), ("squareshift", (4, 7)),
                     ("zhevlakov", (4, 7)), ("jordan3", (None,))):
        for n in ns:
            alg = make_family(kind, n)
            copies = [(label, c) for label, c in rebased_copies(alg)
                      if label.startswith("permuted")]
            out.append((f"{kind}{n or ''}", alg, copies))
    return out


PERMUTED_FAMILIES = _permuted_families()


@pytest.mark.parametrize("name, alg, copies", PERMUTED_FAMILIES,
                         ids=[c[0] for c in PERMUTED_FAMILIES])
def test_basis_independent_report_fields_survive_a_permutation_of_a_sparse_family(name, alg,
                                                                                  copies):
    report, status = build_report(name, alg)
    want = basis_independent(report)
    for label, copy in copies:
        if isinstance(copy, BaricAlgebra):
            assert copy.barideal().is_coordinate()
        got, got_status = build_report(name, copy)
        assert (basis_independent(got), got_status) == (want, status), label
