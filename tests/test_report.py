import collections
import glob
import json
import os

import pytest

from bernalg import BaricAlgebra, CommAlgebra, Identity, make_family, parse, to_algebra
from bernalg import algebra as algebra_module
from bernalg import bernstein as bernstein_module
from bernalg import nilpotence as nilpotence_module
from bernalg.report import build_report, emit_report

from conftest import rebased_copies


def test_one_dimensional_report_is_minimal():
    a = CommAlgebra.from_table(["e"], {("e", "e"): {"e": 1}})
    report, status = build_report("unit", BaricAlgebra(a, [1]))
    assert status == 0
    assert report["peirce"]["n_dim"] == 0
    assert report["flags"]["jordan"] is True
    assert report["flags"]["nuclear"] is True


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



def test_baric_report_computes_each_fact_once(monkeypatch):
    b = make_family("bdown", 3)
    n = b.barideal()
    calls = collections.Counter()

    def counting(module, attr, key):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(bernstein_module, "check_identity", lambda a, ident, *rest: ident)
    counting(bernstein_module, "peirce", lambda *args: "peirce")
    counting(bernstein_module, "verify_weight", lambda *args: "verify_weight")
    for module in (bernstein_module, nilpotence_module):
        counting(module, "power_chain", lambda a, s, kind, *rest: (kind, s == n))
    counting(algebra_module, "_full_runs", lambda *args: "full")
    report, status = build_report("bdown3", b)
    assert status == 0 and report["certificate"]["n_nilpotent"] is True
    assert all(calls[ident] == 1 for ident in Identity)
    assert calls["peirce"] == 1 and calls["verify_weight"] == 1
    assert calls[("principal", True)] == 1 and calls[("plenary", True)] == 1
    assert calls["full"] == 1  # N's full chain, reused by the certificate


# ---------------------------------------------------------------- metamorphic


FIXTURES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.alg")))


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
