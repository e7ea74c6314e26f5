import collections
import json

from bernalg import BaricAlgebra, CommAlgebra, Identity, make_family
from bernalg import algebra as algebra_module
from bernalg import bernstein as bernstein_module
from bernalg.report import build_report, emit_report


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
    counting(algebra_module, "_first_order_chain",
             lambda a, s, kind, *rest: (kind, s == n))
    counting(algebra_module, "_full_chain", lambda *args: "full")
    report, status = build_report("bdown3", b)
    assert status == 0 and report["certificate"]["n_nilpotent"] is True
    assert all(calls[ident] == 1 for ident in Identity)
    assert calls["peirce"] == 1 and calls["verify_weight"] == 1
    assert calls[("principal", True)] == 1 and calls[("plenary", True)] == 1
    assert calls["full"] == 1  # N's full chain, reused by the certificate
