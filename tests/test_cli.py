import glob
import io
import json
import os
import sys
from fractions import Fraction

import pytest

from bernalg import Identity, identity_defect, make_family, parse, to_algebra
from bernalg import algebra as algebra_module
from bernalg.cli import main
from bernalg.fileformat import from_algebra, serialize

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_check_bdown3_ok(capsys, monkeypatch):
    code, out, _ = run_cli(["check", path("bdown3.alg")], capsys=capsys)
    assert code == 0
    assert "bernstein=True" in out
    assert "jordan=False" in out


def test_family_pipe_into_check(capsys, monkeypatch):
    code, family_text, _ = run_cli(["family", "bdown", "--n", "3"], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(["check", "-"], stdin_text=family_text,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert "bernstein=True" in out


def test_check_corrupted_fixture_fails_with_witness(capsys, monkeypatch):
    code, out, _ = run_cli(["check", path("corrupted.alg"), "--json"], capsys=capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["flags"]["bernstein"] is False
    assert "bernstein" in payload["witnesses"]


# exit status of `check` on each fixture that has a golden report
GOLDEN_EXIT = {"bdown2": 0, "bdown3": 0, "bup4": 0, "jordan3": 0,
               "squareshift3": 0, "zhevlakov4": 0, "corrupted": 1}


def test_check_json_matches_golden_bytes(capsys, monkeypatch):
    goldens = sorted(glob.glob(path("*.report.json")))
    names = [os.path.basename(g)[:-len(".report.json")] for g in goldens]
    assert sorted(GOLDEN_EXIT) == names
    for name, golden in zip(names, goldens):
        code, out, _ = run_cli(["check", path(name + ".alg"), "--json"], capsys=capsys)
        assert code == GOLDEN_EXIT[name], name
        with open(golden, "r", encoding="utf-8") as fh:
            assert out == fh.read(), name


def test_reports_are_byte_identical_across_runs(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["check", path("bup4.alg"), "--json",
                                "--seed-rng", "7"], capsys=capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_parse_error_exit_2(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a\nbasis x\nprod x x = 1 nope\n")
    code, _, err = run_cli(["check", str(bad)], capsys=capsys)
    assert code == 2
    assert "nope" in err and "line 3" in err


def test_missing_file_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(["check", path("does_not_exist.alg")], capsys=capsys)
    assert code == 2


def test_classify_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["classify", path("jordan3.alg"), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["jordan"] is True and payload["nuclear"] is True


def test_classify_non_baric(capsys, monkeypatch):
    code, out, _ = run_cli(["classify", path("squareshift3.alg"), "--json"],
                           capsys=capsys)
    assert code == 0
    assert json.loads(out)["baric"] is False


def test_peirce_subcommand_with_seed(capsys, monkeypatch):
    code, out, _ = run_cli(["peirce", path("bdown3.alg"), "--json",
                            "--seed", "1 e + 1 u1"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["u_dim"] == 3 and payload["v_dim"] == 1
    assert payload["idempotent"] == ["1", "0", "1", "0", "0"]


def test_peirce_rejects_plain_files(capsys, monkeypatch):
    code, _, err = run_cli(["peirce", path("squareshift3.alg")], capsys=capsys)
    assert code == 2
    assert "baric" in err


def test_powers_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["powers", path("squareshift3.alg"), "--kind", "full",
                            "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["term_dims"] == [3, 2, 1, 1, 0]
    assert payload["nil_index"] == 5
    code, out, _ = run_cli(["powers", path("bdown3.alg"), "--kind", "principal",
                            "--barideal", "--json"], capsys=capsys)
    payload = json.loads(out)
    assert payload["nil_index"] == 4


def test_powers_max_steps_truncation(capsys, monkeypatch):
    code, out, _ = run_cli(["powers", path("squareshift3.alg"), "--kind", "full",
                            "--max-steps", "3", "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilized"] is False and payload["nil_index"] is None


def test_fixedspace_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["fixedspace", path("bup4.alg"), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_dims"] == [5, 3, 2, 1, 0]
    assert payload["gfp_dim"] == 0


def test_multalg_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["multalg", path("bdown3.alg"), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["nilpotent"] is True and payload["nil_index"] == 3


def test_stability_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["stability", path("bdown3.alg"), "--json",
                            "--subspace", "0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"],
                           capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ni_eq_i"] is False and payload["vi_eq_i"] is False
    assert payload["conclusion_holds"] is True


def test_decompose_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["decompose", path("squareshift3.alg"),
                            "--gens", "e3", "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5
    assert payload["n_equals_f_plus_nm"] and payload["n_nilpotent"]


def test_decompose_barideal_default_generators(capsys, monkeypatch):
    code, out, _ = run_cli(["decompose", path("bdown3.alg"), "--json"], capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nilpotent"] is True


def test_quotient_subcommand(capsys, monkeypatch):
    code, out, _ = run_cli(["quotient", path("bdown3.alg"), "--by", "annU"],
                           capsys=capsys)
    assert code == 0
    assert "algebra bdown3_quot" in out
    assert "basis e v1" in out
    # the quotient file parses and classifies as Jordan
    from bernalg import classify, parse, to_algebra
    q = to_algebra(parse(out))
    assert classify(q).is_jordan is True


def test_family_writes_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "fam.alg"
    code, out, _ = run_cli(["family", "bup", "--n", "2", "--out", str(target)],
                           capsys=capsys)
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("algebra bup2\n")


# bdown2 with e*u1 = u1: the weight stays multiplicative, Bernstein fails
SKEWED_BDOWN2 = (open(path("bdown2.alg"), encoding="utf-8").read()
                 .replace("prod e u1 = 1/2 u1", "prod e u1 = 1 u1"))


@pytest.mark.parametrize("argv", [
    ["peirce"], ["fixedspace"], ["multalg"],
    ["stability", "--subspace", "0,0,0,0"], ["quotient", "--by", "annU"],
])
def test_peirce_commands_exit_1_with_witness_on_non_bernstein(argv, tmp_path, capsys):
    f = tmp_path / "skewed.alg"
    f.write_text(SKEWED_BDOWN2)
    b = to_algebra(parse(SKEWED_BDOWN2))
    code, out, err = run_cli([argv[0], str(f), "--json"] + argv[1:], capsys=capsys)
    assert code == 1
    assert "not Bernstein" in err
    w = json.loads(out)["witnesses"]["bernstein"]
    x = b.algebra.element([Fraction(c) for c in w["assignment"]["x"]])
    defect = identity_defect(b.algebra, Identity.BERNSTEIN, {"x": x}, b.weight)
    assert not defect.is_zero()
    assert [str(c) for c in defect.coords] == w["residual"]
    code, out, _ = run_cli([argv[0], str(f)] + argv[1:], capsys=capsys)
    assert code == 1
    assert out.startswith("witness[bernstein]: ")


def test_zero_weight_seed_still_exits_2(capsys):
    code, _, err = run_cli(["peirce", path("bdown3.alg"), "--seed", "1 u1"],
                           capsys=capsys)
    assert code == 2
    assert "weight zero" in err


def test_full_chain_cap_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    f = tmp_path / "sq4.alg"
    f.write_text(serialize(from_algebra(make_family("squareshift", 4), "sq4")))
    monkeypatch.setattr(algebra_module, "_HARD_CAP", 5)
    code, out, err = run_cli(["powers", str(f), "--kind", "full"], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: full power chain did not stabilize")
