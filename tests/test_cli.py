import functools
import glob
import io
import json
import os
import sys
from fractions import Fraction

import pytest

from bernalg import (BaricAlgebra, Identity, bernstein_witnesses, identity_defect,
                     make_family, parse, to_algebra)
from bernalg import algebra as algebra_module
from bernalg import bernstein as bernstein_module
from bernalg import cli
from bernalg.cli import main
from bernalg.fileformat import from_algebra, serialize

from conftest import change_of_basis_copy, rebased_copies

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


def scan_only(proof: bool, monkeypatch) -> None:
    """Without the proof, the scan decides every Bernstein verdict."""
    if not proof:
        monkeypatch.setattr(bernstein_module, "_proves_bernstein", lambda a, p: False)


@pytest.mark.parametrize("proof", [True, False], ids=["proved", "scanned"])
def test_check_json_matches_golden_bytes(proof, capsys, monkeypatch):
    scan_only(proof, monkeypatch)
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
        code, out, _ = run_cli(["check", path("bup4.alg"), "--json"], capsys=capsys)
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


def test_decompose_cut_by_max_steps_exits_1_naming_max_steps(capsys):
    # F's full chain vanishes at m = 4, so two steps cut it short
    code, out, _ = run_cli(["decompose", path("bdown3.alg"), "--max-steps", "2", "--json"],
                           capsys=capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert "cut at max_steps = 2" in error and "not nilpotent" not in error
    code, out, _ = run_cli(["check", path("bdown3.alg"), "--max-steps", "2", "--json"],
                           capsys=capsys)
    assert code == 0 and json.loads(out)["certificate"] == {"error": error}


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


@pytest.mark.parametrize("stem, argv, bad", [("my-alg.v2", [], "my-alg.v2_quot"),
                                             ("bdown3", ["--name", "x y"], "x y_quot")])
def test_quotient_refuses_a_name_the_parser_refuses(stem, argv, bad, tmp_path, capsys):
    f = tmp_path / f"{stem}.alg"
    f.write_text(open(path("bdown3.alg"), encoding="utf-8").read())
    code, out, err = run_cli(["quotient", str(f), "--by", "annU"] + argv, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: bad algebra name {bad!r}\n")
    # --name gives the output a name that reads back
    code, out, _ = run_cli(["quotient", str(f), "--by", "annU", "--name", "my_alg"],
                           capsys=capsys)
    assert code == 0 and parse(out).name == "my_alg_quot"


def test_family_writes_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "fam.alg"
    code, out, _ = run_cli(["family", "bup", "--n", "2", "--out", str(target)],
                           capsys=capsys)
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("algebra bup2\n")


@pytest.mark.parametrize("kind, n", [("squareshift", 65), ("zhevlakov", 70),
                                     ("bdown", 63), ("bup", 100)])
def test_family_over_the_dimension_cap_exits_2_naming_the_cap(kind, n, tmp_path, capsys):
    target = tmp_path / "fam.alg"
    code, out, err = run_cli(["family", kind, "--n", str(n), "--out", str(target)],
                             capsys=capsys)
    assert code == 2 and out == "" and "MAX_DIM = 64" in err
    assert not target.exists()


def test_family_at_the_dimension_cap_writes_a_file_the_parser_accepts(capsys):
    for kind, n in (("squareshift", 64), ("bdown", 62)):
        code, out, _ = run_cli(["family", kind, "--n", str(n)], capsys=capsys)
        assert code == 0 and len(parse(out).basis) == 64


# bdown2 with e*u1 = u1: the weight stays multiplicative, Bernstein fails
SKEWED_BDOWN2 = (open(path("bdown2.alg"), encoding="utf-8").read()
                 .replace("prod e u1 = 1/2 u1", "prod e u1 = 1 u1"))


PEIRCE_COMMANDS = [
    ["peirce"], ["fixedspace"], ["multalg"],
    ["stability", "--subspace", "0,0,0,0"], ["quotient", "--by", "annU"],
]


@pytest.mark.parametrize("argv", PEIRCE_COMMANDS)
def test_peirce_commands_exit_1_with_witness_on_non_bernstein(argv, tmp_path, capsys):
    _assert_exit_1_with_bernstein_witness(SKEWED_BDOWN2, argv, tmp_path, capsys)


# corrupted.alg: the Peirce split succeeds, but the Bernstein identity fails
@pytest.mark.parametrize("argv", PEIRCE_COMMANDS)
def test_peirce_commands_exit_1_with_witness_on_corrupted(argv, tmp_path, capsys):
    text = open(path("corrupted.alg"), encoding="utf-8").read()
    _assert_exit_1_with_bernstein_witness(text, argv, tmp_path, capsys)


def _assert_exit_1_with_bernstein_witness(text, argv, tmp_path, capsys):
    f = tmp_path / "input.alg"
    f.write_text(text)
    code, out, err = run_cli([argv[0], str(f), "--json"] + argv[1:], capsys=capsys)
    assert code == 1
    assert "not Bernstein" in err
    w = json.loads(out)["witnesses"]["bernstein"]
    _assert_witness_reevaluates(to_algebra(parse(text)), Identity.BERNSTEIN, w)
    code, out, _ = run_cli([argv[0], str(f)] + argv[1:], capsys=capsys)
    assert code == 1
    assert out.startswith("witness[bernstein]: ")


def _assert_witness_reevaluates(alg, ident, w):
    """The JSON witness `w`, re-evaluated through `identity_defect`, gives
    exactly its reported residual, and that residual is nonzero."""
    a, weight = (alg.algebra, alg.weight) if isinstance(alg, BaricAlgebra) else (alg, None)
    assignment = {var: a.element([Fraction(c) for c in coords])
                  for var, coords in w["assignment"].items()}
    defect = identity_defect(a, ident, assignment, weight)
    assert not defect.is_zero()
    assert [str(c) for c in defect.coords] == w["residual"]


@pytest.mark.parametrize("fixture", sorted(glob.glob(path("*.alg"))), ids=os.path.basename)
def test_every_identity_witness_reevaluates_to_its_residual(fixture, tmp_path, capsys):
    with open(fixture, encoding="utf-8") as fh:
        texts = [fh.read()]
    alg = to_algebra(parse(texts[0]))
    a, weight = (alg.algebra, alg.weight) if isinstance(alg, BaricAlgebra) else (alg, None)
    for seed in (1, 2):
        b, w = change_of_basis_copy(a, weight, seed)
        copy = b if w is None else BaricAlgebra(b, w)
        texts.append(serialize(from_algebra(copy, f"copy{seed}")))
    peirce_argvs = [argv if argv[0] != "stability" else
                    ["stability", "--subspace", ",".join(["0"] * a.dim)]
                    for argv in PEIRCE_COMMANDS]
    for text in texts:
        f = tmp_path / "input.alg"
        f.write_text(text)
        alg = to_algebra(parse(text))
        code, out, _ = run_cli(["check", str(f), "--json"], capsys=capsys)
        report = json.loads(out)
        found = [(Identity(k), w) for k, w in report["identities"].items() if w is not True]
        assert found
        if "bernstein" in report.get("witnesses", {}):
            found.append((Identity.BERNSTEIN, report["witnesses"]["bernstein"]))
        not_bernstein = report.get("flags", {}).get("bernstein") is False
        for argv in peirce_argvs:
            code, out, _ = run_cli([argv[0], str(f), "--json"] + argv[1:], capsys=capsys)
            assert (code == 1) == not_bernstein, argv
            if code == 1:
                found.append((Identity.BERNSTEIN, json.loads(out)["witnesses"]["bernstein"]))
        for ident, w in found:
            _assert_witness_reevaluates(alg, ident, w)


def test_non_bernstein_error_path_checks_the_identity_once(monkeypatch, capsys):
    calls = []
    real = bernstein_module.check_identity

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(bernstein_module, "check_identity", counting)
    code, out, _ = run_cli(["peirce", path("corrupted.alg")], capsys=capsys)
    assert code == 1 and out.startswith("witness[bernstein]: ")
    assert calls == [Identity.BERNSTEIN]


def test_zero_weight_seed_still_exits_2(capsys):
    code, _, err = run_cli(["peirce", path("bdown3.alg"), "--seed", "1 u1"],
                           capsys=capsys)
    assert code == 2
    assert "weight zero" in err


def test_seed_that_is_not_an_element_expression_exits_2(capsys):
    code, out, err = run_cli(["peirce", path("bdown3.alg"), "--seed", "1"], capsys=capsys)
    assert (code, out, err) == (2, "", "error: bad element expression '1'\n")


def test_name_overrides_the_file_name(tmp_path, capsys):
    f = tmp_path / "bdown3.alg"
    f.write_text(serialize(from_algebra(make_family("bdown", 3), "bdown3")))
    code, out, _ = run_cli(["check", str(f), "--name", "renamed", "--json"], capsys=capsys)
    assert code == 0 and json.loads(out)["algebra"] == "renamed"
    code, out, _ = run_cli(["check", str(f), "--name", "renamed"], capsys=capsys)
    assert code == 0 and out.startswith("algebra renamed (dim 5)\n")


def test_check_text_of_an_invalid_weight(tmp_path, capsys):
    f = tmp_path / "zero_weight.alg"
    f.write_text("algebra zero_weight\nbasis e u\nweight e 0\n")
    code, out, _ = run_cli(["check", str(f)], capsys=capsys)
    assert code == 1
    assert out == ("algebra zero_weight (dim 2)\n"
                   "  weight: INVALID\n"
                   "  witness: {'assignment': {}, 'residual': '0', "
                   "'note': 'weight functional is identically zero'}\n")


def test_full_chain_cap_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    f = tmp_path / "sq4.alg"
    f.write_text(serialize(from_algebra(make_family("squareshift", 4), "sq4")))
    # the cap counts runs of equal terms, and this chain has five
    monkeypatch.setattr(algebra_module, "_HARD_CAP", 3)
    code, out, err = run_cli(["powers", str(f), "--kind", "full"], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: full power chain did not stabilize")


def test_powers_refuses_a_listing_longer_than_the_position_cap(tmp_path, capsys):
    # squareshift(15): 16 runs of equal terms over 2^14 + 1 positions, just
    # past the cap, so that a listing that is not refused stays small
    f = tmp_path / "sq15.alg"
    f.write_text(serialize(from_algebra(make_family("squareshift", 15), "sq15")))
    code, out, err = run_cli(["powers", str(f), "--kind", "full", "--json"], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    for word in (str(2 ** 14 + 1), str(cli.MAX_LISTED_POSITIONS), "--max-steps"):
        assert word in err
    code, out, err = run_cli(["powers", str(f), "--kind", "full", "--json",
                              "--max-steps", "40"], capsys=capsys)
    assert code == 0 and err == ""
    assert len(json.loads(out)["term_dims"]) == 40


def test_check_json_reaches_an_exponential_full_nil_index(tmp_path, capsys):
    # squareshift(15) holds 16 runs of equal terms over 16385 positions
    f = tmp_path / "sq15.alg"
    f.write_text(serialize(from_algebra(make_family("squareshift", 15), "sq15")))
    code, out, err = run_cli(["check", str(f), "--json"], capsys=capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["chains"]["full_nil_index"] == 2 ** 14 + 1


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_help_exits_0(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: bernalg {name} ")


# arguments after the file for each subcommand that reads one
FILE_ARGS = {"check": [], "classify": [], "peirce": [], "powers": ["--kind", "full"],
             "fixedspace": [], "multalg": [], "stability": ["--subspace", "0,0,0,0,1"],
             "decompose": [], "quotient": ["--by", "annU"]}


def test_every_subcommand_that_reads_a_file_is_listed():
    assert sorted(FILE_ARGS) == sorted(set(cli.COMMANDS) - {"family"})


@pytest.mark.parametrize("command", list(FILE_ARGS))
def test_each_call_parses_its_file_once(command, capsys, monkeypatch):
    calls = []
    real = cli.parse

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(cli, "parse", counting)
    for json_flag in ([], ["--json"]):
        calls.clear()
        code, _, _ = run_cli([command, path("bdown3.alg")] + FILE_ARGS[command] + json_flag,
                             capsys=capsys)
        assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [["family", "bdown", "--n", "3"],
                                  ["quotient", path("bdown3.alg"), "--by", "annU"]])
def test_algebra_file_output_is_the_same_with_json(argv, capsys):
    code, text, _ = run_cli(argv, capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(argv + ["--json"], capsys=capsys)
    assert code == 0 and out == text
    assert parse(out).name in ("bdown3", "bdown3_quot")


def test_powers_barideal_refuses_a_plain_file(capsys):
    code, out, err = run_cli(["powers", path("squareshift3.alg"), "--kind", "full",
                              "--barideal"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: this command needs a baric file (declare weight lines)\n"


# text output recorded from the CLI before its handlers shared one print path
@pytest.mark.parametrize("proof", [True, False], ids=["proved", "scanned"])
@pytest.mark.parametrize("name", sorted(GOLDEN_EXIT))
def test_check_text_matches_golden(name, proof, capsys, monkeypatch):
    scan_only(proof, monkeypatch)
    code, out, _ = run_cli(["check", path(name + ".alg")], capsys=capsys)
    assert code == GOLDEN_EXIT[name]
    with open(path(name + ".check.txt"), encoding="utf-8") as fh:
        assert out == fh.read()


BDOWN3_TEXT_ARGS = dict(FILE_ARGS, powers=["--kind", "full", "--barideal"],
                        stability=["--subspace", "0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"])


@pytest.mark.parametrize("command", [c for c in FILE_ARGS if c != "check"])
def test_subcommand_text_on_bdown3_matches_golden(command, capsys):
    code, out, _ = run_cli([command, path("bdown3.alg")] + BDOWN3_TEXT_ARGS[command],
                           capsys=capsys)
    assert code == 0
    with open(path(f"bdown3.{command}.txt"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_family_text_matches_the_bdown3_fixture(capsys):
    code, out, _ = run_cli(["family", "bdown", "--n", "3"], capsys=capsys)
    assert code == 0
    with open(path("bdown3.alg"), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("argv", [["check", path("bdown3.alg"), "extra"],
                                  ["powers", path("bdown3.alg"), "--kind", "weird"],
                                  ["bogus"], ["--json"], []])
def test_argparse_errors_exit_2_with_the_full_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err
    if argv[:1] != ["powers"]:
        assert cli.build_parser().format_usage() in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [[c, path("bdown3.alg")] + a for c, a in FILE_ARGS.items()]
                         + [["family", "bdown", "--n", "2"],
                            # checked before the file is read
                            ["check", path("no_such_file.alg")]],
                         ids=list(FILE_ARGS) + ["family", "missing_file"])
def test_max_steps_below_one_exits_2_with_a_plain_message(argv, value, capsys):
    code, out, err = run_cli(argv + ["--max-steps", value], capsys=capsys)
    assert (code, out, err) == (2, "", "error: max_steps must be >= 1\n")


@pytest.mark.parametrize("argv", [["decompose", path("bdown3.alg"), "--gens", "zz"],
                                  ["peirce", path("bdown3.alg"), "--seed", "1 zz"]])
def test_unknown_basis_name_exits_2_with_a_plain_message(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: unknown basis name 'zz'\n")


@pytest.mark.parametrize("flag", ["--subspace", "--by"])
@pytest.mark.parametrize("spec, message", [
    ("1,0,0,0,0;", "subspace row 2 of 2 is empty"),
    (";1,0,0,0,0", "subspace row 1 of 2 is empty"),
    ("1,,0,0,0", "malformed rational ''"),
])
def test_malformed_subspace_spec_exits_2_naming_the_problem(flag, spec, message, capsys):
    command = "stability" if flag == "--subspace" else "quotient"
    code, out, err = run_cli([command, path("bdown3.alg"), flag, spec], capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


GATE, END, ARG, SPLIT = "gate", "/gate", "arg", "split"
# the gate makes the default split for its proof, and on corrupted.alg
# (weight valid, Bernstein identity failing) the proof fails and the scan decides
GATED = [GATE, SPLIT, END]


@pytest.mark.parametrize("argv, on_bdown3, on_corrupted", [
    (["peirce"], (0, GATED), (1, GATED)),
    # the seeded split is made anew for the seed's idempotent
    (["peirce", "--seed", "1 e + 1 u1"], (0, GATED + [ARG, SPLIT]), (1, GATED)),
    (["fixedspace"], (0, GATED), (1, GATED)),
    (["multalg"], (0, GATED), (1, GATED)),
    (["stability", "--subspace", "0,0,1,0,0"], (0, GATED + [ARG]), (1, GATED)),
    # malformed rows exit 2 after the gate, which decides first
    (["stability", "--subspace", "1,0"], (2, GATED + [ARG]), (1, GATED)),
    (["quotient", "--by", "annU"], (0, GATED), (1, GATED)),
    # a quotient by rows needs a baric input only, so no Bernstein gate runs
    (["quotient", "--by", "1,0"], (2, [ARG]), (2, [ARG])),
], ids=["peirce", "peirce_seed", "fixedspace", "multalg", "stability", "stability_malformed",
        "quotient_annU", "quotient_malformed"])
@pytest.mark.parametrize("fixture", ["bdown3.alg", "corrupted.alg"])
def test_bernstein_only_subcommands_run_the_gate_then_the_rows_then_the_split(
        argv, on_bdown3, on_corrupted, fixture, capsys, monkeypatch):
    """The Bernstein gate (Analysis.bernstein_witnesses), from its start to
    its end, the --seed or --subspace/--by argument and each Peirce split,
    each recorded when it is computed: the gate once and first, the
    Bernstein verdict inside it, and the default split at most once, inside
    the gate, for the proof; the handler reads that same split."""
    seen = []
    real_gate = bernstein_module.Analysis.bernstein_witnesses.func

    def gating(an):
        seen.append(GATE)
        try:
            return real_gate(an)
        finally:
            seen.append(END)
    gate = functools.cached_property(gating)
    gate.__set_name__(bernstein_module.Analysis, "bernstein_witnesses")
    monkeypatch.setattr(bernstein_module.Analysis, "bernstein_witnesses", gate)
    for module, name, label in ((bernstein_module, "_split", SPLIT),
                                (cli, "_element_from_expr", ARG),
                                (cli, "_subspace_from_spec", ARG)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, label=label:
                            seen.append(label) or real(*a))
    code = run_cli([argv[0], path(fixture)] + argv[1:], capsys=capsys)[0]
    assert (code, seen) == (on_bdown3 if fixture == "bdown3.alg" else on_corrupted)


@pytest.mark.parametrize("argv", [
    ["peirce", path("bdown3.alg"), "--seed", "1 e + 1/0 u1"],
    ["stability", path("bdown3.alg"), "--subspace", "1/0,0,0,0,0"],
    ["quotient", path("bdown3.alg"), "--by", "0,0,0,0,1/0"],
], ids=["seed", "subspace", "by"])
def test_zero_denominator_in_a_spec_exits_2_as_a_malformed_rational(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (2, "", "error: malformed rational '1/0'\n")


def test_oversized_input_exits_2_naming_the_cap(tmp_path, capsys, monkeypatch):
    f = tmp_path / "big.alg"
    f.write_text("algebra big\nbasis x\nweight x " + "1" * 1001 + "\n")
    code, out, err = run_cli(["check", str(f)], capsys=capsys)
    assert code == 2 and out == ""
    assert "MAX_DIGITS = 1000" in err
    f.write_text(serialize(from_algebra(make_family("bdown", 3), "bdown3")))
    code, _, err = run_cli(["peirce", str(f), "--seed", "1e99999999 e"], capsys=capsys)
    assert code == 2 and "MAX_DIGITS" in err
    code, _, err = run_cli(["stability", str(f), "--subspace", "1" * 1001 + ",0,0,0,0"],
                           capsys=capsys)
    assert code == 2 and "MAX_DIGITS" in err
    monkeypatch.setattr(cli, "MAX_DIM", 2)
    rows = "0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"
    code, _, err = run_cli(["stability", str(f), "--subspace", rows], capsys=capsys)
    assert code == 2 and "MAX_DIM = 2" in err
    code, _, err = run_cli(["quotient", str(f), "--by", rows], capsys=capsys)
    assert code == 2 and "MAX_DIM = 2" in err


# ---------------------------------------------------------------- metamorphic


def _bernstein_inputs():
    """Every Bernstein fixture, then bdown and bup at n = 3..5."""
    out = []
    for fixture in sorted(glob.glob(os.path.join(DATA, "*.alg"))):
        alg = to_algebra(parse(open(fixture, encoding="utf-8").read()))
        if isinstance(alg, BaricAlgebra) and not bernstein_witnesses(alg):
            out.append((os.path.basename(fixture), alg))
    out += [(f"{kind}{n}", make_family(kind, n)) for kind in ("bdown", "bup")
            for n in (3, 4, 5)]
    return out


BERNSTEIN_INPUTS = _bernstein_inputs()
# the fields of each subcommand's --json payload that no change of basis may move
BASIS_INDEPENDENT = {
    "peirce": lambda p: ({k: p[k] for k in ("n_dim", "u_dim", "v_dim")},
                         len(p["ann_u_basis"])),
    "multalg": lambda p: p,
    "fixedspace": lambda p: (p["chain_dims"], p["gfp_dim"]),
}


@pytest.mark.parametrize("name, alg", BERNSTEIN_INPUTS, ids=[c[0] for c in BERNSTEIN_INPUTS])
def test_basis_independent_subcommand_fields_survive_a_change_of_basis(name, alg, tmp_path,
                                                                       capsys):
    def fields(x):
        f = tmp_path / "input.alg"
        f.write_text(serialize(from_algebra(x, "input")))
        out = {}
        for command, keep in BASIS_INDEPENDENT.items():
            code, text, _ = run_cli([command, str(f), "--json"], capsys=capsys)
            assert code == 0, command
            out[command] = keep(json.loads(text))
        return out

    want = fields(alg)
    for label, copy in rebased_copies(alg):
        assert fields(copy) == want, label


def _sweep_argv(command, fixture):
    """Arguments for `command` on one fixture; `family` takes the fixture's
    family kind and size from its file name, which `corrupted` lacks."""
    stem = os.path.basename(fixture)[:-len(".alg")]
    with open(fixture, encoding="utf-8") as fh:
        dim = len(parse(fh.read()).basis)
    extra = {
        "powers": ["--kind", "full"],
        "stability": ["--subspace", ",".join(["0"] * (dim - 1) + ["1"])],
        "quotient": ["--by", "annU"],
    }.get(command, [])
    if command == "family":
        kind = stem.rstrip("0123456789")
        return ["family", stem] if stem == "jordan3" else ["family", kind, "--n", stem[len(kind):]]
    return [command, fixture] + extra


@pytest.mark.parametrize("fixture", sorted(glob.glob(path("*.alg"))), ids=os.path.basename)
@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_every_subcommand_on_every_fixture_exits_by_the_contract(command, fixture, json_flag,
                                                                 capsys):
    try:
        code = main(_sweep_argv(command, fixture) + json_flag)
    except SystemExit as exc:  # argparse refusing the arguments
        code = exc.code
    assert code in (0, 1, 2)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if json_flag and code != 2 and command not in ("family", "quotient"):
        json.loads(out)
