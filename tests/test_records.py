"""Semantics of the package's record types, and what importing it loads."""

import ast
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bernalg import (AlgebraFile, Matrix, ModP, NilpotencyReport, Witness, make_family,
                     power_chain)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


MODULES = ("fields", "linalg", "algebra", "identities", "bernstein", "nilpotence", "report",
           "fileformat", "cli", "families")

# every name the package exported when its __init__ imported each module
# eagerly, under the module it was imported from
EXPORTS = {
    "algebra": ("CHAIN_KINDS", "FULL", "PLENARY", "PRINCIPAL", "CommAlgebra", "Element",
                "NilpotencyReport", "PowerChain", "generated_ideal", "generated_subalgebra",
                "is_ideal", "nilpotency_report", "plenary_power", "power_chain",
                "subalgebra_on", "subspace_product", "weight_of"),
    "bernstein": ("Analysis", "BaricAlgebra", "ClassificationFlags", "NotBernsteinError",
                  "PeirceData", "bernstein_witnesses", "check_peirce_relations", "classify",
                  "find_idempotent", "nuclear_core", "peirce", "quotient", "verify_weight"),
    "families": ("FAMILY_KINDS", "make_family", "plenary_trace"),
    "fields": ("QQ", "ModP", "PrimeField"),
    "fileformat": ("AlgebraFile", "ParseError", "from_algebra", "parse", "serialize",
                   "to_algebra"),
    "identities": ("Identity", "Witness", "check_identity", "identity_defect"),
    "linalg": ("Matrix", "Subspace"),
    "nilpotence": ("DecompositionCertificate", "FixedSubspaceResult", "MultClosure",
                   "StabilityReport", "SubmoduleIdealReport", "decompose_nilpotent_ideal",
                   "greatest_fixed_subspace", "module_action", "mult_closure_nilpotent",
                   "stable_subspace_check", "submodule_ideal_check"),
    "report": ("build_report", "emit_report"),
}


def run_fresh(code: str):
    """What `code` prints, as a Python literal, run in a fresh interpreter
    that imports the package from the source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return ast.literal_eval(out.stdout.strip())


LOADED = "sorted(m[8:] for m in sys.modules if m.startswith('bernalg.'))"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("before = set(sys.modules); import bernalg, bernalg.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert run_fresh(code) == []


def test_import_loads_no_submodule():
    assert run_fresh(f"import bernalg\nprint({LOADED})") == []


def test_reading_a_file_loads_only_the_loader():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "bdown3.alg")
    code = ("from bernalg import fileformat\n"
            f"with open({path!r}, encoding='utf-8') as fh:\n"
            "    b = fileformat.to_algebra(fileformat.parse(fh.read()))\n"
            f"print((type(b).__name__, b.dim, {LOADED}))")
    assert run_fresh(code) == ("BaricAlgebra", 5, ["algebra", "fields", "fileformat", "linalg"])


def test_the_cli_loads_every_module():
    assert run_fresh(f"import bernalg, bernalg.cli\nprint({LOADED})") == sorted(MODULES)


def test_every_former_export_is_its_module_object():
    code = (f"import bernalg, importlib\nexports = {EXPORTS!r}\nwrong = []\n"
            "for module, names in exports.items():\n"
            "    for name in names:\n"
            "        scope = {}\n"
            "        exec(f'from bernalg import {name} as got', scope)\n"
            "        home = importlib.import_module(f'bernalg.{module}')\n"
            "        if not (scope['got'] is getattr(home, name) is getattr(bernalg, name)\n"
            "                and name in bernalg.__all__ and name in dir(bernalg)):\n"
            "            wrong.append(name)\n"
            "import bernalg.algebra as algebra\n"
            "print((wrong, len(bernalg.__all__), bernalg.BaricAlgebra is algebra.BaricAlgebra))")
    assert run_fresh(code) == ([], sum(map(len, EXPORTS.values())), True)


def test_an_unknown_name_raises_attribute_error():
    code = ("import bernalg\n"
            "try:\n"
            "    bernalg.no_such_name\n"
            "except AttributeError as exc:\n"
            f"    print((str(exc), {LOADED}))")
    assert run_fresh(code) == ("module 'bernalg' has no attribute 'no_such_name'", [])


def test_records_are_tuples():
    a = make_family("squareshift", 3)
    kind, runs, stabilized, nil_index = power_chain(a, a.full_space(), "full")
    assert (kind, stabilized, nil_index) == ("full", True, 5) and runs[-1].term.is_zero()
    assert NilpotencyReport(5, 4, None) == (5, 4, None)


def test_witness_equality_and_hash_ignore_the_note():
    a = make_family("bdown", 2).algebra
    x = a.basis_element(0)
    w1 = Witness((("x", x),), x, note="one")
    w2 = Witness((("x", x),), x, note="two")
    assert w1 == w2 and not w1 != w2 and hash(w1) == hash(w2)
    assert w1 != Witness((("x", x),), a.zero_element(), note="one")
    assert not w1 and Witness((), x).note == ""


def test_modp_normalises_its_value_and_hashes_by_residue():
    assert ModP(12, 7).value == ModP(-2, 7).value == 5
    assert ModP(12, 7) == ModP(5, 7) and hash(ModP(12, 7)) == hash(ModP(5, 7))
    assert ModP(5, 7) != ModP(5, 11)
    assert len({ModP(k, 7) for k in range(-7, 14)}) == 7
    assert repr(ModP(12, 7)) == "ModP(value=5, p=7)"
    with pytest.raises(AttributeError):
        ModP(1, 7).value = 8


def test_matrix_refuses_a_wrong_entry_count():
    with pytest.raises(ValueError):
        Matrix(2, 2, (1, 2, 3))
    m = Matrix(1, 2, (Fraction(1), Fraction(2)))
    assert m == Matrix.from_rows([[1, 2]]) and hash(m) == hash(Matrix.from_rows([[1, 2]]))
    assert m != Matrix(2, 1, m.entries)
    with pytest.raises(AttributeError):
        m.rows = 2


def test_algebra_files_never_share_a_default_dict():
    f, g = AlgebraFile("a", ("x",)), AlgebraFile("a", ("x",))
    f.weights["x"] = Fraction(1)
    f.products[("x", "x")] = ((Fraction(1), "x"),)
    assert g.weights == {} and g.products == {}
    assert f.is_baric and not g.is_baric
    assert g == AlgebraFile("a", ("x",)) and f != g
    with pytest.raises(TypeError):
        hash(g)
