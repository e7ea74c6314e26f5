"""Semantics of the package's record types, and what importing it loads."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bernalg import (AlgebraFile, Matrix, ModP, NilpotencyReport, Witness, make_family,
                     power_chain)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules); import bernalg, bernalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


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
