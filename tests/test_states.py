"""Clebsch-Gordan tables of the rotation-covariant families, checked against
closed-form values, the covariance they must produce, and sympy."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import fcspin
from fcspin import build_spin_rep, covariant_kraus, covariant_state, find_intertwiner
from fcspin.states import _cg_table

# (2s, 2j) of every family with integer s <= 4, 2j <= 8 and s <= 2j
ALLOWED = [(two_s, two_j) for two_s in range(2, 9, 2) for two_j in range(1, 9)
           if two_s <= 2 * two_j]


def _cg(s, m, j, mu, nu):
    """<s m, j mu | j nu> read from the table; arguments as Fractions."""
    s, m, j, mu, nu = (Fraction(x) for x in (s, m, j, mu, nu))
    table = _cg_table(int(2 * s), int(2 * j))
    return table[int(s - m), int(j - mu), int(j - nu)]


@pytest.mark.parametrize("args, value", [
    # spin 1 (x) spin 1/2 -> spin 1/2
    (("1", "1", "1/2", "-1/2", "1/2"), sqrt(2 / 3)),
    (("1", "0", "1/2", "1/2", "1/2"), -sqrt(1 / 3)),
    (("1", "0", "1/2", "-1/2", "-1/2"), sqrt(1 / 3)),
    (("1", "-1", "1/2", "1/2", "-1/2"), -sqrt(2 / 3)),
    # spin 1 (x) spin 1 -> spin 1
    (("1", "1", "1", "0", "1"), sqrt(1 / 2)),
    (("1", "0", "1", "1", "1"), -sqrt(1 / 2)),
    (("1", "1", "1", "-1", "0"), sqrt(1 / 2)),
    (("1", "0", "1", "0", "0"), 0.0),
    # spin 2 (x) spin 1 -> spin 1
    (("2", "1", "1", "-1", "0"), sqrt(3 / 10)),
    (("2", "0", "1", "0", "0"), -sqrt(2 / 5)),
    (("2", "2", "1", "-1", "1"), sqrt(3 / 5)),
])
def test_cg_closed_form_values(args, value):
    assert abs(_cg(*args) - value) <= 2.3e-16


@pytest.mark.parametrize("two_s, two_j", [
    (two_s, two_j) for two_s, two_j in ALLOWED if two_s <= 6 and two_j <= 7
])
def test_covariant_family_is_rotation_covariant(two_s, two_j):
    st = covariant_state(Fraction(two_s, 2), Fraction(two_j, 2))
    report = find_intertwiner(st, build_spin_rep(two_s + 1))
    assert report.found
    assert report.residual <= 1e-12


def test_cg_tables_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.cg import CG

    for two_s, two_j in ALLOWED:
        s, j = sympy.Rational(two_s, 2), sympy.Rational(two_j, 2)
        table = _cg_table(two_s, two_j)
        ref = np.zeros_like(table)
        for i in range(two_s + 1):
            for a in range(two_j + 1):
                nu = s - i + j - a
                if abs(nu) <= j:
                    ref[i, a, int(j - nu)] = float(CG(s, s - i, j, j - a, j, nu).doit())
        assert np.abs(table - ref).max() <= 2.3e-16, (two_s, two_j)


@pytest.mark.parametrize("s, j", [
    (1, 0.3),           # once silently built as j = 1/2
    (1.2, 1),           # once silently built as s = 1
    ("1", "1/3"),
    (Fraction(4, 3), Fraction(1, 2)),
])
def test_covariant_kraus_rejects_spins_off_the_half_integers(s, j):
    bad = s if (2 * Fraction(s)).denominator != 1 else j
    msg = re.escape(f"spin {bad!r} is not a multiple of 1/2")
    with pytest.raises(ValueError, match=msg):
        covariant_kraus(s, j)


def test_covariant_kraus_accepts_strings_and_fractions():
    assert covariant_kraus("1", "1/2").k == 2
    assert covariant_kraus(Fraction(2), Fraction(3, 2)).d == 5
    assert covariant_kraus(1, 1.5).k == 4


def test_covariant_families_do_not_load_sympy():
    src = str(Path(fcspin.__file__).resolve().parents[1])
    code = ("import sys\nfrom fractions import Fraction\nimport fcspin\n"
            "fcspin.covariant_state(3, Fraction(7, 2))\n"
            "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
