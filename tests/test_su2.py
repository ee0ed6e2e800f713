"""Representation and twist construction."""

import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import expm

from fcspin import (
    TwistMatrix,
    build_spin_rep,
    build_twist,
    group_element,
)
from fcspin.su2 import random_group_elements


@pytest.mark.parametrize("d", range(1, 8))
def test_commutators_and_casimir(d):
    rep = build_spin_rep(d)
    Sx, Sy, Sz = rep.generators()
    assert np.abs(Sx @ Sy - Sy @ Sx - 1j * Sz).max() < 1e-12
    assert np.abs(Sy @ Sz - Sz @ Sy - 1j * Sx).max() < 1e-12
    assert np.abs(Sz @ Sx - Sx @ Sz - 1j * Sy).max() < 1e-12
    casimir = Sx @ Sx + Sy @ Sy + Sz @ Sz
    s = rep.s
    assert np.abs(casimir - s * (s + 1) * np.eye(d)).max() < 1e-12


def test_generators_hermitian_and_basis_order():
    rep = build_spin_rep(4)
    for S in rep.generators():
        assert np.abs(S - S.conj().T).max() < 1e-14
    assert rep.basis == (1.5, 0.5, -0.5, -1.5)
    assert np.allclose(np.diag(rep.Sz).real, rep.basis)


def test_ladder_matrix_elements_spin_one():
    rep = build_spin_rep(3)
    # S+ entries sqrt(2) on the superdiagonal for s = 1
    Sp = rep.Sx + 1j * rep.Sy
    assert np.abs(Sp[0, 1] - np.sqrt(2)) < 1e-14
    assert np.abs(Sp[1, 2] - np.sqrt(2)) < 1e-14


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        build_spin_rep(0)
    with pytest.raises(ValueError):
        build_spin_rep(1.5)


def test_group_element_unitary_and_special():
    rep = build_spin_rep(3)
    rng = np.random.default_rng(3)
    for g in random_group_elements(rep, 5, rng):
        assert np.abs(g.u @ g.u.conj().T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(g.u)) - 1 < 1e-12


@pytest.mark.parametrize("d", range(1, 13))
def test_twist_conjugates_representation(d):
    rep = build_spin_rep(d)
    tw = build_twist(rep)
    assert np.abs(tw.r0 @ tw.r0 - np.eye(d)).max() < 1e-12
    assert np.abs(tw.r0 @ tw.r0.conj().T - np.eye(d)).max() < 1e-12
    rng = np.random.default_rng(d)
    for g in random_group_elements(rep, 10, rng):
        assert np.abs(tw.r0 @ g.u @ tw.r0 - g.u.conj()).max() < 1e-10


@pytest.mark.parametrize("d", range(1, 8))
def test_mu_parity(d):
    tw = build_twist(build_spin_rep(d))
    expected = 1 if d % 2 == 1 else -1
    assert tw.mu == expected
    assert TwistMatrix(tw.r0).mu == expected
    assert abs(tw.zeta ** 2 - tw.mu) < 1e-14
    # conj(r0) = mu * r0
    assert np.abs(tw.r0.conj() - tw.mu * tw.r0).max() < 1e-12
    # real form has real entries
    assert np.abs(tw.real_form - (tw.zeta * tw.r0)).max() < 1e-12


def test_twist_d2_is_sigma_y():
    tw = build_twist(build_spin_rep(2))
    assert np.abs(tw.r0 - np.array([[0, 1j], [-1j, 0]])).max() < 1e-12


def test_twist_d1_trivial():
    tw = build_twist(build_spin_rep(1))
    assert np.abs(tw.r0 - np.eye(1)).max() < 1e-14
    assert tw.mu == 1


def _expm_twist(rep):
    """(r0, zeta, mu) by the matrix-exponential recipe: R = exp(i pi Sy)
    from scipy's expm, rounded to its exact 0 and +-1 entries, divided by
    zeta and, for odd d, signed so that the m = s to m = -s entry is +1."""
    R = expm(1j * np.pi * rep.Sy).real.round(12).astype(complex)
    zeta = 1.0 + 0j if rep.d % 2 == 1 else -1j
    r0 = R / zeta
    if rep.d % 2 == 1 and r0[rep.d - 1, 0].real < 0:
        r0 = -r0
    return r0, zeta, 1 if rep.d % 2 == 1 else -1


@pytest.mark.parametrize("d", range(1, 13))
def test_twist_closed_form_matches_expm(d):
    rep = build_spin_rep(d)
    tw = build_twist(rep)
    r0, zeta, mu = _expm_twist(rep)
    assert np.array_equal(tw.r0, r0)
    assert tw.zeta == zeta
    assert tw.mu == mu == TwistMatrix(tw.r0).mu
    # the real form is the signed antidiagonal R e_m = (-1)^(s+m) e_{-m}
    i = np.arange(d)
    R = np.zeros((d, d))
    R[d - 1 - i, i] = (-1.0) ** (d - 1 - i)
    assert np.array_equal(tw.real_form, R)


@pytest.mark.parametrize("d", range(1, 13))
def test_group_element_matches_expm(d):
    rep = build_spin_rep(d)
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        axis = rng.normal(size=3)
        theta = rng.uniform(0.0, 4 * np.pi) * axis / np.linalg.norm(axis)
        g = group_element(rep, tuple(theta))
        ref = expm(1j * (theta[0] * rep.Sx + theta[1] * rep.Sy + theta[2] * rep.Sz))
        assert np.abs(g.u - ref).max() < 1e-13
        assert np.abs(g.u @ g.u.conj().T - np.eye(d)).max() < 1e-13


# ---- TwistMatrix: validated once, at construction ---------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def test_twist_matrix_has_r0_as_its_only_field():
    assert [f.name for f in dataclasses.fields(TwistMatrix)] == ["r0"]


def test_twist_matrix_equality_is_identity():
    rep = build_spin_rep(3)
    tw = build_twist(rep)
    assert tw == tw and tw != build_twist(rep)
    assert hash(tw) == hash(tw)
    assert len({tw, build_twist(rep)}) == 2


def test_spin_rep_equality_is_identity():
    rep = build_spin_rep(3)
    assert rep == rep and rep != build_spin_rep(3)
    assert hash(rep) == hash(rep)
    assert len({rep, build_spin_rep(3)}) == 2


def test_group_element_equality_is_identity():
    rep = build_spin_rep(3)
    g = group_element(rep, (0.1, 0.2, 0.3))
    assert g == g and g != group_element(rep, (0.1, 0.2, 0.3))
    assert hash(g) == hash(g)
    assert len({g, group_element(rep, (0.1, 0.2, 0.3))}) == 2


def test_twist_matrix_keeps_a_read_only_complex_copy():
    r0 = np.diag([1.0, -1.0])
    tw = TwistMatrix(r0)
    r0[0, 0] = 5.0
    assert tw.r0.dtype == complex
    assert np.array_equal(tw.r0, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        tw.r0[0, 0] = 2.0


def test_twist_matrix_properties_read_off_r0():
    tw = TwistMatrix(SIGMA_Y)
    assert tw.d == 2
    assert tw.mu == -1
    assert tw.zeta == -1j
    assert np.array_equal(tw.real_form, [[0.0, -1.0], [1.0, 0.0]])
    tw = TwistMatrix(SIGMA_X)
    assert tw.mu == 1
    assert tw.zeta == 1.0
    assert np.array_equal(tw.real_form, SIGMA_X.real)


@pytest.mark.parametrize("r0, message", [
    # i sigma_x has conj(r0) = -r0 but squares to -I: no twist at all
    (1j * SIGMA_X, "twist does not square to the identity"),
    (np.diag([1.0, 2.0, 0.5]), "twist does not square to the identity"),
    # squares to I but is not unitary
    (np.array([[1.0, 1.0], [0.0, -1.0]]), "twist is not unitary"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "twist has a non-finite entry"),
    (np.eye(3)[:2], re.escape("twist must be a square matrix, got shape (2, 3)")),
    (np.ones(2), re.escape("twist must be a square matrix, got shape (2,)")),
])
def test_twist_matrix_refuses_what_is_not_a_unitary_involution(r0, message):
    with pytest.raises(ValueError, match=message):
        TwistMatrix(r0)


def test_twist_matrix_without_real_form_has_no_mu():
    # a unitary involution whose conjugate is not +-itself: a valid twist,
    # but mu, zeta and the real form do not exist
    a = np.exp(1j * np.pi / 4)
    tw = TwistMatrix(np.array([[0.0, a], [np.conj(a), 0.0]]))
    for prop in ("mu", "zeta", "real_form"):
        with pytest.raises(ValueError, match="conj\\(r0\\) is not a real sign times r0"):
            getattr(tw, prop)


def test_twist_of_checks_the_shape_first():
    tw = build_twist(build_spin_rep(3))
    assert TwistMatrix.of(tw, 3) is tw
    assert np.array_equal(TwistMatrix.of(tw.r0, 3).r0, tw.r0)
    # a wrong shape is named even when the entries would be refused too
    with pytest.raises(ValueError, match=re.escape("twist has shape (3, 3), expected (5, 5)")):
        TwistMatrix.of(np.diag([1.0, 2.0, 3.0]), 5)
    with pytest.raises(ValueError, match=re.escape("twist has shape (3, 3), expected (2, 2)")):
        TwistMatrix.of(tw, 2)
