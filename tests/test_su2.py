"""Representation and twist construction."""

import numpy as np
import pytest
from scipy.linalg import expm

from fcspin import (
    build_spin_rep,
    build_twist,
    compute_mu,
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
    assert compute_mu(tw) == expected
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
    assert tw.mu == mu == compute_mu(tw)
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
