"""Transfer operator spectra, two-point functions, decay certificates."""

import math

import numpy as np
import pytest

from fcspin import (
    aklt_kraus,
    aklt_state,
    build_spin_rep,
    build_transfer,
    check_selfadjoint,
    decay_certificate,
    direct_sum,
    fixed_point,
    gap,
    gauge_transform,
    product_state,
    random_fcs_state,
    two_point,
)
from fcspin.fcs import LocalObservable, evaluate_local


def test_aklt_spectrum():
    t = build_transfer(aklt_state())
    rep = gap(t)
    eigs = sorted(lam.real for lam in rep.eigenvalues)
    assert np.abs(np.array(eigs) - np.array([-1 / 3, -1 / 3, -1 / 3, 1.0])).max() < 1e-10
    assert abs(rep.delta - 1 / 3) < 1e-10
    assert rep.fixed_multiplicity == 1
    assert rep.selfadjoint_defect < 1e-10


def test_product_state_rank_one():
    st = product_state(np.array([1.0, 2.0]) / np.sqrt(5))
    rep = gap(build_transfer(st))
    assert rep.delta < 1e-12


def test_direct_sum_degenerate():
    # inequivalent ergodic summands: one fixed point per block
    from fcspin import covariant_kraus

    st = fixed_point(direct_sum(aklt_kraus(), covariant_kraus(1, 1)))
    rep = gap(build_transfer(st))
    assert rep.fixed_multiplicity == 2
    assert rep.delta == 1.0


def test_direct_sum_identical_copies_degenerate():
    # two identical copies add intertwiner fixed points: multiplicity 4
    st = fixed_point(direct_sum(aklt_kraus(), aklt_kraus()))
    rep = gap(build_transfer(st))
    assert rep.fixed_multiplicity == 4
    assert rep.delta == 1.0


def test_spectral_radius_and_fixed_eigenvalue():
    rng = np.random.default_rng(17)
    for _ in range(10):
        st = random_fcs_state(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        rep = gap(build_transfer(st))
        mods = [abs(lam) for lam in rep.eigenvalues]
        assert max(mods) <= 1 + 1e-10
        assert min(abs(lam - 1) for lam in rep.eigenvalues) < 1e-9


def test_selfadjoint_implies_real_spectrum():
    t = build_transfer(aklt_state())
    assert check_selfadjoint(t) <= 1e-9
    rep = gap(t)
    assert max(abs(lam.imag) for lam in rep.eigenvalues) < 1e-8


def test_generic_family_not_selfadjoint():
    st = random_fcs_state(3, 3, np.random.default_rng(23))
    assert check_selfadjoint(build_transfer(st)) > 1e-3


def test_two_point_aklt_values():
    st = aklt_state()
    Sz = build_spin_rep(3).Sz
    c1 = two_point(st, Sz, Sz, 1)
    assert abs(c1 - (-4 / 9)) < 1e-12
    prev = c1
    for n in range(2, 7):
        cn = two_point(st, Sz, Sz, n)
        assert abs(cn / prev - (-1 / 3)) < 1e-10
        prev = cn


def test_two_point_identity_observable_vanishes():
    st = aklt_state()
    for n in range(1, 5):
        assert abs(two_point(st, np.eye(3), np.eye(3), n)) < 1e-12


def test_two_point_product_state_vanishes():
    st = product_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    A = np.array([[0.3, 1.0], [0.5j, -0.2]])
    for n in range(1, 5):
        assert abs(two_point(st, A, A, n)) < 1e-12


def test_two_point_requires_disjoint_supports():
    st = aklt_state()
    with pytest.raises(ValueError):
        two_point(st, np.eye(3), np.eye(3), 0)


def test_two_point_matches_explicit_windows():
    rng = np.random.default_rng(5)
    st = random_fcs_state(2, 3, rng)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    wa = evaluate_local(st, LocalObservable((0, 0), A))
    wb = evaluate_local(st, LocalObservable((0, 0), B))
    for n in range(1, 7):
        obs = LocalObservable((0, n), np.kron(A, np.kron(np.eye(2 ** (n - 1)), B)))
        direct = evaluate_local(st, obs) - wa * wb
        assert abs(two_point(st, A, B, n) - direct) < 1e-9


def test_two_point_gauge_invariance():
    rng = np.random.default_rng(31)
    st = random_fcs_state(3, 3, rng)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    stg = gauge_transform(st, q)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    for n in range(1, 5):
        assert abs(two_point(st, A, B, n) - two_point(stg, A, B, n)) < 1e-9


def test_decay_certificate_aklt():
    st = aklt_state()
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(st, Sz, Sz, 30)
    assert cert.passed
    assert abs(cert.delta - 1 / 3) < 1e-10
    assert cert.beta_max >= math.log(3) - 1e-3
    assert cert.selfadjoint
    # the bound is tight for the AKLT Sz autocorrelation
    for row in cert.rows:
        assert abs(abs(row.corr) - row.bound) < 1e-12 * max(1.0, row.bound)


def test_decay_certificate_product_trivial():
    st = product_state(np.array([1.0, 0.0]))
    cert = decay_certificate(st, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]), 10)
    assert cert.passed
    assert all(abs(row.corr) < 1e-12 for row in cert.rows)


def test_decay_certificate_degenerate_refuses():
    st = fixed_point(direct_sum(aklt_kraus(), aklt_kraus()))
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(st, Sz, Sz, 5)
    assert cert.verdict == "fail"
    assert "degenerate" in cert.reason


def test_decay_certificate_generic_state():
    st = random_fcs_state(3, 3, np.random.default_rng(77))
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(st, Sz, Sz, 15)
    assert cert.passed
    assert 0 < cert.delta < 1


@pytest.mark.parametrize("st", [
    aklt_state(),
    random_fcs_state(3, 3, np.random.default_rng(77)),
    random_fcs_state(2, 4, np.random.default_rng(5)),
], ids=["aklt", "random-d3-k3", "random-d2-k4"])
def test_decay_rows_equal_two_point(st):
    rep = build_spin_rep(st.d)
    cert = decay_certificate(st, rep.Sz, rep.Sx, 12)
    assert len(cert.rows) == 12
    for row in cert.rows:
        assert row.corr == two_point(st, rep.Sz, rep.Sx, row.n)
