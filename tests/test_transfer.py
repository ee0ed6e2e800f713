"""Transfer operator spectra, two-point functions, decay certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fcspin import (
    aklt_kraus,
    aklt_state,
    build_spin_rep,
    build_transfer,
    check_selfadjoint,
    covariant_kraus,
    covariant_state,
    decay_certificate,
    direct_sum,
    fixed_point,
    gap,
    gauge_transform,
    product_state,
    random_fcs_state,
    random_unital_kraus,
    two_point,
)
from fcspin import fcs, transfer
from fcspin.fcs import KrausFamily, window_expectations


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


def _evaluate_local(state, tensor, m):
    """Expectation of an observable on a length-m window: its contraction
    with the window tensor."""
    W = window_expectations(state, m)
    return complex(np.sum(tensor * W))


def test_two_point_matches_explicit_windows():
    rng = np.random.default_rng(5)
    st = random_fcs_state(2, 3, rng)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    wa = _evaluate_local(st, A, 1)
    wb = _evaluate_local(st, B, 1)
    for n in range(1, 7):
        obs = np.kron(A, np.kron(np.eye(2 ** (n - 1)), B))
        direct = _evaluate_local(st, obs, n + 1) - wa * wb
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


# ---- exact spectra of the covariant families ---------------------------------

def _triangle(two_a, two_b, two_c):
    """Delta(abc)^2 of doubled arguments, a Fraction."""
    f = math.factorial
    return Fraction(f((two_a + two_b - two_c) // 2) * f((two_a - two_b + two_c) // 2)
                    * f((-two_a + two_b + two_c) // 2), f((two_a + two_b + two_c) // 2 + 1))


def _sixj_jjl_jjs(two_j, L, two_s):
    """{j j L; j j s} from Racah's formula, exactly.  Its four triangle
    factors pair up as Delta(jjL)^2 Delta(jjs)^2, so the symbol is rational."""
    f = math.factorial
    a = b = d = e = two_j
    c, g = 2 * L, two_s
    sums = [(a + b + c) // 2, (a + e + g) // 2, (d + b + g) // 2, (d + e + c) // 2]
    tops = [(a + b + d + e) // 2, (b + c + e + g) // 2, (c + a + g + d) // 2]
    racah = sum(
        Fraction((-1) ** t * f(t + 1),
                 math.prod(f(t - x) for x in sums) * math.prod(f(y - t) for y in tops))
        for t in range(max(sums), min(tops) + 1)
    )
    return _triangle(two_j, two_j, 2 * L) * _triangle(two_j, two_j, two_s) * racah


def _covariant_eigenvalue(two_s, two_j, L):
    """lambda_L = (-1)^(2j+s+L) (2j+1) {j j L; j j s}, multiplicity 2L+1."""
    sign = (-1) ** (two_j + two_s // 2 + L)
    return sign * (two_j + 1) * _sixj_jjl_jjs(two_j, L, two_s)


# (2s, 2j) of every family with integer s, 2s <= 8, 2j <= 8 and s <= 2j
COVARIANT = [(two_s, two_j) for two_s in range(2, 9, 2) for two_j in range(1, 9)
             if two_s <= 2 * two_j]


@pytest.mark.parametrize("two_s, two_j", COVARIANT)
def test_covariant_spectrum_matches_six_j(two_s, two_j):
    st = covariant_state(Fraction(two_s, 2), Fraction(two_j, 2))
    lam = [_covariant_eigenvalue(two_s, two_j, L) for L in range(two_j + 1)]
    assert lam[0] == 1
    exact = np.sort([float(x) for L, x in enumerate(lam) for _ in range(2 * L + 1)])
    rep = gap(build_transfer(st))
    got = np.array(rep.eigenvalues)
    assert np.abs(got.imag).max() <= 1e-13
    assert np.abs(np.sort(got.real) - exact).max() <= 1e-13
    assert abs(rep.delta - max(abs(float(x)) for x in lam[1:])) <= 1e-13
    assert rep.fixed_multiplicity == 1
    # Sz is a rank-1 tensor operator, so Sz-Sz correlations live at L = 1
    Sz = build_spin_rep(two_s + 1).Sz
    corr = [row.corr for row in decay_certificate(st, Sz, Sz, 40).rows]
    for c, c_next in zip(corr, corr[1:]):
        if abs(c) > 1e-12:
            assert abs(c_next / c - float(lam[1])) <= 1e-12


def test_six_j_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_6j

    for two_s, two_j in COVARIANT:
        j, s = sympy.Rational(two_j, 2), sympy.Rational(two_s, 2)
        for L in range(two_j + 1):
            want = wigner_6j(j, j, L, j, j, s)
            got = _sixj_jjl_jjs(two_j, L, two_s)
            assert want == sympy.Rational(got.numerator, got.denominator), (two_s, two_j, L)


# ---- one GNS matrix ------------------------------------------------------------

def test_gap_runs_one_eigensolve(monkeypatch):
    st = random_fcs_state(3, 4, np.random.default_rng(9))
    t = build_transfer(st)
    calls = []
    real = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    gap(t)
    assert calls == [(16, 16)]


def test_decay_certificate_builds_only_the_gns_matrix(monkeypatch):
    st = random_fcs_state(3, 4, np.random.default_rng(9))
    roots = []
    real_roots = transfer._rho_roots

    def refuse(*args):
        raise AssertionError("the plain transfer matrix was built")

    def counted(rho):
        roots.append(rho.shape)
        return real_roots(rho)

    monkeypatch.setattr(fcs, "transfer_matrix", refuse)
    monkeypatch.setattr(transfer, "transfer_matrix", refuse, raising=False)
    monkeypatch.setattr(transfer, "_rho_roots", counted)
    Sz = build_spin_rep(3).Sz
    assert decay_certificate(st, Sz, Sz, 10).passed
    assert roots == [(4, 4)]


def _reference_correlations(st, A, B, n_max):
    """omega(A at 0, B at n) - omega(A) omega(B) for n = 1..n_max in plain
    coordinates: X = sum B_ce v_c v_e*, Z = sum A_ab v_b* rho v_a, and
    omega(A theta^n(B)) = tr(Z E^(n-1)(X)) with E(X) = sum_i v_i X v_i*."""
    V = st.kraus.stacked()
    Vd = V.conj().transpose(0, 2, 1)
    X = np.einsum("ce,cab,ebd->ad", B, V, Vd)
    Z = np.einsum("ab,bij,jk,akl->il", A, Vd, st.rho, V)
    w_a, w_b = np.trace(Z), np.trace(st.rho @ X)
    out = []
    for _ in range(n_max):
        out.append(np.trace(Z @ X) - w_a * w_b)
        X = sum(v @ X @ v.conj().T for v in st.kraus.v)
    return np.array(out)


@pytest.mark.parametrize("d, k", [(3, 8), (5, 8), (2, 3)])
def test_decay_rows_match_plain_sweep(d, k):
    rng = np.random.default_rng(100 + d + k)
    st = random_fcs_state(d, k, rng)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    cert = decay_certificate(st, A, B, 200)
    assert not cert.selfadjoint
    got = np.array([row.corr for row in cert.rows])
    assert np.abs(got - _reference_correlations(st, A, B, 200)).max() <= 1e-12


def test_transfer_operator_reports_bond_dimension():
    st = random_fcs_state(2, 5, np.random.default_rng(1))
    t = build_transfer(st)
    assert t.k == 5 and t.matrix.shape == (25, 25)


def _blend(cov, rnd, eps):
    """The unital family S^{-1/2} u_i with u_i = (1 - eps) v_i + eps w_i and
    S = sum_i u_i u_i*, and its fixed point."""
    u = [(1 - eps) * v + eps * w for v, w in zip(cov.v, rnd.v)]
    w, V = np.linalg.eigh(sum(x @ x.conj().T for x in u))
    inv_sqrt = (V / np.sqrt(w)) @ V.conj().T
    return fixed_point(KrausFamily(tuple(inv_sqrt @ x for x in u)))


def test_decay_certificate_selfadjoint_at_its_tol():
    cov = covariant_kraus(1, 1)
    rnd = random_unital_kraus(3, 3, np.random.default_rng(7))
    # the self-adjoint defect is linear in eps; aim it at 3e-9
    probe = gap(build_transfer(_blend(cov, rnd, 1e-6))).selfadjoint_defect
    st = _blend(cov, rnd, 1e-6 * 3e-9 / probe)
    defect = gap(build_transfer(st)).selfadjoint_defect
    assert 1e-9 < defect < 1e-8
    Sz = build_spin_rep(3).Sz
    loose = decay_certificate(st, Sz, Sz, 12, tol=1e-8)
    strict = decay_certificate(st, Sz, Sz, 12, tol=1e-9)
    assert loose.selfadjoint and not strict.selfadjoint
    scale = loose.rows[0].bound
    for row in loose.rows:
        assert row.bound == pytest.approx(loose.delta ** (row.n - 1) * scale, rel=1e-12)


def _norm_power_bounds(Tc, scale, n_max):
    """||T_c^(n-1)|| scale for n = 1..n_max, one power and one SVD per row."""
    power = np.eye(Tc.shape[0], dtype=complex)
    bounds = []
    for _ in range(n_max):
        bounds.append(float(np.linalg.norm(power, 2)) * scale)
        power = power @ Tc
    return bounds


@pytest.mark.parametrize("n_max", [1, 2, 12])
@pytest.mark.parametrize("d, k", [(3, 8), (5, 6)])
def test_decay_bounds_equal_norm_power_formula(d, k, n_max):
    st = random_fcs_state(d, k, np.random.default_rng(200 + d + k))
    Sz = build_spin_rep(d).Sz
    cert = decay_certificate(st, Sz, Sz, n_max)
    assert not cert.selfadjoint
    t = build_transfer(st)
    a, b = transfer._insertions(st, t, Sz, Sz)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    assert [row.bound for row in cert.rows] == _norm_power_bounds(t.centered(), scale, n_max)
