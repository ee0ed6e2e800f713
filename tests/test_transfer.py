"""Transfer operator spectra, two-point functions, decay certificates."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.optimize import linear_sum_assignment

from fcspin import (
    FcsState,
    aklt_kraus,
    aklt_state,
    build_spin_rep,
    build_transfer,
    build_twist,
    covariant_kraus,
    covariant_state,
    decay_certificate,
    direct_sum,
    fixed_point,
    gap,
    gauge_transform,
    modular_data,
    product_state,
    random_fcs_state,
    random_unital_kraus,
    theorem_audit,
    two_point,
)
from fcspin import cli, fcs, transfer
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
    assert t.selfadjoint_defect <= 1e-9
    rep = gap(t)
    assert max(abs(lam.imag) for lam in rep.eigenvalues) < 1e-8


def test_generic_family_not_selfadjoint():
    st = random_fcs_state(3, 3, np.random.default_rng(23))
    assert build_transfer(st).selfadjoint_defect > 1e-3


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
        raise AssertionError("the Hermitian-basis transfer matrix was built again")

    def counted(rho):
        roots.append(rho.shape)
        return real_roots(rho)

    monkeypatch.setattr(fcs, "_hermitian_transfer", refuse)
    monkeypatch.setattr(transfer, "_hermitian_transfer", refuse)
    monkeypatch.setattr(transfer, "_rho_roots", counted)
    Sz = build_spin_rep(3).Sz
    assert decay_certificate(st, Sz, Sz, 10).passed
    assert roots == [(4, 4)]


def _reference_correlations(st, A, B, n_max):
    """omega(A at 0, B at n) - omega(A) omega(B) for n = 1..n_max in plain
    coordinates: X = sum B_ce v_c v_e*, Z = sum A_ab v_b* rho v_a, and
    omega(A theta^n(B)) = tr(Z E^(n-1)(X)) with E(X) = sum_i v_i X v_i*."""
    V = st.kraus.v
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


@pytest.mark.parametrize("n_max", [1, 2, 12, 200])
@pytest.mark.parametrize("d, k", [(3, 8), (5, 6), (2, 3), (7, 8)])
def test_decay_bounds_equal_norm_power_formula(d, k, n_max):
    # the bound equals the norm-power formula at row 1, where T_c^0 = I, and
    # dominates it beyond: min(1, C r^(n-1)) bounds ||T_c^(n-1)|| at every n
    st = random_fcs_state(d, k, np.random.default_rng(200 + d + k))
    Sz = build_spin_rep(d).Sz
    cert = decay_certificate(st, Sz, Sz, n_max)
    assert not cert.selfadjoint
    t = build_transfer(st)
    a, b = transfer._insertions(st, t, Sz, Sz)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    assert cert.rows[0].bound == scale
    reference = _norm_power_bounds(t.centered(), scale, n_max)
    for row, ref in zip(cert.rows, reference):
        assert ref * (1 - 1e-12) <= row.bound <= scale


# ---- the Stein bound ---------------------------------------------------------------

def _strict_contraction(n, rng):
    """A random complex n x n matrix of spectral norm 0.9, not normal."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.9 * z / np.linalg.norm(z, 2)


STEIN_OPERANDS = {
    **{f"family-d{d}-k{k}": (lambda d=d, k=k: build_transfer(
        random_fcs_state(d, k, np.random.default_rng(41 + d + k))).centered())
       for d, k in ((2, 3), (3, 8), (5, 6), (7, 8))},
    **{f"contraction-{n}": (lambda n=n: _strict_contraction(n, np.random.default_rng(n)))
       for n in (2, 9, 30)},
}


@pytest.mark.parametrize("name", STEIN_OPERANDS)
def test_stein_bound_solves_the_stein_equation(monkeypatch, name):
    Tc = STEIN_OPERANDS[name]()
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(X):
        seen.append(X)
        return eigvalsh(X)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    constant, rate = transfer._stein_bound(Tc)
    assert rate < 1 and constant >= 1
    (X,) = seen
    residual = X - Tc.conj().T @ X @ Tc - np.eye(len(Tc))
    assert np.linalg.norm(residual) < 1e-13
    power = np.eye(len(Tc))
    for n in range(60):
        assert np.linalg.norm(power, 2) <= constant * rate ** n * (1 + 1e-12)
        power = power @ Tc


def test_stein_bound_refuses_spectral_radius_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transfer._stein_bound(np.diag([-1.0, 0.5]).astype(complex)) == (1.0, 1.0)


def test_stein_bound_converges_on_nilpotent():
    N = np.diag(np.full(4, 0.8 + 0.3j), 1)
    constant, rate = transfer._stein_bound(N)
    assert rate < 1 and constant >= 1
    assert np.linalg.norm(N, 2) <= constant * rate * (1 + 1e-12)


def test_decay_certificate_runs_no_svd_and_one_eigvalsh(monkeypatch):
    st = random_fcs_state(3, 8, np.random.default_rng(9))
    build_transfer(st).selfadjoint_defect
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran")

    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    # norm(x, 2) calls the svd of its own module, not np.linalg.svd
    norm = getattr(np.linalg.norm, "_implementation", np.linalg.norm)
    monkeypatch.setitem(norm.__globals__, "svd", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(st, Sz, Sz, 12)
    assert not cert.selfadjoint and cert.passed
    assert calls == [(64, 64)]


# ---- certificate input checks ------------------------------------------------

@pytest.mark.parametrize("n_max", [0, -1])
def test_decay_certificate_refuses_empty_range(n_max):
    Sz = build_spin_rep(3).Sz
    with pytest.raises(ValueError, match="n_max"):
        decay_certificate(aklt_state(), Sz, Sz, n_max)


@pytest.mark.parametrize("name", ["A", "B"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decay_certificate_refuses_non_finite_observable(name, bad):
    Sz = build_spin_rep(3).Sz
    X = Sz.astype(complex)
    X[1, 2] = bad
    obs = {"A": Sz, "B": Sz, name: X}
    with pytest.raises(ValueError, match=f"observable {name}"):
        decay_certificate(aklt_state(), obs["A"], obs["B"], 5)


@pytest.mark.parametrize("name", ["A", "B"])
@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (9,)])
def test_decay_certificate_refuses_observable_of_wrong_shape(name, shape):
    Sz = build_spin_rep(3).Sz
    obs = {"A": Sz, "B": Sz, name: np.ones(shape)}
    with pytest.raises(ValueError, match=f"observable {name}"):
        decay_certificate(aklt_state(), obs["A"], obs["B"], 5)


def test_non_finite_correlation_is_a_violation(monkeypatch):
    monkeypatch.setattr(transfer, "_correlations",
                        lambda Tc, a, b, n_max: [complex(math.nan)] * n_max)
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(aklt_state(), Sz, Sz, 4)
    assert cert.verdict == "fail"
    assert cert.reason == "bound violated at n = [1, 2, 3, 4]"


def test_non_finite_bound_is_a_violation(monkeypatch):
    real_gap = transfer.gap
    monkeypatch.setattr(transfer, "gap", lambda t, tol: dataclasses.replace(
        real_gap(t, tol), delta=math.nan))
    Sz = build_spin_rep(3).Sz
    cert = decay_certificate(aklt_state(), Sz, Sz, 4)
    assert cert.selfadjoint and math.isnan(cert.rows[1].bound)
    assert cert.verdict == "fail"
    assert cert.reason == "bound violated at n = [2, 3, 4]"


# ---- a state is a value: its transfer data is computed once --------------------

def _haar(k, rng):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


MEMO_STATES = {
    "covariant": lambda: covariant_state(2, Fraction(3, 2)),
    "gauged": lambda: gauge_transform(covariant_state(1, 1),
                                      _haar(3, np.random.default_rng(4))),
    "random": lambda: random_fcs_state(3, 4, np.random.default_rng(8)),
    "direct-sum": lambda: fixed_point(direct_sum(aklt_kraus(), covariant_kraus(1, 1))),
    # one eigenvalue 1 - 1.1e-4: fixed at tol 1e-2, not at tol 1e-9
    "near-degenerate": lambda: _blend(direct_sum(aklt_kraus(), covariant_kraus(1, 1)),
                                      random_unital_kraus(3, 5, np.random.default_rng(6)),
                                      1e-2),
}


def _cold_copy(st):
    """A fresh state built from copies of st's arrays.  np.copy keeps each
    array's memory order; BLAS may round a transposed layout differently."""
    return FcsState(KrausFamily(tuple(np.copy(v) for v in st.kraus.v)), np.copy(st.rho))


def _every_answer(st):
    rep = build_spin_rep(st.d)
    t = build_transfer(st)
    return (gap(t, 1e-9), gap(t, 1e-2),
            decay_certificate(st, rep.Sz, rep.Sx, 12),
            decay_certificate(st, rep.Sz, rep.Sz, 12, tol=1e-2),
            modular_data(st),
            theorem_audit(st, rep, build_twist(rep)))


@pytest.mark.parametrize("name", MEMO_STATES)
def test_warm_state_answers_equal_cold_state(name):
    warm = MEMO_STATES[name]()
    # fill the memo at the loose tol first: nothing it keeps may depend on tol
    Sz = build_spin_rep(warm.d).Sz
    gap(build_transfer(warm), 1e-2)
    decay_certificate(warm, Sz, Sz, 3, tol=1e-2)
    got = _every_answer(warm)
    assert build_transfer(warm) is build_transfer(warm)
    want = _every_answer(_cold_copy(warm))
    for g, w in zip(got[:-1], want[:-1]):
        assert g == w
    # verdicts compare by identity, so the audits are compared clause by clause
    audits = [(a.delta, [(kind, v.name, v.status, v.defect, v.tol, cli._note(v))
                         for kind, verdicts in (("hypothesis", a.hypotheses),
                                                ("conclusion", a.conclusions))
                         for v in verdicts])
              for a in (got[-1], want[-1])]
    assert audits[0] == audits[1]
    if name == "near-degenerate":
        assert got[0].fixed_multiplicity == 1 and got[1].fixed_multiplicity == 2


@pytest.mark.parametrize("make", [MEMO_STATES["covariant"], MEMO_STATES["random"]],
                         ids=["covariant", "random"])
def test_state_runs_one_eigensolve_and_one_root(monkeypatch, make):
    st = make()
    rep = build_spin_rep(st.d)
    eigs, roots = [], []
    real_eigvals, real_roots = np.linalg.eigvals, fcs._rho_roots

    def counted_eigvals(a):
        eigs.append(a.shape)
        return real_eigvals(a)

    def counted_roots(rho):
        roots.append(rho.shape)
        return real_roots(rho)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(fcs, "_rho_roots", counted_roots)
    monkeypatch.setattr(transfer, "_rho_roots", counted_roots)
    gap(build_transfer(st))
    decay_certificate(st, rep.Sz, rep.Sz, 12)
    theorem_audit(st, rep, build_twist(rep))
    assert eigs == [(st.k ** 2, st.k ** 2)]
    assert roots == [(st.k, st.k)]


def test_hermitian_transfer_built_once_per_state(monkeypatch):
    fam = random_unital_kraus(3, 4, np.random.default_rng(9))
    solved = fixed_point(fam)
    made = FcsState(fam, solved.rho)
    calls = []
    real = transfer._hermitian_transfer

    def counted(kraus):
        calls.append(kraus.k)
        return real(kraus)

    monkeypatch.setattr(transfer, "_hermitian_transfer", counted)
    # fixed_point kept the matrix it solved with
    gap(build_transfer(solved))
    assert calls == []
    gap(build_transfer(made))
    gap(build_transfer(made), 1e-2)
    assert calls == [4]
    assert np.array_equal(build_transfer(made).tau, build_transfer(solved).tau)


def test_state_arrays_are_read_only():
    st = random_fcs_state(3, 3, np.random.default_rng(12))
    t = build_transfer(st)
    for arr in (st.rho, st.kraus.v[1], t.matrix, t.sqrt_rho, t.tau, t.spectrum):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 0


def test_state_copies_the_callers_arrays():
    st = random_fcs_state(2, 3, np.random.default_rng(13))
    v = [m.copy() for m in st.kraus.v]
    rho = st.rho.copy()
    own = FcsState(KrausFamily(tuple(v)), rho)
    v[0] *= 2
    rho *= 2
    assert np.array_equal(own.kraus.v[0], st.kraus.v[0])
    assert np.array_equal(own.rho, st.rho)


def test_derived_states_get_their_own_memo():
    rng = np.random.default_rng(14)
    st = random_fcs_state(3, 3, rng)
    other = random_fcs_state(3, 3, rng)
    t = build_transfer(st)
    derived = [
        gauge_transform(st, _haar(3, rng)),
        dataclasses.replace(st),
        dataclasses.replace(st, kraus=other.kraus, rho=other.rho),
    ]
    for new in derived:
        assert build_transfer(new) is not t
    assert gap(build_transfer(derived[0])).delta == pytest.approx(gap(t).delta, abs=1e-12)
    assert np.array_equal(build_transfer(derived[1]).matrix, t.matrix)
    assert np.array_equal(build_transfer(derived[2]).matrix,
                          build_transfer(other).matrix)


def _einsum_insertions(state, t, A, B):
    """The insertion vectors by the four- and three-operand einsum formulas
    that _insertions replaced with block products."""
    V = state.kraus.v
    rho = state.rho
    sigma_A = np.einsum("ij,jba,bc,icd->ad", A, V.conj(), rho, V, optimize=True)
    xB = np.einsum("ij,iab,jcb->ac", B, V, V.conj(), optimize=True)
    sigma_Ac = sigma_A - np.trace(sigma_A) * rho
    xBc = xB - np.trace(rho @ xB) * np.eye(state.k)
    return (sigma_Ac.conj().T @ t.inv_sqrt_rho).reshape(-1), (xBc @ t.sqrt_rho).reshape(-1)


@pytest.mark.parametrize("st", [
    aklt_state(),
    gauge_transform(covariant_state(2, Fraction(7, 2)), _haar(8, np.random.default_rng(8))),
    random_fcs_state(3, 8, np.random.default_rng(0)),
    random_fcs_state(5, 6, np.random.default_rng(0)),
], ids=["aklt", "cov-2-7/2-gauge", "random-d3-k8", "random-d5-k6"])
def test_insertions_match_einsum_formulas(st):
    rep = build_spin_rep(st.d)
    rng = np.random.default_rng(st.d * st.k)
    # Sz is diagonal and would not catch a swapped index; A != B below would
    A, B = (rng.normal(size=(st.d, st.d)) + 1j * rng.normal(size=(st.d, st.d))
            for _ in range(2))
    t = build_transfer(st)
    for X, Y in [*((S, S) for S in rep.generators()), (rep.Sx, rep.Sy), (A, B)]:
        got = transfer._insertions(st, t, X, Y)
        want = _einsum_insertions(st, t, X, Y)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-13 * max(np.linalg.norm(w), 1e-300)


def test_transfer_operator_equality_is_identity():
    st = aklt_state()
    t = build_transfer(st)
    other = transfer._transfer_operator(st)
    assert t == t and t != other
    assert hash(t) == hash(t)
    assert len({t, other}) == 2


# ---- the spectrum in real arithmetic ----------------------------------------------

def _matched_gap(a, b):
    """The largest |a_i - b_j| over the pairs of the matching of the
    multisets a and b with the least total distance."""
    dist = np.abs(np.subtract.outer(a, b))
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def _reference_gap(w, tol):
    """Fixed multiplicity and delta of eigenvalues w by the rule of gap."""
    fixed = int(np.sum(np.abs(w - 1.0) <= tol))
    rest = np.delete(w, np.argmin(np.abs(w - 1.0)))
    return max(fixed, 1), 1.0 if fixed > 1 else min(float(np.abs(rest).max(initial=0.0)), 1.0)


SPECTRUM_STATES = {
    **MEMO_STATES,
    "aklt": aklt_state,
    "covariant-d7": lambda: covariant_state(3, Fraction(7, 2)),
    **{f"random-d{d}-k{k}-{seed}": (lambda d=d, k=k, seed=seed:
                                    random_fcs_state(d, k, np.random.default_rng(seed)))
       for d, k in ((2, 2), (3, 3), (2, 5), (3, 8), (5, 6)) for seed in (0, 1)},
}


@pytest.mark.parametrize("name", SPECTRUM_STATES)
def test_spectrum_matches_complex_eigvals(name):
    st = SPECTRUM_STATES[name]()
    t = build_transfer(st)
    w, ref = t.spectrum, np.linalg.eigvals(t.matrix)
    assert w.shape == ref.shape
    assert _matched_gap(w, ref) <= 1e-12
    for tol in (1e-9, 1e-2):
        rep = gap(t, tol)
        fixed, delta = _reference_gap(ref, tol)
        assert rep.fixed_multiplicity == fixed
        assert abs(rep.delta - delta) <= 1e-12


@pytest.mark.parametrize("name", SPECTRUM_STATES)
def test_gns_matrix_is_the_kron_sum(name):
    st = SPECTRUM_STATES[name]()
    t = build_transfer(st)
    sq, inv_sq = t.sqrt_rho, t.inv_sqrt_rho
    ref = sum(np.kron(v, (sq @ v @ inv_sq).conj()) for v in st.kraus.v)
    assert np.abs(t.matrix - ref).max() <= 1e-14


@pytest.mark.parametrize("name", SPECTRUM_STATES)
def test_spectrum_is_closed_under_conjugation(name):
    # the eigenvalues of a real matrix: real ones exactly real, the others
    # in exact conjugate pairs
    w = build_transfer(SPECTRUM_STATES[name]()).spectrum
    assert sorted(w, key=lambda z: (z.real, z.imag)) == \
        sorted(w.conj(), key=lambda z: (z.real, z.imag))


def test_spectrum_runs_one_real_eigvals(monkeypatch):
    t = build_transfer(random_fcs_state(3, 4, np.random.default_rng(9)))
    dtypes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        dtypes.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    t.spectrum
    assert dtypes == [np.dtype(float)]


GAUGE_STATES = ("covariant", "aklt", "covariant-d7", "random-d3-k3-0",
                "random-d2-k5-1", "random-d3-k8-0")


@settings(max_examples=30, deadline=None)
@given(name=st_.sampled_from(GAUGE_STATES), seed=st_.integers(0, 2 ** 32 - 1))
def test_spectrum_bond_gauge_invariant(name, seed):
    st = SPECTRUM_STATES[name]()
    moved = gauge_transform(st, _haar(st.k, np.random.default_rng(seed)))
    base, gauged = gap(build_transfer(st)), gap(build_transfer(moved))
    assert _matched_gap(np.array(base.eigenvalues), np.array(gauged.eigenvalues)) <= 1e-12
    assert gauged.fixed_multiplicity == base.fixed_multiplicity
    assert abs(gauged.delta - base.delta) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(name=st_.sampled_from(GAUGE_STATES), seed=st_.integers(0, 2 ** 32 - 1))
def test_decay_rate_and_constant_bond_gauge_invariant(name, seed):
    st = SPECTRUM_STATES[name]()
    moved = gauge_transform(st, _haar(st.k, np.random.default_rng(seed)))
    Sz = build_spin_rep(st.d).Sz
    base, gauged = (decay_certificate(x, Sz, Sz, 2) for x in (st, moved))
    assert gauged.selfadjoint == base.selfadjoint
    assert gauged.rate == pytest.approx(base.rate, rel=1e-9)
    assert gauged.constant == pytest.approx(base.constant, rel=1e-9)
