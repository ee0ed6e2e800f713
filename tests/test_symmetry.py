"""Finite-window symmetry checks and the composite audit."""

import re
from fractions import Fraction
from functools import partial
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from fcspin import (
    KrausFamily,
    TwistMatrix,
    aklt_kraus,
    aklt_state,
    build_spin_rep,
    build_twist,
    check_kraus_twist_relation,
    check_lattice_twist,
    check_real,
    check_reflection_positive,
    check_su2,
    covariant_kraus,
    covariant_state,
    direct_sum,
    dump_state,
    find_intertwiner,
    fixed_point,
    gauge_transform,
    load_state,
    product_state,
    random_fcs_state,
    theorem_audit,
)
from fcspin import cli, fcs, symmetry, transfer
from fcspin.errors import ResourceLimitError
from fcspin.symmetry import (
    _TWIST_CLUSTER,
    _hermitian_part,
    _polar_unitary,
    _twist_combination,
    _twist_residual,
)
from fcspin.chains import build_chain, ground, rp_gram_check
from fcspin.fcs import window_expectations
from fcspin.su2 import random_group_elements


@pytest.fixture(scope="module")
def aklt():
    return aklt_state()


@pytest.fixture(scope="module")
def rep3():
    return build_spin_rep(3)


@pytest.fixture(scope="module")
def twist3(rep3):
    return build_twist(rep3)


def test_real_aklt(aklt):
    v = check_real(aklt, 3)
    assert v.passed
    assert v.defect < 1e-12


def test_real_complex_product_fails():
    st = product_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    v = check_real(st, 2)
    assert not v.passed
    # omega(|e1><e2|) = i/2 while its transpose value is -i/2
    assert abs(v.defect - 1.0) < 1e-12


def test_lattice_twist_aklt(aklt, twist3):
    assert check_lattice_twist(aklt, twist3, 3).passed


def test_lattice_twist_generic_fails(twist3):
    st = random_fcs_state(3, 3, np.random.default_rng(2))
    assert not check_lattice_twist(st, twist3, 2).passed


def test_lattice_twist_invalid_twist(aklt):
    with pytest.raises(ValueError):
        check_lattice_twist(aklt, np.diag([1.0, 2.0, 0.5]), 2)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_twist_refused(bad, aklt, rep3):
    # abs(NaN) > 1e-10 is False, so only an explicit test keeps NaN out
    r0 = np.full((3, 3), float(bad))
    calls = [
        lambda: check_lattice_twist(aklt, r0, 2),
        lambda: check_reflection_positive(aklt, r0, 2),
        lambda: check_kraus_twist_relation(aklt, r0),
        lambda: theorem_audit(aklt, rep3, r0),
        lambda: check_lattice_twist(aklt, TwistMatrix(r0), 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="twist has a non-finite entry"):
            call()


# squares to I exactly, but is not unitary
_NOT_UNITARY = np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("r0, message", [
    (np.diag([1.0, 2.0, 0.5]), "twist does not square to the identity"),
    (_NOT_UNITARY, "twist is not unitary"),
    (np.full((2, 2), np.nan), re.escape("twist has shape (2, 2), expected (3, 3)")),
])
def test_invalid_twist_refused_by_every_consumer(r0, message, aklt, rep3):
    chain = build_chain(3, 2)
    calls = [
        lambda: check_lattice_twist(aklt, r0, 2),
        lambda: check_reflection_positive(aklt, r0, 2),
        lambda: check_kraus_twist_relation(aklt, r0),
        lambda: theorem_audit(aklt, rep3, r0),
        lambda: rp_gram_check(chain, ground(chain).vectors[:, 0], r0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_generic_involution_is_a_twist_without_real_form(aklt):
    # a unitary involution with conj(r0) != +-r0: the window checks take
    # it, the Kraus relation, which needs the real form, refuses it
    a = np.exp(1j * np.pi / 4)
    r0 = np.array([[0.0, a, 0.0], [np.conj(a), 0.0, 0.0], [0.0, 0.0, 1.0]])
    for twist in (r0, TwistMatrix(r0)):
        assert check_lattice_twist(aklt, twist, 2).status in ("pass", "fail")
        assert check_reflection_positive(aklt, twist, 2).status in ("pass", "fail")
        with pytest.raises(ValueError, match="conj\\(r0\\) is not a real sign times r0"):
            check_kraus_twist_relation(aklt, twist)


def test_reflection_positive_aklt(aklt, twist3):
    v = check_reflection_positive(aklt, twist3, 2)
    assert v.passed
    assert v.details["herm_defect"] < 1e-12
    assert v.details["min_eig"] > -1e-12


def test_reflection_positive_window_zero(aklt, twist3):
    # the general path: one empty product, so the 1 x 1 Gram form is tr rho
    v = check_reflection_positive(aklt, twist3, 0)
    assert v.passed
    assert abs(v.details["min_eig"] - 1.0) <= 1e-12


_WINDOW_CALLS = {
    "real": lambda st, rep, tw, m: check_real(st, m),
    "lattice-twist": lambda st, rep, tw, m: check_lattice_twist(st, tw, m),
    "reflection-positive": lambda st, rep, tw, m: check_reflection_positive(st, tw, m),
    "su2": lambda st, rep, tw, m: check_su2(st, rep, m),
}


@pytest.mark.parametrize("call", list(_WINDOW_CALLS))
def test_negative_window_refused(call, aklt, rep3, twist3):
    # a negative window has no sub-windows, so it would pass vacuously
    with pytest.raises(ValueError, match="window length"):
        _WINDOW_CALLS[call](aklt, rep3, twist3, -1)
    v = _WINDOW_CALLS[call](aklt, rep3, twist3, 0)
    assert v.passed and v.defect == 0.0


def test_windowed_checks_form_no_kronecker_product(aklt, rep3, twist3, monkeypatch):
    # one-site operators act on the window tensor site by site
    def kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", kron)
    assert check_su2(aklt, rep3, 3).passed
    assert check_lattice_twist(aklt, twist3, 3).passed
    assert check_reflection_positive(aklt, twist3, 3).passed


def test_reflection_positive_product_with_fixed_vector(twist3):
    # r0 conj(xi) = xi for xi = (e1 + e3)/sqrt(2) at d = 3
    xi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    st = product_state(xi)
    v = check_reflection_positive(st, twist3, 2)
    assert v.passed


def test_reflection_positive_refused_by_window_cap(aklt, twist3, monkeypatch):
    # the bond-space factor A has D^2 k^2 = 81 * 4 = 324 entries at m = 2,
    # above a cap of 100
    monkeypatch.setattr(fcs, "MAX_WINDOW_ENTRIES", 100)
    with pytest.raises(ResourceLimitError, match="324 entries, over the cap of 100"):
        check_reflection_positive(aklt, twist3, 2)


def test_reflection_positive_default_cap_refuses_d7_k8_length_3():
    # A has 7^6 * 8^2 = 7529536 entries at m = 3, over the default 4000000
    st = covariant_state(3, Fraction(7, 2))
    assert st.k == 8
    with pytest.raises(ResourceLimitError, match="over the cap of 4000000"):
        check_reflection_positive(st, _twist_for(st), 3)


def test_su2_aklt(aklt, rep3):
    v = check_su2(aklt, rep3, 2)
    assert v.passed
    assert v.defect < 1e-10


def test_su2_one_site_law(rep3):
    st = covariant_state(1, 2)
    assert check_su2(st, rep3, 2).passed
    W1 = window_expectations(st, 1)
    assert np.abs(W1 - np.eye(3) / 3).max() < 1e-12


def test_su2_product_d2_fails():
    rep = build_spin_rep(2)
    st = product_state(np.array([1.0, 0.0]))
    assert not check_su2(st, rep, 1).passed


def test_symmetry_verdict_equality_is_identity(aklt, twist3):
    v = check_kraus_twist_relation(aklt, twist3)
    other = check_kraus_twist_relation(aklt, twist3)
    assert v == v and v != other
    assert hash(v) == hash(v)
    assert len({v, other}) == 2


def test_intertwiner_report_equality_is_identity(aklt, rep3):
    r = find_intertwiner(aklt, rep3)
    other = find_intertwiner(aklt, rep3)
    assert r == r and r != other
    assert hash(r) == hash(r)
    assert len({r, other}) == 2


def test_su2_dimension_mismatch(aklt):
    with pytest.raises(ValueError):
        check_su2(aklt, build_spin_rep(2), 1)


def test_su2_old_sample_count_signature_raises(aklt, rep3):
    # check_su2(state, rep, samples, m) would otherwise read m = 6, tol = 2
    with pytest.raises(TypeError):
        check_su2(aklt, rep3, 6, 2)


def test_su2_details_per_length_and_axis(aklt, rep3):
    v = check_su2(aklt, rep3, 2)
    assert set(v.details) == {(length, a) for length in (1, 2) for a in "xyz"}


# ---- dense Kronecker references of the site-wise checks --------------------------

def _site_reversal_perm(d, m):
    """Permutation sending a base-d multi-index to its site reversal."""
    idx = np.arange(d ** m).reshape((d,) * m)
    return idx.transpose(tuple(reversed(range(m)))).reshape(-1)


def _kron_power(a, m):
    out = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        out = np.kron(out, a)
    return out


def _reflect_twist_matrix(r0, m):
    """Matrix of site reversal followed by the per-site twist on C^(d^m)."""
    d = r0.shape[0]
    return _kron_power(r0, m)[:, _site_reversal_perm(d, m)]


def _dense_lattice_twist_details(state, r0, m):
    details = {}
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        RP = _reflect_twist_matrix(r0, length)
        details[length] = float(np.abs(RP.T @ W @ RP.conj() - W).max())
    return details


def _dense_su2_details(state, rep, m):
    details = {}
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        for label, S in zip("xyz", rep.generators()):
            A = sum(
                np.kron(np.kron(np.eye(rep.d ** p), S),
                        np.eye(rep.d ** (length - 1 - p)))
                for p in range(length)
            )
            details[(length, label)] = float(np.abs(A.T @ W - W @ A.conj()).max())
    return details


def _bundled(name):
    text = resources.files("fcspin.data").joinpath(name).read_text()
    return load_state(text)[1]


_ORACLE_FAMILIES = {
    "cov(1,1/2)": lambda: covariant_state(1, Fraction(1, 2)),
    "cov(2,7/2)": lambda: covariant_state(2, Fraction(7, 2)),
    "cov(1,1/2)-gauge": lambda: _with_gauge(covariant_state(1, Fraction(1, 2)), 41),
    "cov(2,7/2)-gauge": lambda: _with_gauge(covariant_state(2, Fraction(7, 2)), 42),
    "product_d2": lambda: _bundled("product_d2.kraus"),
    "product_complex_d2": lambda: _bundled("product_complex_d2.kraus"),
    "neg(2,3)": lambda: random_fcs_state(2, 3, np.random.default_rng(43)),
    "neg(3,8)": lambda: random_fcs_state(3, 8, np.random.default_rng(44)),
    "neg(5,6)": lambda: random_fcs_state(5, 6, np.random.default_rng(45)),
}


def _generic_involution(d, rng):
    """A Hermitian unitary involution with conj(r0) != +-r0, which tells
    r0 from conj(r0)."""
    u = _haar_unitary(d, rng)
    return u @ np.diag([1.0] + [-1.0] * (d - 1)) @ u.conj().T


def _assert_details_match(got, want):
    assert set(got) == set(want)
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-13, key


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", list(_ORACLE_FAMILIES))
def test_site_wise_checks_match_dense_kronecker_reference(family, m):
    st = _ORACLE_FAMILIES[family]()
    rep = build_spin_rep(st.d)
    _assert_details_match(check_su2(st, rep, m).details, _dense_su2_details(st, rep, m))
    generic = _generic_involution(st.d, np.random.default_rng(m))
    for r0 in (build_twist(rep).r0, generic):
        _assert_details_match(check_lattice_twist(st, r0, m).details,
                              _dense_lattice_twist_details(st, r0, m))


@pytest.mark.parametrize("gauge", [False, True], ids=["plain", "gauge"])
def test_site_wise_checks_match_dense_reference_d7(gauge):
    st = covariant_state(3, Fraction(7, 2))
    if gauge:
        st = _with_gauge(st, 77)
    rep = build_spin_rep(st.d)
    r0 = build_twist(rep).r0
    _assert_details_match(check_su2(st, rep, 3).details, _dense_su2_details(st, rep, 3))
    _assert_details_match(check_lattice_twist(st, r0, 3).details,
                          _dense_lattice_twist_details(st, r0, 3))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", list(_ORACLE_FAMILIES))
def test_windowed_checks_act_at_row_sites_only(family, m, monkeypatch):
    st = _ORACLE_FAMILIES[family]()
    rep = build_spin_rep(st.d)
    r0 = build_twist(rep).r0
    calls = []
    at_site = symmetry._at_site

    def spy(W, op, p):
        length = round(np.log(W.shape[0]) / np.log(st.d))
        assert W.shape == (st.d ** length,) * 2
        calls.append((length, p))
        return at_site(W, op, p)

    monkeypatch.setattr(symmetry, "_at_site", spy)
    check_su2(st, rep, m)
    # 3 axes, one pass per row site, at each length
    assert sorted(calls) == sorted((l, p) for l in range(1, m + 1)
                                   for p in range(l) for _ in range(3))
    calls.clear()
    check_lattice_twist(st, r0, m)
    assert sorted(calls) == sorted((l, p) for l in range(1, m + 1)
                                   for p in range(l) for _ in range(2))
    calls.clear()
    theorem_audit(st, rep, r0, windows=m)
    assert len(calls) == 5 * m * (m + 1) // 2
    assert all(p < length for length, p in calls)


@pytest.mark.parametrize("family", list(_ORACLE_FAMILIES))
def test_su2_generator_defect_bounds_group_samples(family):
    # Along g_t = exp(i t theta.S) the derivative of U^T W conj(U) is U^T C
    # conj(U) with C = i sum_a theta_a (A_a^T W - W conj(A_a)), so the sampled
    # defect is at most |C|_2 <= D |C|_max <= |theta| sqrt(3) D eps_m.
    st = _ORACLE_FAMILIES[family]()
    rep = build_spin_rep(st.d)
    rng = np.random.default_rng(2024)
    for m in (1, 2):
        W = window_expectations(st, m)
        v = check_su2(st, rep, m)
        eps = max(v.details[(m, a)] for a in "xyz")
        for g in random_group_elements(rep, 20, rng):
            U = _kron_power(g.u, m)
            sampled = float(np.abs(U.T @ W @ U.conj() - W).max())
            bound = np.linalg.norm(g.theta) * np.sqrt(3) * st.d ** m * eps
            assert sampled <= bound + 1e-12


def test_kraus_twist_aklt(aklt, twist3):
    v = check_kraus_twist_relation(aklt, twist3)
    assert v.passed
    assert v.defect < 1e-10
    assert abs(abs(v.details["phase"]) - 1) < 1e-12


def test_kraus_twist_gauge_robust(aklt, twist3):
    rng = np.random.default_rng(8)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(z)
    assert check_kraus_twist_relation(gauge_transform(aklt, q), twist3).passed


def test_kraus_twist_trivial_scalar():
    st = product_state(np.array([1.0]))
    tw = build_twist(build_spin_rep(1))
    assert check_kraus_twist_relation(st, tw).passed


def test_kraus_twist_generic_fails(twist3):
    st = random_fcs_state(3, 3, np.random.default_rng(1))
    v = check_kraus_twist_relation(st, twist3)
    assert v.status == "fail"
    assert v.defect > 1e-3


def test_intertwiner_aklt(aklt, rep3):
    report = find_intertwiner(aklt, rep3)
    assert report.passed
    assert report.defect < 1e-9
    # the exponentiated covariance sum_j u(g)_ji v_j = U_g v_i U_g*
    V = aklt.kraus.v
    for g in random_group_elements(rep3, 6, np.random.default_rng(7)):
        Ug = expm(1j * sum(t * X for t, X in zip(g.theta, report.details["generators"])))
        lhs = np.einsum("ji,jab->iab", g.u, V)
        rhs = np.stack([Ug @ v @ Ug.conj().T for v in V])
        assert np.abs(lhs - rhs).max() < 1e-9
    Xx, Xy, Xz = report.details["generators"]
    # the bond generators form a spin-1/2 triple (up to gauge and sign)
    comm = Xx @ Xy - Xy @ Xx
    assert np.abs(comm - 1j * Xz).max() < 1e-8 or np.abs(comm + 1j * Xz).max() < 1e-8
    casimir = Xx @ Xx + Xy @ Xy + Xz @ Xz
    assert np.abs(casimir - 0.75 * np.eye(2)).max() < 1e-8


def test_intertwiner_trivial():
    st = product_state(np.array([1.0]))
    report = find_intertwiner(st, build_spin_rep(1))
    assert report.defect < 1e-12
    assert np.abs(report.details["generators"][0]).max() < 1e-12


def test_intertwiner_breaking_state(rep3):
    st = random_fcs_state(3, 3, np.random.default_rng(4))
    report = find_intertwiner(st, rep3)
    assert report.defect > 1e-3


def _intertwiner_per_axis(st, rep):
    """The generators by one least-squares solve per axis."""
    k, eye = st.k, np.eye(st.k)
    Vdag = np.stack([v.conj().T for v in st.kraus.v])
    A = np.vstack([np.kron(eye, Vd.T) - np.kron(Vd, eye) for Vd in Vdag])
    gens = []
    for S in rep.generators():
        b = np.concatenate([-np.einsum("j,jab->ab", S[i], Vdag).reshape(-1)
                            for i in range(st.d)])
        X = np.linalg.lstsq(A, b, rcond=None)[0].reshape(k, k)
        X = X - (np.trace(X) / k) * eye
        gens.append((X + X.conj().T) / 2)
    return gens


@pytest.mark.parametrize("s, j", [(1, Fraction(1, 2)), (2, Fraction(3, 2)),
                                  (3, Fraction(7, 2)), (None, None)])
def test_intertwiner_solves_the_three_axes_at_once(s, j, monkeypatch):
    st = (covariant_state(s, j) if s is not None
          else random_fcs_state(3, 3, np.random.default_rng(4)))
    rep = build_spin_rep(st.d)
    want = _intertwiner_per_axis(st, rep)
    calls = []
    real = np.linalg.lstsq

    def counted(a, b, **kwargs):
        calls.append(b.shape)
        return real(a, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    got = find_intertwiner(st, rep).details["generators"]
    assert calls == [(st.d * st.k ** 2, 3)]
    assert max(np.abs(g - w).max() for g, w in zip(got, want)) <= 1e-12


def test_intertwiner_mismatched_rep_refused(aklt):
    with pytest.raises(ValueError,
                       match="representation dimension 2 != physical dimension 3"):
        find_intertwiner(aklt, build_spin_rep(2))


def test_theorem_audit_aklt(aklt, rep3, twist3):
    report = theorem_audit(aklt, rep3, twist3)
    assert report.all_pass
    assert abs(report.delta - 1 / 3) < 1e-10
    names = [c.name for c in report.clauses]
    assert names == [
        "real", "lattice-twist", "reflection-positive", "su2-invariant",
        "modular-trivial", "ergodic", "transfer-selfadjoint",
        "twist-adjoint-relation", "exponential-decay",
    ]


def test_theorem_audit_options_are_keyword_only(aklt, rep3, twist3):
    # an old positional rng must not land in a parameter of the audit
    with pytest.raises(TypeError):
        theorem_audit(aklt, rep3, twist3, 2, 1e-8, np.random.default_rng(0))


def test_theorem_audit_builds_transfer_once(aklt, rep3, twist3, monkeypatch):
    calls = {"build_transfer": 0, "gap": 0}
    for name in calls:
        real = getattr(transfer, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(transfer, name, counted)
        monkeypatch.setattr(symmetry, name, counted, raising=False)
    report = theorem_audit(aklt, rep3, twist3)
    assert report.all_pass
    assert calls == {"build_transfer": 1, "gap": 1}


@pytest.mark.parametrize("windows", [1, 2, 3])
def test_theorem_audit_builds_each_window_once(windows, aklt, rep3, twist3, monkeypatch):
    lengths = []
    real = fcs.window_expectations

    def counted(state, m):
        lengths.append(m)
        return real(state, m)

    monkeypatch.setattr(fcs, "window_expectations", counted)
    monkeypatch.setattr(symmetry, "window_expectations", counted)
    theorem_audit(aklt, rep3, twist3, windows=windows)
    assert lengths == list(range(1, windows + 1))


_WINDOWED_CLAUSES = ("real", "lattice-twist", "su2-invariant")


@pytest.mark.parametrize("windows", [1, 2, 3])
@pytest.mark.parametrize("family", ["cov(1,1/2)-gauge", "cov(2,7/2)-gauge",
                                    "product_complex_d2", "neg(2,3)", "neg(3,8)"])
def test_theorem_audit_windowed_clauses_equal_the_checks(family, windows):
    st = _ORACLE_FAMILIES[family]()
    rep = build_spin_rep(st.d)
    tw = build_twist(rep)
    clauses = {c.name: c for c in theorem_audit(st, rep, tw, windows, tol=1e-8).clauses}
    checks = (check_real(st, windows, 1e-8), check_lattice_twist(st, tw, windows, 1e-8),
              check_su2(st, rep, windows, tol=1e-8))
    assert tuple(v.name for v in checks) == _WINDOWED_CLAUSES
    for v in checks:
        assert (clauses[v.name].status, clauses[v.name].defect) == (v.status, v.defect)


def test_theorem_audit_refuses_a_rep_of_the_wrong_dimension(aklt, twist3, monkeypatch):
    def refuse(state, m):
        raise AssertionError("a window was built")

    monkeypatch.setattr(symmetry, "window_expectations", refuse)
    with pytest.raises(ValueError,
                       match="representation dimension 2 != physical dimension 3"):
        theorem_audit(aklt, build_spin_rep(2), twist3)


@pytest.mark.parametrize("p, tol, mult", [
    (1e-7, 1e-6, 4),     # every eigenvalue is within tol of 1
    (5e-10, 1e-12, 1),   # only the cyclic one is
])
def test_theorem_audit_counts_fixed_space_at_its_tol(p, tol, mult, rep3, twist3):
    # (sqrt(1-p) I, sqrt(p/2) X, sqrt(p/2) Z): transfer eigenvalues 1, 1-p,
    # 1-p, 1-2p, which 1e-9 counts as 1 fixed point at p = 1e-7 and as 3
    # at p = 5e-10
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    fam = KrausFamily((np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 2) * X,
                       np.sqrt(p / 2) * Z))
    st = fcs.FcsState(kraus=fam, rho=np.eye(2) / 2)
    clauses = {c.name: c for c in theorem_audit(st, rep3, twist3, tol=tol).clauses}
    assert clauses["ergodic"].defect == mult
    assert clauses["ergodic"].status == ("pass" if mult == 1 else "fail")
    decay = clauses["exponential-decay"]
    if mult == 1:
        assert decay.status == "pass" and abs(decay.defect - (1 - p)) <= 1e-15
    else:
        assert decay.status == "fail" and "degenerate" in decay.details["reason"]


def _clause_fields(report):
    """Kind, name, status, defect, tol and printed note of every clause."""
    return [(kind, v.name, v.status, v.defect, v.tol, cli._note(v))
            for kind, verdicts in (("hypothesis", report.hypotheses),
                                   ("conclusion", report.conclusions))
            for v in verdicts]


def test_theorem_audit_of_a_round_trip_is_bit_identical(rep3, twist3):
    # random_unital_kraus hands over transposed (Fortran-order) views and a
    # .kraus file reads back C-ordered matrices; the audit must not tell them
    # apart
    st = random_fcs_state(3, 4, np.random.default_rng(8))
    loaded = load_state(dump_state(st))[1]
    assert _clause_fields(theorem_audit(st, rep3, twist3)) == \
        _clause_fields(theorem_audit(loaded, rep3, twist3))


def _covariant(s, j, seed=None):
    st = covariant_state(s, j)
    return st if seed is None else _with_gauge(st, seed)


def _negative(d, k):
    return random_fcs_state(d, k, np.random.default_rng(d * k))


_THRESHOLD_FAMILIES = {
    **{f"bundled:{name}": partial(_bundled, f"{name}.kraus") for name in (
        "aklt", "product_d2", "product_complex_d2", "random_unital_d3")},
    **{f"cov({s},{j}){tag}": partial(_covariant, s, j, seed)
       for s, j in ((1, Fraction(1, 2)), (2, Fraction(3, 2)), (3, Fraction(7, 2)))
       for tag, seed in (("", None), ("-gauge", 91))},
    **{f"neg({d},{k})": partial(_negative, d, k) for d, k in ((2, 3), (3, 4), (5, 2))},
}
# the clauses _verdict decides, and the threshold each carries as its tol
# (in units of the audit tol, ergodic's absolute)
_VERDICT_THRESHOLDS = {"real": 1, "lattice-twist": 1, "su2-invariant": 1,
                       "modular-trivial": 10, "transfer-selfadjoint": 10}


@pytest.mark.parametrize("family", list(_THRESHOLD_FAMILIES))
def test_audit_clauses_carry_the_threshold_they_are_decided_against(family):
    st = _THRESHOLD_FAMILIES[family]()
    rep = build_spin_rep(st.d)
    tol = 1e-8
    report = theorem_audit(st, rep, build_twist(rep), tol=tol)
    clauses = {v.name: v for v in report.clauses}
    g = transfer.gap(transfer.build_transfer(st), tol)
    assert clauses["modular-trivial"].defect == fcs.modular_data(st).delta_defect
    assert clauses["transfer-selfadjoint"].defect == g.selfadjoint_defect
    assert clauses["ergodic"].defect == g.fixed_multiplicity
    assert clauses["ergodic"].tol == 1.0
    for name, factor in _VERDICT_THRESHOLDS.items():
        assert clauses[name].tol == factor * tol
    for name in (*_VERDICT_THRESHOLDS, "ergodic"):
        v = clauses[name]
        assert v.passed == (np.isfinite(v.defect) and v.defect <= v.tol)
        assert v.status == ("pass" if v.passed else "fail")
    for name in ("reflection-positive", "twist-adjoint-relation", "exponential-decay"):
        assert clauses[name].tol == tol


@pytest.mark.parametrize("defect", [np.nan, np.inf, -np.inf])
def test_a_non_finite_defect_fails(defect, aklt, rep3, twist3, monkeypatch):
    assert fcs._verdict("x", 0, defect, 1.0).status == "fail"
    monkeypatch.setattr(symmetry, "modular_data", lambda st: fcs.ModularData(defect))
    clause = theorem_audit(aklt, rep3, twist3).conclusions[0]
    assert clause.name == "modular-trivial"
    assert clause.status == "fail" and not np.isfinite(clause.defect)


def test_theorem_audit_generic_fails(rep3, twist3):
    st = random_fcs_state(3, 3, np.random.default_rng(6))
    report = theorem_audit(st, rep3, twist3)
    assert not report.all_pass


@pytest.mark.parametrize("windows", [0, -1])
def test_theorem_audit_needs_a_window(windows, rep3, twist3):
    # with no window every hypothesis loop is empty and would pass unchecked
    st = random_fcs_state(3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="window length"):
        theorem_audit(st, rep3, twist3, windows=windows)


def test_verdict_monotone_in_tol(aklt, twist3):
    st = random_fcs_state(3, 3, np.random.default_rng(12))
    loose = check_lattice_twist(st, twist3, 2, tol=1e6)
    assert loose.passed  # pass at any tolerance above the defect
    tight = check_lattice_twist(st, twist3, 2, tol=1e-12)
    assert tight.defect == loose.defect


_TOL_CALLS = {
    "real": lambda st, rep, tw, tol: check_real(st, 2, tol),
    "lattice-twist": lambda st, rep, tw, tol: check_lattice_twist(st, tw, 2, tol),
    "reflection-positive": lambda st, rep, tw, tol: check_reflection_positive(st, tw, 2, tol),
    "su2": lambda st, rep, tw, tol: check_su2(st, rep, 2, tol=tol),
    "twist-relation": lambda st, rep, tw, tol: check_kraus_twist_relation(st, tw, tol),
    "intertwiner": lambda st, rep, tw, tol: find_intertwiner(st, rep, tol),
    "decay": lambda st, rep, tw, tol: transfer.decay_certificate(st, rep.Sz, rep.Sz, 12, tol),
    "audit": lambda st, rep, tw, tol: theorem_audit(st, rep, tw, 2, tol=tol),
}


@pytest.mark.parametrize("call", list(_TOL_CALLS))
@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_tolerance_must_be_finite_positive(call, tol, rep3, twist3):
    # an infinite tol passes every defect, and a NaN one fails every comparison
    st = random_fcs_state(3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="tolerance"):
        _TOL_CALLS[call](st, rep3, twist3, tol)


# ---- NaN-safe verdicts ---------------------------------------------------------

def _nan_at_length_two(monkeypatch):
    real = symmetry.window_expectations

    def patched(state, length):
        W = real(state, length).copy()
        if length == 2:
            W[0, 0] = np.nan
        return W

    monkeypatch.setattr(symmetry, "window_expectations", patched)


def _outcome(v):
    return [(v.status, v.defect)]


def _audit_windowed_outcomes(st, rep, tw):
    return [(c.status, c.defect) for c in theorem_audit(st, rep, tw, 2).clauses
            if c.name in _WINDOWED_CLAUSES]


@pytest.mark.parametrize("check", [
    lambda st, rep, tw: _outcome(check_real(st, 2)),
    lambda st, rep, tw: _outcome(check_lattice_twist(st, tw, 2)),
    lambda st, rep, tw: _outcome(check_su2(st, rep, 2)),
    _audit_windowed_outcomes,
], ids=["real", "lattice-twist", "su2", "audit"])
def test_nan_window_defect_never_passes(check, aklt, rep3, twist3, monkeypatch):
    _nan_at_length_two(monkeypatch)
    outcomes = check(aklt, rep3, twist3)
    assert len(outcomes) in (1, len(_WINDOWED_CLAUSES))
    for status, defect in outcomes:
        assert status == "fail"
        assert np.isnan(defect)


def test_kraus_twist_nan_residual_never_passes(aklt, twist3, monkeypatch):
    monkeypatch.setattr(symmetry, "_twist_residual",
                        lambda W, C, targets: (float("nan"), 1.0 + 0j))
    v = check_kraus_twist_relation(aklt, twist3)
    assert v.status == "fail"
    assert np.isnan(v.defect)


# ---- the direct solve of the twisted-adjoint relation ---------------------------

def _haar_unitary(k, rng):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _perturbed_covariant(s, j, eps, rng):
    """Covariant family plus eps-sized noise, made unital again by QR."""
    V = covariant_kraus(s, j).v
    V = V + eps * (rng.normal(size=V.shape) + 1j * rng.normal(size=V.shape))
    iso = np.concatenate([v.conj().T for v in V])  # rows of the v_i*
    q, r = np.linalg.qr(iso)
    q = q * np.sign(np.diag(r).real)
    k = V.shape[1]
    return fixed_point(KrausFamily(tuple(b.conj().T for b in q.reshape(-1, k, k))))


def _with_gauge(st, seed):
    return gauge_transform(st, _haar_unitary(st.k, np.random.default_rng(seed)))


def _twist_for(st):
    return build_twist(build_spin_rep(st.d))


NEAR_THRESHOLD = [(1, Fraction(1, 2)), (1, Fraction(3, 2)), (2, 2)]
RANDOM_NEGATIVES = [(3, 2), (3, 3), (3, 8), (5, 6), (5, 8), (7, 8)]  # (d, k)


@pytest.mark.parametrize("eps", [1e-7, 1e-5])
@pytest.mark.parametrize("s, j", NEAR_THRESHOLD)
def test_kraus_twist_near_threshold_indeterminate(s, j, eps):
    # sigma_max(Q) keeps every unitary 2e-7 to 3.2e-5 away, so at tol 1e-8
    # the fail is certified; a tol between that bound and the witness defect
    # leaves the relation undecided
    st = _perturbed_covariant(s, j, eps, np.random.default_rng(17))
    tw = _twist_for(st)
    v = check_kraus_twist_relation(st, tw)
    assert v.status == "fail"
    assert 1e-8 < v.details["lower_bound"] < v.defect
    tol = float(np.sqrt(v.details["lower_bound"] * v.defect))
    between = check_kraus_twist_relation(st, tw, tol)
    assert between.status == "indeterminate"
    assert between.details["lower_bound"] <= tol < between.defect


def _direct_sums():
    pairs = [(aklt_kraus(), aklt_kraus()),
             (covariant_kraus(1, Fraction(1, 2)), covariant_kraus(1, 1))]
    out = []
    for a, b in pairs:
        st = fixed_point(direct_sum(a, b))
        out += [st, _with_gauge(st, 3)]
    return out


@pytest.mark.parametrize("st", _direct_sums(),
                         ids=["aklt+aklt", "aklt+aklt-gauge",
                              "cov+cov", "cov+cov-gauge"])
def test_kraus_twist_direct_sums_pass(st):
    tw = _twist_for(st)
    v = check_kraus_twist_relation(st, tw)
    assert v.passed
    assert np.array_equal(v.details["gauge"], np.eye(st.k))
    # the witness route, which the check skips here for the closed form,
    # meets the degenerate top eigenspace of a direct sum and still passes
    W, defect, _, multiplicity = _witness(st, tw)
    assert defect <= 1e-8 and multiplicity > 1
    assert np.abs(W @ W.conj().T - np.eye(st.k)).max() < 1e-12


def _swapped_twist_pair(rng):
    """A (+) B for a Haar mixture A_i = sqrt(p_i) U_i at d = k = 3 and
    B_i = c_i(A)*, with c_i = sum_j r[j, i] A_j for the spin twist's real
    form r.  A is unital and trace preserving and r is a real orthogonal
    involution, so B is unital and c_i(B) = A_i*: the swap of the two
    blocks is a gauge W with v_i* = W c_i W*, and it is not a scalar."""
    d = k = 3
    p = rng.dirichlet(np.ones(d))
    A = KrausFamily(tuple(np.sqrt(x) * _haar_unitary(k, rng) for x in p))
    r = _twist_for(A).real_form
    B = KrausFamily(tuple(c.conj().T for c in _twist_combination(A, r)))
    return fixed_point(direct_sum(A, B))


@pytest.mark.parametrize("gauge", [None, 2])
def test_kraus_twist_passes_with_a_gauge_that_is_not_a_scalar(gauge):
    st = _swapped_twist_pair(np.random.default_rng(0))
    if gauge is not None:
        st = _with_gauge(st, gauge)
    twist = _twist_for(st)
    v = check_kraus_twist_relation(st, twist)
    assert v.passed and v.defect <= 1e-13
    W, k = v.details["gauge"], st.k
    # W is no multiple of I in any gauge, since W moves to G W G*
    assert np.linalg.norm(W - np.trace(W) / k * np.eye(k), 2) >= 0.5
    if gauge is None:
        h = k // 2
        assert max(np.abs(W[:h, :h]).max(), np.abs(W[h:, h:]).max()) <= 1e-12
    # so the W = I closed form misses this pass
    C = _twist_combination(st.kraus, twist.real_form)
    targets = st.kraus.v.conj().transpose(0, 2, 1)
    assert _twist_residual(np.eye(k), C, targets)[0] >= 1.0
    # the family is outside the theorem: every hypothesis and ergodicity fail
    audit = theorem_audit(st, build_spin_rep(st.d), twist)
    assert all(h.status == "fail" for h in audit.hypotheses)
    assert next(c for c in audit.conclusions if c.name == "ergodic").status == "fail"


@pytest.mark.parametrize("phi, status", [(1e-4, "indeterminate"), (0.1, "indeterminate")])
def test_kraus_twist_direct_sum_mismatched_phases(phi, status):
    # e^{i phi} on the second summand moves its phase to -e^{-2i phi}: no
    # single phase fits both blocks, the best joint gauge misses by ~phi.
    # Q still has the eigenvalue 1 of each block, so sigma_max(Q) = 1 and no
    # bound applies: the relation stays undecided however far the witness is
    b = KrausFamily(tuple(np.exp(1j * phi) * v for v in covariant_kraus(1, 1).v))
    st = _with_gauge(fixed_point(direct_sum(covariant_kraus(1, Fraction(1, 2)), b)), 5)
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.status == status
    assert 0.5 * phi <= v.defect <= 2 * phi
    assert v.details["lower_bound"] == 0.0


@pytest.mark.parametrize("d, k", RANDOM_NEGATIVES)
def test_kraus_twist_random_negatives_certified(d, k):
    for seed in range(3):
        st = random_fcs_state(d, k, np.random.default_rng(seed))
        v = check_kraus_twist_relation(st, _twist_for(st))
        assert v.status == "fail"
        # no unitary gauge and phase come within 1e-3: the fail is a certificate
        assert 1e-3 <= v.details["lower_bound"] <= v.defect


def _gauge_property_families():
    fams = [covariant_state(s, j) for s, j in
            ((1, Fraction(1, 2)), (1, 2), (2, Fraction(3, 2)), (3, Fraction(7, 2)))]
    fams += [random_fcs_state(d, k, np.random.default_rng(40 + d))
             for d, k in ((3, 2), (3, 4), (5, 3))]
    return fams


GAUGE_FAMILIES = _gauge_property_families()


@settings(max_examples=30, deadline=None)
@given(index=st_.integers(0, len(GAUGE_FAMILIES) - 1),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_kraus_twist_bond_gauge_invariant(index, seed):
    fam = GAUGE_FAMILIES[index]
    tw = _twist_for(fam)
    base = check_kraus_twist_relation(fam, tw)
    moved = check_kraus_twist_relation(_with_gauge(fam, seed), tw)
    assert moved.status == base.status
    assert abs(moved.defect - base.defect) <= 1e-9
    assert moved.details["lower_bound"] <= moved.defect
    # W moves to G W G*, so the four covariant families keep their
    # closed-form pass in every bond gauge
    if index < 4:
        assert base.details["multiplicity"] is moved.details["multiplicity"] is None
        assert np.array_equal(moved.details["gauge"], np.eye(fam.k))


def test_kraus_twist_bare_matrix_is_its_own_twist():
    # the spin-1/2 irrep twist fails on the up-spin product state, but a
    # bare sigma_z is a twist in its own right and must not be replaced by it
    st = product_state(np.array([1.0, 0.0]))
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    wrapped = TwistMatrix(sigma_z)
    assert check_kraus_twist_relation(st, wrapped).status == "pass"
    bare = check_kraus_twist_relation(st, sigma_z)
    assert bare.status == "pass"
    assert bare.defect == 0.0
    assert check_kraus_twist_relation(st, build_twist(build_spin_rep(2))).status == "fail"


@pytest.mark.parametrize("st", [
    aklt_state(),
    covariant_state(2, Fraction(1)),
    random_fcs_state(2, 3, np.random.default_rng(3)),
], ids=["aklt", "cov-2-1", "random-d2-k3"])
def test_kraus_twist_bare_spin_twist_agrees(st):
    tw = build_twist(build_spin_rep(st.d))
    wrapped = check_kraus_twist_relation(st, tw)
    bare = check_kraus_twist_relation(st, tw.r0)
    assert bare.status == wrapped.status
    assert abs(bare.defect - wrapped.defect) <= 1e-12


def test_kraus_twist_bare_matrix_without_real_form_refused():
    # a unitary involution whose conjugate is not +-itself has no real form
    a = np.exp(1j * np.pi / 4)
    r0 = np.array([[0.0, a], [np.conj(a), 0.0]])
    st = product_state(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        check_kraus_twist_relation(st, r0)
    with pytest.raises(ValueError):
        check_kraus_twist_relation(st, np.diag([1.0, 1.0, -1.0]))


# ---- the interval rule, with the grid-first solve as the reference ----------------

# Points of the reference's full-circle phase grid, and its ascent's rounds.
_TWIST_GRID = 64
_TWIST_ASCENT_ROUNDS = 20


def _twist_setup(state, twist):
    """V, the combinations c_i and Q, built as the check builds them."""
    d, k = state.d, state.k
    V = state.kraus.v
    C = _twist_combination(state.kraus, TwistMatrix.of(twist, d).real_form)
    # Q[(b, a), (c, e)] = sum_i v_i[b, c] c_i[e, a], so <vec W, Q vec W> =
    # sum_i tr(W* v_i W c_i) for row-major vec
    Q = np.einsum("ibc,iea->bace", V, C).reshape(k * k, k * k)
    return V, C, Q


def _reference_gauge(V, C, e, X, tol):
    """Gauge, defect, phase and top multiplicity from the eigendecomposition
    (e, X) the ascent ends at: the polar factor of the top vector, or of a
    fixed combination of the top eigenspace followed by one polar step."""
    k = V.shape[1]
    targets = V.conj().transpose(0, 2, 1)
    top = X[:, e >= e[-1] - _TWIST_CLUSTER]
    multiplicity = top.shape[1]
    x = top[:, -1]
    if multiplicity > 1:
        rng = np.random.default_rng(0)
        x = top @ (rng.normal(size=multiplicity) + 1j * rng.normal(size=multiplicity))
    W = _polar_unitary(x.reshape(k, k))
    defect, lam = _twist_residual(W, C, targets)
    if multiplicity > 1 and defect > tol:
        W_step = _polar_unitary(lam * np.einsum("iab,bc,icd->ad", V, W, C))
        step = _twist_residual(W_step, C, targets)
        if step[0] < defect:
            W, (defect, lam) = W_step, step
    return W, defect, lam, multiplicity


def _full_grid_maximum(Q):
    """The grid maximum and its angle by the loop over all 32 angles; the
    eigenvalues at theta also give the top one at theta + pi: -e[0]."""
    half = _TWIST_GRID // 2
    radius, theta = -np.inf, 0.0
    for n in range(half):
        e = np.linalg.eigvalsh(_hermitian_part(Q, np.pi * n / half))
        for val, angle in ((e[-1], np.pi * n / half), (-e[0], np.pi * (n / half + 1))):
            if val > radius:
                radius, theta = val, angle
    return radius, theta


def _ascent_step(Q, theta, e, X):
    """Step in theta toward a maximum of the top eigenvalue lam(theta) of
    Re(e^{i theta} Q), read off its eigendecomposition (e, X) at theta.

    With top vector x and z = e^{i theta} x* Q x, lam' = -Im z, and, as
    H'' = -H for H'(theta) = Re(i e^{i theta} Q),

        lam'' = -lam + 2 sum_{j != top} |x_j* H' x|^2 / (lam - lam_j).

    Where lam'' < 0 the step is Newton's, -lam' / lam'', cut to at most one
    grid spacing 2 pi / _TWIST_GRID: where lam'' nears 0 from below, as
    next to an avoided crossing or at a flat maximum, the full step could
    leave the basin of the grid maximum.  Elsewhere, as where two branches
    cross (direct sums), it is the fixed-point step -arg z, which fits the
    phase of x and never lowers lam.
    """
    x = X[:, -1]
    Qx = Q @ x
    u = np.exp(1j * theta)
    z = u * np.vdot(x, Qx)
    Hx = 0.5j * (u * Qx - u.conjugate() * (Q.conj().T @ x))  # H' x
    g = X[:, :-1].conj().T @ Hx
    # an exact crossing (lam_j = lam) gives inf or nan, hence the fallback
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curvature = -e[-1] + 2 * np.sum(np.abs(g) ** 2 / (e[-1] - e[:-1]))
    if curvature < 0:
        spacing = 2 * np.pi / _TWIST_GRID
        return min(max(z.imag / curvature, -spacing), spacing)
    return -np.angle(z)


def _twist_ascent(Q, theta, rounds):
    """Eigendecomposition of Re(e^{i theta} Q) after at most `rounds` of
    them, each followed by one _ascent_step from theta; the ascent stops
    once a step is at most 1e-13."""
    for n in range(rounds):
        e, X = np.linalg.eigh(_hermitian_part(Q, theta))
        if n + 1 == rounds:
            break
        step = _ascent_step(Q, theta, e, X)
        if abs(step) <= 1e-13:
            break
        theta += step
    return e, X


def _grid_first(state, twist, tol=1e-8, ascent=_twist_ascent):
    """Grid-first twist solve: the whole 64-point phase grid, then an ascent
    (the Newton one by default) from its maximum, then the polar gauge,
    decided by the interval rule with the grid's bound sqrt(2 (1 - w') / d),
    w' = grid maximum + pi / 64.  The verdict, the grid maximum and the top
    eigenvalue of Re(e^{i theta} Q) at the theta its gauge comes from."""
    V, C, Q = _twist_setup(state, twist)
    radius, theta = _full_grid_maximum(Q)
    d = state.d
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - radius - np.pi / _TWIST_GRID) / d)))
    e, X = ascent(Q, theta, _TWIST_ASCENT_ROUNDS)
    W, defect, lam, multiplicity = _reference_gauge(V, C, e, X, tol)
    return (symmetry._twist_verdict(W, defect, lam, multiplicity, lower_bound, tol),
            radius, e[-1])


def _grid_first_reference(state, twist, tol=1e-8):
    """The grid-first verdict, the reference for check_kraus_twist_relation."""
    return _grid_first(state, twist, tol)[0]


def _aitken_ascent(Q, theta, rounds):
    """The ascent by fixed-point steps with Aitken's acceleration: up to
    `rounds` rounds of two eigendecompositions each, the second one's
    eigenvectors unused."""
    def ascend(theta):
        """Eigenpairs at theta and the optimal phase of the top vector."""
        e, X = np.linalg.eigh(_hermitian_part(Q, theta))
        z = np.exp(1j * theta) * np.vdot(X[:, -1], Q @ X[:, -1])
        return e, X, theta - np.angle(z)

    # Each step theta -> theta - arg(e^{i theta} z) fits the phase of the
    # current top vector and never lowers the top eigenvalue.  The steps
    # shrink geometrically, so two of them give Aitken's estimate of the limit.
    for _ in range(rounds):
        e, X, t1 = ascend(theta)
        if abs(t1 - theta) <= 1e-13:
            break
        t2 = ascend(t1)[2]
        rate = (t2 - t1) / (t1 - theta)
        theta = t1 + (t2 - t1) / (1 - rate) if 0 < rate < 1 else t2
    return e, X


def _witness(st, tw, tol=1e-8):
    """Gauge, defect, phase and top multiplicity of the witness route of
    check_kraus_twist_relation on any family, the closed form skipped: the
    phase from the top eigenvector of Q* Q, one eigh of Re(e^{i theta} Q)."""
    V, C, Q = _twist_setup(st, tw)
    x = np.linalg.eigh(Q.conj().T @ Q)[1][:, -1]
    e, X = np.linalg.eigh(_hermitian_part(Q, -np.angle(np.vdot(x, Q @ x))))
    return symmetry._twist_gauge(V, C, e, X, tol)


def _sigma_bound(st, tw):
    """sqrt(2 (1 - sigma') / d) from an SVD of Q, sigma' = sqrt(sigma_max^2
    + _TWIST_GATE_SLACK k^2): no unitary and phase come closer."""
    Q = _twist_setup(st, tw)[2]
    top = np.linalg.svd(Q, compute_uv=False)[0]
    sigma = np.sqrt(top ** 2 + symmetry._TWIST_GATE_SLACK * st.k ** 2)
    return float(np.sqrt(max(0.0, 2 * (1 - sigma) / st.d)))


def _real_random_state(d, k, seed):
    """Random unital family with real matrices: with a spin twist Q is real,
    so the grid values at phi and -phi agree up to rounding."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d * k, k)))
    q = q * np.sign(np.diag(r))
    return fixed_point(KrausFamily(tuple(b.T for b in q.reshape(d, k, k))))


def _non_pass_families():
    fams = [random_fcs_state(d, k, np.random.default_rng(seed))
            for d, k in RANDOM_NEGATIVES for seed in range(3)]
    fams += [_perturbed_covariant(s, j, eps, np.random.default_rng(17))
             for s, j in NEAR_THRESHOLD for eps in (1e-7, 1e-5)]
    for phi in (1e-4, 0.1):
        b = KrausFamily(tuple(np.exp(1j * phi) * v for v in covariant_kraus(1, 1).v))
        fams.append(_with_gauge(
            fixed_point(direct_sum(covariant_kraus(1, Fraction(1, 2)), b)), 5))
    fams += [random_fcs_state(d, k, np.random.default_rng(seed))
             for d, k in ((2, 5), (7, 8)) for seed in (3, 4)]
    # an exact tie of the two directions of one eigensolve (pi/2 and 3pi/2),
    # and a mirror pair 2e-16 apart at 5pi/32 and -5pi/32
    fams += [_real_random_state(2, 5, 5), _real_random_state(5, 6, 2)]
    return fams


@pytest.mark.parametrize("st", _non_pass_families())
def test_kraus_twist_non_pass_equals_grid_first(st):
    # neither solve passes these at tol 1e-8, and each one's lower bound is
    # at most the other one's witness defect
    tw = _twist_for(st)
    ref = _grid_first_reference(st, tw)
    v = check_kraus_twist_relation(st, tw)
    assert ref.status != "pass" and v.status != "pass"
    assert v.details["lower_bound"] <= ref.defect
    assert ref.details["lower_bound"] <= v.defect


# Covariant families perturbed by 1e-3 to 1e-1: the sigma bound settles
# their fails within a factor 1.6-2.5 of the grid-first defect, so a bound
# inflated by 2 exceeds the defect on most of them.
SIGMA_FAMILIES = _non_pass_families() + [
    random_fcs_state(d, k, np.random.default_rng(seed))
    for d, k in RANDOM_NEGATIVES for seed in (5, 6, 7)] + [
    _perturbed_covariant(s, j, eps, np.random.default_rng(seed))
    for s, j in ((1, Fraction(1, 2)), (1, 1), (2, 1))
    for eps in (1e-3, 1e-2, 1e-1) for seed in range(3)]


def _count_calls(monkeypatch, name):
    """Shapes of the np.linalg.<name> calls made from here on."""
    calls, real = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("st", SIGMA_FAMILIES)
def test_kraus_twist_sigma_bound_settles_the_fail(st, monkeypatch):
    # wherever sigma_max(Q) alone keeps every unitary more than tol away,
    # the check fails with that bound, after two eigh (Q* Q and the
    # witness's) and no eigvalsh
    tw = _twist_for(st)
    ref = _grid_first_reference(st, tw)
    bound = _sigma_bound(st, tw)
    eigh = _count_calls(monkeypatch, "eigh")
    eigvalsh = _count_calls(monkeypatch, "eigvalsh")
    v = check_kraus_twist_relation(st, tw)
    assert ref.status != "pass" and v.status != "pass"
    assert len(eigh) == 2 and eigvalsh == []
    assert v.status == ("fail" if bound > 1e-8 else "indeterminate")
    assert v.details["lower_bound"] <= ref.defect
    # the bound's square, read off eigh rather than the SVD, to rounding
    assert abs(v.details["lower_bound"] ** 2 - bound ** 2) <= 1e-14


def test_kraus_twist_sigma_route_takes_every_random_family():
    # the sigma bound certifies the fail at tol 1e-8 on every family of
    # SIGMA_FAMILIES, the six near-threshold families at positions 18-23
    # included, except the two mismatched-phase direct sums at 24 and 25,
    # where w(Q) = 1
    settled = [_sigma_bound(st, _twist_for(st)) > 1e-8 for st in SIGMA_FAMILIES]
    assert settled == [n not in (24, 25) for n in range(len(SIGMA_FAMILIES))]


def _best_polished_defect(st, tw, rng, draws=200):
    """The smallest defect over `draws` Haar unitaries, each also after one
    polar step toward the optimum, as _twist_gauge takes it."""
    V, C, _ = _twist_setup(st, tw)
    targets = V.conj().transpose(0, 2, 1)
    best = np.inf
    for _ in range(draws):
        W = _haar_unitary(st.k, rng)
        defect, lam = _twist_residual(W, C, targets)
        W_step = _polar_unitary(lam * np.einsum("iab,bc,icd->ad", V, W, C))
        best = min(best, defect, _twist_residual(W_step, C, targets)[0])
    return best


@settings(max_examples=30, deadline=None)
@given(d=st_.sampled_from([2, 3, 5]), k=st_.integers(2, 5),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_kraus_twist_lower_bound_is_sound(d, k, seed):
    rng = np.random.default_rng(seed)
    st = _with_gauge(random_fcs_state(d, k, rng), seed)
    tw = _twist_for(st)
    v = check_kraus_twist_relation(st, tw)
    ref = _grid_first_reference(st, tw)
    assert v.status != "pass" and ref.status != "pass"
    assert v.details["lower_bound"] <= min(v.defect, ref.defect)
    assert v.details["lower_bound"] <= _best_polished_defect(st, tw, rng)
    # the check reports the sigma bound itself, which the comparisons above
    # cannot tell from one inflated by sqrt 2
    assert abs(v.details["lower_bound"] - _sigma_bound(st, tw)) <= 1e-12
    # at a tol the reference passes at, every lower bound is below tol, so
    # the check never fails there; it passes where its own witness does
    tol = 1.001 * ref.defect
    at = check_kraus_twist_relation(st, tw, tol)
    assert at.status == ("pass" if at.defect <= tol else "indeterminate")


def _best_known_defect(st, tol):
    """The smallest defect the check or the grid-first reference finds."""
    tw = _twist_for(st)
    return min(check_kraus_twist_relation(st, tw, tol).defect,
               _grid_first_reference(st, tw, tol).defect)


def _assert_interval_rule(v, tol):
    """pass iff defect <= tol; an indeterminate has lower_bound <= tol <
    defect; a fail has lower_bound > tol, since every defect here is
    finite."""
    lower, defect = v.details["lower_bound"], v.defect
    assert lower <= defect
    if v.status == "pass":
        assert defect <= tol
    elif v.status == "indeterminate":
        assert lower <= tol < defect
    else:
        assert v.status == "fail" and lower > tol


def _covariant_pairs():
    """(s, j) of every covariant family with integer s <= 3 and j <= 7/2."""
    return [(s, Fraction(two_j, 2)) for s in (1, 2, 3)
            for two_j in range(s, 8)]


def _pass_families():
    fams, ids = [], []
    for s, j in _covariant_pairs():
        st = covariant_state(s, j)
        fams += [st, _with_gauge(st, 11)]
        ids += [f"cov-{s}-{j}", f"cov-{s}-{j}-gauge"]
    return fams + _direct_sums(), ids + ["aklt+aklt", "aklt+aklt-gauge",
                                          "cov+cov", "cov+cov-gauge"]


PASS_FAMILIES, PASS_IDS = _pass_families()
# SIGMA_FAMILIES holds _non_pass_families(), so the random negatives of seeds
# 0-2, the near-threshold and the mismatched-phase families
INTERVAL_FAMILIES = SIGMA_FAMILIES + PASS_FAMILIES


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
@pytest.mark.parametrize("index", range(len(INTERVAL_FAMILIES)))
def test_kraus_twist_status_follows_the_interval_rule(index, tol):
    st = INTERVAL_FAMILIES[index]
    v = check_kraus_twist_relation(st, _twist_for(st), tol)
    _assert_interval_rule(v, tol)
    assert v.details["lower_bound"] <= _best_known_defect(st, tol)


@settings(max_examples=30, deadline=None)
@given(index=st_.integers(0, len(INTERVAL_FAMILIES) - 1),
       seed=st_.integers(0, 2 ** 32 - 1), tol=st_.sampled_from([1e-8, 1e-6]))
def test_kraus_twist_interval_rule_in_any_gauge(index, seed, tol):
    # the smallest defect and sigma_max(Q) are gauge invariant, so the
    # ungauged family's best-known defect bounds the gauged one's bound
    fam = INTERVAL_FAMILIES[index]
    v = check_kraus_twist_relation(_with_gauge(fam, seed), _twist_for(fam), tol)
    _assert_interval_rule(v, tol)
    assert v.details["lower_bound"] <= _best_known_defect(fam, tol)


@pytest.mark.parametrize("st", SIGMA_FAMILIES)
def test_kraus_twist_newton_ascent_agrees_with_aitken(st):
    # the two ascents of the references reach the same defect, so the
    # best-known defect is not one ascent's artefact
    tw = _twist_for(st)
    ref, radius, ref_top = _grid_first(st, tw, ascent=_aitken_ascent)
    v, _, top = _grid_first(st, tw)
    assert v.status == ref.status != "pass"
    for key in ("multiplicity", "lower_bound"):
        assert v.details[key] == ref.details[key]
    assert abs(v.defect - ref.defect) <= 1e-12
    assert top >= ref_top - 1e-13
    # the Newton steps never end the ascent below where it started, up to
    # the rounding of the two eigensolves (6e-16 at a radius of 1)
    assert top >= radius - 1e-13


def test_kraus_twist_newton_step_cut_to_grid_spacing(monkeypatch):
    # a flat maximum 0.056 from the grid maximum: the reference's first
    # Newton step, 0.22, overshoots past it and is cut to one grid spacing.
    # The full step takes 9 ascent steps and the fixed-point step, at 4e-4
    # per step, runs into the cap of 20 short of the maximum.  The eigh
    # calls are the ascent's.
    st = random_fcs_state(5, 2, np.random.default_rng(1041))
    tw = _twist_for(st)
    ref, radius, _ = _grid_first(st, tw, ascent=_aitken_ascent)
    calls = _count_calls(monkeypatch, "eigh")
    v, _, top = _grid_first(st, tw)
    assert v.status == ref.status == "fail"
    assert abs(v.defect - ref.defect) <= 1e-12
    assert top >= radius
    assert len(calls) <= 7


@pytest.mark.parametrize("d", [3, 5, 7])
def test_kraus_twist_eigensolves_per_random_negative(d, monkeypatch):
    # one eigh of Q* Q for the bound and the phase, one of Re(e^{i theta} Q)
    # for the witness, and no phase grid or ascent
    st = random_fcs_state(d, 8, np.random.default_rng(0))
    tw = _twist_for(st)
    eigh = _count_calls(monkeypatch, "eigh")
    eigvalsh = _count_calls(monkeypatch, "eigvalsh")
    v = check_kraus_twist_relation(st, tw)
    assert v.status == "fail"
    assert eigh == [(64, 64)] * 2 and eigvalsh == []


@pytest.mark.parametrize("st", PASS_FAMILIES, ids=PASS_IDS)
def test_kraus_twist_pass_agrees_with_grid_first(st):
    tw = _twist_for(st)
    ref = _grid_first_reference(st, tw)
    v = check_kraus_twist_relation(st, tw)
    assert ref.passed and v.passed
    assert abs(v.defect - ref.defect) <= 1e-12
    assert v.details["lower_bound"] == ref.details["lower_bound"] == 0.0


@pytest.mark.parametrize("st", PASS_FAMILIES, ids=PASS_IDS)
def test_kraus_twist_covariant_pass_skips_the_grid(st, monkeypatch):
    # the closed form W = I passes before any eigensolve of Q
    eigh = _count_calls(monkeypatch, "eigh")
    eigvalsh = _count_calls(monkeypatch, "eigvalsh")
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.passed
    assert eigh == eigvalsh == []
    assert np.array_equal(v.details["gauge"], np.eye(st.k))
    assert v.details["multiplicity"] is None
    assert v.details["lower_bound"] == 0.0


@pytest.mark.parametrize("s, j", [(1, Fraction(1, 2)), (2, Fraction(3, 2)),
                                  (2, Fraction(7, 2)), (3, 3)])
def test_kraus_twist_closed_form_passes_at_its_own_residual(s, j):
    # a tol just above the W = I residual passes by W = I: the screen on
    # ||V* - lam C||_F allows for the sqrt(d k) between the Frobenius norm of
    # the whole family and the largest spectral norm of one matrix
    st = _perturbed_covariant(s, j, 1e-5, np.random.default_rng(23))
    tw = _twist_for(st)
    C = _twist_combination(st.kraus, tw.real_form)
    residual = _twist_residual(np.eye(st.k), C, st.kraus.v.conj().transpose(0, 2, 1))[0]
    assert 1e-7 < residual < 1e-3
    v = check_kraus_twist_relation(st, tw, tol=residual * (1 + 1e-9))
    assert v.passed and v.defect == residual
    assert np.array_equal(v.details["gauge"], np.eye(st.k))
    assert v.details["multiplicity"] is None


GATE_FAMILIES = [("random", d, k) for d, k in ((2, 2), (3, 2), (3, 3), (5, 2))]
GATE_FAMILIES += [("perturbed", s, j) for s, j in
                  ((1, Fraction(1, 2)), (1, 1), (2, 1), (1, Fraction(3, 2)))]


@settings(max_examples=40, deadline=None)
@given(index=st_.integers(0, len(GATE_FAMILIES) - 1),
       eps=st_.sampled_from([1e-9, 1e-7, 1e-5]),
       seed=st_.integers(0, 2 ** 32 - 1),
       slack=st_.sampled_from([1.0, 1.001, 2.0, 100.0]))
# sigma_max(Q)^2 lands a rounding error below 1 - d tol^2 on these two
@example(index=4, eps=1e-9, seed=0, slack=1.0)
@example(index=7, eps=1e-9, seed=0, slack=1.0)
def test_kraus_twist_gate_never_routes_a_pass_around(index, eps, seed, slack):
    kind, a, b = GATE_FAMILIES[index]
    rng = np.random.default_rng(seed)
    st = (random_fcs_state(a, b, rng) if kind == "random"
          else _perturbed_covariant(a, b, eps, rng))
    tw = _twist_for(st)
    # tol at or just above the reference defect, so the reference passes
    tol = max(_grid_first_reference(st, tw).defect, 1e-15) * slack
    if not _grid_first_reference(st, tw, tol).passed:
        return
    # the bound, charged its rounding, never exceeds a defect the reference
    # reaches, so a family that can pass is never failed
    v = check_kraus_twist_relation(st, tw, tol)
    assert v.status in ("pass", "indeterminate")
    assert v.details["lower_bound"] <= tol


# ---- reflection positivity in bond space ----------------------------------------

def _dense_rp_reference(state, r0, m, tol=1e-9):
    """Min eigenvalue, Frobenius Hermiticity defect and status of the dense
    D^2 x D^2 Gram matrix, contracted from the length-2m window tensor."""
    D = state.d ** m
    Rr = _reflect_twist_matrix(r0, m)
    W = window_expectations(state, 2 * m)
    G = np.einsum("ia,jb,ixjy->abxy", Rr.conj(), Rr, W.reshape(D, D, D, D),
                  optimize=True).reshape(D * D, D * D)
    herm_defect = float(np.linalg.norm(G - G.conj().T))
    min_eig = float(np.linalg.eigvalsh((G + G.conj().T) / 2).min())
    passed = max(0.0, -min_eig) <= tol and herm_defect <= 100 * tol
    return min_eig, herm_defect, "pass" if passed else "fail"


def _rp_oracle_families():
    fams, ids = [], []
    for s, j in ((1, Fraction(1, 2)), (1, Fraction(7, 2)), (2, 1), (2, Fraction(7, 2))):
        st = covariant_state(s, j)
        fams += [(st, "pass"), (_with_gauge(st, 9), "pass")]
        ids += [f"cov-{s}-{j}", f"cov-{s}-{j}-gauge"]
    for d, k in ((2, 5), (3, 2), (3, 3), (3, 8), (5, 6)):
        fams.append((random_fcs_state(d, k, np.random.default_rng(60 + d + k)), "fail"))
        ids.append(f"neg-d{d}-k{k}")
    return fams, ids


RP_ORACLE_FAMILIES, RP_ORACLE_IDS = _rp_oracle_families()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("st, expected", RP_ORACLE_FAMILIES, ids=RP_ORACLE_IDS)
def test_reflection_positive_matches_dense_gram(st, expected, m):
    r0 = _twist_for(st).r0
    min_eig, herm_defect, status = _dense_rp_reference(st, r0, m)
    v = check_reflection_positive(st, r0, m)
    assert abs(v.details["min_eig"] - min_eig) <= 1e-12
    # relative, with a floor at roundoff for Hermitian Gram forms
    assert abs(v.details["herm_defect"] - herm_defect) <= 1e-12 * max(herm_defect, 0.1)
    assert v.status == status == expected


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["cov-1-1/2", "cov-2-7/2", "neg-d2-k5", "neg-d3-k8"])
def test_reflection_positive_generic_twist_matches_dense_gram(name, m):
    # a unitary involution with conj(r0) != +-r0 tells r0 from conj(r0)
    st = RP_ORACLE_FAMILIES[RP_ORACLE_IDS.index(name)][0]
    r0 = _generic_involution(st.d, np.random.default_rng(4))
    min_eig, herm_defect, status = _dense_rp_reference(st, r0, m)
    v = check_reflection_positive(st, r0, m)
    assert abs(v.details["min_eig"] - min_eig) <= 1e-12
    assert abs(v.details["herm_defect"] - herm_defect) <= 1e-12 * max(herm_defect, 0.1)
    assert v.status == status


def test_rp_verdict_counts_the_zero_mode():
    # a compressed form stands for a larger one whose complement is 0
    C = np.diag([2.0, 1.0]).astype(complex)
    assert symmetry._rp_gram_verdict([C], 1, 1e-9, zero_mode=False).details["min_eig"] == 1.0
    assert symmetry._rp_gram_verdict([C], 1, 1e-9, zero_mode=True).details["min_eig"] == 0.0


def _complex_rp_reference(state, r0, m, tol=1e-9):
    """Min eigenvalue, Frobenius Hermiticity defect and status of the same
    bond-space factorization in complex arithmetic: every row (a, b) of
    [A, B*], one complex QR, and C = R1 R2*."""
    d, k = state.d, state.k
    D = d ** m
    V = state.kraus.v
    M = fcs._products(np.einsum("ib,iqp->bpq", r0.conj(), V), m).transpose(0, 2, 1)
    L = fcs._products(V, m)
    A = np.matmul(M.conj().transpose(0, 2, 1)[None], (state.rho @ M)[:, None])
    Bh = np.matmul(L[None], L.conj().transpose(0, 2, 1)[:, None])
    R = np.linalg.qr(np.hstack([A.reshape(D * D, k * k), Bh.reshape(D * D, k * k)]),
                     mode="r")
    C = R[:, :k * k] @ R[:, k * k:].conj().T
    herm_defect = float(np.linalg.norm(C - C.conj().T))
    min_eig = float(np.linalg.eigvalsh((C + C.conj().T) / 2).min())
    if D * D > 2 * k * k:
        min_eig = min(min_eig, 0.0)
    passed = max(0.0, -min_eig) <= tol and herm_defect <= 100 * tol
    return min_eig, herm_defect, "pass" if passed else "fail"


def _rp_reference_families():
    fams = {f"cov-{s}-{j}-gauge": _with_gauge(covariant_state(s, j), 9)
            for s, j in ((1, Fraction(1, 2)), (1, Fraction(7, 2)), (2, 1),
                         (2, Fraction(7, 2)), (3, Fraction(3, 2)))}
    fams.update(zip(["aklt+aklt", "aklt+aklt-gauge", "cov+cov", "cov+cov-gauge"],
                    _direct_sums()))
    fams.update({f"neg-d{d}-k{k}": random_fcs_state(d, k, np.random.default_rng(60 + d + k))
                 for d, k in ((2, 5), (3, 2), (3, 3), (3, 8), (5, 6))})
    return fams


RP_REFERENCE_FAMILIES = _rp_reference_families()
# m = 3 runs where the factor A keeps to 10^6 entries, a quarter of the
# default cap, which keeps the two d = 7 factors (2 * 10^6) out of the suite
RP_REFERENCE_CASES = [(name, m) for name, st in RP_REFERENCE_FAMILIES.items()
                      for m in (1, 2, 3) if (st.d ** m * st.k) ** 2 <= 10 ** 6]


@pytest.mark.parametrize("name, m", RP_REFERENCE_CASES)
def test_reflection_positive_matches_complex_route(name, m):
    st = RP_REFERENCE_FAMILIES[name]
    r0 = _twist_for(st).r0
    min_eig, herm_defect, status = _complex_rp_reference(st, r0, m)
    v = check_reflection_positive(st, r0, m)
    assert abs(v.details["min_eig"] - min_eig) <= 1e-12
    assert abs(v.details["herm_defect"] - herm_defect) <= 1e-12
    assert v.status == status


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("eps", [1e-7, 1e-5])
@pytest.mark.parametrize("s, j", NEAR_THRESHOLD)
@pytest.mark.parametrize("m", [1, 2])
def test_reflection_positive_perturbed_matches_complex_route(s, j, eps, tol, m):
    # herm_defect is 3-9 eps: below 100 tol only at eps = 1e-7, tol = 1e-8
    st = _perturbed_covariant(s, j, eps, np.random.default_rng(17))
    r0 = _twist_for(st).r0
    min_eig, herm_defect, status = _complex_rp_reference(st, r0, m, tol)
    v = check_reflection_positive(st, r0, m, tol)
    assert abs(v.details["min_eig"] - min_eig) <= 1e-12
    assert abs(v.details["herm_defect"] - herm_defect) <= 1e-12
    assert v.status == status


def test_reflection_positive_runs_one_real_qr(monkeypatch):
    st = RP_REFERENCE_FAMILIES["cov-2-7/2-gauge"]
    dtypes = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        dtypes.append((a.shape, a.dtype))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    assert check_reflection_positive(st, _twist_for(st), 2).passed
    # D^2 = 625 rows, the k^2 = 64 coordinates of each half
    assert dtypes == [((625, 128), np.dtype(float))]


def test_reflection_positive_never_builds_a_window(aklt, twist3, monkeypatch):
    def refuse(state, length):
        raise AssertionError("window tensor built")

    monkeypatch.setattr(symmetry, "window_expectations", refuse)
    monkeypatch.setattr(fcs, "window_expectations", refuse)
    assert check_reflection_positive(aklt, twist3, 2).passed
    st = covariant_state(3, Fraction(3, 2))
    assert check_reflection_positive(st, _twist_for(st), 2).passed


@pytest.mark.parametrize("j", [Fraction(3, 2), Fraction(7, 2)])
def test_theorem_audit_d7_runs_at_defaults(j):
    st = covariant_state(3, j)
    rep = build_spin_rep(st.d)
    assert theorem_audit(st, rep, build_twist(rep)).all_pass


@settings(max_examples=30, deadline=None)
@given(index=st_.integers(0, len(GAUGE_FAMILIES) - 1),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_reflection_positive_bond_gauge_invariant(index, seed):
    fam = GAUGE_FAMILIES[index]
    tw = _twist_for(fam)
    base = check_reflection_positive(fam, tw, 2)
    moved = check_reflection_positive(_with_gauge(fam, seed), tw, 2)
    assert moved.status == base.status
    assert abs(moved.details["min_eig"] - base.details["min_eig"]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(index=st_.integers(0, len(GAUGE_FAMILIES) - 1),
       seed=st_.integers(0, 2 ** 32 - 1))
def test_windowed_checks_bond_gauge_invariant(index, seed):
    # window tensors are gauge invariant, so a gauge moves them by roundoff
    fam = GAUGE_FAMILIES[index]
    rep = build_spin_rep(fam.d)
    tw = build_twist(rep)
    moved = _with_gauge(fam, seed)
    for check in (lambda st: check_real(st, 2),
                  lambda st: check_lattice_twist(st, tw, 2),
                  lambda st: check_su2(st, rep, 2)):
        base, gauged = check(fam), check(moved)
        assert gauged.status == base.status
        assert set(gauged.details) == set(base.details)
        for key in base.details:
            assert abs(gauged.details[key] - base.details[key]) <= 1e-12
