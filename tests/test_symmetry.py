"""Finite-window symmetry checks and the composite audit."""

from fractions import Fraction
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
from fcspin import fcs, symmetry, transfer
from fcspin.errors import ResourceLimitError
from fcspin.symmetry import (
    _TWIST_ASCENT_ROUNDS,
    _TWIST_CLUSTER,
    _TWIST_GRID,
    SymmetryVerdict,
    _polar_unitary,
    _real_form,
    _twist_combination,
    _twist_residual,
)
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
        lambda: check_lattice_twist(
            aklt, TwistMatrix(d=3, r0=r0, zeta=1.0 + 0j, mu=1), 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="twist has a non-finite entry"):
            call()


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
    monkeypatch.setenv("FCS_MAX_DIM", "100")
    with pytest.raises(ResourceLimitError):
        check_reflection_positive(aklt, twist3, 2)


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
    assert report.found
    assert report.residual < 1e-9
    # the exponentiated covariance sum_j u(g)_ji v_j = U_g v_i U_g*
    V = aklt.kraus.stacked()
    for g in random_group_elements(rep3, 6, np.random.default_rng(7)):
        Ug = expm(1j * sum(t * X for t, X in zip(g.theta, report.generators)))
        lhs = np.einsum("ji,jab->iab", g.u, V)
        rhs = np.stack([Ug @ v @ Ug.conj().T for v in V])
        assert np.abs(lhs - rhs).max() < 1e-9
    Xx, Xy, Xz = report.generators
    # the bond generators form a spin-1/2 triple (up to gauge and sign)
    comm = Xx @ Xy - Xy @ Xx
    assert np.abs(comm - 1j * Xz).max() < 1e-8 or np.abs(comm + 1j * Xz).max() < 1e-8
    casimir = Xx @ Xx + Xy @ Xy + Xz @ Xz
    assert np.abs(casimir - 0.75 * np.eye(2)).max() < 1e-8


def test_intertwiner_trivial():
    st = product_state(np.array([1.0]))
    report = find_intertwiner(st, build_spin_rep(1))
    assert report.residual < 1e-12
    assert np.abs(report.generators[0]).max() < 1e-12


def test_intertwiner_breaking_state(rep3):
    st = random_fcs_state(3, 3, np.random.default_rng(4))
    report = find_intertwiner(st, rep3)
    assert report.residual > 1e-3


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
    assert clauses["ergodic"].value == mult
    assert clauses["ergodic"].status == ("pass" if mult == 1 else "fail")
    decay = clauses["exponential-decay"]
    if mult == 1:
        assert decay.status == "pass" and abs(decay.value - (1 - p)) <= 1e-15
    else:
        assert decay.status == "fail" and "degenerate" in decay.note


def test_theorem_audit_of_a_round_trip_is_bit_identical(rep3, twist3):
    # random_unital_kraus hands over transposed (Fortran-order) views and a
    # .kraus file reads back C-ordered matrices; the audit must not tell them
    # apart
    st = random_fcs_state(3, 4, np.random.default_rng(8))
    loaded = load_state(dump_state(st))[1]
    assert theorem_audit(st, rep3, twist3).clauses == \
        theorem_audit(loaded, rep3, twist3).clauses


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


@pytest.mark.parametrize("check", [
    lambda st, rep, tw: check_real(st, 2),
    lambda st, rep, tw: check_lattice_twist(st, tw, 2),
    lambda st, rep, tw: check_su2(st, rep, 2),
], ids=["real", "lattice-twist", "su2"])
def test_nan_window_defect_never_passes(check, aklt, rep3, twist3, monkeypatch):
    _nan_at_length_two(monkeypatch)
    v = check(aklt, rep3, twist3)
    assert v.status == "fail"
    assert np.isnan(v.defect)


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
    V = covariant_kraus(s, j).stacked()
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
    st = _perturbed_covariant(s, j, eps, np.random.default_rng(17))
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.status == "indeterminate"
    assert v.details["lower_bound"] <= v.defect


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
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.passed
    assert v.details["multiplicity"] > 1
    W = v.details["gauge"]
    assert np.abs(W @ W.conj().T - np.eye(st.k)).max() < 1e-12


@pytest.mark.parametrize("phi, status", [(1e-4, "indeterminate"), (0.1, "fail")])
def test_kraus_twist_direct_sum_mismatched_phases(phi, status):
    # e^{i phi} on the second summand moves its phase to -e^{-2i phi}: no
    # single phase fits both blocks, the best joint gauge misses by ~phi
    b = KrausFamily(tuple(np.exp(1j * phi) * v for v in covariant_kraus(1, 1).v))
    st = _with_gauge(fixed_point(direct_sum(covariant_kraus(1, Fraction(1, 2)), b)), 5)
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.status == status
    assert 0.5 * phi <= v.defect <= 2 * phi
    assert v.details["lower_bound"] <= v.defect


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


def test_kraus_twist_bare_matrix_is_its_own_twist():
    # the spin-1/2 irrep twist fails on the up-spin product state, but a
    # bare sigma_z is a twist in its own right and must not be replaced by it
    st = product_state(np.array([1.0, 0.0]))
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    wrapped = TwistMatrix(d=2, r0=sigma_z, zeta=1.0 + 0j, mu=1)
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


# ---- pass first, with the grid-first solve as the reference -----------------------

def _grid_first_reference(state, twist, tol=1e-8):
    """Grid-first twist solve, the reference for check_kraus_twist_relation:
    the 64-point phase grid, ascent from its maximum, then the polar gauge
    and its residual."""
    d, k = state.d, state.k
    V = state.kraus.stacked()
    targets = V.conj().transpose(0, 2, 1)
    C = _twist_combination(state.kraus, _real_form(twist, d))
    # Q[(b, a), (c, e)] = sum_i v_i[b, c] c_i[e, a], so <vec W, Q vec W> =
    # sum_i tr(W* v_i W c_i) for row-major vec
    Q = np.einsum("ibc,iea->bace", V, C).reshape(k * k, k * k)

    def hermitian_part(theta):
        A = np.exp(1j * theta) * Q
        return (A + A.conj().T) / 2

    # the eigenvalues at theta also give the top one at theta + pi: -e[0]
    half = _TWIST_GRID // 2
    radius, theta = -np.inf, 0.0
    for n in range(half):
        e = np.linalg.eigvalsh(hermitian_part(np.pi * n / half))
        for val, angle in ((e[-1], np.pi * n / half), (-e[0], np.pi * (n / half + 1))):
            if val > radius:
                radius, theta = val, angle
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - radius - np.pi / _TWIST_GRID) / d)))

    def ascend(theta):
        """Eigenpairs at theta and the optimal phase of the top vector."""
        e, X = np.linalg.eigh(hermitian_part(theta))
        z = np.exp(1j * theta) * np.vdot(X[:, -1], Q @ X[:, -1])
        return e, X, theta - np.angle(z)

    # Each step theta -> theta - arg(e^{i theta} z) fits the phase of the
    # current top vector and never lowers the top eigenvalue.  The steps
    # shrink geometrically, so two of them give Aitken's estimate of the limit.
    for _ in range(_TWIST_ASCENT_ROUNDS):
        e, X, t1 = ascend(theta)
        if abs(t1 - theta) <= 1e-13:
            break
        t2 = ascend(t1)[2]
        rate = (t2 - t1) / (t1 - theta)
        theta = t1 + (t2 - t1) / (1 - rate) if 0 < rate < 1 else t2

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

    if np.isfinite(defect) and defect <= tol:
        status = "pass"
    elif np.isfinite(defect) and defect < 1e-3:
        status = "indeterminate"
    else:
        status = "fail"
    return SymmetryVerdict(
        name="twist-adjoint-relation", window=1, defect=defect, tol=tol,
        status=status, details={"gauge": W, "phase": lam,
                                "multiplicity": multiplicity,
                                "lower_bound": lower_bound},
    )


def _same_verdict(a, b):
    return (a.status == b.status and a.defect == b.defect
            and a.details["phase"] == b.details["phase"]
            and np.array_equal(a.details["gauge"], b.details["gauge"])
            and a.details["multiplicity"] == b.details["multiplicity"]
            and a.details["lower_bound"] == b.details["lower_bound"])


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
    tw = _twist_for(st)
    ref = _grid_first_reference(st, tw)
    assert ref.status != "pass"
    assert _same_verdict(check_kraus_twist_relation(st, tw), ref)


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


@pytest.mark.parametrize("st", PASS_FAMILIES, ids=PASS_IDS)
def test_kraus_twist_pass_agrees_with_grid_first(st):
    tw = _twist_for(st)
    ref = _grid_first_reference(st, tw)
    v = check_kraus_twist_relation(st, tw)
    assert ref.passed and v.passed
    assert abs(v.defect - ref.defect) <= 1e-12
    assert v.details["lower_bound"] == ref.details["lower_bound"] == 0.0


def _count_grid_calls(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_kraus_twist_covariant_pass_skips_the_grid(monkeypatch):
    st = _with_gauge(covariant_state(2, Fraction(7, 2)), 12)
    calls = _count_grid_calls(monkeypatch)
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.passed
    assert len(calls) <= 1
    assert v.details["grid_angles"] == 0


def test_kraus_twist_random_negative_runs_the_grid(monkeypatch):
    st = random_fcs_state(3, 8, np.random.default_rng(0))
    calls = _count_grid_calls(monkeypatch)
    v = check_kraus_twist_relation(st, _twist_for(st))
    assert v.status == "fail"
    assert calls.count((64, 64)) == len(calls) == v.details["grid_angles"]
    assert v.details["grid_angles"] < _TWIST_GRID // 2


def test_kraus_twist_grid_is_pruned_on_random_negatives():
    # the support-function bound leaves about 9 of the 32 grid angles
    counts = [check_kraus_twist_relation(st, _twist_for(st)).details["grid_angles"]
              for st in (random_fcs_state(d, k, np.random.default_rng(seed))
                         for d, k in RANDOM_NEGATIVES for seed in range(3))]
    assert all(0 < n <= _TWIST_GRID // 2 for n in counts)
    assert np.mean(counts) <= 16


def _full_grid_maximum(hermitian_part):
    """The grid maximum and its angle by the loop over all 32 angles."""
    half = _TWIST_GRID // 2
    radius, theta = -np.inf, 0.0
    for n in range(half):
        e = np.linalg.eigvalsh(hermitian_part(np.pi * n / half))
        for val, angle in ((e[-1], np.pi * n / half), (-e[0], np.pi * (n / half + 1))):
            if val > radius:
                radius, theta = val, angle
    return radius, theta


def test_grid_maximum_equals_the_full_loop_at_near_ties():
    # the numerical range of a diagonal Q is the polygon of its entries; with
    # vertices at radii within 1e-3 of each other the grid values nearly tie,
    # so a search that stopped short of its bound would miss the maximum
    rng = np.random.default_rng(0)
    for _ in range(300):
        m = rng.integers(2, 5)
        z = 0.9 * (1 + rng.uniform(-1e-3, 1e-3, m)) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        Q = np.diag(z)

        def hermitian_part(theta):
            A = np.exp(1j * theta) * Q
            return (A + A.conj().T) / 2

        radius, theta, angles = symmetry._grid_maximum(
            hermitian_part, np.abs(z).max(), symmetry._TWIST_PRUNE_MARGIN)
        assert (radius, theta) == _full_grid_maximum(hermitian_part)
        assert 0 < angles <= _TWIST_GRID // 2


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
    # the pass attempt evaluates a residual before any grid eigensolve
    grid_calls, seen = [], []
    real_eigvalsh, real_residual = np.linalg.eigvalsh, symmetry._twist_residual

    def eigvalsh(a, *args, **kwargs):
        grid_calls.append(a.shape)
        return real_eigvalsh(a, *args, **kwargs)

    def residual(*args):
        seen.append(len(grid_calls))
        return real_residual(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", eigvalsh)
        mp.setattr(symmetry, "_twist_residual", residual)
        check_kraus_twist_relation(st, tw, tol)
    assert seen[0] == 0


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
