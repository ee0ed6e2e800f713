"""Kraus families, fixed points, window expectations, modular data."""

import itertools
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from scipy.stats import unitary_group

from fcspin import (
    FcsState,
    KrausFamily,
    aklt_kraus,
    aklt_state,
    build_spin_rep,
    build_twist,
    covariant_state,
    direct_sum,
    gauge_transform,
    product_state,
    random_fcs_state,
    random_unital_kraus,
)
from fcspin.chains import build_chain, gibbs, rp_gram_check
from fcspin.errors import ResourceLimitError
from fcspin.fcs import (
    _products,
    fixed_point,
    max_window_entries,
    modular_data,
    transfer_matrix,
    validate,
    window_expectations,
)
from fcspin.krausfile import dump_state, load_state
from fcspin.transfer import build_transfer, gap


def evaluate_monomial(state, I, J):
    """trace(rho v_I v*_J) with v_I = v_{i1}..v_{im}, 1-based indices.

    For |I| != |J| the value is not gauge invariant; it is still returned
    and belongs to the gauge-extended state.
    """
    d, k = state.d, state.k
    for idx in tuple(I) + tuple(J):
        if not 1 <= idx <= d:
            raise ValueError(f"monomial index {idx} out of range 1..{d}")
    left = np.eye(k, dtype=complex)
    for i in I:
        left = left @ state.kraus.v[i - 1]
    right = np.eye(k, dtype=complex)
    for j in reversed(J):
        right = right @ state.kraus.v[j - 1].conj().T
    return complex(np.trace(state.rho @ left @ right))


def test_kraus_family_shape_check():
    with pytest.raises(ValueError):
        KrausFamily((np.eye(2), np.zeros((3, 3))))


def test_kraus_family_empty_refused():
    with pytest.raises(ValueError, match="a Kraus family needs at least one matrix"):
        KrausFamily(())


@pytest.mark.parametrize("entries, shape", [
    ((1.0,), "()"),
    ((np.zeros(3),), r"\(3,\)"),
    ((np.zeros((0, 0)),), r"\(0, 0\)"),
])
def test_kraus_family_degenerate_entry_refused(entries, shape):
    with pytest.raises(ValueError, match=(
            f"Kraus matrix 1 must be a nonempty square matrix, got shape {shape}")):
        KrausFamily(entries)


def test_kraus_family_equality_is_identity():
    fam = aklt_kraus()
    assert fam == fam and fam != aklt_kraus()
    assert hash(fam) == hash(fam)
    assert len({fam, aklt_kraus()}) == 2


def test_fcs_state_equality_is_identity():
    st = aklt_state()
    assert st == st and st != aklt_state()
    assert hash(st) == hash(st)
    assert len({st, aklt_state()}) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
def test_kraus_family_non_finite_entry_refused(bad):
    mats = [np.array(v) for v in aklt_kraus().v]
    mats[1][0, 1] = bad
    with pytest.raises(ValueError, match="Kraus matrix 2 has a non-finite entry"):
        KrausFamily(tuple(mats))


@pytest.mark.parametrize("rho, message", [
    ([[np.inf, 0], [0, 0.5]], "rho has a non-finite entry"),
    ([[np.nan, 0], [0, 0.5]], "rho has a non-finite entry"),
    (np.eye(3) / 3, r"rho has shape \(3, 3\), expected \(2, 2\)"),
    ([0.5, 0.5], r"rho has shape \(2,\), expected \(2, 2\)"),
])
def test_fcs_state_bad_rho_refused(rho, message):
    with pytest.raises(ValueError, match=message):
        FcsState(kraus=aklt_kraus(), rho=rho)


def test_validate_unital():
    assert validate(aklt_kraus()).passed
    bad = KrausFamily((1.01 * v for v in aklt_kraus().v))
    rep = validate(bad)
    assert not rep.passed
    assert rep.defect > 1e-3


def test_aklt_fixed_point():
    st = aklt_state()
    assert gap(build_transfer(st)).fixed_multiplicity == 1
    assert np.abs(st.rho - np.eye(2) / 2).max() < 1e-12
    # invariance under the dual map
    acc = sum(v.conj().T @ st.rho @ v for v in st.kraus.v)
    assert np.abs(acc - st.rho).max() < 1e-12


def test_fixed_point_degenerate_direct_sum():
    fam = direct_sum(aklt_kraus(), aklt_kraus())
    st = fixed_point(fam)
    assert gap(build_transfer(st)).fixed_multiplicity == 4
    assert np.abs(st.rho - np.eye(4) / 4).max() < 1e-10


def test_fixed_point_nonfaithful_rejected():
    fam = KrausFamily((
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1, 0]], dtype=complex),
    ))
    with pytest.raises(ValueError):
        fixed_point(fam)


def test_fixed_point_nonfaithful_message():
    # the fixed point of (|0><0|, |1><0|) is |0><0|
    fam = KrausFamily((
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1, 0]], dtype=complex),
    ))
    with pytest.raises(ValueError, match="fixed point is not faithful"):
        fixed_point(fam)


@pytest.mark.parametrize("make", [
    lambda: random_fcs_state(3, 4, np.random.default_rng(0)),
    lambda: random_fcs_state(3, 8, np.random.default_rng(0)),
    lambda: random_fcs_state(5, 6, np.random.default_rng(0)),
    lambda: random_fcs_state(7, 8, np.random.default_rng(0)),
    lambda: covariant_state(2, Fraction(7, 2)),
], ids=["random-3-4", "random-3-8", "random-5-6", "random-7-8",
        "covariant-2-7/2"])
def test_fixed_point_exactly_hermitian(make):
    rho = make().rho
    assert (rho == rho.conj().T).all()


def test_fixed_point_nonunital_rejected():
    fam = KrausFamily((np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        fixed_point(fam)


def test_evaluate_monomial_aklt():
    st = aklt_state()
    # trace(rho v_1 v_1*) = (1/2) * (2/3) * trace(s+ s-) restricted = 1/3
    assert abs(evaluate_monomial(st, (1,), (1,)) - 1 / 3) < 1e-12
    assert abs(evaluate_monomial(st, (2,), (2,)) - 1 / 3) < 1e-12
    with pytest.raises(ValueError):
        evaluate_monomial(st, (4,), (1,))
    with pytest.raises(ValueError):
        evaluate_monomial(st, (0,), (1,))


def test_window_expectations_normalized_and_nested():
    st = aklt_state()
    W1 = window_expectations(st, 1)
    assert abs(np.trace(W1) - 1) < 1e-12
    assert np.abs(W1 - np.eye(3) / 3).max() < 1e-12
    W2 = window_expectations(st, 2)
    assert abs(np.trace(W2) - 1) < 1e-12
    # partial trace over the second site reproduces the one-site window
    W2r = W2.reshape(3, 3, 3, 3)
    assert np.abs(np.einsum("ikjk->ij", W2r) - W1).max() < 1e-12
    # positivity of the window density matrix
    assert np.linalg.eigvalsh((W2 + W2.conj().T) / 2).min() > -1e-12


def test_window_resource_refusal():
    st = aklt_state()
    with pytest.raises(ResourceLimitError):
        window_expectations(st, 13)


def test_window_expectations_empty_window_refused():
    with pytest.raises(ValueError, match="window length must be >= 1"):
        window_expectations(aklt_state(), 0)


@pytest.mark.parametrize("family, m_max", [
    ("random", 5),  # odd m splits the window unevenly, m = 1 has no left half
    ("gauged-covariant", 3),
])
def test_window_expectations_match_monomials(family, m_max):
    if family == "random":
        st = random_fcs_state(2, 3, np.random.default_rng(31))
    else:
        st = covariant_state(1, 1.5)
        st = gauge_transform(st, unitary_group.rvs(st.k, random_state=5))
    d = st.d
    previous = None
    for m in range(1, m_max + 1):
        W = window_expectations(st, m)
        words = list(itertools.product(range(1, d + 1), repeat=m))
        ref = np.array([[evaluate_monomial(st, I, J) for J in words] for I in words])
        assert np.abs(W - ref).max() < 1e-13
        if previous is not None:
            traced = np.einsum("ikjk->ij", W.reshape(d ** (m - 1), d, d ** (m - 1), d))
            assert np.abs(traced - previous).max() < 1e-13
        previous = W


def _half_window_split(state, m):
    """W from two half-window factors: split at m1 = m // 2,
    W[(I1, I2), (J1, J2)] = tr((v_{J1}* rho v_{I1}) (v_{I2} v_{J2}*))."""
    d = state.d
    V = state.kraus.stacked()
    m1 = m // 2
    L, R = _products(V, m1), _products(V, m - m1)
    X = np.matmul(L.conj().transpose(0, 2, 1)[None], (state.rho @ L)[:, None])
    Y = np.matmul(R[:, None], R.conj().transpose(0, 2, 1)[None])
    W = np.tensordot(X, Y, axes=([2, 3], [3, 2]))  # W[I1, J1, I2, J2]
    return W.transpose(0, 2, 1, 3).reshape(d ** m, d ** m)


_SPLIT_FAMILIES = {
    "aklt": aklt_state,
    "gauged-cov(2,7/2)": lambda: gauge_transform(
        covariant_state(2, Fraction(7, 2)), unitary_group.rvs(8, random_state=7)),
    "random(3,4)": lambda: random_fcs_state(3, 4, np.random.default_rng(17)),
    "aklt+aklt": lambda: fixed_point(direct_sum(aklt_kraus(), aklt_kraus())),
    "product_complex_d2": lambda: load_state(resources.files("fcspin.data").joinpath(
        "product_complex_d2.kraus").read_text())[1],
}


@pytest.mark.parametrize("family", list(_SPLIT_FAMILIES))
def test_window_expectations_match_half_window_split(family):
    st = _SPLIT_FAMILIES[family]()
    for m in range(1, 5):
        W = window_expectations(st, m)
        assert np.abs(W - _half_window_split(st, m)).max() <= 1e-15, m


def test_window_expectations_memory():
    st = covariant_state(2, 3.5)  # d = 5, k = 8
    tracemalloc.start()
    try:
        window_expectations(st, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # W itself is 5^8 complex entries (6.25 MB); a d^(2m) k^2 tensor is 400 MB
    assert peak < 64e6


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
def test_max_window_entries_invalid(value, monkeypatch):
    monkeypatch.setenv("FCS_MAX_DIM", value)
    with pytest.raises(ValueError, match="FCS_MAX_DIM"):
        max_window_entries()
    with pytest.raises(ValueError, match="FCS_MAX_DIM"):
        window_expectations(aklt_state(), 1)


def test_max_window_entries_override(monkeypatch):
    monkeypatch.setenv("FCS_MAX_DIM", "81")  # 3^4 entries: window 2 fits
    assert max_window_entries() == 81
    assert window_expectations(aklt_state(), 2).shape == (9, 9)
    with pytest.raises(ResourceLimitError):
        window_expectations(aklt_state(), 3)


def test_modular_data_aklt_trivial():
    md = modular_data(aklt_state())
    assert md.delta_defect <= 1e-10
    assert md.delta_defect < 1e-12


@pytest.mark.parametrize("use", [modular_data, build_transfer])
def test_rho_roots_refuses_a_singular_rho(use):
    # FcsState itself takes any density matrix; the square and inverse roots
    # of rho are what need it faithful
    state = FcsState(aklt_kraus(), np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="rho is not faithful"):
        use(state)


def test_modular_data_generic_nontrivial():
    st = random_fcs_state(2, 2, np.random.default_rng(0))
    md = modular_data(st)
    assert md.delta_defect > 1e-3  # generic rho is not maximally mixed


def test_product_state_one_site():
    xi = np.array([1.0, 1.0j]) / np.sqrt(2)
    st = product_state(xi)
    W1 = window_expectations(st, 1)
    expected = np.outer(xi.conj(), xi)  # W[i, j] = <xi, E_ij xi>
    assert np.abs(W1 - expected).max() < 1e-12


def test_transfer_matrix_trace_preserving_dual():
    fam = random_unital_kraus(2, 3, np.random.default_rng(9))
    M = transfer_matrix(fam)
    # unitality: identity is a fixed point of the forward map
    eye = np.eye(3).reshape(-1)
    assert np.abs(M @ eye - eye).max() < 1e-12


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_bad_tol_refused_at_every_entry_point(tol):
    # an infinite tol passes every defect and a NaN one fails every
    # comparison: gap counted 16 fixed eigenvalues at inf, and a NaN tol
    # called a unital family not unital
    st = random_fcs_state(3, 4, np.random.default_rng(0))
    chain = build_chain(2, 4)
    calls = [
        lambda: gap(build_transfer(st), tol),
        lambda: fixed_point(aklt_kraus(), tol),
        lambda: load_state(dump_state(st), tol),
        lambda: rp_gram_check(chain, gibbs(chain, 1.0),
                              build_twist(build_spin_rep(2)), tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tolerance must be"):
            call()
