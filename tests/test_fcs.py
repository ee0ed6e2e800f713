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
    covariant_kraus,
    covariant_state,
    direct_sum,
    gauge_transform,
    product_state,
    random_fcs_state,
    random_unital_kraus,
)
from fcspin import fcs
from fcspin.chains import build_chain, gibbs, rp_gram_check
from fcspin.errors import ResourceLimitError
from fcspin.fcs import (
    _hermitian_coordinates,
    _hermitian_transfer,
    _products,
    fixed_point,
    modular_data,
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


@pytest.mark.parametrize("form", [tuple, list, lambda m: (x for x in m), np.array],
                         ids=["tuple", "list", "generator", "array"])
def test_kraus_family_holds_one_read_only_array(form):
    mats = np.arange(12.0).reshape(3, 2, 2)
    fam = KrausFamily(form(list(mats)))
    assert type(fam.v) is np.ndarray and fam.v.dtype == complex
    assert fam.v.shape == (3, 2, 2) and (fam.d, fam.k) == (3, 2)
    assert np.array_equal(fam.v, mats)
    with pytest.raises(ValueError, match="read-only"):
        fam.v[0, 0, 0] = 1
    mats[0, 0, 0] = 1
    assert fam.v[0, 0, 0] == 0


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


def _kron_transfer(kraus):
    """Matrix of x -> sum_i v_i x v_i* on row-major vec(x)."""
    return sum(np.kron(v, v.conj()) for v in kraus.v)


def _reference_fixed_point(kraus, tol=1e-9):
    """The spectral projection of I/k onto the fixed space of the dual map,
    by a complex eig of its matrix on row-major vec(x) and inv of the
    eigenvectors, normalized to unit trace."""
    w, V = np.linalg.eig(_kron_transfer(kraus).conj().T)
    sel = np.abs(w - 1.0) <= tol
    k = kraus.k
    P = V[:, sel] @ np.linalg.inv(V)[sel, :]
    rho = (P @ np.eye(k).reshape(-1) / k).reshape(k, k)
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


def _blended(a, b, eps):
    """The unital family S^{-1/2} u_i with u_i = (1 - eps) a_i + eps b_i and
    S = sum_i u_i u_i*."""
    u = [(1 - eps) * x + eps * y for x, y in zip(a.v, b.v)]
    w, V = np.linalg.eigh(sum(x @ x.conj().T for x in u))
    return KrausFamily(tuple((V / np.sqrt(w)) @ V.conj().T @ x for x in u))


def _gauged(fam, seed):
    W = unitary_group.rvs(fam.k, random_state=seed)
    return KrausFamily(tuple(W @ v @ W.conj().T for v in fam.v))


FIXED_POINT_FAMILIES = {
    **{f"covariant-{s}-{two_j}/2": (lambda s=s, two_j=two_j:
                                    covariant_kraus(s, Fraction(two_j, 2)))
       for s in range(1, 5) for two_j in range(1, 9) if s <= two_j},
    **{f"random-{d}-{k}-{seed}": (lambda d=d, k=k, seed=seed:
                                  random_unital_kraus(d, k, np.random.default_rng(seed)))
       for d, k in ((2, 2), (2, 3), (3, 4), (3, 8), (5, 6), (7, 8))
       for seed in (0, 1)},
    "aklt+covariant-1-1": lambda: direct_sum(aklt_kraus(), covariant_kraus(1, 1)),
    "aklt+aklt": lambda: direct_sum(aklt_kraus(), aklt_kraus()),
    "covariant-1-1/2+covariant-1-1": lambda: direct_sum(
        covariant_kraus(1, Fraction(1, 2)), covariant_kraus(1, 1)),
    # one eigenvalue 1 - 1.1e-4, which is not fixed at tol 1e-9
    "near-degenerate": lambda: _blended(
        direct_sum(aklt_kraus(), covariant_kraus(1, 1)),
        random_unital_kraus(3, 5, np.random.default_rng(6)), 1e-2),
}


def _invariance_defect(fam, rho):
    return np.abs(sum(v.conj().T @ rho @ v for v in fam.v) - rho).max()


@pytest.mark.parametrize("gauge", [None, 11], ids=["plain", "haar-gauge"])
@pytest.mark.parametrize("name", FIXED_POINT_FAMILIES)
def test_fixed_point_is_the_spectral_projection_of_i_over_k(name, gauge):
    fam = FIXED_POINT_FAMILIES[name]()
    if gauge is not None:
        fam = _gauged(fam, gauge)
    st = fixed_point(fam)
    want = _reference_fixed_point(fam)
    if name == "near-degenerate":
        # the eigenvalue 1.1e-4 from 1 scales the rounding of either route
        # by 1e4; the real route is the more invariant one
        assert np.abs(st.rho - want).max() <= 1e-11
        defect = _invariance_defect(fam, st.rho)
        assert defect <= min(_invariance_defect(fam, want), 1e-15)
    else:
        assert np.abs(st.rho - want).max() <= 1e-13
    # the singular values of tau_H - I within tol count the fixed eigenvalues
    s = np.linalg.svd(_hermitian_transfer(fam) - np.eye(fam.k ** 2), compute_uv=False)
    assert int(np.sum(s <= 1e-9)) == gap(build_transfer(st)).fixed_multiplicity


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
    V = state.kraus.v
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


def test_max_window_entries_override(monkeypatch):
    monkeypatch.setattr(fcs, "MAX_WINDOW_ENTRIES", 81)  # 3^4 entries: window 2 fits
    assert window_expectations(aklt_state(), 2).shape == (9, 9)
    with pytest.raises(ResourceLimitError, match="cap of 12 sites or 81 entries"):
        window_expectations(aklt_state(), 3)


def test_default_window_cap_refuses_d7_length_4():
    # 7^8 = 5764801 entries, over the default 4000000; length 3 fits
    st = covariant_state(3, Fraction(7, 2))
    assert fcs.MAX_WINDOW_ENTRIES == 4_000_000
    assert window_expectations(st, 3).shape == (343, 343)
    with pytest.raises(ResourceLimitError, match="cap of 12 sites or 4000000 entries"):
        window_expectations(st, 4)


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


def _hermitian_basis(n):
    """E_pp, then (E_pq + E_qp)/sqrt 2 and i (E_pq - E_qp)/sqrt 2 for p < q."""
    E = np.eye(n * n).reshape(n, n, n, n)  # E[p, q] = E_pq
    upper = list(itertools.combinations(range(n), 2))
    return np.array([E[p, p] for p in range(n)]
                    + [(E[p, q] + E[q, p]) / np.sqrt(2) for p, q in upper]
                    + [1j * (E[p, q] - E[q, p]) / np.sqrt(2) for p, q in upper])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hermitian_coordinates_in_the_stated_basis(n):
    H = _hermitian_basis(n)
    U = H.reshape(n * n, -1).T  # columns vec(H_j)
    assert np.abs(U.conj().T @ U - np.eye(n * n)).max() <= 1e-15
    assert np.abs(H - H.conj().transpose(0, 2, 1)).max() == 0
    rng = np.random.default_rng(n)
    X = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    c = _hermitian_coordinates(X)
    assert c.shape == (2, 3, n * n)
    assert np.abs(c - X.reshape(2, 3, -1) @ U.conj()).max() <= 1e-14
    # real on Hermitian matrices, and they rebuild X
    assert np.abs(_hermitian_coordinates(X + X.conj().swapaxes(-1, -2)).imag).max() <= 1e-14
    assert np.abs(np.einsum("abj,jpq->abpq", c, H) - X).max() <= 1e-14


@pytest.mark.parametrize("d, k, seed", [(2, 3, 9), (3, 1, 0), (3, 4, 1), (5, 6, 2)])
def test_hermitian_transfer_is_the_kron_matrix_in_the_hermitian_basis(d, k, seed):
    fam = random_unital_kraus(d, k, np.random.default_rng(seed))
    U = _hermitian_basis(k).reshape(k * k, -1).T  # columns vec(H_j)
    tau = _hermitian_transfer(fam)
    assert tau.dtype == np.dtype(float)
    assert np.abs(tau - U.conj().T @ _kron_transfer(fam) @ U).max() <= 1e-14
    # unitality: the coordinates of I are a fixed vector
    eye = _hermitian_coordinates(np.eye(k)).real
    assert np.abs(tau @ eye - eye).max() <= 1e-14


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
