"""Finite-chain diagonalization oracle."""

import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from fcspin import build_spin_rep, build_twist, chains
from fcspin.chains import (
    MAX_BLOCK_BYTES,
    MAX_CHAIN_DIM,
    CooMatrix,
    SpinChainSystem,
    ThermalState,
    _orbit_blocks,
    _two_site_hamiltonian,
    build_chain,
    correlation_profile,
    gibbs,
    ground,
    rp_gram_check,
)
from fcspin.errors import ResourceLimitError


def _eye(size):
    return sp.identity(size, dtype=complex, format="csr")


def _site_op(ops, d, n):
    """Sparse operator with the given {position: matrix} factors, identity elsewhere."""
    out = _eye(1)
    run = 1  # dimension of the empty sites since the last factor
    for p in range(n):
        if p not in ops:
            run *= d
            continue
        factor = sp.csr_matrix(np.asarray(ops[p], dtype=complex))
        out = sp.kron(sp.kron(out, _eye(run), format="csr"), factor, format="csr")
        run = 1
    return sp.kron(out, _eye(run), format="csr")


def translation_operator(d, n):
    """Permutation matrix shifting site p to site p+1 mod n."""
    dim = d ** n
    src = np.arange(dim).reshape((d,) * n)
    dst = np.moveaxis(src, -1, 0).reshape(-1)  # new leading index = old last site
    return sp.csr_matrix((np.ones(dim), (dst, np.arange(dim))), shape=(dim, dim))


def _csr(H):
    """A CooMatrix as scipy csr, its entries neither summed nor dropped."""
    out = sp.csr_matrix((H.data, (H.row, H.col)), shape=H.shape)
    assert out.nnz == H.nnz
    return out


def _coo(M):
    """A dense matrix as a CooMatrix of its nonzero entries."""
    col, row = np.nonzero(M.T)
    return CooMatrix(shape=M.shape, row=row, col=col, data=M[row, col])


def _scipy_reference_chain(d, n, J, periodic, model, field):
    """H as the scipy builder that build_chain replaced assembled it: the
    open bonds as I (x) h2 (x) I, the wrap bond as the last one conjugated
    by the translation, the field site by site, then (H + H*)/2."""
    h2 = chains._two_site_hamiltonian(d, float(J), model)
    H = sp.csr_matrix((d ** n, d ** n), dtype=complex)
    bond = sp.csr_matrix(h2)
    for p in range(n - 1):
        last = sp.kron(sp.kron(_eye(d ** p), bond, format="csr"),
                       _eye(d ** (n - p - 2)), format="csr")
        H = H + last
    if periodic:
        T = translation_operator(d, n)
        H = H + T.T @ last @ T  # bond (n-2, n-1) moved onto (n-1, 0)
    if field is not None:
        rep = build_spin_rep(d)
        one = sum(f * S for f, S in zip(field, rep.generators()))
        for p in range(n):
            H = H + _site_op({p: one}, d, n)
    H = (H + H.conj().T) / 2
    return H.tocsr()


def _spectrum(system):
    """Every eigenvalue of the chain from its blocks, a paired block's twice
    and a flipped component's twice again."""
    return np.sort(np.concatenate([
        w for _, bl, flip in system.blocks for b in bl
        for w in [np.linalg.eigvalsh(b.dense())] * ((1 + b.pair) * (1 + flip))]))


def _dense_rho(system, state):
    """The density matrix of a thermal state, a vector or a block of
    orthonormal vectors, formed densely."""
    if isinstance(state, ThermalState):
        rho = np.zeros((system.dim, system.dim), dtype=complex)
        for idx, block in state.blocks:
            rho[np.ix_(idx, idx)] = block
        return rho
    psi = np.asarray(state).reshape(system.dim, -1)
    return psi @ psi.conj().T / psi.shape[1]


def _random_block_state(dim, rng, parts=3):
    """A random density matrix, zero off a random split of the basis into
    parts blocks.  No symmetry relates it to its transpose."""
    label = rng.integers(parts, size=dim)
    blocks = []
    for c in range(parts):
        idx = np.flatnonzero(label == c)
        z = rng.normal(size=(idx.size,) * 2) + 1j * rng.normal(size=(idx.size,) * 2)
        blocks.append((idx, z @ z.conj().T))
    total = sum(np.trace(rho).real for _, rho in blocks)
    return ThermalState(beta=0.0, blocks=tuple((idx, rho / total)
                                               for idx, rho in blocks))


def _dense_pair_marginal(system, rho, p, q):
    """The reduced density matrix of sites p < q as one partial trace of a
    dense rho: the reference for the marginal gathered from blocks."""
    d, n = system.d, system.n
    shape = (d ** p, d, d ** (q - p - 1), d, d ** (n - q - 1))
    return np.einsum("xaybzxcyez->abce", rho.reshape(shape + shape))


def two_site_expectation(system, state, A, B, p, q):
    """<A at site p, B at site q> in a vector or thermal state; the two
    sites must differ."""
    if not (0 <= p < system.n and 0 <= q < system.n):
        raise ValueError(f"sites {p}, {q} are not both on the {system.n}-site chain")
    if p == q:
        raise ValueError("two_site_expectation needs two distinct sites")
    if p > q:
        A, B, p, q = B, A, q, p
    R = chains._pair_marginal(system, state, p, q)
    return complex(np.einsum("abce,ca,eb->", R, A, B))


def test_two_site_spectrum_d2():
    # J S.S on two sites: eigenvalues J/2 [j(j+1) - 2 s(s+1)] = {-3J/4, J/4}
    system = build_chain(2, 2, 1.0, periodic=False)
    w = np.linalg.eigvalsh(system.H.toarray())
    assert np.abs(w - np.array([-0.75, 0.25, 0.25, 0.25])).max() < 1e-12
    # in the Pauli convention sigma = 2S this is the textbook {-3J, J}
    assert np.abs(4 * w - np.array([-3.0, 1.0, 1.0, 1.0])).max() < 1e-12


def test_two_site_spectrum_d3():
    system = build_chain(3, 2, 1.0, periodic=False)
    w = np.unique(np.round(np.linalg.eigvalsh(system.H.toarray()), 10))
    assert np.abs(w - np.array([-2.0, -1.0, 1.0])).max() < 1e-10


def test_singlet_ground_and_ferro_triplet():
    assert ground(build_chain(2, 2, 1.0, periodic=False)).degeneracy == 1
    assert ground(build_chain(2, 2, -1.0, periodic=False)).degeneracy == 3


def test_commutation_invariants():
    system = build_chain(3, 4)
    rep = build_spin_rep(3)
    H = _csr(system.H)
    T = translation_operator(3, 4)
    assert abs((H @ T - T @ H)).max() < 1e-10
    for S in rep.generators():
        tot = sum(_site_op({p: S}, 3, 4) for p in range(4))
        assert abs((H @ tot - tot @ H)).max() < 1e-10


def test_d3_n4_ground_is_total_singlet():
    system = build_chain(3, 4)
    rep = build_spin_rep(3)
    g = ground(system)
    assert g.degeneracy == 1
    psi = g.vectors[:, 0]
    cas = sum(
        (sum(_site_op({p: S}, 3, 4) for p in range(4))) ** 2
        for S in rep.generators()
    )
    assert abs(psi.conj() @ (cas @ psi)) < 1e-10


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_xxx_d2_even_unique_ground(n):
    assert ground(build_chain(2, n)).degeneracy == 1


@pytest.mark.parametrize("n", [5, 7])
def test_xxx_d2_odd_frustrated_degeneracy(n):
    # odd periodic antiferromagnetic rings are frustrated: the ground
    # space is a fourfold multiplet, not a unique singlet
    assert ground(build_chain(2, n)).degeneracy == 4


def test_resource_refusal():
    with pytest.raises(ResourceLimitError):
        build_chain(3, 12)


@pytest.mark.parametrize("J", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coupling_refused(J):
    with pytest.raises(ValueError, match="J must be finite"):
        build_chain(2, 4, J)


@pytest.mark.parametrize("field", [
    (0.5, 0.0, 0.0, 7.0), (0.5, 0.0), (float("nan"), 0.0, 0.0),
    (0.0, float("inf"), 0.0), 0.5,
])
def test_field_must_be_three_finite_numbers(field):
    with pytest.raises(ValueError, match="field must be three finite numbers"):
        build_chain(2, 4, field=field)


def test_model_validation():
    with pytest.raises(ValueError):
        build_chain(2, 4, model="aklt-parent")
    with pytest.raises(ValueError):
        build_chain(3, 4, model="nope")


def test_gibbs_limits():
    system = build_chain(2, 4)
    hot = _dense_rho(system, gibbs(system, 0.0))
    assert np.abs(hot - np.eye(16) / 16).max() < 1e-12
    g = ground(system)
    cold = _dense_rho(system, gibbs(system, 50.0))
    proj = g.vectors @ g.vectors.conj().T / g.degeneracy
    assert np.abs(cold - proj).max() < 1e-6
    # energy nonincreasing in beta
    H = system.H.toarray()
    energies = [float(np.trace(_dense_rho(system, gibbs(system, b)) @ H).real)
                for b in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


@pytest.mark.parametrize("beta", [np.nan, np.inf, -1.0])
def test_gibbs_rejects_non_finite_or_negative_beta(beta):
    system = build_chain(2, 4, 1.0)
    with pytest.raises(ValueError, match="beta"):
        gibbs(system, beta)


def test_gibbs_one_site_marginal_translation_invariant():
    system = build_chain(2, 4)
    rho = _dense_rho(system, gibbs(system, 1.3))
    rep = build_spin_rep(2)
    vals = [
        complex(np.trace(rho @ _site_op({p: rep.Sz}, 2, 4).toarray()))
        for p in range(4)
    ]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_ferromagnetic_product_profile():
    system = build_chain(2, 6)
    up = np.zeros(2 ** 6)
    up[0] = 1.0  # all spins up
    rep = build_spin_rep(2)
    for r in range(1, 4):
        raw = two_site_expectation(system, up, rep.Sz, rep.Sz, 0, r)
        assert abs(raw - 0.25) < 1e-12  # constant, no decay
    rows = correlation_profile(system, up, 3)
    assert all(abs(row.zz) < 1e-12 for row in rows)  # connected part vanishes


def test_heisenberg_d3_profile_alternating():
    system = build_chain(3, 8)
    g = ground(system)
    rows = correlation_profile(system, g.vectors[:, 0], 3)
    signs = [np.sign(row.total) for row in rows]
    assert signs == [-1.0, 1.0, -1.0]
    mags = [abs(row.total) for row in rows]
    assert mags[0] > mags[1] > mags[2]


def test_aklt_parent_matches_transfer_values():
    system = build_chain(3, 8, model="aklt-parent")
    g = ground(system)
    assert g.degeneracy == 1
    assert abs(g.energy) < 1e-8  # frustration-free parent model
    rows = correlation_profile(system, g.vectors[:, 0], 3)
    assert abs(rows[0].zz - (-4 / 9)) / (4 / 9) < 0.05
    assert abs(rows[1].total / rows[0].total - (-1 / 3)) / (1 / 3) < 0.10


def test_ground_energy_per_bond_monotone():
    # periodic rings approach the infinite-volume value from below, so the
    # per-bond energy increases monotonically toward its limit
    per_bond = []
    for n in (4, 6, 8):
        g = ground(build_chain(2, n))
        per_bond.append(g.energy / n)
    assert per_bond[0] <= per_bond[1] <= per_bond[2]


def test_gap_scan():
    gaps3 = [ground(build_chain(3, n)).gap for n in (4, 6)]
    assert all(gap_val > 0.1 for gap_val in gaps3)
    gaps2 = [ground(build_chain(2, n)).gap for n in (4, 6, 8, 10)]
    assert gaps2 == sorted(gaps2, reverse=True)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_rp_gram_xxx(d, beta):
    system = build_chain(d, 4)
    tw = build_twist(build_spin_rep(d))
    v = rp_gram_check(system, gibbs(system, beta), tw)
    assert v.passed
    assert v.details["min_eig"] >= -1e-9


def test_rp_gram_ground_vector():
    system = build_chain(2, 4)
    g = ground(system)
    tw = build_twist(build_spin_rep(2))
    assert rp_gram_check(system, g.vectors[:, 0], tw).passed


@pytest.mark.parametrize("beta", [1, 1.0, np.int64(1), np.float32(1.0),
                                  np.array(1.0)])
def test_rp_gram_takes_any_real_number_as_beta(beta):
    # through the Gibbs state, which reads any real number as beta
    system = build_chain(2, 4)
    tw = build_twist(build_spin_rep(2))
    want = rp_gram_check(system, gibbs(system, 1.0), tw)
    got = rp_gram_check(system, gibbs(system, beta), tw)
    assert got.passed and got.details == want.details


@pytest.mark.parametrize("state", [True, np.bool_(False), 1 + 0j])
def test_rp_gram_rejects_a_bool_or_complex_beta(state):
    # no number is read as an inverse temperature: it is a one-entry vector
    system = build_chain(2, 4)
    with pytest.raises(ValueError, match="system.dim = 16"):
        rp_gram_check(system, state, build_twist(build_spin_rep(2)))


@pytest.mark.parametrize("size", [15, 17, 256])
def test_rp_gram_rejects_a_vector_of_the_wrong_length(size):
    system = build_chain(2, 4)
    with pytest.raises(ValueError, match="system.dim = 16"):
        rp_gram_check(system, np.ones(size), build_twist(build_spin_rep(2)))


def test_rp_gram_field_control_fails():
    tw = build_twist(build_spin_rep(2))
    system = build_chain(2, 4, field=(0.0, 0.0, 1.5))
    v = rp_gram_check(system, gibbs(system, 1.0), tw)
    assert not v.passed
    assert v.details["min_eig"] < -1e-3


def test_rp_gram_needs_even_chain():
    system = build_chain(2, 5)
    tw = build_twist(build_spin_rep(2))
    with pytest.raises(ValueError):
        rp_gram_check(system, gibbs(system, 1.0), tw)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_rp_gram_refuses_a_non_finite_twist(bad):
    # a monomial twist with one non-finite entry gets past the pattern test
    system = build_chain(2, 4)
    r0 = build_twist(build_spin_rep(2)).r0.copy()
    r0[0, 1] = float(bad)
    for twist in (r0, np.full((2, 2), float(bad))):
        with pytest.raises(ValueError, match="twist has a non-finite entry"):
            rp_gram_check(system, gibbs(system, 1.0), twist)


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


def _rp_reference(system, rho, r0):
    """Reference min eigenvalue and Hermiticity defect of the Gram matrix,
    contracted from the density matrix itself rather than from the window
    tensor rho.T that rp_gram_check shares with check_reflection_positive."""
    m = system.n // 2
    D = system.d ** m
    Rr = _reflect_twist_matrix(r0, m)
    G = np.einsum("ma,lb,lymx->abxy", Rr.conj(), Rr, rho.reshape(D, D, D, D),
                  optimize=True).reshape(D * D, D * D)
    herm_defect = float(np.linalg.norm(G - G.conj().T))
    return float(np.linalg.eigvalsh((G + G.conj().T) / 2).min()), herm_defect


def _monomial_involution(d, rng):
    """A random unitary involution with one nonzero per column and conj(r0)
    != +-r0: two random sites swapped with the phases e^(+-i phi), every
    other site fixed with a random sign."""
    r0 = np.diag(rng.choice([1.0, -1.0], size=d)).astype(complex)
    a, b = rng.choice(d, size=2, replace=False)
    phase = np.exp(1j * rng.uniform(0.1, np.pi / 2 - 0.1))
    r0[a, a] = r0[b, b] = 0
    r0[a, b], r0[b, a] = phase, phase.conj()
    return r0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["thermal", "open", "pure", "field", "random"])
@pytest.mark.parametrize("generic", [False, True])
def test_rp_gram_matches_density_matrix_contraction(d, kind, generic):
    # the transverse field makes rho complex; at d = 2 the half-chain m = 3
    # is odd, so the reflected spin twist is complex as well.  The chains'
    # states give the same Gram spectrum from rho and from its transpose;
    # a random state in blocks does not under the generic twist, so only
    # those cases catch a Gram gathered from rho.T
    field = (0.3, 0.5, 1.5) if kind == "field" else None
    n = 6 if d == 2 else 4
    system = build_chain(d, n, periodic=kind != "open", field=field)
    if kind == "pure":
        state = ground(system).vectors[:, 0]
    elif kind == "random":
        state = _random_block_state(system.dim, np.random.default_rng(8))
    else:
        state = gibbs(system, 1.3)
    r0 = build_twist(build_spin_rep(d)).r0
    if generic:
        r0 = _monomial_involution(d, np.random.default_rng(1))
    min_eig, herm_defect = _rp_reference(system, _dense_rho(system, state), r0)
    v = rp_gram_check(system, state, r0)
    assert abs(v.details["min_eig"] - min_eig) <= 1e-13
    assert abs(v.details["herm_defect"] - herm_defect) <= 1e-13
    assert v.passed == (max(0.0, -min_eig) <= 1e-9 and herm_defect <= 1e-7)
    if not generic:
        assert v.passed == (kind in ("thermal", "open", "pure"))


@pytest.mark.parametrize("d", [2, 3])
def test_rp_gram_refuses_a_twist_that_is_not_monomial(d):
    # a unitary involution that mixes every site state
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    r0 = u @ np.diag([1.0] + [-1.0] * (d - 1)) @ u.conj().T
    system = build_chain(d, 4)
    with pytest.raises(ValueError, match="monomial"):
        rp_gram_check(system, gibbs(system, 1.0), r0)


@pytest.mark.parametrize("d, n, beta, field", [
    (2, 6, 0.8, None), (3, 4, 1.7, None), (2, 6, 0.8, (0.3, 0.5, 0.2)),
])
def test_thermal_profile_matches_dense_trace(d, n, beta, field):
    system = build_chain(d, n, field=field)
    state = gibbs(system, beta)
    rho = _dense_rho(system, state)
    rep = build_spin_rep(d)

    def dense(ops):
        return complex(np.trace(rho @ _site_op(ops, d, n).toarray()))

    for row in correlation_profile(system, state, n - 1):
        r = row.r
        total = sum(dense({0: S, r: S}) - dense({0: S}) * dense({r: S})
                    for S in rep.generators())
        zz = dense({0: rep.Sz, r: rep.Sz}) - dense({0: rep.Sz}) * dense({r: rep.Sz})
        assert abs(row.total - total.real) <= 1e-12
        assert abs(row.zz - zz.real) <= 1e-12
    # an imaginary one-site factor tells rho from rho.T
    for r in range(1, n):
        got = two_site_expectation(system, state, rep.Sy, rep.Sz, 0, r)
        assert abs(got - dense({0: rep.Sy, r: rep.Sz})) <= 1e-12


def _dense_expectation(system, state, ops):
    """tr(rho O) with the chain operator O built and rho formed densely."""
    rho = _dense_rho(system, state)
    return complex(np.trace(rho @ _site_op(ops, system.d, system.n).toarray()))


def test_two_site_expectation_needs_two_sites():
    system = build_chain(2, 4)
    Sz = build_spin_rep(2).Sz
    with pytest.raises(ValueError, match="distinct"):
        two_site_expectation(system, gibbs(system, 1.0), Sz, Sz, 1, 1)
    with pytest.raises(ValueError, match="4-site chain"):
        two_site_expectation(system, gibbs(system, 1.0), Sz, Sz, 1, 4)


@pytest.mark.parametrize("kind", ["thermal", "vector", "block"])
def test_two_site_expectation_either_order(kind):
    # the odd ring has a 4-fold ground space; a random density matrix has no
    # reflection symmetry, so it tells site p from site q
    system = build_chain(2, 5)
    if kind == "thermal":
        rng = np.random.default_rng(8)
        z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        rho = z @ z.conj().T / np.trace(z @ z.conj().T)
        state = ThermalState(beta=0.0, blocks=((np.arange(32), rho),))
    else:
        g = ground(system)
        assert g.degeneracy == 4
        state = g.vectors if kind == "block" else g.vectors[:, 0]
    rep = build_spin_rep(2)
    for p, q in [(3, 1), (4, 0), (1, 3), (2, 3)]:
        got = two_site_expectation(system, state, rep.Sy, rep.Sz, p, q)
        want = _dense_expectation(system, state, {p: rep.Sy, q: rep.Sz})
        assert abs(got - want) <= 1e-12


def test_correlation_profile_builds_no_chain_operator():
    # a dense operator of the whole chain takes 16 dim^2 bytes, 16 MiB at
    # d = 2, n = 10; the thermal path, from the Gibbs state through the RP
    # Gram, must allocate less than one, and the profile under a sixteenth
    system = build_chain(2, 10)
    g = ground(system)
    tw = build_twist(build_spin_rep(2))
    tracemalloc.start()
    try:
        thermal = gibbs(system, 0.8)
        correlation_profile(system, thermal, 9)
        assert rp_gram_check(system, thermal, tw).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * system.dim ** 2
    states = (thermal, g.vectors, g.vectors[:, 0])
    Sz = build_spin_rep(2).Sz
    for state in states:
        tracemalloc.start()
        try:
            assert len(correlation_profile(system, state, 9)) == 9
            two_site_expectation(system, state, Sz, Sz, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < system.dim ** 2


def _gram_block_sizes(monkeypatch):
    """The sizes of the matrices passed to eigvalsh from now on."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def test_rp_gram_check_diagonalizes_block_by_block(monkeypatch):
    # d = 3, n = 6: the 729 x 729 Gram splits into 13 blocks of <= 141 rows
    system = build_chain(3, 6)
    state = gibbs(system, 0.9)
    sizes = _gram_block_sizes(monkeypatch)
    v = rp_gram_check(system, state, build_twist(build_spin_rep(3)))
    assert v.passed
    assert sum(sizes) == 729
    assert len(sizes) == 13 and max(sizes) == 141


def test_thermal_path_answers_on_the_largest_chain(monkeypatch):
    # d = 3, n = 8 has 6561 states, more than a dense Gibbs state allowed
    system = build_chain(3, 8)
    state = gibbs(system, 1.0)
    assert abs(sum(np.trace(rho) for _, rho in state.blocks) - 1) <= 1e-12
    # the Gibbs state is SU(2)-invariant, so <S0 . Sr> = 3 <Sz_0 Sz_r>
    for row in correlation_profile(system, state, 7):
        assert abs(row.total - 3 * row.zz) <= 1e-12
    sizes = _gram_block_sizes(monkeypatch)
    v = rp_gram_check(system, state, build_twist(build_spin_rep(3)))
    assert v.passed
    assert sum(sizes) == 6561 and max(sizes) == 1107


def test_gibbs_block_cap_refuses_before_allocating():
    # a ring in a transverse field is one component of all 6561 states,
    # whose eigenvectors alone would take 689 MB
    system = build_chain(3, 8, field=(0.1, 0.0, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="Gibbs block of 6561"):
            gibbs(system, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_BLOCK_BYTES / 8


def _refuse_eigsh(monkeypatch):
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("eigsh called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)


def test_ground_above_the_gibbs_cap_is_exact(monkeypatch):
    import scipy.sparse.linalg

    system = build_chain(3, 8, model="aklt-parent")
    assert system.dim == MAX_CHAIN_DIM
    v0 = np.random.default_rng(0).normal(size=system.dim)
    want = scipy.sparse.linalg.eigsh(_csr(system.H), k=6, which="SA", v0=v0)[0]
    _refuse_eigsh(monkeypatch)
    report = ground(system)
    assert report.degeneracy == 1 and abs(report.energy) <= 1e-12
    assert np.abs(_spectrum(system)[:6] - np.sort(want)).max() <= 1e-10


def test_iterative_ground_is_deterministic(monkeypatch):
    # above the Gibbs cap, once solved by Lanczos, now by the exact blocks
    _refuse_eigsh(monkeypatch)
    first = ground(build_chain(3, 8, model="aklt-parent"))
    second = ground(build_chain(3, 8, model="aklt-parent"))
    assert first.energy == second.energy and first.gap == second.gap
    assert first.degeneracy == second.degeneracy == 1
    assert np.array_equal(first.vectors, second.vectors)


# (d, n, J, periodic, model, field): both spins, both boundaries, both signs
# of J, the projector chain and a field that mixes every Sz sector
ED_CASES = [
    (2, 6, 1.0, True, "xxx", None),
    (2, 7, -1.0, False, "xxx", None),
    (2, 2, 1.0, True, "xxx", None),
    (3, 4, 1.0, True, "xxx", None),
    (3, 5, -1.0, False, "xxx", None),
    (3, 5, 1.0, True, "aklt-parent", None),
    (3, 4, 1.0, False, "aklt-parent", None),
    (2, 6, 1.0, True, "xxx", (0.3, 0.5, 0.2)),
    (3, 4, -1.0, False, "xxx", (0.0, 0.7, 0.0)),
]


@pytest.mark.parametrize("case", ED_CASES)
def test_block_eigh_matches_dense_spectrum(case):
    system = build_chain(*case)
    H = system.H.toarray()
    comps = system.blocks
    # a flipped component also stands for its image under x -> dim - 1 - x
    idx_all = np.sort(np.concatenate(
        [part for idx, _, flip in comps
         for part in ((idx, system.dim - 1 - idx) if flip else (idx,))]))
    assert np.array_equal(idx_all, np.arange(system.dim))
    assert np.abs(_spectrum(system) - np.linalg.eigvalsh(H)).max() <= 1e-12
    for idx, blocks, flip in comps:
        # the eigenvectors of every sector, a paired block's conjugates
        # standing for its partner's, back on the basis, are an orthonormal
        # eigenbasis of the component, and flipped, of its image
        U = []
        for b in blocks:
            wb, Vb = np.linalg.eigh(b.dense())
            x = np.zeros((system.dim, len(wb) * (1 + b.pair)), dtype=complex)
            E = b.expand(Vb)
            x[idx[b.rows]] = np.hstack([E, E.conj()]) if b.pair else E
            assert np.abs(H @ x - x * np.tile(wb, 1 + b.pair)).max() <= 1e-12
            if flip:
                y = x[::-1]
                assert np.abs(H @ y - y * np.tile(wb, 1 + b.pair)).max() <= 1e-12
            U.append(x[idx])
        U = np.hstack(U)
        assert np.abs(U.conj().T @ U - np.eye(len(idx))).max() <= 1e-12
    assert (len(comps) == 1) == (case[5] is not None)
    # an open chain has momentum 0 alone, split at most into its two
    # reflection halves; a periodic one splits by momentum as well, from
    # n = 3 on (on two sites the reflection is the translation)
    assert ((max(len(blocks) for _, blocks, _ in comps) > 2)
            == (case[3] and case[1] > 2))
    # only a chain with a real H pairs the momenta q and L - q, and a
    # periodic one does so from n = 3 on
    paired = any(b.pair for _, bl, _ in comps for b in bl)
    real = case[5] is None or case[5][1] == 0
    assert paired == (real and case[3] and case[1] > 2)
    # and every block of a real H is real
    kinds = {b.entries[2].dtype.kind for _, bl, _ in comps for b in bl}
    assert kinds == ({"f"} if real else {"c"})
    # the spin flip pairs the Sz sectors m and -m unless a field mixes them
    assert any(flip for _, _, flip in comps) == (case[5] is None)


def _matches_dense(system, beta=0.9):
    """The blocks' spectrum, ground and Gibbs states against one dense eigh
    of H, to 1e-12."""
    H = system.H.toarray()
    w, V = np.linalg.eigh(H)
    assert np.abs(_spectrum(system) - w).max() <= 1e-12
    g = ground(system)
    assert abs(g.energy - w[0]) <= 1e-12
    assert g.degeneracy == np.sum(w - w[0] <= 1e-9 * max(1.0, abs(w[0])))
    assert np.linalg.norm(H @ g.vectors - g.energy * g.vectors) <= 1e-12
    assert np.abs(g.vectors.conj().T @ g.vectors
                  - np.eye(g.degeneracy)).max() <= 1e-12
    z = np.exp(-beta * (w - w[0]))
    rho = (V * (z / z.sum())) @ V.conj().T
    assert np.abs(_dense_rho(system, gibbs(system, beta)) - rho).max() <= 1e-12


@st_.composite
def _small_chains(draw):
    """(d, n, J, periodic, model, field) with d^n <= 729: both boundaries,
    both signs of J and J = 0, both models, and fields along x (real,
    flip-symmetric), z (real, breaks the flip) and y (complex)."""
    d = draw(st_.sampled_from([2, 3]))
    n = draw(st_.integers(2, 9 if d == 2 else 6))
    f = draw(st_.floats(0.05, 1.5))
    return (d, n, draw(st_.sampled_from([1.0, -1.0, 0.0])), draw(st_.booleans()),
            draw(st_.sampled_from(["xxx", "aklt-parent"] if d == 3 else ["xxx"])),
            draw(st_.sampled_from([None, (f, 0.0, 0.0), (0.0, 0.0, f),
                                   (0.0, f, 0.0)])))


@settings(max_examples=30, deadline=None)
@given(case=_small_chains())
# at J = 0 the components are the orbits, and the reflection maps the
# orbit of 0012 onto that of 0021: it is a symmetry of H but not of the
# components, so it is not used
@example(case=(3, 4, 0.0, True, "xxx", (0.0, 0.0, 0.3)))
def test_symmetry_blocks_match_dense_eigh(case):
    _matches_dense(build_chain(*case))


@pytest.mark.parametrize("axis", [0, 2])
def test_one_site_field_breaks_the_symmetries_and_still_matches(axis):
    # a field on site 0 alone: along z it breaks the spin flip and the
    # reflection, along x the reflection only, and neither is used
    d, n = 3, 4
    one = np.kron(build_spin_rep(d).generators()[axis], np.eye(d ** (n - 1)))
    H = build_chain(d, n, periodic=False).H.toarray() + 0.4 * one
    system = SpinChainSystem(d=d, n=n, J=1.0, periodic=False, model="xxx",
                             H=_coo(H))
    if axis == 2:
        assert not any(flip for _, _, flip in system.blocks)
    # without the reflection a component is one block at q = 0
    assert all(len(bl) == 1 for _, bl, _ in system.blocks)
    _matches_dense(system)


@pytest.mark.parametrize("case", [
    (3, 5, 1.0, True, "aklt-parent", None), (2, 8, 1.0, True, "xxx", None),
    (3, 4, -1.0, False, "xxx", None), (2, 6, 1.0, True, "xxx", (0.4, 0.0, 0.3)),
])
def test_a_real_hamiltonian_is_solved_in_real_blocks(case, monkeypatch):
    system = build_chain(*case)
    kinds = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def spy(a, *args, solver=solver, **kwargs):
            kinds.append(a.dtype.kind)
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    ground(system)
    gibbs(system, 1.0)
    assert kinds and set(kinds) == {"f"}


@pytest.mark.parametrize("case", ED_CASES + [(2, 5, 1.0, True, "xxx", None)])
def test_ground_vectors_are_eigenvectors(case):
    # the frustrated five-ring has its fourfold ground space at momenta
    # q and L - q, so half of its vectors are the partners' conjugates
    system = build_chain(*case)
    g = ground(system)
    H = system.H.toarray()
    assert np.linalg.norm(H @ g.vectors - g.energy * g.vectors) <= 1e-12
    assert np.abs(g.vectors.conj().T @ g.vectors
                  - np.eye(g.degeneracy)).max() <= 1e-12
    w = np.linalg.eigvalsh(H)
    assert abs(g.energy - w[0]) <= 1e-12
    assert g.degeneracy == np.sum(w - w[0] <= 1e-9 * max(1.0, abs(w[0])))


@pytest.mark.parametrize("case", ED_CASES)
def test_gibbs_matches_dense_build(case):
    system = build_chain(*case)
    w, V = np.linalg.eigh(system.H.toarray())
    z = np.exp(-1.3 * (w - w.min()))
    rho = (V * (z / z.sum())) @ V.conj().T
    assert np.abs(_dense_rho(system, gibbs(system, 1.3)) - rho).max() <= 1e-12


@pytest.mark.parametrize("case", ED_CASES)
def test_block_marginals_match_the_dense_partial_trace(case):
    system = build_chain(*case)
    rng = np.random.default_rng(3)
    for state in (gibbs(system, 1.3), _random_block_state(system.dim, rng)):
        rho = _dense_rho(system, state)
        for p in range(system.n):
            for q in range(p + 1, system.n):
                got = chains._pair_marginal(system, state, p, q)
                want = _dense_pair_marginal(system, rho, p, q)
                assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("d, n, periodic, deg", [
    (2, 10, True, 11), (3, 6, True, 13), (2, 8, False, 9), (3, 8, True, 17),
])
def test_ferromagnet_degeneracy_exact(d, n, periodic, deg):
    # the ground space of the ferromagnet is the spin-(n s) multiplet,
    # 2 n s + 1 = n (d - 1) + 1 states
    g = ground(build_chain(d, n, -1.0, periodic))
    assert g.degeneracy == deg == n * (d - 1) + 1
    assert np.abs(g.vectors.conj().T @ g.vectors - np.eye(deg)).max() <= 1e-12


def _schmidt_reference_chain(d, n, J, periodic, model, field):
    """H assembled from an SVD operator-Schmidt split of the two-site term,
    h2 = sum_t A_t (x) B_t, one site operator per term and bond."""
    h2 = _two_site_hamiltonian(d, J, model)
    M = h2.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = np.linalg.svd(M)
    terms = [((u[:, t] * s[t]).reshape(d, d), vh[t].reshape(d, d))
             for t in range(len(s)) if s[t] > 1e-12]
    bonds = [(p, p + 1) for p in range(n - 1)] + ([(n - 1, 0)] if periodic else [])
    H = sp.csr_matrix((d ** n, d ** n), dtype=complex)
    for p, q in bonds:
        for A, B in terms:
            H = H + _site_op({p: A, q: B}, d, n)
    if field is not None:
        rep = build_spin_rep(d)
        one = sum(f * S for f, S in zip(field, rep.generators()))
        for p in range(n):
            H = H + _site_op({p: one}, d, n)
    return ((H + H.conj().T) / 2).tocsr()


@pytest.mark.parametrize("case", ED_CASES)
def test_build_chain_matches_schmidt_reference(case):
    H = build_chain(*case).H
    ref = _schmidt_reference_chain(*case)
    assert abs(_csr(H) - ref).max() <= 1e-14
    assert H.nnz <= ref.nnz


def _matrix_unit_reference_chain(d, n, J, periodic, model, field):
    """H with the wrap bond split into matrix units on site n-1,
    h2 = sum_ac |a><c| (x) h2[a,:,c,:], each term a product of site operators."""
    h2 = _two_site_hamiltonian(d, J, model)
    H = sp.csr_matrix((d ** n, d ** n), dtype=complex)
    bond = sp.csr_matrix(h2)
    for p in range(n - 1):
        H = H + sp.kron(sp.kron(sp.identity(d ** p, dtype=complex, format="csr"),
                                bond, format="csr"),
                        sp.identity(d ** (n - p - 2), dtype=complex, format="csr"),
                        format="csr")
    if periodic:
        h4 = h2.reshape(d, d, d, d)
        for a in range(d):
            for c in range(d):
                if not h4[a, :, c, :].any():
                    continue
                unit = np.zeros((d, d))
                unit[a, c] = 1.0
                H = H + _site_op({0: h4[a, :, c, :], n - 1: unit}, d, n)
    if field is not None:
        rep = build_spin_rep(d)
        one = sum(f * S for f, S in zip(field, rep.generators()))
        for p in range(n):
            H = H + _site_op({p: one}, d, n)
    return ((H + H.conj().T) / 2).tocsr()


@pytest.mark.parametrize("case", ED_CASES + [
    (2, 10, 1.0, True, "xxx", None),
    (3, 8, -1.0, True, "xxx", None),
    (4, 5, 1.0, True, "xxx", None),
    (3, 8, 1.0, True, "aklt-parent", None),
])
def test_build_chain_bit_identical_to_matrix_unit_reference(case):
    H = _csr(build_chain(*case).H)
    ref = _matrix_unit_reference_chain(*case)
    H.sort_indices()
    ref.sort_indices()
    assert np.array_equal(H.indptr, ref.indptr)
    assert np.array_equal(H.indices, ref.indices)
    assert np.array_equal(H.data, ref.data)


def _workload_chains():
    """(d, n, J, periodic, model, field) of every chain the benchmark's
    correlation-oracle workload diagonalizes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return ([(d, n, 1.0, True, model, None) for model, d, n in workloads.ED_GROUND]
            + [(d, n, 1.0, True, "xxx", None) for d, n in workloads.ED_THERMAL])


# the chains of the golden ed commands in test_cli_golden
GOLDEN_CHAINS = [
    (2, 6, 1.0, True, "xxx", None), (3, 6, 1.0, True, "aklt-parent", None),
    (3, 6, 1.0, True, "xxx", None), (2, 10, 1.0, True, "xxx", None),
    (3, 8, 1.0, True, "aklt-parent", None), (3, 8, -1.0, True, "xxx", None),
]


@pytest.mark.parametrize("case", ED_CASES + _workload_chains())
def test_build_chain_entries_equal_the_scipy_builder(case):
    # same pattern, same values bit for bit, same nnz
    H = build_chain(*case).H
    ref = _scipy_reference_chain(*case)
    got = _csr(H)
    got.sort_indices()
    ref.sort_indices()
    assert H.nnz == ref.nnz
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
    # ordered by column, then by row
    assert np.all(np.diff(H.col * H.shape[0] + H.row) > 0)


def test_build_chain_hermitizes_like_the_scipy_builder(monkeypatch):
    # a two-site term that is Hermitian only to 1e-3 makes (H + H*)/2 move
    # every entry off the diagonal; the field adds a complex one-site term
    original = chains._two_site_hamiltonian

    def skewed(d, J, model):
        h2 = original(d, J, model)
        rng = np.random.default_rng(3)
        noise = rng.normal(size=h2.shape) + 1j * rng.normal(size=h2.shape)
        return h2 + 1e-3 * noise * (h2 != 0)

    monkeypatch.setattr(chains, "_two_site_hamiltonian", skewed)
    for case in [(3, 4, 1.0, True, "aklt-parent", None),
                 (2, 5, 1.0, False, "xxx", (0.3, 0.5, 0.2))]:
        H = _csr(build_chain(*case).H)
        ref = _scipy_reference_chain(*case)
        H.sort_indices()
        ref.sort_indices()
        assert np.array_equal(H.indptr, ref.indptr)
        assert np.array_equal(H.indices, ref.indices)
        assert np.array_equal(H.data, ref.data)


def test_dense_block_cap_refuses_before_allocating():
    # an open chain in a field along y is one complex block of all 6561
    # states, 689 MB: the field mixes every Sz sector and breaks the spin
    # flip, and a complex H has no reflection halves
    system = build_chain(3, 8, periodic=False, field=(0.0, 0.1, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="dense block of 6561"):
            ground(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_BLOCK_BYTES / 8


@pytest.mark.parametrize("case", ED_CASES + _workload_chains() + GOLDEN_CHAINS)
def test_no_oracle_chain_reaches_the_block_cap(case):
    blocks = [b for _, bl, _ in build_chain(*case).blocks for b in bl]
    biggest = max(b.size ** 2 * b.entries[2].itemsize for b in blocks)
    assert biggest <= MAX_BLOCK_BYTES / 8


def test_equal_blocks_share_one_eigensolve(monkeypatch):
    # d = 2, n = 6 has 36 (component, momentum, reflection parity) blocks,
    # of which the spin flip and the conjugate pairs leave 16, all real, in
    # 3 classes of (size, type)
    system = build_chain(2, 6)
    blocks = [b for _, bl, _ in system.blocks for b in bl]
    classes = {(b.size, b.entries[2].dtype) for b in blocks}
    assert len(blocks) == 16 and len(classes) == 3
    assert sum((1 + b.pair) * (1 + flip)
               for _, bl, flip in system.blocks for b in bl) == 36
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    spectra = chains._solve(blocks, vectors=False)
    assert len(calls) == len(classes)
    for b, w in zip(blocks, spectra):
        assert np.abs(w - eigvalsh(b.dense())).max() <= 1e-14


def test_aklt_parent_has_no_fill_in():
    # the two-site projector has 19 nonzero entries, none tiny; roundoff
    # fill-in would also couple all 2n + 1 = 13 Sz sectors into one block
    system = build_chain(3, 6, model="aklt-parent")
    H = system.H
    assert np.abs(H.data).min() >= 1e-12
    # the components are the Sz sectors with or without translation and
    # reflection, which keep Sz; the spin flip builds Sz = 0 and one of
    # each pair +-m
    no_symmetry = np.arange(system.dim)
    for comps in (_orbit_blocks(H, no_symmetry, no_symmetry), system.blocks):
        assert len(comps) == 7
        assert sum(1 + flip for _, _, flip in comps) == 13


def test_imaginary_coupling_is_one_block():
    # casting the complex matrix to a real graph would drop the 0-1 edge
    H = _coo(np.array([[0.0, 1j, 0.0], [-1j, 0.0, 2.0], [0.0, 2.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comps = _orbit_blocks(H, np.arange(3), np.arange(3))
    assert len(comps) == 1 and len(comps[0][1]) == 1
    w = np.linalg.eigvalsh(comps[0][1][0].dense())
    assert np.abs(w - np.linalg.eigvalsh(H.toarray())).max() <= 1e-12


@pytest.mark.parametrize("case", [
    (2, 5, 1.0, True, "xxx", None),
    (2, 7, 1.0, False, "xxx", None),
    (2, 6, -1.0, True, "xxx", None),
    (3, 6, 1.0, False, "aklt-parent", None),
])
def test_ground_correlations_basis_independent(case):
    system = build_chain(*case)
    g = ground(system)
    assert g.degeneracy > 1
    rng = np.random.default_rng(7)
    k = g.degeneracy
    u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    r_max = system.n - 1
    rows = correlation_profile(system, g.vectors, r_max)
    rotated = correlation_profile(system, g.vectors @ u, r_max)
    # the ground-space average is the thermal expectation in P / deg
    proj = ThermalState(beta=np.inf, blocks=(
        (np.arange(system.dim), g.vectors @ g.vectors.conj().T / k),))
    averaged = correlation_profile(system, proj, r_max)
    for a, b, c in zip(rows, rotated, averaged):
        assert abs(a.total - b.total) <= 1e-12 and abs(a.zz - b.zz) <= 1e-12
        assert abs(a.total - c.total) <= 1e-12 and abs(a.zz - c.zz) <= 1e-12
