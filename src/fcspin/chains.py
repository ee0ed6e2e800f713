"""Finite periodic spin chains as an independent oracle.

Dense or iterative diagonalization of nearest-neighbour isotropic chains
(the Heisenberg antiferromagnet and the spin-1 bilinear-biquadratic
projector point), ground and Gibbs states, correlation profiles, gap
scans, and the finite-volume reflection-positivity Gram check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .errors import ResourceLimitError
from .su2 import build_spin_rep
from .symmetry import _as_twist_matrix, _reflect_twist_matrix, _rp_gram_verdict

__all__ = [
    "SpinChainSystem",
    "GroundReport",
    "ThermalState",
    "CorrelationRow",
    "MAX_CHAIN_DIM",
    "MAX_DENSE_DIM",
    "build_chain",
    "translation_operator",
    "ground",
    "gibbs",
    "correlation_profile",
    "two_site_expectation",
    "rp_gram_check",
    "gap_scan",
]

MAX_CHAIN_DIM = 6561   # largest Hilbert-space dimension we diagonalize
MAX_DENSE_DIM = 4096   # dense eigensolve threshold; iterative above


@dataclass(frozen=True)
class SpinChainSystem:
    d: int
    n: int
    J: float
    periodic: bool
    model: str
    H: sp.csr_matrix

    @property
    def dim(self):
        return self.d ** self.n


@dataclass(frozen=True)
class GroundReport:
    energy: float
    degeneracy: int
    vectors: np.ndarray  # dim x degeneracy, orthonormal columns
    gap: float           # first excitation energy above the ground window


@dataclass(frozen=True)
class ThermalState:
    beta: float
    rho: np.ndarray


@dataclass(frozen=True)
class CorrelationRow:
    r: int
    total: float  # connected <S0 . Sr>
    zz: float     # connected <Sz_0 Sz_r>


def _two_site_hamiltonian(d, J, model):
    rep = build_spin_rep(d)
    SS = sum(np.kron(S, S) for S in rep.generators())
    if model == "xxx":
        return J * SS
    if model == "aklt-parent":
        if d != 3:
            raise ValueError("the bilinear-biquadratic projector point needs d = 3")
        eye = np.eye(d * d)
        # projector onto the two-site spin-2 subspace
        return J * (SS / 2 + (SS @ SS) / 6 + eye / 3)
    raise ValueError(f"unknown model {model!r}; expected 'xxx' or 'aklt-parent'")


def _schmidt_terms(h2, d, tol=1e-12):
    """Operator Schmidt decomposition h2 = sum_t A_t (x) B_t."""
    M = h2.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = np.linalg.svd(M)
    terms = []
    for t in range(len(s)):
        if s[t] <= tol:
            break
        terms.append((
            (u[:, t] * s[t]).reshape(d, d),
            vh[t].reshape(d, d),
        ))
    return terms


def _site_op(ops, d, n):
    """Sparse operator with the given {position: matrix} factors, identity elsewhere."""
    out = sp.identity(1, dtype=complex, format="csr")
    for p in range(n):
        factor = ops.get(p)
        block = sp.identity(d, dtype=complex, format="csr") if factor is None \
            else sp.csr_matrix(np.asarray(factor, dtype=complex))
        out = sp.kron(out, block, format="csr")
    return out


def build_chain(d, n, J=1.0, periodic=True, model="xxx", field=None):
    """Nearest-neighbour isotropic chain on n sites.

    field, if given, adds sum_sites (fx Sx + fy Sy + fz Sz) — useful as a
    symmetry-breaking control; the unperturbed models commute with the
    total-spin generators and (when periodic) with translation.
    """
    if n < 2:
        raise ValueError("a chain needs at least two sites")
    if not np.isfinite(J):
        raise ValueError(f"J must be finite, got {J!r}")
    if d ** n > MAX_CHAIN_DIM:
        raise ResourceLimitError(
            f"chain dimension {d}^{n} exceeds the cap {MAX_CHAIN_DIM}"
        )
    h2 = _two_site_hamiltonian(d, float(J), model)
    terms = _schmidt_terms(h2, d)
    H = sp.csr_matrix((d ** n, d ** n), dtype=complex)
    bonds = [(p, p + 1) for p in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    for p, q in bonds:
        for A, B in terms:
            H = H + _site_op({p: A, q: B}, d, n)
    if field is not None:
        rep = build_spin_rep(d)
        one = sum(f * S for f, S in zip(field, rep.generators()))
        for p in range(n):
            H = H + _site_op({p: one}, d, n)
    H = (H + H.conj().T) / 2
    return SpinChainSystem(d=d, n=n, J=float(J), periodic=bool(periodic),
                           model=model, H=H.tocsr())


def translation_operator(d, n):
    """Permutation matrix shifting site p to site p+1 mod n."""
    dim = d ** n
    src = np.arange(dim).reshape((d,) * n)
    dst = np.moveaxis(src, -1, 0).reshape(-1)  # new leading index = old last site
    T = sp.csr_matrix((np.ones(dim), (dst, np.arange(dim))), shape=(dim, dim))
    return T


def ground(system, rel_window=1e-9, k_lowest=6):
    """Lowest eigenpair(s) with the degeneracy counted in a relative window."""
    dim = system.dim
    if dim <= MAX_DENSE_DIM:
        w, V = np.linalg.eigh(system.H.toarray())
    else:
        k = min(k_lowest, dim - 2)
        # a fixed start vector makes the Lanczos run, and so its output,
        # the same on every call
        v0 = np.random.default_rng(0).normal(size=dim)
        w, V = eigsh(system.H, k=k, which="SA", v0=v0)
        order = np.argsort(w)
        w, V = w[order], V[:, order]
    e0 = float(w[0])
    window = rel_window * max(1.0, abs(e0))
    deg = int(np.sum(w - e0 <= window))
    above = w[w - e0 > window]
    gap_val = float(above[0] - e0) if above.size else float("nan")
    return GroundReport(energy=e0, degeneracy=deg, vectors=V[:, :deg],
                        gap=gap_val)


def gibbs(system, beta):
    """Thermal state exp(-beta H)/Z via the spectral decomposition."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    if system.dim > MAX_DENSE_DIM:
        raise ResourceLimitError(
            f"Gibbs state needs a dense eigensolve; dimension {system.dim} "
            f"exceeds {MAX_DENSE_DIM}"
        )
    w, V = np.linalg.eigh(system.H.toarray())
    z = np.exp(-beta * (w - w.min()))  # shift guards against overflow
    z = z / z.sum()
    rho = (V * z) @ V.conj().T
    return ThermalState(beta=float(beta), rho=rho)


def _expect(state, op):
    if isinstance(state, ThermalState):
        # trace(rho op) = sum_ij op[i, j] rho[j, i], without densifying op
        return complex(op.multiply(state.rho.T).sum())
    psi = np.asarray(state).reshape(-1)
    return complex(psi.conj() @ (op @ psi))


def two_site_expectation(system, state, A, B, p, q):
    """<A at site p, B at site q> in a vector or thermal state."""
    op = _site_op({p: A, q: B}, system.d, system.n)
    return _expect(state, op)


def correlation_profile(system, state, r_max):
    """Connected <S0 . Sr> and <Sz_0 Sz_r> for r = 1..r_max."""
    if r_max >= system.n:
        raise ValueError("r_max must be smaller than the number of sites")
    rep = build_spin_rep(system.d)
    one_site = [
        complex(_expect(state, _site_op({0: S}, system.d, system.n)))
        for S in rep.generators()
    ]
    rows = []
    for r in range(1, r_max + 1):
        total = sum(
            _expect(state, _site_op({0: S, r: S}, system.d, system.n))
            for S in rep.generators()
        )
        site_r = [
            complex(_expect(state, _site_op({r: S}, system.d, system.n)))
            for S in rep.generators()
        ]
        total -= sum(a * b for a, b in zip(one_site, site_r))
        zz = _expect(state, _site_op({0: rep.Sz, r: rep.Sz}, system.d, system.n))
        zz -= one_site[2] * site_r[2]
        rows.append(CorrelationRow(r=r, total=float(total.real),
                                   zz=float(zz.real)))
    return tuple(rows)


def rp_gram_check(system, state, twist, tol=1e-9):
    """Reflection-positivity Gram check about the central bond.

    state may be a ThermalState, an inverse temperature (a Gibbs state is
    built), or a pure-state vector.  Its density matrix, transposed, is the
    window tensor W[I, J] = omega(|e_I><e_J|) of the whole chain; the dense
    Gram matrix over the matrix units of the right half pairs each against
    its twisted mirror image on the left half, and gets the verdict of
    check_reflection_positive.
    """
    if system.n % 2 != 0:
        raise ValueError("reflection about the central bond needs an even chain")
    if isinstance(state, (int, float)):
        state = gibbs(system, float(state))
    r0 = _as_twist_matrix(twist, system.d)
    if isinstance(state, ThermalState):
        rho = state.rho
    else:
        psi = np.asarray(state, dtype=complex).reshape(-1)
        rho = np.outer(psi, psi.conj())
    m = system.n // 2
    D = system.d ** m
    Rr = _reflect_twist_matrix(r0, m)
    G = np.einsum("ia,jb,ixjy->abxy", Rr.conj(), Rr, rho.T.reshape(D, D, D, D),
                  optimize=True).reshape(D * D, D * D)
    return _rp_gram_verdict(G, m, tol, zero_mode=False)


def gap_scan(d, J, n_list, periodic=True, model="xxx"):
    """Table of (n, first excitation gap) for the given sizes."""
    rows = []
    for n in n_list:
        system = build_chain(d, n, J, periodic, model)
        rep = ground(system)
        rows.append((int(n), rep.gap))
    return tuple(rows)
