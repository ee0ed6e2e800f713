"""The transfer operator on the GNS space and its spectral gap.

The GNS space of (M, phi) is realized as k x k matrices y with the
Hilbert-Schmidt inner product (vector of the algebra element x is
x rho^{1/2}); the cyclic vector is psi = rho^{1/2}.  In these coordinates the
transfer operator T y = tau(x) rho^{1/2} for y = x rho^{1/2} has matrix
sum_i v_i (x) conj(rho^{1/2} v_i rho^{-1/2}) on row-major vec(y).

Both T and T* fix psi, so psi reduces T, and T_c = T - psi psi* is T on the
orthogonal complement of psi (and 0 on psi).  That one matrix gives the
gap, the decay bound and the correlation sweep.  Its spectrum is that of
the similar map x -> sum_i v_i x v_i*, which keeps x Hermitian and so has
a real matrix in an orthonormal Hermitian basis: one real eigvals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _require_tol
from .fcs import _hermitian_coordinates, _read_only, _rho_roots

__all__ = [
    "TransferOperator",
    "GapReport",
    "DecayRow",
    "DecayCertificate",
    "build_transfer",
    "gap",
    "two_point",
    "decay_certificate",
]


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """T in GNS coordinates, read-only; spectrum and defect computed once.
    Equality is identity, so an operator hashes."""

    matrix: np.ndarray        # k^2 x k^2, GNS coordinates
    sqrt_rho: np.ndarray      # rho^{1/2}, the cyclic vector psi as a matrix
    inv_sqrt_rho: np.ndarray  # rho^{-1/2}

    def __post_init__(self):
        for name in ("matrix", "sqrt_rho", "inv_sqrt_rho"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def k(self):
        return self.sqrt_rho.shape[0]

    @cached_property
    def spectrum(self):
        """The eigenvalues of T, unsorted (gap sorts them), from one real
        eigvals.

        T = R_{rho^{1/2}} tau R_{rho^{-1/2}} is similar to the transfer map
        tau(x) = sum_i v_i x v_i*, which keeps x Hermitian, so the matrix
        U* tau U of tau in the orthonormal Hermitian basis U of the k x k
        matrices (fcs._hermitian_coordinates) is real.  Its real eigenvalues
        are exactly real and the others come in exact conjugate pairs.
        """
        k = self.k
        # tau^T = (I (x) rho^{1/2}) T^T (I (x) rho^{-1/2}): its row (c, e),
        # as a k x k matrix, is tau(E_ce)
        tau_t = (self.sqrt_rho @ self.matrix.T.reshape(k, k, k * k)
                 ).reshape(k * k, k, k) @ self.inv_sqrt_rho
        left = _hermitian_coordinates(tau_t).T  # U* tau
        # row r of (U* tau) U is r U = conj(U* conj(r)), whose real part it is
        tau = _hermitian_coordinates(left.conj().reshape(k * k, k, k)).real
        return _read_only(np.linalg.eigvals(tau))

    @cached_property
    def selfadjoint_defect(self):
        """Spectral-norm defect ||T - T*|| in the GNS inner product."""
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T, 2))

    def centered(self):
        """T_c = T - psi psi*."""
        psi = self.sqrt_rho.reshape(-1)
        return self.matrix - np.outer(psi, psi.conj())


@dataclass(frozen=True)
class GapReport:
    eigenvalues: tuple
    delta: float
    selfadjoint_defect: float
    fixed_multiplicity: int


@dataclass(frozen=True)
class DecayRow:
    n: int
    corr: complex
    bound: float

    @property
    def margin(self):
        return self.bound - abs(self.corr)


@dataclass(frozen=True)
class DecayCertificate:
    rows: tuple
    gap: GapReport
    delta: float
    beta_max: float
    selfadjoint: bool
    verdict: str
    reason: str = ""

    @property
    def passed(self):
        return self.verdict == "pass"


def build_transfer(state):
    """The transfer operator of state, built on the first call and kept."""
    return state._once("transfer", lambda: _transfer_operator(state))


def _transfer_operator(state):
    sq, inv_sq, _ = state._once("rho_roots", lambda: _rho_roots(state.rho))
    mat = sum(np.kron(v, (sq @ v @ inv_sq).conj()) for v in state.kraus.v)
    return TransferOperator(matrix=mat, sqrt_rho=sq, inv_sqrt_rho=inv_sq)


def _sort_eigs(w):
    return tuple(sorted(w, key=lambda z: (-abs(z), -z.real, -z.imag)))


def gap(t, tol=1e-9):
    """Spectral report: eigenvalues, fixed multiplicity, and the gap delta.

    delta is the spectral radius of T_c: the largest eigenvalue modulus of
    T once the one eigenvalue nearest 1, that of the cyclic vector, is
    removed.  For a degenerate fixed space delta is reported as 1 (no gap).
    """
    _require_tol(tol)
    w = t.spectrum
    fixed_mult = int(np.sum(np.abs(w - 1.0) <= tol))
    wc = np.delete(w, np.argmin(np.abs(w - 1.0)))
    delta = 1.0 if fixed_mult > 1 else min(float(np.abs(wc).max(initial=0.0)), 1.0)
    return GapReport(
        eigenvalues=_sort_eigs(w),
        delta=delta,
        selfadjoint_defect=t.selfadjoint_defect,
        fixed_multiplicity=max(fixed_mult, 1),
    )


def _observable(name, X, d):
    """X as a complex array; ValueError naming it unless finite and d x d."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (d, d):
        raise ValueError(f"observable {name} must be {d}x{d}, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"observable {name} has a non-finite entry")
    return X


def _insertions(state, t, A, B):
    """GNS vectors a = vec(sigma_Ac* rho^{-1/2}) and b = vec(xBc rho^{1/2})
    of the centered one-site insertions, so corr(n) = <a, T_c^(n-1) b>."""
    A = _observable("A", A, state.d)
    B = _observable("B", B, state.d)
    V = state.kraus.stacked()
    d, k = state.d, state.k
    Vh = V.conj().transpose(0, 2, 1)
    rho = state.rho
    # sigma_A with trace(sigma_A x) = omega(A (x) ...) = sum A_ij tr(rho v_i x v_j*),
    # so sigma_A = sum_j v_j* rho (sum_i A_ij v_i) and xB = sum_i v_i (sum_j B_ij v_j*),
    # each one product of a row of blocks with a column of blocks
    AV = (A.T @ V.reshape(d, -1)).reshape(d, k, k)
    BVh = (B @ Vh.reshape(d, -1)).reshape(d, k, k)
    sigma_A = Vh.transpose(1, 0, 2).reshape(k, -1) @ (rho @ AV).reshape(-1, k)
    xB = V.transpose(1, 0, 2).reshape(k, -1) @ BVh.reshape(-1, k)
    sigma_Ac = sigma_A - np.trace(sigma_A) * rho
    xBc = xB - np.trace(rho @ xB) * np.eye(k)
    a = (sigma_Ac.conj().T @ t.inv_sqrt_rho).reshape(-1)
    b = (xBc @ t.sqrt_rho).reshape(-1)
    return a, b


def _correlations(Tc, a, b, n_max):
    """Connected correlations <a, T_c^(n-1) b> for n = 1..n_max from one
    sweep y <- T_c y."""
    y = b
    corr = [complex(np.vdot(a, y))]
    for _ in range(n_max - 1):
        y = Tc @ y
        corr.append(complex(np.vdot(a, y)))
    return corr


def two_point(state, A, B, n):
    """Connected correlation omega(A theta^n(B)) - omega(A) omega(B), n >= 1."""
    if n < 1:
        raise ValueError("two_point requires n >= 1 (disjoint supports)")
    t = build_transfer(state)
    return _correlations(t.centered(), *_insertions(state, t, A, B), n)[-1]


def decay_certificate(state, A, B, n_max, tol=1e-9):
    """Verify |corr(n)| <= delta^(n-1) ||a|| ||b|| for n = 1..n_max.

    a, b are the GNS vectors of the centered insertions that the sweep
    pairs.  For a non-self-adjoint T the bound uses the norms ||T_c^(n-1)||
    instead of delta^(n-1).  tol bounds both the distance of a fixed
    eigenvalue from 1 and the self-adjoint defect ||T - T*|| that counts as
    self-adjoint.  A degenerate fixed space or a non-finite row refuses a pass.
    """
    _require_tol(tol)
    if n_max < 1:
        raise ValueError(f"decay certificate needs n_max >= 1, got {n_max}")
    t = build_transfer(state)
    rep = gap(t, tol)
    Tc = t.centered()
    a, b = _insertions(state, t, A, B)
    scale = float(np.linalg.norm(a) * np.linalg.norm(b))
    selfadjoint = rep.selfadjoint_defect <= tol

    if selfadjoint:
        bounds = [rep.delta ** (n - 1) * scale for n in range(1, n_max + 1)]
    else:
        # ||T_c^0|| = ||I|| = 1
        bounds, power = [scale], Tc
        for n in range(2, n_max + 1):
            if n > 2:
                power = power @ Tc
            bounds.append(float(np.linalg.norm(power, 2)) * scale)
    corr = _correlations(Tc, a, b, n_max)
    rows = [DecayRow(n=n, corr=c, bound=bd)
            for n, c, bd in zip(range(1, n_max + 1), corr, bounds)]

    slack = 1e-12 * max(1.0, scale)
    violations = [r.n for r in rows
                  if not (math.isfinite(r.bound) and abs(r.corr) <= r.bound + slack)]
    beta_max = -math.log(rep.delta) if rep.delta > 0 else math.inf

    if rep.fixed_multiplicity > 1:
        verdict, reason = "fail", "degenerate fixed space: correlations need not decay"
    elif violations:
        verdict, reason = "fail", f"bound violated at n = {violations}"
    else:
        verdict, reason = "pass", ""
    return DecayCertificate(
        rows=tuple(rows),
        gap=rep,
        delta=rep.delta,
        beta_max=beta_max,
        selfadjoint=selfadjoint,
        verdict=verdict,
        reason=reason,
    )
