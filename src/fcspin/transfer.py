"""The transfer operator on the GNS space and its spectral gap.

The GNS space of (M, phi) is realized as k x k matrices y with the
Hilbert-Schmidt inner product (vector of the algebra element a is
a rho^{1/2}); the cyclic vector is rho^{1/2}.  In these coordinates the
transfer operator T y = tau(x) rho^{1/2} for y = x rho^{1/2} has matrix
sum_i v_i (x) conj(rho^{1/2} v_i rho^{-1/2}) on row-major vec(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fcs import FcsState, transfer_matrix, _rho_roots

__all__ = [
    "TransferOperator",
    "GapReport",
    "DecayRow",
    "DecayCertificate",
    "build_transfer",
    "check_selfadjoint",
    "gap",
    "two_point",
    "decay_certificate",
]


@dataclass(frozen=True)
class TransferOperator:
    k: int
    matrix: np.ndarray  # k^2 x k^2, GNS coordinates
    cyclic: np.ndarray  # vec(rho^{1/2})
    state: FcsState


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
    anorm: float
    bnorm: float
    selfadjoint: bool
    verdict: str
    violations: tuple
    reason: str = ""

    @property
    def passed(self):
        return self.verdict == "pass"


def build_transfer(state):
    sq, inv_sq, _ = _rho_roots(state.rho)
    mat = sum(np.kron(v, (sq @ v @ inv_sq).conj()) for v in state.kraus.v)
    return TransferOperator(k=state.k, matrix=mat, cyclic=sq.reshape(-1), state=state)


def check_selfadjoint(t):
    """Spectral-norm defect ||T - T*|| in the GNS inner product."""
    defect = float(np.linalg.norm(t.matrix - t.matrix.conj().T, 2))
    return defect


def _sort_eigs(w):
    return tuple(sorted(w, key=lambda z: (-abs(z), -z.real, -z.imag)))


def _restricted(t):
    """T on the orthogonal complement of the cyclic vector, in a QR basis."""
    Q, _ = np.linalg.qr(t.cyclic.reshape(-1, 1), mode="complete")
    return Q[:, 1:].conj().T @ t.matrix @ Q[:, 1:]


def gap(t, tol=1e-9):
    """Spectral report: eigenvalues, fixed multiplicity, and the gap delta.

    delta is the largest eigenvalue modulus of T restricted to the
    orthogonal complement of the cyclic vector; for a degenerate fixed
    space delta is reported as 1 (no gap).
    """
    w = np.linalg.eigvals(t.matrix)
    fixed_mult = int(np.sum(np.abs(w - 1.0) <= tol))
    wc = np.linalg.eigvals(_restricted(t))
    delta = 1.0 if fixed_mult > 1 else float(np.abs(wc).max()) if wc.size else 0.0
    delta = min(max(delta, 0.0), 1.0)
    return GapReport(
        eigenvalues=_sort_eigs(w),
        delta=delta,
        selfadjoint_defect=check_selfadjoint(t),
        fixed_multiplicity=max(fixed_mult, 1),
    )


def _insertions(state, A, B):
    """Centered one-site insertion data for the two-point contraction."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    V = state.kraus.stacked()
    rho = state.rho
    # sigma_A with trace(sigma_A x) = omega(A (x) ...) = sum A_ij tr(rho v_i x v_j*)
    sigma_A = np.einsum("ij,jba,bc,icd->ad", A, V.conj(), rho, V, optimize=True)
    xB = np.einsum("ij,iab,jcb->ac", B, V, V.conj(), optimize=True)
    sigma_Ac = sigma_A - np.trace(sigma_A) * rho
    xBc = xB - np.trace(rho @ xB) * np.eye(state.k)
    return sigma_Ac, xBc


def _correlations(state, sigma_Ac, xBc, n_max):
    """Connected correlations for n = 1..n_max from one sweep y <- Mc y,
    with Mc the transfer matrix minus its fixed-point projector."""
    M = transfer_matrix(state.kraus)
    P = np.outer(np.eye(state.k).reshape(-1), state.rho.reshape(-1).conj())
    Mc = M - P
    a = sigma_Ac.T.reshape(-1)
    y = xBc.reshape(-1)
    corr = [complex(a @ y)]  # trace(sigma_Ac Z) for Z = unvec(y)
    for _ in range(n_max - 1):
        y = Mc @ y
        corr.append(complex(a @ y))
    return corr


def two_point(state, A, B, n):
    """Connected correlation omega(A theta^n(B)) - omega(A) omega(B), n >= 1."""
    if n < 1:
        raise ValueError("two_point requires n >= 1 (disjoint supports)")
    return _correlations(state, *_insertions(state, A, B), n)[-1]


def decay_certificate(state, A, B, n_max, tol=1e-9):
    """Verify |corr(n)| <= delta^(n-1) ||a|| ||b|| for n = 1..n_max.

    ||a||, ||b|| are the GNS-vector norms of the centered insertions.  For a
    non-self-adjoint T the bound uses the explicit norms of the restricted
    transfer powers instead.  A degenerate fixed space refuses a pass.
    """
    t = build_transfer(state)
    rep = gap(t, tol)
    sq, inv_sq, _ = _rho_roots(state.rho)
    sigma_Ac, xBc = _insertions(state, A, B)
    anorm = float(np.linalg.norm(sigma_Ac.conj().T @ inv_sq, "fro"))
    bnorm = float(np.linalg.norm(xBc @ sq, "fro"))
    selfadjoint = rep.selfadjoint_defect <= 1e-9

    if selfadjoint:
        bounds = [rep.delta ** (n - 1) * anorm * bnorm for n in range(1, n_max + 1)]
    else:
        Tc = _restricted(t)
        power = np.eye(Tc.shape[0], dtype=complex)
        bounds = []
        for _ in range(n_max):
            bounds.append(float(np.linalg.norm(power, 2)) * anorm * bnorm)
            power = power @ Tc
    corr = _correlations(state, sigma_Ac, xBc, n_max)
    rows = [DecayRow(n=n, corr=c, bound=b)
            for n, c, b in zip(range(1, n_max + 1), corr, bounds)]

    scale = max(1.0, anorm * bnorm)
    violations = tuple(r.n for r in rows if abs(r.corr) > r.bound + 1e-12 * scale)
    beta_max = -math.log(rep.delta) if rep.delta > 0 else math.inf

    if rep.fixed_multiplicity > 1:
        verdict, reason = "fail", "degenerate fixed space: correlations need not decay"
    elif violations:
        verdict, reason = "fail", f"bound violated at n = {list(violations)}"
    else:
        verdict, reason = "pass", ""
    return DecayCertificate(
        rows=tuple(rows),
        gap=rep,
        delta=rep.delta,
        beta_max=beta_max,
        anorm=anorm,
        bnorm=bnorm,
        selfadjoint=selfadjoint,
        verdict=verdict,
        violations=violations,
        reason=reason,
    )
