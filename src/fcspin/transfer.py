"""The transfer operator on the GNS space and its spectral gap.

The GNS space of (M, phi) is realized as k x k matrices y with the
Hilbert-Schmidt inner product (vector of the algebra element x is
x rho^{1/2}); the cyclic vector is psi = rho^{1/2}.  In these coordinates the
transfer operator T y = tau(x) rho^{1/2} for y = x rho^{1/2} has matrix
sum_i v_i (x) conj(rho^{1/2} v_i rho^{-1/2}) on row-major vec(y).

Both T and T* fix psi, so psi reduces T, and T_c = T - psi psi* is T on the
orthogonal complement of psi (and 0 on psi).  That one matrix gives the
decay bound and the correlation sweep.  The spectrum, one real eigvals, is
that of the similar map tau(x) = sum_i v_i x v_i*, whose matrix in an
orthonormal Hermitian basis (fcs._hermitian_transfer) is real; fixed_point
solves for rho with that matrix, and the state keeps it.  The decay bound
C r^(n-1) holds at every distance n: r = delta when T is self-adjoint, and
otherwise (C, r) comes from one Stein-equation solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _require_tol
from .fcs import _hermitian_transfer, _read_only, _rho_roots

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

# Smith's doubling stops once ||A||_F^2, which bounds the truncation
# residual A* A, is below one rounding unit, and gives up after this many
# doublings, that is after T_c^(2^40)
_STEIN_DOUBLINGS = 40
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """T in GNS coordinates and the real matrix of its similar map tau,
    read-only; spectrum and defect computed once.  Equality is identity, so
    an operator hashes."""

    matrix: np.ndarray        # k^2 x k^2, GNS coordinates
    sqrt_rho: np.ndarray      # rho^{1/2}, the cyclic vector psi as a matrix
    inv_sqrt_rho: np.ndarray  # rho^{-1/2}
    tau: np.ndarray           # real k^2 x k^2, tau in the Hermitian basis

    def __post_init__(self):
        for name in ("matrix", "sqrt_rho", "inv_sqrt_rho", "tau"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def k(self):
        return self.sqrt_rho.shape[0]

    @cached_property
    def spectrum(self):
        """The eigenvalues of T, unsorted (gap sorts them): those of the
        similar map tau = R_{rho^{-1/2}} T R_{rho^{1/2}}, from one real
        eigvals of its matrix tau_H, so the real ones come out exactly real
        and the others in exact conjugate pairs."""
        return _read_only(np.linalg.eigvals(self.tau))

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
    rate: float      # r in ||T_c^(n-1)|| <= C r^(n-1), every n >= 1
    constant: float  # C
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
    d, k = state.d, state.k
    V = state.kraus.v
    # M[ab, ce] = sum_i v_i[a, b] conj(u_i[c, e]), u_i = rho^{1/2} v_i rho^{-1/2},
    # and T[(a, c), (b, e)] = M[ab, ce]: the sum of the kron(v_i, conj(u_i))
    M = V.reshape(d, k * k).T @ (sq @ V @ inv_sq).reshape(d, k * k).conj()
    mat = M.reshape(k, k, k, k).transpose(0, 2, 1, 3).reshape(k * k, k * k)
    tau = state._once("hermitian_transfer", lambda: _hermitian_transfer(state.kraus))
    return TransferOperator(matrix=mat, sqrt_rho=sq, inv_sqrt_rho=inv_sq,
                            tau=tau)


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
    V = state.kraus.v
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


def _stein_bound(Tc):
    """(C, q) with ||T_c^n|| <= C q^n at every n >= 0, from one Stein solve.

    Smith's doubling, X <- X + A* X A and A <- A^2 from X = I and A = T_c,
    sums X = sum_j (T_c^j)* T_c^j, the solution of X - T_c* X T_c = I, once
    A is negligible.  With the residual E = X - T_c* X T_c - I,
    T_c* X T_c <= X - (1 - ||E||_F) I <= q^2 X for
    q^2 = 1 - (1 - ||E||_F)/lambda_max(X), so each T_c shrinks the X-norm by
    q and ||T_c^n|| <= sqrt(lambda_max(X)/lambda_min(X)) q^n
    (Fannes-Nachtergaele-Werner; R. A. Smith 1968 for the doubling).  When
    the doubling does not converge within _STEIN_DOUBLINGS steps (spectral
    radius 1 or too near it), X is not positive definite or ||E||_F >= 1,
    it returns (1, 1), the bound of any contraction.
    """
    X, A = np.eye(Tc.shape[0], dtype=Tc.dtype), Tc
    for _ in range(_STEIN_DOUBLINGS):
        X = X + A.conj().T @ (X @ A)
        A = A @ A
        if np.vdot(A, A).real <= _EPS:
            break
    else:
        return 1.0, 1.0
    # eigvalsh reads one triangle: make X the Hermitian matrix E is charged to
    X = (X + X.conj().T) / 2
    residual = float(np.linalg.norm(X - Tc.conj().T @ (X @ Tc) - np.eye(X.shape[0])))
    w = np.linalg.eigvalsh(X)
    if not (w[0] > 0 and residual < 1):
        return 1.0, 1.0
    return math.sqrt(w[-1] / w[0]), math.sqrt(1 - (1 - residual) / w[-1])


def decay_certificate(state, A, B, n_max, tol=1e-9):
    """Verify |corr(n)| <= min(1, C r^(n-1)) ||a|| ||b|| for n = 1..n_max.

    a, b are the GNS vectors of the centered insertions that the sweep
    pairs, and C r^(n-1) bounds ||T_c^(n-1)|| at every n, not only up to
    n_max.  (C, r) = (1, delta) when T is self-adjoint, and the Stein pair
    of _stein_bound otherwise, since then delta^(n-1) need not bound the
    norm of the power.  The cap at 1 holds because T is a contraction in
    the GNS inner product (Kadison-Schwarz), also where no Stein solution
    exists.  tol bounds both the distance of a fixed eigenvalue from 1 and
    the self-adjoint defect ||T - T*|| that counts as self-adjoint.  A
    degenerate fixed space or a non-finite row refuses a pass.
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
    constant, rate = (1.0, rep.delta) if selfadjoint else _stein_bound(Tc)
    # a NaN rate fails the comparison and stays NaN, which fails its row
    bounds = [scale * (1.0 if (p := constant * rate ** (n - 1)) > 1.0 else p)
              for n in range(1, n_max + 1)]
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
        rate=rate,
        constant=constant,
        verdict=verdict,
        reason=reason,
    )
