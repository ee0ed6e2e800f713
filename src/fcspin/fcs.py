"""Finitely correlated states from unital Kraus families.

A family v_1..v_d of k x k matrices with sum_i v_i v_i* = I, together with
an invariant faithful density matrix rho (sum_i v_i* rho v_i = rho), defines
a translation-invariant state of the two-sided chain.  Expectations of an
observable supported on a window of length m are computed from the window
tensor W[I, J] = trace(rho v_{i1}..v_{im} v*_{jm}..v*_{j1}).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, _require_tol

__all__ = [
    "KrausFamily",
    "FcsState",
    "ModularData",
    "SymmetryVerdict",
    "validate",
    "fixed_point",
    "window_expectations",
    "modular_data",
    "max_window_entries",
    "MAX_WINDOW_LEN",
]

MAX_WINDOW_LEN = 12


def max_window_entries():
    """Size cap, in entries, for window tensors and for the bond-space factor
    of the reflection-positivity Gram form; overridable via FCS_MAX_DIM.

    Raises ValueError naming the variable unless it is a positive integer.
    """
    value = os.environ.get("FCS_MAX_DIM", "4000000")
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"FCS_MAX_DIM must be a positive integer, got {value!r}")
    return cap


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """d >= 1 finite complex k x k matrices v_1..v_d with k >= 1, held as one
    read-only (d, k, k) array v, from any iterable of matrices or a 3-D
    array.  The family need not be unital: validate decides whether
    sum_i v_i v_i* = I.  Equality is identity, so a family hashes."""

    v: np.ndarray

    def __post_init__(self):
        mats = [np.asarray(m, dtype=complex) for m in self.v]
        if not mats:
            raise ValueError("a Kraus family needs at least one matrix")
        if mats[0].ndim != 2 or mats[0].size == 0:
            raise ValueError("Kraus matrix 1 must be a nonempty square matrix, "
                             f"got shape {mats[0].shape}")
        k = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (k, k):
                raise ValueError(
                    f"Kraus matrix {i + 1} has shape {m.shape}, expected ({k}, {k})"
                )
            if not np.isfinite(m).all():
                raise ValueError(f"Kraus matrix {i + 1} has a non-finite entry")
        object.__setattr__(self, "v", _read_only(mats))

    @property
    def d(self):
        return self.v.shape[0]

    @property
    def k(self):
        return self.v.shape[1]


@dataclass(frozen=True, eq=False)
class SymmetryVerdict:
    """Outcome of one check: a defect decided against a tolerance.

    status is "pass", "fail", or "indeterminate"; _verdict builds the
    verdicts that pass exactly when the defect is finite and <= tol.  window
    is the longest window length the check read, 0 for a check that reads
    none.  details maps sub-checks (per window length, and per axis for
    rotations) to their worst violations, or holds what the check found
    besides (a gauge, generators, a reason).  Equality is identity, so a
    verdict hashes.
    """

    name: str
    window: int
    defect: float
    tol: float
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"


def _verdict(name, window, defect, tol, details=None):
    """The verdict that passes exactly when defect is finite and <= tol."""
    defect = float(defect)
    status = "pass" if np.isfinite(defect) and defect <= tol else "fail"
    return SymmetryVerdict(name, window, defect, tol, status,
                           {} if details is None else details)


@dataclass(frozen=True, eq=False)
class FcsState:
    """A Kraus family together with its invariant faithful state rho, an
    immutable value: rho is a read-only copy, so what depends on the state
    alone (its rho roots, its transfer matrices) is computed once, by _once.
    rho must be a finite k x k matrix.  Equality is identity, so a state
    hashes."""

    kraus: KrausFamily
    rho: np.ndarray

    def __post_init__(self):
        rho = _read_only(self.rho)
        k = self.kraus.k
        if rho.shape != (k, k):
            raise ValueError(f"rho has shape {rho.shape}, expected ({k}, {k})")
        if not np.isfinite(rho).all():
            raise ValueError("rho has a non-finite entry")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_memo", {})

    def _once(self, key, compute):
        """compute() on the first call for key, the kept value after."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def d(self):
        return self.kraus.d

    @property
    def k(self):
        return self.kraus.k


@dataclass(frozen=True)
class ModularData:
    """How far the modular operator of (M, phi) is from the identity.

    On the GNS space of k x k matrices y with the Hilbert-Schmidt inner
    product, Delta acts by y -> rho y rho^{-1}, i.e. as kron(rho,
    conj(rho^{-1})) on row-major vec(y).  delta_defect is the max-norm
    distance of that matrix from the identity.
    """

    delta_defect: float


def _read_only(a, dtype=None):
    """A C-ordered copy of a that refuses in-place writes.  C order makes
    every result independent of how the caller laid out its arrays."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def validate(kraus, tol=1e-10):
    """The "unital" verdict on the defect ||sum_i v_i v_i* - I||_max."""
    acc = sum(v @ v.conj().T for v in kraus.v)
    return _verdict("unital", 0, np.abs(acc - np.eye(kraus.k)).max(), tol)


def fixed_point(kraus, tol=1e-9):
    """Invariant state of the dual transfer map: the spectral projection of
    I/k onto its fixed space, at unit trace, in a state that keeps tau_H.

    That is the unique fixed point of an ergodic family (read from
    transfer.gap(...).fixed_multiplicity), and need not maximize the entropy
    otherwise.  The right singular vectors L of tau_H - I at singular values
    <= tol span the fixed points of tau, I among them, and the left ones R
    those of its dual, so the projection is R (L R)^-1 L.  Raises ValueError
    if the resulting rho is not faithful.
    """
    _require_tol(tol)
    rep = validate(kraus, tol)
    if not rep.passed:
        raise ValueError(f"Kraus family is not unital, defect {rep.defect:g}")
    k = kraus.k
    tau = _hermitian_transfer(kraus)
    R, s, L = np.linalg.svd(tau - np.eye(k * k))
    sel = s <= tol
    if not sel.any():
        raise ValueError("transfer map has no fixed point within tolerance")
    R, L, e = R[:, sel], L[sel], _hermitian_coordinates(np.eye(k) / k).real
    x = R @ np.linalg.solve(L @ R, L @ e)
    # sum_j x_j H_j: real coordinates give an exactly Hermitian rho
    U = _hermitian_coordinates(np.eye(k * k).reshape(-1, k, k)).conj()
    rho = (U @ x).reshape(k, k)
    w = np.linalg.eigvalsh(rho)
    if w.min() <= -tol:
        raise ValueError("fixed point is not positive semidefinite")
    tr = rho.trace().real
    if tr <= tol:
        raise ValueError("fixed point has vanishing trace")
    rho = rho / tr
    if w.min() / tr <= tol:
        raise ValueError("fixed point is not faithful; the family leaves the "
                         "assumed support-projection setting")
    state = FcsState(kraus=kraus, rho=rho)
    state._once("hermitian_transfer", lambda: tau)
    return state


def _products(V, n):
    """The d^n products v_{i1}..v_{in} as a (d^n, k, k) array, first site
    most significant; n = 0 gives the identity alone."""
    k = V.shape[1]
    P = np.eye(k, dtype=complex)[None]
    for _ in range(n):
        P = np.matmul(P[:, None], V[None]).reshape(-1, k, k)
    return P


def _hermitian_coordinates(X):
    """The coordinates <H_j, X> of the n x n matrices X[..., :, :], as
    (..., n^2), in the orthonormal Hermitian basis H_j of the n x n
    matrices: E_pp, then (E_pq + E_qp)/sqrt 2 and i (E_pq - E_qp)/sqrt 2
    for p < q.  They are real exactly when X is Hermitian."""
    n = X.shape[-1]
    i = np.arange(n)
    p, q = np.nonzero(i[:, None] < i)  # p < q, row by row
    flat = X.reshape(*X.shape[:-2], n * n)
    upper, lower = flat[..., p * n + q], flat[..., q * n + p]
    return np.concatenate([flat[..., ::n + 1], (upper + lower) / np.sqrt(2),
                           (lower - upper) * (1j / np.sqrt(2))], axis=-1)


def _hermitian_transfer(kraus):
    """The real k^2 x k^2 matrix U* tau U of tau(x) = sum_i v_i x v_i* in the
    orthonormal Hermitian basis U of _hermitian_coordinates: entry (i, j)
    is <H_i, tau(H_j)>, real because tau keeps x Hermitian."""
    k = kraus.k
    V = kraus.v.reshape(kraus.d, k * k)
    # G[b, e, a, c] = sum_i v_i[a, b] conj(v_i[c, e]) = tau(E_be)[a, c]
    G = (V.T @ V.conj()).reshape(k, k, k, k).transpose(1, 3, 0, 2)
    # left[i, b, e] = (U* tau)[i, be], and row r of (U* tau) U is conj(U* conj(r))
    left = _hermitian_coordinates(G).transpose(2, 0, 1)
    return _hermitian_coordinates(left.conj()).real


def window_expectations(state, m):
    """The d^m x d^m tensor W[I, J] = omega(|e_I><e_J|) on a length-m window.

    W[I, J] = tr(v_J* rho v_I) = <vec v_J, vec(rho v_I)> over bond space
    (Fannes-Nachtergaele-Werner), so with the d^m products v_I as the rows
    of a d^m x k^2 matrix P, W = (rho P) P*.  Memory is O(d^m k^2 + d^(2m)).
    """
    d, k = state.d, state.k
    if m < 1:
        raise ValueError("window length must be >= 1")
    if m > MAX_WINDOW_LEN or (d ** m) ** 2 > max_window_entries():
        raise ResourceLimitError(
            f"window of length {m} at d={d} exceeds the configured cap"
        )
    P = _products(state.kraus.v, m)
    rho_P = (state.rho @ P).reshape(d ** m, k * k)
    return rho_P @ P.reshape(d ** m, k * k).conj().T


def _rho_roots(rho):
    w, U = np.linalg.eigh(rho)
    if w.min() <= 0:
        raise ValueError("rho is not faithful")
    sq = (U * np.sqrt(w)) @ U.conj().T
    inv_sq = (U / np.sqrt(w)) @ U.conj().T
    inv = (U / w) @ U.conj().T
    return sq, inv_sq, inv


def modular_data(state):
    """The defect of Delta = kron(rho, conj(rho^{-1})) from the identity."""
    inv = state._once("rho_roots", lambda: _rho_roots(state.rho))[2]
    Delta = np.kron(state.rho, inv.conj())
    defect = float(np.abs(Delta - np.eye(state.k ** 2)).max())
    return ModularData(delta_defect=defect)
