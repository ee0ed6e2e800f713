"""Finitely correlated states from unital Kraus families.

A family v_1..v_d of k x k matrices with sum_i v_i v_i* = I, together with
an invariant faithful density matrix rho (sum_i v_i* rho v_i = rho), defines
a translation-invariant state of the two-sided chain.  Expectations of an
observable supported on a window of length m are computed from the window
tensor W[I, J] = trace(rho v_{i1}..v_{im} v*_{jm}..v*_{j1}).  It factors
through bond space (Fannes-Nachtergaele-Werner): split at m1 = m // 2,
W[(I1, I2), (J1, J2)] = trace((v_{J1}* rho v_{I1}) (v_{I2} v_{J2}*)), so it is
built from two half-window factors in O(d^m k^2 + d^(2m)) memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, _require_tol

__all__ = [
    "KrausFamily",
    "FcsState",
    "ModularData",
    "ValidationReport",
    "validate",
    "fixed_point",
    "transfer_matrix",
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


@dataclass(frozen=True)
class KrausFamily:
    """d complex k x k matrices v_1..v_d with sum_i v_i v_i* = I, read-only."""

    v: tuple

    def __post_init__(self):
        mats = tuple(_read_only(m, complex) for m in self.v)
        k = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (k, k):
                raise ValueError(
                    f"Kraus matrix {i + 1} has shape {m.shape}, expected ({k}, {k})"
                )
        object.__setattr__(self, "v", mats)

    @property
    def d(self):
        return len(self.v)

    @property
    def k(self):
        return self.v[0].shape[0]

    def stacked(self):
        """The matrices as a (d, k, k) array."""
        return np.stack(self.v)


@dataclass(frozen=True)
class ValidationReport:
    defect: float
    tol: float

    @property
    def passed(self):
        return self.defect <= self.tol


@dataclass(frozen=True)
class FcsState:
    """A Kraus family together with its invariant faithful state rho, an
    immutable value: rho is a read-only copy, so what depends on the state
    alone (its rho roots, its transfer operator) is computed once, by _once."""

    kraus: KrausFamily
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _read_only(self.rho))
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

    @property
    def delta_trivial(self):
        return self.delta_defect <= 1e-10


def _read_only(a, dtype=None):
    """A C-ordered copy of a that refuses in-place writes.  C order makes
    every result independent of how the caller laid out its arrays."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def validate(kraus, tol=1e-10):
    """Check the unitality defect ||sum_i v_i v_i* - I||_max."""
    acc = sum(v @ v.conj().T for v in kraus.v)
    defect = float(np.abs(acc - np.eye(kraus.k)).max())
    return ValidationReport(defect=defect, tol=tol)


def transfer_matrix(kraus):
    """Matrix of x -> sum_i v_i x v_i* on row-major vec(x)."""
    return sum(np.kron(v, v.conj()) for v in kraus.v)


def _fixed_space_projector(M, tol):
    """Spectral projector of M onto the eigenvalue-1 eigenspace."""
    w, V = np.linalg.eig(M)
    sel = np.abs(w - 1.0) <= tol
    if not sel.any():
        raise ValueError("transfer map has no fixed point within tolerance")
    return V[:, sel] @ np.linalg.inv(V)[sel, :]


def fixed_point(kraus, tol=1e-9):
    """Invariant state of the dual transfer map.

    rho is the spectral projection of I/k onto the fixed space: the unique
    fixed point of an ergodic family, the maximum-entropy one otherwise.
    Ergodicity is read from transfer.gap(...).fixed_multiplicity.  Raises
    ValueError if the resulting rho is not faithful.
    """
    _require_tol(tol)
    rep = validate(kraus, tol)
    if not rep.passed:
        raise ValueError(f"Kraus family is not unital, defect {rep.defect:g}")
    k = kraus.k
    P = _fixed_space_projector(transfer_matrix(kraus).conj().T, tol)
    rho_vec = P @ (np.eye(k) / k).reshape(-1)
    rho = rho_vec.reshape(k, k)
    rho = (rho + rho.conj().T) / 2
    w, U = np.linalg.eigh(rho)
    w = np.where(w < 0, np.where(w > -tol, 0.0, w), w)
    if (w < 0).any():
        raise ValueError("fixed point is not positive semidefinite")
    rho = (U * w) @ U.conj().T
    tr = rho.trace().real
    if tr <= tol:
        raise ValueError("fixed point has vanishing trace")
    rho = rho / tr
    if np.linalg.eigvalsh(rho).min() <= tol:
        raise ValueError(
            "fixed point is not faithful; the family leaves the assumed "
            "support-projection setting"
        )
    return FcsState(kraus=kraus, rho=rho)


def _products(V, n):
    """The d^n products v_{i1}..v_{in} as a (d^n, k, k) array, first site
    most significant; n = 0 gives the identity alone."""
    k = V.shape[1]
    P = np.eye(k, dtype=complex)[None]
    for _ in range(n):
        P = np.matmul(P[:, None], V[None]).reshape(-1, k, k)
    return P


def window_expectations(state, m):
    """The d^m x d^m tensor W[I, J] = omega(|e_I><e_J|) on a length-m window.

    Splitting the window at m1 = m // 2 into I = (I1, I2), J = (J1, J2),
    W[I, J] = tr(X[I1, J1] Y[I2, J2]) with X[I1, J1] = v_{J1}* rho v_{I1}
    and Y[I2, J2] = v_{I2} v_{J2}*, so W is one contraction over bond space
    of two half-window factors.  Memory is O(d^m k^2 + d^(2m)).
    """
    d = state.d
    if m < 1:
        raise ValueError("window length must be >= 1")
    if m > MAX_WINDOW_LEN or (d ** m) ** 2 > max_window_entries():
        raise ResourceLimitError(
            f"window of length {m} at d={d} exceeds the configured cap"
        )
    V = state.kraus.stacked()
    m1 = m // 2
    L = _products(V, m1)
    R = _products(V, m - m1)
    Lh = L.conj().transpose(0, 2, 1)
    X = np.matmul(Lh[None], (state.rho @ L)[:, None])  # X[I1, J1]
    Y = np.matmul(R[:, None], R.conj().transpose(0, 2, 1)[None])  # Y[I2, J2]
    W = np.tensordot(X, Y, axes=([2, 3], [3, 2]))  # W[I1, J1, I2, J2]
    return W.transpose(0, 2, 1, 3).reshape(d ** m, d ** m)


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
