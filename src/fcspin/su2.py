"""SU(2) irreducible representations and the conjugation twist.

Basis convention: the weight basis e_1, ..., e_d of C^d is ordered by
decreasing magnetic quantum number m = s, s-1, ..., -s with s = (d-1)/2.
All identities below are stated with respect to this fixed basis.

The rotation R = exp(i*pi*Sy) by pi about the y axis is a signed
permutation in this basis, R e_m = (-1)^(s+m) e_{-m}, and build_twist
writes the twist from that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinRep",
    "GroupElement",
    "TwistMatrix",
    "build_spin_rep",
    "group_element",
    "random_group_elements",
    "build_twist",
    "compute_mu",
]


@dataclass(frozen=True)
class SpinRep:
    """Spin-s irreducible representation data (hbar = 1).

    Sx, Sy, Sz are the Hermitian angular-momentum generators satisfying
    [Sx, Sy] = i Sz (and cyclic) and Sx^2 + Sy^2 + Sz^2 = s(s+1) I.
    """

    d: int
    s: float
    Sx: np.ndarray
    Sy: np.ndarray
    Sz: np.ndarray
    basis: tuple  # m labels, ordered s, s-1, ..., -s

    def generators(self):
        return (self.Sx, self.Sy, self.Sz)


@dataclass(frozen=True)
class GroupElement:
    """Group element u = exp(i (tx Sx + ty Sy + tz Sz))."""

    theta: tuple
    u: np.ndarray


@dataclass(frozen=True)
class TwistMatrix:
    """Unitary r0 with r0^2 = I conjugating u(g) to its entrywise conjugate.

    mu in {+1, -1} is the parity defined by conj(r0) = mu * r0, and zeta is
    a phase with zeta^2 = mu such that zeta * r0 has real entries.
    """

    d: int
    r0: np.ndarray
    zeta: complex
    mu: int

    @property
    def real_form(self):
        """The real matrix zeta * r0 (a rotation by pi about the y axis)."""
        return (self.zeta * self.r0).real


def build_spin_rep(d):
    """Construct the dimension-d irrep by the standard ladder construction."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"irrep dimension must be a positive integer, got {d!r}")
    d = int(d)
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    Sz = np.diag(m).astype(complex)
    Sp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        # S+ |s, m_i> = sqrt(s(s+1) - m_i(m_i+1)) |s, m_i + 1>
        Sp[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    Sm = Sp.conj().T
    Sx = (Sp + Sm) / 2
    Sy = (Sp - Sm) / 2j
    return SpinRep(d=d, s=s, Sx=Sx, Sy=Sy, Sz=Sz, basis=tuple(m))


def group_element(rep, theta):
    """Unitary exp(i(tx Sx + ty Sy + tz Sz)) for axis-angle parameters theta,
    from the eigendecomposition of the Hermitian generator."""
    tx, ty, tz = theta
    w, V = np.linalg.eigh(tx * rep.Sx + ty * rep.Sy + tz * rep.Sz)
    u = (V * np.exp(1j * w)) @ V.conj().T
    return GroupElement(theta=(float(tx), float(ty), float(tz)), u=u)


def random_group_elements(rep, n, rng):
    """Haar-like sample: uniform random axis, angle uniform in [0, 2*pi)."""
    out = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 2 * np.pi)
        out.append(group_element(rep, tuple(angle * axis)))
    return out


def build_twist(rep):
    """Construct the conjugation twist r0 for an irrep.

    The rotation R = exp(i*pi*Sy) satisfies R u(g) R^{-1} = conj(u(g)).  In
    the weight basis it is the real signed antidiagonal
    R e_m = (-1)^(s+m) e_{-m}, that is R[d-1-i, i] = (-1)^(d-1-i).  For odd
    d, R^2 = I and r0 = R; for even d, R^2 = -I and r0 = i*R.  So the entry
    of r0 coupling m = s to m = -s is +1 for integer spin, and the d = 2
    twist is the matrix [[0, i], [-i, 0]].
    """
    d = rep.d
    i = np.arange(d)
    R = np.zeros((d, d), dtype=complex)
    R[d - 1 - i, i] = (-1.0) ** (d - 1 - i)
    zeta = 1.0 + 0j if d % 2 == 1 else -1j
    mu = 1 if d % 2 == 1 else -1
    return TwistMatrix(d=d, r0=R / zeta, zeta=complex(zeta), mu=mu)


def compute_mu(t):
    """Parity mu in {+1, -1} with conj(r0) = mu * r0, from the matrix itself."""
    r0 = t.r0
    idx = np.unravel_index(np.argmax(np.abs(r0)), r0.shape)
    ratio = r0.conj()[idx] / r0[idx]
    mu = int(round(ratio.real))
    if mu not in (+1, -1) or np.abs(r0.conj() - mu * r0).max() > 1e-10:
        raise ValueError("conj(r0) is not a real sign times r0; invalid twist")
    if t.d % 2 == 1 and mu != 1:
        raise ValueError(f"mu = {mu} inconsistent with odd dimension {t.d}")
    return mu
