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

from .fcs import _read_only

__all__ = [
    "SpinRep",
    "GroupElement",
    "TwistMatrix",
    "build_spin_rep",
    "group_element",
    "random_group_elements",
    "build_twist",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Group element u = exp(i (tx Sx + ty Sy + tz Sz))."""

    theta: tuple
    u: np.ndarray


TWIST_TOL = 1e-10  # entrywise: r0^2 = I, r0 r0* = I, conj(r0) = mu r0


@dataclass(frozen=True, eq=False)
class TwistMatrix:
    """A unitary involution r0, checked to TWIST_TOL when built and kept as a
    read-only complex copy.  mu = +-1 with conj(r0) = mu r0 (a generic
    involution has none), zeta^2 = mu and the real form zeta r0 follow.
    Equality is identity, so a twist hashes."""

    r0: np.ndarray

    def __post_init__(self):
        r0 = _read_only(self.r0, complex)
        if r0.ndim != 2 or r0.shape[0] != r0.shape[1]:
            raise ValueError(f"twist must be a square matrix, got shape {r0.shape}")
        if not np.isfinite(r0).all():
            raise ValueError("twist has a non-finite entry")
        if np.abs(r0 @ r0 - np.eye(len(r0))).max() > TWIST_TOL:
            raise ValueError("twist does not square to the identity")
        if np.abs(r0 @ r0.conj().T - np.eye(len(r0))).max() > TWIST_TOL:
            raise ValueError("twist is not unitary")
        object.__setattr__(self, "r0", r0)

    @classmethod
    def of(cls, twist, d):
        """twist, a TwistMatrix or a bare matrix, as a d x d TwistMatrix."""
        r0 = twist.r0 if isinstance(twist, cls) else np.asarray(twist, dtype=complex)
        if r0.shape != (d, d):
            raise ValueError(f"twist has shape {r0.shape}, expected ({d}, {d})")
        return twist if isinstance(twist, cls) else cls(r0)

    @property
    def d(self):
        return self.r0.shape[0]

    @property
    def mu(self):
        """ValueError without a real form; odd d gives +1, as (i r0)^2 = -I."""
        r0 = self.r0
        idx = np.unravel_index(np.argmax(np.abs(r0)), r0.shape)
        mu = int(round((r0.conj()[idx] / r0[idx]).real))
        if mu not in (+1, -1) or np.abs(r0.conj() - mu * r0).max() > TWIST_TOL:
            raise ValueError("conj(r0) is not a real sign times r0; invalid twist")
        return mu

    @property
    def zeta(self):
        return 1.0 + 0j if self.mu == 1 else -1j

    @property
    def real_form(self):
        """zeta r0: the real part of r0, or its imaginary part."""
        return self.r0.real if self.mu == 1 else self.r0.imag


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
    # i R as R / -i, whose signed zeros are those `fcspin repr` prints
    return TwistMatrix(R if d % 2 == 1 else R / -1j)
