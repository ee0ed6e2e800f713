"""Reference Kraus families: AKLT, product states, rotation-covariant MPS,
and random unital families used as negative controls."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from .fcs import FcsState, KrausFamily, fixed_point

__all__ = [
    "aklt_kraus",
    "aklt_state",
    "product_kraus",
    "product_state",
    "covariant_kraus",
    "covariant_state",
    "random_unital_kraus",
    "random_fcs_state",
    "direct_sum",
    "gauge_transform",
]


def aklt_kraus():
    """AKLT tensors on a 2-dimensional bond space, real gauge.

    Physical basis ordered m = 1, 0, -1; the three matrices are
    sqrt(2/3) s_plus, -sqrt(1/3) s_z, -sqrt(2/3) s_minus.
    """
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = np.array([[0, 0], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return KrausFamily((
        np.sqrt(2 / 3) * sp,
        -np.sqrt(1 / 3) * sz,
        -np.sqrt(2 / 3) * sm,
    ))


def aklt_state():
    return fixed_point(aklt_kraus())


def product_kraus(xi):
    """Rank-one family of a unit vector xi: one-site expectations <xi, A xi>."""
    xi = np.asarray(xi, dtype=complex)
    xi = xi / np.linalg.norm(xi)
    return KrausFamily(tuple(np.array([[c.conjugate()]]) for c in xi))


def product_state(xi):
    return fixed_point(product_kraus(xi))


def _racah_cg(two_j1, two_m1, two_j2, two_m2, two_J):
    """<j1 m1, j2 m2 | J m1+m2> from Racah's formula, Condon-Shortley phase.

    Arguments are doubled quantum numbers.  The square is exact (integer
    factorials and Fractions); one sqrt of it carries the only rounding.
    """
    f = factorial
    two_M = two_m1 + two_m2
    a = (two_j1 + two_j2 - two_J) // 2      # j1 + j2 - J
    b = (two_j1 - two_m1) // 2              # j1 - m1
    c = (two_j2 + two_m2) // 2              # j2 + m2
    p = (two_J - two_j2 + two_m1) // 2      # J - j2 + m1
    q = (two_J - two_j1 - two_m2) // 2      # J - j1 - m2
    racah_sum = sum(
        Fraction((-1) ** t,
                 f(t) * f(a - t) * f(b - t) * f(c - t) * f(p + t) * f(q + t))
        for t in range(max(0, -p, -q), min(a, b, c) + 1)
    )
    square = racah_sum ** 2 * Fraction(
        (two_J + 1) * f(a) * f((two_J + two_j1 - two_j2) // 2)
        * f((two_J - two_j1 + two_j2) // 2)
        * f((two_J + two_M) // 2) * f((two_J - two_M) // 2)
        * f((two_j1 + two_m1) // 2) * f(b) * f(c) * f((two_j2 - two_m2) // 2),
        f((two_j1 + two_j2 + two_J) // 2 + 1),
    )
    value = sqrt(square)
    return -value if racah_sum < 0 else value


@lru_cache(maxsize=None)
def _cg_table(two_s, two_j):
    """Clebsch-Gordan block <s m, j mu | j nu> as a (d, k, k) float array.

    Entries come from Racah's closed formula in the Condon-Shortley phase
    convention, evaluated exactly in doubled quantum numbers and rounded
    once at the final square root.  Index i is m = s - i, a is mu = j - a,
    b is nu = j - b; s is an integer with s <= 2j.  The cached array is
    read-only, since every caller shares it.
    """
    d = two_s + 1
    k = two_j + 1
    out = np.zeros((d, k, k))
    for i in range(d):
        for a in range(k):
            b = i + a - two_s // 2  # nu = m + mu
            if 0 <= b < k:
                out[i, a, b] = _racah_cg(two_s, two_s - 2 * i,
                                         two_j, two_j - 2 * a, two_j)
    out.setflags(write=False)
    return out


def _doubled_spin(x):
    """2x as an int, for a spin x given as a number, a Fraction or a string
    such as "1/2"; a value that is not a multiple of 1/2 is refused."""
    two_x = 2 * Fraction(x)
    if two_x.denominator != 1:
        raise ValueError(f"spin {x!r} is not a multiple of 1/2")
    return int(two_x)


def covariant_kraus(s, j):
    """Rotation-covariant family: the unique isometry of the bond irrep j
    into the physical (x) bond product, for integer physical spin s <= 2j
    (the bond spin j may be half-integer).  Multiplicity-one makes the
    isometry unique up to phase."""
    two_s = _doubled_spin(s)
    two_j = _doubled_spin(j)
    if two_s < 1:
        raise ValueError("physical spin must be positive")
    if two_s % 2 != 0:
        raise ValueError(
            f"spin {s} (x) spin {j} does not contain spin {j}: the physical "
            "spin must be an integer"
        )
    if two_s > 2 * two_j:
        raise ValueError(f"spin {s} (x) spin {j} does not contain spin {j} "
                         "unless s <= 2j")
    cg = _cg_table(two_s, two_j)
    # rows of the isometry are (v_i*)_{mu nu}; v_i = adjoint of that block
    return KrausFamily(tuple(cg[i].T.astype(complex) for i in range(two_s + 1)))


def covariant_state(s, j):
    return fixed_point(covariant_kraus(s, j))


def random_unital_kraus(d, k, rng):
    """Generic unital family from a Haar-random isometry C^k -> C^d (x) C^k."""
    z = rng.normal(size=(d * k, k)) + 1j * rng.normal(size=(d * k, k))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r).real)  # deterministic gauge of the QR factor
    blocks = q.reshape(d, k, k)
    return KrausFamily(tuple(b.conj().T for b in blocks))


def random_fcs_state(d, k, rng, tol=1e-9):
    return fixed_point(random_unital_kraus(d, k, rng), tol)


def direct_sum(fam_a, fam_b):
    """Blockwise direct sum of two families with equal physical dimension."""
    if fam_a.d != fam_b.d:
        raise ValueError("families must share the physical dimension")
    ka, kb = fam_a.k, fam_b.k
    mats = []
    for a, b in zip(fam_a.v, fam_b.v):
        m = np.zeros((ka + kb, ka + kb), dtype=complex)
        m[:ka, :ka] = a
        m[ka:, ka:] = b
        mats.append(m)
    return KrausFamily(tuple(mats))


def gauge_transform(state, W):
    """Conjugate the family and rho by a bond unitary; the state is unchanged."""
    W = np.asarray(W, dtype=complex)
    fam = KrausFamily(tuple(W @ v @ W.conj().T for v in state.kraus.v))
    return FcsState(kraus=fam, rho=W @ state.rho @ W.conj().T)
