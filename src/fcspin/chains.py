"""Finite periodic spin chains as an independent oracle.

Exact diagonalization of nearest-neighbour isotropic chains (the
Heisenberg antiferromagnet and the spin-1 bilinear-biquadratic projector
point), ground and Gibbs states, correlation profiles, and the
finite-volume reflection-positivity Gram check.  Up to MAX_DENSE_DIM the
Hamiltonian is diagonalized densely, one connected block of its nonzero
pattern at a time; above it by Lanczos.  The layers after the
diagonalization keep to the blocks the state already has: correlations
are read from two-site reduced density matrices, and the RP Gram matrix,
exactly zero between the connected components of its own pattern, is
decided one component at a time.

This is the only module that uses scipy, and it imports it inside the
functions that build or diagonalize a chain, so importing fcspin loads
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceLimitError
from .su2 import build_spin_rep
from .symmetry import _as_twist_matrix, _reflect_twist_matrix, _rp_gram_verdict

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    "rp_gram_check",
]

MAX_CHAIN_DIM = 6561   # largest Hilbert-space dimension we diagonalize
MAX_DENSE_DIM = 4096   # dense eigensolve threshold; iterative above
GROUND_WINDOW = 1e-9   # relative width of the ground-energy window
LANCZOS_K = 6          # eigenvalues the iterative solver returns


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

    @cached_property
    def blocks(self):
        """The dense block eigendecomposition of H, computed once and shared
        by ground and gibbs."""
        return _block_eigh(self.H)


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


def _eye(size):
    import scipy.sparse as sp

    return sp.identity(size, dtype=complex, format="csr")


def _site_op(ops, d, n):
    """Sparse operator with the given {position: matrix} factors, identity elsewhere."""
    import scipy.sparse as sp

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


def build_chain(d, n, J=1.0, periodic=True, model="xxx", field=None):
    """Nearest-neighbour isotropic chain on n sites.

    field, if given, adds sum_sites (fx Sx + fy Sy + fz Sz) — useful as a
    symmetry-breaking control; the unperturbed models commute with the
    total-spin generators and (when periodic) with translation.

    Every stored entry of H is a sum of entries of the two-site term (and
    of the field): an open bond is I (x) h2 (x) I, and the wrap bond is the
    last open bond translated by one site, a permutation of its entries, so
    no roundoff fill-in couples states that H does not couple.
    """
    import scipy.sparse as sp

    if n < 2:
        raise ValueError("a chain needs at least two sites")
    if not np.isfinite(J):
        raise ValueError(f"J must be finite, got {J!r}")
    if d ** n > MAX_CHAIN_DIM:
        raise ResourceLimitError(
            f"chain dimension {d}^{n} exceeds the cap {MAX_CHAIN_DIM}"
        )
    h2 = _two_site_hamiltonian(d, float(J), model)
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
    return SpinChainSystem(d=d, n=n, J=float(J), periodic=bool(periodic),
                           model=model, H=H.tocsr())


def translation_operator(d, n):
    """Permutation matrix shifting site p to site p+1 mod n."""
    import scipy.sparse as sp

    dim = d ** n
    src = np.arange(dim).reshape((d,) * n)
    dst = np.moveaxis(src, -1, 0).reshape(-1)  # new leading index = old last site
    return sp.csr_matrix((np.ones(dim), (dst, np.arange(dim))), shape=(dim, dim))


def _components(pattern):
    """Index arrays of the connected components of a nonzero pattern,
    sparse or dense, read as an undirected graph; each array is sorted."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    # csgraph reads a dense pattern about twice as slowly as its csr form
    count, labels = connected_components(sp.csr_matrix(pattern), directed=False)
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    return np.split(order, np.cumsum(sizes)[:-1])


def _block_eigh(H):
    """Dense eigendecomposition of H one connected block at a time.

    The blocks are the connected components of H's nonzero pattern, so
    permuting H to block-diagonal form is exact: the spectrum and its
    degeneracies are those of one dense eigh of H.  Returns a list of
    (idx, w, V), the basis states of a block and its eigenpairs.
    """
    # a pattern of ones: csgraph would cast complex entries to real and so
    # drop couplings that are purely imaginary
    pattern = H.copy()
    pattern.data = np.ones(H.nnz)
    out = []
    for idx in _components(pattern):
        w, V = np.linalg.eigh(H[idx][:, idx].toarray())
        out.append((idx, w, V))
    return out


def ground(system):
    """Lowest eigenpair(s) with the degeneracy counted in a relative window;
    refused when the window holds every eigenvalue a Lanczos run returns."""
    dim = system.dim
    if dim <= MAX_DENSE_DIM:
        blocks = system.blocks
    else:
        from scipy.sparse.linalg import eigsh

        # a fixed start vector makes the Lanczos run, and so its output,
        # the same on every call
        v0 = np.random.default_rng(0).normal(size=dim)
        w, V = eigsh(system.H, k=LANCZOS_K, which="SA", v0=v0)
        blocks = [(np.arange(dim), w, V)]
    w = np.sort(np.concatenate([wb for _, wb, _ in blocks]))
    e0 = float(w[0])
    window = GROUND_WINDOW * max(1.0, abs(e0))
    deg = int(np.sum(w - e0 <= window))
    if dim > MAX_DENSE_DIM and deg == LANCZOS_K:
        raise ResourceLimitError(
            f"the ground window holds all {LANCZOS_K} eigenvalues of the "
            f"Lanczos window at dimension {dim}; the degeneracy is unresolved")
    above = w[w - e0 > window]
    gap_val = float(above[0] - e0) if above.size else float("nan")
    # the ground-window columns of every block, lowest first, at full dim
    cols = sorted(((wb[j], idx, Vb[:, j]) for idx, wb, Vb in blocks
                   for j in np.flatnonzero(wb - e0 <= window)),
                  key=lambda col: col[0])
    vectors = np.zeros((dim, deg), dtype=complex)
    for j, (_, idx, v) in enumerate(cols):
        vectors[idx, j] = v
    return GroundReport(energy=e0, degeneracy=deg, vectors=vectors,
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
    blocks = system.blocks
    w_min = min(wb.min() for _, wb, _ in blocks)  # shift guards against overflow
    weights = [np.exp(-beta * (wb - w_min)) for _, wb, _ in blocks]
    Z = sum(z.sum() for z in weights)
    rho = np.zeros((system.dim, system.dim), dtype=complex)
    for (idx, _, Vb), z in zip(blocks, weights):
        rho[np.ix_(idx, idx)] = (Vb * (z / Z)) @ Vb.conj().T
    return ThermalState(beta=float(beta), rho=rho)


def _pair_marginal(system, state, p, q):
    """Reduced density matrix of sites p < q as a (d, d, d, d) array R with
    <A_p B_q> = sum R[a, b, c, e] A[c, a] B[e, b].

    state is a thermal state, a vector, or a dim x k block of orthonormal
    vectors, whose marginal is the average over its columns.  One partial
    trace; no operator of the whole chain is formed.
    """
    d, n = system.d, system.n
    shape = (d ** p, d, d ** (q - p - 1), d, d ** (n - q - 1))
    if isinstance(state, ThermalState):
        return np.einsum("xaybzxcyez->abce", state.rho.reshape(shape + shape))
    psi = np.asarray(state).reshape(shape + (-1,))
    return np.einsum("xaybzj,xcyezj->abce", psi, psi.conj(),
                     optimize=True) / psi.shape[-1]


def correlation_profile(system, state, r_max):
    """Connected <S0 . Sr> and <Sz_0 Sz_r> for r = 1..r_max.

    state is a thermal state, a vector, or a dim x k block of orthonormal
    vectors, whose ground-space average does not depend on the basis.
    Every value is read from the two-site marginal of sites (0, r).
    """
    if r_max >= system.n:
        raise ValueError("r_max must be smaller than the number of sites")
    gens = build_spin_rep(system.d).generators()
    rows = []
    for r in range(1, r_max + 1):
        R = _pair_marginal(system, state, 0, r)
        first = np.einsum("abcb->ac", R)   # one-site marginal of site 0
        second = np.einsum("abae->be", R)  # and of site r
        conn = [np.einsum("abce,ca,eb->", R, S, S)
                - np.einsum("ac,ca->", first, S) * np.einsum("be,eb->", second, S)
                for S in gens]
        rows.append(CorrelationRow(r=r, total=float(sum(conn).real),
                                   zz=float(conn[2].real)))
    return tuple(rows)


def rp_gram_check(system, state, twist, tol=1e-9):
    """Reflection-positivity Gram check about the central bond.

    state may be a ThermalState, an inverse temperature (a Gibbs state is
    built), or a pure-state vector.  Its density matrix, transposed, is the
    window tensor W[I, J] = omega(|e_I><e_J|) of the whole chain; the Gram
    matrix over the matrix units of the right half pairs each against its
    twisted mirror image on the left half.  G is exactly zero between the
    connected components of its nonzero pattern, so the verdict of
    check_reflection_positive is taken on its diagonal blocks there, each
    hermitized on its own.  rho vanishes outside H's blocks and the spin
    twist is a signed permutation, so the Gram of a chain without a
    transverse field splits by its conserved quantum numbers.
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
    blocks = [G[np.ix_(idx, idx)] for idx in _components(G != 0)]
    return _rp_gram_verdict(blocks, m, tol, zero_mode=False)
