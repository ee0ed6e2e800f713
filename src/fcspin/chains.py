"""Finite periodic spin chains as an independent oracle.

Exact diagonalization of nearest-neighbour isotropic chains (the
Heisenberg antiferromagnet and the spin-1 bilinear-biquadratic projector
point), ground and Gibbs states, correlation profiles, and the
finite-volume reflection-positivity Gram check.  Every chain is
diagonalized the same way, densely, one block at a time: a block is a
connected component of the orbit graph of H's nonzero pattern under
translation, at one momentum.  An open chain has the trivial group, so its
blocks are the components alone.  The layers after the diagonalization
keep to the blocks the state already has: correlations are read from
two-site reduced density matrices, and the RP Gram matrix, exactly zero
between the connected components of its own pattern, is decided one
component at a time.

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
MAX_DENSE_DIM = 4096   # cap on the dense Gibbs state: rho has dim**2 entries
GROUND_WINDOW = 1e-9   # relative width of the ground-energy window


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
        """H split into its (component, momentum) blocks, built once and
        shared by ground and gibbs; an open chain has momentum 0 alone."""
        shift = (translation_operator(self.d, self.n).tocsc().indices
                 if self.periodic else np.arange(self.dim))
        return _orbit_blocks(self.H, shift)


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
    if field is not None and not (
            np.shape(field) == (3,) and np.isfinite(field).all()):
        raise ValueError(f"field must be three finite numbers, got {field!r}")
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


@dataclass(frozen=True)
class _Block:
    """H on the momentum-q orbit states of one component, with the map back
    onto the basis: |r, q> = sum over its orbit x = T^t r of
    e^(-2 pi i q t / L) / sqrt(p_r) |x>.  H_q is kept as its entries and
    made dense only while it is diagonalized, so a chain's blocks together
    hold about as much as H."""
    size: int         # the number of orbit states |r, q>
    entries: tuple    # (i, j, value) of H_q; values at a repeated (i, j) add
    rows: np.ndarray  # the basis states they span, as rows of the component
    pos: np.ndarray   # the orbit state each of those lies in
    coef: np.ndarray  # and its amplitude there

    def dense(self):
        h = np.zeros((self.size, self.size), dtype=complex)
        np.add.at(h, self.entries[:2], self.entries[2])
        return h

    def expand(self, V):
        """Columns V over the orbit states, as columns over `rows`."""
        return self.coef[:, None] * V[self.pos]


def _orbit_blocks(H, shift):
    """H split exactly into blocks, one per component and momentum.

    shift is the basis permutation x -> T x of a symmetry T of H: the
    translation of a periodic chain, the identity of an open one.  A
    component is a connected component of the orbit graph, the orbits of
    T joined where H's nonzero pattern couples them, so its blocks hold
    every eigenvalue with its full multiplicity.  Within a component, r is
    the smallest state of its orbit, p_r the orbit size, x = T^(t_x) r and
    L the order of T.  The orbit state |r, q> exists when q p_r = 0 mod L,
    and H_q[b, a] = sqrt(p_a / p_b) sum_{x in orbit b} H[x, a]
    e^(2 pi i q t_x / L).  Returns a list of (idx, blocks): the sorted
    basis states of each component and its _Blocks.
    """
    import scipy.sparse as sp

    dim = H.shape[0]
    powers = [np.arange(dim)]  # powers[t][x] = T^t x
    while not np.array_equal(nxt := shift[powers[-1]], powers[0]):
        powers.append(nxt)
    orbit = np.array(powers)
    L = len(orbit)
    rep = orbit.min(axis=0)
    t = np.argmax(orbit[:, rep] == powers[0], axis=0)
    p = L // np.count_nonzero(orbit == powers[0], axis=0)
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    H = H.tocoo()
    # a pattern of ones: csgraph would cast complex entries to real and so
    # drop couplings that are purely imaginary
    graph = sp.coo_matrix((np.ones(H.nnz + dim), (np.r_[H.row, shift],
                                                  np.r_[H.col, powers[0]])),
                          shape=(dim, dim))
    comps = _components(graph)
    label = np.empty(dim, dtype=np.intp)
    for c, idx in enumerate(comps):
        label[idx] = c
    # the entries in the columns of orbit representatives, by component
    at_rep = np.flatnonzero(rep[H.col] == H.col)
    at_rep = at_rep[np.argsort(label[H.col[at_rep]], kind="stable")]
    ends = np.cumsum(np.bincount(label[H.col[at_rep]], minlength=len(comps)))
    out = []
    for idx, ent in zip(comps, np.split(at_rep, ends[:-1])):
        R = idx[rep[idx] == idx]
        x = H.row[ent]
        a = np.searchsorted(R, H.col[ent])
        b = np.searchsorted(R, rep[x])
        value = H.data[ent] * np.sqrt(p[H.col[ent]] / p[x])
        own = np.searchsorted(R, rep[idx])
        blocks = []
        for q in range(L):
            ok = q * p[R] % L == 0
            if not ok.any():
                continue
            new = np.cumsum(ok) - 1  # the row of H_q of each orbit kept
            kept = ok[b] & ok[a]
            rows = np.flatnonzero(ok[own])
            blocks.append(_Block(
                size=int(new[-1]) + 1,
                entries=(new[b[kept]], new[a[kept]],
                         value[kept] * roots[q * t[x[kept]] % L]),
                rows=rows, pos=new[own[rows]],
                coef=roots[-q * t[idx[rows]] % L] / np.sqrt(p[idx[rows]])))
        out.append((idx, blocks))
    return out


def ground(system):
    """Lowest eigenpair(s), exact, with the degeneracy counted in a relative
    window.  Every block's spectrum is taken; only the blocks that reach
    into the window are diagonalized with their vectors, which are returned
    at full dimension."""
    comps = system.blocks
    spectra = [[np.linalg.eigvalsh(b.dense()) for b in blocks]
               for _, blocks in comps]
    w = np.sort(np.concatenate([wb for ws in spectra for wb in ws]))
    e0 = float(w[0])
    window = GROUND_WINDOW * max(1.0, abs(e0))
    deg = int(np.sum(w - e0 <= window))
    above = w[w - e0 > window]
    gap_val = float(above[0] - e0) if above.size else float("nan")
    vectors = np.zeros((system.dim, deg), dtype=complex)
    j = 0
    for (idx, blocks), ws in zip(comps, spectra):
        for b, wb in zip(blocks, ws):
            k = int(np.sum(wb - e0 <= window))
            if k:
                V = np.linalg.eigh(b.dense())[1][:, :k]
                vectors[idx[b.rows], j:j + k] = b.expand(V)
                j += k
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
    comps = [(idx, [(b, *np.linalg.eigh(b.dense())) for b in blocks])
             for idx, blocks in system.blocks]
    w_min = min(w.min() for _, parts in comps for _, w, _ in parts)
    Z = sum(np.exp(-beta * (w - w_min)).sum()  # shift guards against overflow
            for _, parts in comps for _, w, _ in parts)
    rho = np.zeros((system.dim, system.dim), dtype=complex)
    for idx, parts in comps:
        # the eigenvectors of every momentum side by side on the component's
        # rows, so that rho is written once per component
        U = np.zeros((idx.size, idx.size), dtype=complex)
        z = np.concatenate([np.exp(-beta * (w - w_min)) for _, w, _ in parts])
        col = 0
        for b, w, V in parts:
            U[b.rows, col:col + w.size] = b.expand(V)
            col += w.size
        rho[np.ix_(idx, idx)] = (U * (z / Z)) @ U.conj().T
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
