"""Finite periodic spin chains as an independent oracle.

Exact diagonalization of nearest-neighbour isotropic chains (the
Heisenberg antiferromagnet and the spin-1 bilinear-biquadratic projector
point), ground and Gibbs states, correlation profiles, and the
finite-volume reflection-positivity Gram check.  A basis state is a label
x < d^n whose base-d digits are the site states, site 0 the most
significant.  H is built from those labels in integer arithmetic and held
as its nonzero entries.  Every chain is diagonalized the same way, densely,
one block at a time: a block is a connected component of the orbit graph
of H's nonzero pattern under translation, at one momentum.  An open chain
has the trivial group, so its blocks are the components alone.  When every
entry of H is real, the blocks at momenta q and L - q are complex
conjugates, and only one of each such pair is diagonalized.  The layers
after the diagonalization keep to the blocks the state already has: a
Gibbs state is one dense block per component, correlations are read from
two-site reduced density matrices summed block by block, and the RP Gram
matrix is gathered entry by entry from those blocks (the twist is
monomial) and decided one connected component of its pattern at a time.
Neither a Gibbs state nor its Gram forms a dim x dim array of the whole
chain, and MAX_BLOCK_BYTES caps every dense block.

The module uses numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError, _require_tol
from .su2 import build_spin_rep
from .symmetry import _as_twist_matrix, _rp_gram_verdict

__all__ = [
    "SpinChainSystem",
    "CooMatrix",
    "GroundReport",
    "ThermalState",
    "CorrelationRow",
    "MAX_CHAIN_DIM",
    "MAX_BLOCK_BYTES",
    "build_chain",
    "ground",
    "gibbs",
    "correlation_profile",
    "rp_gram_check",
]

MAX_CHAIN_DIM = 6561   # largest Hilbert-space dimension we diagonalize
# cap on any one dense array the oracle forms per block: H_q, the
# eigenvectors and density matrix of a component, a block of the RP Gram
MAX_BLOCK_BYTES = 2 ** 28
GROUND_WINDOW = 1e-9   # relative width of the ground-energy window


@dataclass(frozen=True)
class CooMatrix:
    """A square matrix held as its nonzero entries M[row, col] = data, one
    per position, ordered by column and then by row."""
    shape: tuple
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    @property
    def nnz(self):
        return self.data.size

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data
        return out


@dataclass(frozen=True)
class SpinChainSystem:
    d: int
    n: int
    J: float
    periodic: bool
    model: str
    H: CooMatrix

    @property
    def dim(self):
        return self.d ** self.n

    @cached_property
    def blocks(self):
        """H split into its (component, momentum) blocks, built once and
        shared by ground and gibbs; an open chain has momentum 0 alone."""
        x = np.arange(self.dim)
        # translation rolls the digits by one place: x's leading digit,
        # the state of site 0, becomes the state of site n - 1
        shift = (x * self.d % self.dim + x // self.d ** (self.n - 1)
                 if self.periodic else x)
        return _orbit_blocks(self.H, shift)


@dataclass(frozen=True)
class GroundReport:
    energy: float
    degeneracy: int
    vectors: np.ndarray  # dim x degeneracy, orthonormal columns
    gap: float           # first excitation energy above the ground window


@dataclass(frozen=True)
class ThermalState:
    """A density matrix held as its diagonal blocks: (idx, rho_c) pairs,
    rho_c the dense block on the sorted basis states idx, with rho zero
    off them.  A dense rho is the one block ((np.arange(dim), rho),)."""
    beta: float
    blocks: tuple


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


def build_chain(d, n, J=1.0, periodic=True, model="xxx", field=None):
    """Nearest-neighbour isotropic chain on n sites.

    field, if given, adds sum_sites (fx Sx + fy Sy + fz Sz) — useful as a
    symmetry-breaking control; the unperturbed models commute with the
    total-spin generators and (when periodic) with translation.

    Every stored entry of H is a sum of entries of the two-site term (and
    of the field), with no roundoff fill-in.  An entry op[r, c] of a term
    on some sites maps each basis state x whose digits there read c to
    x + delta, where delta, the change of those digits weighted by their
    places, is fixed by the sites and by (r, c).  So H is one vector of
    values over the columns x per distinct delta, and each term adds into
    them by one gather.  The terms are summed in the order open bonds
    (p, p+1), the wrap bond (n-1, 0), then the field site by site, and H is
    hermitized as (H + H*)/2.
    """
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
    bond = _by_change(_two_site_hamiltonian(d, float(J), model), d, 2)
    terms = [((p, p + 1), bond) for p in range(n - 1)]
    if periodic:
        terms.append(((n - 1, 0), bond))
    if field is not None:
        one = sum(f * S for f, S in zip(field, build_spin_rep(d).generators()))
        terms += [((p,), _by_change(one, d, 1)) for p in range(n)]
    dim = d ** n
    place = d ** np.arange(n - 1, -1, -1)
    digits = np.arange(dim) // place[:, None] % d  # digits[p]: site p's state
    # with -delta for every delta, where H* puts the conjugate entries
    deltas = sorted({sign * int(change @ place[list(sites)])
                     for sites, tables in terms for change, _ in tables
                     for sign in (1, -1)})
    slot = {delta: i for i, delta in enumerate(deltas)}
    herm = np.zeros((len(deltas), dim), dtype=complex)
    for sites, tables in terms:  # herm[slot[delta], x] = H[x + delta, x]
        local = place[n - len(sites):] @ digits[list(sites)]
        for change, table in tables:
            herm[slot[int(change @ place[list(sites)])]] += table[local]
    # (H + H*)/2 in place: the entry at (x + delta, x) and its mirror at
    # (x, x + delta), delta >= 0, become (h + conj(h_mirror))/2 and its
    # conjugate
    for delta in deltas[len(deltas) // 2:]:
        up, down = herm[slot[delta], :dim - delta], herm[slot[-delta], delta:]
        up += down.conj()
        up /= 2
        if delta:
            down[:] = up.conj()
    col, k = np.divmod(np.flatnonzero((herm != 0).T), len(deltas))
    H = CooMatrix(shape=(dim, dim), row=col + np.array(deltas)[k], col=col,
                  data=herm[k, col])
    return SpinChainSystem(d=d, n=n, J=float(J), periodic=bool(periodic),
                           model=model, H=H)


def _by_change(op, d, k):
    """The entries of an operator on k sites, grouped by the change they
    make to the k digits: (change, table) pairs, table[c] = op[r, c] for
    the one r with digits(r) - digits(c) = change, and 0 where none is."""
    digits = np.arange(d ** k)[:, None] // d ** np.arange(k - 1, -1, -1) % d
    r, c = np.nonzero(op)
    step = digits[r] - digits[c]
    out = []
    for change in np.unique(step, axis=0):
        at = (step == change).all(axis=1)
        table = np.zeros(d ** k, dtype=complex)
        table[c[at]] = op[r[at], c[at]]
        out.append((change, table))
    return out


def _labels(u, v, dim):
    """The smallest state of the connected component of each state of the
    undirected graph on range(dim) with edges (u[i], v[i]).

    Label propagation over trees of pointers that always point to a smaller
    state: each round every root hooks onto the smallest root it has an
    edge to, and every pointer then jumps to its root, until no edge joins
    two trees.
    """
    label = np.arange(dim)
    while True:
        a, b = label[u], label[v]
        hooked = label.copy()
        np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(hooked, jumped := hooked[hooked]):
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _components(u, v, dim):
    """Index arrays of the connected components of the undirected graph on
    range(dim) with edges (u[i], v[i]), ordered by their smallest state;
    each array is sorted."""
    label = _labels(u, v, dim)
    order = np.argsort(label, kind="stable")
    sizes = np.unique(label, return_counts=True)[1]
    return np.split(order, np.cumsum(sizes)[:-1])


@dataclass(frozen=True)
class _Block:
    """H on the momentum-q orbit states of one component, with the map back
    onto the basis: |r, q> = sum over its orbit x = T^t r of
    e^(-2 pi i q t / L) / sqrt(p_r) |x>.  H_q is kept as its entries and
    made dense only while it is diagonalized, so a chain's blocks together
    hold about as much as H.  A paired block also stands for its partner
    at momentum L - q, whose H_(L-q) is conj(H_q) on the same orbits: the
    partner's eigenvalues are its own and its eigenvectors, back on the
    basis, are the conjugates of its own."""
    size: int         # the number of orbit states |r, q>
    entries: tuple    # (i, j, value) of H_q; values at a repeated (i, j) add
    rows: np.ndarray  # the basis states they span, as rows of the component
    pos: np.ndarray   # the orbit state each of those lies in
    coef: np.ndarray  # and its amplitude there
    pair: bool        # whether it also stands for its conjugate partner

    def dense(self):
        return _dense([self])[0]

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
    e^(2 pi i q t_x / L).  When H is real, H_(L-q) = conj(H_q), so only
    q <= L/2 is built, the blocks with 0 < q < L/2 paired, and the blocks
    at q = 0 and q = L/2, whose phases are +-1, are real.  Returns a list of
    (idx, blocks): the sorted basis states of each component and its
    _Blocks.
    """
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
    real = not H.data.imag.any()
    # the entries in the columns of orbit representatives: T commutes with
    # H, so they hold every coupling between orbits
    ent = np.flatnonzero(rep[H.col] == H.col)
    x, a = H.row[ent], H.col[ent]
    comps = _components(np.r_[rep[x], rep], np.r_[a, powers[0]], dim)
    comp = np.empty(dim, dtype=np.intp)     # the component of each state
    within = np.empty(dim, dtype=np.intp)   # and its row there
    for c, idx in enumerate(comps):
        comp[idx] = c
        within[idx] = np.arange(idx.size)
    by = np.argsort(comp[a], kind="stable")
    x, a = x[by], a[by]
    value = (H.data.real if real else H.data)[ent[by]] * np.sqrt(p[a] / p[x])
    states = np.concatenate(comps)
    R = states[rep[states] == states]  # the representatives, by component
    out = [(idx, []) for idx in comps]
    for q in range(L // 2 + 1 if real else L):
        ok = q * p % L == 0  # whether the orbit of x has a state at q
        pair = real and 0 < q and 2 * q != L
        kept_R = R[ok[R]]
        sizes = np.bincount(comp[kept_R], minlength=len(comps))
        new = np.empty(dim, dtype=np.intp)  # the row of H_q of each orbit
        new[kept_R] = (np.arange(kept_R.size)
                       - np.repeat(np.cumsum(sizes) - sizes, sizes))
        kept = ok[x] & ok[a]
        phase = roots[q * t[x[kept]] % L]
        i, j = new[rep[x[kept]]], new[a[kept]]
        v = value[kept] * (phase.real if real and not pair else phase)
        at = states[ok[states]]
        pos = new[rep[at]]
        coef = roots[-q * t[at] % L] / np.sqrt(p[at])
        e_end = np.cumsum(np.bincount(comp[a[kept]], minlength=len(comps)))
        s_end = np.cumsum(np.bincount(comp[at], minlength=len(comps)))
        for c in np.flatnonzero(sizes):
            e = slice(e_end[c - 1] if c else 0, e_end[c])
            s = slice(s_end[c - 1] if c else 0, s_end[c])
            out[c][1].append(_Block(
                size=int(sizes[c]), entries=(i[e], j[e], v[e]),
                rows=within[at[s]], pos=pos[s], coef=coef[s], pair=pair))
    return out


def _dense(blocks):
    """The dense H_q of blocks of one size and type, stacked."""
    first = blocks[0]
    out = np.zeros((len(blocks), first.size, first.size),
                   dtype=first.entries[2].dtype)
    for slot, b in zip(out, blocks):
        np.add.at(slot, b.entries[:2], b.entries[2])
    return out


def _require_block(size, dtype, what):
    """Refuse a dense size x size array of dtype above MAX_BLOCK_BYTES."""
    nbytes = size ** 2 * np.dtype(dtype).itemsize
    if nbytes > MAX_BLOCK_BYTES:
        raise ResourceLimitError(
            f"a dense {what} of {size} rows needs {nbytes} bytes, "
            f"over the cap of {MAX_BLOCK_BYTES}")


def _solve(blocks, vectors):
    """eigvalsh of every block, or eigh if vectors, in the order of blocks.

    Blocks of one size and type go through LAPACK in one stacked call of
    at most MAX_BLOCK_BYTES; a single block above that cap is refused
    before anything is allocated.
    """
    groups = {}
    for i, b in enumerate(blocks):
        _require_block(b.size, b.entries[2].dtype, "block")
        groups.setdefault((b.size, b.entries[2].dtype), []).append(i)
    out = [None] * len(blocks)
    for members in groups.values():
        b = blocks[members[0]]
        per = MAX_BLOCK_BYTES // (b.size ** 2 * b.entries[2].itemsize)
        for s in range(0, len(members), per):
            chunk = members[s:s + per]
            stack = _dense([blocks[i] for i in chunk])
            if vectors:
                w, V = np.linalg.eigh(stack)
                out_chunk = list(zip(w, V))
            else:
                out_chunk = list(np.linalg.eigvalsh(stack))
            for i, res in zip(chunk, out_chunk):
                out[i] = res
    return out


def ground(system):
    """Lowest eigenpair(s), exact, with the degeneracy counted in a relative
    window.  Every block's spectrum is taken, a paired block's twice; only
    the blocks that reach into the window are diagonalized with their
    vectors, which are returned at full dimension."""
    blocks = [(idx, b) for idx, bl in system.blocks for b in bl]
    spectra = _solve([b for _, b in blocks], vectors=False)
    w = np.sort(np.concatenate([wb for (_, b), wb in zip(blocks, spectra)
                                for _ in range(1 + b.pair)]))
    e0 = float(w[0])
    window = GROUND_WINDOW * max(1.0, abs(e0))
    deg = int(np.sum(w - e0 <= window))
    above = w[w - e0 > window]
    gap_val = float(above[0] - e0) if above.size else float("nan")
    low = [(idx, b, k) for (idx, b), wb in zip(blocks, spectra)
           if (k := int(np.sum(wb - e0 <= window)))]
    vectors = np.zeros((system.dim, deg), dtype=complex)
    j = 0
    solved = _solve([b for _, b, _ in low], vectors=True)
    for (idx, b, k), (_, V) in zip(low, solved):
        E = b.expand(V[:, :k])
        for part in (E, E.conj()) if b.pair else (E,):
            vectors[idx[b.rows], j:j + k] = part
            j += k
    return GroundReport(energy=e0, degeneracy=deg, vectors=vectors,
                        gap=gap_val)


def gibbs(system, beta):
    """Thermal state exp(-beta H)/Z via the spectral decomposition, one
    dense block per component of H.

    Each component's eigenvectors, every block's side by side on its rows,
    are checked against MAX_BLOCK_BYTES before anything is solved.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    for idx, _ in system.blocks:
        _require_block(idx.size, complex, "Gibbs block")
    solved = iter(_solve([b for _, bl in system.blocks for b in bl],
                         vectors=True))
    comps = [(idx, [(b, *next(solved)) for b in bl])
             for idx, bl in system.blocks]
    w_min = min(w.min() for _, parts in comps for _, w, _ in parts)
    Z = sum((1 + b.pair) * np.exp(-beta * (w - w_min)).sum()  # shift guards
            for _, parts in comps for b, w, _ in parts)  # against overflow
    real = not system.H.data.imag.any()
    blocks = []
    for idx, parts in comps:
        # rho_c = X X* with X = U (z/Z)^(1/2) over the eigenvectors U of
        # every block.  A paired block and its partner, whose vectors are
        # the conjugates, add 2 Re(E e^(-beta w) E*), and the other blocks
        # of a real H are real, so there rho_c = Re(X X*): [Re X, Im X]
        # times its transpose
        U = np.zeros((idx.size, sum(w.size for _, w, _ in parts)),
                     dtype=complex)
        z = np.concatenate([(1 + b.pair) * np.exp(-beta * (w - w_min))
                            for b, w, _ in parts])
        col = 0
        for b, w, V in parts:
            U[b.rows, col:col + w.size] = b.expand(V)
            col += w.size
        X = U * np.sqrt(z / Z)
        if real:
            X = np.hstack([X.real, X.imag])
            blocks.append((idx, X @ X.T))
        else:
            blocks.append((idx, X @ X.conj().T))
    return ThermalState(beta=float(beta), blocks=tuple(blocks))


def _pair_marginal(system, state, p, q):
    """Reduced density matrix of sites p < q as a (d, d, d, d) array R with
    <A_p B_q> = sum R[a, b, c, e] A[c, a] B[e, b].

    state is a thermal state, a vector, or a dim x k block of orthonormal
    vectors, whose marginal is the average over its columns.  One partial
    trace; no operator of the whole chain is formed.  A thermal state's is
    gathered from its blocks: the basis states whose digits agree off sites
    p and q form a group, and rho between two states of a group, when both
    lie in one block, adds into R at their digits (a, b) and (c, e).
    """
    d, n = system.d, system.n
    if isinstance(state, ThermalState):
        sizes = np.array([idx.size for idx, _ in state.blocks])
        u = np.concatenate([idx for idx, _ in state.blocks])
        c = np.repeat(np.arange(sizes.size), sizes)
        block = np.full(system.dim, -1)  # each state's block
        block[u] = c
        row = np.empty(system.dim, dtype=np.intp)  # and its row there
        row[u] = np.arange(u.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # every state of a block against each state of its group, in the
        # order of their digits (a, b) at p and q, kept if in that block
        hi, lo = d ** (n - 1 - p), d ** (n - 1 - q)
        offset = (np.arange(d)[:, None] * hi + np.arange(d) * lo).ravel()
        slot = u // hi % d * d + u // lo % d
        v = (u - offset[slot])[:, None] + offset
        pair = block[v] == c[:, None]
        at = ((row[u] * sizes[c])[:, None] + row[v])[pair]
        cut = np.r_[0, np.cumsum(pair.sum(axis=1))][np.cumsum(sizes)[:-1]]
        value = np.concatenate([rho.reshape(-1)[a] for (_, rho), a in
                                zip(state.blocks, np.split(at, cut))])
        where = (slot[:, None] * d * d + np.arange(d * d))[pair]
        R = (np.bincount(where, value.real, d ** 4)
             + 1j * np.bincount(where, value.imag, d ** 4))
        return R.reshape(d, d, d, d)
    shape = (d ** p, d, d ** (q - p - 1), d, d ** (n - q - 1))
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

    state is a ThermalState or a pure-state vector of system.dim
    amplitudes, which enters as the one block on its support.  Its density
    matrix, transposed, is the window tensor of the whole chain, and the
    Gram matrix over the matrix units (x, y) of the right half pairs each
    against its twisted mirror image (a, b) on the left half:
    G[(a, b), (x, y)] = sum_ij conj(Rr[i, a]) Rr[j, b] rho[(j, y), (i, x)],
    with Rr the site reversal of the half chain followed by the per-site
    twist.  The twist must be monomial, one nonzero per column as the spin
    twist is, so that Rr[pi(c), c] = sigma_c and each nonzero of a block
    of rho is one entry conj(sigma_a) sigma_b rho[(pi b, y), (pi a, x)] of
    G.  G is exactly zero between the connected components of its nonzero
    pattern, so the verdict of check_reflection_positive is taken on its
    diagonal blocks there, each hermitized on its own; no dense rho or G is
    formed.
    """
    _require_tol(tol)
    if system.n % 2 != 0:
        raise ValueError("reflection about the central bond needs an even chain")
    if isinstance(state, ThermalState):
        blocks = state.blocks
    else:
        psi = np.asarray(state)
        if psi.size != system.dim:
            raise ValueError(
                f"a pure state needs system.dim = {system.dim} amplitudes, "
                f"got an array of shape {psi.shape}")
        psi = psi.astype(complex).reshape(-1)
        on = np.flatnonzero(psi)
        _require_block(on.size, complex, "pure-state block")
        blocks = ((on, np.outer(psi[on], psi[on].conj())),)
    d, m = system.d, system.n // 2
    r0 = _as_twist_matrix(twist, d)
    nonzero = r0 != 0
    if not (nonzero.sum(axis=1) == 1).all():
        raise ValueError("the chain RP Gram needs a monomial twist, one "
                         "nonzero entry per row and column")
    D = d ** m
    # Rr[w, mirror[w]] = sign[w] for a left half w: the digits of mirror[w]
    # are those of w reversed, each sent back through r0
    col0 = nonzero.argmax(axis=1)
    digits = np.arange(D) // d ** np.arange(m - 1, -1, -1)[:, None] % d
    mirror = d ** np.arange(m) @ col0[digits]
    sign = r0[digits, col0[digits]].prod(axis=0)
    sign = sign if sign.imag.any() else sign.real  # a real G for a real rho

    def place(idx, rho):
        """The nonzeros (i, j) of a block and their rows and columns in G."""
        left, right = idx // D, idx % D
        i, j = np.nonzero(rho)
        return (i, j, mirror[left[j]] * D + mirror[left[i]],
                right[j] * D + right[i])

    # G's components, merged from those of each block's entries so that no
    # edge list outgrows one block's: a block's partition enters as edges
    # from every (a, b) to the smallest member of its part
    labels = [_labels(*place(idx, rho)[2:], D * D) for idx, rho in blocks]
    comps = _components(np.tile(np.arange(D * D), len(labels)),
                        np.concatenate(labels), D * D)
    dtype = np.result_type(sign, *{rho.dtype for _, rho in blocks})
    sizes = np.array([nodes.size for nodes in comps])
    for size in sizes:
        _require_block(size, dtype, "Gram block")
    comp = np.empty(D * D, dtype=np.intp)    # the component of each (a, b)
    within = np.empty(D * D, dtype=np.intp)  # and its row there
    for c, nodes in enumerate(comps):
        comp[nodes] = c
        within[nodes] = np.arange(nodes.size)
    end = np.cumsum(sizes ** 2)
    flat = np.zeros(end[-1], dtype=dtype)  # the blocks of G, one after another
    for idx, rho in blocks:
        i, j, row, col = place(idx, rho)
        s = sign[idx // D]
        c = comp[row]
        at = end[c] - sizes[c] ** 2 + within[row] * sizes[c] + within[col]
        flat[at] = s[i] * rho[i, j] * s[j].conj()
    grams = [flat[e - s * s:e].reshape(s, s) for s, e in zip(sizes, end)]
    return _rp_gram_verdict(grams, m, tol, zero_mode=False)
