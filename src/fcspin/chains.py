"""Finite periodic spin chains as an independent oracle.

Exact diagonalization of nearest-neighbour isotropic chains (the
Heisenberg antiferromagnet and the spin-1 bilinear-biquadratic projector
point), ground and Gibbs states, correlation profiles, and the
finite-volume reflection-positivity Gram check.  A basis state is a label
x < d^n whose base-d digits are the site states, site 0 the most
significant.  H is built from those labels in integer arithmetic and held
as its nonzero entries.  Every chain is diagonalized the same way, densely,
one block at a time, by three symmetries of H that permute the labels.
Translation: a block lies in a connected component of the orbit graph of
H's nonzero pattern under translation, at one momentum; an open chain has
the trivial group, so its components are H's own.  Spin flip (every
digit a -> d - 1 - a): of two components it exchanges, only one is built.
Site reflection (the digits reversed), when H is real: it halves the
blocks at momenta 0 and L/2 into even and odd parts, and makes the blocks
at the other momenta real, so that every block of a real H is real and
only one of each conjugate pair q, L - q is diagonalized.  A symmetry is
used only when H's entries are invariant under it.  The layers after the
diagonalization keep to the blocks the state already has: a Gibbs state
is one dense block per component, correlations are read from two-site
reduced density matrices summed block by block, and the RP Gram matrix is
gathered entry by entry from those blocks (the twist is monomial) and
decided one connected component of its pattern at a time.  Neither a
Gibbs state nor its Gram forms a dim x dim array of the whole chain, and
MAX_BLOCK_BYTES caps every dense block.

The module uses numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ResourceLimitError, _require_tol
from .su2 import TwistMatrix, build_spin_rep
from .symmetry import _rp_gram_verdict

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
        """H split into its symmetry blocks by _orbit_blocks, built once and
        shared by ground and gibbs; an open chain has momentum 0 alone."""
        x = np.arange(self.dim)
        # translation rolls the digits by one place: x's leading digit,
        # the state of site 0, becomes the state of site n - 1
        shift = (x * self.d % self.dim + x // self.d ** (self.n - 1)
                 if self.periodic else x)
        place = self.d ** np.arange(self.n)
        reflect = x[:, None] // place[::-1] % self.d @ place
        return _orbit_blocks(self.H, shift, reflect)


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
    H = CooMatrix(shape=(dim, dim),
                  row=col + np.array(deltas, dtype=np.intp)[k], col=col,
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
    """H on one symmetry sector of a component, with the map back onto the
    basis.  The sector's basis vectors are combinations of at most two
    orbit states |r, q> = sum over its orbit x = T^t r of
    e^(-2 pi i q t / L) / sqrt(p_r) |x>, so each basis state has amplitudes
    on at most two of them.  The block is kept as the entries of its lower
    triangle and made dense only while it is diagonalized, so a chain's
    blocks together hold about as much as H; the map back is worked out on
    first use, since most blocks' vectors are never needed.  A paired
    block also stands for its partner at momentum L - q, whose block is its
    conjugate on the same orbits: the partner's eigenvalues are its own and
    its eigenvectors, back on the basis, are the conjugates of its own."""
    size: int         # the number of basis vectors of the sector
    entries: tuple    # (i, j, value), i >= j, one per position
    pair: bool        # whether it also stands for its conjugate partner
    # () -> (rows, pos, coef): the basis states the sector spans, as rows
    # of the component, and rows x 2 arrays of the vectors each has
    # amplitudes on and of those amplitudes (0 for a missing one)
    spread: object = field(repr=False, compare=False)

    @cached_property
    def _basis(self):
        return self.spread()

    @property
    def rows(self):
        return self._basis[0]

    def dense(self):
        return _dense([self])[0]

    def expand(self, V):
        """Columns V over the sector's vectors, as columns over `rows`."""
        _, pos, coef = self._basis
        return np.einsum("rk,rkj->rj", coef, V[pos])


def _orbit_blocks(H, shift, reflect):
    """H split exactly into blocks by translation, spin flip and reflection.

    shift is the basis permutation x -> T x of a symmetry T of H: the
    translation of a periodic chain, the identity of an open one.  A
    component is a connected component of the orbit graph, the orbits of
    T joined where H's nonzero pattern couples them, so its blocks hold
    every eigenvalue with its full multiplicity.  Within a component, r is
    the smallest state of its orbit, p_r the orbit size, x = T^(t_x) r and
    L the order of T.  The orbit state |r, q> exists when q p_r = 0 mod L,
    and H_q[b, a] = sqrt(p_a / p_b) sum_{x in orbit b} H[x, a]
    e^(2 pi i q t_x / L).  When H is real, H_(L-q) = conj(H_q), so only
    q <= L/2 is built and the blocks with 0 < q < L/2 are paired.

    Two more permutations are used when H's entries are invariant under
    them, to 16 eps max|H|.  The spin flip F, x -> dim - 1 - x, maps each
    component onto one with the same spectrum: of two components it
    exchanges only the first is built, and it stands for the other too.
    reflect is the site reflection P, the digits of x reversed, used when
    H is real and P maps every component onto itself.  P T P = T^(-1), so
    P |r, q> = e^(-2 pi i q s_r / L) |r', -q> with P r = T^(s_r) r'.  At
    q = 0 and q = L/2 that is a signed permutation of the orbit states,
    and the block splits into its even and odd halves, spanned by e_r and
    by (e_r +- phi_r e_r') / sqrt 2.  At 0 < q < L/2, PK (K is complex
    conjugation) acts on the orbit states as the symmetric monomial J with
    J[r', r] = phi_r = e^(2 pi i q s_r / L), and the columns of the Takagi
    factor W (W W^T = J): e^(i theta_r / 2) e_r where r' = r, else
    (e_r + phi_r e_r') / sqrt 2 and i (e_r - phi_r e_r') / sqrt 2, are
    fixed by PK, so W* H_q W is real.  Either way a sector vector u_a made
    from the pair {r, r'} has <u_b | H | u_a> = m_r U[r, a] <u_b | H e_r>
    (its real part, under PK), m_r the size of the pair, so only the
    columns of the first member of each pair are read, and every block of
    a real H is real.

    Returns a list of (idx, blocks, flip): the sorted basis states of each
    component built, its _Blocks (by q, then even before odd), and whether
    it stands for its flip image.
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
    comp = np.empty(dim, dtype=np.intp)  # the component of each state
    for c, idx in enumerate(comps):
        comp[idx] = c

    def invariant(g):
        # g maps T to T or T^(-1), so H[g y, g a] is the entry of a
        # representative's column moved there by a power of T
        moved = rep[g[a]] * dim + orbit[-t[g[a]] % L, g[x]]
        order = np.argsort(moved)
        return bool(np.array_equal(moved[order], a * dim + x) and (
            x.size == 0 or np.abs(H.data[ent[order]] - H.data[ent]).max()
            <= 16 * np.finfo(float).eps * np.abs(H.data).max()))

    first = np.array([idx[0] for idx in comps])
    own = np.arange(len(comps))
    partner = comp[dim - 1 - first] if invariant(dim - 1 - powers[0]) else own
    built = partner >= own
    mirror = (real and invariant(reflect)
              and np.array_equal(comp[reflect[first]], own))
    states = np.concatenate([idx for idx, keep in zip(comps, built) if keep])
    R = states[rep[states] == states]  # the representatives, by component
    slot = np.empty(dim, dtype=np.intp)  # the number of each representative
    slot[R] = np.arange(R.size)
    # the reflection partner r' of each representative and s_r; without
    # the reflection every representative is its own partner, s_r = 0
    img = slot[rep[reflect[R]]] if mirror else np.arange(R.size)
    s = t[reflect[R]] if mirror else np.zeros(R.size, dtype=np.intp)
    lead = np.arange(R.size) <= img            # the first of its pair
    head = np.minimum(np.arange(R.size), img)  # and that first member
    m = 1 + (img != np.arange(R.size))         # and the size of the pair
    # the entries in the columns of first members, at every q at once
    ent = ent[built[comp[a]]]
    ent = ent[lead[slot[H.col[ent]]]]
    x, a = H.row[ent], H.col[ent]
    value = (H.data.real if real else H.data)[ent] * np.sqrt(p[a] / p[x])
    qs = np.arange(L // 2 + 1 if real else L)
    pair = real & (qs > 0) & (2 * qs != L)
    split = mirror & ~pair  # even and odd halves, or one sector
    ok = qs[:, None] * p[R] % L == 0  # whether |r, q> exists
    phi = roots[qs[:, None] * s % L]
    # u[q, r, k]: the amplitude of |r, q> on the k-th vector of its pair
    c1 = np.where(pair, 1j, 1.0)[:, None]
    u = np.stack([np.where(lead, 1.0, phi), np.where(lead, c1, -c1 * phi)],
                 axis=2) / np.sqrt(2)
    u[:, m == 1] = 0
    u[:, m == 1, 0] = np.where(
        pair[:, None], np.exp(1j * np.pi * (qs[:, None] * s[m == 1] % L) / L),
        1.0)
    # the vectors, numbered by sector (component, q, parity)
    q0, h0 = np.nonzero(ok & lead)
    q1, h1 = q0[m[h0] == 2], h0[m[h0] == 2]
    key = ((comp[R[np.concatenate([h0, h1])]] * qs.size
            + np.concatenate([q0, q1])) * 2
           + np.concatenate([split[q0] & (m[h0] == 1) & (phi[q0, h0].real < 0),
                             split[q1]]))
    order = np.argsort(key, kind="stable")
    rank = np.empty(order.size + 1, dtype=np.intp)
    rank[order] = np.arange(order.size)
    rank[-1] = order.size  # a missing vector, in no sector
    vec = np.full((qs.size, R.size, 2), -1)
    vec[q0, h0, 0] = np.arange(h0.size)
    vec[q1, h1, 1] = np.arange(h0.size, order.size)
    vec = rank[vec[:, head]]  # the second member shares the first's vectors
    sizes = np.bincount(key, minlength=2 * qs.size * len(comps))
    sector = np.append(key[order], -1)
    number = np.append(np.arange(order.size)
                       - np.repeat(np.cumsum(sizes) - sizes, sizes), 0)
    # vectors a' to the end of the sector of a': b >= a' in that sector
    room = np.append(np.repeat(np.cumsum(sizes), sizes)
                     - np.arange(order.size), 0)
    # the lower triangle of H'[b, a'] = sum conj(U[k, b]) H_q[k, r] m_r
    # U[r, a'], r a first member; rows k of one pair share their vectors
    q, e = np.nonzero(ok[:, slot[rep[x]]] & ok[:, slot[a]])
    k, r = slot[rep[x[e]]], slot[a[e]]
    bi, aj = vec[q, k], vec[q, r]
    step = bi[:, :, None] - aj[:, None, :]
    n, kb, ka = np.nonzero((step >= 0) & (step < room[aj][:, None, :]))
    q, e, k, r = q[n], e[n], k[n], r[n]
    bi, aj = bi[n, kb], aj[n, ka]
    val = (u[q, k, kb].conj() * m[r] * u[q, r, ka] * value[e]
           * roots[q * t[x[e]] % L])
    complex_q = pair & (not mirror) | (not real)
    if not complex_q.any():
        val = val.real
    flat = bi * order.size + aj
    by = np.argsort(flat)
    flat = flat[by]
    fresh = np.ones(flat.size, dtype=bool)  # the first entry at a position
    fresh[1:] = flat[1:] != flat[:-1]
    start = np.flatnonzero(fresh)
    total = np.add.reduceat(val[by], start) if start.size else val
    bi, aj = np.divmod(flat[start], order.size)
    e_end = np.searchsorted(sector[bi], np.arange(sizes.size), side="right")
    # the states of each component built, a run of `states`
    ends = np.cumsum([idx.size if keep else 0 for idx, keep in zip(comps, built)])
    base = roots[-qs[:, None] * t[states] % L] / np.sqrt(p[states])
    kk = slot[rep[states]]

    def spread(c, q, sec):
        """The block's rows and each row's vectors and amplitudes there: a
        state has one vector of its pair in each sector, or both in one."""
        run = slice(ends[c] - comps[c].size, ends[c])
        k = kk[run]
        at = vec[q, k]
        take = ok[q, k, None] & (sector[at] == sec)
        rows = np.flatnonzero(take.any(axis=1))
        coef = base[q, run, None] * u[q, k] * take
        return rows, np.where(take, number[at], 0)[rows], coef[rows]

    out = [(idx, [], bool(partner[c] != c)) for c, idx in enumerate(comps)]
    for sec in np.flatnonzero(sizes):
        c, q = divmod(sec // 2, qs.size)
        e = slice(e_end[sec - 1] if sec else 0, e_end[sec])
        out[c][1].append(_Block(
            size=int(sizes[sec]),
            entries=(number[bi[e]], number[aj[e]],
                     total[e] if complex_q[q] else total[e].real),
            pair=bool(pair[q]), spread=partial(spread, c, q, sec)))
    return [entry for entry, keep in zip(out, built) if keep]


def _dense(blocks):
    """The dense blocks of one size and type, stacked."""
    first = blocks[0]
    out = np.zeros((len(blocks), first.size, first.size),
                   dtype=first.entries[2].dtype)
    for slot, b in zip(out, blocks):
        i, j, v = b.entries
        slot[j, i] = v.conj()
        slot[i, j] = v
    return out


def _require_block(size, dtype, what, cols=None):
    """Refuse a dense size x cols array of dtype (square by default) above
    MAX_BLOCK_BYTES."""
    nbytes = size * (size if cols is None else cols) * np.dtype(dtype).itemsize
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
    window.  Every block's spectrum is taken, a paired block's twice and a
    flipped component's twice again; only the blocks that reach into the
    window are diagonalized with their vectors, which are returned at full
    dimension, a flipped component's also at the flipped rows."""
    blocks = [(idx, b, flip) for idx, bl, flip in system.blocks for b in bl]
    spectra = _solve([b for _, b, _ in blocks], vectors=False)
    w = np.sort(np.concatenate([wb for (_, b, flip), wb in zip(blocks, spectra)
                                for _ in range((1 + b.pair) * (1 + flip))]))
    e0 = float(w[0])
    window = GROUND_WINDOW * max(1.0, abs(e0))
    deg = int(np.sum(w - e0 <= window))
    above = w[w - e0 > window]
    gap_val = float(above[0] - e0) if above.size else float("nan")
    low = [(idx, b, flip, k) for (idx, b, flip), wb in zip(blocks, spectra)
           if (k := int(np.sum(wb - e0 <= window)))]
    _require_block(system.dim, complex, "ground space", cols=deg)
    vectors = np.zeros((system.dim, deg), dtype=complex)
    j = 0
    solved = _solve([b for _, b, _, _ in low], vectors=True)
    for (idx, b, flip, k), (_, V) in zip(low, solved):
        E = b.expand(V[:, :k])
        rows = idx[b.rows]
        for at in (rows, system.dim - 1 - rows) if flip else (rows,):
            for part in (E, E.conj()) if b.pair else (E,):
                vectors[at, j:j + k] = part
                j += k
    return GroundReport(energy=e0, degeneracy=deg, vectors=vectors,
                        gap=gap_val)


def gibbs(system, beta):
    """Thermal state exp(-beta H)/Z via the spectral decomposition, one
    dense block per component of H, a flipped component's image included.

    Each component's eigenvectors, every block's side by side on its rows,
    are checked against MAX_BLOCK_BYTES before anything is solved.
    """
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
    for idx, _, _ in system.blocks:
        _require_block(idx.size, complex, "Gibbs block")
    solved = iter(_solve([b for _, bl, _ in system.blocks for b in bl],
                         vectors=True))
    comps = [(idx, [(b, *next(solved)) for b in bl], flip)
             for idx, bl, flip in system.blocks]
    w_min = min(w.min() for _, parts, _ in comps for _, w, _ in parts)
    Z = sum((1 + b.pair) * (1 + flip)  # the shift guards against overflow
            * np.exp(-beta * (w - w_min)).sum()
            for _, parts, flip in comps for b, w, _ in parts)
    real = not system.H.data.imag.any()
    blocks = []
    for idx, parts, flip in comps:
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
            rho = X @ X.T
        else:
            rho = X @ X.conj().T
        blocks.append((idx, rho))
        if flip:  # the flip reverses the order of the sorted states; the
            # copies keep every block contiguous for the gathers after
            blocks.append(((system.dim - 1 - idx)[::-1].copy(),
                           rho[::-1, ::-1].copy()))
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
    r0 = TwistMatrix.of(twist, d).r0
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

    # G's components, merged from those of runs of blocks whose entries
    # together are no more than the largest block's, so that no edge list
    # outgrows one block's: a run's partition enters as edges from every
    # (a, b) to the smallest member of its part.  A run of several blocks
    # keeps their placements for the gather below; a block alone in its
    # run, a large one, is placed again there rather than held meanwhile
    counts = [np.count_nonzero(rho) for _, rho in blocks]
    runs, count = [[]], 0
    for b, entries in enumerate(counts):
        if count + entries > max(counts):
            runs.append([])
            count = 0
        runs[-1].append(b)
        count += entries
    placed = [None] * len(blocks)

    def run_labels(run):
        parts = [place(*blocks[b]) for b in run]
        if len(run) > 1:
            for b, part in zip(run, parts):
                placed[b] = part
        return _labels(np.concatenate([part[2] for part in parts]),
                       np.concatenate([part[3] for part in parts]), D * D)

    labels = [run_labels(run) for run in runs]
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
    for (idx, rho), part in zip(blocks, placed):
        i, j, row, col = part if part is not None else place(idx, rho)
        s = sign[idx // D]
        c = comp[row]
        at = end[c] - sizes[c] ** 2 + within[row] * sizes[c] + within[col]
        flat[at] = s[i] * rho[i, j] * s[j].conj()
    grams = [flat[e - s * s:e].reshape(s, s) for s, e in zip(sizes, end)]
    return _rp_gram_verdict(grams, m, tol, zero_mode=False)
