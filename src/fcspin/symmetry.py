"""Finite-window symmetry certification for finitely correlated states.

Each check decides, on windows up to a stated length and at a stated
tolerance, one invariance property of the state: reality (transpose
invariance in the fixed basis), lattice reflection with a twist,
reflection positivity with a twist, and rotation invariance.  Structural
checks decide the algebraic consequences: triviality of the modular
operator, self-adjointness of the transfer operator, the twisted-adjoint
relation of the Kraus family, and existence of a covariance intertwiner.

The windowed checks act on the d^l x d^l window tensor one site at a time:
a one-site matrix (a rotation generator, the twist r0) is applied at each
row and column site of its (d,)*2l view, and the site reversal is one
transpose of that view, so no operator on the whole window is formed.  A
negative window length is refused; length 0 is the vacuous pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, _require_tol
from .fcs import _products, max_window_entries, modular_data, window_expectations
from .su2 import TwistMatrix, compute_mu
from .transfer import decay_certificate

__all__ = [
    "SymmetryVerdict",
    "IntertwinerReport",
    "AuditClause",
    "AuditReport",
    "check_real",
    "check_lattice_twist",
    "check_reflection_positive",
    "check_su2",
    "check_kraus_twist_relation",
    "find_intertwiner",
    "theorem_audit",
]

RP_WINDOW = 2      # longest reflection-positivity half-window of the audit
DECAY_N_MAX = 12   # correlation distances the audit's decay clause checks


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of one finite-window symmetry check.

    status is "pass", "fail", or "indeterminate"; for the decidable checks
    pass holds exactly when defect <= tol.  details maps sub-checks
    (per window length, and per axis for rotations) to their worst
    violations.
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


@dataclass(frozen=True)
class IntertwinerReport:
    """Bond-space generators X_a implementing the rotation covariance."""

    generators: tuple
    residual: float
    tol: float

    @property
    def found(self):
        return self.residual <= self.tol


@dataclass(frozen=True)
class AuditClause:
    name: str
    kind: str  # "hypothesis" or "conclusion"
    status: str
    value: float
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    clauses: tuple
    delta: float

    def clause(self, name):
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self):
        return all(c.status == "pass" for c in self.clauses)


def _as_twist_matrix(twist, d):
    """Accept a TwistMatrix or a bare unitary with square equal to I."""
    if isinstance(twist, TwistMatrix):
        r0 = twist.r0
    else:
        r0 = np.asarray(twist, dtype=complex)
    if r0.shape != (d, d):
        raise ValueError(f"twist has shape {r0.shape}, expected ({d}, {d})")
    if not np.isfinite(r0).all():
        raise ValueError("twist has a non-finite entry")
    if np.abs(r0 @ r0 - np.eye(d)).max() > 1e-10:
        raise ValueError("twist does not square to the identity")
    if np.abs(r0 @ r0.conj().T - np.eye(d)).max() > 1e-10:
        raise ValueError("twist is not unitary")
    return r0


def _at_site(W, op, p):
    """W with the d x d matrix op applied at axis p of its (d,)*n view:
    W'[.., i, ..] = sum_x op[x, i] W[.., x, ..], one batched matmul."""
    d = op.shape[0]
    return np.matmul(op.T, W.reshape(d ** p, d, -1)).reshape(W.shape)


def _require_window(m):
    if m < 0:
        raise ValueError("window length must be >= 0")


def _worst(details):
    """Largest sub-defect, 0 if none; NaN if any is NaN (the builtin max
    drops a NaN that is not its first argument)."""
    return float(np.max(list(details.values()), initial=0.0))


def _verdict(name, window, defect, tol, details):
    """Pass exactly when the defect is finite and <= tol."""
    status = "pass" if np.isfinite(defect) and defect <= tol else "fail"
    return SymmetryVerdict(name=name, window=window, defect=float(defect),
                           tol=tol, status=status, details=details)


def check_real(state, m, tol=1e-9):
    """Transpose invariance in the fixed basis on windows of length <= m."""
    _require_tol(tol)
    _require_window(m)
    details = {}
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        details[length] = float(np.abs(W - W.T).max())
    return _verdict("real", m, _worst(details), tol, details)


def check_lattice_twist(state, twist, m, tol=1e-9):
    """Invariance under site reversal about a bond with a per-site twist.

    For each length l <= m the defect is |W' - W|_max, where W' applies
    r0^T to every row site and r0^* to every column site of the window
    tensor W, one site at a time, and then reverses the order of the row
    sites and of the column sites, one transpose of the (d,)*2l view.
    """
    _require_tol(tol)
    _require_window(m)
    d = state.d
    r0 = _as_twist_matrix(twist, d)
    details = {}
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        T = W
        for p in range(length):
            T = _at_site(_at_site(T, r0, p), r0.conj(), length + p)
        mirror = [*range(length - 1, -1, -1), *range(2 * length - 1, length - 1, -1)]
        T = T.reshape((d,) * 2 * length).transpose(mirror).reshape(W.shape)
        details[length] = float(np.abs(T - W).max())
    return _verdict("lattice-twist", m, _worst(details), tol, details)


def _rp_gram_verdict(blocks, m, tol, zero_mode):
    """Reflection-positivity verdict of a square Gram matrix C, given as
    the list of its diagonal blocks (C is zero off them).

    C is the Gram form itself or its compression to a subspace holding the
    range of both G and G*; zero_mode says that the complement is nonzero,
    so 0 is also an eigenvalue of the hermitized form.  The verdict requires
    the hermitized matrix, hermitized block by block, to have smallest
    eigenvalue >= -tol and the Frobenius norm of C - C* to be at most
    100 tol.
    """
    herm_defect = float(np.sqrt(sum(
        np.linalg.norm(B - B.conj().T) ** 2 for B in blocks)))
    min_eig = min(float(np.linalg.eigvalsh((B + B.conj().T) / 2).min())
                  for B in blocks)
    if zero_mode:
        min_eig = min(min_eig, 0.0)
    defect = max(0.0, -min_eig)
    status = "pass" if defect <= tol and herm_defect <= 100 * tol else "fail"
    return SymmetryVerdict(
        name="reflection-positive", window=m, defect=defect, tol=tol,
        status=status, details={"min_eig": min_eig, "herm_defect": herm_defect},
    )


def check_reflection_positive(state, twist, m, tol=1e-9):
    """Positivity of the twisted-reflection Gram form on length-m windows.

    The Gram matrix G over the matrix units (x, y) of the right half pairs
    each against the twisted mirror image (a, b) of one on the left half.
    It factors through bond space (Fannes-Nachtergaele-Werner) as G = A B,
    with A[(a, b), (p, q)] = (M_b* rho M_a)[p, q] and B[(p, q), (x, y)] =
    (v_x v_y*)[q, p] over the length-m products v_x, where M_a =
    vt_{a_m} .. vt_{a_1} is the reversed product of the twisted family
    vt_b = sum_i conj(r0[i, b]) v_i; by (ab)^T = b^T a^T, M_a is the
    transpose of the forward product vt_{a_1}^T .. vt_{a_m}^T.  A is
    D^2 x k^2 with D = d^m, so the hermitized G has rank <= 2 k^2.  With
    [A, B*] = Q R, both G and G* map into the span of Q and vanish on its
    complement, so for C = Q* G Q = R1 R2* the hermitized C has the nonzero
    spectrum of the hermitized G and |C - C*|_F = |G - G*|_F; when
    D^2 > 2 k^2, 0 is also an eigenvalue.
    The length-2m window is never built, and the size cap bounds the
    D^2 k^2 entries of A.
    """
    _require_tol(tol)
    _require_window(m)
    r0 = _as_twist_matrix(twist, state.d)
    d, k = state.d, state.k
    D = d ** m
    if D * D * k * k > max_window_entries():
        raise ResourceLimitError(
            f"reflection-positivity Gram at window {m}, d={d}, k={k} exceeds "
            "the configured cap"
        )
    V = state.kraus.stacked()
    M = _products(np.einsum("ib,iqp->bpq", r0.conj(), V), m).transpose(0, 2, 1)
    L = _products(V, m)
    A = np.matmul(M.conj().transpose(0, 2, 1)[None], (state.rho @ M)[:, None])
    A = A.reshape(D * D, k * k)
    # B*[(x, y), (p, q)] = (v_y v_x*)[p, q]
    Bh = np.matmul(L[None], L.conj().transpose(0, 2, 1)[:, None]).reshape(D * D, k * k)
    # [A, B*] = Q R with Q* A = R1, Q* B* = R2, so Q* G Q = R1 R2*
    R = np.linalg.qr(np.hstack([A, Bh]), mode="r")
    C = R[:, :k * k] @ R[:, k * k:].conj().T
    return _rp_gram_verdict([C], m, tol, zero_mode=D * D > 2 * k * k)


def check_su2(state, rep, m, *, tol=1e-8):
    """Rotation invariance of the windows of length <= m.

    For each length and axis a, the defect is |A_a^T W - W conj(A_a)|_max,
    with A_a the sum of the one-site generators S_a over the window: S_a^T
    applied to each row site of W minus S_a^* applied to each column site,
    one site at a time.  This is
    the Lie-algebra form of u(g)^T W conj(u(g)) = W for the product action
    u(g) = exp(i theta.S) on every site; SU(2) is connected, so a zero
    defect certifies invariance under every rotation, not only sampled ones.
    The entries of W are expectations of matrix units, so |W| <= 1 and the
    defect is absolute.
    """
    _require_tol(tol)
    _require_window(m)
    if rep.d != state.d:
        raise ValueError(
            f"representation dimension {rep.d} != physical dimension {state.d}"
        )
    details = {}
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        for label, S in zip("xyz", rep.generators()):
            C = sum(_at_site(W, S, p) - _at_site(W, S.conj(), length + p)
                    for p in range(length))
            details[(length, label)] = float(np.abs(C).max())
    return _verdict("su2-invariant", m, _worst(details), tol, details)


def _real_form(twist, d):
    """The real matrix zeta * r0 of a unitary involution r0 (a TwistMatrix or
    a bare matrix) whose conjugate is +-r0 (ValueError otherwise)."""
    r0 = _as_twist_matrix(twist, d)
    mu = compute_mu(TwistMatrix(d=d, r0=r0, zeta=1.0 + 0j, mu=1))
    return r0.real if mu == 1 else r0.imag  # zeta = 1 or -i, as in build_twist


def _polar_unitary(M):
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def _twist_combination(kraus, r_real):
    """c_i = sum_j r[j, i] v_j for a real twist matrix r."""
    V = kraus.stacked()
    return np.einsum("ji,jab->iab", r_real.astype(complex), V)


# Points of the full-circle phase grid.  The numerical radius of Q lies
# within pi / _TWIST_GRID of the grid maximum because ||Q|| <= 1; that slack
# enters details["lower_bound"], and at 64 points it still certifies generic
# families (numerical radius near 0.5-0.9) as failing.  The grid maximum is
# found by a pruned search (_grid_maximum) that diagonalizes every
# _TWIST_COARSE-th angle first, so the first bounds span pi / 4.
_TWIST_GRID = 64
_TWIST_COARSE = 8
# A grid direction is skipped only when its bound plus this margin stays
# below the best value found.  The margin covers the rounding of the
# eigenvalues behind both, a small multiple of k^2 eps: it is 4 times the
# gate slack below at k = 8, and the gate slack takes over past k = 16.
_TWIST_PRUNE_MARGIN = 1e-12
_TWIST_ASCENT_ROUNDS = 20
# Eigenvalues of Re(e^{i theta} Q) this close to the top one span the top
# eigenspace.  Two direct summands whose phases differ by phi give top
# eigenvalues 1 and cos(2 phi) ~ 1 - 2 phi^2, and their joint gauge has defect
# ~ phi, so 1e-6 groups summands up to a joint defect ~ 7e-4, below the 1e-3
# fail threshold.
_TWIST_CLUSTER = 1e-6
# Rounding margin of the pass gate, per k^2 (see check_kraus_twist_relation).
_TWIST_GATE_SLACK = 16 * np.finfo(float).eps


def _twist_residual(W, C, targets):
    """max_i ||v_i* - lam W c_i W*|| for a bond unitary W at its optimal
    phase lam, and lam."""
    M = np.einsum("ab,ibc,dc->iad", W, C, W.conj())
    h = complex(np.vdot(M, targets))
    lam = h / abs(h) if abs(h) > 1e-14 else 1.0 + 0j
    return float(np.linalg.norm(targets - lam * M, 2, axis=(1, 2)).max()), lam


def _grid_maximum(hermitian_part, sigma, margin):
    """Largest top eigenvalue of hermitian_part(phi) over the grid phi =
    2 pi j / _TWIST_GRID, the first phi reaching it in the order of a full
    loop over the grid, and the number of angles diagonalized.

    One eigvalsh at phi = pi n / half gives the support function h of the
    numerical range of Q at two grid directions, h(phi) = e[-1] and
    h(phi + pi) = -e[0].  h is sublinear, so between evaluated directions
    a < phi < b less than pi apart

        h(phi) <= [sin(b - phi) h(a) + sin(phi - a) h(b)] / sin(b - a),

    and h <= w(Q) <= sigma = ||Q||.  Every _TWIST_COARSE-th angle is
    diagonalized first, then the angle of highest bound, until no bound plus
    margin reaches the best value found.  Every skipped direction then lies
    strictly below the maximum, so the maximum, its first direction and the
    angle, computed with the loop's own expression, are those of the full
    grid.
    """
    half = _TWIST_GRID // 2
    step = 2 * np.pi / _TWIST_GRID
    h = np.zeros(_TWIST_GRID)
    done = np.zeros(_TWIST_GRID, dtype=bool)
    j = np.arange(_TWIST_GRID)
    todo = range(0, half, _TWIST_COARSE)
    while todo:
        for n in todo:
            e = np.linalg.eigvalsh(hermitian_part(np.pi * n / half))
            h[n], h[n + half] = e[-1], -e[0]
            done[n] = done[n + half] = True
        # nearest evaluated directions a < j < b, cyclically
        known = np.flatnonzero(done)
        after = np.searchsorted(known, j) % known.size
        a, b = known[after - 1], known[after]
        da, db = (j - a) % _TWIST_GRID, (b - j) % _TWIST_GRID
        bound = ((np.sin(db * step) * h[a] + np.sin(da * step) * h[b])
                 / np.sin((da + db) * step))
        bound = np.where(done, -np.inf, np.minimum(bound, sigma))
        per_angle = np.maximum(bound[:half], bound[half:])
        n = int(np.argmax(per_angle))
        stop = done.all() or per_angle[n] + margin < h[done].max()
        todo = () if stop else (n,)

    radius, theta = -np.inf, 0.0
    for n in np.flatnonzero(done[:half]).tolist():
        for val, angle in ((h[n], np.pi * n / half), (h[n + half], np.pi * (n / half + 1))):
            if val > radius:
                radius, theta = val, angle
    return radius, theta, int(done[:half].sum())


def _twist_verdict(W, defect, lam, multiplicity, lower_bound, grid_angles, tol):
    if np.isfinite(defect) and defect <= tol:
        status = "pass"
    elif np.isfinite(defect) and defect < 1e-3:
        status = "indeterminate"
    else:
        status = "fail"
    return SymmetryVerdict(
        name="twist-adjoint-relation", window=1, defect=defect, tol=tol,
        status=status, details={"gauge": W, "phase": lam,
                                "multiplicity": multiplicity,
                                "lower_bound": lower_bound,
                                "grid_angles": grid_angles},
    )


def check_kraus_twist_relation(state, twist, tol=1e-8):
    """Direct solve of the twisted-adjoint relation of the Kraus family.

    Decides whether there exist a bond unitary W and a phase lam with
    v_i* = lam * W c_i W* for all i, where c_i = sum_j r[j, i] v_j and r is
    the real form of the twist (a TwistMatrix, or a bare unitary involution
    r0 with conj(r0) = +-r0).  For unitary W and |lam| = 1,

        sum_i ||v_i* W - lam W c_i||_F^2 = 2k - 2 Re(lam <vec W, Q vec W>),

    with Q = sum_i v_i (x) c_i^T, a k^2 x k^2 matrix of norm <= 1.  The best
    pair is therefore the top eigenvector of Re(e^{i theta} Q) at the theta
    maximizing its top eigenvalue (the numerical radius w of Q), found by
    ascent steps alternating that eigenvector with its optimal phase.  The
    eigenvector, reshaped to k x k and polar-projected, is W; when the top
    eigenspace is degenerate (non-injective families) a fixed combination of
    it is projected instead, followed by one polar step if that still misses
    tol.  The defect is the residual of that unitary W at its optimal phase,
    so a pass never rests on an eigenvalue estimate.

    Each term of the sum is at most k defect^2, so a pass forces
    w >= 1 - d tol^2 / 2 and hence sigma_max(Q)^2 >= 1 - d tol^2.  When one
    eigensolve of Q* Q allows that, a pass is tried first: a unimodular
    eigenvalue mu of the contraction Q has an eigenvector x with Q* x =
    conj(mu) x, a top singular vector, so one ascent round starts from the
    phase -arg(x* Q x) of the top eigenvector x of Q* Q.  Otherwise, or when
    that attempt misses tol, a 64-point phase grid locates w and the ascent
    runs from the grid maximum.  The grid maximum is found exactly by a
    pruned search (_grid_maximum): the support-function bound of the
    numerical range skips the grid angles that cannot reach it.

    status is "pass" for defect <= tol, "fail" for defect >= 1e-3, and
    "indeterminate" in between.  details holds the gauge W, the phase lam,
    the multiplicity of the top eigenspace, lower_bound, a value no unitary
    W and phase can beat: sqrt(2 (1 - w') / d), with w' = grid maximum +
    pi / 64 an upper bound on w, and grid_angles, the number of grid angles
    diagonalized (0 when the first attempt passes).  A pass reports the
    trivial lower_bound 0.0, which is also what the grid gives whenever
    w cos(pi / 64) >= 1 - pi / 64, as at every pass with d tol^2 <= 0.09.
    """
    _require_tol(tol)
    d, k = state.d, state.k
    V = state.kraus.stacked()
    targets = V.conj().transpose(0, 2, 1)
    C = _twist_combination(state.kraus, _real_form(twist, d))
    # Q[(b, a), (c, e)] = sum_i v_i[b, c] c_i[e, a], so <vec W, Q vec W> =
    # sum_i tr(W* v_i W c_i) for row-major vec
    Q = np.einsum("ibc,iea->bace", V, C).reshape(k * k, k * k)

    def hermitian_part(theta):
        A = np.exp(1j * theta) * Q
        return (A + A.conj().T) / 2

    def ascend(theta):
        """Eigenpairs at theta and the optimal phase of the top vector."""
        e, X = np.linalg.eigh(hermitian_part(theta))
        z = np.exp(1j * theta) * np.vdot(X[:, -1], Q @ X[:, -1])
        return e, X, theta - np.angle(z)

    def solve(theta, rounds):
        """Gauge, defect, phase and top multiplicity after at most `rounds`
        ascent rounds from theta."""
        # Each step theta -> theta - arg(e^{i theta} z) fits the phase of the
        # current top vector and never lowers the top eigenvalue.  The steps
        # shrink geometrically, so two of them give Aitken's estimate of the
        # limit.
        for _ in range(rounds):
            e, X, t1 = ascend(theta)
            if abs(t1 - theta) <= 1e-13:
                break
            t2 = ascend(t1)[2]
            rate = (t2 - t1) / (t1 - theta)
            theta = t1 + (t2 - t1) / (1 - rate) if 0 < rate < 1 else t2

        top = X[:, e >= e[-1] - _TWIST_CLUSTER]
        multiplicity = top.shape[1]
        x = top[:, -1]
        if multiplicity > 1:
            rng = np.random.default_rng(0)
            x = top @ (rng.normal(size=multiplicity) + 1j * rng.normal(size=multiplicity))
        W = _polar_unitary(x.reshape(k, k))
        defect, lam = _twist_residual(W, C, targets)
        if multiplicity > 1 and defect > tol:
            W_step = _polar_unitary(lam * np.einsum("iab,bc,icd->ad", V, W, C))
            step = _twist_residual(W_step, C, targets)
            if step[0] < defect:
                W, (defect, lam) = W_step, step
        return W, defect, lam, multiplicity

    # The eigenvalues of Q* Q (norm <= 1) carry a backward error of a small
    # multiple of k^2 eps, so the gate gives way by _TWIST_GATE_SLACK k^2:
    # a family that can pass is never routed around the pass attempt.
    s, X = np.linalg.eigh(Q.conj().T @ Q)
    if s[-1] >= 1 - d * tol ** 2 - _TWIST_GATE_SLACK * k * k:
        x = X[:, -1]
        W, defect, lam, multiplicity = solve(-np.angle(np.vdot(x, Q @ x)), 1)
        if defect <= tol:
            return _twist_verdict(W, defect, lam, multiplicity, 0.0, 0, tol)

    margin = max(_TWIST_PRUNE_MARGIN, _TWIST_GATE_SLACK * k * k)
    radius, theta, grid_angles = _grid_maximum(
        hermitian_part, np.sqrt(max(s[-1], 0.0)), margin)
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - radius - np.pi / _TWIST_GRID) / d)))
    W, defect, lam, multiplicity = solve(theta, _TWIST_ASCENT_ROUNDS)
    return _twist_verdict(W, defect, lam, multiplicity, lower_bound,
                          grid_angles, tol)


def find_intertwiner(state, rep, tol=1e-8):
    """Bond generators X_a of the rotation covariance of the Kraus family.

    Solves, in the least-squares sense, the linear equations
    sum_j (S_a)_{ij} v_j* + [X_a, v_i*] = 0 for Hermitian X_a.  They are
    linear in (S_a, X_a), so they hold for theta.S and theta.X at every
    theta; the index action of theta.S and the commutator with theta.X
    commute, so the exponential of their sum factors.  A zero residual for
    each axis therefore gives the covariance
    sum_j u(g)_{ji} v_j = U_g v_i U_g* with U_g = exp(i theta.X) for every
    g = exp(i theta.S).
    """
    _require_tol(tol)
    if rep.d != state.d:
        raise ValueError(
            f"representation dimension {rep.d} != physical dimension {state.d}"
        )
    k = state.k
    eye = np.eye(k)
    Vdag = np.stack([v.conj().T for v in state.kraus.v])
    scale = max(1.0, float(max(np.linalg.norm(S, 2) for S in rep.generators())))
    # vec(X M - M X) = (I (x) M^T - M (x) I) vec(X), row-major
    A = np.vstack([np.kron(eye, Vdag[i].T) - np.kron(Vdag[i], eye)
                   for i in range(state.d)])
    gens = []
    residual = 0.0
    for S in rep.generators():
        b = np.concatenate([
            -np.einsum("j,jab->ab", S[i], Vdag).reshape(-1)
            for i in range(state.d)
        ])
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        X = x.reshape(k, k)
        X = X - (np.trace(X) / k) * eye
        X = (X + X.conj().T) / 2
        res = float(np.abs(A @ X.reshape(-1) - b).max()) / scale
        residual = max(residual, res)
        gens.append(X)
    return IntertwinerReport(generators=tuple(gens), residual=residual, tol=tol)


def theorem_audit(state, rep, twist, windows=2, tol=1e-8):
    """Composite report: symmetry hypotheses, then structural conclusions.

    Hypotheses: reality, lattice reflection with twist, reflection
    positivity with twist, rotation invariance.  Conclusions: trivial
    modular operator, unique transfer fixed point, self-adjoint transfer
    operator, twisted-adjoint Kraus relation, and exponential decay of
    two-point correlations.  Clause order is fixed for stable output.
    """
    _require_tol(tol)
    if windows < 1:
        raise ValueError("window length must be >= 1")
    clauses = []

    v = check_real(state, windows, tol)
    clauses.append(AuditClause("real", "hypothesis", v.status, v.defect))
    v = check_lattice_twist(state, twist, windows, tol)
    clauses.append(AuditClause("lattice-twist", "hypothesis", v.status, v.defect))
    v = check_reflection_positive(state, twist, min(windows, RP_WINDOW), tol)
    clauses.append(AuditClause(
        "reflection-positive", "hypothesis", v.status, v.defect,
        note=f"min eigenvalue {v.details['min_eig']:.3e}"))
    v = check_su2(state, rep, windows, tol=tol)
    clauses.append(AuditClause("su2-invariant", "hypothesis", v.status, v.defect))

    md = modular_data(state)
    clauses.append(AuditClause(
        "modular-trivial", "conclusion",
        "pass" if md.delta_defect <= 10 * tol else "fail", md.delta_defect))

    cert = decay_certificate(state, rep.Sz, rep.Sz, DECAY_N_MAX, tol)
    clauses.append(AuditClause(
        "ergodic", "conclusion",
        "pass" if cert.gap.fixed_multiplicity == 1 else "fail",
        float(cert.gap.fixed_multiplicity)))
    clauses.append(AuditClause(
        "transfer-selfadjoint", "conclusion",
        "pass" if cert.gap.selfadjoint_defect <= 10 * tol else "fail",
        cert.gap.selfadjoint_defect))

    v = check_kraus_twist_relation(state, twist, tol)
    clauses.append(AuditClause("twist-adjoint-relation", "conclusion",
                               v.status, v.defect))

    clauses.append(AuditClause(
        "exponential-decay", "conclusion",
        "pass" if cert.passed and cert.delta < 1.0 else "fail", cert.delta,
        note=cert.reason))
    return AuditReport(clauses=tuple(clauses), delta=cert.delta)
