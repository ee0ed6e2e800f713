"""Finite-window symmetry certification for finitely correlated states.

Each check decides, on windows up to a stated length and at a stated
tolerance, one invariance property of the state: reality (transpose
invariance in the fixed basis), lattice reflection with a twist,
reflection positivity with a twist, and rotation invariance.  Structural
checks decide the algebraic consequences: triviality of the modular
operator, self-adjointness of the transfer operator, the twisted-adjoint
relation of the Kraus family, and existence of a covariance intertwiner.

The windowed checks share one sweep that builds each d^l x d^l window
tensor once and applies one-site matrices (a rotation generator, the twist
r0) at each row and column site of its (d,)*2l view; the site reversal is
one transpose of that view, so no operator on the whole window is formed.
Reflection positivity reads no window: its Gram form is factored through
bond space and decided in real arithmetic, in orthonormal Hermitian bases.
A negative window length is refused; length 0 is the vacuous pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ResourceLimitError, _require_tol
from .fcs import (SymmetryVerdict, _hermitian_coordinates, _products, _verdict,
                  max_window_entries, modular_data, window_expectations)
from .su2 import TwistMatrix
from .transfer import decay_certificate

__all__ = [
    "SymmetryVerdict",
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


@dataclass(frozen=True, eq=False)
class AuditReport:
    """The verdicts of theorem_audit, hypotheses then conclusions, and the
    gap delta.  Equality is identity, as for the verdicts it holds."""

    hypotheses: tuple
    conclusions: tuple
    delta: float

    @property
    def clauses(self):
        return self.hypotheses + self.conclusions

    @property
    def all_pass(self):
        return all(v.passed for v in self.clauses)


def _at_site(W, op, p):
    """W with the d x d matrix op applied at axis p of its (d,)*n view:
    W'[.., i, ..] = sum_x op[x, i] W[.., x, ..], one batched matmul."""
    d = op.shape[0]
    return np.matmul(op.T, W.reshape(d ** p, d, -1)).reshape(W.shape)


def _require_window(m):
    if m < 0:
        raise ValueError("window length must be >= 0")


def _require_rep(rep, state):
    if rep.d != state.d:
        raise ValueError(f"representation dimension {rep.d} != physical "
                         f"dimension {state.d}")


def _windowed(state, m, tol, checks):
    """One verdict per (name, defects) in checks, each window of length <= m
    built once; defects(W, length) maps sub-checks to their defects.  A
    verdict's defect is their largest, 0 if none, NaN if any is NaN (the
    builtin max can drop a NaN); _verdict decides it."""
    details = [{} for _ in checks]
    for length in range(1, m + 1):
        W = window_expectations(state, length)
        for found, (_, defects) in zip(details, checks):
            found.update(defects(W, length))
    return [_verdict(name, m, np.max(list(found.values()), initial=0.0), tol, found)
            for found, (name, _) in zip(details, checks)]


def _real_defects(W, length):
    return {length: float(np.abs(W - W.T).max())}


def _lattice_defects(r0, W, length):
    T = W
    for p in range(length):
        T = _at_site(_at_site(T, r0, p), r0.conj(), length + p)
    mirror = [*range(length - 1, -1, -1), *range(2 * length - 1, length - 1, -1)]
    T = T.reshape((len(r0),) * 2 * length).transpose(mirror).reshape(W.shape)
    return {length: float(np.abs(T - W).max())}


def _su2_defects(rep, W, length):
    found = {}
    for label, S in zip("xyz", rep.generators()):
        C = sum(_at_site(W, S, p) - _at_site(W, S.conj(), length + p)
                for p in range(length))
        found[(length, label)] = float(np.abs(C).max())
    return found


def check_real(state, m, tol=1e-9):
    """Transpose invariance in the fixed basis on windows of length <= m."""
    _require_tol(tol)
    _require_window(m)
    return _windowed(state, m, tol, [("real", _real_defects)])[0]


def check_lattice_twist(state, twist, m, tol=1e-9):
    """Invariance under site reversal about a bond with a per-site twist.

    For each length l <= m the defect is |W' - W|_max, where W' applies
    r0^T to every row site and r0^* to every column site of the window
    tensor W, one site at a time, and then reverses the order of the row
    sites and of the column sites, one transpose of the (d,)*2l view.
    """
    _require_tol(tol)
    _require_window(m)
    r0 = TwistMatrix.of(twist, state.d).r0
    return _windowed(state, m, tol,
                     [("lattice-twist", partial(_lattice_defects, r0))])[0]


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
    D^2 x k^2 with D = d^m, so the hermitized G has rank <= 2 k^2.

    The form is real on Hermitian elements.  Row (b, a) of [A, B*] is row
    (a, b) conjugated, with each half's column (p, q) moved to (q, p),
    since M_a* rho M_b = (M_b* rho M_a)* and v_a v_b* = (v_b v_a*)*.  So in
    the orthonormal Hermitian bases U_n of the n x n matrices
    (fcs._hermitian_coordinates), X = U_D* [A, B*] diag(conj U_k, conj U_k)
    is real, and the products of the pairs a <= b give all of it.  Then
    G = U_D X1 X2^T U_D*, and with X = Q R (real), both G and G* map into
    the span of U_D Q and vanish on its complement, so for the real
    C = R1 R2^T the symmetrized C has the nonzero spectrum of the
    hermitized G and |C - C^T|_F = |G - G*|_F; when D^2 > 2 k^2, 0 is also
    an eigenvalue.  The length-2m window is never built, and the size cap
    bounds the D^2 k^2 entries of A.
    """
    _require_tol(tol)
    _require_window(m)
    r0 = TwistMatrix.of(twist, state.d).r0
    d, k = state.d, state.k
    D = d ** m
    if D * D * k * k > max_window_entries():
        raise ResourceLimitError(
            f"reflection-positivity Gram at window {m}, d={d}, k={k} exceeds "
            "the configured cap"
        )
    V = state.kraus.v
    M = _products(np.einsum("ib,iqp->bpq", r0.conj(), V), m).transpose(0, 2, 1)
    L = _products(V, m)
    # rows (a, b) of [A, B*] for a <= b; B*[(x, y), (p, q)] = (v_y v_x*)[p, q]
    a, b = np.triu_indices(D)
    A = np.matmul(M.conj().transpose(0, 2, 1)[b], (state.rho @ M)[a])
    Bh = np.matmul(L[b], L.conj().transpose(0, 2, 1)[a])
    Z = np.concatenate([_hermitian_coordinates(A), _hermitian_coordinates(Bh)], axis=1)
    # row (b, a) of Z is conj(Z[(a, b)]), so the rows of X at E_aa, at
    # (E_ab + E_ba)/sqrt 2 and at i (E_ab - E_ba)/sqrt 2 for a < b are
    # Z[(a, a)], sqrt 2 Re Z[(a, b)] and sqrt 2 Im Z[(a, b)]
    off = Z[a != b] * np.sqrt(2)
    X = np.vstack([Z[a == b].real, off.real, off.imag])
    R = np.linalg.qr(X, mode="r")
    C = R[:, :k * k] @ R[:, k * k:].T
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
    _require_rep(rep, state)
    return _windowed(state, m, tol,
                     [("su2-invariant", partial(_su2_defects, rep))])[0]


def _polar_unitary(M):
    u, _, vh = np.linalg.svd(M)
    return u @ vh


def _twist_combination(kraus, r_real):
    """c_i = sum_j r[j, i] v_j for a real twist matrix r."""
    return np.einsum("ji,jab->iab", r_real.astype(complex), kraus.v)


# Points of the full-circle phase grid.  The numerical radius of Q lies
# within pi / _TWIST_GRID of the grid maximum because ||Q|| <= 1; that slack
# enters details["lower_bound"], and at 64 points it still certifies generic
# families (numerical radius near 0.5-0.9) as failing.
_TWIST_GRID = 64
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
    M = W @ C @ W.conj().T
    h = complex(np.vdot(M, targets))
    lam = h / abs(h) if abs(h) > 1e-14 else 1.0 + 0j
    return float(np.linalg.norm(targets - lam * M, 2, axis=(1, 2)).max()), lam


def _hermitian_part(Q, theta):
    """Re(e^{i theta} Q), the Hermitian part of e^{i theta} Q."""
    A = np.exp(1j * theta) * Q
    return (A + A.conj().T) / 2


def _ascent_step(Q, theta, e, X):
    """Step in theta toward a maximum of the top eigenvalue lam(theta) of
    Re(e^{i theta} Q), read off its eigendecomposition (e, X) at theta.

    With top vector x and z = e^{i theta} x* Q x, lam' = -Im z, and, as
    H'' = -H for H'(theta) = Re(i e^{i theta} Q),

        lam'' = -lam + 2 sum_{j != top} |x_j* H' x|^2 / (lam - lam_j).

    Where lam'' < 0 the step is Newton's, -lam' / lam'', cut to at most one
    grid spacing 2 pi / _TWIST_GRID: where lam'' nears 0 from below, as
    next to an avoided crossing or at a flat maximum, the full step could
    leave the basin of the grid maximum.  Elsewhere, as where two branches
    cross (direct sums), it is the fixed-point step -arg z, which fits the
    phase of x and never lowers lam.
    """
    x = X[:, -1]
    Qx = Q @ x
    u = np.exp(1j * theta)
    z = u * np.vdot(x, Qx)
    Hx = 0.5j * (u * Qx - u.conjugate() * (Q.conj().T @ x))  # H' x
    g = X[:, :-1].conj().T @ Hx
    # an exact crossing (lam_j = lam) gives inf or nan, hence the fallback
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curvature = -e[-1] + 2 * np.sum(np.abs(g) ** 2 / (e[-1] - e[:-1]))
    if curvature < 0:
        spacing = 2 * np.pi / _TWIST_GRID
        return min(max(z.imag / curvature, -spacing), spacing)
    return -np.angle(z)


def _twist_ascent(Q, theta, rounds):
    """Eigendecomposition of Re(e^{i theta} Q) after at most `rounds` of
    them, each followed by one _ascent_step from theta; the ascent stops
    once a step is at most 1e-13."""
    for n in range(rounds):
        e, X = np.linalg.eigh(_hermitian_part(Q, theta))
        if n + 1 == rounds:
            break
        step = _ascent_step(Q, theta, e, X)
        if abs(step) <= 1e-13:
            break
        theta += step
    return e, X


def _twist_gauge(V, C, e, X, tol):
    """Gauge, defect, phase and top multiplicity from the eigendecomposition
    (e, X) of Re(e^{i theta} Q) that the ascent ends at."""
    k = V.shape[1]
    targets = V.conj().transpose(0, 2, 1)
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


def _grid_maximum(Q):
    """Largest top eigenvalue of Re(e^{i phi} Q) over the grid phi =
    2 pi j / _TWIST_GRID, and the first phi reaching it.  One eigvalsh at
    phi = pi n / half gives the top eigenvalue at phi, e[-1], and at
    phi + pi, -e[0]; ties go to the first in loop order, each phi before
    its phi + pi."""
    half = _TWIST_GRID // 2
    radius, theta = -np.inf, 0.0
    for n in range(half):
        e = np.linalg.eigvalsh(_hermitian_part(Q, np.pi * n / half))
        for val, angle in ((e[-1], np.pi * n / half), (-e[0], np.pi * (n / half + 1))):
            if val > radius:
                radius, theta = val, angle
    return radius, theta


def _twist_verdict(W, defect, lam, multiplicity, lower_bound, grid_angles, tol):
    if np.isfinite(defect) and defect <= tol:
        status = "pass"
    elif np.isfinite(defect) and defect < 1e-3:
        status = "indeterminate"
    else:
        status = "fail"
    return SymmetryVerdict(
        name="twist-adjoint-relation", window=0, defect=defect, tol=tol,
        status=status, details={"gauge": W, "phase": lam,
                                "multiplicity": multiplicity,
                                "lower_bound": lower_bound,
                                "grid_angles": grid_angles},
    )


def _twist_search(V, C, Q, tol):
    """The grid route of check_kraus_twist_relation: the maximum of the
    numerical range of Q over all _TWIST_GRID directions, the ascent from it
    and the gauge it ends at, with the grid's lower_bound."""
    d = V.shape[0]
    radius, theta = _grid_maximum(Q)
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - radius - np.pi / _TWIST_GRID) / d)))
    e, X = _twist_ascent(Q, theta, _TWIST_ASCENT_ROUNDS)
    W, defect, lam, multiplicity = _twist_gauge(V, C, e, X, tol)
    return _twist_verdict(W, defect, lam, multiplicity, lower_bound,
                          _TWIST_GRID // 2, tol)


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
    an ascent of at most _TWIST_ASCENT_ROUNDS eigendecompositions, each
    followed by a Newton step on theta read off it, cut to one grid
    spacing, or by the fixed-point step to the optimal phase of the top
    vector where the top eigenvalue is not concave (_ascent_step).  The top
    eigenvector of the last eigendecomposition, reshaped to k x k and
    polar-projected, is W; when the top eigenspace is degenerate
    (non-injective families) a fixed combination of it is projected instead,
    followed by one polar step if that still misses tol.  The defect is the
    residual of that unitary W at its optimal phase, so a pass never rests
    on an eigenvalue estimate.

    Each term of the sum is at most k defect^2, so every W and lam have
    defect >= sqrt(2 (1 - w) / d) >= sqrt(2 (1 - sigma_max(Q)) / d), and a
    pass forces sigma_max(Q)^2 >= 1 - d tol^2.  One eigensolve of Q* Q
    therefore picks the route:

    - pass attempt: when sigma_max allows a pass, it is tried first.  A
      unimodular eigenvalue mu of the contraction Q has an eigenvector x
      with Q* x = conj(mu) x, a top singular vector, so W is read off one
      eigendecomposition, with no step, at the phase -arg(x* Q x) of the
      top eigenvector x of Q* Q.  A pass reports lower_bound 0.0 and
      grid_angles 0.
    - sigma route: when the bound sqrt(2 (1 - sigma') / d), with sigma' =
      sqrt(sigma_max^2 + _TWIST_GATE_SLACK k^2) charged the gate's
      rounding, is at least 1e-3 and above tol, no W and phase can pass or
      be indeterminate.  The same one-eigendecomposition attempt is the
      witness of the fail, lower_bound is that sigma bound, grid_angles is
      0, and neither the grid nor the ascent runs.
    - grid route (_twist_search): otherwise, or when the pass attempt
      misses tol, all 32 angles of a 64-point phase grid are diagonalized
      to locate w and the ascent runs from the grid maximum.  grid_angles
      is 32, and lower_bound is sqrt(2 (1 - w') / d), with w' = grid
      maximum + pi / 64 an upper bound on w; it is 0.0 whenever
      w cos(pi / 64) >= 1 - pi / 64, as at every pass with d tol^2 <= 0.09.

    status is "pass" for defect <= tol, "fail" for defect >= 1e-3, and
    "indeterminate" in between.  details holds the gauge W, the phase lam,
    the multiplicity of the top eigenspace, lower_bound, a value no unitary
    W and phase can beat, and grid_angles.
    """
    _require_tol(tol)
    d, k = state.d, state.k
    V = state.kraus.v
    C = _twist_combination(state.kraus, TwistMatrix.of(twist, d).real_form)
    # Q[(b, a), (c, e)] = sum_i v_i[b, c] c_i[e, a], so <vec W, Q vec W> =
    # sum_i tr(W* v_i W c_i) for row-major vec
    Q = np.einsum("ibc,iea->bace", V, C).reshape(k * k, k * k)

    # The eigenvalues of Q* Q (norm <= 1) carry a backward error of a small
    # multiple of k^2 eps, so the gate gives way by _TWIST_GATE_SLACK k^2:
    # a family that can pass is never routed around the pass attempt.  The
    # sigma bound is charged the same slack.
    s, X = np.linalg.eigh(Q.conj().T @ Q)
    sigma = np.sqrt(s[-1] + _TWIST_GATE_SLACK * k * k)
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - sigma) / d)))
    certified = lower_bound >= 1e-3 and lower_bound > tol
    if certified or s[-1] >= 1 - d * tol ** 2 - _TWIST_GATE_SLACK * k * k:
        x = X[:, -1]
        e, X = _twist_ascent(Q, -np.angle(np.vdot(x, Q @ x)), 1)
        W, defect, lam, multiplicity = _twist_gauge(V, C, e, X, tol)
        if certified or defect <= tol:
            return _twist_verdict(W, defect, lam, multiplicity,
                                  lower_bound if certified else 0.0, 0, tol)
    return _twist_search(V, C, Q, tol)


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

    The "intertwiner" verdict's defect is the largest residual over the axes,
    relative to max(1, ||S_a||), and details["generators"] holds (X_x, X_y,
    X_z).  The three axes share one least-squares solve, their right-hand
    sides as the columns of one matrix.
    """
    _require_tol(tol)
    _require_rep(rep, state)
    k = state.k
    eye = np.eye(k)
    Vdag = state.kraus.v.conj().transpose(0, 2, 1)
    gens = rep.generators()
    scale = max(1.0, float(max(np.linalg.norm(S, 2) for S in gens)))
    # vec(X M - M X) = (I (x) M^T - M (x) I) vec(X), row-major, per M = v_i*
    A = (np.einsum("pr,iqs->ipqrs", eye, state.kraus.v.conj())
         - np.einsum("ipr,qs->ipqrs", Vdag, eye)).reshape(-1, k * k)
    # column a holds -sum_j (S_a)_{ij} v_j*, stacked over i
    b = -np.einsum("aij,jpq->ipqa", np.stack(gens), Vdag).reshape(-1, len(gens))
    x = np.linalg.lstsq(A, b, rcond=None)[0].T.reshape(-1, k, k)
    X = x - (np.trace(x, axis1=1, axis2=2) / k)[:, None, None] * eye
    X = (X + X.conj().transpose(0, 2, 1)) / 2
    residual = np.abs(A @ X.reshape(len(gens), -1).T - b).max() / scale
    return _verdict("intertwiner", 0, residual, tol, {"generators": tuple(X)})


def theorem_audit(state, rep, twist, windows=2, tol=1e-8):
    """Composite report: symmetry hypotheses, then structural conclusions.

    Hypotheses, the verdicts of the checks themselves: reality, lattice
    reflection with twist, reflection positivity with twist, rotation
    invariance.  Conclusions: trivial modular operator, unique transfer
    fixed point, self-adjoint transfer operator, twisted-adjoint Kraus
    relation, and exponential decay of two-point correlations.  Each carries
    the threshold it is decided against as its tol: 10 tol for the modular
    and self-adjointness defects, 1 for the fixed multiplicity (at least 1).
    Decay passes when its certificate does and delta < 1, with the
    certificate's reason in details["reason"].  Clause order is fixed for
    stable output.
    """
    _require_tol(tol)
    if windows < 1:
        raise ValueError("window length must be >= 1")
    twist = TwistMatrix.of(twist, state.d)
    _require_rep(rep, state)
    real, lattice, su2 = _windowed(state, windows, tol, [
        ("real", _real_defects), ("lattice-twist", partial(_lattice_defects, twist.r0)),
        ("su2-invariant", partial(_su2_defects, rep))])
    rp = check_reflection_positive(state, twist, min(windows, RP_WINDOW), tol)
    cert = decay_certificate(state, rep.Sz, rep.Sz, DECAY_N_MAX, tol)
    conclusions = (
        _verdict("modular-trivial", 0, modular_data(state).delta_defect, 10 * tol),
        _verdict("ergodic", 0, cert.gap.fixed_multiplicity, 1.0),
        _verdict("transfer-selfadjoint", 0, cert.gap.selfadjoint_defect, 10 * tol),
        check_kraus_twist_relation(state, twist, tol),
        SymmetryVerdict("exponential-decay", 0, cert.delta, tol,
                        "pass" if cert.passed and cert.delta < 1.0 else "fail",
                        {"reason": cert.reason}),
    )
    return AuditReport((real, lattice, rp, su2), conclusions, cert.delta)
