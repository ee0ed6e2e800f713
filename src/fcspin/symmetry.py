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
r0) at the row sites of its (d,)*2l view only; the site reversal is one
transpose of that view, so no operator on the whole window is formed.  A
column side is read as the row side of the conjugate transpose.
Reflection positivity reads no window: its Gram form is factored through
bond space and decided in real arithmetic, in orthonormal Hermitian bases.
A negative window length is refused; length 0 is the vacuous pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fcs
from .errors import ResourceLimitError, _require_tol
from .fcs import (SymmetryVerdict, _hermitian_coordinates, _products, _verdict,
                  modular_data, window_expectations)
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
    """W with the d x d matrix op applied at row site p of its (d,)*2l view:
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
    # T -> (R^T T)* twice gives R^T W conj(R)
    T = W
    for _ in range(2):
        for p in range(length):
            T = _at_site(T, r0, p)
        T = T.reshape((len(r0),) * length + (-1,)).transpose(
            *range(length - 1, -1, -1), length).reshape(W.shape).conj().T
    return {length: float(np.abs(T - W).max())}


def _su2_defects(rep, W, length):
    # W is Hermitian, so W conj(A) = (A^T W)*
    found = {}
    for label, S in zip("xyz", rep.generators()):
        X = sum(_at_site(W, S, p) for p in range(length))
        found[(length, label)] = float(np.abs(X - X.conj().T).max())
    return found


def check_real(state, m, tol=1e-9):
    """Transpose invariance in the fixed basis on windows of length <= m."""
    _require_tol(tol)
    _require_window(m)
    return _windowed(state, m, tol, [("real", _real_defects)])[0]


def check_lattice_twist(state, twist, m, tol=1e-9):
    """Invariance under site reversal about a bond with a per-site twist.

    For each length l <= m the defect is |R^T W conj(R) - W|_max, with R
    the site reversal followed by r0 on every site.  R^T X applies r0^T at
    every row site of X, one site at a time, and reverses the row sites by
    one transpose; R^T W conj(R) = (R^T (R^T W)*)* takes that pass twice.
    """
    _require_tol(tol)
    _require_window(m)
    r0 = TwistMatrix.of(twist, state.d).r0
    return _windowed(state, m, tol,
                     [("lattice-twist", partial(_lattice_defects, r0))])[0]


def _rp_gram_verdict(blocks, m, tol, zero_mode, counts=None):
    """Reflection-positivity verdict of a square Gram matrix C, given as
    the list of its diagonal blocks (C is zero off them).

    C is the Gram form itself or its compression to a subspace holding the
    range of both G and G*; zero_mode says that the complement is nonzero,
    so 0 is also an eigenvalue of the hermitized form.  counts, one per
    block (1 by default), is how many diagonal blocks of C each stands
    for: a block standing for two is a similar copy of the other, so it is
    diagonalized once and counted twice in |C - C*|_F.  The verdict
    requires the hermitized matrix, hermitized block by block, to have
    smallest eigenvalue >= -tol and the Frobenius norm of C - C* to be at
    most 100 tol.
    """
    counts = [1] * len(blocks) if counts is None else counts
    herm_defect = float(np.sqrt(sum(
        c * np.linalg.norm(B - B.conj().T) ** 2
        for B, c in zip(blocks, counts))))
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
    if D * D * k * k > fcs.MAX_WINDOW_ENTRIES:
        raise ResourceLimitError(
            f"reflection-positivity Gram at window {m}, d={d}, k={k} has "
            f"{D * D * k * k} entries, over the cap of {fcs.MAX_WINDOW_ENTRIES}")
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
    with A_a the sum of the one-site generators S_a over the window.  It is
    read as |X - X*|_max, X = A_a^T W the sum of S_a^T applied at each row
    site: 3 l site passes at length l.  Precondition: W is Hermitian, so
    that W conj(A_a) = X*, as it is whenever rho is (W[I, J] =
    tr(v_J* rho v_I)).  This is the Lie-algebra form of u(g)^T W conj(u(g))
    = W for the product action u(g) = exp(i theta.S) on every site; SU(2)
    is connected, so a zero defect certifies invariance under every
    rotation, not only sampled ones.  The entries of W are expectations of
    matrix units, so |W| <= 1 and the defect is absolute.
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


# Eigenvalues of Re(e^{i theta} Q) this close to the top one span the top
# eigenspace.  Two direct summands whose phases differ by phi give top
# eigenvalues 1 and cos(2 phi) ~ 1 - 2 phi^2, and their joint gauge has defect
# ~ phi, so 1e-6 groups summands up to a joint defect ~ 7e-4.
_TWIST_CLUSTER = 1e-6
# Rounding charge on sigma_max(Q)^2, per k^2 (see check_kraus_twist_relation).
_TWIST_GATE_SLACK = 16 * np.finfo(float).eps


def _optimal_phase(M, targets):
    """The phase lam = <M, V*> / |<M, V*>| minimizing
    sum_i ||v_i* - lam m_i||_F^2 over |lam| = 1, or 1 where that inner
    product vanishes."""
    h = complex(np.vdot(M, targets))
    return h / abs(h) if abs(h) > 1e-14 else 1.0 + 0j


def _twist_residual(W, C, targets):
    """max_i ||v_i* - lam W c_i W*|| for a bond unitary W at its optimal
    phase lam, and lam."""
    M = W @ C @ W.conj().T
    lam = _optimal_phase(M, targets)
    return float(np.linalg.norm(targets - lam * M, 2, axis=(1, 2)).max()), lam


def _hermitian_part(Q, theta):
    """Re(e^{i theta} Q), the Hermitian part of e^{i theta} Q."""
    A = np.exp(1j * theta) * Q
    return (A + A.conj().T) / 2


def _twist_gauge(V, C, e, X, tol):
    """Gauge, defect, phase and top multiplicity from the eigendecomposition
    (e, X) of Re(e^{i theta} Q)."""
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


def _twist_verdict(W, defect, lam, multiplicity, lower_bound, tol):
    """The verdict of the interval [lower_bound, defect]: pass when the
    witness defect is finite and <= tol, indeterminate when it is finite and
    above tol but the bound is <= tol, fail otherwise (a NaN defect too)."""
    if np.isfinite(defect) and defect <= tol:
        status = "pass"
    elif np.isfinite(defect) and lower_bound <= tol:
        status = "indeterminate"
    else:
        status = "fail"
    return SymmetryVerdict(
        name="twist-adjoint-relation", window=0, defect=defect, tol=tol,
        status=status, details={"gauge": W, "phase": lam,
                                "multiplicity": multiplicity,
                                "lower_bound": lower_bound},
    )


def check_kraus_twist_relation(state, twist, tol=1e-8):
    """Direct solve of the twisted-adjoint relation of the Kraus family.

    Decides whether there exist a bond unitary W and a phase lam with
    v_i* = lam * W c_i W* for all i, where c_i = sum_j r[j, i] v_j and r is
    the real form of the twist (a TwistMatrix, or a bare unitary involution
    r0 with conj(r0) = +-r0).  For unitary W and |lam| = 1,

        sum_i ||v_i* W - lam W c_i||_F^2 = 2k - 2 Re(lam <vec W, Q vec W>),

    with Q = sum_i v_i (x) c_i^T, a k^2 x k^2 matrix of norm <= 1.  Each
    term of the sum is at most k defect^2, so every W and lam have defect
    >= sqrt(2 (1 - sigma_max(Q)) / d).

    Two routes decide it:

    - closed form: W = I is tried first, before Q is built, with lam =
      <C, V*> / |<C, V*>|.  A residual <= tol forces ||V* - lam C||_F <=
      sqrt(d k) tol, so the attempt is skipped above twice that; otherwise,
      if the residual of I is at most tol, that is the pass, with gauge I,
      lower_bound 0.0 and multiplicity None, since no eigendecomposition
      was taken.  The relation is gauge-covariant (W moves to G W G* under
      v -> G v G*), so covariant families pass here in every bond gauge.
    - witness and bound: every other family, including those whose W is no
      scalar (the swap of two blocks), takes one eigendecomposition of
      Q* Q.  Its top eigenvalue gives lower_bound = sqrt(2 (1 - sigma') / d),
      with sigma' = sqrt(sigma_max^2 + _TWIST_GATE_SLACK k^2) charged the
      eigensolve's rounding.  Its top eigenvector x gives the phase theta =
      -arg(x* Q x): a unimodular eigenvalue mu of the contraction Q has an
      eigenvector with Q* x = conj(mu) x, a top singular vector, so at a
      pass the top eigenvector of Re(e^{i theta} Q) is the optimal vec W.
      That one eigendecomposition, reshaped to k x k and polar-projected,
      is the witness W; when the top eigenspace is degenerate (direct sums)
      a fixed combination of it is projected instead, followed by one polar
      step if that still misses tol.  The defect is the residual of that
      unitary W at its optimal phase, so a pass never rests on an
      eigenvalue estimate.

    The status comes from the interval [lower_bound, defect]: "pass" when
    the defect is finite and <= tol, "indeterminate" when it is finite and
    above tol while lower_bound <= tol, and "fail" otherwise, so every fail
    of a finite defect is certified by lower_bound > tol and a NaN defect
    fails.  details holds the gauge W, the phase lam, the multiplicity of
    the top eigenspace (None on the closed form) and lower_bound, a value no
    unitary W and phase can beat.
    """
    _require_tol(tol)
    d, k = state.d, state.k
    V = state.kraus.v
    C = _twist_combination(state.kraus, TwistMatrix.of(twist, d).real_form)
    targets = V.conj().transpose(0, 2, 1)
    # W = I: max_i ||X_i||_2 <= tol forces ||X||_F <= sqrt(dk) tol, and the
    # factor 2 absorbs rounding, so the screen never skips a pass
    lam = _optimal_phase(C, targets)
    if np.linalg.norm(targets - lam * C) <= 2 * np.sqrt(d * k) * tol:
        eye = np.eye(k)
        defect, lam = _twist_residual(eye, C, targets)
        if defect <= tol:
            return _twist_verdict(eye, defect, lam, None, 0.0, tol)
    # Q[(b, a), (c, e)] = sum_i v_i[b, c] c_i[e, a], so <vec W, Q vec W> =
    # sum_i tr(W* v_i W c_i) for row-major vec
    Q = np.einsum("ibc,iea->bace", V, C).reshape(k * k, k * k)
    # The eigenvalues of Q* Q (norm <= 1) carry a backward error of a small
    # multiple of k^2 eps, which the bound is charged as _TWIST_GATE_SLACK k^2
    s, X = np.linalg.eigh(Q.conj().T @ Q)
    sigma = np.sqrt(s[-1] + _TWIST_GATE_SLACK * k * k)
    lower_bound = float(np.sqrt(max(0.0, 2 * (1 - sigma) / d)))
    x = X[:, -1]
    e, X = np.linalg.eigh(_hermitian_part(Q, -np.angle(np.vdot(x, Q @ x))))
    W, defect, lam, multiplicity = _twist_gauge(V, C, e, X, tol)
    return _twist_verdict(W, defect, lam, multiplicity, lower_bound, tol)


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
    Decay passes when its certificate does, which needs delta < 1, with the
    certificate's reason in details["reason"].  The twisted-adjoint clause
    is check_kraus_twist_relation's verdict, "indeterminate" where its
    witness misses tol but its lower bound does not exceed it.  Clause order
    is fixed for stable output.
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
                        cert.verdict,
                        {"reason": cert.reason}),
    )
    return AuditReport((real, lattice, rp, su2), conclusions, cert.delta)
