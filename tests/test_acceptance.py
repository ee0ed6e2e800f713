"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is evaluated in full before its verdict line is printed, so
the line appears even when the subsequent assertion fails.
"""

import math
import time
from fractions import Fraction
from importlib import resources

import numpy as np

from fcspin import (
    build_spin_rep,
    build_transfer,
    build_twist,
    check_kraus_twist_relation,
    check_lattice_twist,
    check_real,
    check_reflection_positive,
    check_selfadjoint,
    check_su2,
    compute_mu,
    covariant_state,
    decay_certificate,
    gap,
    gauge_transform,
    load_state,
    random_fcs_state,
    theorem_audit,
    two_point,
)
from fcspin.chains import build_chain, correlation_profile, gibbs, ground, rp_gram_check
from fcspin.fcs import (
    modular_data,
    validate,
    window_expectations,
)
from fcspin.su2 import random_group_elements


def _verdict(num, label, ok, detail=""):
    line = f"CRITERION {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


def _evaluate_local(state, tensor, m):
    """Expectation of an observable on a length-m window: its contraction
    with the window tensor."""
    W = window_expectations(state, m)
    return complex(np.sum(tensor * W))


def _bundled_aklt():
    text = resources.files("fcspin.data").joinpath("aklt.kraus").read_text()
    return load_state(text)[1]


def _invariant_states():
    """Rotation-covariant states (with gauged copies) for criteria 3 and 4."""
    states = []
    rng = np.random.default_rng(314)
    for two_s in (2, 4, 6):
        for two_j in range(1, 8):
            if two_s > 2 * two_j:
                continue
            st = covariant_state(Fraction(two_s, 2), Fraction(two_j, 2))
            states.append(st)
            for _ in range(2):
                z = rng.normal(size=(st.k, st.k)) + 1j * rng.normal(size=(st.k, st.k))
                q, _ = np.linalg.qr(z)
                states.append(gauge_transform(st, q))
    return states


def test_criterion_1_representation_suite():
    start = time.monotonic()
    worst = 0.0
    mu_ok = True
    for d in range(1, 8):
        rep = build_spin_rep(d)
        Sx, Sy, Sz = rep.generators()
        worst = max(worst, float(np.abs(Sx @ Sy - Sy @ Sx - 1j * Sz).max()))
        worst = max(worst, float(np.abs(Sy @ Sz - Sz @ Sy - 1j * Sx).max()))
        worst = max(worst, float(np.abs(Sz @ Sx - Sx @ Sz - 1j * Sy).max()))
        cas = Sx @ Sx + Sy @ Sy + Sz @ Sz
        worst = max(worst, float(np.abs(cas - rep.s * (rep.s + 1) * np.eye(d)).max()))
        tw = build_twist(rep)
        worst = max(worst, float(np.abs(tw.r0 @ tw.r0 - np.eye(d)).max()))
        rng = np.random.default_rng(d)
        for g in random_group_elements(rep, 100, rng):
            worst = max(worst, float(np.abs(tw.r0 @ g.u @ tw.r0 - g.u.conj()).max()))
        mu_ok = mu_ok and tw.mu == (-1) ** (d + 1) == compute_mu(tw)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and mu_ok and elapsed < 5.0
    assert _verdict(1, "representation suite", ok,
                    f"max defect {worst:.2e}, mu parity {mu_ok}, {elapsed:.2f}s")


def test_criterion_2_aklt_end_to_end():
    start = time.monotonic()
    state = _bundled_aklt()
    checks = {}
    checks["unital"] = validate(state.kraus).passed
    checks["rho"] = float(np.abs(state.rho - np.eye(2) / 2).max()) <= 1e-12
    rep_gap = gap(build_transfer(state))
    eigs = sorted(lam.real for lam in rep_gap.eigenvalues)
    checks["spectrum"] = float(np.abs(
        np.array(eigs) - np.array([-1 / 3, -1 / 3, -1 / 3, 1.0])).max()) <= 1e-10
    checks["modular"] = modular_data(state).delta_trivial
    rep3 = build_spin_rep(3)
    tw3 = build_twist(rep3)
    audit = theorem_audit(state, rep3, tw3)
    checks["audit"] = audit.all_pass
    checks["delta"] = abs(audit.delta - 1 / 3) <= 1e-10
    cert = decay_certificate(state, rep3.Sz, rep3.Sz, 30)
    checks["decay"] = cert.passed and cert.beta_max >= math.log(3) - 1e-3
    elapsed = time.monotonic() - start
    ok = all(checks.values()) and elapsed < 5.0
    failed = [k for k, v in checks.items() if not v]
    assert _verdict(2, "AKLT end-to-end", ok,
                    f"failed={failed or 'none'}, {elapsed:.2f}s")


def test_criterion_3_one_site_law():
    states = _invariant_states()
    assert len(states) >= 20
    passing = 0
    worst = 0.0
    for st in states:
        if not check_su2(st, build_spin_rep(st.d), 2, tol=1e-8).passed:
            continue
        passing += 1
        W1 = window_expectations(st, 1)
        worst = max(worst, float(np.abs(W1 - np.eye(st.d) / st.d).max()))
    ok = passing >= 20 and worst <= 1e-7
    assert _verdict(3, "one-site law", ok,
                    f"{passing} invariant states, max |W1 - I/d| = {worst:.2e}")


def test_criterion_4_theorem_chain():
    states = _invariant_states()
    assert len(states) >= 50
    eligible = 0
    worst_sa = 0.0
    converse_ok = True
    for st in states:
        md = modular_data(st)
        tw = build_twist(build_spin_rep(st.d))
        if not md.delta_trivial:
            continue
        if not check_kraus_twist_relation(st, tw, tol=1e-8).passed:
            continue
        eligible += 1
        worst_sa = max(worst_sa, check_selfadjoint(build_transfer(st)))
        rep_gap = gap(build_transfer(st))
        if rep_gap.fixed_multiplicity == 1:
            Sz = build_spin_rep(st.d).Sz
            cert = decay_certificate(st, Sz, Sz, 12)
            converse_ok = converse_ok and cert.passed
    ok = eligible >= 50 and worst_sa <= 1e-6 and converse_ok
    assert _verdict(4, "theorem chain", ok,
                    f"{eligible} eligible states, max selfadjoint defect "
                    f"{worst_sa:.2e}, decay converse {converse_ok}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        st = random_fcs_state(2, k, rng)
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        wa = _evaluate_local(st, A, 1)
        wb = _evaluate_local(st, B, 1)
        for n in range(1, 7):
            obs = np.kron(A, np.kron(np.eye(2 ** (n - 1)), B))
            direct = _evaluate_local(st, obs, n + 1) - wa * wb
            worst = max(worst, abs(two_point(st, A, B, n) - direct))
    ok = worst <= 1e-9
    assert _verdict(5, "oracle equivalence", ok,
                    f"max |transfer - window| = {worst:.2e} over 100 states")


def test_criterion_6_ed_cross_check():
    start = time.monotonic()
    checks = {}
    system = build_chain(3, 8, model="aklt-parent")
    g = ground(system)
    rows = correlation_profile(system, g.vectors[:, 0], 2)
    checks["zz"] = abs(rows[0].zz - (-4 / 9)) / (4 / 9) <= 0.05
    checks["ratio"] = abs(rows[1].total / rows[0].total - (-1 / 3)) / (1 / 3) <= 0.10
    # unique periodic ground states for the even sizes (odd rings are
    # frustrated with an exactly degenerate multiplet; see the ledger)
    checks["unique"] = all(
        ground(build_chain(2, n)).degeneracy == 1 for n in (4, 6, 8, 10))
    rp_ok = True
    min_eigs = []
    for d in (2, 3):
        tw = build_twist(build_spin_rep(d))
        chain = build_chain(d, 4)
        for beta in (0.5, 1.0, 2.0):
            v = rp_gram_check(chain, gibbs(chain, beta), tw, tol=1e-9)
            min_eigs.append(v.details["min_eig"])
            rp_ok = rp_ok and v.passed and v.details["min_eig"] >= -1e-9
    checks["rp"] = rp_ok
    elapsed = time.monotonic() - start
    ok = all(checks.values()) and elapsed < 120.0
    failed = [k for k, v in checks.items() if not v]
    assert _verdict(6, "ED cross-check", ok,
                    f"failed={failed or 'none'}, min Gram eig "
                    f"{min(min_eigs):.2e}, {elapsed:.1f}s")


def test_criterion_7_negative_controls():
    rep3 = build_spin_rep(3)
    tw3 = build_twist(rep3)
    fails = 0
    for seed in range(100):
        st = random_fcs_state(3, 3, np.random.default_rng(seed))
        bad = (
            not check_real(st, 2).passed
            or not check_lattice_twist(st, tw3, 2).passed
            or not check_reflection_positive(st, tw3, 1).passed
            or not check_su2(st, rep3, 2).passed
        )
        fails += bad
    rep2 = build_spin_rep(2)
    tw2 = build_twist(rep2)
    d2_all_pass = []
    for fn in ("product_d2.kraus", "product_complex_d2.kraus"):
        text = resources.files("fcspin.data").joinpath(fn).read_text()
        state = load_state(text)[1]
        d2_all_pass.append(theorem_audit(state, rep2, tw2).all_pass)
    ok = fails >= 95 and not any(d2_all_pass)
    assert _verdict(7, "negative controls", ok,
                    f"{fails}/100 random families fail a hypothesis; "
                    f"d=2 audits all-pass = {d2_all_pass}")
