"""The benchmark's workloads: inputs made from a seed, op lists, and the
correctness check of every op.

Each expectation is a fact known without fcspin's own output: a closed form
(the AKLT correlations and spectrum, small Heisenberg rings), a theorem
(Lieb-Mattis uniqueness, the paper's theorem chain for rotation-covariant
families, reflection positivity of these Gibbs states), or a short reference
computation written here in plain numpy.

The program sees only the generated families (theorem-chain) or Kraus files
and command lines (audit, correlation-oracle).  The seed picks the bond
gauges, the random negative controls and the inverse temperatures; which
families and sizes run is fixed, so every seed asks for the same work.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from fcspin import cli, fcs, krausfile, states, su2, symmetry, transfer

# (physical spin s, bond spin j) of the covariant families, d = 2s + 1.
# Each runs in its own gauge and in one random bond gauge.
AUDIT_FAMILIES = ((1, Fraction(1, 2)), (1, Fraction(7, 2)),
                  (2, Fraction(1)), (2, Fraction(7, 2)))
# Random negatives at k = 6 and 8: at k <= 4 the twist search on a random
# family stops early for a seed-dependent share of the restarts (k = 2: 250
# to 1606 descent steps over 20 seeds), so the seed, not the program, would
# set the time; from k = 6 nearly every search runs its whole budget.
AUDIT_NEGATIVES = ((3, 8), (5, 6))  # (d, k)
CHAIN_FAMILIES = ((1, Fraction(1, 2)), (1, Fraction(2)), (1, Fraction(7, 2)),
                  (2, Fraction(1)), (2, Fraction(7, 2)),
                  (3, Fraction(3, 2)), (3, Fraction(7, 2)))
CHAIN_NEGATIVES = ((3, 8), (5, 8), (7, 8))
# correlate: (family, observable, n_max); None is the bundled AKLT family
CORRELATE = ((None, "Sz", 100), (None, "Sx", 100),
             ((1, Fraction(3, 2)), "Sx", 270), ((2, Fraction(2)), "Sz", 215),
             ((1, Fraction(7, 2)), "Sx", 190), ((3, Fraction(7, 2)), "Sz", 170))
SPECTRUM = (None, (1, Fraction(3, 2)))
ED_GROUND = (("xxx", 2, 6), ("xxx", 2, 8), ("xxx", 2, 10),
             ("aklt-parent", 3, 6), ("aklt-parent", 3, 8))
ED_THERMAL = ((2, 4), (2, 8), (3, 6))  # (d, n) with --beta b --rp

TOL = 1e-8


@dataclass(frozen=True)
class CliResult:
    rc: int
    stdout: str


@dataclass(frozen=True)
class Op:
    kind: str                      # ops of one kind share a warm-up
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    expect: Any


def warmup_ops(ops):
    """The first op of each kind."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return CliResult(rc, buf.getvalue())


def _cli_op(kind, argv, check, expect):
    label = " ".join(a.rsplit("/", 1)[-1] for a in argv)
    return Op(kind, label, lambda: run_cli(argv), check, expect)


def _gauge(state, rng):
    """The same state in a Haar-random bond gauge."""
    k = state.k
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return states.gauge_transform(state, q * (np.diag(r) / np.abs(np.diag(r))))


def _label(s, j):
    return f"s{s}-j{str(j).replace('/', '_')}"


def spin_matrices(d):
    """Sx, Sz of the spin-(d-1)/2 irrep in the basis m = s, ..., -s."""
    s = (d - 1) / 2
    m = s - np.arange(d)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1)
    return {"Sx": (sp + sp.T) / 2, "Sz": np.diag(m)}


def reference_correlations(V, rho, A, B, n_max):
    """omega(A at 0, B at n) - omega(A) omega(B) for n = 1..n_max, from
    W[I, J] = tr(rho v_I v_J*) with one application of the transfer map
    E(X) = sum_i v_i X v_i* per intermediate site."""
    V = np.asarray(V)
    Vd = V.conj().transpose(0, 2, 1)
    X = np.einsum("ce,cab,ebd->ad", B, V, Vd)      # sum B_ce v_c v_e*
    Z = np.einsum("ab,bij,jk,akl->il", A, Vd, rho, V)  # sum A_ab v_b* rho v_a
    wA, wB = np.trace(Z), np.trace(rho @ X)
    out = []
    for _ in range(n_max):
        out.append(np.trace(Z @ X) - wA * wB)
        X = (V @ X @ Vd).sum(axis=0)
    return np.array(out)


def reference_spectrum(V):
    """Eigenvalues of the transfer map X -> sum_i v_i X v_i*."""
    return np.linalg.eigvals(sum(np.kron(v, v.conj()) for v in V))


# ---- checks: (outcome, expectation) -> bool ---------------------------------

def check_audit(res, expect):
    return (res.rc == {"pass": 0, "fail": 1}[expect]
            and res.stdout.rstrip().endswith(f"overall {expect}"))


def check_chain(out, expect):
    modular, relation, mult, selfadjoint, decay = out
    if expect == "covariant":
        return (modular <= 1e-10 and relation == "pass" and mult == 1
                and selfadjoint <= 1e-6 and decay == "pass")
    return relation != "pass" and mult == 1 and decay == "pass"


def _footer(stdout):
    return dict(line[2:].split(" ", 1) for line in stdout.splitlines()
                if line.startswith("# "))


def _table(stdout):
    return [line.split(",") for line in stdout.splitlines()[1:]
            if line and not line.startswith("#")]


def check_spectrum(res, ref):
    rows = _table(res.stdout)
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    mods = np.sort(np.abs(ref))[::-1]
    foot = _footer(res.stdout)
    return (res.rc == 0 and got.size == ref.size
            and np.allclose(np.sort(np.abs(got)), np.sort(np.abs(ref)), atol=1e-8)
            and np.allclose(np.sort(got.real), np.sort(ref.real), atol=1e-8)
            and abs(float(foot["delta"]) - mods[1]) <= 1e-8
            and foot["fixed_multiplicity"] == "1")


def check_correlate(res, ref):
    corr, delta = ref
    rows = _table(res.stdout)
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    foot = _footer(res.stdout)
    return (res.rc == 0 and got.size == corr.size
            and np.abs(got - corr).max() <= 1e-10
            and abs(float(foot["delta"]) - delta) <= 1e-8
            and foot["verdict"] == "pass")


def check_ed(res, expect):
    fields = dict(line.split(" ", 1) for line in res.stdout.splitlines()
                  if " " in line)
    e0 = float(fields["ground_energy"])
    lo, hi = expect["e0"]
    ok = res.rc == 0 and lo <= e0 <= hi and fields["degeneracy"] == "1"
    if expect["rp"]:
        ok = ok and fields.get("rp_status") == "pass"
    return ok


def _e0_bounds(model, d, n):
    """Ground-energy facts for periodic rings (J = 1, H = sum S.S).

    The spin-1 projector chain is frustration free with energy 0.  The
    spin-1/2 ring has E0(4) = -2 and E0(6) = -(2 + sqrt 13)/2 exactly; even
    rings approach 1/4 - ln 2 per site from below.  The spin-1 four-ring is
    S_A . S_B with E0 = -6.  Other spin-1 rings only need a negative E0."""
    eps = 1e-9
    if model == "aklt-parent":
        return (-eps, eps)
    exact = {(2, 4): -2.0, (2, 6): -(2 + math.sqrt(13)) / 2, (3, 4): -6.0}
    if (d, n) in exact:
        return (exact[d, n] - eps, exact[d, n] + eps)
    if d == 2:
        return (-0.5 * n, (0.25 - math.log(2)) * n)
    return (-math.inf, -eps)


# ---- workloads ---------------------------------------------------------------

def _audit(rng, tmpdir):
    files = []
    for s, j in AUDIT_FAMILIES:
        st = states.covariant_state(s, j)
        for tag, variant in (("", st), ("-gauge", _gauge(st, rng))):
            files.append((f"audit-cov-d{st.d}", _label(s, j) + tag, variant, "pass"))
    for d, k in AUDIT_NEGATIVES:
        files.append(("audit-neg", f"neg-d{d}-k{k}",
                      states.random_fcs_state(d, k, rng), "fail"))
    ops = []
    for kind, name, st, expect in files:
        path = tmpdir / f"{name}.kraus"
        path.write_text(krausfile.dump_state(st, name))
        ops.append(_cli_op(kind, ["audit", str(path)], check_audit, expect))
    return ops


def _chain_run(st):
    rep = su2.build_spin_rep(st.d)
    tw = su2.build_twist(rep)
    md = fcs.modular_data(st)
    rel = symmetry.check_kraus_twist_relation(st, tw, tol=TOL)
    g = transfer.gap(transfer.build_transfer(st))
    cert = transfer.decay_certificate(st, rep.Sz, rep.Sz, 12)
    return (md.delta_defect, rel.status, g.fixed_multiplicity,
            g.selfadjoint_defect, cert.verdict)


def _theorem_chain(rng, tmpdir):
    items = []
    for s, j in CHAIN_FAMILIES:
        st = states.covariant_state(s, j)
        items.append(("chain-cov", _label(s, j), st, "covariant"))
        items.append(("chain-cov", _label(s, j) + "-gauge", _gauge(st, rng),
                      "covariant"))
    for d, k in CHAIN_NEGATIVES:
        items.append(("chain-neg", f"neg-d{d}-k{k}",
                      states.random_fcs_state(d, k, rng), "negative"))
    return [Op(kind, name, lambda st=st: _chain_run(st), check_chain, expect)
            for kind, name, st, expect in items]


def aklt_reference(n_max):
    """AKLT connected Sz-Sz (= Sx-Sx) correlations (4/3)(-1/3)^n, and the gap."""
    n = np.arange(1, n_max + 1)
    return (4 / 3) * (-1 / 3) ** n + 0j, 1 / 3


def _correlation_oracle(rng, tmpdir):
    ops = []
    files = {None: ("@aklt", None, None)}
    for fam in dict.fromkeys(f for f, _, _ in CORRELATE if f is not None):
        st = _gauge(states.covariant_state(*fam), rng)
        path = tmpdir / f"{_label(*fam)}-gauge.kraus"
        path.write_text(krausfile.dump_state(st, _label(*fam)))
        files[fam] = (str(path), st.kraus.v, st.rho)
    for fam in SPECTRUM:
        path, V, _ = files[fam]
        ref = (np.array([1, -1 / 3, -1 / 3, -1 / 3], dtype=complex)
               if V is None else reference_spectrum(V))
        ops.append(_cli_op("spectrum", ["spectrum", path], check_spectrum, ref))
    for fam, obs, n_max in CORRELATE:
        path, V, rho = files[fam]
        if V is None:
            ref = aklt_reference(n_max)
        else:
            A = spin_matrices(len(V))[obs]
            corr = reference_correlations(V, rho, A, A, n_max)
            mods = np.sort(np.abs(reference_spectrum(V)))[::-1]
            ref = (corr, mods[1])
        argv = ["correlate", path, "--A", obs, "--B", obs, "--n-max", str(n_max)]
        ops.append(_cli_op("correlate", argv, check_correlate, ref))
    for model, d, n in ED_GROUND:
        argv = ["ed", "--model", model, "--d", str(d), "--n", str(n)]
        ops.append(_cli_op(f"ed-{model}", argv, check_ed,
                           {"e0": _e0_bounds(model, d, n), "rp": False}))
    for d, n in ED_THERMAL:
        beta = round(float(rng.uniform(0.5, 2.0)), 3)
        argv = ["ed", "--d", str(d), "--n", str(n), "--beta", str(beta), "--rp"]
        ops.append(_cli_op("ed-thermal", argv, check_ed,
                           {"e0": _e0_bounds("xxx", d, n), "rp": True}))
    return ops


_BUILDERS = {"audit": _audit, "theorem-chain": _theorem_chain,
             "correlation-oracle": _correlation_oracle}


def build(name, seed, tmpdir):
    """Generate the workload's inputs (files go under tmpdir); its op list."""
    return _BUILDERS[name](np.random.default_rng(seed), tmpdir)
