"""Command-line front end.

Subcommands: repr, audit, correlate, spectrum, ed, demo-aklt.
Exit codes: 0 pass, 1 fail, 2 usage/parse error, 3 indeterminate,
4 resource refusal.  Output is deterministic for fixed inputs at a fixed
BLAS thread count; floating-point values are printed with shortest
round-trip representations.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources

import numpy as np

from .chains import build_chain, correlation_profile, gibbs, ground, rp_gram_check
from .errors import KrausFileError, ResourceLimitError
from .fcs import modular_data, validate
from .krausfile import load_state
from .su2 import build_spin_rep, build_twist
from .symmetry import theorem_audit
from .transfer import build_transfer, decay_certificate, gap

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_RESOURCE = 4


def _fmt(x):
    return repr(float(x))


def _fmt_complex(z):
    z = complex(z)
    return f"({_fmt(z.real)},{_fmt(z.imag)})"


def _print_matrix(mat, indent="  "):
    for row in np.asarray(mat, dtype=complex):
        print(indent + " ".join(_fmt_complex(z) for z in row))


def _positive_int(value):
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _float_type(accept, wanted):
    """argparse type for a finite float x with accept(x); any other value is
    a usage error that names the option."""
    def parse(value):
        try:
            x = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
        if not (np.isfinite(x) and accept(x)):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {value!r}")
        return x
    return parse


_positive_float = _float_type(lambda x: x > 0, "a finite positive number")
_nonnegative_float = _float_type(lambda x: x >= 0, "a finite nonnegative number")
_finite_float = _float_type(lambda x: True, "a finite number")


def _load(path, tol):
    if path == "@aklt":
        text = resources.files("fcspin.data").joinpath("aklt.kraus").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return load_state(text, tol)


def _observable(name, rep):
    table = {"Sx": rep.Sx, "Sy": rep.Sy, "Sz": rep.Sz}
    if name not in table:
        raise KeyError(name)
    return table[name]


def cmd_repr(args):
    rep = build_spin_rep(args.d)
    tw = build_twist(rep)
    print(f"d {rep.d}")
    print(f"s {_fmt(rep.s)}")
    print("basis " + " ".join(_fmt(m) for m in rep.basis))
    for label, S in zip(("Sx", "Sy", "Sz"), rep.generators()):
        print(label)
        _print_matrix(S)
    print("r0")
    _print_matrix(tw.r0)
    print(f"zeta {_fmt_complex(tw.zeta)}")
    print(f"mu {tw.mu:+d}")
    return EXIT_PASS


def cmd_audit(args):
    name, state = _load(args.file, args.tol)
    rep = build_spin_rep(state.d)
    tw = build_twist(rep)
    report = theorem_audit(state, rep, tw, windows=args.window, tol=args.tol)
    if name:
        print(f"name {name}")
    for c in report.clauses:
        line = f"clause {c.name} kind={c.kind} status={c.status} defect={_fmt(c.value)}"
        if c.note:
            line += f" note={c.note}"
        print(line)
    print(f"delta {_fmt(report.delta)}")
    statuses = [c.status for c in report.clauses]
    if "fail" in statuses:
        print("overall fail")
        return EXIT_FAIL
    if "indeterminate" in statuses:
        print("overall indeterminate")
        return EXIT_INDETERMINATE
    print("overall pass")
    return EXIT_PASS


def cmd_correlate(args):
    name, state = _load(args.file, args.tol)
    rep = build_spin_rep(state.d)
    try:
        A = _observable(args.A, rep)
        B = _observable(args.B, rep)
    except KeyError as exc:
        print(f"error: unknown observable {exc.args[0]!r}; "
              "choose from Sx, Sy, Sz", file=sys.stderr)
        return EXIT_USAGE
    cert = decay_certificate(state, A, B, args.n_max, args.tol)
    lines = ["n,corr_re,corr_im,abs_corr,bound,margin,ratio"]
    prev = None
    for row in cert.rows:
        c = row.corr
        ratio = "" if prev is None or abs(prev) < 1e-300 else _fmt((c / prev).real)
        lines.append(f"{row.n},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(abs(c))},"
                     f"{_fmt(row.bound)},{_fmt(row.margin)},{ratio}")
        prev = c
    lines += [f"# delta {_fmt(cert.delta)}", f"# beta_max {_fmt(cert.beta_max)}",
              f"# verdict {cert.verdict}"]
    print("\n".join(lines))
    return EXIT_PASS if cert.passed else EXIT_FAIL


def cmd_spectrum(args):
    name, state = _load(args.file, args.tol)
    t = build_transfer(state)
    report = gap(t, args.tol)
    print("index,re,im,abs")
    for i, lam in enumerate(report.eigenvalues):
        print(f"{i},{_fmt(lam.real)},{_fmt(lam.imag)},{_fmt(abs(lam))}")
    print(f"# delta {_fmt(report.delta)}")
    print(f"# selfadjoint_defect {_fmt(report.selfadjoint_defect)}")
    print(f"# fixed_multiplicity {report.fixed_multiplicity}")
    return EXIT_PASS


def cmd_ed(args):
    system = build_chain(args.d, args.n, args.J, not args.open, args.model)
    rep = ground(system)
    if args.beta is not None or args.rp:
        thermal = gibbs(system, args.beta if args.beta is not None else 1.0)
    r_max = args.r_max if args.r_max is not None else min(3, args.n - 1)
    # without --beta, the average over the ground space
    state = thermal if args.beta is not None else rep.vectors
    rows = correlation_profile(system, state, r_max)
    if args.rp:  # every answer is computed before anything is printed
        tw = build_twist(build_spin_rep(args.d))
        verdict = rp_gram_check(system, thermal, tw)
    print(f"model {args.model}")
    print(f"d {args.d}")
    print(f"n {args.n}")
    print(f"ground_energy {_fmt(rep.energy)}")
    print(f"degeneracy {rep.degeneracy}")
    print(f"gap {_fmt(rep.gap)}")
    print("r,total,zz")
    for row in rows:
        print(f"{row.r},{_fmt(row.total)},{_fmt(row.zz)}")
    if args.rp:
        print(f"rp_status {verdict.status}")
        print(f"rp_min_eig {_fmt(verdict.details['min_eig'])}")
        return EXIT_PASS if verdict.passed else EXIT_FAIL
    return EXIT_PASS


def cmd_demo_aklt(args):
    name, state = _load("@aklt", 1e-9)
    print(f"family {name}")
    print(f"unitality_defect {_fmt(validate(state.kraus).defect)}")
    print("rho")
    _print_matrix(state.rho)
    t = build_transfer(state)
    report = gap(t)
    print("transfer_eigenvalues " + " ".join(
        _fmt_complex(lam) for lam in report.eigenvalues))
    print(f"delta {_fmt(report.delta)}")
    md = modular_data(state)
    print(f"modular_defect {_fmt(md.delta_defect)}")
    rep = build_spin_rep(3)
    cert = decay_certificate(state, rep.Sz, rep.Sz, 10)
    print("n,corr_re,bound")
    for row in cert.rows:
        print(f"{row.n},{_fmt(row.corr.real)},{_fmt(row.bound)}")
    ok = (validate(state.kraus).passed and report.delta < 1.0
          and md.delta_trivial and cert.passed)
    print(f"verdict {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcspin",
        description="Finitely correlated spin-chain states: representations, "
                    "symmetry audits, transfer spectra, and exact "
                    "diagonalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repr", help="print a spin representation and its twist")
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(func=cmd_repr)

    p = sub.add_parser("audit", help="run the full symmetry audit on a Kraus file")
    p.add_argument("file", help="path to a Kraus file, or @aklt for the bundle")
    p.add_argument("--window", type=_positive_int, default=2)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("correlate", help="two-point correlation table with decay bounds")
    p.add_argument("file")
    p.add_argument("--A", default="Sz")
    p.add_argument("--B", default="Sz")
    p.add_argument("--n-max", dest="n_max", type=_positive_int, default=10)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("spectrum", help="transfer-operator spectrum and gap")
    p.add_argument("file")
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ed", help="finite-chain diagonalization oracle")
    p.add_argument("--model", choices=("xxx", "aklt-parent"), default="xxx")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--J", type=_finite_float, default=1.0)
    p.add_argument("--open", action="store_true",
                   help="open boundary conditions (default periodic)")
    p.add_argument("--beta", type=_nonnegative_float, default=None,
                   help="use the Gibbs state at this inverse temperature "
                        "(default: correlations averaged over the ground "
                        "space, its beta -> infinity limit)")
    p.add_argument("--r-max", dest="r_max", type=_positive_int, default=None)
    p.add_argument("--rp", action="store_true",
                   help="run the reflection-positivity Gram check on the "
                        "Gibbs state at --beta (beta = 1 without --beta)")
    p.set_defaults(func=cmd_ed)

    p = sub.add_parser("demo-aklt", help="end-to-end run on the bundled family")
    p.set_defaults(func=cmd_demo_aklt)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KrausFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
