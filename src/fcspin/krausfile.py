"""Textual storage format for Kraus families.

Layout (one item per line, `#` starts a comment, blank lines ignored):

    name <identifier>          # optional
    d <physical dimension>
    k <bond dimension>
    matrix 1
    <k lines of k whitespace-separated (re,im) pairs>
    ...
    matrix d
    <k lines>
    rho                        # optional invariant-state block
    <k lines>

Numbers are printed with shortest round-trip representations, so a
write/read cycle reproduces the matrices bit-identically; the command line
prints its numbers through the same _fmt and _fmt_pair.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import KrausFileError, _require_tol
from .fcs import FcsState, KrausFamily, fixed_point, validate

__all__ = ["read_kraus", "write_kraus", "load_state", "dump_state"]

_PAIR = re.compile(r"^\(([^,()]+),([^,()]+)\)$")


def _fmt(x):
    """The shortest representation of the real x that reads back exactly."""
    return repr(float(x))


def _fmt_pair(z):
    z = complex(z)
    return f"({_fmt(z.real)},{_fmt(z.imag)})"


def _parse_pair(token, lineno):
    m = _PAIR.match(token)
    if not m:
        raise KrausFileError(lineno, f"expected a (re,im) pair, got {token!r}")
    try:
        real, imag = float(m.group(1)), float(m.group(2))
    except ValueError:
        raise KrausFileError(lineno, f"non-numeric entry in pair {token!r}")
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise KrausFileError(lineno, f"non-finite entry in pair {token!r}")
    return complex(real, imag)


def read_kraus(text):
    """Parse a document into (name, KrausFamily, rho-or-None).

    One pass over the logical lines (comments and blank lines dropped), with
    (lineno, line) the current one; past the end it is (0, None), so a
    document that ends early is reported at line 0.
    """
    lines = ((n, s) for n, raw in enumerate(text.splitlines(), start=1)
             if (s := raw.split("#", 1)[0].strip()))
    lineno, line = next(lines, (0, None))
    name = None
    if line is not None and line.split()[0] == "name":
        name = line[len("name"):].strip()
        lineno, line = next(lines, (0, None))

    d_k = []
    for label in ("d", "k"):
        if line is None or line.split()[0] != label:
            raise KrausFileError(lineno, f"expected `{label} <value>` header")
        parts = line.split()
        if len(parts) != 2:
            raise KrausFileError(lineno, f"malformed `{label}` header: {line!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise KrausFileError(
                lineno, f"{label} must be an integer, got {parts[1]!r}")
        if n < 1:
            raise KrausFileError(lineno, f"{label} must be positive, got {n}")
        d_k.append(n)
        lineno, line = next(lines, (0, None))
    d, k = d_k

    blocks = []  # matrix 1 .. matrix d, then the optional rho
    for i in range(1, d + 2):
        label = f"matrix {i}" if i <= d else "rho"
        if line != label:
            if i > d:
                break
            raise KrausFileError(lineno, f"expected `{label}`, got {line!r}")
        anchor, rows = lineno, []
        for _ in range(k):
            lineno, line = next(lines, (0, None))
            if line is None:
                raise KrausFileError(anchor,
                                     f"matrix block truncated; expected {k} rows")
            tokens = line.split()
            if len(tokens) != k:
                raise KrausFileError(
                    lineno, f"expected {k} entries per row, got {len(tokens)}")
            rows.append([_parse_pair(t, lineno) for t in tokens])
        blocks.append(np.array(rows, dtype=complex))
        lineno, line = next(lines, (0, None))
    if line is not None:
        raise KrausFileError(lineno, f"unexpected trailing content: {line!r}")
    rho = blocks.pop() if len(blocks) > d else None
    return name, KrausFamily(blocks), rho


def _format_block(mat):
    return "\n".join(" ".join(map(_fmt_pair, row))
                     for row in np.asarray(mat, dtype=complex))


def write_kraus(kraus, name=None, rho=None):
    """Serialize a family (and optionally rho) to the textual format."""
    parts = [f"name {name}"] if name else []
    parts += [f"d {kraus.d}", f"k {kraus.k}"]
    for i, v in enumerate(kraus.v, start=1):
        parts += [f"matrix {i}", _format_block(v)]
    if rho is not None:
        parts += ["rho", _format_block(rho)]
    return "\n".join(parts) + "\n"


def load_state(text, tol=1e-9):
    """Parse, validate, and return the FcsState of a document.

    A stored rho is used as it is once found Hermitian, invariant and of
    unit trace to 100 tol, and faithful above tol, the threshold
    fixed_point applies to its own rho; otherwise the fixed point is
    computed.
    """
    _require_tol(tol)
    name, kraus, rho = read_kraus(text)
    rep = validate(kraus, tol)
    if not rep.passed:
        raise KrausFileError(0, f"family is not unital, defect {rep.defect:g}")
    if rho is None:
        return name, fixed_point(kraus, tol)
    if np.abs(rho - rho.conj().T).max() > 100 * tol:
        raise KrausFileError(0, "stored rho is not Hermitian")
    acc = sum(v.conj().T @ rho @ v for v in kraus.v)
    if np.abs(acc - rho).max() > 100 * tol:
        raise KrausFileError(0, "stored rho is not invariant under the family")
    if np.abs(np.trace(rho) - 1) > 100 * tol or np.linalg.eigvalsh(
            (rho + rho.conj().T) / 2).min() <= tol:
        raise KrausFileError(0, "stored rho is not a faithful density matrix")
    return name, FcsState(kraus=kraus, rho=rho)


def dump_state(state, name=None):
    return write_kraus(state.kraus, name=name, rho=state.rho)
