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
write/read cycle reproduces the matrices bit-identically.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import KrausFileError, _require_tol
from .fcs import FcsState, KrausFamily, fixed_point, validate

__all__ = ["read_kraus", "write_kraus", "load_state", "dump_state"]

_PAIR = re.compile(r"^\(([^,()]+),([^,()]+)\)$")


def _parse_pair(token, lineno):
    m = _PAIR.match(token)
    if not m:
        raise KrausFileError(lineno, f"expected a (re,im) pair, got {token!r}")
    try:
        z = complex(float(m.group(1)), float(m.group(2)))
    except ValueError:
        raise KrausFileError(lineno, f"non-numeric entry in pair {token!r}")
    if not np.isfinite(z):
        raise KrausFileError(lineno, f"non-finite entry in pair {token!r}")
    return z


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_int_field(value, lineno, label):
    try:
        n = int(value)
    except ValueError:
        raise KrausFileError(lineno, f"{label} must be an integer, got {value!r}")
    if n < 1:
        raise KrausFileError(lineno, f"{label} must be positive, got {n}")
    return n


def read_kraus(text):
    """Parse a document into (name, KrausFamily, rho-or-None)."""
    lines = list(_logical_lines(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, None)

    name = None
    d = k = None
    lineno, line = peek()
    if line is not None and line.split()[0] == "name":
        name = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
        pos += 1

    for label in ("d", "k"):
        lineno, line = peek()
        if line is None or line.split()[0] != label:
            raise KrausFileError(lineno or 0, f"expected `{label} <value>` header")
        parts = line.split()
        if len(parts) != 2:
            raise KrausFileError(lineno, f"malformed `{label}` header: {line!r}")
        value = _parse_int_field(parts[1], lineno, label)
        if label == "d":
            d = value
        else:
            k = value
        pos += 1

    def read_block(lineno_start):
        nonlocal pos
        rows = []
        for _ in range(k):
            lineno, line = peek()
            if line is None:
                raise KrausFileError(lineno_start,
                                     f"matrix block truncated; expected {k} rows")
            tokens = line.split()
            if len(tokens) != k:
                raise KrausFileError(
                    lineno, f"expected {k} entries per row, got {len(tokens)}")
            rows.append([_parse_pair(t, lineno) for t in tokens])
            pos += 1
        return np.array(rows, dtype=complex)

    mats = []
    for i in range(1, d + 1):
        lineno, line = peek()
        if line != f"matrix {i}":
            raise KrausFileError(lineno or 0,
                                 f"expected `matrix {i}`, got {line!r}")
        pos += 1
        mats.append(read_block(lineno))

    rho = None
    lineno, line = peek()
    if line == "rho":
        pos += 1
        rho = read_block(lineno)
        lineno, line = peek()
    if line is not None:
        raise KrausFileError(lineno, f"unexpected trailing content: {line!r}")
    return name, KrausFamily(tuple(mats)), rho


def _format_block(mat):
    return "\n".join(
        " ".join(f"({repr(float(z.real))},{repr(float(z.imag))})" for z in row)
        for row in np.asarray(mat, dtype=complex)
    )


def write_kraus(kraus, name=None, rho=None):
    """Serialize a family (and optionally rho) to the textual format."""
    parts = []
    if name:
        parts.append(f"name {name}")
    parts.append(f"d {kraus.d}")
    parts.append(f"k {kraus.k}")
    for i, v in enumerate(kraus.v, start=1):
        parts.append(f"matrix {i}")
        parts.append(_format_block(v))
    if rho is not None:
        parts.append("rho")
        parts.append(_format_block(rho))
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
