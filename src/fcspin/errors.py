"""Shared exception types and argument checks."""

import math


class ResourceLimitError(Exception):
    """Raised when a requested computation exceeds the configured size caps."""


class KrausFileError(Exception):
    """Raised on malformed Kraus files; carries the offending line number."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


def _require_tol(tol):
    """Raise ValueError unless tol is a finite positive number: an infinite
    tolerance passes every defect and a NaN one fails every comparison."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
