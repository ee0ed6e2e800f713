"""Span and counter recorder for the traced benchmark run.

`Tracer.installed()` replaces every attribute of a loaded `fcspin` module
that is bound to one of the LAYERS functions by a wrapper, so nested calls
(for example the `window_expectations` that `symmetry` calls, or the
`fixed_point` that `krausfile` calls) are recorded as well.  Leaving the
block puts the original objects back; the timed passes always run with the
originals.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = {
    "cli": ("main",),
    "krausfile": ("load_state", "read_kraus", "dump_state"),
    "states": ("covariant_state", "random_fcs_state"),
    "su2": ("build_spin_rep", "build_twist", "random_group_elements"),
    "fcs": ("fixed_point", "window_expectations", "modular_data"),
    "transfer": ("build_transfer", "gap", "two_point", "decay_certificate"),
    "symmetry": ("theorem_audit", "check_real", "check_lattice_twist",
                 "check_reflection_positive", "check_su2",
                 "check_kraus_twist_relation"),
    "chains": ("build_chain", "ground", "gibbs", "correlation_profile",
               "rp_gram_check"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _window_counts(a, out):
    entries = a["state"].d ** (2 * a["m"])
    return {"entries": entries, "bytes": 16 * entries * a["state"].k ** 2}


# Exact counts computed from each call's arguments and result.  The window
# bytes are the size of the complex128 product tensor the call builds
# (d^(2m) entries of k x k), labelled as computed, not measured.
COUNTERS = {
    "fcs.window_expectations": _window_counts,
    "symmetry.check_reflection_positive":
        lambda a, out: {"gram_dim": (a["state"].d ** a["m"]) ** 2},
    "symmetry.check_kraus_twist_relation":
        lambda a, out: {out.status: 1},
    "transfer.decay_certificate": lambda a, out: {"rows": len(out.rows)},
    "chains.build_chain": lambda a, out: {"dim": out.dim, "nnz": out.H.nnz},
    "krausfile.read_kraus": lambda a, out: {"bytes": len(a["text"].encode())},
}
COUNT_NAMES = (
    "fcs.window_expectations.entries",
    "fcs.window_expectations.bytes",
    "symmetry.check_reflection_positive.gram_dim",
    "symmetry.check_kraus_twist_relation.pass",
    "symmetry.check_kraus_twist_relation.fail",
    "symmetry.check_kraus_twist_relation.indeterminate",
    "transfer.decay_certificate.rows",
    "chains.build_chain.dim",
    "chains.build_chain.nnz",
    "krausfile.read_kraus.bytes",
    "cli.stdout_bytes",
)
METRICS = tuple(f"{f}.{x}" for f in FUNCTIONS for x in ("calls", "s", "self_s")
                ) + COUNT_NAMES


def unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def _size(a):
    """Problem-size label of a call, for the per-size baseline table."""
    if "argv" in a:
        return a["argv"][0] if a["argv"] else ""
    parts = []
    for key in ("state", "kraus"):
        if hasattr(a.get(key), "k"):
            parts += [f"d={a[key].d}", f"k={a[key].k}"]
    if hasattr(a.get("system"), "model"):
        parts += [a["system"].model, f"d={a['system'].d}", f"n={a['system'].n}"]
    if isinstance(a.get("model"), str):
        parts.append(a["model"])
    if "t" in a:
        parts.append(f"k={a['t'].k}")
    for key in ("d", "n", "m", "n_max"):
        if isinstance(a.get(key), int):
            parts.append(f"{key}={a[key]}")
    return ",".join(parts)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: str              # "<phase>/<op index>", or the phase alone
    size: str


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # phase -> metric -> count
        self.phase = "setup"
        self.op = None
        self._stack = []
        self._patched = []
        self._wrappers = {}

    def op_id(self):
        return self.phase if self.op is None else f"{self.phase}/{self.op}"

    def count(self, key, value):
        self.counts[self.phase][key] += value

    def _wrap(self, name, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op_id(),
                        _size(bound))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(bound, out).items():
                    self.count(f"{name}.{key}", value)
            return out

        self._wrappers[fn] = wrapper
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = {}
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"fcspin.{mod}")
            for fn in fns:
                func = getattr(module, fn)
                originals[id(func)] = (f"{mod}.{fn}", func)
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "fcspin" and not modname.startswith("fcspin."):
                    continue
                for attr, value in list(vars(module).items()):
                    name, func = originals.get(id(value), (None, None))
                    if name is not None and func is value:
                        setattr(module, attr, self._wrap(name, value))
                        self._patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()

    def layer_metrics(self, phase):
        """Per-function calls, inclusive seconds and self seconds of a phase,
        plus the phase's counters and the summed top-level span time."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = Counter()
        top = 0.0
        for i, span in enumerate(self.spans):
            if span.op.split("/")[0] != phase:
                continue
            dur = span.end - span.start
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.s"] += dur
            out[f"{span.name}.self_s"] += dur - child[i]
            if span.parent is None:
                top += dur
        out.update(self.counts[phase])
        return out, top

    def report(self, phases):
        """Every per-layer metric: the traced set-up plus the median over the
        traced passes `phases`; 0 for a function the workload never calls."""
        setup, _ = self.layer_metrics("setup")
        per_pass = [self.layer_metrics(ph)[0] for ph in phases]
        return {name: setup[name] + statistics.median(m[name] for m in per_pass)
                for name in METRICS}

    def size_table(self, phases):
        """Seconds of each call in `phases`, grouped by (function, size)."""
        rows = defaultdict(list)
        for span in self.spans:
            if span.op.split("/")[0] in phases:
                rows[(span.name, span.size)].append(span.end - span.start)
        return rows
