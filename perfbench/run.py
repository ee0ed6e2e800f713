"""fcspin benchmark: one workload, one closed-loop client, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

The launcher (this file, no --role) pins BLAS to one thread, starts
set-up probes and then one worker process, each fresh, and prints a
metadata line and, last, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
The times of --trace 0 are speed-normalised: every op is followed by one
call of a fixed calibration workload, and each pass is scaled by how much
slower than its reference the calibration ran during that pass.
Exits 2 without a result when src/fcspin is missing under the working
directory, and 1 when a child fails or runs out of time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3      # set-up-only processes; with the worker, 4 samples
SETUP_CALIBRATIONS = 10  # calibrate() calls that rate the speed after set-up
MIN_PASSES = 3        # timed passes (pairs of passes when traced)
DEADLINE_S = 170.0    # the whole run, launcher included
# Median time of one calibrate() call (see make_calibration) between the
# ops of a pass on the reference machine, a 2-CPU x86-64 VM (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
CALIB_REF_S = 0.020
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

WORKLOADS = ("audit", "theorem-chain", "correlation-oracle")
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "op_p50_s": "s",
                    "op_p90_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("launcher", "setup", "worker"),
                   default="launcher", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


# ---- launcher ------------------------------------------------------------------

def _git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fcspin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".kraus"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _child(role, args, env, deadline):
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "fcspin" / "__init__.py").is_file():
        print(f"error: no fcspin sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "FCS_MAX_DIM"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    try:
        probes = [] if args.trace else [
            _child("setup", args, env, deadline) for _ in range(SETUP_PROBES)]
        res = _child("worker", args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = res["meta"]
    meta.update(git_rev=_git_rev(), src_sha256=_src_digest(),
                blas_env=BLAS_ENV)
    metrics = res["metrics"]
    if not args.trace:
        samples = [p["setup_s"] for p in probes] + [metrics["setup_s"]]
        meta["setup_samples_s"] = samples
        meta["raw_setup_samples_s"] = ([p["raw_setup_s"] for p in probes]
                                       + [meta.pop("raw_setup_s")])
        metrics["setup_s"] = statistics.median(samples)
        units = END_TO_END_UNITS
        for name in END_TO_END_UNITS:
            print(f"# {name} {metrics[name]:.6g} {units[name]}")
    else:
        units = res["units"]
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


# ---- set-up probe and worker -------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _versions():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def _run_op(op, tracer=None):
    """Run one op; returns (seconds, ok, outcome digest)."""
    t = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        dt = time.perf_counter() - t
        traceback.print_exc(file=sys.stderr)
        return dt, False, "exception"
    dt = time.perf_counter() - t
    if tracer is not None and hasattr(out, "stdout"):
        tracer.count("cli.stdout_bytes", len(out.stdout.encode()))
    try:
        ok = bool(op.check(out, op.expect))
    except (KeyError, ValueError, IndexError):
        traceback.print_exc(file=sys.stderr)
        ok = False
    return dt, ok, _digest(out)


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _digest(out):
    """Digest of an op's outcome with every number rounded to 1e-9, so the
    last-digit noise of the randomly started Lanczos solve in `ed` does not
    count as a different outcome."""
    text = _NUMBER.sub(lambda m: repr(round(float(m.group()), 9) + 0.0),
                       repr(out))
    return hashlib.sha256(text.encode()).hexdigest()


def make_calibration():
    """A fixed piece of work that uses no fcspin code, made of what the
    program's ops spend their time on: half small-array numpy and Python
    (complex einsums with a path search, 4x4 SVDs, a dict loop), like the
    twist search, and half one dense 300x300 eigh, like exact
    diagonalisation.

    The machine shares its host, and its speed drifts by tens of percent
    over minutes.  Calibration calls placed between the ops slow down with
    the ops, so the ratio of the two holds steady where either alone does
    not.  Interpreter-bound and BLAS-bound code slow down by different
    factors; the half-and-half mix tracked the pass times of all three
    workloads about as well as the better of the two halves alone did for
    each."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    w = np.eye(4, dtype=complex)
    h = rng.normal(size=(300, 300))
    h = h + h.T

    def calibrate():
        acc = np.linalg.eigh(h)[0][0]
        for _ in range(75):
            m = np.einsum("ab,ibc,dc->iad", w, a, w.conj(), optimize=True)
            acc += np.linalg.svd(m[0], compute_uv=False)[0]
        table = {}
        for i in range(3000):
            table[i % 97] = table.get(i % 97, 0) + i
        return acc + table[0]

    return calibrate


def run_pass(ops, tracer=None, phase=None, calibrate=None):
    """Run every op once; per-op (seconds, ok, digest) triples, and the
    seconds of the calibrate() call that follows each op outside its timer
    (none without `calibrate`)."""
    out, calib = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.phase = phase
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            out.append(_run_op(op, tracer))
            if calibrate:
                calib.append(_timed(calibrate))
        if tracer:
            tracer.op = None
    return out, calib


def _timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def slowdown(calib):
    """How much slower than the reference machine this one ran: the median
    calibration call over its reference time.  The median, not the sum, so
    a call that one stray hiccup hit does not rescale a whole pass."""
    return statistics.median(calib) / CALIB_REF_S


def hd_quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  The op times fall in clusters, one per op kind, so a
    plain sample quantile jumps from cluster to cluster between runs; this
    estimate moves smoothly."""
    import numpy as np
    from scipy.special import betainc

    n = len(xs)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ np.sort(xs))


def _loop(seconds, step):
    """Call step() until the next call would end more than half a call past
    `seconds`, and at least MIN_PASSES times."""
    t0 = time.perf_counter()
    n = 0
    while n < MIN_PASSES or (time.perf_counter() - t0) * (n + 0.5) / n <= seconds:
        step()
        n += 1


def worker(args):
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    import fcspin

    if not Path(fcspin.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fcspin imported from {fcspin.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if tracer is None:
            ops = workloads.build(args.workload, args.seed, tmpdir)
        else:
            with tracer.installed():
                ops = workloads.build(args.workload, args.seed, tmpdir)
        raw_setup_s = time.monotonic() - spawn
        calibrate = make_calibration()
        calibrate()
        setup = {"setup_s": raw_setup_s / slowdown(
                     [_timed(calibrate) for _ in range(SETUP_CALIBRATIONS)]),
                 "raw_setup_s": raw_setup_s}
        if args.role == "setup":
            print(json.dumps(setup))
            return 0
        return _measure(args, ops, workloads.warmup_ops(ops), tracer, setup,
                        calibrate)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _measure(args, ops, warmup, tracer, setup, calibrate):
    warm = run_pass(warmup, calibrate=calibrate)[0]
    plain, traced = [], []          # run_pass results
    if tracer is None:
        _loop(args.seconds,
              lambda: plain.append(run_pass(ops, calibrate=calibrate)))
    else:
        def pair():
            plain.append(run_pass(ops, calibrate=calibrate))
            traced.append(run_pass(ops, tracer, f"pass{len(traced)}", calibrate))
        _loop(args.seconds, pair)
    plain = [(p, slowdown(c)) for p, c in plain]
    traced = [(p, slowdown(c)) for p, c in traced]
    samples = [s for p, _ in plain + traced for s in p]
    failed = sum(not ok for _, ok, _ in samples)
    same = all(p[i][2] == plain[0][0][i][2] for p, _ in plain + traced
               for i in range(len(ops)))
    raw_sweeps = [sum(t for t, _, _ in p) for p, _ in plain]
    sweeps = [raw / slow for raw, (_, slow) in zip(raw_sweeps, plain)]
    times = [t / slow for p, slow in plain for t, _, _ in p]
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "ops_per_pass": len(ops),
            "warmup_ops": len(warm), "passes": len(plain),
            "samples": len(times), "outcomes_identical": same,
            "calib_ref_s": CALIB_REF_S,
            "slowdowns": [slow for _, slow in plain],
            "raw_sweep_samples_s": raw_sweeps,
            "op_samples_s": {op.label: [p[i][0] / slow for p, slow in plain]
                             for i, op in enumerate(ops)},
            **_versions()}
    meta["raw_setup_s"] = setup["raw_setup_s"]
    result = {"correct": failed == 0 and all(ok for _, ok, _ in warm) and same,
              "attempted": len(samples), "failed": failed, "meta": meta}
    if tracer is None:
        meta["sweep_samples_s"] = sweeps
        result["metrics"] = {
            "setup_s": setup["setup_s"],
            "sweep_s": statistics.median(sweeps),
            "op_p50_s": hd_quantile(times, 0.5),
            "op_p90_s": hd_quantile(times, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (len(samples) - failed) / len(samples),
        }
    else:
        result["metrics"], result["units"] = _layer_report(
            args, tracer, sweeps, traced, meta)
    print(json.dumps(result))
    return 0


def _layer_report(args, tracer, sweeps, traced, meta):
    """Per-layer metrics and the tracing overhead; writes the spans out.
    Span times are as measured; the overhead compares normalised sweeps."""
    import tracer as tracing

    phases = [f"pass{i}" for i in range(len(traced))]
    metrics = tracer.report(phases)
    raw = [sum(t for t, _, _ in p) for p, _ in traced]
    traced_sweeps = [r / slow for r, (_, slow) in zip(raw, traced)]
    tops = [tracer.layer_metrics(ph)[1] for ph in phases]
    metrics["trace.overhead_s"] = (statistics.median(traced_sweeps)
                                   - statistics.median(sweeps))
    metrics["trace.unattributed_s"] = statistics.median(
        r - top for r, top in zip(raw, tops))
    units = {name: tracing.unit(name) for name in metrics}
    meta["traced_sweep_s"] = statistics.median(traced_sweeps)
    meta["untraced_sweep_s"] = statistics.median(sweeps)
    meta["size_table"] = sorted(
        [name, size, len(ts) // len(phases), statistics.median(ts)]
        for (name, size), ts in tracer.size_table(phases).items())
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps([vars(s) for s in tracer.spans]))
    meta["spans_file"] = str(path.relative_to(ROOT))
    return metrics, units


def main(argv=None):
    args = parse_args(argv)
    if args.role == "launcher":
        return launch(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
