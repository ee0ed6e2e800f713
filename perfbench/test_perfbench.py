"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -p no:cacheprovider perfbench -q

Each test runs the warm-up ops of a workload (one op per kind), so the
whole file takes well under a minute.
"""

import dataclasses
import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Functions each workload must never reach; BENCHMARK.json names these as
# the layers the workload bypasses.
BYPASSED = {
    "audit": ("chains.",),
    "theorem-chain": ("cli.", "krausfile.", "chains.", "fcs.window_expectations",
                      "symmetry.check_reflection_positive"),
    "correlation-oracle": ("symmetry.", "fcs.window_expectations"),
}


def _wrong(op):
    """The op with an expectation no correct output can meet."""
    wrong = {
        workloads.check_audit: lambda e: {"pass": "fail", "fail": "pass"}[e],
        workloads.check_chain: lambda e: {"covariant": "negative",
                                          "negative": "covariant"}[e],
        workloads.check_spectrum: lambda e: e * 0.5,
        workloads.check_correlate: lambda e: (e[0] + 1e-3, e[1]),
        workloads.check_ed: lambda e: {**e, "e0": (1.0, 2.0)},
    }[op.check]
    return dataclasses.replace(op, expect=wrong(op.expect))


@pytest.fixture(scope="module", params=run.WORKLOADS)
def warm(request):
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ops = workloads.build(request.param, 7, Path(tmp))
        yield request.param, workloads.warmup_ops(ops)


def _fcspin_attributes():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "fcspin" or name.startswith("fcspin.")
            for attr, value in vars(mod).items()}


def test_wrong_expectation_lowers_ok_share(warm):
    _, ops = warm
    samples, _ = run.run_pass(ops + [_wrong(op) for op in ops])
    oks = [ok for _, ok, _ in samples]
    assert oks == [True] * len(ops) + [False] * len(ops)
    assert sum(oks) / len(oks) < 1.0


def test_traced_outcomes_match_and_originals_return(warm):
    _, ops = warm
    before = _fcspin_attributes()
    plain, _ = run.run_pass(ops)
    tracer = tracing.Tracer()
    traced, _ = run.run_pass(ops, tracer, "pass0")
    assert [d for _, _, d in traced] == [d for _, _, d in plain]
    assert all(ok for _, ok, _ in plain + traced)
    assert tracer.spans and {s.op.split("/")[0] for s in tracer.spans} == {"pass0"}
    after = _fcspin_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_layer_names_emitted_for_called_functions(warm):
    name, ops = warm
    tracer = tracing.Tracer()
    run.run_pass(ops, tracer, "pass0")
    metrics = tracer.report(["pass0"])
    assert set(metrics) == set(tracing.METRICS)
    called = {s.name for s in tracer.spans}
    assert called <= set(tracing.FUNCTIONS)
    for fn in called:
        assert metrics[f"{fn}.calls"] >= 1
        assert metrics[f"{fn}.s"] >= metrics[f"{fn}.self_s"] > 0
    assert not any(fn.startswith(BYPASSED[name]) for fn in called)
    if "fcs.window_expectations" in called:
        assert metrics["fcs.window_expectations.entries"] > 0
    if "cli.main" in called:
        assert metrics["cli.stdout_bytes"] > 0


def test_nested_module_attributes_are_wrapped():
    fcs = importlib.import_module("fcspin.fcs")
    symmetry = importlib.import_module("fcspin.symmetry")
    krausfile = importlib.import_module("fcspin.krausfile")
    window, fixed = fcs.window_expectations, fcs.fixed_point
    with tracing.Tracer().installed():
        assert symmetry.window_expectations.__wrapped__ is window
        assert krausfile.fixed_point.__wrapped__ is fixed
        assert krausfile.fixed_point is fcs.fixed_point
    assert symmetry.window_expectations is window
    assert krausfile.fixed_point is fixed


def test_reference_correlations_match_aklt_closed_form():
    V = importlib.import_module("fcspin.states").aklt_kraus().v
    S = workloads.spin_matrices(3)
    for obs in ("Sx", "Sz"):
        got = workloads.reference_correlations(V, np.eye(2) / 2, S[obs], S[obs], 8)
        assert np.allclose(got, workloads.aklt_reference(8)[0], atol=1e-14)


def test_hd_quantile_is_a_smooth_quantile():
    xs = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert run.hd_quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.hd_quantile(xs, 0.5) == pytest.approx(3.0)
    assert 1.0 < run.hd_quantile(xs, 0.1) < run.hd_quantile(xs, 0.5) \
        < run.hd_quantile(xs, 0.9) < 5.0



def test_slowdown_is_calibration_time_over_reference():
    calibrate = run.make_calibration()
    calls = [run._timed(calibrate) for _ in range(3)]
    assert run.slowdown(calls) == sorted(calls)[1] / run.CALIB_REF_S > 0
