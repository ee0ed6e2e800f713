"""The library functions the benchmark tracer looks up by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_layers_resolve(monkeypatch):
    # tracer.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracer.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"fcspin.{mod}"), fn, None))
    ]
    assert tracer.LAYERS and missing == []
