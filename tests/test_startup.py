"""Start-up imports: fcspin and every command load numpy alone.

The pytest session has imported scipy already, so each check runs in a
fresh interpreter and reports its sys.modules as JSON.  An AST walk of the
package's sources checks the same at every import statement.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fcspin
from test_cli_golden import _split

SRC = str(Path(fcspin.__file__).resolve().parents[1])
CERTIFICATE_COMMANDS = ("audit @aklt", "correlate @aklt", "spectrum @aklt",
                        "repr --d 5", "demo-aklt")

_CHILD = """
import contextlib, io, json, sys
import fcspin, fcspin.cli
codes, outs = [], []
for command in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(fcspin.cli.main(command.split()))
    outs.append(out.getvalue())
print(json.dumps({"codes": codes, "stdout": outs,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def _run(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _CHILD, *commands], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_certificate_commands_load_no_scipy():
    result = _run(*CERTIFICATE_COMMANDS)
    assert result["codes"] == [0] * len(CERTIFICATE_COMMANDS)
    assert result["scipy"] == []


def test_ed_loads_no_scipy_and_keeps_its_answers():
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
    command = "ed --model xxx --d 2 --n 10"
    result = _run("ed --d 2 --n 4", command)
    assert result["codes"] == [0, golden[command]["exit"]]
    # the spin-1/2 Heisenberg ring on 4 sites: a singlet at -2, a triplet
    # at -1, and <S0.Sr> = -1/2, 1/4, -1/2 with Sz Sz a third of that
    skeleton, numbers = _split(result["stdout"][0])
    assert skeleton == ("model xxx\nd #\nn #\nground_energy #\ndegeneracy #\n"
                        "gap #\nr,total,zz\n#,#,#\n#,#,#\n#,#,#\n")
    want = [2, 4, -2, 1, 1, 1, -1 / 2, -1 / 6, 2, 1 / 4, 1 / 12, 3, -1 / 2, -1 / 6]
    assert max(abs(a - b) for a, b in zip(numbers, want)) <= 1e-12
    skeleton, numbers = _split(result["stdout"][1])
    want_skeleton, want_numbers = _split(golden[command]["stdout"])
    assert skeleton == want_skeleton
    assert max(abs(a - b) for a, b in zip(numbers, want_numbers)) <= 1e-12
    assert result["scipy"] == []


def test_package_imports_nothing_third_party_but_numpy():
    # function-level imports included, where a lazy scipy import would hide
    imported = set()
    for path in Path(SRC, "fcspin").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fcspin"}
    assert third_party == {"numpy"}


@pytest.mark.parametrize("name", ["fcspin"] + [
    f"fcspin.{m.name}" for m in pkgutil.iter_modules(fcspin.__path__)])
def test_every_exported_name_resolves(name):
    # a stale __all__ entry makes `from module import *` raise
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
