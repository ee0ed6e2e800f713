"""Golden command-line answers: exit codes and stdout of fixed commands.

Text between numbers must match exactly and every number must match to
ATOL absolute, so the check holds at any BLAS thread count.  Rewrite the
expected file, only when an answer is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
from importlib import resources
from pathlib import Path

import pytest

from fcspin.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
ATOL = 1e-12
BUNDLED = ("aklt", "product_complex_d2", "product_d2", "random_unital_d3")
COMMANDS = tuple(
    f"audit data/{name}.kraus --window {w}" for name in BUNDLED for w in (1, 2, 3)
) + (
    "spectrum @aklt",
    "correlate @aklt",
    "correlate data/random_unital_d3.kraus --n-max 12",
    "demo-aklt",
    "ed --d 2 --n 6 --beta 0.7 --rp",
    "ed --model aklt-parent --d 3 --n 6",
    "ed --d 3 --n 6 --beta 0.9 --rp",
    "ed --model xxx --d 2 --n 10",
    "ed --model aklt-parent --d 3 --n 8",
    "ed --d 3 --n 8 --J -1",
    "ed --d 2 --n 5",
    "ed --d 2 --n 7 --open",
    "ed --d 3 --n 5 --J -1 --open",
    "ed --d 2 --n 6 --open --beta 0.8 --rp",
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(command):
    """(exit code, stdout) of one command; data/<file> names a bundled file."""
    data = resources.files("fcspin.data")
    argv = [str(data.joinpath(a[5:])) if a.startswith("data/") else a
            for a in command.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _split(text):
    """The text with each number replaced by #, and the numbers."""
    return _NUMBER.sub("#", text), [float(x) for x in _NUMBER.findall(text)]


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_golden(command):
    expected = json.loads(GOLDEN.read_text())[command]
    code, out = run(command)
    assert code == expected["exit"]
    skeleton, numbers = _split(out)
    want_skeleton, want_numbers = _split(expected["stdout"])
    assert skeleton == want_skeleton
    worst = max((abs(a - b) for a, b in zip(numbers, want_numbers)), default=0.0)
    assert worst <= ATOL


if __name__ == "__main__":
    golden = {}
    for command in COMMANDS:
        code, out = run(command)
        golden[command] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
