"""Golden command-line answers: exit codes and stdout of fixed commands.

Text between numbers must match exactly and every number must match to
ATOL absolute, so the check holds at any BLAS thread count.  Rewrite the
expected file, only when an answer is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py

which keeps every entry that still matches, writes new commands whole
and, in an answer whose exit code and text between numbers still match,
replaces only the numbers that moved past ATOL; so at an unchanged tree it
reproduces the file.
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


def _differences(expected, code, out):
    """How (code, out) differs from the expected answer: the exit code, the
    text between numbers, or a number off by more than ATOL."""
    skeleton, numbers = _split(out)
    want_skeleton, want_numbers = _split(expected["stdout"])
    worst = max((abs(a - b) for a, b in zip(numbers, want_numbers)), default=0.0)
    return [what for what, differs in (
        (f"exit {code} != {expected['exit']}", code != expected["exit"]),
        ("text between numbers", skeleton != want_skeleton),
        (f"a number off by {worst:g} > ATOL", worst > ATOL)) if differs]


def _merged(expected, code, out):
    """The entry to keep for the answer (code, out).  When the exit code and
    the text between numbers match, it is the expected entry with only the
    numbers off by more than ATOL replaced by the answer's; otherwise it is
    the answer itself."""
    if code != expected["exit"] or _split(out)[0] != _split(expected["stdout"])[0]:
        return {"exit": code, "stdout": out}
    answer = iter(_NUMBER.findall(out))

    def pick(match):
        new = next(answer)
        return new if abs(float(new) - float(match.group())) > ATOL else match.group()

    return {"exit": code, "stdout": _NUMBER.sub(pick, expected["stdout"])}


def test_rewrite_replaces_only_the_numbers_that_moved():
    expected = {"exit": 0, "stdout": "a 0.30000000000000004 b -1e-20 c 2\n"}
    out = "a 0.3 b 0.0 c 2.5\n"
    merged = _merged(expected, 0, out)
    assert merged == {"exit": 0, "stdout": "a 0.30000000000000004 b -1e-20 c 2.5\n"}
    assert _differences(merged, 0, out) == []
    assert _merged(expected, 0, expected["stdout"]) == expected
    # a new exit code or new text between numbers takes the whole answer
    for code, text in ((1, expected["stdout"]), (0, "a 0.3 B 0.0 c 2\n")):
        assert _merged(expected, code, text) == {"exit": code, "stdout": text}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_matches_golden(command):
    expected = json.loads(GOLDEN.read_text())[command]
    assert _differences(expected, *run(command)) == []


if __name__ == "__main__":
    # keep every number that still matches, so the file changes only where an
    # answer moved past ATOL or a command is new
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden = {}
    for command in COMMANDS:
        code, out = run(command)
        kept = old.get(command)
        golden[command] = ({"exit": code, "stdout": out} if kept is None
                           else _merged(kept, code, out))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
