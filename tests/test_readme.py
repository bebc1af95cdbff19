"""The examples in README.md, run as written.

Every ``$ cubepaths ...`` line of a ``console`` block runs through
``python -m cubepaths``; its stdout must equal the lines that follow it, up
to the next ``$`` line or the closing fence.  The ``>>>`` session of the
``python`` block runs under doctest.
"""

import doctest
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

README = Path(__file__).resolve().parents[1] / "README.md"

_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _blocks(language):
    """(first line number, body) of each fenced block in the language."""
    text = README.read_text(encoding="utf-8")
    for match in _FENCE.finditer(text):
        if match.group(1) == language:
            yield text.count("\n", 0, match.start(2)) + 1, match.group(2)


def _console_examples():
    """(line number, argv, expected stdout lines) of each ``$ cubepaths``."""
    examples = []
    for first, body in _blocks("console"):
        output = None  # the expected lines of the current example, if any
        for offset, line in enumerate(body.splitlines()):
            if line.startswith("$ "):
                argv = shlex.split(line[2:], comments=True)
                output = []
                if argv[0] == "cubepaths":
                    examples.append((first + offset, argv, output))
            elif output is not None:
                output.append(line)
    return examples


CONSOLE = _console_examples()


def test_readme_has_console_examples():
    assert len(CONSOLE) >= 6


@pytest.mark.parametrize(
    "argv,expected", [ex[1:] for ex in CONSOLE], ids=[f"README.md:{ex[0]}" for ex in CONSOLE]
)
def test_console_example(argv, expected):
    proc = subprocess.run(
        [sys.executable, "-m", "cubepaths", *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


def test_library_session():
    sessions = [(first, body) for first, body in _blocks("python") if ">>>" in body]
    assert sessions
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for first, body in sessions:
        # only the fence's body is parsed, so the closing fence is never
        # taken for the expected output of the last example
        test = parser.get_doctest(body, {}, "README.md", str(README), first - 1)
        runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0
    assert failed == 0
