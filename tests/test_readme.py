"""The README's examples run: the library sketch, and every ``polysolve``
line of its command-line block through cli.main with exit status 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from polysolve.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("polysolve ")
]


def test_every_command_is_found():
    assert len(COMMANDS) == 9


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c[1:3]) for c in COMMANDS])
def test_command_exits_zero(argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(argv[1:], out=out, err=err) == 0, err.getvalue()
    assert out.getvalue()


def test_library_sketch_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_block("Library sketch", "python"), "README.md", "exec"), {})
    assert out.getvalue().count("\n") >= 8
