"""The files CI's ``ruff format --check`` step covers fit the line length.

The lint job in ``.github/workflows/ci.yml`` runs ``ruff format
--check`` over a list of files and directories; ruff re-wraps any line
longer than ``pyproject.toml``'s ``line-length``, so an over-long line
there fails the step.  This is the part of the step that can be checked
without ruff.  Both files are read with regular expressions, as in
``tests/test_typecheck_ratchet.py``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def line_length():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^line-length\s*=\s*(\d+)", text, re.M)
    assert match, "no line-length in pyproject.toml"
    return int(match.group(1))


def format_checked_paths():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    command = re.search(r"ruff format --check\s(.*?)\n\s*\n", text, re.S)
    assert command, "no ruff format --check step in ci.yml"
    return command.group(1).split()


def python_files(paths):
    for name in paths:
        path = ROOT / name
        assert path.exists(), f"ci.yml formats a missing path: {name}"
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def test_paths_are_read():
    paths = format_checked_paths()
    assert "tools/" in paths and "src/repro/tenancy/" in paths


def test_no_line_is_longer_than_the_limit():
    limit = line_length()
    long_lines = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for path in python_files(format_checked_paths())
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > limit
    ]
    assert long_lines == []
