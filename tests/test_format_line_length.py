"""The files CI's ``ruff format --check`` step covers fit the line length.

The lint job in ``.github/workflows/ci.yml`` runs ``ruff format
--check`` over a list of files and directories; ruff re-wraps any line
longer than ``pyproject.toml``'s ``line-length``, so an over-long line
there fails the step.  This is the part of the step that can be checked
without ruff.  The ``ruff-format`` pre-commit hook must check the same
files, so a commit the hook lets through does not fail CI.  The files
are read with regular expressions, as in
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


def format_hook_pattern():
    """The ``files`` pattern of ``.pre-commit-config.yaml``'s
    ``ruff-format`` hook (a folded ``(?x)`` block)."""
    text = (ROOT / ".pre-commit-config.yaml").read_text()
    hook = re.search(r"- id: ruff-format\n(.*?)\n\s*- id:", text, re.S)
    assert hook, "no ruff-format hook in .pre-commit-config.yaml"
    files = re.search(r"files: >-\n(.*?)\n\s*types:", hook.group(1), re.S)
    assert files, "the ruff-format hook has no files pattern"
    return re.compile(" ".join(line.strip() for line in files.group(1).splitlines()))


def repository_python_files():
    """Every Python file of the repository, outside hidden and cache
    directories."""
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT).parts
        if not any(part.startswith(".") or part == "__pycache__" for part in parts):
            yield path


def relative(paths):
    return {path.relative_to(ROOT).as_posix() for path in paths}


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


def test_pre_commit_format_hook_checks_what_ci_checks():
    hook = format_hook_pattern()
    ci = relative(python_files(format_checked_paths()))
    names = ci | relative(repository_python_files())
    hooked = {name for name in names if hook.search(name)}
    assert sorted(ci - hooked) == [], "CI formats files the hook misses"
    assert sorted(hooked - ci) == [], "the hook formats files CI does not"
