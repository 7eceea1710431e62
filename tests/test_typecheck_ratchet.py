"""The CI type-check job checks every module of the strict mypy ratchet.

``pyproject.toml`` lists the ratchet; the ``typecheck`` job in
``.github/workflows/ci.yml`` names the modules (``-m``) and packages
(``-p``) mypy checks.  A ratchet module the command never names is
never checked.  Both files are read with regular expressions, so the
test also runs where ``tomllib`` is missing (Python 3.10).
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ratchet_modules():
    text = (ROOT / "pyproject.toml").read_text()
    modules = []
    for block in re.findall(
        r"^\[\[tool\.mypy\.overrides\]\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S
    ):
        if re.search(r"^disallow_untyped_defs\s*=\s*true", block, re.M):
            listing = re.search(r"^module\s*=\s*\[(.*?)\]", block, re.M | re.S)
            modules += re.findall(r'"([^"]+)"', listing.group(1))
    return modules


def checked_targets():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    command = re.search(r"^\s*(mypy -[mp] .*?)\n\s*\n", text, re.M | re.S)
    assert command, "no mypy command in ci.yml"
    return re.findall(r"-([mp])\s+([\w.]+)", command.group(1))


def is_checked(module, targets):
    """Whether mypy's targets cover ``module``; ``pkg.*`` stands for the
    package and every module under it, which only ``-p`` checks."""
    name = module.removesuffix(".*")
    for flag, target in targets:
        if flag == "p" and (name == target or name.startswith(target + ".")):
            return True
        if flag == "m" and module == target:
            return True
    return False


def test_ratchet_is_read():
    modules = ratchet_modules()
    assert "repro.units" in modules and "repro.core.*" in modules


def test_every_ratchet_module_is_type_checked():
    targets = checked_targets()
    unchecked = [m for m in ratchet_modules() if not is_checked(m, targets)]
    assert unchecked == []
