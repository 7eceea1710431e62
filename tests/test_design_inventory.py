"""DESIGN.md's module inventory lists exactly the modules of ``src/repro``.

The inventory is the code block under "## 3. Module inventory".  A line
indented two spaces names a top-level module or a package (``name/``,
standing for its ``__init__.py``); a line indented four spaces names
modules of the last package.  The names lead the line and the
description follows.  The file is read with regular expressions, as
``tests/test_typecheck_ratchet.py`` reads its configuration files.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def listed_modules():
    text = (ROOT / "DESIGN.md").read_text()
    block = re.search(r"^## 3\. Module inventory\n+```\n(.*?)^```", text, re.M | re.S)
    assert block, "no module inventory in DESIGN.md"
    lines = block.group(1).splitlines()
    assert lines[0] == "src/repro/"
    listed, package = {"__init__.py"}, ""
    for line in lines[1:]:
        indent = len(line) - len(line.lstrip())
        names = re.match(r"\s*((?:[\w.]+\.py\s+|\w+/\s+)*)", line + " ").group(1)
        for name in names.split():
            if indent == 2:
                package = name if name.endswith("/") else ""
                listed.add(f"{name}__init__.py" if package else name)
            else:
                assert indent == 4 and package, f"unplaced {name!r}: {line!r}"
                listed.add(package + name)
    return listed


def test_inventory_is_read():
    listed = listed_modules()
    assert {"units.py", "core/__init__.py", "core/drt.py", "harness/cli.py"} <= listed


def test_inventory_matches_the_tree():
    tree = {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")}
    listed = listed_modules()
    assert sorted(tree - listed) == [], "modules missing from DESIGN.md §3"
    assert sorted(listed - tree) == [], "DESIGN.md §3 lists files that do not exist"
