"""Guards on the package's source.

Every absolute import in the package's modules must name a standard
library module or numpy; relative imports stay inside the package.
Importing the package after numpy loads no module outside it beyond a
known few. Only tags._opened opens a file to write.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import zeroherald

MODULES = sorted(Path(zeroherald.__file__).parent.glob("*.py"))


def test_modules_are_found():
    assert {"errors.py", "cli.py", "sim.py"} <= {path.name for path in MODULES}


def test_imports_are_standard_library_or_numpy():
    top = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top.setdefault(name.partition(".")[0], path.name)
    foreign = {name: where for name, where in top.items()
               if name not in sys.stdlib_module_names}
    assert set(foreign) == {"numpy"}, foreign


# what importing the package loads beyond numpy and the package itself:
# a fresh interpreter pays for each at start-up, so a new one is a choice
# made here, not a side effect
IMPORTED_AFTER_NUMPY = {"__future__", "_csv", "_json", "copy", "csv", "dataclasses", "json",
                        "json.decoder", "json.encoder", "json.scanner"}


def test_import_loads_only_known_modules_beyond_numpy():
    src = str(Path(zeroherald.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import numpy; "
             "before = set(sys.modules); import zeroherald; "
             "print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True).stdout.split()
    assert "zeroherald.sim" in loaded
    added = {name for name in loaded if name.partition(".")[0] != "zeroherald"}
    assert added <= IMPORTED_AFTER_NUMPY, sorted(added - IMPORTED_AFTER_NUMPY)


# calls that open a file, by name: ".name" is a method of any object
# (Path.open, Path.write_text). The mode is the argument at the given
# position or the "mode" keyword; None marks a call that opens to write
# whatever its arguments are.
OPENERS = {"open": 1, "io.open": 1, ".open": 0, "os.open": None, "os.fdopen": None,
           ".write_text": None, ".write_bytes": None}


def opened_to_write(call: ast.Call) -> bool:
    """Whether call opens a file in a mode other than a literal read mode."""
    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        module = func.value.id if isinstance(func.value, ast.Name) else None
        name = f"{module}.{func.attr}" if module in ("io", "os") else f".{func.attr}"
    else:
        return False
    if name not in OPENERS:
        return False
    at = OPENERS[name]
    if at is None:
        return True
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wxa+"))


def writers(tree: ast.Module) -> set[str]:
    """Top-level functions and methods (Class.method) that open a file to write."""
    found = set()
    for top in tree.body:
        units = [top] if not isinstance(top, ast.ClassDef) else top.body
        for unit in units:
            where = getattr(top, "name", "")
            if unit is not top:
                where += "." + getattr(unit, "name", "")
            if any(isinstance(node, ast.Call) and opened_to_write(node)
                   for node in ast.walk(unit)):
                found.add(where)
    return found


def test_one_helper_opens_files_to_write():
    """Every file the package writes goes through tags._opened, which
    writes beside the path and renames into place."""
    found = {(path.name, where) for path in MODULES
             for where in writers(ast.parse(path.read_text(encoding="utf-8"), str(path)))}
    assert found == {("tags.py", "_opened")}


@pytest.mark.parametrize("source, writes", [
    ("open(p)", False), ("open(p, 'rb')", False), ("open(p, mode='r')", False),
    ("open(p, encoding='utf-8')", False), ("Path(p).open()", False),
    ("open(p, 'w')", True), ("open(p, 'ab')", True), ("open(p, 'xb')", True),
    ("open(p, 'r+')", True), ("open(p, mode)", True), ("io.open(p, 'w')", True),
    ("os.open(p, flags)", True), ("os.fdopen(fd, 'w')", True),
    ("Path(p).open('w')", True), ("Path(p).write_text(s)", True),
])
def test_write_opens_are_recognised(source, writes):
    assert opened_to_write(ast.parse(source).body[0].value) is writes
