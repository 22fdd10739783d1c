"""Dependency guard: numpy is the package's only runtime dependency.

Every absolute import in the package's modules must name a standard
library module or numpy; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

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
