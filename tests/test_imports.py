"""Guards on the package's source.

Every absolute import in the package's modules must name a standard
library module or numpy; relative imports stay inside the package.
Importing the package after numpy loads no module outside it beyond a
known few. Only tags._opened opens a file to write. No function casts
an argument to an integer dtype: an integer array it is given goes
through errors.check_counts, which rejects what a cast would round,
parse or wrap. Every dataclass is frozen, so a record keeps the values
it was checked with, and one that holds an array generates no equality,
which could only raise.
"""

import ast
import builtins
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def number_dtype(node) -> bool:
    """Whether node names an integer or float dtype: int, float, np.<name>
    or a dtype string."""
    if isinstance(node, ast.Name):
        kind = getattr(builtins, node.id, None)
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        kind = getattr(np, node.attr, None) if node.value.id in ("np", "numpy") else None
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        kind = node.value
    else:
        return False
    try:
        return kind is not None and np.dtype(kind).kind in "uif"
    except TypeError:
        return False


def argument_casts(node, params=frozenset()):
    """Line of each np.asarray or np.array call under node with an integer
    or float dtype whose first argument is a parameter of the enclosing
    function, or an attribute of one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = child.args
            inner = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from argument_casts(child, frozenset(a.arg for a in inner if a is not None))
            continue
        func = child.func if isinstance(child, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr in ("asarray", "array")
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
                and child.args):
            dtype = next((kw.value for kw in child.keywords if kw.arg == "dtype"),
                         child.args[1] if len(child.args) > 1 else None)
            root = child.args[0]
            while isinstance(root, ast.Attribute):
                root = root.value
            if (dtype is not None and number_dtype(dtype) and isinstance(root, ast.Name)
                    and root.id in params):
                yield child.lineno
        yield from argument_casts(child, params)


def test_no_function_casts_an_argument_to_numbers():
    """An integer array a function is given goes through check_counts, a
    real array through check_reals: np.asarray(x, dtype=np.int64) would
    truncate 1.5, parse "3" and wrap 2**63 + 5 where check_counts rejects
    each, and np.asarray(x, dtype=float) would parse "3" and take True as
    1.0 where check_reals rejects both."""
    found = [(path.name, line) for path in MODULES
             for line in argument_casts(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert found == []


@pytest.mark.parametrize("source, casts", [
    ("def f(x): np.asarray(x, dtype=np.int64)", True),
    ("def f(grid): np.asarray(grid.ref_times, dtype=np.uint64)", True),
    ("def f(self): np.array(self.a.b, 'u8')", True),
    ("def f(*xs): np.array(xs, dtype=int)", True),
    ("f = lambda x: np.asarray(x, dtype='<i4')", True),
    ("def f(x): np.asarray(x, dtype=float)", True),
    ("def f(self): np.asarray(self.delays, dtype=np.float64)", True),
    ("def f(x): np.asarray(x, dtype=complex)", False),
    ("def f(x): np.asarray(x)", False),
    ("def f(x): np.asarray(x[0], dtype=np.int64)", False),
    ("def f(x): y = x; np.asarray(y, dtype=np.int64)", False),
    ("def f(x):\n def g(y): np.asarray(x, dtype=np.int64)", False),
    ("def f(x): np.array([x, 0], dtype=np.uint64)", False),
    ("def f(x): np.asarray(x, dtype=STAMP)", False),
])
def test_number_casts_of_arguments_are_recognised(source, casts):
    assert bool(list(argument_casts(ast.parse(source)))) is casts


def dataclass_decorators(tree: ast.Module):
    """(class name, decorator) of each @dataclass or @dataclass(...) under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                func = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                    yield node.name, decorator


def frozen(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
        for kw in decorator.keywords)


def test_every_dataclass_is_frozen():
    """A field set after __post_init__'s checks is never checked again,
    so every record the package hands out is frozen."""
    found = {(path.name, name): frozen(decorator) for path in MODULES
             for name, decorator in dataclass_decorators(
                 ast.parse(path.read_text(encoding="utf-8"), str(path)))}
    assert ("tags.py", "TagStream") in found
    assert [where for where, is_frozen in found.items() if not is_frozen] == []


@pytest.mark.parametrize("source, is_frozen", [
    ("@dataclass(frozen=True)\nclass A: pass", True),
    ("@dataclasses.dataclass(frozen=True)\nclass A: pass", True),
    ("@dataclass\nclass A: pass", False),
    ("@dataclass()\nclass A: pass", False),
    ("@dataclass(frozen=False)\nclass A: pass", False),
    ("@dataclass(eq=False)\nclass A: pass", False),
])
def test_frozen_dataclasses_are_recognised(source, is_frozen):
    [(_, decorator)] = dataclass_decorators(ast.parse(source))
    assert frozen(decorator) is is_frozen


def array_records(trees) -> set:
    """Names of the dataclasses under trees with a field whose annotation
    names np.ndarray, or names a dataclass that is one of them."""
    fields = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    name == node.name for name, _ in dataclass_decorators(node)):
                fields[node.name] = {getattr(part, "id", getattr(part, "attr", None))
                                     for item in node.body if isinstance(item, ast.AnnAssign)
                                     for part in ast.walk(item.annotation)}
    holding = {"ndarray"}
    while more := {name for name, names in fields.items() if names & holding} - holding:
        holding |= more
    return holding - {"ndarray"}


def without_eq(decorator) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "eq" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in decorator.keywords)


def test_records_that_hold_arrays_generate_no_equality():
    """A generated __eq__ compares fields as tuples, and == on two arrays
    has no truth value, so it raises numpy's untyped ValueError; a generated
    __hash__ raises on the array too. A record that holds an array, itself
    or inside another record, takes eq=False: it compares and hashes by
    identity unless, as TagStream does, it writes its own __eq__."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES]
    holding = array_records(trees)
    assert {"TagStream", "PulseGrid", "GateResult", "SimResult", "FitResult"} <= holding
    assert [name for tree in trees for name, decorator in dataclass_decorators(tree)
            if name in holding and not without_eq(decorator)] == []


@pytest.mark.parametrize("source, holding", [
    ("@dataclass\nclass A:\n    x: np.ndarray", {"A"}),
    ("@dataclass(frozen=True)\nclass A:\n    x: numpy.ndarray | None = None", {"A"}),
    ("@dataclass\nclass A:\n    x: list[np.ndarray]", {"A"}),
    ("@dataclass\nclass C:\n    b: B\n@dataclass\nclass B:\n    a: A\n"
     "@dataclass\nclass A:\n    x: np.ndarray", {"A", "B", "C"}),
    ("@dataclass\nclass A:\n    x: int\n    y: dict\n    z: float = 0.0", set()),
    ("@dataclass\nclass A:\n    m = property(lambda s: np.ndarray)", set()),
    ("class A:\n    x: np.ndarray\n@dataclass\nclass B:\n    a: A", set()),
])
def test_records_that_hold_arrays_are_recognised(source, holding):
    assert array_records([ast.parse(source)]) == holding


@pytest.mark.parametrize("source, no_eq", [
    ("@dataclass(frozen=True, eq=False)\nclass A: pass", True),
    ("@dataclasses.dataclass(eq=False)\nclass A: pass", True),
    ("@dataclass(frozen=True)\nclass A: pass", False),
    ("@dataclass\nclass A: pass", False),
    ("@dataclass(eq=True)\nclass A: pass", False),
    ("@dataclass(eq=0)\nclass A: pass", False),
])
def test_dataclasses_without_eq_are_recognised(source, no_eq):
    [(_, decorator)] = dataclass_decorators(ast.parse(source))
    assert without_eq(decorator) is no_eq
