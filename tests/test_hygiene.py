"""Hygiene of the package: no stale imports, no unread module-level
names, no function that only the tests call, a clean ``__all__``, nothing
imported from outside the standard library, every division through the
one quotient kernel, every lattice layout through ``series``, no cache
without a bound, and no ``inspect``, ``dataclasses``, ``closed_forms`` or
``ring`` in the import."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import modschwarz

PACKAGE = Path(modschwarz.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = PACKAGE.parent.parent
PYPROJECT = REPO / "pyproject.toml"
PERFBENCH = sorted((REPO / "perfbench").rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, names inside string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants, with line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return names


def attribute_names(tree: ast.Module) -> set[str]:
    """The names of the attributes accessed."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def string_names(tree: ast.Module) -> set[str]:
    """Identifiers inside string constants other than docstrings (the
    benchmark's tracer names the functions it wraps by string; a
    docstring only mentions them)."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = {
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
    }
    return {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value not in docs
        for name in re.findall(r"[A-Za-z_]\w*", node.value)
    }


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded, attributes accessed, and ``string_names``."""
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return loaded | attribute_names(tree) | string_names(tree)


def names_read_by(paths, names=read_names) -> set[str]:
    """``names`` (``read_names`` by default) over every file in ``paths``."""
    read = set()
    for path in paths:
        read |= names(ast.parse(path.read_text(), filename=str(path)))
    return read


def test_package_has_modules():
    assert {p.stem for p in MODULES} >= {"series", "modforms", "solver", "numeric", "cli"}


def test_every_import_is_used():
    stale = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        stale += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree).items()
            if name not in used
        ]
    assert stale == []


def test_every_module_level_name_is_read():
    # Re-exporting from ``__init__`` does not count as a read.
    read = names_read_by(MODULES + sorted((REPO / "tests").rglob("*.py")) + PERFBENCH)
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in defined_names(tree).items()
            if name not in read
        ]
    assert unread == []


def package_functions(tree: ast.Module):
    """``(function, is_method)`` for the module-level functions and the
    non-dunder methods of module-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            yield from (
                (f, True) for f in node.body
                if isinstance(f, functions)
                and not (f.name.startswith("__") and f.name.endswith("__"))
            )


def test_every_package_function_has_a_caller_outside_the_tests():
    # ``src/`` holds the pipeline and ``tests/`` the oracles: a function
    # or method that only the tests read belongs in ``tests/oracles.py``.
    # The benchmark counts as a caller, since its tracer names what it wraps.
    # A function is read by any name; a method only by an attribute, or by
    # a string in the benchmark, since a local variable of the same name
    # calls nothing.
    read = names_read_by(MODULES + PERFBENCH)
    called = names_read_by(MODULES + PERFBENCH, attribute_names)
    called |= names_read_by(PERFBENCH, string_names)
    test_only = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        test_only += [
            f"{path.name}:{node.lineno} {node.name}"
            for node, is_method in package_functions(tree)
            if node.name not in (called if is_method else read)
        ]
    assert test_only == []


def test_all_names_resolve_once():
    counts = Counter(modschwarz.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
    assert [name for name in counts if not hasattr(modschwarz, name)] == []


def test_every_import_is_relative_or_from_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {top}"
                for top in tops
                if top not in sys.stdlib_module_names
            ]
    assert foreign == []


SLOW_IMPORTS = ("inspect", "dataclasses")
IMPORT = "import sys, modschwarz, modschwarz.cli; print(*sorted(sys.modules))"


def fresh_import(*flags: str) -> subprocess.CompletedProcess:
    """Import the package and its CLI in a new interpreter without ``site``,
    so only the package's own imports load modules."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    cmd = [sys.executable, "-S", *flags, "-c", IMPORT]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)


def importers(report: str, module: str) -> list[str]:
    """The ``-X importtime`` line of ``module`` and those of the modules
    that imported it: each parent follows its children, one level up."""
    chain, depth = [], None
    for line in report.splitlines():
        name = line.rpartition("|")[2]
        level = len(name) - len(name.lstrip())
        if (name.strip() == module) if depth is None else (level < depth):
            chain.append(line)
            depth = level
    return chain


def assert_not_imported(modules) -> None:
    """Fail with the importer chain of each of ``modules`` that a fresh
    ``import modschwarz, modschwarz.cli`` loads."""
    loaded = [m for m in modules if m in fresh_import().stdout.split()]
    if loaded:
        report = fresh_import("-X", "importtime").stderr
        pytest.fail("\n".join(line for m in loaded for line in importers(report, m)))


def test_the_import_loads_neither_inspect_nor_dataclasses():
    # Every CLI call pays the import (the benchmark's ``setup_s``), and
    # these two cost a quarter of it while serving no step of a solve.
    assert_not_imported(SLOW_IMPORTS)


def test_the_import_leaves_the_closed_forms_to_examples():
    # Parsing and running the r = 1..4 literals, ``expand`` and ``CLAIMS``
    # is about a tenth of the import, and only ``examples`` reads them.
    assert_not_imported(["modschwarz.closed_forms"])


def test_the_import_leaves_the_ring_to_examples():
    # ``ring`` decides the closed-form claims, so it follows ``closed_forms``.
    assert_not_imported(["modschwarz.ring"])


def test_closed_forms_reads_no_term_string():
    # ring.read_term is the one reader of the closed-form notation, for the
    # ring and for closed_forms.expand alike: a split or a partition in
    # closed_forms would be a second reader.
    tree = ast.parse((PACKAGE / "closed_forms.py").read_text())
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not calls & {"split", "rsplit", "partition", "rpartition"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def is_inverse_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
    )


def test_no_product_with_an_inverse():
    # ``x * y.inverse()`` inverts y to its full window and then multiplies;
    # ``x / y`` is one forward substitution with x as its numerator, and
    # ``y.inverse() * c`` for a scalar c is ``y.inverse(c)``, one pass.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and (is_inverse_call(node.left) or is_inverse_call(node.right))
        ]
    assert found == []


def test_the_int_digit_limit_is_left_alone():
    # Printing and parsing coefficients past the limit go through
    # ``decimal``; the package never changes the interpreter's limit.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{getattr(node, 'lineno', '?')}"
            for node in ast.walk(tree)
            if "set_int_max_str_digits"
            in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None))
        ]
    assert found == []


def test_only_series_lays_out_steps():
    # Spreading q-steps over a lattice, ``xs[::m] = steps``, is the job of
    # ``series._on_lattice``; a strided read such as ``e4.nums[::m]`` is fine.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "series.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Slice)
            and node.slice.step is not None
        ]
    assert found == []


def unbounded_cache(node: ast.AST) -> bool:
    """``functools.cache`` (bare or called) or ``lru_cache`` with
    ``maxsize=None``, by keyword or by position."""
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        owner = getattr(func.value, "id", None)
        name = func.attr if owner == "functools" else None
    else:
        name = getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False
    sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
    return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)


@pytest.mark.parametrize(
    "source, unbounded",
    [
        ("@functools.cache\ndef f(): pass", True),
        ("@cache\ndef f(): pass", True),
        ("g = functools.cache(f)", True),
        ("@functools.lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@lru_cache(None)\ndef f(): pass", True),
        ("@functools.lru_cache(maxsize=1)\ndef f(): pass", False),
        ("@functools.lru_cache\ndef f(): pass", False),
        ("x = self.cache", False),
    ],
)
def test_the_cache_check_sees_each_form(source, unbounded):
    tree = ast.parse(source)
    assert any(unbounded_cache(node) for node in ast.walk(tree)) == unbounded


def test_no_cache_is_unbounded():
    # A long-lived process must keep bounded memory: every cache in the
    # package has a fixed size.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name, ast.Call)) and unbounded_cache(node)
        ]
    assert found == []
