"""Every name a module of the package imports is used in that module, every
import sits at module level and reaches only the package, the standard
library or numpy, and every public name it defines has a caller."""
import ast
import json
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

from infodesign import coding

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "infodesign"
# Public names kept without a caller, each with the reason it stays.
UNCALLED = {"in_Q0": "ROADMAP item 3", "in_Q2": "ROADMAP item 3"}


def unused_imports(source: str) -> list:
    """Names bound by import statements of source that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from json import dumps, loads\n"
              "import a.b\n"
              "print(loads, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (2, "system"), (3, "dumps")]


def nested_imports(source: str) -> list:
    """Lines of the import statements of source inside a function body."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    """bench/spans.py wraps the traced names of the package modules loaded
    when a trace starts and puts back only those: a module first imported
    inside a traced call would keep the wrappers."""
    assert nested_imports(path.read_text()) == []


def test_finds_a_nested_import():
    source = ("import os\n"
              "if os.name:\n"
              "    import sys\n"
              "def f():\n"
              "    from json import dumps\n"
              "    def g():\n"
              "        import re\n"
              "class C:\n"
              "    async def m(self):\n"
              "        import a.b\n")
    assert nested_imports(source) == [5, 7, 10]


def foreign_imports(source: str) -> list:
    """Modules source imports from outside the package, the standard library
    and numpy."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    return sorted(m for m in modules if m.split(".")[0] not in
                  sys.stdlib_module_names | {"numpy"})


def test_imports_numpy_and_the_standard_library_alone():
    found = {p.name: foreign_imports(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group()
            for d in project["dependencies"]] == ["numpy"]


def test_finds_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import os.path, click\n"
              "import numpy.linalg as la\n"
              "from . import x\n"
              "from .prob import y\n"
              "from scipy.optimize import z\n")
    assert foreign_imports(source) == ["click", "scipy.optimize"]


def names_in(source: str, strings: bool = False) -> set:
    """Names source reads (as a name or an attribute) or imports, and with
    strings=True every string constant too (bench/spans.py names the
    functions it traces in strings)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def uncalled(package: dict, outside: list) -> list:
    """Public top-level defs and classes of the package (module name ->
    source) that carry no decorator, that no package module reads, that no
    outside source names and that UNCALLED does not list."""
    called = set().union(*(names_in(src) for src in package.values()),
                         *(names_in(src, strings=True) for src in outside))
    return sorted(f"{module}.{node.name}"
                  for module, source in package.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and not node.decorator_list
                  and node.name not in called and node.name not in UNCALLED)


def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = [p.read_text() for p in [ROOT / "tests" / "test_acceptance.py",
                                       *sorted((ROOT / "bench").glob("*.py"))]]
    assert uncalled(package, outside) == []


def test_finds_an_uncalled_name():
    package = {"a": ("import click\n"
                     "def used(): pass\n"
                     "def traced(): pass\n"
                     "def by_gate(): pass\n"
                     "def orphan(): pass\n"
                     "def _private(): pass\n"
                     "class Orphan: pass\n"
                     "def in_Q0(): pass\n"
                     "@click.command()\n"
                     "def command(): pass\n"),
               "b": "from .a import used\nused()\n"}
    outside = ["TRACED = ['traced']\n", "from a import by_gate\n"]
    assert uncalled(package, outside) == ["a.Orphan", "a.orphan"]


def traced_names(source: str) -> dict:
    """bench/spans.py's TRACED table: module name -> the names it wraps."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]):
            return {module: names for module, (_, names)
                    in ast.literal_eval(node.value).items()}
    raise AssertionError("no TRACED assignment")


def test_traced_names_are_top_level_functions():
    """The tracer getattrs every TRACED name of its module and wraps what it
    finds, so each must stay a module-level def there."""
    traced = traced_names((ROOT / "bench" / "spans.py").read_text())
    missing = []
    for module, names in traced.items():
        path = SRC / (module.split(".", 1)[1] + ".py")
        defs = {node.name for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)}
        missing += [f"{module}.{name}" for name in names if name not in defs]
    assert "run_trial" in traced["infodesign.coding"]
    assert missing == []


def test_traced_coding_names_run_in_an_experiment(monkeypatch):
    """The tracer wraps each coding name on its module, so a name that
    run_experiment never reaches through the module reads "absent" in a
    traced run: every one but run_trial, the pipeline on a chunk of one,
    must be called."""
    names = traced_names((ROOT / "bench" / "spans.py").read_text())["infodesign.coding"]
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        if name != "run_trial":
            monkeypatch.setattr(coding, name, counting(name, getattr(coding, name)))
    doc = json.loads(resources.files("infodesign").joinpath(
        "data/coding_default.json").read_text())
    coding.run_experiment(coding.coding_config_from_dict(doc), 20)
    assert sorted(calls) == sorted(set(names) - {"run_trial"})


def info_reads(source: str) -> dict:
    """bench/spans.py's INFO table: traced name -> the argument names its
    reader takes by subscript from its first parameter (a["name"])."""
    tree = ast.parse(source)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["INFO"]):
            reads = {}
            for key, reader in zip(node.value.keys, node.value.values):
                reader = defs[reader.id] if isinstance(reader, ast.Name) else reader
                bound = reader.args.args[0].arg
                reads[key.value] = sorted(
                    sub.slice.value for sub in ast.walk(reader)
                    if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                    and sub.value.id == bound and isinstance(sub.slice, ast.Constant))
            return reads
    raise AssertionError("no INFO assignment")


def test_info_readers_take_parameters_of_their_function():
    """The tracer binds a traced call's arguments by signature and hands them
    to its INFO reader, so each name a reader takes must stay a parameter of
    that function: a renamed one would fail only in a traced run."""
    source = (ROOT / "bench" / "spans.py").read_text()
    module_of = {name: module for module, names in traced_names(source).items()
                 for name in names}
    reads = info_reads(source)
    missing = []
    for name, args in reads.items():
        path = SRC / (module_of[name].split(".", 1)[1] + ".py")
        fn = next(node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == name)
        params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args,
                                  *fn.args.kwonlyargs)}
        missing += [f"{name}({arg})" for arg in args if arg not in params]
    assert reads["scenario_surface"] == ["resolution"] and reads["encode"] == ["cb"]
    assert missing == []


def test_finds_info_reads():
    source = ("def _size(a, r, e):\n"
              "    return a['cb'].size + a['n']\n"
              "INFO = {'f': lambda a, r, e: a['x'] * r.k, 'g': _size,\n"
              "        'h': lambda a, r, e: r.iterations}\n")
    assert info_reads(source) == {"f": ["x"], "g": ["cb", "n"], "h": []}
