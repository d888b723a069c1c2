"""The package's modules do not import each other's private helpers: no
``from .x import _name`` and no ``mod._name`` on a sibling module bound by
``from . import mod``. Dunder names such as ``__version__`` are not helpers.
Every name a module imports from a sibling is used in it; ``__init__.py``,
whose imports are the package's public names, is exempt. Only ``errors.py``
freezes arrays: every other module keeps them through ``frozen_array``.
Each argument rule listed below is written once, in one module, which the
others defer to, and no ``raise`` message is written twice. No module holds
an ``assert``: every rule is a ``raise``, which ``python -O`` keeps. Files
are written only through ``dataset.open_output``: no other code opens one
for writing or calls ``os.open``. The package imports only the standard
library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vpcme"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source):
    """(line, text) of each use of a sibling module's private name."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    found.append((node.lineno, f"from .{node.module} import {alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and is_private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_private_helper_of_a_sibling(path):
    assert private_uses(path.read_text()) == []


def test_both_kinds_of_private_use_are_caught():
    source = (
        "from . import _kernels, __version__\n"
        "from . import dataset as ds\n"
        "from .errors import ConfigError, _hidden\n"
        "from .x import __version__\n"
        "_kernels.knn(1)\n"
        "_kernels._brute_force(1)\n"
        "ds._parse(2)\n"
        "local._private(3)\n"
    )
    assert private_uses(source) == [
        (3, "from .errors import _hidden"),
        (6, "_kernels._brute_force"),
        (7, "ds._parse"),
    ]


def unused_sibling_imports(source):
    """(line, name) of each name imported from a sibling module and never used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports_from_a_sibling(path):
    assert unused_sibling_imports(path.read_text()) == []


def test_an_unused_sibling_import_is_caught():
    source = (
        "import numpy as np\n"
        "from . import _kernels, dataset as ds\n"
        "from .errors import ValidationError, checked_int\n"
        "def f(x: ds.MultiLabelDataset):\n"
        "    raise ValidationError(_kernels.knn(x))\n"
    )
    assert unused_sibling_imports(source) == [(3, "checked_int")]


def test_only_frozen_array_sets_array_flags():
    assert sorted(p.name for p in PACKAGE.glob("*.py") if "setflags" in p.read_text()) == ["errors.py"]


@pytest.mark.parametrize("rule, owner", [
    ("theta must lie in [0, 1]", "constraints.py"),
    ("must be smaller than the instance count", "mlknn.py"),
    ("the smallest normal float", "mlknn.py"),
    ("must be a matrix with at least one label", "metrics.py"),
    ("may not pair an instance with itself", "constraints.py"),
    ("dataset needs at least two label columns", "dataset.py"),
])
def test_each_rule_has_one_owner(rule, owner):
    # counted, not just found: a second copy in the owner's module fails too
    counts = {p.name: p.read_text().count(rule) for p in PACKAGE.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {owner: 1}


def raise_messages(source):
    """(line, text) of each ``raise`` whose first argument is a string literal
    or an f-string, the f-string as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                found.append((node.lineno, message.value))
            elif isinstance(message, ast.JoinedStr):
                found.append((node.lineno, ast.unparse(message)))
    return sorted(found)


def repeated_messages(sources):
    """Each raise message written more than once across ``sources``, a
    name -> source mapping, with the (name, line) of every copy."""
    where = {}
    for name, source in sources.items():
        for line, text in raise_messages(source):
            where.setdefault(text, []).append((name, line))
    return {text: places for text, places in where.items() if len(places) > 1}


def test_each_raise_message_is_written_once():
    # the one-owner rule above for every message, not only the listed ones
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(len(raise_messages(s)) for s in sources.values()) > 50
    assert repeated_messages(sources) == {}


def test_a_repeated_raise_message_is_caught():
    sources = {
        "a.py": (
            "def f(x, bad):\n"
            "    if x:\n"
            "        raise ValueError('x must be set')\n"
            "    raise ValueError(f'{x} is too big')\n"
            "    raise ValueError(bad)\n"
        ),
        "b.py": (
            "def g(x, bad):\n"
            "    raise ConfigError(f'{x} is too big') from None\n"
            "    raise ValueError(bad)\n"
            "    raise ValueError('x must be set, got ' + x)\n"
        ),
    }
    assert repeated_messages(sources) == {"f'{x} is too big'": [("a.py", 4), ("b.py", 2)]}


def assert_lines(source):
    """Line of each ``assert`` statement, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_holds_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_an_assert_is_caught():
    source = (
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('x must be non-negative')\n"
        "    assert x.size, 'empty'\n"
        "    return [y for y in x if y]  # assert in a comment\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert assert_lines(source) == [4, 8]


def write_opens(source, helper=None):
    """(line, call) of each call, outside the function named ``helper``, that
    opens a file for writing: ``os.open``; ``write_text`` or ``write_bytes``;
    or an ``open``, ``fdopen`` or ``.open`` whose mode holds w, a, x or + or
    is not a literal."""
    tree = ast.parse(source)
    exempt = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == helper for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if (owner, name) == ("os", "open") or name in ("write_text", "write_bytes"):
            found.append((node.lineno, ast.unparse(func)))
        elif name in ("open", "fdopen"):
            # open(path, mode), io.open and os.fdopen take the mode second, a method (Path.open) first
            position = 1 if isinstance(func, ast.Name) or owner in ("io", "os") else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:position + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                found.append((node.lineno, ast.unparse(func)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_writes_files_only_through_open_output(path):
    helper = "open_output" if path.name == "dataset.py" else None
    assert write_opens(path.read_text(), helper) == []


def test_a_write_open_is_caught():
    source = (
        "import io, os\n"
        "def open_output(path):\n"
        "    return os.fdopen(os.open(path, os.O_WRONLY), 'w')\n"
        "def f(p, mode):\n"
        "    open(p).read(), open(p, 'r', encoding='utf-8'), open(p, mode='rb'), np.load(p)\n"
        "    open(p, 'w')\n"
        "    open(p, mode='ab'), io.open(p, 'x'), os.fdopen(3, 'r+')\n"
        "    Path(p).open('w'), Path(p).open(), p.write_text('x')\n"
        "    open(p, mode), os.open(p, os.O_RDONLY)\n"
    )
    calls = [(6, "open"), (7, "io.open"), (7, "open"), (7, "os.fdopen"),
             (8, "Path(p).open"), (8, "p.write_text"), (9, "open"), (9, "os.open")]
    assert write_opens(source, "open_output") == sorted(calls)
    assert write_opens(source) == sorted(calls + [(3, "os.fdopen"), (3, "os.open")])


ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source):
    """(line, top-level module) of each absolute import, at any depth, of a
    module outside the standard library and numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return [(line, name) for line, name in found if name not in ALLOWED_TOP_LEVEL]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    # pyproject.toml promises numpy alone; the test extras (scipy,
    # hypothesis, jsonschema) are installed here, so a stray import of one
    # of them would still run
    assert foreign_imports(path.read_text()) == []


def test_an_import_outside_numpy_is_caught():
    source = (
        "import os.path, numpy as np\n"
        "from . import errors\n"
        "from numpy.linalg import eigh\n"
        "def f():\n"
        "    from scipy import stats\n"
        "    import hypothesis.strategies\n"
    )
    assert foreign_imports(source) == [(5, "scipy"), (6, "hypothesis")]
