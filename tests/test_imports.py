"""Every imported name is used, every private module-level name is read, and
every name the benchmark imports from the package exists.

These are the checks a linter would make, done with ``ast`` only.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "quadform").glob("*.py"))
# The package __init__ imports names only to re-export them.
SOURCES = [
    *(p for p in PACKAGE if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level ``_name`` that no module in ``sources`` reads.

    A function, class or assigned constant counts as read where a ``Name`` in
    load context or an attribute access spells it, in any of the modules.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sqrt(pi))\n"
    assert unused_imports(source) == ["os", "tau"]


def test_detects_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_unused = 4\ndef _helper():\n    return _LIMIT\nclass _Old:\n    pass\n",
        "b": "from . import a\ndef f():\n    return a._helper()\n",
    }
    assert unread_private_names(sources) == ["a._unused", "a._Old"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_in_the_package_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []


def package_imports(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each ``from quadform... import name`` anywhere in ``source``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "quadform" or node.module.startswith("quadform."))
        for alias in node.names
    ]


def resolves(module: str, name: str) -> bool:
    """True when ``from module import name`` would succeed: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_package_name_the_benchmark_imports_exists():
    # The benchmark imports inside its workload classes, so a deleted name
    # would otherwise surface only when the benchmark runs.
    imports = [
        (path.name, module, name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for module, name in package_imports(path.read_text(encoding="utf-8"))
    ]
    assert imports
    assert [imp for imp in imports if not resolves(*imp[1:])] == []
