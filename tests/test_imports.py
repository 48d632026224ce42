"""No module under src/reactor imports a name it never uses, no
module-level name is dead, no private helper is named only by itself, and
every name the package exports is one it runs itself.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
``__init__.py`` is skipped by the first: its imports are the package's
re-exports, and to the second only its ``__all__`` counts as a use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reactor"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [
        "os (line 1)",
        "c (line 2)",
    ]


def dead_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level def, class or assignment that
    no module loads or imports (``__init__`` by name in ``__all__`` only);
    dunder names are skipped."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                defined += [(module, name) for name in names]
                if module == "__init__" and names == ["__all__"]:
                    used.update(ast.literal_eval(node.value))
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and not name.startswith("__")
    ]


def test_no_dead_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert "__init__" in sources
    assert dead_names(sources) == []


def test_checker_flags_a_dead_name():
    sources = {
        "__init__": "from .a import f, g\n__all__ = ['f']\n__version__ = '1'\n",
        "a": "X = 1\nY: int = 2\nZ, W = 3, 4\ndef f(): return Y\n"
             "def g(): pass\nclass C: pass\n",
        "b": "from .a import Z\nprint(Z)\n",
    }
    assert dead_names(sources) == ["a.X", "a.W", "a.g", "a.C"]


def unnamed_private(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level def or class that no
    code in any module names outside its own definition: a helper that only
    tests call, or one that only calls itself, is dead to the package."""
    defs: list[tuple[str, ast.AST]] = []
    counts: dict[str, int] = {}

    def names_in(node: ast.AST):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.ImportFrom):
                yield from (alias.name for alias in n.names)

    for module, source in sources.items():
        tree = ast.parse(source)
        defs += [
            (module, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        ]
        for name in names_in(tree):
            counts[name] = counts.get(name, 0) + 1
    return [
        f"{module}.{node.name}" for module, node in defs
        if counts.get(node.name, 0) == sum(n == node.name for n in names_in(node))
    ]


def test_no_private_helper_is_named_only_by_itself():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unnamed_private(sources) == []


def test_checker_flags_an_unnamed_private_helper():
    sources = {
        "a": "def _f(n): return _f(n - 1)\nclass _C:\n    def m(self): return _C()\n"
             "def _g(): pass\ndef _h(): pass\ndef k(): return _g()\n",
        "b": "from .a import _h\n",
    }
    assert unnamed_private(sources) == ["a._f", "a._C"]


def unused_exports(sources: dict[str, str]) -> list[str]:
    """Each name in ``__init__``'s ``__all__``, in order, that no other
    module loads: public API that nothing in the package runs. Importing a
    name is no load."""
    exported: list[str] = []
    loaded: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        if module == "__init__":
            for node in tree.body:
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                    exported = ast.literal_eval(node.value)
            continue
        loaded.update(
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        )
    return [name for name in exported if name not in loaded]


# occurrences_point is the point-semantics projection of the one evaluator:
# tests/test_acceptance.py calls it, and it costs no code of its own
KEPT_UNUSED_EXPORTS = ["occurrences_point", "__version__"]


def test_every_export_is_run_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_exports(sources) == KEPT_UNUSED_EXPORTS


def test_checker_flags_an_unused_export():
    sources = {
        "__init__": "from .a import f, g, h\n__all__ = ['f', 'g', 'h']\ng()\n",
        "a": "def f(): pass\ndef g(): return f()\ndef h(): pass\n",
        "b": "from .a import h\n",
    }
    assert unused_exports(sources) == ["g", "h"]
