"""Every imported name is read by the module that imports it, and no
function of the package imports again a module its file imports at the top.

Each ``.py`` under ``src/`` and ``tests/`` is parsed; a name bound by an
``import`` counts as read when it is loaded anywhere in the module or is
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = [p for p in FILES if p.is_relative_to(ROOT / "src")]


def unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = ["%s:%d imports %s, which it never reads"
              % (path.relative_to(ROOT), line, name)
              for line, name in unused_imports(tree)]
    assert not unused, "\n".join(unused)


def test_an_unread_import_is_named():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "__all__ = ['lcm']\nprint(os.sep)\n")
    assert unused_imports(tree) == [(2, "gcd")]


def _modules(node):
    """The modules an import statement names, each as (level, dotted name)."""
    if isinstance(node, ast.Import):
        return {(0, alias.name) for alias in node.names}
    if node.module is None:     # from . import module
        return {(node.level, alias.name) for alias in node.names}
    return {(node.level, node.module)}


def reimports(tree):
    """Lines of the imports below the top level of a module naming a module
    that one of its top-level imports names too."""
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    top = set().union(*[_modules(n) for n in imports if n in tree.body])
    return sorted(n.lineno for n in imports if n not in tree.body and _modules(n) & top)


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_imports_a_module_again(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    again = ["%s:%d imports again a module imported at the top"
             % (path.relative_to(ROOT), line) for line in reimports(tree)]
    assert not again, "\n".join(again)


def test_a_reimport_is_named():
    tree = ast.parse("from . import a\nfrom .b import c\nimport os\n"
                     "def f():\n    from .a import x\n    from .d import y\n"
                     "    from . import b\n    import os.path\n")
    assert reimports(tree) == [5, 7]
