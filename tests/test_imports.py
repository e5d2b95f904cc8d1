"""Every imported name is read by the module that imports it.

Each ``.py`` under ``src/`` and ``tests/`` is parsed; a name bound by an
``import`` counts as read when it is loaded anywhere in the module or is
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


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
