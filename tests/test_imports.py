"""Every imported name is read by the module that imports it, no
function of the package imports again a module its file imports at the
top, and every name a package module exports has a reader outside tests.

Each ``.py`` under ``src/`` and ``tests/`` is parsed; a name bound by an
``import`` counts as read when it is loaded anywhere in the module or is
listed in the module's ``__all__``.  A name in the ``__all__`` of a module
under ``src/`` counts as read when code under ``src/`` loads it, imports
it or reads it as an attribute, outside the ``def`` or ``class`` that
defines it, or when code under ``bench/`` or ``tools/`` does; a string
in ``bench/spans.py``, such as "W2Space.product_vec", reads each of its
dotted parts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = [p for p in FILES if p.is_relative_to(ROOT / "src")]
OUTSIDE = sorted(p for d in ("bench", "tools") for p in (ROOT / d).rglob("*.py"))


def _is_all(node):
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def _exports(tree):
    """The names in the module's __all__."""
    return [name for node in tree.body if _is_all(node)
            for name in ast.literal_eval(node.value)]


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
    read |= set(_exports(tree))
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


def _reads(node, strings=False):
    """The names node loads, imports or reads as attributes; with strings,
    also each dotted part of every string constant."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def unread_exports(src, outside, strings=()):
    """(module, name) for each exported name of src, a {module: tree} map,
    that nothing reads: neither src outside the top-level def or class of
    that name, nor the trees of outside, nor those of strings, whose
    string constants count as reads too."""
    read = set()
    for tree in outside:
        read |= _reads(tree)
    for tree in strings:
        read |= _reads(tree, strings=True)
    for tree in src.values():
        for node in tree.body:
            if not _is_all(node):
                own = getattr(node, "name", None)
                read |= {name for name in _reads(node) if name != own}
    return sorted((mod, name) for mod, tree in src.items()
                  for name in _exports(tree) if name not in read)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_export_is_read_outside_tests():
    unread = ["%s.%s is exported but read only by tests, if at all" % item
              for item in unread_exports(
                  {p.stem: _parse(p) for p in SRC},
                  [_parse(p) for p in OUTSIDE if p.name != "spans.py"],
                  [_parse(p) for p in OUTSIDE if p.name == "spans.py"])]
    assert not unread, "\n".join(unread)


def test_an_unread_export_is_named():
    src = {"a": ast.parse("__all__ = ['f', 'g', 'h', 'k', 'C']\n"
                          "def f(n):\n    return f(n - 1) if n else g()\n"
                          "def g():\n    return 0\n"
                          "def h():\n    return 1\n"
                          "def k():\n    return 2\n"
                          "class C:\n    pass\n"),
           "b": ast.parse("from .a import h\nimport a\nprint(h(), a.k)\n")}
    strings = [ast.parse("SPANS = [('a', 'C.method')]\n")]
    # f reads itself only inside its own def; g is read by f
    assert unread_exports(src, [], strings) == [("a", "f")]
    assert unread_exports(src, [], []) == [("a", "C"), ("a", "f")]
    assert unread_exports(src, [ast.parse("import a\na.f(1)\n")], []) == [("a", "C")]
