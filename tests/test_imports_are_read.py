"""Every name a module of the package imports is read in that module.

A deletion that leaves its import behind, such as the import of a check
whose only caller went, fails here.  `__init__.py` imports names only to
export them, so it is left out.  The check parses the source with `ast`
and needs nothing beyond the standard library.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasimod"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_the_package_has_modules_to_check():
    assert "cli.py" in MODULES and "gauges.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"), module)
    read = read_names(tree)
    unread = [(line, name) for line, name in imported_names(tree)
              if name not in read]
    assert not unread, f"{module} imports names it never reads: {unread}"
