"""Every name the package exports is read by the program itself.

A name exported from ``coexcap/__init__.py`` needs at least one reference
in the package's other modules, ``scripts/`` or ``perfbench/`` (test files
excluded). Imports and the name's own ``def``/``class``/assignment do not
count, so a function that only the test suite calls shows up here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coexcap"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        files += [p for p in (ROOT / folder).glob("*.py")
                  if not p.name.startswith("test_")]
    return sorted(files)


def referenced_names():
    """Names read as a variable or an attribute anywhere in the program."""
    seen = set()
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_every_export_has_a_program_reference():
    assert program_files()
    unread = sorted(exported_names() - referenced_names())
    assert unread == [], f"exported but read only by tests: {unread}"
