"""Every name the package exports or defines publicly is read by the program.

A name exported from ``coexcap/__init__.py``, and every module-level
``def`` or ``class`` in ``src/coexcap/*.py`` whose name has no leading
underscore, needs at least one reference in the package's modules
(``__init__.py`` excluded), ``scripts/`` or ``perfbench/`` (test files
excluded). Imports and the name's own ``def``/``class``/assignment do not
count, so a function that only the test suite calls shows up here.
No test module imports a leading-underscore name from the package.
Every ``raise`` in a ``__post_init__`` names a ``CoexcapError`` subclass.
"""

import ast
from pathlib import Path

from coexcap import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coexcap"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def public_definitions():
    """(module, name) of every public module-level def and class."""
    return {(path.name, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


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


def test_every_public_definition_has_a_program_reference():
    definitions = public_definitions()
    assert definitions
    seen = referenced_names()
    unread = sorted(f"{module}:{name}" for module, name in definitions
                    if name not in seen)
    assert unread == [], f"defined but read only by tests: {unread}"


def test_no_test_imports_a_private_name():
    # a test reads the package through its public names; a private one
    # would pin the code's inner layout instead of its behaviour
    tests = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("test_*.py")])
    assert tests
    private = sorted(f"{path.name}: {node.module}.{alias.name}"
                     for path in tests
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "coexcap"
                     for alias in node.names if alias.name.startswith("_"))
    assert private == [], f"tests import private names: {private}"


def raised_in_post_init():
    """(place, exception class name) of every ``raise`` inside a
    ``__post_init__`` of the package."""
    return [(f"{path.name}:{node.lineno}", exc.id if isinstance(exc, ast.Name) else None)
            for path in sorted(PACKAGE.glob("*.py"))
            for method in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
            for node in ast.walk(method) if isinstance(node, ast.Raise)
            for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]]


def test_value_types_refuse_with_a_package_error():
    # a value type's refusal is a CoexcapError, so a library caller and
    # the CLI's one handler catch it like every other bad input
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.CoexcapError)}
    raised = raised_in_post_init()
    assert raised
    untyped = [f"{place} raises {name}" for place, name in raised if name not in typed]
    assert untyped == [], f"__post_init__ refusals outside CoexcapError: {untyped}"
