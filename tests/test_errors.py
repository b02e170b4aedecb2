"""One error family: everything the package raises on purpose is an
AutomatonError, and AutomatonError is a ValueError.

The scan reads the source rather than running it, so a raise on a path no
other test reaches is held to the rule as well."""

import ast
import inspect
from pathlib import Path

import autsg
from autsg import errors

SOURCES = sorted(Path(autsg.__file__).parent.glob("*.py"))
# wrong Python types, the internal check in turing._head_position, and exits
BUILTINS_ALLOWED = {"TypeError", "AssertionError", "SystemExit"}
ERRORS = {
    name
    for name, cls in vars(errors).items()
    if inspect.isclass(cls) and issubclass(cls, errors.AutomatonError)
}


def _raised_name(node: ast.Raise) -> str | None:
    """The class a raise statement names, or None for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    assert isinstance(exc, ast.Name), ast.dump(exc)
    return exc.id


def _raises():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                yield f"{path.name}:{node.lineno}", _raised_name(node)


def test_every_raise_names_a_package_error():
    found = list(_raises())
    assert len(found) > 50  # the scan sees the package's raises
    stray = [
        (where, name)
        for where, name in found
        if name is not None and name not in ERRORS | BUILTINS_ALLOWED
    ]
    assert stray == []


def test_every_exported_error_is_a_value_error():
    exported = [getattr(autsg, name) for name in autsg.__all__]
    classes = [c for c in exported if inspect.isclass(c) and issubclass(c, BaseException)]
    assert {cls.__name__ for cls in classes} == ERRORS
    for cls in classes:
        assert issubclass(cls, ValueError), cls
