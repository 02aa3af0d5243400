"""The package's error contract, read off its source: a raise site's type
is its CLI exit code.  ValueError is bad input (exit 2), ArithmeticError a
failed certificate (exit 1), and TypeError a programming error; the
package defines no exception class of its own."""

import ast
import builtins
import os

import lacunary

ALLOWED = {"ValueError", "ArithmeticError", "TypeError"}


def _modules():
    """(file name, AST) of every module of the package."""
    root = os.path.dirname(lacunary.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _name(node):
    """The last dotted name of a Name or Attribute node, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_exception(name) -> bool:
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return True
    return name.endswith(("Error", "Exception", "Warning"))


def test_no_exception_classes():
    found = [f"{file}:{node.lineno} {node.name}"
             for file, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and any(_is_exception(_name(b) or "") for b in node.bases)]
    assert found == []


def test_every_raise_names_an_exit_code_type():
    found = []
    for file, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in ALLOWED):
                found.append(f"{file}:{node.lineno} {ast.unparse(node.exc)}")
    assert found == []
