"""Checks on the package source itself."""

import ast
import pathlib

import weylmod

PACKAGE = pathlib.Path(weylmod.__file__).resolve().parent


def _assert_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_assert_in_package():
    # python -O strips assert statements, so an engine invariant raises
    # InternalInvariant, which run() reports with exit 1
    found = ["%s:%d" % (path.relative_to(PACKAGE), line)
             for path in sorted(PACKAGE.rglob("*.py"))
             for line in _assert_lines(ast.parse(path.read_text()))]
    assert not found
