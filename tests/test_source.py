"""Checks on the library's source text."""

import ast
import pathlib

import diagdom

SOURCE_DIR = pathlib.Path(diagdom.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips ``assert``, so a check on input written as one
    # silently disappears; the library raises a ``ToolkitError`` instead.
    paths = sorted(SOURCE_DIR.rglob("*.py"))
    found = [f"{path.relative_to(SOURCE_DIR)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert paths and not found, found
