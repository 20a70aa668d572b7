"""Checks on the library's source text."""

import ast
import inspect
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


def test_no_public_function_takes_a_partition():
    # Each public function partitions the matrix it is given.  A partition
    # passed in beside the matrix was never checked against it, so
    # is_sdd1(B, dominance_partition(A)) answered for A.  ClassReport's
    # ``partition`` field is a result, not an input, and is not a function.
    functions = {name: obj for name, obj in vars(diagdom).items()
                 if not name.startswith("_") and inspect.isfunction(obj)}
    found = [name for name, fn in functions.items()
             if "partition" in inspect.signature(fn).parameters]
    assert "is_sdd1" in functions and not found, found
