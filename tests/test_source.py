"""Checks on the library's source text."""

import ast
import inspect
import pathlib

import diagdom

SOURCE_DIR = pathlib.Path(diagdom.__file__).parent
TESTS_DIR = pathlib.Path(__file__).parent
HELPERS = ("reference.py", "matrices.py")  # imported by tests, not collected as tests


def test_no_assert_statements():
    # ``python -O`` strips ``assert``, so a check on input written as one
    # silently disappears; the library raises a ``ToolkitError`` instead.
    # pytest keeps asserts only in test modules, so the tests' own helpers
    # that the library is compared against raise explicitly too.
    paths = [*sorted(SOURCE_DIR.rglob("*.py")), *(TESTS_DIR / name for name in HELPERS)]
    found = [f"{path.parent.name}/{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert paths and not found, found


def test_no_function_cache_outside_the_memo():
    # ``core`` keeps each matrix's analysis in one bit-checked table; a
    # ``functools`` cache elsewhere would be a second memo beside it.
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name in ("cache", "lru_cache")]
    assert not found, found


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
