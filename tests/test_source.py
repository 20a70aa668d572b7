"""Checks on the library's source text and on its package namespace."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import diagdom

SOURCE_DIR = pathlib.Path(diagdom.__file__).parent
TESTS_DIR = pathlib.Path(__file__).parent
BENCH_DIR = TESTS_DIR.parent / "bench"
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


LU_KERNEL_NAMES = ("_stack_pivots", "_factorize", "_eliminate", "LU_BLOCK")


def test_lu_kernels_are_chosen_only_in_the_oracle():
    # ``oracle._factor_stack`` picks the LU kernel for a stack of matrices and
    # ``lu_factor`` for one; a module that names a kernel or its block width
    # would be a second place where that choice is made.
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            # A bare name, an attribute, or an imported or defined name.
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name in LU_KERNEL_NAMES:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, found


def test_only_core_takes_the_memo_lock():
    # ``core._keep`` is the one install of a result under ``core._LOCK``, and every
    # result is built before it; a module that names the lock or imports ``threading``
    # could hold a lock around a build, or keep results by a second rule.
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None), *(alias.name for alias in node.names)]
            else:  # a bare name or an attribute
                names = [getattr(node, "id", getattr(node, "attr", None))]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("_LOCK", "threading")]
    assert not found, found


def test_schur_results_are_read_only_through_their_public_fields():
    # A ``SchurResult``'s private fields and properties are how ``schur`` builds it;
    # another module that reads one depends on how a sweep makes its results.
    private = {name for name in (*vars(diagdom.SchurResult),
                                 *(f.name for f in dataclasses.fields(diagdom.SchurResult)))
               if name.startswith("_") and not name.startswith("__")}
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        if path.name == "schur.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert "_delta" in private and not found, found


def test_s_equal_to_n2_is_told_apart_only_in_restricted_sums():
    # ``classify._restricted_sums`` hands out the partition's own R^{n2} and P
    # for S = n2.  Another function that compares a row set with n2 could
    # pick other sums for it, and then S-SDD1 with S = n2 and SDD1 part.
    found = set()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Compare)
                        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                        and any(getattr(side, "attr", None) == "n2"
                                for side in (node.left, *node.comparators))):
                    found.add((path.name, fn.name))
    assert found == {("classify.py", "_restricted_sums")}, found


def test_only_certified_maps_a_schur_regime_to_its_margins():
    # ``schur._certified`` picks the margin formula of each regime of alpha; a
    # ``certified_bound_*`` function that called a formula itself would be a
    # second table, free to drift from the margins a sweep attaches.
    path = SOURCE_DIR / "schur.py"
    found = {fn.name
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if getattr(node, "id", None) in ("_proper_subset_margins", "_eliminated_margins")}
    assert found == {"_certified"}, found


def test_no_public_function_takes_a_partition():
    # Each public function partitions the matrix it is given.  A partition
    # passed in beside the matrix was never checked against it, so
    # is_sdd1(B, dominance_partition(A)) answered for A.  ClassReport's
    # ``partition`` field is a result, not an input, and is not a function.
    functions = {name: obj for name, obj in ((n, getattr(diagdom, n)) for n in diagdom.__all__)
                 if inspect.isfunction(obj)}
    found = [name for name, fn in functions.items()
             if "partition" in inspect.signature(fn).parameters]
    assert "is_sdd1" in functions and not found, found


# Run in a fresh interpreter, where no public name but ``classify`` is loaded yet.
LAZY_EXPORTS_SCRIPT = textwrap.dedent("""
    import sys

    import diagdom.cli
    import diagdom.classify

    # The submodule import did not rebind the package's ``classify``.
    assert diagdom.classify is sys.modules["diagdom.classify"].classify, diagdom.classify
    early = [name for name in diagdom.__all__ if name in vars(diagdom)]
    assert early == ["classify"], early
    assert set(diagdom.__all__) <= set(dir(diagdom)), "dir() misses an export"
    assert "__all__" in dir(diagdom)
    try:
        diagdom.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError("an unknown name resolved")

    exports = {name: getattr(diagdom, name) for name in diagdom.__all__}
    for name, obj in exports.items():
        if isinstance(obj, str):  # a formula id: the one module that lists it in __all__
            (home,) = [module for key, module in sys.modules.items()
                       if key.startswith("diagdom.") and name in getattr(module, "__all__", ())]
        else:  # a class or function: the module that defines it
            home = sys.modules[obj.__module__]
        assert home.__name__.startswith("diagdom.") and obj is getattr(home, name), name
        assert vars(diagdom)[name] is obj, name  # kept after its first access
""")


def test_exports_load_lazily_and_are_their_modules_objects():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SOURCE_DIR.parent), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", LAZY_EXPORTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_name_the_benchmark_imports_exists():
    # The benchmark under ``bench/`` changes only with its own baselines, and
    # pytest collects ``tests/`` alone; a library name it reads that goes away
    # would first show as an ImportError in every benchmark run.
    found, missing = [], []
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diagdom":
                module = importlib.import_module(node.module)
                refs = [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "diagdom":
                refs = [(diagdom, node.attr)]
            else:
                continue
            for module, name in refs:
                found.append(name)
                if not (hasattr(module, name)
                        or importlib.util.find_spec(f"{module.__name__}.{name}") is not None):
                    missing.append(f"{path.name}:{node.lineno} {module.__name__}.{name}")
    assert {"cli", "read_matrix_market"} <= set(found) and not missing, missing
