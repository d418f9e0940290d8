import ast
import importlib
from pathlib import Path

import pytest

import biplane


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        biplane.no_such_name
    assert not hasattr(biplane, "no_such_name")


def test_from_import_binds_the_submodules():
    namespace = {}
    exec("from biplane import catalog, diffset, fixcert", namespace)
    for name in ("catalog", "diffset", "fixcert"):
        assert namespace[name] is importlib.import_module(f"biplane.{name}")


def test_no_bare_assert_in_the_package():
    # python -O drops assert statements; every internal invariant raises a
    # named AssertionError instead, which the CLI reports with exit 3
    package = Path(biplane.__file__).parent
    bare = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert bare == []


def test_no_module_imports_dataclasses():
    # the records are named tuples: importing dataclasses also loads inspect,
    # ast, dis and tokenize, several milliseconds of every CLI call
    package = Path(biplane.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n and n.split(".")[0] == "dataclasses"]
    assert found == []


def test_internal_invariants_fail_by_name():
    from biplane.cartdecomp import PellSolution
    from biplane.design import VerifyReport
    with pytest.raises(AssertionError, match="verify report: ok disagrees"):
        VerifyReport(ok=False)
    with pytest.raises(AssertionError, match="Pell solution: 8x"):
        PellSolution(n=1, family=0, x=2, y=1, u=3, v=1)
    with pytest.raises(AssertionError, match="Pell solution: u"):
        PellSolution(n=1, family=0, x=1, y=1, u=2, v=1)
