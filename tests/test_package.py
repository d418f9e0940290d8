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


def test_named_tuples_keep_the_tuple_dunders():
    # a record is a plain named tuple: equality, hashing and repr read every
    # field, so none of them is overridden (Design, Permutation and PermGroup
    # are plain classes and may define their own). A subclass of a named
    # tuple, as DesignParams of _DesignParams, is a named tuple too.
    package = Path(biplane.__file__).parent
    found, overrides = set(), []
    for path in sorted(package.glob("*.py")):
        records = {"NamedTuple"}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id in records for base in node.bases):
                records.add(node.name)
                overrides += [f"{path.name}:{node.name}.{m.name}" for m in node.body
                              if isinstance(m, ast.FunctionDef)
                              and m.name in ("__eq__", "__ne__", "__hash__", "__repr__")]
        found |= records
    assert {"CertResult", "CatalogEntry", "DesignParams", "CycleType"} <= found
    assert overrides == []


def _defined_names(tree) -> list[str]:
    """The module-level functions, classes and assignments of a module, and
    the methods of its classes, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_name_in_the_package_has_a_caller():
    # a name that neither the package, a demo nor the benchmark loads, as a
    # name, an attribute or an import, is API surface that nothing calls
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in sorted(p for d in ("src", "demos", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    unused = [f"{path.name}:{name}" for path in sorted((root / "src" / "biplane").glob("*.py"))
              for name in _defined_names(ast.parse(path.read_text())) if name not in used]
    assert unused == []
