import importlib

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
