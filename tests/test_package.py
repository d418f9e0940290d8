import importlib

import pytest

import biplane

def test_every_exported_name_resolves_to_its_definition():
    assert len(set(biplane.__all__)) == len(biplane.__all__)
    for name in biplane.__all__:
        value = getattr(biplane, name)
        if name == "catalog":
            assert value is importlib.import_module("biplane.catalog")
        else:
            assert value.__module__.startswith("biplane."), name
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_all():
    namespace = {}
    exec("from biplane import *", namespace)
    assert set(biplane.__all__) <= set(namespace)
    assert namespace["automorphism_group"] is importlib.import_module(
        "biplane.aut").automorphism_group


def test_dir_lists_all():
    assert set(biplane.__all__) <= set(dir(biplane))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        biplane.no_such_name
    assert not hasattr(biplane, "no_such_name")
