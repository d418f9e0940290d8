import json

import pytest

from biplane import catalog, cli, diffset
from biplane.catalog import flag_orbit_count, primitive16_group
from biplane.design import verify_symmetric_design
from biplane.errors import InputError
from biplane.perm import Permutation, PermGroup, orbit
from oracles import inverse

DEVELOPED = ("hadamard11", "biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2",
             "biplane37_qr")

TABLE_PARAMS = {
    "fano_complement": (7, 4, 2),
    "hadamard11": (11, 5, 2),
    "biplane16_primitive": (16, 6, 2),
    "biplane16_c2c8": (16, 6, 2),
    "biplane16_q8c2": (16, 6, 2),
    "biplane37_qr": (37, 9, 2),
    "biplane56": (56, 11, 2),
    "biplane79": (79, 13, 2),
    "biplane121": (121, 16, 2),
}


def test_list_known_covers_all_parameter_rows():
    entries = catalog.list_known()
    assert len(entries) == 9
    for e in entries:
        assert e.params.as_tuple() == TABLE_PARAMS[e.name]
    by_name = {e.name: e for e in entries}
    assert by_name["biplane16_primitive"].examples_for_params == "3"
    assert by_name["biplane79"].examples_for_params == ">=2"
    assert not by_name["biplane79"].constructible
    assert by_name["biplane121"].examples_for_params == "unknown"


def test_every_constructible_entry_verifies():
    for name in catalog.constructible_names():
        d = catalog.build(name)
        assert verify_symmetric_design(d).ok
        assert d.params == catalog.entry(name).params


def test_metadata_only_entries_refuse_to_build():
    for name in ("biplane56", "biplane79", "biplane121"):
        with pytest.raises(InputError):
            catalog.build(name)
    with pytest.raises(InputError):
        catalog.build("not_a_design")


def test_primitive16_block_orbit_properties():
    d = catalog.build("biplane16_primitive")
    g = primitive16_group()
    assert len(d.blocks) == 16
    assert g.order() == 1152
    assert flag_orbit_count(d, g) == 1  # flag-transitive
    assert sum(len(b) for b in d.blocks) == 96  # flag count
    # block stabilizer order from orbit-stabilizer on the block orbit
    base = frozenset(catalog.BASE_BLOCK_16)
    stab = sum(1 for x in g.elements() if x.apply_set(base) == base)
    assert stab == 72


def test_primitive16_subgroup_index(aut_results):
    full = aut_results["biplane16_primitive"]
    g = primitive16_group()
    assert full.order == 11520
    assert full.order // g.order() == 10
    assert all(x in full.group for x in g.generators)


def test_transitivity_and_primitivity_metadata(aut_results):
    for name in catalog.constructible_names():
        e = catalog.entry(name)
        group = aut_results[name].group
        assert group.is_transitive() == e.expected["transitive"], name
        assert group.is_primitive() == e.expected["primitive"], name


def test_flag_transitivity_metadata(aut_results):
    for name in catalog.constructible_names():
        e = catalog.entry(name)
        d = catalog.build(name)
        ft = flag_orbit_count(d, aut_results[name].group) == 1
        assert ft == e.expected["flag_transitive"], name


def test_q8c2_not_flag_transitive(aut_results):
    d = catalog.build("biplane16_q8c2")
    assert flag_orbit_count(d, aut_results["biplane16_q8c2"].group) > 1


def test_c2c8_point_stabilizer_order(aut_results):
    group = aut_results["biplane16_c2c8"].group
    assert group.stabilizer(1).order() == 48


def test_expected_aut_orders(aut_results):
    for name in catalog.constructible_names():
        expected = catalog.entry(name).expected.get("aut_order")
        if expected is not None:
            assert aut_results[name].order == expected, name


def test_coordinate_factor_block_stabilizer():
    # the subgroup moving only first coordinates of the 4x4 grid is one
    # wreath factor (order 24); it stabilizes each block in a subgroup of
    # order 6, which is what the entry's metadata records
    g = primitive16_group()
    second = [frozenset(p) for p in catalog.CART16_PARTITIONS[1]]
    factor = [x for x in g.elements()
              if all(x.apply_set(p) == p for p in second)]
    assert len(factor) == 24
    base = frozenset(catalog.BASE_BLOCK_16)
    stab = sum(1 for x in factor if x.apply_set(base) == base)
    expected = catalog.entry("biplane16_primitive").expected
    assert stab == expected["coordinate_factor_block_stabilizer_order"] == 6


def test_biplane37_blocks_are_fourth_power_translates():
    d = catalog.build("biplane37_qr")
    fourth_powers = {pow(x, 4, 37) for x in range(1, 37)}
    assert len(fourth_powers) == 9
    assert frozenset(e + 1 for e in fourth_powers) in d.block_index.keys()


def test_flag_orbit_count_rejects_non_automorphism():
    d = catalog.build("fano_complement")
    with pytest.raises(InputError, match="not an automorphism"):
        flag_orbit_count(d, PermGroup.from_cycles(7, ["(1,2)"]))


def _difference_set(name):
    """The (tag, elements) of a catalog row built as a development."""
    tag, elements = catalog._BUILDERS[name].args
    return tag, tuple(sorted(elements))


def test_build_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("catalog.build ran a difference-set search")

    monkeypatch.setattr(diffset, "search_difference_sets", refuse)
    monkeypatch.setattr(diffset, "difference_set_search", refuse)
    catalog.build.cache_clear()
    try:
        for name in catalog.constructible_names():
            assert catalog.build(name).params == catalog.entry(name).params
    finally:
        catalog.build.cache_clear()


@pytest.mark.parametrize("name", ["biplane16_c2c8", "biplane16_q8c2"])
def test_stored_sets_are_least_search_classes(name):
    tag, elements = _difference_set(name)
    found = diffset.search_difference_sets(diffset.from_tag(tag), 6, 2)
    assert found[0].elements == elements


def test_primitive16_block_orbit_is_the_block_set():
    gens = primitive16_group().generators
    block_orbit = orbit(frozenset(catalog.BASE_BLOCK_16), gens, Permutation.apply_set)
    d = catalog.build("biplane16_primitive")
    assert tuple(sorted(tuple(sorted(b)) for b in block_orbit)) == d.blocks


def test_e16_translations_are_affine_type(aut_results):
    # x -> x XOR t on the 0-based labels, t = 1, 2, 4, 8
    translations = [Permutation(((x - 1) ^ t) + 1 for x in range(1, 17)) for t in (1, 2, 4, 8)]
    subgroup = PermGroup(16, translations)
    assert subgroup.order() == 16 and subgroup.is_transitive()  # regular
    for group in (primitive16_group(), aut_results["biplane16_primitive"].group):
        assert all(t in group for t in translations)
        assert all(inverse(g) * t * g in subgroup
                   for g in group.generators for t in translations)


@pytest.mark.parametrize("name", DEVELOPED)
def test_ds_develop_matches_catalog_build(name, capsys):
    tag, elements = _difference_set(name)
    assert cli.run(["ds", "develop", "--group", tag,
                    "--set", ",".join(map(str, elements)), "--json"]) == 0
    developed = json.loads(capsys.readouterr().out)
    assert cli.run(["catalog", "build", name, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == developed
