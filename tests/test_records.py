"""The package's records are named tuples, and Design a plain class: their
reprs, read-only fields, input checks and equality are pinned here."""

import pytest

from biplane import catalog
from biplane.aut import CanonicalCertificate, SearchStats, automorphism_group, isomorphism
from biplane.cartdecomp import (CartesianDecomposition, pell_solutions, psp4_degree_excluded,
                                verify_cartesian)
from biplane.design import Design, DesignParams, VerifyReport, verify_symmetric_design
from biplane.diffset import DifferenceSet, cyclic, difference_set_search
from biplane.errors import InputError
from biplane.fixcert import CertResult, Check, Classification79, FixReport, fix_report
from biplane.perm import Permutation, cycle_type


def _records() -> dict:
    """One instance of each record type, by type name."""
    fano = catalog.build("fano_complement")
    aut = automorphism_group(fano)
    cd = CartesianDecomposition(catalog.CART16_PARTITIONS)
    broken = Design(DesignParams(3, 2, 1), [(1, 2), (1, 3)])
    return {
        "CanonicalCertificate": CanonicalCertificate.from_blocks([(1, 2), (1, 3)]),
        "SearchStats": aut.stats,
        "AutResult": aut,
        "IsoResult": isomorphism(fano, fano),
        "CartesianDecomposition": cd,
        "CartesianReport": verify_cartesian(cd, 16),
        "PellSolution": pell_solutions(2)[2],
        "Psp4Report": psp4_degree_excluded(4),
        "CatalogEntry": catalog.entry("hadamard11"),
        "DesignParams": DesignParams(7, 4, 2),
        "Design": fano,
        "VerifyReport": verify_symmetric_design(broken),
        "GroupTable": cyclic(3),
        "DifferenceSet": DifferenceSet(cyclic(7), (3, 1, 0), 1),
        "DiffsetSearchStats": difference_set_search(cyclic(7), 3, 1)[1],
        "Check": Check("bound", "pass", "f=1"),
        "CertResult": CertResult((Check("orbit-ratio-identity", "n/a", "f = 0 or identity"),
                                  Check("conjugate-count-block-bound", "n/a",
                                        "f = 0 or identity"))),
        "FixReport": fix_report(fano, aut.group.generators[0]),
        "Classification79": Classification79(3, True, (), True, "a note"),
        "CycleType": cycle_type(Permutation.from_cycles("(1,2)(3,4,5)", 7)),
    }


# repr of each instance of _records, as the package printed it when the
# records were frozen dataclasses
REPRS = {'CanonicalCertificate': 'CanonicalCertificate(blocks=((1, 2), (1, 3)), '
                                 "digest='dd43f7d2117fc74a1ab6297c9c2b5058"
                                 "b44fdf80b9fb96a19bcba9a058d51d50')",
         'SearchStats': 'SearchStats(nodes=13, leaves=6, automorphisms=5)',
         'AutResult': 'AutResult(group=PermGroup(degree=7, ngens=5), order=168, '
                      'stats=SearchStats(nodes=13, leaves=6, automorphisms=5))',
         'IsoResult': "IsoResult(mapping=Permutation('()', degree=7), "
                      'stats=(SearchStats(nodes=13, leaves=6, automorphisms=5), '
                      'SearchStats(nodes=13, leaves=6, automorphisms=5)))',
         'CartesianDecomposition': 'CartesianDecomposition(partitions=((frozenset({8, 1, 10, '
                                   '15}), frozenset({16, 9, 2, 7}), frozenset({3, 12, 13, 6}), '
                                   'frozenset({11, 4, 5, 14})), (frozenset({1, 12, 14, 7}), '
                                   'frozenset({8, 2, 11, 13}), frozenset({16, 10, 3, 5}), '
                                   'frozenset({9, 4, 6, 15}))))',
         'CartesianReport': 'CartesianReport(ok=True, homogeneous=True, d=2, part_counts=(4, 4), '
                            'violations=())',
         'PellSolution': 'PellSolution(n=1, family=1, x=4, y=11, u=3, v=1)',
         'Psp4Report': 'Psp4Report(q=4, c=120, pell_value=115193, pell_value_is_square=False, '
                       "c_mod_3=0, small_branches={6: {'k': 9, 'v': 37, 'forbidden_degree': 36, "
                       "'excluded': True}, 12: {'k': 17, 'v': 137, 'forbidden_degree': 144, "
                       "'excluded': True}}, excluded=True)",
         'CatalogEntry': "CatalogEntry(name='hadamard11', params=DesignParams(v=11, k=5, lam=2), "
                         "examples_for_params='1', expected={'aut_order': 660, 'transitive': "
                         "True, 'flag_transitive': True, 'primitive': True})",
         'DesignParams': 'DesignParams(v=7, k=4, lam=2)',
         'Design': 'Design(params=DesignParams(v=7, k=4, lam=2), blocks=((1, 2, 4, 7), (1, 2, 5, '
                   '6), (1, 3, 4, 6), (1, 3, 5, 7), (2, 3, 4, 5), (2, 3, 6, 7), (4, 5, 6, 7)))',
         'VerifyReport': "VerifyReport(ok=False, violations=(('block-count', None, 2, 3), "
                         "('pair-count', (2, 3), 0, 1)), counts={'block-count': 1, 'pair-count': "
                         '1})',
         'GroupTable': "GroupTable(name='cyclic(3)', mul=((0, 1, 2), (1, 2, 0), (2, 0, 1)), "
                       'inv=(0, 2, 1))',
         'DifferenceSet': "DifferenceSet(group=GroupTable(name='cyclic(7)', mul=((0, 1, 2, 3, 4, "
                          '5, 6), (1, 2, 3, 4, 5, 6, 0), (2, 3, 4, 5, 6, 0, 1), (3, 4, 5, 6, 0, '
                          '1, 2), (4, 5, 6, 0, 1, 2, 3), (5, 6, 0, 1, 2, 3, 4), (6, 0, 1, 2, 3, '
                          '4, 5)), inv=(0, 6, 5, 4, 3, 2, 1)), elements=(0, 1, 3), lam=1)',
         'DiffsetSearchStats': 'DiffsetSearchStats(nodes=3, hits=2)',
         'Check': "Check(name='bound', status='pass', detail='f=1')",
         'CertResult': "CertResult(checks=(Check(name='orbit-ratio-identity', status='n/a', "
                       "detail='f = 0 or identity'), Check(name='conjugate-count-block-bound', "
                       "status='n/a', detail='f = 0 or identity')), report=None)",
         'FixReport': 'FixReport(f_points=3, f_blocks=3, fixed_points=(1, 2, 3), '
                      'fixed_blocks=(4, 5, 6), s_point={1: 0, 2: 2, 3: 2}, r_point={1: 2, 2: 1, '
                      '3: 1}, s_block={4: 2, 5: 2, 6: 0}, r_block={4: 1, 5: 1, 6: 2})',
         'Classification79': 'Classification79(order=3, order_allowed=True, '
                             "three_element_checks=(), consistent=True, note='a note')",
         'CycleType': 'CycleType(counts=((1, 2), (2, 1), (3, 1)))'}


def test_reprs_pinned():
    records = _records()
    assert {name: type(r).__name__ for name, r in records.items()} == {n: n for n in records}
    assert {name: repr(r) for name, r in records.items()} == REPRS


@pytest.mark.parametrize("name", list(REPRS))
def test_fields_are_read_only(name):
    record = _records()[name]
    field = "params" if name == "Design" else type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)


def test_input_errors_kept():
    with pytest.raises(InputError) as exc:
        DesignParams(0, 6, 2)
    assert str(exc.value) == "parameters must be positive: DesignParams(v=0, k=6, lam=2)"
    with pytest.raises(InputError) as exc:
        DifferenceSet(cyclic(7), (0, 1, 3, 3), 1)
    assert str(exc.value) == "difference-set element(s) repeated: [3]"


def test_no_shared_mutable_defaults():
    a, b = VerifyReport(ok=True), VerifyReport(ok=True)
    assert a.counts == b.counts == {} and a.counts is not b.counts
    assert FixReport._field_defaults == {}
    assert catalog.CatalogEntry._field_defaults == {}
    entries = catalog.list_known()
    assert len({id(e.expected) for e in entries}) == len(entries)


def test_equality():
    # named tuples unpack and equal plain tuples of the same values
    v, k, lam = DesignParams(7, 4, 2)
    assert (v, k, lam) == DesignParams(7, 4, 2) == (7, 4, 2)
    assert SearchStats(1, 2, 3) == (1, 2, 3)
    # Design compares and hashes by (params, blocks), and only with a Design
    fano = catalog.build("fano_complement")
    copy = Design(fano.params, reversed(fano.blocks))
    assert copy != fano and hash(copy) != hash(fano)
    same = Design(fano.params, fano.blocks)
    assert same == fano and hash(same) == hash(fano) and same is not fano
    assert fano != (fano.params, fano.blocks)
    # CertResult and CatalogEntry compare and hash as plain tuples of all
    # their fields: the report takes part, and its dicts make it unhashable
    checks = (Check("a", "pass"),)
    report = _records()["FixReport"]
    assert CertResult(checks, report) == (checks, report) != CertResult(checks)
    assert CertResult(checks) == (checks, None) != CertResult((Check("a", "fail"),))
    assert hash(CertResult(checks)) == hash((checks, None))
    with pytest.raises(TypeError, match="unhashable"):
        hash(CertResult(checks, report))
    e = catalog.entry("hadamard11")
    assert e == tuple(e) == ("hadamard11", DesignParams(11, 5, 2), "1", e.expected)
    assert e != e._replace(expected={})
