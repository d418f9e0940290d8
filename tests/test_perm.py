import math
import random

import pytest

from biplane import perm
from biplane.catalog import PRIMITIVE16_GENERATORS
from biplane.errors import InputError, ScaleError
from biplane.perm import (CycleType, PermGroup, Permutation, cycle_type,
                          group_from_json_dict, group_to_json_dict, orbit)
from oracles import closure, reference_cycle_type, reference_cycles

ALPHA = PRIMITIVE16_GENERATORS  # the five 16-point generators used throughout


def test_parser_roundtrip():
    x = Permutation.from_cycles("(2,4,3)(5,13,9)", 16)
    assert x(2) == 4 and x(4) == 3 and x(3) == 2 and x(5) == 13
    assert x(1) == 1
    assert Permutation.from_cycles(x.cycle_string(), 16) == x
    assert Permutation.from_cycles("()", 5).is_identity()
    assert Permutation.from_cycles("", 5).is_identity()


def test_parser_rejects_bad_input():
    with pytest.raises(InputError):
        Permutation.from_cycles("(1,2)(2,3)", 5)  # not disjoint
    with pytest.raises(InputError):
        Permutation.from_cycles("(1,9)", 5)  # out of range
    with pytest.raises(InputError):
        Permutation.from_cycles("(1 2 junk)", 5)


def test_composition_convention():
    a = Permutation.from_cycles("(1,2)", 3)
    b = Permutation.from_cycles("(2,3)", 3)
    assert (a * b)(3) == a(b(3)) == 1
    assert (a * a).is_identity()
    assert a.inverse() == a
    with pytest.raises(InputError):
        a * Permutation.identity(4)


def test_cycle_type_examples():
    a1 = Permutation.from_cycles(ALPHA[0], 16)
    a5 = Permutation.from_cycles(ALPHA[4], 16)
    assert cycle_type(a5).as_dict() == {2: 8}
    assert cycle_type(a1).as_dict() == {1: 1, 3: 5}
    ident = Permutation.identity(121)
    assert cycle_type(ident).as_dict() == {1: 121}
    assert cycle_type(a1).order == a1.order() == 3
    assert CycleType.from_dict({1: 2, 4: 3, 6: 1}).order == 12
    assert cycle_type(ident).order == 1


def test_cycle_type_conjugation_invariant():
    rng = random.Random(7)
    a1 = Permutation.from_cycles(ALPHA[0], 16)
    for _ in range(25):
        images = list(range(1, 17))
        rng.shuffle(images)
        g = Permutation(images)
        assert cycle_type(g * a1 * g.inverse()) == cycle_type(a1)


def test_cycle_type_power():
    t = CycleType.from_dict({1: 1, 4: 2, 8: 14})
    assert t.power(2).as_dict() == {1: 1, 2: 4, 4: 28}
    assert t.degree == 121


def test_cycle_walker_matches_reference_walk():
    rng = random.Random(23)
    perms = [Permutation.identity(1), Permutation.identity(9)]
    for n in (1, 2, 3, 5, 8, 16, 37, 60):
        for _ in range(20):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
    # the walker's two paths alone: all fixed points (the identity), or none,
    # as in a fixed-point-free involution or a single n-cycle
    for n in range(1, 61):
        points = list(range(1, n + 1))
        rng.shuffle(points)
        cycle = [0] * n
        for a, b in zip(points, points[1:] + points[:1]):
            cycle[a - 1] = b
        perms += [Permutation.identity(n), Permutation([*range(2, n + 1), 1]), Permutation(cycle)]
        if n % 2 == 0:
            involution = [0] * n
            for a, b in zip(points[::2], points[1::2]):
                involution[a - 1], involution[b - 1] = b, a
            perms.append(Permutation(involution))
    for x in perms:
        ref = reference_cycles(x)
        assert cycle_type(x) == reference_cycle_type(x)
        assert x.cycles() == [c for c in ref if len(c) > 1]
        assert list(perm._cycles(x.images, 1)) == ref
        zero_based = tuple(p - 1 for p in x.images)
        assert list(perm._cycles(zero_based, 0)) == [tuple(p - 1 for p in c) for c in ref]


def test_group_order_example16():
    g = PermGroup.from_cycles(16, ALPHA)
    assert g.order() == 1152
    assert PermGroup(5, []).order() == 1
    assert PermGroup.from_cycles(11, ["(1,2,3,4,5,6,7,8,9,10,11)"]).order() == 11


BRUTE_GROUPS = [
    (4, ["(1,2)", "(1,2,3,4)"]),          # S4
    (8, ["(1,2,3,4,5,6,7,8)"]),            # C8
    (4, ["(1,2)(3,4)", "(1,3)(2,4)"]),     # V4
    (4, ["(1,2,3)", "(2,3,4)"]),           # A4
    (8, ["(1,2,3,4)(5,6,7,8)", "(1,5)(2,8)(3,7)(4,6)"]),
    (7, ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"]),   # F21
    (6, ["(1,2)", "(1,2,3,4,5,6)"]),       # S6
]


@pytest.mark.parametrize("degree,gens", BRUTE_GROUPS)
def test_order_against_brute_force_closure(degree, gens):
    g = PermGroup.from_cycles(degree, gens)
    assert g.order() == len(closure(g.generators, degree))


@pytest.mark.parametrize("degree,gens", BRUTE_GROUPS)
def test_elements_enumeration_matches_order(degree, gens):
    g = PermGroup.from_cycles(degree, gens)
    els = list(g.elements())
    assert len(els) == len(set(els)) == g.order()
    assert all(e in g for e in els)


def test_orbit_stabilizer_identity():
    g = PermGroup.from_cycles(16, ALPHA)
    for alpha in range(1, 17):
        assert len(g.orbit(alpha)) * g.stabilizer(alpha).order() == g.order()
    assert g.stabilizer(1).order() == 72


def test_orbits_deterministic():
    h = PermGroup.from_cycles(16, [ALPHA[3]])
    assert h.orbits() == [(1,), (2,), (3, 5), (4, 6), (7,), (8,), (9,), (10,),
                          (11, 13), (12, 14), (15,), (16,)]
    triv = PermGroup(4, [])
    assert triv.orbits() == [(1,), (2,), (3,), (4,)]
    g = PermGroup.from_cycles(16, ALPHA)
    assert g.orbits() == [tuple(range(1, 17))]


def test_stabilizer_matches_closure(aut_results):
    # every point of every catalog group, plus an intransitive group with a
    # point no generator moves
    groups = [r.group for r in aut_results.values()]
    groups.append(PermGroup.from_cycles(8, ["(1,2,3,4)(5,6)", "(1,2)"]))
    for g in groups:
        elements = closure(g.generators, g.degree)
        for alpha in range(1, g.degree + 1):
            fixing = {x for x in elements if x(alpha) == alpha}
            stab = g.stabilizer(alpha)
            assert stab.order() == len(fixing), (g, alpha)
            assert set(stab.elements()) == fixing, (g, alpha)


def test_chain_order_with_redundant_generators():
    gens = [Permutation.from_cycles(c, 16) for c in ALPHA]
    products = [a * b for a in gens for b in gens]
    redundant = PermGroup(16, gens + products)
    assert len(redundant.generators) == 27  # the identities a*a are dropped
    assert redundant.order() == 1152


def test_chain_orders_beyond_closure():
    cycle12 = "(" + ",".join(map(str, range(1, 13))) + ")"
    cycle13 = "(" + ",".join(map(str, range(1, 14))) + ")"
    assert PermGroup.from_cycles(12, ["(1,2)", cycle12]).order() == math.factorial(12)
    alt13 = PermGroup.from_cycles(13, ["(1,2,3)", cycle13])
    assert alt13.order() == math.factorial(13) // 2
    assert Permutation.from_cycles("(1,2)", 13) not in alt13
    assert Permutation.from_cycles("(1,2,3)(4,5)(6,7)", 13) in alt13


def test_chain_base_points_strictly_increase():
    # and every level's generators move its base point
    for degree, gens in BRUTE_GROUPS + [(16, ALPHA)]:
        chain = PermGroup.from_cycles(degree, gens).chain()
        base = [b for b, _ in chain]
        assert base == sorted(set(base)), (degree, gens)
        assert all(len(transversal) > 1 for _, transversal in chain), (degree, gens)


def test_membership_edge_cases():
    g = PermGroup.from_cycles(16, ALPHA)
    assert Permutation.identity(15) not in g
    assert Permutation.from_cycles(ALPHA[0], 17) not in g
    trivial = PermGroup(4, [])
    assert trivial.chain() == []
    assert list(trivial.elements()) == [Permutation.identity(4)]
    assert Permutation.identity(4) in trivial
    assert Permutation.from_cycles("(1,2)", 4) not in trivial


def test_sims_filter_keeps_the_group():
    gens = [Permutation.from_cycles(c, 16) for c in ALPHA]
    images = [tuple(x - 1 for x in g.images) for g in gens + [a * b for a in gens for b in gens]]
    kept = perm._sims_filter(images, 16)
    pairs = set()
    for g in kept:
        i = next(p for p in range(16) if g[p] != p)
        pairs.add((i, g[i]))
    assert len(pairs) == len(kept)
    assert PermGroup(16, [Permutation(x + 1 for x in g) for g in kept]).order() == 1152


def test_orbit_routine():
    c = Permutation.from_cycles("(1,2,3,4,5)", 6)
    assert orbit(1, [c], Permutation.__call__) == [1, 2, 3, 4, 5]
    assert orbit(6, [c], Permutation.__call__) == [6]
    assert orbit(1, [c], Permutation.__call__, cap=5) == [1, 2, 3, 4, 5]
    with pytest.raises(ScaleError):
        orbit(1, [c], Permutation.__call__, cap=4)


def test_conjugate_class_cap(monkeypatch):
    s4 = PermGroup.from_cycles(4, ["(1,2)", "(1,2,3,4)"])
    x = Permutation.from_cycles("(1,2)", 4)
    assert s4.conjugacy_counts(x, 1)[0] == 6
    monkeypatch.setattr(perm, "CONJUGACY_ENUMERATION_CAP", 6)
    assert s4.conjugacy_counts(x, 1)[0] == 6
    monkeypatch.setattr(perm, "CONJUGACY_ENUMERATION_CAP", 5)
    with pytest.raises(ScaleError):
        s4.conjugacy_counts(x, 1)


def test_stabilizer_of_untouched_point_is_whole_group():
    g = PermGroup.from_cycles(3, ["(1,2)"])
    assert g.stabilizer(3).order() == 2


def test_point_queries_refuse_points_out_of_range():
    # unchecked, 0 and -1 would reach Python's negative indexing
    g = PermGroup.from_cycles(5, ["(1,2,3)"])
    for bad in (0, -1, 6):
        text = f"point {bad} out of range 1..5"
        for query in (lambda: g.orbit(bad), lambda: g.minimal_block(bad, 1),
                      lambda: g.minimal_block(1, bad), lambda: g.stabilizer(bad)):
            with pytest.raises(InputError) as err:
                query()
            assert str(err.value) == text
    assert g.orbit(1) == {1, 2, 3} and g.orbit(5) == {5}
    assert g.minimal_block(1, 2) == {1, 2, 3}


def test_conjugacy_counts_identities():
    g = PermGroup.from_cycles(16, ALPHA)
    a4 = Permutation.from_cycles(ALPHA[3], 16)
    u, u1 = g.conjugacy_counts(a4, 1)
    f = len(a4.fixed_points())
    assert f > 0 and 16 * u1 == f * u  # |Omega|/f = u/u1 for a transitive action
    # central element of an abelian group has a single conjugate
    c8 = PermGroup.from_cycles(8, ["(1,2,3,4,5,6,7,8)"])
    x = Permutation.from_cycles("(1,3,5,7)(2,4,6,8)", 8)
    assert c8.conjugacy_counts(x, 1) == (1, 0)
    with pytest.raises(InputError):
        g.conjugacy_counts(Permutation.from_cycles("(1,2)", 16), 1)  # not in G


def test_membership_sifting():
    g = PermGroup.from_cycles(16, ALPHA)
    for gen in g.generators:
        assert gen in g
        assert gen * gen in g
    assert Permutation.identity(16) in g
    odd_transposition = Permutation.from_cycles("(1,2)", 16)
    assert (odd_transposition in g) == False  # order would exceed 1152 otherwise


def test_primitivity():
    g = PermGroup.from_cycles(16, ALPHA)
    assert g.is_primitive()
    # regular non-cyclic-of-prime-order groups are imprimitive
    v4 = PermGroup.from_cycles(4, ["(1,2)(3,4)", "(1,3)(2,4)"])
    assert not v4.is_primitive()
    c4 = PermGroup.from_cycles(4, ["(1,2,3,4)"])
    assert not c4.is_primitive()


def test_group_json_roundtrip():
    g = PermGroup.from_cycles(16, ALPHA)
    data = group_to_json_dict(g)
    assert data["degree"] == 16
    h = group_from_json_dict(data, 16)
    assert h.order() == g.order()


@pytest.mark.parametrize("degree", [16.5, True, "16", None])
def test_group_from_json_dict_takes_an_integer_degree_only(degree):
    data = group_to_json_dict(PermGroup.from_cycles(16, ALPHA))
    data["degree"] = degree
    with pytest.raises(InputError, match=f"^bad group file: degree: {degree!r} is not"):
        group_from_json_dict(data, 16)


@pytest.mark.parametrize("generators", [[5], [["(1,2)"]], "(1,2)", {"g": "(1,2)"}, None])
def test_group_from_json_dict_takes_a_list_of_strings_only(generators):
    with pytest.raises(InputError, match="^bad group file: generators .* not a list of strings"):
        group_from_json_dict({"degree": 16, "generators": generators}, 16)


def test_group_from_json_dict_refuses_another_degree_before_parsing():
    # a generator that would not parse shows that none is parsed
    for degree in (8, 10**9):
        with pytest.raises(InputError, match=f"^bad group file: degree {degree}, expected 16$"):
            group_from_json_dict({"degree": degree, "generators": ["(1,x)"]}, 16)


def test_chain_deterministic_across_rebuilds():
    g1 = PermGroup.from_cycles(16, ALPHA)
    g2 = PermGroup.from_cycles(16, ALPHA)
    assert [b for b, _ in g1.chain()] == [b for b, _ in g2.chain()]
    assert list(g1.elements())[:50] == list(g2.elements())[:50]
