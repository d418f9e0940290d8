import pytest

from biplane import catalog
from biplane.cartdecomp import (PELL_N_CAP, PSP4_Q_CAP, CartesianDecomposition,
                                block_coordinate_pairs, coordinatize, pell_brute_force,
                                pell_solutions, preserved_by, psp4_degree_excluded,
                                verify_cartesian)
from biplane.errors import InputError, ScaleError
from biplane.perm import PermGroup, Permutation
from oracles import cd_to_json_dict


def _example_cd() -> CartesianDecomposition:
    return CartesianDecomposition(catalog.CART16_PARTITIONS)


def test_example_decomposition_verifies():
    report = verify_cartesian(_example_cd(), 16)
    assert report.ok and report.homogeneous
    assert report.d == 2 and report.part_counts == (4, 4)


def test_trivial_decomposition():
    triv = CartesianDecomposition([[{i} for i in range(1, 17)]])
    report = verify_cartesian(triv, 16)
    assert report.ok and report.d == 1


def test_duplicated_partition_fails_unique_intersection():
    dup = CartesianDecomposition([catalog.CART16_PARTITIONS[0],
                                  catalog.CART16_PARTITIONS[0]])
    assert not verify_cartesian(dup, 16).ok


def test_malformed_partition_is_input_error():
    with pytest.raises(InputError):
        verify_cartesian(CartesianDecomposition([[{1, 2}, {2, 30}]]), 16)
    with pytest.raises(InputError, match="^empty part in partition 1$"):
        CartesianDecomposition([catalog.CART16_PARTITIONS[0], [set(), set(range(1, 17))]])
    with pytest.raises(InputError, match="^no partitions$"):
        CartesianDecomposition([])


@pytest.mark.parametrize("point", [1.9, False, "1"])
def test_from_json_dict_takes_json_integers_only(point):
    data = cd_to_json_dict(_example_cd())
    data["partitions"][0][0][0] = point
    with pytest.raises(InputError, match=f"^bad decomposition file: partitions: {point!r}"):
        CartesianDecomposition.from_json_dict(data)


def test_coordinatize_bijection():
    cd = _example_cd()
    coords = coordinatize(cd, 16)
    assert len(set(coords.values())) == 16
    # point 1 sits in the first part of both partitions (parts sorted by min)
    assert coords[1] == (0, 0)
    part0 = {p for p, c in coords.items() if c[0] == 0}
    assert part0 == {1, 8, 10, 15}


def test_coordinatize_trivial_identity():
    triv = CartesianDecomposition([[{i} for i in range(1, 6)]])
    coords = coordinatize(triv, 5)
    assert coords == {i: (i - 1,) for i in range(1, 6)}


def test_coordinatize_refuses_non_decomposition():
    dup = CartesianDecomposition([catalog.CART16_PARTITIONS[0],
                                  catalog.CART16_PARTITIONS[0]])
    with pytest.raises(InputError):
        coordinatize(dup, 16)


def test_preservation_closed_under_generator_subsets():
    cd = _example_cd()
    g = catalog.primitive16_group()
    assert preserved_by(cd, g)
    for gen in g.generators:
        assert preserved_by(cd, PermGroup(16, [gen]))


def test_preservation():
    cd = _example_cd()
    g = catalog.primitive16_group()
    # the third generator swaps the two partitions, which preservation allows
    assert preserved_by(cd, g)
    assert preserved_by(cd, PermGroup(16, []))


def test_full_group_does_not_preserve(aut_results):
    cd = _example_cd()
    assert not preserved_by(cd, aut_results["biplane16_primitive"].group)


def test_block_coordinate_pairs_all_six():
    d = catalog.build("biplane16_primitive")
    counts = block_coordinate_pairs(d, _example_cd(), group=catalog.primitive16_group())
    assert counts == [6] * 16  # 2(c-1) with c = 4
    assert sum(counts) == 96   # 2 c^2 (c-1)


def test_block_coordinate_pairs_rejects_wrong_dimension():
    d = catalog.build("biplane16_primitive")
    triv = CartesianDecomposition([[{i} for i in range(1, 17)]])
    with pytest.raises(InputError):
        block_coordinate_pairs(d, triv)


_ROWS = [set(range(1, 9)), set(range(9, 17))]
_PAIRS = [{j, j + 8} for j in range(1, 9)]


@pytest.mark.parametrize("partitions,message", [
    ([_ROWS, _PAIRS, _ROWS], "need exactly 2 partitions, got 3"),
    ([[set(range(1, 10)), set(range(9, 17))], _PAIRS],
     "not a cartesian decomposition: ('partition 0 has overlapping parts',)"),
    ([[set(range(1, 9)), set(range(9, 18))], _PAIRS],
     "part [9, 10, 11, 12, 13, 14, 15, 16, 17] not within 1..16"),
    ([_ROWS, _PAIRS], "decomposition is not homogeneous"),
    ([_ROWS, [set(range(1, 17, 2)), set(range(2, 17, 2))]],
     "not a cartesian decomposition: ('parts [[1, 2, 3, 4, 5, 6, 7, 8], "
     "[1, 3, 5, 7, 9, 11, 13, 15]] meet in 4 points',)"),
    ([[set(range(1, 17))], _PAIRS],
     "not a cartesian decomposition: ('partition 0 has fewer than 2 parts',)"),
    ([[set(range(1, 9)), set(range(9, 16))], _PAIRS],
     "not a cartesian decomposition: ('partition 0 does not cover 1..16',)"),
])
def test_block_coordinate_pairs_error_precedence(partitions, message):
    d = catalog.build("biplane16_primitive")
    with pytest.raises(InputError) as err:
        block_coordinate_pairs(d, CartesianDecomposition(partitions))
    assert str(err.value) == message


def test_group_degree_must_match_decomposition():
    d = catalog.build("biplane16_primitive")
    cd = _example_cd()
    padded = PermGroup(20, [Permutation(g.images + (17, 18, 19, 20))
                            for g in catalog.primitive16_group().generators])
    for group in (PermGroup(8, []), padded):
        with pytest.raises(InputError, match=f"group degree {group.degree} != 16"):
            preserved_by(cd, group)
        with pytest.raises(InputError, match=f"group degree {group.degree} != 16"):
            block_coordinate_pairs(d, cd, group=group)


def test_preserved_by_refuses_points_outside_the_group_degree():
    # four points, as the group has, but one of them is 17: the check is of
    # the point set, not only of its size
    group = PermGroup.from_cycles(4, ["(1,2)"])
    for points, message in (((1, 2, 3, 17), "point 17 of the decomposition is not in 1..4"),
                            ((0, 1, 2, 3), "point 0 of the decomposition is not in 1..4")):
        a, b, c, x = points
        cd = CartesianDecomposition([[{a, b}, {c, x}], [{a, c}, {b, x}]])
        with pytest.raises(InputError) as err:
            preserved_by(cd, group)
        assert str(err.value) == message
    square = CartesianDecomposition([[{1, 2}, {3, 4}], [{1, 3}, {2, 4}]])
    assert not preserved_by(square, group)
    assert preserved_by(square, PermGroup.from_cycles(4, ["(1,2)(3,4)"]))


def test_fully_coordinate_aligned_set_counts_all_pairs():
    # a synthetic 6-set inside one fiber has C(6,2) = 15 > 2(c-1) shared pairs
    cd = _example_cd()
    coords = coordinatize(cd, 16)
    fiber = [p for p, c in coords.items() if c[0] == 0]
    extra = [p for p, c in coords.items() if c[0] == 1][:2]
    block = sorted(fiber + extra)
    from itertools import combinations
    n = sum(1 for p, q in combinations(block, 2)
            if coords[p][0] == coords[q][0] or coords[p][1] == coords[q][1])
    assert n >= 6 + 1  # exceeds the block-transitive value
    assert sum(1 for p, q in combinations(fiber, 2)) == 6


def test_pell_first_solutions():
    sols = pell_solutions(2)
    assert [(s.x, s.y) for s in sols] == [(1, 1), (2, 5), (4, 11), (11, 31), (23, 65)]
    first = sols[0]
    assert (first.u, first.v) == (1, 0)


def test_pell_cap():
    assert len(pell_solutions(PELL_N_CAP)) == 2 * PELL_N_CAP + 1
    with pytest.raises(ScaleError, match=f"exceeds the cap {PELL_N_CAP}"):
        pell_solutions(PELL_N_CAP + 1)


def test_pell_recurrence_pairs():
    sols = {(s.n, s.family): s for s in pell_solutions(2)}
    assert (sols[(1, 1)].u, sols[(1, 1)].v) == (3, 1)
    assert (sols[(1, 1)].x, sols[(1, 1)].y) == (4, 11)
    assert (sols[(1, 2)].x, sols[(1, 2)].y) == (2, 5)
    assert (sols[(2, 1)].x, sols[(2, 1)].y) == (23, 65)
    assert (sols[(2, 2)].x, sols[(2, 2)].y) == (11, 31)


def test_pell_equation_exact():
    for s in pell_solutions(30):
        assert 8 * s.x * s.x - s.y * s.y == 7
        assert s.u * s.u - 8 * s.v * s.v == 1


def test_pell_closed_form_reconstruction():
    # (3 + sqrt8)^n expanded exactly in Z[sqrt8] must reproduce (u_n, v_n)
    a, b = 1, 0
    for s in [x for x in pell_solutions(10) if x.family == 1]:
        assert (a, b) == (s.u, s.v)
        a, b = 3 * a + 8 * b, a + 3 * b


def test_pell_completeness_small():
    xs = sorted(s.x for s in pell_solutions(6) if s.x <= 1000)
    assert xs == [x for x, _ in pell_brute_force(1000)]


def test_pell_residues_mod_3():
    assert {s.x % 3 for s in pell_solutions(40)} <= {1, 2}


def test_psp4_exclusion():
    r = psp4_degree_excluded(4)
    assert r.c == 120 and r.pell_value == 115193
    assert not r.pell_value_is_square
    assert r.c_mod_3 == 0
    assert r.excluded
    for q in (8, 16, 32):
        assert psp4_degree_excluded(q).excluded


def test_psp4_cap():
    report = psp4_degree_excluded(PSP4_Q_CAP)
    assert report.excluded and len(str(report.pell_value)) < 4300  # printable
    with pytest.raises(ScaleError, match="^q = 2\\^1001 exceeds the cap 2\\^1000$"):
        psp4_degree_excluded(2 * PSP4_Q_CAP)


def test_psp4_small_branches():
    small = psp4_degree_excluded(4).small_branches
    assert small[6]["k"] == 9 and small[6]["v"] == 37 != 36
    assert small[12]["k"] == 17 and small[12]["v"] == 137 != 144


def test_psp4_rejects_bad_q():
    for bad in (2, 3, 6, 12):
        with pytest.raises(InputError):
            psp4_degree_excluded(bad)
