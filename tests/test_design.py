import itertools
import random
import re
import tracemalloc

import pytest

from biplane import catalog
from biplane.design import (PARAMS_K_CAP, VIOLATION_SAMPLE, Design, DesignParams,
                            _legendre_form_solvable,
                            brc_brute_force, brc_feasible, dual,
                            k_for_point_power, params_from_k, subdesign_constraint,
                            verify_symmetric_design)
from biplane.errors import InputError, ScaleError
from biplane.ntheory import ternary_isotropic
from biplane.perm import Permutation
from oracles import reference_block_action, restrict_subdesign


def test_catalog_designs_verify():
    for name in catalog.constructible_names():
        d = catalog.build(name)
        report = verify_symmetric_design(d)
        assert report.ok, (name, report.violations[:3])


def test_verify_flags_short_block():
    d = catalog.build("fano_complement")
    blocks = [list(b) for b in d.blocks]
    blocks[2] = blocks[2][:-1]  # delete one point from one block
    broken = Design(d.params, blocks)
    report = verify_symmetric_design(broken)
    assert not report.ok
    assert ("block-size", 2, 3, 4) in report.violations


def test_malformed_input_is_input_error_not_verification_failure():
    with pytest.raises(InputError):
        Design(DesignParams(7, 4, 2), [(1, 1, 2, 3)] + [(1, 2, 3, 4)] * 6)
    with pytest.raises(InputError):
        Design(DesignParams(7, 4, 2), [(1, 2, 3, 9)])
    with pytest.raises(InputError):
        Design(DesignParams(7, 4, 2), [(1, 2, 3, 4), (4, 3, 2, 1)])  # repeated block


def test_block_count_is_verification_failure():
    report = verify_symmetric_design(Design(DesignParams(7, 4, 2), [(1, 2, 3, 4)]))
    assert not report.ok
    assert any(v[0] == "block-count" for v in report.violations)


def test_violation_list_is_bounded():
    # one block of the (7,4,2) parameters: the block count and all 21 pair
    # counts are wrong
    report = verify_symmetric_design(Design(DesignParams(7, 4, 2), [(1, 2, 3, 4)]))
    assert report.counts == {"block-count": 1, "pair-count": 21}
    assert len(report.violations) == VIOLATION_SAMPLE == 20
    assert report.violations[:3] == (("block-count", None, 1, 7),
                                     ("pair-count", (1, 2), 1, 2),
                                     ("pair-count", (1, 3), 1, 2))
    assert report.violations[-1] == ("pair-count", (5, 6), 0, 2)
    assert verify_symmetric_design(catalog.build("hadamard11")).counts == {}


def test_pair_check_memory_is_bounded():
    # one block of all 1000 points: every one of the C(1000,2) point pairs is
    # covered, once, against lambda = 2
    d = Design(DesignParams(1000, 45, 2), [tuple(range(1, 1001))])
    tracemalloc.start()
    try:
        report = verify_symmetric_design(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.counts == {"block-count": 1, "block-size": 1, "pair-count": 499500}
    assert peak < 10 * 2**20


def test_dual_involution():
    for name in ("fano_complement", "hadamard11"):
        d = catalog.build(name)
        dd = dual(dual(d))
        assert sorted(dd.blocks) == sorted(d.blocks)


def test_dual_verifies_with_same_params():
    d = catalog.build("hadamard11")
    dd = dual(d)
    assert dd.params == d.params
    assert verify_symmetric_design(dd).ok


def test_dual_rejects_nonsymmetric():
    with pytest.raises(InputError):
        dual(Design(DesignParams(7, 4, 2), [(1, 2, 3, 4)]))


@pytest.mark.parametrize("k,v", [(4, 7), (3, 4), (5, 11), (6, 16), (9, 37),
                                 (11, 56), (13, 79), (16, 121)])
def test_params_from_k(k, v):
    p = params_from_k(k)
    assert (p.v, p.k, p.lam) == (v, k, 2)
    assert p.symmetric_feasible


def test_params_from_k_rejects_small():
    with pytest.raises(InputError):
        params_from_k(2)


def test_params_from_k_cap():
    assert len(str(params_from_k(PARAMS_K_CAP).v)) == 4000  # printable
    with pytest.raises(ScaleError, match="exceeds the cap 10\\^2000"):
        params_from_k(PARAMS_K_CAP + 1)


def test_params_from_k_feasible_up_to_1000():
    for k in range(3, 1001):
        assert params_from_k(k).symmetric_feasible


@pytest.mark.parametrize("c,d,expected", [(11, 2, 16), (4, 2, 6), (5, 3, None),
                                          (6, 3, None), (7, 3, None), (2, 2, 3)])
def test_k_for_point_power(c, d, expected):
    assert k_for_point_power(c, d) == expected


def test_k_for_point_power_no_solution_on_small_grids():
    # squares c^2 with 5 <= c <= 10 or c = 28 admit no block size at all
    for c in (3, 5, 6, 7, 8, 9, 10, 28):
        assert k_for_point_power(c, 2) is None, c
    assert k_for_point_power(11, 2) == 16


def test_k_for_point_power_large_exact():
    # forced block size stays exact far beyond machine-word arithmetic
    c, d = 10**6, 4
    k = k_for_point_power(c, d)
    if k is not None:
        assert k * (k - 1) == 2 * (c**d - 1)


def test_brc_known_values():
    assert brc_feasible(DesignParams(67, 12, 2)) is False
    assert brc_feasible(DesignParams(121, 16, 2)) is True
    assert brc_feasible(DesignParams(7, 4, 2)) is True
    with pytest.raises(InputError):
        brc_feasible(DesignParams(10, 4, 2))  # not symmetric-feasible


def test_brc_agrees_with_bounded_oracle_small():
    # the k <= 20 sweep runs in the acceptance suite; spot-check here
    for k in (4, 5, 8, 12):
        p = params_from_k(k)
        assert brc_feasible(p) == brc_brute_force(p)


def test_brc_search_matches_legendre_k_below_2000():
    odd_rows = 0
    for k in range(3, 2000):
        p = params_from_k(k)
        odd_rows += p.v % 2
        assert brc_brute_force(p) == brc_feasible(p), k
    assert odd_rows == 998


def test_brc_matches_search_on_symmetric_rows_v_below_1000():
    # every symmetric-feasible (v,k,lambda), not only the biplanes
    rows = [DesignParams(v, k, k * (k - 1) // (v - 1))
            for v in range(3, 1001) for k in range(2, v) if k * (k - 1) % (v - 1) == 0]
    assert len(rows) == 3984
    excluded = 0
    for p in rows:
        feasible = brc_feasible(p)
        assert feasible == brc_brute_force(p), p
        excluded += not feasible
    assert excluded == 1358


@pytest.mark.parametrize("a, b, c, witness", [
    (1, 1, -3, None),        # x^2 + y^2 = 3z^2: descent mod 3
    (2, 3, -5, (1, 1, 1)),
    (8, 9, -17, (1, 1, 1)),  # square factors 4 and 9 drop out
    (3, 6, -1, (1, 1, 3)),   # 3 divides two coefficients
    (2, 6, -3, None),        # descent mod 3, then mod 2, then mod 3 again
    (1, 2, 3, None),         # definite
    (-1, -1, -1, None),
])
def test_legendre_form_hand_checked(a, b, c, witness):
    if witness is not None:
        x, y, z = witness
        assert a * x * x + b * y * y + c * z * z == 0
    assert _legendre_form_solvable(a, b, c) is (witness is not None)


def test_legendre_form_matches_ternary_isotropic():
    # a x^2 + b y^2 + c z^2 = 0 iff (cz)^2 = -ac x^2 - bc y^2
    coeffs = [t for t in range(-10, 11) if t]
    for a in coeffs:
        for b in coeffs:
            for c in coeffs:
                assert (_legendre_form_solvable(a, b, c)
                        == ternary_isotropic(-a * c, -b * c)), (a, b, c)


def test_restrict_identity():
    d = catalog.build("fano_complement")
    sub = restrict_subdesign(d, range(1, 8), range(7))
    assert sub is not None
    assert sorted(sub.blocks) == sorted(d.blocks)


def test_restrict_nonconstant_intersections():
    d = catalog.build("fano_complement")
    assert restrict_subdesign(d, [1, 2, 3], range(7)) is None


def test_subdesign_constraint():
    assert subdesign_constraint(6, 2, 3)      # (3-1)^2 = 4 = k - lam
    assert subdesign_constraint(13, 2, 3)     # 3*2 = 6 <= 11
    assert not subdesign_constraint(13, 2, 5)  # 16 != 11 and 20 > 11


def test_relabel_preserves_verification():
    rng = random.Random(3)
    d = catalog.build("hadamard11")
    images = list(range(1, 12))
    rng.shuffle(images)
    sigma = Permutation(images)
    assert verify_symmetric_design(d.relabel(sigma)).ok


def test_json_roundtrip():
    d = catalog.build("biplane16_q8c2")
    data = d.to_json_dict()
    assert data["lambda"] == 2 and len(data["blocks"]) == 16
    d2 = Design.from_json_dict(data)
    assert sorted(d2.blocks) == sorted(d.blocks)


@pytest.mark.parametrize("field, value", [
    ("v", 7.9), ("v", "7"), ("k", True), ("lambda", 2.0), ("blocks", 1.9), ("blocks", "1"),
])
def test_from_json_dict_takes_json_integers_only(field, value):
    # int() would read 7.9 as 7 and true as 1, and the design would verify
    data = catalog.build("fano_complement").to_json_dict()
    if field == "blocks":
        data["blocks"][0][0] = value
    else:
        data[field] = value
    with pytest.raises(InputError, match=f"^bad design file: {field}: {value!r} is not"):
        Design.from_json_dict(data)


def _reference_view(d):
    """Block index and incidence bitmasks rebuilt from the block list alone."""
    index = {frozenset(b): i for i, b in enumerate(d.blocks)}
    through = tuple(sum(1 << i for i, b in enumerate(d.blocks) if p in b)
                    for p in range(d.v + 1))
    points = tuple(sum(1 << p for p in b) for b in d.blocks)
    return index, (through, points)


def _same_action(d, images):
    """block_action and its reference agree, InputError message included."""
    try:
        want = reference_block_action(d, images)
    except InputError as exc:
        with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
            d.block_action(images)
        return None
    got = d.block_action(images)
    assert got == want, images
    return got


def test_incidence_view_matches_reference(aut_results):
    # three labelings of every catalog design; block_action against the
    # reference kernel on every group element of the small designs and 200
    # of the large ones (all automorphisms), on 50 random permutations
    # (almost none are), on the swap (1,2) and on lists one point short and
    # one point long
    rng = random.Random(8)
    for name in catalog.constructible_names():
        base = catalog.build(name)
        elements = list(aut_results[name].group.elements())
        if len(elements) > 200:
            elements = rng.sample(elements, 200)
        sigmas = [list(range(1, base.v + 1)) for _ in range(3)]
        for images in sigmas[1:]:
            rng.shuffle(images)
        for sigma in sigmas:
            d = base.relabel(Permutation(sigma))
            inverse = {q: p for p, q in enumerate(sigma, start=1)}
            # automorphisms of d: sigma g sigma^-1 for g in Aut(base)
            autos = [tuple(sigma[g(inverse[q]) - 1] for q in range(1, d.v + 1))
                     for g in elements]
            index, incidence = _reference_view(d)
            assert d.block_index == index
            assert d.incidence == incidence
            assert all(_same_action(d, images) is not None for images in autos), name
            assert _same_action(d, (2, 1) + tuple(range(3, d.v + 1))) is None
            for _ in range(50):
                images = list(range(1, d.v + 1))
                rng.shuffle(images)
                _same_action(d, images)
            _same_action(d, tuple(range(1, d.v)))
            _same_action(d, tuple(range(1, d.v + 2)))
            # the cached view is not part of equality or hashing
            fresh = Design(d.params, d.blocks)
            assert "incidence" in vars(d) and "incidence" not in vars(fresh)
            assert d == fresh and hash(d) == hash(fresh)


def test_block_action_rejects_wrong_length():
    d = catalog.build("fano_complement")
    with pytest.raises(InputError, match="permutation degree 3 != v = 7"):
        d.block_action((2, 1, 3))


def test_block_action_on_blocks_of_two_points_or_fewer():
    # itemgetter returns a bare value for one index and refuses none
    d = Design(DesignParams(3, 1, 1), [(1,), (2,), (3,)])
    for images in itertools.permutations((1, 2, 3)):
        assert _same_action(d, images) == tuple(q - 1 for q in images)
    assert _same_action(d, (1, 1, 2)) == (0, 0, 1)  # not a permutation: sets as given
    _same_action(d, (1, 2))
    empty = Design(DesignParams(2, 1, 1), [(), (1,), (2,)])
    assert _same_action(empty, (2, 1)) == (0, 2, 1)
    triangle = Design(DesignParams(3, 2, 1), [(1, 2), (1, 3), (2, 3)])
    assert all(_same_action(triangle, images) is not None
               for images in itertools.permutations((1, 2, 3)))
    assert _same_action(triangle, (2, 3, 1)) == (2, 0, 1)
