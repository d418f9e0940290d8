import hashlib
import random
import time
from itertools import combinations
from math import gcd

import pytest

from biplane import catalog, diffset
from biplane.aut import are_isomorphic, canonical_form
from biplane.design import DesignParams, params_from_k, verify_symmetric_design
from biplane.diffset import (GROUP_ORDER_CAP, DifferenceSet, LanderWitness,
                             cyclic, develop, direct_product,
                             elementary_abelian, from_tag,
                             is_difference_set, lander_excluded, quaternion8,
                             search_difference_sets, table_automorphisms)
from biplane.errors import InputError, ScaleError
from biplane.ntheory import is_prime, square_free_part
from biplane.perm import Permutation
from oracles import (all_translates_rep, brute_force_table_automorphisms,
                     incremental_pair_sets)

QR11 = (1, 3, 4, 5, 9)


# Associativity is checked in full up to this order: n**3 products.
ASSOCIATIVITY_ORDER = 64


def _assert_group_laws(g):
    """The group axioms on g's table: identity 0, every row and column a
    permutation of 0..n-1, two-sided inverses and, for n <= 64, associativity."""
    mul, inv, n = g.mul, g.inv, g.n
    elements = list(range(n))
    assert len(mul) == len(inv) == n
    assert list(mul[0]) == elements and [row[0] for row in mul] == elements, g.name
    assert all(sorted(row) == elements for row in mul), g.name
    assert all(sorted(column) == elements for column in zip(*mul)), g.name
    assert all(mul[x][inv[x]] == mul[inv[x]][x] == 0 for x in elements), g.name
    if n <= ASSOCIATIVITY_ORDER:
        assert all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                   for a in elements for b in elements for c in elements), g.name


def test_group_table_laws():
    # The constructors build tables from group laws and check nothing, so
    # every table they reach is checked here, once
    tags = ("c1", "c2", "c16", "c31", "c37", "c64", "c2xc8", "q8xc2", "e16", "c121ab")
    tables = [from_tag(tag) for tag in tags]
    tables += [_table("c4xc4"), _table("c2xc2xc4"), elementary_abelian(3, 2), quaternion8()]
    for g in tables:
        _assert_group_laws(g)
    # c121ab is past the associativity bound: its factors are checked, and
    # the product's law is the factors' laws coordinate-wise
    c121ab, c11 = from_tag("c121ab"), cyclic(11)
    assert c121ab.n > ASSOCIATIVITY_ORDER >= c11.n
    _assert_group_laws(c11)
    assert all(c121ab.mul[x1 * 11 + y1][x2 * 11 + y2] == c11.mul[x1][x2] * 11 + c11.mul[y1][y2]
               for x1 in range(11) for y1 in range(11) for x2 in range(11) for y2 in range(11))


def test_quaternion8_structure():
    q8 = quaternion8()
    # i^2 = j^2 = k^2 = -1, and exactly one involution
    orders = []
    for x in range(8):
        e, y = 1, x
        while y != 0:
            y = q8.mul[y][x]
            e += 1
        orders.append(e)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_qr11_is_difference_set():
    assert is_difference_set(cyclic(11), QR11, 2)


def test_random_subsets_mostly_fail():
    rng = random.Random(9)
    c16 = cyclic(16)
    hits = sum(is_difference_set(c16, tuple(rng.sample(range(16), 6)), 2)
               for _ in range(50))
    assert hits == 0  # C16 admits no (16,6,2) difference set at all


def test_develop_qr11_is_hadamard11():
    d = develop(DifferenceSet(group=cyclic(11), elements=QR11, lam=2))
    assert verify_symmetric_design(d).ok
    assert are_isomorphic(d, catalog.build("hadamard11")) is not None


def test_develop_rejects_non_difference_set():
    with pytest.raises(InputError):
        develop(DifferenceSet(group=cyclic(16), elements=(0, 1, 2, 3, 4, 5), lam=2))


def test_repeated_element_refused():
    # {0, 1, 3} is a (7,3,1) difference set; listing 3 twice must not read as k = 4
    for check in (lambda: is_difference_set(cyclic(7), (0, 1, 3, 3), 1),
                  lambda: develop(DifferenceSet(group=cyclic(7), elements=(0, 1, 3, 3), lam=1))):
        with pytest.raises(InputError, match=r"element\(s\) repeated: \[3\]"):
            check()
    assert is_difference_set(cyclic(7), (0, 1, 3), 1)


def test_difference_set_refuses_bad_elements_when_constructed():
    # params must never read k off a list with a repeated or foreign element
    with pytest.raises(InputError, match=r"element\(s\) repeated: \[3\]"):
        DifferenceSet(group=cyclic(7), elements=(0, 1, 3, 3), lam=1)
    for elements in ((0, 1, 7), (-1, 0, 1)):
        with pytest.raises(InputError, match="out of range"):
            DifferenceSet(group=cyclic(7), elements=elements, lam=1)
    ds = DifferenceSet(group=cyclic(7), elements=(3, 0, 1), lam=1)
    assert ds.elements == (0, 1, 3) and ds.params == DesignParams(7, 3, 1)


@pytest.mark.parametrize("tag", ["c2", "c3", "c7", "q8xc2"])
def test_develop_refuses_the_whole_group(tag, monkeypatch):
    # G is an (n,n,n) difference set (the closed-form row of the search),
    # but every translate of G is G: refused before any block is built
    g = from_tag(tag)
    (ds,), _ = diffset.difference_set_search(g, g.n, g.n)
    assert ds.elements == tuple(range(g.n))
    monkeypatch.setattr(diffset, "Design", None)
    with pytest.raises(InputError, match=rf"^the set is all of the group: every translate of "
                       rf"G is G, so the development repeats one block {g.n} times"):
        develop(ds)


def test_develop_regular_translation_action():
    # develop does not check its translations: every right translation must
    # be an automorphism of the development, on the c37 set, every catalog
    # development, and every class of the six order-16 searches, on each table
    # and on one seeded relabeling of it
    g = cyclic(37)
    sets = [DifferenceSet(group=g, elements=tuple(sorted({pow(x, 4, 37) for x in range(1, 37)})),
                          lam=2)]
    developments = [e.construct.args for e in catalog.list_known()
                    if getattr(e.construct, "func", None) is catalog._development]
    assert len(developments) == 5
    sets += [DifferenceSet(group=from_tag(tag), elements=tuple(elements), lam=2)
             for tag, elements in developments]
    for tag in ("c16", "c2xc8", "q8xc2", "e16", "c4xc4", "c2xc2xc4"):
        for table in (_table(tag), _relabeled(_table(tag), 7)):
            sets += search_difference_sets(table, 6, 2)
    assert len(sets) == 1 + 5 + 2 * 124  # 0 + 12 + 44 + 28 + 12 + 28 classes per labeling
    for ds in sets:
        g, d = ds.group, develop(ds)
        translations = [Permutation(g.mul[e][x] + 1 for e in g.elements()) for x in g.elements()]
        actions = d.automorphism_actions(translations)
        assert len(set(actions)) == g.n  # and they act regularly on the blocks


SEARCH_EXPECTATIONS = [
    ("c2xc8", 12, 2),   # translation classes, classes up to Aut(g)
    ("q8xc2", 44, 2),
    ("c16", 0, 0),
]


@pytest.mark.parametrize("tag,n_translation,n_up_to_aut", SEARCH_EXPECTATIONS)
def test_search_class_counts(tag, n_translation, n_up_to_aut):
    g = from_tag(tag)
    found = search_difference_sets(g, 6, 2)
    assert len(found) == n_translation
    autos = table_automorphisms(g)
    found_auto = search_difference_sets(g, 6, 2, automorphisms=autos)
    assert len(found_auto) == n_up_to_aut


def test_search_results_are_difference_sets():
    g = from_tag("c2xc8")
    for ds in search_difference_sets(g, 6, 2):
        assert is_difference_set(g, ds.elements, 2)


def _relabeled(g, seed):
    """g with its non-identity elements renamed by a seeded permutation."""
    n = g.n
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)  # identity stays at 0
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    mul = [[perm[g.mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    relabeled = diffset._build_table("relabeled", mul)
    _assert_group_laws(relabeled)
    return relabeled


def test_search_class_count_invariant_under_relabeling():
    g = from_tag("c2xc8")
    base = len(search_difference_sets(g, 6, 2))
    assert len(search_difference_sets(_relabeled(g, 4), 6, 2)) == base


def test_c16_classes_within_known_certificates():
    found = search_difference_sets(from_tag("c16"), 6, 2)
    known = {canonical_form(catalog.build(n)).digest
             for n in ("biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2")}
    for ds in found:
        assert canonical_form(develop(ds)).digest in known
    assert found == []


def test_two_c2c8_classes_develop_isomorphic_designs():
    found = search_difference_sets(from_tag("c2xc8"), 6, 2)
    by_cert = {}
    for ds in found:
        by_cert.setdefault(canonical_form(develop(ds)).digest, []).append(ds)
    repeated = [group for group in by_cert.values() if len(group) >= 2]
    assert repeated, "expected distinct difference sets giving one biplane"
    a, b = repeated[0][:2]
    assert a.elements != b.elements
    assert are_isomorphic(develop(a), develop(b)) is not None


def test_search_scale_cap():
    # the cap counts the subsets the search can reach: C(n-2, k-2)
    assert diffset.SEARCH_SUBSET_CAP == 10**8
    with pytest.raises(ScaleError, match=r"^C\(119,14\) exceeds the search cap 100000000$"):
        search_difference_sets(from_tag("c121ab"), 16, 2)
    # the arithmetic condition comes first: 20 * 19 != 2 * 120
    none = diffset.difference_set_search(from_tag("c121ab"), 20, 2)
    assert none == ([], diffset.DiffsetSearchStats(nodes=0, hits=0))


@pytest.mark.parametrize("lam", [0, -1])
def test_search_refuses_nonpositive_lambda(lam):
    with pytest.raises(InputError, match="lambda must be positive"):
        search_difference_sets(from_tag("c7"), 3, lam)


def _table(tag):
    c2, c4 = cyclic(2), cyclic(4)
    if tag == "c4xc4":
        return direct_product(c4, c4)
    if tag == "c2xc2xc4":
        return direct_product(direct_product(c2, c2), c4)
    return from_tag(tag)


def _scan(g, k, lam):
    """Oracle: every 0-containing difference set, by testing all subsets."""
    return [(0,) + rest for rest in combinations(range(1, g.n), k - 1)
            if is_difference_set(g, (0,) + rest, lam)]


def _classes(g, hits, automorphisms=()):
    """Oracle: the least member of each hit's full orbit under translation
    and automorphisms."""
    autos = automorphisms or [tuple(range(g.n))]
    seen, reps = set(), []
    for subset in hits:
        if subset in seen:
            continue
        orbit = {tuple(sorted(g.mul[a[e]][x] for e in subset))
                 for a in autos for x in range(g.n)}
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


ORACLE_CASES = [("c7", 4, 2), ("c11", 5, 2), ("c13", 4, 1), ("c31", 6, 1),
                ("c16", 6, 2), ("c2xc8", 6, 2), ("q8xc2", 6, 2), ("e16", 6, 2),
                ("c4xc4", 6, 2), ("c2xc2xc4", 6, 2)]


@pytest.mark.parametrize("tag,k,lam", ORACLE_CASES)
def test_search_matches_subset_scan(tag, k, lam):
    g = _table(tag)
    hits = _scan(g, k, lam)
    pair_hits, stats = diffset._pair_sets(g, k, lam)
    assert pair_hits == [subset for subset in hits if 1 in subset]
    assert stats.hits == len(pair_hits)
    found = [ds.elements for ds in search_difference_sets(g, k, lam)]
    assert found == _classes(g, hits)
    assert all(1 in rep for rep in found)
    # every class has lam translates through {0, 1} (k < n in every case)
    assert len(pair_hits) == lam * len(found)


@pytest.mark.parametrize("tag,k,lam", [("c3", 2, 1), ("c4", 3, 2), ("c5", 4, 3), ("c6", 5, 4),
                                       ("c2xc8", 15, 14), ("c5", 5, 5), ("q8xc2", 16, 16)])
def test_rows_with_k_at_least_n_minus_1_are_closed_form(tag, k, lam):
    g = _table(tag)
    hits = _scan(g, k, lam)
    autos = table_automorphisms(g)
    found, stats = diffset.difference_set_search(g, k, lam)
    assert [ds.elements for ds in found] == _classes(g, hits) == [tuple(range(k))]
    assert [ds.elements for ds in search_difference_sets(g, k, lam, autos)] == _classes(
        g, hits, autos)
    assert stats == diffset.DiffsetSearchStats(
        nodes=0, hits=sum(1 in subset for subset in hits))


@pytest.mark.parametrize("n,k,lam", [(995, 995, 995), (1000, 999, 998), (1024, 1024, 1024)])
def test_large_trivial_rows_answer_at_once(n, k, lam):
    start = time.perf_counter()
    found, stats = diffset.difference_set_search(cyclic(n), k, lam)
    assert time.perf_counter() - start < 2.0
    assert [ds.elements for ds in found] == [tuple(range(k))]
    assert stats == diffset.DiffsetSearchStats(nodes=0, hits=1 if k == n else n - 2)


@pytest.mark.parametrize("tag,k,lam,expected", [
    ("c2", 2, 2, [(0, 1)]),
    ("c7", 7, 7, [tuple(range(7))]),  # D = G: one translate, not lam
    ("c3", 4, 6, []),
    ("c1", 2, 2, []),  # no element 1 to start from
])
def test_trivial_and_empty_searches(tag, k, lam, expected):
    assert [ds.elements for ds in search_difference_sets(from_tag(tag), k, lam)] == expected


# (nodes, hits) of the (16,6,2) search: calls of the extend step, and the
# sets through {0, 1}, lam = 2 per translation class
ORDER16_SEARCH_STATS = {"c16": (67, 0), "c2xc8": (107, 24), "q8xc2": (247, 88),
                        "e16": (179, 56), "c4xc4": (113, 24), "c2xc2xc4": (179, 56)}


@pytest.mark.parametrize("tag", list(ORDER16_SEARCH_STATS))
def test_order16_search_stats_pinned(tag):
    _, stats = diffset.difference_set_search(_table(tag), 6, 2)
    assert (stats.nodes, stats.hits) == ORDER16_SEARCH_STATS[tag]


def _pair_set_cases():
    cases = [pytest.param(_table(tag), k, lam, id=f"{tag}-{k}-{lam}")
             for tag, k, lam in ORACLE_CASES]
    cases += [pytest.param(cyclic(n), k, lam, id=f"c{n}-{k}-{lam}")
              for n, k, lam in ((15, 7, 3), (19, 9, 4), (23, 11, 5), (37, 9, 2))]
    cases += [pytest.param(_relabeled(_table(tag), seed), 6, 2, id=f"{tag}-relabeled-{seed}")
              for tag in ORDER16_SEARCH_STATS for seed in range(5)]
    return cases


@pytest.mark.parametrize("g,k,lam", _pair_set_cases())
def test_pair_sets_match_incremental_oracle(g, k, lam):
    hits, stats = diffset._pair_sets(g, k, lam)
    oracle_hits, oracle_stats = incremental_pair_sets(g, k, lam)
    assert hits == oracle_hits
    assert stats.hits == oracle_stats.hits
    assert stats.nodes <= oracle_stats.nodes


def _multipliers(n):
    """Aut(C_n): x -> u x for every unit u, as image tuples."""
    return [tuple(u * x % n for x in range(n)) for u in range(1, n) if gcd(u, n) == 1]


@pytest.mark.parametrize("tag,k,lam", ORACLE_CASES)
def test_canonical_rep_matches_all_translates(tag, k, lam):
    g = _table(tag)
    if tag == "e16":  # 20160 automorphisms: 15 s over its 56 hits, so the identity only
        autos = (tuple(g.elements()),)
    elif g.n <= diffset.TABLE_AUT_CAP:
        autos = tuple(table_automorphisms(g))
    else:
        autos = tuple(_multipliers(g.n))
    hits, _ = diffset._pair_sets(g, k, lam)
    for subset in hits:
        assert diffset._canonical_rep(g, subset, autos) == all_translates_rep(g, subset, autos)


@pytest.mark.parametrize("g,k,lam", _pair_set_cases())
def test_plain_classes_match_all_translates(g, k, lam):
    # without automorphisms a hit is kept when none of its lam - 1 other
    # translates through {0, 1} is smaller; lam reaches 5 on c23 and the
    # order-16 tables are relabeled
    hits, _ = diffset._pair_sets(g, k, lam)
    found = [ds.elements for ds in search_difference_sets(g, k, lam)]
    assert found == sorted({all_translates_rep(g, subset, ()) for subset in hits})
    assert len(hits) == lam * len(found)


@pytest.mark.parametrize("g,k,lam", _pair_set_cases())
def test_search_records_equal_validated_records(g, k, lam):
    # the search wraps its records unchecked (DifferenceSet._trusted); each
    # must be what the validating constructor builds from the same elements
    searches = [None]
    if g.name.startswith("cyclic("):
        searches.append(_multipliers(g.n))
    for autos in searches:
        for ds in diffset.difference_set_search(g, k, lam, autos)[0]:
            e = ds.elements
            assert type(ds) is DifferenceSet and type(e) is tuple
            assert all(type(x) is int for x in e)
            assert len(e) == k and list(e) == sorted(set(e)) and 0 <= e[0] and e[-1] < g.n
            assert ds == DifferenceSet(group=g, elements=e, lam=lam)
            assert ds.params == DesignParams(g.n, k, lam)


def test_search_refuses_tables_that_are_not_automorphisms():
    g = cyclic(7)
    for tables, message in [
            ([(0, 2, 1, 4, 3, 6, 5)],  # a permutation fixing 0, not a homomorphism
             r"^automorphism table 0 is not a homomorphism: phi\(1\*1\) != phi\(1\)\*phi\(1\)$"),
            ([tuple(range(7)), (0, 1, 1, 3, 4, 5, 6)],
             r"^automorphism table 1 is not a permutation of 0\.\.6$"),
            ([(0, 2, 4, 6, 1, 3)], r"^automorphism table 0 is not a permutation of 0\.\.6$"),
            ([(0, 1, 2, 3, 4, 5, None)],
             r"^automorphism table 0 is not a permutation of 0\.\.6$")]:
        with pytest.raises(InputError, match=message):
            diffset.difference_set_search(g, 3, 1, tables)
    # x -> 2x is an automorphism; it fixes {1, 2, 4}, so both classes stay
    found, _ = diffset.difference_set_search(g, 3, 1, [(0, 2, 4, 6, 1, 3, 5)])
    assert [ds.elements for ds in found] == [(0, 1, 3), (0, 1, 5)]


@pytest.mark.parametrize("tag", ["c2xc8", "q8xc2", "c4xc4", "c2xc2xc4"])
def test_search_mod_aut_matches_subset_scan(tag):
    g = _table(tag)
    autos = table_automorphisms(g)
    found = [ds.elements for ds in search_difference_sets(g, 6, 2, automorphisms=autos)]
    assert found == _classes(g, _scan(g, 6, 2), autos)


def test_c37_k9_classes():
    g = from_tag("c37")
    found, stats = diffset.difference_set_search(g, 9, 2)
    assert len(found) == 4
    assert (stats.nodes, stats.hits) == (17185, 8)
    quartic = {pow(x, 4, 37) for x in range(1, 37)}
    translates = {tuple(sorted((q + x) % 37 for q in quartic)) for x in range(37)}
    assert sum(ds.elements in translates for ds in found) == 1
    assert all(is_difference_set(g, ds.elements, 2) for ds in found)


def test_lander_none_where_search_finds_sets():
    for tag, k, lam in ORACLE_CASES:
        g = _table(tag)
        if search_difference_sets(g, k, lam):
            assert lander_excluded(DesignParams(g.n, k, lam)) is None, tag


@pytest.mark.parametrize("k", [1, 0, -1])
def test_search_rejects_fewer_than_two_elements(k):
    with pytest.raises(InputError):
        search_difference_sets(cyclic(7), k, 0)


def test_group_order_cap():
    with pytest.raises(ScaleError):
        cyclic(GROUP_ORDER_CAP + 1)
    with pytest.raises(ScaleError):
        direct_product(cyclic(32), cyclic(GROUP_ORDER_CAP // 32 + 1))
    with pytest.raises(ScaleError):
        elementary_abelian(2, GROUP_ORDER_CAP.bit_length())
    with pytest.raises(ScaleError):
        elementary_abelian(2, 10**9)


def test_lander_witness_121():
    assert lander_excluded(DesignParams(121, 16, 2)) == LanderWitness(11, 2, 5)
    assert pow(2, 5, 11) == 11 - 1


def _lander_scan(p):
    # the first (pdiv, q, j) with q**j = -1 (mod pdiv), scanning every j
    sf = square_free_part(p.k - p.lam)
    qs = [q for q in range(2, sf + 1) if sf % q == 0 and is_prime(q)]
    for pdiv in range(3, p.v + 1):
        if p.v % pdiv:
            continue
        for q in qs:
            if pdiv % q:
                for j in range(1, pdiv):
                    if pow(q, j, pdiv) == pdiv - 1:
                        return LanderWitness(pdiv, q, j)
    return None


def test_lander_matches_exponent_scan():
    for k in range(3, 200):
        p = params_from_k(k)
        assert lander_excluded(p) == _lander_scan(p), k


def test_lander_none_where_sets_exist():
    assert lander_excluded(DesignParams(16, 6, 2)) is None
    assert lander_excluded(DesignParams(11, 5, 2)) is None
    assert lander_excluded(DesignParams(7, 4, 2)) is None
    assert lander_excluded(DesignParams(37, 9, 2)) is None


def test_from_tag():
    assert from_tag("c11").n == 11
    assert from_tag("c121ab").n == 121
    assert from_tag("e16").n == 16
    with pytest.raises(InputError, match=r"'c121ab', 'c2xc8', 'e16', 'q8xc2'\] and c<N>"):
        from_tag("nonsense")


# SHA-256 of repr(g.mul); every table is built from its definition, and these
# pin that the tables (and so the labels of every element) stay as they are.
TABLE_DIGESTS = {
    "c11": "af854f56ac40a40b9e3128281863c81e8437e6fecb81bd035a4ad13727495f26",
    "c121ab": "bba0747de9af8dd35bc02b77d3b60bf967636c2f5de024f182a1e3a6ac8aa7c4",
    "c16": "876cddb42047c1ee0d285afcd60c1637f86a48ca3bcc3276d1dfde407038ca95",
    "c2xc8": "06c128f34e401bfeac0557eef9a293eb839290e2d524ee297febbfc272278161",
    "c37": "d4f18cbeca5e43d847367b8611d3060c60d394c98aa0e21510a2aa4c13d5f77f",
    "e16": "e18045eb2accdb2c709bc48851fe7174db628cc56886ba243f92d0b55c490f94",
    "q8xc2": "e2ebd95bb152b4eb32ea997418bf0174254f7bbbf3228c835fa5239886d2857b",
    "q8": "3cf6df33eacfff323a764ebfd700a592b4aafd3b70197f3c66ae2af59d0d616a",
    (2, 1): "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461",
    (2, 2): "03dc126565fc1335976f09a73e2985526987d4db9118343fcab4dcd94abe455a",
    (2, 3): "3f285b4ed16ad3020ecde79db0d1cce796618db7d0bba10718ea281455e93e1c",
    (2, 4): "e18045eb2accdb2c709bc48851fe7174db628cc56886ba243f92d0b55c490f94",
    (2, 5): "c5ca0a4c2be269cebc775368b88bf87575057ea69f4f5796f7aae9766711c8f1",
    (2, 6): "f376ed53cfbcd556faa073137c471e8f9c756b1617a621ceebf2dde86e369ca6",
    (3, 2): "8fd2350da88e5c6eb071817ee312f26f7d0bd58c36851ace10e54d75e2a46206",
    (3, 3): "b20fce3c66790d3a97db175007295c43a8da4241bee431023fd450791c33d3c0",
    (5, 2): "eb0d041feefd0fc47575dbd6028100773d53982407ce01321a117e067424d588",
    (7, 2): "c8509bceb28a667c5ef6ea66989a79f821aa4fc6374a1204a407794f433aee9c",
}


@pytest.mark.parametrize("key", list(TABLE_DIGESTS), ids=str)
def test_table_digests_pinned(key):
    if key == "q8":
        g = quaternion8()
    elif isinstance(key, tuple):
        g = elementary_abelian(*key)
        assert g.name == f"elementary({key[0]},{key[1]})"
    else:
        g = from_tag(key)
    assert hashlib.sha256(repr(g.mul).encode()).hexdigest() == TABLE_DIGESTS[key]


@pytest.mark.parametrize("name,g", [
    ("c7", cyclic(7)), ("c8", cyclic(8)), ("q8", quaternion8()),
    ("e8", elementary_abelian(2, 3)), ("c2xc4", direct_product(cyclic(2), cyclic(4))),
])
def test_table_automorphisms_match_brute_force(name, g):
    autos = table_automorphisms(g)
    assert autos == brute_force_table_automorphisms(g)
    assert diffset._checked_automorphisms(g, autos) == tuple(autos)


ORDER16_AUT_ORDERS = {"c16": 8, "c2xc8": 16, "q8xc2": 192, "e16": 20160,
                      "c4xc4": 96, "c2xc2xc4": 192}


@pytest.mark.parametrize("tag", list(ORDER16_AUT_ORDERS))
def test_order16_automorphism_orders(tag):
    g = _table(tag)
    autos = table_automorphisms(g)
    assert len(autos) == ORDER16_AUT_ORDERS[tag]
    assert autos == sorted(set(autos))
    assert diffset._checked_automorphisms(g, autos) == tuple(autos)


def test_table_automorphisms_cap():
    assert diffset.TABLE_AUT_CAP == 16
    with pytest.raises(ScaleError, match="^table automorphism search capped at order 16$"):
        table_automorphisms(cyclic(17))
