import hashlib
import random
from math import lcm, prod

import pytest

from biplane import catalog
from biplane.design import Design, DesignParams
from biplane.errors import InputError
from biplane.fixcert import (ALLOWED_79_ORDERS, LANDAU_121, Check,
                             admissible_cycle_types_121, certify_79, certify_fix_lemmas,
                             _bound_holds, _checks, _walk, check_79_order, fix_report,
                             fixed_subdesign, sylow_bounds_121)
from biplane.ntheory import is_prime
from biplane.perm import CycleType, Permutation, cycle_type
from oracles import (certify_conjugacy_bound, check_named, induced_block_permutation, inverse,
                     landau, orbit_walk_fix_report, reference_walk, restrict_subdesign)


def test_fix_report_identity():
    d = catalog.build("biplane16_c2c8")
    rep = fix_report(d, Permutation.identity(16))
    assert rep.f_points == rep.f_blocks == 16
    assert all(s == 6 for s in rep.s_point.values())  # every point lies on k blocks


# SHA-256 of the reprs, report included, of certify_fix_lemmas over the loop
# of test_fix_report_matches_orbit_walk: every status, detail text and report
# of the 27,654 certificates, byte for byte.
CERTIFICATE_DIGEST = "c211bda60688dae4a8f817fdd758927c55c2c7edab0a1429e2596821fdda6eaa"


def test_fix_report_matches_orbit_walk(aut_results):
    # every non-identity element of the six catalog groups, on the catalog
    # labeling and, conjugated, on one relabeled copy; repr also pins the
    # order of the s/r dictionaries. The report is the one certify_fix_lemmas
    # returns (fix_report computes it the same way), and the certificate
    # reprs are hashed against CERTIFICATE_DIGEST.
    digest = hashlib.sha256()
    rng = random.Random(5)
    for name, result in aut_results.items():
        d = catalog.build(name)
        images = list(range(1, d.v + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        sigma_inv = inverse(sigma)
        relabeled = d.relabel(sigma)
        for g in result.group.elements():
            if g.is_identity():
                continue
            for dd, x in ((d, g), (relabeled, sigma * g * sigma_inv)):
                cert = certify_fix_lemmas(dd, x)
                assert repr(cert.report) == repr(orbit_walk_fix_report(dd, x)), (name, x)
                digest.update(repr(cert).encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST


def test_walk_matches_reference_kernel():
    # 160 seeded random permutations of degree 1 to 40, walked 1-based as
    # point images and 0-based as a block action
    rng = random.Random(26)
    for _ in range(160):
        images = list(range(1, rng.randint(1, 40) + 1))
        rng.shuffle(images)
        for first, table in ((1, images), (0, [q - 1 for q in images])):
            assert repr(_walk(table, first)) == repr(reference_walk(table, first)), table


def test_identity_certifies_on_every_catalog_design():
    for name in catalog.constructible_names():
        d = catalog.build(name)
        result = certify_fix_lemmas(d, Permutation.identity(d.v))
        assert result.ok, (name, result.failures())
        for check in ("fixed-substructure", "odd-order-fixed-count-branch",
                      "fixed-count-bound"):
            assert check_named(result, check) == Check(check, "n/a", "identity"), name


def test_fix_report_rejects_non_automorphism():
    d = catalog.build("fano_complement")
    with pytest.raises(InputError):
        fix_report(d, Permutation.from_cycles("(1,2)", 7))


def test_certify_names_why_a_permutation_is_refused():
    # the texts of Design.automorphism_actions and Design.block_action, which
    # certify_fix_lemmas reaches only when the block action fails
    d = catalog.build("fano_complement")
    with pytest.raises(InputError) as exc:
        certify_fix_lemmas(d, Permutation.from_cycles("(1,2)", 7))
    assert str(exc.value) == "not an automorphism: block (1, 3, 4, 6) maps outside the design"
    with pytest.raises(InputError) as exc:
        certify_fix_lemmas(d, Permutation([2, 1, 3]))
    assert str(exc.value) == "permutation degree 3 != v = 7"


def test_induced_block_permutation_input_errors():
    d = catalog.build("fano_complement")
    with pytest.raises(InputError, match="permutation degree 3 != v = 7"):
        induced_block_permutation(d, Permutation([2, 1, 3]))
    with pytest.raises(InputError, match=r"block \(1, 3, 4, 6\) maps outside"):
        induced_block_permutation(d, Permutation.from_cycles("(1,2)", 7))


def test_block_and_point_cycle_types_agree(aut_results):
    d = catalog.build("hadamard11")
    for g in aut_results["hadamard11"].group.generators:
        assert cycle_type(g) == cycle_type(induced_block_permutation(d, g))


def test_fixed_point_free_involution_has_no_fixed_blocks(aut_results):
    d = catalog.build("biplane16_c2c8")
    hit = None
    for g in aut_results["biplane16_c2c8"].group.elements():
        if g.order() == 2 and not g.fixed_points():
            hit = g
            break
    assert hit is not None
    rep = fix_report(d, hit)
    assert rep.f_points == rep.f_blocks == 0


def test_odd_order_fixed_count_formula(aut_results):
    # every order-3 element of the (37,9,2) group fixes exactly one point;
    # the fixed-block formula then forces s_B = 0 on its unique fixed block
    d = catalog.build("biplane37_qr")
    seen = 0
    for g in aut_results["biplane37_qr"].group.elements():
        if g.order() != 3:
            continue
        seen += 1
        rep = fix_report(d, g)
        assert rep.f_points == rep.f_blocks == 1
        s = rep.s_block[rep.fixed_blocks[0]]
        assert rep.f_blocks == s * (s - 1) // 2 + 1
    assert seen > 0


def test_involution_with_s4_fixes_eight(aut_results):
    # k = 6 and k - 2 = 4 a square: an involution with s_alpha = 4 fixes
    # exactly k + 2 = 8 points
    d = catalog.build("biplane16_primitive")
    hits = 0
    for g in aut_results["biplane16_primitive"].group.elements():
        if g.order() != 2:
            continue
        rep = fix_report(d, g)
        if rep.f_points and 4 in rep.s_point.values():
            assert rep.f_points == 8 == d.k + 2
            hits += 1
    assert hits > 0


def test_certify_all_checks_pass_fano(aut_results):
    d = catalog.build("fano_complement")
    for g in aut_results["fano_complement"].group.elements():
        if g.is_identity():
            continue
        result = certify_fix_lemmas(d, g)
        assert result.ok, (g.cycle_string(), result.failures())


def test_certify_rejects_non_biplane():
    complete4 = Design(DesignParams(4, 3, 2), [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    with pytest.raises(InputError):
        certify_fix_lemmas(complete4, Permutation.identity(4))


def test_certify_gates_report_na(aut_results):
    d = catalog.build("biplane37_qr")
    g = next(g for g in aut_results["biplane37_qr"].group.elements() if g.order() == 37)
    result = certify_fix_lemmas(d, g)
    assert result.ok
    assert check_named(result, "incident-two-orbit-counts").status == "n/a"
    assert check_named(result, "involution-point-pattern").status == "n/a"


def test_fixed_subdesign_identity():
    d = catalog.build("fano_complement")
    sub, reason = fixed_subdesign(d, Permutation.identity(7))
    assert sub is d and "identity" in reason


def test_fixed_subdesign_involution_gate(aut_results):
    # involutions on an odd-sized block always carry a 2-orbit, so the
    # hypothesis gate must fire
    d = catalog.build("hadamard11")
    inv = next(g for g in aut_results["hadamard11"].group.elements() if g.order() == 2)
    sub, reason = fixed_subdesign(d, inv)
    assert sub is None and reason == "a fixed block carries a 2-orbit"


def test_fixed_subdesign_nondegenerate(aut_results):
    d = catalog.build("biplane16_primitive")
    hit = None
    for g in aut_results["biplane16_primitive"].group.elements():
        if g.is_identity() or g.order() % 2 == 0:
            continue
        sub, reason = fixed_subdesign(d, g)
        if sub is not None:
            hit = (g, sub)
            break
    assert hit is not None
    assert hit[1].params.as_tuple() == (4, 3, 2)


def test_fixed_subdesign_equals_the_oracle_restriction(aut_results):
    # every subdesign the lemma finds for a non-identity element of the six
    # catalog groups, fixed points and fixed blocks in the same order, is the
    # reference restriction to them
    found = 0
    for name, result in aut_results.items():
        d = catalog.build(name)
        for g in result.group.elements():
            if g.is_identity():
                continue
            sub, reason = fixed_subdesign(d, g)
            if sub is not None:
                rep = fix_report(d, g)
                assert reason == "subdesign", (name, g)
                assert sub == restrict_subdesign(d, rep.fixed_points, rep.fixed_blocks), (name, g)
                found += 1
    assert found == 192


def test_fixed_subdesign_degenerate_reason(aut_results):
    d = catalog.build("biplane37_qr")
    g = next(g for g in aut_results["biplane37_qr"].group.elements() if g.order() == 3)
    sub, reason = fixed_subdesign(d, g)
    assert sub is None and reason == "a fixed block carries no fixed point"
    # an order-3 element of the Fano complement fixes one point on one block:
    # the lemma holds, but one point carries no subdesign
    d = catalog.build("fano_complement")
    g = next(g for g in aut_results["fano_complement"].group.elements() if g.order() == 3)
    sub, reason = fixed_subdesign(d, g)
    assert sub is None and reason == "no subdesign: s=[1] f=1 constraint=True"
    assert check_named(certify_fix_lemmas(d, g), "fixed-substructure").status == "pass"


def test_conjugacy_bound_hadamard11(aut_results):
    d = catalog.build("hadamard11")
    group = aut_results["hadamard11"].group
    inv = next(g for g in group.elements() if g.order() == 2)
    result = certify_conjugacy_bound(d, group, inv)
    assert result.ok
    assert check_named(result, "orbit-ratio-identity").status == "pass"


def test_conjugacy_bound_biplane16(aut_results):
    d = catalog.build("biplane16_primitive")
    group = catalog.primitive16_group()
    a4 = Permutation.from_cycles(catalog.PRIMITIVE16_GENERATORS[3], 16)
    result = certify_conjugacy_bound(d, group, a4)
    assert result.ok


def test_conjugacy_bound_not_applicable_when_fixed_point_free(aut_results):
    d = catalog.build("hadamard11")
    group = aut_results["hadamard11"].group
    g11 = next(g for g in group.elements() if g.order() == 11)
    result = certify_conjugacy_bound(d, group, g11)
    assert all(c.status == "n/a" for c in result.checks)


# -- (121,16,2) tables -------------------------------------------------------

ADMISSIBLE_CASES = [
    (2, [{1: 13, 2: 54}, {1: 9, 2: 56}]),
    (4, [{1: 3, 2: 5, 4: 27}, {1: 7, 2: 3, 4: 27}, {1: 1, 2: 4, 4: 28}]),
    (8, [{1: 1, 4: 2, 8: 14}]),
    (16, []),
    (32, []),
    (3, [{1: 1, 3: 40}, {1: 7, 3: 38}]),
    (9, []),
    (5, [{1: 1, 5: 24}]),
    (25, []),
    (7, [{1: 2, 7: 17}]),
    (49, []),
    (11, [{11: 11}]),
    (121, []),
    (13, [{1: 4, 13: 9}]),
    (169, []),
    (17, []),
    (19, []),
    (127, []),
]


@pytest.mark.parametrize("order,expected", ADMISSIBLE_CASES)
def test_admissible_types_121(order, expected):
    got = [t.as_dict() for t in admissible_cycle_types_121(order)]
    assert got == expected


def test_prime_order_types_121_derived_from_lemmas():
    # An automorphism of prime order p of a (121,16,2) biplane has f fixed
    # points and (121 - f)/p p-cycles, so f = 121 (mod p). The certified
    # lemmas (fixed-count-bound, prime-square-fixed-point-free, the two
    # involution branches, odd-order-fixed-count-branch) leave the table's
    # prime rows. For odd p a fixed block is a union of cycles, so its k - s
    # points off the fixed points fill p-cycles: without that condition
    # order 3 would gain f = 4, order 17 f = 2 and order 19 f = 7. Only
    # p = 11 divides 121, so every other row has f > 0, where the involution
    # and odd-order lemmas apply.
    v, k = 121, 16
    primes = [p for p in range(2, v + 1) if is_prime(p)]
    assert len(primes) == 30
    possible = []
    for p in primes:
        fixed_counts = []
        for f in range(v + 1):
            if (v - f) % p or not _bound_holds(f, k) or 3 * f > 4 * k:
                continue
            if p * p == v:
                ok = f == 0
            elif p == 2:
                ok = f <= k - 2 and any(2 * f == k + 1 + (s - 1) ** 2 for s in range(k + 1))
            else:
                ok = 2 * f <= k and any(f == s * (s - 1) // 2 + 1 and (k - s) % p == 0
                                        for s in range(k + 1))
            if ok:
                fixed_counts.append(f)
        derived = {CycleType.from_dict({1: f, p: (v - f) // p}) for f in fixed_counts}
        table = admissible_cycle_types_121(p)
        assert len(table) == len(derived) and set(table) == derived, p
        if derived:
            possible.append(p)
    assert possible == [2, 3, 5, 7, 11, 13]


def test_admissible_types_sum_to_121():
    for order in (2, 3, 4, 5, 7, 8, 11, 13):
        for t in admissible_cycle_types_121(order):
            assert t.degree == 121


def test_admissible_rejects_non_prime_power():
    for bad in (1, 6, 12, 100):
        with pytest.raises(InputError):
            admissible_cycle_types_121(bad)


def _partition_lcms(n: int, largest: int):
    """lcm of the parts of every partition of n into parts <= largest."""
    if n == 0:
        yield 1
    for part in range(1, min(n, largest) + 1):
        for rest in _partition_lcms(n - part, part):
            yield lcm(part, rest)


def test_landau_121_derived():
    assert [landau(n) for n in range(26)] == [max(_partition_lcms(n, n)) for n in range(26)]
    assert LANDAU_121 == landau(121) == 5354228880


def test_admissible_orders_above_landau_not_factored():
    # 2**50 is past FACTORIZE_CAP, and LANDAU_121 + 1 is not a prime power:
    # neither is factored, since no element of Sym(121) has such an order
    for order in (LANDAU_121 + 1, 2**50, 10**30):
        assert admissible_cycle_types_121(order) == ()
    with pytest.raises(InputError):
        admissible_cycle_types_121(LANDAU_121)


def test_squaring_consistency():
    order2 = set(admissible_cycle_types_121(2))
    for t in admissible_cycle_types_121(4):
        assert t.power(2) in order2
    order4 = set(admissible_cycle_types_121(4))
    for t in admissible_cycle_types_121(8):
        assert t.power(2) in order4
    assert (CycleType.from_dict({1: 1, 4: 2, 8: 14}).power(2)
            == CycleType.from_dict({1: 1, 2: 4, 4: 28}))


def test_sylow_bounds_product():
    bounds = sylow_bounds_121()
    divisor = prod(bound for bound, _ in bounds.values())
    assert divisor == 5765760 == 2**7 * 3**2 * 5 * 7 * 11 * 13
    assert divisor == catalog.entry("biplane121").expected["aut_order_divides"]
    assert bounds[3] == (9, "elementary abelian")
    assert bounds[11] == (11, "cyclic")


def test_sylow_bound_other_primes_trivial():
    bounds = sylow_bounds_121()
    assert sorted(bounds) == [2, 3, 5, 7, 11, 13]  # a Sylow 17-subgroup is trivial
    assert bounds[11] == (11, "cyclic")


# -- (79,13,2) ---------------------------------------------------------------

def test_check_79_orders():
    for order in ALLOWED_79_ORDERS:
        ok, _ = check_79_order(order)
        assert ok
    for order in (2, 5, 9, 27, 55, 220):
        ok, note = check_79_order(order)
        assert not ok and "contradicts" in note


def test_certify_79_rejects_wrong_params():
    with pytest.raises(InputError):
        certify_79(catalog.build("fano_complement"))


def test_certify_79_rejects_non_verifying_structure():
    # right shape, wrong combinatorics: blocks are 13-point arithmetic windows
    blocks = [tuple(((i + j) % 79) + 1 for j in range(13)) for i in range(79)]
    junk = Design(DesignParams(79, 13, 2), blocks)
    with pytest.raises(InputError):
        certify_79(junk)


def test_prime_square_check_branches():
    # the development of a 16-subset of Z/121 (not a biplane) only has to
    # carry the hypotheses: v = 11^2, translations of order 11 and 121; no
    # (121,16,2) biplane is known, so the checks run past the gate of
    # certify_fix_lemmas, which refuses this structure
    base = (0, 1, 3, 7, 12, 20, 30, 44, 65, 80, 96, 100, 105, 110, 115, 118)
    d = Design(DesignParams(121, 16, 2),
               [tuple(sorted((b + t) % 121 + 1 for b in base)) for t in range(121)])
    na = Check("prime-square-fixed-point-free", "n/a", "v is not p^2 with o(x) = p")
    for shift, want in ((0, na), (1, na),
                        (11, Check("prime-square-fixed-point-free", "pass", "f=0"))):
        x = Permutation((p + shift) % 121 + 1 for p in range(121))
        checks = _checks(d, x).checks
        assert [c for c in checks if c.name == want.name] == [want]
