"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated budget."""

import time

import pytest

from biplane import catalog, diffset
from biplane.aut import automorphism_group, canonical_form
from biplane.cartdecomp import (CartesianDecomposition, block_coordinate_pairs,
                                pell_brute_force, pell_solutions, preserved_by,
                                psp4_degree_excluded, verify_cartesian)
from biplane.design import (Design, DesignParams, brc_brute_force, brc_feasible,
                            params_from_k, verify_symmetric_design)
from biplane.diffset import lander_excluded
from biplane.errors import InputError
from biplane.fixcert import (admissible_cycle_types_121, certify_fix_lemmas,
                             check_79_order, certify_79, sylow_bounds_121)
from biplane.catalog import flag_orbit_count, primitive16_group
from oracles import brute_force_automorphism_order

TABLE1 = {4: 7, 5: 11, 6: 16, 9: 37, 11: 56, 13: 79, 16: 121}


class _Budget:
    def __init__(self, n, description, seconds):
        self.n, self.description, self.seconds = n, description, seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.n} {status} - {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.n} exceeded {self.seconds}s budget: {elapsed:.2f}s")
        return False


def test_criterion_1_catalog_integrity():
    with _Budget(1, "all six constructible designs verify with their parameters", 1.0):
        for name in catalog.constructible_names():
            d = catalog.build(name)
            assert verify_symmetric_design(d).ok, name
            assert d.params == catalog.entry(name).params


def test_criterion_2_three_isomorphism_classes():
    with _Budget(2, "exactly 3 classes of (16,6,2) biplanes from the three routes", 30.0):
        digests = set()
        for tag in ("c2xc8", "q8xc2"):
            group = diffset.from_tag(tag)
            found = diffset.search_difference_sets(group, 6, 2)
            assert found, tag
            for ds in found:
                digests.add(canonical_form(diffset.develop(ds)).digest)
        digests.add(canonical_form(catalog.build("biplane16_primitive")).digest)
        assert len(digests) == 3
        named = {canonical_form(catalog.build(n)).digest
                 for n in ("biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2")}
        assert named == digests and len(named) == 3
        assert digests == {  # pinned: primitive, C2 x C8, Q8 x C2
            "f43db628e7472be941b6b083177bd1a0adea662160e2e22ffd71a8e574088965",
            "2bc86d5d4eaa069a968d909df062b931a91c5570e96a9fb9e388c1b9b6687e3c",
            "0557c5b6e20a2c188d00f132630a73015a362c18f1dc4ff44a1a711d1ca3b0e8"}


def test_criterion_3_automorphism_orders():
    with _Budget(3, "automorphism orders, brute-force cross-check, flag transitivity", 120.0):
        fano = catalog.build("fano_complement")
        assert automorphism_group(fano).order == 168
        assert brute_force_automorphism_order(fano) == 168  # all 5040 permutations
        assert automorphism_group(catalog.build("hadamard11")).order == 660

        d16 = catalog.build("biplane16_primitive")
        full = automorphism_group(d16)
        sub = primitive16_group()
        assert full.order == 11520
        assert sub.order() == 1152
        assert full.order // sub.order() == 10
        assert all(g in full.group for g in sub.generators)
        assert flag_orbit_count(d16, sub) == 1  # flag-transitive subgroup

        assert automorphism_group(catalog.build("biplane16_c2c8")).order == 768
        q8 = catalog.build("biplane16_q8c2")
        q8_full = automorphism_group(q8)
        assert q8_full.order == 384
        assert flag_orbit_count(q8, q8_full.group) > 1  # not flag-transitive


def test_criterion_4_lemma_certification_sweep(aut_results):
    with _Budget(4, "all fixed-point checks pass for every group element", 300.0):
        total = 0
        failures = []
        for name in catalog.constructible_names():
            d = catalog.build(name)
            for g in aut_results[name].group.elements():
                if g.is_identity():
                    continue
                total += 1
                result = certify_fix_lemmas(d, g)
                if not result.ok:
                    failures.append((name, g.cycle_string(), result.failures()))
        assert total >= 12000, total
        assert not failures, failures[:3]


def test_criterion_5_121_pipeline():
    with _Budget(5, "(121,16,2): lander witness, sylow product, admissible tables", 5.0):
        witness = lander_excluded(DesignParams(121, 16, 2))
        assert witness == (11, 2, 5)

        bounds = sylow_bounds_121()
        product = 1
        for _, (bound, _) in bounds.items():
            product *= bound
        assert product == 5765760 == 2**7 * 3**2 * 5 * 7 * 11 * 13

        expected = {
            2: [{1: 13, 2: 54}, {1: 9, 2: 56}],
            4: [{1: 3, 2: 5, 4: 27}, {1: 7, 2: 3, 4: 27}, {1: 1, 2: 4, 4: 28}],
            8: [{1: 1, 4: 2, 8: 14}],
            3: [{1: 1, 3: 40}, {1: 7, 3: 38}],
            5: [{1: 1, 5: 24}],
            7: [{1: 2, 7: 17}],
            11: [{11: 11}],
            13: [{1: 4, 13: 9}],
        }
        for order, types in expected.items():
            got = [t.as_dict() for t in admissible_cycle_types_121(order)]
            assert got == types, order
            assert all(sum(l * m for l, m in t.items()) == 121 for t in got)
        for impossible in (16, 32, 9, 25, 49, 121, 169):
            assert admissible_cycle_types_121(impossible) == ()
        for p in (17, 19, 23, 29, 31, 37, 101):
            assert admissible_cycle_types_121(p) == ()
            assert p not in sylow_bounds_121()  # a trivial Sylow p-subgroup


def test_criterion_6_cartesian_decomposition(aut_results):
    with _Budget(6, "the 16-point decomposition and its preservation pattern", 1.0):
        cd = CartesianDecomposition(catalog.CART16_PARTITIONS)
        report = verify_cartesian(cd, 16)
        assert report.ok and report.homogeneous
        assert report.part_counts == (4, 4)  # c = 4, d = 2
        sub = primitive16_group()
        assert preserved_by(cd, sub)
        assert not preserved_by(cd, aut_results["biplane16_primitive"].group)
        d16 = catalog.build("biplane16_primitive")
        counts = block_coordinate_pairs(d16, cd, group=sub)
        assert counts == [6] * 16  # 2(c-1) = 6 for every block


def test_criterion_7_pell_suite():
    with _Budget(7, "Pell completeness to 1e5, exactness, residues, psp4", 10.0):
        limit = 10**5
        recurrence = sorted((s.x, s.y) for s in pell_solutions(12) if s.x <= limit)
        assert max(s.x for s in pell_solutions(12)) > limit  # enumeration overshoots
        brute = pell_brute_force(limit)
        assert recurrence == brute
        for s in pell_solutions(12):
            assert 8 * s.x * s.x - s.y * s.y == 7
            assert s.x % 3 in (1, 2)
        for q in (4, 8, 16, 32):
            assert psp4_degree_excluded(q).excluded


def test_criterion_8_feasibility():
    with _Budget(8, "BRC vs brute-force oracle for k <= 20, forced parameters", 5.0):
        assert brc_feasible(DesignParams(67, 12, 2)) is False
        for k in range(3, 21):
            p = params_from_k(k)
            assert brc_feasible(p) == brc_brute_force(p), k
        for k, v in TABLE1.items():
            assert params_from_k(k).v == v


def test_criterion_9_desk_scale_substitutes():
    # Existence of a (121,16,2) biplane and the (79,13,2) classification are
    # not reproducible at desk scale (exhaustive search infeasible); the
    # substitute is property enforcement plus rejection paths.
    with _Budget(9, "(79,13,2) property enforcement and rejection paths", 10.0):
        assert catalog.entry("biplane121").examples_for_params == "unknown"
        assert not catalog.entry("biplane79").constructible

        for order in (1, 3, 110):
            ok, _ = check_79_order(order)
            assert ok
        for order in (2, 9, 27, 55):
            ok, note = check_79_order(order)
            assert not ok and "contradicts" in note

        with pytest.raises(InputError):
            certify_79(catalog.build("fano_complement"))  # wrong parameters

        blocks = [tuple(((i + j) % 79) + 1 for j in range(13)) for i in range(79)]
        junk = Design(DesignParams(79, 13, 2), blocks)
        with pytest.raises(InputError):
            certify_79(junk)  # rejected before any automorphism search
