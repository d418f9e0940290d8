"""The input gate on Design: every search and certificate refuses a structure
that is not a verified symmetric design, and a group or permutation that is
not made of automorphisms, with InputError; no fail status and no
AssertionError comes from such input."""

import ast
import pathlib
import time

import pytest

from biplane import catalog
from biplane.aut import automorphism_group, canonical_form, isomorphism
from biplane.cartdecomp import CartesianDecomposition, block_coordinate_pairs, pell_solutions
from biplane.catalog import flag_orbit_count
from biplane.design import (Design, DesignParams, brc_brute_force, dual, k_for_point_power,
                            restrict_subdesign, verify_symmetric_design)
from biplane.diffset import cyclic, elementary_abelian, is_difference_set, lander_excluded
from biplane.errors import InputError
from biplane.fixcert import (certify_79, certify_conjugacy_bound, certify_fix_lemmas,
                             fix_report, fixed_subdesign)
from biplane.ntheory import factorize
from biplane.perm import PermGroup, Permutation
from oracles import induced_block_permutation


def _point(i, j):
    return 4 * (i % 4) + j % 4 + 1


def _translation(a, b):
    return Permutation(_point(i + a, j + b) for i in range(4) for j in range(4))


# The translates of a 6-subset of Z4 x Z4 that is not a difference set: a
# (16,6,2)-shaped structure that does not verify, with the transitive group
# of translations as automorphisms. The translations preserve the
# rows/columns decomposition, and every block has 9 pairs sharing a row or a
# column, not 2(c-1) = 6.
_BASE = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0))
JUNK16 = Design(DesignParams(16, 6, 2),
                [tuple(sorted(_point(i + a, j + b) for i, j in _BASE))
                 for a in range(4) for b in range(4)])
TRANSLATIONS = PermGroup(16, [_translation(1, 0), _translation(0, 1)])
X = _translation(1, 0)
ROWS_COLUMNS = CartesianDecomposition([
    [{_point(i, j) for j in range(4)} for i in range(4)],
    [{_point(i, j) for i in range(4)} for j in range(4)]])

# 13-point arithmetic windows mod 79: the right shape, wrong combinatorics
JUNK79 = Design(DesignParams(79, 13, 2),
                [tuple(((i + j) % 79) + 1 for j in range(13)) for i in range(79)])

GATE = r"^not a symmetric \((16,6|79,13),2\) design; first violation \("


@pytest.mark.parametrize("call", [
    pytest.param(lambda: automorphism_group(JUNK16), id="automorphism_group"),
    pytest.param(lambda: canonical_form(JUNK16), id="canonical_form"),
    pytest.param(lambda: isomorphism(JUNK16, JUNK16), id="isomorphism"),
    pytest.param(lambda: dual(JUNK16), id="dual"),
    pytest.param(lambda: fix_report(JUNK16, X), id="fix_report"),
    pytest.param(lambda: certify_fix_lemmas(JUNK16, X), id="certify_fix_lemmas"),
    pytest.param(lambda: fixed_subdesign(JUNK16, X), id="fixed_subdesign"),
    # the test oracle, through the package's one path to a block action
    pytest.param(lambda: induced_block_permutation(JUNK16, X),
                 id="induced_block_permutation"),
    pytest.param(lambda: certify_conjugacy_bound(JUNK16, TRANSLATIONS, X),
                 id="certify_conjugacy_bound"),
    pytest.param(lambda: flag_orbit_count(JUNK16, TRANSLATIONS), id="flag_orbit_count"),
    pytest.param(lambda: block_coordinate_pairs(JUNK16, ROWS_COLUMNS, group=TRANSLATIONS),
                 id="block_coordinate_pairs"),
    pytest.param(lambda: block_coordinate_pairs(JUNK16, ROWS_COLUMNS),
                 id="block_coordinate_pairs_without_group"),
    pytest.param(lambda: certify_79(JUNK79), id="certify_79"),
])
def test_every_entry_point_refuses_a_non_design(call):
    assert not verify_symmetric_design(JUNK16).ok
    assert X in TRANSLATIONS and TRANSLATIONS.is_transitive()
    assert all(JUNK16.block_action(g.images) for g in TRANSLATIONS.generators)
    with pytest.raises(InputError, match=GATE):
        call()


D16 = catalog.build("biplane16_primitive")
IDENTITY16 = Permutation.identity(16)
# (16,5,2): k(k-1) = 20 != lambda(v-1) = 30
NOT_FEASIBLE = DesignParams(16, 5, 2)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: restrict_subdesign(D16, [0, 1], [0]),
                 "restriction points out of range", id="restrict_subdesign-point"),
    pytest.param(lambda: restrict_subdesign(D16, [1, 2], [16]),
                 "restriction block indices out of range", id="restrict_subdesign-block"),
    pytest.param(lambda: PermGroup(16, [Permutation.identity(15)]),
                 "generator degree 15 does not match group degree 16", id="PermGroup"),
    pytest.param(lambda: Permutation([1, 1, 2]),
                 "not a permutation of 1..3: (1, 1, 2)", id="Permutation"),
    pytest.param(lambda: certify_conjugacy_bound(D16, PermGroup(15, []), IDENTITY16),
                 "group degree does not match design", id="certify_conjugacy_bound-degree"),
    pytest.param(lambda: certify_conjugacy_bound(D16, PermGroup(16, []), IDENTITY16),
                 "conjugacy bound requires a transitive group",
                 id="certify_conjugacy_bound-intransitive"),
    pytest.param(lambda: certify_conjugacy_bound(D16, catalog.primitive16_group(),
                                                 Permutation.from_cycles("(1,2)", 16)),
                 "element is not in the group", id="certify_conjugacy_bound-element"),
    pytest.param(lambda: block_coordinate_pairs(
        D16, CartesianDecomposition(catalog.CART16_PARTITIONS), PermGroup(16, [])),
        "supplied group is not transitive", id="block_coordinate_pairs-trivial-group"),
    pytest.param(lambda: flag_orbit_count(D16, PermGroup(15, [])),
                 "group degree does not match the design", id="flag_orbit_count"),
    pytest.param(lambda: cyclic(0), "cyclic group order must be positive", id="cyclic"),
    pytest.param(lambda: elementary_abelian(1, 2),
                 "elementary abelian group needs p >= 2 and k >= 1", id="elementary_abelian"),
    pytest.param(lambda: is_difference_set(cyclic(7), [0], 2),
                 "difference set needs at least two elements", id="is_difference_set"),
    pytest.param(lambda: lander_excluded(NOT_FEASIBLE),
                 "DesignParams(v=16, k=5, lam=2) is not symmetric-feasible", id="lander_excluded"),
    pytest.param(lambda: brc_brute_force(NOT_FEASIBLE),
                 "DesignParams(v=16, k=5, lam=2) is not symmetric-feasible", id="brc_brute_force"),
    pytest.param(lambda: k_for_point_power(1, 2), "need c >= 2 and d >= 2",
                 id="k_for_point_power"),
    pytest.param(lambda: pell_solutions(-1), "n_max must be nonnegative", id="pell_solutions"),
    pytest.param(lambda: factorize(0), "cannot factorize 0", id="factorize"),
])
def test_library_refusals(call, message):
    # refusals of the library's other entry points, each with its exact text
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_certificate_on_a_non_design_is_refused_not_failed():
    # {1,2,3,x} for x = 4..7 with the automorphism (4,5): without the gate,
    # seven checks report fail
    d = Design(DesignParams(7, 4, 2), [(1, 2, 3, x) for x in range(4, 8)])
    with pytest.raises(InputError, match=r"^not a symmetric \(7,4,2\) design; "
                                         r"first violation \('block-count', None, 4, 7\)$"):
        certify_fix_lemmas(d, Permutation.from_cycles("(4,5)", 7))


def test_certificates_refuse_a_verified_non_biplane():
    # all 11-subsets of 12 points form a symmetric (12,11,10) design; S3 x C4
    # on 3 x 4 points is a transitive group of automorphisms, and without the
    # biplane condition its transposition gives conjugate-count-block-bound
    # fail (k=11 u=3)
    d = Design(DesignParams(12, 11, 10),
               [tuple(p for p in range(1, 13) if p != q) for q in range(1, 13)])
    assert verify_symmetric_design(d).ok

    def point_map(f):
        return Permutation(4 * i + j + 1 for i, j in (f(p // 4, p % 4) for p in range(12)))

    x = point_map(lambda i, j: ((1, 0, 2)[i], j))
    group = PermGroup(12, [x, point_map(lambda i, j: ((i + 1) % 3, j)),
                           point_map(lambda i, j: (i, (j + 1) % 4))])
    assert group.is_transitive() and x in group
    for call in (lambda: certify_conjugacy_bound(d, group, x),
                 lambda: certify_fix_lemmas(d, x)):
        with pytest.raises(InputError, match="^fixed-point certification applies to "
                                             "biplanes with k >= 4$"):
            call()


def test_conjugacy_bound_refuses_non_automorphism_generators_fast():
    # <involution, 16-cycle> is Sym(16): the involution's class in it has
    # 1,351,350 elements, and it is never enumerated
    d = catalog.build("biplane16_primitive")
    inv = Permutation.from_cycles("(1,2)(3,4)(5,6)(7,8)", 16)
    assert d.block_action(inv.images) is not None
    group = PermGroup(16, [inv, Permutation(list(range(2, 17)) + [1])])
    start = time.perf_counter()
    with pytest.raises(InputError, match=r"^not an automorphism: block \(1, 2, 9, 12, 14, 16\) "
                                         r"maps outside the design$"):
        certify_conjugacy_bound(d, group, inv)
    assert time.perf_counter() - start < 1.0


def test_block_coordinate_pairs_refuses_group_not_preserving(aut_results):
    d = catalog.build("biplane16_primitive")
    cd = CartesianDecomposition(catalog.CART16_PARTITIONS)
    with pytest.raises(InputError, match="^supplied group does not preserve the decomposition$"):
        block_coordinate_pairs(d, cd, group=aut_results["biplane16_primitive"].group)


def _verify_calls(node) -> int:
    return sum(1 for n in ast.walk(node) if isinstance(n, ast.Call)
               and getattr(n.func, "id", getattr(n.func, "attr", None))
               == "verify_symmetric_design")


def test_verification_only_in_design_and_cli_verify():
    # the gate stays in one place: outside design.py only the handler of
    # `biplane verify` calls verify_symmetric_design
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "biplane"
    calls = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        handler = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                   and f.name == "_cmd_verify"]
        if path.name != "design.py" and _verify_calls(tree):
            calls[path.name] = (_verify_calls(tree), sum(map(_verify_calls, handler)))
    assert calls == {"cli.py": (1, 1)}
