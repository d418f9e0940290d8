"""Fixed-point bookkeeping for biplane automorphisms, and certification of
the fixed-point theorems against concrete design/automorphism pairs.

Every check is an exact integer identity or inequality; a failing check on a
verified biplane with a genuine automorphism is a software bug, never new
mathematics: a design passes Design.require_verified and a permutation
Design.automorphism_actions before any check, so bad input is an InputError.
Checks whose hypotheses are not met report "n/a" with a reason instead of
silently passing; so do the checks that assume x != 1, for the identity.
The module also carries the admissible cycle types and Sylow bounds for a
hypothetical (121,16,2) biplane.

The counts come from one cycle walk (perm._cycles) of x on the points and
one of its block action, taken straight from Design.block_action (a map
that is no automorphism goes on to Design.automorphism_actions for the
InputError naming its first bad block). Each walk gives a cycle type and the
bitmasks Fix of the fixed elements and Two of the elements on 2-cycles.
Then s_B = |B & Fix| and r_B = |B & Two|/2 are popcounts against the
incidence bitmasks of Design.incidence, and dually s_a and r_a on the blocks
through a fixed point a. This is exact: a fixed block is x-invariant, so it
is a union of cycles, and every 2-cycle that meets it lies inside it. The
tail of a fixed block, its points off Fix, is one more mask operation.

Per element, x is the identity exactly when f = v, and every Check, n/a
ones included, is one tuple construction.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .design import Design, DesignParams, subdesign_constraint
from .errors import InputError
from .ntheory import is_prime, is_prime_power, is_square
from .perm import CycleType, Permutation, _cycles

PASS, FAIL, NA = "pass", "fail", "n/a"

# Records whose fields are right by construction are built as one tuple, as
# Permutation._trusted builds its permutations.
_new = tuple.__new__


class Check(NamedTuple):
    name: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


_INVOLUTION_CHECKS = ("involution-point-pattern", "involution-block-pattern",
                      "involution-square-branch", "involution-fixed-count-branch")

class CertResult(NamedTuple):
    checks: tuple[Check, ...]
    # the fixed-point report the checks were computed from (certify_fix_lemmas)
    report: FixReport | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]


class FixReport(NamedTuple):
    f_points: int
    f_blocks: int
    fixed_points: tuple[int, ...]
    fixed_blocks: tuple[int, ...]
    s_point: dict[int, int]
    r_point: dict[int, int]
    s_block: dict[int, int]
    r_block: dict[int, int]


def _walk(images, first: int) -> tuple[CycleType, tuple[int, ...], int, int]:
    """From one pass over the cycles of images (perm._cycles): the cycle
    type, the fixed elements in ascending order, and the bitmasks (bit i for
    element i) of the fixed elements and of the elements on 2-cycles."""
    counts: dict[int, int] = {}
    fixed = []
    fix = two = 0
    for c in _cycles(images, first):
        length = len(c)
        counts[length] = counts.get(length, 0) + 1
        if length == 1:
            fixed.append(c[0])
            fix |= 1 << c[0]
        elif length == 2:
            two |= 1 << c[0] | 1 << c[1]
    return _new(CycleType, (tuple(sorted(counts.items())),)), tuple(fixed), fix, two


def fix_report(d: Design, x: Permutation) -> FixReport:
    """Exact fixed-point/fixed-block statistics of an automorphism.

    For every fixed block B: s_B = # fixed points on B, r_B = # length-two
    <x>-orbits on B. For every fixed point a: the same counts on the set of
    blocks through a (in the induced block action).
    """
    return _report_and_cycle_types(d.require_verified(), x)[0]


def _report_and_cycle_types(d: Design, x: Permutation
                            ) -> tuple[FixReport, CycleType, CycleType, int, int]:
    """fix_report, with the cycle types of x on points and on blocks and the
    bitmasks of its fixed points and of the points on its 2-cycles, from one
    walk of each action and popcounts against the incidence bitmasks."""
    images = x.images
    blocks = d.block_action(images)
    if blocks is None:  # automorphism_actions names the first block mapped outside
        blocks = d.automorphism_actions([x])[0]
    tb, fixed_blocks, fix_b, two_b = _walk(blocks, 0)
    tp, fixed_points, fix_p, two_p = _walk(images, 1)
    through, points = d.incidence
    return _new(FixReport, (
        len(fixed_points), len(fixed_blocks), fixed_points, fixed_blocks,
        {p: (through[p] & fix_b).bit_count() for p in fixed_points},
        {p: (through[p] & two_b).bit_count() // 2 for p in fixed_points},
        {j: (points[j] & fix_p).bit_count() for j in fixed_blocks},
        {j: (points[j] & two_p).bit_count() // 2 for j in fixed_blocks},
    )), tp, tb, fix_p, two_p


def _bound_holds(f: int, k: int) -> bool:
    # f <= k + sqrt(k-2), exactly
    return f <= k or (f - k) ** 2 <= k - 2


def _require_biplane(d: Design) -> Design:
    """d, or InputError unless it is a verified biplane with k >= 4."""
    if d.lam != 2 or d.k < 4:
        raise InputError("fixed-point certification applies to biplanes with k >= 4")
    return d.require_verified()


def certify_fix_lemmas(d: Design, x: Permutation) -> CertResult:
    """Run every applicable fixed-point check for one automorphism of a biplane."""
    return _checks(_require_biplane(d), x)


def _checks(d: Design, x: Permutation) -> CertResult:
    """The checks of certify_fix_lemmas, on a d that is not verified here.
    Each Check is one tuple construction."""
    rep, tp, tb, fix_p, two_p = _report_and_cycle_types(d, x)
    f, f_blocks, fixed_points, fixed_blocks, s_point, r_point, s_block, r_block = rep
    k = d.k
    order = tp.order
    by_order = f"order {order}"
    identity = f == d.v
    points = d.incidence[1]

    # equal numbers of fixed points and fixed blocks
    checks = [_new(Check, ("equal-fixed-counts", PASS if f == f_blocks else FAIL,
                           f"points={f} blocks={f_blocks}"))]

    # identical cycle structure on points and on blocks
    if tp == tb:
        text = str(tp)
        checks.append(_new(Check, ("matching-cycle-structure", PASS,
                                   f"points={text} blocks={text}")))
    else:
        checks.append(_new(Check, ("matching-cycle-structure", FAIL, f"points={tp} blocks={tb}")))

    # incident fixed point/block pairs have the same number of 2-orbits; the
    # fixed blocks through a fixed point p number s_point[p]
    pairs = sum(s_point.values())
    if not pairs:
        checks.append(_new(Check, ("incident-two-orbit-counts", NA,
                                   "no incident fixed point/block pair")))
    else:
        bad = [(p, j) for p in fixed_points for j in fixed_blocks
               if points[j] >> p & 1 and r_point[p] != r_block[j]]
        checks.append(_new(Check, ("incident-two-orbit-counts", FAIL if bad else PASS,
                                   f"pairs={pairs} mismatches={bad[:3]}")))

    # f = s_B(s_B-1)/2 + r_B + 1 for every fixed block
    if not f_blocks:
        checks.append(_new(Check, ("fixed-block-count-formula", NA, "no fixed blocks")))
    else:
        bad = [j for j in fixed_blocks if f != s_block[j] * (s_block[j] - 1) // 2 + r_block[j] + 1]
        checks.append(_new(Check, ("fixed-block-count-formula", FAIL if bad else PASS,
                                   f"f={f} via blocks {dict(list(s_block.items())[:4])}")))

    # f = s_a(s_a-1)/2 + r_a + 1 for every fixed point
    if not f:
        checks.append(_new(Check, ("fixed-point-count-formula", NA, "no fixed points")))
    else:
        bad = [p for p in fixed_points if f != s_point[p] * (s_point[p] - 1) // 2 + r_point[p] + 1]
        checks.append(_new(Check, ("fixed-point-count-formula", FAIL if bad else PASS, f"f={f}")))

    # fixed substructure is a subdesign when no fixed block meets a 2-orbit
    checks.append(_new(Check, ("fixed-substructure", NA, "identity")) if identity
                  else _fixed_substructure(d, rep)[0])

    # with no 2-cycles anywhere: tails of fixed blocks (their points off Fix)
    # are pairwise disjoint, s is constant, and v >= f (k - s + 1)
    if not f_blocks:
        checks.append(_new(Check, ("no-two-cycle-tails", NA, "no fixed blocks")))
    elif two_p:
        checks.append(_new(Check, ("no-two-cycle-tails", NA,
                                   "cycle structure contains a 2-cycle")))
    else:
        seen, disjoint = 0, True
        for j in fixed_blocks:
            tail = points[j] & ~fix_p
            disjoint = disjoint and not tail & seen
            seen |= tail
        svals = set(s_block.values())
        s = next(iter(svals))
        bound = f_blocks * (k - s + 1)
        ok = disjoint and len(svals) == 1 and d.v >= bound
        checks.append(_new(Check, ("no-two-cycle-tails", PASS if ok else FAIL,
                                   f"disjoint={disjoint} s={sorted(svals)} v={d.v} "
                                   f"f(k-s+1)={bound}")))

    # involutions
    if order != 2:
        checks += [_new(Check, (name, NA, by_order)) for name in _INVOLUTION_CHECKS]
    elif not f:
        checks += [_new(Check, (name, NA, "no fixed points")) for name in _INVOLUTION_CHECKS]
    else:
        svals_p = set(s_point.values())
        pattern = len(svals_p) == 1 or svals_p <= {0, 2}
        formula = all(2 * f == k + 1 + (s - 1) ** 2 for s in s_point.values())
        checks.append(_new(Check, ("involution-point-pattern",
                                   PASS if pattern and formula else FAIL,
                                   f"s_values={sorted(svals_p)} f={f}")))
        svals_b = set(s_block.values())
        checks.append(_new(Check, ("involution-block-pattern",
                                   PASS if (len(svals_b) == 1 or svals_b <= {0, 2}) else FAIL,
                                   f"s_values={sorted(svals_b)}")))
        if k >= 5:
            bad = [p for p in fixed_points
                   if (s_point[p] - 2) ** 2 != k - 2 and (s_point[p] - 1) ** 2 > k - 5]
            checks.append(_new(Check, ("involution-square-branch", FAIL if bad else PASS,
                                       f"k={k} s_values={sorted(svals_p)}")))
            # rests on the same external square/non-square dichotomy as above,
            # so it carries the same k >= 5 gate
            branch = f <= k - 2 or (is_square(k - 2) and f == k + isqrt(k - 2))
            checks.append(_new(Check, ("involution-fixed-count-branch",
                                       PASS if branch else FAIL, f"f={f} k={k}")))
        else:
            checks.append(_new(Check, ("involution-square-branch", NA, "k < 5")))
            checks.append(_new(Check, ("involution-fixed-count-branch", NA, "k < 5")))

    # odd order: f = s_B(s_B-1)/2 + 1 and f <= k/2 unless k-2 is a square
    if order % 2 == 0:
        checks.append(_new(Check, ("odd-order-fixed-count-branch", NA, by_order)))
    elif identity:
        checks.append(_new(Check, ("odd-order-fixed-count-branch", NA, "identity")))
    elif not f:
        checks.append(_new(Check, ("odd-order-fixed-count-branch", NA, "no fixed points")))
    else:
        svals = set(s_block.values())
        s = s_block[fixed_blocks[0]]
        ok = len(svals) == 1 and f == s * (s - 1) // 2 + 1
        ok = ok and (2 * f <= k or (is_square(k - 2) and 2 * f == k + isqrt(k - 2)))
        checks.append(_new(Check, ("odd-order-fixed-count-branch", PASS if ok else FAIL,
                                   f"f={f} s={sorted(svals)}")))

    # global bound for any nontrivial automorphism
    if identity:
        checks.append(_new(Check, ("fixed-count-bound", NA, "identity")))
    else:
        ok = _bound_holds(f, k) and (k < 6 or 3 * f <= 4 * k)
        checks.append(_new(Check, ("fixed-count-bound", PASS if ok else FAIL,
                                   f"f={f} k+isqrt(k-2)={k + isqrt(k - 2)}")))

    # on v = p^2 points, order-p automorphisms are fixed-point-free
    if order * order == d.v and is_prime(order):
        checks.append(_new(Check, ("prime-square-fixed-point-free", PASS if f == 0 else FAIL,
                                   f"f={f}")))
    else:
        checks.append(_new(Check, ("prime-square-fixed-point-free", NA,
                                   "v is not p^2 with o(x) = p")))

    return _new(CertResult, (tuple(checks), rep))


def _fixed_substructure(d: Design, rep: FixReport) -> tuple[Check, Design | None]:
    """The fixed-substructure lemma for an automorphism x != 1 of d with the
    fixed-point report rep, as its check and the subdesign it finds.

    If x fixes some block, no fixed block carries a 2-orbit and every fixed
    block carries a fixed point, then every fixed block carries the same
    number s of fixed points, s satisfies subdesign_constraint with d's
    lambda, and for 2 <= s < f the f fixed points and fixed blocks form a
    symmetric (f, s, lambda) subdesign, which is returned; otherwise None.
    The subdesign numbers the fixed points 1..f in ascending order, and its
    blocks are the fixed points on each fixed block, in block order.
    """
    f, f_blocks, fixed_points, fixed_blocks, _, _, s_block, r_block = rep
    if not f_blocks:
        return _new(Check, ("fixed-substructure", NA, "no fixed blocks")), None
    if any(r_block.values()):
        return _new(Check, ("fixed-substructure", NA, "a fixed block carries a 2-orbit")), None
    if not all(s_block.values()):
        return _new(Check, ("fixed-substructure", NA,
                            "a fixed block carries no fixed point")), None
    svals = set(s_block.values())
    ok = len(svals) == 1
    s = s_block[fixed_blocks[0]]
    detail = f"s={sorted(svals)} f={f}"
    sub = None
    if ok:
        ok = subdesign_constraint(d.k, d.lam, s)
        detail += f" constraint={ok}"
    if ok and s >= 2 and f > s:
        label = {p: i for i, p in enumerate(fixed_points, 1)}
        blocks = [tuple(label[p] for p in d.blocks[j] if p in label) for j in fixed_blocks]
        ok = len(set(blocks)) == len(blocks) == f
        if ok:
            sub = Design(DesignParams(f, s, d.lam), blocks)
            ok = sub.verify_report.ok
        detail += f" subdesign={'yes' if ok else 'missing'}"
    return _new(Check, ("fixed-substructure", PASS if ok else FAIL, detail)), sub if ok else None


def fixed_subdesign(d: Design, x: Permutation) -> tuple[Design | None, str]:
    """The subdesign on (fixed points, fixed blocks), or None with a reason.

    The whole design for the identity; otherwise the subdesign of the
    fixed-substructure lemma (_fixed_substructure). Without one, the reason
    is the lemma's check text: the unmet hypothesis, or after "no subdesign: "
    the values of s and f that leave no restriction or no design.
    """
    rep = fix_report(d, x)
    if x.is_identity():
        return d, "identity: the whole design"
    check, sub = _fixed_substructure(d, rep)
    if sub is not None:
        return sub, "subdesign"
    return None, check.detail if check.status == NA else f"no subdesign: {check.detail}"


# ---------------------------------------------------------------------------
# (121,16,2): admissible cycle types of prime-power order automorphisms,
# and the Sylow bounds whose product is the divisor of any |Aut|.

def _ct(d: dict[int, int]) -> CycleType:
    ct = CycleType.from_dict(d)
    if ct.degree != 121:
        raise AssertionError(f"(121,16,2) cycle type has degree {ct.degree}")
    return ct


_ADMISSIBLE_121: dict[int, tuple[CycleType, ...]] = {
    2: (_ct({1: 13, 2: 54}), _ct({1: 9, 2: 56})),
    4: (_ct({1: 3, 2: 5, 4: 27}), _ct({1: 7, 2: 3, 4: 27}), _ct({1: 1, 2: 4, 4: 28})),
    8: (_ct({1: 1, 4: 2, 8: 14}),),
    3: (_ct({1: 1, 3: 40}), _ct({1: 7, 3: 38})),
    5: (_ct({1: 1, 5: 24}),),
    7: (_ct({1: 2, 7: 17}),),
    11: (_ct({11: 11}),),
    13: (_ct({1: 4, 13: 9}),),
}

SYLOW_BOUNDS_121: dict[int, tuple[int, str]] = {
    2: (2**7, "any"),
    3: (9, "elementary abelian"),
    5: (5, "cyclic"),
    7: (7, "cyclic"),
    11: (11, "cyclic"),
    13: (13, "cyclic"),
}

# Landau's g(121): the largest element order in Sym(121), the largest product
# of prime powers with distinct primes summing to at most 121.
LANDAU_121 = 5354228880


def admissible_cycle_types_121(order: int) -> tuple[CycleType, ...]:
    """Admissible cycle types on 121 points for an automorphism of the given
    prime-power order; the empty tuple means the order is impossible.
    Orders above LANDAU_121 are impossible on 121 points and are not factored."""
    if order > LANDAU_121:
        return ()
    if order < 2 or is_prime_power(order) is None:
        raise InputError(f"{order} is not a prime power >= 2")
    return _ADMISSIBLE_121.get(order, ())


def sylow_bounds_121() -> dict[int, tuple[int, str]]:
    """Maximal Sylow p-subgroup order and structure for a (121,16,2) biplane."""
    return dict(SYLOW_BOUNDS_121)


# ---------------------------------------------------------------------------
# (79,13,2) classification checks

ALLOWED_79_ORDERS = (1, 3, 110)


class Classification79(NamedTuple):
    order: int
    order_allowed: bool
    three_element_checks: tuple[Check, ...]
    consistent: bool
    note: str


def check_79_order(order: int) -> tuple[bool, str]:
    """Is an automorphism group order consistent with the (79,13,2) theorem?"""
    if order in ALLOWED_79_ORDERS:
        tag = {1: "trivial group", 3: "subgroup of the cyclic group of order 3",
               110: "the known intransitive example of order 110"}[order]
        return True, tag
    return False, (f"order {order} contradicts the classification "
                   f"(allowed: {ALLOWED_79_ORDERS}); bug or discovery")


def certify_79(d: Design) -> Classification79:
    """Classify the automorphism group of a (79,13,2) biplane.

    The order must be 1, 3 or 110; in the 3-group cases every nontrivial
    element must fix exactly one point and one block, which are incident.
    A structure that does not verify is refused by the search's gate.
    """
    if d.params.as_tuple() != (79, 13, 2):
        raise InputError(f"parameters {d.params.as_tuple()} are not (79,13,2)")
    from .aut import automorphism_group  # the other certificates need no search

    res = automorphism_group(d)
    order_allowed, note = check_79_order(res.order)
    checks: list[Check] = []
    if res.order in (1, 3):
        for g in res.group.elements():
            if g.is_identity():
                continue
            rep = fix_report(d, g)
            ok = (rep.f_points == 1 and rep.f_blocks == 1
                  and rep.fixed_points[0] in d.blocks[rep.fixed_blocks[0]])
            checks.append(Check("one-fixed-flag", PASS if ok else FAIL,
                                f"f_points={rep.f_points} f_blocks={rep.f_blocks}"))
    consistent = order_allowed and all(c.ok for c in checks)
    return Classification79(order=res.order, order_allowed=order_allowed,
                            three_element_checks=tuple(checks),
                            consistent=consistent, note=note)
