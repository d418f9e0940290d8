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

The counts come from one cycle walk of x on the points and one of its
block action (Design.automorphism_actions), each giving a cycle type and the
bitmasks Fix of the fixed elements and Two of the elements on 2-cycles.
Then s_B = |B & Fix| and r_B = |B & Two|/2 are popcounts against the
incidence bitmasks of Design.incidence, and dually s_a and r_a on the blocks
through a fixed point a. This is exact: a fixed block is x-invariant, so it
is a union of cycles, and every 2-cycle that meets it lies inside it.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import NamedTuple

from .design import Design, restrict_subdesign, subdesign_constraint
from .errors import InputError
from .ntheory import is_prime, is_prime_power, is_square
from .perm import CycleType, Permutation, PermGroup, _cycles

PASS, FAIL, NA = "pass", "fail", "n/a"


class Check(NamedTuple):
    name: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


class CertResult(NamedTuple):
    checks: tuple[Check, ...]
    # the fixed-point report the checks were computed from (certify_fix_lemmas);
    # equality and hashing read the checks alone
    report: FixReport | None = None

    def __eq__(self, other):
        if isinstance(other, CertResult):
            return self.checks == other.checks
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.checks,))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def by_name(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


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
    return CycleType(tuple(sorted(counts.items()))), tuple(fixed), fix, two


def fix_report(d: Design, x: Permutation) -> FixReport:
    """Exact fixed-point/fixed-block statistics of an automorphism.

    For every fixed block B: s_B = # fixed points on B, r_B = # length-two
    <x>-orbits on B. For every fixed point a: the same counts on the set of
    blocks through a (in the induced block action).
    """
    return _report_and_cycle_types(d.require_verified(), x)[0]


def _report_and_cycle_types(d: Design, x: Permutation) -> tuple[FixReport, CycleType, CycleType]:
    """fix_report, with the cycle types of x on points and on blocks, from
    one walk of each action and popcounts against the incidence bitmasks."""
    tb, fixed_blocks, fix_b, two_b = _walk(d.automorphism_actions([x])[0], 0)
    tp, fixed_points, fix_p, two_p = _walk(x.images, 1)
    through, points = d.incidence
    return FixReport(
        f_points=len(fixed_points),
        f_blocks=len(fixed_blocks),
        fixed_points=fixed_points,
        fixed_blocks=fixed_blocks,
        s_point={p: (through[p] & fix_b).bit_count() for p in fixed_points},
        r_point={p: (through[p] & two_b).bit_count() // 2 for p in fixed_points},
        s_block={j: (points[j] & fix_p).bit_count() for j in fixed_blocks},
        r_block={j: (points[j] & two_p).bit_count() // 2 for j in fixed_blocks},
    ), tp, tb


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
    """The checks of certify_fix_lemmas, on a d that is not verified here."""
    rep, tp, tb = _report_and_cycle_types(d, x)
    k = d.k
    f = rep.f_points
    order = tp.order
    identity = x.is_identity()
    checks: list[Check] = []

    def add(name, status, detail=""):
        checks.append(Check(name, status, detail))

    # equal numbers of fixed points and fixed blocks
    add("equal-fixed-counts",
        PASS if rep.f_points == rep.f_blocks else FAIL,
        f"points={rep.f_points} blocks={rep.f_blocks}")

    # identical cycle structure on points and on blocks
    add("matching-cycle-structure", PASS if tp == tb else FAIL,
        f"points={tp} blocks={tb}")

    # incident fixed point/block pairs have the same number of 2-orbits
    points = d.incidence[1]
    pairs = [(p, j) for p in rep.fixed_points for j in rep.fixed_blocks
             if points[j] >> p & 1]
    if not pairs:
        add("incident-two-orbit-counts", NA, "no incident fixed point/block pair")
    else:
        bad = [(p, j) for p, j in pairs if rep.r_point[p] != rep.r_block[j]]
        add("incident-two-orbit-counts", FAIL if bad else PASS,
            f"pairs={len(pairs)} mismatches={bad[:3]}")

    # f = s_B(s_B-1)/2 + r_B + 1 for every fixed block
    if rep.f_blocks == 0:
        add("fixed-block-count-formula", NA, "no fixed blocks")
    else:
        bad = [j for j in rep.fixed_blocks
               if f != rep.s_block[j] * (rep.s_block[j] - 1) // 2 + rep.r_block[j] + 1]
        add("fixed-block-count-formula", FAIL if bad else PASS,
            f"f={f} via blocks {dict(list(rep.s_block.items())[:4])}")

    # f = s_a(s_a-1)/2 + r_a + 1 for every fixed point
    if rep.f_points == 0:
        add("fixed-point-count-formula", NA, "no fixed points")
    else:
        bad = [p for p in rep.fixed_points
               if f != rep.s_point[p] * (rep.s_point[p] - 1) // 2 + rep.r_point[p] + 1]
        add("fixed-point-count-formula", FAIL if bad else PASS, f"f={f}")

    # fixed substructure is a subdesign when no fixed block meets a 2-orbit
    if identity:
        add("fixed-substructure", NA, "identity")
    elif rep.f_blocks == 0:
        add("fixed-substructure", NA, "no fixed blocks")
    elif any(rep.r_block[j] != 0 for j in rep.fixed_blocks):
        add("fixed-substructure", NA, "a fixed block carries a 2-orbit")
    elif any(rep.s_block[j] == 0 for j in rep.fixed_blocks):
        add("fixed-substructure", NA, "a fixed block carries no fixed point")
    else:
        svals = {rep.s_block[j] for j in rep.fixed_blocks}
        ok = len(svals) == 1
        s = rep.s_block[rep.fixed_blocks[0]]
        detail = f"s={sorted(svals)} f={f}"
        if ok:
            ok = subdesign_constraint(k, 2, s)
            detail += f" constraint={ok}"
        if ok and s >= 2 and f > s:
            sub = restrict_subdesign(d, rep.fixed_points, rep.fixed_blocks)
            ok = sub is not None
            detail += f" subdesign={'yes' if ok else 'missing'}"
        add("fixed-substructure", PASS if ok else FAIL, detail)

    # with no 2-cycles anywhere: tails of fixed blocks are pairwise disjoint,
    # s is constant, and v >= f (k - s + 1)
    has_two_cycle = 2 in tp.as_dict()
    if rep.f_blocks == 0:
        add("no-two-cycle-tails", NA, "no fixed blocks")
    elif has_two_cycle:
        add("no-two-cycle-tails", NA, "cycle structure contains a 2-cycle")
    else:
        fixed_pts = set(rep.fixed_points)
        tails = [set(d.blocks[j]) - fixed_pts for j in rep.fixed_blocks]
        disjoint = all(not (tails[i] & tails[jj])
                       for i in range(len(tails)) for jj in range(i + 1, len(tails)))
        svals = {rep.s_block[j] for j in rep.fixed_blocks}
        s = next(iter(svals))
        ok = disjoint and len(svals) == 1 and d.v >= rep.f_blocks * (k - s + 1)
        add("no-two-cycle-tails", PASS if ok else FAIL,
            f"disjoint={disjoint} s={sorted(svals)} v={d.v} f(k-s+1)={rep.f_blocks * (k - s + 1)}")

    # involutions
    if order != 2:
        add("involution-point-pattern", NA, f"order {order}")
        add("involution-block-pattern", NA, f"order {order}")
        add("involution-square-branch", NA, f"order {order}")
        add("involution-fixed-count-branch", NA, f"order {order}")
    elif f == 0:
        add("involution-point-pattern", NA, "no fixed points")
        add("involution-block-pattern", NA, "no fixed points")
        add("involution-square-branch", NA, "no fixed points")
        add("involution-fixed-count-branch", NA, "no fixed points")
    else:
        svals_p = {rep.s_point[p] for p in rep.fixed_points}
        pattern = len(svals_p) == 1 or svals_p <= {0, 2}
        formula = all(2 * f == k + 1 + (rep.s_point[p] - 1) ** 2 for p in rep.fixed_points)
        add("involution-point-pattern", PASS if pattern and formula else FAIL,
            f"s_values={sorted(svals_p)} f={f}")
        svals_b = {rep.s_block[j] for j in rep.fixed_blocks}
        add("involution-block-pattern",
            PASS if (len(svals_b) == 1 or svals_b <= {0, 2}) else FAIL,
            f"s_values={sorted(svals_b)}")
        if k >= 5:
            bad = [p for p in rep.fixed_points
                   if (rep.s_point[p] - 2) ** 2 != k - 2
                   and (rep.s_point[p] - 1) ** 2 > k - 5]
            add("involution-square-branch", FAIL if bad else PASS,
                f"k={k} s_values={sorted(svals_p)}")
        else:
            add("involution-square-branch", NA, "k < 5")
        if k >= 5:
            # rests on the same external square/non-square dichotomy as above,
            # so it carries the same k >= 5 gate
            branch = f <= k - 2 or (is_square(k - 2) and f == k + isqrt(k - 2))
            add("involution-fixed-count-branch", PASS if branch else FAIL,
                f"f={f} k={k}")
        else:
            add("involution-fixed-count-branch", NA, "k < 5")

    # odd order: f = s_B(s_B-1)/2 + 1 and f <= k/2 unless k-2 is a square
    if order % 2 == 0:
        add("odd-order-fixed-count-branch", NA, f"order {order}")
    elif identity:
        add("odd-order-fixed-count-branch", NA, "identity")
    elif f == 0:
        add("odd-order-fixed-count-branch", NA, "no fixed points")
    else:
        svals = {rep.s_block[j] for j in rep.fixed_blocks}
        ok = len(svals) == 1
        s = rep.s_block[rep.fixed_blocks[0]]
        ok = ok and f == s * (s - 1) // 2 + 1
        ok = ok and (2 * f <= k or (is_square(k - 2) and 2 * f == k + isqrt(k - 2)))
        add("odd-order-fixed-count-branch", PASS if ok else FAIL, f"f={f} s={sorted(svals)}")

    # global bound for any nontrivial automorphism
    if identity:
        add("fixed-count-bound", NA, "identity")
    else:
        ok = _bound_holds(f, k)
        if k >= 6:
            ok = ok and 3 * f <= 4 * k
        add("fixed-count-bound", PASS if ok else FAIL,
            f"f={f} k+isqrt(k-2)={k + isqrt(k - 2)}")

    # on v = p^2 points, order-p automorphisms are fixed-point-free
    if order * order == d.v and is_prime(order):
        add("prime-square-fixed-point-free", PASS if f == 0 else FAIL, f"f={f}")
    else:
        add("prime-square-fixed-point-free", NA, "v is not p^2 with o(x) = p")

    return CertResult(tuple(checks), rep)


def fixed_subdesign(d: Design, x: Permutation) -> tuple[Design | None, str]:
    """The subdesign on (fixed points, fixed blocks), or None with a reason.

    Requires r_B = 0 and s_B > 0 for every fixed block; the restriction must
    itself verify as a symmetric design (degenerate fixed structures with
    fewer than 2 points per restricted block yield None).
    """
    rep = fix_report(d, x)
    if x.is_identity():
        return d, "identity: the whole design"
    if rep.f_blocks == 0:
        return None, "no fixed blocks"
    if any(rep.r_block[j] != 0 for j in rep.fixed_blocks):
        return None, "r_B != 0 for some fixed block"
    if any(rep.s_block[j] == 0 for j in rep.fixed_blocks):
        return None, "s_B = 0 for some fixed block"
    svals = {rep.s_block[j] for j in rep.fixed_blocks}
    if len(svals) != 1:
        return None, f"s_B not constant: {sorted(svals)}"
    sub = restrict_subdesign(d, rep.fixed_points, rep.fixed_blocks)
    if sub is None:
        return None, f"restriction is degenerate (s={svals.pop()}, f={rep.f_points})"
    return sub, "subdesign"


def certify_conjugacy_bound(d: Design, group: PermGroup, x: Permutation) -> CertResult:
    """For a transitive automorphism group: v/f = u/u1, and the block-size
    bound k < (sqrt2+4)u/2 + 1 < 3u + 1 from the conjugate count u."""
    checks: list[Check] = []
    if group.degree != d.v:
        raise InputError("group degree does not match design")
    _require_biplane(d).automorphism_actions(group.generators)
    if not group.is_transitive():
        raise InputError("conjugacy bound requires a transitive group")
    if x not in group:
        raise InputError("element is not in the group")
    rep = fix_report(d, x)
    f = rep.f_points
    if x.is_identity() or f == 0:
        return CertResult((Check("orbit-ratio-identity", NA, "f = 0 or identity"),
                           Check("conjugate-count-block-bound", NA, "f = 0 or identity")))
    u, u1 = group.conjugacy_counts(x, 1)
    checks.append(Check("orbit-ratio-identity",
                        PASS if d.v * u1 == f * u else FAIL,
                        f"v={d.v} f={f} u={u} u1={u1}"))
    k = d.k
    lhs = 2 * (k - 1) - 4 * u
    sharp = lhs < 0 or lhs * lhs < 2 * u * u  # k < (sqrt2+4)u/2 + 1, exactly
    weak = k <= 3 * u
    checks.append(Check("conjugate-count-block-bound",
                        PASS if sharp and weak else FAIL,
                        f"k={k} u={u}"))
    return CertResult(tuple(checks))


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

# The product of the Sylow bounds, 2^7 * 3^2 * 5 * 7 * 11 * 13 = 5765760.
AUT_ORDER_DIVISOR_121 = prod(bound for bound, _ in SYLOW_BOUNDS_121.values())
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


def sylow_bound_121(p: int) -> tuple[int, str]:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return SYLOW_BOUNDS_121.get(p, (1, "trivial"))


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
