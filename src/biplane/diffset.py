"""Finite group tables, difference sets, developments, and exclusion tests.

Groups are explicit multiplication tables over elements 0..n-1 with identity
0, so everything downstream is presentation-free. Each table is built from a
group law (cyclic, direct_product, quaternion8, elementary_abelian), so the
group axioms hold by construction; the tests check them once per constructor,
and no build re-proves them. The exhaustive search and the development are the
constructive route to transitive biplanes; the Lander witness scan is the
arithmetic route to nonexistence.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import comb
from typing import NamedTuple

from .design import Design, DesignParams
from .errors import InputError, ScaleError
from .ntheory import divisors, factorize, multiplicative_order, square_free_part

SEARCH_SUBSET_CAP = 10**8
# Largest group order the table constructors build. At 1024 an n x n table
# of Python ints peaks 39-45 MB above the import and builds in 0.08-0.13 s
# (cyclic, products, elementary_abelian(2, 10); Python 3.11, one core of a
# shared VM); every named tag fits (c121ab has order 121).
GROUP_ORDER_CAP = 1024
# Largest v lander_excluded admits. Its divisor scan runs up to sqrt(v) and
# each multiplicative order factors a divisor of v and lists the divisors of
# its phi: the row (998759, 499380, 249690), no witness, takes 0.6-0.9 ms
# (Python 3.11, one core of a shared VM).
LANDER_V_CAP = 10**6
# Largest order table_automorphisms admits; e16 (15**4 image choices) takes 0.8 s (Python 3.11).
TABLE_AUT_CAP = 16


class GroupTable(NamedTuple):
    """A finite group as an n x n multiplication table; element 0 is the identity."""

    name: str
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.n)


def _build_table(name: str, mul) -> GroupTable:
    """The table of a group law, with each inverse read off its row.

    Every caller is a constructor below that builds mul from a group law, so
    the axioms hold by construction; the tests check identity, inverses,
    Latin rows and columns and associativity for every constructor, so no
    build repeats that check."""
    mul = tuple(map(tuple, mul))
    return GroupTable(name=name, mul=mul, inv=tuple(row.index(0) for row in mul))


def _check_order(n: int) -> None:
    if n > GROUP_ORDER_CAP:
        raise ScaleError(f"group order {n} exceeds the cap {GROUP_ORDER_CAP}")


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise InputError("cyclic group order must be positive")
    _check_order(n)
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return _build_table(f"cyclic({n})", mul)


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Direct product with elements enumerated as x*|b| + y."""
    nb = b.n
    _check_order(a.n * nb)
    return _build_table(f"product({a.name},{b.name})",
                        [[x * nb + y for x in ra for y in rb]
                         for ra in a.mul for rb in b.mul])


def quaternion8() -> GroupTable:
    """The quaternion group of order 8: elements 1, i, j, k, -1, -i, -j, -k,
    as integer 4-vectors a + bi + cj + dk under Hamilton's rule."""
    units = [tuple(s * (a == axis) for a in range(4)) for s in (1, -1) for axis in range(4)]

    def hamilton(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return _build_table("quaternion8", [[units.index(hamilton(x, y)) for y in units]
                                        for x in units])


def elementary_abelian(p: int, k: int) -> GroupTable:
    """(C_p)^k, the k-fold direct product of cyclic(p)."""
    if p < 2 or k < 1:
        raise InputError("elementary abelian group needs p >= 2 and k >= 1")
    if k >= GROUP_ORDER_CAP.bit_length():  # p**k >= 2**k > cap; skip the power
        raise ScaleError(f"group order {p}**{k} exceeds the cap {GROUP_ORDER_CAP}")
    _check_order(p**k)
    g = reduce(direct_product, [cyclic(p)] * k)
    return GroupTable(f"elementary({p},{k})", g.mul, g.inv)


_TAG_BUILDERS = {
    "c2xc8": lambda: direct_product(cyclic(2), cyclic(8)),
    "q8xc2": lambda: direct_product(quaternion8(), cyclic(2)),
    "e16": lambda: elementary_abelian(2, 4),
    "c121ab": lambda: direct_product(cyclic(11), cyclic(11)),
}


def from_tag(tag: str) -> GroupTable:
    """Build one of the documented group tags; c<N> means cyclic of order N."""
    if tag in _TAG_BUILDERS:
        return _TAG_BUILDERS[tag]()
    digits = tag[1:]
    if tag.startswith("c") and digits.isdecimal():
        if len(digits) > len(str(GROUP_ORDER_CAP)):  # refused before int() reads it
            raise ScaleError(f"group order of c<N> with {len(digits)} digits exceeds "
                             f"the cap {GROUP_ORDER_CAP}")
        return cyclic(int(digits))
    raise InputError(f"unknown group tag {tag!r}; known: {sorted(_TAG_BUILDERS)} and c<N>")


def _checked_elements(g: GroupTable, elements) -> tuple[int, ...]:
    """The elements sorted, refused if one is out of range or repeated.

    A repeated element is refused, not merged: the set would have fewer
    elements than listed, and k would be misread."""
    elements = tuple(sorted(elements))
    if elements and not (0 <= elements[0] and elements[-1] < g.n):
        raise InputError("difference-set elements out of range")
    if len(set(elements)) < len(elements):
        repeated = sorted({x for x, y in zip(elements, elements[1:]) if x == y})
        raise InputError(f"difference-set element(s) repeated: {repeated}")
    return elements


class _DifferenceSet(NamedTuple):
    group: GroupTable
    elements: tuple[int, ...]
    lam: int


class DifferenceSet(_DifferenceSet):
    """A difference set of a group table; the elements are stored sorted,
    and _checked_elements refuses repeated or out-of-range ones."""

    __slots__ = ()

    def __new__(cls, group: GroupTable, elements, lam: int):
        return super().__new__(cls, group, _checked_elements(group, elements), lam)

    @classmethod
    def _trusted(cls, group: GroupTable, elements: tuple[int, ...], lam: int) -> "DifferenceSet":
        """Wrap elements that are ascending, distinct and in range by
        construction, unchecked."""
        return _DifferenceSet.__new__(cls, group, elements, lam)

    @property
    def params(self) -> DesignParams:
        return DesignParams(self.group.n, len(self.elements), self.lam)


def is_difference_set(g: GroupTable, elements, lam: int) -> bool:
    """Does the difference list x^-1 y cover every non-identity element lam times?

    Elements out of range or repeated are refused (_checked_elements)."""
    elements = _checked_elements(g, elements)
    if len(elements) < 2:
        raise InputError("difference set needs at least two elements")
    counts = [0] * g.n
    mul, inv = g.mul, g.inv
    for x in elements:
        ix = inv[x]
        row = mul[ix]
        for y in elements:
            if x != y:
                counts[row[y]] += 1
    return counts[0] == 0 and all(c == lam for c in counts[1:])


def develop(ds: DifferenceSet) -> Design:
    """The development: blocks are the right translates D*x, x over the group.

    The input gate is is_difference_set. D = G, the (n,n,n) set, is refused
    too: every translate of G is G, so its development is one block n times.
    Right multiplication by y maps D*x to D*xy, so the group acts on the
    development as a point-regular automorphism group; the tests check every
    right translation on every catalog set and every order-16 class, so no
    call repeats that check.
    """
    g = ds.group
    if not is_difference_set(g, ds.elements, ds.lam):
        raise InputError("not a difference set; refusing to develop")
    if len(ds.elements) == g.n:
        raise InputError(f"the set is all of the group: every translate of G is G, so the "
                         f"development repeats one block {g.n} times; refusing to develop")
    mul = g.mul
    blocks = sorted(tuple(sorted(mul[d][x] + 1 for d in ds.elements)) for x in g.elements())
    return Design(ds.params, blocks)


def _pair_translates(g: GroupTable, subset: tuple[int, ...]):
    """The right translates of a difference set that contain {0, 1}, each
    sorted: the translate by e^-1 contains 0 when e is in the set and 1 when
    1*e is, so there are lam of them, and only those are sorted, not all k."""
    mul, inv, one = g.mul, g.inv, g.mul[1]
    return (tuple(sorted(mul[f][inv[e]] for f in subset)) for e in subset if one[e] in subset)


def _canonical_rep(g: GroupTable, subset: tuple[int, ...],
                   automorphisms: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Least representative of a difference set's class under translation
    and the supplied group automorphisms.

    Every image is a difference set, so its least translate is one of its
    lam translates through {0, 1} (_pair_translates): a sorted tuple
    starting with 0, 1 beats any other.
    """
    images = (tuple(a[e] for e in subset) for a in automorphisms)
    return min(t for img in images for t in _pair_translates(g, img))


class DiffsetSearchStats(NamedTuple):
    """Counters of one difference-set search: nodes are calls of its extend
    step, hits the sets it found that contain {0, 1}."""

    nodes: int
    hits: int


def _pair_sets(g: GroupTable, k: int,
               lam: int) -> tuple[list[tuple[int, ...]], DiffsetSearchStats]:
    """Every (n,k,lam) difference set in g that contains {0, 1}, ascending,
    and the search's counters; 3 <= k <= n - 2.

    Starts from the pair {0, 1} and backtracks over the elements after 1 in
    increasing order, with forward checking: a node keeps only the later
    candidates that can still be added, so it reaches at most C(n-2,k-2)
    subsets and usually far fewer.

    The count of every difference x^-1 y (both orders of every pair) is
    packed into one int, a w-bit field per group element, each biased by
    2^(w-1) - 1 - lam, so some count exceeds lam exactly when a field's top
    bit is set: one AND with `over`. A node holds its counts and the
    ascending candidates (y, counts with y added) that keep every count at
    most lam. The child after y filters the later candidates z with one
    addition each: z's counts, plus y's differences with the chosen
    elements, plus pair[y][z]. Counts only grow along a path, so a dropped
    candidate never comes back, and a child is entered only when enough
    candidates survive to fill the set. Since k(k-1) = lam(n-1), a full set
    with no count above lam has every count equal to lam, so a node that
    needs one more element completes a set with each of its candidates: it
    appends them all in one step, and counts each as a node of its own.
    """
    n, mul, inv = g.n, g.mul, g.inv
    w = (lam + 2).bit_length() + 1  # a tested field reaches 2 lam + 2 plus the bias
    unit = [1 << w * e for e in range(n)]
    # pair[x][y] adds the differences x^-1 y and y^-1 x = (x^-1 y)^-1
    both = [unit[d] + unit[inv[d]] for d in range(n)]
    pair = [[both[d] for d in mul[inv[x]]] for x in range(n)]
    ones = sum(unit)
    top = 1 << (w - 1)
    over = ones * top
    root = ones * (top - 1 - lam) + pair[0][1]  # the biased counts of {0, 1}
    chosen = [0, 1]
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(counts: int, cands: list[tuple[int, int]], need: int) -> None:
        nonlocal nodes
        nodes += 1
        if need == 1:  # every candidate completes a set: one node and one hit each
            nodes += len(cands)
            found.extend([(*chosen, y) for y, _ in cands])
            return
        for i in range(len(cands) - need + 1):
            y, t = cands[i]
            py, added = pair[y], t - counts
            later = [(z, u) for z, tz in cands[i + 1:] if not (u := tz + added + py[z]) & over]
            if len(later) >= need - 1:
                chosen.append(y)
                extend(t, later, need - 1)
                chosen.pop()

    if not root & over:  # 1 = 1^-1 is counted twice when 1 is an involution
        extend(root, [(y, u) for y in range(2, n)
                      if not (u := root + pair[0][y] + pair[1][y]) & over], k - 2)
    return found, DiffsetSearchStats(nodes=nodes, hits=len(found))


def difference_set_search(g: GroupTable, k: int, lam: int, automorphisms=None
                          ) -> tuple[list[DifferenceSet], DiffsetSearchStats]:
    """All (n,k,lam) difference sets in g, up to translation (and up to the
    supplied automorphisms of g, given as image tables), with the counters
    of the search. A table that is not an automorphism of g is refused
    (_checked_automorphisms).

    When k >= n - 1 the answer is closed-form and no node is spent: no set
    when k > n; G itself when k = n; when k = n - 1 every (n-1)-subset is a
    difference set with lam = n - 2, all are translates of G minus its last
    element, and n - 2 of them contain {0, 1}. Otherwise each non-identity
    element is a right difference f e^-1 of a difference set exactly lam
    times, so every translation class has lam right translates that contain
    {0, 1}, and the search runs over subsets containing {0, 1}, at most
    C(n-2,k-2) of them. The least of a class's lam hits is its
    representative; without automorphisms a hit is tested against its
    lam - 1 other translates through {0, 1} by one bitmask comparison each,
    and nothing is stored across hits. Results are in ascending
    representative order.
    """
    if k < 2:
        raise InputError("difference set needs at least two elements")
    if lam < 1:
        raise InputError(f"lambda must be positive, got {lam}")
    n = g.n
    autos = _checked_automorphisms(g, automorphisms) if automorphisms else ()
    if k * (k - 1) != lam * (n - 1) or k > n:
        return [], DiffsetSearchStats(nodes=0, hits=0)
    if k >= n - 1:
        ds = DifferenceSet(group=g, elements=tuple(range(k)), lam=lam)
        return [ds], DiffsetSearchStats(nodes=0, hits=1 if k == n else n - 2)
    if comb(n - 2, k - 2) > SEARCH_SUBSET_CAP:
        raise ScaleError(f"C({n - 2},{k - 2}) exceeds the search cap {SEARCH_SUBSET_CAP}")
    hits, stats = _pair_sets(g, k, lam)
    if autos:
        reps = sorted({_canonical_rep(g, subset, autos) for subset in hits})
    else:
        # The hits of one class are its lam translates through {0, 1}: D
        # and D e^-1 for each e != 0 in D with 1 e in D. A hit is its class's
        # least member, the representative, unless one of those is smaller;
        # for sets of equal size, D' < D exactly when the lowest bit of
        # D xor D' lies in D'.
        mul, inv, one = g.mul, g.inv, g.mul[1]
        reps = []
        for subset in hits:
            mask = 0
            for f in subset:
                mask |= 1 << f
            for e in subset[1:]:
                if mask >> one[e] & 1:
                    ie, other = inv[e], 0
                    for f in subset:
                        other |= 1 << mul[f][ie]
                    low = other ^ mask
                    if low & -low & other:
                        break
            else:
                reps.append(subset)
    # _pair_sets and _pair_translates emit ascending, distinct, in-range
    # tuples, so the records skip _checked_elements
    return [DifferenceSet._trusted(g, rep, lam) for rep in reps], stats


def search_difference_sets(g: GroupTable, k: int, lam: int,
                           automorphisms=None) -> list[DifferenceSet]:
    """The classes of `difference_set_search`, without its counters."""
    return difference_set_search(g, k, lam, automorphisms)[0]


def _generators(g: GroupTable) -> tuple[list[int], list[int]]:
    """Generators g_1 < g_2 < ... of g, each the least element outside the
    subgroup the earlier ones generate, and the elements of g breadth first
    from 0 along the edges x -> x*g_i."""
    gens, reached = [], [0]  # reached: <gens>, breadth first along x -> x*g_i
    for x in range(g.n):
        if x not in reached:
            gens.append(x)
            reached = [0]
            for y in reached:
                reached += [z for z in (g.mul[y][s] for s in gens) if z not in reached]
    return gens, reached


def _checked_automorphisms(g: GroupTable, tables) -> tuple[tuple[int, ...], ...]:
    """The tables as tuples, or InputError unless each is an automorphism of
    g: a permutation of its elements with phi(x*s) = phi(x)*phi(s) for every
    x and every generator s of _generators. A bijection that respects the
    generators respects every product, since each y is a product of them."""
    n, mul = g.n, g.mul
    gens = _generators(g)[0]
    elements = set(range(n))
    out = []
    for i, phi in enumerate(tables):
        phi = tuple(phi)
        if len(phi) != n or set(phi) != elements:
            raise InputError(f"automorphism table {i} is not a permutation of 0..{n - 1}")
        for s in gens:
            t = phi[s]
            x = next((x for x in range(n) if phi[mul[x][s]] != mul[phi[x]][t]), None)
            if x is not None:
                raise InputError(f"automorphism table {i} is not a homomorphism: "
                                 f"phi({x}*{s}) != phi({x})*phi({s})")
        out.append(phi)
    return tuple(out)


def table_automorphisms(g: GroupTable) -> list[tuple[int, ...]]:
    """All automorphisms of a small group table, as ascending image tuples.

    Generators g_1 < g_2 < ... are each the least element outside the
    subgroup the earlier ones generate. An automorphism is fixed by the
    images of the generators, which keep element orders; each such choice is
    extended along the edges x -> x*g_i and kept when it is consistent and
    one-to-one, that is, when it is an automorphism. The elements below g_i
    lie in <g_1, ..., g_(i-1)>, so ascending choices give ascending tuples.
    """
    if g.n > TABLE_AUT_CAP:
        raise ScaleError(f"table automorphism search capped at order {TABLE_AUT_CAP}")
    n, mul = g.n, g.mul
    order = []
    for x in range(n):
        e, y = 1, x
        while y != 0:
            y = mul[y][x]
            e += 1
        order.append(e)
    gens, reached = _generators(g)

    def extend(images):
        phi = [0] + [None] * (n - 1)
        for x in reached:
            for s, t in zip(gens, images):
                y, want = mul[x][s], mul[phi[x]][t]
                if phi[y] is None:
                    phi[y] = want
                elif phi[y] != want:
                    return None
        return tuple(phi) if len(set(phi)) == n else None

    choices = ([y for y in range(n) if order[y] == order[s]] for s in gens)
    return [phi for phi in map(extend, product(*choices)) if phi]


class LanderWitness(NamedTuple):
    """(pdiv, q, j): the prime q divides k - lam to an odd power, is prime to
    pdiv, and q**j = -1 (mod pdiv), so q is self-conjugate modulo pdiv.

    The self-conjugacy exclusion (Mann's test; Lander, Symmetric Designs,
    1983) then rules out a difference set in an abelian group G of order v
    whose exponent pdiv divides (LANDER_HYPOTHESES). It says nothing about a
    nonabelian G, nor about an abelian G whose exponent pdiv does not divide.
    """

    pdiv: int
    q: int
    j: int


LANDER_HYPOTHESES = "the group is abelian, and pdiv divides its exponent"


def lander_excluded(p: DesignParams) -> LanderWitness | None:
    """Witness (pdiv, q, j) certifying that no (v,k,lam) difference set exists.

    Needs pdiv > 1 dividing v, a prime q dividing the square-free part of
    k - lam, and q**j = -1 (mod pdiv). Scans divisors ascending, so the least
    witness is returned; None when no witness exists.
    """
    if not p.symmetric_feasible:
        raise InputError(f"{p} is not symmetric-feasible")
    if p.v > LANDER_V_CAP:
        raise ScaleError(f"v = {p.v} exceeds the Lander cap {LANDER_V_CAP}")
    sf = square_free_part(p.k - p.lam)
    qs = sorted(factorize(sf)) if sf > 1 else []
    for pdiv in divisors(p.v):
        if pdiv == 1:
            continue
        for q in qs:
            if pdiv % q == 0:
                continue
            # q**j = -1 needs an even order e, and then j = e/2 is the least
            e = multiplicative_order(q, pdiv)
            if e % 2 == 0 and pow(q, e // 2, pdiv) == pdiv - 1:
                return LanderWitness(pdiv=pdiv, q=q, j=e // 2)
    return None
