"""Symmetric 2-designs: construction, verification, duality, parameter arithmetic.

Points are 1-based integers; blocks are stored as sorted tuples. Designs are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb, gcd, isqrt
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError, ScaleError, json_int
from .ntheory import is_square, square_free_part, ternary_isotropic

# Largest number of pair operations verify_symmetric_design admits: point
# pairs C(v,2), block pairs C(b,2) and the C(|B|,2) pairs inside each block.
# A biplane on v points costs about 2v^2, so every biplane up to about 700
# points fits. At the cap a verification takes under half a second, and a
# design whose every pair is a violation still needs only a few megabytes,
# because violations past the first VIOLATION_SAMPLE are counted, not kept.
VERIFY_PAIR_CAP = 10**6

# Violations a VerifyReport lists; biplane verify prints them all and the
# count of each kind.
VIOLATION_SAMPLE = 20

# Largest block size params_from_k admits. v = (k^2 - k + 2)/2 has about
# twice the digits of k and passes Python's 4,300-digit limit for printing an
# integer near k = 1.5 * 10^2150; the cap is far above any block size the
# package can build or search.
PARAMS_K_CAP = 10**2000


class _DesignParams(NamedTuple):
    v: int
    k: int
    lam: int


class DesignParams(_DesignParams):
    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int):
        self = super().__new__(cls, v, k, lam)
        if v < 1 or k < 1 or lam < 1:
            raise InputError(f"parameters must be positive: {self}")
        return self

    @property
    def symmetric_feasible(self) -> bool:
        """k(k-1) = lambda(v-1) together with 2 <= k < v."""
        return 2 <= self.k < self.v and self.k * (self.k - 1) == self.lam * (self.v - 1)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.lam)


class Design:
    """Incidence structure with point set {1..v} and an ordered list of blocks.

    Construction rejects malformed input (out-of-range ids, duplicate points
    inside a block, repeated blocks); whether the structure satisfies the
    symmetric-design axioms is the job of verify_symmetric_design.

    The fields params and blocks are read-only, and equality, hashing and
    repr read them alone. The one incidence view of the package
    (block_index, block_getters, the incidence bitmasks, block_action) and
    verify_report are cached beside them by cached_property, which is why
    Design is a plain class and not a named tuple. require_verified and
    automorphism_actions are the input gates of every search and certificate.
    """

    params: DesignParams
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, params: DesignParams, blocks):
        cleaned = []
        seen = set()
        for b in blocks:
            b = tuple(sorted(b))
            if len(set(b)) != len(b):
                raise InputError(f"block with repeated point: {b}")
            if b and (b[0] < 1 or b[-1] > params.v):
                raise InputError(f"block {b} has a point outside 1..{params.v}")
            if b in seen:
                raise InputError(f"repeated block: {b}")
            seen.add(b)
            cleaned.append(b)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "blocks", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.params, self.blocks) == (other.params, other.blocks)
        return NotImplemented

    def __hash__(self):
        return hash((self.params, self.blocks))

    def __repr__(self):
        return f"Design(params={self.params!r}, blocks={self.blocks!r})"

    @property
    def v(self) -> int:
        return self.params.v

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def lam(self) -> int:
        return self.params.lam

    @cached_property
    def block_index(self) -> dict[frozenset, int]:
        return {frozenset(b): i for i, b in enumerate(self.blocks)}

    @cached_property
    def block_getters(self) -> tuple:
        """For each block, a map from a 1-based image list to the images of
        the block's points: one operator.itemgetter over its 0-based point
        indices (itemgetter returns a bare value for one index and refuses
        none, so a smaller block gets a plain function)."""
        def getter(indices):
            if len(indices) > 1:
                return itemgetter(*indices)
            return lambda images: tuple(images[i] for i in indices)

        return tuple(getter([p - 1 for p in b]) for b in self.blocks)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(through, points): through[p] is the bitmask of the 0-based indices
        of the blocks through point p (through[0] is 0), and points[i] is the
        bitmask of the points of block i (bit p for point p)."""
        through = [0] * (self.v + 1)
        points = [0] * len(self.blocks)
        for i, b in enumerate(self.blocks):
            for p in b:
                through[p] |= 1 << i
                points[i] |= 1 << p
        return tuple(through), tuple(points)

    def block_action(self, images) -> tuple[int, ...] | None:
        """The 0-based index of the image of each block under the point map
        p -> images[p-1], or None if some block is not mapped onto a block."""
        if len(images) != self.v:
            raise InputError(f"permutation degree {len(images)} != v = {self.v}")
        index = self.block_index
        out = tuple([index.get(frozenset(get(images))) for get in self.block_getters])
        return None if None in out else out

    @cached_property
    def verify_report(self) -> VerifyReport:
        """verify_symmetric_design(self), computed once."""
        return verify_symmetric_design(self)

    def require_verified(self) -> "Design":
        """self, or InputError naming the first violation of the axioms."""
        report = self.verify_report
        if not report.ok:
            raise InputError(f"not a symmetric ({self.v},{self.k},{self.lam}) design; "
                             f"first violation {report.violations[0]}")
        return self

    def automorphism_actions(self, perms) -> list[tuple[int, ...]]:
        """The block_action of each permutation, or InputError naming the
        first block that one of them maps outside the design."""
        actions = [self.block_action(x.images) for x in perms]
        if None in actions:
            images = perms[actions.index(None)].images
            b = next(b for b, get in zip(self.blocks, self.block_getters)
                     if frozenset(get(images)) not in self.block_index)
            raise InputError(f"not an automorphism: block {b} maps outside the design")
        return actions

    def relabel(self, sigma) -> "Design":
        """Apply a point permutation; blocks re-sorted, block list re-canonicalized."""
        new_blocks = sorted(tuple(sorted(sigma(p) for p in b)) for b in self.blocks)
        return Design(self.params, new_blocks)

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "lambda": self.lam,
            "blocks": [list(b) for b in sorted(self.blocks)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Design":
        try:
            params = DesignParams(*(json_int(data[f], f) for f in ("v", "k", "lambda")))
            blocks = [tuple(json_int(p, "blocks") for p in b) for b in data["blocks"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad design file: {exc}") from exc
        return cls(params, blocks)


class _VerifyReport(NamedTuple):
    ok: bool
    violations: tuple[tuple, ...]
    counts: dict[str, int]


class VerifyReport(_VerifyReport):
    """The first VIOLATION_SAMPLE violations, and the number of each kind."""

    __slots__ = ()

    def __new__(cls, ok: bool, violations: tuple[tuple, ...] = (),
                counts: dict[str, int] | None = None):
        if ok != (len(violations) == 0):
            raise AssertionError("verify report: ok disagrees with its violations")
        return super().__new__(cls, ok, violations, {} if counts is None else counts)


def verify_symmetric_design(d: Design) -> VerifyReport:
    """Check the symmetric (v,k,lambda) axioms exhaustively.

    Violations are (kind, subject, observed, expected) tuples; kinds are
    "block-count", "block-size", "pair-count" and "block-intersection". The
    report lists the first VIOLATION_SAMPLE of them in that order and counts
    all of them by kind. Raises ScaleError, before any pair work, when the
    check would take more than VERIFY_PAIR_CAP pair operations.
    """
    v, k, lam = d.params.as_tuple()
    work = comb(v, 2) + comb(len(d.blocks), 2) + sum(comb(len(b), 2) for b in d.blocks)
    if work > VERIFY_PAIR_CAP:
        raise ScaleError(f"verification needs {work} pair operations; "
                         f"the cap is {VERIFY_PAIR_CAP}")
    violations: list[tuple] = []
    counts: dict[str, int] = {}

    def violation(kind, subject, got, expected):
        counts[kind] = counts.get(kind, 0) + 1
        if len(violations) < VIOLATION_SAMPLE:
            violations.append((kind, subject, got, expected))

    if len(d.blocks) != v:
        violation("block-count", None, len(d.blocks), v)
    for i, b in enumerate(d.blocks):
        if len(b) != k:
            violation("block-size", i, len(b), k)
    through, points = d.incidence
    for a, b in combinations(range(1, v + 1), 2):
        got = (through[a] & through[b]).bit_count()
        if got != lam:
            violation("pair-count", (a, b), got, lam)
    for i, j in combinations(range(len(points)), 2):
        got = (points[i] & points[j]).bit_count()
        if got != lam:
            violation("block-intersection", (i, j), got, lam)
    return VerifyReport(ok=not violations, violations=tuple(violations), counts=counts)


def dual(d: Design) -> Design:
    """The dual design: point i of the dual is block i of d.

    Block alpha of the dual is {i : alpha in block i of d}; a verified
    symmetric design dualizes to a design with the same parameters; any
    other d is refused by Design.require_verified.
    """
    through = d.require_verified().incidence[0]
    return Design(d.params, [tuple(i + 1 for i in range(len(d.blocks)) if m >> i & 1)
                             for m in through[1:]])


def params_from_k(k: int) -> DesignParams:
    """Biplane parameters forced by the block size: v = (k^2 - k + 2)/2.

    Raises ScaleError, before any work, when k exceeds PARAMS_K_CAP.
    """
    if k < 3:
        raise InputError("block size below 3 admits no biplane parameters")
    if k > PARAMS_K_CAP:
        raise ScaleError("block size exceeds the cap 10^2000")
    return DesignParams((k * k - k + 2) // 2, k, 2)


def k_for_point_power(c: int, d: int) -> int | None:
    """The only possible block size when v = c**d, or None.

    Integer-only: k must satisfy k(k-1) = 2(c**d - 1) exactly.
    """
    if c < 2 or d < 2:
        raise InputError("need c >= 2 and d >= 2")
    target = 2 * (c**d - 1)
    k = (1 + isqrt(1 + 4 * target)) // 2
    for cand in (k - 1, k, k + 1):
        if cand >= 2 and cand * (cand - 1) == target:
            return cand
    return None


def brc_feasible(p: DesignParams) -> bool:
    """Bruck-Ryser-Chowla feasibility for symmetric (v,k,lambda) parameters.

    v even: k - lambda must be a perfect square. v odd: the ternary form
    z^2 = (k-lambda) x^2 + (-1)^((v-1)/2) lambda y^2 must have a nontrivial
    integer solution, decided by Legendre's theorem (ntheory.ternary_isotropic).
    """
    if not p.symmetric_feasible:
        raise InputError(f"{p} is not symmetric-feasible")
    n = p.k - p.lam
    if p.v % 2 == 0:
        return is_square(n)
    m = p.lam if ((p.v - 1) // 2) % 2 == 0 else -p.lam
    return ternary_isotropic(n, m)


def _signed_square_free(t: int) -> int:
    return (1 if t > 0 else -1) * square_free_part(abs(t))


def _legendre_form_solvable(a: int, b: int, c: int) -> bool:
    """Does a x^2 + b y^2 + c z^2 = 0 have a nontrivial integer solution?

    Exact integer search, independent of the residue tests by which
    ntheory.ternary_isotropic applies Legendre's theorem; the coefficients
    must be nonzero. They are first made square-free and pairwise coprime,
    which keeps solvability: a prime g dividing a and b goes to
    (a/g, b/g, g c). Then Holzer's theorem (Holzer 1950; Cochrane & Mitchell
    1998) says a solution exists iff one exists with |x| <= sqrt|bc| and
    |y| <= sqrt|ac|, so the bounded scan is complete.
    """
    f = [_signed_square_free(t) for t in (a, b, c)]
    changed = True
    while changed:
        changed = False
        for i in range(3):
            g = gcd(f[i - 1], f[i - 2])
            if g > 1:
                f[i - 1] //= g
                f[i - 2] //= g
                f[i] = _signed_square_free(f[i] * g)
                changed = True
    a, b, c = f
    if (a > 0) == (b > 0) == (c > 0):
        return False
    for x in range(isqrt(abs(b * c)) + 1):
        for y in range(isqrt(abs(a * c)) + 1):
            num = -(a * x * x + b * y * y)
            if (x or y) and num % c == 0 and is_square(num // c):
                return True
    return False


def brc_brute_force(p: DesignParams) -> bool:
    """Independent oracle for brc_feasible: a complete search for a solution.

    v odd: searches z^2 = (k-lambda) x^2 + (-1)^((v-1)/2) lambda y^2 within
    Holzer's bound, so False is a proof that no solution exists.
    """
    if not p.symmetric_feasible:
        raise InputError(f"{p} is not symmetric-feasible")
    n = p.k - p.lam
    if p.v % 2 == 0:
        # the form degenerates; existence requires n to be a square
        return is_square(n)
    m = p.lam if ((p.v - 1) // 2) % 2 == 0 else -p.lam
    return _legendre_form_solvable(n, m, -1)


def subdesign_constraint(k: int, lam: int, k_prime: int) -> bool:
    """Parameter constraint forced on a proper symmetric subdesign:
    either (k'-1)^2 = k - lambda, or k'(k'-1) <= k - lambda."""
    return (k_prime - 1) ** 2 == k - lam or k_prime * (k_prime - 1) <= k - lam


def restrict_subdesign(d: Design, points, block_indices) -> Design | None:
    """Induced substructure on a point subset and block subset, if it is a design.

    Returns the symmetric subdesign iff all restricted blocks have one common
    size k' >= 2, the restricted structure has as many blocks as points, and
    every point pair of the restriction is covered exactly lambda times.
    """
    points = sorted(set(points))
    block_indices = sorted(set(block_indices))
    if any(not 1 <= p <= d.v for p in points):
        raise InputError("restriction points out of range")
    if any(not 0 <= i < len(d.blocks) for i in block_indices):
        raise InputError("restriction block indices out of range")
    if not points or not block_indices:
        return None
    pset = set(points)
    restricted = [tuple(sorted(set(d.blocks[i]) & pset)) for i in block_indices]
    sizes = {len(b) for b in restricted}
    if len(sizes) != 1:
        return None
    k_prime = sizes.pop()
    if k_prime < 2 or len(restricted) != len(points) or k_prime >= len(points):
        return None
    if len(set(restricted)) != len(restricted):
        return None
    relabel = {p: i + 1 for i, p in enumerate(points)}
    sub_blocks = [tuple(sorted(relabel[p] for p in b)) for b in restricted]
    sub = Design(DesignParams(len(points), k_prime, d.lam), sub_blocks)
    return sub if sub.verify_report.ok else None
