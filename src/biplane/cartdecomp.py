"""Cartesian decompositions of point sets, preservation by groups, per-block
coordinate-pair counts, and the Diophantine exclusion arithmetic.

A cartesian decomposition is a set of partitions of {1..v} such that picking
one part from each partition always intersects in exactly one point. The
Pell machinery enumerates the solutions of 8x^2 - y^2 = 7 by an integer
recurrence; no irrational arithmetic enters the artifact.
"""

from __future__ import annotations

from itertools import combinations, product
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, ScaleError, json_int
from .ntheory import is_square

if TYPE_CHECKING:  # annotations only, so `pell` and `psp4` load neither module
    from .design import Design
    from .perm import PermGroup

PELL_RHS = 7  # 8x^2 - y^2 = 7

# Largest n_max pell_solutions admits. x grows by a factor 3 + sqrt(8) per
# step and passes Python's 4,300-digit limit for printing an integer near
# n = 5,600; the cap is far above the n <= 12 the exclusion needs.
PELL_N_CAP = 1000

# Largest q psp4_degree_excluded admits. Its 8c^2 - 7 grows as 2q^8 and passes
# Python's 4,300-digit limit for printing an integer at q = 2^1786; the
# argument holds for every q = 2^a >= 4, and the cap is far above any degree
# a search could reach.
PSP4_Q_CAP = 2**1000


class _CartesianDecomposition(NamedTuple):
    partitions: tuple[tuple[frozenset, ...], ...]


class CartesianDecomposition(_CartesianDecomposition):
    """Partitions of {1..v}, at least one; parts are non-empty and sorted by least element."""

    __slots__ = ()

    def __new__(cls, partitions):
        parts = []
        for i, partition in enumerate(partitions):
            partition = [frozenset(p) for p in partition]
            if not all(partition):
                raise InputError(f"empty part in partition {i}")
            parts.append(tuple(sorted(partition, key=min)))
        if not parts:
            raise InputError("no partitions")
        return super().__new__(cls, tuple(parts))

    @property
    def d(self) -> int:
        return len(self.partitions)

    def part_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.partitions)

    def to_json_dict(self) -> dict:
        return {"partitions": [[sorted(p) for p in part] for part in self.partitions]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CartesianDecomposition":
        try:
            parts = [[frozenset(json_int(x, "partitions") for x in p) for p in partition]
                     for partition in data["partitions"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad decomposition file: {exc}") from exc
        return cls(parts)


class CartesianReport(NamedTuple):
    ok: bool
    homogeneous: bool
    d: int
    part_counts: tuple[int, ...]
    violations: tuple[str, ...] = ()


def verify_cartesian(cd: CartesianDecomposition, v: int) -> CartesianReport:
    """Check partition-ness and the unique-intersection law exhaustively."""
    points = set(range(1, v + 1))
    violations: list[str] = []
    for i, partition in enumerate(cd.partitions):
        if len(partition) < 2:
            violations.append(f"partition {i} has fewer than 2 parts")
        covered: set[int] = set()
        for p in partition:
            if not p <= points:
                raise InputError(f"part {sorted(p)} not within 1..{v}")
            if covered & p:
                violations.append(f"partition {i} has overlapping parts")
            covered |= p
        if covered != points:
            violations.append(f"partition {i} does not cover 1..{v}")
    if not violations:
        for choice in product(*cd.partitions):
            meet = frozenset.intersection(*choice)
            if len(meet) != 1:
                violations.append(
                    f"parts {[sorted(c) for c in choice]} meet in {len(meet)} points")
                break
    counts = cd.part_counts()
    homogeneous = len(set(counts)) == 1
    return CartesianReport(ok=not violations, homogeneous=homogeneous,
                           d=cd.d, part_counts=counts,
                           violations=tuple(violations))


def coordinatize(cd: CartesianDecomposition, v: int) -> dict[int, tuple[int, ...]]:
    """Bijection point -> tuple of part indices, one index per partition.

    Part indices follow the stored order (parts sorted by least element);
    the map is onto the full product iff the decomposition verifies.
    """
    report = verify_cartesian(cd, v)
    if not report.ok:
        raise InputError(f"not a cartesian decomposition: {report.violations[:2]}")
    coords: dict[int, tuple[int, ...]] = {}
    lookup = [
        {point: idx for idx, part in enumerate(partition) for point in part}
        for partition in cd.partitions
    ]
    for point in range(1, v + 1):
        coords[point] = tuple(table[point] for table in lookup)
    if len(set(coords.values())) != v:
        raise AssertionError("cartesian coordinates are not injective")
    return coords


def _check_degree(group: PermGroup, v: int) -> None:
    if group.degree != v:
        raise InputError(f"group degree {group.degree} != {v} points of the decomposition")


def preserved_by(cd: CartesianDecomposition, group: PermGroup) -> bool:
    """Does every generator map each partition onto one of the partitions?

    The partitions may be permuted among themselves (the top group of the
    wreath product), as "G preserves a cartesian decomposition" allows.
    Raises InputError when the group's degree is not the number of points of
    the decomposition, or when a point of it lies outside 1..degree.
    """
    points = frozenset().union(*(p for part in cd.partitions for p in part))
    _check_degree(group, len(points))
    outside = points.difference(range(1, group.degree + 1))
    if outside:
        raise InputError(f"point {min(outside)} of the decomposition is not in 1..{group.degree}")
    part_sets = [set(partition) for partition in cd.partitions]
    for g in group.generators:
        for partition in cd.partitions:
            if {g.apply_set(p) for p in partition} not in part_sets:
                return False
    return True


def block_coordinate_pairs(d: Design, cd: CartesianDecomposition,
                           group: PermGroup | None = None) -> list[int]:
    """Per block: the number of unordered point pairs sharing either coordinate.

    Requires a verified design and a verified homogeneous decomposition with
    exactly 2 partitions, so v = c^2. A supplied group of degree v must
    consist of automorphisms of d, preserve cd and be transitive, or
    InputError is raised; such a group is block-transitive, so every count is
    2(c-1) and a violation is a bug (AssertionError).
    """
    d.require_verified()
    if cd.d != 2:
        raise InputError(f"need exactly 2 partitions, got {cd.d}")
    coords = coordinatize(cd, d.v)
    c, c2 = cd.part_counts()
    if c != c2:
        raise InputError("decomposition is not homogeneous")
    counts = []
    for b in d.blocks:
        n = sum(1 for p, q in combinations(b, 2)
                if coords[p][0] == coords[q][0] or coords[p][1] == coords[q][1])
        counts.append(n)
    if group is not None:
        _check_degree(group, d.v)
        d.automorphism_actions(group.generators)
        if not preserved_by(cd, group):
            raise InputError("supplied group does not preserve the decomposition")
        if not group.is_transitive():
            raise InputError("supplied group is not transitive")
        expected = 2 * (c - 1)
        if any(n != expected for n in counts):
            raise AssertionError(
                f"block-transitive count violated: {sorted(set(counts))} != {expected}")
    return counts


class _PellSolution(NamedTuple):
    n: int
    family: int
    x: int
    y: int
    u: int
    v: int


class PellSolution(_PellSolution):
    """A positive solution of 8x^2 - y^2 = 7, with its generating pair.

    (u, v) satisfies u^2 - 8v^2 = 1; family 1 is (x, y) = (u+v, u+8v) and
    family 2 is (x, y) = (u-v, -u+8v).
    """

    __slots__ = ()

    def __new__(cls, n: int, family: int, x: int, y: int, u: int, v: int):
        if 8 * x * x - y * y != PELL_RHS:
            raise AssertionError("Pell solution: 8x^2 - y^2 != PELL_RHS")
        if u * u - 8 * v * v != 1:
            raise AssertionError("Pell solution: u^2 - 8v^2 != 1")
        return super().__new__(cls, n, family, x, y, u, v)


def pell_solutions(n_max: int) -> list[PellSolution]:
    """All solutions of 8x^2 - y^2 = 7 from the first n_max+1 generating pairs.

    The pair recurrence is (u, v) -> (3u + 8v, u + 3v) from (1, 0); family 2
    at n = 0 reproduces family 1's (1, 1) with negative y and is skipped.
    Solutions are returned sorted by x. Raises ScaleError, before any work,
    when n_max exceeds PELL_N_CAP.
    """
    if n_max < 0:
        raise InputError("n_max must be nonnegative")
    if n_max > PELL_N_CAP:
        raise ScaleError(f"n_max {n_max} exceeds the cap {PELL_N_CAP}")
    out: list[PellSolution] = []
    u, v = 1, 0
    for n in range(n_max + 1):
        out.append(PellSolution(n=n, family=1, x=u + v, y=u + 8 * v, u=u, v=v))
        if n >= 1:
            out.append(PellSolution(n=n, family=2, x=u - v, y=8 * v - u, u=u, v=v))
        u, v = 3 * u + 8 * v, u + 3 * v
    return sorted(out, key=lambda s: s.x)


def pell_brute_force(x_max: int) -> list[tuple[int, int]]:
    """All (x, y) with 8x^2 - y^2 = 7, 1 <= x <= x_max, y > 0, by direct scan."""
    out = []
    for x in range(1, x_max + 1):
        y2 = 8 * x * x - PELL_RHS
        y = isqrt(y2)
        if y * y == y2:
            out.append((x, y))
    return out


class Psp4Report(NamedTuple):
    q: int
    c: int
    pell_value: int
    pell_value_is_square: bool
    c_mod_3: int
    small_branches: dict
    excluded: bool


def psp4_degree_excluded(q: int) -> Psp4Report:
    """Exclusion arithmetic for the symplectic candidate degrees v = c^2
    with c = q^2(q^2-1)/2, q = 2^a >= 4.

    A biplane on c^2 points needs 8c^2 - 7 to be a perfect square; here it
    never is, because 3 divides c while every solution x of 8x^2 - y^2 = 7
    satisfies x = +-1 (mod 3). The two sporadic branches c = 6 and c = 12
    are excluded because the forced block size gives v != 36 and v != 144.
    Raises ScaleError, before any work, when q exceeds PSP4_Q_CAP.
    """
    if q < 4 or q & (q - 1) != 0:
        raise InputError("q must be a power of 2, at least 4")
    if q > PSP4_Q_CAP:
        raise ScaleError(f"q = 2^{q.bit_length() - 1} exceeds the cap "
                         f"2^{PSP4_Q_CAP.bit_length() - 1}")
    c = q * q * (q * q - 1) // 2
    val = 8 * c * c - 7
    sq = is_square(val)
    small = {}
    for c_small, forbidden in ((6, 36), (12, 144)):
        k = isqrt(2 * c_small * c_small)
        while k * k < 2 * c_small * c_small:
            k += 1  # k = ceil(sqrt(2) * c), exactly
        v_forced = (k * k - k + 2) // 2
        small[c_small] = {"k": k, "v": v_forced, "forbidden_degree": forbidden,
                          "excluded": v_forced != forbidden}
    excluded = (not sq) and c % 3 == 0 and all(b["excluded"] for b in small.values())
    return Psp4Report(q=q, c=c, pell_value=val, pell_value_is_square=sq,
                      c_mod_3=c % 3, small_branches=small, excluded=excluded)
