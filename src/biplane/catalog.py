"""Constructions of the known small biplanes, with expected-property metadata.

Six entries are constructible. fano_complement (7,4,2) is the complement of
the order-2 projective plane. The other five are developments of a (v,k,2)
difference set, given by its group tag (`diffset.from_tag`) and elements:

  hadamard11           (11,5,2)   c11    the quadratic residues mod 11
  biplane16_primitive  (16,6,2)   e16    BASE_BLOCK_16 - 1 = {0,1,8,11,13,15}
  biplane16_c2c8       (16,6,2)   c2xc8  {0,1,2,4,9,14}, least search class
  biplane16_q8c2       (16,6,2)   q8xc2  {0,1,2,4,6,9}, least search class
  biplane37_qr         (37,9,2)   c37    the fourth powers mod 37

The orbit of BASE_BLOCK_16 under the rank-3 group of PRIMITIVE16_GENERATORS
is the block set of biplane16_primitive, and the translations x -> x XOR t
of E16 on the 0-based labels are a regular normal subgroup of that group:
it is of affine type.

Three further parameter rows -- (56,11,2), (79,13,2), (121,16,2) -- are
metadata only: no construction is available here.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .design import Design, DesignParams
from .errors import InputError

if TYPE_CHECKING:  # constructions import diffset and perm, so `catalog list` loads neither
    from collections.abc import Callable

    from .perm import PermGroup

# Generators of the flag-transitive, point-primitive rank-3 subgroup (order
# 1152, index 10 in the full group of order 11520) of the third (16,6,2)
# biplane; the block orbit of BASE_BLOCK_16 below is the whole block set.
PRIMITIVE16_GENERATORS = (
    "(2,4,3)(5,13,9)(6,16,11)(7,14,12)(8,15,10)",
    "(2,6,5)(3,11,9)(4,16,13)(7,12,14)(8,15,10)",
    "(2,6)(3,11)(4,16)(7,15)(8,12)(10,14)",
    "(3,5)(4,6)(11,13)(12,14)",
    "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14)(15,16)",
)

# Lexicographically least block of the unique biplane invariant under the
# subgroup above; its orbit is the whole 16-block set. (Exactly 16 base
# 6-sets have a 16-element orbit, and they are precisely these blocks.)
BASE_BLOCK_16 = (1, 2, 9, 12, 14, 16)

# Homogeneous cartesian decomposition of {1..16} preserved by the subgroup
# above but not by the full automorphism group.
CART16_PARTITIONS = (
    ({1, 8, 10, 15}, {2, 7, 9, 16}, {3, 6, 12, 13}, {4, 5, 11, 14}),
    ({1, 7, 12, 14}, {2, 8, 11, 13}, {3, 5, 10, 16}, {4, 6, 9, 15}),
)

QR11 = (1, 3, 4, 5, 9)  # quadratic residues mod 11


class CatalogEntry(NamedTuple):
    """One catalog row; construct, the construction or None, takes no part in
    equality and is left out of the repr."""

    name: str
    params: DesignParams
    examples_for_params: str
    expected: dict
    construct: Callable[[], Design] | None = None

    @property
    def constructible(self) -> bool:
        return self.construct is not None

    def __eq__(self, other):
        if isinstance(other, CatalogEntry):
            return self[:4] == other[:4]
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self):
        return (f"CatalogEntry(name={self.name!r}, params={self.params!r}, "
                f"examples_for_params={self.examples_for_params!r}, "
                f"expected={self.expected!r})")


def primitive16_group() -> PermGroup:
    from .perm import PermGroup
    return PermGroup.from_cycles(16, PRIMITIVE16_GENERATORS)


def _fano_complement() -> Design:
    # points 1..7 as the nonzero vectors of F_2^3; lines are the XOR-zero triples
    lines = [set(t) for t in combinations(range(1, 8), 3) if t[0] ^ t[1] ^ t[2] == 0]
    if len(lines) != 7:
        raise AssertionError("Fano plane does not have 7 lines")
    blocks = sorted(tuple(sorted(set(range(1, 8)) - line)) for line in lines)
    return Design(DesignParams(7, 4, 2), blocks)


def _development(tag: str, elements) -> Design:
    from .diffset import DifferenceSet, develop, from_tag
    return develop(DifferenceSet(from_tag(tag), elements, 2))


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="fano_complement",
        construct=_fano_complement,
        params=DesignParams(7, 4, 2),
        examples_for_params="1",
        expected={"aut_order": 168, "transitive": True, "flag_transitive": True,
                  "primitive": True},
    ),
    CatalogEntry(
        name="hadamard11",
        construct=partial(_development, "c11", QR11),
        params=DesignParams(11, 5, 2),
        examples_for_params="1",
        expected={"aut_order": 660, "transitive": True, "flag_transitive": True,
                  "primitive": True},
    ),
    CatalogEntry(
        name="biplane16_primitive",
        construct=partial(_development, "e16", tuple(p - 1 for p in BASE_BLOCK_16)),
        params=DesignParams(16, 6, 2),
        examples_for_params="3",
        expected={"aut_order": 11520, "transitive": True, "flag_transitive": True,
                  "primitive": True, "subgroup_order": 1152, "subgroup_index": 10,
                  "flag_count": 96, "block_stabilizer_order": 72,
                  "coordinate_factor_block_stabilizer_order": 6},
    ),
    CatalogEntry(
        name="biplane16_c2c8",
        construct=partial(_development, "c2xc8", (0, 1, 2, 4, 9, 14)),
        params=DesignParams(16, 6, 2),
        examples_for_params="3",
        expected={"aut_order": 768, "transitive": True, "flag_transitive": True,
                  "primitive": False, "point_stabilizer_order": 48},
    ),
    CatalogEntry(
        name="biplane16_q8c2",
        construct=partial(_development, "q8xc2", (0, 1, 2, 4, 6, 9)),
        params=DesignParams(16, 6, 2),
        examples_for_params="3",
        expected={"aut_order": 384, "transitive": True, "flag_transitive": False,
                  "primitive": False},
    ),
    CatalogEntry(
        name="biplane37_qr",
        construct=partial(_development, "c37", {pow(x, 4, 37) for x in range(1, 37)}),
        params=DesignParams(37, 9, 2),
        examples_for_params="4",
        expected={"aut_order": 333, "transitive": True, "flag_transitive": True,
                  "primitive": True},
    ),
    CatalogEntry(
        name="biplane56",
        params=DesignParams(56, 11, 2),
        examples_for_params="5",
        expected={},
    ),
    CatalogEntry(
        name="biplane79",
        params=DesignParams(79, 13, 2),
        examples_for_params=">=2",
        expected={"aut_order_known_example": 110},
    ),
    CatalogEntry(
        name="biplane121",
        params=DesignParams(121, 16, 2),
        examples_for_params="unknown",
        expected={"aut_order_divides": 5765760},
    ),
)


def list_known() -> list[CatalogEntry]:
    return list(_ENTRIES)


def entry(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise InputError(f"unknown catalog name {name!r}; known: {[e.name for e in _ENTRIES]}")


@lru_cache(maxsize=None)
def build(name: str) -> Design:
    """Construct a catalog design; metadata-only rows raise InputError."""
    e = entry(name)
    if not e.constructible:
        raise InputError(f"catalog entry {name!r} is metadata-only; no construction available")
    d = e.construct()
    if not d.verify_report.ok:
        raise AssertionError(f"catalog design {name} failed verification: "
                             f"{d.verify_report.violations[:3]}")
    if d.params != e.params:
        raise AssertionError(f"catalog design {name} has parameters {d.params}, not {e.params}")
    return d


def constructible_names() -> list[str]:
    return [e.name for e in _ENTRIES if e.constructible]


def flag_orbit_count(d: Design, group: PermGroup) -> int:
    """Number of group orbits on incident (point, block) flags.

    Raises InputError unless d verifies and every generator is an
    automorphism (Design.require_verified, Design.automorphism_actions).
    """
    from .perm import orbit
    if group.degree != d.v:
        raise InputError("group degree does not match the design")
    gens = group.generators
    actions = list(zip(gens, d.require_verified().automorphism_actions(gens)))
    remaining = {(p, j) for j, b in enumerate(d.blocks) for p in b}
    count = 0
    while remaining:
        flag = remaining.pop()
        remaining.difference_update(
            orbit(flag, actions, lambda gb, f: (gb[0](f[0]), gb[1][f[1]])))
        count += 1
    return count
