"""Permutations of {1..n}, cycle types, and permutation groups.

Groups are given by generators; exact orders, membership and element lists
come from one deterministic Schreier-Sims stabilizer chain, whose base
points are taken in increasing order. One loop, _levels, runs Schreier-Sims
on 0-based image tuples along a base: at each point that a generator still
moves, a breadth-first transversal, then its Schreier generators (Schreier's
lemma) thinned by Sims' filter. PermGroup.chain keeps its levels along all
points; PermGroup.stabilizer and the search in `aut` keep the generators it
leaves. Every orbit (of points, blocks, flags, or the conjugates
PermGroup.conjugacy_counts counts) comes from one breadth-first routine, so
repeated runs produce identical certificates. A smallest block of
imprimitivity is one such orbit, of alpha under G_alpha and one transversal
element, so blocks need no closure algorithm of their own. Every cycle (for
Permutation.cycles, cycle_type and the fixed-point counts in `fixcert`)
comes from one walker, _cycles, on 1-based or 0-based image tuples. It
returns the list of cycles, and a fixed point costs one comparison and its
1-tuple.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import compress
from math import gcd, lcm, prod
from operator import itemgetter, ne
from typing import NamedTuple

from .errors import InputError, ScaleError, clipped, json_int

_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\)")

# Largest conjugacy class PermGroup.conjugacy_counts enumerates. A class has
# at most |G| elements, and the largest group of a known biplane, that of the
# (56,11,2) biplane of Hall, Lane and Wales, has order 80640. The class of a
# 5-cycle in Sym(16) (104,832 conjugates) took 1.5 s at about 260 bytes per
# conjugate (Python 3.11, one core of a shared VM), so a class at the cap
# costs under 2 s and 26 MB before the ScaleError.
CONJUGACY_ENUMERATION_CAP = 10**5


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Wrap an image tuple that is a permutation by construction, unchecked."""
        x = object.__new__(cls)
        object.__setattr__(x, "images", images)
        return x

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation like "(2,4,3)(5,13,9)"; fixed points implicit."""
        stripped = text.replace(" ", "")
        if stripped in ("", "()"):
            return cls.identity(degree)
        if _CYCLE_RE.sub("", stripped):
            raise InputError(f"unparsable cycle notation: {clipped(text)}")
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        digits = len(str(degree))
        for m in _CYCLE_RE.finditer(stripped):
            # a point with more digits than degree is out of range; int() never reads it
            pts = [int(t) if len(t.strip()) <= digits else 0 for t in m.group(1).split(",")]
            if any(not 1 <= p <= degree for p in pts):
                raise InputError(f"point out of range 1..{degree} in {clipped(text)}")
            if len(set(pts)) != len(pts) or seen & set(pts):
                raise InputError(f"cycles not disjoint in {clipped(text)}")
            seen.update(pts)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a - 1] = b
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def apply_set(self, points) -> frozenset:
        return frozenset(self.images[p - 1] for p in points)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a*b)(x) = a(b(x))
        a, b = self.images, other.images
        if len(a) != len(b):
            raise InputError(f"degrees differ: {len(a)} and {len(b)}")
        return Permutation._trusted(tuple([a[x - 1] for x in b]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        return [c for c in _cycles(self.images, 1) if len(c) > 1]

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.degree + 1) if self(p) == p)

    def order(self) -> int:
        return cycle_type(self).order

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


class CycleType(NamedTuple):
    """Multiset {cycle length -> multiplicity}, fixed points included as length 1."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "CycleType":
        return cls(tuple(sorted((l, m) for l, m in d.items() if m)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def degree(self) -> int:
        return sum(l * m for l, m in self.counts)

    @property
    def order(self) -> int:
        """Order of any permutation of this type: the lcm of the cycle lengths."""
        return lcm(*(l for l, _ in self.counts))

    def power(self, e: int) -> "CycleType":
        """Cycle type of x**e given the type of x."""
        out: dict[int, int] = {}
        for l, m in self.counts:
            g = gcd(l, e)
            out[l // g] = out.get(l // g, 0) + m * g
        return CycleType.from_dict(out)

    def __str__(self):
        return " ".join(f"{l}^{m}" for l, m in self.counts)


def _cycles(images, first: int) -> list[tuple[int, ...]]:
    """Every cycle of the map i -> images[i - first] on first, first+1, ...,
    fixed points included, each as a tuple starting at its least element, in
    ascending order of those elements. The one cycle walker of the package:
    `first` is 1 for Permutation.images and 0 for a 0-based block action.
    A fixed point becomes its 1-tuple directly; a longer cycle is followed
    from its least element, which marks the rest as seen."""
    seen = bytearray(len(images) + first)
    out = []
    for start, p in enumerate(images, first):
        if p == start:
            out.append((start,))
        elif not seen[start]:
            cycle = [start]
            while p != start:
                seen[p] = 1
                cycle.append(p)
                p = images[p - first]
            out.append(tuple(cycle))
    return out


def cycle_type(x: Permutation) -> CycleType:
    """Exact cycle type of x, counting fixed points as 1-cycles."""
    return CycleType.from_dict(Counter(map(len, _cycles(x.images, 1))))


def orbit(seed, generators, act, cap: int | None = None) -> list:
    """Breadth-first orbit of seed, where act(g, x) is the image of x under g.

    The orbit is listed in discovery order, seed first. With a cap, an orbit
    that would grow past cap elements raises ScaleError.
    """
    out = [seed]
    seen = {seed}
    for x in out:
        for g in generators:
            y = act(g, x)
            if y not in seen:
                if cap is not None and len(out) >= cap:
                    raise ScaleError(f"orbit exceeds the enumeration cap {cap}")
                seen.add(y)
                out.append(y)
    return out


def _sims_filter(generators, n: int) -> list[tuple[int, ...]]:
    """A generating set of the same group, as 0-based image tuples of degree
    n, with at most one element per pair (i, g(i)), i the first point g moves
    (Sims' filter).

    A generator that meets a kept element h with the same pair is replaced by
    h^-1 g, which fixes i as well, until it is kept or becomes the identity.
    """
    identity = tuple(range(n))
    kept: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for g in generators:
        while g != identity:
            i = next(compress(identity, map(ne, g, identity)))
            h = kept.get((i, g[i]))
            if h is None:
                kept[i, g[i]] = (g, tuple(sorted(identity, key=g.__getitem__)))
                break
            g = itemgetter(*g)(h[1])
    return [h for h, _ in kept.values()]


def _transversal(alpha: int, generators) -> dict:
    """The orbit of alpha under `generators` (non-identity 0-based image
    tuples of one degree), each point p mapped to (u_p, u_p^-1) with
    u_p(alpha) = p.

    Built breadth-first, each frontier sorted, so insertion order is
    deterministic. The product a b (b first) is itemgetter(*b)(a).
    """
    identity = tuple(range(len(generators[0])))
    inverses = [tuple(sorted(identity, key=g.__getitem__)) for g in generators]
    transversal = {alpha: (identity, identity)}
    frontier = [alpha]
    while frontier:
        nxt = []
        for p in frontier:
            u, u_inv = transversal[p]
            for g, g_inv in zip(generators, inverses):
                q = g[p]
                if q not in transversal:
                    transversal[q] = (itemgetter(*u)(g), itemgetter(*g_inv)(u_inv))
                    nxt.append(q)
        frontier = sorted(nxt)
    return transversal


def _schreier(transversal: dict, generators):
    """The Schreier generators u_{g(p)}^-1 g u_p of the stabilizer of the
    transversal's base point (Schreier's lemma), lazily, over p in the
    transversal's insertion order and then g in generator order."""
    return (itemgetter(*itemgetter(*u)(g))(transversal[g[p]][1])
            for p, (u, _) in transversal.items() for g in generators)


def _levels(generators, base, n: int) -> tuple[list, list]:
    """The package's Schreier-Sims loop, on non-identity 0-based image tuples
    of degree n. At each point beta of base, in order, that some generator
    still moves, append the level (beta, _transversal(beta, generators)) and
    replace the generators by that transversal's Schreier generators, thinned
    by Sims' filter; stop when none are left. Returns the levels and the
    generators of the pointwise stabilizer of base."""
    levels = []
    for beta in base:
        if not generators:
            break
        if any(g[beta] != beta for g in generators):
            transversal = _transversal(beta, generators)
            levels.append((beta, transversal))
            generators = _sims_filter(_schreier(transversal, generators), n)
    return levels, generators


def _products(levels: list, identity: tuple):
    """Lazily, every product u_0 u_1 ... of one tuple u_i from each list in
    levels, u_0 varying fastest; the product of no tuples is identity."""
    if not levels:
        yield identity
        return
    for h in _products(levels[1:], identity):
        get = itemgetter(*h)
        for u in levels[0]:
            yield get(u)


class PermGroup:
    """Permutation group on {1..degree} given by generators.

    The stabilizer chain is computed once on demand and cached; afterwards
    all queries are read-only.
    """

    def __init__(self, degree: int, generators):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._images = [tuple(x - 1 for x in g.images) for g in self.generators]
        self._chain: list[tuple[int, dict]] | None = None

    @classmethod
    def from_cycles(cls, degree: int, cycle_strings) -> "PermGroup":
        return cls(degree, [Permutation.from_cycles(s, degree) for s in cycle_strings])

    def chain(self) -> list[tuple[int, dict]]:
        """The stabilizer chain, built once by _levels along the 0-based
        points in increasing order: levels (beta, transversal), beta the least
        point the level's generators move and the transversal mapping each
        point p of its orbit to (u_p, u_p^-1), so base points strictly
        increase."""
        if self._chain is None:
            self._chain = _levels(self._images, range(self.degree), self.degree)[0]
        return self._chain

    def order(self) -> int:
        return prod(len(transversal) for _, transversal in self.chain())

    def __contains__(self, x: Permutation) -> bool:
        """Sift x through the chain, composing with the stored u^-1."""
        if x.degree != self.degree:
            return False
        y = tuple(p - 1 for p in x.images)
        for beta, transversal in self.chain():
            entry = transversal.get(y[beta])
            if entry is None:
                return False
            y = itemgetter(*y)(entry[1])
        return y == tuple(range(self.degree))

    def elements(self):
        """Iterate the whole group lazily and deterministically, identity first."""
        levels = [[u for u, _ in transversal.values()] for _, transversal in self.chain()]
        if not levels:
            return iter([Permutation.identity(self.degree)])
        levels[0] = [tuple(p + 1 for p in u) for u in levels[0]]  # so products are 1-based
        return map(Permutation._trusted, _products(levels, tuple(range(self.degree))))

    def _require_point(self, alpha: int) -> None:
        if not 1 <= alpha <= self.degree:
            raise InputError(f"point {alpha} out of range 1..{self.degree}")

    def orbit(self, point: int) -> frozenset:
        self._require_point(point)
        return frozenset(orbit(point, self.generators, Permutation.__call__))

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition of 1..degree, listed by least element."""
        remaining = set(range(1, self.degree + 1))
        out = []
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(tuple(sorted(orb)))
            remaining -= orb
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(1)) == self.degree if self.degree else True

    def stabilizer(self, alpha: int) -> "PermGroup":
        """The point stabilizer G_alpha, by _levels: the Schreier generators
        u_{g(p)}^-1 g u_p over the orbit of alpha (Schreier's lemma) after
        Sims' filter, so at most degree*(degree-1)/2 of them, or the
        generators themselves if they all fix alpha."""
        self._require_point(alpha)
        gens = _levels(self._images, (alpha - 1,), self.degree)[1]
        return PermGroup(self.degree, [Permutation._trusted(tuple(x + 1 for x in h)) for h in gens])

    def conjugacy_counts(self, x: Permutation, alpha: int) -> tuple[int, int]:
        """(u, u1): number of G-conjugates of x, and of those fixing alpha.
        The class is the orbit of x under conjugation by the generators."""
        self._require_point(alpha)
        if x not in self:
            raise InputError("element is not in the group")
        pairs = [(g, g.inverse()) for g in self.generators]
        cls = orbit(x, pairs, lambda gi, y: gi[0] * y * gi[1], CONJUGACY_ENUMERATION_CAP)
        return len(cls), sum(1 for y in cls if y(alpha) == alpha)

    def minimal_block(self, alpha: int, beta: int) -> frozenset:
        """Smallest block of imprimitivity containing alpha and beta, which must
        lie in one orbit: the orbit of alpha under G_alpha and one h with h(alpha)
        = beta (Dixon & Mortimer, Permutation Groups, 1996, Thm 1.5A)."""
        self._require_point(alpha)
        self._require_point(beta)
        if alpha == beta:
            return frozenset((alpha,))
        levels, stabilizer = _levels(self._images, (alpha - 1,), self.degree)
        entry = levels[0][1].get(beta - 1) if levels else None  # (h, h^-1), h(alpha) = beta
        if entry is None:
            raise InputError(f"point {beta} is not in the orbit "
                             f"{clipped(sorted(self.orbit(alpha)))} of point {alpha}")
        block = orbit(alpha - 1, stabilizer + [entry[0]], tuple.__getitem__)
        return frozenset(p + 1 for p in block)

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system, tested at one beta per
        orbit of G_1: g in G_1 maps the block of {1, beta} onto that of {1, g(beta)}."""
        if self.degree <= 1:
            return True
        if not self.is_transitive():
            return False
        return all(len(self.minimal_block(1, orb[0])) == self.degree
                   for orb in self.stabilizer(1).orbits()[1:])

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def group_to_json_dict(group: PermGroup) -> dict:
    return {
        "degree": group.degree,
        "generators": [g.cycle_string() for g in group.generators],
    }


def group_from_json_dict(data: dict, degree: int) -> PermGroup:
    """The group of a group file, which must act on `degree` points.

    The file's degree is compared with `degree` before any generator is
    parsed, so a huge degree is refused without allocating for it; the
    generators must be a list of cycle strings.
    """
    try:
        declared = json_int(data["degree"], "degree")
        gens = data["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group file: {exc}") from exc
    if declared != degree:
        raise InputError(f"bad group file: degree {declared}, expected {degree}")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InputError(f"bad group file: generators {gens!r:.60} are not a list of strings")
    return PermGroup.from_cycles(degree, gens)
