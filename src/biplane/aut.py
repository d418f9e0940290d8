"""Automorphism groups, canonical forms and isomorphism tests for designs.

The search is individualization-refinement backtracking on the bipartite
point/block incidence graph. Points and blocks carry distinct initial colors,
so dualities are never counted as automorphisms. Refinement is iterated
degree-in-color-class counting (equitable partition) against the cells that
the previous round created only; the target cell is the first smallest
non-singleton; children are taken in ascending vertex order. A child is
pruned when it lies in the orbit of an explored sibling under the pointwise
stabilizer of the prefix in the group of the automorphisms found so far
(McKay & Piperno, Practical Graph Isomorphism II, 2014). Pruning never skips
the first leaf or the first leaf with the least certificate, so canonical
forms and isomorphisms do not depend on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations

from .design import Design, verify_symmetric_design
from .errors import InputError, ScaleError
from .perm import PermGroup, Permutation


@dataclass(frozen=True)
class CanonicalCertificate:
    """Relabeling-invariant fingerprint: the canonical block list plus a digest."""

    blocks: tuple[tuple[int, ...], ...]
    digest: str

    @classmethod
    def from_blocks(cls, blocks) -> "CanonicalCertificate":
        blocks = tuple(tuple(b) for b in blocks)
        digest = hashlib.sha256(repr(blocks).encode()).hexdigest()
        return cls(blocks, digest)


@dataclass(frozen=True)
class SearchStats:
    """Counters of one search: tree nodes visited (leaves included), leaves,
    and distinct non-identity automorphisms recorded."""

    nodes: int
    leaves: int
    automorphisms: int


@dataclass(frozen=True)
class AutResult:
    group: PermGroup
    order: int
    stats: SearchStats | None = None


@dataclass(frozen=True)
class IsoResult:
    """A point bijection carrying the blocks of a onto those of b, or None,
    with the counters of the searches over a and b."""

    mapping: Permutation | None
    stats: tuple[SearchStats, SearchStats]


def _equitable(cells: list[tuple[int, ...]], adj: list[int],
               fresh: list[int]) -> list[tuple[int, ...]]:
    """Refine an ordered partition until every cell is equitable.

    The input must already be equitable towards every cell not listed in
    `fresh`. Each round then counts neighbors in the cells that the previous
    round created, and only in those that some vertex of the cell reaches: a
    cell is equitable towards every cell that did not split, and a count that
    is constant on a cell cannot split it or reorder its fragments (McKay &
    Piperno, Practical Graph Isomorphism II, 2014). Split fragments are
    ordered by their neighbor-count signature, which is independent of the
    vertex labels; cells stay sorted internally.
    """
    while fresh:
        masks, reach = [], []
        for i in fresh:
            m = r = 0
            for u in cells[i]:
                m |= 1 << u
                r |= adj[u]
            masks.append(m)
            reach.append(r)
        new_cells: list[tuple[int, ...]] = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            cm = 0
            for u in cell:
                cm |= 1 << u
            splitters = [m for m, r in zip(masks, reach) if r & cm]
            if not splitters:
                new_cells.append(cell)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for u in cell:
                au = adj[u]
                sig = tuple((au & m).bit_count() for m in splitters)
                sigs.setdefault(sig, []).append(u)
            if len(sigs) == 1:
                new_cells.append(cell)
                continue
            for sig in sorted(sigs):
                fresh.append(len(new_cells))
                new_cells.append(tuple(sigs[sig]))
        cells = new_cells
    return cells


def _individualize(cells, idx: int, u: int):
    cell = cells[idx]
    rest = tuple(x for x in cell if x != u)
    return cells[:idx] + [(u,), rest] + cells[idx + 1:]


class _Search:
    """One individualization-refinement run over a design's incidence graph."""

    def __init__(self, d: Design):
        self.v = d.v
        self.nblocks = len(d.blocks)
        self.n = self.v + self.nblocks
        adj = [0] * self.n
        for j, b in enumerate(d.blocks):
            bv = self.v + j
            for p in b:
                adj[p - 1] |= 1 << bv
                adj[bv] |= 1 << (p - 1)
        self.adj = adj
        self.block_lookup = d.block_index()
        self.blocks = d.blocks
        self.first_pos: dict[int, int] | None = None
        self.first_cert = None
        self.best_pos: dict[int, int] | None = None
        self.best_cert = None
        self.autos: list[tuple[int, ...]] = []  # 0-based full-vertex image tuples
        self._auto_set: set[tuple[int, ...]] = set()
        # (vertex fixed at this depth, pointwise stabilizer of the path so far)
        self._path: list[tuple[int | None, PermGroup]] = []
        self._path_autos = -1
        self.nodes = self.leaves = 0

    def run(self) -> None:
        cells = [tuple(range(self.v)), tuple(range(self.v, self.n))]
        if self.nblocks == 0:
            cells = cells[:1]
        self._recurse(cells, (), list(range(len(cells))))

    # -- tree walk ---------------------------------------------------------

    def _target(self, cells) -> int | None:
        best, best_size = None, None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (best_size is None or len(cell) < best_size):
                best, best_size = i, len(cell)
        return best

    def _recurse(self, cells, prefix: tuple[int, ...], fresh: list[int]) -> None:
        self.nodes += 1
        cells = _equitable(cells, self.adj, fresh)
        tgt = self._target(cells)
        if tgt is None:
            self._leaf(cells)
            return
        explored: list[int] = []
        nautos = 0
        for u in cells[tgt]:
            if explored and self.autos:
                if len(self.autos) != nautos:
                    nautos = len(self.autos)
                    orbit_of = {p - 1: orb[0] for orb in self._prefix_stabilizer(prefix).orbits()
                                for p in orb}
                if any(orbit_of[u] == orbit_of[e] for e in explored):
                    continue
            explored.append(u)
            self._recurse(_individualize(cells, tgt, u), prefix + (u,), [tgt, tgt + 1])

    def _prefix_stabilizer(self, prefix) -> PermGroup:
        """Pointwise stabilizer of prefix in the group of the automorphisms found
        so far, acting on all vertices (1-based).

        The stabilizers of the current path are cached, one per depth, and all
        are rebuilt when an automorphism is recorded. PermGroup.stabilizer
        filters its Schreier generators, so generator lists do not grow with
        depth.
        """
        path = self._path
        if self._path_autos != len(self.autos):
            self._path_autos = len(self.autos)
            gens = [Permutation(x + 1 for x in a) for a in self.autos]
            path[:] = [(None, PermGroup(self.n, gens))]
        for depth, u in enumerate(prefix, start=1):
            if depth < len(path) and path[depth][0] == u:
                continue
            del path[depth:]
            stab = path[-1][1].stabilizer(u + 1)
            path.append((u, stab))
        return path[len(prefix)][1]

    # -- leaves ------------------------------------------------------------

    def _leaf(self, cells) -> None:
        self.leaves += 1
        pos = {cell[0]: i for i, cell in enumerate(cells)}
        cert = self._certificate(pos)
        if self.first_cert is None:
            self.first_cert, self.first_pos = cert, pos
        elif cert == self.first_cert:
            self._record_automorphism(pos)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert, self.best_pos = cert, pos

    def _point_ranks(self, pos) -> dict[int, int]:
        """Map each point p (1-based) to its canonical label (1-based)."""
        order = sorted(range(self.v), key=lambda p: pos[p])
        return {p + 1: rank + 1 for rank, p in enumerate(order)}

    def _certificate(self, pos):
        ranks = self._point_ranks(pos)
        return tuple(sorted(tuple(sorted(ranks[p] for p in b)) for b in self.blocks))

    def _record_automorphism(self, pos) -> None:
        ranks_first = self._point_ranks(self.first_pos)
        ranks_here = self._point_ranks(pos)
        inv_first = {lab: p for p, lab in ranks_first.items()}
        point_images = [inv_first[ranks_here[p]] for p in range(1, self.v + 1)]
        sigma = Permutation(point_images)
        full = list(range(self.n))
        for p in range(1, self.v + 1):
            full[p - 1] = sigma(p) - 1
        for j, b in enumerate(self.blocks):
            image = sigma.apply_set(b)
            tj = self.block_lookup.get(image)
            if tj is None:
                raise AssertionError("leaf with equal certificate is not an automorphism")
            full[self.v + j] = self.v + tj
        full_t = tuple(full)
        if not sigma.is_identity() and full_t not in self._auto_set:
            self._auto_set.add(full_t)
            self.autos.append(full_t)

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, self.leaves, len(self.autos))

    def point_generators(self) -> list[Permutation]:
        out = []
        for a in self.autos:
            out.append(Permutation(a[p] + 1 for p in range(self.v)))
        return sorted(out, key=lambda g: g.images)


def _searched(d: Design) -> _Search:
    """The finished search over d, which must verify."""
    if not verify_symmetric_design(d).ok:
        raise InputError("design does not verify; refusing to search")
    s = _Search(d)
    s.run()
    return s


def automorphism_group(d: Design) -> AutResult:
    """Full automorphism group of a verified design, acting on points."""
    s = _searched(d)
    group = PermGroup(d.v, s.point_generators())
    return AutResult(group=group, order=group.order(), stats=s.stats())


def canonical_form(d: Design) -> CanonicalCertificate:
    """Certificate invariant under point relabeling: the least leaf block list."""
    return CanonicalCertificate.from_blocks(_searched(d).best_cert)


def are_isomorphic(a: Design, b: Design) -> Permutation | None:
    """A point bijection carrying blocks of a onto blocks of b, or None.

    Consistent with canonical_form equality: a mapping exists iff the
    certificates agree.
    """
    return isomorphism(a, b).mapping


def isomorphism(a: Design, b: Design) -> IsoResult:
    """are_isomorphic, together with the counters of both searches."""
    if a.params != b.params:
        raise InputError(f"parameter mismatch: {a.params} vs {b.params}")
    sa, sb = _searched(a), _searched(b)
    stats = (sa.stats(), sb.stats())
    if sa.best_cert != sb.best_cert:
        return IsoResult(None, stats)
    ranks_a = sa._point_ranks(sa.best_pos)
    ranks_b = sb._point_ranks(sb.best_pos)
    inv_b = {lab: p for p, lab in ranks_b.items()}
    sigma = Permutation(inv_b[ranks_a[p]] for p in range(1, a.v + 1))
    image = {sigma.apply_set(blk) for blk in a.blocks}
    if image != set(b.block_sets()):
        raise AssertionError("canonical forms agree but mapping failed")
    return IsoResult(sigma, stats)


def is_automorphism(d: Design, x: Permutation) -> bool:
    """Does x map the block set onto itself?"""
    if x.degree != d.v:
        raise InputError(f"permutation degree {x.degree} != v = {d.v}")
    sets = set(d.block_sets())
    return all(x.apply_set(b) in sets for b in d.blocks)


def brute_force_automorphism_order(d: Design, cap_degree: int = 8) -> int:
    """Oracle: count all point permutations preserving the block set (v <= cap)."""
    if d.v > cap_degree:
        raise ScaleError(f"brute force capped at degree {cap_degree}")
    sets = set(d.block_sets())
    count = 0
    for images in permutations(range(1, d.v + 1)):
        x = Permutation(images)
        if all(x.apply_set(b) in sets for b in d.blocks):
            count += 1
    return count
