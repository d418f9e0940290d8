"""Automorphism groups, canonical forms and isomorphism tests for designs.

The search is individualization-refinement backtracking on the bipartite
point/block incidence graph. Points and blocks carry distinct initial colors,
so dualities are never counted as automorphisms. Refinement is iterated
degree-in-color-class counting (equitable partition) against the cells that
the previous round created only, with each cell's vertex bitmask carried
alongside it. The incidence graph of a symmetric design is distance-regular,
so after a vertex u is individualized that refinement only separates the
neighbors of u from the rest. For lambda = 2 and k >= 6, every node below
the root therefore also splits the cells on the other side of its last
individualized vertex u by the Hussain chain of each vertex w with u
(`_chain_key`), a vertex invariant in the sense of McKay & Piperno
(Practical Graph Isomorphism II, 2014), and refines again. The key depends
on no label, so the partition of every node stays label-invariant. For
k < 6 every chain is one k-cycle, so the split is skipped. The target cell
is the first smallest non-singleton; children are taken in ascending vertex
order. A child is pruned when it lies in the orbit of an explored sibling
under the pointwise stabilizer of the prefix in the group of the
automorphisms found so far (McKay & Piperno). That stabilizer maps every
cell onto itself, so only its orbits on the target cell are computed; its
generators are kept as 0-based image tuples, one list per depth of the
current path, and come from the Schreier-Sims kernel of `perm`. Pruning
never skips the first leaf or the first leaf with the least certificate, so
canonical forms and isomorphisms do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .design import Design
from .errors import InputError
from .perm import PermGroup, Permutation, _stabilizer_images, orbit


@dataclass(frozen=True)
class CanonicalCertificate:
    """Relabeling-invariant fingerprint: the canonical block list plus a digest."""

    blocks: tuple[tuple[int, ...], ...]
    digest: str

    @classmethod
    def from_blocks(cls, blocks) -> "CanonicalCertificate":
        import hashlib  # only certificates hash; automorphism and iso searches do not

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


def _equitable(cells: list[tuple[int, ...]], masks: list[int], adj: list[int],
               fresh: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Refine an ordered partition until every cell is equitable.

    masks[i] is the vertex bitmask of cells[i]; both lists are returned
    refined, and a mask is built only for a new fragment. The input must
    already be equitable towards every cell not listed in `fresh`. Each round
    then counts neighbors in the cells that the previous round created, and
    only in those that some vertex of the cell reaches: a cell is equitable
    towards every cell that did not split, and a count that is constant on a
    cell cannot split it or reorder its fragments (McKay & Piperno, Practical
    Graph Isomorphism II, 2014). Split fragments are ordered by their
    neighbor-count signature, which is independent of the vertex labels;
    cells stay sorted internally. The last fragment of a split cell is not
    counted against in the next round: every cell already has a constant
    count into the cell that split, so the count into the last fragment
    follows from the counts into its siblings, which precede it in every
    signature, and neither the partition nor its order changes. A caller may
    leave such a last fragment out of `fresh` for the same reason.
    """
    reach = []
    for i in fresh:
        r = 0
        for u in cells[i]:
            r |= adj[u]
        reach.append(r)
    while fresh:
        fresh_masks = [masks[i] for i in fresh]
        new_cells: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        fresh, new_reach = [], []
        for cell, cm in zip(cells, masks):
            if len(cell) == 1:
                new_cells.append(cell)
                new_masks.append(cm)
                continue
            splitters = [m for m, r in zip(fresh_masks, reach) if r & cm]
            if not splitters:
                new_cells.append(cell)
                new_masks.append(cm)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for u in cell:
                sig = tuple(map(int.bit_count, map(adj[u].__and__, splitters)))
                sigs.setdefault(sig, []).append(u)
            if len(sigs) == 1:
                new_cells.append(cell)
                new_masks.append(cm)
                continue
            *split, last = sorted(sigs)
            for sig in split:
                fragment = sigs[sig]
                m = r = 0
                for u in fragment:
                    m |= 1 << u
                    r |= adj[u]
                fresh.append(len(new_cells))
                new_cells.append(tuple(fragment))
                new_masks.append(m)
                new_reach.append(r)
                cm ^= m
            new_cells.append(tuple(sigs[last]))
            new_masks.append(cm)
        cells, masks, reach = new_cells, new_masks, new_reach
    return cells, masks


def _individualize(cells, masks, idx: int, u: int):
    """Split vertex u off cells[idx] as a singleton in front of the rest."""
    bit = 1 << u
    rest = tuple(x for x in cells[idx] if x != u)
    return (cells[:idx] + [(u,), rest] + cells[idx + 1:],
            masks[:idx] + [bit, masks[idx] ^ bit] + masks[idx + 1:])


def _cell_orbits(cell: tuple[int, ...], generators) -> dict[int, int]:
    """Map each vertex of a sorted cell to the least vertex of its orbit under
    generators (0-based image tuples), each of which maps the cell onto
    itself."""
    rep: dict[int, int] = {}
    for u in cell:
        if u not in rep:
            for x in orbit(u, generators, tuple.__getitem__):
                rep[x] = u
    return rep


def _chain_key(adj: list[int], u: int, w: int) -> tuple[int, ...]:
    """Sorted cycle lengths of the Hussain chain of the anti-flag {u, w} of a
    biplane's incidence graph (Hussain 1945; Cameron, Biplanes, 1973).

    Each neighbor c of w meets the neighbors of u in the pair adj[c] & adj[u];
    for lambda = 2 these k pairs are the edges of a simple 2-regular graph on
    the neighbors of u, whose components are its cycles.
    """
    nu, cycles = adj[u], []
    rest = adj[w]
    while rest:
        c = rest.bit_length() - 1
        rest ^= 1 << c
        pair, kept = adj[c] & nu, []
        for x in cycles:
            if x & pair:
                pair |= x
            else:
                kept.append(x)
        kept.append(pair)
        cycles = kept
    return tuple(sorted(map(int.bit_count, cycles)))


class _Search:
    """One individualization-refinement run over a design's incidence graph."""

    def __init__(self, d: Design):
        self.d = d
        self.v = d.v
        self.nblocks = len(d.blocks)
        self.n = self.v + self.nblocks
        through, points = d.incidence
        self.adj = [m << self.v for m in through[1:]] + [m >> 1 for m in points]
        # Chain cycles have length >= 3 and sum to k, so for k < 6 every
        # chain is one k-cycle and its key splits nothing.
        self.chains = d.lam == 2 and d.k >= 6
        # A leaf is its points, 0-based, in the order of its cells.
        self.first_order: tuple[int, ...] | None = None
        self.first_cert = None
        self.best_order: tuple[int, ...] | None = None
        self.best_cert = None
        self.autos: dict[tuple[int, ...], None] = {}  # 0-based full-vertex image tuples
        # (vertex fixed at this depth, generators of the pointwise stabilizer
        # of the path so far as 0-based image tuples); new automorphisms clear it
        self._path: list[tuple[int | None, list[tuple[int, ...]]]] = []
        self.nodes = self.leaves = 0

    def run(self) -> None:
        cells = [tuple(range(self.v)), tuple(range(self.v, self.n))]
        masks = [(1 << self.v) - 1, (1 << self.n) - (1 << self.v)]
        if self.nblocks == 0:
            cells, masks = cells[:1], masks[:1]
        self._recurse(cells, masks, (), list(range(len(cells))))

    # -- tree walk ---------------------------------------------------------

    def _target(self, cells) -> int | None:
        best, best_size = None, None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (best_size is None or len(cell) < best_size):
                best, best_size = i, len(cell)
        return best

    def _recurse(self, cells, masks, prefix: tuple[int, ...], fresh: list[int]) -> None:
        self.nodes += 1
        cells, masks = _equitable(cells, masks, self.adj, fresh)
        if prefix and self.chains:
            cells, masks, fresh = self._split_by_chains(cells, masks, prefix[-1])
            if fresh:
                cells, masks = _equitable(cells, masks, self.adj, fresh)
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
                    orbit_of = _cell_orbits(cells[tgt], self._prefix_stabilizer(prefix))
                if any(orbit_of[u] == orbit_of[e] for e in explored):
                    continue
            explored.append(u)
            self._recurse(*_individualize(cells, masks, tgt, u), prefix + (u,), [tgt])

    def _split_by_chains(self, cells, masks, u: int):
        """Split each non-singleton cell on the other side of u by the chain
        key of each of its vertices with u. The fragments come in key order,
        and the indices of all but the last of each split cell are returned
        as the fresh cells (see _equitable)."""
        adj, side = self.adj, u < self.v
        new_cells, new_masks, fresh = [], [], []
        for cell, m in zip(cells, masks):
            if len(cell) > 1 and (cell[0] < self.v) != side:
                keys: dict[tuple[int, ...], list[int]] = {}
                for w in cell:
                    key = () if adj[u] >> w & 1 else _chain_key(adj, u, w)
                    keys.setdefault(key, []).append(w)
                if len(keys) > 1:
                    *split, last = sorted(keys)
                    for key in split:
                        fresh.append(len(new_cells))
                        new_cells.append(tuple(keys[key]))
                        new_masks.append(sum(1 << w for w in keys[key]))
                        m ^= new_masks[-1]
                    new_cells.append(tuple(keys[last]))
                    new_masks.append(m)
                    continue
            new_cells.append(cell)
            new_masks.append(m)
        return new_cells, new_masks, fresh

    def _prefix_stabilizer(self, prefix) -> list[tuple[int, ...]]:
        """Generators of the pointwise stabilizer of prefix in the group of the
        automorphisms found so far, acting on all vertices.

        Refinement, the chain split included, is label-invariant, so each of
        them maps every cell of the node's partition onto itself. The
        stabilizers of the current path are cached, one per depth, and all are
        rebuilt when an automorphism is recorded; Sims' filter keeps generator
        lists from growing with depth.
        """
        path = self._path
        if not path:
            path.append((None, list(self.autos)))
        for depth, u in enumerate(prefix, start=1):
            if depth < len(path) and path[depth][0] == u:
                continue
            del path[depth:]
            path.append((u, _stabilizer_images(u, path[-1][1])))
        return path[len(prefix)][1]

    # -- leaves ------------------------------------------------------------

    def _leaf(self, cells) -> None:
        self.leaves += 1
        order = tuple(c[0] for c in cells if c[0] < self.v)
        rank = [0] * (self.v + 1)  # 1-based point -> its 1-based place in order
        for i, p in enumerate(order, start=1):
            rank[p + 1] = i
        cert = tuple(sorted(tuple(sorted(map(rank.__getitem__, b))) for b in self.d.blocks))
        if self.first_cert is None:
            self.first_cert, self.first_order = cert, order
        elif cert == self.first_cert:
            self._record_automorphism(order)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert, self.best_order = cert, order

    def _record_automorphism(self, order) -> None:
        """Record the map of this leaf's point order onto the first leaf's."""
        if order == self.first_order:
            return
        images = [q + 1 for _, q in sorted(zip(order, self.first_order))]
        blocks = self.d.block_action(images)
        if blocks is None:
            raise AssertionError("leaf with equal certificate is not an automorphism")
        full_t = tuple(p - 1 for p in images) + tuple(self.v + j for j in blocks)
        if full_t not in self.autos:
            self.autos[full_t] = None
            self._path.clear()

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, self.leaves, len(self.autos))

    def point_generators(self) -> list[Permutation]:
        out = []
        for a in self.autos:
            out.append(Permutation(a[p] + 1 for p in range(self.v)))
        return sorted(out, key=lambda g: g.images)


def _searched(d: Design) -> _Search:
    """The finished search over d, which must verify (Design.require_verified)."""
    s = _Search(d.require_verified())
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
    sigma = Permutation(q + 1 for _, q in sorted(zip(sa.best_order, sb.best_order)))
    image = {sigma.apply_set(blk) for blk in a.blocks}
    if image != b.block_index().keys():
        raise AssertionError("canonical forms agree but mapping failed")
    return IsoResult(sigma, stats)
