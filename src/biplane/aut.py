"""Automorphism groups, canonical forms and isomorphism tests for designs.

The search is individualization-refinement backtracking on the bipartite
point/block incidence graph. Points and blocks carry distinct initial colors,
so dualities are never counted as automorphisms. The partition is an ordered
list of cells, each its vertex bitmask. Individualizing a vertex u replaces
its cell by {u} and the rest; every other change of the partition is one
`_cut`, which cuts the cells that a splitter reaches by the masks of its
vertex classes, a label-invariant cell splitter in the sense of McKay & Piperno
(Practical Graph Isomorphism II, 2014). Equitable refinement
(`_equitable`) cuts by neighbor counts in the cells that the previous round
created, until nothing splits: each such cell gives, by bit-sliced counting,
the masks of the vertices with 0, 1, 2, ... neighbors in it. The incidence
graph of a symmetric design is distance-regular, so after u is individualized
those counts only separate the neighbors of u from the rest; for lambda = 2
and k >= 6 every node below the root whose partition is not yet discrete
therefore also cuts the cells across from its last individualized vertex u
that miss adj[u] by the Hussain chain of each vertex w with u (`_chain_key`),
and refines again. The classes of the chain keys are built once per u and
search, and when all of u's keys agree the split is skipped. No class depends
on a label, so the partition of every node stays label-invariant. For k < 6
every chain is one k-cycle, so the chain split is skipped. The target cell is
the first non-singleton, which is label-invariant as McKay & Piperno require;
children are taken in ascending vertex order. A child is pruned when it lies
in the orbit of an explored sibling under the pointwise stabilizer of the
prefix in the group of the automorphisms found so far (McKay & Piperno). That
stabilizer maps every cell onto itself, so only its orbits on the target cell
are computed. It comes from the Schreier-Sims loop of `perm` (_levels) along
the prefix, which runs a step only for a point that some generator still
moves; while every automorphism found fixes the prefix, as on the first path,
they generate it themselves. The map of a leaf's points onto the first leaf's
is an automorphism gamma exactly when the two leaves have equal certificates,
so each leaf tests that map with Design.block_action first, and only the
first leaf and a leaf that is not its automorphic image build a certificate.
If gamma is checked to map the leaf's path down to the child where it leaves
the first path onto that path, the child's subtree is the image of an
explored one, so the search jumps back to the child's parent (McKay,
Practical Graph Isomorphism, 1981). Neither prune skips the first leaf or the
first least leaf, so canonical forms and isomorphisms do not depend on them.
An automorphism found at a leaf that leaves the first path f_1 ... f_D at
depth i maps that leaf's points onto the first leaf's place by place, so it
fixes f_1 ... f_i; the loop at depth i of the first path, which no jump ends,
prunes a child only by such automorphisms, and below a child it keeps finds
one that maps the child to f_(i+1). So |Aut| is the product over i of the orbit sizes of f_(i+1)
under them (McKay, 1981), and no stabilizer chain is built for it.
"""

from __future__ import annotations

from typing import NamedTuple

from .design import Design
from .errors import InputError
from .perm import PermGroup, Permutation, _levels, orbit

# The interpreter's own SHA-256, as random.py takes it: hashlib would load
# OpenSSL (about 3.5 MB resident) for one digest per certificate. Chosen once
# here, so that no certificate repeats a failed import.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


class CanonicalCertificate(NamedTuple):
    """Relabeling-invariant fingerprint: the canonical block list plus a digest."""

    blocks: tuple[tuple[int, ...], ...]
    digest: str

    @classmethod
    def from_blocks(cls, blocks) -> "CanonicalCertificate":
        blocks = tuple(tuple(b) for b in blocks)
        digest = _sha256(repr(blocks).encode()).hexdigest()
        return cls(blocks, digest)


class SearchStats(NamedTuple):
    """Counters of one search: tree nodes visited (leaves included), leaves,
    and distinct non-identity automorphisms recorded."""

    nodes: int
    leaves: int
    automorphisms: int


class AutResult(NamedTuple):
    """The automorphism group on points, whose stabilizer chain is built only
    when asked for, its order from the search's first path, and the counters."""

    group: PermGroup
    order: int
    stats: SearchStats | None = None


class IsoResult(NamedTuple):
    """A point bijection carrying the blocks of a onto those of b, or None,
    with the counters of the searches over a and b."""

    mapping: Permutation | None
    stats: tuple[SearchStats, SearchStats]


def _bits(m: int) -> tuple[int, ...]:
    """The set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _count_classes(cell: int, adj: list[int], full: int) -> tuple[int, list[int]]:
    """The mask of the vertices with a neighbor in the cell with vertex
    bitmask cell, and the nonempty masks of the vertices with exactly 0, 1,
    2, ... neighbors in it, in ascending count, by bit-sliced counting:
    planes[j] holds bit j of every vertex's count."""
    planes: list[int] = []
    for s in _bits(cell):
        carry = adj[s]
        for j, p in enumerate(planes):
            planes[j] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            planes.append(carry)
    hits, classes = 0, [full]
    for p in reversed(planes):  # most significant bit first keeps counts ascending
        hits |= p
        classes = [y for x in classes for y in (x & ~p, x & p) if y]
    return hits, classes


def _cut(masks: list[int], splitters) -> tuple[list[int], list[int]]:
    """Split the cells of an ordered partition by class masks.

    Each cell is its vertex bitmask. Each splitter is a pair (hits, classes):
    every non-singleton cell that hits reaches is cut by the masks in
    classes, in order, and the splitters are applied in turn; the classes
    must cover the cell. Fragments replace their cell in place. Also
    returned, as `fresh`, are the indices of every fragment but the last of
    each split cell: if the partition was equitable, every cell has a
    constant count into a cell that split, so its count into the last
    fragment follows from the counts into the siblings. Singleton cells are
    carried over untouched, and when nothing splits the input list is
    returned. The classes must depend on no vertex label, so that the
    partition stays label-invariant.
    """
    reach = 0
    for hits, _ in splitters:
        reach |= hits
    new_masks: list[int] = []
    fresh: list[int] = []
    done = 0  # masks[:done] are in new_masks
    for i, cm in enumerate(masks):
        if not cm & reach or not cm & (cm - 1):
            continue
        parts = [cm]
        for hits, classes in splitters:
            if hits & cm:
                split = []
                for part in parts:
                    for c in classes:
                        q = part & c
                        if q:
                            split.append(q)
                            part ^= q
                            if not part:
                                break
                parts = split
        if len(parts) > 1:
            new_masks += masks[done:i]
            done = i + 1
            fresh += range(len(new_masks), len(new_masks) + len(parts) - 1)
            new_masks += parts
    if not done:
        return masks, fresh
    return new_masks + masks[done:], fresh


def _equitable(masks: list[int], adj: list[int], fresh: list[int]) -> list[int]:
    """Refine an ordered partition, each cell its vertex bitmask, until
    every cell is equitable.

    The input must already be equitable towards every cell not listed in
    `fresh`, and a caller may leave out the last fragment of a split cell
    (see _cut). Each round is one _cut whose splitters are the fresh cells S,
    in `fresh` order: S gives the masks of its count classes, the vertices
    with 0, 1, 2, ... neighbors in S, in ascending count, which is the
    lexicographic order of the tuples of those counts. A cell is equitable
    towards every cell that did not split, and a count that is constant on a
    cell cannot split it or reorder its fragments. A discrete partition ends
    the refinement, and when nothing splits the input list is returned.
    The counts depend on no vertex label.
    """
    n = len(adj)
    full = (1 << n) - 1
    while fresh and len(masks) < n:
        splitters = []
        for i in fresh:
            m = masks[i]
            if m & (m - 1):
                splitters.append(_count_classes(m, adj, full))
            else:
                hits = adj[m.bit_length() - 1]
                splitters.append((hits, (full ^ hits, hits)))
        masks, fresh = _cut(masks, splitters)
    return masks


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
        self.n = self.v + len(d.blocks)
        through, points = d.incidence
        self.adj = [m << self.v for m in through[1:]] + [m >> 1 for m in points]
        # Chain cycles have length >= 3 and sum to k, so for k < 6 every
        # chain is one k-cycle and its key splits nothing.
        self.chains = d.lam == 2 and d.k >= 6
        self.chain_splits: dict[int, tuple[int, list[int]] | None] = {}  # u -> _chain_split(u)
        # A leaf is its points, 0-based, in the order of its cells.
        self.first_order: tuple[int, ...] | None = None
        self.first_cert, self.first_prefix = None, ()  # the first leaf and its path
        self.best_order: tuple[int, ...] | None = None
        self.best_cert = None
        self.autos: dict[tuple[int, ...], int] = {}  # image tuple -> its depth off the first path
        self.nodes = self.leaves = 0

    def run(self) -> None:
        self._recurse([(1 << self.v) - 1, (1 << self.n) - (1 << self.v)], [0, 1], ())

    # -- tree walk ---------------------------------------------------------

    def _recurse(self, masks, fresh: list[int], prefix: tuple[int, ...]) -> int | None:
        """Search below prefix; return the depth to jump back to, or None."""
        self.nodes += 1
        adj = self.adj
        masks = _equitable(masks, adj, fresh)
        if prefix and self.chains and len(masks) < self.n:
            split = self._chain_split(prefix[-1])
            if split:
                masks, fresh = _cut(masks, [split])
                masks = _equitable(masks, adj, fresh)
        if len(masks) == self.n:
            return self._leaf(masks, prefix)
        tgt = next(i for i, m in enumerate(masks) if m & (m - 1))
        cell = _bits(masks[tgt])
        explored: list[int] = []
        nautos = 0
        for u in cell:
            if explored and self.autos:
                if len(self.autos) != nautos:
                    nautos = len(self.autos)
                    orbit_of = _cell_orbits(cell, self._prefix_stabilizer(prefix))
                if any(orbit_of[u] == orbit_of[e] for e in explored):
                    continue
            explored.append(u)
            # individualize u: its cell splits into {u} and the rest, fresh is [tgt]
            jump = self._recurse(masks[:tgt] + [1 << u, masks[tgt] ^ 1 << u] + masks[tgt + 1:],
                                 [tgt], prefix + (u,))
            if jump is not None and jump < len(prefix):
                return jump
        return None

    def _chain_split(self, u: int) -> tuple[int, list[int]] | None:
        """The splitter of the Hussain chain split below the individualized
        vertex u, built at most once per search, or None if it splits nothing.

        Its hits are the vertices across from u that are not adjacent to u,
        and its classes the masks of those with equal _chain_key(adj, u, w),
        in ascending key order, then the rest. Below u, equitable refinement
        has made u a singleton, so every cell lies in adj[u] or misses it and
        the split cuts exactly the cells across from u that miss it.
        """
        if u in self.chain_splits:
            return self.chain_splits[u]
        adj = self.adj
        side = (1 << self.n) - (1 << self.v) if u < self.v else (1 << self.v) - 1
        hits = side & ~adj[u]
        parts: dict[tuple[int, ...], int] = {}  # key -> the mask of its vertices
        for w in _bits(hits):
            key = _chain_key(adj, u, w)
            parts[key] = parts.get(key, 0) | 1 << w
        split = None
        if len(parts) > 1:
            split = (hits, [parts[k] for k in sorted(parts)] + [((1 << self.n) - 1) ^ hits])
        self.chain_splits[u] = split
        return split

    def _prefix_stabilizer(self, prefix) -> list[tuple[int, ...]]:
        """Generators of the pointwise stabilizer of prefix in the group of the
        automorphisms found so far, acting on all vertices.

        Refinement, the chain split included, is label-invariant, so each of
        them maps every cell of the node's partition onto itself. _levels
        runs a Schreier-Sims step only for a prefix point that some generator
        still moves: if every automorphism fixes prefix, they are the answer.
        """
        return _levels(list(self.autos), prefix, self.n)[1]

    # -- leaves ------------------------------------------------------------

    def _leaf(self, masks, prefix) -> int | None:
        """Score this leaf; return the depth to jump back to, or None.

        The map of the leaf's point order onto the first leaf's is an
        automorphism exactly when the two leaves have equal certificates, so
        it is tested first (Design.block_action) and a certificate is built
        only for the first leaf and for a leaf that is not an automorphic
        image of it."""
        self.leaves += 1
        points = 1 << self.v
        order = tuple(m.bit_length() - 1 for m in masks if m < points)
        first_order = self.first_order
        if first_order is None:
            cert = self._certificate(order)
            self.first_cert, self.first_order, self.first_prefix = cert, order, prefix
            self.best_cert, self.best_order = cert, order
            return None
        if order == first_order:  # gamma is the identity: nothing to record
            return None
        images = [q + 1 for _, q in sorted(zip(order, first_order))]
        blocks = self.d.block_action(images)
        if blocks is None:
            cert = self._certificate(order)
            if cert == self.first_cert:
                raise AssertionError("leaf with equal certificate is not an automorphism")
            if cert < self.best_cert:
                self.best_cert, self.best_order = cert, order
            return None
        # gamma, the automorphism as a 0-based full-vertex image tuple
        gamma = tuple(p - 1 for p in images) + tuple(self.v + j for j in blocks)
        first = self.first_prefix
        # neither leaf lies below the other, so their paths part at some d
        d = next(i for i, (u, f) in enumerate(zip(prefix, first)) if u != f)
        self.autos.setdefault(gamma, d)
        if all(gamma[u] == f for u, f in zip(prefix[:d + 1], first)):
            return d
        return None

    def _certificate(self, order) -> tuple[tuple[int, ...], ...]:
        """The sorted block list of the design relabeled by the places of the
        points in order."""
        rank = [0] * (self.v + 1)  # 1-based point -> its 1-based place in order
        for i, p in enumerate(order, start=1):
            rank[p + 1] = i
        return tuple(sorted(tuple(sorted(map(rank.__getitem__, b))) for b in self.d.blocks))

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
    """Full automorphism group of a verified design, acting on points, with
    its order from the search's first path and no stabilizer chain."""
    s = _searched(d)
    order = 1
    for i, f in enumerate(s.first_prefix):  # under those fixing the path above f
        order *= len(orbit(f, [g for g, at in s.autos.items() if at >= i], tuple.__getitem__))
    return AutResult(group=PermGroup(d.v, s.point_generators()), order=order, stats=s.stats())


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
    if image != b.block_index.keys():
        raise AssertionError("canonical forms agree but mapping failed")
    return IsoResult(sigma, stats)
