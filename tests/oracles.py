"""Slow, obviously correct reference routines that the tests compare the
package against. Nothing in the package calls them."""

from collections import Counter
from itertools import permutations

from biplane.design import Design
from biplane.diffset import DiffsetSearchStats, GroupTable
from biplane.errors import InputError, ScaleError
from biplane.fixcert import FixReport
from biplane.perm import CycleType, PermGroup, Permutation, _cycles


def closure(generators, degree: int, cap: int = 10**6) -> set[Permutation]:
    """Brute-force element closure; the oracle against chain orders at small degree."""
    gens = [g for g in generators if not g.is_identity()]
    els = {Permutation.identity(degree)}
    frontier = list(els)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = g * a
                if c not in els:
                    if len(els) >= cap:
                        raise ScaleError("closure exceeds cap")
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return els


def brute_force_automorphism_order(d: Design, cap_degree: int = 8) -> int:
    """Count all point permutations preserving the block set (v <= cap)."""
    if d.v > cap_degree:
        raise ScaleError(f"brute force capped at degree {cap_degree}")
    return sum(d.block_action(images) is not None
               for images in permutations(range(1, d.v + 1)))


def reference_minimal_block(group: PermGroup, alpha: int, beta: int) -> frozenset:
    """The class of alpha in the finest equivalence relation that every
    generator preserves and that joins alpha and beta, by union-find: join
    alpha and beta, then g(u) and g(v) for each joined pair (u, v) and each
    generator g, until nothing joins. The reference for PermGroup.minimal_block."""
    parent = list(range(group.degree + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        u, v = queue.pop()
        for g in group.generators:
            a, b = g(u), g(v)
            if union(a, b):
                queue.append((a, b))
    root = find(alpha)
    return frozenset(p for p in range(1, group.degree + 1) if find(p) == root)


def reference_block_action(d: Design, images) -> tuple[int, ...] | None:
    """Design.block_action by building the image set of every block from
    its point list, against a block index of its own: the reference for the
    cached block getters."""
    if len(images) != d.v:
        raise InputError(f"permutation degree {len(images)} != v = {d.v}")
    index = {frozenset(b): i for i, b in enumerate(d.blocks)}
    out = tuple([index.get(frozenset([images[p - 1] for p in b])) for b in d.blocks])
    return None if None in out else out


def reference_walk(images, first: int) -> tuple[CycleType, tuple[int, ...], int, int]:
    """fixcert._walk from the list of cycles, counted with a Counter and
    read three more times: the reference for its one-pass form."""
    cycles = list(_cycles(images, first))
    fixed = tuple(c[0] for c in cycles if len(c) == 1)
    two = sum(1 << c[0] | 1 << c[1] for c in cycles if len(c) == 2)  # disjoint bits
    return (CycleType.from_dict(Counter(map(len, cycles))), fixed,
            sum(1 << i for i in fixed), two)


def reference_cycles(x: Permutation) -> list[tuple[int, ...]]:
    """Every cycle of x, fixed points included, each starting at its least
    point, sorted by that point; by following x from each unvisited point."""
    seen: set[int] = set()
    out = []
    for start in range(1, x.degree + 1):
        if start in seen:
            continue
        cyc = [start]
        p = x(start)
        while p != start:
            cyc.append(p)
            p = x(p)
        seen.update(cyc)
        out.append(tuple(cyc))
    return out


def reference_cycle_type(x: Permutation) -> CycleType:
    lengths: dict[int, int] = {}
    for c in reference_cycles(x):
        lengths[len(c)] = lengths.get(len(c), 0) + 1
    return CycleType.from_dict(lengths)


def induced_block_permutation(d: Design, x: Permutation) -> Permutation:
    """The permutation of block indices (1-based) induced by a point automorphism."""
    return Permutation(j + 1 for j in d.require_verified().automorphism_actions([x])[0])


def _orbit_stats(members, x: Permutation) -> tuple[int, int]:
    """(# fixed elements, # 2-orbits) of <x> acting on an invariant set."""
    members = set(members)
    fixed = two = 0
    seen = set()
    for m in members:
        if m in seen:
            continue
        orbit = [m]
        p = x(m)
        while p != m:
            orbit.append(p)
            p = x(p)
        seen.update(orbit)
        if len(orbit) == 1:
            fixed += 1
        elif len(orbit) == 2:
            two += 1
    return fixed, two


def orbit_walk_fix_report(d: Design, x: Permutation) -> FixReport:
    """fix_report by walking the <x>-orbits on every fixed block, and of the
    induced block permutation on the blocks through every fixed point."""
    bx = induced_block_permutation(d, x)
    fixed_points = tuple(p for p in range(1, d.v + 1) if x(p) == p)
    fixed_blocks = tuple(j for j in range(len(d.blocks)) if bx(j + 1) == j + 1)
    s_block, r_block = {}, {}
    for j in fixed_blocks:
        s_block[j], r_block[j] = _orbit_stats(d.blocks[j], x)
    s_point, r_point = {}, {}
    for p in fixed_points:
        s_point[p], r_point[p] = _orbit_stats(
            [j + 1 for j, b in enumerate(d.blocks) if p in b], bx)
    return FixReport(
        f_points=len(fixed_points),
        f_blocks=len(fixed_blocks),
        fixed_points=fixed_points,
        fixed_blocks=fixed_blocks,
        s_point=s_point,
        r_point=r_point,
        s_block=s_block,
        r_block=r_block,
    )


def brute_force_table_automorphisms(g) -> list[tuple[int, ...]]:
    """Every permutation of the elements of a group table that fixes 0 and
    preserves mul, as image tuples in ascending order."""
    n, mul = g.n, g.mul
    return [phi for phi in ((0,) + rest for rest in permutations(range(1, n)))
            if all(phi[mul[a][b]] == mul[phi[a]][phi[b]] for a in range(n) for b in range(n))]


def incremental_pair_sets(g: GroupTable, k: int,
                          lam: int) -> tuple[list[tuple[int, ...]], DiffsetSearchStats]:
    """Every (n,k,lam) difference set in g that contains {0, 1}, ascending,
    and the search's counters: the reference for `diffset._pair_sets`, which
    must find the same sets in the same order in no more nodes.

    Starts from the pair {0, 1} and backtracks over the elements after 1 in
    increasing order, so it reaches at most C(n-2,k-2) subsets. The count of
    each difference x^-1 y (both orders of every pair) is kept in one array,
    and a branch is cut when a count exceeds lam or too few elements remain
    to fill the set. Since k(k-1) = lam(n-1), a full set with no count above
    lam has every count equal to lam.
    """
    n, mul, inv = g.n, g.mul, g.inv
    # left[y][x] = x^-1 y and right[y][x] = y^-1 x: the two differences of
    # the pair {x, y}, read from the rows of the element being added
    right = [mul[inv[y]] for y in range(n)]
    left = [[mul[inv[x]][y] for x in range(n)] for y in range(n)]
    counts = [0] * n
    counts[1] += 1
    counts[inv[1]] += 1
    chosen = [0, 1]
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(start: int) -> None:
        nonlocal nodes
        nodes += 1
        depth = len(chosen)
        if depth == k:
            found.append(tuple(chosen))
            return
        for y in range(start, n - k + depth + 1):
            ly, ry = left[y], right[y]
            added = 0
            for x in chosen:
                a, b = ly[x], ry[x]
                counts[a] += 1
                counts[b] += 1
                added += 1
                if counts[a] > lam or counts[b] > lam:
                    break
            else:
                chosen.append(y)
                extend(y + 1)
                chosen.pop()
            for x in chosen[:added]:
                counts[ly[x]] -= 1
                counts[ry[x]] -= 1

    if counts[1] <= lam:  # 1 = 1^-1 is counted twice when 1 is an involution
        extend(2)
    return found, DiffsetSearchStats(nodes=nodes, hits=len(found))


def all_translates_rep(g: GroupTable, subset: tuple[int, ...],
                       automorphisms: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Least sorted right translate by e^-1, over every e of every image of
    the subset under the automorphisms (the subset itself when there are
    none): the reference for `diffset._canonical_rep`."""
    mul, inv = g.mul, g.inv
    images = [tuple(a[e] for e in subset) for a in automorphisms] if automorphisms else [subset]
    return min(tuple(sorted(mul[f][inv[e]] for f in img)) for img in images for e in img)


def landau(n: int) -> int:
    """Landau's g(n), the largest element order in Sym(n): the largest
    product of prime powers with distinct primes whose sum is at most n,
    by a knapsack over the primes up to n (one power of each at most)."""
    best = [1] * (n + 1)
    for p in range(2, n + 1):
        if any(p % q == 0 for q in range(2, p)):
            continue
        for total in range(n, p - 1, -1):  # descending: each prime used once
            q = p
            while q <= total:
                best[total] = max(best[total], best[total - q] * q)
                q *= p
    return best[n]


# The refinement kernel of the IR search as it was before equitable
# refinement moved to bitmasks: one pass splits cells by a per-vertex key, and
# each round of equitable refinement keys every vertex of a reached cell by its
# tuple of neighbor counts. aut._equitable must return exactly what
# count_key_equitable returns, cell order and masks included.

def count_key_refine(cells: list[tuple[int, ...]], masks: list[int], key_of
                     ) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Split cells by a vertex invariant; the one place a partition changes.

    masks[i] is the vertex bitmask of cells[i]. key_of(cell, mask) gives the
    key of each vertex of a non-singleton cell, as a function, or None to
    leave the cell whole. A cell with more than one key is replaced by its
    fragments in key order, each sorted like the cell, and a mask is built
    only for a new fragment. Also returned, as `fresh`, are the indices of
    every fragment but the last of each split cell: if the partition was
    equitable, every cell has a constant count into a cell that split, so
    its count into the last fragment follows from the counts into the
    siblings, which precede it in every signature (see count_key_equitable).
    The keys must depend on no vertex label, so that the partition stays
    label-invariant.
    """
    new_cells: list[tuple[int, ...]] = []
    new_masks: list[int] = []
    fresh: list[int] = []
    for cell, cm in zip(cells, masks):
        key = len(cell) > 1 and key_of(cell, cm)
        if key:
            parts: dict = {}
            for u in cell:
                parts.setdefault(key(u), []).append(u)
            if len(parts) > 1:
                *split, last = sorted(parts)
                for k in split:
                    m = 0
                    for u in parts[k]:
                        m |= 1 << u
                    fresh.append(len(new_cells))
                    new_cells.append(tuple(parts[k]))
                    new_masks.append(m)
                    cm ^= m
                cell = tuple(parts[last])
        new_cells.append(cell)
        new_masks.append(cm)
    return new_cells, new_masks, fresh


def count_key_equitable(cells: list[tuple[int, ...]], masks: list[int], adj: list[int],
                        fresh: list[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Refine an ordered partition until every cell is equitable.

    The input must already be equitable towards every cell not listed in
    `fresh`, and a caller may leave out the last fragment of a split cell
    (see count_key_refine). Each round is one count_key_refine whose key is
    the vertex's neighbor counts in the fresh cells, counted only in those that some
    vertex of the cell reaches: a cell is equitable towards every cell that
    did not split, and a count that is constant on a cell cannot split it
    or reorder its fragments. The counts depend on no vertex label.
    """
    while fresh:
        splitters = []
        for i in fresh:
            reach = 0
            for u in cells[i]:
                reach |= adj[u]
            splitters.append((masks[i], reach))

        def counts(cell, cm):
            into = [m for m, reach in splitters if reach & cm]
            if into:
                return lambda u: tuple(map(int.bit_count, map(adj[u].__and__, into)))
            return None
        cells, masks, fresh = count_key_refine(cells, masks, counts)
    return cells, masks
