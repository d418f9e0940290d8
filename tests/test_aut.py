import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest

from biplane import aut, catalog
from biplane.aut import (CanonicalCertificate, _chain_key, _cut, _equitable, _Search,
                         _searched, are_isomorphic, automorphism_group,
                         canonical_form, isomorphism)
from biplane.design import Design, DesignParams, dual
from biplane.diffset import DifferenceSet, develop, from_tag, search_difference_sets
from biplane.errors import InputError
from biplane.perm import PermGroup, Permutation
from oracles import brute_force_automorphism_order, count_key_equitable, count_key_refine

# Per catalog design: the group order, the number of automorphisms the search
# offers as generators, and the SHA-256 canonical digest. Orders never change;
# digests change only with the refinement or the target cell rule, generator
# counts also with pruning.
CATALOG_GATE = {
    "fano_complement": (
        168, 5, "dd55c94cfb858c5d420e0cedcf39b5a02eceb2c23a6a00c91c12e503e6c24555"),
    "hadamard11": (
        660, 4, "f0d4b439064fd73a9cb4d5d6657299f86d59fb601ebbac0d21c749f39350f75c"),
    "biplane16_primitive": (
        11520, 7, "f43db628e7472be941b6b083177bd1a0adea662160e2e22ffd71a8e574088965"),
    "biplane16_c2c8": (
        768, 4, "2bc86d5d4eaa069a968d909df062b931a91c5570e96a9fb9e388c1b9b6687e3c"),
    "biplane16_q8c2": (
        384, 4, "0557c5b6e20a2c188d00f132630a73015a362c18f1dc4ff44a1a711d1ca3b0e8"),
    "biplane37_qr": (
        333, 2, "5dcc7ab81120696b19f9a60aa3aa8156a42cd42d4a956c900f8760dfb8010b54"),
}

# Search counters per catalog design: (nodes, leaves, automorphisms recorded).
# They change only with the refinement, the target cell rule or the pruning.
SEARCH_STATS = {
    "fano_complement": (13, 6, 5),
    "hadamard11": (15, 5, 4),
    "biplane16_primitive": (26, 8, 7),
    "biplane16_c2c8": (11, 5, 4),
    "biplane16_q8c2": (12, 5, 4),
    "biplane37_qr": (6, 3, 2),
}

# The same counters with equitable refinement alone, before the Hussain chain
# split: an upper bound that no refinement step may exceed in nodes.
SEARCH_STATS_WITHOUT_CHAINS = {
    "fano_complement": (13, 6, 5),
    "hadamard11": (15, 5, 4),
    "biplane16_primitive": (26, 8, 7),
    "biplane16_c2c8": (36, 18, 4),
    "biplane16_q8c2": (38, 24, 4),
    "biplane37_qr": (170, 158, 2),
}

# are_isomorphic(d, d relabeled by a fixed shuffle): the first leaf with the
# least certificate is never pruned, so these mappings survive every change of
# pruning; they change with the refinement.
ISO_MAPPINGS = {
    "hadamard11": "(3,6,8,11,10)(4,5,7,9)",
    "biplane16_c2c8": "(3,10,11,12,14,13,4,5,6,16,15,8,7,9)",
    "biplane16_q8c2": "(2,5,6,14,15,13,3,16,9,4,10,7,11)(8,12)",
    "biplane37_qr": "(2,19,10,8,31,20,13,3,24,37,32,27,16,11,26,5,7,30,14,22,23,29,9,21)"
                    "(4,35,34,33,15,25,17,28,12,6)",
}


def test_search_stats_pinned(aut_results):
    for name, (nodes, leaves, autos) in SEARCH_STATS.items():
        stats = aut_results[name].stats
        assert (stats.nodes, stats.leaves, stats.automorphisms) == (nodes, leaves, autos), name
        assert autos == len(aut_results[name].group.generators), name


def test_chain_split_never_adds_nodes(aut_results):
    for name, (nodes, _, _) in SEARCH_STATS_WITHOUT_CHAINS.items():
        assert aut_results[name].stats.nodes <= nodes, name


# Developments with lambda != 2, where the search skips the chain split:
# (group tag, base set, lambda) -> (order, nodes, leaves, automorphisms), the
# same as with equitable refinement alone.
LAMBDA_NOT_2_GATE = {
    ("c7", (0, 1, 3), 1): (168, 11, 5, 4),
    ("c13", (0, 1, 3, 9), 1): (5616, 18, 7, 6),
    ("c15", (0, 1, 2, 4, 5, 8, 10), 3): (20160, 17, 7, 6),
    ("c31", (0, 1, 3, 8, 12, 18), 1): (372000, 19, 8, 7),  # PG(2,5)
    ("c57", (0, 1, 3, 13, 32, 36, 43, 52), 1): (5630688, 20, 9, 8),  # PG(2,7)
}


def test_lambda_not_2_searches_pinned():
    for (tag, elements, lam), expected in LAMBDA_NOT_2_GATE.items():
        d = develop(DifferenceSet(group=from_tag(tag), elements=elements, lam=lam))
        assert d.lam == lam != 2
        result = automorphism_group(d)
        stats = result.stats
        assert (result.order, stats.nodes, stats.leaves, stats.automorphisms) == expected, tag


# A Singer difference set in the cyclic group of order q^2 + q + 1 per prime
# power q; its development is the projective plane PG(2,q).
SINGER_SETS = {
    2: (0, 1, 3),
    3: (0, 1, 3, 9),
    4: (0, 1, 4, 14, 16),
    5: (0, 1, 3, 8, 12, 18),
    7: (0, 1, 3, 13, 32, 36, 43, 52),
    8: (1, 2, 4, 8, 16, 32, 37, 55, 64),
    9: (0, 1, 3, 9, 27, 49, 56, 61, 77, 81),
}
# Equitable refinement barely splits a projective plane, so a poor choice of
# target cell shows as a blow-up of the tree; every plane above stays under it.
PROJECTIVE_PLANE_NODE_CEILING = 100


@pytest.mark.parametrize("q", sorted(SINGER_SETS))
def test_projective_plane_groups(q):
    # Aut PG(2,q) = PGammaL(3,q), of order e q^3 (q^3 - 1)(q^2 - 1) for q = p^e
    p = next(p for p in range(2, q + 1) if q % p == 0)
    e = next(e for e in range(1, q + 1) if p ** e == q)
    d = develop(DifferenceSet(group=from_tag(f"c{q * q + q + 1}"), elements=SINGER_SETS[q], lam=1))
    assert d.params == DesignParams(q * q + q + 1, q + 1, 1)
    result = automorphism_group(d)
    assert result.order == e * q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
    assert result.stats.nodes <= PROJECTIVE_PLANE_NODE_CEILING


def _anti_flag_keys(d: Design) -> list[tuple[int, ...]]:
    """The chain key of every anti-flag of d, from the block side and from the
    point side, each checked against the chain graph built edge by edge."""
    s = _Search(d)
    keys = []
    for u in range(s.n):
        for w in range(s.n):
            if (u < s.v) == (w < s.v) or s.adj[u] >> w & 1:
                continue
            edges = [s.adj[c] & s.adj[u] for c in range(s.n) if s.adj[w] >> c & 1]
            assert len(edges) == d.k and all(e.bit_count() == 2 for e in edges)
            assert len(set(edges)) == d.k  # simple
            nbr = {x: [] for x in range(s.n) if s.adj[u] >> x & 1}
            for e in edges:
                x, y = (i for i in range(s.n) if e >> i & 1)
                nbr[x].append(y)
                nbr[y].append(x)
            assert all(len(ys) == 2 for ys in nbr.values())  # 2-regular on k vertices
            lengths, seen = [], set()
            for x in nbr:
                size = 0
                while x not in seen:
                    seen.add(x)
                    size += 1
                    x = next((y for y in nbr[x] if y not in seen), x)
                if size:
                    lengths.append(size)
            key = _chain_key(s.adj, u, w)
            assert key == tuple(sorted(lengths))
            assert min(key) >= 3 and sum(key) == d.k
            keys.append(key)
    return keys


def test_chain_keys_on_every_anti_flag():
    rng = random.Random(29)
    for name in catalog.constructible_names():
        d = catalog.build(name)
        keys = _anti_flag_keys(d)
        assert len(keys) == 2 * d.v * (d.v - d.k), name
        images = list(range(1, d.v + 1))
        rng.shuffle(images)
        assert sorted(_anti_flag_keys(d.relabel(Permutation(images)))) == sorted(keys), name


def test_biplane37_relabelings_agree():
    rng = random.Random(37)
    d = catalog.build("biplane37_qr")
    digest = CATALOG_GATE["biplane37_qr"][2]
    for _ in range(3):
        images = list(range(1, d.v + 1))
        rng.shuffle(images)
        relabeled = d.relabel(Permutation(images))
        assert canonical_form(relabeled).digest == digest
        sigma = isomorphism(d, relabeled).mapping
        target = relabeled.block_index.keys()
        assert sigma is not None and all(sigma.apply_set(b) in target for b in d.blocks)


def _pg25() -> Design:
    return develop(DifferenceSet(group=from_tag("c31"), elements=(0, 1, 3, 8, 12, 18), lam=1))


def test_pg25_relabelings_agree():
    rng = random.Random(31)
    d = _pg25()
    digest = canonical_form(d).digest
    for _ in range(3):
        images = list(range(1, d.v + 1))
        rng.shuffle(images)
        relabeled = d.relabel(Permutation(images))
        assert canonical_form(relabeled).digest == digest
        sigma = are_isomorphic(d, relabeled)
        target = relabeled.block_index.keys()
        assert sigma is not None and all(sigma.apply_set(b) in target for b in d.blocks)


def _hlw56() -> Design:
    """The (56,11,2) biplane of Hall, Lane & Wales (1970) from the hyperovals
    of PG(2,4): its lines are the translates of the Singer set {0,1,4,14,16}
    in c21, and a hyperoval is a 6-set of points with no three collinear. Two
    hyperovals of one class of 56 meet in 0 or 2 points. The points are the
    class of the lexicographically first hyperoval, in lexicographic order,
    and the block of a hyperoval O is O with the 10 hyperovals disjoint from it."""
    lines = [{(d + x) % 21 for d in (0, 1, 4, 14, 16)} for x in range(21)]
    line_of = {pair: line for line in lines for pair in combinations(sorted(line), 2)}

    def arcs(arc, start):
        if len(arc) == 6:
            yield frozenset(arc)
            return
        for p in range(start, 21):
            if all(p not in line_of[pair] for pair in combinations(arc, 2)):
                yield from arcs(arc + [p], p + 1)
    hyperovals = list(arcs([], 0))
    assert len(hyperovals) == 168
    points = [h for h in hyperovals if len(h & hyperovals[0]) % 2 == 0]
    assert len(points) == 56
    blocks = [[i] + [j for j, h in enumerate(points, 1) if not h & o]
              for i, o in enumerate(points, 1)]
    return Design(DesignParams(56, 11, 2), blocks)


HLW56_ORDER = 80640
HLW56_DIGEST = "3d7cef312c4da732b8d59626f8602fb9fd4e63484421e27e812405c6ac5bc7f5"
# (nodes, leaves, automorphisms) unrelabeled and under two shuffles of
# random.Random(56). Unlike the catalog searches, these find automorphisms
# that move the prefix, so the pruning runs Schreier-Sims: pruning with only
# the automorphisms that fix the prefix reads 192/152/145 nodes instead.
HLW56_STATS = [(64, 18, 7), (127, 61, 6), (139, 62, 5)]


def test_hlw56_searches_pinned(monkeypatch):
    calls = []
    levels = aut._levels

    def counting(generators, base, n):
        out = levels(generators, base, n)
        calls.extend(beta for beta, _ in out[0])
        return out
    monkeypatch.setattr(aut, "_levels", counting)
    rng = random.Random(56)
    d = _hlw56()
    labeled = [d]
    for _ in range(2):
        images = list(range(1, d.v + 1))
        rng.shuffle(images)
        labeled.append(d.relabel(Permutation(images)))
    digests = set()
    for e, expected in zip(labeled, HLW56_STATS):
        calls.clear()
        s = _searched(e)
        assert PermGroup(e.v, s.point_generators()).order() == HLW56_ORDER
        assert tuple(s.stats()) == expected
        assert calls
        digests.add(CanonicalCertificate.from_blocks(s.best_cert).digest)
    assert digests == {HLW56_DIGEST}


def _pg2_by_coordinates(q: int) -> Design:
    """PG(2,q), q prime, from homogeneous coordinates over GF(q): a point is
    the normalized vector (first nonzero coordinate 1) of a line through the
    origin, listed as (1,a,b), then (0,1,b), then (0,0,1), and the line of u
    is the set of points orthogonal to u."""
    points = ([(1, a, b) for a in range(q) for b in range(q)]
              + [(0, 1, b) for b in range(q)] + [(0, 0, 1)])
    blocks = [[i for i, x in enumerate(points, 1) if sum(a * b for a, b in zip(u, x)) % q == 0]
              for u in points]
    return Design(DesignParams(q * q + q + 1, q + 1, 1), blocks)


# PG(2,11) on the labeling of _pg2_by_coordinates, at degree 133: the order
# |PGL(3,11)| and (nodes, leaves, automorphisms). Of its 0.3 s, about 0.25 s
# is PermGroup.order(), the part that grows fastest with the degree: PG(2,19)
# searches in 0.15 s and takes 6.6 s for its order.
PG2_11_ORDER = 212_427_600
PG2_11_STATS = (19, 7, 6)


def test_pg2_11_by_coordinates_pinned():
    q = 11
    result = automorphism_group(_pg2_by_coordinates(q))
    assert result.order == PG2_11_ORDER == q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
    stats = result.stats
    assert (stats.nodes, stats.leaves, stats.automorphisms) == PG2_11_STATS


# Search counters (nodes, leaves, automorphisms) summed over the 84 developed
# (16,6,2) difference sets of c2xc8, q8xc2 and e16, unrelabeled.
DEVELOPED_16_STATS = (1572, 532, 448)


def test_search_stats_over_developed_16_sets():
    totals = [0, 0, 0]
    digests = set()
    sets = [ds for tag in ("c2xc8", "q8xc2", "e16")
            for ds in search_difference_sets(from_tag(tag), 6, 2)]
    assert len(sets) == 84
    for ds in sets:
        s = _searched(develop(ds))
        stats = s.stats()
        totals = [t + x for t, x in zip(totals, (stats.nodes, stats.leaves, stats.automorphisms))]
        digests.add(CanonicalCertificate.from_blocks(s.best_cert).digest)
    assert tuple(totals) == DEVELOPED_16_STATS
    assert digests == {CATALOG_GATE[name][2] for name in
                       ("biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2")}


def _developed_16() -> list[Design]:
    return [develop(ds) for tag in ("c2xc8", "q8xc2", "e16")
            for ds in search_difference_sets(from_tag(tag), 6, 2)]


# _chain_key calls summed over the 84 developed (16,6,2) searches, unrelabeled:
# each search builds the chain splitter of an individualized vertex u once, and
# keys every vertex across from u that misses adj[u].
DEVELOPED_16_CHAIN_KEYS = 5080
# Chain splits at the nodes of the same searches: (skipped because all keys
# of u agree, cut).
DEVELOPED_16_CHAIN_SPLITS = (740, 216)


def test_chain_keys_computed_once_per_pair_and_search(monkeypatch):
    calls, built, skipped = [], [], []
    chain_key, chain_split = aut._chain_key, _Search._chain_split

    def counting(adj, u, w):
        calls.append((u, w))
        return chain_key(adj, u, w)

    def recording(self, u):
        before = len(calls)
        split = chain_split(self, u)
        if len(calls) > before:  # built here, keying all of u's anti-flags in one go
            side = range(self.v, self.n) if u < self.v else range(self.v)
            assert calls[before:] == [(u, w) for w in side if not self.adj[u] >> w & 1]
            built.append(u)
        skipped.append(split is None)
        return split
    monkeypatch.setattr(aut, "_chain_key", counting)
    monkeypatch.setattr(_Search, "_chain_split", recording)
    total = 0
    for d in _developed_16():
        calls.clear()
        built.clear()
        _searched(d)
        assert len(set(calls)) == len(calls)
        assert len(set(built)) == len(built)
        total += len(calls)
    assert total == DEVELOPED_16_CHAIN_KEYS
    assert (skipped.count(True), skipped.count(False)) == DEVELOPED_16_CHAIN_SPLITS


def test_no_schreier_sims_on_catalog_and_developed_16_searches(monkeypatch):
    # At every orbit computation of these searches (the catalog designs, their
    # duals, the 84 developed (16,6,2) sets and the lambda != 2 developments),
    # every automorphism found so far fixes the prefix, so they generate its
    # stabilizer themselves.
    calls = []
    levels = aut._levels

    def counting(generators, base, n):
        out = levels(generators, base, n)
        calls.extend(beta for beta, _ in out[0])
        return out
    monkeypatch.setattr(aut, "_levels", counting)
    designs = [catalog.build(name) for name in catalog.constructible_names()]
    designs += [dual(d) for d in designs]
    designs += _developed_16()
    designs += [develop(DifferenceSet(group=from_tag(tag), elements=elements, lam=lam))
                for tag, elements, lam in LAMBDA_NOT_2_GATE]
    assert len(designs) == 6 + 6 + 84 + 5
    for d in designs:
        _searched(d)
    assert calls == []


def test_jump_only_when_gamma_maps_the_path_onto_the_first_path():
    # Feed a finished search leaves whose points are the first leaf's under
    # h^-1 for a recorded automorphism h, so each gives gamma = h and the
    # first certificate, under prefixes that gamma does or does not map onto
    # the first path down to where they leave it.
    s = _searched(catalog.build("fano_complement"))
    f0, f1 = s.first_prefix[:2]
    nautos = len(s.autos)
    for h in s.autos:
        inv = sorted(range(s.n), key=h.__getitem__)
        masks = [1 << inv[p] for p in s.first_order]
        if h[f0] != f0:
            y = next(u for u in range(s.v) if u not in (f0, inv[f0]))
            assert s._leaf(masks, (inv[f0], f1)) == 0
            assert s._leaf(masks, (y, f1)) is None
            if h[f1] != f1:  # the paths part at depth 1, but h moves f0
                assert s._leaf(masks, (f0, inv[f1])) is None
        elif h[f1] != f1:
            assert s._leaf(masks, (f0, inv[f1])) == 1
    assert len(s.autos) == nautos  # returned again, not recorded again


def test_leaf_that_is_no_automorphic_image_is_scored_by_its_certificate(monkeypatch):
    # Swapping two points of the first leaf's order gives a map onto the
    # first leaf that is no automorphism: that leaf builds its certificate,
    # and one equal to the first leaf's is a named internal error.
    s = _searched(catalog.build("fano_complement"))
    order = list(s.first_order)
    order[0], order[1] = order[1], order[0]
    masks = [1 << p for p in order]
    leaves, autos, best = s.leaves, dict(s.autos), s.best_cert
    assert s._leaf(masks, (s.v,)) is None
    assert (s.leaves, s.autos) == (leaves + 1, autos)
    assert s.best_cert == min(best, s._certificate(tuple(order)))
    monkeypatch.setattr(s, "_certificate", lambda order: s.first_cert)
    with pytest.raises(AssertionError, match="leaf with equal certificate is not an automorphism"):
        s._leaf(masks, (s.v,))


def test_isomorphism_mappings_pinned():
    for name, mapping in ISO_MAPPINGS.items():
        d = catalog.build(name)
        images = list(range(1, d.v + 1))
        random.Random(6).shuffle(images)
        result = isomorphism(d, d.relabel(Permutation(images)))
        assert result.mapping.cycle_string() == mapping, name
        assert result.stats[0] == automorphism_group(d).stats, name


# SHA-256 of the search outputs per catalog design, unrelabeled and under two
# fixed shuffles: the generator cycle strings that `aut --json` prints, the
# search counters, and the isomorphism onto a third shuffle with the counters
# of both of its searches. A change that alters any of them changes the digest.
LABELED_OUTPUTS_DIGEST = "04b7366136b1593d26974c3654605a24d042f62f22ddffd0d4586300a6042ccd"


def test_search_outputs_pinned_under_relabeling():
    rng = random.Random(13)
    record = []
    for name in catalog.constructible_names():
        d = catalog.build(name)
        shuffled = []
        for _ in range(3):
            images = list(range(1, d.v + 1))
            rng.shuffle(images)
            shuffled.append(d.relabel(Permutation(images)))
        target = shuffled.pop()
        for labeled in [d] + shuffled:
            result = automorphism_group(labeled)
            iso = isomorphism(labeled, target)
            record.append((name, [g.cycle_string() for g in result.group.generators],
                           result.stats, iso.mapping.cycle_string(), iso.stats))
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert digest == LABELED_OUTPUTS_DIGEST


def test_automorphism_orders(aut_results):
    for name, (order, ngens, _) in CATALOG_GATE.items():
        assert aut_results[name].order == order, name
        assert len(aut_results[name].group.generators) == ngens, name


def test_canonical_digests_pinned():
    for name, (_, _, digest) in CATALOG_GATE.items():
        assert canonical_form(catalog.build(name)).digest == digest, name


def _digests_in_fresh_interpreter(prelude: str) -> tuple[list[str], list[str]]:
    """The canonical digests of the catalog designs, computed in a fresh
    interpreter after prelude, and which of hashlib and _hashlib it loaded."""
    code = (prelude + "\n"
            "import json, sys\n"
            "from biplane import aut, catalog\n"
            "digests = [aut.canonical_form(catalog.build(n)).digest\n"
            "           for n in catalog.constructible_names()]\n"
            "print(json.dumps([digests, sorted({'hashlib', '_hashlib'} & set(sys.modules))]))")
    src = os.path.dirname(os.path.dirname(aut.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


# Canonical forms take the interpreter's own SHA-256 module and load neither
# hashlib nor OpenSSL's _hashlib; without that module they fall back to
# hashlib, with the same digests.
@pytest.mark.parametrize("prelude, loaded", [
    ("", []),
    ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None", ["_hashlib", "hashlib"]),
], ids=["builtin-sha256", "hashlib-fallback"])
def test_canonical_digest_modules(prelude, loaded):
    digests, modules = _digests_in_fresh_interpreter(prelude)
    assert digests == [CATALOG_GATE[name][2] for name in catalog.constructible_names()]
    assert modules == loaded


def test_fano_order_against_brute_force(aut_results):
    d = catalog.build("fano_complement")
    assert brute_force_automorphism_order(d) == 168 == aut_results["fano_complement"].order


def test_generators_preserve_block_set(aut_results):
    for name, result in aut_results.items():
        d = catalog.build(name)
        for g in result.group.generators:
            assert d.block_action(g.images) is not None, (name, g)


def test_order_invariant_under_relabeling():
    rng = random.Random(11)
    d = catalog.build("biplane16_q8c2")
    base = automorphism_group(d).order
    for _ in range(3):
        images = list(range(1, 17))
        rng.shuffle(images)
        assert automorphism_group(d.relabel(Permutation(images))).order == base


def test_canonical_form_relabeling_invariant():
    rng = random.Random(5)
    for name in ("fano_complement", "hadamard11", "biplane16_c2c8"):
        d = catalog.build(name)
        cert = canonical_form(d)
        for _ in range(4):
            images = list(range(1, d.v + 1))
            rng.shuffle(images)
            relabeled = d.relabel(Permutation(images))
            assert canonical_form(relabeled) == cert, name


def test_three_16_biplanes_pairwise_distinct():
    certs = {name: canonical_form(catalog.build(name)).digest
             for name in ("biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2")}
    assert len(set(certs.values())) == 3


def test_hadamard11_self_dual():
    d = catalog.build("hadamard11")
    assert canonical_form(d) == canonical_form(dual(d))


def test_isomorphic_to_relabeling():
    rng = random.Random(2)
    d = catalog.build("biplane16_c2c8")
    images = list(range(1, 17))
    rng.shuffle(images)
    relabeled = d.relabel(Permutation(images))
    sigma = are_isomorphic(d, relabeled)
    assert sigma is not None
    target = relabeled.block_index.keys()
    assert all(sigma.apply_set(b) in target for b in d.blocks)


def test_distinct_designs_not_isomorphic():
    a = catalog.build("biplane16_primitive")
    b = catalog.build("biplane16_q8c2")
    assert are_isomorphic(a, b) is None


def test_iso_rejects_parameter_mismatch():
    with pytest.raises(InputError):
        are_isomorphic(catalog.build("fano_complement"), catalog.build("hadamard11"))


def test_dual_preserves_group_order(aut_results):
    d = catalog.build("biplane16_q8c2")
    assert automorphism_group(dual(d)).order == aut_results["biplane16_q8c2"].order


def test_unverified_design_rejected():
    junk = Design(DesignParams(7, 4, 2), [(1, 2, 3, 4)])
    with pytest.raises(InputError):
        automorphism_group(junk)
    with pytest.raises(InputError):
        canonical_form(junk)


def test_small_design_brute_force_agreement():
    # the complete (4,3,2) design has the whole of S4 as automorphisms
    complete4 = Design(DesignParams(4, 3, 2), [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
    assert automorphism_group(complete4).order == 24 == brute_force_automorphism_order(complete4)


def _equitable_full_rounds(cells, adj):
    """Reference refinement: every round counts neighbors in every cell."""
    while True:
        masks = [sum(1 << u for u in cell) for cell in cells]
        new_cells = []
        for cell in cells:
            sigs = {}
            for u in cell:
                sigs.setdefault(tuple((adj[u] & m).bit_count() for m in masks), []).append(u)
            new_cells += [tuple(sorted(sigs[sig])) for sig in sorted(sigs)]
        if new_cells == cells:
            return cells
        cells = new_cells


def _masks(cells):
    return [sum(1 << u for u in cell) for cell in cells]


def _cells(masks):
    """The cells of a partition of vertex bitmasks, as sorted vertex tuples."""
    return [tuple(u for u in range(m.bit_length()) if m >> u & 1) for m in masks]


def test_fresh_cell_refinement_matches_full_rounds():
    rng = random.Random(17)
    designs = [(name, catalog.build(name)) for name in catalog.constructible_names()]
    designs += [(f"developed {i}", d) for i, d in enumerate(_developed_16())]
    for name, d in designs:
        s = _Search(d)
        root = [tuple(range(s.v)), tuple(range(s.v, s.n))]
        start = _equitable(_masks(root), s.adj, [0, 1])
        assert _cells(start) == _equitable_full_rounds(root, s.adj), name
        for _ in range(6):
            masks = start
            while len(masks) < s.n:
                tgt = rng.choice([i for i, m in enumerate(masks) if m & (m - 1)])
                u = rng.choice(_cells(masks)[tgt])
                # individualize u as the search does: {u}, then the rest
                split = masks[:tgt] + [1 << u, masks[tgt] ^ 1 << u] + masks[tgt + 1:]
                masks = _equitable(split, s.adj, [tgt, tgt + 1])
                assert _cells(masks) == _equitable_full_rounds(_cells(split), s.adj), name
                # the search leaves the rest of the individualized cell out
                assert _equitable(split, s.adj, [tgt]) == masks, name


def test_cut_on_a_hand_made_partition():
    masks = _masks([(0, 2, 4, 6, 8), (1,), (3, 5, 7), (9, 10)])
    full = (1 << 11) - 1
    # nothing splits: one class, or a splitter that reaches only a singleton
    for splitter in ((full, [full]), (1 << 1, [1 << 1, full ^ 1 << 1])):
        got = _cut(masks, [splitter])
        assert got[0] is masks and got[1] == []
    # a reaches cells 0, 1 (a singleton) and 2; b reaches cell 0 only
    a_class = _masks([(4, 5, 6, 8)])[0]
    a = (masks[0] | masks[1] | masks[2], [a_class, full ^ a_class])
    b_class = _masks([(0, 8)])[0]
    b = (masks[0], [b_class, full ^ b_class])
    split = [(8,), (4, 6), (0,), (2,), (1,), (5,), (3, 7), (9, 10)]
    got, fresh = _cut(masks, [a, b])
    # fragments in the order of a's classes, each cut again by b's
    assert (got, fresh) == (_masks(split), [0, 1, 2, 5])
    assert got[4] == masks[1] and got[7] is masks[3]


def test_cell_orbits_are_the_stabilizer_orbits(monkeypatch):
    # Wherever the search computes the orbits of its target cell, they must be
    # the orbits of the group its generators generate, cut down to the cell,
    # every generator must map the cell onto itself, and that group must be
    # the pointwise stabilizer of the prefix in the group of the automorphisms
    # found so far. The oracle takes that stabilizer one point at a time with
    # PermGroup.stabilizer, and checks each step by orbit-stabilizer.
    checked = []
    node = {}
    exact = {}  # (automorphisms, prefix) -> the oracle's stabilizer

    def recording(self, prefix):
        node.update(prefix=prefix, autos=tuple(self.autos), n=self.n)
        return prefix_stabilizer(self, prefix)

    def stabilizer(n, autos, prefix):
        if (autos, prefix) not in exact:
            if prefix:
                group, u = stabilizer(n, autos, prefix[:-1]), prefix[-1] + 1
                sub = group.stabilizer(u)
                assert sub.order() * len(group.orbit(u)) == group.order()
            else:
                sub = PermGroup(n, [Permutation(x + 1 for x in g) for g in autos])
            exact[autos, prefix] = sub
        return exact[autos, prefix]

    def checking(cell, generators):
        rep = cell_orbits(cell, generators)
        members = set(cell)
        assert all(g[u] in members for g in generators for u in cell)
        n, prefix, autos = node["n"], node["prefix"], node["autos"]
        generated = PermGroup(n, [Permutation(x + 1 for x in g) for g in generators])
        oracle = stabilizer(n, autos, prefix)
        assert generated.order() == oracle.order()
        got = {}
        for u in cell:
            got.setdefault(rep[u], []).append(u)
        for group in (generated, oracle):
            expected = {tuple(p - 1 for p in orb if p - 1 in members) for orb in group.orbits()}
            assert {tuple(orb) for orb in got.values()} == expected - {()}
        assert all(rep[u] == min(got[rep[u]]) for u in cell)
        checked.append(all(g[u] == u for g in autos for u in prefix))  # no Schreier-Sims
        return rep

    cell_orbits, prefix_stabilizer = aut._cell_orbits, _Search._prefix_stabilizer
    monkeypatch.setattr(aut, "_cell_orbits", checking)
    monkeypatch.setattr(_Search, "_prefix_stabilizer", recording)
    rng = random.Random(23)
    designs = [(name, catalog.build(name), 3) for name in catalog.constructible_names()]
    # the Paley (19,9,4) design runs Schreier-Sims once under every labeling
    paley19 = develop(DifferenceSet(group=from_tag("c19"),
                                    elements=tuple({x * x % 19 for x in range(1, 19)}), lam=4))
    designs.append(("paley19", paley19, 3))
    for name, d, labelings in designs:
        for labeling in range(labelings):
            images = list(range(1, d.v + 1))
            if labeling:
                rng.shuffle(images)
            before = len(checked)
            automorphism_group(d.relabel(Permutation(images)))
            assert len(checked) > before, name
            assert any(checked[before:]), name  # nodes that need no Schreier-Sims
    assert not all(checked)  # and nodes that run Schreier-Sims (paley19)


class _ReadLog(list):
    """An adjacency list that records which vertices are read."""

    def __init__(self, adj):
        super().__init__(adj)
        self.read = set()

    def __getitem__(self, u):
        self.read.add(u)
        return list.__getitem__(self, u)


def test_singleton_cells_are_not_visited():
    # fano_complement with points 0 and 3 individualized: {3} is the fresh
    # cell, and the other singletons are left unread and carried over as they are
    s = _Search(catalog.build("fano_complement"))
    masks = _equitable([(1 << s.v) - 1, (1 << s.n) - (1 << s.v)], s.adj, [0, 1])
    masks = _equitable([1, masks[0] ^ 1] + masks[1:], s.adj, [0])
    tgt = next(i for i, m in enumerate(masks) if m & (m - 1) and m >> 3 & 1)
    split = masks[:tgt] + [1 << 3, masks[tgt] ^ 1 << 3] + masks[tgt + 1:]
    expected = count_key_equitable(_cells(split), split, s.adj, [tgt])
    hidden = [i for i, m in enumerate(split) if not m & (m - 1) and i != tgt]
    assert hidden
    adj = _ReadLog(s.adj)
    got = _equitable(split, adj, [tgt])
    assert (_cells(got), got) == expected
    assert 3 in adj.read  # the splitter is counted against
    assert not any(split[i] >> u & 1 for i in hidden for u in adj.read)
    assert all(split[i] in got for i in hidden)
    # _cut passes a singleton over whole, even when a splitter reaches it
    full = (1 << s.n) - 1
    odd = sum(1 << u for u in range(1, s.n, 2))
    refined = _cut(split, [(full, [odd, full ^ odd])])[0]
    assert len(refined) > len(split)
    assert all(split[i] in refined for i in hidden)


def test_discrete_partition_returned_at_once():
    masks = _masks([(u,) for u in (3, 0, 2, 1)])

    class Unread(list):
        def __getitem__(self, u):
            raise AssertionError("adjacency read")
    adj = Unread([0b1100, 0b1100, 0b0011, 0b0011])
    assert _equitable(masks, adj, [0, 2]) is masks


def test_equitable_matches_the_count_key_oracle(monkeypatch):
    # Every refinement of these searches returns exactly what the per-vertex
    # key kernel returns: cells, their order and masks. _equitable is checked
    # against count_key_equitable, and the chain split, cut or skipped,
    # against one count_key_refine pass that keys the cells across from u
    # missing adj[u] by _chain_key.
    calls = []
    last = {}  # the partition of the last _equitable call and the last chain splitter
    equitable, cut, chain_split = aut._equitable, aut._cut, _Search._chain_split

    def checked_equitable(masks, adj, fresh):
        got = equitable(masks, adj, fresh)
        last["partition"] = (_cells(got), got)
        assert last["partition"] == count_key_equitable(_cells(masks), masks, adj, fresh)
        calls.append("equitable")
        return got

    def checked_chain_split(self, u):
        split = last["split"] = chain_split(self, u)

        def chains(cell, cm):
            if (cell[0] < self.v) != (u < self.v) and not cm & self.adj[u]:
                return lambda w: _chain_key(self.adj, u, w)
            return None
        last["oracle"] = count_key_refine(*last["partition"], chains)
        if split is None:
            assert last["oracle"][2] == []  # the keys split no cell
        calls.append("skipped" if split is None else "split")
        return split

    def checked_cut(masks, splitters):
        got = cut(masks, splitters)
        if len(splitters) == 1 and splitters[0] is last.get("split"):
            assert masks == last["partition"][1]
            assert (_cells(got[0]), *got) == last.pop("oracle")
            last.pop("split")
            calls.append("cut")
        return got
    monkeypatch.setattr(aut, "_equitable", checked_equitable)
    monkeypatch.setattr(aut, "_cut", checked_cut)
    monkeypatch.setattr(_Search, "_chain_split", checked_chain_split)
    rng = random.Random(41)
    designs = _developed_16() + [_pg25()]
    for name in catalog.constructible_names():
        d = catalog.build(name)
        for _ in range(3):
            images = list(range(1, d.v + 1))
            rng.shuffle(images)
            designs.append(d.relabel(Permutation(images)))
    for d in designs:
        _searched(d)
    assert calls.count("equitable") > len(designs) and "skipped" in calls
    assert calls.count("cut") == calls.count("split") > 0
