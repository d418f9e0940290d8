"""The four workloads: classify, certify, existence and cli.

Each workload has `setup(ctx, seed)`, `inputs(state, seed, index)` and
`run_pass(ctx, state, inputs)`. Inputs are drawn from (workload, seed, pass
index) before the pass is timed, so no cache keyed on an object or on its
content can carry over from one pass to the next. Every answer is checked by
its meaning (orders, block images, class counts, exit codes), never by the
bytes of generator lists, so a program that returns fewer generators still
passes.

Why these four:

- classify: the isomorphism-classification pipeline, almost all `aut` and
  `perm`. Relabeling varies the automorphisms offered to Schreier-Sims, so
  chain-build cost appears as users meet it.
- certify: the fixed-point certification sweep over every non-identity
  element of the six catalog groups; almost all `fixcert`, no search.
- existence: difference-set scans with and without deduplication up to
  table automorphisms, Lander, BRC against its brute-force oracle, Pell and
  the (121,16,2) tables; almost all `diffset` and `design`, no `aut`.
- cli: one `biplane` subcommand per fresh interpreter, one child at a time
  in a closed loop; interpreter start and imports dominate.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from functools import partial
from itertools import cycle
from statistics import median
from math import comb, isqrt
from pathlib import Path

from harness import ROOT, SRC

from biplane import catalog, diffset, fixcert
from biplane.aut import are_isomorphic, automorphism_group, canonical_form
from biplane.cartdecomp import pell_brute_force, pell_solutions, psp4_degree_excluded
from biplane.design import (brc_brute_force, brc_feasible, params_from_k,
                            verify_symmetric_design)
from biplane.perm import Permutation, PermGroup

SIXTEEN = ("biplane16_primitive", "biplane16_c2c8", "biplane16_q8c2")

# Translation classes of (16,6,2) difference sets, and classes up to the
# table automorphisms, pinned at the commit that introduced this benchmark.
PLAIN_CLASSES = {"c16": 0, "c2xc8": 12, "q8xc2": 44, "e16": 28, "c4xc4": 12, "c2xc2xc4": 28}
MOD_AUT_CLASSES = {"c2xc8": 2, "q8xc2": 2, "c4xc4": 3, "c2xc2xc4": 2}
TABLE_AUT_ORDERS = {"c2xc8": 16, "q8xc2": 192, "c4xc4": 96, "c2xc2xc4": 192}
SINGER_CLASSES = 10          # (31,6,1) difference sets in c31, up to translation
LANDER_K = range(3, 200)
LANDER_EXCLUDED = 123        # witnesses among the biplane rows with k in LANDER_K
BRC_ORACLE_K = range(3, 21)
BRC_K = range(3, 2000)
BRC_FEASIBLE = 491           # feasible biplane rows with k in BRC_K
KNOWN_DIFFERENCE_SET_V = (7, 11, 16, 37)
ADMISSIBLE_121_ORDERS = (2, 4, 8, 3, 5, 7, 11, 13)
IMPOSSIBLE_121_ORDERS = (16, 32, 9, 25, 49, 121, 169)
SYLOW_PRODUCT_121 = 5765760


def rng_for(workload: str, seed, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_images(rng: random.Random, n: int) -> list[int]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def as_sets(blocks) -> set[frozenset]:
    return {frozenset(b) for b in blocks}


def relabel_blocks(blocks, sigma) -> list[list[int]]:
    """Blocks (or partition parts) with point p renamed sigma[p - 1], sorted."""
    return sorted(sorted(sigma[p - 1] for p in b) for b in blocks)


def conjugate(x, sigma) -> list[int]:
    """Images of sigma x sigma^-1: x acting on the points as renamed by sigma."""
    images = [0] * len(x)
    for p, xp in enumerate(x, start=1):
        images[sigma[p - 1] - 1] = sigma[xp - 1]
    return images


def preserves(images, block_set: set[frozenset]) -> bool:
    return all(frozenset(images[p - 1] for p in b) in block_set for b in block_set)


def relabel_table(table: diffset.GroupTable, rng: random.Random) -> diffset.GroupTable:
    """The same group with its non-identity elements renamed at random."""
    rest = list(range(1, table.n))
    rng.shuffle(rest)
    pi = [0] + rest
    mul = [[0] * table.n for _ in range(table.n)]
    for a in range(table.n):
        for b in range(table.n):
            mul[pi[a]][pi[b]] = pi[table.mul[a][b]]
    inv = [0] * table.n
    for a in range(table.n):
        inv[pi[a]] = pi[table.inv[a]]
    return diffset.GroupTable(table.name, tuple(map(tuple, mul)), tuple(inv))


def order16_tables() -> dict[str, diffset.GroupTable]:
    c2, c4 = diffset.cyclic(2), diffset.cyclic(4)
    tables = {tag: diffset.from_tag(tag) for tag in ("c16", "c2xc8", "q8xc2", "e16")}
    tables["c4xc4"] = diffset.direct_product(c4, c4)
    tables["c2xc2xc4"] = diffset.direct_product(diffset.direct_product(c2, c2), c4)
    return tables


def build_catalog(ctx) -> dict:
    return {name: ctx.call("catalog.build", catalog.build, name)
            for name in catalog.constructible_names()}


def aut_order(name: str) -> int:
    return catalog.entry(name).expected["aut_order"]


def interleaved(many: list, few: list) -> list:
    """`many` in order, with `few` spread evenly among them.

    The unit operations behind op_p90 go in `many`: spread over the whole
    pass, their samples see the machine over the whole run, so a slow
    stretch of a shared machine does not fall on all of them at once.
    """
    keyed = [(i / len(many), t) for i, t in enumerate(many)]
    keyed += [((j + 0.5) / len(few), t) for j, t in enumerate(few)]
    return [t for _, t in sorted(keyed, key=lambda kt: kt[0])]


class Workload:
    unit_ops: frozenset | None = None  # operation kinds op_p90 covers; None: all
    min_ops = 1  # unit operations a run needs before it may stop

    def unit_times(self, ctx) -> list:
        return [times for kind, times in ctx.op_seconds.items()
                if self.unit_ops is None or kind in self.unit_ops]

    def teardown(self, state):
        pass

    def peak_rss_mb(self, state) -> float:
        """Peak resident memory of this process (ru_maxrss is in KB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @staticmethod
    def derived(state) -> dict[str, float]:
        return {}


# -- classify -------------------------------------------------------------------

class Classify(Workload):
    """The unit operation is one difference set developed, relabeled and
    reduced to its canonical form; automorphism groups and isomorphism tests
    cost 10^2-10^4 times more, so their latencies are left to the pass time
    and the traced per-layer metrics.

    Automorphism-group and isomorphism inputs are relabeled from the pass
    index alone. Their cost moves up to 13x with the labeling (30 to 102
    leaf automorphisms offered to Schreier-Sims on biplane16_primitive), and
    a run holds about two passes, so seeded draws would make runs with
    different seeds measure different amounts of work. Every pass still
    gets fresh inputs; the seed relabels the group tables and the developed
    difference sets.
    """

    name = "classify"
    unit_ops = frozenset({"canonical"})
    tags = ("c16", "c2xc8", "q8xc2", "e16")
    relabelings = 2  # per developed difference set, so op_p90 has 2 x 84 samples a pass
    pool = 192  # relabelings drawn per pass for the 2 x 84 reductions

    def setup(self, ctx, seed):
        designs = build_catalog(ctx)
        digests = {ctx.call("aut.canonical_form", canonical_form, designs[n]).digest
                   for n in SIXTEEN}
        tables = order16_tables()
        return {"designs": designs, "digests": digests,
                "tables": {tag: tables[tag] for tag in self.tags}}

    def inputs(self, state, seed, index):
        rng = rng_for(self.name, seed, index)
        panel = rng_for(self.name, "panel", index)
        designs = state["designs"]

        def relabeled(d):
            return d.relabel(Permutation(random_images(panel, d.v)))

        return {
            "tables": {tag: relabel_table(t, rng) for tag, t in state["tables"].items()},
            "sigmas": [Permutation(random_images(rng, 16)) for _ in range(self.pool)],
            "aut": {n: relabeled(d) for n, d in designs.items()},
            "iso": [(relabeled(d), relabeled(d), True) for d in designs.values()]
            + [(relabeled(designs[a]), relabeled(designs[b]), False)
               for i, a in enumerate(SIXTEEN) for b in SIXTEEN[i + 1:]],
        }

    def run_pass(self, ctx, state, inp):
        digests = state["digests"]
        seen = set()
        sigmas = cycle(inp["sigmas"])
        canonical = []
        for tag, table in inp["tables"].items():
            found = ctx.op("search", lambda f: len(f) == PLAIN_CLASSES[tag],
                           ctx.call, f"diffset.search.{tag}",
                           diffset.search_difference_sets, table, 6, 2) or []
            ctx.count("diffset.subsets", comb(table.n - 1, 5))  # computed, not counted
            ctx.count("diffset.classes", len(found))
            canonical += [partial(self._canonical, ctx, ds, next(sigmas), digests, seen)
                          for ds in found for _ in range(self.relabelings)]
        searches = [partial(self._aut, ctx, name, d) for name, d in inp["aut"].items()]
        searches += [partial(self._iso, ctx, *pair) for pair in inp["iso"]]
        for task in interleaved(canonical, searches):
            task()
        ctx.check("three-classes", seen == digests, f"{len(seen)} classes")

    @staticmethod
    def _canonical(ctx, ds, sigma, digests, seen):
        cert = ctx.op("canonical", lambda c: c.digest in digests,
                      Classify._reduce, ctx, ds, sigma)
        if cert is not None:
            seen.add(cert.digest)

    @staticmethod
    def _aut(ctx, name, d):
        block_set = as_sets(d.blocks)
        result = ctx.op("automorphism_group",
                        lambda r: r.order == aut_order(name) and all(
                            preserves(g.images, block_set) for g in r.group.generators),
                        ctx.call, "aut.automorphism_group", automorphism_group, d)
        if result is not None:
            gens = result.group.generators
            ctx.count("aut.generators", len(gens))
            ctx.extra("perm.chain_build", lambda: PermGroup(d.v, gens).order())

    @staticmethod
    def _iso(ctx, a, b, iso):
        b_set = as_sets(b.blocks)
        ctx.op("are_isomorphic",
               lambda m: (m is None) if not iso else (
                   m is not None
                   and {frozenset(m.images[p - 1] for p in blk) for blk in a.blocks} == b_set),
               ctx.call, "aut.are_isomorphic", are_isomorphic, a, b)

    @staticmethod
    def _reduce(ctx, ds, sigma):
        d = ctx.call("diffset.develop", diffset.develop, ds)
        d = ctx.call("design.relabel", d.relabel, sigma)
        return ctx.call("aut.canonical_form", canonical_form, d)


# -- certify --------------------------------------------------------------------

class Certify(Workload):
    name = "certify"

    def setup(self, ctx, seed):
        designs = build_catalog(ctx)
        elements = {}
        for name, d in designs.items():
            result = ctx.call("aut.automorphism_group", automorphism_group, d)
            if result.order != aut_order(name):
                raise RuntimeError(f"{name}: group order {result.order} != {aut_order(name)}")
            gens = result.group.generators
            ctx.count("aut.generators", len(gens))
            ctx.extra("perm.chain_build", lambda: PermGroup(d.v, gens).order())
            group = ctx.call("perm.elements", lambda: list(result.group.elements()))
            elements[name] = [g.images for g in group if not g.is_identity()]
        return {"designs": designs, "elements": elements}

    def inputs(self, state, seed, index):
        """Each design relabeled by sigma, its elements conjugated to match."""
        rng = rng_for(self.name, seed, index)
        out = {}
        for name, d in state["designs"].items():
            sigma = random_images(rng, d.v)
            moved = [Permutation(conjugate(x, sigma)) for x in state["elements"][name]]
            out[name] = (d.relabel(Permutation(sigma)), moved)
        return out

    def run_pass(self, ctx, state, inp):
        statuses = {fixcert.PASS: 0, fixcert.FAIL: 0, fixcert.NA: 0}

        def judged(result):
            for c in result.checks:
                statuses[c.status] += 1
            return result.ok and not result.failures()

        for name, (d, moved) in inp.items():
            span = f"fixcert.certify_fix_lemmas.{name}"
            for x in moved:
                ctx.op("certify", judged, ctx.call, span, fixcert.certify_fix_lemmas, d, x)
        ctx.count("fixcert.checks.pass", statuses[fixcert.PASS])
        ctx.count("fixcert.checks.fail", statuses[fixcert.FAIL])
        ctx.count("fixcert.checks.na", statuses[fixcert.NA])


# -- existence ------------------------------------------------------------------

def _valid_witness(p, w) -> bool:
    """pdiv > 1 divides v, q is a prime dividing the square-free part of
    k - lambda, and q^j = -1 (mod pdiv)."""
    n, e = p.k - p.lam, 0
    while n % w.q == 0:
        n, e = n // w.q, e + 1
    q_prime = w.q > 1 and all(w.q % f for f in range(2, isqrt(w.q) + 1))
    return (w.pdiv > 1 and p.v % w.pdiv == 0 and q_prime and e % 2 == 1
            and pow(w.q, w.j, w.pdiv) == w.pdiv - 1)


class Existence(Workload):
    """The unit operation is one plain subset scan of an order-16 table:
    3003 subsets whatever the element names, so its cost does not depend on
    the seed. BRC and Lander rows cost microseconds, where timer and memory
    layout outweigh the work, and developing a set costs more or less with
    the table's labeling; their latencies are left to the pass time and the
    traced per-layer metrics.
    """

    name = "existence"
    unit_ops = frozenset({"scan"})

    def setup(self, ctx, seed):
        return {"tables": order16_tables(), "c31": diffset.cyclic(31),
                "params": {k: params_from_k(k) for k in BRC_K}}

    def inputs(self, state, seed, index):
        rng = rng_for(self.name, seed, index)
        lander_k, brc_k = list(LANDER_K), list(BRC_K)
        rng.shuffle(lander_k)
        rng.shuffle(brc_k)
        return {"tables": {t: relabel_table(g, rng) for t, g in state["tables"].items()},
                "c31": relabel_table(state["c31"], rng),
                "lander_k": lander_k, "brc_k": brc_k}

    def run_pass(self, ctx, state, inp):
        tables, params = inp["tables"], state["params"]
        plain = [partial(self._scan, ctx, "scan", tag, table, 6, 2, PLAIN_CLASSES[tag])
                 for tag, table in tables.items()]
        rest = [partial(self._scan_mod_aut, ctx, tag, tables[tag]) for tag in MOD_AUT_CLASSES]
        rest.append(partial(self._scan, ctx, "scan_singer", "c31", inp["c31"], 6, 1,
                            SINGER_CLASSES, verify=False))
        rest.append(partial(self._lander, ctx, params, inp["lander_k"]))
        rest += [partial(ctx.op, "brc_oracle", lambda pair: pair[0] == pair[1],
                         self._brc_pair, ctx, params[k]) for k in BRC_ORACLE_K]
        rest.append(partial(self._brc, ctx, params, inp["brc_k"]))
        rest.append(partial(ctx.op, "pell", lambda ok: ok, self._pell, ctx))
        rest += [partial(ctx.op, "psp4", lambda r: r.excluded,
                         ctx.call, "cartdecomp.psp4", psp4_degree_excluded, q)
                 for q in (4, 8, 16, 32)]
        rest.append(partial(ctx.op, "tables_121", lambda ok: ok, self._tables_121, ctx))
        for task in interleaved(plain, rest):
            task()

    def _scan(self, ctx, kind, tag, table, k, lam, want, autos=None, verify=True):
        """Scan table for (k, lam) difference sets; develop and verify each one found."""
        span = f"diffset.search_mod_aut.{tag}" if autos else f"diffset.search.{tag}"
        found = ctx.op(kind, lambda f: len(f) == want, ctx.call, span,
                       diffset.search_difference_sets, table, k, lam, autos) or []
        ctx.count("diffset.subsets", comb(table.n - 1, k - 1))  # computed, not counted
        ctx.count("diffset.classes", len(found))
        for ds in found if verify else ():
            ctx.op("develop_verify", lambda ok: ok, self._develop_verify, ctx, ds)

    def _scan_mod_aut(self, ctx, tag, table):
        autos = ctx.op("table_automorphisms", lambda a: len(a) == TABLE_AUT_ORDERS[tag],
                       ctx.call, "diffset.table_automorphisms",
                       diffset.table_automorphisms, table)
        self._scan(ctx, "scan_mod_aut", tag, table, 6, 2, MOD_AUT_CLASSES[tag], autos)

    @staticmethod
    def _lander(ctx, params, ks):
        excluded = 0
        for k in ks:
            p = params[k]
            w = ctx.op("lander", lambda w: (
                w == (11, 2, 5) if p.v == 121 else
                w is None if p.v in KNOWN_DIFFERENCE_SET_V else
                w is None or _valid_witness(p, w)),
                ctx.call, "diffset.lander_excluded", diffset.lander_excluded, p)
            excluded += w is not None
        ctx.check("lander-count", excluded == LANDER_EXCLUDED, f"{excluded} excluded")

    @staticmethod
    def _brc(ctx, params, ks):
        feasible = 0
        for k in ks:
            p = params[k]
            even_rule = isqrt(k - 2) ** 2 == k - 2
            got = ctx.op("brc", lambda f: p.v % 2 == 1 or f == even_rule,
                         ctx.call, "design.brc_feasible", brc_feasible, p)
            feasible += bool(got)
        ctx.check("brc-count", feasible == BRC_FEASIBLE, f"{feasible} feasible")

    @staticmethod
    def _develop_verify(ctx, ds):
        d = ctx.call("diffset.develop", diffset.develop, ds)
        report = ctx.call("design.verify_symmetric_design", verify_symmetric_design, d)
        return report.ok and d.params.as_tuple() == (16, 6, 2)

    @staticmethod
    def _brc_pair(ctx, p):
        return (ctx.call("design.brc_feasible", brc_feasible, p),
                ctx.call("design.brc_brute_force", brc_brute_force, p))

    @staticmethod
    def _pell(ctx):
        limit = 10**5
        sols = ctx.call("cartdecomp.pell", pell_solutions, 12)
        brute = ctx.call("cartdecomp.pell", pell_brute_force, limit)
        recurrence = sorted((s.x, s.y) for s in sols if s.x <= limit)
        return (recurrence == brute and max(s.x for s in sols) > limit
                and all(8 * s.x * s.x - s.y * s.y == 7 for s in sols))

    @staticmethod
    def _tables_121(ctx):
        def tables():
            admissible = [fixcert.admissible_cycle_types_121(o) for o in ADMISSIBLE_121_ORDERS]
            impossible = [fixcert.admissible_cycle_types_121(o) for o in IMPOSSIBLE_121_ORDERS]
            return admissible, impossible, fixcert.sylow_bounds_121()

        admissible, impossible, bounds = ctx.call("fixcert.tables_121", tables)
        product = 1
        for bound, _ in bounds.values():
            product *= bound
        return (all(types and all(t.degree == 121 for t in types) for types in admissible)
                and not any(impossible) and product == SYLOW_PRODUCT_121)


# -- cli ------------------------------------------------------------------------

# Runs the console entry point from the checked-out sources: argv[1] is the
# source directory, put first on the path so no installed copy can shadow it.
CLI_STUB = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from biplane.cli import main; main()")
IMPORT_STUB = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import biplane.cli as c; t = time.perf_counter(); c.build_parser(); "
               "print(time.perf_counter() - t, c.__file__)")
FIX_PERM = "(3,5)(4,6)(11,13)(12,14)"  # a generator of the rank-3 subgroup


def run_child(argv, workdir):
    """Run one child to completion; return (exit code, stdout, peak RSS in KB, wall s)."""
    err_path = workdir / "stderr.txt"
    t0 = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=workdir)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss, wall


def parse_cycles(text: str, n: int) -> list[int]:
    images = list(range(1, n + 1))
    for part in text.replace(" ", "").strip("()").split(")("):
        if part:
            pts = [int(t) for t in part.split(",")]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a - 1] = b
    return images


def _json_check(test):
    def check(result):
        code, out = result
        return code == 0 and test(json.loads(out))
    return check


class Cli(Workload):
    name = "cli"
    min_ops = 100  # requests per run, so the 90th percentile has ten beyond it

    def setup(self, ctx, seed):
        """Write the catalog files the `aut` requests read.

        They stay as `catalog build` writes them, so `aut` costs the same in
        every pass; classify measures how relabeling moves that cost.
        """
        designs = build_catalog(ctx)
        keep = ("hadamard11", "biplane16_primitive")
        workdir = ROOT / "bench" / ".work" / f"cli-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        for name in keep:
            with open(workdir / f"{name}.json", "w") as fh:
                json.dump(designs[name].to_json_dict(), fh)
        return {"workdir": workdir,
                "blocks": {n: [list(b) for b in designs[n].blocks] for n in keep},
                "group": [parse_cycles(s, 16) for s in catalog.PRIMITIVE16_GENERATORS],
                "cd": catalog.CART16_PARTITIONS,
                "peak_kb": 0}

    def inputs(self, state, seed, index):
        """Relabeled design, group and decomposition files, written before timing."""
        rng = rng_for(self.name, seed, index)
        wd, blocks = state["workdir"], state["blocks"]
        s11, s16, t16 = (random_images(rng, n) for n in (11, 16, 16))
        h11 = relabel_blocks(blocks["hadamard11"], s11)
        d16 = relabel_blocks(blocks["biplane16_primitive"], s16)
        e16 = relabel_blocks(blocks["biplane16_primitive"], t16)

        def move(x):
            return Permutation(conjugate(x, s16)).cycle_string()

        files = {
            "h11.json": {"v": 11, "k": 5, "lambda": 2, "blocks": h11},
            "d16.json": {"v": 16, "k": 6, "lambda": 2, "blocks": d16},
            "e16.json": {"v": 16, "k": 6, "lambda": 2, "blocks": e16},
            "g.json": {"degree": 16, "generators": [move(g) for g in state["group"]]},
            "cd.json": {"partitions": [relabel_blocks(parts, s16) for parts in state["cd"]]},
        }
        for fname, payload in files.items():
            with open(wd / fname, "w") as fh:
                json.dump(payload, fh)
        return {"h11": as_sets(h11), "d16": as_sets(d16), "e16": as_sets(e16),
                "catalog": {n: as_sets(b) for n, b in blocks.items()},
                "fix": move(parse_cycles(FIX_PERM, 16)), "workdir": wd}

    def requests(self, inp):
        """(subcommand, argv, check) for one pass; every check reads the exit code."""
        h11, d16, built = inp["h11"], inp["d16"], inp["catalog"]

        def gens_preserve(blocks, n):
            return lambda o: all(preserves(parse_cycles(g, n), blocks) for g in o["generators"])

        def maps_onto(a, b, n):
            def check(o):
                m = parse_cycles(o["mapping"], n) if o["isomorphic"] else None
                return m is not None and {frozenset(m[p - 1] for p in blk) for blk in a} == b()
            return check

        def dual_blocks():
            with open(inp["workdir"] / "h11d.json") as fh:
                return {frozenset(b) for b in json.load(fh)["blocks"]}

        def usage_error(result):
            return result[0] == 2

        j = "--json"
        return [
            ("catalog_list", ["catalog", "list", j],
             _json_check(lambda o: len(o["entries"]) == 9)),
            ("catalog_build", ["catalog", "build", "hadamard11", "-o", "built.json", j],
             _json_check(lambda o: o["v"] == 11 and len(o["blocks"]) == 11)),
            ("verify", ["verify", "d16.json", j], _json_check(lambda o: o["ok"] is True)),
            ("dual", ["dual", "h11.json", "-o", "h11d.json", j],
             _json_check(lambda o: len(o["blocks"]) == 11
                         and all(len(b) == 5 for b in o["blocks"]))),
            ("aut_hadamard11", ["aut", "hadamard11.json", j],
             _json_check(lambda o: o["order"] == 660
                         and gens_preserve(built["hadamard11"], 11)(o))),
            ("aut_biplane16_primitive", ["aut", "biplane16_primitive.json", j],
             _json_check(lambda o: o["order"] == 11520
                         and gens_preserve(built["biplane16_primitive"], 16)(o))),
            ("iso_hadamard11_dual", ["iso", "h11.json", "h11d.json", j],
             _json_check(maps_onto(h11, dual_blocks, 11))),
            ("iso_biplane16_primitive", ["iso", "d16.json", "e16.json", j],
             _json_check(maps_onto(d16, lambda: inp["e16"], 16))),
            ("ds_search", ["ds", "search", "--group", "c2xc8", "--k", "6", "--lambda", "2", j],
             _json_check(lambda o: o["count"] == PLAIN_CLASSES["c2xc8"])),
            ("ds_develop", ["ds", "develop", "--group", "c11", "--set", "1,3,4,5,9",
                            "-o", "dev.json", j],
             _json_check(lambda o: len(o["blocks"]) == 11)),
            ("ds_lander", ["ds", "lander", "--v", "121", "--k", "16", "--lambda", "2", j],
             _json_check(lambda o: o["witness"] == [11, 2, 5])),
            ("fix", ["fix", "--design", "d16.json", "--perm", inp["fix"], j],
             _json_check(lambda o: o["ok"] is True
                         and all(c["status"] != "fail" for c in o["checks"]))),
            ("cert121", ["cert121", "--order", "3", j],
             _json_check(lambda o: len(o["types"]) == 2)),
            ("cart_verify", ["cart", "verify", "--design", "d16.json", "--cd", "cd.json",
                             "--group", "g.json", j],
             _json_check(lambda o: o["ok"] and o["homogeneous"] and o["preserved"]
                         and o["block_pair_counts"] == [6])),
            ("pell", ["pell", "--n", "10", j],
             _json_check(lambda o: all(8 * s["x"] ** 2 - s["y"] ** 2 == 7
                                       for s in o["solutions"]))),
            ("psp4", ["psp4", "--q", "4", j], _json_check(lambda o: o["excluded"] is True)),
            ("feasible_params", ["feasible", "params", "--k", "16", j],
             _json_check(lambda o: o["v"] == 121)),
            ("feasible_brc", ["feasible", "brc", "--v", "67", "--k", "12", j],
             _json_check(lambda o: o["brc_feasible"] is False)),
            ("error_missing_file", ["verify", "missing.json"], usage_error),
            ("error_unknown_group", ["ds", "search", "--group", "z99", "--k", "6"], usage_error),
        ]

    def teardown(self, state):
        shutil.rmtree(state["workdir"], ignore_errors=True)

    def peak_rss_mb(self, state) -> float:
        """The largest request child's peak resident memory."""
        return state["peak_kb"] / 1024

    def run_pass(self, ctx, state, inp):
        wd = state["workdir"]
        for sub, args, check in self.requests(inp):
            argv = [sys.executable, "-c", CLI_STUB, str(SRC), *args]
            ctx.op(sub, check, self._request, ctx, state, f"cli.{sub}", argv, wd)
        if ctx.trace:
            bare = ctx.extra("cli.interpreter_start", run_child, [sys.executable, "-c", "pass"], wd)
            probe = ctx.extra("cli.import_probe", run_child,
                              [sys.executable, "-c", IMPORT_STUB, str(SRC)], wd)
            seconds, path = probe[1].split()
            if not Path(path).resolve().is_relative_to(SRC):
                raise RuntimeError(f"child imported biplane from {path}, not {SRC}")
            state.setdefault("bare", []).append(bare[3])
            state.setdefault("import", []).append(probe[3] - bare[3] - float(seconds))
            state.setdefault("build_parser", []).append(float(seconds))

    @staticmethod
    def _request(ctx, state, span, argv, wd):
        code, out, peak_kb, _ = ctx.call(span, run_child, argv, wd)
        state["peak_kb"] = max(state["peak_kb"], peak_kb)
        return code, out

    @staticmethod
    def derived(state) -> dict[str, float]:
        if "bare" not in state:
            return {}
        return {"cli.interpreter_start_ms": median(state["bare"]) * 1e3,
                "cli.import_ms": median(state["import"]) * 1e3,
                "cli.build_parser_ms": median(state["build_parser"]) * 1e3}


WORKLOADS = {w.name: w for w in (Classify(), Certify(), Existence(), Cli())}

