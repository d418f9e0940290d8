"""Command-line entry point.

Exit codes: 0 success / verified, 1 a verification or certification failed
(the failing check is named), 2 input or usage error (including input over a
documented size cap), 3 internal error: an internal invariant failed, which
is a software bug. Every subcommand takes
--json for machine-readable output; table output is deterministic, so
identical inputs give byte-identical results. `aut`, `iso` and `ds search`
also take --stats, which adds the search counters: on standard error, or
under a separate `stats` key with --json, so the rest of the output is
unchanged.

Each handler imports the package modules it runs, and nothing is imported
at module level beyond `errors`: every call starts a fresh interpreter, so
`biplane pell` never compiles the automorphism search and `biplane aut`
never loads the certificates. Beyond `cli` and `errors`, `verify` loads
`design` and `ntheory`; `aut` and `iso` add `perm` and `aut`; `fix` and
`cert121` add `perm` and `fixcert`; `cart verify` adds `perm` and
`cartdecomp`; `ds` adds `diffset`; `catalog` adds `catalog` (and `diffset`
to build); `pell` and `psp4` load `cartdecomp` and `ntheory` only. The
records are named tuples, so no call loads `dataclasses` or the `inspect`
it imports. A short call pays the interpreter start, those imports and
the parser: run builds the arguments of the one subcommand argv names.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BiplaneError, InputError, clipped

OK, CHECK_FAILED, USAGE, INTERNAL = 0, 1, 2, 3


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    """Print one result: JSON with sorted keys, or the aligned table lines.

    Field names are stable; identical inputs give byte-identical text.
    """
    print(json.dumps(payload, indent=2, sort_keys=True) if as_json else "\n".join(lines))


def _load_json(path: str, what: str, parse):
    """parse(the JSON object in path); a file that cannot be read or decoded,
    holds an integer longer than int() reads, or holds anything but an object
    at its top level raises InputError naming the kind of file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError, int() limit
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"bad {what} file {path}: expected a JSON object at its top level")
    return parse(data)


def _load_design(path: str) -> design.Design:
    from . import design
    return _load_json(path, "design", design.Design.from_json_dict)


def _load_group(path: str, degree: int) -> perm.PermGroup:
    from . import perm
    return _load_json(path, "group", lambda data: perm.group_from_json_dict(data, degree))


def _load_cd(path: str) -> cartdecomp.CartesianDecomposition:
    from . import cartdecomp
    return _load_json(path, "decomposition",
                      cartdecomp.CartesianDecomposition.from_json_dict)


def _emit_design(args, d: design.Design, line: str) -> int:
    """Write d as JSON to args.output, if given (InputError naming a file that
    cannot be written), then print d's JSON, or `line` and the path written."""
    payload, lines = d.to_json_dict(), [line]
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write design file {args.output}: {exc}") from exc
        lines.append(f"written to {args.output}")
    _emit(payload, args.json, lines)
    return OK


def _add_stats(args, payload: dict, stats: dict) -> None:
    """Under --stats, the search counters: under the `stats` key of the JSON
    payload, or as one line of JSON on stderr."""
    if args.stats:
        if args.json:
            payload["stats"] = stats
        else:
            print(f"stats: {json.dumps(stats, sort_keys=True)}", file=sys.stderr)


def _checks_payload(checks: tuple[fixcert.Check, ...]) -> list[dict]:
    return [{"name": c.name, "status": c.status, "detail": c.detail} for c in checks]


def _checks_lines(result: fixcert.CertResult) -> list[str]:
    width = max(len(c.name) for c in result.checks)
    return [f"{c.name:<{width}}  {c.status:<4}  {c.detail}" for c in result.checks]


def _parse_set(text: str) -> tuple[int, ...]:
    """The comma-separated integers of `ds develop --set`."""
    elements = []
    for token in text.split(","):
        try:
            elements.append(int(token))
        except ValueError:
            raise InputError(f"--set: {clipped(token)} is not an integer of at most "
                             f"{sys.get_int_max_str_digits()} digits") from None
    return tuple(elements)


# -- subcommand handlers -----------------------------------------------------

def _cmd_catalog(args) -> int:
    from . import catalog
    if args.action == "list":
        entries = catalog.list_known()
        payload = {"entries": [
            {"name": e.name, "v": e.params.v, "k": e.params.k, "lambda": e.params.lam,
             "constructible": e.constructible, "examples_for_params": e.examples_for_params,
             "expected": e.expected} for e in entries]}
        lines = [f"{'name':<22}{'v':>5}{'k':>4}  {'#ex':>7}  constructible"]
        for e in entries:
            lines.append(f"{e.name:<22}{e.params.v:>5}{e.params.k:>4}  "
                         f"{e.examples_for_params:>7}  {'yes' if e.constructible else 'no'}")
        _emit(payload, args.json, lines)
        return OK
    d = catalog.build(args.name)
    return _emit_design(args, d, f"{args.name}: ({d.v},{d.k},{d.lam}) biplane, "
                                 f"{len(d.blocks)} blocks")


def _cmd_verify(args) -> int:
    from . import design
    d = _load_design(args.design)
    report = design.verify_symmetric_design(d)
    payload = {"ok": report.ok, "counts": report.counts,
               "violations": [list(map(str, v)) for v in report.violations]}
    lines = [f"verify ({d.v},{d.k},{d.lam}): {'ok' if report.ok else 'FAILED'}"]
    lines += [f"  {v}" for v in report.violations]
    if not report.ok:
        lines.append("counts: " + ", ".join(f"{kind} {n}" for kind, n in report.counts.items()))
    _emit(payload, args.json, lines)
    return OK if report.ok else CHECK_FAILED


def _cmd_dual(args) -> int:
    from . import design
    d = _load_design(args.design)
    return _emit_design(args, design.dual(d), f"dual of ({d.v},{d.k},{d.lam}) design computed")


def _cmd_aut(args) -> int:
    from . import aut
    d = _load_design(args.design)
    result = aut.automorphism_group(d)
    payload = {"order": result.order,
               "generators": [g.cycle_string() for g in result.group.generators]}
    lines = [f"automorphism group order {result.order}"]
    lines += [f"  {g.cycle_string()}" for g in result.group.generators]
    _add_stats(args, payload, result.stats._asdict())
    _emit(payload, args.json, lines)
    return OK


def _cmd_iso(args) -> int:
    from . import aut
    a = _load_design(args.design_a)
    b = _load_design(args.design_b)
    result = aut.isomorphism(a, b)
    sigma = result.mapping
    payload = {"isomorphic": sigma is not None,
               "mapping": sigma.cycle_string() if sigma else None}
    lines = ["isomorphic: " + ("yes " + sigma.cycle_string() if sigma else "no")]
    _add_stats(args, payload, {"design_a": result.stats[0]._asdict(),
                               "design_b": result.stats[1]._asdict()})
    _emit(payload, args.json, lines)
    return OK if sigma is not None else CHECK_FAILED


def _cmd_ds(args) -> int:
    from . import design, diffset
    if args.action == "lander":
        p = design.DesignParams(args.v, args.k, args.lam)
        witness = diffset.lander_excluded(p)
        payload = {"excluded": witness is not None,
                   "witness": list(witness) if witness else None,
                   "hypotheses": diffset.LANDER_HYPOTHESES}
        if witness:
            lines = [f"excluded: no ({p.v},{p.k},{p.lam}) difference set exists; "
                     f"witness (pdiv, q, j) = ({witness.pdiv}, {witness.q}, {witness.j})",
                     f"hypotheses: {diffset.LANDER_HYPOTHESES}"]
        else:
            lines = ["no witness found; the test does not exclude these parameters"]
        _emit(payload, args.json, lines)
        return OK
    group = diffset.from_tag(args.group)
    if args.action == "search":
        found, stats = diffset.difference_set_search(group, args.k, args.lam)
        payload = {"group": group.name, "count": len(found),
                   "sets": [list(ds.elements) for ds in found]}
        lines = [f"{len(found)} difference set class(es) in {group.name}"]
        lines += [f"  {list(ds.elements)}" for ds in found]
        _add_stats(args, payload, stats._asdict())
        _emit(payload, args.json, lines)
        return OK
    # develop
    ds = diffset.DifferenceSet(group=group, elements=_parse_set(args.set), lam=args.lam)
    d = diffset.develop(ds)
    return _emit_design(args, d, f"development: ({d.v},{d.k},{d.lam}) design "
                                 f"with {len(d.blocks)} blocks")


def _cmd_fix(args) -> int:
    from . import fixcert, perm
    d = _load_design(args.design)
    x = perm.Permutation.from_cycles(args.perm, d.v)
    result = fixcert.certify_fix_lemmas(d, x)
    rep = result.report
    payload = {
        "f_points": rep.f_points, "f_blocks": rep.f_blocks,
        "fixed_points": list(rep.fixed_points),
        "fixed_blocks": list(rep.fixed_blocks),
        "s_block": {str(k): v for k, v in rep.s_block.items()},
        "r_block": {str(k): v for k, v in rep.r_block.items()},
        "checks": _checks_payload(result.checks),
        "ok": result.ok,
    }
    lines = [f"fixed points: {rep.f_points}  fixed blocks: {rep.f_blocks}"]
    lines += _checks_lines(result)
    _emit(payload, args.json, lines)
    return OK if result.ok else CHECK_FAILED


def _cmd_cert121(args) -> int:
    from . import fixcert
    types = fixcert.admissible_cycle_types_121(args.order)
    payload = {"order": args.order,
               "types": [t.as_dict() for t in types]}
    if types:
        lines = [f"admissible cycle types of order {args.order} on 121 points:"]
        lines += [f"  {t}" for t in types]
    else:
        lines = [f"no admissible cycle types: order {args.order} cannot occur"]
    _emit(payload, args.json, lines)
    return OK


def _cmd_cert79(args) -> int:
    from . import fixcert
    d = _load_design(args.design)
    cls = fixcert.certify_79(d)
    payload = {"order": cls.order, "order_allowed": cls.order_allowed,
               "consistent": cls.consistent, "note": cls.note,
               "three_element_checks": _checks_payload(cls.three_element_checks)}
    lines = [f"automorphism group order {cls.order}: {cls.note}"]
    _emit(payload, args.json, lines)
    return OK if cls.consistent else CHECK_FAILED


def _cmd_cart(args) -> int:
    from . import cartdecomp
    d = _load_design(args.design).require_verified()
    cd = _load_cd(args.cd)
    group = None
    if args.group:
        group = _load_group(args.group, d.v)
        d.automorphism_actions(group.generators)
    report = cartdecomp.verify_cartesian(cd, d.v)
    payload = {"ok": report.ok, "homogeneous": report.homogeneous,
               "d": report.d, "part_counts": list(report.part_counts),
               "violations": list(report.violations)}
    lines = [f"cartesian: ok={report.ok} homogeneous={report.homogeneous} "
             f"d={report.d} parts={list(report.part_counts)}"]
    if not report.ok:
        _emit(payload, args.json, lines)
        return CHECK_FAILED
    if group is not None:
        preserved = cartdecomp.preserved_by(cd, group)
        payload["preserved"] = preserved
        lines.append(f"preserved by supplied group: {preserved}")
        if not preserved:
            _emit(payload, args.json, lines)
            return CHECK_FAILED
    if report.d == 2 and report.homogeneous:
        counts = cartdecomp.block_coordinate_pairs(d, cd, group)
        payload["block_pair_counts"] = sorted(set(counts))
        lines.append(f"coordinate-sharing pairs per block: {sorted(set(counts))}")
    _emit(payload, args.json, lines)
    return OK


def _cmd_pell(args) -> int:
    from . import cartdecomp
    sols = cartdecomp.pell_solutions(args.n)
    payload = {"solutions": [
        {"n": s.n, "family": s.family, "x": s.x, "y": s.y, "u": s.u, "v": s.v}
        for s in sols]}
    lines = [f"{'x':>12} {'y':>12}   n family"]
    lines += [f"{s.x:>12} {s.y:>12}  {s.n:>2} {s.family:>6}" for s in sols]
    _emit(payload, args.json, lines)
    return OK


def _cmd_psp4(args) -> int:
    from . import cartdecomp
    rep = cartdecomp.psp4_degree_excluded(args.q)
    payload = {"q": rep.q, "c": rep.c, "pell_value": rep.pell_value,
               "pell_value_is_square": rep.pell_value_is_square,
               "c_mod_3": rep.c_mod_3, "excluded": rep.excluded,
               "small_branches": rep.small_branches}
    lines = [f"q={rep.q}: c={rep.c}, 8c^2-7={rep.pell_value} "
             f"square={rep.pell_value_is_square}, c%3={rep.c_mod_3}, "
             f"excluded={rep.excluded}"]
    _emit(payload, args.json, lines)
    return OK if rep.excluded else CHECK_FAILED


def _cmd_feasible(args) -> int:
    from . import design
    if args.action == "params":
        p = design.params_from_k(args.k)
        payload = {"v": p.v, "k": p.k, "lambda": p.lam}
        _emit(payload, args.json, [f"k={p.k} forces (v,k,lambda) = ({p.v},{p.k},{p.lam})"])
        return OK
    p = design.DesignParams(args.v, args.k, args.lam)
    feasible = design.brc_feasible(p)
    payload = {"v": p.v, "k": p.k, "lambda": p.lam, "brc_feasible": feasible}
    _emit(payload, args.json,
          [f"({p.v},{p.k},{p.lam}): {'feasible' if feasible else 'excluded'}"])
    return OK


# -- parser ------------------------------------------------------------------

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given a command, only the subcommand
    of that name gets its arguments (and its actions); the others are
    registered with their help alone, which is all that top-level usage,
    help and errors read."""
    top = argparse.ArgumentParser(
        prog="biplane",
        description="Construct, verify and analyze biplanes (symmetric 2-(v,k,2) designs).")
    sub = top.add_subparsers(dest="command", required=True)

    def subcommand(name, text):
        """Register name with its help; its parser, if it gets its arguments."""
        p = sub.add_parser(name, help=text)
        return p if command is None or command == name else None

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    if p := subcommand("catalog", "list or build the known small biplanes"):
        ssub = p.add_subparsers(dest="action", required=True)
        pl = ssub.add_parser("list")
        add_json(pl)
        pl.set_defaults(func=_cmd_catalog)
        pb = ssub.add_parser("build")
        pb.add_argument("name")
        pb.add_argument("-o", "--output")
        add_json(pb)
        pb.set_defaults(func=_cmd_catalog)

    if p := subcommand("verify", "verify the symmetric design axioms"):
        p.add_argument("design")
        add_json(p)
        p.set_defaults(func=_cmd_verify)

    if p := subcommand("dual", "compute the dual design"):
        p.add_argument("design")
        p.add_argument("-o", "--output")
        add_json(p)
        p.set_defaults(func=_cmd_dual)

    def add_stats(p):
        p.add_argument("--stats", action="store_true",
                       help="report search counters (stderr, or a stats key with --json)")

    if p := subcommand("aut", "automorphism group (point action)"):
        p.add_argument("design")
        add_json(p)
        add_stats(p)
        p.set_defaults(func=_cmd_aut)

    if p := subcommand("iso", "isomorphism test between two designs"):
        p.add_argument("design_a")
        p.add_argument("design_b")
        add_json(p)
        add_stats(p)
        p.set_defaults(func=_cmd_iso)

    if p := subcommand("ds", "difference sets: search, develop, lander"):
        ssub = p.add_subparsers(dest="action", required=True)
        ps = ssub.add_parser("search")
        ps.add_argument("--group", required=True)
        ps.add_argument("--k", type=int, required=True)
        ps.add_argument("--lambda", dest="lam", type=int, default=2)
        add_json(ps)
        add_stats(ps)
        ps.set_defaults(func=_cmd_ds)
        pd = ssub.add_parser("develop")
        pd.add_argument("--group", required=True)
        pd.add_argument("--set", required=True, help="comma-separated elements, e.g. 1,3,4,5,9")
        pd.add_argument("--lambda", dest="lam", type=int, default=2)
        pd.add_argument("-o", "--output")
        add_json(pd)
        pd.set_defaults(func=_cmd_ds)
        pm = ssub.add_parser("lander")
        pm.add_argument("--v", type=int, required=True)
        pm.add_argument("--k", type=int, required=True)
        pm.add_argument("--lambda", dest="lam", type=int, default=2)
        add_json(pm)
        pm.set_defaults(func=_cmd_ds)

    if p := subcommand("fix", "fixed-point report and lemma certification"):
        p.add_argument("--design", required=True)
        p.add_argument("--perm", required=True, help='cycle notation, e.g. "(1,2)(3,4)"')
        add_json(p)
        p.set_defaults(func=_cmd_fix)

    if p := subcommand("cert121", "admissible cycle types on 121 points"):
        p.add_argument("--order", type=int, required=True)
        add_json(p)
        p.set_defaults(func=_cmd_cert121)

    if p := subcommand("cert79", "classification checks for a (79,13,2) design"):
        p.add_argument("--design", required=True)
        add_json(p)
        p.set_defaults(func=_cmd_cert79)

    if p := subcommand("cart", "verify a cartesian decomposition against a design"):
        ssub = p.add_subparsers(dest="action", required=True)
        pv = ssub.add_parser("verify")
        pv.add_argument("--design", required=True)
        pv.add_argument("--cd", required=True)
        pv.add_argument("--group")
        add_json(pv)
        pv.set_defaults(func=_cmd_cart)

    if p := subcommand("pell", "solutions of 8x^2 - y^2 = 7"):
        p.add_argument("--n", type=int, required=True)
        add_json(p)
        p.set_defaults(func=_cmd_pell)

    if p := subcommand("psp4", "symplectic degree exclusion for even q >= 4"):
        p.add_argument("--q", type=int, required=True)
        add_json(p)
        p.set_defaults(func=_cmd_psp4)

    if p := subcommand("feasible", "parameter arithmetic and BRC feasibility"):
        ssub = p.add_subparsers(dest="action", required=True)
        pp = ssub.add_parser("params")
        pp.add_argument("--k", type=int, required=True)
        add_json(pp)
        pp.set_defaults(func=_cmd_feasible)
        pb = ssub.add_parser("brc")
        pb.add_argument("--v", type=int, required=True)
        pb.add_argument("--k", type=int, required=True)
        pb.add_argument("--lambda", dest="lam", type=int, default=2)
        add_json(pb)
        pb.set_defaults(func=_cmd_feasible)

    return top


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level takes no option with a value, so its first word that is
    # not an option names the subcommand argparse will run
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except BiplaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
