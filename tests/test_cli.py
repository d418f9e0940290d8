import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from biplane import catalog, cli
from biplane.cartdecomp import CartesianDecomposition
from biplane.cli import run
from biplane.design import VERIFY_PAIR_CAP, Design, DesignParams
from biplane.diffset import GROUP_ORDER_CAP
from biplane.perm import PermGroup, Permutation, group_to_json_dict

OK, CHECK_FAILED, USAGE, INTERNAL = 0, 1, 2, 3


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _design_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.build(name).to_json_dict()))
    return str(path)


def test_catalog_list(capsys):
    code, out = _capture(capsys, ["catalog", "list"])
    assert code == OK
    assert "biplane16_primitive" in out and "121" in out


def test_catalog_list_json(capsys):
    code, out = _capture(capsys, ["catalog", "list", "--json"])
    assert code == OK
    payload = json.loads(out)
    assert len(payload["entries"]) == 9


def test_verify_roundtrip(tmp_path, capsys):
    path = _design_file(tmp_path, "fano_complement")
    code, out = _capture(capsys, ["verify", path])
    assert code == OK and "ok" in out


def test_verify_failure_exit_code(tmp_path, capsys):
    data = catalog.build("fano_complement").to_json_dict()
    data["blocks"] = data["blocks"][:-1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out = _capture(capsys, ["verify", str(path)])
    assert code == CHECK_FAILED and "FAILED" in out


def test_verify_lists_sample_and_counts(tmp_path, capsys):
    # one block of the (7,4,2) parameters: 22 violations, 20 of them listed
    path = tmp_path / "one_block.json"
    path.write_text(json.dumps({"v": 7, "k": 4, "lambda": 2, "blocks": [[1, 2, 3, 4]]}))
    code, out = _capture(capsys, ["verify", str(path)])
    lines = out.splitlines()
    assert code == CHECK_FAILED and len(lines) == 22
    assert lines[1] == "  ('block-count', None, 1, 7)"
    assert lines[-1] == "counts: block-count 1, pair-count 21"
    code, out = _capture(capsys, ["verify", str(path), "--json"])
    payload = json.loads(out)
    assert code == CHECK_FAILED and len(payload["violations"]) == 20
    assert payload["counts"] == {"block-count": 1, "pair-count": 21}
    code, out = _capture(capsys, ["verify", _design_file(tmp_path, "fano_complement"), "--json"])
    assert code == OK and json.loads(out) == {"ok": True, "counts": {}, "violations": []}
    code, out = _capture(capsys, ["verify", _design_file(tmp_path, "fano_complement")])
    assert out == "verify (7,4,2): ok\n"


def test_dual_and_iso(tmp_path, capsys):
    src = _design_file(tmp_path, "hadamard11")
    dst = str(tmp_path / "dual.json")
    code, _ = _capture(capsys, ["dual", src, "-o", dst])
    assert code == OK
    code, out = _capture(capsys, ["iso", src, dst])
    assert code == OK and "yes" in out


def test_aut_json(tmp_path, capsys):
    path = _design_file(tmp_path, "fano_complement")
    code, out = _capture(capsys, ["aut", path, "--json"])
    assert code == OK
    payload = json.loads(out)
    assert payload["order"] == 168
    assert all(isinstance(g, str) for g in payload["generators"])


def test_stats_leave_stdout_unchanged(tmp_path, capsys):
    path = _design_file(tmp_path, "biplane16_q8c2")
    counters = {"nodes": 12, "leaves": 5, "automorphisms": 4}
    for argv, stats in ((["aut", path], counters),
                        (["iso", path, path], {"design_a": counters, "design_b": counters}),
                        (["ds", "search", "--group", "q8xc2", "--k", "6"],
                         {"nodes": 247, "hits": 88})):
        assert run(argv) == OK
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run(argv + ["--stats"]) == OK
        with_stats = capsys.readouterr()
        assert with_stats.out == plain.out
        assert json.loads(with_stats.err.removeprefix("stats: ")) == stats
        assert run(argv + ["--json"]) == OK
        plain_json = json.loads(capsys.readouterr().out)
        assert run(argv + ["--json", "--stats"]) == OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload.pop("stats") == stats
        assert payload == plain_json


def test_ds_lander_witness(capsys):
    code, out = _capture(capsys, ["ds", "lander", "--v", "121", "--k", "16",
                                  "--lambda", "2"])
    assert code == OK
    assert "(11, 2, 5)" in out
    assert "hypotheses: the group is abelian, and pdiv divides its exponent" in out
    code, out = _capture(capsys, ["ds", "lander", "--v", "121", "--k", "16", "--json"])
    assert code == OK
    payload = json.loads(out)
    assert payload["witness"] == [11, 2, 5]
    assert payload["hypotheses"] == "the group is abelian, and pdiv divides its exponent"


def test_ds_search_and_develop(tmp_path, capsys):
    code, out = _capture(capsys, ["ds", "search", "--group", "c2xc8", "--k", "6",
                                  "--lambda", "2", "--json"])
    assert code == OK
    payload = json.loads(out)
    assert payload["count"] == 12
    out_path = str(tmp_path / "dev.json")
    code, _ = _capture(capsys, ["ds", "develop", "--group", "c11",
                                "--set", "1,3,4,5,9", "-o", out_path])
    assert code == OK
    code, _ = _capture(capsys, ["verify", out_path])
    assert code == OK


def test_aut_on_pg27(tmp_path, capsys):
    # PG(2,7): equitable refinement barely splits a projective plane, and the
    # search must still end quickly; |PGL(3,7)| = 5630688
    out_path = str(tmp_path / "pg27.json")
    code, _ = _capture(capsys, ["ds", "develop", "--group", "c57", "--set",
                                "0,1,3,13,32,36,43,52", "--lambda", "1", "-o", out_path])
    assert code == OK
    code, out = _capture(capsys, ["aut", out_path, "--json"])
    assert code == OK
    assert json.loads(out)["order"] == 5630688


def test_fix_command(tmp_path, capsys):
    path = _design_file(tmp_path, "biplane16_primitive")
    code, out = _capture(capsys, ["fix", "--design", path,
                                  "--perm", "(3,5)(4,6)(11,13)(12,14)"])
    assert code == OK
    assert "fixed points: 8" in out


def test_fix_identity_exits_0(tmp_path, capsys):
    path = _design_file(tmp_path, "fano_complement")
    code, out = _capture(capsys, ["fix", "--design", path, "--perm", "()"])
    assert code == OK
    assert "fixed points: 7  fixed blocks: 7" in out and "fail" not in out
    code, out = _capture(capsys, ["fix", "--design", path, "--perm", "()", "--json"])
    assert code == OK
    payload = json.loads(out)
    assert payload["ok"] is True
    checks = {c["name"]: (c["status"], c["detail"]) for c in payload["checks"]}
    assert checks["fixed-substructure"] == ("n/a", "identity")
    assert checks["odd-order-fixed-count-branch"] == ("n/a", "identity")


def test_fix_rejects_non_automorphism(tmp_path, capsys):
    path = _design_file(tmp_path, "fano_complement")
    assert run(["fix", "--design", path, "--perm", "(1,2)"]) == USAGE


def test_fix_rejects_unverified_design(tmp_path, capsys):
    # translates of {0,1,15,2,14,8} mod 16 repeat some differences 4 times
    base = (0, 1, 15, 2, 14, 8)
    blocks = sorted(sorted((b + x) % 16 + 1 for b in base) for x in range(16))
    path = tmp_path / "bad16.json"
    path.write_text(json.dumps({"v": 16, "k": 6, "lambda": 2, "blocks": blocks}))
    assert run(["verify", str(path)]) == CHECK_FAILED
    capsys.readouterr()
    negate = "".join(f"({i + 1},{17 - i})" for i in range(1, 8))  # x -> -x
    assert run(["fix", "--design", str(path), "--perm", negate]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a symmetric (16,6,2) design" in captured.err


def test_ds_search_oversized_group(capsys):
    tag = f"c{GROUP_ORDER_CAP + 1}"
    assert run(["ds", "search", "--group", tag, "--k", "6"]) == USAGE
    assert f"exceeds the cap {GROUP_ORDER_CAP}" in capsys.readouterr().err
    assert run(["ds", "search", "--group", "c121ab", "--k", "16"]) == USAGE
    assert "C(119,14) exceeds the search cap" in capsys.readouterr().err
    # 20 * 19 != 2 * 120: no difference set, whatever the cap
    assert run(["ds", "search", "--group", "c121ab", "--k", "20"]) == OK
    assert capsys.readouterr().out.startswith("0 difference set class(es) in ")


@pytest.mark.parametrize("tag,k,lam,hits", [("c995", 995, 995, 1), ("c1000", 999, 998, 998),
                                            ("c1024", 1024, 1024, 1)])
def test_ds_search_trivial_rows_answer_at_once(capsys, tag, k, lam, hits):
    # k >= n - 1 is answered in closed form; c995 and c1000 used to end in a
    # RecursionError
    start = time.perf_counter()
    assert run(["ds", "search", "--group", tag, "--k", str(k), "--lambda", str(lam),
                "--json", "--stats"]) == OK
    assert time.perf_counter() - start < 2.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1 and payload["sets"] == [list(range(k))]
    assert payload["stats"] == {"nodes": 0, "hits": hits}


def test_verify_oversized_design(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"v": 100000, "k": 3, "lambda": 2, "blocks": []}))
    start = time.perf_counter()
    assert run(["verify", str(path)]) == USAGE
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the cap is {VERIFY_PAIR_CAP}" in captured.err


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(cli, "_cmd_pell", broken)
    assert run(["pell", "--n", "3"]) == INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: invariant broken\n"


def _src_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(catalog.__file__)))


def test_python_dash_m_entry_point(capsys):
    # `python -m biplane` (__main__.py) and `python -m biplane.cli` answer a
    # call and a usage error exactly as cli.run does
    for argv, code in ((["catalog", "list"], OK), (["pell", "--n", "x"], USAGE)):
        expected = _outcome(capsys, argv)
        assert expected[0] == code
        for module in ("biplane", "biplane.cli"):
            proc = subprocess.run([sys.executable, "-m", module, *argv],
                                  capture_output=True, text=True, env=_src_env(), timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == expected, (module, argv)


def _modules_loaded(argv, cwd=None):
    """Run `biplane.cli.run(argv)` in a fresh interpreter (only the import
    when argv is None); return its exit code and the modules it loaded."""
    code = ("import json, sys, biplane.cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "code = 0 if argv is None else biplane.cli.run(argv)\n"
            "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], cwd=cwd,
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == OK, proc.stderr
    exit_code, modules = json.loads(proc.stderr.splitlines()[-1])
    return exit_code, set(modules)


def test_cli_import_leaves_numpy_out():
    _, modules = _modules_loaded(None)
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("biplane")} == {
        "biplane", "biplane.cli", "biplane.errors"}


# The package modules each subcommand may load beyond biplane, cli and errors.
# Canonical certificates take the interpreter's own SHA-256 module, so none
# loads hashlib or OpenSSL's _hashlib. The records are named tuples, so none
# loads dataclasses or the inspect module that it imports.
_BASE = {"design", "ntheory"}


@pytest.mark.parametrize("argv, allowed", [
    (["catalog", "list"], _BASE | {"catalog"}),
    (["catalog", "build", "hadamard11"], _BASE | {"catalog", "diffset"}),
    (["verify", "d16.json"], _BASE),
    (["aut", "d16.json"], _BASE | {"perm", "aut"}),
    (["iso", "d16.json", "d16.json"], _BASE | {"perm", "aut"}),
    (["fix", "--design", "d16.json", "--perm", "(3,5)(4,6)(11,13)(12,14)"],
     _BASE | {"perm", "fixcert"}),
    (["cert121", "--order", "3"], _BASE | {"perm", "fixcert"}),
    (["cart", "verify", "--design", "d16.json", "--cd", "cd.json", "--group", "g.json"],
     _BASE | {"perm", "cartdecomp"}),
    (["pell", "--n", "3"], {"cartdecomp", "ntheory"}),
    (["ds", "search", "--group", "c2xc8", "--k", "6"], _BASE | {"diffset"}),
    (["ds", "lander", "--v", "121", "--k", "16"], _BASE | {"diffset"}),
], ids=["catalog-list", "catalog-build", "verify", "aut", "iso", "fix", "cert121",
        "cart-verify", "pell", "ds-search", "ds-lander"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, allowed):
    from biplane.cartdecomp import CartesianDecomposition
    from biplane.perm import group_to_json_dict
    files = {"d16.json": catalog.build("biplane16_primitive").to_json_dict(),
             "cd.json": CartesianDecomposition(catalog.CART16_PARTITIONS).to_json_dict(),
             "g.json": group_to_json_dict(catalog.primitive16_group())}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    exit_code, modules = _modules_loaded(argv, cwd=tmp_path)
    assert exit_code == OK
    loaded = {m.removeprefix("biplane.") for m in modules if m.startswith("biplane.")}
    assert loaded <= allowed | {"cli", "errors"}
    assert not modules & {"hashlib", "_hashlib", "numpy", "dataclasses", "inspect"}


def test_cert121(capsys):
    code, out = _capture(capsys, ["cert121", "--order", "16"])
    assert code == OK and "no admissible cycle types" in out
    code, out = _capture(capsys, ["cert121", "--order", "11", "--json"])
    assert code == OK
    assert json.loads(out)["types"] == [{"11": 11}]


def test_cert121_order_above_landau(capsys):
    code, out = _capture(capsys, ["cert121", "--order", str(2**50)])
    assert code == OK and "cannot occur" in out
    code, out = _capture(capsys, ["cert121", "--order", str(2**50), "--json"])
    assert code == OK and json.loads(out) == {"order": 2**50, "types": []}


def test_cert79_wrong_params(tmp_path):
    path = _design_file(tmp_path, "fano_complement")
    assert run(["cert79", "--design", path]) == USAGE


def test_cart_verify(tmp_path, capsys):
    from biplane.cartdecomp import CartesianDecomposition
    dpath = _design_file(tmp_path, "biplane16_primitive")
    cd = CartesianDecomposition(catalog.CART16_PARTITIONS)
    cd_path = tmp_path / "cd.json"
    cd_path.write_text(json.dumps(cd.to_json_dict()))
    from biplane.perm import group_to_json_dict
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(group_to_json_dict(catalog.primitive16_group())))
    code, out = _capture(capsys, ["cart", "verify", "--design", dpath,
                                  "--cd", str(cd_path), "--group", str(g_path)])
    assert code == OK
    assert "preserved by supplied group: True" in out
    assert "[6]" in out


def test_cart_verify_failures_exit_1(tmp_path, capsys, aut_results):
    # The full group of biplane16_primitive consists of automorphisms, so it
    # passes the input gates, but does not preserve the decomposition; a
    # partition listed twice fails the unique-intersection law.
    dpath = _design_file(tmp_path, "biplane16_primitive")
    files = {"cd": CartesianDecomposition(catalog.CART16_PARTITIONS).to_json_dict(),
             "dup": CartesianDecomposition([catalog.CART16_PARTITIONS[0]] * 2).to_json_dict(),
             "g": group_to_json_dict(aut_results["biplane16_primitive"].group)}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    cart = ["cart", "verify", "--design", dpath, "--cd"]
    report = {"d": 2, "homogeneous": True, "part_counts": [4, 4]}
    for argv, lines, payload in (
            (cart + [str(tmp_path / "cd.json"), "--group", str(tmp_path / "g.json")],
             "cartesian: ok=True homogeneous=True d=2 parts=[4, 4]\n"
             "preserved by supplied group: False\n",
             dict(report, ok=True, preserved=False, violations=[])),
            (cart + [str(tmp_path / "dup.json")],
             "cartesian: ok=False homogeneous=True d=2 parts=[4, 4]\n",
             dict(report, ok=False,
                  violations=["parts [[1, 8, 10, 15], [1, 8, 10, 15]] meet in 4 points"]))):
        assert _outcome(capsys, argv) == (CHECK_FAILED, lines, "")
        code, out, err = _outcome(capsys, argv + ["--json"])
        assert (code, json.loads(out), err) == (CHECK_FAILED, payload, "")


def test_ds_lander_without_witness(capsys):
    argv = ["ds", "lander", "--v", "16", "--k", "6"]
    assert _outcome(capsys, argv) == (
        OK, "no witness found; the test does not exclude these parameters\n", "")
    code, out, err = _outcome(capsys, argv + ["--json"])
    assert (code, err) == (OK, "")
    assert json.loads(out) == {"excluded": False, "witness": None,
                               "hypotheses": "the group is abelian, and pdiv divides its exponent"}


@pytest.mark.parametrize("content", ["[]", "null", '"x"'])
def test_json_file_must_hold_an_object(tmp_path, capsys, content):
    # Each kind of input file names the shape it expects, not a Python
    # internal such as "list indices must be integers or slices, not str"
    design = _design_file(tmp_path, "biplane16_primitive")
    cd = tmp_path / "cd.json"
    cd.write_text(json.dumps(CartesianDecomposition(catalog.CART16_PARTITIONS).to_json_dict()))
    group = tmp_path / "g.json"
    group.write_text(json.dumps(group_to_json_dict(catalog.primitive16_group())))
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    cart = ["cart", "verify", "--design", design, "--cd", str(cd), "--group", str(group)]
    for what, argv in (("design", ["verify", str(bad)]),
                       ("decomposition", cart[:5] + [str(bad)] + cart[6:]),
                       ("group", cart[:7] + [str(bad)])):
        assert run(argv) == USAGE, what
        err = capsys.readouterr().err
        assert err == f"error: bad {what} file {bad}: expected a JSON object at its top level\n"


def test_pell_table(capsys):
    code, out = _capture(capsys, ["pell", "--n", "2"])
    assert code == OK
    xs = [int(line.split()[0]) for line in out.splitlines()[1:]]
    assert xs == [1, 2, 4, 11, 23]


def test_psp4(capsys):
    code, out = _capture(capsys, ["psp4", "--q", "4"])
    assert code == OK and "excluded=True" in out
    assert run(["psp4", "--q", "6"]) == USAGE


def test_feasible(capsys):
    code, out = _capture(capsys, ["feasible", "brc", "--v", "67", "--k", "12"])
    assert code == OK and "excluded" in out
    code, out = _capture(capsys, ["feasible", "params", "--k", "16", "--json"])
    assert code == OK
    assert json.loads(out) == {"v": 121, "k": 16, "lambda": 2}


def test_usage_errors():
    assert run(["nonsense"]) == USAGE
    assert run(["verify", "/no/such/file.json"]) == USAGE
    assert run(["catalog", "build", "biplane121"]) == USAGE  # metadata-only


def _outcome(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _choices(parser) -> dict:
    """The parsers of the subcommands (or actions) of parser, by name."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def test_parser_of_one_subcommand_matches_the_full_parser(capsys, monkeypatch):
    # run builds only the arguments of the subcommand argv names; help,
    # usage errors and exit codes must be those of the parser of every
    # subcommand, at the top level and for every subcommand and action
    full = cli.build_parser
    cases = [[], ["-h"], ["--help"], ["nonsense"], ["nonsense", "-h"], ["--bogus"],
             ["--bogus", "pell", "--n", "1"], ["-h", "aut"], ["--", "aut"]]
    for name, sub in _choices(full()).items():
        cases += [[name, "-h"], [name], [name, "--bogus"], [name, "x", "y", "z"]]
        for action in _choices(sub):
            cases += [[name, action, "-h"], [name, action, "--bogus"], [name, action, "--json"]]
    assert len(cases) == 9 + 13 * 4 + 8 * 3
    lean = [_outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert [_outcome(capsys, argv) for argv in cases] == lean
    assert all(code in (OK, USAGE) for code, _, _ in lean)
    # and the parser for one subcommand leaves the others bare
    parsers = _choices(full("aut"))
    assert len(parsers) == 13 and len(parsers["aut"]._actions) == 4
    assert all(len(p._actions) == 1 for name, p in parsers.items() if name != "aut")


LONG = "9" * 5000  # longer than the 4,300 digits int() reads from text


def _hostile_files(tmp_path):
    """Paths of a 16-point design, its cartesian decomposition, one with an
    empty part, one with no partitions, groups of degree 8 and 20 (padded with fixed points), a
    7-point design, copies of the group and the 7-point design with a float
    where an integer goes, and an output path in a missing directory; also
    the translates of {0,1,15,2,14,8} mod 16, which do not verify, a
    16-point biplane whose automorphisms do not include the group, a
    transposition, which is no automorphism and preserves no decomposition,
    groups whose generator is an integer or a list, and a group of degree
    10^9, a file that is not UTF-8, and files that hold an integer longer
    than int() reads."""
    d7 = catalog.build("fano_complement").to_json_dict()
    g16 = group_to_json_dict(catalog.primitive16_group())
    junk16 = Design(DesignParams(16, 6, 2),
                    [tuple(sorted((x + s) % 16 + 1 for s in (0, 1, 15, 2, 14, 8)))
                     for x in range(16)])
    files = {"d16": catalog.build("biplane16_primitive").to_json_dict(),
             "d16_junk": junk16.to_json_dict(),
             "d16_c2c8": catalog.build("biplane16_c2c8").to_json_dict(),
             "g16": g16,
             "g16_transposition": group_to_json_dict(PermGroup.from_cycles(16, ["(1,2)"])),
             "cd16": CartesianDecomposition(catalog.CART16_PARTITIONS).to_json_dict(),
             "cd16_empty_part": {"partitions": [[[], list(range(1, 17))],
                                                [[j, j + 8] for j in range(1, 9)]]},
             "cd16_no_partitions": {"partitions": []},
             "g8": group_to_json_dict(PermGroup.from_cycles(8, ["(1,2)"])),
             "g20": group_to_json_dict(PermGroup(20, [
                 Permutation(g.images + (17, 18, 19, 20))
                 for g in catalog.primitive16_group().generators])),
             "d7": d7,
             "d7_float_v": dict(d7, v=7.9),
             "d7_float_point": dict(d7, blocks=[[1.9] + d7["blocks"][0][1:]] + d7["blocks"][1:]),
             "d7_long_text_v": dict(d7, v=LONG),
             "g16_float_degree": dict(g16, degree=16.0),
             "g16_int_generator": {"degree": 16, "generators": [5]},
             "g16_nested_generator": {"degree": 16, "generators": [["(1,2)"]]},
             "g_huge_degree": {"degree": 10**9, "generators": ["(1,2)"]}}
    paths = {}
    for key, data in files.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        paths[key] = str(path)
    paths["unwritable"] = str(tmp_path / "missing" / "out.json")
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe{}")
    paths["undecodable"] = str(tmp_path / "undecodable.json")
    # integers longer than int() reads, written as text: json.dumps cannot convert them
    long_texts = {
        "d_long_v": json.dumps(dict(files["d16"], v=0)).replace('"v": 0', f'"v": {LONG}'),
        "d_long_point": json.dumps(files["d16"]).replace("[1, ", f"[{LONG}, ", 1),
        "cd_long_point": json.dumps(files["cd16"]).replace("[1, ", f"[{LONG}, ", 1),
        "g_long_degree": json.dumps(dict(g16, degree=0)).replace('"degree": 0',
                                                                 f'"degree": {LONG}'),
        "g_long_point": json.dumps({"degree": 16, "generators": [f"(1,{LONG})"]})}
    for key, text in long_texts.items():
        assert LONG in text
        (tmp_path / f"{key}.json").write_text(text)
        paths[key] = str(tmp_path / f"{key}.json")
    return paths


@pytest.mark.parametrize("argv", [
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g8}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g20}"],
    ["pell", "--n", "5700"],
    ["pell", "--n", "100000000"],
    ["fix", "--design", "{d7}", "--perm", "(1,99)"],
    ["ds", "develop", "--group", "c11", "--set", "1,3"],
    ["ds", "develop", "--group", "c11", "--set", "a,b"],
    ["ds", "develop", "--group", "c11", "--set", "1,,3"],
    ["ds", "search", "--group", "c7", "--k", "3", "--lambda", "0"],
    ["ds", "search", "--group", "c7", "--k", "3", "--lambda", "-1"],
    ["verify", "{d7_float_v}"],
    ["verify", "{d7_float_point}"],
    ["aut", "{d7_float_point}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g16_float_degree}"],
    ["cert121", "--order", "0"],
    ["ds", "lander", "--v", "5000000050000001", "--k", "100000001"],
    ["feasible", "brc", "--v", "50000000000000805000000000003241", "--k", "10000000000000081"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16_empty_part}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16_no_partitions}"],
    ["cart", "verify", "--design", "{d16_junk}", "--cd", "{cd16}"],
    ["cart", "verify", "--design", "{d16_c2c8}", "--cd", "{cd16}", "--group", "{g16}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g16_transposition}"],
    ["catalog", "build", "hadamard11", "-o", "{unwritable}"],
    ["dual", "{d7}", "-o", "{unwritable}"],
    ["psp4", "--q", str(2**2000)],
    ["feasible", "params", "--k", str(10**2500)],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g16_int_generator}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g16_nested_generator}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g_huge_degree}"],
    ["verify", "{undecodable}"],
    ["ds", "search", "--group", "c\u00b2", "--k", "3"],  # a digit that int() does not read
    ["verify", "{d_long_v}"],
    ["aut", "{d_long_point}"],
    ["fix", "--design", "{d16}", "--perm", f"(1,{LONG})"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd_long_point}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g_long_degree}"],
    ["cart", "verify", "--design", "{d16}", "--cd", "{cd16}", "--group", "{g_long_point}"],
    ["ds", "search", "--group", f"c{LONG}", "--k", "3"],
    ["ds", "develop", "--group", f"c{LONG}", "--set", "0,1,3"],
    ["ds", "develop", "--group", "c11", "--set", f"1,{LONG}"],
    ["ds", "develop", "--group", "c11", "--set", f"1,{LONG}x"],
    ["fix", "--design", "{d16}", "--perm", f"(1,2)(2,{'3,' * 3000}4)"],
    ["fix", "--design", "{d16}", "--perm", f"(1,2)x{LONG}"],
    ["verify", "{d7_long_text_v}"],
    ["ds", "develop", "--group", "c3", "--set", "0,1,2", "--lambda", "3"],
])
def test_hostile_arguments_exit_2(tmp_path, capsys, argv):
    paths = _hostile_files(tmp_path)
    argv = [a.format(**paths) for a in argv]
    for as_json in ([], ["--json"]):
        start = time.perf_counter()
        assert run(argv + as_json) == USAGE
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # hostile input is echoed clipped; the test's own directory is not counted
        line = captured.err.removesuffix("\n").replace(str(tmp_path), "")
        assert len(line.encode()) < 200
        assert "Traceback" not in captured.err


def test_ds_develop_refuses_repeated_element(capsys):
    assert run(["ds", "develop", "--group", "c7", "--set", "0,1,3,3", "--lambda", "1"]) == USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: difference-set element(s) repeated: [3]\n"


def test_emit(capsys):
    payload = {"b": 1, "a": [2, 3]}
    cli._emit(payload, True, ["x"])
    as_json = capsys.readouterr().out
    assert json.loads(as_json) == payload
    assert as_json.index('"a"') < as_json.index('"b"')  # sorted keys
    cli._emit(payload, False, ["row1", "row2"])
    assert capsys.readouterr().out == "row1\nrow2\n"


def test_byte_identical_output(capsys):
    _, first = _capture(capsys, ["catalog", "list", "--json"])
    _, second = _capture(capsys, ["catalog", "list", "--json"])
    assert first == second
    _, first = _capture(capsys, ["ds", "search", "--group", "q8xc2", "--k", "6", "--json"])
    _, second = _capture(capsys, ["ds", "search", "--group", "q8xc2", "--k", "6", "--json"])
    assert first == second
