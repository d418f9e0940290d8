"""Smoke test of the benchmark itself: one traced pass of every workload.

Run from the root of a checkout (about a minute and a half on two cores):

    python3 -m pytest -q bench/test_smoke.py

It asserts that every operation succeeds (error_rate 0), that the exact
counts repeat exactly (the same seed twice, and for counts that do not
depend on the relabeling, another seed too), that every per-layer metric in
BENCHMARK.json is produced by some workload, and that bench/run.py keeps its
output contract.
"""

import json
import shutil
import subprocess
import sys

import pytest

from harness import ROOT, Context, layer_values, pin_program

pin_program()

from workloads import WORKLOADS  # noqa: E402 - needs the pinned sys.path

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED_INVARIANT = ("fixcert.checks.pass", "fixcert.checks.fail", "fixcert.checks.na",
                  "diffset.classes", "diffset.subsets")
SEED_DEPENDENT = ("aut.generators",)


def one_pass(name: str, seed: int) -> tuple[Context, dict]:
    workload = WORKLOADS[name]
    ctx = Context(trace=True)
    state = workload.setup(ctx, seed)
    try:
        ctx.phase = 0
        workload.run_pass(ctx, state, workload.inputs(state, seed, 0))
    finally:
        workload.teardown(state)
    values = layer_values(ctx, 1)
    values.update(workload.derived(state))
    return ctx, values


@pytest.fixture(scope="module")
def passes():
    return {(name, seed, rep): one_pass(name, seed)
            for name in WORKLOADS for seed, rep in ((1, 0), (1, 1), (2, 0))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_operation_fails(passes, name):
    for (n, _, _), (ctx, _) in passes.items():
        if n == name:
            assert ctx.attempted > 0
            assert ctx.failed == 0, ctx.failures


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(passes, name):
    first = passes[(name, 1, 0)][1]
    again = passes[(name, 1, 1)][1]
    other = passes[(name, 2, 0)][1]
    for count in SEED_INVARIANT + SEED_DEPENDENT:
        assert first.get(count) == again.get(count), count
    for count in SEED_INVARIANT:
        assert first.get(count) == other.get(count), count


def test_every_per_layer_metric_is_measured(passes):
    zero_when_correct = {"fixcert.checks.fail"}
    measured = {key for _, values in passes.values() for key, v in values.items() if v}
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in measured | zero_when_correct | {"trace.pass_s"}]
    assert not missing


def test_result_line_contract():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "existence",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and bench/ has nothing to measure."""
    bare = ROOT / "bench" / ".work" / "no-program"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
