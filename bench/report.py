"""Steadiness report: run every workload repeatedly and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/report.py                    # 10 runs per workload, seeds 1..10
    python3 bench/report.py --runs 5 --workloads cli certify --first-seed 11

Each run is `bench/run.py` with its own seed and the run length fixed in
BENCHMARK.json, one run at a time. For every end-to-end metric the report
prints the median, the first and third quartiles, and the spread
(q3 - q1) / median next to the metric's bound, flagged when it exceeds a
third of the bound; the `info` times of run.py (pass_s, op_p50_ms) follow,
summarised the same way without a bound. The first TRACED_RUNS seeds are
also run traced, each right after its untraced run, so the two see the same
inputs and nearly the same machine. The report prints each per-layer metric's median over the
traced runs and the tracing overhead: the median over those pairs of the
traced `trace.pass_s` minus the untraced `pass_s`. The summary is also
written to bench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3
# Times run.py prints as `info`, summarised like the metrics but without a bound.
INFO = [{"name": "pass_s", "unit": "s"}, {"name": "op_p50_ms", "unit": "ms"}]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with its `info` times (see run.py) under "info"."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = [line[5:] for line in proc.stderr.splitlines() if line.startswith("info ")]
    result["info"] = json.loads(info[-1])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    summary = {}
    for workload in args.workloads:
        results, traced = [], []
        for i, seed in enumerate(seeds):
            results.append(run_once(workload, seed, seconds, 0))
            if i < TRACED_RUNS:
                traced.append(run_once(workload, seed, seconds, 1))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"error_rate {failed / attempted:.6f} ({failed}/{attempted}), "
              f"correct in {sum(r['correct'] for r in results)}/{args.runs}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        rows = {}
        for m in spec["end_to_end"] + INFO:
            if "bound" in m:
                values = [r["metrics"][m["name"]]["value"] for r in results]
            else:
                values = [r["info"][m["name"]] for r in results]
            med, q1, q3, sp = spread(values)
            if "bound" in m:
                flag = "" if sp < m["bound"] / 3 else "  > bound/3"
                bound = f"{m['bound']:>8.3f}"
            else:
                flag, bound = "  (info, no bound)", f"{'-':>8}"
            print(f"  {m['name']:<14}{med:>14.6f}{q1:>14.6f}{q3:>14.6f}{sp:>9.4f}"
                  f"{bound} {m['unit']}{flag}")
            print(f"  {'':<14}runs: {' '.join(f'{v:.6g}' for v in values)}")
            rows[m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                               "spread": sp, "bound": m.get("bound"), "unit": m["unit"]}
        summary[workload] = {"end_to_end": rows, "attempted": attempted, "failed": failed}

        if traced:
            layer = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                                  for r in traced)
                     for m in spec["per_layer"]}
            pairs = [(t["metrics"]["trace.pass_s"]["value"], r["info"]["pass_s"])
                     for t, r in zip(traced, results)]
            overhead = statistics.median(t - u for t, u in pairs)
            share = statistics.median(t / u - 1 for t, u in pairs)
            print(f"  tracing overhead {overhead:+.6f} s ({share:+.2%} of pass_s), "
                  f"median of {len(pairs)} traced/untraced pairs")
            for m in spec["per_layer"]:
                if layer[m["name"]]:
                    print(f"    {m['name']:<52}{layer[m['name']]:>16.6f} {m['unit']}")
            summary[workload]["per_layer"] = layer
            summary[workload]["tracing_overhead_s"] = overhead
            summary[workload]["tracing_overhead_share"] = share

    out = ROOT / "bench" / "out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
