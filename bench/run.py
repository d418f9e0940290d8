"""Benchmark of the biplane workbench: one workload per run, one JSON line out.

Usage, from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): classify, certify,
existence, cli. The run sets the workload up, then repeats passes over the
workload's fixed operation list, each pass with fresh inputs drawn from
(seed, pass index), until --seconds have gone by (cli also needs 100
requests). Every answer is checked.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  op_p90_ms    90th percentile time of one unit operation (certify: one
               element; cli: one request; classify: one difference set
               developed, relabeled and reduced to canonical form; existence:
               one plain subset scan of an order-16 table)
  setup_s      median over fresh processes, started between the passes, of the
               time from process start to the first timed operation:
               interpreter start, imports, catalog builds, groups
  peak_rss_mb  peak resident memory of this process; for cli, the largest child

--trace 1 is a separate run that records a span around every call into a
layer and reports the per-layer metrics named in BENCHMARK.json, plus
`trace.pass_s`, whose difference from the untraced `pass_s` is the tracing
overhead. Spans and a per-layer table go to bench/out/.

Two more times go to standard error only, as `info {"pass_s": ..., "op_p50_ms":
...}`: the median wall time of one pass and the median unit operation time.
On a shared machine both move with the machine's load far more than op_p90_ms
does (see bench/baseline.json), so they are not end-to-end metrics.

Failed operations (raised, wrong answer, unexpected exit code) are counted in
`failed`; the error rate is failed / attempted. The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; everything else goes
to standard error. The benchmark itself uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from math import ceil
from time import perf_counter

from harness import ROOT, Context, layer_values, percentile, pin_program, write_trace

SETUP_SAMPLES = 5


def setup_probe(workload: str, seed: int) -> float:
    """One set-up sample from a fresh process (see probe.py)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "probe.py"), workload,
                           str(seed)], capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"benchmark: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = pin_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"pins {json.dumps(pins)}", file=sys.stderr)

    ctx = Context(trace=bool(args.trace))
    state = workload.setup(ctx, args.seed)
    try:
        pass_s: list[float] = []
        setup_samples: list[float] = []
        measured = 0.0  # seconds spent in passes and their input draws
        while True:
            t_inputs = perf_counter()
            inputs = workload.inputs(state, args.seed, len(pass_s))
            ctx.phase, ctx.extra_seconds = len(pass_s), 0.0
            t0 = perf_counter()
            workload.run_pass(ctx, state, inputs)
            pass_s.append(perf_counter() - t0 - ctx.extra_seconds)
            measured += perf_counter() - t_inputs
            inputs = None  # free this pass's inputs before drawing the next
            done = (measured >= args.seconds
                    and sum(map(len, workload.unit_times(ctx))) >= workload.min_ops)
            # Set-up samples are spread between the passes, so that they see
            # the machine over the whole run, as the passes do.
            want = SETUP_SAMPLES if done else ceil(SETUP_SAMPLES * measured / args.seconds)
            while not args.trace and len(setup_samples) < min(want, SETUP_SAMPLES):
                setup_samples.append(setup_probe(workload.name, args.seed))
            if done:
                break
    finally:
        workload.teardown(state)
    peak_rss = workload.peak_rss_mb(state)
    unit_times = [t for times in workload.unit_times(ctx) for t in times]

    for line in ctx.failures:
        print(f"FAILED {line}", file=sys.stderr)
    info = {"pass_s": statistics.median(pass_s), "op_p50_ms": percentile(unit_times, 50) * 1e3}
    print(f"info {json.dumps(info)}", file=sys.stderr)
    print(f"{workload.name}: {len(pass_s)} passes, {len(unit_times)} unit operations, "
          f"error_rate {ctx.failed / ctx.attempted:.6f} ({ctx.failed}/{ctx.attempted})",
          file=sys.stderr)

    if args.trace:
        values = layer_values(ctx, len(pass_s))
        values.update(workload.derived(state))
        values["trace.pass_s"] = statistics.median(pass_s)
        wanted = spec["per_layer"]
        write_trace(ROOT / "bench" / "out" / f"{workload.name}-seed{args.seed}.trace.json.gz",
                    pins, ctx, values)
    else:
        values = {
            "op_p90_ms": percentile(unit_times, 90) * 1e3,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6f} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
