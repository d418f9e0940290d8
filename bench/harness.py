"""Operation timing, spans and counters shared by the four workloads.

The workloads drive the library from outside: every call they make into a
layer's public function goes through `Context.call`, every unit of work
whose answer is checked goes through `Context.op`. With tracing off, `call`
is a plain function call and only the operation times are kept. With
tracing on, each call and each operation leaves a span in memory:

    (span id, name, start, end, parent span id, operation id, phase)

`phase` is -1 during set-up and the pass index afterwards. Spans are written
out only when the run ends (see `write_trace`).
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import statistics
import sys
from array import array
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

SETUP = -1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_program() -> dict:
    """Import biplane from the checkout's src/, never an installed copy.

    Returns what was measured: the module file, the Python and numpy
    versions and the usable CPU count. Exits non-zero when the checkout has
    no sources. `BIPLANE_THREADS` is removed for this process and its
    children, so every workload runs the library's default.
    """
    if not (SRC / "biplane" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program under test at {SRC / 'biplane'}")
    os.environ.pop("BIPLANE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import biplane

    if not Path(biplane.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: biplane imported from {biplane.__file__}, not {SRC}")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"biplane_file": biplane.__file__, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": len(os.sched_getaffinity(0))}


class Context:
    def __init__(self, trace: bool):
        self.trace = trace
        self.phase = SETUP
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op_seconds: dict[str, array] = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra_seconds = 0.0  # time in calls made only to measure
        self._stack: list[int] = []
        self._op_id = 0

    # -- calls into the library ----------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn; when tracing, record a span named after the layer call."""
        if not self.trace:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, t0, t1, parent, self._op_id, self.phase)

    def extra(self, name: str, fn, *args):
        """A call made only in the traced run, to measure a layer from outside.

        Its time is subtracted from the traced pass time, so the tracing
        overhead compares like with like.
        """
        if not self.trace:
            return None
        t0 = perf_counter()
        try:
            return self.call(name, fn, *args)
        finally:
            self.extra_seconds += perf_counter() - t0

    def count(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += n

    # -- operations -----------------------------------------------------------

    def op(self, kind: str, check, fn, *args):
        """One operation: time fn(*args), then judge the answer with check.

        A raised exception or a falsy check counts the operation as failed and
        returns None. The check runs outside the timed region.
        """
        self.attempted += 1
        self._op_id = self.attempted
        t0 = perf_counter()
        try:
            result = self.call(f"op.{kind}", fn, *args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.op_seconds[kind].append(perf_counter() - t0)
            self._fail(kind, f"raised {exc!r}")
            return None
        self.op_seconds[kind].append(perf_counter() - t0)
        try:
            if check(result):
                return result
            detail = f"wrong answer {str(result)[:200]}"
        except Exception as exc:  # noqa: BLE001
            detail = f"check raised {exc!r}"
        self._fail(kind, detail)
        return None

    def check(self, kind: str, ok: bool, detail: str = "") -> None:
        """A whole-pass correctness check; attempted like an operation, untimed."""
        self.attempted += 1
        if not ok:
            self._fail(kind, detail)

    def _fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"pass {self.phase} {kind}: {detail}")


# -- statistics ----------------------------------------------------------------

def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation between samples."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_values(ctx: Context, npasses: int) -> dict[str, float]:
    """Per-layer values from the spans and counters, keyed by metric name.

    `<span>.s` is the time spent in that call per pass (median over passes);
    a call made only during set-up reports its set-up total instead.
    `<span>.ms` and `<span>.us` are the median duration of one call.
    Counters report pass 0, or set-up when only set-up counts them.
    `perm.chain_build` replays are subtracted from `aut.automorphism_group`
    to give `aut.ir.s`.
    """
    per_phase: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, list[float]] = defaultdict(list)
    for span in ctx.spans:
        _, name, t0, t1, _, _, phase = span
        per_phase[name][phase] += t1 - t0
        durations[name].append(t1 - t0)

    def per_pass(name: str) -> float:
        phases = per_phase[name]
        if any(p != SETUP for p in phases):
            return statistics.median(phases.get(i, 0.0) for i in range(npasses))
        return phases.get(SETUP, 0.0)

    out: dict[str, float] = {}
    for name in per_phase:
        out[f"{name}.s"] = per_pass(name)
        out[f"{name}.ms"] = statistics.median(durations[name]) * 1e3
        out[f"{name}.us"] = statistics.median(durations[name]) * 1e6
    out["aut.ir.s"] = max(0.0, out.get("aut.automorphism_group.s", 0.0)
                          - out.get("perm.chain_build.s", 0.0))
    count_names = {name for _, name in ctx.counts}
    for name in count_names:
        if any(ctx.counts.get((i, name)) is not None for i in range(npasses)):
            out[name] = ctx.counts.get((0, name), 0)
        else:
            out[name] = ctx.counts.get((SETUP, name), 0)
    return out


def layer_table(ctx: Context) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per layer (the span name's first part).

    Self time is a span's duration minus the part its child spans cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in ctx.spans:
        sid, _, t0, t1, parent, _, _ = span
        if parent is not None:
            child_time[parent] += t1 - t0
    table: dict[str, dict[str, float]] = {}
    for span in ctx.spans:
        sid, name, t0, t1, _, _, _ = span
        row = table.setdefault(name.split(".")[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child_time[sid]
    return table


def write_trace(path, pins: dict, ctx: Context, values: dict) -> None:
    """Write the spans, the per-layer table and the run's pins as gzipped JSON."""
    table = layer_table(ctx)
    for layer, row in sorted(table.items()):
        print(f"  {layer:<10} calls {row['calls']:>8}  total {row['total_s']:9.4f} s"
              f"  self {row['self_s']:9.4f} s", file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"pins": pins, "layers": table, "values": values,
                   "span_fields": ["id", "name", "start", "end", "parent", "op", "phase"],
                   "spans": ctx.spans}, fh)
        fh.write("\n")
