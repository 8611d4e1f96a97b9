#!/usr/bin/env python3
"""Benchmark of geodense's arc processing and point certification.

Run from the repository root:

    python3 perfbench/run.py --workload torus-thick --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --replay .perfbench_out/witness-torus-dives-s1-t0-17.json

Both modes operate on a fixed list of inputs drawn from a seeded stream,
sized by the workload and ``--seconds``, so the seed alone fixes which
operations fail.  ``--trace 0`` sets up the workload several times,
times one pass over the list and then further passes until ``--seconds``
seconds are up, with tracing off, and reports the end-to-end metrics.
Their times are scaled to a nominal host speed measured by a reference
loop run between operations (see HostSpeed); the raw times are printed
too.  ``--trace 1`` runs the list untraced and then traced, and reports
the per-layer metrics.  Every output is checked.  The readable report
comes first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The full result,
spans, counters and one replayable witness per failed operation go to
``.perfbench_out/``.  The exit code is 1 when an output check fails and
2 when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import NULL, SPAN_FIELDS, Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# an operation running longer than this is stopped and counted as failed,
# which keeps every run within a bounded time; arcs are stopped earlier,
# and the same on every host, by workloads.STEP_BUDGET
OP_LIMIT_S = 30.0
# a --trace 0 run stops its first pass over the input list here, should
# the code get that much slower, so that it still ends in time
FIRST_PASS_LIMIT_S = 120.0
# set-ups per --trace 0 run; setup_s is their median
SETUP_REPS = {"arc": 15, "point": 3}
# ops_per_s is the median throughput over this many equal-count blocks;
# small blocks keep the rare slow operations, which every pass over the
# input list repeats, from moving it
BLOCKS = 200

# Host speed.  The machine this benchmark was built on runs the same
# Python code up to twice as slow for minutes at a time, with CPU time
# equal to wall time, so a raw time says more about the host than about
# the code.  A fixed reference loop is timed between operations, and every
# reported time is scaled to the nominal host on which that loop takes
# REF_NOMINAL_S: scaled = raw * REF_NOMINAL_S / (median of the last
# REF_WINDOW loop timings).  Raw times are printed next to scaled ones.
REF_NOMINAL_S = 1e-3
REF_EVERY_S = 0.05
REF_WINDOW = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

FAIL_CLASSES = ("TraceError", "CaseBoundViolated", "SafetyCapExceeded",
                "ArrangementDegenerate", "StepBudgetExceeded", "OverTimeLimit",
                "other")

PER_LAYER = {
    "densify.rescan_ratio": "ratio",
    "densify.scan_steps": "count",
    "densify.hunt_chunks": "count",
    "densify.classify_and_extend.s": "s",
    "densify.replace_arc.s": "s",
    "densify.case_A": "count",
    "densify.case_BA": "count",
    "densify.case_BB": "count",
    **{f"densify.fail.{c}": "count" for c in FAIL_CLASSES},
    "tracing.trace_geodesic.calls": "count",
    "tracing.trace_geodesic.s": "s",
    "tracing.trace_geodesic.steps": "count",
    "tracing.concat_traces.calls": "count",
    "tracing.concat_traces.steps": "count",
    "halfplane.lines_cross.tracing": "count",
    "halfplane.intersect_lines.tracing": "count",
    "halfplane.lines_cross.densify": "count",
    "halfplane.line_horocycle_crossings.densify": "count",
    "halfplane.dist_to_point.orbit": "count",
    "surface.normalize.calls": "count",
    "surface.normalize.s": "s",
    "orbit.ball.calls": "count",
    "orbit.ball.tiles": "count",
    "orbit.ball.s": "s",
    "orbit.dist_to_domain.calls": "count",
    "orbit.tile_yield": "ratio",
    "orbit.dist_to_closed_geodesic.s": "s",
    "decomp.decompose.s": "s",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    "length_mean": "length",
    "length_ratio_max": "ratio",
    "covered_frac": "ratio",
}


def import_package():
    """Import geodense from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import geodense
    except ImportError as exc:
        print(f"perfbench: cannot import geodense from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(geodense.__file__).resolve().is_relative_to(src):
        print(f"perfbench: geodense came from {geodense.__file__}, "
              f"not {src}", file=sys.stderr)
        sys.exit(2)


class OverTimeLimit(Exception):
    """An operation ran past OP_LIMIT_S."""


def _time_up(signum, frame):
    raise OverTimeLimit(f"operation ran past {OP_LIMIT_S} s")


def arm_time_limit():
    """Make the SIGALRM that attempt() schedules raise OverTimeLimit."""
    signal.signal(signal.SIGALRM, _time_up)


@dataclass
class Outcome:
    index: int
    seconds: float
    value: object = None          # ProcessedArc, distance, or None
    error: str | None = None      # class name of the failure
    message: str = ""


def attempt(fn, ctx, index, x, tr=NULL) -> Outcome:
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    t0 = time.perf_counter()
    try:
        value = fn(ctx, x, tr)
        err, msg = None, ""
    except Exception as exc:
        # any exception out of the package fails this operation only; keep
        # its text, not the exception, whose traceback would keep the
        # operation's traces alive for the rest of the run
        value, err = None, type(exc).__name__
        msg = "".join(traceback.format_exception_only(exc)).strip() \
            + "\n" + "".join(traceback.format_tb(exc.__traceback__)[-4:])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
    return Outcome(index, dt, value, err, msg)


def reference_loop() -> float:
    """Seconds taken by a fixed amount of float and complex arithmetic.
    It allocates no containers, so garbage collection never runs in it
    and the heap the benchmark leaves behind does not slow it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        z = complex(i * 0.001, 1.0 + i * 1e-4)
        w = (z - 1j) / (z + 1j)
        acc += abs(w) + math.atan2(w.imag, w.real)
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop timings taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self):
        """Time the reference loop unless that was done REF_EVERY_S ago."""
        if time.perf_counter() >= self._next:
            self.samples.append(reference_loop())
            self._next = time.perf_counter() + REF_EVERY_S

    def scale(self, raw: float) -> float:
        return raw * REF_NOMINAL_S / statistics.median(
            self.samples[-REF_WINDOW:])

    def describe(self) -> str:
        q = statistics.quantiles(self.samples, n=10) \
            if len(self.samples) > 1 else self.samples * 9
        med = statistics.median(self.samples)
        return (f"  host: reference loop {med * 1e3:.3f} ms median, "
                f"{q[0] * 1e3:.3f} to {q[-1] * 1e3:.3f} ms p10-p90 over "
                f"{len(self.samples)} timings; reported times are scaled "
                f"to {REF_NOMINAL_S * 1e3:g} ms, raw ones in brackets")


def fail_class(name: str) -> str:
    return name if name in FAIL_CLASSES else "other"


# ---------------------------------------------------------------------------
# statistics

def nearest_rank(sorted_vals, pct):
    """(value at the percentile, number of values beyond it)."""
    n = len(sorted_vals)
    k = max(1, math.ceil(pct / 100.0 * n))
    return sorted_vals[k - 1], n - k


def block_rate(times) -> float:
    """Median over BLOCKS consecutive equal-count blocks of ops / second."""
    n = len(times)
    b = min(BLOCKS, n)
    rates = []
    for j in range(b):
        chunk = times[j * n // b:(j + 1) * n // b]
        rates.append(len(chunk) / sum(chunk))
    return statistics.median(rates)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(ctx, outcomes) -> dict:
    """Seed-exact result quantities of a list of settled outcomes."""
    n = len(outcomes)
    ok = [o.value for o in outcomes if o.error is None]
    out = {"fail_frac": (n - len(ok)) / n if n else 0.0}
    if ctx.wl.kind == "arc":
        arcs = [(length, bound) for _, length, bound in ok]
        out["covered_frac"] = 0.0
    else:
        arcs = [(a.length, a.bound) for a in ctx.curve_arcs]
        out["covered_frac"] = (sum(d is not None for d in ok) / len(ok)
                               if ok else 0.0)
    out["length_mean"] = (statistics.fmean(a for a, _ in arcs)
                          if arcs else 0.0)
    out["length_ratio_max"] = max((a / b for a, b in arcs), default=0.0)
    return out


# ---------------------------------------------------------------------------
# records

def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_witness(ctx, seed, trace, op, index, x, err=None, message=None,
                  problems=()):
    from workloads import encode_input

    OUT.mkdir(exist_ok=True)
    tag = "curve" if op == "curve-arc" else f"t{trace}"
    path = OUT / f"witness-{ctx.wl.name}-s{seed}-{tag}-{index}.json"
    rel = path.relative_to(ROOT)
    data = {"workload": ctx.wl.name, "seed": seed, "trace": trace,
            "op": op, "index": index,
            "error": err, "message": message,
            "violations": list(problems),
            "input": encode_input(x),
            "replay": f"python3 perfbench/run.py --replay {rel}"}
    path.write_text(json.dumps(data, indent=1))
    return rel


def emit(report, result, name, payload, code):
    env = environment()
    report.append("  environment: " + ", ".join(f"{k} {v}"
                                                for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    payload = dict(payload, environment=env, report=report, result=result)
    (OUT / name).write_text(json.dumps(payload, indent=1))
    for line in report:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


def metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ---------------------------------------------------------------------------
# runs

def settle(ctx, seed, trace, o, x, report) -> int:
    """Check one output, write a witness for a failure or a violation, and
    keep only the compact summary of the value.  Returns 1 when a check
    was violated."""
    from workloads import check, summary

    if o.error is not None:
        rel = write_witness(ctx, seed, trace, ctx.wl.kind, o.index, x,
                            err=o.error, message=o.message)
        report.append(f"  failed op {o.index}: "
                      f"{o.message.splitlines()[0][:120]}  [replay: {rel}]")
        return 0
    problems = check(ctx, o.index, x, o.value)
    o.value = summary(ctx, o.value)
    if not problems:
        return 0
    rel = write_witness(ctx, seed, trace, ctx.wl.kind, o.index, x,
                        problems=problems)
    report.append(f"  WRONG op {o.index}: {'; '.join(problems)}  [{rel}]")
    return 1


def curve_report(ctx, seed, report):
    for k, c, err, msg in ctx.curve_failures:
        rel = write_witness(ctx, seed, 0, "curve-arc", k, c, err=err,
                            message=msg)
        report.append(f"  curve arc {k} failed: {err}  [replay: {rel}]")
    tried = len(ctx.curve_arcs) + len(ctx.curve_failures)
    report.append(f"  curve: {len(ctx.curve)} passages from "
                  f"{len(ctx.curve_arcs)} arcs ({len(ctx.curve_failures)} "
                  f"of {tried} failed)")


def timed_run(wl, seed, seconds):
    from workloads import input_list, operation, set_up, summary

    report = [f"geodense benchmark  workload {wl.name}  seed {seed}  "
              f"trace 0  seconds {seconds:g}  ({wl.surface}, eps {wl.eps}, "
              f"xi {wl.xi})"]
    host = HostSpeed()
    reps = SETUP_REPS[wl.kind]
    setups = []

    def timed_set_up():
        gc.collect()   # garbage of earlier operations is theirs to pay for
        host.sample()
        t0 = time.perf_counter()
        ctx = set_up(wl, seed)
        setups.append(time.perf_counter() - t0)
        return ctx

    # set-ups are spread over the run so their median sees the same
    # machine as the operations do
    ctx = timed_set_up()
    setup_scaled = [host.scale(setups[0])]
    fn = operation(ctx)
    xs = input_list(ctx, seed, seconds)
    raw_times, scaled = [], []
    start = time.perf_counter()

    def timed_op(i):
        now = time.perf_counter() - start
        if len(setups) < reps and now >= len(setups) * seconds / reps:
            timed_set_up()
            setup_scaled.append(host.scale(setups[-1]))
        host.sample()
        o = attempt(fn, ctx, i, xs[i])
        raw_times.append(o.seconds)
        scaled.append(host.scale(o.seconds))
        return o

    # The first pass over the list is always completed, and attempted and
    # failed count its operations, so they depend on the seed only.  Later
    # passes repeat the list until the time is up; they add timings and
    # must give the first pass's answers again.
    first: list[Outcome] = []
    bad = 0
    for i, x in enumerate(xs):
        if time.perf_counter() - start >= FIRST_PASS_LIMIT_S:
            report.append(f"  first pass stopped after {i} of {len(xs)} "
                          f"inputs at {FIRST_PASS_LIMIT_S:g} s")
            break
        first.append(timed_op(i))
        bad += settle(ctx, seed, 0, first[-1], x, report)
    repeat = [i for i, o in enumerate(first) if o.error != "OverTimeLimit"]
    passes = 1
    while repeat and time.perf_counter() - start < seconds:
        passes += 1
        for i in repeat:
            if time.perf_counter() - start >= seconds:
                break
            o, was = timed_op(i), first[i]
            if o.error is None:
                o.value = summary(ctx, o.value)
            if o.error != "OverTimeLimit" and \
                    (o.error, o.value) != (was.error, was.value):
                bad += 1
                report.append(f"  WRONG op {i}: pass {passes} answered "
                              f"{o.error or o.value!r}, pass 1 "
                              f"{was.error or was.value!r}")
    elapsed = time.perf_counter() - start
    if wl.kind == "point":
        curve_report(ctx, seed, report)

    def timings(times):
        srt = sorted(times)
        tail, beyond = nearest_rank(srt, wl.tail_pct)
        return srt, beyond, {"ops_per_s": block_rate(times),
                             "op_p50_ms": statistics.median(srt) * 1e3,
                             "op_tail_ms": tail * 1e3}

    raw_srt, _, raw = timings(raw_times)
    raw["setup_s"] = statistics.median(setups)
    srt, beyond, values = timings(scaled)
    values["setup_s"] = statistics.median(setup_scaled)
    n = len(first)
    failed = sum(o.error is not None for o in first)
    q = quality(ctx, first)
    op = "arc" if wl.kind == "arc" else "point"
    m = len(scaled)
    rows = [
        ("setup_s", "setup_s", "s", f"median of {len(setups)} set-ups"),
        (f"{op}s_per_s", "ops_per_s", "1/s",
         f"N={m}, median of {min(BLOCKS, m)} blocks"),
        (f"{op}_p50_ms", "op_p50_ms", "ms", f"N={m}"),
        (f"{op}_tail_ms", "op_tail_ms", "ms",
         f"p{wl.tail_pct:g}, {beyond} beyond, N={m}"),
    ]
    report.append(host.describe())
    for label, key, unit, note in rows:
        report.append(f"  {label:<18} {values[key]:>14.6g} {unit:<7} "
                      f"[{raw[key]:.6g}]  {note}; JSON {key}")
    rows = [("fail_frac", q["fail_frac"], "ratio", f"{failed} of N={n}")]
    if wl.kind == "arc":
        done = n - failed
        rows += [("length_mean", q["length_mean"], "length", f"N={done}"),
                 ("length_ratio_max", q["length_ratio_max"], "ratio",
                  f"N={done}")]
    else:
        rows += [("covered_frac", q["covered_frac"], "ratio",
                  f"N={n - failed}"),
                 ("curve length_mean", q["length_mean"], "length",
                  f"N={len(ctx.curve_arcs)} curve arcs")]
    rows.append(("peak_rss_mb", peak_rss_mb(), "MB",
                 "ru_maxrss; reported, not in JSON"))
    for name, v, unit, note in rows:
        report.append(f"  {name:<18} {v:>14.6g} {unit:<7} {note}")
    report.append("  latency ms: " + "  ".join(
        f"p{p:g} {nearest_rank(srt, p)[0] * 1e3:.4g}"
        f" [{nearest_rank(raw_srt, p)[0] * 1e3:.4g}]"
        for p in (50, 75, 90, 95, 99, 99.5, 99.9, 100)))
    report.append(f"  measured {elapsed:.2f} s wall, "
                  f"{sum(raw_srt):.2f} s in {m} operations on {n} distinct "
                  f"inputs, {passes} passes; output checks "
                  f"{'passed' if not bad else f'FAILED on {bad} ops'}")
    result = {"correct": bad == 0, "attempted": n, "failed": failed,
              "metrics": metric_block(values, END_TO_END)}
    emit(report, result, f"{wl.name}-s{seed}-t0.json",
         {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": 0,
          "raw": raw}, 0 if bad == 0 else 1)


def traced_run(wl, seed, seconds):
    from workloads import input_list, operation, set_up

    tr = Tracer()
    ctx = set_up(wl, seed, tr)
    xs = input_list(ctx, seed, seconds, share=0.5)
    n = len(xs)
    fn = operation(ctx)

    report = [f"geodense benchmark  workload {wl.name}  seed {seed}  "
              f"trace 1  N={n} fixed inputs  ({wl.surface}, eps {wl.eps}, "
              f"xi {wl.xi})"]
    if wl.kind == "point":
        curve_report(ctx, seed, report)
    bad = 0
    host = HostSpeed()
    plain = []
    cost_plain = 0.0
    for i, x in enumerate(xs):
        host.sample()
        plain.append(attempt(fn, ctx, i, x))
        cost_plain += host.scale(plain[-1].seconds)
    for o in plain:
        bad += settle(ctx, seed, 1, o, xs[o.index], [])

    dist_evals = 0
    passages = len(ctx.curve) if ctx.curve is not None else 0
    traced = []
    cost_traced = 0.0
    with instrument(tr):
        for i, x in enumerate(xs):
            host.sample()
            tr.op = i
            tiles = tr.counts["orbit.ball.tiles"]
            traced.append(attempt(fn, ctx, i, x, tr))
            cost_traced += host.scale(traced[-1].seconds)
            dist_evals += (tr.counts["orbit.ball.tiles"] - tiles) * passages
    tr.op = None
    for o in traced:
        bad += settle(ctx, seed, 1, o, xs[o.index], report)
    for a, b in zip(plain, traced):
        if "OverTimeLimit" in (a.error, b.error):
            continue
        if a.error != b.error or a.value != b.value:
            bad += 1
            report.append(f"  WRONG op {a.index}: untraced and traced runs "
                          "disagree")

    c, sec = tr.counts, tr.seconds
    chords = len(ctx.g0.chords)
    scan_steps = c["halfplane.lines_cross.densify"] / chords
    steps = c["tracing.trace_geodesic.steps"]
    values = {
        "densify.rescan_ratio": scan_steps / steps if steps else 0.0,
        "densify.scan_steps": scan_steps,
        "densify.hunt_chunks": c["densify.hunt_chunks"],
        "densify.classify_and_extend.s": sec["densify.classify_and_extend"],
        "densify.replace_arc.s": sec["densify.replace_arc"],
        "tracing.trace_geodesic.s": sec["tracing.trace_geodesic"],
        "halfplane.dist_to_point.orbit": dist_evals,
        "surface.normalize.s": sec["surface.normalize"],
        "orbit.ball.s": sec["orbit.ball"],
        "orbit.tile_yield": (c["orbit.ball.tiles"]
                             / c["orbit.dist_to_domain.calls"]
                             if c["orbit.dist_to_domain.calls"] else 0.0),
        "orbit.dist_to_closed_geodesic.s":
            sec["orbit.dist_to_closed_geodesic"],
        "decomp.decompose.s": sec["decomp.decompose"],
        "trace.overhead_frac": cost_traced / cost_plain - 1.0,
    }
    for case in ("A", "BA", "BB"):
        values[f"densify.case_{case}"] = sum(
            1 for o in traced
            if o.error is None and wl.kind == "arc" and o.value[0] == case)
    for cls in FAIL_CLASSES:
        values[f"densify.fail.{cls}"] = sum(
            1 for o in traced if o.error is not None and wl.kind == "arc"
            and fail_class(o.error) == cls)
    values.update(quality(ctx, traced))
    for name in PER_LAYER:
        values.setdefault(name, c[name])

    for name, unit in PER_LAYER.items():
        report.append(f"  {name:<42} {values[name]:>14.6g} {unit}")
    report.append(host.describe())
    report.append(f"  untraced {cost_plain:.3f} s, traced {cost_traced:.3f} s "
                  f"in operations over N={n}, scaled; "
                  f"halfplane.dist_to_point.orbit is computed as tiles x "
                  f"{passages} passages; output checks "
                  f"{'passed' if not bad else f'FAILED on {bad} ops'}")
    failed = sum(o.error is not None for o in traced)
    result = {"correct": bad == 0, "attempted": n, "failed": failed,
              "metrics": metric_block(values, PER_LAYER)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-s{seed}-spans.json").write_text(json.dumps(
        {"fields": SPAN_FIELDS, "spans": tr.spans, "counts": dict(c)}))
    emit(report, result, f"{wl.name}-s{seed}-t1.json",
         {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": 1,
          "inputs": n}, 0 if bad == 0 else 1)


def replay(path: str):
    """Rerun one recorded failure or wrong answer; exit 0 if it recurs."""
    from workloads import (WORKLOADS, certify_point, check, decode_input,
                           process_arc, set_up)

    w = json.loads(Path(path).read_text())
    wl = WORKLOADS[w["workload"]]
    ctx = set_up(wl, w["seed"])
    x = decode_input(w["input"])
    fn = certify_point if w["op"] == "point" else process_arc
    print(f"replaying {w['workload']} seed {w['seed']} op {w['op']} "
          f"#{w['index']}: recorded {w['error'] or w['violations']}")
    t0 = time.perf_counter()
    got = None
    try:
        value = fn(ctx, x)
    except Exception as exc:   # report whatever the package raises
        got = type(exc).__name__
        traceback.print_exc(file=sys.stdout)
    dt = time.perf_counter() - t0
    print(f"took {dt:.3f} s")
    if w["error"] == "OverTimeLimit":
        sys.exit(0 if dt > OP_LIMIT_S else 1)
    if w["error"] is not None:
        sys.exit(0 if got == w["error"] else 1)
    problems = [] if got else check(ctx, w["index"], x, value)
    print("violations:", problems)
    sys.exit(0 if problems else 1)


def main():
    import_package()
    from workloads import WORKLOADS, install_step_budget

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", metavar="WITNESS")
    args = ap.parse_args()
    arm_time_limit()
    install_step_budget()
    if args.replay:
        replay(args.replay)
    if args.workload is None:
        ap.error("--workload is required")
    run = traced_run if args.trace else timed_run
    run(WORKLOADS[args.workload], args.seed, args.seconds)


if __name__ == "__main__":
    main()
