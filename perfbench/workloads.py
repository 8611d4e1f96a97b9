"""The benchmark's workloads: seeded inputs, the timed operation and the
checks on its output.

An operation is what a user's run is made of today:

* arc workloads process one arc, ``classify_and_extend`` then
  ``replace_arc``;
* the point workload certifies one point's distance to a closed curve
  with ``orbit.dist_to_closed_geodesic``.

Inputs follow the sampling rules of the package's tests and are only
rejected while sampling.  An arc or point whose processing fails is kept
and counted; it is never replaced by another one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from geodense import formulas
from geodense.decomp import decompose
from geodense.densify import (
    DensityParams,
    base_geodesic,
    classify_and_extend,
    replace_arc,
)
from geodense.errors import RadiusTooSmall
from geodense.halfplane import GeodesicLine, GeodesicSegment
from geodense.orbit import ball, dist_to_closed_geodesic
from geodense.surface import load_surface
from geodense.tracing import trace_geodesic

from tracer import NULL

# the certified curve of the point workload: passages of processed arcs,
# the size a connected curve reaches at eps 0.2 on the torus
CURVE_PASSAGES = 10_000
# every ORACLE_EVERY-th point is recomputed by brute force
ORACLE_EVERY = 10
# An arc whose walk takes more trace steps than this fails with
# StepBudgetExceeded.  Past about 10^4 steps an arc's time grows faster
# than its steps (a 15k-step sphere-fine arc takes 4 s, one of 271k steps
# took 86 s); counting steps instead of seconds stops the same arcs on
# every host.  The longest of 8400 sphere-fine arcs took 15k steps, dives
# take about 4.6k and thick torus arcs under 2.5k.
STEP_BUDGET = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    surface: str
    eps: float
    xi: float
    kind: str            # "arc" or "point"
    sampler: str         # "thick", "dives" or "points"
    tail_pct: float      # percentile reported as op_tail_ms
    list_rate: float     # distinct inputs per run-second (see input_list)
    why: str


# tail_pct is the highest of p75/p90/p95/p99 that leaves at least ten
# operations beyond it in a 25-second run of the parent and repeats from
# seed to seed within the metric's bound: the rare very long hunts of the
# arc workloads make p99 swing by half, sphere-fine's p90 and p95 move by
# a fifth with the long hunts a seed's 1250 arcs happen to hold, and on
# torus-certify p95 falls where points start to need three tiles.  It
# stays fixed so that a faster change is read at the same percentile.
# list_rate sizes the fixed input list of a --trace 0 run so that one pass
# over it takes about half the run; a --trace 1 run takes the first half
# of that list.
WORKLOADS = {w.name: w for w in (
    Workload("torus-thick", "once-punctured-torus", 0.2, 0.5, "arc", "thick",
             95.0, 150.0,
             "thick-part arcs that stop on the base geodesic after short "
             "hunts: tracing and the event scan do the work, no reroutes"),
    Workload("sphere-fine", "thrice-punctured-sphere", 0.05, 0.2, "arc",
             "thick", 75.0, 50.0,
             "class-A cap near 47 and three deep horocycles: long hunts "
             "rescan their ray after every chunk, the quadratic tail"),
    Workload("torus-dives", "once-punctured-torus", 0.5, 0.5, "arc", "dives",
             75.0, 1.4,
             "near-vertical arcs that dive into the cusp: every arc "
             "reroutes, the only workload running normalize"),
    Workload("torus-certify", "once-punctured-torus", 0.2, 0.5, "point",
             "points", 90.0, 12.0,
             "points over the truncated polygon certified against a "
             "10^4-passage curve: orbit ball and distance scan, no densify"),
)}

_SAMPLE_BOX = {   # (y_lo, y_hi, x_hi) of the test files' arc sampler
    "once-punctured-torus": (0.35, 2.5, 3.0),
    "thrice-punctured-sphere": (0.35, 1.2, 1.0),
}


def stream(seed: int, k: int) -> np.random.Generator:
    """Independent random stream k of a benchmark seed."""
    return np.random.default_rng([seed, k])


# ---------------------------------------------------------------------------
# inputs

def thick_arcs(model, rng, xi):
    """Arcs of length at most 0.45 in the thick part, by the rule of
    tests/test_densify.py::_sample_arcs."""
    y_lo, y_hi, x_hi = _SAMPLE_BOX[model.spec.name]
    while True:
        z = complex(rng.uniform(-x_hi, x_hi),
                    math.exp(rng.uniform(math.log(y_lo), math.log(y_hi))))
        if not model.inside(z, tol=0.0) \
                or model.min_level(z) < xi * math.exp(0.5):
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        u = complex(math.cos(phi), math.sin(phi))
        try:
            tr = trace_geodesic(model, z, u, 0.6)
        except Exception:   # the test's rule: any failing candidate is skipped
            continue
        seg = tr.steps[0].segment
        if seg.length < 0.1:
            continue
        yield seg.subsegment(seg.s0, seg.s0 + min(0.45, seg.length))


def dive_arcs(model, rng):
    """Arcs of length 0.3 tilted at most 8e-5 from vertical, by the rule
    of test_random_dives_reroute.  That test also skips arcs that stop
    on the base geodesic at both ends; here every sampled arc is kept."""
    while True:
        z = complex(rng.uniform(-2.9, 2.9), rng.uniform(1.2, 2.2))
        if not model.inside(z, tol=0.0):
            continue
        phi = math.pi / 2 + rng.uniform(-8e-5, 8e-5)
        u = complex(math.cos(phi), math.sin(phi))
        try:
            tr = trace_geodesic(model, z, u, 0.5)
        except Exception:   # the test's rule: any failing candidate is skipped
            continue
        seg = tr.steps[0].segment
        if seg.length < 0.3:
            continue
        yield seg.subsegment(seg.s0, seg.s0 + 0.3)


def truncated_points(model, rng, xi):
    """Points uniform in hyperbolic area over the polygon below the
    length-xi horocycle of the cusp at infinity."""
    cusp = model.cusps[0]
    y_lo, _, x_hi = _SAMPLE_BOX[model.spec.name]
    y_hi = cusp.width / xi
    while True:
        y = 1.0 / rng.uniform(1.0 / y_hi, 1.0 / y_lo)
        z = complex(rng.uniform(-x_hi, x_hi), y)
        if model.inside(z, tol=0.0) and model.in_truncation(z, xi, tol=0.0):
            yield z


def inputs(ctx, seed: int):
    """The seeded input stream of a workload."""
    wl = ctx.wl
    rng = stream(seed, 0)
    if wl.sampler == "thick":
        return thick_arcs(ctx.model, rng, wl.xi)
    if wl.sampler == "dives":
        return dive_arcs(ctx.model, rng)
    return truncated_points(ctx.model, rng, wl.xi)


def input_list(ctx, seed: int, seconds: float, share: float = 1.0) -> list:
    """The first share * list_rate * seconds inputs of the stream: what a
    run of that length operates on, whatever the speed of the host or of
    the code, so that a seed fixes which operations fail."""
    n = max(1, round(share * ctx.wl.list_rate * seconds))
    return list(itertools.islice(inputs(ctx, seed), n))


# ---------------------------------------------------------------------------
# set-up

@dataclass
class Context:
    wl: Workload
    model: object
    params: DensityParams
    K: object
    g0: object
    s_deep: float
    curve: list | None = None
    curve_arcs: list | None = None       # ProcessedArc of the curve
    curve_failures: list | None = None   # (index, arc, error, message)


def set_up(wl: Workload, seed: int, tr=NULL) -> Context:
    with tr.span("surface.load_surface"):
        model = load_surface(wl.surface)
    with tr.span("decomp.decompose"):
        K = decompose(model).constants
    with tr.span("densify.base_geodesic"):
        g0 = base_geodesic(model)
        g0.chords   # cached on first use; every hunt reads it
    params = DensityParams(wl.eps, wl.xi)
    ctx = Context(wl, model, params, K, g0,
                  formulas.deep_horocycle_length(wl.eps, wl.xi, K.theta0))
    if wl.kind == "point":
        with tr.span("setup.curve"):
            build_curve(ctx, seed)
    return ctx


def build_curve(ctx: Context, seed: int) -> None:
    """The certified curve: the first CURVE_PASSAGES passages of
    processed thick arcs, taken in stream order."""
    ctx.curve, ctx.curve_arcs, ctx.curve_failures = [], [], []
    arcs = thick_arcs(ctx.model, stream(seed, 1), ctx.wl.xi)
    for k, c in enumerate(arcs):
        if len(ctx.curve) >= CURVE_PASSAGES:
            break
        try:
            pa = process_arc(ctx, c)
        except Exception as exc:   # a failed curve arc is recorded, not fatal
            ctx.curve_failures.append((k, c, type(exc).__name__, str(exc)))
            continue
        ctx.curve_arcs.append(pa)
        ctx.curve.extend(pa.trace.segments())
    # One arc that climbs the cusp can bring thousands of passages; the
    # cut keeps the work per point the same from seed to seed.  The copies
    # are allocated one after another: the passages come out of the arcs
    # scattered over the heap, and how scattered moved the cost per point
    # by 8 % between seeds.
    ctx.curve = [GeodesicSegment(replace(s.line), s.s0, s.s1)
                 for s in ctx.curve[:CURVE_PASSAGES]]


# ---------------------------------------------------------------------------
# operations

class StepBudgetExceeded(Exception):
    """An arc's walk ran past STEP_BUDGET trace steps."""


_steps_taken = [0]


def install_step_budget():
    """Count the trace steps of densify's walks and stop an operation that
    takes more than STEP_BUDGET.  The count is checked after each call,
    which costs one wrapper call per hunt chunk or reroute leg."""
    import geodense.densify as densify

    walk = densify.trace_geodesic

    def trace_geodesic(*args, **kwargs):
        out = walk(*args, **kwargs)
        _steps_taken[0] += len(out.steps)
        if _steps_taken[0] > STEP_BUDGET:
            raise StepBudgetExceeded(
                f"walk ran past {STEP_BUDGET} trace steps")
        return out

    densify.trace_geodesic = trace_geodesic


def process_arc(ctx: Context, c: GeodesicSegment, tr=NULL):
    _steps_taken[0] = 0
    with tr.span("densify.classify_and_extend"):
        outs = classify_and_extend(c, ctx.params, ctx.K, ctx.model,
                                   gamma0=ctx.g0)
    with tr.span("densify.replace_arc"):
        return replace_arc(c, outs, ctx.params, ctx.K, ctx.model,
                           gamma0=ctx.g0)


def certify_point(ctx: Context, z: complex, tr=NULL):
    """Distance to the curve, or None when the point is not covered
    (RadiusTooSmall is the answer "farther than eps", not a failure)."""
    try:
        with tr.span("orbit.dist_to_closed_geodesic"):
            return dist_to_closed_geodesic(ctx.model, z, ctx.curve,
                                           ctx.params.eps)
    except RadiusTooSmall:
        return None


def operation(ctx: Context):
    return process_arc if ctx.wl.kind == "arc" else certify_point


# ---------------------------------------------------------------------------
# output checks: a violation is a wrong answer, not a failed operation

def check_arc(ctx: Context, pa) -> list[str]:
    bad = []
    if not pa.length <= pa.bound + 1e-6:
        bad.append(f"length {pa.length!r} exceeds bound {pa.bound!r}")
    for side, rec in (("back", pa.end_back), ("fwd", pa.end_fwd)):
        if rec.kind != "base" or not rec.angle >= ctx.K.theta0 - 1e-9:
            bad.append(f"{side} end is a {rec.kind} crossing at angle "
                       f"{rec.angle!r} (theta0 {ctx.K.theta0!r})")
    if not abs(pa.trace.length - pa.length) <= 1e-9 * max(1.0, pa.length):
        bad.append(f"trace length {pa.trace.length!r} disagrees with "
                   f"length {pa.length!r}")
    if pa.case != "A" and not pa.displacement <= 4.2 * ctx.s_deep:
        bad.append(f"reroute displacement {pa.displacement!r} exceeds "
                   f"4.2 s_deep = {4.2 * ctx.s_deep!r}")
    return bad


def oracle_distance(ctx: Context, z: complex) -> float:
    """Minimum over every ball tile and every passage, no early exit."""
    best = math.inf
    for _, g in ball(ctx.model, z, ctx.params.eps):
        w = g.inverse().apply(z)
        for seg in ctx.curve:
            best = min(best, seg.dist_to_point(w))
    return best


def check_point(ctx: Context, z: complex, d: float | None) -> list[str]:
    best = oracle_distance(ctx, z)
    radius = ctx.params.eps
    if d is None:
        if best <= radius:
            return [f"reported uncovered but the curve passes at {best!r}"]
        return []
    if best > radius:
        return [f"reported covered at {d!r} but the minimum is {best!r}"]
    if abs(d - best) > 1e-12:
        return [f"distance {d!r} disagrees with brute force {best!r}"]
    return []


def check(ctx: Context, index: int, x, value) -> list[str]:
    if ctx.wl.kind == "arc":
        return check_arc(ctx, value)
    if index % ORACLE_EVERY == 0:
        return check_point(ctx, x, value)
    return []


def summary(ctx: Context, value):
    """The part of an output the results are computed from; two runs of
    one seed agree on it exactly."""
    if ctx.wl.kind == "arc":
        return (value.case, value.length, value.bound)
    return value


# ---------------------------------------------------------------------------
# witnesses: enough to rebuild the exact input

def encode_input(x) -> dict:
    if isinstance(x, complex):
        return {"point": [x.real, x.imag]}
    u = x.line.tangent_at(x.s0)
    return {"start": [x.start.real, x.start.imag],
            "end": [x.end.real, x.end.imag],
            "direction": [u.real, u.imag],
            "length": x.length,
            "line": {f: getattr(x.line, f) for f in
                     ("is_vertical", "foot", "up", "center", "radius",
                      "pos_to_neg")},
            "s0": x.s0, "s1": x.s1}


def decode_input(data: dict):
    if "point" in data:
        return complex(*data["point"])
    return GeodesicSegment(GeodesicLine(**data["line"]), data["s0"],
                           data["s1"])
