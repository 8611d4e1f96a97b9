"""Geodesic tracing through the fundamental polygon.

The walker keeps only local state: a point of the polygon, a unit
direction, and the length walked so far.  Each step finds where the ray
first leaves the polygon, across a side line it crosses from inside to
outside, and jumps back inside with that side's pairing; a side line it
crosses inward, the one it came in through among them, is never its
exit.  Working locally keeps every step well conditioned; the
global deck transformation is recovered from the crossing record when
needed, never from developed coordinates.

High in a cusp, above its unit horocycle, the polygon is the strip
between the cusp's two walls, and the walk crosses one wall per strip
width.  There a step becomes a run: one step for all of those wall
crossings but the last.  A run's segment is the developed arc in the
frame of its first passage, its count the number of crossings, and it
lands in the polygon with one power of the cusp parabolic.  A plain
step is the case count 1.  ``Trace.sides`` and ``Trace.segments()``
list runs crossing by crossing and passage by passage, in polygon
coordinates, as a walk without runs gives them.

A closed geodesic is walked on integer axes instead (close_exact): each
chord's line is rounded once from an exact conjugate of its deck element.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import NotHyperbolic, TraceError
from .halfplane import (
    INF,
    GeodesicLine,
    GeodesicSegment,
    IntMatrix,
    axis,
    axis_root,
    dist,
    intersect_lines,
    lines_cross,
    mat_inv,
    mat_mul,
    same_line,
)
from .surface import Cusp, Side, SurfaceModel
from .tolerances import TOL_GEO, TOL_LOOSE
from .words import cyclic_reduce

# minimal forward progress accepted when hunting the next side crossing
_AHEAD = 1e-11
_BEHIND = 1e-5
# a trace taking more steps than this, a run counting as one, fails
TRACE_STEPS = 400000


@dataclass(slots=True)
class CuspRun:
    """Where a run lives: its cusp, and its developed arc in the cusp
    chart, starting in the strip as the run's first passage does.

    Wall crossings and passages are computed from the chart arc: chart
    coordinates stay well conditioned where polygon coordinates near a
    finite cusp vertex lose digits.
    """

    cusp: Cusp
    chart: GeodesicSegment


def _strip_walls(cusp: Cusp, side: int) -> tuple[float, float]:
    """Chart x of the wall a run enters each passage through, and of the
    wall it leaves through (side)."""
    lo, hi = cusp.strip_lo, cusp.strip_lo + cusp.width
    return (lo, hi) if side == cusp.walls[1] else (hi, lo)


def _wall_crossing(line: GeodesicLine, cusp: Cusp, side: int, i: int):
    """Where a chart line crosses the wall of crossing i (from 1) of a
    run through side, in the frame of its first passage, if it does."""
    return intersect_lines(line, GeodesicLine.vertical(
        _strip_walls(cusp, side)[1] - cusp.jump(side) * (i - 1) * cusp.width))


def _shifted(line: GeodesicLine, t: float) -> GeodesicLine:
    """A half-circle line moved by t along the real axis."""
    return GeodesicLine.from_endpoints(line.endpoint_back + t,
                                       line.endpoint_fwd + t)


@dataclass(slots=True)
class TraceStep:
    """One polygon passage, or a run of passages high in a cusp.

    A plain step (count 1) is a segment of the traced geodesic in
    polygon coordinates and the side crossed at its far end (None when
    the trace ends inside the polygon).  A run crosses side, a wall of
    run.cusp, count times; its segment is the developed arc in the
    polygon frame of its first passage, ending on the last of those
    crossings.
    """

    segment: GeodesicSegment
    side: int | None
    count: int = 1
    run: CuspRun | None = None

    def wall(self, i: int) -> complex:
        """Chart point of a run's wall crossing i, from 1 to count, in
        the chart frame of its first passage."""
        z = _wall_crossing(self.run.chart.line, self.run.cusp, self.side, i)
        if z is None:
            raise TraceError(f"run misses its wall crossing {i}")
        return z

    def in_frame(self, j: int, a: complex, b: complex) -> GeodesicSegment:
        """A run's arc between chart points a and b, both given in the
        chart frame of passage j, in the polygon frame of passage j."""
        c = self.run.cusp
        line = c.chart_inv.apply_line(_shifted(
            self.run.chart.line, c.jump(self.side) * j * c.width))
        return GeodesicSegment(line, line.param_of(c.chart_inv.apply(a)),
                               line.param_of(c.chart_inv.apply(b)))

    def passage(self, j: int) -> GeodesicSegment:
        """Passage j of the step in polygon coordinates."""
        if self.count == 1:
            return self.segment
        return self._between(j, self.wall(j) if j else None,
                             self.wall(j + 1))

    def passages(self) -> list[GeodesicSegment]:
        """Every passage of the step, as passage gives them, with each
        wall crossing of a run computed once."""
        if self.count == 1:
            return [self.segment]
        walls = [None] + [self.wall(i) for i in range(1, self.count + 1)]
        return [self._between(j, walls[j], walls[j + 1])
                for j in range(self.count)]

    def _between(self, j: int, a: complex | None,
                 b: complex) -> GeodesicSegment:
        """A run's passage j from its wall crossings a = wall(j), unused
        for j = 0, and b = wall(j + 1)."""
        if j == 0:   # developed from the start of the chart arc
            ch, s0 = self.run.chart, self.segment.s0
            return self.segment.subsegment(
                s0, s0 + (ch.line.param_of(b) - ch.s0))
        x_in, x_out = _strip_walls(self.run.cusp, self.side)
        return self.in_frame(j, complex(x_in, a.imag), complex(x_out, b.imag))


@dataclass(slots=True)
class Trace:
    """A traced geodesic of finite length: its steps, in walking order,
    and the length they walk.  It starts where its first step's segment
    starts and ends where its last step's segment ends; when that step
    crosses a side, the geodesic goes on from across it."""

    steps: list[TraceStep]
    length: float

    @property
    def sides(self) -> list[int]:
        return [s.side for s in self.steps if s.side is not None
                for _ in range(s.count)]

    def segments(self) -> list[GeodesicSegment]:
        return [seg for s in self.steps for seg in s.passages()]


def _first_exit(model: SurfaceModel, line: GeodesicLine, s0: float):
    """First outward crossing of the forward ray with a polygon side, as
    (param, side index, point), or None when the ray stays inside.

    The polygon is the intersection of the half-planes left of its
    sides, so the ray leaves it only across a side line it crosses from
    inside to outside: its back end on the side's inner boundary arc,
    its forward end on the outer one (Side.outer).  Other sides are not
    tested, and a side line crossed inward is not reported even when the
    ray starts a tolerance outside it.  The ends come from the line's
    fields and each Side's lo, hi and outer; only a side the ray crosses
    has its line's orientation read.  The crossing's parameters on both
    lines are GeodesicLine.param_of's arithmetic.

    A crossing at the ray start itself counts only when the ray heads
    strictly out through that side; this is how passages exactly through
    a polygon vertex resolve, one wedge at a time.  The behind window
    covers starts sitting a membership tolerance outside a side, whose
    line crossing then falls slightly behind the ray start.
    """
    best = None
    probe = None
    # the ray's ends; param_of measures from p and q, signed by fwd_on
    vertical = line.is_vertical
    if vertical:
        fwd_on = line.up
        p = q = line.foot
        back, fwd = (p, INF) if fwd_on else (INF, p)
    else:
        fwd_on = line.pos_to_neg
        p, q = line.center + line.radius, line.center - line.radius
        back, fwd = (p, q) if fwd_on else (q, p)
    for side in model.sides:
        lo, hi, outer = side.lo, side.hi, side.outer
        if (lo < fwd < hi) != outer or (lo < back < hi) == outer:
            continue
        ln = side.line
        if not lines_cross(line, ln) or same_line(line, ln):
            continue
        pt = intersect_lines(line, ln)
        if pt is None:
            raise TraceError(
                f"side {side.index} crosses the traced line but has no "
                f"intersection point: side {ln}, line {line}")
        s = math.log(abs(pt - p))
        if not vertical:
            s -= math.log(abs(pt - q))
        if not fwd_on:
            s = -s
        if s <= s0 - _BEHIND:
            continue
        if ln.is_vertical:
            t = math.log(abs(pt - lo))
            if not ln.up:
                t = -t
        else:
            t = math.log(abs(pt - hi)) - math.log(abs(pt - lo))
            if not ln.pos_to_neg:
                t = -t
        if t < side.s_lo - TOL_GEO or t > side.s_hi + TOL_GEO:
            continue
        if s <= s0 + _AHEAD:
            if probe is None:
                probe = line.point_at(s0 + 1e-6)
            f_here = ln.signed_sinh_dist(line.point_at(s0))
            f_next = ln.signed_sinh_dist(probe)
            if f_next >= f_here - 1e-13:
                continue
            s = s0
            pt = line.point_at(s0)
        if best is None or s < best[0]:
            best = (s, side.index, pt)
    return best


def _ray(p: complex, u: complex) -> tuple[GeodesicLine, float]:
    """The line through p along the unit direction u, and p's parameter
    on it: GeodesicLine.from_point_direction and param_of, in plain
    floats."""
    x, y = p.real, p.imag
    if abs(u.real) <= TOL_GEO * abs(u):
        up = u.imag > 0
        s = math.log(abs(p - x))
        return GeodesicLine(True, x, up), s if up else -s
    c = x + y * (u.imag / u.real)
    r = abs(p - c)
    t = 1j * (p - c) / r
    fwd = t.real * u.real + t.imag * u.imag > 0
    s = math.log(abs(p - (c + r))) - math.log(abs(p - (c - r)))
    return GeodesicLine(False, 0.0, True, c, r, fwd), s if fwd else -s


def _land(side: Side, pt: complex, line: GeodesicLine,
          s: float) -> tuple[complex, complex]:
    """Where a ray crossing a side at pt, parameter s of its line, goes
    on, and its unit direction there: side.pairing applied to the point
    and to the ray's tangent, as Isometry.apply, apply_tangent and
    GeodesicLine.tangent_at give them, on the pairing's coefficients."""
    if line.is_vertical:
        t = 1j if line.up else -1j
    else:
        fwd = line.pos_to_neg
        phi = 2.0 * math.atan(math.exp(s if fwd else -s))
        t = 1j * cmath.exp(1j * phi)
        if not fwd:
            t = -t
    g = side.pairing
    den = g.c * pt + g.d
    v = t / (den * den)
    v = v / abs(v)
    return (g.a * pt + g.b) / den, v / abs(v)


def _cusp_run(c: Cusp, line: GeodesicLine, p: complex, u: complex,
              s_here: float, remaining: float):
    """The run from p, a point on a wall of cusp c, as (step, landing
    point, landing direction), or None where the plain step applies.

    Above a cusp's unit horocycle (chart height at least the width) the
    polygon is the strip between the cusp walls, and the ray is a
    half-circle along which x runs monotonically, so the walls it
    crosses before it sinks below that height or its length runs out
    are counted in closed form.  The run takes all of them but the last,
    which the plain step after it takes, so the walk leaves the strip by
    _first_exit as a walk without runs does.  The landing is the run's
    last crossing moved back by its count of widths in the chart, one
    power of the cusp parabolic, onto the entry wall.
    """
    zc = c.chart.apply(p)
    w = c.width
    if zc.imag < w:
        return None
    cl = GeodesicLine.from_point_direction(zc, c.chart.apply_tangent(p, u))
    if cl.is_vertical:
        return None
    right = not cl.pos_to_neg
    # the walls ahead are counted from the entry wall, where p sits
    t0 = (zc.real - c.strip_lo) / w
    if (t0 > 0.5) if right else (t0 < 0.5):
        return None

    def walls_before(x: float) -> int:
        if right:   # walls strip_lo + j * width, j = 1, 2, ...
            return math.ceil((x - c.strip_lo) / w) - 1
        return math.ceil((c.strip_lo - x) / w)   # strip_lo - j * width

    # x where the ray sinks below the unit horocycle, then where it ends
    drop = math.sqrt((cl.radius - w) * (cl.radius + w))
    n = walls_before(cl.center + drop if right else cl.center - drop)
    if n < 3:
        return None
    sc = cl.param_of(zc)
    # (600 past the start the ray is at its endpoint; exp overflows later)
    n = min(n, walls_before(cl.point_at(sc + min(remaining, 600.0)).real))
    if n < 3:   # a run of one crossing is the plain step
        return None
    side = c.walls[1] if right else c.walls[0]
    z = _wall_crossing(cl, c, side, n - 1)
    if z is None:
        return None
    ch = GeodesicSegment(cl, sc, cl.param_of(z))
    if not 0.0 < ch.length < remaining:
        return None
    land = complex(_strip_walls(c, side)[0], z.imag)
    step = TraceStep(GeodesicSegment(line, s_here, s_here + ch.length),
                     side, n - 1, CuspRun(c, ch))
    return (step, c.chart_inv.apply(land),
            c.chart_inv.apply_tangent(land, cl.tangent_at(ch.s1)))


def trace_geodesic(model: SurfaceModel, p: complex, u: complex,
                   length: float,
                   until: Callable[[TraceStep], bool] | None = None) -> Trace:
    """Walk the geodesic from p in direction u for the given length.

    Every step but the first becomes a run where it starts above a
    cusp's unit horocycle (see _cusp_run); TRACE_STEPS counts a run as
    one step.

    until, if given, is called with each step, runs included, as soon as
    the step is taken.  When it returns True the walk ends there: the
    trace holds the steps so far, and ends where the next step would
    start, with the length walked.
    """
    if length < 0.0:
        raise ValueError("trace length must be nonnegative")
    if not model.inside(p, tol=1e-6):
        raise TraceError(f"trace start {p} is not in the polygon")
    u = u / abs(u)
    steps: list[TraceStep] = []
    walked = 0.0
    stalled = 0
    # the cusp whose wall the last step crossed: a step above a unit
    # horocycle starts on a wall, since no other side climbs that high
    wall_of = None
    for _ in range(TRACE_STEPS):
        line, s_here = _ray(p, u)
        remaining = length - walked
        run = None if wall_of is None else \
            _cusp_run(wall_of, line, p, u, s_here, remaining)
        if run is not None:
            step, p, u = run
            stalled = 0
        else:
            exit_ = _first_exit(model, line, s_here)
            if exit_ is None or exit_[0] - s_here >= remaining:
                seg = GeodesicSegment(line, s_here, s_here + remaining)
                if not model.inside(seg.end, tol=1e-6):
                    raise TraceError(
                        f"trace ran out of the polygon near {seg.end}")
                steps.append(TraceStep(seg, None))
                if until is not None:
                    until(steps[-1])
                return Trace(steps, length)
            s_exit, side_idx, pt = exit_
            step = TraceStep(GeodesicSegment(line, s_here, s_exit), side_idx)
            if s_exit - s_here < 1e-9:
                stalled += 1
                if stalled > 60:
                    raise TraceError(
                        f"trace stalled at {pt} after {len(steps) + 1} steps")
            else:
                stalled = 0
            wall_of = model.wall_cusps.get(side_idx)
            p, u = _land(model.sides[side_idx], pt, line, s_exit)
        steps.append(step)
        walked += step.segment.length
        if not model.inside(p, tol=1e-6):
            raise TraceError(
                f"trace left the polygon at step {len(steps)}: {p}")
        if until is not None and until(step):
            return Trace(steps, walked)
    raise TraceError(f"trace exceeded {TRACE_STEPS} steps")


def reverse_trace(model: SurfaceModel, tr: Trace) -> Trace:
    """The same walk run backwards.

    Going back out of a passage crosses the partner of the side the
    forward walk came in through.  A run of k crossings turns into a
    run of k - 1 crossings of the partner wall, developed from its last
    passage, and a plain step for its first passage.
    """
    steps: list[TraceStep] = []
    for k in range(len(tr.steps) - 1, -1, -1):
        st = tr.steps[k]
        side = None
        if k > 0:
            s_prev = tr.steps[k - 1].side
            if s_prev is not None:
                side = model.sides[s_prev].partner
        seg = st.segment
        if st.count > 1:
            steps.append(_reversed_tail(model, st))
            seg = st.passage(0)
        steps.append(TraceStep(seg.reversed(), side))
    return Trace(steps, tr.length)


def _reversed_tail(model: SurfaceModel, st: TraceStep) -> TraceStep:
    """A run without its first passage, walked backwards: a run from
    its last passage's frame back to its first wall crossing."""
    partner = model.sides[st.side].partner
    n = st.count - 1
    if n == 1:
        return TraceStep(st.passage(1).reversed(), partner)
    c, ch = st.run.cusp, st.run.chart
    t = c.jump(st.side) * n * c.width
    a = st.wall(1) + t
    b = complex(_strip_walls(c, st.side)[1], st.wall(st.count).imag)
    line = _shifted(ch.line, t)
    chart = GeodesicSegment(line, line.param_of(a), line.param_of(b))
    seg = st.in_frame(n, a, b).reversed()
    return TraceStep(seg.subsegment(seg.s0, seg.s0 + chart.length),
                     partner, n, CuspRun(c, chart.reversed()))


def concat_traces(legs: list[Trace]) -> Trace:
    """Join walks whose ends abut into one walk.

    This is how a processed arc is put together from its pieces: the two
    extensions and the arc, or its replacement, between them.  Joints
    carry no side jump: each leg's first step must start where the last
    step of the leg before it ends, in the same polygon representative.
    Joining independently anchored pieces keeps the arc accurate;
    rewalking it end to end does not, because nearby geodesics separate
    exponentially.
    """
    if not legs:
        raise ValueError("nothing to join")
    steps: list[TraceStep] = []
    for k, leg in enumerate(legs):
        if k > 0:
            gap = dist(steps[-1].segment.end, leg.steps[0].segment.start)
            if gap > TOL_LOOSE:
                raise TraceError(f"trace joint {k} off by {gap:.3g}")
        steps.extend(leg.steps)
    return Trace(steps, sum(leg.length for leg in legs))


def tile_elements(model: SurfaceModel,
                  steps: list[TraceStep]) -> list[IntMatrix]:
    """Deck elements of the tiles a walk visits, one per step, as
    integer matrices.

    Entry k maps polygon coordinates of step k back to the frame of the
    walk's start, so the developed picture of the walk is out[k](segment
    of step k); out[0] is the identity and out[-1] the deck element of
    the whole walk.  A run's entry is the frame of its first passage.  A
    step without a side (the end of a walk, or a joint between abutting
    walks) adds no jump.
    """
    e = (1, 0, 0, 1)
    out = [e]
    for st in steps:
        if st.side is not None:
            e = mat_mul(e, _step_map(model, st))
        out.append(e)
    return out


def _step_map(model: SurfaceModel, st: TraceStep) -> IntMatrix:
    """A side step's deck map: its inverse pairing, or a run's shift."""
    if st.count == 1:
        return mat_inv(model.sides[st.side].matrix)
    cusp = model.wall_cusps[st.side]
    return cusp.shift_matrix(-cusp.jump(st.side) * st.count)


def _cut(model: SurfaceModel, line: GeodesicLine, i: int, k: int) -> float:
    """Parameter where chord k's line crosses side i, or TraceError."""
    side = model.sides[i]
    z = intersect_lines(line, side.line)
    if z is None or not side.segment.contains_param(side.line.param_of(z)):
        raise TraceError(f"chord {k} misses side {i}")
    return line.param_of(z)


def close_exact(model: SurfaceModel, m0: IntMatrix, z: complex) -> Trace:
    """The period of the closed geodesic on the axis of m0, an integer
    deck element, from the passage of z, a polygon point on that axis.

    Chord k lies on the axis of m_k = S^-1 m_k-1 S, S the step map of
    chord k - 1, and is the run _cusp_run takes from its entry side, or
    is cut by its entry and exit side lines, so no error carries along.
    The walk ends when its step maps multiply to +-m0 exactly, after
    one lap or several for a proper power.  A chord missing its sides
    or turning back, a walk past m0's length, or more than TRACE_STEPS
    chords (one stuck at a vertex) raise TraceError.
    """
    # every chord's matrix is a conjugate of m0, of the same trace
    root = axis_root(m0[0] + m0[3])
    line, length = axis(m0, root)
    s = line.param_of(z)
    back = _first_exit(model, line.reversed(), -s)
    if back is None:
        raise TraceError(f"the axis through {z} stays in the polygon")
    # the length walked counts from z: no run passes z's return
    entry, cusp, walked = back[1], None, -(back[0] + s)
    m, prod, steps = m0, (1, 0, 0, 1), []
    for k in range(TRACE_STEPS):
        s = _cut(model, line, entry, k)
        run = None if cusp is None else _cusp_run(
            cusp, line, line.point_at(s), line.tangent_at(s), s,
            length - walked)
        if run is not None:
            st = run[0]
        else:
            exit_ = _first_exit(model, line, s)
            if exit_ is None:
                raise TraceError(f"chord {k} stays in the polygon")
            s1 = _cut(model, line, exit_[1], k)
            if exit_[1] == entry or s1 < s - TOL_GEO:
                raise TraceError(f"chord {k} turns back")
            st = TraceStep(GeodesicSegment(line, s, s1), exit_[1])
        steps.append(st)
        walked += st.segment.length
        step = _step_map(model, st)
        prod = mat_mul(prod, step)
        if prod in (m0, tuple(-v for v in m0)):
            return Trace(steps, length)
        if walked > length + TOL_LOOSE * max(1.0, length):
            raise TraceError(f"walk passes length {length:.6g} unclosed")
        m = mat_mul(mat_mul(mat_inv(step), m), step)
        line = axis(m, root)[0]
        entry = model.sides[st.side].partner
        cusp = model.wall_cusps.get(st.side)
    raise TraceError(f"walk does not close in {TRACE_STEPS} steps")


@dataclass(eq=False)
class ClosedGeodesicRep:
    """A closed geodesic carried as its word and its period, closed by
    close_exact.  The length and the chords are read off the period, and
    the deck elements along it are its steps' tile_elements, the last of
    them the element of the whole period along the lift of its first
    passage."""

    word: str
    trace: Trace

    @property
    def length(self) -> float:
        return self.trace.length

    @cached_property
    def cum(self) -> list[float]:
        return [0.0, *itertools.accumulate(
            s.length for s in self.trace.segments())]

    @cached_property
    def chords(self) -> list[tuple[int, GeodesicSegment, float]]:
        """(index, passage, arc length from the period start) each."""
        return list(zip(itertools.count(), self.trace.segments(), self.cum))


def base_geodesic(model: SurfaceModel,
                  word: str | None = None) -> ClosedGeodesicRep:
    """The closed geodesic of a hyperbolic word (by default the catalog
    filling word), closed by close_exact from the conjugate of its
    matrix by the deck element that reduces a point of its axis into
    the polygon."""
    if word is None:
        word = model.spec.base_word
    try:
        w = model.word_matrix(cyclic_reduce(word))
        line, length = axis(w)
        # prefer a start that reduces to the polygon interior; a geodesic
        # running along the boundary never has one, and then any reduced
        # point works since the walker resolves on-boundary starts
        z, g = model.normalize(line.point_at(0.0))
        for k in range(1, 25):
            if all(v > 1e-7 for v in model.side_signed_dists(z)):
                break
            z, g = model.normalize(line.point_at(k * 0.381966 * length))
        return ClosedGeodesicRep(
            word, close_exact(model, mat_mul(mat_mul(g, w), mat_inv(g)), z))
    except (TraceError, NotHyperbolic) as exc:
        raise type(exc)(f"closed geodesic of {word!r}: {exc}") from exc
