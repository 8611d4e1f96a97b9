"""Geodesic tracing through the fundamental polygon.

The walker keeps only local state: a point of the polygon, a unit
direction, and the length walked so far.  Each step finds the first
forward crossing with a polygon side and jumps back inside with that
side's pairing.  Working locally keeps every step well conditioned; the
global deck transformation is recovered from the crossing record when
needed, never from developed coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import TraceError
from .halfplane import (
    GeodesicLine,
    GeodesicSegment,
    Isometry,
    dist,
    intersect_lines,
    lines_cross,
    same_line,
)
from .surface import SurfaceModel
from .tolerances import TOL_GEO, TOL_LOOSE

# minimal forward progress accepted when hunting the next side crossing
_AHEAD = 1e-11
_BEHIND = 1e-5


@dataclass(frozen=True)
class TraceStep:
    """One polygon passage: a segment of the traced geodesic in polygon
    coordinates, and the side crossed at its far end (None when the
    trace ends inside the polygon)."""

    segment: GeodesicSegment
    side: int | None


@dataclass
class Trace:
    """A traced geodesic of finite length."""

    start_point: complex
    start_dir: complex
    steps: list[TraceStep]
    end_point: complex
    end_dir: complex
    length: float

    @property
    def sides(self) -> list[int]:
        return [s.side for s in self.steps if s.side is not None]

    def segments(self) -> list[GeodesicSegment]:
        return [s.segment for s in self.steps]

    def closes_up(self, tol: float = TOL_LOOSE) -> bool:
        return (abs(self.end_point - self.start_point) <= tol
                and abs(self.end_dir - self.start_dir) <= tol)


def _first_exit(model: SurfaceModel, line: GeodesicLine, s0: float):
    """First crossing of the forward ray with a polygon side, as
    (param, side index, point), or None when the ray stays inside.

    A crossing at the ray start itself counts only when the ray heads
    strictly out through that side; this is how passages exactly through
    a polygon vertex resolve, one wedge at a time.  The behind window
    covers starts sitting a membership tolerance outside a side, whose
    line crossing then falls slightly behind the ray start.
    """
    best = None
    probe = None
    for side in model.sides:
        if same_line(line, side.line):
            continue
        if not lines_cross(line, side.line):
            continue
        pt = intersect_lines(line, side.line)
        if pt is None:
            raise TraceError(
                f"side {side.index} crosses the traced line but has no "
                f"intersection point: side {side.line}, line {line}")
        s = line.param_of(pt)
        if s <= s0 - _BEHIND:
            continue
        t = side.line.param_of(pt)
        if t < side.s_lo - TOL_GEO or t > side.s_hi + TOL_GEO:
            continue
        if s <= s0 + _AHEAD:
            if probe is None:
                probe = line.point_at(s0 + 1e-6)
            f_here = side.line.signed_sinh_dist(line.point_at(s0))
            f_next = side.line.signed_sinh_dist(probe)
            if f_next >= f_here - 1e-13:
                continue
            s = s0
            pt = line.point_at(s0)
        if best is None or s < best[0]:
            best = (s, side.index, pt)
    return best


def trace_geodesic(model: SurfaceModel, p: complex, u: complex,
                   length: float, max_steps: int = 400000) -> Trace:
    """Walk the geodesic from p in direction u for the given length."""
    if length < 0.0:
        raise ValueError("trace length must be nonnegative")
    if not model.inside(p, tol=1e-6):
        raise TraceError(f"trace start {p} is not in the polygon")
    u = u / abs(u)
    p0, u0 = p, u
    steps: list[TraceStep] = []
    walked = 0.0
    stalled = 0
    for _ in range(max_steps):
        line = GeodesicLine.from_point_direction(p, u)
        s_here = line.param_of(p)
        remaining = length - walked
        exit_ = _first_exit(model, line, s_here)
        if exit_ is None or exit_[0] - s_here >= remaining:
            seg = GeodesicSegment(line, s_here, s_here + remaining)
            if not model.inside(seg.end, tol=1e-6):
                raise TraceError(
                    f"trace ran out of the polygon near {seg.end}")
            steps.append(TraceStep(seg, None))
            return Trace(p0, u0, steps, seg.end,
                         line.tangent_at(s_here + remaining),
                         length)
        s_exit, side_idx, pt = exit_
        steps.append(TraceStep(GeodesicSegment(line, s_here, s_exit),
                               side_idx))
        walked += s_exit - s_here
        if s_exit - s_here < 1e-9:
            stalled += 1
            if stalled > 60:
                raise TraceError(
                    f"trace stalled at {pt} after {len(steps)} steps")
        else:
            stalled = 0
        w = model.sides[side_idx].pairing
        tangent = line.tangent_at(s_exit)
        p = w.apply(pt)
        u = w.apply_tangent(pt, tangent)
        u = u / abs(u)
        if not model.inside(p, tol=1e-6):
            raise TraceError(
                f"trace left the polygon at step {len(steps)}: {p}")
    raise TraceError(f"trace exceeded {max_steps} steps")


def segment_trace(seg: GeodesicSegment) -> Trace:
    """A one-step trace of a segment lying inside the polygon."""
    return Trace(seg.start, seg.line.tangent_at(seg.s0),
                 [TraceStep(seg, None)], seg.end,
                 seg.line.tangent_at(seg.s1), seg.length)


def reverse_trace(model: SurfaceModel, tr: Trace) -> Trace:
    """The same walk run backwards.

    Going back out of a passage crosses the partner of the side the
    forward walk came in through.
    """
    steps: list[TraceStep] = []
    for k in range(len(tr.steps) - 1, -1, -1):
        side = None
        if k > 0:
            s_prev = tr.steps[k - 1].side
            if s_prev is not None:
                side = model.sides[s_prev].partner
        steps.append(TraceStep(tr.steps[k].segment.reversed(), side))
    return Trace(tr.end_point, -tr.end_dir, steps, tr.start_point,
                 -tr.start_dir, tr.length)


def concat_traces(model: SurfaceModel, legs: list[Trace],
                  tol: float = TOL_LOOSE) -> Trace:
    """Join walks whose ends abut into one walk.

    Joints carry no side jump, so consecutive legs must meet in the same
    polygon representative.  Joining independently anchored legs keeps
    long walks accurate; rewalking them end to end does not, because
    nearby geodesics separate exponentially.
    """
    if not legs:
        raise ValueError("nothing to join")
    steps: list[TraceStep] = []
    for k, leg in enumerate(legs):
        if k > 0:
            gap = dist(legs[k - 1].end_point, leg.start_point)
            if gap > tol:
                raise TraceError(f"trace joint {k} off by {gap:.3g}")
        steps.extend(leg.steps)
    return Trace(legs[0].start_point, legs[0].start_dir, steps,
                 legs[-1].end_point, legs[-1].end_dir,
                 sum(leg.length for leg in legs))


def tile_elements(model: SurfaceModel, sides: list[int]) -> list[Isometry]:
    """Deck elements of the tiles visited by a crossing record.

    Entry k maps polygon coordinates of passage k back to the frame of
    the trace start, so the developed picture of the trace is
    out[k](segment of step k); out[0] is the identity and out[-1] the
    deck element of the whole record.  A None entry is a joint between
    abutting walks and carries no jump.
    """
    e = Isometry.identity()
    out = [e]
    for s in sides:
        if s is not None:
            e = e @ model.sides[s].pairing.inverse()
        out.append(e)
    return out


@dataclass(frozen=True)
class _Chord:
    """One polygon passage of a closed geodesic, with its arc-length
    offset from the trace start."""

    index: int
    segment: GeodesicSegment
    offset: float


@dataclass(eq=False)
class ClosedGeodesicRep:
    """A closed geodesic carried as a word plus one traced period.

    holonomy is the deck element translating along the traced lift, in
    the frame of the trace start; it is None when the curve is too long
    for its matrix entries to be representable, in which case only the
    trace-level data is available.  axis is the lift itself.
    """

    word: str
    length: float
    trace: Trace
    holonomy: Isometry | None
    axis: GeodesicLine
    model: SurfaceModel

    def __post_init__(self):
        if self.holonomy is not None:
            t = abs(self.holonomy.trace())
            if t <= 2.0:
                raise ValueError(f"holonomy trace {t:.6g} is not hyperbolic")
            ell = 2.0 * math.acosh(0.5 * t)
            if abs(ell - self.length) > 1e-9 * max(1.0, self.length):
                raise ValueError(
                    f"length {self.length!r} disagrees with holonomy "
                    f"translation length {ell!r}")
            if not same_line(self.holonomy.axis(), self.axis, tol=1e-7):
                raise ValueError("stored axis is not the holonomy axis")

    def segments(self) -> list[GeodesicSegment]:
        return self.trace.segments()

    @cached_property
    def cum(self) -> list[float]:
        out = [0.0]
        for seg in self.trace.segments():
            out.append(out[-1] + seg.length)
        return out

    @cached_property
    def chords(self) -> list[_Chord]:
        return [_Chord(k, seg, self.cum[k])
                for k, seg in enumerate(self.trace.segments())]

    @cached_property
    def devs(self) -> list[Isometry]:
        """Deck element of each passage's tile in the start frame.

        devs[k] applied to passage k gives the developed picture along
        the axis; devs[0] is the identity and devs[-1] the holonomy.
        Only meaningful for curves short enough to develop in floats.
        """
        return tile_elements(self.model, self.trace.sides)


def base_geodesic(model: SurfaceModel,
                  word: str | None = None) -> ClosedGeodesicRep:
    """The closed geodesic of a hyperbolic word (by default the catalog
    filling word), traced once around.

    The holonomy carries the polygon frame of the trace start (its axis
    is the traced lift).  The trace is checked to close up and the
    holonomy to match the word.
    """
    if word is None:
        word = model.spec.base_word
    line, length = model.axis_of(word)
    # prefer a start that reduces to the polygon interior; a geodesic
    # running along the boundary never has one, and then any reduced
    # point works since the walker resolves on-boundary starts
    z, g, _ = model.normalize(line.point_at(0.0))
    for k in range(1, 25):
        if min(model.side_signed_dists(z)) > 1e-7:
            break
        z, g, _ = model.normalize(line.point_at(k * 0.381966 * length))
    start_line = g.apply_line(line)
    s = start_line.param_of(z)
    tr = trace_geodesic(model, z, start_line.tangent_at(s), length)
    if not tr.closes_up(tol=1e-6):
        raise TraceError(
            f"closed trace of {word!r} misses its start by "
            f"{abs(tr.end_point - tr.start_point):.2e}")
    hol = tile_elements(model, tr.sides)[-1]
    want = (g @ model.word_iso(word) @ g.inverse()).normalized()
    if not hol.normalized().approx_equal(want, tol=1e-6):
        raise TraceError(f"holonomy of {word!r} does not match its word")
    axis = GeodesicLine.from_point_direction(tr.start_point, tr.start_dir)
    return ClosedGeodesicRep(word=word, length=tr.length, trace=tr,
                             holonomy=hol, axis=axis, model=model)
