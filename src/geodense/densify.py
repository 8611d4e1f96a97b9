"""Arc extension and rerouting toward dense closed geodesics.

The construction takes a family of geodesic arcs on a truncated surface
and turns it into one closed geodesic passing near every arc.  Each arc
is first extended on both sides until it crosses the base filling
geodesic at a steep angle; extensions that instead dive deep into a cusp
are rerouted along nearby geodesics that come back out.  Connecting the
processed arcs through the base geodesic into a single closed curve is
not built yet (see ROADMAP.md).

Every quantitative step of the construction is guarded: extension
lengths are checked against the caps the surface constants promise, and
reroute displacements against their brackets.  A violated guard raises
instead of producing a silently wrong curve.  Each threshold that depends
only on the run is derived once, in _setting; each per-arc bound is
derived where it is checked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import formulas
from .errors import (
    ArrangementDegenerate,
    CaseBoundViolated,
    HorocyclesIntersect,
    SafetyCapExceeded,
)
from .halfplane import (
    INF,
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    IntMatrix,
    Isometry,
    angle_with_horocycle,
    dist,
    folded_angle,
    horocycle_perpendicular,
    intersect_lines,
    line_horocycle_crossings,
    lines_cross,
    mat_inv,
    mat_mul,
    to_isometry,
)
from .decomp import SurfaceConstants
from .surface import SurfaceModel
from .tracing import (
    ClosedGeodesicRep,
    Trace,
    TraceStep,
    base_geodesic,  # not used here; callers import it from densify
    concat_traces,
    reverse_trace,
    tile_elements,
    trace_geodesic,
)

# crossings within this of an angle threshold still count as steep
ANGLE_TOL = 1e-9
# two sightings of one crossing (through a polygon side) agree to this
_DEDUP = 1e-7
# a hunt scans no step that ends this far inside its clearance (_hunt)
_CLEAR_MARGIN = 1e-3


@dataclass(frozen=True)
class DensityParams:
    """Target density eps on the surface truncated at length-xi horocycles."""

    eps: float
    xi: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 2.0:
            raise ValueError(f"eps must be in (0, 2], got {self.eps}")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi}")


@dataclass(frozen=True)
class _Setting:
    """One run's inputs and the thresholds derived from them alone."""

    model: SurfaceModel
    gamma0: ClosedGeodesicRep
    params: DensityParams
    K: SurfaceConstants
    r_eps: float     # clearance: every extension walks at least this far
    psi: float       # entry angle a deep crossing must clear to stop
    s_deep: float    # length of the deep horocycles
    m_a: float       # cap on a class-A extension past the clearance
    m_ba: float      # the same cap for a BA reroute's dive side
    v_lo: float      # bracket on a BB reroute's two extensions
    v_hi: float
    # Per cusp, the deep horocycle bounding the reroute region, in polygon
    # coordinates.  Each catalog cusp owns exactly one ideal polygon
    # vertex, so its deep horoball meets the polygon in one piece there.
    deep: tuple[Horocycle, ...]
    # The same horocycles in their cusps' charts, where runs cross them.
    deep_chart: tuple[Horocycle, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "deep_chart", tuple(
            c.chart.apply_horocycle(h)
            for c, h in zip(self.model.cusps, self.deep)))


@functools.lru_cache(maxsize=1)
def _setting(params: DensityParams, K: SurfaceConstants, X: SurfaceModel,
             gamma0: ClosedGeodesicRep) -> _Setting:
    """The run's setting, derived once and shared by all its arcs."""
    eps, xi, theta0 = params.eps, params.xi, K.theta0
    s_deep = formulas.deep_horocycle_length(eps, xi, theta0)
    m_a = formulas.class_a_extension_bound(
        K.diam, K.cusp_reach, eps, xi, theta0)
    v_lo, v_hi = formulas.bb_v_bracket(eps, xi, theta0, K.cusp_reach)
    return _Setting(X, gamma0, params, K,
                    r_eps=formulas.clearance(eps, theta0),
                    psi=formulas.deep_entry_angle(eps, xi, theta0),
                    s_deep=s_deep, m_a=m_a,
                    m_ba=m_a + formulas.ba_extra_extension(
                        eps, xi, theta0, K.base_len),
                    v_lo=v_lo, v_hi=v_hi,
                    deep=tuple(X.cusp_horocycle(j, s_deep)
                               for j in range(len(X.cusps))))


# ---------------------------------------------------------------------------
# extension walker

@dataclass(slots=True)
class CrossingRecord:
    """One crossing met while extending an arc.

    kind "base" is a crossing with the base geodesic (tau the position
    along it); kind "deep" is a crossing with a deep cusp horocycle
    (index the cusp).  good means the angle clears the kind's threshold.
    """

    kind: str
    s: float
    point: complex
    angle: float
    good: bool
    index: int
    tau: float
    step: int


@dataclass(slots=True)
class ExtensionOutcome:
    """How one direction of an arc extension terminated.

    stop is the stopping crossing, at arc length stop.s from the start
    of the walk, the mandatory clearance prefix included.  A base stop
    is class A (cases 1 to 4), a deep stop class B (case 5).  trace is
    the walk as taken: it ends with the step that holds the stop, and a
    processed arc cuts its class-A legs there (_cut_trace).
    """

    case_id: int
    stop: CrossingRecord
    trace: Trace


def _ray_events(S: _Setting, steps: list[TraceStep], walked: float = 0.0,
                step0: int = 0,
                last: CrossingRecord | None = None) -> list[CrossingRecord]:
    """All base and deep crossings along traced steps, by arc length,
    with the run's base geodesic, deep horocycles and angle thresholds.

    walked and step0 place the steps inside a longer ray: the arc length
    and the number of steps before them.  Each record's s and step then
    count from the start of that ray, as a scan of the whole ray would
    give them.  last is the final record kept from the earlier scanned
    steps, if any; a hunt does not scan the steps wholly inside its
    clearance (_hunt).

    A crossing sitting exactly on a polygon side is seen from both
    adjacent passages at equal arc length; the duplicate is dropped,
    also when the two sightings fall in separate calls.

    A run (a step of many cusp wall crossings) stays above its cusp's
    unit horocycle, which the base geodesic never reaches
    (decomp._check_cusp_clearance) and no other cusp's deep horoball
    meets.  The cusp parabolic maps the cusp's deep horocycle to itself,
    so the run crosses it where its developed arc does, found in the
    cusp chart; base records therefore lie in plain steps only.  Each
    record is in the frame of its step's segment.
    """
    gamma0 = S.gamma0
    events: list[CrossingRecord] = []
    for k, st in enumerate(steps, step0):
        seg = st.segment
        if st.count > 1:
            events.extend(_run_deep_events(S, st, walked, k))
            walked += seg.length
            continue
        for index, chord, offset in gamma0.chords:
            if not lines_cross(seg.line, chord.line):
                continue
            z = intersect_lines(seg.line, chord.line)
            if z is None:
                # the lines meet at height <= 1e-12 if at all, where no
                # base chord runs: it stays below every unit horocycle
                continue
            sw = seg.line.param_of(z)
            if not seg.contains_param(sw):
                continue
            tc = chord.line.param_of(z)
            if not chord.contains_param(tc):
                continue
            ang = folded_angle(seg.line.tangent_at(sw),
                               chord.line.tangent_at(tc))
            tau = (offset + (tc - chord.s0)) % gamma0.length
            events.append(CrossingRecord(
                "base", walked + (sw - seg.s0), z, ang,
                ang >= S.K.theta0 - ANGLE_TOL, index, tau, k))
        for j, h in enumerate(S.deep):
            for sp, z in line_horocycle_crossings(seg.line, h):
                if not seg.contains_param(sp):
                    continue
                ang = angle_with_horocycle(seg.line, h, z)
                events.append(CrossingRecord(
                    "deep", walked + (sp - seg.s0), z, ang,
                    ang >= S.psi - ANGLE_TOL, j, math.nan, k))
        walked += seg.length
    if len(events) > 1:
        events.sort(key=lambda e: e.s)
    out: list[CrossingRecord] = []
    for e in events:
        prev = out[-1] if out else last
        if prev is not None and e.kind == prev.kind \
                and e.s - prev.s < _DEDUP:
            continue
        out.append(e)
    return out


def _run_deep_events(S: _Setting, st: TraceStep, walked: float,
                     k: int) -> list[CrossingRecord]:
    """Crossings of a run with its cusp's deep horocycle."""
    c, ch = st.cusp, st.chart_arc
    h = S.deep_chart[c.index]
    out = []
    for sp, zc in line_horocycle_crossings(ch.line, h):
        if not ch.contains_param(sp):
            continue
        ang = angle_with_horocycle(ch.line, h, zc)
        out.append(CrossingRecord(
            "deep", walked + (sp - ch.s0), c.chart_inv.apply(zc), ang,
            ang >= S.psi - ANGLE_TOL, c.index, math.nan, k))
    return out


def _cut_trace(trace: Trace, event: CrossingRecord) -> Trace:
    """The initial piece of a trace, ending exactly at a base crossing,
    which lies in a plain step (_ray_events)."""
    seg = trace.steps[event.step].segment
    sw = seg.line.param_of(event.point)
    steps = trace.steps[:event.step] + [
        TraceStep(seg.subsegment(seg.s0, sw), None)]
    return Trace(steps, sum(s.segment.length for s in steps))


def _hunt(S: _Setting, point: complex, tangent: complex, allowed: float,
          deep_stop: bool = True) -> ExtensionOutcome:
    """Walk one ray to its stopping crossing, by the run's thresholds S.

    allowed caps the extension past the clearance prefix for base stops,
    and the walk is traced one unit past that cap.  With deep_stop off,
    steep deep crossings are passed through like shallow ones; this is
    how reroutes re-enter a cusp.  The sub-case follows from the stop,
    the kinds of crossing passed on the way and the extension.
    """
    r_eps = S.r_eps
    cap = r_eps + allowed + 1.0

    # The ray is walked in one piece, and each step is scanned as the
    # walk takes it (trace_geodesic's until), at its arc-length offset
    # along the ray; the walk ends at the step holding the stop.
    #
    # A step ending more than _CLEAR_MARGIN before the clearance bound
    # r_eps - ANGLE_TOL is walked but not scanned, which changes no
    # outcome.  A record lies at most TOL_GEO past its step's end
    # (contains_param), so a skipped step's records all lie inside the
    # clearance, where no record becomes the stop or enters passed.
    # There a record acts only through dedup: a record is dropped when
    # it sits within _DEDUP of the record kept just before it.  So a
    # skipped step can change a record past the clearance only through
    # an unbroken chain of sightings, each within _DEDUP of the one
    # before, spanning _CLEAR_MARGIN: 10^4 crossings within 1e-3 of arc.
    skip_to = r_eps - ANGLE_TOL - _CLEAR_MARGIN
    walked = 0.0
    steps = 0
    stop = None
    last = None
    passed: set[str] = set()   # kinds of crossing passed before the stop

    def scan(st: TraceStep) -> bool:
        nonlocal walked, steps, last, stop
        end = walked + st.segment.length
        events = (_ray_events(S, [st], walked, steps, last)
                  if end >= skip_to else [])
        walked = end
        steps += 1
        for e in events:
            if e.s < r_eps - ANGLE_TOL:
                continue
            if e.good and (e.kind == "base" or deep_stop):
                stop = e
                return True
            passed.add(e.kind)
        if events:
            last = events[-1]
        return False

    ray = trace_geodesic(S.model, point, tangent, cap, until=scan)
    if stop is None:
        raise SafetyCapExceeded(
            f"no admissible stop within extension cap {cap:.6g} "
            f"(clearance {r_eps:.6g})")

    extension = stop.s - r_eps
    if stop.kind == "base" and extension > allowed + 1e-6:
        raise CaseBoundViolated(
            f"class-A extension {extension:.9g} exceeds its cap {allowed:.9g}")

    if stop.kind == "deep":
        case_id = 5
    elif "deep" in passed:
        case_id = 4
    elif extension <= 1e-6:
        case_id = 1
    elif "base" in passed:
        case_id = 2
    else:
        case_id = 3
    return ExtensionOutcome(case_id, stop, ray)


def classify_and_extend(c: GeodesicSegment, params: DensityParams,
                        K: SurfaceConstants, X: SurfaceModel,
                        *, gamma0: ClosedGeodesicRep,
                        ) -> tuple[ExtensionOutcome | None, ExtensionOutcome]:
    """Extend an arc on both sides to its stopping crossings.

    Returns the (backward, forward) outcomes, backward walking out of
    the arc's start and forward out of its end.  The forward ray is
    hunted first.  When it stops on a deep horocycle, the backward ray
    is not hunted and its outcome is None: replace_arc reroutes a
    forward dive from the forward outcome alone.  The arc is given in
    polygon coordinates and must lie in the truncated part.  The
    thresholds are the run's setting, derived once (_setting).
    """
    for z in (c.start, c.end):
        if not X.in_truncation(z, params.xi, tol=1e-6):
            raise ValueError(
                f"arc endpoint {z} is below the length-{params.xi} horocycles")
    S = _setting(params, K, X, gamma0)
    fwd = _hunt(S, c.end, c.line.tangent_at(c.s1), S.m_a)
    if fwd.stop.kind == "deep":
        return None, fwd
    back = _hunt(S, c.start, -c.line.tangent_at(c.s0), S.m_a)
    return back, fwd


# ---------------------------------------------------------------------------
# rerouting deep dives

@dataclass(eq=False)
class ProcessedArc:
    """One arc after extension and, if needed, rerouting.

    original is the arc as processed: the given arc, or its reverse when
    only its start dives, since a dive is always rerouted forward.  So an
    arc and its reverse give the same processed arc when the same side
    dives.  trace runs the whole extension from the stop on the original
    start side to the stop on the end side.  zeta_span brackets the
    replacement arc inside it, so both extensions past the replacement
    are at least the clearance.  displacement bounds how far the
    replacement endpoints moved from the original ones.
    """

    original: GeodesicSegment
    case: str                        # "A" | "BA" | "BB"
    end_back: CrossingRecord
    end_fwd: CrossingRecord
    trace: Trace
    length: float
    zeta_span: tuple[float, float]
    displacement: float
    bound: float
    clearance: float
    detail: dict

    @property
    def ext_back(self) -> float:
        return self.zeta_span[0]

    @property
    def ext_fwd(self) -> float:
        return self.length - self.zeta_span[1]

    def validate(self) -> None:
        a, b = self.zeta_span
        if not 0.0 <= a <= b <= self.length + 1e-9:
            raise CaseBoundViolated(
                "replacement arc does not sit inside its extension")
        for rec, ext in ((self.end_back, self.ext_back),
                         (self.end_fwd, self.ext_fwd)):
            if rec.kind != "base" or not rec.good:
                raise CaseBoundViolated(
                    "extension does not end on a steep base crossing")
            if ext < self.clearance - 1e-9:
                raise CaseBoundViolated(
                    f"extension {ext:.9g} under the clearance "
                    f"{self.clearance:.9g}")
        if self.length > self.bound + 1e-6:
            raise CaseBoundViolated(
                f"processed length {self.length:.9g} exceeds the per-arc "
                f"bound {self.bound:.9g}")
        if abs(self.trace.length - self.length) > 1e-9 * max(1.0, self.length):
            raise ArrangementDegenerate("trace length drifted from the total")


@dataclass(frozen=True)
class _DiveFrame:
    """Coordinates normalized around one deep dive.

    In the normalized chart the dived cusp sits at infinity with its
    deep horocycle at height 1 / s_deep and parabolic z -> z + 1, and
    the carrying line of the dive leaves 0 toward the side sigma.
    to_norm_arc takes the frame of the original arc there, and dev, an
    integer deck element, takes the polygon frame of the dive's stop
    step to the frame of the arc.
    """

    to_norm_arc: Isometry
    dev: IntMatrix
    sigma: float


def _walk_dev(model: SurfaceModel, outcome: ExtensionOutcome) -> IntMatrix:
    """Deck element taking the stop step's polygon frame to the frame
    the walk started in."""
    return tile_elements(model, outcome.trace.steps[:outcome.stop.step])[-1]


def _dive_frame(S: _Setting, outcome: ExtensionOutcome) -> _DiveFrame:
    stop = outcome.stop
    cusp = S.model.cusps[stop.index]
    rw = math.sqrt(cusp.width)
    unit = Isometry(1.0 / rw, 0.0, 0.0, rw) @ cusp.chart
    line = outcome.trace.steps[stop.step].segment.line
    e_tail = unit.apply_line(line).endpoint_back
    if math.isinf(e_tail):
        raise ArrangementDegenerate(
            "dive tail runs straight out of the cusp point")
    to_norm_step = Isometry.translation(-e_tail) @ unit
    height = 1.0 / S.s_deep
    x_far = to_norm_step.apply_boundary(line.endpoint_fwd)
    zc = to_norm_step.apply(stop.point)
    if abs(zc.imag - height) > 1e-6 * height:
        raise ArrangementDegenerate(
            f"normalized dive crossing at height {zc.imag:.9g}, "
            f"expected {height:.9g}")
    # a radial dive heads straight into the cusp point; either side of
    # the carrying line works then, and the positive one is the tie rule
    if math.isinf(x_far):
        sigma = 1.0
    else:
        if abs(x_far) < (1.0 + height * height) * (1.0 - 1e-4):
            raise ArrangementDegenerate(
                "normalized dive enters shallower than the deep threshold")
        sigma = math.copysign(1.0, x_far)
    dev = _walk_dev(S.model, outcome)
    return _DiveFrame(to_norm_step @ to_isometry(mat_inv(dev)), dev, sigma)


def _centered_meet(line: GeodesicLine, radius: float) -> complex:
    """Crossing of a geodesic with the geodesic |z| = radius.

    The centered circles are exactly the geodesics orthogonal to the
    vertical through 0, which makes them the projection family of the
    reroute constructions.
    """
    z = intersect_lines(line, GeodesicLine.circle(0.0, radius))
    if z is None:
        raise CaseBoundViolated(
            "projection along centered circles misses the reroute line")
    return z


def _to_surface(model: SurfaceModel, back_iso: Isometry, z: complex,
                u: complex) -> tuple[complex, complex, IntMatrix]:
    """Carry a point and direction from a working frame onto the
    polygon; returns the normalizing deck element as well."""
    z_raw = back_iso.apply(z)
    u_raw = back_iso.apply_tangent(z, u)
    z_f, g = model.normalize(z_raw)
    return z_f, to_isometry(g).apply_tangent(z_raw, u_raw), g


def _finish(S: _Setting, c: GeodesicSegment, case: str,
            tail: ExtensionOutcome, pre: float, mid: Trace, zeta_len: float,
            post: float, dive: ExtensionOutcome, displacement: float,
            bound: float, detail: dict) -> ProcessedArc:
    """Join tail, mid and dive into the processed arc.

    The walk runs the tail reversed, mid, then the dive, each extension
    cut at its stop, so it starts and ends exactly at the two stops; pre
    and post are the lengths before and after the replacement arc mid.
    """
    tr = concat_traces([
        reverse_trace(S.model, _cut_trace(tail.trace, tail.stop)), mid,
        _cut_trace(dive.trace, dive.stop)])
    arc = ProcessedArc(
        original=c, case=case, end_back=tail.stop, end_fwd=dive.stop,
        trace=tr, length=pre + zeta_len + post,
        zeta_span=(pre, pre + zeta_len), displacement=displacement,
        bound=bound, clearance=S.r_eps, detail=detail)
    arc.validate()
    return arc


def replace_arc(c: GeodesicSegment,
                outcomes: tuple[ExtensionOutcome | None, ExtensionOutcome],
                params: DensityParams, K: SurfaceConstants, X: SurfaceModel,
                *, gamma0: ClosedGeodesicRep) -> ProcessedArc:
    """Turn an extended arc into its processed form.

    Arcs whose both extensions stopped on the base geodesic keep their
    position; a deep dive on either side replaces the arc by a nearby
    geodesic whose continuations come back out of the cusp.  A dive is
    rerouted forward, so a forward dive is tested first and rerouted
    from the forward outcome alone; the backward outcome is not read
    then and may be None, as classify_and_extend leaves it.  When only
    the start dives, the processed arc runs along c.reversed(), whose
    forward hunt is the backward outcome.  The thresholds are the run's
    setting (_setting), the length bound the arc's.
    """
    back, fwd = outcomes
    S = _setting(params, K, X, gamma0)
    bound = formulas.replaced_arc_length_bound(
        c.length, params.eps, params.xi, K.arc_overhead)
    if fwd.stop.kind == "deep":
        return _reroute(S, c, fwd, bound)
    if back.stop.kind == "base":
        return _finish(S, c, "A", back, back.stop.s,
                       Trace([TraceStep(c, None)], c.length),
                       c.length, fwd.stop.s, fwd, 0.0, bound,
                       {"cases": (back.case_id, fwd.case_id)})
    return _reroute(S, c.reversed(), back, bound)


def _reroute(S: _Setting, c: GeodesicSegment, dive_out: ExtensionOutcome,
             bound: float) -> ProcessedArc:
    """Reroute the forward dive dive_out of c."""
    model = S.model
    frame = _dive_frame(S, dive_out)
    H = 1.0 / S.s_deep
    from_norm = frame.to_norm_arc.inverse()
    p_n = frame.to_norm_arc.apply(c.end)
    q_n = frame.to_norm_arc.apply(c.start)

    tails: list[tuple[ExtensionOutcome, IntMatrix, complex]] = []
    for cand in (1, 2):
        side_sign = frame.sigma if cand == 1 else -frame.sigma
        far = side_sign * (1.0 + H * H)
        eta = GeodesicLine.from_endpoints(0.0, far)
        zp = _centered_meet(eta, abs(p_n))
        zq = _centered_meet(eta, abs(q_n))
        dp, dq = dist(p_n, zp), dist(q_n, zq)
        if max(dp, dq) > 2.0 * S.s_deep + 1e-9:
            raise CaseBoundViolated(
                f"reroute endpoint displaced by {max(dp, dq):.9g}, over the "
                f"deep-length bound {2.0 * S.s_deep:.9g}")
        s_q = eta.param_of(zq)
        zf_q, uf_q, g = _to_surface(model, from_norm, zq, -eta.tangent_at(s_q))
        t_out = _hunt(S, zf_q, uf_q, S.m_a)
        tails.append((t_out, g, zq))
        if t_out.stop.kind != "base":
            continue
        # case BA: the tail comes out; walk the dive side through the cusp
        s_p = eta.param_of(zp)
        zeta_len = s_p - s_q
        if zeta_len <= 0.0:
            raise ArrangementDegenerate("reroute inverted the arc's endpoints")
        zf, uf, _ = _to_surface(model, from_norm, zp, eta.tangent_at(s_p))
        d_out = _hunt(S, zf, uf, S.m_ba, deep_stop=False)
        mid = trace_geodesic(model, zf_q, -uf_q, zeta_len)
        detail = {"candidate": cand, "tail_case": t_out.case_id,
                  "dive_case": d_out.case_id,
                  "displacement_dive": dp, "displacement_tail": dq}
        return _finish(S, c, "BA", t_out, t_out.stop.s, mid, zeta_len,
                       d_out.stop.s, d_out, max(dp, dq), bound, detail)
    # both candidate tails dive as well
    if dist(tails[0][2], tails[1][2]) > 0.5 * S.params.eps:
        raise CaseBoundViolated(
            "candidate tail endpoints farther apart than eps/2")
    return _bb_assemble(S, c, dive_out, frame, tails[0], bound)


def _bb_assemble(S, c, dive_out, frame, first_tail, bound) -> ProcessedArc:
    model, params, K, psi = S.model, S.params, S.K, S.psi
    t_out, g_tail, _ = first_tail
    h_dive = to_isometry(frame.dev).apply_horocycle(
        S.deep[dive_out.stop.index])
    h_tail = to_isometry(mat_mul(mat_inv(g_tail), _walk_dev(model, t_out))) \
        .apply_horocycle(S.deep[t_out.stop.index])
    try:
        perp = horocycle_perpendicular(h_tail, h_dive)
    except (HorocyclesIntersect, ValueError) as exc:
        raise CaseBoundViolated(
            f"reroute horoballs are not separated: {exc}") from exc
    u = perp.length
    lo_u, hi_u = formulas.bb_u_bracket(
        params.eps, params.xi, K.theta0, c.length, K.base_len, K.cusp_reach)
    if not lo_u - 1e-6 <= u <= hi_u + 1e-6:
        raise CaseBoundViolated(
            f"horoball gap {u:.9g} outside [{lo_u:.9g}, {hi_u:.9g}]")
    hw = formulas.quad_half_width(psi, u)
    if not hw < 2.0 / math.e:
        raise CaseBoundViolated(
            f"quad half-width {hw:.9g} not under 2/e")

    # standard position: tail ball of unit diameter at 0, dived ball the
    # line at height e^u
    to_std = Isometry.point_frame(
        perp.start, perp.line.tangent_at(perp.s0)).inverse()
    eu = math.exp(u)
    if abs(to_std.apply(perp.start) - 1j) > 1e-7 \
            or abs(to_std.apply(perp.end) - 1j * eu) > 1e-6 * eu:
        raise ArrangementDegenerate("standard position frame drifted")
    wp = to_std.apply(c.end)
    wq = to_std.apply(c.start)
    sgn = 1.0 if wp.real + wq.real >= 0.0 else -1.0
    c_top = complex(sgn * hw * eu, eu)
    c_bot = complex(sgn * hw, 1.0) / (hw * hw + 1.0)
    side = GeodesicLine.from_points(c_bot, c_top)
    if abs(angle_with_horocycle(side, Horocycle(0.0, 1.0), c_bot) - psi) \
            > 1e-6 or \
       abs(angle_with_horocycle(side, Horocycle(INF, eu), c_top) - psi) \
            > 1e-6:
        raise ArrangementDegenerate("quad side misses its corner angles")
    s_bot = side.param_of(c_bot)
    s_top = side.param_of(c_top)
    gap_len = s_top - s_bot
    if not 0.0 < gap_len <= u + 2.0 * hw + 1e-6:
        raise CaseBoundViolated(
            f"quad side length {gap_len:.9g} over its bound "
            f"{u + 2.0 * hw:.9g}")

    z_p0 = _centered_meet(side, abs(wp))
    z_q0 = _centered_meet(side, abs(wq))
    dp, dq = dist(wp, z_p0), dist(wq, z_q0)
    if max(dp, dq) > 2.0 * hw + 1e-6:
        raise CaseBoundViolated(
            f"reroute endpoint displaced by {max(dp, dq):.9g}, over twice "
            f"the half-width {2.0 * hw:.9g}")
    s_p0 = side.param_of(z_p0)
    s_q0 = side.param_of(z_q0)
    if not s_bot - 1e-6 <= s_q0 <= s_p0 <= s_top + 1e-6:
        raise CaseBoundViolated(
            "replacement endpoints leave the bridging segment")

    # the hunts' class-A cap holds each extension to v_hi in total (v_hi
    # exceeds the clearance, as log(1/s_deep) does); v_lo is checked here
    to_arc = to_std.inverse()
    z1, u1, _ = _to_surface(model, to_arc, c_top, side.tangent_at(s_top))
    out_top = _hunt(S, z1, u1, S.v_hi - S.r_eps, deep_stop=False)
    z2, u2, _ = _to_surface(model, to_arc, c_bot, -side.tangent_at(s_bot))
    out_bot = _hunt(S, z2, u2, S.v_hi - S.r_eps, deep_stop=False)
    for out in (out_top, out_bot):
        if out.stop.s < S.v_lo - 1e-6:
            raise CaseBoundViolated(
                f"reroute extension {out.stop.s:.9g} under its bracket "
                f"{S.v_lo:.9g}")
    mid = trace_geodesic(model, z2, -u2, gap_len)

    detail = {"u": u, "half_width": hw, "v_dive": out_top.stop.s,
              "v_tail": out_bot.stop.s, "side_length": gap_len,
              "displacement_dive": dp, "displacement_tail": dq,
              "tail_case": t_out.case_id}
    return _finish(S, c, "BB", out_bot, out_bot.stop.s + (s_q0 - s_bot),
                   mid, s_p0 - s_q0, (s_top - s_p0) + out_top.stop.s, out_top,
                   max(dp, dq), bound, detail)
