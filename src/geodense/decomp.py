"""Cutting a surface along a filling closed geodesic.

The base geodesic is traced once around the surface.  Its transversal
self-crossings become the vertices of a four-valent graph drawn on the
surface, the sub-arcs between consecutive crossings become the edges,
and the complement falls apart into faces.  For a filling word every
face is an ordinary geodesic polygon or a once-punctured polygon; any
other face shape raises NotFilling.

Each face is developed into the half-plane along its boundary, which
turns the combinatorial face into a concrete polygon (or a periodic
boundary chain for punctured faces).  From the developed picture we
read off ear triangles, corner angles, face sizes and cusp depths, and
aggregate them into the constants that drive every length bound
downstream.
"""

import bisect
import cmath
import math
from dataclasses import dataclass

from .errors import ArrangementDegenerate, EarConstructionFails, NotFilling
from .formulas import arc_budget, per_arc_budget
from .halfplane import (
    GeodesicLine,
    GeodesicSegment,
    IntMatrix,
    angle_between,
    dist,
    folded_angle,
    intersect_lines,
    lines_cross,
    mat_inv,
    mat_mul,
    same_line,
    segments_cross,
    to_isometry,
)
from .surface import SurfaceModel, chart_top
from .tracing import ClosedGeodesicRep, base_geodesic, tile_elements

# crossings closer than this to a polygon side, to each other, or to
# tangency cannot be classified reliably
MARGIN = 1e-7


@dataclass(frozen=True)
class Crossing:
    """One transversal self-crossing of the base geodesic.

    The curve passes the point twice, at curve parameters t_lo < t_hi;
    dir_lo and dir_hi are the forward unit tangents of the two passes
    in polygon coordinates.
    """

    point: complex
    t_lo: float
    t_hi: float
    dir_lo: complex
    dir_hi: complex
    angle: float          # folded acute angle between the two passes


@dataclass(frozen=True)
class Ear:
    """Triangle spanned by three consecutive face corners."""

    corners: tuple[complex, complex, complex]
    angles: tuple[float, float, float]
    side_lengths: tuple[float, float, float]


@dataclass
class Face:
    """One complementary face of the cut surface, developed.

    Corners are listed along the boundary in one chart of the
    half-plane.  For an ordinary face they close into a compact polygon
    and the integer closure element is +-I; for a once-punctured face
    they give one period of an infinite chain invariant under it, a
    parabolic.
    """

    corners: list[complex]
    angles: list[float]
    punctured: bool
    closure: IntMatrix
    cusp: int | None
    area: float
    ears: list[Ear]
    diam: float | None        # ordinary faces: conservative diameter
    depth: float | None       # punctured faces: reach below 1-horocycle

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    @property
    def angle_floor(self) -> float:
        """Smallest angle of any ear."""
        return min(min(e.angles) for e in self.ears)

    @property
    def side_cap(self) -> float:
        """Longest side of any ear."""
        return max(max(e.side_lengths) for e in self.ears)

    def boundary_edges(self) -> list[GeodesicSegment]:
        """Developed boundary arcs, one period for punctured faces."""
        chain = boundary_chain(self.corners, self.closure, 0, 2)
        return chain_edges(chain, len(self.corners))


@dataclass(frozen=True)
class SurfaceConstants:
    """Aggregated face constants of one cutting geodesic."""

    theta0: float             # smallest ear angle over all faces
    diam: float               # largest face size (diameter or ear side)
    cusp_reach: float         # deepest face corner below a 1-horocycle
    base_len: float
    arc_overhead: float       # per-arc overhead before connection slack
    per_arc_cap: float        # arc_overhead plus worst connecting detour


@dataclass
class Decomposition:
    base: ClosedGeodesicRep
    crossings: list[Crossing]
    faces: list[Face]
    constants: SurfaceConstants


# ---------------------------------------------------------------------------
# crossing collection

def _collect_crossings(segs, cumlen):
    out = []
    for i in range(len(segs)):
        gi = segs[i]
        for j in range(i + 1, len(segs)):
            gj = segs[j]
            if same_line(gi.line, gj.line):
                # a lift meets the convex polygon once: the period repeats
                raise ArrangementDegenerate(
                    f"passes {i} and {j} retrace the same line")
            if not lines_cross(gi.line, gj.line):
                continue
            z = intersect_lines(gi.line, gj.line)
            if z is None:
                continue
            si = gi.line.param_of(z)
            sj = gj.line.param_of(z)
            near = 1e-6
            if not (gi.s0 - near < si < gi.s1 + near
                    and gj.s0 - near < sj < gj.s1 + near):
                continue
            if not (gi.s0 + MARGIN < si < gi.s1 - MARGIN
                    and gj.s0 + MARGIN < sj < gj.s1 - MARGIN):
                raise ArrangementDegenerate(
                    f"self-crossing at {z:.6g} sits on a polygon side")
            ui = gi.line.tangent_at(si)
            uj = gj.line.tangent_at(sj)
            ang = folded_angle(ui, uj)
            if ang < MARGIN:
                raise ArrangementDegenerate(
                    f"near-tangential self-crossing at {z:.6g}"
                    f" (angle {ang:.2e})")
            out.append(Crossing(z, cumlen[i] + (si - gi.s0),
                                cumlen[j] + (sj - gj.s0), ui, uj, ang))
    return out


# ---------------------------------------------------------------------------
# the four-valent complex

class _Complex:
    """Slots, arcs and darts of the self-crossing graph.

    Slot s is the s-th crossing passage in curve order; arc s runs from
    slot s to slot s+1 (the last arc wraps around the curve start).
    Dart 2s runs arc s forwards and is based at slot s; dart 2s+1 runs
    it backwards and is based at slot s+1.
    """

    def __init__(self, model, base, crossings):
        self.length = base.length
        self.crossings = crossings
        # the deck element of each step, the last the whole period's, read
        # by passage: no period with a run passes _check_cusp_clearance
        self.devs = tile_elements(model, base.trace.steps)
        segs = base.trace.segments()
        cum = base.cum

        slots = []
        for ci, c in enumerate(crossings):
            slots.append((c.t_lo, ci, True))
            slots.append((c.t_hi, ci, False))
        slots.sort()
        self.n = len(slots)
        self.slot_t = [s[0] for s in slots]
        self.slot_cross = [s[1] for s in slots]
        self.slot_dir = [crossings[ci].dir_lo if lo else crossings[ci].dir_hi
                         for (_, ci, lo) in slots]
        for a in range(self.n):
            gap = (self.slot_t[(a + 1) % self.n] - self.slot_t[a]) % self.length
            if gap < MARGIN:
                raise ArrangementDegenerate(
                    "two self-crossings nearly coincide on the curve")

        # locate each slot on its trace pass and develop it onto the
        # single line carrying the developed trace
        axis = segs[0].line
        self.dev_point = []
        self.slot_pass = []
        for t, ci, lo in slots:
            # a crossing sits strictly inside its pass (MARGIN)
            k = bisect.bisect_right(cum, t) - 1
            g = segs[k]
            pt = g.point_at(g.s0 + (t - cum[k]))
            self.slot_pass.append(k)
            zdev = to_isometry(self.devs[k]).apply(pt)
            if not axis.contains(zdev, tol=1e-6):
                raise ArrangementDegenerate(
                    "developed trace drifted off its line")
            self.dev_point.append(zdev)
        tau = [axis.param_of(z) for z in self.dev_point]
        for s in range(self.n):
            if abs((tau[s] - tau[0]) - (self.slot_t[s] - self.slot_t[0])) > 1e-6:
                raise ArrangementDegenerate(
                    "developed crossing parameters do not match arc lengths")

        self._build_rotation()

    # darts -----------------------------------------------------------------

    def base_slot(self, d):
        a = d >> 1
        return (a + 1) % self.n if d & 1 else a

    def arrive_slot(self, d):
        a = d >> 1
        return a if d & 1 else (a + 1) % self.n

    def dart_dir(self, d):
        u = self.slot_dir[self.base_slot(d)]
        return -u if d & 1 else u

    def wrap_power(self, d):
        """How often the dart's arc crosses the curve start."""
        if (d >> 1) != self.n - 1:
            return 0
        return -1 if d & 1 else 1

    def arc_len(self, d):
        a = d >> 1
        return (self.slot_t[(a + 1) % self.n] - self.slot_t[a]) % self.length

    def _build_rotation(self):
        self.rot_next = [None] * (2 * self.n)
        for ci in range(len(self.crossings)):
            slots = [s for s in range(self.n) if self.slot_cross[s] == ci]
            if len(slots) != 2:
                raise ArrangementDegenerate("crossing with bad slot count")
            darts = []
            for s in slots:
                darts.append(2 * s)                          # leave forwards
                darts.append(2 * ((s - 1) % self.n) + 1)     # leave backwards
            darts.sort(key=lambda d: cmath.phase(self.dart_dir(d)))
            for k, d in enumerate(darts):
                nxt = darts[(k + 1) % 4]
                if self.base_slot(d) == self.base_slot(nxt) or \
                        self.slot_cross[self.base_slot(nxt)] != ci:
                    raise ArrangementDegenerate(
                        "crossing directions do not interleave")
                self.rot_next[d] = nxt

    def face_orbits(self):
        """Darts of each face, grouped by the next = rot(twin) walk."""
        seen = [False] * (2 * self.n)
        orbits = []
        for d0 in range(2 * self.n):
            if seen[d0]:
                continue
            orbit = []
            d = d0
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                d = self.rot_next[d ^ 1]
            if d != d0:
                raise ArrangementDegenerate("face walk left its orbit")
            orbits.append(orbit)
        return orbits


# ---------------------------------------------------------------------------
# developed faces

def _face_walk(cx: _Complex, orbit):
    """Develop a face boundary; corners, sector angles, integer closure."""
    period = cx.devs[-1]
    corners = []
    angles = []
    g = (1, 0, 0, 1)
    for k, d in enumerate(orbit):
        corners.append(to_isometry(g).apply(cx.dev_point[cx.base_slot(d)]))
        prev = orbit[k - 1]
        gap = (cmath.phase(cx.dart_dir(d))
               - cmath.phase(cx.dart_dir(prev ^ 1))) % (2.0 * math.pi)
        if not MARGIN < gap < math.pi - MARGIN:
            raise ArrangementDegenerate(
                f"face corner angle {gap:.3e} out of range")
        angles.append(gap)
        v = cx.arrive_slot(d)
        w = cx.base_slot(orbit[(k + 1) % len(orbit)])
        if cx.slot_cross[v] != cx.slot_cross[w] or v == w:
            raise ArrangementDegenerate("face walk switches strands wrongly")
        wrap = cx.wrap_power(d)
        step = mat_mul(cx.devs[cx.slot_pass[v]],
                       mat_inv(cx.devs[cx.slot_pass[w]]))
        if wrap == 1:
            step = mat_mul(period, step)
        elif wrap == -1:
            step = mat_mul(mat_inv(period), step)
        g = mat_mul(g, step)
    # developed corner gaps must reproduce the arc lengths on the curve
    chain = boundary_chain(corners, g, 0, 2)
    for k, d in enumerate(orbit):
        if abs(dist(chain[k], chain[k + 1]) - cx.arc_len(d)) > 1e-6:
            raise ArrangementDegenerate(
                "developed face edge does not match its arc length")
    return corners, angles, g


def boundary_chain(corners, closure: IntMatrix, lo: int,
                   hi: int) -> list[complex]:
    """Corners of periods lo .. hi - 1 of a face boundary.

    Period k is the corners moved by the k-th power of the integer
    closure.  A period whose power is +-I, period 0 and every period of
    an ordinary face, is the corners themselves: their image under a
    float identity would turn a -0.0 real part into 0.0.
    """
    step = closure if lo >= 0 else mat_inv(closure)
    g = (1, 0, 0, 1)
    for _ in range(abs(lo)):
        g = mat_mul(g, step)
    chain = []
    for _ in range(hi - lo):
        if g in ((1, 0, 0, 1), (-1, 0, 0, -1)):
            chain.extend(corners)
        else:
            chain.extend(map(to_isometry(g).apply, corners))
        g = mat_mul(g, closure)
    return chain


def chain_edges(chain, n):
    """The first n arcs between consecutive chain corners, each once: the
    periods of an ordinary face's chain coincide."""
    return [GeodesicSegment.between(a, b)
            for a, b in dict.fromkeys(zip(chain, chain[1:n + 1]))]


def _corner_angle(at: complex, to1: complex, to2: complex) -> float:
    l1 = GeodesicLine.from_points(at, to1)
    l2 = GeodesicLine.from_points(at, to2)
    return angle_between(l1.tangent_at(l1.param_of(at)),
                         l2.tangent_at(l2.param_of(at)))


def _triangle(a: complex, b: complex, c: complex) -> Ear:
    for (p, q) in ((a, b), (b, c), (a, c)):
        if abs(p - q) < 1e-9:
            raise ArrangementDegenerate("degenerate ear triangle")
    angles = (_corner_angle(a, b, c), _corner_angle(b, a, c),
              _corner_angle(c, a, b))
    sides = (dist(a, b), dist(b, c), dist(a, c))
    return Ear((a, b, c), angles, sides)


def _build_ears(corners, closure: IntMatrix):
    """Ear triangles over consecutive corner triples of period 0.

    The triples run across the period boundary of the chain.  Each
    ear's bridging chord must stay inside the face, which is checked
    against the boundary edges of periods -1 .. 2; the bridge of a
    triangle face is its third side, so it crosses none.
    """
    m = len(corners)
    chain = boundary_chain(corners, closure, -1, 3)
    edges = chain_edges(chain, len(chain) - 1)
    ears = []
    for i in range(m, 2 * m):
        a, b, c = chain[i], chain[i + 1], chain[i + 2]
        chord = GeodesicSegment.between(a, c)
        for e in edges:
            if segments_cross(chord, e) is not None:
                raise EarConstructionFails(
                    f"ear chord {a:.4g} -> {c:.4g} leaves the face")
        ears.append(_triangle(a, b, c))
    return ears


def _locate_cusp(model: SurfaceModel, closure: IntMatrix):
    """Cusp wrapped by a parabolic face closure, with the chart move.

    Returns (cusp index, m, t): the probe's integer reduction m maps the
    face's developed chart onto the cusp chart (cusp at infinity) once
    m closure m^-1 has c = 0, the translation z -> z + t there.
    """
    a, _, c, d = closure
    if c == 0:
        # horoballs at infinity deepen upwards
        probe = complex(0.0, 2.0 * max(cu.width for cu in model.cusps))
        deepen = math.e
    else:
        # horoballs at a finite point are disks tangent there, so the
        # probe deepens downwards along the vertical to the fixed point
        probe = complex((a - d) / (2 * c), 1.0 / abs(c))
        deepen = 1.0 / math.e
    for _ in range(60):
        z, red = model.normalize(probe)
        levels = model.levels(z)
        j = min(range(len(levels)), key=lambda i: levels[i])
        m = mat_mul(model.cusps[j].matrix, red)
        ca, cb, cc, _ = mat_mul(mat_mul(m, closure), mat_inv(m))
        if cc == 0:
            return j, m, ca * cb    # ca = cd = +-1
        probe = complex(probe.real, probe.imag * deepen)
    raise NotFilling("parabolic face closure reaches no cusp")


def _punctured_face_data(model, corners, closure):
    j, m, t = _locate_cusp(model, closure)
    width = model.cusps[j].width
    if abs(t) != width:
        raise NotFilling(
            f"face closure translates by {t} in the cusp chart; "
            f"the face winds cusp {j} more than once")
    chain = [to_isometry(m).apply(z) for z in corners]
    y_min = min(z.imag for z in chain)
    if not 0.0 < y_min < width - 1e-9:
        raise ArrangementDegenerate(
            f"face boundary reaches the unit horocycle of cusp {j}")
    return j, math.log(width / y_min)


def _ordinary_diam(corners, closure: IntMatrix):
    """Conservative face size: largest corner-to-corner distance plus
    the largest distance from a corner to a non-adjacent side."""
    m = len(corners)
    across = max(dist(corners[i], corners[j])
                 for i in range(m) for j in range(i + 1, m))
    to_side = 0.0
    edges = chain_edges(boundary_chain(corners, closure, 0, 2), m)
    for k, e in enumerate(edges):
        for i in range(m):
            if i in (k, (k + 1) % m):
                continue
            to_side = max(to_side, e.dist_to_point(corners[i]))
    return across + to_side


# ---------------------------------------------------------------------------
# whole-trace cusp clearance

def _check_cusp_clearance(model: SurfaceModel,
                          base: ClosedGeodesicRep) -> None:
    """The base geodesic must stay strictly below every 1-horocycle."""
    for j, cusp in enumerate(model.cusps):
        top = max(chart_top(cusp.chart, g.line, g.start, g.end)
                  for g in base.trace.segments())
        if not top < cusp.width - 1e-9:
            raise ArrangementDegenerate(
                f"base geodesic climbs to height {top:.6g} in the chart "
                f"of cusp {j} (unit horocycle at {cusp.width:g})")


# ---------------------------------------------------------------------------
# the full decomposition

def decompose(model: SurfaceModel, word: str | None = None) -> Decomposition:
    """Cut the surface along the closed geodesic of a filling word."""
    base = base_geodesic(model, word)
    word = base.word
    _check_cusp_clearance(model, base)

    crossings = _collect_crossings(base.trace.segments(), base.cum)
    if not crossings:
        raise NotFilling(
            f"closed geodesic of {word!r} has no self-crossings; "
            "a simple geodesic never fills the surface")

    cx = _Complex(model, base, crossings)
    faces = []
    for orbit in cx.face_orbits():
        corners, angles, closure = _face_walk(cx, orbit)
        m = len(corners)
        if closure in ((1, 0, 0, 1), (-1, 0, 0, -1)):
            if m < 3:
                raise ArrangementDegenerate(
                    f"ordinary face with {m} corners")
            area = (m - 2) * math.pi - sum(angles)
            if area <= 1e-9:
                raise ArrangementDegenerate("ordinary face with zero area")
            ears = _build_ears(corners, closure)
            face = Face(corners, angles, False, closure, None, area, ears,
                        _ordinary_diam(corners, closure), None)
        elif abs(closure[0] + closure[3]) == 2:
            area = m * math.pi - sum(angles)
            if area <= 1e-9:
                raise ArrangementDegenerate("punctured face with zero area")
            cusp, depth = _punctured_face_data(model, corners, closure)
            ears = _build_ears(corners, closure)
            face = Face(corners, angles, True, closure, cusp, area, ears,
                        None, depth)
        else:
            raise NotFilling(
                f"a face of {word!r} closes with a non-parabolic element "
                f"(trace {closure[0] + closure[3]}); the complement piece is "
                "not a disk or once-punctured disk")
        faces.append(face)

    _check_census(model, crossings, faces, word)

    theta0 = min(f.angle_floor for f in faces)
    diam = max(f.diam if f.diam is not None else f.side_cap for f in faces)
    cusp_reach = max(f.depth for f in faces if f.punctured)
    base_len = base.length
    constants = SurfaceConstants(
        theta0, diam, cusp_reach, base_len,
        arc_budget(diam, cusp_reach, theta0, base_len),
        per_arc_budget(diam, cusp_reach, theta0, base_len))
    return Decomposition(base, crossings, faces, constants)


def _check_census(model, crossings, faces, word):
    ncross = len(crossings)
    genus = model.spec.genus
    ncusp = len(model.cusps)
    ordinary = sum(1 for f in faces if not f.punctured)
    punctured = [f.cusp for f in faces if f.punctured]
    if sorted(punctured) != list(range(ncusp)):
        raise NotFilling(
            f"cusps {sorted(punctured)} of {word!r} are wrapped by "
            f"punctured faces; expected each of {list(range(ncusp))} once")
    if ordinary != ncross + 2 - 2 * genus - ncusp:
        raise NotFilling(
            f"{ordinary} ordinary faces with {ncross} crossings does not "
            "match the Euler count of a filling geodesic")
    if sum(f.n_corners for f in faces) != 4 * ncross:
        raise ArrangementDegenerate("face corners do not cover all sectors")
    total = sum(f.area for f in faces)
    want = 2.0 * math.pi * (2 * genus - 2 + ncusp)
    if abs(total - want) > 1e-6:
        raise ArrangementDegenerate(
            f"face areas sum to {total:.9g}, expected {want:.9g}")
