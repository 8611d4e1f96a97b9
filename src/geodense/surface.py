"""Surface models: polygon, side pairings, cusp charts, point reduction.

A model is built from a raw catalog entry and validated geometrically:
side pairings must match endpoints, cusp words must be parabolic and act
as unit translations in their charts, the relator must collapse to the
identity, and the polygon area must match the Euler characteristic.

The polygon is convex with counterclockwise vertex order, so membership
is the intersection of the half-planes left of each oriented side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .catalog import CATALOG, SurfaceSpec, surface_names
from .errors import InvalidSurface, RelatorFails, TraceError
from .halfplane import (
    INF,
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    IntMatrix,
    Isometry,
    angle_between,
    mat_inv,
    mat_mul,
    to_isometry,
)
from .tolerances import TOL_ALG, TOL_GEO, TOL_LOOSE
from .words import inverse_word

# a point reduction taking more steps than this has failed to terminate
NORMALIZE_STEPS = 20000


def _is_ideal(v) -> bool:
    return not isinstance(v, complex)


def _unimodular(m, what: str) -> IntMatrix:
    """A catalog matrix ((a, b), (c, d)) as ints (a, b, c, d), refused
    unless integral with ad - bc = 1."""
    (a, b), (c, d) = m
    if not all(float(v).is_integer() for v in (a, b, c, d)) \
            or a * d - b * c != 1:
        raise InvalidSurface(f"{what} {m!r} is not integral and unimodular")
    return int(a), int(b), int(c), int(d)


def line_through_vertices(v_start, v_end) -> GeodesicLine:
    """Oriented geodesic from one polygon vertex to the next; vertices
    may be ideal (floats) or finite (complex)."""
    si, ei = _is_ideal(v_start), _is_ideal(v_end)
    if si and ei:
        return GeodesicLine.from_endpoints(v_start, v_end)
    if si and not ei:
        z = v_end
        if math.isinf(v_start):
            return GeodesicLine.vertical(z.real, up=False)
        if abs(z.real - v_start) <= TOL_ALG:
            return GeodesicLine.vertical(z.real, up=True)
        c = (abs(z) ** 2 - v_start ** 2) / (2.0 * (z.real - v_start))
        return GeodesicLine.from_endpoints(v_start, 2.0 * c - v_start)
    if ei and not si:
        return line_through_vertices(v_end, v_start).reversed()
    return GeodesicLine.from_points(v_start, v_end)


def chart_top(chart: Isometry, line: GeodesicLine, a, b) -> float:
    """Highest point reached in a cusp chart by the arc of line from a
    to b.

    Each end is a complex point or a float ideal point, as polygon
    vertices are.  An end the chart sends to infinity, or to modulus
    above 1e12, gives inf.
    """
    xs = []
    top = 0.0
    for v in (a, b):
        w = complex(chart.apply_boundary(v)) if _is_ideal(v) \
            else chart.apply(v)
        if abs(w) > 1e12:
            return math.inf
        xs.append(w.real)
        top = max(top, w.imag)
    line = chart.apply_line(line)
    # x runs monotonically along a half-circle arc, so the apex is on
    # the arc exactly when the center sits between the ends
    if not line.is_vertical and min(xs) < line.center < max(xs):
        top = max(top, line.radius)
    return top


@dataclass(slots=True, eq=False)
class Side:
    """One polygon side with its pairing.

    lo < hi are the ends of the side's line, and outer says whether the
    open boundary interval (lo, hi) lies outside the polygon: a ray
    leaves across a side only from its inner arc to its outer arc.
    """

    index: int
    line: GeodesicLine          # oriented from vertex index to index+1
    s_lo: float                 # parameter window; may be -inf / +inf
    s_hi: float
    word: str
    matrix: IntMatrix           # the pairing, onto the partner side
    partner: int
    # derived from the fields above, which alone the repr shows
    segment: GeodesicSegment = field(init=False, repr=False)
    pairing: Isometry = field(init=False, repr=False)
    lo: float = field(init=False, repr=False)
    hi: float = field(init=False, repr=False)
    outer: bool = field(init=False, repr=False)

    def __post_init__(self):
        ln = self.line
        self.segment = GeodesicSegment(ln, self.s_lo, self.s_hi)
        self.pairing = to_isometry(self.matrix)
        self.lo, self.hi = ln.ends
        self.outer = ln.up if ln.is_vertical else not ln.pos_to_neg


@dataclass(slots=True, eq=False)
class Cusp:
    """One cusp with its chart to infinity."""

    index: int
    vertex: float
    vertex_index: int
    matrix: IntMatrix           # the chart: vertex -> inf, word -> z + width
    width: float                # an integer
    word: str
    strip_lo: float             # chart image of the polygon corner wedge:
                                # vertical strip [strip_lo, strip_lo + width]
    walls: tuple[int, int]      # sides on x = strip_lo, x = strip_lo + width
    # derived from matrix, which the repr shows in their place
    chart: Isometry = field(init=False, repr=False)
    chart_inv: Isometry = field(init=False, repr=False)

    def __post_init__(self):
        self.chart = to_isometry(self.matrix)
        self.chart_inv = self.chart.inverse()

    def shift_matrix(self, k: int) -> IntMatrix:
        """The cusp parabolic moving the chart by k widths, chart^-1 @
        (1, k width; 0, 1) @ chart: wall walls[0]'s pairing k times."""
        return mat_mul(mat_inv(self.matrix),
                       mat_mul((1, k * int(self.width), 0, 1), self.matrix))

    def jump(self, side: int) -> int:
        """Widths the chart moves when a walk crosses a wall: +1 through
        the left wall, -1 through the right one."""
        return 1 if side == self.walls[0] else -1


class SurfaceModel:
    """A punctured hyperbolic surface given by a convex polygon with
    side pairings, ready for point reduction and tracing."""

    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        self.name = spec.name
        self.base_point = spec.base_point
        self.gens: dict[str, IntMatrix] = {}
        for ch, m in zip(spec.gen_names, spec.gen_matrices):
            g = _unimodular(m, f"generator {ch}")
            self.gens[ch], self.gens[ch.upper()] = g, mat_inv(g)
        self.sides = self._build_sides()
        self.cusps = self._build_cusps()
        self.wall_cusps = {s: c for c in self.cusps for s in c.walls}
        self._validate()

    # -- words ---------------------------------------------------------------

    def word_matrix(self, word: str) -> IntMatrix:
        """Integer matrix of a word; "xy" acts as x after y."""
        m = (1, 0, 0, 1)
        for ch in word:
            if ch not in self.gens:
                raise ValueError(f"unknown generator letter {ch!r}")
            m = mat_mul(m, self.gens[ch])
        return m

    # -- construction --------------------------------------------------------

    def _build_sides(self) -> tuple[Side, ...]:
        spec = self.spec
        k = len(spec.vertices)
        sides = []
        for i in range(k):
            v0 = spec.vertices[i]
            v1 = spec.vertices[(i + 1) % k]
            line = line_through_vertices(v0, v1)
            s_lo = -INF if _is_ideal(v0) else line.param_of(v0)
            s_hi = INF if _is_ideal(v1) else line.param_of(v1)
            sides.append(Side(i, line, s_lo, s_hi, spec.side_words[i],
                              self.word_matrix(spec.side_words[i]),
                              spec.side_partners[i]))
        return tuple(sides)

    def _build_cusps(self) -> tuple[Cusp, ...]:
        spec = self.spec
        k = len(spec.vertices)
        cusps = []
        for j, cs in enumerate(spec.cusps):
            v = spec.vertices[cs.vertex_index]
            if not _is_ideal(v):
                raise InvalidSurface(f"cusp {j} vertex is not ideal")
            chart = _unimodular(cs.chart, f"cusp {j} chart")
            # the two sides meeting the vertex map to the walls of a
            # vertical strip of the chart width
            before = self.sides[(cs.vertex_index - 1) % k]
            after = self.sides[cs.vertex_index]
            feet = []
            for side in (before, after):
                img = to_isometry(chart).apply_line(side.line)
                if not img.is_vertical:
                    raise InvalidSurface(
                        f"cusp {j}: adjacent side {side.index} does not "
                        f"map to a chart wall")
                feet.append(img.foot)
            lo = min(feet)
            if abs(max(feet) - lo - cs.width) > TOL_GEO:
                raise InvalidSurface(
                    f"cusp {j}: wall separation {max(feet) - lo:.6g} does "
                    f"not match width {cs.width}")
            walls = (before.index, after.index) if feet[0] == lo \
                else (after.index, before.index)
            cusps.append(Cusp(j, v, cs.vertex_index, chart, cs.width,
                              cs.word, lo, walls))
        return tuple(cusps)

    # -- membership and levels ----------------------------------------------

    def side_signed_dists(self, z: complex) -> list[float]:
        """Each side line's signed_sinh_dist at z, bit for bit: that
        method's arithmetic, written out on the line's fields."""
        x, y = z.real, z.imag
        out = []
        for side in self.sides:
            ln = side.line
            if ln.is_vertical:
                v = (ln.foot - x) / y
                if not ln.up:
                    v = -v
            else:
                # r^2 - (x - k)^2 as halfplane._sq_gap forms it
                k, r = ln.center, ln.radius
                d = x - k
                bb = x - d
                e = (x - (d + bb)) + (bb - k)
                v = (y * y - ((r - d) - e) * ((r + d) + e)) / (2.0 * r * y)
                if ln.pos_to_neg:
                    v = -v
            out.append(v)
        return out

    def inside(self, z: complex, tol: float = TOL_GEO) -> bool:
        """Is z in the closed polygon, each side line's signed_sinh_dist
        at least -tol?"""
        for v in self.side_signed_dists(z):
            # "not >=" so that a NaN distance counts as outside
            if not v >= -tol:
                return False
        return True

    def level(self, j: int, z: complex) -> float:
        """Length of the cusp-j horocycle through z, measured in the chart.

        Meaningful as a cusp excursion depth when z is the polygon
        representative of the point.
        """
        c = self.cusps[j]
        y = c.chart.apply(z).imag
        return c.width / y

    def levels(self, z: complex) -> list[float]:
        return [self.level(j, z) for j in range(len(self.cusps))]

    def min_level(self, z: complex) -> float:
        return min(self.levels(z))

    def in_truncation(self, z: complex, xi: float, tol: float = TOL_GEO) -> bool:
        """Is the polygon point z in the part bounded by the length-xi
        horocycles (outside all open xi-horoballs)."""
        return self.min_level(z) >= xi - tol

    def cusp_horocycle(self, j: int, length: float) -> Horocycle:
        """Horocycle of given length around cusp j, in polygon coordinates."""
        c = self.cusps[j]
        chart_h = Horocycle(INF, c.width / length)
        return c.chart_inv.apply_horocycle(chart_h)

    # -- reduction -----------------------------------------------------------

    def normalize(self, z: complex) -> tuple[complex, IntMatrix]:
        """Reduce a point of the half-plane into the polygon.

        Returns (point, m) with m the applied deck element as an integer
        matrix, the product of the side pairings and cusp shifts taken
        (point = m(z)).  The point itself is moved step by step; a move
        that rounds it off the half-plane raises TraceError.
        """
        if not (z.imag > 0.0 and math.isfinite(z.real)
                and math.isfinite(z.imag)):
            raise TraceError(f"cannot reduce {z}: not a point of the "
                             "half-plane")
        z0, m = z, (1, 0, 0, 1)
        for _ in range(NORMALIZE_STEPS):
            if not z.imag > 0.0:
                raise TraceError(f"cannot reduce {z0}: a move took it to "
                                 f"{z}, off the half-plane")
            dists = self.side_signed_dists(z)
            # inside(z): a NaN distance counts as outside
            if all(v >= -TOL_GEO for v in dists):
                return z, m
            moved = False
            for c in self.cusps:
                zc = c.chart.apply(z)
                if zc.imag > c.width:        # deeper than the unit horocycle
                    k = math.floor((zc.real - c.strip_lo) / c.width)
                    if k != 0:
                        shift = c.shift_matrix(-k)
                        z = to_isometry(shift).apply(z)
                        m = mat_mul(shift, m)
                        moved = True
                        break
            if moved:
                continue
            i = min(range(len(dists)), key=lambda t: dists[t])
            if dists[i] >= -TOL_GEO:
                return z, m
            side = self.sides[i]
            z = side.pairing.apply(z)
            m = mat_mul(side.matrix, m)
        raise TraceError(f"point reduction did not terminate for {z}")

    # -- validation ----------------------------------------------------------

    def _vertex_angle(self, i: int) -> float:
        """Interior angle at vertex i (0.0 at ideal vertices)."""
        if _is_ideal(self.spec.vertices[i]):
            return 0.0
        z = self.spec.vertices[i]
        k = len(self.spec.vertices)
        incoming = self.sides[(i - 1) % k]
        outgoing = self.sides[i]
        u = -incoming.line.tangent_at(incoming.line.param_of(z))
        v = outgoing.line.tangent_at(outgoing.line.param_of(z))
        return angle_between(u, v)

    def polygon_area(self) -> float:
        k = len(self.spec.vertices)
        return (k - 2) * math.pi - sum(self._vertex_angle(i) for i in range(k))

    def _match_vertex(self, image, vertex) -> bool:
        if _is_ideal(vertex):
            if math.isinf(vertex):
                return math.isinf(image) or abs(image) > 1e12
            return not math.isinf(image) and abs(image - vertex) <= TOL_LOOSE
        return abs(image - vertex) <= TOL_LOOSE

    def _validate(self) -> None:
        spec = self.spec
        k = len(spec.vertices)
        for s in self.sides:
            p = self.sides[s.partner]
            if p.partner != s.index:
                raise InvalidSurface(f"side pairing not involutive at {s.index}")
            if s.index != p.index and inverse_word(s.word) != p.word:
                raise InvalidSurface(
                    f"pairing words of sides {s.index}/{p.index} not inverse")
            # the pairing reverses boundary orientation: start -> end
            v0 = spec.vertices[s.index]
            v1 = spec.vertices[(s.index + 1) % k]
            w0 = spec.vertices[p.index]
            w1 = spec.vertices[(p.index + 1) % k]
            img0 = s.pairing.apply_boundary(v0) if _is_ideal(v0) \
                else s.pairing.apply(v0)
            img1 = s.pairing.apply_boundary(v1) if _is_ideal(v1) \
                else s.pairing.apply(v1)
            if not (self._match_vertex(img0, w1) and self._match_vertex(img1, w0)):
                raise InvalidSurface(
                    f"side {s.index} does not map onto side {s.partner}")

        for c in self.cusps:
            t = mat_mul(mat_mul(c.matrix, self.word_matrix(c.word)),
                        mat_inv(c.matrix))
            if t not in ((1, c.width, 0, 1), (-1, -c.width, 0, -1)):
                raise InvalidSurface(
                    f"cusp word {c.word!r} is not the chart translation")
            if not self._match_vertex(c.chart.apply_boundary(c.vertex), INF):
                raise InvalidSurface(f"cusp chart {c.index} misses infinity")
            # the walls pair with each other by the cusp word, so a walk
            # high in the cusp crosses them in closed form
            lo_wall = self.sides[c.walls[0]]
            if lo_wall.partner != c.walls[1] or lo_wall.word != c.word:
                raise InvalidSurface(
                    f"cusp {c.index} walls are not paired by its word")
            # every non-adjacent side must stay below the unit horocycle
            # of the chart, so deep points reduce inside the corner wedge
            adj = {(c.vertex_index - 1) % k, c.vertex_index}
            for s in self.sides:
                if s.index in adj:
                    continue
                top = chart_top(c.chart, s.line, spec.vertices[s.index],
                                spec.vertices[(s.index + 1) % k])
                if top >= c.width - TOL_GEO:
                    raise InvalidSurface(
                        f"side {s.index} climbs into the cusp {c.index} wedge")

        if self.word_matrix(spec.relator) not in ((1, 0, 0, 1), (-1, 0, 0, -1)):
            raise RelatorFails(f"relator {spec.relator!r} is not the identity")

        want = 2.0 * math.pi * (2 * spec.genus - 2 + spec.n_cusps)
        if abs(self.polygon_area() - want) > 1e-6:
            raise InvalidSurface(
                f"polygon area {self.polygon_area():.9g} does not match "
                f"Euler characteristic value {want:.9g}")

        if not self.inside(spec.base_point):
            raise InvalidSurface("base point is outside the polygon")


def load_surface(name: str) -> SurfaceModel:
    """Build and validate a catalog surface."""
    spec = CATALOG.get(name)
    if spec is None:
        raise ValueError(
            f"unknown surface {name!r}; available: {', '.join(surface_names())}")
    return SurfaceModel(spec)
