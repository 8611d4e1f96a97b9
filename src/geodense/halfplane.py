"""Geometry of the hyperbolic upper half-plane.

Points are complex numbers with positive imaginary part.  Boundary points
are floats, with ``math.inf`` standing for the point at infinity.  Geodesics
are Euclidean semicircles centered on the real axis or vertical rays, and
carry an orientation together with a unit-speed arclength parameter.

Parameter conventions:
  * vertical through a, oriented up: point(s) = a + i e^s
  * semicircle center c radius r, oriented from c+r to c-r:
    point(s) = c + r e^{i phi} with phi = 2 atan(e^s)
so the parameter of a point splits as log|z - e_back| - log|z - e_fwd| up to
the cases at infinity.

The value classes (GeodesicLine, GeodesicSegment, Horocycle, Isometry)
are slotted dataclasses, cheap to build in a trace step's inner loop.
They are immutable by convention: nothing outside a class's own body
assigns to its fields, which tests/test_packaging.py checks.  They
compare by value and do not hash.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import HorocyclesIntersect, NotHyperbolic
from .tolerances import TOL_ALG, TOL_GEO

INF = math.inf


def clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if x < lo else hi if x > hi else x


# ---------------------------------------------------------------------------
# distances between points

def dist(z1: complex, z2: complex) -> float:
    """Hyperbolic distance between two points of the upper half-plane.

    As 2 asinh(|z1 - z2| / (2 sqrt(y1 y2))) it resolves points closer
    than 1e-8, where acosh of a cosh rounded to 1 gives 0.
    """
    return 2.0 * math.asinh(abs(z1 - z2)
                            / (2.0 * math.sqrt(z1.imag * z2.imag)))


def angle_between(u: complex, v: complex) -> float:
    """Angle in [0, pi] between two nonzero tangent vectors at a point."""
    d = (u.real * v.real + u.imag * v.imag) / (abs(u) * abs(v))
    return math.acos(clamp(d))


def folded_angle(u: complex, v: complex) -> float:
    """Angle in [0, pi/2] between the unoriented lines spanned by u and v."""
    a = angle_between(u, v)
    return a if a <= math.pi / 2 else math.pi - a


# ---------------------------------------------------------------------------
# geodesic lines

@dataclass(slots=True)
class GeodesicLine:
    """Oriented complete geodesic.

    ``is_vertical`` selects the vertical case; then ``foot`` is the real
    basepoint and ``up`` the orientation.  Otherwise ``center``/``radius``
    describe the semicircle and ``pos_to_neg`` is True when the orientation
    runs from center+radius to center-radius.
    """

    is_vertical: bool
    foot: float = 0.0
    up: bool = True
    center: float = 0.0
    radius: float = 0.0
    pos_to_neg: bool = True

    # -- constructors -------------------------------------------------------

    @staticmethod
    def vertical(a: float, up: bool = True) -> "GeodesicLine":
        return GeodesicLine(is_vertical=True, foot=a, up=up)

    @staticmethod
    def circle(c: float, r: float, pos_to_neg: bool = True) -> "GeodesicLine":
        if r <= 0:
            raise ValueError("radius must be positive")
        return GeodesicLine(is_vertical=False, center=c, radius=r,
                            pos_to_neg=pos_to_neg)

    @staticmethod
    def from_endpoints(e_back: float, e_fwd: float) -> "GeodesicLine":
        """Geodesic oriented from boundary point e_back to e_fwd."""
        if math.isinf(e_back) and math.isinf(e_fwd):
            raise ValueError("coincident ideal endpoints")
        if math.isinf(e_fwd):
            return GeodesicLine.vertical(e_back, up=True)
        if math.isinf(e_back):
            return GeodesicLine.vertical(e_fwd, up=False)
        if abs(e_back - e_fwd) <= TOL_ALG * max(1.0, abs(e_back)):
            raise ValueError("coincident ideal endpoints")
        c = 0.5 * (e_back + e_fwd)
        r = 0.5 * abs(e_back - e_fwd)
        return GeodesicLine.circle(c, r, pos_to_neg=(e_back > e_fwd))

    @staticmethod
    def from_points(z1: complex, z2: complex) -> "GeodesicLine":
        """Geodesic through two distinct points, oriented z1 -> z2."""
        if abs(z1 - z2) <= TOL_GEO:
            raise ValueError("coincident points")
        dx = z2.real - z1.real
        if dx == 0.0:
            return GeodesicLine.vertical(0.5 * (z1.real + z2.real),
                                         up=(z2.imag > z1.imag))
        # center equidistant from both points, kept exact far out
        c = 0.5 * ((z1.real + z2.real)
                   + (z2.imag - z1.imag) * (z2.imag + z1.imag) / dx)
        r = abs(z1 - c)
        # floats place a huge circle only to about ulp(r), a sinh distance
        # of ulp(r)/y at height y; the vertical line through the weighted
        # foot misses both points by |dx|/(y1 + y2), so take it when closer
        y1, y2 = z1.imag, z2.imag
        if abs(dx) * min(y1, y2) <= math.ulp(r) * (y1 + y2):
            return GeodesicLine.vertical((z1.real * y2 + z2.real * y1)
                                         / (y1 + y2), up=(y2 > y1))
        # forward tangent at z1 along pos_to_neg is i(z1-c)/r
        t = 1j * (z1 - c) / r
        dot = t.real * dx + t.imag * (z2.imag - z1.imag)
        return GeodesicLine.circle(c, r, pos_to_neg=(dot > 0))

    @staticmethod
    def from_point_direction(z: complex, u: complex) -> "GeodesicLine":
        """Geodesic through z with forward unit tangent parallel to u."""
        if abs(u) <= TOL_GEO:
            raise ValueError("zero direction")
        if abs(u.real) <= TOL_GEO * abs(u):
            return GeodesicLine.vertical(z.real, up=(u.imag > 0))
        c = z.real + z.imag * (u.imag / u.real)
        r = abs(z - c)
        t = 1j * (z - c) / r
        dot = t.real * u.real + t.imag * u.imag
        return GeodesicLine.circle(c, r, pos_to_neg=(dot > 0))

    # -- endpoints ----------------------------------------------------------

    @property
    def endpoint_fwd(self) -> float:
        if self.is_vertical:
            return INF if self.up else self.foot
        return self.center - self.radius if self.pos_to_neg \
            else self.center + self.radius

    @property
    def endpoint_back(self) -> float:
        if self.is_vertical:
            return self.foot if self.up else INF
        return self.center + self.radius if self.pos_to_neg \
            else self.center - self.radius

    @property
    def ends(self) -> tuple[float, float]:
        """Both endpoints in increasing order, INF last."""
        if self.is_vertical:
            return self.foot, INF
        return self.center - self.radius, self.center + self.radius

    def reversed(self) -> "GeodesicLine":
        if self.is_vertical:
            return GeodesicLine.vertical(self.foot, up=not self.up)
        return GeodesicLine.circle(self.center, self.radius,
                                   pos_to_neg=not self.pos_to_neg)

    # -- parametrization ----------------------------------------------------

    def point_at(self, s: float) -> complex:
        if self.is_vertical:
            return complex(self.foot, math.exp(s if self.up else -s))
        # measured from the nearer endpoint, since center + r cos(phi)
        # cancels on a near-vertical circle
        t = math.exp(-abs(s))
        y = 2.0 * self.radius * t / (1.0 + t * t)
        if (s <= 0.0) == self.pos_to_neg:
            return complex(self.center + self.radius - y * t, y)
        return complex(self.center - self.radius + y * t, y)

    def tangent_at(self, s: float) -> complex:
        """Forward unit tangent (Euclidean) at the point with parameter s."""
        if self.is_vertical:
            return 1j if self.up else -1j
        phi = 2.0 * math.atan(math.exp(s if self.pos_to_neg else -s))
        t = 1j * cmath.exp(1j * phi)
        return t if self.pos_to_neg else -t

    def param_of(self, z: complex) -> float:
        """Arclength parameter of the orthogonal projection of z."""
        if self.is_vertical:
            s = math.log(abs(z - self.foot))
            return s if self.up else -s
        p = self.center + self.radius   # back end when pos_to_neg
        q = self.center - self.radius
        s = math.log(abs(z - p)) - math.log(abs(z - q))
        return s if self.pos_to_neg else -s

    # -- metric queries ------------------------------------------------------

    def signed_sinh_dist(self, z: complex) -> float:
        """sinh of the distance from z, signed by the side of the line.

        Positive on the left of the oriented line (the side the rotated
        tangent i*t points into).
        """
        if self.is_vertical:
            v = (self.foot - z.real) / z.imag
            return v if self.up else -v
        v = (z.imag * z.imag - _sq_gap(self.radius, z.real, self.center)) \
            / (2.0 * self.radius * z.imag)
        return -v if self.pos_to_neg else v

    def dist_to(self, z: complex) -> float:
        return math.asinh(abs(self.signed_sinh_dist(z)))

    def contains(self, z: complex, tol: float = TOL_GEO) -> bool:
        return abs(self.signed_sinh_dist(z)) <= tol


def same_line(l1: GeodesicLine, l2: GeodesicLine, tol: float = TOL_GEO) -> bool:
    """True when the two lines coincide as unoriented geodesics."""
    if l1.is_vertical != l2.is_vertical:
        return False
    if l1.is_vertical:
        return abs(l1.foot - l2.foot) <= tol
    return abs(l1.center - l2.center) <= tol and \
        abs(l1.radius - l2.radius) <= tol


# ---------------------------------------------------------------------------
# intersections and crossings

# Endpoints x, y are shared when the boundary angles 2 atan x and 2 atan y
# are within TOL_ALG on the circle, inf at angle pi wrapping round to -inf:
# as tan(atan x - atan y) is (x - y) / (1 + xy), that is
# |x - y| <= t |1 + xy|, t = tan(TOL_ALG / 2), and |x| >= 1/t against inf.
_SHARED_TAN = math.tan(0.5 * TOL_ALG)
_SHARED_WITH_INF = 1.0 / _SHARED_TAN


def _same_end(x: float, y: float) -> bool:
    if math.isinf(x):
        return math.isinf(y) or abs(y) >= _SHARED_WITH_INF
    if math.isinf(y):
        return abs(x) >= _SHARED_WITH_INF
    return abs(x - y) <= _SHARED_TAN * abs(1.0 + x * y)


def lines_cross(l1: GeodesicLine, l2: GeodesicLine) -> bool:
    """True when the complete geodesics intersect transversally.

    Decided on the extended real line: the lines cross when exactly one
    endpoint of l2 lies strictly between the endpoints of l1.  Shared
    endpoints (``_same_end``) count as non-crossing; that rule is only
    run on lines that pass the cheap interleave test.  The lower ends a
    and c are finite, so pairs of finite ends are compared inline, and
    ``_same_end`` is called only when an upper end is INF.  The ends
    are read off the fields, as ``GeodesicLine.ends`` gives them.
    """
    if l1.is_vertical:
        a, b = l1.foot, INF
    else:
        a, b = l1.center - l1.radius, l1.center + l1.radius
    if l2.is_vertical:
        c, d = l2.foot, INF
    else:
        c, d = l2.center - l2.radius, l2.center + l2.radius
    if (a < c < b) == (a < d < b):
        return False
    t = _SHARED_TAN
    if abs(a - c) <= t * abs(1.0 + a * c):
        return False
    if b == INF or d == INF:
        return not (_same_end(a, d) or _same_end(b, c) or _same_end(b, d))
    return not (abs(a - d) <= t * abs(1.0 + a * d)
                or abs(b - c) <= t * abs(1.0 + b * c)
                or abs(b - d) <= t * abs(1.0 + b * d))


def _sq_gap(r: float, a: float, b: float) -> float:
    """r^2 - (a - b)^2 without cancellation.

    Factored as (r - d)(r + d), with d = a - b split exactly into its
    rounded value and rounding error (two-sum), so that a near-vertical
    circle (r and |a - b| both huge and close) keeps its small difference.
    The steps are plain arithmetic, so NumPy arrays work elementwise.
    """
    d = a - b
    bb = a - d
    e = (a - (d + bb)) + (bb - b)
    return ((r - d) - e) * ((r + d) + e)


def intersect_lines(l1: GeodesicLine, l2: GeodesicLine):
    """Intersection point of two geodesics, or None if disjoint.

    The height is taken from the smaller circle, and every r^2 - d^2 is
    formed as (r - d)(r + d) with d exact (``_sq_gap``): for a
    near-vertical line of radius ~1e7 the plain r^2 - d^2 cancels to a
    few digits.  The smaller circle is chosen by (radius, center), so the
    result does not depend on argument order.
    """
    if l1.is_vertical and l2.is_vertical:
        return None
    if l1.is_vertical or l2.is_vertical:
        v, c = (l1, l2) if l1.is_vertical else (l2, l1)
        y2 = _sq_gap(c.radius, v.foot, c.center)
        if y2 <= TOL_ALG ** 2:
            return None
        return complex(v.foot, math.sqrt(y2))
    if l1.radius < l2.radius or (l1.radius == l2.radius
                                 and l1.center <= l2.center):
        s, b = l1, l2
    else:
        s, b = l2, l1
    d = s.center - b.center
    if abs(d) <= TOL_ALG:
        return None
    # offset of the crossing from the smaller circle's center
    x = (_sq_gap(b.radius, s.center, b.center) - s.radius ** 2) / (2.0 * d)
    y2 = (s.radius - x) * (s.radius + x)
    if y2 <= TOL_ALG ** 2:
        return None
    return complex(s.center + x, math.sqrt(y2))


def crossing_angle(l1: GeodesicLine, l2: GeodesicLine, z: complex) -> float:
    """Unoriented crossing angle in (0, pi/2] at a common point z."""
    u = l1.tangent_at(l1.param_of(z))
    v = l2.tangent_at(l2.param_of(z))
    return folded_angle(u, v)


# ---------------------------------------------------------------------------
# segments

@dataclass(slots=True)
class GeodesicSegment:
    """Directed compact arc of a geodesic: parameters s0 <= s <= s1."""

    line: GeodesicLine
    s0: float
    s1: float

    def __post_init__(self):
        if self.s1 < self.s0 - TOL_GEO:
            raise ValueError("segment parameters out of order")

    @staticmethod
    def between(z1: complex, z2: complex) -> "GeodesicSegment":
        line = GeodesicLine.from_points(z1, z2)
        a = line.param_of(z1)
        b = line.param_of(z2)
        return GeodesicSegment(line, min(a, b), max(a, b))

    @property
    def start(self) -> complex:
        return self.line.point_at(self.s0)

    @property
    def end(self) -> complex:
        return self.line.point_at(self.s1)

    @property
    def length(self) -> float:
        return self.s1 - self.s0

    def point_at(self, s: float) -> complex:
        return self.line.point_at(s)

    def point_at_fraction(self, t: float) -> complex:
        return self.line.point_at(self.s0 + t * (self.s1 - self.s0))

    def contains_param(self, s: float, tol: float = TOL_GEO) -> bool:
        return self.s0 - tol <= s <= self.s1 + tol

    def reversed(self) -> "GeodesicSegment":
        return GeodesicSegment(self.line.reversed(), -self.s1, -self.s0)

    def subsegment(self, a: float, b: float) -> "GeodesicSegment":
        return GeodesicSegment(self.line, a, b)

    def dist_to_point(self, z: complex) -> float:
        # clamping the projection parameter stays finite even for
        # segments with ideal ends (infinite parameter window)
        s = clamp(self.line.param_of(z), self.s0, self.s1)
        return dist(z, self.line.point_at(s))


def segments_cross(g1: GeodesicSegment, g2: GeodesicSegment):
    """Transversal interior crossing point of two segments, or None."""
    if same_line(g1.line, g2.line):
        return None
    z = intersect_lines(g1.line, g2.line)
    if z is None:
        return None
    s1 = g1.line.param_of(z)
    s2 = g2.line.param_of(z)
    if g1.s0 + TOL_GEO < s1 < g1.s1 - TOL_GEO \
            and g2.s0 + TOL_GEO < s2 < g2.s1 - TOL_GEO:
        return z
    return None


# ---------------------------------------------------------------------------
# horocycles

@dataclass(slots=True)
class Horocycle:
    """Horocycle based at a boundary point.

    For a finite base this is the Euclidean circle of diameter ``size``
    tangent to the real axis; for the base at infinity it is the horizontal
    line at height ``size``.
    """

    base: float
    size: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("horocycle size must be positive")

    @staticmethod
    def through(base: float, z: complex) -> "Horocycle":
        if math.isinf(base):
            return Horocycle(base, z.imag)
        return Horocycle(base, abs(z - base) ** 2 / z.imag)

    def contains_in_ball(self, z: complex, tol: float = TOL_GEO) -> bool:
        """Is z inside or on the closed horoball."""
        if math.isinf(self.base):
            return z.imag >= self.size - tol
        c = complex(self.base, 0.5 * self.size)
        return abs(z - c) <= 0.5 * self.size + tol

    def on_horocycle(self, z: complex, tol: float = TOL_GEO) -> bool:
        if math.isinf(self.base):
            return abs(z.imag - self.size) <= tol
        c = complex(self.base, 0.5 * self.size)
        return abs(abs(z - c) - 0.5 * self.size) <= tol

    def tangent_at(self, z: complex) -> complex:
        """A unit Euclidean tangent direction of the horocycle at z."""
        if math.isinf(self.base):
            return 1.0 + 0.0j
        c = complex(self.base, 0.5 * self.size)
        v = z - c
        return 1j * v / abs(v)


def horoball_gap(h1: Horocycle, h2: Horocycle) -> float:
    """Signed distance between two horoballs along their common geodesic.

    Positive when the closed horoballs are disjoint.
    """
    if math.isinf(h1.base) and math.isinf(h2.base):
        raise ValueError("horoballs share the base point")
    if math.isinf(h1.base) or math.isinf(h2.base):
        top, fin = (h1, h2) if math.isinf(h1.base) else (h2, h1)
        return math.log(top.size) - math.log(fin.size)
    if abs(h1.base - h2.base) <= TOL_ALG:
        raise ValueError("horoballs share the base point")
    return 2.0 * math.log(abs(h1.base - h2.base)) \
        - math.log(h1.size) - math.log(h2.size)


def angle_with_horocycle(line: GeodesicLine, h: Horocycle,
                         z: complex) -> float:
    """Angle in [0, pi/2] between a geodesic and a horocycle at a common z."""
    u = line.tangent_at(line.param_of(z))
    return folded_angle(u, h.tangent_at(z))


def _clears_horoball(line: GeodesicLine, h: Horocycle) -> bool:
    """Does the line miss the disc of a finite-base horoball?

    The disc has center (base, size/2) and radius size/2; the line's
    circle misses it, passing outside it or around it, when the distance
    between the centers differs from the line's radius by more than
    size/2.  A relative 1e-9 margin leaves near-tangent lines to the
    exact crossing test.
    """
    rad = 0.5 * h.size
    if line.is_vertical:
        return abs(line.foot - h.base) > rad * (1.0 + 1e-9)
    gap = abs(math.hypot(line.center - h.base, rad) - line.radius)
    return gap > rad * (1.0 + 1e-9) + 1e-9 * line.radius


def line_horocycle_crossings(line: GeodesicLine,
                             h: Horocycle) -> list[tuple[float, complex]]:
    """Transverse crossings of a geodesic with a horocycle, as (param,
    point) pairs sorted by line parameter.

    A geodesic ending at the base point crosses once; one missing the
    horoball entirely crosses zero times; tangency counts as none.
    """
    if math.isinf(h.base):
        c = h.size
        if line.is_vertical:
            s = math.log(c) if line.up else -math.log(c)
            return [(s, complex(line.foot, c))]
        if line.radius <= c:
            return []
        dx = math.sqrt(line.radius ** 2 - c * c)
        out = []
        for x in (line.center - dx, line.center + dx):
            z = complex(x, c)
            out.append((line.param_of(z), z))
        out.sort(key=lambda t: t[0])
        return out
    if _clears_horoball(line, h):
        return []
    # send the base to infinity; the horocycle becomes the height 1/size
    to_inf = Isometry(0.0, 1.0, -1.0, h.base)
    img = to_inf.apply_line(line)
    back = to_inf.inverse()
    out = []
    for _, w in line_horocycle_crossings(img, Horocycle(INF, 1.0 / h.size)):
        z = back.apply(w)
        out.append((line.param_of(z), z))
    out.sort(key=lambda t: t[0])
    return out


def horocycle_perpendicular(h1: Horocycle, h2: Horocycle) -> GeodesicSegment:
    """Common perpendicular segment between two disjoint horocycles.

    Runs along the geodesic joining the base points, from h1 to h2; its
    length equals the horoball gap.  Along this geodesic the horocycle
    size through the moving point decays exponentially, which gives the
    endpoint parameters in closed form.
    """
    gap = horoball_gap(h1, h2)
    if gap <= TOL_ALG:
        raise HorocyclesIntersect(f"horoball gap {gap:.3g} is not positive")
    line = GeodesicLine.from_endpoints(h1.base, h2.base)
    if math.isinf(h1.base):
        # vertical, oriented down toward h2.base: point(s) = base + i e^{-s}
        s1 = -math.log(h1.size)
        s2 = -math.log(h2.size)
    elif math.isinf(h2.base):
        s1 = math.log(h1.size)
        s2 = math.log(h2.size)
    else:
        # at the circle top the horocycle size through the point is 2r
        # for either base; it shrinks as e^{-|s|} toward each end
        two_r = 2.0 * line.radius
        s1 = math.log(h1.size / two_r)
        s2 = math.log(two_r / h2.size)
    return GeodesicSegment(line, s1, s2)


# ---------------------------------------------------------------------------
# isometries

@dataclass(slots=True)
class Isometry:
    """Orientation-preserving isometry of the upper half-plane,
    z -> (az+b)/(cz+d) with ad-bc = 1.

    The deck groups of the catalog surfaces contain no other kind.
    """

    a: float
    b: float
    c: float
    d: float

    @staticmethod
    def translation(t: float) -> "Isometry":
        return Isometry(1.0, t, 0.0, 1.0)

    @staticmethod
    def point_frame(z: complex, u: complex) -> "Isometry":
        """The unique direct isometry taking (i, up) to (z, direction of u).

        Composing ``point_frame(z2, u2) @ point_frame(z1, u1).inverse()``
        gives the unique direct isometry taking one pointed frame to the
        other, which is how local coordinate charts are moved around.
        """
        x, y = z.real, z.imag
        if y <= 0:
            raise ValueError("frame base point must be in the upper half-plane")
        ry = math.sqrt(y)
        shift = Isometry(ry, x / ry, 0.0, 1.0 / ry)
        phi = math.atan2(u.imag, u.real) - 0.5 * math.pi
        ch, sh = math.cos(0.5 * phi), math.sin(0.5 * phi)
        return shift @ Isometry(ch, sh, -sh, ch)

    def normalized(self) -> "Isometry":
        """Scale so det = 1; det <= 0 does not preserve the half-plane
        and is refused.  The global sign is left as it comes: a matrix
        and its negative act alike."""
        dt = self.a * self.d - self.b * self.c
        if not dt > 0:
            raise ValueError(f"determinant {dt:+.3g} is not positive")
        s = 1.0 / math.sqrt(dt)
        return Isometry(self.a * s, self.b * s, self.c * s, self.d * s)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product)."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return Isometry(a, b, c, d).normalized()

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a).normalized()

    # -- actions ------------------------------------------------------------

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply_boundary(self, x: float) -> float:
        if math.isinf(x):
            return self.a / self.c if abs(self.c) > TOL_ALG else INF
        den = self.c * x + self.d
        if abs(den) <= TOL_ALG * max(1.0, abs(x)):
            return INF
        return (self.a * x + self.b) / den

    def apply_tangent(self, z: complex, u: complex) -> complex:
        """Image of a tangent vector u at z, returned as a unit vector."""
        den = self.c * z + self.d
        v = u / (den * den)
        return v / abs(v)

    def apply_line(self, line: GeodesicLine) -> GeodesicLine:
        e1 = self.apply_boundary(line.endpoint_back)
        e2 = self.apply_boundary(line.endpoint_fwd)
        return GeodesicLine.from_endpoints(e1, e2)

    def apply_horocycle(self, h: Horocycle) -> Horocycle:
        base = self.apply_boundary(h.base)
        probe = complex(0.0, h.size) if math.isinf(h.base) \
            else complex(h.base, h.size)          # a point on the horocycle
        return Horocycle.through(base, self.apply(probe))


# ---------------------------------------------------------------------------
# integer matrices and their axes

# z -> (az + b) / (cz + d) as (a, b, c, d) in Python ints, ad - bc = 1
IntMatrix = tuple[int, int, int, int]


def mat_mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    """x after y (matrix product)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def mat_inv(x: IntMatrix) -> IntMatrix:
    """The inverse of a determinant-1 matrix, its adjugate."""
    a, b, c, d = x
    return d, -b, -c, a


def to_isometry(m: IntMatrix) -> Isometry:
    return Isometry(*map(float, m))


def axis_root(t: int) -> tuple[int, int]:
    """(k, isqrt((t^2 - 4) 4^k)), k = bits(t^2 - 4) + 64: the scaled root
    axis takes the ends of a matrix of trace t from.  |t| <= 2 raises
    NotHyperbolic."""
    if abs(t) <= 2:
        raise NotHyperbolic(f"trace {t} is not hyperbolic: |tr| <= 2")
    k = (t * t - 4).bit_length() + 64
    return k, math.isqrt((t * t - 4) << 2 * k)


def axis(m: IntMatrix,
         root: tuple[int, int] | None = None) -> tuple[GeodesicLine, float]:
    """The axis of an integer matrix, repelling end to attracting end,
    and its length 2 acosh(|tr| / 2); |tr| <= 2 raises NotHyperbolic.

    The ends (a - d -+ sign(tr) sqrt(tr^2 - 4)) / 2c are each one
    rounded integer division, with the root scaled by 2^k, k = bits(D)
    + 64, so each is the nearest float but at a near-tie (c = 0 forces
    |tr| = 2).  A caller that takes the axes of many conjugates, which
    share the trace, passes axis_root of it once as root.
    """
    a, b, c, d = m
    t = a + d
    k, root = axis_root(t) if root is None else root
    if t < 0:
        root = -root
    line = GeodesicLine.from_endpoints(
        (((a - d) << k) - root) / (c << k + 1),
        (((a - d) << k) + root) / (c << k + 1))
    # t / 2 overflows a float near 2^1024; from 2^1000 on, acosh(t / 2)
    # is log t to 2^-2000
    t = abs(t)
    return line, 2.0 * (math.acosh(t / 2) if t < 2 ** 1000 else math.log(t))
