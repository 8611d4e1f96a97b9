import decimal
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geodense import halfplane
from geodense.errors import HorocyclesIntersect, NotHyperbolic
from geodense.halfplane import (
    horocycle_perpendicular,
    INF,
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    Isometry,
    angle_with_horocycle,
    axis,
    crossing_angle,
    dist,
    folded_angle,
    horoball_gap,
    intersect_lines,
    line_horocycle_crossings,
    lines_cross,
    mat_inv,
    mat_mul,
    segments_cross,
    to_isometry,
)
from geodense.tolerances import TOL_ALG, TOL_GEO, TOL_LOOSE

points = st.builds(
    complex,
    st.floats(-50.0, 50.0),
    st.floats(0.01, 50.0),
)

# random elements of SL(2,R): two affinely independent columns
matrices = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 1e-3)


# elements of SL(2,Z): products of up to eight elementary shears
int_matrices = st.lists(
    st.sampled_from(((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1),
                     (1, 0, -1, 1))), max_size=8,
).map(lambda ms: functools.reduce(mat_mul, ms, (1, 0, 0, 1)))


def direct(m):
    a, b, c, d = m
    if a * d - b * c < 0:
        a, b = -a, -b
    return Isometry(a, b, c, d).normalized()


def exact_crossing(l1, l2):
    """Crossing of the two stored lines in rational arithmetic, rounded
    once at the end."""
    if l1.is_vertical or l2.is_vertical:
        v, c = (l1, l2) if l1.is_vertical else (l2, l1)
        x = Fraction(v.foot)
        y2 = Fraction(c.radius) ** 2 - (x - Fraction(c.center)) ** 2
    else:
        c1, r1, c2, r2 = map(Fraction, (l1.center, l1.radius,
                                        l2.center, l2.radius))
        x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2 * (c2 - c1))
        y2 = r1 * r1 - (x - c1) ** 2
    assert y2 > 0
    return complex(float(x), math.sqrt(float(y2)))


def separated_exactly(l1, l2):
    """Do the endpoints of l2 separate those of l1?  Read from the sign
    of the cross ratio (a - c)(b - d) / ((a - d)(b - c)) in rational
    arithmetic; the two factors holding an endpoint at infinity cancel."""
    a, b = l1.endpoint_back, l1.endpoint_fwd
    c, d = l2.endpoint_back, l2.endpoint_fwd
    ratio = Fraction(1)
    for x, y, power in ((a, c, 1), (b, d, 1), (a, d, -1), (b, c, -1)):
        if not (math.isinf(x) or math.isinf(y)):
            ratio *= (Fraction(x) - Fraction(y)) ** power
    return ratio < 0


_T = math.tan(0.5 * TOL_ALG)   # the shared-endpoint tangent


def _same_end_ref(x, y):
    if math.isinf(x):
        return math.isinf(y) or abs(y) >= 1.0 / _T
    if math.isinf(y):
        return abs(x) >= 1.0 / _T
    return abs(x - y) <= _T * abs(1.0 + x * y)


def shared_rule_first(l1, l2):
    """lines_cross as first written: the shared-endpoint rule, then the
    interleave test."""
    a, b = l1.endpoint_back, l1.endpoint_fwd
    c, d = l2.endpoint_back, l2.endpoint_fwd
    if _same_end_ref(a, c) or _same_end_ref(a, d) or _same_end_ref(b, c) \
            or _same_end_ref(b, d):
        return False
    if b < a:
        a, b = b, a
    return (a < c < b) != (a < d < b)


@st.composite
def gap_triples(draw):
    """(r, a, b) for _sq_gap: b anywhere, or |a - b| within a millionth
    of r, where r^2 - (a - b)^2 cancels."""
    r = draw(st.floats(1e-3, 1e8))
    a = draw(st.floats(-1e8, 1e8))
    if draw(st.booleans()):
        return r, a, draw(st.floats(-1e8, 1e8))
    f = draw(st.floats(-1e-6, 1e-6))
    return r, a, a + draw(st.sampled_from([r, -r])) * (1.0 + f)


_ends = st.one_of(st.floats(-10, 10), st.floats(-1e8, 1e8),
                  st.sampled_from([INF, -INF]))


@st.composite
def line_pairs(draw):
    """Two lines with ends small, up to 1e8 or infinite, some of them
    the far end of a circle of radius up to 1e8 or within a few shared
    tolerances t (1 + xy) of an end of the other line."""
    e = []
    for _ in range(2):
        a = draw(_ends)
        if not math.isinf(a) and draw(st.booleans()):
            b = a + draw(st.sampled_from([2.0, -2.0])) \
                * draw(st.floats(1e-6, 1e8))
        else:
            b = draw(_ends)
        e += [a, b]
    for i in (2, 3):
        if draw(st.booleans()):
            x = e[draw(st.sampled_from([0, 1]))]
            f = draw(st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)))
            e[i] = 1.0 / (f * _T) if math.isinf(x) \
                else x + f * _T * (1.0 + x * x)
    try:
        return (GeodesicLine.from_endpoints(e[0], e[1]),
                GeodesicLine.from_endpoints(e[2], e[3]))
    except ValueError:   # coincident ends
        assume(False)


def _by_ends(a, b, c, d):
    """The lines from a to b and from c to d, as a line_pairs draw."""
    return (GeodesicLine.from_endpoints(a, b),
            GeodesicLine.from_endpoints(c, d))


class TestDist:
    def test_vertical_example(self):
        assert dist(1j, 4j) == pytest.approx(math.log(4.0), abs=TOL_GEO)

    def test_offset_example(self):
        assert dist(2 + 1j, 1j) == pytest.approx(math.acosh(3.0), abs=TOL_GEO)

    def test_resolves_small_distances(self):
        # an acosh of the cosh rounds to 0 below about 1.5e-8
        assert dist(0.3 + 1j, 0.3 + 1.00000001j) == \
            pytest.approx(math.log(1.00000001), rel=1e-12)

    @given(points)
    def test_self_distance(self, z):
        assert dist(z, z) == 0.0

    @given(points, points)
    def test_symmetry(self, z1, z2):
        assert dist(z1, z2) == pytest.approx(dist(z2, z1), abs=TOL_GEO)

    @given(points, points, points)
    def test_triangle(self, z1, z2, z3):
        assert dist(z1, z3) <= dist(z1, z2) + dist(z2, z3) + TOL_GEO

    @given(points, points, matrices)
    def test_isometry_invariance(self, z1, z2, m):
        g = direct(m)
        assert dist(g.apply(z1), g.apply(z2)) == \
            pytest.approx(dist(z1, z2), rel=1e-9, abs=TOL_LOOSE)


class TestLines:
    @given(points, points)
    # nearly vertical: the circle through both has radius 7e8, which
    # floats place only to within 2e-6 in sinh distance at height 1/32
    @example(9j, complex(2.0 ** -24, 2.0 ** -5))
    def test_through_points(self, z1, z2):
        if abs(z1 - z2) < 1e-3:
            return
        line = GeodesicLine.from_points(z1, z2)
        assert line.contains(z1, tol=1e-6 * max(1.0, abs(z1)))
        assert line.contains(z2, tol=1e-6 * max(1.0, abs(z2)))
        s1, s2 = line.param_of(z1), line.param_of(z2)
        assert s2 > s1
        assert s2 - s1 == pytest.approx(dist(z1, z2), rel=1e-9, abs=TOL_LOOSE)

    def test_low_points_on_a_small_circle(self):
        """Two points of the circle of center -0.0716 and radius 0.6122
        at heights 1.8e-5 and 1.1e-5: their real parts differ by 1.7e-10,
        under TOL_GEO, yet the vertical through them puts the segment's
        midpoint 1.4e-6 (sinh distance) off the circle."""
        true = GeodesicLine.circle(-0.0716, 0.6122)
        z1, z2 = (complex(true.center + math.sqrt((true.radius - y)
                                                  * (true.radius + y)), y)
                  for y in (1.8e-5, 1.1e-5))
        assert 0.0 < z2.real - z1.real < TOL_GEO
        seg = GeodesicSegment.between(z1, z2)
        mid = seg.point_at(0.5 * (seg.s0 + seg.s1))
        assert abs(true.signed_sinh_dist(mid)) < 1e-11

    @given(points, points)
    def test_point_at_roundtrip(self, z1, z2):
        if abs(z1 - z2) < 1e-3:
            return
        line = GeodesicLine.from_points(z1, z2)
        assert abs(line.point_at(line.param_of(z1)) - z1) < \
            TOL_LOOSE * max(1.0, abs(z1))

    @given(points, st.floats(0.0, 2 * math.pi))
    def test_from_direction(self, z, theta):
        u = complex(math.cos(theta), math.sin(theta))
        line = GeodesicLine.from_point_direction(z, u)
        t = line.tangent_at(line.param_of(z))
        assert abs(t - u) < 1e-6

    def test_unit_speed(self):
        line = GeodesicLine.circle(2.0, 3.0)
        z1 = line.point_at(0.4)
        z2 = line.point_at(1.9)
        assert dist(z1, z2) == pytest.approx(1.5, abs=TOL_GEO)

    @given(points, points, points)
    # a circle of radius 1.25e9 through two points near the imaginary
    # axis: point_at must not cancel on it
    @example(0.0625j, 9.500172576266567e-07 + 48.75j, 0.25j)
    def test_projection_is_nearest(self, z1, z2, w):
        if abs(z1 - z2) < 1e-3:
            return
        line = GeodesicLine.from_points(z1, z2)
        foot = line.point_at(line.param_of(w))
        d = line.dist_to(w)
        assert dist(w, foot) == pytest.approx(d, rel=1e-7, abs=TOL_LOOSE)
        # nearby points of the line are no closer
        s = line.param_of(w)
        for ds in (-0.05, 0.05):
            assert dist(w, line.point_at(s + ds)) >= d - TOL_GEO

    def test_signed_side(self):
        axis = GeodesicLine.vertical(0.0, up=True)
        # left of the upward axis is x < 0
        assert axis.signed_sinh_dist(-1.0 + 1j) > 0
        assert axis.signed_sinh_dist(1.0 + 1j) < 0

    @given(st.floats(-3.0, 3.0), st.floats(1.0, 1e8), st.booleans(),
           st.floats(0.01, 10.0), st.booleans(), st.floats(-3.0, 3.0))
    def test_signed_sinh_dist_exact(self, c, r, pos_to_neg, y, right, off):
        """Points near a circle of radius up to 1e8, where |z - c|^2 - r^2
        cancels: the error stays at the rounding of y^2 and the gap."""
        assume(y < r)
        x = c + (1.0 if right else -1.0) * math.sqrt((r - y) * (r + y)) \
            + off * y
        line = GeodesicLine.circle(c, r, pos_to_neg)
        X, Y, C, R = map(Fraction, (x, y, c, r))
        gap = R * R - (X - C) ** 2
        want = (Y * Y - gap) / (2 * R * Y)
        if pos_to_neg:
            want = -want
        scale = (Y * Y + abs(gap)) / (2 * R * Y)
        got = line.signed_sinh_dist(complex(x, y))
        assert abs(Fraction(got) - want) <= Fraction(1e-15) * scale

    @given(st.floats(1e5, 1e8), st.booleans(), st.floats(-5.0, 5.0),
           st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_from_points_center_exact(self, far, left, a, b, y1, y2):
        """Two points far from the origin: the center keeps the digits
        that |z2|^2 - |z1|^2 loses."""
        assume(abs(a - b) > 1e-3)
        x0 = -far if left else far
        z1, z2 = complex(x0 + a, y1), complex(x0 + b, y2)
        X1, X2, Y1, Y2 = map(Fraction, (z1.real, z2.real, y1, y2))
        q = (Y2 - Y1) * (Y2 + Y1) / (X2 - X1)
        want = ((X1 + X2) + q) / 2
        got = GeodesicLine.from_points(z1, z2).center
        assert abs(Fraction(got) - want) \
            <= Fraction(1e-15) * (abs(X1) + abs(X2) + abs(q))

    @given(gap_triples())
    def test_sq_gap_symmetric(self, rab):
        """r^2 - (a - b)^2 does not depend on the order of a and b, bit
        for bit, and NumPy arrays give the bits of floats."""
        r, a, b = rab
        got = halfplane._sq_gap(r, a, b)
        assert got.hex() == halfplane._sq_gap(r, b, a).hex()
        [arr] = halfplane._sq_gap(np.array([r]), np.array([a]),
                                  np.array([b])).tolist()
        assert arr.hex() == got.hex()


class TestCrossings:
    def test_perpendicular(self):
        a = GeodesicLine.vertical(0.0)
        b = GeodesicLine.circle(0.0, 1.0)
        assert lines_cross(a, b)
        z = intersect_lines(a, b)
        assert abs(z - 1j) < TOL_GEO
        assert crossing_angle(a, b, z) == pytest.approx(math.pi / 2,
                                                        abs=TOL_GEO)

    def test_sixty_degrees(self):
        a = GeodesicLine.circle(0.0, 1.0)
        b = GeodesicLine.circle(1.0, 1.0)
        z = intersect_lines(a, b)
        assert abs(z - complex(0.5, math.sqrt(3) / 2)) < TOL_GEO
        assert crossing_angle(a, b, z) == pytest.approx(math.pi / 3,
                                                        abs=TOL_GEO)

    # ideal endpoints: small ones, the far ends of the tracer's
    # near-vertical rays, and the point at infinity
    @given(st.tuples(*[st.one_of(st.floats(-10, 10), st.floats(-1e8, 1e8),
                                 st.just(INF))] * 4))
    def test_cross_iff_intersect(self, ends):
        e = sorted(set(ends))
        if len(e) < 4:
            return
        # a millionfold the shared-endpoint tolerance apart as boundary
        # angles, which also covers the rounding of center +- radius
        angles = [math.pi if math.isinf(x) else 2.0 * math.atan(x)
                  for x in e]
        if min(angles[i + 1] - angles[i] for i in range(3)) < 1e-6:
            return
        a, b, c, d = e
        interleaved = GeodesicLine.from_endpoints(a, c), \
            GeodesicLine.from_endpoints(b, d)
        nested = GeodesicLine.from_endpoints(a, d), \
            GeodesicLine.from_endpoints(b, c)
        disjoint = GeodesicLine.from_endpoints(a, b), \
            GeodesicLine.from_endpoints(c, d)
        drawn = GeodesicLine.from_endpoints(*ends[:2]), \
            GeodesicLine.from_endpoints(*ends[2:])
        assert lines_cross(*interleaved)
        assert intersect_lines(*interleaved) is not None
        assert not lines_cross(*nested)
        assert not lines_cross(*disjoint)
        for l1, l2 in (interleaved, nested, disjoint, drawn):
            want = separated_exactly(l1, l2)
            for m1 in (l1, l1.reversed()):
                for m2 in (l2, l2.reversed()):
                    assert lines_cross(m1, m2) == want
                    assert lines_cross(m2, m1) == want

    # Near-vertical lines as the tracer makes them: a ray tilted 2e-7
    # from vertical is a circle of radius ~1e7, on which the plain
    # r^2 - (x - c)^2 cancels to its third digit.
    @pytest.mark.parametrize("l1, l2", [
        # the dive ray and the polygon side it crosses first (torus)
        (GeodesicLine.circle(-6599401.799494407, 6599400.350974786),
         GeodesicLine.circle(-0.5000000000000001, 1.1180339887498947)),
        # vertical against near-vertical, foot - center exact
        (GeodesicLine.vertical(3.0),
         GeodesicLine.circle(3.0 - 6.6e6, math.hypot(6.6e6, 1.0))),
        # vertical against near-vertical, foot - center rounded
        (GeodesicLine.vertical(0.7 - 1e-7),
         GeodesicLine.from_endpoints(0.7, 0.7 - 1e7)),
    ], ids=["dive-side", "vertical-exact-gap", "vertical-rounded-gap"])
    def test_near_vertical_witnesses(self, l1, l2):
        z = exact_crossing(l1, l2)
        for a, b in ((l1, l2), (l2, l1)):
            w = intersect_lines(a, b)
            assert w is not None and abs(w - z) < TOL_LOOSE

    @given(st.floats(-2.5, 2.5), st.floats(1.0, 1e8), st.booleans(),
           st.floats(-1.0, 1.0), st.floats(0.15, 1.5))
    def test_steep_crossing_is_exact(self, near, reach, left, t, radius):
        far = near - reach if left else near + reach
        steep = GeodesicLine.from_endpoints(near, far)
        other = GeodesicLine.circle(near + t * radius, radius)
        assume(lines_cross(steep, other))
        z = exact_crossing(steep, other)
        # well-conditioned crossings only: off the boundary, not grazing
        assume(z.imag >= 0.1)
        assume(folded_angle(z - steep.center, z - other.center) >= 0.1)
        for a, b in ((steep, other), (other, steep)):
            w = intersect_lines(a, b)
            assert w is not None and abs(w - z) < TOL_LOOSE

    @settings(max_examples=400)
    @given(line_pairs())
    # Interleaved lines sharing one pair of ends, a tenth of the shared
    # tolerance apart, so that a verdict dropping that pair says they
    # cross.  Finite pairs, both lines circles: (a, c), (a, d), (b, c)
    # and (b, d) of the lower and upper ends a < b and c < d.
    @example(_by_ends(0.0, 2.0, 1e-13, 5.0))
    @example(_by_ends(0.0, 2.0, -3.0, 1e-13))
    @example(_by_ends(0.0, 2.0, 2.0 - 1e-13, 5.0))
    @example(_by_ends(0.0, 2.0, 1.0, 2.0 + 1e-13))
    # Ends shared at INF: l1 vertical, l2 vertical, both vertical.
    @example(_by_ends(0.0, INF, -1.0, 1e13))
    @example(_by_ends(-1e13, 2.0, 1.0, INF))
    @example(_by_ends(0.0, INF, 1.0, INF))
    def test_interleave_first_keeps_the_shared_rule(self, pair):
        l1, l2 = pair
        for m1 in (l1, l1.reversed()):
            want = shared_rule_first(m1, l2)
            assert lines_cross(m1, l2) == want
            assert lines_cross(l2, m1) == want

    def test_shared_endpoint_does_not_cross(self):
        a = GeodesicLine.from_endpoints(0.0, 2.0)
        b = GeodesicLine.from_endpoints(0.0, 1.0)
        assert not lines_cross(a, b)
        # Shared means TOL_ALG apart as boundary angles 2 atan x on the
        # circle, so far out, ends 1 apart are one point, and the angles
        # wrap round through infinity: +3e12 and -3e12 are both shared
        # with it, so neither line in the loop counts as meeting its
        # vertical (the complete lines meet near height 1.2e6).
        far = GeodesicLine.from_endpoints(5.0, 1e7 + 1.0)
        assert not lines_cross(GeodesicLine.from_endpoints(0.0, 1e7), far)
        up = GeodesicLine.from_endpoints(0.5, 3e12)
        down = GeodesicLine.from_endpoints(-0.5, -3e12)
        for l1, l2 in ((up, GeodesicLine.vertical(1.0)),
                       (down, GeodesicLine.vertical(-1.0))):
            assert not lines_cross(l1, l2)
            assert not lines_cross(l2, l1)
        # ends on either side of infinity, 2/3e12 + 2/1e13 < TOL_ALG
        # apart through it
        wrap = GeodesicLine.from_endpoints(-3e12, 2.0)
        assert not lines_cross(wrap, GeodesicLine.from_endpoints(1.0, 1e13))
        assert lines_cross(wrap, GeodesicLine.from_endpoints(1.0, 1e12))

    @settings(max_examples=400)
    @given(line_pairs())
    @example((GeodesicLine.from_endpoints(-1.9842605452534154,
                                          0.1331661099287862),
              GeodesicLine.from_endpoints(0.13316610992929503,
                                          -1.2538642971181502)))
    def test_reflection_keeps_the_verdict(self, pair):
        # x -> -x maps the boundary to itself keeping which ends are
        # shared, so it keeps whether two lines cross.  The mirror is
        # built from the center and radius, so its ends are exactly the
        # negated ends; rebuilt from endpoint_back / endpoint_fwd (center
        # plus or minus radius) an end can move by an ulp, which flips
        # the verdict of the example pair
        l1, l2 = pair
        m1, m2 = (GeodesicLine.vertical(-line.foot, line.up)
                  if line.is_vertical
                  else GeodesicLine.circle(-line.center, line.radius,
                                           not line.pos_to_neg)
                  for line in pair)
        for line, m in ((l1, m1), (l2, m2)):
            a, b = line.ends
            assert m.ends == ((-a, INF) if line.is_vertical else (-b, -a))
        assert lines_cross(m1, m2) == lines_cross(l1, l2)


class TestSegments:
    def test_between(self):
        seg = GeodesicSegment.between(1j, 4j)
        assert seg.length == pytest.approx(math.log(4), abs=TOL_GEO)
        assert abs(seg.start - 1j) < TOL_GEO
        assert abs(seg.end - 4j) < TOL_GEO

    def test_segment_crossing(self):
        s1 = GeodesicSegment.between(-1 + 1j, 1 + 1j)
        s2 = GeodesicSegment.between(0.5j, 2j)
        z = segments_cross(s1, s2)
        assert z is not None and abs(z.real) < TOL_GEO
        # short subsegment missing the crossing
        s3 = GeodesicSegment.between(1.5j, 2j)
        assert segments_cross(s1, s3) is None

    def test_reversed(self):
        seg = GeodesicSegment.between(1j, 1 + 2j)
        rev = seg.reversed()
        assert abs(rev.start - seg.end) < TOL_GEO
        assert abs(rev.end - seg.start) < TOL_GEO
        assert rev.length == pytest.approx(seg.length, abs=TOL_GEO)


class TestHorocycles:
    def test_gap_vertical(self):
        u = 1.3
        h1 = Horocycle(INF, math.exp(u))
        h2 = Horocycle(0.0, 1.0)
        assert horoball_gap(h1, h2) == pytest.approx(u, abs=TOL_GEO)

    def test_gap_two_finite(self):
        h1 = Horocycle(0.0, 0.5)
        h2 = Horocycle(3.0, 0.25)
        u = 2 * math.log(3.0) - math.log(0.5) - math.log(0.25)
        assert horoball_gap(h1, h2) == pytest.approx(u, abs=TOL_GEO)
        # realize the gap along the joining geodesic
        line = GeodesicLine.from_endpoints(0.0, 3.0)
        pts = [line.point_at(-8 + 0.001 * k) for k in range(16000)]
        inside1 = [z for z in pts if h1.contains_in_ball(z)]
        inside2 = [z for z in pts if h2.contains_in_ball(z)]
        d = dist(inside1[-1], inside2[0])
        assert d == pytest.approx(u, abs=1e-2)

    @given(matrices)
    def test_gap_invariance(self, m):
        g = direct(m)
        h1 = Horocycle(INF, 4.0)
        h2 = Horocycle(0.0, 1.0)
        u0 = horoball_gap(h1, h2)
        u1 = horoball_gap(g.apply_horocycle(h1), g.apply_horocycle(h2))
        assert u1 == pytest.approx(u0, rel=1e-8, abs=TOL_LOOSE)

    def test_through(self):
        h = Horocycle.through(0.0, 1j)
        assert h.size == pytest.approx(1.0, abs=TOL_GEO)
        assert h.on_horocycle(1j)

    def test_angle_with_horocycle(self):
        h = Horocycle(INF, 2.0)
        line = GeodesicLine.vertical(0.5)
        assert angle_with_horocycle(line, h, 0.5 + 2j) == \
            pytest.approx(math.pi / 2, abs=TOL_GEO)
        # at the top of a semicircle the tangent is horizontal
        slanted = GeodesicLine.circle(0.0, 4.0)
        h2 = Horocycle(INF, 4.0)
        assert angle_with_horocycle(slanted, h2, 4j) == \
            pytest.approx(0.0, abs=TOL_GEO)
        # a geodesic into the base point is perpendicular to the horocycle
        h3 = Horocycle.through(0.0, 1j)
        v = GeodesicLine.vertical(0.0)
        assert angle_with_horocycle(v, h3, 1j) == \
            pytest.approx(math.pi / 2, abs=TOL_GEO)

    @settings(max_examples=400, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 1.0), st.floats(-2.0, 8.0),
           st.sampled_from(["outside", "around", "vertical"]),
           st.one_of(st.floats(-1e-6, 1e-6), st.floats(-0.9, 2.0)),
           st.booleans(), st.booleans())
    def test_early_return_changes_nothing(self, base, log_size, log_r, kind,
                                          off, left, pos_to_neg):
        """A finite-base horocycle gives the same crossings with and
        without the disc test, for lines from tangent within a relative
        1e-6 to far off, radius up to 1e8, and either orientation."""
        h = Horocycle(base, 10.0 ** log_size)
        rad = 0.5 * h.size
        side = 1.0 if left else -1.0
        if kind == "vertical":
            line = GeodesicLine.vertical(base + side * rad * (1.0 + off),
                                         up=pos_to_neg)
        else:
            r = 10.0 ** log_r
            # distance between the line's center and the disc's center
            gap = r + rad * (1.0 + off) if kind == "outside" \
                else r - rad * (1.0 + off)
            assume(gap > rad)
            line = GeodesicLine.circle(
                base + side * math.sqrt((gap - rad) * (gap + rad)), r,
                pos_to_neg=pos_to_neg)
        got = line_horocycle_crossings(line, h)
        with mock.patch.object(halfplane, "_clears_horoball",
                               return_value=False):
            assert got == line_horocycle_crossings(line, h)


def _nearest_ends(m):
    """The floats nearest the repelling and attracting ends of a
    hyperbolic integer matrix, (a - d -+ sign(tr) sqrt(D)) / 2c, from a
    decimal square root carried well past the cancellation of a - d."""
    a, b, c, d = m
    t = a + d
    disc = t * t - 4
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * len(str(disc)) + 60
        root = decimal.Decimal(disc).sqrt().copy_sign(t)
        return tuple(float((a - d + sign * root) / (2 * c))
                     for sign in (-1, 1))


class TestIsometry:
    @given(matrices, matrices, points)
    def test_compose(self, m1, m2, z):
        g, h = direct(m1), direct(m2)
        assert abs((g @ h).apply(z) - g.apply(h.apply(z))) < \
            TOL_LOOSE * max(1.0, abs(g.apply(h.apply(z))))

    @given(int_matrices, points)
    def test_inverse(self, m, z):
        assert mat_mul(m, mat_inv(m)) == mat_mul(mat_inv(m), m) \
            == (1, 0, 0, 1)
        g = to_isometry(m)
        # the float inverse of an integer matrix is its adjugate exactly
        assert g.inverse() == to_isometry(mat_inv(m))
        assert abs(g.inverse().apply(g.apply(z)) - z) < \
            TOL_LOOSE * max(1.0, abs(z))

    def test_rejects_nonpositive_determinant(self):
        # a det -1 matrix would act as z -> 1/z, off the half-plane
        with pytest.raises(ValueError):
            Isometry(0, 1, 1, 0).normalized()

    @given(matrices, points, st.floats(0, 2 * math.pi))
    def test_tangent_transport(self, m, z, theta):
        g = direct(m)
        u = complex(math.cos(theta), math.sin(theta))
        v = g.apply_tangent(z, u)
        assert abs(abs(v) - 1.0) < TOL_GEO
        # transported tangent generates the image geodesic
        line = GeodesicLine.from_point_direction(z, u)
        img = g.apply_line(line)
        w = g.apply(z)
        t = img.tangent_at(img.param_of(w))
        assert abs(t - v) < 1e-5

    def test_cycle_length(self):
        # (2, 1; 1, 1) fixes the roots (1 -+ sqrt 5) / 2 of z^2 - z - 1
        # and moves points toward phi; its negative acts alike and its
        # inverse runs the axis backwards
        phi = (1 + math.sqrt(5)) / 2
        line, length = axis((2, 1, 1, 1))
        assert length == pytest.approx(2 * math.acosh(1.5), rel=1e-15)
        assert line.endpoint_back == pytest.approx(1 - phi, rel=1e-15)
        assert line.endpoint_fwd == pytest.approx(phi, rel=1e-15)
        assert axis((-2, -1, -1, -1)) == (line, length)
        back, back_length = axis(mat_inv((2, 1, 1, 1)))
        assert back.ends == line.ends and back_length == length
        assert back.endpoint_fwd == line.endpoint_back

    def test_axis_generic(self):
        # z -> (2z+1)/(z+1) is h1 after h2; its fixed points solve
        # z^2 - z - 1 = 0
        h1, h2 = (1, 1, 0, 1), (1, 0, 1, 1)
        ax, length = axis(mat_mul(h1, h2))
        phi = (1 + math.sqrt(5)) / 2
        assert ax.endpoint_fwd == pytest.approx(phi, abs=1e-12)
        assert ax.endpoint_back == pytest.approx(1 - phi, abs=1e-12)
        # h2 after h1 is the same cycle started one map later: its axis
        # is the one h1 carries onto the first
        ax1, length1 = axis(mat_mul(h2, h1))
        assert ax1.endpoint_fwd == pytest.approx(phi - 1, abs=1e-12)
        assert ax1.endpoint_back == pytest.approx(-phi, abs=1e-12)
        assert length1 == length == pytest.approx(2 * math.acosh(1.5),
                                                  abs=1e-12)
        # the product moves points along the axis by the length
        g = Isometry(2.0, 1.0, 1.0, 1.0)
        z = ax.point_at(0.0)
        w = g.apply(z)
        assert ax.contains(w, tol=1e-9)
        assert dist(z, w) == pytest.approx(length, abs=1e-9)
        assert ax.param_of(w) > 0

    def test_settles_through_a_rounding_cycle(self):
        # the inverse pairings of the sphere's sides 1, 2, 5, 5 and 3: a
        # float fixed-point iteration of their product's ends alternates
        # in the last bit; rounded once from integers they are the
        # floats nearest the roots, and the line is built from those
        maps = [(1, 0, -2, 1), (1, 0, 2, 1), (1, 2, 0, 1), (1, 2, 0, 1),
                (1, -2, 2, -3)]
        m = functools.reduce(mat_mul, maps)
        line, length = axis(m)
        assert length == pytest.approx(2 * math.acosh(3.0), rel=1e-12)
        assert line == GeodesicLine.from_endpoints(*_nearest_ends(m))

    def test_ends_correctly_rounded(self):
        """Products of reduced words of up to 300 letters over the
        torus generators (1, 1; 1, 2) and (1, -1; -1, 2): each end is the
        float nearest its root, the line is built from those ends, and
        the length holds to 1e-15 against a 50-digit 2 acosh(|tr| / 2)."""
        rng = random.Random(7)
        a, b = (1, 1, 1, 2), (1, -1, -1, 2)
        gens = {"a": a, "b": b, "A": mat_inv(a), "B": mat_inv(b)}
        bits = 0
        for n in [2, 3, 5, 8, 13, 40, 120, 300] * 5:
            word = rng.choice("abAB")
            while len(word) < n:
                word += rng.choice([ch for ch in "abAB"
                                    if ch != word[-1].swapcase()])
            m = functools.reduce(mat_mul, (gens[ch] for ch in word))
            t = abs(m[0] + m[3])
            if t <= 2:
                continue
            bits = max(bits, t.bit_length())
            line, length = axis(m)
            assert line == GeodesicLine.from_endpoints(*_nearest_ends(m))
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                want = 2 * ((t + decimal.Decimal(t * t - 4).sqrt()) / 2).ln()
            assert length == pytest.approx(float(want), rel=1e-15)
        assert bits > 200

    def test_huge_trace_length(self):
        # past 2^1000 the trace no longer fits a float: 2 log |tr|
        m, k = (2, 1, 1, 1), 800
        mk = functools.reduce(mat_mul, [m] * k)
        assert abs(mk[0] + mk[3]).bit_length() > 1000
        line, length = axis(mk)
        assert length == pytest.approx(k * axis(m)[1], rel=1e-12)
        assert line.ends == axis(m)[0].ends

    def test_cycle_without_axis_rejected(self):
        for m, t in (((1, 3, 0, 1), 2), ((-1, 3, 0, -1), -2),
                     ((1, 0, 0, 1), 2), ((0, -1, 1, 0), 0),
                     ((1, 1, -1, 0), 1)):
            with pytest.raises(NotHyperbolic, match=f"trace {t} "):
                axis(m)

    @given(matrices)
    # moves z by about 5.4e-8, where acosh(1 + |z - w|^2 / (2 y y'))
    # loses half the digits and missed dist by 1.6e-9
    @example((1.0, 1.192092896e-07, 0.0, 1.0))
    def test_cosh_dist_consistency(self, m):
        # sinh(d/2)^2 = |z - w|^2 / (4 y y'): both sides well conditioned
        g = direct(m)
        z = 0.7 + 2.2j
        w = g.apply(z)
        want = abs(z - w) ** 2 / (4.0 * z.imag * w.imag)
        assert math.sinh(dist(z, w) / 2.0) ** 2 == pytest.approx(want,
                                                                rel=1e-12)


class TestHorocyclePerpendicular:
    def test_vertical_case(self):
        seg = horocycle_perpendicular(Horocycle(INF, 4.0), Horocycle(0.0, 0.5))
        assert seg.length == pytest.approx(math.log(8.0), abs=1e-9)
        assert abs(seg.start - 4j) < 1e-9
        assert abs(seg.end - 0.5j) < 1e-9

    def test_two_finite(self):
        h1, h2 = Horocycle(-1.0, 0.7), Horocycle(3.0, 0.9)
        seg = horocycle_perpendicular(h1, h2)
        assert seg.length == pytest.approx(horoball_gap(h1, h2), abs=1e-9)
        assert h1.on_horocycle(seg.start)
        assert h2.on_horocycle(seg.end)
        # meets both horocycles at right angles
        for (h, z) in ((h1, seg.start), (h2, seg.end)):
            assert angle_with_horocycle(seg.line, h, z) == \
                pytest.approx(math.pi / 2, abs=1e-9)

    def test_overlapping_raises(self):
        with pytest.raises(HorocyclesIntersect):
            horocycle_perpendicular(Horocycle(0.0, 2.0), Horocycle(0.1, 2.0))


class TestPointFrame:
    def test_maps_base_frame(self):
        u = complex(math.cos(0.3), math.sin(0.3))
        g = Isometry.point_frame(-0.4 + 2.5j, 3.0 * u)
        assert abs(g.apply(1j) - (-0.4 + 2.5j)) < 1e-12
        assert abs(g.apply_tangent(1j, 1j) - u) < 1e-12

    @given(st.floats(-5, 5), st.floats(-3, 2), st.floats(-math.pi, math.pi))
    def test_frame_map_between_two_frames(self, x, logy, phi):
        z1, u1 = 0.3 + 1.7j, complex(math.cos(0.9), math.sin(0.9))
        z2 = complex(x, math.exp(logy))
        u2 = complex(math.cos(phi), math.sin(phi))
        g = Isometry.point_frame(z2, u2) @ Isometry.point_frame(z1, u1).inverse()
        assert abs(g.apply(z1) - z2) < 1e-9
        assert abs(g.apply_tangent(z1, u1) - u2) < 1e-9

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            Isometry.point_frame(1.0 - 1j, 1j)
