"""Tile enumeration and certified distance tests."""

import bisect
import cmath
import dataclasses
import itertools
import math
import random
import re
import statistics
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geodense import orbit
from geodense.catalog import CATALOG
from geodense.densify import DensityParams, classify_and_extend, replace_arc
from geodense.errors import RadiusTooSmall
from geodense.halfplane import (
    GeodesicLine,
    GeodesicSegment,
    Isometry,
    axis,
    dist,
    to_isometry,
)
from geodense.orbit import (
    DIST_TOL,
    _HALF_PLANE_SLACK,
    _NEAR_CUT,
    _STOP_MARGIN,
    _Passages,
    ball,
    dist_to_closed_geodesic,
    dist_to_domain,
)
from geodense.surface import SurfaceModel, load_surface
from geodense.tracing import base_geodesic, trace_geodesic
from geodense.words import free_reduce, join_reduced


def all_reduced_words(letters, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            w = "".join(tup)
            if free_reduce(w) == w:
                yield w


class TestDistToDomain:
    def test_inside_is_zero(self, sphere):
        assert dist_to_domain(sphere, sphere.base_point) == 0.0
        assert dist_to_domain(sphere, 0.3 + 20.0j) == 0.0

    def test_beyond_wall(self, sphere):
        assert dist_to_domain(sphere, complex(-1.5, 1.0)) \
            == pytest.approx(math.asinh(0.5))

    def test_near_corner(self, sphere):
        z = complex(-1.5, 0.3)
        assert dist_to_domain(sphere, z) \
            == pytest.approx(dist(z, complex(-1.0, 1.0)))


_MODELS = {name: load_surface(name) for name in CATALOG}


@st.composite
def _near_a_side(draw):
    """A catalog model and a point off one of its side lines by 1e-12 to
    0.3 times its height, anywhere along the line within parameter 8 of
    the side's window."""
    model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    side = draw(st.sampled_from(model.sides))
    lo, hi = max(side.s_lo, -8.0), min(side.s_hi, 8.0)
    z = side.line.point_at(draw(st.floats(lo - 8.0, hi + 8.0)))
    off = 10.0 ** draw(st.floats(-12.0, -0.5)) * z.imag
    return model, z + off * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))


@st.composite
def _up_a_cusp(draw):
    """A catalog model and a point up to chart height 3,000 in one of its
    cusps, over the cusp's strip and half a width to either side."""
    model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    c = draw(st.sampled_from(model.cusps))
    x = c.strip_lo + draw(st.floats(-0.5, 1.5)) * c.width
    y = math.exp(draw(st.floats(0.0, math.log(3000.0))))
    return model, c.chart_inv.apply(complex(x, y))


class TestSideDistances:
    """ball and dist_to_domain read a point's six side distances."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_near_a_side(), _up_a_cusp()))
    def test_pairing_carries_the_distance_across(self, model_w):
        """Side i's pairing maps the polygon's side of line i onto the far
        side of its partner's line: the partner's signed distance of the
        mapped point is -d_i(w), to within the room _HALF_PLANE_SLACK
        leaves over DIST_TOL for the bound's other errors."""
        model, w = model_w
        room = _HALF_PLANE_SLACK - DIST_TOL
        for side, d in zip(model.sides, model.side_signed_dists(w)):
            partner = model.sides[side.partner]
            e = partner.line.signed_sinh_dist(side.pairing.apply(w))
            assert abs(-d - e) <= room * (1.0 + abs(d))

    @settings(max_examples=300, deadline=None)
    @given(_near_a_side())
    def test_dist_to_domain_is_the_plain_minimum(self, model_w):
        """Outside the polygon, the minimum of every side segment's
        dist_to_point, bit for bit, though most segments go unmeasured."""
        model, z = model_w
        assume(not model.inside(z))
        assert dist_to_domain(model, z).hex() \
            == min(s.segment.dist_to_point(z) for s in model.sides).hex()

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_near_ties_at_the_finite_vertices(self, name, request):
        """Points 1e-12 to 0.1 times a finite vertex's height from it,
        along the outward normal of one of the two sides there turned by
        1e-14 to 1e-4: the two segments' distances nearly tie and that
        side's line lies nearly as far.  There the line's distance comes
        out above the nearest segment's by more than 1e-12 of it, on 1
        to 2 % of the torus's points at i: a margin relative to the
        distance alone would skip the nearest segment."""
        model = request.getfixturevalue(name)
        rng = random.Random(20261020)
        k = len(model.sides)
        for i, v in enumerate(model.spec.vertices):
            if not isinstance(v, complex):
                continue
            for side in (model.sides[(i - 1) % k], model.sides[i]):
                normal = -1j * side.line.tangent_at(side.line.param_of(v))
                for _ in range(400):
                    turn = rng.choice((-1.0, 1.0)) \
                        * 10.0 ** rng.uniform(-14.0, -4.0)
                    z = v + 10.0 ** rng.uniform(-12.0, -1.0) * v.imag \
                        * normal * cmath.exp(1j * turn)
                    if model.inside(z):
                        continue
                    assert dist_to_domain(model, z).hex() == min(
                        s.segment.dist_to_point(z) for s in model.sides).hex()

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_bound_spares_the_exact_test(self, name, request, monkeypatch):
        """The bound drops nearly every candidate the exact test would:
        over the centers of TestBallBound, fewer than two exact tests per
        tile kept.  On the torus no candidate is tested in vain up to
        radius 1.  On the sphere a word the bound drops along one path
        may be queued along another and fail the exact test there, up
        to 1.6 tests per tile."""
        model = request.getfixturevalue(name)
        exact = dist_to_domain
        calls = []
        monkeypatch.setattr(orbit, "dist_to_domain", lambda model, z: (
            calls.append(z), exact(model, z))[1])
        for radius in (0.01, 0.2, 1.0, 2.5):
            calls.clear()
            kept = sum(len(ball(model, z, radius))
                       for z in _ball_centers(model))
            assert len(calls) < 2 * kept
            if name == "torus" and radius <= 1.0:
                assert len(calls) == kept

    @given(st.floats(-3.5, 3.5), st.floats(1e-3, 3e3))
    @example(-0.0, 1.0)
    @example(0.0, 2.5)
    def test_identity_tile_is_the_center(self, x, y):
        """ball and dist_to_closed_geodesic test and measure the identity
        tile at center + 0.0: the identity's inverse, as ball converts
        it, maps every point there bit for bit, a real part -0.0 to 0.0
        and any other point to itself."""
        z = complex(x, y)
        w = to_isometry((1, 0, 0, 1)).inverse().apply(z)
        assert (w.real.hex(), w.imag.hex()) \
            == ((z + 0.0).real.hex(), (z + 0.0).imag.hex()) \
            == ((x + 0.0).hex(), y.hex())


class TestBall:
    def test_tiny_radius_identity_only(self, sphere):
        got = ball(sphere, sphere.base_point, 0.1)
        assert [w for w, _ in got] == [""]

    def test_nearest_neighbor_appears(self, sphere):
        words = {w for w, _ in ball(sphere, sphere.base_point, 0.5)}
        assert words == {"", "B"}

    def test_breadth_first_order_and_words(self, sphere):
        got = ball(sphere, sphere.base_point, 2.5)
        assert got[0][0] == ""
        assert len(got) > 10
        words = [w for w, _ in got]
        assert len(set(words)) == len(words)
        for w, g in got:
            assert free_reduce(w) == w
            m = sphere.word_matrix(w)
            assert (g.a, g.b, g.c, g.d) in (m, tuple(-v for v in m))

    def test_completeness_against_brute_force(self, sphere):
        r = 2.0
        words = {w for w, _ in ball(sphere, sphere.base_point, r)}
        for w in all_reduced_words("abAB", 4):
            g = to_isometry(sphere.word_matrix(w))
            d = dist_to_domain(sphere, g.inverse().apply(sphere.base_point))
            if d <= r - 1e-9:
                assert w in words, w

    def test_deep_center_trips_budget(self, sphere, monkeypatch):
        monkeypatch.setattr(orbit, "MAX_TILES", 50)
        with pytest.raises(RadiusTooSmall, match="exceeds 50 tiles"):
            ball(sphere, complex(0.05, 2000.0), 2.0)

    def test_join_is_free_reduction(self):
        words = list(all_reduced_words("abAB", 4))
        for u, v in itertools.product(words, repeat=2):
            assert join_reduced(u, v) == free_reduce(u + v)
        for spec in CATALOG.values():
            for v in spec.side_words:
                assert free_reduce(v) == v
                for u in words + list(spec.side_words):
                    assert join_reduced(u, v) == free_reduce(u + v)
                    assert join_reduced(v, u) == free_reduce(v + u)

    def test_deep_center_long_words(self, torus):
        # up the cusp each strip lengthens the words by the cusp word;
        # joining at the junction keeps this a fraction of a second
        got = ball(torus, complex(0.3, 600.0), 2.5)
        assert len(got) == 1211
        assert max(len(w) for w, _ in got) == 2420


def _plain_ball(model, center, radius, max_tiles=20000):
    """Breadth-first search that gives every candidate the exact test."""
    seen = {""}
    out = []
    queue = deque([("", Isometry(1.0, 0.0, 0.0, 1.0))])
    while queue:
        word, g = queue.popleft()
        if dist_to_domain(model, g.inverse().apply(center)) > radius + 1e-9:
            continue
        out.append((word, g))
        if len(out) > max_tiles:
            raise RadiusTooSmall(
                f"radius {radius:.3g} ball around {center:.6g} exceeds "
                f"{max_tiles} tiles")
        for side in model.sides:
            nw = free_reduce(word + model.sides[side.partner].word)
            if nw not in seen:
                seen.add(nw)
                queue.append((nw, g @ side.pairing.inverse()))
    return out


def _ball_centers(model):
    """Points inside the polygon, 1e-9 to either side of each side line,
    and 20 widths up each cusp."""
    rng = random.Random(7)
    out = [model.base_point]
    while len(out) < 4:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        if model.inside(z, tol=0.0):
            out.append(z)
    for side in model.sides:
        lo, hi = side.s_lo, side.s_hi
        s = hi - 1.0 if math.isinf(lo) else lo + 1.0 if math.isinf(hi) \
            else 0.5 * (lo + hi)
        p = side.line.point_at(s)
        inward = 1j * side.line.tangent_at(s)
        out += [p + 1e-9 * p.imag * inward, p - 1e-9 * p.imag * inward]
    for c in model.cusps:
        out.append(c.chart_inv.apply(
            complex(c.strip_lo + 0.37 * c.width, 20.0 * c.width)))
    return out


class TestBallBound:
    """ball's half-plane bound drops only candidates the exact test
    drops: the list is the plain search's, word for word, element for
    element and in order."""

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_equals_plain_search(self, name, request):
        model = request.getfixturevalue(name)
        for z in _ball_centers(model):
            for radius in (0.01, 0.2, 1.0, 2.5):
                assert ball(model, z, radius) == _plain_ball(model, z, radius)

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_tiles_on_the_rim(self, name, request):
        """Radii that put a tile's distance on the rim of the disk, where
        the bound's own rounding would decide without its slack."""
        model = request.getfixturevalue(name)
        for z in _ball_centers(model)[:4]:
            for _, g in _plain_ball(model, z, 1.0)[1:]:
                d = dist_to_domain(model, g.inverse().apply(z))
                for radius in (d - 1e-9, math.nextafter(d - 1e-9, 0.0)):
                    assert ball(model, z, radius) \
                        == _plain_ball(model, z, radius)

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_budget_trips_at_the_same_tile(self, name, request,
                                           monkeypatch):
        model = request.getfixturevalue(name)
        for z in _ball_centers(model)[-len(model.cusps) - 2:]:
            n = len(_plain_ball(model, z, 1.0))
            monkeypatch.setattr(orbit, "MAX_TILES", n)
            assert len(ball(model, z, 1.0)) == n
            monkeypatch.setattr(orbit, "MAX_TILES", n - 1)
            with pytest.raises(RadiusTooSmall) as got:
                ball(model, z, 1.0)
            with pytest.raises(RadiusTooSmall) as want:
                _plain_ball(model, z, 1.0, max_tiles=n - 1)
            assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def commutator(sphere):
    return base_geodesic(sphere, "ab").trace.segments()


def _axis(model, word):
    """The axis of a word's element, from its integer matrix."""
    return axis(model.word_matrix(word))[0]


class TestDistToClosedGeodesic:
    def test_point_on_geodesic(self, sphere, commutator):
        line = _axis(sphere, "ab")
        z = line.point_at(0.0)       # axis apex, on the polygon boundary
        assert dist_to_closed_geodesic(sphere, z, commutator, 1.0) \
            == pytest.approx(0.0, abs=1e-9)

    def test_matches_lift_enumeration(self, sphere, commutator):
        line = _axis(sphere, "ab")
        for z in (sphere.base_point, complex(-0.4, 0.8), complex(0.3, 1.7)):
            oracle = min(
                to_isometry(sphere.word_matrix(w)).apply_line(line).dist_to(z)
                for w in all_reduced_words("abAB", 5))
            got = dist_to_closed_geodesic(sphere, z, commutator, 2.5)
            assert got == pytest.approx(oracle, abs=1e-9)

    def test_far_point_not_certified(self, sphere, commutator):
        with pytest.raises(RadiusTooSmall):
            dist_to_closed_geodesic(sphere, complex(0.05, 4.0),
                                    commutator, 0.01)

    def test_center_beyond_the_radius_refused(self, torus, torus_dec):
        """A side pairing maps a point of the base geodesic 1.1 away from
        the polygon.  Its ball holds no tile, so "farther than the radius"
        would be false: the curve passes through the point."""
        curve = torus_dec.base.trace.segments()
        z = curve[0].point_at_fraction(0.625)
        assert dist_to_closed_geodesic(torus, z, curve, 0.2) < 1e-12
        image = torus.sides[0].pairing.apply(z)
        d = dist_to_domain(torus, image)
        assert d > 1.0 and ball(torus, image, 0.2) == []
        with pytest.raises(ValueError, match=re.escape(
                f"{image:.6g} lies {d:.6g} from the polygon")):
            dist_to_closed_geodesic(torus, image, curve, 0.2)

    @pytest.mark.parametrize("z", [
        complex(0.1, math.nan), complex(0.1, math.inf),
        complex(-math.inf, 1.0), complex(0.1, -1.0), complex(0.1, 0.0)],
        ids=["nan", "inf", "-inf", "below", "on_the_axis"])
    def test_refuses_a_point_off_the_half_plane(self, torus, torus_dec, z):
        """Refused by name before the gather takes log(Im z), which
        raises ZeroDivisionError on the axis and a bare math domain error
        below it; nan and inf are not said to lie inf from the polygon."""
        curve = torus_dec.base.trace.segments()
        with pytest.raises(ValueError, match=re.escape(
                f"cannot certify {z}: not a point of the half-plane")):
            dist_to_closed_geodesic(torus, z, curve, 0.2)


@pytest.fixture(scope="module")
def torus_curve(torus, torus_dec):
    return _processed_curve(torus, torus_dec)


def _processed_curve(model, dec, eps=0.2, xi=0.5, x_hi=3.0, y_hi=2.5):
    """The passages of processed thick arcs, started in the box |x| <=
    x_hi, 0.35 <= y <= y_hi: 2000 or more, the scale of a certificate's
    curve."""
    params = DensityParams(eps, xi)
    rng = random.Random(5)
    curve = []
    while len(curve) < 2000:
        z = complex(rng.uniform(-x_hi, x_hi),
                    math.exp(rng.uniform(math.log(0.35), math.log(y_hi))))
        if not model.inside(z, tol=0.0) \
                or model.min_level(z) < params.xi * math.exp(0.5):
            continue
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        seg = trace_geodesic(model, z, u, 0.45).steps[0].segment
        if seg.length < 0.1:
            continue
        outs = classify_and_extend(seg, params, dec.constants, model,
                                   gamma0=dec.base)
        pa = replace_arc(seg, outs, params, dec.constants, model,
                         gamma0=dec.base)
        curve += pa.trace.segments()
    return curve


def _truncated_points(model, count, seed, xi=0.5):
    rng = random.Random(seed)
    y_hi = model.cusps[0].width / xi
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-3.0, 3.0),
                    1.0 / rng.uniform(1.0 / y_hi, 1.0 / 0.35))
        if model.inside(z, tol=0.0) and model.in_truncation(z, xi, tol=0.0):
            out.append(z)
    return out


def _plain_scan(model, z, segments, radius):
    """Minimum of dist_to_point over every ball tile and every passage."""
    return min(seg.dist_to_point(g.inverse().apply(z))
               for _, g in ball(model, z, radius) for seg in segments)


def _certify(model, z, segments, radius):
    """The answer, or the RadiusTooSmall or ValueError message."""
    try:
        return dist_to_closed_geodesic(model, z, segments, radius)
    except (RadiusTooSmall, ValueError) as exc:
        return str(exc)


def _expected(model, z, segments, radius):
    """The same from a scan of every pair over the ball of the full
    radius, or the message refusing a point that ball holds no tile of."""
    if not ball(model, z, radius):
        return (f"{z:.6g} lies {dist_to_domain(model, z):.6g} from the "
                f"polygon, farther than the radius {radius:.6g}")
    return _verdict(z, radius, _plain_scan(model, z, segments, radius))


def _verdict(z, radius, best):
    """The answer, or the RadiusTooSmall message, for a minimum best."""
    if best > radius:
        return (f"geodesic stays farther than {radius:.6g} from {z:.6g} "
                f"(best lift at {best:.6g})")
    return best


class TestBoundedScan:
    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_equals_plain_scan(self, torus, torus_curve, radius):
        """Covered points (radius 0.2), and covered and uncovered ones
        (0.001): the value or the RadiusTooSmall message of a scan of
        every pair."""
        kinds = set()
        for z in _truncated_points(torus, 25, seed=11):
            want = _expected(torus, z, torus_curve, radius)
            assert _certify(torus, z, torus_curve, radius) == want
            kinds.add(type(want))
        assert kinds == ({float} if radius == 0.2 else {float, str})

    def test_replaced_passage_changes_answer(self, torus, torus_curve):
        """The farthest passage, which the bounds rule out, is swapped in
        place for one through the point; a table kept from before the
        swap would still rule it out."""
        curve = list(torus_curve)
        z = _truncated_points(torus, 1, seed=12)[0]
        ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
        far = max(range(len(curve)), key=lambda k: min(
            curve[k].dist_to_point(w) for w in ws))
        before = dist_to_closed_geodesic(torus, z, curve, 0.2)
        curve[far] = GeodesicSegment.between(z, z + 0.05)
        after = dist_to_closed_geodesic(torus, z, curve, 0.2)
        assert after < before
        assert after == _plain_scan(torus, z, curve, 0.2)

    def test_fresh_list_of_equal_passages(self, torus, torus_curve):
        fresh = [GeodesicSegment(dataclasses.replace(s.line), s.s0, s.s1)
                 for s in torus_curve]
        assert fresh[0] == torus_curve[0] and fresh[0] is not torus_curve[0]
        for z in _truncated_points(torus, 5, seed=13):
            assert dist_to_closed_geodesic(torus, z, fresh, 0.2) \
                == dist_to_closed_geodesic(torus, z, torus_curve, 0.2)

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.0, 8.0), st.floats(-3.0, 1.0), st.floats(-5.0, 5.0),
           st.floats(-12.0, 0.0), st.booleans(), st.booleans(),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.booleans(),
           st.booleans())
    # radius 1e8 or 10^7.5 near heights 0.01: |w - c|^2 - r^2 formed
    # plainly cancels to an error past DIST_TOL
    @example(8.0, -2.0, 0.1, -3.0, False, False, -1.0, 1.0, False, True)
    @example(7.5, -2.5, 0.5, -6.0, False, False, -1.0, 1.0, False, False)
    # the same radius, the point past the passage's end: point_at rounds
    # the end along the line by more than DIST_TOL (the row slack)
    @example(8.0, -2.0, 0.5, -6.0, True, False, 1.0, 1.5, False, True)
    def test_lower_bound_at_most_distance(self, log_r, log_y, x, log_off,
                                          left, outward, a, b, vertical,
                                          pos_to_neg):
        """No passage is ruled out at a cut of its own distance plus
        DIST_TOL, and its lower bound is at most that.  The point sits
        off a line of radius up to 1e8 by a factor 1e-12 to 1 of its
        height, on either side, anywhere along the passage or beyond its
        ends, and mostly outside the polygon."""
        y = 10.0 ** log_y
        r = max(10.0 ** log_r, 1.5 * y)
        sign = 1.0 if left else -1.0
        if vertical:
            line = GeodesicLine.vertical(x, up=pos_to_neg)
        else:
            line = GeodesicLine.circle(
                x + sign * math.sqrt((r - y) * (r + y)), r,
                pos_to_neg=pos_to_neg)
        s = line.param_of(complex(x, y))
        seg = GeodesicSegment(line, s + min(a, b), s + max(a, b))
        if outward:
            sign = -sign
        w = complex(x + sign * 10.0 ** log_off * y, y)
        d = seg.dist_to_point(w)
        [(bound, t, i)] = _Passages([seg])._bounded([w], cut=d + DIST_TOL)
        assert (t, i) == (0, 0)
        assert bound <= d + DIST_TOL


def _excursion(torus, apex=1.5e3):
    """The passages of a whole excursion to chart height apex in the
    torus cusp, from 1.2 widths up along a near-vertical half-circle."""
    c = torus.cusps[0]
    z = complex(c.strip_lo + 0.37 * c.width, 1.2 * c.width)
    center = z.real + math.sqrt(apex ** 2 - z.imag ** 2)
    u = 1j * (z - center) / apex
    if u.imag < 0.0:
        u = -u
    length = 2.0 * math.log(apex / c.width) + 3.0
    return trace_geodesic(torus, z, u, length).segments()


@pytest.fixture(scope="module")
def excursion(torus):
    return _excursion(torus)


def _all_rows(segments):
    """A table whose gather returns every row."""
    table = _Passages(segments)
    table._gather = lambda ws, cut: table._every(len(ws))
    return table


def _pairs(table, ws, cut=None):
    """The (point, passage) pairs _bounded keeps, sorted; at the default
    cut of the rows gathered at _NEAR_CUT when cut is None."""
    if cut is None:
        cut = table._default_cut(table._near(ws))
    return sorted((t, i) for _, t, i in table._bounded(ws, cut))


def _nearest(segments, ws, pairs):
    """The smallest computed distance over the pairs."""
    return min(segments[i].dist_to_point(ws[t]) for t, i in pairs)


def _top_points(torus, xi=0.5):
    """Points at the top of the truncation, next to the excursion."""
    y = torus.cusps[0].width / xi
    return [complex(x, y) for x in (-2.9, -1.3, 0.4, 2.5)]


class TestHeightWindow:
    def test_curve_reaches_above_the_window(self, torus, excursion):
        """A point at the top of the truncation gathers, at cut 1, fewer
        rows than the excursion holds passages: the rows high in the
        cusp are left out."""
        assert max(s.start.imag for s in excursion) > 1e3
        table = _Passages(excursion)
        _, rows = table._gather(_top_points(torus)[:1], 1.0)
        assert 0 < len(rows) < len(excursion)

    @pytest.mark.parametrize("cut", [None, 0.05, 0.3, 1.0])
    def test_same_pairs_as_every_row(self, torus, torus_curve, excursion,
                                     cut):
        """The pairs of a table that bounds every row at an explicit cut.
        The default cut is found over the rows gathered at _NEAR_CUT
        only, so it may be larger and keep more pairs, but never a
        nearer one."""
        curve = torus_curve + excursion
        table, every = _Passages(curve), _all_rows(curve)
        for z in _top_points(torus) + _truncated_points(torus, 4, seed=14):
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
            got, want = _pairs(table, ws, cut), _pairs(every, ws, cut)
            if cut is not None:
                assert got == want
                continue
            assert set(got) >= set(want)
            assert _nearest(curve, ws, got) == _nearest(curve, ws, want)

    def test_equals_plain_scan(self, torus, torus_curve, excursion):
        curve = torus_curve + excursion
        for z in _top_points(torus):
            assert _certify(torus, z, curve, 0.2) \
                == _expected(torus, z, curve, 0.2)

    @pytest.mark.parametrize("at", ["head", "tail"])
    def test_infinite_passage_refused(self, torus, torus_curve, at):
        # a polygon side running into a cusp has no midpoint to bound from
        ray = torus.sides[0].segment
        assert math.isinf(ray.s0)
        curve = [ray] + torus_curve if at == "head" else torus_curve + [ray]
        with pytest.raises(ValueError, match="infinite parameter"):
            _Passages(curve)
        with pytest.raises(ValueError, match="infinite parameter"):
            dist_to_closed_geodesic(torus, torus.base_point, curve, 0.2)

    def test_tie_takes_the_first_passage(self):
        """Two passages share a midpoint on a line of radius 1e8; the
        longer one reaches lower, where its pieces have the larger slack
        and are kept apart as wide rows.  A cut of 1e-5 keeps both and a
        third passage 3e-6 away; the default cut keeps both at least."""
        line = GeodesicLine.circle(0.0, 1e8)
        short, long_ = GeodesicSegment(line, 15.0, 17.0), \
            GeodesicSegment(line, 11.0, 21.0)
        m = line.point_at(16.0)
        x = m.real + m.imag * math.sinh(3e-6)
        side = GeodesicSegment(GeodesicLine.vertical(x),
                               math.log(m.imag) - 1.0, math.log(m.imag) + 1.0)
        table = _Passages([short, long_, side])
        assert _Passages([long_]).slack.max() \
            > 10.0 * _Passages([short]).slack.max() > 0.0
        assert len(table.wide) > 0
        assert {(0, 0), (0, 1)} <= set(_pairs(table, [m]))
        assert _pairs(table, [m], 1e-5) == [(0, 0), (0, 1), (0, 2)]

    def test_empty_inputs(self, torus, torus_curve):
        ws = [torus.base_point]
        for cut in (None, 1.0):
            assert _pairs(_Passages([]), ws, cut) == []
            assert _pairs(_Passages(torus_curve), [], cut) == []

    def test_every_row_above_the_window(self, torus, excursion):
        """No row lies near the point: the gather at _NEAR_CUT is empty,
        the default cut is found over every row, and the answer is still
        the plain scan's RadiusTooSmall."""
        high = [s for s in excursion if min(s.start.imag, s.end.imag) > 100.0]
        assert len(high) > 100
        z = torus.base_point
        ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
        table, every = _Passages(high), _all_rows(high)
        assert len(table._gather(ws, _NEAR_CUT)[1]) == 0
        got, want = _pairs(table, ws), _pairs(every, ws)
        assert set(got) >= set(want) != set()
        assert _nearest(high, ws, got) == _nearest(high, ws, want)
        assert _pairs(table, ws, 0.5) == _pairs(every, ws, 0.5) == []
        want = _expected(torus, z, high, 0.2)
        assert isinstance(want, str)
        with pytest.raises(RadiusTooSmall, match=re.escape(want)):
            dist_to_closed_geodesic(torus, z, high, 0.2)


def _pair_bounds(table, ws, cut):
    """{(point, passage): lower bound} of the pairs _bounded keeps."""
    return {(t, i): bound for bound, t, i in table._bounded(ws, cut)}


def _huge_passage(x, log_y, a, b):
    """A passage on a circle of radius 1e8 through x + i 10^log_y, from
    a to b along it: its pieces have slacks of about 1e-6 or more."""
    y, r = 10.0 ** log_y, 1e8
    line = GeodesicLine.circle(x + math.sqrt((r - y) * (r + y)), r)
    s = line.param_of(complex(x, y))
    return GeodesicSegment(line, s + min(a, b), s + max(a, b))


class TestPieceIndex:
    """_bounded bounds only the pieces _gather finds near each point."""

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-3.0, 3.0), st.floats(-1.5, 0.5),
                     st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
           st.lists(st.tuples(st.one_of(st.just(-1), st.integers(0, 10**6)),
                              st.floats(0.0, 1.0), st.floats(-0.3, 0.3),
                              st.floats(-0.3, 0.3)),
                    min_size=1, max_size=3),
           st.floats(0.0, 1.0))
    # a long passage on the huge line: every piece is a wide row
    @example((0.5, -1.0, -1.5, 1.5), [(-1, 0.5, 0.0, 1e-3)], 0.01)
    def test_same_pairs_and_bounds_as_every_row(self, torus_curve,
                                                excursion, huge, near, cut):
        """At an explicit cut, the pairs and bounds of a pass that
        bounds every row, exactly.  One to three points lie within about
        0.4 of a passage: of the processed curve, of an excursion to
        chart height 1.5e3, or of a passage on a line of radius 1e8."""
        curve = torus_curve + excursion + [_huge_passage(*huge)]
        ws = []
        for k, f, u, v in near:
            z = curve[k % len(curve)].point_at_fraction(f)
            ws.append(z + z.imag * complex(u, v))
        table = _Passages(curve)
        got = _pair_bounds(table, ws, cut)
        table._gather = lambda ws, cut: table._every(len(ws))
        assert got == _pair_bounds(table, ws, cut)

    def test_gathers_a_tenth_of_the_height_window(self, torus, torus_curve,
                                                  monkeypatch):
        """The rows dist_to_closed_geodesic evaluates per point at radius
        0.2, counted over its gathers: a median of 39, under a tenth of
        the (point, passage) pairs of the height window that an index by
        height alone bounds over the ball of that radius, the passages
        whose lowest point lies below the highest image of the point."""
        low = sorted(math.log(s.point_at(0.5 * (s.s0 + s.s1)).imag)
                     - 0.5 * s.length for s in torus_curve)
        q2, rows = _Passages._q2, []
        monkeypatch.setattr(_Passages, "_q2", lambda self, x, y, f: (
            rows.append(len(f)), q2(self, x, y, f))[1])
        evaluated, window = [], []
        for z in _truncated_points(torus, 25, seed=11):
            rows.clear()
            dist_to_closed_geodesic(torus, z, torus_curve, 0.2)
            evaluated.append(sum(rows))
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
            top = math.log(max(w.imag for w in ws))
            window.append(len(ws) * bisect.bisect_right(low, top))
        assert statistics.median(evaluated) == 39
        assert statistics.median(evaluated) < statistics.median(window) / 10


@pytest.fixture(scope="module")
def sphere_curve(sphere, sphere_dec):
    return _processed_curve(sphere, sphere_dec, eps=0.05, xi=0.2, x_hi=1.0,
                            y_hi=1.2)


class TestSphere:
    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_equals_plain_scan_near_the_finite_vertices(
            self, sphere, sphere_curve, radius):
        """Points of the eps 0.05, xi 0.2 truncation near the cusp
        vertices 0 and 1, up to chart height 9.5 in their cusps, where
        the passages are small in polygon coordinates: the value or the
        RadiusTooSmall message of a scan of every pair."""
        kinds = set()
        for cusp in sphere.cusps[1:]:
            assert cusp.vertex in (0.0, 1.0)
            for y in (1.5, 4.0, 9.5):
                for f in (0.1, 0.5, 0.9):
                    z = cusp.chart_inv.apply(
                        complex(cusp.strip_lo + f * cusp.width, y))
                    assert sphere.inside(z, tol=0.0) \
                        and sphere.in_truncation(z, 0.2, tol=0.0)
                    want = _expected(sphere, z, sphere_curve, radius)
                    assert _certify(sphere, z, sphere_curve, radius) == want
                    kinds.add(type(want))
        assert kinds == ({float} if radius == 0.2 else {float, str})


def _past_a_bound(z, half, monkeypatch):
    """Two vertical passages of length 2 half centred at z's height,
    0.005 to either side of it, the farther one's dist_to_point patched
    to come out DIST_TOL / 2 short, below the nearer one's, while its
    bound stays above.  Returns them and that shortened distance."""

    def vertical(d):
        x = z.real + z.imag * math.sinh(d)
        s = math.log(z.imag)
        return GeodesicSegment(GeodesicLine.vertical(x), s - half, s + half)

    near_seg, far_seg = vertical(-0.005), vertical(0.005 + DIST_TOL / 4)
    dist_to_point = GeodesicSegment.dist_to_point

    def short(seg, w):
        return dist_to_point(seg, w) - 0.5 * DIST_TOL * (seg is far_seg)

    monkeypatch.setattr(GeodesicSegment, "dist_to_point", short)
    curve = [near_seg, far_seg]
    table = _Passages(curve)
    (b_near, _, _), (b_far, _, _) = sorted(
        table._bounded([z], table._default_cut(table._near([z]))),
        key=lambda pair: pair[2])
    assert b_near < b_far
    assert short(far_seg, z) < short(near_seg, z) < b_far
    return curve, short(far_seg, z)


class TestBestFirst:
    """dist_to_closed_geodesic evaluates _bounded's pairs in increasing
    lower bound and stops at the first bound above the best by more than
    the bound's error."""

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_few_exact_distances(self, torus, torus_curve, excursion,
                                 radius, monkeypatch):
        """The plain scan's answer from fewer exact distances than
        _bounded keeps pairs.  In bound order, every pair before the
        nearest one has a bound below the answer plus DIST_TOL, and every
        pair after it one below the answer plus the margin: each passage
        measured has its carrying line and its midpoint bound that
        close."""
        curve = torus_curve + excursion
        table = _Passages(curve)
        mine = {id(seg) for seg in curve}
        dist_to_point = GeodesicSegment.dist_to_point
        measured = []

        def counted(seg, w):
            if id(seg) in mine:
                measured.append((seg, w))
            return dist_to_point(seg, w)

        made = kept = 0
        for z in _truncated_points(torus, 25, seed=11) + _top_points(torus):
            best = _plain_scan(torus, z, curve, radius)
            measured.clear()
            with monkeypatch.context() as m:
                m.setattr(GeodesicSegment, "dist_to_point", counted)
                assert _certify(torus, z, curve, radius) \
                    == _verdict(z, radius, best)
            for seg, w in measured:
                mid = seg.point_at(0.5 * (seg.s0 + seg.s1))
                lower = max(dist(w, mid) - 0.5 * seg.length,
                            seg.line.dist_to(w))
                assert lower <= best + _STOP_MARGIN + DIST_TOL
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, radius)]
            pairs = len(_pairs(table, ws))
            assert len(measured) <= pairs
            made += len(measured)
            kept += pairs
        assert made < kept

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_order_of_equal_bounds(self, torus, torus_curve, radius):
        """Equal bounds are walked in whatever order the sort leaves
        them: the curve reversed, or with its passage nearest the point
        listed twice, gives the same answer bit for bit."""
        for z in _truncated_points(torus, 8, seed=15):
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, radius)]
            k = min(range(len(torus_curve)), key=lambda k: min(
                torus_curve[k].dist_to_point(w) for w in ws))
            want = repr(_certify(torus, z, torus_curve, radius))
            for curve in (torus_curve[::-1], torus_curve + [torus_curve[k]]):
                assert repr(_certify(torus, z, curve, radius)) == want

    def test_scan_goes_past_a_bound_within_its_error(self, torus,
                                                    monkeypatch):
        """A bound may exceed its pair's computed distance by up to
        DIST_TOL.  Here the farther passage's distance comes out
        DIST_TOL / 2 short, below the nearer one's, while its bound stays
        above: a scan that stopped at the first bound above the best
        would miss it."""
        z = complex(0.3, 1.2)
        assert [w for w, _ in ball(torus, z, 0.01)] == [""]
        curve, want = _past_a_bound(z, 0.1, monkeypatch)
        assert dist_to_closed_geodesic(torus, z, curve, 0.01) == want


def _off_the_sides(model, count, seed, lo, hi, outside=False):
    """Points 10^lo to 10^hi heights off a side line, along its segment
    up to parameter 3, inside the polygon or outside it."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        side = rng.choice(model.sides)
        s = rng.uniform(max(side.s_lo, -3.0), min(side.s_hi, 3.0))
        p = side.line.point_at(s)
        z = p + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi) \
            * p.imag * 1j * side.line.tangent_at(s)
        if (not model.inside(z)) if outside else model.inside(z, tol=0.0):
            out.append(z)
    return out


def _near_vertices(model, count, seed):
    """Points of the polygon 1e-6 to 1e-2 heights from a finite vertex."""
    rng = random.Random(seed)
    vertices = [v for v in model.spec.vertices if isinstance(v, complex)]
    out = []
    while len(out) < count:
        v = rng.choice(vertices)
        z = v + 10.0 ** rng.uniform(-6.0, -2.0) * v.imag \
            * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if model.inside(z, tol=0.0):
            out.append(z)
    return out


def _recorded_balls(monkeypatch):
    """(reach, tiles kept) of each ball dist_to_closed_geodesic makes."""
    made, plain = [], orbit.ball
    monkeypatch.setattr(orbit, "ball", lambda model, z, reach: (
        lambda out: (made.append((reach, len(out))), out)[1])(
            plain(model, z, reach)))
    return made


class TestOwnTileFirst:
    """A polygon point is bounded from its own tile first, and its ball
    reaches only as far as that bound: the answers are those of a scan
    of every pair over the ball of the full radius."""

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_near_the_sides_and_vertices(self, torus, torus_curve, radius,
                                         monkeypatch):
        """Points within the cut of a side or a finite vertex, where the
        smaller ball still holds two tiles or more."""
        made = _recorded_balls(monkeypatch)
        for z in _off_the_sides(torus, 40, seed=21, lo=-6.0, hi=-2.0) \
                + _near_vertices(torus, 10, seed=22):
            assert _certify(torus, z, torus_curve, radius) \
                == _expected(torus, z, torus_curve, radius)
        if radius == 0.2:
            assert sum(n >= 2 for reach, n in made if reach < radius) >= 40

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_outside_the_polygon(self, torus, torus_curve, radius,
                                 monkeypatch):
        """Points outside follow the same sequence as points inside: at
        radius 0.2, 28 of the 30 balls reach only the cut of the point's
        own rows, and each keeps the point's tile and the one across the
        side.  A point whose ball holds no tile is refused with
        ValueError."""
        made = _recorded_balls(monkeypatch)
        kinds = set()
        for z in _off_the_sides(torus, 30, seed=23, lo=-7.0, hi=-0.5,
                                outside=True):
            want = _expected(torus, z, torus_curve, radius)
            assert _certify(torus, z, torus_curve, radius) == want
            kinds.add(type(want) if isinstance(want, float)
                      else want.split()[1])
        smaller = [n for reach, n in made if reach < radius]
        if radius == 0.2:
            assert len(smaller) >= 25 and min(smaller) >= 2
        assert kinds == ({float, "lies"} if radius == 0.2
                         else {float, "stays", "lies"})

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_nearest_lift_in_the_neighbouring_tile(self, torus, radius,
                                                   monkeypatch):
        """z lies 0.002 inside side 0, 0.006 from a passage of its own
        tile; a passage 0.001 inside the partner side passes 0.003 from
        z's lift in the tile across side 0.  The smaller ball holds both
        tiles and the answer is that lift's distance."""
        side = torus.sides[0]
        partner = torus.sides[side.partner]
        s = 0.5 * (max(side.s_lo, -3.0) + min(side.s_hi, 3.0))
        p = side.line.point_at(s)
        inward = 1j * side.line.tangent_at(s)
        if not torus.inside(p + 1e-3 * p.imag * inward, tol=0.0):
            inward = -inward
        z = p + math.sinh(0.002) * p.imag * inward

        def across(q, d, direction):
            """A short passage through the point d from q along
            direction, perpendicular to it."""
            c = q + math.sinh(d) * q.imag * direction
            t = 1j * direction * 0.01 * c.imag
            return GeodesicSegment.between(c - t, c + t)

        q = side.pairing.apply(p)
        t = partner.line.tangent_at(partner.line.param_of(q))
        inward_q = 1j * t if torus.inside(q + 1e-3 * q.imag * 1j * t,
                                          tol=0.0) else -1j * t
        curve = [across(z, 0.006, inward), across(q, 0.001, inward_q)]
        made = _recorded_balls(monkeypatch)
        got = _certify(torus, z, curve, radius)
        assert got == _expected(torus, z, curve, radius)
        if radius == 0.2:
            assert got == pytest.approx(0.003, abs=1e-5)
            assert got < min(seg.dist_to_point(z) for seg in curve)
            assert len(made) == 1 and made[0][0] < 0.01 and made[0][1] >= 2

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_sphere_cusp_vertices(self, sphere, sphere_curve, radius,
                                  monkeypatch):
        """Points near the sphere's cusp vertices 0 and 1, up their
        cusps and on their walls, where the polygon is narrow in polygon
        coordinates."""
        made = _recorded_balls(monkeypatch)
        for cusp in sphere.cusps[1:]:
            for y in (1.5, 4.0, 9.5):
                for f in (1e-6, 1e-3, 0.3, 0.999):
                    z = cusp.chart_inv.apply(
                        complex(cusp.strip_lo + f * cusp.width, y))
                    assert _certify(sphere, z, sphere_curve, radius) \
                        == _expected(sphere, z, sphere_curve, radius)
        if radius == 0.2:
            assert sum(n >= 2 for reach, n in made if reach < radius) >= 12

    @pytest.mark.parametrize("half", [0.1, 0.02])
    def test_scan_goes_past_a_bound_through_the_smaller_ball(
            self, torus, half, monkeypatch):
        """TestBestFirst's passage DIST_TOL / 2 short, at radius 0.2:
        the ball reaches only the cut of z's own tile and holds that tile
        alone.  The nearest of four pieces' midpoints gives a cut of
        0.026, bounded from a second gather; a single piece's gives
        0.005, bounded from the rows gathered first."""
        z = complex(0.3, 1.2)
        curve, want = _past_a_bound(z, half, monkeypatch)
        made = _recorded_balls(monkeypatch)
        assert dist_to_closed_geodesic(torus, z, curve, 0.2) == want
        [(reach, tiles)] = made
        assert tiles == 1
        assert reach == pytest.approx(0.026 if half == 0.1 else 0.005,
                                      abs=1e-3)

    def test_one_tile_per_point(self, torus, torus_curve, monkeypatch):
        """Work per point: over 100 truncated points at radius 0.2, at
        most one point's ball keeps a second tile.  A ball of the full
        radius keeps one for 40 of them."""
        made = _recorded_balls(monkeypatch)
        for z in _truncated_points(torus, 100, seed=11):
            dist_to_closed_geodesic(torus, z, torus_curve, 0.2)
        assert len(made) == 100
        assert sum(n > 1 for _, n in made) <= 1

    def test_two_side_reads_per_point(self, torus, torus_curve, monkeypatch):
        """Work per point: over 100 truncated points at radius 0.2, a
        point whose ball keeps its own tile alone reads its side
        distances twice, in the identity's exact test and in its
        half-plane bound."""
        points = _truncated_points(torus, 100, seed=11)
        made = _recorded_balls(monkeypatch)
        reads, side_signed_dists = [0], SurfaceModel.side_signed_dists

        def counted(model, z):
            reads[0] += 1
            return side_signed_dists(model, z)

        monkeypatch.setattr(SurfaceModel, "side_signed_dists", counted)
        per_point = []
        for z in points:
            reads[0] = 0
            dist_to_closed_geodesic(torus, z, torus_curve, 0.2)
            if made[-1][1] == 1:
                per_point.append(reads[0])
        assert len(per_point) >= 99
        assert max(per_point) <= 2
