"""Tile enumeration and certified distance tests."""

import cmath
import dataclasses
import itertools
import math
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geodense.catalog import CATALOG
from geodense.densify import DensityParams, classify_and_extend, replace_arc
from geodense.errors import RadiusTooSmall
from geodense.halfplane import GeodesicLine, GeodesicSegment, Isometry, dist
from geodense.orbit import (
    DIST_TOL,
    _STOP_MARGIN,
    _Passages,
    ball,
    dist_to_closed_geodesic,
    dist_to_domain,
)
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
            assert sphere.word_iso(w).approx_equal(g, tol=1e-9)

    def test_completeness_against_brute_force(self, sphere):
        r = 2.0
        words = {w for w, _ in ball(sphere, sphere.base_point, r)}
        for w in all_reduced_words("abAB", 4):
            g = sphere.word_iso(w)
            d = dist_to_domain(sphere, g.inverse().apply(sphere.base_point))
            if d <= r - 1e-9:
                assert w in words, w

    def test_deep_center_trips_budget(self, sphere):
        with pytest.raises(RadiusTooSmall):
            ball(sphere, complex(0.05, 2000.0), 2.0, max_tiles=50)

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
    queue = deque([("", Isometry.identity())])
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
                queue.append((nw, g @ side.inverse_pairing))
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
    def test_budget_trips_at_the_same_tile(self, name, request):
        model = request.getfixturevalue(name)
        for z in _ball_centers(model)[-len(model.cusps) - 2:]:
            n = len(_plain_ball(model, z, 1.0))
            assert len(ball(model, z, 1.0, max_tiles=n)) == n
            with pytest.raises(RadiusTooSmall) as got:
                ball(model, z, 1.0, max_tiles=n - 1)
            with pytest.raises(RadiusTooSmall) as want:
                _plain_ball(model, z, 1.0, max_tiles=n - 1)
            assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def commutator(sphere):
    return base_geodesic(sphere, "ab").segments()


class TestDistToClosedGeodesic:
    def test_point_on_geodesic(self, sphere, commutator):
        line, _ = sphere.axis_of("ab")
        z = line.point_at(0.0)       # axis apex, on the polygon boundary
        assert dist_to_closed_geodesic(sphere, z, commutator, 1.0) \
            == pytest.approx(0.0, abs=1e-9)

    def test_matches_lift_enumeration(self, sphere, commutator):
        line, _ = sphere.axis_of("ab")
        for z in (sphere.base_point, complex(-0.4, 0.8), complex(0.3, 1.7)):
            oracle = min(
                sphere.word_iso(w).apply_line(line).dist_to(z)
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
        curve = torus_dec.base.segments()
        seg = curve[0]
        z = seg.point_at(0.5 * (seg.s0 + seg.s1))
        assert dist_to_closed_geodesic(torus, z, curve, 0.2) == 0.0
        image = torus.sides[0].pairing.apply(z)
        d = dist_to_domain(torus, image)
        assert d > 1.0 and ball(torus, image, 0.2) == []
        with pytest.raises(ValueError, match=re.escape(
                f"{image:.6g} lies {d:.6g} from the polygon")):
            dist_to_closed_geodesic(torus, image, curve, 0.2)


@pytest.fixture(scope="module")
def torus_curve(torus, torus_dec):
    return _processed_curve(torus, torus_dec)


def _processed_curve(torus, dec):
    """The passages of processed thick arcs at eps 0.2, xi 0.5: 2000 or
    more, the scale of a certificate's curve."""
    params = DensityParams(0.2, 0.5)
    rng = random.Random(5)
    curve = []
    while len(curve) < 2000:
        z = complex(rng.uniform(-3.0, 3.0),
                    math.exp(rng.uniform(math.log(0.35), math.log(2.5))))
        if not torus.inside(z, tol=0.0) \
                or torus.min_level(z) < params.xi * math.exp(0.5):
            continue
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        seg = trace_geodesic(torus, z, u, 0.45).steps[0].segment
        if seg.length < 0.1:
            continue
        outs = classify_and_extend(seg, params, dec.constants, torus,
                                   gamma0=dec.base)
        pa = replace_arc(seg, outs, params, dec.constants, torus,
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
    """The answer, or the RadiusTooSmall message."""
    try:
        return dist_to_closed_geodesic(model, z, segments, radius)
    except RadiusTooSmall as exc:
        return str(exc)


def _expected(model, z, segments, radius):
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
        table = _Passages([seg])
        assert table.near([w], cut=d + DIST_TOL) == ([0], [0])
        _, _, bound = table._bounded([w], cut=d + DIST_TOL)
        assert bound[0] <= d + DIST_TOL


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
    """A table whose height window holds every row."""
    table = _Passages(segments)
    table._window = lambda log_top, cut: len(segments)
    return table


def _top_points(torus, xi=0.5):
    """Points at the top of the truncation, where the window is widest."""
    y = torus.cusps[0].width / xi
    return [complex(x, y) for x in (-2.9, -1.3, 0.4, 2.5)]


class TestHeightWindow:
    def test_curve_reaches_above_the_window(self, torus, excursion):
        assert max(s.start.imag for s in excursion) > 1e3
        table = _Passages(excursion)
        log_top = math.log(_top_points(torus)[0].imag)
        assert 0 < table._window(log_top, 1.0) < len(excursion)

    @pytest.mark.parametrize("cut", [None, 0.05, 0.3, 1.0])
    def test_same_pairs_as_every_row(self, torus, torus_curve, excursion,
                                     cut):
        curve = torus_curve + excursion
        table, every = _Passages(curve), _all_rows(curve)
        for z in _top_points(torus) + _truncated_points(torus, 4, seed=14):
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
            got = table.near(ws, cut)
            assert got == every.near(ws, cut)
            assert list(zip(*got)) == sorted(zip(*got))

    def test_equals_plain_scan(self, torus, torus_curve, excursion):
        curve = torus_curve + excursion
        for z in _top_points(torus):
            assert _certify(torus, z, curve, 0.2) \
                == _expected(torus, z, curve, 0.2)

    @pytest.mark.parametrize("cut", [None, 0.01])
    def test_infinite_passage_always_kept(self, torus, torus_curve,
                                          excursion, cut):
        ray = torus.sides[0].segment
        assert math.isinf(ray.s0)
        curve = [ray] + torus_curve + excursion + [ray]
        table = _Passages(curve)
        for z in _top_points(torus) + [torus.base_point]:
            ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
            pairs = set(zip(*table.near(ws, cut)))
            for t in range(len(ws)):
                assert {(t, 0), (t, len(curve) - 1)} <= pairs

    def test_tie_takes_the_first_passage(self):
        """Two passages share a midpoint on a line of radius 1e8; the
        longer one has the larger slack and the lower height bound.  The
        default cut takes the slack of the first one in the list, as a
        scan of every row does, which leaves out a third passage
        3e-6 away."""
        line = GeodesicLine.circle(0.0, 1e8)
        short, long_ = GeodesicSegment(line, 15.0, 17.0), \
            GeodesicSegment(line, 11.0, 21.0)
        m = line.point_at(16.0)
        x = m.real + m.imag * math.sinh(3e-6)
        side = GeodesicSegment(GeodesicLine.vertical(x),
                               math.log(m.imag) - 1.0, math.log(m.imag) + 1.0)
        table = _Passages([short, long_, side])
        assert _Passages([long_]).slack[0] \
            > 10.0 * _Passages([short]).slack[0] > 0.0
        assert table.near([m]) == ([0, 0], [0, 1])
        assert table.near([m], 1e-5) == ([0, 0, 0], [0, 1, 2])

    def test_empty_inputs(self, torus, torus_curve):
        ws = [torus.base_point]
        for cut in (None, 1.0):
            assert _Passages([]).near(ws, cut) == ([], [])
            assert _Passages(torus_curve).near([], cut) == ([], [])

    def test_every_row_above_the_window(self, torus, excursion):
        """The window of cut 0 holds no row: it widens to the lowest
        one, and the answer is still the plain scan's RadiusTooSmall."""
        high = [s for s in excursion if min(s.start.imag, s.end.imag) > 100.0]
        assert len(high) > 100
        z = torus.base_point
        ws = [g.inverse().apply(z) for _, g in ball(torus, z, 0.2)]
        table, every = _Passages(high), _all_rows(high)
        assert table._window(math.log(max(w.imag for w in ws)), 0.0) == 0
        assert table.near(ws) == every.near(ws)
        assert table.near(ws) != ([], [])
        assert table.near(ws, 0.5) == every.near(ws, 0.5) == ([], [])
        want = _expected(torus, z, high, 0.2)
        assert isinstance(want, str)
        with pytest.raises(RadiusTooSmall, match=re.escape(want)):
            dist_to_closed_geodesic(torus, z, high, 0.2)


class TestBestFirst:
    """dist_to_closed_geodesic evaluates near's pairs in increasing lower
    bound and stops at the first bound above the best by more than the
    bound's error."""

    @pytest.mark.parametrize("radius", [0.2, 0.001])
    def test_few_exact_distances(self, torus, torus_curve, excursion,
                                 radius, monkeypatch):
        """The plain scan's answer from fewer exact distances than near
        keeps pairs.  In bound order, every pair before the nearest one
        has a bound below the answer plus DIST_TOL, and every pair after
        it one below the answer plus the margin: each passage measured
        has its carrying line and its midpoint bound that close."""
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
            pairs = len(table.near(ws)[0])
            assert len(measured) <= pairs
            made += len(measured)
            kept += pairs
        assert made < kept

    def test_scan_goes_past_a_bound_within_its_error(self, torus,
                                                    monkeypatch):
        """A bound may exceed its pair's computed distance by up to
        DIST_TOL.  Here the farther passage's distance comes out
        DIST_TOL / 2 short, below the nearer one's, while its bound stays
        above: a scan that stopped at the first bound above the best
        would miss it."""
        z = complex(0.3, 1.2)
        assert [w for w, _ in ball(torus, z, 0.01)] == [""]

        def vertical(d):
            x = z.real + z.imag * math.sinh(d)
            s = math.log(z.imag)
            return GeodesicSegment(GeodesicLine.vertical(x), s - 0.1, s + 0.1)

        near_seg, far_seg = vertical(-0.005), vertical(0.005 + DIST_TOL / 4)
        dist_to_point = GeodesicSegment.dist_to_point

        def short(seg, w):
            return dist_to_point(seg, w) - 0.5 * DIST_TOL * (seg is far_seg)

        monkeypatch.setattr(GeodesicSegment, "dist_to_point", short)
        curve = [near_seg, far_seg]
        _, i, bound = _Passages(curve)._bounded([z])
        b_near, b_far = bound[np.argsort(i)]
        assert b_near < b_far
        assert short(far_seg, z) < short(near_seg, z) < b_far
        assert dist_to_closed_geodesic(torus, z, curve, 0.01) \
            == short(far_seg, z)
