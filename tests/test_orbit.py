"""Tile enumeration and certified distance tests."""

import cmath
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from geodense.decomp import decompose
from geodense.densify import DensityParams, classify_and_extend, replace_arc
from geodense.errors import RadiusTooSmall
from geodense.halfplane import GeodesicLine, GeodesicSegment, dist
from geodense.orbit import (
    DIST_TOL,
    _Passages,
    ball,
    dist_to_closed_geodesic,
    dist_to_domain,
)
from geodense.surface import load_surface
from geodense.tracing import base_geodesic, trace_geodesic
from geodense.words import free_reduce


@pytest.fixture(scope="module")
def sphere():
    return load_surface("thrice-punctured-sphere")


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


@pytest.fixture(scope="module")
def torus():
    return load_surface("once-punctured-torus")


@pytest.fixture(scope="module")
def torus_curve(torus):
    return _processed_curve(torus)


def _processed_curve(torus):
    """The passages of processed thick arcs at eps 0.2, xi 0.5: 2000 or
    more, the scale of a certificate's curve."""
    dec = decompose(torus)
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
    best = _plain_scan(model, z, segments, radius)
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
        DIST_TOL.  The point sits off a line of radius up to 1e8 by a
        factor 1e-12 to 1 of its height, on either side, anywhere along
        the passage or beyond its ends, and mostly outside the polygon."""
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
        t, i = _Passages([seg]).near([w], cut=seg.dist_to_point(w) + DIST_TOL)
        assert (t, i) == ([0], [0])
