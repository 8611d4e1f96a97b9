"""Bounds formulas against independent geometric constructions.

The oracles here rebuild each quantity from raw half-plane geometry
(crossing tests, measured angles, point distances) and never call the
closed form under test on the oracle side.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from geodense import formulas as fm
from geodense.halfplane import (
    INF,
    GeodesicLine,
    Horocycle,
    angle_between,
    angle_with_horocycle,
    dist,
    lines_cross,
)

E = math.e


def mirrored_pair(theta: float, u: float) -> tuple[GeodesicLine, GeodesicLine]:
    """Two lines crossing the imaginary axis at angle theta, at heights
    1 and e^u, leaning toward each other."""
    t = math.tan(theta / 2)
    l1 = GeodesicLine.from_endpoints(-t, 1.0 / t)
    l2 = GeodesicLine.from_endpoints(-math.exp(u) / t, math.exp(u) * t)
    return l1, l2


def oracle_disjointness(theta: float) -> float:
    """Binary search for the separation at which the mirrored pair
    stops crossing."""
    lo, hi = 0.0, 30.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lines_cross(*mirrored_pair(theta, mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDisjointness:
    def test_frozen_values(self):
        assert fm.disjointness_threshold(math.pi / 6) == pytest.approx(
            2.633915793849633, abs=1e-12)
        assert fm.disjointness_threshold(math.pi / 4) == pytest.approx(
            1.762747174039086, abs=1e-12)
        assert fm.disjointness_threshold(math.pi / 3) == pytest.approx(
            math.log(3.0), abs=1e-12)

    def test_equals_cot_form(self):
        for theta in (0.2, 0.7, 1.1, math.pi / 2):
            assert fm.disjointness_threshold(theta) == pytest.approx(
                2.0 * math.log(1.0 / math.tan(theta / 2)), abs=1e-12)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, 0.9, 1.3, math.pi / 2])
    def test_oracle_binary_search(self, theta):
        assert oracle_disjointness(theta) == pytest.approx(
            fm.disjointness_threshold(theta), abs=1e-9)

    @given(st.floats(0.1, math.pi / 2 - 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_threshold_is_sharp(self, theta):
        # stop short of pi/2 where the threshold itself is zero and the
        # mirrored lines at separation zero coincide
        m = fm.disjointness_threshold(theta)
        assert lines_cross(*mirrored_pair(theta, 0.99 * m))
        assert not lines_cross(*mirrored_pair(theta, 1.01 * m + 1e-9))

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            fm.disjointness_threshold(0.0)
        with pytest.raises(ValueError):
            fm.disjointness_threshold(2.0)


class TestClearance:
    def test_frozen_values(self):
        assert fm.clearance(1.0, math.pi / 2) == pytest.approx(
            1.0 + math.log(2.0), abs=1e-12)
        assert fm.clearance(0.5, math.pi / 6) == pytest.approx(
            math.log(2.0) + 1.0 + math.log(4.0), abs=1e-12)

    @given(st.floats(1e-3, 1.0), st.floats(0.05, math.pi / 2))
    @settings(max_examples=100, deadline=None)
    def test_covers_half_threshold_plus_one(self, eps, theta0):
        # disjointness on both sides of an arc needs half the threshold
        # plus a unit of slack on each side; holds whenever eps <= 1
        r = fm.clearance(eps, theta0)
        assert r >= fm.disjointness_threshold(theta0) / 2.0 + 1.0 - 1e-12

    @given(st.floats(1e-3, 1.0), st.floats(0.05, math.pi / 2))
    @settings(max_examples=100, deadline=None)
    def test_exceeds_limit_ray_threshold(self, eps, theta0):
        # the projection-containment argument needs the limiting ray at
        # distance clearance to stay within a right angle; this reduces
        # to the inequality below, valid for eps <= 1
        r = fm.clearance(eps, theta0)
        rhs = (0.5 * math.log(1.0 / math.sin(theta0))
               + math.log(1.0 + math.sqrt(2.0))
               + math.log(1.0 + math.cos(theta0)))
        assert r > rhs

    def test_limit_ray_threshold_fails_above_one(self):
        # the same inequality genuinely fails for eps = 2 near the
        # minimizing angle, so the property above is stated on (0, 1]
        theta0 = math.acos(2.0 / 3.0)
        r = fm.clearance(2.0, theta0)
        rhs = (0.5 * math.log(1.0 / math.sin(theta0))
               + math.log(1.0 + math.sqrt(2.0))
               + math.log(1.0 + math.cos(theta0)))
        assert r < rhs

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            fm.clearance(0.0, 1.0)


class TestDeepHorocycle:
    def test_length_is_xi_shrunk_by_clearance(self):
        for (eps, xi, t0) in [(1.0, 1.0, 0.8), (0.5, 0.3, 1.2), (2.0, 0.5, 0.4)]:
            assert fm.deep_horocycle_length(eps, xi, t0) == pytest.approx(
                xi * math.exp(-fm.clearance(eps, t0)), abs=1e-12)


class TestDeepEntryAngle:
    def test_frozen_value(self):
        assert fm.deep_entry_angle(1.0, 1.0, math.pi / 2) == pytest.approx(
            1.2069835669789972, abs=1e-12)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 1.0), st.floats(0.1, math.pi / 2))
    @settings(max_examples=100, deadline=None)
    def test_measured_on_construction(self, eps, xi, theta0):
        # geodesic from its ideal endpoint 0 to 1+H^2 meets {y=H} at 1+iH
        H = 1.0 / fm.deep_horocycle_length(eps, xi, theta0)
        line = GeodesicLine.from_endpoints(0.0, 1.0 + H * H)
        z = complex(1.0, H)
        assert line.dist_to(z) < 1e-9
        measured = angle_with_horocycle(line, Horocycle(INF, H), z)
        assert measured == pytest.approx(
            fm.deep_entry_angle(eps, xi, theta0), abs=1e-9)


class TestMaxTraverse:
    def test_frozen_value(self):
        assert fm.max_traverse(1.0, math.pi / 4) == pytest.approx(
            4.044715392983497, abs=1e-12)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 1.4))
    @settings(max_examples=100, deadline=None)
    def test_extreme_chord_attains(self, d, psi):
        # chord from i to 2A+i below the horocycle {y=e^d}, with the
        # supporting circle of radius e^d/cos(psi); near d = psi = 0 the
        # arccosh argument grazes 1 and both routes lose half their digits
        assume(2.0 * math.exp(2.0 * d) / math.cos(psi) ** 2 - 2.0 > 1e-6)
        A = math.sqrt((math.exp(d) / math.cos(psi)) ** 2 - 1.0)
        measured = dist(1j, complex(2.0 * A, 1.0))
        assert measured == pytest.approx(fm.max_traverse(d, psi), abs=1e-9)

    def test_extreme_chord_entry_angle(self):
        d, psi = 1.3, 0.8
        A = math.sqrt((math.exp(d) / math.cos(psi)) ** 2 - 1.0)
        line = GeodesicLine.from_points(1j, complex(2.0 * A, 1.0))
        # crossing point with {y = e^d} on the supporting circle
        H = math.exp(d)
        x = line.center + math.sqrt(line.radius ** 2 - H * H)
        z = complex(x, H)
        assert line.dist_to(z) < 1e-9
        assert angle_with_horocycle(line, Horocycle(INF, H), z) == pytest.approx(
            psi, abs=1e-9)

    def test_monotone(self):
        assert fm.max_traverse(2.0, 0.5) > fm.max_traverse(1.0, 0.5)
        assert fm.max_traverse(1.0, 1.0) > fm.max_traverse(1.0, 0.5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fm.max_traverse(1.0, math.pi / 2)
        with pytest.raises(ValueError):
            fm.max_traverse(-0.1, 0.5)


def quad_side_entry_angle(half_width: float, u: float) -> float:
    """Measured entry angle of the geodesic side of the bridging
    quadrilateral, built from raw points."""
    eu = math.exp(u)
    c1 = complex(half_width * eu, eu)
    c2 = eu / c1.conjugate()          # swap the two horocycles
    side = GeodesicLine.from_points(c1, c2)
    return angle_with_horocycle(side, Horocycle(INF, eu), c1)


class TestQuadHalfWidth:
    def test_frozen_grid(self):
        assert fm.quad_half_width(0.0, 50.0) == pytest.approx(1.0, abs=1e-12)
        assert fm.quad_half_width(0.3, 1.0) == pytest.approx(
            0.9004440430443732, abs=1e-12)
        assert fm.quad_half_width(1.0, 3.0) == pytest.approx(
            0.3068095076392916, abs=1e-12)
        assert fm.quad_half_width(1.4, 0.1) == pytest.approx(
            0.162006635546871, abs=1e-12)

    def test_small_gap_limit(self):
        assert fm.quad_half_width(math.pi / 4, 1e-12) == pytest.approx(
            math.sqrt(3.0) - 1.0, abs=1e-9)

    @given(st.floats(0.05, 1.4), st.floats(0.05, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_measured_entry_angle(self, psi, u):
        ell = fm.quad_half_width(psi, u)
        assert quad_side_entry_angle(ell, u) == pytest.approx(psi, abs=1e-9)

    @given(st.floats(0.0, 1.4), st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, psi, u):
        ell = fm.quad_half_width(psi, u)
        assert fm.quad_entry_angle(ell, u) == pytest.approx(psi, abs=1e-9)

    def test_solver_agrees(self):
        # independent root finder on the measured angle
        for (psi, u) in [(0.3, 0.1), (0.6, 1.0), (1.0, 3.0), (1.4, 1.0)]:
            lo, hi = 1e-9, math.sqrt(1.0 + math.exp(-u))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if quad_side_entry_angle(mid, u) > psi:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(
                fm.quad_half_width(psi, u), abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fm.quad_half_width(-0.1, 1.0)
        with pytest.raises(ValueError):
            fm.quad_half_width(0.5, 0.0)
        with pytest.raises(ValueError):
            fm.quad_entry_angle(0.0, 1.0)


class TestTransversalLimitAngle:
    @given(st.floats(0.3, 4.0), st.floats(0.2, math.pi / 2))
    @settings(max_examples=100, deadline=None)
    def test_measured_on_construction(self, r, theta0):
        # crossing line through i at angle theta0 (tilted toward +x),
        # observer at i*e^{-r}; ray to the back ideal endpoint
        u = 1j * complex(math.cos(-theta0), math.sin(-theta0))
        crossing = GeodesicLine.from_point_direction(1j, u)
        end = crossing.endpoint_back
        q = 1j * math.exp(-r)
        c = (abs(q) ** 2 - end ** 2) / (2.0 * (q.real - end))
        ray = GeodesicLine.from_endpoints(2.0 * c - end, end)
        assert ray.dist_to(q) < 1e-9
        measured = angle_between(ray.tangent_at(ray.param_of(q)), 1j)
        assert measured == pytest.approx(
            fm.transversal_limit_angle(r, theta0), abs=1e-9)

    def test_tanh_subtraction_form(self):
        for (r, t0) in [(1.0, 0.5), (2.5, 1.2), (0.7, math.pi / 2)]:
            want = math.acos(math.tanh(r - math.atanh(math.cos(t0))))
            assert fm.transversal_limit_angle(r, t0) == pytest.approx(want, abs=1e-12)


class TestBudgets:
    def test_frozen_class_a(self):
        assert fm.class_a_extension_bound(0.0, 0.0, 1.0, 1.0, math.pi / 2) \
            == pytest.approx(8.772588722239782, abs=1e-12)

    def test_class_a_additive_in_diam(self):
        a = fm.class_a_extension_bound(1.0, 2.0, 0.5, 0.5, 0.7)
        b = fm.class_a_extension_bound(2.0, 2.0, 0.5, 0.5, 0.7)
        assert b - a == pytest.approx(2.0, abs=1e-12)

    def test_budget_ordering(self):
        diam, reach, t0, blen = 2.0, 1.5, 0.6, 3.5
        kp = fm.arc_budget(diam, reach, t0, blen)
        kpp = fm.per_arc_budget(diam, reach, t0, blen)
        assert kpp == pytest.approx(kp + 2.0 * blen, abs=1e-12)

    def test_replaced_arc_length_bound(self):
        assert fm.replaced_arc_length_bound(5.0, 0.5, 0.5, 40.0) == pytest.approx(
            5.0 + 10.0 * math.log(2.0) + 8.0 * math.log(2.0) + 40.0, abs=1e-12)


class TestBrackets:
    @given(st.floats(0.05, 2.0), st.floats(0.05, 1.0), st.floats(0.1, math.pi / 2),
           st.floats(0.0, 20.0), st.floats(0.5, 8.0), st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_u_bracket_nonempty(self, eps, xi, t0, arc_len, base_len, reach):
        lo, hi = fm.bb_u_bracket(eps, xi, t0, arc_len, base_len, reach)
        assert lo < hi

    @given(st.floats(0.05, 2.0), st.floats(0.05, 1.0), st.floats(0.1, math.pi / 2),
           st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_v_bracket_nonempty(self, eps, xi, t0, reach):
        lo, hi = fm.bb_v_bracket(eps, xi, t0, reach)
        assert lo < hi

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.1, math.pi / 2),
           st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_v_lower_exceeds_clearance(self, eps, xi, t0, reach):
        # the rerouted endpoints sit beyond the clearance on their own,
        # so no secondary extension pass is needed after a reroute
        lo, _ = fm.bb_v_bracket(eps, xi, t0, reach)
        assert lo > fm.clearance(eps, t0)


class TestSeedAndDisplay:
    def test_seed_count(self):
        assert fm.seed_count_bound(0, 3, 2.0, 6.0) == pytest.approx(3 * (3.0 + 6.0))
        assert fm.seed_count_bound(1, 1, 0.5, 12.0) == pytest.approx(1 * (24.0 + 6.0))

    def test_seed_length(self):
        assert fm.seed_length_bound(6.0, 0.5) == pytest.approx(3.0 + math.log(4.0))

    def test_connection_bounds(self):
        a = fm.connection_bound(10, 4.0, 0.5, 0.5, 30.0)
        per = 30.0 + 4.0 + 10.0 * math.log(2.0) + 8.0 * math.log(2.0)
        assert a == pytest.approx(10 * per, abs=1e-9)

    def test_display_positive_and_monotone(self):
        d1 = fm.display_bound(0, 3, 1.0, 1.0, 6.7, 55.0)
        d2 = fm.display_bound(0, 3, 0.5, 1.0, 6.7, 55.0)
        assert 0.0 < d1 < d2

    def test_normalized_constant(self):
        d = 100.0
        assert fm.normalized_length_constant(d, 0.5, 1.0) == pytest.approx(
            50.0 / (math.log(2.0) + 1.0), abs=1e-12)
