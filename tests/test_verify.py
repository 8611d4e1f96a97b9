"""Oracle module tests: small seeded runs plus closed-form cross-checks."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from geodense.formulas import (
    clearance,
    disjointness_threshold,
    max_traverse,
    quad_half_width,
    transversal_limit_angle,
)
from geodense.halfplane import GeodesicLine, Isometry, dist, lines_cross
from geodense.verify import (
    OracleConfig,
    OracleReport,
    _gap,
    _line_through,
    _measured_limit_ray_cos,
    _quad_side_circle,
    _quad_signed_angle,
    disjoint_counterexample,
    oracle_disjoint,
    oracle_eps_distance,
    oracle_max_traverse,
    oracle_quadrilateral,
)

SEED = 20260823

# random orientation-preserving isometries
matrices = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
).filter(lambda m: m[0] * m[3] - m[1] * m[2] > 1e-3)


class TestGap:
    """The distance between disjoint lines that the disjointness
    oracle reports as its margin."""

    @pytest.mark.parametrize("c, r", [(3.0, 1.0), (1.5, 1.0), (10.0, 0.1),
                                      (2.0, 1.9)])
    def test_closed_form(self, c, r):
        # z -> (z - 1)/(z + 1) takes the axis (0, inf) and the circle of
        # center c and radius r to a circle pair with finite ends
        to_disk = Isometry(1.0, -1.0, 1.0, 1.0).normalized()
        axis, other = (to_disk.apply_line(line) for line in (
            GeodesicLine.vertical(0.0), GeodesicLine.circle(c, r)))
        assert not lines_cross(axis, other)
        assert _gap(axis, other) == pytest.approx(
            math.asinh(math.sqrt(c * c - r * r) / r), rel=1e-12)
        assert _gap(other, axis) == pytest.approx(_gap(axis, other),
                                                  rel=1e-15)

    @settings(max_examples=200)
    @given(matrices)
    def test_invariance(self, m):
        g = Isometry(*m).normalized()
        pair = (GeodesicLine.from_endpoints(-1.0, 1.0),
                GeodesicLine.from_endpoints(2.0, 4.0))
        # huge image ends lose float digits in the cross ratio; keep the
        # images finite and in a numerically sane range
        for e in (-1.0, 1.0, 2.0, 4.0):
            assume(abs(g.apply_boundary(e)) < 1e4)
        # the cross ratio of the four ends is 9/5
        want = 2.0 * math.atanh(math.sqrt(5.0 / 9.0))
        assert _gap(*pair) == pytest.approx(want, rel=1e-15)
        assert _gap(*(g.apply_line(line) for line in pair)) \
            == pytest.approx(want, rel=1e-8)


class TestDisjointOracle:

    def test_clean_run(self):
        report = oracle_disjoint(OracleConfig(samples=4000, seed=SEED))
        assert report.ok
        assert report.trials == 4000
        assert report.tightest_margin >= 0.0

    def test_threshold_value(self):
        # 2 log cot(pi/12) for theta0 = pi/6
        assert disjointness_threshold(math.pi / 6) == \
            pytest.approx(2.0 * math.log(1.0 / math.tan(math.pi / 12)),
                          abs=1e-12)
        assert disjointness_threshold(math.pi / 6) == \
            pytest.approx(2.6339157938496336, abs=1e-12)

    def test_perpendicular_always_disjoint(self):
        # right-angle crossings: any positive separation works
        for length in (1e-4, 0.1, 1.0, 5.0):
            g1 = _line_through(1j, math.pi / 2, 1)
            g2 = _line_through(1j * math.exp(length), math.pi / 2, -1)
            assert not lines_cross(g1, g2)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, math.pi / 2 - 0.05), st.floats(1e-4, 0.5))
    def test_threshold_sharp_mirrored(self, theta0, delta):
        # mirrored configuration at angles exactly theta0: the two lines
        # share an ideal endpoint exactly at the threshold separation
        m = disjointness_threshold(theta0)
        g1 = _line_through(1j, theta0, 1)
        above = _line_through(1j * math.exp(m + delta), theta0, -1)
        assert not lines_cross(g1, above)
        if m - delta > 1e-3:
            below = _line_through(1j * math.exp(m - delta), theta0, -1)
            assert lines_cross(g1, below)

    def test_counterexample_below_threshold(self):
        w = disjoint_counterexample(theta0=math.pi / 6, length_factor=0.9,
                                    seed=SEED)
        assert w["tries"] >= 1
        # replay the witness
        g1 = _line_through(1j, w["angles"][0], w["tilts"][0])
        g2 = _line_through(1j * math.exp(w["length"]), w["angles"][1],
                           w["tilts"][1])
        assert lines_cross(g1, g2)
        assert w["length"] < disjointness_threshold(math.pi / 6)


class TestEpsDistanceOracle:

    def test_clean_run(self):
        report = oracle_eps_distance(OracleConfig(samples=250, seed=SEED))
        assert report.ok
        assert report.notes["p1_margin"] > 0.0
        assert report.notes["p2_margin"] > 0.0
        assert report.notes["identity_err"] <= 1e-9

    def test_limit_ray_identity_dual_route(self):
        # geometric measurement against the closed form, many parameters
        for theta0 in (0.2, math.pi / 6, math.pi / 3, 1.5):
            for r in (0.2, 0.7, 1.1438, 2.5, 6.0):
                measured = _measured_limit_ray_cos(r, theta0)
                closed = math.cos(transversal_limit_angle(r, theta0))
                assert measured == pytest.approx(closed, abs=1e-9)

    def test_projection_margin_at_extreme_corner(self):
        # the documented sufficient condition for projection containment
        # fails for eps near 2, so pin the conclusion itself: structured
        # worst-case figures still keep a healthy projection margin
        for theta0 in (math.pi / 6, math.pi / 3):
            eps = 2.0
            r = clearance(eps, theta0)
            worst = math.inf
            for length in (0.01, 1.0, 4.0):
                c_lo = 1j * math.exp(r)
                c_hi = 1j * math.exp(r + length)
                far = 1j * math.exp(2 * r + length)
                for t1 in (1, -1):
                    g1 = _line_through(1j, theta0, t1)
                    for t2 in (1, -1):
                        g2 = _line_through(far, theta0, t2)
                        assert not lines_cross(g1, g2)
                        for s1 in (-25, -8, -1, 0, 2, 25):
                            for s2 in (-25, -3, 0, 1, 8, 25):
                                q1 = g1.point_at(s1)
                                q2 = g2.point_at(s2)
                                test = GeodesicLine.from_points(q1, q2)
                                lo = min(test.param_of(q1),
                                         test.param_of(q2))
                                hi = max(test.param_of(q1),
                                         test.param_of(q2))
                                pr = sorted((test.param_of(c_lo),
                                             test.param_of(c_hi)))
                                worst = min(worst, pr[0] - lo, hi - pr[1])
            assert worst > 0.5


class TestMaxTraverseOracle:

    def test_clean_run(self):
        report = oracle_max_traverse(OracleConfig(samples=20000, seed=SEED))
        assert report.ok
        assert report.tightest_margin >= 0.0
        assert report.notes["attain_err"] <= 1e-9

    def test_apex_chord_is_trivial(self):
        assert max_traverse(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_straight_surrogate_matches(self):
        # the segment from i to 2A+i has the bound's cosh exactly
        for d in (0.0, 1.0, 2.5):
            for psi in (0.0, 0.8, 1.3):
                a = math.sqrt(math.exp(2 * d) / math.cos(psi) ** 2 - 1.0)
                assert dist(1j, 2 * a + 1j) == \
                    pytest.approx(max_traverse(d, psi), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 1.4),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_bound_monotone(self, d, psi, dd, dp):
        # deeper endpoints or a shallower angle can only lengthen chords
        if psi + dp < math.pi / 2 - 1e-6:
            assert max_traverse(d + dd, psi) >= max_traverse(d, psi)
            assert max_traverse(d, psi + dp) >= max_traverse(d, psi)


class TestQuadrilateralOracle:

    def test_clean_run(self):
        report = oracle_quadrilateral(OracleConfig(samples=800, seed=SEED))
        assert report.ok
        assert report.notes["width_err"] <= 1e-9
        assert report.notes["min_containment_slack"] >= -1e-9
        for cell in report.notes["cells"].values():
            assert cell["accepted"] == 800

    def test_width_at_zero_angle(self):
        # tan(psi) = 0 collapses the closed form to sqrt(1 + e^{-u})
        for u in (0.1, 1.0, 3.0):
            assert quad_half_width(0.0, u) == \
                pytest.approx(math.sqrt(1.0 + math.exp(-u)), abs=1e-12)

    def test_signed_angle_branch(self):
        # at the closed-form width the side makes exactly angle psi,
        # approached from steeper angles at smaller widths
        for u in (0.1, 1.0, 3.0):
            for psi in (0.0, 0.3, 0.6, 1.0, 1.4):
                half = quad_half_width(psi, u)
                assert _quad_signed_angle(half, u) == \
                    pytest.approx(-psi, abs=1e-9)
                assert _quad_signed_angle(0.5 * half, u) < -psi

    def test_side_circle_on_model_points(self):
        # the side circle passes through C1 and its involution image
        for u, psi in ((0.5, 0.7), (2.0, 1.2)):
            half = quad_half_width(psi, u)
            xs, rs = _quad_side_circle(half, u)
            eu = math.exp(u)
            c1 = complex(half * eu, eu)
            c2 = eu / c1.conjugate()
            assert abs(abs(c1 - xs) - rs) < 1e-9
            assert abs(abs(c2 - xs) - rs) < 1e-9
            # involution image lies on the bottom horocycle through i
            assert abs(abs(c2 - 0.5j) - 0.5) < 1e-12


class TestReports:

    def test_deterministic(self):
        cfg = OracleConfig(samples=500, seed=3)
        assert oracle_disjoint(cfg) == oracle_disjoint(cfg)
        cfg = OracleConfig(samples=40, seed=3)
        assert oracle_eps_distance(cfg) == oracle_eps_distance(cfg)
        assert oracle_max_traverse(cfg) == oracle_max_traverse(cfg)
        assert oracle_quadrilateral(cfg) == oracle_quadrilateral(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(samples=0)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            OracleReport("x", 1, [{}, {}], 0.0, 0)

    def test_report_roundtrip(self):
        report = oracle_disjoint(OracleConfig(samples=10, seed=1))
        d = report.to_dict()
        assert d["oracle"] == "disjoint"
        assert d["trials"] == 10
        assert d["violations"] == []
