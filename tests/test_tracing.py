"""Walker tests: polygon passages, development, closed traces."""

import math

import pytest

from geodense.errors import TraceError
from geodense.halfplane import (
    INF,
    GeodesicLine,
    Horocycle,
    dist,
    line_horocycle_crossings,
    same_line,
)
from geodense import tracing
from geodense.surface import load_surface
from geodense.tracing import (
    base_geodesic,
    tile_elements,
    trace_geodesic,
)


@pytest.fixture(scope="module")
def sphere():
    return load_surface("thrice-punctured-sphere")


@pytest.fixture(scope="module")
def torus():
    return load_surface("once-punctured-torus")


class TestHorocycleCrossings:
    def test_vertical_through_ceiling(self):
        ln = GeodesicLine.vertical(0.3, up=True)
        [(s, z)] = line_horocycle_crossings(ln, Horocycle(INF, 2.0))
        assert s == pytest.approx(math.log(2.0))
        assert z == pytest.approx(complex(0.3, 2.0))

    def test_circle_two_crossings(self):
        ln = GeodesicLine.circle(0.0, 1.0)
        got = line_horocycle_crossings(ln, Horocycle(INF, 0.5))
        assert len(got) == 2
        xs = sorted(z.real for _, z in got)
        assert xs[0] == pytest.approx(-math.sqrt(0.75))
        assert xs[1] == pytest.approx(math.sqrt(0.75))
        assert got[0][0] < got[1][0]

    def test_circle_misses_high_ceiling(self):
        ln = GeodesicLine.circle(0.0, 0.3)
        assert line_horocycle_crossings(ln, Horocycle(INF, 0.5)) == []

    def test_finite_base_perpendicular(self):
        ln = GeodesicLine.vertical(0.0, up=True)
        [(s, z)] = line_horocycle_crossings(ln, Horocycle(0.0, 1.0))
        assert s == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(1j)

    def test_into_finite_base(self):
        ln = GeodesicLine.from_endpoints(4.0, 0.0)
        got = line_horocycle_crossings(ln, Horocycle(0.0, 0.5))
        assert len(got) == 1
        (_, z) = got[0]
        # on the horocycle: |z - i s/2| = s/2 with s the diameter
        assert abs(z - 0.25j) == pytest.approx(0.25)

    def test_far_line_misses_finite_horoball(self):
        ln = GeodesicLine.from_endpoints(-2.0, 1.3)
        assert line_horocycle_crossings(ln, Horocycle(0.4, 0.7)) == []

    def test_crossing_points_on_horocycle(self):
        ln = GeodesicLine.from_endpoints(0.1, 0.9)
        h = Horocycle(0.4, 0.7)
        got = line_horocycle_crossings(ln, h)
        assert len(got) == 2
        for s, z in got:
            assert abs(z - complex(h.base, h.size / 2)) \
                == pytest.approx(h.size / 2)
            assert abs(ln.point_at(s) - z) < 1e-9


class TestStraightIntoCusp:
    def test_vertical_never_exits(self, sphere):
        p = sphere.base_point
        tr = trace_geodesic(sphere, p, 1j, 3.0)
        assert len(tr.steps) == 1
        assert tr.steps[0].side is None
        assert tr.end_point == pytest.approx(
            complex(p.real, p.imag * math.e ** 3))
        assert tr.end_dir == pytest.approx(1j)
        assert not tr.closes_up()

    def test_zero_length(self, sphere):
        tr = trace_geodesic(sphere, sphere.base_point, 1.0, 0.0)
        assert tr.length == 0.0
        assert tr.end_point == pytest.approx(sphere.base_point)


class TestPassages:
    def test_first_exit_side(self, sphere):
        tr = trace_geodesic(sphere, sphere.base_point, -1.0, 2.0)
        assert tr.steps[0].side == 1
        end = tr.steps[0].segment.end
        assert abs(end - (-1.0)) == pytest.approx(1.0)   # on that disk

    def test_crossing_without_point_is_named(self, sphere, monkeypatch):
        # a side that crosses the line must yield a crossing point; when
        # it does not, the trace fails with a TraceError naming the side
        monkeypatch.setattr(tracing, "intersect_lines", lambda l1, l2: None)
        with pytest.raises(TraceError,
                           match=r"side \d+ crosses the traced line"):
            trace_geodesic(sphere, sphere.base_point, -1.0, 2.0)

    def test_lengths_add_up(self, sphere):
        tr = trace_geodesic(sphere, sphere.base_point, -1.0, 2.0)
        assert sum(s.segment.length for s in tr.steps) \
            == pytest.approx(2.0, abs=1e-9)
        assert len(tr.steps) >= 2

    def test_segments_stay_inside(self, torus):
        u = complex(math.cos(0.4), math.sin(0.4))
        tr = trace_geodesic(torus, torus.base_point, u, 25.0)
        assert len(tr.steps) > 3
        for st in tr.steps:
            assert torus.inside(st.segment.point_at_fraction(0.5), tol=1e-6)

    def test_development_is_one_line(self, sphere):
        u = complex(math.cos(-0.2), math.sin(-0.2))
        tr = trace_geodesic(sphere, sphere.base_point, u, 12.0)
        sides = tr.sides
        assert len(sides) >= 3
        tiles = tile_elements(sphere, sides)
        base = tr.steps[0].segment
        prev_end = base.end
        for k, step in enumerate(tr.steps[1:]):
            dev = tiles[k + 1].apply_segment(step.segment)
            assert same_line(dev.line, base.line, tol=1e-6)
            assert abs(dev.start - prev_end) < 1e-6
            prev_end = dev.end

    def test_start_outside_rejected(self, sphere):
        with pytest.raises(TraceError):
            trace_geodesic(sphere, complex(-3.0, 0.5), 1j, 1.0)


class TestClosedTraces:
    def test_sphere_commutator(self, sphere):
        g = base_geodesic(sphere, "ab")
        tr, hol = g.trace, g.holonomy
        assert tr.length == pytest.approx(2.0 * math.acosh(3.0))
        assert tr.closes_up(tol=1e-9)
        assert hol.translation_length() == pytest.approx(tr.length)

    def test_torus_generator(self, torus):
        # this geodesic runs along polygon sides, hopping vertex to
        # vertex; it traces fine but closes a little less sharply
        g = base_geodesic(torus, "a")
        tr, hol = g.trace, g.holonomy
        assert tr.length == pytest.approx(2.0 * math.acosh(1.5))
        assert tr.closes_up(tol=1e-7)
        assert hol.translation_length() == pytest.approx(tr.length, abs=1e-9)

    def test_torus_base_word(self, torus):
        tr = base_geodesic(torus, "abbaBB").trace
        assert tr.closes_up(tol=1e-8)
        assert sum(s.segment.length for s in tr.steps) \
            == pytest.approx(tr.length, abs=1e-9)

    def test_loop_element_identity_for_round_trip(self, sphere):
        # crossing a side and coming straight back multiplies to identity
        s = sphere.sides[0]
        e = tile_elements(sphere, [0, s.partner])[-1]
        assert e.is_identity(tol=1e-9)
