"""Catalog surfaces: construction, validation, reduction, axes."""

import cmath
import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from geodense.catalog import CATALOG, surface_names
from geodense.errors import (
    InvalidSurface,
    NotHyperbolic,
    RelatorFails,
    TraceError,
)
from geodense.halfplane import (
    INF,
    GeodesicLine,
    Isometry,
    axis,
    dist,
    mat_inv,
    mat_mul,
    to_isometry,
)
from geodense.surface import (
    SurfaceModel,
    chart_top,
    line_through_vertices,
    load_surface,
)
from geodense.tolerances import TOL_GEO
from geodense.words import inverse_word


class TestCatalog:
    def test_names(self):
        assert surface_names() == ["once-punctured-torus",
                                   "thrice-punctured-sphere"]

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown surface"):
            load_surface("flat_torus")

    def test_all_load(self):
        for name in surface_names():
            m = load_surface(name)
            assert m.name == name


class TestSideLines:
    def test_vertical_down_from_infinity(self):
        ln = line_through_vertices(INF, -1 + 1j)
        assert ln.is_vertical and ln.foot == -1.0 and not ln.up

    def test_vertical_up_from_foot(self):
        ln = line_through_vertices(1.0, 1 + 1j)
        assert ln.is_vertical and ln.foot == 1.0 and ln.up

    def test_circle_from_ideal_start(self):
        ln = line_through_vertices(0.0, -1 + 1j)
        assert ln.endpoint_back == 0.0
        assert ln.endpoint_fwd == pytest.approx(-2.0)
        assert ln.dist_to(-1 + 1j) < 1e-12

    def test_circle_into_ideal_end(self):
        ln = line_through_vertices(-1 + 1j, 0.0)
        assert ln.endpoint_fwd == 0.0
        assert ln.endpoint_back == pytest.approx(-2.0)


class TestSphereGeometry:
    def test_area(self, sphere):
        assert sphere.polygon_area() == pytest.approx(2 * math.pi, abs=1e-9)

    def test_pairing_matrix(self, sphere):
        assert sphere.word_matrix("aB") == (-3, 2, -2, 1)

    def test_side_windows(self, sphere):
        s4 = sphere.sides[4]
        assert math.isinf(s4.s_lo) and s4.s_lo < 0
        assert s4.s_hi == pytest.approx(0.0)
        s5 = sphere.sides[5]
        assert s5.s_lo == pytest.approx(0.0)
        assert math.isinf(s5.s_hi) and s5.s_hi > 0

    def test_cusp_strips(self, sphere):
        strips = [(c.strip_lo, c.strip_lo + c.width) for c in sphere.cusps]
        assert strips[0] == (pytest.approx(-1.0), pytest.approx(1.0))
        assert strips[1] == (pytest.approx(-1.5), pytest.approx(0.5))
        assert strips[2] == (pytest.approx(0.0), pytest.approx(2.0))

    def test_membership(self, sphere):
        assert sphere.inside(sphere.base_point)
        assert sphere.inside(0.0 + 5.0j)
        assert not sphere.inside(-1.2 + 0.5j)      # beyond the left wall
        assert not sphere.inside(-1.0 + 0.5j)      # inside a boundary disk
        assert not sphere.inside(0.75 + 0.2j)


class TestTorusGeometry:
    def test_area(self, torus):
        assert torus.polygon_area() == pytest.approx(2 * math.pi, abs=1e-9)

    def test_single_cusp_strip(self, torus):
        (c,) = torus.cusps
        assert c.strip_lo == pytest.approx(-3.0)
        assert c.width == 6.0

    def test_cusp_word_translates(self, torus):
        g = to_isometry(torus.word_matrix("BAba"))
        assert g.apply(0.25 + 1.5j) == pytest.approx(6.25 + 1.5j)

    def test_membership(self, torus):
        assert torus.inside(torus.base_point)
        assert not torus.inside(0.5 + 0.3j)        # inside a boundary disk
        assert not torus.inside(3.5 + 1.0j)


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_sides_and_cusps_hash_by_identity(name, request):
    """A model owns one of each side and cusp, so they compare and hash
    by identity; their slotted line and isometry fields do not hash."""
    model = request.getfixturevalue(name)
    assert len(set(model.sides) | set(model.cusps)) \
        == len(model.sides) + len(model.cusps)
    side = model.sides[0]
    assert dataclasses.replace(side) != side


@pytest.mark.parametrize("name", ["sphere", "torus"])
class TestInside:
    """inside returns at the first side a point is outside of."""

    def test_nan_is_outside(self, name, request):
        model = request.getfixturevalue(name)
        assert not model.inside(complex(math.nan, 1.0))

    def test_matches_every_side_test(self, name, request):
        model = request.getfixturevalue(name)
        rng = random.Random(20261018)
        points = [complex(rng.uniform(-3.5, 3.5),
                          math.exp(rng.uniform(-3.0, 2.0)))
                  for _ in range(300)]
        # and points 1e-11 to 1e-5 heights off each side
        for s in model.sides:
            for _ in range(30):
                z = s.line.point_at(rng.uniform(max(s.s_lo, -4.0),
                                                min(s.s_hi, 4.0)))
                off = 10.0 ** rng.uniform(-11.0, -5.0) * z.imag
                points.append(z + off * cmath.exp(1j * rng.uniform(0, 7)))
        for z in points:
            for tol in (0.0, 1e-9, 1e-6):
                assert model.inside(z, tol) == all(
                    d >= -tol for d in model.side_signed_dists(z))

    def test_side_distances_are_the_lines(self, name, request):
        """side_signed_dists reads the side table with signed_sinh_dist's
        arithmetic: bit for bit, on the points above and on points off
        each side by 1e-12 to 1e-5 of their height, along the whole line
        and high in each cusp."""
        model = request.getfixturevalue(name)
        rng = random.Random(20261020)
        points = [complex(rng.uniform(-3.5, 3.5),
                          math.exp(rng.uniform(-3.0, 2.0)))
                  for _ in range(300)]
        for s in model.sides:
            for _ in range(30):
                z = s.line.point_at(rng.uniform(-12.0, 12.0))
                off = 10.0 ** rng.uniform(-12.0, -5.0) * z.imag
                points.append(z + off * cmath.exp(1j * rng.uniform(0, 7)))
        for c in model.cusps:
            points += [c.chart_inv.apply(complex(
                c.strip_lo + rng.uniform(-0.5, 1.5) * c.width,
                math.exp(rng.uniform(0.0, 8.0)))) for _ in range(30)]
        for z in points:
            assert [d.hex() for d in model.side_signed_dists(z)] \
                == [s.line.signed_sinh_dist(z).hex() for s in model.sides]


class TestAxes:
    """A word's axis and length, from its integer matrix."""

    def test_torus_generator_axis(self, torus):
        line, length = axis(torus.word_matrix("a"))
        assert length == pytest.approx(2 * math.acosh(1.5), abs=1e-12)
        assert length == pytest.approx(1.9248473002384139, abs=1e-12)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert line.endpoint_fwd == pytest.approx(golden)
        assert line.endpoint_back == pytest.approx(-1.0 / golden)

    def test_sphere_commutator_axis(self, sphere):
        line, length = axis(sphere.word_matrix("ab"))
        assert length == pytest.approx(2 * math.acosh(3.0), abs=1e-12)
        g = to_isometry(sphere.word_matrix("ab"))
        p = line.point_at(0.3)
        assert dist(g.apply(p), line.point_at(0.3 + length)) < 1e-9

    def test_parabolic_rejected(self, sphere, torus):
        for model, word in ((sphere, "a"), (torus, "BAba"), (torus, "")):
            with pytest.raises(NotHyperbolic, match="trace -?2 "):
                axis(model.word_matrix(word))


class TestLevels:
    def test_infinity_cusp_level(self, sphere):
        assert sphere.level(0, 0.3 + 4.0j) == pytest.approx(0.5)
        assert not sphere.in_truncation(0.3 + 4.0j, 1.0)
        assert sphere.in_truncation(0.3 + 4.0j, 0.5)

    def test_finite_cusp_level(self, sphere):
        # chart of the cusp at 0 sends z to -1/z
        z = -1.0 / complex(0.3, 10.0)
        assert sphere.level(1, z) == pytest.approx(0.2)

    def test_base_point_in_thick_part(self, sphere, torus):
        assert sphere.in_truncation(sphere.base_point, 1.0)
        assert torus.in_truncation(torus.base_point, 1.0)

    def test_cusp_horocycle_coords(self, sphere):
        h0 = sphere.cusp_horocycle(0, 0.5)
        assert math.isinf(h0.base) and h0.size == pytest.approx(4.0)
        h1 = sphere.cusp_horocycle(1, 0.5)
        assert h1.base == pytest.approx(0.0)
        assert h1.size == pytest.approx(0.25)

    def test_horocycle_matches_level(self, torus):
        h = torus.cusp_horocycle(0, 0.8)
        z = complex(0.7, h.size)
        assert torus.level(0, z) == pytest.approx(0.8)


# (y_lo, y_hi, x_hi) of the arc sampler in tests/test_densify.py
_BOX = {"once-punctured-torus": (0.35, 2.5, 3.0),
        "thrice-punctured-sphere": (0.35, 1.2, 1.0)}


class TestNormalize:
    def test_interior_fixed(self, sphere):
        z, g = sphere.normalize(sphere.base_point)
        assert z == sphere.base_point
        assert g == (1, 0, 0, 1)

    @pytest.mark.parametrize("word", ["a", "bA", "abB", "AbaB", "bbaBA"])
    def test_round_trip(self, sphere, word):
        z0 = to_isometry(sphere.word_matrix(word)).apply(sphere.base_point)
        z, g = sphere.normalize(z0)
        assert abs(z - sphere.base_point) < 1e-9
        assert abs(to_isometry(g).apply(z0) - z) < 1e-12
        # the base point is interior and the action free, so the
        # reduction undoes the word exactly
        m = mat_inv(sphere.word_matrix(word))
        assert g in (m, tuple(-v for v in m))

    @pytest.mark.parametrize("word", ["a", "Ab", "abAB", "baBAb"])
    def test_round_trip_torus(self, torus, word):
        z0 = to_isometry(torus.word_matrix(word)).apply(torus.base_point)
        z, g = torus.normalize(z0)
        assert abs(z - torus.base_point) < 1e-9
        m = mat_inv(torus.word_matrix(word))
        assert g in (m, tuple(-v for v in m))

    def test_deep_cusp_shortcut(self, sphere):
        # far along the cusp at 0: the direct orbit point would need
        # hundreds of greedy steps, the parabolic shortcut a handful
        cusp = sphere.cusps[1]
        z0 = cusp.chart_inv.apply(complex(1000.7, 30.0))
        z, g = sphere.normalize(z0)
        assert sphere.inside(z)
        assert abs(to_isometry(g).apply(z0) - z) < 1e-9
        assert sphere.level(1, z) == pytest.approx(2.0 / 30.0)
        # only cusp parabolics were applied: a translation in the chart
        # by whole widths, the one that brought the point into the strip
        w = int(cusp.width)
        k = round((cusp.chart.apply(z).real - 1000.7) / w)
        assert k != 0
        t = mat_mul(mat_mul(cusp.matrix, g), mat_inv(cusp.matrix))
        assert t in ((1, k * w, 0, 1), (-1, -k * w, 0, -1))

    @pytest.mark.parametrize("z0", [complex(math.nan, 1.0),
                                    complex(0.3, math.inf),
                                    complex(0.3, -0.5), complex(0.3, 0.0)],
                             ids=["nan", "inf", "below", "on_the_axis"])
    def test_refuses_a_point_off_the_half_plane(self, torus, z0):
        # refused before any pairing is applied, naming the point given
        with pytest.raises(TraceError,
                           match=re.escape(f"cannot reduce {z0}:")):
            torus.normalize(z0)

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_element_is_exact_in_the_box(self, torus, sphere, on_torus,
                                         fx, fy):
        # points of the arc sampler's box, on and off the polygon
        model = torus if on_torus else sphere
        y_lo, y_hi, x_hi = _BOX[model.name]
        z0 = complex(x_hi * (2.0 * fx - 1.0),
                     y_lo * (y_hi / y_lo) ** fy)
        self._check_reduction(model, z0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.floats(-50.0, 50.0), st.floats(0.0, 3.0))
    def test_element_is_exact_deep_in_a_cusp(self, torus, sphere, j, x, e):
        # chart heights from 1 to 1e3, far along the cusp: the torus's
        # cusp, or one of the sphere's three
        model = torus if j == 3 else sphere
        cusp = model.cusps[0 if j == 3 else j]
        z0 = cusp.chart_inv.apply(complex(x, 10.0 ** e))
        self._check_reduction(model, z0)

    @staticmethod
    def _check_reduction(model, z0):
        z, g = model.normalize(z0)
        assert model.inside(z)
        assert len(g) == 4 and all(type(v) is int for v in g)
        a, b, c, d = g
        assert a * d - b * c == 1
        assert abs(to_isometry(g).apply(z0) - z) <= 1e-9 * max(1.0, abs(z0))

    def test_deep_point_stays_deep(self, torus):
        z0 = to_isometry(torus.word_matrix("abba")).apply(complex(14.2, 40.0))
        z, _ = torus.normalize(z0)
        assert torus.inside(z)
        assert torus.level(0, z) == pytest.approx(6.0 / 40.0)


class TestChartTop:
    @staticmethod
    def _side_tops(model, cusp):
        v = model.spec.vertices
        return [chart_top(cusp.chart, s.line, v[s.index],
                          v[(s.index + 1) % len(v)]) for s in model.sides]

    @pytest.mark.parametrize("name", ["thrice-punctured-sphere",
                                      "once-punctured-torus"])
    def test_sides_below_each_cusp(self, name):
        # the two sides at a cusp's vertex run into it; every other
        # side stays below its unit horocycle
        model = load_surface(name)
        k = len(model.spec.vertices)
        for c in model.cusps:
            adj = {(c.vertex_index - 1) % k, c.vertex_index}
            for s, top in zip(model.sides, self._side_tops(model, c)):
                if s.index in adj:
                    assert top == math.inf
                else:
                    assert top < c.width - TOL_GEO

    def test_sphere_cusp_at_infinity(self, sphere):
        c = sphere.cusps[0]
        assert c.width == 2.0
        assert self._side_tops(sphere, c) == pytest.approx(
            [math.inf, 1.0, 1.0 / 3.0, 0.25, 1.0, math.inf], abs=1e-12)

    def test_finite_segment(self, sphere):
        chart = sphere.cusps[2].chart
        back = chart.inverse()
        w1 = 3.0 + 2.0 * complex(math.cos(2.5), math.sin(2.5))
        w2 = 3.0 + 2.0 * complex(math.cos(0.6), math.sin(0.6))
        w3 = 3.0 + 2.0 * complex(math.cos(1.2), math.sin(1.2))
        z1, z2, z3 = back.apply(w1), back.apply(w2), back.apply(w3)
        line = GeodesicLine.from_points(z1, z2)
        # the apex lies between the ends: the top is the image's radius
        image = chart.apply_line(line)
        assert image.radius == pytest.approx(2.0)
        assert chart_top(chart, line, z1, z2) == image.radius
        # both ends on one side of the apex: the higher end is the top
        assert chart_top(chart, line, z2, z3) \
            == pytest.approx(w3.imag, rel=1e-12)


class TestValidation:
    def test_bad_relator(self):
        spec = dataclasses.replace(CATALOG["thrice-punctured-sphere"],
                                   relator="ab")
        with pytest.raises(RelatorFails):
            SurfaceModel(spec)

    def test_bad_partner(self):
        spec = dataclasses.replace(CATALOG["thrice-punctured-sphere"],
                                   side_partners=(5, 3, 1, 4, 2, 0))
        with pytest.raises(InvalidSurface):
            SurfaceModel(spec)

    def test_non_unimodular_generator(self):
        spec = CATALOG["thrice-punctured-sphere"]
        bad = (((2.0, 4.0), (0.0, 2.0)),) + spec.gen_matrices[1:]
        spec = dataclasses.replace(spec, gen_matrices=bad)
        with pytest.raises(InvalidSurface, match="unimodular"):
            SurfaceModel(spec)

    @pytest.mark.parametrize("where,match", [
        ("gen", r"generator a \(\(1.0, 0.5\), \(0.0, 1.0\)\) is not integral"),
        ("chart", r"cusp 0 chart \(\(1.0, 0.5\), \(0.0, 1.0\)\) is not "
                  "integral"),
        ("width", "wall separation 2 does not match width 2.5")])
    def test_non_integral_data(self, where, match):
        """The walks close on exact products of the catalog's integers:
        a matrix entry that is not one is refused, and a cusp width that
        is not one misses its chart's strip."""
        spec = CATALOG["thrice-punctured-sphere"]
        half = ((1.0, 0.5), (0.0, 1.0))
        if where == "gen":
            spec = dataclasses.replace(
                spec, gen_matrices=(half,) + spec.gen_matrices[1:])
        else:
            c0 = dataclasses.replace(
                spec.cusps[0], **{where: half if where == "chart" else 2.5})
            spec = dataclasses.replace(spec, cusps=(c0,) + spec.cusps[1:])
        with pytest.raises(InvalidSurface, match=match):
            SurfaceModel(spec)

    @pytest.mark.parametrize("word", ["aa", "b"])
    def test_cusp_word_not_the_chart_translation(self, word):
        """Cusp 0's chart must conjugate its word to z -> z + 2 exactly;
        its square and the parabolic of cusp 1 do not."""
        spec = CATALOG["thrice-punctured-sphere"]
        c0 = dataclasses.replace(spec.cusps[0], word=word)
        spec = dataclasses.replace(spec, cusps=(c0,) + spec.cusps[1:])
        with pytest.raises(InvalidSurface, match=f"cusp word '{word}' is "
                                                 "not the chart translation"):
            SurfaceModel(spec)

    def test_moved_vertex(self):
        spec = CATALOG["thrice-punctured-sphere"]
        verts = list(spec.vertices)
        verts[1] = complex(-1.0, 1.1)
        spec = dataclasses.replace(spec, vertices=tuple(verts))
        with pytest.raises(InvalidSurface):
            SurfaceModel(spec)

    def test_wrong_cusp_width(self):
        spec = CATALOG["thrice-punctured-sphere"]
        cusps = (dataclasses.replace(spec.cusps[0], width=3.0),) + spec.cusps[1:]
        spec = dataclasses.replace(spec, cusps=cusps)
        with pytest.raises(InvalidSurface):
            SurfaceModel(spec)

    def test_word_inverse_consistency(self, sphere):
        for s in sphere.sides:
            p = sphere.sides[s.partner]
            assert inverse_word(s.word) == p.word
