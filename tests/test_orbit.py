"""Tile enumeration and certified distance tests."""

import itertools
import math

import pytest

from geodense.errors import RadiusTooSmall
from geodense.halfplane import dist
from geodense.orbit import ball, dist_to_closed_geodesic, dist_to_domain
from geodense.surface import load_surface
from geodense.tracing import base_geodesic
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
