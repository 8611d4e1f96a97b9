import math

import numpy as np
import pytest

from geodense.decomp import (
    _build_ears,
    _locate_cusp,
    _triangle,
    boundary_chain,
    decompose,
)
from geodense.errors import (
    ArrangementDegenerate,
    EarConstructionFails,
    NotFilling,
    NotHyperbolic,
)
from geodense.formulas import arc_budget, per_arc_budget
from geodense.halfplane import dist, mat_inv, mat_mul, to_isometry
from geodense.tracing import base_geodesic
from geodense.verify import check_face_chord_bounds

# each decomposition is the surface cut along its base geodesic
each_cut = pytest.mark.parametrize("which", ["sphere_dec", "torus_dec"],
                                   ids=["sphere_cut", "torus_cut"])


# ---------------------------------------------------------------------------
# sphere: the base geodesic "ab" has one self-crossing at (0, 1) and
# cuts the surface into two once-punctured monogons and one
# once-punctured bigon

class TestSphereCut:
    def test_census(self, sphere_dec):
        assert len(sphere_dec.crossings) == 1
        kinds = sorted((f.n_corners, f.punctured) for f in sphere_dec.faces)
        assert kinds == [(1, True), (1, True), (2, True)]
        assert sorted(f.cusp for f in sphere_dec.faces) == [0, 1, 2]

    def test_crossing_point(self, sphere_dec):
        c = sphere_dec.crossings[0]
        assert abs(c.point - 1j) < 1e-9
        # the half-turn symmetry of the curve swaps the two passes, so
        # they must cross at a right angle
        assert abs(c.angle - math.pi / 2.0) < 1e-9

    def test_face_areas(self, sphere_dec):
        # monogon: pi - pi/2; bigon: 2 pi - 2 (pi/2)
        areas = sorted(f.area for f in sphere_dec.faces)
        assert abs(areas[0] - math.pi / 2.0) < 1e-9
        assert abs(areas[1] - math.pi / 2.0) < 1e-9
        assert abs(areas[2] - math.pi) < 1e-9
        assert abs(sum(areas) - 2.0 * math.pi) < 1e-9

    def test_depths(self, sphere_dec):
        # the crossing lifts to height 1 in the width-2 chart of cusp 0
        # (identity chart) and to 1/(1-i) of height 1/2 in the chart of
        # cusp 2, so the reaches below the unit horocycles are log(2/1)
        # and log(2/(1/2))
        by_cusp = {f.cusp: f for f in sphere_dec.faces}
        assert abs(by_cusp[0].depth - math.log(2.0)) < 1e-6
        assert abs(by_cusp[1].depth - math.log(2.0)) < 1e-6
        assert abs(by_cusp[2].depth - math.log(4.0)) < 1e-6

    def test_constants_closed_forms(self, sphere_dec):
        c = sphere_dec.constants
        # ear of a monogon: chain corners (0,1), (2,1), (4,1); the law
        # of cosines gives corner angle acos(3/sqrt(10)) = atan(1/3)
        # and longest side arccosh(9)
        assert abs(c.theta0 - math.atan(1.0 / 3.0)) < 1e-9
        assert abs(c.diam - math.acosh(9.0)) < 1e-9
        assert abs(c.cusp_reach - math.log(4.0)) < 1e-6
        assert abs(c.base_len - 2.0 * math.acosh(3.0)) < 1e-9

    def test_budget_wiring(self, sphere_dec):
        c = sphere_dec.constants
        assert c.arc_overhead == arc_budget(c.diam, c.cusp_reach, c.theta0,
                                            c.base_len)
        assert c.per_arc_cap == per_arc_budget(c.diam, c.cusp_reach, c.theta0,
                                               c.base_len)


# ---------------------------------------------------------------------------
# torus: the base geodesic "aabAb" has two self-crossings and cuts the
# surface into an ordinary hexagon and a once-punctured bigon

class TestTorusCut:
    def test_census(self, torus_dec):
        assert len(torus_dec.crossings) == 2
        kinds = sorted((f.n_corners, f.punctured) for f in torus_dec.faces)
        assert kinds == [(2, True), (6, False)]
        assert [f.cusp for f in torus_dec.faces if f.punctured] == [0]

    def test_base_length(self, torus_dec):
        # trace of the word's holonomy matrix is 18
        assert abs(torus_dec.base.length - 2.0 * math.acosh(9.0)) < 1e-9

    def test_crossings_symmetric(self, torus_dec):
        c1, c2 = torus_dec.crossings
        assert abs(c1.point - complex(-0.5, c1.point.imag)) < 1e-9
        assert abs(c2.point - complex(2.5, c2.point.imag)) < 1e-9
        assert abs(c1.angle - c2.angle) < 1e-9

    def test_areas(self, torus_dec):
        assert all(f.area > 1e-6 for f in torus_dec.faces)
        assert abs(sum(f.area for f in torus_dec.faces)
                   - 2.0 * math.pi) < 1e-9

    def test_hexagon_diam(self, torus_dec):
        hexagon = next(f for f in torus_dec.faces if not f.punctured)
        # conservative size: at least the largest corner separation
        m = hexagon.n_corners
        across = max(dist(hexagon.corners[i], hexagon.corners[j])
                     for i in range(m) for j in range(i + 1, m))
        assert hexagon.diam >= across - 1e-12
        assert hexagon.diam <= 2.0 * across + 1e-12

    def test_constants_positive(self, torus_dec):
        c = torus_dec.constants
        assert 0.0 < c.theta0 < math.pi / 2.0
        assert 0.0 < c.cusp_reach < c.diam
        assert c.per_arc_cap > c.arc_overhead > 0.0


# ---------------------------------------------------------------------------
# shared structure

class TestComplexStructure:
    @each_cut
    def test_angle_census(self, which, request):
        cut = request.getfixturevalue(which)
        total = sum(sum(f.angles) for f in cut.faces)
        assert abs(total - 2.0 * math.pi * len(cut.crossings)) < 1e-9

    @each_cut
    def test_angles_in_range(self, which, request):
        cut = request.getfixturevalue(which)
        for f in cut.faces:
            assert all(0.0 < a < math.pi for a in f.angles)

    @each_cut
    def test_edges_cover_curve_twice(self, which, request):
        # every arc of the cut curve borders faces along both sides
        cut = request.getfixturevalue(which)
        total = sum(e.length for f in cut.faces for e in f.boundary_edges())
        assert abs(total - 2.0 * cut.base.length) < 1e-6

    @each_cut
    def test_corner_chain_consistent(self, which, request):
        # consecutive developed corners are joined by boundary edges
        cut = request.getfixturevalue(which)
        for f in cut.faces:
            for k, e in enumerate(f.boundary_edges()):
                assert abs(e.start - f.corners[k]) < 1e-9

    @each_cut
    def test_closures_are_exact(self, which, request):
        # an ordinary face closes with +-I exactly; a punctured face's
        # closure is the translation by one width of its cusp, exactly
        cut = request.getfixturevalue(which)
        model = request.getfixturevalue(which.split("_")[0])
        for f in cut.faces:
            if not f.punctured:
                assert f.closure in ((1, 0, 0, 1), (-1, 0, 0, -1))
                continue
            j, m, t = _locate_cusp(model, f.closure)
            assert j == f.cusp
            assert t in (model.cusps[j].width, -model.cusps[j].width)
            a, b, c, d = mat_mul(mat_mul(m, f.closure), mat_inv(m))
            assert c == 0 and a == d in (1, -1) and a * b == t
        assert any(not f.punctured for f in cut.faces) \
            == (which == "torus_dec")

    @each_cut
    def test_boundary_chain_periods(self, which, request):
        # period k of the chain is the corners moved by the k-th integer
        # power of the closure; period 0, and every period of an ordinary
        # face, is the corners themselves
        cut = request.getfixturevalue(which)
        for f in cut.faces:
            m = f.n_corners
            chain = boundary_chain(f.corners, f.closure, -2, 3)
            periods = [chain[k * m:(k + 1) * m] for k in range(5)]
            assert periods[2] == f.corners
            if not f.punctured:
                assert all(p == f.corners for p in periods)
                continue
            move = to_isometry(f.closure)
            for p, q in zip(periods, periods[1:]):
                assert all(abs(move.apply(z) - w) < 1e-9 * max(1.0, abs(w))
                           for z, w in zip(p, q))
            assert boundary_chain(f.corners, f.closure, 1, 2) == periods[3]
            assert abs(f.boundary_edges()[-1].end - periods[3][0]) < 1e-9

    def test_boundary_chain_keeps_the_corners_bits(self):
        # the float identity would turn the -0.0 real part into 0.0
        corners = [complex(-0.0, 1.0), complex(2.0, 1.0)]
        for closure in ((1, 0, 0, 1), (-1, 0, 0, -1), (1, 8, 0, 1)):
            [z, w] = boundary_chain(corners, closure, 0, 1)
            assert math.copysign(1.0, z.real) == -1.0 and w == corners[1]
        [z, _] = boundary_chain(corners, (-1, 0, 0, -1), 1, 2)
        assert math.copysign(1.0, z.real) == -1.0

    def test_determinism(self, sphere):
        d1 = decompose(sphere)
        d2 = decompose(sphere)
        assert d1.constants == d2.constants
        assert [f.area for f in d1.faces] == [f.area for f in d2.faces]
        assert [f.corners for f in d1.faces] == [f.corners for f in d2.faces]

    @pytest.mark.parametrize("which", ["sphere", "torus"])
    def test_base_is_the_traced_geodesic(self, which, request):
        # the decomposition carries the one traced base geodesic, equal
        # to a fresh trace bit for bit
        model = request.getfixturevalue(which)
        base = request.getfixturevalue(f"{which}_dec").base
        fresh = base_geodesic(model)
        assert base.word == fresh.word == model.spec.base_word
        assert base.trace.steps == fresh.trace.steps
        assert base.length == fresh.length


# ---------------------------------------------------------------------------
# non-filling and invalid words

class TestRejections:
    def test_simple_word_rejected(self, torus):
        with pytest.raises(NotFilling):
            decompose(torus, "a")

    def test_figure_word_without_crossings(self, torus):
        with pytest.raises(NotFilling):
            decompose(torus, "ab")

    def test_commutator_rejected(self, torus):
        with pytest.raises(NotHyperbolic):
            decompose(torus, "abAB")

    def test_empty_word_rejected(self, torus):
        with pytest.raises(NotHyperbolic):
            decompose(torus, "")

    def test_hyperbolic_closure_rejected(self, torus):
        # a face of aabaB closes with an element of integer trace 3
        with pytest.raises(NotFilling,
                           match=r"non-parabolic element \(trace 3\)"):
            decompose(torus, "aabaB")

    def test_proper_power_retraces(self, torus):
        # abab runs the period of ab twice, two passes on each line
        with pytest.raises(ArrangementDegenerate, match="retrace"):
            decompose(torus, "abab")

    def test_cusp_climbing_word_rejected(self, sphere):
        # each word runs above the unit horocycle of the cusp at infinity;
        # the period of aaaaab closes with a run of 3 crossings of side 5
        for word, top in (("aab", "2.44949"), ("aaaaab", "5.47723")):
            with pytest.raises(ArrangementDegenerate) as err:
                decompose(sphere, word)
            assert f"climbs to height {top}" in str(err.value)
            assert "cusp 0" in str(err.value)


# ---------------------------------------------------------------------------
# ears

class TestEars:
    def test_triangle_matches_law_of_cosines(self):
        a, b, c = 0.3 + 1.0j, 1.2 + 0.8j, 0.9 + 2.1j
        ear = _triangle(a, b, c)
        ab, bc, ac = ear.side_lengths
        # angle at a is opposite side bc
        lhs = math.cos(ear.angles[0])
        rhs = (math.cosh(ab) * math.cosh(ac) - math.cosh(bc)) \
            / (math.sinh(ab) * math.sinh(ac))
        assert abs(lhs - rhs) < 1e-9
        assert sum(ear.angles) < math.pi

    def test_symmetric_chain_ears_congruent(self):
        # four corners at equal height under a period-8 translation:
        # every ear is a horizontal translate of the others
        corners = [complex(x, 1.0) for x in (-3.0, -1.0, 1.0, 3.0)]
        ears = _build_ears(corners, (1, 8, 0, 1))
        assert len(ears) == 4
        for e in ears[1:]:
            for x, y in zip(e.angles, ears[0].angles):
                assert abs(x - y) < 1e-9
            for x, y in zip(e.side_lengths, ears[0].side_lengths):
                assert abs(x - y) < 1e-9

    def test_chord_leaving_the_face_fails(self):
        # a non-convex pentagon near i: the edge from its reflex corner
        # d crosses the chord a -> c of the first ear.  (With four corners
        # every edge shares an endpoint with each ear chord, so no chord
        # can cross one.)
        corners = [1j + 0.1 * complex(x, y) for x, y in
                   ((0.0, 0.0), (1.0, -2.0), (2.0, 0.0), (1.2, -0.5),
                    (0.8, 1.0))]
        with pytest.raises(EarConstructionFails, match="leaves the face"):
            _build_ears(corners, (1, 0, 0, 1))

    def test_ordinary_ears_count(self, torus_dec):
        for f in torus_dec.faces:
            assert len(f.ears) == f.n_corners


# ---------------------------------------------------------------------------
# chord oracle: any chord of a face meets an edge at an angle at least
# the face floor, and chords meeting both edges at most at the floor
# are no longer than the face side cap

class TestChordOracle:
    @each_cut
    def test_standing_chord_property(self, which, request):
        cut = request.getfixturevalue(which)
        rng = np.random.default_rng(np.random.PCG64(20260823))
        for face in cut.faces:
            n, n_short = check_face_chord_bounds(face, rng, 250)
            assert n == 250
            # the short-chord clause must actually be exercised
            assert n_short > 0
