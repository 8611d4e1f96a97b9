"""Walker tests: polygon passages, development, closed traces."""

import dataclasses
import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from geodense.errors import NotHyperbolic, TraceError
from geodense.halfplane import (
    INF,
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    axis,
    dist,
    line_horocycle_crossings,
    mat_inv,
    mat_mul,
    ray,
    same_line,
    to_isometry,
)
from geodense import densify, tracing
from geodense.surface import Side
from test_halfplane import _by_ends, line_pairs
from geodense.tolerances import TOL_GEO, TOL_LOOSE
from geodense.words import cyclic_reduce, inverse_word
from geodense.tracing import (
    Trace,
    TraceStep,
    base_geodesic,
    concat_traces,
    reverse_trace,
    tile_elements,
    trace_geodesic,
)


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


def _end(tr):
    """Where a walk that ran its length out ends, and its direction
    there: the end of its last step's segment."""
    seg = tr.steps[-1].segment
    return seg.end, seg.line.tangent_at(seg.s1)


class TestMalformedInput:
    """A start off the half-plane, a direction that is zero or not
    finite, or a length that is not a finite number at least 0 is
    refused by name before the walk starts."""

    @pytest.mark.parametrize("p, u, length, error, match", [
        (None, 0j, 1.0, ValueError, r"direction 0j is zero"),
        (0.1 + 0j, 1j, 1.0, TraceError,
         r"start \(0\.1\+0j\) is not a point of the half-plane"),
        (None, complex(math.nan, 1.0), 1.0, ValueError,
         r"direction \(nan\+1j\) is zero or not finite"),
        (None, complex(math.inf, 0.0), 1.0, ValueError,
         r"direction \(inf\+0j\) is zero or not finite"),
        (None, 1j, math.nan, ValueError, r"length nan is not a finite"),
        (None, 1j, math.inf, ValueError, r"length inf is not a finite"),
    ], ids=["zero direction", "start on the axis", "nan direction",
            "inf direction", "nan length", "inf length"])
    def test_refused_by_name(self, torus, p, u, length, error, match):
        with pytest.raises(error, match=match):
            trace_geodesic(torus, torus.base_point if p is None else p, u,
                           length)


class TestStraightIntoCusp:
    def test_vertical_never_exits(self, sphere):
        p = sphere.base_point
        tr = trace_geodesic(sphere, p, 1j, 3.0)
        assert len(tr.steps) == 1
        assert tr.steps[0].side is None
        end, end_dir = _end(tr)
        assert end == pytest.approx(complex(p.real, p.imag * math.e ** 3))
        assert end_dir == pytest.approx(1j)

    def test_zero_length(self, sphere):
        tr = trace_geodesic(sphere, sphere.base_point, 1.0, 0.0)
        assert tr.length == 0.0
        assert _end(tr)[0] == pytest.approx(sphere.base_point)


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
        assert len(tr.segments()) > 3
        for seg in tr.segments():
            assert torus.inside(seg.point_at_fraction(0.5), tol=1e-6)

    def test_development_is_one_line(self, sphere):
        # out[k] develops step k, a run's segment included, onto the
        # line of the first step, end to end
        u = complex(math.cos(-0.2), math.sin(-0.2))
        tr = trace_geodesic(sphere, sphere.base_point, u, 12.0)
        assert len(tr.sides) >= 3
        assert any(st.count > 1 for st in tr.steps)
        tiles = tile_elements(sphere, tr.steps)
        assert tiles[0] == (1, 0, 0, 1)
        base = tr.steps[0].segment
        prev_end = base.end
        for k, st in enumerate(tr.steps[1:], 1):
            move = to_isometry(tiles[k])
            assert same_line(move.apply_line(st.segment.line), base.line,
                             tol=1e-6)
            assert abs(move.apply(st.segment.start) - prev_end) < 1e-6
            prev_end = move.apply(st.segment.end)

    def test_start_outside_rejected(self, sphere):
        with pytest.raises(TraceError):
            trace_geodesic(sphere, complex(-3.0, 0.5), 1j, 1.0)


def _tested(line, side_line):
    """Does the ray on line cross side_line outward, read off the ends:
    its back end on the side's inner boundary arc, its forward end on
    the outer one?"""
    lo, hi = side_line.ends
    outer = side_line.up if side_line.is_vertical \
        else not side_line.pos_to_neg
    return (lo < line.endpoint_fwd < hi) == outer \
        and (lo < line.endpoint_back < hi) != outer


def _reference_first_exit(sides, line, s0, outward_only=False):
    """The exit search by the GeodesicLine methods.  It tests every side:
    any forward crossing of a side line, inward or outward, past the
    behind window; with outward_only, only the sides _tested passes, as
    _first_exit does."""
    best = None
    probe = None
    for side in sides:
        if outward_only and not _tested(line, side.line):
            continue
        if not tracing.lines_cross(line, side.line) \
                or same_line(line, side.line):
            continue
        pt = tracing.intersect_lines(line, side.line)
        if pt is None:
            raise TraceError(f"side {side.index} has no intersection")
        s = line.param_of(pt)
        if s <= s0 - tracing._BEHIND:
            continue
        t = side.line.param_of(pt)
        if t < side.s_lo - TOL_GEO or t > side.s_hi + TOL_GEO:
            continue
        if s <= s0 + tracing._AHEAD:
            if probe is None:
                probe = line.point_at(s0 + 1e-6)
            f_here = side.line.signed_sinh_dist(line.point_at(s0))
            f_next = side.line.signed_sinh_dist(probe)
            if f_next >= f_here - 1e-13:
                continue
            s = s0
            pt = line.point_at(s0)
        if best is None or s < best[0]:
            best = (s, side.index, pt)
    return best


def _crossed_outward(model, line, hit):
    """Does the ray cross the side of hit = (param, side, point) from
    the polygon's side of its line to the other?  Read off the tangents:
    the polygon lies left of each side."""
    s, i, pt = hit
    side = model.sides[i].line
    inward = 1j * side.tangent_at(side.param_of(pt))
    u = line.tangent_at(s)
    return u.real * inward.real + u.imag * inward.imag < 0.0


_BOX = {"torus": (3.0, 0.3, 5.0), "sphere": (1.0, 0.05, 3.0)}


def _exit_starts(model, name, rng, n):
    """Seeded (point, direction) starts of five kinds, n of each:
    interior; on a side; 1e-12 to 1e-7 y outside a side, half of them
    heading in shallowly; on a side 1e-9 to 1e-3 rad off its tangent;
    and at the finite vertices."""
    x_hi, y_lo, y_hi = _BOX[name]

    def turn():
        a = rng.uniform(0.0, 2.0 * math.pi)
        return complex(math.cos(a), math.sin(a))

    def on_side():
        side = rng.choice(model.sides)
        t = rng.uniform(max(side.s_lo, -3.0), min(side.s_hi, 3.0))
        return side.line.point_at(t), side.line.tangent_at(t)

    def shallow(t, lo, hi):
        a = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return rng.choice((t, -t)) * complex(math.cos(a),
                                             rng.choice((1, -1)) * math.sin(a))

    starts = []
    while len(starts) < n:
        z = complex(rng.uniform(-x_hi, x_hi),
                    math.exp(rng.uniform(math.log(y_lo), math.log(y_hi))))
        if model.inside(z, tol=0.0):
            starts.append((z, turn()))
    for _ in range(n):
        z, _ = on_side()
        starts.append((z, turn()))
    for k in range(n):
        z, t = on_side()
        d = math.exp(rng.uniform(math.log(1e-12), math.log(1e-7)))
        u = turn() if k % 2 else shallow(t, 1e-6, 1e-2)
        starts.append((z - 1j * t * d * z.imag, u))
    for _ in range(n):
        z, t = on_side()
        starts.append((z, shallow(t, 1e-9, 1e-3)))
    vertices = [v for v in model.spec.vertices if isinstance(v, complex)]
    for k in range(n):
        starts.append((vertices[k % len(vertices)], turn()))
    return starts


class TestExitRule:
    """A step leaves the convex polygon only across a side line it
    crosses outward, so _first_exit tests only those sides."""

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_matches_reference_on_outward_exits(self, name, request):
        """Where the every-side search finds no exit or an outward one,
        _first_exit returns the same; where it reports an inward
        crossing, _first_exit returns an outward one or none."""
        model = request.getfixturevalue(name)
        rng = random.Random(23)
        same = inward = 0
        for p, u in _exit_starts(model, name, rng, 300):
            line, s0 = ray(p, u)
            want = _reference_first_exit(model.sides, line, s0)
            got = tracing._first_exit(model, line, s0)
            if want is None or _crossed_outward(model, line, want):
                assert got == want, (p, u)
                same += 1
            else:
                assert got is None or _crossed_outward(model, line, got), \
                    (p, u)
                inward += 1
        assert same > 1200 and inward > 100

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_entry_side_never_tested(self, name, request, monkeypatch):
        """No step tests the side it came in through, nor every side."""
        model = request.getfixturevalue(name)
        calls = []

        def lines_cross(l1, l2, _orig=tracing.lines_cross):
            calls.append((l1, l2))
            return _orig(l1, l2)

        monkeypatch.setattr(tracing, "lines_cross", lines_cross)
        rng = random.Random(5)
        plain = 0
        # two interior starts and two on a side
        for p, u in _exit_starts(model, name, rng, 2)[:4]:
            tr = trace_geodesic(model, p, u, 6.0)
            for prev, st in zip(tr.steps, tr.steps[1:]):
                if st.count > 1:
                    continue
                entry = model.sides[model.sides[prev.side].partner].line
                tested = [l2 for l1, l2 in calls if l1 is st.segment.line]
                assert not any(l2 is entry for l2 in tested)
                assert len(tested) < len(model.sides)
                plain += 1
        assert plain > 10

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_no_detour_from_just_outside(self, torus, j):
        """A start 1e-8 y outside side j, heading in at 1e-4 rad, walks
        on into the polygon: it does not take side j, then its partner."""
        side = torus.sides[j]
        t_mid = 0.5 * (side.s_lo + side.s_hi)
        z, t = side.line.point_at(t_mid), side.line.tangent_at(t_mid)
        p = z - 1j * t * 1e-8 * z.imag
        for u in (t * complex(math.cos(1e-4), math.sin(1e-4)),
                  -t * complex(math.cos(1e-4), -math.sin(1e-4))):
            tr = trace_geodesic(torus, p, u, 1.0)
            assert tr.steps[0].side != j
            assert tr.sides[:2] != [j, side.partner]


def _outcome(f, *args):
    """What f returns, or the type of the error it raises."""
    try:
        return f(*args)
    except (TraceError, ValueError) as exc:
        return type(exc)


class TestPlainFloatStep:
    """A trace step reads the polygon's sides and evaluates the halfplane
    formulas on plain floats: the membership test, the exit search, the
    ray's start parameter, and the landing.  Each equals what the
    GeodesicLine and Isometry methods give, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_step_matches_the_methods(self, torus, sphere, data):
        name = data.draw(st.sampled_from(["torus", "sphere"]))
        model = torus if name == "torus" else sphere
        # a start anywhere in the sampling box, in the polygon or not, on
        # a side with an ideal vertex, or on a near-vertical line
        kind = data.draw(st.sampled_from(["box", "ideal side", "steep"]))
        a = data.draw(st.floats(0.0, 2.0 * math.pi))
        u = complex(math.cos(a), math.sin(a))
        if kind == "ideal side":
            # out toward the side's ideal vertex
            side = data.draw(st.sampled_from(
                [s for s in model.sides
                 if math.isinf(s.s_lo) or math.isinf(s.s_hi)]))
            p = side.line.point_at(data.draw(st.floats(
                max(side.s_lo, -20.0), min(side.s_hi, 20.0))))
        else:
            x_hi, y_lo, y_hi = _BOX[name]
            p = complex(data.draw(st.floats(-x_hi, x_hi)), math.exp(
                data.draw(st.floats(math.log(y_lo), math.log(y_hi)))))
            if kind == "steep":
                # 1e-8 to 1e-6 rad off vertical: radius about 1e7
                tilt = 10.0 ** data.draw(st.floats(-8.0, -6.0))
                u = complex(math.sin(tilt) * data.draw(st.sampled_from(
                    [1.0, -1.0])), math.cos(tilt) * (1.0 if a < math.pi
                                                       else -1.0))
        for z in (p, p + complex(0.3, 0.1) * p.imag):
            # the verdict flips exactly at the least method distance
            least = min(s.line.signed_sinh_dist(z) for s in model.sides)
            assert model.inside(z, -least)
            assert not model.inside(z, math.nextafter(-least, -INF))
            for tol in (0.0, 1e-6, TOL_GEO):
                assert model.inside(z, tol) == (least >= -tol)
        line, s0 = ray(p, u)
        assert s0 == line.param_of(p)
        got = _outcome(tracing._first_exit, model, line, s0)
        assert got == _outcome(_reference_first_exit, model.sides, line, s0,
                               True)
        if isinstance(got, tuple):
            s, i, pt = got
            w = model.sides[i].pairing
            v = w.apply_tangent(pt, line.tangent_at(s))
            assert tracing._land(model.sides[i], pt, line, s) \
                == (w.apply(pt), v / abs(v))

    @settings(max_examples=300, deadline=None)
    @given(line_pairs(), st.floats(-5.0, 5.0))
    # the shared-end pairs of test_interleave_first_keeps_the_shared_rule
    @example(_by_ends(0.0, 2.0, 1e-13, 5.0), 0.0)
    @example(_by_ends(0.0, 2.0, -3.0, 1e-13), 0.0)
    @example(_by_ends(0.0, 2.0, 2.0 - 1e-13, 5.0), 0.0)
    @example(_by_ends(0.0, 2.0, 1.0, 2.0 + 1e-13), 0.0)
    @example(_by_ends(0.0, INF, -1.0, 1e13), 0.0)
    @example(_by_ends(-1e13, 2.0, 1.0, INF), 0.0)
    @example(_by_ends(0.0, INF, 1.0, INF), 0.0)
    def test_one_side_exit_matches_the_methods(self, pair, s0):
        # the half-plane left of one complete side line, walked along
        # the other line both ways
        l1, l2 = pair
        side = Side(0, l2, -INF, INF, "a", (1, 0, 0, 1), 0)
        model = SimpleNamespace(sides=(side,))
        for line in (l1, l1.reversed()):
            assert _outcome(tracing._first_exit, model, line, s0) \
                == _outcome(_reference_first_exit, [side], line, s0, True)

    @pytest.mark.parametrize("name", ["torus", "sphere"])
    def test_tracing_counters_count_tested_and_crossed_sides(
            self, name, request, monkeypatch):
        # perfbench reads tracing's lines_cross calls as the sides a step
        # tests, those whose line it crosses outward by the ends, and its
        # intersect_lines calls from _first_exit as the sides it crosses
        model = request.getfixturevalue(name)
        cross, meet, first = (tracing.lines_cross, tracing.intersect_lines,
                              tracing._first_exit)
        calls = [0, 0]
        exits = []   # (line, lines_cross calls, intersect_lines calls)

        def counted_cross(*args):
            calls[0] += 1
            return cross(*args)

        def counted_meet(*args):
            calls[1] += 1
            return meet(*args)

        def recorded(model, line, s0):
            before = list(calls)
            out = first(model, line, s0)
            exits.append((line, calls[0] - before[0], calls[1] - before[1]))
            return out

        monkeypatch.setattr(tracing, "lines_cross", counted_cross)
        monkeypatch.setattr(tracing, "intersect_lines", counted_meet)
        monkeypatch.setattr(tracing, "_first_exit", recorded)
        rng = random.Random(7)
        # interior starts and starts on a side
        for p, u in _exit_starts(model, name, rng, 5)[:10]:
            trace_geodesic(model, p, u, 6.0)
        for line, n_cross, n_meet in exits:
            tested = [s.line for s in model.sides if _tested(line, s.line)]
            assert n_cross == len(tested)
            assert n_meet == sum(cross(line, ln) and not same_line(line, ln)
                                 for ln in tested)
        assert len(exits) > 40
        assert sum(n for _, n, _ in exits) < len(model.sides) * len(exits)
        assert sum(m for _, _, m in exits) > len(exits) / 2


class TestConcatTraces:
    """Walks join where the last step of one ends and the first step of
    the next starts."""

    def _legs(self, model, off=0.0):
        # three walks, each from where the one before ends, the third
        # moved off that point by about off
        u = complex(math.cos(0.4), math.sin(0.4))
        legs = [trace_geodesic(model, model.base_point, u, 2.5)]
        legs.append(trace_geodesic(model, *_end(legs[0]), 2.0))
        z, v = _end(legs[1])
        legs.append(trace_geodesic(model, z + 1j * z.imag * off, v, 0.7))
        return legs

    def test_abutting_legs_join(self, torus):
        legs = self._legs(torus)
        assert all(len(leg.steps) > 1 for leg in legs[:2])
        tr = concat_traces(legs)
        assert tr.steps == legs[0].steps + legs[1].steps + legs[2].steps
        assert tr.length == legs[0].length + legs[1].length + legs[2].length
        assert tr.sides == legs[0].sides + legs[1].sides + legs[2].sides

    def test_joint_within_tolerance(self, torus):
        legs = self._legs(torus, 0.5 * TOL_LOOSE)
        assert len(concat_traces(legs).steps) \
            == sum(len(leg.steps) for leg in legs)

    def test_joint_off_raises(self, torus):
        legs = self._legs(torus, 3.0 * TOL_LOOSE)
        gap = dist(legs[1].steps[-1].segment.end,
                   legs[2].steps[0].segment.start)
        assert 2.0 * TOL_LOOSE < gap < 4.0 * TOL_LOOSE
        with pytest.raises(TraceError, match="trace joint 2 off by"):
            concat_traces(legs)

    def test_nothing_to_join(self):
        with pytest.raises(ValueError, match="nothing to join"):
            concat_traces([])


def _assert_closed(model, g, length):
    """A closed period: one chord per side step, lengths adding up to the
    closed geodesic's, each passage ending where its side's pairing puts
    the next passage's start, all around the period, and a holonomy
    with the trace of the word's matrix, which the period's matrix is
    conjugate to."""
    steps = g.trace.steps
    assert all(st.side is not None for st in steps)
    assert g.length == pytest.approx(length, rel=1e-12)
    assert sum(st.segment.length for st in steps) \
        == pytest.approx(length, rel=1e-12)
    segs, sides = g.trace.segments(), g.trace.sides
    assert len(segs) == len(sides)
    for j, seg in enumerate(segs):
        nxt = segs[(j + 1) % len(segs)].start
        assert abs(model.sides[sides[j]].pairing.apply(seg.end) - nxt) \
            < 1e-12
    a, _, _, d = tile_elements(model, steps)[-1]
    w = model.word_matrix(g.word)
    assert abs(a + d) == abs(w[0] + w[3])


class TestClosedTraces:
    def test_sphere_commutator(self, sphere):
        _assert_closed(sphere, base_geodesic(sphere, "ab"),
                       2.0 * math.acosh(3.0))

    def test_torus_generator(self, torus):
        # this geodesic runs along a polygon side, from vertex to vertex:
        # one chord, on the side's own line
        g = base_geodesic(torus, "a")
        _assert_closed(torus, g, 2.0 * math.acosh(1.5))
        assert same_line(g.trace.steps[0].segment.line, torus.sides[2].line)

    def test_torus_base_word(self, torus):
        # the trace of abbaBB is 43
        _assert_closed(torus, base_geodesic(torus, "abbaBB"),
                       2.0 * math.acosh(21.5))

    def test_loop_element_identity_for_round_trip(self, sphere):
        # crossing a side and coming straight back multiplies to identity
        s = sphere.sides[0]
        seg = GeodesicSegment.between(0.5j, 0.6j)   # only sides count
        e = tile_elements(sphere, [TraceStep(seg, 0),
                                   TraceStep(seg, s.partner)])[-1]
        assert e in ((1, 0, 0, 1), (-1, 0, 0, -1))


def _exact_length(model, word):
    """2 acosh(|tr| / 2) of a word, its trace taken in Python ints from
    the generators' integer matrices; None when |tr| <= 2."""
    gens = {}
    for ch, m in zip(model.spec.gen_names, model.spec.gen_matrices):
        (a, b), (c, d) = [[int(v) for v in row] for row in m]
        assert ((a, b), (c, d)) == m
        gens[ch], gens[ch.upper()] = (a, b, c, d), (d, -b, -c, a)
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        e, f, g, h = gens[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    t = abs(a + d)
    return 2.0 * math.acosh(t / 2) if t > 2 else None


def _cyclically_reduced(word):
    return all(word[i] != word[i - 1].swapcase() for i in range(len(word)))


def _random_word(rng, n):
    """A cyclically reduced word of n letters, drawn letter by letter."""
    while True:
        w = rng.choice("abAB")
        while len(w) < n:
            ch = rng.choice("abAB")
            if ch != w[-1].swapcase():
                w += ch
        if _cyclically_reduced(w):
            return w


def _spells(model, g, word):
    """Do the period's inverse side words, joined, spell the word up to
    rotation?  Then its side pairings multiply to a conjugate of the
    word's matrix, exactly."""
    got = cyclic_reduce("".join(inverse_word(model.sides[i].word)
                                for i in g.trace.sides))
    want = cyclic_reduce(word)
    return len(got) == len(want) and got in want + want


@pytest.fixture(scope="module")
def long_periods(torus, sphere):
    """10 random words each of 96, 200 and 400 letters per surface, with
    their closed geodesics."""
    out = {}
    for name, model in (("torus", torus), ("sphere", sphere)):
        rng = random.Random(f"long {name}")
        out[name] = [(w, base_geodesic(model, w))
                     for n in (96, 200, 400)
                     for w in (_random_word(rng, n) for _ in range(10))]
    return out


class TestCycleAxes:
    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_letters_give_the_exact_length(self, which, request):
        """Every cyclically reduced word of 2 to 8 letters: the axis of
        its integer matrix has length 2 acosh(|tr| / 2), and the word's
        isometry moves the axis along itself by that length; a parabolic
        word raises NotHyperbolic."""
        model = request.getfixturevalue(which)
        worst, hyperbolic = 0.0, 0
        for n in range(2, 9):
            for letters in itertools.product("abAB", repeat=n):
                if not _cyclically_reduced(letters):
                    continue
                word = "".join(letters)
                want = _exact_length(model, word)
                if want is None:
                    with pytest.raises(NotHyperbolic, match="trace"):
                        axis(model.word_matrix(word))
                    continue
                line, got = axis(model.word_matrix(word))
                worst = max(worst, abs(got - want) / want)
                z = line.point_at(0.0)
                assert dist(to_isometry(model.word_matrix(word)).apply(z),
                            line.point_at(got)) < 1e-8
                hyperbolic += 1
        assert hyperbolic > 9000
        assert worst <= 1e-12

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_one_root_per_closure(self, which, request, monkeypatch):
        """close_exact takes the scaled root of m0's trace once, and every
        frame's axis from it is the axis of the frame's own root, bit for
        bit: the frames are conjugates of m0, of the same trace."""
        model = request.getfixturevalue(which)
        word = _random_word(random.Random(f"one root {which}"), 200)
        root_of, axis_of, roots, axes = tracing.axis_root, tracing.axis, [], []
        monkeypatch.setattr(tracing, "axis_root", lambda t: (
            roots.append(t), root_of(t))[1])
        monkeypatch.setattr(tracing, "axis", lambda m, root=None: (
            lambda got: (axes.append((m, got)), got)[1])(axis_of(m, root)))
        g = base_geodesic(model, word)
        assert len(roots) == 1
        assert len(axes) >= len(g.trace.steps)
        for m, got in axes:
            assert m[0] + m[3] in (roots[0], -roots[0])
            assert got == axis_of(m)

    @staticmethod
    def _assert_reshot(model, g):
        """A fresh walk from chord 0's start crosses the period's sides
        along its passages."""
        first = g.trace.steps[0].segment
        # a little past the length, so that the walk takes the last side
        fresh = trace_geodesic(model, first.start,
                               first.line.tangent_at(first.s0),
                               g.length + 1e-6)
        n = len(g.trace.sides)
        assert fresh.sides == g.trace.sides
        for x, y in zip(fresh.segments()[:n], g.trace.segments()):
            assert _hd(x.start, y.start) < 1e-9 and _hd(x.end, y.end) < 1e-9

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_catalog_period(self, which, request):
        """The catalog word's period: exact chords, and a fresh walk from
        chord 0's start crosses the same sides along them."""
        model = request.getfixturevalue(which)
        g = request.getfixturevalue(f"{which}_g0")
        _assert_closed(model, g, _exact_length(model, model.spec.base_word))
        self._assert_reshot(model, g)

    @pytest.mark.parametrize("word,count", [("bbbba", 2), ("BaBBBBBB", 4)])
    def test_run_period(self, sphere, word, count):
        """A period holding a cusp run: exact chords, the run one of
        them, and a fresh walk from chord 0's start crosses the same
        sides along their passages."""
        g = base_geodesic(sphere, word)
        _assert_closed(sphere, g, _exact_length(sphere, word))
        assert [st.count for st in g.trace.steps if st.count > 1] == [count]
        self._assert_reshot(sphere, g)

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_never_wrong(self, which, n, request):
        """Random words: every one drawn closes, its side words spelling
        it and its chords adding up to its exact length.  Some sphere
        words close through a cusp run."""
        model = request.getfixturevalue(which)
        rng = random.Random(n)
        runs = 0
        for _ in range(12):
            w = _random_word(rng, n)
            want = _exact_length(model, w)
            g = base_geodesic(model, w)
            runs += any(st.count > 1 for st in g.trace.steps)
            assert _spells(model, g, w)
            assert g.length == pytest.approx(want, rel=1e-12)
            assert sum(st.segment.length for st in g.trace.steps) \
                == pytest.approx(want, rel=1e-12)
        if which == "sphere":
            assert runs >= 1

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_long_words_close(self, which, long_periods, request):
        """Words of 96 to 400 letters close: their side words spell them,
        and the length and the chords add up to 2 acosh(|tr| / 2)."""
        model = request.getfixturevalue(which)
        for w, g in long_periods[which]:
            want = _exact_length(model, w)
            assert _spells(model, g, w), w
            assert g.length == pytest.approx(want, rel=1e-12)
            assert sum(st.segment.length for st in g.trace.steps) \
                == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [16, 24])
    def test_passages_chain(self, sphere, n):
        """40 random sphere words: each period closes, its passages
        chaining across their sides all around it, runs included."""
        rng = random.Random(100 + n)
        runs = 0
        for _ in range(40):
            w = _random_word(rng, n)
            g = base_geodesic(sphere, w)
            _assert_closed(sphere, g, _exact_length(sphere, w))
            runs += any(st.count > 1 for st in g.trace.steps)
        assert runs >= 5

    @staticmethod
    def _wrong_sides():
        """_first_exit reporting side 1 behind the start, then side 3
        ahead of every chord."""
        exits = itertools.chain([1], itertools.repeat(3))
        return lambda *a: (0.0, next(exits), 0j)

    def test_wrong_exit_refused(self, torus, monkeypatch):
        """Sides the geodesic does not cross: chord 0 misses its side.
        With the chord guards switched off too, every chord cut 1 long,
        the exact product never comes back to the word's matrix, and the
        walk is refused, naming the word, as soon as it passes the word's
        length."""
        monkeypatch.setattr(tracing, "_first_exit", self._wrong_sides())
        with pytest.raises(TraceError,
                           match="'abbaBB': chord 0 misses side"):
            base_geodesic(torus, "abbaBB")
        cuts = itertools.count()
        monkeypatch.setattr(tracing, "_first_exit", self._wrong_sides())
        monkeypatch.setattr(tracing, "_cut", lambda *a: float(next(cuts)))
        length = _exact_length(torus, "abbaBB")
        with pytest.raises(TraceError, match=f"'abbaBB': walk passes length "
                                             f"{length:.6g} unclosed"):
            base_geodesic(torus, "abbaBB")
        assert next(cuts) // 2 <= length + 2

    def test_stuck_walk_refused(self, torus, monkeypatch):
        """Chords of length 0, as a walk stuck at a vertex would take,
        never pass the length: the step cap refuses the walk."""
        monkeypatch.setattr(tracing, "_first_exit", self._wrong_sides())
        monkeypatch.setattr(tracing, "_cut", lambda *a: 0.0)
        monkeypatch.setattr(tracing, "TRACE_STEPS", 10)
        with pytest.raises(TraceError, match="'abbaBB': walk does not close "
                                             "in 10 steps"):
            base_geodesic(torus, "abbaBB")

    @pytest.mark.parametrize("sides,match", [
        # chord 1 leaving by the side it came in through, and chord 0
        # entering by the side it leaves by
        ((None, 2, 1), "turns back"), ((2,), "turns back"),
        # chord 1 making a detour through side 3, round the cusp at 1
        ((None, 2, 3), "misses side")])
    def test_wrong_walk_refused(self, sphere, monkeypatch, sides, match):
        """Sides that the geodesic of ab, the period of sides 0 -> 2 and
        1 -> 5, does not cross.  The script gives the side chord 0
        enters by, then the sides chords 0, 1, ... leave by; None keeps
        the side _first_exit finds."""
        first_exit, script = tracing._first_exit, iter(sides)

        def scripted(model, line, s0):
            s, side, pt = first_exit(model, line, s0)
            wrong = next(script, None)
            return s, side if wrong is None else wrong, pt

        monkeypatch.setattr(tracing, "_first_exit", scripted)
        with pytest.raises(TraceError, match=rf"'ab': chord \d {match}"):
            base_geodesic(sphere, "ab")

    def test_cusp_run_closes(self, sphere):
        """aaaaab climbs high in cusp 0: its period holds a run of three
        crossings of side 5, closed by one cusp shift, and a fresh walk
        reproduces its passages."""
        g = base_geodesic(sphere, "aaaaab")
        _assert_closed(sphere, g, 2.0 * math.acosh(11.0))
        assert [(st.side, st.count) for st in g.trace.steps] \
            == [(2, 1), (5, 1), (5, 3), (5, 1)]
        assert g.trace.steps[2].cusp.index == 0
        self._assert_reshot(sphere, g)


def _walk_passages(model, p, u, length):
    """The oracle: the walk one polygon passage at a time, each found by
    _first_exit, with no cusp runs."""
    u = u / abs(u)
    steps = []
    walked = 0.0
    while True:
        line, s_here = ray(p, u)
        remaining = length - walked
        exit_ = tracing._first_exit(model, line, s_here)
        if exit_ is None or exit_[0] - s_here >= remaining:
            seg = GeodesicSegment(line, s_here, s_here + remaining)
            steps.append(TraceStep(seg, None))
            return Trace(steps, length)
        s_exit, side, pt = exit_
        steps.append(TraceStep(GeodesicSegment(line, s_here, s_exit), side))
        walked += s_exit - s_here
        w = model.sides[side].pairing
        tangent = line.tangent_at(s_exit)
        p = w.apply(pt)
        u = w.apply_tangent(pt, tangent)
        u = u / abs(u)


def _hd(a, b):
    """Hyperbolic distance to first order, resolved below 1e-8."""
    return abs(a - b) / math.sqrt(a.imag * b.imag)


def _assert_same_walk(got, want, tol=1e-9):
    assert got.sides == want.sides
    a, b = got.segments(), want.segments()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert _hd(x.start, y.start) < tol and _hd(x.end, y.end) < tol
        assert abs(x.length - y.length) < tol
    (z, u), (w, v) = _end(got), _end(want)
    assert _hd(z, w) < tol and abs(u - v) < tol
    assert got.length == pytest.approx(want.length, abs=tol)


def _cusp_ray(model, j, apex, climb, right):
    """A ray on the half-circle of chart height apex in cusp j: from
    height 1.2 widths over the whole excursion (climb), or a window of
    about 100 passages at 0.6 apex.  Returns (point, direction, length)
    in polygon coordinates."""
    c = model.cusps[j]
    y0 = 1.2 * c.width if climb else 0.6 * apex
    zc = complex(c.strip_lo + 0.37 * c.width, y0)
    center = zc.real + math.copysign(math.sqrt(apex ** 2 - y0 ** 2),
                                     1.0 if right else -1.0)
    t = 1j * (zc - center) / apex
    if t.imag < 0.0:
        t = -t
    length = 2.0 * math.log(apex / c.width) + 3.0 if climb \
        else 100.0 * c.width / apex
    return c.chart_inv.apply(zc), c.chart_inv.apply_tangent(zc, t), length


# (surface, cusp, chart height, climb): whole excursions and windows
# high in each cusp.  Near the sphere's finite cusp vertices (cusp 1 at
# 0, cusp 2 at 1) the passage walk loses digits: after an excursion to
# chart height 1e3 it ends 2e-9 and 1.5e-7 from the run, whose landing
# a 40-digit reference puts within 2e-10 (the walk's within 9e-9).
# Near 1, passages at chart height 1e6 are 1e-12 across, below the
# walk's resolution.
_RAYS = [(name, j, apex, climb)
         for name, cusps in (("torus", (0,)), ("sphere", (0, 1, 2)))
         for j in cusps
         for apex, climb in ((1e2, True), (1e3, True), (1e4, False),
                             (1e6, False))
         if (apex, climb) != (1e3, True) or j == 0
         if (name, j, apex) != ("sphere", 2, 1e6)]


def _fiftieth_width_setting(name, request):
    """A run setting of a catalog surface with its deep horocycles moved
    to chart height 50, each of length a fiftieth of its cusp's width."""
    model = request.getfixturevalue(name)
    K = request.getfixturevalue(f"{name}_dec").constants
    g0 = request.getfixturevalue(f"{name}_g0")
    S = densify._setting(densify.DensityParams(0.5, 0.5), K, model, g0)
    return dataclasses.replace(S, deep=tuple(
        model.cusp_horocycle(i, c.width / 50.0)
        for i, c in enumerate(model.cusps)))


class TestCuspRuns:
    """A run crosses the walls of a cusp in one step; expanded, it must
    be the walk one passage at a time."""

    @pytest.mark.parametrize("right", [True, False])
    @pytest.mark.parametrize("name,j,apex,climb", _RAYS)
    def test_run_matches_passage_walk(self, name, j, apex, climb, right,
                                      request):
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, apex, climb, right)
        got = trace_geodesic(model, p, u, length)
        assert max(st.count for st in got.steps) > 20
        # a run leaves its last wall crossing to the plain step after it
        for st, nxt in zip(got.steps, got.steps[1:]):
            if st.count > 1:
                assert (nxt.count, nxt.side) == (1, st.side)
        _assert_same_walk(got, _walk_passages(model, p, u, length))

    @pytest.mark.parametrize("name,j", [("torus", 0), ("sphere", 1),
                                        ("sphere", 2)])
    def test_reverse_splits_runs(self, name, j, request):
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, 1e2, True, True)
        got = trace_geodesic(model, p, u, length)
        want = _walk_passages(model, p, u, length)
        back = reverse_trace(model, got)
        assert any(st.count > 1 for st in back.steps)
        _assert_same_walk(back, reverse_trace(model, want))

    @pytest.mark.parametrize("name,j", [("torus", 0), ("sphere", 0),
                                        ("sphere", 2)])
    def test_deep_crossing_inside_a_run(self, name, j, request):
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, 1e2, True, False)
        got = trace_geodesic(model, p, u, length)
        want = _walk_passages(model, p, u, length)
        # a horocycle at half the chart height of the apex, crossed on
        # the way up and on the way down
        S = _fiftieth_width_setting(name, request)

        def deep_events(tr):
            return [e for e in densify._ray_events(S, tr.steps)
                    if e.kind == "deep"]

        ev_got, ev_want = deep_events(got), deep_events(want)
        assert len(ev_got) == len(ev_want) == 2
        for e, f in zip(ev_got, ev_want):
            assert got.steps[e.step].count > 1
            assert e.s == pytest.approx(f.s, abs=1e-9)
            assert e.angle == pytest.approx(f.angle, abs=1e-9)
            # the record is in the frame of its step
            assert got.steps[e.step].segment.line.contains(e.point)

    @pytest.mark.parametrize("right", [True, False])
    @pytest.mark.parametrize("name,j,apex,climb",
                             [r for r in _RAYS if r[3]])
    def test_base_crossings_in_plain_steps(self, name, j, apex, climb,
                                           right, request):
        # runs stay above the unit horocycle, which the base geodesic
        # never reaches, so a cut at a base crossing cuts a plain step
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, apex, climb, right)
        got = trace_geodesic(model, p, u, length)
        want = _walk_passages(model, p, u, length)
        S = _fiftieth_width_setting(name, request)

        def base_events(tr):
            return [e for e in densify._ray_events(S, tr.steps)
                    if e.kind == "base"]

        ev_got, ev_want = base_events(got), base_events(want)
        assert any(st.count > 1 for st in got.steps)
        assert len(ev_got) == len(ev_want) > 0
        for e, f in zip(ev_got, ev_want):
            assert got.steps[e.step].count == 1
            assert e.s == pytest.approx(f.s, abs=1e-9)
            assert dist(e.point, f.point) < 1e-9

    @pytest.mark.parametrize("name,j", [("torus", 0), ("sphere", 1)])
    def test_until_ends_the_walk_at_its_step(self, name, j, request):
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, 1e2, True, True)
        full = trace_geodesic(model, p, u, length)
        assert trace_geodesic(model, p, u, length,
                              until=lambda st: False) == full
        run = next(k for k, st in enumerate(full.steps) if st.count > 1)
        for k in (0, run, run + 1, len(full.steps) - 1):
            seen = []

            def until(st):
                seen.append(st)
                return len(seen) == k + 1

            got = trace_geodesic(model, p, u, length, until=until)
            assert got.steps == seen == full.steps[:k + 1]
            if k + 1 < len(full.steps):
                # it ends where the walk goes on across its last side,
                # with the length walked
                tiles = tile_elements(model, full.steps[:k + 2])
                on = to_isometry(mat_mul(mat_inv(tiles[k + 1]),
                                         tiles[k])).apply(
                    got.steps[-1].segment.end)
                assert _hd(on, full.steps[k + 1].segment.start) < 1e-9
                assert got.length == sum(st.segment.length
                                         for st in got.steps)

    @pytest.mark.parametrize("name,j", [("torus", 0), ("sphere", 1),
                                        ("sphere", 2)])
    def test_segments_take_each_wall_crossing_once(self, name, j, request,
                                                   monkeypatch):
        """Trace.segments() lists a run's passages as passage(k) gives
        them, bit for bit, from one wall crossing per passage, where
        passage by passage a run of k takes 2k - 1."""
        model = request.getfixturevalue(name)
        p, u, length = _cusp_ray(model, j, 1e2, True, True)
        tr = trace_geodesic(model, p, u, length)
        want = [st.passage(k) for st in tr.steps for k in range(st.count)]
        crossing, calls = tracing._wall_crossing, []
        monkeypatch.setattr(tracing, "_wall_crossing", lambda *args: (
            calls.append(args), crossing(*args))[1])
        assert tr.segments() == want
        assert len(calls) == sum(st.count for st in tr.steps
                                 if st.count > 1) > 20

    def test_tiles_take_one_product_per_run(self, sphere):
        p, u, length = _cusp_ray(sphere, 1, 1e3, True, True)
        tr = trace_geodesic(sphere, p, u, length)
        assert any(st.count > 1 for st in tr.steps)
        per_step = tile_elements(sphere, tr.steps)
        # the oracle: one inverse pairing per crossing
        per_passage = [(1, 0, 0, 1)]
        for s in tr.sides:
            per_passage.append(
                mat_mul(per_passage[-1], mat_inv(sphere.sides[s].matrix)))

        def signs(g):
            return {g, tuple(-v for v in g)}

        k = 0
        for st, e in zip(tr.steps, per_step):
            assert e in signs(per_passage[k])
            k += st.count
        assert per_step[-1] in signs(per_passage[-1])
