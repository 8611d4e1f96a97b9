"""Arc extension, classification, and the machinery feeding it."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from geodense import densify, formulas
from geodense.densify import (
    DensityParams,
    base_geodesic,
    classify_and_extend,
    replace_arc,
)
from geodense.errors import (
    ArrangementDegenerate,
    CaseBoundViolated,
    HorocyclesIntersect,
    SafetyCapExceeded,
)
from geodense.halfplane import (
    INF,
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    Isometry,
    dist,
    to_isometry,
)
from geodense.tracing import tile_elements, trace_geodesic

SEED = 20260823


class TestDensityParams:
    def test_accepts_range(self):
        p = DensityParams(2.0, 1.0)
        assert p.eps == 2.0 and p.xi == 1.0
        DensityParams(0.25, 0.125)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DensityParams(3.0, 1.0)
        with pytest.raises(ValueError):
            DensityParams(0.0, 1.0)
        with pytest.raises(ValueError):
            DensityParams(1.0, 0.0)
        with pytest.raises(ValueError):
            DensityParams(1.0, 1.5)


class TestBaseGeodesicRep:
    def test_torus_rep(self, torus_g0):
        assert torus_g0.word == "aabAb"
        assert torus_g0.length == pytest.approx(2.0 * math.acosh(9.0),
                                                abs=1e-9)
        assert torus_g0.cum[-1] == pytest.approx(torus_g0.length, abs=1e-9)

    def test_sphere_rep(self, sphere_g0):
        assert sphere_g0.length == pytest.approx(2.0 * math.acosh(3.0),
                                                 abs=1e-9)
        assert len(sphere_g0.chords) == len(sphere_g0.trace.steps)

    def test_devs_end_at_holonomy(self, torus, torus_g0):
        # the deck elements along the period run from the identity to the
        # period's own element, a translation by the length
        devs = tile_elements(torus, torus_g0.trace.steps)
        assert devs[0] == (1, 0, 0, 1)
        a, _, _, d = devs[-1]
        w = torus.word_matrix(torus_g0.word)
        assert abs(a + d) == abs(w[0] + w[3])
        assert abs(a + d) == pytest.approx(
            2.0 * math.cosh(torus_g0.length / 2.0), rel=1e-12)

    def test_decomposition_base_extends_alike(self, torus, torus_dec):
        # the base geodesic a decomposition carries extends arcs exactly
        # as a freshly traced one does
        params = DensityParams(0.5, 0.5)
        rng = np.random.default_rng(np.random.PCG64(SEED))
        [c] = _sample_arcs(torus, rng, 1, params.xi, 0.35, 2.5, 3.0)
        K = torus_dec.constants
        assert classify_and_extend(c, params, K, torus,
                                   gamma0=torus_dec.base) \
            == classify_and_extend(c, params, K, torus,
                                   gamma0=base_geodesic(torus))


def _start(tr):
    """Where a walk starts, and its direction there."""
    seg = tr.steps[0].segment
    return seg.start, seg.line.tangent_at(seg.s0)


def _end(tr):
    """Where a walk ends, and its direction there, when its last step
    crosses no side: a walk that ran its length out, or one cut at a
    stop."""
    seg = tr.steps[-1].segment
    return seg.end, seg.line.tangent_at(seg.s1)


def _arc(line_start, direction, length, model):
    """A single-passage arc from a point, clipped inside the polygon."""
    tr = trace_geodesic(model, line_start, direction, length)
    seg = tr.steps[0].segment
    return seg


class TestClassifyAndExtend:
    def test_cusp_ray_is_deep_stop(self, torus, torus_dec, torus_g0):
        params = DensityParams(0.5, 0.5)
        c = _arc(0.0 + 2.5j, 1j, 0.5, torus)
        back, fwd = classify_and_extend(c, params, torus_dec.constants, torus,
                                        gamma0=torus_g0)
        assert fwd.stop.kind == "deep" and fwd.case_id == 5
        assert fwd.stop.index == 0
        # perpendicular entry into the cusp
        assert fwd.stop.angle == pytest.approx(math.pi / 2, abs=1e-6)
        r_eps = formulas.clearance(params.eps, torus_dec.constants.theta0)
        assert fwd.stop.s >= r_eps - 1e-9
        # the forward ray dives, so the backward one is not hunted; the
        # reversed arc's forward ray is that backward ray.  Backward walks
        # out of the arc's start, forward out of its end
        assert back is None
        _, back = classify_and_extend(c.reversed(), params,
                                      torus_dec.constants, torus,
                                      gamma0=torus_g0)
        assert abs(_start(back.trace)[0] - c.start) < 1e-9
        assert abs(_start(fwd.trace)[0] - c.end) < 1e-9

    def test_zero_additional_extension(self, sphere, sphere_dec, sphere_g0):
        params = DensityParams(1.0, 1.0)
        K = sphere_dec.constants
        r_eps = formulas.clearance(params.eps, K.theta0)
        # a point of the first passage low enough that the walk back
        # from it stays in the truncation
        ch = sphere_g0.trace.segments()[0]
        z_star = ch.point_at_fraction(0.8)
        v = ch.line.tangent_at(ch.line.param_of(z_star))
        rot = complex(math.cos(1.2), math.sin(1.2))
        u = v * rot
        back_walk = trace_geodesic(sphere, z_star, -u, r_eps + 0.3)
        far, far_dir = _end(back_walk)
        c = _arc(far, -far_dir, 0.3, sphere)
        assert c.length == pytest.approx(0.3, abs=1e-9)
        _, fwd = classify_and_extend(c, params, K, sphere, gamma0=sphere_g0)
        assert fwd.stop.kind == "base"
        assert fwd.case_id == 1
        assert fwd.stop.s - r_eps <= 1e-6
        assert dist(fwd.stop.point, z_star) < 1e-6
        assert fwd.stop.angle == pytest.approx(1.2, abs=1e-6)

    def test_outcome_traces_end_at_stops(self, sphere, sphere_dec, sphere_g0):
        params = DensityParams(1.0, 1.0)
        c = _arc(0.05 + 0.6j, complex(math.cos(0.4), math.sin(0.4)), 0.4,
                 sphere)
        back, fwd = classify_and_extend(c, params, sphere_dec.constants,
                                        sphere, gamma0=sphere_g0)
        for out, anchor in ((back, c.start), (fwd, c.end)):
            assert out.stop.kind == "base"
            # the walk as taken ends with the step holding the stop
            assert abs(_start(out.trace)[0] - anchor) < 1e-9
            assert len(out.trace.steps) == out.stop.step + 1
            assert out.trace.length > out.stop.s
            # cut at its stop, it ends there
            cut = densify._cut_trace(out.trace, out.stop)
            assert cut.steps[:-1] == out.trace.steps[:-1]
            assert dist(_end(cut)[0], out.stop.point) < 1e-9
            assert cut.length == pytest.approx(out.stop.s, abs=1e-9)

    def test_arc_outside_truncation_rejected(self, torus, torus_dec,
                                             torus_g0):
        # level at height 30 is 6/30 = 0.2 < xi
        c = _arc(0.0 + 30.0j, 1j, 0.2, torus)
        with pytest.raises(ValueError):
            classify_and_extend(c, DensityParams(0.5, 0.5),
                                torus_dec.constants, torus, gamma0=torus_g0)


def _sample_arcs(model, rng, count, xi, y_lo, y_hi, x_hi):
    arcs = []
    while len(arcs) < count:
        z = complex(rng.uniform(-x_hi, x_hi),
                    math.exp(rng.uniform(math.log(y_lo), math.log(y_hi))))
        # levels drop by at most e^0.5 along the sampled arc, so its
        # endpoints stay above the xi truncation
        if not model.inside(z, tol=0.0) \
                or model.min_level(z) < xi * math.exp(0.5):
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi)
        u = complex(math.cos(phi), math.sin(phi))
        try:
            tr = trace_geodesic(model, z, u, 0.6)
        except Exception:
            continue
        seg = tr.steps[0].segment
        if seg.length < 0.1:
            continue
        arcs.append(seg.subsegment(seg.s0, seg.s0 + min(0.45, seg.length)))
    return arcs


class TestExtensionCaps:
    @pytest.mark.parametrize("which,eps,xi", [
        ("torus", 0.5, 0.5),
        ("sphere", 1.0, 0.5),
    ])
    def test_random_arcs_respect_class_a_cap(self, which, eps, xi, torus,
                                             sphere, torus_dec, sphere_dec,
                                             torus_g0, sphere_g0):
        model, dec, g0 = ((torus, torus_dec, torus_g0) if which == "torus"
                          else (sphere, sphere_dec, sphere_g0))
        K = dec.constants
        params = DensityParams(eps, xi)
        m_a = formulas.class_a_extension_bound(K.diam, K.cusp_reach, eps, xi,
                                               K.theta0)
        psi = formulas.deep_entry_angle(eps, xi, K.theta0)
        r_eps = formulas.clearance(eps, K.theta0)
        rng = np.random.default_rng(np.random.PCG64(SEED))
        y_hi = 2.5 if which == "torus" else 1.2
        x_hi = 3.0 if which == "torus" else 1.0
        arcs = _sample_arcs(model, rng, 30, xi, 0.35, y_hi, x_hi)
        seen = {"base": 0, "deep": 0}
        for c in arcs:
            for out in classify_and_extend(c, params, K, model, gamma0=g0):
                seen[out.stop.kind] += 1
                if out.stop.kind == "base":
                    assert out.stop.s - r_eps <= m_a + 1e-6
                    assert out.stop.angle >= K.theta0 - 1e-9
                    assert 1 <= out.case_id <= 4
                else:
                    assert out.case_id == 5
                    assert out.stop.angle >= psi - 1e-9
        assert seen["base"] > 0


def _hunt_cases(request, which):
    """Sampled thick arcs of one surface, with what extending them needs."""
    model = request.getfixturevalue(which)
    dec = request.getfixturevalue(f"{which}_dec")
    g0 = request.getfixturevalue(f"{which}_g0")
    if which == "torus":
        params, box = DensityParams(0.5, 0.5), (0.35, 2.5, 3.0)
    else:
        params, box = DensityParams(1.0, 0.5), (0.35, 1.2, 1.0)
    rng = np.random.default_rng(np.random.PCG64(SEED + 11))
    arcs = _sample_arcs(model, rng, 8, params.xi, *box)
    return model, dec.constants, g0, params, arcs


def _recorded_hunts(monkeypatch, run):
    """(arguments, keyword arguments, outcome) of each hunt run() makes."""
    hunt = densify._hunt
    hunts = []

    def recorded(*args, **kwargs):
        out = hunt(*args, **kwargs)
        hunts.append((args, kwargs, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(densify, "_hunt", recorded)
        run()
    return hunts


def _scan_each_step(S, steps):
    """The records along a walk, each step scanned in turn with the
    record kept before it."""
    events, walked, last = [], 0.0, None
    for k, st in enumerate(steps):
        new = densify._ray_events(S, [st], walked, k, last)
        events += new
        last = new[-1] if new else last
        walked += st.segment.length
    return events


def _reference_hunt(S, point, tangent, allowed, deep_stop=True, scan=None):
    """A hunt's stop, sub-case and walk, read off a scan of its whole ray
    walked to the hunt's cap, the clearance prefix included.  scan takes
    the setting and the steps to their records; by default it is one
    call of _ray_events on all of them."""
    ray = trace_geodesic(S.model, point, tangent, S.r_eps + allowed + 1.0)
    events = (scan or densify._ray_events)(S, ray.steps)
    events = [e for e in events if e.s >= S.r_eps - densify.ANGLE_TOL]
    k = next(i for i, e in enumerate(events)
             if e.good and (e.kind == "base" or deep_stop))
    stop = events[k]
    passed = {e.kind for e in events[:k]}
    if stop.kind == "deep":
        case = 5
    elif "deep" in passed:
        case = 4
    elif stop.s - S.r_eps <= 1e-6:
        case = 1
    elif "base" in passed:
        case = 2
    else:
        case = 3
    return stop, case, ray.steps[:stop.step + 1]


def _assert_same_hunt(out, want):
    """A hunt's outcome equals a reference hunt's, bit for bit."""
    stop, case, steps = want
    assert (stop.kind, stop.index, stop.step, stop.s, stop.point,
            stop.angle, stop.good) == (
        out.stop.kind, out.stop.index, out.stop.step, out.stop.s,
        out.stop.point, out.stop.angle, out.stop.good)
    assert out.case_id == case
    assert out.trace.steps == steps
    assert out.trace.length == sum(st.segment.length for st in steps)


class TestIncrementalHunt:
    """The hunt walks its ray in one piece, scans it one step at a time,
    and stops walking at the stopping step.  Steps that end more than
    densify._CLEAR_MARGIN inside the clearance are walked but not
    scanned."""

    def test_crossing_on_a_step_joint_counts_once(self, request):
        # a walk ending exactly on a non-stopping crossing sees it at the
        # end of its last step, and the walk on from there sees it again
        # at the start of its first
        model, K, g0, params, arcs = _hunt_cases(request, "sphere")
        S = densify._setting(params, K, model, g0)
        joints = seen_twice = 0
        for c in arcs:
            for out in classify_and_extend(c, params, K, model, gamma0=g0):
                # the sub-cases that passed a crossing on the way
                if out.case_id not in (2, 4):
                    continue
                events = densify._ray_events(S, out.trace.steps)
                e = next(e for e in events
                         if e.s >= S.r_eps and not e.good)

                def is_e(g, e=e):
                    return g.kind == e.kind and abs(g.s - e.s) < densify._DEDUP

                tr = out.trace
                w1 = trace_geodesic(model, *_start(tr), e.s)
                w2 = trace_geodesic(model, *_end(w1), out.stop.s - e.s)
                ev1 = densify._ray_events(S, w1.steps)
                ev2 = densify._ray_events(S, w2.steps, w1.length,
                                          len(w1.steps), ev1[-1])
                got = ev1 + ev2
                assert sum(map(is_e, got)) == 1
                assert [(g.kind, g.index) for g in got] \
                    == [(w.kind, w.index) for w in events]
                assert all(abs(g.s - w.s) < densify._DEDUP
                           for g, w in zip(got, events))
                # the walk on from the joint does see the crossing again
                again = densify._ray_events(S, w2.steps, w1.length)
                seen_twice += any(map(is_e, again))
                joints += 1
        assert joints >= 2 and seen_twice >= 1

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_walk_ends_at_the_stopping_step(self, which, request,
                                            monkeypatch):
        # counted at densify's trace_geodesic, the name a step budget
        # wrapped around the hunts' walks needs them to go through
        model, K, g0, params, arcs = _hunt_cases(request, which)
        walk, hunt = densify.trace_geodesic, densify._hunt
        walks = []   # steps of each walk of the current hunt
        hunts = []   # (steps of each walk, step index of the stop)

        def counted(*args, **kwargs):
            out = walk(*args, **kwargs)
            walks.append(len(out.steps))
            return out

        def hunted(*args, **kwargs):
            walks.clear()
            out = hunt(*args, **kwargs)
            hunts.append((list(walks), out.stop.step))
            return out

        monkeypatch.setattr(densify, "trace_geodesic", counted)
        monkeypatch.setattr(densify, "_hunt", hunted)
        for c in arcs:
            classify_and_extend(c, params, K, model, gamma0=g0)
        assert len(hunts) == 2 * len(arcs)
        assert all(n == [k + 1] for n, k in hunts)

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_hunt_matches_one_full_scan(self, which, request, monkeypatch):
        # every hunt, the reroute hunts that pass through a cusp included,
        # walks the steps, stops at the crossing and takes the sub-case
        # that one scan of its whole ray gives
        model, K, g0, params, arcs = _hunt_cases(request, which)

        def run():
            for c in arcs:
                classify_and_extend(c, params, K, model, gamma0=g0)
            if which == "torus":
                for c, outs in _sampled_dives(model, K, g0, params):
                    replace_arc(c, outs, params, K, model, gamma0=g0)

        hunts = _recorded_hunts(monkeypatch, run)
        for args, kwargs, out in hunts:
            _assert_same_hunt(out, _reference_hunt(*args, **kwargs))
        if which == "torus":
            # each of the 25 dives reroutes through at least one such hunt
            assert sum(kw == {"deep_stop": False}
                       for _, kw, _ in hunts) >= 25

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_steps_inside_the_clearance_are_not_scanned(self, which,
                                                        request,
                                                        monkeypatch):
        model, K, g0, params, arcs = _hunt_cases(request, which)
        S = densify._setting(params, K, model, g0)
        scan = densify._ray_events
        ends = []   # where each scanned step ends along its ray

        def recorded(S, steps, walked=0.0, *rest):
            ends.extend(walked + st.segment.length for st in steps)
            return scan(S, steps, walked, *rest)

        monkeypatch.setattr(densify, "_ray_events", recorded)
        walked = sum(len(out.trace.steps) for c in arcs for out in
                     classify_and_extend(c, params, K, model, gamma0=g0))
        # no scanned step lies wholly inside the clearance, less the
        # margin, and those steps are a third of the walk or more
        skip_to = S.r_eps - densify.ANGLE_TOL - densify._CLEAR_MARGIN
        assert min(ends) >= skip_to
        assert walked - len(ends) >= walked / 3

    @pytest.mark.parametrize("alpha", [0.15, 0.6])
    @pytest.mark.parametrize("f", [-0.5, 0.5, 1.5])
    def test_scan_starting_at_a_joint_crossing(self, alpha, f, request,
                                               monkeypatch):
        # The ray crosses the base geodesic where that leaves the
        # polygon through a side, at the end of a base chord, so its
        # first two steps both see the crossing.  The clearance is
        # doctored to end f margins past that joint: at f 1.5 the hunt
        # skips the first step and scans the second without the first
        # sighting; at f 0.5 it scans both; at f -0.5 the crossing lies
        # past the clearance.  It crosses at alpha, under and over the
        # steep threshold.  A scan of every step decides the outcome
        model, K, g0, params, _ = _hunt_cases(request, "sphere")
        S = densify._setting(params, K, model, g0)
        assert 0.15 < K.theta0 < 0.6
        chord = g0.chords[0][1]
        z = chord.end
        line = GeodesicLine.from_point_direction(
            z, chord.line.tangent_at(chord.s1)
            * complex(math.cos(alpha), math.sin(alpha)))
        s0 = line.param_of(z) - 0.05
        p, u = line.point_at(s0), line.tangent_at(s0)
        first = trace_geodesic(model, p, u, 1.0).steps[:2]
        joint = first[0].segment.length
        sightings = [densify._ray_events(S, first[:1]),
                     densify._ray_events(S, first[1:], joint, 1)]
        for ev in sightings:
            assert abs(ev[0].s - joint) < 1e-12 and ev[0].kind == "base"
            assert ev[0].good == (alpha > K.theta0)

        M = densify._CLEAR_MARGIN
        doctored = dataclasses.replace(
            S, r_eps=joint + f * M + densify.ANGLE_TOL)
        scan = densify._ray_events
        scanned = []

        def recorded(S, steps, walked=0.0, step0=0, last=None):
            scanned.append((step0, last))
            return scan(S, steps, walked, step0, last)

        with monkeypatch.context() as m:
            m.setattr(densify, "_ray_events", recorded)
            out = densify._hunt(doctored, p, u, S.m_a)
        assert scanned[0] == ((1, None) if f > 1.0 else (0, None))
        _assert_same_hunt(out, _reference_hunt(doctored, p, u, S.m_a,
                                               scan=_scan_each_step))
        if f < 0.0:
            assert out.case_id == (3 if alpha > K.theta0 else 2)

    def test_chords_tested_once_per_scanned_plain_step(self, request,
                                                       monkeypatch):
        # perfbench counts the scanned steps as densify's lines_cross
        # calls over the number of base chords
        model, K, g0, params, arcs = _hunt_cases(request, "sphere")
        cross, scan, hunt = (densify.lines_cross, densify._ray_events,
                             densify._hunt)
        calls = [0]
        scanned = []   # (count, lines_cross calls) of each scanned step
        hunts = []     # (lines_cross calls, scanned steps, walked steps)

        def counted(*args):
            calls[0] += 1
            return cross(*args)

        def recorded(S, steps, *rest):
            before = calls[0]
            out = scan(S, steps, *rest)
            [st] = steps
            scanned.append((st.count, calls[0] - before))
            return out

        def hunted(*args, **kwargs):
            before, k = calls[0], len(scanned)
            out = hunt(*args, **kwargs)
            hunts.append((calls[0] - before, scanned[k:],
                          len(out.trace.steps)))
            return out

        monkeypatch.setattr(densify, "lines_cross", counted)
        monkeypatch.setattr(densify, "_ray_events", recorded)
        monkeypatch.setattr(densify, "_hunt", hunted)
        for c in arcs:
            classify_and_extend(c, params, K, model, gamma0=g0)
        n = len(g0.chords)
        for total, steps, walked in hunts:
            assert all(k == (n if count == 1 else 0) for count, k in steps)
            assert total == n * sum(count == 1 for count, _ in steps)
        assert sum(walked - len(steps) for _, steps, walked in hunts) > 0
        assert any(count > 1 for _, steps, _ in hunts for count, _ in steps)

    def test_deep_crossing_passed_outranks_no_extension(
            self, torus, torus_dec, torus_g0):
        # sub-case 4 (a deep crossing passed) is decided before sub-case 1
        # (no extension).  A real run never meets both, since the base
        # geodesic stays below every unit horocycle, so the setting is
        # doctored: its clearance ends 5e-7 short of a steep base crossing,
        # and its one deep horocycle meets the ray 2.5e-7 before that
        # crossing at 0.05, far below psi
        S = densify._setting(DensityParams(0.5, 0.5), torus_dec.constants,
                             torus, torus_g0)
        p, u = torus.base_point, complex(math.cos(0.4), math.sin(0.4))
        ray = trace_geodesic(torus, p, u, 6.0)
        stop = next(e for e in densify._ray_events(S, ray.steps)
                    if e.kind == "base" and e.good and e.s > 0.5)
        seg = ray.steps[stop.step].segment
        sw = seg.line.param_of(stop.point) - 2.5e-7
        assert sw - seg.s0 > 1e-6
        # the horocycle through z whose tangent there is the ray's turned
        # by 0.05: its Euclidean circle has its center r along a unit
        # normal n from z, at height r
        z = seg.line.point_at(sw)
        t = seg.line.tangent_at(sw) * complex(math.cos(0.05), math.sin(0.05))
        n = 1j * t if (1j * t).imag <= 0.0 else -1j * t
        r = z.imag / (1.0 - n.imag)
        h = Horocycle(z.real + r * n.real, 2.0 * r)
        doctored = dataclasses.replace(S, r_eps=stop.s - 5e-7, deep=(h,))
        out = densify._hunt(doctored, p, u, S.m_a)
        assert out.stop.kind == "base"
        assert out.stop.s == pytest.approx(stop.s, abs=1e-12)
        assert out.stop.s - doctored.r_eps <= 1e-6
        [passed] = [e for e in densify._ray_events(doctored, out.trace.steps)
                    if doctored.r_eps <= e.s < out.stop.s]
        assert passed.kind == "deep" and not passed.good
        assert passed.angle == pytest.approx(0.05, abs=1e-9)
        assert dist(passed.point, z) < 1e-9
        assert out.case_id == 4

    def test_chord_without_an_intersection_point_is_skipped(
            self, torus, torus_dec, torus_g0, monkeypatch):
        # lines_cross can accept a base chord whose crossing with the
        # step's line intersect_lines puts at height <= 1e-12, where no
        # base chord runs: the scan skips the chord, as decomp does
        S = densify._setting(DensityParams(0.5, 0.5), torus_dec.constants,
                             torus, torus_g0)
        u = complex(math.cos(0.4), math.sin(0.4))
        ray = trace_geodesic(torus, torus.base_point, u, 6.0)
        events = densify._ray_events(S, ray.steps)
        index = next(e.index for e in events if e.kind == "base")
        [line] = [ch.line for i, ch, _ in torus_g0.chords if i == index]
        meet = densify.intersect_lines
        monkeypatch.setattr(
            densify, "intersect_lines",
            lambda l1, l2: None if l2 is line else meet(l1, l2))
        got = densify._ray_events(S, ray.steps)
        assert [e for e in events
                if (e.kind, e.index) != ("base", index)] == got

    @pytest.mark.parametrize("which", ["torus", "sphere"])
    def test_class_a_walks_cut_at_their_stops(self, which, request):
        # a class-A stop is a base crossing, and base crossings lie in
        # plain steps, so cutting the walk at the stop cuts one plain
        # step.  Some walks climb a cusp in runs, the torus witness arcs'
        # (TestCuspExcursionWitnesses) by thousands of crossings
        model, K, g0, params, arcs = _hunt_cases(request, which)
        groups = [(params, arcs)]
        if which == "torus":
            groups.append((DensityParams(0.2, 0.5), [
                _witness(-62549.955372095865, 62551.22036063326, False,
                         11.307231252184891),
                _witness(0.39332066456492676, 3.60667492206145, True,
                         1.1019359767300707)]))
        cuts = runs = 0
        for prm, cs in groups:
            S = densify._setting(prm, K, model, g0)
            for c in cs:
                for out in classify_and_extend(c, prm, K, model, gamma0=g0):
                    steps = out.trace.steps
                    runs += sum(st.count > 1 for st in steps)
                    events = densify._ray_events(S, steps)
                    assert all(steps[e.step].count == 1
                               for e in events if e.kind == "base")
                    if out.stop.kind != "base":
                        continue
                    cut = densify._cut_trace(out.trace, out.stop)
                    assert cut.steps[:-1] == steps[:out.stop.step]
                    assert (cut.steps[-1].count, cut.steps[-1].side) \
                        == (1, None)
                    assert dist(_end(cut)[0], out.stop.point) < 1e-9
                    assert cut.length == pytest.approx(out.stop.s, abs=1e-9)
                    cuts += 1
        assert cuts >= len(arcs)
        assert runs > 0


class TestGuards:
    """Each guard of arc processing raises its named error."""

    def test_extension_over_its_cap(self, request):
        model, K, g0, params, arcs = _hunt_cases(request, "torus")
        S = densify._setting(params, K, model, g0)
        for c in arcs:
            p, u = c.end, c.line.tangent_at(c.s1)
            out = densify._hunt(S, p, u, S.m_a)
            extension = out.stop.s - S.r_eps
            if out.stop.kind == "base" and 1e-3 < extension < 2.0:
                break
        else:
            pytest.fail("no sampled arc extends past the clearance")
        # the walk runs one unit past the halved cap, so it still reaches
        # the stop, an extension under 2 past the clearance
        with pytest.raises(CaseBoundViolated, match="exceeds its cap"):
            densify._hunt(S, p, u, 0.5 * extension)

    def test_walk_past_its_cap(self, request):
        model, K, g0, params, [c, *_] = _hunt_cases(request, "torus")
        S = densify._setting(params, K, model, g0)
        # no crossing before the clearance stops a hunt, and this walk
        # ends halfway to it
        with pytest.raises(SafetyCapExceeded, match="no admissible stop"):
            densify._hunt(S, c.end, c.line.tangent_at(c.s1),
                          -0.5 * S.r_eps - 1.0)

    @pytest.mark.parametrize("change, error, match", [
        (lambda pa: {"zeta_span": pa.zeta_span[::-1]},
         CaseBoundViolated, "does not sit inside"),
        (lambda pa: {"end_fwd": dataclasses.replace(pa.end_fwd, kind="deep")},
         CaseBoundViolated, "steep base crossing"),
        (lambda pa: {"clearance": pa.zeta_span[0] + 1.0},
         CaseBoundViolated, "under the clearance"),
        (lambda pa: {"bound": 0.5 * pa.length},
         CaseBoundViolated, "per-arc bound"),
        (lambda pa: {"length": pa.length + 1e-3},
         ArrangementDegenerate, "drifted"),
    ], ids=["span", "kind", "clearance", "bound", "drift"])
    def test_processed_arc_guard(self, request, change, error, match):
        # each guard of ProcessedArc.validate, tripped by one field
        model, K, g0, params, [c, *_] = _hunt_cases(request, "torus")
        outs = classify_and_extend(c, params, K, model, gamma0=g0)
        pa = replace_arc(c, outs, params, K, model, gamma0=g0)
        pa.validate()
        with pytest.raises(error, match=match):
            dataclasses.replace(pa, **change(pa)).validate()

    @pytest.mark.parametrize("end, match", [("lo", "under its bracket"),
                                            ("hi", "exceeds its cap")],
                             ids=["lo", "hi"])
    def test_bb_extension_outside_its_bracket(self, sphere, sphere_dec,
                                              sphere_g0, monkeypatch,
                                              end, match):
        # the sphere BB witness, with the bracket moved past its two
        # extensions on one side
        params, K, c, outs, pa = _sphere_bb(sphere, sphere_dec, sphere_g0)
        v = (pa.detail["v_dive"], pa.detail["v_tail"])
        lo, hi = formulas.bb_v_bracket(params.eps, params.xi, K.theta0,
                                       K.cusp_reach)
        assert lo < min(v) <= max(v) < hi
        moved = (max(v) + 0.05, hi) if end == "lo" else (lo, min(v) - 0.05)
        monkeypatch.setattr(formulas, "bb_v_bracket", lambda *a: moved)
        densify._setting.cache_clear()
        try:
            with pytest.raises(CaseBoundViolated, match=match):
                replace_arc(c, outs, params, K, sphere, gamma0=sphere_g0)
        finally:
            densify._setting.cache_clear()

    @pytest.mark.parametrize("patch, match", [
        (lambda m: _meet_scaled(m, 2.0),
         r"reroute endpoint displaced by 0\.69\d+, over the deep-length "
         r"bound 0\.029"),
        (lambda m: _eps_shrunk(m),
         "candidate tail endpoints farther apart than eps/2"),
        (lambda m: m.setattr(densify, "horocycle_perpendicular",
                             _horoballs_overlap),
         "reroute horoballs are not separated: the horoballs overlap"),
        (lambda m: m.setattr(formulas, "bb_u_bracket", lambda *a: (0.0, 1.0)),
         r"horoball gap 11\.23\d+ outside \[0, 1\]"),
        (lambda m: m.setattr(formulas, "quad_half_width", lambda *a: 1.0),
         "quad half-width 1 not under 2/e"),
        (lambda m: m.setattr(densify, "GeodesicLine", _HalfSpeedSide),
         r"quad side length 22\.46\d+ over its bound 11\.26"),
        (lambda m: _in_bb_assemble(m, lambda m: _meet_scaled(m, 2.0)),
         r"reroute endpoint displaced by 0\.69\d+, over twice the "
         r"half-width 0\.029"),
        (lambda m: m.setattr(densify, "GeodesicLine", _SideReadPastItsTop),
         "replacement endpoints leave the bridging segment"),
    ], ids=["ba_displacement", "tails_apart", "horoballs_overlap",
            "u_bracket", "half_width", "quad_side", "bb_displacement",
            "bridge"])
    def test_reroute_guard(self, sphere, sphere_dec, sphere_g0, monkeypatch,
                           patch, match):
        """Each guard of _reroute and _bb_assemble raises its named error,
        tripped on the sphere BB witness by one patch.  The quad side's
        length and the bridge hold by construction for any gap and
        half-width, so those two are tripped by reading the side's
        parameters otherwise."""
        params, K, c, outs, _ = _sphere_bb(sphere, sphere_dec, sphere_g0)
        patch(monkeypatch)
        with pytest.raises(CaseBoundViolated, match=match):
            replace_arc(c, outs, params, K, sphere, gamma0=sphere_g0)


def _sphere_bb(sphere, sphere_dec, sphere_g0):
    """The sphere BB witness of test_symmetric_bb_gap_matches_depth:
    params, constants, the arc, its outcomes and its processed arc."""
    params = DensityParams(0.5, 0.5)
    K = sphere_dec.constants
    c = GeodesicSegment.between(complex(0.5, 0.5), complex(0.5, 0.9))
    outs = classify_and_extend(c, params, K, sphere, gamma0=sphere_g0)
    pa = replace_arc(c, outs, params, K, sphere, gamma0=sphere_g0)
    assert pa.case == "BB"
    return params, K, c, outs, pa


def _meet_scaled(monkeypatch, k):
    """Reroutes meet the centered circle of k times the radius."""
    meet = densify._centered_meet
    monkeypatch.setattr(densify, "_centered_meet",
                        lambda line, radius: meet(line, k * radius))


def _in_bb_assemble(monkeypatch, patch):
    """patch applied only while _bb_assemble runs."""
    bb_assemble = densify._bb_assemble

    def patched(*args):
        with monkeypatch.context() as m:
            patch(m)
            return bb_assemble(*args)

    monkeypatch.setattr(densify, "_bb_assemble", patched)


def _eps_shrunk(monkeypatch):
    """The run's setting with eps 1e-6 in its params, every threshold
    derived from it unchanged."""
    setting = densify._setting
    monkeypatch.setattr(densify, "_setting", lambda *a: dataclasses.replace(
        setting(*a), params=DensityParams(1e-6, a[0].xi)))


def _horoballs_overlap(h1, h2):
    raise HorocyclesIntersect("the horoballs overlap")


def _side(cls, line):
    return cls(*dataclasses.astuple(line))


class _HalfSpeedSide(GeodesicLine):
    """A BB quad side read at half speed: its tangents are the side's,
    its lengths come out doubled."""

    @staticmethod
    def from_points(z1, z2):
        return _side(_HalfSpeedSide, GeodesicLine.from_points(z1, z2))

    def param_of(self, z):
        return 2.0 * GeodesicLine.param_of(self, z)

    def tangent_at(self, s):
        return GeodesicLine.tangent_at(self, 0.5 * s)


class _SideReadPastItsTop(GeodesicLine):
    """A BB quad side that reads every point but its two corners 100
    past its true parameter."""

    @staticmethod
    def from_points(z1, z2):
        side = _side(_SideReadPastItsTop, GeodesicLine.from_points(z1, z2))
        side.corners = (z1, z2)
        return side

    def param_of(self, z):
        s = GeodesicLine.param_of(self, z)
        return s if z in self.corners else s + 100.0


class TestCenteredMeet:
    """The crossing with a centered circle that reroutes project along."""

    def test_near_tangent_witness(self):
        """A small circle crossing a far larger centered one at a shallow
        angle: forming m^2 - r^2 plainly put the point 9.9e-10 low, 8.9e-11
        of its height."""
        line = GeodesicLine.circle(9309.50224664775, 17.517944276242996)
        radius = 9296.00875657999
        m, r, big = map(Fraction, (line.center, line.radius, radius))
        x = (big * big + m * m - r * r) / (2 * m)
        want = complex(float(x), math.sqrt(float(big * big - x * x)))
        got = densify._centered_meet(line, radius)
        assert abs(got.real - want.real) <= 1e-15 * want.real
        assert abs(got.imag - want.imag) <= 1e-15 * want.imag

    @pytest.mark.parametrize("center, r", [(10.0, 1.0), (0.5, 0.1)])
    def test_miss_raises(self, center, r):
        with pytest.raises(CaseBoundViolated, match="misses the reroute"):
            densify._centered_meet(GeodesicLine.circle(center, r), 2.0)


class TestDeepHorocycles:
    """The run's setting: its deep horocycles and thresholds."""

    def test_lengths_match_formula(self, torus, torus_dec, torus_g0):
        params = DensityParams(0.5, 0.5)
        th = torus_dec.constants.theta0
        S = densify._setting(params, torus_dec.constants, torus, torus_g0)
        assert len(S.deep) == 1
        s = formulas.deep_horocycle_length(0.5, 0.5, th)
        # cusp at infinity with width 6: height is width / length
        assert S.deep[0].size == pytest.approx(6.0 / s, abs=1e-9)

    @pytest.mark.parametrize("which,eps,xi", [
        ("torus", 0.5, 0.5),
        ("sphere", 0.05, 0.2),
    ])
    def test_fields_match_formulas(self, which, eps, xi, request):
        model = request.getfixturevalue(which)
        dec = request.getfixturevalue(f"{which}_dec")
        K, th = dec.constants, dec.constants.theta0
        S = densify._setting(DensityParams(eps, xi), K, model, dec.base)
        assert (S.model, S.gamma0, S.K) == (model, dec.base, K)
        assert S.params == DensityParams(eps, xi)
        assert S.r_eps == formulas.clearance(eps, th)
        assert S.psi == formulas.deep_entry_angle(eps, xi, th)
        assert S.s_deep == formulas.deep_horocycle_length(eps, xi, th)
        assert S.m_a == formulas.class_a_extension_bound(
            K.diam, K.cusp_reach, eps, xi, th)
        assert S.deep == tuple(model.cusp_horocycle(j, S.s_deep)
                               for j in range(len(model.cusps)))

    def test_derived_once_per_run(self, torus, torus_dec, sphere,
                                  sphere_dec):
        params = DensityParams(0.5, 0.5)
        K = torus_dec.constants
        S = densify._setting(params, K, torus, torus_dec.base)
        assert densify._setting(DensityParams(0.5, 0.5), K, torus,
                                torus_dec.base) is S
        finer = densify._setting(DensityParams(0.2, 0.5), K, torus,
                                 torus_dec.base)
        assert finer.params.eps == 0.2
        assert finer.r_eps > S.r_eps and finer.s_deep < S.s_deep
        other = densify._setting(params, sphere_dec.constants, sphere,
                                 sphere_dec.base)
        assert other.model is sphere and len(other.deep) == 3
        assert other.r_eps != S.r_eps


def _trace_point(trace, s):
    """Point at arc length s along a trace, in that passage's polygon
    coordinates."""
    acc = 0.0
    for seg in trace.segments():
        if s <= acc + seg.length + 1e-12:
            return seg.point_at(seg.s0 + (s - acc))
        acc += seg.length
    return _end(trace)[0]


class TestReplaceArc:
    def test_class_a_identity(self, sphere, sphere_dec, sphere_g0):
        params = DensityParams(1.0, 0.5)
        K = sphere_dec.constants
        rng = np.random.default_rng(np.random.PCG64(SEED + 5))
        picked = None
        for c in _sample_arcs(sphere, rng, 20, params.xi, 0.35, 1.2, 1.0):
            back, fwd = classify_and_extend(c, params, K, sphere,
                                            gamma0=sphere_g0)
            if back.stop.kind == "base" and fwd.stop.kind == "base":
                picked = (c, back, fwd)
                break
        assert picked is not None
        c, back, fwd = picked
        pa = replace_arc(c, (back, fwd), params, K, sphere, gamma0=sphere_g0)
        assert pa.case == "A"
        assert pa.displacement == 0.0
        assert pa.length == pytest.approx(back.stop.s + c.length + fwd.stop.s,
                                          abs=1e-9)
        assert pa.ext_back == pytest.approx(back.stop.s, abs=1e-9)
        assert pa.ext_fwd == pytest.approx(fwd.stop.s, abs=1e-9)
        assert pa.zeta_span[1] - pa.zeta_span[0] \
            == pytest.approx(c.length, abs=1e-9)
        assert pa.end_back is back.stop and pa.end_fwd is fwd.stop
        # the rebuilt trace passes through the untouched arc endpoints
        assert dist(_trace_point(pa.trace, pa.zeta_span[0]), c.start) < 1e-6
        assert dist(_trace_point(pa.trace, pa.zeta_span[1]), c.end) < 1e-6
        assert pa.length <= pa.bound + 1e-6

    def test_torus_dive_reroute_and_reversal(self, torus, torus_dec,
                                             torus_g0):
        params = DensityParams(0.5, 0.5)
        K = torus_dec.constants
        picked = None
        # a dive needs a nearly vertical start; at height 2 the deep
        # horocycle is only reached from tilts of order 1e-4
        for x0 in (1.3, 0.9, 1.7):
            for tilt in (1e-4, -1e-4, 6e-5):
                phi = math.pi / 2 + tilt
                c = _arc(complex(x0, 2.0),
                         complex(math.cos(phi), math.sin(phi)), 0.4, torus)
                back, fwd = classify_and_extend(c, params, K, torus,
                                                gamma0=torus_g0)
                if fwd.stop.kind != "deep":
                    continue
                # a forward dive leaves the backward ray unhunted; the
                # reversed arc's forward ray is that ray
                if classify_and_extend(c.reversed(), params, K, torus,
                                       gamma0=torus_g0)[1].stop.kind \
                        == "base":
                    picked = (c, (back, fwd))
                    break
            if picked is not None:
                break
        assert picked is not None
        c, outs = picked
        pa = replace_arc(c, outs, params, K, torus, gamma0=torus_g0)
        assert pa.case in ("BA", "BB")
        s_deep = formulas.deep_horocycle_length(params.eps, params.xi,
                                                K.theta0)
        assert 0.0 < pa.displacement <= 4.2 * s_deep
        assert min(pa.ext_back, pa.ext_fwd) >= pa.clearance - 1e-9
        assert pa.length <= pa.bound + 1e-6

        # reversed, the arc dives at its start only; the dive is rerouted
        # forward, along the reverse of the reversed arc, which gives the
        # same processed arc
        c2 = c.reversed()
        outs2 = classify_and_extend(c2, params, K, torus, gamma0=torus_g0)
        assert outs2[0].stop.kind == "deep" and outs2[1].stop.kind == "base"
        pa2 = replace_arc(c2, outs2, params, K, torus, gamma0=torus_g0)
        assert pa2.original == c
        _assert_same_arc(pa2, pa)

    def test_symmetric_bb_gap_matches_depth(self, sphere, sphere_dec,
                                            sphere_g0):
        # vertical through the cusp at infinity and its partner ball at
        # 1/2; both extensions dive, and the horoball gap doubles the
        # depth of the gap midpoint
        params = DensityParams(0.5, 0.5)
        K = sphere_dec.constants
        c = GeodesicSegment.between(complex(0.5, 0.5), complex(0.5, 0.9))
        _, fwd = classify_and_extend(c, params, K, sphere, gamma0=sphere_g0)
        # the backward ray, unhunted after a forward dive, is the reversed
        # arc's forward ray
        _, back = classify_and_extend(c.reversed(), params, K, sphere,
                                      gamma0=sphere_g0)
        assert back.stop.kind == "deep" and fwd.stop.kind == "deep"
        pa = replace_arc(c, (back, fwd), params, K, sphere, gamma0=sphere_g0)
        assert pa.case == "BB"

        s_deep = formulas.deep_horocycle_length(params.eps, params.xi,
                                                K.theta0)
        ball_top = Horocycle(INF, 2.0 / s_deep)
        ball_bot = to_isometry(sphere.word_matrix("b")).apply_horocycle(ball_top)
        assert ball_bot.base == pytest.approx(0.5, abs=1e-12)
        z_mid = complex(0.5, math.sqrt(ball_top.size * ball_bot.size))
        assert z_mid.imag == pytest.approx(0.5, abs=1e-12)
        assert sphere.in_truncation(z_mid, params.xi)
        depth = math.log(sphere.level(0, z_mid) / s_deep)
        assert abs(pa.detail["u"] - 2.0 * depth) <= 1e-6

        hw = pa.detail["half_width"]
        assert pa.displacement <= 2.0 * hw + 1e-6
        a, b = pa.zeta_span
        assert abs(b - a - c.length) <= 5.0 * s_deep
        assert pa.detail["v_dive"] > 0 and pa.detail["v_tail"] > 0
        assert pa.length <= pa.bound + 1e-6

        # run backwards, the arc dives on its back side.  replace_arc
        # would pick the front dive, so the reroute is called as
        # replace_arc calls it for a dive at the start only: as the
        # forward dive of the reversed arc, which is the reroute above
        c2 = c.reversed()
        S = densify._setting(params, K, sphere, sphere_g0)
        back2 = densify._hunt(S, c2.start, -c2.line.tangent_at(c2.s0), S.m_a)
        assert back2.stop.kind == "deep"
        pa2 = densify._reroute(S, c2.reversed(), back2, pa.bound)
        _assert_same_arc(pa2, pa)

    def test_random_dives_reroute(self, torus, torus_dec, torus_g0):
        params = DensityParams(0.5, 0.5)
        K = torus_dec.constants
        s_deep = formulas.deep_horocycle_length(params.eps, params.xi,
                                                K.theta0)
        cases = {"BA": 0, "BB": 0}
        dives = _sampled_dives(torus, K, torus_g0, params)
        for c, outs in dives:
            pa = replace_arc(c, outs, params, K, torus, gamma0=torus_g0)
            cases[pa.case] += 1
            assert pa.length <= pa.bound + 1e-6
            assert pa.displacement <= 4.2 * s_deep
            assert min(pa.ext_back, pa.ext_fwd) >= pa.clearance - 1e-9
        assert len(dives) == 25
        assert cases["BA"] + cases["BB"] == len(dives)
        assert cases["BA"] >= 1

    def test_forward_dive_skips_the_backward_hunt(self, torus, torus_dec,
                                                  torus_g0, monkeypatch):
        # replace_arc reroutes a forward dive from the forward outcome
        # alone, so classify_and_extend hunts the forward ray only, and
        # the backward outcome, hunted explicitly, changes nothing
        params = DensityParams(0.5, 0.5)
        K = torus_dec.constants
        S = densify._setting(params, K, torus, torus_g0)
        dives = _sampled_dives(torus, K, torus_g0, params)
        for c, _ in dives:
            outs = []

            def run(c=c, outs=outs):
                outs.append(classify_and_extend(c, params, K, torus,
                                                gamma0=torus_g0))

            hunts = _recorded_hunts(monkeypatch, run)
            [(back, fwd)] = outs
            assert len(hunts) == 1
            assert back is None and fwd.stop.kind == "deep"
            hunted = densify._hunt(S, c.start, -c.line.tangent_at(c.s0),
                                   S.m_a)
            _assert_same_arc(
                replace_arc(c, (None, fwd), params, K, torus,
                            gamma0=torus_g0),
                replace_arc(c, (hunted, fwd), params, K, torus,
                            gamma0=torus_g0))
        assert len(dives) == 25

    def test_reversed_dives_reroute_alike(self, torus, torus_dec, torus_g0):
        # each sampled arc dives at its end only, so its reverse dives at
        # its start only, and is rerouted forward along the arc itself
        params = DensityParams(0.5, 0.5)
        K = torus_dec.constants
        for c, outs in _sampled_dives(torus, K, torus_g0, params):
            c2 = c.reversed()
            outs2 = classify_and_extend(c2, params, K, torus, gamma0=torus_g0)
            assert [o.stop.kind for o in outs2] == ["deep", "base"]
            pa2 = replace_arc(c2, outs2, params, K, torus, gamma0=torus_g0)
            assert pa2.original == c
            _assert_same_arc(
                pa2, replace_arc(c, outs, params, K, torus, gamma0=torus_g0))


def _sampled_dives(model, K, g0, params):
    """25 arcs of length 0.3 tilted at most 8e-5 from vertical, with
    their outcomes, each diving on at least one side."""
    rng = np.random.default_rng(np.random.PCG64(SEED + 7))
    dives = []
    attempts = 0
    while len(dives) < 25 and attempts < 100:
        attempts += 1
        z = complex(rng.uniform(-2.9, 2.9), rng.uniform(1.2, 2.2))
        if not model.inside(z, tol=0.0):
            continue
        # tilts of order 1e-4 keep the ray steep enough to enter the
        # deep horocycle at an angle past the entry threshold
        phi = math.pi / 2 + rng.uniform(-8e-5, 8e-5)
        u = complex(math.cos(phi), math.sin(phi))
        tr = trace_geodesic(model, z, u, 0.5)
        seg = tr.steps[0].segment
        if seg.length < 0.3:
            continue
        c = seg.subsegment(seg.s0, seg.s0 + 0.3)
        outs = classify_and_extend(c, params, K, model, gamma0=g0)
        if outs[1].stop.kind == "base" and outs[0].stop.kind == "base":
            continue
        dives.append((c, outs))
    return dives


def _assert_same_arc(got, want):
    """Two processed arcs agree in every field and every step of their
    walks, which fix the walks' passages, bit for bit."""
    for name in ("case", "original", "length", "zeta_span", "displacement",
                 "bound", "clearance", "end_back", "end_fwd", "detail"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.trace.sides == want.trace.sides
    assert got.trace.length == want.trace.length
    assert got.trace.steps == want.trace.steps


def _witness(center, radius, pos_to_neg, s0):
    """A benchmark arc of length 0.45 on a half-circle line."""
    return GeodesicSegment(GeodesicLine.circle(center, radius, pos_to_neg),
                           s0, s0 + 0.45)


class TestCuspExcursionWitnesses:
    """Arcs whose extensions climb high into a cusp.  Walked one
    passage per strip width, the first two took 20,866 and 28,140 trace
    steps, and the last two stalled next to the sphere's cusp vertex 1
    with a TraceError."""

    @pytest.fixture
    def steps(self, monkeypatch):
        taken = []
        walk = densify.trace_geodesic

        def counted(*args, **kwargs):
            out = walk(*args, **kwargs)
            taken.append(len(out.steps))
            return out

        monkeypatch.setattr(densify, "trace_geodesic", counted)
        return taken

    @pytest.mark.parametrize("which,eps,xi,arc,case,detail,length,sides", [
        # torus-thick, seed 3, arc 454: extensions of cases 4 and 2
        ("torus", 0.2, 0.5,
         (-62549.955372095865, 62551.22036063326, False, 11.307231252184891),
         "A", {"cases": (4, 2)}, 27.605564729648954, 20854),
        # torus-thick, seed 5, arc 2581: a dive rerouted by its first tail
        ("torus", 0.2, 0.5,
         (0.39332066456492676, 3.60667492206145, True, 1.1019359767300707),
         "BA", {"candidate": 1, "tail_case": 3, "dive_case": 4},
         32.69949352460638, 28074),
        # sphere-fine, seed 1, arc 1118
        ("sphere", 0.05, 0.2,
         (-4.087472322977253, 4.912548771241424, True, -2.269542700964721),
         "A", {"cases": (3, 4)}, None, None),
        # sphere-fine, seed 9, arc 774
        ("sphere", 0.05, 0.2,
         (0.41537144695944705, 0.5846259837153948, True,
          -0.8101771401719486),
         "A", {"cases": (4, 3)}, None, None),
    ])
    def test_processes_in_few_steps(self, which, eps, xi, arc, case, detail,
                                    length, sides, steps, request):
        model = request.getfixturevalue(which)
        dec = request.getfixturevalue(f"{which}_dec")
        params = DensityParams(eps, xi)
        c = _witness(*arc)
        outs = classify_and_extend(c, params, dec.constants, model,
                                   gamma0=dec.base)
        pa = replace_arc(c, outs, params, dec.constants, model,
                         gamma0=dec.base)
        assert sum(steps) < 200
        assert pa.case == case
        assert {k: pa.detail[k] for k in detail} == detail
        if length is not None:
            # the passage-by-passage walk's length and crossing count
            assert pa.length == pytest.approx(length, rel=1e-9)
            assert len(pa.trace.sides) == sides
