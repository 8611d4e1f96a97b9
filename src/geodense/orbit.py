"""Deck group enumeration and certified distances.

The deck groups of the catalog surfaces are free, so freely reduced
words identify group elements exactly and breadth-first search over the
side pairings enumerates tiles without numerical dedup.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Any, NamedTuple

import numpy as np

from .errors import RadiusTooSmall
from .halfplane import GeodesicSegment, Isometry, _sq_gap, mat_mul, to_isometry
from .surface import SurfaceModel
from .tolerances import TOL_GEO
from .words import join_reduced

# How far GeodesicSegment.dist_to_point may sit from the true distance,
# besides the slack of _Passages.  halfplane.dist itself is good to a
# few ulps, so this bound is loose.
DIST_TOL = 1e-7


def dist_to_domain(model: SurfaceModel, z: complex) -> float:
    """Distance from z to the closed fundamental polygon.

    Zero inside, by the test of ``inside``; outside, the nearest
    boundary point lies on one of the side segments because the polygon
    is convex.  A segment lies no nearer than its line, so a side whose
    line lies more than 2 DIST_TOL beyond the nearest segment so far is
    not measured: its dist_to_point, within DIST_TOL of the true
    distance, comes out above that one, and the result is the minimum
    over every side bit for bit.  The sides whose line z lies beyond
    are measured first, since the nearest segment lies on one of them,
    and most others are then not measured at all.

    The margin is absolute: a line's sinh distance rounds by a few
    1e-16, which near a finite vertex, where two segments' distances
    tie and one line lies nearly as far, exceeds 1e-12 of distances
    below about 1e-4.
    """
    dists = model.side_signed_dists(z)
    for v in dists:
        # "not >=" so that a NaN distance counts as outside, as inside does
        if not v >= -TOL_GEO:
            break
    else:
        return 0.0
    best = math.inf
    for beyond in (True, False):
        for side, v in zip(model.sides, dists):
            if (v < 0.0) == beyond \
                    and not math.asinh(abs(v)) > best + 2.0 * DIST_TOL:
                best = min(best, side.segment.dist_to_point(z))
    return best


# How far ball's half-plane bound is widened, in sinh units.  It covers
# three errors: dist_to_point's own, at most DIST_TOL; the drift of the
# point the search carries from the point the exact test computes, at
# most 6.3e-12 times 1 + |sinh| on either surface over 300 centers up to
# height 3,000 and balls of up to 3,000 tiles; and the rounding of one
# signed_sinh_dist, a few ulps for the polygon's unit-size sides.  The
# bound reads the carried point's own side distances, with no map in
# between, so no other rounding enters.  Widening the sinh s to
# s (1 + d) + d moves its asinh up by about d at least, and 2 DIST_TOL
# leaves room over the three.
_HALF_PLANE_SLACK = 2.0 * DIST_TOL
# a ball of more tiles than this raises RadiusTooSmall
MAX_TILES = 20000


def ball(model: SurfaceModel, center: complex,
         radius: float) -> list[tuple[str, Isometry]]:
    """All deck elements whose tile meets the disk around center.

    Returned as (word, isometry) pairs in breadth-first order starting
    with the identity, each element multiplied as an integer matrix
    along its word and converted once.  A tile g is kept when
    ``dist_to_domain(model, g.inverse().apply(center))`` is at most
    radius + 1e-9; the identity's inverse maps center to center + 0.0
    bit for bit (a real part -0.0 comes out 0.0), which its tile tests.
    Deep centers make the tile count explode along the cusp, which trips
    the budget MAX_TILES.  ``dist_to_closed_geodesic`` asks for the
    reach its point's own tile bounds, mostly a few thousandths, so that
    for nearly every point the identity is the only tile kept.

    Most candidates are rejected before their word is joined.  The
    search carries each kept tile's point w = g^-1(center), and the
    candidate across side i has the point ``side.pairing.apply(w)``.
    The pairing maps the polygon's side of line i onto the far side of
    its partner's line, isometrically, so that point lies as far beyond
    the partner's line as w lies inside line i: the sinh of that
    distance is w's signed distance d_i.  The polygon lies on the inner
    side of the partner's line, so a candidate with d_i above
    sinh(radius) lies more than radius from the polygon.  Widened by
    _HALF_PLANE_SLACK, the bound rejects only candidates the exact test
    rejects too.  Such a candidate's word is never kept, so leaving it
    unseen changes no kept word's discoverer: the list is the one the
    exact test alone gives, in the same order.  The word may still be
    queued along another path, whose exact test drops it.
    """
    reach = radius + 1e-9
    ceiling = math.sinh(reach) * (1.0 + _HALF_PLANE_SLACK) \
        + _HALF_PLANE_SLACK
    seen = {""}
    out = []
    queue = deque([("", (1, 0, 0, 1), center)])
    while queue:
        word, m, w = queue.popleft()
        g = to_isometry(m)
        if dist_to_domain(model, g.inverse().apply(center) if word
                          else center + 0.0) > reach:
            continue
        out.append((word, g))
        if len(out) > MAX_TILES:
            raise RadiusTooSmall(
                f"radius {radius:.3g} ball around {center:.6g} exceeds "
                f"{MAX_TILES} tiles")
        for side, d in zip(model.sides, model.side_signed_dists(w)):
            if d > ceiling:
                continue
            partner = model.sides[side.partner]
            nw = join_reduced(word, partner.word)
            if nw in seen:
                continue
            seen.add(nw)
            queue.append((nw, mat_mul(m, partner.matrix),
                          side.pairing.apply(w)))
    return out


# A passage longer than _PIECE is split into equal pieces, one row each.
# A point gathers the rows of the bands of ln y, _BAND wide, that lie
# within reach, and in each band the x-slice that does.  Timed with
# _bounded on perfbench's torus-certify curves at seeds 1 and 3 (10^4
# passages, 2-core x86_64): pieces of 0.05 make 86k and 156k rows, built
# in 0.06 and 0.10 s.  Pieces of 0.025 bound 10 % faster but double the
# rows and the build (0.21 s at seed 3); pieces of 0.1 in bands of 0.05
# halve them and bound 5-8 % slower.  Bands from 0.01 to 0.1 wide move
# the time by 11 % at most.
_PIECE = 0.05
_BAND = 0.02
# The cut of the gather that finds the nearest midpoint, from which the
# default cut is taken; dist_to_closed_geodesic gathers a point's own
# tile at it first.  When that cut comes out no larger, the same gather
# serves the bounds: for 295 of torus-certify's 300 points at seed 1.
_NEAR_CUT = 0.01
# the columns of _Passages.fields
_MX, _MY, _MY4, _REACH, _C, _R, _SLACK = range(7)


class _Gathered(NamedTuple):
    """Gathered (point, row) pairs: the point's coordinates per pair (two
    plain floats for a single point, whose t is None), the point and row
    indices, the rows' fields and _Passages._q2 of each pair."""

    x: Any
    y: Any
    t: Any
    i: np.ndarray
    f: np.ndarray
    q2: np.ndarray


class _Passages:
    """A curve's passages as columns of pieces, one row per piece: the
    midpoint, the half-length, the carrying line (center or foot,
    radius, vertical flag) and the passage it belongs to.  A passage no
    longer than _PIECE is one row; a longer one is split into equal
    pieces, and a point's distance to it is bounded below by the
    smallest of its pieces' bounds.

    Each row also holds a slack for ``point_at``: on a line of radius r
    it rounds a point at height y along the line by up to about
    2e-15 r / y, at the midpoint and at the end ``dist_to_point`` may
    clamp to.  The slack is five times that at the piece's lowest
    height, which is at least my e^-h.  A row's reach is its
    half-length plus its slack.

    The rows are indexed by position: sorted by band of ln my, _BAND
    wide, then by mx.  Two points at heights y < y' lie at least
    ln(y'/y) apart, and a midpoint m within d of w has
    |mx - wx| <= 2 sqrt(wy my) sinh(d / 2).  So ``_gather`` finds every
    row whose midpoint may lie within cut + reach of a point by
    bisection on the bands near ln wy and on an x-slice in each, for a
    cusp at a finite vertex as for the one at infinity.  The few rows
    whose slack makes their reach exceed _PIECE / 2 by more than 1e-9,
    on lines of radius about 1e8, are kept apart and gathered for every
    point, so that they do not widen every gather.

    The row fields the bounds read, midpoint, reach, carrying line and
    slack, are the columns of one array, ``fields``, so that a gather
    takes them all at once.  The vertical flag is read only when the
    table has a vertical row.
    """

    def __init__(self, segments: list[GeodesicSegment]):
        self.segments = list(segments)
        cols = []
        for seg in self.segments:
            line = seg.line
            if math.isinf(seg.s0) or math.isinf(seg.s1):
                raise ValueError(f"passage {seg} has an infinite parameter")
            if line.is_vertical:
                # radius unused, kept finite
                cols.append((seg.s0, seg.s1, line.foot, 1.0, True, line.up))
            else:
                cols.append((seg.s0, seg.s1, line.center, line.radius, False,
                             line.pos_to_neg))
        s0, s1, c, r, vertical, flag = \
            np.array(cols, dtype=float).reshape(-1, 6).T
        vertical, flag = vertical.astype(bool), flag.astype(bool)
        k = np.maximum(1.0, np.ceil((s1 - s0) / _PIECE))
        count = k.astype(np.intp)
        n = np.arange(len(k)).repeat(count)
        j = np.arange(len(n)) - (np.cumsum(k) - k).repeat(count)
        k, s0, s1, c, r = k[n], s0[n], s1[n], c[n], r[n]
        vertical, flag = vertical[n], flag[n]
        # a passage of one piece keeps its midpoint parameter 0.5 (s0 + s1)
        # bit for bit
        s = ((2.0 * (k - j) - 1.0) * s0 + (2.0 * j + 1.0) * s1) / (2.0 * k)
        h = (s1 - s0) / (2.0 * k)
        # GeodesicLine.point_at over the rows, to an ulp or so: np.exp
        # may round otherwise than math.exp, which the slack covers
        t = np.exp(-np.abs(s))
        y = 2.0 * r * t / (1.0 + t * t)
        x = np.where((s <= 0.0) == flag, c + r - y * t, c - r + y * t)
        x = np.where(vertical, c, x)
        y = np.where(vertical, np.exp(np.where(flag, s, -s)), y)
        slack = np.where(vertical, 0.0,
                         1e-14 * r * np.exp(np.minimum(h, 700.0)) / y)
        reach = h + slack
        band = np.floor(np.log(y) / _BAND)
        # a piece of a passage of k * _PIECE has a half-length of
        # _PIECE / 2 to within rounding; 1e-9 more lets it stay indexed
        near = reach <= 0.5 * _PIECE + 1e-9
        rows = np.flatnonzero(near)
        rows = rows[np.lexsort((x[rows], band[rows]))]
        band = band[rows].astype(np.intp)
        rows = np.concatenate((rows, np.flatnonzero(~near)))
        self.passage = n[rows]
        self.fields = np.stack((x, y, 4.0 * y, reach, c, r, slack),
                               axis=1)[rows]
        self.slack = self.fields[:, _SLACK]
        self.vertical = vertical[rows]
        self.any_vertical = bool(self.vertical.any())
        indexed = len(band)
        self.xs = self.fields[:indexed, _MX].tolist()
        self.wide = list(range(indexed, len(rows)))
        self.max_reach = float(self.fields[:indexed, _REACH].max(initial=0.0))
        # band band0 + b holds rows starts[b] to starts[b + 1] - 1, whose
        # highest midpoint lies at height top[b]
        self.band0 = int(band[0]) if indexed else 0
        span = int(band[-1]) - self.band0 + 1 if indexed else 0
        self.starts = np.searchsorted(
            band, np.arange(self.band0, self.band0 + span + 1)).tolist()
        top = np.zeros(span)
        np.maximum.at(top, band - self.band0, self.fields[:indexed, _MY])
        self.top = top.tolist()

    def _every(self, m: int):
        """(point index, row index) arrays of every row for m points."""
        n = len(self.fields)
        return np.arange(m).repeat(n), np.tile(np.arange(n), m)

    def _gather(self, ws: list[complex], cut: float):
        """(point index, row index) arrays of the rows whose midpoint may
        lie within cut + reach of a point: in each band that may lie
        within cut plus the largest indexed reach of ln wy, the x-slice
        of that half-width, and every wide row.  The 1e-9 cover the
        rounding of the logs and of the midpoint bound, and the 1e-15 |wx|
        that of wx -+ half, so each row left out has a midpoint bound
        above cut."""
        reach = cut + self.max_reach + 1e-9
        sinh2 = 2.0 * math.sinh(0.5 * reach) * (1.0 + 1e-9)
        xs, starts, top = self.xs, self.starts, self.top
        counts, rows = [], []
        for w in ws:
            start = len(rows)
            log_y = math.log(w.imag)
            lo = math.floor((log_y - reach) / _BAND) - self.band0
            hi = math.floor((log_y + reach) / _BAND) - self.band0
            for b in range(max(lo, 0), min(hi + 1, len(top))):
                half = math.sqrt(w.imag * top[b]) * sinh2 \
                    + 1e-15 * abs(w.real)
                a = bisect.bisect_left(xs, w.real - half, starts[b],
                                       starts[b + 1])
                e = bisect.bisect_right(xs, w.real + half, a, starts[b + 1])
                rows += range(a, e)
            rows += self.wide
            counts.append(len(rows) - start)
        return np.arange(len(ws)).repeat(counts), \
            np.array(rows, dtype=np.intp)

    def _q2(self, x, y, f):
        """sinh(d(w, midpoint) / 2)^2 for the points (x, y) and the rows
        of fields f."""
        dx = x - f[:, _MX]
        dy = y - f[:, _MY]
        return (dx * dx + dy * dy) / (y * f[:, _MY4])

    def _rows(self, ws: list[complex], t, i) -> _Gathered:
        """The pairs (t, i) of the points ws, their rows' fields indexed
        once."""
        if len(ws) == 1:
            x, y, t = ws[0].real, ws[0].imag, None
        else:
            x = np.array([w.real for w in ws])[t]
            y = np.array([w.imag for w in ws])[t]
        f = self.fields.take(i, axis=0)
        return _Gathered(x, y, t, i, f, self._q2(x, y, f))

    def _near(self, ws: list[complex]) -> _Gathered:
        """The rows gathered at cut _NEAR_CUT, or every row when that
        gathers none."""
        rows = self._rows(ws, *self._gather(ws, _NEAR_CUT))
        if not len(rows.i):
            rows = self._rows(ws, *self._every(len(ws)))
        return rows

    @staticmethod
    def _default_cut(rows: _Gathered) -> float:
        """d(w, midpoint) + slack at the nearest midpoint of the rows,
        with a 1e-9 relative slack and twice DIST_TOL added; inf when
        there is no row."""
        if not len(rows.i):
            return math.inf
        k = int(rows.q2.argmin())
        upper = 2.0 * math.asinh(math.sqrt(rows.q2[k])) \
            + float(rows.f[k, _SLACK])
        return upper * (1.0 + 1e-9) + 2.0 * DIST_TOL

    def _bounded(self, ws: list[complex], cut: float):
        """(lower bound, point index, passage index) of each pair whose
        lower bound on the distance is at most cut, one per pair, in no
        particular order.

        A piece's lower bound is the larger of d(w, midpoint) -
        half-length - slack and the distance to the carrying line; the
        pair's is the smallest over its pieces, and exceeds its computed
        ``dist_to_point`` by at most DIST_TOL.  Only the rows ``_gather``
        returns at cut are bounded; the midpoint bound rules out every
        other one.  Every gathered piece has its bound formed, and one
        mask keeps those at most the cut: over some 80 rows a NumPy call
        costs more than the elements it runs.
        """
        if not ws or not self.segments:
            return []
        return self._bound(self._rows(ws, *self._gather(ws, cut)), cut)

    def _bound(self, rows: _Gathered, cut: float):
        """_bounded's pairs from rows gathered at cut or wider."""
        x, y, t, i, f, q2 = rows
        c, r = f[:, _C], f[:, _R]
        # sinh of the distance to the line, r^2 - (x - c)^2 formed
        # without cancellation
        sinh_line = np.abs(y * y - _sq_gap(r, x, c)) / (2.0 * r * y)
        if self.any_vertical:
            sinh_line = np.where(self.vertical[i], np.abs(x - c) / y,
                                 sinh_line)
        bound = np.maximum(2.0 * np.arcsinh(np.sqrt(q2)) - f[:, _REACH],
                           np.arcsinh(sinh_line))
        keep = np.flatnonzero(bound <= cut)
        # the smallest piece bound of each (point, passage) pair
        n = len(self.segments)
        pairs = self.passage[i[keep]]
        if t is not None:
            pairs = t[keep] * n + pairs
        least = {}
        for pair, b in zip(pairs.tolist(), bound[keep].tolist()):
            if b < least.get(pair, math.inf):
                least[pair] = b
        return [(b, *divmod(pair, n)) for pair, b in least.items()]


_memo: _Passages | None = None


def _passages(segments: list[GeodesicSegment]) -> _Passages:
    """The table of the last curve asked for, rebuilt when the list no
    longer holds the same passages.  The table keeps its own copy of the
    list, so a passage replaced in place is seen; list equality tests
    identity first, which makes the check a C loop over the pointers."""
    global _memo
    table = _memo
    if table is None or table.segments != segments:
        table = _memo = _Passages(segments)
    return table


# How far past the best distance so far a lower bound must lie to end
# the scan of dist_to_closed_geodesic: the bound's own error, DIST_TOL,
# and the rounding of its asinh, a few ulps, with room to spare.
_STOP_MARGIN = 4.0 * DIST_TOL


def dist_to_closed_geodesic(model: SurfaceModel, z: complex,
                            segments: list[GeodesicSegment],
                            radius: float) -> float:
    """Certified distance from a point within radius of the polygon to a
    closed geodesic.

    The geodesic is given by its polygon passages.  Every lift passing
    within the radius runs through some tile of the ball, so the minimum
    over ball tiles is exact whenever it is at most the radius; a larger
    minimum only certifies a lower bound, which is reported by raising
    RadiusTooSmall.  A z that is not a point of the half-plane (not
    finite, or Im z <= 0) is refused first with ValueError.  A point
    farther than the radius from the polygon has no tile in its ball and
    raises ValueError: the curve may pass through it.  A passage with an
    infinite parameter raises ValueError as well.

    Every point is bounded from its own tile first, in the polygon or
    not.  Its rows gathered at _NEAR_CUT, or every row when that gathers
    none, give the cut ``_Passages._default_cut``: an upper bound on the
    nearest midpoint's distance with a 1e-9 relative slack and 2
    DIST_TOL added (inf for an empty curve), so that nearest pair
    computes at most cut - DIST_TOL.  The ball then reaches only
    min(radius, cut + DIST_TOL).  A tile it leaves out has a computed
    dist_to_domain above cut + DIST_TOL + 1e-9, so its point lies more
    than cut + 1e-9 from the polygon, and every lift there, a passage of
    the polygon, computes above cut - DIST_TOL: above that nearest pair,
    whose computed distance is at least the minimum.  So the smaller
    ball has the full ball's minimum.  Its identity tile is kept unless
    the reach is the radius: z lies within cut of that nearest passage,
    in the polygon, so z's computed dist_to_domain is at most cut +
    DIST_TOL.  The ball holds z's tile alone for nearly every point;
    then, when the cut is at most _NEAR_CUT, the pairs are bounded from
    the rows already gathered.  Otherwise every tile's image of z is
    bounded at the cut.  A point so deep in a cusp that the full ball
    would exceed MAX_TILES is certified when the smaller one does not.

    The minimum over tiles and passages of ``dist_to_point`` is taken
    over the pairs ``_Passages._bounded`` keeps at that cut, best first:
    in increasing lower bound, up to the first bound above the best so
    far by more than _STOP_MARGIN.  Up to DIST_TOL, each pair's lower
    bound is below its computed distance, and some pair's computed
    distance is below the cut, so every pair left out has a computed
    distance above the best: the result is the minimum over all pairs
    of the full ball bit for bit, in the 0 returned early and in the
    RadiusTooSmall message alike.  Which of two equal bounds is walked
    first does not change that minimum.  The table behind the bounds,
    the passages' pieces indexed by position, is built once per curve
    and kept for the next call with the same passages.

    Neither shortcut inside the two steps changes the result: ``ball``'s
    half-plane bound drops only tiles its exact test drops, and the
    gather of ``_bounded`` leaves out only pieces its midpoint bound
    rules out.
    """
    # refused before the gather takes log(Im z)
    if not (z.imag > 0.0 and math.isfinite(z.real)
            and math.isfinite(z.imag)):
        raise ValueError(f"cannot certify {z}: not a point of the "
                         "half-plane")
    # the first tile is the identity, whose inverse maps z to z + 0.0
    ws = [z + 0.0]
    table = _passages(segments)
    own = table._near(ws)
    cut = table._default_cut(own)
    tiles = ball(model, z, min(radius, cut + DIST_TOL))
    if not tiles:
        raise ValueError(
            f"{z:.6g} lies {dist_to_domain(model, z):.6g} from the polygon, "
            f"farther than the radius {radius:.6g}")
    if len(tiles) == 1 and cut <= _NEAR_CUT:
        pairs = table._bound(own, cut)
    else:
        ws += [g.inverse().apply(z) for _, g in tiles[1:]]
        pairs = table._bounded(ws, cut)
    best = math.inf
    for b, k, p in sorted(pairs):
        if b > best + _STOP_MARGIN:
            break
        best = min(best, segments[p].dist_to_point(ws[k]))
        if best == 0.0:
            return 0.0
    if best > radius:
        raise RadiusTooSmall(
            f"geodesic stays farther than {radius:.6g} from {z:.6g} "
            f"(best lift at {best:.6g})")
    return best
