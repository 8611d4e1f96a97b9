"""Deck group enumeration and certified distances.

The deck groups of the catalog surfaces are free, so freely reduced
words identify group elements exactly and breadth-first search over the
side pairings enumerates tiles without numerical dedup.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np

from .errors import RadiusTooSmall
from .halfplane import GeodesicSegment, Isometry
from .surface import SurfaceModel
from .words import join_reduced

# How far GeodesicSegment.dist_to_point may sit from the true distance,
# besides the slack of _Passages: acosh(1 + x) rounds distances under
# about 2e-8 to 0.
DIST_TOL = 1e-7


def dist_to_domain(model: SurfaceModel, z: complex) -> float:
    """Distance from z to the closed fundamental polygon.

    Zero inside; outside, the nearest boundary point lies on one of the
    side segments because the polygon is convex.
    """
    if model.inside(z):
        return 0.0
    best = math.inf
    for side in model.sides:
        best = min(best, side.segment.dist_to_point(z))
    return best


# How far ball's half-plane bound is widened, in sinh units.  It covers
# three errors: dist_to_point's own, at most DIST_TOL; the drift of the
# point the search carries from the point the exact test computes, at
# most 6.3e-12 times 1 + |sinh| on either surface over 300 centers up to
# height 3,000 and balls of up to 3,000 tiles; and the rounding of
# signed_sinh_dist, a few ulps for the polygon's unit-size sides.
# Widening the sinh s to s (1 + d) + d moves its asinh up by about d at
# least, and 2 DIST_TOL leaves room over the three.
_HALF_PLANE_SLACK = 2.0 * DIST_TOL


def ball(model: SurfaceModel, center: complex, radius: float,
         max_tiles: int = 20000) -> list[tuple[str, Isometry]]:
    """All deck elements whose tile meets the disk around center.

    Returned as (word, isometry) pairs in breadth-first order starting
    with the identity.  A tile g is kept when
    ``dist_to_domain(model, g.inverse().apply(center))`` is at most
    radius + 1e-9.  Deep centers make the tile count explode along the
    cusp, which trips the budget.

    Most candidates are rejected before their element is built.  The
    search carries each tile's point w = g^-1(center), so a candidate
    across a side has the point ``side.pairing.apply(w)``, which lies
    beyond the partner side's line when w lies in the polygon.  The
    polygon lies on the inner side of that line, so a point more than
    radius beyond it is more than radius from the polygon.  Widened by
    _HALF_PLANE_SLACK, the bound rejects only candidates the exact test
    rejects too, so the list is the one the exact test alone gives, in
    the same order.
    """
    reach = radius + 1e-9
    floor = -(math.sinh(reach) * (1.0 + _HALF_PLANE_SLACK)
              + _HALF_PLANE_SLACK)
    seen = {""}
    out = []
    queue = deque([("", Isometry.identity(), center)])
    while queue:
        word, g, w = queue.popleft()
        if dist_to_domain(model, g.inverse().apply(center)) > reach:
            continue
        out.append((word, g))
        if len(out) > max_tiles:
            raise RadiusTooSmall(
                f"radius {radius:.3g} ball around {center:.6g} exceeds "
                f"{max_tiles} tiles")
        for side in model.sides:
            partner = model.sides[side.partner]
            nw = join_reduced(word, partner.word)
            if nw in seen:
                continue
            seen.add(nw)
            v = side.pairing.apply(w)
            if partner.line.signed_sinh_dist(v) < floor:
                continue
            queue.append((nw, g @ side.inverse_pairing, v))
    return out


class _Passages:
    """A curve's passages as columns, one row per passage: the midpoint,
    the half-length and the carrying line (center or foot, radius,
    vertical flag).

    Each row also holds a slack for ``point_at``: on a line of radius r
    it rounds a point at height y along the line by up to about
    2e-15 r / y, at the midpoint and at the end ``dist_to_point`` may
    clamp to.  The slack is five times that at the passage's lowest
    height, which is at least my e^-h.

    The rows are sorted by the log of a lower bound on the passage's
    height, ln my - h - slack: a point h along the passage from its
    midpoint lies at most a factor e^h lower.  Two points at heights
    y < y' lie at least ln(y'/y) apart, so a passage whose bound lies
    higher than e^cut times the highest query point is more than cut
    from every query point.  ``near`` bounds only the rows below that
    height, its window.  The window prunes the cusp at infinity only: a
    passage high in a cusp at a finite vertex lies low in the polygon.

    A passage with an infinite parameter has no midpoint; its row gets
    the midpoint at infinity and an infinite half-length, so its height
    bound is 0, it sits in every window and ``near`` always keeps it.
    """

    def __init__(self, segments: list[GeodesicSegment]):
        self.segments = list(segments)
        rows = []
        for seg in self.segments:
            line = seg.line
            if math.isinf(seg.s0) or math.isinf(seg.s1):
                m, h, slack = complex(math.inf, 1.0), math.inf, 0.0
            else:
                m = line.point_at(0.5 * (seg.s0 + seg.s1))
                h = 0.5 * (seg.s1 - seg.s0)
                slack = 0.0 if line.is_vertical else \
                    1e-14 * line.radius * math.exp(min(h, 700.0)) / m.imag
            if line.is_vertical:
                c, r = line.foot, 1.0      # r unused, kept finite
            else:
                c, r = line.center, line.radius
            rows.append((m.real, m.imag, h + slack, slack, c, r,
                         line.is_vertical))
        cols = np.array(rows, dtype=float).reshape(-1, 7).T
        low = np.log(cols[1]) - cols[2]
        self.order = np.argsort(low, kind="stable")
        self.low = low[self.order].tolist()
        cols = cols[:, self.order]
        self.mx, self.my, self.reach, self.slack, self.c, self.r = cols[:6]
        self.my4 = 4.0 * self.my
        self.cosh_reach2 = np.cosh(0.5 * self.reach)
        self.sinh_reach2 = np.sinh(0.5 * self.reach)
        self.vertical = cols[6].astype(bool)
        self.unbounded = np.isinf(self.reach)

    def _window(self, log_top: float, cut: float) -> int:
        """The number of rows whose height bound is at most e^cut times
        e^log_top; the rows after them are more than cut from every point
        no higher than e^log_top.  The 1e-9 covers the rounding of the
        logs, so the bounds of ``near`` rule out every row left out."""
        return bisect.bisect_right(self.low, log_top + cut + 1e-9)

    def _q2(self, wx, wy, lo: int, hi: int):
        """sinh(d(w, midpoint) / 2)^2 for rows lo to hi."""
        dx = wx - self.mx[lo:hi]
        dy = wy - self.my[lo:hi]
        return (dx * dx + dy * dy) / (wy * self.my4[lo:hi])

    def near(self, ws: list[complex], cut: float | None = None):
        """(point index, passage index) lists of the pairs whose lower
        bound on the distance is at most cut, in point-major order.

        The lower bound is the larger of d(w, midpoint) - half-length -
        slack and the distance to the carrying line (-inf for a passage
        with an infinite parameter); it exceeds the pair's computed
        ``dist_to_point`` by at most DIST_TOL.  The default cut is the
        smallest upper bound, d(w, midpoint) + slack at the nearest
        midpoint, with a 1e-9 relative slack and twice DIST_TOL added.
        Both bounds are compared in sinh form, so no transcendental
        function runs per pair but for the pairs kept, whose bounds
        ``_bounded`` returns in distance units.  Tests pass a cut of
        their own.

        Only the rows in the height window of cut are bounded.  A row
        above it has its midpoint farther than cut + half-length + slack
        from every point, so the midpoint bound would rule it out.  The
        default cut is first found over the window of cut 0 (over the
        lowest row when that window is empty), and the window is widened
        to the cut found until it holds it.  A row left out is then
        farther from every point than the nearest midpoint in the
        window, so that midpoint is the nearest of all: the cut, and the
        pairs kept, are those of a scan over every row.
        """
        n = len(self.segments)
        t, i, _ = self._bounded(ws, cut)
        t, i = np.divmod(np.sort(t * n + i), n)
        return t.tolist(), i.tolist()

    def _bounded(self, ws: list[complex], cut: float | None = None):
        """The pairs ``near`` keeps, as arrays of point index, passage
        index and lower bound, in no particular order."""
        if not ws or not self.segments:
            none = np.zeros(0, dtype=np.intp)
            return none, none, np.zeros(0)
        wx = np.array([w.real for w in ws])[:, None]
        wy = np.array([w.imag for w in ws])[:, None]
        log_top = math.log(max(w.imag for w in ws))
        if cut is None:
            j = max(1, self._window(log_top, 0.0))
            q2 = self._q2(wx, wy, 0, j)
            while True:
                # the first passage among exact ties, as a scan of every
                # row in passage order picks it
                t, k = divmod(int(q2.argmin()), j)
                ties = np.flatnonzero(q2[t] == q2[t, k])
                k = ties[self.order[ties].argmin()]
                upper = 2.0 * math.asinh(math.sqrt(q2[t, k])) + self.slack[k]
                cut = upper * (1.0 + 1e-9) + 2.0 * DIST_TOL
                wider = self._window(log_top, cut)
                if wider <= j:
                    break
                q2 = np.hstack((q2, self._q2(wx, wy, j, wider)))
                j = wider
        else:
            j = self._window(log_top, cut)
            q2 = self._q2(wx, wy, 0, j)
        # d(w, m) - reach <= cut  <=>  q2 <= sinh((cut + reach) / 2)^2
        cap = math.sinh(0.5 * cut) * self.cosh_reach2[:j] \
            + math.cosh(0.5 * cut) * self.sinh_reach2[:j]
        t, i = np.divmod(np.flatnonzero(q2 <= cap * cap), j)
        # sinh of the distance to the line through (|d| - r)(|d| + r)
        # with d = wx - c split exactly, as halfplane._sq_gap does
        x, c, r = wx[t, 0], self.c[i], self.r[i]
        y = wy[t, 0]
        d = x - c
        bb = x - d
        e = (x - (d + bb)) + (bb - c)
        e = np.where(d < 0.0, -e, e)
        d = np.abs(d)
        sinh_line = np.abs(y * y - ((r - d) - e) * ((r + d) + e)) \
            / (2.0 * r * y)
        sinh_line = np.where(self.vertical[i], d / y, sinh_line)
        keep = (sinh_line <= math.sinh(cut)) | self.unbounded[i]
        t, i, sinh_line = t[keep], i[keep], sinh_line[keep]
        # an unbounded row's midpoint term would be inf - inf
        bounded = ~self.unbounded[i]
        mid = np.subtract(2.0 * np.arcsinh(np.sqrt(q2[t, i])), self.reach[i],
                          out=np.full(len(i), -np.inf), where=bounded)
        bound = np.where(bounded, np.maximum(mid, np.arcsinh(sinh_line)),
                         -np.inf)
        return t, self.order[i], bound


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
    RadiusTooSmall.  A point farther than the radius from the polygon
    has no tile in its ball and raises ValueError: the curve may pass
    through it.

    The minimum over tiles and passages of ``dist_to_point`` is taken
    over the pairs ``_Passages.near`` keeps, best first: in increasing
    lower bound (ties by point, then passage), up to the first bound
    above the best so far by more than _STOP_MARGIN.  Up to DIST_TOL,
    each pair's lower bound is below its computed distance, and the
    smallest computed distance is below near's cut, so every pair left
    out has a computed distance above the best: the result is the
    minimum over all pairs bit for bit, in the 0 returned early and in
    the RadiusTooSmall message alike.  The table behind the bounds is
    built once per curve and kept for the next call with the same
    passages.

    Neither shortcut behind the two steps changes the result: ``ball``'s
    half-plane bound drops only tiles its exact test drops, and the
    height window of ``near`` leaves out only passages its midpoint
    bound rules out, after the cut has been found over all of them.
    """
    ws = [g.inverse().apply(z) for _, g in ball(model, z, radius)]
    if not ws:
        raise ValueError(
            f"{z:.6g} lies {dist_to_domain(model, z):.6g} from the polygon, "
            f"farther than the radius {radius:.6g}")
    best = math.inf
    t, i, bound = _passages(segments)._bounded(ws)
    order = np.lexsort((i, t, bound))
    for b, k, p in zip(bound[order].tolist(), t[order].tolist(),
                       i[order].tolist()):
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
