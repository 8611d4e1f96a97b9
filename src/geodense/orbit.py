"""Deck group enumeration and certified distances.

The deck groups of the catalog surfaces are free, so freely reduced
words identify group elements exactly and breadth-first search over the
side pairings enumerates tiles without numerical dedup.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import RadiusTooSmall
from .halfplane import GeodesicSegment, Isometry
from .surface import SurfaceModel
from .words import free_reduce

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


def ball(model: SurfaceModel, center: complex, radius: float,
         max_tiles: int = 20000) -> list[tuple[str, Isometry]]:
    """All deck elements whose tile meets the disk around center.

    Returned as (word, isometry) pairs in breadth-first order starting
    with the identity.  Deep centers make the tile count explode along
    the cusp, which trips the budget.
    """
    seen = {""}
    out = []
    queue = deque([("", Isometry.identity())])
    while queue:
        word, g = queue.popleft()
        if dist_to_domain(model, g.inverse().apply(center)) > radius + 1e-9:
            continue
        out.append((word, g))
        if len(out) > max_tiles:
            raise RadiusTooSmall(
                f"radius {radius:.3g} ball around {center:.6g} exceeds "
                f"{max_tiles} tiles")
        for side in model.sides:
            partner = model.sides[side.partner]
            nw = free_reduce(word + partner.word)
            if nw in seen:
                continue
            seen.add(nw)
            queue.append((nw, g @ side.inverse_pairing))
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

    A passage with an infinite parameter has no midpoint; its row gets
    the midpoint at infinity and an infinite half-length, and ``near``
    always keeps it.
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
        self.mx, self.my, reach, self.slack, self.c, self.r = cols[:6]
        self.my4 = 4.0 * self.my
        self.cosh_reach2 = np.cosh(0.5 * reach)
        self.sinh_reach2 = np.sinh(0.5 * reach)
        self.vertical = cols[6].astype(bool)
        self.unbounded = np.isinf(reach)

    def near(self, ws: list[complex], cut: float | None = None):
        """(point index, passage index) lists of the pairs whose lower
        bound on the distance is at most cut, in point-major order.

        The lower bound is the larger of d(w, midpoint) - half-length -
        slack and the distance to the carrying line.  The default cut is
        the smallest upper bound, d(w, midpoint) + slack at the nearest
        midpoint, with a 1e-9 relative slack and twice DIST_TOL added.
        Both bounds are compared in sinh form, so no transcendental
        function runs per pair.  Tests pass a cut of their own.
        """
        wx = np.array([w.real for w in ws])[:, None]
        wy = np.array([w.imag for w in ws])[:, None]
        # q2 = sinh(d(w, midpoint) / 2)^2
        dx = wx - self.mx
        dy = wy - self.my
        q2 = (dx * dx + dy * dy) / (wy * self.my4)
        n = len(self.segments)
        if cut is None:
            k = int(q2.argmin())
            upper = 2.0 * math.asinh(math.sqrt(q2.flat[k])) + self.slack[k % n]
            cut = upper * (1.0 + 1e-9) + 2.0 * DIST_TOL
        # d(w, m) - reach <= cut  <=>  q2 <= sinh((cut + reach) / 2)^2
        cap = math.sinh(0.5 * cut) * self.cosh_reach2 \
            + math.cosh(0.5 * cut) * self.sinh_reach2
        t, i = np.divmod(np.flatnonzero(q2 <= cap * cap), n)
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
        return t[keep].tolist(), i[keep].tolist()


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


def dist_to_closed_geodesic(model: SurfaceModel, z: complex,
                            segments: list[GeodesicSegment],
                            radius: float) -> float:
    """Certified distance from a polygon point to a closed geodesic.

    The geodesic is given by its polygon passages.  Every lift passing
    within the radius runs through some tile of the ball, so the minimum
    over ball tiles is exact whenever it is at most the radius; a larger
    minimum only certifies a lower bound, which is reported by raising
    RadiusTooSmall.

    The minimum over tiles and passages of ``dist_to_point`` is taken
    over a subset of the pairs: those whose lower bound is at most the
    smallest upper bound over all pairs (``_Passages.near``).  Up to
    DIST_TOL, each pair's lower bound is below its computed distance and
    the smallest computed distance is below that upper bound, so the
    subset holds the argmin, and the result equals the minimum over all
    pairs bit for bit, in the 0 returned early and in the RadiusTooSmall
    message alike.  The table behind the bounds is built once per curve
    and kept for the next call with the same passages.
    """
    ws = [g.inverse().apply(z) for _, g in ball(model, z, radius)]
    best = math.inf
    if ws and segments:
        for t, i in zip(*_passages(segments).near(ws)):
            best = min(best, segments[i].dist_to_point(ws[t]))
            if best == 0.0:
                return 0.0
    if best > radius:
        raise RadiusTooSmall(
            f"geodesic stays farther than {radius:.6g} from {z:.6g} "
            f"(best lift at {best:.6g})")
    return best
