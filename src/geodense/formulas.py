"""Closed-form bounds used by the densification pipeline.

Every function here is a plain formula in the surface constants and the
density parameters.  The geometric facts they encode are checked against
independent constructions in the test suite; nothing in this module does
any searching or iteration.

Conventions:
  theta0   minimal good-crossing angle, in (0, pi/2]
  eps      density parameter
  xi       truncation parameter (horocycles of length xi bound the thick part)
  The "deep" horocycle at a cusp is the one lying at distance
  clearance(eps, theta0) below the xi-horocycle.
"""

from __future__ import annotations

import math

E = math.e


def _check_angle(theta0: float) -> None:
    if not 0.0 < theta0 <= math.pi / 2:
        raise ValueError(f"angle out of range (0, pi/2]: {theta0}")


def disjointness_threshold(theta0: float) -> float:
    """Separation along a geodesic beyond which two crossing lines at
    angle >= theta0 on opposite sides cannot meet.

    Equals 2*log(cot(theta0/2)).  Two geodesics crossing a third at
    angle exactly theta0, mirrored at separation u, intersect each
    other exactly when u is below this value.
    """
    _check_angle(theta0)
    return 2.0 * math.log(1.0 / math.sin(theta0)) + 2.0 * math.log(1.0 + math.cos(theta0))


def clearance(eps: float, theta0: float) -> float:
    """Distance kept between an arc endpoint and the supporting crossings.

    log(1/eps) + log(2e/sin(theta0)).  Always at least
    disjointness_threshold(theta0)/2 + 1 when eps <= 1, which is what
    the two-sided disjointness argument needs.
    """
    _check_angle(theta0)
    if eps <= 0:
        raise ValueError(f"eps must be positive: {eps}")
    return math.log(1.0 / eps) + math.log(2.0 * E / math.sin(theta0))


def deep_horocycle_length(eps: float, xi: float, theta0: float) -> float:
    """Length of the deep horocycle: xi * exp(-clearance)."""
    _check_angle(theta0)
    return eps * xi * math.sin(theta0) / (2.0 * E)


def deep_entry_angle(eps: float, xi: float, theta0: float) -> float:
    """Entry angle threshold at the deep horocycle.

    With H the chart height of the deep horocycle, the threshold is
    arccos(2H/(H^2+1)): the angle at which a geodesic meets the
    horocycle {y=H} one chart unit away from its own ideal endpoint.
    The rerouting construction introduces geodesics that meet the deep
    horocycle at exactly this angle.
    """
    s = deep_horocycle_length(eps, xi, theta0)  # = 1/H
    return math.acos(2.0 * s / (1.0 + s * s))


def max_traverse(d: float, psi: float) -> float:
    """Longest chord with endpoints within distance d below a horocycle
    that meets the horocycle at angle at most psi.

    arccosh(2 e^{2d} / cos^2(psi) - 1).  The extreme chord runs from i
    to 2A+i with A^2+1 = (e^d/cos psi)^2 against the horocycle {y=e^d}.
    """
    if not 0.0 <= psi < math.pi / 2:
        raise ValueError(f"entry angle out of range [0, pi/2): {psi}")
    if d < 0:
        raise ValueError(f"depth must be nonnegative: {d}")
    c = math.cos(psi)
    return math.acosh(2.0 * math.exp(2.0 * d) / (c * c) - 1.0)


def quad_half_width(psi: float, u: float) -> float:
    """Half-width of the bridging quadrilateral between two horocycles
    at gap u whose geodesic sides leave both horocycles at angle psi.

    sqrt(tan^2 psi + e^{-u} + 1) - tan psi.  The horocyclic sides of
    the quadrilateral have length twice this value.
    """
    if not 0.0 <= psi < math.pi / 2:
        raise ValueError(f"entry angle out of range [0, pi/2): {psi}")
    if u <= 0:
        raise ValueError(f"horocycle gap must be positive: {u}")
    t = math.tan(psi)
    return math.sqrt(t * t + math.exp(-u) + 1.0) - t


def quad_entry_angle(half_width: float, u: float) -> float:
    """Inverse of quad_half_width in its first argument."""
    if half_width <= 0:
        raise ValueError(f"half width must be positive: {half_width}")
    t = (1.0 + math.exp(-u) - half_width * half_width) / (2.0 * half_width)
    return math.atan(t)


def transversal_limit_angle(r: float, theta0: float) -> float:
    """Angle of the limiting ray in the two-crossing configuration.

    For a crossing at angle theta0 at distance r along a geodesic, the
    ray from the near endpoint to the far ideal endpoint of the
    crossing line makes this angle with the geodesic:
    cos(theta) = (tanh r - cos theta0) / (1 - tanh r cos theta0).
    """
    _check_angle(theta0)
    t = math.tanh(r)
    c = math.cos(theta0)
    return math.acos((t - c) / (1.0 - t * c))


def class_a_extension_bound(diam: float, cusp_reach: float, eps: float, xi: float,
                            theta0: float) -> float:
    """Cap on the extension needed to find a good crossing when every
    deep-horocycle excursion along the way enters at a steep angle.

    2*diam + 2*cusp_reach + 2 + 4*log(2e/(eps*xi*sin theta0)), where
    diam bounds chord lengths inside faces of the base decomposition and
    cusp_reach the distance from face boundaries to the unit horocycles.
    """
    _check_angle(theta0)
    return (2.0 * diam + 2.0 * cusp_reach + 2.0
            + 4.0 * math.log(2.0 * E / (eps * xi * math.sin(theta0))))


def ba_extra_extension(eps: float, xi: float, theta0: float, base_len: float) -> float:
    """Additional extension allowance per direction after rerouting an
    arc whose forward continuation dives deep into a cusp on one side:
    the reroute displaces endpoints by at most the deep horocycle
    length and may need to pass one more closed-curve crossing."""
    return 2.0 * deep_horocycle_length(eps, xi, theta0) + 2.0 * base_len


def arc_budget(diam: float, cusp_reach: float, theta0: float, base_len: float) -> float:
    """eps- and xi-independent part of the per-arc length overhead."""
    _check_angle(theta0)
    return (4.0 * diam + 4.0 * cusp_reach + 4.0
            + 10.0 * math.log(2.0 * E / math.sin(theta0))
            + math.sin(theta0) / E + 2.0 * base_len)


def per_arc_budget(diam: float, cusp_reach: float, theta0: float, base_len: float) -> float:
    """arc_budget plus the worst-case connecting detour along the base
    curve between consecutive arcs."""
    return arc_budget(diam, cusp_reach, theta0, base_len) + 2.0 * base_len


def replaced_arc_length_bound(arc_len: float, eps: float, xi: float,
                              budget: float) -> float:
    """Length cap for one processed arc: original length plus
    10*log(1/eps) + 8*log(1/xi) plus the arc budget."""
    return arc_len + 10.0 * math.log(1.0 / eps) + 8.0 * math.log(1.0 / xi) + budget


def bb_u_bracket(eps: float, xi: float, theta0: float, arc_len: float,
                 base_len: float, cusp_reach: float) -> tuple[float, float]:
    """Admissible range for the horocycle gap in the two-sided reroute."""
    s = deep_horocycle_length(eps, xi, theta0)
    lo = 2.0 * math.log(2.0 / s)
    hi = (arc_len + 2.0 * clearance(eps, theta0) + 2.0 * s + 2.0 * base_len
          + 2.0 * (cusp_reach + math.log(1.0 / s)))
    return lo, hi


def bb_v_bracket(eps: float, xi: float, theta0: float,
                 cusp_reach: float) -> tuple[float, float]:
    """Admissible range for the distance from a reroute endpoint to the
    nearest endpoint of the geodesic side of the bridging
    quadrilateral, measured along the rerouted line."""
    psi = deep_entry_angle(eps, xi, theta0)
    s = deep_horocycle_length(eps, xi, theta0)
    half = 0.5 * math.log((1.0 + math.sin(psi)) / (1.0 - math.sin(psi)))
    lo = math.log(1.0 / s) + 2.0 * half
    d = cusp_reach + math.log(1.0 / s)
    hi = 0.5 * max_traverse(d, psi) + half
    return lo, hi


def seed_count_bound(genus: int, cusps: int, eps: float, perimeter: float) -> float:
    """Upper bound on the number of seed arcs: cusps * (perimeter/eps + 4g + 2n)."""
    return cusps * (perimeter / eps + 4.0 * genus + 2.0 * cusps)


def seed_length_bound(perimeter: float, xi: float) -> float:
    """Length cap for one seed arc: half the core perimeter plus the
    climb from the xi-horocycle to the 2-horocycle."""
    return perimeter / 2.0 + math.log(2.0 / xi)


def connection_bound(n_arcs: int, mean_arc_len: float, eps: float, xi: float,
                     budget: float) -> float:
    """Length bound for the closed geodesic built from n_arcs arcs of
    mean length mean_arc_len at parameters (eps, xi)."""
    return n_arcs * (budget + mean_arc_len + 10.0 * math.log(1.0 / eps)
                     + 8.0 * math.log(1.0 / xi))


def display_bound(genus: int, cusps: int, eps: float, xi: float, perimeter: float,
                  budget: float) -> float:
    """End-to-end length bound for the eps-dense closed geodesic, with
    the internal machinery run at eps/4."""
    n_arcs = seed_count_bound(genus, cusps, eps, perimeter)
    per_arc = (budget + seed_length_bound(perimeter, xi)
               + math.log(2.0 / xi) + 10.0 * math.log(2.0 / eps)
               + 8.0 * math.log(1.0 / xi))
    return n_arcs * per_arc


def normalized_length_constant(display: float, eps: float, xi: float) -> float:
    """Length constant normalized so a single number can be compared
    across parameter sweeps: display * eps / (log(1/eps) + log(1/xi) + 1)."""
    return display * eps / (math.log(1.0 / eps) + math.log(1.0 / xi) + 1.0)

