"""Independent numeric oracles for the geometric bounds.

Each function here re-derives a claim of the construction by direct
sampling or brute force, without reusing the formulas under test.  The
oracles are deliberately slow and simple; the test suite runs them at
fixed seeds, and every report carries enough of the sampled parameters
to replay a violation.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import Face, boundary_chain, chain_edges
from .formulas import (
    clearance,
    disjointness_threshold,
    max_traverse,
    quad_half_width,
    transversal_limit_angle,
)
from .halfplane import (
    GeodesicLine,
    GeodesicSegment,
    Horocycle,
    angle_with_horocycle,
    dist,
    folded_angle,
    line_horocycle_crossings,
    lines_cross,
    segments_cross,
)

HALF_PI = math.pi / 2
# slack every oracle allows a checked inequality for rounding
_TOL = 1e-9


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


@dataclass
class OracleConfig:
    """Sampling plan for one oracle run; the seed fully determines it."""

    samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"sample count must be >= 1: {self.samples}")


@dataclass
class OracleReport:
    """Outcome of an oracle run with replayable witnesses."""

    oracle: str
    trials: int
    violations: list
    tightest_margin: float
    seed: int
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.violations) > self.trials:
            raise ValueError("more violations than trials")

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "trials": self.trials,
            "violations": self.violations,
            "tightest_margin": self.tightest_margin,
            "seed": self.seed,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# shared samplers

def _acute_at_least(rng: np.random.Generator, theta0: float) -> float:
    """Acute angle in [theta0, pi/2], biased toward the theta0 end."""
    u = float(rng.uniform()) ** 3
    return theta0 + u * (HALF_PI - theta0)


def _line_through(z: complex, acute: float, tilt: int) -> GeodesicLine:
    """Line through z whose folded angle with the vertical is ``acute``.

    tilt +1 leans the forward tangent toward +x, -1 toward -x.
    """
    return GeodesicLine.from_point_direction(
        z, cmath.exp(1j * (HALF_PI - tilt * acute)))


def _line_to_ideal(z: complex, u: float) -> GeodesicLine:
    """Complete geodesic through an interior point z ending at the
    finite ideal point u, oriented toward u."""
    xc = (abs(z) ** 2 - u * u) / (2.0 * (z.real - u))
    return GeodesicLine.from_endpoints(2.0 * xc - u, u)


# ---------------------------------------------------------------------------
# disjointness of supported crossings

def _gap(g1: GeodesicLine, g2: GeodesicLine) -> float:
    """Distance between two disjoint geodesics with finite ends.

    The map z -> (z - a)/(z - b) sends g1 to the axis (0, inf) and g2's
    ends to p, q of one sign, and tanh(d/2)^2 = min(p, q)/max(p, q); p/q
    is the cross ratio of the four ends.
    """
    a, b, u, v = (g1.endpoint_back, g1.endpoint_fwd,
                  g2.endpoint_back, g2.endpoint_fwd)
    x = (u - a) * (v - b) / ((u - b) * (v - a))
    return 2.0 * math.atanh(math.sqrt(min(x, 1.0 / x)))


def oracle_disjoint(cfg: OracleConfig) -> OracleReport:
    """Crossing lines at the ends of a long enough segment never meet.

    One trial: a carrier segment of length m(theta0) + margin + excess
    along the imaginary axis and lines through its endpoints at folded
    angles >= theta0 with random tilts, excesses biased toward the
    extreme.  Disjointness is decided by the ideal-endpoint
    interleaving test; the tracked margin is the distance between the
    two lines.
    """
    rng = _rng(cfg.seed)
    margin = 1e-6
    violations = []
    tight = math.inf
    for _ in range(cfg.samples):
        theta0 = float(rng.uniform(math.pi / 12, HALF_PI))
        length = disjointness_threshold(theta0) + margin \
            + float(rng.exponential(0.7))
        a1 = _acute_at_least(rng, theta0)
        a2 = _acute_at_least(rng, theta0)
        t1 = 1 if rng.integers(2) else -1
        t2 = 1 if rng.integers(2) else -1
        g1 = _line_through(1j, a1, t1)
        g2 = _line_through(1j * math.exp(length), a2, t2)
        if lines_cross(g1, g2):
            violations.append({"theta0": theta0, "length": length,
                               "angles": (a1, a2), "tilts": (t1, t2)})
            tight = 0.0
        else:
            tight = min(tight, _gap(g1, g2))
    return OracleReport("disjoint", cfg.samples, violations, tight, cfg.seed)


def disjoint_counterexample(theta0: float = math.pi / 6,
                            length_factor: float = 0.9,
                            seed: int = 0,
                            max_tries: int = 50000) -> dict:
    """Random search for crossing lines below the separation threshold.

    At carrier length length_factor * m(theta0) the mirrored near-extreme
    configurations intersect; returns the first witness found.
    """
    rng = _rng(seed)
    length = length_factor * disjointness_threshold(theta0)
    for tries in range(1, max_tries + 1):
        a1 = theta0 + float(rng.exponential(0.05))
        a2 = theta0 + float(rng.exponential(0.05))
        if max(a1, a2) >= HALF_PI:
            continue
        t1 = 1 if rng.integers(2) else -1
        t2 = 1 if rng.integers(2) else -1
        g1 = _line_through(1j, a1, t1)
        g2 = _line_through(1j * math.exp(length), a2, t2)
        if lines_cross(g1, g2):
            return {"theta0": theta0, "length": length, "angles": (a1, a2),
                    "tilts": (t1, t2), "tries": tries, "seed": seed}
    raise AssertionError(
        f"no crossing found below threshold in {max_tries} tries")


# ---------------------------------------------------------------------------
# two-sided clearance: closeness and projection containment

def _measured_limit_ray_cos(r: float, theta0: float) -> float:
    """Angle of the extreme supporting ray, measured geometrically.

    Figure: crossing line through i at folded angle theta0 leaning
    toward +x; observer at i e^{-r} on the axis, looking up.  Returns
    the cosine of the angle between the up direction and the ray from
    the observer to the near ideal endpoint of the crossing line.
    """
    g = _line_through(1j, theta0, 1)
    q = 1j * math.exp(-r)
    ray = _line_to_ideal(q, g.endpoint_back)
    t = ray.tangent_at(ray.param_of(q))
    return t.imag  # dot of the unit tangent with the up direction


def oracle_eps_distance(cfg: OracleConfig) -> OracleReport:
    """Segments with cleared supporting crossings stay eps-close to
    every geodesic meeting both supports, and project between them.

    One configuration: carrier = imaginary axis; supports g1, g2 cross
    it at folded angles >= theta0 through points keeping distance
    >= clearance(eps, theta0) from the middle segment c.  Test
    geodesics run through random anchor points of g1 and g2, which
    makes them meet both supports.  The sup of dist(., test line) over
    c sits at an endpoint of c since distance to a geodesic is convex
    along c, and the projection window on the test line is the
    parameter interval between the two anchors.  Also re-measures the
    limiting-ray angle identity behind the containment argument.
    """
    rng = _rng(cfg.seed)
    violations = []
    cells = {}
    trials = 0
    worst_p1 = math.inf
    worst_p2 = math.inf
    worst_identity = 0.0
    for eps in (0.1, 1.0, 2.0):
        for theta0 in (math.pi / 6, math.pi / 3):
            r = clearance(eps, theta0)
            p1_margin = math.inf
            p2_margin = math.inf
            for _ in range(cfg.samples):
                r1 = r + float(rng.exponential(0.5))
                r2 = r + float(rng.exponential(0.5))
                length = float(rng.uniform(0.01, 8.0))
                a1 = _acute_at_least(rng, theta0)
                a2 = _acute_at_least(rng, theta0)
                t1 = 1 if rng.integers(2) else -1
                t2 = 1 if rng.integers(2) else -1
                c_lo = 1j * math.exp(r1)
                c_hi = 1j * math.exp(r1 + length)
                g1 = _line_through(1j, a1, t1)
                g2 = _line_through(1j * math.exp(r1 + length + r2), a2, t2)
                witness = {"eps": eps, "theta0": theta0, "r1": r1, "r2": r2,
                           "length": length, "angles": (a1, a2),
                           "tilts": (t1, t2)}
                trials += 1
                if lines_cross(g1, g2):
                    violations.append({**witness, "kind": "supports cross"})
                    continue
                for _ in range(10):   # test lines per configuration
                    s1 = float(rng.uniform(-18.0, 18.0))
                    s2 = float(rng.uniform(-18.0, 18.0))
                    trials += 1
                    try:
                        test = GeodesicLine.from_points(g1.point_at(s1),
                                                        g2.point_at(s2))
                    except ValueError:
                        # both anchors deep toward near-coincident feet
                        continue
                    d_sup = max(
                        math.asinh(abs(test.signed_sinh_dist(c_lo))),
                        math.asinh(abs(test.signed_sinh_dist(c_hi))))
                    p1_margin = min(p1_margin, eps - d_sup)
                    w1 = test.param_of(g1.point_at(s1))
                    w2 = test.param_of(g2.point_at(s2))
                    lo, hi = min(w1, w2), max(w1, w2)
                    pr = sorted((test.param_of(c_lo), test.param_of(c_hi)))
                    p2_margin = min(p2_margin, pr[0] - lo, hi - pr[1])
                    if d_sup > eps + _TOL or pr[0] < lo - _TOL \
                            or pr[1] > hi + _TOL:
                        violations.append({**witness, "kind": "p1/p2",
                                           "anchors": (s1, s2),
                                           "sup_dist": d_sup})
            identity_err = 0.0
            for rr in (r, r + 0.5, r + 2.0, max(r - 0.5, 0.1)):
                trials += 1
                measured = _measured_limit_ray_cos(rr, theta0)
                closed = math.cos(transversal_limit_angle(rr, theta0))
                identity_err = max(identity_err, abs(measured - closed))
            if identity_err > _TOL:
                violations.append({"eps": eps, "theta0": theta0,
                                   "kind": "limit ray identity",
                                   "error": identity_err})
            cells[f"eps={eps:g},theta0={theta0:.6g}"] = {
                "p1_margin": p1_margin, "p2_margin": p2_margin,
                "identity_err": identity_err}
            worst_p1 = min(worst_p1, p1_margin)
            worst_p2 = min(worst_p2, p2_margin)
            worst_identity = max(worst_identity, identity_err)
    notes = {"cells": cells, "p1_margin": worst_p1, "p2_margin": worst_p2,
             "identity_err": worst_identity}
    return OracleReport("eps_distance", trials, violations,
                        min(worst_p1, worst_p2), cfg.seed, notes)


# ---------------------------------------------------------------------------
# longest traverse below a horocycle

def oracle_max_traverse(cfg: OracleConfig) -> OracleReport:
    """Chords dipping below a horocycle respect the traverse bound.

    Model: horocycle {y = 1}; a chord meeting it at folded angle theta
    lies on a semicircle of radius 1/cos(theta), and its endpoints sit
    at heights in [e^{-d}, 1], meaning within distance d below the
    horocycle.  Samples (d, psi) uniformly with theta <= psi and depths
    biased toward the extremes; every 64th sample re-measures the
    crossing angle through the halfplane primitives.  Notes record how
    closely the extreme chord attains the bound on a small grid.
    """
    rng = _rng(cfg.seed)
    horo = Horocycle(math.inf, 1.0)
    violations = []
    tight = math.inf
    for k in range(cfg.samples):
        d = float(rng.uniform(0.0, 3.0))
        psi = float(rng.uniform(0.0, 1.4))
        theta = psi * (1.0 - float(rng.uniform()) ** 3)
        dep1 = d * (1.0 - float(rng.uniform()) ** 3)
        dep2 = d * (1.0 - float(rng.uniform()) ** 3)
        radius = 1.0 / math.cos(theta)
        y1 = math.exp(-dep1)
        y2 = math.exp(-dep2)
        z1 = complex(-math.sqrt(radius ** 2 - y1 * y1), y1)
        z2 = complex(math.sqrt(radius ** 2 - y2 * y2), y2)
        chord = dist(z1, z2)
        bound = max_traverse(d, psi)
        tight = min(tight, bound - chord)
        if chord > bound + _TOL:
            violations.append({"d": d, "psi": psi, "theta": theta,
                               "depths": (dep1, dep2), "length": chord,
                               "bound": bound})
        if k % 64 == 0 and radius > 1.0 + 1e-9:
            line = GeodesicLine.circle(0.0, radius)
            crossings = line_horocycle_crossings(line, horo)
            ang = angle_with_horocycle(line, horo, crossings[0][1])
            if abs(ang - theta) > 1e-9:
                violations.append({"kind": "model angle", "theta": theta,
                                   "measured": ang})
    attain = 0.0
    for d in (0.0, 0.7, 1.8, 3.0):
        for psi in (0.0, 0.5, 1.0, 1.4):
            bound = max_traverse(d, psi)
            ee = math.exp(-d)
            radius = 1.0 / math.cos(psi)
            half = math.sqrt(radius ** 2 - ee * ee)
            arc = dist(complex(-half, ee), complex(half, ee))
            a = math.sqrt(math.exp(2.0 * d) / math.cos(psi) ** 2 - 1.0)
            straight = dist(1j, 2.0 * a + 1j)
            attain = max(attain, abs(arc - bound), abs(straight - bound))
    if attain > _TOL:
        violations.append({"kind": "extreme chord misses bound",
                           "error": attain})
    notes = {"attain_err": attain}
    return OracleReport("max_traverse", cfg.samples, violations, tight,
                        cfg.seed, notes)


# ---------------------------------------------------------------------------
# bridging quadrilateral: width and containment

def _quad_signed_angle(half_width: float, u: float) -> float:
    """Signed angle against the horizontal of the geodesic side through
    C1 = l e^u + i e^u and its involution image, negative while the
    side still leans toward the center."""
    eu = math.exp(u)
    center, _ = _quad_side_circle(half_width, u)
    return math.atan2(half_width * eu - center, eu)


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of f in [lo, hi], where f changes sign, to within tol."""
    lo_pos = f(lo) > 0.0
    if lo_pos == (f(hi) > 0.0):
        raise ValueError("f does not change sign on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quad_side_circle(half_width: float, u: float) -> tuple[float, float]:
    """Center and radius of the geodesic side circle through C1."""
    eu = math.exp(u)
    c1 = complex(half_width * eu, eu)
    c2 = complex(half_width, 1.0) / (half_width * half_width + 1.0)
    center = (abs(c1) ** 2 - abs(c2) ** 2) / (2.0 * (c1.real - c2.real))
    return center, math.hypot(c1.real - center, eu)


def oracle_quadrilateral(cfg: OracleConfig) -> OracleReport:
    """Quadrilateral half-width against a root solve, plus containment.

    Model: top horocycle {y = e^u}, bottom horocycle through i centered
    at 0 on the boundary; the involution z -> e^u / conj(z) swaps them.
    As the horocyclic half-width l grows, the signed angle of the
    geodesic side against the horizontal rises from -pi/2 through
    -psi; the root is compared with the closed form.  Containment:
    chords between the horocyclic sides that meet the horocycles only
    at their endpoints and whose folded endpoint angles are both
    >= psi must stay inside the quadrilateral, checked on Euclidean
    pointwise inequalities along the lifted chord.  The endpoint-only
    hypothesis is enforced exactly: the second crossing of the chord
    circle with either horocycle must not sit inside the arc.
    """
    checks_per_chord = 17
    violations = []
    cells = {}
    trials = 0
    width_err = 0.0
    worst_slack = math.inf
    for u in (0.1, 1.0, 3.0):
        for psi in (0.0, 0.3, 0.6, 1.0, 1.4):
            rng = _rng(cfg.seed + int(1e6 * u) + int(1e3 * psi))
            root = _bisect(lambda l: _quad_signed_angle(l, u) + psi,
                           1e-9, 3.0, 1e-14)
            closed = quad_half_width(psi, u)
            delta = abs(root - closed)
            width_err = max(width_err, delta)
            trials += 1
            if delta > _TOL:
                violations.append({"kind": "width", "psi": psi, "u": u,
                                   "root": root, "closed": closed})
            eu = math.exp(u)
            xs, rs = _quad_side_circle(closed, u)
            span = closed * eu
            accepted = 0
            raw = 0
            cell_slack = math.inf
            while accepted < cfg.samples and raw < 400 * cfg.samples:
                n = 2 * (cfg.samples - accepted) + 64
                raw += n
                x1 = rng.uniform(-span, span, size=n)
                x2 = rng.uniform(-span, span, size=n)
                z2 = eu * (x2 + 1j * eu) / (x2 * x2 + eu * eu)
                dx = x1 - z2.real
                keep = np.abs(dx) > 1e-9     # near-vertical chords only
                x1, x2, z2, dx = x1[keep], x2[keep], z2[keep], dx[keep]
                cc = (x1 * x1 + eu * eu - np.abs(z2) ** 2) / (2.0 * dx)
                rr = np.hypot(x1 - cc, eu)
                th1 = np.arccos(np.clip(eu / rr, 0.0, 1.0))
                v2 = z2 - 0.5j
                w2 = z2 - cc
                cosv = np.abs((v2 * np.conj(w2)).real) \
                    / (np.abs(v2) * np.abs(w2))
                th2 = np.arccos(np.clip(cosv, 0.0, 1.0))
                phi1 = np.arctan2(eu, x1 - cc)
                phi2 = np.arctan2(z2.imag, z2.real - cc)
                p_lo = np.minimum(phi1, phi2)
                p_hi = np.maximum(phi1, phi2)
                # endpoint-only hypothesis: the chord circle meets the
                # top horocycle line again at the mirrored angle pi-phi1
                # and the bottom horocycle circle at a second root of
                # x^2 + y^2 = y along the radical line y = a + b x
                top_bad = (np.pi - phi1 > p_lo + 1e-12) \
                    & (np.pi - phi1 < p_hi - 1e-12)
                bcf = 2.0 * cc
                acf = rr * rr - cc * cc
                qa = 1.0 + bcf * bcf
                qb = 2.0 * acf * bcf - bcf
                qc = acf * acf - acf
                disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
                xra = (-qb + np.sqrt(disc)) / (2.0 * qa)
                xrb = (-qb - np.sqrt(disc)) / (2.0 * qa)
                far = np.abs(xra - z2.real) > np.abs(xrb - z2.real)
                ox = np.where(far, xra, xrb)
                phi_b = np.arctan2(acf + bcf * ox, ox - cc)
                bot_bad = (phi_b > p_lo + 1e-12) & (phi_b < p_hi - 1e-12) \
                    & (np.abs(ox - z2.real) > 1e-9)
                ok = (th1 >= psi) & (th2 >= psi) & ~top_bad & ~bot_bad
                x1, x2, z2 = x1[ok], x2[ok], z2[ok]
                cc, rr = cc[ok], rr[ok]
                phi1, phi2 = phi1[ok], phi2[ok]
                if len(x1) > cfg.samples - accepted:
                    m = cfg.samples - accepted
                    x1, x2, z2, cc, rr, phi1, phi2 = (
                        x1[:m], x2[:m], z2[:m], cc[:m], rr[:m],
                        phi1[:m], phi2[:m])
                if not len(x1):
                    continue
                accepted += len(x1)
                trials += len(x1)
                t = np.linspace(0.0, 1.0, checks_per_chord)[:, None]
                phi = phi1[None, :] + t * (phi2 - phi1)[None, :]
                z = cc[None, :] + rr[None, :] * np.exp(1j * phi)
                slack = np.minimum.reduce([
                    eu - z.imag,
                    np.abs(z - 0.5j) - 0.5,
                    np.abs(z - xs) - rs,
                    np.abs(z + xs) - rs,
                ])
                chord_slack = slack.min(axis=0)
                cell_slack = min(cell_slack, float(chord_slack.min()))
                bad = np.nonzero(chord_slack < -1e-9)[0]
                for i in bad:
                    violations.append({"kind": "containment", "psi": psi,
                                       "u": u, "x1": float(x1[i]),
                                       "x2": float(x2[i]),
                                       "slack": float(chord_slack[i])})
            if accepted < cfg.samples:
                violations.append({"kind": "sampler starved", "psi": psi,
                                   "u": u, "accepted": accepted})
            worst_slack = min(worst_slack, cell_slack)
            cells[f"psi={psi:g},u={u:g}"] = {
                "width_delta": delta, "accepted": accepted,
                "acceptance": accepted / max(raw, 1),
                "min_slack": cell_slack}
    notes = {"cells": cells, "width_err": width_err,
             "min_containment_slack": worst_slack}
    return OracleReport("quadrilateral", trials, violations, worst_slack,
                        cfg.seed, notes)


# ---------------------------------------------------------------------------
# face chord sampling for the base decomposition

def face_chords(face: Face, rng: np.random.Generator, count: int):
    """Random geodesic chords of a developed face.

    Returns a list of (length, angle_a, angle_b) with the folded acute
    angles between the chord and the boundary edge at its endpoints.
    Chords are sampled across periods -1 .. 1 of the boundary chain
    (the one period of an ordinary face) and discarded when they cross
    an edge of periods -2 .. 2, leaving the face.
    """
    m = face.n_corners
    window = chain_edges(boundary_chain(face.corners, face.closure, -1, 3),
                         3 * m)
    guard = chain_edges(boundary_chain(face.corners, face.closure, -2, 4),
                        5 * m)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        i = int(rng.integers(len(window)))
        j = int(rng.integers(len(window)))
        if i == j:
            continue
        ea, eb = window[i], window[j]
        za = ea.point_at_fraction(float(rng.uniform(0.001, 0.999)))
        zb = eb.point_at_fraction(float(rng.uniform(0.001, 0.999)))
        if abs(za - zb) < 1e-6:
            continue
        try:
            chord = GeodesicSegment.between(za, zb)
        except ValueError:
            continue
        if any(segments_cross(chord, e) is not None for e in guard):
            # valid face chords stay inside the face; for punctured
            # faces a straight connection may leave through the chain
            continue
        ta = chord.line.tangent_at(chord.line.param_of(za))
        ua = ea.line.tangent_at(ea.line.param_of(za))
        tb = chord.line.tangent_at(chord.line.param_of(zb))
        ub = eb.line.tangent_at(eb.line.param_of(zb))
        out.append((chord.length, folded_angle(ta, ua), folded_angle(tb, ub)))
    return out


# slack of the face chord check: on the angle floor, and on the side cap
_CHORD_TOL_ANGLE = 1e-9
_CHORD_TOL_LEN = 1e-6


def check_face_chord_bounds(face: Face, rng: np.random.Generator,
                            count: int):
    """Every face chord meets an edge at angle >= the face's angle
    floor, and chords meeting both edges below the floor stay shorter
    than the face's side cap.  Returns (n_checked, n_short)."""
    samples = face_chords(face, rng, count)
    n_short = 0
    for (length, ang_a, ang_b) in samples:
        if not max(ang_a, ang_b) >= face.angle_floor - _CHORD_TOL_ANGLE:
            raise AssertionError(
                f"chord of length {length:.6g} meets its edges at "
                f"{ang_a:.6g} and {ang_b:.6g}, both below the floor "
                f"{face.angle_floor:.6g}")
        if min(ang_a, ang_b) <= face.angle_floor:
            n_short += 1
            if not length <= face.side_cap + _CHORD_TOL_LEN:
                raise AssertionError(
                    f"chord of length {length:.6g} with a sub-floor "
                    f"endpoint angle exceeds the side cap "
                    f"{face.side_cap:.6g}")
    return len(samples), n_short
