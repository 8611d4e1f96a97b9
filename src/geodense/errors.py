"""Exception types raised by the construction pipeline."""


class GeodenseError(Exception):
    """Base class for all package errors."""


class NotFilling(GeodenseError):
    """The chosen base geodesic does not cut the surface into disks."""


class RadiusTooSmall(GeodenseError):
    """An orbit search radius was certified insufficient; retry larger."""


class CaseBoundViolated(GeodenseError):
    """A traced arc exceeded the length cap its case analysis guarantees."""


class RelatorFails(GeodenseError):
    """Stored group data is inconsistent (relator word is not the identity)."""


class InvalidSurface(GeodenseError):
    """Surface description failed validation."""


class TraceError(GeodenseError):
    """A geodesic trace left the fundamental polygon in an unexpected way."""


class NotHyperbolic(GeodenseError):
    """A word expected to act as a hyperbolic isometry does not."""


class HorocyclesIntersect(GeodenseError):
    """No common perpendicular exists because the horoballs overlap."""


class ArrangementDegenerate(GeodenseError):
    """The base-curve self-crossing pattern is too close to degenerate
    (near-tangency or crossings nearly coinciding) to decompose safely."""


class EarConstructionFails(GeodenseError):
    """A corner-skipping chord of a face leaves the face."""


class SafetyCapExceeded(GeodenseError):
    """An extension ran past the total cap its constants guarantee,
    indicating a bug in the computed surface constants."""

