"""Shared numeric tolerances.

All comparisons in the package go through these constants so that the
meaning of "equal" is consistent and auditable in one place.
"""

# Algebraic identities (matrix products, determinants, trace formulas).
TOL_ALG = 1e-12

# Geometric coincidence: points, distances, intersection parameters.
TOL_GEO = 1e-9

# Accumulated error across long traces and developed configurations.
TOL_LOOSE = 1e-6
