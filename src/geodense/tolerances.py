"""Shared numeric tolerances.

These constants fix the three common meanings of "equal": algebraic,
geometric and accumulated.  Checks sized to one quantity (an angle
slack, a relative margin, a bound's rounding allowance) keep their own
literal tolerances next to the check.
"""

# Algebraic identities (matrix products, determinants, trace formulas).
TOL_ALG = 1e-12

# Geometric coincidence: points, distances, intersection parameters.
TOL_GEO = 1e-9

# Accumulated error across long traces and developed configurations.
TOL_LOOSE = 1e-6
