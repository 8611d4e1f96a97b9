"""Dense closed geodesics on cusped hyperbolic surfaces.

Built so far: the catalog surfaces, the decomposition along a closed
filling base geodesic with its constants, the extension and rerouting of
arcs to steep crossings with it, and the distance from a point to a
closed curve.  Joining the arcs into one eps-dense closed geodesic with a
certified length bound, and the orthogeodesic variant, are not built yet
(ROADMAP.md).
"""

__version__ = "0.1.0"
