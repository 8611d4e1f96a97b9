"""In-memory spans and counters around geodense's layer functions.

A Tracer keeps every span as [name, start, end, parent, op] in a list and
its counters in a Counter; nothing is written until the run ends.  The
benchmark opens spans around its own calls into the package, and
``instrument`` wraps the layer functions at the names their calling
module looks up at call time, so the package itself is not edited:

* densify's ``trace_geodesic``, ``concat_traces``, ``_hunt``,
  ``lines_cross`` and ``line_horocycle_crossings``;
* tracing's ``lines_cross`` and ``intersect_lines`` (from ``_first_exit``);
* ``SurfaceModel.normalize``;
* orbit's ``ball`` and ``dist_to_domain``.

The halfplane primitives only get a counter, not a span: a span per call
would cost more than the call.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()   # summed span time per name
        self.op: int | None = None          # operation the spans belong to
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            self.seconds[name] += rec[2] - rec[1]

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = NullTracer()


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap the layer functions for the duration of the block."""
    import geodense.densify as densify
    import geodense.orbit as orbit
    import geodense.tracing as tracing
    from geodense.surface import SurfaceModel

    counts = tr.counts
    saved = []

    def patch(owner, name, make):
        orig = getattr(owner, name)
        saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def counted(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def spanned(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                with tr.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def traced_walk(fn):
        def wrapper(*args, **kwargs):
            counts["tracing.trace_geodesic.calls"] += 1
            if tr.innermost() == "densify._hunt":
                counts["densify.hunt_chunks"] += 1
            with tr.span("tracing.trace_geodesic"):
                out = fn(*args, **kwargs)
            counts["tracing.trace_geodesic.steps"] += len(out.steps)
            return out
        return wrapper

    def joined(fn):
        def wrapper(*args, **kwargs):
            counts["tracing.concat_traces.calls"] += 1
            out = fn(*args, **kwargs)
            counts["tracing.concat_traces.steps"] += len(out.steps)
            return out
        return wrapper

    def tiled(fn):
        def wrapper(*args, **kwargs):
            counts["orbit.ball.calls"] += 1
            with tr.span("orbit.ball"):
                out = fn(*args, **kwargs)
            counts["orbit.ball.tiles"] += len(out)
            return out
        return wrapper

    try:
        patch(densify, "trace_geodesic", traced_walk)
        patch(densify, "concat_traces", joined)
        patch(densify, "_hunt", spanned("densify._hunt"))
        patch(densify, "lines_cross", counted("halfplane.lines_cross.densify"))
        patch(densify, "line_horocycle_crossings",
              counted("halfplane.line_horocycle_crossings.densify"))
        patch(tracing, "lines_cross", counted("halfplane.lines_cross.tracing"))
        patch(tracing, "intersect_lines",
              counted("halfplane.intersect_lines.tracing"))
        patch(SurfaceModel, "normalize", spanned("surface.normalize"))
        patch(orbit, "ball", tiled)
        patch(orbit, "dist_to_domain", counted("orbit.dist_to_domain.calls"))
        yield tr
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
