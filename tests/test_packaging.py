"""Packaging: the package imports only what it declares, keeps every
name the benchmark uses, and defines nothing that goes unused."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geodense"
BENCH = ROOT / "perfbench"


def _declared() -> set[str]:
    """Import names of the distributions pyproject.toml depends on."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group().lower().replace("-", "_")
            for d in deps}


def _imports(path: Path):
    """(line, top-level name) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"geodense"} | _declared()
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    stray = [f"{path.relative_to(ROOT)}:{line} imports {name}"
             for path in modules
             for line, name in _imports(path)
             if name not in allowed]
    assert not stray, "undeclared dependencies: " + "; ".join(stray)


# Names a package module imports but never reads, each kept on purpose.
_UNREAD_IMPORTS_KEPT = {
    "densify.base_geodesic": "perfbench imports it from densify",
}


def test_no_unused_imports():
    """Every name a package module imports is read in that module, or
    kept on purpose in _UNREAD_IMPORTS_KEPT."""
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.add(f"{path.stem}.{name}")
    assert sorted(unread - set(_UNREAD_IMPORTS_KEPT)) == []
    assert sorted(set(_UNREAD_IMPORTS_KEPT) - unread) == []


def _bench_references(path: Path):
    """(line, dotted path) of every geodense name a perfbench module
    uses: its from-imports, attributes of the geodense names it binds,
    and the targets of patch(owner, "name", ...) and setattr calls."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "geodense":
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
                yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "geodense":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            yield node.lineno, f"{bound[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            owner, name = node.args[:2]
            if func in ("patch", "setattr") \
                    and isinstance(owner, ast.Name) and owner.id in bound \
                    and isinstance(name, ast.Constant):
                yield node.lineno, f"{bound[owner.id]}.{name.value}"


def _resolves(dotted: str) -> bool:
    """Does the dotted path name a module, or an attribute reached from
    the longest importable module prefix?"""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for name in parts[k:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_perfbench_names_resolve():
    """perfbench is parsed, not imported: a deletion that breaks the
    benchmark fails here."""
    refs = [(path, line, dotted) for path in sorted(BENCH.glob("*.py"))
            for line, dotted in _bench_references(path)]
    # tracer.instrument patches lines_cross and intersect_lines where
    # tracing imported them
    patched = {(path, dotted) for path, _, dotted in refs}
    for name in ("lines_cross", "intersect_lines"):
        assert (BENCH / "tracer.py", f"geodense.tracing.{name}") in patched
    missing = [f"{path.relative_to(ROOT)}:{line} uses {dotted}"
               for path, line, dotted in refs if not _resolves(dotted)]
    assert not missing, "names perfbench needs are gone: " + "; ".join(missing)


def test_perfbench_set_up_runs(monkeypatch):
    """perfbench's set-up runs for each arc workload at seed 1.  It reads
    the base geodesic's chords, an attribute read on a value that
    test_perfbench_names_resolve cannot follow."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    for name in ("torus-thick", "sphere-fine", "torus-dives"):
        ctx = workloads.set_up(workloads.WORKLOADS[name], 1)
        assert len(ctx.g0.chords) == len(ctx.g0.trace.steps) > 0


def _called(node):
    """Names of the functions called anywhere under an AST node."""
    return [getattr(n.func, "attr", getattr(n.func, "id", None))
            for n in ast.walk(node) if isinstance(n, ast.Call)]


def test_run_thresholds_derived_once():
    """Each threshold that depends only on the run is derived in one
    place, densify._setting, which every hunt and reroute reads."""
    tree = ast.parse((PACKAGE / "densify.py").read_text())
    [setting] = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == "_setting"]
    everywhere, inside = _called(tree), _called(setting)
    for name in ("clearance", "deep_entry_angle", "deep_horocycle_length",
                 "class_a_extension_bound", "ba_extra_extension",
                 "bb_v_bracket"):
        assert everywhere.count(name) == inside.count(name) == 1, name


def test_base_geodesic_is_its_trace():
    """A closed geodesic stores its word and traced period only; the deck
    elements of any walk are developed from its steps, one way."""
    tracing = importlib.import_module("geodense.tracing")
    fields = [f.name for f in dataclasses.fields(tracing.ClosedGeodesicRep)]
    assert fields == ["word", "trace"]
    params = inspect.signature(tracing.tile_elements).parameters
    assert list(params) == ["model", "steps"]


# The functions that accumulate a deck element, by module.
_DECK_ACCUMULATORS = {
    "tracing": ["tile_elements"],
    "surface": ["SurfaceModel.normalize"],
    "orbit": ["ball"],
    "decomp": ["_face_walk", "_locate_cusp", "boundary_chain"],
}

# The functions that read a face's boundary chain, by module.
_CHAIN_READERS = {
    "decomp": ["_build_ears", "Face.boundary_edges"],
    "verify": ["face_chords"],
}


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node = tree
    for part in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    return node


def _nodes(functions):
    """(name, every AST node) of each function named, by module."""
    for module, names in functions.items():
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(), str(path))
        for name in names:
            yield name, list(ast.walk(_function(tree, name)))


def test_deck_elements_are_integer():
    """Deck elements accumulate as integer matrices, one way: each
    accumulator multiplies with mat_mul, never with an Isometry product
    (@ or compose).  The readers of a face's boundary chain take its
    periods from boundary_chain and form no product or inverse at all."""
    for name, nodes in _nodes(_DECK_ACCUMULATORS | _CHAIN_READERS):
        assert not any(isinstance(n, ast.BinOp)
                       and isinstance(n.op, ast.MatMult)
                       for n in nodes), name
        assert not any(isinstance(n, ast.Attribute)
                       and n.attr == "compose" for n in nodes), name
    for name, nodes in _nodes(_CHAIN_READERS):
        assert not any(isinstance(n, ast.Attribute)
                       and n.attr == "inverse" for n in nodes), name
    for name, nodes in _nodes(_DECK_ACCUMULATORS):
        assert any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Name)
                   and n.func.id == "mat_mul" for n in nodes), name


def test_trace_is_its_steps_and_length():
    """A walk stores its steps and the length they walk; where it starts
    and ends is read off its first and last steps."""
    tracing = importlib.import_module("geodense.tracing")
    fields = [f.name for f in dataclasses.fields(tracing.Trace)]
    assert fields == ["steps", "length"]


def test_every_error_is_raised():
    """Each error class names a step that is built: something in the
    package raises it."""
    errors = importlib.import_module("geodense.errors")
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    raised = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(classes - raised) == ["GeodenseError"]


# Definitions no code in src/ or perfbench/ uses, each kept on purpose.
_UNUSED_KEPT = {
    "formulas.quad_entry_angle": "test oracle",
    "halfplane.crossing_angle": "test oracle",
    "decomp.Face.boundary_edges": "test oracle",
    "halfplane.GeodesicLine.dist_to": "test oracle",
    "halfplane.Horocycle.on_horocycle": "test oracle",
    "halfplane.Horocycle.contains_in_ball": "test oracle",
    "formulas.connection_bound": "held back for ROADMAP item 1",
    "formulas.display_bound": "held back for ROADMAP items 4-5",
    "formulas.normalized_length_constant": "held back for ROADMAP items 4-5",
}


def _definitions():
    """(module.name, name, is a method) of every module-level function
    and every non-dunder method of a module-level class in the package,
    but for verify, the oracle module."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "verify.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not re.fullmatch(r"__\w+__", item.name):
                        yield (f"{path.stem}.{node.name}.{item.name}",
                               item.name, True)


def test_no_dead_api():
    """Every function and method is used by the package or the
    benchmark, or kept on purpose in _UNUSED_KEPT.  Methods count by
    attribute name only: a local variable of the same name is not a
    use."""
    names, attrs = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")) \
            + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    unused = {qual for qual, name, method in _definitions()
              if name not in attrs and (method or name not in names)}
    assert sorted(unused - set(_UNUSED_KEPT)) == []
    assert sorted(set(_UNUSED_KEPT) - unused) == []


def _parameters(node, prefix, method=False):
    """(qualified name, parameter, read anywhere in the body) of every
    function under an AST node, nested ones included.  A method's first
    parameter, its receiver, is left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _parameters(child, f"{prefix}.{child.name}", True)
        elif isinstance(child, ast.FunctionDef):
            qual = f"{prefix}.{child.name}"
            a = child.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            if method and "staticmethod" not in {
                    getattr(d, "id", None) for d in child.decorator_list}:
                params = params[1:]
            read = {n.id for n in ast.walk(child)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for p in params:
                yield qual, p, p in read
            yield from _parameters(child, qual)
        else:
            yield from _parameters(child, prefix, method)


def test_no_unused_parameters():
    """Every parameter of every function in the package is read."""
    unused = [f"{qual}.{p}" for path in sorted(PACKAGE.glob("*.py"))
              for qual, p, read in _parameters(
                  ast.parse(path.read_text(), str(path)), path.stem)
              if not read]
    assert unused == []


# Dataclass fields the package and the benchmark never read as an
# attribute but to copy them into a new instance, each kept on purpose.
_WRITE_ONLY_KEPT = {
    "decomp.Decomposition.faces": "decomposition output checked by tests",
    "decomp.SurfaceConstants.per_arc_cap": "ROADMAP item 1 decides it",
    "densify.CrossingRecord.tau": "ROADMAP item 1 joins arcs by it",
    "densify.ProcessedArc.original": "ROADMAP item 1 joins arcs by it",
    "densify.ProcessedArc.detail": "ROADMAP item 4 reports it",
}


def _fields():
    """module.Class.field of every field of every dataclass in the
    package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) \
                            and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}"


def _copied_reads(tree, classes):
    """The attribute loads of an AST passed, bare or negated, as
    arguments of a call to one of classes, each to the name of the class
    called."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name not in classes:
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            while isinstance(arg, ast.UnaryOp):
                arg = arg.operand
            if isinstance(arg, ast.Attribute):
                out[arg] = name
    return out


def test_no_write_only_fields():
    """Every dataclass field is read as an attribute somewhere in the
    package or the benchmark, or kept on purpose in _WRITE_ONLY_KEPT: a
    field only tests read is listed there with its reason.  A read passed
    as an argument of its own class's constructor only copies the field
    into the next instance, and does not count.  Fields count by
    attribute name only."""
    fields = [f.split(".") for f in _fields()]
    classes = {cls for _, cls, _ in fields}
    reads = set()   # (attribute name, class it is copied into or None)
    for path in sorted((ROOT / "src").rglob("*.py")) \
            + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        copied = _copied_reads(tree, classes)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, copied.get(node)))
    unread = {".".join(f) for f in fields
              if not any(attr == f[2] and into != f[1]
                         for attr, into in reads)}
    assert sorted(unread - set(_WRITE_ONLY_KEPT)) == []
    assert sorted(set(_WRITE_ONLY_KEPT) - unread) == []


def test_extension_outcome_is_its_stop_walk_and_case():
    """A hunt's outcome holds its sub-case, its stopping crossing and
    its walk; the class, the lengths and the crossings passed are read
    off the stop or left out."""
    densify = importlib.import_module("geodense.densify")
    fields = [f.name for f in dataclasses.fields(densify.ExtensionOutcome)]
    assert fields == ["case_id", "stop", "trace"]


# The walk's value classes: slotted dataclasses, treated as immutable.
_VALUE_CLASSES = {
    "halfplane": ("GeodesicLine", "GeodesicSegment", "Horocycle",
                  "Isometry"),
    "densify": ("CrossingRecord", "ExtensionOutcome"),
    "tracing": ("TraceStep", "Trace", "CuspRun"),
    "surface": ("Side", "Cusp"),
}


def _value_classes():
    for module, names in _VALUE_CLASSES.items():
        mod = importlib.import_module(f"geodense.{module}")
        yield from (getattr(mod, name) for name in names)


def test_value_classes_are_slotted():
    """Each value class stores its fields in slots and nothing else: no
    instance dict, and about a fifth of a frozen dataclass's
    construction cost."""
    for cls in _value_classes():
        assert dataclasses.is_dataclass(cls), cls.__name__
        assert "__slots__" in vars(cls), cls.__name__
        assert set(cls.__slots__) \
            == {f.name for f in dataclasses.fields(cls)}, cls.__name__


def _stores(node, owner=None, receiver=None, method=False):
    """(line, attribute, class body it sits in, set on that class's
    method receiver) of every attribute store or delete under an AST
    node, setattr calls with a constant name included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _stores(child, child.name, None, True)
            continue
        if isinstance(child, ast.FunctionDef):
            params = child.args.posonlyargs + child.args.args
            static = "staticmethod" in {getattr(d, "id", None)
                                        for d in child.decorator_list}
            own = params[0].arg if params and not static else None
            yield from _stores(child, owner, own if method else receiver)
            continue
        target = None
        if isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, (ast.Store, ast.Del)):
            target, attr = child.value, child.attr
        elif isinstance(child, ast.Call) and getattr(
                child.func, "id", getattr(child.func, "attr", None)) in (
                "setattr", "delattr", "__setattr__", "__delattr__") \
                and len(child.args) >= 2 \
                and isinstance(child.args[1], ast.Constant):
            target, attr = child.args[0], child.args[1].value
        if target is not None:
            yield (child.lineno, attr, owner,
                   isinstance(target, ast.Name) and target.id == receiver)
        yield from _stores(child, owner, receiver)


def _refused_stores(tree) -> list[str]:
    """Stores to a field of a value class outside that class's body.  A
    store on the receiver of another class's method sets that class's
    own attribute, and passes."""
    owners = {}
    for cls in _value_classes():
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, set()).add(cls.__name__)
    values = set().union(*owners.values())
    return [f"line {line} sets .{attr}"
            for line, attr, owner, on_receiver in _stores(tree)
            if attr in owners and owner not in owners[attr]
            and not (on_receiver and owner not in values)]


def test_value_classes_are_never_assigned():
    """No statement in the package or the benchmark assigns to a field
    of a value class, but in that class's own body: the guarantee that
    frozen gave, kept at no cost when a walk runs."""
    refused = [f"{path.relative_to(ROOT)} {where}"
               for path in sorted(PACKAGE.glob("*.py"))
               + sorted(BENCH.glob("*.py"))
               for where in _refused_stores(
                   ast.parse(path.read_text(), str(path)))]
    assert refused == []
    # the check sees a planted store, and lets another class set its own
    planted = ast.parse(
        "def f(seg, run):\n"
        "    seg.s0 = 0.0\n"
        "    setattr(run, 'chart', None)\n"
        "    del seg.line\n"
        "class Walk:\n"
        "    def m(self, rec):\n"
        "        self.length = 1.0\n"
        "        rec.step += 1\n"
        "class GeodesicSegment:\n"
        "    def f(self, other):\n"
        "        other.s1 = self.s0\n")
    assert _refused_stores(planted) == [
        "line 2 sets .s0", "line 3 sets .chart", "line 4 sets .line",
        "line 8 sets .step"]
