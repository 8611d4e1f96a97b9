"""The benchmark's own test, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from tracer import SPAN_FIELDS  # noqa: E402

SEED = 7
SECONDS = "1"
# metrics that depend on the seed only, never on timing
EXACT_UNITS = {"count", "length"}
EXACT_NAMES = {"fail_frac", "length_ratio_max", "covered_frac",
               "densify.rescan_ratio", "orbit.tile_yield"}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_reported_and_counts_repeat(name):
    timed, again = (
        result_of(bench("--workload", name, "--seed", str(SEED),
                        "--seconds", SECONDS, "--trace", "0"))
        for _ in range(2))
    assert timed["correct"] is True and timed["attempted"] >= 1
    assert {k: v["unit"] for k, v in timed["metrics"].items()} \
        == run.END_TO_END
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    assert (timed["attempted"], timed["failed"]) \
        == (again["attempted"], again["failed"])

    first, second = (
        result_of(bench("--workload", name, "--seed", str(SEED),
                        "--seconds", SECONDS, "--trace", "1"))
        for _ in range(2))
    for res in (first, second):
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} \
            == run.PER_LAYER
    assert (first["attempted"], first["failed"]) \
        == (second["attempted"], second["failed"])
    for key, m in first["metrics"].items():
        if m["unit"] in EXACT_UNITS or key in EXACT_NAMES:
            assert m["value"] == second["metrics"][key]["value"], key

    record = json.loads(
        (run.OUT / f"{name}-s{SEED}-t1.json").read_text())
    assert set(record["environment"]) >= {"python", "numpy", "nproc",
                                          "commit"}
    spans = json.loads((run.OUT / f"{name}-s{SEED}-spans.json").read_text())
    assert spans["fields"] == list(SPAN_FIELDS)
    assert any(s[0] == "decomp.decompose" for s in spans["spans"])


def test_inputs_repeat_for_a_seed():
    wl = workloads.WORKLOADS["torus-thick"]
    ctx = workloads.set_up(wl, SEED)
    take = [list(zip(range(5), workloads.inputs(ctx, SEED)))
            for _ in range(2)]
    assert take[0] == take[1]


@pytest.fixture(scope="module")
def torus_ctx():
    wl = workloads.WORKLOADS["torus-certify"]
    return workloads.set_up(wl, SEED)


def test_curve_has_a_fixed_size(torus_ctx):
    assert len(torus_ctx.curve) == workloads.CURVE_PASSAGES


def test_step_budget_stops_an_arc(torus_ctx, monkeypatch):
    import geodense.densify as densify

    c = next(workloads.thick_arcs(torus_ctx.model, workloads.stream(1, 0),
                                  0.5))
    monkeypatch.setattr(densify, "trace_geodesic", densify.trace_geodesic)
    workloads.install_step_budget()
    workloads.process_arc(torus_ctx, c)
    monkeypatch.setattr(workloads, "STEP_BUDGET", 0)
    with pytest.raises(workloads.StepBudgetExceeded):
        workloads.process_arc(torus_ctx, c)


def test_arc_checks_catch_wrong_answers(torus_ctx):
    c = next(workloads.thick_arcs(torus_ctx.model, workloads.stream(1, 0),
                                  0.5))
    pa = workloads.process_arc(torus_ctx, c)
    assert workloads.check_arc(torus_ctx, pa) == []
    assert workloads.check_arc(
        torus_ctx, dataclasses.replace(pa, length=pa.bound + 1e-3))
    steep = dataclasses.replace(pa.end_fwd, kind="deep")
    assert workloads.check_arc(torus_ctx,
                               dataclasses.replace(pa, end_fwd=steep))
    assert workloads.check_arc(
        torus_ctx, dataclasses.replace(pa, case="BA", displacement=1.0))


def test_point_checks_catch_wrong_answers(torus_ctx):
    z = next(workloads.truncated_points(torus_ctx.model,
                                        workloads.stream(1, 0), 0.5))
    d = workloads.certify_point(torus_ctx, z)
    assert workloads.check_point(torus_ctx, z, d) == []
    if d is None:
        assert workloads.check_point(torus_ctx, z, 0.1)
    else:
        assert workloads.check_point(torus_ctx, z, None)
        assert workloads.check_point(torus_ctx, z, d + 1e-9)


def test_violated_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check",
                        lambda ctx, index, x, value: ["planted violation"])
    run.arm_time_limit()
    try:
        with pytest.raises(SystemExit) as exc:
            run.timed_run(workloads.WORKLOADS["torus-thick"], SEED, 0.2)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert exc.value.code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_witness_replays_the_recorded_outcome(tmp_path):
    wl = workloads.WORKLOADS["torus-dives"]
    ctx = workloads.set_up(wl, SEED)
    c = next(workloads.inputs(ctx, SEED))
    x = workloads.decode_input(
        json.loads(json.dumps(workloads.encode_input(c))))
    assert x == c
    try:
        workloads.process_arc(ctx, x)
        error = None
    except Exception as exc:   # the replay counts any exception
        error = type(exc).__name__
    witness = {"workload": wl.name, "seed": SEED, "trace": 0, "op": "arc",
               "index": 0, "error": error or "TraceError", "message": "",
               "violations": [], "input": workloads.encode_input(c)}
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    proc = bench("--replay", str(path))
    assert proc.returncode == (0 if error else 1), proc.stdout + proc.stderr


def test_stripped_checkout_fails(tmp_path):
    """Without src/ the benchmark exits non-zero and prints no result."""
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-thick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
