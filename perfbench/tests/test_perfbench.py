"""Self-tests of the benchmark: span arithmetic, tracing, output check.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, check_outcomes, load_reference

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_on_synthetic_tree():
    # a[0,10] holds b[1,4] and c[5,9]; b holds d[2,3]; c holds an
    # aggregated group e of two calls totalling 2 s
    names = ["a", "b", "d", "c", "e"]
    parents = [tracing.ROOT, 0, 1, 0, 3]
    totals = [10.0, 3.0, 1.0, 4.0, 2.0]
    assert tracing.self_times(parents, totals) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert tracing.outermost(names, parents) == [True] * 5
    assert tracing.outermost(["x", "x", "y", "x"], [tracing.ROOT, 0, 1, 2]) == [
        True, False, True, False]


def test_tracer_nesting_aggregation_and_layer_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("exact.mul", lambda: None, aggregate=True)

    def outer_body():
        leaf()
        leaf()
        return "done"

    outer = tracer.wrap("shiftop.compose", outer_body)
    assert outer() == "done"
    assert outer() == "done"
    # two compose spans, each holding one aggregated mul node of two calls
    assert tracer.names == ["shiftop.compose", "exact.mul", "shiftop.compose", "exact.mul"]
    assert tracer.parents == [tracing.ROOT, 0, tracing.ROOT, 2]
    assert tracer.calls == [1, 2, 1, 2]
    # compose opens at t, each mul takes one tick, compose closes at t+5
    assert tracer.totals == [5, 2, 5, 2]
    summary = tracing.summarize(tracer)
    assert summary["names"]["shiftop.compose"] == {"calls": 2, "s": 10, "self_s": 6}
    assert summary["names"]["exact.mul"] == {"calls": 4, "s": 4, "self_s": 4}
    assert summary["layers"]["shiftop"] == 6
    assert summary["layers"]["exact"] == 4
    metrics = tracing.layer_metrics(summary, {})
    assert metrics["exact.mul.calls"] == 4
    assert metrics["shiftop.compose.s"] == 10
    assert metrics["exact.self_s"] == 4
    assert metrics["linalg.rref.calls"] == 0


def test_instrument_patches_callers_and_restores():
    import liecomposite.cli  # noqa: F401  (imports every module)
    from liecomposite import exact, findim, linalg, octa

    before = (exact.RationalFunc.__mul__, exact.RationalFunc.__hash__,
              linalg.nullspace, findim.nullspace, octa.commutant_dimension)
    undo = tracing.instrument(tracing.Tracer())
    try:
        assert findim.nullspace is linalg.nullspace is not before[2]
        assert octa.commutant_dimension is findim.commutant_dimension
        assert octa.commutant_dimension is not before[4]
        assert exact.RationalFunc.__mul__ is not before[0]
    finally:
        undo()
    after = (exact.RationalFunc.__mul__, exact.RationalFunc.__hash__,
             linalg.nullspace, findim.nullspace, octa.commutant_dimension)
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_does_not_change_report_bytes(workload, tmp_path):
    base = {"workload": workload, "small": True, "spans": str(tmp_path / "spans.jsonl")}
    plain, error, _ = run.spawn(dict(base, mode="run"), 120)
    assert plain is not None, error
    traced, error, _ = run.spawn(dict(base, mode="trace"), 120)
    assert traced is not None, error
    assert [o["sha256"] for o in traced["outcomes"]] == [
        o["sha256"] for o in plain["outcomes"]]
    assert all(o["exit"] == 0 for o in plain["outcomes"])
    assert traced["layers"]["trace.spans"] > 0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == traced["layers"]["trace.spans"]


def test_output_check_rejects_tampering_and_wrong_counts():
    expected = load_reference()["ladder-batch"]
    good = [dict(entry) for entry in expected]
    assert check_outcomes(expected, good) == []

    tampered = copy.deepcopy(good)
    tampered[2]["sha256"] = "0" * 64
    assert check_outcomes(expected, tampered) == [
        "witt-symmetry: report sha256 differs from the reference"]

    short = copy.deepcopy(good)
    short[0]["items"] -= 1
    assert check_outcomes(expected, short) == ["witt-verify: 84 items, expected 85"]

    failing = copy.deepcopy(good)
    failing[3]["exit"] = 1
    failing[3]["verdicts"] = {"pass": 24, "fail": 1}
    problems = check_outcomes(expected, failing)
    assert "witt-hs: exit code 1" in problems
    assert any("verdicts" in p for p in problems)

    assert check_outcomes(expected, good[:-1]) == ["ran 4 commands, expected 5"]


def test_reference_item_counts_follow_closed_forms():
    ref = load_reference()
    b = 2
    letters = 2 * (2 * b + 1)
    assert [e["items"] for e in ref["closure"]] == [letters ** 3]
    k_verify, k_ext, b_hs = 5, 4, 6
    assert [e["items"] for e in ref["ladder-batch"]] == [
        2 * (k_verify + 2) * (k_verify + 1) + 1,
        2 * ((k_ext + 2) * (k_ext + 1) + (k_ext + 1) * k_ext // 2),
        1552,
        (b_hs - 1) ** 2,
        2,
    ]
    assert [e["items"] for e in ref["octa"]] == [44]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_seconds_are_scaled_by_the_calibration():
    from calibration import REFERENCE_S

    outcome = {"items": 10}
    rep = {"wall_s": 2.0, "cpu_s": 1.5, "setup_s": 0.3, "peak_rss_kb": 2048,
           "calibration_s": [REFERENCE_S, 3 * REFERENCE_S], "outcomes": [outcome]}
    probe = {"setup_s": 0.2, "calibration_s": [2 * REFERENCE_S]}
    record = {"setups": [probe], "runs": {"run": [rep]}}
    samples = run.end_to_end(record)
    assert samples["wall_s"] == ("s", [pytest.approx(1.0)])
    assert samples["cpu_s"] == ("s", [pytest.approx(0.75)])
    assert samples["items_per_s"] == ("1/s", [pytest.approx(10.0)])
    assert samples["setup_s"] == ("s", [pytest.approx(0.1), pytest.approx(0.3)])
    assert samples["peak_rss_mb"] == ("MB", [2.0])
