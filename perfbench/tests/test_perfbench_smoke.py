"""Smoke check of the benchmark: every workload at a tiny size emits every
metric BENCHMARK.json names, with its unit, and the traced run survives
public names that no longer exist."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def results(argv, cwd=ROOT):
    done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return done, [json.loads(line) for line in done.stdout.splitlines()
                  if line.startswith('{"correct"')]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric(trace, kind):
    done, rows = results(["--workload", "all", "--seed", "3", "--seconds", "0.01",
                          "--trace", str(trace), "--size", "smoke"])
    assert done.returncode == 0, done.stderr
    assert len(rows) == len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for row in rows:
        assert set(row) == {"correct", "attempted", "failed", "metrics"}
        assert row["correct"] and row["failed"] == 0 and row["attempted"] >= 1
        assert {k: v["unit"] for k, v in row["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in row["metrics"].values())


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done, rows = results(["--workload", "twoview-96", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert rows == []


def test_missing_public_name_is_reported_absent(monkeypatch):
    import sedslam
    import sedslam.cli  # noqa: F401  (a lookup site of solve_two_view)
    from sedslam import geom

    original = sedslam.solve_two_view
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.function", "sedslam.twoview", "no_such_function", None),
        ("gone.module", "sedslam.no_such_module", "anything", None),
        ("reshaped.report", "sedslam.geom", "skew", lambda a, k, r: {"x": r.no_such_field}),
    ))
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        assert sedslam.solve_two_view is not original
        tracer.op(0, lambda: sedslam.geom.skew([1.0, 2.0, 3.0]))
    finally:
        undo()
    assert sedslam.solve_two_view is original and geom.skew.__name__ == "skew"
    assert {"gone.function", "gone.module", "reshaped.report counts"} <= tracer.absent
    assert "sedslam.cli" in tracer.sites["twoview.solve"]
    assert [s[0] for s in tracer.spans] == ["op", "reshaped.report"]
    metrics = tracing.layer_metrics(tracer, {0: 1.0}, 0.0)
    assert [m[0] for m in tracing.PER_LAYER] == list(metrics)
