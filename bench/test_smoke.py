"""Quick checks of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_generated_configs_are_seeded_and_valid():
    from selrec.config import ExperimentConfig

    for w in WORKLOADS.values():
        for sizes in ({}, w.tiny):
            a = w.make_config(7, **sizes)
            assert a == w.make_config(7, **sizes)
            assert a != w.make_config(8, **sizes)
            ExperimentConfig.from_dict(a)


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("x.inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr.wrap("x.outer", body)
    outer()
    spans = tr.summarize()
    # outer runs 0..5 and encloses inner spans 1..2 and 3..4
    assert spans["x.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert spans["x.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(tr.span_parent) == [-1, 0, 0]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload once at tiny size through the traced child."""
    runs = {}
    for name, w in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        config = w.make_config(3, **w.tiny)
        (work / "config.json").write_text(json.dumps(config))
        argv = [*w.argv, "--config", str(work / "config.json"), "--out", str(work / "out")]
        if "--threads" in argv:
            argv[argv.index("--threads") + 1] = "1"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), "--summary", str(work / "summary.json"),
             "--spans", str(work / "spans.npz"), "--", *argv],
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[name] = (config, work, json.loads((work / "summary.json").read_text()))
    return runs


def test_traced_runs_pass_their_checks_and_report_every_metric(traced):
    names = {name for name, _ in tracer.PER_LAYER} - {"trace.overhead_s"}
    for name, (config, work, summary) in traced.items():
        assert WORKLOADS[name].check(work / "out", config) is None
        assert WORKLOADS[name].stresses in summary["groups"]
        assert set(summary["metrics"]) == names
        assert set(summary["absent"]) <= names
        spans = np.load(work / "spans.npz")
        assert spans["start"].size == sum(v["calls"] for v in summary["spans"].values())
        assert abs(sum(summary["groups"].values()) - sum(
            v["self_s"] for v in summary["spans"].values())) < 1e-6


def test_traced_counts(traced):
    m = {name: summary["metrics"] for name, (_, _, summary) in traced.items()}
    assert m["verify-n3"]["rng.spawn_stream.calls"] > 0
    assert m["verify-n3"]["partitions.calls"] > 0
    assert m["dual-n10"]["partitions.calls"] == 0
    assert m["dual-n10"]["duals.replicates"] == WORKLOADS["dual-n10"].tiny["replicates"]
    assert m["solve-n12"]["solvers.rhs.calls"] > 0
    assert m["solve-n12"]["solvers.write_csv.self_s"] > 0
    assert m["moran-n4"]["moran.events"] > 0
    assert m["moran-n4"]["duals.replicates"] == 0


def test_active_sets_equal_distinct_started_sets(traced):
    """duals.active_sets must equal the basis-cache misses, recounted here
    from the same random streams."""
    from selrec.config import ExperimentConfig
    from selrec.duals import _canonical_start, ypir_vector_simulate
    from selrec.rng import spawn_stream

    config, _, summary = traced["dual-n10"]
    exp = ExperimentConfig.from_dict(config)
    start = _canonical_start(exp.cfg, "counts")
    started = {
        tuple(ypir_vector_simulate(exp.cfg, start, exp.settings.t_max, spawn_stream(exp.seed, rep)) > 0)
        for rep in range(exp.replicates)
    }
    assert summary["metrics"]["duals.active_sets"] == len(started)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-n3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
