"""The benchmark's own tests: run with `python -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import census
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _tiny(name: str) -> workloads.Workload:
    """The named workload at a size that runs in seconds, with several
    accumulation groups per training call."""
    base = workloads.WORKLOADS[name]
    synth = dict(base.synth, n_patients=30, patch_range=(6, 12))
    train = dict(base.train, accumulation=8)
    return dataclasses.replace(base, synth=synth, train=train, size_grid=None)


@pytest.fixture(scope="module")
def traced_cv(tmp_path_factory):
    bench = workloads.Bench(_tiny("cv_small_bags"), 3,
                            tmp_path_factory.mktemp("bench"))
    tracer = tracing.Tracer()
    try:
        tracer.start()
        try:
            with tracer.stage("bench.setup"):
                bench.setup(0)
            first = bench.run_pass(0, tracer)
        finally:
            tracer.stop()
        timed = bench.run_timed(0.0)
        bench.check_repeats([first, *timed])
    finally:
        bench.close()
    return bench, tracer, timed


def test_every_wrapped_function_records_spans(traced_cv):
    bench, tracer, _ = traced_cv
    totals = tracer.totals()
    silent = [name for name in tracing.LAYER_NAMES
              if totals.get(name, {"calls": 0})["calls"] == 0]
    assert silent == [], f"no spans recorded for {silent}"
    assert bench.ops.failures == []


def test_spans_nest_and_self_times_add_up(traced_cv):
    _, tracer, _ = traced_cv
    spans = tracer.spans
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    train = tracer.totals(root="bench.train")
    total_ms = sum(e["self_ms"] for e in train.values())
    assert total_ms == pytest.approx(tracer.duration_ms("bench.train"), rel=1e-9)


def test_install_rebinds_names_imported_by_value():
    import histodistill.cli
    import histodistill.model
    import histodistill.training
    original = histodistill.model.predict
    patches = tracing.install({"model.predict": lambda name, fn: lambda *a: fn(*a)})
    try:
        assert histodistill.training.predict is histodistill.model.predict
        assert histodistill.training.predict is not original
    finally:
        tracing.uninstall(patches)
    assert histodistill.training.predict is original
    assert histodistill.cli.load_checkpoint is histodistill.checkpoint.load_checkpoint


def test_census_repeats_and_adds_up():
    counts = census.tape_census()
    assert counts == census.tape_census()
    by_op = sum(v for k, v in counts.items()
                if k.startswith("autodiff.tape_nodes_per_patient.")
                and not k.endswith("nll_only"))
    assert by_op == counts["autodiff.tape_nodes_per_patient"] > 0
    assert 0 < counts["autodiff.tape_useful_ratio"] <= 1
    assert counts["autodiff.tape_nodes_per_patient.nll_only"] < by_op


def test_census_fails_loudly_without_autodiff_internals(monkeypatch):
    monkeypatch.delattr(census.ad, "_make")
    with pytest.raises(census.CensusError):
        census.tape_census()


def test_timed_run_samples_every_stage_and_training_group(traced_cv):
    bench, _, timed = traced_cv
    assert len(timed) == workloads.MIN_PASSES
    assert sum(len(p.latencies_ms) for p in timed) >= workloads.MIN_PREDICT_CALLS
    for p in timed:
        assert p.rounds >= 1
        assert len(p.prep_wall_s) >= p.rounds
        assert len(p.eval_patients_per_s) == p.rounds
    # one rate per accumulation group: 5 folds of 24 patients, 3 groups each
    assert [len(p.train_patients_per_s) for p in timed] == [15, 15]
    assert bench.stopwatch.whole_calls == 0


def test_stopwatch_falls_back_to_whole_call_rate():
    watch = workloads._Stopwatch()
    config = types.SimpleNamespace(accumulation=4, epochs=2)
    no_steps = watch._train_model("training.train_model", lambda *args: None)
    no_steps(None, None, range(10), None, config)
    assert (watch.whole_calls, len(watch.rates), watch.steps) == (1, 1, 20)


def test_repeat_check_flags_a_changed_result(traced_cv):
    bench, _, _ = traced_cv
    ops = workloads.Ops()
    a = workloads.PassResult(
        wall_s=1, train_wall_s=1, train_patients_per_s=[1], prep_wall_s=[1],
        eval_patients_per_s=[1], latencies_ms=[], rounds=1, c_index_mean=0.5,
        retained_ratio=0.5, fingerprint=(0.5,))
    b = dataclasses.replace(a, fingerprint=(0.6,))
    bench_ops, bench.ops = bench.ops, ops
    try:
        bench.check_repeats([a, b])
    finally:
        bench.ops = bench_ops
    assert len(ops.failures) == 1


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_small_bags",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
