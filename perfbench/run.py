"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cv_small_bags --seed 0 --seconds 35 --trace 0

With --trace 0 the run measures the end-to-end metrics: set-up five
times, then about --seconds of passes, each a training call followed by
rounds of the short stages (at least two passes, so the same-seed repeat
check always runs). With --trace 1 it runs a traced pass between two
untraced ones and reports per-layer metrics instead. The last line of
standard output is the JSON result; the line before it records the
environment. Details and spans go to .perfbench_results/ in the checkout.
See perfbench/DESIGN.md for the design.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A seed kept out of development, for confirming a later claim on inputs
# no change was tuned against.
HELD_OUT_SEED = 7919

UNITS = {
    "setup_s": "s",
    "prep_wall_s": "s",
    "train_wall_s": "s",
    "train_patients_per_s": "1/s",
    "eval_patients_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "c_index_mean": "ratio",
    "peak_rss_mb": "MB",
}


def _single_blas_thread() -> int:
    """One BLAS/OpenMP thread, set before numpy loads; returns usable CPUs.

    The load is one closed-loop caller. With one BLAS thread the run uses
    one core, so a busy neighbour on another core cannot stall every BLAS
    call, and the thread count never exceeds the CPUs available.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(ncpu: int, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:           # the build record's layout varies by numpy version
        blas = "unknown"
    return {
        "nproc": ncpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "cpu": _cpu_model(),
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def _import_package():
    if not (SRC / "histodistill" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/histodistill")
    sys.path.insert(0, str(SRC))
    import histodistill
    if Path(histodistill.__file__).resolve().parent != SRC / "histodistill":
        raise SystemExit(f"perfbench: imported {histodistill.__file__}, "
                         f"not the checkout's package")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    import numpy as np      # imported late: the thread variables come first
    return float(np.percentile(np.asarray(values), q))


def end_to_end(bench, seconds: float, import_s: float) -> tuple[dict, dict]:
    from workloads import SETUP_REPEATS
    setups = [bench.setup(i) for i in range(SETUP_REPEATS)]
    passes = bench.run_timed(seconds)
    bench.check_repeats(passes)

    def pooled(name):
        return [v for p in passes for v in getattr(p, name)]
    latencies = pooled("latencies_ms")
    values = {
        "setup_s": import_s + median(setups),
        "prep_wall_s": median(pooled("prep_wall_s")),
        "train_wall_s": median(p.train_wall_s for p in passes),
        "train_patients_per_s": median(pooled("train_patients_per_s")),
        "eval_patients_per_s": median(pooled("eval_patients_per_s")),
        "predict_ms_p50": percentile(latencies, 50),
        "predict_ms_p90": percentile(latencies, 90),
        "c_index_mean": passes[0].c_index_mean,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    detail = {
        "import_s": import_s,
        "setup_runs_s": setups,
        "passes": [{k: v for k, v in vars(p).items()
                    if k not in ("latencies_ms", "fingerprint")} for p in passes],
        "predict_ms_by_pass": [[percentile(p.latencies_ms, q) for q in (50, 90)]
                               for p in passes],
        "predict_calls": len(latencies),
        "train_whole_call_rates": bench.stopwatch.whole_calls,
    }
    return metrics, detail


def per_layer(bench) -> tuple[dict, dict, list]:
    import census
    import tracing
    tracer = tracing.Tracer()
    tracer.start()
    try:
        with tracer.stage("bench.setup"):
            bench.setup(0)
    finally:
        tracer.stop()
    # untraced passes on both sides of the traced one, so that a drift in
    # the machine's speed over the three passes cancels out of the overhead
    before = bench.run_pass(0)
    tracer.start()
    try:
        traced = bench.run_pass(1, tracer)
    finally:
        tracer.stop()
    after = bench.run_pass(2)
    bench.check_repeats([before, traced, after])
    untraced_s = (before.wall_s + after.wall_s) / 2

    totals = tracer.totals()
    values = {}
    for name in tracing.LAYER_NAMES:
        entry = totals.get(name, {"calls": 0, "self_ms": 0.0})
        values[f"{name}.calls"] = (entry["calls"], "count")
        if name not in tracing.CV_ONLY:
            values[f"{name}.self_ms"] = (entry["self_ms"], "ms")
    for name, count in census.tape_census().items():
        values[name] = (count, "ratio" if name.endswith("ratio") else "count")
    values["geneselect.retained_ratio"] = (traced.retained_ratio, "ratio")
    values["io.read_bag.mb"] = (tracer.counters["io.read_bag.bytes"] / 1e6, "MB")
    values["checkpoint.bytes"] = (tracer.counters["checkpoint.bytes"], "bytes")
    train = tracer.totals(root="bench.train")
    layer_ms = sum(e["self_ms"] for n, e in train.items() if n != "bench.train")
    values["trace.layer_self_share_of_train_wall"] = (
        layer_ms / tracer.duration_ms("bench.train"), "ratio")
    values["trace.overhead_s"] = (traced.wall_s - untraced_s, "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {
        "untraced_pass_s": [before.wall_s, after.wall_s],
        "traced_pass_s": traced.wall_s,
        "self_ms_by_span": {n: e for n, e in totals.items()},
    }
    return metrics, detail, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ncpu = _single_blas_thread()
    start = time.perf_counter()
    _import_package()
    import workloads
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    env = _environment(ncpu, args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work_dir = ROOT / ".perfbench_work" / tag
    results_dir = ROOT / ".perfbench_results"
    bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, work_dir)
    spans = None
    try:
        if args.trace:
            metrics, detail, spans = per_layer(bench)
        else:
            metrics, detail = end_to_end(bench, args.seconds, import_s)
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):    # still in use by another run
            work_dir.parent.rmdir()

    ops = bench.ops
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    results_dir.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "detail": detail,
              "op_failure_rate": len(ops.failures) / ops.attempted,
              "failures": ops.failures}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (results_dir / f"{tag}-spans.json").write_text(json.dumps(spans))
    for message in ops.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env, "op_failure_rate": record["op_failure_rate"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
