"""The benchmark workloads and the pipeline that each one times.

Every workload runs the same user pipeline on its own generated cohort:

1. set-up: `synth_generate` + `write_cohort`, plus an image-only manifest
   whose genomics files do not exist;
2. train: `cli.main(["cross-validate", ...])` or `cli.main(["train",
   "--fold", "0", ...])`;
3. prep: `load_cohort` with genomics, then per fold `select_genes`,
   `GeneStandardizer.fit` and `write_selection_report`;
4. eval: `cli.main(["eval", ...])` on the image-only manifest;
5. predict: single-bag `predict` calls, one caller.

A pass is one training call followed by rounds; a round runs prep, eval
and predict once more each, one after another. Spreading the short
stages over rounds that fill the time between training calls lets each
of them sample the machine at many moments of a run, not in one block.

The workloads differ in the cohort shape, which decides the stage that
dominates. All calls into the package go through module attributes, so
the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from histodistill import checkpoint, cli, datasets, geneselect, training
from histodistill import io as hio
from histodistill import model as hmodel

import tracing


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict              # SynthConfig fields
    train: dict              # TrainConfig fields, passed through --config
    cross_validate: bool     # else `train --fold 0`
    # (lo, hi): bag sizes are an evenly spaced grid over [lo, hi], dealt to
    # patients in seed order, so seeds change content but not total work.
    size_grid: tuple[int, int] | None = None


# Why each workload exists: BENCHMARK.json and DESIGN.md. wsi and prep
# train for more Adam steps than the default accumulation gives their
# small training sets, so their c-index comes from a trained model.
WORKLOADS = {w.name: w for w in (
    Workload("cv_small_bags", {}, {"epochs": 1}, True),
    Workload("wsi_large_bags", {"n_patients": 60},
             {"epochs": 3, "accumulation": 4}, False, size_grid=(1024, 4096)),
    Workload("prep_wide_genome",
             {"patch_range": (8, 16), "gene_counts": (100, 300, 500, 350, 500, 450)},
             {"epochs": 2, "accumulation": 8}, False),
)}


def _deal_sizes(cohort, lo: int, hi: int, seed: int) -> None:
    grid = np.round(np.linspace(lo, hi, len(cohort))).astype(int)
    for patient, size in zip(cohort, np.random.default_rng([seed, 1]).permutation(grid)):
        patient.bag.features = patient.bag.features[:size].copy()


SETUP_REPEATS = 5
MIN_PASSES = 2
# Share of a timed run given to training calls; rounds fill the rest.
TRAIN_SHARE = 0.5
# In a timed round, prep and predict repeat until each has run this long,
# and predict for at least PREDICT_ROUND_CALLS calls; eval runs once.
ROUND_STAGE_S = 0.25
PREDICT_ROUND_CALLS = 20
MIN_PREDICT_CALLS = 100
BITWISE_BAGS = 8


def _no_stage(name):
    return contextlib.nullcontext()


class Ops:
    """Operations attempted, and the output checks that failed.

    An operation is a CLI call, a training patient step, a predict call or
    a fold's gene selection; a failed check counts as a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


class _Stopwatch:
    """Training throughput, one sample per accumulation group.

    `train_model` zeroes the gradients when an accumulation group starts
    and steps the optimizer when it ends; the time between the two and the
    group's patient count give one rate. When a call's optimizer steps do
    not match the groups its config implies, the whole call gives one rate
    instead, and `whole_calls` counts it.
    """

    def __init__(self):
        self.rates: list[float] = []
        self.steps = 0
        self.whole_calls = 0
        self._sizes: list[int] | None = None
        self._group_rates: list[float] = []
        self._group_start = 0.0

    def wrappers(self) -> dict:
        return {"training.train_model": self._train_model,
                "training.Adam.zero_grad": self._zero_grad,
                "training.Adam.step": self._step}

    def _train_model(self, name, fn):
        def timed(model, cohort, train_idx, bins, config, *args, **kwargs):
            n, acc = len(train_idx), config.accumulation
            self._sizes = [min(acc, n - s) for s in range(0, n, acc)] * config.epochs
            self._group_rates = []
            start = time.perf_counter()
            result = fn(model, cohort, train_idx, bins, config, *args, **kwargs)
            elapsed = time.perf_counter() - start
            steps = n * config.epochs
            if len(self._group_rates) == len(self._sizes):
                self.rates.extend(self._group_rates)
            else:
                self.rates.append(steps / elapsed)
                self.whole_calls += 1
            self._sizes = None
            self.steps += steps
            return result
        return timed

    def _zero_grad(self, name, fn):
        def timed(*args, **kwargs):
            self._group_start = time.perf_counter()
            return fn(*args, **kwargs)
        return timed

    def _step(self, name, fn):
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            done = len(self._group_rates)
            if self._sizes is not None and done < len(self._sizes):
                self._group_rates.append(
                    self._sizes[done] / (time.perf_counter() - self._group_start))
            return result
        return timed


@dataclass
class PassResult:
    wall_s: float                # the training call and its rounds
    train_wall_s: float
    train_patients_per_s: list   # one per accumulation group
    prep_wall_s: list            # one per prep repetition
    eval_patients_per_s: list    # one per eval call
    latencies_ms: list           # one per predict call
    rounds: int
    c_index_mean: float
    retained_ratio: float
    fingerprint: tuple = field(repr=False)


@dataclass
class _Pass:
    """A pass in progress: its trained checkpoint and what its rounds measured."""
    out: Path
    start: float
    train_wall_s: float
    first_rate: int              # its first entry in the stopwatch's rates
    folds_ci: tuple
    ckpt: object                 # the reloaded fold-0 checkpoint
    cohort: object               # the image-only cohort
    prep_wall_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    risks: list = field(default_factory=list)    # of the first BITWISE_BAGS calls
    retained: list | None = None
    eval_ci: float | None = None
    rounds: int = 0


class Bench:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        synth = dict(workload.synth)
        if workload.size_grid is not None:
            synth["patch_range"] = (workload.size_grid[1],) * 2
        self.synth = datasets.SynthConfig(**synth)
        self.train = training.TrainConfig(**workload.train, seed=seed)
        self.ops = Ops()
        self.stopwatch = _Stopwatch()
        self._patches = tracing.install(self.stopwatch.wrappers())
        self.data_dir: Path | None = None
        self._pass: _Pass | None = None

    def close(self) -> None:
        tracing.uninstall(self._patches)

    # -- set-up ------------------------------------------------------------

    def setup(self, index: int) -> float:
        data = self.work_dir / f"setup{index}"
        start = time.perf_counter()
        cohort, _ = datasets.synth_generate(self.synth, self.seed)
        if self.workload.size_grid is not None:
            _deal_sizes(cohort, *self.workload.size_grid, self.seed)
        manifest_path = hio.write_cohort(data / "cohort", cohort, name="cohort")
        manifest = json.loads(manifest_path.read_text())
        image_only = {
            "clinical": f"../cohort/{manifest['clinical']}",
            "bags": {pid: f"../cohort/{rel}" for pid, rel in manifest["bags"].items()},
            "genomics": "absent_genomics.tsv",
            "gene_categories": "absent_gene_categories.tsv",
        }
        (data / "imageonly").mkdir()
        (data / "imageonly" / "cohort_manifest.json").write_text(json.dumps(image_only))
        (data / "config.json").write_text(
            json.dumps({"train": self.workload.train}))
        elapsed = time.perf_counter() - start
        self.n_patients = len(cohort)
        self.data_dir = data
        return elapsed

    @property
    def _manifest(self) -> Path:
        return self.data_dir / "cohort" / "cohort_manifest.json"

    @property
    def _image_only(self) -> Path:
        return self.data_dir / "imageonly" / "cohort_manifest.json"

    # -- runs --------------------------------------------------------------

    def run_pass(self, index: int, tracer=None) -> PassResult:
        """One training call and one round in which prep and eval run once
        and predict runs whole cycles over the bags, at least
        MIN_PREDICT_CALLS calls; call counts do not depend on speed."""
        stage = tracer.stage if tracer is not None else _no_stage
        self.begin_pass(index, stage)
        self.run_round(stage, once=True)
        return self.end_pass()

    def run_timed(self, seconds: float) -> list[PassResult]:
        """Passes for about `seconds`, at least MIN_PASSES of them.

        Training calls take about TRAIN_SHARE of the time. The first call's
        length decides how many passes fit; pass k's rounds then run until
        k + 1 equal slices of `seconds` are spent, so the rounds are spread
        over the whole run.
        """
        start = time.perf_counter()
        passes: list[PassResult] = []
        planned = MIN_PASSES
        while len(passes) < planned:
            self.begin_pass(len(passes))
            if not passes:
                planned = max(MIN_PASSES, round(
                    seconds * TRAIN_SHARE / self._pass.train_wall_s))
            last = len(passes) + 1 == planned
            window_end = start + seconds * (len(passes) + 1) / planned
            while True:
                self.run_round()
                calls = sum(len(p.latencies_ms) for p in passes)
                calls += len(self._pass.latencies_ms)
                if time.perf_counter() >= window_end and (
                        not last or calls >= MIN_PREDICT_CALLS):
                    break
            passes.append(self.end_pass())
        return passes

    # -- one pass ----------------------------------------------------------

    def _cli(self, argv: list[str]) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        self.ops.attempted += 1
        self.ops.check(code == 0, f"histodistill {argv[0]} exited {code}")
        return elapsed

    def begin_pass(self, index: int, stage=_no_stage) -> None:
        """Trains, checks the training outputs and loads the fold-0
        checkpoint and the image-only cohort for the rounds."""
        out = self.work_dir / f"pass{index}"
        out.mkdir(parents=True)
        start = time.perf_counter()
        first_rate, steps = len(self.stopwatch.rates), self.stopwatch.steps
        common = ["--config", str(self.data_dir / "config.json"),
                  "--seed", str(self.seed), "--manifest", str(self._manifest),
                  "--out-dir", str(out / "train")]
        with stage("bench.train"):
            if self.workload.cross_validate:
                train_wall_s = self._cli(["cross-validate", *common])
            else:
                train_wall_s = self._cli(["train", "--fold", "0", *common])
        self.ops.attempted += self.stopwatch.steps - steps
        folds_ci = self._check_train_outputs(out / "train")
        with stage("bench.predict"):
            ckpt = checkpoint.load_checkpoint(out / "train" / "fold0.ghck")
            cohort = hio.load_cohort(self._image_only, with_genomics=False)
        self._pass = _Pass(out=out, start=start, train_wall_s=train_wall_s,
                           first_rate=first_rate, folds_ci=folds_ci,
                           ckpt=ckpt, cohort=cohort)

    def run_round(self, stage=_no_stage, once: bool = False) -> None:
        """Prep, eval and predict of the current pass. Timed rounds repeat
        prep and predict for ROUND_STAGE_S each; with `once`, see run_pass."""
        p = self._pass
        ops = self.ops
        with stage("bench.prep"):
            spent = 0.0
            while True:
                elapsed, retained = self._prep(p.out)
                p.prep_wall_s.append(elapsed)
                spent += elapsed
                if p.retained is None:
                    p.retained = retained
                ops.check(retained == p.retained, "repeated gene selection differs")
                if once or spent >= ROUND_STAGE_S:
                    break

        with stage("bench.eval"):
            p.eval_s.append(self._cli(["eval", "--checkpoint",
                                       str(p.out / "train" / "fold0.ghck"),
                                       "--manifest", str(self._image_only),
                                       "--out-dir", str(p.out / "eval")]))
        evaluated = json.loads((p.out / "eval" / "eval_metrics.json").read_text())
        ops.check(0.0 <= evaluated["c_index"] <= 1.0,
                  f"eval c-index {evaluated['c_index']} outside [0, 1]")
        ops.check(evaluated["n_patients"] == self.n_patients,
                  f"eval scored {evaluated['n_patients']} of {self.n_patients}")
        if p.eval_ci is None:
            p.eval_ci = evaluated["c_index"]
        ops.check(evaluated["c_index"] == p.eval_ci, "repeated eval c-index differs")

        with stage("bench.predict"):
            self._predict(p, once)
        p.rounds += 1

    def _predict(self, p: _Pass, once: bool) -> None:
        """Single-bag predict calls, cycling over the cohort's bags. Timed
        rounds run ROUND_STAGE_S and PREDICT_ROUND_CALLS; `once` runs whole
        cycles, at least MIN_PREDICT_CALLS calls. The first BITWISE_BAGS
        risks are kept."""
        ops = self.ops
        bags = [patient.bag.features for patient in p.cohort]
        first = len(p.latencies_ms)
        spent_ns = 0
        while True:
            calls = len(p.latencies_ms)
            start = time.perf_counter_ns()
            out = hmodel.predict(p.ckpt.model, bags[calls % len(bags)])
            elapsed = time.perf_counter_ns() - start
            p.latencies_ms.append(elapsed / 1e6)
            spent_ns += elapsed
            ops.attempted += 1
            h = out.hazards
            ops.check(np.all(np.isfinite(h)) and np.all((h > 0) & (h < 1)),
                      f"hazards {h} not finite in (0, 1)")
            if calls < BITWISE_BAGS:
                p.risks.append(out.risk)
            calls += 1
            if once:
                if calls % len(bags) == 0 and calls >= MIN_PREDICT_CALLS:
                    return
            elif (spent_ns >= ROUND_STAGE_S * 1e9 and calls >= BITWISE_BAGS
                  and calls - first >= PREDICT_ROUND_CALLS):
                return

    def end_pass(self) -> PassResult:
        """Checks predict against evaluate and closes the current pass."""
        p = self._pass
        n = min(BITWISE_BAGS, len(p.cohort))
        reference = training.evaluate(p.ckpt, p.cohort, np.arange(n))
        self.ops.check(np.array_equal(reference.risks, np.asarray(p.risks[:n])),
                       "predict risk differs from evaluate on the reloaded checkpoint")
        shutil.rmtree(p.out)
        self._pass = None
        n_genes = sum(self.n_genes)
        if self.workload.cross_validate:
            c_index_mean = p.folds_ci[0]
        else:
            c_index_mean = p.eval_ci
        return PassResult(
            wall_s=time.perf_counter() - p.start,
            train_wall_s=p.train_wall_s,
            train_patients_per_s=self.stopwatch.rates[p.first_rate:],
            prep_wall_s=p.prep_wall_s,
            eval_patients_per_s=[self.n_patients / t for t in p.eval_s],
            latencies_ms=p.latencies_ms,
            rounds=p.rounds,
            c_index_mean=c_index_mean,
            retained_ratio=sum(map(sum, p.retained)) / (n_genes * len(p.retained)),
            fingerprint=(p.folds_ci, p.eval_ci, tuple(p.retained), tuple(p.risks[:n])),
        )

    def _prep(self, out: Path) -> tuple[float, list]:
        """The gene-panel stage of every fold; returns (seconds, retained sizes)."""
        ops = self.ops
        cfg = self.train
        start = time.perf_counter()
        cohort = hio.load_cohort(self._manifest)
        folds = datasets.make_folds(cohort, cfg.seed, cfg.n_folds)
        retained = []
        for fold, (train_idx, _) in enumerate(folds):
            selection = training.select_genes(cohort, train_idx, cfg)
            matrices = training.expression_matrices(cohort, train_idx)
            training.GeneStandardizer.fit(
                [m[c.retained] for m, c in zip(matrices, selection.categories)])
            geneselect.write_selection_report(
                out / f"prep_fold{fold}.tsv", selection, cohort.gene_ids,
                cohort.category_names)
            retained.append(selection.retained_sizes())
        elapsed = time.perf_counter() - start
        ops.attempted += len(folds)
        self.n_genes = cohort.category_sizes
        for fold, sizes in enumerate(retained):
            ops.check(min(sizes) >= cfg.min_genes_per_category,
                      f"fold {fold}: retained {sizes} < {cfg.min_genes_per_category}")
            rows = (out / f"prep_fold{fold}.tsv").read_text().count("\n")
            ops.check(rows == sum(self.n_genes) + 1,
                      f"fold {fold}: report has {rows} lines")
        return elapsed, retained

    def _check_train_outputs(self, out: Path) -> tuple:
        ops = self.ops
        if self.workload.cross_validate:
            metrics = json.loads((out / "metrics.json").read_text())
            per_fold = [f["c_index"] for f in metrics["folds"]]
            mean = metrics["c_index_mean"]
            ops.check(0.0 <= mean <= 1.0, f"c_index_mean {mean} outside [0, 1]")
            ops.check(mean == float(np.mean(per_fold)),
                      f"c_index_mean {mean} != mean of folds {per_fold}")
            for f in metrics["folds"]:
                ops.check(min(f["retained_genes"]) >= self.train.min_genes_per_category,
                          f"fold {f['fold']}: retained {f['retained_genes']}")
            return (mean, tuple(per_fold))
        metrics = json.loads((out / "fold0_metrics.json").read_text())
        ops.check(0.0 <= metrics["c_index"] <= 1.0,
                  f"fold 0 c-index {metrics['c_index']} outside [0, 1]")
        return (metrics["c_index"], (metrics["c_index"],))

    def check_repeats(self, passes: list[PassResult]) -> None:
        """Same seed, same inputs: every pass must reproduce the first."""
        for i, p in enumerate(passes[1:], start=1):
            self.ops.check(p.fingerprint == passes[0].fingerprint,
                           f"pass {i} results differ from pass 0 with the same seed")
