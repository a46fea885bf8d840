"""Training loop, cross-validation, and the analysis exports.

Training accumulates gradients over groups of patients before each Adam
step, each patient's loss scaled by the group size so a step sees the
group mean. Within a group, consecutive patients in the shuffled order
are packed into stacks that run as one forward and one backward: bags are
ragged, so per-patch layers see the stack's packed patch rows and the
per-patient mixers a padded layout with a patch mask (`model.stack_forward`).
A stack grows while its patch rows stay within ROW_BUDGET, which holds a
whole default group; a bag larger than that trains alone, and slide-scale
bags train alone or two to a stack. `autodiff.backward` consumes each
stack's tape as it walks it, and the loop drops the stack's losses once
it has read them, so no stack's tape outlives its backward. A fold's
gene targets are its training split's selected genes, standardized by a
fit on those same matrices (`gene_targets`).

Evaluation is image-only and runs no-grad stacks too (`inference_stacks`):
bags sorted by length, each stack holding bags of one aligned length
under ROW_BUDGET. On the BLAS kernels `autodiff._row_invariant_product`
names, a patient's forward is bit-identical in such a stack and alone, so
`evaluate` gives every patient the risk one-bag `predict` gives, whatever
subset or order of patients it scores, and a Spearman report reads the
gene reconstructions off the same stacks. Validation metrics are always
computed from the saved checkpoint after reloading it, so `eval`
on the same file reproduces them exactly. Checkpoints and JSON outputs are
written to a temporary file and renamed into place, so an interrupted run
never leaves a truncated one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import stats
from .autodiff import GraphError
from .checkpoint import CheckpointData, load_checkpoint, save_checkpoint
from .datasets import Cohort, check_validation_fold, discretize_survival, make_folds
from .errors import ConfigError, TrainingError
from .geneselect import (GeneSelection, differential_select, split_risk_groups,
                         write_selection_report)
from .blocks import aligned
from .io import write_atomic
# `predict` is not called here, but stays importable from this module: the
# benchmark's tracer (perfbench/tracing.py) rebinds it here by name.
from .model import (Architecture, ModelConfig, ModelParams, build_model,
                    hazard_output, model_forward, nll_loss, predict,
                    reconstruction_loss, stack_forward, total_loss)

SWEEP_K_GRID = (10, 15, 20, 25, 30, 35)

# Most patch rows one stack may hold: the default accumulation group (32
# bags) at the default cohort's largest bag (96 patches), so every default
# group trains as one stack. Each stack costs a fixed few milliseconds of
# per-node overhead, so larger stacks train more patients per second.
# Backward releases each stack's tape as it walks it, so one stack's tape
# is alive at a time, but that tape grows with the stack's patients.
# The benchmark's cross-validation of the default cohort peaks 6-7% higher
# in RSS than at a 1024-row budget (stacks of about 16 patients), 66.0
# against 61.5 MB on a 2-core Xeon; the survival gate's backward, the
# largest transient of a step, works in place. Slide-scale bags (>= 1024
# patches) train alone, or two to a stack when they fit.
ROW_BUDGET = 3072


@dataclass
class TrainConfig(Architecture):
    """Training, cross-validation and gene selection settings, and the model's."""
    lr: float = 2e-4
    epochs: int = 20
    accumulation: int = 32
    alpha: float = 0.3
    seed: int = 0
    n_folds: int = 5
    gene_selection: bool = True
    select_alpha: float = 0.05
    min_genes_per_category: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.lr <= 0 or self.epochs < 1 or self.accumulation < 1:
            raise ConfigError("lr, epochs, and accumulation must be positive")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.n_folds < 2:
            raise ConfigError("n_folds must be at least 2")

    def model_config(self, feature_dim: int,
                     category_sizes: tuple[int, ...]) -> ModelConfig:
        """The model's config: this config's architecture, the cohort's shapes."""
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(Architecture)}
        return ModelConfig(feature_dim=feature_dim, category_sizes=category_sizes,
                           **shared)


class Adam:
    """Standard Adam with bias correction; state lives per parameter."""

    def __init__(self, params: Sequence[ad.Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self) -> None:
        ad.zero_grads(self.params)

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            m_hat = m / correction1
            v_hat = v / correction2
            p.assign_(p.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))


# ---------------------------------------------------------------------------
# gene targets
# ---------------------------------------------------------------------------

@dataclass
class GeneStandardizer:
    """Per-gene z-scoring frozen from the training split."""
    means: tuple[np.ndarray, ...]
    stds: tuple[np.ndarray, ...]

    @classmethod
    def fit(cls, expression: Sequence[np.ndarray]) -> "GeneStandardizer":
        """`expression` holds (n_genes, n_train_patients) per category."""
        means, stds = [], []
        for matrix in expression:
            matrix = np.asarray(matrix, dtype=np.float64)
            means.append(matrix.mean(axis=1))
            stds.append(np.maximum(matrix.std(axis=1), 1e-8))
        return cls(tuple(means), tuple(stds))

    def transform(self, vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [(np.asarray(v) - m) / s
                for v, m, s in zip(vectors, self.means, self.stds)]

    def inverse(self, vectors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [np.asarray(v) * s + m
                for v, m, s in zip(vectors, self.means, self.stds)]

    def to_dict(self) -> dict:
        return {"mean": [m.tolist() for m in self.means],
                "std": [s.tolist() for s in self.stds]}

    @classmethod
    def from_dict(cls, raw: dict) -> "GeneStandardizer":
        return cls(tuple(np.asarray(m, dtype=np.float64) for m in raw["mean"]),
                   tuple(np.asarray(s, dtype=np.float64) for s in raw["std"]))


def expression_matrices(cohort: Cohort, indices: np.ndarray) -> list[np.ndarray]:
    """Per-category (n_genes, n_patients) matrices over the given patients:
    writable C-order copies, column j for indices[j]."""
    if cohort.expression is None:
        raise ConfigError("cohort carries no expression matrices")
    return [m.take(indices, axis=1) for m in cohort.expression]


def select_genes(cohort: Cohort, train_idx: np.ndarray,
                 config: TrainConfig) -> GeneSelection | None:
    """Differential selection on the training split; None when bypassed."""
    if not config.gene_selection or cohort.category_sizes is None:
        return None
    times = cohort.times()[train_idx]
    censor = cohort.censor_flags()[train_idx]
    groups = split_risk_groups(times, censor)
    return differential_select(expression_matrices(cohort, train_idx), groups,
                               alpha=config.select_alpha,
                               min_per_category=config.min_genes_per_category)


def gene_targets(cohort: Cohort, indices: np.ndarray, selection: GeneSelection | None
                 ) -> tuple[GeneStandardizer, list[np.ndarray]]:
    """Standardizer fit on the patients' selected genes, and their standardized
    targets: one (n_patients, n_genes) matrix per category, row j for indices[j].
    """
    matrices = expression_matrices(cohort, indices)
    if selection is not None:
        matrices = [m[sel.retained] for m, sel in zip(matrices, selection.categories)]
    standardizer = GeneStandardizer.fit(matrices)
    return standardizer, standardizer.transform([m.T for m in matrices])


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainEntry:
    """One training patient: bag, discretized outcome and gene targets."""
    pid: str
    bag: np.ndarray
    interval: int
    censor: int
    targets: list[np.ndarray] | None    # standardized, one vector per category


@dataclass
class StackLoss:
    """A stack's losses, each summed over its patients."""
    total: ad.Tensor
    nll: ad.Tensor
    recon: ad.Tensor | None


def pack_stacks(lengths: Sequence[int]) -> list[list[int]]:
    """Split positions 0..len-1 into runs whose lengths sum to <= ROW_BUDGET.

    Runs keep the given order; a single length above the budget is a run
    of its own.
    """
    stacks: list[list[int]] = []
    rows = 0
    for pos, n in enumerate(lengths):
        if not stacks or rows + n > ROW_BUDGET:
            stacks.append([])
            rows = 0
        stacks[-1].append(pos)
        rows += n
    return stacks


def inference_stacks(lengths: Sequence[int]) -> list[list[int]]:
    """Positions 0..len-1 grouped into no-grad inference stacks.

    Sorted by length (ties keep their order), then cut wherever the aligned
    length changes and wherever `pack_stacks` would close a stack. Every
    bag of a stack therefore shares one aligned length, which is what makes
    each patient's forward in it bit-identical to its one-bag forward.
    """
    order = sorted(range(len(lengths)), key=lambda pos: lengths[pos])
    stacks: list[list[int]] = []
    for _, run in itertools.groupby(order, key=lambda pos: aligned(lengths[pos])):
        run = list(run)
        stacks.extend([run[p] for p in stack]
                      for stack in pack_stacks([lengths[pos] for pos in run]))
    return stacks


def stack_loss(model: ModelParams, entries: Sequence[TrainEntry],
               config: TrainConfig, diagnostics: dict | None = None) -> StackLoss:
    """Forward a stack of patients and build their summed training losses."""
    result = stack_forward(model, [e.bag for e in entries])
    nll = nll_loss(result.hazards, [e.interval for e in entries],
                   [e.censor for e in entries])
    recon = None
    if entries[0].targets is not None:
        targets = [np.stack([e.targets[c] for e in entries])
                   for c in range(len(entries[0].targets))]
        recon = reconstruction_loss(result.recon, targets, gamma=config.gamma,
                                    diagnostics=diagnostics)
    return StackLoss(total_loss(nll, recon, alpha=config.alpha), nll, recon)


def train_model(model: ModelParams, cohort: Cohort, train_idx: np.ndarray,
                bins: np.ndarray, config: TrainConfig,
                targets: Sequence[np.ndarray] | None,
                shuffle_rng: np.random.Generator) -> list[dict]:
    """Optimizes `model` in place; returns the per-epoch loss trace.

    `targets` are the training split's `gene_targets`, row j for patient
    train_idx[j]; the gated baseline trains without them.
    """
    if not config.gated_baseline and targets is None:
        raise ConfigError("no genomics targets given; the full model trains "
                          "on standardized gene targets")
    entries = []
    for j, i in enumerate(train_idx):
        patient = cohort[int(i)]
        entries.append(TrainEntry(patient.patient_id, patient.bag.features,
                                  int(bins[int(i)]), int(patient.label.censor),
                                  None if config.gated_baseline
                                  else [t[j] for t in targets]))

    optimizer = Adam(model.tensors(), lr=config.lr)
    trace = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(entries))
        sums = {"total": 0.0, "nll": 0.0, "recon": 0.0}
        diagnostics = {"clamped_norms": 0}
        for start in range(0, len(order), config.accumulation):
            group = [entries[int(j)] for j in order[start:start + config.accumulation]]
            optimizer.zero_grad()
            scale = 1.0 / len(group)
            for positions in pack_stacks([e.bag.shape[0] for e in group]):
                stack = [group[p] for p in positions]
                try:
                    losses = stack_loss(model, stack, config, diagnostics)
                    ad.backward(ad.mul(losses.total, scale))
                except (ValueError, GraphError) as err:
                    ids = ", ".join(f"'{e.pid}'" for e in stack)
                    raise TrainingError(
                        f"epoch {epoch + 1}, patients {ids}: {err}") from err
                sums["total"] += losses.total.item()
                sums["nll"] += losses.nll.item()
                sums["recon"] += losses.recon.item() if losses.recon is not None else 0.0
                del losses      # nothing of this stack outlives its backward
            optimizer.step()
        trace.append({
            "epoch": epoch + 1,
            "total": sums["total"] / len(entries),
            "nll": sums["nll"] / len(entries),
            "recon": sums["recon"] / len(entries),
            "clamped_norms": diagnostics["clamped_norms"],
        })
    return trace


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    c_index: float
    logrank_stat: float
    logrank_p: float
    n_patients: int
    risks: np.ndarray
    s_mid: np.ndarray
    high_group: np.ndarray
    low_group: np.ndarray
    spearman: stats.SpearmanReport | None = None

    def to_dict(self) -> dict:
        out = {
            "c_index": self.c_index,
            "logrank_stat": self.logrank_stat,
            "logrank_p": self.logrank_p,
            "n_patients": self.n_patients,
        }
        if self.spearman is not None:
            out["spearman_mean"] = {
                name: float(m) for name, m in
                zip(self.spearman.category_names, self.spearman.means())}
        return out


def evaluate(ckpt: CheckpointData, cohort: Cohort,
             indices: np.ndarray | None = None,
             with_spearman: bool = False) -> EvalResult:
    """Image-only scoring of a cohort slice against its outcomes.

    Runs the bags as no-grad `inference_stacks`; each patient's risk is
    bit-equal to `predict` on its bag alone (see the module docstring for
    where that is checked), and lands at its position in `indices`.
    Genomic profiles are touched only when `with_spearman` asks for the
    reconstruction report, which reads the same stacks' heads, checking
    the cohort's gene panel (`reconstructed_genes`) before any forward.
    """
    if indices is None:
        indices = np.arange(len(cohort))
    indices = np.asarray(indices, dtype=np.int64)
    model = ckpt.model
    genes = reconstructed_genes(ckpt, cohort) if with_spearman else None
    mid = model.config.n_bins // 2
    bags = [cohort[int(i)].bag.features for i in indices]
    risks = np.empty(indices.size)
    s_mid = np.empty(indices.size)
    recon = (None if genes is None
             else [np.empty((indices.size, n)) for n in model.config.category_sizes])
    for stack in inference_stacks([bag.shape[0] for bag in bags]):
        with ad.no_grad():
            result = stack_forward(model, [bags[pos] for pos in stack])
            # the heads run in the grad mode of the first `recon` read
            if recon is not None:
                for rows, r in zip(recon, result.recon):
                    rows[stack] = r.values
        for pos, row in zip(stack, result.hazards.values):
            out = hazard_output(row)
            risks[pos] = out.risk
            s_mid[pos] = out.survival[mid]
        del result      # no stack's activations stay alive through the next
    times = cohort.times()[indices]
    censor = cohort.censor_flags()[indices]
    ci = stats.c_index(risks, times, censor)
    high, low = stats.split_by_median_risk(s_mid)
    stat, p = stats.log_rank(times[high], censor[high], times[low], censor[low])

    report = None
    if recon is not None:
        actual = [m[sel].T for m, sel in zip(expression_matrices(cohort, indices), genes)]
        if ckpt.standardization is not None:
            recon = GeneStandardizer.from_dict(ckpt.standardization).inverse(recon)
        names = ckpt.category_names or list(cohort.category_names)
        report = stats.spearman_report(list(zip(*recon)), list(zip(*actual)), names)
    return EvalResult(ci, stat, p, int(indices.size), risks, s_mid, high, low,
                      report)


def reconstructed_genes(ckpt: CheckpointData, cohort: Cohort) -> list[np.ndarray]:
    """The genes the checkpoint reconstructs, per category, as indices into
    the cohort's gene lists; a ConfigError when the cohort lacks any or
    lists another gene than the checkpoint names at one."""
    if ckpt.model.config.gated_baseline:
        raise ConfigError("a baseline checkpoint has no reconstruction heads")
    if cohort.category_sizes is None:
        raise ConfigError("spearman report needs genomics in the cohort")
    sizes = list(cohort.category_sizes)
    if ckpt.selected_genes is None:
        needed = list(ckpt.model.config.category_sizes)
        fits, bound = needed == sizes, ""
        selected = [np.arange(n) for n in sizes]
    else:
        needed = [max(genes, default=-1) + 1 for genes in ckpt.selected_genes]
        fits, bound = (len(needed) == len(sizes)
                       and all(n <= size for n, size in zip(needed, sizes))), "at least "
        selected = [np.asarray(s, dtype=np.int64) for s in ckpt.selected_genes]
    if not fits:
        raise ConfigError(f"gene categories have sizes {sizes}, but the "
                          f"checkpoint needs {bound}{needed}")
    for name, ids, genes, saved in zip(cohort.category_names, cohort.gene_ids,
                                       selected, ckpt.gene_ids or ()):
        for gene, want in zip(genes, saved):
            if ids[gene] != want:
                raise ConfigError(f"gene category '{name}' lists '{ids[gene]}' "
                                  f"where the checkpoint reconstructs '{want}'")
    return selected


# ---------------------------------------------------------------------------
# fold orchestration
# ---------------------------------------------------------------------------

def fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


@dataclass
class FoldRun:
    fold: int
    checkpoint_path: Path
    result: EvalResult
    trace: list[dict]
    retained_sizes: tuple[int, ...] | None
    val_idx: np.ndarray


def run_fold(cohort: Cohort, train_idx: np.ndarray, val_idx: np.ndarray,
             config: TrainConfig, boundaries: np.ndarray, bins: np.ndarray,
             fold: int, out_dir: Path) -> FoldRun:
    """Select genes, train, checkpoint, and score one fold."""
    needs_genes = not config.gated_baseline
    if needs_genes and cohort.category_sizes is None:
        raise ConfigError("the full model trains with genomics; this cohort has "
                          "none (set gated_baseline for image-only training)")

    selection = None
    standardizer = None
    targets = None
    selected_idx = None
    selected_ids = None
    category_names = list(cohort.category_names or ())
    category_sizes: tuple[int, ...] = ()
    if needs_genes:
        selection = select_genes(cohort, train_idx, config)
        standardizer, targets = gene_targets(cohort, train_idx, selection)
        category_sizes = tuple(t.shape[1] for t in targets)
        retained = ([sel.retained for sel in selection.categories] if selection
                    else [np.arange(n) for n in category_sizes])
        selected_idx = [r.tolist() for r in retained]
        selected_ids = [[ids[g] for g in r] for ids, r in zip(cohort.gene_ids, retained)]
        if selection is not None:
            write_selection_report(out_dir / f"fold{fold}_selection.tsv",
                                   selection, cohort.gene_ids, category_names)

    seed = fold_seed(config.seed, fold)
    model = build_model(config.model_config(cohort.feature_dim, category_sizes),
                        seed=seed)
    shuffle_rng = np.random.default_rng(seed + 1)
    trace = train_model(model, cohort, train_idx, bins, config, targets,
                        shuffle_rng)

    ckpt_path = out_dir / f"fold{fold}.ghck"
    save_checkpoint(
        ckpt_path, model, boundaries,
        standardization=standardizer.to_dict() if standardizer else None,
        selected_genes=selected_idx,
        category_names=category_names,
        gene_ids=selected_ids,
        train_config=config.to_dict(),
    )
    reloaded = load_checkpoint(ckpt_path)
    result = evaluate(reloaded, cohort, val_idx)
    trace_path = out_dir / f"fold{fold}_trace.json"
    write_json(trace_path, trace)
    return FoldRun(fold, ckpt_path, result, trace,
                   selection.retained_sizes() if selection else None, val_idx)


@dataclass
class CrossValidationResult:
    folds: list[FoldRun]
    c_index_mean: float
    c_index_std: float
    pooled_logrank_stat: float
    pooled_logrank_p: float
    metrics_path: Path


def cross_validate(cohort: Cohort, config: TrainConfig,
                   out_dir: str | Path) -> CrossValidationResult:
    """Stratified k-fold training with pooled out-of-fold risk grouping."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times = cohort.times()
    censor = cohort.censor_flags()
    boundaries, bins = discretize_survival(times, censor, config.n_bins)
    folds = make_folds(cohort, config.seed, config.n_folds)
    for fold, (_, val_idx) in enumerate(folds):
        check_validation_fold(cohort, val_idx, fold, len(folds))

    runs = []
    pooled_idx, pooled_s_mid = [], []
    for fold, (train_idx, val_idx) in enumerate(folds):
        run = run_fold(cohort, train_idx, val_idx, config, boundaries, bins,
                       fold, out_dir)
        runs.append(run)
        pooled_idx.append(val_idx)
        pooled_s_mid.append(run.result.s_mid)

    scores = np.array([run.result.c_index for run in runs])
    pooled_idx = np.concatenate(pooled_idx)
    pooled_s_mid = np.concatenate(pooled_s_mid)
    high, low = stats.split_by_median_risk(pooled_s_mid)
    high_idx, low_idx = pooled_idx[high], pooled_idx[low]
    stat, p = stats.log_rank(times[high_idx], censor[high_idx],
                             times[low_idx], censor[low_idx])
    km_path = out_dir / "km.tsv"
    stats.write_km_tsv(km_path, [
        ("high_risk", stats.km_curve(times[high_idx], censor[high_idx])),
        ("low_risk", stats.km_curve(times[low_idx], censor[low_idx])),
    ])

    metrics = {
        "folds": [{
            "fold": run.fold,
            "c_index": run.result.c_index,
            "logrank_stat": run.result.logrank_stat,
            "logrank_p": run.result.logrank_p,
            "n_validation": run.result.n_patients,
            "checkpoint": run.checkpoint_path.name,
            "retained_genes": list(run.retained_sizes) if run.retained_sizes
                              else None,
        } for run in runs],
        "c_index_mean": float(scores.mean()),
        "c_index_std": float(scores.std()),
        "pooled_logrank_stat": stat,
        "pooled_logrank_p": p,
        "km_tsv": km_path.name,
        "config": config.to_dict(),
    }
    metrics_path = out_dir / "metrics.json"
    write_json(metrics_path, metrics)
    return CrossValidationResult(runs, float(scores.mean()), float(scores.std()),
                                 stat, p, metrics_path)


def sweep_k(cohort: Cohort, config: TrainConfig, out_dir: str | Path,
            grid: Sequence[float] = SWEEP_K_GRID) -> list[dict]:
    """Cross-validation per masking percentage; TSV of c-indices."""
    configs = [replace(config, k_percent=float(k)) for k in grid]  # checks every k first
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg in configs:
        sub = cross_validate(cohort, cfg, out_dir / f"k{cfg.k_percent:g}")
        rows.append({"k": cfg.k_percent, "c_index_mean": sub.c_index_mean,
                     "c_index_std": sub.c_index_std})
    with StringIO() as fh:
        fh.write("k\tc_index_mean\tc_index_std\n")
        for row in rows:
            fh.write(f"{row['k']:g}\t{row['c_index_mean']!r}\t"
                     f"{row['c_index_std']!r}\n")
        data = fh.getvalue().encode()
    write_atomic(out_dir / "sweep_k.tsv", lambda out: out.write(data))
    return rows


# ---------------------------------------------------------------------------
# association export
# ---------------------------------------------------------------------------

def export_associations(ckpt: CheckpointData, bag_features: np.ndarray,
                        path: str | Path, top_n: int = 4) -> None:
    """TSV of raw and masked association rows plus top patch indices."""
    model = ckpt.model
    if model.config.gated_baseline:
        raise ConfigError("a baseline checkpoint has no association matrix")
    with ad.no_grad():
        result = model_forward(model, bag_features)
    scores = result.assoc_scores
    masked = result.diagnostics.masked_assoc
    names = ckpt.category_names or [f"category_{c}" for c in range(scores.shape[0])]
    with StringIO() as fh:
        for c, name in enumerate(names):
            fh.write("\t".join(["raw", name,
                                *(repr(float(v)) for v in scores[c])]) + "\n")
        for c, name in enumerate(names):
            fh.write("\t".join(["masked", name,
                                *(repr(float(v)) for v in masked[c])]) + "\n")
        n_top = min(top_n, scores.shape[1])
        for c, name in enumerate(names):
            top = np.argsort(-masked[c], kind="stable")[:n_top]
            fh.write("\t".join(["topk", name,
                                *(str(int(i)) for i in top)]) + "\n")
        data = fh.getvalue().encode()
    write_atomic(path, lambda out: out.write(data))


def write_json(path: str | Path, obj) -> None:
    """Sorted, indented JSON, replacing `path` only once fully written."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))
