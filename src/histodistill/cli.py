"""Command-line entry point.

Subcommands cover the whole pipeline: cohort synthesis, gene selection,
training, evaluation, cross-validation, the masking-percentage sweep,
association export, Kaplan-Meier export, and the gradient check. Exit
codes: 0 success, 1 invalid input or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import gradcheck, stats
from .autodiff import GradCheckError, GraphError
from .checkpoint import load_checkpoint
from .datasets import (SynthConfig, check_validation_fold, discretize_survival,
                       make_folds, synth_generate)
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     TrainingError, UndefinedResultError)
from .geneselect import differential_select, split_risk_groups, write_selection_report
from .io import load_cohort, read_bag, write_cohort
from .training import (SWEEP_K_GRID, TrainConfig, cross_validate, evaluate,
                       export_associations, run_fold, sweep_k, write_json)

_CONFIG_SECTIONS = ("train", "synth")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this CLI reserves 2 for runtime
    failures, so usage problems are downgraded to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: byte {err.object[err.start]:#04x} at offset "
                          f"{err.start} is not UTF-8") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}; "
                          f"expected {list(_CONFIG_SECTIONS)}")
    return raw


def _train_config(args) -> TrainConfig:
    cfg = TrainConfig.from_dict(_load_config(args.config).get("train", {}))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_feature_dim(ckpt, checkpoint_path: Path, source: Path, dim: int) -> None:
    expected = ckpt.model.config.feature_dim
    if dim != expected:
        raise ConfigError(f"{source}: bags have feature dim {dim}, but checkpoint "
                          f"{checkpoint_path} expects {expected}")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    config = SynthConfig.from_dict(_load_config(args.config).get("synth", {}))
    seed = args.seed if args.seed is not None else 0
    out = _out_dir(args)
    cohort, truth = synth_generate(config, seed)
    manifest = write_cohort(out, cohort, name="synthetic")
    write_json(out / "truth.json", {
        "risk_coeffs": truth.risk_coeffs.tolist(),
        "risks": truth.risks.tolist(),
        "mixtures": truth.mixtures.tolist(),
        "prototypes": truth.prototypes.tolist(),
        "gene_maps": [m.tolist() for m in truth.gene_maps],
        "driven_masks": [m.astype(int).tolist() for m in truth.driven_masks],
        "assignments": [a.tolist() for a in truth.assignments],
        "seed": seed,
    })
    censored = int(cohort.censor_flags().sum())
    print(f"wrote {manifest}")
    print(f"patients: {len(cohort)}, censored: {censored} "
          f"({100.0 * censored / len(cohort):.1f}%)")
    return 0


def _cmd_select_genes(args) -> int:
    cfg = _train_config(args)
    out = _out_dir(args)
    cohort = load_cohort(args.manifest)
    if cohort.category_sizes is None:
        raise ConfigError("the manifest has no genomics to select from")
    groups = split_risk_groups(cohort.times(), cohort.censor_flags())
    selection = differential_select(
        cohort.expression, groups,
        alpha=cfg.select_alpha, min_per_category=cfg.min_genes_per_category)
    report = out / "selection.tsv"
    write_selection_report(report, selection, cohort.gene_ids,
                           cohort.category_names)
    print(f"wrote {report}")
    for name, total, kept in zip(cohort.category_names, cohort.category_sizes,
                                 selection.retained_sizes()):
        print(f"{name}: {kept}/{total} retained")
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    out = _out_dir(args)
    cohort = load_cohort(args.manifest, with_genomics=not cfg.gated_baseline)
    boundaries, bins = discretize_survival(cohort.times(), cohort.censor_flags(),
                                           cfg.n_bins)
    folds = make_folds(cohort, cfg.seed, cfg.n_folds)
    if not 0 <= args.fold < len(folds):
        raise ConfigError(f"--fold {args.fold} out of range for "
                          f"{len(folds)} folds")
    train_idx, val_idx = folds[args.fold]
    check_validation_fold(cohort, val_idx, args.fold, len(folds))
    run = run_fold(cohort, train_idx, val_idx, cfg, boundaries, bins,
                   args.fold, out)
    write_json(out / f"fold{args.fold}_metrics.json", run.result.to_dict())
    print(f"wrote {run.checkpoint_path}")
    print(f"validation c-index: {run.result.c_index:.4f} "
          f"({run.result.n_patients} patients)")
    return 0


def _cmd_eval(args) -> int:
    out = _out_dir(args)
    ckpt = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, with_genomics=args.spearman)
    _check_feature_dim(ckpt, args.checkpoint, args.manifest, cohort.feature_dim)
    try:
        result = evaluate(ckpt, cohort, with_spearman=args.spearman)
    except ConfigError as err:
        raise ConfigError(f"{args.manifest} with checkpoint {args.checkpoint}: "
                          f"{err}") from err
    write_json(out / "eval_metrics.json", result.to_dict())
    if result.spearman is not None:
        stats.write_spearman_tsv(out / "spearman.tsv", result.spearman)
    print(f"c-index: {result.c_index:.4f} over {result.n_patients} patients")
    print(f"log-rank p (median-risk split): {result.logrank_p:.6g}")
    return 0


def _cmd_cross_validate(args) -> int:
    cfg = _train_config(args)
    out = _out_dir(args)
    cohort = load_cohort(args.manifest, with_genomics=not cfg.gated_baseline)
    result = cross_validate(cohort, cfg, out)
    per_fold = ", ".join(f"{run.result.c_index:.4f}" for run in result.folds)
    print(f"fold c-indices: {per_fold}")
    print(f"c-index mean: {result.c_index_mean:.4f} "
          f"+- {result.c_index_std:.4f}")
    print(f"pooled log-rank p: {result.pooled_logrank_p:.6g}")
    print(f"wrote {result.metrics_path}")
    return 0


def _cmd_sweep_k(args) -> int:
    cfg = _train_config(args)
    grid = SWEEP_K_GRID
    if args.grid:
        try:
            grid = tuple(float(v) for v in args.grid.split(","))
        except ValueError:
            raise ConfigError(f"--grid must be comma-separated numbers, "
                              f"got '{args.grid}'") from None
    for k in grid:      # every k is checked before the cohort loads
        replace(cfg, k_percent=k)
    cohort = load_cohort(args.manifest, with_genomics=not cfg.gated_baseline)
    out = _out_dir(args)
    rows = sweep_k(cohort, cfg, out, grid)
    for row in rows:
        print(f"k={row['k']:g}: c-index {row['c_index_mean']:.4f} "
              f"+- {row['c_index_std']:.4f}")
    print(f"wrote {out / 'sweep_k.tsv'}")
    return 0


def _cmd_export_assoc(args) -> int:
    out = _out_dir(args)
    ckpt = load_checkpoint(args.checkpoint)
    bag = read_bag(args.bag)
    _check_feature_dim(ckpt, args.checkpoint, args.bag, bag.feature_dim)
    path = out / "associations.tsv"
    export_associations(ckpt, bag.features, path)
    print(f"wrote {path}")
    return 0


def _cmd_km(args) -> int:
    out = _out_dir(args)
    ckpt = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, with_genomics=False)
    _check_feature_dim(ckpt, args.checkpoint, args.manifest, cohort.feature_dim)
    result = evaluate(ckpt, cohort)
    times = cohort.times()
    censor = cohort.censor_flags()
    high, low = result.high_group, result.low_group
    path = out / "km.tsv"
    stats.write_km_tsv(path, [
        ("high_risk", stats.km_curve(times[high], censor[high])),
        ("low_risk", stats.km_curve(times[low], censor[low])),
    ])
    write_json(out / "km_logrank.json", {
        "logrank_stat": result.logrank_stat,
        "logrank_p": result.logrank_p,
        "n_high": int(high.size),
        "n_low": int(low.size),
    })
    print(f"wrote {path}")
    print(f"log-rank p: {result.logrank_p:.6g}")
    return 0


def _cmd_grad_check(args) -> int:
    results = gradcheck.run_all()
    for name, err in results.items():
        print(f"{name}: {err:.3e}")
    worst = max(results.values())
    print(f"max relative error: {worst:.3e}")
    if worst >= args.tolerance:
        print(f"FAILED: exceeds tolerance {args.tolerance:g}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file with 'train' and/or 'synth' sections")
    common.add_argument("--seed", type=int, default=None,
                        help="seed override (default: config seed, else 0)")
    common.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for all outputs (default: ./out)")

    parser = _Parser(prog="histodistill",
                     description="Survival modeling over patch bags with "
                                 "genomic reconstruction distillation.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic cohort with planted structure")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("select-genes", parents=[common],
                       help="differential gene selection report for a cohort")
    p.add_argument("--manifest", type=Path, required=True)
    p.set_defaults(func=_cmd_select_genes)

    p = sub.add_parser("train", parents=[common],
                       help="train one cross-validation fold")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--fold", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="image-only evaluation of a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--spearman", action="store_true",
                   help="also score gene reconstruction (needs genomics files)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cross-validate", parents=[common],
                       help="full k-fold cross-validation")
    p.add_argument("--manifest", type=Path, required=True)
    p.set_defaults(func=_cmd_cross_validate)

    p = sub.add_parser("sweep-k", parents=[common],
                       help="cross-validate across masking percentages")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--grid", type=str, default=None,
                   help="comma-separated k values (default: "
                        + ",".join(str(k) for k in SWEEP_K_GRID) + ")")
    p.set_defaults(func=_cmd_sweep_k)

    p = sub.add_parser("export-assoc", parents=[common],
                       help="export association matrices for one bag")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--bag", type=Path, required=True)
    p.set_defaults(func=_cmd_export_assoc)

    p = sub.add_parser("km", parents=[common],
                       help="Kaplan-Meier export for a checkpoint's risk split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("grad-check", parents=[common],
                       help="finite-difference check of every gradient")
    p.add_argument("--tolerance", type=float, default=gradcheck.DEFAULT_TOLERANCE)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, UndefinedResultError, CheckpointError,
            FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (TrainingError, GraphError, GradCheckError, ArithmeticError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
