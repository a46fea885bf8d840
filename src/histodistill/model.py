"""The two-branch survival model.

The association branch reconstructs per-category gene profiles from the
patch bag through two parameter-shared cross-attention rounds, exposing the
pre-softmax token/patch score matrix. The survival branch fuses detached,
top-k-masked association scores with gated-attention morphology weights,
pools the bag, and emits discrete-time hazards. Genomic data touches only
the training losses; inference consumes the bag alone.

One forward, `stack_forward`, serves a stack of B patients: per-patch
layers run on the packed patch rows, per-patient mixers on the padded
layout of `blocks.PatchLayout`, and token rows hold each patient's
n_tokens rows as one consecutive block. Under `no_grad`, on the BLAS
kernels `autodiff._row_invariant_product` names, a patient's hazards,
scores and weights come out bit-identical alone and in any stack whose
bags share its aligned length (see `PatchLayout`), so stacked inference
and one-bag `predict` agree exactly. The per-category
reconstruction heads run only when a caller reads `ForwardResult.recon`:
the training losses, the gradient checker and `eval --spearman` do, the
last in the same no-grad stacks as the hazards; plain inference does not.
`model_forward` is the one-bag case, with the stack axis dropped.

Neither branch projects the bag itself (see `blocks`). The stack's raw
rows are padded once, with a trailing ones column, into a
`blocks.BagStack`. The association cross-attention attends over them with
`in_w` composed into its key and value maps: the key map folds into the
queries and the value map applies after pooling, so no per-patch key or
value is formed. The survival gate's maps are `value_w` composed with
`u_w`/`v_w` (and `in_w` with each category gate's under `gated_recon`),
and its scores are one `autodiff.gated_scores` node over the packed raw
rows, laid out as one (B, 1, W) pooling row per bag. Pooled values are
the pooled raw rows projected by `value_w` (or `in_w`),
`blocks.pooled_projection`: every pooling row, morphology softmax, top-k
mask or their mean, sums to 1, so this equals pooling the projected rows
up to rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import ShapeError, Tensor
from .blocks import (BagStack, FfnParams, GatedAttentionParams, MhcaParams,
                     SnnHeadParams, linear)
from .errors import ConfigError


@dataclass
class ModelConfig:
    """Architecture hyperparameters and ablation switches."""
    feature_dim: int
    category_sizes: tuple[int, ...]
    width: int = 64
    heads: int = 2
    compress_width: int = 32
    n_bins: int = 4
    k_percent: float = 20.0
    gamma: float = 2.0
    score_head: int | None = None
    gated_recon: bool = False      # gated-attention feature generator variant
    cut_bridge: bool = False       # survival branch sees pooled features only
    assoc_only: bool = False       # aggregation from association scores alone
    gated_baseline: bool = False   # gated-attention pooling baseline, no branches

    def __post_init__(self):
        if self.feature_dim < 1 or self.width < 1 or self.compress_width < 1:
            raise ConfigError("widths must be positive")
        if self.n_bins < 1:
            raise ConfigError("n_bins must be positive")
        if not 0.0 < self.k_percent <= 100.0:
            raise ConfigError(f"k_percent must be in (0, 100], got {self.k_percent}")
        if self.gamma < 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if not self.gated_baseline and len(self.category_sizes) < 1:
            raise ConfigError("at least one gene category is required")

    @property
    def n_tokens(self) -> int:
        return len(self.category_sizes)

    @property
    def survival_width(self) -> int:
        return self.width if self.cut_bridge else 2 * self.width


# ---------------------------------------------------------------------------
# association branch
# ---------------------------------------------------------------------------

@dataclass
class AssocBranchParams:
    """Learnable tokens + one shared cross-attention + two FFNs + SNN heads."""
    in_w: Tensor
    in_b: Tensor
    tokens: Tensor
    mhca: MhcaParams
    ffn_first: FfnParams
    ffn_second: FfnParams
    heads: tuple[SnnHeadParams, ...]

    @classmethod
    def init(cls, rng, cfg: ModelConfig) -> "AssocBranchParams":
        in_w, in_b = blocks.linear_params(rng, cfg.feature_dim, cfg.width)
        tokens = blocks.init_tokens(rng, cfg.n_tokens, cfg.width)
        mhca = MhcaParams.init(rng, cfg.width, cfg.heads)
        ffn_first = FfnParams.init(rng, cfg.width)
        ffn_second = FfnParams.init(rng, cfg.width)
        heads = tuple(SnnHeadParams.init(rng, cfg.width, size)
                      for size in cfg.category_sizes)
        return cls(in_w, in_b, tokens, mhca, ffn_first, ffn_second, heads)

    def named_tensors(self, prefix: str = "assoc"):
        yield f"{prefix}.in_w", self.in_w
        yield f"{prefix}.in_b", self.in_b
        yield f"{prefix}.tokens", self.tokens
        yield from self.mhca.named_tensors(f"{prefix}.mhca")
        yield from self.ffn_first.named_tensors(f"{prefix}.ffn_first")
        yield from self.ffn_second.named_tensors(f"{prefix}.ffn_second")
        for i, head in enumerate(self.heads):
            yield from head.named_tensors(f"{prefix}.head{i}")


@dataclass
class GatedAssocBranchParams:
    """Variant generating per-category features by gated attention pooling."""
    in_w: Tensor
    in_b: Tensor
    gates: tuple[GatedAttentionParams, ...]
    heads: tuple[SnnHeadParams, ...]

    @classmethod
    def init(cls, rng, cfg: ModelConfig) -> "GatedAssocBranchParams":
        in_w, in_b = blocks.linear_params(rng, cfg.feature_dim, cfg.width)
        gates = tuple(GatedAttentionParams.init(rng, cfg.width)
                      for _ in range(cfg.n_tokens))
        heads = tuple(SnnHeadParams.init(rng, cfg.width, size)
                      for size in cfg.category_sizes)
        return cls(in_w, in_b, gates, heads)

    def named_tensors(self, prefix: str = "assoc"):
        yield f"{prefix}.in_w", self.in_w
        yield f"{prefix}.in_b", self.in_b
        for i, gate in enumerate(self.gates):
            yield from gate.named_tensors(f"{prefix}.gate{i}")
        for i, head in enumerate(self.heads):
            yield from head.named_tensors(f"{prefix}.head{i}")


@dataclass
class AssocOutput:
    first_pass: Tensor | None     # token features after round one (B * N_g, width)
    features: Tensor              # final per-category features (B * N_g, width)
    scores: np.ndarray            # pre-softmax association scores (B, N_g, W)


def reconstruct(heads: Sequence[SnnHeadParams], features: Tensor) -> tuple[Tensor, ...]:
    """Per-category gene reconstructions, each (B, len), from the association
    features (B * N_g, width): each category's head on that category's row
    of every patient."""
    rows = np.arange(features.shape[0] // len(heads)) * len(heads)
    return tuple(blocks.snn_forward(head, ad.gather_rows(features, rows + c))
                 for c, head in enumerate(heads))


def assoc_forward(params: AssocBranchParams, stack: BagStack,
                  score_head: int | None = None) -> AssocOutput:
    """Two cross-attention rounds with one shared parameter set.

    Both rounds attend over the same bags, so the key and value maps,
    each composed with the input projection `in_w`, are built once. The
    second round queries with tokens + round-one features; its
    pre-softmax scores are the exported association matrix.
    """
    keys = blocks.patch_keys(params.mhca, stack, params.in_w, params.in_b)
    batch = stack.layout.batch
    n_tokens, width = params.tokens.shape
    pooled, _ = blocks.mhca_forward(params.mhca, params.tokens, keys, score_head)
    first = blocks.ffn_forward(params.ffn_first, pooled)
    queries = ad.reshape(ad.add(ad.reshape(first, (batch, n_tokens, width)),
                                params.tokens), (batch * n_tokens, width))
    pooled2, scores = blocks.mhca_forward(params.mhca, queries, keys, score_head,
                                          per_bag=True)
    return AssocOutput(first, blocks.ffn_forward(params.ffn_second, pooled2), scores)


def gated_assoc_forward(params: GatedAssocBranchParams,
                        stack: BagStack) -> AssocOutput:
    """One gated pooling per category; its scores are the association rows.

    Every category pools the raw rows, and the pooled rows are projected
    by `in_w` once (see `blocks.pooled_projection`).
    """
    weight_rows = []
    score_rows = []
    for gate in params.gates:
        weights, scores = blocks.gated_attention_weights(gate, stack, params.in_w,
                                                         params.in_b)
        weight_rows.append(weights)
        score_rows.append(scores)
    features = blocks.pooled_projection(ad.concat(weight_rows, axis=1), stack,
                                        params.in_w, params.in_b)
    return AssocOutput(None, features, np.concatenate(score_rows, axis=1))


# ---------------------------------------------------------------------------
# survival branch
# ---------------------------------------------------------------------------

@dataclass
class SurvivalBranchParams:
    value_w: Tensor
    value_b: Tensor
    gate: GatedAttentionParams
    mhsa: MhcaParams
    ffn: FfnParams
    comp_w: Tensor
    comp_b: Tensor
    comp_gain: Tensor
    comp_bias: Tensor
    cls_w: Tensor
    cls_b: Tensor

    @classmethod
    def init(cls, rng, cfg: ModelConfig) -> "SurvivalBranchParams":
        value_w, value_b = blocks.linear_params(rng, cfg.feature_dim, cfg.width)
        gate = GatedAttentionParams.init(rng, cfg.width)
        wide = cfg.survival_width
        mhsa = MhcaParams.init(rng, wide, cfg.heads)
        ffn = FfnParams.init(rng, wide)
        comp_w, comp_b = blocks.linear_params(rng, wide, cfg.compress_width)
        comp_gain = ad.tensor(np.ones(cfg.compress_width), requires_grad=True)
        comp_bias = ad.tensor(np.zeros(cfg.compress_width), requires_grad=True)
        cls_w, cls_b = blocks.linear_params(
            rng, cfg.n_tokens * cfg.compress_width, cfg.n_bins)
        return cls(value_w, value_b, gate, mhsa, ffn,
                   comp_w, comp_b, comp_gain, comp_bias, cls_w, cls_b)

    def named_tensors(self, prefix: str = "survival"):
        yield f"{prefix}.value_w", self.value_w
        yield f"{prefix}.value_b", self.value_b
        yield from self.gate.named_tensors(f"{prefix}.gate")
        yield from self.mhsa.named_tensors(f"{prefix}.mhsa")
        yield from self.ffn.named_tensors(f"{prefix}.ffn")
        for fname in ("comp_w", "comp_b", "comp_gain", "comp_bias", "cls_w", "cls_b"):
            yield f"{prefix}.{fname}", getattr(self, fname)


@dataclass
class BaselineParams:
    """Gated-attention pooling straight to hazards; no genome involvement."""
    value_w: Tensor
    value_b: Tensor
    gate: GatedAttentionParams
    cls_w: Tensor
    cls_b: Tensor

    @classmethod
    def init(cls, rng, cfg: ModelConfig) -> "BaselineParams":
        value_w, value_b = blocks.linear_params(rng, cfg.feature_dim, cfg.width)
        gate = GatedAttentionParams.init(rng, cfg.width)
        cls_w, cls_b = blocks.linear_params(rng, cfg.width, cfg.n_bins)
        return cls(value_w, value_b, gate, cls_w, cls_b)

    def named_tensors(self, prefix: str = "baseline"):
        yield f"{prefix}.value_w", self.value_w
        yield f"{prefix}.value_b", self.value_b
        yield from self.gate.named_tensors(f"{prefix}.gate")
        yield f"{prefix}.cls_w", self.cls_w
        yield f"{prefix}.cls_b", self.cls_b


def topk_masked_softmax(scores: np.ndarray, k_percent: float,
                        lengths: Sequence[int] | None = None) -> np.ndarray:
    """Per row: softmax over the top k% of the patient's patches, zeros elsewhere.

    `scores` is (N_g, N_p) for one patient, or a padded (B, N_g, W) stack
    whose patient b has `lengths[b]` patches. Keeps
    m = max(1, round(k * N_p / 100)) entries per row from each patient's
    own N_p; score ties are broken toward the lower patch index. The kept
    entries are found by selection, not by sorting the whole row: the
    result equals the first m entries of a stable argsort. Rows of the
    result sum to 1 and pads get 0. A patient's rows come out the same
    bits whatever else the stack holds. The output is a plain array,
    detached from any gradient tape.
    """
    if not 0.0 < k_percent <= 100.0:
        raise ConfigError(f"k_percent must be in (0, 100], got {k_percent}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 2:
        return topk_masked_softmax(scores[None], k_percent, scores.shape[1:])[0]
    batch, rows, width = scores.shape
    keep = [min(n, max(1, round(k_percent * n / 100.0))) for n in lengths]
    m = max(keep)
    ranked = -scores
    if min(lengths) < width:
        pads = np.arange(width) >= np.asarray(lengths)[:, None]
        ranked[np.broadcast_to(pads[:, None, :], ranked.shape)] = np.inf
    # The first m columns of a stable argsort, by selection: each row's m-th
    # smallest value, every entry below it and the lowest-index entries equal
    # to it, then a stable sort of those m entries alone.
    cut = ranked.copy()
    cut.partition(m - 1)
    cut = cut[..., m - 1:m]
    chosen = ranked < cut
    tied = ranked == cut
    tied &= tied.cumsum(-1) <= m - chosen.sum(-1, keepdims=True)
    chosen |= tied
    # flat indices of each row's m entries, in patch order, then in rank order
    picks = chosen.ravel().nonzero()[0].reshape(batch, rows, m)
    order = ranked.take(picks).argsort(kind="stable")
    picks = picks.take(order + np.arange(0, picks.size, m).reshape(batch, rows, 1))
    kept = scores.take(picks)
    shifted = kept - kept[..., :1]
    if min(keep) < m:   # a short bag's entries beyond its own m
        dropped = np.arange(m) >= np.array(keep)[:, None, None]
        shifted[np.broadcast_to(dropped, shifted.shape)] = -np.inf
    np.exp(shifted, out=shifted)
    # A running sum: a pairwise `sum` over the m columns would group the
    # terms by the stack's widest m. Its last column is each patient's own
    # m-th entry, since every term beyond it is exactly 0.
    shifted /= shifted.cumsum(-1)[..., -1:]
    out = np.zeros(scores.shape)
    out.put(picks, shifted)
    return out


def fused_attention(morph_weights: Tensor, masked_assoc: np.ndarray) -> Tensor:
    """Mean of broadcast morphology weights and masked association rows.

    morph_weights is (..., 1, N_p) and sums to 1 over patches; each row of
    the (..., N_g, N_p) result is a distribution over patches (rows sum
    to 1).
    """
    return ad.mul(ad.add(morph_weights, masked_assoc), 0.5)


@dataclass
class SurvivalDiagnostics:
    morph_weights: np.ndarray | None
    masked_assoc: np.ndarray
    fused: np.ndarray


def survival_forward(params: SurvivalBranchParams, stack: BagStack,
                     scores: np.ndarray, features: Tensor | None, cfg: ModelConfig,
                     masked_assoc: np.ndarray | None = None,
                     ) -> tuple[Tensor, SurvivalDiagnostics]:
    """Hazards (B, n_bins) from the bags and the association-branch outputs.

    The masked association matrix is always consumed as a constant (the
    branch-to-branch gradient flows only through `features`); passing
    `masked_assoc` pins it explicitly, which the gradient checker uses.
    """
    if masked_assoc is None:
        masked_assoc = topk_masked_softmax(scores, cfg.k_percent, stack.layout.lengths)
    if cfg.assoc_only:
        morph = None
        fused = ad.tensor(masked_assoc)
    else:
        morph, _ = blocks.gated_attention_weights(params.gate, stack, params.value_w,
                                                  params.value_b)
        fused = fused_attention(morph, masked_assoc)
    pooled = blocks.pooled_projection(fused, stack, params.value_w, params.value_b)
    if cfg.cut_bridge or features is None:
        merged = pooled
    else:
        merged = ad.concat([pooled, features], axis=1)
    x = blocks.ffn_forward(params.ffn,
                           blocks.mhsa_forward(params.mhsa, merged, stack.layout.batch))
    compressed = ad.relu(ad.layer_norm(linear(x, params.comp_w, params.comp_b),
                                       params.comp_gain, params.comp_bias))
    flat = ad.reshape(compressed, (stack.layout.batch, cfg.n_tokens * cfg.compress_width))
    hazards = ad.sigmoid(linear(flat, params.cls_w, params.cls_b))
    morph_weights = None if morph is None else morph.values.swapaxes(1, 2).copy()
    diag = SurvivalDiagnostics(morph_weights, masked_assoc, fused.values.copy())
    return hazards, diag


def baseline_forward(params: BaselineParams, stack: BagStack) -> Tensor:
    weights, _ = blocks.gated_attention_weights(params.gate, stack, params.value_w,
                                                params.value_b)
    pooled = blocks.pooled_projection(weights, stack, params.value_w, params.value_b)
    return ad.sigmoid(linear(pooled, params.cls_w, params.cls_b))


# ---------------------------------------------------------------------------
# whole model
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    config: ModelConfig
    assoc: AssocBranchParams | GatedAssocBranchParams | None = None
    survival: SurvivalBranchParams | None = None
    baseline: BaselineParams | None = None

    def named_tensors(self):
        if self.assoc is not None:
            yield from self.assoc.named_tensors("assoc")
        if self.survival is not None:
            yield from self.survival.named_tensors("survival")
        if self.baseline is not None:
            yield from self.baseline.named_tensors("baseline")

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.tensors())


def build_model(cfg: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization of all learnable tensors."""
    rng = np.random.default_rng(seed)
    if cfg.gated_baseline:
        return ModelParams(cfg, baseline=BaselineParams.init(rng, cfg))
    assoc = (GatedAssocBranchParams.init(rng, cfg) if cfg.gated_recon
             else AssocBranchParams.init(rng, cfg))
    survival = SurvivalBranchParams.init(rng, cfg)
    return ModelParams(cfg, assoc=assoc, survival=survival)


@dataclass
class ForwardResult:
    hazards: Tensor                        # (B, n_bins)
    features: Tensor | None                # association features (B * N_g, width)
    assoc_scores: np.ndarray | None        # (B, N_g, W); (N_g, N_p) for one bag
    diagnostics: SurvivalDiagnostics | None
    heads: Sequence[SnnHeadParams] = ()    # the model's reconstruction heads

    @functools.cached_property
    def recon(self) -> tuple[Tensor, ...] | None:
        """Per-category reconstructions, each (B, len), or None without an
        association branch. The heads run on the first read, in the grad
        mode of that read; inference reads this only for a Spearman report,
        so it otherwise skips them."""
        return None if self.features is None else reconstruct(self.heads, self.features)


def stack_forward(model: ModelParams, bags: Sequence[np.ndarray],
                  masked_assoc: np.ndarray | None = None) -> ForwardResult:
    """Differentiable forward pass over a stack of patients' bags.

    The (N_p, feature_dim) bags are packed one after another and padded
    once, `BagStack.of`; row b of every output belongs to bags[b], and the
    padded outputs are (B, ..., W) with zeros at pads. `masked_assoc`,
    (B, N_g, W), pins the top-k mask, which the gradient checker uses.
    """
    stack = BagStack.of(bags)
    cfg = model.config
    if cfg.gated_baseline:
        hazards = baseline_forward(model.baseline, stack)
        return ForwardResult(hazards, None, None, None)
    if cfg.gated_recon:
        out = gated_assoc_forward(model.assoc, stack)
    else:
        out = assoc_forward(model.assoc, stack, cfg.score_head)
    hazards, diag = survival_forward(model.survival, stack, out.scores,
                                     out.features, cfg, masked_assoc)
    return ForwardResult(hazards, out.features, out.scores, diag, model.assoc.heads)


def model_forward(model: ModelParams, bag_features: np.ndarray,
                  masked_assoc: np.ndarray | None = None) -> ForwardResult:
    """Differentiable forward pass over one patient's bag.

    The one-bag stack of `stack_forward`; association scores and
    diagnostics come back without the stack axis and the pad columns,
    (N_g, N_p), and `masked_assoc` is passed the same way.
    """
    bag_features = np.asarray(bag_features)
    n = bag_features.shape[0]
    pinned = None
    if masked_assoc is not None:
        pinned = np.zeros((1, model.config.n_tokens, blocks.aligned(n)))
        pinned[0, :, :n] = masked_assoc
    result = stack_forward(model, [bag_features], pinned)
    if result.diagnostics is None:
        return result
    diag = result.diagnostics
    return ForwardResult(result.hazards, result.features, result.assoc_scores[0, :, :n],
                         SurvivalDiagnostics(
                             None if diag.morph_weights is None else diag.morph_weights[0, :n],
                             diag.masked_assoc[0, :, :n], diag.fused[0, :, :n]),
                         result.heads)


# ---------------------------------------------------------------------------
# hazards and losses
# ---------------------------------------------------------------------------

@dataclass
class HazardOutput:
    """Per-interval hazards, the survival curve, and the scalar risk."""
    hazards: np.ndarray
    survival: np.ndarray
    risk: float


def survival_curve(hazards: np.ndarray) -> np.ndarray:
    """S_j = prod_{t<=j} (1 - h_t); non-increasing, in (0, 1]."""
    return np.cumprod(1.0 - np.asarray(hazards, dtype=np.float64))


def risk_score(survival: np.ndarray) -> float:
    """Negated area under the discrete survival curve; higher = riskier."""
    return -float(np.sum(survival))


def hazard_output(hazards: np.ndarray) -> HazardOutput:
    s = survival_curve(hazards)
    return HazardOutput(np.asarray(hazards, dtype=np.float64).reshape(-1), s,
                        risk_score(s))


def predict(model: ModelParams, bag_features: np.ndarray) -> HazardOutput:
    """Image-only inference: consumes a patch bag, nothing else.

    The one-bag stack of `stack_forward`, so its hazards equal, bit for
    bit, the bag's row of any stack `training.evaluate` runs it in (on the
    BLAS kernels `autodiff._row_invariant_product` names).
    """
    with ad.no_grad():
        result = model_forward(model, bag_features)
    return hazard_output(result.hazards.values.reshape(-1))


_CLAMP = 1e-7


def nll_loss(hazards: Tensor, interval, censor) -> Tensor:
    """Discrete-time negative log likelihood, summed over patients.

    Row b of `hazards` belongs to the patient with interval[b] and
    censor[b]; one patient may pass plain ints. censor=0 pays
    -log S(y-1) - log h_y (event in interval y, having survived the ones
    before, with S(-1)=1); censor=1 pays -log S(y) (survived through
    interval y). Probabilities are clamped at 1e-7. The loss is one
    `autodiff.survival_nll` node.
    """
    batch, n_bins = hazards.shape
    interval = np.asarray(interval).reshape(-1)
    censor = np.asarray(censor).reshape(-1)
    if interval.shape != (batch,) or censor.shape != (batch,):
        raise ShapeError(f"{interval.size} intervals and {censor.size} censor "
                         f"flags for {batch} hazard rows")
    if not ((0 <= interval) & (interval < n_bins)).all():
        raise ShapeError(f"interval {interval} out of range for {n_bins} bins")
    if not np.isin(censor, (0, 1)).all():
        raise ValueError(f"censor flag must be 0 or 1, got {censor}")

    def one_hot(rows: np.ndarray, columns: np.ndarray) -> np.ndarray | None:
        if not rows.size:
            return None
        out = np.zeros((batch, n_bins))
        out[rows, columns] = 1.0
        return out

    rows = np.arange(batch)
    event = censor == 0
    survived = np.where(event, interval - 1, interval)   # -1: nothing survived
    pays_survival = survived >= 0
    return ad.survival_nll(hazards, one_hot(rows[event], interval[event]),
                           one_hot(rows[pays_survival], survived[pays_survival]),
                           _CLAMP)


def _category_targets(recon: Sequence[Tensor],
                      targets: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each category's targets as (B, len) rows, one per reconstruction row."""
    if len(recon) != len(targets):
        raise ShapeError(f"{len(recon)} reconstructions vs {len(targets)} targets")
    return [np.reshape(np.asarray(target, dtype=np.float64), (pred.shape[0], -1))
            for pred, target in zip(recon, targets)]


def mse_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray]) -> Tensor:
    """Squared error averaged within each category, then across categories.

    Each reconstruction is (B, len) with one row per patient, and its
    target holds the same rows (one patient may pass a flat vector); the
    result is summed over patients.
    """
    return ad.squared_error(recon, _category_targets(recon, targets))


def sce_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray],
             gamma: float = 2.0, diagnostics: dict | None = None) -> Tensor:
    """Scaled cosine error: mean over categories of (1 - cos)^gamma.

    Rows are patients, as in `mse_loss`, and the result is summed over
    them. Zero-norm vectors are evaluated with the norm clamped at 1e-12
    (`autodiff.NORM_FLOOR`), and a row whose prediction is clamped adds no
    gradient; the count of clamped rows, targets and predictions alike,
    lands in diagnostics["clamped_norms"] when a dict is supplied.
    """
    return ad.cosine_error(recon, _category_targets(recon, targets), gamma, diagnostics)


def reconstruction_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray],
                        gamma: float = 2.0, diagnostics: dict | None = None) -> Tensor:
    """MSE plus scaled cosine error."""
    return ad.add(mse_loss(recon, targets), sce_loss(recon, targets, gamma, diagnostics))


def total_loss(nll: Tensor, recon: Tensor | None, alpha: float = 0.3) -> Tensor:
    """Survival loss plus alpha-weighted reconstruction loss."""
    if recon is None:
        return nll
    return ad.add(nll, ad.mul(recon, alpha))
