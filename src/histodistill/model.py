"""The two-branch survival model.

The association branch reconstructs per-category gene profiles from the
patch bag through two parameter-shared cross-attention rounds, exposing the
pre-softmax token/patch score matrix. The survival branch fuses detached,
top-k-masked association scores with gated-attention morphology weights,
pools the bag, and emits discrete-time hazards. Genomic data touches only
the training losses; inference consumes the bag alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import ShapeError, Tensor
from .blocks import (FfnParams, GatedAttentionParams, MhcaParams,
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
    first_pass: Tensor | None     # token features after round one
    features: Tensor              # final per-category features (N_g, width)
    scores: np.ndarray            # pre-softmax association scores (N_g, N_p)
    recon: tuple[Tensor, ...]     # per-category reconstructions, each (1, len)


def assoc_forward(params: AssocBranchParams, bag: Tensor,
                  score_head: int | None = None) -> AssocOutput:
    """Two cross-attention rounds with one shared parameter set.

    The second round queries with tokens + round-one features; its
    pre-softmax scores are the exported association matrix.
    """
    proj = linear(bag, params.in_w, params.in_b)
    pooled, _ = blocks.mhca_forward(params.mhca, params.tokens, proj, score_head)
    first = blocks.ffn_forward(params.ffn_first, pooled)
    pooled2, scores = blocks.mhca_forward(params.mhca, ad.add(params.tokens, first),
                                          proj, score_head)
    features = blocks.ffn_forward(params.ffn_second, pooled2)
    recon = tuple(blocks.snn_forward(head, ad.narrow(features, 0, i, 1))
                  for i, head in enumerate(params.heads))
    return AssocOutput(first, features, scores, recon)


def gated_assoc_forward(params: GatedAssocBranchParams, bag: Tensor) -> AssocOutput:
    proj = linear(bag, params.in_w, params.in_b)
    feature_rows = []
    score_rows = []
    for gate in params.gates:
        raw = blocks.gated_attention_scores(gate, proj)      # (N_p, 1)
        weights = ad.softmax(raw, axis=0)
        feature_rows.append(ad.matmul(ad.transpose(weights), proj))
        score_rows.append(raw.values.T)
    features = ad.concat(feature_rows, axis=0)
    scores = np.concatenate(score_rows, axis=0)
    recon = tuple(blocks.snn_forward(head, ad.narrow(features, 0, i, 1))
                  for i, head in enumerate(params.heads))
    return AssocOutput(None, features, scores, recon)


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


def topk_masked_softmax(scores: np.ndarray, k_percent: float) -> np.ndarray:
    """Per row: softmax over the top k% entries, zeros elsewhere.

    Keeps m = max(1, round(k * N_p / 100)) entries per row; score ties are
    broken toward the lower patch index. Rows of the result sum to 1. The
    output is a plain array, detached from any gradient tape.
    """
    if not 0.0 < k_percent <= 100.0:
        raise ConfigError(f"k_percent must be in (0, 100], got {k_percent}")
    n_patches = scores.shape[1]
    m = min(n_patches, max(1, round(k_percent * n_patches / 100.0)))
    out = np.zeros_like(scores, dtype=np.float64)
    for i in range(scores.shape[0]):
        row = scores[i]
        kept = np.argsort(-row, kind="stable")[:m]
        shifted = np.exp(row[kept] - row[kept].max())
        out[i, kept] = shifted / shifted.sum()
    return out


def fused_attention(morph_weights: Tensor, masked_assoc: np.ndarray) -> Tensor:
    """Mean of broadcast morphology weights and masked association rows.

    morph_weights is (N_p, 1) and sums to 1; each row of the result is a
    distribution over patches (rows sum to 1).
    """
    return ad.mul(ad.add(ad.transpose(morph_weights), masked_assoc), 0.5)


@dataclass
class SurvivalDiagnostics:
    morph_weights: np.ndarray | None
    masked_assoc: np.ndarray
    fused: np.ndarray


def survival_forward(params: SurvivalBranchParams, bag: Tensor, scores: np.ndarray,
                     features: Tensor | None, cfg: ModelConfig,
                     masked_assoc: np.ndarray | None = None,
                     ) -> tuple[Tensor, SurvivalDiagnostics]:
    """Hazard prediction from the bag and the association-branch outputs.

    The masked association matrix is always consumed as a constant (the
    branch-to-branch gradient flows only through `features`); passing
    `masked_assoc` pins it explicitly, which the gradient checker uses.
    """
    proj = linear(bag, params.value_w, params.value_b)
    if masked_assoc is None:
        masked_assoc = topk_masked_softmax(scores, cfg.k_percent)
    if cfg.assoc_only:
        morph = None
        fused = ad.tensor(masked_assoc)
    else:
        morph = blocks.gated_attention_weights(params.gate, proj)
        fused = fused_attention(morph, masked_assoc)
    pooled = ad.matmul(fused, proj)
    if cfg.cut_bridge or features is None:
        merged = pooled
    else:
        merged = ad.concat([pooled, features], axis=1)
    x = blocks.ffn_forward(params.ffn, blocks.mhsa_forward(params.mhsa, merged))
    compressed = ad.relu(ad.layer_norm(linear(x, params.comp_w, params.comp_b),
                                       params.comp_gain, params.comp_bias))
    flat = ad.reshape(compressed, (1, cfg.n_tokens * cfg.compress_width))
    hazards = ad.sigmoid(linear(flat, params.cls_w, params.cls_b))
    diag = SurvivalDiagnostics(None if morph is None else morph.values.copy(),
                               masked_assoc, fused.values.copy())
    return hazards, diag


def baseline_forward(params: BaselineParams, bag: Tensor) -> Tensor:
    proj = linear(bag, params.value_w, params.value_b)
    weights = blocks.gated_attention_weights(params.gate, proj)
    pooled = ad.matmul(ad.transpose(weights), proj)
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
    hazards: Tensor                        # (1, B)
    recon: tuple[Tensor, ...] | None
    assoc_scores: np.ndarray | None
    diagnostics: SurvivalDiagnostics | None


def model_forward(model: ModelParams, bag_features: np.ndarray,
                  masked_assoc: np.ndarray | None = None) -> ForwardResult:
    """Full differentiable forward pass over one patient's bag."""
    bag = ad.tensor(bag_features)
    cfg = model.config
    if cfg.gated_baseline:
        hazards = baseline_forward(model.baseline, bag)
        return ForwardResult(hazards, None, None, None)
    if cfg.gated_recon:
        out = gated_assoc_forward(model.assoc, bag)
    else:
        out = assoc_forward(model.assoc, bag, cfg.score_head)
    hazards, diag = survival_forward(model.survival, bag, out.scores,
                                     out.features, cfg, masked_assoc)
    return ForwardResult(hazards, out.recon, out.scores, diag)


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
    """Image-only inference: consumes a patch bag, nothing else."""
    with ad.no_grad():
        result = model_forward(model, bag_features)
    return hazard_output(result.hazards.values.reshape(-1))


_CLAMP = 1e-7


def nll_loss(hazards: Tensor, interval: int, censor: int) -> Tensor:
    """Discrete-time negative log likelihood for one patient.

    censor=0 pays -log S(y-1) - log h_y (event in interval y, having
    survived the ones before, with S(-1)=1); censor=1 pays -log S(y)
    (survived through interval y). Probabilities are clamped at 1e-7.
    """
    n_bins = hazards.shape[1]
    if not 0 <= interval < n_bins:
        raise ShapeError(f"interval {interval} out of range for {n_bins} bins")
    if censor not in (0, 1):
        raise ValueError(f"censor flag must be 0 or 1, got {censor}")

    def log_at(t: Tensor, j: int) -> Tensor:
        return ad.log(ad.clip_min(ad.narrow(t, 1, j, 1), _CLAMP))

    def log_survival(j: int) -> Tensor:
        return log_at(ad.cumprod(ad.sub(1.0, hazards)), j)

    if censor == 1:
        loss = ad.mul(log_survival(interval), -1.0)
    else:
        loss = ad.mul(log_at(hazards, interval), -1.0)
        if interval > 0:
            loss = ad.sub(loss, log_survival(interval - 1))
    return ad.sum_(loss)


def mse_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray]) -> Tensor:
    """Squared error averaged within each category, then across categories."""
    if len(recon) != len(targets):
        raise ShapeError(f"{len(recon)} reconstructions vs {len(targets)} targets")
    total = None
    for pred, target in zip(recon, targets):
        term = ad.squared_error(pred, np.reshape(target, (1, -1)))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(recon))


def sce_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray],
             gamma: float = 2.0, diagnostics: dict | None = None) -> Tensor:
    """Scaled cosine error: mean over categories of (1 - cos)^gamma.

    Zero-norm vectors are evaluated with the norm clamped at 1e-12
    (`autodiff.NORM_FLOOR`), and a category whose prediction is clamped
    adds no gradient; the occurrence count lands in
    diagnostics["clamped_norms"] when a dict is supplied.
    """
    if len(recon) != len(targets):
        raise ShapeError(f"{len(recon)} reconstructions vs {len(targets)} targets")
    clamped = 0
    total = None
    for pred, target in zip(recon, targets):
        target = np.asarray(target, dtype=np.float64).reshape(1, -1)
        for vector in (target, pred.values):
            if np.linalg.norm(vector) < ad.NORM_FLOOR:
                clamped += 1
        term = ad.cosine_error(pred, target, gamma)
        total = term if total is None else ad.add(total, term)
    if diagnostics is not None:
        diagnostics["clamped_norms"] = diagnostics.get("clamped_norms", 0) + clamped
    return ad.mul(total, 1.0 / len(recon))


def reconstruction_loss(recon: Sequence[Tensor], targets: Sequence[np.ndarray],
                        gamma: float = 2.0, diagnostics: dict | None = None) -> Tensor:
    """MSE plus scaled cosine error."""
    return ad.add(mse_loss(recon, targets), sce_loss(recon, targets, gamma, diagnostics))


def total_loss(nll: Tensor, recon: Tensor | None, alpha: float = 0.3) -> Tensor:
    """Survival loss plus alpha-weighted reconstruction loss."""
    if recon is None:
        return nll
    return ad.add(nll, ad.mul(recon, alpha))
