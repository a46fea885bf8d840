import tracemalloc

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import blocks, gradcheck
from histodistill import model as gm
from histodistill.autodiff import backward, tensor
from histodistill.errors import ConfigError


def one_bag(bag):
    return gm.BagStack.of([bag])


def small_config(**overrides):
    base = dict(feature_dim=8, category_sizes=(3, 2), width=4, heads=2,
                compress_width=3, n_bins=3, k_percent=50.0)
    base.update(overrides)
    return gm.ModelConfig(**base)


# ---------------------------------------------------------------------------
# association branch
# ---------------------------------------------------------------------------

def test_assoc_single_patch_one_column():
    model = gm.build_model(small_config(), seed=0)
    bag = np.random.default_rng(0).normal(size=(1, 8))
    features, scores = gm.assoc_forward(model.assoc, one_bag(bag))
    # one patch, padded to a layout 8 wide
    assert scores.shape == (1, 2, 8)
    assert (scores[:, :, 1:] == 0.0).all()
    assert features.shape == (2, 4)
    recon = gm.reconstruct(model.assoc.heads, features)
    assert [r.shape for r in recon] == [(1, 3), (1, 2)]


def test_assoc_duplicated_patches_leave_features_unchanged():
    model = gm.build_model(small_config(), seed=1)
    rng = np.random.default_rng(1)
    bag = rng.normal(size=(5, 8))
    doubled = np.concatenate([bag, bag], axis=0)
    a_features, a_scores = gm.assoc_forward(model.assoc, one_bag(bag))
    b_features, b_scores = gm.assoc_forward(model.assoc, one_bag(doubled))
    np.testing.assert_allclose(a_features.values, b_features.values, atol=1e-12)
    # scores are per patch, so the block just repeats
    np.testing.assert_allclose(b_scores[0, :, :10], np.tile(a_scores[0, :, :5], (1, 2)),
                               atol=1e-12)


def test_assoc_zeroed_first_round_reduces_to_plain_cross_attention():
    model = gm.build_model(small_config(), seed=2)
    params = model.assoc
    # silence round one: zero attention output projection and the ffn's
    # second linear, so f_F1 collapses to exactly zero
    params.mhca.wo.assign_(np.zeros_like(params.mhca.wo.values))
    params.mhca.bo.assign_(np.zeros_like(params.mhca.bo.values))
    params.ffn_first.w2.assign_(np.zeros_like(params.ffn_first.w2.values))
    params.ffn_first.b2.assign_(np.zeros_like(params.ffn_first.b2.values))
    bag = np.random.default_rng(2).normal(size=(4, 8))
    _, scores = gm.assoc_forward(params, one_bag(bag))
    keys = blocks.patch_keys(params.mhca, one_bag(bag), params.in_w, params.in_b)
    _, direct_scores = blocks.mhca_forward(params.mhca, params.tokens, keys)
    np.testing.assert_allclose(scores, direct_scores,
                               atol=1e-12)


def test_assoc_score_columns_permute_with_patches():
    model = gm.build_model(small_config(), seed=3)
    rng = np.random.default_rng(3)
    bag = rng.normal(size=(6, 8))
    perm = rng.permutation(6)
    _, a = gm.assoc_forward(model.assoc, one_bag(bag))
    _, b = gm.assoc_forward(model.assoc, one_bag(bag[perm]))
    np.testing.assert_allclose(a[0][:, perm], b[0, :, :6],
                               atol=1e-12)


def test_shared_mhca_parameters_drive_both_rounds():
    model = gm.build_model(small_config(), seed=4)
    params = model.assoc
    stack = one_bag(np.random.default_rng(4).normal(size=(3, 8)))

    def rounds():
        # round one is the shared cross-attention queried by the tokens alone
        keys = blocks.patch_keys(params.mhca, stack, params.in_w, params.in_b)
        first, _ = blocks.mhca_forward(params.mhca, params.tokens, keys)
        return first.values, gm.assoc_forward(params, stack)[1]

    before_first, before_scores = rounds()
    params.mhca.wq.assign_(params.mhca.wq.values + 0.5)
    after_first, after_scores = rounds()
    # round one moved (features depend on it) and so did round-two scores
    assert not np.allclose(before_first, after_first)
    assert not np.allclose(before_scores, after_scores)


def test_parameter_census_matches_shared_configuration():
    cfg = small_config()
    model = gm.build_model(cfg, seed=5)
    d, w, ng = cfg.feature_dim, cfg.width, cfg.n_tokens
    sw, cw, b = cfg.survival_width, cfg.compress_width, cfg.n_bins

    mhca = 4 * w * w + 4 * w                      # one shared set
    ffn = lambda width: 4 * width * width + 5 * width
    snn = sum(w * w + 3 * w + (w + 1) * c for c in cfg.category_sizes)
    assoc = (d * w + w) + ng * w + mhca + 2 * ffn(w) + snn

    gate = 2 * w * w + 3 * w + 1
    mhsa = 4 * sw * sw + 4 * sw
    survival = ((d * w + w) + gate + mhsa + ffn(sw)
                + (sw * cw + cw) + 2 * cw + (ng * cw * b + b))

    assert model.parameter_count() == assoc + survival


# ---------------------------------------------------------------------------
# top-k masking and fusion
# ---------------------------------------------------------------------------

def test_topk_full_k_is_plain_softmax():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(3, 6))
    out = gm.topk_masked_softmax(scores, 100.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    np.testing.assert_allclose(out, e / e.sum(axis=1, keepdims=True),
                               atol=1e-12)


def test_topk_hand_example_two_kept():
    row = np.zeros((1, 10))
    row[0, 0], row[0, 1] = 10.0, 9.0
    out = gm.topk_masked_softmax(row, 20.0)
    np.testing.assert_allclose(out[0, :2], [0.73105858, 0.26894142], atol=1e-8)
    assert np.count_nonzero(out) == 2


def test_topk_floor_keeps_one_patch():
    scores = np.array([[0.2, 0.9, 0.1]])
    out = gm.topk_masked_softmax(scores, 10.0)
    np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0]])


def test_topk_tie_broken_toward_lower_index():
    scores = np.array([[5.0, 5.0, 1.0]])
    out = gm.topk_masked_softmax(scores, 34.0)   # m = 1
    np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0]])


def test_topk_rows_sum_to_one_with_exact_counts():
    rng = np.random.default_rng(6)
    for n_p in (4, 10, 37):
        scores = rng.normal(size=(5, n_p))
        for k in (10.0, 20.0, 35.0):
            out = gm.topk_masked_softmax(scores, k)
            m = min(n_p, max(1, round(k * n_p / 100)))
            np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
            assert (np.count_nonzero(out, axis=1) == m).all()


# The top-k mask once ranked every row with a full stable argsort over W.
# Below is that function verbatim; selecting the m-th value and sorting
# only the m kept entries must give the same bits.

def oracle_topk_masked_softmax(scores, k_percent, lengths=None):
    if not 0.0 < k_percent <= 100.0:
        raise ConfigError(f"k_percent must be in (0, 100], got {k_percent}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 2:
        return oracle_topk_masked_softmax(scores[None], k_percent, scores.shape[1:])[0]
    batch, rows, width = scores.shape
    keep = np.array([min(n, max(1, round(k_percent * n / 100.0))) for n in lengths])
    ranked = -scores
    pads = np.arange(width) >= np.asarray(lengths)[:, None]
    if pads.any():
        ranked[np.broadcast_to(pads[:, None, :], ranked.shape)] = np.inf
    top = np.argsort(ranked, axis=-1, kind="stable")[..., :keep.max()]
    picks = (np.arange(batch)[:, None, None], np.arange(rows)[None, :, None], top)
    kept = scores[picks]
    shifted = kept - kept[..., :1]
    dropped = np.arange(top.shape[-1]) >= keep[:, None, None]   # beyond a short bag's m
    if dropped.any():
        shifted[np.broadcast_to(dropped, shifted.shape)] = -np.inf
    shifted = np.exp(shifted)
    # A running sum read at each patient's own m-th entry: a pairwise `sum`
    # over the keep.max() columns would group the terms by the stack's
    # widest m.
    total = np.cumsum(shifted, axis=-1)[np.arange(batch), :, keep - 1]
    out = np.zeros_like(scores)
    out[picks] = shifted / total[..., None]
    return out


def draw_scores(rng, shape, kind):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "rounded":       # a handful of distinct values: ties everywhere
        return np.round(rng.normal(size=shape), 1)
    return np.full(shape, 0.25)     # every row all equal


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


TOPK_PERCENTS = (1.0, 10.0, 20.0, 34.0, 50.0, 99.0, 100.0)


@pytest.mark.parametrize("kind", ["normal", "rounded", "equal"])
def test_topk_selection_keeps_the_bits_of_the_full_stable_argsort(kind):
    rng = np.random.default_rng(["normal", "rounded", "equal"].index(kind))
    # one patient: m runs from 1 to N_p
    for n_p in (1, 2, 3, 8, 37, 64, 300):
        scores = draw_scores(rng, (6, n_p), kind)
        for k in TOPK_PERCENTS:
            assert_same_bits(gm.topk_masked_softmax(scores, k),
                             oracle_topk_masked_softmax(scores, k))
    # padded stacks, a different m per bag, bags shorter than the widest m
    for lengths in ((1, 5, 12, 37), (40, 40), (3, 96, 2, 64, 17), (200, 1)):
        width = -(-max(lengths) // 8) * 8
        scores = np.where(np.arange(width) < np.array(lengths)[:, None, None],
                          draw_scores(rng, (len(lengths), 6, width), kind), 0.0)
        for k in TOPK_PERCENTS:
            got = gm.topk_masked_softmax(scores, k, lengths)
            assert_same_bits(got, oracle_topk_masked_softmax(scores, k, lengths))
            # one bag's rows come out alone as they do in the stack
            for b, n in enumerate(lengths):
                assert_same_bits(got[b, :, :n], gm.topk_masked_softmax(scores[b, :, :n], k))


def test_topk_keeps_the_bits_when_only_some_rows_tie_beyond_their_count():
    # m = 3 of 16 patches (20%), and 2 of 10: a row keeps its lowest-index
    # ties only when more entries tie at its cut than it still needs
    rng = np.random.default_rng(41)
    lengths = (16, 10, 16)
    scores = np.where(np.arange(16) < np.array(lengths)[:, None, None],
                      rng.normal(size=(3, 4, 16)), 0.0)
    scores[0, 1, 5:9] = 9.0                 # four tie at the top, three kept
    scores[1, 2, [1, 3, 6]] = (9.0, 8.0, 8.0)   # one above, two tie, two kept
    scores[2, 0, 2:5] = 9.0                 # exactly three tie, all kept
    scores[2, 3, 10:15] = -9.0              # ties far below the cut
    scores[2, 3, 15] = 9.0                  # one above, then distinct
    got = gm.topk_masked_softmax(scores, 20.0, lengths)
    assert_same_bits(got, oracle_topk_masked_softmax(scores, 20.0, lengths))
    np.testing.assert_array_equal(got[0, 1, 5:9] > 0, [True, True, True, False])
    np.testing.assert_array_equal(np.flatnonzero(got[1, 2]), [1, 3])
    np.testing.assert_array_equal(np.flatnonzero(got[2, 0]), [2, 3, 4])
    for k in TOPK_PERCENTS:
        assert_same_bits(gm.topk_masked_softmax(scores, k, lengths),
                         oracle_topk_masked_softmax(scores, k, lengths))


def test_fused_rows_are_distributions():
    rng = np.random.default_rng(7)
    morph = rng.dirichlet(np.ones(6)).reshape(6, 1)
    masked = gm.topk_masked_softmax(rng.normal(size=(4, 6)), 50.0)
    fused = gm.fused_attention(tensor(morph.T), masked).values
    np.testing.assert_allclose(fused.sum(axis=1), np.ones(4), atol=1e-12)
    assert (fused >= 0).all()


def test_fused_mean_of_equal_rows_is_identity():
    morph = np.array([[0.2], [0.3], [0.5]])
    masked = np.tile(morph.T, (2, 1))
    fused = gm.fused_attention(tensor(morph.T), masked).values
    np.testing.assert_allclose(fused, masked, atol=1e-15)


def test_fused_uniform_plus_one_hot():
    morph = np.full((4, 1), 0.25)
    masked = np.array([[1.0, 0.0, 0.0, 0.0]])
    fused = gm.fused_attention(tensor(morph.T), masked).values
    np.testing.assert_allclose(fused, [[0.625, 0.125, 0.125, 0.125]],
                               atol=1e-15)


# ---------------------------------------------------------------------------
# survival branch
# ---------------------------------------------------------------------------

def test_hazards_invariant_to_patch_permutation():
    model = gm.build_model(small_config(), seed=8)
    rng = np.random.default_rng(8)
    bag = rng.normal(size=(9, 8))
    perm = rng.permutation(9)
    a = gm.model_forward(model, bag).hazards.values
    b = gm.model_forward(model, bag[perm]).hazards.values
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_zero_classifier_gives_half_hazards():
    model = gm.build_model(small_config(), seed=9)
    model.survival.cls_w.assign_(np.zeros_like(model.survival.cls_w.values))
    model.survival.cls_b.assign_(np.zeros_like(model.survival.cls_b.values))
    out = gm.predict(model, np.random.default_rng(9).normal(size=(5, 8)))
    np.testing.assert_allclose(out.hazards, [0.5, 0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(out.survival, [0.5, 0.25, 0.125], atol=1e-15)


def test_survival_curve_examples():
    np.testing.assert_array_equal(gm.survival_curve(np.zeros(4)), np.ones(4))
    np.testing.assert_allclose(gm.survival_curve(np.full(4, 0.5)),
                               [0.5, 0.25, 0.125, 0.0625], atol=1e-15)
    rng = np.random.default_rng(10)
    s = gm.survival_curve(rng.uniform(0.01, 0.99, size=8))
    assert (np.diff(s) <= 0).all()
    assert s.min() > 0 and s.max() <= 1


def test_risk_score_limits_and_monotonicity():
    assert gm.risk_score(gm.survival_curve(np.zeros(4))) == -4.0
    near_one = gm.risk_score(gm.survival_curve(np.full(4, 0.999)))
    assert -0.002 < near_one < 0.0
    # raising any single hazard raises the risk
    rng = np.random.default_rng(11)
    h = rng.uniform(0.1, 0.5, size=4)
    base = gm.risk_score(gm.survival_curve(h))
    for t in range(4):
        bumped = h.copy()
        bumped[t] += 0.05
        assert gm.risk_score(gm.survival_curve(bumped)) > base


def test_batched_survival_and_risk_rows_equal_their_one_row_calls():
    # evaluate scores a stack's hazards as one batch and predict one row;
    # past 8 bins numpy's pairwise sum groups terms in blocks, so every row
    # must reduce as its 1-d call does
    rng = np.random.default_rng(12)
    for n_bins in range(1, 130):
        hazards = rng.uniform(0.0, 1.0, size=(5, n_bins))
        survival = gm.survival_curve(hazards)
        risks = gm.risk_score(survival)
        assert survival.shape == (5, n_bins) and risks.shape == (5,)
        for row, h in enumerate(hazards):
            alone = gm.survival_curve(h)
            assert np.array_equal(survival[row], alone), n_bins
            assert risks[row].tobytes() == gm.risk_score(alone).tobytes(), n_bins


def test_hazard_output_consistency():
    out = gm.hazard_output(np.array([0.2, 0.3]))
    np.testing.assert_allclose(out.survival, [0.8, 0.56], atol=1e-15)
    np.testing.assert_allclose(out.risk, -(0.8 + 0.56), atol=1e-15)


def test_one_bag_predict_builds_at_most_its_tape_node_cap(monkeypatch):
    # Default shapes; inference records no tape, but every op still makes a
    # node, so the count is the forward's Python overhead per patient.
    from histodistill.datasets import SynthConfig
    from histodistill.training import TrainConfig
    synth = SynthConfig()
    model = gm.build_model(TrainConfig().model_config(synth.feature_dim,
                                                      synth.gene_counts), seed=0)
    made = []
    make = ad._make

    def counting_make(*args):
        made.append(args[3])
        return make(*args)

    monkeypatch.setattr(ad, "_make", counting_make)
    gm.predict(model, np.random.default_rng(0).normal(size=(64, synth.feature_dim)))
    assert 0 < len(made) <= 66, sorted(made)


def test_slide_scale_predict_peaks_below_five_bag_sized_arrays():
    # A no-grad one-bag predict over a slide-scale float32 bag. Its peak is
    # counted in (N, D + 1) float64 arrays, the size of the padded rows X~;
    # the packed rows, X~ and X~'s transposed copy make about three. With a
    # finiteness scan of every derived array, and fresh arrays for each
    # softmax and gate step, the peak was 4.74.
    from histodistill.datasets import SynthConfig
    from histodistill.training import TrainConfig
    synth = SynthConfig()
    model = gm.build_model(TrainConfig().model_config(synth.feature_dim,
                                                      synth.gene_counts), seed=0)
    rows = 4099
    bag = np.random.default_rng(42).normal(size=(rows, synth.feature_dim))
    bag = bag.astype(np.float32)
    want = gm.predict(model, bag)
    tracemalloc.start()
    try:
        got = gm.predict(model, bag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got.hazards, want.hazards)
    arrays = peak / (rows * (synth.feature_dim + 1) * 8)
    assert arrays < 4.5, arrays


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_nll_censored_with_zero_hazards_is_zero():
    hazards = tensor(np.zeros((1, 3)))
    assert gm.nll_loss(hazards, interval=1, censor=1).item() == 0.0


def test_nll_event_first_interval():
    hazards = tensor(np.array([[0.5, 0.1, 0.1]]))
    np.testing.assert_allclose(gm.nll_loss(hazards, 0, 0).item(),
                               0.693147, atol=1e-6)


def test_nll_event_second_interval():
    hazards = tensor(np.array([[0.2, 0.3, 0.1]]))
    np.testing.assert_allclose(gm.nll_loss(hazards, 1, 0).item(),
                               1.427116, atol=1e-6)


def test_nll_brute_force_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        b = rng.integers(2, 6)
        h = rng.uniform(0.05, 0.95, size=b)
        y = int(rng.integers(0, b))
        c = int(rng.integers(0, 2))
        s = np.cumprod(1 - h)
        s_at = lambda j: 1.0 if j < 0 else s[j]
        if c == 1:
            expected = -np.log(max(s_at(y), 1e-7))
        else:
            expected = (-np.log(max(s_at(y - 1), 1e-7))
                        - np.log(max(h[y], 1e-7)))
        got = gm.nll_loss(tensor(h[None, :]), y, c).item()
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_mse_perfect_reconstruction_zero():
    t = [np.array([1.0, -2.0]), np.array([0.5])]
    recon = [tensor(v[None, :]) for v in t]
    assert gm.mse_loss(recon, t).item() == 0.0


def test_mse_scalar_category_contribution():
    assert gm.mse_loss([tensor([[2.0]])], [np.array([0.0])]).item() == 4.0


def test_mse_brute_force_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sizes = rng.integers(1, 7, size=int(rng.integers(2, 7)))
        targets = [rng.normal(size=n) for n in sizes]
        preds = [rng.normal(size=n) for n in sizes]
        expected = np.mean([np.mean((p - x) ** 2)
                            for p, x in zip(preds, targets)])
        got = gm.mse_loss([tensor(p[None, :]) for p in preds], targets).item()
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_mse_length_mismatch():
    with pytest.raises(Exception):
        gm.mse_loss([tensor([[1.0, 2.0]])], [np.array([1.0])])


def test_sce_identical_vectors_zero():
    t = [np.array([1.0, 2.0]), np.array([3.0, -1.0, 0.5])]
    recon = [tensor(v[None, :]) for v in t]
    np.testing.assert_allclose(gm.sce_loss(recon, t, gamma=2.0).item(), 0.0,
                               atol=1e-12)


def test_sce_opposite_vectors_gamma_one():
    t = [np.array([1.0, 2.0])]
    recon = [tensor(-t[0][None, :])]
    np.testing.assert_allclose(gm.sce_loss(recon, t, gamma=1.0).item(), 2.0,
                               atol=1e-12)


def test_sce_orthogonal_vectors_gamma_two():
    t = [np.array([1.0, 0.0])]
    recon = [tensor(np.array([[0.0, 1.0]]))]
    np.testing.assert_allclose(gm.sce_loss(recon, t, gamma=2.0).item(), 1.0,
                               atol=1e-12)


def test_sce_zero_norm_is_clamped_and_flagged():
    diagnostics = {}
    t = [np.array([1.0, 1.0])]
    out = gm.sce_loss([tensor(np.zeros((1, 2)))], t, gamma=2.0,
                      diagnostics=diagnostics)
    assert np.isfinite(out.item())
    assert diagnostics.get("clamped_norms", 0) >= 1


@pytest.mark.parametrize("pred", [np.zeros((1, 3)), np.full((1, 3), 1e-13)])
def test_clamped_prediction_norm_adds_no_cosine_gradient(pred):
    # at a clamped norm 1/denom would scale the cosine gradient by ~1e12
    t = [np.array([1.0, 2.0, 2.0])]
    x = tensor(pred, requires_grad=True)
    grad = backward(gm.reconstruction_loss([x], t, gamma=2.0))[x]
    x_mse = tensor(pred, requires_grad=True)
    mse_grad = backward(gm.mse_loss([x_mse], t))[x_mse]
    assert np.all(np.isfinite(grad))
    np.testing.assert_array_equal(grad, mse_grad)


def test_sce_bounded():
    rng = np.random.default_rng(14)
    for _ in range(10):
        t = [rng.normal(size=4), rng.normal(size=3)]
        recon = [tensor(rng.normal(size=(1, 4))), tensor(rng.normal(size=(1, 3)))]
        val = gm.sce_loss(recon, t, gamma=2.0).item()
        assert 0.0 <= val <= 4.0


def test_reconstruction_loss_is_sum_of_parts():
    rng = np.random.default_rng(15)
    t = [rng.normal(size=4), rng.normal(size=2)]
    recon = [tensor(rng.normal(size=(1, 4))), tensor(rng.normal(size=(1, 2)))]
    total = gm.reconstruction_loss(recon, t, gamma=2.0).item()
    parts = gm.mse_loss(recon, t).item() + gm.sce_loss(recon, t, gamma=2.0).item()
    np.testing.assert_allclose(total, parts, atol=1e-12)


def test_reconstruction_loss_gradient():
    # the loss is the sum of these two terms, each checked on two patient rows
    checks = dict(gradcheck._CHECKS)
    assert checks["mse_loss"](1e-5) < 1e-5
    assert checks["sce_loss"](1e-5) < 1e-5


def test_total_loss_arithmetic():
    nll = tensor(1.0)
    recon = tensor(2.0)
    np.testing.assert_allclose(gm.total_loss(nll, recon, alpha=0.3).item(),
                               1.6, atol=1e-12)
    assert gm.total_loss(nll, None).item() == 1.0


# ---------------------------------------------------------------------------
# gradient detachment between the branches
# ---------------------------------------------------------------------------

def test_masked_association_path_carries_no_gradient():
    """With the feature bridge cut, the association branch reaches the
    survival loss only through the detached mask, so none of its parameters
    may receive a gradient from the hazard loss."""
    model = gm.build_model(small_config(cut_bridge=True), seed=17)
    bag = np.random.default_rng(17).normal(size=(5, 8))
    result = gm.model_forward(model, bag)
    assert isinstance(result.assoc_scores, np.ndarray)
    grads = backward(gm.nll_loss(result.hazards, 1, 0))
    for name, p in model.assoc.named_tensors("assoc"):
        g = grads.get(p)
        assert g is None or not np.any(g), f"{name} leaked a gradient"


def test_feature_bridge_carries_gradient_when_present():
    model = gm.build_model(small_config(), seed=18)
    bag = np.random.default_rng(18).normal(size=(5, 8))
    result = gm.model_forward(model, bag)
    grads = backward(gm.nll_loss(result.hazards, 1, 0))
    moved = [name for name, p in model.assoc.named_tensors("assoc")
             if grads.get(p) is not None and np.any(grads[p])]
    assert moved, "no association parameter received a gradient"


# ---------------------------------------------------------------------------
# ablation variants
# ---------------------------------------------------------------------------

def test_assoc_only_variant_skips_morphology():
    model = gm.build_model(small_config(assoc_only=True), seed=19)
    bag = np.random.default_rng(19).normal(size=(4, 8))
    result = gm.model_forward(model, bag)
    assert result.morph_weights is None
    assert result.masked_assoc.shape == (2, 4)
    # the survival gate's weights take no part: moving them moves no hazard
    for _, tensor in model.survival.gate.named_tensors():
        tensor.assign_(tensor.values + 1.0)
    moved = gm.model_forward(model, bag)
    np.testing.assert_array_equal(moved.hazards.values, result.hazards.values)


def test_gated_recon_variant_shapes():
    model = gm.build_model(small_config(gated_recon=True), seed=20)
    bag = np.random.default_rng(20).normal(size=(6, 8))
    result = gm.model_forward(model, bag)
    assert result.hazards.shape == (1, 3)
    assert isinstance(result.assoc_scores, np.ndarray)
    assert result.assoc_scores.shape == (2, 6)
    assert [r.shape for r in result.recon] == [(1, 3), (1, 2)]


def test_gated_baseline_is_self_contained():
    model = gm.build_model(small_config(gated_baseline=True), seed=21)
    assert model.assoc is None and model.survival is None
    bag = np.random.default_rng(21).normal(size=(7, 8))
    result = gm.model_forward(model, bag)
    assert result.hazards.shape == (1, 3)
    assert result.recon is None and result.assoc_scores is None
    out = gm.predict(model, bag)
    assert out.hazards.shape == (3,)


def test_cut_bridge_halves_survival_width():
    assert small_config().survival_width == 8
    assert small_config(cut_bridge=True).survival_width == 4


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_k_percent():
    with pytest.raises(ConfigError):
        small_config(k_percent=0.0)
    with pytest.raises(ConfigError):
        small_config(k_percent=120.0)


def test_config_rejects_width_not_divisible_by_heads():
    with pytest.raises(ConfigError):
        small_config(width=6, heads=4)


def test_config_rejects_gamma_below_one():
    with pytest.raises(ConfigError):
        small_config(gamma=0.5)


def test_build_model_deterministic():
    a = gm.build_model(small_config(), seed=42)
    b = gm.build_model(small_config(), seed=42)
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        np.testing.assert_array_equal(ta.values, tb.values)
