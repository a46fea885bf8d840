"""Stacked multi-patient training: a stack of ragged bags must train
exactly like its patients one at a time, with pads invisible."""

import ast
import gc
import inspect
import weakref
from dataclasses import replace

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import training as tr
from histodistill.blocks import BagStack, PatchLayout
from histodistill.datasets import SynthConfig, discretize_survival, synth_generate
from histodistill.errors import TrainingError
from histodistill.model import (build_model, fused_attention, nll_loss, stack_forward,
                               topk_masked_softmax)
from histodistill.training import (GeneStandardizer, TrainConfig, TrainEntry,
                                   gene_targets, pack_stacks, stack_loss,
                                   train_model)

FEATURES = 6
CATEGORIES = (3, 2, 4)
VARIANTS = ("default", "score_head", "gated_recon", "cut_bridge", "assoc_only",
            "gated_baseline")


def variant_config(name: str) -> TrainConfig:
    flags = {"default": {}, "score_head": {"score_head": 1}}.get(name, {name: True})
    return TrainConfig(width=8, heads=2, compress_width=4, n_bins=3,
                       k_percent=30.0, **flags)


def make_model(config: TrainConfig, seed: int = 0):
    sizes = () if config.gated_baseline else CATEGORIES
    return build_model(config.model_config(FEATURES, sizes), seed=seed)


def make_entries(rng, lengths, with_targets=True):
    return [TrainEntry(f"p{i}", rng.normal(size=(n, FEATURES)),
                       int(rng.integers(0, 3)), int(rng.integers(0, 2)),
                       [rng.normal(size=c) for c in CATEGORIES] if with_targets else None)
            for i, n in enumerate(lengths)]


def gradients(model, groups, config):
    """Leaf gradients after one backward per group of entries."""
    ad.zero_grads(model.tensors())
    totals = []
    for group in groups:
        loss = stack_loss(model, group, config).total
        totals.append(loss.item())
        ad.backward(loss)
    grads = {name: np.zeros_like(t.values) if t.grad is None else np.array(t.grad)
             for name, t in model.named_tensors()}
    ad.zero_grads(model.tensors())
    return grads, sum(totals)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_group_gradients_equal_per_patient_sums(variant):
    config = variant_config(variant)
    model = make_model(config)
    rng = np.random.default_rng(VARIANTS.index(variant))
    for _ in range(3):
        lengths = [1, *rng.integers(1, 15, size=int(rng.integers(2, 6)))]
        entries = make_entries(rng, rng.permutation(lengths),
                               with_targets=not config.gated_baseline)
        stacked, stacked_total = gradients(model, [entries], config)
        single, single_total = gradients(model, [[e] for e in entries], config)
        assert stacked_total == pytest.approx(single_total, rel=1e-12)
        scale = max(np.abs(g).max() for g in single.values())
        for name, want in single.items():
            # Exactly dead parameters (key and score biases) carry roundoff
            # only; they are held to the group's gradient scale instead.
            floor = max(np.abs(want).max(), 1e-6 * scale)
            err = np.abs(stacked[name] - want).max() / floor
            assert err <= 1e-10, f"{variant} {lengths}: {name} off by {err:.1e}"


def test_pad_positions_get_zero_attention_morphology_and_gradient():
    config = variant_config("default")
    model = make_model(config)
    rng = np.random.default_rng(5)
    entries = make_entries(rng, [2, 9, 1, 6])
    layout = PatchLayout.of([e.bag.shape[0] for e in entries])
    result = stack_forward(model, [e.bag for e in entries])
    pads = ~layout.mask
    assert (result.morph_weights[pads] == 0.0).all()
    assert (result.masked_assoc.transpose(0, 2, 1)[pads] == 0.0).all()
    # the rows the survival branch pools with: the mean of the two above
    fused = fused_attention(ad.tensor(result.morph_weights[:, None]), result.masked_assoc)
    assert (fused.values.transpose(0, 2, 1)[pads] == 0.0).all()

    loss = nll_loss(result.hazards, [0, 1, 2, 0], [0, 0, 1, 1])
    weights, pad_grads, padded = [], [], []
    for node in ad._topological_order(loss):
        # the padded raw rows X~ (B, 1, W, FEATURES + 1), their transpose and
        # their view without the ones column: constants, off the tape
        if node._op == "leaf" and pads.shape[1] in node.shape and not node.requires_grad:
            if node.values.ndim == 4 and node.shape[-1] == pads.shape[1]:
                padded.append(node.values.swapaxes(-1, -2)[:, 0])
            elif node.values.ndim == 4:
                padded.append(node.values[:, 0])
            elif node.shape[-1] == FEATURES:
                padded.append(node.values)
        # softmax over patches; the self-attention's softmax runs over tokens
        if node._op == "softmax" and pads.shape[1] in node.shape:
            weights.append(node.values)
        # the cross-attention scores, X~^T's product, are (B, heads, N_g, W);
        # the gated scores are laid out as (B, 1, W)
        scores = (node._op == "batched_matmul" and node.values.ndim == 4
                  and node.shape[-1] == pads.shape[1])
        if scores or node._op == "gated_scores":
            at_pads = pads[:, None, None, :] if scores else pads[:, None, :]
            fn = node._backward_fn

            def record(g, fn=fn, at_pads=at_pads):
                pad_grads.append(g[np.broadcast_to(at_pads, g.shape[:at_pads.ndim])])
                fn(g)
            node._backward_fn = record
    ad.backward(loss)
    # both cross-attention rounds and the gated pooling
    assert len(weights) == 3
    for w in weights:
        # cross-attention weights are (B, heads, N_g, N_max), gated (B, 1, N_max)
        at_pads = pads[:, None, None, :] if w.ndim == 4 else pads[:, None, :]
        assert (w[np.broadcast_to(at_pads, w.shape)] == 0.0).all()
    # both rounds' scores and the gated scores
    assert len(pad_grads) == 3
    for g in pad_grads:
        assert (g == 0.0).all()
    # X~, X~^T and the raw view: zero at pads in every column, and X~'s
    # ones column is 1 exactly at the real patches
    assert len(padded) == 3
    for rows in padded:
        assert (rows[pads] == 0.0).all()
    ones = [rows[..., -1] for rows in padded if rows.shape[-1] == FEATURES + 1]
    assert len(ones) == 2
    for column in ones:
        np.testing.assert_array_equal(column, layout.mask)


def former_bag_stack(bags):
    """`BagStack.of` before it checked only the packed rows, kept verbatim
    as the oracle: each of its four arrays went through the checked
    constructor."""
    layout = PatchLayout.of([np.shape(bag)[0] for bag in bags])
    bag = ad.tensor(np.concatenate(bags, axis=0, dtype=np.float64))
    if bag.values.ndim != 2:
        raise ad.ShapeError(f"bags must be 2-d (patches, features), got rows "
                            f"{bag.shape}")
    dim = bag.shape[1]
    padded = np.zeros(layout.mask.shape + (dim + 1,))
    start = 0
    for b, n in enumerate(layout.lengths):
        padded[b, :n, :dim] = bag.values[start:start + n]
        padded[b, :n, dim] = 1.0
        start += n
    rows = padded[:, None]
    return BagStack(bag, layout, ad.tensor(rows),
                    ad.tensor(np.ascontiguousarray(rows.swapaxes(-1, -2))),
                    ad.tensor(padded[..., :dim]))


@pytest.mark.parametrize("lengths", [(1,), (8,), (4099,), (2, 9, 1, 6), (40, 17, 64, 3)])
def test_bag_stack_keeps_the_arrays_of_the_former_stack(lengths):
    rng = np.random.default_rng([39, *lengths])
    bags = [rng.normal(size=(n, FEATURES)).astype(np.float32 if n % 2 else np.float64)
            for n in lengths]
    got, want = BagStack.of(bags), former_bag_stack(bags)
    assert got.layout.lengths == want.layout.lengths
    np.testing.assert_array_equal(got.layout.index, want.layout.index)
    for field in ("bag", "rows", "rows_t", "raw"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.values.dtype == np.float64, field
        assert a.values.flags.c_contiguous == b.values.flags.c_contiguous, field
        np.testing.assert_array_equal(a.values.view(np.int64), b.values.view(np.int64))
        assert a._op == "leaf" and not a.requires_grad and a.grad is None, field
        assert a._parents == () and a._backward_fn is None, field


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_stack_with_a_non_finite_bag_raises_before_any_forward(bad, monkeypatch):
    config = variant_config("default")
    model = make_model(config)
    rng = np.random.default_rng(40)
    bags = [rng.normal(size=(n, FEATURES)) for n in (5, 9, 3)]
    bags[1][7, 2] = bad
    made = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: made.append(args[3]) or make(*args))
    with pytest.raises(ValueError, match="tensor created with non-finite values"):
        BagStack.of(bags)
    with pytest.raises(ValueError, match="tensor created with non-finite values"):
        stack_forward(model, bags)
    assert made == []


def test_topk_count_follows_each_patients_own_patch_count():
    rng = np.random.default_rng(6)
    lengths = (1, 5, 12, 37)
    scores = rng.normal(size=(4, 3, 37))
    for k in (10.0, 20.0, 35.0):
        out = topk_masked_softmax(scores, k, lengths)
        for b, n in enumerate(lengths):
            m = max(1, round(k * n / 100))
            assert (np.count_nonzero(out[b], axis=1) == m).all()
            assert (out[b, :, n:] == 0.0).all()
            np.testing.assert_allclose(out[b].sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(out[b, :, :n],
                                       topk_masked_softmax(scores[b, :, :n], k),
                                       rtol=1e-14, atol=0)


def test_stacks_keep_order_and_a_bag_above_the_budget_trains_alone(monkeypatch):
    budget = tr.ROW_BUDGET
    assert pack_stacks([budget // 2, budget // 2, 1]) == [[0, 1], [2]]
    assert pack_stacks([3, budget + 1, 4, 5]) == [[0], [1], [2, 3]]
    assert pack_stacks([budget, budget]) == [[0], [1]]

    cohort, _ = synth_generate(SynthConfig(n_patients=6, patch_range=(8, 8)), seed=0)
    cohort[3].bag.features = np.tile(cohort[3].bag.features, (budget // 8 + 1, 1))
    config = TrainConfig(epochs=1, accumulation=6, gated_baseline=True)
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(), config.n_bins)
    model = build_model(config.model_config(cohort.feature_dim, ()), seed=0)
    seen = []
    real_stack_loss = tr.stack_loss

    def recording(model, entries, *args, **kwargs):
        seen.append([e.pid for e in entries])
        return real_stack_loss(model, entries, *args, **kwargs)

    monkeypatch.setattr(tr, "stack_loss", recording)
    order = np.random.default_rng(0).permutation(6)
    train_model(model, cohort, np.arange(6), bins, config, None,
                np.random.default_rng(0))
    big = cohort[3].patient_id
    assert [big] in seen
    assert [pid for stack in seen for pid in stack] == [cohort[int(i)].patient_id
                                                        for i in order]
    position = list(order).index(3)
    assert len(seen) == (3 if 0 < position < 5 else 2)


def test_a_default_accumulation_group_trains_as_one_stack():
    # the worst case: every bag of the group at the default cohort's largest
    group = [SynthConfig().patch_range[1]] * TrainConfig().accumulation
    assert pack_stacks(group) == [list(range(len(group)))]


# The stack's forward and losses, plus 1 for the accumulation scaling.
STACK_NODE_CAPS = {"default": 102 + 1, "gated_recon": 97 + 1, "gated_baseline": 10 + 1}


@pytest.mark.parametrize("variant", STACK_NODE_CAPS)
def test_one_stack_of_eight_64_patch_bags_builds_at_most_its_node_cap(variant,
                                                                       monkeypatch):
    cohort, _ = synth_generate(SynthConfig(n_patients=8, patch_range=(64, 64)), seed=0)
    config = TrainConfig(epochs=1, accumulation=8,
                         **({} if variant == "default" else {variant: True}))
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(), config.n_bins)
    every = np.arange(len(cohort))
    sizes, targets = (), None
    if not config.gated_baseline:
        sizes, (_, targets) = SynthConfig().gene_counts, gene_targets(cohort, every, None)
    model = build_model(config.model_config(cohort.feature_dim, sizes), seed=0)
    made, losses, reachable = [], [], set()
    make, backward = ad._make, ad.backward

    def counting_make(*args):
        made.append(make(*args))
        return made[-1]

    def recording_backward(loss):
        # walked here, before backward consumes the graph
        losses.append(loss)
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) not in reachable:
                reachable.add(id(node))
                stack.extend(node._parents)
        return backward(loss)

    monkeypatch.setattr(tr, "ROW_BUDGET", 8 * 64)
    monkeypatch.setattr(ad, "_make", counting_make)
    monkeypatch.setattr(ad, "backward", recording_backward)
    train_model(model, cohort, every, bins, config, targets,
                np.random.default_rng(0))
    assert len(losses) == 1, "the eight bags did not share one stack"
    assert 0 < len(made) <= STACK_NODE_CAPS[variant], sorted({node._op for node in made})
    unreachable = [node._op for node in made if id(node) not in reachable]
    assert not unreachable, unreachable


@pytest.mark.parametrize("variant", STACK_NODE_CAPS)
def test_no_node_of_a_stack_outlives_its_backward(variant, monkeypatch):
    synth = SynthConfig(n_patients=8, patch_range=(16, 40))
    cohort, _ = synth_generate(synth, seed=3)
    config = replace(variant_config(variant), epochs=2, accumulation=4)
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(), config.n_bins)
    every = np.arange(len(cohort))
    sizes, targets = (), None
    if not config.gated_baseline:
        sizes, (_, targets) = synth.gene_counts, gene_targets(cohort, every, None)
    model = build_model(config.model_config(cohort.feature_dim, sizes), seed=0)
    alive, stacks = [], []
    make, real_stack_loss = ad._make, tr.stack_loss

    def weak_make(*args):
        node = make(*args)
        alive.append(weakref.ref(node))
        return node

    def checking_stack_loss(*args, **kwargs):
        # the previous stack's nodes must be gone before this forward
        assert not [ref() for ref in alive if ref() is not None]
        stacks.append(len(alive))
        return real_stack_loss(*args, **kwargs)

    monkeypatch.setattr(tr, "ROW_BUDGET", 64)
    monkeypatch.setattr(ad, "_make", weak_make)
    monkeypatch.setattr(tr, "stack_loss", checking_stack_loss)
    gc.disable()        # refcounts alone must free the tape: no cycles
    try:
        train_model(model, cohort, every, bins, config, targets,
                    np.random.default_rng(0))
        assert len(stacks) >= 8 and alive
        assert not [ref()._op for ref in alive if ref() is not None]
    finally:
        gc.enable()


def test_backward_functions_leave_their_incoming_gradient_untouched():
    config = TrainConfig()
    synth = SynthConfig()
    model = build_model(config.model_config(synth.feature_dim, synth.gene_counts), seed=0)
    rng = np.random.default_rng(8)
    lengths = [40, 1, 64, 17, 96]
    entries = [TrainEntry(f"p{i}", rng.normal(size=(n, synth.feature_dim)),
                          i % config.n_bins, i % 2,
                          [rng.normal(size=c) for c in synth.gene_counts])
               for i, n in enumerate(lengths)]

    def run(read_only: bool):
        ad.zero_grads(model.tensors())
        loss = ad.mul(stack_loss(model, entries, config).total, 1.0 / len(entries))
        if read_only:
            for node in ad._topological_order(loss):
                fn = node._backward_fn
                if fn is None:
                    continue

                def frozen(g, fn=fn):
                    g = np.array(g)
                    g.flags.writeable = False
                    fn(g)
                node._backward_fn = frozen
        ad.backward(loss)
        return {name: np.array(t.grad) for name, t in model.named_tensors()
                if t.grad is not None}

    plain = run(read_only=False)
    frozen = run(read_only=True)
    assert plain.keys() == frozen.keys() and plain
    for name in plain:
        np.testing.assert_array_equal(plain[name], frozen[name], err_msg=name)


def test_trace_counts_clamped_norms_per_row():
    synth = SynthConfig(n_patients=8, patch_range=(4, 6), feature_dim=FEATURES)
    cohort, _ = synth_generate(synth, seed=1)
    categories = synth.gene_counts
    config = TrainConfig(epochs=2, accumulation=3, width=8, heads=2,
                         compress_width=4, n_bins=3)
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(), config.n_bins)
    every = np.arange(len(cohort))
    # Centred on patient 0 with unit scale: its standardized targets are
    # all-zero rows, one clamped norm per category, every epoch.
    scaler = GeneStandardizer(tuple(m[:, 0] for m in cohort.expression),
                              tuple(np.ones(c) for c in categories))
    model = build_model(config.model_config(FEATURES, categories), seed=0)
    targets = scaler.transform([m.T for m in cohort.expression])
    trace = train_model(model, cohort, every, bins, config, targets,
                        np.random.default_rng(0))
    assert [entry["clamped_norms"] for entry in trace] == [len(categories)] * 2


def test_training_error_names_the_epoch_and_every_patient_of_the_stack():
    cohort, _ = synth_generate(SynthConfig(n_patients=10, patch_range=(3, 5)), seed=2)
    cohort[2].bag.features = np.full_like(cohort[2].bag.features, np.nan)
    config = TrainConfig(epochs=1, accumulation=10, gated_baseline=True)
    _, bins = discretize_survival(cohort.times(), cohort.censor_flags(), config.n_bins)
    model = build_model(config.model_config(cohort.feature_dim, ()), seed=0)
    with pytest.raises(TrainingError) as caught:
        train_model(model, cohort, np.arange(10), bins, config, None,
                    np.random.default_rng(0))
    message = str(caught.value)
    assert message.startswith("epoch 1, patients ")
    for patient in cohort:
        assert f"'{patient.patient_id}'" in message


def test_every_autodiff_primitive_runs_in_a_stacked_training_step(monkeypatch):
    """The op names `autodiff` can create are exactly those one stacked
    training step creates across the six configs; an unused primitive fails."""
    defined = set()
    for node in ast.walk(ast.parse(inspect.getsource(ad))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_make"):
            op = node.args[3] if len(node.args) > 3 else None
            assert isinstance(op, ast.Constant) and isinstance(op.value, str), \
                f"_make call on line {node.lineno} has no literal op name"
            defined.add(op.value)

    seen = set()
    make = ad._make

    def recording_make(values, parents, backward_fn, op):
        seen.add(op)
        return make(values, parents, backward_fn, op)

    monkeypatch.setattr(ad, "_make", recording_make)
    for variant in VARIANTS:
        config = variant_config(variant)
        entries = make_entries(np.random.default_rng(9), [4, 1, 7],
                               with_targets=not config.gated_baseline)
        # an event after interval 0 and a censoring pay both NLL terms
        entries[0].interval, entries[0].censor = 1, 0
        entries[1].interval, entries[1].censor = 2, 1
        ad.backward(stack_loss(make_model(config), entries, config).total)
    assert seen == defined, (sorted(defined - seen), sorted(seen - defined))
