"""Stacked forwards are bit-identical to one-bag forwards.

`training.evaluate` runs bags in no-grad stacks (`inference_stacks`), and
the benchmark and the README promise that its risks equal single-bag
`predict` bit for bit, and the gene profiles `eval --spearman` reads off
the same stacks each bag's one-bag reconstruction. Training runs the same
arithmetic with a tape, so a taped stack of bags of one aligned length
gives each patient its one-bag taped forward too. That holds only while
every layer gives a patient's rows the same bits alone and in a stack,
which depends on how BLAS picks its kernels. These tests fail by name on
a BLAS build or thread count that breaks it; CI runs them under
OPENBLAS_NUM_THREADS=1 and 2.
"""

import contextlib

import numpy as np
import pytest

from histodistill import autodiff as ad
from histodistill import training as tr
from histodistill.checkpoint import CheckpointData
from histodistill.datasets import SynthConfig, synth_generate
from histodistill.model import (ModelConfig, build_model, model_forward, predict,
                                stack_forward)

FEATURES = 32
CATEGORIES = (18, 9, 12, 6, 15, 10)
CONFIGS = {
    "default": {},
    "score_head": {"score_head": 1},
    "gated_recon": {"gated_recon": True},
    "cut_bridge": {"cut_bridge": True},
    "assoc_only": {"assoc_only": True},
    "gated_baseline": {"gated_baseline": True, "category_sizes": ()},
    "one_category": {"category_sizes": (7,)},
    # Inner dimensions past the 384 where OpenBLAS's SkylakeX dgemm splits
    # a tall product's inner sum: slide-encoder-sized features (768), and
    # a wide model whose FFN's second product has inner dimension 1024.
    "wide_features": {"feature_dim": 768},
    "wide_model": {"feature_dim": 1024, "width": 512, "heads": 4},
}


def make_model(name: str, seed: int = 0):
    fields = {"feature_dim": FEATURES, "category_sizes": CATEGORIES, **CONFIGS[name]}
    return build_model(ModelConfig(**fields), seed=seed)


def ragged_lengths(rng, count: int = 48) -> list[int]:
    """Lengths in 1..300: half spread over the whole range, half short, so
    that many bags share an aligned length and stacks hold several."""
    spread = rng.integers(1, 301, size=count // 2)
    short = rng.integers(1, 41, size=count - count // 2)
    return [int(n) for n in rng.permutation(np.concatenate([spread, short]))]


def assert_stacks_match_one_bag_forwards(name, model, bags, stacks, mode=ad.no_grad):
    # `recon` is read in `mode`, as `evaluate` reads it under no_grad and
    # the training losses with a tape: the heads run in the grad mode of
    # the first read
    for stack in stacks:
        with mode():
            stacked = stack_forward(model, [bags[pos] for pos in stack])
            stacked_recon = stacked.recon
        for row, pos in enumerate(stack):
            n = bags[pos].shape[0]
            with mode():
                alone = model_forward(model, bags[pos])
                alone_recon = alone.recon
            where = f"{name}: bag {pos} ({n} patches) in a stack of {len(stack)}"
            assert np.array_equal(stacked.hazards.values[row], alone.hazards.values[0]), where
            if alone.diagnostics is None:
                assert stacked_recon is None and alone_recon is None, where
                continue
            pairs = {
                "association scores": (stacked.assoc_scores[row, :, :n], alone.assoc_scores),
                "masked_assoc": (stacked.diagnostics.masked_assoc[row, :, :n],
                                 alone.diagnostics.masked_assoc),
                "fused": (stacked.diagnostics.fused[row, :, :n], alone.diagnostics.fused),
            }
            for c, (got, want) in enumerate(zip(stacked_recon, alone_recon)):
                pairs[f"category {c} reconstruction"] = (got.values[row], want.values[0])
            if alone.diagnostics.morph_weights is not None:
                pairs["morphology weights"] = (stacked.diagnostics.morph_weights[row, :n],
                                               alone.diagnostics.morph_weights)
            for what, (got, want) in pairs.items():
                assert np.array_equal(got, want), f"{where}: {what} differ"


@pytest.mark.parametrize("name", list(CONFIGS))
def test_stacked_forward_is_bit_identical_to_one_bag_forward(name):
    model = make_model(name, seed=len(name))
    rng = np.random.default_rng(sorted(CONFIGS).index(name))
    lengths = ragged_lengths(rng)
    bags = [rng.normal(size=(n, model.config.feature_dim)) for n in lengths]
    stacks = tr.inference_stacks(lengths)
    assert sorted(pos for stack in stacks for pos in stack) == list(range(len(bags)))
    assert max(len(stack) for stack in stacks) >= 4, "no stack of several bags"
    assert_stacks_match_one_bag_forwards(name, model, bags, stacks)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_stack_that_fills_the_row_budget_is_bit_identical_to_one_bag_forward(name):
    model = make_model(name, seed=len(name))
    rng = np.random.default_rng(100 + sorted(CONFIGS).index(name))
    # 64 is aligned, so the bags share one aligned length and fill one stack
    lengths = [64] * (tr.ROW_BUDGET // 64)
    stacks = tr.inference_stacks(lengths)
    assert stacks == [list(range(len(lengths)))]
    bags = [rng.normal(size=(n, model.config.feature_dim)) for n in lengths]
    assert_stacks_match_one_bag_forwards(name, model, bags, stacks)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_taped_stacked_forward_is_bit_identical_to_taped_one_bag_forward(name):
    model = make_model(name, seed=len(name))
    rng = np.random.default_rng(200 + sorted(CONFIGS).index(name))
    # 57 to 64 patches all align to 64, so the bags form one stack
    lengths = [int(n) for n in rng.integers(57, 65, size=12)]
    bags = [rng.normal(size=(n, model.config.feature_dim)) for n in lengths]
    assert stack_forward(model, bags[:1]).hazards.requires_grad, "no tape recorded"
    assert_stacks_match_one_bag_forwards(name, model, bags, [list(range(len(bags)))],
                                         mode=contextlib.nullcontext)


def test_evaluate_risks_do_not_depend_on_which_patients_it_scores(monkeypatch):
    cohort, _ = synth_generate(SynthConfig(n_patients=40, patch_range=(1, 120),
                                           feature_dim=FEATURES), seed=3)
    model = build_model(ModelConfig(feature_dim=FEATURES,
                                    category_sizes=cohort.category_sizes), seed=4)
    ckpt = CheckpointData(model, np.array([6.0, 12.0, 24.0]), None, None, [], None, None)
    forwards = []
    real_stack_forward = tr.stack_forward

    def counting(model, bags, *args):
        forwards.append(len(bags))
        return real_stack_forward(model, bags, *args)

    monkeypatch.setattr(tr, "stack_forward", counting)
    full = tr.evaluate(ckpt, cohort).risks
    assert 0 < len(forwards) < len(cohort), "evaluate did not run stacks"
    monkeypatch.undo()

    for pos in range(len(cohort)):
        assert full[pos] == predict(model, cohort[pos].bag.features).risk, pos
    rng = np.random.default_rng(5)
    subsets = [rng.choice(len(cohort), size=size, replace=False) for size in (12, 23, 40)]
    for subset in [*subsets, np.arange(len(cohort))[::-1]]:
        risks = tr.evaluate(ckpt, cohort, subset).risks
        assert np.array_equal(risks, full[subset]), subset
