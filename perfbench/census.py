"""Tape census: autodiff op nodes built for one training patient step.

Nodes are counted two ways. *Created* counts every call of
`autodiff._make` during the step; *reachable* walks `_parents` from the
loss. Created nodes that the loss never reaches are wasted work. The
census reads private fields of `autodiff`; when they are gone it raises
`CensusError` instead of reporting zero.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from histodistill import autodiff as ad
from histodistill.datasets import SynthConfig
from histodistill.model import (build_model, model_forward, nll_loss,
                                reconstruction_loss, total_loss)
from histodistill.training import TrainConfig

# The op types on today's training tape; any other op lands in "other".
OPS = ("add", "sub", "mul", "div", "matmul", "transpose", "sum", "reshape",
       "concat", "narrow", "softmax", "log", "power", "relu", "elu",
       "sigmoid", "tanh", "clip_min")

# The probe: one patient of the default cohort shape, a 64-patch bag,
# censored in hazard interval 2, under the default TrainConfig.
PROBE_PATCHES = 64
PROBE_INTERVAL = 2
PROBE_CENSOR = 1


class CensusError(RuntimeError):
    """The autodiff internals the census reads are missing or inconsistent."""


def _reachable(root) -> tuple[Counter, int]:
    ops: Counter = Counter()
    leaves = 0
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op == "leaf":
            leaves += 1
        else:
            ops[node._op] += 1
        stack.extend(node._parents)
    return ops, leaves


def _step() -> dict:
    if not hasattr(ad, "_make") or "_parents" not in getattr(ad.Tensor, "__slots__", ()):
        raise CensusError("autodiff no longer exposes _make / Tensor._parents; "
                          "update perfbench/census.py")
    cfg = TrainConfig()
    cohort = SynthConfig()
    model = build_model(cfg.model_config(cohort.feature_dim, cohort.gene_counts), seed=0)
    rng = np.random.default_rng(0)
    bag = rng.normal(size=(PROBE_PATCHES, cohort.feature_dim))
    targets = [rng.normal(size=n) for n in cohort.gene_counts]

    created: Counter = Counter()
    make = ad._make

    def counting_make(values, parents, backward_fn, op):
        created[op] += 1
        return make(values, parents, backward_fn, op)

    ad._make = counting_make
    try:
        result = model_forward(model, bag)
        nll = nll_loss(result.hazards, PROBE_INTERVAL, PROBE_CENSOR)
        recon = reconstruction_loss(result.recon, targets, gamma=cfg.gamma)
        # the exact loss train_model differentiates for one patient
        loss = ad.mul(total_loss(nll, recon, alpha=cfg.alpha), 1.0 / cfg.accumulation)
    finally:
        ad._make = make

    reachable, leaves = _reachable(loss)
    nll_reachable, nll_leaves = _reachable(nll)
    n_created = sum(created.values())
    n_reachable = sum(reachable.values())
    if n_created == 0 or n_reachable == 0 or n_reachable > n_created:
        raise CensusError(f"implausible census: {n_created} created, "
                          f"{n_reachable} reachable")
    out = {
        "autodiff.tape_nodes_per_patient": n_reachable,
        "autodiff.tape_leaves_per_patient": leaves,
        "autodiff.tape_nodes_created_per_patient": n_created,
        "autodiff.tape_useful_ratio": n_reachable / n_created,
        "autodiff.tape_nodes_per_patient.nll_only": sum(nll_reachable.values()),
        "autodiff.tape_leaves_per_patient.nll_only": nll_leaves,
    }
    for op in OPS:
        out[f"autodiff.tape_nodes_per_patient.{op}"] = reachable.get(op, 0)
    out["autodiff.tape_nodes_per_patient.other"] = sum(
        n for op, n in reachable.items() if op not in OPS)
    return out


def tape_census() -> dict:
    """Counts for one probe step; taken twice, and they must agree."""
    first, second = _step(), _step()
    if first != second:
        raise CensusError(f"tape census does not repeat: {first} != {second}")
    return first
