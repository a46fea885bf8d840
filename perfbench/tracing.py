"""Spans around calls into histodistill's public functions.

The package is not instrumented; the benchmark wraps the functions from
outside. Modules import many of these functions by name
(`from .model import predict`), so replacing only the defining module's
attribute would leave the callers on the original. `install` therefore
rebinds every reference to the original function object held by any
loaded `histodistill` module, and refuses to continue if one survives.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Every wrapped function, as (module, attribute path inside the module).
LAYERS = (
    ("autodiff", "backward"),
    ("blocks", "mhca_forward"),
    ("blocks", "mhsa_forward"),
    ("blocks", "ffn_forward"),
    ("blocks", "snn_forward"),
    ("blocks", "gated_attention_weights"),
    ("blocks", "linear"),
    ("model", "model_forward"),
    ("model", "topk_masked_softmax"),
    ("model", "nll_loss"),
    ("model", "reconstruction_loss"),
    ("model", "predict"),
    ("training", "train_model"),
    ("training", "Adam.step"),
    ("training", "evaluate"),
    ("training", "select_genes"),
    ("training", "run_fold"),
    ("training", "cross_validate"),
    ("geneselect", "differential_select"),
    ("geneselect", "welch_t"),
    ("geneselect", "write_selection_report"),
    ("io", "load_cohort"),
    ("io", "read_bag"),
    ("io", "read_clinical"),
    ("io", "read_genomics"),
    ("io", "write_cohort"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("stats", "c_index"),
    ("stats", "log_rank"),
    ("stats", "km_curve"),
    ("datasets", "synth_generate"),
    ("datasets", "make_folds"),
    ("datasets", "discretize_survival"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{module}.{attr}" for module, attr in LAYERS)

# Called only by `cross-validate`, so only the cv workload exercises them;
# their self time is left out of the per-layer metrics (see DESIGN.md).
CV_ONLY = ("training.cross_validate", "stats.km_curve")


class RebindError(RuntimeError):
    """A wrapped function is still reachable under its original object."""


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "histodistill"
                                  or name.startswith("histodistill."))]


def install(wrappers: dict) -> list:
    """Rebind each named layer to `make(name, original)` everywhere.

    `wrappers` maps a layer name from LAYER_NAMES to a factory
    `make(name, fn) -> wrapper`. Returns the patch list for `uninstall`.
    """
    patches = []
    originals = []
    for name, make in wrappers.items():
        module_name, attr = name.split(".", 1)
        owner = importlib.import_module(f"histodistill.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = make(name, original)
        patches.append((owner, leaf, original))
        setattr(owner, leaf, wrapper)
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
        originals.append((name, original))
    for name, original in originals:
        for module in _package_modules():
            for key, value in vars(module).items():
                if value is original:
                    uninstall(patches)
                    raise RebindError(f"{module.__name__}.{key} still holds the "
                                      f"unwrapped {name}")
    return patches


def uninstall(patches: list) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


# Layers whose calls also add the size of the file they read or write
# (their first argument, `path`) to a byte counter.
_BYTE_COUNTERS = {
    "io.read_bag": "io.read_bag.bytes",
    "checkpoint.save_checkpoint": "checkpoint.bytes",
}


class Tracer:
    """Keeps spans in memory as parallel lists: name, start, end, parent.

    Flat lists of atoms keep the garbage collector from rescanning every
    span during the run. Stage spans opened with `stage` parent the layer
    spans inside them, so a stage's self time is the benchmark's own code
    between layer calls.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list = []

    @property
    def spans(self) -> list[tuple[str, int, int, int]]:
        """(name, start_ns, end_ns, parent index or -1), in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def _make_wrapper(self, name, fn):
        counter = _BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if counter is not None:
                path = kwargs["path"] if "path" in kwargs else args[0]
                self.counters[counter] += os.path.getsize(path)
            return result
        return wrapper

    def start(self) -> None:
        self._patches = install({name: self._make_wrapper for name in LAYER_NAMES})

    def stop(self) -> None:
        uninstall(self._patches)
        self._patches = []

    @contextlib.contextmanager
    def stage(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def duration_ms(self, name: str) -> float:
        """Total duration of the spans called `name`."""
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends)
                   if n == name) / 1e6

    def totals(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Calls and self time per span name, optionally under spans `root`."""
        child_ns = [0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_ns[parent] += end - start
        inside = None
        if root is not None:
            inside = [False] * len(self.names)
            for i, (name, parent) in enumerate(zip(self.names, self.parents)):
                inside[i] = name == root or (parent >= 0 and inside[parent])
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
        for i, (name, start, end) in enumerate(zip(self.names, self.starts, self.ends)):
            if inside is not None and not inside[i]:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_ns[i]) / 1e6
        return dict(out)
