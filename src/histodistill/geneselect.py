"""Differential gene selection between risk groups of the training split.

Patients are split at the median observed time; each gene gets a Welch
t-test on log(1+x) expression, p-values are Benjamini-Hochberg adjusted
jointly across all categories, and significant genes are retained with a
small per-category floor so no reconstruction head goes empty.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    max_iter = 300
    eps = 3e-14
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ConfigError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ConfigError(f"degrees of freedom must be positive, got {df}")
    if not math.isfinite(t):
        return 0.0
    return betainc_reg(0.5 * df, 0.5, df / (df + t * t))


def welch_t(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and its two-sided p-value.

    Both samples constant is degenerate and returns (0, 1) by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise ConfigError(f"welch_t needs at least 2 values per sample, "
                          f"got {x.size} and {y.size}")
    vx, vy = x.var(ddof=1), y.var(ddof=1)
    if vx + vy == 0.0:
        return 0.0, 1.0
    sx, sy = vx / x.size, vy / y.size
    t = (x.mean() - y.mean()) / math.sqrt(sx + sy)
    df = (sx + sy) ** 2 / (
        (sx * sx / (x.size - 1) if sx > 0 else 0.0)
        + (sy * sy / (y.size - 1) if sy > 0 else 0.0))
    return float(t), student_t_two_sided_p(t, df)


def bh_adjust(p_values: Sequence[float]) -> np.ndarray:
    """Benjamini-Hochberg step-up adjustment, order-preserving."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return p.copy()
    if np.any((p < 0) | (p > 1)) or not np.all(np.isfinite(p)):
        raise ConfigError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    out = np.empty(m)
    out[order] = adjusted
    return out


# ---------------------------------------------------------------------------
# risk-group split and selection
# ---------------------------------------------------------------------------

@dataclass
class RiskGroups:
    high_risk: np.ndarray       # indices: event observed at or before midpoint
    low_risk: np.ndarray        # indices: still under observation past midpoint
    midpoint_time: float


def split_risk_groups(times: np.ndarray, censor: np.ndarray) -> RiskGroups:
    """Median-time split; censored at or before the midpoint are excluded."""
    times = np.asarray(times, dtype=np.float64)
    censor = np.asarray(censor)
    if times.size < 2:
        raise ConfigError(f"need at least 2 patients to split, got {times.size}")
    midpoint = float(np.median(times))
    high = np.flatnonzero((censor == 0) & (times <= midpoint))
    low = np.flatnonzero(times > midpoint)
    return RiskGroups(high, low, midpoint)


@dataclass
class CategorySelection:
    retained: np.ndarray        # strictly increasing gene indices
    t_stats: np.ndarray
    p_raw: np.ndarray
    p_adj: np.ndarray


@dataclass
class GeneSelection:
    categories: tuple[CategorySelection, ...]
    midpoint_time: float
    skipped: bool = False

    def retained_sizes(self) -> tuple[int, ...]:
        return tuple(len(c.retained) for c in self.categories)


def _retain_all(sizes: Sequence[int], midpoint: float) -> GeneSelection:
    cats = tuple(
        CategorySelection(np.arange(n), np.full(n, np.nan),
                          np.full(n, np.nan), np.full(n, np.nan))
        for n in sizes)
    return GeneSelection(cats, midpoint, skipped=True)


def differential_select(expression: Sequence[np.ndarray], groups: RiskGroups,
                        alpha: float = 0.05,
                        min_per_category: int = 1) -> GeneSelection:
    """Per-category retained genes from Welch tests on log(1+x) expression.

    `expression` holds one (n_genes, n_patients) matrix per category,
    columns covering exactly the training patients the groups index into.
    A degenerate split (either group smaller than 2) skips testing and
    retains everything, with a warning.
    """
    if not 0 < alpha <= 1:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if min_per_category < 0:
        raise ConfigError("min_per_category must be non-negative")
    sizes = [np.asarray(m).shape[0] for m in expression]
    if len(groups.high_risk) < 2 or len(groups.low_risk) < 2:
        warnings.warn("risk groups too small for differential testing; "
                      "retaining all genes", stacklevel=2)
        return _retain_all(sizes, groups.midpoint_time)

    all_t, all_p, spans = [], [], []
    start = 0
    for matrix in expression:
        matrix = np.log1p(np.asarray(matrix, dtype=np.float64))
        high = matrix[:, groups.high_risk]
        low = matrix[:, groups.low_risk]
        for g in range(matrix.shape[0]):
            t, p = welch_t(high[g], low[g])
            all_t.append(t)
            all_p.append(p)
        spans.append((start, start + matrix.shape[0]))
        start += matrix.shape[0]

    adjusted = bh_adjust(all_p)
    all_t = np.asarray(all_t)
    all_p = np.asarray(all_p)

    categories = []
    for lo, hi in spans:
        t = all_t[lo:hi]
        p = all_p[lo:hi]
        adj = adjusted[lo:hi]
        retained = np.flatnonzero(adj < alpha)
        floor = min(min_per_category, len(p))
        if len(retained) < floor:
            retained = np.sort(np.argsort(p, kind="stable")[:floor])
        categories.append(CategorySelection(retained, t, p, adj))
    return GeneSelection(tuple(categories), groups.midpoint_time)


def write_selection_report(path: str | Path, selection: GeneSelection,
                           gene_ids: Sequence[Sequence[str]],
                           category_names: Sequence[str]) -> None:
    """TSV: gene_id, category, t, p, p_adj, retained."""
    if len(gene_ids) != len(selection.categories):
        raise ConfigError("gene id lists do not match the selection categories")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["gene_id", "category", "t", "p", "p_adj", "retained"])
        for name, ids, cat in zip(category_names, gene_ids, selection.categories):
            kept = set(cat.retained.tolist())
            for g, gene_id in enumerate(ids):
                writer.writerow([
                    gene_id, name,
                    repr(float(cat.t_stats[g])),
                    repr(float(cat.p_raw[g])),
                    repr(float(cat.p_adj[g])),
                    1 if g in kept else 0,
                ])
