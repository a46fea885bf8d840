"""Differential gene selection between risk groups of the training split.

Patients are split at the median observed time; each gene gets a Welch
t-test on log(1+x) expression, p-values are Benjamini-Hochberg adjusted
jointly across all categories, and significant genes are retained with a
small per-category floor so no reconstruction head goes empty.

A fold runs one array pass: every category's high-risk columns fill one
block and its low-risk columns another, and `welch_t` tests each gene as
one row of the two blocks.
Each row's t and p carry the bits of testing that gene alone, which a
per-gene loop gives, because
- `welch_t` copies its samples to C order, so a row's sums are the
  pairwise sums of that row, whatever layout the caller's indexing left;
- the df numerator goes through libm `pow`, as `**` on a float64 scalar
  does (NumPy's array `** 2` is `x * x`, which rounds differently);
- the incomplete beta's prefactor (`lgamma`, `log`, `log1p`, `exp`) runs
  per element through `math`, whose libm rounding NumPy's SIMD loops do
  not match;
- the continued fraction stops each element at its own convergence step.
The remaining arithmetic is elementwise IEEE and identical either way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigError
from .io import _check_ids, write_atomic


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """`fn` from `math` on each element: the C library's rounding, not NumPy's."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64,
                       count=values.size).reshape(values.shape)


def _betacf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Runs on 1-d arrays; each element stops at its own convergence step, so
    it takes exactly the steps it would take alone.
    """
    max_iter = 300
    eps = 3e-14
    tiny = 1e-300
    out = np.empty(x.shape)
    active = np.arange(x.size)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones(x.shape)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    h = d
    for m in range(1, max_iter + 1):
        if not active.size:
            return out
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < eps
        if done.any():
            out[active[done]] = h[done]
            going = ~done
            active = active[going]
            a, b, x, qab, qap, qam, c, d, h = (
                v[going] for v in (a, b, x, qab, qap, qam, c, d, h))
    if active.size:
        raise ArithmeticError(f"incomplete beta did not converge for "
                              f"a={a[0]}, b={b[0]}, x={x[0]}")
    return out


def betainc_reg(a: ArrayLike, b: ArrayLike, x: ArrayLike) -> float | np.ndarray:
    """Regularized incomplete beta I_x(a, b), elementwise over broadcast
    arrays; all-scalar arguments give a float."""
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64)
                                    for v in (a, b, x)))
    bad = (a <= 0) | (b <= 0)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ConfigError(f"beta parameters must be positive, "
                          f"got a={a.ravel()[i]}, b={b.ravel()[i]}")
    out = np.where(x <= 0.0, 0.0, 1.0)
    inside = ~((x <= 0.0) | (x >= 1.0))
    a, b, x = a[inside], b[inside], x[inside]
    ln_front = (_libm(math.lgamma, a + b) - _libm(math.lgamma, a)
                - _libm(math.lgamma, b)
                + a * _libm(math.log, x) + b * _libm(math.log1p, -x))
    front = _libm(math.exp, ln_front)
    lower = x < (a + 1.0) / (a + b + 2.0)
    # the upper tail is 1 - I_{1-x}(b, a): one Lentz loop runs both tails
    first = np.where(lower, a, b)
    tail = front * _betacf(first, np.where(lower, b, a),
                           np.where(lower, x, 1.0 - x)) / first
    out[inside] = np.where(lower, tail, 1.0 - tail)
    return float(out) if out.ndim == 0 else out


def student_t_two_sided_p(t: ArrayLike, df: ArrayLike) -> float | np.ndarray:
    """P(|T| >= |t|) for Student's t with df degrees of freedom, elementwise."""
    t = np.asarray(t, dtype=np.float64)
    df = np.asarray(df, dtype=np.float64)
    if np.any(df <= 0):
        raise ConfigError(f"degrees of freedom must be positive, "
                          f"got {df[df <= 0].ravel()[0]}")
    # a non-finite t has p = 0, which I_0 gives
    return betainc_reg(0.5 * df, 0.5,
                       np.where(np.isfinite(t), df / (df + t * t), 0.0))


def welch_t(x: ArrayLike, y: ArrayLike
            ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Welch's unequal-variance t statistic and its two-sided p-value.

    Samples run along the last axis, so (n_rows, n) inputs give one test
    per row and 1-d inputs give floats. Both samples constant is degenerate
    and returns (0, 1) by convention.
    """
    # C order makes each row's sums the pairwise sums of that row alone
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    nx, ny = x.shape[-1], y.shape[-1]
    if nx < 2 or ny < 2:
        raise ConfigError(f"welch_t needs at least 2 values per sample, "
                          f"got {nx} and {ny}")
    shape = x.shape[:-1]
    if y.shape[:-1] != shape:
        raise ConfigError(f"welch_t samples hold {shape} and {y.shape[:-1]} rows")
    vx = np.atleast_1d(x.var(axis=-1, ddof=1))
    vy = np.atleast_1d(y.var(axis=-1, ddof=1))
    t = np.zeros(vx.shape)
    p = np.ones(vx.shape)
    live = vx + vy != 0.0
    if live.any():
        sx, sy = vx[live] / nx, vy[live] / ny
        diff = np.atleast_1d(x.mean(axis=-1) - y.mean(axis=-1))[live]
        t[live] = diff / np.sqrt(sx + sy)
        # libm pow, as a float64 scalar's ** takes; array ** 2 is x*x
        df = _libm(lambda s: math.pow(s, 2), sx + sy) / (
            np.where(sx > 0, sx * sx / (nx - 1), 0.0)
            + np.where(sy > 0, sy * sy / (ny - 1), 0.0))
        p[live] = student_t_two_sided_p(t[live], df)
    if not shape:
        return float(t[0]), float(p[0])
    return t.reshape(shape), p.reshape(shape)


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

    # The categories share their patient columns, so one C-order block per
    # risk group holds every gene and one welch_t call tests them all;
    # filling preallocated blocks keeps no second copy of the fold alive.
    bounds = np.cumsum([0] + sizes)
    blocks = []
    for cols in (groups.high_risk, groups.low_risk):
        block = np.empty((bounds[-1], len(cols)))
        for matrix, lo, hi in zip(expression, bounds[:-1], bounds[1:]):
            np.take(np.asarray(matrix, dtype=np.float64), cols, axis=1,
                    out=block[lo:hi])
        blocks.append(np.log1p(block, out=block))
    all_t, all_p = welch_t(*blocks)
    adjusted = bh_adjust(all_p)

    categories = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
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
    """TSV: gene_id, category, t, p, p_adj, retained; written atomically,
    with no quoting: ids and names follow the genomics files' rule."""
    if len(gene_ids) != len(selection.categories):
        raise ConfigError("gene id lists do not match the selection categories")
    lines = ["gene_id\tcategory\tt\tp\tp_adj\tretained\r\n"]
    for name, ids, cat in zip(category_names, gene_ids, selection.categories):
        if len(ids) != len(cat.t_stats):
            raise ConfigError(f"category '{name}' has {len(ids)} gene ids for "
                              f"{len(cat.t_stats)} tested genes")
        _check_ids(path, "category", [name])
        _check_ids(path, "gene", ids)
        kept = np.zeros(len(ids), dtype=np.int64)
        kept[cat.retained] = 1
        lines += [f"{gene_id}\t{name}\t{t!r}\t{p!r}\t{adj!r}\t{k}\r\n"
                  for gene_id, t, p, adj, k in zip(
                      ids, cat.t_stats.tolist(), cat.p_raw.tolist(),
                      cat.p_adj.tolist(), kept.tolist())]
    data = "".join(lines).encode()
    write_atomic(path, lambda fh: fh.write(data))
