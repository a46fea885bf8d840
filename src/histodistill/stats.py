"""Survival statistics: concordance, Kaplan-Meier, log-rank, Spearman."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Sequence

import numpy as np

from .datasets import comparable_pairs
from .errors import UndefinedResultError
from .io import write_atomic


def c_index(risks: np.ndarray, times: np.ndarray, censor: np.ndarray) -> float:
    """Concordance over comparable pairs.

    A pair (i, j) is comparable when patient i has an observed event and
    time_i < time_j (`datasets.comparable_pairs`); it is concordant when
    risk_i > risk_j, and risk ties count half.
    """
    risks = np.asarray(risks, dtype=np.float64)
    concordant = 0.0
    comparable = 0
    for i, later in comparable_pairs(times, censor):
        comparable += int(later.sum())
        concordant += float((risks[i] > risks[later]).sum())
        concordant += 0.5 * float((risks[i] == risks[later]).sum())
    if comparable == 0:
        raise UndefinedResultError("no comparable pairs: every patient is "
                                   "censored or all times coincide")
    return concordant / comparable


@dataclass
class KmCurve:
    """Product-limit estimate stepped at the distinct event times."""
    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray


def km_curve(times: np.ndarray, censor: np.ndarray) -> KmCurve:
    times = np.asarray(times, dtype=np.float64)
    censor = np.asarray(censor)
    if times.size == 0:
        raise UndefinedResultError("empty group")
    event_times = np.unique(times[censor == 0])
    survival = []
    at_risk = []
    deaths = []
    s = 1.0
    for t in event_times:
        n = int((times >= t).sum())
        d = int(((times == t) & (censor == 0)).sum())
        s *= 1.0 - d / n
        survival.append(s)
        at_risk.append(n)
        deaths.append(d)
    return KmCurve(event_times, np.array(survival),
                   np.array(at_risk, dtype=np.int64),
                   np.array(deaths, dtype=np.int64))


def log_rank(times_a: np.ndarray, censor_a: np.ndarray,
             times_b: np.ndarray, censor_b: np.ndarray) -> tuple[float, float]:
    """Two-group log-rank chi-square statistic and its p-value (1 df).

    Groups with no events anywhere return (0, 1) by convention.
    """
    times_a = np.asarray(times_a, dtype=np.float64)
    times_b = np.asarray(times_b, dtype=np.float64)
    censor_a = np.asarray(censor_a)
    censor_b = np.asarray(censor_b)
    if times_a.size == 0 or times_b.size == 0:
        raise UndefinedResultError("log-rank needs two non-empty groups")
    pooled_events = np.unique(np.concatenate([times_a[censor_a == 0],
                                              times_b[censor_b == 0]]))
    observed_minus_expected = 0.0
    variance = 0.0
    for t in pooled_events:
        n_a = int((times_a >= t).sum())
        n_b = int((times_b >= t).sum())
        d_a = int(((times_a == t) & (censor_a == 0)).sum())
        d_b = int(((times_b == t) & (censor_b == 0)).sum())
        n = n_a + n_b
        d = d_a + d_b
        if n == 0 or d == 0:
            continue
        observed_minus_expected += d_a - d * n_a / n
        if n > 1:
            variance += d * (n_a / n) * (1.0 - n_a / n) * (n - d) / (n - 1)
    if variance == 0.0:
        return 0.0, 1.0
    stat = observed_minus_expected ** 2 / variance
    return stat, math.erfc(math.sqrt(stat / 2.0))


def split_by_median_risk(s_mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal halves by predicted mid-curve survival; low survival = high risk.

    Patients are ordered by (survival value, original index) and the first
    floor(n/2) form the high-risk group, so ties and odd counts resolve
    deterministically (the median patient lands in the low-risk group).
    """
    s_mid = np.asarray(s_mid, dtype=np.float64)
    n = s_mid.size
    if n < 2:
        raise UndefinedResultError(f"need at least 2 patients to split, got {n}")
    order = np.argsort(s_mid, kind="stable")
    high = np.sort(order[:n // 2])
    low = np.sort(order[n // 2:])
    return high, low


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation with averaged ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UndefinedResultError(f"spearman needs equal-length vectors, "
                                   f"got {x.shape} and {y.shape}")
    if x.size < 2:
        raise UndefinedResultError("spearman needs at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedResultError("spearman undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


@dataclass
class SpearmanReport:
    category_names: tuple[str, ...]
    values: tuple[np.ndarray, ...]        # per category: one value per patient
    skipped: tuple[str, ...]              # categories too short to correlate

    def means(self) -> np.ndarray:
        return np.array([v.mean() if v.size else np.nan for v in self.values])

    def stds(self) -> np.ndarray:
        return np.array([v.std() if v.size else np.nan for v in self.values])


def spearman_report(predicted: Sequence[Sequence[np.ndarray]],
                    actual: Sequence[Sequence[np.ndarray]],
                    category_names: Sequence[str]) -> SpearmanReport:
    """Per-patient, per-category rank correlations of gene profiles.

    `predicted` and `actual` are indexed [patient][category]. Categories
    with fewer than 2 genes cannot be rank-correlated and are skipped.
    """
    if len(predicted) != len(actual):
        raise UndefinedResultError(f"{len(predicted)} predictions vs "
                                   f"{len(actual)} references")
    n_cat = len(category_names)
    columns: list[list[float]] = [[] for _ in range(n_cat)]
    skipped = []
    for c in range(n_cat):
        lengths = {len(actual[i][c]) for i in range(len(actual))}
        if lengths and max(lengths) < 2:
            skipped.append(category_names[c])
            continue
        for pred_patient, true_patient in zip(predicted, actual):
            columns[c].append(spearman(pred_patient[c], true_patient[c]))
    return SpearmanReport(tuple(category_names),
                          tuple(np.asarray(col) for col in columns),
                          tuple(skipped))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_km_tsv(path: str | Path,
                 groups: Sequence[tuple[str, KmCurve]]) -> None:
    """TSV: group, time, survival, at_risk (one row per curve step)."""
    with StringIO(newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["group", "time", "survival", "at_risk"])
        for name, curve in groups:
            for t, s, n in zip(curve.times, curve.survival, curve.at_risk):
                writer.writerow([name, repr(float(t)), repr(float(s)), int(n)])
        data = fh.getvalue().encode()
    write_atomic(path, lambda out: out.write(data))


def write_spearman_tsv(path: str | Path, report: SpearmanReport) -> None:
    """TSV: category, mean, std, n, then the raw per-patient values."""
    with StringIO(newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["category", "mean", "std", "n", "values"])
        means = report.means()
        stds = report.stds()
        for c, name in enumerate(report.category_names):
            values = report.values[c]
            if name in report.skipped:
                writer.writerow([name, "nan", "nan", 0, "skipped: fewer than 2 genes"])
                continue
            writer.writerow([
                name, repr(float(means[c])), repr(float(stds[c])), values.size,
                ",".join(repr(float(v)) for v in values),
            ])
        data = fh.getvalue().encode()
    write_atomic(path, lambda out: out.write(data))
