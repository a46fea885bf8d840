import math

import numpy as np
import pytest
from scipy import special as spsp
from scipy import stats as sps

from histodistill.datasets import SynthConfig, make_folds, synth_generate
from histodistill.errors import ConfigError
from histodistill.geneselect import (CategorySelection, GeneSelection,
                                     RiskGroups, bh_adjust, betainc_reg,
                                     differential_select, split_risk_groups,
                                     student_t_two_sided_p, welch_t,
                                     write_selection_report)
from histodistill.training import expression_matrices


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_betainc_against_scipy_grid():
    for a in (0.5, 1.0, 2.5, 10.0, 40.0):
        for b in (0.5, 1.0, 3.0, 25.0):
            for x in (0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0):
                np.testing.assert_allclose(
                    betainc_reg(a, b, x), spsp.betainc(a, b, x),
                    atol=1e-12, err_msg=f"a={a} b={b} x={x}")


def test_betainc_symmetry():
    assert betainc_reg(2.0, 3.0, 0.4) == pytest.approx(
        1.0 - betainc_reg(3.0, 2.0, 0.6), abs=1e-13)


def test_t_tail_against_scipy():
    for t in (-6.0, -1.3, 0.0, 0.7, 2.1, 9.0):
        for df in (1.0, 2.5, 10.0, 100.0):
            np.testing.assert_allclose(
                student_t_two_sided_p(t, df),
                2.0 * sps.t.sf(abs(t), df),
                atol=1e-12, err_msg=f"t={t} df={df}")


# ---------------------------------------------------------------------------
# Welch's test
# ---------------------------------------------------------------------------

def test_welch_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(40):
        x = rng.normal(0.0, 1.0, size=int(rng.integers(2, 30)))
        y = rng.normal(0.4, 1.7, size=int(rng.integers(2, 30)))
        t, p = welch_t(x, y)
        ref = sps.ttest_ind(x, y, equal_var=False)
        np.testing.assert_allclose(t, ref.statistic, atol=1e-10)
        np.testing.assert_allclose(p, ref.pvalue, atol=1e-10)


def test_welch_both_constant_is_null():
    assert welch_t([3.0, 3.0, 3.0], [3.0, 3.0]) == (0.0, 1.0)


def test_welch_one_constant_sample():
    t, p = welch_t([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = sps.ttest_ind([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], equal_var=False)
    np.testing.assert_allclose(t, ref.statistic, atol=1e-10)
    np.testing.assert_allclose(p, ref.pvalue, atol=1e-10)


def test_welch_rejects_tiny_samples():
    with pytest.raises(ConfigError):
        welch_t([1.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# Benjamini-Hochberg
# ---------------------------------------------------------------------------

def test_bh_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(size=int(rng.integers(1, 60)))
        np.testing.assert_allclose(bh_adjust(p),
                                   sps.false_discovery_control(p, method="bh"),
                                   atol=1e-12)


def test_bh_hand_example():
    np.testing.assert_allclose(bh_adjust([0.01, 0.04, 0.03, 0.005]),
                               [0.02, 0.04, 0.04, 0.02], atol=1e-12)


def test_bh_preserves_order_and_bounds():
    rng = np.random.default_rng(2)
    p = rng.uniform(size=50)
    adj = bh_adjust(p)
    assert (adj >= p - 1e-15).all()
    assert (adj <= 1.0).all()
    order = np.argsort(p)
    assert (np.diff(adj[order]) >= -1e-15).all()


def test_bh_empty_and_bad_input():
    assert bh_adjust([]).size == 0
    with pytest.raises(ConfigError):
        bh_adjust([0.5, 1.5])
    with pytest.raises(ConfigError):
        bh_adjust([0.5, np.nan])


# ---------------------------------------------------------------------------
# risk-group split
# ---------------------------------------------------------------------------

def test_split_risk_groups_hand_case():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    censor = np.array([0, 1, 0, 0])
    groups = split_risk_groups(times, censor)
    assert groups.midpoint_time == 2.5
    np.testing.assert_array_equal(groups.high_risk, [0])
    np.testing.assert_array_equal(groups.low_risk, [2, 3])


def test_split_risk_groups_excludes_early_censored():
    times = np.array([1.0, 1.0, 10.0, 10.0])
    censor = np.array([1, 1, 0, 0])
    groups = split_risk_groups(times, censor)
    assert groups.high_risk.size == 0
    np.testing.assert_array_equal(groups.low_risk, [2, 3])


def test_split_risk_groups_needs_two_patients():
    with pytest.raises(ConfigError):
        split_risk_groups(np.array([1.0]), np.array([0]))


# ---------------------------------------------------------------------------
# differential selection
# ---------------------------------------------------------------------------

def planted_expression(rng, n_high, n_low, driven, flat):
    """One category matrix: `driven` genes shifted between groups, `flat`
    genes pure noise. Columns are high-risk patients then low-risk."""
    shifted = np.concatenate([
        rng.normal(6.0, 0.3, size=(driven, n_high)),
        rng.normal(1.0, 0.3, size=(driven, n_low)),
    ], axis=1)
    noise = rng.normal(3.0, 0.3, size=(flat, n_high + n_low))
    return np.abs(np.concatenate([shifted, noise], axis=0))


def test_differential_select_recovers_planted_genes():
    rng = np.random.default_rng(3)
    n_high, n_low = 20, 20
    groups = RiskGroups(np.arange(n_high), np.arange(n_high, n_high + n_low),
                        10.0)
    expr = [planted_expression(rng, n_high, n_low, driven=3, flat=9),
            planted_expression(rng, n_high, n_low, driven=2, flat=6)]
    sel = differential_select(expr, groups, alpha=0.05)
    assert not sel.skipped
    np.testing.assert_array_equal(sel.categories[0].retained, [0, 1, 2])
    np.testing.assert_array_equal(sel.categories[1].retained, [0, 1])
    assert sel.retained_sizes() == (3, 2)


def test_differential_select_adjusts_jointly():
    rng = np.random.default_rng(4)
    groups = RiskGroups(np.arange(10), np.arange(10, 20), 5.0)
    expr = [planted_expression(rng, 10, 10, driven=2, flat=3),
            planted_expression(rng, 10, 10, driven=1, flat=4)]
    sel = differential_select(expr, groups)
    raw = np.concatenate([c.p_raw for c in sel.categories])
    joint = sps.false_discovery_control(raw, method="bh")
    got = np.concatenate([c.p_adj for c in sel.categories])
    np.testing.assert_allclose(got, joint, atol=1e-12)


def test_differential_select_drops_constant_genes():
    rng = np.random.default_rng(5)
    groups = RiskGroups(np.arange(12), np.arange(12, 24), 5.0)
    matrix = planted_expression(rng, 12, 12, driven=2, flat=2)
    matrix[2:] = 1.0     # flat genes literally constant, p becomes 1
    sel = differential_select([matrix], groups)
    np.testing.assert_array_equal(sel.categories[0].retained, [0, 1])
    np.testing.assert_array_equal(sel.categories[0].p_raw[2:], [1.0, 1.0])


def test_differential_select_floor_keeps_best_genes():
    rng = np.random.default_rng(6)
    groups = RiskGroups(np.arange(8), np.arange(8, 16), 5.0)
    matrix = np.abs(rng.normal(3.0, 0.3, size=(5, 16)))   # no real signal
    sel = differential_select([matrix], groups, alpha=1e-9,
                              min_per_category=2)
    cat = sel.categories[0]
    assert cat.retained.size == 2
    best = np.sort(np.argsort(cat.p_raw, kind="stable")[:2])
    np.testing.assert_array_equal(cat.retained, best)
    assert (np.diff(cat.retained) > 0).all()


def test_differential_select_degenerate_split_retains_all():
    groups = RiskGroups(np.array([0]), np.arange(1, 6), 2.0)
    expr = [np.abs(np.random.default_rng(7).normal(size=(4, 6)))]
    with pytest.warns(UserWarning):
        sel = differential_select(expr, groups)
    assert sel.skipped
    np.testing.assert_array_equal(sel.categories[0].retained, np.arange(4))


def test_differential_select_rejects_bad_alpha():
    groups = RiskGroups(np.arange(3), np.arange(3, 6), 1.0)
    with pytest.raises(ConfigError):
        differential_select([np.ones((2, 6))], groups, alpha=0.0)


def test_selection_report_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    groups = RiskGroups(np.arange(6), np.arange(6, 12), 3.0)
    expr = [planted_expression(rng, 6, 6, driven=1, flat=2)]
    sel = differential_select(expr, groups)
    path = tmp_path / "selection.tsv"
    write_selection_report(path, sel, [["g0", "g1", "g2"]], ["cat"])
    lines = path.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["gene_id", "category", "t", "p",
                                    "p_adj", "retained"]
    assert len(lines) == 4
    rows = [ln.split("\t") for ln in lines[1:]]
    flags = {row[0]: row[5] for row in rows}
    kept = set(sel.categories[0].retained.tolist())
    for g, gene in enumerate(["g0", "g1", "g2"]):
        assert flags[gene] == ("1" if g in kept else "0")
    # stored p-values parse back exactly
    np.testing.assert_array_equal(
        [float(row[3]) for row in rows], sel.categories[0].p_raw)


def test_selection_report_mismatched_ids(tmp_path):
    sel = GeneSelection(
        (CategorySelection(np.arange(1), np.zeros(1), np.ones(1),
                           np.ones(1)),),
        1.0)
    with pytest.raises(ConfigError):
        write_selection_report(tmp_path / "x.tsv", sel, [["a"], ["b"]], ["c"])
    with pytest.raises(ConfigError, match="2 gene ids for 1 tested"):
        write_selection_report(tmp_path / "x.tsv", sel, [["a", "b"]], ["c"])
    assert not (tmp_path / "x.tsv").exists()


# ---------------------------------------------------------------------------
# the array API against its own scalar calls
# ---------------------------------------------------------------------------

def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_welch_rows_equal_one_row_calls():
    rng = np.random.default_rng(9)
    high = rng.normal(2.0, 1.0, size=(40, 9))
    low = rng.normal(2.5, 0.7, size=(40, 13))
    high[0], low[0] = 4.0, 4.0              # both constant
    high[2] = 1.5                           # one constant sample
    low[4] = -3.0
    high[6] += 60.0                         # huge |t|, x near 0
    high[8] = low[8].mean() + np.linspace(-1.0, 1.0, 9)  # t near 0, x near 1
    high = high[:, ::-1][::2]               # strided rows
    low = low[::2]
    t, p = welch_t(high, low)
    assert t.shape == p.shape == (20,)
    one = [welch_t(high[g], low[g]) for g in range(20)]
    assert all(type(v) is float for row in one for v in row)
    np.testing.assert_array_equal(bits(t), bits([r[0] for r in one]))
    np.testing.assert_array_equal(bits(p), bits([r[1] for r in one]))
    assert (t[0], p[0]) == (0.0, 1.0)
    assert 0.0 < p[1] < 1.0 and 0.0 < p[2] < 1.0 and p[3] < 1e-12
    assert p[4] > 0.99


def test_welch_needs_matching_rows():
    with pytest.raises(ConfigError):
        welch_t(np.ones((3, 4)), np.ones((2, 4)))
    with pytest.raises(ConfigError):
        welch_t(np.ones((3, 4)), np.ones((3, 1)))


def test_betainc_broadcast_equals_scalar_calls():
    a = np.array([[0.5], [2.0], [7.5], [40.0]])
    b = np.array([0.5, 3.0, 25.0])
    x = np.array([0.0, 1e-300, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-16, 1.0])
    got = betainc_reg(a[..., None], b[None, :, None], x)
    assert got.shape == (4, 3, 9)
    want = [[[betainc_reg(float(ai), float(bi), float(xi)) for xi in x]
             for bi in b] for ai in a[:, 0]]
    assert type(want[0][0][0]) is float
    np.testing.assert_array_equal(bits(got), bits(want))
    assert (got[..., 0] == 0.0).all() and (got[..., -1] == 1.0).all()
    # both sides of the switch to the upper tail at x = (a+1)/(a+b+2)
    for ai, bi in ((2.0, 3.0), (0.5, 0.5), (30.0, 4.0)):
        edge = (ai + 1.0) / (ai + bi + 2.0)
        near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
        np.testing.assert_array_equal(
            bits(betainc_reg(ai, bi, near)),
            bits([betainc_reg(ai, bi, float(v)) for v in near]))
        np.testing.assert_allclose(betainc_reg(ai, bi, near),
                                   spsp.betainc(ai, bi, near), atol=1e-12)


def test_t_tail_array_equals_scalar_calls():
    t = np.array([-np.inf, -8.0, -0.3, 0.0, 1.7, 40.0, np.inf, np.nan])
    df = np.linspace(1.0, 90.0, t.size)
    got = student_t_two_sided_p(t, df)
    np.testing.assert_array_equal(
        bits(got), bits([student_t_two_sided_p(float(ti), float(di))
                         for ti, di in zip(t, df)]))
    assert got[0] == got[-2] == got[-1] == 0.0


def test_non_positive_parameters_anywhere_in_an_array_are_rejected():
    good = np.full(5, 2.0)
    for bad in (0.0, -1.0):
        poisoned = good.copy()
        poisoned[3] = bad
        with pytest.raises(ConfigError, match="positive"):
            betainc_reg(poisoned, good, np.full(5, 0.5))
        with pytest.raises(ConfigError, match="positive"):
            betainc_reg(good, poisoned, 0.5)
        with pytest.raises(ConfigError, match="positive"):
            student_t_two_sided_p(np.ones(5), poisoned)


# ---------------------------------------------------------------------------
# oracle: the per-gene scalar code this module ran before it took arrays
# ---------------------------------------------------------------------------

def _ref_betacf(a: float, b: float, x: float) -> float:
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


def _ref_betainc_reg(a: float, b: float, x: float) -> float:
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
        return front * _ref_betacf(a, b, x) / a
    return 1.0 - front * _ref_betacf(b, a, 1.0 - x) / b


def _ref_student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ConfigError(f"degrees of freedom must be positive, got {df}")
    if not math.isfinite(t):
        return 0.0
    return _ref_betainc_reg(0.5 * df, 0.5, df / (df + t * t))


def _ref_welch_t(x, y) -> tuple[float, float]:
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
    return float(t), _ref_student_t_two_sided_p(t, df)


def _ref_differential_select(expression, groups, alpha=0.05, min_per_category=1):
    """The per-gene loop, one category after another."""
    all_t, all_p, spans = [], [], []
    start = 0
    for matrix in expression:
        matrix = np.log1p(np.asarray(matrix, dtype=np.float64))
        high = matrix[:, groups.high_risk]
        low = matrix[:, groups.low_risk]
        for g in range(matrix.shape[0]):
            t, p = _ref_welch_t(high[g], low[g])
            all_t.append(t)
            all_p.append(p)
        spans.append((start, start + matrix.shape[0]))
        start += matrix.shape[0]
    adjusted = bh_adjust(all_p)
    all_t, all_p = np.asarray(all_t), np.asarray(all_p)
    out = []
    for lo, hi in spans:
        p = all_p[lo:hi]
        retained = np.flatnonzero(adjusted[lo:hi] < alpha)
        floor = min(min_per_category, len(p))
        if len(retained) < floor:
            retained = np.sort(np.argsort(p, kind="stable")[:floor])
        out.append((all_t[lo:hi], p, adjusted[lo:hi], retained))
    return out


PREP_SHAPE = {"patch_range": (8, 16), "gene_counts": (100, 300, 500, 350, 500, 450)}


@pytest.mark.parametrize("synth, seed", [(PREP_SHAPE, 0), (PREP_SHAPE, 1), ({}, 0)],
                         ids=["prep-seed0", "prep-seed1", "default-seed0"])
def test_differential_select_is_bit_equal_to_the_per_gene_loop(synth, seed):
    cohort, _ = synth_generate(SynthConfig(**synth), seed=seed)
    times, censor = cohort.times(), cohort.censor_flags()
    compared = 0
    for train_idx, _ in make_folds(cohort, seed, 5):
        groups = split_risk_groups(times[train_idx], censor[train_idx])
        expression = expression_matrices(cohort, train_idx)
        sel = differential_select(expression, groups)
        ref = _ref_differential_select(expression, groups)
        assert not sel.skipped and len(ref) == len(sel.categories)
        for cat, (t, p, adj, retained) in zip(sel.categories, ref):
            np.testing.assert_array_equal(bits(cat.t_stats), bits(t))
            np.testing.assert_array_equal(bits(cat.p_raw), bits(p))
            np.testing.assert_array_equal(bits(cat.p_adj), bits(adj))
            np.testing.assert_array_equal(cat.retained, retained)
            compared += t.size
        # row-wise welch_t on blocks that fancy indexing leaves out of C order
        logged = np.log1p(np.concatenate(expression))
        t, p = welch_t(logged[:, groups.high_risk], logged[:, groups.low_risk])
        np.testing.assert_array_equal(bits(t), bits(np.concatenate([r[0] for r in ref])))
        np.testing.assert_array_equal(bits(p), bits(np.concatenate([r[1] for r in ref])))
    assert compared == 5 * sum(SynthConfig(**synth).gene_counts)


# ---------------------------------------------------------------------------
# degenerate gene panels
# ---------------------------------------------------------------------------

def test_a_constant_category_keeps_exactly_its_floor():
    rng = np.random.default_rng(10)
    groups = RiskGroups(np.arange(10), np.arange(10, 20), 5.0)
    expr = [planted_expression(rng, 10, 10, driven=2, flat=2),
            np.full((6, 20), 2.5)]
    for floor in (0, 1, 3, 9):
        sel = differential_select(expr, groups, min_per_category=floor)
        flat = sel.categories[1]
        np.testing.assert_array_equal(flat.t_stats, np.zeros(6))
        np.testing.assert_array_equal(flat.p_raw, np.ones(6))
        np.testing.assert_array_equal(flat.p_adj, np.ones(6))
        # all p tie at 1, so the stable argsort's floor is the first genes
        np.testing.assert_array_equal(flat.retained, np.arange(min(floor, 6)))
        assert sel.categories[0].retained.size >= 2


def test_two_patients_per_group_still_tests_every_gene():
    rng = np.random.default_rng(11)
    groups = RiskGroups(np.array([0, 3]), np.array([1, 2]), 4.0)
    expr = [np.abs(rng.normal(3.0, 1.0, size=(5, 4))),
            np.abs(rng.normal(3.0, 1.0, size=(3, 4)))]
    sel = differential_select(expr, groups)
    assert not sel.skipped
    for cat, matrix in zip(sel.categories, expr):
        assert np.isfinite(cat.t_stats).all() and (cat.t_stats != 0).all()
        assert ((cat.p_raw > 0) & (cat.p_raw <= 1)).all()
        logged = np.log1p(matrix)
        for g in range(matrix.shape[0]):
            ref = sps.ttest_ind(logged[g, [0, 3]], logged[g, [1, 2]],
                                equal_var=False)
            np.testing.assert_allclose(cat.p_raw[g], ref.pvalue, atol=1e-10)
