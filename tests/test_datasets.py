import numpy as np
import pytest

from histodistill.datasets import (CATEGORY_NAMES, Cohort, PatchBag, Patient,
                                   SurvivalLabel, SynthConfig, assign_bins,
                                   discretize_survival, make_folds,
                                   synth_generate)
from histodistill.datasets import _solve_censor_rate
from histodistill.errors import ConfigError, DataFormatError
from histodistill import io
from histodistill.io import load_cohort, read_genomics, write_cohort
from histodistill.stats import c_index
from histodistill.training import expression_matrices


def tiny_cohort(times, censor, n_patches=3, dim=4):
    rng = np.random.default_rng(0)
    patients = [
        Patient(PatchBag(f"p{i:03d}", rng.normal(size=(n_patches, dim))),
                SurvivalLabel(float(t), int(c)))
        for i, (t, c) in enumerate(zip(times, censor))
    ]
    return Cohort(patients)


# ---------------------------------------------------------------------------
# record validation
# ---------------------------------------------------------------------------

def test_patch_bag_rejects_bad_shapes():
    with pytest.raises(DataFormatError):
        PatchBag("p", np.zeros(5))
    with pytest.raises(DataFormatError):
        PatchBag("p", np.zeros((0, 4)))
    with pytest.raises(DataFormatError):
        PatchBag("p", np.array([[1.0, np.nan]]))


def test_survival_label_validation():
    label = SurvivalLabel(12, 0)
    assert label.time_months == 12.0
    with pytest.raises(DataFormatError):
        SurvivalLabel(0.0, 0)
    with pytest.raises(DataFormatError):
        SurvivalLabel(5.0, 2)


def test_cohort_validate_catches_structure_drift():
    cohort = tiny_cohort([1.0, 2.0], [0, 0])
    cohort.validate()
    cohort.patients[1].bag = PatchBag("p001", np.zeros((2, 7)))
    with pytest.raises(DataFormatError):
        cohort.validate()
    dup = tiny_cohort([1.0, 2.0], [0, 0])
    dup.patients[1].bag = PatchBag("p000", np.zeros((2, 4)))
    with pytest.raises(DataFormatError):
        dup.validate()


def test_cohort_accessors():
    cohort = tiny_cohort([3.0, 1.0, 2.0], [0, 1, 0])
    assert len(cohort) == 3
    assert cohort.feature_dim == 4
    np.testing.assert_array_equal(cohort.times(), [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(cohort.censor_flags(), [0, 1, 0])
    assert cohort.category_sizes is None


# ---------------------------------------------------------------------------
# survival discretization
# ---------------------------------------------------------------------------

def test_discretize_quartile_boundaries():
    times = np.arange(1.0, 9.0)          # events 1..8
    censor = np.zeros(8, dtype=int)
    boundaries, bins = discretize_survival(times, censor, n_bins=4)
    np.testing.assert_allclose(boundaries, [2.75, 4.5, 6.25], atol=1e-12)
    np.testing.assert_array_equal(bins, [0, 0, 1, 1, 2, 2, 3, 3])


def test_discretize_ignores_censored_for_boundaries():
    times = np.array([1.0, 2.0, 3.0, 4.0, 100.0, 200.0])
    censor = np.array([0, 0, 0, 0, 1, 1])
    boundaries, bins = discretize_survival(times, censor, n_bins=2)
    np.testing.assert_allclose(boundaries, [2.5])
    # censored patients still land in an interval, here the last one
    np.testing.assert_array_equal(bins, [0, 0, 1, 1, 1, 1])


def test_discretize_needs_enough_events():
    with pytest.raises(ConfigError):
        discretize_survival(np.array([1.0, 2.0, 3.0]),
                            np.array([0, 0, 1]), n_bins=3)
    with pytest.raises(ConfigError):
        discretize_survival(np.array([1.0]), np.array([0]), n_bins=0)


def test_assign_bins_boundary_goes_right():
    boundaries = np.array([2.0, 4.0, 6.0])
    times = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 7.0])
    np.testing.assert_array_equal(assign_bins(times, boundaries),
                                  [0, 1, 1, 2, 3, 3])


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def test_make_folds_partitions_cohort():
    cohort = tiny_cohort(np.arange(1.0, 24.0),
                         np.random.default_rng(1).integers(0, 2, 23))
    folds = make_folds(cohort, seed=7, n_folds=5)
    assert len(folds) == 5
    all_val = np.concatenate([val for _, val in folds])
    np.testing.assert_array_equal(np.sort(all_val), np.arange(23))
    for train, val in folds:
        assert np.intersect1d(train, val).size == 0
        np.testing.assert_array_equal(np.sort(np.concatenate([train, val])),
                                      np.arange(23))
        assert val.size in (4, 5)


def test_make_folds_stratifies_censoring():
    censor = np.array([0] * 50 + [1] * 50)
    cohort = tiny_cohort(np.arange(1.0, 101.0), censor)
    for _, val in make_folds(cohort, seed=3, n_folds=5):
        flags = censor[val]
        assert (flags == 0).sum() == 10
        assert (flags == 1).sum() == 10


def test_make_folds_deterministic_and_seed_sensitive():
    cohort = tiny_cohort(np.arange(1.0, 31.0), np.zeros(30, dtype=int))
    a = make_folds(cohort, seed=11)
    b = make_folds(cohort, seed=11)
    c = make_folds(cohort, seed=12)
    for (_, va), (_, vb) in zip(a, b):
        np.testing.assert_array_equal(va, vb)
    assert any(not np.array_equal(va, vc)
               for (_, va), (_, vc) in zip(a, c))


def test_make_folds_rejects_small_cohort():
    with pytest.raises(ConfigError):
        make_folds(tiny_cohort([1.0, 2.0], [0, 0]), seed=0, n_folds=5)


# ---------------------------------------------------------------------------
# censoring-rate solver
# ---------------------------------------------------------------------------

def test_censor_rate_zero_target():
    assert _solve_censor_rate(np.array([0.5, 1.0]), 0.0) == 0.0


def test_censor_rate_closed_form_single_rate():
    # with equal event rate lam, share = c / (c + lam); target 1/3 -> c = lam/2
    lam = 0.8
    rate = _solve_censor_rate(np.full(10, lam), 1.0 / 3.0)
    np.testing.assert_allclose(rate, lam / 2.0, atol=1e-9)


def test_censor_rate_hits_target_mean():
    rng = np.random.default_rng(2)
    rates = rng.uniform(0.05, 2.0, size=40)
    c = _solve_censor_rate(rates, 0.30)
    np.testing.assert_allclose(np.mean(c / (c + rates)), 0.30, atol=1e-8)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_prototypes=40, feature_dim=32)
    with pytest.raises(ConfigError):
        SynthConfig(gene_counts=(4, 12))
    with pytest.raises(ConfigError):
        SynthConfig(censor_target=1.0)
    with pytest.raises(ConfigError):
        SynthConfig(risk_coeffs=(1.0, -1.0))
    with pytest.raises(ConfigError):
        SynthConfig(patch_range=(10, 5))


def test_synth_generate_structure():
    config = SynthConfig(n_patients=25, patch_range=(5, 12), feature_dim=16)
    cohort, truth = synth_generate(config, seed=0)
    assert len(cohort) == 25
    assert cohort.feature_dim == 16
    assert cohort.category_names == CATEGORY_NAMES
    assert cohort.category_sizes == config.gene_counts
    assert cohort.gene_ids is not None
    assert tuple(len(ids) for ids in cohort.gene_ids) == config.gene_counts
    assert cohort.gene_ids[0][0] == "tumor_suppression_0000"
    for p in cohort:
        assert 5 <= p.bag.n_patches <= 12
        assert p.patient_id.startswith("synthetic_")
        assert p.label.time_months > 0
    assert truth.prototypes.shape == (6, 16)
    assert truth.mixtures.shape == (25, 6)
    np.testing.assert_allclose(truth.mixtures.sum(axis=1), np.ones(25),
                               atol=1e-9)
    np.testing.assert_allclose(truth.risks,
                               truth.mixtures @ truth.risk_coeffs, atol=1e-12)


def test_synth_generate_deterministic():
    config = SynthConfig(n_patients=10, patch_range=(4, 6), feature_dim=8)
    a, truth_a = synth_generate(config, seed=5)
    b, truth_b = synth_generate(config, seed=5)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.bag.features, pb.bag.features)
        assert pa.label.time_months == pb.label.time_months
        assert pa.label.censor == pb.label.censor
    for ma, mb in zip(a.expression, b.expression):
        np.testing.assert_array_equal(ma, mb)
    np.testing.assert_array_equal(truth_a.mixtures, truth_b.mixtures)
    c, _ = synth_generate(config, seed=6)
    assert not np.array_equal(a[0].bag.features, c[0].bag.features)


def test_synth_censoring_near_target():
    cohort, _ = synth_generate(SynthConfig(n_patients=400), seed=1)
    share = cohort.censor_flags().mean()
    assert 0.20 <= share <= 0.40


def test_synth_planted_risk_is_informative():
    cohort, truth = synth_generate(SynthConfig(n_patients=300), seed=2)
    c = c_index(truth.risks, cohort.times(), cohort.censor_flags())
    assert c >= 0.75


def test_synth_driven_masks_cover_half():
    config = SynthConfig(n_patients=5, patch_range=(3, 4))
    _, truth = synth_generate(config, seed=3)
    for mask, count in zip(truth.driven_masks, config.gene_counts):
        assert mask.sum() == max(1, round(0.5 * count))
        assert mask[:mask.sum()].all()


def test_synth_driven_genes_track_risk():
    config = SynthConfig(n_patients=150, patch_range=(3, 5))
    cohort, truth = synth_generate(config, seed=4)
    category = 1
    mask = truth.driven_masks[category]
    expr = cohort.expression[category].T
    risks = truth.risks
    driven_corr = np.abs([np.corrcoef(expr[:, g], risks)[0, 1]
                          for g in np.flatnonzero(mask)])
    flat_corr = np.abs([np.corrcoef(expr[:, g], risks)[0, 1]
                        for g in np.flatnonzero(~mask)])
    assert np.median(driven_corr) > 0.5
    assert np.median(flat_corr) < 0.3


def test_synth_noise_free_genes_follow_map():
    config = SynthConfig(n_patients=8, patch_range=(3, 4), gene_noise=0.0)
    cohort, truth = synth_generate(config, seed=5)
    for i in range(len(cohort)):
        expected = truth.gene_maps[0] @ truth.mixtures[i]
        np.testing.assert_allclose(cohort.expression[0][:, i],
                                   expected.astype(np.float32), atol=1e-6)


def test_synth_truth_keeps_each_patchs_prototype():
    config = SynthConfig(n_patients=8, patch_range=(3, 9), patch_noise=0.0)
    cohort, truth = synth_generate(config, seed=5)
    assert len(truth.assignments) == len(cohort)
    for patient, assignments in zip(cohort, truth.assignments):
        assert np.array_equal(patient.bag.features,
                              truth.prototypes[assignments].astype(np.float32))


# ---------------------------------------------------------------------------
# one expression matrix per category
# ---------------------------------------------------------------------------

def _stacked_expression_matrices(source, indices):
    """A fresh `np.stack` of the source cohort's patient columns per call,
    the oracle for the column takes of `expression_matrices`."""
    return [np.stack([m[:, int(i)] for i in indices], axis=1) for m in source.expression]


def _assert_matrices_match_the_stack(cohort, source):
    folds = make_folds(cohort, seed=0, n_folds=3)
    n = len(cohort)
    for indices in (*folds[0], np.arange(n), np.arange(n)[::-1], [n - 1, 0, 2]):
        got = expression_matrices(cohort, indices)
        want = _stacked_expression_matrices(source, indices)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float64
            assert g.shape == w.shape
            assert g.flags.c_contiguous and g.flags.writeable
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def _shuffle_genomics_columns(matrix_path, seed=0):
    """Rewrite the genomics matrix with its patient columns permuted."""
    rows = [line.split("\t") for line in
            matrix_path.read_text(encoding="utf-8").splitlines()]
    order = 1 + np.random.default_rng(seed).permutation(len(rows[0]) - 1)
    matrix_path.write_text("".join(
        "\t".join([row[0], *(row[j] for j in order)]) + "\r\n" for row in rows),
        encoding="utf-8")


def _memory_root(array):
    while array.base is not None:
        array = array.base
    return array


@pytest.fixture(scope="module")
def genomics_synth():
    config = SynthConfig(n_patients=9, patch_range=(3, 5), feature_dim=4,
                         n_prototypes=3, gene_counts=(1, 3, 5, 2, 4, 2))
    return synth_generate(config, seed=11)[0]


@pytest.fixture(params=["file_in_cohort_order", "file_in_other_order"])
def loaded_cohort(request, tmp_path, genomics_synth):
    manifest = write_cohort(tmp_path, genomics_synth, name="toy")
    if request.param == "file_in_other_order":
        _shuffle_genomics_columns(tmp_path / "toy_genomics.tsv")
    return load_cohort(manifest)


def test_expression_matrices_of_a_loaded_cohort_match_the_stack(loaded_cohort,
                                                                genomics_synth):
    # a file with shuffled patient columns loads to the matrices it was
    # written from, as an in-order file does
    assert [p.patient_id for p in loaded_cohort] == [p.patient_id for p in genomics_synth]
    assert loaded_cohort.category_names == genomics_synth.category_names
    assert loaded_cohort.gene_ids == genomics_synth.gene_ids
    assert loaded_cohort.category_sizes == genomics_synth.category_sizes
    for got, want in zip(loaded_cohort.expression, genomics_synth.expression):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    _assert_matrices_match_the_stack(loaded_cohort, genomics_synth)


def test_expression_matrices_of_a_synth_cohort_match_the_stack(genomics_synth):
    _assert_matrices_match_the_stack(genomics_synth, genomics_synth)


def test_a_loaded_cohort_holds_one_copy_of_its_genomics(loaded_cohort):
    matrices = loaded_cohort.expression
    roots = {id(root): root for root in map(_memory_root, matrices)}.values()
    assert sum(root.nbytes for root in roots) == sum(m.nbytes for m in matrices)
    for matrix in matrices:
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0


@pytest.mark.parametrize("in_order", [True, False])
def test_an_in_order_file_loads_with_no_copy_of_the_parsed_block(
        tmp_path, genomics_synth, monkeypatch, in_order):
    parsed = []

    def spy(*paths):
        parsed.append(read_genomics(*paths))
        return parsed[-1]

    monkeypatch.setattr(io, "read_genomics", spy)
    manifest = write_cohort(tmp_path, genomics_synth, name="toy")
    if not in_order:
        _shuffle_genomics_columns(tmp_path / "toy_genomics.tsv")
    cohort = load_cohort(manifest)
    (_, _, _, block), = parsed
    for matrix, parsed_matrix in zip(cohort.expression, block, strict=True):
        assert np.shares_memory(matrix, parsed_matrix) == in_order


def test_profile_vectors_are_read_only(genomics_synth):
    # a patient's profile is a column of the cohort's matrices
    for matrix in genomics_synth.expression:
        for view in (matrix, matrix[:, 0]):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0


def _genomics_cohort(**changes):
    cohort = tiny_cohort([1.0, 2.0, 3.0], [0, 0, 1])
    cohort.category_names = ("a", "b")
    cohort.gene_ids = (("a0",), ("b0", "b1"))
    cohort.expression = (np.ones((1, 3)), np.ones((2, 3)))
    for name, value in changes.items():
        setattr(cohort, name, value)
    return cohort


def test_cohort_validate_checks_the_expression_matrices():
    _genomics_cohort().validate()
    assert _genomics_cohort().category_sizes == (1, 2)
    with pytest.raises(DataFormatError, match=r"category 'b' expression has shape \(3, 2\)"):
        _genomics_cohort(expression=(np.ones((1, 3)), np.ones((3, 2)))).validate()
    with pytest.raises(DataFormatError, match=r"category 'b' expression has shape \(2, 4\)"):
        _genomics_cohort(expression=(np.ones((1, 3)), np.ones((2, 4)))).validate()
    for bad in (np.nan, np.inf, -np.inf):
        matrix = np.ones((2, 3))
        matrix[1, 2] = bad
        with pytest.raises(DataFormatError, match="category 'b' has non-finite"):
            _genomics_cohort(expression=(np.ones((1, 3)), matrix)).validate()
    for fields in ({"expression": None}, {"category_names": None},
                   {"gene_ids": None}, {"gene_ids": (("a0",),)}):
        with pytest.raises(DataFormatError, match="must all be given"):
            _genomics_cohort(**fields).validate()


def test_a_cohort_holds_its_matrices_read_only_as_float64():
    given = np.ones((2, 3), dtype=np.float32)
    writable = np.ones((1, 3))
    cohort = Cohort(tiny_cohort([1.0, 2.0, 3.0], [0, 0, 1]).patients, ("a", "b"),
                    (("a0",), ("b0", "b1")), [writable, given])
    cohort.validate()
    assert [m.dtype for m in cohort.expression] == [np.float64, np.float64]
    assert writable.flags.writeable
    for matrix in cohort.expression:
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0
